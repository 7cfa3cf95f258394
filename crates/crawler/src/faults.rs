//! Crawl-time fault injection: materialized churn schedules for the
//! agent pool.
//!
//! Section 3's dependability row is about *agents*, not servers: "the
//! consistent hashing scheme of UbiCrawler \[6\] exists precisely so
//! that new agents enter the crawling system without re-hashing all the
//! server names." That claim is only testable if agents actually come
//! and go. An [`AgentSchedule`] is one [`Timeline`] per agent, drawn
//! from an [`UpDownProcess`] renewal model — the crawl-tier mirror of
//! `dwr-query::faults::FaultSchedule`, over the same `Timeline` type —
//! and [`DistributedCrawl`](crate::sim::DistributedCrawl) consumes its
//! [`transitions`](AgentSchedule::transitions) as crash and recovery
//! events in the simulation's event loop: on each pool change the live
//! `UrlAssigner` is updated, affected hosts are re-routed, and the
//! departing agent's frontier state is handed off to the new owners.
//!
//! Schedules are deterministic and **dimension-stable**: the intervals
//! of agent *a* depend only on the seed, the process parameters, and
//! the label `a` — never on how many other agents exist. A schedule
//! generated for `n + 1` agents is therefore the `n`-agent schedule
//! plus one extra independent agent, which keeps fleet-size sweeps
//! comparable row to row.

use crate::assign::AgentId;
use dwr_avail::failure::{DownInterval, Timeline, UpDownProcess};
use dwr_sim::{SimRng, SimTime};

/// One membership event of a churn schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the event fires.
    pub at: SimTime,
    /// The agent that changes state.
    pub agent: AgentId,
    /// `true` = the agent crashes; `false` = it recovers.
    pub down: bool,
}

/// Per-agent outage timelines — the crawl tier's churn script.
#[derive(Debug, Clone)]
pub struct AgentSchedule {
    /// `outages[agent]`.
    outages: Vec<Timeline>,
}

impl AgentSchedule {
    /// Materialize a schedule of `agents` independent up-down processes
    /// over `[0, horizon)`.
    pub fn generate(agents: usize, process: &UpDownProcess, horizon: SimTime, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let outages = (0..agents)
            .map(|a| {
                // Label-forked: agent a's stream is independent of the
                // schedule's dimensions (same trick as the query tier's
                // FaultSchedule and site_outage_traces).
                let mut rng = root.fork(0xC8A4_0000 | a as u64);
                Timeline::new(process.down_intervals(horizon, &mut rng), horizon)
            })
            .collect();
        AgentSchedule { outages }
    }

    /// Build a schedule from hand-placed intervals (tests, replayed
    /// traces), `outages[a]` in any order: each agent's intervals are
    /// normalised into its [`Timeline`].
    pub fn from_intervals(outages: Vec<Vec<DownInterval>>, horizon: SimTime) -> Self {
        AgentSchedule {
            outages: outages.into_iter().map(|ivs| Timeline::new(ivs, horizon)).collect(),
        }
    }

    /// The scripted single-crash scenario: `agent` dies at `at` and
    /// never recovers.
    pub fn single_crash(agents: usize, agent: AgentId, at: SimTime) -> Self {
        let horizon = SimTime::MAX;
        let outages = (0..agents as u32)
            .map(|a| {
                let downs = if a == agent.0 {
                    vec![DownInterval { start: at, end: horizon }]
                } else {
                    Vec::new()
                };
                Timeline::new(downs, horizon)
            })
            .collect();
        AgentSchedule { outages }
    }

    /// The outage timeline of agent `a`, or `None` for an agent outside
    /// the schedule.
    pub fn timeline(&self, a: usize) -> Option<&Timeline> {
        self.outages.get(a)
    }

    /// Whether agent `a` is down at instant `t`. Agents outside the
    /// schedule are always up.
    pub fn is_down(&self, a: usize, t: SimTime) -> bool {
        self.timeline(a).is_some_and(|tl| tl.is_down(t))
    }

    /// Every membership event in time order. Crashes sort before
    /// recoveries at equal instants, so the concurrent-liveness count
    /// computed by sweeping this list is conservative. A repair at the
    /// horizon never fires.
    pub fn transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for (a, tl) in self.outages.iter().enumerate() {
            let agent = AgentId(a as u32);
            for iv in tl.down_intervals() {
                out.push(Transition { at: iv.start, agent, down: true });
                if iv.end < tl.horizon() {
                    out.push(Transition { at: iv.end, agent, down: false });
                }
            }
        }
        out.sort_unstable_by_key(|t| (t.at, !t.down, t.agent));
        out
    }

    /// The minimum number of concurrently live agents over the whole
    /// horizon, for a pool of `agents` (agents beyond the schedule are
    /// always up). Schedules used in coverage tests should keep this
    /// ≥ 1 — the simulator refuses to kill the last live agent, which
    /// would distort a schedule that tried.
    pub fn min_live(&self, agents: usize) -> usize {
        let mut live = agents as i64 - (0..agents).filter(|&a| self.is_down(a, 0)).count() as i64;
        let mut min = live;
        for t in self.transitions() {
            if (t.agent.0 as usize) >= agents {
                continue;
            }
            if t.at == 0 {
                continue; // already folded into the starting count
            }
            live += if t.down { -1 } else { 1 };
            min = min.min(live);
        }
        min.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::{HOUR, MINUTE, SECOND};

    fn iv(start: SimTime, end: SimTime) -> DownInterval {
        DownInterval { start, end }
    }

    #[test]
    fn outside_the_schedule_is_always_up() {
        let s = AgentSchedule::from_intervals(vec![vec![iv(10, 20)], vec![]], 100);
        assert!(s.is_down(0, 15));
        assert!(!s.is_down(1, 15), "agent with no outages is up");
        assert!(!s.is_down(7, 15), "agent outside the schedule is up");
        assert!(s.timeline(7).is_none());
    }

    #[test]
    fn transitions_are_ordered_and_paired() {
        let s = AgentSchedule::from_intervals(
            vec![vec![iv(10, 20)], vec![iv(20, 30)], vec![iv(5, 100)]],
            100,
        );
        let ts = s.transitions();
        assert!(ts.windows(2).all(|w| w[0].at <= w[1].at), "time-ordered");
        // Agent 2's recovery lands exactly at the horizon, so it never
        // fires: 3 crashes + 2 recoveries.
        assert_eq!(ts.iter().filter(|t| t.down).count(), 3);
        assert_eq!(ts.iter().filter(|t| !t.down).count(), 2);
        // At t=20 the crash of agent 1 sorts before the recovery of 0.
        let at20: Vec<bool> = ts.iter().filter(|t| t.at == 20).map(|t| t.down).collect();
        assert_eq!(at20, vec![true, false]);
    }

    #[test]
    fn min_live_is_conservative_at_tied_instants() {
        // Crash of 1 and recovery of 0 at t=20: the conservative sweep
        // counts the moment both are down.
        let s = AgentSchedule::from_intervals(vec![vec![iv(10, 20)], vec![iv(20, 30)]], 100);
        assert_eq!(s.min_live(2), 0);
        assert_eq!(s.min_live(3), 1, "a third, never-failing agent lifts the floor");
        // Non-overlapping outages keep one of two alive.
        let s = AgentSchedule::from_intervals(vec![vec![iv(10, 20)], vec![iv(25, 30)]], 100);
        assert_eq!(s.min_live(2), 1);
    }

    /// Hand-placed input in any order answers for its normalised union:
    /// one crash and one recovery per merged outage, and the liveness
    /// sweep sees the merged outage, not the raw pieces.
    #[test]
    fn from_intervals_normalises_unsorted_overlapping_input() {
        let s = AgentSchedule::from_intervals(
            vec![vec![iv(40, 50), iv(10, 30), iv(20, 45)], vec![iv(35, 38), iv(60, 70)]],
            100,
        );
        for t in 0..100 {
            assert_eq!(s.is_down(0, t), (10..50).contains(&t), "agent 0 at {t}");
        }
        let t = |at, agent, down| Transition { at, agent: AgentId(agent), down };
        assert_eq!(
            s.transitions(),
            vec![
                t(10, 0, true),
                t(35, 1, true),
                t(38, 1, false),
                t(50, 0, false),
                t(60, 1, true),
                t(70, 1, false),
            ]
        );
        assert_eq!(s.min_live(2), 0, "both agents are down over [35, 38)");
        assert_eq!(s.min_live(3), 1);
    }

    #[test]
    fn generate_is_deterministic_and_dimension_stable() {
        let p = UpDownProcess::exponential(10 * MINUTE, 2 * MINUTE);
        let horizon = 6 * HOUR;
        let a = AgentSchedule::generate(4, &p, horizon, 42);
        let b = AgentSchedule::generate(4, &p, horizon, 42);
        let wider = AgentSchedule::generate(6, &p, horizon, 42);
        let ivs = |s: &AgentSchedule, agent| s.timeline(agent).unwrap().down_intervals().to_vec();
        for agent in 0..4 {
            // The fork label is `0xC8A4_0000 | a`.
            let mut rng = SimRng::new(42).fork(0xC8A4_0000 | agent as u64);
            assert_eq!(ivs(&a, agent), p.down_intervals(horizon, &mut rng), "fork label");
            assert_eq!(ivs(&a, agent), ivs(&b, agent), "same seed, same schedule");
            assert_eq!(
                ivs(&a, agent),
                ivs(&wider, agent),
                "adding agents must not perturb existing streams"
            );
        }
        assert_ne!(ivs(&a, 0), ivs(&a, 1), "streams are independent");
        assert_ne!(
            ivs(&AgentSchedule::generate(4, &p, horizon, 43), 0),
            ivs(&a, 0),
            "seed matters"
        );
    }

    #[test]
    fn single_crash_never_recovers() {
        let s = AgentSchedule::single_crash(4, AgentId(2), 30 * SECOND);
        assert!(!s.is_down(2, 30 * SECOND - 1));
        assert!(s.is_down(2, 30 * SECOND));
        assert!(s.is_down(2, SimTime::MAX - 1), "never recovers");
        for a in [0usize, 1, 3] {
            assert!(s.timeline(a).unwrap().down_intervals().is_empty());
        }
        let ts = s.transitions();
        assert_eq!(ts.len(), 1, "one crash, no recovery");
        assert_eq!(ts[0], Transition { at: 30 * SECOND, agent: AgentId(2), down: true });
        assert_eq!(s.min_live(4), 3);
    }
}
