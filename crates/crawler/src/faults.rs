//! Crawl-time fault injection: materialized churn schedules for the
//! agent pool.
//!
//! Section 3's dependability row is about *agents*, not servers: "the
//! consistent hashing scheme of UbiCrawler \[6\] exists precisely so
//! that new agents enter the crawling system without re-hashing all the
//! server names." That claim is only testable if agents actually come
//! and go. An [`AgentSchedule`] materializes one [`DownInterval`]
//! sequence per agent from an [`UpDownProcess`] renewal model — the
//! crawl-tier mirror of `dwr-query::faults::FaultSchedule` — and
//! [`DistributedCrawl`](crate::sim::DistributedCrawl) consumes its
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
use dwr_avail::failure::{DownInterval, UpDownProcess};
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

/// Per-agent outage intervals over a fixed horizon — the crawl tier's
/// churn script.
#[derive(Debug, Clone)]
pub struct AgentSchedule {
    horizon: SimTime,
    /// `outages[agent]`: sorted, non-overlapping down intervals.
    outages: Vec<Vec<DownInterval>>,
}

impl AgentSchedule {
    /// Materialize a schedule of `agents` independent up-down processes
    /// over `[0, horizon)`.
    pub fn generate(agents: usize, process: &UpDownProcess, horizon: SimTime, seed: u64) -> Self {
        assert!(horizon > 0);
        let root = SimRng::new(seed);
        let outages = (0..agents)
            .map(|a| {
                // Label-forked: agent a's stream is independent of the
                // schedule's dimensions (same trick as the query tier's
                // FaultSchedule and site_outage_traces).
                let mut rng = root.fork(0xC8A4_0000 | a as u64);
                process.down_intervals(horizon, &mut rng)
            })
            .collect();
        AgentSchedule { horizon, outages }
    }

    /// Build a schedule from hand-placed intervals (tests, replayed
    /// traces). `outages[a]` must be sorted and non-overlapping.
    pub fn from_intervals(outages: Vec<Vec<DownInterval>>, horizon: SimTime) -> Self {
        assert!(horizon > 0);
        debug_assert!(outages.iter().all(|ivs| ivs.windows(2).all(|w| w[0].end <= w[1].start)));
        AgentSchedule { horizon, outages }
    }

    /// The scripted single-crash scenario: `agent` dies at `at` and
    /// never recovers.
    pub fn single_crash(agents: usize, agent: AgentId, at: SimTime) -> Self {
        let horizon = SimTime::MAX;
        let outages = (0..agents as u32)
            .map(|a| {
                if a == agent.0 {
                    vec![DownInterval { start: at, end: horizon }]
                } else {
                    Vec::new()
                }
            })
            .collect();
        AgentSchedule { horizon, outages }
    }

    /// The schedule's time horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of agents covered.
    pub fn num_agents(&self) -> usize {
        self.outages.len()
    }

    /// The sorted outage intervals of agent `a` (empty for agents
    /// outside the schedule).
    pub fn intervals(&self, a: usize) -> &[DownInterval] {
        self.outages.get(a).map_or(&[], Vec::as_slice)
    }

    /// Whether agent `a` is down at instant `t`. Agents outside the
    /// schedule are always up.
    pub fn is_down(&self, a: usize, t: SimTime) -> bool {
        let ivs = self.intervals(a);
        let idx = ivs.partition_point(|iv| iv.start <= t);
        idx > 0 && ivs[idx - 1].contains(t)
    }

    /// Total downtime of agent `a` over the horizon.
    pub fn downtime(&self, a: usize) -> SimTime {
        self.intervals(a).iter().map(DownInterval::duration).sum()
    }

    /// Every membership event in time order. Crashes sort before
    /// recoveries at equal instants, so the concurrent-liveness count
    /// computed by sweeping this list is conservative.
    pub fn transitions(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for (a, ivs) in self.outages.iter().enumerate() {
            let agent = AgentId(a as u32);
            for iv in ivs {
                out.push(Transition { at: iv.start, agent, down: true });
                if iv.end < self.horizon {
                    out.push(Transition { at: iv.end, agent, down: false });
                }
            }
        }
        out.sort_unstable_by_key(|t| (t.at, !t.down, t.agent));
        out
    }

    /// Number of membership events (crashes + recoveries) the schedule
    /// scripts.
    pub fn membership_changes(&self) -> u64 {
        self.transitions().len() as u64
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
    fn is_down_follows_intervals() {
        let s = AgentSchedule::from_intervals(vec![vec![iv(10, 20), iv(40, 50)], vec![]], 100);
        assert!(!s.is_down(0, 9));
        assert!(s.is_down(0, 10));
        assert!(s.is_down(0, 19));
        assert!(!s.is_down(0, 20));
        assert!(s.is_down(0, 45));
        assert!(!s.is_down(1, 45), "agent with no outages is up");
        assert!(!s.is_down(7, 45), "agent outside the schedule is up");
        assert_eq!(s.downtime(0), 20);
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
        assert_eq!(s.membership_changes(), 5);
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

    #[test]
    fn generate_is_deterministic_and_dimension_stable() {
        let p = UpDownProcess::exponential(10 * MINUTE, 2 * MINUTE);
        let horizon = 6 * HOUR;
        let a = AgentSchedule::generate(4, &p, horizon, 42);
        let b = AgentSchedule::generate(4, &p, horizon, 42);
        let wider = AgentSchedule::generate(6, &p, horizon, 42);
        for agent in 0..4 {
            assert_eq!(a.intervals(agent), b.intervals(agent), "same seed, same schedule");
            assert_eq!(
                a.intervals(agent),
                wider.intervals(agent),
                "adding agents must not perturb existing streams"
            );
        }
        assert_ne!(a.intervals(0), a.intervals(1), "streams are independent");
        assert_ne!(
            AgentSchedule::generate(4, &p, horizon, 43).intervals(0),
            a.intervals(0),
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
            assert!(s.intervals(a).is_empty());
        }
        let ts = s.transitions();
        assert_eq!(ts.len(), 1, "one crash, no recovery");
        assert_eq!(ts[0], Transition { at: 30 * SECOND, agent: AgentId(2), down: true });
        assert_eq!(s.min_live(4), 3);
    }
}
