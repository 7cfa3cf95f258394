//! Query-time fault injection: materialized outage schedules for the
//! replicated engine.
//!
//! Section 5's dependability argument ("upon query processor failures,
//! the system returns cached results") is only testable if the query
//! path actually experiences failures. A [`FaultSchedule`] is a grid of
//! [`Timeline`]s, one per *(partition, replica)* pair, drawn from an
//! [`UpDownProcess`] renewal model, and it is the engine's one record of
//! replica liveness. The engine reads it at one point, each serving
//! call's instant
//! ([`DistributedEngine::now`](crate::engine::DistributedEngine::now),
//! set by `advance_to`), and stores nothing of it:
//!
//! * a replica is a candidate only if [`FaultSchedule::is_down`] says it
//!   is up then — for dispatch, for the stale-serving check, and for a
//!   split's builder at the split's instant;
//! * the chosen replica's [`FaultSchedule::fails_during`] over the
//!   query's service window says whether it dies *mid-query*, which
//!   triggers one hedged retry on another up replica before the
//!   partition is dropped as degraded.
//!
//! Every interval question is the pair's `Timeline`'s; the schedule adds
//! only its dimensions and the rule that a pair outside them is always up.
//! Schedules are deterministic: the intervals of pair *(p, r)* depend
//! only on the seed, the process parameters, and the labels `p` and `r`
//! — never on how many other pairs exist. A schedule generated for
//! `r + 1` replicas is therefore the `r`-replica schedule plus one extra
//! independent replica per partition, which is what makes the
//! replication-factor sweep of `exp_failover` comparable across rows.
//!
//! The site tier consumes the same renewal machinery one level up:
//! [`site_outage_traces`] materializes one whole-site `Timeline` per
//! site, label-forked per site index so that adding an `r+1`-th site
//! never perturbs the first `r` traces — the property that makes
//! `exp_site_failover`'s site-replication sweep comparable across rows
//! (a query that failed with `r` sites can only be rescued, never newly
//! lost, by site `r+1`).

use dwr_avail::failure::{DownInterval, Timeline, UpDownProcess};
use dwr_avail::site::SiteConfig;
use dwr_sim::{SimRng, SimTime};

/// Per-replica outage timelines over a fixed horizon, indexed by
/// partition and replica.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    horizon: SimTime,
    /// `outages[partition][replica]`.
    outages: Vec<Vec<Timeline>>,
}

impl FaultSchedule {
    /// Materialize a schedule of `partitions × replicas` independent
    /// up-down processes over `[0, horizon)`.
    pub fn generate(
        partitions: usize,
        replicas: usize,
        process: &UpDownProcess,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        let root = SimRng::new(seed);
        let outages = (0..partitions)
            .map(|p| {
                (0..replicas)
                    .map(|r| {
                        // Label-forked: the (p, r) stream is independent
                        // of the schedule's dimensions.
                        let mut rng = root.fork(((p as u64) << 24) | r as u64);
                        Timeline::new(process.down_intervals(horizon, &mut rng), horizon)
                    })
                    .collect()
            })
            .collect();
        FaultSchedule { horizon, outages }
    }

    /// Build a schedule from hand-placed intervals (tests, replayed
    /// traces), `outages[p][r]` in any order: each pair's intervals are
    /// normalised into its [`Timeline`].
    pub fn from_intervals(outages: Vec<Vec<Vec<DownInterval>>>, horizon: SimTime) -> Self {
        let outages = outages
            .into_iter()
            .map(|group| group.into_iter().map(|ivs| Timeline::new(ivs, horizon)).collect())
            .collect();
        FaultSchedule { horizon, outages }
    }

    /// The schedule's time horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of partitions covered.
    pub fn num_partitions(&self) -> usize {
        self.outages.len()
    }

    /// Number of replicas covered for partition `p` (0 when `p` is
    /// outside the schedule).
    pub fn num_replicas(&self, p: usize) -> usize {
        self.outages.get(p).map_or(0, Vec::len)
    }

    /// The outage timeline of replica `r` of partition `p`, or `None`
    /// for a pair outside the schedule. Exposed so experiments can align
    /// probe queries with outage boundaries.
    pub fn timeline(&self, p: usize, r: usize) -> Option<&Timeline> {
        self.outages.get(p)?.get(r)
    }

    /// Whether replica `r` of partition `p` is down at instant `t`.
    /// Pairs outside the schedule are always up.
    pub fn is_down(&self, p: usize, r: usize, t: SimTime) -> bool {
        self.timeline(p, r).is_some_and(|tl| tl.is_down(t))
    }

    /// Whether replica `r` of partition `p` suffers any outage
    /// intersecting the window `[lo, hi)` — i.e. whether a query
    /// occupying the replica for that window would be lost. Pairs outside
    /// the schedule never fail.
    pub fn fails_during(&self, p: usize, r: usize, lo: SimTime, hi: SimTime) -> bool {
        self.timeline(p, r).is_some_and(|tl| tl.fails_during(lo, hi))
    }
}

/// Materialize one whole-site outage timeline per site over
/// `[0, horizon)`, all drawn from `cfg`'s failure processes.
///
/// Trace `s` is generated from `SimRng::new(seed).fork(s)`, so it depends
/// only on the seed, the config, and the site's index — never on how many
/// sites exist. The traces for `n` sites are therefore a prefix of the
/// traces for `n + 1`, which keeps site-replication sweeps comparable:
/// the instants where *all* of `n + 1` sites are down are a subset of the
/// instants where all of `n` are.
pub fn site_outage_traces(
    n_sites: usize,
    cfg: &SiteConfig,
    horizon: SimTime,
    seed: u64,
) -> Vec<Timeline> {
    let root = SimRng::new(seed);
    (0..n_sites)
        .map(|s| {
            let mut rng = root.fork(0x517E_0000 | s as u64);
            cfg.simulate(horizon, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::{DAY, HOUR};

    fn iv(start: SimTime, end: SimTime) -> DownInterval {
        DownInterval { start, end }
    }

    #[test]
    fn outside_the_schedule_is_always_up() {
        let s = FaultSchedule::from_intervals(vec![vec![vec![iv(10, 20)], vec![]]], 100);
        assert_eq!((s.num_partitions(), s.num_replicas(0), s.num_replicas(7)), (1, 2, 0));
        assert!(s.is_down(0, 0, 15) && s.fails_during(0, 0, 0, 11));
        assert!(!s.is_down(0, 1, 15), "replica with no outages is up");
        assert!(!s.is_down(7, 0, 15), "partition outside the schedule is up");
        assert!(!s.is_down(0, 9, 15), "replica outside the schedule is up");
        assert!(!s.fails_during(3, 1, 0, 100), "outside the schedule never fails");
        assert!(s.timeline(0, 9).is_none());
    }

    /// Hand-placed input in any order answers for its normalised union:
    /// a release build must not silently misread unsorted intervals.
    #[test]
    fn from_intervals_normalises_unsorted_overlapping_input() {
        let s = FaultSchedule::from_intervals(
            vec![vec![vec![iv(40, 50), iv(10, 20), iv(15, 30), iv(45, 60)]]],
            100,
        );
        assert_eq!(s.timeline(0, 0).unwrap().down_intervals(), &[iv(10, 30), iv(40, 60)]);
        for t in 0..100 {
            let down = (10..30).contains(&t) || (40..60).contains(&t);
            assert_eq!(s.is_down(0, 0, t), down, "is_down at {t}");
        }
        assert!(s.fails_during(0, 0, 25, 26), "inside the overlap of two inputs");
        assert!(s.fails_during(0, 0, 55, 70), "inside the later overlap");
        assert!(!s.fails_during(0, 0, 30, 40) && !s.fails_during(0, 0, 60, 100));
    }

    #[test]
    fn generate_is_deterministic_and_dimension_stable() {
        let p = UpDownProcess::exponential(2 * DAY, 6 * HOUR);
        let horizon = 60 * DAY;
        let a = FaultSchedule::generate(4, 2, &p, horizon, 42);
        let b = FaultSchedule::generate(4, 2, &p, horizon, 42);
        let wider = FaultSchedule::generate(4, 3, &p, horizon, 42);
        let ivs =
            |s: &FaultSchedule, part, r| s.timeline(part, r).unwrap().down_intervals().to_vec();
        for part in 0..4 {
            for r in 0..2 {
                // The fork label is `(p << 24) | r`.
                let mut rng = SimRng::new(42).fork(((part as u64) << 24) | r as u64);
                assert_eq!(ivs(&a, part, r), p.down_intervals(horizon, &mut rng), "fork label");
                assert_eq!(ivs(&a, part, r), ivs(&b, part, r), "same seed, same schedule");
                assert_eq!(
                    ivs(&a, part, r),
                    ivs(&wider, part, r),
                    "adding replicas must not perturb existing streams"
                );
            }
        }
        assert_ne!(ivs(&a, 0, 0), ivs(&a, 0, 1), "streams are independent");
    }

    #[test]
    fn site_traces_are_deterministic_and_dimension_stable() {
        let cfg = SiteConfig::birn_like(2);
        let a = site_outage_traces(3, &cfg, 90 * DAY, 11);
        let b = site_outage_traces(3, &cfg, 90 * DAY, 11);
        let wider = site_outage_traces(4, &cfg, 90 * DAY, 11);
        for s in 0..3 {
            assert_eq!(a[s].down_intervals(), b[s].down_intervals(), "same seed, same trace");
            assert_eq!(
                a[s].down_intervals(),
                wider[s].down_intervals(),
                "adding a site must not perturb existing traces"
            );
        }
        assert_ne!(a[0].down_intervals(), a[1].down_intervals(), "per-site traces are independent");
        assert_ne!(
            site_outage_traces(1, &cfg, 90 * DAY, 12)[0].down_intervals(),
            a[0].down_intervals(),
            "seed matters"
        );
    }

    #[test]
    fn downtime_matches_steady_state_roughly() {
        let p = UpDownProcess::exponential(10 * DAY, DAY);
        let horizon = 2_000 * DAY;
        let s = FaultSchedule::generate(1, 1, &p, horizon, 7);
        let measured = s.timeline(0, 0).unwrap().availability();
        assert!((measured - p.steady_state_availability()).abs() < 0.02, "measured={measured}");
    }
}
