//! Property-based tests of dependability invariants.

use dwr_avail::failure::{DownInterval, Timeline, UpDownProcess};
use dwr_avail::quorum::{at_least_k_of_n, majority, read_one, write_all};
use dwr_avail::site::SiteConfig;
use dwr_sim::{SimRng, DAY, HOUR};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quorum availability is monotone in component availability.
    #[test]
    fn quorum_monotone_in_p(n in 1u32..12, k_off in 0u32..12, p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let k = k_off % n + 1;
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(at_least_k_of_n(n, k, lo) <= at_least_k_of_n(n, k, hi) + 1e-12);
    }

    /// Needing more components can never raise availability.
    #[test]
    fn quorum_antitone_in_k(n in 1u32..12, p in 0.0f64..1.0) {
        let mut prev = 1.0f64 + 1e-12;
        for k in 1..=n {
            let a = at_least_k_of_n(n, k, p);
            prop_assert!(a <= prev + 1e-12, "k={k} a={a} prev={prev}");
            prev = a;
        }
    }

    /// The binomial tail is a probability: in [0, 1] for every (n, k, p).
    #[test]
    fn quorum_stays_in_unit_interval(n in 1u32..16, k_off in 0u32..16, p in 0.0f64..1.0) {
        let k = k_off % (n + 1); // include the degenerate k = 0
        let a = at_least_k_of_n(n, k, p);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&a), "n={n} k={k} p={p} a={a}");
    }

    /// The named protocols are exactly the tail at their quorum size:
    /// majority at ⌊n/2⌋+1, read-one at 1, write-all at n.
    #[test]
    fn named_quorums_agree_with_tail(n in 1u32..16, p in 0.0f64..1.0) {
        prop_assert_eq!(majority(n, p), at_least_k_of_n(n, n / 2 + 1, p));
        prop_assert_eq!(read_one(n, p), at_least_k_of_n(n, 1, p));
        prop_assert_eq!(write_all(n, p), at_least_k_of_n(n, n, p));
    }

    /// read-one >= majority >= write-all, always.
    #[test]
    fn quorum_ordering(n in 1u32..12, p in 0.0f64..1.0) {
        let r = read_one(n, p);
        let m = majority(n, p);
        let w = write_all(n, p);
        prop_assert!(r >= m - 1e-12);
        prop_assert!(m >= w - 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
    }

    /// Down intervals are ordered, disjoint, and inside the horizon.
    #[test]
    fn down_intervals_well_formed(seed in any::<u64>(), mtbf_days in 1u64..60, mttr_hours in 1u64..48) {
        let p = UpDownProcess::exponential(mtbf_days * DAY, mttr_hours * HOUR);
        let mut rng = SimRng::new(seed);
        let horizon = 300 * DAY;
        let ivs = p.down_intervals(horizon, &mut rng);
        for iv in &ivs {
            prop_assert!(iv.start < iv.end);
            prop_assert!(iv.end <= horizon);
        }
        for w in ivs.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// Site availability over any window is in \[0, 1\], and point queries
    /// agree with interval membership.
    #[test]
    fn site_availability_consistent(seed in any::<u64>(), servers in 1usize..4) {
        let cfg = SiteConfig::birn_like(servers);
        let mut rng = SimRng::new(seed);
        let site = cfg.simulate(120 * DAY, &mut rng);
        let a = site.availability();
        prop_assert!((0.0..=1.0).contains(&a));
        for iv in site.down_intervals().iter().take(5) {
            prop_assert!(!site.is_up(iv.start));
            prop_assert!(!site.is_up(iv.end - 1));
            prop_assert!(site.is_up(iv.end));
        }
    }

    /// A timeline built from arbitrary hand-placed intervals — unsorted,
    /// overlapping, empty, past the horizon — answers every lookup the
    /// way a scan of the raw input, clipped to the horizon, does.
    #[test]
    fn timeline_equals_a_scan_of_its_input(
        raw in prop::collection::vec((0u64..120, 0u64..40), 0..12),
        horizon in 1u64..100,
    ) {
        let ivs: Vec<DownInterval> =
            raw.iter().map(|&(start, len)| DownInterval { start, end: start + len }).collect();
        let tl = Timeline::new(ivs.clone(), horizon);
        let down = |t: u64| t < horizon && ivs.iter().any(|iv| iv.start <= t && t < iv.end);
        for t in 0..horizon + 5 {
            prop_assert_eq!(tl.is_down(t), down(t), "is_down({})", t);
            for hi in t + 1..t + 8 {
                prop_assert_eq!(tl.fails_during(t, hi), (t..hi).any(down), "[{}, {})", t, hi);
            }
        }
        prop_assert_eq!(tl.downtime(), (0..horizon).filter(|&t| down(t)).count() as u64);
        let disjoint = tl.down_intervals().windows(2).all(|w| w[0].end < w[1].start);
        prop_assert!(disjoint, "{:?}", tl.down_intervals());
    }

    /// Steady-state availability formula stays in (0, 1).
    #[test]
    fn steady_state_in_unit_interval(mtbf in 1u64..1_000_000, mttr in 1u64..1_000_000) {
        let p = UpDownProcess::exponential(mtbf, mttr);
        let a = p.steady_state_availability();
        prop_assert!(a > 0.0 && a < 1.0);
    }
}
