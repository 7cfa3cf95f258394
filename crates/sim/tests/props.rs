//! Property-based tests of the simulation kernel's invariants.

use dwr_sim::dist::{AliasTable, Exponential, Zipf};
use dwr_sim::event::EventQueue;
use dwr_sim::stats::{Imbalance, Samples};
use dwr_sim::SimRng;
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut prev = 0u64;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// Simultaneous events preserve insertion (FIFO) order.
    #[test]
    fn event_queue_fifo_on_ties(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some((t, i)));
        }
    }

    /// `below(b)` always lands in `[0, b)`.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Forked streams are deterministic functions of (seed, label).
    #[test]
    fn rng_fork_deterministic(seed in any::<u64>(), label in any::<u64>()) {
        let mut a = SimRng::new(seed).fork(label);
        let mut b = SimRng::new(seed).fork(label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Shuffling preserves the multiset.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut xs in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut rng = SimRng::new(seed);
        let mut sorted_before = xs.clone();
        sorted_before.sort_unstable();
        rng.shuffle(&mut xs);
        xs.sort_unstable();
        prop_assert_eq!(xs, sorted_before);
    }

    /// Zipf samples stay inside the configured universe.
    #[test]
    fn zipf_in_bounds(seed in any::<u64>(), n in 1u64..100_000, s in 0.3f64..2.5) {
        let z = Zipf::new(n, s);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Exponential samples are non-negative and finite.
    #[test]
    fn exponential_nonnegative(seed in any::<u64>(), mean in 0.001f64..1e9) {
        let e = Exponential::with_mean(mean);
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// Alias tables only emit indices with positive weight.
    #[test]
    fn alias_table_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..50)
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let t = AliasTable::new(&weights);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let i = t.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight outcome {i}");
        }
    }

    /// Imbalance invariants: max/mean >= 1, Gini in [0, 1), and perfectly
    /// equal loads give 0 spread.
    #[test]
    fn imbalance_bounds(loads in prop::collection::vec(0.0f64..1e6, 1..64)) {
        prop_assume!(loads.iter().sum::<f64>() > 0.0);
        let i = Imbalance::of(&loads);
        prop_assert!(i.max_over_mean >= 1.0 - 1e-9);
        prop_assert!((0.0..1.0).contains(&i.gini), "gini={}", i.gini);
        prop_assert!(i.cv >= 0.0);
    }

    /// Percentiles are bracketed by min and max and monotone in p.
    #[test]
    fn percentiles_bracketed(xs in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut s = Samples::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &xs {
            s.push(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let p25 = s.percentile(25.0);
        let p50 = s.percentile(50.0);
        let p99 = s.percentile(99.0);
        prop_assert!(lo - 1e-6 <= p25 && p99 <= hi + 1e-6);
        prop_assert!(p25 <= p50 + 1e-9 && p50 <= p99 + 1e-9);
    }

    /// Merging log-bucketed summaries is associative on every exact
    /// field (buckets, count, min, max); only the float `sum` may differ
    /// by rounding across merge orders.
    #[test]
    fn percentiles_merge_associative(
        xs in prop::collection::vec(1e-6f64..1e9, 0..80),
        ys in prop::collection::vec(1e-6f64..1e9, 0..80),
        zs in prop::collection::vec(1e-6f64..1e9, 0..80),
    ) {
        let summarize = |v: &[f64]| {
            let mut p = dwr_sim::stats::Percentiles::new();
            for &x in v {
                p.push(x);
            }
            p
        };
        let (a, b, c) = (summarize(&xs), summarize(&ys), summarize(&zs));
        // (a ⊔ b) ⊔ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.buckets(), right.buckets());
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        let scale = 1.0 + left.sum().abs();
        prop_assert!((left.sum() - right.sum()).abs() < 1e-9 * scale);
    }

    /// A log-bucketed quantile estimate never strays more than one bucket
    /// width (a factor of 2^(1/8)) from the exact sample percentile.
    #[test]
    fn percentiles_agree_with_exact_within_one_bucket(
        xs in prop::collection::vec(1e-6f64..1e12, 1..300),
        q in 0.0f64..100.0,
    ) {
        let mut p = dwr_sim::stats::Percentiles::new();
        let mut exact = Samples::new();
        for &x in &xs {
            p.push(x);
            exact.push(x);
        }
        // Compare at the same nearest-rank convention the summary uses.
        let rank = (q / 100.0 * (xs.len() - 1) as f64).round() as usize;
        let mut sorted = xs.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let truth = sorted[rank];
        let est = p.percentile(q);
        let g = (1.0f64 / 8.0).exp2();
        prop_assert!(
            est >= truth / g - 1e-12 && est <= truth * g + 1e-12,
            "q={} est={} truth={}", q, est, truth
        );
    }
}
