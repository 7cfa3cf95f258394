//! Lock-free instruments: counters, gauges, and log-bucketed histograms.
//!
//! Every mutation is a single atomic RMW (or a short CAS loop for the
//! float cells), so instruments can sit on the hot serving path and be
//! hammered from any number of threads without a lock. Reads are
//! monotone snapshots: a concurrent reader may observe a value between
//! two writes, never a torn one.

use dwr_sim::stats::{log_bucket_index, Percentiles, LOG_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Create a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A float-valued cell supporting `set` and lock-free `add` (f64 bits in
/// an atomic word).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulate into the value (CAS loop; lock-free).
    pub fn add(&self, v: f64) {
        add_f64(&self.0, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A lock-free log-bucketed histogram: atomic bucket counts in the
/// shared `dwr_sim::stats` layout (8 sub-buckets per octave), exact
/// min/max/count, and a mergeable [`Percentiles`] snapshot for
/// p50/p90/p99/p999 readouts.
///
/// `record` is wait-free except for the min/max CAS loops, which only
/// retry while the extremes are actually moving.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits; float accumulation, so merge order affects rounding only.
    sum: AtomicU64,
    /// f64 bits, starts at +inf.
    min: AtomicU64,
    /// f64 bits, starts at -inf.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0.0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one observation.
    pub fn record(&self, x: f64) {
        self.buckets[log_bucket_index(x)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum, x);
        update_extreme(&self.min, x, |cand, cur| cand < cur);
        update_extreme(&self.max, x, |cand, cur| cand > cur);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Fold another histogram's current contents into this one
    /// (cross-thread aggregation: per-shard histograms merge in task
    /// order for deterministic totals).
    pub fn merge(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(&other.buckets) {
            b.fetch_add(o.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        add_f64(&self.sum, f64::from_bits(other.sum.load(Ordering::Relaxed)));
        update_extreme(&self.min, f64::from_bits(other.min.load(Ordering::Relaxed)), |c, v| c < v);
        update_extreme(&self.max, f64::from_bits(other.max.load(Ordering::Relaxed)), |c, v| c > v);
    }

    /// A plain mergeable summary of the current contents — the bridge to
    /// `dwr_sim::stats::Percentiles` and its quantile arithmetic.
    ///
    /// Taken while writers are active, the snapshot reflects some valid
    /// prefix of each cell's history (fields are read independently); the
    /// experiment harnesses snapshot quiescent recorders.
    pub fn snapshot(&self) -> Percentiles {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum::<u64>();
        Percentiles::from_parts(
            buckets,
            count,
            f64::from_bits(self.sum.load(Ordering::Relaxed)),
            f64::from_bits(self.min.load(Ordering::Relaxed)),
            f64::from_bits(self.max.load(Ordering::Relaxed)),
        )
    }
}

fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn update_extreme(cell: &AtomicU64, cand: f64, wins: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while wins(cand, f64::from_bits(cur)) {
        match cell.compare_exchange_weak(cur, cand.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(1.5);
        g.add(2.5);
        assert_eq!(g.get(), 4.0);
        g.set(-1.0);
        assert_eq!(g.get(), -1.0);
    }

    #[test]
    fn histogram_snapshot_matches_plain_percentiles() {
        let h = Histogram::new();
        let mut p = Percentiles::new();
        for i in 1..=5_000u64 {
            let x = (i as f64).sqrt() * 3.0;
            h.record(x);
            p.push(x);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets(), p.buckets());
        assert_eq!(s.count(), p.count());
        assert_eq!(s.min(), p.min());
        assert_eq!(s.max(), p.max());
        for q in [50.0, 90.0, 99.0, 99.9] {
            assert_eq!(s.percentile(q), p.percentile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_merge_equals_combined_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let whole = Histogram::new();
        for i in 0..2_000u64 {
            let x = 1.0 + (i % 331) as f64;
            whole.record(x);
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        let (sa, sw) = (a.snapshot(), whole.snapshot());
        assert_eq!(sa.buckets(), sw.buckets());
        assert_eq!(sa.count(), sw.count());
        assert_eq!(sa.min(), sw.min());
        assert_eq!(sa.max(), sw.max());
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let h = Histogram::new();
        h.record(7.0);
        let before = h.snapshot();
        h.merge(&Histogram::new());
        assert_eq!(h.snapshot(), before, "empty min/max must not clobber extremes");
    }

    #[test]
    fn histogram_is_exact_under_concurrent_writers() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record((t * 10_000 + i) as f64 + 1.0);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 40_000);
        assert_eq!(snap.min(), 1.0);
        assert_eq!(snap.max(), 40_000.0);
        assert!((snap.sum() - (40_000.0 * 40_001.0 / 2.0)).abs() < 1e-3);
    }
}
