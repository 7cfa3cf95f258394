//! Measurement primitives shared by every experiment harness.
//!
//! Besides exact and log-bucketed percentile summaries, this module
//! provides the *imbalance* measures the paper's Section 4 revolves around:
//! when homogeneous servers are unevenly loaded, "the capacity of the busiest
//! server limits the total capacity of the system", so we report
//! max-to-average ratios, coefficients of variation, and Gini coefficients
//! for per-server load vectors.

/// Retains all samples; computes exact percentiles on demand.
///
/// Appropriate for the experiment scale in this repository (≤ millions of
/// samples); sorts lazily and caches the sorted order.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    data: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Create an empty sample set.
    pub fn new() -> Self {
        Samples { data: Vec::new(), sorted: true }
    }

    /// Create with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Samples { data: Vec::with_capacity(cap), sorted: true }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether there are no observations.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Total order: a stray NaN (e.g. 0/0 from an empty-window
            // rate) sorts to the end instead of panicking mid-report.
            self.data.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]` by nearest-rank with linear interpolation.
    /// Returns 0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.data.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.data[lo]
        } else {
            let frac = rank - lo as f64;
            self.data[lo] * (1.0 - frac) + self.data[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Maximum (0 for an empty set).
    pub fn max(&mut self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.data.last().expect("non-empty")
    }
}

/// Number of buckets in the shared log-bucketed percentile layout
/// ([`log_bucket_index`]): 8 sub-buckets per octave over `2^-16 ..
/// 2^48`, wide enough for sub-µs costs up to years of simulated time.
pub const LOG_BUCKETS: usize = 512;

/// Sub-buckets per octave (relative bucket width `2^(1/8)` ≈ 9%).
const LOG_SUB: f64 = 8.0;
/// Exponent of the lower edge of bucket 1.
const LOG_MIN_EXP: f64 = -16.0;

/// Bucket index of a value in the shared log-bucketed layout. Values
/// `<= 0` (and NaN) land in bucket 0 alongside everything below `2^-16`;
/// values past the top edge saturate into the last bucket.
///
/// This mapping is shared between [`Percentiles`] here and the atomic
/// `dwr-obs` histogram, so the two are mergeable with each other.
pub fn log_bucket_index(x: f64) -> usize {
    if x <= 0.0 || !x.is_finite() {
        return 0;
    }
    let i = ((x.log2() - LOG_MIN_EXP) * LOG_SUB).floor();
    if i < 1.0 {
        0
    } else if i >= (LOG_BUCKETS - 1) as f64 {
        LOG_BUCKETS - 1
    } else {
        i as usize
    }
}

/// Upper edge of bucket `i` (the last bucket is unbounded in `record`,
/// but reports use this nominal edge).
fn log_bucket_hi(i: usize) -> f64 {
    ((i as f64 + 1.0) / LOG_SUB + LOG_MIN_EXP).exp2()
}

/// A mergeable percentile summary over log-spaced buckets: O(1) push,
/// O(buckets) quantile, no sample retention — the streaming replacement
/// for sorting a full [`Samples`] vector.
///
/// Count, bucket occupancy, min, and max merge exactly (and hence
/// associatively); `sum` is a float accumulation whose value may differ
/// across merge orders by rounding only. Quantile estimates are exact to
/// one bucket width: the returned value is the upper edge of the bucket
/// holding the nearest-rank sample, clamped into `[min, max]`, so it
/// never deviates from the exact percentile by more than a factor of
/// `2^(1/8)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Percentiles {
    fn default() -> Self {
        Self::new()
    }
}

impl Percentiles {
    /// Create an empty summary.
    pub fn new() -> Self {
        Percentiles {
            buckets: vec![0; LOG_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Rebuild a summary from raw parts (the bridge used by the atomic
    /// `dwr-obs` histogram's snapshot).
    ///
    /// # Panics
    /// Panics unless `buckets` has [`LOG_BUCKETS`] entries and their sum
    /// is `count`.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: f64, min: f64, max: f64) -> Self {
        assert_eq!(buckets.len(), LOG_BUCKETS, "bucket layout mismatch");
        assert_eq!(buckets.iter().sum::<u64>(), count, "bucket occupancy must sum to count");
        Percentiles { buckets, count, sum, min, max }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.buckets[log_bucket_index(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold another summary into this one.
    pub fn merge(&mut self, other: &Percentiles) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`+inf` if empty; exact, not bucketed).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty; exact, not bucketed).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Bucket occupancy (for merge tests and renderers).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Percentile in `[0, 100]` by nearest rank over the buckets,
    /// accurate to one bucket width. Returns 0 for an empty summary.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return log_bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.percentile(99.9)
    }
}

/// Load-imbalance measures over a per-server load vector.
///
/// These are the quantities Figure 2 of the paper visualizes: the dashed
/// line is the mean; a balanced system keeps every server near it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    /// Mean per-server load.
    pub mean: f64,
    /// Maximum per-server load.
    pub max: f64,
    /// Max-to-mean ratio (1.0 = perfectly balanced).
    pub max_over_mean: f64,
    /// Coefficient of variation across servers.
    pub cv: f64,
    /// Gini coefficient in `[0, 1)` (0 = perfectly balanced).
    pub gini: f64,
}

impl Imbalance {
    /// Compute imbalance statistics for a non-empty load vector.
    ///
    /// # Panics
    /// Panics if `loads` is empty or contains a negative value.
    pub fn of(loads: &[f64]) -> Self {
        assert!(!loads.is_empty(), "imbalance of empty load vector");
        assert!(loads.iter().all(|&l| l >= 0.0), "loads must be non-negative");
        let n = loads.len() as f64;
        let sum: f64 = loads.iter().sum();
        let mean = sum / n;
        let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let var = loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        // Gini via the sorted formula.
        let mut sorted = loads.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let gini = if sum > 0.0 {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (2.0 * (i as f64 + 1.0) - n - 1.0) * x)
                .sum();
            weighted / (n * sum)
        } else {
            0.0
        };
        let max_over_mean = if mean > 0.0 { max / mean } else { 1.0 };
        Imbalance { mean, max, max_over_mean, cv, gini }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = Samples::new();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert!((s.percentile(50.0) - 50.5).abs() < 1e-9);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.percentile(100.0) - 100.0).abs() < 1e-9);
        assert!((s.percentile(95.0) - 95.05).abs() < 1e-9);
    }

    #[test]
    fn percentile_empty_returns_zero() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = Samples::new();
        s.push(42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.percentile(99.0), 42.0);
    }

    #[test]
    fn percentile_survives_nan_samples() {
        // Regression: the sort used `partial_cmp().expect("NaN sample")`,
        // so one NaN (e.g. a 0/0 rate) panicked the whole report. With
        // `total_cmp`, NaNs sort to the end and finite percentiles stay
        // meaningful.
        let mut s = Samples::new();
        for x in [3.0, f64::NAN, 1.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert!((s.median() - 2.5).abs() < 1e-9, "finite samples interpolate normally");
        assert!(s.max().is_nan(), "the NaN is visible at the top, not hidden");
    }

    #[test]
    fn imbalance_uniform_is_balanced() {
        let i = Imbalance::of(&[3.0, 3.0, 3.0, 3.0]);
        assert!((i.max_over_mean - 1.0).abs() < 1e-12);
        assert!(i.cv.abs() < 1e-12);
        assert!(i.gini.abs() < 1e-12);
    }

    #[test]
    fn imbalance_skewed_detected() {
        let i = Imbalance::of(&[0.0, 0.0, 0.0, 12.0]);
        assert!((i.max_over_mean - 4.0).abs() < 1e-12);
        assert!(i.gini > 0.7);
        assert!(i.cv > 1.5);
    }

    #[test]
    fn imbalance_gini_ordering() {
        let balanced = Imbalance::of(&[5.0, 5.0, 5.0, 5.0]);
        let mild = Imbalance::of(&[4.0, 5.0, 5.0, 6.0]);
        let severe = Imbalance::of(&[1.0, 1.0, 1.0, 17.0]);
        assert!(balanced.gini < mild.gini);
        assert!(mild.gini < severe.gini);
    }

    #[test]
    #[should_panic]
    fn imbalance_rejects_empty() {
        Imbalance::of(&[]);
    }

    /// Lower edge of bucket `i` (bucket 0 opens at 0).
    fn log_bucket_lo(i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            (i as f64 / LOG_SUB + LOG_MIN_EXP).exp2()
        }
    }

    #[test]
    fn log_buckets_tile_the_positive_axis() {
        for i in 0..LOG_BUCKETS - 1 {
            assert_eq!(log_bucket_hi(i), log_bucket_lo(i + 1), "bucket {i} edges meet");
        }
        for &x in &[1e-9, 0.1, 1.0, 3.5, 200.0, 1e6, 1e12] {
            let i = log_bucket_index(x);
            assert!(log_bucket_lo(i) <= x && x < log_bucket_hi(i), "x={x} bucket {i}");
        }
        assert_eq!(log_bucket_index(0.0), 0);
        assert_eq!(log_bucket_index(-5.0), 0);
        assert_eq!(log_bucket_index(f64::NAN), 0);
        assert_eq!(log_bucket_index(f64::INFINITY), 0);
        assert_eq!(log_bucket_index(1e300), LOG_BUCKETS - 1);
    }

    #[test]
    fn percentiles_empty_is_safe() {
        let p = Percentiles::new();
        assert!(p.is_empty());
        assert_eq!(p.percentile(50.0), 0.0);
        assert_eq!(p.mean(), 0.0);
    }

    #[test]
    fn percentiles_single_sample_is_exact() {
        let mut p = Percentiles::new();
        p.push(42.0);
        // min/max clamping makes every quantile of one sample exact.
        assert_eq!(p.p50(), 42.0);
        assert_eq!(p.p999(), 42.0);
        assert_eq!(p.min(), 42.0);
        assert_eq!(p.max(), 42.0);
    }

    #[test]
    fn percentiles_within_one_bucket_of_exact() {
        let mut p = Percentiles::new();
        let mut s = Samples::new();
        for i in 1..=10_000u64 {
            let x = (i as f64).powf(1.7); // skewed positive samples
            p.push(x);
            s.push(x);
        }
        let g = (1.0f64 / 8.0).exp2(); // relative bucket width
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let est = p.percentile(q);
            let exact = s.percentile(q);
            assert!(
                est >= exact / g && est <= exact * g,
                "q={q}: est {est} vs exact {exact} beyond one bucket"
            );
        }
    }

    #[test]
    fn percentiles_merge_matches_single_pass() {
        let mut whole = Percentiles::new();
        let mut left = Percentiles::new();
        let mut right = Percentiles::new();
        for i in 0..1_000u64 {
            let x = 0.5 + (i % 97) as f64 * 3.0;
            whole.push(x);
            if i % 2 == 0 {
                left.push(x)
            } else {
                right.push(x)
            }
        }
        left.merge(&right);
        assert_eq!(left.buckets(), whole.buckets());
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        assert!((left.sum() - whole.sum()).abs() < 1e-6 * whole.sum().abs());
        for q in [50.0, 90.0, 99.0] {
            assert_eq!(left.percentile(q), whole.percentile(q));
        }
    }

    #[test]
    fn percentiles_from_parts_round_trips() {
        let mut p = Percentiles::new();
        for x in [1.0, 2.0, 4.0, 1e6] {
            p.push(x);
        }
        let q = Percentiles::from_parts(p.buckets().to_vec(), p.count(), p.sum(), p.min(), p.max());
        assert_eq!(p, q);
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn percentiles_from_parts_rejects_inconsistent_count() {
        Percentiles::from_parts(vec![0; LOG_BUCKETS], 3, 0.0, 0.0, 0.0);
    }
}
