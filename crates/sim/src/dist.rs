//! Sampling distributions for Web-scale phenomena.
//!
//! The survey's imported results all rest on a small set of heavy-tailed
//! distributions:
//!
//! * **Zipf** — term frequencies, query popularity, host sizes. Implemented
//!   with Hörmann & Derflinger's rejection-inversion so sampling is O(1)
//!   regardless of the universe size (tens of millions of terms).
//! * **Bounded Pareto** — document lengths and posting-list sizes.
//! * **Exponential / Weibull** — failure and repair processes (Section 5,
//!   Figure 5).
//! * **Log-normal** — service times for the G/G/c experiments (Figure 6);
//!   log-normals have the high coefficient of variation observed in real
//!   query service times.
//! * **Poisson** — arrival counts, page-change events.
//! * **Alias method** — O(1) sampling from arbitrary empirical weights
//!   (e.g. a measured query distribution).

use crate::rng::SimRng;

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`:
/// `P(k) ∝ k^-s`. Uses rejection-inversion (Hörmann & Derflinger 1996,
/// in the numerically stable formulation of Apache Commons Math's
/// `RejectionInversionZipfSampler`), O(1) per sample with bounded
/// rejection rate for any universe size.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `H(1.5) - h(1)`
    h_x1: f64,
    /// `H(n + 0.5)`
    h_n: f64,
    /// Acceptance cut: `2 - H_inv(H(2.5) - h(2))`
    cut: f64,
}

/// `(exp(x) - 1) / x`, stable near 0.
#[inline]
fn expm1_over_x(x: f64) -> f64 {
    if x.abs() < 1e-8 {
        1.0 + x / 2.0
    } else {
        x.exp_m1() / x
    }
}

/// `ln(1 + x) / x`, stable near 0.
#[inline]
fn ln1p_over_x(x: f64) -> f64 {
    if x.abs() < 1e-8 {
        1.0 - x / 2.0
    } else {
        x.ln_1p() / x
    }
}

impl Zipf {
    /// Create a Zipf sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let h_integral = |x: f64| -> f64 {
            // H(x) = (x^(1-s) - 1) / (1 - s), expressed stably as
            // ln(x) * (e^((1-s) ln x) - 1) / ((1-s) ln x).
            let log_x = x.ln();
            expm1_over_x((1.0 - s) * log_x) * log_x
        };
        let h = |x: f64| -> f64 { (-s * x.ln()).exp() };
        let h_integral_inverse = |x: f64| -> f64 {
            // H_inv(x) = (1 + x (1-s))^(1/(1-s)), expressed stably.
            let mut t = x * (1.0 - s);
            if t < -1.0 {
                // Numerical guard: t < -1 would take the root of a
                // negative number; clamp to the domain boundary.
                t = -1.0;
            }
            (ln1p_over_x(t) * x).exp()
        };
        let h_x1 = h_integral(1.5) - 1.0;
        let h_n = h_integral(n as f64 + 0.5);
        let cut = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
        Zipf { n, s, h_x1, h_n, cut }
    }

    #[inline]
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        expm1_over_x((1.0 - self.s) * log_x) * log_x
    }

    #[inline]
    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    #[inline]
    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            t = -1.0;
        }
        (ln1p_over_x(t) * x).exp()
    }

    /// Number of ranks in the universe.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// Draw a rank in `1..=n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            // u uniform in (H(n + 0.5), H(1.5) - h(1)], i.e. covering the
            // whole support with the hat function.
            let u = self.h_n + rng.f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let mut k = (x + 0.5) as i64;
            if k < 1 {
                k = 1;
            } else if k as u64 > self.n {
                k = self.n as i64;
            }
            let kf = k as f64;
            if kf - x <= self.cut || u >= self.h_integral(kf + 0.5) - self.h(kf) {
                return k as u64;
            }
        }
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Create an exponential sampler with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0);
        Exponential { lambda }
    }

    /// Create from a mean instead of a rate.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// Draw a value.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }

    /// The distribution mean `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Weibull distribution with shape `k` and scale `lambda`.
///
/// Shape < 1 gives the "infant mortality" failure profile typical of
/// wide-area sites; shape = 1 reduces to the exponential.
#[derive(Debug, Clone, Copy)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Create a Weibull sampler. Both parameters must be positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0);
        Weibull { shape, scale }
    }

    /// Draw a value by inversion.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale * (-rng.f64_open().ln()).powf(1.0 / self.shape)
    }
}

/// Log-normal distribution parameterized by the *target* mean and the
/// coefficient of variation of the resulting distribution (not of the
/// underlying normal), which is how service times are usually specified.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create a log-normal with the given mean and coefficient of variation
    /// (`cv = std-dev / mean`) of the sampled values.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv > 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal { mu, sigma: sigma2.sqrt() }
    }

    /// Draw a value (Box–Muller on the underlying normal).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = rng.f64_open();
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Bounded Pareto on `[lo, hi]` with tail exponent `alpha`.
///
/// Used for document sizes and posting-list lengths, which are heavy-tailed
/// but physically bounded.
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Create a bounded Pareto sampler with `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0);
        BoundedPareto { lo, hi, alpha }
    }

    /// Draw a value by inversion of the truncated CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Poisson sampler.
///
/// Uses Knuth's product method for small means and a normal approximation
/// (rounded, clamped at zero) for large means, which is accurate to well
/// under a percent for `mean > 30` — plenty for arrival-count modelling.
#[derive(Debug, Clone, Copy)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Create a Poisson sampler with the given positive mean.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0);
        Poisson { mean }
    }

    /// Draw a count.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.mean < 30.0 {
            let l = (-self.mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.f64_open();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let u1 = rng.f64_open();
            let u2 = rng.f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = self.mean + self.mean.sqrt() * z;
            if v < 0.0 {
                0
            } else {
                v.round() as u64
            }
        }
    }
}

/// Walker alias table: O(1) sampling from an arbitrary finite discrete
/// distribution given as (possibly unnormalized) non-negative weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build an alias table from weights. Zero weights are allowed (their
    /// outcomes are never sampled); the weights must not all be zero.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table over empty support");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical stragglers: set to 1 exactly.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the support is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw an outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xD15C0)
    }

    #[test]
    fn zipf_respects_bounds() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng();
        for _ in 0..20_000 {
            let k = z.sample(&mut r);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(10_000, 1.0);
        let mut r = rng();
        let n = 100_000;
        let ones = (0..n).filter(|_| z.sample(&mut r) == 1).count();
        // For s=1, N=10^4, P(1) = 1/H_N ≈ 1/9.79 ≈ 0.102
        let p = ones as f64 / n as f64;
        assert!((p - 0.102).abs() < 0.01, "p(1)={p}");
    }

    /// Exact probability mass of rank `k`, by the normalizing constant.
    fn pmf(z: &Zipf, k: u64) -> f64 {
        let norm: f64 = (1..=z.n).map(|i| (i as f64).powf(-z.s)).sum();
        (k as f64).powf(-z.s) / norm
    }

    #[test]
    fn zipf_matches_pmf_for_small_universe() {
        let z = Zipf::new(5, 1.2);
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[(z.sample(&mut r) - 1) as usize] += 1;
        }
        for k in 1..=5u64 {
            let emp = counts[(k - 1) as usize] as f64 / n as f64;
            let want = pmf(&z, k);
            assert!((emp - want).abs() < 0.01, "k={k} emp={emp} want={want}");
        }
    }

    #[test]
    fn zipf_s_near_one_does_not_blow_up() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        for _ in 0..1000 {
            z.sample(&mut r);
        }
    }

    #[test]
    fn exponential_mean() {
        let e = Exponential::with_mean(5.0);
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| e.sample(&mut r)).sum();
        assert!((sum / n as f64 - 5.0).abs() < 0.1);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 2.0);
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn lognormal_mean_and_cv() {
        let ln = LogNormal::from_mean_cv(10.0, 1.5);
        let mut r = rng();
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| ln.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean={mean}");
        assert!((var.sqrt() / mean - 1.5).abs() < 0.1, "cv={}", var.sqrt() / mean);
    }

    #[test]
    fn bounded_pareto_in_bounds() {
        let bp = BoundedPareto::new(10.0, 10_000.0, 1.1);
        let mut r = rng();
        for _ in 0..50_000 {
            let x = bp.sample(&mut r);
            assert!((10.0..=10_000.0).contains(&x));
        }
    }

    #[test]
    fn poisson_small_mean() {
        let p = Poisson::new(3.0);
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| p.sample(&mut r)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn poisson_large_mean() {
        let p = Poisson::new(200.0);
        let mut r = rng();
        let n = 50_000;
        let mean = (0..n).map(|_| p.sample(&mut r)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 200.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights);
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let want = weights[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - want).abs() < 0.01, "i={i} got={got} want={want}");
        }
    }

    #[test]
    fn alias_table_zero_weight_never_sampled() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut r = rng();
        for _ in 0..10_000 {
            let i = t.sample(&mut r);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_negative() {
        AliasTable::new(&[1.0, -0.5]);
    }
}
