//! Configuration, RNG, and case outcomes for the shim harness.

/// Per-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or `PROPTEST_CASES` when set, which real proptest's
    /// default also reads (a config built with `with_cases` ignores it).
    fn default() -> Self {
        // Real proptest defaults to 256; the shim trades a little
        // coverage for CI latency. Heavier suites override per-file.
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
        ProptestConfig { cases: cases.unwrap_or(64) }
    }
}

/// Why a case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed — retry with fresh inputs, don't count it.
    Reject(String),
    /// `prop_assert!` failed — the property is violated.
    Fail(String),
}

/// SplitMix64 step: bijective mixer used for seeding and generation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a test identifier and case number.
    pub fn for_case(test_id: &str, case: u64) -> Self {
        // FNV-1a over the id, then mix in the case number.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in test_id.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut state = h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state);
        TestRng { state }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform in `[0, bound)` via the multiply-shift reduction.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
