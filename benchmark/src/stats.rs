//! Order statistics for the harness: the best-of-repetitions timing of
//! every piece of work, and the latency percentiles taken from it.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer the figure is one or two outliers, not a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values`; the mean of the two middle values for an even
/// count.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `pct` (0 < pct ≤ 100) in a sorted
/// sample of `n` values.
pub fn rank_index(n: usize, pct: f64) -> usize {
    assert!(n > 0 && pct > 0.0 && pct <= 100.0);
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Index of the reported tail in a sorted sample of `n` values: p99 when
/// at least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest rank that still has that many beyond it, and never below the
/// median (a sample too small for any tail reports its median).
pub fn tail_index(n: usize) -> usize {
    let supported = n.saturating_sub(TAIL_MIN_BEYOND + 1);
    rank_index(n, 99.0).min(supported).max(rank_index(n, 50.0))
}

/// Piece `i` at the fastest it ran in any repetition.
///
/// # Panics
/// Panics without repetitions, or when they timed different numbers of
/// pieces (a repetition is a fixed op sequence).
pub fn best_pieces(reps: &[&[u64]]) -> Vec<u64> {
    let first = reps.first().expect("at least one repetition");
    let mut best = first.to_vec();
    for rep in &reps[1..] {
        assert_eq!(rep.len(), best.len(), "repetitions must time the same pieces");
        for (b, &t) in best.iter_mut().zip(rep.iter()) {
            *b = (*b).min(t);
        }
    }
    best
}

/// Wall time of each client call: the sums of `per_call` consecutive
/// pieces.
pub fn call_sums(pieces: &[u64], per_call: usize) -> Vec<u64> {
    assert!(per_call > 0 && pieces.len().is_multiple_of(per_call), "whole calls only");
    pieces.chunks(per_call).map(|c| c.iter().sum()).collect()
}

/// Median and tail of a vector of call latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Calls timed.
    pub samples: usize,
    /// Median call, ns.
    pub p50_ns: u64,
    /// Tail call, ns (see [`tail_index`]).
    pub tail_ns: u64,
    /// The percentile `tail_ns` actually is (99 when the sample
    /// supports it).
    pub tail_pct: f64,
}

/// Summarize call latencies (sorts `samples` in place).
///
/// # Panics
/// Panics on an empty slice.
pub fn summarize(samples: &mut [u64]) -> LatencySummary {
    assert!(!samples.is_empty(), "no latency samples");
    samples.sort_unstable();
    let n = samples.len();
    let tail = tail_index(n);
    LatencySummary {
        samples: n,
        p50_ns: samples[rank_index(n, 50.0)],
        tail_ns: samples[tail],
        tail_pct: 100.0 * (tail + 1) as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_pieces_take_each_piece_at_its_fastest() {
        let (a, b, c) = ([5u64, 9, 7, 4], [6u64, 3, 8, 4], [9u64, 9, 2, 5]);
        let best = best_pieces(&[&a, &b, &c]);
        assert_eq!(best, vec![5, 3, 2, 4]);
        assert_eq!(best_pieces(&[&a]), a.to_vec());
        // Two pieces per call: calls are (5 + 3) and (2 + 4).
        assert_eq!(call_sums(&best, 2), vec![8, 6]);
        assert_eq!(call_sums(&best, 1), best);
    }

    #[test]
    #[should_panic(expected = "same pieces")]
    fn repetitions_of_different_length_are_refused() {
        best_pieces(&[&[1, 2], &[1]]);
    }

    #[test]
    fn nearest_rank_matches_textbook() {
        // 100 samples: p50 is the 50th value, p99 the 99th.
        assert_eq!(rank_index(100, 50.0), 49);
        assert_eq!(rank_index(100, 99.0), 98);
        assert_eq!(rank_index(1, 99.0), 0);
        assert_eq!(rank_index(7, 100.0), 6);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        // 10_000 samples: p99 has 100 beyond it.
        assert_eq!(tail_index(10_000), 9_899);
        // 1_100 samples: p99 is index 1088, with 11 beyond: kept.
        assert_eq!(tail_index(1_100), 1_088);
        // 1_000 samples: p99 (index 989) has exactly 10 beyond: kept.
        assert_eq!(tail_index(1_000), 989);
        // 250 samples: p99 would have 2 beyond; fall back to the highest
        // rank with 10 beyond (index 239 = p96).
        assert_eq!(tail_index(250), 239);
        let mut v: Vec<u64> = (1..=250).collect();
        let s = summarize(&mut v);
        assert_eq!((s.p50_ns, s.tail_ns), (125, 240));
        assert!((s.tail_pct - 96.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_samples_report_the_median_as_tail() {
        for n in 1..=21 {
            assert_eq!(tail_index(n), rank_index(n, 50.0), "n = {n}");
        }
        // 23 samples: index 12 has exactly 10 beyond it and is above the median.
        assert_eq!(tail_index(23), 12);
        let mut one = [42u64];
        let s = summarize(&mut one);
        assert_eq!((s.p50_ns, s.tail_ns, s.samples), (42, 42, 1));
    }
}
