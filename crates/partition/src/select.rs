//! Collection selection: CORI and the query-driven selector.
//!
//! "The ability of retrieving the largest possible portion of relevant
//! documents is a very challenging problem usually known as collection
//! selection or query routing" (Section 4). CORI \[24\] is "currently the
//! best known collection selection function for textual documents" that
//! uses only collection-internal statistics; Puppin et al.'s query-driven
//! function \[19\] learns partition profiles from training queries and
//! "outperform\[s\] the state-of-the-art model, namely CORI".

use crate::doc::{partition_term_profiles, TrainingResults};
use crate::parted::PartitionedIndex;
use dwr_text::TermId;
use std::collections::HashMap;

/// Ranks partitions by their likelihood of answering a query.
pub trait CollectionSelector {
    /// Return all partitions, best first, with scores.
    fn rank(&self, terms: &[TermId]) -> Vec<(u32, f64)>;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The CORI selection function (Callan \[24\]).
///
/// For a query term `t` and collection `i`:
/// `T = df_i / (df_i + 50 + 150·cw_i/avg_cw)`,
/// `I = ln((|C| + 0.5)/cf_t) / ln(|C| + 1)`,
/// `belief = b + (1-b)·T·I` with `b = 0.4`,
/// and the collection score is the mean belief over query terms.
///
/// The collections are every shard slot of the snapshot it was built
/// from, closed split parents included. It keeps that snapshot (an `Arc`
/// clone) and reads `df_i` from each slot's term directory, one load per
/// (slot, term); `cf_t` and `I` are computed once per query term.
#[derive(Debug)]
pub struct CoriSelector {
    index: PartitionedIndex,
    /// Per-collection total term count (cw).
    cw: Vec<f64>,
    avg_cw: f64,
    b: f64,
}

impl CoriSelector {
    /// Build the CORI statistics from a partitioned index.
    pub fn from_partitions(pi: &PartitionedIndex) -> Self {
        let k = pi.num_partitions();
        let cw: Vec<f64> = (0..k)
            .map(|p| {
                let idx = pi.part(p);
                idx.avg_doc_len() * f64::from(idx.num_docs())
            })
            .collect();
        let avg_cw = (cw.iter().sum::<f64>() / k as f64).max(1.0);
        CoriSelector { index: pi.clone(), cw, avg_cw, b: 0.4 }
    }
}

impl CollectionSelector for CoriSelector {
    fn rank(&self, terms: &[TermId]) -> Vec<(u32, f64)> {
        let k = self.cw.len();
        let num_collections = k as f64;
        let mut scores: Vec<(u32, f64)> = (0..k).map(|c| (c as u32, 0.0)).collect();
        for &term in terms {
            let cf = (0..k).filter(|&c| self.index.part(c).df(term) > 0).count() as f64;
            if cf == 0.0 {
                for s in &mut scores {
                    s.1 += self.b;
                }
                continue;
            }
            let i = ((num_collections + 0.5) / cf).ln() / (num_collections + 1.0).ln();
            for (c, s) in scores.iter_mut().enumerate() {
                let df = f64::from(self.index.part(c).df(term));
                let t = df / (df + 50.0 + 150.0 * self.cw[c] / self.avg_cw);
                s.1 += self.b + (1.0 - self.b) * t * i;
            }
        }
        if !terms.is_empty() {
            for s in &mut scores {
                s.1 /= terms.len() as f64;
            }
        }
        sort_ranked(&mut scores);
        scores
    }
    fn name(&self) -> &'static str {
        "CORI"
    }
}

/// Order `(partition, score)` pairs best first, ties by lower partition
/// id. `total_cmp` keeps the sort total even when a degenerate training
/// log (a NaN query weight, an empty profile) produces NaN scores —
/// `partial_cmp` would panic the broker on such a query.
fn sort_ranked(scores: &mut [(u32, f64)]) {
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// The query-driven selector: partitions are scored by the term profiles
/// learned from training-query routing (PCAP-style).
///
/// A query whose terms appear in **no** trained profile is *cold*: every
/// partition scores 0.0 and the ranking degenerates to partition-id
/// order, which routes arbitrarily. [`Self::with_fallback`] delegates
/// such queries to another selector (typically CORI, whose
/// collection-internal statistics cover every indexed term) instead of
/// guessing.
pub struct QueryDrivenSelector {
    profiles: Vec<HashMap<u32, f64>>,
    /// Selector consulted for cold queries; `None` keeps the historical
    /// all-zero ranking.
    fallback: Option<Box<dyn CollectionSelector + Send + Sync>>,
}

impl std::fmt::Debug for QueryDrivenSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDrivenSelector")
            .field("profiles", &self.profiles.len())
            .field("fallback", &self.fallback.as_ref().map(|s| s.name()))
            .finish()
    }
}

impl QueryDrivenSelector {
    /// Learn profiles from training results and the assignment they
    /// produced.
    pub fn train(training: &TrainingResults, assignment: &[u32], k: usize) -> Self {
        QueryDrivenSelector {
            profiles: partition_term_profiles(training, assignment, k),
            fallback: None,
        }
    }

    /// Delegate cold queries (no term in any trained profile) to
    /// `fallback` instead of scoring every partition 0.0.
    pub fn with_fallback(mut self, fallback: Box<dyn CollectionSelector + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Whether no term of `terms` appears in any trained profile — the
    /// profiles carry no routing signal for this query.
    fn is_cold(&self, terms: &[TermId]) -> bool {
        terms.iter().all(|t| self.profiles.iter().all(|prof| !prof.contains_key(&t.0)))
    }
}

impl CollectionSelector for QueryDrivenSelector {
    fn rank(&self, terms: &[TermId]) -> Vec<(u32, f64)> {
        if let Some(fb) = &self.fallback {
            if self.is_cold(terms) {
                return fb.rank(terms);
            }
        }
        let mut scores: Vec<(u32, f64)> = self
            .profiles
            .iter()
            .enumerate()
            .map(|(c, prof)| {
                let s: f64 = terms.iter().filter_map(|t| prof.get(&t.0)).sum();
                (c as u32, s)
            })
            .collect();
        sort_ranked(&mut scores);
        scores
    }
    fn name(&self) -> &'static str {
        "query-driven"
    }
}

/// Random selection baseline (deterministic by query hash, so repeated
/// queries route identically — a property caches rely on).
#[derive(Debug, Clone, Copy)]
pub struct RandomSelector {
    /// Number of partitions.
    pub k: usize,
}

impl CollectionSelector for RandomSelector {
    fn rank(&self, terms: &[TermId]) -> Vec<(u32, f64)> {
        // Deterministic pseudo-random permutation keyed by the query terms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in terms {
            h ^= u64::from(t.0);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut order: Vec<u32> = (0..self.k as u32).collect();
        // Fisher–Yates with a SplitMix stream from h.
        let mut state = h;
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            order.swap(i, (z % (i as u64 + 1)) as usize);
        }
        order.into_iter().enumerate().map(|(rank, p)| (p, -(rank as f64))).collect()
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parted::Corpus;

    /// Two topical partitions: terms 0..5 live in partition 0's docs,
    /// terms 100..105 in partition 1's.
    fn topical_partitions() -> PartitionedIndex {
        let corpus: Corpus = (0..20)
            .map(|d| {
                if d < 10 {
                    vec![(TermId(d % 5), 2), (TermId((d + 1) % 5), 1)]
                } else {
                    vec![(TermId(100 + d % 5), 2), (TermId(100 + (d + 1) % 5), 1)]
                }
            })
            .collect();
        let assignment: Vec<u32> = (0..20).map(|d| u32::from(d >= 10)).collect();
        PartitionedIndex::build(&corpus, &assignment, 2)
    }

    #[test]
    fn cori_prefers_the_right_partition() {
        let pi = topical_partitions();
        let cori = CoriSelector::from_partitions(&pi);
        let r0 = cori.rank(&[TermId(1), TermId(2)]);
        assert_eq!(r0[0].0, 0, "{r0:?}");
        let r1 = cori.rank(&[TermId(101), TermId(102)]);
        assert_eq!(r1[0].0, 1, "{r1:?}");
        assert!(r0[0].1 > r0[1].1);
    }

    #[test]
    fn cori_returns_all_partitions() {
        let pi = topical_partitions();
        let cori = CoriSelector::from_partitions(&pi);
        let r = cori.rank(&[TermId(1)]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn cori_unknown_term_is_neutral() {
        let pi = topical_partitions();
        let cori = CoriSelector::from_partitions(&pi);
        let r = cori.rank(&[TermId(9999)]);
        // Both partitions get the default belief b.
        assert!((r[0].1 - r[1].1).abs() < 1e-12);
    }

    #[test]
    fn query_driven_learns_profiles() {
        let training = TrainingResults {
            queries: vec![
                (vec![TermId(1)], 1.0, vec![0, 1]),
                (vec![TermId(101)], 1.0, vec![10, 11]),
            ],
        };
        let assignment: Vec<u32> = (0..20).map(|d| u32::from(d >= 10)).collect();
        let sel = QueryDrivenSelector::train(&training, &assignment, 2);
        assert_eq!(sel.rank(&[TermId(1)])[0].0, 0);
        assert_eq!(sel.rank(&[TermId(101)])[0].0, 1);
    }

    #[test]
    fn query_driven_unseen_terms_score_zero() {
        let sel = QueryDrivenSelector::train(&TrainingResults::default(), &[0, 1], 2);
        let r = sel.rank(&[TermId(5)]);
        assert!(r.iter().all(|&(_, s)| s == 0.0));
    }

    /// Regression: a NaN query weight in the training log used to
    /// propagate into the profiles and panic the `partial_cmp` sort on
    /// the serving path. `total_cmp` keeps the ranking total — no panic,
    /// deterministic output, every partition still present.
    #[test]
    fn query_driven_nan_scores_rank_without_panicking() {
        let training = TrainingResults {
            queries: vec![
                (vec![TermId(1)], f64::NAN, vec![0, 1]),
                (vec![TermId(101)], 1.0, vec![10, 11]),
            ],
        };
        let assignment: Vec<u32> = (0..20).map(|d| u32::from(d >= 10)).collect();
        let sel = QueryDrivenSelector::train(&training, &assignment, 2);
        let a = sel.rank(&[TermId(1), TermId(101)]);
        let b = sel.rank(&[TermId(1), TermId(101)]);
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            b.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
            "NaN scores must rank deterministically"
        );
    }

    #[test]
    fn cori_degenerate_scores_rank_without_panicking() {
        let pi = topical_partitions();
        let cori = CoriSelector::from_partitions(&pi);
        // Empty queries score 0.0 everywhere; the sort must stay total.
        let r = cori.rank(&[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].0, 0, "ties break by lower partition id");
    }

    #[test]
    fn query_driven_cold_query_delegates_to_fallback() {
        let pi = topical_partitions();
        let training = TrainingResults { queries: vec![(vec![TermId(1)], 1.0, vec![0, 1])] };
        let assignment: Vec<u32> = (0..20).map(|d| u32::from(d >= 10)).collect();
        let sel = QueryDrivenSelector::train(&training, &assignment, 2)
            .with_fallback(Box::new(CoriSelector::from_partitions(&pi)));
        // Term 101 was never trained on, but CORI's content statistics
        // know it lives in partition 1: the fallback routes it there.
        assert!(sel.is_cold(&[TermId(101)]));
        assert_eq!(sel.rank(&[TermId(101)])[0].0, 1);
        assert!(sel.rank(&[TermId(101)])[0].1 > 0.0, "CORI scores, not all-zero");
        // Warm queries still use the trained profiles.
        assert!(!sel.is_cold(&[TermId(1), TermId(9999)]));
        assert_eq!(sel.rank(&[TermId(1)])[0].0, 0);
    }

    #[test]
    fn query_driven_cold_query_without_fallback_keeps_zero_scores() {
        let sel = QueryDrivenSelector::train(&TrainingResults::default(), &[0, 1], 2);
        assert!(sel.is_cold(&[TermId(5)]));
        let r = sel.rank(&[TermId(5)]);
        assert!(r.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn random_selector_is_stable_per_query() {
        let sel = RandomSelector { k: 8 };
        let a = sel.rank(&[TermId(3), TermId(7)]);
        let b = sel.rank(&[TermId(3), TermId(7)]);
        assert_eq!(a, b);
        let c = sel.rank(&[TermId(4)]);
        assert_eq!(c.len(), 8);
    }
}
