//! Partition and selection quality metrics.
//!
//! The measurements Section 4 leaves open: how balanced is a partitioning,
//! and — the crux of collection selection — how much of the *true* global
//! top-k can be recovered when only the best `m` partitions are searched
//! ("the chosen subset should be able to provide a high number of relevant
//! documents").

use crate::parted::PartitionedIndex;
use crate::select::CollectionSelector;
use dwr_sim::stats::Imbalance;
use dwr_text::index::InvertedIndex;
use dwr_text::score::Bm25;
use dwr_text::search::search_or;
use dwr_text::TermId;

/// Balance of document counts across partitions.
pub fn size_balance(pi: &PartitionedIndex) -> Imbalance {
    let sizes: Vec<f64> = pi.sizes().iter().map(|&s| s as f64).collect();
    Imbalance::of(&sizes)
}

/// The global reference ranking: top-k of the whole corpus, read from
/// `reference`, the corpus built as one index (`build_index`). Returns
/// global doc ids.
pub fn global_top_k(reference: &InvertedIndex, terms: &[TermId], k: usize) -> Vec<u32> {
    search_or(reference, terms, k, &Bm25::default(), reference)
        .into_iter()
        .map(|h| h.doc.0)
        .collect()
}

/// The recall curve for a batch of test queries: element `m-1` is the
/// mean recall@m-partitions, the fraction of a query's global top-k that
/// lives in the `m` partitions the selector ranks first. The global
/// top-k is read from `reference`, the whole corpus as one index.
pub fn recall_curve(
    pi: &PartitionedIndex,
    selector: &dyn CollectionSelector,
    reference: &InvertedIndex,
    queries: &[Vec<TermId>],
    k: usize,
) -> Vec<f64> {
    let nparts = pi.num_partitions();
    let mut acc = vec![0f64; nparts];
    let mut counted = 0usize;
    for terms in queries {
        let topk = global_top_k(reference, terms, k);
        if topk.is_empty() {
            continue;
        }
        counted += 1;
        let ranked = selector.rank(terms);
        let mut seen_parts: Vec<u32> = Vec::with_capacity(nparts);
        for (m, &(p, _)) in ranked.iter().enumerate() {
            seen_parts.push(p);
            let hit = topk.iter().filter(|&&d| seen_parts.contains(&pi.partition_of(d))).count();
            acc[m] += hit as f64 / topk.len() as f64;
        }
    }
    if counted == 0 {
        return vec![0.0; nparts];
    }
    acc.into_iter().map(|a| a / counted as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parted::Corpus;
    use crate::select::CoriSelector;
    use dwr_text::index::build_index;

    fn topical_setup() -> (Corpus, PartitionedIndex) {
        let corpus: Corpus = (0..30)
            .map(|d| {
                let base = (d % 3) as u32 * 100;
                vec![(TermId(base + d as u32 % 5), 2), (TermId(base + (d as u32 + 1) % 5), 1)]
            })
            .collect();
        let assignment: Vec<u32> = (0..30).map(|d| (d % 3) as u32).collect();
        let pi = PartitionedIndex::build(&corpus, &assignment, 3);
        (corpus, pi)
    }

    #[test]
    fn size_balance_of_even_partitioning() {
        let (_, pi) = topical_setup();
        let b = size_balance(&pi);
        assert!((b.max_over_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn global_topk_nonempty_for_present_terms() {
        let (corpus, _) = topical_setup();
        let topk = global_top_k(&build_index(&corpus), &[TermId(1)], 5);
        assert!(!topk.is_empty());
        assert!(topk.len() <= 5);
    }

    #[test]
    fn perfect_selector_reaches_full_recall_at_one_partition() {
        let (corpus, pi) = topical_setup();
        let cori = CoriSelector::from_partitions(&pi);
        // Terms of topic block 0 only occur in partition 0's docs.
        let reference = build_index(&corpus);
        let r1 = recall_curve(&pi, &cori, &reference, &[vec![TermId(1), TermId(2)]], 5)[0];
        assert!((r1 - 1.0).abs() < 1e-12, "r1={r1}");
    }

    #[test]
    fn recall_curve_monotone_and_complete() {
        let (corpus, pi) = topical_setup();
        let cori = CoriSelector::from_partitions(&pi);
        let queries: Vec<Vec<TermId>> =
            vec![vec![TermId(1)], vec![TermId(101)], vec![TermId(201), TermId(202)]];
        let curve = recall_curve(&pi, &cori, &build_index(&corpus), &queries, 5);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{curve:?}");
        assert!((curve[2] - 1.0).abs() < 1e-12, "all partitions = full recall");
    }
}
