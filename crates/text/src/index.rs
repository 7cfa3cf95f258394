//! Inverted-index construction: single-pass, sort-based, merged, parallel.
//!
//! Section 4 frames indexing as "a 'sort' operation on a set of records
//! representing term occurrences" and points at sort-based \[14\] and
//! single-pass \[15\] construction, pipelined distributed builds \[25\], and
//! map-reduce \[26\]. This module provides the local building blocks:
//!
//! * [`IndexBuilder`] — single-pass: per-term encoders fed documents in
//!   ascending id order;
//! * [`sort_based_build`] — materializes `(term, doc, tf)` records, sorts,
//!   then encodes (same output, different cost profile — benchmarked in
//!   `dwr-bench`);
//! * [`merge_indexes`] — k-way merge of sub-indexes over disjoint doc-id
//!   ranges, the primitive behind distributed construction;
//! * [`parallel_build`] — chunks the corpus across threads (std scoped
//!   threads) and merges, a faithful single-machine analogue of the
//!   map-reduce build.

use crate::postings::{PostingList, PostingListBuilder};
use crate::{DocId, TermId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the crate's `u32`-keyed tables (term ids, doc ids): one
/// multiply and one xor-shift per key instead of SipHash, whose cost was
/// most of every posting's term-table lookup on the write side. Ids are
/// arbitrary `u32`s, so the multiply carries every bit upward and the
/// xor-shift folds the high half back into the low bits the table indexes
/// by. The ids are assigned by this program (lexicon, document order), not
/// chosen by whoever sends a query, so SipHash's resistance to crafted
/// collisions buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        let x = (self.0 ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by `u32` ids, hashed with [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// An immutable inverted index over documents `0..num_docs`.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    postings: IdMap<PostingList>,
    doc_len: Vec<u32>,
    total_tokens: u64,
}

impl InvertedIndex {
    /// Number of indexed documents.
    pub fn num_docs(&self) -> u32 {
        self.doc_len.len() as u32
    }

    /// Number of distinct terms with a non-empty posting list.
    pub fn num_terms(&self) -> usize {
        self.postings.len()
    }

    /// Token length of a document.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_len[doc.0 as usize]
    }

    /// Sum of all document lengths, in tokens.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Average document length in tokens (0 for an empty index).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_len.len() as f64
        }
    }

    /// The posting list of a term, if present.
    pub fn postings(&self, term: TermId) -> Option<&PostingList> {
        self.postings.get(&term.0)
    }

    /// Document frequency of a term (0 when absent).
    pub fn df(&self, term: TermId) -> u32 {
        self.postings.get(&term.0).map_or(0, PostingList::df)
    }

    /// Collection frequency of a term (0 when absent).
    pub fn cf(&self, term: TermId) -> u64 {
        self.postings.get(&term.0).map_or(0, PostingList::cf)
    }

    /// Iterate over `(term, posting list)` pairs in unspecified order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &PostingList)> {
        self.postings.iter().map(|(&t, l)| (TermId(t), l))
    }

    /// Total encoded size of all posting lists, in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.postings.values().map(PostingList::encoded_bytes).sum()
    }
}

/// Single-pass in-memory index builder.
///
/// Documents must be added in ascending [`DocId`] order starting at 0
/// (enforced), which keeps every per-term encoder append-only.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    builders: IdMap<PostingListBuilder>,
    doc_len: Vec<u32>,
    total_tokens: u64,
}

impl IndexBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the next document's `(term, tf)` vector. Terms may be in any
    /// order but must be unique within the document.
    pub fn add_document(&mut self, terms: &[(TermId, u32)]) -> DocId {
        let doc = DocId(self.doc_len.len() as u32);
        // Length first, so every posting carries it into block metadata
        // (tight `min_doc_len` ⇒ tight block-max bounds).
        let len: u64 = terms.iter().map(|&(_, tf)| u64::from(tf)).sum();
        for &(t, tf) in terms {
            self.builders.entry(t.0).or_default().push_with_len(doc, tf, len as u32);
        }
        self.doc_len.push(len as u32);
        self.total_tokens += len;
        doc
    }

    /// Finish into an immutable index.
    pub fn finish(self) -> InvertedIndex {
        InvertedIndex {
            postings: self.builders.into_iter().map(|(t, b)| (t, b.finish())).collect(),
            doc_len: self.doc_len,
            total_tokens: self.total_tokens,
        }
    }
}

/// Build an index from a corpus via the single-pass builder.
pub fn build_index(corpus: &[Vec<(TermId, u32)>]) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for doc in corpus {
        b.add_document(doc);
    }
    b.finish()
}

/// Sort-based construction: materialize `(term, doc, tf)` records, sort by
/// `(term, doc)`, then encode runs. Produces exactly the same index as
/// [`build_index`]; exists so the two strategies can be compared under the
/// benchmark harness, as in Section 4's discussion.
pub fn sort_based_build(corpus: &[Vec<(TermId, u32)>]) -> InvertedIndex {
    let total: usize = corpus.iter().map(Vec::len).sum();
    let mut records: Vec<(u32, u32, u32)> = Vec::with_capacity(total);
    let mut doc_len = Vec::with_capacity(corpus.len());
    let mut total_tokens = 0u64;
    for (d, doc) in corpus.iter().enumerate() {
        let mut len = 0u64;
        for &(t, tf) in doc {
            records.push((t.0, d as u32, tf));
            len += u64::from(tf);
        }
        doc_len.push(len as u32);
        total_tokens += len;
    }
    records.sort_unstable();
    let mut postings = IdMap::default();
    let mut i = 0;
    while i < records.len() {
        let term = records[i].0;
        let mut b = PostingListBuilder::new();
        while i < records.len() && records[i].0 == term {
            let (_, d, tf) = records[i];
            b.push_with_len(DocId(d), tf, doc_len[d as usize]);
            i += 1;
        }
        postings.insert(term, b.finish());
    }
    InvertedIndex { postings, doc_len, total_tokens }
}

/// Merge sub-indexes built over consecutive corpus chunks into one index.
///
/// `parts[i]` must cover documents `[offsets[i], offsets[i] + parts[i].num_docs())`
/// of the final id space, with offsets ascending and contiguous.
pub fn merge_indexes(parts: &[InvertedIndex]) -> InvertedIndex {
    let mut doc_len = Vec::new();
    let mut total_tokens = 0u64;
    // term -> per-part builders in order; since parts cover ascending
    // disjoint ranges, appending in part order keeps doc ids ascending.
    let mut merged: IdMap<PostingListBuilder> = IdMap::default();
    let mut offset = 0u32;
    for part in parts {
        for (term, list) in part.terms() {
            let b = merged.entry(term.0).or_default();
            for p in list.iter() {
                b.push_with_len(DocId(p.doc.0 + offset), p.tf, part.doc_len(p.doc));
            }
        }
        doc_len.extend_from_slice(&part.doc_len);
        total_tokens += part.total_tokens;
        offset += part.num_docs();
    }
    InvertedIndex {
        postings: merged.into_iter().map(|(t, b)| (t, b.finish())).collect(),
        doc_len,
        total_tokens,
    }
}

/// Parallel build: split the corpus into `threads` contiguous chunks,
/// build each on its own thread, then merge. The in-process analogue of
/// the map-reduce construction of \[26\].
pub fn parallel_build(corpus: &[Vec<(TermId, u32)>], threads: usize) -> InvertedIndex {
    assert!(threads > 0);
    if corpus.is_empty() {
        return InvertedIndex::default();
    }
    let chunk = corpus.len().div_ceil(threads);
    let parts: Vec<InvertedIndex> = std::thread::scope(|s| {
        let handles: Vec<_> =
            corpus.chunks(chunk).map(|c| s.spawn(move || build_index(c))).collect();
        handles.into_iter().map(|h| h.join().expect("index worker panicked")).collect()
    });
    merge_indexes(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<(TermId, u32)>> {
        vec![
            vec![(TermId(1), 2), (TermId(3), 1)],
            vec![(TermId(1), 1), (TermId(2), 4)],
            vec![(TermId(3), 3)],
            vec![],
            vec![(TermId(2), 1), (TermId(3), 1), (TermId(9), 1)],
        ]
    }

    #[test]
    fn build_and_stats() {
        let idx = build_index(&corpus());
        assert_eq!(idx.num_docs(), 5);
        assert_eq!(idx.num_terms(), 4);
        assert_eq!(idx.df(TermId(1)), 2);
        assert_eq!(idx.cf(TermId(1)), 3);
        assert_eq!(idx.df(TermId(3)), 3);
        assert_eq!(idx.df(TermId(42)), 0);
        assert_eq!(idx.doc_len(DocId(0)), 3);
        assert_eq!(idx.doc_len(DocId(3)), 0);
        assert!((idx.avg_doc_len() - 14.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn postings_are_ascending() {
        let idx = build_index(&corpus());
        for (_, list) in idx.terms() {
            let docs: Vec<u32> = list.iter().map(|p| p.doc.0).collect();
            assert!(docs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    fn index_eq(a: &InvertedIndex, b: &InvertedIndex) -> bool {
        if a.num_docs() != b.num_docs() || a.num_terms() != b.num_terms() {
            return false;
        }
        if a.doc_len != b.doc_len {
            return false;
        }
        a.terms().all(|(t, l)| b.postings(t).is_some_and(|lb| l.to_vec() == lb.to_vec()))
    }

    #[test]
    fn sort_based_matches_single_pass() {
        let c = corpus();
        assert!(index_eq(&build_index(&c), &sort_based_build(&c)));
    }

    #[test]
    fn merge_matches_monolithic() {
        let c = corpus();
        let p1 = build_index(&c[..2]);
        let p2 = build_index(&c[2..]);
        let merged = merge_indexes(&[p1, p2]);
        assert!(index_eq(&build_index(&c), &merged));
    }

    #[test]
    fn parallel_matches_monolithic() {
        let c: Vec<Vec<(TermId, u32)>> =
            (0..97).map(|i| vec![(TermId(i % 13), 1 + i % 3), (TermId(100 + i % 7), 1)]).collect();
        for threads in [1, 2, 3, 8] {
            assert!(index_eq(&build_index(&c), &parallel_build(&c, threads)), "threads={threads}");
        }
    }

    #[test]
    fn empty_corpus() {
        let idx = build_index(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        let p = parallel_build(&[], 4);
        assert_eq!(p.num_docs(), 0);
    }

    #[test]
    fn id_hasher_spreads_ids_that_share_their_low_bits() {
        use std::hash::BuildHasher;
        // A 64-bucket table indexes by the hash's low 6 bits: an identity
        // hash would pile all 32 ids below into one bucket.
        let build = BuildHasherDefault::<IdHasher>::default();
        for low in [0, 0xbeef, 0xffff] {
            let buckets: std::collections::BTreeSet<u64> =
                (0..32u32).map(|high| build.hash_one(high << 16 | low) & 63).collect();
            assert_eq!(buckets.len(), 32, "low bits {low:#x}");
        }
    }

    #[test]
    fn merge_of_empty_parts() {
        let merged = merge_indexes(&[build_index(&[]), build_index(&corpus())]);
        assert!(index_eq(&merged, &build_index(&corpus())));
    }
}
