//! Ranked and Boolean query evaluation over one index.
//!
//! `search_or` is the ranked disjunctive evaluation every query processor
//! in the laboratory runs locally; brokers then merge the per-partition
//! top-k lists (Section 5). `search_and` is Boolean conjunctive matching
//! via block-skipping leapfrog intersection.
//!
//! # Query semantics: bag-of-words collapses to a set
//!
//! Repeated query terms are deduplicated before evaluation (first
//! occurrence wins, preserving order): a query is a *set* of distinct
//! terms, so `[a, a, b]` scores exactly like `[a, b]`. Besides matching
//! what web engines do, this keeps a document from collecting one term's
//! contribution twice and stops the accumulator capacity estimate from
//! being inflated by duplicates.
//!
//! # Two evaluators, one answer
//!
//! Both evaluators are term-at-a-time: every posting of every query term
//! is decoded and its BM25 contribution added to its document's sum.
//! They differ only in where the sums live.
//! [`EvalStrategy::Exhaustive`] is the reference: a hash table keyed by
//! doc id. [`EvalStrategy::Dense`] is the hot path: a per-thread `f64`
//! array indexed by local doc id, plus the list of documents it touched.
//! Both return **bit-identical** top-k vectors — same docs, same `f32`
//! scores, same tie-breaks — which the property suite pins:
//!
//! 1. **Canonical accumulation order.** A document's score is the `f64`
//!    sum, folded from `0.0`, of its per-term BM25 contributions in the
//!    deduplicated query's term order, converted to `f32` once. Both
//!    evaluators perform that identical float operation sequence per
//!    document, so even non-associativity cannot split them.
//! 2. **One order key.** Both evaluators offer every candidate to
//!    [`TopK`], which ranks `(doc, score)` by one `u64` order key: the
//!    `f32` score's bits, transformed to order like the floats, above
//!    the inverted doc id, so a higher score wins and a tie goes to the
//!    lower doc id. The order is total, so the order documents are
//!    offered in does not matter.
//! 3. **Every touched document is a candidate.** A document whose
//!    contributions are all `0.0` (idf is floored at 0) is still in the
//!    reference's table, and still in the dense evaluator's touched list.
//!
//! The dense loop is also the term-partitioned pipeline's
//! (`dwr-query::pipeline`, Figure 2): [`search_or_pipelined`] runs it
//! stage by stage over one accumulator set and reports the set's size
//! after each stage, so the pipeline holds no scoring of its own.
//!
//! The dense scratch — sums, "seen" flags, the touched list, one
//! block-decode buffer and the selection's buffer — is kept per thread
//! and grows to the largest `num_docs` the thread has evaluated (13 bytes
//! per document). The selection's buffer holds `max(4k, 64)` keys with k
//! capped at the number of documents touched, so a caller's huge k cannot
//! grow it past 32 bytes per document. Every slot is zero between
//! evaluations: the select pass zeroes each touched slot as it reads the
//! sum, and each
//! evaluation resets the slots its touched list names again before it
//! starts, so a panic that unwinds out of one evaluation (the scatter
//! pool catches it and keeps its worker) cannot leave stale sums for the
//! next. Nothing in the accumulate loop can panic: one range check per
//! block, on its last (largest) doc, comes before the block's writes.

use crate::index::InvertedIndex;
use crate::postings::{ListView, Posting, PostingCursor, BLOCK_LEN};
use crate::score::{Bm25, CollectionStats, TermScorer};
use crate::topk::TopK;
use crate::{DocId, TermId};
use dwr_sim::hash::IdMap;
use std::cell::RefCell;
use std::collections::HashMap;

/// One result: a document and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Matching document (local to the queried index).
    pub doc: DocId,
    /// BM25 score.
    pub score: f32,
}

/// Which ranked-retrieval evaluator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Term-at-a-time into a hash table keyed by doc id (the reference).
    Exhaustive,
    /// Term-at-a-time into a dense per-thread array indexed by local doc
    /// id (the hot path).
    #[default]
    Dense,
}

impl EvalStrategy {
    /// The name [`EvalStrategy::Dense`] had while the hot path was a
    /// document-at-a-time MaxScore evaluator.
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const MaxScore: EvalStrategy = EvalStrategy::Dense;
}

/// Work counters for one evaluation; the broker aggregates these into the
/// throughput experiments (`exp_throughput`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Postings decoded and inspected.
    pub postings_scanned: u64,
    /// Blocks decoded.
    pub blocks_decoded: u64,
    /// Always 0, written by nothing: kept only because the benchmark
    /// package still reads it.
    #[doc(hidden)]
    pub blocks_skipped: u64,
    /// Always 0, written by nothing: kept only because the benchmark
    /// package still reads it.
    #[doc(hidden)]
    pub candidates_pruned: u64,
}

impl EvalStats {
    /// Accumulate another evaluation's counters.
    pub fn merge(&mut self, other: &EvalStats) {
        self.postings_scanned += other.postings_scanned;
        self.blocks_decoded += other.blocks_decoded;
    }
}

/// Queries up to this many terms are deduplicated without allocating
/// (every query model draws 1–4).
const TERMS_ON_STACK: usize = 8;

/// Run `f` on the query's terms deduplicated, preserving first-occurrence
/// order (the canonical term order both evaluators fold scores in).
fn with_canon<R>(terms: &[TermId], f: impl FnOnce(&[TermId]) -> R) -> R {
    let mut stack = [TermId(0); TERMS_ON_STACK];
    let mut heap = Vec::new();
    let canon = if terms.len() <= TERMS_ON_STACK {
        &mut stack[..]
    } else {
        heap.resize(terms.len(), TermId(0));
        &mut heap[..]
    };
    let mut n = 0;
    for &t in terms {
        if !canon[..n].contains(&t) {
            canon[n] = t;
            n += 1;
        }
    }
    f(&canon[..n])
}

/// Ranked disjunctive (OR) evaluation: score every document containing at
/// least one query term, return the top `k` by BM25.
///
/// This is the exhaustive reference evaluator; production callers go
/// through [`search_or_with`] to pick a strategy and collect counters.
///
/// `stats` supplies the collection statistics — pass the index itself for
/// local statistics or a [`crate::score::GlobalStats`] for global ones.
pub fn search_or(
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Vec<SearchHit> {
    let mut ev = EvalStats::default();
    search_or_with(EvalStrategy::Exhaustive, index, terms, k, bm25, stats, &mut ev)
}

/// Ranked disjunctive evaluation under an explicit [`EvalStrategy`],
/// accumulating work counters into `ev`.
///
/// Both strategies return bit-identical results and count the same work
/// (see module docs). A top-0 request is answered empty without reading
/// a list.
pub fn search_or_with(
    strategy: EvalStrategy,
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) -> Vec<SearchHit> {
    if k == 0 {
        return Vec::new();
    }
    with_canon(terms, |canon| match strategy {
        EvalStrategy::Exhaustive => search_or_exhaustive(index, canon, k, bm25, stats, ev),
        EvalStrategy::Dense => search_or_dense(index, &[canon], k, bm25, stats, ev, |_| {}),
    })
}

/// Ranked disjunctive evaluation in stages, as a term-partitioned
/// pipeline runs it (Webber et al. \[16\]): the dense evaluator's loop
/// over each stage's terms in turn, into one accumulator set. Returns the
/// top `k` and, per stage, how many documents the accumulator set holds
/// after it — the set that stage forwards to the next.
///
/// The stages must hold distinct terms; the hits then equal
/// [`search_or_with`]'s over the stages concatenated, bit for bit. A
/// top-0 request is answered empty without reading a list.
pub fn search_or_pipelined(
    index: &InvertedIndex,
    stages: &[&[TermId]],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) -> (Vec<SearchHit>, Vec<usize>) {
    if k == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut forwarded = Vec::with_capacity(stages.len());
    let hits = search_or_dense(index, stages, k, bm25, stats, ev, |n| forwarded.push(n));
    (hits, forwarded)
}

/// Term-at-a-time reference: decode every posting of every term.
fn search_or_exhaustive(
    index: &InvertedIndex,
    canon: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) -> Vec<SearchHit> {
    let cap: usize = canon.iter().map(|&t| index.df(t) as usize).sum();
    // f64 accumulators; terms are walked in canonical order, so each
    // document's sum is the canonical fold (see module docs).
    let mut acc: IdMap<u32, f64> =
        IdMap::with_capacity_and_hasher(cap.min(1 << 20), Default::default());
    for &t in canon {
        let Some(list) = index.postings(t) else { continue };
        ev.postings_scanned += u64::from(list.df());
        ev.blocks_decoded += list.blocks().len() as u64;
        let scorer = bm25.term_scorer(stats, t);
        for p in list.iter() {
            *acc.entry(p.doc.0).or_insert(0.0) += scorer.score(p.tf, index.doc_len(p.doc));
        }
    }
    let mut top = TopK::new(k);
    for (doc, score) in acc {
        top.push(doc, score as f32);
    }
    into_hits(&mut top)
}

/// The dense evaluator's per-thread scratch (see module docs). Between
/// evaluations every slot of `sum` is `0.0` and of `seen` is `false`,
/// except after a panic, when `touched[..touched_len]` names every slot
/// that is not.
#[derive(Default)]
struct Scratch {
    /// Partial scores by local doc id.
    sum: Vec<f64>,
    /// Whether the evaluation has touched a doc, even with a `0.0`.
    seen: Vec<bool>,
    /// The docs touched, in first-touch order, are `touched[..touched_len]`.
    /// Each posting writes its doc at `touched_len` and advances the count
    /// only if the doc is new, so the list is `BLOCK_LEN` longer than the
    /// largest `num_docs` evaluated: a write past the last new doc always
    /// has a slot.
    touched: Vec<u32>,
    touched_len: usize,
    /// One decoded block.
    block: Vec<Posting>,
    /// The selection's buffer (`TopK::reusing`).
    keys: Vec<u64>,
}

impl Scratch {
    /// Zero every slot the touched list names and forget them: on entry
    /// to an evaluation, for a panic that unwound out of the last one.
    fn reset(&mut self) {
        for &d in &self.touched[..self.touched_len] {
            self.sum[d as usize] = 0.0;
            self.seen[d as usize] = false;
        }
        self.touched_len = 0;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Term-at-a-time into the dense scratch: the hot path. It reads exactly
/// the postings [`search_or_exhaustive`] reads, in the same order — the
/// stages' terms, concatenated — and folds each document's sum the same
/// way. After each stage it hands `staged` the number of documents
/// touched so far.
fn search_or_dense(
    index: &InvertedIndex,
    stages: &[&[TermId]],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
    mut staged: impl FnMut(usize),
) -> Vec<SearchHit> {
    SCRATCH.with_borrow_mut(|s| {
        s.reset();
        let n = index.num_docs() as usize;
        if s.sum.len() < n {
            s.sum.resize(n, 0.0);
            s.seen.resize(n, false);
            s.touched.resize(n + BLOCK_LEN, 0);
        }
        for &stage in stages {
            accumulate(s, index, stage, bm25, stats, ev);
            staged(s.touched_len);
        }
        // Select and reset in one pass: each touched slot is read, zeroed
        // and offered. The top-k of `touched_len` candidates is the same
        // for every k at or above it, so the kept buffer is bounded by the
        // index's size, not by the caller's k.
        let Scratch { sum, seen, touched, touched_len, keys, .. } = s;
        let mut top = TopK::reusing(k.min(*touched_len).max(1), std::mem::take(keys));
        for &d in &touched[..*touched_len] {
            let score = std::mem::take(&mut sum[d as usize]) as f32;
            seen[d as usize] = false;
            top.push(d, score);
        }
        *touched_len = 0;
        let hits = into_hits(&mut top);
        *keys = top.into_keys();
        hits
    })
}

/// Add every posting of `terms`, in order, into the dense scratch. It is
/// a function of its own rather than a loop nested in the stage loop:
/// nested, the dense evaluator ran about 10 % slower (`bench_query_eval`'s
/// Medium index, 2-vCPU Xeon).
fn accumulate(
    s: &mut Scratch,
    index: &InvertedIndex,
    terms: &[TermId],
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) {
    let Scratch { sum, seen, touched, touched_len, block, .. } = s;
    let n = index.num_docs();
    for &t in terms {
        let Some(list) = index.postings(t) else { continue };
        ev.postings_scanned += u64::from(list.df());
        ev.blocks_decoded += list.blocks().len() as u64;
        let scorer = bm25.term_scorer(stats, t);
        let mut blocks = list.stream();
        loop {
            block.clear();
            // Corrupt data ends the list, as it ends `ListView::iter`.
            if blocks.append_next(block) != Ok(true) {
                break;
            }
            // A block's docs ascend, so this one check bounds them all:
            // nothing in the loops below can panic, and at any panic
            // point the touched list names every slot written.
            let last = block.last().map_or(0, |p| p.doc.0);
            assert!(last < n, "doc {last} beyond the index's {n} docs");
            let mut len = *touched_len;
            for p in block.iter() {
                let d = p.doc.0 as usize;
                touched[len] = p.doc.0;
                len += usize::from(!seen[d]);
                seen[d] = true;
                sum[d] += scorer.score(p.tf, index.doc_len(p.doc));
            }
            *touched_len = len;
        }
    }
}

fn into_hits(top: &mut TopK) -> Vec<SearchHit> {
    top.sorted().map(|(doc, score)| SearchHit { doc: DocId(doc), score }).collect()
}

/// The posting lists of a conjunction, shortest first, each with its
/// canonical position and its scorer; `None` when nothing can be
/// returned: a top-0 request (no list is read), an empty conjunction, or
/// a term with no postings.
fn and_lists<'a>(
    index: &'a InvertedIndex,
    canon: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Option<Vec<(usize, TermScorer, ListView<'a>)>> {
    if k == 0 || canon.is_empty() {
        return None;
    }
    let mut lists = Vec::with_capacity(canon.len());
    for (i, &t) in canon.iter().enumerate() {
        let list = index.postings(t)?;
        lists.push((i, bm25.term_scorer(stats, t), list));
    }
    lists.sort_by_key(|&(_, _, l)| l.df());
    Some(lists)
}

/// Boolean conjunctive (AND) evaluation: documents containing *all* query
/// terms, scored and ranked.
///
/// Skip-aware `leapfrog` intersection, which phrase search
/// ([`crate::positions`]) shares. Bit-identical to
/// [`search_and_exhaustive`] (and to the scores [`search_or`] assigns
/// full matches), pinned by tests.
pub fn search_and(
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Vec<SearchHit> {
    let Some(lists) = with_canon(terms, |canon| and_lists(index, canon, k, bm25, stats)) else {
        return Vec::new(); // a missing term empties the AND
    };
    let mut cursors: Vec<PostingCursor<'_>> = lists.iter().map(|&(_, _, l)| l.cursor()).collect();
    let mut top = TopK::new(k);
    let mut parts: Vec<(usize, f64)> = Vec::with_capacity(lists.len());
    leapfrog(&mut cursors, |doc, cursors| {
        let doc_len = index.doc_len(doc);
        parts.clear();
        for (&(canon_pos, scorer, _), c) in lists.iter().zip(cursors) {
            parts.push((canon_pos, scorer.score(c.tf(), doc_len)));
        }
        parts.sort_unstable_by_key(|&(c, _)| c);
        top.push(doc.0, parts.iter().fold(0.0f64, |score, &(_, s)| score + s) as f32);
    });
    into_hits(&mut top)
}

/// Leapfrog intersection: hands `on_match` each document every cursor
/// holds, in ascending order, with every cursor on it. The first cursor
/// drives (pass the shortest list first); the others gallop to it with
/// `next_geq`, so blocks with no common document are never decoded.
pub(crate) fn leapfrog<'a>(
    cursors: &mut [PostingCursor<'a>],
    mut on_match: impl FnMut(DocId, &[PostingCursor<'a>]),
) {
    let Some(driver) = cursors.first().filter(|c| c.valid()) else { return };
    let mut cand = driver.doc();
    'leapfrog: loop {
        // One full pass with no overshoot ⇒ every cursor sits on `cand`.
        let mut agreed = true;
        for c in cursors.iter_mut() {
            if !c.next_geq(cand) {
                break 'leapfrog;
            }
            let d = c.doc();
            if d > cand {
                cand = d;
                agreed = false;
            }
        }
        if !agreed {
            continue;
        }
        on_match(cand, cursors);
        // Advance the driver past the match; the others will gallop.
        if !cursors[0].next() {
            break;
        }
        cand = cursors[0].doc();
    }
}

/// Decode-everything conjunctive reference: intersects via hash probes
/// over fully decoded lists. Kept as the correctness baseline for
/// [`search_and`] and as the legacy side of the intersection benchmarks.
pub fn search_and_exhaustive(
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Vec<SearchHit> {
    let Some(lists) = with_canon(terms, |canon| and_lists(index, canon, k, bm25, stats)) else {
        return Vec::new();
    };

    // Start from the shortest list; probe the rest.
    let (first_canon, first_scorer, first_list) = lists[0];
    let mut candidates: Vec<(DocId, Vec<(usize, f64)>)> = first_list
        .iter()
        .map(|p| (p.doc, vec![(first_canon, first_scorer.score(p.tf, index.doc_len(p.doc)))]))
        .collect();

    for &(canon_pos, scorer, list) in &lists[1..] {
        if candidates.is_empty() {
            return Vec::new();
        }
        // Decode this list once into a tf lookup over surviving candidates.
        let want: HashMap<u32, ()> = candidates.iter().map(|&(d, _)| (d.0, ())).collect();
        let mut tfs: HashMap<u32, u32> = HashMap::with_capacity(want.len());
        for p in list.iter() {
            if want.contains_key(&p.doc.0) {
                tfs.insert(p.doc.0, p.tf);
            }
        }
        candidates.retain_mut(|(d, parts)| {
            if let Some(&tf) = tfs.get(&d.0) {
                parts.push((canon_pos, scorer.score(tf, index.doc_len(*d))));
                true
            } else {
                false
            }
        });
    }

    let mut top = TopK::new(k);
    for (d, parts) in &mut candidates {
        parts.sort_unstable_by_key(|&(c, _)| c);
        top.push(d.0, parts.iter().fold(0.0f64, |score, &(_, s)| score + s) as f32);
    }
    into_hits(&mut top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_index;

    fn idx() -> InvertedIndex {
        build_index(&[
            /* 0 */ vec![(TermId(1), 3), (TermId(2), 1)],
            /* 1 */ vec![(TermId(1), 1)],
            /* 2 */ vec![(TermId(2), 2), (TermId(3), 1)],
            /* 3 */ vec![(TermId(1), 1), (TermId(2), 1), (TermId(3), 2)],
            /* 4 */ vec![(TermId(4), 1)],
        ])
    }

    fn or_both(
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
    ) -> (Vec<SearchHit>, Vec<SearchHit>) {
        let bm = Bm25::default();
        let mut e1 = EvalStats::default();
        let mut e2 = EvalStats::default();
        let a = search_or_with(EvalStrategy::Exhaustive, index, terms, k, &bm, index, &mut e1);
        let b = search_or_with(EvalStrategy::Dense, index, terms, k, &bm, index, &mut e2);
        assert_eq!(e1, e2, "both evaluators read every posting");
        (a, b)
    }

    #[test]
    fn or_returns_all_matching_ranked() {
        let i = idx();
        let hits = search_or(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        // docs 0,1,2,3 contain term 1 or 2; doc 4 does not.
        assert_eq!(hits.len(), 4);
        assert!(!docs.contains(&4));
        // Scores descending.
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        // Doc 0 (tf=3 of term1 + term2) should beat doc 1 (single tf=1).
        let pos0 = docs.iter().position(|&d| d == 0).unwrap();
        let pos1 = docs.iter().position(|&d| d == 1).unwrap();
        assert!(pos0 < pos1);
    }

    #[test]
    fn or_respects_k() {
        let i = idx();
        let hits = search_or(&i, &[TermId(1), TermId(2)], 2, &Bm25::default(), &i);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn or_unknown_term_is_empty() {
        let i = idx();
        assert!(search_or(&i, &[TermId(99)], 5, &Bm25::default(), &i).is_empty());
        assert!(search_or(&i, &[], 5, &Bm25::default(), &i).is_empty());
    }

    #[test]
    fn top_0_reads_nothing() {
        let i = idx();
        let bm = Bm25::default();
        let terms = [TermId(1), TermId(2)];
        for strategy in [EvalStrategy::Exhaustive, EvalStrategy::Dense] {
            let mut ev = EvalStats::default();
            assert!(search_or_with(strategy, &i, &terms, 0, &bm, &i, &mut ev).is_empty());
            assert_eq!(ev, EvalStats::default(), "{strategy:?} read a list");
        }
    }

    #[test]
    fn dense_matches_exhaustive_bitwise() {
        let i = idx();
        for k in 1..=6 {
            let (a, b) = or_both(&i, &[TermId(1), TermId(2), TermId(3)], k);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn dense_handles_unknown_and_empty() {
        let i = idx();
        let (a, b) = or_both(&i, &[TermId(99)], 5);
        assert_eq!(a, b);
        assert!(b.is_empty());
        let (a, b) = or_both(&i, &[], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_terms_score_once() {
        let i = idx();
        let once = search_or(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let twice =
            search_or(&i, &[TermId(1), TermId(2), TermId(1), TermId(1)], 10, &Bm25::default(), &i);
        assert_eq!(once, twice, "set semantics: duplicates are ignored");
        let (a, b) = or_both(&i, &[TermId(2), TermId(1), TermId(2)], 3);
        assert_eq!(a, b);
    }

    /// An index's statistics, except that asking for `df` of one term
    /// panics: an evaluation reaching that term unwinds with the sums of
    /// the terms before it still in the scratch.
    struct PanicsOn<'a>(&'a InvertedIndex, TermId);

    impl CollectionStats for PanicsOn<'_> {
        fn num_docs(&self) -> u64 {
            u64::from(self.0.num_docs())
        }
        fn df(&self, term: TermId) -> u64 {
            assert_ne!(term, self.1, "statistics lost mid-evaluation");
            u64::from(self.0.df(term))
        }
        fn avg_doc_len(&self) -> f64 {
            self.0.avg_doc_len()
        }
    }

    #[test]
    fn dense_scratch_survives_a_panic_mid_evaluation() {
        let corpus: Vec<Vec<(TermId, u32)>> =
            (0..4000u32).map(|d| vec![(TermId(1), 1 + d % 2), (TermId(2), 1 + d % 3)]).collect();
        let big = build_index(&corpus);
        let terms = [TermId(1), TermId(2)];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (bm, stats) = (Bm25::default(), PanicsOn(&big, TermId(2)));
            let mut ev = EvalStats::default();
            search_or_with(EvalStrategy::Dense, &big, &terms, 5, &bm, &stats, &mut ev)
        }));
        assert!(unwound.is_err());
        // What a pool worker that caught the panic is left with.
        assert_eq!(SCRATCH.with_borrow(|s| s.touched_len), 4000, "term 1's sums stay");
        for index in [&big, &idx(), &big] {
            for k in [1, 5, 50] {
                let (a, b) = or_both(index, &terms, k);
                assert_eq!(a, b, "k={k}");
            }
        }
    }

    #[test]
    fn a_huge_k_keeps_the_selection_buffer_within_the_index() {
        let n = 300u32;
        let corpus: Vec<Vec<(TermId, u32)>> =
            (0..n).map(|d| vec![(TermId(1), 1 + d % 5)]).collect();
        let index = build_index(&corpus);
        let (bm, terms) = (Bm25::default(), [TermId(1)]);
        let (reference, _) = or_both(&index, &terms, n as usize);
        for k in [n as usize, 10 * n as usize, 1 << 40, usize::MAX] {
            let mut ev = EvalStats::default();
            let hits = search_or_with(EvalStrategy::Dense, &index, &terms, k, &bm, &index, &mut ev);
            assert_eq!(hits, reference, "k={k}");
            let kept = SCRATCH.with_borrow(|s| s.keys.capacity());
            assert!(kept <= (4 * n as usize).max(64), "k={k}: {kept} keys kept");
        }
    }

    #[test]
    fn and_intersects() {
        let i = idx();
        let hits = search_and(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let mut docs: Vec<u32> = hits.iter().map(|h| h.doc.0).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 3]);
    }

    #[test]
    fn and_with_missing_term_is_empty() {
        let i = idx();
        assert!(search_and(&i, &[TermId(1), TermId(99)], 10, &Bm25::default(), &i).is_empty());
    }

    #[test]
    fn and_top_0_is_empty() {
        let i = idx();
        assert!(search_and(&i, &[TermId(1), TermId(2)], 0, &Bm25::default(), &i).is_empty());
    }

    #[test]
    fn and_exhaustive_top_0_is_empty() {
        let i = idx();
        let hits = search_and_exhaustive(&i, &[TermId(1), TermId(2)], 0, &Bm25::default(), &i);
        assert!(hits.is_empty());
    }

    #[test]
    fn and_three_terms() {
        let i = idx();
        let hits = search_and(&i, &[TermId(1), TermId(2), TermId(3)], 10, &Bm25::default(), &i);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(3));
    }

    #[test]
    fn and_galloping_matches_exhaustive_bitwise() {
        let i = idx();
        let bm = Bm25::default();
        for terms in [
            vec![TermId(1)],
            vec![TermId(1), TermId(2)],
            vec![TermId(2), TermId(3)],
            vec![TermId(1), TermId(2), TermId(3)],
            vec![TermId(3), TermId(3), TermId(1)],
        ] {
            for k in 1..=4 {
                let a = search_and(&i, &terms, k, &bm, &i);
                let b = search_and_exhaustive(&i, &terms, k, &bm, &i);
                assert_eq!(a, b, "terms={terms:?} k={k}");
            }
        }
    }

    #[test]
    fn and_subset_of_or() {
        let i = idx();
        let and_hits = search_and(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let or_hits = search_or(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let or_docs: Vec<u32> = or_hits.iter().map(|h| h.doc.0).collect();
        for h in &and_hits {
            assert!(or_docs.contains(&h.doc.0));
        }
    }

    #[test]
    fn and_score_equals_or_score_for_full_matches() {
        let i = idx();
        let and_hits = search_and(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        let or_hits = search_or(&i, &[TermId(1), TermId(2)], 10, &Bm25::default(), &i);
        for ah in &and_hits {
            let oh = or_hits.iter().find(|h| h.doc == ah.doc).unwrap();
            // Exact: both fold the same f64 contributions in canonical
            // term order and round once (no tolerance needed).
            assert_eq!(ah.score, oh.score, "doc {:?}", ah.doc);
        }
    }
}
