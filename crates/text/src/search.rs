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
//! what web engines do, this keeps pruning bounds tight — duplicated
//! terms would double their upper-bound contribution without changing
//! which documents can win — and stops the accumulator capacity estimate
//! from being inflated by duplicates.
//!
//! # Two evaluators, one answer
//!
//! [`EvalStrategy::Exhaustive`] is the reference: term-at-a-time, every
//! posting of every term decoded and accumulated.
//! [`EvalStrategy::MaxScore`] is the hot path: document-at-a-time with
//! MaxScore pruning over the block-max metadata of
//! [`crate::postings::PostingList`]. Both return **bit-identical** top-k
//! vectors — same docs, same `f32` scores, same tie-breaks — which the
//! property suite pins. Three mechanisms make that exactness possible
//! rather than approximate:
//!
//! 1. **Canonical accumulation order.** A document's score is the `f64`
//!    sum of its per-term BM25 contributions folded in the deduplicated
//!    query's term order, converted to `f32` once at top-k insertion.
//!    Both evaluators perform the identical float operation sequence per
//!    scored document, so even non-associativity cannot split them.
//! 2. **Strict pruning against the threshold.** A candidate is skipped
//!    only when its score upper bound, converted to `f32`, is *strictly
//!    below* [`TopK::threshold`]. `f64 → f32` rounding is monotone, so
//!    the candidate's real `f32` score is also strictly below the
//!    threshold and could never be admitted (ties at the threshold can
//!    be admitted on a lower doc id, so `<=` would be wrong).
//! 3. **Inflated bound sums.** Upper-bound sums are multiplied by
//!    `1 + 1e-9` before the comparison, absorbing the non-associativity
//!    of summing bounds in sorted order versus canonical order.

use crate::index::{IdMap, InvertedIndex};
use crate::postings::{PostingCursor, PostingList};
use crate::score::{Bm25, CollectionStats, TermScorer};
use crate::topk::TopK;
use crate::{DocId, TermId};
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
    /// Decode-everything term-at-a-time accumulation (the reference).
    Exhaustive,
    /// Block-max MaxScore pruning, document-at-a-time (the hot path).
    #[default]
    MaxScore,
}

/// Work counters for one evaluation; the broker aggregates these into the
/// throughput experiments (`exp_throughput`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Postings decoded and inspected.
    pub postings_scanned: u64,
    /// Blocks decoded.
    pub blocks_decoded: u64,
    /// Blocks hopped over without decoding.
    pub blocks_skipped: u64,
    /// Candidate documents discarded by a bound check before full scoring.
    pub candidates_pruned: u64,
}

impl EvalStats {
    /// Accumulate another evaluation's counters.
    pub fn merge(&mut self, other: &EvalStats) {
        self.postings_scanned += other.postings_scanned;
        self.blocks_decoded += other.blocks_decoded;
        self.blocks_skipped += other.blocks_skipped;
        self.candidates_pruned += other.candidates_pruned;
    }
}

/// Headroom factor applied to upper-bound *sums* before comparing against
/// the `f32` threshold, absorbing f64 non-associativity between the
/// sorted-order bound sum and the canonical-order score sum.
const BOUND_INFLATE: f64 = 1.0 + 1e-9;

/// Deduplicate query terms preserving first-occurrence order (the
/// canonical term order both evaluators fold scores in).
fn dedup_terms(terms: &[TermId]) -> Vec<TermId> {
    let mut canon: Vec<TermId> = Vec::with_capacity(terms.len());
    for &t in terms {
        if !canon.contains(&t) {
            canon.push(t);
        }
    }
    canon
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
/// Both strategies return bit-identical results (see module docs).
pub fn search_or_with(
    strategy: EvalStrategy,
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) -> Vec<SearchHit> {
    let canon = dedup_terms(terms);
    match strategy {
        EvalStrategy::Exhaustive => search_or_exhaustive(index, &canon, k, bm25, stats, ev),
        EvalStrategy::MaxScore => search_or_maxscore(index, &canon, k, bm25, stats, ev),
    }
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
    let mut acc: IdMap<f64> = IdMap::with_capacity_and_hasher(cap.min(1 << 20), Default::default());
    for &t in canon {
        let Some(list) = index.postings(t) else { continue };
        ev.postings_scanned += u64::from(list.df());
        ev.blocks_decoded += list.blocks().len() as u64;
        let scorer = bm25.term_scorer(stats, t);
        for p in list.iter() {
            *acc.entry(p.doc.0).or_insert(0.0) += scorer.score(p.tf, index.doc_len(p.doc));
        }
    }
    let mut top = TopK::new(k.max(1));
    for (doc, score) in acc {
        top.push(doc, score as f32);
    }
    into_hits(top)
}

/// One query term's state inside the MaxScore evaluator.
struct TermState<'a> {
    /// Position in the canonical (deduplicated) term order.
    canon: usize,
    /// The term's statistics, settled once for the whole evaluation.
    scorer: TermScorer,
    /// Max over the list's block upper bounds: the term's score ceiling.
    ub: f64,
    cursor: PostingCursor<'a>,
}

/// Document-at-a-time MaxScore: terms are kept sorted ascending by their
/// score ceiling; a growing prefix (the *non-essential* terms) is proven
/// unable to lift any document into the top-k on its own and is only ever
/// probed via `next_geq`, never scanned. Candidates come from the
/// essential suffix; bound checks discard them before full scoring.
fn search_or_maxscore(
    index: &InvertedIndex,
    canon: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
    ev: &mut EvalStats,
) -> Vec<SearchHit> {
    let mut ts: Vec<TermState<'_>> = Vec::with_capacity(canon.len());
    for (i, &t) in canon.iter().enumerate() {
        let Some(list) = index.postings(t) else { continue };
        if list.is_empty() {
            continue;
        }
        let scorer = bm25.term_scorer(stats, t);
        let ub = list.blocks().iter().map(|b| scorer.block_upper_bound(b)).fold(0.0f64, f64::max);
        ts.push(TermState { canon: i, scorer, ub, cursor: list.cursor() });
    }
    let mut top = TopK::new(k.max(1));
    if ts.is_empty() {
        return into_hits(top);
    }
    // Ascending by ceiling; canonical position tie-break keeps the sort
    // deterministic (ub is non-NaN: BM25 of finite inputs).
    ts.sort_by(|a, b| a.ub.partial_cmp(&b.ub).expect("non-NaN bound").then(a.canon.cmp(&b.canon)));
    let n = ts.len();
    // prefix_ub[i] = sum of the i smallest ceilings: the most the first
    // i terms can jointly contribute to any document.
    let mut prefix_ub = vec![0.0f64; n + 1];
    for i in 0..n {
        prefix_ub[i + 1] = prefix_ub[i] + ts[i].ub;
    }
    // Number of non-essential terms (prefix of `ts`); grows as the
    // threshold rises, never shrinks (thresholds are monotone).
    let mut ne = 0usize;
    // Scratch: per-candidate (canonical position, contribution) pairs.
    let mut parts: Vec<(usize, f64)> = Vec::with_capacity(n);
    loop {
        if let Some(thr) = top.threshold() {
            // A term moves to the non-essential set when even a document
            // matching *all* non-essential terms at their ceilings stays
            // strictly below the threshold.
            while ne < n && ((prefix_ub[ne + 1] * BOUND_INFLATE) as f32) < thr {
                ne += 1;
            }
            if ne == n {
                break; // no unseen document can enter the top-k
            }
        }
        // Next candidate: smallest current doc among essential cursors.
        let mut cand: Option<DocId> = None;
        for t in &ts[ne..] {
            if t.cursor.valid() {
                let d = t.cursor.doc();
                cand = Some(cand.map_or(d, |c| c.min(d)));
            }
        }
        let Some(cand) = cand else {
            break; // essential lists exhausted; the rest is non-essential
        };
        let doc_len = index.doc_len(cand);
        parts.clear();
        // Essential contributions are already positioned on `cand`.
        let mut actual = 0.0f64; // bound-check sum only, order-insensitive
        for t in &ts[ne..] {
            if t.cursor.valid() && t.cursor.doc() == cand {
                let c = t.scorer.score(t.cursor.tf(), doc_len);
                parts.push((t.canon, c));
                actual += c;
            }
        }
        // Probe non-essential terms from the largest ceiling down; stop
        // as soon as the remaining ceilings cannot save the candidate.
        let mut pruned = false;
        let mut j = ne;
        while j > 0 {
            if let Some(thr) = top.threshold() {
                if (((actual + prefix_ub[j]) * BOUND_INFLATE) as f32) < thr {
                    pruned = true;
                    break;
                }
            }
            j -= 1;
            let t = &mut ts[j];
            if t.cursor.next_geq(cand) && t.cursor.doc() == cand {
                let c = t.scorer.score(t.cursor.tf(), doc_len);
                parts.push((t.canon, c));
                actual += c;
            }
        }
        if pruned {
            ev.candidates_pruned += 1;
        } else {
            // Full score: canonical-order f64 fold (identical operation
            // sequence to the exhaustive accumulator), f32 once.
            parts.sort_unstable_by_key(|&(c, _)| c);
            let mut score = 0.0f64;
            for &(_, c) in &parts {
                score += c;
            }
            top.push(cand.0, score as f32);
        }
        // Advance every essential cursor sitting on the candidate.
        for t in &mut ts[ne..] {
            if t.cursor.valid() && t.cursor.doc() == cand {
                t.cursor.next();
            }
        }
    }
    for t in &ts {
        let s = t.cursor.stats();
        ev.postings_scanned += s.postings_decoded;
        ev.blocks_decoded += s.blocks_decoded;
        ev.blocks_skipped += s.blocks_skipped;
    }
    into_hits(top)
}

fn into_hits(top: TopK) -> Vec<SearchHit> {
    top.into_sorted_vec()
        .into_iter()
        .map(|(doc, score)| SearchHit { doc: DocId(doc), score })
        .collect()
}

/// The posting lists of a conjunction, shortest first, each with its
/// canonical position and its scorer; `None` when the conjunction is
/// empty or one of its terms has no postings (nothing can match).
fn and_lists<'a>(
    index: &'a InvertedIndex,
    canon: &[TermId],
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Option<Vec<(usize, TermScorer, &'a PostingList)>> {
    if canon.is_empty() {
        return None;
    }
    let mut lists = Vec::with_capacity(canon.len());
    for (i, &t) in canon.iter().enumerate() {
        let list = index.postings(t).filter(|l| !l.is_empty())?;
        lists.push((i, bm25.term_scorer(stats, t), list));
    }
    lists.sort_by_key(|&(_, _, l)| l.df());
    Some(lists)
}

/// Boolean conjunctive (AND) evaluation: documents containing *all* query
/// terms, scored and ranked.
///
/// Skip-aware leapfrog: the cursors gallop to each other's positions via
/// `next_geq`, so blocks with no common document are never decoded.
/// Bit-identical to [`search_and_exhaustive`] (and to the scores
/// [`search_or`] assigns full matches), pinned by tests.
pub fn search_and(
    index: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    bm25: &Bm25,
    stats: &impl CollectionStats,
) -> Vec<SearchHit> {
    let Some(lists) = and_lists(index, &dedup_terms(terms), bm25, stats) else {
        return Vec::new(); // a missing term empties the AND
    };
    let mut cursors: Vec<(usize, TermScorer, PostingCursor<'_>)> =
        lists.into_iter().map(|(c, s, l)| (c, s, l.cursor())).collect();

    let mut top = TopK::new(k.max(1));
    let mut parts: Vec<(usize, f64)> = Vec::with_capacity(cursors.len());
    let mut cand = cursors[0].2.doc();
    'leapfrog: loop {
        // One full pass with no overshoot ⇒ every cursor sits on `cand`.
        let mut agreed = true;
        for (_, _, c) in &mut cursors {
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
        let doc_len = index.doc_len(cand);
        parts.clear();
        for (canon_pos, scorer, c) in &cursors {
            parts.push((*canon_pos, scorer.score(c.tf(), doc_len)));
        }
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut score = 0.0f64;
        for &(_, s) in &parts {
            score += s;
        }
        top.push(cand.0, score as f32);
        // Advance the driver past the match; the others will gallop.
        if !cursors[0].2.next() {
            break;
        }
        cand = cursors[0].2.doc();
    }
    into_hits(top)
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
    let Some(lists) = and_lists(index, &dedup_terms(terms), bm25, stats) else {
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

    let mut top = TopK::new(k.max(1));
    for (d, parts) in &mut candidates {
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut score = 0.0f64;
        for &(_, s) in parts.iter() {
            score += s;
        }
        top.push(d.0, score as f32);
    }
    into_hits(top)
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
        let b = search_or_with(EvalStrategy::MaxScore, index, terms, k, &bm, index, &mut e2);
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
    fn maxscore_matches_exhaustive_bitwise() {
        let i = idx();
        for k in 1..=6 {
            let (a, b) = or_both(&i, &[TermId(1), TermId(2), TermId(3)], k);
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn maxscore_handles_unknown_and_empty() {
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

    #[test]
    fn maxscore_prunes_on_larger_index() {
        // Many docs containing a common term; a rare term distinguishes
        // a handful. With k small, most common-only docs are prunable.
        let mut corpus: Vec<Vec<(TermId, u32)>> = Vec::new();
        for d in 0..4000u32 {
            let mut doc = vec![(TermId(1), 1 + d % 2)];
            if d % 397 == 0 {
                doc.push((TermId(2), 3));
            }
            corpus.push(doc);
        }
        let i = build_index(&corpus);
        let bm = Bm25::default();
        let mut ex = EvalStats::default();
        let mut ms = EvalStats::default();
        let terms = [TermId(1), TermId(2)];
        let a = search_or_with(EvalStrategy::Exhaustive, &i, &terms, 5, &bm, &i, &mut ex);
        let b = search_or_with(EvalStrategy::MaxScore, &i, &terms, 5, &bm, &i, &mut ms);
        assert_eq!(a, b, "pruning must not change results");
        assert!(
            ms.postings_scanned < ex.postings_scanned,
            "maxscore must scan fewer postings: {} vs {}",
            ms.postings_scanned,
            ex.postings_scanned
        );
        assert!(ms.blocks_skipped > 0, "expected whole blocks to be skipped");
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
