//! Property-based tests of the IR core's invariants.

use bytes::Bytes;
use dwr_sim::SimRng;
use dwr_text::index::{build_index, merge_indexes};
use dwr_text::positions::{PositionalIndex, PositionalList, PositionalPosting};
use dwr_text::postings::{Posting, PostingList, PostingListBuilder, BLOCK_LEN};
use dwr_text::score::{Bm25, CollectionStats, GlobalStats};
use dwr_text::search::{
    search_and, search_and_exhaustive, search_or, search_or_with, EvalStats, EvalStrategy,
    SearchHit,
};
use dwr_text::token::{term_frequencies, tokenize};
use dwr_text::topk::TopK;
use dwr_text::{DocId, InvertedIndex, TermId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// Strategy: a sorted, strictly ascending (doc, tf) posting vector.
fn postings_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::btree_set(0u32..1_000_000, 0..100).prop_flat_map(|docs| {
        let docs: Vec<u32> = docs.into_iter().collect();
        let n = docs.len();
        prop::collection::vec(1u32..10_000, n)
            .prop_map(move |tfs| docs.iter().copied().zip(tfs).collect())
    })
}

/// Strategy: a random small corpus.
fn corpus_strategy() -> impl Strategy<Value = Vec<Vec<(TermId, u32)>>> {
    prop::collection::vec(
        prop::collection::btree_map(0u32..200, 1u32..5, 0..20)
            .prop_map(|m| m.into_iter().map(|(t, tf)| (TermId(t), tf)).collect()),
        0..40,
    )
}

/// Strategy: a corpus of `docs` documents over 24 terms, where term 0 is
/// in about three quarters of the documents and term 1 in about half.
fn dense_corpus_strategy(docs: Range<usize>) -> impl Strategy<Value = Vec<Vec<(TermId, u32)>>> {
    let doc = (prop::collection::btree_map(2u32..24, 1u32..5, 0..5), 0u32..4, 0u32..2);
    prop::collection::vec(doc, docs).prop_map(|docs| {
        docs.into_iter()
            .map(|(rest, common, half)| {
                let heads = [(0, common), (1, half)].into_iter().filter(|&(_, tf)| tf > 0);
                heads.chain(rest).map(|(t, tf)| (TermId(t), tf)).collect()
            })
            .collect()
    })
}

/// An index's statistics, except that the collection claims a single
/// document: every term in two or more documents gets an idf of 0.
struct OneDoc<'a>(&'a InvertedIndex);

impl CollectionStats for OneDoc<'_> {
    fn num_docs(&self) -> u64 {
        1
    }
    fn df(&self, term: TermId) -> u64 {
        u64::from(self.0.df(term))
    }
    fn avg_doc_len(&self) -> f64 {
        self.0.avg_doc_len()
    }
}

/// The exhaustive and the dense evaluator on one query: each one's hits
/// and work counters.
fn both_evaluators(
    idx: &InvertedIndex,
    terms: &[TermId],
    k: usize,
    stats: &impl CollectionStats,
) -> [(Vec<SearchHit>, EvalStats); 2] {
    let bm = Bm25::default();
    [EvalStrategy::Exhaustive, EvalStrategy::Dense].map(|strategy| {
        let mut ev = EvalStats::default();
        (search_or_with(strategy, idx, terms, k, &bm, stats, &mut ev), ev)
    })
}

/// Strategy: a strictly ascending (doc, tf) vector spanning several
/// blocks, with gaps of up to 4, 300 or 20 million (2-, 9- or 25-bit gap
/// fields); the widest reach up to `u32::MAX`, so a corrupted gap can
/// overflow the doc id.
fn long_postings_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    (0usize..3, prop::collection::vec((0u32..20_000_000, 1u32..300), 0..400)).prop_map(
        |(width, raw)| {
            let max_gap = [4, 300, 20_000_000][width];
            let mut doc = 0u32;
            let mut out = Vec::with_capacity(raw.len());
            for (gap, tf) in raw {
                let Some(next) = doc.checked_add(1 + gap % max_gap) else { break };
                doc = next;
                out.push((doc, tf));
            }
            out
        },
    )
}

/// The size of `postings` in the posting format, worked out from the
/// input alone: per block of `BLOCK_LEN`, a 2-byte header, then `n` values
/// at the width of the block's largest `gap − 1` (the first doc's gap is
/// from −1) and `n` at the width of its largest `tf − 1`, each section
/// padded to a byte.
fn packed_size(postings: &[(u32, u32)]) -> usize {
    let bits = |max: u32| (u32::BITS - max.leading_zeros()) as usize;
    let mut prev = -1i64;
    postings
        .chunks(BLOCK_LEN)
        .map(|block| {
            let (mut gap, mut tf) = (0u32, 0u32);
            for &(doc, t) in block {
                gap = gap.max((i64::from(doc) - prev - 1) as u32);
                tf = tf.max(t - 1);
                prev = i64::from(doc);
            }
            2 + (block.len() * bits(gap)).div_ceil(8) + (block.len() * bits(tf)).div_ceil(8)
        })
        .sum()
}

/// Strategy: token streams over a six-term vocabulary, empty documents
/// included; with up to 300 documents, common terms' lists span several
/// blocks. The first document may lead with a run of 300 or 70 000
/// copies of term 6, which puts the positions after it at 9 or 17 bits.
fn token_docs_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    let docs = prop::collection::vec(prop::collection::vec(0u32..6, 0..20), 0..300);
    (docs, 0usize..3).prop_map(|(mut docs, lead)| {
        if let Some(first) = docs.first_mut() {
            first.splice(0..0, std::iter::repeat_n(6, [0, 300, 70_000][lead]));
        }
        docs
    })
}

/// The positional list of `term`'s positions in `docs`, worked out by
/// scanning the streams.
fn positions_scan(docs: &[Vec<u32>], term: u32) -> Vec<PositionalPosting> {
    let postings = docs.iter().enumerate().map(|(d, tokens)| {
        let positions = (0..tokens.len() as u32).filter(|&p| tokens[p as usize] == term);
        PositionalPosting { doc: DocId(d as u32), positions: positions.collect() }
    });
    postings.filter(|p| !p.positions.is_empty()).collect()
}

/// The reference phrase matcher: the documents with the phrase at
/// consecutive token positions, by scanning every stream.
fn phrase_scan(docs: &[Vec<u32>], phrase: &[u32]) -> Vec<DocId> {
    if phrase.is_empty() {
        return Vec::new();
    }
    (0..docs.len() as u32)
        .filter(|&d| docs[d as usize].windows(phrase.len()).any(|w| w == phrase))
        .map(DocId)
        .collect()
}

/// A list's block ladder as its `last_doc` skip keys, without the arena
/// offsets.
fn ladder(list: &PostingList) -> Vec<u32> {
    list.blocks().iter().map(|m| m.last_doc).collect()
}

/// BM25 exactly as the evaluators computed it per posting before the
/// statistics were hoisted into `TermScorer`: the operation order that
/// every pinned score in the repository was produced with.
fn inline_bm25(
    bm: &Bm25,
    stats: &impl CollectionStats,
    term: TermId,
    tf: u32,
    doc_len: u32,
) -> f64 {
    let n = stats.num_docs() as f64;
    let df = stats.df(term) as f64;
    let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(0.0);
    let avg = stats.avg_doc_len().max(1.0);
    let tf = f64::from(tf);
    let norm = bm.k1 * (1.0 - bm.b + bm.b * f64::from(doc_len) / avg);
    idf * tf * (bm.k1 + 1.0) / (tf + norm)
}

/// `n` documents of which the first `df` contain term 0 once; term 1
/// pads document `i` to `pad[i]` further tokens (none when 0, so the
/// average length can fall below 1).
fn stats_corpus(n: usize, df: usize, pad: &[u32]) -> Vec<Vec<(TermId, u32)>> {
    (0..n)
        .map(|i| {
            let mut doc = Vec::new();
            if i < df {
                doc.push((TermId(0), 1));
            }
            if pad[i] > 0 {
                doc.push((TermId(1), pad[i]));
            }
            doc
        })
        .collect()
}

/// Fixed-seed anchor: the dense evaluator reads exactly the postings the
/// exhaustive reference reads — the count the reference has scanned on
/// this fixture since before the scorer was hoisted.
#[test]
fn dense_work_counters_anchor() {
    let mut rng = SimRng::new(20_070_415);
    let corpus: Vec<Vec<(TermId, u32)>> = (0..6000)
        .map(|_| {
            let mut doc = std::collections::BTreeMap::new();
            for _ in 0..rng.range_u64(4, 40) {
                // Cubed uniform: a few terms in most documents, a long tail.
                let t = (400.0 * rng.f64().powi(3)) as u32;
                *doc.entry(t).or_insert(0u32) += 1;
            }
            doc.into_iter().map(|(t, tf)| (TermId(t), tf)).collect()
        })
        .collect();
    let idx = build_index(&corpus);
    let bm = Bm25::default();
    let mut dense = EvalStats::default();
    let mut ex = EvalStats::default();
    for q in 0..64u64 {
        let mut qrng = rng.fork(q);
        let terms: Vec<TermId> = (0..qrng.range_u64(1, 5))
            .map(|_| TermId((400.0 * qrng.f64().powi(2)) as u32))
            .collect();
        let a = search_or_with(EvalStrategy::Exhaustive, &idx, &terms, 10, &bm, &idx, &mut ex);
        let b = search_or_with(EvalStrategy::Dense, &idx, &terms, 10, &bm, &idx, &mut dense);
        assert_eq!(a, b, "query {q}: {terms:?}");
    }
    assert_eq!(dense, ex);
    assert_eq!(
        dense,
        EvalStats { postings_scanned: 117_529, blocks_decoded: 1_008, ..EvalStats::default() }
    );
}

proptest! {
    /// Codec roundtrip: decode(encode(postings)) == postings, and df/cf
    /// match.
    #[test]
    fn postings_roundtrip(postings in postings_strategy()) {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in &postings {
            b.push(DocId(d), tf);
        }
        let list = b.finish();
        prop_assert_eq!(list.df() as usize, postings.len());
        prop_assert_eq!(list.cf(), postings.iter().map(|&(_, tf)| u64::from(tf)).sum::<u64>());
        let decoded: Vec<(u32, u32)> = list.iter().map(|p| (p.doc.0, p.tf)).collect();
        prop_assert_eq!(decoded, postings);
    }

    /// The byte count is honest: `encoded_bytes()` is the headers plus the
    /// packed sections and nothing else, so no byte of the format hides
    /// in the uncounted block sidecar.
    #[test]
    fn encoded_bytes_are_headers_plus_packed_sections(
        short in postings_strategy(),
        long in long_postings_strategy(),
    ) {
        for postings in [short, long] {
            let mut b = PostingListBuilder::new();
            for &(d, tf) in &postings {
                b.push(DocId(d), tf);
            }
            prop_assert_eq!(b.finish().encoded_bytes(), packed_size(&postings));
        }
    }

    /// TopK equals a full sort-and-truncate.
    #[test]
    fn topk_matches_sort(entries in prop::collection::vec((any::<u32>(), -1e6f32..1e6), 0..200), k in 1usize..20) {
        let mut top = TopK::new(k);
        for &(key, score) in &entries {
            top.push(key, score);
        }
        let got = top.into_sorted_vec();
        let mut want = entries.clone();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        want.dedup();
        // dedup only adjacent duplicates of identical (key, score) pairs —
        // duplicates are legal inputs, so compare prefix by values instead.
        let want: Vec<(u32, f32)> = {
            let mut w = entries.clone();
            w.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            w.truncate(k);
            w
        };
        prop_assert_eq!(got, want);
    }

    /// The counting-sort build equals a per-term reference written with
    /// `PostingListBuilder::push`, bit for bit: every term's encoded
    /// bytes, `last_doc` ladder, df and cf, and the document lengths and
    /// token total.
    #[test]
    fn build_equals_per_term_builders(corpus in corpus_strategy()) {
        let idx = build_index(&corpus);
        let doc_len: Vec<u32> =
            corpus.iter().map(|doc| doc.iter().map(|&(_, tf)| tf).sum()).collect();
        let mut reference: BTreeMap<u32, PostingListBuilder> = BTreeMap::new();
        for (d, doc) in corpus.iter().enumerate() {
            for &(t, tf) in doc {
                reference.entry(t.0).or_default().push(DocId(d as u32), tf);
            }
        }
        prop_assert_eq!(idx.num_docs() as usize, corpus.len());
        for (d, &len) in doc_len.iter().enumerate() {
            prop_assert_eq!(idx.doc_len(DocId(d as u32)), len);
        }
        prop_assert_eq!(idx.total_tokens(), doc_len.iter().map(|&l| u64::from(l)).sum::<u64>());
        prop_assert_eq!(idx.num_terms(), reference.len());
        for (t, b) in reference {
            let want = b.finish();
            let got = idx.postings(TermId(t)).expect("every reference term is indexed");
            prop_assert_eq!(&got.encoded()[..], &want.encoded()[..], "term {}", t);
            prop_assert_eq!(ladder(got), ladder(&want), "term {}", t);
            prop_assert_eq!((got.df(), got.cf()), (want.df(), want.cf()), "term {}", t);
        }
    }

    /// Merging chunked sub-indexes reproduces the monolithic index.
    #[test]
    fn merge_equals_monolithic(corpus in corpus_strategy(), cut in 0usize..40) {
        let cut = cut.min(corpus.len());
        let merged = merge_indexes(&[build_index(&corpus[..cut]), build_index(&corpus[cut..])]);
        let mono = build_index(&corpus);
        prop_assert_eq!(merged.num_docs(), mono.num_docs());
        prop_assert_eq!(merged.num_terms(), mono.num_terms());
        for (t, list) in mono.terms() {
            let other = merged.postings(t).expect("term present");
            prop_assert_eq!(list.to_vec(), other.to_vec());
            // Appended lists are re-blocked: the same bytes as a build.
            prop_assert_eq!(&list.encoded()[..], &other.encoded()[..]);
            prop_assert_eq!(ladder(list), ladder(other));
        }
    }

    /// The tokenizer is total and only emits tokens of length >= 2 without
    /// separators.
    #[test]
    fn tokenizer_total(text in ".*") {
        let tokens = tokenize(&text);
        for t in tokens {
            prop_assert!(t.chars().count() >= 2);
            prop_assert!(t.chars().all(char::is_alphanumeric));
        }
    }

    /// term_frequencies output is sorted, unique, and conserves tokens.
    #[test]
    fn term_frequencies_conserve(tokens in prop::collection::vec(0u32..50, 0..100)) {
        let ids: Vec<TermId> = tokens.iter().map(|&t| TermId(t)).collect();
        let tf = term_frequencies(&ids);
        prop_assert!(tf.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u32 = tf.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, tokens.len());
    }

    /// AND results are a subset of OR results with identical scores.
    #[test]
    fn and_subset_of_or(corpus in corpus_strategy(), t1 in 0u32..200, t2 in 0u32..200) {
        let idx = build_index(&corpus);
        let terms = [TermId(t1), TermId(t2)];
        let bm = Bm25::default();
        let and_hits = search_and(&idx, &terms, 1000, &bm, &idx);
        let or_hits = search_or(&idx, &terms, 1000, &bm, &idx);
        for a in &and_hits {
            let o = or_hits.iter().find(|h| h.doc == a.doc);
            prop_assert!(o.is_some(), "AND hit missing from OR");
            // Exact, not approximate: both evaluators fold the same f64
            // contributions in canonical term order and round to f32 once.
            prop_assert_eq!(o.unwrap().score, a.score);
        }
    }

    /// BM25 scores are finite and non-negative for any stats combination.
    #[test]
    fn bm25_sane(tf in 1u32..1000, doc_len in 0u32..100_000) {
        let idx = build_index(&[vec![(TermId(0), 1)], vec![(TermId(1), 2)]]);
        let bm = Bm25::default();
        let s = bm.score(&idx, TermId(0), tf, doc_len);
        prop_assert!(s.is_finite() && s >= 0.0);
    }

    /// The hoisted scorer is the inline formula, bit for bit, under local
    /// and aggregated statistics — `df = 0`, `df > n/2` (idf floored at
    /// 0) and `avg < 1` (clamped to 1) included. `CorpusStats` is covered
    /// by the same property in `crates/partition/tests/props.rs`.
    #[test]
    fn term_scorer_matches_inline_formula(
        shape in (1usize..48, 0usize..48, 1u32..9, 0usize..48),
        pad in prop::collection::vec(0u32..8, 48),
        tf in 1u32..1000,
        doc_len in 0u32..100_000,
    ) {
        let (n, df, thin, cut) = shape;
        let pad: Vec<u32> = pad.iter().map(|&p| p / thin).collect();
        let corpus = stats_corpus(n, df % (n + 1), &pad);
        let idx = build_index(&corpus);
        let cut = cut.min(n);
        let (pa, pb) = (build_index(&corpus[..cut]), build_index(&corpus[cut..]));
        let bm = Bm25::default();
        // Term 9 is in no document: df = 0.
        for term in [TermId(0), TermId(1), TermId(9)] {
            let g = GlobalStats::for_terms(&[&pa, &pb], &[term]);
            prop_assert_eq!(g.avg_doc_len().to_bits(), idx.avg_doc_len().to_bits());
            let want = inline_bm25(&bm, &idx, term, tf, doc_len).to_bits();
            prop_assert_eq!(bm.term_scorer(&idx, term).score(tf, doc_len).to_bits(), want);
            prop_assert_eq!(bm.score(&idx, term, tf, doc_len).to_bits(), want);
            prop_assert_eq!(bm.term_scorer(&g, term).score(tf, doc_len).to_bits(), want);
            prop_assert_eq!(inline_bm25(&bm, &g, term, tf, doc_len).to_bits(), want);
        }
    }

    /// Adversarial decode: one flipped byte or a truncation of a valid
    /// stream is either rejected by `from_encoded` or admitted as an
    /// ascending list whose three access paths never panic, never yield
    /// more than `df` postings and agree with each other.
    #[test]
    fn corrupted_stream_errors_or_decodes_consistently(
        postings in long_postings_strategy(),
        damage in (0u8..2, any::<u64>(), 1u32..256),
        probes in prop::collection::btree_set(any::<u32>(), 0..40),
    ) {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in &postings {
            b.push(DocId(d), tf);
        }
        let list = b.finish();
        let mut bytes = list.encoded().to_vec();
        prop_assume!(!bytes.is_empty());
        let (flip, at, mask) = damage;
        let at = (at % bytes.len() as u64) as usize;
        if flip == 1 {
            bytes[at] ^= mask as u8;
        } else {
            bytes.truncate(at);
        }
        let df = list.df() as usize;
        // Err(DecodeError) is the other acceptable outcome.
        if let Ok(bad) = PostingList::from_encoded(Bytes::from(bytes), list.df()) {
            let via_iter: Vec<Posting> = bad.iter().collect();
            prop_assert!(via_iter.len() <= df);
            let mut walked = Vec::with_capacity(df);
            let mut c = bad.cursor();
            while c.valid() {
                walked.push(Posting { doc: c.doc(), tf: c.tf() });
                prop_assert!(walked.len() <= df, "cursor ran past df");
                c.next();
            }
            prop_assert_eq!(&walked, &via_iter);
            // An admitted list is ascending, so `next_geq` owes the
            // exact answer.
            prop_assert!(via_iter.windows(2).all(|w| w[0].doc < w[1].doc));
            let mut c = bad.cursor();
            let mut floor = 0u32;
            for &p in &probes {
                let target = p.max(floor);
                let got = c.next_geq(DocId(target)).then(|| Posting { doc: c.doc(), tf: c.tf() });
                let want = via_iter.iter().copied().find(|p| p.doc.0 >= target);
                prop_assert_eq!(got, want, "target {}", target);
                let Some(hit) = got else { break };
                floor = floor.max(hit.doc.0);
            }
        }
    }

    /// Old≡new decode equivalence: the blocked cursor walked posting by
    /// posting reproduces the flat iterator exactly, and re-admitting the
    /// encoded bytes via `from_encoded` reproduces the same list.
    #[test]
    fn cursor_walk_equals_iterator(postings in postings_strategy()) {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in &postings {
            b.push(DocId(d), tf);
        }
        let list = b.finish();
        let mut via_cursor = Vec::with_capacity(postings.len());
        let mut c = list.cursor();
        while c.valid() {
            via_cursor.push((c.doc().0, c.tf()));
            c.next();
        }
        let via_iter: Vec<(u32, u32)> = list.iter().map(|p| (p.doc.0, p.tf)).collect();
        prop_assert_eq!(&via_cursor, &via_iter);
        // Wire roundtrip: re-admitting the same bytes reproduces the
        // postings and the block ladder's skip keys.
        let wire = PostingList::from_encoded(list.encoded(), list.df()).expect("valid stream");
        prop_assert_eq!(wire.to_vec(), list.to_vec());
        prop_assert_eq!(wire.cf(), list.cf());
        let wire_keys: Vec<u32> = wire.blocks().iter().map(|m| m.last_doc).collect();
        let own_keys: Vec<u32> = list.blocks().iter().map(|m| m.last_doc).collect();
        prop_assert_eq!(wire_keys, own_keys);
    }

    /// `next_geq` lands on exactly the posting a linear scan would find,
    /// for any list and any (sorted) probe sequence.
    #[test]
    fn next_geq_matches_linear_scan(
        postings in postings_strategy(),
        probes in prop::collection::btree_set(0u32..1_100_000, 0..40),
    ) {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in &postings {
            b.push(DocId(d), tf);
        }
        let list = b.finish();
        let docs: Vec<u32> = postings.iter().map(|&(d, _)| d).collect();
        let mut c = list.cursor();
        let mut floor = 0u32; // cursors never move backwards
        for &p in &probes {
            let target = p.max(floor);
            let want = docs.iter().copied().find(|&d| d >= target);
            let got = c.next_geq(DocId(target)).then(|| c.doc().0);
            prop_assert_eq!(got, want, "target {}", target);
            if let Some(d) = got {
                floor = d;
            } else {
                break;
            }
        }
    }

    /// The dense and exhaustive `search_or` return identical `(doc,
    /// score)` vectors — docs, f32 scores, and tie-break order — and
    /// identical work counters over arbitrary indexes, term multisets
    /// (duplicates included), and k, under local statistics.
    #[test]
    fn dense_equals_exhaustive_local_stats(
        corpus in corpus_strategy(),
        terms in prop::collection::vec(0u32..200, 0..6),
        k in 1usize..20,
    ) {
        let idx = build_index(&corpus);
        let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
        let bm = Bm25::default();
        let mut ex = EvalStats::default();
        let mut dense = EvalStats::default();
        let a = search_or_with(EvalStrategy::Exhaustive, &idx, &terms, k, &bm, &idx, &mut ex);
        let b = search_or_with(EvalStrategy::Dense, &idx, &terms, k, &bm, &idx, &mut dense);
        prop_assert_eq!(a, b, "evaluators diverge on {:?} k={}", &terms, k);
        prop_assert_eq!(dense, ex);
    }

    /// The dense scratch carries nothing from one evaluation to the next:
    /// a sequence of evaluations on one thread, over indexes whose sizes
    /// go large → small → large, equals the exhaustive reference bit for
    /// bit at every step. Queries repeat terms and include terms in most
    /// documents, and each step picks a statistics source: local, global
    /// over all three indexes, or one that claims a single document, so
    /// every term in two or more documents has its idf floored to 0 and
    /// whole candidate sets tie at 0.0.
    #[test]
    fn dense_equals_exhaustive_across_a_sequence(
        large in dense_corpus_strategy(150..400),
        small in dense_corpus_strategy(1..12),
        large_again in dense_corpus_strategy(150..400),
        steps in prop::collection::vec(
            (prop::collection::vec(0u32..30, 0..6), 1usize..21, 0usize..3),
            1..8,
        ),
    ) {
        let indexes = [build_index(&large), build_index(&small), build_index(&large_again)];
        for (terms, k, source) in steps {
            let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
            let global = GlobalStats::for_terms(&indexes.each_ref(), &terms);
            for idx in &indexes {
                let [ex, dense] = match source {
                    0 => both_evaluators(idx, &terms, k, idx),
                    1 => both_evaluators(idx, &terms, k, &global),
                    _ => both_evaluators(idx, &terms, k, &OneDoc(idx)),
                };
                prop_assert_eq!(
                    dense, ex, "{} docs, {:?} k={} source {}", idx.num_docs(), &terms, k, source
                );
            }
        }
    }

    /// Same equivalence under aggregated `GlobalStats` (the two-round
    /// broker protocol's statistics source).
    #[test]
    fn dense_equals_exhaustive_global_stats(
        corpus_a in corpus_strategy(),
        corpus_b in corpus_strategy(),
        terms in prop::collection::vec(0u32..200, 0..6),
        k in 1usize..20,
    ) {
        let pa = build_index(&corpus_a);
        let pb = build_index(&corpus_b);
        let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
        let g = GlobalStats::for_terms(&[&pa, &pb], &terms);
        let bm = Bm25::default();
        for idx in [&pa, &pb] {
            let mut ex = EvalStats::default();
            let mut dense = EvalStats::default();
            let a = search_or_with(EvalStrategy::Exhaustive, idx, &terms, k, &bm, &g, &mut ex);
            let b = search_or_with(EvalStrategy::Dense, idx, &terms, k, &bm, &g, &mut dense);
            prop_assert_eq!(a, b, "evaluators diverge under global stats on {:?}", &terms);
            prop_assert_eq!(dense, ex);
        }
    }

    /// The galloping conjunctive evaluator matches the decode-everything
    /// reference bit for bit.
    #[test]
    fn and_galloping_equals_exhaustive(
        corpus in corpus_strategy(),
        terms in prop::collection::vec(0u32..200, 0..5),
        k in 1usize..20,
    ) {
        let idx = build_index(&corpus);
        let terms: Vec<TermId> = terms.into_iter().map(TermId).collect();
        let bm = Bm25::default();
        let a = search_and(&idx, &terms, k, &bm, &idx);
        let b = search_and_exhaustive(&idx, &terms, k, &bm, &idx);
        prop_assert_eq!(a, b, "AND evaluators diverge on {:?} k={}", &terms, k);
    }

    /// Phrase search equals scanning the token streams, for phrases of
    /// 0..5 terms that repeat terms or name one missing from the index,
    /// and for a phrase cut from a document.
    #[test]
    fn phrase_search_equals_a_scan_of_the_streams(
        docs in token_docs_strategy(),
        phrase in prop::collection::vec(0u32..8, 0..5),
        cut in (any::<u64>(), 1usize..6),
    ) {
        let idx = PositionalIndex::build(&docs);
        prop_assert_eq!(idx.phrase_search(&phrase), phrase_scan(&docs, &phrase), "{:?}", &phrase);
        let (at, len) = cut;
        if let Some(doc) = docs.get((at % docs.len().max(1) as u64) as usize) {
            let from = (at as usize / 7) % doc.len().max(1);
            let window = &doc[from.min(doc.len())..(from + len).min(doc.len())];
            prop_assert_eq!(idx.phrase_search(window), phrase_scan(&docs, window), "{:?}", window);
        }
    }

    /// Every term's positional list decodes to the term's positions in
    /// the streams, ships exactly the bytes it counts, and re-admits from
    /// them as the same list.
    #[test]
    fn positional_lists_roundtrip(docs in token_docs_strategy()) {
        let idx = PositionalIndex::build(&docs);
        for term in 0..8u32 {
            let want = positions_scan(&docs, term);
            let Some(list) = idx.list(term) else {
                prop_assert!(want.is_empty(), "term {} is missing", term);
                continue;
            };
            prop_assert_eq!(list.to_vec(), want.clone(), "term {}", term);
            let (postings, positions) = list.encoded();
            prop_assert_eq!(postings.len() + positions.len(), list.encoded_bytes());
            let wire = PositionalList::from_encoded(postings, list.df(), positions).expect("valid");
            prop_assert_eq!(wire.to_vec(), want, "term {}", term);
            prop_assert_eq!(wire.encoded_bytes(), list.encoded_bytes());
        }
    }

    /// Adversarial re-admission: truncating, flipping a byte of or
    /// appending bytes to either stream, or inflating one posting's tf,
    /// is either rejected or admitted as a list that decodes consistently:
    /// `df` ascending postings at most, each with exactly `tf` strictly
    /// ascending positions, and no more positions than the position
    /// stream has bits.
    #[test]
    fn corrupted_positional_list_errors_or_decodes_consistently(
        docs in token_docs_strategy(),
        term in 0u32..7,
        damage in (0u8..4, 0u8..2, any::<u64>(), 1u32..256),
    ) {
        let idx = PositionalIndex::build(&docs);
        let Some(list) = idx.list(term) else { return Ok(()) };
        let (postings, positions) = list.encoded();
        let input = PostingList::from_encoded(postings.clone(), list.df()).expect("valid").to_vec();
        let mut streams = [postings.to_vec(), positions.to_vec()];
        let (kind, which, at, mask) = damage;
        let stream = &mut streams[which as usize];
        let at = (at % stream.len().max(1) as u64) as usize;
        match kind {
            0 => stream.truncate(at),
            1 => {
                if let Some(byte) = stream.get_mut(at) {
                    *byte ^= mask as u8;
                }
            }
            2 => stream.extend(std::iter::repeat_n(mask as u8, 1 + at % 9)),
            _ => {
                // One posting claims up to 2^31 more occurrences.
                let victim = at % input.len();
                let mut b = PostingListBuilder::new();
                for (i, p) in input.iter().enumerate() {
                    b.push(p.doc, p.tf + if i == victim { mask << (at % 24) } else { 0 });
                }
                streams[0] = b.finish().encoded().to_vec();
            }
        }
        let [postings, positions] = streams.map(Bytes::from);
        let bits = positions.len() * 8;
        if let Ok(bad) = PositionalList::from_encoded(postings.clone(), list.df(), positions) {
            let decoded = bad.to_vec();
            // The posting half the positions were admitted against.
            let tfs = PostingList::from_encoded(postings, list.df()).expect("admitted").to_vec();
            prop_assert!(decoded.len() <= list.df() as usize);
            prop_assert_eq!(decoded.len(), tfs.len());
            for (p, q) in decoded.iter().zip(&tfs) {
                prop_assert_eq!(p.doc, q.doc);
                prop_assert_eq!(p.positions.len(), q.tf as usize);
                prop_assert!(p.positions.windows(2).all(|w| w[0] < w[1]));
            }
            prop_assert!(decoded.windows(2).all(|w| w[0].doc < w[1].doc));
            prop_assert!(decoded.iter().map(|p| p.positions.len()).sum::<usize>() <= bits);
        }
    }
}
