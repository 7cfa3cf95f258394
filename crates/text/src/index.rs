//! Inverted-index construction: counting-sort builds, round-robin splits,
//! merges.
//!
//! Section 4 frames indexing as "a 'sort' operation on a set of records
//! representing term occurrences" and points at sort-based \[14\] and
//! single-pass \[15\] construction, pipelined distributed builds \[25\], and
//! map-reduce \[26\]. This module provides the local building blocks, all
//! of which write an index's lists back to back into one arena (see
//! [`crate::postings`]):
//!
//! * [`build_index`] / [`index_documents`] — a counting sort of the
//!   postings on term, then one encode pass;
//! * [`InvertedIndex::split_round_robin`] — children of an index filtered
//!   out of its lists, never re-read from documents;
//! * [`merge_indexes`] — sub-indexes over consecutive doc-id ranges
//!   appended into one, the primitive behind distributed construction.
//!
//! The parallel build is `dwr-partition`'s: `PartitionedIndex` builds its
//! shards on scoped workers.

use crate::postings::{Arena, ArenaWriter, ListSpan, PostingList, BLOCK_LEN};
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

    /// Assemble an index from its frozen arena, the `(term, list)` spans
    /// written into it and the document lengths. The term table is built
    /// once, at its final size.
    fn from_arena(arena: Arena, lists: Vec<(u32, ListSpan)>, doc_len: Vec<u32>) -> Self {
        let mut postings = IdMap::with_capacity_and_hasher(lists.len(), Default::default());
        postings.extend(lists.into_iter().map(|(term, span)| (term, arena.list(span))));
        let total_tokens = doc_len.iter().map(|&len| u64::from(len)).sum();
        InvertedIndex { postings, doc_len, total_tokens }
    }

    /// Split the index round-robin into `fanout` children: child `c`
    /// holds local documents `c, c + fanout, c + 2·fanout, …`, renumbered
    /// `0, 1, 2, …`. That renumbering is monotone, so each child's list of
    /// a term is the parent's list filtered to `doc % fanout == c` with
    /// `doc / fanout` as the new id, and each document keeps its length:
    /// every child is, byte for byte, the index [`build_index`] gives its
    /// documents, yet no document is read. Each parent list is decoded
    /// once and streamed into the children's arenas; a term a child has
    /// no document of is not in that child.
    ///
    /// # Panics
    /// Panics if `fanout == 0`.
    pub fn split_round_robin(&self, fanout: usize) -> Vec<InvertedIndex> {
        assert!(fanout > 0, "a split needs at least one child");
        let (f, bytes) = (fanout as u32, self.encoded_bytes() / fanout);
        let mut children: Vec<(ArenaWriter, Vec<(u32, ListSpan)>)> = (0..fanout)
            .map(|_| (ArenaWriter::with_capacity(bytes, 0), Vec::with_capacity(self.num_terms())))
            .collect();
        let mut buf = Vec::new();
        for (&term, list) in &self.postings {
            buf.clear();
            list.decode_all(&mut buf);
            for p in &buf {
                let doc = p.doc.0;
                children[(doc % f) as usize].0.push(doc / f, p.tf, self.doc_len[doc as usize]);
            }
            for (arena, lists) in &mut children {
                let span = arena.end_list();
                if !span.is_empty() {
                    lists.push((term, span));
                }
            }
        }
        children
            .into_iter()
            .enumerate()
            .map(|(c, (arena, lists))| {
                let doc_len = self.doc_len.iter().skip(c).step_by(fanout).copied().collect();
                InvertedIndex::from_arena(arena.finish(), lists, doc_len)
            })
            .collect()
    }
}

/// Build an index from a corpus (see [`index_documents`]).
pub fn build_index(corpus: &[Vec<(TermId, u32)>]) -> InvertedIndex {
    index_documents(corpus.iter().map(Vec::as_slice))
}

/// Build an index over documents `0..n`, given in id order as `(term, tf)`
/// vectors whose terms are unique within each document (in any order).
/// The documents are borrowed, and read three times through clones of
/// the iterator.
///
/// Indexing is the "sort" of Section 4, done as a counting sort on term:
/// 1. map each term to a dense slot, count its df, sum each document's
///    length and record every posting's slot;
/// 2. scatter the `(doc, tf)` pairs into one flat array at per-slot
///    offsets, which leaves each slot's run in ascending doc order;
/// 3. encode the runs one after another into one arena.
///
/// # Panics
/// Panics if a tf is 0 ("at least one occurrence") or a document repeats
/// a term ("strictly ascending").
pub fn index_documents<'a, I>(docs: I) -> InvertedIndex
where
    I: IntoIterator<Item = &'a [(TermId, u32)]>,
    I::IntoIter: Clone,
{
    let docs = docs.into_iter();
    let total: usize = docs.clone().map(<[_]>::len).sum();
    // Pass 1: slots, df, lengths.
    let mut slot_of: IdMap<u32> = IdMap::default();
    let (mut terms, mut df) = (Vec::new(), Vec::<u32>::new());
    let mut slots = Vec::with_capacity(total);
    let mut doc_len = Vec::with_capacity(docs.size_hint().0);
    for doc in docs.clone() {
        let mut len = 0u64;
        for &(t, tf) in doc {
            let slot = *slot_of.entry(t.0).or_insert_with(|| {
                terms.push(t.0);
                df.push(0);
                (terms.len() - 1) as u32
            });
            df[slot as usize] += 1;
            slots.push(slot);
            len += u64::from(tf);
        }
        doc_len.push(len as u32);
    }
    drop(slot_of);
    // Pass 2: scatter. `next[s]` walks slot `s`'s run and ends one past it.
    let mut next: Vec<usize> = df
        .iter()
        .scan(0, |at, &n| {
            let start = *at;
            *at += n as usize;
            Some(start)
        })
        .collect();
    let mut runs = vec![(0u32, 0u32); total];
    let mut at = 0;
    for (d, doc) in docs.enumerate() {
        for (&(_, tf), &slot) in doc.iter().zip(&slots[at..at + doc.len()]) {
            let pos = &mut next[slot as usize];
            runs[*pos] = (d as u32, tf);
            *pos += 1;
        }
        at += doc.len();
    }
    drop(slots);
    // Pass 3: encode.
    let blocks = df.iter().map(|&n| (n as usize).div_ceil(BLOCK_LEN)).sum();
    let mut arena = ArenaWriter::with_capacity(total + total / 2 + 2 * blocks, blocks);
    let mut lists = Vec::with_capacity(terms.len());
    for ((&term, &n), &end) in terms.iter().zip(&df).zip(&next) {
        for &(d, tf) in &runs[end - n as usize..end] {
            arena.push(d, tf, doc_len[d as usize]);
        }
        lists.push((term, arena.end_list()));
    }
    drop(runs);
    InvertedIndex::from_arena(arena.finish(), lists, doc_len)
}

/// Merge sub-indexes built over consecutive corpus chunks into one index.
///
/// `parts[i]` must cover documents `[offsets[i], offsets[i] + parts[i].num_docs())`
/// of the final id space, with offsets ascending and contiguous. Each
/// term's list is its parts' lists appended in part order, shifted by
/// each part's offset, into one arena: they are re-encoded rather than
/// copied, because every block but a list's last holds exactly
/// [`BLOCK_LEN`] postings.
pub fn merge_indexes(parts: &[InvertedIndex]) -> InvertedIndex {
    let offsets: Vec<u32> = parts
        .iter()
        .scan(0, |at, part| {
            let start = *at;
            *at += part.num_docs();
            Some(start)
        })
        .collect();
    let bytes = parts.iter().map(InvertedIndex::encoded_bytes).sum();
    let mut arena = ArenaWriter::with_capacity(bytes, 0);
    let mut lists = Vec::new();
    let mut buf = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        for &term in part.postings.keys() {
            // Written with the first part that holds it.
            if parts[..i].iter().any(|earlier| earlier.postings.contains_key(&term)) {
                continue;
            }
            for (later, &offset) in parts[i..].iter().zip(&offsets[i..]) {
                let Some(list) = later.postings.get(&term) else { continue };
                buf.clear();
                list.decode_all(&mut buf);
                for p in &buf {
                    arena.push(p.doc.0 + offset, p.tf, later.doc_len[p.doc.0 as usize]);
                }
            }
            lists.push((term, arena.end_list()));
        }
    }
    let doc_len = parts.iter().flat_map(|part| part.doc_len.iter().copied()).collect();
    InvertedIndex::from_arena(arena.finish(), lists, doc_len)
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

    /// Bitwise equality: the same documents, and for every term the same
    /// encoded bytes, block ladder, df and cf.
    fn index_eq(a: &InvertedIndex, b: &InvertedIndex) -> bool {
        let ladder = |l: &PostingList| -> Vec<(u32, u32, u32)> {
            l.blocks().iter().map(|m| (m.last_doc, m.max_tf, m.min_doc_len)).collect()
        };
        a.doc_len == b.doc_len
            && a.total_tokens == b.total_tokens
            && a.num_terms() == b.num_terms()
            && a.terms().all(|(t, l)| {
                b.postings(t).is_some_and(|lb| {
                    l.encoded()[..] == lb.encoded()[..]
                        && ladder(l) == ladder(lb)
                        && (l.df(), l.cf()) == (lb.df(), lb.cf())
                })
            })
    }

    /// Every list ships exactly the bytes it counts and re-admits as the
    /// same list, and the lists of the index share one arena whose every
    /// byte they count.
    fn assert_honest(idx: &InvertedIndex) {
        let mut arena = None;
        for (_, l) in idx.terms() {
            assert_eq!(l.encoded_bytes(), l.encoded().len());
            let wire = PostingList::from_encoded(l.encoded(), l.df()).expect("a list re-admits");
            assert_eq!(wire.to_vec(), l.to_vec());
            let ladder = |l: &PostingList| -> Vec<(u32, u32)> {
                l.blocks().iter().map(|m| (m.last_doc, m.max_tf)).collect()
            };
            assert_eq!(ladder(&wire), ladder(l));
            assert_eq!(*arena.get_or_insert(l.arena_bytes()), l.arena_bytes(), "one arena");
        }
        assert_eq!(idx.encoded_bytes(), arena.unwrap_or(0));
    }

    #[test]
    #[should_panic(expected = "at least one occurrence")]
    fn build_rejects_a_zero_tf() {
        build_index(&[vec![(TermId(1), 1)], vec![(TermId(1), 0)]]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn build_rejects_a_document_that_repeats_a_term() {
        build_index(&[vec![(TermId(1), 1)], vec![(TermId(4), 1), (TermId(1), 2), (TermId(4), 3)]]);
    }

    /// A corpus whose lists span several blocks, with rare terms beside
    /// them (one child of a split gets none of some).
    fn wide_corpus() -> Vec<Vec<(TermId, u32)>> {
        (0..300u32)
            .map(|i| {
                let mut doc = vec![(TermId(i % 7), 1 + i % 3), (TermId(20 + i % 50), 1 + i % 11)];
                if i % 29 == 0 {
                    doc.push((TermId(1_000 + i), 2));
                }
                doc
            })
            .collect()
    }

    #[test]
    fn split_round_robin_equals_building_the_children() {
        let c = wide_corpus();
        let idx = build_index(&c);
        for fanout in [1, 2, 3] {
            let children = idx.split_round_robin(fanout);
            assert_eq!(children.len(), fanout);
            for (k, child) in children.iter().enumerate() {
                let docs: Vec<_> = c.iter().skip(k).step_by(fanout).cloned().collect();
                assert!(index_eq(child, &build_index(&docs)), "fanout {fanout}, child {k}");
            }
        }
    }

    #[test]
    fn built_split_and_merged_indexes_count_every_arena_byte() {
        let c = wide_corpus();
        let built = build_index(&c);
        assert_honest(&built);
        for child in built.split_round_robin(2) {
            assert_honest(&child);
        }
        assert_honest(&merge_indexes(&[build_index(&c[..111]), build_index(&c[111..])]));
        assert_honest(&build_index(&[]));
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
    fn empty_corpus() {
        let idx = build_index(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
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
