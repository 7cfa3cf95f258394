//! Inverted-index construction: counting-sort builds, round-robin splits,
//! merges.
//!
//! Section 4 frames indexing as "a 'sort' operation on a set of records
//! representing term occurrences" and points at sort-based \[14\] and
//! single-pass \[15\] construction, pipelined distributed builds \[25\], and
//! map-reduce \[26\]. This module provides the local building blocks, all
//! of which write an index's lists back to back into one arena (see
//! [`crate::postings`]), in ascending term id:
//!
//! * [`build_index`] / [`index_documents`] — a counting sort of the
//!   postings on term, then one encode pass;
//! * [`InvertedIndex::split_round_robin`] — children of an index filtered
//!   out of its lists, never re-read from documents;
//! * [`merge_indexes`] — sub-indexes over consecutive doc-id ranges
//!   appended into one, the primitive behind distributed construction.
//!
//! One order means one image: a split child, and a merge of consecutive
//! chunks, equal [`build_index`] of their documents byte for byte, arena
//! and directory included (`InvertedIndex`'s `==`).
//!
//! The parallel build is `dwr-partition`'s: `PartitionedIndex` builds its
//! shards on scoped workers.

use crate::postings::{Arena, ArenaWriter, ListEntry, ListView, BLOCK_LEN};
use crate::{DocId, TermId};

/// An immutable inverted index over documents `0..num_docs`.
///
/// Its lists sit in one arena in ascending term id, and a flat term
/// directory indexed by term id says where: [`TermId`]s are dense, so
/// the directory has one 16-byte entry per id up to the largest indexed
/// one, and looking a term up is one bounds-checked load. Two indexes
/// are `==` when their arenas, directories and document lengths are,
/// byte for byte.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InvertedIndex {
    arena: Arena,
    /// `dir[t]`: where term `t`'s list sits in `arena`; the zero entry
    /// when `t` has no posting. The last entry is a present term's.
    dir: Vec<ListEntry>,
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
        self.dir.iter().filter(|e| e.df > 0).count()
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

    /// The posting list of a term, if present (never an empty list): one
    /// bounds-checked load of the directory, and a view that takes no
    /// reference count.
    #[inline]
    pub fn postings(&self, term: TermId) -> Option<ListView<'_>> {
        let entry = *self.dir.get(term.0 as usize)?;
        (entry.df > 0).then(|| self.arena.view(entry))
    }

    /// Document frequency of a term (0 when absent).
    #[inline]
    pub fn df(&self, term: TermId) -> u32 {
        self.dir.get(term.0 as usize).map_or(0, |e| e.df)
    }

    /// Collection frequency of a term (0 when absent). The directory does
    /// not hold it: this decodes the list.
    pub fn cf(&self, term: TermId) -> u64 {
        self.postings(term).map_or(0, |l| l.cf())
    }

    /// Iterate over `(term, posting list)` pairs in ascending term id.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, ListView<'_>)> {
        (0..)
            .zip(&self.dir)
            .filter(|(_, e)| e.df > 0)
            .map(|(t, &e)| (TermId(t), self.arena.view(e)))
    }

    /// Total encoded size of all posting lists, in bytes: the arena's.
    pub fn encoded_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Assemble an index from its frozen arena, its directory and the
    /// document lengths. The directory loses its trailing absent terms,
    /// so equal lists make equal directories whatever the writer was
    /// sized for.
    fn from_arena(arena: Arena, mut dir: Vec<ListEntry>, doc_len: Vec<u32>) -> Self {
        while dir.last().is_some_and(|e| e.df == 0) {
            dir.pop();
        }
        let total_tokens = doc_len.iter().map(|&len| u64::from(len)).sum();
        InvertedIndex { arena, dir, doc_len, total_tokens }
    }

    /// Split the index round-robin into `fanout` children: child `c`
    /// holds local documents `c, c + fanout, c + 2·fanout, …`, renumbered
    /// `0, 1, 2, …`. That renumbering is monotone, so each child's list of
    /// a term is the parent's list filtered to `doc % fanout == c` with
    /// `doc / fanout` as the new id, and each document keeps its length:
    /// every child is, byte for byte, the index [`build_index`] gives its
    /// documents, yet no document is read. Each parent list is decoded
    /// once, in ascending term id, and streamed into the children's
    /// arenas; a term a child has no document of is not in that child.
    ///
    /// # Panics
    /// Panics if `fanout == 0`.
    pub fn split_round_robin(&self, fanout: usize) -> Vec<InvertedIndex> {
        assert!(fanout > 0, "a split needs at least one child");
        let (f, bytes) = (fanout as u32, self.encoded_bytes() / fanout);
        let mut children: Vec<(ArenaWriter, Vec<ListEntry>)> = (0..fanout)
            .map(|_| {
                let dir = vec![ListEntry::default(); self.dir.len()];
                (ArenaWriter::with_capacity(bytes, 0), dir)
            })
            .collect();
        let mut buf = Vec::new();
        for (term, list) in self.terms() {
            buf.clear();
            list.decode_all(&mut buf);
            for p in &buf {
                let doc = p.doc.0;
                children[(doc % f) as usize].0.push(doc / f, p.tf);
            }
            for (arena, dir) in &mut children {
                dir[term.0 as usize] = arena.end_list();
            }
        }
        children
            .into_iter()
            .enumerate()
            .map(|(c, (arena, dir))| {
                let doc_len = self.doc_len.iter().skip(c).step_by(fanout).copied().collect();
                InvertedIndex::from_arena(arena.finish(), dir, doc_len)
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
/// The documents are borrowed, and read twice through clones of the
/// iterator.
///
/// Indexing is the "sort" of Section 4, done as a counting sort on term.
/// Term ids are dense (see [`TermId`]), so they index the counts
/// directly:
/// 1. count each term's df and sum each document's length;
/// 2. scatter the `(doc, tf)` pairs into one flat array at per-term
///    offsets, in ascending term id, which leaves each term's run in
///    ascending doc order;
/// 3. encode the runs one after another into one arena, filling the term
///    directory as they close.
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
    // Pass 1: df by term id, lengths.
    let mut df = Vec::<u32>::new();
    let mut doc_len = Vec::with_capacity(docs.size_hint().0);
    let mut total = 0;
    for doc in docs.clone() {
        let mut len = 0u64;
        for &(t, tf) in doc {
            let t = t.0 as usize;
            if t >= df.len() {
                df.resize(t + 1, 0);
            }
            df[t] += 1;
            len += u64::from(tf);
        }
        total += doc.len();
        doc_len.push(len as u32);
    }
    // Pass 2: scatter. `next[t]` walks term `t`'s run and ends one past it.
    let mut next: Vec<usize> = df
        .iter()
        .scan(0, |at, &n| {
            let start = *at;
            *at += n as usize;
            Some(start)
        })
        .collect();
    let mut runs = vec![(0u32, 0u32); total];
    for (d, doc) in docs.enumerate() {
        for &(t, tf) in doc {
            let pos = &mut next[t.0 as usize];
            runs[*pos] = (d as u32, tf);
            *pos += 1;
        }
    }
    // Pass 3: encode.
    let blocks = df.iter().map(|&n| (n as usize).div_ceil(BLOCK_LEN)).sum();
    let mut arena = ArenaWriter::with_capacity(total + total / 2 + 2 * blocks, blocks);
    let dir = df
        .iter()
        .zip(&next)
        .map(|(&n, &end)| {
            for &(d, tf) in &runs[end - n as usize..end] {
                arena.push(d, tf);
            }
            arena.end_list()
        })
        .collect();
    drop(runs);
    InvertedIndex::from_arena(arena.finish(), dir, doc_len)
}

/// Merge sub-indexes built over consecutive corpus chunks into one index.
///
/// `parts[i]` must cover documents `[offsets[i], offsets[i] + parts[i].num_docs())`
/// of the final id space, with offsets ascending and contiguous. Each
/// term's list, in ascending term id, is its parts' lists appended in
/// part order, shifted by each part's offset, into one arena: they are
/// re-encoded rather than copied, because every block but a list's last
/// holds exactly [`BLOCK_LEN`] postings. The merge is byte for byte
/// [`build_index`] of the whole corpus.
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
    let terms = parts.iter().map(|part| part.dir.len()).max().unwrap_or(0);
    let mut arena = ArenaWriter::with_capacity(bytes, 0);
    let mut buf = Vec::new();
    let dir = (0..terms as u32)
        .map(|t| {
            for (part, &offset) in parts.iter().zip(&offsets) {
                let Some(list) = part.postings(TermId(t)) else { continue };
                buf.clear();
                list.decode_all(&mut buf);
                for p in &buf {
                    arena.push(p.doc.0 + offset, p.tf);
                }
            }
            arena.end_list()
        })
        .collect();
    let doc_len = parts.iter().flat_map(|part| part.doc_len.iter().copied()).collect();
    InvertedIndex::from_arena(arena.finish(), dir, doc_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::PostingList;

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
        // First appearance is 1, 3, 2, 9; every writer goes by id.
        assert_eq!(idx.terms().map(|(t, _)| t.0).collect::<Vec<_>>(), [1, 2, 3, 9]);
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

    /// Every list ships exactly the bytes it counts and re-admits as the
    /// same list with the same `last_doc` skip keys, and the lists, back
    /// to back in ascending term id, count every byte of the arena.
    fn assert_honest(idx: &InvertedIndex) {
        let keys = |l: ListView<'_>| l.blocks().iter().map(|m| m.last_doc).collect::<Vec<_>>();
        let (mut end, mut total) = (None, 0);
        for (_, l) in idx.terms() {
            let bytes = l.encoded().as_ptr_range();
            assert!(end.is_none_or(|e| e == bytes.start), "lists sit back to back");
            (end, total) = (Some(bytes.end), total + l.encoded_bytes());
            let wire = PostingList::from_encoded(l.encoded().to_vec().into(), l.df())
                .expect("a list re-admits");
            assert_eq!(wire.view().to_vec(), l.to_vec());
            assert_eq!(keys(wire.view()), keys(l));
        }
        assert_eq!(total, idx.encoded_bytes());
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
                assert_eq!(child, &build_index(&docs), "fanout {fanout}, child {k}");
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
        assert_eq!(merge_indexes(&[p1, p2]), build_index(&c));
    }

    #[test]
    fn empty_corpus() {
        let idx = build_index(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
    }

    #[test]
    fn merge_of_empty_parts() {
        let merged = merge_indexes(&[build_index(&[]), build_index(&corpus())]);
        assert_eq!(merged, build_index(&corpus()));
    }
}
