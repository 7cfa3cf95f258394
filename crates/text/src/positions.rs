//! Positional postings and phrase search.
//!
//! Section 5 (communication): "When position information is used for
//! proximity or phrase search, however, the communication overhead
//! between servers increases greatly because it includes both the
//! position of terms and the partially resolved query. In such a case,
//! the position information needs to be compressed efficiently."
//!
//! A positional list is a [`PostingList`] whose tf is the term's number
//! of occurrences in the document, plus a **position sidecar** in the
//! posting list's own codec: one section per block of [`BLOCK_LEN`]
//! postings, holding the block's `Σ tf` positions doc by doc.
//!
//! ```text
//! postings:  the posting format of crate::postings, unchanged
//! positions: |w| Σ tf positions : w bits |w| ...
//!             `------ block 0 ---------' `- block 1
//! ```
//!
//! * a section is a width byte, `1..=32`, then its values packed
//!   LSB-first by the postings' own packer and padded with zero bits to a
//!   byte;
//! * within a doc the first position is stored as is and each later one
//!   as its gap − 1 (positions strictly ascend);
//! * the width is never 0, so every position costs at least one bit: a
//!   section of `n` bytes holds at most `8n` positions, which bounds what
//!   the tfs of a re-admitted list can make
//!   [`PositionalList::from_encoded`] decode or allocate.
//!
//! A [`PositionalIndex`] is the counting-sort [`crate::index`] build of
//! its documents' term frequencies, whose lists each gain a sidecar.
//! [`PositionalIndex::phrase_search`] takes its candidate documents from
//! the conjunctive evaluator's cursor leapfrog and decodes only the
//! sections of the blocks the candidates sit in. The encoded sizes feed
//! the pipelined-engine communication experiment (E13).

use crate::index::index_documents;
use crate::postings::{
    pack, packed_len, padding_set, unpack, width_of, word_padded, DecodeError, Posting,
    PostingCursor, PostingList, BLOCK_LEN,
};
use crate::search::leapfrog;
use crate::token::term_frequencies;
use crate::{DocId, TermId};
use bytes::Bytes;
use dwr_sim::hash::IdMap;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// One positional posting: document plus the ascending token positions at
/// which the term occurs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalPosting {
    /// Document containing the term.
    pub doc: DocId,
    /// Ascending 0-based token positions.
    pub positions: Vec<u32>,
}

/// Decode the section at byte `at` of `data`, the positions of the decoded
/// posting block `block`, appending them to `out`; returns the offset just
/// past the section. On error `out` is left as it was.
fn decode_section(
    data: &[u8],
    at: usize,
    block: &[Posting],
    out: &mut Vec<u32>,
) -> Result<usize, DecodeError> {
    let width = u32::from(*data.get(at).ok_or(DecodeError::Truncated)?);
    if !(1..=32).contains(&width) {
        return Err(DecodeError::OutOfRange);
    }
    // The tfs claim `n` positions of at least one bit each: check them
    // against the bits present before trusting `n` with an allocation.
    let n: u64 = block.iter().map(|p| u64::from(p.tf)).sum();
    if n * u64::from(width) > (data.len() - at - 1) as u64 * 8 {
        return Err(DecodeError::Truncated);
    }
    let (n, end) = (n as usize, at + 1 + packed_len(n as usize, width));
    if padding_set(data, end, n, width) {
        return Err(DecodeError::TrailingBytes);
    }
    let (start, mut short) = (out.len(), [0u8; 8]);
    out.resize(start + n, 0);
    unpack(word_padded(data, &mut short), at + 1, width, &mut out[start..], |slot, v| *slot = v);
    // Each doc's values back to positions: a position is one past the
    // previous one (the doc's first: 0) plus its value. u64, so an
    // overflowing position shows in the doc's last instead of wrapping.
    let mut rest = &mut out[start..];
    for p in block {
        let (doc, tail) = rest.split_at_mut(p.tf as usize);
        let mut next = 0u64;
        for slot in doc {
            next += u64::from(*slot);
            *slot = next as u32;
            next += 1;
        }
        if next > 1 << 32 {
            out.truncate(start);
            return Err(DecodeError::NotAscending);
        }
        rest = tail;
    }
    Ok(end)
}

/// An immutable positional list: a posting list of `(doc, occurrences)`
/// and its position sidecar, with the byte offset of each block's section.
#[derive(Debug, Clone, Default)]
pub struct PositionalList {
    postings: PostingList,
    positions: Bytes,
    sections: Arc<[usize]>,
}

impl PositionalList {
    /// The list of `postings` whose positions are `positions`: each
    /// posting's `tf` of them in turn, strictly ascending.
    fn new(postings: PostingList, positions: &[u32]) -> Self {
        let (mut buf, mut sections, mut all, mut values) = (vec![], vec![], vec![], vec![]);
        postings.view().decode_all(&mut all);
        let mut rest = positions;
        for block in all.chunks(BLOCK_LEN) {
            values.clear();
            for p in block {
                let (doc, tail) = rest.split_at(p.tf as usize);
                values.push(doc[0]);
                values.extend(doc.windows(2).map(|w| w[1] - w[0] - 1));
                rest = tail;
            }
            sections.push(buf.len());
            // At least one bit, even for a section of zeros (see module docs).
            let width = width_of(values.iter().fold(0, |any, &v| any | v)).max(1);
            buf.push(width as u8);
            pack(&mut buf, &values, width);
        }
        PositionalList { postings, positions: Bytes::from(buf), sections: sections.into() }
    }

    /// Document frequency.
    pub fn df(&self) -> u32 {
        self.postings.view().df()
    }

    /// Encoded size in bytes, postings and positions — what shipping this
    /// list between servers costs.
    pub fn encoded_bytes(&self) -> usize {
        self.postings.view().encoded_bytes() + self.positions.len()
    }

    /// The two encoded streams, postings then positions: what
    /// [`PositionalList::from_encoded`] re-admits, with [`Self::df`].
    pub fn encoded(&self) -> (Bytes, Bytes) {
        (self.postings.encoded(), self.positions.clone())
    }

    /// Decode the full list.
    pub fn to_vec(&self) -> Vec<PositionalPosting> {
        let (mut cursor, mut reader) = (self.postings.view().cursor(), PositionReader::default());
        let mut out = Vec::with_capacity(self.df() as usize);
        while cursor.valid() {
            let positions = reader.seek(self, &cursor).to_vec();
            out.push(PositionalPosting { doc: cursor.doc(), positions });
            cursor.next();
        }
        out
    }

    /// Re-admit a list shipped as its two streams and `df`. The posting
    /// stream goes through [`PostingList::from_encoded`]; the position
    /// stream is fully validated by the readers' own section decoder,
    /// against the same [`DecodeError`] set — a width of 0 or above 32
    /// bits, a section cut short, a position past `u32::MAX`, and set
    /// padding or bytes after the last section — before it is trusted.
    pub fn from_encoded(postings: Bytes, df: u32, positions: Bytes) -> Result<Self, DecodeError> {
        let postings = PostingList::from_encoded(postings, df)?;
        let (mut block, mut scratch, mut sections, mut at) = (vec![], vec![], vec![], 0);
        let mut blocks = postings.view().stream();
        loop {
            block.clear();
            if !blocks.append_next(&mut block)? {
                break;
            }
            scratch.clear();
            sections.push(at);
            at = decode_section(&positions, at, &block, &mut scratch)?;
        }
        if at != positions.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(PositionalList { postings, positions, sections: sections.into() })
    }
}

/// The positions of the posting a cursor is on, decoded one section at a
/// time.
#[derive(Default)]
struct PositionReader {
    /// The block whose section `decoded` holds.
    section: Option<usize>,
    decoded: Vec<u32>,
    /// The current posting's range of `decoded`.
    range: Range<usize>,
}

impl PositionReader {
    /// Move to the posting `cursor`, a cursor over `list`'s postings, is
    /// on, and return its positions.
    fn seek(&mut self, list: &PositionalList, cursor: &PostingCursor<'_>) -> &[u32] {
        let (b, block, pos) = cursor.block();
        if self.section != Some(b) {
            self.section = Some(b);
            self.decoded.clear();
            // A corrupt section decodes to nothing: every posting of its
            // block reads as having no positions.
            let _ = decode_section(&list.positions, list.sections[b], block, &mut self.decoded);
        }
        let from: usize = block[..pos].iter().map(|p| p.tf as usize).sum();
        self.range = from..from + block[pos].tf as usize;
        self.positions()
    }

    fn positions(&self) -> &[u32] {
        self.decoded.get(self.range.clone()).unwrap_or_default()
    }
}

/// A positional index over token streams: term → positional list.
#[derive(Debug, Default)]
pub struct PositionalIndex {
    lists: IdMap<u32, PositionalList>,
}

impl PositionalIndex {
    /// Build from documents given as token-id sequences: the postings by
    /// the counting-sort index build of the documents' term frequencies,
    /// the positions by sorting every occurrence on `(term, doc,
    /// position)`, which leaves each term's positions in one run, doc by
    /// doc.
    pub fn build(docs: &[Vec<u32>]) -> Self {
        let ids = |tokens: &Vec<u32>| tokens.iter().map(|&t| TermId(t)).collect::<Vec<_>>();
        let tfs: Vec<_> = docs.iter().map(|tokens| term_frequencies(&ids(tokens))).collect();
        let index = index_documents(tfs.iter().map(Vec::as_slice));
        let mut occurrences: Vec<(u32, u32, u32)> = (0..)
            .zip(docs)
            .flat_map(|(d, tokens)| (0..).zip(tokens).map(move |(pos, &t)| (t, d, pos)))
            .collect();
        occurrences.sort_unstable();
        let positions: Vec<u32> = occurrences.iter().map(|&(_, _, pos)| pos).collect();
        let lists = index.terms().map(|(t, list)| {
            let run = occurrences.partition_point(|&(u, _, _)| u < t.0);
            // The list leaves the index's arena for one of its own.
            let own = PostingList::from_encoded(list.encoded().to_vec().into(), list.df())
                .expect("an index's own list re-admits");
            (t.0, PositionalList::new(own, &positions[run..run + list.cf() as usize]))
        });
        PositionalIndex { lists: lists.collect() }
    }

    /// The positional list of a term.
    pub fn list(&self, term: u32) -> Option<&PositionalList> {
        self.lists.get(&term)
    }

    /// Total encoded bytes of all positional lists.
    pub fn encoded_bytes(&self) -> usize {
        self.lists.values().map(PositionalList::encoded_bytes).sum()
    }

    /// Documents containing the exact phrase (consecutive positions), in
    /// ascending order. Terms keep their phrase order and repeats.
    pub fn phrase_search(&self, phrase: &[u32]) -> Vec<DocId> {
        // The phrase's distinct terms, shortest list first (the
        // leapfrog's driver), and each phrase term's place among them.
        let terms: BTreeSet<u32> = phrase.iter().copied().collect();
        let lists: Option<Vec<_>> = terms.into_iter().map(|t| Some((t, self.list(t)?))).collect();
        let Some(mut lists) = lists else { return Vec::new() };
        lists.sort_by_key(|(_, l)| l.df());
        let slots: Vec<usize> =
            phrase.iter().filter_map(|&t| lists.iter().position(|&(u, _)| u == t)).collect();
        let mut cursors: Vec<_> = lists.iter().map(|(_, l)| l.postings.view().cursor()).collect();
        let mut readers: Vec<_> = lists.iter().map(|_| PositionReader::default()).collect();
        let mut out = Vec::new();
        leapfrog(&mut cursors, |doc, cursors| {
            for ((reader, (_, list)), c) in readers.iter_mut().zip(&lists).zip(cursors) {
                reader.seek(list, c);
            }
            // A start whose `i`-th successor holds the phrase's `i`-th term.
            let at = |i: usize| readers[slots[i]].positions();
            let holds = |i: usize, start: u32| at(i).binary_search(&(start + i as u32)).is_ok();
            if at(0).iter().any(|&start| (1..slots.len()).all(|i| holds(i, start))) {
                out.push(doc);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::PostingListBuilder;

    fn docs() -> Vec<Vec<u32>> {
        vec![
            vec![1, 2, 3, 1, 2], // "a b c a b"
            vec![2, 1, 2, 3],    // "b a b c"
            vec![3, 3, 3],       // "c c c"
            vec![],              // empty
            vec![1, 2],          // "a b"
        ]
    }

    #[test]
    fn roundtrip_positions() {
        let idx = PositionalIndex::build(&docs());
        let l = idx.list(1).expect("term 1 is indexed");
        assert_eq!(l.df(), 3);
        let v = l.to_vec();
        assert_eq!(v[0], PositionalPosting { doc: DocId(0), positions: vec![0, 3] });
        assert_eq!(v[1], PositionalPosting { doc: DocId(1), positions: vec![1] });
        assert_eq!(v[2], PositionalPosting { doc: DocId(4), positions: vec![0] });
    }

    #[test]
    fn phrase_matches_consecutive_only() {
        let idx = PositionalIndex::build(&docs());
        // "a b" (1, 2) occurs in docs 0, 1, 4.
        let hits = idx.phrase_search(&[1, 2]);
        assert_eq!(hits, vec![DocId(0), DocId(1), DocId(4)]);
        // "b c" occurs in docs 0 and 1.
        assert_eq!(idx.phrase_search(&[2, 3]), vec![DocId(0), DocId(1)]);
        // "a c" never consecutive.
        assert!(idx.phrase_search(&[1, 3]).is_empty());
    }

    #[test]
    fn three_term_phrase() {
        let idx = PositionalIndex::build(&docs());
        // "a b c": doc 0 at positions 0..2 and doc 1 ("b a b c") at 1..3.
        assert_eq!(idx.phrase_search(&[1, 2, 3]), vec![DocId(0), DocId(1)]);
        // "b a b" only in doc 1.
        assert_eq!(idx.phrase_search(&[2, 1, 2]), vec![DocId(1)]);
    }

    #[test]
    fn single_term_phrase_is_containment() {
        let idx = PositionalIndex::build(&docs());
        assert_eq!(idx.phrase_search(&[3]), vec![DocId(0), DocId(1), DocId(2)]);
    }

    #[test]
    fn missing_term_empties_phrase() {
        let idx = PositionalIndex::build(&docs());
        assert!(idx.phrase_search(&[1, 99]).is_empty());
        assert!(idx.phrase_search(&[]).is_empty());
    }

    #[test]
    fn repeated_term_runs() {
        let idx = PositionalIndex::build(&docs());
        // "c c" in doc 2 only.
        assert_eq!(idx.phrase_search(&[3, 3]), vec![DocId(2)]);
    }

    #[test]
    fn positional_bytes_exceed_plain_postings() {
        // The communication-cost point of Section 5: positions cost real
        // bytes beyond doc+tf postings.
        let idx = PositionalIndex::build(&docs());
        let tf_docs: Vec<Vec<(crate::TermId, u32)>> = docs()
            .iter()
            .map(|tokens| {
                crate::token::term_frequencies(
                    &tokens.iter().map(|&t| crate::TermId(t)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let plain = crate::index::build_index(&tf_docs);
        assert!(idx.encoded_bytes() > plain.encoded_bytes());
    }

    #[test]
    fn sections_follow_the_posting_blocks() {
        // Term 0 is in 300 documents, so its list is three blocks, and
        // each gets a section; every reader agrees with the streams.
        let docs: Vec<Vec<u32>> = (0..300u32).map(|d| vec![0, 1 + d % 3, 0, 0]).collect();
        let idx = PositionalIndex::build(&docs);
        let l = idx.list(0).expect("term 0 is indexed");
        assert_eq!(l.sections.len(), 3);
        let want: Vec<PositionalPosting> = (0..300)
            .map(|d| PositionalPosting { doc: DocId(d), positions: vec![0, 2, 3] })
            .collect();
        assert_eq!(l.to_vec(), want);
        let (postings, positions) = l.encoded();
        assert_eq!(postings.len() + positions.len(), l.encoded_bytes());
        let wire = PositionalList::from_encoded(postings, l.df(), positions).expect("valid");
        assert_eq!(wire.to_vec(), want);
    }

    #[test]
    fn from_encoded_validates_each_section() {
        // Doc 0 with tf 2.
        let mut b = PostingListBuilder::new();
        b.push(DocId(0), 2);
        let postings = b.finish().encoded();
        let admit = |bytes: Vec<u8>| {
            PositionalList::from_encoded(postings.clone(), 1, Bytes::from(bytes))
                .map(|l| l.to_vec())
        };
        // Positions 3 and 5: 3 as is, then gap − 1 = 1, at 2 bits.
        assert_eq!(admit(vec![2, 0b0111]).expect("valid")[0].positions, [3, 5]);
        // Positions 5 and u32::MAX, at 32 bits.
        let mut wide = vec![32, 5, 0, 0, 0];
        wide.extend((u32::MAX - 6).to_le_bytes());
        assert_eq!(admit(wide).expect("valid")[0].positions, [5, u32::MAX]);
        assert_eq!(admit(vec![0, 0]).err(), Some(DecodeError::OutOfRange));
        assert_eq!(admit(vec![33, 0]).err(), Some(DecodeError::OutOfRange));
        assert_eq!(admit(vec![]).err(), Some(DecodeError::Truncated));
        assert_eq!(admit(vec![9, 0xff]).err(), Some(DecodeError::Truncated));
        assert_eq!(admit(vec![2, 0b1_0111]).err(), Some(DecodeError::TrailingBytes));
        assert_eq!(admit(vec![2, 0b0111, 0]).err(), Some(DecodeError::TrailingBytes));
        // u32::MAX, then one past it.
        let mut wrapped = vec![32];
        wrapped.extend(u32::MAX.to_le_bytes());
        wrapped.extend([0; 4]);
        assert_eq!(admit(wrapped).err(), Some(DecodeError::NotAscending));
    }

    #[test]
    fn a_huge_wire_tf_is_truncated_without_allocating() {
        // A posting that claims 2^31 occurrences, against a sidecar of
        // five bytes: rejected before anything is sized by the claim.
        let mut b = PostingListBuilder::new();
        b.push(DocId(3), 1 << 31);
        let err = PositionalList::from_encoded(b.finish().encoded(), 1, Bytes::from(vec![1; 5]));
        assert_eq!(err.err(), Some(DecodeError::Truncated));
    }
}
