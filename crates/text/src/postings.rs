//! Compressed posting lists in a block-max layout.
//!
//! Each posting is a `(doc, tf)` pair; documents are stored as varint
//! deltas (ascending doc ids) and term frequencies as varints. This is the
//! minimal production layout the paper describes ("each element of a list,
//! a posting, contains in its minimal form the identifier of the document
//! containing the terms (...) often keep more information, such as the
//! number of occurrences").
//!
//! # Block layout
//!
//! On top of the flat varint stream, the list is organized into
//! fixed-size **blocks** of [`BLOCK_LEN`] postings. The byte stream is
//! *identical* to the unblocked encoding (deltas chain across block
//! boundaries); blocks only add per-block metadata on the side:
//!
//! ```text
//! data:   |d0 tf0 d1 tf1 ... d127 tf127|d128 tf128 ...          |...
//!          `------- block 0 ----------' `------ block 1 ------'
//! blocks: [ {offset, last_doc, max_tf, min_doc_len} , {...} , ... ]
//! ```
//!
//! `offset` is the byte position where the block's first delta starts and
//! `last_doc` the doc id of its final posting, so any block can be decoded
//! independently (the delta base of block `b` is `blocks[b-1].last_doc`).
//! `max_tf` and `min_doc_len` dominate every posting in the block for any
//! monotone scorer — [`crate::score::TermScorer::block_upper_bound`] turns them
//! into a per-block score ceiling, the *block-max* metadata that the
//! MaxScore evaluator in [`crate::search`] prunes with.
//!
//! [`PostingCursor`] is the skip-aware access path: `next_geq(target)`
//! consults `last_doc` to hop over whole blocks without decoding them.

use crate::DocId;
use bytes::{BufMut, Bytes, BytesMut};

/// Postings per block. 128 keeps a decoded block (1 KiB of `Posting`)
/// inside L1 while making the metadata overhead ~3% of a dense list.
pub const BLOCK_LEN: usize = 128;

/// One decoded posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
}

/// Why a varint stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended inside a varint (or before `df` postings).
    Truncated,
    /// A varint ran past the 5 bytes a `u32` can occupy, or its fifth
    /// byte carried bits beyond bit 31.
    Overlong,
    /// A doc id does not exceed its predecessor: a zero delta after the
    /// first posting, or a delta that wraps `u32`.
    NotAscending,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "posting data truncated mid-varint"),
            DecodeError::Overlong => write!(f, "varint longer than a u32 permits"),
            DecodeError::NotAscending => write!(f, "doc ids not strictly ascending"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(buf: &mut BytesMut, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode one varint from `data` starting at `*pos`, advancing `*pos`.
///
/// Unlike the pre-hardening version (which panicked on truncation via the
/// buffer and looped past 5 bytes in release builds), corrupt input is a
/// first-class [`DecodeError`] in every build profile.
fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(DecodeError::Truncated);
        };
        *pos += 1;
        if shift == 28 {
            // Fifth byte: must terminate and fit in the 4 bits left.
            if byte & 0xf0 != 0 {
                return Err(DecodeError::Overlong);
            }
            return Ok(v | (u32::from(byte) << 28));
        }
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Per-block metadata: everything a pruning evaluator needs to decide
/// whether a block is worth decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Doc id of the block's last posting (skip key for `next_geq`).
    pub last_doc: u32,
    /// Maximum term frequency within the block.
    pub max_tf: u32,
    /// Minimum token length over the block's documents; `0` when the
    /// builder was not given lengths (the conservative, always-sound
    /// default: BM25 is maximal at length 0).
    pub min_doc_len: u32,
    /// Byte offset of the block's first delta in the encoded stream.
    offset: u32,
}

/// An immutable compressed posting list with block-max metadata.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    data: Bytes,
    /// Document frequency (number of postings).
    df: u32,
    /// Collection frequency (sum of tf over postings).
    cf: u64,
    /// Per-block metadata, one entry per `BLOCK_LEN` postings.
    blocks: Vec<BlockMeta>,
}

impl PostingList {
    /// Document frequency: number of documents in the list.
    pub fn df(&self) -> u32 {
        self.df
    }

    /// Collection frequency: total occurrences across documents.
    pub fn cf(&self) -> u64 {
        self.cf
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.df == 0
    }

    /// Encoded size in bytes (what a broker would ship over the network).
    pub fn encoded_bytes(&self) -> usize {
        self.data.len()
    }

    /// The encoded byte stream itself (cheaply cloned; `Bytes` is
    /// reference counted). Feed it back through
    /// [`PostingList::from_encoded`] to re-admit it after a network hop.
    pub fn encoded(&self) -> Bytes {
        self.data.clone()
    }

    /// The block-max metadata ladder, one entry per [`BLOCK_LEN`]
    /// postings (the last block may be partial).
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Number of postings in block `b` (all blocks are full except
    /// possibly the last).
    pub fn block_len(&self, b: usize) -> usize {
        debug_assert!(b < self.blocks.len());
        if b + 1 == self.blocks.len() {
            self.df as usize - b * BLOCK_LEN
        } else {
            BLOCK_LEN
        }
    }

    /// Iterate over the decoded postings in ascending doc order.
    ///
    /// On corrupt data the iterator stops early; [`PostingIter::error`]
    /// reports why. Lists built by [`PostingListBuilder`] or admitted via
    /// [`PostingList::from_encoded`] never trip this.
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter { data: &self.data[..], pos: 0, prev_doc: 0, remaining: self.df, error: None }
    }

    /// Decode everything into a vector (convenience for tests/merging).
    pub fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }

    /// A block-skipping cursor positioned on the first posting (invalid
    /// for an empty list).
    pub fn cursor(&self) -> PostingCursor<'_> {
        PostingCursor::new(self)
    }

    /// Re-admit a wire-encoded stream (the payload a document broker
    /// ships between sites). The stream is fully validated — truncated or
    /// overlong varints and doc ids that fail to ascend surface as
    /// [`DecodeError`] instead of looping, panicking, or admitting a list
    /// a scan would score twice — and the block-max ladder is rebuilt
    /// locally (document lengths are not on the wire, so `min_doc_len` is
    /// the conservative `0`).
    pub fn from_encoded(data: Bytes, df: u32) -> Result<Self, DecodeError> {
        let mut pos = 0usize;
        let mut prev_doc = 0u32;
        let mut cf = 0u64;
        let mut blocks = Vec::with_capacity((df as usize).div_ceil(BLOCK_LEN));
        let mut cur: Option<BlockMeta> = None;
        let mut in_block = 0usize;
        for i in 0..df {
            let start = pos;
            let delta = get_varint(&data[..], &mut pos)?;
            let tf =
                get_varint(&data[..], &mut pos)?.checked_add(1).ok_or(DecodeError::Overlong)?;
            prev_doc = match i {
                0 => delta,
                _ => prev_doc
                    .checked_add(delta)
                    .filter(|_| delta >= 1)
                    .ok_or(DecodeError::NotAscending)?,
            };
            cf += u64::from(tf);
            let meta = cur.get_or_insert(BlockMeta {
                last_doc: prev_doc,
                max_tf: tf,
                min_doc_len: 0,
                offset: start as u32,
            });
            meta.last_doc = prev_doc;
            meta.max_tf = meta.max_tf.max(tf);
            in_block += 1;
            if in_block == BLOCK_LEN {
                blocks.push(cur.take().expect("block in progress"));
                in_block = 0;
            }
        }
        if let Some(meta) = cur {
            blocks.push(meta);
        }
        Ok(PostingList { data, df, cf, blocks })
    }
}

/// Decoding iterator over a [`PostingList`].
#[derive(Debug)]
pub struct PostingIter<'a> {
    data: &'a [u8],
    pos: usize,
    prev_doc: u32,
    remaining: u32,
    error: Option<DecodeError>,
}

impl PostingIter<'_> {
    /// The decode error that terminated iteration early, if any.
    pub fn error(&self) -> Option<DecodeError> {
        self.error
    }
}

impl Iterator for PostingIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        let decoded = get_varint(self.data, &mut self.pos)
            .and_then(|delta| get_varint(self.data, &mut self.pos).map(|tf| (delta, tf)));
        match decoded {
            Ok((delta, tf)) => {
                self.remaining -= 1;
                self.prev_doc = self.prev_doc.wrapping_add(delta);
                Some(Posting { doc: DocId(self.prev_doc), tf: tf + 1 })
            }
            Err(e) => {
                self.error = Some(e);
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

/// Work counters a [`PostingCursor`] accumulates; the broker aggregates
/// these into the queries/sec experiments (`exp_throughput`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Postings decoded (block decodes count every posting in the block).
    pub postings_decoded: u64,
    /// Blocks decoded.
    pub blocks_decoded: u64,
    /// Blocks hopped over by `next_geq` without decoding.
    pub blocks_skipped: u64,
}

/// A block-skipping cursor over one posting list.
///
/// The cursor is positioned *on* a posting; [`PostingCursor::doc`] /
/// [`PostingCursor::tf`] read it, [`PostingCursor::next`] advances by
/// one, and [`PostingCursor::next_geq`] advances to the first posting
/// with `doc >= target`, decoding only the destination block.
#[derive(Debug)]
pub struct PostingCursor<'a> {
    list: &'a PostingList,
    /// Index of the decoded block.
    block: usize,
    /// Decoded postings of the current block.
    entries: Vec<Posting>,
    /// Position within `entries`.
    pos: usize,
    exhausted: bool,
    stats: CursorStats,
}

impl<'a> PostingCursor<'a> {
    fn new(list: &'a PostingList) -> Self {
        let mut c = PostingCursor {
            list,
            block: 0,
            entries: Vec::new(),
            pos: 0,
            exhausted: list.is_empty(),
            stats: CursorStats::default(),
        };
        if !c.exhausted {
            c.decode_block(0);
        }
        c
    }

    fn decode_block(&mut self, b: usize) {
        let n = self.list.block_len(b);
        let meta = &self.list.blocks[b];
        let mut pos = meta.offset as usize;
        let mut prev = if b == 0 { 0 } else { self.list.blocks[b - 1].last_doc };
        self.entries.clear();
        self.entries.reserve(n);
        for i in 0..n {
            let Ok(delta) = get_varint(&self.list.data[..], &mut pos) else { break };
            let Ok(tf) = get_varint(&self.list.data[..], &mut pos) else { break };
            prev = if b == 0 && i == 0 { delta } else { prev.wrapping_add(delta) };
            self.entries.push(Posting { doc: DocId(prev), tf: tf + 1 });
        }
        self.block = b;
        self.pos = 0;
        self.stats.blocks_decoded += 1;
        self.stats.postings_decoded += self.entries.len() as u64;
        // Corrupt data (impossible for builder-produced lists) shows up
        // as a short block; treat it as end-of-list rather than panicking.
        self.exhausted = self.entries.is_empty();
    }

    /// Whether the cursor is on a posting.
    pub fn valid(&self) -> bool {
        !self.exhausted
    }

    /// Current document.
    ///
    /// # Panics
    /// Panics if the cursor is exhausted.
    pub fn doc(&self) -> DocId {
        debug_assert!(!self.exhausted, "cursor exhausted");
        self.entries[self.pos].doc
    }

    /// Current term frequency.
    pub fn tf(&self) -> u32 {
        debug_assert!(!self.exhausted, "cursor exhausted");
        self.entries[self.pos].tf
    }

    /// Metadata of the block the cursor is in.
    pub fn block_meta(&self) -> &BlockMeta {
        &self.list.blocks[self.block]
    }

    /// Advance one posting; `false` when the list is exhausted.
    ///
    /// Deliberately *not* `Iterator::next`: a DAAT cursor is positional
    /// (`doc()`/`tf()` read the current posting in place, `next_geq`
    /// jumps), which an `Option`-returning iterator cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        self.pos += 1;
        if self.pos < self.entries.len() {
            return true;
        }
        if self.block + 1 < self.list.blocks.len() {
            self.decode_block(self.block + 1);
            !self.exhausted
        } else {
            self.exhausted = true;
            false
        }
    }

    /// Advance to the first posting with `doc >= target` (never moves
    /// backwards); `false` when no such posting exists. Blocks whose
    /// `last_doc < target` are hopped over without decoding.
    pub fn next_geq(&mut self, target: DocId) -> bool {
        if self.exhausted {
            return false;
        }
        if self.entries[self.pos].doc >= target {
            return true;
        }
        let blocks = &self.list.blocks;
        if blocks[self.block].last_doc < target.0 {
            // Hop along the metadata ladder; blocks strictly between the
            // current one and the destination are never decoded.
            let mut b = self.block + 1;
            while b < blocks.len() && blocks[b].last_doc < target.0 {
                b += 1;
            }
            self.stats.blocks_skipped += (b - self.block - 1) as u64;
            if b == blocks.len() {
                self.exhausted = true;
                return false;
            }
            self.decode_block(b);
            if self.exhausted {
                return false;
            }
        }
        // Within the block: binary search from the current position.
        let tail = &self.entries[self.pos..];
        self.pos += tail.partition_point(|p| p.doc < target);
        debug_assert!(self.pos < self.entries.len(), "block last_doc promised a hit");
        self.pos < self.entries.len() || {
            self.exhausted = true;
            false
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

/// Incremental encoder for one term's postings.
///
/// Documents must be appended in strictly ascending order; the first
/// document is encoded as a delta from zero. Block-max metadata is built
/// as postings stream in; [`PostingListBuilder::push_with_len`] threads
/// the document length through so blocks carry a tight `min_doc_len`
/// (plain [`PostingListBuilder::push`] records the sound-but-loose `0`).
#[derive(Debug, Default)]
pub struct PostingListBuilder {
    buf: BytesMut,
    prev_doc: Option<u32>,
    df: u32,
    cf: u64,
    blocks: Vec<BlockMeta>,
    cur: Option<BlockMeta>,
    in_block: usize,
}

impl PostingListBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a posting with an unknown document length (block metadata
    /// then records `min_doc_len = 0`, the loosest sound bound).
    ///
    /// # Panics
    /// Panics if `doc` is not strictly greater than the previous doc, or if
    /// `tf == 0`.
    pub fn push(&mut self, doc: DocId, tf: u32) {
        self.push_with_len(doc, tf, 0);
    }

    /// Append a posting whose document has `doc_len` tokens, tightening
    /// the block's `min_doc_len` (and therefore its block-max score
    /// bound).
    ///
    /// # Panics
    /// Panics if `doc` is not strictly greater than the previous doc, or if
    /// `tf == 0`.
    pub fn push_with_len(&mut self, doc: DocId, tf: u32, doc_len: u32) {
        assert!(tf > 0, "a posting must have at least one occurrence");
        let delta = match self.prev_doc {
            None => doc.0,
            Some(prev) => {
                assert!(
                    doc.0 > prev,
                    "postings must be strictly ascending: {} after {prev}",
                    doc.0
                );
                doc.0 - prev
            }
        };
        let offset = self.buf.len() as u32;
        put_varint(&mut self.buf, delta);
        put_varint(&mut self.buf, tf - 1);
        self.prev_doc = Some(doc.0);
        self.df += 1;
        self.cf += u64::from(tf);
        let meta = self.cur.get_or_insert(BlockMeta {
            last_doc: doc.0,
            max_tf: tf,
            min_doc_len: doc_len,
            offset,
        });
        meta.last_doc = doc.0;
        meta.max_tf = meta.max_tf.max(tf);
        meta.min_doc_len = meta.min_doc_len.min(doc_len);
        self.in_block += 1;
        if self.in_block == BLOCK_LEN {
            self.blocks.push(self.cur.take().expect("block in progress"));
            self.in_block = 0;
        }
    }

    /// Current number of postings.
    pub fn df(&self) -> u32 {
        self.df
    }

    /// Finish encoding.
    pub fn finish(mut self) -> PostingList {
        if let Some(meta) = self.cur.take() {
            self.blocks.push(meta);
        }
        PostingList { data: self.buf.freeze(), df: self.df, cf: self.cf, blocks: self.blocks }
    }
}

/// Merge several posting lists whose doc-id spaces are disjoint and
/// ascending across inputs (the common case when concatenating partition
/// sub-indexes with remapped ids). More general k-way merging for
/// overlapping spaces lives in `index::merge_indexes`.
pub fn concat_lists(lists: &[&PostingList]) -> PostingList {
    let mut b = PostingListBuilder::new();
    for l in lists {
        for p in l.iter() {
            b.push(p.doc, p.tf);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(postings: &[(u32, u32)]) -> Vec<Posting> {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in postings {
            b.push(DocId(d), tf);
        }
        b.finish().to_vec()
    }

    fn list_of(docs: &[u32]) -> PostingList {
        let mut b = PostingListBuilder::new();
        for &d in docs {
            b.push(DocId(d), 1 + d % 3);
        }
        b.finish()
    }

    #[test]
    fn empty_list() {
        let l = PostingListBuilder::new().finish();
        assert!(l.is_empty());
        assert_eq!(l.df(), 0);
        assert_eq!(l.to_vec(), vec![]);
        assert!(l.blocks().is_empty());
        assert!(!l.cursor().valid());
    }

    #[test]
    fn single_posting() {
        let got = roundtrip(&[(0, 1)]);
        assert_eq!(got, vec![Posting { doc: DocId(0), tf: 1 }]);
    }

    #[test]
    fn basic_roundtrip() {
        let input = [(0, 3), (5, 1), (6, 2), (1000, 7), (70_000, 1)];
        let got = roundtrip(&input);
        assert_eq!(got.len(), 5);
        for (p, &(d, tf)) in got.iter().zip(&input) {
            assert_eq!(p.doc, DocId(d));
            assert_eq!(p.tf, tf);
        }
    }

    #[test]
    fn df_cf_tracked() {
        let mut b = PostingListBuilder::new();
        b.push(DocId(1), 2);
        b.push(DocId(9), 5);
        let l = b.finish();
        assert_eq!(l.df(), 2);
        assert_eq!(l.cf(), 7);
    }

    #[test]
    fn large_doc_ids_roundtrip() {
        let input = [(u32::MAX - 10, 1), (u32::MAX - 1, 300_000)];
        let got = roundtrip(&input);
        assert_eq!(got[1].doc, DocId(u32::MAX - 1));
        assert_eq!(got[1].tf, 300_000);
    }

    #[test]
    fn compression_beats_naive_for_dense_lists() {
        let mut b = PostingListBuilder::new();
        for d in 0..10_000u32 {
            b.push(DocId(d), 1);
        }
        let l = b.finish();
        // Naive layout would be 8 bytes/posting; deltas of 1 with tf 1 take 2.
        assert!(l.encoded_bytes() <= 2 * 10_000);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted() {
        let mut b = PostingListBuilder::new();
        b.push(DocId(5), 1);
        b.push(DocId(5), 1);
    }

    #[test]
    #[should_panic(expected = "at least one occurrence")]
    fn rejects_zero_tf() {
        PostingListBuilder::new().push(DocId(0), 0);
    }

    #[test]
    fn concat_disjoint_lists() {
        let mut a = PostingListBuilder::new();
        a.push(DocId(0), 1);
        a.push(DocId(2), 2);
        let mut b = PostingListBuilder::new();
        b.push(DocId(10), 3);
        let merged = concat_lists(&[&a.finish(), &b.finish()]);
        assert_eq!(merged.df(), 3);
        assert_eq!(merged.cf(), 6);
        assert_eq!(merged.to_vec().iter().map(|p| p.doc.0).collect::<Vec<_>>(), vec![0, 2, 10]);
    }

    #[test]
    fn iterator_size_hint_exact() {
        let mut b = PostingListBuilder::new();
        for d in [1u32, 4, 9] {
            b.push(DocId(d), 1);
        }
        let l = b.finish();
        let mut it = l.iter();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
    }

    // ----- block metadata -----

    #[test]
    fn block_metadata_covers_every_posting() {
        let docs: Vec<u32> = (0..1000u32).map(|i| i * 7 + i % 5).collect();
        let mut b = PostingListBuilder::new();
        for (i, &d) in docs.iter().enumerate() {
            b.push_with_len(DocId(d), 1 + (i as u32 % 9), 10 + (i as u32 % 40));
        }
        let l = b.finish();
        assert_eq!(l.blocks().len(), docs.len().div_ceil(BLOCK_LEN));
        let decoded = l.to_vec();
        for (bi, meta) in l.blocks().iter().enumerate() {
            let lo = bi * BLOCK_LEN;
            let hi = (lo + l.block_len(bi)).min(decoded.len());
            let chunk = &decoded[lo..hi];
            assert_eq!(meta.last_doc, chunk.last().unwrap().doc.0);
            assert_eq!(meta.max_tf, chunk.iter().map(|p| p.tf).max().unwrap());
            assert!(chunk.iter().all(|p| p.tf <= meta.max_tf));
        }
    }

    #[test]
    fn min_doc_len_is_min_over_block() {
        let mut b = PostingListBuilder::new();
        b.push_with_len(DocId(0), 1, 30);
        b.push_with_len(DocId(1), 1, 7);
        b.push_with_len(DocId(2), 1, 12);
        let l = b.finish();
        assert_eq!(l.blocks()[0].min_doc_len, 7);
    }

    #[test]
    fn plain_push_records_loose_zero_len() {
        let l = list_of(&[1, 2, 3]);
        assert_eq!(l.blocks()[0].min_doc_len, 0);
    }

    // ----- cursor -----

    #[test]
    fn cursor_walks_whole_list() {
        let docs: Vec<u32> = (0..777u32).map(|i| i * 3).collect();
        let l = list_of(&docs);
        let mut c = l.cursor();
        let mut got = Vec::new();
        while c.valid() {
            got.push((c.doc().0, c.tf()));
            c.next();
        }
        let want: Vec<(u32, u32)> = l.iter().map(|p| (p.doc.0, p.tf)).collect();
        assert_eq!(got, want);
        assert_eq!(c.stats().postings_decoded, docs.len() as u64);
        assert_eq!(c.stats().blocks_skipped, 0);
    }

    #[test]
    fn next_geq_finds_first_at_or_after() {
        let l = list_of(&[2, 5, 9, 14, 20, 33, 47]);
        let mut c = l.cursor();
        assert!(c.next_geq(DocId(0)));
        assert_eq!(c.doc(), DocId(2));
        assert!(c.next_geq(DocId(6)));
        assert_eq!(c.doc(), DocId(9));
        assert!(c.next_geq(DocId(33)));
        assert_eq!(c.doc(), DocId(33));
        assert!(!c.next_geq(DocId(48)), "past the end");
        assert!(!c.valid());
    }

    #[test]
    fn next_geq_skips_whole_blocks_without_decoding() {
        let docs: Vec<u32> = (0..10 * BLOCK_LEN as u32).collect();
        let l = list_of(&docs);
        let mut c = l.cursor();
        // Jump straight into the last block: 8 interior blocks skipped.
        assert!(c.next_geq(DocId(9 * BLOCK_LEN as u32 + 3)));
        assert_eq!(c.doc().0, 9 * BLOCK_LEN as u32 + 3);
        let s = c.stats();
        assert_eq!(s.blocks_skipped, 8);
        assert_eq!(s.blocks_decoded, 2, "first block + destination block");
        assert_eq!(s.postings_decoded, 2 * BLOCK_LEN as u64);
    }

    #[test]
    fn next_geq_never_moves_backwards() {
        let l = list_of(&[2, 5, 9, 14]);
        let mut c = l.cursor();
        assert!(c.next_geq(DocId(9)));
        assert_eq!(c.doc(), DocId(9));
        assert!(c.next_geq(DocId(2)), "earlier target keeps the position");
        assert_eq!(c.doc(), DocId(9));
    }

    // ----- hardened decode -----

    #[test]
    fn truncated_stream_is_an_error_not_a_hang() {
        let good = list_of(&[10, 20, 30, 40]);
        // Chop the tail off the valid encoding: decoding must stop with
        // Truncated (in release builds too), never loop or panic.
        let cut = good.encoded_bytes() - 1;
        let bad = Bytes::from(good.data[..cut].to_vec());
        let err = PostingList::from_encoded(bad, good.df()).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn df_larger_than_stream_is_truncated() {
        let good = list_of(&[1, 2]);
        let err = PostingList::from_encoded(good.data.clone(), good.df() + 5).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn overlong_varint_is_an_error() {
        // Six continuation bytes: a varint no u32 can hold.
        let bad = Bytes::from(vec![0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let err = PostingList::from_encoded(bad, 1).unwrap_err();
        assert_eq!(err, DecodeError::Overlong);
        // Five bytes whose fifth carries bits past bit 31.
        let bad = Bytes::from(vec![0xff, 0xff, 0xff, 0xff, 0x7f, 0x00]);
        let err = PostingList::from_encoded(bad, 1).unwrap_err();
        assert_eq!(err, DecodeError::Overlong);
    }

    #[test]
    fn iterator_stops_cleanly_on_corrupt_payload() {
        let good = list_of(&[100, 200, 300]);
        let cut = good.encoded_bytes() - 1;
        let corrupt = PostingList {
            data: Bytes::from(good.data[..cut].to_vec()),
            df: good.df(),
            cf: good.cf(),
            blocks: good.blocks.clone(),
        };
        let mut it = corrupt.iter();
        let n = it.by_ref().count();
        assert!(n < 3, "the damaged posting is not produced");
        assert_eq!(it.error(), Some(DecodeError::Truncated));
    }

    #[test]
    fn from_encoded_roundtrips_valid_streams() {
        let docs: Vec<u32> = (0..300u32).map(|i| i * 11).collect();
        let l = list_of(&docs);
        let wire = PostingList::from_encoded(l.data.clone(), l.df()).expect("valid stream");
        assert_eq!(wire.cf(), l.cf());
        assert_eq!(wire.to_vec(), l.to_vec());
        assert_eq!(wire.blocks().len(), l.blocks().len());
        for (a, b) in wire.blocks().iter().zip(l.blocks()) {
            assert_eq!(a.last_doc, b.last_doc);
            assert_eq!(a.max_tf, b.max_tf);
            assert_eq!(a.min_doc_len, 0, "lengths are not on the wire");
        }
    }

    #[test]
    fn from_encoded_rejects_doc_ids_that_do_not_ascend() {
        // Doc 5, then a zero delta: doc 5 again, which a DAAT scan
        // would score twice.
        let repeated = Bytes::from(vec![5, 0, 0, 0]);
        assert_eq!(PostingList::from_encoded(repeated, 2).err(), Some(DecodeError::NotAscending));
        // Doc u32::MAX, then a delta of 2 wrapping to doc 1.
        let wrapped = Bytes::from(vec![0xff, 0xff, 0xff, 0xff, 0x0f, 0, 2, 0]);
        assert_eq!(PostingList::from_encoded(wrapped, 2).err(), Some(DecodeError::NotAscending));
        // A first posting at doc 0 is a zero delta from nothing: valid.
        let from_zero = Bytes::from(vec![0, 0, 1, 0]);
        let docs: Vec<u32> = PostingList::from_encoded(from_zero, 2)
            .expect("ascending")
            .iter()
            .map(|p| p.doc.0)
            .collect();
        assert_eq!(docs, [0, 1]);
    }

    #[test]
    fn five_byte_varint_at_u32_max_roundtrips() {
        let mut b = PostingListBuilder::new();
        b.push(DocId(u32::MAX), 1);
        let l = b.finish();
        assert_eq!(l.to_vec()[0].doc, DocId(u32::MAX));
        let wire = PostingList::from_encoded(l.data.clone(), 1).expect("valid");
        assert_eq!(wire.to_vec()[0].doc, DocId(u32::MAX));
    }

    #[test]
    fn five_byte_varint_opens_a_block() {
        // Block 0 is all one-byte varints; block 1 starts with a
        // five-byte delta and returns to one byte for its tf and
        // everything after.
        let mut docs: Vec<u32> = (0..BLOCK_LEN as u32).collect();
        docs.extend([u32::MAX - 9, u32::MAX - 8, u32::MAX]);
        let l = list_of(&docs);
        assert_eq!(l.blocks().len(), 2);
        assert_eq!(l.encoded_bytes(), 2 * BLOCK_LEN + 6 + 2 + 2);
        let via_iter: Vec<u32> = l.iter().map(|p| p.doc.0).collect();
        assert_eq!(via_iter, docs);
        let mut c = l.cursor();
        let mut walked = Vec::new();
        while c.valid() {
            walked.push(c.doc().0);
            c.next();
        }
        assert_eq!(walked, docs);
        let mut c = l.cursor();
        assert!(c.next_geq(DocId(u32::MAX - 8)));
        assert_eq!((c.doc(), c.tf()), (DocId(u32::MAX - 8), 1 + (u32::MAX - 8) % 3));
        let wire = PostingList::from_encoded(l.encoded(), l.df()).expect("valid");
        assert_eq!(wire.to_vec(), l.to_vec());
    }
}
