//! Compressed posting lists in a blocked, frame-of-reference layout.
//!
//! Each posting is a `(doc, tf)` pair, the minimal production layout the
//! paper describes ("each element of a list, a posting, contains in its
//! minimal form the identifier of the document containing the terms (...)
//! often keep more information, such as the number of occurrences").
//!
//! # Block layout
//!
//! The list is cut into fixed-size **blocks** of [`BLOCK_LEN`] postings
//! (the last may be partial), and each block is bit-packed on its own with
//! one width for its doc gaps and one for its term frequencies:
//!
//! ```text
//! data:   |gw tw| n × (gap−1) : gw bits | n × (tf−1) : tw bits |gw tw| ...
//!          `---------------------- block 0 --------------------' `- block 1
//! blocks: [ {last_doc, offset} , {...} , ... ]
//! ```
//!
//! * a 2-byte header holds the two widths in bits, each `0..=32`;
//! * doc ids strictly ascend, so every gap is at least 1 and is stored
//!   minus one; the list's first doc is its gap from a virtual predecessor
//!   −1, i.e. the doc id itself;
//! * values are packed LSB-first, and each of the two sections is padded
//!   with zero bits to a whole byte.
//!
//! A dense block whose postings all have tf 1 therefore costs its two
//! header bytes. Every byte of the format, headers included, is in `data`
//! and counted by [`ListView::encoded_bytes`]; the `blocks` sidecar
//! holds only what [`PostingList::from_encoded`] rebuilds from `data`.
//!
//! `offset` is the byte position of the block's header and `last_doc` the
//! doc id of its final posting, so any block decodes independently (the
//! gap base of block `b` is `blocks[b-1].last_doc`). The ladder holds
//! no score bounds: the ranked evaluators in [`crate::search`] read every
//! posting (see DESIGN.md §8 for why pruning did not pay).
//!
//! One block decoder serves every reader — [`PostingCursor`],
//! [`PostingIter`], the evaluators and the validation in
//! [`PostingList::from_encoded`] — so what validation admits is exactly
//! what the readers decode. A reader that decodes every block takes each
//! from where the one before it ended, without touching the ladder. Its
//! packer and unpacker also carry the positional lists' position sidecar
//! ([`crate::positions`]).
//! [`PostingCursor`] is the skip-aware access path: `next_geq(target)`
//! consults `last_doc` to hop over whole blocks without decoding them.
//!
//! # Arenas
//!
//! Lists live in an **arena**: written back to back into one byte buffer
//! and one block ladder, so a whole index is three allocations — its
//! bytes, its ladder and its term directory — rather than three per term.
//! One writer fills every arena — the crate-private `ArenaWriter`, which
//! index builds, splits and merges drive one list at a time, and which
//! [`PostingListBuilder`] wraps as an arena of one list. A list's bytes
//! are the contiguous range from its start to its end, exactly what
//! [`ListView::encoded`] returns and [`ListView::encoded_bytes`] counts.
//!
//! Every read goes through a [`ListView`]: a borrowed, `Copy` view of one
//! list in its arena. An index hands one out per term from its directory
//! (see [`crate::index`]); a [`PostingList`], the list that stands alone
//! after [`PostingList::from_encoded`] or [`PostingListBuilder::finish`],
//! owns its arena of one and lends the same view.

use crate::DocId;
use bytes::Bytes;
use std::sync::Arc;

/// Postings per block. 128 keeps a decoded block (1 KiB of `Posting`)
/// inside L1 while making the metadata overhead ~3% of a dense list, and,
/// being a multiple of 8, leaves every full block's sections unpadded.
pub const BLOCK_LEN: usize = 128;

/// One decoded posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document.
    pub tf: u32,
}

/// Why an encoded posting stream (or a positional list's position
/// sidecar, see [`crate::positions`]) failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended inside a block header or its packed values (or
    /// before `df` postings, or before a block's `Σ tf` positions).
    Truncated,
    /// A block header declares a width above 32 bits (or a position block
    /// a width of 0), or a packed `tf − 1` is `u32::MAX` (no `u32` tf is
    /// one more than that).
    OutOfRange,
    /// A doc id or a position overflows `u32`: a block's gaps carry it
    /// past `u32::MAX`.
    NotAscending,
    /// The stream continues past its `df`-th posting (or a block's last
    /// position): bytes after the last block, or set padding bits.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "posting data truncated inside a block"),
            DecodeError::OutOfRange => write!(f, "block width above 32 bits or tf out of range"),
            DecodeError::NotAscending => write!(f, "doc ids not strictly ascending"),
            DecodeError::TrailingBytes => write!(f, "posting data continues past the last posting"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Bytes that `n` values of `width` bits occupy once padded to a byte.
pub(crate) fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Bits needed for the largest of the values OR-ed into `any`.
pub(crate) fn width_of(any: u32) -> u32 {
    u32::BITS - any.leading_zeros()
}

/// Whether the padding after `n` values of `width` bits, in the byte
/// before `section_end`, has a bit set.
pub(crate) fn padding_set(data: &[u8], section_end: usize, n: usize, width: u32) -> bool {
    let used = (n * width as usize) % 8;
    used != 0 && data[section_end - 1] >> used != 0
}

/// `data`, or, when it is shorter than the one word [`unpack`] reads at a
/// time, a copy of it in `short`, zero-padded to that word.
#[inline(always)]
pub(crate) fn word_padded<'a>(data: &'a [u8], short: &'a mut [u8; 8]) -> &'a [u8] {
    if data.len() >= 8 {
        return data;
    }
    short[..data.len()].copy_from_slice(data);
    short
}

/// Hands `f` each slot of `out` with the next of `out.len()` values of
/// `width` bits, packed LSB-first from byte `at` of `data` (at least 8
/// bytes long; see [`word_padded`]).
#[inline(always)]
pub(crate) fn unpack<T>(
    data: &[u8],
    at: usize,
    width: u32,
    out: &mut [T],
    f: impl FnMut(&mut T, u32),
) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_width::<$w, T>(data, at, out, f),)*
                _ => unreachable!("block widths are checked against 32"),
            }
        };
    }
    by_width!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
}

/// [`unpack`] at a width known at compile time. Eight values fill exactly
/// `W` bytes, so inside a group of eight every value's byte offset and
/// shift are constants, and its little-endian word is read from a
/// `W + 8`-byte window checked once per group. The values left over — a
/// partial group, or groups whose window would run past the end of `data`
/// — are read one at a time, near the end from the last word of `data`.
/// A zero-width section reads nothing.
fn unpack_width<const W: usize, T>(
    data: &[u8],
    at: usize,
    block: &mut [T],
    mut f: impl FnMut(&mut T, u32),
) {
    if W == 0 {
        return block.iter_mut().for_each(|p| f(p, 0));
    }
    let mask = (1u64 << W) - 1;
    let word = |bytes: &[u8], at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte window"))
    };
    let groups = (data.len() - 8).saturating_sub(at) / W;
    let (head, tail) = block.split_at_mut((groups * 8).min(block.len() / 8 * 8));
    for (g, group) in head.chunks_exact_mut(8).enumerate() {
        let window = &data[at + g * W..at + g * W + W + 8];
        for (j, p) in group.iter_mut().enumerate() {
            f(p, ((word(window, j * W / 8) >> (j * W % 8)) & mask) as u32);
        }
    }
    let last = data.len() - 8;
    for (i, p) in tail.iter_mut().enumerate() {
        let bit = at * 8 + (head.len() + i) * W;
        let from = (bit / 8).min(last);
        f(p, ((word(data, from) >> (bit - from * 8)) & mask) as u32);
    }
}

/// Decode the block of `n` postings whose header sits at `offset`,
/// appending them to `out`; `prev` is the last doc before the block
/// (`None` for the first block: the virtual predecessor −1). Returns the
/// offset just past the block.
///
/// Values are unpacked straight into `out`, docs first, then tfs. Bounds
/// are checked once per block, before the first value; doc-id overflow
/// once, on the last doc (every gap is at least 1, so it bounds the rest);
/// tf overflow only where a 32-bit tf field can hold `u32::MAX`. On error
/// `out` is left as it was.
fn decode_block(
    data: &[u8],
    offset: usize,
    n: usize,
    prev: Option<u32>,
    out: &mut Vec<Posting>,
) -> Result<usize, DecodeError> {
    debug_assert!((1..=BLOCK_LEN).contains(&n), "a block holds 1..=BLOCK_LEN postings");
    let Some(&[gw, tw]) = data.get(offset..offset + 2) else {
        return Err(DecodeError::Truncated);
    };
    let (gw, tw) = (u32::from(gw), u32::from(tw));
    if gw > 32 || tw > 32 {
        return Err(DecodeError::OutOfRange);
    }
    let gaps_at = offset + 2;
    let tfs_at = gaps_at + packed_len(n, gw);
    let end = tfs_at + packed_len(n, tw);
    if end > data.len() {
        return Err(DecodeError::Truncated);
    }
    if padding_set(data, tfs_at, n, gw) || padding_set(data, end, n, tw) {
        return Err(DecodeError::TrailingBytes);
    }
    let mut short = [0u8; 8];
    let data = word_padded(data, &mut short);
    // Both passes write in place; tf 1 is what a zero-width tf section
    // holds, so that pass is skipped.
    let start = out.len();
    out.resize(start + n, Posting { doc: DocId(0), tf: 1 });
    let block = &mut out[start..];
    // One past the last doc so far; u64, so an overflowing gap shows in
    // the last doc instead of wrapping.
    let mut next = prev.map_or(0, |p| u64::from(p) + 1);
    unpack(data, gaps_at, gw, block, |p, gap_minus_one| {
        next += u64::from(gap_minus_one) + 1;
        p.doc = DocId((next - 1) as u32);
    });
    if tw > 0 {
        unpack(data, tfs_at, tw, block, |p, tf_minus_one| p.tf = tf_minus_one.wrapping_add(1));
    }
    if next > 1 << 32 {
        out.truncate(start);
        return Err(DecodeError::NotAscending);
    }
    if tw == 32 && out[start..].iter().any(|p| p.tf == 0) {
        out.truncate(start);
        return Err(DecodeError::OutOfRange);
    }
    Ok(end)
}

/// One rung of the block ladder: where a block starts and the doc id it
/// ends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Doc id of the block's last posting (skip key for `next_geq`).
    pub last_doc: u32,
    /// Byte offset of the block's header in the arena's buffer.
    offset: u32,
}

/// A borrowed, `Copy` view of one posting list in an arena (see the
/// [module docs](self)): what an index hands out per term, and what every
/// reader — [`PostingIter`], [`PostingCursor`] and the evaluators in
/// [`crate::search`] — decodes through. Taking one touches no reference
/// count.
#[derive(Debug, Clone, Copy)]
pub struct ListView<'a> {
    /// The arena's bytes up to this list's end, so no block can read past
    /// its own list.
    data: &'a [u8],
    /// This list's rungs of the arena's ladder.
    blocks: &'a [BlockMeta],
    /// Byte position of the list's first block.
    start: u32,
    /// Document frequency (number of postings).
    df: u32,
}

impl<'a> ListView<'a> {
    /// Document frequency: number of documents in the list.
    pub fn df(&self) -> u32 {
        self.df
    }

    /// Collection frequency: total occurrences across documents. Not
    /// stored: this decodes the list.
    pub fn cf(&self) -> u64 {
        self.iter().map(|p| u64::from(p.tf)).sum()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.df == 0
    }

    /// Encoded size in bytes (what a broker would ship over the network).
    pub fn encoded_bytes(&self) -> usize {
        self.encoded().len()
    }

    /// The encoded byte stream itself: this list's range of its arena.
    /// Feed it back through [`PostingList::from_encoded`] to re-admit it
    /// after a network hop.
    pub fn encoded(&self) -> &'a [u8] {
        &self.data[self.start as usize..]
    }

    /// The block ladder, one entry per [`BLOCK_LEN`] postings (the last
    /// block may be partial).
    pub fn blocks(&self) -> &'a [BlockMeta] {
        self.blocks
    }

    /// Number of postings in block `b` (all blocks are full except
    /// possibly the last).
    fn block_len(&self, b: usize) -> usize {
        debug_assert!(b < self.blocks.len());
        (self.df as usize - b * BLOCK_LEN).min(BLOCK_LEN)
    }

    /// Decode block `b`, appending its postings to `out` (nothing on
    /// corrupt data). Block 0 starts at the list's start and decodes
    /// without reading the ladder.
    pub(crate) fn decode_into(&self, b: usize, out: &mut Vec<Posting>) -> Result<(), DecodeError> {
        let (offset, prev) = match b.checked_sub(1) {
            None => (self.start, None),
            Some(p) => (self.blocks[b].offset, Some(self.blocks[p].last_doc)),
        };
        decode_block(self.data, offset as usize, self.block_len(b), prev, out).map(drop)
    }

    /// The list's blocks in order, for the readers that decode them all.
    pub(crate) fn stream(&self) -> BlockStream<'a> {
        BlockStream { data: self.data, at: self.start as usize, prev: None, left: self.df as usize }
    }

    /// Decode the whole list, appending it to `out`: the one read the
    /// write side makes of an index's own lists, which its writers
    /// produced and which therefore decode.
    pub(crate) fn decode_all(&self, out: &mut Vec<Posting>) {
        let mut blocks = self.stream();
        while blocks.append_next(out).expect("an index's own list decodes") {}
    }

    /// Iterate over the decoded postings in ascending doc order.
    ///
    /// On corrupt data the iterator stops early; [`PostingIter::error`]
    /// reports why. Lists built by [`PostingListBuilder`] or admitted via
    /// [`PostingList::from_encoded`] never trip this.
    pub fn iter(&self) -> PostingIter<'a> {
        PostingIter {
            blocks: self.stream(),
            buf: Vec::new(),
            pos: 0,
            remaining: self.df,
            error: None,
        }
    }

    /// Decode everything into a vector (convenience for tests/merging).
    pub fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }

    /// A block-skipping cursor positioned on the first posting (invalid
    /// for an empty list).
    pub fn cursor(&self) -> PostingCursor<'a> {
        PostingCursor::new(*self)
    }
}

/// A list's blocks decoded front to back, each from where the one before
/// it ended and with that block's last doc as its gap base: a sequential
/// read never touches the ladder.
#[derive(Debug, Clone)]
pub(crate) struct BlockStream<'a> {
    data: &'a [u8],
    /// Byte position of the next block's header.
    at: usize,
    /// The last doc decoded so far.
    prev: Option<u32>,
    /// Postings not yet decoded.
    left: usize,
}

impl BlockStream<'_> {
    /// Decode the next block, appending its postings to `out`;
    /// `Ok(false)` when the list is done.
    pub(crate) fn append_next(&mut self, out: &mut Vec<Posting>) -> Result<bool, DecodeError> {
        if self.left == 0 {
            return Ok(false);
        }
        let n = self.left.min(BLOCK_LEN);
        self.at = decode_block(self.data, self.at, n, self.prev, out)?;
        self.prev = out.last().map(|p| p.doc.0);
        self.left -= n;
        Ok(true)
    }
}

/// A posting list that stands alone: an arena of one list, whose bytes
/// and ladder it owns, read through its [`ListView`]. It is what
/// [`PostingListBuilder`] finishes and [`PostingList::from_encoded`]
/// admits; an index's lists are views into the index's arena instead.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    data: Bytes,
    ladder: Arc<[BlockMeta]>,
    df: u32,
}

impl PostingList {
    /// The list, to read.
    pub fn view(&self) -> ListView<'_> {
        ListView { data: &self.data, blocks: &self.ladder, start: 0, df: self.df }
    }

    /// The encoded byte stream, shared: the whole of the list's own arena.
    pub fn encoded(&self) -> Bytes {
        self.data.clone()
    }

    /// Re-admit a wire-encoded stream of exactly `df` postings (the
    /// payload a document broker ships between sites). The stream is fully
    /// validated by the readers' own block decoder — a block cut short, a
    /// width above 32 bits or a tf field that cannot be `tf − 1`, doc ids
    /// that overflow `u32`, and anything after the `df`-th posting surface
    /// as [`DecodeError`] instead of panicking or admitting a list a scan
    /// would answer wrongly — and the block ladder is rebuilt locally,
    /// entry for entry the one the writer filed. A block of zero-width
    /// sections (consecutive docs, every tf 1) stores no count of its own;
    /// there `df` alone says how many postings it holds.
    pub fn from_encoded(data: Bytes, df: u32) -> Result<Self, DecodeError> {
        let total = df as usize;
        // Every block costs at least its header: bound the ladder by the
        // stream before trusting `df` with an allocation.
        let mut ladder = Vec::with_capacity(total.div_ceil(BLOCK_LEN).min(data.len() / 2));
        let mut block = Vec::with_capacity(total.min(BLOCK_LEN));
        let mut blocks = BlockStream { data: &data, at: 0, prev: None, left: total };
        loop {
            let offset = arena_offset(blocks.at);
            block.clear();
            if !blocks.append_next(&mut block)? {
                break;
            }
            let last_doc = blocks.prev.expect("a decoded block is non-empty");
            ladder.push(BlockMeta { last_doc, offset });
        }
        if blocks.at != data.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(PostingList { data, ladder: ladder.into(), df })
    }
}

/// Decoding iterator over a [`ListView`], one block at a time.
#[derive(Debug)]
pub struct PostingIter<'a> {
    blocks: BlockStream<'a>,
    /// Decoded postings of the current block.
    buf: Vec<Posting>,
    /// Position within `buf`.
    pos: usize,
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
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let done @ (Ok(false) | Err(_)) = self.blocks.append_next(&mut self.buf) {
                self.error = done.err();
                self.remaining = 0;
                return None;
            }
        }
        let p = self.buf[self.pos];
        self.pos += 1;
        self.remaining -= 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

/// A [`PostingCursor`]'s own work counters: what it decoded and what
/// `next_geq` hopped over, as the skip tests read them.
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
    list: ListView<'a>,
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
    fn new(list: ListView<'a>) -> Self {
        let mut c = PostingCursor {
            list,
            block: 0,
            entries: Vec::new(),
            pos: 0,
            exhausted: list.is_empty(),
            stats: CursorStats::default(),
        };
        if !c.exhausted {
            c.load_block(0);
        }
        c
    }

    fn load_block(&mut self, b: usize) {
        self.entries.clear();
        // Corrupt data (impossible for builder-produced or admitted lists)
        // leaves the block empty: end of list rather than a panic.
        let _ = self.list.decode_into(b, &mut self.entries);
        self.block = b;
        self.pos = 0;
        self.stats.blocks_decoded += 1;
        self.stats.postings_decoded += self.entries.len() as u64;
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

    /// The decoded block the cursor is in: its index in the list, its
    /// postings and the cursor's place among them.
    pub(crate) fn block(&self) -> (usize, &[Posting], usize) {
        (self.block, &self.entries, self.pos)
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
            self.load_block(self.block + 1);
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
        let blocks = self.list.blocks;
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
            self.load_block(b);
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

/// Append one block: its 2-byte header, then `gaps` (each doc's
/// `gap − 1`) and `tfs` (each `tf − 1`), each section bit-packed at the
/// width of its largest value and padded with zero bits to a byte.
fn write_block(buf: &mut Vec<u8>, gaps: &[u32], tfs: &[u32]) {
    let gw = width_of(gaps.iter().fold(0, |any, &g| any | g));
    let tw = width_of(tfs.iter().fold(0, |any, &t| any | t));
    buf.reserve(2 + packed_len(gaps.len(), gw) + packed_len(tfs.len(), tw));
    buf.extend_from_slice(&[gw as u8, tw as u8]);
    pack(buf, gaps, gw);
    pack(buf, tfs, tw);
}

/// Append `values` bit-packed LSB-first at `width` bits each, padded with
/// zero bits to a byte.
pub(crate) fn pack(buf: &mut Vec<u8>, values: &[u32], width: u32) {
    let (mut acc, mut bits) = (0u64, 0u32);
    for &v in values {
        acc |= u64::from(v) << bits;
        bits += width;
        if bits >= 32 {
            buf.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            bits -= 32;
        }
    }
    buf.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// Where one list sits in its arena: one entry of an index's term
/// directory, 16 bytes. The block count is `df` over [`BLOCK_LEN`],
/// rounded up. An empty list is the zero entry, which is also what the
/// directory holds for an absent term.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ListEntry {
    /// Byte position of the list's first block, and one past its last byte.
    start: u32,
    end: u32,
    /// The list's first block in the ladder.
    first: u32,
    /// Document frequency (number of postings).
    pub(crate) df: u32,
}

/// The one posting-list writer: lists encoded back to back, one at a
/// time, into one byte buffer and one block ladder.
///
/// A block's widths are known only once it is complete, so the open
/// block's `gap − 1` and `tf − 1` values wait in two fixed arrays — one
/// pair per arena, reused by every block of every list it writes — and
/// are packed when the block closes.
#[derive(Debug)]
pub(crate) struct ArenaWriter {
    buf: Vec<u8>,
    ladder: Vec<BlockMeta>,
    /// The open list: its first byte, first block in `ladder`, last doc
    /// and df.
    start: u32,
    first: u32,
    prev_doc: Option<u32>,
    df: u32,
    /// The open block: its posting count and its staged values.
    n: usize,
    gaps: [u32; BLOCK_LEN],
    tfs: [u32; BLOCK_LEN],
}

impl ArenaWriter {
    /// An empty arena with room for `bytes` bytes and `blocks` blocks.
    pub(crate) fn with_capacity(bytes: usize, blocks: usize) -> Self {
        ArenaWriter {
            buf: Vec::with_capacity(bytes),
            ladder: Vec::with_capacity(blocks),
            start: 0,
            first: 0,
            prev_doc: None,
            df: 0,
            n: 0,
            gaps: [0; BLOCK_LEN],
            tfs: [0; BLOCK_LEN],
        }
    }

    /// Append a posting of document `doc` to the open list.
    ///
    /// # Panics
    /// Panics if `doc` is not strictly greater than the open list's
    /// previous doc, or if `tf == 0`.
    #[inline]
    pub(crate) fn push(&mut self, doc: u32, tf: u32) {
        assert!(tf > 0, "a posting must have at least one occurrence");
        let gap_minus_one = match self.prev_doc {
            None => doc,
            Some(prev) => {
                assert!(doc > prev, "postings must be strictly ascending: {doc} after {prev}");
                doc - prev - 1
            }
        };
        self.gaps[self.n] = gap_minus_one;
        self.tfs[self.n] = tf - 1;
        self.n += 1;
        self.prev_doc = Some(doc);
        self.df += 1;
        if self.n == BLOCK_LEN {
            self.close_block();
        }
    }

    /// Pack the open block and file its ladder entry.
    fn close_block(&mut self) {
        let last_doc = self.prev_doc.expect("an open block holds a posting");
        self.ladder.push(BlockMeta { last_doc, offset: arena_offset(self.buf.len()) });
        write_block(&mut self.buf, &self.gaps[..self.n], &self.tfs[..self.n]);
        self.n = 0;
    }

    /// Close the open list and open the next. An empty list's entry is
    /// the zero entry.
    pub(crate) fn end_list(&mut self) -> ListEntry {
        if self.df == 0 {
            return ListEntry::default();
        }
        if self.n > 0 {
            self.close_block();
        }
        let end = arena_offset(self.buf.len());
        let entry = ListEntry { start: self.start, end, first: self.first, df: self.df };
        // Every block takes at least two of the arena's bytes, so the
        // ladder's length fits in `u32` when the arena's does.
        (self.start, self.first, self.prev_doc, self.df) = (end, self.ladder.len() as u32, None, 0);
        entry
    }

    /// Freeze the written lists into their arena.
    pub(crate) fn finish(self) -> Arena {
        Arena { data: self.buf, ladder: self.ladder }
    }
}

/// A byte position in an arena, which block offsets hold as `u32`.
fn arena_offset(at: usize) -> u32 {
    u32::try_from(at).expect("a posting arena fits in 4 GiB")
}

/// A frozen arena: the buffer and ladder its lists share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Arena {
    data: Vec<u8>,
    ladder: Vec<BlockMeta>,
}

impl Arena {
    /// The list `entry` describes, as a view of this arena.
    #[inline]
    pub(crate) fn view(&self, entry: ListEntry) -> ListView<'_> {
        let ListEntry { start, end, first, df } = entry;
        let blocks = first as usize..(first + df.div_ceil(BLOCK_LEN as u32)) as usize;
        ListView { data: &self.data[..end as usize], blocks: &self.ladder[blocks], start, df }
    }

    /// Bytes in the arena: every list's, and nothing else.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }
}

/// Incremental encoder for one term's postings: an arena of one list.
///
/// Documents must be appended in strictly ascending order.
#[derive(Debug)]
pub struct PostingListBuilder {
    arena: ArenaWriter,
}

impl Default for PostingListBuilder {
    fn default() -> Self {
        PostingListBuilder { arena: ArenaWriter::with_capacity(0, 0) }
    }
}

impl PostingListBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a posting.
    ///
    /// # Panics
    /// Panics if `doc` is not strictly greater than the previous doc, or if
    /// `tf == 0`.
    pub fn push(&mut self, doc: DocId, tf: u32) {
        self.arena.push(doc.0, tf);
    }

    /// [`PostingListBuilder::push`], ignoring `doc_len`: kept only because
    /// the benchmark package still calls it.
    #[doc(hidden)]
    pub fn push_with_len(&mut self, doc: DocId, tf: u32, _doc_len: u32) {
        self.push(doc, tf);
    }

    /// Current number of postings.
    pub fn df(&self) -> u32 {
        self.arena.df
    }

    /// Finish encoding.
    pub fn finish(mut self) -> PostingList {
        let df = self.arena.end_list().df;
        let Arena { data, ladder } = self.arena.finish();
        PostingList { data: Bytes::from(data), ladder: ladder.into(), df }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(postings: &[(u32, u32)]) -> Vec<Posting> {
        let mut b = PostingListBuilder::new();
        for &(d, tf) in postings {
            b.push(DocId(d), tf);
        }
        b.finish().view().to_vec()
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
        let list = PostingListBuilder::new().finish();
        let l = list.view();
        assert!(l.is_empty());
        assert_eq!(l.df(), 0);
        assert_eq!(l.to_vec(), vec![]);
        assert!(l.blocks().is_empty());
        assert!(!l.cursor().valid());
        assert_eq!(l.encoded_bytes(), 0);
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
        let list = b.finish();
        let l = list.view();
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
        let list = b.finish();
        let l = list.view();
        // Naive layout would be 8 bytes/posting; gaps of 1 with tf 1 pack
        // into zero-width sections, leaving 79 blocks × 2 header bytes.
        assert_eq!(l.blocks().len(), 79);
        assert_eq!(l.encoded_bytes(), 79 * 2);
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
    fn lists_sharing_an_arena_are_independent_views() {
        // Three lists back to back, the middle one empty: each view reads
        // its own blocks, counts its own bytes and ships only its range.
        let lists: [&[u32]; 3] = [&[0, 2, 9], &[], &[1, 300, 301, 70_000]];
        let mut w = ArenaWriter::with_capacity(0, 0);
        let entries: Vec<ListEntry> = lists
            .iter()
            .map(|docs| {
                for &d in docs.iter() {
                    w.push(d, 1 + d % 4);
                }
                w.end_list()
            })
            .collect();
        assert!(entries[1] == ListEntry::default() && entries[0].df > 0);
        let arena = w.finish();
        let views: Vec<ListView<'_>> = entries.iter().map(|&e| arena.view(e)).collect();
        assert_eq!(views.iter().map(ListView::encoded_bytes).sum::<usize>(), arena.len());
        for (view, docs) in views.iter().zip(lists) {
            let alone = {
                let mut b = PostingListBuilder::new();
                for &d in docs {
                    b.push(DocId(d), 1 + d % 4);
                }
                b.finish()
            };
            let alone = alone.view();
            assert_eq!(view.to_vec(), alone.to_vec());
            assert_eq!((view.df(), view.cf()), (alone.df(), alone.cf()));
            assert_eq!(view.blocks().len(), alone.blocks().len());
            assert_eq!(view.encoded(), alone.encoded());
            assert_eq!(view.encoded_bytes(), view.encoded().len());
            let mut c = view.cursor();
            assert!(c.next_geq(DocId(2)) == docs.iter().any(|&d| d >= 2));
        }
    }

    #[test]
    fn iterator_size_hint_exact() {
        let mut b = PostingListBuilder::new();
        for d in [1u32, 4, 9] {
            b.push(DocId(d), 1);
        }
        let list = b.finish();
        let l = list.view();
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
            b.push(DocId(d), 1 + (i as u32 % 9));
        }
        let list = b.finish();
        let l = list.view();
        assert_eq!(l.blocks().len(), docs.len().div_ceil(BLOCK_LEN));
        let decoded = l.to_vec();
        for (bi, meta) in l.blocks().iter().enumerate() {
            let lo = bi * BLOCK_LEN;
            let hi = (lo + l.block_len(bi)).min(decoded.len());
            assert_eq!(meta.last_doc, decoded[hi - 1].doc.0);
        }
    }

    #[test]
    fn block_meta_is_a_skip_key_and_an_offset() {
        assert_eq!(std::mem::size_of::<BlockMeta>(), 8);
    }

    #[test]
    fn a_directory_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<ListEntry>(), 16);
    }

    // ----- cursor -----

    #[test]
    fn cursor_walks_whole_list() {
        let docs: Vec<u32> = (0..777u32).map(|i| i * 3).collect();
        let list = list_of(&docs);
        let l = list.view();
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
        let list = list_of(&[2, 5, 9, 14, 20, 33, 47]);
        let l = list.view();
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
        let list = list_of(&docs);
        let l = list.view();
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
        let list = list_of(&[2, 5, 9, 14]);
        let l = list.view();
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
        let cut = good.data.len() - 1;
        let bad = Bytes::from(good.data[..cut].to_vec());
        let err = PostingList::from_encoded(bad, good.df).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn df_larger_than_stream_is_truncated() {
        let good = list_of(&[1, 2]);
        let err = PostingList::from_encoded(good.data.clone(), good.df + 5).unwrap_err();
        assert_eq!(err, DecodeError::Truncated);
    }

    #[test]
    fn from_encoded_rejects_a_df_that_undercounts_the_stream() {
        // Admitted with df = 2, a stream of three postings would silently
        // drop doc 40: its gap sits in the last block's padding bits.
        let three = list_of(&[10, 20, 40]);
        let err = PostingList::from_encoded(three.encoded(), 2).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes);
        // Here the shorter block ends a whole byte early.
        let four = list_of(&[10, 20, 30, 40]);
        let err = PostingList::from_encoded(four.encoded(), 2).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes);
        assert!(PostingList::from_encoded(three.encoded(), 3).is_ok());
    }

    #[test]
    fn from_encoded_rejects_trailing_bytes() {
        let good = list_of(&[10, 20, 40]);
        let mut bytes = good.encoded().to_vec();
        bytes.extend([0xff, 0xff]);
        let err = PostingList::from_encoded(Bytes::from(bytes), good.df).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes);
        // An empty list is an empty stream.
        let err = PostingList::from_encoded(Bytes::from(vec![0, 0]), 0).unwrap_err();
        assert_eq!(err, DecodeError::TrailingBytes);
        assert!(PostingList::from_encoded(Bytes::default(), 0).is_ok());
    }

    #[test]
    fn iterator_stops_cleanly_on_corrupt_payload() {
        let good = list_of(&[100, 200, 300]);
        let cut = good.data.len() - 1;
        let corrupt = ListView { data: &good.data[..cut], ..good.view() };
        let mut it = corrupt.iter();
        let n = it.by_ref().count();
        assert!(n < 3, "the damaged posting is not produced");
        assert_eq!(it.error(), Some(DecodeError::Truncated));
    }

    #[test]
    fn from_encoded_roundtrips_valid_streams() {
        let docs: Vec<u32> = (0..300u32).map(|i| i * 11).collect();
        let l = list_of(&docs);
        let wire = PostingList::from_encoded(l.data.clone(), l.df).expect("valid stream");
        let (wire, l) = (wire.view(), l.view());
        assert_eq!(wire.cf(), l.cf());
        assert_eq!(wire.to_vec(), l.to_vec());
        // Everything the ladder holds is in the stream: re-admission files
        // the writer's entries, offsets included.
        assert_eq!(wire.blocks(), l.blocks());
    }

    #[test]
    fn from_encoded_rejects_malformed_blocks() {
        let admit = |bytes: Vec<u8>, df| PostingList::from_encoded(Bytes::from(bytes), df);
        // 32-bit gaps: doc u32::MAX, then a gap of 1 past it.
        let wrapped = vec![32, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0];
        assert_eq!(admit(wrapped, 2).err(), Some(DecodeError::NotAscending));
        // Block 0 ends on doc u32::MAX; block 1's one posting has no room.
        let mut full = vec![32, 0];
        full.extend((u32::MAX - 127).to_le_bytes());
        full.extend([0; 4 * (BLOCK_LEN - 1)]);
        assert_eq!(admit(full.clone(), BLOCK_LEN as u32).expect("ascending").df, 128);
        full.extend([0, 0]);
        assert_eq!(admit(full, BLOCK_LEN as u32 + 1).err(), Some(DecodeError::NotAscending));
        // Widths above 32 bits, in either header byte.
        assert_eq!(admit(vec![33, 0, 0, 0, 0, 0, 0], 1).err(), Some(DecodeError::OutOfRange));
        assert_eq!(admit(vec![0, 33, 0, 0, 0, 0, 0], 1).err(), Some(DecodeError::OutOfRange));
        // A header cut in half, and no header at all.
        assert_eq!(admit(vec![0], 1).err(), Some(DecodeError::Truncated));
        assert_eq!(admit(vec![], 1).err(), Some(DecodeError::Truncated));
        // A tf − 1 of u32::MAX: no u32 tf.
        let huge_tf = vec![0, 32, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(admit(huge_tf, 1).err(), Some(DecodeError::OutOfRange));
        // A first posting at doc 0 is a gap of 1 from the virtual −1, and a
        // zero-width block of two is docs 0 and 1: valid.
        let docs: Vec<u32> =
            admit(vec![0, 0], 2).expect("ascending").view().iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, [0, 1]);
    }

    #[test]
    fn doc_u32_max_roundtrips_as_a_32_bit_gap() {
        let mut b = PostingListBuilder::new();
        b.push(DocId(u32::MAX), 1);
        let l = b.finish();
        assert_eq!(l.view().encoded_bytes(), 2 + 4);
        assert_eq!(l.view().to_vec()[0].doc, DocId(u32::MAX));
        let wire = PostingList::from_encoded(l.encoded(), 1).expect("valid");
        assert_eq!(wire.view().to_vec()[0].doc, DocId(u32::MAX));
    }

    #[test]
    fn every_width_roundtrips_through_every_reader() {
        // For each width, the first posting's gap − 1 and tf − 1 need
        // exactly that many bits and every other value is small: block 0
        // unpacks at the width in whole groups of eight (a multi-block
        // list) and at the stream's end (one block, full or partial).
        for width in 0..=32u32 {
            let mask = ((1u64 << width) - 1) as u32;
            let top = if width == 0 { 0 } else { 1 << (width - 1) };
            for n in [2 * BLOCK_LEN + 37, BLOCK_LEN, 13] {
                let mut doc = -1i64;
                let postings: Vec<(u32, u32)> = (0..n as u32)
                    .map(|i| {
                        let (gap, tf) = match i {
                            0 => (mask.saturating_sub(2000) | top, mask.saturating_sub(1) | top),
                            _ => ((i * 7 % 5) & mask, (i * 3 % 4) & mask),
                        };
                        doc += i64::from(gap) + 1;
                        (doc as u32, tf + 1)
                    })
                    .collect();
                let mut b = PostingListBuilder::new();
                for &(d, tf) in &postings {
                    b.push(DocId(d), tf);
                }
                let list = b.finish();
                let l = list.view();
                let as_pairs = |v: Vec<Posting>| -> Vec<(u32, u32)> {
                    v.into_iter().map(|p| (p.doc.0, p.tf)).collect()
                };
                assert_eq!(as_pairs(l.to_vec()), postings, "width {width}, {n} postings");
                let mut c = l.cursor();
                let mut walked = Vec::new();
                while c.valid() {
                    walked.push((c.doc().0, c.tf()));
                    c.next();
                }
                assert_eq!(walked, postings, "cursor, width {width}, {n} postings");
                let wire = PostingList::from_encoded(list.encoded(), l.df()).expect("valid");
                assert_eq!(as_pairs(wire.view().to_vec()), postings, "wire, width {width}");
            }
        }
    }

    #[test]
    fn thirty_two_bit_gap_opens_a_block() {
        // Block 0 is dense (zero-width gaps, 2-bit tfs); block 1 opens
        // with a gap that needs all 32 bits, which widens every gap in it.
        let mut docs: Vec<u32> = (0..BLOCK_LEN as u32).collect();
        docs.extend([u32::MAX - 9, u32::MAX - 8, u32::MAX]);
        let list = list_of(&docs);
        let l = list.view();
        assert_eq!(l.blocks().len(), 2);
        let block0 = 2 + BLOCK_LEN * 2 / 8;
        let block1 = 2 + 3 * 32 / 8 + 1;
        assert_eq!(l.encoded_bytes(), block0 + block1);
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
        let wire = PostingList::from_encoded(list.encoded(), l.df()).expect("valid");
        assert_eq!(wire.view().to_vec(), l.to_vec());
    }
}
