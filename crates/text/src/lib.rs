//! # dwr-text — the IR core
//!
//! "Typically, an inverted index is the reference structure for storing
//! indexes in IR systems" (Section 4). This crate implements that reference
//! structure from scratch:
//!
//! * [`token`] — a fault-tolerant tokenizer (the paper stresses that "it is
//!   very important that the HTML parser is tolerant to all sort of
//!   errors"; our tokenizer never fails, it only emits fewer tokens);
//! * [`postings`] — posting lists with term frequencies, bit-packed per
//!   block of 128 (frame of reference: one gap width and one tf width per
//!   block) with a per-block ladder of last-doc skip keys and a
//!   block-skipping `next_geq` cursor, the PostingList half of the
//!   Lexicon/PostingList pair the paper describes;
//! * [`index`] — one arena of lists per index behind a flat term
//!   directory (the pair's Lexicon half), the counting-sort index
//!   builder, round-robin splits and index merging (the building blocks
//!   of Section 4's distributed construction strategies);
//! * [`score`] — BM25 with pluggable collection statistics, so the
//!   "local vs. global statistics" experiments (Section 4, external
//!   factors) can swap the statistics source under the same scorer;
//! * [`topk`] — bounded top-k selection over `u64` order keys;
//! * [`search`] — ranked disjunctive and Boolean conjunctive evaluation,
//!   with a hashed reference evaluator and a dense per-thread accumulator
//!   returning bit-identical top-k;
//! * [`positions`] — positional postings and phrase search (the
//!   communication-heavy case of Section 5's pipelined evaluation): a
//!   posting list plus a position sidecar bit-packed by the postings' own
//!   codec, re-admitted through one validating decoder, with phrase
//!   candidates from the conjunctive cursor leapfrog;
//! * [`dynamic`] — online index maintenance with geometric partitioning
//!   \[15\] and lock-time accounting (Section 4's update problem);
//! * [`langid`] — Cavnar–Trenkle n-gram language identification for the
//!   language-routing discussion of Section 5.

pub mod dynamic;
pub mod index;
pub mod langid;
pub mod positions;
pub mod postings;
pub mod score;
pub mod search;
pub mod token;
pub mod topk;

/// Identifier of a document within one index (dense, `0..num_docs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Identifier of a term, the workspace's one term id (defined in
/// `dwr-sim`). Ids are dense, and the term directory and
/// [`GlobalStats::sum`] rely on it.
pub use dwr_sim::TermId;

pub use index::InvertedIndex;
pub use postings::{
    BlockMeta, CursorStats, DecodeError, ListView, PostingCursor, PostingList, BLOCK_LEN,
};
pub use score::{Bm25, CollectionStats, GlobalStats, TermScorer};
pub use search::{
    search_and, search_and_exhaustive, search_or, search_or_with, EvalStats, EvalStrategy,
    SearchHit,
};
