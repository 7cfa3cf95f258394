//! # dwr-partition — distributed indexing (Section 4)
//!
//! "According to the way servers partition the T×D matrix, we can have two
//! different types of distributed indexes": **document partitioning**
//! (horizontal) and **term partitioning** (vertical) — Figure 1 of the
//! paper. This crate implements both families plus everything Section 4
//! hangs off them:
//!
//! * [`doc`] — document partitioners: random, round-robin, topical k-means
//!   \[17, 18\], and query-driven co-clustering à la Puppin et al. \[19\]
//!   (including the "53% of documents are never recalled by any query"
//!   observation);
//! * [`term`] — term partitioners: random, query-weighted bin-packing à la
//!   Moffat et al. \[21\], and co-occurrence-aware packing à la Lucchese et
//!   al. \[22\];
//! * [`select`] — collection selection: CORI \[24\] and the query-driven
//!   selector, both behind one trait so E6 can compare them;
//! * [`parted`] — the partitioned index structure shared with the query
//!   crate (global↔local doc-id mapping, per-partition `InvertedIndex`,
//!   and the collection-wide statistics summed over its active shards
//!   that the two-round broker protocol of Section 4 piggybacks);
//! * [`quality`] — partition quality metrics: balance, recall@partitions,
//!   never-recalled fraction;
//! * [`repart`] — online repartitioning: the epoch-stamped
//!   [`repart::PartitionMap`], crash-safe [`repart::RepartIndex`] splits
//!   published by one atomic swap (pippin discipline: subdivide, never
//!   mutate), corpus-wide statistics that splits never change, and
//!   label-forked [`repart::SplitSchedule`]s for deterministic split
//!   storms under live traffic.

pub mod doc;
pub mod parted;
pub mod quality;
pub mod repart;
pub mod select;
pub mod term;

pub use doc::DocPartitioner;
pub use parted::{Corpus, PartitionedIndex};
pub use repart::{RepartIndex, SplitFate, SplitSchedule};
pub use select::CollectionSelector;
pub use term::TermPartitioner;
