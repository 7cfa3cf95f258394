//! # dwr-sim — deterministic simulation substrate
//!
//! Foundation crate for the `ocean` distributed Web retrieval laboratory.
//! Everything the other crates simulate — crawling, distributed indexing,
//! query processing, failures — runs on the primitives defined here:
//!
//! * [`rng`] — a splittable, explicitly-seeded PRNG so every experiment in
//!   the repository is reproducible bit-for-bit from a single `u64` seed.
//! * [`dist`] — the heavy-tailed distributions the paper's survey results
//!   rest on (Zipf term/query popularity, power-law in-degree, bounded
//!   Pareto document sizes, exponential failure processes).
//! * [`stats`] — streaming moments, percentile summaries, histograms and
//!   imbalance measures used by every experiment harness.
//! * [`event`] — a discrete-event scheduler with a microsecond virtual
//!   clock and stable FIFO tie-breaking.
//! * [`net`] — latency/bandwidth models for LAN and WAN links between
//!   simulated sites (Section 5 of the paper).
//! * [`hash`] — the cheap hasher every crate's id-keyed tables share.
//! * [`TermId`] — the one term id, shared by the content model that
//!   mints it and the index that looks it up.
//!
//! The kernel is intentionally free of wall-clock time and global state:
//! identical seeds produce identical traces, which the test suites of the
//! downstream crates rely on.

pub mod dist;
pub mod event;
pub mod hash;
pub mod net;
pub mod rng;
pub mod stats;

pub use event::{EventQueue, SimTime};
pub use rng::SimRng;

/// Identifier of a term: the id the content model hands out, the query
/// log samples and the index looks up.
///
/// Ids are dense, as `dwr_webgraph::ContentModel` lays them out: the
/// background vocabulary from 0, then one slice of `terms_per_topic` ids
/// per topic. `dwr-text` relies on it: an `InvertedIndex`'s term directory
/// and `GlobalStats::sum`'s df table are both flat arrays sized by the
/// largest id they hold, so a corpus of a few ids near `u32::MAX` would
/// cost gigabytes. Looking up an id past the largest is fine, and answers
/// "absent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// One second expressed in the simulator's microsecond clock.
pub const SECOND: SimTime = 1_000_000;
/// One millisecond expressed in the simulator's microsecond clock.
pub const MILLISECOND: SimTime = 1_000;
/// One simulated minute.
pub const MINUTE: SimTime = 60 * SECOND;
/// One simulated hour.
pub const HOUR: SimTime = 3_600 * SECOND;
/// One simulated day.
pub const DAY: SimTime = 24 * HOUR;
