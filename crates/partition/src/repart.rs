//! # Online repartitioning — epoch-stamped maps and crash-safe splits
//!
//! The paper's Section 4 lists index maintenance as a core open
//! challenge: a live engine cannot take the index offline to reshape
//! it. This module adopts the *pippin* repartitioning discipline:
//!
//! * **never mutate a partition — only subdivide it.** A split creates
//!   fresh child partitions and marks the parent `Closed { children }`;
//!   the parent's shard is never edited, so readers holding it keep a
//!   perfectly consistent (if stale) view.
//! * **version-stamp everything.** The [`PartitionMap`] and each of its
//!   entries carry an epoch; staleness is *detectable*, not silent.
//! * **no master index.** Children derive purely from the parent; a map
//!   can always be validated bottom-up ([`PartitionedIndex::validate_epoch`]).
//!
//! # Crash safety
//!
//! A split builds the child shards and the next map entirely off to the
//! side, then publishes the new [`PartitionedIndex`] with one atomic
//! swap under a mutex. A crash *before* the publish aborts cleanly —
//! the parent epoch is still the live map and the half-built children
//! are dropped. A crash *after* the publish rolls forward — the new
//! epoch is already the live map. There is no intermediate state, so a
//! torn map is impossible by construction ([`SplitFate`] enumerates the
//! three outcomes for fault injection).
//!
//! # Exactly-once queries under a racing split
//!
//! A query takes **one** map snapshot at admission and scatters over
//! that snapshot's *active* partitions only. Within any single epoch
//! the active partitions exactly partition the document space (every
//! document is in exactly one active partition — closed parents are
//! never queried), so a query racing a split answers each document
//! exactly once: from the parent if it snapshotted before the publish,
//! from exactly one child if after. Scoring uses corpus-wide
//! [`GlobalStats`], summed once from the shards on first use: they are
//! invariant under splits (the corpus never changes), so the result set
//! is *bit-identical* to a static oracle at either epoch.

use crate::parted::{Corpus, PartitionedIndex};
use dwr_sim::{SimRng, SimTime};
use dwr_text::score::GlobalStats;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Children created per split. Two-way splits keep the family tree
/// binary and the balance bound trivial (children differ by ≤ 1 doc).
pub const SPLIT_FANOUT: usize = 2;

fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Lifecycle state of one partition map entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartStatus {
    /// The partition serves queries.
    Active,
    /// The partition was subdivided; `children` now own its documents.
    /// Closed partitions are never queried and never reopened.
    Closed {
        /// Partition ids of the children, in creation order.
        children: Vec<u32>,
    },
}

/// One entry of a [`PartitionMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartEntry {
    /// Partition id (= shard slot in the [`PartitionedIndex`]).
    pub id: u32,
    /// Active or closed-with-children.
    pub status: PartStatus,
    /// Epoch this entry was created in (0 for the initial build).
    pub epoch: u64,
    /// Parent partition, `None` for initial partitions.
    pub parent: Option<u32>,
    /// Documents the partition held when created. For active entries
    /// this equals the shard size; it is kept on closed entries as the
    /// historical record.
    pub docs: usize,
}

/// Epoch-stamped partition metadata: which partitions exist, which are
/// active, and how closed ones were subdivided.
///
/// The map is immutable; a split produces a *new* map at `epoch + 1`
/// via [`PartitionedIndex::with_split`]. Entry ids are stable — entry
/// `p` always describes shard slot `p` — so a reader comparing two maps
/// can diff them by epoch alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    epoch: u64,
    entries: Vec<PartEntry>,
}

impl PartitionMap {
    /// The epoch-0 map: every partition active, no parents.
    pub(crate) fn initial(sizes: &[usize]) -> Self {
        let entries = sizes
            .iter()
            .enumerate()
            .map(|(p, &docs)| PartEntry {
                id: p as u32,
                status: PartStatus::Active,
                epoch: 0,
                parent: None,
                docs,
            })
            .collect();
        PartitionMap { epoch: 0, entries }
    }

    /// The successor map: `parent` closed, `child_sizes.len()` children
    /// appended, epoch bumped.
    pub(crate) fn with_split(&self, parent: u32, child_sizes: &[usize]) -> Self {
        let epoch = self.epoch + 1;
        let base = self.entries.len() as u32;
        let children: Vec<u32> = (0..child_sizes.len() as u32).map(|c| base + c).collect();
        let mut entries = self.entries.clone();
        entries[parent as usize].status = PartStatus::Closed { children: children.clone() };
        for (c, &docs) in child_sizes.iter().enumerate() {
            entries.push(PartEntry {
                id: base + c as u32,
                status: PartStatus::Active,
                epoch,
                parent: Some(parent),
                docs,
            });
        }
        PartitionMap { epoch, entries }
    }

    /// Map epoch: number of splits applied since the initial build.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All entries (active and closed), indexed by partition id.
    pub fn entries(&self) -> &[PartEntry] {
        &self.entries
    }

    /// Entry for partition `p`, if it exists.
    pub fn entry(&self, p: u32) -> Option<&PartEntry> {
        self.entries.get(p as usize)
    }

    /// Total entries, active and closed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for a zero-partition map (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether partition `p` exists and is active. Out-of-range ids are
    /// inactive, not a panic.
    pub fn is_active(&self, p: u32) -> bool {
        matches!(self.entries.get(p as usize), Some(e) if e.status == PartStatus::Active)
    }

    /// Active partition ids in ascending order. These exactly partition
    /// the document space at this epoch.
    pub fn active(&self) -> Vec<u32> {
        self.entries.iter().filter(|e| e.status == PartStatus::Active).map(|e| e.id).collect()
    }
}

/// Why a split was refused. Refusals leave the live map untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitError {
    /// No such partition.
    OutOfRange(u32),
    /// The partition is already closed; a closed partition is never
    /// reopened or re-split (pippin rule).
    NotActive(u32),
    /// Fewer documents than [`SPLIT_FANOUT`]; a child would be born
    /// empty for no reshaping gain.
    TooSmall {
        /// The partition that was asked to split.
        part: u32,
        /// Documents it holds.
        docs: usize,
    },
    /// The split would exceed the provisioned shard-slot capacity.
    Capacity {
        /// Slots the split needs in total.
        need: usize,
        /// Slots provisioned at build time.
        capacity: usize,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::OutOfRange(p) => write!(f, "partition {p} out of range"),
            SplitError::NotActive(p) => write!(f, "partition {p} is closed"),
            SplitError::TooSmall { part, docs } => {
                write!(f, "partition {part} has {docs} docs, fewer than fanout {SPLIT_FANOUT}")
            }
            SplitError::Capacity { need, capacity } => {
                write!(f, "split needs {need} shard slots but capacity is {capacity}")
            }
        }
    }
}

impl std::error::Error for SplitError {}

/// Where a (simulated) crash lands relative to the atomic publish.
///
/// The publish is the *only* commit point, so these three fates are
/// exhaustive: there is no window in which a crash could leave a torn
/// map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitFate {
    /// No crash: the split publishes normally.
    Commit,
    /// Crash before the publish: the half-built children are dropped
    /// and the parent epoch stays live — a clean abort.
    CrashBeforePublish,
    /// Crash after the publish: the new epoch is already live, so the
    /// split rolls forward. Indistinguishable from `Commit` to readers.
    CrashAfterPublish,
}

/// Outcome of one [`RepartIndex::split`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitReport {
    /// The partition that was split.
    pub parent: u32,
    /// Child partition ids (empty when aborted before publish).
    pub children: Vec<u32>,
    /// Live epoch when the split started.
    pub epoch_before: u64,
    /// Live epoch after the split resolved (= `epoch_before` on abort).
    pub epoch_after: u64,
    /// Whether the new map was published.
    pub committed: bool,
    /// Whether the commit was a roll-forward past a post-publish crash.
    pub rolled_forward: bool,
    /// Documents moved from parent to children.
    pub docs_split: usize,
}

/// Monotonic split counters, mirrored by the `repart.*` observability
/// instruments for the live-vs-offline cross-check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepartStats {
    /// Splits that published a new epoch (including roll-forwards).
    pub splits_committed: u64,
    /// Splits that crashed before publish and aborted cleanly.
    pub splits_aborted: u64,
    /// Child partitions created by committed splits.
    pub children_created: u64,
    /// Current live epoch.
    pub epoch: u64,
}

/// A partitioned index that may split while it serves — the one index
/// handle of the serving path. Provisioned with no room beyond its
/// partition count, it is a fixed layout that nothing splits.
///
/// Holds the corpus-wide [`GlobalStats`] and the current
/// [`PartitionedIndex`] behind a mutex whose critical sections are
/// *short*: a reader clones the index out ([`snapshot`]); a split swaps
/// a pre-built successor in. Child shards are built outside the lock
/// (splits are serialized by a separate mutex), so queries are never
/// blocked behind an index build. Splits filter the parent shard's
/// posting lists, so the corpus is not kept once the index is built.
///
/// `capacity` provisions the total number of shard slots the structure
/// may ever use, so brokers and engines can size their fixed-width
/// atomic accounting (busy ledgers, replica groups, histograms) once at
/// construction and survive any number of splits. A split that would
/// exceed capacity is refused with [`SplitError::Capacity`].
///
/// [`snapshot`]: RepartIndex::snapshot
#[derive(Debug)]
pub struct RepartIndex {
    /// Summed on first use, so an index served with local statistics
    /// never pays for them.
    stats: OnceLock<Arc<GlobalStats>>,
    capacity: usize,
    current: Mutex<PartitionedIndex>,
    split_lock: Mutex<()>,
    splits_committed: AtomicU64,
    splits_aborted: AtomicU64,
    children_created: AtomicU64,
}

impl RepartIndex {
    /// Serve `index` — a snapshot at any epoch — with room for `capacity`
    /// total shard slots. `capacity == index.num_partitions()` leaves no
    /// room to split: the index is a fixed layout that only ever serves
    /// that snapshot. The [`GlobalStats`] are summed from the active
    /// shards ([`PartitionedIndex::global_stats`]) on the first
    /// [`Self::corpus_stats`] call.
    ///
    /// # Panics
    /// Panics if `capacity` is below the index's partition count.
    pub fn new(index: PartitionedIndex, capacity: usize) -> Self {
        let slots = index.num_partitions();
        assert!(capacity >= slots, "capacity {capacity} below partition count {slots}");
        RepartIndex {
            stats: OnceLock::new(),
            capacity,
            current: Mutex::new(index),
            split_lock: Mutex::new(()),
            splits_committed: AtomicU64::new(0),
            splits_aborted: AtomicU64::new(0),
            children_created: AtomicU64::new(0),
        }
    }

    /// Build the epoch-0 index with `k` initial partitions and room for
    /// `capacity` total shard slots ([`Self::new`] over
    /// [`PartitionedIndex::build`]). The corpus is dropped once the index
    /// is built, so it is read once.
    ///
    /// # Panics
    /// Panics on the same degenerate inputs as [`PartitionedIndex::build`],
    /// or if `capacity < k`.
    pub fn build(corpus: Corpus, assignment: &[u32], k: usize, capacity: usize) -> Self {
        let index = PartitionedIndex::build(&corpus, assignment, k);
        drop(corpus);
        Self::new(index, capacity)
    }

    /// Provisioned shard-slot ceiling.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Documents in the corpus (invariant across splits).
    pub fn num_docs(&self) -> usize {
        lock_recovering(&self.current).num_docs()
    }

    /// Shared ownership of the corpus-wide statistics, summed on the
    /// first call from whatever epoch is current. Splits never change
    /// them: every snapshot's [`PartitionedIndex::global_stats`] equals
    /// them, so the epoch they were summed at does not matter.
    pub fn corpus_stats(&self) -> Arc<GlobalStats> {
        Arc::clone(self.stats.get_or_init(|| Arc::new(self.snapshot().global_stats())))
    }

    /// The current live index: one short lock, then a cheap clone
    /// (`slots + 3` refcount bumps, never a postings copy). A snapshot
    /// is immutable and epoch-stamped; a query served entirely from one
    /// snapshot observes a single consistent epoch by construction.
    pub fn snapshot(&self) -> PartitionedIndex {
        lock_recovering(&self.current).clone()
    }

    /// Live epoch.
    pub fn epoch(&self) -> u64 {
        lock_recovering(&self.current).epoch()
    }

    /// Split counters plus the live epoch.
    pub fn repart_stats(&self) -> RepartStats {
        RepartStats {
            splits_committed: self.splits_committed.load(Ordering::Relaxed),
            splits_aborted: self.splits_aborted.load(Ordering::Relaxed),
            children_created: self.children_created.load(Ordering::Relaxed),
            epoch: self.epoch(),
        }
    }

    /// The active partition holding the most documents among those
    /// splittable (≥ [`SPLIT_FANOUT`] docs); ties break toward the
    /// lowest id. `None` when nothing is worth splitting.
    pub fn split_target(&self) -> Option<u32> {
        let snap = self.snapshot();
        let sizes = snap.sizes();
        snap.active_parts()
            .into_iter()
            .map(|p| (p, sizes[p as usize]))
            .filter(|&(_, n)| n >= SPLIT_FANOUT)
            .max_by_key(|&(p, n)| (n, std::cmp::Reverse(p)))
            .map(|(p, _)| p)
    }

    /// Split `parent` into [`SPLIT_FANOUT`] children, with `fate`
    /// simulating where a replica crash lands relative to the publish.
    ///
    /// The successor index is built entirely off to the side and
    /// published with one swap under the `current` mutex; concurrent
    /// snapshots see either the old epoch or the new one, never a
    /// mixture. Errors refuse the split before any work is published.
    pub fn split(&self, parent: u32, fate: SplitFate) -> Result<SplitReport, SplitError> {
        // Serialize splitters so the epoch cannot move between our read
        // and our publish; queries only contend on the `current` mutex.
        let _splitting = lock_recovering(&self.split_lock);
        let cur = self.snapshot();
        let need = cur.num_partitions() + SPLIT_FANOUT;
        if need > self.capacity {
            return Err(SplitError::Capacity { need, capacity: self.capacity });
        }
        let next = cur.with_split(parent)?;
        let epoch_before = cur.epoch();
        let docs_split = cur.sizes()[parent as usize];
        if fate == SplitFate::CrashBeforePublish {
            // The crash lands before the swap: drop `next` unpublished.
            // The live map is still `cur` — a clean abort to the parent
            // epoch, with the half-built children garbage-collected.
            self.splits_aborted.fetch_add(1, Ordering::Relaxed);
            return Ok(SplitReport {
                parent,
                children: Vec::new(),
                epoch_before,
                epoch_after: epoch_before,
                committed: false,
                rolled_forward: false,
                docs_split,
            });
        }
        let children = match &next.map().entry(parent).expect("parent entry").status {
            PartStatus::Closed { children } => children.clone(),
            PartStatus::Active => unreachable!("with_split closes the parent"),
        };
        let epoch_after = next.epoch();
        // The commit point: one atomic swap. A crash after this line
        // (CrashAfterPublish) changes nothing — the split already
        // rolled forward.
        *lock_recovering(&self.current) = next;
        self.splits_committed.fetch_add(1, Ordering::Relaxed);
        self.children_created.fetch_add(children.len() as u64, Ordering::Relaxed);
        Ok(SplitReport {
            parent,
            children,
            epoch_before,
            epoch_after,
            committed: true,
            rolled_forward: fate == SplitFate::CrashAfterPublish,
            docs_split,
        })
    }

    /// Structural self-check of the live index (see
    /// [`PartitionedIndex::validate_epoch`]).
    pub fn validate(&self) -> Result<(), String> {
        self.snapshot().validate_epoch()
    }
}

/// One scheduled split attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEvent {
    /// Simulated time the split fires.
    pub at: SimTime,
    /// Crash fate injected into the split.
    pub fate: SplitFate,
}

/// Label base for split-event rng forks. Disjoint from the fault
/// schedule's `(p << 24) | r` labels and the site/crawl tiers.
const SPLIT_LABEL: u64 = 0x5911_0000;

/// A deterministic schedule of split attempts over a horizon, following
/// the same label-forked discipline as `FaultSchedule`/`AgentSchedule`:
/// event `i` draws from `rng.fork(SPLIT_LABEL | i)`, so schedules are
/// dimension-stable — asking for more events never changes the earlier
/// ones' draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitSchedule {
    events: Vec<SplitEvent>,
    horizon: SimTime,
}

impl SplitSchedule {
    /// `splits` crash-free split attempts at label-forked times in
    /// `[1, horizon]`, sorted by time (ties keep draw order).
    pub fn generate(splits: usize, horizon: SimTime, seed: u64) -> Self {
        Self::generate_with_crashes(splits, horizon, seed, 0.0)
    }

    /// As [`generate`], but each event independently draws a crash
    /// fate: before-publish with probability `crash_rate / 2`,
    /// after-publish with `crash_rate / 2`, else a clean commit.
    ///
    /// [`generate`]: SplitSchedule::generate
    pub fn generate_with_crashes(
        splits: usize,
        horizon: SimTime,
        seed: u64,
        crash_rate: f64,
    ) -> Self {
        assert!(horizon > 0, "zero horizon");
        assert!((0.0..=1.0).contains(&crash_rate), "crash rate out of [0, 1]");
        let root = SimRng::new(seed);
        let mut events: Vec<SplitEvent> = (0..splits)
            .map(|i| {
                let mut rng = root.fork(SPLIT_LABEL | i as u64);
                let at = 1 + rng.below(horizon);
                let draw = rng.f64();
                let fate = if draw < crash_rate / 2.0 {
                    SplitFate::CrashBeforePublish
                } else if draw < crash_rate {
                    SplitFate::CrashAfterPublish
                } else {
                    SplitFate::Commit
                };
                SplitEvent { at, fate }
            })
            .collect();
        events.sort_by_key(|e| e.at);
        SplitSchedule { events, horizon }
    }

    /// A hand-written schedule (tests, replays).
    pub fn from_events(mut events: Vec<SplitEvent>, horizon: SimTime) -> Self {
        events.sort_by_key(|e| e.at);
        SplitSchedule { events, horizon }
    }

    /// Events in firing order.
    pub fn events(&self) -> &[SplitEvent] {
        &self.events
    }

    /// Schedule horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of scheduled attempts.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_text::score::CollectionStats;
    use dwr_text::TermId;

    fn corpus(n: usize) -> Corpus {
        (0..n)
            .map(|d| vec![(TermId(0), 1), (TermId(1 + (d % 3) as u32), 1 + (d % 5) as u32)])
            .collect()
    }

    fn round_robin(n: usize, k: usize) -> Vec<u32> {
        (0..n).map(|d| (d % k) as u32).collect()
    }

    #[test]
    fn initial_map_is_epoch_zero_all_active() {
        let ri = RepartIndex::build(corpus(10), &round_robin(10, 3), 3, 8);
        let snap = ri.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.active_parts(), vec![0, 1, 2]);
        assert!(snap.map().entries().iter().all(|e| e.parent.is_none() && e.epoch == 0));
        snap.validate_epoch().expect("epoch-0 map valid");
    }

    #[test]
    fn split_closes_parent_and_conserves_docs() {
        let ri = RepartIndex::build(corpus(10), &round_robin(10, 2), 2, 8);
        let before = ri.snapshot();
        let report = ri.split(0, SplitFate::Commit).expect("split");
        assert_eq!(report.children, vec![2, 3]);
        assert_eq!(report.epoch_before, 0);
        assert_eq!(report.epoch_after, 1);
        assert!(report.committed && !report.rolled_forward);
        assert_eq!(report.docs_split, 5);
        let after = ri.snapshot();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.active_parts(), vec![1, 2, 3]);
        assert!(!after.is_active(0));
        assert_eq!(
            after.map().entry(0).unwrap().status,
            PartStatus::Closed { children: vec![2, 3] }
        );
        // Children interleave the parent's docs: 5 docs -> 3 + 2.
        assert_eq!(after.sizes()[2] + after.sizes()[3], 5);
        assert!((after.sizes()[2] as i64 - after.sizes()[3] as i64).abs() <= 1);
        after.validate_epoch().expect("post-split map valid");
        // The old snapshot is untouched — stale but consistent.
        assert_eq!(before.epoch(), 0);
        before.validate_epoch().expect("stale snapshot still valid");
    }

    #[test]
    fn crash_before_publish_aborts_cleanly() {
        let ri = RepartIndex::build(corpus(10), &round_robin(10, 2), 2, 8);
        let report = ri.split(0, SplitFate::CrashBeforePublish).expect("attempt runs");
        assert!(!report.committed);
        assert_eq!(report.epoch_after, 0);
        assert!(report.children.is_empty());
        let snap = ri.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.active_parts(), vec![0, 1]);
        snap.validate_epoch().expect("aborted split leaves map intact");
        let stats = ri.repart_stats();
        assert_eq!(stats.splits_aborted, 1);
        assert_eq!(stats.splits_committed, 0);
    }

    #[test]
    fn crash_after_publish_rolls_forward() {
        let ri = RepartIndex::build(corpus(10), &round_robin(10, 2), 2, 8);
        let report = ri.split(1, SplitFate::CrashAfterPublish).expect("split");
        assert!(report.committed && report.rolled_forward);
        assert_eq!(ri.epoch(), 1);
        ri.validate().expect("rolled-forward map valid");
    }

    #[test]
    fn split_refusals() {
        let ri = RepartIndex::build(corpus(6), &round_robin(6, 2), 2, 5);
        assert_eq!(ri.split(9, SplitFate::Commit), Err(SplitError::OutOfRange(9)));
        // Capacity 5: first split (2 -> 4 slots) fits, second would need 6.
        ri.split(0, SplitFate::Commit).expect("first split fits");
        assert_eq!(
            ri.split(1, SplitFate::Commit),
            Err(SplitError::Capacity { need: 6, capacity: 5 })
        );
        let roomy = RepartIndex::build(corpus(6), &round_robin(6, 2), 2, 16);
        roomy.split(0, SplitFate::Commit).expect("split");
        assert_eq!(roomy.split(0, SplitFate::Commit), Err(SplitError::NotActive(0)));
        // A 1-doc partition refuses to split.
        let tiny = RepartIndex::build(corpus(3), &[0, 1, 1], 2, 16);
        assert_eq!(
            tiny.split(0, SplitFate::Commit),
            Err(SplitError::TooSmall { part: 0, docs: 1 })
        );
    }

    #[test]
    fn split_target_prefers_largest_then_lowest_id() {
        let ri = RepartIndex::build(corpus(7), &[0, 0, 0, 1, 1, 2, 2], 3, 16);
        assert_eq!(ri.split_target(), Some(0));
        ri.split(0, SplitFate::Commit).expect("split");
        // Now sizes: closed(3), 2, 2, 2, 1 -> largest active tie 1/2/3, pick 1.
        assert_eq!(ri.split_target(), Some(1));
    }

    /// A direct count of the corpus, the reference the shard sums answer
    /// to: `(documents, tokens, df by term id)`.
    fn counted(corpus: &Corpus) -> (u64, u64, Vec<u64>) {
        let (mut df, mut total_tokens) = (Vec::new(), 0);
        for &(t, tf) in corpus.iter().flatten() {
            let t = t.0 as usize;
            if t >= df.len() {
                df.resize(t + 1, 0);
            }
            df[t] += 1;
            total_tokens += u64::from(tf);
        }
        (corpus.len() as u64, total_tokens, df)
    }

    #[test]
    fn corpus_stats_summed_from_shards_equal_a_corpus_count() {
        // A sparse corpus: an empty document and term ids far apart.
        let sparse: Corpus =
            vec![vec![(TermId(7), 3)], vec![], vec![(TermId(2), 1), (TermId(900), 5)]];
        let cases = [
            (corpus(12), round_robin(12, 2), 2),
            (corpus(9), vec![0, 0, 0, 0, 0, 0, 0, 1, 3], 4),
            // k above the document count: shards 0, 2 and 4..7 are empty.
            (sparse, vec![1, 3, 1], 7),
            (Vec::new(), Vec::new(), 3),
        ];
        for (c, assignment, k) in cases {
            let (n, tokens, df) = counted(&c);
            let ri = RepartIndex::build(c, &assignment, k, k + 3 * SPLIT_FANOUT);
            let got = ri.corpus_stats();
            assert_eq!(got.num_docs(), n, "k={k}");
            let avg = if n == 0 { 0.0 } else { tokens as f64 / n as f64 };
            assert_eq!(got.avg_doc_len().to_bits(), avg.to_bits(), "k={k}");
            for t in 0..df.len() + 2 {
                let want = df.get(t).copied().unwrap_or(0);
                assert_eq!(got.df(TermId(t as u32)), want, "df(term {t})");
            }
            // Splits reshape the shards, never the sums over the active
            // ones: every epoch's snapshot sums to the build-time stats.
            while let Some(target) = ri.split_target() {
                if ri.split(target, SplitFate::Commit).is_err() {
                    break;
                }
                assert_eq!(ri.snapshot().global_stats(), *got, "epoch {}, k={k}", ri.epoch());
            }
            assert_eq!(ri.snapshot().global_stats(), *got, "after splits, k={k}");
        }
    }

    #[test]
    fn corpus_stats_df_out_of_range_is_zero() {
        let cs = RepartIndex::build(corpus(4), &round_robin(4, 2), 2, 2).corpus_stats();
        assert_eq!(cs.df(TermId(9999)), 0);
        let empty = RepartIndex::build(Vec::new(), &[], 1, 1).corpus_stats();
        assert_eq!(empty.num_docs(), 0);
        assert_eq!(empty.avg_doc_len(), 0.0);
    }

    #[test]
    fn schedule_is_deterministic_and_dimension_stable() {
        let a = SplitSchedule::generate_with_crashes(6, 1_000_000, 42, 0.5);
        let b = SplitSchedule::generate_with_crashes(6, 1_000_000, 42, 0.5);
        assert_eq!(a, b);
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.events().iter().all(|e| e.at >= 1 && e.at <= 1_000_000));
        // Dimension stability: a longer schedule contains the shorter
        // one's events as a sub-multiset (per-event draws are label-
        // forked, so earlier events never re-draw).
        let longer = SplitSchedule::generate_with_crashes(9, 1_000_000, 42, 0.5);
        for e in a.events() {
            let in_short = a.events().iter().filter(|x| *x == e).count();
            let in_long = longer.events().iter().filter(|x| *x == e).count();
            assert!(in_long >= in_short, "event {e:?} lost when lengthening");
        }
        let other = SplitSchedule::generate_with_crashes(6, 1_000_000, 43, 0.5);
        assert_ne!(a, other, "different seeds should differ");
    }

    #[test]
    fn snapshot_epoch_is_atomic_under_concurrent_splits() {
        use std::sync::atomic::AtomicBool;
        let ri = Arc::new(RepartIndex::build(corpus(64), &round_robin(64, 2), 2, 32));
        let stop = Arc::new(AtomicBool::new(false));
        let splitter = {
            let ri = Arc::clone(&ri);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while let Some(t) = ri.split_target() {
                    if ri.split(t, SplitFate::Commit).is_err() {
                        break;
                    }
                }
                stop.store(true, Ordering::Relaxed);
            })
        };
        let mut seen = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let snap = ri.snapshot();
            snap.validate_epoch().expect("every snapshot internally consistent");
            assert!(snap.epoch() >= seen, "epochs move forward only");
            seen = snap.epoch();
        }
        splitter.join().expect("splitter thread");
        ri.validate().expect("final map valid");
    }
}
