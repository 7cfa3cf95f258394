//! The partitioned-index structure and corpus plumbing.
//!
//! A [`PartitionedIndex`] is the realization of Figure 1: the corpus's
//! T×D matrix sliced horizontally into `k` sub-collections, each with its
//! own [`InvertedIndex`] over local doc ids, plus the global↔local id
//! mapping brokers need to merge results.
//!
//! # Ownership model
//!
//! Each partition is an [`IndexShard`] behind an `Arc`, so query
//! processors on different threads hold their shard independently — no
//! lifetime ties the serving path to the structure that built the index.
//! The [`PartitionedIndex`] itself is a cheap, `Clone`-able view (a
//! vector of `Arc` shards plus `Arc`-shared id maps); cloning it costs
//! `k + 2` reference-count bumps, never a postings copy. Everything is
//! immutable after `build`, hence `Send + Sync` for free.

use crate::repart::{PartStatus, PartitionMap, SplitError, SPLIT_FANOUT};
use dwr_text::index::{index_documents, InvertedIndex};
use dwr_text::score::GlobalStats;
use dwr_text::{DocId, TermId};
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::SyntheticWeb;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// A corpus: per-document sorted `(term, tf)` vectors, indexed by global
/// document id (= page id in web-derived corpora).
pub type Corpus = Vec<Vec<(TermId, u32)>>;

/// Generate the corpus of a synthetic web: `content.corpus(web, seed)`.
pub fn corpus_from_web(web: &SyntheticWeb, content: &ContentModel, seed: u64) -> Corpus {
    content.corpus(web, seed)
}

/// One self-contained partition: its inverted index over local doc ids
/// plus the local→global id map a merger needs.
///
/// A shard is immutable after build and always held behind an `Arc`, so
/// any number of query-processor threads can evaluate against it
/// concurrently without locks.
#[derive(Debug)]
pub struct IndexShard {
    index: InvertedIndex,
    /// `global_of[local_doc]` = global doc id.
    global_of: Vec<u32>,
}

impl IndexShard {
    /// The shard's inverted index (local doc-id space).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Documents in the shard.
    pub fn num_docs(&self) -> usize {
        self.global_of.len()
    }

    /// Translate a shard-local doc id to the global doc id.
    pub fn to_global(&self, local: DocId) -> u32 {
        self.global_of[local.0 as usize]
    }
}

/// Build shard `p` over the documents `global_of[p]`, in that order, on
/// `available_parallelism().min(k)` scoped workers, the caller being one.
///
/// Each shard is a pure function of its own documents, so the shards are
/// the ones a loop would build, whatever the workers' interleaving.
/// Workers claim shard indices from one counter and write each result
/// into the shard's slot. A panicking build is caught, and once every
/// shard is attempted the lowest panicking shard's payload is re-raised.
fn build_shards(corpus: &Corpus, global_of: Vec<Vec<u32>>) -> Vec<Arc<IndexShard>> {
    let workers = thread::available_parallelism().map_or(1, usize::from).min(global_of.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<thread::Result<InvertedIndex>>>> =
        global_of.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // Relaxed: the counter only hands out indices; the built indexes
        // reach the caller through the slots' mutexes and the scope's join.
        let p = next.fetch_add(1, Ordering::Relaxed);
        let Some(globals) = global_of.get(p) else { return };
        let built = catch_unwind(|| {
            index_documents(globals.iter().map(|&g| corpus[g as usize].as_slice()))
        });
        *slots[p].lock().unwrap_or_else(PoisonError::into_inner) = Some(built);
    };
    thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    global_of
        .into_iter()
        .zip(slots)
        .map(|(globals, slot)| {
            let built = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let index = built.expect("every shard is claimed").unwrap_or_else(|p| resume_unwind(p));
            Arc::new(IndexShard { index, global_of: globals })
        })
        .collect()
}

/// Why `PartitionedIndex::try_build` refused its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildError {
    /// `assignment.len() != corpus.len()`.
    ArityMismatch {
        /// Documents in the corpus.
        docs: usize,
        /// Entries in the assignment vector.
        assignments: usize,
    },
    /// `k == 0`: a zero-partition index cannot hold any document and
    /// breaks downstream per-partition accounting.
    ZeroPartitions,
    /// A document was assigned to a partition `>= k`.
    PartOutOfRange {
        /// The offending document.
        doc: usize,
        /// Its assigned partition.
        part: u32,
        /// The partition count.
        k: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ArityMismatch { docs, assignments } => {
                write!(f, "assignment arity mismatch: {docs} docs, {assignments} assignments")
            }
            BuildError::ZeroPartitions => write!(f, "cannot build a zero-partition index"),
            BuildError::PartOutOfRange { doc, part, k } => {
                write!(f, "partition id out of range: doc {doc} assigned to {part} with k={k}")
            }
        }
    }
}

/// A document-partitioned index: `Arc`-owned shards plus shared id maps
/// and the epoch-stamped [`PartitionMap`] describing which shard slots
/// are active.
///
/// Fresh builds are epoch 0 with every partition active;
/// [`Self::with_split`] derives the next epoch. Closed slots keep their
/// shards (stale readers may still hold them) but are excluded from
/// [`Self::active_parts`], which is the set brokers scatter over.
#[derive(Debug, Clone)]
pub struct PartitionedIndex {
    shards: Vec<Arc<IndexShard>>,
    /// `assignment[global_doc]` = partition (always an *active* one).
    assignment: Arc<[u32]>,
    /// `local_of[global_doc]` = doc id within its partition.
    local_of: Arc<[DocId]>,
    /// Epoch-stamped lifecycle metadata, one entry per shard slot.
    map: Arc<PartitionMap>,
}

impl PartitionedIndex {
    /// Build `k` partition indexes from a corpus and an assignment vector.
    ///
    /// `k` larger than the corpus is fine (trailing partitions are
    /// empty); an empty corpus with `k >= 1` is fine (every partition is
    /// empty). The `k` shard builds are independent and run on the
    /// machine's available cores.
    ///
    /// # Panics
    /// Panics if `assignment.len() != corpus.len()`, `k == 0`, or any
    /// partition id is `>= k`. A shard build that panics (a tf of 0, a
    /// term repeated within a document) re-raises its own panic; when
    /// several do, the lowest partition's.
    pub fn build(corpus: &Corpus, assignment: &[u32], k: usize) -> Self {
        match Self::try_build(corpus, assignment, k) {
            Ok(pi) => pi,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`Self::build`], returning degenerate inputs as a `BuildError`
    /// instead of panicking.
    fn try_build(corpus: &Corpus, assignment: &[u32], k: usize) -> Result<Self, BuildError> {
        if corpus.len() != assignment.len() {
            return Err(BuildError::ArityMismatch {
                docs: corpus.len(),
                assignments: assignment.len(),
            });
        }
        if k == 0 {
            return Err(BuildError::ZeroPartitions);
        }
        if let Some((doc, &part)) = assignment.iter().enumerate().find(|&(_, &p)| (p as usize) >= k)
        {
            return Err(BuildError::PartOutOfRange { doc, part, k });
        }
        let mut global_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut local_of = vec![DocId(0); corpus.len()];
        for (doc, &p) in assignment.iter().enumerate() {
            local_of[doc] = DocId(global_of[p as usize].len() as u32);
            global_of[p as usize].push(doc as u32);
        }
        let shards = build_shards(corpus, global_of);
        let sizes: Vec<usize> = shards.iter().map(|s| s.num_docs()).collect();
        Ok(PartitionedIndex {
            shards,
            assignment: assignment.into(),
            local_of: local_of.into(),
            map: Arc::new(PartitionMap::initial(&sizes)),
        })
    }

    /// Derive the next-epoch index: `parent` closed, its documents
    /// subdivided into [`SPLIT_FANOUT`] fresh child shards appended at
    /// the end. `self` is untouched (pippin rule: subdivide, never
    /// mutate) — stale readers keep a consistent epoch.
    ///
    /// The parent's documents interleave round-robin over the children
    /// in local order, so each child inherits the parent's topical mix
    /// and sizes differ by at most one document. The children's indexes
    /// are filtered out of the parent's posting lists
    /// ([`InvertedIndex::split_round_robin`]), so a split needs no corpus.
    pub fn with_split(&self, parent: u32) -> Result<Self, SplitError> {
        let pu = parent as usize;
        if pu >= self.shards.len() {
            return Err(SplitError::OutOfRange(parent));
        }
        if !self.map.is_active(parent) {
            return Err(SplitError::NotActive(parent));
        }
        let parent_shard = &self.shards[pu];
        let n = parent_shard.num_docs();
        if n < SPLIT_FANOUT {
            return Err(SplitError::TooSmall { part: parent, docs: n });
        }
        let base = self.shards.len() as u32;
        let mut assignment: Vec<u32> = self.assignment.to_vec();
        let mut local_of: Vec<DocId> = self.local_of.to_vec();
        let mut shards = self.shards.clone();
        let mut child_sizes = Vec::with_capacity(SPLIT_FANOUT);
        let children = parent_shard.index.split_round_robin(SPLIT_FANOUT);
        for (c, index) in children.into_iter().enumerate() {
            let id = base + c as u32;
            let globals: Vec<u32> =
                parent_shard.global_of.iter().skip(c).step_by(SPLIT_FANOUT).copied().collect();
            for (local, &g) in globals.iter().enumerate() {
                assignment[g as usize] = id;
                local_of[g as usize] = DocId(local as u32);
            }
            child_sizes.push(globals.len());
            shards.push(Arc::new(IndexShard { index, global_of: globals }));
        }
        Ok(PartitionedIndex {
            shards,
            assignment: assignment.into(),
            local_of: local_of.into(),
            map: Arc::new(self.map.with_split(parent, &child_sizes)),
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.shards.len()
    }

    /// Total documents across partitions.
    pub fn num_docs(&self) -> usize {
        self.assignment.len()
    }

    /// The index of one partition.
    pub fn part(&self, p: usize) -> &InvertedIndex {
        &self.shards[p].index
    }

    /// Shared ownership of one partition's shard: the handle a
    /// query-processor thread holds while evaluating.
    pub fn shard(&self, p: usize) -> Arc<IndexShard> {
        Arc::clone(&self.shards[p])
    }

    /// All shards, in partition order.
    pub fn shards(&self) -> &[Arc<IndexShard>] {
        &self.shards
    }

    /// Partition of a global document.
    pub fn partition_of(&self, global_doc: u32) -> u32 {
        self.assignment[global_doc as usize]
    }

    /// Translate a partition-local hit to the global doc id.
    pub fn to_global(&self, partition: usize, local: DocId) -> u32 {
        self.shards[partition].to_global(local)
    }

    /// Translate a global doc to its partition-local id.
    pub fn to_local(&self, global_doc: u32) -> (u32, DocId) {
        (self.assignment[global_doc as usize], self.local_of[global_doc as usize])
    }

    /// Documents per partition.
    pub fn sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.num_docs()).collect()
    }

    /// Collection-wide statistics: [`GlobalStats::sum`] over the shards.
    ///
    /// Closed parents and their active children would double-count, so
    /// the sum runs over active partitions only; on an epoch-0 index
    /// that is all of them. The active shards partition the corpus, so
    /// the result is the same at every epoch.
    pub fn global_stats(&self) -> GlobalStats {
        GlobalStats::sum(self.active_parts().into_iter().map(|p| self.part(p as usize)))
    }

    /// The epoch-stamped partition lifecycle map.
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Map epoch: number of splits applied since the initial build.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Active partition ids in ascending order — the set that exactly
    /// partitions the document space at this epoch, and therefore the
    /// set a broker must scatter over for exactly-once results.
    pub fn active_parts(&self) -> Vec<u32> {
        self.map.active()
    }

    /// Whether shard slot `p` exists and is active (out-of-range ids
    /// are inactive, not a panic).
    pub fn is_active(&self, p: u32) -> bool {
        self.map.is_active(p)
    }

    /// The global-doc → partition assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Structural self-check of the exactly-once invariant: every
    /// document lives in exactly one *active* partition, id mappings
    /// round-trip, entry sizes match shards, and closed entries point
    /// at younger children that point back. `Err` carries the first
    /// violation found.
    pub fn validate_epoch(&self) -> Result<(), String> {
        let map = &self.map;
        if map.len() != self.shards.len() {
            return Err(format!(
                "map has {} entries, index {} shards",
                map.len(),
                self.shards.len()
            ));
        }
        if self.shards.is_empty() {
            return Err("zero-partition index".into());
        }
        let mut per_part = vec![0usize; self.shards.len()];
        for g in 0..self.num_docs() as u32 {
            let (p, local) = self.to_local(g);
            if !map.is_active(p) {
                return Err(format!("doc {g} assigned to non-active partition {p}"));
            }
            if self.shards[p as usize].to_global(local) != g {
                return Err(format!("doc {g} id mapping does not round-trip via partition {p}"));
            }
            per_part[p as usize] += 1;
        }
        for e in map.entries() {
            let shard_docs = self.shards[e.id as usize].num_docs();
            match &e.status {
                PartStatus::Active => {
                    if e.docs != shard_docs {
                        return Err(format!(
                            "active entry {} records {} docs, shard holds {shard_docs}",
                            e.id, e.docs
                        ));
                    }
                    if per_part[e.id as usize] != shard_docs {
                        return Err(format!(
                            "partition {}: {} docs assigned, shard holds {shard_docs}",
                            e.id, per_part[e.id as usize]
                        ));
                    }
                }
                PartStatus::Closed { children } => {
                    if children.len() != SPLIT_FANOUT {
                        return Err(format!(
                            "closed entry {} has {} children",
                            e.id,
                            children.len()
                        ));
                    }
                    for &c in children {
                        let child = map
                            .entry(c)
                            .ok_or_else(|| format!("entry {} names missing child {c}", e.id))?;
                        if child.parent != Some(e.id) {
                            return Err(format!(
                                "child {c} does not point back at parent {}",
                                e.id
                            ));
                        }
                        if child.epoch <= e.epoch {
                            return Err(format!(
                                "child {c} epoch {} not younger than parent epoch {}",
                                child.epoch, e.epoch
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_text::score::CollectionStats;

    fn corpus() -> Corpus {
        vec![
            vec![(TermId(1), 1)],
            vec![(TermId(1), 2), (TermId(2), 1)],
            vec![(TermId(3), 1)],
            vec![(TermId(2), 1), (TermId(3), 4)],
            vec![(TermId(1), 1), (TermId(3), 1)],
        ]
    }

    #[test]
    fn build_and_mappings_roundtrip() {
        let c = corpus();
        let assignment = vec![0, 1, 0, 1, 2];
        let pi = PartitionedIndex::build(&c, &assignment, 3);
        assert_eq!(pi.num_partitions(), 3);
        assert_eq!(pi.num_docs(), 5);
        assert_eq!(pi.sizes(), vec![2, 2, 1]);
        for g in 0..5u32 {
            let (p, local) = pi.to_local(g);
            assert_eq!(p, assignment[g as usize]);
            assert_eq!(pi.to_global(p as usize, local), g);
        }
    }

    #[test]
    fn partition_indexes_cover_their_docs() {
        let c = corpus();
        let pi = PartitionedIndex::build(&c, &[0, 0, 1, 1, 1], 2);
        assert_eq!(pi.part(0).num_docs(), 2);
        assert_eq!(pi.part(1).num_docs(), 3);
        // Term 1 appears in docs 0, 1 (part 0) and 4 (part 1).
        assert_eq!(pi.part(0).df(TermId(1)), 2);
        assert_eq!(pi.part(1).df(TermId(1)), 1);
        assert_eq!(pi.global_stats().df(TermId(1)), 3);
    }

    #[test]
    fn empty_partition_allowed() {
        let c = corpus();
        let pi = PartitionedIndex::build(&c, &[0, 0, 0, 0, 0], 3);
        assert_eq!(pi.sizes(), vec![5, 0, 0]);
        assert_eq!(pi.part(1).num_docs(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_partition_id() {
        PartitionedIndex::build(&corpus(), &[0, 0, 0, 0, 9], 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_assignment_len() {
        PartitionedIndex::build(&corpus(), &[0, 0], 2);
    }

    #[test]
    fn a_panicking_shard_build_raises_the_lowest_shards_own_panic() {
        // Shard 1 holds a tf of 0 and shard 3 a repeated term. A loop over
        // the shards meets shard 1 first; so must every run on workers.
        // Shard 0 is large, so with two or more cores a spawned worker
        // claims shard 1 while the caller is still building shard 0.
        let big = 20_000;
        let mut c: Corpus =
            (0..big).map(|d| vec![(TermId(d % 97), 1), (TermId(100 + d % 13), 2)]).collect();
        c.push(vec![(TermId(2), 0)]);
        c.push(vec![(TermId(1), 1)]);
        c.push(vec![(TermId(4), 1), (TermId(4), 2)]);
        let mut assignment = vec![0; big as usize];
        assignment.extend([1, 2, 3]);
        for run in 0..20 {
            let payload = catch_unwind(|| PartitionedIndex::build(&c, &assignment, 4))
                .expect_err("two shard builds panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert!(
                msg.is_some_and(|m| m.contains("at least one occurrence")),
                "run {run}: {msg:?}"
            );
        }
    }

    #[test]
    fn try_build_reports_degenerate_inputs_gracefully() {
        let c = corpus();
        assert!(matches!(
            PartitionedIndex::try_build(&c, &[0, 0], 2),
            Err(BuildError::ArityMismatch { docs: 5, assignments: 2 })
        ));
        assert!(matches!(
            PartitionedIndex::try_build(&c, &[0; 5], 0),
            Err(BuildError::ZeroPartitions)
        ));
        assert!(matches!(
            PartitionedIndex::try_build(&c, &[0, 0, 0, 0, 9], 3),
            Err(BuildError::PartOutOfRange { doc: 4, part: 9, k: 3 })
        ));
        // k > #docs and an empty corpus are fine, not errors.
        let wide = PartitionedIndex::try_build(&c, &[0, 1, 2, 3, 4], 9).expect("k > docs ok");
        assert_eq!(wide.sizes().iter().sum::<usize>(), 5);
        let empty = PartitionedIndex::try_build(&Vec::new(), &[], 2).expect("empty corpus ok");
        assert_eq!(empty.num_docs(), 0);
        assert_eq!(empty.active_parts(), vec![0, 1]);
        empty.validate_epoch().expect("empty index valid");
    }

    #[test]
    fn fresh_build_is_epoch_zero_with_all_parts_active() {
        let pi = PartitionedIndex::build(&corpus(), &[0, 1, 0, 1, 2], 3);
        assert_eq!(pi.epoch(), 0);
        assert_eq!(pi.active_parts(), vec![0, 1, 2]);
        assert!(pi.is_active(2) && !pi.is_active(3));
        pi.validate_epoch().expect("fresh build valid");
    }

    #[test]
    fn with_split_subdivides_without_mutating_parent_epoch() {
        let c = corpus();
        let pi = PartitionedIndex::build(&c, &[0, 0, 0, 1, 1], 2);
        let next = pi.with_split(0).expect("split");
        assert_eq!(next.epoch(), 1);
        assert_eq!(next.num_partitions(), 4);
        assert_eq!(next.active_parts(), vec![1, 2, 3]);
        next.validate_epoch().expect("split valid");
        // Every doc reachable exactly once via active partitions, and
        // postings agree with the parent: same global statistics.
        assert_eq!(next.global_stats(), pi.global_stats());
        // The parent index is untouched.
        assert_eq!(pi.epoch(), 0);
        assert_eq!(pi.active_parts(), vec![0, 1]);
        // A closed partition cannot be re-split.
        assert!(matches!(next.with_split(0), Err(SplitError::NotActive(0))));
    }
}
