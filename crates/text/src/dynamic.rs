//! Online index maintenance with geometric partitioning.
//!
//! Section 4 (communication): for collections "such as news articles, and
//! blogs, where updates are so frequent that there is usually some kind of
//! online index maintenance strategy. This dynamic index structure
//! constrains the capacity and the response time of the system since the
//! update operation usually requires locking the index".
//!
//! [`DynamicIndex`] implements the geometric-partitioning strategy of
//! Lester, Moffat & Zobel \[15\]: an in-memory buffer plus on-"disk"
//! segments whose sizes grow geometrically; a flush cascades merges until
//! the size invariant holds. Each merge locks the structure for a time
//! proportional to the postings moved — the lock-stall accounting is the
//! input to the online-maintenance experiment (E14), including the
//! paper's observation that term partitioning *amplifies* the lockout
//! because one document's terms spread over many servers.

use crate::index::{build_index, merge_indexes, InvertedIndex};
use crate::score::GlobalStats;
use crate::search::{search_or, SearchHit};
use crate::{DocId, TermId};

/// Merge policies for the dynamic index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Geometric partitioning with ratio `r`: segment `g` holds at most
    /// `r^(g+1) × buffer_cap` documents; overflow cascades upward.
    Geometric {
        /// Growth ratio (Lester et al. use 2–4).
        r: u32,
    },
    /// Re-merge everything into one segment at every flush (the "rebuild
    /// from scratch" default the paper says production systems use).
    AlwaysMerge,
    /// Never merge: every flush appends a new segment (fast updates,
    /// query cost grows linearly with segments).
    NoMerge,
}

/// Cost accounting of the maintenance work so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Buffer flushes performed.
    pub flushes: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Total documents rewritten by merges (the write amplification).
    pub docs_rewritten: u64,
    /// Total simulated time (µs) the index was write-locked.
    pub lock_time_us: u64,
}

/// Microseconds of lock time charged per document rewritten in a merge.
pub const US_PER_DOC_MERGED: u64 = 50;
/// Microseconds of lock time charged per document in a buffer flush.
pub const US_PER_DOC_FLUSHED: u64 = 20;

struct Segment {
    /// Global id of this segment's first document.
    base: u32,
    index: InvertedIndex,
}

/// An incrementally updatable index.
pub struct DynamicIndex {
    policy: MergePolicy,
    buffer_cap: usize,
    buffer: Vec<Vec<(TermId, u32)>>,
    /// Global id of the first buffered document.
    buffer_base: u32,
    /// Segments ordered oldest (lowest doc ids) first.
    segments: Vec<Segment>,
    next_doc: u32,
    stats: MaintenanceStats,
}

impl DynamicIndex {
    /// Create an empty dynamic index that flushes after `buffer_cap` docs.
    pub fn new(policy: MergePolicy, buffer_cap: usize) -> Self {
        assert!(buffer_cap > 0);
        if let MergePolicy::Geometric { r } = policy {
            assert!(r >= 2, "geometric ratio must be >= 2");
        }
        DynamicIndex {
            policy,
            buffer_cap,
            buffer: Vec::with_capacity(buffer_cap),
            buffer_base: 0,
            segments: Vec::new(),
            next_doc: 0,
            stats: MaintenanceStats::default(),
        }
    }

    /// Number of documents inserted so far.
    pub fn num_docs(&self) -> u32 {
        self.next_doc
    }

    /// Current number of on-disk segments (excluding the buffer).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Maintenance cost counters.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Insert one document; returns its global id. May trigger a flush
    /// and cascade of merges (accounted in [`Self::stats`]).
    pub fn insert(&mut self, doc: Vec<(TermId, u32)>) -> DocId {
        let id = DocId(self.next_doc);
        self.next_doc += 1;
        self.buffer.push(doc);
        if self.buffer.len() >= self.buffer_cap {
            self.flush();
        }
        id
    }

    /// Force a buffer flush (no-op when the buffer is empty).
    pub fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let docs = std::mem::take(&mut self.buffer);
        let flushed = docs.len() as u64;
        let seg = Segment { base: self.buffer_base, index: build_index(&docs) };
        self.buffer_base = self.next_doc;
        self.buffer = Vec::with_capacity(self.buffer_cap);
        self.segments.push(seg);
        self.stats.flushes += 1;
        self.stats.lock_time_us += flushed * US_PER_DOC_FLUSHED;
        self.apply_policy();
    }

    fn merge_last_two(&mut self) {
        let newer = self.segments.pop().expect("two segments");
        let older = self.segments.pop().expect("two segments");
        debug_assert_eq!(older.base + older.index.num_docs(), newer.base);
        let merged_docs = u64::from(older.index.num_docs()) + u64::from(newer.index.num_docs());
        let merged = merge_indexes(&[older.index, newer.index]);
        self.segments.push(Segment { base: older.base, index: merged });
        self.stats.merges += 1;
        self.stats.docs_rewritten += merged_docs;
        self.stats.lock_time_us += merged_docs * US_PER_DOC_MERGED;
    }

    fn apply_policy(&mut self) {
        match self.policy {
            MergePolicy::NoMerge => {}
            MergePolicy::AlwaysMerge => {
                while self.segments.len() > 1 {
                    self.merge_last_two();
                }
            }
            MergePolicy::Geometric { r } => {
                // Invariant: walking from newest to oldest, each segment
                // must be at least r× the combined size of everything
                // newer; otherwise merge the two newest.
                loop {
                    let n = self.segments.len();
                    if n < 2 {
                        break;
                    }
                    let newest = u64::from(self.segments[n - 1].index.num_docs());
                    let older = u64::from(self.segments[n - 2].index.num_docs());
                    if older >= u64::from(r) * newest {
                        break;
                    }
                    self.merge_last_two();
                }
            }
        }
    }

    /// Ranked OR search across all segments and the buffer, scored with
    /// collection-wide (global) statistics so results match a monolithic
    /// index bit-for-bit.
    pub fn search(&self, terms: &[TermId], k: usize) -> Vec<SearchHit> {
        use crate::topk::TopK;
        // Global statistics over segments + a temp buffer index.
        let buffer_index = build_index(&self.buffer);
        let segments = self.segments.iter().map(|s| &s.index);
        let stats = GlobalStats::sum(segments.chain([&buffer_index]));
        let bm = crate::score::Bm25::default();

        let mut top = TopK::new(k.max(1));
        for (base, idx) in self
            .segments
            .iter()
            .map(|s| (s.base, &s.index))
            .chain(std::iter::once((self.buffer_base, &buffer_index)))
        {
            for h in search_or(idx, terms, k, &bm, &stats) {
                top.push(base + h.doc.0, h.score);
            }
        }
        top.into_sorted_vec()
            .into_iter()
            .map(|(doc, score)| SearchHit { doc: DocId(doc), score })
            .collect()
    }

    /// The per-query overhead proxy: one fixed cost per live segment
    /// (open + seek + small-read amplification of fragmented indexes).
    pub fn query_overhead_segments(&self) -> usize {
        self.segments.len() + usize::from(!self.buffer.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(t: u32) -> Vec<(TermId, u32)> {
        vec![(TermId(t % 7), 1 + t % 3), (TermId(100 + t % 3), 1)]
    }

    fn filled(policy: MergePolicy, n: u32) -> DynamicIndex {
        let mut d = DynamicIndex::new(policy, 8);
        for t in 0..n {
            d.insert(doc(t));
        }
        d
    }

    #[test]
    fn search_matches_monolithic_rebuild() {
        for policy in
            [MergePolicy::Geometric { r: 2 }, MergePolicy::AlwaysMerge, MergePolicy::NoMerge]
        {
            let d = filled(policy, 100);
            let corpus: Vec<Vec<(TermId, u32)>> = (0..100).map(doc).collect();
            let mono = build_index(&corpus);
            for q in [vec![TermId(1)], vec![TermId(2), TermId(101)]] {
                // Bit for bit: the aggregated statistics are exact sums.
                let bits = |hits: Vec<SearchHit>| -> Vec<(u32, u32)> {
                    hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect()
                };
                let got = bits(d.search(&q, 10));
                let want = bits(search_or(&mono, &q, 10, &crate::score::Bm25::default(), &mono));
                assert_eq!(got, want, "policy {policy:?} query {q:?}");
            }
        }
    }

    #[test]
    fn geometric_keeps_logarithmic_segments() {
        let d = filled(MergePolicy::Geometric { r: 2 }, 1000);
        // 1000 docs, buffer 8 → 125 flushes; geometric keeps O(log) segs.
        assert!(d.num_segments() <= 10, "segments={}", d.num_segments());
    }

    #[test]
    fn no_merge_accumulates_segments() {
        let d = filled(MergePolicy::NoMerge, 256);
        assert_eq!(d.num_segments(), 256 / 8);
        assert_eq!(d.stats().merges, 0);
    }

    #[test]
    fn always_merge_has_one_segment_but_high_write_amplification() {
        let always = filled(MergePolicy::AlwaysMerge, 512);
        let geo = filled(MergePolicy::Geometric { r: 3 }, 512);
        assert_eq!(always.num_segments(), 1);
        assert!(always.stats().docs_rewritten > 3 * geo.stats().docs_rewritten);
        assert!(always.stats().lock_time_us > geo.stats().lock_time_us);
    }

    #[test]
    fn geometric_beats_no_merge_on_query_overhead() {
        let geo = filled(MergePolicy::Geometric { r: 2 }, 512);
        let nom = filled(MergePolicy::NoMerge, 512);
        assert!(geo.query_overhead_segments() < nom.query_overhead_segments() / 3);
    }

    #[test]
    fn buffer_is_searchable_before_flush() {
        let mut d = DynamicIndex::new(MergePolicy::Geometric { r: 2 }, 100);
        d.insert(vec![(TermId(42), 3)]);
        let hits = d.search(&[TermId(42)], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn doc_ids_are_stable_across_merges() {
        let mut d = DynamicIndex::new(MergePolicy::Geometric { r: 2 }, 4);
        let mut rare_doc = None;
        for t in 0..200u32 {
            let id = if t == 57 {
                let id = d.insert(vec![(TermId(9999), 1)]);
                rare_doc = Some(id);
                id
            } else {
                d.insert(doc(t))
            };
            let _ = id;
        }
        let hits = d.search(&[TermId(9999)], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(Some(hits[0].doc), rare_doc);
    }

    #[test]
    fn stats_accumulate_monotonically() {
        let mut d = DynamicIndex::new(MergePolicy::Geometric { r: 2 }, 4);
        let mut prev = 0u64;
        for t in 0..64u32 {
            d.insert(doc(t));
            let now = d.stats().lock_time_us;
            assert!(now >= prev);
            prev = now;
        }
        assert!(d.stats().flushes >= 16);
    }
}
