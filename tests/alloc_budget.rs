//! Allocation budgets of the serving hot path, pinned by a counting
//! allocator: a warmed cache hit allocates once — the hits it returns —
//! and keying a query allocates nothing.
//!
//! The counter is per thread, so tests running in parallel do not count
//! each other's allocations.

use distributed_web_retrieval::partition::doc::{DocPartitioner, RandomPartitioner};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::query::cache::LruCache;
use distributed_web_retrieval::query::engine::{query_key, DistributedEngine, Served};
use distributed_web_retrieval::querylog::model::{QueryId, QueryModel};
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SEED: u64 = 20070415;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; it is not under test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A small web's content-model corpus over 4 random partitions, and a
/// query model over the same content.
fn setup() -> (PartitionedIndex, QueryModel) {
    let web = generate_web(&WebConfig::tiny(), SEED);
    let content = ContentModel::small(8);
    let corpus = content.corpus(&web, SEED);
    let assignment = RandomPartitioner { seed: SEED }.assign(&corpus, 4);
    let index = PartitionedIndex::build(&corpus, &assignment, 4);
    (index, QueryModel::generate(&content, 200, 0.8, 0.9, SEED))
}

#[test]
fn a_warmed_cache_hit_allocates_only_its_hits() {
    let (index, model) = setup();
    let engine = DistributedEngine::new(&index, LruCache::new(64), 1);
    let mut checked = 0;
    for q in 0..model.universe() as u32 {
        let terms: &[TermId] = &model.query(QueryId(q)).terms;
        let cold = engine.query_full(terms, 10);
        if cold.served != Served::Full || cold.hits.is_empty() {
            continue;
        }
        let (n, warm) = allocations(|| engine.query_full(terms, 10));
        assert_eq!(warm.served, Served::CacheHit);
        assert_eq!(warm.hits, cold.hits);
        assert_eq!(n, 1, "query {q}: a cache hit allocates its hits and nothing else");
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} queries had a non-empty answer");
}

#[test]
fn keying_a_query_model_query_allocates_nothing() {
    let (_, model) = setup();
    for q in 0..model.universe() as u32 {
        let terms: &[TermId] = &model.query(QueryId(q)).terms;
        let (n, _) = allocations(|| query_key(terms));
        assert_eq!(n, 0, "query {q} ({} terms)", terms.len());
    }
}
