//! Allocation budgets of the serving hot path, pinned by a counting
//! allocator: a warmed cache hit allocates once — the hits it returns —
//! on one site and through the site tier alike, and so does a warmed
//! dense shard evaluation; keying a query allocates nothing, and neither
//! does moving a fault- and split-scheduled tier's clock while no split
//! is due.
//!
//! The counter is per thread, so tests running in parallel do not count
//! each other's allocations.

use distributed_web_retrieval::avail::failure::{Timeline, UpDownProcess};
use distributed_web_retrieval::partition::doc::{DocPartitioner, RandomPartitioner};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::partition::repart::{RepartIndex, SplitSchedule};
use distributed_web_retrieval::query::cache::LruCache;
use distributed_web_retrieval::query::engine::{query_key, DistributedEngine, Served};
use distributed_web_retrieval::query::faults::FaultSchedule;
use distributed_web_retrieval::query::multisite::{
    MultiSiteConfig, MultiSiteEngine, SiteEngineSpec,
};
use distributed_web_retrieval::querylog::model::{QueryId, QueryModel};
use distributed_web_retrieval::sim::net::Topology;
use distributed_web_retrieval::sim::{SimTime, DAY, HOUR, MINUTE};
use distributed_web_retrieval::text::score::Bm25;
use distributed_web_retrieval::text::search::{search_or_with, EvalStats, EvalStrategy};
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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
fn a_warmed_dense_evaluation_allocates_only_its_hits() {
    let (index, model) = setup();
    let bm25 = Bm25::default();
    let mut checked = 0;
    for p in 0..index.num_partitions() {
        let shard = index.part(p);
        for q in 0..model.universe() as u32 {
            let terms: &[TermId] = &model.query(QueryId(q)).terms;
            let mut ev = EvalStats::default();
            let cold = search_or_with(EvalStrategy::Dense, shard, terms, 10, &bm25, shard, &mut ev);
            if cold.is_empty() {
                continue;
            }
            let (n, warm) = allocations(|| {
                search_or_with(EvalStrategy::Dense, shard, terms, 10, &bm25, shard, &mut ev)
            });
            assert_eq!(warm, cold);
            assert_eq!(n, 1, "shard {p}, query {q}: a dense evaluation allocates its hits");
            checked += 1;
        }
    }
    assert!(checked >= 80, "only {checked} evaluations had a non-empty answer");
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

/// Sites of [`tier`].
const SITES: usize = 3;
/// Horizon of [`tier`]'s schedules.
const HORIZON: SimTime = DAY;

/// A 3-site tier shaped like the soak's: each site serves its own
/// splittable copy of `index` (capacity 8) through 2 replicas per slot,
/// under a generated fault schedule and the shared split schedule. No
/// site goes down, so region 0's queries stay on site 0. Returns each
/// site's index too.
fn tier(
    index: &PartitionedIndex,
    splits: &Arc<SplitSchedule>,
) -> (MultiSiteEngine<LruCache>, Vec<Arc<RepartIndex>>) {
    let process = UpDownProcess::exponential(2 * HOUR, 30 * MINUTE);
    let reparts: Vec<_> =
        (0..SITES).map(|_| Arc::new(RepartIndex::new(index.clone(), 8))).collect();
    let sites = reparts
        .iter()
        .enumerate()
        .map(|(s, repart)| {
            let faults = FaultSchedule::generate(8, 2, &process, HORIZON, SEED ^ s as u64);
            SiteEngineSpec {
                region: s as u16,
                capacity_qps: 100.0,
                engine: DistributedEngine::new_live(repart, LruCache::new(64), 2)
                    .with_faults(Arc::new(faults))
                    .with_splits(Arc::clone(splits)),
                outages: Timeline::always_up(HORIZON),
            }
        })
        .collect();
    let tier = MultiSiteEngine::new(sites, Topology::geo_ring(SITES), MultiSiteConfig::default());
    (tier, reparts)
}

#[test]
fn a_tier_clock_step_with_no_split_due_allocates_nothing() {
    let (index, _) = setup();
    let splits = Arc::new(SplitSchedule::generate(4, HORIZON, SEED));
    let (tier, reparts) = tier(&index, &splits);
    let mut pending = splits.events().iter().map(|ev| ev.at).peekable();
    let mut measured = 0;
    for i in 0..1_000 {
        let t = i * HORIZON / 1_000;
        if pending.peek().is_some_and(|&at| at <= t) {
            while pending.next_if(|&at| at <= t).is_some() {}
            tier.advance_to(t);
            continue;
        }
        let (n, ()) = allocations(|| tier.advance_to(t));
        assert_eq!(n, 0, "advance_to({t}) with no split due");
        measured += 1;
    }
    assert!(measured >= 990, "only {measured} instants had no split due");
    for repart in &reparts {
        assert!(repart.epoch() > 0, "the split schedule fired");
    }
}

#[test]
fn a_warmed_site_tier_cache_hit_allocates_only_its_hits() {
    let (index, model) = setup();
    let splits = Arc::new(SplitSchedule::generate(4, HORIZON, SEED));
    let (tier, _) = tier(&index, &splits);
    tier.advance_to(HORIZON / 2);
    let mut checked = 0;
    for q in 0..model.universe() as u32 {
        let terms: &[TermId] = &model.query(QueryId(q)).terms;
        let cold = tier.query(0, terms, 10);
        let cached = matches!(cold.served, Served::Full | Served::Degraded { .. });
        if !cached || cold.hits.is_empty() {
            continue;
        }
        let (n, warm) = allocations(|| tier.query(0, terms, 10));
        assert_eq!((warm.served, warm.site), (Served::CacheHit, Some(0)));
        assert_eq!(warm.hits, cold.hits);
        assert_eq!(n, 1, "query {q}: a site-tier cache hit allocates its hits and nothing else");
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} queries had a non-empty answer");
}
