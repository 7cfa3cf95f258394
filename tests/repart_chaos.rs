//! Repartitioning chaos suite: shard splits under live traffic, per
//! ISSUE 8.
//!
//! Three properties:
//!
//! 1. **Oracle equivalence, exactly once** — at any interleaving of
//!    splits and queries, on sequential and parallel scatter and on
//!    batch and loop admission, a live engine returns the bit-identical
//!    result set a static oracle broker built from the current snapshot
//!    returns, and a full-coverage query sees every document exactly
//!    once (no doc duplicated across the split boundary, none lost).
//! 2. **Crash-safe splits** — replica faults racing split storms
//!    (before-publish and after-publish crash fates) never leave a torn
//!    `PartitionMap`: every observable snapshot validates, and the
//!    epoch only moves forward.
//! 3. **Concurrency** — the `repart_fixed_seed_*` tests are the
//!    deterministic CI anchors: client threads serve a query stream
//!    while a driver thread fires scheduled splits and fault churn;
//!    the proptest blocks widen the net locally.

use dwr_avail::UpDownProcess;
use dwr_partition::parted::Corpus;
use dwr_partition::repart::{RepartIndex, SplitFate, SplitSchedule};
use dwr_query::broker::DocBroker;
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::faults::FaultSchedule;
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MINUTE};
use dwr_text::TermId;
use proptest::prelude::*;
use std::sync::Arc;

mod support;
use support::random_assignment;

/// A corpus where **every** document contains `TermId(0)` (so a
/// `[TermId(0)]` query with `k = docs` must cover the whole corpus)
/// plus per-doc random topical terms from `1..terms`.
fn exactly_once_corpus(docs: u32, terms: u32, seed: u64) -> Corpus {
    let mut rng = SimRng::new(seed);
    (0..docs)
        .map(|d| {
            let mut doc = std::collections::BTreeMap::new();
            doc.insert(TermId(0), 1 + d % 3);
            doc.insert(TermId(1 + rng.below(u64::from(terms - 1)) as u32), 1 + d % 2);
            doc.into_iter().collect()
        })
        .collect()
}

/// A live index over `parts` initial partitions with headroom for
/// splits, all derived from `seed`.
fn build_live(docs: u32, terms: u32, parts: usize, capacity: usize, seed: u64) -> Arc<RepartIndex> {
    let corpus = exactly_once_corpus(docs, terms, seed);
    let assignment = random_assignment(docs, parts, &mut SimRng::new(seed ^ 0xA551));
    Arc::new(RepartIndex::build(corpus, &assignment, parts, capacity))
}

/// The static oracle for the current epoch: a plain single-site broker
/// over the snapshot, scoring with the corpus-wide statistics (exactly
/// what the live engine's shards use), built purely from public APIs.
fn oracle_for(repart: &RepartIndex) -> DocBroker {
    DocBroker::single_site(&repart.snapshot()).with_global_stats(repart.corpus_stats())
}

/// Assert one full-coverage query sees every document exactly once.
fn assert_exactly_once(hits: &[dwr_query::broker::GlobalHit], docs: u32, ctx: &str) {
    let mut seen: Vec<u32> = hits.iter().map(|h| h.doc).collect();
    seen.sort_unstable();
    let before = seen.len();
    seen.dedup();
    assert_eq!(before, seen.len(), "{ctx}: a document was returned twice");
    assert_eq!(seen.len(), docs as usize, "{ctx}: coverage is not the whole corpus");
    assert!(seen.iter().enumerate().all(|(i, &d)| d == i as u32), "{ctx}: unexpected doc ids");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1, single-threaded form: an arbitrary interleaving of
    /// splits and queries, served simultaneously on a sequential and a
    /// parallel engine sharing one live index, stays bit-identical to
    /// the per-epoch static oracle; full-coverage queries see every doc
    /// exactly once at every interleaving point.
    #[test]
    fn any_split_query_interleaving_matches_static_oracle(
        parts in 1usize..4,
        docs in 8u32..40,
        n_steps in 1usize..25,
        threads in 2usize..5,
        k_raw in 1usize..24,
        seed in any::<u64>(),
    ) {
        // The result cache is keyed by terms only, so one k serves the
        // whole case (a cached pre-split answer must equal the
        // post-split oracle — that is the split-invariance on trial).
        let k = k_raw.min(docs as usize);
        let capacity = parts + 2 * n_steps; // never refuse a split for capacity
        let repart = build_live(docs, 8, parts, capacity, seed);
        let seq = DistributedEngine::new_live(&repart, LruCache::new(8), 2);
        let par = DistributedEngine::new_live(&repart, LruCache::new(8), 2)
            .with_parallelism(threads);
        let mut rng = SimRng::new(seed ^ 0x1EAF);
        for step in 0..n_steps {
            if rng.below(3) == 0 {
                if let Some(p) = repart.split_target() {
                    repart.split(p, SplitFate::Commit).expect("capacity provisioned");
                }
            }
            let oracle = oracle_for(&repart);
            // Term 0 is reserved for the full-coverage probe (same
            // cache-key-by-terms reason).
            let terms = [TermId(1 + rng.below(7) as u32)];
            let want = oracle.query(&terms, k);
            let a = seq.query_full(&terms, k);
            let b = par.query_full(&terms, k);
            prop_assert_eq!(&a.hits, &want.hits, "sequential diverges from oracle at step {}", step);
            prop_assert_eq!(&b.hits, &want.hits, "parallel diverges from oracle at step {}", step);
            let all = seq.query_full(&[TermId(0)], docs as usize);
            prop_assert!(matches!(all.served, Served::Full | Served::CacheHit));
            assert_exactly_once(&all.hits, docs, &format!("step {step}"));
        }
        repart.validate().expect("map intact after the storm");
    }

    /// Property 1, batch form: batched admission equals the query loop
    /// across split boundaries — same hits, same outcomes, same
    /// latencies, same counters — on two identically-built live indexes
    /// splitting in lockstep.
    #[test]
    fn batch_equals_loop_across_split_boundaries(
        parts in 1usize..4,
        docs in 8u32..32,
        rounds in 1usize..6,
        batch in 1usize..8,
        seed in any::<u64>(),
    ) {
        let capacity = parts + 2 * rounds;
        let r_loop = build_live(docs, 8, parts, capacity, seed);
        let r_batch = build_live(docs, 8, parts, capacity, seed);
        let e_loop = DistributedEngine::new_live(&r_loop, LruCache::new(16), 2);
        let e_batch = DistributedEngine::new_live(&r_batch, LruCache::new(16), 2);
        let mut rng = SimRng::new(seed ^ 0xBA7C);
        for round in 0..rounds {
            if rng.below(2) == 0 {
                // Same deterministic target on both: states are equal.
                if let Some(p) = r_loop.split_target() {
                    r_loop.split(p, SplitFate::Commit).expect("capacity provisioned");
                    r_batch.split(p, SplitFate::Commit).expect("capacity provisioned");
                }
            }
            let queries: Vec<Vec<TermId>> =
                (0..batch).map(|_| vec![TermId(rng.below(8) as u32)]).collect();
            let k = 1 + rng.below(u64::from(docs)) as usize;
            let a: Vec<_> = queries.iter().map(|t| e_loop.query_full(t, k)).collect();
            let b = e_batch.query_batch(&queries, k);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert_eq!(&x.hits, &y.hits, "hits diverge, round {} query {}", round, i);
                prop_assert_eq!(x.served, y.served, "outcome diverges, round {} query {}", round, i);
                prop_assert_eq!(x.latency, y.latency, "latency diverges, round {} query {}", round, i);
            }
            prop_assert_eq!(r_loop.epoch(), r_batch.epoch());
        }
        prop_assert_eq!(e_loop.stats(), e_batch.stats());
        prop_assert_eq!(e_loop.cache_stats(), e_batch.cache_stats());
    }

    /// Property 2: split storms with injected crash fates racing replica
    /// fault schedules never tear the partition map — every snapshot
    /// validates, the epoch is monotone, and the engine's outcome
    /// counters account for every query.
    #[test]
    fn faulty_split_storms_never_tear_the_map(
        parts in 1usize..4,
        docs in 8u32..40,
        splits in 1usize..8,
        n_queries in 1usize..60,
        crash_rate in 0.0f64..1.0,
        mtbf_hours in 1u64..24,
        seed in any::<u64>(),
    ) {
        let horizon = 2 * DAY;
        let capacity = parts + 2 * splits;
        let repart = build_live(docs, 8, parts, capacity, seed);
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, 2 * HOUR);
        let faults = Arc::new(FaultSchedule::generate(
            capacity, 2, &process, horizon, seed ^ 0xFA17,
        ));
        let schedule = Arc::new(SplitSchedule::generate_with_crashes(
            splits, horizon, seed ^ 0x59A7, crash_rate,
        ));
        let engine = DistributedEngine::new_live(&repart, LruCache::new(16), 2)
            .with_faults(faults)
            .with_splits(schedule);
        let mut rng = SimRng::new(seed ^ 3);
        let mut last_epoch = repart.epoch();
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            let epoch = repart.epoch();
            prop_assert!(epoch >= last_epoch, "epoch moved backward");
            last_epoch = epoch;
            repart.validate().expect("snapshot validates mid-storm");
            let terms = [TermId(rng.below(8) as u32)];
            let (hits, served) = engine.query(&terms, 8);
            if served == Served::Failed {
                prop_assert!(hits.is_empty());
            }
        }
        let s = engine.stats();
        prop_assert_eq!(
            s.cache_hits + s.full + s.degraded + s.stale + s.failed,
            n_queries as u64,
            "every query lands in exactly one outcome counter"
        );
        // Offline ledger agrees with what actually happened.
        let rs = repart.repart_stats();
        prop_assert!(rs.splits_committed + rs.splits_aborted <= splits as u64);
        prop_assert_eq!(rs.children_created, 2 * rs.splits_committed);
        prop_assert_eq!(rs.epoch, rs.splits_committed);
    }
}

/// The concurrent anchor: clients hammer a live engine (mixed point
/// and full-coverage queries, loop and batch admission) while a driver
/// thread sweeps simulated time, firing scheduled splits (with crash
/// fates) and fault churn. No panics; every full-coverage answer that
/// reports `Full` covers each document exactly once; no answer ever
/// duplicates a document; the map validates throughout.
fn concurrent_repart_run(seed: u64) {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 200;
    const DOCS: u32 = 48;
    let parts = 2;
    let splits = 6;
    let capacity = parts + 2 * splits;
    let horizon = DAY;
    let repart = build_live(DOCS, 12, parts, capacity, seed);
    let process = UpDownProcess::exponential(4 * HOUR, 30 * MINUTE);
    let faults = Arc::new(FaultSchedule::generate(capacity, 2, &process, horizon, seed));
    let schedule =
        Arc::new(SplitSchedule::generate_with_crashes(splits, horizon, seed ^ 0x59A7, 0.4));
    let engine = Arc::new(
        DistributedEngine::new_live(&repart, LruCache::new(32), 2)
            .with_faults(faults)
            .with_splits(schedule)
            .with_parallelism(3),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Driver: sweeps simulated time, firing splits and fault churn.
        {
            let engine = Arc::clone(&engine);
            let repart = Arc::clone(&repart);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut t: SimTime = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.advance_to(t % horizon);
                    repart.validate().expect("no torn map observable mid-storm");
                    t += horizon / 400;
                    std::thread::yield_now();
                }
            });
        }
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            handles.push(s.spawn(move || {
                let mut rng = SimRng::new(seed ^ ((c as u64) << 8));
                for i in 0..QUERIES_PER_CLIENT {
                    if i % 7 == 0 {
                        // Full-coverage query: the exactly-once probe.
                        let r = engine.query_full(&[TermId(0)], DOCS as usize);
                        let mut seen: Vec<u32> = r.hits.iter().map(|h| h.doc).collect();
                        seen.sort_unstable();
                        let n = seen.len();
                        seen.dedup();
                        assert_eq!(n, seen.len(), "a doc crossed the split boundary twice");
                        if r.served == Served::Full {
                            assert_eq!(n, DOCS as usize, "Full answer must cover the corpus");
                        }
                    } else if i % 11 == 0 {
                        let qs: Vec<Vec<TermId>> =
                            (0..3).map(|j| vec![TermId(((i + j) % 12) as u32)]).collect();
                        engine.query_batch(&qs, 8);
                    } else {
                        let terms = [TermId(rng.below(12) as u32)];
                        let (hits, served) = engine.query(&terms, 8);
                        if served == Served::Failed {
                            assert!(hits.is_empty());
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no client panics under split storms");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    repart.validate().expect("map intact after the storm");
    let rs = repart.repart_stats();
    assert_eq!(rs.children_created, 2 * rs.splits_committed);
    assert_eq!(rs.epoch, rs.splits_committed);
}

#[test]
fn repart_fixed_seed_1() {
    concurrent_repart_run(0x9E9A_0001);
}

#[test]
fn repart_fixed_seed_2() {
    concurrent_repart_run(0x9E9A_0002);
}

#[test]
fn repart_fixed_seed_3() {
    concurrent_repart_run(0x9E9A_0003);
}
