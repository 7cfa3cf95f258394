//! Routing chaos suite: selective search on the serving path, per
//! ISSUE 9.
//!
//! Three properties:
//!
//! 1. **t = all ≡ unrouted** — a router whose width covers every active
//!    partition is bit-identical to the unrouted `serve` path: hits,
//!    `Served` outcomes, latencies, and every counter, under sequential
//!    and parallel scatter and under batch and loop admission, with
//!    fault schedules racing the stream.
//! 2. **Epoch oracle equivalence** — a routed query racing a live split
//!    returns exactly what [`ShardRouter::oracle_query`] replays offline
//!    against the same epoch snapshot: same hits, same summed cascade
//!    latency, same shards contacted, same broadening rounds.
//! 3. **Concurrency** — the `route_fixed_seed_*` tests are the
//!    deterministic CI anchors: client threads serve a mixed stream
//!    (point, stale-ok, batch) while a driver sweeps simulated time,
//!    firing scheduled splits (with crash fates), fault churn, and the
//!    drift-driven profile refresh. Outcome counters account for every
//!    query, and the live `route.*` instruments agree exactly with the
//!    router's own counters.

use dwr_avail::UpDownProcess;
use dwr_obs::{ObsConfig, ObsRecorder};
use dwr_partition::doc::TrainingResults;
use dwr_partition::repart::{RepartIndex, SplitFate, SplitSchedule};
use dwr_query::broker::DocBroker;
use dwr_query::cache::LruCache;
use dwr_query::engine::{query_key, DistributedEngine, Served};
use dwr_query::faults::FaultSchedule;
use dwr_query::route::{DriftRefresh, ShardRouter};
use dwr_querylog::drift::TopicDrift;
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MINUTE};
use dwr_text::TermId;
use proptest::prelude::*;
use std::sync::Arc;

mod support;
use support::{build_index, build_live};

/// A query-driven training log replayed against the exhaustive oracle
/// for the index's initial epoch: one training query per term, weighted
/// uniformly, with the oracle's top-`k` global doc ids as results.
fn oracle_training(repart: &RepartIndex, terms: u32, k: usize) -> TrainingResults {
    let oracle =
        DocBroker::single_site(&repart.snapshot()).with_global_stats(repart.corpus_stats());
    let queries = (0..terms)
        .map(|t| {
            let hits = oracle.query(&[TermId(t)], k).hits;
            (vec![TermId(t)], 1.0, hits.into_iter().map(|h| h.doc).collect())
        })
        .collect();
    TrainingResults { queries }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1, scatter form: routing with t = all partitions is
    /// bit-identical to the unrouted serve path — hits, outcomes,
    /// latencies, engine stats, cache stats, and per-replica dispatch
    /// counts — on sequential and parallel scatter, under the same
    /// fault schedule, on both selector sources.
    #[test]
    fn routing_with_t_all_matches_unrouted_serve(
        partitions in 1usize..5,
        replicas in 1usize..4,
        threads in 2usize..5,
        n_queries in 1usize..60,
        mtbf_hours in 1u64..24,
        query_driven in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = build_index(30, 20, partitions, seed);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, 2 * HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, horizon, seed ^ 0xC4A0,
        ));
        let router = || -> Arc<ShardRouter> {
            Arc::new(if query_driven {
                // Empty training: every query is cold and delegates to
                // the CORI fallback — the profile path still runs.
                ShardRouter::query_driven(TrainingResults::default(), partitions)
            } else {
                ShardRouter::cori(partitions)
            })
        };
        let plain = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule));
        let routed = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule))
            .with_router(router());
        let routed_par = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(schedule)
            .with_router(router())
            .with_parallelism(threads);
        let mut rng = SimRng::new(seed ^ 2);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            plain.advance_to(t);
            routed.advance_to(t);
            routed_par.advance_to(t);
            let terms = [TermId(rng.below(20) as u32)];
            if i % 3 == 0 {
                let a = plain.query_stale_ok(&terms, 10);
                let b = routed.query_stale_ok(&terms, 10);
                let c = routed_par.query_stale_ok(&terms, 10);
                prop_assert_eq!(&a, &b, "routed stale path diverges at t={}", t);
                prop_assert_eq!(&a, &c, "parallel routed stale path diverges at t={}", t);
            } else {
                let a = plain.query_full(&terms, 10);
                let b = routed.query_full(&terms, 10);
                let c = routed_par.query_full(&terms, 10);
                prop_assert_eq!(&a.hits, &b.hits, "hits diverge at t={}", t);
                prop_assert_eq!(a.served, b.served, "outcome diverges at t={}", t);
                prop_assert_eq!(a.latency, b.latency, "latency diverges at t={}", t);
                prop_assert_eq!(&a.hits, &c.hits, "parallel hits diverge at t={}", t);
                prop_assert_eq!(a.served, c.served, "parallel outcome diverges at t={}", t);
                prop_assert_eq!(a.latency, c.latency, "parallel latency diverges at t={}", t);
            }
        }
        // Every counter: the routed engines must not even count a
        // `Routed` outcome (full width covers every active partition)
        // nor a broadening round.
        prop_assert_eq!(plain.stats(), routed.stats());
        prop_assert_eq!(plain.stats(), routed_par.stats());
        prop_assert_eq!(routed.stats().routed, 0);
        prop_assert_eq!(routed.stats().broadenings, 0);
        prop_assert_eq!(plain.cache_stats(), routed.cache_stats());
        prop_assert_eq!(plain.cache_stats(), routed_par.cache_stats());
        prop_assert_eq!(plain.dispatch_counts(), routed.dispatch_counts());
        prop_assert_eq!(plain.dispatch_counts(), routed_par.dispatch_counts());
    }

    /// Property 1, admission form: batched admission equals the query
    /// loop on routed engines at **any** width (a cascade that may
    /// broaden runs to completion before the next query dispatches),
    /// and at t = all the routed batch equals the unrouted batch
    /// bit-for-bit.
    #[test]
    fn routed_batch_equals_loop_at_any_width(
        partitions in 1usize..5,
        width in 1usize..6,
        rounds in 1usize..5,
        batch in 1usize..8,
        seed in any::<u64>(),
    ) {
        let pi = build_index(30, 12, partitions, seed);
        let e_loop = DistributedEngine::new(&pi, LruCache::new(64), 2)
            .with_router(Arc::new(ShardRouter::cori(width)));
        let e_batch = DistributedEngine::new(&pi, LruCache::new(64), 2)
            .with_router(Arc::new(ShardRouter::cori(width)));
        let e_plain_batch = DistributedEngine::new(&pi, LruCache::new(64), 2);
        let mut rng = SimRng::new(seed ^ 0xBA7C);
        for round in 0..rounds {
            let queries: Vec<Vec<TermId>> =
                (0..batch).map(|_| vec![TermId(rng.below(12) as u32)]).collect();
            let a: Vec<_> = queries.iter().map(|t| e_loop.query_full(t, 8)).collect();
            let b = e_batch.query_batch(&queries, 8);
            let p = e_plain_batch.query_batch(&queries, 8);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert_eq!(&x.hits, &y.hits, "hits diverge, round {} query {}", round, i);
                prop_assert_eq!(x.served, y.served, "outcome diverges, round {} query {}", round, i);
                prop_assert_eq!(x.latency, y.latency, "latency diverges, round {} query {}", round, i);
            }
            if width >= partitions {
                for (i, (x, y)) in b.iter().zip(&p).enumerate() {
                    prop_assert_eq!(&x.hits, &y.hits, "t=all batch hits diverge, round {} query {}", round, i);
                    prop_assert_eq!(x.served, y.served, "t=all batch outcome diverges, round {} query {}", round, i);
                    prop_assert_eq!(x.latency, y.latency, "t=all batch latency diverges, round {} query {}", round, i);
                }
            }
        }
        prop_assert_eq!(e_loop.stats(), e_batch.stats());
        prop_assert_eq!(e_loop.cache_stats(), e_batch.cache_stats());
        prop_assert_eq!(e_loop.dispatch_counts(), e_batch.dispatch_counts());
        // The two routers audited identical streams.
        let (rl, rb) = (
            e_loop.router().expect("routed").stats(),
            e_batch.router().expect("routed").stats(),
        );
        prop_assert_eq!(rl, rb);
        if width >= partitions {
            prop_assert_eq!(e_batch.stats(), e_plain_batch.stats());
            prop_assert_eq!(e_batch.cache_stats(), e_plain_batch.cache_stats());
        }
    }

    /// Property 2: a routed query racing a live split stays bit-identical
    /// to its epoch oracle — [`ShardRouter::oracle_query`] replayed
    /// against a static broker over the same snapshot reproduces hits,
    /// summed cascade latency, shards contacted, and broadening rounds.
    #[test]
    fn routed_queries_racing_splits_match_epoch_oracle(
        parts in 1usize..4,
        docs in 8u32..40,
        n_steps in 1usize..25,
        width in 1usize..5,
        k_raw in 1usize..16,
        query_driven in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = k_raw.min(docs as usize);
        let capacity = parts + 2 * n_steps;
        let repart = build_live(docs, 8, parts, capacity, seed);
        let router = Arc::new(if query_driven {
            ShardRouter::query_driven(oracle_training(&repart, 8, k), width)
        } else {
            ShardRouter::cori(width)
        });
        // Cache of 1 so nearly every query evaluates cold (a repeated
        // term may still hit; those are skipped — a cached pre-split
        // routed answer legitimately differs from the new epoch's).
        let engine = DistributedEngine::new_live(&repart, LruCache::new(1), 2)
            .with_router(Arc::clone(&router));
        let mut rng = SimRng::new(seed ^ 0x1EAF);
        let mut issued = 0u64;
        for step in 0..n_steps {
            if rng.below(3) == 0 {
                if let Some(p) = repart.split_target() {
                    repart.split(p, SplitFate::Commit).expect("capacity provisioned");
                }
            }
            let snap = repart.snapshot();
            let oracle = DocBroker::single_site(&snap).with_global_stats(repart.corpus_stats());
            let terms = [TermId(rng.below(8) as u32)];
            let want = router.oracle_query(&oracle, &snap, &terms, k, query_key(&terms), 0);
            let r = engine.query_full(&terms, k);
            issued += 1;
            if r.served == Served::CacheHit {
                continue;
            }
            prop_assert_eq!(&r.hits, &want.hits, "hits diverge from epoch oracle at step {}", step);
            prop_assert_eq!(r.latency, Some(want.latency), "cascade latency diverges at step {}", step);
            let active = snap.active_parts().len();
            match r.served {
                Served::Routed { partitions_contacted } => {
                    prop_assert_eq!(partitions_contacted, want.contacted);
                    prop_assert!(want.contacted < active, "Routed must mean partitions were skipped");
                }
                Served::Full => prop_assert_eq!(want.contacted, active),
                other => prop_assert!(false, "unexpected outcome without faults: {:?}", other),
            }
        }
        repart.validate().expect("map intact after the storm");
        let s = engine.stats();
        prop_assert_eq!(
            s.cache_hits + s.full + s.degraded + s.stale + s.failed + s.partial + s.routed,
            issued,
            "every query lands in exactly one outcome counter"
        );
        // The router audited exactly the cold evaluations, and its
        // broadening count is the engine's.
        let rs = router.stats();
        prop_assert_eq!(rs.queries, s.full + s.routed + s.degraded + s.failed + s.partial);
        prop_assert_eq!(rs.broadenings, s.broadenings);
    }
}

/// The concurrent anchor: clients hammer a routed live engine (point,
/// stale-ok, and batch admission) while a driver sweeps simulated time,
/// firing scheduled splits (with crash fates), fault churn, and the
/// drift-driven profile refresh. No panics; the outcome counters
/// account for every query issued; the live `route.*` instruments agree
/// exactly with the router's own counters; the partition map validates
/// throughout.
fn concurrent_route_run(seed: u64) {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 220;
    const TERMS: u32 = 12;
    let parts = 2;
    let splits = 5;
    let capacity = parts + 2 * splits;
    let horizon = DAY;
    let repart = build_live(48, TERMS, parts, capacity, seed);
    let process = UpDownProcess::exponential(4 * HOUR, 30 * MINUTE);
    let faults = Arc::new(FaultSchedule::generate(capacity, 2, &process, horizon, seed));
    let schedule =
        Arc::new(SplitSchedule::generate_with_crashes(splits, horizon, seed ^ 0x59A7, 0.3));
    let training = oracle_training(&repart, TERMS, 8);
    let retrain_log = training.clone();
    let router = Arc::new(ShardRouter::query_driven(training, 2).with_refresh(DriftRefresh {
        drift: TopicDrift::reversal(&[0.7, 0.3], horizon),
        interval: horizon / 50,
        threshold: 0.2,
        retrain: Arc::new(move |_| retrain_log.clone()),
    }));
    let rec = Arc::new(ObsRecorder::new(ObsConfig::single_site(capacity).with_route()));
    let engine = Arc::new(
        DistributedEngine::new_live(&repart, LruCache::new(32), 2)
            .with_faults(faults)
            .with_splits(schedule)
            .with_parallelism(3)
            .with_router(Arc::clone(&router))
            .with_obs(Arc::clone(&rec)),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Driver: sweeps simulated time, firing splits, fault churn,
        // and the router's drift check.
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
                    if i % 11 == 0 {
                        // Batch admission: three queries, counted three.
                        let qs: Vec<Vec<TermId>> =
                            (0..3).map(|j| vec![TermId(((i + j) as u32) % TERMS)]).collect();
                        engine.query_batch(&qs, 8);
                    } else if i % 5 == 0 {
                        engine.query_stale_ok(&[TermId(rng.below(u64::from(TERMS)) as u32)], 8);
                    } else {
                        let terms = [TermId(rng.below(u64::from(TERMS)) as u32)];
                        let (hits, served) = engine.query(&terms, 8);
                        if served == Served::Failed {
                            assert!(hits.is_empty());
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no client panics under routed split storms");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    repart.validate().expect("map intact after the storm");
    // Batch iterations issue 3 queries, the rest 1.
    let batches_per_client = QUERIES_PER_CLIENT.div_ceil(11);
    let issued = (CLIENTS * (QUERIES_PER_CLIENT + 2 * batches_per_client)) as u64;
    let s = engine.stats();
    assert_eq!(
        s.cache_hits + s.full + s.degraded + s.stale + s.failed + s.partial + s.routed,
        issued,
        "counter totals equal queries issued"
    );
    // Live `route.*` instruments agree exactly with the router's own
    // counters — the cross-check `exp_selective` also asserts offline.
    let rs = router.stats();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("route.queries"), Some(rs.queries));
    assert_eq!(snap.counter("route.shards_contacted"), Some(rs.shards_contacted));
    assert_eq!(snap.counter("route.broadenings"), Some(rs.broadenings));
    assert_eq!(snap.counter("route.covered"), Some(rs.covered));
    assert_eq!(snap.counter("route.profiles"), Some(rs.profiles_built));
    assert_eq!(snap.counter("route.retrains"), Some(rs.retrains));
    assert_eq!(snap.counter("engine.served.routed"), Some(s.routed));
    assert_eq!(rs.broadenings, s.broadenings, "router and engine agree on cascade rounds");
    assert_eq!(
        rs.queries,
        s.full + s.routed + s.degraded + s.failed + s.partial,
        "the router audited exactly the cold evaluations"
    );
    let contacted = snap.histogram("route.contacted").expect("contacted histogram");
    assert_eq!(contacted.count(), rs.queries);
}

#[test]
fn route_fixed_seed_1() {
    concurrent_route_run(0x9075_0001);
}

#[test]
fn route_fixed_seed_2() {
    concurrent_route_run(0x9075_0002);
}

#[test]
fn route_fixed_seed_3() {
    concurrent_route_run(0x9075_0003);
}
