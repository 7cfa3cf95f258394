//! The tentpole concurrency guarantee, as a property: for *any* corpus,
//! partitioning, replica-failure pattern, and query stream, the parallel
//! scatter-gather path produces **bit-for-bit** the same merged top-k
//! hits, `Served` outcomes, and simulated latencies as the sequential
//! path — and leaves identical busy-time accounting behind.
//!
//! This holds by construction (the gather phase walks partitions in
//! partition order regardless of completion order); the property test
//! keeps it true under refactoring.

use dwr_avail::failure::DownInterval;
use dwr_avail::UpDownProcess;
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_query::cache::LruCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::faults::FaultSchedule;
use dwr_query::DocBroker;
use dwr_sim::{SimRng, SimTime, DAY, HOUR};
use dwr_text::search::EvalStrategy;
use dwr_text::TermId;
use proptest::prelude::*;
use std::sync::Arc;

/// Build a partitioned index from a generated corpus, assigning each doc
/// to a partition with a seed-derived (deterministic) assignment.
fn build_partitioned(
    docs: &[std::collections::BTreeMap<u32, u32>],
    k: usize,
    seed: u64,
) -> PartitionedIndex {
    let corpus: Corpus =
        docs.iter().map(|doc| doc.iter().map(|(&t, &tf)| (TermId(t), tf)).collect()).collect();
    let mut rng = SimRng::new(seed);
    let assignment: Vec<u32> = corpus.iter().map(|_| rng.below(k as u64) as u32).collect();
    PartitionedIndex::build(&corpus, &assignment, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Broker level: parallel scatter ≡ sequential scatter on random
    /// corpora and query streams, for hits, latency, and busy time.
    #[test]
    fn broker_parallel_equals_sequential(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..30, 1u32..5, 0..6),
            1..40,
        ),
        k in 1usize..6,
        threads in 2usize..5,
        queries in prop::collection::vec(prop::collection::vec(0u32..35, 0..4), 1..25),
        topk in 1usize..15,
        seed in any::<u64>(),
    ) {
        let pi = build_partitioned(&docs, k, seed);
        let seq = DocBroker::single_site(&pi);
        let par = DocBroker::single_site(&pi).parallel(threads);
        for q in &queries {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let a = seq.query(&terms, topk);
            let b = par.query(&terms, topk);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge on {:?}", terms);
            prop_assert_eq!(a.latency, b.latency, "latency diverges on {:?}", terms);
            prop_assert_eq!(a.partitions_used, b.partitions_used);
        }
        prop_assert_eq!(seq.busy_time(), par.busy_time());
        prop_assert_eq!(seq.queries_processed(), par.queries_processed());
    }

    /// Engine level: the full stack (cache → replica availability →
    /// scatter-gather) stays equivalent, including `Served` outcomes,
    /// under random replica failures.
    #[test]
    fn engine_parallel_equals_sequential(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..25, 1u32..4, 0..5),
            1..30,
        ),
        k in 1usize..5,
        threads in 2usize..5,
        queries in prop::collection::vec(prop::collection::vec(0u32..30, 0..4), 1..30),
        topk in 1usize..12,
        dead_mask in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let pi = build_partitioned(&docs, k, seed);
        // Identical replica failures on both engines, down from the
        // engines' starting instant on (never the whole pair of a
        // partition: keep at least replica 1 up so Failed vs Degraded
        // stays reachable but deterministic).
        let replica_0 = |p: usize| {
            let dead = dead_mask & (1 << (p % 8)) != 0;
            if dead { vec![DownInterval { start: 0, end: DAY }] } else { vec![] }
        };
        let schedule = Arc::new(FaultSchedule::from_intervals(
            (0..k).map(|p| vec![replica_0(p), vec![]]).collect(),
            DAY,
        ));
        let seq = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(Arc::clone(&schedule));
        let par = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(schedule)
            .with_parallelism(threads);
        for q in &queries {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let a = seq.query_full(&terms, topk);
            let b = par.query_full(&terms, topk);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge on {:?}", terms);
            prop_assert_eq!(a.served, b.served, "outcome diverges on {:?}", terms);
            prop_assert_eq!(a.latency, b.latency, "latency diverges on {:?}", terms);
        }
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(seq.cache_stats(), par.cache_stats());
    }

    /// Evaluator-strategy equivalence through the full stack: a dense
    /// engine and an exhaustive engine return bit-identical responses,
    /// counters and work counters on any corpus and query stream.
    #[test]
    fn engine_dense_equals_exhaustive(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..25, 1u32..4, 0..5),
            1..30,
        ),
        k in 1usize..5,
        queries in prop::collection::vec(prop::collection::vec(0u32..30, 0..4), 1..25),
        topk in 1usize..12,
        seed in any::<u64>(),
    ) {
        let pi = build_partitioned(&docs, k, seed);
        let ex = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_strategy(EvalStrategy::Exhaustive);
        let dense = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_strategy(EvalStrategy::Dense);
        for q in &queries {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            let a = ex.query_full(&terms, topk);
            let b = dense.query_full(&terms, topk);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge on {:?}", terms);
            prop_assert_eq!(a.served, b.served, "outcome diverges on {:?}", terms);
            prop_assert_eq!(a.latency, b.latency, "latency diverges on {:?}", terms);
        }
        prop_assert_eq!(ex.stats(), dense.stats());
        prop_assert_eq!(ex.broker().busy_time(), dense.broker().busy_time());
        prop_assert_eq!(ex.broker().eval_stats(), dense.broker().eval_stats());
    }

    /// Batched admission ≡ the query-at-a-time loop, through broker and
    /// engine: same responses, same counters, same per-replica dispatch
    /// ledgers, on any corpus and query stream (duplicates included; the
    /// cache is sized to hold the batch, the documented regime where the
    /// equivalence is exact).
    #[test]
    fn batched_admission_equals_query_loop(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..25, 1u32..4, 0..5),
            1..30,
        ),
        k in 1usize..5,
        threads in 2usize..5,
        queries in prop::collection::vec(prop::collection::vec(0u32..30, 0..4), 1..25),
        topk in 1usize..12,
        parallel_batch in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = build_partitioned(&docs, k, seed);
        let terms: Vec<Vec<TermId>> =
            queries.iter().map(|q| q.iter().map(|&t| TermId(t)).collect()).collect();

        // Broker level.
        let seq = DocBroker::single_site(&pi);
        let bat = DocBroker::single_site(&pi);
        let bat = if parallel_batch { bat.parallel(threads) } else { bat };
        let loop_resps: Vec<_> = terms.iter().map(|t| seq.query(t, topk)).collect();
        let batch_resps = bat.query_batch(&terms, topk);
        for (a, b) in loop_resps.iter().zip(&batch_resps) {
            prop_assert_eq!(&a.hits, &b.hits);
            prop_assert_eq!(a.latency, b.latency);
            prop_assert_eq!(a.partitions_used, b.partitions_used);
        }
        prop_assert_eq!(seq.busy_time(), bat.busy_time());
        prop_assert_eq!(seq.eval_stats(), bat.eval_stats());

        // Engine level (cache wide enough for the whole batch).
        let looped = DistributedEngine::new(&pi, LruCache::new(64), 2);
        let batched = DistributedEngine::new(&pi, LruCache::new(64), 2);
        let batched = if parallel_batch { batched.with_parallelism(threads) } else { batched };
        let a: Vec<_> = terms.iter().map(|t| looped.query_full(t, topk)).collect();
        let b = batched.query_batch(&terms, topk);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.hits, &y.hits);
            prop_assert_eq!(x.served, y.served);
            prop_assert_eq!(x.latency, y.latency);
        }
        prop_assert_eq!(looped.stats(), batched.stats());
        prop_assert_eq!(looped.cache_stats(), batched.cache_stats());
        prop_assert_eq!(looped.dispatch_counts(), batched.dispatch_counts());
        prop_assert_eq!(looped.broker().eval_stats(), batched.broker().eval_stats());
    }

    /// Engine level, fault-injected: under one `UpDownProcess`-derived
    /// schedule applied to both engines (same `Arc`, same `advance_to`
    /// instants), sequential and parallel serving stay identical —
    /// hits, `Served` outcomes, latencies (including hedge penalties),
    /// stats, and per-replica dispatch ledgers.
    #[test]
    fn engine_parallel_equals_sequential_under_fault_schedule(
        docs in prop::collection::vec(
            prop::collection::btree_map(0u32..25, 1u32..4, 0..5),
            1..30,
        ),
        k in 1usize..5,
        replicas in 1usize..4,
        threads in 2usize..5,
        n_queries in 1usize..40,
        mtbf_hours in 1u64..24,
        mttr_hours in 1u64..6,
        seed in any::<u64>(),
    ) {
        let pi = build_partitioned(&docs, k, seed);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, mttr_hours * HOUR);
        let schedule = Arc::new(FaultSchedule::generate(k, replicas, &process, horizon, seed));
        let seq = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule));
        let par = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(schedule)
            .with_parallelism(threads);
        let mut rng = SimRng::new(seed ^ 0xE0_FA_17);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            seq.advance_to(t);
            par.advance_to(t);
            let terms: Vec<TermId> =
                (0..rng.below(4)).map(|_| TermId(rng.below(30) as u32)).collect();
            let a = seq.query_full(&terms, 10);
            let b = par.query_full(&terms, 10);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge on {:?} at t={}", &terms, t);
            prop_assert_eq!(a.served, b.served, "outcome diverges on {:?} at t={}", &terms, t);
            prop_assert_eq!(a.latency, b.latency, "latency diverges on {:?} at t={}", &terms, t);
        }
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(seq.cache_stats(), par.cache_stats());
        prop_assert_eq!(seq.dispatch_counts(), par.dispatch_counts());
    }
}
