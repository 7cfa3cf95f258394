//! Tail-tolerance suite: the engine under heavy-tailed straggler models,
//! hedging policies, and deadline-aware gather, randomized.
//!
//! Five properties (1–4 per ISSUE 7, 5 per ISSUE 19):
//!
//! 1. with no gather deadline, no straggler model, and the default
//!    [`HedgePolicy::OnDeath`], the reworked dispatch path is
//!    **bit-identical** to the pre-tail baseline — the default-constructed
//!    engine and the explicit-policy engine agree on hits, outcomes,
//!    latencies, and every counter (the PR 6 chaos anchors in `chaos.rs`
//!    pin the baseline itself);
//! 2. parallel scatter stays **bit-for-bit equal** to sequential under
//!    every policy × straggler × deadline combination;
//! 3. `query_batch` stays **bit-for-bit equal** to the query-at-a-time
//!    loop under the same combinations;
//! 4. [`Served::Partial`] coverage counts are **exact**: an oracle built
//!    from the public `FaultSchedule` + `StragglerModel` + `service_time`
//!    APIs predicts which partitions make the deadline, and the engine's
//!    `partitions_answered` (and the partition membership of every hit)
//!    must match it;
//! 5. there is **one latency model**: a gather deadline of ∞
//!    (`SimTime::MAX`) is indistinguishable from no deadline at all, with
//!    or without a straggler model, under every policy and fault
//!    schedule.

use dwr_avail::UpDownProcess;
use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_query::cache::LruCache;
use dwr_query::engine::{query_key, DistributedEngine, EngineResponse, HedgePolicy, Served};
use dwr_query::faults::FaultSchedule;
use dwr_query::straggler::{StragglerModel, TailParams};
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MINUTE};
use dwr_text::TermId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Round-robin corpus: doc `d` holds term `d % terms`, so partition
/// membership is `d % partitions` and the coverage oracle can name the
/// partition of every hit.
fn build_rr_index(docs: u32, terms: u32, partitions: usize) -> PartitionedIndex {
    let corpus: Corpus = (0..docs).map(|d| vec![(TermId(d % terms), 1 + d % 3)]).collect();
    let assignment = RoundRobinPartitioner.assign(&corpus, partitions);
    PartitionedIndex::build(&corpus, &assignment, partitions)
}

/// The policy grid the equivalence properties sweep.
fn policy(ix: usize) -> HedgePolicy {
    match ix % 5 {
        0 => HedgePolicy::Never,
        1 => HedgePolicy::OnDeath,
        2 => HedgePolicy::FixedDelay(500),
        3 => HedgePolicy::PercentileTrigger(90.0),
        _ => HedgePolicy::Tied,
    }
}

/// Two engines served the same stream indistinguishably: response by
/// response, then every counter and ledger.
fn same_run(
    (a, from_a): (&DistributedEngine<LruCache>, &[EngineResponse]),
    (b, from_b): (&DistributedEngine<LruCache>, &[EngineResponse]),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(from_a.len(), from_b.len());
    for (i, (x, y)) in from_a.iter().zip(from_b).enumerate() {
        prop_assert_eq!(&x.hits, &y.hits, "hits diverge at query {}", i);
        prop_assert_eq!(x.served, y.served, "outcome diverges at query {}", i);
        prop_assert_eq!(x.latency, y.latency, "latency diverges at query {}", i);
    }
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert_eq!(a.cache_stats(), b.cache_stats());
    prop_assert_eq!(a.dispatch_counts(), b.dispatch_counts());
    prop_assert_eq!(a.broker().busy_time(), b.broker().busy_time());
    Ok(())
}

/// Property 3's comparison: one `query_batch` call against the
/// query-at-a-time loop on an identically built engine at instant `t`.
fn batch_equals_loop(
    build: impl Fn() -> DistributedEngine<LruCache>,
    queries: &[Vec<TermId>],
    t: SimTime,
) -> Result<(), TestCaseError> {
    let (batched, looped) = (build(), build());
    batched.advance_to(t);
    looped.advance_to(t);
    let from_batch = batched.query_batch(queries, 10);
    let from_loop: Vec<_> = queries.iter().map(|q| looped.query_full(q, 10)).collect();
    same_run((&batched, &from_batch), (&looped, &from_loop))
}

/// Property 3, fixed input: a batch repeating a query whose first
/// occurrence comes back `Partial` — and is therefore never cached. The
/// loop form re-dispatches the repeat *in its own position*; a batch
/// that defers it to resolution time dispatches it after every later
/// query, so round-robin cursors (and with them straggler draws,
/// coverage and latency) diverge. A tight gather deadline under a heavy
/// tail makes most seeds hit the case.
#[test]
fn batch_equals_loop_when_a_repeated_query_is_uncacheable() {
    let pi = build_rr_index(30, 15, 4);
    let queries = [vec![TermId(1)], vec![TermId(1)], vec![TermId(2)]];
    let mut partial_repeats = 0;
    for seed in 0..50u64 {
        let model = Arc::new(StragglerModel::drawn(seed, TailParams::heavy()));
        let build = || {
            DistributedEngine::new(&pi, LruCache::new(16), 2)
                .with_stragglers(Arc::clone(&model))
                .with_hedge_policy(HedgePolicy::Never)
                .with_gather_deadline(120 + 20 * (seed % 10))
        };
        batch_equals_loop(build, &queries, 0).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        let first = build().query_full(&queries[0], 10);
        partial_repeats += usize::from(matches!(first.served, Served::Partial { .. }));
    }
    assert!(partial_repeats >= 25, "the fixed input must exercise the case: {partial_repeats}/50");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: the default engine and the explicit `OnDeath` engine
    /// are indistinguishable under random fault schedules — response by
    /// response and counter by counter.
    #[test]
    fn default_policy_is_bit_identical_to_explicit_on_death(
        partitions in 1usize..5,
        replicas in 1usize..4,
        n_queries in 1usize..60,
        mtbf_hours in 1u64..24,
        seed in any::<u64>(),
    ) {
        let pi = build_rr_index(36, 18, partitions);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, 90 * MINUTE);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, horizon, seed ^ 0x7A11,
        ));
        let baseline = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule))
            .with_deadline(HOUR);
        let explicit = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(schedule)
            .with_deadline(HOUR)
            .with_hedge_policy(HedgePolicy::OnDeath);
        let mut rng = SimRng::new(seed ^ 3);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            baseline.advance_to(t);
            explicit.advance_to(t);
            let terms = [TermId(rng.below(18) as u32)];
            let a = baseline.query_full(&terms, 10);
            let b = explicit.query_full(&terms, 10);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge at t={}", t);
            prop_assert_eq!(a.served, b.served, "outcome diverges at t={}", t);
            prop_assert_eq!(a.latency, b.latency, "latency diverges at t={}", t);
        }
        prop_assert_eq!(baseline.stats(), explicit.stats());
        prop_assert_eq!(baseline.cache_stats(), explicit.cache_stats());
        prop_assert_eq!(baseline.dispatch_counts(), explicit.dispatch_counts());
    }

    /// Property 2: parallel ≡ sequential under stragglers, every hedging
    /// policy, faults, and (half the time) a gather deadline.
    #[test]
    fn parallel_equals_sequential_under_stragglers_and_policies(
        partitions in 1usize..5,
        replicas in 1usize..4,
        threads in 2usize..5,
        n_queries in 1usize..50,
        policy_ix in 0usize..5,
        with_deadline in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = build_rr_index(30, 15, partitions);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(8 * HOUR, HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, horizon, seed ^ 0x7A12,
        ));
        let model = Arc::new(StragglerModel::drawn(seed ^ 0x7A13, TailParams::heavy()));
        let build = || {
            let e = DistributedEngine::new(&pi, LruCache::new(16), replicas)
                .with_faults(Arc::clone(&schedule))
                .with_stragglers(Arc::clone(&model))
                .with_hedge_policy(policy(policy_ix));
            if with_deadline { e.with_gather_deadline(1_500) } else { e }
        };
        let seq = build();
        let par = build().with_parallelism(threads);
        let mut rng = SimRng::new(seed ^ 4);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            seq.advance_to(t);
            par.advance_to(t);
            let terms = [TermId(rng.below(15) as u32)];
            let a = seq.query_full(&terms, 10);
            let b = par.query_full(&terms, 10);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge at t={}", t);
            prop_assert_eq!(a.served, b.served, "outcome diverges at t={}", t);
            prop_assert_eq!(a.latency, b.latency, "latency diverges at t={}", t);
        }
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(seq.cache_stats(), par.cache_stats());
        prop_assert_eq!(seq.dispatch_counts(), par.dispatch_counts());
    }

    /// Property 3: batch ≡ query-at-a-time loop under the same straggler
    /// × policy × deadline grid, down to every counter.
    #[test]
    fn batch_equals_loop_under_stragglers_and_policies(
        partitions in 1usize..5,
        replicas in 1usize..4,
        n_queries in 1usize..40,
        policy_ix in 0usize..5,
        with_deadline in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = build_rr_index(30, 15, partitions);
        let process = UpDownProcess::exponential(8 * HOUR, HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, DAY, seed ^ 0x7A14,
        ));
        let model = Arc::new(StragglerModel::drawn(seed ^ 0x7A15, TailParams::heavy()));
        let build = || {
            let e = DistributedEngine::new(&pi, LruCache::new(16), replicas)
                .with_faults(Arc::clone(&schedule))
                .with_stragglers(Arc::clone(&model))
                .with_hedge_policy(policy(policy_ix));
            if with_deadline { e.with_gather_deadline(1_500) } else { e }
        };
        let mut rng = SimRng::new(seed ^ 5);
        let queries: Vec<Vec<TermId>> = (0..n_queries)
            .map(|_| vec![TermId(rng.below(15) as u32)])
            .collect();
        batch_equals_loop(build, &queries, rng.below(DAY))?;
    }

    /// Property 4: `Served::Partial` coverage counts are exact. With one
    /// replica per partition and `HedgePolicy::Never`, the public APIs
    /// fully determine each partition's fate: down at dispatch → missing,
    /// dies mid-service → missing, completes after the deadline → dropped,
    /// otherwise answered. The engine must report exactly that.
    #[test]
    fn partial_coverage_counts_are_exact(
        partitions in 1usize..6,
        n_queries in 1usize..40,
        deadline in 400u64..3_000,
        mtbf_hours in 1u64..24,
        seed in any::<u64>(),
    ) {
        let docs = 48u32;
        let pi = build_rr_index(docs, docs, partitions);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, 1, &process, horizon, seed ^ 0x7A16,
        ));
        let model = Arc::new(StragglerModel::drawn(seed ^ 0x7A17, TailParams::heavy()));
        let engine = DistributedEngine::new(&pi, LruCache::new(4), 1)
            .with_faults(Arc::clone(&schedule))
            .with_stragglers(Arc::clone(&model))
            .with_hedge_policy(HedgePolicy::Never)
            .with_gather_deadline(deadline);
        let mut expected_partials = 0u64;
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            // Distinct term per query: the cache never interferes.
            let terms = [TermId(i as u32 % docs)];
            let qid = query_key(&terms);
            // Oracle: classify every partition from public APIs alone.
            let mut served_parts = 0usize;
            let mut answered = Vec::new();
            for p in 0..partitions {
                if schedule.is_down(p, 0, t) {
                    continue; // no live replica to dispatch to
                }
                let base = engine.broker().service_time(p, &terms);
                let c1 = model.cost(base, p, 0, qid);
                if schedule.fails_during(p, 0, t, t + c1) {
                    continue; // dies mid-service; Never policy won't hedge
                }
                served_parts += 1;
                if c1 <= deadline {
                    answered.push(p);
                }
            }
            let r = engine.query_full(&terms, 16);
            if served_parts == 0 {
                prop_assert_eq!(r.served, Served::Failed, "query {}", i);
                continue;
            }
            if answered.len() < served_parts {
                prop_assert_eq!(
                    r.served,
                    Served::Partial { partitions_answered: answered.len() },
                    "query {} at t={}", i, t
                );
                prop_assert!(
                    r.latency.unwrap() >= deadline,
                    "partials release at the deadline, got {:?}", r.latency
                );
                expected_partials += 1;
            } else if served_parts < partitions {
                prop_assert_eq!(
                    r.served,
                    Served::Degraded { missing: partitions - served_parts },
                    "query {}", i
                );
            } else {
                prop_assert_eq!(r.served, Served::Full, "query {}", i);
            }
            // Every hit must come from a partition the oracle says answered.
            for h in &r.hits {
                prop_assert!(
                    answered.contains(&(h.doc as usize % partitions)),
                    "hit doc {} from unanswered partition (answered {:?})",
                    h.doc, answered
                );
            }
        }
        prop_assert_eq!(engine.stats().partial, expected_partials);
    }

    /// Property 5: an untimed query is a gather deadline of ∞. Adding
    /// `.with_gather_deadline(SimTime::MAX)` — which no completion can
    /// exceed — changes no response and no ledger, whether completions
    /// are drawn from a straggler model or plain, query at a time across
    /// the fault schedule and as one batch. Without faults or stragglers
    /// the deadline-free engine settles `Never`/`OnDeath` dispatches by
    /// its early return while the deadline-∞ engine walks the general
    /// path: the property holds the shortcut to the general path's values.
    #[test]
    fn infinite_gather_deadline_equals_no_deadline(
        partitions in 1usize..5,
        replicas in 1usize..4,
        n_queries in 1usize..40,
        policy_ix in 0usize..5,
        with_faults in any::<bool>(),
        with_stragglers in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pi = build_rr_index(30, 15, partitions);
        let process = UpDownProcess::exponential(8 * HOUR, HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, DAY, seed ^ 0x7A18,
        ));
        let model = Arc::new(StragglerModel::drawn(seed ^ 0x7A19, TailParams::heavy()));
        let build = |deadline: Option<SimTime>| {
            let e = DistributedEngine::new(&pi, LruCache::new(16), replicas)
                .with_hedge_policy(policy(policy_ix));
            let e = if with_faults { e.with_faults(Arc::clone(&schedule)) } else { e };
            let e = if with_stragglers { e.with_stragglers(Arc::clone(&model)) } else { e };
            match deadline {
                Some(d) => e.with_gather_deadline(d),
                None => e,
            }
        };
        let mut rng = SimRng::new(seed ^ 6);
        let queries: Vec<Vec<TermId>> = (0..n_queries)
            .map(|_| vec![TermId(rng.below(15) as u32)])
            .collect();
        let (unbounded, infinite) = (build(None), build(Some(SimTime::MAX)));
        let serve_loop = |e: &DistributedEngine<LruCache>| -> Vec<EngineResponse> {
            let serve = |(i, q): (usize, &Vec<TermId>)| {
                e.advance_to(i as SimTime * DAY / n_queries as SimTime);
                e.query_full(q, 10)
            };
            queries.iter().enumerate().map(serve).collect()
        };
        same_run((&unbounded, &serve_loop(&unbounded)), (&infinite, &serve_loop(&infinite)))?;
        let (unbounded, infinite) = (build(None), build(Some(SimTime::MAX)));
        let t = rng.below(DAY);
        unbounded.advance_to(t);
        infinite.advance_to(t);
        let (from_unbounded, from_infinite) =
            (unbounded.query_batch(&queries, 10), infinite.query_batch(&queries, 10));
        same_run((&unbounded, &from_unbounded), (&infinite, &from_infinite))?;
    }
}

/// Deterministic anchor: a fixed-seed tail pass where every outcome —
/// including `Partial` — lands in exactly one counter, and at least one
/// partial actually occurs.
#[test]
fn tail_fixed_seed_outcomes_account_for_every_query() {
    let partitions = 4;
    let pi = build_rr_index(48, 24, partitions);
    let horizon = 2 * DAY;
    let process = UpDownProcess::exponential(6 * HOUR, HOUR);
    let schedule = Arc::new(FaultSchedule::generate(partitions, 2, &process, horizon, 0x7A11_0001));
    let model = Arc::new(StragglerModel::drawn(0x7A11_0002, TailParams::heavy()));
    let engine = DistributedEngine::new(&pi, LruCache::new(16), 2)
        .with_faults(schedule)
        .with_stragglers(model)
        .with_hedge_policy(HedgePolicy::FixedDelay(800))
        .with_gather_deadline(1_200);
    let n = 400u64;
    let mut rng = SimRng::new(0x7A11_0003);
    for i in 0..n {
        engine.advance_to(i * horizon / n);
        // The second term is absent from the corpus: it leaves the hits
        // unchanged but makes every query key — and therefore every
        // straggler draw — distinct, so the tail actually gets sampled.
        engine.query(&[TermId(rng.below(24) as u32), TermId(1_000 + i as u32)], 8);
    }
    let s = engine.stats();
    let total = s.cache_hits + s.full + s.degraded + s.stale + s.failed + s.partial;
    assert_eq!(total, n, "every query lands in exactly one outcome counter: {s:?}");
    assert!(s.partial > 0, "the anchor exercises deadline-dropped gathers: {s:?}");
    assert!(s.hedged > 0, "the anchor exercises straggler hedges: {s:?}");
    assert_eq!(engine.stats(), s, "stats snapshots are stable once the stream ends");
}
