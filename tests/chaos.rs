//! Chaos suite: the query engine under `UpDownProcess`-driven and
//! hand-placed outage schedules, randomized and concurrent.
//!
//! Four properties:
//!
//! 1. the engine **never panics**, whatever the schedule (including
//!    schedules wider than the replica groups they drive);
//! 2. `EngineStats` counters are **consistent** with the observed
//!    [`Served`] outcomes — every query increments exactly one outcome
//!    counter;
//! 3. the parallel scatter path stays **bit-for-bit equal** to the
//!    sequential one under the *same* fault schedule;
//! 4. at any instant, in any order of visits, a query's outcome is what
//!    the schedule says about that instant — the schedule is the only
//!    record of replica liveness.
//!
//! The four `chaos_fixed_seed_*` tests are concurrent anchors: clients
//! serve while two clock drivers race, one sweeping the horizon and one
//! jumping to random instants.

use dwr_avail::failure::DownInterval;
use dwr_avail::UpDownProcess;
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::faults::FaultSchedule;
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MINUTE};
use dwr_text::TermId;
use proptest::prelude::*;
use std::sync::Arc;

mod support;
use support::build_index;

fn outcome_total(s: dwr_query::engine::EngineStats) -> u64 {
    s.cache_hits + s.full + s.degraded + s.stale + s.failed
}

/// One deterministic single-threaded chaos pass: drive the clock through
/// the horizon, serve a mixed stream, and check outcome/counter
/// consistency. Returns the engine for further inspection.
fn single_thread_chaos(
    partitions: usize,
    replicas: usize,
    n_queries: usize,
    process: &UpDownProcess,
    seed: u64,
) -> DistributedEngine<LruCache> {
    let pi = build_index(40, 24, partitions, seed);
    let horizon = 4 * DAY;
    let schedule =
        Arc::new(FaultSchedule::generate(partitions, replicas, process, horizon, seed ^ 0xFA17));
    let engine = DistributedEngine::new(&pi, LruCache::new(16), replicas)
        .with_faults(schedule)
        .with_deadline(HOUR);
    let mut rng = SimRng::new(seed ^ 1);
    for i in 0..n_queries {
        let t = i as SimTime * horizon / n_queries as SimTime;
        engine.advance_to(t);
        let terms = [TermId(rng.below(24) as u32)];
        let (hits, served) =
            if i % 3 == 0 { engine.query_stale_ok(&terms, 8) } else { engine.query(&terms, 8) };
        match served {
            Served::Failed => assert!(hits.is_empty(), "failed queries return nothing"),
            Served::Degraded { missing } => {
                assert!(missing >= 1 && missing < partitions.max(2), "missing={missing}");
            }
            Served::Shed => unreachable!("a single-site engine never sheds"),
            Served::Partial { .. } => unreachable!("no gather deadline configured"),
            Served::Routed { .. } => unreachable!("no router configured"),
            Served::CacheHit | Served::Full | Served::StaleFromCache => {}
        }
    }
    assert_eq!(
        outcome_total(engine.stats()),
        n_queries as u64,
        "every query lands in exactly one outcome counter"
    );
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1+2: random schedules, no panics, consistent counters.
    #[test]
    fn random_schedules_never_panic_and_counters_add_up(
        partitions in 1usize..6,
        replicas in 1usize..4,
        n_queries in 1usize..80,
        mtbf_hours in 1u64..48,
        mttr_minutes in 5u64..360,
        bursty in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let process = if bursty {
            UpDownProcess::bursty(mtbf_hours * HOUR, mttr_minutes * MINUTE, 0.7)
        } else {
            UpDownProcess::exponential(mtbf_hours * HOUR, mttr_minutes * MINUTE)
        };
        single_thread_chaos(partitions, replicas, n_queries, &process, seed);
    }

    /// Property 3: the parallel scatter path is bit-for-bit equal to the
    /// sequential one under the *same* fault schedule — hits, `Served`
    /// outcomes, latencies, and final stats.
    #[test]
    fn parallel_equals_sequential_under_same_schedule(
        partitions in 1usize..5,
        replicas in 1usize..4,
        threads in 2usize..5,
        n_queries in 1usize..60,
        mtbf_hours in 1u64..24,
        seed in any::<u64>(),
    ) {
        let pi = build_index(30, 20, partitions, seed);
        let horizon = 2 * DAY;
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, 2 * HOUR);
        let schedule = Arc::new(FaultSchedule::generate(
            partitions, replicas, &process, horizon, seed ^ 0xC4A0,
        ));
        let seq = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule));
        let par = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(schedule)
            .with_parallelism(threads);
        let mut rng = SimRng::new(seed ^ 2);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            seq.advance_to(t);
            par.advance_to(t);
            let terms = [TermId(rng.below(20) as u32)];
            if i % 3 == 0 {
                let a = seq.query_stale_ok(&terms, 10);
                let b = par.query_stale_ok(&terms, 10);
                prop_assert_eq!(&a.0, &b.0, "stale hits diverge at t={}", t);
                prop_assert_eq!(a.1, b.1, "stale outcome diverges at t={}", t);
            } else {
                let a = seq.query_full(&terms, 10);
                let b = par.query_full(&terms, 10);
                prop_assert_eq!(&a.hits, &b.hits, "hits diverge at t={}", t);
                prop_assert_eq!(a.served, b.served, "outcome diverges at t={}", t);
                prop_assert_eq!(a.latency, b.latency, "latency diverges at t={}", t);
            }
        }
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(seq.cache_stats(), par.cache_stats());
        prop_assert_eq!(seq.dispatch_counts(), par.dispatch_counts());
    }
}

/// Grid steps of [`outcomes_equal_the_schedule_at_any_instant`]'s
/// schedules.
const STEPS: u64 = 12;

/// A hand-placed schedule of `partitions × replicas` pairs whose outages
/// start and end on whole `step`s in `[0, STEPS × step)`, and the raw
/// intervals it was built from.
fn grid_schedule(
    partitions: usize,
    replicas: usize,
    step: SimTime,
    rng: &mut SimRng,
) -> (FaultSchedule, Vec<Vec<Vec<DownInterval>>>) {
    let mut pair = || {
        let outages = rng.below(3);
        (0..outages)
            .map(|_| {
                let start = rng.below(STEPS);
                let end = (start + 1 + rng.below(3)).min(STEPS);
                DownInterval { start: start * step, end: end * step }
            })
            .collect()
    };
    let raw: Vec<Vec<Vec<DownInterval>>> =
        (0..partitions).map(|_| (0..replicas).map(|_| pair()).collect()).collect();
    (FaultSchedule::from_intervals(raw.clone(), STEPS * step), raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 4: outcomes equal the schedule at any instant. Outage ends
    /// lie on an hour grid and every service time is µs-sized, so no
    /// outage starts inside a query; grid instants are visited in random,
    /// non-monotone order on one engine, and the schedule is sometimes
    /// wider and sometimes narrower than the engine. At each instant a
    /// cold query is `Failed`, `Degraded` or `Full` exactly as the raw
    /// intervals say, and a cached one is served stale exactly when no
    /// partition has an up replica.
    #[test]
    fn outcomes_equal_the_schedule_at_any_instant(
        partitions in 1usize..5,
        replicas in 1usize..4,
        sched_partitions in 1usize..7,
        sched_replicas in 1usize..5,
        visits in 1usize..30,
        seed in any::<u64>(),
    ) {
        let pi = build_index(40, 24, partitions, seed);
        let mut rng = SimRng::new(seed ^ 0x6E1D);
        let (schedule, raw) = grid_schedule(sched_partitions, sched_replicas, HOUR, &mut rng);
        let engine = DistributedEngine::new(&pi, LruCache::new(64), replicas)
            .with_faults(Arc::new(schedule));
        let down = |p: usize, r: usize, t: SimTime| {
            raw.get(p).and_then(|group| group.get(r)).is_some_and(|ivs| {
                ivs.iter().any(|iv| iv.start <= t && t < iv.end)
            })
        };
        let up_partitions =
            |t| (0..partitions).filter(|&p| (0..replicas).any(|r| !down(p, r, t))).count();
        // Every outage is over at the horizon: warm the cache there.
        let warm = [TermId(1)];
        engine.advance_to(STEPS * HOUR);
        let fresh = engine.query_full(&warm, 8);
        prop_assert_eq!(fresh.served, Served::Full);
        for visit in 0..visits {
            let t = rng.below(STEPS + 1) * HOUR;
            engine.advance_to(t);
            let up = up_partitions(t);
            // A term no document holds makes every visit's key new.
            let cold = [TermId(rng.below(24) as u32), TermId(1_000 + visit as u32)];
            let expected = match up {
                0 => Served::Failed,
                n if n < partitions => Served::Degraded { missing: partitions - n },
                _ => Served::Full,
            };
            prop_assert_eq!(engine.query_full(&cold, 8).served, expected, "t = {}", t);
            let (hits, served) = engine.query_stale_ok(&warm, 8);
            let expected = if up == 0 { Served::StaleFromCache } else { Served::CacheHit };
            prop_assert_eq!(served, expected, "stale check at t = {}", t);
            prop_assert_eq!(&hits, &fresh.hits);
        }
    }
}

/// A schedule wider than the engine (more partitions, more replicas)
/// must be harmless: the extra targets are ignored.
#[test]
fn oversized_schedule_cannot_crash_the_engine() {
    let pi = build_index(24, 10, 2, 9);
    let process = UpDownProcess::exponential(HOUR, 30 * MINUTE);
    let schedule = Arc::new(FaultSchedule::generate(5, 6, &process, DAY, 3));
    let engine = DistributedEngine::new(&pi, LruCache::new(8), 2).with_faults(schedule);
    for i in 0..200u64 {
        engine.advance_to(i * DAY / 200);
        engine.query(&[TermId((i % 10) as u32)], 5);
    }
    assert_eq!(outcome_total(engine.stats()), 200);
}

/// The concurrent chaos anchor: client threads serve a query stream
/// while two clock drivers race — one sweeping the horizon, one jumping
/// to random, non-monotone instants — over a schedule twice as wide as
/// the engine in both dimensions, so out-of-range pairs are read too.
/// The engine must never panic and the outcome counters must account
/// for every query issued.
fn concurrent_chaos_run(seed: u64) {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 250;
    let partitions = 4;
    let replicas = 2;
    let horizon = DAY;
    let pi = build_index(48, 24, partitions, seed);
    let process = UpDownProcess::exponential(2 * HOUR, 30 * MINUTE);
    let schedule =
        Arc::new(FaultSchedule::generate(2 * partitions, 2 * replicas, &process, horizon, seed));
    let engine = Arc::new(
        DistributedEngine::new(&pi, LruCache::new(32), replicas)
            .with_faults(schedule)
            .with_deadline(HOUR)
            .with_parallelism(3),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Clock driver: sweeps simulated time across the horizon.
        {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut t: SimTime = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.advance_to(t % horizon);
                    t += horizon / 500;
                    std::thread::yield_now();
                }
            });
        }
        // A second clock driver, racing the first with random jumps.
        {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = SimRng::new(seed ^ 0x5AB0);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    engine.advance_to(rng.below(horizon));
                    std::thread::yield_now();
                }
            });
        }
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            handles.push(s.spawn(move || {
                let mut rng = SimRng::new(seed ^ (c as u64) << 8);
                for i in 0..QUERIES_PER_CLIENT {
                    let terms = [TermId(rng.below(24) as u32)];
                    let (hits, served) = if i % 2 == 0 {
                        engine.query_stale_ok(&terms, 8)
                    } else {
                        engine.query(&terms, 8)
                    };
                    if served == Served::Failed {
                        assert!(hits.is_empty());
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no client panics under chaos");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(
        outcome_total(engine.stats()),
        (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "counter totals equal queries served"
    );
}

#[test]
fn chaos_fixed_seed_1() {
    concurrent_chaos_run(0xC4A0_0001);
}

#[test]
fn chaos_fixed_seed_2() {
    concurrent_chaos_run(0xC4A0_0002);
}

#[test]
fn chaos_fixed_seed_3() {
    concurrent_chaos_run(0xC4A0_0003);
}

#[test]
fn chaos_fixed_seed_4() {
    concurrent_chaos_run(0xC4A0_0004);
}
