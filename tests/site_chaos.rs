//! Site-tier chaos suite: the [`MultiSiteEngine`] under whole-site
//! outage traces, randomized and concurrent.
//!
//! Three properties, per ISSUE 3:
//!
//! 1. the site tier **never panics and never loses a query** — every
//!    query lands in exactly one [`MultiSiteStats`] bucket, even with
//!    client threads racing a clock driver over fault-injected inner
//!    engines;
//! 2. `Served::Failed` is impossible while **any site is live**: an
//!    arbitrary outage schedule that leaves at least one site up yields
//!    only served/degraded/shed outcomes;
//! 3. the parallel scatter path inside each site stays **bit-for-bit
//!    equal** to the sequential one under any site-outage schedule — the
//!    PR 1/2 equivalence lifts to the site tier.
//!
//! The four `site_chaos_fixed_seed_*` tests are the deterministic
//! anchors CI runs; the proptest blocks widen the net locally.

use dwr_avail::failure::{Timeline, UpDownProcess};
use dwr_avail::site::SiteConfig;
use dwr_partition::parted::PartitionedIndex;
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::faults::{site_outage_traces, FaultSchedule};
use dwr_query::multisite::{MultiSiteConfig, MultiSiteEngine, SiteEngineSpec};
use dwr_sim::net::Topology;
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MINUTE};
use dwr_text::TermId;
use proptest::prelude::*;
use std::sync::Arc;

mod support;
use support::build_index;

/// Assemble a site tier: one engine per trace over a shared index, each
/// with its own inner fault schedule, on a geo ring.
fn build_tier(
    pi: &PartitionedIndex,
    traces: Vec<Timeline>,
    horizon: SimTime,
    inner_threads: usize,
    cfg: MultiSiteConfig,
    seed: u64,
) -> MultiSiteEngine<LruCache> {
    let process = UpDownProcess::exponential(12 * HOUR, HOUR);
    let n = traces.len();
    let sites = traces
        .into_iter()
        .enumerate()
        .map(|(s, outages)| {
            let schedule = Arc::new(FaultSchedule::generate(
                pi.num_partitions(),
                2,
                &process,
                horizon,
                seed ^ ((s as u64) << 32),
            ));
            let mut engine = DistributedEngine::new(pi, LruCache::new(32), 2)
                .with_faults(schedule)
                .with_deadline(HOUR);
            if inner_threads > 1 {
                engine = engine.with_parallelism(inner_threads);
            }
            SiteEngineSpec { region: s as u16, capacity_qps: 200.0, engine, outages }
        })
        .collect();
    MultiSiteEngine::new(sites, Topology::geo_ring(n), cfg)
}

/// The concurrent chaos anchor: client threads serve a query stream from
/// rotating regions while a driver thread sweeps simulated time across
/// BIRN-like site outages and the inner fault schedules. The tier must
/// never panic and must account for every query issued.
fn site_chaos_run(seed: u64) {
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 200;
    let horizon = 30 * DAY;
    let pi = build_index(48, 24, 4, seed);
    let traces = site_outage_traces(3, &SiteConfig::birn_like(2), horizon, seed);
    let cfg = MultiSiteConfig { shed_threshold: 0.9, util_window: MINUTE, ..Default::default() };
    let engine = Arc::new(build_tier(&pi, traces, horizon, 3, cfg, seed));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // Outage driver: sweeps simulated time across the horizon.
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
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            handles.push(s.spawn(move || {
                let mut rng = SimRng::new(seed ^ (c as u64) << 8);
                for _ in 0..QUERIES_PER_CLIENT {
                    let region = rng.below(4) as u16; // sometimes no local site
                    let terms = [TermId(rng.below(24) as u32)];
                    let r = engine.query(region, &terms, 8);
                    match r.served {
                        Served::Failed | Served::Shed => {
                            assert!(r.hits.is_empty(), "no-result outcomes return nothing");
                            assert!(r.site.is_none());
                        }
                        _ => assert!(r.site.is_some(), "served queries name their site"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no client panics under site chaos");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let stats = engine.stats();
    assert_eq!(
        stats.total(),
        (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "every query lands in exactly one site-tier bucket: {stats:?}"
    );
}

#[test]
fn site_chaos_fixed_seed_1() {
    site_chaos_run(0x517E_0001);
}

#[test]
fn site_chaos_fixed_seed_2() {
    site_chaos_run(0x517E_0002);
}

#[test]
fn site_chaos_fixed_seed_3() {
    site_chaos_run(0x517E_0003);
}

#[test]
fn site_chaos_fixed_seed_4() {
    site_chaos_run(0x517E_0004);
}

/// A single-threaded pass over the tier is reproducible: same seed, same
/// traces, same outcome sequence and counters.
#[test]
fn site_tier_is_deterministic_given_a_seed() {
    let run = |seed: u64| {
        let horizon = 30 * DAY;
        let pi = build_index(40, 20, 4, seed);
        let traces = site_outage_traces(3, &SiteConfig::birn_like(2), horizon, seed);
        let engine = build_tier(&pi, traces, horizon, 1, MultiSiteConfig::default(), seed);
        let mut log = Vec::new();
        for i in 0..300u64 {
            engine.advance_to(i * horizon / 300);
            let r = engine.query((i % 3) as u16, &[TermId((i % 20) as u32)], 8);
            log.push((r.served, r.site, r.wan_hops, r.latency));
        }
        (log, engine.stats())
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).1, run(8).1, "different seeds explore different schedules");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 2: any outage schedule that leaves at least one site
    /// live yields zero `Failed` queries — only served, degraded, or
    /// explicitly shed outcomes.
    #[test]
    fn live_site_implies_no_failed_queries(
        n_sites in 2usize..5,
        live_pick in any::<u64>(),
        n_queries in 1usize..80,
        mtbf_hours in 1u64..24,
        mttr_hours in 1u64..48,
        seed in any::<u64>(),
    ) {
        let horizon = 10 * DAY;
        // Aggressive outages everywhere except one always-live site.
        let process = UpDownProcess::exponential(mtbf_hours * HOUR, mttr_hours * HOUR);
        let live = (live_pick % n_sites as u64) as usize;
        let root = SimRng::new(seed);
        let traces: Vec<Timeline> = (0..n_sites)
            .map(|s| {
                if s == live {
                    Timeline::always_up(horizon)
                } else {
                    let mut rng = root.fork(s as u64);
                    Timeline::new(process.down_intervals(horizon, &mut rng), horizon)
                }
            })
            .collect();
        let pi = build_index(32, 16, 3, seed);
        let engine = build_tier(&pi, traces, horizon, 1, MultiSiteConfig::default(), seed);
        let mut rng = SimRng::new(seed ^ 3);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            let region = rng.below(n_sites as u64 + 1) as u16;
            let r = engine.query(region, &[TermId(rng.below(16) as u32)], 8);
            prop_assert_ne!(r.served, Served::Failed, "a live site existed at t={}", t);
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.total(), n_queries as u64);
    }

    /// Property 3: per-site parallel scatter stays bit-for-bit equal to
    /// sequential under the same site-outage schedule — responses, sites,
    /// WAN hops, latencies, and final stats.
    #[test]
    fn parallel_equals_sequential_under_site_outages(
        threads in 2usize..5,
        n_queries in 1usize..60,
        seed in any::<u64>(),
    ) {
        let horizon = 20 * DAY;
        let pi = build_index(36, 18, 4, seed);
        let traces = site_outage_traces(3, &SiteConfig::birn_like(2), horizon, seed);
        let cfg = MultiSiteConfig { shed_threshold: 0.9, util_window: MINUTE, ..Default::default() };
        let seq = build_tier(&pi, traces.clone(), horizon, 1, cfg, seed);
        let par = build_tier(&pi, traces, horizon, threads, cfg, seed);
        let mut rng = SimRng::new(seed ^ 4);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            seq.advance_to(t);
            par.advance_to(t);
            let region = rng.below(3) as u16;
            let terms = [TermId(rng.below(18) as u32)];
            let a = seq.query(region, &terms, 10);
            let b = par.query(region, &terms, 10);
            prop_assert_eq!(&a.hits, &b.hits, "hits diverge at t={}", t);
            prop_assert_eq!(a.served, b.served, "outcome diverges at t={}", t);
            prop_assert_eq!(a.site, b.site, "serving site diverges at t={}", t);
            prop_assert_eq!(a.wan_hops, b.wan_hops, "hops diverge at t={}", t);
            prop_assert_eq!(a.latency, b.latency, "latency diverges at t={}", t);
        }
        prop_assert_eq!(seq.stats(), par.stats());
    }
}
