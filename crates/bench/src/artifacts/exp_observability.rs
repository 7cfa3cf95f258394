//! Experiment **E25**: the observability subsystem observing the whole
//! serving path — and proving it observes without steering.
//!
//! Three claims, all checked live:
//!
//! 1. **Agreement.** The lock-free instruments (`dwr-obs`) that the
//!    engine streams events into must agree *exactly* — bitwise, for the
//!    busy-time gauges — with the offline counters the serving crates
//!    keep for themselves ([`EngineStats`], cache stats,
//!    `MultiSiteStats`). Any drift means an event was dropped, doubled,
//!    or misrouted.
//! 2. **Determinism.** A sequential engine and its parallel twin, each
//!    wired to its own recorder, must produce identical responses *and*
//!    identical instrument snapshots: events are emitted from the
//!    coordinating thread in a deterministic order, never from workers.
//! 3. **Zero cost when off.** The default [`NoopRecorder`] is a ZST and
//!    its instrumented path must not be measurably slower than the
//!    recorded one is with live instruments (a very lenient wall-clock
//!    guard; `tests/observability.rs` pins bit-for-bit equality).
//!
//! The payoff is a Figure-2-style per-server busy-load table and a
//! per-stage latency-tail breakdown regenerated from *live* instruments
//! rather than post-hoc accounting.
//!
//! Run: `cargo run -p dwr-bench --release -- E25 [--smoke]`

use crate::{accelerated_site_traces, site_tier, Ctx, Scale, SEED};
use dwr_avail::failure::DownInterval;
use dwr_obs::report::{busy_load_report, stage_tail_report};
use dwr_obs::{NoopRecorder, ObsConfig, ObsRecorder, Snapshot};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, EngineStats};
use dwr_query::faults::FaultSchedule;
use dwr_query::multisite::MultiSiteConfig;
use dwr_sim::{SimRng, SimTime, DAY, SECOND};
use std::sync::Arc;
use std::time::Instant;

const PARTITIONS: usize = 8;
const SITES: usize = 3;

/// Assert one live counter equals its offline mirror.
fn ck(snap: &Snapshot, name: &str, offline: u64) {
    let live = snap.counter(name).unwrap_or(0);
    assert_eq!(live, offline, "live instrument {name:?} disagrees with the offline counter");
}

fn check_engine_agreement(snap: &Snapshot, s: EngineStats, lookups: u64, backend_queries: u64) {
    ck(snap, "engine.queries", lookups);
    ck(snap, "cache.hits", s.cache_hits + s.stale);
    ck(snap, "cache.misses", lookups - s.cache_hits - s.stale);
    ck(snap, "engine.served.cache_hit", s.cache_hits);
    ck(snap, "engine.served.full", s.full);
    ck(snap, "engine.served.degraded", s.degraded);
    ck(snap, "engine.served.stale", s.stale);
    ck(snap, "engine.served.failed", s.failed);
    ck(snap, "engine.served.partial", s.partial);
    ck(snap, "engine.hedges", s.hedged);
    ck(snap, "broker.queries", backend_queries);
    ck(snap, "scatter.batches", s.full + s.degraded);
    let gathers = snap.histogram("gather.latency_us").map_or(0, |p| p.count());
    assert_eq!(gathers, s.full + s.degraded, "one gather per backend-evaluated query");
}

pub(crate) fn run(ctx: &Ctx) {
    let n_queries: usize = if ctx.smoke { 2_000 } else { 20_000 };
    println!("E25. dwr-obs: live instruments, span traces, and zero-cost-when-off.\n");

    let f = ctx.fixture(Scale::Small);
    let pi = ctx.random_index(Scale::Small, PARTITIONS);

    // ------------------------------------------------------------------
    // (a) One site, two engines: sequential and parallel twins, each with
    // its own recorder. A mid-stream outage of partition 0 (both
    // replicas) exercises the degraded path.
    println!("(a) single site: sequential vs parallel twins under live instruments");
    println!("stream: {n_queries} Zipf queries, {PARTITIONS} partitions x 2 replicas, span");
    println!("sampling 1-in-101; partition 0 fully down for the middle third\n");
    let cfg = || ObsConfig::single_site(PARTITIONS).sample(101);
    let rec_seq = Arc::new(ObsRecorder::new(cfg()));
    let rec_par = Arc::new(ObsRecorder::new(cfg()));
    // Query `i` is served at `i` seconds; both replicas of partition 0
    // are down from the kill query's instant to the revive query's.
    let at = |i: usize| i as SimTime * SECOND;
    let (kill_at, revive_at) = (n_queries / 3, 2 * n_queries / 3);
    let outage = vec![DownInterval { start: at(kill_at), end: at(revive_at) }];
    let schedule = Arc::new(FaultSchedule::from_intervals(vec![vec![outage; 2]], at(n_queries)));
    let seq = DistributedEngine::new(&pi, LruCache::new(512), 2)
        .with_faults(Arc::clone(&schedule))
        .with_obs(Arc::clone(&rec_seq));
    let par = DistributedEngine::new(&pi, LruCache::new(512), 2)
        .with_faults(schedule)
        .with_parallelism(4)
        .with_obs(Arc::clone(&rec_par));
    assert!(par.is_parallel());

    for (i, terms) in f.zipf_terms(0x0B5E, n_queries).iter().enumerate() {
        seq.advance_to(at(i));
        par.advance_to(at(i));
        let a = seq.query_full(terms, 10);
        let b = par.query_full(terms, 10);
        assert_eq!(a.hits, b.hits, "query {i}");
        assert_eq!(a.served, b.served, "query {i}");
        assert_eq!(a.latency, b.latency, "query {i}");
    }

    // Claim 1: exact agreement with the offline counters.
    let s = seq.stats();
    let c = seq.cache_stats();
    let snap = rec_seq.snapshot();
    check_engine_agreement(&snap, s, c.hits + c.misses, seq.broker().queries_processed());
    // The busy-time gauges must match the broker's own accounting to the
    // last bit: same f64 additions, same order.
    let live = rec_seq.busy_us();
    let offline = seq.broker().busy_time();
    assert_eq!(live.len(), offline.len());
    for (p, (l, o)) in live.iter().zip(&offline).enumerate() {
        assert_eq!(l.to_bits(), o.to_bits(), "shard {p} busy-time drifted: {l} vs {o}");
    }
    println!("check: every live counter equals its offline mirror; busy gauges match");
    println!("bitwise across {} shards  [ok]", live.len());

    // Claim 2: the twins' snapshots are identical, not just their
    // responses.
    assert_eq!(
        rec_seq.snapshot().to_json().render(),
        rec_par.snapshot().to_json().render(),
        "parallel scatter must emit the identical event stream"
    );
    println!("check: sequential and parallel snapshots identical (JSON-compare)  [ok]\n");

    // The Figure-2-style payoff: per-server busy load from live gauges.
    println!("per-server busy load (live gauges; paper Fig. 2 shape):");
    println!("{}", busy_load_report(&rec_seq.busy_us()));

    println!("\nper-stage latency tails (live histograms):");
    let shard = snap.histogram("shard.service_us").expect("recorded");
    let gather = snap.histogram("gather.latency_us").expect("recorded");
    let e2e = snap.histogram("engine.latency_us").expect("recorded");
    let stages = [("shard.service", shard), ("gather.latency", gather), ("engine.latency", e2e)];
    println!("{}", stage_tail_report(&stages));

    let spans = rec_seq.spans();
    println!("\nsampled spans: {} retained (1-in-101 of {n_queries} queries)", spans.len());
    for span in spans.iter().take(2) {
        println!("{}", span.render());
    }

    // ------------------------------------------------------------------
    // (b) The site tier: three full serving stacks sharing ONE recorder,
    // under whole-site outage traces. Every MultiSiteStats field must be
    // mirrored exactly by a `site.*` instrument.
    println!("\n(b) site tier: 3 sites, one shared recorder, outage traces");
    let horizon: SimTime = 90 * DAY;
    let rec_tier = Arc::new(ObsRecorder::new(ObsConfig::multi_site(PARTITIONS, SITES)));
    let tier = site_tier(accelerated_site_traces(SITES), 200.0, MultiSiteConfig::default(), || {
        DistributedEngine::new(&pi, LruCache::new(256), 2).with_obs(Arc::clone(&rec_tier))
    });

    let mut rng = SimRng::new(SEED ^ 0x0F42);
    for i in 0..n_queries {
        let t = i as SimTime * horizon / n_queries as SimTime;
        tier.advance_to(t);
        let terms = f.terms(f.queries.sample(&mut rng));
        let region = rng.below(SITES as u64) as u16;
        tier.query(region, &terms, 10);
    }

    let ms = tier.stats();
    let snap = rec_tier.snapshot();
    ck(&snap, "site.served_local", ms.served_local);
    ck(&snap, "site.served_remote", ms.served_remote);
    ck(&snap, "site.degraded", ms.degraded);
    ck(&snap, "site.shed_overload", ms.shed_overload);
    ck(&snap, "site.shed_deadline", ms.shed_deadline);
    ck(&snap, "site.failed", ms.failed);
    ck(&snap, "site.failovers", ms.failovers);
    ck(&snap, "site.wan_hops", ms.wan_hops);
    ck(&snap, "site.added_latency_us", ms.added_latency_us);
    ck(&snap, "engine.hedges", ms.hedged);
    let per_site: u64 = rec_tier.site_served().iter().sum();
    assert_eq!(per_site, ms.served_local + ms.served_remote, "per-site served adds up");
    println!("check: all {SITES}-site tier counters equal MultiSiteStats exactly  [ok]\n");

    println!("tier latency tails (live histograms):");
    let mut stages = Vec::new();
    for name in ["site.latency_us", "wan.rtt_us", "site.backoff_us"] {
        if let Some(p) = snap.histogram(name) {
            stages.push((name, p));
        }
    }
    println!("{}", stage_tail_report(&stages));

    // ------------------------------------------------------------------
    // (c) Zero cost when off: the default recorder is a ZST, and the
    // instrumented path with NoopRecorder must not be slower than the
    // live-instrumented path (lenient 2x wall-clock guard — the point is
    // to catch the no-op path growing real work, not to micro-benchmark).
    println!("\n(c) zero-cost-when-off guard");
    assert_eq!(std::mem::size_of::<NoopRecorder>(), 0, "NoopRecorder must stay a ZST");
    let noop = DistributedEngine::new(&pi, LruCache::new(512), 2);
    let rec_live = Arc::new(ObsRecorder::new(ObsConfig::single_site(PARTITIONS)));
    let live = DistributedEngine::new(&pi, LruCache::new(512), 2).with_obs(Arc::clone(&rec_live));
    let stream = f.zipf_terms(0xC057, n_queries);
    let t0 = Instant::now();
    for terms in &stream {
        noop.query_full(terms, 10);
    }
    let noop_elapsed = t0.elapsed();
    let t1 = Instant::now();
    for terms in &stream {
        live.query_full(terms, 10);
    }
    let live_elapsed = t1.elapsed();
    assert_eq!(noop.stats(), live.stats(), "recorders observe, they never steer");
    assert!(
        noop_elapsed <= live_elapsed * 2,
        "no-op instrumentation must stay free: noop {noop_elapsed:?} vs live {live_elapsed:?}"
    );
    println!(
        "  {n_queries} queries: noop {:.1} ms, live instruments {:.1} ms ({:+.1}% overhead)",
        noop_elapsed.as_secs_f64() * 1e3,
        live_elapsed.as_secs_f64() * 1e3,
        100.0 * (live_elapsed.as_secs_f64() / noop_elapsed.as_secs_f64().max(1e-9) - 1.0),
    );
    println!("  NoopRecorder is zero-sized; identical EngineStats on both paths  [ok]");
    println!("\npaper shape: the Figure-2 busy-load table and the latency-tail breakdown");
    println!("fall out of always-on instruments that cost nothing when disabled and");
    println!("provably never perturb what they measure.");
}
