//! Experiment **E29**: online repartitioning — availability and latency
//! while shards split under live traffic, versus an offline rebuild.
//!
//! A [`RepartIndex`] starts at `SERVERS` shards and subdivides under a
//! [`SplitSchedule`] storm (crash fates included) while the engine keeps
//! answering the Figure-2 query stream. The offline baseline reaches the
//! same final layout the classic way: each split is a rebuild that takes
//! the affected shard out of service for a lockout window proportional
//! to the documents re-indexed.
//!
//! Three claims, checked live:
//!
//! 1. **Zero failed queries during the split storm.** Every replica
//!    stays up, so the live engine serves every query `Full` (or from
//!    cache) across every epoch boundary — no `Failed`, no `Degraded`,
//!    no `Partial` (asserted).
//! 2. **The offline rebuild pays in coverage.** Queries landing in a
//!    rebuild lockout window lose the shard under reconstruction and
//!    come back `Degraded` (> 0 asserted); live availability strictly
//!    exceeds the baseline's.
//! 3. **Live telemetry matches offline truth.** The `repart.*`
//!    instruments recorded during the storm equal the index's own
//!    [`RepartStats`] counter for counter, and the epoch gauge equals
//!    the final epoch (asserted exactly).
//!
//! Run: `cargo run -p dwr-bench --release -- E29 [--smoke]`

use crate::{Ctx, Scale, SEED};
use dwr_avail::failure::DownInterval;
use dwr_obs::recorder::{ObsConfig, ObsRecorder};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_partition::repart::{RepartIndex, SplitSchedule};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::faults::FaultSchedule;
use dwr_sim::stats::Samples;
use dwr_sim::{SimTime, DAY, SECOND};
use dwr_text::TermId;
use std::sync::Arc;

const SERVERS: usize = 8;
const REPLICAS: usize = 2;
const POOL_THREADS: usize = 4;
const K: usize = 10;
const SPLITS: usize = 8;
const CRASH_RATE: f64 = 0.25;
const HORIZON: SimTime = DAY;
/// Offline-rebuild cost model: simulated µs of shard lockout per
/// document re-indexed (fetch from the store, re-invert, swap). Only the
/// *ratio* matters — lockout grows linearly with the documents moved,
/// which is exactly what the epoch-stamped split avoids paying.
const REINDEX_US_PER_DOC: SimTime = SECOND / 4;

struct Cell {
    arch: &'static str,
    answered: usize,
    full_pct: f64,
    degraded: u64,
    failed: u64,
    p50: f64,
    p99: f64,
    epochs: u64,
    lockout_s: f64,
}

/// One committed split as the offline baseline must replay it: a rebuild
/// of the epoch-0 shard the split target descends from.
struct Rebuild {
    start: SimTime,
    end: SimTime,
    root: usize,
}

/// Replay the storm offline to learn what the baseline must rebuild:
/// for every *committed* split, the epoch-0 ancestor shard and the
/// document count it re-indexes.
fn plan_rebuilds(
    corpus: &Corpus,
    assignment: &[u32],
    schedule: &SplitSchedule,
) -> (Vec<Rebuild>, u64) {
    let capacity = SERVERS + 2 * SPLITS;
    let scratch = RepartIndex::build(corpus.to_vec(), assignment, SERVERS, capacity);
    let mut rebuilds = Vec::new();
    for ev in schedule.events() {
        let Some(parent) = scratch.split_target() else { continue };
        let Ok(report) = scratch.split(parent, ev.fate) else { continue };
        if !report.committed {
            continue;
        }
        // Walk the parent chain back to the epoch-0 layout: that is the
        // shard the offline rebuild takes out of service.
        let snap = scratch.snapshot();
        let mut root = parent;
        while let Some(p) = snap.map().entry(root).and_then(|e| e.parent) {
            root = p;
        }
        let lockout = report.docs_split as SimTime * REINDEX_US_PER_DOC;
        rebuilds.push(Rebuild { start: ev.at, end: ev.at + lockout, root: root as usize });
    }
    let final_epoch = scratch.epoch();
    (rebuilds, final_epoch)
}

fn percentiles(raw: Vec<f64>) -> (f64, f64) {
    let mut lat = Samples::with_capacity(raw.len());
    for v in raw {
        lat.push(v);
    }
    (lat.percentile(50.0), lat.percentile(99.0))
}

/// The live arm: splits fire from the schedule while the stream runs;
/// every query sees one epoch-consistent snapshot, so no outcome is ever
/// worse than `Full`.
fn run_live(
    corpus: &Corpus,
    assignment: &[u32],
    stream: &[Vec<TermId>],
    schedule: &Arc<SplitSchedule>,
) -> Cell {
    let capacity = SERVERS + 2 * SPLITS;
    let repart = Arc::new(RepartIndex::build(corpus.to_vec(), assignment, SERVERS, capacity));
    let rec = Arc::new(ObsRecorder::new(ObsConfig::single_site(capacity).sample(0).with_repart()));
    let engine = DistributedEngine::new_live(&repart, LruCache::new(512), REPLICAS)
        .with_splits(Arc::clone(schedule))
        .with_parallelism(POOL_THREADS)
        .with_obs(Arc::clone(&rec));

    let mut raw: Vec<f64> = Vec::with_capacity(stream.len());
    let mut last_epoch = repart.epoch();
    for (i, terms) in stream.iter().enumerate() {
        engine.advance_to(i as SimTime * HORIZON / stream.len() as SimTime);
        let epoch = repart.epoch();
        assert!(epoch >= last_epoch, "epochs only advance");
        last_epoch = epoch;
        let r = engine.query_full(terms, K);
        assert!(
            matches!(r.served, Served::Full | Served::CacheHit),
            "query {i} during the storm was {:?}, not Full/CacheHit",
            r.served
        );
        if r.served == Served::Full {
            raw.push(r.latency.expect("served queries carry a latency") as f64);
        }
    }
    engine.advance_to(HORIZON);
    repart.validate().expect("no torn map after the storm");

    // Claim 1: with every replica alive, the storm costs nothing in
    // coverage — the outcome counters prove it.
    let s = engine.stats();
    assert_eq!(s.failed, 0, "zero failed queries during the split storm");
    assert_eq!(s.degraded, 0, "no degraded answers during the split storm");
    assert_eq!(s.partial + s.stale, 0, "no partial or stale answers either");
    assert_eq!(s.full + s.cache_hits, stream.len() as u64, "every query answered");

    // Claim 3: the repart.* instruments recorded live must equal the
    // index's own offline accounting, exactly.
    let rs = repart.repart_stats();
    let snap = rec.snapshot();
    assert_eq!(snap.counter("repart.splits"), Some(rs.splits_committed), "repart.splits");
    assert_eq!(snap.counter("repart.aborts"), Some(rs.splits_aborted), "repart.aborts");
    assert_eq!(snap.counter("repart.children"), Some(rs.children_created), "repart.children");
    assert_eq!(snap.gauge("repart.epoch"), Some(rs.epoch as f64), "repart.epoch");
    assert_eq!(rs.splits_committed + rs.splits_aborted, SPLITS as u64, "every event resolved");

    let answered = raw.len();
    let (p50, p99) = percentiles(raw);
    Cell {
        arch: "live-split",
        answered,
        full_pct: 100.0,
        degraded: 0,
        failed: 0,
        p50,
        p99,
        epochs: rs.epoch,
        lockout_s: 0.0,
    }
}

/// The offline baseline: the static epoch-0 layout `pi`, whose shards
/// go dark for `docs × REINDEX_US_PER_DOC` whenever the storm would have
/// split them.
fn run_offline(
    pi: &PartitionedIndex,
    stream: &[Vec<TermId>],
    rebuilds: &[Rebuild],
    final_epoch: u64,
) -> Cell {
    // Query `i` is served at `i × HORIZON / n`. Every replica of a
    // rebuilt shard is down over its window, with both ends moved up to
    // the next query instant: no query sees the window differently, and
    // no outage starts inside a query's service window.
    let n = stream.len() as SimTime;
    let at = |i: SimTime| i * HORIZON / n;
    let next_query = |t: SimTime| at((t * n).div_ceil(HORIZON));
    let lockouts = (0..SERVERS)
        .map(|p| {
            let windows = rebuilds.iter().filter(|w| w.root == p);
            let ivs: Vec<_> = windows
                .map(|w| DownInterval { start: next_query(w.start), end: next_query(w.end) })
                .collect();
            vec![ivs; REPLICAS]
        })
        .collect();
    let schedule = FaultSchedule::from_intervals(lockouts, HORIZON);
    let engine = DistributedEngine::new(pi, LruCache::new(512), REPLICAS)
        .with_faults(Arc::new(schedule))
        .with_parallelism(POOL_THREADS);

    let mut raw: Vec<f64> = Vec::with_capacity(stream.len());
    for (i, terms) in stream.iter().enumerate() {
        engine.advance_to(at(i as SimTime));
        let r = engine.query_full(terms, K);
        if r.served == Served::Full {
            raw.push(r.latency.expect("served queries carry a latency") as f64);
        }
    }
    let s = engine.stats();
    // Claim 2: rebuild lockouts cost real coverage.
    assert!(s.degraded > 0, "offline rebuilds must lose coverage for some queries (got {s:?})");
    let hurt = s.degraded + s.failed + s.stale + s.partial;
    let full_pct = 100.0 * (stream.len() as u64 - hurt) as f64 / stream.len() as f64;
    let lockout_s: f64 = rebuilds.iter().map(|w| (w.end - w.start) as f64 / SECOND as f64).sum();
    let answered = raw.len();
    let (p50, p99) = percentiles(raw);
    Cell {
        arch: "offline-rebuild",
        answered,
        full_pct,
        degraded: s.degraded,
        failed: s.failed,
        p50,
        p99,
        epochs: final_epoch,
        lockout_s,
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let n_queries: usize = if ctx.smoke { 2_000 } else { 12_000 };
    println!("E29. Online repartitioning: split storm under live traffic vs offline rebuild.");
    println!(
        "workload: {n_queries} Zipf queries over {HORIZON} us, {SERVERS} shards x {REPLICAS} \
         replicas, k={K}, {SPLITS} scheduled splits (crash rate {CRASH_RATE})\n"
    );

    let f = ctx.fixture(Scale::Medium);
    let pi = ctx.random_index(Scale::Medium, SERVERS);
    let stream = f.zipf_terms(0x5917, n_queries);
    let schedule =
        Arc::new(SplitSchedule::generate_with_crashes(SPLITS, HORIZON, SEED ^ 0xE29, CRASH_RATE));

    let (rebuilds, final_epoch) = plan_rebuilds(&f.corpus, pi.assignment(), &schedule);
    let live = run_live(&f.corpus, pi.assignment(), &stream, &schedule);
    let offline = run_offline(&pi, &stream, &rebuilds, final_epoch);
    assert!(
        live.full_pct > offline.full_pct,
        "live splitting must beat the rebuild lockout on availability: {} vs {}",
        live.full_pct,
        offline.full_pct
    );

    let cells = [live, offline];
    println!(
        "{:<16} {:>9} {:>8} {:>9} {:>7} {:>10} {:>10} {:>7} {:>11}",
        "architecture",
        "answered",
        "full %",
        "degraded",
        "failed",
        "p50 us",
        "p99 us",
        "epochs",
        "lockout s"
    );
    for c in &cells {
        println!(
            "{:<16} {:>9} {:>8.2} {:>9} {:>7} {:>10.0} {:>10.0} {:>7} {:>11.0}",
            c.arch,
            c.answered,
            c.full_pct,
            c.degraded,
            c.failed,
            c.p50,
            c.p99,
            c.epochs,
            c.lockout_s
        );
    }
    println!();
    println!("check: zero failed/degraded/partial queries during the live split storm  [ok]");
    println!("check: offline rebuild lockouts degrade coverage; live availability wins  [ok]");
    println!("check: repart.* instruments equal RepartStats exactly (live == offline)  [ok]");

    // The paper shape: Section 5's index maintenance challenge — the
    // collection grows, shards must split, and the naive answer (take
    // the shard down, rebuild, swap) trades availability for freshness.
    // Epoch-stamped subdivision keeps both: every query is answered in
    // full at some valid epoch, and the map never tears.
}
