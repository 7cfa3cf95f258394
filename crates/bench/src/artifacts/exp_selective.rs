//! Experiment **E30**: selective search on the serving path — the
//! capacity multiplier of shard routing, measured end to end.
//!
//! E6 reproduced collection selection *offline* (recall curves of CORI
//! and the Puppin-style query-driven selector). This experiment puts the
//! selectors on the serving path behind a [`ShardRouter`] and measures
//! what Section 4 actually promises: at a fixed recall floor, a routed
//! broker touches a fraction of the shards per query, so the same
//! cluster sustains a multiple of the query rate.
//!
//! Four claims, checked live:
//!
//! 1. **The capacity multiplier.** At recall@10 ≥ 0.95 against the
//!    exhaustive fan-out, the query-driven router contacts strictly
//!    fewer shards per query than CORI, which contacts strictly fewer
//!    than full fan-out — and sustained capacity (queries/sec at fixed
//!    per-shard work) improves monotonically as shards contacted drops
//!    (asserted).
//! 2. **The fallback cascade is recall-safe.** Every routed arm keeps
//!    its mean recall above the floor because count-deficient answers
//!    broaden along the ranking instead of returning thin pages.
//! 3. **Drift-driven refresh recovers recall.** Under a topic-mixture
//!    reversal, a router stuck with stale profiles loses recall on the
//!    drifted stream; the drift-driven refresh retrains and wins back
//!    the difference (asserted, with ≥ 1 retrain fired).
//! 4. **Live telemetry matches offline truth.** The `route.*`
//!    instruments recorded during each run equal the router's own
//!    [`RouterStats`] counter for counter (asserted exactly), and the
//!    routed tier composes with the multi-site failover path (a dead
//!    site's queries fail over and are still answered routed).
//!
//! Run: `cargo run -p dwr-bench --release -- E30 [--smoke]`

use crate::{replay_training, site_tier, Ctx, Scale, SEED};
use dwr_avail::failure::{DownInterval, Timeline};
use dwr_obs::recorder::{ObsConfig, ObsRecorder};
use dwr_partition::doc::{DocPartitioner, KMeansPartitioner, TrainingResults};
use dwr_partition::parted::PartitionedIndex;
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::{DriftRefresh, RouterStats};
use dwr_query::{MultiSiteConfig, ShardRouter};
use dwr_querylog::drift::TopicDrift;
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_sim::{SimRng, SimTime, DAY};
use dwr_text::index::{build_index, InvertedIndex};
use dwr_text::score::Bm25;
use dwr_text::search::search_or;
use dwr_text::TermId;
use dwr_webgraph::graph::TopicId;
use std::sync::Arc;

const SERVERS: usize = 8;
const K: usize = 10;
const HORIZON: SimTime = DAY;
const RECALL_FLOOR: f64 = 0.95;
const WIDTHS: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// Replay a stream of query-id draws against the exhaustive reference
/// index: one training entry per *distinct* query, weighted by how
/// often the stream drew it, carrying the global top-`K` doc ids.
fn replay_draws(reference: &InvertedIndex, model: &QueryModel, draws: &[QueryId]) -> TrainingResults {
    let mut counts: std::collections::BTreeMap<QueryId, f64> = std::collections::BTreeMap::new();
    for &q in draws {
        *counts.entry(q).or_insert(0.0) += 1.0;
    }
    replay_training(reference, model, counts.into_iter(), K)
}

/// One measured arm of the sweep.
struct Cell {
    system: &'static str,
    width: usize,
    recall: f64,
    /// Mean shards contacted per cold query.
    contacted: f64,
    /// Sustained capacity at fixed per-shard work: the queries/sec the
    /// cluster supports when every shard-microsecond of evaluation has
    /// to be paid somewhere (`SERVERS × 1e6 × N / Σ busy_us`).
    qps: f64,
    broadenings: u64,
    /// Routed queries that ended at full coverage anyway.
    covered_pct: f64,
}

/// Serve `stream` through `engine`, scoring recall@K against `truth`
/// (the exhaustive fan-out's result docs per query).
fn run_arm<R: dwr_obs::Recorder + Clone>(
    engine: &DistributedEngine<LruCache, R>,
    stream: &[Vec<TermId>],
    truth: &[Vec<u32>],
    advance: bool,
) -> (f64, f64) {
    let mut recall_sum = 0.0;
    let mut recall_n = 0usize;
    for (i, terms) in stream.iter().enumerate() {
        if advance {
            engine.advance_to(i as SimTime * HORIZON / stream.len() as SimTime);
        }
        let r = engine.query_full(terms, K);
        assert!(
            matches!(r.served, Served::Full | Served::Routed { .. } | Served::CacheHit),
            "query {i}: unexpected outcome {:?} on a fault-free backend",
            r.served
        );
        if truth[i].is_empty() {
            continue;
        }
        let got = recall_of(&r.hits, &truth[i]);
        recall_sum += got;
        recall_n += 1;
    }
    let total_busy: f64 = engine.broker().busy_time().iter().sum();
    let qps = SERVERS as f64 * 1e6 * stream.len() as f64 / total_busy.max(1e-9);
    (recall_sum / recall_n.max(1) as f64, qps)
}

fn recall_of(hits: &[dwr_query::broker::GlobalHit], truth: &[u32]) -> f64 {
    let got: std::collections::HashSet<u32> = hits.iter().map(|h| h.doc).collect();
    truth.iter().filter(|d| got.contains(d)).count() as f64 / truth.len() as f64
}

/// Assert the live `route.*` instruments equal the router's counters.
fn assert_instruments_match(rec: &ObsRecorder, rs: RouterStats, ctx: &str) {
    let snap = rec.snapshot();
    assert_eq!(snap.counter("route.queries"), Some(rs.queries), "{ctx}: route.queries");
    assert_eq!(
        snap.counter("route.shards_contacted"),
        Some(rs.shards_contacted),
        "{ctx}: route.shards_contacted"
    );
    assert_eq!(snap.counter("route.broadenings"), Some(rs.broadenings), "{ctx}: route.broadenings");
    assert_eq!(snap.counter("route.covered"), Some(rs.covered), "{ctx}: route.covered");
    assert_eq!(snap.counter("route.profiles"), Some(rs.profiles_built), "{ctx}: route.profiles");
    assert_eq!(snap.counter("route.retrains"), Some(rs.retrains), "{ctx}: route.retrains");
}

pub(crate) fn run(ctx: &Ctx) {
    let (scale, n_train, n_eval, n_drift): (Scale, usize, usize, usize) = if ctx.smoke {
        (Scale::Small, 1_500, 400, 300)
    } else {
        (Scale::Medium, 4_000, 1_200, 800)
    };
    println!("E30. Selective search on the serving path: selector x shards-contacted x drift.");
    println!(
        "workload: {n_eval} Zipf queries, {SERVERS} shards, k={K}, recall floor {RECALL_FLOOR}, \
         widths {WIDTHS:?}\n"
    );

    let f = ctx.fixture(scale);
    let reference = Arc::new(build_index(&f.corpus));

    // Training log: the full query log replayed on the exhaustive index
    // (the Puppin setting — yesterday's log trains today's router), each
    // query weighted by its Zipf popularity.
    let mut rng = SimRng::new(SEED ^ 0xE30);
    let popularity = (0..f.queries.universe() as u32)
        .map(|i| (QueryId(i), f.queries.popularity_weight(QueryId(i))));
    let training = replay_training(&reference, &f.queries, popularity, K);

    // One topically coherent layout for every arm: the variable under
    // test is the *selector*, not the partitioning.
    let assignment = KMeansPartitioner::default().assign(&f.corpus, SERVERS);
    let pi = PartitionedIndex::build(&f.corpus, &assignment, SERVERS);

    // Evaluation stream: a fresh popularity-drawn sample.
    let stream: Vec<Vec<TermId>> =
        (0..n_eval).map(|_| f.terms(f.queries.sample(&mut rng))).collect();

    // --- Exhaustive fan-out: the recall truth and the capacity baseline.
    let full_engine = DistributedEngine::new(&pi, LruCache::new(1), 1);
    let mut truth: Vec<Vec<u32>> = Vec::with_capacity(stream.len());
    for terms in &stream {
        let r = full_engine.query_full(terms, K);
        assert!(matches!(r.served, Served::Full | Served::CacheHit));
        truth.push(r.hits.iter().map(|h| h.doc).collect());
    }
    let full_busy: f64 = full_engine.broker().busy_time().iter().sum();
    let full_qps = SERVERS as f64 * 1e6 * stream.len() as f64 / full_busy.max(1e-9);
    let mut cells = vec![Cell {
        system: "full fan-out",
        width: SERVERS,
        recall: 1.0,
        contacted: SERVERS as f64,
        qps: full_qps,
        broadenings: 0,
        covered_pct: 100.0,
    }];

    // --- The sweep: selector x initial width, cascade always armed.
    for system in ["cori", "query-driven"] {
        for &w in &WIDTHS {
            let router = Arc::new(match system {
                "cori" => ShardRouter::cori(w),
                _ => ShardRouter::query_driven(training.clone(), w),
            });
            let rec = Arc::new(ObsRecorder::new(ObsConfig::single_site(SERVERS).with_route()));
            let engine = DistributedEngine::new(&pi, LruCache::new(1), 1)
                .with_router(Arc::clone(&router))
                .with_obs(Arc::clone(&rec));
            let (recall, qps) = run_arm(&engine, &stream, &truth, false);
            let rs = router.stats();
            assert_instruments_match(&rec, rs, &format!("{system} t={w}"));
            let s = engine.stats();
            assert_eq!(
                s.full + s.routed + s.cache_hits,
                stream.len() as u64,
                "honest coverage: every query is Full, Routed, or cached"
            );
            cells.push(Cell {
                system,
                width: w,
                recall,
                contacted: rs.shards_contacted as f64 / rs.queries.max(1) as f64,
                qps,
                broadenings: rs.broadenings,
                covered_pct: 100.0 * rs.covered as f64 / rs.queries.max(1) as f64,
            });
        }
    }

    println!(
        "{:<14} {:>3} {:>10} {:>10} {:>12} {:>11} {:>10}",
        "selector", "t", "recall@10", "shards/q", "capacity q/s", "broadenings", "covered %"
    );
    for c in &cells {
        println!(
            "{:<14} {:>3} {:>10.3} {:>10.2} {:>12.0} {:>11} {:>10.1}",
            c.system, c.width, c.recall, c.contacted, c.qps, c.broadenings, c.covered_pct
        );
    }

    // Claim 1+2: operating points at the recall floor. For each routed
    // system, the narrowest width whose mean recall clears the floor.
    let operating = |name: &str| -> &Cell {
        cells
            .iter()
            .filter(|c| c.system == name && c.recall >= RECALL_FLOOR)
            .min_by(|a, b| a.contacted.total_cmp(&b.contacted))
            .unwrap_or_else(|| panic!("{name} never reaches recall {RECALL_FLOOR}"))
    };
    let qd = operating("query-driven");
    let cori = operating("cori");
    assert!(
        qd.contacted < cori.contacted && cori.contacted < SERVERS as f64,
        "capacity multiplier ordering: query-driven ({:.2}) < cori ({:.2}) < full ({})",
        qd.contacted,
        cori.contacted,
        SERVERS
    );
    assert!(
        qd.qps > cori.qps && cori.qps > full_qps,
        "capacity must improve monotonically as shards contacted drops: {:.0} > {:.0} > {:.0}",
        qd.qps,
        cori.qps,
        full_qps
    );
    println!(
        "\noperating points at recall >= {RECALL_FLOOR}: query-driven t={} ({:.2} shards/q, \
         {:.1}x capacity), cori t={} ({:.2} shards/q, {:.1}x)",
        qd.width,
        qd.contacted,
        qd.qps / full_qps,
        cori.width,
        cori.contacted,
        cori.qps / full_qps
    );

    // --- Claim 3: drift. Train at the t=0 mixture, stream a reversal,
    // and compare a stale router against one with the refresh loop.
    let weights = f.queries.topic_weights().to_vec();
    let drift = TopicDrift::reversal(&weights, HORIZON);
    let drift_draws: Vec<QueryId> = (0..n_train)
        .map(|_| f.queries.sample_topical(TopicId(drift.sample_topic(0, &mut rng)), &mut rng))
        .collect();
    let t0_training = replay_draws(&reference, &f.queries, &drift_draws);
    let drift_stream: Vec<Vec<TermId>> = (0..n_drift)
        .map(|i| {
            let t = i as SimTime * HORIZON / n_drift as SimTime;
            f.terms(f.queries.sample_topical(TopicId(drift.sample_topic(t, &mut rng)), &mut rng))
        })
        .collect();
    let drift_truth: Vec<Vec<u32>> = drift_stream
        .iter()
        .map(|terms| {
            search_or(&reference, terms, K, &Bm25::default(), reference.as_ref())
                .into_iter()
                .map(|h| h.doc.0)
                .collect()
        })
        .collect();
    let w = qd.width;
    let stale_router = Arc::new(ShardRouter::query_driven(t0_training.clone(), w));
    let stale =
        DistributedEngine::new(&pi, LruCache::new(1), 1).with_router(Arc::clone(&stale_router));
    let retrain_model = f.queries.clone();
    let retrain_ref = Arc::clone(&reference);
    let retrain_drift = drift.clone();
    let fresh_router =
        Arc::new(ShardRouter::query_driven(t0_training, w).with_refresh(DriftRefresh {
            drift: drift.clone(),
            interval: HORIZON / 50,
            threshold: 0.15,
            retrain: Arc::new(move |now| {
                let mut rng = SimRng::new(SEED ^ now);
                let draws: Vec<QueryId> = (0..1_000)
                    .map(|_| {
                        let topic = TopicId(retrain_drift.sample_topic(now, &mut rng));
                        retrain_model.sample_topical(topic, &mut rng)
                    })
                    .collect();
                replay_draws(&retrain_ref, &retrain_model, &draws)
            }),
        }));
    let fresh =
        DistributedEngine::new(&pi, LruCache::new(1), 1).with_router(Arc::clone(&fresh_router));
    let (stale_recall, _) = run_arm(&stale, &drift_stream, &drift_truth, true);
    let (fresh_recall, _) = run_arm(&fresh, &drift_stream, &drift_truth, true);
    let retrains = fresh_router.stats().retrains;
    assert!(retrains >= 1, "the reversal must trip the drift detector");
    assert_eq!(stale_router.stats().retrains, 0, "the stale arm never retrains");
    assert!(
        fresh_recall >= stale_recall,
        "refresh must not lose recall: fresh {fresh_recall:.3} vs stale {stale_recall:.3}"
    );
    println!(
        "\ndrift (topic reversal over {HORIZON} us, width {w}): stale recall {:.3}, \
         refreshed {:.3} (+{:.3}, {} retrains)",
        stale_recall,
        fresh_recall,
        fresh_recall - stale_recall,
        retrains
    );

    // --- Claim 4 (composition): the routed tier behind multi-site
    // failover. Site 0 is dark; its queries fail over to site 1 and are
    // still answered honestly routed.
    let n_ms = 200usize;
    let dark = Timeline::new(vec![DownInterval { start: 0, end: HORIZON }], HORIZON);
    let tier = site_tier(vec![dark, Timeline::always_up(HORIZON)], 1e9, MultiSiteConfig::default(), || {
        DistributedEngine::new(&pi, LruCache::new(1), 1)
            .with_router(Arc::new(ShardRouter::query_driven(training.clone(), w)))
    });
    for terms in stream.iter().take(n_ms) {
        tier.query(0, terms, K);
    }
    let ms = tier.stats();
    assert_eq!(ms.total(), n_ms as u64, "every query accounted for across the tier");
    assert_eq!(ms.failed, 0, "one live site keeps the tier answering");
    assert!(ms.routed > 0, "failover answers are still routed (deliberate, not degraded)");
    println!(
        "\nmulti-site composition: {} queries, site 0 dark -> {} served remote, {} routed, 0 failed",
        n_ms, ms.served_remote, ms.routed
    );

    println!("\ncheck: qd < cori < full on shards/query at recall >= {RECALL_FLOOR}  [ok]");
    println!("check: capacity q/s monotone in shards saved; cascade keeps the floor  [ok]");
    println!("check: drift refresh retrains ({retrains}x) and recovers recall  [ok]");
    println!("check: route.* instruments equal RouterStats exactly, all arms  [ok]");
}
