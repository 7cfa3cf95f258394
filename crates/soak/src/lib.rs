//! # dwr-soak — the crawl-to-index pipeline, the end-to-end lab and the full-system soak
//!
//! Every chaos suite in the workspace exercises exactly one tier at a
//! time: replica churn (`chaos.rs`), site failover (`site_chaos.rs`),
//! crawler churn (`crawl_chaos.rs`), live splits (`repart_chaos.rs`),
//! routed serving (`route_chaos.rs`), straggler tails (`tail_chaos.rs`).
//! The paper's central claim, though, is that a distributed Web
//! retrieval system must survive these challenges *concurrently* — a
//! shard split racing an index refresh racing a site outage is exactly
//! where single-component guarantees break down.
//!
//! [`SoakScenario`] wires the existing pieces into one deterministic,
//! long-horizon simulation:
//!
//! 1. **Crawl tier** — a churning [`DistributedCrawl`] (agents flap on
//!    an [`AgentSchedule`], hosts move by consistent hashing, frontiers
//!    hand off politely) fetches a synthetic web, with the full
//!    [`FetchSpan`] trace retained.
//! 2. **Index tier** — the fetch trace feeds periodic epoch-stamped
//!    *refreshes*: every `refresh_interval` the pages fetched since the
//!    last refresh become visible, so each document's freshness lag is
//!    provably bounded by the interval. The published corpus becomes a
//!    live [`RepartIndex`] that a [`SplitSchedule`] keeps reshaping
//!    (with crash fates) under traffic.
//! 3. **Serve tier** — a [`MultiSiteEngine`] (site outage traces, WAN
//!    failover, shard routing, hedging, stragglers, gather deadlines)
//!    serves a diurnal [`generate_arrivals`] stream, with one shared
//!    [`ObsRecorder`] (built from [`ObsConfig::full_system`])
//!    instrumenting every tier into a single registry.
//!
//! Tiers 1 and 2 start from the one crawl-to-index [`Pipeline`], which
//! the end-to-end [`SearchEngineLab`] builds from too: one crawl, one
//! fetched corpus, one doc-id rule.
//!
//! The run returns a [`SoakReport`] carrying the full crawl trace, the
//! refresh ledger, every query outcome, periodic window snapshots, and
//! the final instrument snapshot. [`SoakInvariants::check`] then
//! asserts the end state **from the trace**: zero politeness violations
//! across handoffs, no `Failed` query while at least one site was live,
//! every query in exactly one outcome bucket, freshness lag bounded by
//! the refresh interval, exactly-once epoch coverage of the partition
//! map, and the live `crawl.*` / `repart.*` / `route.*` / `site.*`
//! instruments equal to the offline stats bitwise.

mod lab;
mod pipeline;

pub use lab::{EngineConfig, EngineReport, SearchEngineLab, StreamOptions};
pub use pipeline::Pipeline;

use dwr_avail::failure::{Timeline, UpDownProcess};
use dwr_avail::site::SiteConfig;
use dwr_crawler::assign::ConsistentHashAssigner;
use dwr_crawler::faults::AgentSchedule;
use dwr_crawler::sim::{CrawlConfig, CrawlFaultStats, DistributedCrawl, FetchSpan};
use dwr_obs::{ObsConfig, ObsRecorder, Snapshot};
use dwr_partition::repart::{RepartIndex, RepartStats, SplitSchedule};
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, EngineStats, HedgePolicy, Served};
use dwr_query::faults::{site_outage_traces, FaultSchedule};
use dwr_query::multisite::{MultiSiteConfig, MultiSiteEngine, MultiSiteStats, SiteEngineSpec};
use dwr_query::route::{RouterStats, ShardRouter};
use dwr_query::straggler::{StragglerModel, TailParams};
use dwr_querylog::arrival::{generate_arrivals, DiurnalProfile};
use dwr_sim::net::Topology;
use dwr_sim::{SimRng, SimTime, HOUR, MINUTE, SECOND};
use dwr_webgraph::generate::WebConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Evenly spaced instants on [`Freshness::curve`], both ends included.
const FRESHNESS_STEPS: u64 = 6;

/// Everything that shapes one soak run. All churn mechanisms are
/// individually gateable so the same scenario doubles as its own
/// churn-free baseline ([`SoakConfig::calm`]).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; every stream below label-forks from it.
    pub seed: u64,

    // --- Web + crawl tier. ---
    /// Synthetic web size.
    pub pages: usize,
    /// Hosts the pages spread over.
    pub hosts: usize,
    /// Crawling agents.
    pub agents: u32,
    /// Per-host politeness delay (the invariant the trace must prove).
    pub politeness_delay: SimTime,
    /// Flap agents on an up/down process calibrated to the baseline
    /// crawl's makespan; off = the churn-free crawl arm.
    pub crawl_churn: bool,

    // --- Index tier. ---
    /// Refresh cadence: pages fetched in `(n-1)·I, n·I]` become visible
    /// at `n·I`, so freshness lag is bounded by `I` by construction.
    pub refresh_interval: SimTime,
    /// Initial shard count of the live index.
    pub partitions: usize,
    /// Replicas per shard at every site.
    pub replicas: usize,
    /// Scheduled online splits over the serving horizon (0 = static).
    pub splits: usize,
    /// Fraction of scheduled splits drawn as crash fates.
    pub split_crash_rate: f64,

    // --- Serve tier. ---
    /// Serving sites on a geo ring.
    pub sites: usize,
    /// Draw whole-site outage traces; off = always-up sites.
    pub site_outages: bool,
    /// Flap individual replicas on per-(partition, replica, site)
    /// outage schedules.
    pub replica_churn: bool,
    /// Selective-search width (`None` = exhaustive fan-out).
    pub route_width: Option<usize>,
    /// Tail-tolerance policy of every site engine.
    pub hedge: HedgePolicy,
    /// Inflate per-(partition, replica, query) service times with
    /// heavy-tailed straggler draws.
    pub stragglers: bool,
    /// Deadline-aware gather (`Served::Partial` past it).
    pub gather_deadline: Option<SimTime>,
    /// Result-cache entries per site.
    pub cache: usize,
    /// Scatter threads per site engine (1 = sequential scatter; the
    /// soak is pinned bit-identical across this knob).
    pub parallelism: usize,

    // --- Workload. ---
    /// Serving horizon (splits, outages, and arrivals all live in it).
    pub serve_horizon: SimTime,
    /// Mean per-region arrival rate, queries/second.
    pub mean_qps: f64,
    /// Diurnal amplitude in `[0, 1)`.
    pub amplitude: f64,
    /// Distinct queries in the query model.
    pub query_universe: usize,
    /// Results per query.
    pub k: usize,
    /// Interval-report window width.
    pub window: SimTime,
}

impl SoakConfig {
    /// The full storm: every churn mechanism on, at a scale a debug
    /// test run can afford.
    pub fn storm(seed: u64) -> Self {
        SoakConfig {
            seed,
            pages: 600,
            hosts: 40,
            agents: 4,
            politeness_delay: SECOND / 2,
            crawl_churn: true,
            refresh_interval: 2 * MINUTE,
            partitions: 4,
            replicas: 2,
            splits: 4,
            split_crash_rate: 0.25,
            sites: 3,
            site_outages: true,
            replica_churn: true,
            route_width: Some(2),
            hedge: HedgePolicy::OnDeath,
            stragglers: true,
            gather_deadline: Some(SECOND),
            cache: 8,
            parallelism: 1,
            serve_horizon: 12 * HOUR,
            mean_qps: 0.02,
            amplitude: 0.8,
            query_universe: 400,
            k: 10,
            window: 2 * HOUR,
        }
    }

    /// The churn-free baseline arm: the same crawl, index, workload,
    /// and tail machinery, but no agent flapping, no splits, no site
    /// outages, and no replica churn — the denominator of the soak's
    /// headline number.
    pub fn calm(seed: u64) -> Self {
        SoakConfig {
            crawl_churn: false,
            splits: 0,
            site_outages: false,
            replica_churn: false,
            ..SoakConfig::storm(seed)
        }
    }

    /// A smaller storm for proptests and smoke runs.
    pub fn smoke(seed: u64) -> Self {
        SoakConfig {
            pages: 300,
            hosts: 20,
            agents: 3,
            splits: 3,
            sites: 2,
            serve_horizon: 6 * HOUR,
            mean_qps: 0.01,
            query_universe: 200,
            window: HOUR,
            ..SoakConfig::storm(seed)
        }
    }

    /// Shard slots the live index provisions (pippin splits are binary,
    /// so `splits` committed splits need `2·splits` extra slots).
    pub fn capacity(&self) -> usize {
        self.partitions + 2 * self.splits
    }
}

/// One epoch-stamped index refresh derived from the fetch trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRefresh {
    /// Publication instant (a multiple of the refresh interval).
    pub at: SimTime,
    /// Documents becoming visible at this refresh.
    pub docs_published: u64,
    /// Worst fetch-to-publication lag inside this refresh.
    pub max_lag: SimTime,
}

/// How much of a probe query's eventual top-k the refreshes have
/// published over time.
#[derive(Debug, Clone, PartialEq)]
pub struct Freshness {
    /// `(instant, completeness)` pairs at evenly spaced instants up to
    /// `full_at`, ascending: the share of the eventual top-k already
    /// published at that instant.
    pub curve: Vec<(SimTime, f64)>,
    /// Publication of the last document the probe matches.
    pub full_at: SimTime,
}

/// One served query in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Arrival instant.
    pub at: SimTime,
    /// Originating region.
    pub region: u16,
    /// Sites whose outage trace said "up" at dispatch.
    pub live_sites: u32,
    /// Outcome bucket.
    pub served: Served,
    /// Site that answered, if any.
    pub site: Option<u32>,
    /// WAN hops taken.
    pub wan_hops: u32,
    /// End-to-end latency, if answered.
    pub latency: Option<SimTime>,
    /// FNV over `(doc, score)` of the returned hits — pins the results
    /// bit-for-bit without retaining them.
    pub hits_digest: u64,
}

/// One interval-report window: the cumulative instrument snapshot at
/// the window's end (per-window activity = `snapshot.delta(&prev)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakWindow {
    /// Window start (serving time).
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Queries that arrived inside the window.
    pub queries: u64,
    /// Cumulative snapshot taken at `end`.
    pub snapshot: Snapshot,
}

/// Per-bucket outcome totals of a query trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Full-fidelity answers straight from a cache.
    pub cache_hit: u64,
    /// Exhaustive full-coverage answers.
    pub full: u64,
    /// Deliberate selective-search answers.
    pub routed: u64,
    /// Partition(s) lost to faults.
    pub degraded: u64,
    /// Stale cache service during an outage.
    pub stale: u64,
    /// Deadline-cut gathers.
    pub partial: u64,
    /// Explicit sheds at the site tier.
    pub shed: u64,
    /// No site live at dispatch.
    pub failed: u64,
}

impl OutcomeCounts {
    /// Total queries across every bucket.
    pub fn total(&self) -> u64 {
        self.cache_hit
            + self.full
            + self.routed
            + self.degraded
            + self.stale
            + self.partial
            + self.shed
            + self.failed
    }

    /// Full-fidelity service: `Full`, `Routed` (deliberate,
    /// recall-audited selection), and cache hits of such answers.
    pub fn full_fidelity(&self) -> u64 {
        self.cache_hit + self.full + self.routed
    }
}

/// Everything a soak run leaves behind — the material the invariant
/// checker, the chaos anchors, and the E31 experiment all read.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Coverage of the churn-free calibration crawl.
    pub baseline_coverage: f64,
    /// Makespan of the calibration crawl (sets the churn process).
    pub baseline_makespan: SimTime,
    /// Coverage of the (possibly churned) crawl that fed the index.
    pub crawl_coverage: f64,
    /// Makespan of that crawl.
    pub crawl_makespan: SimTime,
    /// Its fault accounting.
    pub crawl_faults: CrawlFaultStats,
    /// Its full fetch-span trace (politeness is proven from this).
    pub crawl_trace: Vec<FetchSpan>,
    /// The politeness delay the trace must respect.
    pub politeness_delay: SimTime,
    /// Documents the crawl delivered into the index.
    pub fetched_docs: u64,
    /// The epoch-stamped refresh ledger.
    pub refreshes: Vec<IndexRefresh>,
    /// The freshness bound every refresh must respect.
    pub refresh_interval: SimTime,
    /// Probe-query completeness as refreshes land.
    pub freshness: Freshness,
    /// Every served query, in arrival order.
    pub queries: Vec<QueryRecord>,
    /// Interval-report windows over the serving horizon.
    pub windows: Vec<SoakWindow>,
    /// Final cumulative snapshot of the shared registry.
    pub final_snapshot: Snapshot,
    /// Site-tier counters.
    pub site_stats: MultiSiteStats,
    /// Per-site engine counters.
    pub engine_stats: Vec<EngineStats>,
    /// Router counters (when routing was on).
    pub router_stats: Option<RouterStats>,
    /// Online-repartition counters.
    pub repart_stats: RepartStats,
    /// Whether the partition map validated bottom-up at the end.
    pub map_validates: bool,
}

impl SoakReport {
    /// Bucket totals of the query trace.
    pub fn outcomes(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for q in &self.queries {
            match q.served {
                Served::CacheHit => c.cache_hit += 1,
                Served::Full => c.full += 1,
                Served::Routed { .. } => c.routed += 1,
                Served::Degraded { .. } => c.degraded += 1,
                Served::StaleFromCache => c.stale += 1,
                Served::Partial { .. } => c.partial += 1,
                Served::Shed => c.shed += 1,
                Served::Failed => c.failed += 1,
            }
        }
        c
    }

    /// The headline number: fraction of queries served at full fidelity
    /// (`Full` / `Routed` / cache hits) through whatever the run threw
    /// at the stack.
    pub fn full_fidelity_fraction(&self) -> f64 {
        let c = self.outcomes();
        if c.total() == 0 {
            return 1.0;
        }
        c.full_fidelity() as f64 / c.total() as f64
    }

    /// Worst fetch-to-publication lag across every refresh.
    pub fn max_freshness_lag(&self) -> SimTime {
        self.refreshes.iter().map(|r| r.max_lag).max().unwrap_or(0)
    }
}

/// The wired scenario. Construction is cheap; [`SoakScenario::run`]
/// does all the work and can be called repeatedly (every run with the
/// same config is bit-for-bit identical).
#[derive(Debug, Clone)]
pub struct SoakScenario {
    cfg: SoakConfig,
}

/// FNV-1a over the hits' `(doc, score)` pairs.
fn hits_digest(hits: &[GlobalHit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for hit in hits {
        for word in [u64::from(hit.doc), u64::from(hit.score.to_bits())] {
            h ^= word;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl SoakScenario {
    /// Wrap a config.
    pub fn new(cfg: SoakConfig) -> Self {
        assert!(cfg.sites > 0 && cfg.partitions > 0 && cfg.replicas > 0 && cfg.agents > 0);
        assert!(cfg.refresh_interval > 0 && cfg.window > 0 && cfg.serve_horizon > 0);
        assert!(cfg.k > 0 && cfg.parallelism > 0);
        SoakScenario { cfg }
    }

    /// The config this scenario runs.
    pub fn config(&self) -> &SoakConfig {
        &self.cfg
    }

    /// Run the whole soak: crawl, refresh ledger, serve, end state.
    pub fn run(&self) -> SoakReport {
        let cfg = &self.cfg;
        let capacity = cfg.capacity();

        // --- Phase 1: the web and the crawl tier. ---
        // One registry for every tier: the crawl, every site engine,
        // the split publisher, and the router all record here.
        let recorder = Arc::new(ObsRecorder::new(ObsConfig::full_system(capacity, cfg.sites)));
        let web_cfg = WebConfig { num_pages: cfg.pages, num_hosts: cfg.hosts, ..WebConfig::tiny() };
        let mut baseline = None;
        let pipeline =
            Pipeline::build(&web_cfg, cfg.seed, cfg.query_universe, Arc::clone(&recorder), |web| {
                let base = CrawlConfig {
                    agents: cfg.agents,
                    connections_per_agent: 8,
                    politeness_delay: cfg.politeness_delay,
                    most_cited_seed: 50,
                    ..CrawlConfig::default()
                };
                // Churn-free calibration crawl: sets the scale of the agent
                // up/down process and the crawl-tier baseline numbers.
                let assigner = ConsistentHashAssigner::new(cfg.agents, 64);
                let calm = DistributedCrawl::new(web, assigner, base.clone(), cfg.seed).run();
                let faults = cfg.crawl_churn.then(|| {
                    let up = (calm.makespan / 3).max(1);
                    let down = (calm.makespan / 10).max(1);
                    AgentSchedule::generate(
                        cfg.agents as usize,
                        &UpDownProcess::exponential(up, down),
                        (4 * calm.makespan).max(1),
                        cfg.seed ^ 0x50A7_C4A4,
                    )
                });
                baseline = Some(calm);
                CrawlConfig { faults, ..base }
            });
        let baseline = baseline.expect("the pipeline calibrates before it crawls");
        let docs = &pipeline.docs;
        assert!(!docs.is_empty(), "the crawl fetched nothing");

        // --- Phase 2: epoch-stamped refreshes from the fetch trace. ---
        // A page fetched at t publishes at the *next* refresh boundary,
        // so every lag is in (0, interval] — the bound the invariant
        // checker asserts.
        let interval = cfg.refresh_interval;
        let publish_at = |t: SimTime| (t / interval + 1) * interval;
        let last_refresh = docs.iter().map(|&(_, end)| publish_at(end)).max().unwrap();
        let mut refreshes: Vec<IndexRefresh> = (1..=last_refresh / interval)
            .map(|i| IndexRefresh { at: i * interval, docs_published: 0, max_lag: 0 })
            .collect();
        for &(_, end) in docs {
            let at = publish_at(end);
            let r = &mut refreshes[(at / interval - 1) as usize];
            r.docs_published += 1;
            r.max_lag = r.max_lag.max(at - end);
        }

        // --- Phase 3: the live index and the serving stack. ---
        let repart = Arc::new(RepartIndex::new(pipeline.index(cfg.partitions), capacity));

        // Freshness: the oracle ranks every document the probe matches,
        // with fixed scores and ties, so its first k hits are the eventual
        // top-k, and at t the published share of it is the count of those
        // hits with `publish_at ≤ t`.
        let qmodel = &pipeline.query_model;
        let probe = &qmodel.query(dwr_querylog::model::QueryId(0)).terms;
        let oracle =
            DocBroker::single_site(&repart.snapshot()).with_global_stats(repart.corpus_stats());
        let published_at: Vec<SimTime> = oracle
            .query(probe, docs.len())
            .hits
            .iter()
            .map(|hit| publish_at(docs[hit.doc as usize].1))
            .collect();
        let full_at = published_at.iter().copied().max().unwrap_or(0);
        let top_k = &published_at[..cfg.k.min(published_at.len())];
        let curve = (0..FRESHNESS_STEPS)
            .map(|i| {
                let t = full_at * i / (FRESHNESS_STEPS - 1);
                let share = if top_k.is_empty() {
                    1.0
                } else {
                    top_k.iter().filter(|&&at| at <= t).count() as f64 / top_k.len() as f64
                };
                (t, share)
            })
            .collect();
        let freshness = Freshness { curve, full_at };

        let split_schedule = (cfg.splits > 0).then(|| {
            Arc::new(SplitSchedule::generate_with_crashes(
                cfg.splits,
                cfg.serve_horizon,
                cfg.seed ^ 0x5911_50A7,
                cfg.split_crash_rate,
            ))
        });
        let router = cfg.route_width.map(|w| Arc::new(ShardRouter::cori(w)));
        let stragglers = cfg
            .stragglers
            .then(|| Arc::new(StragglerModel::drawn(cfg.seed ^ 0x7A11_50A7, TailParams::mild())));
        let outage_traces: Vec<Timeline> = if cfg.site_outages {
            // birn_like outages come about once a month — invisible in a
            // half-day soak. `scaled` accelerates the event rate while
            // preserving steady-state availability, so a 12 h horizon
            // sees month-of-operation outage counts.
            let mut site_cfg = SiteConfig::birn_like(2);
            site_cfg.network = site_cfg.network.scaled(1.0 / 48.0);
            site_cfg.server = site_cfg.server.scaled(1.0 / 48.0);
            site_outage_traces(cfg.sites, &site_cfg, cfg.serve_horizon, cfg.seed ^ 0x517E_50A7)
        } else {
            (0..cfg.sites).map(|_| Timeline::always_up(cfg.serve_horizon)).collect()
        };

        let sites: Vec<SiteEngineSpec<LruCache, Arc<ObsRecorder>>> = outage_traces
            .into_iter()
            .enumerate()
            .map(|(s, outages)| {
                let mut engine =
                    DistributedEngine::new_live(&repart, LruCache::new(cfg.cache), cfg.replicas)
                        .with_obs(Arc::clone(&recorder))
                        .with_hedge_policy(cfg.hedge);
                if cfg.parallelism > 1 {
                    engine = engine.with_parallelism(cfg.parallelism);
                }
                if s == 0 {
                    // Exactly one engine owns the split schedule, so
                    // each split publishes exactly once; the published
                    // map is shared by every site instantly (one Arc).
                    if let Some(sched) = &split_schedule {
                        engine = engine.with_splits(Arc::clone(sched));
                    }
                }
                if let Some(r) = &router {
                    engine = engine.with_router(Arc::clone(r));
                }
                if let Some(st) = &stragglers {
                    engine = engine.with_stragglers(Arc::clone(st));
                }
                if let Some(d) = cfg.gather_deadline {
                    engine = engine.with_gather_deadline(d);
                }
                if cfg.replica_churn {
                    // Per-site replica hardware fails independently.
                    let process = UpDownProcess::exponential(6 * HOUR, 20 * MINUTE);
                    engine = engine.with_faults(Arc::new(FaultSchedule::generate(
                        capacity,
                        cfg.replicas,
                        &process,
                        cfg.serve_horizon,
                        cfg.seed ^ 0xFA17_0000 ^ ((s as u64) << 32),
                    )));
                }
                SiteEngineSpec { region: s as u16, capacity_qps: 100.0, engine, outages }
            })
            .collect();
        let engine =
            MultiSiteEngine::new(sites, Topology::geo_ring(cfg.sites), MultiSiteConfig::default());

        // --- Phase 4: the diurnal query storm. ---
        let profiles: Vec<DiurnalProfile> = (0..cfg.sites)
            .map(|s| DiurnalProfile {
                mean_qps: cfg.mean_qps,
                amplitude: cfg.amplitude,
                phase: s as f64 / cfg.sites as f64,
            })
            .collect();
        let arrivals = generate_arrivals(&profiles, cfg.serve_horizon, cfg.seed ^ 0xA221_50A7);
        let mut qrng = SimRng::new(cfg.seed ^ 0x9E81_50A7);
        let mut queries = Vec::with_capacity(arrivals.len());
        let mut windows = Vec::new();
        let (mut win_start, mut win_end, mut win_queries) = (0, cfg.window, 0u64);
        for a in &arrivals {
            while a.time >= win_end {
                windows.push(SoakWindow {
                    start: win_start,
                    end: win_end,
                    queries: win_queries,
                    snapshot: recorder.snapshot(),
                });
                win_start = win_end;
                win_end += cfg.window;
                win_queries = 0;
            }
            engine.advance_to(a.time);
            let q = qmodel.sample(&mut qrng);
            let live_sites = engine.live_sites(a.time) as u32;
            let r = engine.query(a.region, &qmodel.query(q).terms, cfg.k);
            win_queries += 1;
            queries.push(QueryRecord {
                at: a.time,
                region: a.region,
                live_sites,
                served: r.served,
                site: r.site.map(|s| s as u32),
                wan_hops: r.wan_hops,
                latency: r.latency,
                hits_digest: hits_digest(&r.hits),
            });
        }
        // Fire anything still scheduled, then close the tail window at
        // the horizon (quiet trailing windows collapse into it).
        engine.advance_to(cfg.serve_horizon);
        windows.push(SoakWindow {
            start: win_start,
            end: cfg.serve_horizon,
            queries: win_queries,
            snapshot: recorder.snapshot(),
        });

        // --- Phase 5: end state. ---
        SoakReport {
            baseline_coverage: baseline.coverage,
            baseline_makespan: baseline.makespan,
            crawl_coverage: pipeline.crawl.coverage,
            crawl_makespan: pipeline.crawl.makespan,
            crawl_faults: pipeline.crawl.faults,
            crawl_trace: pipeline.crawl.trace,
            politeness_delay: cfg.politeness_delay,
            fetched_docs: docs.len() as u64,
            refreshes,
            refresh_interval: interval,
            freshness,
            queries,
            windows,
            final_snapshot: recorder.snapshot(),
            site_stats: engine.stats(),
            engine_stats: (0..cfg.sites).map(|s| engine.site_engine(s).stats()).collect(),
            router_stats: router.map(|r| r.stats()),
            repart_stats: repart.repart_stats(),
            map_validates: repart.validate().is_ok(),
        }
    }
}

/// The end-state invariant checker: everything is computed from the
/// report's traces and cross-checked against the live instruments, so a
/// regression anywhere in the stack surfaces as a named violation.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakInvariants {
    /// Per-host politeness violations found in the fetch trace
    /// (overlapping spans or gaps under the politeness delay — across
    /// agents, so frontier handoffs are covered).
    pub politeness_violations: u64,
    /// Queries that came back `Failed` while ≥ 1 site was live.
    pub failed_while_live: u64,
    /// `total arrivals − sum of outcome buckets` (must be 0: every
    /// query lands in exactly one bucket).
    pub outcome_gap: i64,
    /// Worst fetch-to-publication lag observed.
    pub freshness_max_lag: SimTime,
    /// The bound it must respect (the refresh interval).
    pub freshness_bound: SimTime,
    /// Partition map validated bottom-up, every committed split created
    /// exactly two children, and the live epoch counts the commits —
    /// exactly-once coverage at every epoch.
    pub coverage_exactly_once: bool,
    /// Live-instrument-vs-offline-stats mismatches, by name.
    pub mismatches: Vec<String>,
}

impl SoakInvariants {
    /// Check every invariant over a finished run.
    pub fn check(report: &SoakReport) -> Self {
        // Politeness from the trace: per host, sorted by start, no two
        // consecutive spans closer than the politeness delay.
        let mut per_host: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
        for s in &report.crawl_trace {
            per_host.entry(s.host.0).or_default().push((s.start, s.end));
        }
        let politeness_violations = per_host
            .values_mut()
            .map(|spans| {
                spans.sort_unstable();
                spans.windows(2).filter(|w| w[1].0 < w[0].1 + report.politeness_delay).count()
                    as u64
            })
            .sum();

        let failed_while_live = report
            .queries
            .iter()
            .filter(|q| q.served == Served::Failed && q.live_sites > 0)
            .count() as u64;

        let c = report.outcomes();
        let mut outcome_gap = report.queries.len() as i64 - c.total() as i64;
        // The site tier's own buckets must tell the same story as the
        // per-query trace.
        let s = &report.site_stats;
        let answered = c.total() - c.shed - c.failed;
        if s.served_local + s.served_remote != answered
            || s.failed != c.failed
            || s.shed_overload + s.shed_deadline != c.shed
            || s.routed != c.routed
            || s.degraded != c.degraded + c.stale + c.partial
        {
            outcome_gap += 1; // surfaced as a nonzero gap with the counts in `violations`
        }

        let freshness_max_lag = report.max_freshness_lag();
        let published: u64 = report.refreshes.iter().map(|r| r.docs_published).sum();

        let r = &report.repart_stats;
        let coverage_exactly_once = report.map_validates
            && published == report.fetched_docs
            && r.children_created == 2 * r.splits_committed
            && r.epoch == r.splits_committed;

        // Live instruments vs offline stats, bitwise.
        let mut mismatches = Vec::new();
        let snap = &report.final_snapshot;
        let mut check = |name: &str, offline: u64| {
            if snap.counter(name) != Some(offline) {
                mismatches
                    .push(format!("{name}: live {:?} != offline {offline}", snap.counter(name)));
            }
        };
        let f = &report.crawl_faults;
        check("crawl.crashes", f.crashes);
        check("crawl.recoveries", f.recoveries);
        check("crawl.lost_inflight", f.lost_inflight);
        check("crawl.hosts_moved", f.hosts_moved);
        check("crawl.handoff_batches", f.handoff_batches);
        check("crawl.handoff_urls", f.handoff_urls);
        check("crawl.refetches", f.refetches);
        check("repart.splits", r.splits_committed);
        check("repart.aborts", r.splits_aborted);
        check("repart.children", r.children_created);
        if let Some(rs) = &report.router_stats {
            check("route.queries", rs.queries);
            check("route.shards_contacted", rs.shards_contacted);
            check("route.broadenings", rs.broadenings);
            check("route.covered", rs.covered);
            check("route.profiles", rs.profiles_built);
            check("route.retrains", rs.retrains);
        }
        check("site.served_local", s.served_local);
        check("site.served_remote", s.served_remote);
        check("site.degraded", s.degraded);
        check("site.shed_overload", s.shed_overload);
        check("site.shed_deadline", s.shed_deadline);
        check("site.failed", s.failed);
        check("site.failovers", s.failovers);
        check("site.wan_hops", s.wan_hops);
        check("site.added_latency_us", s.added_latency_us);
        if snap.gauge("repart.epoch") != Some(r.epoch as f64) {
            mismatches.push(format!(
                "repart.epoch: live {:?} != offline {}",
                snap.gauge("repart.epoch"),
                r.epoch
            ));
        }

        SoakInvariants {
            politeness_violations,
            failed_while_live,
            outcome_gap,
            freshness_max_lag,
            freshness_bound: report.refresh_interval,
            coverage_exactly_once,
            mismatches,
        }
    }

    /// Human-readable list of everything that is wrong (empty = clean).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.politeness_violations > 0 {
            v.push(format!(
                "{} politeness violations in the fetch trace",
                self.politeness_violations
            ));
        }
        if self.failed_while_live > 0 {
            v.push(format!("{} queries Failed while >=1 site was live", self.failed_while_live));
        }
        if self.outcome_gap != 0 {
            v.push(format!(
                "outcome buckets do not account for every query (gap {})",
                self.outcome_gap
            ));
        }
        if self.freshness_max_lag > self.freshness_bound {
            v.push(format!(
                "freshness lag {} exceeds the refresh interval {}",
                self.freshness_max_lag, self.freshness_bound
            ));
        }
        if !self.coverage_exactly_once {
            v.push("partition map lost exactly-once epoch coverage".to_string());
        }
        v.extend(self.mismatches.iter().map(|m| format!("instrument mismatch: {m}")));
        v
    }

    /// Panic with the full violation list unless clean.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "soak invariants violated:\n  {}", v.join("\n  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            pages: 150,
            hosts: 12,
            agents: 2,
            splits: 2,
            sites: 2,
            serve_horizon: 2 * HOUR,
            mean_qps: 0.01,
            query_universe: 100,
            window: HOUR,
            ..SoakConfig::storm(7)
        }
    }

    #[test]
    fn a_full_storm_runs_clean_end_to_end() {
        let report = SoakScenario::new(tiny()).run();
        let inv = SoakInvariants::check(&report);
        inv.assert_clean();
        assert!(!report.queries.is_empty());
        assert_eq!(report.outcomes().total(), report.queries.len() as u64);
        assert!(report.max_freshness_lag() <= report.refresh_interval);
        assert!(!report.windows.is_empty());
        assert_eq!(report.windows.last().unwrap().end, tiny().serve_horizon);
        // Window query counts partition the arrival stream.
        let windowed: u64 = report.windows.iter().map(|w| w.queries).sum();
        assert_eq!(windowed, report.queries.len() as u64);
    }

    #[test]
    fn probe_freshness_is_pinned() {
        // Freshness depends on the crawl and the index alone, so a short
        // serving horizon leaves it unchanged.
        let report =
            SoakScenario::new(SoakConfig { serve_horizon: HOUR, ..SoakConfig::smoke(0x50A6_0001) })
                .run();
        let bits: Vec<(SimTime, u64)> =
            report.freshness.curve.iter().map(|&(t, c)| (t, c.to_bits())).collect();
        assert_eq!(
            bits,
            [
                (0, 0),
                (48 * SECOND, 0),
                (96 * SECOND, 0),
                (144 * SECOND, 0.9f64.to_bits()),
                (192 * SECOND, 0.9f64.to_bits()),
                (240 * SECOND, 1.0f64.to_bits()),
            ]
        );
        assert_eq!(report.freshness.full_at, 240 * SECOND);
    }

    #[test]
    fn tampered_reports_are_flagged() {
        let clean = SoakScenario::new(tiny()).run();
        assert!(SoakInvariants::check(&clean).violations().is_empty());

        // A politeness breach planted in the trace is found.
        let mut r = clean.clone();
        let span = r.crawl_trace[0];
        let twin = FetchSpan { start: span.end, end: span.end + 1, ..span };
        r.crawl_trace.push(twin);
        let inv = SoakInvariants::check(&r);
        assert!(inv.politeness_violations > 0);
        assert!(!inv.violations().is_empty());

        // A Failed query while sites were live is found.
        let mut r = clean.clone();
        let q = &mut r.queries[0];
        q.served = Served::Failed;
        q.live_sites = 1;
        assert!(SoakInvariants::check(&r).failed_while_live > 0);

        // A freshness-lag breach is found.
        let mut r = clean.clone();
        r.refreshes[0].max_lag = r.refresh_interval + 1;
        let inv = SoakInvariants::check(&r);
        assert!(inv.freshness_max_lag > inv.freshness_bound);
        assert!(!inv.violations().is_empty());

        // A lost document (published != fetched) breaks exactly-once
        // coverage.
        let mut r = clean.clone();
        r.fetched_docs += 1;
        assert!(!SoakInvariants::check(&r).coverage_exactly_once);

        // An invalid partition map breaks it too.
        let mut r = clean.clone();
        r.map_validates = false;
        assert!(!SoakInvariants::check(&r).coverage_exactly_once);

        // Offline stats drifting from the live instruments are caught
        // bitwise.
        let mut r = clean.clone();
        r.crawl_faults.crashes += 1;
        let inv = SoakInvariants::check(&r);
        assert!(inv.mismatches.iter().any(|m| m.contains("crawl.crashes")));
        assert!(!inv.violations().is_empty());

        // Site-tier counters disagreeing with the per-query trace show
        // up as an outcome gap.
        let mut r = clean.clone();
        r.site_stats.failed += 1;
        assert_ne!(SoakInvariants::check(&r).outcome_gap, 0);
    }

    #[test]
    fn calm_config_disables_every_churn_mechanism() {
        let calm = SoakConfig::calm(3);
        assert!(!calm.crawl_churn && !calm.site_outages && !calm.replica_churn);
        assert_eq!(calm.splits, 0);
        let report = SoakScenario::new(SoakConfig {
            pages: 150,
            hosts: 12,
            serve_horizon: 2 * HOUR,
            mean_qps: 0.01,
            ..calm
        })
        .run();
        SoakInvariants::check(&report).assert_clean();
        assert_eq!(report.repart_stats.epoch, 0);
        assert_eq!(report.crawl_faults.crashes, 0);
        assert_eq!(report.site_stats.failed, 0);
    }

    #[test]
    fn outcome_counts_add_up() {
        let c = OutcomeCounts {
            cache_hit: 1,
            full: 2,
            routed: 3,
            degraded: 4,
            stale: 5,
            partial: 6,
            shed: 7,
            failed: 8,
        };
        assert_eq!(c.total(), 36);
        assert_eq!(c.full_fidelity(), 6);
    }
}
