//! Experiment **E24**: site-tier fault tolerance — availability vs
//! *site* replication under whole-site outage traces (Section 5).
//!
//! "We say that a site is unavailable if it is not possible to reach any
//! of the servers of this site." E23 measured replication *inside* one
//! site; this experiment replicates the **site itself**: r complete
//! serving stacks on a WAN ring, each with its own BIRN-like outage
//! timeline, queries routed to the nearest live site and failed over
//! across the WAN when that site is down or dies mid-query. A query is
//! `failed` only when *no* site is live — everything else is served
//! (possibly remotely, at a WAN latency cost) or explicitly shed.
//!
//! The trace generator is dimension-stable: the outage timelines for r
//! sites are a prefix of those for r+1, so each row faces the *same*
//! outages plus one extra site to absorb them — the failed rate can only
//! go down as r grows, and the table asserts exactly that.
//!
//! Run: `cargo run -p dwr-bench --bin exp_site_failover --release`
//! CI smoke: `cargo run -p dwr-bench --bin exp_site_failover --release -- --smoke`

use dwr_avail::site::SiteConfig;
use dwr_avail::UpDownProcess;
use dwr_bench::{Fixture, Scale, SEED};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::PartitionedIndex;
use dwr_query::cache::LruCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::faults::site_outage_traces;
use dwr_query::multisite::{MultiSiteConfig, MultiSiteEngine, SiteEngineSpec};
use dwr_sim::net::Topology;
use dwr_sim::{SimRng, SimTime, DAY, HOUR, MILLISECOND, MINUTE, SECOND};
use dwr_text::TermId;

const PARTITIONS: usize = 4;
const MAX_SITES: usize = 4;

/// One complete serving stack per site over the shared fixture index.
fn build_tier(
    pi: &PartitionedIndex,
    traces: Vec<dwr_avail::site::Site>,
    cfg: MultiSiteConfig,
) -> MultiSiteEngine<LruCache> {
    let n = traces.len();
    let sites = traces
        .into_iter()
        .enumerate()
        .map(|(s, outages)| SiteEngineSpec {
            region: s as u16,
            capacity_qps: 200.0,
            engine: DistributedEngine::new(pi, LruCache::new(256), 2),
            outages,
        })
        .collect();
    MultiSiteEngine::new(sites, Topology::geo_ring(n), cfg)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n_queries: usize = if smoke { 2_000 } else { 20_000 };
    let horizon: SimTime = 90 * DAY;

    println!("E24. Site-tier fault tolerance: availability vs site replication.\n");
    println!("(a) steady-state stream against whole-site outage traces");
    let f = Fixture::new(Scale::Small);
    let assignment = RandomPartitioner { seed: SEED }.assign(&f.corpus, PARTITIONS);
    let pi = PartitionedIndex::build(&f.corpus, &assignment, PARTITIONS);

    // BIRN-shaped outages (network-partition dominated), accelerated so
    // the replication effect is visible within the horizon: a site is
    // down ~10% of the time instead of the calibrated ~1%.
    let site_cfg = SiteConfig {
        servers: 2,
        network: UpDownProcess::exponential(3 * DAY, 8 * HOUR),
        server: UpDownProcess::exponential(10 * DAY, 12 * HOUR),
    };
    let trace_seed = SEED ^ 0x517E;
    println!(
        "stream: {n_queries} Zipf queries over {} simulated days, {PARTITIONS} partitions/site,",
        horizon / DAY
    );
    println!("WAN ring topology, deadline 2 s, max 3 attempts, MTBF 3 d / MTTR 8 h per site\n");

    println!(
        "  {:>2} {:>8} {:>8} {:>7} {:>8} {:>6} {:>10} {:>8} {:>9}",
        "r", "local%", "remote%", "shed%", "failed%", "hops", "addlat", "down%", "answered%"
    );
    let mut failed_rates = Vec::new();
    for n_sites in 1..=MAX_SITES {
        // Dimension-stable: these traces extend the previous row's.
        let traces = site_outage_traces(n_sites, &site_cfg, horizon, trace_seed);
        let mean_down = traces.iter().map(|t| 1.0 - t.availability()).sum::<f64>() / n_sites as f64;
        let engine = build_tier(&pi, traces, MultiSiteConfig::default());
        // The identical query stream for every row.
        let mut rng = SimRng::new(SEED ^ 0x0F42);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            let qid = f.queries.sample(&mut rng);
            let terms: Vec<TermId> =
                f.queries.query(qid).terms.iter().map(|t| TermId(t.0)).collect();
            let region = rng.below(MAX_SITES as u64) as u16;
            engine.query(region, &terms, 10);
        }
        let s = engine.stats();
        assert_eq!(s.total(), n_queries as u64, "every query accounted for: {s:?}");
        let pct = |c: u64| 100.0 * c as f64 / n_queries as f64;
        let failed = pct(s.failed);
        let add_ms = if s.answered() > 0 {
            s.added_latency_us as f64 / s.answered() as f64 / MILLISECOND as f64
        } else {
            0.0
        };
        println!(
            "  {:>2} {:>8.2} {:>8.2} {:>7.2} {:>8.2} {:>6} {:>8.1}ms {:>8.1} {:>9.2}",
            n_sites,
            pct(s.served_local),
            pct(s.served_remote),
            pct(s.shed()),
            failed,
            s.wan_hops,
            add_ms,
            100.0 * mean_down,
            100.0 - failed - pct(s.shed()),
        );
        failed_rates.push(failed);
    }

    for pair in failed_rates.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "failed rate must not increase with site replication: {failed_rates:?}"
        );
    }
    println!("\ncheck: failed rate is monotonically non-increasing in r  [ok]");

    // (b) Load shedding under a regional burst: a 3-site tier where the
    // local site's admission quota is exceeded — overflow spills to the
    // next-nearest live site, and once every site is saturated the rest
    // is shed explicitly rather than dropped.
    println!("\n(b) admission control: one-second burst of 30 queries into a 10 qps tier");
    let traces = site_outage_traces(3, &site_cfg, horizon, trace_seed);
    let cfg =
        MultiSiteConfig { shed_threshold: 0.8, util_window: SECOND, ..MultiSiteConfig::default() };
    let sites = traces
        .into_iter()
        .enumerate()
        .map(|(s, outages)| SiteEngineSpec {
            region: s as u16,
            capacity_qps: 5.0,
            engine: DistributedEngine::new(&pi, LruCache::new(64), 2),
            outages,
        })
        .collect();
    let engine = MultiSiteEngine::new(sites, Topology::geo_ring(3), cfg);
    engine.advance_to(10 * MINUTE); // a quiet, all-sites-up instant
    let mut rng = SimRng::new(SEED ^ 0xB057);
    for _ in 0..30 {
        let qid = f.queries.sample(&mut rng);
        let terms: Vec<TermId> = f.queries.query(qid).terms.iter().map(|t| TermId(t.0)).collect();
        engine.query(0, &terms, 10);
    }
    let s = engine.stats();
    assert_eq!(s.total(), 30, "burst fully accounted for: {s:?}");
    println!(
        "  {} served locally, {} spilled to remote sites, {} shed (overload), {} lost",
        s.served_local,
        s.served_remote,
        s.shed_overload,
        30 - s.total(),
    );

    println!("\npaper shape: one site alone leaves its outages on the user; each added site");
    println!("absorbs an order of magnitude of failures at the price of WAN round trips on");
    println!("the failed-over fraction, and admission control turns overload into explicit");
    println!("shedding and spill instead of silent loss.");
}
