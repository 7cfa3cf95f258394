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
//! Run: `cargo run -p dwr-bench --release -- E24 [--smoke]`

use crate::{accelerated_site_traces, site_tier, Ctx, Scale, SEED};
use dwr_query::cache::LruCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::multisite::MultiSiteConfig;
use dwr_sim::{SimRng, SimTime, DAY, MILLISECOND, MINUTE, SECOND};

const PARTITIONS: usize = 4;
const MAX_SITES: usize = 4;

pub(crate) fn run(ctx: &Ctx) {
    let n_queries: usize = if ctx.smoke { 2_000 } else { 20_000 };
    let horizon: SimTime = 90 * DAY;

    println!("E24. Site-tier fault tolerance: availability vs site replication.\n");
    println!("(a) steady-state stream against whole-site outage traces");
    let f = ctx.fixture(Scale::Small);
    let pi = ctx.random_index(Scale::Small, PARTITIONS);
    // Accelerated outages, so the replication effect is visible within
    // the horizon.
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
        let traces = accelerated_site_traces(n_sites);
        let mean_down = traces.iter().map(|t| 1.0 - t.availability()).sum::<f64>() / n_sites as f64;
        // One complete serving stack per site over the shared fixture index.
        let engine = site_tier(traces, 200.0, MultiSiteConfig::default(), || {
            DistributedEngine::new(&pi, LruCache::new(256), 2)
        });
        // The identical query stream for every row.
        let mut rng = SimRng::new(SEED ^ 0x0F42);
        for i in 0..n_queries {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            let terms = f.terms(f.queries.sample(&mut rng));
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
    let cfg =
        MultiSiteConfig { shed_threshold: 0.8, util_window: SECOND, ..MultiSiteConfig::default() };
    let engine = site_tier(accelerated_site_traces(3), 5.0, cfg, || {
        DistributedEngine::new(&pi, LruCache::new(64), 2)
    });
    engine.advance_to(10 * MINUTE); // a quiet, all-sites-up instant
    for terms in f.zipf_terms(0xB057, 30) {
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
