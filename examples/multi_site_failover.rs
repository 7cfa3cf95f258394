//! Multi-site operation: geographic routing, diurnal offloading, site
//! failures, replicated user state — the Section 5 scenario end to end.
//!
//! ```sh
//! cargo run --example multi_site_failover --release
//! ```

use distributed_web_retrieval::avail::failure::{DownInterval, Timeline};
use distributed_web_retrieval::avail::monthly::{
    availability_histogram, figure5_thresholds, monthly_availability,
};
use distributed_web_retrieval::avail::site::SiteConfig;
use distributed_web_retrieval::partition::doc::{DocPartitioner, RoundRobinPartitioner};
use distributed_web_retrieval::partition::parted::{Corpus, PartitionedIndex};
use distributed_web_retrieval::query::cache::LruCache;
use distributed_web_retrieval::query::engine::DistributedEngine;
use distributed_web_retrieval::query::multisite::{
    MultiSiteConfig, MultiSiteEngine, SiteEngineSpec,
};
use distributed_web_retrieval::query::replica::PrimaryBackupStore;
use distributed_web_retrieval::querylog::arrival::{generate_arrivals, DiurnalProfile};
use distributed_web_retrieval::sim::net::Topology;
use distributed_web_retrieval::sim::{SimTime, DAY, HOUR};
use distributed_web_retrieval::text::TermId;

/// Three sites in three time zones, one small engine per site over the
/// same index, each serving 1 query/second at full utilization.
fn tier(
    pi: &PartitionedIndex,
    traces: &[Timeline],
    cfg: MultiSiteConfig,
) -> MultiSiteEngine<LruCache> {
    let sites = traces
        .iter()
        .enumerate()
        .map(|(s, trace)| SiteEngineSpec {
            region: s as u16,
            capacity_qps: 1.0,
            engine: DistributedEngine::new(pi, LruCache::new(64), 2),
            outages: trace.clone(),
        })
        .collect();
    MultiSiteEngine::new(sites, Topology::geo_ring(3), cfg)
}

fn main() {
    let seed = 404;
    let corpus: Corpus =
        (0..60u32).map(|d| vec![(TermId(d % 8), 2), (TermId(100 + d % 5), 1)]).collect();
    let assignment = RoundRobinPartitioner.assign(&corpus, 4);
    let pi = PartitionedIndex::build(&corpus, &assignment, 4);

    // --- Diurnal demand whose local peak exceeds one site's capacity. ---
    let profiles: Vec<DiurnalProfile> = (0..3)
        .map(|r| DiurnalProfile { mean_qps: 0.6, amplitude: 0.9, phase: r as f64 / 3.0 })
        .collect();
    let arrivals = generate_arrivals(&profiles, DAY, seed);
    println!("one day, {} queries across 3 regions", arrivals.len());
    let always_up: Vec<Timeline> = (0..3).map(|_| Timeline::always_up(DAY)).collect();
    let hourly = MultiSiteConfig { util_window: HOUR, ..MultiSiteConfig::default() };
    for (name, shed_threshold) in [("nearest", f64::INFINITY), ("load-aware", 0.65)] {
        let engine = tier(&pi, &always_up, MultiSiteConfig { shed_threshold, ..hourly });
        // Utilization only grows inside its window, so the serving site's
        // reading after each query tracks every hour's peak.
        let mut peak = 0f64;
        for (i, a) in arrivals.iter().enumerate() {
            engine.advance_to(a.time);
            let r = engine.query(a.region, &[TermId((i % 8) as u32)], 10);
            if let Some(s) = r.site {
                peak = peak.max(engine.utilization(s));
            }
        }
        let s = engine.stats();
        println!(
            "{name:>10} routing: peak utilization {:>4.0}%, {} rerouted, {} shed",
            100.0 * peak,
            s.served_remote,
            s.shed()
        );
    }

    // --- A site outage during the local peak. ---
    // Site 0's queries fail over to the ring neighbours while its trace
    // says "down".
    let mut traces = always_up;
    traces[0] = Timeline::new(vec![DownInterval { start: 9 * HOUR, end: 15 * HOUR }], DAY);
    let engine = tier(&pi, &traces, MultiSiteConfig::default());
    let n = 600u64;
    for i in 0..n {
        engine.advance_to(i as SimTime * DAY / n as SimTime);
        engine.query((i % 3) as u16, &[TermId((i % 8) as u32)], 10);
    }
    let live = engine.stats();
    println!(
        "site-0 outage 9h-15h, {} queries: {} local, {} remote ({} WAN hops), {} shed, {} failed",
        live.total(),
        live.served_local,
        live.served_remote,
        live.wan_hops,
        live.shed(),
        live.failed
    );

    // --- How often do sites fail? The BIRN-like availability picture. ---
    let configs: Vec<SiteConfig> = (0..16).map(|_| SiteConfig::birn_like(2)).collect();
    let monthly = monthly_availability(&configs, 8, seed);
    let hist = availability_histogram(&monthly, &figure5_thresholds());
    println!(
        "\nsimulated fleet of 16 sites over 8 months: {:.1} sites/month with an outage",
        hist.last().copied().unwrap_or(0.0)
    );

    // --- Personalization state must survive those failures. ---
    let mut profiles_store = PrimaryBackupStore::new(2);
    profiles_store.put(1001, 7).expect("acked");
    profiles_store.put(1002, 3).expect("acked");
    println!("\nuser-profile store: primary is replica {}", profiles_store.primary());
    profiles_store.crash(0);
    println!(
        "primary crashed -> new primary {}; user 1001 prefs still {:?}",
        profiles_store.primary(),
        profiles_store.get(1001)
    );
    profiles_store.recover(0);
    profiles_store.crash(1);
    profiles_store.crash(2);
    println!(
        "after recovery + two more crashes, user 1002 prefs still {:?}",
        profiles_store.get(1002)
    );
}
