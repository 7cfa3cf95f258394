//! Experiment **E10**: multi-site geographic routing and hourly
//! offloading (Section 5; Beitzel et al. \[33\] for the diurnal cycle).
//!
//! "It is also possible to offload a server from a busy area by re-routing
//! some queries to query processors in less busy areas."
//!
//! One day of diurnal arrivals is served query by query by a live 3-site
//! [`MultiSiteEngine`], in three arms: nearest-live routing (the default
//! infinite `shed_threshold`), load-aware offload (an hourly admission
//! quota at 70% of capacity, whose spill to the next-nearest site is the
//! re-routing), and nearest routing through a 6-hour outage of site 0.
//! Hourly per-site load is the engine's measured `utilization`. The live
//! tier serves without a queue, so mean response is an M/M/c estimate
//! over those measured loads.
//!
//! Run: `cargo run -p dwr-bench --release -- E10`
//! (`--smoke` divides arrival rate and capacity by 10, so ρ is unchanged).

use crate::{site_tier, Ctx, SEED};
use dwr_avail::failure::{DownInterval, Timeline};
use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_query::cache::LruCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::multisite::{MultiSiteConfig, MultiSiteStats};
use dwr_querylog::arrival::{generate_arrivals, Arrival, DiurnalProfile};
use dwr_queueing::mmc::MMc;
use dwr_sim::{SimTime, DAY, HOUR, MILLISECOND, SECOND};
use dwr_text::TermId;

const SITES: usize = 3;
const HOURS: usize = 24;
/// Server threads per site.
const SERVERS: u32 = 16;
/// Utilization above which the load-aware arm spills to another site.
const OFFLOAD_AT: f64 = 0.7;

/// One arm's day, read off the engine hour by hour.
struct Day {
    /// `util[hour][site]`: the engine's measured utilization.
    util: Vec<[f64; SITES]>,
    /// `load[hour][site]`: queries admitted, recovered from `util`.
    load: Vec<[u64; SITES]>,
    /// Queries served by a site other than their region's, per hour.
    rerouted: Vec<u64>,
    stats: MultiSiteStats,
}

impl Day {
    fn peak(&self) -> f64 {
        self.util.iter().flatten().copied().fold(0.0, f64::max)
    }
}

/// Serve `arrivals` through one engine per site over `pi`, each site
/// with capacity `capacity_qps`, an hourly admission window, and the
/// given outage trace.
fn serve_day(
    arrivals: &[Arrival],
    pi: &PartitionedIndex,
    capacity_qps: f64,
    shed_threshold: f64,
    outages: &[Timeline],
) -> Day {
    let cfg = MultiSiteConfig { shed_threshold, util_window: HOUR, ..MultiSiteConfig::default() };
    let engine = site_tier(outages.to_vec(), capacity_qps, cfg, || {
        DistributedEngine::new(pi, LruCache::new(4), 1)
    });
    let window_s = (HOUR / SECOND) as f64;
    let mut day =
        Day { util: Vec::new(), load: Vec::new(), rerouted: Vec::new(), stats: engine.stats() };
    // Read hour `h` at its last instant, while its window is current.
    let mut close_hour = |h: usize| {
        engine.advance_to((h as SimTime + 1) * HOUR - 1);
        let util: [f64; SITES] = std::array::from_fn(|s| engine.utilization(s));
        let stats = engine.stats();
        day.load.push(util.map(|u| (u * capacity_qps * window_s).round() as u64));
        day.util.push(util);
        day.rerouted.push(stats.served_remote - day.stats.served_remote);
        day.stats = stats;
    };
    // Every query is the same one, so after its first miss each site
    // answers from a warm cache: the arms measure routing, not search.
    let probe = [TermId(1)];
    let mut hour = 0;
    for a in arrivals {
        while (a.time / HOUR) as usize > hour {
            close_hour(hour);
            hour += 1;
        }
        engine.advance_to(a.time);
        engine.query(a.region, &probe, 10);
    }
    while hour < HOURS {
        close_hour(hour);
        hour += 1;
    }
    day
}

/// Mean response (s) over the day's hourly means, each an M/M/c estimate
/// of every site's measured load plus one WAN round trip per re-routed
/// query; and the queries that arrived at a saturated site (ρ ≥ 0.99).
fn mmc_response(day: &Day, mean_service_s: f64) -> (f64, u64) {
    let capacity = f64::from(SERVERS) / mean_service_s;
    let wan_penalty = 2.0 * (30 * MILLISECOND) as f64 / 1e6;
    let mut overloaded = 0;
    let hourly: Vec<f64> = day
        .load
        .iter()
        .zip(&day.rerouted)
        .map(|(load, &rerouted)| {
            let (mut acc, mut n) = (0f64, 0u64);
            for &l in load.iter().filter(|&&l| l > 0) {
                let qps = l as f64 / 3600.0;
                let service = if qps / capacity < 0.99 {
                    MMc::new(qps.max(1e-9), 1.0 / mean_service_s, SERVERS).mean_response_time()
                } else {
                    overloaded += l;
                    // Saturated: a 10× penalty stands in for an unbounded queue.
                    mean_service_s * 10.0
                };
                acc += service * l as f64;
                n += l;
            }
            acc += wan_penalty * rerouted as f64;
            if n > 0 {
                acc / n as f64
            } else {
                0.0
            }
        })
        .collect();
    (hourly.iter().sum::<f64>() / hourly.len() as f64, overloaded)
}

pub(crate) fn run(ctx: &Ctx) {
    let scale = if ctx.smoke { 10.0 } else { 1.0 };
    println!("E10. Multi-site routing over three time zones, one simulated day.\n");

    // Peak demand exceeds one site's capacity (160 qps): mean 100, peak 190.
    let mean_service_s = 0.1 * scale;
    let capacity_qps = f64::from(SERVERS) / mean_service_s;
    let profiles: Vec<DiurnalProfile> = (0..SITES)
        .map(|r| DiurnalProfile {
            mean_qps: 100.0 / scale,
            amplitude: 0.9,
            phase: r as f64 / SITES as f64,
        })
        .collect();
    let arrivals = generate_arrivals(&profiles, DAY, SEED ^ 0x517E);
    let corpus: Corpus =
        (0..24u32).map(|d| vec![(TermId(d % 5), 2), (TermId(50 + d % 3), 1)]).collect();
    let pi = PartitionedIndex::build(&corpus, &RoundRobinPartitioner.assign(&corpus, 4), 4);
    let always_up: Vec<Timeline> = (0..SITES).map(|_| Timeline::always_up(DAY)).collect();

    let near = serve_day(&arrivals, &pi, capacity_qps, f64::INFINITY, &always_up);
    let aware = serve_day(&arrivals, &pi, capacity_qps, OFFLOAD_AT, &always_up);
    let (near_resp, near_overloaded) = mmc_response(&near, mean_service_s);
    let (aware_resp, aware_overloaded) = mmc_response(&aware, mean_service_s);

    println!("(a) hourly utilization of site 0 (its local peak saturates it):");
    println!("  {:>4} {:>16} {:>16}", "hour", "nearest", "load-aware");
    for h in 0..HOURS {
        println!(
            "  {:>4} {:>15.0}% {:>15.0}%",
            h,
            100.0 * near.util[h][0],
            100.0 * aware.util[h][0]
        );
    }
    println!("\n(b) summary:");
    println!("  {:<24} {:>12} {:>12}", "", "nearest", "load-aware");
    println!(
        "  {:<24} {:>11.0}% {:>11.0}%",
        "peak site utilization",
        100.0 * near.peak(),
        100.0 * aware.peak()
    );
    println!(
        "  {:<24} {:>12} {:>12}",
        "queries rerouted", near.stats.served_remote, aware.stats.served_remote
    );
    println!("  {:<24} {:>12} {:>12}", "queries shed", near.stats.shed(), aware.stats.shed());
    println!(
        "  {:<24} {:>12} {:>12}",
        "overloaded-hour queries", near_overloaded, aware_overloaded
    );
    println!(
        "  {:<24} {:>11.1}ms {:>11.1}ms",
        "mean response",
        1000.0 * near_resp,
        1000.0 * aware_resp
    );

    println!("\n(c) with a 6-hour outage of site 0 (nearest routing):");
    let mut traces = always_up;
    traces[0] =
        Timeline::new(vec![DownInterval { start: 8 * HOUR, end: 14 * HOUR }], DAY);
    let outage = serve_day(&arrivals, &pi, capacity_qps, f64::INFINITY, &traces);
    println!(
        "  rerouted {} queries; peak surviving-site utilization {:.0}%; {} unserved",
        outage.stats.served_remote,
        100.0 * outage.peak(),
        outage.stats.failed
    );

    // Nearest routing keeps every query at its region's site.
    let mut demand = vec![[0u64; SITES]; HOURS];
    for a in &arrivals {
        demand[(a.time / HOUR) as usize][usize::from(a.region)] += 1;
    }
    assert_eq!(near.load, demand, "nearest routing serves each region at home");
    assert!(near.peak() > 1.0, "the busy area overloads under nearest routing");
    // The quota holds every site at or below the threshold, and the other
    // sites' off-peak room absorbs the overflow without shedding.
    assert!(aware.peak() <= OFFLOAD_AT, "load-aware peak {}", aware.peak());
    assert!(aware.stats.served_remote > 0, "load-aware routing re-routed nothing");
    assert_eq!(aware.stats.shed(), 0, "total demand fits the summed quotas");
    // The surviving sites absorb the outage, and the dark site takes no
    // query while it is down.
    assert_eq!(outage.stats.failed, 0);
    assert!(outage.util[8..14].iter().all(|u| u[0] == 0.0), "site 0 served while down");

    println!("\npaper shape: diurnal peaks rotate across time zones; load-aware routing");
    println!("shaves the local peak by shipping overflow to off-peak sites at a small");
    println!("WAN latency cost, and outages are absorbed by the surviving sites.");
}
