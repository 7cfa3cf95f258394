//! Experiment **E26**: crawler-tier fault tolerance — agent churn vs
//! assignment policy (Section 3, dependability row of Table 1).
//!
//! Sweeps churn rate × assignment policy over *the same* fault schedule:
//! agents crash and recover mid-crawl under an `AgentSchedule`; every
//! membership change updates the live assigner, re-routes the moved
//! hosts, and hands the departing agent's unfetched frontier to the new
//! owners with politeness state carried over. Measured per cell:
//!
//! * `hosts_moved` — total host-ownership changes, the consistent-hashing
//!   movement metric ("new agents enter the crawling system without
//!   re-hashing all the server names", UbiCrawler \[6\]);
//! * `refetches` / `lost_inflight` — crash-induced rework;
//! * what churn costs in downloads: duplicate fetches (pages downloaded
//!   twice) and fetch attempts per fetched page;
//! * handoff traffic, coverage, and makespan.
//!
//! The headline assertion: at **every** churn rate, consistent hashing
//! moves strictly fewer hosts per membership change than modulo
//! rehashing — and churn never costs coverage, nor a duplicate fetch.
//!
//! Run: `cargo run -p dwr-bench --release -- E26 [--smoke]`

use crate::{Ctx, SEED};
use dwr_avail::UpDownProcess;
use dwr_crawler::assign::{ConsistentHashAssigner, HashAssigner};
use dwr_crawler::sim::{CrawlConfig, CrawlReport, DistributedCrawl};
use dwr_crawler::AgentSchedule;
use dwr_obs::{ObsConfig, ObsRecorder};
use dwr_sim::{SimTime, SECOND};
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::SyntheticWeb;
use std::sync::Arc;

fn crawl_cfg(agents: u32) -> CrawlConfig {
    CrawlConfig {
        agents,
        connections_per_agent: 8,
        politeness_delay: SECOND / 2,
        batch_size: 20,
        ..CrawlConfig::default()
    }
}

fn run_cell(
    web: &SyntheticWeb,
    agents: u32,
    schedule: Option<AgentSchedule>,
    policy: &str,
) -> CrawlReport {
    let mut cfg = crawl_cfg(agents);
    cfg.faults = schedule;
    match policy {
        "modulo" => DistributedCrawl::new(web, HashAssigner::new(agents), cfg, SEED).run(),
        "consistent" => {
            DistributedCrawl::new(web, ConsistentHashAssigner::new(agents, 64), cfg, SEED).run()
        }
        other => unreachable!("unknown policy {other}"),
    }
}

pub(crate) fn run(ctx: &Ctx) {
    println!("E26. Crawler-tier fault tolerance: agent churn vs assignment policy.\n");

    let (web, agents, scales): (_, u32, &[f64]) = if ctx.smoke {
        let mut wc = WebConfig::tiny();
        wc.num_pages = 800;
        wc.num_hosts = 40;
        (generate_web(&wc, SEED), 4, &[2.0, 0.5])
    } else {
        let mut wc = WebConfig::tiny();
        wc.num_pages = 2_000;
        wc.num_hosts = 100;
        (generate_web(&wc, SEED), 8, &[4.0, 2.0, 1.0, 0.5])
    };

    // Fault-free baselines fix the coverage bar and size the schedule
    // horizon so churn spans the whole crawl for either policy.
    let base_mod = run_cell(&web, agents, None, "modulo");
    let base_cons = run_cell(&web, agents, None, "consistent");
    let horizon: SimTime = 2 * base_mod.makespan.max(base_cons.makespan);
    println!(
        "fixture: {} pages / {} hosts, {agents} agents; fault-free coverage {:.3} (modulo) / {:.3} (consistent)",
        web.num_pages(),
        web.num_hosts(),
        base_mod.coverage,
        base_cons.coverage
    );
    println!(
        "churn: one up/down process per agent, mean up horizon/8 / down horizon/32 at\nscale 1.0; larger scale = slower churn. Same schedule for both policies per rate.\n"
    );

    println!(
        "  {:>5} {:>11} {:>4} {:>4} {:>6} {:>11} {:>6} {:>5} {:>5} {:>9} {:>8} {:>7} {:>9}",
        "scale",
        "policy",
        "dn",
        "up",
        "moved",
        "moved/chg",
        "lost",
        "refet",
        "dup",
        "att/page",
        "handoff",
        "cover",
        "makespan"
    );
    // Sized against the crawl itself so every sweep point actually
    // churns: at scale 1.0 an agent flaps ~4 times over the horizon.
    let base = UpDownProcess::exponential(horizon / 8, horizon / 32);
    for &scale in scales {
        let process = base.scaled(scale);
        let schedule = AgentSchedule::generate(agents as usize, &process, horizon, SEED ^ 0xC8A4);
        let mut per_change = Vec::new();
        for policy in ["modulo", "consistent"] {
            let r = run_cell(&web, agents, Some(schedule.clone()), policy);
            let f = r.faults;
            let changes = f.crashes + f.recoveries;
            assert!(changes > 0, "scale {scale}: the schedule must actually churn");
            let moved_per_change = f.hosts_moved as f64 / changes as f64;
            println!(
                "  {:>5.1} {:>11} {:>4} {:>4} {:>6} {:>11.1} {:>6} {:>5} {:>5} {:>9.3} {:>8} {:>7.3} {:>8.0}s",
                scale,
                policy,
                f.crashes,
                f.recoveries,
                f.hosts_moved,
                moved_per_change,
                f.lost_inflight,
                f.refetches,
                r.duplicate_fetches,
                r.attempts as f64 / r.fetched_pages as f64,
                f.handoff_urls,
                r.coverage,
                r.makespan as f64 / SECOND as f64,
            );
            assert_eq!(
                r.duplicate_fetches, 0,
                "scale {scale} {policy}: churn must not fetch a page twice"
            );
            let baseline = if policy == "modulo" { &base_mod } else { &base_cons };
            assert!(
                r.coverage > baseline.coverage - 0.1,
                "scale {scale} {policy}: churn cost too much coverage ({} vs {})",
                r.coverage,
                baseline.coverage
            );
            per_change.push(moved_per_change);
        }
        // The paper's point, asserted: consistent hashing moves strictly
        // fewer hosts per membership change than modulo rehashing.
        assert!(
            per_change[1] < per_change[0],
            "scale {scale}: consistent hashing must move fewer hosts per change \
             (consistent {:.1} vs modulo {:.1})",
            per_change[1],
            per_change[0]
        );
    }
    println!("\ncheck: consistent < modulo hosts moved per membership change at every rate  [ok]");
    println!("check: 0 duplicate fetches in every churned cell  [ok]");

    // Cross-check: the dwr-obs crawl counters agree *exactly* with the
    // offline CrawlFaultStats for a live-instrumented run.
    let process = base.scaled(1.0);
    let schedule = AgentSchedule::generate(agents as usize, &process, horizon, SEED ^ 0xC8A4);
    let mut cfg = crawl_cfg(agents);
    cfg.faults = Some(schedule);
    let rec = Arc::new(ObsRecorder::new(ObsConfig::crawl_tier()));
    let r = DistributedCrawl::new(&web, ConsistentHashAssigner::new(agents, 64), cfg, SEED)
        .with_obs(Arc::clone(&rec))
        .run();
    let snap = rec.snapshot();
    let f = r.faults;
    for (counter, offline) in [
        ("crawl.crashes", f.crashes),
        ("crawl.recoveries", f.recoveries),
        ("crawl.hosts_moved", f.hosts_moved),
        ("crawl.lost_inflight", f.lost_inflight),
        ("crawl.refetches", f.refetches),
        ("crawl.handoff_batches", f.handoff_batches),
        ("crawl.handoff_urls", f.handoff_urls),
    ] {
        assert_eq!(snap.counter(counter), Some(offline), "{counter} disagrees with offline stats");
    }
    println!("check: live crawl.* counters == offline fault stats, all seven  [ok]");

    println!("\npaper shape: modulo rehashing reassigns almost every host on every membership");
    println!("change while consistent hashing moves only the lost/gained arcs, so under the");
    println!("same churn it pays far less frontier handoff — and either way the handoff");
    println!("protocol keeps coverage at the fault-free level for the politeness-bounded cost");
    println!("of refetching the work that crashed mid-flight, and no page is fetched twice.");
}
