//! Experiment **E4**: crawler tolerance to slow and faulty servers
//! (Section 3, external factors).
//!
//! "A distributed Web crawler must be tolerant to transient failures and
//! slow links to be able to cover the Web to a large extent." We sweep the
//! fraction of flaky servers and their failure probability, with and
//! without retries, plus an agent-crash run and a DNS-cache ablation.
//!
//! Run: `cargo run -p dwr-bench --release -- E4`

use crate::{Ctx, Scale, SEED};
use dwr_crawler::assign::{AgentId, ConsistentHashAssigner, HashAssigner};
use dwr_crawler::sim::{CrawlConfig, DistributedCrawl};
use dwr_crawler::AgentSchedule;
use dwr_sim::SECOND;
use dwr_webgraph::qos::QosConfig;

fn base_cfg() -> CrawlConfig {
    CrawlConfig {
        agents: 8,
        connections_per_agent: 16,
        politeness_delay: SECOND / 2,
        ..CrawlConfig::default()
    }
}

pub(crate) fn run(ctx: &Ctx) {
    println!("E4. Crawl coverage under server failures, retries, and agent crashes.\n");
    let web = &ctx.fixture(Scale::Medium).web;

    println!("(a) flaky-server sweep:");
    println!(
        "  {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "flaky%", "retries", "coverage", "failures", "abandoned", "makespan(h)"
    );
    for flaky in [0.0, 0.1, 0.3] {
        for retries in [0u32, 3] {
            let mut cfg = base_cfg();
            cfg.qos = QosConfig {
                flaky_fraction: flaky,
                flaky_failure_prob: 0.5,
                slow_fraction: 0.1,
                ..QosConfig::default()
            };
            cfg.max_retries = retries;
            let r = DistributedCrawl::new(web, HashAssigner::new(8), cfg, SEED).run();
            println!(
                "  {:>7.0}% {:>8} {:>9.1}% {:>10} {:>10} {:>11.2}",
                flaky * 100.0,
                retries,
                100.0 * r.coverage,
                r.transient_failures,
                r.abandoned,
                r.makespan as f64 / 3.6e9
            );
        }
    }

    println!("\n(b) agent crash mid-crawl (consistent hashing, 8 agents):");
    let baseline =
        DistributedCrawl::new(web, ConsistentHashAssigner::new(8, 128), base_cfg(), SEED).run();
    let mut crash_cfg = base_cfg();
    crash_cfg.faults = Some(AgentSchedule::single_crash(8, AgentId(3), baseline.makespan / 4));
    let crashed =
        DistributedCrawl::new(web, ConsistentHashAssigner::new(8, 128), crash_cfg, SEED).run();
    println!("  {:<22} {:>10} {:>12} {:>12}", "", "coverage", "duplicates", "makespan(h)");
    println!(
        "  {:<22} {:>9.1}% {:>12} {:>12.2}",
        "no crash",
        100.0 * baseline.coverage,
        baseline.duplicate_fetches,
        baseline.makespan as f64 / 3.6e9
    );
    println!(
        "  {:<22} {:>9.1}% {:>12} {:>12.2}",
        "agent 3 dies at t/4",
        100.0 * crashed.coverage,
        crashed.duplicate_fetches,
        crashed.makespan as f64 / 3.6e9
    );
    assert_eq!(crashed.duplicate_fetches, 0, "a crash must not make the crawl fetch a page twice");

    println!("\n(c) DNS cost (same crawl, per-agent caches):");
    println!(
        "  hit ratio {:>5.1}%   total lookup time {:.1} simulated hours",
        100.0 * baseline.dns.hit_ratio(),
        baseline.dns.total_lookup_time as f64 / 3.6e9
    );
    println!("\npaper shape: retries recover coverage under transient failures; a crashed");
    println!("agent's hosts are re-assigned (consistent hashing) and coverage survives with");
    println!("no duplicate fetch; DNS caching absorbs the lookup bottleneck.");
}
