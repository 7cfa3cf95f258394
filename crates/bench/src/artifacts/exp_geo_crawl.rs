//! Experiment **E19**: geographic crawler placement (Exposto et al. \[13\]).
//!
//! "The network topology can also be a bottleneck. To solve this problem,
//! we can carefully distribute Web crawlers across distinct geographic
//! locations." Agents in every region fetch same-region hosts at LAN-ish
//! cost; cross-region fetches pay a WAN penalty. Geographic assignment
//! keeps fetches local; hash assignment scatters them.
//!
//! Run: `cargo run -p dwr-bench --release -- E19`

use crate::{clean_crawl, Ctx, SEED};
use dwr_crawler::assign::{GeoAssigner, HashAssigner};
use dwr_crawler::sim::{CrawlConfig, DistributedCrawl};
use dwr_sim::MILLISECOND;
use dwr_webgraph::generate::{generate_web, WebConfig};

pub(crate) fn run(_: &Ctx) {
    println!("E19. Geographic crawler placement vs plain hashing, 6 agents in 3 regions.\n");
    let mut web_cfg = WebConfig::medium();
    web_cfg.num_regions = 3;
    let web = generate_web(&web_cfg, SEED);

    // Two agents per region.
    let agent_regions = vec![0u16, 0, 1, 1, 2, 2];
    let base = CrawlConfig {
        cross_region_penalty: 400 * MILLISECOND,
        agent_regions: agent_regions.clone(),
        ..clean_crawl(6, 16)
    };

    let hash = DistributedCrawl::new(&web, HashAssigner::new(6), base.clone(), SEED).run();
    let geo = DistributedCrawl::new(&web, GeoAssigner::new(&agent_regions), base, SEED).run();

    println!(
        "  {:<18} {:>10} {:>12} {:>14} {:>12}",
        "assignment", "coverage", "makespan(h)", "exchanged URLs", "messages"
    );
    for (name, r) in [("hash", &hash), ("geographic", &geo)] {
        println!(
            "  {:<18} {:>9.1}% {:>12.2} {:>14} {:>12}",
            name,
            100.0 * r.coverage,
            r.makespan as f64 / 3.6e9,
            r.exchange.sent_urls,
            r.exchange.messages
        );
    }
    println!("\nmakespan ratio hash/geo: {:.2}x", hash.makespan as f64 / geo.makespan as f64);
    println!("\npaper shape: geographic assignment removes the cross-region fetch penalty");
    println!("from (almost) every download, finishing the crawl faster for the same");
    println!("politeness and coverage — the optimization problem of [13].");
}
