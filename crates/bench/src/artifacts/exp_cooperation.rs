//! Experiment **E18**: server–crawler cooperation (Section 3).
//!
//! Three cooperation levels over the same web and crawl budget:
//! none, If-Modified-Since re-crawling \[7, 8, 9\], and sitemaps
//! (`http://www.sitemaps.org/`) — "the Web server informs the crawler of the
//! modification dates and modification frequencies for its local pages".
//! Robots exclusion runs throughout, as politeness requires.
//!
//! Run: `cargo run -p dwr-bench --release -- E18`

use crate::{clean_crawl, Ctx, Scale, SEED};
use dwr_crawler::assign::HashAssigner;
use dwr_crawler::recrawl::{simulate_recrawl, Cooperation, RecrawlConfig, RecrawlPolicy};
use dwr_crawler::sim::{CrawlConfig, DistributedCrawl};

pub(crate) fn run(ctx: &Ctx) {
    println!("E18. Server-crawler cooperation: robots, sitemaps, If-Modified-Since.\n");
    let web = &ctx.fixture(Scale::Medium).web;

    let base = CrawlConfig {
        robots_restrictive_fraction: 0.3,
        robots_disallow_fraction: 0.3,
        ..clean_crawl(8, 16)
    };

    println!("(a) discovery: sitemaps vs pure link extraction (robots active on 30% of hosts):");
    println!(
        "  {:>10} {:>10} {:>12} {:>14} {:>12}",
        "sitemaps", "fetched", "of allowed", "via sitemap", "makespan(h)"
    );
    for fraction in [0.0, 0.3, 1.0] {
        let mut cfg = base.clone();
        cfg.sitemap_fraction = fraction;
        let r = DistributedCrawl::new(web, HashAssigner::new(8), cfg, SEED).run();
        println!(
            "  {:>9.0}% {:>10} {:>11.1}% {:>14} {:>12.2}",
            fraction * 100.0,
            r.fetched_pages,
            100.0 * r.coverage_allowed,
            r.sitemap_discoveries,
            r.makespan as f64 / 3.6e9
        );
    }

    println!("\n(b) freshness: re-crawl budget stretched by If-Modified-Since");
    println!("    (20k pages, 2k fetch budget/day, 30 days):");
    let rc = RecrawlConfig {
        daily_budget: 2_000.0,
        conditional_cost: 0.05,
        days: 30,
        policy: RecrawlPolicy::UniformOldestFirst,
        cooperation: Cooperation::None,
        growth_per_day: 0.0,
    };
    let blind = simulate_recrawl(web, &rc, SEED);
    let coop = simulate_recrawl(
        web,
        &RecrawlConfig { cooperation: Cooperation::IfModifiedSince, ..rc },
        SEED,
    );
    println!(
        "  {:<22} mean freshness {:>5.1}%  ({} full fetches)",
        "polling (no help)",
        100.0 * blind.mean_freshness,
        blind.full_fetches
    );
    println!(
        "  {:<22} mean freshness {:>5.1}%  ({} full + {} conditional)",
        "If-Modified-Since",
        100.0 * coop.mean_freshness,
        coop.full_fetches,
        coop.conditional_requests
    );
    println!("\npaper shape: sitemaps discover whole hosts in one fetch (pages links never");
    println!("reach); conditional requests turn most of the polling budget into cheap");
    println!("header exchanges — 'reduce, but not eliminate, the overhead due to this");
    println!("polling'. Robots exclusion caps the fetchable set throughout.");
}
