//! Experiment **E3**: link locality and most-cited-URL suppression cut
//! URL-exchange traffic (Section 3, communication).
//!
//! Two sweeps over full distributed crawls: (a) the web's link-locality
//! parameter β — "most of the links on the Web point to other pages in the
//! same server makes it unnecessary to transfer those URLs"; (b) the size
//! of the pre-seeded most-cited set — "agents do not need to exchange URLs
//! found very frequently".
//!
//! Run: `cargo run -p dwr-bench --release -- E3`

use crate::{clean_crawl, Ctx, Scale, SEED};
use dwr_crawler::assign::HashAssigner;
use dwr_crawler::sim::DistributedCrawl;
use dwr_webgraph::generate::{generate_web, WebConfig};

pub(crate) fn run(ctx: &Ctx) {
    println!("E3. URL-exchange traffic vs link locality and most-cited seeding.");
    println!("8 agents, hash assignment, full crawl of a 20k-page web.\n");

    println!("(a) link-locality sweep (no most-cited seeding):");
    println!("  {:>9} {:>12} {:>12} {:>10}", "locality", "sent URLs", "messages", "coverage");
    for locality in [0.2, 0.5, 0.75, 0.9] {
        let mut web_cfg = WebConfig::medium();
        web_cfg.locality = locality;
        let web = generate_web(&web_cfg, SEED);
        let r = DistributedCrawl::new(&web, HashAssigner::new(8), clean_crawl(8, 16), SEED).run();
        println!(
            "  {:>9.2} {:>12} {:>12} {:>9.1}%",
            locality,
            r.exchange.sent_urls,
            r.exchange.messages,
            100.0 * r.coverage
        );
    }

    println!("\n(b) most-cited seeding sweep (locality 0.75):");
    println!(
        "  {:>9} {:>12} {:>12} {:>12} {:>10}",
        "seed k", "sent URLs", "suppressed", "bytes", "coverage"
    );
    let web = &ctx.fixture(Scale::Medium).web;
    let mut base_sent = 0u64;
    for k in [0usize, 100, 500, 2_000] {
        let mut cfg = clean_crawl(8, 16);
        cfg.most_cited_seed = k;
        let r = DistributedCrawl::new(web, HashAssigner::new(8), cfg, SEED).run();
        if k == 0 {
            base_sent = r.exchange.sent_urls;
        }
        println!(
            "  {:>9} {:>12} {:>12} {:>12} {:>9.1}%",
            k,
            r.exchange.sent_urls,
            r.exchange.suppressed,
            r.exchange.bytes,
            100.0 * r.coverage
        );
    }
    println!("\npaper shape: traffic falls monotonically with locality and with the");
    println!("most-cited set (power-law in-degree concentrates citations); coverage holds.");
    println!("baseline sent URLs (k=0): {base_sent}");
}
