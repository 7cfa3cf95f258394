//! Experiment **E22**: frontier prioritization (Sections 2 and 6).
//!
//! "A crawler (...) above all must not overload Web servers (...) and
//! prioritize high-quality objects"; Section 6 keeps "how to efficiently
//! prioritize the crawling frontier" open. We crawl each web twice on the
//! crawl simulator, under politeness, once per frontier queue order — FIFO
//! discovery order and online citation-count order — and compare them on
//! the metric of Cho, Garcia-Molina & Page: how early the truly hot pages
//! are fetched.
//!
//! Run: `cargo run -p dwr-bench --release -- E22`

use crate::{Ctx, SEED};
use dwr_crawler::priority::evaluate_crawl_ordering;
use dwr_webgraph::generate::{generate_web, WebConfig};

pub(crate) fn run(_: &Ctx) {
    println!("E22. Crawl ordering: FIFO vs citation-count prioritization.\n");
    println!(
        "  {:>9} {:>16} {:>16} {:>14} {:>14}",
        "locality", "prefix deg FIFO", "prefix deg prio", "hot pos FIFO", "hot pos prio"
    );
    for locality in [0.5, 0.75, 0.9] {
        let mut cfg = WebConfig::medium();
        cfg.locality = locality;
        let web = generate_web(&cfg, SEED);
        // Panics unless both orders fetch the same pages.
        let r = evaluate_crawl_ordering(&web, 16, 0.2);
        assert!(
            r.prioritized_hot_position < r.fifo_hot_position,
            "citation order must reach the hot pages first at locality {locality}: {r:?}"
        );
        println!(
            "  {:>9.2} {:>16.1} {:>16.1} {:>14.3} {:>14.3}",
            locality,
            r.fifo_prefix_indegree,
            r.prioritized_prefix_indegree,
            r.fifo_hot_position,
            r.prioritized_hot_position
        );
    }
    println!("\n(prefix deg = mean true in-degree of the first 20% of fetches;");
    println!(" hot pos    = mean normalized fetch position of the true top-100 pages,");
    println!("              0 = fetched immediately)");
    println!("\n(4 agents x 16 connections, 0.5 s politeness, fault-free servers)");
    println!("\npaper shape: citation ordering pulls the hot pages forward in the crawl —");
    println!("the \"prioritize high-quality objects\" requirement — under the same politeness,");
    println!("and both runs fetch the identical page set.");
}
