//! Quickstart: build a complete distributed search engine on a synthetic
//! Web and ask it a question.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use distributed_web_retrieval::querylog::model::QueryId;
use distributed_web_retrieval::soak::{EngineConfig, SearchEngineLab};

fn main() {
    // Defaults: a 2k-page web, 4 crawl agents, 4 index partitions with 2
    // replicas each, an LRU result cache.
    println!("building the laboratory (generate web -> crawl -> partition -> index)...");
    let lab = SearchEngineLab::build(EngineConfig::default());

    let crawl = lab.crawl_report();
    println!(
        "crawled {} pages ({:.1}% coverage) with {} URL-exchange messages",
        crawl.fetched_pages,
        100.0 * crawl.coverage,
        crawl.exchange.messages
    );

    // Ask the most popular query in the synthetic universe.
    let q = lab.pipeline().query_model.query(QueryId(0));
    let hits = lab.search(&q.terms, 5);
    println!("\ntop-5 for the most popular query (topic {:?}):", q.topic);
    for (rank, h) in hits.iter().enumerate() {
        println!("  {}. doc {:>6}  score {:.3}", rank + 1, h.doc, h.score);
    }

    // Serve an hour of realistic traffic through the cached engine.
    println!("\nserving one simulated hour of Zipf traffic...");
    let report = lab.serve_stream();
    println!(
        "served {} queries: {} cache hits ({:.1}%), {} full evaluations",
        report.queries_served,
        report.serving.cache_hits,
        100.0 * report.cache_hit_ratio,
        report.serving.full
    );
}
