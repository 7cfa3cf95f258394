//! Experiment **E21**: ablations of the design choices DESIGN.md calls out.
//!
//! Four dials, each isolated with everything else held fixed:
//! (a) consistent-hash virtual-bucket count (balance vs ring size),
//! (b) URL-exchange batch size (messages vs delivery latency),
//! (c) result-cache capacity (hit ratio saturation),
//! (d) collection-selection width m (work saved vs recall lost).
//!
//! Run: `cargo run -p dwr-bench --release -- E21`

use crate::{clean_crawl, Ctx, Scale, SEED};
use dwr_crawler::assign::{assignment_load, ConsistentHashAssigner, HashAssigner};
use dwr_crawler::sim::{CrawlConfig, DistributedCrawl};
use dwr_partition::quality::recall_curve;
use dwr_partition::select::CoriSelector;
use dwr_query::cache::{LruCache, ResultCache};
use dwr_query::engine::query_key;
use dwr_sim::stats::Imbalance;
use dwr_text::index::build_index;

pub(crate) fn run(ctx: &Ctx) {
    println!("E21. Ablations over the repository's own design dials.\n");
    let f = ctx.fixture(Scale::Small);

    // (a) virtual buckets per agent.
    println!("(a) consistent hashing: virtual buckets per agent vs host balance (16 agents):");
    println!("  {:>9} {:>12} {:>10}", "buckets", "max/mean", "gini");
    for replicas in [1u32, 8, 32, 128, 512] {
        let a = ConsistentHashAssigner::new(16, replicas);
        let load = assignment_load(&a, &f.web);
        let hosts: Vec<f64> = load.hosts.iter().map(|&h| h as f64).collect();
        let im = Imbalance::of(&hosts);
        println!("  {:>9} {:>12.2} {:>10.3}", replicas, im.max_over_mean, im.gini);
    }

    // (b) exchange batch size.
    println!("\n(b) URL-exchange batch size vs messages and makespan (4 agents):");
    println!("  {:>9} {:>10} {:>12} {:>12}", "batch", "messages", "bytes", "makespan(h)");
    for batch in [1usize, 10, 50, 200] {
        let cfg = CrawlConfig { batch_size: batch, ..clean_crawl(4, 8) };
        let r = DistributedCrawl::new(&f.web, HashAssigner::new(4), cfg, SEED).run();
        println!(
            "  {:>9} {:>10} {:>12} {:>12.2}",
            batch,
            r.exchange.messages,
            r.exchange.bytes,
            r.makespan as f64 / 3.6e9
        );
    }

    // (c) cache capacity.
    println!("\n(c) LRU capacity vs hit ratio on a 50k Zipf stream:");
    println!("  {:>9} {:>10}", "capacity", "hit ratio");
    let stream: Vec<u64> = f.zipf_terms(0xAB1A, 50_000).iter().map(|t| query_key(t)).collect();
    for cap in [16usize, 64, 256, 1024, 4096] {
        let mut cache = LruCache::new(cap);
        for &k in &stream {
            if cache.get(k, 0).is_none() {
                cache.put(k, Vec::new().into());
            }
        }
        println!("  {:>9} {:>9.1}%", cap, 100.0 * cache.stats().hit_ratio());
    }

    // (d) selection width.
    println!("\n(d) CORI selection width m vs recall (8 random partitions, top-10):");
    let pi = ctx.random_index(Scale::Small, 8);
    let cori = CoriSelector::from_partitions(&pi);
    let queries = f.query_terms(100);
    let curve = recall_curve(&pi, &cori, &build_index(&f.corpus), &queries, 10);
    println!("  {:>4} {:>10} {:>14}", "m", "recall", "work saved");
    for (m, r) in curve.iter().enumerate() {
        println!(
            "  {:>4} {:>9.1}% {:>13.1}%",
            m + 1,
            100.0 * r,
            100.0 * (1.0 - (m + 1) as f64 / 8.0)
        );
    }
    println!("\nreading: a handful of virtual buckets removes the worst imbalance, after");
    println!("which granularity noise floors it (only ~6 hosts/agent here); batching");
    println!("collapses message count at negligible makespan cost; cache hit ratio");
    println!("saturates once capacity covers the Zipf head; random partitions give");
    println!("recall ~ m/k (no selectivity to exploit) — why structured partitioning");
    println!("exists.");
}
