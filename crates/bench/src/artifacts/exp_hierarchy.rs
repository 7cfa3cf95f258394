//! Experiment **E15**: hierarchical coordinators (Section 5,
//! communication).
//!
//! "The coordinator may become a bottleneck while merging the results from
//! a great number of query processors. In such a case, it is possible to
//! use a hierarchy of coordinators to mitigate this problem \[35\]."
//!
//! Run: `cargo run -p dwr-bench --release -- E15`

use crate::{Ctx, Scale};
use dwr_query::broker::GlobalHit;
use dwr_query::hierarchy::{flat_merge, tree_merge};
use dwr_sim::net::Link;
use dwr_text::score::Bm25;
use dwr_text::search::search_or;

pub(crate) fn run(ctx: &Ctx) {
    println!("E15. Flat coordinator vs hierarchy of coordinators.\n");

    // Correctness on real per-partition results (16 partitions).
    {
        let parts = 16usize;
        let pi = ctx.random_index(Scale::Small, parts);
        let terms = &ctx.fixture(Scale::Small).zipf_terms(0x43A2, 1)[0];
        let lists: Vec<Vec<GlobalHit>> = (0..parts)
            .map(|p| {
                let idx = pi.part(p);
                search_or(idx, terms, 10, &Bm25::default(), idx)
                    .into_iter()
                    .map(|h| GlobalHit { doc: pi.to_global(p, h.doc), score: h.score })
                    .collect()
            })
            .collect();
        let flat = flat_merge(&lists, 10, Link::lan());
        for fanout in [2usize, 4, 8] {
            assert_eq!(tree_merge(&lists, 10, fanout, Link::lan()).hits, flat.hits);
        }
        println!("correctness: tree merges of real partition results equal the flat merge\n");
    }

    // Cost model at the paper's "great number of query processors": every
    // partition returns a full top-10 (the worst, and typical, case for
    // broad queries on a large collection).
    for parts in [16usize, 64, 256] {
        let lists: Vec<Vec<GlobalHit>> = (0..parts)
            .map(|p| {
                (0..10)
                    .map(|i| GlobalHit {
                        doc: (p * 10 + i) as u32,
                        score: ((p * 131 + i * 17 + 7) % 1009) as f32,
                    })
                    .collect()
            })
            .collect();

        let flat = flat_merge(&lists, 10, Link::lan());
        println!("{parts} partitions:");
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>8}",
            "topology", "root cpu us", "total cpu", "latency us", "coords"
        );
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>8}",
            "flat", flat.root_cpu_us, flat.total_cpu_us, flat.latency, flat.coordinators
        );
        for fanout in [4usize, 8, 16] {
            let tree = tree_merge(&lists, 10, fanout, Link::lan());
            assert_eq!(tree.hits, flat.hits, "merge correctness");
            println!(
                "  {:<14} {:>12} {:>12} {:>12} {:>8}",
                format!("tree f={fanout}"),
                tree.root_cpu_us,
                tree.total_cpu_us,
                tree.latency,
                tree.coordinators
            );
        }
        println!();
    }
    println!("shape: the root's merge CPU — the throughput bottleneck — shrinks by the");
    println!("fanout ratio in a tree, at the price of more total CPU, extra coordinator");
    println!("machines, and one extra network hop of latency per level. Identical top-k");
    println!("either way (asserted).");
}
