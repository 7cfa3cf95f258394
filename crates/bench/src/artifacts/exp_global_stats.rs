//! Experiment **E7**: local vs global statistics (Section 4, external
//! factors).
//!
//! "A possible way to measure this effect is comparing the result set
//! computed on the global statistics with the result set computed using
//! only local statistics." We measure top-k overlap between the one-round
//! (local idf) and two-round (global idf) broker protocols, across
//! partition counts and partitioning skews, plus the byte/latency price of
//! the second round.
//!
//! Run: `cargo run -p dwr-bench --release -- E7`

use crate::{Ctx, Scale};
use dwr_partition::doc::{DocPartitioner, KMeansPartitioner};
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::stats::{query_global_stats, query_local_stats, result_overlap};
use dwr_sim::net::{SiteId, Topology};

pub(crate) fn run(ctx: &Ctx) {
    println!("E7. Local vs global collection statistics: result divergence and cost.\n");
    let f = ctx.fixture(Scale::Medium);
    let queries = f.zipf_terms(0x6105, 200);
    let topo = Topology::single_site();
    let site0 = |_: usize| SiteId(0);

    println!(
        "  {:<26} {:>12} {:>12} {:>14} {:>14}",
        "partitioning", "overlap@10", "overlap@3", "bytes x", "latency x"
    );
    let topical = KMeansPartitioner::default().assign(&f.corpus, 8);
    for (name, pi) in [
        ("random, 4 parts", ctx.random_index(Scale::Medium, 4)),
        ("random, 8 parts", ctx.random_index(Scale::Medium, 8)),
        ("random, 16 parts", ctx.random_index(Scale::Medium, 16)),
        ("k-means topical, 8 parts", PartitionedIndex::build(&f.corpus, &topical, 8)),
    ] {
        let mut o10 = 0.0;
        let mut o3 = 0.0;
        let mut bytes_ratio = 0.0;
        let mut lat_ratio = 0.0;
        for q in &queries {
            let (local, c1) = query_local_stats(&pi, q, 10, &topo, SiteId(0), &site0);
            let (global, c2) = query_global_stats(&pi, q, 10, &topo, SiteId(0), &site0);
            o10 += result_overlap(&local, &global, 10);
            o3 += result_overlap(&local, &global, 3);
            bytes_ratio += c2.bytes as f64 / c1.bytes.max(1) as f64;
            lat_ratio += c2.latency as f64 / c1.latency.max(1) as f64;
        }
        let n = queries.len() as f64;
        println!(
            "  {:<26} {:>11.1}% {:>11.1}% {:>14.2} {:>14.2}",
            name,
            100.0 * o10 / n,
            100.0 * o3 / n,
            bytes_ratio / n,
            lat_ratio / n
        );
    }
    println!("\nshape: divergence grows with partition count (smaller local df samples).");
    println!("Topical partitions hold overlap UP at equal k for on-topic queries — their");
    println!("matching postings and statistics are co-located — the nuance behind the");
    println!("paper's open question of whether local statistics hurt in practice. The");
    println!("second round costs ~2x latency plus the piggybacked statistics bytes.");
}
