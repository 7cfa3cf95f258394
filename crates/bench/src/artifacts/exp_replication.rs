//! Experiment **E9**: replication degree vs availability vs storage
//! overhead (Section 5, dependability).
//!
//! "Having all query processors storing the same data (...) achieves the
//! best availability level possible. This is likely to impose a
//! significant and unnecessary overhead (...) an open question is how to
//! replicate data in such a way that the system achieves adequate levels
//! of availability with minimal storage overhead."
//!
//! Run: `cargo run -p dwr-bench --release -- E9`

use crate::{Ctx, SEED};
use dwr_avail::placement::{Placement, PlacementStrategy};
use dwr_avail::quorum;
use dwr_sim::SimRng;

pub(crate) fn run(_: &Ctx) {
    println!("E9. Replication: availability vs storage overhead.\n");

    let n_sites = 10u32;
    let objects = 64usize; // index shards
    let site_avail: Vec<f64> = (0..n_sites).map(|i| 0.88 + 0.01 * f64::from(i % 8)).collect();
    let mut rng = SimRng::new(SEED ^ 0x9E9);

    println!("(a) shard placement over {n_sites} sites (~0.9 each), {objects} shards:");
    println!(
        "  {:<12} {:>3} {:>14} {:>16} {:>14}",
        "strategy", "r", "object avail", "query success", "storage x"
    );
    for r in 1..=4u32 {
        for strat in [PlacementStrategy::Random, PlacementStrategy::RoundRobin] {
            let p = Placement::new(strat, objects, n_sites, r, &site_avail, &mut rng);
            let (obj, query) = p.estimate(&site_avail, 20_000, &mut rng);
            println!(
                "  {:<12} {:>3} {:>13.3}% {:>15.1}% {:>14.1}",
                format!("{strat:?}"),
                r,
                100.0 * obj,
                100.0 * query,
                p.storage_overhead()
            );
        }
    }

    println!("\n(b) user-state quorum availability (per-replica availability 0.9):");
    println!("  {:<12} {:>10} {:>10} {:>10}", "replicas", "read-one", "majority", "write-all");
    for n in [1u32, 3, 5, 7] {
        println!(
            "  {:<12} {:>9.3}% {:>9.3}% {:>9.3}%",
            n,
            100.0 * quorum::read_one(n, 0.9),
            100.0 * quorum::majority(n, 0.9),
            100.0 * quorum::write_all(n, 0.9)
        );
    }
    println!("\npaper shape: availability of full query coverage climbs steeply with r");
    println!("(r=1 queries almost always lose a shard; r=3 is near-perfect) while storage");
    println!("cost grows linearly — the trade-off the paper calls open. Majority quorums");
    println!("beat a single copy only when replicas are individually reliable.");
}
