//! Experiment **E11**: incremental query processing — completeness vs
//! deadline (Section 5, communication).
//!
//! "The faster query processors provide an initial set of results. Other
//! remote query processors provide additional results with a higher
//! latency and users continuously obtain new results."
//!
//! One live [`DistributedEngine`] per deadline of the sweep, over 8
//! partitions of which 4 are slowed 40× (the remote processors). At its
//! gather deadline the engine answers with the partitions that arrived
//! in time (`Served::Partial`); completeness is the share of the
//! deadline-free engine's top-10 already in that answer.
//!
//! Run: `cargo run -p dwr-bench --release -- E11`

use crate::{bar, Ctx, Scale};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::straggler::StragglerModel;
use dwr_sim::MILLISECOND;
use std::collections::HashSet;
use std::sync::Arc;

const PARTS: usize = 8;
const K: usize = 10;
/// Service-time factor of the remote half of the partitions.
const REMOTE_SLOWDOWN: f64 = 40.0;

pub(crate) fn run(ctx: &Ctx) {
    println!("E11. Incremental results: completeness of the top-{K} vs deadline.");
    println!(
        "{PARTS} partitions: {} local, {} remote ({REMOTE_SLOWDOWN}x slower).\n",
        PARTS / 2,
        PARTS / 2
    );
    let pi = ctx.random_index(Scale::Medium, PARTS);
    let remote = Arc::new(StragglerModel::fixed(
        (0..PARTS).map(|p| vec![if p < PARTS / 2 { 1.0 } else { REMOTE_SLOWDOWN }]).collect(),
    ));
    let queries = ctx.fixture(Scale::Medium).zipf_terms(0x17C, 200);
    let reference = DistributedEngine::new(&pi, LruCache::new(256), 1);
    let finals: Vec<HashSet<u32>> =
        queries.iter().map(|q| reference.query(q, K).0.iter().map(|h| h.doc).collect()).collect();

    println!("  {:>10} {:>14} {:>20}", "deadline", "completeness", "partitions answered");
    let mut rows = Vec::new();
    for ms in [1, 2, 5, 10, 20, 50, 100] {
        let engine = DistributedEngine::new(&pi, LruCache::new(256), 1)
            .with_stragglers(Arc::clone(&remote))
            .with_gather_deadline(ms * MILLISECOND);
        let (mut completeness, mut answered) = (0.0, 0usize);
        for (q, fin) in queries.iter().zip(&finals) {
            let r = engine.query_full(q, K);
            answered += match r.served {
                Served::Partial { partitions_answered } => partitions_answered,
                _ => PARTS,
            };
            completeness += if fin.is_empty() {
                1.0
            } else {
                r.hits.iter().filter(|h| fin.contains(&h.doc)).count() as f64 / fin.len() as f64
            };
        }
        let c = completeness / queries.len() as f64;
        let a = answered as f64 / queries.len() as f64;
        println!("  {:>8}ms {:>13.1}% {:>20.2}  |{}", ms, 100.0 * c, a, bar(c, 1.0, 40));
        rows.push((c, a));
    }

    assert!(rows.windows(2).all(|w| w[0].0 <= w[1].0), "completeness falls with the deadline");
    assert_eq!(rows.last().map(|r| r.0), Some(1.0), "the last deadline waits for every partition");
    let plateau: Vec<f64> =
        rows.iter().filter(|r| r.1 == (PARTS / 2) as f64).map(|r| r.0).collect();
    assert!(!plateau.is_empty(), "no deadline admits exactly the local half");
    assert!(
        plateau.iter().all(|c| (0.4..=0.6).contains(c)),
        "local-half completeness {plateau:?} is not about half"
    );

    println!("\npaper shape: roughly half the final answer is available at LAN latency;");
    println!("the tail waits for the remote partitions — the case for serving incrementally.");
}
