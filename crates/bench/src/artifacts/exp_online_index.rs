//! Experiment **E14**: online index maintenance — merge policies and the
//! lockout effect (Section 4, communication).
//!
//! "This dynamic index structure constrains the capacity and the response
//! time of the system since the update operation usually requires locking
//! the index (...) This is even more problematic in the case of term
//! partitioned distributed IR systems. Terms that require frequent updates
//! might be spread across different servers, thus amplifying the lockout
//! effect."
//!
//! Run: `cargo run -p dwr-bench --release -- E14`

use crate::{Ctx, Scale, SEED};
use dwr_sim::SimRng;
use dwr_text::dynamic::{DynamicIndex, MergePolicy};

pub(crate) fn run(ctx: &Ctx) {
    println!("E14. Online index maintenance over a 2k-doc update stream (buffer 16).\n");
    let f = ctx.fixture(Scale::Small);

    println!(
        "  {:<18} {:>9} {:>8} {:>13} {:>12} {:>10}",
        "policy", "segments", "merges", "docs rewritten", "lock (ms)", "query ovh"
    );
    for (name, policy) in [
        ("no-merge", MergePolicy::NoMerge),
        ("geometric r=2", MergePolicy::Geometric { r: 2 }),
        ("geometric r=3", MergePolicy::Geometric { r: 3 }),
        ("always-merge", MergePolicy::AlwaysMerge),
    ] {
        let mut d = DynamicIndex::new(policy, 16);
        for doc in &f.corpus {
            d.insert(doc.clone());
        }
        let s = d.stats();
        println!(
            "  {:<18} {:>9} {:>8} {:>13} {:>12.1} {:>10}",
            name,
            d.num_segments(),
            s.merges,
            s.docs_rewritten,
            s.lock_time_us as f64 / 1000.0,
            d.query_overhead_segments()
        );
    }
    println!("\nshape (Lester/Moffat/Zobel geometric partitioning): always-merge pays");
    println!("quadratic rewriting for one segment; no-merge is cheap to update but");
    println!("fragments queries; geometric keeps O(log n) segments at O(n log n) rewrite.");

    // Lockout amplification under term partitioning: each updated document
    // touches terms owned by several term-partition servers, so ONE update
    // write-locks MANY servers; under document partitioning it locks one.
    println!("\nlockout amplification (8 servers, per-update servers locked):");
    let mut rng = SimRng::new(SEED ^ 0x10CC);
    let servers = 8u32;
    let mut doc_locked = 0u64;
    let mut term_locked = 0u64;
    let updates = 1_000;
    for _ in 0..updates {
        let doc = &f.corpus[rng.index(f.corpus.len())];
        doc_locked += 1; // the one partition owning this doc
        let mut touched: Vec<u32> = doc
            .iter()
            .map(|&(t, _)| {
                // SplitMix-style term->server hash, as the term partitioner.
                let mut z = u64::from(t.0)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                (z % u64::from(servers)) as u32
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();
        term_locked += touched.len() as u64;
    }
    println!(
        "  document-partitioned: {:.2} servers locked per update",
        doc_locked as f64 / f64::from(updates)
    );
    println!(
        "  term-partitioned:     {:.2} servers locked per update  ({:.1}x amplification)",
        term_locked as f64 / f64::from(updates),
        term_locked as f64 / doc_locked as f64
    );
    println!("\npaper shape: 'terms that require frequent updates might be spread across");
    println!("different servers, thus amplifying the lockout effect' — reproduced.");
}
