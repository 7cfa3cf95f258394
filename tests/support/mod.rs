//! Fixtures shared by the chaos suites (`mod support;` in each).
//!
//! Everything derives from one seed through one [`SimRng`] stream —
//! corpus draws first, then assignment draws — so the fixed-seed
//! anchors of every suite keep seeing the corpora they were pinned on.

// Each suite uses its own subset.
#![allow(dead_code)]

use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_partition::repart::RepartIndex;
use dwr_sim::SimRng;
use dwr_text::TermId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A small random corpus over `terms` distinct terms: document `d`
/// holds term `d % terms` plus one drawn term.
pub fn random_corpus(docs: u32, terms: u32, rng: &mut SimRng) -> Corpus {
    (0..docs)
        .map(|d| {
            // BTreeMap dedups terms (the index builder requires strictly
            // ascending postings per term).
            let mut doc = BTreeMap::new();
            doc.insert(TermId(d % terms), 1 + d % 3);
            doc.entry(TermId(rng.below(u64::from(terms)) as u32)).or_insert(1);
            doc.into_iter().collect()
        })
        .collect()
}

/// A uniformly random document → partition assignment.
pub fn random_assignment(docs: u32, partitions: usize, rng: &mut SimRng) -> Vec<u32> {
    (0..docs).map(|_| rng.below(partitions as u64) as u32).collect()
}

/// A static index over a [`random_corpus`], randomly spread over
/// `partitions` partitions, all derived from `seed`.
pub fn build_index(docs: u32, terms: u32, partitions: usize, seed: u64) -> PartitionedIndex {
    let mut rng = SimRng::new(seed);
    let corpus = random_corpus(docs, terms, &mut rng);
    let assignment = random_assignment(docs, partitions, &mut rng);
    PartitionedIndex::build(&corpus, &assignment, partitions)
}

/// The live counterpart of [`build_index`]: the same corpus and
/// assignment over `parts` initial partitions, with headroom for splits.
pub fn build_live(
    docs: u32,
    terms: u32,
    parts: usize,
    capacity: usize,
    seed: u64,
) -> Arc<RepartIndex> {
    let mut rng = SimRng::new(seed);
    let corpus = random_corpus(docs, terms, &mut rng);
    let assignment = random_assignment(docs, parts, &mut rng);
    Arc::new(RepartIndex::build(corpus, &assignment, parts, capacity))
}
