//! `index_build`: the write side of the layers `cold_scan` reads.
//!
//! One cycle = `PartitionedIndex::build` of the serve corpus into 8
//! shards + `RepartIndex::build` (capacity 16) + 4 committed splits of
//! the largest shard. Throughput is corpus documents per second of cycle
//! time; the cycle time is the sum of those six calls, the gates between
//! them are not timed.

use super::serve::SERVE_SHARDS;
use crate::fixture::{distinct_ids, fixture_info, text_fixture, FixtureInfo, Fnv, Sizes, K};
use crate::harness::{Layers, Rep, Workload};
use crate::spans::{Tracer, NO_OP};
use crate::stats::median;
use crate::{alloc, layers};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_partition::repart::{RepartIndex, SplitFate};
use dwr_query::broker::DocBroker;
use dwr_text::index::build_index;
use dwr_text::TermId;
use std::hint::black_box;
use std::sync::Arc;

/// Shard slots of the live index: room for the 4 binary splits.
const CAPACITY: usize = 16;
/// Splits per cycle.
const SPLITS: usize = 4;

/// A set-up `index_build` workload.
pub struct IndexBuild {
    corpus: Corpus,
    assignment: Vec<u32>,
    /// Queries whose answers every split must preserve.
    probes: Vec<Vec<TermId>>,
    /// The index as set-up built it: every cycle must reproduce its size.
    index: PartitionedIndex,
    info: FixtureInfo,
}

impl IndexBuild {
    /// Generate the corpus and build the index once (for its byte count).
    pub fn set_up(seed: u64, sizes: &Sizes) -> Self {
        let fixture =
            text_fixture(seed, sizes.serve_pages, sizes.serve_hosts, sizes.serve_universe);
        let assignment = RandomPartitioner { seed }.assign(&fixture.corpus, SERVE_SHARDS);
        let index = PartitionedIndex::build(&fixture.corpus, &assignment, SERVE_SHARDS);
        let probes: Vec<Vec<TermId>> = distinct_ids(&fixture.queries, sizes.build_probes)
            .into_iter()
            .map(|q| fixture.queries[q as usize].clone())
            .collect();
        let index_bytes: usize = index.shards().iter().map(|s| s.index().encoded_bytes()).sum();
        let info =
            fixture_info(&fixture.corpus, probes.iter().map(Vec::as_slice), index_bytes as u64);
        IndexBuild { corpus: fixture.corpus, assignment, probes, index, info }
    }

    /// One cycle: its repetition (pieces: the two builds, then the
    /// splits) and the documents each split moved. Every timed call is a
    /// span of op 0; in the traced run allocations are counted around the
    /// timed calls only.
    fn cycle(&self, tracer: &mut Tracer, count_allocations: bool) -> (Rep, Vec<usize>) {
        let mut failed = 0u64;
        let mut digest = Fnv::default();
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> u64 {
            if count_allocations {
                alloc::start();
            }
            let ns = tracer.time(0, 0, name, f).2;
            alloc::stop();
            ns
        };

        let mut built = None;
        let parted_build = timed("partition.parted.build", &mut || {
            built = Some(PartitionedIndex::build(&self.corpus, &self.assignment, SERVE_SHARDS));
        });
        let built = built.expect("build ran");
        let bytes: usize = built.shards().iter().map(|s| s.index().encoded_bytes()).sum();
        failed +=
            u64::from(built.validate_epoch().is_err() || bytes as u64 != self.info.index_bytes);
        digest.word(bytes as u64);
        drop(built);

        // `RepartIndex` owns its corpus; the copy is not part of the op.
        let mut owned = Some(self.corpus.clone());
        let mut live = None;
        let repart_build = timed("partition.repart.build", &mut || {
            let corpus = owned.take().expect("built once");
            live = Some(Arc::new(RepartIndex::build(
                corpus,
                &self.assignment,
                SERVE_SHARDS,
                CAPACITY,
            )));
        });
        let live = live.expect("build ran");
        let broker = DocBroker::live(&live);
        let answers = |digest: &mut Fnv| -> Vec<Vec<(u32, u32)>> {
            self.probes
                .iter()
                .map(|q| {
                    let hits: Vec<(u32, u32)> = broker
                        .query(q, K)
                        .hits
                        .iter()
                        .map(|h| (h.doc, h.score.to_bits()))
                        .collect();
                    for &(doc, score) in &hits {
                        digest.word(u64::from(doc) << 32 | u64::from(score));
                    }
                    hits
                })
                .collect()
        };
        let before = answers(&mut digest);

        let (mut splits, mut docs_split) = (Vec::new(), Vec::new());
        for _ in 0..SPLITS {
            let target = live.split_target().expect("a splittable shard");
            let mut report = None;
            splits.push(timed("partition.repart.split", &mut || {
                report = Some(live.split(target, SplitFate::Commit));
            }));
            // Gate: the split committed, the map is sound at the new
            // epoch, and every probe still returns its pre-split hits.
            match report.expect("split ran") {
                Ok(r) if r.committed => docs_split.push(r.docs_split),
                _ => failed += 1,
            }
            failed +=
                u64::from(live.validate().is_err() || live.snapshot().validate_epoch().is_err());
            let after = answers(&mut digest);
            failed += before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
        }

        // One client call = one cycle of six timed pieces.
        let piece_ns: Vec<u64> =
            [parted_build, repart_build].into_iter().chain(splits.iter().copied()).collect();
        let rep = Rep {
            ops: self.corpus.len() as u64,
            busy_ns: piece_ns.iter().sum(),
            pieces_per_call: piece_ns.len(),
            piece_ns,
            failed,
            digest: digest.finish(),
        };
        (rep, docs_split)
    }
}

impl Workload for IndexBuild {
    fn info(&self) -> FixtureInfo {
        self.info
    }

    fn rep(&self) -> Rep {
        self.cycle(&mut Tracer::default(), false).0
    }

    fn traced_rep(&self, tracer: &mut Tracer, out: &mut Layers) -> Rep {
        let (rep, docs_split) = self.cycle(tracer, true);
        out.insert("partition.parted.build_s", rep.piece_ns[0] as f64 / 1e9);
        out.insert("partition.repart.build_s", rep.piece_ns[1] as f64 / 1e9);
        let split_ms: Vec<f64> = rep.piece_ns[2..].iter().map(|&ns| ns as f64 / 1e6).collect();
        out.insert("partition.repart.split_ms", median(&split_ms));
        let moved: usize = docs_split.iter().sum();
        out.insert(
            "partition.repart.docs_moved_per_split",
            moved as f64 / docs_split.len().max(1) as f64,
        );
        // Nothing is replayed beneath the partition calls, so nothing of
        // the cycle is unexplained.
        out.insert("trace.residual_share", 0.0);
        rep
    }

    fn layer_benches(&self, tracer: &mut Tracer, out: &mut Layers) {
        // `text::index` on one shard's documents, as `PartitionedIndex::
        // build` feeds it.
        let shard_docs: Vec<_> = self
            .corpus
            .iter()
            .zip(&self.assignment)
            .filter(|&(_, &p)| p == 0)
            .map(|(doc, _)| doc.clone())
            .collect();
        let postings: usize = shard_docs.iter().map(Vec::len).sum();
        let (_, _, ns) =
            tracer.time(0, NO_OP, "text.index.build_index", || black_box(build_index(&shard_docs)));
        out.insert("text.index.build_ns_per_posting", ns as f64 / postings as f64);

        let probes: Vec<&[TermId]> = self.probes.iter().map(Vec::as_slice).collect();
        layers::postings_benches(tracer, out, &self.index, &probes);
        out.insert(
            "text.postings.bytes_per_posting",
            self.info.index_bytes as f64 / self.info.postings as f64,
        );

        const SNAPSHOTS: usize = 10_000;
        let live =
            RepartIndex::build(self.corpus.clone(), &self.assignment, SERVE_SHARDS, CAPACITY);
        let (_, _, ns) = tracer.time(0, NO_OP, "partition.repart.snapshot", || {
            for _ in 0..SNAPSHOTS {
                black_box(live.snapshot());
            }
        });
        out.insert("partition.repart.snapshot_ns", ns as f64 / SNAPSHOTS as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_passes_its_gates_and_repeats_its_digest() {
        let w = IndexBuild::set_up(5, &Sizes::smoke());
        let (a, docs_split) = w.cycle(&mut Tracer::default(), false);
        let b = w.rep();
        assert_eq!(a.failed, 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.ops, w.corpus.len() as u64);
        assert_eq!(a.piece_ns.len(), 2 + SPLITS);
        assert_eq!(docs_split.len(), SPLITS);
    }

    #[test]
    fn a_changed_index_size_fails_the_gate() {
        let mut w = IndexBuild::set_up(5, &Sizes::smoke());
        // A different index size than set-up recorded is a gate failure.
        w.info.index_bytes += 1;
        assert_eq!(w.rep().failed, 1);
    }
}
