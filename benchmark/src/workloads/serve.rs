//! The three serving workloads: `cold_scan`, `zipf_cached` and
//! `fanout_batch`. They share one shape — a query stream through a
//! fresh `DistributedEngine` per repetition — and differ in the index,
//! the stream and how the client submits it.

use crate::fixture::{distinct_ids, fixture_info, text_fixture, FixtureInfo, Fnv, Sizes, K};
use crate::harness::{Layers, Rep, Workload, SAMPLE_EVERY};
use crate::spans::{SpanId, Tracer, NO_OP};
use crate::{alloc, layers};
use dwr_obs::{ObsConfig, ObsRecorder};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::PartitionedIndex;
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, EngineResponse, Served};
use dwr_query::ScatterPool;
use dwr_sim::SimRng;
use dwr_text::search::EvalStrategy;
use dwr_text::TermId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the `cold_scan` / `zipf_cached` / `index_build` index.
pub const SERVE_SHARDS: usize = 8;
/// Shards of the `fanout_batch` index (the Figure-2 shape, doubled).
const FANOUT_SHARDS: usize = 16;
/// Workers of the `fanout_batch` scatter pool (= `nproc` of the box the
/// baseline was taken on; the client blocks in gather meanwhile).
const FANOUT_WORKERS: usize = 2;
/// Queries per `query_batch` call.
const BATCH: usize = 64;
/// Reference answers are computed for every this-many-th query id.
const REFERENCE_EVERY: u32 = 8;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Distinct queries, each asked once.
    ColdScan,
    /// Zipf(0.9) draws, query at a time.
    ZipfCached,
    /// Two cyclic passes in batches of 64 through a pool of 2.
    FanoutBatch,
}

/// `(doc, score bits)` of a hit list: the bit-for-bit comparison form.
type HitBits = Vec<(u32, u32)>;

fn hit_bits(hits: &[GlobalHit]) -> HitBits {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// A set-up serving workload.
pub struct Serve {
    kind: Kind,
    index: PartitionedIndex,
    /// Terms of every query of the universe, by id.
    queries: Vec<Vec<TermId>>,
    /// Query ids in the order the client asks them.
    stream: Vec<u32>,
    /// The stream cut into `query_batch` calls (`fanout_batch` only).
    batches: Vec<Vec<Vec<TermId>>>,
    /// Exhaustive sequential answers for every 8th query id asked.
    reference: HashMap<u32, HitBits>,
    cache: usize,
    info: FixtureInfo,
}

impl Serve {
    /// Generate the fixture, build the index and compute the reference.
    pub fn set_up(kind: Kind, seed: u64, sizes: &Sizes) -> Self {
        let (pages, hosts, universe, shards, cache) = match kind {
            Kind::ColdScan | Kind::ZipfCached => (
                sizes.serve_pages,
                sizes.serve_hosts,
                sizes.serve_universe,
                SERVE_SHARDS,
                sizes.serve_cache,
            ),
            Kind::FanoutBatch => (
                sizes.fanout_pages,
                sizes.fanout_hosts,
                sizes.fanout_universe,
                FANOUT_SHARDS,
                sizes.fanout_cache,
            ),
        };
        let fixture = text_fixture(seed, pages, hosts, universe);
        let assignment = RandomPartitioner { seed }.assign(&fixture.corpus, shards);
        let index = PartitionedIndex::build(&fixture.corpus, &assignment, shards);

        let stream: Vec<u32> = match kind {
            Kind::ColdScan => distinct_ids(&fixture.queries, sizes.cold_queries),
            Kind::ZipfCached => {
                let mut rng = SimRng::new(seed ^ 0x21BF_CAC4);
                (0..sizes.zipf_queries).map(|_| fixture.model.sample(&mut rng).0).collect()
            }
            Kind::FanoutBatch => {
                // Two passes over more distinct keys than the cache
                // holds: an LRU under a cyclic scan never hits.
                let once = distinct_ids(&fixture.queries, universe);
                assert!(once.len() > cache, "the cyclic scan must outrun the cache");
                [once.clone(), once].concat()
            }
        };
        let batches = match kind {
            Kind::FanoutBatch => stream
                .chunks(BATCH)
                .map(|c| c.iter().map(|&q| fixture.queries[q as usize].clone()).collect())
                .collect(),
            _ => Vec::new(),
        };

        // The independent reference: sequential scatter, exhaustive
        // evaluation, no cache, no pool.
        let oracle = DocBroker::single_site(&index).with_strategy(EvalStrategy::Exhaustive);
        let mut reference = HashMap::new();
        for &q in stream.iter().filter(|&&q| q % REFERENCE_EVERY == 0) {
            reference
                .entry(q)
                .or_insert_with(|| hit_bits(&oracle.query(&fixture.queries[q as usize], K).hits));
        }

        let index_bytes: usize = index.shards().iter().map(|s| s.index().encoded_bytes()).sum();
        let info = fixture_info(
            &fixture.corpus,
            stream.iter().map(|&q| fixture.queries[q as usize].as_slice()),
            index_bytes as u64,
        );
        Serve { kind, index, queries: fixture.queries, stream, batches, reference, cache, info }
    }

    /// A fresh engine: every repetition starts with a cold result cache.
    fn engine(&self) -> DistributedEngine<LruCache> {
        let engine = DistributedEngine::new(&self.index, LruCache::new(self.cache), 1);
        match self.kind {
            Kind::FanoutBatch => engine.with_parallelism(FANOUT_WORKERS),
            _ => engine,
        }
    }

    /// Gate one repetition's responses: every op must be served in full
    /// (or from the cache), and every sampled op must equal the
    /// reference bit for bit. Returns `(failed ops, digest)`.
    fn verify(&self, responses: &[EngineResponse]) -> (u64, u64) {
        assert_eq!(responses.len(), self.stream.len(), "one response per op");
        let mut failed = 0u64;
        let mut digest = Fnv::default();
        for (&q, r) in self.stream.iter().zip(responses) {
            let served_ok = matches!(r.served, Served::Full | Served::CacheHit);
            let matches_reference =
                self.reference.get(&q).is_none_or(|want| *want == hit_bits(&r.hits));
            failed += u64::from(!(served_ok && matches_reference));
            digest.word(r.hits.len() as u64);
            for h in &r.hits {
                digest.word(u64::from(h.doc) << 32 | u64::from(h.score.to_bits()));
            }
        }
        (failed, digest.finish())
    }

    fn finish(&self, responses: &[EngineResponse], call_ns: Vec<u64>, busy_ns: u64) -> Rep {
        let (failed, digest) = self.verify(responses);
        Rep {
            ops: self.stream.len() as u64,
            busy_ns,
            piece_ns: call_ns,
            pieces_per_call: 1,
            failed,
            digest,
        }
    }

    /// The stream through `engine`, query at a time, timing each call.
    fn run_loop(
        &self,
        engine: &DistributedEngine<LruCache, impl dwr_obs::Recorder>,
    ) -> (Vec<EngineResponse>, Vec<u64>, u64) {
        let mut responses = Vec::with_capacity(self.stream.len());
        let mut call_ns = Vec::with_capacity(self.stream.len());
        let started = Instant::now();
        for &q in &self.stream {
            let t = Instant::now();
            let r = engine.query_full(&self.queries[q as usize], K);
            call_ns.push(t.elapsed().as_nanos() as u64);
            responses.push(r);
        }
        (responses, call_ns, started.elapsed().as_nanos() as u64)
    }

    /// The stream through `engine` in `query_batch` calls of 64.
    fn run_batches(
        &self,
        engine: &DistributedEngine<LruCache>,
    ) -> (Vec<EngineResponse>, Vec<u64>, u64) {
        let mut responses = Vec::with_capacity(self.stream.len());
        let mut call_ns = Vec::with_capacity(self.batches.len());
        let started = Instant::now();
        for batch in &self.batches {
            let t = Instant::now();
            let mut r = engine.query_batch(batch, K);
            call_ns.push(t.elapsed().as_nanos() as u64);
            responses.append(&mut r);
        }
        (responses, call_ns, started.elapsed().as_nanos() as u64)
    }

    /// Terms of the sampled ops: what the stand-alone layer
    /// microbenchmarks iterate over.
    fn sampled_terms(&self) -> Vec<&[TermId]> {
        let every = match self.kind {
            Kind::FanoutBatch => SAMPLE_EVERY * BATCH,
            _ => SAMPLE_EVERY,
        };
        self.stream.iter().step_by(every).map(|&q| self.queries[q as usize].as_slice()).collect()
    }
}

impl Workload for Serve {
    fn info(&self) -> FixtureInfo {
        self.info
    }

    fn rep(&self) -> Rep {
        let engine = self.engine();
        let (responses, call_ns, busy_ns) = match self.kind {
            Kind::FanoutBatch => self.run_batches(&engine),
            _ => self.run_loop(&engine),
        };
        self.finish(&responses, call_ns, busy_ns)
    }

    fn traced_rep(&self, tracer: &mut Tracer, out: &mut Layers) -> Rep {
        let engine = self.engine();
        let mut replay = layers::Replayer::new(&self.index, self.cache);
        let mut responses: Vec<EngineResponse> = Vec::with_capacity(self.stream.len());
        let mut call_ns = Vec::new();
        let started = Instant::now();
        match self.kind {
            Kind::FanoutBatch => {
                for (op, batch) in self.batches.iter().enumerate() {
                    alloc::start();
                    let start = tracer.now();
                    let batch_responses = engine.query_batch(batch, K);
                    let end = tracer.now();
                    alloc::stop();
                    call_ns.push(end - start);
                    let span = tracer.push(0, op as u32, "query.engine.query_batch", start, end);
                    let sampled = op % SAMPLE_EVERY == 0;
                    let mut explained = layers::Explained::default();
                    for (terms, r) in batch.iter().zip(&batch_responses) {
                        explained.add(replay.observe(tracer, span, op as u32, terms, r, sampled));
                    }
                    if sampled {
                        replay.account_op(end - start, &explained);
                    }
                    responses.extend(batch_responses);
                }
            }
            _ => {
                for (op, &q) in self.stream.iter().enumerate() {
                    let terms = &self.queries[q as usize];
                    alloc::start();
                    let start = tracer.now();
                    let r = engine.query_full(terms, K);
                    let end = tracer.now();
                    alloc::stop();
                    call_ns.push(end - start);
                    let span: SpanId =
                        tracer.push(0, op as u32, "query.engine.query_full", start, end);
                    if r.served == Served::CacheHit {
                        replay.account_hit(end - start);
                    }
                    let sampled = op % SAMPLE_EVERY == 0;
                    let explained = replay.observe(tracer, span, op as u32, terms, &r, sampled);
                    if sampled {
                        replay.account_op(end - start, &explained);
                    }
                    responses.push(r);
                }
            }
        }
        let busy_ns = started.elapsed().as_nanos() as u64;

        replay.report(out);
        let ops = self.stream.len() as f64;
        let scanned = engine.broker().eval_stats();
        out.insert("text.search.postings_scanned_per_op", scanned.postings_scanned as f64 / ops);
        out.insert("text.search.candidates_pruned_per_op", scanned.candidates_pruned as f64 / ops);
        let blocks = scanned.blocks_decoded + scanned.blocks_skipped;
        out.insert(
            "text.search.blocks_skipped_share",
            if blocks == 0 { 0.0 } else { scanned.blocks_skipped as f64 / blocks as f64 },
        );
        let cache = engine.cache_stats();
        out.insert("query.cache.hit_ratio", cache.hit_ratio());
        out.insert("query.cache.evictions_per_op", cache.evictions as f64 / ops);
        let stats = engine.stats();
        let evaluated = stats.full + stats.degraded + stats.partial + stats.routed;
        out.insert("query.engine.backend_share", evaluated as f64 / ops);
        self.finish(&responses, call_ns, busy_ns)
    }

    fn layer_benches(&self, tracer: &mut Tracer, out: &mut Layers) {
        let sampled = self.sampled_terms();
        layers::postings_benches(tracer, out, &self.index, &sampled);
        out.insert(
            "text.postings.bytes_per_posting",
            self.info.index_bytes as f64 / self.info.postings as f64,
        );
        match self.kind {
            Kind::ColdScan => {}
            Kind::ZipfCached => {
                // The same stream with the full observability registry
                // attached, against the engine with the no-op recorder.
                let (_, _, plain_ns) = self.run_loop(&self.engine());
                let recorder = Arc::new(ObsRecorder::new(ObsConfig::single_site(SERVE_SHARDS)));
                let observed = self.engine().with_obs(recorder);
                let ((responses, _, observed_ns), _, _) =
                    tracer.time(0, NO_OP, "obs.recorder.observed_stream", || {
                        self.run_loop(&observed)
                    });
                assert_eq!(self.verify(&responses).0, 0, "observing an engine changed its answers");
                out.insert("obs.recorder.overhead_ratio", observed_ns as f64 / plain_ns as f64);
            }
            Kind::FanoutBatch => {
                let pool = ScatterPool::new(FANOUT_WORKERS);
                layers::scatter_benches(tracer, out, &pool, FANOUT_SHARDS, BATCH);
                drop(pool);
                // The same fixture, pool of 2, but one query at a time.
                let ((_, _, loop_ns), _, _) =
                    tracer.time(0, NO_OP, "query.scatter.loop_stream", || {
                        self.run_loop(&self.engine())
                    });
                out.insert(
                    "query.scatter.loop_ops_s",
                    self.stream.len() as f64 / (loop_ns as f64 / 1e9),
                );
                // Sequential scatter against the pool, same batches.
                let sequential = DistributedEngine::new(&self.index, LruCache::new(self.cache), 1);
                let (_, _, sequential_ns) = self.run_batches(&sequential);
                let (_, _, pooled_ns) = self.run_batches(&self.engine());
                out.insert("query.scatter.pool_speedup", sequential_ns as f64 / pooled_ns as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind) -> Serve {
        Serve::set_up(kind, 11, &Sizes::smoke())
    }

    #[test]
    fn every_kind_passes_its_own_gate_and_repeats_its_digest() {
        for kind in [Kind::ColdScan, Kind::ZipfCached, Kind::FanoutBatch] {
            let w = tiny(kind);
            let (a, b) = (w.rep(), w.rep());
            assert_eq!(a.failed, 0, "{kind:?}");
            assert_eq!(a.digest, b.digest, "{kind:?}");
            assert_eq!(a.ops, w.stream.len() as u64);
            assert!(!w.reference.is_empty(), "{kind:?} has no reference sample");
        }
    }

    #[test]
    fn cold_scan_never_hits_and_zipf_does() {
        let cold = tiny(Kind::ColdScan);
        let engine = cold.engine();
        cold.run_loop(&engine);
        assert_eq!(engine.cache_stats().hits, 0);
        let zipf = tiny(Kind::ZipfCached);
        let engine = zipf.engine();
        zipf.run_loop(&engine);
        assert!(engine.cache_stats().hits > 0);
        let fanout = tiny(Kind::FanoutBatch);
        let engine = fanout.engine();
        fanout.run_batches(&engine);
        assert_eq!(engine.cache_stats().hits, 0, "the cyclic scan must outrun the LRU");
    }

    #[test]
    fn a_corrupted_reference_fails_the_gate() {
        let mut w = tiny(Kind::ColdScan);
        let q = *w.reference.keys().next().unwrap();
        w.reference.get_mut(&q).unwrap().push((u32::MAX, 0));
        let rep = w.rep();
        assert_eq!(rep.failed, 1, "exactly the corrupted op is counted");
    }
}
