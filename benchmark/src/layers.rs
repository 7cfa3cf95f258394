//! Timing the layers beneath the engine from outside, through their
//! public functions.
//!
//! [`Replayer`] re-runs, for sampled ops, what the engine call did
//! inside — cache `get` → `DocBroker::query` → per-shard
//! `search_or_with` → `merge_topk` → cache `put` — with the same inputs,
//! and parents each replayed span to the op:
//!
//! ```text
//! query.engine.query_full            the real client call
//! ├─ query.cache.get                 replayed on a mirror cache
//! ├─ query.broker.query              replayed on a sequential broker
//! │  ├─ text.search.maxscore × shards
//! │  └─ query.route.merge_topk
//! └─ query.cache.put
//! ```
//!
//! What the replay does not explain of the op (`trace.residual_share`)
//! is the engine's own work: keying, dispatch planning, replica locks,
//! accounting. The other functions here are stand-alone microbenchmarks
//! whose spans are roots.

use crate::fixture::K;
use crate::harness::Layers;
use crate::spans::{SpanId, Tracer, NO_OP};
use dwr_partition::parted::PartitionedIndex;
use dwr_query::broker::{DocBroker, GlobalHit, US_PER_POSTING};
use dwr_query::cache::{LruCache, ShardedCache};
use dwr_query::engine::{query_key, EngineResponse, Served};
use dwr_query::route::merge_topk;
use dwr_query::ScatterPool;
use dwr_text::postings::PostingListBuilder;
use dwr_text::score::Bm25;
use dwr_text::search::{search_or_with, EvalStats, EvalStrategy};
use dwr_text::topk::TopK;
use dwr_text::{DocId, TermId};
use std::hint::black_box;

/// A running `(total, count)` pair; reports the mean.
#[derive(Debug, Default, Clone, Copy)]
struct Mean {
    total: f64,
    count: f64,
}

impl Mean {
    fn add(&mut self, total: f64, count: f64) {
        self.total += total;
        self.count += count;
    }

    fn get(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.total / self.count
        }
    }
}

/// What the replay of one or more queries explained of their op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Explained {
    /// Wall time of the replayed top-level calls (get, broker, put), ns.
    pub ns: u64,
    /// Of that, the replayed `DocBroker::query` calls, ns.
    pub broker_ns: u64,
    /// Queries the backend evaluated (cold ops).
    pub cold: u64,
}

impl Explained {
    /// Fold another query of the same op in.
    pub fn add(&mut self, other: Explained) {
        self.ns += other.ns;
        self.broker_ns += other.broker_ns;
        self.cold += other.cold;
    }
}

/// Replays the layers beneath engine calls and accumulates their costs.
pub struct Replayer<'a> {
    index: &'a PartitionedIndex,
    broker: DocBroker,
    mirror: ShardedCache<LruCache>,
    bm25: Bm25,
    get_hit: Mean,
    get_miss: Mean,
    put: Mean,
    hit_path: Mean,
    broker_query: Mean,
    broker_self: Mean,
    eval: Mean,
    exhaustive: Mean,
    merge: Mean,
    cold_overhead: Mean,
    residual: Mean,
}

impl<'a> Replayer<'a> {
    /// A replayer over the workload's index, with a mirror of its cache.
    pub fn new(index: &'a PartitionedIndex, cache: usize) -> Self {
        Replayer {
            index,
            broker: DocBroker::single_site(index),
            mirror: ShardedCache::single(LruCache::new(cache)),
            bm25: Bm25::default(),
            get_hit: Mean::default(),
            get_miss: Mean::default(),
            put: Mean::default(),
            hit_path: Mean::default(),
            broker_query: Mean::default(),
            broker_self: Mean::default(),
            eval: Mean::default(),
            exhaustive: Mean::default(),
            merge: Mean::default(),
            cold_overhead: Mean::default(),
            residual: Mean::default(),
        }
    }

    /// Postings of `terms` in shard `p`: the lists the evaluators walk.
    fn list_postings(&self, p: usize, terms: &[TermId]) -> u64 {
        let mut unique = terms.to_vec();
        unique.sort_unstable();
        unique.dedup();
        unique.iter().map(|&t| u64::from(self.index.part(p).df(t))).sum()
    }

    /// Mirror one answered query on the replay cache (every op, so the
    /// mirror holds what the engine's cache holds) and, when `sampled`,
    /// record the replayed spans beneath `op_span`.
    pub fn observe(
        &mut self,
        tracer: &mut Tracer,
        op_span: SpanId,
        op: u32,
        terms: &[TermId],
        response: &EngineResponse,
        sampled: bool,
    ) -> Explained {
        let key = query_key(terms);
        let get_start = tracer.now();
        let cached = self.mirror.get(key);
        let get_end = tracer.now();
        let get_ns = get_end - get_start;
        if cached.is_some() { &mut self.get_hit } else { &mut self.get_miss }
            .add(get_ns as f64, 1.0);
        let mut explained = Explained { ns: get_ns, ..Explained::default() };
        if sampled {
            tracer.push(op_span, op, "query.cache.get", get_start, get_end);
        }

        if sampled && response.served == Served::Full {
            let (_, broker_span, broker_ns) =
                tracer.time(op_span, op, "query.broker.query", || {
                    black_box(self.broker.query(terms, K))
                });
            let mut lists: Vec<Vec<GlobalHit>> = Vec::with_capacity(self.index.num_partitions());
            let (mut eval_ns, mut postings) = (0u64, 0u64);
            for p in self.index.active_parts() {
                let shard = self.index.shard(p as usize);
                let idx = shard.index();
                let mut ev = EvalStats::default();
                let (local, _, ns) = tracer.time(broker_span, op, "text.search.maxscore", || {
                    search_or_with(EvalStrategy::MaxScore, idx, terms, K, &self.bm25, idx, &mut ev)
                });
                eval_ns += ns;
                postings += self.list_postings(p as usize, terms);
                lists.push(
                    local
                        .iter()
                        .map(|h| GlobalHit { doc: shard.to_global(h.doc), score: h.score })
                        .collect(),
                );
            }
            let (merged, _, merge_ns) =
                tracer.time(broker_span, op, "query.route.merge_topk", || {
                    lists.iter().fold(Vec::new(), |acc, list| merge_topk(&acc, list, K))
                });
            assert_eq!(merged, response.hits, "the replay diverged from the engine's answer");
            let hits: usize = lists.iter().map(Vec::len).sum();
            self.merge.add(merge_ns as f64, hits as f64);
            self.eval.add(eval_ns as f64, postings as f64);
            self.broker_query.add(broker_ns as f64, 1.0);
            self.broker_self.add(broker_ns as f64 - eval_ns as f64 - merge_ns as f64, 1.0);

            // The reference evaluator on the same shards: a root span,
            // it explains nothing of the op.
            let (_, _, exhaustive_ns) = tracer.time(0, NO_OP, "text.search.exhaustive", || {
                for shard in self.index.shards() {
                    let idx = shard.index();
                    let mut ev = EvalStats::default();
                    black_box(search_or_with(
                        EvalStrategy::Exhaustive,
                        idx,
                        terms,
                        K,
                        &self.bm25,
                        idx,
                        &mut ev,
                    ));
                }
            });
            self.exhaustive.add(exhaustive_ns as f64, postings as f64);
            explained.ns += broker_ns;
            explained.broker_ns = broker_ns;
            explained.cold = 1;
        }

        // Only complete answers are cached, as in the engine.
        if cached.is_none() && response.served == Served::Full {
            let value = response.hits.clone();
            let put_start = tracer.now();
            self.mirror.put(key, value);
            let put_end = tracer.now();
            self.put.add((put_end - put_start) as f64, 1.0);
            explained.ns += put_end - put_start;
            if sampled {
                tracer.push(op_span, op, "query.cache.put", put_start, put_end);
            }
        }
        explained
    }

    /// Account one cache-hit client call.
    pub fn account_hit(&mut self, op_ns: u64) {
        self.hit_path.add(op_ns as f64, 1.0);
    }

    /// Account one sampled client call against what its replay explained.
    pub fn account_op(&mut self, op_ns: u64, explained: &Explained) {
        self.residual.add(op_ns as f64 - explained.ns as f64, op_ns as f64);
        if explained.cold > 0 {
            self.cold_overhead
                .add(op_ns as f64 - explained.broker_ns as f64, explained.cold as f64);
        }
    }

    /// Write the accumulated means under their metric names.
    pub fn report(&self, out: &mut Layers) {
        out.insert("query.cache.get_hit_ns", self.get_hit.get());
        out.insert("query.cache.get_miss_ns", self.get_miss.get());
        out.insert("query.cache.put_ns", self.put.get());
        out.insert("query.engine.hit_path_ns", self.hit_path.get());
        out.insert("query.broker.query_us", self.broker_query.get() / 1e3);
        out.insert("query.broker.self_us", self.broker_self.get() / 1e3);
        out.insert("query.broker.merge_ns_per_hit", self.merge.get());
        out.insert("text.search.eval_ns_per_posting", self.eval.get());
        out.insert("text.search.exhaustive_ns_per_posting", self.exhaustive.get());
        // Measured wall µs per posting over the simulated clock's.
        out.insert("query.broker.sim_clock_ratio", self.eval.get() / 1e3 / US_PER_POSTING);
        out.insert("query.engine.cold_overhead_us", self.cold_overhead.get() / 1e3);
        out.insert("trace.residual_share", self.residual.get());
    }
}

/// `text::postings` and `text::topk` on the lists the sampled queries
/// touch: full decode, `next_geq` at strides 64 and 4096, re-encoding,
/// and top-k pushes of each list's `(doc, tf)` stream.
pub fn postings_benches(
    tracer: &mut Tracer,
    out: &mut Layers,
    index: &PartitionedIndex,
    sampled: &[&[TermId]],
) {
    let (mut decode, mut geq, mut encode, mut topk) =
        (Mean::default(), Mean::default(), Mean::default(), Mean::default());
    let op = NO_OP;
    for terms in sampled {
        for shard in index.shards() {
            let idx = shard.index();
            let lists: Vec<_> = terms.iter().filter_map(|&t| idx.postings(t)).collect();
            let postings: u64 = lists.iter().map(|l| u64::from(l.df())).sum();
            if postings == 0 {
                continue;
            }

            let (decoded, _, ns) = tracer.time(0, op, "text.postings.decode", || {
                lists.iter().map(|l| l.iter().collect::<Vec<_>>()).collect::<Vec<_>>()
            });
            decode.add(ns as f64, postings as f64);

            let (calls, _, ns) = tracer.time(0, op, "text.postings.next_geq", || {
                let mut calls = 0u64;
                for list in &lists {
                    for stride in [64u32, 4096] {
                        let mut cursor = list.cursor();
                        let mut target = 0u32;
                        while cursor.next_geq(DocId(target)) {
                            calls += 1;
                            target = cursor.doc().0.saturating_add(stride);
                        }
                        calls += 1;
                    }
                }
                calls
            });
            geq.add(ns as f64, calls as f64);

            let (_, _, ns) = tracer.time(0, op, "text.postings.encode", || {
                for postings in &decoded {
                    let mut builder = PostingListBuilder::new();
                    for p in postings {
                        builder.push_with_len(p.doc, p.tf, idx.doc_len(p.doc));
                    }
                    black_box(builder.finish());
                }
            });
            encode.add(ns as f64, postings as f64);

            let (_, _, ns) = tracer.time(0, op, "text.topk.push", || {
                for postings in &decoded {
                    let mut top = TopK::new(K);
                    for p in postings {
                        top.push(p.doc.0, p.tf as f32);
                    }
                    black_box(top.into_sorted_vec());
                }
            });
            topk.add(ns as f64, postings as f64);
        }
    }
    out.insert("text.postings.decode_ns_per_posting", decode.get());
    out.insert("text.postings.next_geq_ns_per_call", geq.get());
    out.insert("text.postings.encode_ns_per_posting", encode.get());
    out.insert("text.topk.push_ns_per_item", topk.get());
}

/// `ScatterPool` dispatch cost with no-op tasks: one query's worth of
/// shard tasks per `scatter`, and a whole batch's worth per
/// `scatter_batch`.
pub fn scatter_benches(
    tracer: &mut Tracer,
    out: &mut Layers,
    pool: &ScatterPool,
    shards: usize,
    batch: usize,
) {
    const SCATTERS: usize = 2_000;
    const BATCHES: usize = 40;
    let noop = |i: usize| move || i;
    let (_, _, ns) = tracer.time(0, NO_OP, "query.scatter.scatter", || {
        for _ in 0..SCATTERS {
            black_box(pool.scatter((0..shards).map(noop).collect()));
        }
    });
    out.insert("query.scatter.dispatch_us_per_task", ns as f64 / 1e3 / (SCATTERS * shards) as f64);
    let (_, _, ns) = tracer.time(0, NO_OP, "query.scatter.scatter_batch", || {
        for _ in 0..BATCHES {
            black_box(
                pool.scatter_batch((0..batch).map(|_| (0..shards).map(noop).collect()).collect()),
            );
        }
    });
    out.insert(
        "query.scatter.batch_dispatch_us_per_task",
        ns as f64 / 1e3 / (BATCHES * batch * shards) as f64,
    );
}
