//! Query-evaluation benchmarks: the ranked evaluator alone at two index
//! sizes, monolithic vs document-partitioned scatter-gather vs pipelined
//! term-partitioned, and sequential vs parallel scatter at increasing
//! partition counts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dwr_bench::{Fixture, Scale};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::term::{QueryWorkload, RandomTermPartitioner, TermPartitioner};
use dwr_query::broker::DocBroker;
use dwr_query::pipeline::PipelinedTermEngine;
use dwr_text::index::build_index;
use dwr_text::score::Bm25;
use dwr_text::search::{search_or, search_or_with, EvalStats, EvalStrategy};

/// `search_or_with` alone, the dense hot path against the exhaustive
/// reference, over the Medium fixture's unpartitioned index and over one
/// of its 8 shards — the evaluation each broker query runs per shard.
fn bench_evaluator(c: &mut Criterion) {
    let f = Fixture::new(Scale::Medium);
    let queries = f.query_terms(64);
    let whole = build_index(&f.corpus);
    let assignment = RandomPartitioner { seed: 1 }.assign(&f.corpus, 8);
    let pi = PartitionedIndex::build(&f.corpus, &assignment, 8);
    let bm25 = Bm25::default();
    let mut g = c.benchmark_group("evaluator");
    for (name, idx) in [("unpartitioned", &whole), ("shard_of_8", pi.shards()[0].index())] {
        for strategy in [EvalStrategy::Dense, EvalStrategy::Exhaustive] {
            g.bench_function(format!("{strategy:?}/{name}"), |b| {
                b.iter(|| {
                    let mut ev = EvalStats::default();
                    for q in &queries {
                        black_box(search_or_with(strategy, idx, q, 10, &bm25, idx, &mut ev));
                    }
                })
            });
        }
    }
    g.finish();
}

fn bench_eval(c: &mut Criterion) {
    let f = Fixture::new(Scale::Small);
    let queries = f.query_terms(64);
    let global = build_index(&f.corpus);
    let assignment = RandomPartitioner { seed: 1 }.assign(&f.corpus, 8);
    let pi = PartitionedIndex::build(&f.corpus, &assignment, 8);
    let workload = QueryWorkload { queries: queries.iter().map(|q| (q.clone(), 1.0)).collect() };
    let term_assign = RandomTermPartitioner.assign(&global, &workload, 8);

    let mut g = c.benchmark_group("query_eval");
    g.bench_function("monolithic", |b| {
        b.iter(|| {
            for q in &queries {
                search_or(&global, q, 10, &Bm25::default(), &global);
            }
        })
    });
    let broker = DocBroker::single_site(&pi);
    g.bench_function("doc_partitioned_8", |b| {
        b.iter(|| {
            for q in &queries {
                broker.query(q, 10);
            }
        })
    });
    g.bench_function("term_pipelined_8", |b| {
        b.iter(|| {
            let mut eng = PipelinedTermEngine::single_site(&global, term_assign.clone(), 8);
            for q in &queries {
                eng.query(q, 10);
            }
        })
    });
    g.finish();
}

/// Sequential vs parallel scatter-gather over the same partitioned
/// index. Both paths produce bit-identical results; this group measures
/// the wall-clock gap as partitions grow, at the corpus scale where
/// partitioning is actually motivated (the Medium fixture). Parallel
/// pays a fixed pool hand-off per partition, so its advantage appears
/// once per-partition work dominates that overhead **and** the host has
/// cores for the workers: on a single-hardware-thread machine the
/// parallel numbers degenerate to sequential-plus-overhead, so read
/// this comparison on a multi-core host.
fn bench_scatter(c: &mut Criterion) {
    let f = Fixture::new(Scale::Medium);
    let queries = f.query_terms(32);
    let mut g = c.benchmark_group("scatter_seq_vs_par");
    for &parts in &[2usize, 4, 8] {
        let assignment = RandomPartitioner { seed: 1 }.assign(&f.corpus, parts);
        let pi = PartitionedIndex::build(&f.corpus, &assignment, parts);
        let seq = DocBroker::single_site(&pi);
        let par = DocBroker::single_site(&pi).parallel(parts);
        g.bench_with_input(BenchmarkId::new("sequential", parts), &parts, |b, _| {
            b.iter(|| {
                for q in &queries {
                    seq.query(q, 50);
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("parallel", parts), &parts, |b, _| {
            b.iter(|| {
                for q in &queries {
                    par.query(q, 50);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_evaluator, bench_eval, bench_scatter);
criterion_main!(benches);
