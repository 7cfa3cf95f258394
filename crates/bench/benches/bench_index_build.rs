//! Index-construction benchmarks: the counting-sort build and a
//! document-partitioned build whose shards are built side by side
//! (Section 4's construction strategies, local costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dwr_bench::{Fixture, Scale};
use dwr_partition::parted::PartitionedIndex;
use dwr_text::index::build_index;

fn bench_builders(c: &mut Criterion) {
    let f = Fixture::new(Scale::Small);
    let mut g = c.benchmark_group("index_build");
    g.sample_size(10);
    g.bench_function("counting_sort", |b| b.iter(|| build_index(&f.corpus)));
    let shards = 8;
    let assignment: Vec<u32> = (0..f.corpus.len()).map(|d| (d % shards) as u32).collect();
    g.bench_with_input(BenchmarkId::new("partitioned", shards), &shards, |b, &k| {
        b.iter(|| PartitionedIndex::build(&f.corpus, &assignment, k))
    });
    g.finish();
}

criterion_group!(benches, bench_builders);
criterion_main!(benches);
