//! Cache-policy benchmarks over a Zipf query stream.

use criterion::{criterion_group, criterion_main, Criterion};
use dwr_query::cache::{LfuCache, LruCache, ResultCache, SdcCache};
use dwr_sim::dist::Zipf;
use dwr_sim::SimRng;

fn stream(n: usize) -> Vec<u64> {
    let zipf = Zipf::new(100_000, 1.0);
    let mut rng = SimRng::new(99);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

fn run(cache: &mut dyn ResultCache, keys: &[u64]) -> f64 {
    for &k in keys {
        if cache.get(k, 0).is_none() {
            cache.put(k, Vec::new().into());
        }
    }
    cache.stats().hit_ratio()
}

fn bench_caches(c: &mut Criterion) {
    let keys = stream(100_000);
    let top: Vec<u64> = (1..=4096).collect();
    let mut g = c.benchmark_group("cache");
    g.bench_function("lru_8k", |b| b.iter(|| run(&mut LruCache::new(8192), &keys)));
    g.bench_function("lfu_8k", |b| b.iter(|| run(&mut LfuCache::new(8192), &keys)));
    g.bench_function("sdc_8k", |b| b.iter(|| run(&mut SdcCache::new(8192, 0.5, &top), &keys)));
    g.finish();
}

criterion_group!(benches, bench_caches);
criterion_main!(benches);
