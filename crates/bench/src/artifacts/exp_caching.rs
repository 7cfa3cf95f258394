//! Experiment **E8**: result caching — policy hit ratios on Zipf traffic
//! with topic drift (Fagni et al.'s SDC \[51\]) and caches as a
//! fault-tolerance mechanism.
//!
//! "A good design has also to consider the primary goals of a cache
//! system (...) a higher hit ratio potentially also improves fault
//! tolerance."
//!
//! Run: `cargo run -p dwr-bench --release -- E8` (`--smoke`: small
//! fixture, short stream)

use crate::{Ctx, Scale, SEED};
use dwr_avail::failure::DownInterval;
use dwr_query::cache::{LfuCache, LruCache, ResultCache, SdcCache};
use dwr_query::engine::{query_key, DistributedEngine, Served};
use dwr_query::faults::FaultSchedule;
use dwr_querylog::arrival::DiurnalProfile;
use dwr_querylog::drift::TopicDrift;
use dwr_querylog::log::QueryLog;
use dwr_sim::{SimTime, DAY, HOUR, SECOND};
use std::sync::Arc;

pub(crate) fn run(ctx: &Ctx) {
    let smoke = ctx.smoke;
    let scale = if smoke { Scale::Small } else { Scale::Medium };
    println!("E8. Result caching: LRU vs LFU vs SDC, plus failure masking.\n");
    let f = ctx.fixture(scale);

    // A day of drifting traffic: topic mixture reverses over the horizon
    // (a couple of hours in smoke runs).
    let horizon = if smoke { 2 * HOUR } else { DAY };
    let weights: Vec<f64> = (1..=f.content.num_topics()).map(|r| f64::from(r).powf(-1.0)).collect();
    let drift = TopicDrift::reversal(&weights, horizon);
    let profiles = vec![DiurnalProfile { mean_qps: 2.0, amplitude: 0.6, phase: 0.0 }];
    let log = QueryLog::generate(&f.queries, &profiles, horizon, Some(&drift), SEED ^ 0xCAC4E);
    let (train, test) = log.split_at_fraction(0.5);
    println!(
        "stream: {} queries over {} h, train {} / test {}, topic drift on",
        log.len(),
        horizon / HOUR,
        train.len(),
        test.len()
    );

    // Train frequencies for SDC's static half.
    let mut freq = train.query_frequencies().into_iter().collect::<Vec<_>>();
    freq.sort_by_key(|&(q, c)| (std::cmp::Reverse(c), q));
    let keys_by_freq: Vec<u64> = freq.iter().map(|&(q, _)| query_key(&f.terms(q))).collect();

    let cap = 512;
    println!("\n(a) hit ratio on the test half (capacity {cap} entries):");
    println!("  {:<10} {:>10}", "policy", "hit ratio");
    let run = |cache: &mut dyn ResultCache| -> f64 {
        // Warm on train, measure on test.
        for rec in train.records().iter().chain(test.records()) {
            let key = query_key(&f.terms(rec.query));
            if cache.get(key, 0).is_none() {
                cache.put(key, Vec::new().into());
            }
        }
        cache.stats().hit_ratio()
    };
    let mut lru = LruCache::new(cap);
    let mut lfu = LfuCache::new(cap);
    let mut sdc = SdcCache::new(cap, 0.5, &keys_by_freq);
    let (hr_lru, hr_lfu, hr_sdc) = (run(&mut lru), run(&mut lfu), run(&mut sdc));
    println!("  {:<10} {:>9.1}%", "LRU", 100.0 * hr_lru);
    println!("  {:<10} {:>9.1}%", "LFU", 100.0 * hr_lfu);
    println!("  {:<10} {:>9.1}%", "SDC", 100.0 * hr_sdc);

    // (b) Failure masking: a full backend outage; the cache serves stale.
    println!("\n(b) caches as fault tolerance: full backend outage mid-stream");
    let pi = ctx.random_index(scale, 4);
    let records = test.records();
    let outage_start = records.len() / 2;
    let outage_end = outage_start + records.len() / 4;
    // Query `i` is served at `i` seconds, so the outage starts and ends
    // at query instants and never inside a query's service window.
    let at = |i: usize| i as SimTime * SECOND;
    let outage = vec![DownInterval { start: at(outage_start), end: at(outage_end) }];
    let schedule = FaultSchedule::from_intervals(vec![vec![outage]; 4], at(records.len()));
    let engine = DistributedEngine::new(&pi, LruCache::new(2048), 1).with_faults(Arc::new(schedule));
    let mut answered_during_outage = 0u64;
    let mut failed_during_outage = 0u64;
    for (i, rec) in records.iter().enumerate() {
        engine.advance_to(at(i));
        let (_, served) = engine.query_stale_ok(&f.terms(rec.query), 10);
        if (outage_start..outage_end).contains(&i) {
            match served {
                Served::StaleFromCache => answered_during_outage += 1,
                Served::Failed => failed_during_outage += 1,
                _ => {}
            }
        }
    }
    let total_outage = answered_during_outage + failed_during_outage;
    println!(
        "  during the outage: {}/{} queries ({:.1}%) still answered from stale cache",
        answered_during_outage,
        total_outage,
        100.0 * answered_during_outage as f64 / total_outage.max(1) as f64
    );
    println!("\npaper shape: SDC >= LRU/LFU under drift (static half pins the stable head,");
    println!("dynamic half follows the drift); a warm cache masks a large share of a");
    println!("backend outage.");
}
