//! Experiment **E23**: fault-injected serving — availability vs
//! replication degree under an `UpDownProcess` outage schedule
//! (Section 5, dependability).
//!
//! "Having all query processors storing the same data (...) achieves the
//! best availability level possible." E9 measured that trade-off with a
//! closed-form placement estimate; this experiment measures it *end to
//! end*: the same outage schedule drives replica liveness inside the
//! serving engine, queries race real outages (including mid-query
//! replica deaths hedged onto surviving replicas), and the table reports
//! what the user actually observed.
//!
//! Run: `cargo run -p dwr-bench --release -- E23 [--smoke]`

use std::sync::Arc;

use crate::{Ctx, Scale, SEED};
use dwr_avail::{Timeline, UpDownProcess};
use dwr_partition::select::CoriSelector;
use dwr_query::cache::LruCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::faults::FaultSchedule;
use dwr_sim::{SimTime, DAY, HOUR};
use dwr_text::TermId;

const PARTITIONS: usize = 8;
const SELECT_M: usize = 2;
const MAX_REPLICAS: usize = 4;

pub(crate) fn run(ctx: &Ctx) {
    let n_queries: usize = if ctx.smoke { 2_000 } else { 20_000 };
    let horizon: SimTime = 30 * DAY;

    println!("E23. Fault-injected serving: availability vs replication degree.\n");
    println!("(a) steady-state stream against the outage schedule");
    let pi = ctx.random_index(Scale::Small, PARTITIONS);
    // The identical query stream for every row.
    let stream = ctx.fixture(Scale::Small).zipf_terms(0x0F41, n_queries);
    let selector = Arc::new(CoriSelector::from_partitions(&pi));

    // Deliberately unreliable machines (MTBF 12h, MTTR 4h: 75% up) so
    // the replication effect is visible within the horizon. The schedule
    // generator is dimension-stable: replica streams for r coincide with
    // the first r streams for r+1, so each row faces the *same* outages
    // plus one more replica to absorb them.
    let process = UpDownProcess::exponential(12 * HOUR, 4 * HOUR);
    let schedule_seed = SEED ^ 0xFA11;
    println!(
        "stream: {n_queries} Zipf queries over {} simulated days, {PARTITIONS} partitions,",
        horizon / DAY
    );
    println!("CORI selection m={SELECT_M}, per-query deadline 1h, MTBF 12h / MTTR 4h (75% up)\n");

    println!(
        "  {:>2} {:>7} {:>7} {:>7} {:>7} {:>8} {:>7} {:>9} {:>9}",
        "r", "full%", "cache%", "stale%", "degr%", "failed%", "hedged", "down%", "answered%"
    );
    let mut failed_rates = Vec::new();
    for replicas in 1..=MAX_REPLICAS {
        let schedule = Arc::new(FaultSchedule::generate(
            PARTITIONS,
            replicas,
            &process,
            horizon,
            schedule_seed,
        ));
        let mean_down = (0..PARTITIONS)
            .flat_map(|p| (0..replicas).map(move |r| (p, r)))
            .map(|(p, r)| schedule.timeline(p, r).map_or(0, Timeline::downtime) as f64 / horizon as f64)
            .sum::<f64>()
            / (PARTITIONS * replicas) as f64;
        let engine = DistributedEngine::new(&pi, LruCache::new(256), replicas)
            .with_selection(Arc::clone(&selector) as _, SELECT_M)
            .with_faults(schedule)
            .with_deadline(HOUR);
        for (i, terms) in stream.iter().enumerate() {
            let t = i as SimTime * horizon / n_queries as SimTime;
            engine.advance_to(t);
            engine.query_stale_ok(terms, 10);
        }
        let s = engine.stats();
        let pct = |c: u64| 100.0 * c as f64 / n_queries as f64;
        let failed = pct(s.failed);
        println!(
            "  {:>2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.3} {:>7} {:>9.1} {:>9.2}",
            replicas,
            pct(s.full),
            pct(s.cache_hits),
            pct(s.stale),
            pct(s.degraded),
            failed,
            s.hedged,
            100.0 * mean_down,
            100.0 - failed,
        );
        failed_rates.push(failed);
    }

    for pair in failed_rates.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "failed rate must not increase with replication: {failed_rates:?}"
        );
    }
    println!("\ncheck: failed rate is monotonically non-increasing in r  [ok]");

    // (b) The hedged-retry path in isolation. A 12h-MTBF outage almost
    // never *starts* inside a sub-millisecond service window, so part (a)
    // exercises up/down state but not mid-query deaths. Here every probe
    // query is issued moments before a replica dies — the worst instant —
    // and selection is off so the dying partition is always evaluated.
    println!("\n(b) mid-query deaths: probes issued the instant a replica dies");
    println!(
        "  {:>2} {:>7} {:>7} {:>7} {:>8} {:>7} {:>8}",
        "r", "probes", "full%", "degr%", "failed%", "hedged", "hedge%"
    );
    for replicas in 1..=MAX_REPLICAS {
        let schedule = Arc::new(FaultSchedule::generate(
            PARTITIONS,
            replicas,
            &process,
            horizon,
            schedule_seed,
        ));
        let engine = DistributedEngine::new(&pi, LruCache::new(16), replicas)
            .with_faults(Arc::clone(&schedule))
            .with_deadline(HOUR);
        let mut probes = 0u64;
        let mut term = 100_000u32; // distinct probe terms: the cache never answers
        for p in 0..PARTITIONS {
            for r in 0..replicas {
                for outage in schedule.timeline(p, r).map_or(&[][..], Timeline::down_intervals) {
                    let t = outage.start.saturating_sub(50);
                    if schedule.is_down(p, r, t) {
                        continue; // already inside an earlier outage
                    }
                    engine.advance_to(t);
                    engine.query_full(&[TermId(term)], 10);
                    term += 1;
                    probes += 1;
                }
            }
        }
        let s = engine.stats();
        let pct = |c: u64| 100.0 * c as f64 / probes as f64;
        println!(
            "  {:>2} {:>7} {:>7.1} {:>7.1} {:>8.1} {:>7} {:>8.1}",
            replicas,
            probes,
            pct(s.full),
            pct(s.degraded),
            pct(s.failed),
            s.hedged,
            pct(s.hedged),
        );
    }
    println!("\npaper shape: with one copy per shard, outages reach the user as failed and");
    println!("degraded answers; each added replica absorbs an order of magnitude of them,");
    println!("and hedged retries hide mid-query deaths wherever a second replica is alive.");
    println!("Stale cache answers mask the residual full-outage windows — the dependability");
    println!("role the paper assigns to result caches.");
}
