//! Experiment **E28**: tail latency under heavy-tailed shard stragglers —
//! hedging policy × load, on the Figure-2 workload.
//!
//! Each (partition, replica) draws a per-query service-time inflation
//! factor from [`StragglerModel`] (lognormal body, bounded-Pareto tail,
//! load-scaled via [`TailParams::at_load`]); the same drawn model and the
//! same Zipf stream are replayed through a [`DistributedEngine`] under
//! every [`HedgePolicy`], so cells differ *only* in the policy. A light
//! fault schedule keeps the death-hedging path live.
//!
//! Three claims, checked live:
//!
//! 1. **Hedging cuts the tail.** At each load, at least one hedging
//!    policy beats `Never` strictly at p999 (asserted).
//! 2. **The overhead is priced.** Every cell reports hedges/query,
//!    cancellations, and `hedge_work_us` — the work burned on requests
//!    whose answer was discarded — as a fraction of total shard busy
//!    time, so the p999 win is never quoted without its cost.
//! 3. **Deadline-aware gather degrades explicitly.** A gather deadline
//!    at the no-hedge p99 turns over-deadline queries into
//!    [`Served::Partial`] with exact coverage counts instead of
//!    stretching the tail (partials > 0 asserted, and every outcome
//!    lands in exactly one counter).
//!
//! Run: `cargo run -p dwr-bench --release -- E28 [--smoke]`

use crate::{Ctx, Scale, SEED};
use dwr_avail::UpDownProcess;
use dwr_partition::parted::PartitionedIndex;
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, HedgePolicy, Served};
use dwr_query::faults::FaultSchedule;
use dwr_query::straggler::{StragglerModel, TailParams};
use dwr_sim::stats::Samples;
use dwr_sim::{SimTime, DAY, HOUR};
use dwr_text::TermId;
use std::sync::Arc;

const SERVERS: usize = 8;
const REPLICAS: usize = 2;
const POOL_THREADS: usize = 4;
const K: usize = 10;
const LOADS: [f64; 2] = [0.5, 0.9];

struct Cell {
    policy: String,
    load: f64,
    backend: usize,
    p50: f64,
    p99: f64,
    p999: f64,
    hedges_per_q: f64,
    cancelled: u64,
    overhead_pct: f64,
    goodput_pct: f64,
}

fn policy_name(p: HedgePolicy) -> String {
    match p {
        HedgePolicy::Never => "never".into(),
        HedgePolicy::OnDeath => "on-death".into(),
        HedgePolicy::FixedDelay(t) => format!("fixed({t})"),
        HedgePolicy::PercentileTrigger(q) => format!("p{q:.0}-trigger"),
        HedgePolicy::Tied => "tied".into(),
    }
}

/// Replay the stream under one policy; `sla` (if known) scores goodput.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    pi: &PartitionedIndex,
    stream: &[Vec<TermId>],
    schedule: &Arc<FaultSchedule>,
    model: &Arc<StragglerModel>,
    policy: HedgePolicy,
    load: f64,
    sla: Option<f64>,
    gather_deadline: Option<SimTime>,
) -> (DistributedEngine<LruCache>, Cell) {
    let mut engine = DistributedEngine::new(pi, LruCache::new(512), REPLICAS)
        .with_faults(Arc::clone(schedule))
        .with_stragglers(Arc::clone(model))
        .with_hedge_policy(policy)
        .with_parallelism(POOL_THREADS);
    if let Some(d) = gather_deadline {
        engine = engine.with_gather_deadline(d);
    }
    let horizon = schedule.horizon();
    let mut raw: Vec<f64> = Vec::with_capacity(stream.len());
    for (i, terms) in stream.iter().enumerate() {
        engine.advance_to(i as SimTime * horizon / stream.len() as SimTime);
        let r = engine.query_full(terms, K);
        // Tail statistics are about backend service: cache hits answer
        // from coordinator memory and would just dilute the percentiles.
        if matches!(r.served, Served::Full | Served::Degraded { .. } | Served::Partial { .. }) {
            raw.push(r.latency.expect("served queries carry a latency") as f64);
        }
    }
    let s = engine.stats();
    let backend = raw.len();
    let busy: f64 = engine.broker().busy_time().iter().sum();
    let good = sla.map_or(f64::NAN, |sla| {
        let under = raw.iter().filter(|&&v| v <= sla).count();
        100.0 * under as f64 / backend.max(1) as f64
    });
    let mut lat = Samples::with_capacity(backend);
    for v in raw {
        lat.push(v);
    }
    let cell = Cell {
        policy: policy_name(policy),
        load,
        backend,
        p50: lat.percentile(50.0),
        p99: lat.percentile(99.0),
        p999: lat.percentile(99.9),
        hedges_per_q: s.hedged as f64 / backend.max(1) as f64,
        cancelled: s.cancelled,
        overhead_pct: 100.0 * s.hedge_work_us as f64 / busy.max(1e-9),
        goodput_pct: good,
    };
    (engine, cell)
}

pub(crate) fn run(ctx: &Ctx) {
    let n_queries: usize = if ctx.smoke { 2_000 } else { 12_000 };
    println!("E28. Tail latency under stragglers: hedging policy x load.");
    println!(
        "workload: {n_queries} Zipf queries, {SERVERS} partitions x {REPLICAS} replicas, \
         k={K}, pool of {POOL_THREADS} workers\n"
    );

    let pi = ctx.random_index(Scale::Medium, SERVERS);
    let stream = ctx.fixture(Scale::Medium).zipf_terms(0x7A11, n_queries);
    // Light churn: deaths stay rare enough that the tail is a straggler
    // story, but the on-death path stays exercised.
    let process = UpDownProcess::exponential(12 * HOUR, HOUR);
    let schedule =
        Arc::new(FaultSchedule::generate(SERVERS, REPLICAS, &process, 2 * DAY, SEED ^ 5));

    let mut cells: Vec<Cell> = Vec::new();
    let mut partial_report: Vec<(f64, u64, u64, f64)> = Vec::new();
    for (li, &load) in LOADS.iter().enumerate() {
        // One drawn model per load, shared by every policy cell: the
        // replicas' (p, r, qid) draws are identical across policies, so
        // the comparison is at genuinely equal load.
        let model =
            Arc::new(StragglerModel::drawn(SEED ^ (li as u64) << 32, TailParams::at_load(load)));

        // The no-hedge reference sets the yardsticks: its shard p95 is
        // the classic hedge delay, 3x its p50 is the SLA, its p99 is the
        // gather deadline for the partial-results section.
        let (ref_engine, _) =
            run_cell(&pi, &stream, &schedule, &model, HedgePolicy::Never, load, None, None);
        let shard_p95 = ref_engine
            .shard_latency_percentiles()
            .iter()
            .map(|p| p.percentile(95.0))
            .fold(0.0f64, f64::max)
            .ceil() as SimTime;

        let policies = [
            HedgePolicy::Never,
            HedgePolicy::OnDeath,
            HedgePolicy::FixedDelay(shard_p95.max(1)),
            HedgePolicy::PercentileTrigger(99.0),
            HedgePolicy::Tied,
        ];
        let mut sla = f64::NAN;
        for policy in policies {
            let (_, mut cell) = run_cell(
                &pi,
                &stream,
                &schedule,
                &model,
                policy,
                load,
                if sla.is_nan() { None } else { Some(sla) },
                None,
            );
            if policy == HedgePolicy::Never {
                sla = 3.0 * cell.p50;
                // Re-score the reference against its own SLA.
                cell.goodput_pct = {
                    let (_, rescored) =
                        run_cell(&pi, &stream, &schedule, &model, policy, load, Some(sla), None);
                    rescored.goodput_pct
                };
            }
            cells.push(cell);
        }

        // Claim 1: some hedging policy beats Never strictly at p999.
        let never_p999 =
            cells.iter().find(|c| c.load == load && c.policy == "never").map(|c| c.p999).unwrap();
        let best_hedged = cells
            .iter()
            .filter(|c| c.load == load && c.policy != "never")
            .map(|c| c.p999)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_hedged < never_p999,
            "at load {load}, some hedging policy must beat Never at p999: \
             best {best_hedged} vs never {never_p999}"
        );

        // Claim 3: a gather deadline at the no-hedge p99 yields explicit
        // partial coverage instead of a stretched tail.
        let deadline = cells
            .iter()
            .find(|c| c.load == load && c.policy == "never")
            .map(|c| c.p99.ceil() as SimTime)
            .unwrap();
        let (engine, dcell) = run_cell(
            &pi,
            &stream,
            &schedule,
            &model,
            HedgePolicy::OnDeath,
            load,
            Some(sla),
            Some(deadline),
        );
        let s = engine.stats();
        assert!(s.partial > 0, "a p99 deadline must clip some gathers at load {load}");
        let outcomes = s.cache_hits + s.full + s.degraded + s.stale + s.failed + s.partial;
        assert_eq!(outcomes, n_queries as u64, "every query lands in one outcome counter");
        partial_report.push((load, s.partial, s.full, dcell.p999));
    }

    println!(
        "{:<14} {:>5} {:>9} {:>10} {:>10} {:>10} {:>9} {:>10} {:>9} {:>9}",
        "policy",
        "load",
        "backend",
        "p50 us",
        "p99 us",
        "p999 us",
        "hedges/q",
        "cancelled",
        "ovhd %",
        "goodput %"
    );
    for c in &cells {
        println!(
            "{:<14} {:>5.2} {:>9} {:>10.0} {:>10.0} {:>10.0} {:>9.3} {:>10} {:>9.2} {:>9.2}",
            c.policy,
            c.load,
            c.backend,
            c.p50,
            c.p99,
            c.p999,
            c.hedges_per_q,
            c.cancelled,
            c.overhead_pct,
            c.goodput_pct,
        );
    }
    println!();
    for (load, partial, full, p999) in &partial_report {
        println!(
            "deadline@p99, load {load:.2}: {partial} partial / {full} full answers, \
             p999 {p999:.0} us (coverage made explicit, not silently late)"
        );
    }
    println!("\ncheck: at every load, a hedging policy beats Never strictly at p999  [ok]");
    println!("check: gather deadline converts the over-budget tail into Served::Partial  [ok]");
    println!("\npaper shape: Section 5 observes that in scatter-gather retrieval the");
    println!("slowest server sets the response time; with heavy-tailed shard service,");
    println!("p999 is a straggler story, and the classic remedies -- hedged requests,");
    println!("tied requests, deadline-bounded gather -- trade bounded duplicate work");
    println!("for a bounded tail, which this table prices explicitly.");
}
