//! Crawler-tier chaos suite: the distributed crawl under schedule-driven
//! agent churn — repeated crashes *and* recoveries mid-crawl, with
//! consistent-hash host reassignment and politeness-preserving frontier
//! handoff.
//!
//! Four properties:
//!
//! 1. **coverage survives churn** — any fault schedule that keeps at
//!    least one agent alive completes the crawl with coverage within
//!    ε = 0.1 of the no-fault baseline (the survivors inherit every
//!    crashed agent's frontier);
//! 2. **politeness survives handoffs** — from the recorded fetch trace,
//!    no host is ever contacted by two overlapping connections, and
//!    consecutive accesses to one host are at least `politeness_delay`
//!    apart, *across agents and ownership transfers*;
//! 3. **determinism** — the same seed and schedule reproduce the same
//!    crawl, byte for byte, fault accounting included;
//! 4. **exactly once** — no page is downloaded twice, however often its
//!    host changes hands: `duplicate_fetches == 0` under any schedule,
//!    any assignment policy and either queue order.
//!
//! The `crawl_chaos_fixed_seed_*` tests are the deterministic anchors CI
//! runs; the proptest blocks widen the net locally. The properties draw
//! the frontier's queue order (FIFO or citations) with the schedule, so
//! citation order is tested through crash handoffs too.

use distributed_web_retrieval::avail::failure::UpDownProcess;
use distributed_web_retrieval::crawler::assign::{
    ConsistentHashAssigner, GeoAssigner, HashAssigner, UrlAssigner,
};
use distributed_web_retrieval::crawler::frontier::QueueOrder;
use distributed_web_retrieval::crawler::priority::ordering_crawl;
use distributed_web_retrieval::crawler::sim::{
    CrawlConfig, CrawlReport, DistributedCrawl, SpanOutcome,
};
use distributed_web_retrieval::crawler::AgentSchedule;
use distributed_web_retrieval::sim::{SimTime, MINUTE, SECOND};
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use distributed_web_retrieval::webgraph::graph::HostId;
use distributed_web_retrieval::webgraph::qos::QosConfig;
use distributed_web_retrieval::webgraph::SyntheticWeb;
use proptest::prelude::*;
use std::collections::HashMap;

const AGENTS: u32 = 4;

fn chaos_web(seed: u64) -> SyntheticWeb {
    let mut cfg = WebConfig::tiny();
    cfg.num_pages = 600;
    cfg.num_hosts = 30;
    generate_web(&cfg, seed)
}

fn chaos_cfg() -> CrawlConfig {
    CrawlConfig {
        agents: AGENTS,
        connections_per_agent: 8,
        politeness_delay: SECOND / 2,
        batch_size: 20,
        qos: QosConfig { flaky_fraction: 0.0, slow_fraction: 0.0, ..QosConfig::default() },
        record_trace: true,
        ..CrawlConfig::default()
    }
}

/// Either queue order, drawn.
fn queue_order() -> impl Strategy<Value = QueueOrder> {
    any::<bool>().prop_map(|cited| if cited { QueueOrder::Citations } else { QueueOrder::Fifo })
}

fn run(
    web: &SyntheticWeb,
    faults: Option<AgentSchedule>,
    order: QueueOrder,
    seed: u64,
) -> CrawlReport {
    let mut cfg = chaos_cfg();
    cfg.faults = faults;
    cfg.order = order;
    DistributedCrawl::new(web, ConsistentHashAssigner::new(AGENTS, 64), cfg, seed).run()
}

/// Property 2, checked from the trace: per host, connection spans are
/// disjoint and consecutive accesses sit a full politeness delay apart —
/// no matter which agent (or incarnation) held the connection.
fn assert_politeness(r: &CrawlReport, delay: SimTime) {
    assert_eq!(r.trace.len() as u64, r.attempts, "one span per attempt");
    let mut per_host: HashMap<HostId, Vec<(SimTime, SimTime, u32)>> = HashMap::new();
    for s in &r.trace {
        assert!(s.end >= s.start, "spans run forward");
        per_host.entry(s.host).or_default().push((s.start, s.end, s.agent));
    }
    for (host, mut spans) in per_host {
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (s0, e0, a0) = w[0];
            let (s1, _, a1) = w[1];
            assert!(
                s1 >= e0 + delay,
                "host {host:?} contacted too soon across a handoff: \
                 agent {a0} [{s0}, {e0}] then agent {a1} at {s1} (delay {delay})"
            );
        }
    }
}

/// One full churn scenario: generated schedule, live reassignment,
/// frontier handoffs — coverage, politeness, and accounting all checked.
fn crawl_chaos_run(seed: u64) {
    let web = chaos_web(seed);
    let baseline = run(&web, None, QueueOrder::Fifo, seed);
    assert!(baseline.coverage > 0.9, "baseline must crawl the web: {}", baseline.coverage);

    let process = UpDownProcess::exponential(
        baseline.makespan.max(MINUTE) / 4,
        baseline.makespan.max(MINUTE) / 16,
    );
    let horizon = 4 * baseline.makespan;
    let schedule = AgentSchedule::generate(AGENTS as usize, &process, horizon, seed);
    let r = run(&web, Some(schedule), QueueOrder::Fifo, seed);
    let f = r.faults;
    assert!(f.crashes >= 1, "the schedule must actually crash something: {f:?}");
    assert!(f.hosts_moved > 0, "crashes must move hosts: {f:?}");
    assert!(
        r.coverage > baseline.coverage - 0.1,
        "churn cost too much coverage: {} vs {}",
        r.coverage,
        baseline.coverage
    );
    assert_politeness(&r, chaos_cfg().politeness_delay);
    // Lost-work accounting closes: every crash-lost fetch is a
    // LostInCrash span, and refetches never exceed what was lost.
    let lost_spans =
        r.trace.iter().filter(|s| s.outcome == SpanOutcome::LostInCrash).count() as u64;
    assert_eq!(lost_spans, f.lost_inflight);
    assert!(f.refetches <= f.lost_inflight);
    assert_exactly_once(&r);
}

/// Property 4, checked from the report and the trace: no page is
/// downloaded twice.
fn assert_exactly_once(r: &CrawlReport) {
    assert_eq!(r.duplicate_fetches, 0, "a page was fetched twice (faults {:?})", r.faults);
    let fetched = r.trace.iter().filter(|s| s.outcome == SpanOutcome::Fetched).count() as u64;
    assert_eq!(fetched, r.fetched_pages, "one Fetched span per stored page");
}

#[test]
fn crawl_chaos_fixed_seed_1() {
    crawl_chaos_run(0xC4A0_0001);
}

#[test]
fn crawl_chaos_fixed_seed_2() {
    crawl_chaos_run(0xC4A0_0002);
}

#[test]
fn crawl_chaos_fixed_seed_3() {
    crawl_chaos_run(0xC4A0_0003);
}

/// Property 3: the whole churn scenario is reproducible — same seed,
/// same schedule, identical report including the fault accounting and
/// the full fetch trace.
#[test]
fn crawl_chaos_is_deterministic_given_a_seed() {
    let web = chaos_web(99);
    let process = UpDownProcess::exponential(2 * MINUTE, 30 * SECOND);
    let schedule = AgentSchedule::generate(AGENTS as usize, &process, 30 * MINUTE, 99);
    let once = run(&web, Some(schedule.clone()), QueueOrder::Fifo, 99);
    let twice = run(&web, Some(schedule), QueueOrder::Fifo, 99);
    assert_eq!(once.fetched_pages, twice.fetched_pages);
    assert_eq!(once.makespan, twice.makespan);
    assert_eq!(once.faults, twice.faults);
    assert_eq!(once.exchange, twice.exchange);
    assert_eq!(once.trace, twice.trace);

    let other = AgentSchedule::generate(
        AGENTS as usize,
        &UpDownProcess::exponential(2 * MINUTE, 30 * SECOND),
        30 * MINUTE,
        100,
    );
    let third = run(&web, Some(other), QueueOrder::Fifo, 99);
    assert_ne!(once.faults, third.faults, "a different schedule churns differently");
}

/// The simulator reads each host's owner from a table it refills after
/// every membership change, and debug builds check each read against
/// the assigner itself. One churned crawl per assignment policy drives
/// those reads through crashes and recoveries; the crawl must stay
/// polite and cover what the calm crawl covers.
fn owner_table_under_churn<A: UrlAssigner>(assigner: impl Fn() -> A, cfg: CrawlConfig, seed: u64) {
    let web = chaos_web(seed);
    let baseline = DistributedCrawl::new(&web, assigner(), cfg.clone(), seed).run();
    let process = UpDownProcess::exponential(
        baseline.makespan.max(MINUTE) / 4,
        baseline.makespan.max(MINUTE) / 16,
    );
    let schedule = AgentSchedule::generate(AGENTS as usize, &process, 4 * baseline.makespan, seed);
    let r = DistributedCrawl::new(
        &web,
        assigner(),
        CrawlConfig { faults: Some(schedule), ..cfg },
        seed,
    )
    .run();
    let f = r.faults;
    assert!(f.crashes >= 1 && f.recoveries >= 1, "the schedule must churn both ways: {f:?}");
    assert!(f.hosts_moved > 0, "churn must move hosts: {f:?}");
    assert!(
        r.coverage > baseline.coverage - 0.1,
        "churn cost too much coverage: {} vs {}",
        r.coverage,
        baseline.coverage
    );
    assert_politeness(&r, chaos_cfg().politeness_delay);
    assert_exactly_once(&r);
}

#[test]
fn owner_table_follows_a_modulo_assigner_under_churn() {
    owner_table_under_churn(|| HashAssigner::new(AGENTS), chaos_cfg(), 41);
}

#[test]
fn owner_table_follows_a_consistent_hash_assigner_under_churn() {
    owner_table_under_churn(|| ConsistentHashAssigner::new(AGENTS, 64), chaos_cfg(), 42);
}

#[test]
fn owner_table_follows_a_geographic_assigner_under_churn() {
    let regions = vec![0, 0, 1, 1];
    let cfg = CrawlConfig { agent_regions: regions.clone(), ..chaos_cfg() };
    owner_table_under_churn(|| GeoAssigner::new(&regions), cfg, 43);
}

/// E22's crawls, FIFO and citation order, are polite by the same
/// checker and fetch the same pages.
#[test]
fn ordering_crawls_are_polite_and_cover_the_same_pages() {
    let web = chaos_web(22);
    let fetched = |r: &CrawlReport| {
        let mut pages: Vec<_> =
            r.trace.iter().filter(|s| s.outcome == SpanOutcome::Fetched).map(|s| s.page).collect();
        pages.sort_unstable();
        pages
    };
    let fifo = ordering_crawl(&web, QueueOrder::Fifo, 8);
    let cited = ordering_crawl(&web, QueueOrder::Citations, 8);
    for r in [&fifo, &cited] {
        assert_politeness(r, SECOND / 2);
    }
    assert!(fifo.coverage > 0.9, "the crawl must reach the web: {}", fifo.coverage);
    assert_eq!(fetched(&fifo), fetched(&cited));
    assert_ne!(fifo.trace, cited.trace, "the order must change the crawl");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: any generated schedule that leaves at least one agent
    /// alive at all times completes with coverage within ε = 0.1 of the
    /// no-fault baseline.
    #[test]
    fn coverage_survives_any_live_schedule(
        mtbf_min in 1u64..8,
        mttr_min in 1u64..4,
        seed in any::<u64>(),
        order in queue_order(),
    ) {
        let web = chaos_web(7);
        let baseline = run(&web, None, order, 7);
        let process =
            UpDownProcess::exponential(mtbf_min * MINUTE, mttr_min * MINUTE);
        let horizon = 2 * baseline.makespan;
        let schedule = AgentSchedule::generate(AGENTS as usize, &process, horizon, seed);
        prop_assume!(schedule.min_live(AGENTS as usize) >= 1);
        let r = run(&web, Some(schedule), order, 7);
        prop_assert!(
            r.coverage > baseline.coverage - 0.1,
            "coverage {} vs baseline {} (faults {:?})",
            r.coverage,
            baseline.coverage,
            r.faults
        );
        assert_exactly_once(&r);
    }

    /// Properties 2 and 4 at random churn rates, every assignment policy,
    /// either queue order and flaky servers on or off: the politeness
    /// invariant holds in every trace, handoffs included, and no page is
    /// fetched twice. New inputs go last, so a case's earlier draws do
    /// not depend on them.
    #[test]
    fn politeness_survives_handoffs(
        mtbf_min in 1u64..6,
        mttr_min in 1u64..4,
        use_modulo in any::<bool>(),
        seed in any::<u64>(),
        order in queue_order(),
        use_geo in any::<bool>(),
        flaky in any::<bool>(),
    ) {
        let web = chaos_web(11);
        let process =
            UpDownProcess::exponential(mtbf_min * MINUTE, mttr_min * MINUTE);
        let schedule =
            AgentSchedule::generate(AGENTS as usize, &process, 40 * MINUTE, seed);
        let mut cfg = chaos_cfg();
        cfg.faults = Some(schedule);
        cfg.order = order;
        if flaky {
            cfg.qos = QosConfig { flaky_fraction: 0.3, flaky_failure_prob: 0.4, ..cfg.qos };
        }
        let r = if use_geo {
            let regions = vec![0, 0, 1, 1];
            cfg.agent_regions = regions.clone();
            DistributedCrawl::new(&web, GeoAssigner::new(&regions), cfg, 11).run()
        } else if use_modulo {
            DistributedCrawl::new(&web, HashAssigner::new(AGENTS), cfg, 11).run()
        } else {
            DistributedCrawl::new(&web, ConsistentHashAssigner::new(AGENTS, 64), cfg, 11).run()
        };
        assert_politeness(&r, chaos_cfg().politeness_delay);
        assert_exactly_once(&r);
    }
}
