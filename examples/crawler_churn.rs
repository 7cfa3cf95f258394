//! Crawler-tier fault tolerance: agents crash and recover mid-crawl,
//! hosts are re-routed by consistent hashing, and per-host frontiers are
//! handed to the new owners with politeness state carried over — the
//! Section 3 dependability scenario end to end.
//!
//! ```sh
//! cargo run --example crawler_churn --release
//! ```

use distributed_web_retrieval::avail::failure::UpDownProcess;
use distributed_web_retrieval::crawler::assign::{ConsistentHashAssigner, HashAssigner};
use distributed_web_retrieval::crawler::sim::{CrawlConfig, DistributedCrawl, SpanOutcome};
use distributed_web_retrieval::crawler::AgentSchedule;
use distributed_web_retrieval::sim::SECOND;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use dwr_obs::{ObsConfig, ObsRecorder};
use std::sync::Arc;

const AGENTS: u32 = 6;

fn main() {
    let seed = 2007;
    let mut web_cfg = WebConfig::tiny();
    web_cfg.num_pages = 1_500;
    web_cfg.num_hosts = 75;
    let web = generate_web(&web_cfg, seed);
    let cfg = CrawlConfig {
        agents: AGENTS,
        connections_per_agent: 8,
        politeness_delay: SECOND / 2,
        record_trace: true,
        ..CrawlConfig::default()
    };
    println!(
        "{} pages on {} hosts, {AGENTS} agents, politeness {:.1} s\n",
        web.num_pages(),
        web.num_hosts(),
        cfg.politeness_delay as f64 / SECOND as f64
    );

    // --- Fault-free baseline. ---
    let baseline =
        DistributedCrawl::new(&web, ConsistentHashAssigner::new(AGENTS, 64), cfg.clone(), seed)
            .run();
    println!(
        "fault-free:  coverage {:.3} in {:.0} s simulated",
        baseline.coverage,
        baseline.makespan as f64 / SECOND as f64
    );

    // --- The same crawl under heavy churn: every agent flaps on its own
    // up/down process; the schedule spans well past the baseline. ---
    let process = UpDownProcess::exponential(baseline.makespan / 4, baseline.makespan / 12);
    let schedule = AgentSchedule::generate(AGENTS as usize, &process, 4 * baseline.makespan, seed);
    let recorder = Arc::new(ObsRecorder::new(ObsConfig::crawl_tier()));
    let mut churn_cfg = cfg.clone();
    churn_cfg.faults = Some(schedule.clone());
    let churned =
        DistributedCrawl::new(&web, ConsistentHashAssigner::new(AGENTS, 64), churn_cfg, seed)
            .with_obs(Arc::clone(&recorder))
            .run();
    let f = churned.faults;
    println!(
        "under churn: coverage {:.3} in {:.0} s simulated",
        churned.coverage,
        churned.makespan as f64 / SECOND as f64
    );
    println!(
        "  {} crashes / {} recoveries ({} suppressed to keep one agent alive)",
        f.crashes, f.recoveries, f.crashes_suppressed
    );
    println!(
        "  {} host reassignments, {} frontier-handoff batches carrying {} URLs",
        f.hosts_moved, f.handoff_batches, f.handoff_urls
    );
    println!(
        "  {} fetches lost in crashes, {} of them refetched, {} duplicate fetches",
        f.lost_inflight, f.refetches, churned.duplicate_fetches
    );
    assert_eq!(churned.duplicate_fetches, 0, "churn must not make the crawl fetch a page twice");

    // The live obs counters agree with the offline accounting.
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("crawl.crashes"), Some(f.crashes));
    assert_eq!(snap.counter("crawl.hosts_moved"), Some(f.hosts_moved));
    println!("  (live crawl.* counters cross-check against the report)");

    // The politeness invariant survives every handoff: check the trace.
    let mut per_host = std::collections::HashMap::<_, Vec<_>>::new();
    for s in &churned.trace {
        per_host.entry(s.host).or_default().push((s.start, s.end));
    }
    let violations: usize = per_host
        .values_mut()
        .map(|spans| {
            spans.sort_unstable();
            spans.windows(2).filter(|w| w[1].0 < w[0].1 + cfg.politeness_delay).count()
        })
        .sum();
    let lost = churned.trace.iter().filter(|s| s.outcome == SpanOutcome::LostInCrash).count();
    println!(
        "  trace: {} attempts, {} lost to crashes, {} politeness violations",
        churned.trace.len(),
        lost,
        violations
    );
    assert_eq!(violations, 0);

    // --- Why consistent hashing: the same schedule under modulo. ---
    let mut modulo_cfg = cfg;
    modulo_cfg.faults = Some(schedule);
    let modulo = DistributedCrawl::new(&web, HashAssigner::new(AGENTS), modulo_cfg, seed).run();
    let changes = |s: &distributed_web_retrieval::crawler::sim::CrawlFaultStats| {
        (s.crashes + s.recoveries).max(1)
    };
    println!(
        "\nsame churn, modulo rehashing: {:.0} hosts moved per membership change",
        modulo.faults.hosts_moved as f64 / changes(&modulo.faults) as f64
    );
    println!(
        "         consistent hashing: {:.0} hosts moved per membership change",
        f.hosts_moved as f64 / changes(&f) as f64
    );
    println!("\"new agents enter the crawling system without re-hashing all the server names\"");
}
