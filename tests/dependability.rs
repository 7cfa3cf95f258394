//! Cross-crate integration: failures everywhere — crawler agents, index
//! replicas, whole sites — and the system's mitigation machinery.

use distributed_web_retrieval::avail::failure::{DownInterval, UpDownProcess};
use distributed_web_retrieval::avail::site::SiteConfig;
use distributed_web_retrieval::crawler::assign::{AgentId, ConsistentHashAssigner};
use distributed_web_retrieval::crawler::sim::{CrawlConfig, DistributedCrawl};
use distributed_web_retrieval::crawler::AgentSchedule;
use distributed_web_retrieval::partition::doc::{DocPartitioner, RandomPartitioner};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::query::cache::LruCache;
use distributed_web_retrieval::query::engine::{DistributedEngine, Served};
use distributed_web_retrieval::query::faults::FaultSchedule;
use distributed_web_retrieval::sim::{SimRng, SimTime, DAY, SECOND};
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use distributed_web_retrieval::webgraph::qos::QosConfig;
use std::sync::Arc;

const SEED: u64 = 90210;

#[test]
fn crawl_survives_agent_crash_and_flaky_servers() {
    let mut web_cfg = WebConfig::tiny();
    web_cfg.num_pages = 600;
    web_cfg.num_hosts = 30;
    let web = generate_web(&web_cfg, SEED);
    let cfg = CrawlConfig {
        agents: 4,
        connections_per_agent: 8,
        politeness_delay: SECOND / 2,
        qos: QosConfig { flaky_fraction: 0.2, flaky_failure_prob: 0.3, ..QosConfig::default() },
        faults: Some(AgentSchedule::single_crash(4, AgentId(1), 20 * 60 * SECOND)),
        ..CrawlConfig::default()
    };
    let r = DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), cfg, SEED).run();
    assert!(r.coverage > 0.5, "coverage {}", r.coverage);
    assert!(r.transient_failures > 0, "failures should have been injected");
}

#[test]
fn replicated_engine_degrades_gracefully_and_recovers() {
    let web = generate_web(&WebConfig::tiny(), SEED);
    let content = ContentModel::small(8);
    let corpus = content.corpus(&web, SEED);
    let assignment = RandomPartitioner { seed: SEED }.assign(&corpus, 4);
    let pi = PartitionedIndex::build(&corpus, &assignment, 4);
    // Partition 2 loses replica 0 over [1 s, 3 s) and replica 1 over
    // [2 s, 4 s); queries run on whole seconds, far from any outage's
    // start.
    let down = |from: SimTime, to: SimTime| vec![DownInterval { start: from, end: to }];
    let partition_2 = vec![down(SECOND, 3 * SECOND), down(2 * SECOND, 4 * SECOND)];
    let outages = vec![vec![vec![], vec![]], vec![vec![], vec![]], partition_2];
    let schedule = FaultSchedule::from_intervals(outages, 5 * SECOND);
    let engine = DistributedEngine::new(&pi, LruCache::new(64), 2).with_faults(Arc::new(schedule));

    let terms = [TermId(5), TermId(20_001)];
    let (full, s) = engine.query(&terms, 20);
    assert_eq!(s, Served::Full);

    // One replica down: still full.
    engine.advance_to(SECOND);
    let (_, s) = engine.query(&[TermId(6)], 20);
    assert_eq!(s, Served::Full);

    // Whole group down: degraded, and missing exactly partition 2's docs.
    engine.advance_to(2 * SECOND);
    let (degraded, s) = engine.query(&[TermId(5), TermId(20_001), TermId(7)], 500);
    assert!(matches!(s, Served::Degraded { missing: 1 }));
    assert!(degraded.iter().all(|h| pi.partition_of(h.doc) != 2));

    // Recovery restores the original results (served from cache here,
    // which is exactly the coordinator's fast path for repeat queries).
    engine.advance_to(3 * SECOND);
    let (recovered, s) = engine.query(&terms, 20);
    assert!(matches!(s, Served::Full | Served::CacheHit));
    assert_eq!(recovered, full, "same query, same results after recovery");
}

#[test]
fn site_availability_feeds_query_routing_shape() {
    // Availability simulation and interval bookkeeping stay consistent
    // over long horizons with bursty (Weibull) failures.
    let cfg = SiteConfig {
        servers: 2,
        network: UpDownProcess::bursty(20 * DAY, DAY / 4, 0.7),
        server: UpDownProcess::exponential(40 * DAY, DAY / 2),
    };
    let mut rng = SimRng::new(SEED);
    let site = cfg.simulate(365 * DAY, &mut rng);
    let a = site.availability();
    assert!(a > 0.9 && a < 1.0, "availability {a}");
    // Point queries agree with interval accounting.
    let mid_outage = site.down_intervals().first().map(|iv| (iv.start + iv.end) / 2);
    if let Some(t) = mid_outage {
        assert!(!site.is_up(t));
    }
}
