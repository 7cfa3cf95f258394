//! `soak_storm`: `SoakScenario::run()` — churning crawl, epoch-stamped
//! refreshes, live splits under traffic, routed and hedged 3-site
//! serving under one observability registry. The only workload that
//! reaches `crawler`, `query::route`, `query::multisite` and live `obs`,
//! so it is their single guard.
//!
//! What one storm costs depends heavily on its seed (the crawl alone
//! varies six-fold with the churn schedule), so a repetition runs
//! several storms on seeds derived from `--seed`, and the client call is
//! the lot: the run-to-run spread is that of their sum.
//!
//! `run()` generates its own inputs from the config's seed. Set-up
//! generates the same web, corpus and query universe with the same
//! library calls, for the fixture digest, the byte metrics and the layer
//! replays of the traced run.

use crate::alloc;
use crate::fixture::{fixture_info, FixtureInfo, Fnv, Sizes, K};
use crate::harness::{Layers, Rep, Workload};
use crate::spans::{Tracer, NO_OP};
use dwr_avail::failure::UpDownProcess;
use dwr_crawler::assign::ConsistentHashAssigner;
use dwr_crawler::faults::AgentSchedule;
use dwr_crawler::sim::{CrawlConfig, DistributedCrawl};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::{corpus_from_web, Corpus, PartitionedIndex};
use dwr_partition::repart::RepartIndex;
use dwr_query::engine::Served;
use dwr_query::ShardRouter;
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_soak::{SoakConfig, SoakInvariants, SoakReport, SoakScenario};
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::SyntheticWeb;
use std::hint::black_box;
use std::time::Instant;

/// One storm and the inputs its config implies.
struct Storm {
    cfg: SoakConfig,
    web: SyntheticWeb,
    corpus: Corpus,
    assignment: Vec<u32>,
    queries: Vec<Vec<TermId>>,
}

/// A set-up `soak_storm` workload.
pub struct SoakStorm {
    storms: Vec<Storm>,
    info: FixtureInfo,
}

/// A stable number per outcome, for the response digest.
fn served_tag(served: Served) -> u64 {
    match served {
        Served::CacheHit => 1,
        Served::Full => 2,
        Served::Degraded { missing } => 3 | (missing as u64) << 8,
        Served::StaleFromCache => 4,
        Served::Failed => 5,
        Served::Shed => 6,
        Served::Partial { partitions_answered } => 7 | (partitions_answered as u64) << 8,
        Served::Routed { partitions_contacted } => 8 | (partitions_contacted as u64) << 8,
    }
}

/// What the traced storms of a repetition add up to.
#[derive(Default)]
struct StormTotals {
    run_ns: u64,
    explained_ns: u64,
    crawl_ns: u64,
    crawl_pages: u64,
    decide_ns: u64,
    route_queries: u64,
    shards_contacted: u64,
    broadenings: u64,
    served_remote: u64,
    answered: u64,
    cache_hits: u64,
    full_fidelity: u64,
    unanswered: u64,
    total: u64,
}

impl Storm {
    /// The storm config at benchmark size on `seed`, and its inputs.
    fn set_up(seed: u64, sizes: &Sizes) -> (Self, FixtureInfo) {
        let cfg = SoakConfig {
            pages: sizes.soak_pages,
            hosts: sizes.soak_hosts,
            agents: 8,
            partitions: 8,
            mean_qps: sizes.soak_qps,
            query_universe: sizes.soak_universe,
            cache: sizes.soak_cache,
            k: K,
            ..SoakConfig::storm(seed)
        };
        // As `SoakScenario::run` derives them.
        let web_cfg = WebConfig { num_pages: cfg.pages, num_hosts: cfg.hosts, ..WebConfig::tiny() };
        let web = generate_web(&web_cfg, seed);
        let content = ContentModel::small(web_cfg.num_topics);
        let corpus = corpus_from_web(&web, &content, seed);
        let model = QueryModel::generate(&content, cfg.query_universe, 0.8, 0.9, seed ^ 0xF00D);
        let queries: Vec<Vec<TermId>> = (0..cfg.query_universe as u32)
            .map(|q| model.query(QueryId(q)).terms.iter().map(|t| TermId(t.0)).collect())
            .collect();
        let assignment = RandomPartitioner { seed }.assign(&corpus, cfg.partitions);
        let index = PartitionedIndex::build(&corpus, &assignment, cfg.partitions);
        let index_bytes: usize = index.shards().iter().map(|s| s.index().encoded_bytes()).sum();
        let info = fixture_info(&corpus, queries.iter().map(Vec::as_slice), index_bytes as u64);
        (Storm { cfg, web, corpus, assignment, queries }, info)
    }

    /// Gate a finished run: the end-state invariants must be clean.
    /// Folds every query's outcome, serving site, simulated latency and
    /// hit list into `digest`; returns the violations found.
    fn gate(report: &SoakReport, digest: &mut Fnv) -> u64 {
        let violations = SoakInvariants::check(report).violations();
        for v in &violations {
            eprintln!("soak_storm: invariant violated: {v}");
        }
        for q in &report.queries {
            digest.word(q.at);
            digest.word(served_tag(q.served));
            digest.word(q.site.map_or(u64::MAX, u64::from));
            digest.word(q.latency.unwrap_or(u64::MAX));
            digest.word(q.hits_digest);
        }
        violations.len() as u64
    }

    /// The crawl tier as `SoakScenario::run` drives it: a churn-free
    /// calibration crawl sizes the agent up/down process of the churned
    /// one. Returns pages fetched over both crawls.
    fn crawl(&self) -> u64 {
        let cfg = &self.cfg;
        let base = CrawlConfig {
            agents: cfg.agents,
            connections_per_agent: 8,
            politeness_delay: cfg.politeness_delay,
            most_cited_seed: 50,
            record_trace: true,
            ..CrawlConfig::default()
        };
        let assigner = || ConsistentHashAssigner::new(cfg.agents, 64);
        let baseline = DistributedCrawl::new(&self.web, assigner(), base.clone(), cfg.seed).run();
        let process = UpDownProcess::exponential(
            (baseline.makespan / 3).max(1),
            (baseline.makespan / 10).max(1),
        );
        let churned = CrawlConfig {
            faults: Some(AgentSchedule::generate(
                cfg.agents as usize,
                &process,
                (4 * baseline.makespan).max(1),
                cfg.seed ^ 0x50A7_C4A4,
            )),
            ..base
        };
        let crawl = DistributedCrawl::new(&self.web, assigner(), churned, cfg.seed).run();
        baseline.fetched_pages + crawl.fetched_pages
    }

    fn live_index(&self) -> RepartIndex {
        RepartIndex::build(
            self.corpus.clone(),
            &self.assignment,
            self.cfg.partitions,
            self.cfg.capacity(),
        )
    }

    /// One traced storm: the run, then replays of what it does inside,
    /// parented to it.
    fn traced(&self, op: u32, tracer: &mut Tracer, totals: &mut StormTotals) -> (SoakReport, u64) {
        let scenario = SoakScenario::new(self.cfg.clone());
        alloc::start();
        let (report, run_span, run_ns) = tracer.time(0, op, "soak.scenario.run", || scenario.run());
        alloc::stop();

        let (pages, _, crawl_ns) = tracer.time(run_span, op, "crawler.sim.run", || self.crawl());
        let (live, _, build_ns) =
            tracer.time(run_span, op, "partition.repart.build", || self.live_index());
        // One routing decision per query the run routed.
        let route = report.router_stats.expect("the storm routes");
        let router = ShardRouter::cori(self.cfg.route_width.expect("the storm routes"));
        let snapshot = live.snapshot();
        let selector = router.profile(&snapshot);
        let (_, _, decide_ns) = tracer.time(run_span, op, "query.route.decide", || {
            for terms in self.queries.iter().cycle().take(route.queries as usize) {
                black_box(router.decide(selector.as_ref(), &snapshot, terms));
            }
        });

        let outcomes = report.outcomes();
        totals.run_ns += run_ns;
        totals.explained_ns += crawl_ns + build_ns + decide_ns;
        totals.crawl_ns += crawl_ns;
        totals.crawl_pages += pages;
        totals.decide_ns += decide_ns;
        totals.route_queries += route.queries;
        totals.shards_contacted += route.shards_contacted;
        totals.broadenings += route.broadenings;
        totals.served_remote += report.site_stats.served_remote;
        totals.answered += report.site_stats.answered();
        totals.cache_hits += report.engine_stats.iter().map(|s| s.cache_hits).sum::<u64>();
        totals.full_fidelity += outcomes.full_fidelity();
        totals.unanswered += outcomes.failed + outcomes.shed;
        totals.total += outcomes.total();
        (report, run_ns)
    }
}

/// Seed of storm `i` of a repetition: golden-ratio steps from `--seed`.
fn storm_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A repetition being assembled storm by storm.
#[derive(Default)]
struct Tally {
    piece_ns: Vec<u64>,
    ops: u64,
    failed: u64,
    digest: Fnv,
}

impl Tally {
    fn add(&mut self, report: &SoakReport, run_ns: u64) {
        self.piece_ns.push(run_ns);
        self.ops += report.queries.len() as u64;
        self.failed += Storm::gate(report, &mut self.digest);
    }

    fn finish(self, busy_ns: u64) -> Rep {
        Rep {
            ops: self.ops,
            busy_ns,
            // One client call = the repetition's storms, one after the
            // other; each storm is a piece of it.
            pieces_per_call: self.piece_ns.len(),
            piece_ns: self.piece_ns,
            failed: self.failed,
            digest: self.digest.finish(),
        }
    }
}

impl SoakStorm {
    /// Set every storm of a repetition up.
    pub fn set_up(seed: u64, sizes: &Sizes) -> Self {
        let mut storms = Vec::with_capacity(sizes.soak_storms);
        let mut digest = Fnv::default();
        let mut info = FixtureInfo { documents: 0, postings: 0, index_bytes: 0, digest: 0 };
        for i in 0..sizes.soak_storms {
            let (storm, part) = Storm::set_up(storm_seed(seed, i), sizes);
            storms.push(storm);
            info.documents += part.documents;
            info.postings += part.postings;
            info.index_bytes += part.index_bytes;
            digest.word(part.digest);
        }
        info.digest = digest.finish();
        SoakStorm { storms, info }
    }
}

impl Workload for SoakStorm {
    fn info(&self) -> FixtureInfo {
        self.info
    }

    fn rep(&self) -> Rep {
        let mut tally = Tally::default();
        for storm in &self.storms {
            let scenario = SoakScenario::new(storm.cfg.clone());
            let started = Instant::now();
            let report = scenario.run();
            tally.add(&report, started.elapsed().as_nanos() as u64);
        }
        // The gates run between the timed calls; only the calls count.
        let busy_ns = tally.piece_ns.iter().sum();
        tally.finish(busy_ns)
    }

    fn traced_rep(&self, tracer: &mut Tracer, out: &mut Layers) -> Rep {
        let mut tally = Tally::default();
        let mut t = StormTotals::default();
        let started = Instant::now();
        for (op, storm) in self.storms.iter().enumerate() {
            let (report, run_ns) = storm.traced(op as u32, tracer, &mut t);
            tally.add(&report, run_ns);
        }
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        out.insert(
            "crawler.sim.pages_per_wall_s",
            t.crawl_pages as f64 / (t.crawl_ns as f64 / 1e9),
        );
        out.insert("query.route.decide_ns", share(t.decide_ns, t.route_queries));
        out.insert(
            "trace.residual_share",
            (t.run_ns as f64 - t.explained_ns as f64) / t.run_ns as f64,
        );
        out.insert(
            "query.route.shards_contacted_per_op",
            share(t.shards_contacted, t.route_queries),
        );
        out.insert("query.route.broadened_share", share(t.broadenings, t.route_queries));
        out.insert("query.multisite.remote_share", share(t.served_remote, t.answered));
        out.insert("query.cache.hit_ratio", share(t.cache_hits, t.answered));
        out.insert("soak.full_fidelity_share", share(t.full_fidelity, t.total));
        out.insert("soak.unanswered_share", share(t.unanswered, t.total));
        tally.finish(started.elapsed().as_nanos() as u64)
    }

    fn layer_benches(&self, tracer: &mut Tracer, out: &mut Layers) {
        const SNAPSHOTS: usize = 10_000;
        let live = self.storms[0].live_index();
        let (_, _, ns) = tracer.time(0, NO_OP, "partition.repart.snapshot", || {
            for _ in 0..SNAPSHOTS {
                black_box(live.snapshot());
            }
        });
        out.insert("partition.repart.snapshot_ns", ns as f64 / SNAPSHOTS as f64);
        out.insert(
            "text.postings.bytes_per_posting",
            self.info.index_bytes as f64 / self.info.postings as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_are_clean_and_repeat_their_digest() {
        let w = SoakStorm::set_up(3, &Sizes::smoke());
        let (a, b) = (w.rep(), w.rep());
        assert_eq!(a.failed, 0);
        assert!(a.ops > 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.piece_ns.len(), Sizes::smoke().soak_storms);
    }

    #[test]
    fn storm_seeds_differ_and_start_at_the_seed() {
        assert_eq!(storm_seed(42, 0), 42);
        assert_ne!(storm_seed(42, 1), storm_seed(42, 2));
        assert_ne!(storm_seed(42, 1), storm_seed(43, 1));
    }
}
