//! The paper's artifacts and the fixtures they share.
//!
//! Every table, figure and claim of EXPERIMENTS.md is one module listed in
//! [`ARTIFACTS`] under its heading id, and the one `regen` binary runs
//! them (`cargo run -p dwr-bench --release -- [--smoke] [ID ...]`). Each
//! builds its workload from these helpers so the experiments stay
//! mutually consistent: one web, one content model, one query model per
//! scale, all derived from the fixed `SEED`. A [`Ctx`] memoises what
//! several artifacts build alike, so one run builds it once. The
//! criterion benches use the same [`Fixture`].

use dwr_avail::site::SiteConfig;
use dwr_avail::{Timeline, UpDownProcess};
use dwr_crawler::sim::CrawlConfig;
use dwr_obs::Recorder;
use dwr_partition::doc::{DocPartitioner, RandomPartitioner, TrainingResults};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_query::cache::ResultCache;
use dwr_query::engine::DistributedEngine;
use dwr_query::faults::site_outage_traces;
use dwr_query::multisite::{MultiSiteConfig, MultiSiteEngine, SiteEngineSpec};
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_sim::net::Topology;
use dwr_sim::{SimRng, DAY, HOUR, SECOND};
use dwr_text::index::InvertedIndex;
use dwr_text::score::Bm25;
use dwr_text::search::search_or;
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::qos::QosConfig;
use dwr_webgraph::SyntheticWeb;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;

mod artifacts;

pub use artifacts::ARTIFACTS;

/// The master seed of all regeneration runs.
pub const SEED: u64 = 20070415;

/// A fixture scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Fast: used in benches and smoke runs.
    Small,
    /// The figure-regeneration default.
    Medium,
}

/// A complete experiment fixture.
pub struct Fixture {
    /// The synthetic Web.
    pub web: SyntheticWeb,
    /// Its content model.
    pub content: ContentModel,
    /// The derived corpus in `dwr-text` term space.
    pub corpus: Corpus,
    /// The query universe.
    pub queries: QueryModel,
}

impl Fixture {
    /// Build the fixture at a scale.
    pub fn new(scale: Scale) -> Self {
        let web_cfg = match scale {
            Scale::Small => {
                let mut c = WebConfig::tiny();
                c.num_pages = 2_000;
                c.num_hosts = 100;
                c
            }
            Scale::Medium => WebConfig::medium(),
        };
        let web = generate_web(&web_cfg, SEED);
        let content = ContentModel::small(web_cfg.num_topics);
        let corpus = content.corpus(&web, SEED);
        let universe = match scale {
            Scale::Small => 1_000,
            Scale::Medium => 5_000,
        };
        let queries = QueryModel::generate(&content, universe, 0.8, 0.9, SEED ^ 0xF00D);
        Fixture { web, content, corpus, queries }
    }

    /// The term vector of query `q`.
    pub(crate) fn terms(&self, q: QueryId) -> Vec<TermId> {
        self.queries.query(q).terms.clone()
    }

    /// Term vectors of the first `n` distinct queries (by popularity).
    pub fn query_terms(&self, n: usize) -> Vec<Vec<TermId>> {
        (0..n.min(self.queries.universe())).map(|i| self.terms(QueryId(i as u32))).collect()
    }

    /// `n` popularity-drawn queries from the Zipf stream seeded
    /// `SEED ^ salt`; each artifact salts its own stream.
    pub(crate) fn zipf_terms(&self, salt: u64, n: usize) -> Vec<Vec<TermId>> {
        let mut rng = SimRng::new(SEED ^ salt);
        (0..n).map(|_| self.terms(self.queries.sample(&mut rng))).collect()
    }
}

/// What one `regen` run shares across its artifacts.
pub struct Ctx {
    /// `--smoke`: artifacts with a CI scale shrink their workloads.
    pub(crate) smoke: bool,
    fixtures: [OnceCell<Fixture>; 2],
    random_indexes: RefCell<HashMap<(Scale, usize), PartitionedIndex>>,
}

impl Ctx {
    /// A context with nothing built yet.
    pub fn new(smoke: bool) -> Self {
        Ctx { smoke, fixtures: Default::default(), random_indexes: RefCell::default() }
    }

    /// The fixture at `scale`, built on first use.
    pub(crate) fn fixture(&self, scale: Scale) -> &Fixture {
        self.fixtures[scale as usize].get_or_init(|| Fixture::new(scale))
    }

    /// `scale`'s corpus split into `k` partitions by
    /// `RandomPartitioner { seed: SEED }`, built on first use (a clone
    /// shares the shards).
    pub(crate) fn random_index(&self, scale: Scale, k: usize) -> PartitionedIndex {
        let mut built = self.random_indexes.borrow_mut();
        let pi = built.entry((scale, k)).or_insert_with(|| {
            let corpus = &self.fixture(scale).corpus;
            let assignment = RandomPartitioner { seed: SEED }.assign(corpus, k);
            PartitionedIndex::build(corpus, &assignment, k)
        });
        pi.clone()
    }
}

/// The training log of query-driven partitioning and routing: each
/// weighted distinct query replayed on `reference`, carrying the top-`k`
/// documents it recalls.
pub(crate) fn replay_training(
    reference: &InvertedIndex,
    model: &QueryModel,
    weighted: impl Iterator<Item = (QueryId, f64)>,
    k: usize,
) -> TrainingResults {
    let queries = weighted
        .map(|(q, w)| {
            let terms = model.query(q).terms.clone();
            let docs: Vec<u32> = search_or(reference, &terms, k, &Bm25::default(), reference)
                .into_iter()
                .map(|h| h.doc.0)
                .collect();
            (terms, w, docs)
        })
        .collect();
    TrainingResults { queries }
}

/// Whole-site outage traces of `sites` sites over 90 days: BIRN-shaped
/// (network-partition dominated) but accelerated, MTBF 3 d / MTTR 8 h,
/// so a site is down ~10% of the time instead of the calibrated ~1%.
/// The traces of `n` sites are a prefix of those of `n + 1`.
pub(crate) fn accelerated_site_traces(sites: usize) -> Vec<Timeline> {
    let cfg = SiteConfig {
        servers: 2,
        network: UpDownProcess::exponential(3 * DAY, 8 * HOUR),
        server: UpDownProcess::exponential(10 * DAY, 12 * HOUR),
    };
    site_outage_traces(sites, &cfg, 90 * DAY, SEED ^ 0x517E)
}

/// A tier of one site per outage trace on a WAN ring: site `s` serves
/// region `s` at `capacity_qps` on its own stack from `engine`.
pub(crate) fn site_tier<C: ResultCache, R: Recorder + Clone>(
    traces: Vec<Timeline>,
    capacity_qps: f64,
    cfg: MultiSiteConfig,
    mut engine: impl FnMut() -> DistributedEngine<C, R>,
) -> MultiSiteEngine<C, R> {
    let n = traces.len();
    let sites = traces
        .into_iter()
        .enumerate()
        .map(|(s, outages)| SiteEngineSpec {
            region: s as u16,
            capacity_qps,
            engine: engine(),
            outages,
        })
        .collect();
    MultiSiteEngine::new(sites, Topology::geo_ring(n), cfg)
}

/// A crawl of `agents` agents with `connections` connections each, half
/// a second of politeness, and servers that are never slow or flaky.
pub(crate) fn clean_crawl(agents: u32, connections: usize) -> CrawlConfig {
    CrawlConfig {
        agents,
        connections_per_agent: connections,
        politeness_delay: SECOND / 2,
        qos: QosConfig { flaky_fraction: 0.0, slow_fraction: 0.0, ..QosConfig::default() },
        ..CrawlConfig::default()
    }
}

/// Format a bar of width proportional to `value / max` (for terminal
/// "figures").
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled.min(width) { '#' } else { ' ' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_small() {
        let f = Fixture::new(Scale::Small);
        assert_eq!(f.corpus.len(), f.web.num_pages());
        assert!(f.queries.universe() > 0);
        assert_eq!(f.query_terms(5).len(), 5);
    }

    #[test]
    fn ctx_builds_each_fixture_and_index_once() {
        let ctx = Ctx::new(true);
        assert!(std::ptr::eq(ctx.fixture(Scale::Small), ctx.fixture(Scale::Small)));
        let a = ctx.random_index(Scale::Small, 4);
        let b = ctx.random_index(Scale::Small, 4);
        assert!(std::ptr::eq(a.part(0), b.part(0)), "the memoised shards are shared");
        assert_eq!(ctx.random_index(Scale::Small, 2).num_partitions(), 2);
    }

    #[test]
    fn registry_lists_every_experiments_heading_in_order() {
        let headings: Vec<&str> = include_str!("../../../EXPERIMENTS.md")
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once(" — ").map(|(id, _)| id))
            .collect();
        let ids: Vec<&str> = ARTIFACTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, headings);
    }

    #[test]
    fn bar_renders() {
        assert_eq!(bar(5.0, 10.0, 10), "#####     ");
        assert_eq!(bar(0.0, 10.0, 4), "    ");
        assert_eq!(bar(10.0, 10.0, 4), "####");
    }
}
