//! The end-to-end laboratory: web → crawl → partition → index → query.
//!
//! [`SearchEngineLab`] builds a [`Pipeline`] (the same crawl-to-index
//! chain the soak runs), indexes its fetched corpus into a
//! document-partitioned index, and serves a query stream through a
//! cached, replicated engine. It is the top-level public API (the
//! quickstart example uses nothing else) and the repo's multi-client
//! driver.

use crate::pipeline::Pipeline;
use dwr_crawler::sim::{CrawlConfig, CrawlReport};
use dwr_obs::NoopRecorder;
use dwr_partition::parted::PartitionedIndex;
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, EngineStats, Served};
use dwr_querylog::arrival::DiurnalProfile;
use dwr_querylog::log::QueryLog;
use dwr_sim::{SimTime, HOUR};
use dwr_text::TermId;
use dwr_webgraph::generate::WebConfig;

/// Configuration of a full laboratory run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Synthetic web parameters.
    pub web: WebConfig,
    /// Crawl parameters.
    pub crawl: CrawlConfig,
    /// Number of index partitions / query processors.
    pub partitions: usize,
    /// Replicas per partition.
    pub replicas: usize,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Distinct queries in the universe.
    pub query_universe: usize,
    /// Length of the simulated query stream.
    pub stream_horizon: SimTime,
    /// Mean arrival rate of queries, per second.
    pub query_qps: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            web: WebConfig::tiny(),
            crawl: CrawlConfig::default(),
            partitions: 4,
            replicas: 2,
            cache_capacity: 256,
            query_universe: 1_000,
            stream_horizon: HOUR,
            query_qps: 1.0,
            seed: 42,
        }
    }
}

/// How a query stream is driven through the engine.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Worker threads for per-query parallel scatter-gather inside the
    /// broker (`None` = evaluate partitions sequentially). Either way
    /// the results and simulated latencies are identical.
    pub scatter_threads: Option<usize>,
    /// Client threads driving the shared engine concurrently. With one
    /// client the stream is replayed in log order (deterministic cache
    /// behaviour); with more, clients split the log and race.
    pub clients: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { scatter_threads: None, clients: 1 }
    }
}

/// Report of an end-to-end run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Documents indexed: the pages the crawl fetched.
    pub indexed_docs: usize,
    /// Query-serving counters.
    pub serving: EngineStats,
    /// Result-cache hit ratio over the stream.
    pub cache_hit_ratio: f64,
    /// Queries in the stream.
    pub queries_served: u64,
    /// Queries that reached the backend (cache misses that evaluated).
    pub backend_queries: u64,
    /// Mean simulated backend latency (µs) over `backend_queries`.
    pub backend_latency_mean_us: f64,
}

/// The assembled laboratory.
pub struct SearchEngineLab {
    pipeline: Pipeline,
    index: PartitionedIndex,
    cfg: EngineConfig,
}

impl SearchEngineLab {
    /// Build the laboratory: generate the web, crawl it, and index the
    /// fetched pages into a document-partitioned index. Doc ids follow
    /// the pipeline's rule: `pipeline().docs[doc]` is the doc's page.
    pub fn build(cfg: EngineConfig) -> Self {
        let pipeline =
            Pipeline::build(&cfg.web, cfg.seed, cfg.query_universe, NoopRecorder, |_| {
                cfg.crawl.clone()
            });
        let index = pipeline.index(cfg.partitions);
        SearchEngineLab { pipeline, index, cfg }
    }

    /// What the build crawled and indexed: web, crawl, docs, corpus and
    /// query model.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The crawl report of the build phase.
    pub fn crawl_report(&self) -> &CrawlReport {
        &self.pipeline.crawl
    }

    /// The partitioned index.
    pub fn index(&self) -> &PartitionedIndex {
        &self.index
    }

    /// Answer a single ad-hoc query (no cache), top-k global hits.
    pub fn search(&self, terms: &[TermId], k: usize) -> Vec<GlobalHit> {
        DocBroker::single_site(&self.index).query(terms, k).hits
    }

    /// Serve a realistic query stream through the full engine (cache +
    /// replicated partitions) and report. Sequential drive, sequential
    /// scatter — the deterministic baseline.
    pub fn serve_stream(&self) -> EngineReport {
        self.serve_stream_with(StreamOptions::default())
    }

    /// Serve the query stream with explicit concurrency options: a
    /// worker pool for per-query scatter-gather, and/or multiple client
    /// threads sharing one engine. The engine is `Send + Sync`, so the
    /// clients drive it through a plain shared reference.
    pub fn serve_stream_with(&self, opts: StreamOptions) -> EngineReport {
        assert!(opts.clients >= 1, "at least one client");
        let model = &self.pipeline.query_model;
        let profiles =
            vec![DiurnalProfile { mean_qps: self.cfg.query_qps, amplitude: 0.6, phase: 0.0 }];
        let log = QueryLog::generate(
            model,
            &profiles,
            self.cfg.stream_horizon,
            None,
            self.cfg.seed ^ 0xBEEF,
        );
        // Resolve each record's terms up front: shared read-only input for
        // the client threads.
        let stream: Vec<&[TermId]> =
            log.records().iter().map(|rec| model.query(rec.query).terms.as_slice()).collect();
        let cache = LruCache::new(self.cfg.cache_capacity);
        let mut engine = DistributedEngine::new(&self.index, cache, self.cfg.replicas);
        if let Some(threads) = opts.scatter_threads {
            engine = engine.with_parallelism(threads);
        }
        let engine = &engine;

        // Each client serves one contiguous chunk of the log in order, so
        // a single client replays the whole log in log order.
        let chunk = stream.len().div_ceil(opts.clients);
        let per_client: Vec<(u64, u64, u128)> = std::thread::scope(|s| {
            let handles: Vec<_> = stream
                .chunks(chunk.max(1))
                .map(|slice| {
                    s.spawn(move || {
                        let mut served = 0u64;
                        let mut backend = 0u64;
                        let mut lat = 0u128;
                        for terms in slice {
                            let r = engine.query_full(terms, 10);
                            debug_assert!(!matches!(r.served, Served::Failed));
                            served += 1;
                            if let Some(l) = r.latency {
                                backend += 1;
                                lat += u128::from(l);
                            }
                        }
                        (served, backend, lat)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let (mut served, mut backend_queries, mut latency_sum) = (0u64, 0u64, 0u128);
        for (s, b, l) in per_client {
            served += s;
            backend_queries += b;
            latency_sum += l;
        }
        EngineReport {
            indexed_docs: self.pipeline.corpus.len(),
            serving: engine.stats(),
            cache_hit_ratio: engine.cache_stats().hit_ratio(),
            queries_served: served,
            backend_queries,
            backend_latency_mean_us: if backend_queries == 0 {
                0.0
            } else {
                latency_sum as f64 / backend_queries as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EngineConfig {
        let mut web = WebConfig::tiny();
        web.num_pages = 600;
        web.num_hosts = 30;
        EngineConfig {
            web,
            crawl: CrawlConfig {
                agents: 2,
                connections_per_agent: 8,
                politeness_delay: dwr_sim::SECOND / 2,
                ..CrawlConfig::default()
            },
            partitions: 3,
            replicas: 2,
            cache_capacity: 64,
            query_universe: 200,
            stream_horizon: HOUR / 2,
            query_qps: 0.5,
            seed: 7,
        }
    }

    #[test]
    fn end_to_end_builds_and_serves() {
        let lab = SearchEngineLab::build(small_cfg());
        assert!(lab.crawl_report().coverage > 0.4);
        let report = lab.serve_stream();
        assert!(report.queries_served > 0);
        assert_eq!(report.indexed_docs as u64, lab.crawl_report().fetched_pages);
        assert_eq!(
            report.serving.full + report.serving.cache_hits + report.serving.degraded,
            report.queries_served
        );
        // Zipf query stream must produce cache hits.
        assert!(report.cache_hit_ratio > 0.1, "hit ratio {}", report.cache_hit_ratio);
    }

    #[test]
    fn search_returns_ranked_hits() {
        let lab = SearchEngineLab::build(small_cfg());
        let q = lab.pipeline().query_model.query(dwr_querylog::model::QueryId(0));
        let hits = lab.search(&q.terms, 10);
        assert!(hits.len() <= 10);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn deterministic_build() {
        let a = SearchEngineLab::build(small_cfg());
        let b = SearchEngineLab::build(small_cfg());
        assert_eq!(a.crawl_report().fetched_pages, b.crawl_report().fetched_pages);
        assert_eq!(a.index().sizes(), b.index().sizes());
    }

    #[test]
    fn parallel_scatter_stream_matches_sequential() {
        let lab = SearchEngineLab::build(small_cfg());
        let seq = lab.serve_stream();
        let par = lab.serve_stream_with(StreamOptions { scatter_threads: Some(4), clients: 1 });
        assert_eq!(seq.queries_served, par.queries_served);
        assert_eq!(seq.serving, par.serving);
        assert_eq!(seq.backend_queries, par.backend_queries);
        assert_eq!(seq.backend_latency_mean_us, par.backend_latency_mean_us);
        assert_eq!(seq.cache_hit_ratio, par.cache_hit_ratio);
    }

    #[test]
    fn concurrent_clients_serve_the_whole_stream() {
        let lab = SearchEngineLab::build(small_cfg());
        let baseline = lab.serve_stream();
        let report = lab.serve_stream_with(StreamOptions { scatter_threads: None, clients: 4 });
        assert_eq!(report.queries_served, baseline.queries_served);
        // Every query is accounted exactly once across the shared engine.
        let s = report.serving;
        assert_eq!(s.full + s.cache_hits + s.degraded + s.stale, report.queries_served);
        assert_eq!(s.failed, 0);
        assert!(report.backend_queries > 0);
        assert!(report.backend_latency_mean_us > 0.0);
    }
}
