//! Cross-crate integration: the full web → crawl → partition → index →
//! query life cycle, exercised through the public API of the root package.

use distributed_web_retrieval::crawler::assign::ConsistentHashAssigner;
use distributed_web_retrieval::crawler::sim::{CrawlConfig, DistributedCrawl, SpanOutcome};
use distributed_web_retrieval::querylog::model::QueryId;
use distributed_web_retrieval::sim::{HOUR, SECOND};
use distributed_web_retrieval::soak::{EngineConfig, SearchEngineLab};
use distributed_web_retrieval::text::index::build_index;
use distributed_web_retrieval::text::score::Bm25;
use distributed_web_retrieval::text::search::search_or;
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::generate::WebConfig;
use std::collections::HashSet;

fn lab_cfg(seed: u64) -> EngineConfig {
    let mut web = WebConfig::tiny();
    web.num_pages = 800;
    web.num_hosts = 40;
    EngineConfig {
        web,
        crawl: CrawlConfig {
            agents: 3,
            connections_per_agent: 8,
            politeness_delay: SECOND / 2,
            ..CrawlConfig::default()
        },
        partitions: 4,
        replicas: 2,
        cache_capacity: 128,
        query_universe: 300,
        stream_horizon: HOUR / 4,
        query_qps: 1.0,
        seed,
    }
}

#[test]
fn full_lifecycle_is_deterministic_and_consistent() {
    let lab1 = SearchEngineLab::build(lab_cfg(11));
    let lab2 = SearchEngineLab::build(lab_cfg(11));

    // Determinism across identical builds.
    assert_eq!(lab1.crawl_report().fetched_pages, lab2.crawl_report().fetched_pages);
    assert_eq!(lab1.index().sizes(), lab2.index().sizes());

    // Consistency: one indexed doc per crawled page.
    let report = lab1.serve_stream();
    assert_eq!(report.indexed_docs as u64, lab1.crawl_report().fetched_pages);
    assert_eq!(
        report.serving.cache_hits + report.serving.full + report.serving.degraded,
        report.queries_served
    );
}

#[test]
fn different_seeds_build_different_engines() {
    let a = SearchEngineLab::build(lab_cfg(1));
    let b = SearchEngineLab::build(lab_cfg(2));
    assert_ne!(a.crawl_report().makespan, b.crawl_report().makespan);
}

#[test]
fn search_results_live_in_the_corpus() {
    let lab = SearchEngineLab::build(lab_cfg(3));
    let q = lab.pipeline().query_model.query(QueryId(0));
    for hit in lab.search(&q.terms, 10) {
        let doc = &lab.pipeline().corpus[hit.doc as usize];
        // Every hit contains at least one query term.
        assert!(
            q.terms.iter().any(|t| doc.iter().any(|&(dt, _)| dt == *t)),
            "doc {} matches no query term",
            hit.doc
        );
    }
}

#[test]
fn query_model_terms_reach_the_index_unconverted() {
    // The content model, the query log and the index share one term id.
    let id: TermId = distributed_web_retrieval::webgraph::TermId(7);
    assert_eq!(id, TermId(7));

    let lab = SearchEngineLab::build(lab_cfg(6));
    let p = lab.pipeline();
    let index = build_index(&p.corpus);
    let mut answered = 0;
    for q in 0..20 {
        let terms: &[TermId] = &p.query_model.query(QueryId(q)).terms;
        let matches: HashSet<u32> =
            search_or(&index, terms, p.corpus.len(), &Bm25::default(), &index)
                .iter()
                .map(|h| h.doc.0)
                .collect();
        let hits = lab.search(terms, 10);
        assert_eq!(hits.len(), matches.len().min(10), "query {q}");
        assert!(hits.iter().all(|h| matches.contains(&h.doc)), "query {q}");
        answered += usize::from(!hits.is_empty());
    }
    assert!(answered > 0, "no query matched a document");
}

#[test]
fn repeated_queries_hit_the_cache() {
    let lab = SearchEngineLab::build(lab_cfg(4));
    let report = lab.serve_stream();
    assert!(report.cache_hit_ratio > 0.05, "hit ratio {}", report.cache_hit_ratio);
}

#[test]
fn the_index_holds_exactly_the_crawled_pages() {
    // Restrictive robots.txt keeps a share of the web out of the crawl.
    let mut cfg = lab_cfg(5);
    cfg.crawl.robots_restrictive_fraction = 0.5;
    cfg.crawl.robots_disallow_fraction = 0.5;
    let lab = SearchEngineLab::build(cfg.clone());
    let report = lab.crawl_report();
    assert!(report.robots_skipped > 0 && report.coverage < 0.9, "coverage {}", report.coverage);

    // The same crawl again, traced: the pages it actually downloaded.
    let traced = CrawlConfig { record_trace: true, ..cfg.crawl.clone() };
    let assigner = ConsistentHashAssigner::new(cfg.crawl.agents, 64);
    let crawl = DistributedCrawl::new(&lab.pipeline().web, assigner, traced, cfg.seed).run();
    assert_eq!(crawl.fetched_pages, report.fetched_pages);
    let fetched: HashSet<u32> = crawl
        .trace
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Fetched)
        .map(|s| s.page.0)
        .collect();
    assert_eq!(fetched.len() as u64, report.fetched_pages);

    // Doc d is page docs[d].0, holding that page's terms: the index
    // holds exactly the fetched pages.
    let p = lab.pipeline();
    assert_eq!(p.corpus.len(), p.docs.len());
    assert_eq!(lab.index().num_docs(), p.docs.len());
    let indexed: HashSet<u32> = p.docs.iter().map(|&(page, _)| page.0).collect();
    assert_eq!(indexed.len(), p.docs.len(), "a page is indexed twice");
    assert_eq!(indexed, fetched);
    let pages = p.content.corpus(&p.web, cfg.seed);
    for (doc, &(page, _)) in p.docs.iter().enumerate() {
        assert_eq!(p.corpus[doc], pages[page.0 as usize], "doc {doc} is not page {page:?}");
    }
}
