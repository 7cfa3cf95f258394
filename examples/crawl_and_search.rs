//! Drive the distributed crawler directly, then index what it fetched and
//! search it — the Section 3 workflow with every knob exposed.
//!
//! Shows: consistent-hash host assignment, most-cited URL seeding,
//! politeness, transient-failure retries, an agent crash (its hosts move
//! to the survivors; it never comes back), and finally indexing +
//! querying the pages the crawl fetched (the crawl-to-index `Pipeline`:
//! doc `i` is the `i`-th fetched page).
//!
//! ```sh
//! cargo run --example crawl_and_search --release
//! ```

use distributed_web_retrieval::crawler::assign::AgentId;
use distributed_web_retrieval::crawler::faults::AgentSchedule;
use distributed_web_retrieval::crawler::sim::CrawlConfig;
use distributed_web_retrieval::obs::NoopRecorder;
use distributed_web_retrieval::querylog::model::QueryId;
use distributed_web_retrieval::sim::SECOND;
use distributed_web_retrieval::soak::Pipeline;
use distributed_web_retrieval::text::index::build_index;
use distributed_web_retrieval::text::score::Bm25;
use distributed_web_retrieval::text::search::search_or;
use distributed_web_retrieval::webgraph::generate::WebConfig;
use distributed_web_retrieval::webgraph::qos::QosConfig;

fn main() {
    let seed = 2007;
    let mut web_cfg = WebConfig::tiny();
    web_cfg.num_pages = 4_000;
    web_cfg.num_hosts = 150;
    // An 8-agent crawl with everything turned on: flaky servers, retries,
    // most-cited seeding, and an agent crash halfway through. The
    // pipeline traces it and keeps the pages it fetched.
    let cfg = CrawlConfig {
        agents: 8,
        connections_per_agent: 16,
        politeness_delay: SECOND,
        most_cited_seed: 100,
        qos: QosConfig { flaky_fraction: 0.1, flaky_failure_prob: 0.3, ..QosConfig::default() },
        faults: Some(AgentSchedule::single_crash(8, AgentId(5), 30 * 60 * SECOND)),
        ..CrawlConfig::default()
    };
    let p = Pipeline::build(&web_cfg, seed, 100, NoopRecorder, |_| cfg);
    let (web, report) = (&p.web, &p.crawl);
    println!(
        "web: {} pages on {} hosts, {} links, locality {:.2}",
        web.num_pages(),
        web.num_hosts(),
        web.num_links(),
        web.link_locality()
    );
    println!(
        "\ncrawl: {:.1}% coverage in {:.1} simulated hours",
        100.0 * report.coverage,
        report.makespan as f64 / 3.6e9
    );
    println!(
        "  {} attempts, {} transient failures, {} abandoned, {} pages fetched twice",
        report.attempts, report.transient_failures, report.abandoned, report.duplicate_fetches
    );
    println!(
        "  exchanges: {} URLs in {} messages ({} suppressed as most-cited)",
        report.exchange.sent_urls, report.exchange.messages, report.exchange.suppressed
    );
    println!("  per-agent fetches: {:?} (agent 5 crashed)", report.per_agent_fetches);
    println!("  dns cache hit ratio: {:.1}%", 100.0 * report.dns.hit_ratio());

    // Index the fetched corpus and ask the most popular query.
    let index = build_index(&p.corpus);
    println!(
        "\nindex: {} docs (the fetched pages), {} distinct terms, {:.1} KB of postings",
        index.num_docs(),
        index.num_terms(),
        index.encoded_bytes() as f64 / 1024.0
    );

    let q = p.query_model.query(QueryId(0));
    let hits = search_or(&index, &q.terms, 5, &Bm25::default(), &index);
    println!("\ntop-5 for the most popular query (topic {:?}, {} terms):", q.topic, q.terms.len());
    for (rank, h) in hits.iter().enumerate() {
        let page = p.docs[h.doc.0 as usize].0;
        println!(
            "  {}. doc {:>5}  page {:>5}  score {:.3}  (host {:?}, topic {:?})",
            rank + 1,
            h.doc.0,
            page.0,
            h.score,
            web.page(page).host,
            web.page(page).topic
        );
    }
}
