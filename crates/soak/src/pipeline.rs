//! The crawl-to-index pipeline: the one place a crawl becomes a corpus.
//!
//! The paper's Table 1 is one chain: crawling feeds indexing, and
//! indexing feeds querying. [`Pipeline::build`] runs the chain's first
//! half once, for the soak and for the [`SearchEngineLab`] alike:
//! generate a synthetic web, crawl it with a traced
//! [`DistributedCrawl`], and keep exactly the pages the crawl fetched.
//!
//! **The doc-id rule.** Doc `i` is the `i`-th fetched page in page-id
//! order, and `docs[i]` is `(page, fetched_at)`. The crawl fetches each
//! page at most once, churn included (its URL-seen test consults the
//! document store), so [`Pipeline::build`] asserts one `Fetched` span
//! per page rather than choosing between fetches.
//!
//! [`SearchEngineLab`]: crate::SearchEngineLab

use dwr_crawler::assign::ConsistentHashAssigner;
use dwr_crawler::sim::{CrawlConfig, CrawlReport, DistributedCrawl, SpanOutcome};
use dwr_obs::Recorder;
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_querylog::model::QueryModel;
use dwr_sim::SimTime;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::graph::PageId;
use dwr_webgraph::SyntheticWeb;

/// A crawled web and the corpus its crawl delivered.
pub struct Pipeline {
    /// The synthetic web.
    pub web: SyntheticWeb,
    /// Its content model.
    pub content: ContentModel,
    /// The crawl, with its full fetch trace.
    pub crawl: CrawlReport,
    /// `(page, fetch time)` of every fetched page, ascending by page:
    /// entry `i` is doc `i`.
    pub docs: Vec<(PageId, SimTime)>,
    /// The fetched pages' documents, in `docs` order.
    pub corpus: Corpus,
    /// The query universe over the content model.
    pub query_model: QueryModel,
    seed: u64,
}

impl Pipeline {
    /// Generate the web from `web` and `seed`, crawl it with the config
    /// `crawl` returns for it (traced, consistent-hash assignment,
    /// `recorder` attached), and keep the fetched pages as the corpus.
    /// `crawl` sees the web first, so a caller can calibrate the crawl
    /// against it.
    ///
    /// Panics if the crawl fetched a page twice.
    pub fn build<R: Recorder>(
        web: &WebConfig,
        seed: u64,
        query_universe: usize,
        recorder: R,
        crawl: impl FnOnce(&SyntheticWeb) -> CrawlConfig,
    ) -> Self {
        let num_topics = web.num_topics;
        let web = generate_web(web, seed);
        let content = ContentModel::small(num_topics);

        let cfg = CrawlConfig { record_trace: true, ..crawl(&web) };
        let assigner = ConsistentHashAssigner::new(cfg.agents, 64);
        let crawl = DistributedCrawl::new(&web, assigner, cfg, seed).with_obs(recorder).run();

        let mut fetched_at: Vec<Option<SimTime>> = vec![None; web.num_pages()];
        for span in crawl.trace.iter().filter(|s| s.outcome == SpanOutcome::Fetched) {
            let t = fetched_at[span.page.0 as usize].replace(span.end);
            assert!(t.is_none(), "the crawl fetched page {:?} twice", span.page);
        }
        let docs: Vec<(PageId, SimTime)> = fetched_at
            .into_iter()
            .enumerate()
            .filter_map(|(page, t)| Some((PageId(page as u32), t?)))
            .collect();
        let mut pages = content.corpus(&web, seed);
        let corpus =
            docs.iter().map(|&(page, _)| std::mem::take(&mut pages[page.0 as usize])).collect();

        let query_model = QueryModel::generate(&content, query_universe, 0.8, 0.9, seed ^ 0xF00D);
        Pipeline { web, content, crawl, docs, corpus, query_model, seed }
    }

    /// The corpus, partitioned at random into `partitions` shards and
    /// indexed.
    pub fn index(&self, partitions: usize) -> PartitionedIndex {
        let assignment = RandomPartitioner { seed: self.seed }.assign(&self.corpus, partitions);
        PartitionedIndex::build(&self.corpus, &assignment, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_avail::failure::UpDownProcess;
    use dwr_crawler::faults::AgentSchedule;
    use dwr_obs::NoopRecorder;
    use dwr_sim::SECOND;

    #[test]
    fn a_churned_crawl_fetches_and_indexes_each_page_exactly_once() {
        let web_cfg = WebConfig { num_pages: 300, num_hosts: 20, ..WebConfig::tiny() };
        let seed = 11;
        let p = Pipeline::build(&web_cfg, seed, 50, NoopRecorder, |_| CrawlConfig {
            agents: 3,
            connections_per_agent: 8,
            politeness_delay: SECOND / 2,
            faults: Some(AgentSchedule::generate(
                3,
                &UpDownProcess::exponential(20 * SECOND, 10 * SECOND),
                3_600 * SECOND,
                seed,
            )),
            ..CrawlConfig::default()
        });
        let f = p.crawl.faults;
        assert!(f.crashes > 0 && f.recoveries > 0 && f.hosts_moved > 0, "it must churn: {f:?}");
        assert_eq!(p.crawl.duplicate_fetches, 0, "a churned crawl fetches each page once");

        let mut fetched: Vec<(PageId, SimTime)> = p
            .crawl
            .trace
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Fetched)
            .map(|s| (s.page, s.end))
            .collect();
        fetched.sort_unstable();
        assert_eq!(p.docs, fetched, "doc i is the i-th fetched page, at its one fetch");
        assert!(p.docs.windows(2).all(|w| w[0].0 < w[1].0), "no page is fetched twice");

        let full = p.content.corpus(&p.web, seed);
        assert_eq!(p.corpus.len(), p.docs.len());
        for (doc, &(page, _)) in p.corpus.iter().zip(&p.docs) {
            assert_eq!(doc, &full[page.0 as usize], "page {page:?}");
        }
    }
}
