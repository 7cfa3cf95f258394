//! Frontier prioritization: fetch high-quality pages first (E22).
//!
//! Section 2: a crawler should "prioritize high-quality objects"; Section 6
//! lists "how to efficiently prioritize the crawling frontier under a
//! dynamic scenario" as an open problem. The classic online signal is the
//! number of *discovered* in-links (an online approximation of in-degree /
//! PageRank mass): pages cited by many already-crawled pages are fetched
//! before freshly-discovered tail pages. [`QueueOrder::Citations`] orders
//! every host's queue by it.
//!
//! [`evaluate_crawl_ordering`] measures what that buys on the crawler the
//! system runs: two [`DistributedCrawl`]s of one web, under politeness,
//! that differ only in [`CrawlConfig::order`].

use crate::assign::HashAssigner;
use crate::frontier::QueueOrder;
use crate::sim::{CrawlConfig, CrawlReport, DistributedCrawl, SpanOutcome};
use dwr_sim::SECOND;
use dwr_webgraph::graph::PageId;
use dwr_webgraph::qos::QosConfig;
use dwr_webgraph::SyntheticWeb;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// Agents of the ordering crawl.
const AGENTS: u32 = 4;

/// One traced crawl of `web` from `seeds` start hosts, in `order`: 4
/// agents × 16 connections, half a second of politeness, servers that are
/// never slow or flaky.
pub fn ordering_crawl(web: &SyntheticWeb, order: QueueOrder, seeds: usize) -> CrawlReport {
    let cfg = CrawlConfig {
        agents: AGENTS,
        connections_per_agent: 16,
        politeness_delay: SECOND / 2,
        order,
        qos: QosConfig { flaky_fraction: 0.0, slow_fraction: 0.0, ..QosConfig::default() },
        record_trace: true,
        seeds,
        ..CrawlConfig::default()
    };
    DistributedCrawl::new(web, HashAssigner::new(AGENTS), cfg, 0).run()
}

/// Pages in the order their first successful fetch started (spans are
/// traced at fetch start).
fn fetch_order(r: &CrawlReport) -> Vec<PageId> {
    let mut fetched = HashSet::new();
    r.trace
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Fetched && fetched.insert(s.page))
        .map(|s| s.page)
        .collect()
}

/// Crawl-ordering quality: crawl `web` in FIFO and in citation order
/// ([`ordering_crawl`]) and report the mean *true* in-degree of the first
/// `prefix_fraction` of fetched pages, and how early the hot pages come.
///
/// Panics if the two crawls fetch different page sets: an ordering is
/// only comparable over the same pages.
pub fn evaluate_crawl_ordering(
    web: &SyntheticWeb,
    seeds: usize,
    prefix_fraction: f64,
) -> OrderingReport {
    assert!((0.0..=1.0).contains(&prefix_fraction));
    let deg = web.in_degrees();
    let fifo = fetch_order(&ordering_crawl(web, QueueOrder::Fifo, seeds));
    let prio = fetch_order(&ordering_crawl(web, QueueOrder::Citations, seeds));
    let sorted = |order: &[PageId]| {
        let mut v = order.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(&fifo), sorted(&prio), "both orders must fetch the same pages");
    let mean_prefix = |order: &[PageId]| -> f64 {
        let k = ((order.len() as f64 * prefix_fraction) as usize).max(1);
        order.iter().take(k).map(|p| f64::from(deg[p.0 as usize])).sum::<f64>() / k as f64
    };
    // The Cho/Garcia-Molina/Page metric: how early are the *hot* pages
    // (true top-100 by in-degree) fetched? Mean normalized fetch position,
    // 0 = first fetch, 1 = last (or never fetched).
    let hot: Vec<u32> = {
        let mut ids: Vec<u32> = (0..web.num_pages() as u32).collect();
        ids.sort_by_key(|&i| (Reverse(deg[i as usize]), i));
        ids.truncate(100);
        ids
    };
    let mean_hot_position = |order: &[PageId]| -> f64 {
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, p)| (p.0, i)).collect();
        let n = order.len().max(1) as f64;
        hot.iter().map(|id| pos.get(id).map_or(1.0, |&i| i as f64 / n)).sum::<f64>()
            / hot.len() as f64
    };
    OrderingReport {
        fetched: fifo.len(),
        fifo_prefix_indegree: mean_prefix(&fifo),
        prioritized_prefix_indegree: mean_prefix(&prio),
        fifo_hot_position: mean_hot_position(&fifo),
        prioritized_hot_position: mean_hot_position(&prio),
    }
}

/// Result of [`evaluate_crawl_ordering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingReport {
    /// Pages fetched by both runs (identical coverage).
    pub fetched: usize,
    /// Mean true in-degree of the FIFO run's prefix.
    pub fifo_prefix_indegree: f64,
    /// Mean true in-degree of the prioritized run's prefix.
    pub prioritized_prefix_indegree: f64,
    /// Mean normalized fetch position of the true top-100 pages, FIFO.
    pub fifo_hot_position: f64,
    /// Same under prioritization (smaller = hot pages fetched earlier).
    pub prioritized_hot_position: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_webgraph::generate::{generate_web, WebConfig};

    #[test]
    fn prioritization_front_loads_high_indegree_pages() {
        let web = generate_web(&WebConfig::tiny(), 99);
        let r = evaluate_crawl_ordering(&web, 8, 0.2);
        assert!(r.fetched > 500);
        // Prefix quality improves (weak metric)...
        assert!(
            r.prioritized_prefix_indegree > r.fifo_prefix_indegree,
            "prio={} fifo={}",
            r.prioritized_prefix_indegree,
            r.fifo_prefix_indegree
        );
        // ...and the hot pages arrive distinctly earlier (the Cho et al.
        // metric, where backlink ordering shows its value).
        assert!(
            r.prioritized_hot_position < 0.8 * r.fifo_hot_position,
            "prio={} fifo={}",
            r.prioritized_hot_position,
            r.fifo_hot_position
        );
    }

    #[test]
    fn both_orderings_cover_the_same_set() {
        let web = generate_web(&WebConfig::tiny(), 101);
        let r = evaluate_crawl_ordering(&web, 4, 1.0);
        // prefix = 100%: identical coverage means identical mean degree.
        assert!((r.fifo_prefix_indegree - r.prioritized_prefix_indegree).abs() < 1e-9);
    }
}
