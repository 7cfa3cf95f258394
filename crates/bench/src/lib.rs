//! Shared fixtures for the figure/table regeneration binaries and the
//! criterion benches.
//!
//! Every regeneration binary (`table1`, `fig2`, `fig5`, `fig6`, `exp_*`)
//! builds its workload from these helpers so the experiments stay
//! mutually consistent: one web, one content model, one query model per
//! scale, all derived from the fixed `SEED`.

use dwr_partition::parted::{corpus_from_web, Corpus};
use dwr_querylog::model::QueryModel;
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::SyntheticWeb;

/// The master seed of all regeneration runs.
pub const SEED: u64 = 20070415;

/// A fixture scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        let corpus = corpus_from_web(&web, &content, SEED);
        let universe = match scale {
            Scale::Small => 1_000,
            Scale::Medium => 5_000,
        };
        let queries = QueryModel::generate(&content, universe, 0.8, 0.9, SEED ^ 0xF00D);
        Fixture { web, content, corpus, queries }
    }

    /// Term vectors of the first `n` distinct queries (by popularity).
    pub fn query_terms(&self, n: usize) -> Vec<Vec<TermId>> {
        (0..n.min(self.queries.universe()))
            .map(|i| {
                self.queries
                    .query(dwr_querylog::model::QueryId(i as u32))
                    .terms
                    .iter()
                    .map(|t| TermId(t.0))
                    .collect()
            })
            .collect()
    }
}

/// True when `--smoke` was passed: regeneration binaries then shrink
/// their workloads to CI scale.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--smoke")
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
    fn bar_renders() {
        assert_eq!(bar(5.0, 10.0, 10), "#####     ");
        assert_eq!(bar(0.0, 10.0, 4), "    ");
        assert_eq!(bar(10.0, 10.0, 4), "####");
    }
}
