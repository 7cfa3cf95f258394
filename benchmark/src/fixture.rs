//! Inputs: everything a workload feeds to `ocean` is generated here from
//! the `--seed` argument, and summarized in a `fixture_digest` so two
//! runs can prove they measured the same inputs.

use dwr_partition::parted::{corpus_from_web, Corpus};
use dwr_query::engine::query_key;
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use std::collections::HashSet;

/// Result depth of every query. One depth everywhere: the result cache
/// does not key on `k`, so mixing depths would entangle a correctness
/// fix with the throughput metrics.
pub const K: usize = 10;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 20_070_415;

/// FNV-1a over 64-bit words (the digest `dwr-soak` uses for hit lists).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Op counts and corpus sizes of every workload.
///
/// The full sizes are the issue's sizes shrunk to fit the run-time cap
/// of the benchmark contract (114 runs, each with three set-ups, inside
/// 57 minutes): the text workloads by 0.4; the soak to an eighth, run on
/// four seeds per repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Pages of the web behind `cold_scan`, `zipf_cached`, `index_build`.
    pub serve_pages: usize,
    /// Hosts of that web.
    pub serve_hosts: usize,
    /// Query universe over it.
    pub serve_universe: usize,
    /// Distinct queries per `cold_scan` repetition.
    pub cold_queries: usize,
    /// Zipf draws per `zipf_cached` repetition.
    pub zipf_queries: usize,
    /// LRU capacity of both.
    pub serve_cache: usize,
    /// Pages of the `fanout_batch` web.
    pub fanout_pages: usize,
    /// Hosts of that web.
    pub fanout_hosts: usize,
    /// Distinct queries scanned twice per `fanout_batch` repetition.
    pub fanout_universe: usize,
    /// LRU capacity (below the universe, so the cyclic scan never hits).
    pub fanout_cache: usize,
    /// Probe queries checked after every `index_build` split.
    pub build_probes: usize,
    /// Storms per `soak_storm` repetition, on seeds derived from `--seed`.
    pub soak_storms: usize,
    /// Pages of each storm's web.
    pub soak_pages: usize,
    /// Hosts of that web.
    pub soak_hosts: usize,
    /// Mean queries per simulated second and site.
    pub soak_qps: f64,
    /// Query universe of the soak.
    pub soak_universe: usize,
    /// LRU capacity per site.
    pub soak_cache: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Sizes {
            serve_pages: 40_000,
            serve_hosts: 1_000,
            serve_universe: 20_000,
            cold_queries: 10_000,
            zipf_queries: 30_000,
            serve_cache: 2_000,
            fanout_pages: 20_000,
            fanout_hosts: 500,
            fanout_universe: 8_000,
            fanout_cache: 1_000,
            build_probes: 64,
            soak_storms: 4,
            soak_pages: 5_000,
            soak_hosts: 333,
            soak_qps: 0.125,
            soak_universe: 2_500,
            soak_cache: 128,
        }
    }

    /// `--smoke`: every size at 1/20, same code paths and gates.
    pub fn smoke() -> Self {
        let f = Self::full();
        Sizes {
            serve_pages: f.serve_pages / 20,
            serve_hosts: f.serve_hosts / 20,
            serve_universe: f.serve_universe / 20,
            cold_queries: f.cold_queries / 20,
            zipf_queries: f.zipf_queries / 20,
            serve_cache: f.serve_cache / 20,
            fanout_pages: f.fanout_pages / 20,
            fanout_hosts: f.fanout_hosts / 20,
            fanout_universe: f.fanout_universe / 20,
            fanout_cache: f.fanout_cache / 20,
            build_probes: f.build_probes,
            soak_storms: f.soak_storms,
            soak_pages: f.soak_pages / 20,
            soak_hosts: f.soak_hosts / 20,
            soak_qps: f.soak_qps / 20.0,
            soak_universe: f.soak_universe / 20,
            soak_cache: f.soak_cache / 20,
        }
    }
}

/// A generated corpus and the query universe over it.
pub struct TextFixture {
    /// Per-document `(term, tf)` vectors, indexed by global doc id.
    pub corpus: Corpus,
    /// Terms of every query of the universe, by query id (= popularity
    /// rank).
    pub queries: Vec<Vec<TermId>>,
    /// The universe's popularity model, for Zipf draws.
    pub model: QueryModel,
}

/// Generate the web, its corpus and a query universe from `seed`.
pub fn text_fixture(seed: u64, pages: usize, hosts: usize, universe: usize) -> TextFixture {
    let cfg = WebConfig { num_pages: pages, num_hosts: hosts, ..WebConfig::default() };
    let web = generate_web(&cfg, seed);
    let content = ContentModel::small(cfg.num_topics);
    let corpus = corpus_from_web(&web, &content, seed);
    let model = QueryModel::generate(&content, universe, 0.8, 0.9, seed ^ 0xF00D);
    let queries = (0..universe as u32)
        .map(|q| model.query(QueryId(q)).terms.iter().map(|t| TermId(t.0)).collect())
        .collect();
    TextFixture { corpus, queries, model }
}

/// The first `n` query ids whose term sets are pairwise distinct under
/// the engine's cache key: asked once each, none can hit the cache.
pub fn distinct_ids(queries: &[Vec<TermId>], n: usize) -> Vec<u32> {
    let mut seen = HashSet::new();
    (0..queries.len() as u32)
        .filter(|&q| seen.insert(query_key(&queries[q as usize])))
        .take(n)
        .collect()
}

/// What a workload was fed, for `fixture_digest` and the byte metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixtureInfo {
    /// Documents in the corpus.
    pub documents: u64,
    /// Postings in the corpus (exact).
    pub postings: u64,
    /// Encoded bytes of all posting lists of the workload's index.
    pub index_bytes: u64,
    /// FNV over documents, postings, every `(term, tf)` and the query
    /// stream.
    pub digest: u64,
}

/// Digest a corpus and the stream of queries asked against it.
pub fn fixture_info<'a>(
    corpus: &Corpus,
    stream: impl Iterator<Item = &'a [TermId]>,
    index_bytes: u64,
) -> FixtureInfo {
    let postings: u64 = corpus.iter().map(|d| d.len() as u64).sum();
    let mut h = Fnv::default();
    h.word(corpus.len() as u64);
    h.word(postings);
    for doc in corpus {
        for &(t, tf) in doc {
            h.word(u64::from(t.0) << 32 | u64::from(tf));
        }
    }
    for terms in stream {
        h.word(terms.len() as u64);
        for t in terms {
            h.word(u64::from(t.0));
        }
    }
    FixtureInfo { documents: corpus.len() as u64, postings, index_bytes, digest: h.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_pinned() {
        // The digests are compared across runs and commits: the fold
        // itself must never drift.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        for w in [1u64, 2, 3] {
            h.word(w);
        }
        assert_eq!(h.finish(), 0xd0aa_6218_672c_f5ab);
    }

    #[test]
    fn same_seed_same_fixture_other_seed_other_fixture() {
        let digest = |seed| {
            let f = text_fixture(seed, 400, 10, 50);
            fixture_info(&f.corpus, f.queries.iter().map(Vec::as_slice), 0)
        };
        let a = digest(7);
        assert_eq!(a, digest(7));
        assert_eq!(a.documents, 400);
        assert!(a.postings > 400);
        assert_ne!(a.digest, digest(8).digest);
    }

    #[test]
    fn distinct_ids_never_repeat_a_cache_key() {
        let q = |ts: &[u32]| ts.iter().map(|&t| TermId(t)).collect::<Vec<_>>();
        // Query 2 is query 0 reordered: same key, so it is skipped.
        let queries = vec![q(&[1, 2]), q(&[3]), q(&[2, 1]), q(&[4])];
        assert_eq!(distinct_ids(&queries, 3), vec![0, 1, 3]);
        assert_eq!(distinct_ids(&queries, 10), vec![0, 1, 3]);
    }
}
