//! Term-partitioned pipelined evaluation (Webber et al. \[16\]).
//!
//! "A term partitioned system using pipelining routes partially resolved
//! queries among servers" — each query visits exactly the servers holding
//! its terms, in server order, accumulating partial scores and forwarding
//! the accumulator set. The busy load therefore concentrates on the
//! servers owning popular terms, producing the imbalance of Figure 2's
//! right panel; the bin-packing and co-occurrence partitioners of
//! `dwr-partition` exist to fight exactly this.

use dwr_sim::net::{SiteId, Topology};
use dwr_sim::SimTime;
use dwr_text::index::InvertedIndex;
use dwr_text::score::Bm25;
use dwr_text::topk::TopK;
use dwr_text::TermId;
use std::collections::HashMap;

use crate::broker::{GlobalHit, US_PER_POSTING, US_PER_QUERY_FIXED};

/// Bytes per accumulator entry forwarded between pipeline stages.
pub const BYTES_PER_ACCUMULATOR: u64 = 8;
/// CPU cost (µs) a pipeline stage pays to receive and merge one forwarded
/// accumulator entry. This is the hidden tax of pipelined term
/// partitioning: every stage re-touches the accumulator set, which is why
/// Webber et al. found document partitioning "still better in terms of
/// throughput" even after load balancing.
pub const US_PER_ACCUMULATOR: f64 = 0.5;

/// Response of a pipelined query.
#[derive(Debug, Clone)]
pub struct PipelinedResponse {
    /// Merged top-k, best first (doc ids are the index's own ids, which
    /// are global in a term-partitioned system — the whole collection is
    /// indexed once and sliced by term).
    pub hits: Vec<GlobalHit>,
    /// Servers the query visited, in pipeline order.
    pub route: Vec<u32>,
    /// End-to-end latency: sum of per-stage service plus inter-stage hops.
    pub latency: SimTime,
    /// Bytes of accumulators forwarded between stages.
    pub forwarded_bytes: u64,
}

/// A term-partitioned engine with pipelined routing.
pub struct PipelinedTermEngine<'a> {
    index: &'a InvertedIndex,
    /// term -> server.
    assignment: HashMap<u32, u32>,
    servers: usize,
    topo: Topology,
    server_sites: Vec<SiteId>,
    bm25: Bm25,
    busy: Vec<f64>,
    queries: u64,
}

impl<'a> PipelinedTermEngine<'a> {
    /// Create the engine. `assignment` maps every query-relevant term to a
    /// server in `0..servers`.
    pub fn new(
        index: &'a InvertedIndex,
        assignment: HashMap<u32, u32>,
        servers: usize,
        topo: Topology,
        server_sites: Vec<SiteId>,
    ) -> Self {
        assert!(servers > 0);
        assert_eq!(server_sites.len(), servers);
        assert!(assignment.values().all(|&s| (s as usize) < servers));
        PipelinedTermEngine {
            index,
            assignment,
            servers,
            topo,
            server_sites,
            bm25: Bm25::default(),
            busy: vec![0.0; servers],
            queries: 0,
        }
    }

    /// Single-site convenience constructor.
    pub fn single_site(
        index: &'a InvertedIndex,
        assignment: HashMap<u32, u32>,
        servers: usize,
    ) -> Self {
        let sites = vec![SiteId(0); servers];
        Self::new(index, assignment, servers, Topology::single_site(), sites)
    }

    /// Evaluate a query through the pipeline.
    pub fn query(&mut self, terms: &[TermId], k: usize) -> PipelinedResponse {
        self.queries += 1;
        // Group the query's terms by owning server; visit servers in
        // ascending id order (the pipeline order).
        let mut by_server: HashMap<u32, Vec<TermId>> = HashMap::new();
        for &t in terms {
            if let Some(&s) = self.assignment.get(&t.0) {
                by_server.entry(s).or_default().push(t);
            }
        }
        let mut route: Vec<u32> = by_server.keys().copied().collect();
        route.sort_unstable();

        let mut accumulators: HashMap<u32, f32> = HashMap::new();
        let mut latency: SimTime = 0;
        let mut forwarded = 0u64;
        let mut prev_site: Option<SiteId> = None;

        for &server in &route {
            let server_terms = &by_server[&server];
            // Stage service time: postings scanned here plus the cost of
            // receiving and merging the forwarded accumulator set.
            let postings: u64 = server_terms.iter().map(|&t| u64::from(self.index.df(t))).sum();
            let merge_in = if prev_site.is_some() {
                accumulators.len() as f64 * US_PER_ACCUMULATOR
            } else {
                0.0
            };
            let service = US_PER_QUERY_FIXED + postings as f64 * US_PER_POSTING + merge_in;
            self.busy[server as usize] += service;
            latency += service as SimTime;
            // Inter-stage hop carrying the accumulator set.
            let site = self.server_sites[server as usize];
            if let Some(prev) = prev_site {
                let payload = accumulators.len() as u64 * BYTES_PER_ACCUMULATOR;
                forwarded += payload;
                latency += self.topo.transfer_time(prev, site, 64 + payload);
            }
            prev_site = Some(site);
            // Merge this server's postings into the accumulators.
            for &t in server_terms {
                if let Some(list) = self.index.postings(t) {
                    let scorer = self.bm25.term_scorer(self.index, t);
                    for p in list.iter() {
                        let s = scorer.score(p.tf, self.index.doc_len(p.doc)) as f32;
                        *accumulators.entry(p.doc.0).or_insert(0.0) += s;
                    }
                }
            }
        }

        let mut top = TopK::new(k.max(1));
        for (doc, score) in accumulators {
            top.push(doc, score);
        }
        PipelinedResponse {
            hits: top
                .into_sorted_vec()
                .into_iter()
                .map(|(doc, score)| GlobalHit { doc, score })
                .collect(),
            route,
            latency,
            forwarded_bytes: forwarded,
        }
    }

    /// Accumulated busy time per server (µs).
    pub fn busy_time(&self) -> &[f64] {
        &self.busy
    }

    /// Busy time normalized by its mean — Figure 2's y-axis.
    pub fn busy_load_normalized(&self) -> Vec<f64> {
        let mean = self.busy.iter().sum::<f64>() / self.servers as f64;
        if mean <= 0.0 {
            return vec![0.0; self.servers];
        }
        self.busy.iter().map(|&b| b / mean).collect()
    }

    /// Queries processed so far.
    pub fn queries_processed(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_text::index::build_index;
    use dwr_text::search::search_or;

    /// Corpus with a Zipf-ish term skew: term 0 in every doc.
    fn index() -> InvertedIndex {
        let corpus: Vec<Vec<(TermId, u32)>> = (0..100usize)
            .map(|d| {
                let mut doc = vec![(TermId(0), 1)];
                for t in 1..12u32 {
                    if d % t as usize == 0 {
                        doc.push((TermId(t), 1));
                    }
                }
                doc
            })
            .collect();
        build_index(&corpus)
    }

    fn spread_assignment(servers: u32) -> HashMap<u32, u32> {
        (0..12u32).map(|t| (t, t % servers)).collect()
    }

    #[test]
    fn pipelined_results_match_monolithic() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let terms = [TermId(2), TermId(3), TermId(5)];
        let got: Vec<u32> = eng.query(&terms, 10).hits.iter().map(|h| h.doc).collect();
        let want: Vec<u32> = search_or(&idx, &terms, 10, &Bm25::default(), &idx)
            .into_iter()
            .map(|h| h.doc.0)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn route_visits_only_owning_servers() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let r = eng.query(&[TermId(1), TermId(5)], 10);
        // Terms 1 and 5 both live on server 1 under t % 4.
        assert_eq!(r.route, vec![1]);
        assert_eq!(r.forwarded_bytes, 0, "single-stage query forwards nothing");
        let r2 = eng.query(&[TermId(1), TermId(2)], 10);
        assert_eq!(r2.route, vec![1, 2]);
        assert!(r2.forwarded_bytes > 0);
    }

    #[test]
    fn popular_term_server_gets_hot() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        // Every query contains term 0 (server 0): the classic hot spot.
        for q in 1..50u32 {
            eng.query(&[TermId(0), TermId(1 + q % 11)], 10);
        }
        let norm = eng.busy_load_normalized();
        assert!(norm[0] > 1.5, "server 0 should be far above the mean: {norm:?}");
    }

    #[test]
    fn more_stages_more_latency() {
        let idx = index();
        // All terms on one server vs spread over 4.
        let single: HashMap<u32, u32> = (0..12u32).map(|t| (t, 0)).collect();
        let mut eng1 = PipelinedTermEngine::single_site(&idx, single, 4);
        let mut eng4 = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let terms = [TermId(1), TermId(2), TermId(3), TermId(4)];
        let l1 = eng1.query(&terms, 10).latency;
        let l4 = eng4.query(&terms, 10).latency;
        assert!(l4 > l1, "4-stage {l4} vs 1-stage {l1}");
    }

    #[test]
    fn unknown_terms_are_skipped() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let r = eng.query(&[TermId(999)], 10);
        assert!(r.hits.is_empty());
        assert!(r.route.is_empty());
    }

    #[test]
    fn busy_time_sums_over_queries() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(2), 2);
        eng.query(&[TermId(1)], 5);
        let after_one: f64 = eng.busy_time().iter().sum();
        eng.query(&[TermId(1)], 5);
        let after_two: f64 = eng.busy_time().iter().sum();
        assert!((after_two - 2.0 * after_one).abs() < 1e-9);
    }
}
