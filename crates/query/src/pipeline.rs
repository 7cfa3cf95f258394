//! Term-partitioned pipelined evaluation (Webber et al. \[16\]).
//!
//! "A term partitioned system using pipelining routes partially resolved
//! queries among servers" — each query visits exactly the servers holding
//! its terms, in server order, accumulating partial scores and forwarding
//! the accumulator set. The busy load therefore concentrates on the
//! servers owning popular terms, producing the imbalance of Figure 2's
//! right panel; the bin-packing and co-occurrence partitioners of
//! `dwr-partition` exist to fight exactly this.

use dwr_sim::net::Link;
use dwr_sim::SimTime;
use dwr_text::index::InvertedIndex;
use dwr_text::score::Bm25;
use dwr_text::search::{search_or_pipelined, EvalStats};
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

/// A term-partitioned engine with pipelined routing, its servers on one
/// LAN. Scoring is `dwr-text`'s dense evaluator run stage by stage
/// ([`search_or_pipelined`]); this engine only routes and prices.
pub struct PipelinedTermEngine<'a> {
    index: &'a InvertedIndex,
    /// term -> server.
    assignment: HashMap<u32, u32>,
    bm25: Bm25,
    busy: Vec<f64>,
}

impl<'a> PipelinedTermEngine<'a> {
    /// Create the engine. `assignment` maps every query-relevant term to a
    /// server in `0..servers`.
    pub fn single_site(
        index: &'a InvertedIndex,
        assignment: HashMap<u32, u32>,
        servers: usize,
    ) -> Self {
        assert!(servers > 0);
        assert!(assignment.values().all(|&s| (s as usize) < servers));
        PipelinedTermEngine { index, assignment, bm25: Bm25::default(), busy: vec![0.0; servers] }
    }

    /// Evaluate a query through the pipeline. Its distinct terms are
    /// grouped by owning server, visited in ascending server order (the
    /// pipeline order); terms no server owns are skipped. A top-0 request
    /// visits no server.
    pub fn query(&mut self, terms: &[TermId], k: usize) -> PipelinedResponse {
        let mut ordered: Vec<TermId> = Vec::with_capacity(terms.len());
        if k > 0 {
            for &t in terms {
                if self.assignment.contains_key(&t.0) && !ordered.contains(&t) {
                    ordered.push(t);
                }
            }
        }
        let server = |t: &TermId| self.assignment[&t.0];
        ordered.sort_by_key(server); // stable: query order within a server
        let stages: Vec<&[TermId]> = ordered.chunk_by(|a, b| server(a) == server(b)).collect();
        let route: Vec<u32> = stages.iter().map(|stage| server(&stage[0])).collect();

        let mut ev = EvalStats::default();
        let (hits, sizes) =
            search_or_pipelined(self.index, &stages, k, &self.bm25, self.index, &mut ev);

        // Stage `i` scans its own postings and, past the first, receives
        // and merges the accumulator set stage `i - 1` forwards.
        let mut latency: SimTime = 0;
        let mut forwarded = 0u64;
        for (i, (&server, stage)) in route.iter().zip(&stages).enumerate() {
            let postings: u64 = stage.iter().map(|&t| u64::from(self.index.df(t))).sum();
            let received = if i > 0 { sizes[i - 1] as u64 } else { 0 };
            let merge_in = received as f64 * US_PER_ACCUMULATOR;
            let service = US_PER_QUERY_FIXED + postings as f64 * US_PER_POSTING + merge_in;
            self.busy[server as usize] += service;
            latency += service as SimTime;
            if i > 0 {
                let payload = received * BYTES_PER_ACCUMULATOR;
                forwarded += payload;
                latency += Link::lan().transfer_time(64 + payload);
            }
        }
        PipelinedResponse {
            hits: hits.into_iter().map(|h| GlobalHit { doc: h.doc.0, score: h.score }).collect(),
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
        let mean = self.busy.iter().sum::<f64>() / self.busy.len() as f64;
        if mean <= 0.0 {
            return vec![0.0; self.busy.len()];
        }
        self.busy.iter().map(|&b| b / mean).collect()
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
    fn top_zero_returns_nothing() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let r = eng.query(&[TermId(1), TermId(2)], 0);
        assert!(r.hits.is_empty());
        assert!(r.route.is_empty(), "a top-0 request visits no server");
        assert_eq!((r.latency, r.forwarded_bytes), (0, 0));
        assert!(eng.busy_time().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn repeated_term_scores_once() {
        let idx = index();
        let mut eng = PipelinedTermEngine::single_site(&idx, spread_assignment(4), 4);
        let bits = |r: PipelinedResponse| -> Vec<(u32, u32)> {
            r.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
        };
        let twice = bits(eng.query(&[TermId(1), TermId(1), TermId(0)], 10));
        let once = bits(eng.query(&[TermId(1), TermId(0)], 10));
        assert_eq!(twice, once);
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
