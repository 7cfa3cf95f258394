//! Term partitioning: random, bin-packing, co-occurrence-aware.
//!
//! "Moffat et al. \[21\] (...) abstract the problem of partitioning the
//! vocabulary in a term partitioned system as a bin-packing problem, where
//! each bin represents a partition, and each term represents an object to
//! put in the bin. Each term has a weight which is proportional to its
//! frequency of occurrence in a query log, and the corresponding length of
//! its posting list." Lucchese et al. \[22\] extend the objective with term
//! co-occurrence so queries touch fewer servers.

use dwr_text::index::InvertedIndex;
use dwr_text::TermId;
use std::collections::HashMap;

/// A term partitioning strategy: maps query-relevant terms to servers.
pub trait TermPartitioner {
    /// Compute `term -> server` for all terms of `index`, over `k` servers.
    fn assign(
        &self,
        index: &InvertedIndex,
        workload: &QueryWorkload,
        k: usize,
    ) -> HashMap<u32, u32>;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// A query workload summary: per-query term sets with frequencies.
#[derive(Debug, Clone, Default)]
pub struct QueryWorkload {
    /// `(terms, frequency)` of each distinct query.
    pub queries: Vec<(Vec<TermId>, f64)>,
}

impl QueryWorkload {
    /// Total frequency-weighted occurrences of each term in the workload.
    pub fn term_frequencies(&self) -> HashMap<u32, f64> {
        let mut freq = HashMap::new();
        for (terms, f) in &self.queries {
            for t in terms {
                *freq.entry(t.0).or_insert(0.0) += f;
            }
        }
        freq
    }
}

/// The load a term places on its server under a workload: query frequency
/// of the term × its posting-list length (the disk/CPU work to serve it).
fn term_weight(index: &InvertedIndex, freq: f64, term: TermId) -> f64 {
    freq * f64::from(index.df(term).max(1))
}

/// Hash-random term assignment (the baseline).
#[derive(Debug, Clone, Copy)]
pub struct RandomTermPartitioner;

impl TermPartitioner for RandomTermPartitioner {
    fn assign(
        &self,
        index: &InvertedIndex,
        _workload: &QueryWorkload,
        k: usize,
    ) -> HashMap<u32, u32> {
        assert!(k > 0);
        index
            .terms()
            .map(|(t, _)| {
                // SplitMix-style finalizer on the term id.
                let mut z = u64::from(t.0)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                (t.0, (z % k as u64) as u32)
            })
            .collect()
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Greedy query-weighted bin-packing (Moffat et al. \[21\]): terms sorted by
/// weight descending, each placed on the currently least-loaded server.
#[derive(Debug, Clone, Copy)]
pub struct BinPackingTermPartitioner;

impl TermPartitioner for BinPackingTermPartitioner {
    fn assign(
        &self,
        index: &InvertedIndex,
        workload: &QueryWorkload,
        k: usize,
    ) -> HashMap<u32, u32> {
        assert!(k > 0);
        let freqs = workload.term_frequencies();
        let mut weighted: Vec<(u32, f64)> = index
            .terms()
            .map(|(t, _)| {
                let f = freqs.get(&t.0).copied().unwrap_or(0.0);
                (t.0, term_weight(index, f, t))
            })
            .collect();
        weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights").then(a.0.cmp(&b.0)));
        let mut load = vec![0f64; k];
        let mut out = HashMap::with_capacity(weighted.len());
        for (t, w) in weighted {
            let (bin, _) = load
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| a.partial_cmp(b).expect("finite").then(i.cmp(j)))
                .expect("k > 0");
            out.insert(t, bin as u32);
            load[bin] += w;
        }
        out
    }
    fn name(&self) -> &'static str {
        "bin-packing"
    }
}

/// Co-occurrence-aware packing (Lucchese et al. \[22\], greedy variant):
/// like bin-packing, but each term prefers the server already holding the
/// terms it co-occurs with in queries, as long as that server's load is
/// not too far above the mean.
#[derive(Debug, Clone, Copy)]
pub struct CoOccurrenceTermPartitioner {
    /// How much co-occurrence benefit can override imbalance: a server
    /// stays eligible while `load <= (1 + slack) × mean`.
    pub slack: f64,
}

impl Default for CoOccurrenceTermPartitioner {
    fn default() -> Self {
        CoOccurrenceTermPartitioner { slack: 0.25 }
    }
}

impl TermPartitioner for CoOccurrenceTermPartitioner {
    fn assign(
        &self,
        index: &InvertedIndex,
        workload: &QueryWorkload,
        k: usize,
    ) -> HashMap<u32, u32> {
        assert!(k > 0);
        let freqs = workload.term_frequencies();
        // Co-occurrence counts between term pairs, frequency-weighted.
        let mut cooc: HashMap<(u32, u32), f64> = HashMap::new();
        for (terms, f) in &workload.queries {
            for i in 0..terms.len() {
                for j in (i + 1)..terms.len() {
                    let (a, b) = (terms[i].0.min(terms[j].0), terms[i].0.max(terms[j].0));
                    *cooc.entry((a, b)).or_insert(0.0) += f;
                }
            }
        }
        // Adjacency lists.
        let mut nbrs: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        for (&(a, b), &w) in &cooc {
            nbrs.entry(a).or_default().push((b, w));
            nbrs.entry(b).or_default().push((a, w));
        }

        let mut weighted: Vec<(u32, f64)> = index
            .terms()
            .map(|(t, _)| {
                let f = freqs.get(&t.0).copied().unwrap_or(0.0);
                (t.0, term_weight(index, f, t))
            })
            .collect();
        weighted.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights").then(a.0.cmp(&b.0)));
        let total: f64 = weighted.iter().map(|&(_, w)| w).sum();
        let mean_target = total / k as f64;

        let mut load = vec![0f64; k];
        let mut out: HashMap<u32, u32> = HashMap::with_capacity(weighted.len());
        for (t, w) in weighted {
            // Affinity of each server = co-occurrence weight with terms
            // already placed there.
            let mut affinity = vec![0f64; k];
            if let Some(ns) = nbrs.get(&t) {
                for &(other, cw) in ns {
                    if let Some(&srv) = out.get(&other) {
                        affinity[srv as usize] += cw;
                    }
                }
            }
            // Choose the highest-affinity server whose load is within
            // slack; fall back to least-loaded.
            let cap = mean_target * (1.0 + self.slack);
            let candidate =
                (0..k).filter(|&s| load[s] + w <= cap || load[s] == 0.0).max_by(|&a, &b| {
                    affinity[a]
                        .partial_cmp(&affinity[b])
                        .expect("finite")
                        .then_with(|| load[b].partial_cmp(&load[a]).expect("finite"))
                });
            let bin = candidate.unwrap_or_else(|| {
                load.iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("k > 0")
            });
            out.insert(t, bin as u32);
            load[bin] += w;
        }
        out
    }
    fn name(&self) -> &'static str {
        "co-occurrence"
    }
}

/// Evaluate a term assignment under a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TermPartitionEval {
    /// Frequency-weighted work (posting volume touched) per server.
    pub load: Vec<f64>,
    /// Mean number of distinct servers contacted per query.
    pub avg_servers_per_query: f64,
    /// Fraction of queries fully answerable by a single server.
    pub single_server_fraction: f64,
}

/// Compute load and contact statistics for an assignment.
pub fn evaluate_term_partition(
    index: &InvertedIndex,
    workload: &QueryWorkload,
    assignment: &HashMap<u32, u32>,
    k: usize,
) -> TermPartitionEval {
    let mut load = vec![0f64; k];
    let mut servers_acc = 0f64;
    let mut single = 0f64;
    let mut total_freq = 0f64;
    for (terms, f) in &workload.queries {
        let mut touched: Vec<u32> = Vec::with_capacity(terms.len());
        for t in terms {
            if let Some(&srv) = assignment.get(&t.0) {
                load[srv as usize] += f * f64::from(index.df(*t).max(1));
                touched.push(srv);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            continue;
        }
        servers_acc += f * touched.len() as f64;
        if touched.len() == 1 {
            single += f;
        }
        total_freq += f;
    }
    TermPartitionEval {
        load,
        avg_servers_per_query: if total_freq > 0.0 { servers_acc / total_freq } else { 0.0 },
        single_server_fraction: if total_freq > 0.0 { single / total_freq } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::stats::Imbalance;
    use dwr_text::index::build_index;

    /// Corpus with wildly skewed posting lengths: term 0 everywhere,
    /// term i in ~N/i docs.
    fn skewed_index() -> InvertedIndex {
        let n = 200;
        let corpus: Vec<Vec<(TermId, u32)>> = (0..n)
            .map(|d| {
                let mut doc = vec![(TermId(0), 1)];
                for t in 1..20u32 {
                    if d % t as usize == 0 {
                        doc.push((TermId(t), 1));
                    }
                }
                doc
            })
            .collect();
        build_index(&corpus)
    }

    fn workload() -> QueryWorkload {
        QueryWorkload {
            queries: vec![
                (vec![TermId(0), TermId(1)], 10.0),
                (vec![TermId(2), TermId(3)], 5.0),
                (vec![TermId(2), TermId(3), TermId(4)], 4.0),
                (vec![TermId(5)], 3.0),
                (vec![TermId(6), TermId(7)], 2.0),
                (vec![TermId(8)], 1.0),
                (vec![TermId(9), TermId(10)], 1.0),
            ],
        }
    }

    #[test]
    fn all_terms_assigned_in_range() {
        let idx = skewed_index();
        let wl = workload();
        for part in [
            &RandomTermPartitioner as &dyn TermPartitioner,
            &BinPackingTermPartitioner,
            &CoOccurrenceTermPartitioner::default(),
        ] {
            let a = part.assign(&idx, &wl, 4);
            assert_eq!(a.len(), idx.num_terms(), "{}", part.name());
            assert!(a.values().all(|&s| s < 4), "{}", part.name());
        }
    }

    #[test]
    fn binpacking_balances_better_than_random() {
        let idx = skewed_index();
        let wl = workload();
        let gini = |a: &HashMap<u32, u32>| {
            Imbalance::of(&evaluate_term_partition(&idx, &wl, a, 4).load).gini
        };
        let rand = gini(&RandomTermPartitioner.assign(&idx, &wl, 4));
        let packed = gini(&BinPackingTermPartitioner.assign(&idx, &wl, 4));
        assert!(packed < rand, "packed={packed} rand={rand}");
    }

    #[test]
    fn cooccurrence_reduces_servers_per_query() {
        let idx = skewed_index();
        let wl = workload();
        let eval = |a: &HashMap<u32, u32>| evaluate_term_partition(&idx, &wl, a, 4);
        let packed = eval(&BinPackingTermPartitioner.assign(&idx, &wl, 4));
        let cooc = eval(&CoOccurrenceTermPartitioner::default().assign(&idx, &wl, 4));
        assert!(
            cooc.avg_servers_per_query <= packed.avg_servers_per_query,
            "cooc={} packed={}",
            cooc.avg_servers_per_query,
            packed.avg_servers_per_query
        );
        assert!(cooc.single_server_fraction >= packed.single_server_fraction);
    }

    #[test]
    fn cooccurring_terms_land_together() {
        let idx = skewed_index();
        let wl = workload();
        let a = CoOccurrenceTermPartitioner::default().assign(&idx, &wl, 4);
        // Terms 2, 3 co-occur with weight 9 — strongest pair.
        assert_eq!(a[&2], a[&3]);
    }

    #[test]
    fn single_term_queries_always_single_server() {
        let idx = skewed_index();
        let wl = QueryWorkload { queries: vec![(vec![TermId(1)], 1.0), (vec![TermId(2)], 2.0)] };
        let a = RandomTermPartitioner.assign(&idx, &wl, 4);
        let e = evaluate_term_partition(&idx, &wl, &a, 4);
        assert_eq!(e.single_server_fraction, 1.0);
        assert_eq!(e.avg_servers_per_query, 1.0);
    }

    #[test]
    fn load_reflects_posting_lengths() {
        let idx = skewed_index();
        // Term 0 has df = 200, term 19 has df ≈ 10: same query frequency,
        // very different load.
        let wl = QueryWorkload { queries: vec![(vec![TermId(0)], 1.0), (vec![TermId(19)], 1.0)] };
        let mut a = HashMap::new();
        a.insert(0u32, 0u32);
        a.insert(19u32, 1u32);
        let e = evaluate_term_partition(&idx, &wl, &a, 2);
        assert!(e.load[0] > 10.0 * e.load[1], "load={:?}", e.load);
    }

    #[test]
    fn empty_workload_evaluates_cleanly() {
        let idx = skewed_index();
        let a = RandomTermPartitioner.assign(&idx, &QueryWorkload::default(), 2);
        let e = evaluate_term_partition(&idx, &QueryWorkload::default(), &a, 2);
        assert_eq!(e.avg_servers_per_query, 0.0);
        assert_eq!(e.single_server_fraction, 0.0);
    }
}
