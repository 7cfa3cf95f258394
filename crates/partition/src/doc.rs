//! Document partitioning strategies.
//!
//! "For document partitioned systems, there has not been much work on the
//! problem of assigning documents to partitions. The majority of the
//! proposed approaches in the literature adopt a simple approach, where
//! documents are randomly partitioned, and each query uses all the
//! servers" — random and round-robin are the baselines here. The
//! structured alternatives are k-means clustering by content \[17, 18\] and
//! Puppin et al.'s query-driven co-clustering \[19\], which "represent\[s\]
//! each document with all the queries that return that document as an
//! answer".

use crate::parted::Corpus;
use dwr_sim::SimRng;
use dwr_text::TermId;
use std::collections::HashMap;

/// A document partitioning strategy: maps every document to one of `k`
/// partitions.
pub trait DocPartitioner {
    /// Compute the assignment vector (`len == corpus.len()`, values `< k`).
    fn assign(&self, corpus: &Corpus, k: usize) -> Vec<u32>;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Uniform random assignment (the literature's default).
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    /// RNG seed.
    pub seed: u64,
}

impl DocPartitioner for RandomPartitioner {
    fn assign(&self, corpus: &Corpus, k: usize) -> Vec<u32> {
        assert!(k > 0);
        let mut rng = SimRng::new(self.seed).fork_named("random-part");
        (0..corpus.len()).map(|_| rng.below(k as u64) as u32).collect()
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Round-robin assignment: perfectly balanced by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPartitioner;

impl DocPartitioner for RoundRobinPartitioner {
    fn assign(&self, corpus: &Corpus, k: usize) -> Vec<u32> {
        assert!(k > 0);
        (0..corpus.len()).map(|d| (d % k) as u32).collect()
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Content k-means: documents are embedded as term-block histograms
/// (buckets of contiguous term ids), normalized, and clustered by cosine
/// distance with deterministic seeding. Topically coherent corpora — where
/// related terms share id blocks — cluster into topical partitions without
/// the partitioner knowing the topic structure.
#[derive(Debug, Clone, Copy)]
pub struct KMeansPartitioner {
    /// Feature buckets (dimensionality of the embedding).
    pub buckets: usize,
    /// k-means iterations.
    pub iterations: usize,
    /// RNG seed for centroid initialization.
    pub seed: u64,
}

impl Default for KMeansPartitioner {
    fn default() -> Self {
        KMeansPartitioner { buckets: 64, iterations: 12, seed: 42 }
    }
}

impl KMeansPartitioner {
    fn features(&self, corpus: &Corpus) -> (Vec<Vec<f32>>, usize) {
        let max_term =
            corpus.iter().flat_map(|d| d.iter().map(|&(t, _)| t.0)).max().unwrap_or(0) as usize + 1;
        let width = max_term.div_ceil(self.buckets).max(1);
        let feats = corpus
            .iter()
            .map(|doc| {
                let mut v = vec![0f32; self.buckets];
                for &(t, tf) in doc {
                    v[(t.0 as usize / width).min(self.buckets - 1)] += tf as f32;
                }
                normalize(&mut v);
                v
            })
            .collect();
        (feats, self.buckets)
    }
}

fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dense k-means with cosine similarity: farthest-point initialization and
/// multiple restarts, keeping the assignment with the highest total
/// within-cluster similarity. Returns assignments.
fn kmeans(features: &[Vec<f32>], k: usize, iterations: usize, rng: &mut SimRng) -> Vec<u32> {
    let n = features.len();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Option<(f32, Vec<u32>)> = None;
    for _restart in 0..3 {
        let (assign, objective) = kmeans_once(features, k, iterations, rng);
        if best.as_ref().is_none_or(|(obj, _)| objective > *obj) {
            best = Some((objective, assign));
        }
    }
    best.expect("at least one restart ran").1
}

fn kmeans_once(
    features: &[Vec<f32>],
    k: usize,
    iterations: usize,
    rng: &mut SimRng,
) -> (Vec<u32>, f32) {
    let n = features.len();
    let dim = features[0].len();
    // Farthest-point init: first centroid random, each subsequent one the
    // document with the lowest max-similarity to the chosen set.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(features[rng.index(n)].clone());
    // max_sim[i] = highest similarity of doc i to any chosen centroid.
    let mut max_sim: Vec<f32> = features.iter().map(|f| dot(&centroids[0], f)).collect();
    while centroids.len() < k {
        let far = (0..n)
            .min_by(|&a, &b| max_sim[a].partial_cmp(&max_sim[b]).expect("finite").then(a.cmp(&b)))
            .expect("non-empty");
        centroids.push(features[far].clone());
        for (i, f) in features.iter().enumerate() {
            max_sim[i] = max_sim[i].max(dot(centroids.last().expect("pushed"), f));
        }
    }

    let mut assign = vec![0u32; n];
    let mut objective = 0f32;
    for _ in 0..iterations {
        // Assignment step.
        let mut changed = false;
        objective = 0.0;
        for (i, f) in features.iter().enumerate() {
            let mut best = 0u32;
            let mut best_sim = f32::NEG_INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let s = dot(cent, f);
                if s > best_sim {
                    best_sim = s;
                    best = c as u32;
                }
            }
            objective += best_sim;
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![vec![0f32; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, f) in features.iter().enumerate() {
            let c = assign[i] as usize;
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(f) {
                *s += x;
            }
        }
        for (c, sum) in sums.into_iter().enumerate() {
            if counts[c] > 0 {
                centroids[c] = sum;
                normalize(&mut centroids[c]);
            } else {
                // Re-seed an empty cluster from a random document.
                centroids[c] = features[rng.index(n)].clone();
            }
        }
        if !changed {
            break;
        }
    }
    (assign, objective)
}

impl DocPartitioner for KMeansPartitioner {
    fn assign(&self, corpus: &Corpus, k: usize) -> Vec<u32> {
        assert!(k > 0);
        let (features, _) = self.features(corpus);
        let mut rng = SimRng::new(self.seed).fork_named("kmeans");
        kmeans(&features, k, self.iterations, &mut rng)
    }
    fn name(&self) -> &'static str {
        "kmeans"
    }
}

/// Training data for query-driven partitioning: for each training query,
/// its terms, a popularity weight, and the global doc ids it returned.
#[derive(Debug, Clone, Default)]
pub struct TrainingResults {
    /// `(terms, weight, result global-doc ids)` per training query.
    pub queries: Vec<(Vec<TermId>, f64, Vec<u32>)>,
}

impl TrainingResults {
    /// Doc → list of `(query index, weight)` that returned it.
    fn doc_query_map(&self, num_docs: usize) -> Vec<Vec<(u32, f32)>> {
        let mut map: Vec<Vec<(u32, f32)>> = vec![Vec::new(); num_docs];
        for (qi, (_, w, docs)) in self.queries.iter().enumerate() {
            for &d in docs {
                map[d as usize].push((qi as u32, *w as f32));
            }
        }
        map
    }

    /// Fraction of documents never returned by any training query — the
    /// quantity Puppin et al. report as 53% on their logs.
    pub fn never_recalled_fraction(&self, num_docs: usize) -> f64 {
        let mut seen = vec![false; num_docs];
        for (_, _, docs) in &self.queries {
            for &d in docs {
                seen[d as usize] = true;
            }
        }
        seen.iter().filter(|&&s| !s).count() as f64 / num_docs as f64
    }
}

/// Query-driven co-clustering (Puppin et al. \[19\], simplified): documents
/// are embedded in *query space* (which training queries return them,
/// weighted by query popularity) and clustered there; documents no query
/// ever recalls are segregated into the last partition (the "outcast"
/// sub-collection that can be searched rarely or not at all).
#[derive(Debug, Clone)]
pub struct QueryDrivenPartitioner {
    /// Training results (from replaying the training log on a reference
    /// index).
    pub training: TrainingResults,
    /// k-means iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DocPartitioner for QueryDrivenPartitioner {
    fn assign(&self, corpus: &Corpus, k: usize) -> Vec<u32> {
        assert!(
            k >= 2,
            "query-driven partitioning needs >= 2 partitions (one is the outcast pool)"
        );
        let n = corpus.len();
        let doc_queries = self.training.doc_query_map(n);
        let recalled: Vec<usize> = (0..n).filter(|&d| !doc_queries[d].is_empty()).collect();
        let clusters = k - 1;

        // Sparse k-means in query space over recalled docs.
        let q = self.training.queries.len();
        let mut rng = SimRng::new(self.seed).fork_named("coclustering");
        let mut assign = vec![(k - 1) as u32; n]; // default: outcast pool

        if recalled.is_empty() || q == 0 {
            return assign;
        }

        // Farthest-point initialization (dense centroids in query space —
        // q is the training-universe size, manageable): the first centroid
        // is a random recalled doc, each next one the recalled doc least
        // similar to the chosen set, which guarantees disjoint query
        // groups seed distinct clusters.
        let doc_centroid = |d: usize| {
            let mut c = vec![0f32; q];
            for &(qi, w) in &doc_queries[d] {
                c[qi as usize] = w;
            }
            normalize(&mut c);
            c
        };
        let sparse_dot = |cent: &[f32], d: usize| -> f32 {
            doc_queries[d].iter().map(|&(qi, w)| cent[qi as usize] * w).sum()
        };
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(clusters);
        centroids.push(doc_centroid(recalled[rng.index(recalled.len())]));
        let mut max_sim: Vec<f32> =
            recalled.iter().map(|&d| sparse_dot(&centroids[0], d)).collect();
        while centroids.len() < clusters {
            let far = (0..recalled.len())
                .min_by(|&a, &b| {
                    max_sim[a].partial_cmp(&max_sim[b]).expect("finite").then(a.cmp(&b))
                })
                .expect("non-empty recalled set");
            centroids.push(doc_centroid(recalled[far]));
            for (ri, &d) in recalled.iter().enumerate() {
                max_sim[ri] = max_sim[ri].max(sparse_dot(centroids.last().expect("pushed"), d));
            }
        }

        let mut cluster_of = vec![0u32; recalled.len()];
        for _ in 0..self.iterations {
            let mut changed = false;
            for (ri, &d) in recalled.iter().enumerate() {
                let mut best = 0u32;
                let mut best_sim = f32::NEG_INFINITY;
                for (c, cent) in centroids.iter().enumerate() {
                    // Sparse dot product.
                    let s: f32 = doc_queries[d].iter().map(|&(qi, w)| cent[qi as usize] * w).sum();
                    if s > best_sim {
                        best_sim = s;
                        best = c as u32;
                    }
                }
                if cluster_of[ri] != best {
                    cluster_of[ri] = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0f32; q]; clusters];
            let mut counts = vec![0usize; clusters];
            for (ri, &d) in recalled.iter().enumerate() {
                let c = cluster_of[ri] as usize;
                counts[c] += 1;
                for &(qi, w) in &doc_queries[d] {
                    sums[c][qi as usize] += w;
                }
            }
            for (c, sum) in sums.into_iter().enumerate() {
                if counts[c] > 0 {
                    centroids[c] = sum;
                    normalize(&mut centroids[c]);
                } else {
                    let d = recalled[rng.index(recalled.len())];
                    let mut cvec = vec![0f32; q];
                    for &(qi, w) in &doc_queries[d] {
                        cvec[qi as usize] = w;
                    }
                    normalize(&mut cvec);
                    centroids[c] = cvec;
                }
            }
            if !changed {
                break;
            }
        }
        for (ri, &d) in recalled.iter().enumerate() {
            assign[d] = cluster_of[ri];
        }
        assign
    }
    fn name(&self) -> &'static str {
        "query-driven"
    }
}

/// Per-partition term profiles learned from training queries — the
/// companion collection-selection model of the query-driven partitioner
/// (PCAP-style: a cluster is described by the terms of the queries whose
/// results live there).
pub fn partition_term_profiles(
    training: &TrainingResults,
    assignment: &[u32],
    k: usize,
) -> Vec<HashMap<u32, f64>> {
    let mut profiles: Vec<HashMap<u32, f64>> = vec![HashMap::new(); k];
    for (terms, w, docs) in &training.queries {
        if docs.is_empty() {
            continue;
        }
        // Weight of this query on each partition = fraction of its
        // results living there, scaled by query popularity.
        let mut share: HashMap<u32, f64> = HashMap::new();
        for &d in docs {
            *share.entry(assignment[d as usize]).or_insert(0.0) += 1.0;
        }
        for (&p, cnt) in &share {
            let frac = cnt / docs.len() as f64;
            let profile = &mut profiles[p as usize];
            for t in terms {
                *profile.entry(t.0).or_insert(0.0) += w * frac;
            }
        }
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus_with_topics() -> Corpus {
        // Three "topics": term blocks 0..10, 100..110, 200..210.
        let mut c = Vec::new();
        for i in 0..30u32 {
            let base = (i % 3) * 100;
            c.push(vec![(TermId(base + i % 10), 3), (TermId(base + (i + 1) % 10), 1)]);
        }
        c
    }

    #[test]
    fn random_covers_all_partitions_and_is_deterministic() {
        let c = corpus_with_topics();
        let p = RandomPartitioner { seed: 9 };
        let a = p.assign(&c, 4);
        let b = p.assign(&c, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 4));
        let distinct: std::collections::HashSet<u32> = a.iter().copied().collect();
        assert!(distinct.len() >= 3);
    }

    #[test]
    fn round_robin_balances_exactly() {
        let c = corpus_with_topics();
        let a = RoundRobinPartitioner.assign(&c, 3);
        let mut counts = [0; 3];
        for &x in &a {
            counts[x as usize] += 1;
        }
        assert_eq!(counts, [10, 10, 10]);
    }

    #[test]
    fn kmeans_recovers_block_structure() {
        let c = corpus_with_topics();
        let a = KMeansPartitioner { buckets: 32, iterations: 20, seed: 3 }.assign(&c, 3);
        // All docs of the same topic should land together: check purity.
        let mut purity = 0usize;
        for topic in 0..3u32 {
            let docs: Vec<usize> = (0..30).filter(|d| d % 3 == topic as usize).collect();
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for &d in &docs {
                *counts.entry(a[d]).or_insert(0) += 1;
            }
            purity += counts.values().copied().max().unwrap();
        }
        assert!(purity as f64 / 30.0 > 0.9, "purity={}", purity as f64 / 30.0);
    }

    fn training() -> TrainingResults {
        TrainingResults {
            queries: vec![
                (vec![TermId(1)], 1.0, vec![0, 1, 2]),
                (vec![TermId(2)], 0.8, vec![1, 2]),
                (vec![TermId(100)], 0.6, vec![5, 6]),
                (vec![TermId(101)], 0.5, vec![6, 7]),
            ],
        }
    }

    #[test]
    fn never_recalled_fraction_counts_unseen_docs() {
        let t = training();
        // Docs 0,1,2,5,6,7 recalled of 10 → 4/10 never recalled.
        assert!((t.never_recalled_fraction(10) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn query_driven_groups_codret_docs_and_isolates_outcasts() {
        let c: Corpus = (0..10).map(|i| vec![(TermId(i), 1)]).collect();
        let p = QueryDrivenPartitioner { training: training(), iterations: 10, seed: 5 };
        let a = p.assign(&c, 3);
        // Outcasts (3, 4, 8, 9) in the last partition.
        for d in [3usize, 4, 8, 9] {
            assert_eq!(a[d], 2, "doc {d} should be outcast");
        }
        // Docs co-returned by the same queries cluster together.
        assert_eq!(a[1], a[2], "docs 1,2 share two queries");
        assert_eq!(a[5], a[6], "docs 5,6 share a query");
        // The two query groups are distinct clusters.
        assert_ne!(a[1], a[6]);
    }

    #[test]
    fn term_profiles_reflect_partition_content() {
        let c: Corpus = (0..10).map(|i| vec![(TermId(i), 1)]).collect();
        let t = training();
        let p = QueryDrivenPartitioner { training: t.clone(), iterations: 10, seed: 5 };
        let a = p.assign(&c, 3);
        let profiles = partition_term_profiles(&t, &a, 3);
        // The partition holding docs 0..3 is profiled by terms 1 and 2.
        let p01 = a[1] as usize;
        assert!(profiles[p01].contains_key(&1));
        assert!(profiles[p01].contains_key(&2));
        // And not by the other group's terms.
        assert!(!profiles[p01].contains_key(&100));
    }

    #[test]
    #[should_panic(expected = ">= 2 partitions")]
    fn query_driven_needs_two_partitions() {
        let c: Corpus = vec![vec![(TermId(0), 1)]];
        QueryDrivenPartitioner { training: TrainingResults::default(), iterations: 1, seed: 1 }
            .assign(&c, 1);
    }
}
