//! Topic-conditioned Zipfian content model.
//!
//! Documents are bags of terms drawn from a mixture of a **background
//! Zipfian vocabulary** (function words, shared vocabulary) and a
//! **topic-specific Zipfian vocabulary** (each topic owns a disjoint slice
//! of the term space). This gives exactly the properties distributed
//! indexing experiments need:
//!
//! * global term frequencies are Zipfian, so posting lists are heavy-tailed
//!   (the bin-packing experiments of Section 4 are meaningless without
//!   this);
//! * documents of the same topic share vocabulary, so topical clustering
//!   and query-driven co-clustering have signal to find;
//! * queries generated from the same model hit topical partitions
//!   selectively, which is what collection selection exploits.

use crate::graph::{SyntheticWeb, TopicId};
use dwr_sim::dist::Zipf;
use dwr_sim::SimRng;

/// Identifier of a term, the workspace's one term id (defined in
/// `dwr-sim`; dense: the background terms, then one slice per topic).
pub use dwr_sim::TermId;

/// Parameters and samplers of the content model.
#[derive(Debug, Clone)]
pub struct ContentModel {
    background_vocab: u32,
    terms_per_topic: u32,
    num_topics: u16,
    background_zipf: Zipf,
    topic_zipf: Zipf,
    /// Probability a token is topical rather than background.
    topical_fraction: f64,
    /// Mean document length in tokens.
    mean_doc_len: f64,
}

impl ContentModel {
    /// Build a content model.
    ///
    /// The term space is laid out as `[0, background_vocab)` for shared
    /// terms followed by `terms_per_topic` terms for each topic.
    pub fn new(
        background_vocab: u32,
        terms_per_topic: u32,
        num_topics: u16,
        topical_fraction: f64,
        mean_doc_len: f64,
    ) -> Self {
        assert!(background_vocab > 0 && terms_per_topic > 0 && num_topics > 0);
        assert!((0.0..=1.0).contains(&topical_fraction));
        assert!(mean_doc_len >= 1.0);
        ContentModel {
            background_vocab,
            terms_per_topic,
            num_topics,
            background_zipf: Zipf::new(u64::from(background_vocab), 1.0),
            topic_zipf: Zipf::new(u64::from(terms_per_topic), 1.0),
            topical_fraction,
            mean_doc_len,
        }
    }

    /// A small default suitable for the experiments in this repository.
    pub fn small(num_topics: u16) -> Self {
        ContentModel::new(20_000, 2_000, num_topics, 0.35, 150.0)
    }

    /// Number of topics.
    pub fn num_topics(&self) -> u16 {
        self.num_topics
    }

    /// First term id of `topic`'s dedicated slice.
    pub fn topic_base(&self, topic: TopicId) -> TermId {
        assert!(topic.0 < self.num_topics);
        TermId(self.background_vocab + u32::from(topic.0) * self.terms_per_topic)
    }

    /// The topic owning `term`, or `None` for background terms.
    pub fn topic_of_term(&self, term: TermId) -> Option<TopicId> {
        if term.0 < self.background_vocab {
            None
        } else {
            let t = (term.0 - self.background_vocab) / self.terms_per_topic;
            (t < u32::from(self.num_topics)).then_some(TopicId(t as u16))
        }
    }

    /// Draw one token for a document of topic `topic`.
    fn sample_token(&self, topic: TopicId, rng: &mut SimRng) -> TermId {
        if rng.chance(self.topical_fraction) {
            let rank = self.topic_zipf.sample(rng) - 1;
            TermId(self.topic_base(topic).0 + rank as u32)
        } else {
            TermId(self.background_zipf.sample(rng) as u32 - 1)
        }
    }

    /// Generate the term-frequency vector of one document: a sorted
    /// `(term, tf)` list. Document length is exponential-ish around the
    /// configured mean, with a floor of 10 tokens.
    pub fn sample_document(&self, topic: TopicId, rng: &mut SimRng) -> Vec<(TermId, u32)> {
        let len = (self.mean_doc_len * (-rng.f64_open().ln())).max(10.0) as usize;
        let mut tokens: Vec<u32> = Vec::with_capacity(len);
        for _ in 0..len {
            tokens.push(self.sample_token(topic, rng).0);
        }
        tokens.sort_unstable();
        let mut out: Vec<(TermId, u32)> = Vec::with_capacity(len / 2);
        for t in tokens {
            match out.last_mut() {
                Some((term, tf)) if term.0 == t => *tf += 1,
                _ => out.push((TermId(t), 1)),
            }
        }
        out
    }

    /// Generate term vectors for every page of `web`, in page-id order.
    ///
    /// Deterministic given `(web, seed)`: each page's stream is forked from
    /// its id, so regenerating a single page gives the same content.
    pub fn corpus(&self, web: &SyntheticWeb, seed: u64) -> Vec<Vec<(TermId, u32)>> {
        let root = SimRng::new(seed).fork_named("content");
        web.page_ids()
            .map(|p| {
                let mut rng = root.fork(u64::from(p.0));
                self.sample_document(web.page(p).topic, &mut rng)
            })
            .collect()
    }

    /// Sample a *query* of `len` terms about `topic`: queries favour the
    /// head of the topical vocabulary even more strongly than documents do
    /// (searchers use discriminative terms).
    pub fn sample_query_terms(&self, topic: TopicId, len: usize, rng: &mut SimRng) -> Vec<TermId> {
        let mut terms = Vec::with_capacity(len);
        for _ in 0..len {
            // Queries are predominantly topical with occasional background
            // (stop-word-like) terms.
            if rng.chance(0.85) {
                let rank = self.topic_zipf.sample(rng) - 1;
                terms.push(TermId(self.topic_base(topic).0 + rank as u32));
            } else {
                terms.push(TermId(self.background_zipf.sample(rng) as u32 - 1));
            }
        }
        terms.sort_unstable();
        terms.dedup();
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_web, WebConfig};

    fn model() -> ContentModel {
        ContentModel::small(8)
    }

    #[test]
    fn term_space_layout() {
        let m = model();
        assert_eq!(m.topic_base(TopicId(0)), TermId(20_000));
        assert_eq!(m.topic_base(TopicId(7)), TermId(20_000 + 7 * 2_000));
        assert_eq!(m.topic_of_term(TermId(100)), None);
        assert_eq!(m.topic_of_term(TermId(20_000)), Some(TopicId(0)));
        assert_eq!(m.topic_of_term(TermId(20_000 + 2_000)), Some(TopicId(1)));
        // The vocabulary ends with the last topic's slice.
        assert_eq!(m.topic_of_term(TermId(20_000 + 8 * 2_000 - 1)), Some(TopicId(7)));
        assert_eq!(m.topic_of_term(TermId(20_000 + 8 * 2_000)), None);
    }

    #[test]
    fn document_tf_vector_sorted_unique() {
        let m = model();
        let mut rng = SimRng::new(1);
        let doc = m.sample_document(TopicId(3), &mut rng);
        assert!(!doc.is_empty());
        assert!(doc.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(doc.iter().all(|&(_, tf)| tf >= 1));
    }

    #[test]
    fn documents_contain_topical_terms() {
        let m = model();
        let mut rng = SimRng::new(2);
        let doc = m.sample_document(TopicId(5), &mut rng);
        let topical = doc.iter().filter(|(t, _)| m.topic_of_term(*t) == Some(TopicId(5))).count();
        let wrong_topic = doc
            .iter()
            .filter(|(t, _)| m.topic_of_term(*t).is_some_and(|tt| tt != TopicId(5)))
            .count();
        assert!(topical > 0);
        assert_eq!(wrong_topic, 0, "documents never leak other topics' terms");
    }

    #[test]
    fn corpus_is_deterministic_and_page_stable() {
        let web = generate_web(&WebConfig::tiny(), 9);
        let m = model();
        let a = m.corpus(&web, 100);
        let b = m.corpus(&web, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), web.num_pages());
    }

    #[test]
    fn global_term_frequencies_are_skewed() {
        let web = generate_web(&WebConfig::tiny(), 10);
        let m = model();
        let corpus = m.corpus(&web, 11);
        let mut freq = std::collections::HashMap::new();
        for doc in &corpus {
            for &(t, tf) in doc {
                *freq.entry(t).or_insert(0u64) += u64::from(tf);
            }
        }
        let mut counts: Vec<u64> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts.iter().take(10).sum();
        assert!(top10 as f64 / total as f64 > 0.08, "top-10 share {}", top10 as f64 / total as f64);
    }

    #[test]
    fn queries_are_mostly_topical_and_deduped() {
        let m = model();
        let mut rng = SimRng::new(3);
        let q = m.sample_query_terms(TopicId(2), 3, &mut rng);
        assert!(!q.is_empty() && q.len() <= 3);
        let mut sorted = q.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), q.len());
    }

    #[test]
    #[should_panic]
    fn topic_base_rejects_out_of_range() {
        model().topic_base(TopicId(8));
    }
}
