//! Property-based tests of partitioning invariants.

use dwr_partition::doc::{
    DocPartitioner, KMeansPartitioner, RandomPartitioner, RoundRobinPartitioner,
};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_partition::repart::{PartStatus, RepartIndex, SplitFate, SPLIT_FANOUT};
use dwr_partition::select::{CollectionSelector, CoriSelector};
use dwr_partition::term::{
    BinPackingTermPartitioner, CoOccurrenceTermPartitioner, QueryWorkload, RandomTermPartitioner,
    TermPartitioner,
};
use dwr_text::index::build_index;
use dwr_text::score::{CollectionStats, GlobalStats};
use dwr_text::{DocId, TermId};
use proptest::prelude::*;
use std::collections::HashMap;

/// A document: up to 12 distinct terms below 100, each with tf 1..4.
fn doc_strategy() -> impl Strategy<Value = Vec<(TermId, u32)>> {
    prop::collection::btree_map(0u32..100, 1u32..4, 0..12)
        .prop_map(|m| m.into_iter().map(|(t, tf)| (TermId(t), tf)).collect())
}

fn corpus_strategy() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(doc_strategy(), 1..60)
}

/// Up to 40 documents assigned to `k ∈ 1..=12` shards, about half of them
/// piled onto shard 0: `k` above the document count, empty shards and
/// skewed shards all come up.
fn assigned_corpus_strategy() -> impl Strategy<Value = (Corpus, Vec<u32>, usize)> {
    (
        prop::collection::vec(doc_strategy(), 0..40),
        1usize..13,
        prop::collection::vec(any::<u32>(), 40),
    )
        .prop_map(|(corpus, k, raw)| {
            let spread = |r: u32| if r.is_multiple_of(2) { 0 } else { (r / 2) % k as u32 };
            let assignment = raw[..corpus.len()].iter().map(|&r| spread(r)).collect();
            (corpus, assignment, k)
        })
}

/// CORI as it was first written, a reference for [`CoriSelector`]: each
/// slot's df copied into a hash table, and `cf` counted into another.
/// Every slot is a collection, closed split parents included.
struct TableCori {
    df: Vec<HashMap<u32, u64>>,
    cw: Vec<f64>,
    avg_cw: f64,
    cf: HashMap<u32, u32>,
}

impl TableCori {
    fn new(pi: &PartitionedIndex) -> Self {
        let k = pi.num_partitions();
        let (mut df, mut cw, mut cf) = (Vec::new(), Vec::new(), HashMap::new());
        for p in 0..k {
            let idx = pi.part(p);
            let mut local = HashMap::new();
            for (t, list) in idx.terms() {
                local.insert(t.0, u64::from(list.df()));
                *cf.entry(t.0).or_insert(0) += 1;
            }
            cw.push(idx.avg_doc_len() * f64::from(idx.num_docs()));
            df.push(local);
        }
        let avg_cw = (cw.iter().sum::<f64>() / k as f64).max(1.0);
        TableCori { df, cw, avg_cw, cf }
    }

    fn belief(&self, c: usize, term: TermId) -> f64 {
        let b = 0.4;
        let df = self.df[c].get(&term.0).copied().unwrap_or(0) as f64;
        let num_collections = self.df.len() as f64;
        let cf = self.cf.get(&term.0).copied().unwrap_or(0) as f64;
        if cf == 0.0 {
            return b;
        }
        let t = df / (df + 50.0 + 150.0 * self.cw[c] / self.avg_cw);
        let i = ((num_collections + 0.5) / cf).ln() / (num_collections + 1.0).ln();
        b + (1.0 - b) * t * i
    }

    /// Every slot with its score, best first, ties by lower slot id.
    fn rank(&self, terms: &[TermId]) -> Vec<(u32, u64)> {
        let mut scores: Vec<(u32, f64)> = (0..self.df.len())
            .map(|c| {
                let s = if terms.is_empty() {
                    0.0
                } else {
                    terms.iter().map(|&t| self.belief(c, t)).sum::<f64>() / terms.len() as f64
                };
                (c as u32, s)
            })
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scores.into_iter().map(|(c, s)| (c, s.to_bits())).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every document partitioner produces a total, in-range assignment.
    #[test]
    fn doc_assignments_valid(corpus in corpus_strategy(), k in 1usize..8, seed in any::<u64>()) {
        let partitioners: Vec<Box<dyn DocPartitioner>> = vec![
            Box::new(RandomPartitioner { seed }),
            Box::new(RoundRobinPartitioner),
            Box::new(KMeansPartitioner { buckets: 16, iterations: 4, seed }),
        ];
        for p in &partitioners {
            let a = p.assign(&corpus, k);
            prop_assert_eq!(a.len(), corpus.len(), "{}", p.name());
            prop_assert!(a.iter().all(|&x| (x as usize) < k), "{}", p.name());
        }
    }

    /// A partitioned index preserves global statistics: per-term global df
    /// equals the monolithic df, and partition sizes sum to the corpus.
    #[test]
    fn partitioned_index_preserves_stats(corpus in corpus_strategy(), k in 1usize..6, seed in any::<u64>()) {
        let assignment = RandomPartitioner { seed }.assign(&corpus, k);
        let pi = PartitionedIndex::build(&corpus, &assignment, k);
        prop_assert_eq!(pi.sizes().iter().sum::<usize>(), corpus.len());
        prop_assert_eq!(pi.global_stats(), GlobalStats::sum([&build_index(&corpus)]));
    }

    /// Shards are built on workers, yet each is byte for byte the index
    /// `build_index` gives its own documents in local order (arena,
    /// directory and document lengths), and maps its local ids to those
    /// documents' global ids.
    #[test]
    fn shard_builds_equal_building_each_shards_documents(
        (corpus, assignment, k) in assigned_corpus_strategy(),
    ) {
        let pi = PartitionedIndex::build(&corpus, &assignment, k);
        prop_assert_eq!(pi.num_partitions(), k);
        for (p, shard) in pi.shards().iter().enumerate() {
            let globals: Vec<u32> =
                (0..corpus.len() as u32).filter(|&g| assignment[g as usize] == p as u32).collect();
            let global_of: Vec<u32> =
                (0..shard.num_docs() as u32).map(|l| shard.to_global(DocId(l))).collect();
            prop_assert_eq!(&global_of, &globals, "global ids of shard {}", p);
            let docs: Corpus = globals.iter().map(|&g| corpus[g as usize].clone()).collect();
            prop_assert_eq!(shard.index(), &build_index(&docs), "shard {}", p);
        }
    }

    /// `RepartIndex` sums its statistics from its shards, and they are a
    /// direct count of the corpus: every term's df (an absent term's is
    /// 0), the document count, and the average length to the bit.
    #[test]
    fn corpus_stats_equal_a_direct_count((corpus, assignment, k) in assigned_corpus_strategy()) {
        let (mut df, mut tokens) = ([0u64; 100], 0u64);
        for &(t, tf) in corpus.iter().flatten() {
            df[t.0 as usize] += 1;
            tokens += u64::from(tf);
        }
        let n = corpus.len() as u64;
        let avg = if n == 0 { 0.0 } else { tokens as f64 / n as f64 };
        let stats = RepartIndex::build(corpus, &assignment, k, k).corpus_stats();
        prop_assert_eq!(stats.num_docs(), n);
        prop_assert_eq!(stats.avg_doc_len().to_bits(), avg.to_bits());
        for (t, &want) in df.iter().enumerate() {
            prop_assert_eq!(stats.df(TermId(t as u32)), want, "df(term {})", t);
        }
        prop_assert_eq!(stats.df(TermId(100)), 0);
        prop_assert_eq!(stats.df(TermId(u32::MAX)), 0);
    }

    /// A split filters its parent's posting lists, and that is a rebuild:
    /// after each of three successive splits of the largest active shard,
    /// both children are byte for byte the index `build_index` gives their
    /// documents — the whole arena, term directory and document lengths —
    /// and the map validates.
    #[test]
    fn split_children_equal_building_their_documents(
        corpus in corpus_strategy(),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let assignment = RandomPartitioner { seed }.assign(&corpus, k);
        let mut pi = PartitionedIndex::build(&corpus, &assignment, k);
        for _ in 0..3 {
            let sizes = pi.sizes();
            let Some(parent) = pi
                .active_parts()
                .into_iter()
                .filter(|&p| sizes[p as usize] >= SPLIT_FANOUT)
                .max_by_key(|&p| (sizes[p as usize], std::cmp::Reverse(p)))
            else {
                break;
            };
            pi = pi.with_split(parent).expect("an active shard of two docs splits");
            prop_assert!(pi.validate_epoch().is_ok(), "{:?}", pi.validate_epoch());
            let PartStatus::Closed { children } = &pi.map().entry(parent).expect("parent").status
            else {
                panic!("a split closes its parent");
            };
            for &c in children {
                let shard = pi.shard(c as usize);
                let docs: Corpus = (0..shard.num_docs() as u32)
                    .map(|l| corpus[shard.to_global(DocId(l)) as usize].clone())
                    .collect();
                prop_assert_eq!(shard.index(), &build_index(&docs), "child {} of {}", c, parent);
            }
        }
    }

    /// Global/local doc-id translation is a bijection.
    #[test]
    fn id_translation_roundtrips(corpus in corpus_strategy(), k in 1usize..6, seed in any::<u64>()) {
        let assignment = RandomPartitioner { seed }.assign(&corpus, k);
        let pi = PartitionedIndex::build(&corpus, &assignment, k);
        for g in 0..corpus.len() as u32 {
            let (p, local) = pi.to_local(g);
            prop_assert_eq!(pi.to_global(p as usize, local), g);
        }
    }

    /// Term partitioners assign every indexed term to a valid server.
    #[test]
    fn term_assignments_valid(corpus in corpus_strategy(), k in 1usize..6) {
        let idx = build_index(&corpus);
        let workload = QueryWorkload {
            queries: vec![(vec![TermId(0), TermId(1)], 2.0), (vec![TermId(2)], 1.0)],
        };
        let partitioners: Vec<Box<dyn TermPartitioner>> = vec![
            Box::new(RandomTermPartitioner),
            Box::new(BinPackingTermPartitioner),
            Box::new(CoOccurrenceTermPartitioner::default()),
        ];
        for p in &partitioners {
            let a = p.assign(&idx, &workload, k);
            prop_assert_eq!(a.len(), idx.num_terms(), "{}", p.name());
            prop_assert!(a.values().all(|&s| (s as usize) < k), "{}", p.name());
        }
    }

    /// Greedy bin-packing never loads any server with more than the total
    /// weight minus what the emptiest holds... weaker but useful: the
    /// max-loaded bin under bin-packing is no worse than under the
    /// hash-random assignment for the same inputs.
    #[test]
    fn binpacking_no_worse_than_random(corpus in corpus_strategy(), k in 2usize..6) {
        let idx = build_index(&corpus);
        prop_assume!(idx.num_terms() >= k);
        let terms: Vec<TermId> = idx.terms().map(|(t, _)| t).collect();
        let workload = QueryWorkload {
            queries: terms.iter().map(|&t| (vec![t], 1.0)).collect(),
        };
        let eval = |a: &std::collections::HashMap<u32, u32>| {
            dwr_partition::term::evaluate_term_partition(&idx, &workload, a, k)
                .load
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
        };
        let packed = eval(&BinPackingTermPartitioner.assign(&idx, &workload, k));
        let random = eval(&RandomTermPartitioner.assign(&idx, &workload, k));
        prop_assert!(packed <= random + 1e-6, "packed={packed} random={random}");
    }

    /// CORI read from the term directories ranks every slot in the order,
    /// and with the score bits, of the table-built reference: on random
    /// layouts (empty and skewed shards included), and on a live index
    /// after up to three committed splits, whose closed parents stay
    /// collections. The queries mix indexed terms, terms absent from
    /// every slot (ids 100 and up, `cf = 0`), a repeated term and the
    /// empty query.
    #[test]
    fn cori_equals_the_table_built_reference(
        (corpus, assignment, k) in assigned_corpus_strategy(),
        splits in 0usize..4,
        queries in prop::collection::vec(prop::collection::vec(0u32..110, 1..6), 1..8),
    ) {
        let live = RepartIndex::build(corpus, &assignment, k, k + splits * SPLIT_FANOUT);
        for _ in 0..splits {
            let Some(parent) = live.split_target() else { break };
            live.split(parent, SplitFate::Commit).expect("room was provisioned");
        }
        let snap = live.snapshot();
        let (cori, reference) = (CoriSelector::from_partitions(&snap), TableCori::new(&snap));
        let mut asked: Vec<Vec<TermId>> = vec![Vec::new(), vec![TermId(u32::MAX)]];
        for q in &queries {
            let terms: Vec<TermId> = q.iter().map(|&t| TermId(t)).collect();
            asked.push([&terms[..], &terms[..1]].concat());
            asked.push(terms);
        }
        for terms in &asked {
            let got: Vec<(u32, u64)> =
                cori.rank(terms).into_iter().map(|(c, s)| (c, s.to_bits())).collect();
            prop_assert_eq!(got, reference.rank(terms), "query {:?}, epoch {}", terms, snap.epoch());
        }
    }
}
