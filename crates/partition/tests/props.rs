//! Property-based tests of partitioning invariants.

use dwr_partition::doc::{
    DocPartitioner, KMeansPartitioner, RandomPartitioner, RoundRobinPartitioner,
};
use dwr_partition::parted::{Corpus, PartitionedIndex};
use dwr_partition::repart::{CorpusStats, PartStatus, RepartIndex, SPLIT_FANOUT};
use dwr_partition::term::{
    BinPackingTermPartitioner, CoOccurrenceTermPartitioner, QueryWorkload, RandomTermPartitioner,
    TermPartitioner,
};
use dwr_text::index::{build_index, InvertedIndex};
use dwr_text::score::{Bm25, CollectionStats};
use dwr_text::{DocId, PostingList, TermId};
use proptest::prelude::*;

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

/// The first difference between two indexes, compared bit for bit:
/// document lengths, token total, the term set, and per term the encoded
/// bytes, `last_doc` ladder, df and cf.
fn index_diff(a: &InvertedIndex, b: &InvertedIndex) -> Option<String> {
    let lens = |i: &InvertedIndex| -> Vec<u32> {
        (0..i.num_docs()).map(|d| i.doc_len(DocId(d))).collect()
    };
    let ladder = |l: &PostingList| -> Vec<u32> { l.blocks().iter().map(|m| m.last_doc).collect() };
    if lens(a) != lens(b) || a.total_tokens() != b.total_tokens() {
        return Some("document lengths".into());
    }
    if a.num_terms() != b.num_terms() {
        return Some(format!("{} terms against {}", a.num_terms(), b.num_terms()));
    }
    a.terms().find_map(|(t, l)| {
        let same = b.postings(t).is_some_and(|lb| {
            l.encoded()[..] == lb.encoded()[..]
                && ladder(l) == ladder(lb)
                && (l.df(), l.cf()) == (lb.df(), lb.cf())
        });
        (!same).then(|| format!("term {}", t.0))
    })
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
        let mono = build_index(&corpus);
        for (t, list) in mono.terms() {
            prop_assert_eq!(pi.global_df(t), u64::from(list.df()));
        }
    }

    /// Shards are built on workers, yet each is bit for bit the index
    /// `build_index` gives its own documents in local order, and maps its
    /// local ids to those documents' global ids.
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
            let diff = index_diff(shard.index(), &build_index(&docs));
            prop_assert!(diff.is_none(), "shard {}: {:?}", p, diff);
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
    /// both children are bit for bit the index `build_index` gives their
    /// documents, and the map validates.
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
                let diff = index_diff(shard.index(), &build_index(&docs));
                prop_assert!(diff.is_none(), "child {} of {}: {:?}", c, parent, diff);
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

    /// The hoisted `TermScorer` is BM25's inline per-posting formula (the
    /// one written out below), bit for bit, under the corpus-frozen
    /// `CorpusStats` — `df = 0`, `df > n/2` and `avg < 1` included. The
    /// other two statistics sources are covered by the same property in
    /// `crates/text/tests/props.rs`.
    #[test]
    fn term_scorer_matches_inline_formula_under_corpus_stats(
        shape in (1usize..48, 0usize..48, 1u32..9),
        pad in prop::collection::vec(0u32..8, 48),
        tf in 1u32..1000,
        doc_len in 0u32..100_000,
    ) {
        let (n, df, thin) = shape;
        // The first `df % (n + 1)` documents hold term 0 once; term 1 pads
        // thinly enough that the average length can fall below 1.
        let corpus: Corpus = (0..n)
            .map(|i| {
                let mut doc = Vec::new();
                if i < df % (n + 1) {
                    doc.push((TermId(0), 1));
                }
                if pad[i] / thin > 0 {
                    doc.push((TermId(1), pad[i] / thin));
                }
                doc
            })
            .collect();
        let stats = CorpusStats::clone(&RepartIndex::build(corpus, &vec![0; n], 1, 1).corpus_stats());
        let bm = Bm25::default();
        // Term 9 is in no document: df = 0.
        for term in [TermId(0), TermId(1), TermId(9)] {
            let n = stats.num_docs() as f64;
            let df = stats.df(term) as f64;
            let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln().max(0.0);
            let avg = stats.avg_doc_len().max(1.0);
            let tff = f64::from(tf);
            let norm = bm.k1 * (1.0 - bm.b + bm.b * f64::from(doc_len) / avg);
            let want = idf * tff * (bm.k1 + 1.0) / (tff + norm);
            let scorer = bm.term_scorer(&stats, term);
            prop_assert_eq!(scorer.score(tf, doc_len).to_bits(), want.to_bits());
            prop_assert_eq!(bm.score(&stats, term, tf, doc_len).to_bits(), want.to_bits());
        }
    }
}
