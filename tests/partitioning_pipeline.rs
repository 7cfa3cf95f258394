//! Cross-crate integration: partitioners, selectors and both distributed
//! query architectures agree with the monolithic reference index.

use distributed_web_retrieval::partition::doc::{DocPartitioner, RandomPartitioner};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::partition::quality::{global_top_k, size_balance};
use distributed_web_retrieval::partition::repart::{RepartIndex, SplitFate};
use distributed_web_retrieval::partition::select::{CollectionSelector, CoriSelector};
use distributed_web_retrieval::partition::term::{
    BinPackingTermPartitioner, QueryWorkload, TermPartitioner,
};
use distributed_web_retrieval::query::broker::DocBroker;
use distributed_web_retrieval::query::pipeline::PipelinedTermEngine;
use distributed_web_retrieval::querylog::model::QueryModel;
use distributed_web_retrieval::sim::stats::Imbalance;
use distributed_web_retrieval::sim::SimRng;
use distributed_web_retrieval::text::index::build_index;
use distributed_web_retrieval::text::score::Bm25;
use distributed_web_retrieval::text::search::search_or;
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};
use std::collections::HashSet;
use std::sync::Arc;

const K: usize = 4;
const SEED: u64 = 31337;

struct Setup {
    corpus: Vec<Vec<(TermId, u32)>>,
    queries: Vec<Vec<TermId>>,
}

fn setup() -> Setup {
    let web = generate_web(&WebConfig::tiny(), SEED);
    let content = ContentModel::small(8);
    let corpus = content.corpus(&web, SEED);
    let model = QueryModel::generate(&content, 200, 0.8, 0.9, SEED);
    let mut rng = SimRng::new(SEED);
    let queries = (0..30)
        .map(|_| {
            let q = model.sample(&mut rng);
            model.query(q).terms.clone()
        })
        .collect();
    Setup { corpus, queries }
}

#[test]
fn doc_broker_closely_tracks_monolithic_result_sets() {
    // The broker scores with *local* statistics (one-round protocol), so
    // documents at the top-k boundary may swap with near-ties — the exact
    // divergence the paper's two-round protocol exists to remove (tested
    // below). Random partitioning keeps the overlap high.
    let s = setup();
    let assignment = RandomPartitioner { seed: SEED }.assign(&s.corpus, K);
    let pi = PartitionedIndex::build(&s.corpus, &assignment, K);
    let reference = build_index(&s.corpus);
    let broker = DocBroker::single_site(&pi);
    let mut overlap_acc = 0.0;
    let mut counted = 0usize;
    for q in &s.queries {
        let got: std::collections::HashSet<u32> =
            broker.query(q, 10).hits.iter().map(|h| h.doc).collect();
        let want: Vec<u32> = search_or(&reference, q, 10, &Bm25::default(), &reference)
            .into_iter()
            .map(|h| h.doc.0)
            .collect();
        if want.is_empty() {
            continue;
        }
        let inter = want.iter().filter(|d| got.contains(d)).count();
        overlap_acc += inter as f64 / want.len() as f64;
        counted += 1;
    }
    let mean = overlap_acc / counted as f64;
    assert!(mean > 0.9, "mean top-10 overlap {mean}");
}

#[test]
fn pipelined_term_engine_matches_monolithic_exactly() {
    // The pipeline folds each document's score in pipeline order — terms
    // grouped by owning server, servers ascending — so the monolithic
    // reference over the same order agrees score for score, bit for bit.
    let s = setup();
    let reference = build_index(&s.corpus);
    let workload = QueryWorkload { queries: s.queries.iter().map(|q| (q.clone(), 1.0)).collect() };
    let assignment = BinPackingTermPartitioner.assign(&reference, &workload, K);
    let mut eng = PipelinedTermEngine::single_site(&reference, assignment.clone(), K);
    for q in &s.queries {
        let got: Vec<(u32, u32)> =
            eng.query(q, 10).hits.iter().map(|h| (h.doc, h.score.to_bits())).collect();
        let mut pipeline_order: Vec<TermId> =
            q.iter().copied().filter(|t| assignment.contains_key(&t.0)).collect();
        pipeline_order.sort_by_key(|t| assignment[&t.0]);
        let want: Vec<(u32, u32)> =
            search_or(&reference, &pipeline_order, 10, &Bm25::default(), &reference)
                .into_iter()
                .map(|h| (h.doc.0, h.score.to_bits()))
                .collect();
        assert_eq!(got, want, "query {q:?}");
    }
}

#[test]
fn two_round_protocol_restores_global_ranking() {
    // The global-statistics broker scores every shard against the sums
    // over all shards: the monolithic ranking, scores included, bit for bit.
    let s = setup();
    let assignment = RandomPartitioner { seed: SEED }.assign(&s.corpus, K);
    let pi = PartitionedIndex::build(&s.corpus, &assignment, K);
    let reference = build_index(&s.corpus);
    let global = DocBroker::single_site(&pi).with_global_stats(Arc::new(pi.global_stats()));
    for q in &s.queries {
        let want: Vec<(u32, u32)> = search_or(&reference, q, 10, &Bm25::default(), &reference)
            .into_iter()
            .map(|h| (h.doc.0, h.score.to_bits()))
            .collect();
        let got: Vec<(u32, u32)> =
            global.query(q, 10).hits.iter().map(|h| (h.doc, h.score.to_bits())).collect();
        assert_eq!(got, want, "two-round must equal monolithic for {q:?}");
    }
}

#[test]
fn local_stats_rankings_are_close_on_random_partitions() {
    // Random partitioning keeps local df proportional to global df, so the
    // one-round protocol should rarely diverge much.
    let s = setup();
    let assignment = RandomPartitioner { seed: SEED }.assign(&s.corpus, K);
    let pi = PartitionedIndex::build(&s.corpus, &assignment, K);
    let local = DocBroker::single_site(&pi);
    let global = DocBroker::single_site(&pi).with_global_stats(Arc::new(pi.global_stats()));
    let mut total = 0.0;
    for q in &s.queries {
        let l: HashSet<u32> = local.query(q, 10).hits.iter().map(|h| h.doc).collect();
        let g = global.query(q, 10).hits;
        // Overlap@10: the two top-10s' intersection over the longer list.
        let inter = g.iter().filter(|h| l.contains(&h.doc)).count();
        total += inter as f64 / l.len().max(g.len()).max(1) as f64;
    }
    let mean = total / s.queries.len() as f64;
    assert!(mean > 0.8, "mean overlap {mean}");
}

#[test]
fn post_split_children_inherit_parent_quality() {
    let s = setup();
    let assignment = RandomPartitioner { seed: SEED }.assign(&s.corpus, K);
    let before = PartitionedIndex::build(&s.corpus, &assignment, K);
    let pre_balance = size_balance(&before);

    let repart = RepartIndex::build(s.corpus.clone(), &assignment, K, K + 2);
    let parent = repart.split_target().expect("a splittable partition exists");
    let report = repart.split(parent, SplitFate::Commit).expect("capacity provisioned");
    let after = repart.snapshot();
    after.validate_epoch().expect("exactly-once invariant holds post-split");
    let children = &report.children;

    // Balance over the *active* layout. A split of the largest
    // partition into near-equal halves (the pippin discipline) cannot
    // raise the max, and only shifts the mean by the +1-partition
    // factor; the max/mean ratio is therefore bounded by exactly that.
    let sizes = after.sizes();
    let (c0, c1) = (sizes[children[0] as usize], sizes[children[1] as usize]);
    assert_eq!(c0 + c1, report.docs_split, "children partition the parent's documents");
    assert!(c0.abs_diff(c1) <= 1, "children are near-equal halves: {c0} vs {c1}");
    let active_sizes: Vec<f64> =
        after.active_parts().iter().map(|&p| sizes[p as usize] as f64).collect();
    let post_balance = Imbalance::of(&active_sizes);
    let mean_shift = (K as f64 + 1.0) / K as f64;
    assert!(
        post_balance.max_over_mean <= pre_balance.max_over_mean * mean_shift + 1e-9,
        "balance degraded beyond the mean shift: {} -> {}",
        pre_balance.max_over_mean,
        post_balance.max_over_mean
    );

    // Recall@partitions is inherited exactly: a global-top-k doc lived
    // in the parent iff it now lives in one of its children, so any
    // selection that swaps the parent for its children sees identical
    // recall (ε = 0), query by query.
    let reference = build_index(&s.corpus);
    for q in &s.queries {
        let topk = global_top_k(&reference, q, 10);
        let in_parent = topk.iter().filter(|&&d| before.partition_of(d) == parent).count();
        let in_children =
            topk.iter().filter(|&&d| children.contains(&after.partition_of(d))).count();
        assert_eq!(in_parent, in_children, "recall moved across the split for {q:?}");
        // Untouched partitions keep their documents verbatim.
        for &d in &topk {
            if before.partition_of(d) != parent {
                assert_eq!(before.partition_of(d), after.partition_of(d));
            }
        }
    }
}

#[test]
fn cori_selection_prunes_work_without_losing_everything() {
    let s = setup();
    let assignment = RandomPartitioner { seed: SEED }.assign(&s.corpus, K);
    let pi = PartitionedIndex::build(&s.corpus, &assignment, K);
    let cori = CoriSelector::from_partitions(&pi);
    let broker = DocBroker::single_site(&pi);
    for q in &s.queries {
        let full = broker.query(q, 10);
        let top2: Vec<u32> = cori.rank(q).into_iter().take(2).map(|(p, _)| p).collect();
        let pruned = broker.query_selected(q, 10, &top2);
        assert_eq!(pruned.partitions_used, 2);
        if !full.hits.is_empty() {
            // Random partitions spread answers, so half the partitions
            // must still return something for non-empty queries.
            assert!(!pruned.hits.is_empty(), "selection lost everything for {q:?}");
        }
    }
}
