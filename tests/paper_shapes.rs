//! Regression tests pinning the paper's headline *shapes* at small scale.
//!
//! The full experiments live in `dwr-bench` (`regen`); these tests keep the
//! central qualitative results under CI so a refactor cannot silently
//! invert a conclusion. Each test states the paper claim it guards.

use distributed_web_retrieval::partition::doc::{DocPartitioner, RandomPartitioner};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::partition::term::{
    evaluate_term_partition, BinPackingTermPartitioner, QueryWorkload, RandomTermPartitioner,
    TermPartitioner,
};
use distributed_web_retrieval::query::broker::DocBroker;
use distributed_web_retrieval::query::pipeline::PipelinedTermEngine;
use distributed_web_retrieval::querylog::model::QueryModel;
use distributed_web_retrieval::queueing::ggc::GgcModel;
use distributed_web_retrieval::sim::stats::Imbalance;
use distributed_web_retrieval::sim::SimRng;
use distributed_web_retrieval::text::index::build_index;
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};

const SEED: u64 = 20070415;
const SERVERS: usize = 8;

struct World {
    corpus: Vec<Vec<(TermId, u32)>>,
    stream: Vec<Vec<TermId>>,
}

fn world() -> World {
    let web = generate_web(&WebConfig::tiny(), SEED);
    let content = ContentModel::small(8);
    let corpus = content.corpus(&web, SEED);
    let model = QueryModel::generate(&content, 800, 0.8, 0.9, SEED);
    let mut rng = SimRng::new(SEED);
    let stream = (0..1_500)
        .map(|_| {
            let q = model.sample(&mut rng);
            model.query(q).terms.clone()
        })
        .collect();
    World { corpus, stream }
}

/// Figure 2's core contrast: the same Zipf stream leaves document
/// partitioning balanced and pipelined term partitioning visibly skewed.
#[test]
fn figure2_shape_doc_balanced_term_skewed() {
    let w = world();
    let assignment = RandomPartitioner { seed: SEED }.assign(&w.corpus, SERVERS);
    let pi = PartitionedIndex::build(&w.corpus, &assignment, SERVERS);
    let broker = DocBroker::single_site(&pi);
    for q in &w.stream {
        broker.query(q, 10);
    }
    let doc = Imbalance::of(&broker.busy_load_normalized());

    let global = build_index(&w.corpus);
    let workload = QueryWorkload { queries: w.stream.iter().map(|q| (q.clone(), 1.0)).collect() };
    let term_assign = RandomTermPartitioner.assign(&global, &workload, SERVERS);
    let mut pipe = PipelinedTermEngine::single_site(&global, term_assign, SERVERS);
    for q in &w.stream {
        pipe.query(q, 10);
    }
    let term = Imbalance::of(&pipe.busy_load_normalized());

    // Thresholds are small-scale-safe; the full-scale contrast (1.01 vs
    // 2.34 at 20k docs) lives in the fig2 binary.
    assert!(doc.max_over_mean < 1.15, "doc partitioning balanced: {doc:?}");
    assert!(term.max_over_mean > 1.25, "term partitioning skewed: {term:?}");
    assert!(term.cv > 3.0 * doc.cv, "doc cv={} term cv={}", doc.cv, term.cv);
}

/// Moffat et al.'s fix: bin-packing flattens the term-partition load.
#[test]
fn binpacking_shape_flattens_term_load() {
    let w = world();
    let global = build_index(&w.corpus);
    let workload = QueryWorkload { queries: w.stream.iter().map(|q| (q.clone(), 1.0)).collect() };
    let random = evaluate_term_partition(
        &global,
        &workload,
        &RandomTermPartitioner.assign(&global, &workload, SERVERS),
        SERVERS,
    );
    let packed = evaluate_term_partition(
        &global,
        &workload,
        &BinPackingTermPartitioner.assign(&global, &workload, SERVERS),
        SERVERS,
    );
    let g_random = Imbalance::of(&random.load).gini;
    let g_packed = Imbalance::of(&packed.load).gini;
    assert!(g_packed < g_random / 2.0, "packed={g_packed} random={g_random}");
}

/// Figure 6's anchors: 15 q/ms at 10 ms service, ~1.5 at 100 ms.
#[test]
fn figure6_shape_capacity_anchors() {
    let at10 = GgcModel::front_end_150(0.010).max_capacity() / 1000.0;
    let at100 = GgcModel::front_end_150(0.100).max_capacity() / 1000.0;
    assert!((at10 - 15.0).abs() < 1e-9);
    assert!((at100 - 1.5).abs() < 1e-9);
}

/// The introduction's arithmetic: ~3,000 machines per cluster, >= 30,000
/// overall, > $100M.
#[test]
fn intro_cost_model_shape() {
    let r = distributed_web_retrieval::queueing::cost::CostModel::paper_2007().evaluate();
    assert!((r.machines_per_cluster - 3_000.0).abs() <= 1.0);
    assert!(r.total_machines >= 30_000.0);
    assert!(r.hardware_dollars > 100e6);
}

/// Figure 5's anchor: ~10 of 16 sites see an outage in an average month.
#[test]
fn figure5_shape_site_outage_rate() {
    use distributed_web_retrieval::avail::monthly::{availability_histogram, monthly_availability};
    use distributed_web_retrieval::avail::site::SiteConfig;
    let sites: Vec<SiteConfig> = (0..16).map(|_| SiteConfig::birn_like(2)).collect();
    let mut acc = 0.0;
    let runs = 6;
    for r in 0..runs {
        let m = monthly_availability(&sites, 8, SEED + r);
        acc += availability_histogram(&m, &[1.0])[0];
    }
    let avg = acc / runs as f64;
    assert!((avg - 10.0).abs() < 2.0, "avg sites with outage = {avg}");
}
