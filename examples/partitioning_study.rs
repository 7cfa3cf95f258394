//! Compare document-partitioning strategies and collection selection on
//! one corpus — a miniature of the Section 4 design space.
//!
//! ```sh
//! cargo run --example partitioning_study --release
//! ```

use distributed_web_retrieval::partition::doc::{
    DocPartitioner, KMeansPartitioner, QueryDrivenPartitioner, RandomPartitioner,
    RoundRobinPartitioner, TrainingResults,
};
use distributed_web_retrieval::partition::parted::PartitionedIndex;
use distributed_web_retrieval::partition::quality::{recall_curve, size_balance};
use distributed_web_retrieval::partition::select::{
    CollectionSelector, CoriSelector, QueryDrivenSelector,
};
use distributed_web_retrieval::querylog::model::QueryModel;
use distributed_web_retrieval::sim::SimRng;
use distributed_web_retrieval::text::index::build_index;
use distributed_web_retrieval::text::score::Bm25;
use distributed_web_retrieval::text::search::search_or;
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::generate::{generate_web, WebConfig};

const K: usize = 6;

fn main() {
    let seed = 77;
    let web = generate_web(&WebConfig::tiny(), seed);
    let content = ContentModel::small(8);
    let corpus = content.corpus(&web, seed);
    let queries = QueryModel::generate(&content, 800, 0.8, 0.9, seed);
    let reference = build_index(&corpus);

    // Replay a training stream for the query-driven system.
    let mut rng = SimRng::new(seed);
    let mut counts = std::collections::HashMap::new();
    for _ in 0..4_000 {
        *counts.entry(queries.sample(&mut rng)).or_insert(0u64) += 1;
    }
    let training = TrainingResults {
        queries: counts
            .iter()
            .map(|(&q, &c)| {
                let terms = queries.query(q).terms.clone();
                let docs = search_or(&reference, &terms, 10, &Bm25::default(), &reference)
                    .into_iter()
                    .map(|h| h.doc.0)
                    .collect();
                (terms, c as f64, docs)
            })
            .collect(),
    };
    println!(
        "training: {} distinct queries; {:.1}% of docs never recalled",
        training.queries.len(),
        100.0 * training.never_recalled_fraction(corpus.len())
    );

    let test: Vec<Vec<TermId>> = (0..150)
        .map(|_| {
            let q = queries.sample(&mut rng);
            queries.query(q).terms.clone()
        })
        .collect();

    println!(
        "\n{:<26} {:>9} {:>8} | recall@1 recall@2 recall@{K}",
        "partitioner + selector", "max/mean", "gini"
    );
    let study = |name: &str, assignment: Vec<u32>, selector: &dyn CollectionSelector| {
        let pi = PartitionedIndex::build(&corpus, &assignment, K);
        let b = size_balance(&pi);
        let curve = recall_curve(&pi, selector, &reference, &test, 10);
        println!(
            "{:<26} {:>9.2} {:>8.3} | {:>7.1}% {:>7.1}% {:>7.1}%",
            name,
            b.max_over_mean,
            b.gini,
            100.0 * curve[0],
            100.0 * curve[1],
            100.0 * curve[K - 1]
        );
    };

    let rr = RoundRobinPartitioner.assign(&corpus, K);
    let rr_pi = PartitionedIndex::build(&corpus, &rr, K);
    study("round-robin + CORI", rr.clone(), &CoriSelector::from_partitions(&rr_pi));

    let rnd = RandomPartitioner { seed }.assign(&corpus, K);
    let rnd_pi = PartitionedIndex::build(&corpus, &rnd, K);
    study("random + CORI", rnd, &CoriSelector::from_partitions(&rnd_pi));

    let km = KMeansPartitioner::default().assign(&corpus, K);
    let km_pi = PartitionedIndex::build(&corpus, &km, K);
    study("k-means + CORI", km, &CoriSelector::from_partitions(&km_pi));

    let qd = QueryDrivenPartitioner { training: training.clone(), iterations: 15, seed };
    let qd_assign = qd.assign(&corpus, K);
    let qd_sel = QueryDrivenSelector::train(&training, &qd_assign, K);
    study("query-driven co-cluster", qd_assign, &qd_sel);

    println!("\nreading: balanced partitions (max/mean ~ 1) need all K partitions for full");
    println!("recall; structured partitions trade balance for selective recall — the");
    println!("Section 4 tension between load balance and collection selection.");
}
