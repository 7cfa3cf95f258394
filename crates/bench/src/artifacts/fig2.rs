//! Regenerate **Figure 2**: distribution of the average busy load per
//! processor in a document-partitioned vs. a pipelined term-partitioned IR
//! system (after Webber et al. \[16\]).
//!
//! The paper's point is structural: with 8 homogeneous servers, document
//! partitioning keeps every server near the mean busy load (dashed line),
//! while pipelined term partitioning concentrates load on the servers
//! owning popular terms. We drive both architectures, implemented in
//! `dwr-query`, with the same Zipf query stream over the same corpus.
//!
//! Run: `cargo run -p dwr-bench --release -- F2`

use crate::{bar, Ctx, Scale};
use dwr_partition::term::{QueryWorkload, RandomTermPartitioner, TermPartitioner};
use dwr_query::broker::DocBroker;
use dwr_query::pipeline::PipelinedTermEngine;
use dwr_sim::stats::Imbalance;
use dwr_text::index::build_index;

const SERVERS: usize = 8;
const QUERIES: usize = 5_000;

pub(crate) fn run(ctx: &Ctx) {
    println!("Figure 2. Average busy load per processor: document-partitioned (left)");
    println!("vs pipelined term-partitioned (right), 8 servers, same Zipf query stream.");
    println!("(dashed line = mean = 1.0 after normalization)\n");

    let f = ctx.fixture(Scale::Medium);
    // Sample the query stream once, reuse for both systems.
    let stream = f.zipf_terms(0x0F16, QUERIES);

    // --- Document-partitioned system. ---
    let pi = ctx.random_index(Scale::Medium, SERVERS);
    let doc_broker = DocBroker::single_site(&pi);
    for terms in &stream {
        doc_broker.query(terms, 10);
    }
    let doc_load = doc_broker.busy_load_normalized();

    // --- Pipelined term-partitioned system (random term assignment, as in
    // the figure's source, which predates the bin-packing fix). ---
    let global = build_index(&f.corpus);
    let workload = QueryWorkload { queries: stream.iter().map(|t| (t.clone(), 1.0)).collect() };
    let term_assign = RandomTermPartitioner.assign(&global, &workload, SERVERS);
    let mut pipe = PipelinedTermEngine::single_site(&global, term_assign, SERVERS);
    for terms in &stream {
        pipe.query(terms, 10);
    }
    let term_load = pipe.busy_load_normalized();

    println!("{:<8} {:<32} {:<32}", "server", "document partitioned", "pipelined term partitioned");
    for s in 0..SERVERS {
        println!(
            "{:<8} {:>5.2} |{} {:>5.2} |{}",
            s,
            doc_load[s],
            bar(doc_load[s], 3.0, 24),
            term_load[s],
            bar(term_load[s], 3.0, 24),
        );
    }
    let di = Imbalance::of(&doc_load);
    let ti = Imbalance::of(&term_load);
    println!("\n{:<28} {:>10} {:>10}", "", "doc-part", "term-part");
    println!("{:<28} {:>10.3} {:>10.3}", "max/mean busy load", di.max_over_mean, ti.max_over_mean);
    println!("{:<28} {:>10.3} {:>10.3}", "coefficient of variation", di.cv, ti.cv);
    println!("{:<28} {:>10.3} {:>10.3}", "Gini coefficient", di.gini, ti.gini);
    println!("\npaper shape: doc-partitioned servers all near the dashed mean;");
    println!("term-partitioned shows 'an evident lack of balance' -- reproduced when");
    println!("max/mean(term) >> max/mean(doc): {:.2} vs {:.2}", ti.max_over_mean, di.max_over_mean);
}
