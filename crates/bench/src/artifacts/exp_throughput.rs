//! Experiment **E27**: queries/sec through the ranked-retrieval hot
//! path — the dense term-at-a-time evaluator × batched admission, on
//! the Figure-2 workload.
//!
//! The sweep drives the same Zipf query stream through a
//! document-partitioned [`DocBroker`] (8 servers, as in Figure 2) in
//! every combination of
//!
//! * **evaluator**: the hashed exhaustive reference vs the dense
//!   per-thread accumulator ([`EvalStrategy`]), and
//! * **batch size**: query-at-a-time loop vs [`DocBroker::query_batch`]
//!   (all shard tasks of a batch admitted to the scatter pool under one
//!   queue-lock acquisition).
//!
//! Three claims, all checked live:
//!
//! 1. **Bit-identical answers.** Every cell returns exactly the hits
//!    and simulated latencies of the exhaustive query-at-a-time
//!    reference — the evaluator and batching change what the work
//!    costs, never the answer (asserted per query).
//! 2. **The same work.** The dense evaluator's [`EvalStats`] counters
//!    equal the exhaustive reference's at every batch size: both read
//!    every posting of every query term, so any throughput gap between
//!    them is per-posting cost, not postings skipped.
//! 3. **Throughput.** Queries/sec per cell, the headline table. Wall
//!    clock is reported, not asserted (CI machines vary); the
//!    deterministic work counters above are the regression guard.
//!
//! Run: `cargo run -p dwr-bench --release -- E27 [--smoke]`

use crate::{Ctx, Scale};
use dwr_partition::parted::PartitionedIndex;
use dwr_query::broker::{BrokeredResponse, DocBroker};
use dwr_text::search::{EvalStats, EvalStrategy};
use dwr_text::TermId;
use std::time::Instant;

const SERVERS: usize = 8;
const POOL_THREADS: usize = 4;
const K: usize = 10;
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

struct Cell {
    strategy: EvalStrategy,
    batch: usize,
    elapsed_s: f64,
    qps: f64,
    work: EvalStats,
}

fn strategy_name(s: EvalStrategy) -> &'static str {
    match s {
        EvalStrategy::Exhaustive => "exhaustive",
        EvalStrategy::Dense => "dense",
    }
}

/// Run the whole stream through one broker configuration and measure it.
fn run_cell(
    pi: &PartitionedIndex,
    stream: &[Vec<TermId>],
    strategy: EvalStrategy,
    batch: usize,
) -> (Vec<BrokeredResponse>, Cell) {
    let broker = DocBroker::single_site(pi).with_strategy(strategy).parallel(POOL_THREADS);
    let t0 = Instant::now();
    let responses: Vec<BrokeredResponse> = if batch == 1 {
        stream.iter().map(|terms| broker.query(terms, K)).collect()
    } else {
        stream.chunks(batch).flat_map(|chunk| broker.query_batch(chunk, K)).collect()
    };
    let elapsed_s = t0.elapsed().as_secs_f64();
    let cell = Cell {
        strategy,
        batch,
        elapsed_s,
        qps: stream.len() as f64 / elapsed_s.max(1e-9),
        work: broker.eval_stats(),
    };
    (responses, cell)
}

pub(crate) fn run(ctx: &Ctx) {
    // Smoke shrinks the stream, not the corpus: both scales evaluate the
    // same multi-block shards.
    let n_queries: usize = if ctx.smoke { 2_000 } else { 10_000 };
    println!("E27. Ranked-retrieval throughput: dense evaluator x batched admission.");
    println!(
        "workload: {n_queries} Zipf queries, {SERVERS} doc-partitioned servers (Fig. 2), \
         k={K}, pool of {POOL_THREADS} workers\n"
    );

    let pi = ctx.random_index(Scale::Medium, SERVERS);
    let stream = ctx.fixture(Scale::Medium).zipf_terms(0x7_14_90, n_queries);

    // The reference every cell must reproduce bit for bit: exhaustive
    // evaluation, query-at-a-time.
    let (reference, ref_cell) = run_cell(&pi, &stream, EvalStrategy::Exhaustive, 1);

    let mut cells = vec![ref_cell];
    for strategy in [EvalStrategy::Exhaustive, EvalStrategy::Dense] {
        for batch in BATCH_SIZES {
            if strategy == EvalStrategy::Exhaustive && batch == 1 {
                continue; // the reference cell, already run
            }
            let (responses, cell) = run_cell(&pi, &stream, strategy, batch);
            for (i, (a, b)) in reference.iter().zip(&responses).enumerate() {
                assert_eq!(a.hits, b.hits, "hits diverge: {:?} batch {batch} query {i}", strategy);
                assert_eq!(a.latency, b.latency, "latency diverges: query {i}");
            }
            cells.push(cell);
        }
    }

    // Claim 2: every cell, whatever its evaluator or batch size, does the
    // reference's work exactly.
    let work = cells[0].work;
    for c in &cells {
        assert_eq!(
            c.work,
            work,
            "{} at batch {} must read exactly the reference's postings",
            strategy_name(c.strategy),
            c.batch
        );
    }

    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>14} {:>12}",
        "evaluator", "batch", "elapsed", "queries/s", "postings", "blocks dec"
    );
    for c in &cells {
        println!(
            "{:<12} {:>6} {:>8.2}s {:>12.0} {:>14} {:>12}",
            strategy_name(c.strategy),
            c.batch,
            c.elapsed_s,
            c.qps,
            c.work.postings_scanned,
            c.work.blocks_decoded,
        );
    }
    println!(
        "\ncheck: all {} cells bit-identical to the exhaustive loop ({} queries)  [ok]",
        cells.len(),
        n_queries
    );
    println!(
        "check: every cell reads the reference's {} postings in {} blocks  [ok]",
        work.postings_scanned, work.blocks_decoded
    );

    println!("\npaper shape: Section 5's query-processing bottleneck is posting-list");
    println!("traversal. At a few thousand documents per shard nearly every posting");
    println!("can still reach the top-k, so the win is a cheaper posting, not a skipped");
    println!("one: a dense per-shard accumulator reads the same postings as the hashed");
    println!("reference and returns the same answer, and batched admission amortizes");
    println!("coordinator locking on top -- the two compose because both are");
    println!("answer-preserving.");
}
