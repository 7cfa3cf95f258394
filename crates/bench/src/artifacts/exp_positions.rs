//! Experiment **E13**: phrase search and the positional communication tax
//! (Section 5, communication).
//!
//! "When position information is used for proximity or phrase search,
//! however, the communication overhead between servers increases greatly
//! because it includes both the position of terms and the partially
//! resolved query."
//!
//! Asserted: positional bytes exceed plain bytes; no query has more
//! phrase matches than AND matches; and every phrase answer equals a
//! brute-force scan of the token streams.
//!
//! Run: `cargo run -p dwr-bench --release -- E13`

use crate::{Ctx, Scale, SEED};
use dwr_sim::SimRng;
use dwr_text::index::build_index;
use dwr_text::positions::PositionalIndex;
use dwr_webgraph::graph::TopicId;

pub(crate) fn run(ctx: &Ctx) {
    println!("E13. Positional postings: index/communication overhead and phrase search.\n");
    let f = ctx.fixture(Scale::Small);

    // Re-expand the corpus into token sequences (positions need order).
    let rng = SimRng::new(SEED ^ 0x905);
    let docs: Vec<Vec<u32>> = f
        .corpus
        .iter()
        .enumerate()
        .map(|(d, tf)| {
            // Reconstruct a token stream consistent with the tf vector by
            // interleaving occurrences pseudo-randomly.
            let mut stream: Vec<u32> =
                tf.iter().flat_map(|&(t, c)| std::iter::repeat_n(t.0, c as usize)).collect();
            let mut doc_rng = rng.fork(d as u64);
            doc_rng.shuffle(&mut stream);
            stream
        })
        .collect();

    let plain = build_index(&f.corpus);
    let positional = PositionalIndex::build(&docs);
    assert!(positional.encoded_bytes() > plain.encoded_bytes(), "positions cost bytes");
    println!("index size (2k docs):");
    println!("  plain postings (doc+tf):   {:>9.1} KB", plain.encoded_bytes() as f64 / 1024.0);
    println!("  positional postings:       {:>9.1} KB", positional.encoded_bytes() as f64 / 1024.0);
    println!(
        "  position overhead:          {:>8.1}x",
        positional.encoded_bytes() as f64 / plain.encoded_bytes() as f64
    );
    println!("\n(the pipelined term-partitioned engine ships slices of these lists between");
    println!("stages — the same factor multiplies its inter-server traffic for phrase");
    println!("queries, which is the paper's point about compressing positions well)\n");

    // Phrase queries: adjacent topical term pairs.
    let mut rng = SimRng::new(SEED ^ 0xF7A5E);
    let mut attempted = 0u32;
    let mut matched = 0u32;
    let mut and_docs = 0u64;
    let mut phrase_docs = 0u64;
    for _ in 0..200 {
        let topic = TopicId(rng.below(8) as u16);
        let q = f.content.sample_query_terms(topic, 2, &mut rng);
        if q.len() < 2 {
            continue;
        }
        attempted += 1;
        let phrase: Vec<u32> = q.iter().map(|t| t.0).collect();
        let ph = positional.phrase_search(&phrase);
        // Boolean AND baseline (same terms, no adjacency).
        let a = dwr_text::search::search_and(
            &plain,
            &q,
            10_000,
            &dwr_text::score::Bm25::default(),
            &plain,
        );
        assert!(ph.len() <= a.len(), "phrase {phrase:?} matches more than its AND");
        let scanned: Vec<u32> = (0..docs.len() as u32)
            .filter(|&d| docs[d as usize].windows(phrase.len()).any(|w| w == phrase))
            .collect();
        assert_eq!(ph.iter().map(|d| d.0).collect::<Vec<_>>(), scanned, "phrase {phrase:?}");
        and_docs += a.len() as u64;
        phrase_docs += ph.len() as u64;
        if !ph.is_empty() {
            matched += 1;
        }
    }
    println!("phrase vs Boolean AND over {attempted} two-term topical queries:");
    println!("  AND matches/query:      {:>8.1}", and_docs as f64 / f64::from(attempted));
    println!("  phrase matches/query:   {:>8.1}", phrase_docs as f64 / f64::from(attempted));
    println!("  queries with any phrase hit: {matched} of {attempted}");
    println!("\nshape: positional data costs a small-integer factor in index and transfer");
    println!("bytes, and exact-phrase semantics prune the AND result set hard.");
}
