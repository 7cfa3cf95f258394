//! Regenerate **Figure 1**: the two partitionings of the T×D matrix.
//!
//! The paper's Figure 1 is a schematic: a term-document matrix sliced
//! horizontally (document partitioning) or vertically (term partitioning).
//! We draw the same schematic from an actual toy corpus and the actual
//! partitioners, so the picture is produced by the real code paths.
//!
//! Run: `cargo run -p dwr-bench --release -- F1`

use crate::Ctx;
use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
use dwr_partition::parted::Corpus;
use dwr_partition::term::{BinPackingTermPartitioner, QueryWorkload, TermPartitioner};
use dwr_text::index::build_index;
use dwr_text::TermId;

pub(crate) fn run(_: &Ctx) {
    // A 8-term × 12-doc toy matrix.
    let terms = 8u32;
    let docs = 12usize;
    let corpus: Corpus = (0..docs)
        .map(|d| {
            (0..terms)
                .filter(|t| !(d + *t as usize).is_multiple_of(3))
                .map(|t| (TermId(t), 1))
                .collect()
        })
        .collect();
    let k = 3;

    println!("Figure 1. The two different types of partitioning of the term-document matrix.");
    println!(
        "(matrix cells: '1' = term occurs in document; partitions shown as | and - separators)\n"
    );

    // Document partitioning: horizontal slices.
    let doc_assign = RoundRobinPartitioner.assign(&corpus, k);
    // Order documents by partition to show contiguous slices.
    let mut order: Vec<usize> = (0..docs).collect();
    order.sort_by_key(|&d| (doc_assign[d], d));

    println!("Document partitioning (horizontal slices of D x T):");
    let mut last_part = u32::MAX;
    for &d in &order {
        if doc_assign[d] != last_part {
            if last_part != u32::MAX {
                println!("  {}", "-".repeat(terms as usize * 2 + 1));
            }
            last_part = doc_assign[d];
        }
        let row: String = (0..terms)
            .map(|t| if corpus[d].iter().any(|&(tt, _)| tt.0 == t) { " 1" } else { " ." })
            .collect();
        println!("  d{d:02}{row}   -> partition {}", doc_assign[d]);
    }

    // Term partitioning: vertical slices.
    let index = build_index(&corpus);
    let workload = QueryWorkload { queries: (0..terms).map(|t| (vec![TermId(t)], 1.0)).collect() };
    let term_assign = BinPackingTermPartitioner.assign(&index, &workload, k);
    println!("\nTerm partitioning (vertical slices of T x D):");
    let mut term_order: Vec<u32> = (0..terms).collect();
    term_order.sort_by_key(|&t| (term_assign.get(&t).copied().unwrap_or(0), t));
    print!("        ");
    for &t in &term_order {
        print!("t{t} ");
    }
    println!(
        "\n        {}",
        term_order.iter().map(|&t| format!("p{} ", term_assign[&t])).collect::<String>()
    );
    for (d, doc) in corpus.iter().enumerate() {
        print!("  d{d:02}   ");
        for &t in &term_order {
            print!("{}  ", if doc.iter().any(|&(tt, _)| tt.0 == t) { '1' } else { '.' });
        }
        println!();
    }
    println!("\n(each term column belongs to the server shown in its 'p' row)");
}
