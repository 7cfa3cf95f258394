//! Regenerate **Table 1**: main modules × key issues, with pointers to the
//! modules of this repository implementing each cell.
//!
//! "Table 1. Main modules of a distributed Web retrieval system, and key
//! issues for each module." The table cross-tabulates the three system
//! modules (crawling, indexing, querying) against the four high-level
//! issues (partitioning, communication, dependability/synchronization,
//! external factors). Encoding it as data keeps the survey's structure
//! testable, and this artifact prints it verbatim.
//!
//! Run: `cargo run -p dwr-bench --release -- T1`

use crate::Ctx;

pub(crate) fn run(_: &Ctx) {
    print!("{}", render_table1());
}

/// The three main system modules (rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Module {
    /// Section 3.
    Crawling,
    /// Section 4.
    Indexing,
    /// Section 5.
    Querying,
}

impl Module {
    /// All modules in paper order.
    fn all() -> [Module; 3] {
        [Module::Crawling, Module::Indexing, Module::Querying]
    }

    /// The paper section covering the module.
    fn section(&self) -> u8 {
        match self {
            Module::Crawling => 3,
            Module::Indexing => 4,
            Module::Querying => 5,
        }
    }

    /// Display name.
    fn name(&self) -> &'static str {
        match self {
            Module::Crawling => "Crawling",
            Module::Indexing => "Indexing",
            Module::Querying => "Querying",
        }
    }
}

/// The four high-level issues (columns of Table 1), "all of them crucial
/// for the scalability of the system".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Issue {
    /// Data scalability.
    Partitioning,
    /// Processing scalability.
    Communication,
    /// Freedom from failures (reliability, availability, safety, security).
    Dependability,
    /// External constraints on the system.
    ExternalFactors,
}

impl Issue {
    /// Display name.
    fn name(&self) -> &'static str {
        match self {
            Issue::Partitioning => "Partitioning",
            Issue::Communication => "Communication",
            Issue::Dependability => "Dependability (synchronization)",
            Issue::ExternalFactors => "External factors",
        }
    }
}

/// One cell of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TaxonomyEntry {
    /// Row.
    module: Module,
    /// Column.
    issue: Issue,
    /// The paper's cell contents.
    topics: Vec<&'static str>,
    /// Where in this repository each topic is implemented.
    implemented_in: &'static str,
}

/// The complete Table 1, row-major.
fn taxonomy() -> Vec<TaxonomyEntry> {
    use Issue::*;
    use Module::*;
    vec![
        TaxonomyEntry {
            module: Crawling,
            issue: Partitioning,
            topics: vec!["URL assignment"],
            implemented_in: "dwr-crawler::assign",
        },
        TaxonomyEntry {
            module: Crawling,
            issue: Communication,
            topics: vec!["Re-crawling"],
            implemented_in: "dwr-crawler::recrawl",
        },
        TaxonomyEntry {
            module: Crawling,
            issue: Dependability,
            topics: vec!["URL exchanges"],
            implemented_in: "dwr-crawler::{exchange, sim}",
        },
        TaxonomyEntry {
            module: Crawling,
            issue: ExternalFactors,
            topics: vec![
                "Web growth",
                "Content change",
                "Network topology",
                "Bandwidth",
                "DNS",
                "QoS of Web servers",
            ],
            implemented_in: "dwr-webgraph::{evolve, dns, qos, sitemap}, dwr-sim::net",
        },
        TaxonomyEntry {
            module: Indexing,
            issue: Partitioning,
            topics: vec!["Document partitioning", "Term partitioning"],
            implemented_in: "dwr-partition::{doc, term}",
        },
        TaxonomyEntry {
            module: Indexing,
            issue: Communication,
            topics: vec!["Re-indexing"],
            implemented_in: "dwr-partition::repart",
        },
        TaxonomyEntry {
            module: Indexing,
            issue: Dependability,
            topics: vec!["Partial indexing", "Updating", "Merging"],
            implemented_in: "dwr-text::{index, dynamic}, dwr-partition::repart",
        },
        TaxonomyEntry {
            module: Indexing,
            issue: ExternalFactors,
            topics: vec!["Web growth", "Content change", "Global statistics"],
            implemented_in: "dwr-webgraph::evolve, dwr-query::broker",
        },
        TaxonomyEntry {
            module: Querying,
            issue: Partitioning,
            topics: vec!["Query routing", "Collection selection", "Load balancing"],
            implemented_in:
                "dwr-query::{broker, multisite, routing, arch}, dwr-partition::select, dwr-text::langid",
        },
        TaxonomyEntry {
            module: Querying,
            issue: Communication,
            topics: vec!["Replication", "Caching"],
            implemented_in: "dwr-query::{replica, cache, hierarchy}",
        },
        TaxonomyEntry {
            module: Querying,
            issue: Dependability,
            topics: vec!["Rank aggregation", "Personalization"],
            implemented_in: "dwr-query::{broker, replica, personalize}",
        },
        TaxonomyEntry {
            module: Querying,
            issue: ExternalFactors,
            topics: vec!["Changing user needs", "User base growth", "DNS"],
            implemented_in: "dwr-querylog::drift, dwr-queueing::capacity",
        },
    ]
}

/// Render Table 1 as aligned plain text (what `regen T1` prints).
fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1. Main modules of a distributed Web retrieval system, and key issues for each module.\n\n",
    );
    for module in Module::all() {
        out.push_str(&format!("{} (Sec. {})\n", module.name(), module.section()));
        for entry in taxonomy().iter().filter(|e| e.module == module) {
            out.push_str(&format!("  {:<34} {}\n", entry.issue.name(), entry.topics.join(", ")));
            out.push_str(&format!("  {:<34}   -> {}\n", "", entry.implemented_in));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_complete_3_by_4() {
        let t = taxonomy();
        assert_eq!(t.len(), 12);
        let issues =
            [Issue::Partitioning, Issue::Communication, Issue::Dependability, Issue::ExternalFactors];
        for m in Module::all() {
            for i in issues {
                assert!(
                    t.iter().any(|e| e.module == m && e.issue == i),
                    "missing cell ({m:?}, {i:?})"
                );
            }
        }
    }

    #[test]
    fn every_cell_has_topics_and_implementation() {
        for e in taxonomy() {
            assert!(!e.topics.is_empty());
            assert!(!e.implemented_in.is_empty());
        }
    }

    #[test]
    fn paper_cells_spot_checked() {
        let t = taxonomy();
        let cell = |m, i| {
            t.iter().find(|e| e.module == m && e.issue == i).expect("cell exists").topics.clone()
        };
        assert_eq!(cell(Module::Crawling, Issue::Partitioning), vec!["URL assignment"]);
        assert_eq!(
            cell(Module::Indexing, Issue::Partitioning),
            vec!["Document partitioning", "Term partitioning"]
        );
        assert!(cell(Module::Querying, Issue::Communication).contains(&"Caching"));
        assert!(cell(Module::Crawling, Issue::ExternalFactors).contains(&"DNS"));
    }

    #[test]
    fn sections_match_paper() {
        assert_eq!(Module::Crawling.section(), 3);
        assert_eq!(Module::Indexing.section(), 4);
        assert_eq!(Module::Querying.section(), 5);
    }

    #[test]
    fn render_contains_all_modules() {
        let s = render_table1();
        for m in Module::all() {
            assert!(s.contains(m.name()));
        }
        assert!(s.contains("Collection selection"));
    }
}
