//! Experiment **E20**: language identification for query routing
//! (Section 5, partitioning; Cavnar & Trenkle \[36\]).
//!
//! "Partitioning the index according to the language of queries is also a
//! suitable approach. (...) the amount of text per query and additional
//! contextual metadata is very limited, and such process may introduce
//! errors. Another challenge (...) is the presence of multilingual Web
//! pages."
//!
//! Run: `cargo run -p dwr-bench --release -- E20`

use crate::Ctx;
use dwr_text::langid::LanguageIdentifier;

const ENGLISH: &str = "the quick brown fox jumps over the lazy dog and the \
    small dog chases the fox through the green fields while the sun shines \
    over the quiet village and children play near the old stone bridge with \
    their friends during the long summer afternoon when birds sing in the \
    trees and the river flows gently past the mill toward the distant sea";
const PSEUDO_GERMAN: &str = "der schnelle braune fuchs springt ueber den \
    faulen hund und der kleine hund jagt den fuchs durch die gruenen felder \
    waehrend die sonne ueber dem stillen dorf scheint und kinder spielen an \
    der alten steinbruecke mit ihren freunden waehrend des langen \
    sommernachmittags wenn voegel in den baeumen singen und der fluss sanft \
    an der muehle vorbei zum fernen meer fliesst";
const PSEUDO_FINNISH: &str = "nopea ruskea kettu hyppaeae laiskan koiran yli \
    ja pieni koira jahtaa kettua vihreiden peltojen halki kun aurinko paistaa \
    hiljaisen kylaen yllae ja lapset leikkivaet vanhan kivisillan luona \
    ystaeviensae kanssa pitkaenae kesaeiltapaeivaenae kun linnut laulavat \
    puissa ja joki virtaa hiljaa myllyn ohi kaukaiseen mereen";

/// Held-out test sentences, word pools for query sampling.
const TESTS: &[(&str, &str)] = &[
    ("en", "the old bridge stood over the quiet river near the village fields"),
    ("en", "children and friends play games in the long summer grass"),
    ("de", "die alte bruecke stand ueber dem stillen fluss nahe den dorffeldern"),
    ("de", "kinder und freunde spielen spiele im langen sommergras"),
    ("fi", "vanha silta seisoi hiljaisen joen yllae kylaen peltojen laehellae"),
    ("fi", "lapset ja ystaevaet leikkivaet pelejae pitkaessae kesaeheinaessae"),
];

pub(crate) fn run(_: &Ctx) {
    println!("E20. N-gram language identification: documents vs queries.\n");
    let mut id = LanguageIdentifier::new();
    id.add_language("en", ENGLISH);
    id.add_language("de", PSEUDO_GERMAN);
    id.add_language("fi", PSEUDO_FINNISH);

    // Accuracy vs text length, clean and with one typo per word (the
    // noise short real queries carry).
    let perturb = |text: &str| -> String {
        text.split_whitespace()
            .map(|w| {
                let mut cs: Vec<char> = w.chars().collect();
                if cs.len() >= 3 {
                    let mid = cs.len() / 2;
                    cs.swap(mid, mid - 1); // deterministic transposition
                }
                cs.into_iter().collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  {:>12} {:>12} {:>12} {:>14}", "text length", "clean acc", "typo acc", "abs margin");
    for take in [usize::MAX, 4, 2, 1] {
        let mut clean = 0u32;
        let mut noisy = 0u32;
        let mut margin_acc = 0f64;
        for &(lang, text) in TESTS {
            let cut: String = match take {
                usize::MAX => text.to_owned(),
                n => text.split_whitespace().take(n).collect::<Vec<_>>().join(" "),
            };
            let (best, dists) = id.classify(&cut).expect("languages registered");
            if best == lang {
                clean += 1;
            }
            let (best_noisy, _) = id.classify(&perturb(&cut)).expect("registered");
            if best_noisy == lang {
                noisy += 1;
            }
            let mut ds: Vec<u64> = dists.iter().map(|&(_, d)| d).collect();
            ds.sort_unstable();
            margin_acc += (ds[1] - ds[0]) as f64;
        }
        let label =
            if take == usize::MAX { "sentence".to_owned() } else { format!("{take} words") };
        println!(
            "  {:>12} {:>11.0}% {:>11.0}% {:>14.0}",
            label,
            100.0 * f64::from(clean) / TESTS.len() as f64,
            100.0 * f64::from(noisy) / TESTS.len() as f64,
            margin_acc / TESTS.len() as f64
        );
    }

    // Multilingual pages: German text salted with English tech terms.
    println!("\nmultilingual page (German + English tech terms):");
    for (label, text) in [
        ("pure German", "der kleine hund jagt den fuchs durch die gruenen felder an der bruecke"),
        (
            "salted 30% English",
            "der kleine hund download server jagt den fuchs browser durch die update felder",
        ),
    ] {
        let (best, dists) = id.classify(text).expect("registered");
        let mut ds: Vec<(&str, u64)> = dists.clone();
        ds.sort_by_key(|&(_, d)| d);
        println!("  {:<20} -> {}  (margin {} over {})", label, best, ds[1].1 - ds[0].1, ds[1].0);
    }
    println!("\npaper shape: sentences classify reliably even with typos; the decision");
    println!("margin shrinks with text length, so short noisy queries start misrouting —");
    println!("'such process may introduce errors' — and multilingual content erodes the");
    println!("margin further.");
}
