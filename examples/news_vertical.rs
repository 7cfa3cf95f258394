//! A news vertical: the frequently-updating collection the paper singles
//! out ("certain special document collections, such as news articles, and
//! blogs, where updates are so frequent that there is usually some kind of
//! online index maintenance strategy") — with online geometric-merge
//! indexing, phrase search, language routing, and personalization.
//!
//! ```sh
//! cargo run --example news_vertical --release
//! ```

use distributed_web_retrieval::query::broker::GlobalHit;
use distributed_web_retrieval::query::personalize::{personalize_ranking, UserProfile};
use distributed_web_retrieval::sim::SimRng;
use distributed_web_retrieval::text::dynamic::{DynamicIndex, MergePolicy};
use distributed_web_retrieval::text::langid::LanguageIdentifier;
use distributed_web_retrieval::text::positions::PositionalIndex;
use distributed_web_retrieval::text::TermId;
use distributed_web_retrieval::webgraph::content::ContentModel;
use distributed_web_retrieval::webgraph::graph::TopicId;

fn main() {
    let seed = 1234;
    let content = ContentModel::small(6);
    let mut rng = SimRng::new(seed);

    // --- Ingest a day of articles into the online index. ---
    let mut index = DynamicIndex::new(MergePolicy::Geometric { r: 3 }, 32);
    let mut topics_of: Vec<u16> = Vec::new();
    println!("ingesting 2,000 articles through the geometric-merge online index...");
    for i in 0..2_000u32 {
        let topic = TopicId((i % 6) as u16);
        let doc = content.sample_document(topic, &mut rng);
        index.insert(doc);
        topics_of.push(topic.0);
    }
    let stats = index.stats();
    println!(
        "  {} segments, {} merges, {} docs rewritten, {:.1} ms total write-lock time",
        index.num_segments(),
        stats.merges,
        stats.docs_rewritten,
        stats.lock_time_us as f64 / 1000.0
    );

    // --- Ranked search over the live index. ---
    let q = content.sample_query_terms(TopicId(2), 3, &mut rng);
    let hits = index.search(&q, 5);
    println!("\ntop-5 for a topic-2 query on the live index:");
    for (r, h) in hits.iter().enumerate() {
        println!("  {}. article {:>5}  score {:.3}", r + 1, h.doc.0, h.score);
    }

    // --- Personalized re-ranking for a sports-obsessed reader. ---
    let mut profile = UserProfile::default();
    for _ in 0..8 {
        profile.record_click(4); // the reader keeps clicking topic 4
    }
    // A background (shared-vocabulary) query returns articles of every
    // topic — the case where personalization can actually reorder.
    let broad_terms: Vec<TermId> = vec![TermId(0), TermId(1)];
    let neutral = index.search(&broad_terms, 10);
    let as_global: Vec<GlobalHit> =
        neutral.iter().map(|h| GlobalHit { doc: h.doc.0, score: h.score }).collect();
    let personal = personalize_ranking(&as_global, &profile, &|doc| topics_of[doc as usize]);
    println!(
        "\npersonalization: topic-4 articles in the top-5 went {} -> {}",
        neutral.iter().take(5).filter(|h| topics_of[h.doc.0 as usize] == 4).count(),
        personal.iter().take(5).filter(|h| topics_of[h.doc as usize] == 4).count()
    );

    // --- Phrase search over a positional index of the same feed. ---
    let mut stream_rng = SimRng::new(seed ^ 0xFEED);
    // The wire phrase every topic-1 breaking-news article leads with.
    let breaking: [u32; 2] =
        [content.topic_base(TopicId(1)).0, content.topic_base(TopicId(1)).0 + 1];
    let token_docs: Vec<Vec<u32>> = (0..500)
        .map(|i| {
            let topic = TopicId((i % 6) as u16);
            let doc = content.sample_document(topic, &mut stream_rng);
            let mut tokens: Vec<u32> =
                doc.iter().flat_map(|&(t, c)| std::iter::repeat_n(t.0, c as usize)).collect();
            stream_rng.shuffle(&mut tokens);
            if topic.0 == 1 && i % 30 == 1 {
                let mut with_lede = breaking.to_vec();
                with_lede.extend(tokens);
                with_lede
            } else {
                tokens
            }
        })
        .collect();
    let positional = PositionalIndex::build(&token_docs);
    let exact = positional.phrase_search(&breaking);
    println!(
        "\nphrase search over 500 positional articles: the exact lede phrase matches \
{} docs while the bag-of-words AND would match many more ({} KB positional index)",
        exact.len(),
        positional.encoded_bytes() / 1024
    );

    // --- Route incoming queries by language. ---
    let mut lang = LanguageIdentifier::new();
    lang.add_language(
        "en",
        "the latest news about sports politics and weather across the country today",
    );
    lang.add_language(
        "de",
        "die neuesten nachrichten ueber sport politik und wetter im ganzen land heute",
    );
    for q in ["weather today news", "wetter heute nachrichten"] {
        let (best, _) = lang.classify(q).expect("languages registered");
        println!("query '{q}' routed to the {best} index");
    }
}
