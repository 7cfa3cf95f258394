//! The shared-ownership query path from the outside: one engine value,
//! scatter-gather parallelism inside a query, and concurrent clients
//! sharing the engine across a stream — with bit-identical results to
//! the sequential configuration.

use distributed_web_retrieval::soak::{EngineConfig, SearchEngineLab, StreamOptions};

fn main() {
    let lab = SearchEngineLab::build(EngineConfig::default());

    println!("serving the same hour of traffic three ways...\n");
    let seq = lab.serve_stream_with(StreamOptions::default());
    let par = lab.serve_stream_with(StreamOptions { scatter_threads: Some(4), clients: 1 });
    let multi = lab.serve_stream_with(StreamOptions { scatter_threads: Some(4), clients: 4 });

    for (name, r) in [("sequential", &seq), ("parallel scatter", &par), ("4 clients", &multi)] {
        println!(
            "{name:>16}: {} served, {} backend (hit ratio {:.1}%), mean backend latency {:.0}µs",
            r.queries_served,
            r.backend_queries,
            r.cache_hit_ratio * 100.0,
            r.backend_latency_mean_us
        );
    }

    assert_eq!(seq.queries_served, par.queries_served);
    assert_eq!(seq.serving, par.serving);
    assert_eq!(seq.backend_latency_mean_us, par.backend_latency_mean_us);
    println!("\nparallel scatter report is identical to sequential (same simulated time)");
    assert_eq!(multi.queries_served, seq.queries_served);
    println!("{} concurrent clients served the whole stream, nothing lost", 4);
}
