//! The five workloads. Each is set up from the seed alone, runs fixed-
//! size repetitions, and gates its own answers.

pub mod index_build;
pub mod serve;
pub mod soak_storm;

use crate::fixture::Sizes;
use crate::harness::Workload;

/// Set a workload up by name.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold_scan" => Box::new(serve::Serve::set_up(serve::Kind::ColdScan, seed, sizes)),
        "zipf_cached" => Box::new(serve::Serve::set_up(serve::Kind::ZipfCached, seed, sizes)),
        "fanout_batch" => Box::new(serve::Serve::set_up(serve::Kind::FanoutBatch, seed, sizes)),
        "index_build" => Box::new(index_build::IndexBuild::set_up(seed, sizes)),
        "soak_storm" => Box::new(soak_storm::SoakStorm::set_up(seed, sizes)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}
