//! Experiment **E12**: the conclusion's analytical engine model.
//!
//! "A valuable tool would be an analytical model of such a system that,
//! given parameters such as data volume and query throughput, can
//! characterize a particular system in terms of response time, index size,
//! hardware, network bandwidth, and maintenance cost."
//!
//! Run: `cargo run -p dwr-bench --release -- E12`

use crate::Ctx;
use dwr_queueing::capacity::EngineModel;

pub(crate) fn run(_: &Ctx) {
    println!("E12. Analytical engine model: sweep data volume and query rate.\n");
    let base = EngineModel::default_2007();

    println!("(a) data-volume sweep (query rate fixed at {:.0} qps mean):", base.qps);
    println!(
        "  {:>10} {:>10} {:>9} {:>10} {:>12} {:>12}",
        "pages (B)", "parts", "replicas", "machines", "resp (ms)", "capex (M$)"
    );
    for factor in [0.25, 1.0, 4.0, 16.0] {
        let m = EngineModel { pages: base.pages * factor, ..base };
        if let Some(s) = m.evaluate() {
            println!(
                "  {:>10.0} {:>10} {:>9} {:>10} {:>12.1} {:>12.1}",
                m.pages / 1e9,
                s.partitions,
                s.replicas,
                s.machines,
                1000.0 * s.peak_response_time,
                s.capex_dollars / 1e6
            );
        }
    }

    println!("\n(b) query-rate sweep (20 B pages):");
    println!(
        "  {:>10} {:>10} {:>9} {:>10} {:>12} {:>14}",
        "mean qps", "parts", "replicas", "machines", "resp (ms)", "net (GB/s)"
    );
    for qps in [500.0, 2_000.0, 10_000.0, 50_000.0] {
        let m = EngineModel { qps, ..base };
        if let Some(s) = m.evaluate() {
            println!(
                "  {:>10.0} {:>10} {:>9} {:>10} {:>12.1} {:>14.2}",
                qps,
                s.partitions,
                s.replicas,
                s.machines,
                1000.0 * s.peak_response_time,
                s.network_bytes_per_sec / 1e9
            );
        }
    }

    println!("\n(c) RAM-per-machine trade-off (fatter machines = fewer, slower partitions):");
    println!("  {:>10} {:>10} {:>12} {:>12}", "GB/machine", "parts", "svc (ms)", "resp (ms)");
    for gb in [4.0, 8.0, 32.0, 128.0] {
        let m = EngineModel { ram_per_machine: gb * 1e9, ..base };
        if let Some(s) = m.evaluate() {
            println!(
                "  {:>10.0} {:>10} {:>12.2} {:>12.1}",
                gb,
                s.partitions,
                1000.0 * s.mean_service,
                1000.0 * s.peak_response_time
            );
        }
    }
    println!("\npaper shape: machines scale ~linearly in data volume; replicas ~linearly in");
    println!("traffic; fat machines trade partition count for per-query service time —");
    println!("exactly the reasoning the conclusion wants designers to be able to do.");
}
