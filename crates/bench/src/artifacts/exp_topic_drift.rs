//! Experiment **E17**: topic routing under drift, with automatic
//! reconfiguration (Section 5, partitioning; Cacheda et al. \[35\]).
//!
//! "Changes in the topic distribution of queries can adversely impact
//! performance, resulting in either the resources not being exploited to
//! their full extent or allocation of fewer resources to popular topics.
//! A possible solution to this challenge is the automatic reconfiguration
//! of the index partition."
//!
//! Run: `cargo run -p dwr-bench --release -- E17`

use crate::{bar, Ctx};
use dwr_query::routing::simulate_drift_routing;
use dwr_querylog::drift::TopicDrift;
use dwr_sim::{DAY, HOUR};

pub(crate) fn run(_: &Ctx) {
    println!("E17. Topic-routed cluster under query-topic drift (6 topics, 30 servers).\n");
    let weights: Vec<f64> = (1..=6).map(|r| (r as f64).powf(-1.2)).collect();
    let drift = TopicDrift::reversal(&weights, 2 * DAY);

    let horizon = 2 * DAY;
    let static_alloc = simulate_drift_routing(&drift, 300.0, 30, 20.0, horizon, None);
    let reconfig = simulate_drift_routing(&drift, 300.0, 30, 20.0, horizon, Some(6 * HOUR));

    println!("hot-topic utilization over 48 hours (provisioned for the hour-0 mixture):");
    println!("  {:>4} {:>14} {:>14}", "hour", "static", "reconf q6h");
    for h in (0..48).step_by(4) {
        println!(
            "  {:>4} {:>13.0}% {:>13.0}%  |{}",
            h,
            100.0 * static_alloc.max_utilization[h],
            100.0 * reconfig.max_utilization[h],
            bar(static_alloc.max_utilization[h], 2.0, 24)
        );
    }
    let max_stranded = static_alloc.stranded_capacity.iter().copied().fold(0.0, f64::max);
    println!("\nsummary:");
    println!(
        "  static allocation:   peak utilization {:>4.0}%, up to {:>2.0}% of capacity stranded",
        100.0 * static_alloc.peak(),
        100.0 * max_stranded
    );
    println!(
        "  reconfigure each 6h: peak utilization {:>4.0}% after {} reconfigurations",
        100.0 * reconfig.peak(),
        reconfig.reconfigurations
    );
    println!("\npaper shape: drift overloads the topics that grew while capacity idles on");
    println!("the topics that shrank ('resources not being exploited to their full");
    println!("extent'); periodic automatic reconfiguration keeps utilization bounded.");
}
