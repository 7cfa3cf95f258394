//! Experiment **E1**: the introduction's back-of-the-envelope sizing.
//!
//! Run: `cargo run -p dwr-bench --release -- E1`

use crate::Ctx;
use dwr_queueing::cost::CostModel;

pub(crate) fn run(_: &Ctx) {
    println!("E1. Section 1 cost model: paper-stated vs computed.\n");
    let r = CostModel::paper_2007().evaluate();
    println!("2007 engine (20 billion pages, 173M queries/day):");
    println!("  {:<38} {:>14} {:>14}", "quantity", "paper", "computed");
    println!("  {:<38} {:>14} {:>14.0}", "text volume (TB)", "100", r.text_bytes / 1e12);
    println!("  {:<38} {:>14} {:>14.0}", "index size (TB)", "~25", r.index_bytes / 1e12);
    println!("  {:<38} {:>14} {:>14.0}", "machines per cluster", "~3,000", r.machines_per_cluster);
    println!("  {:<38} {:>14} {:>14.0}", "peak queries/second", "~10,000", r.peak_qps);
    println!("  {:<38} {:>14} {:>14.0}", "cluster replicas", ">=10", r.clusters);
    println!("  {:<38} {:>14} {:>14.0}", "total machines", ">=30,000", r.total_machines);
    println!("  {:<38} {:>14} {:>14.1}", "hardware cost (M$)", ">100", r.hardware_dollars / 1e6);

    let p = CostModel::paper_2010_projection().evaluate();
    println!("\n2010 conservative projection:");
    println!("  {:<38} {:>14} {:>14.0}", "machines per cluster", "~50,000", p.machines_per_cluster);
    println!("  {:<38} {:>14} {:>14.2}", "total machines (M)", ">=1.5", p.total_machines / 1e6);
    println!("\n\"...which is unreasonable\" -- the paper's motivation for distribution.");
}
