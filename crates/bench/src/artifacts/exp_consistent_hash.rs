//! Experiment **E2**: consistent hashing for crawler host assignment
//! (UbiCrawler \[6\]) vs plain modulo hashing.
//!
//! Measures (a) host/page balance over agents and (b) the fraction of
//! hosts that change owner when one agent leaves or joins — "with
//! consistent hashing, new agents enter the crawling system without
//! re-hashing all the server names".
//!
//! Run: `cargo run -p dwr-bench --release -- E2`

use crate::{Ctx, Scale};
use dwr_crawler::assign::{
    assignment_load, movement_fraction, AgentId, ConsistentHashAssigner, HashAssigner, UrlAssigner,
};
use dwr_sim::stats::Imbalance;

const AGENTS: u32 = 16;

pub(crate) fn run(ctx: &Ctx) {
    println!("E2. Host assignment: plain hashing vs consistent hashing, {AGENTS} agents.\n");
    let f = ctx.fixture(Scale::Medium);

    let plain = HashAssigner::new(AGENTS);
    let consistent = ConsistentHashAssigner::new(AGENTS, 128);

    let report = |name: &str, a: &dyn UrlAssigner| {
        let load = assignment_load(a, &f.web);
        let hosts: Vec<f64> = load.hosts.iter().map(|&h| h as f64).collect();
        let pages: Vec<f64> = load.pages.iter().map(|&p| p as f64).collect();
        let hi = Imbalance::of(&hosts);
        let pi = Imbalance::of(&pages);
        println!(
            "  {:<18} host max/mean {:>5.2}  page max/mean {:>5.2}  page gini {:>5.3}",
            name, hi.max_over_mean, pi.max_over_mean, pi.gini
        );
    };
    println!("balance:");
    report("plain hash", &plain);
    report("consistent hash", &consistent);
    println!("  (page balance is worse than host balance for both: host sizes are Zipf —");
    println!("   'such a policy, however, does not consider the number of documents on servers')");

    println!("\nmembership change: fraction of hosts that move owner");
    println!("  {:<34} {:>10} {:>12}", "event", "plain", "consistent");
    // Remove agent 3.
    let mut plain_rm = plain.clone();
    plain_rm.remove_agent(AgentId(3));
    let mut cons_rm = consistent.clone();
    cons_rm.remove_agent(AgentId(3));
    println!(
        "  {:<34} {:>9.1}% {:>11.1}%",
        "agent 3 leaves (ideal 6.3%)",
        100.0 * movement_fraction(&plain, &plain_rm, &f.web),
        100.0 * movement_fraction(&consistent, &cons_rm, &f.web)
    );
    // Add agent 16.
    let mut plain_add = plain.clone();
    plain_add.add_agent(AgentId(16));
    let mut cons_add = consistent.clone();
    cons_add.add_agent(AgentId(16));
    println!(
        "  {:<34} {:>9.1}% {:>11.1}%",
        "agent 16 joins (ideal 5.9%)",
        100.0 * movement_fraction(&plain, &plain_add, &f.web),
        100.0 * movement_fraction(&consistent, &cons_add, &f.web)
    );
    println!("\npaper shape: plain hashing remaps nearly everything; consistent hashing");
    println!("moves only the departed/new agent's arc.");
}
