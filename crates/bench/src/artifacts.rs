//! The registry: one module per EXPERIMENTS.md heading, in paper order.

use crate::Ctx;

/// An artifact's entry point: prints it, asserting its paper shape.
pub type Run = fn(&Ctx);

macro_rules! registry {
    ($($id:literal $module:ident)*) => {
        $(mod $module;)*

        /// Every artifact as `(heading id, run)`, in EXPERIMENTS.md order.
        pub const ARTIFACTS: &[(&str, Run)] = &[$(($id, $module::run)),*];
    };
}

registry! {
    "T1" table1
    "F1" fig1
    "F2" fig2
    "F5" fig5
    "F6" fig6
    "E1" exp_cost_model
    "E2" exp_consistent_hash
    "E3" exp_url_exchange
    "E4" exp_crawl_coverage
    "E5" exp_binpack
    "E6" exp_coclustering
    "E7" exp_global_stats
    "E8" exp_caching
    "E9" exp_replication
    "E10" exp_multisite
    "E11" exp_incremental
    "E12" exp_capacity_model
    "E13" exp_positions
    "E14" exp_online_index
    "E15" exp_hierarchy
    "E16" exp_architectures
    "E17" exp_topic_drift
    "E18" exp_cooperation
    "E19" exp_geo_crawl
    "E20" exp_langid
    "E21" exp_ablations
    "E22" exp_priority
    "E23" exp_failover
    "E24" exp_site_failover
    "E25" exp_observability
    "E26" exp_crawl_faults
    "E27" exp_throughput
    "E28" exp_tail
    "E29" exp_repart
    "E30" exp_selective
    "E31" exp_soak
}
