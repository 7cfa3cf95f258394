//! Experiment **E31**: full-system soak — crawl → incremental index →
//! serve with *every* churn mechanism firing at once, versus the same
//! stack with churn off.
//!
//! Two arms of the same [`SoakScenario`]:
//!
//! - **calm** — no agent flapping, no splits, no site outages, no
//!   replica faults. The churn-free denominator.
//! - **storm** — crawler agents flap mid-crawl (frontiers hand off),
//!   the index splits online under traffic with crash fates, replicas
//!   churn per site, whole sites go dark on accelerated outage traces,
//!   and the router / hedging / gather-deadline machinery absorbs it.
//!
//! The headline is the fraction of queries served at **full fidelity**
//! (`Full`, `Routed`, or a cache hit of such an answer) through the
//! combined storm, against the calm arm. The claims, asserted:
//!
//! 1. **No silent loss.** Zero `Failed` queries while ≥ 1 site is live,
//!    zero sheds in either arm at this load, and every query lands in
//!    exactly one outcome bucket.
//! 2. **Politeness survives churn.** Zero per-host politeness
//!    violations in the churned crawl trace, across crash handoffs.
//! 3. **Freshness stays bounded.** Every document's fetch→publication
//!    lag is at most the refresh interval, storm or calm.
//! 4. **The books balance bitwise.** Live `crawl.*` / `repart.*` /
//!    `route.*` / `site.*` instruments equal the offline stats structs
//!    counter for counter ([`SoakInvariants`] checks ~25 of them).
//!
//! Run: `cargo run -p dwr-bench --release -- E31 [--smoke]`

use crate::{Ctx, SEED};
use dwr_sim::{DAY, SECOND};
use dwr_soak::{SoakConfig, SoakInvariants, SoakReport, SoakScenario};

struct Arm {
    name: &'static str,
    report: SoakReport,
}

impl Arm {
    fn run(name: &'static str, cfg: SoakConfig) -> Arm {
        let report = SoakScenario::new(cfg).run();
        let inv = SoakInvariants::check(&report);
        inv.assert_clean();
        assert_eq!(inv.politeness_violations, 0, "{name}: politeness violated");
        assert_eq!(inv.failed_while_live, 0, "{name}: failed while live");
        Arm { name, report }
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let (calm_cfg, storm_cfg) = if ctx.smoke {
        let storm = SoakConfig::smoke(SEED);
        let calm = SoakConfig {
            crawl_churn: false,
            splits: 0,
            site_outages: false,
            replica_churn: false,
            ..storm.clone()
        };
        (calm, storm)
    } else {
        let storm = SoakConfig { serve_horizon: DAY, mean_qps: 0.05, ..SoakConfig::storm(SEED) };
        let calm = SoakConfig { serve_horizon: DAY, mean_qps: 0.05, ..SoakConfig::calm(SEED) };
        (calm, storm)
    };

    println!("E31. Full-system soak: churn at every tier vs the same stack becalmed.");
    println!(
        "workload: {} pages / {} agents crawled, {}s refresh interval, {} shards (+{} online \
         splits), {} sites, {:.0}h diurnal serving\n",
        storm_cfg.pages,
        storm_cfg.agents,
        storm_cfg.refresh_interval / SECOND,
        storm_cfg.partitions,
        storm_cfg.splits,
        storm_cfg.sites,
        storm_cfg.serve_horizon as f64 / (3600.0 * SECOND as f64),
    );

    let calm = Arm::run("calm", calm_cfg);
    let storm = Arm::run("storm", storm_cfg);

    println!(
        "{:<7} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>6} {:>8} {:>7} {:>7} {:>9}",
        "arm",
        "queries",
        "full-fid %",
        "cache",
        "full",
        "routed",
        "remote",
        "degr",
        "shed+fl",
        "crashes",
        "epochs",
        "max lag s"
    );
    for arm in [&calm, &storm] {
        let r = &arm.report;
        let c = r.outcomes();
        println!(
            "{:<7} {:>8} {:>10.2} {:>7} {:>7} {:>7} {:>7} {:>6} {:>8} {:>7} {:>7} {:>9.1}",
            arm.name,
            c.total(),
            100.0 * r.full_fidelity_fraction(),
            c.cache_hit,
            c.full,
            c.routed,
            r.site_stats.served_remote,
            c.degraded + c.stale + c.partial,
            c.shed + c.failed,
            r.crawl_faults.crashes,
            r.repart_stats.epoch,
            r.max_freshness_lag() as f64 / SECOND as f64,
        );
    }
    println!();

    // The storm must actually storm — otherwise the headline is vacuous.
    assert!(storm.report.crawl_faults.crashes > 0, "storm arm saw no agent crashes");
    assert!(storm.report.repart_stats.splits_committed > 0, "storm arm committed no splits");
    assert!(
        storm
            .report
            .queries
            .iter()
            .any(|q| (q.live_sites as usize) < storm.report.engine_stats.len()),
        "storm arm never lost a site"
    );
    // And the calm arm must be genuinely becalmed.
    assert_eq!(calm.report.crawl_faults.crashes, 0);
    assert_eq!(calm.report.repart_stats.epoch, 0);
    assert_eq!(calm.report.site_stats.served_remote, 0, "calm arm crossed the WAN");

    let calm_fid = 100.0 * calm.report.full_fidelity_fraction();
    let storm_fid = 100.0 * storm.report.full_fidelity_fraction();
    println!("check: zero Failed-while-live, zero sheds, every query in one bucket   [ok]");
    println!("check: zero politeness violations across churned frontier handoffs    [ok]");
    println!("check: freshness lag bounded by the refresh interval in both arms      [ok]");
    println!("check: live instruments equal offline stats bitwise in both arms       [ok]");
    println!();
    println!(
        "headline: {storm_fid:.2}% of queries served at full fidelity through the combined \
         storm (calm baseline {calm_fid:.2}%)"
    );

    // The paper shape: the paper's closing argument is that crawling,
    // indexing, and querying cannot be engineered in isolation — each
    // tier's failure modes surface as another tier's load. The soak is
    // that argument run end to end: every challenge fires at once, and
    // the stack's combined answer is measured as one number.
}
