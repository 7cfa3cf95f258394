//! Regenerate **Figure 5**: site unavailability in the BIRN grid system
//! (Junqueira & Marzullo \[38\]).
//!
//! The original plots, for each availability threshold, the average number
//! of the 16 BIRN sites whose *monthly* availability fell under the
//! threshold, over Jan–Aug 2004. Anchor: "on average 10 [of 16 sites]
//! experience at least one outage (...) in a given month". We regenerate
//! the histogram from calibrated two-state renewal failure processes (we
//! do not have the BIRN traces; see DESIGN.md substitutions).
//!
//! Run: `cargo run -p dwr-bench --release -- F5`

use crate::{bar, Ctx, SEED};
use dwr_avail::monthly::{availability_histogram, figure5_thresholds, monthly_availability};
use dwr_avail::site::SiteConfig;

pub(crate) fn run(_: &Ctx) {
    println!("Figure 5. Site unavailability in the BIRN Grid system (simulated).");
    println!("16 sites x 8 months; bar = average #sites with monthly availability under x\n");

    let sites: Vec<SiteConfig> = (0..16).map(|_| SiteConfig::birn_like(2)).collect();
    // Average the histogram over several seeds to mimic the paper's
    // multi-month averaging.
    let runs = 20u64;
    let thresholds = figure5_thresholds();
    let mut acc = vec![0f64; thresholds.len()];
    for r in 0..runs {
        let monthly = monthly_availability(&sites, 8, SEED + r);
        let h = availability_histogram(&monthly, &thresholds);
        for (a, v) in acc.iter_mut().zip(h) {
            *a += v;
        }
    }
    for a in acc.iter_mut() {
        *a /= runs as f64;
    }

    println!("{:>12} {:>10}", "avail <", "avg sites");
    for (t, v) in thresholds.iter().zip(&acc) {
        println!("{:>11.1}% {:>10.1}  |{}", t * 100.0, v, bar(*v, 16.0, 40));
    }
    let under_100 = acc.last().copied().unwrap_or(0.0);
    println!("\npaper anchor: ~10 of 16 sites see at least one outage per month");
    println!("measured:     {under_100:.1} of 16 sites under 100% monthly availability");
}
