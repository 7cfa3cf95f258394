//! Figure 5 machinery: monthly site-availability histograms.
//!
//! Figure 5 plots, for a set of availability thresholds on the x-axis, the
//! *average number of sites* whose monthly availability fell **under** the
//! threshold, averaged over the measurement months. The first bar ("under
//! 100%") counts sites with at least one outage in a month — on average 10
//! of BIRN's 16 sites.

use crate::site::SiteConfig;
use dwr_sim::{SimRng, SimTime, DAY};

/// Per-site, per-month availabilities: `result[site][month]`.
pub fn monthly_availability(configs: &[SiteConfig], months: usize, seed: u64) -> Vec<Vec<f64>> {
    assert!(months > 0 && !configs.is_empty());
    let month: SimTime = 30 * DAY;
    let horizon = month * months as u64;
    let root = SimRng::new(seed).fork_named("sites");
    configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let mut rng = root.fork(i as u64);
            let site = cfg.simulate(horizon, &mut rng);
            (0..months)
                .map(|m| site.availability_in(m as u64 * month, (m as u64 + 1) * month))
                .collect()
        })
        .collect()
}

/// The Figure 5 histogram: for each threshold, the average (over months)
/// number of sites with monthly availability strictly under the threshold.
///
/// Pass thresholds ascending, ending at 1.0 (the "<100%" bar).
pub fn availability_histogram(monthly: &[Vec<f64>], thresholds: &[f64]) -> Vec<f64> {
    assert!(!monthly.is_empty());
    let months = monthly[0].len();
    assert!(monthly.iter().all(|m| m.len() == months));
    thresholds
        .iter()
        .map(|&th| {
            let mut total = 0usize;
            for m in 0..months {
                total += monthly.iter().filter(|site| site[m] < th).count();
            }
            total as f64 / months as f64
        })
        .collect()
}

/// The standard Figure 5 threshold grid.
pub fn figure5_thresholds() -> Vec<f64> {
    vec![0.95, 0.96, 0.97, 0.98, 0.99, 0.995, 0.999, 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn birn() -> Vec<SiteConfig> {
        (0..16).map(|_| SiteConfig::birn_like(2)).collect()
    }

    #[test]
    fn shapes_are_right() {
        let m = monthly_availability(&birn(), 8, 1);
        assert_eq!(m.len(), 16);
        assert!(m.iter().all(|s| s.len() == 8));
        assert!(m.iter().flatten().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn histogram_monotone_in_threshold() {
        let m = monthly_availability(&birn(), 8, 2);
        let h = availability_histogram(&m, &figure5_thresholds());
        assert!(h.windows(2).all(|w| w[0] <= w[1]), "{h:?}");
        assert!(h.iter().all(|&c| (0.0..=16.0).contains(&c)));
    }

    #[test]
    fn under_100_matches_paper_anchor() {
        // Average over several seeds to damp noise; the calibrated
        // processes should put roughly 10 of 16 sites under 100% monthly.
        let mut acc = 0.0;
        let runs = 10;
        for s in 0..runs {
            let m = monthly_availability(&birn(), 8, 100 + s);
            let h = availability_histogram(&m, &[1.0]);
            acc += h[0];
        }
        let avg = acc / runs as f64;
        assert!((avg - 10.0).abs() < 1.8, "avg sites <100% = {avg}");
    }

    #[test]
    fn perfect_sites_yield_empty_histogram() {
        use crate::failure::UpDownProcess;
        use dwr_sim::HOUR;
        let perfect = SiteConfig {
            servers: 1,
            network: UpDownProcess::exponential(u64::MAX / 4, HOUR),
            server: UpDownProcess::exponential(u64::MAX / 4, HOUR),
        };
        let m = monthly_availability(&vec![perfect; 4], 3, 3);
        let h = availability_histogram(&m, &figure5_thresholds());
        assert!(h.iter().all(|&c| c == 0.0), "{h:?}");
    }
}
