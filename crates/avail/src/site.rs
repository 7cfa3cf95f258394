//! Multi-server sites.
//!
//! "We say that a site is unavailable if it is not possible to reach any
//! of the servers of this site, either because of a network partition or
//! because all servers have failed" (Section 5, discussing Figure 5). A
//! [`SiteConfig`] therefore combines one network-partition process with
//! per-server failure processes, and [`SiteConfig::simulate`] materializes
//! the site as one [`Timeline`]: the union of partition intervals and the
//! intersection of all server down intervals. Every question about the
//! site's outages is then a `Timeline` lookup.

use crate::failure::{DownInterval, Timeline, UpDownProcess};
use dwr_sim::{SimRng, SimTime, HOUR};

/// Configuration of one site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Number of servers at the site.
    pub servers: usize,
    /// Failure process of the site's network connectivity.
    pub network: UpDownProcess,
    /// Failure process of each individual server.
    pub server: UpDownProcess,
}

impl SiteConfig {
    /// A BIRN-like site: a couple of servers, network dominated outages.
    pub fn birn_like(servers: usize) -> Self {
        SiteConfig {
            servers,
            network: UpDownProcess::birn_like(),
            // Servers fail rarer but repair slower (operator intervention).
            server: UpDownProcess::exponential(60 * 24 * HOUR, 12 * HOUR),
        }
    }

    /// Simulate the site's unavailability over `[0, horizon)`: the union
    /// of the network's outages and the instants when every server is
    /// down at once.
    pub fn simulate(&self, horizon: SimTime, rng: &mut SimRng) -> Timeline {
        assert!(self.servers > 0);
        let mut downs = self.network.down_intervals(horizon, rng);
        // All-servers-down intervals: intersect the servers' down sets.
        let mut all_down: Option<Vec<DownInterval>> = None;
        for _ in 0..self.servers {
            let d = self.server.down_intervals(horizon, rng);
            all_down = Some(match all_down {
                None => d,
                Some(acc) => intersect(&acc, &d),
            });
            if all_down.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        downs.extend(all_down.unwrap_or_default());
        Timeline::new(downs, horizon)
    }
}

/// Intersection of two disjoint, ordered interval sets.
fn intersect(a: &[DownInterval], b: &[DownInterval]) -> Vec<DownInterval> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = a[i].start.max(b[j].start);
        let e = a[i].end.min(b[j].end);
        if s < e {
            out.push(DownInterval { start: s, end: e });
        }
        if a[i].end < b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::DAY;

    #[test]
    fn intersect_basic() {
        let a = [DownInterval { start: 0, end: 10 }, DownInterval { start: 20, end: 30 }];
        let b = [DownInterval { start: 5, end: 25 }];
        assert_eq!(
            intersect(&a, &b),
            vec![DownInterval { start: 5, end: 10 }, DownInterval { start: 20, end: 25 }]
        );
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = [DownInterval { start: 0, end: 5 }];
        let b = [DownInterval { start: 5, end: 9 }];
        assert!(intersect(&a, &b).is_empty());
    }

    #[test]
    fn more_servers_higher_availability() {
        let horizon = 400 * DAY;
        // Make server failures dominant so redundancy matters.
        let mk = |servers| SiteConfig {
            servers,
            network: UpDownProcess::exponential(10_000 * DAY, HOUR),
            server: UpDownProcess::exponential(5 * DAY, DAY),
        };
        let avg = |cfg: &SiteConfig, seed: u64| {
            let mut acc = 0.0;
            for s in 0..20u64 {
                let mut rng = SimRng::new(seed + s);
                acc += cfg.simulate(horizon, &mut rng).availability();
            }
            acc / 20.0
        };
        let a1 = avg(&mk(1), 100);
        let a2 = avg(&mk(2), 200);
        let a3 = avg(&mk(3), 300);
        assert!(a2 > a1, "a1={a1} a2={a2}");
        assert!(a3 > a2, "a2={a2} a3={a3}");
        assert!(a3 > 0.99);
    }
}
