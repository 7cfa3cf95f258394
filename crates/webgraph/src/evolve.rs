//! Web evolution: content change and growth processes.
//!
//! "Web data, however, is always evolving" (Section 1) — re-crawling policy
//! (Section 3) and index freshness (Section 4) only make sense against a
//! change process. Each page changes according to a Poisson process with
//! its own rate (heavy-tailed across pages, per the crawl literature), and
//! new pages are born at a configurable rate.

use crate::graph::{PageId, SyntheticWeb};
use dwr_sim::dist::Exponential;
use dwr_sim::{SimRng, SimTime, DAY};

/// A change event: `page` changed at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeEvent {
    /// When the change happened.
    pub time: SimTime,
    /// Which page changed.
    pub page: PageId,
}

/// Generates the change timeline of a web over a horizon.
///
/// Each page owns an independent forked RNG stream, so the timeline of a
/// page is invariant to how the horizon is split into query windows.
#[derive(Debug)]
pub struct ChangeProcess {
    /// Per-page next change time (µs), lazily advanced.
    next_change: Vec<SimTime>,
    rates_per_us: Vec<f64>,
    rngs: Vec<SimRng>,
}

impl ChangeProcess {
    /// Build the process from each page's `change_rate_per_day`.
    pub fn new(web: &SyntheticWeb, seed: u64) -> Self {
        let root = SimRng::new(seed).fork_named("change");
        let rates_per_us: Vec<f64> = web
            .page_ids()
            .map(|p| f64::from(web.page(p).change_rate_per_day) / DAY as f64)
            .collect();
        let mut rngs: Vec<SimRng> = web.page_ids().map(|p| root.fork(u64::from(p.0))).collect();
        let next_change =
            rates_per_us
                .iter()
                .zip(rngs.iter_mut())
                .map(|(&r, rng)| {
                    if r > 0.0 {
                        Exponential::new(r).sample(rng) as SimTime
                    } else {
                        SimTime::MAX
                    }
                })
                .collect();
        ChangeProcess { next_change, rates_per_us, rngs }
    }

    /// All change events in `[from, to)`, in time order.
    ///
    /// Advances internal state; successive calls with contiguous windows
    /// produce a consistent, gap-free timeline.
    pub fn events_in(&mut self, from: SimTime, to: SimTime) -> Vec<ChangeEvent> {
        assert!(from <= to);
        let mut events = Vec::new();
        for (i, next) in self.next_change.iter_mut().enumerate() {
            let rate = self.rates_per_us[i];
            if rate <= 0.0 {
                continue;
            }
            let exp = Exponential::new(rate);
            while *next < to {
                if *next >= from {
                    events.push(ChangeEvent { time: *next, page: PageId(i as u32) });
                }
                *next += exp.sample(&mut self.rngs[i]).max(1.0) as SimTime;
            }
        }
        events.sort_unstable_by_key(|e| (e.time, e.page));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_web, WebConfig};

    #[test]
    fn events_ordered_and_in_window() {
        let web = generate_web(&WebConfig::tiny(), 21);
        let mut proc = ChangeProcess::new(&web, 22);
        let events = proc.events_in(0, 7 * DAY);
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(events.iter().all(|e| e.time < 7 * DAY));
    }

    #[test]
    fn dynamic_pages_change_more() {
        let web = generate_web(&WebConfig::tiny(), 23);
        let mut proc = ChangeProcess::new(&web, 24);
        let events = proc.events_in(0, 30 * DAY);
        let mut per_page = std::collections::HashMap::new();
        for e in &events {
            *per_page.entry(e.page).or_insert(0u32) += 1;
        }
        // Expected count for a dynamic page over 30 days at 4/day = 120.
        let max = per_page.values().copied().max().unwrap_or(0);
        assert!(max > 60, "max changes per page = {max}");
    }

    #[test]
    fn contiguous_windows_are_gap_free() {
        let web = generate_web(&WebConfig::tiny(), 25);
        let mut a = ChangeProcess::new(&web, 26);
        let mut b = ChangeProcess::new(&web, 26);
        let whole = a.events_in(0, 10 * DAY);
        let mut parts = b.events_in(0, 5 * DAY);
        parts.extend(b.events_in(5 * DAY, 10 * DAY));
        assert_eq!(whole, parts);
    }
}
