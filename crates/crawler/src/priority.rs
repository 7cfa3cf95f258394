//! Frontier prioritization: fetch high-quality pages first.
//!
//! Section 2: a crawler should "prioritize high-quality objects"; Section 6
//! lists "how to efficiently prioritize the crawling frontier under a
//! dynamic scenario" as an open problem. The classic online signal is the
//! number of *discovered* in-links (an online approximation of in-degree /
//! PageRank mass): pages cited by many already-crawled pages are fetched
//! before freshly-discovered tail pages.
//!
//! [`PriorityFrontier`] wraps the politeness machinery of
//! [`Frontier`](crate::frontier::Frontier)'s design with per-host priority
//! queues keyed by a dynamic citation count, and
//! [`evaluate_crawl_ordering`] measures what prioritization buys: the mean
//! in-degree of the first `x%` of fetches.

use dwr_sim::SimTime;
use dwr_webgraph::graph::{HostId, PageId};
use dwr_webgraph::SyntheticWeb;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A politeness-respecting frontier whose per-host queues are priority
/// queues over a dynamic citation count.
#[derive(Debug)]
pub struct PriorityFrontier {
    /// Per-host max-heap of (citations, Reverse(page)) — more-cited first,
    /// lower id on ties.
    queues: HashMap<HostId, BinaryHeap<(u32, Reverse<u32>)>>,
    /// Citation counts of queued pages (updated by `cite`).
    citations: HashMap<PageId, u32>,
    /// Ready hosts ordered by (eligible time, best queued citation count
    /// DESC, host id): among simultaneously eligible hosts, the one
    /// holding the hottest page is fetched first.
    ready: BinaryHeap<Reverse<(SimTime, Reverse<u32>, u32)>>,
    busy: HashSet<HostId>,
    next_allowed: HashMap<HostId, SimTime>,
    seen: HashSet<PageId>,
    politeness_delay: SimTime,
    pending: usize,
}

impl PriorityFrontier {
    /// Create with the given politeness delay.
    pub fn new(politeness_delay: SimTime) -> Self {
        PriorityFrontier {
            queues: HashMap::new(),
            citations: HashMap::new(),
            ready: BinaryHeap::new(),
            busy: HashSet::new(),
            next_allowed: HashMap::new(),
            seen: HashSet::new(),
            politeness_delay,
            pending: 0,
        }
    }

    /// Offer a page; returns whether it was fresh. Re-offering a known
    /// page instead *cites* it (bumping its priority if still queued).
    pub fn offer(&mut self, host: HostId, page: PageId, now: SimTime) -> bool {
        if !self.seen.insert(page) {
            self.cite(host, page);
            return false;
        }
        self.citations.insert(page, 1);
        let q = self.queues.entry(host).or_default();
        q.push((1, Reverse(page.0)));
        self.pending += 1;
        if !self.busy.contains(&host) {
            let at = self.next_allowed.get(&host).copied().unwrap_or(0).max(now);
            let best = q.peek().map_or(1, |&(c, _)| c);
            self.ready.push(Reverse((at, Reverse(best), host.0)));
        }
        true
    }

    /// Record one more citation of a queued page (stale heap entries are
    /// filtered at pop time).
    pub fn cite(&mut self, host: HostId, page: PageId) {
        if let Some(c) = self.citations.get_mut(&page) {
            *c += 1;
            let count = *c;
            if let Some(q) = self.queues.get_mut(&host) {
                q.push((count, Reverse(page.0)));
                // Refresh the host's ready entry so a hot discovery can
                // promote its host (stale entries are filtered at pop).
                if !self.busy.contains(&host) {
                    let at = self.next_allowed.get(&host).copied().unwrap_or(0);
                    self.ready.push(Reverse((at, Reverse(count), host.0)));
                }
            }
        }
    }

    /// Number of pending pages.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Pop the best fetchable page at `now` (same contract as
    /// `Frontier::next_fetch`).
    pub fn next_fetch(&mut self, now: SimTime) -> Result<(HostId, PageId), Option<SimTime>> {
        loop {
            let Some(&Reverse((at, best, host_raw))) = self.ready.peek() else {
                return Err(None);
            };
            let host = HostId(host_raw);
            let valid =
                !self.busy.contains(&host) && self.queues.get(&host).is_some_and(|q| !q.is_empty());
            if !valid {
                self.ready.pop();
                continue;
            }
            // `offer` and `cite` push an entry whenever the host is idle,
            // so one keyed before the host's last fetch can outlive it.
            // While that fetch's politeness floor is still ahead, such an
            // entry is re-keyed to the floor, never served early.
            let floor = self.next_allowed.get(&host).copied().unwrap_or(0);
            if at < floor && floor > now {
                self.ready.pop();
                self.ready.push(Reverse((floor, best, host_raw)));
                continue;
            }
            if at > now {
                return Err(Some(at));
            }
            self.ready.pop();
            let q = self.queues.get_mut(&host).expect("validated above");
            // Skip stale entries: an entry is live iff its count matches
            // the page's current citation count AND the page is still
            // queued (citations map holds queued pages only).
            let page = loop {
                let Some((count, Reverse(p))) = q.pop() else {
                    // Everything was stale; host has nothing left.
                    break None;
                };
                let page = PageId(p);
                match self.citations.get(&page) {
                    Some(&c) if c == count => break Some(page),
                    _ => continue, // superseded or dequeued entry
                }
            };
            let Some(page) = page else { continue };
            self.citations.remove(&page);
            self.pending -= 1;
            self.busy.insert(host);
            return Ok((host, page));
        }
    }

    /// Complete a fetch, starting the politeness interval.
    pub fn complete(&mut self, host: HostId, now: SimTime) {
        let was_busy = self.busy.remove(&host);
        assert!(was_busy, "complete() for a host that was not busy");
        let at = now + self.politeness_delay;
        self.next_allowed.insert(host, at);
        if let Some(q) = self.queues.get(&host) {
            if !q.is_empty() {
                let best = q.peek().map_or(1, |&(c, _)| c);
                self.ready.push(Reverse((at, Reverse(best), host.0)));
            }
        }
    }
}

/// Crawl-ordering quality: run a single-agent crawl in fetch order (no
/// timing, pure ordering) with and without prioritization, and report the
/// mean *true* in-degree of the first `prefix_fraction` of fetched pages.
pub fn evaluate_crawl_ordering(
    web: &SyntheticWeb,
    seeds: usize,
    prefix_fraction: f64,
) -> OrderingReport {
    assert!((0.0..=1.0).contains(&prefix_fraction));
    let deg = web.in_degrees();
    let run = |prioritized: bool| -> Vec<PageId> {
        let mut order = Vec::new();
        // FIFO baseline reuses the priority frontier with citation
        // bumping disabled (every page keeps count 1 → id order within a
        // host; host rotation identical in both runs).
        let mut f = PriorityFrontier::new(0);
        for h in 0..seeds.min(web.num_hosts()) {
            let p = web.pages_of_host(HostId(h as u32))[0];
            f.offer(web.page(p).host, p, 0);
        }
        let mut now = 0;
        loop {
            match f.next_fetch(now) {
                Ok((host, page)) => {
                    order.push(page);
                    for &t in web.outlinks(page) {
                        let th = web.page(t).host;
                        if prioritized {
                            f.offer(th, t, now); // re-offers cite
                        } else if !f.seen.contains(&t) {
                            f.offer(th, t, now);
                        }
                    }
                    f.complete(host, now);
                }
                Err(Some(t)) => now = t,
                Err(None) => break,
            }
        }
        order
    };
    let fifo = run(false);
    let prio = run(true);
    let mean_prefix = |order: &[PageId]| -> f64 {
        let k = ((order.len() as f64 * prefix_fraction) as usize).max(1);
        order.iter().take(k).map(|p| f64::from(deg[p.0 as usize])).sum::<f64>() / k as f64
    };
    // The Cho/Garcia-Molina/Page metric: how early are the *hot* pages
    // (true top-100 by in-degree) fetched? Mean normalized fetch position,
    // 0 = first fetch, 1 = last (or never fetched).
    let hot: Vec<u32> = {
        let mut ids: Vec<u32> = (0..web.num_pages() as u32).collect();
        ids.sort_by_key(|&i| (Reverse(deg[i as usize]), i));
        ids.truncate(100);
        ids
    };
    let mean_hot_position = |order: &[PageId]| -> f64 {
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, p)| (p.0, i)).collect();
        let n = order.len().max(1) as f64;
        hot.iter().map(|id| pos.get(id).map_or(1.0, |&i| i as f64 / n)).sum::<f64>()
            / hot.len() as f64
    };
    OrderingReport {
        fetched: fifo.len(),
        fifo_prefix_indegree: mean_prefix(&fifo),
        prioritized_prefix_indegree: mean_prefix(&prio),
        fifo_hot_position: mean_hot_position(&fifo),
        prioritized_hot_position: mean_hot_position(&prio),
    }
}

/// Result of [`evaluate_crawl_ordering`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingReport {
    /// Pages fetched by both runs (identical coverage).
    pub fetched: usize,
    /// Mean true in-degree of the FIFO run's prefix.
    pub fifo_prefix_indegree: f64,
    /// Mean true in-degree of the prioritized run's prefix.
    pub prioritized_prefix_indegree: f64,
    /// Mean normalized fetch position of the true top-100 pages, FIFO.
    pub fifo_hot_position: f64,
    /// Same under prioritization (smaller = hot pages fetched earlier).
    pub prioritized_hot_position: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_webgraph::generate::{generate_web, WebConfig};

    const H: HostId = HostId(1);

    #[test]
    fn pops_highest_cited_first() {
        let mut f = PriorityFrontier::new(0);
        f.offer(H, PageId(10), 0);
        f.offer(H, PageId(20), 0);
        f.offer(H, PageId(30), 0);
        // Cite page 30 twice.
        f.offer(H, PageId(30), 0);
        f.offer(H, PageId(30), 0);
        let (_, p) = f.next_fetch(0).unwrap();
        assert_eq!(p, PageId(30));
        f.complete(H, 0);
        // Remaining tie broken by lower id.
        let (_, p2) = f.next_fetch(0).unwrap();
        assert_eq!(p2, PageId(10));
    }

    #[test]
    fn politeness_still_enforced() {
        let mut f = PriorityFrontier::new(100);
        f.offer(H, PageId(1), 0);
        f.offer(H, PageId(2), 0);
        let _ = f.next_fetch(0).unwrap();
        assert_eq!(f.next_fetch(0), Err(None), "host busy");
        f.complete(H, 50);
        assert_eq!(f.next_fetch(50), Err(Some(150)));
        assert!(f.next_fetch(150).is_ok());
    }

    #[test]
    fn an_entry_keyed_before_a_fetch_waits_for_its_floor() {
        let mut f = PriorityFrontier::new(100);
        // Both offers find the host idle, so each pushes a ready entry at 0.
        f.offer(H, PageId(1), 0);
        f.offer(H, PageId(2), 0);
        assert_eq!(f.next_fetch(0), Ok((H, PageId(1))));
        f.complete(H, 0);
        assert_eq!(f.next_fetch(0), Err(Some(100)), "second page served before the floor");
        assert_eq!(f.next_fetch(100), Ok((H, PageId(2))));
    }

    #[test]
    fn pending_is_conserved() {
        let mut f = PriorityFrontier::new(0);
        for i in 0..10u32 {
            f.offer(H, PageId(i), 0);
            f.offer(H, PageId(i), 0); // duplicate cites, not enqueues
        }
        assert_eq!(f.pending(), 10);
        let mut got = 0;
        let mut now = 0;
        loop {
            match f.next_fetch(now) {
                Ok((h, _)) => {
                    got += 1;
                    f.complete(h, now);
                }
                Err(Some(t)) => now = t,
                Err(None) => break,
            }
        }
        assert_eq!(got, 10);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn prioritization_front_loads_high_indegree_pages() {
        let web = generate_web(&WebConfig::tiny(), 99);
        let r = evaluate_crawl_ordering(&web, 8, 0.2);
        assert!(r.fetched > 500);
        // Prefix quality improves (weak metric)...
        assert!(
            r.prioritized_prefix_indegree > r.fifo_prefix_indegree,
            "prio={} fifo={}",
            r.prioritized_prefix_indegree,
            r.fifo_prefix_indegree
        );
        // ...and the hot pages arrive distinctly earlier (the Cho et al.
        // metric, where backlink ordering shows its value).
        assert!(
            r.prioritized_hot_position < 0.8 * r.fifo_hot_position,
            "prio={} fifo={}",
            r.prioritized_hot_position,
            r.fifo_hot_position
        );
    }

    #[test]
    fn both_orderings_cover_the_same_set() {
        let web = generate_web(&WebConfig::tiny(), 101);
        let r = evaluate_crawl_ordering(&web, 4, 1.0);
        // prefix = 100%: identical coverage means identical mean degree.
        assert!((r.fifo_prefix_indegree - r.prioritized_prefix_indegree).abs() < 1e-9);
    }
}
