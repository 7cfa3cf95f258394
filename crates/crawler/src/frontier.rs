//! Per-agent crawl frontier with hard politeness.
//!
//! "De facto standards of operation state that a crawler should not open
//! more than one connection at a time to each Web server, and should wait
//! several seconds between repeated accesses" \[4\]. The frontier enforces
//! both: a host is *busy* while one of its pages is being fetched, and
//! after completion it only becomes eligible again `politeness_delay`
//! later. Hosts are kept in a ready-heap keyed by eligibility time.
//!
//! Within a host, pages wait in one of two orders ([`QueueOrder`]):
//! discovery order, or most-cited first. The second is the classic
//! online quality signal — the number of in-links discovered so far —
//! behind the paper's "prioritize high-quality objects" (Section 2) and
//! its open problem of prioritizing the frontier "under a dynamic
//! scenario" (Section 6). The politeness machinery is the same for both.

use dwr_sim::hash::{IdMap, IdSet};
use dwr_sim::SimTime;
use dwr_webgraph::graph::{HostId, PageId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// The order in which one host's queued pages are fetched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueOrder {
    /// Discovery order.
    #[default]
    Fifo,
    /// Most-cited first, lower page id on ties. Offering a page that is
    /// already queued cites it once more.
    Citations,
}

/// One host's waiting pages, in the frontier's [`QueueOrder`]. The
/// citation queue is boxed so a FIFO queue stays a bare `VecDeque`.
#[derive(Debug)]
enum HostQueue {
    Fifo(VecDeque<PageId>),
    Cited(Box<CitedQueue>),
}

/// A host's pages, most-cited first.
#[derive(Debug, Default)]
struct CitedQueue {
    /// Queued pages keyed (citations descending, page id).
    ranked: BTreeSet<(Reverse<u32>, PageId)>,
    /// Citation count of each queued page: its current key.
    counts: IdMap<PageId, u32>,
}

impl HostQueue {
    fn new(order: QueueOrder) -> Self {
        match order {
            QueueOrder::Fifo => HostQueue::Fifo(VecDeque::new()),
            QueueOrder::Citations => HostQueue::Cited(Box::default()),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            HostQueue::Fifo(q) => q.is_empty(),
            HostQueue::Cited(q) => q.ranked.is_empty(),
        }
    }

    /// Queue a page not queued here (one citation: its discovery).
    fn push(&mut self, page: PageId) {
        match self {
            HostQueue::Fifo(q) => q.push_back(page),
            HostQueue::Cited(q) => {
                q.counts.insert(page, 1);
                q.ranked.insert((Reverse(1), page));
            }
        }
    }

    /// One more citation of `page`, if it is queued here.
    fn cite(&mut self, page: PageId) {
        if let HostQueue::Cited(q) = self {
            if let Some(c) = q.counts.get_mut(&page) {
                q.ranked.remove(&(Reverse(*c), page));
                *c += 1;
                q.ranked.insert((Reverse(*c), page));
            }
        }
    }

    fn pop(&mut self) -> Option<PageId> {
        match self {
            HostQueue::Fifo(q) => q.pop_front(),
            HostQueue::Cited(q) => {
                let (_, page) = q.ranked.pop_first()?;
                q.counts.remove(&page);
                Some(page)
            }
        }
    }

    /// Every queued page, in fetch order.
    fn into_pages(self) -> Vec<PageId> {
        match self {
            HostQueue::Fifo(q) => q.into(),
            HostQueue::Cited(q) => q.ranked.into_iter().map(|(_, p)| p).collect(),
        }
    }
}

/// The frontier of one crawling agent.
#[derive(Debug)]
pub struct Frontier {
    /// Per-host queue of pages to fetch.
    queues: IdMap<HostId, HostQueue>,
    /// Hosts with pending pages, keyed by next-eligible time. A host is in
    /// the heap iff it has pages and is not busy.
    ready: BinaryHeap<Reverse<(SimTime, HostId)>>,
    /// Hosts currently fetching (politeness: at most one connection).
    busy: IdSet<HostId>,
    /// Earliest next access per host.
    next_allowed: IdMap<HostId, SimTime>,
    /// Pages enqueued here and not handed off (this agent's part of the
    /// URL-seen test).
    seen: IdSet<PageId>,
    /// Minimum delay between accesses to one host.
    politeness_delay: SimTime,
    order: QueueOrder,
    pending: usize,
}

impl Frontier {
    /// Create a frontier with the given inter-access delay (the paper's
    /// "several seconds") and per-host queue order.
    pub fn new(politeness_delay: SimTime, order: QueueOrder) -> Self {
        Frontier {
            queues: IdMap::default(),
            ready: BinaryHeap::new(),
            busy: IdSet::default(),
            next_allowed: IdMap::default(),
            seen: IdSet::default(),
            politeness_delay,
            order,
            pending: 0,
        }
    }

    /// Enqueue a page if its URL has not been seen before.
    /// Returns whether it was fresh. Under [`QueueOrder::Citations`] a
    /// re-offer of a queued page cites it instead.
    pub fn offer(&mut self, host: HostId, page: PageId, now: SimTime) -> bool {
        if !self.seen.insert(page) {
            // Checked first so a FIFO re-offer costs no queue lookup.
            if self.order == QueueOrder::Citations {
                if let Some(q) = self.queues.get_mut(&host) {
                    q.cite(page);
                }
            }
            return false;
        }
        let order = self.order;
        let q = self.queues.entry(host).or_insert_with(|| HostQueue::new(order));
        let was_empty = q.is_empty();
        q.push(page);
        self.pending += 1;
        if was_empty && !self.busy.contains(&host) {
            let at = self.next_allowed.get(&host).copied().unwrap_or(0).max(now);
            self.ready.push(Reverse((at, host)));
        }
        true
    }

    /// Number of pages waiting (not in flight).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Pop the next fetchable page at `now`.
    ///
    /// * `Ok((host, page))` — fetch this now; the host becomes busy.
    /// * `Err(Some(t))` — nothing eligible yet; earliest eligibility is `t`.
    /// * `Err(None)` — frontier has no pending pages at all.
    pub fn next_fetch(&mut self, now: SimTime) -> Result<(HostId, PageId), Option<SimTime>> {
        loop {
            let Some(&Reverse((at, host))) = self.ready.peek() else {
                return Err(None);
            };
            // Stale heap entries (host emptied or became busy) are skipped.
            let valid =
                !self.busy.contains(&host) && self.queues.get(&host).is_some_and(|q| !q.is_empty());
            if !valid {
                self.ready.pop();
                continue;
            }
            // Entries scheduled before the host's politeness floor was
            // raised (e.g. by a frontier handoff carrying `next_allowed`
            // from the previous owner) are re-keyed, never served early.
            let floor = self.next_allowed.get(&host).copied().unwrap_or(0);
            if at < floor {
                self.ready.pop();
                self.ready.push(Reverse((floor, host)));
                continue;
            }
            if at > now {
                return Err(Some(at));
            }
            self.ready.pop();
            let q = self.queues.get_mut(&host).expect("validated above");
            let page = q.pop().expect("validated above");
            self.pending -= 1;
            self.busy.insert(host);
            return Ok((host, page));
        }
    }

    /// Report a fetch completion (success or permanent failure) at `now`:
    /// frees the host and starts its politeness interval.
    pub fn complete(&mut self, host: HostId, now: SimTime) {
        let was_busy = self.busy.remove(&host);
        assert!(was_busy, "complete() for a host that was not busy");
        let at = now + self.politeness_delay;
        self.next_allowed.insert(host, at);
        if self.queues.get(&host).is_some_and(|q| !q.is_empty()) {
            self.ready.push(Reverse((at, host)));
        }
    }

    /// Re-queue a page after a transient failure; it goes to the back of
    /// its host's queue (under citation order, back to one citation) and
    /// the host gets an extra back-off before the next attempt. The host
    /// must currently be busy with this fetch.
    pub fn retry_later(&mut self, host: HostId, page: PageId, now: SimTime, backoff: SimTime) {
        let was_busy = self.busy.remove(&host);
        assert!(was_busy, "retry_later() for a host that was not busy");
        let order = self.order;
        self.queues.entry(host).or_insert_with(|| HostQueue::new(order)).push(page);
        self.pending += 1;
        let at = now + self.politeness_delay + backoff;
        self.next_allowed.insert(host, at);
        self.ready.push(Reverse((at, host)));
    }

    /// Hosts with pending pages, ascending (deterministic iteration
    /// order for handoff paths).
    pub fn host_ids(&self) -> Vec<HostId> {
        let mut out: Vec<HostId> =
            self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&h, _)| h).collect();
        out.sort_unstable();
        out
    }

    /// Remove `host`'s entire pending state — queued pages, in fetch
    /// order, and the politeness clock — for handoff to another agent.
    /// The extracted pages are *unmarked* from the seen set so a later
    /// handoff can bring them back without the dedup filter eating them;
    /// any busy marker is cleared (callers only extract hosts whose
    /// connection, if one is open, belongs to someone else). Citation
    /// counts do not travel: the new owner counts its own discoveries,
    /// as its seen set does.
    ///
    /// The seen set only remembers what this frontier queued, so it is
    /// not the whole URL-seen test: the crawl simulator also rejects a
    /// page that is already stored or in flight before it offers one,
    /// and that is what keeps a host that changes hands from being
    /// fetched twice.
    pub fn extract_host(&mut self, host: HostId) -> (Vec<PageId>, Option<SimTime>) {
        let pages = self.queues.remove(&host).map(HostQueue::into_pages).unwrap_or_default();
        self.pending -= pages.len();
        for p in &pages {
            self.seen.remove(p);
        }
        self.busy.remove(&host);
        (pages, self.next_allowed.remove(&host))
    }

    /// Install `host`'s state received from a handoff: raise the
    /// politeness floor to `floor` (never lower it) and enqueue the
    /// pages, deduplicating against this agent's seen set. Returns how
    /// many pages were actually installed (fresh here).
    pub fn install_host(
        &mut self,
        host: HostId,
        pages: impl IntoIterator<Item = PageId>,
        floor: Option<SimTime>,
        now: SimTime,
    ) -> usize {
        if let Some(at) = floor {
            self.impose_next_allowed(host, at);
        }
        pages.into_iter().filter(|&p| self.offer(host, p, now)).count()
    }

    /// Raise `host`'s next-allowed-access time to at least `at`
    /// (politeness carry-over across ownership transfers; never lowers
    /// an existing floor).
    fn impose_next_allowed(&mut self, host: HostId, at: SimTime) {
        let e = self.next_allowed.entry(host).or_insert(at);
        *e = (*e).max(at);
    }

    /// Mark `host` busy on behalf of a *foreign* connection: another
    /// agent still has this host's one allowed connection open (a
    /// deferred handoff), so this agent must not fetch from it until
    /// [`Frontier::unblock`].
    pub fn block(&mut self, host: HostId) {
        self.busy.insert(host);
    }

    /// Lift a [`Frontier::block`] once the foreign connection closed at
    /// politeness floor `at`, re-arming the ready heap if pages wait.
    pub fn unblock(&mut self, host: HostId, at: SimTime) {
        self.busy.remove(&host);
        self.impose_next_allowed(host, at);
        if self.queues.get(&host).is_some_and(|q| !q.is_empty()) {
            let floor = self.next_allowed.get(&host).copied().unwrap_or(at);
            self.ready.push(Reverse((floor, host)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_sim::SECOND;

    const H1: HostId = HostId(1);
    const H2: HostId = HostId(2);
    const ORDERS: [QueueOrder; 2] = [QueueOrder::Fifo, QueueOrder::Citations];

    fn fifo(politeness_delay: SimTime) -> Frontier {
        Frontier::new(politeness_delay, QueueOrder::Fifo)
    }

    fn cited(politeness_delay: SimTime) -> Frontier {
        Frontier::new(politeness_delay, QueueOrder::Citations)
    }

    #[test]
    fn offer_dedupes() {
        for order in ORDERS {
            let mut f = Frontier::new(SECOND, order);
            assert!(f.offer(H1, PageId(1), 0));
            assert!(!f.offer(H1, PageId(1), 0));
            assert_eq!(f.pending(), 1);
        }
    }

    #[test]
    fn one_connection_per_host() {
        for order in ORDERS {
            let mut f = Frontier::new(SECOND, order);
            f.offer(H1, PageId(1), 0);
            f.offer(H1, PageId(2), 0);
            let (h, p) = f.next_fetch(0).expect("first fetch");
            assert_eq!((h, p), (H1, PageId(1)));
            // Second page of same host is blocked while busy.
            assert_eq!(f.next_fetch(0), Err(None));
            f.complete(H1, 10);
            // Politeness: not before 10 + 1s.
            assert_eq!(f.next_fetch(10), Err(Some(10 + SECOND)));
            let (h2, p2) = f.next_fetch(10 + SECOND).expect("after politeness");
            assert_eq!((h2, p2), (H1, PageId(2)));
        }
    }

    #[test]
    fn different_hosts_fetch_concurrently() {
        let mut f = fifo(SECOND);
        f.offer(H1, PageId(1), 0);
        f.offer(H2, PageId(2), 0);
        let a = f.next_fetch(0).expect("host 1");
        let b = f.next_fetch(0).expect("host 2");
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn politeness_interval_enforced_between_accesses() {
        let mut f = fifo(2 * SECOND);
        f.offer(H1, PageId(1), 0);
        f.offer(H1, PageId(2), 0);
        let _ = f.next_fetch(0).unwrap();
        f.complete(H1, 5 * SECOND);
        match f.next_fetch(5 * SECOND) {
            Err(Some(t)) => assert_eq!(t, 7 * SECOND),
            other => panic!("expected wait, got {other:?}"),
        }
    }

    #[test]
    fn retry_backs_off() {
        for order in ORDERS {
            let mut f = Frontier::new(SECOND, order);
            f.offer(H1, PageId(1), 0);
            let _ = f.next_fetch(0).unwrap();
            f.retry_later(H1, PageId(1), 0, 10 * SECOND);
            assert_eq!(f.pending(), 1);
            match f.next_fetch(0) {
                Err(Some(t)) => assert_eq!(t, 11 * SECOND),
                other => panic!("expected backoff, got {other:?}"),
            }
            let (_, p) = f.next_fetch(11 * SECOND).unwrap();
            assert_eq!(p, PageId(1));
        }
    }

    #[test]
    fn extracting_every_host_returns_everything_pending() {
        let mut f = fifo(SECOND);
        f.offer(H1, PageId(1), 0);
        f.offer(H1, PageId(2), 0);
        f.offer(H2, PageId(3), 0);
        let _ = f.next_fetch(0).unwrap(); // one in flight, not extracted
        let extracted: Vec<PageId> =
            f.host_ids().into_iter().flat_map(|h| f.extract_host(h).0).collect();
        assert_eq!(extracted.len(), 2);
        assert_eq!(f.pending(), 0);
        assert!(f.host_ids().is_empty());
    }

    #[test]
    fn empty_frontier_reports_none() {
        let mut f = fifo(SECOND);
        assert_eq!(f.next_fetch(100), Err(None));
    }

    #[test]
    #[should_panic(expected = "not busy")]
    fn complete_requires_busy() {
        let mut f = fifo(SECOND);
        f.complete(H1, 0);
    }

    #[test]
    fn extract_install_roundtrip_preserves_politeness() {
        let mut src = fifo(2 * SECOND);
        src.offer(H1, PageId(1), 0);
        src.offer(H1, PageId(2), 0);
        let _ = src.next_fetch(0).unwrap();
        src.complete(H1, 10 * SECOND); // next allowed at 12 s
        let (pages, na) = src.extract_host(H1);
        assert_eq!(pages, vec![PageId(2)]);
        assert_eq!(na, Some(12 * SECOND));
        assert_eq!(src.pending(), 0);

        let mut dst = fifo(2 * SECOND);
        let installed = dst.install_host(H1, pages, na, 10 * SECOND);
        assert_eq!(installed, 1);
        // The new owner honours the previous owner's politeness clock.
        match dst.next_fetch(10 * SECOND) {
            Err(Some(t)) => assert_eq!(t, 12 * SECOND),
            other => panic!("expected politeness wait, got {other:?}"),
        }
        assert_eq!(dst.next_fetch(12 * SECOND), Ok((H1, PageId(2))));
        // Extracted pages were unmarked from the source's seen set.
        assert!(src.offer(H1, PageId(2), 0), "an extracted page is fresh again");
    }

    #[test]
    fn raised_floor_rekeys_stale_ready_entries() {
        let mut f = fifo(SECOND);
        f.offer(H1, PageId(1), 0); // ready at 0
        f.impose_next_allowed(H1, 9 * SECOND);
        // The heap entry at t=0 is stale; next_fetch must not serve it.
        match f.next_fetch(5 * SECOND) {
            Err(Some(t)) => assert_eq!(t, 9 * SECOND),
            other => panic!("expected re-keyed wait, got {other:?}"),
        }
        assert_eq!(f.next_fetch(9 * SECOND), Ok((H1, PageId(1))));
    }

    #[test]
    fn block_defers_and_unblock_rearms() {
        let mut f = fifo(SECOND);
        f.block(H1);
        f.offer(H1, PageId(1), 0);
        assert_eq!(f.next_fetch(100 * SECOND), Err(None), "blocked host is not served");
        f.unblock(H1, 3 * SECOND);
        match f.next_fetch(0) {
            Err(Some(t)) => assert_eq!(t, 3 * SECOND),
            other => panic!("expected floor wait, got {other:?}"),
        }
        assert_eq!(f.next_fetch(3 * SECOND), Ok((H1, PageId(1))));
    }

    #[test]
    fn install_host_dedupes_against_seen() {
        let mut f = fifo(SECOND);
        f.offer(H1, PageId(1), 0);
        let installed = f.install_host(H1, [PageId(1), PageId(2)], None, 0);
        assert_eq!(installed, 1, "already-seen page is dropped");
        assert_eq!(f.pending(), 2);
    }

    #[test]
    fn extract_missing_host_is_empty() {
        let mut f = fifo(SECOND);
        assert_eq!(f.extract_host(H2), (Vec::new(), None));
        assert!(f.host_ids().is_empty());
    }

    #[test]
    fn fifo_within_host() {
        let mut f = fifo(0);
        for i in 0..5 {
            f.offer(H1, PageId(i), 0);
        }
        f.offer(H1, PageId(4), 0); // a re-offer does not reorder FIFO
        let mut order = Vec::new();
        for _ in 0..5 {
            let (_, p) = f.next_fetch(1_000_000).unwrap();
            order.push(p.0);
            f.complete(H1, 1_000_000);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pops_highest_cited_first() {
        let mut f = cited(0);
        f.offer(H1, PageId(10), 0);
        f.offer(H1, PageId(20), 0);
        f.offer(H1, PageId(30), 0);
        // Cite page 30 twice.
        f.offer(H1, PageId(30), 0);
        f.offer(H1, PageId(30), 0);
        let (_, p) = f.next_fetch(0).unwrap();
        assert_eq!(p, PageId(30));
        f.complete(H1, 0);
        // Remaining tie broken by lower id.
        let (_, p2) = f.next_fetch(0).unwrap();
        assert_eq!(p2, PageId(10));
    }

    #[test]
    fn an_entry_keyed_before_a_fetch_waits_for_its_floor() {
        let mut f = cited(100);
        f.offer(H1, PageId(1), 0);
        f.offer(H1, PageId(2), 0);
        f.offer(H1, PageId(2), 0); // a cite while the host is idle
        assert_eq!(f.next_fetch(0), Ok((H1, PageId(2))));
        f.complete(H1, 0);
        assert_eq!(f.next_fetch(0), Err(Some(100)), "second page served before the floor");
        assert_eq!(f.next_fetch(100), Ok((H1, PageId(1))));
    }

    #[test]
    fn pending_is_conserved() {
        let mut f = cited(0);
        for i in 0..10u32 {
            f.offer(H1, PageId(i), 0);
            f.offer(H1, PageId(i), 0); // duplicate cites, not enqueues
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
    fn extract_host_returns_each_cited_page_once_most_cited_first() {
        let mut f = cited(SECOND);
        for p in [5, 3, 9, 1] {
            f.offer(H1, PageId(p), 0);
        }
        // Page 9: three citations; page 3: two; pages 1 and 5: one.
        for p in [9, 3, 9, 9, 3] {
            f.offer(H1, PageId(p), 0);
        }
        let (pages, _) = f.extract_host(H1);
        assert_eq!(pages, vec![PageId(9), PageId(3), PageId(1), PageId(5)]);
        assert_eq!(f.pending(), 0);
    }
}
