//! Network model: sites, links, latency and bandwidth.
//!
//! Section 5 of the paper stresses that "while in local-area networks
//! message latency is on the order of hundreds of microseconds, in
//! wide-area networks it can be as large as hundreds of milliseconds", and
//! that bandwidth is the scarce resource of distributed retrieval. The
//! model here captures exactly those two quantities: a message of `size`
//! bytes over a link costs `latency + size / bandwidth` (plus optional
//! jitter drawn by the caller).

use crate::event::SimTime;
use crate::rng::SimRng;
use crate::{MILLISECOND, SECOND};

/// Identifier of a site (a group of collocated servers, per the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// A point-to-point link with fixed base latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way base latency in microseconds.
    pub latency_us: SimTime,
    /// Bandwidth in bytes per simulated second.
    pub bandwidth_bps: u64,
    /// Relative jitter: the transfer time is multiplied by a factor drawn
    /// uniformly from `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Link {
    /// A typical LAN link: 200 µs latency, 1 GB/s, low jitter.
    pub fn lan() -> Self {
        Link { latency_us: 200, bandwidth_bps: 1_000_000_000, jitter: 0.1 }
    }

    /// A typical intra-continental WAN link: 30 ms latency, 100 MB/s.
    pub fn wan() -> Self {
        Link { latency_us: 30 * MILLISECOND, bandwidth_bps: 100_000_000, jitter: 0.3 }
    }

    /// A trans-oceanic WAN link: 150 ms latency, 50 MB/s.
    fn wan_far() -> Self {
        Link { latency_us: 150 * MILLISECOND, bandwidth_bps: 50_000_000, jitter: 0.3 }
    }

    /// Deterministic transfer time for a message of `bytes` bytes
    /// (no jitter applied).
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        let serialization = bytes.saturating_mul(SECOND) / self.bandwidth_bps.max(1);
        self.latency_us + serialization
    }

    /// Transfer time with multiplicative jitter drawn from `rng`.
    pub fn transfer_time_jittered(&self, bytes: u64, rng: &mut SimRng) -> SimTime {
        let base = self.transfer_time(bytes) as f64;
        (base * (1.0 + self.jitter * rng.f64())) as SimTime
    }
}

/// A symmetric topology of sites: every pair of sites has a link, and every
/// site has an internal (LAN) link used for intra-site communication.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// Upper-triangular inter-site links, indexed by `pair_index`.
    inter: Vec<Link>,
    intra: Link,
}

impl Topology {
    /// Create a topology of `n` sites where all inter-site links equal
    /// `inter` and intra-site traffic uses `intra`.
    pub fn uniform(n: usize, inter: Link, intra: Link) -> Self {
        assert!(n > 0);
        let pairs = n * (n.saturating_sub(1)) / 2;
        Topology { n, inter: vec![inter; pairs], intra }
    }

    /// Create a single-site (cluster-only) topology.
    pub fn single_site() -> Self {
        Self::uniform(1, Link::wan(), Link::lan())
    }

    /// A geographically spread topology: sites `0..n` placed on a ring;
    /// adjacent sites get `wan`, all others `wan_far`.
    pub fn geo_ring(n: usize) -> Self {
        assert!(n > 0);
        let mut topo = Self::uniform(n, Link::wan_far(), Link::lan());
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                topo.set_link(SiteId(i as u32), SiteId(j as u32), Link::wan());
            }
        }
        topo
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.n
    }

    fn pair_index(&self, a: SiteId, b: SiteId) -> usize {
        let (lo, hi) =
            if a.0 < b.0 { (a.0 as usize, b.0 as usize) } else { (b.0 as usize, a.0 as usize) };
        assert!(hi < self.n, "site out of range");
        // Index into the upper triangle laid out row by row.
        lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Replace the link between two distinct sites.
    fn set_link(&mut self, a: SiteId, b: SiteId, link: Link) {
        assert_ne!(a, b, "use the intra-site link for a == b");
        let idx = self.pair_index(a, b);
        self.inter[idx] = link;
    }

    /// The link used between sites `a` and `b` (the intra-site link when
    /// `a == b`).
    pub fn link(&self, a: SiteId, b: SiteId) -> Link {
        if a == b {
            self.intra
        } else {
            self.inter[self.pair_index(a, b)]
        }
    }

    /// One-way latency between two sites for a message of `bytes` bytes.
    pub fn transfer_time(&self, a: SiteId, b: SiteId, bytes: u64) -> SimTime {
        self.link(a, b).transfer_time(bytes)
    }

    /// Round-trip time for a request of `req` bytes and a response of
    /// `resp` bytes.
    pub fn rtt(&self, a: SiteId, b: SiteId, req: u64, resp: u64) -> SimTime {
        self.transfer_time(a, b, req) + self.transfer_time(b, a, resp)
    }

    /// Every site ordered by small-message latency from `from` (the
    /// failover preference order of the site tier): `from` itself first
    /// (intra-site latency is the smallest by construction of any sane
    /// topology), then by increasing WAN latency, ties broken by site id
    /// so the order is deterministic and independent of iteration order.
    pub fn order_by_latency(&self, from: SiteId) -> Vec<SiteId> {
        let mut order: Vec<SiteId> = (0..self.n as u32).map(SiteId).collect();
        order.sort_by_key(|&s| (self.transfer_time(from, s, 64), s.0));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_faster_than_wan() {
        assert!(Link::lan().transfer_time(1000) < Link::wan().transfer_time(1000));
        assert!(Link::wan().transfer_time(1000) < Link::wan_far().transfer_time(1000));
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let l = Link { latency_us: 100, bandwidth_bps: 1_000_000, jitter: 0.0 };
        // 1 MB over 1 MB/s = 1 second of serialization.
        assert_eq!(l.transfer_time(1_000_000), 100 + SECOND);
        assert_eq!(l.transfer_time(0), 100);
    }

    #[test]
    fn jitter_bounded() {
        let l = Link { latency_us: 1000, bandwidth_bps: 1_000_000_000, jitter: 0.5 };
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let t = l.transfer_time_jittered(0, &mut rng);
            assert!((1000..=1500).contains(&t), "t={t}");
        }
    }

    #[test]
    fn topology_symmetric() {
        let mut topo = Topology::uniform(4, Link::wan(), Link::lan());
        topo.set_link(SiteId(1), SiteId(3), Link::wan_far());
        assert_eq!(topo.link(SiteId(1), SiteId(3)), Link::wan_far());
        assert_eq!(topo.link(SiteId(3), SiteId(1)), Link::wan_far());
        assert_eq!(topo.link(SiteId(0), SiteId(2)), Link::wan());
        assert_eq!(topo.link(SiteId(2), SiteId(2)), Link::lan());
    }

    #[test]
    fn pair_index_covers_all_pairs() {
        let topo = Topology::uniform(5, Link::wan(), Link::lan());
        let mut seen = std::collections::HashSet::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                assert!(seen.insert(topo.pair_index(SiteId(a), SiteId(b))));
            }
        }
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|&i| i < 10));
    }

    #[test]
    fn geo_ring_adjacent_closer() {
        let topo = Topology::geo_ring(5);
        let near = topo.transfer_time(SiteId(0), SiteId(1), 64);
        let far = topo.transfer_time(SiteId(0), SiteId(2), 64);
        assert!(near < far);
    }

    #[test]
    fn order_by_latency_is_total_and_deterministic() {
        let topo = Topology::geo_ring(5);
        let order = topo.order_by_latency(SiteId(3));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], SiteId(3), "self first (LAN beats WAN)");
        // Ring neighbours (2 and 4) before the far sites, ties by id.
        assert_eq!(&order[1..3], &[SiteId(2), SiteId(4)]);
        assert_eq!(&order[3..], &[SiteId(0), SiteId(1)]);
        assert_eq!(order, topo.order_by_latency(SiteId(3)), "stable across calls");
        // Latencies are non-decreasing along the order.
        let lat: Vec<_> = order.iter().map(|&s| topo.transfer_time(SiteId(3), s, 64)).collect();
        assert!(lat.windows(2).all(|w| w[0] <= w[1]), "{lat:?}");
    }

    #[test]
    fn rtt_sums_both_directions() {
        let topo = Topology::uniform(2, Link::wan(), Link::lan());
        let one_way = topo.transfer_time(SiteId(0), SiteId(1), 100);
        assert_eq!(topo.rtt(SiteId(0), SiteId(1), 100, 100), 2 * one_way);
    }
}
