//! Host-to-agent assignment policies.
//!
//! "A trivial, but reasonable assignment policy is to use hashing to
//! transform server names into a number that corresponds to the index of
//! the corresponding crawling agent" — but it re-shuffles almost everything
//! when the agent pool changes. "The authors of \[6\] propose to use
//! consistent hashing, which replicates the hashing buckets. With
//! consistent hashing, new agents enter the crawling system without
//! re-hashing all the server names."
//!
//! All assigners map a [`HostId`] (never an individual URL — host-level
//! assignment preserves link locality and politeness ownership) to an
//! [`AgentId`].

use dwr_webgraph::graph::HostId;
use dwr_webgraph::SyntheticWeb;
use std::collections::BTreeMap;

/// Identifier of a crawling agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub u32);

/// A host-to-agent assignment policy.
pub trait UrlAssigner {
    /// The agent responsible for `host`.
    fn agent_for(&self, host: HostId, web: &SyntheticWeb) -> AgentId;
    /// Live agents, ascending.
    fn agents(&self) -> Vec<AgentId>;
    /// Remove a crashed/departed agent; its hosts flow to the survivors.
    /// Removing an unknown agent or the *last* live agent is refused
    /// (returns `false`) instead of panicking — an assigner must always
    /// be able to answer [`UrlAssigner::agent_for`].
    fn remove_agent(&mut self, agent: AgentId) -> bool;
    /// Add a (new or recovered) agent. Adding an already-present agent
    /// is an ignored no-op (returns `false`).
    fn add_agent(&mut self, agent: AgentId) -> bool;
}

/// FNV-1a host-name hash — stable across runs, used by all hash policies.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Plain modulo hashing: `agent = hash(host) mod n`.
///
/// Balanced over *hosts*, but any membership change remaps ~(n-1)/n of all
/// hosts — the weakness consistent hashing fixes.
#[derive(Debug, Clone)]
pub struct HashAssigner {
    agents: Vec<AgentId>,
}

impl HashAssigner {
    /// Create with agents `0..n`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        HashAssigner { agents: (0..n).map(AgentId).collect() }
    }
}

impl UrlAssigner for HashAssigner {
    fn agent_for(&self, host: HostId, web: &SyntheticWeb) -> AgentId {
        let h = hash_name(&web.host(host).name);
        self.agents[(h % self.agents.len() as u64) as usize]
    }
    fn agents(&self) -> Vec<AgentId> {
        self.agents.clone()
    }
    fn remove_agent(&mut self, agent: AgentId) -> bool {
        if self.agents.len() <= 1 || !self.agents.contains(&agent) {
            return false;
        }
        self.agents.retain(|&a| a != agent);
        true
    }
    fn add_agent(&mut self, agent: AgentId) -> bool {
        if self.agents.contains(&agent) {
            return false;
        }
        self.agents.push(agent);
        self.agents.sort_unstable();
        true
    }
}

/// Consistent hashing with replicated virtual buckets (UbiCrawler-style).
///
/// Each agent owns `replicas` points on a `u64` ring; a host maps to the
/// first agent point at or after its hash. Membership changes move only
/// the hosts in the vanished/created arcs.
#[derive(Debug, Clone)]
pub struct ConsistentHashAssigner {
    ring: BTreeMap<u64, AgentId>,
    replicas: u32,
    agents: Vec<AgentId>,
}

impl ConsistentHashAssigner {
    /// Create with agents `0..n`, each owning `replicas` virtual buckets.
    pub fn new(n: u32, replicas: u32) -> Self {
        assert!(n > 0 && replicas > 0);
        let mut s = ConsistentHashAssigner { ring: BTreeMap::new(), replicas, agents: Vec::new() };
        for a in 0..n {
            s.add_agent(AgentId(a));
        }
        s
    }

    fn points_of(agent: AgentId, replicas: u32) -> impl Iterator<Item = u64> {
        (0..replicas).map(move |r| {
            // Mix agent and replica through SplitMix-style finalization.
            let mut z = (u64::from(agent.0) << 32 | u64::from(r))
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }
}

impl UrlAssigner for ConsistentHashAssigner {
    fn agent_for(&self, host: HostId, web: &SyntheticWeb) -> AgentId {
        let h = hash_name(&web.host(host).name);
        // First ring point at or after h, wrapping around.
        self.ring
            .range(h..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, &a)| a)
            .expect("ring is never empty")
    }
    fn agents(&self) -> Vec<AgentId> {
        self.agents.clone()
    }
    fn remove_agent(&mut self, agent: AgentId) -> bool {
        if self.agents.len() <= 1 || !self.agents.contains(&agent) {
            return false;
        }
        for p in Self::points_of(agent, self.replicas) {
            self.ring.remove(&p);
        }
        self.agents.retain(|&a| a != agent);
        debug_assert!(!self.ring.is_empty());
        true
    }
    fn add_agent(&mut self, agent: AgentId) -> bool {
        if self.agents.contains(&agent) {
            return false;
        }
        for p in Self::points_of(agent, self.replicas) {
            self.ring.insert(p, agent);
        }
        self.agents.push(agent);
        self.agents.sort_unstable();
        true
    }
}

/// Geographic assignment: hosts go to an agent in their region (chosen by
/// hash among that region's agents), falling back to plain hashing when a
/// region has no agent. Models "distribute Web crawlers across distinct
/// geographic locations" \[13\].
#[derive(Debug, Clone)]
pub struct GeoAssigner {
    /// `region_agents[r]` = agents located in region `r`.
    region_agents: Vec<Vec<AgentId>>,
    /// Home region of every agent ever seen, surviving removal — so a
    /// recovered agent rejoins its old region.
    region_of: BTreeMap<AgentId, u16>,
    all: Vec<AgentId>,
}

impl GeoAssigner {
    /// Create from each agent's region: `agent_regions[a]` is the region of
    /// agent `a`.
    pub fn new(agent_regions: &[u16]) -> Self {
        assert!(!agent_regions.is_empty());
        let regions = usize::from(*agent_regions.iter().max().expect("non-empty")) + 1;
        let mut region_agents = vec![Vec::new(); regions];
        let mut region_of = BTreeMap::new();
        let mut all = Vec::with_capacity(agent_regions.len());
        for (a, &r) in agent_regions.iter().enumerate() {
            region_agents[usize::from(r)].push(AgentId(a as u32));
            region_of.insert(AgentId(a as u32), r);
            all.push(AgentId(a as u32));
        }
        GeoAssigner { region_agents, region_of, all }
    }
}

impl UrlAssigner for GeoAssigner {
    fn agent_for(&self, host: HostId, web: &SyntheticWeb) -> AgentId {
        let region = usize::from(web.host(host).region);
        let h = hash_name(&web.host(host).name);
        let pool = self.region_agents.get(region).filter(|p| !p.is_empty()).unwrap_or(&self.all);
        pool[(h % pool.len() as u64) as usize]
    }
    fn agents(&self) -> Vec<AgentId> {
        self.all.clone()
    }
    fn remove_agent(&mut self, agent: AgentId) -> bool {
        if self.all.len() <= 1 || !self.all.contains(&agent) {
            return false;
        }
        for pool in &mut self.region_agents {
            pool.retain(|&a| a != agent);
        }
        self.all.retain(|&a| a != agent);
        true
    }
    /// Add a (new or recovered) agent. A previously seen agent rejoins
    /// its remembered home region; an agent never seen before joins the
    /// global fallback pool only (it serves hosts of agent-less regions).
    fn add_agent(&mut self, agent: AgentId) -> bool {
        if self.all.contains(&agent) {
            return false;
        }
        if let Some(&region) = self.region_of.get(&agent) {
            let pool = &mut self.region_agents[usize::from(region)];
            pool.push(agent);
            pool.sort_unstable();
        }
        self.all.push(agent);
        self.all.sort_unstable();
        true
    }
}

/// Per-agent counts of hosts and pages under an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentLoad {
    /// Hosts per agent, indexed by position in `agents()` order.
    pub hosts: Vec<u64>,
    /// Pages per agent (what actually determines crawl work).
    pub pages: Vec<u64>,
}

/// Measure the host/page balance of an assigner over a web.
pub fn assignment_load<A: UrlAssigner + ?Sized>(
    assigner: &A,
    web: &SyntheticWeb,
) -> AssignmentLoad {
    let agents = assigner.agents();
    let index: std::collections::HashMap<AgentId, usize> =
        agents.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let mut hosts = vec![0u64; agents.len()];
    let mut pages = vec![0u64; agents.len()];
    for h in web.host_ids() {
        let a = assigner.agent_for(h, web);
        let i = index[&a];
        hosts[i] += 1;
        pages[i] += web.pages_of_host(h).len() as u64;
    }
    AssignmentLoad { hosts, pages }
}

/// Fraction of hosts whose owner changes between two assignments —
/// the "movement" cost of a membership change.
pub fn movement_fraction<A: UrlAssigner + ?Sized, B: UrlAssigner + ?Sized>(
    before: &A,
    after: &B,
    web: &SyntheticWeb,
) -> f64 {
    let moved =
        web.host_ids().filter(|&h| before.agent_for(h, web) != after.agent_for(h, web)).count();
    moved as f64 / web.num_hosts() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_webgraph::generate::{generate_web, WebConfig};

    fn web() -> SyntheticWeb {
        generate_web(&WebConfig::tiny(), 31)
    }

    #[test]
    fn hash_assigner_is_deterministic_and_total() {
        let web = web();
        let a = HashAssigner::new(8);
        for h in web.host_ids() {
            let x = a.agent_for(h, &web);
            assert_eq!(x, a.agent_for(h, &web));
            assert!(x.0 < 8);
        }
    }

    #[test]
    fn hash_assigner_balances_hosts() {
        let web = web();
        let a = HashAssigner::new(4);
        let load = assignment_load(&a, &web);
        let mean = web.num_hosts() as f64 / 4.0;
        for &h in &load.hosts {
            assert!((h as f64 - mean).abs() < mean * 0.6, "hosts={:?}", load.hosts);
        }
    }

    #[test]
    fn hash_assigner_remaps_nearly_everything_on_change() {
        let web = web();
        let before = HashAssigner::new(8);
        let mut after = HashAssigner::new(8);
        after.remove_agent(AgentId(3));
        let moved = movement_fraction(&before, &after, &web);
        assert!(moved > 0.6, "moved={moved}");
    }

    #[test]
    fn consistent_hash_moves_only_lost_arcs() {
        let web = web();
        let before = ConsistentHashAssigner::new(8, 64);
        let mut after = before.clone();
        after.remove_agent(AgentId(3));
        let moved = movement_fraction(&before, &after, &web);
        // Ideal: 1/8 = 0.125 of hosts move. Allow sampling slack.
        assert!(moved < 0.25, "moved={moved}");
        assert!(moved > 0.0);
        // And the moved hosts were exactly agent 3's.
        for h in web.host_ids() {
            if before.agent_for(h, &web) != AgentId(3) {
                assert_eq!(before.agent_for(h, &web), after.agent_for(h, &web));
            } else {
                assert_ne!(after.agent_for(h, &web), AgentId(3));
            }
        }
    }

    #[test]
    fn consistent_hash_add_agent_monotone() {
        // Monotonicity: adding an agent only moves hosts *to* the new agent.
        let web = web();
        let before = ConsistentHashAssigner::new(8, 64);
        let mut after = before.clone();
        after.add_agent(AgentId(8));
        for h in web.host_ids() {
            let b = before.agent_for(h, &web);
            let a = after.agent_for(h, &web);
            assert!(a == b || a == AgentId(8), "host {h:?} moved {b:?} -> {a:?}");
        }
    }

    #[test]
    fn consistent_hash_balances_with_enough_replicas() {
        let web = web();
        let a = ConsistentHashAssigner::new(8, 128);
        let load = assignment_load(&a, &web);
        let mean = web.num_hosts() as f64 / 8.0;
        let max = *load.hosts.iter().max().unwrap() as f64;
        assert!(max < 2.2 * mean, "hosts={:?}", load.hosts);
    }

    #[test]
    fn more_replicas_balance_better() {
        let web = web();
        let imb = |replicas| {
            let a = ConsistentHashAssigner::new(8, replicas);
            let load = assignment_load(&a, &web);
            let mean = load.hosts.iter().sum::<u64>() as f64 / 8.0;
            *load.hosts.iter().max().unwrap() as f64 / mean
        };
        assert!(imb(256) < imb(2), "256 replicas should balance better than 2");
    }

    #[test]
    fn geo_assigner_respects_regions() {
        let web = web();
        // Two regions, two agents each: agents 0,1 in region 0; 2,3 in 1.
        let geo = GeoAssigner::new(&[0, 0, 1, 1]);
        for h in web.host_ids() {
            let a = geo.agent_for(h, &web);
            let region = web.host(h).region;
            let expected: &[u32] = if region == 0 { &[0, 1] } else { &[2, 3] };
            assert!(expected.contains(&a.0), "host region {region} -> agent {a:?}");
        }
    }

    #[test]
    fn geo_assigner_falls_back_when_region_empty() {
        let web = web();
        let mut geo = GeoAssigner::new(&[0, 0, 1]);
        geo.remove_agent(AgentId(2));
        // Region 1 now empty; hosts there must still get an agent.
        for h in web.host_ids() {
            let a = geo.agent_for(h, &web);
            assert!(a.0 < 2);
        }
    }

    #[test]
    fn cannot_remove_last_agent() {
        // Refused gracefully, not a panic: a crashed "last agent" keeps
        // serving in the simulator, and the assigner must stay total.
        let mut a = HashAssigner::new(1);
        assert!(!a.remove_agent(AgentId(0)));
        assert_eq!(a.agents(), vec![AgentId(0)]);

        let mut c = ConsistentHashAssigner::new(1, 16);
        assert!(!c.remove_agent(AgentId(0)));
        assert_eq!(c.agents(), vec![AgentId(0)]);

        let mut g = GeoAssigner::new(&[0]);
        assert!(!g.remove_agent(AgentId(0)));
        assert_eq!(g.agents(), vec![AgentId(0)]);
    }

    #[test]
    fn remove_unknown_agent_is_refused() {
        let web = web();
        let mut a = HashAssigner::new(4);
        assert!(!a.remove_agent(AgentId(17)));
        assert_eq!(a.agents().len(), 4);

        let before = ConsistentHashAssigner::new(4, 32);
        let mut c = before.clone();
        assert!(!c.remove_agent(AgentId(17)));
        assert_eq!(movement_fraction(&before, &c, &web), 0.0, "no-op must not move hosts");

        let mut g = GeoAssigner::new(&[0, 1]);
        assert!(!g.remove_agent(AgentId(17)));
        assert_eq!(g.agents().len(), 2);
    }

    #[test]
    fn add_duplicate_agent_is_refused() {
        let web = web();
        let mut a = HashAssigner::new(4);
        assert!(!a.add_agent(AgentId(2)));
        assert_eq!(a.agents().len(), 4);

        let before = ConsistentHashAssigner::new(4, 32);
        let mut c = before.clone();
        assert!(!c.add_agent(AgentId(2)));
        assert_eq!(c.agents().len(), 4);
        assert_eq!(movement_fraction(&before, &c, &web), 0.0, "no-op must not move hosts");

        let mut g = GeoAssigner::new(&[0, 1]);
        assert!(!g.add_agent(AgentId(1)));
        assert_eq!(g.agents().len(), 2);
    }

    #[test]
    fn remove_then_add_roundtrips() {
        let web = web();
        let before = ConsistentHashAssigner::new(6, 64);
        let mut c = before.clone();
        assert!(c.remove_agent(AgentId(3)));
        assert!(c.add_agent(AgentId(3)));
        assert_eq!(c.agents(), before.agents());
        assert_eq!(
            movement_fraction(&before, &c, &web),
            0.0,
            "recovery restores the exact pre-crash assignment"
        );
    }

    #[test]
    fn geo_recovered_agent_rejoins_its_region() {
        let web = web();
        let original = GeoAssigner::new(&[0, 0, 1, 1]);
        let mut geo = original.clone();
        geo.remove_agent(AgentId(2));
        geo.add_agent(AgentId(2)); // recovery: no panic, back to region 1
        assert_eq!(geo.agents(), original.agents());
        // Assignment is exactly what it was before the crash.
        assert_eq!(movement_fraction(&original, &geo, &web), 0.0);
    }

    #[test]
    fn geo_unknown_agent_joins_fallback_pool() {
        let web = web();
        let mut geo = GeoAssigner::new(&[0, 0, 1]);
        geo.add_agent(AgentId(9)); // never seen, region unknown: no panic
        assert!(geo.agents().contains(&AgentId(9)));
        // Hosts in regions that still have agents are unaffected...
        for h in web.host_ids() {
            assert_ne!(geo.agent_for(h, &web), AgentId(9));
        }
        // ...but once its region empties, the fallback pool (which now
        // includes agent 9) serves those hosts.
        geo.remove_agent(AgentId(2));
        let serves_fallback = web.host_ids().any(|h| geo.agent_for(h, &web) == AgentId(9));
        assert!(serves_fallback || web.host_ids().all(|h| web.host(h).region == 0));
    }

    #[test]
    fn geo_add_agent_is_idempotent_for_live_agents() {
        let original = GeoAssigner::new(&[0, 1]);
        let mut geo = original.clone();
        geo.add_agent(AgentId(0));
        geo.add_agent(AgentId(1));
        assert_eq!(geo.agents(), original.agents());
    }
}
