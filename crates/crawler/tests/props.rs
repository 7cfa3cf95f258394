//! Property-based tests of crawler invariants: consistent-hash
//! monotonicity and the frontier's politeness guarantees in either queue
//! order.

use dwr_crawler::assign::{AgentId, ConsistentHashAssigner, HashAssigner, UrlAssigner};
use dwr_crawler::frontier::{Frontier, QueueOrder};
use dwr_sim::{SimTime, SECOND};
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::graph::{HostId, PageId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};

/// Either queue order, drawn.
fn queue_order() -> impl Strategy<Value = QueueOrder> {
    any::<bool>().prop_map(|cited| if cited { QueueOrder::Citations } else { QueueOrder::Fifo })
}

/// Offer each `(host, page)` a quarter second apart, fetching everything
/// allowed after each offer and completing it at once; fail on two
/// concurrent fetches of one host or on two fetches closer than `delay`.
fn replay_politely(
    f: &mut Frontier,
    delay: SimTime,
    ops: &[(u32, u32)],
) -> Result<(), TestCaseError> {
    let mut now = 0;
    let mut in_flight: HashSet<HostId> = HashSet::new();
    let mut last_done: HashMap<HostId, SimTime> = HashMap::new();
    for &(host, page) in ops {
        f.offer(HostId(host), PageId(page), now);
        now += SECOND / 4;
        // Try to fetch as much as is allowed right now.
        while let Ok((h, _)) = f.next_fetch(now) {
            prop_assert!(!in_flight.contains(&h), "two concurrent fetches on {h:?}");
            if let Some(&done) = last_done.get(&h) {
                prop_assert!(now >= done + delay, "politeness violated on {h:?}");
            }
            in_flight.insert(h);
            // Complete immediately at `now`.
            f.complete(h, now);
            in_flight.remove(&h);
            last_done.insert(h, now);
        }
    }
    Ok(())
}

fn tiny_web() -> dwr_webgraph::SyntheticWeb {
    let mut cfg = WebConfig::tiny();
    cfg.num_pages = 300;
    cfg.num_hosts = 60;
    generate_web(&cfg, 424242)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Removing an agent from a consistent-hash ring moves only hosts the
    /// removed agent owned (no collateral reshuffling).
    #[test]
    fn consistent_hash_remove_is_minimal(agents in 2u32..12, victim_ix in 0u32..12, replicas in 1u32..64) {
        let victim = AgentId(victim_ix % agents);
        let web = tiny_web();
        let before = ConsistentHashAssigner::new(agents, replicas);
        let mut after = before.clone();
        after.remove_agent(victim);
        for h in web.host_ids() {
            let b = before.agent_for(h, &web);
            let a = after.agent_for(h, &web);
            if b != victim {
                prop_assert_eq!(a, b, "host {:?} moved without cause", h);
            } else {
                prop_assert_ne!(a, victim);
            }
        }
    }

    /// Adding an agent moves hosts only *to* the new agent (monotone).
    #[test]
    fn consistent_hash_add_is_monotone(agents in 1u32..12, replicas in 1u32..64) {
        let web = tiny_web();
        let before = ConsistentHashAssigner::new(agents, replicas);
        let mut after = before.clone();
        let newcomer = AgentId(agents);
        after.add_agent(newcomer);
        for h in web.host_ids() {
            let b = before.agent_for(h, &web);
            let a = after.agent_for(h, &web);
            prop_assert!(a == b || a == newcomer);
        }
    }

    /// Every assigner maps every host to a live agent.
    #[test]
    fn assignments_are_total(agents in 1u32..12) {
        let web = tiny_web();
        let assigners: Vec<Box<dyn UrlAssigner>> = vec![
            Box::new(HashAssigner::new(agents)),
            Box::new(ConsistentHashAssigner::new(agents, 32)),
        ];
        for a in &assigners {
            let live: HashSet<AgentId> = a.agents().into_iter().collect();
            for h in web.host_ids() {
                prop_assert!(live.contains(&a.agent_for(h, &web)));
            }
        }
    }

    /// Frontier politeness: replaying an arbitrary offer/fetch/complete
    /// schedule never yields two concurrent fetches for one host, and
    /// consecutive fetches of a host are separated by the politeness
    /// delay, in either queue order. The schedule re-offers pages, which
    /// citation order turns into citations.
    #[test]
    fn frontier_politeness_invariant(
        ops in prop::collection::vec((0u32..8, 0u32..50), 1..200),
        order in queue_order(),
    ) {
        let delay = 2 * SECOND;
        replay_politely(&mut Frontier::new(delay, order), delay, &ops)?;
    }

    /// The frontier never loses or duplicates work: offered distinct pages
    /// = fetched + still pending, in either queue order, re-offers
    /// (citations) included.
    #[test]
    fn frontier_conserves_work(
        pages in prop::collection::btree_set((0u32..8, 0u32..1000), 0..100),
        cites in prop::collection::vec(0usize..100, 0..100),
        order in queue_order(),
    ) {
        let pages: Vec<(u32, u32)> = pages.into_iter().collect();
        let mut f = Frontier::new(0, order);
        let mut offered = 0usize;
        for &(h, p) in &pages {
            if f.offer(HostId(h), PageId(p), 0) {
                offered += 1;
            }
        }
        for &(h, p) in cites.iter().filter_map(|&i| pages.get(i)) {
            prop_assert!(!f.offer(HostId(h), PageId(p), 0), "a re-offer is never fresh");
        }
        let mut fetched = 0usize;
        let mut now = 0;
        loop {
            match f.next_fetch(now) {
                Ok((h, _)) => {
                    fetched += 1;
                    f.complete(h, now);
                }
                Err(Some(t)) => now = t,
                Err(None) => break,
            }
        }
        prop_assert_eq!(fetched, offered);
        prop_assert_eq!(f.pending(), 0);
    }
}
