//! Replication: replica groups for partitions, primary-backup user state.
//!
//! "A classical way of coping with faults is replication (...) By
//! replicating data across different query processors, we increase the
//! probability that some query processor is available" (Section 5). A
//! [`ReplicaGroup`] dispatches queries over the live replicas of one
//! partition; [`PrimaryBackupStore`] implements the primary-backup
//! protocol \[42\] for the per-user personalization state whose consistency
//! the paper worries about ("it is necessary to guarantee that the state
//! is consistent in every update, and that the user state is never lost").

use std::collections::HashMap;

/// The dispatch state of one partition's replicas: a round-robin cursor
/// and a per-replica ledger. Whether a replica is up is not stored here;
/// every call that chooses one is told, by an `up` predicate over replica
/// indices (the engine reads its fault schedule at the query's instant).
#[derive(Debug, Clone)]
pub struct ReplicaGroup {
    /// Round-robin cursor.
    next: usize,
    /// Queries dispatched to each replica.
    dispatched: Vec<u64>,
}

impl ReplicaGroup {
    /// Create a group of `r` replicas.
    pub fn new(r: usize) -> Self {
        assert!(r > 0);
        ReplicaGroup { next: 0, dispatched: vec![0; r] }
    }

    /// Number of replicas.
    pub fn size(&self) -> usize {
        self.dispatched.len()
    }

    /// The first replica the round-robin cursor reaches that is `up` and
    /// not `avoid` (the hedged-retry path, where that replica failed
    /// mid-query and retrying on it would just fail again), or `None`
    /// when there is none. Choosing charges nothing: the hedging
    /// policies need the candidate's identity first — its drawn service
    /// cost decides whether the hedge fits the deadline — and only then
    /// [`commit`](Self::commit) the dispatch.
    pub fn peek(&self, avoid: Option<usize>, up: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.size();
        (0..n).map(|probe| (self.next + probe) % n).find(|&c| Some(c) != avoid && up(c))
    }

    /// Charge one dispatch to `replica` and move the cursor past it.
    pub fn commit(&mut self, replica: usize) {
        self.next = (replica + 1) % self.size();
        self.dispatched[replica] += 1;
    }

    /// Dispatch one query: the [`peek`](Self::peek)ed up replica,
    /// committed, or `None` when no replica is up.
    pub fn dispatch(&mut self, up: impl Fn(usize) -> bool) -> Option<usize> {
        let chosen = self.peek(None, up)?;
        self.commit(chosen);
        Some(chosen)
    }

    /// Queries dispatched per replica.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }
}

/// A write acknowledged by the primary-backup store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Monotonic sequence number of the acknowledged write.
    pub seq: u64,
}

/// Primary-backup replicated key-value store for user profiles.
///
/// Writes go to the primary, are propagated *synchronously* to all live
/// backups, and only then acknowledged — so an acknowledged write survives
/// any single failure. When the primary crashes, the lowest-id live backup
/// is promoted.
#[derive(Debug)]
pub struct PrimaryBackupStore {
    replicas: Vec<Option<HashMap<u64, (u64, u64)>>>, // key -> (value, seq)
    primary: usize,
    seq: u64,
}

impl PrimaryBackupStore {
    /// Create a store with one primary and `backups` backups.
    pub fn new(backups: usize) -> Self {
        PrimaryBackupStore {
            replicas: (0..=backups).map(|_| Some(HashMap::new())).collect(),
            primary: 0,
            seq: 0,
        }
    }

    /// Index of the current primary.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// Write `key = value` for a user profile; returns the ack, or `None`
    /// when no replica is alive.
    pub fn put(&mut self, key: u64, value: u64) -> Option<Ack> {
        if self.replicas[self.primary].is_none() {
            self.fail_over()?;
        }
        self.seq += 1;
        let seq = self.seq;
        // Synchronous propagation to every live replica (primary first).
        for r in self.replicas.iter_mut().flatten() {
            r.insert(key, (value, seq));
        }
        Some(Ack { seq })
    }

    /// Read the latest value of `key`, from the primary.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if self.replicas[self.primary].is_none() {
            self.fail_over()?;
        }
        self.replicas[self.primary].as_ref().and_then(|r| r.get(&key)).map(|&(v, _)| v)
    }

    /// Crash a replica (primary or backup). State on it is lost. Returns
    /// `false` (and changes nothing) when `replica` is out of range.
    pub fn crash(&mut self, replica: usize) -> bool {
        match self.replicas.get_mut(replica) {
            Some(slot) => {
                *slot = None;
                if replica == self.primary {
                    let _ = self.fail_over();
                }
                true
            }
            None => false,
        }
    }

    /// Recover a crashed replica: it re-joins empty and is brought up to
    /// date by state transfer from the primary. A no-op on an already-live
    /// replica; returns `false` only when `replica` is out of range.
    pub fn recover(&mut self, replica: usize) -> bool {
        match self.replicas.get(replica) {
            Some(Some(_)) => true,
            Some(None) => {
                // After a total outage the primary slot is still `None`
                // (the crash-time fail-over found nobody to promote), so
                // the "snapshot" is necessarily empty — the acknowledged
                // state is gone either way. What must not persist is a
                // primary pointing at a dead slot: re-point it eagerly so
                // the recovered replica serves immediately instead of
                // relying on the next put/get to lazily fail over.
                let snapshot = self.replicas[self.primary].clone().unwrap_or_default();
                self.replicas[replica] = Some(snapshot);
                if self.replicas[self.primary].is_none() {
                    let _ = self.fail_over();
                }
                true
            }
            None => false,
        }
    }

    fn fail_over(&mut self) -> Option<()> {
        let new_primary = self.replicas.iter().position(Option::is_some)?;
        self.primary = new_primary;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances() {
        let mut g = ReplicaGroup::new(3);
        for _ in 0..9 {
            g.dispatch(|_| true);
        }
        assert_eq!(g.dispatched(), &[3, 3, 3]);
    }

    #[test]
    fn dispatch_skips_dead_replicas() {
        let mut g = ReplicaGroup::new(3);
        let mut served = [0u32; 3];
        for _ in 0..8 {
            served[g.dispatch(|r| r != 1).expect("someone alive")] += 1;
        }
        assert_eq!(served[1], 0);
        assert_eq!(served[0] + served[2], 8);
    }

    #[test]
    fn group_down_returns_none() {
        let mut g = ReplicaGroup::new(2);
        assert_eq!(g.dispatch(|_| false), None);
        assert_eq!(g.dispatched(), &[0, 0], "nothing charged");
        // Recovery restores service.
        assert_eq!(g.dispatch(|r| r == 1), Some(1));
    }

    #[test]
    fn peek_avoiding_skips_the_failed_replica() {
        let mut g = ReplicaGroup::new(3);
        for _ in 0..30 {
            let r = g.peek(Some(1), |_| true).expect("others alive");
            assert_ne!(r, 1);
            g.commit(r);
        }
        assert_eq!(g.dispatched()[1], 0);
        // With only the excluded replica up there is no hedge target.
        assert_eq!(g.peek(Some(1), |r| r == 1), None);
        assert_eq!(g.dispatch(|r| r == 1), Some(1), "plain dispatch still reaches it");
    }

    #[test]
    fn crash_and_recover_out_of_range_are_ignored() {
        let mut s = PrimaryBackupStore::new(1);
        s.put(1, 10);
        assert!(!s.crash(9));
        assert!(!s.recover(9));
        assert_eq!(s.get(1), Some(10), "state untouched by bad indices");
        assert!(s.crash(0));
        assert!(s.recover(0));
        assert!(s.recover(0), "recovering a live replica is a no-op");
        assert_eq!(s.get(1), Some(10));
    }

    #[test]
    fn acknowledged_writes_survive_primary_crash() {
        let mut s = PrimaryBackupStore::new(2);
        let ack = s.put(7, 100).expect("write acked");
        assert_eq!(ack.seq, 1);
        s.crash(0);
        assert_eq!(s.get(7), Some(100), "state survives primary loss");
        assert_ne!(s.primary(), 0);
    }

    #[test]
    fn writes_continue_after_failover() {
        let mut s = PrimaryBackupStore::new(2);
        s.put(1, 10);
        s.crash(0);
        s.put(1, 20).expect("new primary accepts writes");
        assert_eq!(s.get(1), Some(20));
    }

    #[test]
    fn all_replicas_down_rejects_writes() {
        let mut s = PrimaryBackupStore::new(1);
        s.crash(0);
        s.crash(1);
        assert_eq!(s.put(1, 1), None);
        assert_eq!(s.get(1), None);
    }

    #[test]
    fn recovery_state_transfer() {
        let mut s = PrimaryBackupStore::new(1);
        s.put(5, 55);
        s.crash(1);
        s.put(6, 66); // backup missed this
        s.recover(1);
        s.crash(0); // now backup must have everything
        assert_eq!(s.get(5), Some(55));
        assert_eq!(s.get(6), Some(66));
    }

    #[test]
    fn recover_after_total_outage_repoints_the_primary() {
        let mut s = PrimaryBackupStore::new(2);
        s.put(1, 10);
        s.crash(0);
        s.crash(1);
        s.crash(2); // total outage: fail_over found nobody, primary stale
        assert_eq!(s.put(1, 11), None);
        assert!(s.recover(0));
        // The recovered replica must be the primary *now*, not after the
        // next put/get happens to trigger a lazy fail-over.
        assert_eq!(s.primary(), 0, "recovery re-points the primary eagerly");
        // Pre-crash state was lost with the last replica; service resumes.
        assert_eq!(s.get(1), None);
        let ack = s.put(2, 20).expect("recovered replica accepts writes");
        assert!(ack.seq > 0);
        assert_eq!(s.get(2), Some(20));
    }

    #[test]
    fn peek_charges_nothing_and_commit_follows_round_robin() {
        let mut g = ReplicaGroup::new(3);
        let up = |r: usize| r != 1;
        for avoid in [None, Some(0), Some(1), Some(2)] {
            for _ in 0..7 {
                let peeked = g.peek(avoid, up);
                assert_eq!(g.peek(avoid, up), peeked, "peeking twice moves nothing");
                if let Some(r) = peeked {
                    g.commit(r);
                }
                g.dispatch(up); // shuffle the cursor between probes
            }
        }
        // Peek charges nothing: a fresh group shows zero dispatches.
        let mut g = ReplicaGroup::new(2);
        assert_eq!(g.peek(Some(0), |_| true), Some(1));
        assert_eq!(g.dispatched(), &[0, 0]);
        // A commit moves the cursor past the committed replica.
        g.commit(1);
        assert_eq!((g.peek(None, |_| true), g.dispatched()), (Some(0), &[0, 1][..]));
    }

    #[test]
    fn sequence_numbers_monotone() {
        let mut s = PrimaryBackupStore::new(1);
        let a = s.put(1, 1).unwrap();
        let b = s.put(1, 2).unwrap();
        assert!(b.seq > a.seq);
    }
}
