//! Property-based tests of query-layer invariants: cache bounds, replica
//! dispatch, key stability, and the scatter pool's batch gather.

use dwr_avail::failure::DownInterval;
use dwr_query::broker::GlobalHit;
use dwr_query::cache::{CacheStats, CachedResults, LfuCache, LruCache, ResultCache, SdcCache};
use dwr_query::engine::query_key;
use dwr_query::faults::FaultSchedule;
use dwr_query::replica::{PrimaryBackupStore, ReplicaGroup};
use dwr_query::ScatterPool;
use dwr_text::TermId;
use proptest::prelude::*;

proptest! {
    /// No cache ever holds more than its capacity.
    #[test]
    fn caches_respect_capacity(
        cap in 2usize..64,
        keys in prop::collection::vec(0u64..1000, 0..300)
    ) {
        let static_keys: Vec<u64> = (0..cap as u64 / 2).collect();
        let mut caches: Vec<Box<dyn ResultCache>> = vec![
            Box::new(LruCache::new(cap)),
            Box::new(LfuCache::new(cap)),
            Box::new(SdcCache::new(cap, 0.5, &static_keys)),
        ];
        for c in &mut caches {
            for &k in &keys {
                if c.get(k, 0).is_none() {
                    c.put(k, Vec::new().into());
                }
                prop_assert!(c.len() <= cap, "{} over capacity", c.name());
            }
            let s = c.stats();
            prop_assert_eq!(s.hits + s.misses, keys.len() as u64, "{}", c.name());
        }
    }

    /// LRU always retains the most recently inserted key.
    #[test]
    fn lru_keeps_most_recent(cap in 1usize..32, keys in prop::collection::vec(0u64..100, 1..200)) {
        let mut c = LruCache::new(cap);
        for &k in &keys {
            c.put(k, Vec::new().into());
            prop_assert!(c.get(k, 0).is_some(), "most recent key evicted");
        }
    }

    /// The LRU is the naive model — entries in a `Vec` kept oldest to
    /// newest — operation for operation: same entry returned (or none),
    /// same length and same counters after every `get` and `put`, over
    /// entries of every depth and lookups at every depth.
    #[test]
    fn lru_equals_a_recency_ordered_vec(
        cap in 1usize..9,
        ops in prop::collection::vec((0usize..6, 0u64..12, 0usize..25, 0usize..25), 0..200)
    ) {
        let mut lru = LruCache::new(cap);
        let mut model = LruModel { cap, entries: Vec::new(), stats: CacheStats::default() };
        for (n, &(op, key, k, len)) in ops.iter().enumerate() {
            // Ops 0–3 look up at one of four depths, 4–5 put.
            if let Some(&k) = [0, 5, 10, 20].get(op) {
                let got = lru.get(key, k).cloned();
                prop_assert_eq!(got, model.get(key, k), "op {}: get({}, {})", n, key, k);
            } else {
                // Entry `n`: asked `k` deep, holding up to `k` hits.
                let hits = (0..len.min(k) as u32).map(|d| GlobalHit { doc: d, score: n as f32 }).collect();
                let value = CachedResults { k, hits };
                lru.put(key, value.clone());
                model.put(key, value);
            }
            prop_assert_eq!(lru.len(), model.entries.len(), "op {}", n);
            prop_assert_eq!(lru.stats(), model.stats, "op {}", n);
        }
    }

    /// The query cache key is order- and duplication-insensitive in the
    /// ways a term multiset should be (sorted canonical form), and is the
    /// FNV-1a fold of the sorted ids — on the stack or past its bound.
    #[test]
    fn query_key_order_insensitive(mut terms in prop::collection::vec(0u32..10_000, 0..21), seed in any::<u64>()) {
        let ids: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        let k1 = query_key(&ids);
        let mut sorted = terms.clone();
        sorted.sort_unstable();
        let fold = sorted.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &t| {
            (h ^ u64::from(t)).wrapping_mul(0x1000_0000_01b3)
        });
        prop_assert_eq!(k1, fold);
        // Shuffle deterministically.
        let mut rng = dwr_sim::SimRng::new(seed);
        rng.shuffle(&mut terms);
        let ids2: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        prop_assert_eq!(k1, query_key(&ids2));
    }

    /// Replica dispatch only ever selects replicas the fault schedule
    /// has up, and balances round-robin across them.
    #[test]
    fn dispatch_targets_live_replicas(r in 1usize..8, dead_mask in any::<u8>(), n in 1usize..100) {
        let outage = |i: usize| {
            let dead = dead_mask & (1 << i) != 0;
            if dead { vec![DownInterval { start: 0, end: 1 }] } else { vec![] }
        };
        let faults = FaultSchedule::from_intervals(vec![(0..r).map(outage).collect()], 1);
        let up = |i| !faults.is_down(0, i, 0);
        let mut g = ReplicaGroup::new(r);
        let live: Vec<usize> = (0..r).filter(|&i| dead_mask & (1 << i) == 0).collect();
        let mut counts = vec![0u64; r];
        for _ in 0..n {
            match g.dispatch(up) {
                Some(chosen) => {
                    prop_assert!(live.contains(&chosen));
                    counts[chosen] += 1;
                }
                None => prop_assert!(live.is_empty()),
            }
        }
        if !live.is_empty() {
            let max = counts.iter().max().unwrap();
            let min = live.iter().map(|&i| counts[i]).min().unwrap();
            prop_assert!(max - min <= 1, "round-robin drift: {counts:?}");
        }
    }

    /// Primary-backup: any acknowledged write survives any single crash.
    #[test]
    fn acked_writes_durable(
        writes in prop::collection::vec((0u64..20, any::<u64>()), 1..40),
        crash_victim in 0usize..3
    ) {
        let mut s = PrimaryBackupStore::new(2);
        let mut expected = std::collections::HashMap::new();
        for &(k, v) in &writes {
            if s.put(k, v).is_some() {
                expected.insert(k, v);
            }
        }
        s.crash(crash_victim);
        for (&k, &v) in &expected {
            prop_assert_eq!(s.get(k), Some(v), "lost acknowledged write {}", k);
        }
    }

    /// Whatever the group shape (empty batch, empty groups, one task,
    /// more tasks than workers) and pool size, `scatter_batch` returns
    /// what evaluating every task in order on the caller returns.
    #[test]
    fn scatter_batch_equals_in_order_evaluation(
        sizes in prop::collection::vec(0usize..7, 0..9),
        threads in 1usize..5,
        salt in any::<u64>()
    ) {
        let groups = || -> Vec<Vec<_>> {
            sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| (0..n).map(|i| move || task_value(salt, g, i)).collect())
                .collect()
        };
        let on_caller: Vec<Vec<u64>> =
            groups().into_iter().map(|g| g.into_iter().map(|task| task()).collect()).collect();
        prop_assert_eq!(ScatterPool::new(threads).scatter_batch(groups()), on_caller);
    }
}

/// The reference LRU: resident entries oldest first, found by a scan.
struct LruModel {
    cap: usize,
    entries: Vec<(u64, CachedResults)>,
    stats: CacheStats,
}

impl LruModel {
    fn get(&mut self, key: u64, k: usize) -> Option<CachedResults> {
        match self.entries.iter().position(|(e, v)| *e == key && v.answers(k)) {
            Some(i) => {
                self.stats.hits += 1;
                let entry = self.entries.remove(i);
                self.entries.push(entry);
                self.entries.last().map(|(_, v)| v.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, key: u64, value: CachedResults) {
        if let Some(i) = self.entries.iter().position(|(e, _)| *e == key) {
            self.entries.remove(i);
        } else if self.entries.len() == self.cap {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push((key, value));
    }
}

/// A value only task `(group, i)` of a given batch produces.
fn task_value(salt: u64, group: usize, i: usize) -> u64 {
    (salt ^ ((group as u64) << 32 | i as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Three clients share a pool of two workers, and their batches are made
/// to overlap: client 0's first task holds one worker until the *last*
/// task of client 2's batch has run, and clients 1 and 2 only enqueue
/// once that task is running. So two later batches are claimed, run and
/// gathered while an earlier one still has a slot pending — each client
/// must get exactly its own results in task order (no cross-batch slot
/// mix-up), and the later batches must not wait for the stuck one.
#[test]
fn overlapping_batches_on_a_shared_pool_keep_their_own_results() {
    use std::sync::{mpsc, Arc, Barrier};
    type Task = Box<dyn FnOnce() -> u64 + Send>;
    const SHAPE: [usize; 4] = [5, 0, 1, 7];
    const HOLDS_A_WORKER: (u64, usize, usize) = (0, 0, 0);
    const RELEASES_IT: (u64, usize, usize) = (2, 3, 6);

    let pool = Arc::new(ScatterPool::new(2));
    for round in 0..10u64 {
        let (running_tx, running_rx) = mpsc::channel();
        let gate = Arc::new(Barrier::new(2));
        let value = move |client: u64, g: usize, i: usize| task_value(round * 3 + client, g, i);
        let task = |client: u64, g: usize, i: usize| -> Task {
            let (running, gate) = (running_tx.clone(), Arc::clone(&gate));
            Box::new(move || {
                if (client, g, i) == HOLDS_A_WORKER {
                    running.send(()).unwrap();
                    gate.wait();
                } else if (client, g, i) == RELEASES_IT {
                    gate.wait();
                }
                value(client, g, i)
            })
        };
        let groups = |client: u64| SHAPE.iter().enumerate().map(move |(g, &n)| (client, g, n));
        std::thread::scope(|s| {
            let mut clients = Vec::new();
            for client in 0..3u64 {
                let batch: Vec<Vec<Task>> = groups(client)
                    .map(|(c, g, n)| (0..n).map(|i| task(c, g, i)).collect())
                    .collect();
                let want: Vec<Vec<u64>> = groups(client)
                    .map(|(c, g, n)| (0..n).map(|i| value(c, g, i)).collect())
                    .collect();
                let pool = Arc::clone(&pool);
                clients.push(s.spawn(move || assert_eq!(pool.scatter_batch(batch), want)));
                if client == 0 {
                    running_rx.recv().expect("client 0's first task is running");
                }
            }
            for (client, handle) in clients.into_iter().enumerate() {
                handle.join().unwrap_or_else(|_| panic!("round {round}: client {client}"));
            }
        });
    }
}
