//! Result caches: LRU, LFU, and SDC (static-dynamic).
//!
//! "Cache servers hold results for the most frequent or popular queries
//! (...) making query resolution as simple as contacting one single cache
//! server" (Section 5). SDC (Fagni et al. \[51\]) splits capacity into a
//! *static* half, filled offline with the most frequent training queries,
//! and a *dynamic* LRU half for bursts — and beats either alone on
//! Zipf-with-drift traffic.
//!
//! A hit is meant to be that simple here too: [`LruCache`] — the policy
//! every engine serves through — finds, refreshes and evicts entries in
//! O(1), and [`ShardedCache::get_recorded`] allocates only the hits it
//! returns.
//!
//! Caches also double as a dependability mechanism: [`ResultCache::get`]
//! never expires entries, so a front-end can serve stale results while the
//! backend is down (experiment E8 measures this).
//!
//! An entry is the answer to a query *at a depth*: it records the `k` it
//! was asked for, and answers a later request only when that request's
//! top `k` is a prefix of it ([`CachedResults::answers`]).

use crate::broker::GlobalHit;
use crate::lock_recovering;
use dwr_sim::hash::IdMap;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Cached value: the merged result list of a query and the depth it was
/// asked at.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CachedResults {
    /// The `k` the answer was computed for.
    pub k: usize,
    /// The answer: at most `k` hits, best first.
    pub hits: Vec<GlobalHit>,
}

impl CachedResults {
    /// Whether this entry answers a request for the top `k`: it was asked
    /// at least that deep, or it came back shorter than it was asked —
    /// then it holds every hit there is. Either way the request's answer
    /// is a prefix of `hits`. Any entry answers `k = 0`.
    pub fn answers(&self, k: usize) -> bool {
        self.k >= k || self.hits.len() < self.k
    }
}

/// A bare hit list is an answer at the depth of its length.
impl From<Vec<GlobalHit>> for CachedResults {
    fn from(hits: Vec<GlobalHit>) -> Self {
        CachedResults { k: hits.len(), hits }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio. A cache with zero lookups reports 0.0, **not** NaN:
    /// downstream consumers sort, difference, and plot these ratios
    /// (`exp_caching`, the E8 staleness experiment), and a NaN would
    /// poison every comparison it touches.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A query-result cache keyed by a stable query key.
pub trait ResultCache {
    /// Look up a query's answer at depth `k`; counts a hit or a miss. An
    /// entry that does not [answer](CachedResults::answers) `k` is a miss,
    /// and only a hit refreshes the entry's standing with the policy.
    fn get(&mut self, key: u64, k: usize) -> Option<&CachedResults>;
    /// Insert a result, replacing the key's entry (no-op if the policy
    /// rejects the key).
    fn put(&mut self, key: u64, value: CachedResults);
    /// Counters so far.
    fn stats(&self) -> CacheStats;
    /// Current number of resident entries.
    fn len(&self) -> usize;
    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// One resident entry of an [`LruCache`], linked into its recency list.
#[derive(Debug)]
struct Slot {
    key: u64,
    value: CachedResults,
    /// The next more recently used slot, or `NIL` at the newest.
    newer: u32,
    /// The next less recently used slot, or `NIL` at the oldest.
    older: u32,
}

/// Classic LRU, O(1) per lookup, put and eviction: entries live in a slab
/// threaded on an intrusive recency list, found through an id-hashed
/// index. The victim is the least recently got-or-put entry; a lookup that
/// misses (absent, or not deep enough) leaves recency as it was.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    index: IdMap<u64, u32>,
    slots: Vec<Slot>,
    /// The most recently used slot, `NIL` while empty.
    newest: u32,
    /// The least recently used slot — the next victim — `NIL` while empty.
    oldest: u32,
    stats: CacheStats,
}

impl LruCache {
    /// Create an LRU cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity < NIL as usize);
        LruCache {
            capacity,
            index: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            newest: NIL,
            oldest: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { newer, older, .. } = self.slots[i as usize];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Put unlinked slot `i` at the newest end of the recency list.
    fn link_newest(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.newer = NIL;
        slot.older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Make slot `i` the most recently used.
    fn touch(&mut self, i: u32) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }
}

impl ResultCache for LruCache {
    fn get(&mut self, key: u64, k: usize) -> Option<&CachedResults> {
        match self.index.get(&key) {
            Some(&i) if self.slots[i as usize].value.answers(k) => {
                self.stats.hits += 1;
                self.touch(i);
                Some(&self.slots[i as usize].value)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, key: u64, value: CachedResults) {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i as usize].value = value;
            self.touch(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot { key, value, newer: NIL, older: NIL });
            (self.slots.len() - 1) as u32
        } else {
            // Full: the oldest slot is the victim, and takes the new entry.
            let victim = self.oldest;
            self.unlink(victim);
            let slot = &mut self.slots[victim as usize];
            self.index.remove(&slot.key);
            slot.key = key;
            slot.value = value;
            self.stats.evictions += 1;
            victim
        };
        self.link_newest(i);
        self.index.insert(key, i);
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
    fn len(&self) -> usize {
        self.slots.len()
    }
    fn name(&self) -> &'static str {
        "LRU"
    }
}

/// LFU with tie-break by recency; O(log n) eviction via a (count, tick)
/// ordered index.
#[derive(Debug)]
pub struct LfuCache {
    capacity: usize,
    map: HashMap<u64, (CachedResults, u64, u64)>, // value, count, tick
    by_freq: BTreeMap<(u64, u64), u64>,           // (count, tick) -> key
    tick: u64,
    stats: CacheStats,
}

impl LfuCache {
    /// Create an LFU cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LfuCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            by_freq: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn bump(&mut self, key: u64) {
        self.tick += 1;
        if let Some((_, count, tick)) = self.map.get_mut(&key) {
            self.by_freq.remove(&(*count, *tick));
            *count += 1;
            *tick = self.tick;
            self.by_freq.insert((*count, *tick), key);
        }
    }
}

impl ResultCache for LfuCache {
    fn get(&mut self, key: u64, k: usize) -> Option<&CachedResults> {
        if self.map.get(&key).is_some_and(|(v, _, _)| v.answers(k)) {
            self.stats.hits += 1;
            self.bump(key);
            self.map.get(&key).map(|(v, _, _)| v)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn put(&mut self, key: u64, value: CachedResults) {
        if self.map.contains_key(&key) {
            if let Some((v, _, _)) = self.map.get_mut(&key) {
                *v = value;
            }
            self.bump(key);
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity {
            if let Some((&victim_key_pair, &victim)) = self.by_freq.iter().next() {
                self.by_freq.remove(&victim_key_pair);
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(key, (value, 1, self.tick));
        self.by_freq.insert((1, self.tick), key);
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
    fn len(&self) -> usize {
        self.map.len()
    }
    fn name(&self) -> &'static str {
        "LFU"
    }
}

/// SDC: a read-only static section seeded with the most frequent training
/// queries plus a dynamic LRU for the rest of the capacity.
#[derive(Debug)]
pub struct SdcCache {
    /// Static slots: reserved at build time, `None` until first filled.
    static_map: HashMap<u64, Option<CachedResults>>,
    dynamic: LruCache,
    /// Lookups of the static section; the dynamic half counts its own.
    stats: CacheStats,
}

impl SdcCache {
    /// Create an SDC cache of total `capacity`, with `static_fraction` of
    /// it devoted to the static section, seeded from `training_keys`
    /// (most frequent first). Static slots are reserved immediately but
    /// only serve hits once [`ResultCache::put`] fills them.
    pub fn new(capacity: usize, static_fraction: f64, training_keys: &[u64]) -> Self {
        assert!(capacity > 1);
        assert!((0.0..1.0).contains(&static_fraction));
        let static_cap = ((capacity as f64 * static_fraction) as usize).min(training_keys.len());
        let dynamic_cap = (capacity - static_cap).max(1);
        let static_map = training_keys.iter().take(static_cap).map(|&k| (k, None)).collect();
        SdcCache { static_map, dynamic: LruCache::new(dynamic_cap), stats: CacheStats::default() }
    }
}

impl ResultCache for SdcCache {
    fn get(&mut self, key: u64, k: usize) -> Option<&CachedResults> {
        if let Some(slot) = self.static_map.get(&key) {
            if slot.as_ref().is_some_and(|v| v.answers(k)) {
                self.stats.hits += 1;
                return self.static_map.get(&key).and_then(Option::as_ref);
            }
            self.stats.misses += 1;
            return None;
        }
        // The dynamic half counts its own lookups; `stats` adds them in.
        self.dynamic.get(key, k)
    }

    fn put(&mut self, key: u64, value: CachedResults) {
        if let Some(slot) = self.static_map.get_mut(&key) {
            *slot = Some(value);
        } else {
            self.dynamic.put(key, value);
        }
    }

    fn stats(&self) -> CacheStats {
        let d = self.dynamic.stats();
        CacheStats {
            hits: self.stats.hits + d.hits,
            misses: self.stats.misses + d.misses,
            evictions: d.evictions,
        }
    }
    fn len(&self) -> usize {
        self.static_map.values().filter(|v| v.is_some()).count() + self.dynamic.len()
    }
    fn name(&self) -> &'static str {
        "SDC"
    }
}

/// A thread-safe wrapper over any [`ResultCache`] policy: the policy
/// behind one mutex, so `get`/`put` take `&self` and the wrapped policy's
/// eviction behaviour is preserved exactly.
///
/// The lock is taken with poison recovery throughout: cache state is
/// valid after any interrupted get/put (worst case a stale recency
/// index), so one panicking client must not wedge every other thread.
#[derive(Debug)]
pub struct ShardedCache<C> {
    cache: Mutex<C>,
}

impl<C: ResultCache> ShardedCache<C> {
    /// Wrap one cache instance.
    pub fn single(cache: C) -> Self {
        ShardedCache { cache: Mutex::new(cache) }
    }

    /// Look up a query at whatever depth it was answered (a lookup at
    /// `k = 0`), returning an owned copy of the entry.
    pub fn get(&self, key: u64) -> Option<CachedResults> {
        lock_recovering(&self.cache).get(key, 0).cloned()
    }

    /// The top `k` hits of a query from the cache — the first `k` of an
    /// entry that [answers](CachedResults::answers) `k` — announcing the
    /// lookup (hit or miss) to `recorder`: one
    /// [`dwr_obs::Event::CacheLookup`] per call, after the lock is
    /// released.
    pub fn get_recorded<R: dwr_obs::Recorder + ?Sized>(
        &self,
        key: u64,
        k: usize,
        recorder: &R,
        now: dwr_sim::SimTime,
    ) -> Option<Vec<GlobalHit>> {
        let hit = lock_recovering(&self.cache)
            .get(key, k)
            .map(|entry| entry.hits[..k.min(entry.hits.len())].to_vec());
        recorder.record(dwr_obs::Event::CacheLookup { qid: key, now, hit: hit.is_some() });
        hit
    }

    /// Insert a result, replacing the key's entry.
    pub fn put(&self, key: u64, value: impl Into<CachedResults>) {
        lock_recovering(&self.cache).put(key, value.into());
    }

    /// The wrapped policy's counters.
    pub fn stats(&self) -> CacheStats {
        lock_recovering(&self.cache).stats()
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        lock_recovering(&self.cache).len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Policy name of the wrapped cache.
    pub fn name(&self) -> &'static str {
        lock_recovering(&self.cache).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-hit answer, at `k = 1`.
    fn value(id: u32) -> CachedResults {
        vec![GlobalHit { doc: id, score: 1.0 }].into()
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.put(1, value(1));
        c.put(2, value(2));
        assert!(c.get(1, 1).is_some()); // 1 is now most recent
        c.put(3, value(3)); // evicts 2
        assert!(c.get(2, 1).is_none());
        assert!(c.get(1, 1).is_some());
        assert!(c.get(3, 1).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_update_does_not_evict() {
        let mut c = LruCache::new(2);
        c.put(1, value(1));
        c.put(2, value(2));
        c.put(1, value(10));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, 1).unwrap().hits[0].doc, 10);
        assert!(c.get(2, 1).is_some());
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.put(1, value(1));
        c.put(2, value(2));
        c.get(1, 1);
        c.get(1, 1); // key 1 now count 3
        c.put(3, value(3)); // evicts 2 (count 1)
        assert!(c.get(2, 1).is_none());
        assert!(c.get(1, 1).is_some());
        assert!(c.get(3, 1).is_some());
    }

    #[test]
    fn sdc_static_entries_never_evicted() {
        let training = [100u64, 101, 102];
        let mut c = SdcCache::new(4, 0.5, &training);
        assert_eq!(c.static_map.len(), 2, "min(4 * 0.5, 3 training keys) static slots");
        c.put(100, value(1));
        // Flood the dynamic half.
        for k in 0..50u64 {
            c.put(k, value(k as u32));
        }
        assert!(c.get(100, 1).is_some(), "static entry survived the flood");
    }

    /// Regression: `hit_ratio` on a cache that has never been consulted
    /// must be 0.0, not NaN (0/0). NaN here would poison comparisons and
    /// sorts in every experiment that ranks policies by hit ratio.
    #[test]
    fn hit_ratio_with_zero_lookups_is_zero_not_nan() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        for c in
            [&LruCache::new(4) as &dyn ResultCache, &LfuCache::new(4), &SdcCache::new(4, 0.5, &[1])]
        {
            let r = c.stats().hit_ratio();
            assert!(!r.is_nan(), "{}: NaN hit ratio before any lookup", c.name());
            assert_eq!(r, 0.0, "{}", c.name());
        }
        // Sharded wrapper, and a stats value with evictions but no
        // lookups (puts only), stay finite too.
        let sharded = ShardedCache::single(LruCache::new(1));
        sharded.put(1, value(1));
        sharded.put(2, value(2)); // evicts 1: evictions=1, lookups=0
        let s = sharded.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 1));
        assert_eq!(s.hit_ratio(), 0.0);
        assert!(s.hit_ratio().partial_cmp(&0.5).is_some(), "comparable, not NaN");
    }

    #[test]
    fn get_recorded_counts_hits_and_misses() {
        use dwr_obs::{ObsConfig, ObsRecorder, Recorder};
        let rec = ObsRecorder::new(ObsConfig::single_site(1));
        assert!(rec.is_live());
        let c = ShardedCache::single(LruCache::new(4));
        c.put(1, value(1));
        assert!(c.get_recorded(1, 1, &rec, 0).is_some());
        assert!(c.get_recorded(2, 1, &rec, 0).is_none());
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        // Obs counters agree with the cache's own accounting.
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn an_entry_answers_only_the_depths_it_covers() {
        let hits = |n: u32| -> Vec<GlobalHit> {
            (0..n).map(|doc| GlobalHit { doc, score: 1.0 }).collect()
        };
        let mut c = LruCache::new(4);
        c.put(1, CachedResults { k: 10, hits: hits(10) });
        c.put(2, CachedResults { k: 10, hits: hits(3) });
        assert!(c.get(1, 10).is_some() && c.get(1, 5).is_some());
        assert!(c.get(1, 11).is_none(), "a top-10 entry does not answer a top-11 request");
        assert!(c.get(2, 50).is_some(), "3 hits asked 10 deep are every hit there is");
        assert_eq!((c.stats().hits, c.stats().misses), (3, 1));
        // Through the sharded wrapper a hit is the requested prefix.
        let sharded = ShardedCache::single(LruCache::new(4));
        sharded.put(1, CachedResults { k: 10, hits: hits(10) });
        assert_eq!(sharded.get_recorded(1, 4, &dwr_obs::NoopRecorder, 0), Some(hits(4)));
        assert_eq!(sharded.get_recorded(1, 20, &dwr_obs::NoopRecorder, 0), None);
    }

    #[test]
    fn hit_ratio_computation() {
        let mut c = LruCache::new(4);
        c.put(1, value(1));
        c.get(1, 1);
        c.get(2, 1);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    /// The headline SDC property: on Zipf traffic whose tail churns, SDC
    /// beats plain LRU of the same total capacity.
    #[test]
    fn sdc_beats_lru_on_zipf_with_churn() {
        use dwr_sim::dist::Zipf;
        use dwr_sim::SimRng;
        let mut rng = SimRng::new(7);
        let zipf = Zipf::new(10_000, 1.0);
        // Train: find the most frequent keys.
        let mut freq: HashMap<u64, u64> = HashMap::new();
        for _ in 0..20_000 {
            *freq.entry(zipf.sample(&mut rng)).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, u64)> = freq.into_iter().collect();
        ranked.sort_by_key(|&(k, f)| (std::cmp::Reverse(f), k));
        let top_keys: Vec<u64> = ranked.iter().map(|&(k, _)| k).collect();

        let cap = 400;
        let mut lru = LruCache::new(cap);
        let mut sdc = SdcCache::new(cap, 0.5, &top_keys);
        // Test traffic: same Zipf head, but one-off scan bursts that wreck
        // pure recency.
        for i in 0..40_000u64 {
            let key = if i % 10 < 3 {
                1_000_000 + i // burst of never-repeating keys
            } else {
                zipf.sample(&mut rng)
            };
            for c in [&mut lru as &mut dyn ResultCache, &mut sdc] {
                if c.get(key, 1).is_none() {
                    c.put(key, value(0));
                }
            }
        }
        let l = lru.stats().hit_ratio();
        let s = sdc.stats().hit_ratio();
        assert!(s > l, "sdc={s} lru={l}");
    }

    #[test]
    fn caches_start_empty() {
        for c in [
            &mut LruCache::new(4) as &mut dyn ResultCache,
            &mut LfuCache::new(4),
            &mut SdcCache::new(4, 0.5, &[1, 2]),
        ] {
            assert!(c.get(42, 1).is_none());
            assert_eq!(c.stats().hits, 0);
        }
    }

    #[test]
    fn sharded_single_matches_wrapped_policy() {
        let mut plain = LruCache::new(2);
        let sharded = ShardedCache::single(LruCache::new(2));
        // Same operation sequence → same hits/misses/evictions.
        let ops: &[(u64, bool)] =
            &[(1, false), (2, false), (1, true), (3, false), (2, true), (1, true)];
        for &(key, _) in ops {
            if plain.get(key, 0).is_none() {
                plain.put(key, value(key as u32));
            }
            if sharded.get(key).is_none() {
                sharded.put(key, value(key as u32));
            }
        }
        assert_eq!(plain.stats(), sharded.stats());
        assert_eq!(plain.len(), sharded.len());
        assert_eq!(sharded.name(), "LRU");
    }

    /// An LRU whose `get` panics on one key — simulates a client thread
    /// dying while it holds the cache lock.
    struct BombCache {
        inner: LruCache,
        bomb: u64,
    }

    impl ResultCache for BombCache {
        fn get(&mut self, key: u64, k: usize) -> Option<&CachedResults> {
            assert_ne!(key, self.bomb, "boom");
            self.inner.get(key, k)
        }
        fn put(&mut self, key: u64, value: CachedResults) {
            self.inner.put(key, value);
        }
        fn stats(&self) -> CacheStats {
            self.inner.stats()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self) -> &'static str {
            "Bomb"
        }
    }

    #[test]
    fn poisoned_shard_recovers_for_other_threads() {
        use std::sync::Arc;
        let c = Arc::new(ShardedCache::single(BombCache { inner: LruCache::new(8), bomb: 77 }));
        c.put(1, value(1));
        // One client panics while holding the cache lock.
        let poisoner = Arc::clone(&c);
        std::thread::spawn(move || poisoner.get(77))
            .join()
            .expect_err("the bomb key panics its client");
        // Every other client keeps being served from the same shard.
        std::thread::scope(|s| {
            for _ in 0..3 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    assert_eq!(c.get(1).expect("entry survives the panic").hits[0].doc, 1);
                    c.put(2, value(2));
                    assert!(c.get(2).is_some());
                });
            }
        });
        assert!(c.stats().hits >= 6);
    }

    #[test]
    fn sharded_cache_is_usable_from_threads() {
        use std::sync::Arc;
        // Room for all 400 keys, so no thread's puts can evict a key
        // between another's put and get.
        let c = Arc::new(ShardedCache::single(LruCache::new(512)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = t * 1000 + i;
                        c.put(key, value(key as u32));
                        assert!(c.get(key).is_some());
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.hits, 400);
        assert_eq!(c.len(), 400);
    }
}
