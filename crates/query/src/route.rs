//! Selective search on the serving path: the [`ShardRouter`].
//!
//! Section 4 frames collection selection as the lever that turns a
//! partitioned index into a capacity multiplier: most queries can be
//! answered by a few shards if the broker knows which ones. E6
//! reproduced CORI and the Puppin-style query-driven selector offline
//! (`dwr_partition::select`); this module puts them **on the serving
//! path**. A [`ShardRouter`] sits between the engine's cache and its
//! dispatch pass and decides, per query, which partitions to contact:
//!
//! * the wrapped [`CollectionSelector`] ranks the snapshot's *active*
//!   partitions (closed split parents are filtered out), and the router
//!   contacts the top-*t*;
//! * a **recall-safe fallback cascade** broadens to more shards —
//!   doubling the contacted set along the ranking — whenever the merged
//!   answer is deficient (fewer than `k` hits), so a mis-routed query
//!   degrades to exhaustive fan-out instead of silently losing recall;
//!   a [`ShardRouter::fixed`] router has no cascade;
//! * coverage is reported honestly: the engine returns
//!   [`crate::engine::Served::Full`] only when the router provably lost
//!   nothing (every active partition contacted), and a routed-coverage
//!   outcome otherwise.
//!
//! # Epoch-consistent selector snapshots
//!
//! Selectors rank the partitions they were built from, and a live
//! ([`dwr_partition::repart::RepartIndex`]) layout retires partition ids
//! as it splits. The router therefore snapshots its selector statistics
//! **per epoch**: profiles are built from the query's own
//! [`PartitionedIndex`] snapshot and cached keyed by `(epoch,
//! generation)`, so a routed query racing a split ranks exactly the
//! partition set its snapshot serves — bit-identical to an offline
//! oracle replaying the same snapshot ([`ShardRouter::oracle_query`],
//! pinned by `tests/route_chaos.rs`). Child partitions born from a
//! split get profiles the first time a query serves against the new
//! epoch (rebuild-at-publish, not inheritance: CORI statistics and
//! term profiles are pure functions of the snapshot).
//!
//! # Drift-driven refresh
//!
//! The query-driven selector is trained on a query log, and "the topics
//! the users search for have slowly changed" (Section 5). A
//! [`DriftRefresh`] attaches a [`TopicDrift`] ground truth and a retrain
//! callback: `DistributedEngine::advance_to` periodically checks the
//! total-variation distance the topic mixture has moved since the last
//! retrain and, past a threshold, swaps in freshly trained profiles
//! (bumping the router's generation, which invalidates every cached
//! per-epoch profile).

use crate::broker::{BatchQuery, DocBroker, GlobalHit};
use crate::lock_recovering;
use dwr_obs::{Event, Recorder};
use dwr_partition::doc::TrainingResults;
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::select::{CollectionSelector, CoriSelector, QueryDrivenSelector};
use dwr_querylog::drift::TopicDrift;
use dwr_sim::SimTime;
use dwr_text::topk::TopK;
use dwr_text::TermId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A selector the router can share across threads.
pub type SharedSelector = Arc<dyn CollectionSelector + Send + Sync>;

/// Where the router's ranking comes from.
pub enum RouteSource {
    /// A caller-supplied selector used as-is, never rebuilt. Requires a
    /// static partition layout (the legacy
    /// `DistributedEngine::with_selection` behavior).
    Fixed(SharedSelector),
    /// CORI statistics rebuilt from each epoch's snapshot.
    Cori,
    /// Puppin-style query-driven profiles retrained from the router's
    /// training log per epoch, with a CORI fallback for cold queries
    /// (terms in no trained profile).
    QueryDriven,
}

impl std::fmt::Debug for RouteSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteSource::Fixed(s) => write!(f, "Fixed({})", s.name()),
            RouteSource::Cori => write!(f, "Cori"),
            RouteSource::QueryDriven => write!(f, "QueryDriven"),
        }
    }
}

/// Drift-driven profile refresh: retrain the router's training log when
/// the topic mixture has moved far enough from the one the current
/// profiles were trained on.
pub struct DriftRefresh {
    /// The drifting topic mixture (the detector's ground truth).
    pub drift: TopicDrift,
    /// How often (simulated µs) `advance_to` checks for drift.
    pub interval: SimTime,
    /// Retrain when the total-variation distance between the mixture at
    /// the last retrain and now exceeds this.
    pub threshold: f64,
    /// Produces a fresh training log for the mixture at `now` (e.g. by
    /// replaying recent queries against an exhaustive oracle).
    pub retrain: Arc<dyn Fn(SimTime) -> TrainingResults + Send + Sync>,
}

impl std::fmt::Debug for DriftRefresh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftRefresh")
            .field("interval", &self.interval)
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct RefreshState {
    /// Last instant the drift check ran.
    last_check: SimTime,
    /// Last instant the profiles were retrained (0 = initial training).
    last_retrain: SimTime,
}

/// Router counters, mirrored 1:1 by the live `route.*` instruments so
/// the two can be cross-checked exactly (`exp_selective` asserts it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Routed queries decided (one per cold evaluation).
    pub queries: u64,
    /// Total partitions contacted across routed queries.
    pub shards_contacted: u64,
    /// Fallback-cascade broadening rounds taken.
    pub broadenings: u64,
    /// Routed queries that ended up contacting every active partition.
    pub covered: u64,
    /// Per-epoch selector profiles built on the serving path.
    pub profiles_built: u64,
    /// Drift-driven retrains fired.
    pub retrains: u64,
}

#[derive(Debug, Default)]
struct RouterCounters {
    queries: AtomicU64,
    shards_contacted: AtomicU64,
    broadenings: AtomicU64,
    covered: AtomicU64,
    profiles_built: AtomicU64,
    retrains: AtomicU64,
}

/// The contact plan for one query: tranches of partitions (each sorted
/// ascending), first tranche the initial top-*t*, later tranches the
/// cascade's broadening steps (the contacted set doubles per round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// Partition tranches, contacted in order until the answer is
    /// sufficient.
    pub tranches: Vec<Vec<u32>>,
    /// Active partitions in the snapshot (full coverage = this many).
    pub active: usize,
}

/// Offline replay of one routed query ([`ShardRouter::oracle_query`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedOracle {
    /// Merged top-k, best first.
    pub hits: Vec<GlobalHit>,
    /// Summed backend latency across cascade rounds.
    pub latency: SimTime,
    /// Partitions contacted.
    pub contacted: usize,
    /// Broadening rounds taken.
    pub broadenings: u32,
}

/// The routing stage: wraps a [`CollectionSelector`] source, contacts
/// the top-*t* active partitions per query, and broadens recall-safely
/// when the routed answer is deficient. Shared behind an `Arc` (by
/// several engines, when they route alike); all methods `&self`.
pub struct ShardRouter {
    source: RouteSource,
    /// Initial shards contacted per query (*t*).
    width: usize,
    /// Per-`(epoch, generation)` selector snapshots.
    profiles: Mutex<HashMap<(u64, u64), SharedSelector>>,
    /// Bumped by every retrain; invalidates cached profiles.
    generation: AtomicU64,
    /// Training log behind [`RouteSource::QueryDriven`].
    training: Mutex<Arc<TrainingResults>>,
    refresh: Option<DriftRefresh>,
    refresh_state: Mutex<RefreshState>,
    stats: RouterCounters,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("source", &self.source)
            .field("width", &self.width)
            .field("generation", &self.generation())
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    fn with_source(source: RouteSource, width: usize) -> Self {
        assert!(width >= 1, "router width must be at least 1");
        ShardRouter {
            source,
            width,
            profiles: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            training: Mutex::new(Arc::new(TrainingResults::default())),
            refresh: None,
            refresh_state: Mutex::new(RefreshState::default()),
            stats: RouterCounters::default(),
        }
    }

    /// A router over a caller-supplied selector, contacting exactly the
    /// top-`width` partitions with no fallback cascade — the legacy
    /// `with_selection` semantics, now with honest coverage reporting.
    pub fn fixed(selector: SharedSelector, width: usize) -> Self {
        Self::with_source(RouteSource::Fixed(selector), width)
    }

    /// A CORI router: statistics rebuilt per epoch from the query's own
    /// snapshot, broadening on deficiency.
    pub fn cori(width: usize) -> Self {
        Self::with_source(RouteSource::Cori, width)
    }

    /// A query-driven router over `training`, profiles rebuilt per epoch
    /// against the snapshot's assignment (so child partitions born from
    /// splits are profiled at publish time), cold queries delegated to
    /// CORI, broadening on deficiency.
    pub fn query_driven(training: TrainingResults, width: usize) -> Self {
        let r = Self::with_source(RouteSource::QueryDriven, width);
        *lock_recovering(&r.training) = Arc::new(training);
        r
    }

    /// Attach a drift-driven refresh loop (see [`DriftRefresh`]).
    pub fn with_refresh(mut self, refresh: DriftRefresh) -> Self {
        assert!(refresh.interval > 0, "refresh interval must be positive");
        assert!(
            refresh.threshold.is_finite() && refresh.threshold >= 0.0,
            "drift threshold must be a finite non-negative TV distance"
        );
        self.refresh = Some(refresh);
        self
    }

    /// Whether the fallback cascade can broaden past the initial tranche:
    /// every source but [`RouteSource::Fixed`] does.
    pub fn broadens(&self) -> bool {
        !matches!(self.source, RouteSource::Fixed(_))
    }

    /// Initial shards contacted per query (*t*).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Profile generation (bumped by each retrain).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Counters so far.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            shards_contacted: self.stats.shards_contacted.load(Ordering::Relaxed),
            broadenings: self.stats.broadenings.load(Ordering::Relaxed),
            covered: self.stats.covered.load(Ordering::Relaxed),
            profiles_built: self.stats.profiles_built.load(Ordering::Relaxed),
            retrains: self.stats.retrains.load(Ordering::Relaxed),
        }
    }

    /// The selector snapshot for `snap`'s epoch, building (and caching)
    /// it on first use. The **serving-path** accessor: a build is
    /// counted in [`RouterStats::profiles_built`] and emitted as a
    /// `RouteProfile` event, keeping live instruments and router
    /// counters in lockstep.
    pub fn profile_for<R: Recorder>(
        &self,
        snap: &PartitionedIndex,
        now: SimTime,
        recorder: &R,
    ) -> SharedSelector {
        let (sel, built) = self.profile_shared(snap);
        if built {
            self.stats.profiles_built.fetch_add(1, Ordering::Relaxed);
            recorder.record(Event::RouteProfile {
                now,
                epoch: snap.epoch(),
                generation: self.generation(),
            });
        }
        sel
    }

    /// The selector snapshot for `snap`'s epoch **without** serving-path
    /// accounting — for offline oracles sharing the router's cache.
    pub fn profile(&self, snap: &PartitionedIndex) -> SharedSelector {
        self.profile_shared(snap).0
    }

    fn profile_shared(&self, snap: &PartitionedIndex) -> (SharedSelector, bool) {
        if let RouteSource::Fixed(s) = &self.source {
            return (Arc::clone(s), false);
        }
        let key = (snap.epoch(), self.generation());
        let mut cache = lock_recovering(&self.profiles);
        if let Some(s) = cache.get(&key) {
            return (Arc::clone(s), false);
        }
        // Build under the lock: the build is a pure function of the
        // snapshot and training log, and holding the lock keeps
        // concurrent first-users from building duplicates.
        let built: SharedSelector = match &self.source {
            RouteSource::Cori => Arc::new(CoriSelector::from_partitions(snap)),
            RouteSource::QueryDriven => {
                let training = Arc::clone(&lock_recovering(&self.training));
                Arc::new(
                    QueryDrivenSelector::train(&training, snap.assignment(), snap.num_partitions())
                        .with_fallback(Box::new(CoriSelector::from_partitions(snap))),
                )
            }
            RouteSource::Fixed(_) => unreachable!("handled above"),
        };
        cache.insert(key, Arc::clone(&built));
        (built, true)
    }

    /// The contact plan for one query: rank the snapshot's partitions,
    /// keep the active ones (a closed split parent must never be
    /// contacted), and cut the ranking into tranches — the initial
    /// top-*t*, then broadening steps that double the contacted set.
    /// Every tranche is sorted **ascending**, so a router with `width >=
    /// active` degenerates to exactly the unrouted engine's partition
    /// order (`active_parts()`), which is what makes *t* = all
    /// bit-identical to the unrouted path.
    pub fn decide(
        &self,
        selector: &dyn CollectionSelector,
        snap: &PartitionedIndex,
        terms: &[TermId],
    ) -> RouteDecision {
        let slots = snap.num_partitions();
        let mut ranked: Vec<u32> = selector
            .rank(terms)
            .into_iter()
            .map(|(p, _)| p)
            .filter(|&p| (p as usize) < slots && snap.is_active(p))
            .collect();
        // Defensive: a selector that failed to rank some active
        // partition must not make it unreachable — append stragglers, in
        // ascending id, so the cascade can always reach full coverage.
        let mut listed = vec![false; slots];
        for &p in &ranked {
            listed[p as usize] = true;
        }
        for p in 0..slots as u32 {
            if snap.is_active(p) && !listed[p as usize] {
                ranked.push(p);
            }
        }
        let active = ranked.len();
        let mut tranches = Vec::new();
        let mut start = 0usize;
        let mut take = self.width;
        while start < ranked.len() {
            let end = (start + take).min(ranked.len());
            let mut tranche = ranked[start..end].to_vec();
            tranche.sort_unstable();
            tranches.push(tranche);
            if !self.broadens() {
                break;
            }
            // Double the total contacted per round: t, t, 2t, 4t, ...
            take = end;
            start = end;
        }
        RouteDecision { tranches, active }
    }

    /// Whether the merged answer so far warrants broadening: it holds
    /// fewer than `k` hits.
    pub fn deficient(&self, merged: &[GlobalHit], k: usize) -> bool {
        merged.len() < k
    }

    /// Every partition this query's cascade could contact — the
    /// availability horizon for stale-serving decisions. With broadening
    /// that is the full ranked active set; without, the initial tranche.
    pub fn reachable(&self, snap: &PartitionedIndex, terms: &[TermId]) -> Vec<u32> {
        let selector = self.profile(snap);
        let decision = self.decide(selector.as_ref(), snap, terms);
        decision.tranches.concat()
    }

    /// Fold one routed query's outcome into the router counters.
    pub fn account(&self, contacted: usize, active: usize, broadenings: u32) {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        self.stats.shards_contacted.fetch_add(contacted as u64, Ordering::Relaxed);
        self.stats.broadenings.fetch_add(u64::from(broadenings), Ordering::Relaxed);
        if contacted >= active {
            self.stats.covered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drift check, called by `DistributedEngine::advance_to`: at most
    /// once per `interval`, compare the topic mixture now against the
    /// one the current profiles were trained on; past the TV-distance
    /// threshold, retrain, bump the generation (invalidating every
    /// cached per-epoch profile), and emit a `RouteRetrain` event.
    /// Idempotent per instant; callable from any thread.
    pub fn maybe_refresh<R: Recorder>(&self, now: SimTime, recorder: &R) {
        let Some(refresh) = &self.refresh else { return };
        let mut state = lock_recovering(&self.refresh_state);
        if now < state.last_check.saturating_add(refresh.interval) {
            return;
        }
        state.last_check = now;
        if refresh.drift.tv_distance(state.last_retrain, now) <= refresh.threshold {
            return;
        }
        state.last_retrain = now;
        let fresh = (refresh.retrain)(now);
        *lock_recovering(&self.training) = Arc::new(fresh);
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        lock_recovering(&self.profiles).clear();
        self.stats.retrains.fetch_add(1, Ordering::Relaxed);
        recorder.record(Event::RouteRetrain { now, generation });
    }

    /// Replay one routed query offline, against any broker over the same
    /// snapshot (typically a static oracle built from
    /// `RepartIndex::snapshot()` + `with_global_stats`). Shares the
    /// router's profile cache but touches **no** counters, so a live
    /// engine and its oracle stay cross-checkable. Fault-free replay:
    /// every partition of every tranche is evaluated — bit-identical to
    /// the live engine's routed path when no faults, stragglers, or
    /// deadlines are in play (`tests/route_chaos.rs` pins this under
    /// live splits).
    pub fn oracle_query<R: Recorder>(
        &self,
        broker: &DocBroker<R>,
        snap: &PartitionedIndex,
        terms: &[TermId],
        k: usize,
        qid: u64,
        now: SimTime,
    ) -> RoutedOracle {
        let selector = self.profile(snap);
        let decision = self.decide(selector.as_ref(), snap, terms);
        let mut hits: Vec<GlobalHit> = Vec::new();
        let mut latency: SimTime = 0;
        let mut contacted = 0usize;
        let mut broadenings = 0u32;
        for (round, tranche) in decision.tranches.iter().enumerate() {
            if round > 0 {
                if !self.deficient(&hits, k) {
                    break;
                }
                broadenings += 1;
            }
            contacted += tranche.len();
            let shards = broker.plain_shards(snap, terms, tranche);
            let round = BatchQuery { terms, k, shards: &shards, qid, deadline: None };
            let (resp, _) = broker.scatter_gather_one(snap, round, now);
            latency += resp.latency;
            hits = if hits.is_empty() { resp.hits } else { merge_topk(&hits, &resp.hits, k) };
        }
        RoutedOracle { hits, latency, contacted, broadenings }
    }
}

/// Merge two best-first hit lists into the top-`k`, with the broker's
/// exact comparator (score, ties to the lower doc id) — cascade rounds
/// merge through this, so a single-round answer reproduces the broker's
/// list bit-for-bit. A top-0 merge is empty.
pub fn merge_topk(a: &[GlobalHit], b: &[GlobalHit], k: usize) -> Vec<GlobalHit> {
    if k == 0 {
        return Vec::new();
    }
    let mut top = TopK::new(k);
    for h in a.iter().chain(b) {
        top.push(h.doc, h.score);
    }
    top.into_sorted_vec().into_iter().map(|(doc, score)| GlobalHit { doc, score }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_obs::NoopRecorder;
    use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
    use dwr_partition::parted::Corpus;

    fn setup(parts: usize) -> PartitionedIndex {
        let corpus: Corpus =
            (0..24u32).map(|d| vec![(TermId(d % 5), 2), (TermId(50 + d % 3), 1)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, parts);
        PartitionedIndex::build(&corpus, &a, parts)
    }

    #[test]
    fn decide_cuts_doubling_ascending_tranches() {
        let pi = setup(8);
        let router = ShardRouter::cori(2);
        let sel = router.profile(&pi);
        let d = router.decide(sel.as_ref(), &pi, &[TermId(1)]);
        assert_eq!(d.active, 8);
        let sizes: Vec<usize> = d.tranches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 2, 4], "t, t, 2t: contacted doubles per round");
        for t in &d.tranches {
            assert!(t.windows(2).all(|w| w[0] < w[1]), "ascending: {t:?}");
        }
        let mut all: Vec<u32> = d.tranches.concat();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>(), "cascade covers every partition once");
    }

    #[test]
    fn width_at_least_active_is_one_full_tranche() {
        let pi = setup(4);
        let router = ShardRouter::cori(4);
        let sel = router.profile(&pi);
        let d = router.decide(sel.as_ref(), &pi, &[TermId(1)]);
        assert_eq!(d.tranches, vec![pi.active_parts()], "t = all ≡ unrouted partition order");
    }

    #[test]
    fn without_broadening_contacts_initial_tranche_only() {
        let pi = setup(8);
        let router = ShardRouter::fixed(Arc::new(CoriSelector::from_partitions(&pi)), 3);
        assert!(!router.broadens());
        let sel = router.profile(&pi);
        let d = router.decide(sel.as_ref(), &pi, &[TermId(1)]);
        assert_eq!(d.tranches.len(), 1);
        assert_eq!(d.tranches[0].len(), 3);
        assert_eq!(router.reachable(&pi, &[TermId(1)]).len(), 3);
    }

    #[test]
    fn deficiency_drives_broadening() {
        let router = ShardRouter::cori(1);
        let hit = |doc, score| GlobalHit { doc, score };
        assert!(router.deficient(&[], 3));
        assert!(router.deficient(&[hit(1, 2.0), hit(2, 1.0)], 3));
        assert!(!router.deficient(&[hit(1, 2.0), hit(2, 1.0), hit(3, 0.5)], 3));
    }

    #[test]
    fn merge_topk_is_identity_on_a_single_round() {
        let round = vec![GlobalHit { doc: 3, score: 2.0 }, GlobalHit { doc: 1, score: 1.0 }];
        assert_eq!(merge_topk(&round, &[], 5), round);
        assert_eq!(merge_topk(&[], &round, 5), round);
        // Ties break to the lower doc id, like the broker's gather.
        let tied =
            merge_topk(&[GlobalHit { doc: 7, score: 1.0 }], &[GlobalHit { doc: 2, score: 1.0 }], 1);
        assert_eq!(tied, vec![GlobalHit { doc: 2, score: 1.0 }]);
    }

    #[test]
    fn merge_topk_of_0_is_empty() {
        let round = vec![GlobalHit { doc: 3, score: 2.0 }, GlobalHit { doc: 1, score: 1.0 }];
        assert!(merge_topk(&round, &round, 0).is_empty());
    }

    #[test]
    fn profiles_cache_per_epoch_and_count_only_live_builds() {
        let pi = setup(4);
        let router = ShardRouter::cori(2);
        let rec = NoopRecorder;
        let a = router.profile_for(&pi, 0, &rec);
        assert_eq!(router.stats().profiles_built, 1);
        let b = router.profile_for(&pi, 1, &rec);
        assert_eq!(router.stats().profiles_built, 1, "second use hits the cache");
        assert!(Arc::ptr_eq(&a, &b));
        // The offline accessor shares the cache without counting.
        let c = router.profile(&pi);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(router.stats().profiles_built, 1);
    }

    #[test]
    fn refresh_retrains_only_past_threshold_and_bumps_generation() {
        let pi = setup(4);
        let retrains = Arc::new(AtomicU64::new(0));
        let counting = Arc::clone(&retrains);
        let router =
            ShardRouter::query_driven(TrainingResults::default(), 2).with_refresh(DriftRefresh {
                drift: TopicDrift::reversal(&[0.9, 0.1], 1_000_000),
                interval: 100,
                threshold: 0.5,
                retrain: Arc::new(move |_| {
                    counting.fetch_add(1, Ordering::Relaxed);
                    TrainingResults::default()
                }),
            });
        let rec = NoopRecorder;
        let old = router.profile(&pi);
        // Early: drift below threshold — checked but not retrained.
        router.maybe_refresh(200, &rec);
        assert_eq!(router.stats().retrains, 0);
        assert_eq!(router.generation(), 0);
        // Within the interval of the last check: not even checked.
        router.maybe_refresh(250, &rec);
        // Past the horizon the reversal exceeds TV 0.5: retrain fires,
        // the generation bumps, and cached profiles are invalidated.
        router.maybe_refresh(1_000_000, &rec);
        assert_eq!(router.stats().retrains, 1);
        assert_eq!(retrains.load(Ordering::Relaxed), 1);
        assert_eq!(router.generation(), 1);
        let fresh = router.profile(&pi);
        assert!(!Arc::ptr_eq(&old, &fresh), "retrain invalidates the profile cache");
        // Re-checking at the same mixture does not retrain again.
        router.maybe_refresh(2_000_000, &rec);
        assert_eq!(router.stats().retrains, 1, "mixture unchanged since last retrain");
    }

    #[test]
    fn fixed_source_never_builds_profiles() {
        let pi = setup(4);
        let sel: SharedSelector = Arc::new(CoriSelector::from_partitions(&pi));
        let router = ShardRouter::fixed(Arc::clone(&sel), 2);
        let got = router.profile_for(&pi, 0, &NoopRecorder);
        assert!(Arc::ptr_eq(&sel, &got));
        assert_eq!(router.stats().profiles_built, 0);
        assert!(!router.broadens(), "fixed = legacy with_selection semantics");
    }
}
