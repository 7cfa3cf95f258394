//! The assembled distributed engine: cache → selection → replicated
//! scatter-gather, with failure masking.
//!
//! This is the component stack of the paper's Figure 3 in one process: a
//! coordinator consults a result cache, optionally narrows the partition
//! set with collection selection, dispatches to a live replica of each
//! chosen partition, merges, and falls back to *stale cached results* when
//! a whole replica group is down ("upon query processor failures, the
//! system returns cached results").
//!
//! A cache entry records the `k` it answered, and serves a request only
//! for a `k` whose top hits are a prefix of it: a shallower one, or any
//! one once the entry came back shorter than its own `k`. The response is
//! that prefix; a deeper request misses and refills the entry.
//!
//! # Concurrency
//!
//! The engine is split into an immutable shared core and interior-mutable
//! accounting, so every serving method takes `&self` and the whole type
//! is `Send + Sync`:
//!
//! * the [`DocBroker`] shares the index (a [`RepartIndex`]) through an
//!   `Arc` and is itself shareable;
//! * the result cache sits behind a [`ShardedCache`] (policy state under
//!   one mutex);
//! * replica groups are per-partition mutexes (their round-robin cursors
//!   mutate on dispatch);
//! * counters are atomics, snapshot by [`DistributedEngine::stats`].
//!
//! Many client threads can therefore drive one `Arc<DistributedEngine>`,
//! and/or a single client can enable [`DistributedEngine::with_parallelism`]
//! to evaluate the partitions of *each* query concurrently. The parallel
//! scatter path is bit-for-bit identical to the sequential one (see
//! [`crate::broker`]).
//!
//! # Fault injection
//!
//! A [`FaultSchedule`] ([`DistributedEngine::with_faults`]) is the one
//! record of replica liveness: replica `r` of slot `p` is up at `t` unless
//! the schedule has it down then (no schedule, or a pair outside it, is
//! up). Every serving call reads it at the call's one instant,
//! [`DistributedEngine::now`] — to pick a replica, to decide stale
//! serving, and to ask whether the chosen replica dies *mid-query*, in
//! which case the engine hedges once on another up replica (subject to
//! the optional per-query deadline, [`DistributedEngine::with_deadline`])
//! before dropping the partition as degraded. A split's builder reads it
//! at the split's instant. Liveness is a function of time, not state, so
//! a clock moved concurrently cannot make a dispatch disagree with the
//! check that chose it.
//!
//! # Tail tolerance
//!
//! A [`StragglerModel`] ([`DistributedEngine::with_stragglers`]) makes
//! replicas genuinely diverge: each (partition, replica, query) draws a
//! multiplicative service-time factor, so "the slowest server determines
//! the response time" becomes a measurable tail. The [`HedgePolicy`]
//! ([`DistributedEngine::with_hedge_policy`]) decides when a duplicate
//! request is launched on a second replica — never, on detected death
//! (the default), after a fixed delay, past a live
//! percentile of the shard's own completion history, or immediately
//! (tied requests with cancellation accounting). A gather deadline
//! ([`DistributedEngine::with_gather_deadline`]) returns partial top-k
//! with explicit coverage ([`Served::Partial`]) when stragglers outlast
//! the response budget. All policies preserve the parallel ≡ sequential
//! and batch ≡ loop equivalence invariants.
//!
//! There is **one latency model**. Dispatch prices every served
//! `(query, partition)` once — its df-based service time and its
//! shard-side completion: `ceil(service)` on a plain replica, the
//! straggler draw otherwise, a hedge folded in — and the broker's gather
//! waits for the slowest `completion + rtt`. An engine without a gather
//! deadline is an engine whose deadline is ∞: `tests/tail_chaos.rs`
//! pins that adding `.with_gather_deadline(SimTime::MAX)` changes
//! nothing.

use crate::broker::{plain_completion, BatchQuery, DocBroker, GlobalHit, Shard};
use crate::cache::{CachedResults, ResultCache, ShardedCache};
use crate::faults::FaultSchedule;
use crate::lock_recovering;
use crate::replica::ReplicaGroup;
use crate::route::{merge_topk, RouteDecision, ShardRouter};
use crate::straggler::StragglerModel;
use dwr_obs::{Event, Histogram, NoopRecorder, Outcome as ObsOutcome, Recorder};
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::repart::{RepartIndex, SplitFate, SplitSchedule};
use dwr_partition::select::CollectionSelector;
use dwr_sim::hash::IdSet;
use dwr_sim::SimTime;
use dwr_text::search::EvalStrategy;
use dwr_text::TermId;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Fresh results straight from the cache.
    CacheHit,
    /// Evaluated on the full chosen partition set.
    Full,
    /// Evaluated with some partitions unavailable (degraded results).
    Degraded {
        /// Number of unavailable partitions skipped.
        missing: usize,
    },
    /// Backend entirely unavailable; served stale results from the cache.
    StaleFromCache,
    /// Backend unavailable and the cache had nothing.
    Failed,
    /// Rejected by admission control before reaching any backend: live
    /// capacity existed but policy (load shedding, an exhausted WAN
    /// retry/deadline budget) refused the query. Produced only by the
    /// site tier ([`crate::multisite::MultiSiteEngine`]); a single-site
    /// `DistributedEngine` never sheds.
    Shed,
    /// Evaluated, but the gather deadline expired before every dispatched
    /// partition answered: best-available top-k with explicit coverage.
    /// Partial responses are never cached — a truncated result must not
    /// masquerade as the full answer for its key.
    Partial {
        /// Dispatched partitions whose answers arrived in time to merge.
        partitions_answered: usize,
    },
    /// Evaluated on a routed subset of the active partitions: every
    /// contacted partition answered, but the [`crate::route::ShardRouter`]
    /// deliberately skipped the rest, so recall is bounded by the
    /// selector rather than proven. `Full` is reserved for answers
    /// where routing provably lost nothing (every active partition was
    /// contacted). Routed answers **are** cached: routing is a
    /// deterministic function of the query and the epoch's profiles, so
    /// the cached entry equals what re-evaluation would produce.
    Routed {
        /// Partitions the router contacted (initial tranche plus any
        /// broadening rounds).
        partitions_contacted: usize,
    },
}

/// When the engine launches a hedged (duplicate) request on a second
/// replica of a partition. The suite follows tail-tolerant search
/// practice (hedged and tied requests, partial results on deadline)
/// applied to the paper's observation that the slowest server determines
/// scatter-gather response time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum HedgePolicy {
    /// Never hedge: a mid-query death simply degrades the partition.
    Never,
    /// Hedge only on a detected mid-query death — the engine's historical
    /// behavior and the default.
    #[default]
    OnDeath,
    /// Launch the hedge when the first replica has not answered after a
    /// fixed delay (simulated µs).
    FixedDelay(SimTime),
    /// Launch the hedge when the first replica has not answered within
    /// this percentile (e.g. `95.0`) of the partition's *own* live
    /// completion history, tracked in a lock-free `dwr-obs` histogram.
    /// Falls back to [`HedgePolicy::OnDeath`] until enough history
    /// accumulates.
    PercentileTrigger(f64),
    /// Launch the hedge immediately ("tied requests"): the faster copy
    /// wins, the loser is cancelled and its burned work accounted.
    Tied,
}

/// Aggregate engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Answered from cache (fresh).
    pub cache_hits: u64,
    /// Fully evaluated.
    pub full: u64,
    /// Evaluated with missing partitions.
    pub degraded: u64,
    /// Served stale from cache during an outage.
    pub stale: u64,
    /// Unanswerable.
    pub failed: u64,
    /// Hedged retries dispatched after a replica died mid-query.
    pub hedged: u64,
    /// Hedged requests cancelled because the other copy answered first.
    pub cancelled: u64,
    /// Responses returned partial at the gather deadline.
    pub partial: u64,
    /// Answers evaluated on a routed subset of the active partitions.
    pub routed: u64,
    /// Fallback-cascade broadening rounds taken by routed queries.
    pub broadenings: u64,
    /// Simulated µs of work burned on hedges that did not serve the
    /// answer: cancelled losers and hedges that died mid-flight.
    pub hedge_work_us: u64,
}

/// Full outcome of one engine query.
#[derive(Debug, Clone)]
pub struct EngineResponse {
    /// Merged top-k, best first.
    pub hits: Vec<GlobalHit>,
    /// How the query was answered.
    pub served: Served,
    /// Simulated backend latency (slowest partition + merge), when the
    /// backend evaluated the query; `None` for cache/stale/failed
    /// answers.
    pub latency: Option<SimTime>,
}

#[derive(Debug, Default)]
struct Counters {
    cache_hits: AtomicU64,
    full: AtomicU64,
    degraded: AtomicU64,
    stale: AtomicU64,
    failed: AtomicU64,
    hedged: AtomicU64,
    cancelled: AtomicU64,
    partial: AtomicU64,
    routed: AtomicU64,
    broadenings: AtomicU64,
    hedge_work_us: AtomicU64,
}

/// One cold query's pass through the backend: the tranches of
/// partitions it may contact, the latest tranche's dispatch (awaiting
/// evaluation), and everything merged so far. An unrouted query is the
/// degenerate cascade whose single tranche is every active partition.
struct Cascade<'q> {
    /// Position in the admitted batch.
    pos: usize,
    key: u64,
    terms: &'q [TermId],
    /// Tranches in contact order, and the snapshot's active count.
    decision: RouteDecision,
    /// Tranches dispatched so far.
    rounds: usize,
    /// Latest tranche: the partitions a surviving replica took, priced
    /// at dispatch; what the gather merges on.
    shards: Vec<Shard>,
    /// Merged top-k over the evaluated tranches.
    hits: Vec<GlobalHit>,
    /// Backend latency, charged additively per round.
    latency: SimTime,
    /// Partitions contacted / that could not be served / that were
    /// served / whose answer was merged before the gather deadline.
    contacted: usize,
    missing: usize,
    served: usize,
    answered: usize,
    /// Some dispatched answer lands past the gather deadline: the
    /// response will be partial.
    late: bool,
    /// Broadening rounds taken.
    broadenings: u32,
}

/// A query admitted but not yet answered.
enum Staged<'q> {
    /// A cache miss, dispatched and awaiting evaluation.
    Cold(Cascade<'q>),
    /// Same key as an earlier cacheable miss of this batch: answered
    /// from the cache once that one has resolved.
    Dup { pos: usize, key: u64, terms: &'q [TermId] },
}

impl<'q> Staged<'q> {
    fn cold(&mut self) -> Option<&mut Cascade<'q>> {
        match self {
            Staged::Cold(c) => Some(c),
            Staged::Dup { .. } => None,
        }
    }
}

/// One query's first attempt on one partition: what the hedge decision
/// and its settlement read.
struct Dispatch {
    p: u32,
    /// df-based service time of the partition for this query.
    service: f64,
    now: SimTime,
    qid: u64,
    /// The replica that took the first attempt, its drawn cost, and
    /// whether it dies mid-query.
    first: usize,
    c1: SimTime,
    dead1: bool,
}

/// Outcome of dispatching one query on one replica group.
#[derive(Default)]
struct OneDispatch {
    /// The priced answer of the surviving replica that took the query,
    /// if one did.
    shard: Option<Shard>,
    /// Hedged retries dispatched (0 or 1).
    hedges: u64,
    /// 1 when a hedge was cancelled because the other copy won.
    cancelled: u64,
    /// Simulated µs burned on a hedge that did not serve the answer.
    hedge_work: u64,
}

/// Live-history samples a [`HedgePolicy::PercentileTrigger`] needs on a
/// partition before its trigger engages (it hedges on death until then).
const MIN_TRIGGER_SAMPLES: u64 = 16;

/// The engine. Owns its broker (which shares the index through an `Arc`),
/// cache, and replica state; `Send + Sync`, all methods `&self`.
///
/// Generic over an observability [`Recorder`] (default: the zero-sized
/// [`NoopRecorder`], which compiles the instrumentation away entirely).
/// Attach a live recorder with [`DistributedEngine::with_obs`]; results
/// are bit-for-bit identical either way — recorders observe, they never
/// steer (`tests/observability.rs` pins this).
pub struct DistributedEngine<C: ResultCache, R: Recorder = NoopRecorder> {
    broker: DocBroker<R>,
    core: EngineCore<C>,
    /// Observability sink (cloned into the broker so both emit to the
    /// same instruments).
    recorder: R,
}

/// Everything of a [`DistributedEngine`] that does not depend on its
/// recorder's type, so swapping recorders moves it whole.
struct EngineCore<C: ResultCache> {
    cache: ShardedCache<C>,
    groups: Vec<Mutex<ReplicaGroup>>,
    counters: Counters,
    /// Routing stage: when present, cold queries contact only the
    /// router's chosen partitions (with its recall-safe cascade) instead
    /// of every active partition.
    router: Option<Arc<ShardRouter>>,
    /// The one record of replica liveness, read at each call's instant.
    faults: Option<Arc<FaultSchedule>>,
    /// Replicas per group.
    replicas: usize,
    /// Per-query latency budget gating hedged retries.
    deadline: Option<SimTime>,
    /// When the engine launches a duplicate request on a second replica.
    policy: HedgePolicy,
    /// Per-(partition, replica, query) service-time inflation.
    stragglers: Option<Arc<StragglerModel>>,
    /// Response-level deadline: the gather returns partial top-k when a
    /// dispatched partition's answer lands after it.
    gather_deadline: Option<SimTime>,
    /// Live per-partition completion history (lock-free, drives
    /// [`HedgePolicy::PercentileTrigger`]).
    shard_latency: Vec<Histogram>,
    /// The engine's simulated clock (µs), advanced by `advance_to`.
    clock: AtomicU64,
    /// Deterministic split storm applied by [`Self::advance_to`]; the
    /// cursor makes each scheduled split fire exactly once.
    splits: Option<(Arc<SplitSchedule>, Mutex<usize>)>,
}

/// Queries up to this many terms are keyed without allocating (every
/// query model draws 1–4).
const KEY_ON_STACK: usize = 8;

/// A stable cache key for a term multiset: the FNV-1a fold of its ids in
/// ascending order.
pub fn query_key(terms: &[TermId]) -> u64 {
    let mut stack = [0u32; KEY_ON_STACK];
    let mut heap = Vec::new();
    let sorted = if terms.len() <= KEY_ON_STACK {
        &mut stack[..terms.len()]
    } else {
        heap.resize(terms.len(), 0);
        &mut heap[..]
    };
    for (slot, t) in sorted.iter_mut().zip(terms) {
        *slot = t.0;
    }
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in &*sorted {
        h ^= u64::from(t);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl<C: ResultCache> DistributedEngine<C> {
    /// Create an engine over the fixed layout `index` with `replicas`
    /// per partition, scoring with local statistics
    /// ([`DocBroker::single_site`]).
    pub fn new(index: &PartitionedIndex, cache: C, replicas: usize) -> Self {
        Self::assemble(DocBroker::single_site(index), cache, replicas)
    }

    /// Create an engine over a **live** (splittable) index with
    /// `replicas` per partition slot. Replica groups and latency
    /// instruments are provisioned up to [`RepartIndex::capacity`] so
    /// child partitions born from later splits dispatch onto replica
    /// groups that already exist — a split never resizes engine state.
    pub fn new_live(repart: &Arc<RepartIndex>, cache: C, replicas: usize) -> Self {
        Self::assemble(DocBroker::live(repart), cache, replicas)
    }

    /// One replica group and latency instrument per broker accounting
    /// slot (the index's capacity).
    fn assemble(broker: DocBroker, cache: C, replicas: usize) -> Self {
        let slots = broker.slots();
        let core = EngineCore {
            cache: ShardedCache::single(cache),
            groups: (0..slots).map(|_| Mutex::new(ReplicaGroup::new(replicas))).collect(),
            counters: Counters::default(),
            router: None,
            faults: None,
            replicas,
            deadline: None,
            policy: HedgePolicy::default(),
            stragglers: None,
            gather_deadline: None,
            shard_latency: (0..slots).map(|_| Histogram::new()).collect(),
            clock: AtomicU64::new(0),
            splits: None,
        };
        DistributedEngine { broker, core, recorder: NoopRecorder }
    }
}

impl<C: ResultCache, R: Recorder> DistributedEngine<C, R> {
    /// Swap in an observability recorder: every stage of every query
    /// (admission, cache lookup, scatter, per-shard service, gather,
    /// hedges, outcome) flows to it as [`Event`]s. The recorder is
    /// cloned into the broker so engine- and broker-level events land in
    /// the same instruments; share one `Arc<ObsRecorder>` across engines
    /// for tier-wide accounting.
    pub fn with_obs<R2: Recorder + Clone>(self, recorder: R2) -> DistributedEngine<C, R2> {
        let broker = self.broker.with_recorder(recorder.clone());
        DistributedEngine { broker, core: self.core, recorder }
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Enable collection selection: only the top-`m` partitions serve
    /// each query. Sugar for a fixed-source [`ShardRouter`] with no
    /// fallback cascade; answers on fewer than all partitions report
    /// [`Served::Routed`] (honest coverage), not `Full`.
    pub fn with_selection(
        self,
        selector: Arc<dyn CollectionSelector + Send + Sync>,
        m: usize,
    ) -> Self {
        assert!(m >= 1);
        assert!(
            !self.splittable(),
            "collection selection requires a static partition layout \
             (selectors rank the partitions they were built from; an index \
             with room to split retires those ids as it splits). Use \
             with_router with an epoch-rebuilding source (ShardRouter::cori \
             / ShardRouter::query_driven) on a splittable index instead."
        );
        self.with_router(Arc::new(ShardRouter::fixed(selector, m)))
    }

    /// Attach a routing stage: cold queries contact only the router's
    /// top-*t* active partitions (per the query's own epoch snapshot),
    /// broadening recall-safely when the routed answer is deficient.
    /// Composes with live indexes ([`Self::new_live`]) — the router
    /// rebuilds selector profiles per epoch — and with hedging,
    /// deadlines, and stragglers, which apply unchanged on the contacted
    /// subset. [`Self::advance_to`] drives the router's drift-refresh
    /// loop when one is configured.
    pub fn with_router(mut self, router: Arc<ShardRouter>) -> Self {
        self.core.router = Some(router);
        self
    }

    /// The attached routing stage, if any.
    pub fn router(&self) -> Option<&Arc<ShardRouter>> {
        self.core.router.as_ref()
    }

    /// Attach a deterministic split storm: [`Self::advance_to`] fires
    /// every scheduled split whose instant has been reached, exactly
    /// once, against the live index. Each split picks the currently
    /// largest active partition; a split whose parent's replica group
    /// has no live replica at that instant aborts cleanly instead of
    /// committing (the builder node is down), and splits the live index
    /// refuses (capacity, too few docs) are skipped silently.
    pub fn with_splits(mut self, schedule: Arc<SplitSchedule>) -> Self {
        assert!(
            self.splittable(),
            "split schedules require a live index with room to split \
             (DistributedEngine::new_live over a capacity above its partition count)"
        );
        self.core.splits = Some((schedule, Mutex::new(0)));
        self
    }

    /// Evaluate each query's partitions concurrently on a pool of
    /// `threads` workers. Results are bit-for-bit identical to the
    /// sequential path.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.broker = self.broker.parallel(threads);
        self
    }

    /// Whether partition evaluation runs on a worker pool.
    pub fn is_parallel(&self) -> bool {
        self.broker.is_parallel()
    }

    /// Pick the ranked evaluator shards run (see
    /// [`DocBroker::with_strategy`]): results, latencies, and counters
    /// are bit-identical across strategies; only the measured work in
    /// `broker().eval_stats()` differs.
    pub fn with_strategy(mut self, eval: EvalStrategy) -> Self {
        self.broker = self.broker.with_strategy(eval);
        self
    }

    /// Drive replica liveness from an outage schedule: every serving
    /// call reads it at the engine's clock, for the replicas it may pick
    /// and for mid-query deaths (triggering hedged retries). The same
    /// `Arc` can drive several engines, which keeps fault-equivalence
    /// tests honest.
    pub fn with_faults(mut self, schedule: Arc<FaultSchedule>) -> Self {
        self.core.faults = Some(schedule);
        self
    }

    /// Bound the simulated time a query may spend on one partition:
    /// a hedged retry is attempted only when first attempt + retry fit
    /// within `deadline`.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        assert!(deadline > 0);
        self.core.deadline = Some(deadline);
        self
    }

    /// Pick the tail-tolerance hedging policy. The default,
    /// [`HedgePolicy::OnDeath`], is the engine's historical behavior and
    /// is bit-identical to not configuring a policy at all.
    pub fn with_hedge_policy(mut self, policy: HedgePolicy) -> Self {
        match policy {
            HedgePolicy::FixedDelay(t) => assert!(t > 0, "hedge delay must be positive"),
            HedgePolicy::PercentileTrigger(q) => assert!(
                q.is_finite() && q > 0.0 && q < 100.0,
                "trigger percentile must be in (0, 100), got {q}"
            ),
            _ => {}
        }
        self.core.policy = policy;
        self
    }

    /// Attach a per-(partition, replica, query) latency model: every
    /// dispatched attempt's service time is the df-based base cost
    /// inflated by the model's deterministic draw, so replicas of one
    /// partition genuinely diverge and the gather sees real stragglers.
    pub fn with_stragglers(mut self, model: Arc<StragglerModel>) -> Self {
        self.core.stragglers = Some(model);
        self
    }

    /// Set a response deadline: the gather merges only partitions whose
    /// (shard-side) answer completes within it and reports the rest as
    /// missing coverage via [`Served::Partial`]. Independent of
    /// [`Self::with_deadline`], which budgets hedged retries per
    /// partition.
    pub fn with_gather_deadline(mut self, deadline: SimTime) -> Self {
        assert!(deadline > 0);
        self.core.gather_deadline = Some(deadline);
        self
    }

    /// Mergeable percentile summaries of each partition's live completion
    /// history (the instrument behind [`HedgePolicy::PercentileTrigger`]).
    /// Empty on an engine with no fault schedule, straggler model or
    /// gather deadline under `Never`/`OnDeath`: there every completion is
    /// `ceil(service_time)`, and none is recorded.
    pub fn shard_latency_percentiles(&self) -> Vec<dwr_sim::stats::Percentiles> {
        self.core.shard_latency.iter().map(Histogram::snapshot).collect()
    }

    /// The engine's simulated clock.
    pub fn now(&self) -> SimTime {
        self.core.clock.load(Ordering::Relaxed)
    }

    /// Advance the simulated clock to `t` (the instant at which later
    /// calls read replica liveness), fire any scheduled splits whose
    /// instant has been reached, and let the router check for drift.
    /// Idempotent; callable from any thread while other threads serve
    /// queries.
    pub fn advance_to(&self, t: SimTime) {
        self.core.clock.store(t, Ordering::Relaxed);
        self.fire_due_splits(t);
        if let Some(router) = &self.core.router {
            router.maybe_refresh(t, &self.recorder);
        }
    }

    /// Fire every scheduled split due at or before `t`, exactly once
    /// (the cursor advances under its own lock, so concurrent
    /// `advance_to` calls race safely). The injected crash fate comes
    /// from the schedule, downgraded to a clean abort when the parent's
    /// replica group has no up replica at the split instant — a split
    /// needs a live builder.
    fn fire_due_splits(&self, t: SimTime) {
        let Some((schedule, cursor)) = &self.core.splits else { return };
        let repart = self.broker.index();
        let mut cur = lock_recovering(cursor);
        while let Some(ev) = schedule.events().get(*cur) {
            if ev.at > t {
                break;
            }
            *cur += 1;
            let Some(parent) = repart.split_target() else { continue };
            let fate =
                if self.group_up(parent, ev.at) { ev.fate } else { SplitFate::CrashBeforePublish };
            match repart.split(parent, fate) {
                Ok(report) if report.committed => self.recorder.record(Event::RepartSplit {
                    now: ev.at,
                    parent,
                    children: report.children.len() as u32,
                    epoch: report.epoch_after,
                }),
                Ok(report) => self.recorder.record(Event::RepartAbort {
                    now: ev.at,
                    parent,
                    epoch: report.epoch_before,
                }),
                // Refused (capacity / too few docs): nothing happened,
                // so nothing is counted — `repart.*` instruments stay in
                // lockstep with `RepartIndex::repart_stats`.
                Err(_) => {}
            }
        }
    }

    /// Whether the served index has room to split: the one fact that
    /// separates a layout a selector can be built against from one a
    /// split schedule can reshape.
    fn splittable(&self) -> bool {
        let index = self.broker.index();
        index.capacity() > index.snapshot().num_partitions()
    }

    /// The one liveness rule: replica `r` of slot `p` is up at `t`
    /// unless the fault schedule has it down then. With no schedule, or
    /// for a pair outside it, it is up.
    fn replica_up(&self, p: usize, r: usize, t: SimTime) -> bool {
        self.core.faults.as_ref().is_none_or(|f| !f.is_down(p, r, t))
    }

    /// Whether any of the replicas of slot `p`'s group is up at `t` (a
    /// slot with no group has none). Reads only the schedule, so it takes
    /// no group lock.
    fn group_up(&self, p: u32, t: SimTime) -> bool {
        let p = p as usize;
        p < self.core.groups.len() && (0..self.core.replicas).any(|r| self.replica_up(p, r, t))
    }

    /// Queries dispatched so far, per partition and replica.
    pub fn dispatch_counts(&self) -> Vec<Vec<u64>> {
        self.core.groups.iter().map(|g| lock_recovering(g).dispatched().to_vec()).collect()
    }

    /// The partitions a query *could* address (before availability): the
    /// router's reachable set (initial tranche plus every broadening
    /// step), or every partition *active in the query's snapshot* — on a
    /// static index that is `0..num_partitions`, on a live one it is the
    /// current epoch's leaves. Drives the stale-serving decision: the
    /// backend counts as down for a query only when none of these
    /// partitions has an up replica.
    fn reachable(&self, snap: &PartitionedIndex, terms: &[TermId]) -> Vec<u32> {
        match &self.core.router {
            Some(router) => router.reachable(snap, terms),
            None => snap.active_parts(),
        }
    }

    /// Serve a query.
    pub fn query(&self, terms: &[TermId], k: usize) -> (Vec<GlobalHit>, Served) {
        let r = self.query_full(terms, k);
        (r.hits, r.served)
    }

    /// Serve a query, reporting the simulated backend latency alongside
    /// the results.
    pub fn query_full(&self, terms: &[TermId], k: usize) -> EngineResponse {
        let mut slot = [None];
        self.answer(&[terms], k, false, &mut slot);
        slot[0].take().expect("one response per query")
    }

    /// Serve a query, allowing stale cache results when the backend is
    /// down (the dependability role of caches). Unlike [`Self::query`],
    /// a backend outage consults the cache *ignoring freshness*.
    pub fn query_stale_ok(&self, terms: &[TermId], k: usize) -> (Vec<GlobalHit>, Served) {
        let mut slot = [None];
        self.answer(&[terms], k, true, &mut slot);
        let r = slot[0].take().expect("one response per query");
        (r.hits, r.served)
    }

    /// Serve a batch of queries through the same pipeline as
    /// [`Self::query_full`] — which is this with a batch of one — with
    /// the shard evaluation of every cold query admitted to the scatter
    /// pool in one enqueue. Stale serving is not consulted.
    ///
    /// Responses and every counter (engine, cache, broker, dispatch
    /// counts) are identical to calling [`Self::query_full`] once per
    /// query in order: queries dispatch in query order, so every replica
    /// group's round-robin cursor — and therefore every straggler draw,
    /// hedge and coverage figure — sees the loop form's sequence. One
    /// caveat is documented: a query repeating an earlier *cacheable*
    /// miss of the same batch is answered from the cache once that miss
    /// has resolved, so if the entry is *evicted* while the batch is in
    /// flight the repeat is re-evaluated then (counted full/degraded
    /// where the loop form would have counted a cache hit). With a cache
    /// wide enough to hold the batch's distinct queries — the
    /// throughput-bench regime — batch ≡ loop exactly.
    ///
    /// The observability stream carries the loop form's events with the
    /// same payloads, in each query's own order: per query in order,
    /// `QueryStart`, `CacheLookup`, then its `Outcome` on a hit or its
    /// `Hedge`s on a miss; then the scatter/gather blocks of the misses
    /// (query order); then their `Outcome`s (query order).
    pub fn query_batch(&self, queries: &[Vec<TermId>], k: usize) -> Vec<EngineResponse> {
        let mut out = vec![None; queries.len()];
        self.answer(queries, k, false, &mut out);
        out.into_iter().map(|r| r.expect("every admitted query resolved")).collect()
    }

    /// The one serving pipeline: admission (cache consult) and dispatch
    /// per query in query order, evaluation of every cache miss in one
    /// broker batch, resolution in query order. Query `i`'s response
    /// lands in `out[i]`, so a call its cache answers whole allocates
    /// nothing but the hits it returns.
    ///
    /// Every query of the call is served against one epoch-consistent
    /// snapshot, threaded through choose, dispatch, and evaluation, so a
    /// split committing mid-call cannot tear the partition set. It is
    /// taken at the call's first read of the index (a cache miss, or a
    /// stale-ok reachability check), so a call its cache answers whole
    /// never takes the index lock.
    fn answer<Q: AsRef<[TermId]>>(
        &self,
        queries: &[Q],
        k: usize,
        stale_ok: bool,
        out: &mut [Option<EngineResponse>],
    ) {
        debug_assert_eq!(queries.len(), out.len(), "one slot per query");
        let now = self.now();
        let snap_cell = OnceCell::new();
        let snap = || snap_cell.get_or_init(|| self.broker.snapshot());
        let mut staged: Vec<Staged<'_>> = Vec::new();
        // Staged entries before this index have been evaluated.
        let mut evaluated = 0;
        // Keys of staged misses whose answer will be cached.
        let mut pending: IdSet<u64> = IdSet::default();
        for (pos, terms) in queries.iter().map(AsRef::as_ref).enumerate() {
            let key = query_key(terms);
            self.recorder.record(Event::QueryStart { qid: key, now });
            if k == 0 {
                // Asks for nothing: empty and `Full` without touching
                // cache or backend (a deadline gather would otherwise
                // report zero-of-n coverage as `Partial`).
                out[pos] = Some(self.respond(key, now, Vec::new(), Served::Full, Some(0)));
                continue;
            }
            // Repeats are detected *before* the cache consult so cache
            // hit/miss counters match the loop form (where the repeat's
            // consult happens after the original resolved, and hits).
            if pending.contains(&key) {
                staged.push(Staged::Dup { pos, key, terms });
                continue;
            }
            if let Some(hit) = self.core.cache.get_recorded(key, k, &self.recorder, now) {
                let backend_down = stale_ok
                    && !self.reachable(snap(), terms).iter().any(|&p| self.group_up(p, now));
                let served = if backend_down { Served::StaleFromCache } else { Served::CacheHit };
                out[pos] = Some(self.respond(key, now, hit, served, None));
                continue;
            }
            let mut cascade = self.begin(snap(), pos, key, terms, now);
            if cascade.decision.tranches.len() > 1 {
                // Later tranches dispatch only once earlier rounds have
                // answered, and the next query's dispatch must see the
                // replica cursors they leave behind: run the cascade to
                // completion now (with whatever else is staged).
                let earlier = staged[evaluated..].iter_mut().filter_map(Staged::cold);
                self.evaluate(snap(), k, now, earlier.chain([&mut cascade]));
                evaluated = staged.len() + 1;
            }
            // A repeat of a miss that will not be cached (nothing served,
            // or an answer landing past the gather deadline) must miss
            // and dispatch in its own position, as in the loop form.
            if cascade.served > 0 && !cascade.late {
                pending.insert(key);
            }
            staged.push(Staged::Cold(cascade));
        }
        // An unset snapshot means no miss was admitted: nothing is staged.
        if let Some(snap) = snap_cell.get() {
            self.evaluate(snap, k, now, staged[evaluated..].iter_mut().filter_map(Staged::cold));
        }
        // Resolution, in query order: cache fills and repeat lookups
        // interleave exactly as in the loop form.
        for s in staged {
            let (pos, resp) = match s {
                Staged::Cold(c) => (c.pos, self.resolve(k, now, c)),
                Staged::Dup { pos, key, terms } => {
                    let resp = match self.core.cache.get_recorded(key, k, &self.recorder, now) {
                        Some(hit) => self.respond(key, now, hit, Served::CacheHit, None),
                        // Evicted while the batch was in flight: an
                        // ordinary miss, late (the documented divergence).
                        None => {
                            let mut c = self.begin(snap(), pos, key, terms, now);
                            self.evaluate(snap(), k, now, std::iter::once(&mut c));
                            self.resolve(k, now, c)
                        }
                    };
                    (pos, resp)
                }
            };
            out[pos] = Some(resp);
        }
    }

    /// Start a cache miss's cascade: decide its tranches — the router's
    /// plan, or every active partition at once — and dispatch the first.
    fn begin<'q>(
        &self,
        snap: &PartitionedIndex,
        pos: usize,
        key: u64,
        terms: &'q [TermId],
        now: SimTime,
    ) -> Cascade<'q> {
        let decision = match &self.core.router {
            Some(router) => {
                let selector = router.profile_for(snap, now, &self.recorder);
                router.decide(selector.as_ref(), snap, terms)
            }
            None => {
                let all = snap.active_parts();
                RouteDecision { active: all.len(), tranches: vec![all] }
            }
        };
        let mut cascade = Cascade {
            pos,
            key,
            terms,
            decision,
            rounds: 0,
            shards: Vec::new(),
            hits: Vec::new(),
            latency: 0,
            contacted: 0,
            missing: 0,
            served: 0,
            answered: 0,
            late: false,
            broadenings: 0,
        };
        self.dispatch_next(snap, now, &mut cascade);
        cascade
    }

    /// Dispatch the cascade's next tranche, one pass over its
    /// partitions: per group, the first replica up at `now` takes the
    /// query, and a group with none is dropped as unserved. When a fault
    /// schedule is attached, a replica whose outage begins mid-query
    /// loses the attempt and the engine hedges once on another up
    /// replica (if the deadline leaves room).
    fn dispatch_next(&self, snap: &PartitionedIndex, now: SimTime, c: &mut Cascade<'_>) {
        let tranche = &c.decision.tranches[c.rounds];
        c.rounds += 1;
        c.contacted += tranche.len();
        c.shards.clear();
        c.shards.reserve(tranche.len());
        let (mut hedges, mut cancelled, mut hedge_work) = (0, 0, 0);
        for &p in tranche {
            let one = match self.core.groups.get(p as usize) {
                Some(group) => {
                    self.dispatch_one(snap, &mut lock_recovering(group), p, c.terms, now, c.key)
                }
                None => OneDispatch::default(),
            };
            match one.shard {
                Some(shard) => c.shards.push(shard),
                None => c.missing += 1,
            }
            hedges += one.hedges;
            cancelled += one.cancelled;
            hedge_work += one.hedge_work;
        }
        c.served += c.shards.len();
        c.late |=
            self.core.gather_deadline.is_some_and(|d| c.shards.iter().any(|s| s.completion > d));
        self.core.counters.hedged.fetch_add(hedges, Ordering::Relaxed);
        self.core.counters.cancelled.fetch_add(cancelled, Ordering::Relaxed);
        self.core.counters.hedge_work_us.fetch_add(hedge_work, Ordering::Relaxed);
    }

    /// Whether a dispatch is settled the moment a replica takes it:
    /// nothing can die, nothing is drawn and no policy hedges a live
    /// replica, so the general path could only draw `ceil(service)`, see
    /// no death, launch no hedge and settle unhedged. Such a dispatch
    /// returns exactly that early (the deadline-∞ property in
    /// `tests/tail_chaos.rs` pins the equality), and its completion stays
    /// out of the per-shard history: it would restate the df model for a
    /// policy (`Never`/`OnDeath`) that never reads it. Both sit on the
    /// coordinator's serial path of every shard task — walking the
    /// general path read behind on `fanout_batch` in 27 of 36 pairs, the
    /// history write by −3.6 %. A gather deadline takes the general path
    /// and keeps its history, as it always has:
    /// [`Self::shard_latency_percentiles`] is public, and readers of a
    /// deadline engine have always found it filled.
    fn plain_completions(&self) -> bool {
        self.core.faults.is_none()
            && self.core.stragglers.is_none()
            && self.core.gather_deadline.is_none()
            && matches!(self.core.policy, HedgePolicy::Never | HedgePolicy::OnDeath)
    }

    /// The drawn service cost of one attempt: the df-based base inflated
    /// by the straggler model, or a plain replica's without one.
    fn drawn_cost(&self, base: f64, p: usize, r: usize, qid: u64) -> SimTime {
        match &self.core.stragglers {
            Some(m) => m.cost(base, p, r, qid),
            None => plain_completion(base),
        }
    }

    fn fails_during(&self, p: usize, r: usize, lo: SimTime, hi: SimTime) -> bool {
        self.core.faults.as_ref().is_some_and(|f| f.fails_during(p, r, lo, hi))
    }

    /// The live percentile trigger for partition `p`, once enough history
    /// has accumulated.
    fn shard_trigger(&self, p: usize, q: f64) -> Option<SimTime> {
        let hist = &self.core.shard_latency[p];
        if hist.count() < MIN_TRIGGER_SAMPLES {
            return None;
        }
        Some((hist.snapshot().percentile(q).ceil() as SimTime).max(1))
    }

    /// Dispatch one query on one **already locked** replica group: pick a
    /// replica (round-robin), draw its service cost, consult the fault
    /// schedule for a mid-query death, and let the [`HedgePolicy`] decide
    /// whether a duplicate request launches on a second replica. Queries
    /// dispatch in query order whatever the batch size, so each group's
    /// round-robin cursor — and each partition's live latency history —
    /// goes through the exact same decision sequence.
    fn dispatch_one(
        &self,
        snap: &PartitionedIndex,
        group: &mut ReplicaGroup,
        p: u32,
        terms: &[TermId],
        now: SimTime,
        qid: u64,
    ) -> OneDispatch {
        let pu = p as usize;
        let Some(first) = group.dispatch(|r| self.replica_up(pu, r, now)) else {
            return OneDispatch::default();
        };
        let service = self.broker.service_time_in(snap, pu, terms);
        if self.plain_completions() {
            let shard = Shard { partition: p, service, completion: plain_completion(service) };
            return OneDispatch { shard: Some(shard), ..OneDispatch::default() };
        }
        let c1 = self.drawn_cost(service, pu, first, qid);
        let dead1 = self.fails_during(pu, first, now, now + c1);
        // When (relative to dispatch) the hedge launches, if at all. A
        // dead first replica never answers, so time-triggered policies
        // fire their timer on it regardless of `c1`.
        let launch = match self.core.policy {
            HedgePolicy::Never => None,
            HedgePolicy::OnDeath => dead1.then_some(c1),
            HedgePolicy::FixedDelay(t) => (dead1 || c1 > t).then_some(t),
            HedgePolicy::PercentileTrigger(q) => match self.shard_trigger(pu, q) {
                Some(t) => (dead1 || c1 > t).then_some(t),
                // Not enough history yet: hedge on death, like the default.
                None => dead1.then_some(c1),
            },
            HedgePolicy::Tied => Some(0),
        };
        let d = Dispatch { p, service, now, qid, first, c1, dead1 };
        let one = self.hedge_or_settle(group, &d, launch);
        // Record the served completion *after* this query's trigger was
        // read: every query observes the history its predecessors left,
        // the same in a batch as in a loop.
        if let Some(shard) = one.shard {
            self.core.shard_latency[pu].record(shard.completion as f64);
        }
        one
    }

    /// Resolve one dispatched attempt against an optional hedge launch:
    /// peek the retry replica, budget-check it at its **own** drawn cost,
    /// then commit the dispatch and settle who serves, who is cancelled,
    /// and what work was burned. A hedge is folded into the completion:
    /// the serving answer is ready when the copy that serves it is.
    fn hedge_or_settle(
        &self,
        group: &mut ReplicaGroup,
        d: &Dispatch,
        launch: Option<SimTime>,
    ) -> OneDispatch {
        let &Dispatch { p, service, now, qid, first, c1, dead1 } = d;
        let pu = p as usize;
        let served_at = |completion| Some(Shard { partition: p, service, completion });
        let unhedged = || OneDispatch {
            shard: if dead1 { None } else { served_at(c1) },
            ..OneDispatch::default()
        };
        let Some(h) = launch else { return unhedged() };
        let Some(second) = group.peek(Some(first), |r| self.replica_up(pu, r, now)) else {
            return unhedged();
        };
        let c2 = self.drawn_cost(service, pu, second, qid);
        // Budget the hedge at the retry replica's own drawn cost from its
        // own launch offset. (Historically this check was `2 * svc <= d`,
        // silently pricing the retry at the *first* replica's cost — under
        // a straggler model the two genuinely diverge.)
        if self.core.deadline.is_some_and(|d| h + c2 > d) {
            return unhedged();
        }
        group.commit(second);
        self.recorder.record(Event::Hedge { qid, now, partition: p, extra_us: c2 as f64 });
        let dead2 = self.fails_during(pu, second, now + h, now + h + c2);
        let hedged = OneDispatch { hedges: 1, ..OneDispatch::default() };
        match (dead1, dead2) {
            (false, false) => {
                // Both copies survive: the faster answer serves, the
                // loser is cancelled, and the work it burned before the
                // cancellation is the hedging overhead.
                let (t1, t2) = (c1, h + c2);
                let hedge_work = if t2 < t1 { t2 } else { t1.saturating_sub(h) };
                OneDispatch { shard: served_at(t1.min(t2)), cancelled: 1, hedge_work, ..hedged }
            }
            (true, false) => OneDispatch { shard: served_at(h + c2), ..hedged },
            // The hedge died mid-flight; the primary answer stands.
            (false, true) => OneDispatch { shard: served_at(c1), hedge_work: c2, ..hedged },
            (true, true) => OneDispatch { hedge_work: c2, ..hedged },
        }
    }

    /// Run cascades to completion, round by round: the dispatched
    /// tranche of every cascade still in flight is evaluated in **one**
    /// broker batch (a single pool enqueue), merged through the broker's
    /// top-k comparator, and a cascade whose merged answer is still
    /// deficient dispatches its next tranche for the following round.
    /// Hedging, deadlines, and stragglers apply per tranche through the
    /// same dispatch pass, which prices every shard (hedges folded into
    /// its completion) before the broker sees it; round latencies are
    /// charged additively.
    fn evaluate<'a, 'q: 'a>(
        &self,
        snap: &PartitionedIndex,
        k: usize,
        now: SimTime,
        cascades: impl Iterator<Item = &'a mut Cascade<'q>>,
    ) {
        let mut in_flight: Vec<&mut Cascade<'q>> = cascades.collect();
        while !in_flight.is_empty() {
            // An entirely-unavailable tranche has nothing to evaluate
            // and merges nothing; the deficiency check broadens past it.
            let batch: Vec<BatchQuery<'_>> = in_flight
                .iter()
                .filter(|c| !c.shards.is_empty())
                .map(|c| BatchQuery {
                    terms: c.terms,
                    k,
                    shards: &c.shards,
                    qid: c.key,
                    deadline: self.core.gather_deadline,
                })
                .collect();
            let mut answers = self.broker.scatter_gather(snap, &batch, now).into_iter();
            in_flight.retain_mut(|c| {
                if !c.shards.is_empty() {
                    let (resp, answered) =
                        answers.next().expect("one answer per evaluated tranche");
                    c.answered += answered;
                    c.latency += resp.latency;
                    c.hits = if c.hits.is_empty() {
                        resp.hits
                    } else {
                        merge_topk(&c.hits, &resp.hits, k)
                    };
                }
                let broaden = c.rounds < c.decision.tranches.len()
                    && self.core.router.as_ref().is_some_and(|r| r.deficient(&c.hits, k));
                if broaden {
                    c.broadenings += 1;
                    self.dispatch_next(snap, now, c);
                }
                broaden
            });
        }
    }

    /// Turn a finished cascade into the engine response: router
    /// accounting, the outcome ladder, cache fill.
    ///
    /// Honest coverage: `Failed` when nothing could be served;
    /// [`Served::Partial`] when the gather deadline cut answers off
    /// (coverage reported exactly, and never cached — a truncated result
    /// must not sit under the full answer's key); `Degraded` when
    /// contacted partitions were unavailable; [`Served::Routed`] when
    /// the router skipped some and every contacted one answered; `Full`
    /// only when every active partition was contacted and answered.
    fn resolve(&self, k: usize, now: SimTime, c: Cascade<'_>) -> EngineResponse {
        let active = c.decision.active;
        if let Some(router) = &self.core.router {
            router.account(c.contacted, active, c.broadenings);
            self.core.counters.broadenings.fetch_add(u64::from(c.broadenings), Ordering::Relaxed);
            self.recorder.record(Event::RouteServed {
                qid: c.key,
                now,
                contacted: c.contacted as u32,
                active: active as u32,
                broadenings: c.broadenings,
                hits: c.hits.len() as u32,
                k: k as u32,
            });
        }
        let served = if c.served == 0 {
            Served::Failed
        } else if c.answered < c.served {
            Served::Partial { partitions_answered: c.answered }
        } else if c.missing > 0 {
            Served::Degraded { missing: c.missing }
        } else if c.contacted < active {
            Served::Routed { partitions_contacted: c.contacted }
        } else {
            Served::Full
        };
        if !matches!(served, Served::Failed | Served::Partial { .. }) {
            self.core.cache.put(c.key, CachedResults { k, hits: c.hits.clone() });
        }
        let latency = (c.served > 0).then_some(c.latency);
        self.respond(c.key, now, c.hits, served, latency)
    }

    /// Count and announce one answer: the single site where outcome
    /// counters move and `Outcome` events are emitted.
    fn respond(
        &self,
        key: u64,
        now: SimTime,
        hits: Vec<GlobalHit>,
        served: Served,
        latency: Option<SimTime>,
    ) -> EngineResponse {
        let n = &self.core.counters;
        let (counter, outcome) = match served {
            Served::CacheHit => (&n.cache_hits, ObsOutcome::CacheHit),
            Served::Full => (&n.full, ObsOutcome::Full),
            Served::Degraded { .. } => (&n.degraded, ObsOutcome::Degraded),
            Served::StaleFromCache => (&n.stale, ObsOutcome::StaleFromCache),
            Served::Failed => (&n.failed, ObsOutcome::Failed),
            Served::Partial { .. } => (&n.partial, ObsOutcome::Partial),
            Served::Routed { .. } => (&n.routed, ObsOutcome::Routed),
            Served::Shed => unreachable!("only the site tier sheds"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(Event::Outcome { qid: key, now, outcome, latency_us: latency });
        EngineResponse { hits, served, latency }
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.core.counters.cache_hits.load(Ordering::Relaxed),
            full: self.core.counters.full.load(Ordering::Relaxed),
            degraded: self.core.counters.degraded.load(Ordering::Relaxed),
            stale: self.core.counters.stale.load(Ordering::Relaxed),
            failed: self.core.counters.failed.load(Ordering::Relaxed),
            hedged: self.core.counters.hedged.load(Ordering::Relaxed),
            cancelled: self.core.counters.cancelled.load(Ordering::Relaxed),
            partial: self.core.counters.partial.load(Ordering::Relaxed),
            routed: self.core.counters.routed.load(Ordering::Relaxed),
            broadenings: self.core.counters.broadenings.load(Ordering::Relaxed),
            hedge_work_us: self.core.counters.hedge_work_us.load(Ordering::Relaxed),
        }
    }

    /// The cache's own counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.core.cache.stats()
    }

    /// The broker, for busy-time inspection.
    pub fn broker(&self) -> &DocBroker<R> {
        &self.broker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LruCache;
    use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
    use dwr_partition::parted::Corpus;

    fn setup() -> PartitionedIndex {
        let corpus: Corpus =
            (0..24u32).map(|d| vec![(TermId(d % 5), 2), (TermId(50 + d % 3), 1)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, 4);
        PartitionedIndex::build(&corpus, &a, 4)
    }

    #[test]
    fn cache_hit_on_repeat() {
        let pi = setup();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2);
        let (r1, s1) = e.query(&[TermId(1)], 5);
        assert_eq!(s1, Served::Full);
        let (r2, s2) = e.query(&[TermId(1)], 5);
        assert_eq!(s2, Served::CacheHit);
        assert_eq!(r1, r2);
        assert_eq!(e.stats().cache_hits, 1);
    }

    /// 120 documents, every one holding term 7: a top-50 answer is 50
    /// hits deep.
    fn wide() -> PartitionedIndex {
        let corpus: Corpus = (0..120u32)
            .map(|d| vec![(TermId(7), 1 + d % 5), (TermId(100 + d % 9), 1 + d % 4)])
            .collect();
        let a = RoundRobinPartitioner.assign(&corpus, 4);
        PartitionedIndex::build(&corpus, &a, 4)
    }

    /// What an engine with an empty cache answers.
    fn fresh(pi: &PartitionedIndex, terms: &[TermId], k: usize) -> Vec<GlobalHit> {
        DistributedEngine::new(pi, LruCache::new(16), 1).query(terms, k).0
    }

    #[test]
    fn a_top_10_entry_does_not_answer_a_top_50_request() {
        let pi = wide();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1);
        let (top10, s) = e.query(&[TermId(7)], 10);
        assert_eq!((top10.len(), s), (10, Served::Full));
        // A miss, evaluated at k = 50 ...
        let (top50, s) = e.query(&[TermId(7)], 50);
        assert_eq!(s, Served::Full);
        assert_eq!(top50, fresh(&pi, &[TermId(7)], 50));
        assert_eq!(top50[..10], top10[..]);
        // ... which refills the entry at the deeper k.
        assert_eq!(e.query(&[TermId(7)], 50), (top50, Served::CacheHit));
        assert_eq!((e.cache_stats().hits, e.cache_stats().misses), (1, 2));
    }

    #[test]
    fn a_top_50_entry_answers_a_top_10_request_with_its_prefix() {
        let pi = wide();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1);
        let (top50, s) = e.query(&[TermId(7)], 50);
        assert_eq!((top50.len(), s), (50, Served::Full));
        let (top10, s) = e.query(&[TermId(7)], 10);
        assert_eq!(s, Served::CacheHit);
        assert_eq!(top10, fresh(&pi, &[TermId(7)], 10));
        assert_eq!(top10[..], top50[..10]);
    }

    #[test]
    fn an_entry_shorter_than_its_k_answers_any_k() {
        let pi = setup();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1);
        // Term 3 is in 5 of the 24 documents: the top 10 is all of them.
        let (all, s) = e.query(&[TermId(3)], 10);
        assert_eq!((all.len(), s), (5, Served::Full));
        assert_eq!(e.query(&[TermId(3)], 50), (all, Served::CacheHit));
    }

    #[test]
    fn query_key_is_order_insensitive() {
        assert_eq!(query_key(&[TermId(1), TermId(2)]), query_key(&[TermId(2), TermId(1)]));
        assert_ne!(query_key(&[TermId(1)]), query_key(&[TermId(2)]));
    }

    fn down(start: SimTime, end: SimTime) -> dwr_avail::failure::DownInterval {
        dwr_avail::failure::DownInterval { start, end }
    }

    /// A schedule of `parts × replicas` pairs over `[0, 100)` with the
    /// `dead` pairs down throughout: at the engine's starting instant
    /// they are down, and no outage begins later.
    fn down_from_start(
        parts: usize,
        replicas: usize,
        dead: &[(usize, usize)],
    ) -> Arc<FaultSchedule> {
        let pair = |p, r| if dead.contains(&(p, r)) { vec![down(0, 100)] } else { vec![] };
        Arc::new(FaultSchedule::from_intervals(
            (0..parts).map(|p| (0..replicas).map(|r| pair(p, r)).collect()).collect(),
            100,
        ))
    }

    #[test]
    fn replica_failover_keeps_full_service() {
        let pi = setup();
        // One replica of partition 0 down.
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2).with_faults(down_from_start(
            4,
            2,
            &[(0, 0)],
        ));
        let (_, s) = e.query(&[TermId(2)], 5);
        assert_eq!(s, Served::Full, "second replica covers");
    }

    #[test]
    fn dead_group_degrades_results() {
        let pi = setup();
        // Partition 0 gone entirely.
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1).with_faults(down_from_start(
            4,
            1,
            &[(0, 0)],
        ));
        let (hits, s) = e.query(&[TermId(2)], 24);
        assert_eq!(s, Served::Degraded { missing: 1 });
        // Documents of partition 0 (globals 0,4,8,...) are absent.
        assert!(hits.iter().all(|h| h.doc % 4 != 0), "{hits:?}");
    }

    #[test]
    fn stale_serving_during_total_outage() {
        let pi = setup();
        // Every partition's only replica is down over the second
        // simulated second, which no query at t = 0 reaches.
        let sec = 1_000_000;
        let schedule =
            FaultSchedule::from_intervals(vec![vec![vec![down(sec, 2 * sec)]]; 4], 3 * sec);
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1).with_faults(Arc::new(schedule));
        let (fresh, _) = e.query(&[TermId(3)], 5); // populate cache
        e.advance_to(sec);
        let (stale, s) = e.query_stale_ok(&[TermId(3)], 5);
        assert_eq!(s, Served::StaleFromCache);
        assert_eq!(stale, fresh);
        // A query never seen before cannot be served at all.
        let (none, s2) = e.query_stale_ok(&[TermId(4)], 5);
        assert_eq!(s2, Served::Failed);
        assert!(none.is_empty());
    }

    #[test]
    fn selection_limits_partitions() {
        let pi = setup();
        let sel = dwr_partition::select::CoriSelector::from_partitions(&pi);
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1).with_selection(Arc::new(sel), 2);
        let (hits, s) = e.query(&[TermId(1)], 24);
        // Honest coverage: 2 of 4 partitions answered, which is routed
        // service, not Full — routing may have lost recall.
        assert_eq!(s, Served::Routed { partitions_contacted: 2 });
        // Only 2 of 4 partitions answered: at most 12 of 24 docs reachable.
        assert!(hits.len() <= 12);
        assert_eq!(e.stats().routed, 1);
        // Routed answers are cached: routing is deterministic.
        let (_, again) = e.query(&[TermId(1)], 24);
        assert_eq!(again, Served::CacheHit);
    }

    #[test]
    fn stats_accumulate() {
        let pi = setup();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1);
        e.query(&[TermId(0)], 5);
        e.query(&[TermId(0)], 5);
        e.query(&[TermId(1)], 5);
        let s = e.stats();
        assert_eq!(s.full, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(e.cache_stats().misses, 2);
    }

    #[test]
    fn query_full_reports_latency_only_for_backend_answers() {
        let pi = setup();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1);
        let first = e.query_full(&[TermId(1)], 5);
        assert_eq!(first.served, Served::Full);
        assert!(first.latency.is_some_and(|l| l > 0));
        let second = e.query_full(&[TermId(1)], 5);
        assert_eq!(second.served, Served::CacheHit);
        assert!(second.latency.is_none());
    }

    #[test]
    fn engine_is_send_sync_and_serves_from_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let pi = setup();
        let e = Arc::new(DistributedEngine::new(&pi, LruCache::new(64), 2));
        assert_send_sync(&*e);
        let baseline = e.query(&[TermId(1)], 5).0;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = Arc::clone(&e);
                let baseline = baseline.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        let (hits, served) = e.query(&[TermId(1)], 5);
                        assert_eq!(hits, baseline);
                        assert!(matches!(served, Served::CacheHit | Served::Full));
                    }
                });
            }
        });
        let s = e.stats();
        assert_eq!(s.cache_hits + s.full, 101);
    }

    #[test]
    fn fault_schedule_drives_replica_state() {
        let pi = setup();
        // Partition 0's only replica is down over the second simulated
        // second (wide enough that queries near it don't graze it
        // mid-flight: service times are a few hundred µs).
        let sec = 1_000_000;
        let schedule = FaultSchedule::from_intervals(
            vec![vec![vec![down(sec, 2 * sec)]], vec![vec![]], vec![vec![]], vec![vec![]]],
            10 * sec,
        );
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1).with_faults(Arc::new(schedule));
        let (_, s) = e.query(&[TermId(2)], 24);
        assert_eq!(s, Served::Full, "up before the outage");
        e.advance_to(sec + sec / 2);
        let (_, s) = e.query(&[TermId(3)], 24);
        assert_eq!(s, Served::Degraded { missing: 1 }, "outage applied");
        e.advance_to(3 * sec);
        let (_, s) = e.query(&[TermId(4)], 24);
        assert_eq!(s, Served::Full, "repair applied");
        assert_eq!(e.now(), 3 * sec);
    }

    /// A 2-partition, 2-replica setting where replica 0 of partition 0
    /// goes down just after dispatch time 0 — i.e. mid-query for any
    /// service time > 1 µs.
    fn setup_mid_query_death() -> (PartitionedIndex, Arc<FaultSchedule>) {
        let corpus: Corpus = (0..24u32).map(|d| vec![(TermId(d % 5), 2)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, 2);
        let pi = PartitionedIndex::build(&corpus, &a, 2);
        let schedule = FaultSchedule::from_intervals(
            vec![vec![vec![down(1, 1_000_000)], vec![]], vec![vec![], vec![]]],
            2_000_000,
        );
        (pi, Arc::new(schedule))
    }

    #[test]
    fn mid_query_death_is_hedged_on_another_replica() {
        let (pi, schedule) = setup_mid_query_death();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2).with_faults(schedule);
        let r = e.query_full(&[TermId(1)], 10);
        assert_eq!(r.served, Served::Full, "the hedge covers the dead replica");
        assert_eq!(e.stats().hedged, 1);
        let counts = e.dispatch_counts();
        assert_eq!(counts[0], vec![1, 1], "first attempt plus hedge on partition 0");
        assert_eq!(counts[1].iter().sum::<u64>(), 1, "partition 1 served in one attempt");
    }

    /// The one latency arithmetic, pinned from public APIs only: the
    /// gather waits for the slowest `completion + rtt`, then merges. A
    /// plain completion is `ceil(service)`; a partition hedged on death
    /// completes when the retry does — the dead attempt's cost plus the
    /// retry's own.
    #[test]
    fn latency_is_slowest_completion_plus_transit_plus_merge() {
        use crate::broker::US_PER_MERGE_HIT;
        use dwr_sim::net::{SiteId, Topology};
        let (pi, schedule) = setup_mid_query_death();
        let terms = [TermId(1)];
        let probe = DocBroker::single_site(&pi);
        let hits = |p: u32| probe.query_selected(&terms, 10, &[p]).hits.len() as u64;
        let plain = |p: usize| probe.service_time(p, &terms).ceil() as SimTime;
        let arrival = |p: u32, completion: SimTime| {
            completion + Topology::single_site().rtt(SiteId(0), SiteId(0), 64, hits(p) * 12)
        };
        let merge = ((hits(0) + hits(1)) as f64 * US_PER_MERGE_HIT) as SimTime;

        let fault_free = DistributedEngine::new(&pi, LruCache::new(16), 2);
        let r = fault_free.query_full(&terms, 10);
        assert_eq!(r.served, Served::Full);
        assert_eq!(r.latency, Some(arrival(0, plain(0)).max(arrival(1, plain(1))) + merge));

        let hedged = DistributedEngine::new(&pi, LruCache::new(16), 2).with_faults(schedule);
        let h = hedged.query_full(&terms, 10);
        assert_eq!((h.served, hedged.stats().hedged), (Served::Full, 1));
        assert_eq!(h.hits, r.hits);
        // No straggler model: c1 = c2 = ceil(service), launched at c1.
        assert_eq!(h.latency, Some(arrival(0, 2 * plain(0)).max(arrival(1, plain(1))) + merge));
    }

    #[test]
    fn hedge_unavailable_degrades_the_partition() {
        let pi = setup();
        // Single replica per partition: a mid-query death has no hedge
        // target, so the partition is dropped as degraded.
        let schedule = FaultSchedule::from_intervals(
            vec![vec![vec![down(1, 1_000_000)]], vec![vec![]], vec![vec![]], vec![vec![]]],
            2_000_000,
        );
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1).with_faults(Arc::new(schedule));
        let (_, s) = e.query(&[TermId(2)], 24);
        assert_eq!(s, Served::Degraded { missing: 1 });
        assert_eq!(e.stats().hedged, 0);
    }

    #[test]
    fn deadline_blocks_the_hedged_retry() {
        let (pi, schedule) = setup_mid_query_death();
        // A 1 µs deadline can never fit attempt + retry: degrade instead.
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(schedule)
            .with_deadline(1);
        let (_, s) = e.query(&[TermId(1)], 10);
        assert_eq!(s, Served::Degraded { missing: 1 });
        assert_eq!(e.stats().hedged, 0, "no retry was dispatched");
        assert_eq!(e.dispatch_counts()[0], vec![1, 0], "replica 1 untouched");
    }

    /// Regression for the check-then-dispatch race: an engine that
    /// decided availability and dispatched at different moments could
    /// count a group that died in between as served. Every evaluated
    /// partition must correspond to exactly one successful dispatch (one
    /// replica per group ⇒ no hedges), an invariant this test checks
    /// while a killer thread moves the clock back and forth across an
    /// outage of replica (0, 0).
    #[test]
    fn full_service_implies_one_dispatch_per_partition() {
        use std::sync::atomic::AtomicBool;
        // A deliberately wide index: with 256 partitions, a query's
        // availability and dispatch decisions are microseconds apart, so
        // the killer thread lands between them even when a timeslice
        // preemption is the only source of interleaving.
        const P: usize = 256;
        let corpus: Corpus = (0..P as u32).map(|d| vec![(TermId(d % 7), 1)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, P);
        let pi = PartitionedIndex::build(&corpus, &a, P);
        // Replica (0, 0) is down over the second simulated second; every
        // query starts a whole second away from the outage's start.
        let sec = 1_000_000;
        let schedule = FaultSchedule::from_intervals(vec![vec![vec![down(sec, 2 * sec)]]], 3 * sec);
        let e = Arc::new(
            DistributedEngine::new(&pi, LruCache::new(4), 1).with_faults(Arc::new(schedule)),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let killer = {
            let e = Arc::clone(&e);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut down = false;
                while !stop.load(Ordering::Relaxed) {
                    e.advance_to(if down { sec + sec / 2 } else { 0 });
                    down = !down;
                }
            })
        };
        let mut evaluated = 0u64;
        for q in 0..5_000u32 {
            // Distinct single-term queries: the cache never answers.
            let (_, served) = e.query(&[TermId(1_000 + q)], 5);
            evaluated += match served {
                Served::Full => P as u64,
                Served::Degraded { missing } => (P - missing) as u64,
                Served::Failed => 0,
                Served::CacheHit
                | Served::StaleFromCache
                | Served::Shed
                | Served::Partial { .. }
                | Served::Routed { .. } => {
                    unreachable!("distinct cold queries on a single-site engine")
                }
            };
        }
        stop.store(true, Ordering::Relaxed);
        killer.join().expect("killer thread");
        let dispatched: u64 = e.dispatch_counts().iter().flatten().sum();
        assert_eq!(
            dispatched, evaluated,
            "every partition counted as served must have had a successful dispatch"
        );
    }

    /// Regression for the hedge-budget bug: the deadline check used
    /// `2 * svc <= d`, pricing the retry at the *first* replica's cost.
    /// With a straggler model the replicas diverge, and the budget must
    /// charge the retry replica's own drawn cost — in both directions.
    #[test]
    fn hedge_budget_charges_the_retry_replicas_own_cost() {
        use crate::straggler::StragglerModel;
        let (pi, schedule) = setup_mid_query_death();
        let svc = {
            let probe = DistributedEngine::new(&pi, LruCache::new(16), 2);
            probe.broker().service_time(0, &[TermId(1)]).ceil() as SimTime
        };
        // Direction 1: first replica cheap (c1 = svc), retry replica 3×
        // slower. Old budget 2·c1 = 2svc fits d = 3svc and would hedge;
        // the honest budget c1 + c2 = 4svc does not, so the partition
        // degrades with no retry dispatched.
        let slow_retry = Arc::new(StragglerModel::fixed(vec![vec![1.0, 3.0], vec![1.0, 1.0]]));
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(Arc::clone(&schedule))
            .with_deadline(3 * svc)
            .with_stragglers(slow_retry);
        let r = e.query_full(&[TermId(1)], 10);
        assert_eq!(r.served, Served::Degraded { missing: 1 });
        assert_eq!(e.stats().hedged, 0, "over-budget retry must not be dispatched");
        assert_eq!(e.dispatch_counts()[0], vec![1, 0], "retry replica untouched");
        // Direction 2: first replica 2× slow, retry replica 2× fast. The
        // old budget 2·c1 = 4svc exceeds d = 3svc and would refuse; the
        // honest budget c1 + c2 = 2svc + ceil(svc/2) fits, so the hedge
        // serves the partition.
        let fast_retry = Arc::new(StragglerModel::fixed(vec![vec![2.0, 0.5], vec![1.0, 1.0]]));
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(schedule)
            .with_deadline(3 * svc)
            .with_stragglers(fast_retry);
        let r = e.query_full(&[TermId(1)], 10);
        assert_eq!(r.served, Served::Full, "affordable retry covers the dead replica");
        assert_eq!(e.stats().hedged, 1);
        assert_eq!(e.dispatch_counts()[0], vec![1, 1]);
    }

    #[test]
    fn explicit_on_death_policy_is_identical_to_the_default() {
        let (pi, schedule) = setup_mid_query_death();
        let default =
            DistributedEngine::new(&pi, LruCache::new(16), 2).with_faults(Arc::clone(&schedule));
        let explicit = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(schedule)
            .with_hedge_policy(HedgePolicy::OnDeath);
        for q in 0..10u32 {
            let terms = [TermId(q % 5)];
            let a = default.query_full(&terms, 10);
            let b = explicit.query_full(&terms, 10);
            assert_eq!(a.hits, b.hits, "query {q}");
            assert_eq!(a.served, b.served, "query {q}");
            assert_eq!(a.latency, b.latency, "query {q}");
        }
        assert_eq!(default.stats(), explicit.stats());
        assert_eq!(default.dispatch_counts(), explicit.dispatch_counts());
    }

    #[test]
    fn never_policy_drops_dead_partition_without_hedge() {
        let (pi, schedule) = setup_mid_query_death();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_faults(schedule)
            .with_hedge_policy(HedgePolicy::Never);
        let (_, s) = e.query(&[TermId(1)], 10);
        assert_eq!(s, Served::Degraded { missing: 1 });
        assert_eq!(e.stats().hedged, 0);
        assert_eq!(e.dispatch_counts()[0], vec![1, 0], "no retry dispatched");
    }

    #[test]
    fn tied_requests_cancel_the_loser_and_cut_the_tail() {
        use crate::straggler::StragglerModel;
        let pi = {
            let corpus: Corpus = (0..24u32).map(|d| vec![(TermId(d % 5), 2)]).collect();
            let a = RoundRobinPartitioner.assign(&corpus, 2);
            PartitionedIndex::build(&corpus, &a, 2)
        };
        // Replica 0 of partition 0 is 5× slow; its twin is nominal.
        let model = Arc::new(StragglerModel::fixed(vec![vec![5.0, 1.0], vec![1.0, 1.0]]));
        let tied = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_stragglers(Arc::clone(&model))
            .with_hedge_policy(HedgePolicy::Tied);
        let never = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_stragglers(model)
            .with_hedge_policy(HedgePolicy::Never);
        let t = tied.query_full(&[TermId(1)], 10);
        let n = never.query_full(&[TermId(1)], 10);
        assert_eq!(t.served, Served::Full);
        assert_eq!(t.hits, n.hits, "policy changes latency, never results");
        assert!(
            t.latency.unwrap() < n.latency.unwrap(),
            "tied {} must beat the straggler {}",
            t.latency.unwrap(),
            n.latency.unwrap()
        );
        let s = tied.stats();
        assert_eq!(s.hedged, 2, "every partition launched its twin");
        assert_eq!(s.cancelled, 2, "both losers cancelled");
        assert!(s.hedge_work_us > 0, "cancelled work is accounted");
        assert_eq!(never.stats().hedged, 0);
    }

    #[test]
    fn fixed_delay_hedges_only_actual_stragglers() {
        use crate::straggler::StragglerModel;
        let pi = setup();
        let svc = {
            let probe = DistributedEngine::new(&pi, LruCache::new(16), 2);
            probe.broker().service_time(0, &[TermId(1)]).ceil() as SimTime
        };
        // Only partition 0's first replica straggles (4×).
        let model = Arc::new(StragglerModel::fixed(vec![
            vec![4.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
        ]));
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2)
            .with_stragglers(model)
            .with_hedge_policy(HedgePolicy::FixedDelay(2 * svc));
        let r = e.query_full(&[TermId(1)], 10);
        assert_eq!(r.served, Served::Full);
        let s = e.stats();
        assert_eq!(s.hedged, 1, "only the straggling partition hedges");
        assert_eq!(s.cancelled, 1, "the slow original is cancelled");
        assert_eq!(e.dispatch_counts()[0], vec![1, 1]);
    }

    #[test]
    fn percentile_trigger_engages_after_live_history_accumulates() {
        use crate::straggler::StragglerModel;
        // One partition, two replicas: replica 0 is 8× slow, so the
        // round-robin alternates slow-first and fast-first queries.
        let corpus: Corpus = (0..24u32).map(|d| vec![(TermId(d % 12), 2)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, 1);
        let pi = PartitionedIndex::build(&corpus, &a, 1);
        let model = Arc::new(StragglerModel::fixed(vec![vec![8.0, 1.0]]));
        let e = DistributedEngine::new(&pi, LruCache::new(64), 2)
            .with_stragglers(model)
            .with_hedge_policy(HedgePolicy::PercentileTrigger(25.0));
        // Warmup: below MIN_TRIGGER_SAMPLES the policy falls back to
        // hedge-on-death, and nothing dies here.
        for q in 0..MIN_TRIGGER_SAMPLES as u32 {
            e.query(&[TermId(q % 12), TermId(100 + q)], 5);
        }
        assert_eq!(e.stats().hedged, 0, "no trigger before history accumulates");
        // With history in place, the p25 trigger sits near the fast
        // replica's completion: slow-first queries now hedge onto the
        // fast twin and cancel the straggler.
        for q in 0..10u32 {
            e.query(&[TermId(q % 12), TermId(200 + q)], 5);
        }
        let s = e.stats();
        assert!(s.hedged >= 5, "slow-first queries hedge: {s:?}");
        assert_eq!(s.cancelled, s.hedged, "no deaths: every hedge cancels a loser");
    }

    #[test]
    fn gather_deadline_returns_partial_with_exact_coverage() {
        use crate::straggler::StragglerModel;
        let pi = setup();
        // Partitions 1 and 3 straggle 50×; the deadline admits only the
        // nominal ones.
        let model =
            Arc::new(StragglerModel::fixed(vec![vec![1.0], vec![50.0], vec![1.0], vec![50.0]]));
        let deadline = 2 * {
            let probe = DistributedEngine::new(&pi, LruCache::new(16), 1);
            (0..4)
                .map(|p| probe.broker().service_time(p, &[TermId(2)]).ceil() as SimTime)
                .max()
                .unwrap()
        };
        let e = DistributedEngine::new(&pi, LruCache::new(16), 1)
            .with_stragglers(model)
            .with_gather_deadline(deadline);
        let r = e.query_full(&[TermId(2)], 24);
        assert_eq!(r.served, Served::Partial { partitions_answered: 2 });
        assert!(r.latency.unwrap() >= deadline, "partial responses release at the deadline");
        // Round-robin: doc % 4 names the partition; stragglers' docs are
        // absent from the merge.
        assert!(r.hits.iter().all(|h| h.doc % 4 == 0 || h.doc % 4 == 2), "{:?}", r.hits);
        assert!(!r.hits.is_empty());
        assert_eq!(e.stats().partial, 1);
        // Partial results are never cached: the same query evaluates
        // again rather than serving the truncated answer as a hit.
        let again = e.query_full(&[TermId(2)], 24);
        assert_eq!(again.served, Served::Partial { partitions_answered: 2 });
        assert_eq!(e.stats().partial, 2);
        assert_eq!(e.stats().cache_hits, 0);
    }

    /// An LRU whose `get` panics on one key: a client thread dies while
    /// holding the cache lock, and the engine must keep serving
    /// every other client.
    struct BombCache {
        inner: LruCache,
        bomb: u64,
    }

    impl crate::cache::ResultCache for BombCache {
        fn get(&mut self, key: u64, k: usize) -> Option<&crate::cache::CachedResults> {
            assert_ne!(key, self.bomb, "boom");
            self.inner.get(key, k)
        }
        fn put(&mut self, key: u64, value: crate::cache::CachedResults) {
            self.inner.put(key, value);
        }
        fn stats(&self) -> crate::cache::CacheStats {
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
    fn panicked_client_does_not_wedge_other_threads() {
        let pi = setup();
        let bomb = query_key(&[TermId(42)]);
        let e =
            Arc::new(DistributedEngine::new(&pi, BombCache { inner: LruCache::new(16), bomb }, 2));
        let baseline = e.query(&[TermId(1)], 5).0;
        let poisoner = Arc::clone(&e);
        std::thread::spawn(move || poisoner.query(&[TermId(42)], 5))
            .join()
            .expect_err("the bomb query panics its client");
        // Other clients keep hitting the same (now-recovered) shard and
        // the replica groups.
        std::thread::scope(|s| {
            for _ in 0..3 {
                let e = Arc::clone(&e);
                let baseline = baseline.clone();
                s.spawn(move || {
                    let (hits, served) = e.query(&[TermId(1)], 5);
                    assert_eq!(hits, baseline);
                    assert!(matches!(served, Served::CacheHit | Served::Full));
                    // A miss takes every replica group's lock.
                    let (_, cold) = e.query(&[TermId(2)], 5);
                    assert!(matches!(cold, Served::CacheHit | Served::Full));
                });
            }
        });
    }

    /// Batch ≡ loop on the engine: responses and every counter agree,
    /// including duplicate queries inside one batch (answered from the
    /// cache exactly as the loop form answers them) and repeat batches
    /// (all cache hits).
    #[test]
    fn engine_batch_matches_query_at_a_time_loop() {
        let pi = setup();
        let looped = DistributedEngine::new(&pi, LruCache::new(64), 2);
        let batched = DistributedEngine::new(&pi, LruCache::new(64), 2);
        // 20 queries over 10 distinct keys: every key appears twice, so
        // the batch exercises the in-flight duplicate path.
        let queries: Vec<Vec<TermId>> =
            (0..20u32).map(|q| vec![TermId(q % 5), TermId(50 + (q / 5) % 2)]).collect();
        let a: Vec<EngineResponse> = queries.iter().map(|t| looped.query_full(t, 5)).collect();
        let b = batched.query_batch(&queries, 5);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.hits, y.hits, "query {i}");
            assert_eq!(x.served, y.served, "query {i}");
            assert_eq!(x.latency, y.latency, "query {i}");
        }
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.cache_stats().hits, batched.cache_stats().hits);
        assert_eq!(looped.cache_stats().misses, batched.cache_stats().misses);
        assert_eq!(looped.dispatch_counts(), batched.dispatch_counts());
        assert_eq!(looped.broker().busy_time(), batched.broker().busy_time());
        assert_eq!(looped.broker().eval_stats(), batched.broker().eval_stats());
        // A second identical batch is answered entirely from the cache.
        let again = batched.query_batch(&queries, 5);
        assert!(again.iter().all(|r| r.served == Served::CacheHit));
    }

    /// A recorder that keeps the event stream itself, in emission order.
    #[derive(Debug, Default)]
    struct Tape(Mutex<Vec<Event>>);

    impl Recorder for Tape {
        fn record(&self, event: Event) {
            lock_recovering(&self.0).push(event);
        }
    }

    /// Query-at-a-time *is* a batch of one: a one-query `query_batch`
    /// emits the very event sequence `query_full` does — not merely the
    /// same multiset — on the plain, the broadening-routed and the
    /// hedging drawn-completion engine, through misses, hits and `k = 0`.
    #[test]
    fn one_query_batch_emits_the_query_full_event_sequence() {
        let pi = setup();
        let model = Arc::new(StragglerModel::fixed(vec![vec![4.0, 1.0]; 4]));
        type Build<'a> = Box<dyn Fn() -> DistributedEngine<LruCache> + 'a>;
        let builds: [Build<'_>; 3] = [
            Box::new(|| DistributedEngine::new(&pi, LruCache::new(16), 2)),
            Box::new(|| {
                DistributedEngine::new(&pi, LruCache::new(16), 2)
                    .with_router(Arc::new(ShardRouter::cori(1)))
            }),
            Box::new(|| {
                DistributedEngine::new(&pi, LruCache::new(16), 2)
                    .with_stragglers(Arc::clone(&model))
                    .with_hedge_policy(HedgePolicy::Tied)
                    .with_gather_deadline(10_000)
            }),
        ];
        for (config, build) in builds.iter().enumerate() {
            let (loop_tape, batch_tape) = (Arc::new(Tape::default()), Arc::new(Tape::default()));
            let looped = build().with_obs(Arc::clone(&loop_tape));
            let batched = build().with_obs(Arc::clone(&batch_tape));
            for (q, k) in [(1u32, 30), (1, 30), (2, 0), (3, 5), (1, 30)] {
                let terms = vec![TermId(q), TermId(50 + q % 3)];
                let a = looped.query_full(&terms, k);
                let b = batched.query_batch(std::slice::from_ref(&terms), k).remove(0);
                assert_eq!((a.hits, a.served, a.latency), (b.hits, b.served, b.latency));
            }
            let (a, b) = (lock_recovering(&loop_tape.0), lock_recovering(&batch_tape.0));
            assert!(a.iter().any(|e| matches!(e, Event::GatherDone { .. })), "config {config}");
            assert_eq!(*a, *b, "config {config}");
        }
    }

    #[test]
    fn engine_batch_matches_loop_under_faults_and_selection() {
        let pi = setup();
        let sec = 1_000_000;
        let schedule = Arc::new(FaultSchedule::from_intervals(
            vec![vec![vec![down(1, sec)]], vec![vec![]], vec![vec![]], vec![vec![]]],
            2 * sec,
        ));
        let sel = Arc::new(dwr_partition::select::CoriSelector::from_partitions(&pi));
        let mk = || {
            DistributedEngine::new(&pi, LruCache::new(64), 1)
                .with_selection(Arc::clone(&sel) as _, 3)
                .with_faults(Arc::clone(&schedule))
        };
        let (looped, batched) = (mk(), mk());
        let queries: Vec<Vec<TermId>> = (0..12u32).map(|q| vec![TermId(q % 5)]).collect();
        let a: Vec<EngineResponse> = queries.iter().map(|t| looped.query_full(t, 8)).collect();
        let b = batched.query_batch(&queries, 8);
        assert!(a.iter().any(|r| matches!(r.served, Served::Degraded { .. })));
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.hits, y.hits, "query {i}");
            assert_eq!(x.served, y.served, "query {i}");
            assert_eq!(x.latency, y.latency, "query {i}");
        }
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.dispatch_counts(), batched.dispatch_counts());
    }

    #[test]
    fn engine_strategy_is_transparent_to_responses_and_work() {
        let pi = setup();
        let ex = DistributedEngine::new(&pi, LruCache::new(64), 2)
            .with_strategy(EvalStrategy::Exhaustive);
        let dense =
            DistributedEngine::new(&pi, LruCache::new(64), 2).with_strategy(EvalStrategy::Dense);
        for q in 0..20u32 {
            let terms = [TermId(q % 5), TermId(50 + q % 3)];
            let a = ex.query_full(&terms, 10);
            let b = dense.query_full(&terms, 10);
            assert_eq!(a.hits, b.hits, "query {q}");
            assert_eq!(a.served, b.served, "query {q}");
            assert_eq!(a.latency, b.latency, "query {q}");
        }
        assert_eq!(ex.stats(), dense.stats());
        assert_eq!(ex.broker().eval_stats(), dense.broker().eval_stats());
    }

    #[test]
    fn parallel_engine_matches_sequential_engine() {
        let pi = setup();
        let seq = DistributedEngine::new(&pi, LruCache::new(16), 2);
        let par = DistributedEngine::new(&pi, LruCache::new(16), 2).with_parallelism(4);
        assert!(par.is_parallel());
        for q in 0..20u32 {
            let terms = [TermId(q % 5), TermId(50 + q % 3)];
            let a = seq.query_full(&terms, 10);
            let b = par.query_full(&terms, 10);
            assert_eq!(a.hits, b.hits, "query {q}");
            assert_eq!(a.served, b.served, "query {q}");
            assert_eq!(a.latency, b.latency, "query {q}");
        }
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn k_zero_serves_empty_and_full_on_every_path() {
        let pi = setup();
        let e = DistributedEngine::new(&pi, LruCache::new(16), 2);
        let r = e.query_full(&[TermId(1)], 0);
        assert!(r.hits.is_empty());
        assert_eq!(r.served, Served::Full);
        assert_eq!(r.latency, Some(0));
        // Timed path: the deadline gather must not report Partial.
        let timed = DistributedEngine::new(&pi, LruCache::new(16), 2).with_gather_deadline(1);
        let rt = timed.query_full(&[TermId(1)], 0);
        assert_eq!(rt.served, Served::Full);
        // Batch ≡ loop.
        let batch = e.query_batch(&[vec![TermId(2)], vec![TermId(3)]], 0);
        assert!(batch.iter().all(|r| r.hits.is_empty() && r.served == Served::Full));
        assert_eq!(e.stats().full, 3);
    }

    fn live_setup(parts: u32, capacity: usize) -> Arc<dwr_partition::repart::RepartIndex> {
        let corpus: Corpus =
            (0..24u32).map(|d| vec![(TermId(d % 5), 2), (TermId(50 + d % 3), 1)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, parts as usize);
        Arc::new(dwr_partition::repart::RepartIndex::build(corpus, &a, parts as usize, capacity))
    }

    #[test]
    fn live_engine_fires_scheduled_splits_exactly_once() {
        use dwr_partition::repart::{SplitEvent, SplitFate, SplitSchedule};
        let repart = live_setup(2, 8);
        let schedule = SplitSchedule::from_events(
            vec![
                SplitEvent { at: 10, fate: SplitFate::Commit },
                SplitEvent { at: 20, fate: SplitFate::CrashBeforePublish },
                SplitEvent { at: 30, fate: SplitFate::CrashAfterPublish },
            ],
            100,
        );
        let e = DistributedEngine::new_live(&repart, LruCache::new(16), 2)
            .with_splits(Arc::new(schedule));
        assert_eq!(repart.epoch(), 0);
        e.advance_to(15);
        e.advance_to(15); // idempotent: the cursor already passed t=10
        assert_eq!(repart.epoch(), 1, "commit fired once");
        e.advance_to(25);
        assert_eq!(repart.epoch(), 1, "crash-before-publish aborted");
        e.advance_to(99);
        assert_eq!(repart.epoch(), 2, "crash-after-publish rolled forward");
        let stats = repart.repart_stats();
        assert_eq!(stats.splits_committed, 2);
        assert_eq!(stats.splits_aborted, 1);
        repart.validate().expect("map never torn");
    }

    /// A split at t = 10 on `live_setup(2, 8)` under a schedule of
    /// `sched_replicas` per slot with every slot's replica 0 down from the
    /// start, and how a query at that instant is served.
    fn split_under_replica_0_outage(
        replicas: usize,
        sched_replicas: usize,
    ) -> (Arc<dwr_partition::repart::RepartIndex>, Served) {
        use dwr_partition::repart::{SplitEvent, SplitFate, SplitSchedule};
        let repart = live_setup(2, 8);
        let splits =
            SplitSchedule::from_events(vec![SplitEvent { at: 10, fate: SplitFate::Commit }], 100);
        let replica_0: Vec<_> = (0..8).map(|p| (p, 0)).collect();
        let e = DistributedEngine::new_live(&repart, LruCache::new(16), replicas)
            .with_faults(down_from_start(8, sched_replicas, &replica_0))
            .with_splits(Arc::new(splits));
        e.advance_to(10);
        let served = e.query_full(&[TermId(1)], 5).served;
        (repart, served)
    }

    /// The split's builder and dispatch read one liveness rule over the
    /// group's replicas: replica 1, outside a schedule that covers only
    /// replica 0, is up, so it serves and the split commits.
    #[test]
    fn a_split_commits_while_a_replica_outside_the_schedule_serves() {
        let (repart, served) = split_under_replica_0_outage(2, 1);
        assert_eq!(served, Served::Full, "replica 1 serves every partition");
        let stats = repart.repart_stats();
        assert_eq!((stats.splits_committed, stats.splits_aborted), (1, 0));
    }

    /// A schedule's replica 1 is not a replica of a one-replica group:
    /// with the group's only replica down, nothing serves and the split
    /// aborts.
    #[test]
    fn a_split_aborts_when_only_a_replica_outside_the_group_is_up() {
        let (repart, served) = split_under_replica_0_outage(1, 2);
        assert_eq!(served, Served::Failed, "no replica of the group is up");
        let stats = repart.repart_stats();
        assert_eq!((stats.splits_committed, stats.splits_aborted), (0, 1));
    }

    #[test]
    fn live_engine_serves_identically_across_a_split() {
        let repart = live_setup(2, 8);
        let e = DistributedEngine::new_live(&repart, LruCache::new(1), 2);
        let terms = [TermId(1), TermId(51)];
        let before = e.query_full(&terms, 24);
        assert_eq!(before.served, Served::Full);
        repart.split(0, dwr_partition::repart::SplitFate::Commit).unwrap();
        // Evict the cached entry so the post-split query re-evaluates
        // against the new epoch's snapshot.
        e.query_full(&[TermId(2)], 1);
        let after = e.query_full(&terms, 24);
        assert_eq!(after.served, Served::Full);
        assert_eq!(before.hits, after.hits, "split-invariant scoring: same docs, same scores");
    }

    #[test]
    #[should_panic(expected = "static partition layout")]
    fn selection_rejects_live_index() {
        let repart = live_setup(2, 8);
        let sel = dwr_partition::select::CoriSelector::from_partitions(&repart.snapshot());
        let _ = DistributedEngine::new_live(&repart, LruCache::new(16), 1)
            .with_selection(Arc::new(sel), 1);
    }

    /// An index with no room to split is a fixed layout, whichever
    /// constructor served it: selection accepts it and answers exactly as
    /// over the same layout with the same corpus-wide statistics.
    #[test]
    fn selection_accepts_an_index_with_no_room_to_split() {
        let repart = live_setup(4, 4);
        let pi = repart.snapshot();
        let sel: Arc<dyn CollectionSelector + Send + Sync> =
            Arc::new(dwr_partition::select::CoriSelector::from_partitions(&pi));
        let live = DistributedEngine::new_live(&repart, LruCache::new(16), 2)
            .with_selection(Arc::clone(&sel), 2);
        let fixed = DistributedEngine::assemble(
            DocBroker::single_site(&pi).with_global_stats(repart.corpus_stats()),
            LruCache::new(16),
            2,
        )
        .with_selection(sel, 2);
        for q in 0..40u32 {
            let terms = [TermId(q % 5), TermId(50 + q % 3)];
            let (a, b) = (live.query_full(&terms, 5), fixed.query_full(&terms, 5));
            assert_eq!((a.hits, a.served, a.latency), (b.hits, b.served, b.latency), "query {q}");
        }
        assert_eq!(live.stats(), fixed.stats());
        assert_eq!(live.broker().busy_time(), fixed.broker().busy_time());
        assert_eq!(live.dispatch_counts(), fixed.dispatch_counts());
    }

    #[test]
    #[should_panic(expected = "require a live index")]
    fn splits_require_live_index() {
        let pi = setup();
        let schedule = dwr_partition::repart::SplitSchedule::generate(1, 100, 7);
        let _ = DistributedEngine::new(&pi, LruCache::new(16), 1).with_splits(Arc::new(schedule));
    }
}
