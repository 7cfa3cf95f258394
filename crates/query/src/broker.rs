//! Document-partitioned scatter-gather evaluation.
//!
//! "In the case of a document partitioned system, query processors send
//! the query results to the coordinator, which merges and detects the top
//! ranked results (...) the response time in a document partitioned system
//! depends on the response time of its slowest component" (Section 5).
//!
//! The broker scatter-gathers over a [`PartitionedIndex`], optionally
//! restricted to the top-`m` partitions of a collection selector, and
//! accounts per-server *busy time* — the quantity Figure 2 plots.
//!
//! # Concurrency
//!
//! The broker is an immutable core plus atomic counters: it owns a cheap
//! clone of the `Arc`-sharded index, every query method takes `&self`,
//! and the whole type is `Send + Sync`, so any number of threads can
//! serve queries through one shared broker.
//!
//! A `(query, partition)` shard task has one evaluation path,
//! `ShardEval::task`. Without a pool the coordinating thread calls it
//! in a plain loop, borrowing the query's terms. With a [`ScatterPool`]
//! the batch is described **once** as a `ShardPlan` — one snapshot
//! clone, one `Arc<[TermId]>` per query, a flat `(query, partition)`
//! task list — handed to the pool in a single enqueue; a task is then
//! just an index into that plan, claimed and run by a pool worker (never
//! by the coordinator, which parks until the last result lands in its
//! slot). Either way results are indexed by task and feed the same
//! gather loop, which walks partitions **in partition order** — so
//! merged hits, busy-time accounting, and the simulated latency model
//! are bit-for-bit identical whoever evaluated the shards.
//!
//! # Live (splittable) indexes
//!
//! A broker built with [`DocBroker::live`] serves a
//! [`RepartIndex`] that may split partitions while queries are in
//! flight. Every query takes **one** epoch-consistent snapshot at
//! admission and threads it through scatter and gather, so a query
//! racing a split sees either the parent epoch or the child epoch in
//! full — never a mixture — and therefore answers every document
//! exactly once. Scoring uses the corpus-wide [`CorpusStats`] (splits
//! never change the corpus), making results bit-identical to a static
//! oracle at any epoch. Accounting slots (`busy`, `part_sites`) are
//! provisioned to the repart *capacity* up front, so the fixed-width
//! atomic ledgers survive any number of splits.

use crate::scatter::{task_label, IndexedTasks, ScatterPool};
use dwr_obs::{Event, NoopRecorder, Recorder};
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::repart::{CorpusStats, RepartIndex};
use dwr_partition::select::CollectionSelector;
use dwr_sim::net::{SiteId, Topology};
use dwr_sim::SimTime;
use dwr_text::score::Bm25;
use dwr_text::search::{search_or_with, EvalStats, EvalStrategy};
use dwr_text::topk::TopK;
use dwr_text::TermId;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost of scanning one posting, in µs (the CPU/disk work unit).
pub const US_PER_POSTING: f64 = 0.5;
/// Fixed per-query overhead on a query processor, in µs.
pub const US_PER_QUERY_FIXED: f64 = 200.0;
/// Broker-side merge cost per received hit, in µs.
pub const US_PER_MERGE_HIT: f64 = 1.0;

/// One globally-identified result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalHit {
    /// Global document id.
    pub doc: u32,
    /// BM25 score (local statistics).
    pub score: f32,
}

/// Outcome of one brokered query.
#[derive(Debug, Clone)]
pub struct BrokeredResponse {
    /// Merged top-k, best first.
    pub hits: Vec<GlobalHit>,
    /// Partitions actually queried.
    pub partitions_used: usize,
    /// Response latency: slowest merged partition (shard-side completion
    /// + round trip) plus merge time.
    pub latency: SimTime,
}

/// One served `(query, partition)`, priced **once** at dispatch: what
/// the partition server is charged and when its answer is ready.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shard {
    /// The partition queried.
    pub partition: u32,
    /// df-based service time, µs ([`DocBroker::service_time_in`]): the
    /// busy time charged to the server, whoever ends up answering.
    pub service: f64,
    /// Shard-side completion, µs after dispatch: [`plain_completion`] of
    /// `service` on a plain replica; on an engine the serving replica's
    /// drawn cost under a straggler model, shortened or lengthened by a
    /// hedge.
    pub completion: SimTime,
}

/// When a plain replica — no straggler draw, no hedge — answers: its
/// service time, rounded up onto the whole-µs simulated clock.
pub(crate) fn plain_completion(service: f64) -> SimTime {
    service.ceil() as SimTime
}

/// One query of a broker batch ([`DocBroker::scatter_gather`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchQuery<'a> {
    /// Query terms (bag-of-words; duplicates collapse to a set inside
    /// the evaluator).
    pub terms: &'a [TermId],
    /// Result depth.
    pub k: usize,
    /// Partitions to scatter over, priced.
    pub shards: &'a [Shard],
    /// Query key for observability events (0 when nobody listens).
    pub qid: u64,
    /// Response deadline; `None` waits for every shard (a deadline of
    /// ∞). Shards whose completion exceeds it are excluded from the
    /// merge (the partial-results policy of tail-tolerant search): their
    /// busy time and scan work are still charged (the server did the
    /// work; its answer just arrived too late), but their hits never
    /// reach the top-k and the response reports how many partitions made
    /// the cut. The deadline gates on shard-side completion; the transit
    /// of the included responses still counts toward latency.
    pub deadline: Option<SimTime>,
}

/// The document-partition broker: an immutable shared core (index,
/// topology, scoring parameters) plus atomic accounting. `Send + Sync`;
/// all query methods take `&self`.
///
/// Generic over an observability [`Recorder`]; the default
/// [`NoopRecorder`] is a zero-sized type whose events compile away, so
/// uninstrumented brokers are exactly the pre-instrumentation code.
#[derive(Debug)]
pub struct DocBroker<R: Recorder = NoopRecorder> {
    core: BrokerCore,
    /// Observability sink; all events are emitted from the coordinating
    /// thread in deterministic order.
    recorder: R,
}

/// Everything of a [`DocBroker`] that does not depend on its recorder's
/// type, so swapping recorders moves it whole.
#[derive(Debug)]
struct BrokerCore {
    /// The static index (epoch-0 snapshot for live brokers; query paths
    /// on a live broker always re-snapshot from `live`).
    index: PartitionedIndex,
    /// The live, splittable index, when this broker serves one.
    live: Option<Arc<RepartIndex>>,
    topo: Topology,
    broker_site: SiteId,
    /// Site of each partition server.
    part_sites: Vec<SiteId>,
    /// How a shard task is evaluated: scoring parameters, evaluator
    /// strategy, corpus-wide statistics when set.
    shard_eval: ShardEval,
    /// Accumulated busy time per partition server, µs (f64 bits in an
    /// atomic cell).
    busy: Vec<AtomicU64>,
    /// Queries processed.
    queries: AtomicU64,
    /// Measured evaluator work, aggregated over all shards and queries.
    scan: ScanCounters,
    /// When set, shards are evaluated concurrently on this pool.
    pool: Option<Arc<ScatterPool>>,
}

/// Atomic mirror of [`EvalStats`]: the broker's measured evaluator work
/// (distinct from the df-based *simulated* service-time model, which is
/// identical across strategies by design — see [`DocBroker::service_time`]).
#[derive(Debug, Default)]
struct ScanCounters {
    postings_scanned: AtomicU64,
    blocks_decoded: AtomicU64,
}

impl ScanCounters {
    fn add(&self, ev: &EvalStats) {
        self.postings_scanned.fetch_add(ev.postings_scanned, Ordering::Relaxed);
        self.blocks_decoded.fetch_add(ev.blocks_decoded, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EvalStats {
        EvalStats {
            postings_scanned: self.postings_scanned.load(Ordering::Relaxed),
            blocks_decoded: self.blocks_decoded.load(Ordering::Relaxed),
            ..EvalStats::default()
        }
    }
}

/// Map every `(query, partition)` task of a sanitized batch — `tasks` of
/// them — in gather order: queries in batch order, each query's
/// partitions in list order.
fn per_task<T>(
    tasks: usize,
    sane: &[Cow<'_, [Shard]>],
    mut f: impl FnMut(usize, u32) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(tasks);
    for (q, shards) in sane.iter().enumerate() {
        out.extend(shards.iter().map(|s| f(q, s.partition)));
    }
    out
}

/// Per-shard evaluation output: local top-k mapped to global doc ids,
/// plus the work counters the evaluator accumulated.
type ShardResult = (Vec<(u32, f32)>, EvalStats);

/// What every shard task of a broker shares: cheap to clone into a pool
/// batch, so the pooled and the inline scatter run the same
/// [`Self::task`].
#[derive(Debug, Clone, Default)]
struct ShardEval {
    bm25: Bm25,
    /// Which ranked evaluator shards run ([`EvalStrategy::Dense`] by
    /// default; both strategies return bit-identical hits).
    strategy: EvalStrategy,
    /// Corpus-wide scoring statistics. Set on live brokers (scores must
    /// be invariant across epochs) and on static oracles built to match
    /// them ([`DocBroker::with_global_stats`]); `None` scores with local
    /// per-shard statistics, the classic one-round protocol.
    global_stats: Option<Arc<CorpusStats>>,
}

impl ShardEval {
    /// Evaluate one `(query, partition)` task — the single evaluation
    /// path, whoever calls it: partition `p`'s local top-k, mapped to
    /// global doc ids, plus the work counters the evaluator accumulated.
    fn task(&self, snap: &PartitionedIndex, terms: &[TermId], k: usize, p: u32) -> ShardResult {
        let shard = &snap.shards()[p as usize];
        let idx = shard.index();
        let mut ev = EvalStats::default();
        let local = match self.global_stats.as_deref() {
            Some(gs) => search_or_with(self.strategy, idx, terms, k, &self.bm25, gs, &mut ev),
            None => search_or_with(self.strategy, idx, terms, k, &self.bm25, idx, &mut ev),
        };
        let hits = local.into_iter().map(|h| (shard.to_global(h.doc), h.score)).collect();
        (hits, ev)
    }
}

/// A pooled batch, described once: everything its shard tasks read, and
/// the flat task list. A task is an index into `tasks`; the plan owns
/// its inputs, so pool workers borrow nothing from the coordinator.
struct ShardPlan {
    snap: PartitionedIndex,
    shard_eval: ShardEval,
    /// `(terms, k)` per query of the batch.
    queries: Vec<(Arc<[TermId]>, usize)>,
    /// `(query, partition)` per task, queries in batch order and each
    /// query's partitions in gather order.
    tasks: Vec<(u32, u32)>,
}

impl IndexedTasks for ShardPlan {
    type Output = ShardResult;

    fn count(&self) -> usize {
        self.tasks.len()
    }

    fn run(&self, i: usize) -> ShardResult {
        let (q, p) = self.tasks[i];
        let (terms, k) = &self.queries[q as usize];
        self.shard_eval.task(&self.snap, terms, *k, p)
    }

    /// `(epoch, partition)`: a panicking evaluation names the exact map
    /// snapshot that dispatched it.
    fn label(&self, i: usize) -> Option<u64> {
        Some(task_label(self.snap.epoch(), self.tasks[i].1))
    }
}

impl DocBroker {
    /// Create a broker over `index`. `part_sites[p]` locates partition `p`.
    ///
    /// The broker keeps its own (cheap, `Arc`-backed) clone of the
    /// partitioned index, so it owns everything it needs to serve
    /// queries and carries no borrow of the build-side structures.
    /// # Panics
    /// Panics on a zero-partition index (its gather would divide by
    /// zero when normalizing busy load) or when `part_sites` does not
    /// name a site per partition. `PartitionedIndex::try_build` already
    /// refuses to construct a zero-partition index, so this guard is
    /// the broker restating its own invariant.
    pub fn new(
        index: &PartitionedIndex,
        topo: Topology,
        broker_site: SiteId,
        part_sites: Vec<SiteId>,
    ) -> Self {
        assert!(index.num_partitions() > 0, "zero-partition index");
        assert_eq!(part_sites.len(), index.num_partitions(), "one site per partition");
        Self::assemble(index.clone(), None, topo, broker_site, part_sites)
    }

    /// One accounting slot per located partition server.
    fn assemble(
        index: PartitionedIndex,
        live: Option<Arc<RepartIndex>>,
        topo: Topology,
        broker_site: SiteId,
        part_sites: Vec<SiteId>,
    ) -> Self {
        let core = BrokerCore {
            index,
            live,
            topo,
            broker_site,
            busy: part_sites.iter().map(|_| AtomicU64::new(0)).collect(),
            part_sites,
            shard_eval: ShardEval::default(),
            queries: AtomicU64::new(0),
            scan: ScanCounters::default(),
            pool: None,
        };
        DocBroker { core, recorder: NoopRecorder }
    }

    /// Single-site convenience constructor (everything on one LAN).
    pub fn single_site(index: &PartitionedIndex) -> Self {
        let sites = vec![SiteId(0); index.num_partitions()];
        Self::new(index, Topology::single_site(), SiteId(0), sites)
    }

    /// A single-site broker over a **live, splittable** index. Every
    /// query snapshots the current epoch at admission; accounting slots
    /// are provisioned to `repart.capacity()` so the fixed-width atomic
    /// ledgers survive any number of splits. Scoring uses the corpus-
    /// wide statistics, which splits never change — results stay
    /// bit-identical to a static oracle at any epoch (pair the oracle
    /// with [`Self::with_global_stats`]).
    pub fn live(repart: &Arc<RepartIndex>) -> Self {
        let sites = vec![SiteId(0); repart.capacity()];
        let live = Some(Arc::clone(repart));
        Self::assemble(repart.snapshot(), live, Topology::single_site(), SiteId(0), sites)
            .with_global_stats(repart.corpus_stats())
    }
}

impl<R: Recorder> DocBroker<R> {
    /// Swap in an observability recorder (events flow to it from every
    /// query method). Counters and results are unaffected: recorders
    /// observe, they never steer.
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> DocBroker<R2> {
        DocBroker { core: self.core, recorder }
    }

    /// Pick the ranked evaluator shards run. Hits, latencies, and busy
    /// time are bit-identical across strategies (the evaluators agree
    /// exactly and the simulated latency model is df-based); only the
    /// *measured* work in [`DocBroker::eval_stats`] differs.
    pub fn with_strategy(mut self, eval: EvalStrategy) -> Self {
        self.core.shard_eval.strategy = eval;
        self
    }

    /// The evaluator strategy in force.
    pub fn strategy(&self) -> EvalStrategy {
        self.core.shard_eval.strategy
    }

    /// Measured evaluator work accumulated so far, over all shards and
    /// queries.
    pub fn eval_stats(&self) -> EvalStats {
        self.core.scan.snapshot()
    }

    /// The attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Evaluate shards concurrently on a dedicated pool of `threads`
    /// workers. Results (hits, busy time, simulated latency) are
    /// bit-for-bit identical to the sequential path.
    pub fn parallel(self, threads: usize) -> Self {
        self.with_pool(Arc::new(ScatterPool::new(threads)))
    }

    /// Evaluate shards concurrently on an existing (possibly shared)
    /// pool.
    pub fn with_pool(mut self, pool: Arc<ScatterPool>) -> Self {
        self.core.pool = Some(pool);
        self
    }

    /// Whether shard evaluation runs on a worker pool.
    pub fn is_parallel(&self) -> bool {
        self.core.pool.is_some()
    }

    /// Score shards against corpus-wide statistics instead of each
    /// shard's local ones. This is how a *static oracle* is built to
    /// match a live broker bit-for-bit: both score every document with
    /// the same epoch-invariant statistics, so partition layout cannot
    /// leak into scores.
    pub fn with_global_stats(mut self, stats: Arc<CorpusStats>) -> Self {
        self.core.shard_eval.global_stats = Some(stats);
        self
    }

    /// The epoch-consistent index for one query: the current live
    /// snapshot, or the static index. One short lock on the live path;
    /// a cheap `Arc` clone either way.
    pub fn snapshot(&self) -> PartitionedIndex {
        match &self.core.live {
            Some(r) => r.snapshot(),
            None => self.core.index.clone(),
        }
    }

    /// The live index behind this broker, if any.
    pub fn live_index(&self) -> Option<&Arc<RepartIndex>> {
        self.core.live.as_ref()
    }

    /// Provisioned accounting slots (= capacity for live brokers,
    /// partition count for static ones).
    pub fn slots(&self) -> usize {
        self.core.busy.len()
    }

    /// The service time partition `p` spends on `terms`: posting volume
    /// touched plus fixed overhead. Live brokers snapshot the current
    /// epoch; engines holding a per-query snapshot should prefer
    /// [`Self::service_time_in`].
    pub fn service_time(&self, p: usize, terms: &[TermId]) -> f64 {
        match &self.core.live {
            Some(r) => self.service_time_in(&r.snapshot(), p, terms),
            None => self.service_time_in(&self.core.index, p, terms),
        }
    }

    /// As [`Self::service_time`], against an explicit epoch snapshot.
    pub fn service_time_in(&self, snap: &PartitionedIndex, p: usize, terms: &[TermId]) -> f64 {
        let postings: u64 = terms.iter().map(|&t| u64::from(snap.part(p).df(t))).sum();
        US_PER_QUERY_FIXED + postings as f64 * US_PER_POSTING
    }

    /// Evaluate a query over all *active* partitions of the current
    /// epoch (all partitions, on a static index).
    pub fn query(&self, terms: &[TermId], k: usize) -> BrokeredResponse {
        let snap = self.snapshot();
        self.query_in(&snap, terms, k, &snap.active_parts())
    }

    /// Evaluate a query over the top-`m` partitions of `selector`.
    pub fn query_with_selection(
        &self,
        terms: &[TermId],
        k: usize,
        selector: &dyn CollectionSelector,
        m: usize,
    ) -> BrokeredResponse {
        let chosen: Vec<u32> = selector.rank(terms).into_iter().take(m).map(|(p, _)| p).collect();
        self.query_selected(terms, k, &chosen)
    }

    /// Evaluate a query over an explicit partition set.
    ///
    /// Degenerate inputs are served gracefully, never panicked on:
    /// `k == 0` answers an empty result without touching any shard, and
    /// out-of-range / inactive / duplicate partition ids are dropped
    /// (`partitions_used` reports the partitions actually consulted).
    pub fn query_selected(&self, terms: &[TermId], k: usize, parts: &[u32]) -> BrokeredResponse {
        self.query_in(&self.snapshot(), terms, k, parts)
    }

    /// Batch convenience over all active partitions: identical to
    /// calling [`Self::query`] once per entry in order, with every shard
    /// task admitted to the pool in one enqueue.
    pub fn query_batch(&self, queries: &[Vec<TermId>], k: usize) -> Vec<BrokeredResponse> {
        let snap = self.snapshot();
        let all = snap.active_parts();
        let priced: Vec<_> = queries.iter().map(|t| self.plain_shards(&snap, t, &all)).collect();
        let batch: Vec<BatchQuery<'_>> = queries
            .iter()
            .zip(&priced)
            .map(|(terms, shards)| self.standalone(terms, k, shards))
            .collect();
        self.scatter_gather(&snap, &batch, 0).into_iter().map(|(resp, _)| resp).collect()
    }

    /// One standalone-broker query: plain replicas, no sim clock.
    fn query_in(
        &self,
        snap: &PartitionedIndex,
        terms: &[TermId],
        k: usize,
        parts: &[u32],
    ) -> BrokeredResponse {
        let shards = self.plain_shards(snap, terms, parts);
        self.scatter_gather_one(snap, self.standalone(terms, k, &shards), 0).0
    }

    /// Price `parts` for `terms` as plain replicas ([`plain_completion`])
    /// — what a caller without replica state dispatches: the standalone
    /// entry points and a routed oracle. Ids with no active shard in
    /// `snap` have nothing to price and are dropped here.
    pub(crate) fn plain_shards(
        &self,
        snap: &PartitionedIndex,
        terms: &[TermId],
        parts: &[u32],
    ) -> Vec<Shard> {
        let price = |&p: &u32| {
            let service = self.service_time_in(snap, p as usize, terms);
            Shard { partition: p, service, completion: plain_completion(service) }
        };
        parts.iter().filter(|&&p| snap.is_active(p)).map(price).collect()
    }

    /// A standalone query waits for every shard, and computes the query
    /// key only when someone is listening.
    fn standalone<'a>(&self, terms: &'a [TermId], k: usize, shards: &'a [Shard]) -> BatchQuery<'a> {
        let qid = if self.recorder.is_live() { crate::engine::query_key(terms) } else { 0 };
        BatchQuery { terms, k, shards, qid, deadline: None }
    }

    /// [`Self::scatter_gather`] for a batch of one.
    pub(crate) fn scatter_gather_one(
        &self,
        snap: &PartitionedIndex,
        query: BatchQuery<'_>,
        now: SimTime,
    ) -> (BrokeredResponse, usize) {
        self.scatter_gather(snap, &[query], now).pop().expect("one response per query")
    }

    /// Drop shards whose partition is out of range, inactive at this
    /// epoch, or duplicated — any of which would panic the scatter or
    /// silently double-merge a document — preserving the order of what
    /// survives. `k == 0` asks for nothing and keeps no shard. Borrows
    /// when the input is already clean (the engine path always is), so
    /// the hot path allocates nothing.
    fn sanitize<'a>(snap: &PartitionedIndex, q: &BatchQuery<'a>) -> Cow<'a, [Shard]> {
        let shards = q.shards;
        if q.k == 0 {
            return Cow::Borrowed(&[]);
        }
        let keep = |i: usize| {
            let p = shards[i].partition;
            snap.is_active(p) && !shards[..i].iter().any(|s| s.partition == p)
        };
        if (0..shards.len()).all(keep) {
            return Cow::Borrowed(shards);
        }
        (0..shards.len()).filter(|&i| keep(i)).map(|i| shards[i]).collect()
    }

    /// The one serving path of the broker: sanitize every query's
    /// partition list, scatter **all** of their shard tasks at once,
    /// then gather query by query. Returns, per query in order, the
    /// response and the number of partitions whose answer was merged
    /// (fewer than `partitions_used` only under a gather deadline).
    ///
    /// The whole batch runs against one epoch snapshot, so a split
    /// landing mid-batch cannot straddle two epochs within it. Every
    /// `(query, partition)` task goes through [`ShardEval::task`]: on
    /// pool workers when a pool is configured — the batch described once
    /// as a [`ShardPlan`] and handed over in a single enqueue — and in a
    /// plain loop on this thread otherwise; either way results are
    /// indexed by task, so the gather is independent of completion
    /// order. Every event is emitted from this coordinating thread: per
    /// query, one [`Event::ScatterDispatch`] immediately before its own
    /// gather block (`ShardService*`, `GatherDone`) — the stream a
    /// query-at-a-time loop produces, and the same with or without a
    /// pool.
    pub(crate) fn scatter_gather(
        &self,
        snap: &PartitionedIndex,
        batch: &[BatchQuery<'_>],
        now: SimTime,
    ) -> Vec<(BrokeredResponse, usize)> {
        let sane: Vec<_> = batch.iter().map(|q| Self::sanitize(snap, q)).collect();
        let tasks = sane.iter().map(|shards| shards.len()).sum::<usize>();
        let evaluated: Vec<ShardResult> = match &self.core.pool {
            Some(pool) if tasks > 1 => pool.run(ShardPlan {
                snap: snap.clone(),
                shard_eval: self.core.shard_eval.clone(),
                queries: batch.iter().map(|q| (q.terms.into(), q.k)).collect(),
                tasks: per_task(tasks, &sane, |q, p| (q as u32, p)),
            }),
            _ => per_task(tasks, &sane, |q, p| {
                self.core.shard_eval.task(snap, batch[q].terms, batch[q].k, p)
            }),
        };
        let mut rest = evaluated.as_slice();
        batch
            .iter()
            .zip(&sane)
            .map(|(q, shards)| {
                self.core.queries.fetch_add(1, Ordering::Relaxed);
                self.recorder.record(Event::ScatterDispatch {
                    qid: q.qid,
                    now,
                    partitions: shards.len() as u32,
                });
                let (per_shard, tail) = rest.split_at(shards.len());
                rest = tail;
                self.gather(q, shards, now, per_shard)
            })
            .collect()
    }

    /// Gather in partition order: deterministic merge and latency
    /// regardless of which thread finished first. Per-shard events are
    /// emitted here (not by workers), so their order is deterministic
    /// too. Also folds each shard's measured evaluator work into the
    /// broker-wide [`ScanCounters`].
    ///
    /// One arithmetic, whoever priced the shards: the response waits for
    /// the slowest merged `completion + rtt`, and the deadline — when
    /// there is one — drops later shards from the merge. Busy time, the
    /// `ShardService` event, and scan counters are still charged for
    /// them, because the server did the work whether or not the broker
    /// waited for the answer.
    fn gather(
        &self,
        q: &BatchQuery<'_>,
        shards: &[Shard],
        now: SimTime,
        per_shard: &[ShardResult],
    ) -> (BrokeredResponse, usize) {
        // `k == 0` queries arrive with `shards` already emptied, so the
        // max(1) floor (TopK rejects capacity 0) never admits a hit.
        let mut top = TopK::new(q.k.max(1));
        let mut slowest: SimTime = 0;
        let mut merged_hits = 0u64;
        let mut answered = 0usize;
        for (shard, (hits, ev)) in shards.iter().zip(per_shard) {
            let pu = shard.partition as usize;
            self.add_busy(pu, shard.service);
            self.recorder.record(Event::ShardService {
                qid: q.qid,
                now,
                partition: shard.partition,
                service_us: shard.service,
            });
            self.core.scan.add(ev);
            if q.deadline.is_some_and(|d| shard.completion > d) {
                continue; // answer arrived past the deadline: work charged, hits dropped
            }
            answered += 1;
            merged_hits += hits.len() as u64;
            let site = self.core.part_sites[pu];
            let rtt = self.core.topo.rtt(self.core.broker_site, site, 64, hits.len() as u64 * 12);
            slowest = slowest.max(shard.completion + rtt);
            for &(doc, score) in hits {
                top.push(doc, score);
            }
        }
        let merge = (merged_hits as f64 * US_PER_MERGE_HIT) as SimTime;
        // A partial response is released *at* the deadline (plus transit
        // of what made it, plus merge); a complete one when the slowest
        // included answer lands.
        let latency = match q.deadline {
            Some(d) if answered < shards.len() => slowest.max(d) + merge,
            _ => slowest + merge,
        };
        self.recorder.record(Event::GatherDone {
            qid: q.qid,
            now,
            merged_hits,
            latency_us: latency,
        });
        let resp = BrokeredResponse {
            hits: top
                .into_sorted_vec()
                .into_iter()
                .map(|(doc, score)| GlobalHit { doc, score })
                .collect(),
            partitions_used: shards.len(),
            latency,
        };
        (resp, answered)
    }

    fn add_busy(&self, p: usize, amount: f64) {
        let cell = &self.core.busy[p];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + amount).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Accumulated busy time per partition server (µs).
    pub fn busy_time(&self) -> Vec<f64> {
        self.core.busy.iter().map(|b| f64::from_bits(b.load(Ordering::Relaxed))).collect()
    }

    /// Busy time normalized by its mean — the Figure 2 y-axis (dashed line
    /// at 1.0).
    pub fn busy_load_normalized(&self) -> Vec<f64> {
        let busy = self.busy_time();
        if busy.is_empty() {
            // Unreachable through the constructors (a zero-partition
            // index is rejected), but a division by zero here would
            // poison every downstream load statistic with NaN.
            return Vec::new();
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            return vec![0.0; busy.len()];
        }
        busy.iter().map(|&b| b / mean).collect()
    }

    /// Queries processed so far.
    pub fn queries_processed(&self) -> u64 {
        self.core.queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
    use dwr_partition::parted::Corpus;
    use dwr_partition::quality::global_top_k;

    fn corpus() -> Corpus {
        (0..40u32).map(|d| vec![(TermId(d % 7), 1 + d % 3), (TermId(100 + d % 5), 1)]).collect()
    }

    fn parted(k: usize) -> (Corpus, PartitionedIndex) {
        let c = corpus();
        let a = RoundRobinPartitioner.assign(&c, k);
        let pi = PartitionedIndex::build(&c, &a, k);
        (c, pi)
    }

    /// One query priced the way an engine would — explicit completions,
    /// an optional deadline — through the broker's entry point (sim
    /// clock 0). A partition the snapshot does not have is priced at 0.
    fn drawn(
        b: &DocBroker,
        terms: &[TermId],
        k: usize,
        parts: &[u32],
        completions: &[SimTime],
        deadline: Option<SimTime>,
    ) -> (BrokeredResponse, usize) {
        let snap = b.snapshot();
        let price = |(&p, &completion)| {
            let service =
                if snap.is_active(p) { b.service_time_in(&snap, p as usize, terms) } else { 0.0 };
            Shard { partition: p, service, completion }
        };
        let shards: Vec<Shard> = parts.iter().zip(completions).map(price).collect();
        b.scatter_gather_one(&snap, BatchQuery { terms, k, shards: &shards, qid: 0, deadline }, 0)
    }

    #[test]
    fn brokered_results_match_monolithic_set() {
        let (c, pi) = parted(4);
        let broker = DocBroker::single_site(&pi);
        let terms = [TermId(1), TermId(100)];
        let got: Vec<u32> = broker.query(&terms, 10).hits.iter().map(|h| h.doc).collect();
        let want = global_top_k(&c, &terms, 10);
        // Local statistics may permute near-ties; the *sets* must agree.
        let mut gs = got.clone();
        let mut ws = want.clone();
        gs.sort_unstable();
        ws.sort_unstable();
        assert_eq!(gs, ws);
    }

    #[test]
    fn busy_load_balanced_under_round_robin() {
        let (_, pi) = parted(8);
        let broker = DocBroker::single_site(&pi);
        for q in 0..200u32 {
            broker.query(&[TermId(q % 7), TermId(100 + q % 5)], 10);
        }
        let norm = broker.busy_load_normalized();
        for &l in &norm {
            assert!((l - 1.0).abs() < 0.25, "{norm:?}");
        }
    }

    #[test]
    fn selection_reduces_partitions_and_latency() {
        let (_, pi) = parted(4);
        let sel = dwr_partition::select::CoriSelector::from_partitions(&pi);
        let broker = DocBroker::single_site(&pi);
        let terms = [TermId(1)];
        let full = broker.query(&terms, 10);
        let selective = broker.query_with_selection(&terms, 10, &sel, 2);
        assert_eq!(full.partitions_used, 4);
        assert_eq!(selective.partitions_used, 2);
        assert!(selective.hits.len() <= full.hits.len() || !full.hits.is_empty());
    }

    #[test]
    fn latency_includes_network() {
        let (_, pi) = parted(2);
        let lan_broker = DocBroker::single_site(&pi);
        let wan_topo = Topology::geo_ring(3);
        let wan_broker = DocBroker::new(&pi, wan_topo, SiteId(0), vec![SiteId(1), SiteId(2)]);
        let terms = [TermId(2)];
        let l = lan_broker.query(&terms, 10).latency;
        let w = wan_broker.query(&terms, 10).latency;
        assert!(w > l, "wan={w} lan={l}");
    }

    #[test]
    fn busy_time_accrues_only_on_queried_partitions() {
        let (_, pi) = parted(4);
        let broker = DocBroker::single_site(&pi);
        broker.query_selected(&[TermId(1)], 10, &[0, 1]);
        let busy = broker.busy_time();
        assert!(busy[0] > 0.0 && busy[1] > 0.0);
        assert_eq!(busy[2], 0.0);
        assert_eq!(busy[3], 0.0);
    }

    #[test]
    fn empty_query_is_harmless() {
        let (_, pi) = parted(2);
        let broker = DocBroker::single_site(&pi);
        let r = broker.query(&[], 10);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn broker_is_send_sync_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let (_, pi) = parted(4);
        let broker = std::sync::Arc::new(DocBroker::single_site(&pi));
        assert_send_sync(&*broker);
        let baseline = broker.query(&[TermId(1)], 10).hits;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let broker = std::sync::Arc::clone(&broker);
                let baseline = baseline.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(broker.query(&[TermId(1)], 10).hits, baseline);
                    }
                });
            }
        });
        // 1 baseline + 4 threads × 25 queries, all accounted atomically.
        assert_eq!(broker.queries_processed(), 101);
    }

    #[test]
    fn strategy_is_transparent_to_results_and_work() {
        let (_, pi) = parted(4);
        let ex = DocBroker::single_site(&pi).with_strategy(EvalStrategy::Exhaustive);
        let dense = DocBroker::single_site(&pi).with_strategy(EvalStrategy::Dense);
        assert_eq!(ex.strategy(), EvalStrategy::Exhaustive);
        assert_eq!(dense.strategy(), EvalStrategy::Dense);
        for q in 0..60u32 {
            let terms = [TermId(q % 7), TermId(100 + q % 5)];
            let a = ex.query(&terms, 3);
            let b = dense.query(&terms, 3);
            assert_eq!(a.hits, b.hits, "query {q}");
            assert_eq!(a.latency, b.latency, "query {q}");
        }
        assert_eq!(ex.busy_time(), dense.busy_time());
        assert!(ex.eval_stats().postings_scanned > 0);
        assert_eq!(ex.eval_stats(), dense.eval_stats(), "both evaluators read every posting");
    }

    #[test]
    fn batch_matches_query_at_a_time_loop() {
        let (_, pi) = parted(4);
        let seq = DocBroker::single_site(&pi);
        let batched = DocBroker::single_site(&pi);
        let queries: Vec<Vec<TermId>> =
            (0..30u32).map(|q| vec![TermId(q % 7), TermId(100 + q % 5)]).collect();
        let loop_resps: Vec<BrokeredResponse> = queries.iter().map(|t| seq.query(t, 5)).collect();
        let batch_resps = batched.query_batch(&queries, 5);
        assert_eq!(loop_resps.len(), batch_resps.len());
        for (i, (a, b)) in loop_resps.iter().zip(&batch_resps).enumerate() {
            assert_eq!(a.hits, b.hits, "query {i}");
            assert_eq!(a.latency, b.latency, "query {i}");
            assert_eq!(a.partitions_used, b.partitions_used, "query {i}");
        }
        assert_eq!(seq.busy_time(), batched.busy_time());
        assert_eq!(seq.queries_processed(), batched.queries_processed());
        assert_eq!(seq.eval_stats(), batched.eval_stats());
    }

    #[test]
    fn pooled_batch_matches_inline_batch() {
        let (_, pi) = parted(8);
        let inline = DocBroker::single_site(&pi);
        let pooled = DocBroker::single_site(&pi).parallel(4);
        let queries: Vec<Vec<TermId>> =
            (0..40u32).map(|q| vec![TermId(q % 7), TermId(100 + q % 5)]).collect();
        let a = inline.query_batch(&queries, 10);
        let b = pooled.query_batch(&queries, 10);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.hits, y.hits, "query {i}");
            assert_eq!(x.latency, y.latency, "query {i}");
        }
        assert_eq!(inline.busy_time(), pooled.busy_time());
        assert_eq!(inline.eval_stats(), pooled.eval_stats());
    }

    #[test]
    fn empty_batch_and_empty_queries_are_harmless() {
        let (_, pi) = parted(2);
        let broker = DocBroker::single_site(&pi);
        assert!(broker.query_batch(&[], 10).is_empty());
        let r = broker.query_batch(&[vec![], vec![TermId(1)]], 10);
        assert_eq!(r.len(), 2);
        assert!(r[0].hits.is_empty());
        assert!(!r[1].hits.is_empty());
    }

    /// The one gather arithmetic, from public APIs: a standalone query
    /// waits for the slowest `ceil(service) + rtt`, then merges.
    #[test]
    fn latency_is_slowest_plain_completion_plus_transit_plus_merge() {
        let (_, pi) = parted(2);
        let topo = Topology::geo_ring(3);
        let sites = vec![SiteId(1), SiteId(2)];
        let b = DocBroker::new(&pi, topo.clone(), SiteId(0), sites.clone());
        let terms = [TermId(1), TermId(100)];
        // k exceeds the corpus: the response carries every shard's hits.
        let r = b.query(&terms, 40);
        let slowest = (0..2u32)
            .map(|p| {
                let hits = r.hits.iter().filter(|h| h.doc % 2 == p).count() as u64;
                let rtt = topo.rtt(SiteId(0), sites[p as usize], 64, hits * 12);
                b.service_time(p as usize, &terms).ceil() as SimTime + rtt
            })
            .max()
            .expect("two partitions");
        let merge = (r.hits.len() as f64 * US_PER_MERGE_HIT) as SimTime;
        assert_eq!(r.latency, slowest + merge);
        // Completions priced by someone else feed the same arithmetic.
        let (d, answered) = drawn(&b, &terms, 40, &[0, 1], &[7_000, 9_000], None);
        assert_eq!(answered, 2, "no deadline: every partition answers");
        assert_eq!(d.hits, r.hits);
        let hits1 = r.hits.iter().filter(|h| h.doc % 2 == 1).count() as u64;
        let slow = 9_000 + topo.rtt(SiteId(0), SiteId(2), 64, hits1 * 12);
        let hits0 = r.hits.len() as u64 - hits1;
        let fast = 7_000 + topo.rtt(SiteId(0), SiteId(1), 64, hits0 * 12);
        assert_eq!(d.latency, slow.max(fast) + merge);
    }

    #[test]
    fn deadline_drops_late_shards_but_charges_their_work() {
        let (_, pi) = parted(4);
        let b = DocBroker::single_site(&pi);
        let terms = [TermId(1), TermId(100)];
        let parts = [0u32, 1, 2, 3];
        // Partitions 1 and 3 straggle far past the deadline.
        let completions = [300, 9_000, 300, 9_000];
        let full = DocBroker::single_site(&pi).query_selected(&terms, 40, &parts);
        let (partial, answered) = drawn(&b, &terms, 40, &parts, &completions, Some(1_000));
        assert_eq!(answered, 2);
        // Round-robin assignment: doc % 4 names the partition, so the
        // late partitions' documents must be absent from the merge.
        assert!(!partial.hits.is_empty());
        assert!(partial.hits.iter().all(|h| h.doc % 4 == 0 || h.doc % 4 == 2), "{partial:?}");
        assert!(partial.hits.len() < full.hits.len());
        // The stragglers' work is still charged: they did serve the query.
        assert!(b.busy_time().iter().all(|&t| t > 0.0), "{:?}", b.busy_time());
        // A partial response is released at the deadline, not before.
        assert!(partial.latency >= 1_000);
    }

    #[test]
    fn k_zero_answers_empty_without_touching_shards() {
        let (_, pi) = parted(4);
        let broker = DocBroker::single_site(&pi);
        let r = broker.query(&[TermId(1)], 0);
        assert!(r.hits.is_empty(), "k=0 must not smuggle a hit through the TopK floor");
        assert_eq!(r.partitions_used, 0);
        assert_eq!(r.latency, 0);
        assert!(broker.busy_time().iter().all(|&b| b == 0.0), "no shard consulted");
        assert_eq!(broker.queries_processed(), 1, "the query itself is still counted");
        // Same through explicit selection and under a deadline.
        let r = broker.query_selected(&[TermId(1)], 0, &[0, 1]);
        assert!(r.hits.is_empty() && r.partitions_used == 0);
        let (r, answered) = drawn(&broker, &[TermId(1)], 0, &[0, 1], &[100, 100], Some(1_000));
        assert!(r.hits.is_empty() && answered == 0);
    }

    #[test]
    fn degenerate_part_lists_are_sanitized_not_panicked() {
        let (_, pi) = parted(4);
        let broker = DocBroker::single_site(&pi);
        let terms = [TermId(1), TermId(100)];
        let clean = broker.query_selected(&terms, 10, &[0, 1, 2, 3]);
        // Out-of-range ids are dropped, not a panic.
        let oob = broker.query_selected(&terms, 10, &[0, 99, 1, 2, 7, 3]);
        assert_eq!(oob.hits, clean.hits);
        assert_eq!(oob.partitions_used, 4, "only real partitions counted");
        // Duplicates collapse: no document answered twice, busy charged once.
        let fresh = DocBroker::single_site(&pi);
        let dup = fresh.query_selected(&terms, 10, &[2, 2, 2]);
        let once = DocBroker::single_site(&pi).query_selected(&terms, 10, &[2]);
        assert_eq!(dup.hits, once.hits);
        assert_eq!(dup.partitions_used, 1);
        assert_eq!(fresh.busy_time()[2], broker_busy_once(&pi, &terms));
        // k > #docs is simply a deep request.
        let deep = broker.query_selected(&terms, 10_000, &[0, 1, 2, 3]);
        assert!(deep.hits.len() <= 40);
        // Empty part list answers empty.
        let none = broker.query_selected(&terms, 10, &[]);
        assert!(none.hits.is_empty() && none.partitions_used == 0);
    }

    fn broker_busy_once(pi: &PartitionedIndex, terms: &[TermId]) -> f64 {
        let b = DocBroker::single_site(pi);
        b.query_selected(terms, 10, &[2]);
        b.busy_time()[2]
    }

    #[test]
    fn sanitize_drops_a_partition_together_with_its_completion() {
        let (_, pi) = parted(4);
        let broker = DocBroker::single_site(&pi);
        let terms = [TermId(1), TermId(100)];
        // Partition 9 does not exist; its (late) completion must vanish
        // with it instead of being attributed to a real partition.
        let (r, answered) =
            drawn(&broker, &terms, 10, &[0, 9, 1], &[100, 9_999_999, 100], Some(1_000));
        assert_eq!(answered, 2, "both real partitions answer in time");
        assert_eq!(r.partitions_used, 2);
    }

    #[test]
    fn live_broker_matches_static_oracle_at_every_epoch() {
        use dwr_partition::repart::{RepartIndex, SplitFate};
        let c = corpus();
        let a = RoundRobinPartitioner.assign(&c, 4);
        let repart = Arc::new(RepartIndex::build(c, &a, 4, 16));
        let live = DocBroker::live(&repart);
        assert_eq!(live.slots(), 16);
        for round in 0..3 {
            // Static oracle over the *current* epoch, scoring with the
            // same corpus-wide statistics.
            let oracle =
                DocBroker::single_site(&live.snapshot()).with_global_stats(repart.corpus_stats());
            for q in 0..30u32 {
                let terms = [TermId(q % 7), TermId(100 + q % 5)];
                let l = live.query(&terms, 10);
                let o = oracle.query(&terms, 10);
                assert_eq!(l.hits, o.hits, "round {round} query {q}");
            }
            let target = repart.split_target().expect("splittable");
            repart.split(target, SplitFate::Commit).expect("split");
        }
        // After splits, the live broker scatters over active parts only:
        // every doc exactly once.
        let all: Vec<u32> = live.query(&[TermId(0)], 40).hits.iter().map(|h| h.doc).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "no document answered twice");
    }

    #[test]
    fn parallel_scatter_is_bit_identical_to_sequential() {
        let (_, pi) = parted(8);
        let seq = DocBroker::single_site(&pi);
        let par = DocBroker::single_site(&pi).parallel(4);
        assert!(par.is_parallel() && !seq.is_parallel());
        for q in 0..50u32 {
            let terms = [TermId(q % 7), TermId(100 + q % 5)];
            let a = seq.query(&terms, 10);
            let b = par.query(&terms, 10);
            assert_eq!(a.hits, b.hits, "query {q}");
            assert_eq!(a.latency, b.latency, "query {q}");
            assert_eq!(a.partitions_used, b.partitions_used);
        }
        assert_eq!(seq.busy_time(), par.busy_time());
    }
}
