//! The [`Recorder`] trait the serving stack is instrumented against,
//! its zero-cost no-op, and the live [`ObsRecorder`].
//!
//! The serving crates (`dwr-query`) are generic over `R: Recorder` with
//! `R = NoopRecorder` as the default type parameter, so existing call
//! sites compile unchanged and pay nothing: [`NoopRecorder::record`] is
//! an inlined empty body on a zero-sized type, and event *construction*
//! feeding it is dead code the optimizer removes
//! (`exp_observability` pins this with a timing assert, and
//! `tests/observability.rs` pins that results stay bit-for-bit
//! identical).
//!
//! [`ObsRecorder`] is the live implementation: it routes every
//! [`Event`] into lock-free instruments in a [`Registry`] plus a sampled
//! [`SpanRecorder`]. Events are emitted by the *coordinating* thread of
//! each query in deterministic order (see the crate docs), so metric
//! streams agree between sequential and parallel engines.

use crate::instrument::{Counter, Gauge, Histogram};
use crate::registry::{Registry, Snapshot};
use crate::span::{Span, SpanRecorder, Stage};
use dwr_sim::SimTime;
use std::sync::Arc;

/// How a single-site engine answered a query (mirror of
/// `dwr_query::engine::Served`, payload-free for `Copy` events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fresh results straight from the cache.
    CacheHit,
    /// Evaluated on the full chosen partition set.
    Full,
    /// Evaluated with some partitions unavailable.
    Degraded,
    /// Served stale results from the cache during an outage.
    StaleFromCache,
    /// Backend unavailable and the cache had nothing.
    Failed,
    /// Refused by admission control.
    Shed,
    /// Returned partial top-k at the gather deadline (some dispatched
    /// partitions answered too late to merge).
    Partial,
    /// Evaluated on a routed subset of the active partitions: every
    /// contacted partition answered, but the router deliberately skipped
    /// the rest, so recall is bounded by the selector, not proven.
    Routed,
}

/// How the site tier resolved a query (mirror of the
/// `dwr_query::multisite::MultiSiteStats` buckets: every query lands in
/// exactly one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteOutcome {
    /// Served by the query's nearest (anchor) site.
    ServedLocal,
    /// Served by a remote site after failover or spill.
    ServedRemote,
    /// Every live site was over its admission threshold.
    ShedOverload,
    /// Deadline or attempt cap exhausted while live sites remained.
    ShedDeadline,
    /// No site was live at dispatch time.
    Failed,
}

/// One instrumentation point on the serving path. All variants carry the
/// query key (`qid`) and the sim-clock instant (`now`); everything is
/// `Copy`, so constructing an event for the no-op recorder costs nothing
/// after inlining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A single-site engine admitted a query.
    QueryStart {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
    },
    /// The result cache was consulted.
    CacheLookup {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// The broker scattered the query across partitions.
    ScatterDispatch {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Partitions dispatched to.
        partitions: u32,
    },
    /// One partition finished service (emitted by the gather loop in
    /// partition order — identical for sequential and parallel scatter).
    ShardService {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Partition id.
        partition: u32,
        /// Simulated service time, µs.
        service_us: f64,
    },
    /// The gather phase merged all partition results.
    GatherDone {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Hits received across partitions before top-k.
        merged_hits: u64,
        /// Simulated backend latency (slowest partition + merge), µs.
        latency_us: SimTime,
    },
    /// A hedged retry was dispatched after a replica died mid-query.
    Hedge {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Partition hedged.
        partition: u32,
        /// Extra service time the retry spent, µs.
        extra_us: f64,
    },
    /// Terminal single-site outcome (exactly one per engine query).
    Outcome {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// How the query was answered.
        outcome: Outcome,
        /// Simulated latency for backend-evaluated answers.
        latency_us: Option<SimTime>,
    },
    /// The site tier dispatched an attempt to a site.
    SiteAttempt {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Site attempted.
        site: u32,
        /// Whether the site is remote to the query's anchor.
        remote: bool,
    },
    /// A site attempt was lost and the query failed over.
    SiteFailover {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Site whose attempt was lost.
        site: u32,
        /// Backoff charged for this loss, µs.
        backoff_us: SimTime,
    },
    /// The query crossed the WAN to a remote site.
    WanHop {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Anchor site.
        from: u32,
        /// Remote site.
        to: u32,
        /// WAN round trip charged, µs.
        rtt_us: SimTime,
    },
    /// Terminal site-tier outcome (exactly one per site-tier query).
    SiteOutcome {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Which accounting bucket the query landed in.
        outcome: SiteOutcome,
        /// Serving site, when one answered.
        site: Option<u32>,
        /// WAN hops taken.
        hops: u32,
        /// Whether the served answer was degraded/stale.
        degraded: bool,
        /// WAN + backoff latency added on top of backend service, µs
        /// (0 for unserved queries — matching `MultiSiteStats`).
        added_latency_us: SimTime,
        /// End-to-end simulated latency, when served.
        latency_us: Option<SimTime>,
    },
    /// A crawling agent crashed and left the pool.
    CrawlCrash {
        /// Crashed agent (crawl-tier index, not a query id).
        agent: u32,
        /// Sim-clock instant.
        now: SimTime,
        /// Fetches that were in flight on the agent and are charged as
        /// lost work.
        lost_inflight: u64,
    },
    /// A crawling agent recovered and rejoined the pool.
    CrawlRecover {
        /// Recovered agent.
        agent: u32,
        /// Sim-clock instant.
        now: SimTime,
    },
    /// A membership change re-routed hosts to their new owners.
    CrawlReassign {
        /// Sim-clock instant.
        now: SimTime,
        /// Hosts whose owning agent changed in this membership event.
        hosts_moved: u64,
    },
    /// One frontier-handoff batch was delivered to a new host owner.
    CrawlHandoff {
        /// Receiving agent.
        to: u32,
        /// Sim-clock instant.
        now: SimTime,
        /// Hosts whose queues the batch carried.
        hosts: u64,
        /// Unfetched URLs migrated (politeness state rides along).
        urls: u64,
    },
    /// A page lost in a crash was fetched again by another agent.
    CrawlRefetch {
        /// Agent that re-fetched the page.
        agent: u32,
        /// Sim-clock instant.
        now: SimTime,
    },
    /// An online repartition split committed: the parent partition closed
    /// and its children became active in a new epoch. Carries no query
    /// key — splits are index-tier events, like the crawl family.
    RepartSplit {
        /// Sim-clock instant.
        now: SimTime,
        /// Partition that was subdivided (now closed).
        parent: u32,
        /// Children created by the split.
        children: u32,
        /// Live epoch after the publish.
        epoch: u64,
    },
    /// An online repartition split aborted before publish (a crash-
    /// before-publish fate, or no live replica to build the children):
    /// the parent epoch stayed live, nothing changed for readers.
    RepartAbort {
        /// Sim-clock instant.
        now: SimTime,
        /// Partition whose split was abandoned.
        parent: u32,
        /// Epoch that stayed live.
        epoch: u64,
    },
    /// A shard router resolved one cold query: how many shards it
    /// contacted out of the epoch's active set, how often the fallback
    /// cascade broadened the contact set, and how full the returned
    /// top-k was (a cheap online recall proxy — lost shards surface as
    /// missing hits).
    RouteServed {
        /// Query key.
        qid: u64,
        /// Sim-clock instant.
        now: SimTime,
        /// Distinct shards the router contacted for this query.
        contacted: u32,
        /// Active partitions in the query's epoch snapshot.
        active: u32,
        /// Fallback-cascade rounds beyond the initial top-*t* contact.
        broadenings: u32,
        /// Hits returned.
        hits: u32,
        /// Hits requested.
        k: u32,
    },
    /// A router built (or inherited) the selector profile for one epoch
    /// of the live index. Carries no query key — profiles are index-tier
    /// state, like the repart family.
    RouteProfile {
        /// Sim-clock instant.
        now: SimTime,
        /// Epoch the profile snapshot serves.
        epoch: u64,
        /// Profile generation (bumped by drift retrains).
        generation: u64,
    },
    /// The drift detector refreshed the router's training profiles: all
    /// epoch snapshots of the previous generation were discarded.
    RouteRetrain {
        /// Sim-clock instant.
        now: SimTime,
        /// Profile generation now in force.
        generation: u64,
    },
}

/// An observability sink for serving-path [`Event`]s.
///
/// Implementations must be cheap and must never influence serving
/// behaviour: recorders observe, they never steer.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Record one event.
    fn record(&self, event: Event);

    /// Whether recording is active. Instrumented code may use this to
    /// skip *preparing* data that only a live recorder would consume
    /// (e.g. computing a query key outside the serving path proper).
    #[inline]
    fn is_live(&self) -> bool {
        true
    }
}

/// The zero-cost default: a zero-sized recorder whose `record` inlines
/// to an empty body, so instrumented code compiles to exactly the
/// uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn record(&self, _event: Event) {}

    #[inline(always)]
    fn is_live(&self) -> bool {
        false
    }
}

impl<R: Recorder + ?Sized> Recorder for Arc<R> {
    #[inline]
    fn record(&self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn is_live(&self) -> bool {
        (**self).is_live()
    }
}

/// Shape of the serving stack an [`ObsRecorder`] instruments.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Partitions per engine (sizes the per-shard gauges/counters).
    pub partitions: usize,
    /// Sites in the tier; 0 for a single-site engine. Nonzero switches
    /// the span protocol: spans open on [`Event::SiteAttempt`] and close
    /// on [`Event::SiteOutcome`] instead of `QueryStart`/`Outcome`.
    pub sites: usize,
    /// Trace 1 query in this many (0 disables span tracing).
    pub span_sample: u64,
    /// Finished spans retained in the ring.
    pub span_capacity: usize,
    /// Register crawl-tier instruments (`crawl.*`). Off for serving-only
    /// stacks so their snapshots are unperturbed.
    pub crawl: bool,
    /// Register online-repartition instruments (`repart.*`). Off for
    /// static-layout stacks so their snapshots are unperturbed.
    pub repart: bool,
    /// Register shard-routing instruments (`route.*`). Off for
    /// exhaustive-fan-out stacks so their snapshots are unperturbed.
    pub route: bool,
}

impl ObsConfig {
    /// Config for one single-site engine with `partitions` shards.
    pub fn single_site(partitions: usize) -> Self {
        ObsConfig {
            partitions,
            sites: 0,
            span_sample: 997,
            span_capacity: 64,
            crawl: false,
            repart: false,
            route: false,
        }
    }

    /// Config for a site tier: `sites` engines of `partitions` shards.
    pub fn multi_site(partitions: usize, sites: usize) -> Self {
        assert!(sites > 0);
        ObsConfig {
            partitions,
            sites,
            span_sample: 997,
            span_capacity: 64,
            crawl: false,
            repart: false,
            route: false,
        }
    }

    /// Config for a crawl tier: no serving instruments beyond the
    /// always-present engine set, plus the `crawl.*` fault counters.
    /// Crawl events carry no query key, so span tracing is disabled.
    pub fn crawl_tier() -> Self {
        ObsConfig {
            partitions: 0,
            sites: 0,
            span_sample: 0,
            span_capacity: 0,
            crawl: true,
            repart: false,
            route: false,
        }
    }

    /// Config for a whole-system soak: one registry carrying every
    /// family at once — the serving instruments of `sites` engines over
    /// `partitions` shard slots (size to the live index's *capacity* so
    /// post-split ids stay in range), plus the `crawl.*`, `repart.*`,
    /// and `route.*` tiers. The families are name-disjoint by prefix,
    /// so composing them shares the always-present engine set and adds
    /// each optional set exactly once (pinned by
    /// `full_system_instrument_names_do_not_collide`).
    pub fn full_system(partitions: usize, sites: usize) -> Self {
        ObsConfig {
            crawl: true,
            repart: true,
            route: true,
            ..ObsConfig::multi_site(partitions, sites)
        }
    }

    /// Override the span sampling rate (1 = every query, 0 = none).
    pub fn sample(mut self, every: u64) -> Self {
        self.span_sample = every;
        self
    }

    /// Register the `repart.*` instruments (size `partitions` to the
    /// live index's *capacity* so post-split shard ids stay in range).
    pub fn with_repart(mut self) -> Self {
        self.repart = true;
        self
    }

    /// Register the `route.*` instruments (shard-routing counters and
    /// histograms).
    pub fn with_route(mut self) -> Self {
        self.route = true;
        self
    }
}

/// Per-site-tier instruments, present only when `sites > 0`.
#[derive(Debug)]
struct SiteInstruments {
    attempts: Arc<Counter>,
    served_local: Arc<Counter>,
    served_remote: Arc<Counter>,
    degraded: Arc<Counter>,
    shed_overload: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    failed: Arc<Counter>,
    failovers: Arc<Counter>,
    /// WAN hops of *served* queries — the `MultiSiteStats` definition.
    wan_hops: Arc<Counter>,
    /// Every hop attempted, served or not.
    wan_hops_attempted: Arc<Counter>,
    added_latency_us: Arc<Counter>,
    latency_us: Arc<Histogram>,
    wan_rtt_us: Arc<Histogram>,
    backoff_us: Arc<Histogram>,
    /// `site.{s:02}.served` per site.
    per_site_served: Vec<Arc<Counter>>,
}

/// Crawl-tier fault instruments, present only when [`ObsConfig::crawl`]
/// is set. Counter names mirror the `CrawlFaultStats` fields so offline
/// stats and live instruments can be cross-checked exactly
/// (`exp_crawl_faults` pins this).
#[derive(Debug)]
struct CrawlInstruments {
    crashes: Arc<Counter>,
    recoveries: Arc<Counter>,
    lost_inflight: Arc<Counter>,
    hosts_moved: Arc<Counter>,
    handoff_batches: Arc<Counter>,
    handoff_urls: Arc<Counter>,
    refetches: Arc<Counter>,
}

/// Online-repartition instruments, present only when
/// [`ObsConfig::repart`] is set. Counter names mirror the
/// `RepartStats` fields so offline stats and live instruments can be
/// cross-checked exactly (`exp_repart` pins this).
#[derive(Debug)]
struct RepartInstruments {
    splits: Arc<Counter>,
    aborts: Arc<Counter>,
    children: Arc<Counter>,
    /// Live epoch as a gauge (set, not added).
    epoch: Arc<Gauge>,
}

/// Shard-routing instruments, present only when [`ObsConfig::route`] is
/// set. Counter names mirror the `RouterStats` fields so offline stats
/// and live instruments can be cross-checked exactly (`exp_selective`
/// pins this).
#[derive(Debug)]
struct RouteInstruments {
    queries: Arc<Counter>,
    shards_contacted: Arc<Counter>,
    broadenings: Arc<Counter>,
    covered: Arc<Counter>,
    profiles: Arc<Counter>,
    retrains: Arc<Counter>,
    contacted_hist: Arc<Histogram>,
    recall_proxy: Arc<Histogram>,
    generation: Arc<Gauge>,
}

/// The live recorder: lock-free instruments in a [`Registry`] plus a
/// sampled [`SpanRecorder`]. Share one per serving stack behind an
/// `Arc` (a site tier's engines must all hold the same instance so the
/// accounting is coherent).
#[derive(Debug)]
pub struct ObsRecorder {
    registry: Registry,
    spans: SpanRecorder,
    multi_site: bool,
    // Hot-path handles, registered once at construction so `record`
    // never takes the registry lock.
    queries: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    out_cache_hit: Arc<Counter>,
    out_full: Arc<Counter>,
    out_degraded: Arc<Counter>,
    out_stale: Arc<Counter>,
    out_failed: Arc<Counter>,
    out_shed: Arc<Counter>,
    out_partial: Arc<Counter>,
    out_routed: Arc<Counter>,
    hedges: Arc<Counter>,
    latency_us: Arc<Histogram>,
    hedge_extra_us: Arc<Histogram>,
    scatter_batches: Arc<Counter>,
    scatter_tasks: Arc<Counter>,
    broker_queries: Arc<Counter>,
    gather_merged_hits: Arc<Counter>,
    gather_latency_us: Arc<Histogram>,
    shard_service_us: Arc<Histogram>,
    /// `shard.{p:03}.busy_us` — accumulated in event order on the
    /// coordinating thread, so it matches `DocBroker::busy_time`
    /// bit-for-bit.
    shard_busy: Vec<Arc<Gauge>>,
    shard_queries: Vec<Arc<Counter>>,
    site: Option<SiteInstruments>,
    crawl: Option<CrawlInstruments>,
    repart: Option<RepartInstruments>,
    route: Option<RouteInstruments>,
}

impl ObsRecorder {
    /// Build a recorder (and its registry of named instruments) for a
    /// stack of the given shape.
    pub fn new(cfg: ObsConfig) -> Self {
        let registry = Registry::new();
        let shard_busy =
            (0..cfg.partitions).map(|p| registry.gauge(&format!("shard.{p:03}.busy_us"))).collect();
        let shard_queries = (0..cfg.partitions)
            .map(|p| registry.counter(&format!("shard.{p:03}.queries")))
            .collect();
        let site = (cfg.sites > 0).then(|| SiteInstruments {
            attempts: registry.counter("site.attempts"),
            served_local: registry.counter("site.served_local"),
            served_remote: registry.counter("site.served_remote"),
            degraded: registry.counter("site.degraded"),
            shed_overload: registry.counter("site.shed_overload"),
            shed_deadline: registry.counter("site.shed_deadline"),
            failed: registry.counter("site.failed"),
            failovers: registry.counter("site.failovers"),
            wan_hops: registry.counter("site.wan_hops"),
            wan_hops_attempted: registry.counter("site.wan_hops_attempted"),
            added_latency_us: registry.counter("site.added_latency_us"),
            latency_us: registry.histogram("site.latency_us"),
            wan_rtt_us: registry.histogram("wan.rtt_us"),
            backoff_us: registry.histogram("site.backoff_us"),
            per_site_served: (0..cfg.sites)
                .map(|s| registry.counter(&format!("site.{s:02}.served")))
                .collect(),
        });
        let crawl = cfg.crawl.then(|| CrawlInstruments {
            crashes: registry.counter("crawl.crashes"),
            recoveries: registry.counter("crawl.recoveries"),
            lost_inflight: registry.counter("crawl.lost_inflight"),
            hosts_moved: registry.counter("crawl.hosts_moved"),
            handoff_batches: registry.counter("crawl.handoff_batches"),
            handoff_urls: registry.counter("crawl.handoff_urls"),
            refetches: registry.counter("crawl.refetches"),
        });
        let repart = cfg.repart.then(|| RepartInstruments {
            splits: registry.counter("repart.splits"),
            aborts: registry.counter("repart.aborts"),
            children: registry.counter("repart.children"),
            epoch: registry.gauge("repart.epoch"),
        });
        let route = cfg.route.then(|| RouteInstruments {
            queries: registry.counter("route.queries"),
            shards_contacted: registry.counter("route.shards_contacted"),
            broadenings: registry.counter("route.broadenings"),
            covered: registry.counter("route.covered"),
            profiles: registry.counter("route.profiles"),
            retrains: registry.counter("route.retrains"),
            contacted_hist: registry.histogram("route.contacted"),
            recall_proxy: registry.histogram("route.recall_proxy_pct"),
            generation: registry.gauge("route.generation"),
        });
        ObsRecorder {
            spans: SpanRecorder::new(cfg.span_sample, cfg.span_capacity),
            multi_site: site.is_some(),
            queries: registry.counter("engine.queries"),
            cache_hits: registry.counter("cache.hits"),
            cache_misses: registry.counter("cache.misses"),
            out_cache_hit: registry.counter("engine.served.cache_hit"),
            out_full: registry.counter("engine.served.full"),
            out_degraded: registry.counter("engine.served.degraded"),
            out_stale: registry.counter("engine.served.stale"),
            out_failed: registry.counter("engine.served.failed"),
            out_shed: registry.counter("engine.served.shed"),
            out_partial: registry.counter("engine.served.partial"),
            out_routed: registry.counter("engine.served.routed"),
            hedges: registry.counter("engine.hedges"),
            latency_us: registry.histogram("engine.latency_us"),
            hedge_extra_us: registry.histogram("engine.hedge_extra_us"),
            scatter_batches: registry.counter("scatter.batches"),
            scatter_tasks: registry.counter("scatter.tasks"),
            broker_queries: registry.counter("broker.queries"),
            gather_merged_hits: registry.counter("gather.merged_hits"),
            gather_latency_us: registry.histogram("gather.latency_us"),
            shard_service_us: registry.histogram("shard.service_us"),
            shard_busy,
            shard_queries,
            site,
            crawl,
            repart,
            route,
            registry,
        }
    }

    /// The registry, for ad-hoc lookups and extra instruments.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time export of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Finished sampled spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.spans()
    }

    /// Live per-shard busy time, µs — the Figure 2 quantity, read from
    /// the instruments instead of the broker.
    pub fn busy_us(&self) -> Vec<f64> {
        self.shard_busy.iter().map(|g| g.get()).collect()
    }

    /// Live busy load normalized by its mean (Figure 2's y-axis).
    pub fn busy_load_normalized(&self) -> Vec<f64> {
        let busy = self.busy_us();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean <= 0.0 {
            return vec![0.0; busy.len()];
        }
        busy.iter().map(|&b| b / mean).collect()
    }

    /// Live per-site served counts (empty for single-site configs).
    pub fn site_served(&self) -> Vec<u64> {
        self.site
            .as_ref()
            .map_or_else(Vec::new, |s| s.per_site_served.iter().map(|c| c.get()).collect())
    }
}

impl Recorder for ObsRecorder {
    fn record(&self, event: Event) {
        match event {
            Event::QueryStart { qid, now } => {
                self.queries.inc();
                if self.multi_site {
                    self.spans.touch(qid, now, Stage::Admit, 0.0);
                } else {
                    self.spans.enter(qid, now, Stage::Admit, 0.0);
                }
            }
            Event::CacheLookup { qid, now, hit } => {
                if hit { &self.cache_hits } else { &self.cache_misses }.inc();
                self.spans.touch(qid, now, Stage::CacheLookup, f64::from(u8::from(hit)));
            }
            Event::ScatterDispatch { qid, now, partitions } => {
                self.scatter_batches.inc();
                self.scatter_tasks.add(u64::from(partitions));
                self.spans.touch(qid, now, Stage::ScatterDispatch, f64::from(partitions));
            }
            Event::ShardService { qid, now, partition, service_us } => {
                self.shard_service_us.record(service_us);
                if let Some(g) = self.shard_busy.get(partition as usize) {
                    g.add(service_us);
                }
                if let Some(c) = self.shard_queries.get(partition as usize) {
                    c.inc();
                }
                self.spans.touch(qid, now, Stage::ShardService, service_us);
            }
            Event::GatherDone { qid, now, merged_hits, latency_us } => {
                self.broker_queries.inc();
                self.gather_merged_hits.add(merged_hits);
                self.gather_latency_us.record(latency_us as f64);
                self.spans.touch(qid, now, Stage::Gather, latency_us as f64);
            }
            Event::Hedge { qid, now, partition: _, extra_us } => {
                self.hedges.inc();
                self.hedge_extra_us.record(extra_us);
                self.spans.touch(qid, now, Stage::Hedge, extra_us);
            }
            Event::Outcome { qid, now, outcome, latency_us } => {
                match outcome {
                    Outcome::CacheHit => self.out_cache_hit.inc(),
                    Outcome::Full => self.out_full.inc(),
                    Outcome::Degraded => self.out_degraded.inc(),
                    Outcome::StaleFromCache => self.out_stale.inc(),
                    Outcome::Failed => self.out_failed.inc(),
                    Outcome::Shed => self.out_shed.inc(),
                    Outcome::Partial => self.out_partial.inc(),
                    Outcome::Routed => self.out_routed.inc(),
                }
                if let Some(l) = latency_us {
                    self.latency_us.record(l as f64);
                }
                let v = latency_us.unwrap_or(0) as f64;
                if self.multi_site {
                    self.spans.touch(qid, now, Stage::Outcome, v);
                } else {
                    self.spans.close(qid, now, Stage::Outcome, v);
                }
            }
            Event::SiteAttempt { qid, now, site, remote: _ } => {
                if let Some(s) = &self.site {
                    s.attempts.inc();
                }
                self.spans.enter(qid, now, Stage::SiteAttempt, f64::from(site));
            }
            Event::SiteFailover { qid, now, site: _, backoff_us } => {
                if let Some(s) = &self.site {
                    s.failovers.inc();
                    s.backoff_us.record(backoff_us as f64);
                }
                self.spans.touch(qid, now, Stage::SiteFailover, backoff_us as f64);
            }
            Event::WanHop { qid, now, from: _, to: _, rtt_us } => {
                if let Some(s) = &self.site {
                    s.wan_hops_attempted.inc();
                    s.wan_rtt_us.record(rtt_us as f64);
                }
                self.spans.touch(qid, now, Stage::WanHop, rtt_us as f64);
            }
            Event::SiteOutcome {
                qid,
                now,
                outcome,
                site,
                hops,
                degraded,
                added_latency_us,
                latency_us,
            } => {
                if let Some(s) = &self.site {
                    match outcome {
                        SiteOutcome::ServedLocal => s.served_local.inc(),
                        SiteOutcome::ServedRemote => s.served_remote.inc(),
                        SiteOutcome::ShedOverload => s.shed_overload.inc(),
                        SiteOutcome::ShedDeadline => s.shed_deadline.inc(),
                        SiteOutcome::Failed => s.failed.inc(),
                    }
                    if degraded {
                        s.degraded.inc();
                    }
                    let served =
                        matches!(outcome, SiteOutcome::ServedLocal | SiteOutcome::ServedRemote);
                    if served {
                        s.wan_hops.add(u64::from(hops));
                        s.added_latency_us.add(added_latency_us);
                    }
                    if let Some(site) = site {
                        if let Some(c) = s.per_site_served.get(site as usize) {
                            c.inc();
                        }
                    }
                    if let Some(l) = latency_us {
                        s.latency_us.record(l as f64);
                    }
                }
                self.spans.close(qid, now, Stage::Outcome, latency_us.unwrap_or(0) as f64);
            }
            // Crawl-tier events carry no query key: counters only, no
            // span protocol.
            Event::CrawlCrash { agent: _, now: _, lost_inflight } => {
                if let Some(c) = &self.crawl {
                    c.crashes.inc();
                    c.lost_inflight.add(lost_inflight);
                }
            }
            Event::CrawlRecover { .. } => {
                if let Some(c) = &self.crawl {
                    c.recoveries.inc();
                }
            }
            Event::CrawlReassign { now: _, hosts_moved } => {
                if let Some(c) = &self.crawl {
                    c.hosts_moved.add(hosts_moved);
                }
            }
            Event::CrawlHandoff { to: _, now: _, hosts: _, urls } => {
                if let Some(c) = &self.crawl {
                    c.handoff_batches.inc();
                    c.handoff_urls.add(urls);
                }
            }
            Event::CrawlRefetch { .. } => {
                if let Some(c) = &self.crawl {
                    c.refetches.inc();
                }
            }
            // Repart events carry no query key either: counters only.
            Event::RepartSplit { now: _, parent: _, children, epoch } => {
                if let Some(r) = &self.repart {
                    r.splits.inc();
                    r.children.add(u64::from(children));
                    r.epoch.set(epoch as f64);
                }
            }
            Event::RepartAbort { .. } => {
                if let Some(r) = &self.repart {
                    r.aborts.inc();
                }
            }
            // Route events are counters/histograms only: the routed
            // query's span is already traced by the ordinary serving
            // events, and profile/retrain events carry no query key.
            Event::RouteServed { qid: _, now: _, contacted, active, broadenings, hits, k } => {
                if let Some(r) = &self.route {
                    r.queries.inc();
                    r.shards_contacted.add(u64::from(contacted));
                    r.broadenings.add(u64::from(broadenings));
                    if contacted >= active {
                        r.covered.inc();
                    }
                    r.contacted_hist.record(f64::from(contacted));
                    if k > 0 {
                        r.recall_proxy.record(100.0 * f64::from(hits) / f64::from(k));
                    }
                }
            }
            Event::RouteProfile { now: _, epoch: _, generation } => {
                if let Some(r) = &self.route {
                    r.profiles.inc();
                    r.generation.set(generation as f64);
                }
            }
            Event::RouteRetrain { now: _, generation } => {
                if let Some(r) = &self.route {
                    r.retrains.inc();
                    r.generation.set(generation as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_zero_sized_and_dead() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        assert!(!NoopRecorder.is_live());
        NoopRecorder.record(Event::QueryStart { qid: 1, now: 0 });
    }

    #[test]
    fn single_site_events_land_in_instruments_and_spans() {
        let rec = ObsRecorder::new(ObsConfig::single_site(2).sample(1));
        let qid = 42;
        rec.record(Event::QueryStart { qid, now: 0 });
        rec.record(Event::CacheLookup { qid, now: 0, hit: false });
        rec.record(Event::ScatterDispatch { qid, now: 0, partitions: 2 });
        rec.record(Event::ShardService { qid, now: 0, partition: 0, service_us: 200.0 });
        rec.record(Event::ShardService { qid, now: 0, partition: 1, service_us: 300.0 });
        rec.record(Event::GatherDone { qid, now: 0, merged_hits: 7, latency_us: 310 });
        rec.record(Event::Outcome { qid, now: 310, outcome: Outcome::Full, latency_us: Some(310) });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("engine.queries"), Some(1));
        assert_eq!(snap.counter("cache.misses"), Some(1));
        assert_eq!(snap.counter("engine.served.full"), Some(1));
        assert_eq!(snap.counter("scatter.tasks"), Some(2));
        assert_eq!(snap.counter("broker.queries"), Some(1));
        assert_eq!(rec.busy_us(), vec![200.0, 300.0]);
        assert_eq!(snap.counter("shard.000.queries"), Some(1));
        assert_eq!(snap.counter("shard.001.queries"), Some(1));
        assert_eq!(snap.histogram("engine.latency_us").map(|p| p.count()), Some(1));
        let spans = rec.spans();
        assert_eq!(spans.len(), 1, "span closed on Outcome");
        assert_eq!(spans[0].events.len(), 7);
        assert!(snap.counter("site.attempts").is_none(), "no site tier instruments");
    }

    #[test]
    fn multi_site_spans_open_on_site_attempt_and_close_on_site_outcome() {
        let rec = ObsRecorder::new(ObsConfig::multi_site(2, 3).sample(1));
        let qid = 7;
        rec.record(Event::SiteAttempt { qid, now: 0, site: 1, remote: false });
        rec.record(Event::QueryStart { qid, now: 0 });
        rec.record(Event::Outcome { qid, now: 9, outcome: Outcome::Failed, latency_us: None });
        rec.record(Event::SiteFailover { qid, now: 9, site: 1, backoff_us: 50 });
        rec.record(Event::WanHop { qid, now: 59, from: 1, to: 2, rtt_us: 80_000 });
        rec.record(Event::SiteAttempt { qid, now: 59, site: 2, remote: true });
        rec.record(Event::QueryStart { qid, now: 59 });
        rec.record(Event::Outcome { qid, now: 700, outcome: Outcome::Full, latency_us: Some(641) });
        rec.record(Event::SiteOutcome {
            qid,
            now: 700,
            outcome: SiteOutcome::ServedRemote,
            site: Some(2),
            hops: 1,
            degraded: false,
            added_latency_us: 80_050,
            latency_us: Some(80_691),
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("site.attempts"), Some(2));
        assert_eq!(snap.counter("site.failovers"), Some(1));
        assert_eq!(snap.counter("site.served_remote"), Some(1));
        assert_eq!(snap.counter("site.wan_hops"), Some(1));
        assert_eq!(snap.counter("site.added_latency_us"), Some(80_050));
        assert_eq!(snap.counter("engine.queries"), Some(2), "one per attempt");
        assert_eq!(rec.site_served(), vec![0, 0, 1]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1, "one span across both attempts");
        assert_eq!(spans[0].events.len(), 9);
    }

    #[test]
    fn out_of_range_partition_is_ignored() {
        let rec = ObsRecorder::new(ObsConfig::single_site(1).sample(0));
        rec.record(Event::ShardService { qid: 1, now: 0, partition: 99, service_us: 5.0 });
        assert_eq!(rec.busy_us(), vec![0.0]);
        assert_eq!(rec.snapshot().histogram("shard.service_us").map(|p| p.count()), Some(1));
    }

    #[test]
    fn crawl_events_land_in_crawl_instruments_only_when_enabled() {
        let rec = ObsRecorder::new(ObsConfig::crawl_tier());
        rec.record(Event::CrawlCrash { agent: 1, now: 10, lost_inflight: 3 });
        rec.record(Event::CrawlReassign { now: 10, hosts_moved: 12 });
        rec.record(Event::CrawlHandoff { to: 0, now: 10, hosts: 4, urls: 40 });
        rec.record(Event::CrawlHandoff { to: 2, now: 10, hosts: 1, urls: 5 });
        rec.record(Event::CrawlRecover { agent: 1, now: 90 });
        rec.record(Event::CrawlRefetch { agent: 0, now: 95 });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("crawl.crashes"), Some(1));
        assert_eq!(snap.counter("crawl.recoveries"), Some(1));
        assert_eq!(snap.counter("crawl.lost_inflight"), Some(3));
        assert_eq!(snap.counter("crawl.hosts_moved"), Some(12));
        assert_eq!(snap.counter("crawl.handoff_batches"), Some(2));
        assert_eq!(snap.counter("crawl.handoff_urls"), Some(45));
        assert_eq!(snap.counter("crawl.refetches"), Some(1));
        assert!(rec.spans().is_empty(), "crawl events never open spans");

        // A serving-only recorder ignores crawl events entirely.
        let serving = ObsRecorder::new(ObsConfig::single_site(1));
        serving.record(Event::CrawlCrash { agent: 0, now: 0, lost_inflight: 9 });
        assert!(serving.snapshot().counter("crawl.crashes").is_none());
    }

    #[test]
    fn repart_events_land_in_repart_instruments_only_when_enabled() {
        let rec = ObsRecorder::new(ObsConfig::single_site(4).with_repart());
        rec.record(Event::RepartSplit { now: 5, parent: 0, children: 2, epoch: 1 });
        rec.record(Event::RepartAbort { now: 9, parent: 1, epoch: 1 });
        rec.record(Event::RepartSplit { now: 12, parent: 1, children: 2, epoch: 2 });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("repart.splits"), Some(2));
        assert_eq!(snap.counter("repart.aborts"), Some(1));
        assert_eq!(snap.counter("repart.children"), Some(4));
        assert_eq!(snap.gauge("repart.epoch"), Some(2.0));
        assert!(rec.spans().is_empty(), "repart events never open spans");

        // A static-layout recorder ignores repart events entirely.
        let fixed = ObsRecorder::new(ObsConfig::single_site(4));
        fixed.record(Event::RepartSplit { now: 0, parent: 0, children: 2, epoch: 1 });
        assert!(fixed.snapshot().counter("repart.splits").is_none());
    }

    #[test]
    fn route_events_land_in_route_instruments_only_when_enabled() {
        let rec = ObsRecorder::new(ObsConfig::single_site(4).with_route());
        rec.record(Event::RouteProfile { now: 1, epoch: 0, generation: 0 });
        rec.record(Event::RouteServed {
            qid: 7,
            now: 2,
            contacted: 2,
            active: 4,
            broadenings: 1,
            hits: 9,
            k: 10,
        });
        rec.record(Event::RouteServed {
            qid: 8,
            now: 3,
            contacted: 4,
            active: 4,
            broadenings: 0,
            hits: 10,
            k: 10,
        });
        rec.record(Event::RouteRetrain { now: 4, generation: 1 });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("route.queries"), Some(2));
        assert_eq!(snap.counter("route.shards_contacted"), Some(6));
        assert_eq!(snap.counter("route.broadenings"), Some(1));
        assert_eq!(snap.counter("route.covered"), Some(1));
        assert_eq!(snap.counter("route.profiles"), Some(1));
        assert_eq!(snap.counter("route.retrains"), Some(1));
        assert_eq!(snap.gauge("route.generation"), Some(1.0));
        let hist = snap.histogram("route.contacted").expect("contacted histogram");
        assert_eq!(hist.count(), 2);
        let recall = snap.histogram("route.recall_proxy_pct").expect("recall histogram");
        assert_eq!(recall.count(), 2);
        assert!(rec.spans().is_empty(), "route events never open spans");

        // A recorder without the route family ignores route events entirely.
        let fixed = ObsRecorder::new(ObsConfig::single_site(4));
        fixed.record(Event::RouteRetrain { now: 0, generation: 1 });
        assert!(fixed.snapshot().counter("route.retrains").is_none());
    }

    #[test]
    fn full_system_instrument_names_do_not_collide() {
        use std::collections::BTreeSet;
        let names = |cfg: ObsConfig| -> BTreeSet<String> {
            ObsRecorder::new(cfg).snapshot().entries().iter().map(|(n, _)| n.clone()).collect()
        };
        let base = names(ObsConfig::single_site(3));
        let site = &names(ObsConfig::multi_site(3, 2)) - &base;
        let crawl = &names(ObsConfig::crawl_tier()) - &names(ObsConfig::single_site(0));
        let repart = &names(ObsConfig::single_site(3).with_repart()) - &base;
        let route = &names(ObsConfig::single_site(3).with_route()) - &base;
        assert!(!site.is_empty() && !crawl.is_empty() && !repart.is_empty() && !route.is_empty());
        // Composing every family shares the always-present engine set
        // and adds each optional set exactly once: no name appears in
        // two families, and the union is exactly the full registry.
        let mut union = base.clone();
        for family in [&site, &crawl, &repart, &route] {
            for name in family {
                assert!(union.insert(name.clone()), "instrument {name:?} collides across tiers");
            }
        }
        assert_eq!(union, names(ObsConfig::full_system(3, 2)));
    }

    #[test]
    fn arc_recorder_delegates() {
        let rec = Arc::new(ObsRecorder::new(ObsConfig::single_site(1).sample(0)));
        assert!(Recorder::is_live(&rec));
        Recorder::record(&rec, Event::QueryStart { qid: 1, now: 0 });
        assert_eq!(rec.snapshot().counter("engine.queries"), Some(1));
    }
}
