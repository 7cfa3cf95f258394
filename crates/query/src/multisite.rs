//! The live multi-site engine: outage-driven failover over the WAN.
//!
//! Section 5's site tier, served end to end: a
//! [`MultiSiteEngine`] owns one (possibly fault-injected)
//! [`DistributedEngine`] per site plus a WAN [`Topology`], and each
//! site's up/down state comes from a materialized outage [`Timeline`]
//! ("we say that a site is unavailable if it is not possible to reach any
//! of the servers of this site"). Queries are routed to the nearest *live* site — the paper's
//! DNS-redirection picture — and the engine keeps answering, possibly
//! degraded, through whole-site outages:
//!
//! * **Failover.** When an attempt is lost — the chosen site's backend
//!   returns [`Served::Failed`], the site dies mid-flight
//!   ([`Timeline::fails_during`] over the attempt's WAN + service window), or
//!   the response would land after the per-query deadline — the query
//!   fails over to the next-nearest live site. Every lost attempt
//!   charges a doubling backoff against the deadline, and the number of
//!   dispatch attempts is capped, so a query can never retry forever.
//! * **Load shedding.** Each site admits at most
//!   `shed_threshold × capacity_qps` queries per utilization window;
//!   overflow spills to the next-nearest live site below threshold, and
//!   when every live site is saturated the query is *explicitly* shed as
//!   [`Served::Shed`] — never silently dropped.
//! * **Accounting.** Every outcome lands in exactly one
//!   [`MultiSiteStats`] bucket (served-local, served-remote, shed by
//!   overload, shed by deadline, failed), with WAN hops, failover
//!   retries, inner hedges, and the latency added by the WAN on top.
//!
//! `Served::Failed` is reserved for the one case the paper allows it:
//! **no site was live at dispatch time**. Any schedule that leaves at
//! least one site up yields only served/degraded/shed outcomes — the
//! property `tests/site_chaos.rs` pins.
//!
//! Everything is deterministic given the traces and the query stream,
//! and all serving methods take `&self` (atomic counters, per-site
//! mutexes), so threads can share one engine behind an `Arc` — the
//! parallel-equivalence guarantee of the single-site engine lifts
//! unchanged to the site tier.

use crate::broker::GlobalHit;
use crate::cache::ResultCache;
use crate::engine::{query_key, DistributedEngine, Served};
use crate::lock_recovering;
use dwr_avail::failure::Timeline;
use dwr_obs::{Event, NoopRecorder, Recorder, SiteOutcome};
use dwr_sim::net::{SiteId, Topology};
use dwr_sim::{SimTime, MILLISECOND, MINUTE, SECOND};
use dwr_text::TermId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// WAN message size of a query request, bytes.
const REQUEST_BYTES: u64 = 200;
/// WAN message size of a result page, bytes.
const RESPONSE_BYTES: u64 = 4_000;

/// Site-tier routing and robustness knobs.
#[derive(Debug, Clone, Copy)]
pub struct MultiSiteConfig {
    /// Per-query latency budget: WAN transfer, backoff, and backend
    /// service must all fit inside it. Attempts that cannot are not made
    /// (or, mid-flight, are written off and failed over).
    pub deadline: SimTime,
    /// Maximum dispatch attempts per query (first try + failovers).
    pub max_attempts: usize,
    /// Backoff charged against the deadline for each lost attempt,
    /// doubling per retry (timeout detection + re-dispatch cost).
    pub backoff: SimTime,
    /// Utilization above which a site stops admitting queries. Overflow
    /// spills to the next-nearest live site; `f64::INFINITY` disables
    /// admission control entirely.
    pub shed_threshold: f64,
    /// Window over which per-site utilization is measured.
    pub util_window: SimTime,
}

impl Default for MultiSiteConfig {
    fn default() -> Self {
        MultiSiteConfig {
            deadline: 2 * SECOND,
            max_attempts: 3,
            backoff: 50 * MILLISECOND,
            shed_threshold: f64::INFINITY,
            util_window: MINUTE,
        }
    }
}

/// One site handed to [`MultiSiteEngine::new`].
pub struct SiteEngineSpec<C: ResultCache, R: Recorder = NoopRecorder> {
    /// The region whose queries are local to this site.
    pub region: u16,
    /// Serving capacity, queries/second — the denominator of measured
    /// utilization for admission control.
    pub capacity_qps: f64,
    /// The site's serving stack (optionally fault-injected itself; its
    /// clock is driven by [`MultiSiteEngine::advance_to`]). For coherent
    /// tier-wide accounting, every site's engine must carry the *same*
    /// recorder instance (share an `Arc<ObsRecorder>`).
    pub engine: DistributedEngine<C, R>,
    /// The site's whole-site outage timeline.
    pub outages: Timeline,
}

/// Admission-control state: queries admitted in the current window.
#[derive(Debug, Default)]
struct UtilWindow {
    bucket: u64,
    admitted: u64,
}

struct SiteNode<C: ResultCache, R: Recorder> {
    region: u16,
    capacity_qps: f64,
    engine: DistributedEngine<C, R>,
    outages: Timeline,
    window: Mutex<UtilWindow>,
}

impl<C: ResultCache, R: Recorder> SiteNode<C, R> {
    /// The site's admission quota per utilization window.
    fn quota(&self, cfg: &MultiSiteConfig) -> f64 {
        cfg.shed_threshold * self.capacity_qps * (cfg.util_window as f64 / SECOND as f64)
    }

    /// Admit one query at `now`, or refuse because the window's quota is
    /// spent. Every admission is counted, so [`Self::utilization`] is
    /// measured under any threshold; only a finite one ever refuses.
    fn admit(&self, now: SimTime, cfg: &MultiSiteConfig) -> bool {
        let bucket = now / cfg.util_window.max(1);
        let mut w = lock_recovering(&self.window);
        if w.bucket != bucket {
            w.bucket = bucket;
            w.admitted = 0;
        }
        if cfg.shed_threshold.is_finite() && w.admitted as f64 >= self.quota(cfg) {
            return false;
        }
        w.admitted += 1;
        true
    }

    /// Measured utilization of the window containing `now` (admitted
    /// arrival rate over capacity).
    fn utilization(&self, now: SimTime, cfg: &MultiSiteConfig) -> f64 {
        let bucket = now / cfg.util_window.max(1);
        let w = lock_recovering(&self.window);
        if w.bucket != bucket {
            return 0.0;
        }
        let window_s = cfg.util_window as f64 / SECOND as f64;
        w.admitted as f64 / (self.capacity_qps * window_s)
    }
}

/// Site-tier outcome counters. Every query lands in exactly one of
/// `served_local`, `served_remote`, `shed_overload`, `shed_deadline`,
/// `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiSiteStats {
    /// Served by the query's nearest (anchor) site.
    pub served_local: u64,
    /// Served by a remote site after geographic failover or spill.
    pub served_remote: u64,
    /// Of the served queries, how many came back degraded (missing
    /// partitions at the serving site).
    pub degraded: u64,
    /// Of the served queries, how many were answered on a routed subset
    /// of the serving site's partitions ([`Served::Routed`]). Routing is
    /// deliberate — these are *not* counted as degraded.
    pub routed: u64,
    /// Shed by admission control: every live site was over its threshold.
    pub shed_overload: u64,
    /// Shed by the WAN budget: deadline or attempt cap exhausted while
    /// live sites remained.
    pub shed_deadline: u64,
    /// No site was live at dispatch time.
    pub failed: u64,
    /// Attempts lost mid-flight (site death, late response, or a dead
    /// backend) and retried on another site.
    pub failovers: u64,
    /// Hedged replica retries inside the per-site engines, summed.
    pub hedged: u64,
    /// WAN hops taken by served queries (0 for served-local).
    pub wan_hops: u64,
    /// Simulated latency added on top of backend service for served
    /// queries: WAN transfer plus failover backoff, µs.
    pub added_latency_us: u64,
}

impl MultiSiteStats {
    /// Queries that reached a result page.
    pub fn answered(&self) -> u64 {
        self.served_local + self.served_remote
    }

    /// Queries explicitly refused (overload + deadline).
    pub fn shed(&self) -> u64 {
        self.shed_overload + self.shed_deadline
    }

    /// Every query accounted for.
    pub fn total(&self) -> u64 {
        self.answered() + self.shed() + self.failed
    }
}

#[derive(Debug, Default)]
struct Counters {
    served_local: AtomicU64,
    served_remote: AtomicU64,
    degraded: AtomicU64,
    routed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    failed: AtomicU64,
    failovers: AtomicU64,
    wan_hops: AtomicU64,
    added_latency_us: AtomicU64,
}

/// Full outcome of one site-tier query.
#[derive(Debug, Clone)]
pub struct MultiSiteResponse {
    /// Merged top-k from the serving site (empty for shed/failed).
    pub hits: Vec<GlobalHit>,
    /// How the query was answered; [`Served::Shed`] and
    /// [`Served::Failed`] are the two no-result outcomes.
    pub served: Served,
    /// The serving site, when one answered.
    pub site: Option<usize>,
    /// Remote hops this query took (attempted, served or not).
    pub wan_hops: u32,
    /// End-to-end simulated latency — WAN, backoff spent on lost
    /// attempts, and backend service — when a site answered.
    pub latency: Option<SimTime>,
}

/// The site tier: one engine per site, outage-trace liveness, WAN
/// failover with budgets, and load shedding. See the module docs.
pub struct MultiSiteEngine<C: ResultCache, R: Recorder = NoopRecorder> {
    sites: Vec<SiteNode<C, R>>,
    topo: Topology,
    /// Per anchor site, every site nearest first
    /// ([`Topology::order_by_latency`]): the failover order.
    orders: Vec<Vec<SiteId>>,
    cfg: MultiSiteConfig,
    counters: Counters,
    clock: AtomicU64,
    /// The tier's own observability sink — a clone of the first site's
    /// recorder (every site must share one instance; see
    /// [`SiteEngineSpec::engine`]).
    recorder: R,
}

impl<C: ResultCache, R: Recorder + Clone> MultiSiteEngine<C, R> {
    /// Assemble the tier from per-site stacks, a WAN topology, and the
    /// routing/robustness knobs.
    pub fn new(sites: Vec<SiteEngineSpec<C, R>>, topo: Topology, cfg: MultiSiteConfig) -> Self {
        assert!(!sites.is_empty());
        assert_eq!(topo.sites(), sites.len(), "one topology node per site");
        assert!(cfg.deadline > 0 && cfg.max_attempts >= 1);
        assert!(cfg.shed_threshold > 0.0 && cfg.util_window > 0);
        let recorder = sites[0].engine.recorder().clone();
        let sites = sites
            .into_iter()
            .map(|s| SiteNode {
                region: s.region,
                capacity_qps: s.capacity_qps,
                engine: s.engine,
                outages: s.outages,
                window: Mutex::new(UtilWindow::default()),
            })
            .collect();
        let orders = (0..topo.sites() as u32).map(|s| topo.order_by_latency(SiteId(s))).collect();
        MultiSiteEngine {
            sites,
            topo,
            orders,
            cfg,
            counters: Counters::default(),
            clock: AtomicU64::new(0),
            recorder,
        }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// The engine's simulated clock.
    pub fn now(&self) -> SimTime {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advance the simulated clock to `t`, propagating it to every
    /// site's engine: the instant at which each reads its inner fault
    /// schedule, and to which it fires due splits and checks its router.
    /// Callable from any thread while others serve.
    pub fn advance_to(&self, t: SimTime) {
        self.clock.store(t, Ordering::Relaxed);
        for node in &self.sites {
            node.engine.advance_to(t);
        }
    }

    /// The per-site serving stack, for inspection.
    pub fn site_engine(&self, site: usize) -> &DistributedEngine<C, R> {
        &self.sites[site].engine
    }

    /// The tier's observability recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// How many sites their outage traces say are up at `t`.
    pub fn live_sites(&self, t: SimTime) -> usize {
        self.sites.iter().filter(|node| node.outages.is_up(t)).count()
    }

    /// Measured utilization of `site` in the window containing `now`.
    pub fn utilization(&self, site: usize) -> f64 {
        self.sites[site].utilization(self.now(), &self.cfg)
    }

    /// The site anchoring `region`'s traffic (first site in that region,
    /// else site 0).
    fn anchor(&self, region: u16) -> usize {
        self.sites.iter().position(|n| n.region == region).unwrap_or(0)
    }

    /// Serve one query arriving from `region` at the engine's current
    /// simulated instant. See the module docs for the routing discipline.
    pub fn query(&self, region: u16, terms: &[TermId], k: usize) -> MultiSiteResponse {
        let now = self.now();
        let anchor = self.anchor(region);
        let anchor_id = SiteId(anchor as u32);
        // The query key is only needed for event correlation; skip the
        // hash when nobody is listening.
        let qid = if self.recorder.is_live() { query_key(terms) } else { 0 };

        let mut spent: SimTime = 0; // WAN + backoff charged so far
        let mut hops: u32 = 0;
        let mut attempts = 0usize;
        let mut backoff = self.cfg.backoff.max(1);
        let mut any_live = false;
        let mut refused_overload = false;

        for &sid in &self.orders[anchor] {
            let s = sid.0 as usize;
            let node = &self.sites[s];
            if !node.outages.is_up(now) {
                continue; // dead at dispatch time: never a candidate
            }
            any_live = true;
            if attempts >= self.cfg.max_attempts {
                break; // retry budget exhausted
            }
            let remote = s != anchor;
            let wan = if remote {
                self.topo.rtt(anchor_id, sid, REQUEST_BYTES, RESPONSE_BYTES)
            } else {
                0
            };
            if spent.saturating_add(wan) >= self.cfg.deadline {
                break; // even an instant answer from here would be late
            }
            if !node.admit(now, &self.cfg) {
                refused_overload = true;
                continue; // overflow spills to the next-nearest live site
            }
            attempts += 1;
            self.recorder.record(Event::SiteAttempt { qid, now, site: s as u32, remote });
            if remote {
                hops += 1;
                self.recorder.record(Event::WanHop {
                    qid,
                    now,
                    from: anchor as u32,
                    to: s as u32,
                    rtt_us: wan,
                });
            }
            let r = node.engine.query_full(terms, k);
            let svc = r.latency.unwrap_or(0);
            let total = wan + svc;
            let lost = match r.served {
                // The site is reachable but its backend had nothing —
                // a dispatch failure at the site tier, so fail over.
                Served::Failed => true,
                _ => {
                    // Late responses are written off against the
                    // deadline; otherwise the attempt survives only if
                    // the site does not die inside its WAN + service
                    // window.
                    spent + total > self.cfg.deadline
                        || node.outages.fails_during(now, now + total.max(1))
                }
            };
            if lost {
                self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                self.recorder.record(Event::SiteFailover {
                    qid,
                    now,
                    site: s as u32,
                    backoff_us: backoff,
                });
                spent = spent.saturating_add(wan).saturating_add(backoff);
                backoff = backoff.saturating_mul(2);
                continue;
            }
            // Served. Account and return.
            let bucket =
                if remote { &self.counters.served_remote } else { &self.counters.served_local };
            bucket.fetch_add(1, Ordering::Relaxed);
            if matches!(
                r.served,
                Served::Degraded { .. } | Served::StaleFromCache | Served::Partial { .. }
            ) {
                self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(r.served, Served::Routed { .. }) {
                self.counters.routed.fetch_add(1, Ordering::Relaxed);
            }
            self.counters.wan_hops.fetch_add(u64::from(hops), Ordering::Relaxed);
            self.counters.added_latency_us.fetch_add(spent + wan, Ordering::Relaxed);
            self.recorder.record(Event::SiteOutcome {
                qid,
                now,
                outcome: if remote { SiteOutcome::ServedRemote } else { SiteOutcome::ServedLocal },
                site: Some(s as u32),
                hops,
                degraded: matches!(
                    r.served,
                    Served::Degraded { .. } | Served::StaleFromCache | Served::Partial { .. }
                ),
                added_latency_us: spent + wan,
                latency_us: Some(spent + total),
            });
            return MultiSiteResponse {
                hits: r.hits,
                served: r.served,
                site: Some(s),
                wan_hops: hops,
                latency: Some(spent + total),
            };
        }

        if any_live {
            // Live capacity existed but policy refused the query: an
            // explicit shed, never a silent drop. Pure admission refusals
            // are overload; anything that consumed budget is deadline.
            let overload = refused_overload && attempts == 0 && spent == 0;
            let bucket =
                if overload { &self.counters.shed_overload } else { &self.counters.shed_deadline };
            bucket.fetch_add(1, Ordering::Relaxed);
            self.recorder.record(Event::SiteOutcome {
                qid,
                now,
                outcome: if overload {
                    SiteOutcome::ShedOverload
                } else {
                    SiteOutcome::ShedDeadline
                },
                site: None,
                hops,
                degraded: false,
                added_latency_us: 0,
                latency_us: None,
            });
            return MultiSiteResponse {
                hits: Vec::new(),
                served: Served::Shed,
                site: None,
                wan_hops: hops,
                latency: None,
            };
        }
        self.counters.failed.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(Event::SiteOutcome {
            qid,
            now,
            outcome: SiteOutcome::Failed,
            site: None,
            hops,
            degraded: false,
            added_latency_us: 0,
            latency_us: None,
        });
        MultiSiteResponse {
            hits: Vec::new(),
            served: Served::Failed,
            site: None,
            wan_hops: hops,
            latency: None,
        }
    }

    /// Counters so far (inner hedges summed across the site engines).
    pub fn stats(&self) -> MultiSiteStats {
        MultiSiteStats {
            served_local: self.counters.served_local.load(Ordering::Relaxed),
            served_remote: self.counters.served_remote.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            routed: self.counters.routed.load(Ordering::Relaxed),
            shed_overload: self.counters.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            hedged: self.sites.iter().map(|n| n.engine.stats().hedged).sum(),
            wan_hops: self.counters.wan_hops.load(Ordering::Relaxed),
            added_latency_us: self.counters.added_latency_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::LruCache;
    use dwr_avail::failure::DownInterval;
    use dwr_partition::doc::{DocPartitioner, RoundRobinPartitioner};
    use dwr_partition::parted::{Corpus, PartitionedIndex};
    use dwr_sim::{DAY, HOUR};

    fn index() -> PartitionedIndex {
        let corpus: Corpus =
            (0..24u32).map(|d| vec![(TermId(d % 5), 2), (TermId(50 + d % 3), 1)]).collect();
        let a = RoundRobinPartitioner.assign(&corpus, 4);
        PartitionedIndex::build(&corpus, &a, 4)
    }

    fn iv(start: SimTime, end: SimTime) -> DownInterval {
        DownInterval { start, end }
    }

    /// Three sites on a geo ring, all up unless a trace says otherwise.
    fn engine_with_traces(
        traces: Vec<Timeline>,
        cfg: MultiSiteConfig,
    ) -> MultiSiteEngine<LruCache> {
        let pi = index();
        let sites = traces
            .into_iter()
            .enumerate()
            .map(|(s, outages)| SiteEngineSpec {
                region: s as u16,
                capacity_qps: 100.0,
                engine: DistributedEngine::new(&pi, LruCache::new(16), 1),
                outages,
            })
            .collect();
        MultiSiteEngine::new(sites, Topology::geo_ring(3), cfg)
    }

    fn all_up() -> Vec<Timeline> {
        (0..3).map(|_| Timeline::always_up(DAY)).collect()
    }

    #[test]
    fn local_site_serves_local_queries() {
        let e = engine_with_traces(all_up(), MultiSiteConfig::default());
        let r = e.query(1, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Full);
        assert_eq!(r.site, Some(1));
        assert_eq!(r.wan_hops, 0);
        let s = e.stats();
        assert_eq!((s.served_local, s.served_remote, s.wan_hops), (1, 0, 0));
        assert_eq!(s.added_latency_us, 0, "no WAN cost for local service");
    }

    #[test]
    fn routed_service_is_counted_but_not_degraded() {
        use crate::route::ShardRouter;
        use std::sync::Arc;
        let pi = index();
        let sites = (0..3)
            .map(|s| SiteEngineSpec {
                region: s as u16,
                capacity_qps: 100.0,
                engine: DistributedEngine::new(&pi, LruCache::new(16), 1)
                    .with_router(Arc::new(ShardRouter::cori(2))),
                outages: Timeline::always_up(DAY),
            })
            .collect();
        let e = MultiSiteEngine::new(sites, Topology::geo_ring(3), MultiSiteConfig::default());
        // k=1 is satisfied inside the top-2 tranche, so the answer is
        // honestly Routed, deliberate — not a degradation.
        let r = e.query(1, &[TermId(1)], 1);
        assert_eq!(r.served, Served::Routed { partitions_contacted: 2 });
        let s = e.stats();
        assert_eq!((s.routed, s.degraded, s.failed), (1, 0, 0));
        assert_eq!(s.total(), 1);
    }

    #[test]
    fn dead_local_site_fails_over_to_nearest_live() {
        let mut traces = all_up();
        traces[0] = Timeline::new(vec![iv(0, DAY)], DAY);
        let e = engine_with_traces(traces, MultiSiteConfig::default());
        let r = e.query(0, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Full);
        // Ring neighbours of site 0 are 1 and 2, tie broken by id.
        assert_eq!(r.site, Some(1));
        assert_eq!(r.wan_hops, 1);
        let wan = Topology::geo_ring(3).rtt(SiteId(0), SiteId(1), 200, 4_000);
        assert!(r.latency.unwrap() > wan, "latency includes the WAN round trip");
        let s = e.stats();
        assert_eq!((s.served_local, s.served_remote), (0, 1));
        assert_eq!(s.wan_hops, 1);
        assert!(s.added_latency_us >= wan);
    }

    #[test]
    fn all_sites_down_is_the_only_failed_outcome() {
        let traces = (0..3).map(|_| Timeline::new(vec![iv(0, DAY)], DAY)).collect();
        let e = engine_with_traces(traces, MultiSiteConfig::default());
        let r = e.query(0, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Failed);
        assert!(r.hits.is_empty());
        assert_eq!(e.stats().failed, 1);
        assert_eq!(e.stats().total(), 1);
    }

    #[test]
    fn mid_query_site_death_is_retried_with_backoff() {
        // Site 0 is up at dispatch (t=0) but dies 1 µs in — inside any
        // real service window — so the attempt is lost and the query
        // fails over to site 1, charged one backoff.
        let mut traces = all_up();
        traces[0] = Timeline::new(vec![iv(1, HOUR)], DAY);
        let cfg = MultiSiteConfig::default();
        let e = engine_with_traces(traces, cfg);
        let r = e.query(0, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Full);
        assert_eq!(r.site, Some(1));
        let s = e.stats();
        assert_eq!(s.failovers, 1, "the lost local attempt was retried");
        assert_eq!(s.served_remote, 1);
        assert!(r.latency.unwrap() >= cfg.backoff, "backoff is charged into the observed latency");
        // The lost attempt still consumed the local site's backend.
        assert_eq!(e.site_engine(0).stats().full, 1);
    }

    #[test]
    fn deadline_too_small_for_wan_sheds_instead_of_failing() {
        // Local site down all day; remote sites live but unreachable
        // within a 1 µs deadline. Live capacity exists → Shed, not
        // Failed.
        let mut traces = all_up();
        traces[0] = Timeline::new(vec![iv(0, DAY)], DAY);
        let cfg = MultiSiteConfig { deadline: 1, ..MultiSiteConfig::default() };
        let e = engine_with_traces(traces, cfg);
        let r = e.query(0, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Shed);
        let s = e.stats();
        assert_eq!(s.shed_deadline, 1);
        assert_eq!(s.failed, 0);
    }

    #[test]
    fn retry_cap_bounds_the_failover_cascade() {
        // Every site dies right after dispatch: each attempt is lost
        // mid-flight. The cascade must stop at max_attempts and land in
        // shed_deadline.
        let traces = (0..3).map(|_| Timeline::new(vec![iv(1, DAY)], DAY)).collect();
        let cfg = MultiSiteConfig { max_attempts: 2, ..MultiSiteConfig::default() };
        let e = engine_with_traces(traces, cfg);
        let r = e.query(0, &[TermId(1)], 10);
        assert_eq!(r.served, Served::Shed);
        let s = e.stats();
        assert_eq!(s.failovers, 2, "exactly max_attempts dispatches were lost");
        assert_eq!(s.shed_deadline, 1);
    }

    #[test]
    fn overload_spills_then_sheds_explicitly() {
        // Quota: 0.5 × 2 qps × 1 s window = 1 query per site per window.
        let pi = index();
        let sites = (0..2)
            .map(|s| SiteEngineSpec {
                region: s as u16,
                capacity_qps: 2.0,
                engine: DistributedEngine::new(&pi, LruCache::new(16), 1),
                outages: Timeline::always_up(DAY),
            })
            .collect();
        let cfg = MultiSiteConfig {
            shed_threshold: 0.5,
            util_window: SECOND,
            ..MultiSiteConfig::default()
        };
        let e = MultiSiteEngine::new(sites, Topology::geo_ring(2), cfg);
        // Three distinct queries at the same instant from region 0:
        // 1st admitted locally, 2nd spills to site 1, 3rd is shed.
        let a = e.query(0, &[TermId(0)], 10);
        let b = e.query(0, &[TermId(1)], 10);
        let c = e.query(0, &[TermId(2)], 10);
        assert_eq!(a.site, Some(0));
        assert_eq!(b.site, Some(1), "overflow spilled to the other live site");
        assert_eq!(c.served, Served::Shed, "everyone saturated: explicit shed");
        let s = e.stats();
        assert_eq!((s.served_local, s.served_remote, s.shed_overload), (1, 1, 1));
        assert_eq!(s.total(), 3, "no query silently dropped");
        assert!(e.utilization(0) >= 0.5);
        // The next window admits again.
        e.advance_to(2 * SECOND);
        assert_eq!(e.query(0, &[TermId(3)], 10).site, Some(0));
    }

    #[test]
    fn default_config_measures_utilization() {
        // Regression: with the default infinite threshold, admission kept
        // no window state, so utilization read 0.0 under any load.
        let e = engine_with_traces(all_up(), MultiSiteConfig::default());
        let n = 30;
        for i in 0..n {
            e.query(0, &[TermId(i % 5)], 10);
        }
        let window_s = MultiSiteConfig::default().util_window as f64 / SECOND as f64;
        assert_eq!(e.utilization(0), f64::from(n) / (100.0 * window_s));
        assert_eq!(e.utilization(1), 0.0, "no traffic from region 1");
    }

    #[test]
    fn hourly_quota_offloads_the_busy_site_without_shedding() {
        // Quota: 0.5 × 0.01 qps × 3600 s = 18 queries per site per hour.
        // 40 queries from region 0 fit under the 54 the three sites admit
        // together: the busy site stops at its quota, the overflow is
        // served remotely, and nothing is shed.
        let cfg = MultiSiteConfig {
            shed_threshold: 0.5,
            util_window: HOUR,
            ..MultiSiteConfig::default()
        };
        let pi = index();
        let sites = (0..3)
            .map(|s| SiteEngineSpec {
                region: s as u16,
                capacity_qps: 0.01,
                engine: DistributedEngine::new(&pi, LruCache::new(16), 1),
                outages: Timeline::always_up(DAY),
            })
            .collect();
        let e = MultiSiteEngine::new(sites, Topology::geo_ring(3), cfg);
        for i in 0..40u64 {
            e.advance_to(i * MINUTE);
            e.query(0, &[TermId((i % 5) as u32)], 10);
        }
        let util: Vec<f64> = (0..3).map(|s| e.utilization(s)).collect();
        assert!(util.iter().all(|&u| u <= 0.5), "{util:?}");
        assert_eq!(util[0], 0.5, "the busy site runs at its threshold");
        let s = e.stats();
        assert_eq!((s.served_local, s.served_remote, s.shed()), (18, 22, 0));
    }

    #[test]
    fn outcomes_are_deterministic_given_the_same_traces() {
        let run = || {
            let mut traces = all_up();
            traces[1] = Timeline::new(vec![iv(HOUR, 5 * HOUR)], DAY);
            let e = engine_with_traces(traces, MultiSiteConfig::default());
            let mut hits = Vec::new();
            for i in 0..100u64 {
                e.advance_to(i * DAY / 100);
                let r = e.query((i % 3) as u16, &[TermId((i % 5) as u32)], 10);
                hits.push((r.served, r.site, r.latency));
            }
            (hits, e.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let e = engine_with_traces(all_up(), MultiSiteConfig::default());
        assert_send_sync(&e);
    }
}
