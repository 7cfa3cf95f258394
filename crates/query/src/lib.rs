//! # dwr-query — distributed query processing (Section 5)
//!
//! The paper's query-processing model has three component roles —
//! coordinator, cache, query processor — spread over sites. This crate
//! implements the whole stack:
//!
//! * [`broker`] — document-partitioned scatter-gather with per-server
//!   busy-time accounting (the left panel of Figure 2), optional
//!   collection selection, and hierarchical merge;
//! * [`pipeline`] — term-partitioned *pipelined* evaluation (Webber et al.
//!   \[16\]; right panel of Figure 2), where a query visits exactly the
//!   servers holding its terms and busy load concentrates on the servers
//!   owning popular terms;
//! * [`cache`] — result caching: LRU, LFU and SDC (static-dynamic, Fagni
//!   et al. \[51\]), including serving stale results during backend outages
//!   ("upon query processor failures, the system returns cached results");
//! * [`replica`] — replica groups with failover dispatch, and a
//!   primary-backup replicated user-profile store for personalization
//!   state (Section 5's consistency discussion);
//! * [`route`] — selective search on the serving path: a
//!   [`route::ShardRouter`] wraps a collection selector, contacts only
//!   the top-*t* shards per query with a recall-safe broadening cascade,
//!   snapshots selector statistics per epoch (so routing composes with
//!   live repartitioning), and retrains profiles on topic drift;
//! * [`multisite`] — the site tier: a [`multisite::MultiSiteEngine`]
//!   owns one fault-injected engine per site plus a WAN topology, drives
//!   per-site liveness from `dwr_avail::failure::Timeline` outage traces, and
//!   serves queries end-to-end with geographic (DNS-style) nearest-live
//!   routing, load-aware offloading across time zones \[33\] by admission
//!   quota, budgeted WAN failover, and explicit load shedding;
//! * [`hierarchy`] — flat vs. tree-of-coordinators result merging ("it is
//!   possible to use a hierarchy of coordinators");
//! * [`arch`] — the client/server vs. peer-to-peer vs. federated vs. open
//!   capacity model of Section 5's four-attribute classification;
//! * [`routing`] — topic-based routing under query-topic drift \[35\], with
//!   automatic reconfiguration;
//! * [`personalize`] — server-side (replicated state) vs. client-side
//!   (thin layer) personalization, Section 5's privacy/consistency
//!   trade-off;
//! * [`faults`] — query-time fault injection: [`faults::FaultSchedule`]
//!   materializes per-replica outage intervals from
//!   `dwr_avail::UpDownProcess` and drives engine replica state as
//!   simulated time advances, with hedged retries on mid-query deaths;
//! * [`scatter`] — a fixed worker pool with deterministic in-order
//!   gather, the substrate of true parallel scatter-gather;
//! * [`straggler`] — heavy-tailed per-(partition, replica, query)
//!   service-time inflation (lognormal body, bounded-Pareto tail) with the
//!   same label-forked determinism discipline as [`faults`], feeding the
//!   engine's tail-tolerance policies ([`engine::HedgePolicy`]);
//! * [`engine`] — the assembled distributed engine: cache in front of a
//!   selector in front of replicated partitions, with degradation
//!   accounting and a gather deadline that answers with the partitions
//!   that arrived in time (incremental results). The broker and engine
//!   are `Send + Sync` with `&self` query methods, so threads share one
//!   engine behind an `Arc`.

pub mod arch;
pub mod broker;
pub mod cache;
pub mod engine;
pub mod faults;
pub mod hierarchy;
pub mod multisite;
pub mod personalize;
pub mod pipeline;
pub mod replica;
pub mod route;
pub mod routing;
pub mod scatter;
pub mod straggler;

/// Lock a mutex, recovering the guard when a previous holder panicked.
/// Every mutex in this crate guards state that is valid after any
/// interrupted operation (replica cursors and liveness bits, router
/// profile caches and refresh bookkeeping, load-shedding windows, the
/// scatter pool's batch queue and single-assignment result slots), so
/// one panicking client must not wedge every other thread.
pub(crate) fn lock_recovering<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use broker::DocBroker;
pub use cache::{LfuCache, LruCache, ResultCache, SdcCache, ShardedCache};
pub use engine::DistributedEngine;
pub use engine::HedgePolicy;
pub use faults::FaultSchedule;
pub use multisite::{MultiSiteConfig, MultiSiteEngine, MultiSiteStats, SiteEngineSpec};
pub use pipeline::PipelinedTermEngine;
pub use route::{DriftRefresh, RouteSource, RouterStats, ShardRouter};
pub use scatter::ScatterPool;
pub use straggler::{StragglerModel, TailParams};
