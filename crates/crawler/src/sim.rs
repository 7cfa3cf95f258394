//! The distributed crawl simulation.
//!
//! Event-driven execution of a full distributed crawl over a
//! [`SyntheticWeb`]: agents with bounded connection pools fetch pages
//! through the QoS model (slow servers, transient failures, retries),
//! resolve hosts through per-agent DNS caches, enforce per-host politeness
//! via [`Frontier`], route discovered URLs with a pluggable
//! [`UrlAssigner`], exchange non-local URLs in batches, and survive
//! *repeated* agent crashes and recoveries (the dependability scenario of
//! Section 3) driven by an [`AgentSchedule`].
//!
//! # Membership changes
//!
//! On every pool change the live assigner is updated
//! (`remove_agent`/`add_agent`) and ownership is diffed host by host.
//! Between changes the simulator reads owners from a per-host table it
//! refills at each one, not from the assigner.
//! For each host whose owner changed, the old owner's per-host queue and
//! politeness clock (`next_allowed`) migrate to the new owner in one
//! *handoff batch*, so ownership transfer can never violate the
//! one-connection/delay invariant:
//!
//! * if the old owner still has the host's one allowed connection open,
//!   the handoff is **deferred**: the new owner's frontier is blocked for
//!   that host and the migration completes when the fetch finishes
//!   (rule 2, resolved in the `FetchDone` handler);
//! * a crashed agent's in-flight fetches are charged as *lost work*
//!   (`lost_inflight`) and their pages re-enter the new owner's queue
//!   behind a `now + politeness_delay` floor — the crashed connection
//!   still counts against the host's access clock;
//! * the crashed agent's DNS cache and exchange buffers die with it and
//!   are rebuilt empty on recovery; its undelivered exchange buffers are
//!   recalled and re-routed by the coordinator.
//!
//! # The URL-seen test
//!
//! An agent's own seen set dies with it in a crash and does not travel
//! with a handed-off host. The crawl's URL-seen test is therefore three
//! sets, not one: a URL enters a frontier only if it is not stored (the
//! document store outlives every agent), not in flight at its host's
//! connection holder, and new to the owner's frontier. Every page is
//! fetched at most once, however often its host changes hands.

use crate::assign::{AgentId, UrlAssigner};
use crate::exchange::{ExchangeBuffers, ExchangeStats};
use crate::faults::{AgentSchedule, Transition};
use crate::frontier::{Frontier, QueueOrder};
use dwr_obs::{Event as ObsEvent, NoopRecorder, Recorder};
use dwr_sim::event::{EventQueue, SimTime};
use dwr_sim::hash::{IdMap, IdSet};
use dwr_sim::net::Link;
use dwr_sim::{SimRng, SECOND};
use dwr_webgraph::dns::{DnsCache, DnsServer, DnsStats};
use dwr_webgraph::graph::{HostId, PageId};
use dwr_webgraph::qos::{FetchOutcome, QosConfig, QosModel};
use dwr_webgraph::sitemap::{RobotsPolicy, SitemapIndex};
use dwr_webgraph::SyntheticWeb;
use std::collections::BTreeMap;

/// Crawl parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Number of crawling agents.
    pub agents: u32,
    /// Concurrent connections per agent ("several hundred TCP connections"
    /// in production; smaller here for simulation speed).
    pub connections_per_agent: usize,
    /// Minimum delay between accesses to one host.
    pub politeness_delay: SimTime,
    /// Order of each host's queue: discovery order by default, most-cited
    /// first for a prioritised crawl (E22).
    pub order: QueueOrder,
    /// URL-exchange batch size.
    pub batch_size: usize,
    /// Seed every agent with the `k` most-cited URLs (0 disables
    /// suppression).
    pub most_cited_seed: usize,
    /// Link model for inter-agent messages.
    pub link: Link,
    /// Transient-failure retries before a URL is abandoned.
    pub max_retries: u32,
    /// Connection-timeout charged to a failed fetch attempt.
    pub failure_timeout: SimTime,
    /// Periodic exchange flush interval.
    pub flush_interval: SimTime,
    /// Server QoS configuration.
    pub qos: QosConfig,
    /// Schedule-driven agent churn: repeated crashes *and* recoveries
    /// ([`AgentSchedule::single_crash`] scripts one crash, no recovery).
    pub faults: Option<AgentSchedule>,
    /// Record a per-fetch [`FetchSpan`] trace in the report (off by
    /// default: the trace grows with every attempt).
    pub record_trace: bool,
    /// Initial seed pages (page 0 of the first `seeds` hosts).
    pub seeds: usize,
    /// Fraction of hosts with a restrictive robots.txt.
    pub robots_restrictive_fraction: f64,
    /// Fraction of pages such hosts disallow.
    pub robots_disallow_fraction: f64,
    /// Fraction of hosts publishing sitemaps: one fetch from such a host
    /// discovers every page it serves (the sitemaps.org cooperation).
    pub sitemap_fraction: f64,
    /// Extra fetch latency when the agent's region differs from the
    /// host's (the geographic-crawling cost of \[13\]).
    pub cross_region_penalty: SimTime,
    /// Region of each agent (empty = all agents in region 0).
    pub agent_regions: Vec<u16>,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            agents: 4,
            connections_per_agent: 16,
            politeness_delay: 2 * SECOND,
            order: QueueOrder::Fifo,
            batch_size: 50,
            most_cited_seed: 0,
            link: Link::wan(),
            max_retries: 3,
            failure_timeout: 5 * SECOND,
            flush_interval: 10 * SECOND,
            qos: QosConfig::default(),
            faults: None,
            record_trace: false,
            seeds: 8,
            robots_restrictive_fraction: 0.0,
            robots_disallow_fraction: 0.0,
            sitemap_fraction: 0.0,
            cross_region_penalty: 0,
            agent_regions: Vec::new(),
        }
    }
}

/// Fault-tolerance accounting of one crawl.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlFaultStats {
    /// Agent crashes applied.
    pub crashes: u64,
    /// Agent recoveries applied.
    pub recoveries: u64,
    /// Scheduled crashes refused because they would have killed the last
    /// live agent (the simulator never does).
    pub crashes_suppressed: u64,
    /// Host-ownership changes across all membership events — the
    /// consistent-hashing movement metric.
    pub hosts_moved: u64,
    /// In-flight fetches lost to crashes (wasted work).
    pub lost_inflight: u64,
    /// Pages whose fetch was lost in a crash and that were later fetched
    /// by another incarnation or agent.
    pub refetches: u64,
    /// Frontier-handoff batches delivered (one per receiving agent per
    /// membership event, plus deferred per-host handoffs).
    pub handoff_batches: u64,
    /// Unfetched URLs migrated inside handoff batches.
    pub handoff_urls: u64,
}

/// How one traced fetch attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The page was downloaded.
    Fetched,
    /// The attempt hit a transient failure.
    TransientFailure,
    /// The fetching agent crashed before the attempt finished.
    LostInCrash,
}

/// One fetch attempt in the optional event trace
/// ([`CrawlConfig::record_trace`]). The politeness invariant is provable
/// from the trace: per host, spans never overlap and consecutive spans
/// are at least `politeness_delay` apart — across agents and handoffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchSpan {
    /// Fetching agent.
    pub agent: u32,
    /// Host contacted.
    pub host: HostId,
    /// Page requested.
    pub page: PageId,
    /// When the connection opened.
    pub start: SimTime,
    /// When the connection closed (fetch done, failure, or crash).
    pub end: SimTime,
    /// How the attempt ended.
    pub outcome: SpanOutcome,
}

/// Result of a simulated crawl.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// Distinct pages fetched at least once.
    pub fetched_pages: u64,
    /// Fetches of pages already fetched before: 0, churn included,
    /// because the URL-seen test consults the document store and the
    /// open connections (`tests/crawl_chaos.rs` asserts it).
    pub duplicate_fetches: u64,
    /// All fetch attempts, including failures.
    pub attempts: u64,
    /// Attempts that hit a transient failure.
    pub transient_failures: u64,
    /// URLs abandoned after exhausting retries.
    pub abandoned: u64,
    /// Fraction of all pages fetched.
    pub coverage: f64,
    /// Simulated completion time.
    pub makespan: SimTime,
    /// Successful fetches per agent (cumulative across incarnations).
    pub per_agent_fetches: Vec<u64>,
    /// Aggregated URL-exchange traffic (all incarnations).
    pub exchange: ExchangeStats,
    /// Aggregated DNS cache statistics (all incarnations).
    pub dns: DnsStats,
    /// Total bytes downloaded.
    pub bytes_downloaded: u64,
    /// Discovered URLs skipped because robots.txt disallows them.
    pub robots_skipped: u64,
    /// Pages the robots policies permit fetching.
    pub allowed_pages: u64,
    /// Fraction of *allowed* pages fetched.
    pub coverage_allowed: f64,
    /// Pages first discovered through a sitemap rather than a link.
    pub sitemap_discoveries: u64,
    /// Fault-tolerance accounting (zeroes for fault-free runs).
    pub faults: CrawlFaultStats,
    /// Per-fetch trace (empty unless [`CrawlConfig::record_trace`]).
    pub trace: Vec<FetchSpan>,
}

/// Trace index meaning "not traced".
const NO_SPAN: u32 = u32::MAX;

#[derive(Debug)]
enum Event {
    /// A free connection slot of `agent` looks for work. `epoch` guards
    /// against slot tokens surviving a crash into the next incarnation.
    TryFetch { agent: u32, epoch: u32 },
    /// A fetch attempt finished. Stale if the agent crashed since
    /// (`epoch` mismatch): the crash already accounted the in-flight page.
    FetchDone {
        agent: u32,
        epoch: u32,
        host: HostId,
        page: PageId,
        outcome: FetchOutcome,
        span: u32,
    },
    /// A URL-exchange batch arrives (routed by the *current* assignment,
    /// so batches survive membership changes in transit).
    Deliver { urls: Vec<PageId> },
    /// Periodic buffer flush.
    FlushTick,
    /// Apply membership transition `idx` of the fault schedule, then
    /// (lazily) schedule the next one.
    Churn { idx: usize },
}

struct AgentState {
    frontier: Frontier,
    exchange: ExchangeBuffers,
    dns: DnsCache,
    idle_slots: usize,
    dead: bool,
    /// Incarnation counter, bumped at every crash. Events stamped with an
    /// older epoch are void: their slot token / in-flight page was
    /// accounted by the crash handler.
    epoch: u32,
    fetches: u64,
    /// Pages currently being fetched by this agent, with their trace
    /// index ([`NO_SPAN`] when tracing is off). Needed at crash time: the
    /// pending FetchDone events will be ignored, so the coordinator must
    /// re-allocate the pages (and the work accounting must not leak).
    in_flight: Vec<(HostId, PageId, u32)>,
}

/// The crawl simulator. Construct, then [`DistributedCrawl::run`].
/// Generic over an observability [`Recorder`] with the zero-cost
/// [`NoopRecorder`] as the default, mirroring the query tier's engines:
/// existing call sites compile unchanged and pay nothing.
pub struct DistributedCrawl<'w, A: UrlAssigner, R: Recorder = NoopRecorder> {
    web: &'w SyntheticWeb,
    assigner: A,
    cfg: CrawlConfig,
    rng: SimRng,
    recorder: R,
}

impl<'w, A: UrlAssigner> DistributedCrawl<'w, A> {
    /// Create a simulator over `web` with the given assignment policy.
    pub fn new(web: &'w SyntheticWeb, assigner: A, cfg: CrawlConfig, seed: u64) -> Self {
        assert!(cfg.agents > 0 && cfg.connections_per_agent > 0);
        DistributedCrawl { web, assigner, cfg, rng: SimRng::new(seed), recorder: NoopRecorder }
    }
}

impl<'w, A: UrlAssigner, R: Recorder> DistributedCrawl<'w, A, R> {
    /// Attach a live recorder (e.g. `Arc<ObsRecorder>` built from
    /// `ObsConfig::crawl_tier()`), consuming this simulator and returning
    /// one that emits crawl fault events.
    pub fn with_obs<R2: Recorder>(self, recorder: R2) -> DistributedCrawl<'w, A, R2> {
        DistributedCrawl {
            web: self.web,
            assigner: self.assigner,
            cfg: self.cfg,
            rng: self.rng,
            recorder,
        }
    }

    /// Run the crawl to completion and report.
    ///
    /// Work accounting invariant: a URL is *outstanding* from the moment
    /// it enters a frontier or an exchange buffer until it is fetched,
    /// abandoned, or deduplicated away. The flush timer keeps ticking while
    /// anything is outstanding, so buffered URLs can never be stranded —
    /// and every handoff path adjusts the count by exactly the URLs that
    /// evaporate in dedup.
    pub fn run(self) -> CrawlReport {
        let n = self.cfg.agents as usize;
        let transitions: Vec<Transition> = self
            .cfg
            .faults
            .as_ref()
            .map_or_else(Vec::new, AgentSchedule::transitions)
            .into_iter()
            .filter(|t| (t.agent.0 as usize) < n)
            .collect();

        let qos = QosModel::new(
            self.web.num_hosts(),
            self.cfg.qos,
            self.rng.fork_named("qos").next_u64(),
        );
        let known: IdSet<PageId> =
            self.web.most_cited(self.cfg.most_cited_seed).into_iter().collect();
        let robots = RobotsPolicy::generate(
            self.web,
            self.cfg.robots_restrictive_fraction,
            self.cfg.robots_disallow_fraction,
            self.rng.fork_named("robots").next_u64(),
        );
        let sitemaps = SitemapIndex::generate(
            self.web,
            self.cfg.sitemap_fraction,
            self.rng.fork_named("sitemaps").next_u64(),
        );
        let link_rng = self.rng.fork_named("link");

        let mut sim = Sim {
            web: self.web,
            assigner: self.assigner,
            cfg: self.cfg,
            recorder: self.recorder,
            rng: self.rng,
            qos,
            robots,
            sitemaps,
            known,
            agents: Vec::new(),
            queue: EventQueue::new(),
            link_rng,
            transitions,
            owners: Vec::new(),
            fetched: IdSet::default(),
            retry_count: IdMap::default(),
            sitemap_served: IdSet::default(),
            fetching: IdMap::default(),
            lost_pages: IdSet::default(),
            trace: Vec::new(),
            fstats: CrawlFaultStats::default(),
            retired_exchange: ExchangeStats::default(),
            retired_dns: DnsStats::default(),
            duplicates: 0,
            attempts: 0,
            failures: 0,
            abandoned: 0,
            bytes: 0,
            robots_skipped: 0,
            sitemap_discoveries: 0,
            outstanding: 0,
            flush_scheduled: true,
            makespan: 0,
        };
        sim.agents = (0..n).map(|i| sim.make_agent(i, 0)).collect();
        sim.refill_owners();
        sim.run()
    }
}

/// All live state of one simulation run, so crash / recovery / handoff
/// logic can be real methods instead of one monolithic event loop.
struct Sim<'w, A: UrlAssigner, R: Recorder> {
    web: &'w SyntheticWeb,
    assigner: A,
    cfg: CrawlConfig,
    recorder: R,
    rng: SimRng,
    qos: QosModel,
    robots: RobotsPolicy,
    sitemaps: SitemapIndex,
    known: IdSet<PageId>,
    agents: Vec<AgentState>,
    queue: EventQueue<Event>,
    link_rng: SimRng,
    transitions: Vec<Transition>,
    /// Owner of every host under the current assignment, by host id. The
    /// assignment changes only when a membership change succeeds, and
    /// the table is refilled right then, so every other read is a load.
    owners: Vec<AgentId>,
    /// Pages downloaded: the crawler's document store, which survives
    /// every crash (the URL-seen test consults it, see `admit`).
    fetched: IdSet<PageId>,
    retry_count: IdMap<PageId, u32>,
    sitemap_served: IdSet<HostId>,
    /// Host → agent with the host's one allowed connection currently
    /// open. The global politeness arbiter across ownership transfers.
    fetching: IdMap<HostId, u32>,
    /// Pages whose in-flight fetch a crash destroyed; a later successful
    /// fetch counts as a refetch (crash-induced rework).
    lost_pages: IdSet<PageId>,
    trace: Vec<FetchSpan>,
    fstats: CrawlFaultStats,
    /// Stats of incarnations retired by recovery rebuilds.
    retired_exchange: ExchangeStats,
    retired_dns: DnsStats,
    duplicates: u64,
    attempts: u64,
    failures: u64,
    abandoned: u64,
    bytes: u64,
    robots_skipped: u64,
    sitemap_discoveries: u64,
    outstanding: i64,
    flush_scheduled: bool,
    /// Completion time of the last *productive* event — churn ticks that
    /// fire after the crawl drained do not stretch the makespan.
    makespan: SimTime,
}

impl<'w, A: UrlAssigner, R: Recorder> Sim<'w, A, R> {
    /// A fresh agent state. `epoch` 0 reproduces the historical DNS
    /// stream exactly; recovered incarnations fork a new one (a rebuilt
    /// resolver cache has no reason to replay its predecessor's timings).
    fn make_agent(&self, i: usize, epoch: u32) -> AgentState {
        let base = self.rng.fork(i as u64).fork_named("dns");
        let dns_rng = if epoch == 0 { base } else { base.fork(u64::from(epoch)) };
        AgentState {
            frontier: Frontier::new(self.cfg.politeness_delay, self.cfg.order),
            exchange: ExchangeBuffers::new(self.cfg.batch_size, self.known.clone()),
            dns: DnsCache::new(DnsServer::typical(dns_rng), 3_600 * SECOND, 10_000),
            idle_slots: self.cfg.connections_per_agent,
            dead: false,
            epoch,
            fetches: 0,
            in_flight: Vec::new(),
        }
    }

    /// Hand `agent` a connection slot if one is idle.
    fn wake(&mut self, agent: u32, now: SimTime) {
        let a = &mut self.agents[agent as usize];
        if !a.dead && a.idle_slots > 0 {
            a.idle_slots -= 1;
            let epoch = a.epoch;
            self.queue.schedule_at(now, Event::TryFetch { agent, epoch });
        }
    }

    /// Ship an exchange batch over the link model.
    fn send_batch(&mut self, now: SimTime, batch: Vec<PageId>) {
        let lat = self.cfg.link.transfer_time_jittered(
            crate::exchange::BYTES_PER_MESSAGE
                + batch.len() as u64 * crate::exchange::BYTES_PER_URL,
            &mut self.link_rng,
        );
        self.queue.schedule_at(now + lat, Event::Deliver { urls: batch });
    }

    /// Refill the owner table from the assigner, returning the table it
    /// replaces: the owners a membership change diffs against.
    fn refill_owners(&mut self) -> Vec<AgentId> {
        let owners = self.web.host_ids().map(|h| self.assigner.agent_for(h, self.web)).collect();
        std::mem::replace(&mut self.owners, owners)
    }

    /// Owner of `host` under the current assignment, read from the owner
    /// table.
    fn owner_of(&self, host: HostId) -> AgentId {
        let owner = self.owners[host.0 as usize];
        debug_assert_eq!(owner, self.assigner.agent_for(host, self.web), "stale owner table");
        owner
    }

    /// The URL-seen test: admit `page` of `host` to `owner`'s frontier
    /// only if it is not already stored, not being fetched by the host's
    /// connection holder, and new to the owner's frontier. The first two
    /// clauses outlive the agent that fetched the page, so a host that
    /// changes hands in a crash, a recovery or a deferred handoff is
    /// never fetched twice.
    fn admit(&mut self, owner: u32, host: HostId, page: PageId, now: SimTime) -> bool {
        if self.fetched.contains(&page) {
            return false;
        }
        if let Some(&holder) = self.fetching.get(&host) {
            if self.agents[holder as usize].in_flight.iter().any(|&(_, p, _)| p == page) {
                return false;
            }
        }
        self.agents[owner as usize].frontier.offer(host, page, now)
    }

    fn run(mut self) -> CrawlReport {
        // Seed: the first page of the first `seeds` hosts plus the
        // most-cited set (which every agent knows from a previous crawl).
        let mut seed_pages: Vec<PageId> = (0..self.cfg.seeds.min(self.web.num_hosts()))
            .map(|h| self.web.pages_of_host(HostId(h as u32))[0])
            .collect();
        seed_pages.extend(self.known.iter().copied());
        seed_pages.sort_unstable();
        seed_pages.dedup();
        for p in seed_pages {
            if !self.robots.allowed(p, self.web) {
                self.robots_skipped += 1;
                continue;
            }
            let host = self.web.page(p).host;
            let owner = self.owner_of(host);
            if self.agents[owner.0 as usize].frontier.offer(host, p, 0) {
                self.outstanding += 1;
            }
        }
        for (i, a) in self.agents.iter_mut().enumerate() {
            for _ in 0..a.idle_slots {
                self.queue.schedule_at(0, Event::TryFetch { agent: i as u32, epoch: 0 });
            }
            a.idle_slots = 0;
        }
        if let Some(t) = self.transitions.first() {
            self.queue.schedule_at(t.at, Event::Churn { idx: 0 });
        }
        self.queue.schedule_at(self.cfg.flush_interval, Event::FlushTick);

        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Event::TryFetch { agent, epoch } => {
                    self.makespan = now;
                    self.on_try_fetch(now, agent, epoch);
                }
                Event::FetchDone { agent, epoch, host, page, outcome, span } => {
                    self.makespan = now;
                    self.on_fetch_done(now, agent, epoch, host, page, outcome, span);
                }
                Event::Deliver { urls } => {
                    self.makespan = now;
                    self.route_urls(now, urls);
                }
                Event::FlushTick => {
                    self.makespan = now;
                    self.on_flush(now);
                }
                Event::Churn { idx } => {
                    // Once the crawl has drained, the rest of the fault
                    // schedule is irrelevant: stop churning rather than
                    // inflating the makespan to the schedule horizon.
                    if self.outstanding > 0 {
                        self.makespan = now;
                        self.on_churn(now, idx);
                    }
                }
            }
            // Safety net: re-arm the flush timer when buffered work exists
            // but no tick is pending (e.g. everything became buffered right
            // after the last tick fired and decided not to re-arm).
            if !self.flush_scheduled && self.outstanding > 0 && self.queue.is_empty() {
                self.queue.schedule_at(now + self.cfg.flush_interval, Event::FlushTick);
                self.flush_scheduled = true;
            }
        }

        let allowed_pages = self.robots.allowed_count(self.web) as u64;
        let exchange = self.agents.iter().fold(self.retired_exchange, |acc, a| {
            let s = a.exchange.stats();
            ExchangeStats {
                offered: acc.offered + s.offered,
                suppressed: acc.suppressed + s.suppressed,
                sent_urls: acc.sent_urls + s.sent_urls,
                messages: acc.messages + s.messages,
                bytes: acc.bytes + s.bytes,
            }
        });
        let dns = self.agents.iter().fold(self.retired_dns, |acc, a| {
            let s = a.dns.stats();
            DnsStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                total_lookup_time: acc.total_lookup_time + s.total_lookup_time,
            }
        });
        CrawlReport {
            fetched_pages: self.fetched.len() as u64,
            duplicate_fetches: self.duplicates,
            attempts: self.attempts,
            transient_failures: self.failures,
            abandoned: self.abandoned,
            coverage: self.fetched.len() as f64 / self.web.num_pages() as f64,
            makespan: self.makespan,
            per_agent_fetches: self.agents.iter().map(|a| a.fetches).collect(),
            exchange,
            dns,
            bytes_downloaded: self.bytes,
            robots_skipped: self.robots_skipped,
            allowed_pages,
            coverage_allowed: self.fetched.len() as f64 / allowed_pages.max(1) as f64,
            sitemap_discoveries: self.sitemap_discoveries,
            faults: self.fstats,
            trace: self.trace,
        }
    }

    fn on_try_fetch(&mut self, now: SimTime, agent: u32, epoch: u32) {
        {
            let a = &self.agents[agent as usize];
            if a.dead || a.epoch != epoch {
                return; // slot token from a crashed incarnation
            }
        }
        match self.agents[agent as usize].frontier.next_fetch(now) {
            Ok((host, page)) => {
                let span = if self.cfg.record_trace {
                    self.trace.push(FetchSpan {
                        agent,
                        host,
                        page,
                        start: now,
                        end: now,
                        outcome: SpanOutcome::LostInCrash,
                    });
                    (self.trace.len() - 1) as u32
                } else {
                    NO_SPAN
                };
                debug_assert!(
                    !self.fetching.contains_key(&host),
                    "two simultaneous connections to one host"
                );
                self.fetching.insert(host, agent);
                self.attempts += 1;
                let dns_latency = self.agents[agent as usize].dns.resolve(host, now);
                let region_penalty = match self.cfg.agent_regions.get(agent as usize) {
                    Some(&r) if r != self.web.host(host).region => self.cfg.cross_region_penalty,
                    _ => 0,
                };
                let (outcome, duration) =
                    match self.qos.fetch(host, u64::from(self.web.page(page).size_bytes)) {
                        FetchOutcome::Ok(t) => (FetchOutcome::Ok(t), t),
                        FetchOutcome::TransientFailure => {
                            (FetchOutcome::TransientFailure, self.cfg.failure_timeout)
                        }
                    };
                self.agents[agent as usize].in_flight.push((host, page, span));
                self.queue.schedule_at(
                    now + dns_latency + duration + region_penalty,
                    Event::FetchDone { agent, epoch, host, page, outcome, span },
                );
            }
            Err(Some(at)) => self.queue.schedule_at(at, Event::TryFetch { agent, epoch }),
            Err(None) => self.agents[agent as usize].idle_slots += 1,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_fetch_done(
        &mut self,
        now: SimTime,
        agent: u32,
        epoch: u32,
        host: HostId,
        page: PageId,
        outcome: FetchOutcome,
        span: u32,
    ) {
        {
            let a = &self.agents[agent as usize];
            if a.dead || a.epoch != epoch {
                // The agent crashed mid-fetch; the crash handler already
                // re-allocated the page and closed the span.
                return;
            }
        }
        self.agents[agent as usize].in_flight.retain(|&(h, p, _)| (h, p) != (host, page));
        self.fetching.remove(&host);
        match outcome {
            FetchOutcome::Ok(_) => {
                if span != NO_SPAN {
                    let s = &mut self.trace[span as usize];
                    s.end = now;
                    s.outcome = SpanOutcome::Fetched;
                }
                self.agents[agent as usize].frontier.complete(host, now);
                self.agents[agent as usize].fetches += 1;
                self.outstanding -= 1;
                self.bytes += u64::from(self.web.page(page).size_bytes);
                if !self.fetched.insert(page) {
                    self.duplicates += 1;
                }
                if self.lost_pages.remove(&page) {
                    self.fstats.refetches += 1;
                    self.recorder.record(ObsEvent::CrawlRefetch { agent, now });
                }
                // First successful contact with a sitemap host discovers
                // every allowed page it serves.
                if self.sitemaps.has(host) && self.sitemap_served.insert(host) {
                    for &p in self.web.pages_of_host(host) {
                        if !self.robots.allowed(p, self.web) {
                            continue;
                        }
                        if self.admit(agent, host, p, now) {
                            self.outstanding += 1;
                            self.sitemap_discoveries += 1;
                            self.wake(agent, now);
                        }
                    }
                }
                let links: Vec<PageId> = self.web.outlinks(page).to_vec();
                for target in links {
                    if !self.robots.allowed(target, self.web) {
                        self.robots_skipped += 1;
                        continue;
                    }
                    let t_host = self.web.page(target).host;
                    let owner = self.owner_of(t_host);
                    if owner.0 == agent {
                        if self.admit(agent, t_host, target, now) {
                            self.outstanding += 1;
                            self.wake(agent, now);
                        }
                    } else {
                        let a = &mut self.agents[agent as usize];
                        let suppressed_before = a.exchange.stats().suppressed;
                        let maybe_batch = a.exchange.offer(owner, target);
                        if a.exchange.stats().suppressed == suppressed_before {
                            // Entered the exchange system.
                            self.outstanding += 1;
                        }
                        if let Some(batch) = maybe_batch {
                            self.send_batch(now, batch);
                        }
                    }
                }
                self.queue.schedule_at(now, Event::TryFetch { agent, epoch });
            }
            FetchOutcome::TransientFailure => {
                if span != NO_SPAN {
                    let s = &mut self.trace[span as usize];
                    s.end = now;
                    s.outcome = SpanOutcome::TransientFailure;
                }
                self.failures += 1;
                let count = self.retry_count.entry(page).or_insert(0);
                *count += 1;
                if *count <= self.cfg.max_retries {
                    let backoff = self.qos.retry_backoff();
                    self.agents[agent as usize].frontier.retry_later(host, page, now, backoff);
                } else {
                    self.agents[agent as usize].frontier.complete(host, now);
                    self.abandoned += 1;
                    self.outstanding -= 1;
                }
                self.queue.schedule_at(now, Event::TryFetch { agent, epoch });
            }
        }
        // Rule 2 — deferred handoff: if ownership of `host` moved away
        // while this agent had its connection open, migrate the host's
        // remaining queue now that the connection closed. The politeness
        // clock this agent just set travels along, so the new owner can
        // never contact the host early.
        let owner = self.owner_of(host);
        if owner.0 != agent {
            let (pages, na) = self.agents[agent as usize].frontier.extract_host(host);
            let offered = pages.len();
            let floor = na.unwrap_or(now + self.cfg.politeness_delay);
            let dst = &mut self.agents[owner.0 as usize];
            let installed = dst.frontier.install_host(host, pages, Some(floor), now);
            dst.frontier.unblock(host, floor);
            self.outstanding -= (offered - installed) as i64;
            if installed > 0 {
                self.fstats.handoff_batches += 1;
                self.fstats.handoff_urls += installed as u64;
                self.recorder.record(ObsEvent::CrawlHandoff {
                    to: owner.0,
                    now,
                    hosts: 1,
                    urls: installed as u64,
                });
            }
            self.wake(owner.0, now);
        }
    }

    /// Deliver exchanged URLs, each to its host's *current* owner.
    fn route_urls(&mut self, now: SimTime, urls: Vec<PageId>) {
        for url in urls {
            let host = self.web.page(url).host;
            let owner = self.owner_of(host);
            if self.admit(owner.0, host, url, now) {
                self.wake(owner.0, now);
            } else {
                // Known URL: the work item evaporates.
                self.outstanding -= 1;
            }
        }
    }

    fn on_flush(&mut self, now: SimTime) {
        self.flush_scheduled = false;
        for i in 0..self.agents.len() {
            if self.agents[i].dead {
                continue;
            }
            let flushes = self.agents[i].exchange.flush_all();
            for (_dest, batch) in flushes {
                self.send_batch(now, batch);
            }
        }
        if self.outstanding > 0 {
            self.queue.schedule_at(now + self.cfg.flush_interval, Event::FlushTick);
            self.flush_scheduled = true;
        }
    }

    fn on_churn(&mut self, now: SimTime, idx: usize) {
        let t = self.transitions[idx];
        if t.down {
            self.on_crash(now, t.agent.0);
        } else {
            self.on_recover(now, t.agent.0);
        }
        if idx + 1 < self.transitions.len() && self.outstanding > 0 {
            self.queue.schedule_at(self.transitions[idx + 1].at, Event::Churn { idx: idx + 1 });
        }
    }

    fn on_crash(&mut self, now: SimTime, agent: u32) {
        if self.agents[agent as usize].dead {
            return;
        }
        if !self.assigner.remove_agent(AgentId(agent)) {
            // Refused: removing the last live agent (or one the assigner
            // does not know). The agent survives — a crawl with every
            // agent down can never finish.
            self.fstats.crashes_suppressed += 1;
            return;
        }
        let before = self.refill_owners();
        self.fstats.crashes += 1;

        // The crash destroys in-flight fetches: charge them as lost work
        // and remember the pages so the new owners re-enqueue them behind
        // a full politeness interval (the half-open connection still
        // counts against the host's access clock).
        let inflight: Vec<(HostId, PageId, u32)> = {
            let a = &mut self.agents[agent as usize];
            a.dead = true;
            a.idle_slots = 0;
            a.epoch += 1; // void every queued TryFetch / FetchDone
            a.in_flight.drain(..).collect()
        };
        let mut lost_by_host: BTreeMap<HostId, Vec<PageId>> = BTreeMap::new();
        let lost = inflight.len() as u64;
        for (h, p, span) in inflight {
            self.fetching.remove(&h);
            self.fstats.lost_inflight += 1;
            self.lost_pages.insert(p);
            lost_by_host.entry(h).or_default().push(p);
            if span != NO_SPAN {
                let s = &mut self.trace[span as usize];
                s.end = now;
                s.outcome = SpanOutcome::LostInCrash;
            }
        }
        self.recorder.record(ObsEvent::CrawlCrash { agent, now, lost_inflight: lost });

        let (moved, mut batches) = self.apply_reassignment(&before, now, &mut lost_by_host);

        // Defensive sweep: queues still sitting on the crashed agent for
        // hosts whose *assignment* did not change (it lost their
        // ownership earlier via a deferred handoff it never completed).
        let leftover_hosts = self.agents[agent as usize].frontier.host_ids();
        for h in leftover_hosts {
            let (pages, na) = self.agents[agent as usize].frontier.extract_host(h);
            if pages.is_empty() {
                continue;
            }
            let owner = self.owner_of(h);
            let lost = lost_by_host.remove(&h).unwrap_or_default();
            let mut floor = na;
            if !lost.is_empty() {
                let f = now + self.cfg.politeness_delay;
                floor = Some(floor.map_or(f, |x| x.max(f)));
            }
            let offered = pages.len() + lost.len();
            let installed = self.agents[owner.0 as usize].frontier.install_host(
                h,
                pages.into_iter().chain(lost),
                floor,
                now,
            );
            match self.fetching.get(&h).copied() {
                Some(g) if g != owner.0 => self.agents[owner.0 as usize].frontier.block(h),
                Some(_) => {} // the owner's own open fetch clears busy on completion
                None => {
                    // The owner may still be blocked by a deferred handoff
                    // whose fetcher just died with this queue: lift it, or
                    // these URLs wait forever.
                    let at = floor.unwrap_or(now);
                    self.agents[owner.0 as usize].frontier.unblock(h, at);
                }
            }
            self.outstanding -= (offered - installed) as i64;
            if installed > 0 {
                let e = batches.entry(owner.0).or_insert((0, 0));
                e.0 += 1;
                e.1 += installed as u64;
            }
            self.wake(owner.0, now);
        }

        // In-flight pages on hosts that kept their (already-moved) owner:
        // the crashed connection is gone, so lift any deferred-handoff
        // block at the owner and re-enqueue behind a politeness interval.
        let remaining: Vec<(HostId, Vec<PageId>)> =
            std::mem::take(&mut lost_by_host).into_iter().collect();
        for (h, pages) in remaining {
            let owner = self.owner_of(h);
            let floor = now + self.cfg.politeness_delay;
            let offered = pages.len();
            let o = &mut self.agents[owner.0 as usize];
            let installed = o.frontier.install_host(h, pages, Some(floor), now);
            if self.fetching.contains_key(&h) {
                o.frontier.block(h);
            } else {
                o.frontier.unblock(h, floor);
            }
            self.outstanding -= (offered - installed) as i64;
            if installed > 0 {
                let e = batches.entry(owner.0).or_insert((0, 0));
                e.0 += 1;
                e.1 += installed as u64;
            }
            self.wake(owner.0, now);
        }

        // Undelivered outgoing exchange buffers are recalled by the
        // coordinator and re-routed to the hosts' current owners.
        let recalled = self.agents[agent as usize].exchange.recall_all();
        for (_dest, urls) in recalled {
            self.route_urls(now, urls);
        }

        self.finish_membership_change(now, moved, batches);
    }

    fn on_recover(&mut self, now: SimTime, agent: u32) {
        if !self.agents[agent as usize].dead {
            return; // the matching crash was suppressed
        }
        self.fstats.recoveries += 1;
        // Retire the dead incarnation: fold its traffic counters into the
        // accumulators, then rebuild state from scratch — the DNS cache
        // and exchange buffers did not survive the crash.
        let (ex, dn, epoch, fetches) = {
            let a = &self.agents[agent as usize];
            (a.exchange.stats(), a.dns.stats(), a.epoch, a.fetches)
        };
        self.retired_exchange = ExchangeStats {
            offered: self.retired_exchange.offered + ex.offered,
            suppressed: self.retired_exchange.suppressed + ex.suppressed,
            sent_urls: self.retired_exchange.sent_urls + ex.sent_urls,
            messages: self.retired_exchange.messages + ex.messages,
            bytes: self.retired_exchange.bytes + ex.bytes,
        };
        self.retired_dns = DnsStats {
            hits: self.retired_dns.hits + dn.hits,
            misses: self.retired_dns.misses + dn.misses,
            total_lookup_time: self.retired_dns.total_lookup_time + dn.total_lookup_time,
        };
        let mut fresh = self.make_agent(agent as usize, epoch);
        fresh.fetches = fetches; // per-agent totals span incarnations
        self.agents[agent as usize] = fresh;

        let added = self.assigner.add_agent(AgentId(agent));
        debug_assert!(added, "recovering an agent the assigner already has");
        let before = self.refill_owners();
        self.recorder.record(ObsEvent::CrawlRecover { agent, now });

        let mut lost_by_host = BTreeMap::new();
        let (moved, batches) = self.apply_reassignment(&before, now, &mut lost_by_host);
        self.finish_membership_change(now, moved, batches);

        // Bring the recovered incarnation's connection pool online.
        let slots = {
            let a = &mut self.agents[agent as usize];
            let s = a.idle_slots;
            a.idle_slots = 0;
            s
        };
        for _ in 0..slots {
            self.queue.schedule_at(now, Event::TryFetch { agent, epoch });
        }
    }

    /// Diff host ownership against `before` and migrate every moved
    /// host's frontier state to its new owner — except hosts whose old
    /// owner still has the connection open (rule 2: block the new owner
    /// and let `FetchDone` complete the migration). Returns the number
    /// of moved hosts and per-destination handoff batch sizes.
    fn apply_reassignment(
        &mut self,
        before: &[AgentId],
        now: SimTime,
        lost_by_host: &mut BTreeMap<HostId, Vec<PageId>>,
    ) -> (u64, BTreeMap<u32, (u64, u64)>) {
        let mut moved = 0u64;
        let mut batches: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (idx, &old) in before.iter().enumerate() {
            let h = HostId(idx as u32);
            let new = self.owner_of(h);
            if new == old {
                continue;
            }
            moved += 1;
            if self.fetching.get(&h) == Some(&old.0) {
                // The old owner (still alive) has the host's one allowed
                // connection open: defer. Its FetchDone migrates the
                // queue and lifts this block.
                self.agents[new.0 as usize].frontier.block(h);
                continue;
            }
            let (pages, na) = self.agents[old.0 as usize].frontier.extract_host(h);
            let lost = lost_by_host.remove(&h).unwrap_or_default();
            let mut floor = na;
            if !lost.is_empty() {
                let f = now + self.cfg.politeness_delay;
                floor = Some(floor.map_or(f, |x| x.max(f)));
            }
            let offered = pages.len() + lost.len();
            let dst = &mut self.agents[new.0 as usize];
            let installed = dst.frontier.install_host(h, pages.into_iter().chain(lost), floor, now);
            if self.fetching.get(&h).is_some_and(|&g| g != new.0) {
                // A third agent (an earlier deferred handoff) still holds
                // the connection: the new owner inherits the block.
                dst.frontier.block(h);
            }
            self.outstanding -= (offered - installed) as i64;
            if installed > 0 {
                let e = batches.entry(new.0).or_insert((0, 0));
                e.0 += 1;
                e.1 += installed as u64;
                self.wake(new.0, now);
            }
        }
        (moved, batches)
    }

    fn finish_membership_change(
        &mut self,
        now: SimTime,
        moved: u64,
        batches: BTreeMap<u32, (u64, u64)>,
    ) {
        self.fstats.hosts_moved += moved;
        self.recorder.record(ObsEvent::CrawlReassign { now, hosts_moved: moved });
        for (to, (hosts, urls)) in batches {
            if urls == 0 {
                continue;
            }
            self.fstats.handoff_batches += 1;
            self.fstats.handoff_urls += urls;
            self.recorder.record(ObsEvent::CrawlHandoff { to, now, hosts, urls });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{ConsistentHashAssigner, HashAssigner};
    use dwr_avail::failure::UpDownProcess;
    use dwr_obs::{ObsConfig, ObsRecorder};
    use dwr_sim::MINUTE;
    use dwr_webgraph::generate::{generate_web, WebConfig};
    use std::sync::Arc;

    fn tiny_web() -> SyntheticWeb {
        let mut cfg = WebConfig::tiny();
        cfg.num_pages = 800;
        cfg.num_hosts = 40;
        generate_web(&cfg, 77)
    }

    fn fast_cfg() -> CrawlConfig {
        CrawlConfig {
            agents: 4,
            connections_per_agent: 8,
            politeness_delay: SECOND / 2,
            batch_size: 20,
            most_cited_seed: 0,
            qos: QosConfig { flaky_fraction: 0.0, slow_fraction: 0.0, ..QosConfig::default() },
            ..CrawlConfig::default()
        }
    }

    #[test]
    fn crawl_reaches_high_coverage() {
        let web = tiny_web();
        let crawl = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 1);
        let r = crawl.run();
        // The giant component of a PA graph is most of it; seeds cover the
        // rest only partially (isolated hosts stay uncrawled).
        assert!(r.coverage > 0.6, "coverage={}", r.coverage);
        assert_eq!(r.duplicate_fetches, 0);
        assert!(r.makespan > 0);
        assert_eq!(r.per_agent_fetches.iter().sum::<u64>(), r.fetched_pages);
        assert_eq!(r.faults, CrawlFaultStats::default(), "fault-free run");
        assert!(r.trace.is_empty(), "tracing off by default");
    }

    #[test]
    fn deterministic_given_seed() {
        let web = tiny_web();
        let a = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 5).run();
        let b = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 5).run();
        assert_eq!(a.fetched_pages, b.fetched_pages);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.exchange, b.exchange);
    }

    #[test]
    fn most_cited_seeding_cuts_exchange_traffic() {
        let web = tiny_web();
        let base = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 7).run();
        let mut cfg = fast_cfg();
        cfg.most_cited_seed = 50;
        let seeded = DistributedCrawl::new(&web, HashAssigner::new(4), cfg, 7).run();
        assert!(
            seeded.exchange.sent_urls < base.exchange.sent_urls,
            "seeded={} base={}",
            seeded.exchange.sent_urls,
            base.exchange.sent_urls
        );
        assert!(seeded.exchange.suppressed > 0);
        // Coverage must not suffer.
        assert!(seeded.coverage >= base.coverage - 0.05);
    }

    #[test]
    fn transient_failures_are_retried() {
        let web = tiny_web();
        let mut cfg = fast_cfg();
        cfg.qos.flaky_fraction = 0.3;
        cfg.qos.flaky_failure_prob = 0.4;
        let r = DistributedCrawl::new(&web, HashAssigner::new(4), cfg, 9).run();
        assert!(r.transient_failures > 0);
        // Retries keep coverage up despite failures.
        assert!(r.coverage > 0.5, "coverage={}", r.coverage);
        assert!(r.attempts > r.fetched_pages);
    }

    #[test]
    fn crash_recovery_preserves_coverage() {
        let web = tiny_web();
        let baseline =
            DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), fast_cfg(), 11).run();
        let mut cfg = fast_cfg();
        cfg.faults = Some(AgentSchedule::single_crash(4, AgentId(2), baseline.makespan / 4));
        let crashed =
            DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), cfg, 11).run();
        assert!(
            crashed.coverage > baseline.coverage - 0.1,
            "crashed={} baseline={}",
            crashed.coverage,
            baseline.coverage
        );
        // The dead agent stops fetching.
        assert!(crashed.per_agent_fetches[2] < baseline.per_agent_fetches[2]);
        assert_eq!(crashed.faults.crashes, 1);
        assert_eq!(crashed.faults.recoveries, 0, "a single crash never recovers");
        assert!(crashed.faults.hosts_moved > 0, "agent 2's hosts must move");
    }

    #[test]
    fn churn_with_recoveries_completes_and_accounts() {
        let web = tiny_web();
        let baseline =
            DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), fast_cfg(), 41).run();
        let mut cfg = fast_cfg();
        // Aggressive flapping over the whole crawl: mean up 40 s, down 10 s.
        let process = UpDownProcess::exponential(40 * SECOND, 10 * SECOND);
        cfg.faults = Some(AgentSchedule::generate(4, &process, baseline.makespan * 4, 41));
        let churned =
            DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), cfg, 41).run();
        let f = churned.faults;
        assert!(f.crashes >= 2, "schedule should crash repeatedly: {f:?}");
        assert!(f.recoveries >= 1, "and recover at least once: {f:?}");
        assert!(f.hosts_moved > 0);
        assert!(
            churned.coverage > baseline.coverage - 0.1,
            "churned={} baseline={}",
            churned.coverage,
            baseline.coverage
        );
        assert!(
            churned.makespan <= baseline.makespan * 10,
            "churn must not stall the crawl: {} vs baseline {}",
            churned.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn obs_counters_match_offline_fault_stats() {
        let web = tiny_web();
        let mut cfg = fast_cfg();
        let process = UpDownProcess::exponential(30 * SECOND, 8 * SECOND);
        cfg.faults = Some(AgentSchedule::generate(4, &process, 10 * MINUTE, 51));
        let rec = Arc::new(ObsRecorder::new(ObsConfig::crawl_tier()));
        let r = DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), cfg, 51)
            .with_obs(Arc::clone(&rec))
            .run();
        let snap = rec.snapshot();
        let f = r.faults;
        assert!(f.crashes > 0, "need at least one crash for the cross-check: {f:?}");
        assert_eq!(snap.counter("crawl.crashes"), Some(f.crashes));
        assert_eq!(snap.counter("crawl.recoveries"), Some(f.recoveries));
        assert_eq!(snap.counter("crawl.lost_inflight"), Some(f.lost_inflight));
        assert_eq!(snap.counter("crawl.hosts_moved"), Some(f.hosts_moved));
        assert_eq!(snap.counter("crawl.handoff_batches"), Some(f.handoff_batches));
        assert_eq!(snap.counter("crawl.handoff_urls"), Some(f.handoff_urls));
        assert_eq!(snap.counter("crawl.refetches"), Some(f.refetches));
    }

    #[test]
    fn trace_spans_close_and_account_lost_work() {
        let web = tiny_web();
        let mut cfg = fast_cfg();
        cfg.record_trace = true;
        let process = UpDownProcess::exponential(25 * SECOND, 6 * SECOND);
        cfg.faults = Some(AgentSchedule::generate(4, &process, 10 * MINUTE, 61));
        let r = DistributedCrawl::new(&web, ConsistentHashAssigner::new(4, 64), cfg, 61).run();
        assert_eq!(r.trace.len() as u64, r.attempts, "one span per attempt");
        let lost = r.trace.iter().filter(|s| s.outcome == SpanOutcome::LostInCrash).count();
        assert_eq!(lost as u64, r.faults.lost_inflight, "lost spans = lost in-flight fetches");
        let ok = r.trace.iter().filter(|s| s.outcome == SpanOutcome::Fetched).count();
        assert_eq!(ok as u64, r.fetched_pages + r.duplicate_fetches);
        assert!(r.trace.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn last_live_agent_is_never_killed() {
        let web = tiny_web();
        let mut cfg = fast_cfg();
        cfg.agents = 2;
        // Both agents scheduled to die early and never recover.
        cfg.faults = Some(AgentSchedule::from_intervals(
            vec![
                vec![dwr_avail::failure::DownInterval { start: 5 * SECOND, end: SimTime::MAX }],
                vec![dwr_avail::failure::DownInterval { start: 6 * SECOND, end: SimTime::MAX }],
            ],
            SimTime::MAX,
        ));
        let r = DistributedCrawl::new(&web, ConsistentHashAssigner::new(2, 64), cfg, 71).run();
        assert_eq!(r.faults.crashes, 1, "only the first crash lands");
        assert_eq!(r.faults.crashes_suppressed, 1, "the second would kill the pool");
        assert!(r.coverage > 0.5, "the survivor finishes the crawl: {}", r.coverage);
    }

    #[test]
    fn dns_cache_hits_dominate() {
        let web = tiny_web();
        let r = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 13).run();
        // Many pages per host ⇒ most lookups are repeat lookups.
        assert!(r.dns.hit_ratio() > 0.7, "dns hit ratio {}", r.dns.hit_ratio());
    }

    #[test]
    fn robots_exclusion_is_respected() {
        let web = tiny_web();
        let mut cfg = fast_cfg();
        cfg.robots_restrictive_fraction = 1.0;
        cfg.robots_disallow_fraction = 0.4;
        let r = DistributedCrawl::new(&web, HashAssigner::new(4), cfg, 21).run();
        assert!(r.robots_skipped > 0);
        assert!(r.allowed_pages < web.num_pages() as u64);
        // Polite crawl never exceeds the allowed set.
        assert!(r.fetched_pages <= r.allowed_pages);
        // But covers most of what is allowed.
        assert!(r.coverage_allowed > 0.6, "allowed coverage {}", r.coverage_allowed);
    }

    #[test]
    fn sitemaps_discover_pages_links_never_reach() {
        let web = tiny_web();
        let base = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 23).run();
        let mut cfg = fast_cfg();
        cfg.sitemap_fraction = 1.0;
        let coop = DistributedCrawl::new(&web, HashAssigner::new(4), cfg, 23).run();
        assert!(coop.sitemap_discoveries > 0);
        assert!(
            coop.fetched_pages >= base.fetched_pages,
            "coop={} base={}",
            coop.fetched_pages,
            base.fetched_pages
        );
    }

    #[test]
    fn cross_region_penalty_slows_mismatched_agents() {
        let web = tiny_web();
        // All agents in region 0: pages on region-1 hosts pay the penalty.
        let mut slow = fast_cfg();
        slow.agent_regions = vec![0; 4];
        slow.cross_region_penalty = 5 * SECOND;
        let mut free = fast_cfg();
        free.agent_regions = vec![0; 4];
        free.cross_region_penalty = 0;
        let a = DistributedCrawl::new(&web, HashAssigner::new(4), slow, 25).run();
        let b = DistributedCrawl::new(&web, HashAssigner::new(4), free, 25).run();
        assert!(a.makespan > b.makespan, "penalized {} vs {}", a.makespan, b.makespan);
    }

    #[test]
    fn exchange_traffic_scales_with_remote_links() {
        // With one agent there is no exchange traffic at all.
        let web = tiny_web();
        let mut cfg = fast_cfg();
        cfg.agents = 1;
        let solo = DistributedCrawl::new(&web, HashAssigner::new(1), cfg, 15).run();
        assert_eq!(solo.exchange.sent_urls, 0);
        let multi = DistributedCrawl::new(&web, HashAssigner::new(4), fast_cfg(), 15).run();
        assert!(multi.exchange.sent_urls > 0);
    }
}
