//! # dwr-crawler — distributed crawling (Section 3)
//!
//! A distributed crawler "operates simultaneous crawling agents (...) the
//! same agent is responsible for all the content of a set of Web servers"
//! — and its design questions are exactly the paper's Table 1 row:
//!
//! * **Partitioning** ([`assign`]) — URL/host assignment: plain hashing,
//!   consistent hashing with replicated virtual buckets (UbiCrawler \[6\]),
//!   and geographic assignment \[13\]. Metrics: balance and how many hosts
//!   move when an agent joins or leaves.
//! * **Communication** ([`exchange`]) — batched URL exchanges between
//!   agents, with suppression of the most-cited URLs ("agents do not need
//!   to exchange URLs found very frequently" thanks to the power-law
//!   in-degree \[5\]).
//! * **Dependability** ([`sim`], [`faults`]) — schedule-driven agent
//!   churn: agents crash *and recover* mid-crawl under an
//!   [`AgentSchedule`]; each membership change updates the live assigner,
//!   re-routes the affected hosts, and hands the departing agent's
//!   unfetched frontier to the new owners with host-level politeness
//!   state carried over, so the crawl completes with the
//!   one-connection/delay invariant intact. Its URL-seen test consults
//!   the document store and the open connections as well as the owner's
//!   frontier, so churn costs no duplicate fetches.
//! * **External factors** ([`sim`], via `dwr-webgraph`'s DNS and QoS
//!   models) — DNS caching, slow servers, transient failures and retry,
//!   and the hard politeness invariant: *never more than one open
//!   connection per server* plus a minimum delay between accesses.
//! * **Re-crawling** ([`recrawl`]) — freshness-driven revisit scheduling
//!   against the web's change process, with server cooperation and growth.
//! * **Prioritization** ([`frontier`], [`priority`]) — one frontier whose
//!   per-host queues run in discovery order or most-cited first
//!   ([`frontier::QueueOrder`], chosen by [`CrawlConfig::order`]; "prioritize
//!   high-quality objects", Section 6's open problem), and E22's
//!   measurement of what citation order buys on the simulated crawl.

pub mod assign;
pub mod exchange;
pub mod faults;
pub mod frontier;
pub mod priority;
pub mod recrawl;
pub mod sim;

pub use assign::{AgentId, ConsistentHashAssigner, GeoAssigner, HashAssigner, UrlAssigner};
pub use faults::{AgentSchedule, Transition};
pub use sim::{
    CrawlConfig, CrawlFaultStats, CrawlReport, DistributedCrawl, FetchSpan, SpanOutcome,
};
