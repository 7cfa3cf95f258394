//! # dwr-avail — dependability models
//!
//! Section 5's dependability discussion rests on one empirical anchor —
//! **Figure 5**, the monthly availability of the 16 BIRN grid sites
//! (Junqueira & Marzullo \[38\]): "out of the 16 sites participating in this
//! system, on average 10 experience at least one outage (...) in a given
//! month". We do not have the BIRN monitoring traces, so [`failure`]
//! provides two-state renewal processes calibrated to that anchor, and
//! [`monthly`] regenerates the figure's histogram from them.
//!
//! Every tier's outages — crawling agents, query-processor replicas, whole
//! sites — are one [`Timeline`]: sorted, disjoint down intervals over a
//! horizon, with the interval lookups in one place.
//!
//! [`site`] models multi-server sites (a site is down when a network
//! partition cuts it off or all its servers are down), [`quorum`] computes
//! coterie availability (majority, read-one/write-all), and [`placement`]
//! evaluates replica-placement strategies against the availability /
//! storage-overhead trade-off the paper leaves open.

pub mod failure;
pub mod monthly;
pub mod placement;
pub mod quorum;
pub mod site;

pub use failure::{Timeline, UpDownProcess};
pub use monthly::{availability_histogram, monthly_availability};
pub use site::SiteConfig;
