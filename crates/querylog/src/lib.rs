//! # dwr-querylog — synthetic query streams
//!
//! "The scale and complexity of Web search engines, as well as the volume
//! of queries submitted every day by users, make query logs a critical
//! source of information" (Section 4). Every query-driven technique the
//! paper surveys — SDC caching \[51\], bin-packed term partitioning \[21\],
//! query-driven co-clustering \[19\], hourly load shifting \[33\] — needs a
//! query stream with the right statistics. This crate generates one:
//!
//! * [`model`] — a universe of distinct queries with Zipfian popularity,
//!   topical composition tied to the corpus content model, and realistic
//!   length distribution;
//! * [`arrival`] — a non-homogeneous Poisson arrival process with per-region
//!   diurnal profiles (Beitzel et al.'s hourly fluctuation);
//! * [`drift`] — slow topic-distribution drift, the "changing user needs"
//!   external factor of Table 1;
//! * [`log`] — materialized logs with train/test splitting.

pub mod arrival;
pub mod drift;
pub mod log;
pub mod model;

pub use log::{LogRecord, QueryLog};
pub use model::{QueryDef, QueryId, QueryModel};
