//! # distributed-web-retrieval (ocean)
//!
//! Root facade of the `ocean` workspace: re-exports every subsystem crate so
//! examples and downstream users can depend on a single package.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced table and figure.

pub use dwr_avail as avail;
pub use dwr_crawler as crawler;
pub use dwr_obs as obs;
pub use dwr_partition as partition;
pub use dwr_query as query;
pub use dwr_querylog as querylog;
pub use dwr_queueing as queueing;
pub use dwr_sim as sim;
pub use dwr_soak as soak;
pub use dwr_text as text;
pub use dwr_webgraph as webgraph;
