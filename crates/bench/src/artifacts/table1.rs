//! Regenerate **Table 1**: main modules × key issues, with pointers to the
//! modules of this repository implementing each cell.
//!
//! Run: `cargo run -p dwr-bench --release -- T1`

use crate::Ctx;

pub(crate) fn run(_: &Ctx) {
    print!("{}", dwr_core::taxonomy::render_table1());
}
