//! Regenerate the paper's artifacts: every table, figure and claim of
//! EXPERIMENTS.md.
//!
//! Run: `cargo run -p dwr-bench --release -- [--smoke] [ID ...]`, where an
//! ID is an EXPERIMENTS.md heading (T1, F1, F2, F5, F6, E1 … E31). With
//! no ID every artifact runs, in paper order; `--smoke` shrinks the
//! workloads that have a CI scale.

use dwr_bench::{Ctx, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if let Some(artifact) = ARTIFACTS.iter().find(|(id, _)| *id == arg) {
            selected.push(artifact);
        } else {
            let ids: Vec<&str> = ARTIFACTS.iter().map(|(id, _)| *id).collect();
            eprintln!("regen: unknown argument {arg:?}; expected --smoke or an ID of {ids:?}");
            return ExitCode::FAILURE;
        }
    }
    if selected.is_empty() {
        selected = ARTIFACTS.iter().collect();
    }
    let ctx = Ctx::new(smoke);
    for (i, (id, run)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("==> {id}");
        run(&ctx);
    }
    ExitCode::SUCCESS
}
