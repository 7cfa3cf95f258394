//! `ocean_bench`: the wall-clock benchmark of `ocean`.
//!
//! ```text
//! ocean_bench --workload W [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!     one workload in this process; the last line of standard output is
//!     the result object of the benchmark contract
//! ocean_bench [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
//!     every workload, each in its own process; writes a result file
//! ocean_bench --compare A.json B.json
//!     judge result file B against baseline A
//! ocean_bench --manifest
//!     print the contents of /BENCHMARK.json
//! ```
//!
//! It measures the program strictly from outside, by timing calls into
//! each layer's public functions, and changes nothing in the library.

mod alloc;
mod fixture;
mod harness;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use dwr_obs::Json;
use harness::{Outcome, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: fixture::DEFAULT_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
        compare: None,
        manifest: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--out" => cli.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                cli.compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)));
            }
            "--smoke" => cli.smoke = true,
            "--manifest" => cli.manifest = true,
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(cli)
}

/// File a single-workload run leaves for the all-workloads parent.
fn record_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}{}.json", if trace { ".trace" } else { "" }))
}

/// Print every metric as `workload metric value unit`, then the gate
/// verdict.
fn print_outcome(workload: &str, o: &Outcome) {
    for &(name, value, unit) in &o.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!("{workload} failed_share {} ratio", o.failed as f64 / o.attempted.max(1) as f64);
    println!(
        "{workload} # {} repetitions, {} calls timed per repetition, tail = p{:.1}, fixture {:#018x}",
        o.reps, o.latency.samples, o.latency.tail_pct, o.info.digest
    );
    for p in &o.problems {
        println!("{workload} # GATE FAILED: {p}");
    }
}

fn run_one(cli: &Cli, workload: &str) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: if cli.smoke { cli.seconds.min(0.5) } else { cli.seconds },
        trace: cli.trace,
        sizes: if cli.smoke { fixture::Sizes::smoke() } else { fixture::Sizes::full() },
        out_dir: cli.out_dir.clone(),
    };
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let outcome = harness::run(&args)?;
    print_outcome(workload, &outcome);
    let path = record_path(&cli.out_dir, workload, cli.trace);
    std::fs::write(&path, outcome.record().render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", outcome.result_line());
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload, each in a process of its own so that `peak_rss_mb`
/// is the workload's and not the run's.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut all_ok = true;
    for (workload, _) in metrics::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload, "--seed", &cli.seed.to_string()])
            .args([
                "--seconds",
                &cli.seconds.to_string(),
                "--trace",
                if cli.trace { "1" } else { "0" },
            ])
            .arg("--out-dir")
            .arg(&cli.out_dir);
        if cli.smoke {
            child.arg("--smoke");
        }
        let status = child.status().map_err(|e| format!("cannot start {workload}: {e}"))?;
        all_ok &= status.success();
        let path = record_path(&cli.out_dir, workload, cli.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        records.push((workload.to_string(), json::parse(&text)?));
    }
    let doc = Json::obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("smoke", Json::Bool(cli.smoke)),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64))),
        ("workloads", Json::Obj(records)),
    ]);
    let default = if cli.trace { "results_trace.json" } else { "results.json" };
    let path = cli.out.clone().unwrap_or_else(|| cli.out_dir.join(default));
    std::fs::write(&path, metrics::pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| json::parse(&t))
    };
    let (rows, breaches) = metrics::compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<13} {:<42} {:>18} {:>18} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by"
    );
    for row in &rows {
        println!("{row}");
    }
    println!("# {} rows, {breaches} breaches", rows.len());
    Ok(if breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_cli(&args).and_then(|cli| {
        if cli.manifest {
            print!("{}", metrics::pretty(&metrics::manifest()));
            Ok(ExitCode::SUCCESS)
        } else if let Some((a, b)) = &cli.compare {
            compare(a, b)
        } else if let Some(workload) = &cli.workload {
            run_one(&cli, workload)
        } else {
            run_all(&cli)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("ocean_bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&["--workload", "cold_scan", "--seed", "7", "--seconds", "8", "--trace", "0"])
            .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.trace),
            (Some("cold_scan"), 7, 8.0, false)
        );
        assert!(cli(&["--workload", "cold_scan", "--trace", "1"]).unwrap().trace);
        let c = cli(&["--trace", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke && c.workload.is_none());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }
}
