//! The run loop every workload shares: set up, warm up, repeat, gate,
//! aggregate, report.
//!
//! Load model: a closed loop with one client thread — callers of `ocean`
//! are in-process and each waits for its reply. A repetition is a fixed
//! op sequence (never time-boxed, so it is the same work on every
//! commit); `--seconds` only decides how many repetitions are timed.
//!
//! Every repetition times the same pieces of work in the same order, and
//! each piece is reported at the fastest it ran in any repetition
//! ([`crate::stats::best_pieces`]): on a shared machine interference
//! only ever adds time, in episodes of seconds that swallow whole
//! repetitions, so a median over repetitions moves with the neighbours
//! while the per-piece minimum stays with the code. Throughput and the
//! latency percentiles are all taken from that one vector.

use crate::fixture::{FixtureInfo, Sizes};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{self_time_by_layer, Tracer};
use crate::stats::{best_pieces, call_sums, median, summarize, LatencySummary};
use crate::{alloc, workloads};
use dwr_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed repetitions a run never goes below, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;
/// One op in this many is replayed layer by layer in the traced run.
pub const SAMPLE_EVERY: usize = 16;

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Ops performed (queries; documents for `index_build`).
    pub ops: u64,
    /// Wall time of the op loop, ns.
    pub busy_ns: u64,
    /// Wall time of every timed piece, ns, in op order. Piece `i` is the
    /// same work in every repetition.
    pub piece_ns: Vec<u64>,
    /// Consecutive pieces that make one client call (1 when every call
    /// is timed whole).
    pub pieces_per_call: usize,
    /// Ops whose answer was missing, degraded or different from the
    /// reference.
    pub failed: u64,
    /// FNV over every response, in op order.
    pub digest: u64,
}

/// Per-layer figures collected by a traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A set-up workload.
pub trait Workload {
    /// What it was fed.
    fn info(&self) -> FixtureInfo;
    /// One untraced repetition, gates included (outside the timed calls).
    fn rep(&self) -> Rep;
    /// One traced repetition: a span around every client call, the
    /// sampled layer replays beneath it, allocation counting around the
    /// client calls only. `busy_ns` is the wall time of the whole loop,
    /// replays included.
    fn traced_rep(&self, tracer: &mut Tracer, layers: &mut Layers) -> Rep;
    /// Stand-alone microbenchmarks of the layers the workload exercises.
    fn layer_benches(&self, tracer: &mut Tracer, layers: &mut Layers);
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed repetitions go on, seconds.
    pub seconds: f64,
    /// Make the traced run instead of the end-to-end one.
    pub trace: bool,
    /// Sizes (full or smoke).
    pub sizes: Sizes,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: std::path::PathBuf,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every gate passed.
    pub correct: bool,
    /// Ops in the timed repetitions.
    pub attempted: u64,
    /// Of those, ops with a wrong answer.
    pub failed: u64,
    /// Timed repetitions.
    pub reps: usize,
    /// Latency summary of the client calls.
    pub latency: LatencySummary,
    /// Fixture summary.
    pub info: FixtureInfo,
    /// Digest every repetition's responses agreed on.
    pub response_digest: u64,
    /// Gate failures, in words.
    pub problems: Vec<String>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up [`SETUPS`] times; keep the last. Each fixture is
/// dropped before the next is built so the peak RSS is one fixture's.
fn set_up(args: &RunArgs) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::build(&args.workload, args.seed, &args.sizes)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUPS > 0"), median(&times)))
}

/// Run one workload and aggregate its metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (workload, setup_s) = set_up(args)?;
    let info = workload.info();
    if args.trace {
        return traced(args, workload.as_ref(), info);
    }
    let mut problems = Vec::new();

    // One discarded warm-up repetition: page faults, lazy set-up, warm
    // caches. It still has to pass the gate.
    let warm = workload.rep();
    if warm.failed > 0 {
        problems.push(format!("warm-up: {} ops failed the reference check", warm.failed));
    }

    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let rep = workload.rep();
        if rep.digest != warm.digest {
            problems.push(format!(
                "repetition {}: response digest {:#018x} differs from the warm-up's {:#018x}",
                reps.len(),
                rep.digest,
                warm.digest
            ));
        }
        reps.push(rep);
        // Start another repetition only if it is expected to end inside
        // the measuring window.
        let typical = median(&reps.iter().map(|r| r.busy_ns as f64 / 1e9).collect::<Vec<_>>());
        if reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let pieces: Vec<&[u64]> = reps.iter().map(|r| r.piece_ns.as_slice()).collect();
    let best = best_pieces(&pieces);
    let best_s = best.iter().sum::<u64>() as f64 / 1e9;
    let mut calls = call_sums(&best, reps[0].pieces_per_call);
    let latency = summarize(&mut calls);
    let values = [
        ("throughput_ops_s", reps[0].ops as f64 / best_s),
        ("latency_p50_us", latency.p50_ns as f64 / 1e3),
        ("latency_p99_us", latency.tail_ns as f64 / 1e3),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("index_bytes_per_posting", info.index_bytes as f64 / info.postings as f64),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value =
                values.iter().find(|(n, _)| *n == m.name).expect("every end-to-end metric").1;
            (m.name, value, m.unit)
        })
        .collect();
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        reps: reps.len(),
        latency,
        info,
        response_digest: warm.digest,
        problems,
        metrics,
    })
}

/// The traced run: one untraced repetition (warm-up and the overhead
/// baseline), one traced repetition, then the layer microbenchmarks.
fn traced(args: &RunArgs, workload: &dyn Workload, info: FixtureInfo) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut layers = Layers::new();
    let mut tracer = Tracer::default();

    let plain = workload.rep();
    let (count0, bytes0) = alloc::totals();
    let rep = workload.traced_rep(&mut tracer, &mut layers);
    let (count1, bytes1) = alloc::totals();
    if rep.digest != plain.digest {
        problems.push("traced repetition answered differently from the untraced one".to_string());
    }
    let failed = plain.failed + rep.failed;
    workload.layer_benches(&mut tracer, &mut layers);

    layers.insert("alloc.count_per_op", (count1 - count0) as f64 / rep.ops as f64);
    layers.insert("alloc.bytes_per_op", (bytes1 - bytes0) as f64 / rep.ops as f64);
    layers.insert("trace.overhead_ratio", rep.busy_ns as f64 / plain.busy_ns as f64);
    let by_layer = self_time_by_layer(tracer.spans());
    let explained: u64 = by_layer.values().sum();
    for (layer, metric) in [
        ("text", "trace.self_share.text"),
        ("query", "trace.self_share.query"),
        ("partition", "trace.self_share.partition"),
        ("crawler", "trace.self_share.crawler"),
        ("soak", "trace.self_share.soak"),
    ] {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        layers.insert(metric, if explained == 0 { 0.0 } else { own as f64 / explained as f64 });
    }

    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    let written = std::fs::File::create(&path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        tracer.write_json(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = written {
        return Err(format!("cannot write {}: {e}", path.display()));
    }

    // A layer the workload never entered did no work: 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect();
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted: plain.ops + rep.ops,
        failed,
        reps: 1,
        latency: summarize(&mut call_sums(&rep.piece_ns, rep.pieces_per_call)),
        info,
        response_digest: plain.digest,
        problems,
        metrics,
    })
}

impl Outcome {
    /// The four fields of the contract's result object.
    fn result_fields(&self) -> [(&'static str, Json); 4] {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        [
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]
    }

    /// The one-object last line of standard output the contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj(self.result_fields()).render()
    }

    /// The workload's entry in a result file: the result line's fields
    /// plus what `--compare` checks for exact equality.
    pub fn record(&self) -> Json {
        let [correct, attempted, failed, metrics] = self.result_fields();
        Json::obj([
            correct,
            attempted,
            failed,
            ("failed_share", Json::Num(self.failed as f64 / self.attempted.max(1) as f64)),
            ("fixture_digest", Json::str(format!("{:#018x}", self.info.digest))),
            ("response_digest", Json::str(format!("{:#018x}", self.response_digest))),
            ("documents", Json::Num(self.info.documents as f64)),
            ("postings", Json::Num(self.info.postings as f64)),
            ("repetitions", Json::Num(self.reps as f64)),
            ("samples_per_repetition", Json::Num(self.latency.samples as f64)),
            ("tail_percentile", Json::Num(self.latency.tail_pct)),
            metrics,
        ])
    }
}
