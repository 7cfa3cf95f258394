//! The names this benchmark reports under, and how two results compare.
//!
//! Later changes are judged against these workload and metric names
//! verbatim, so they live in one table: `BENCHMARK.json` is rendered
//! from it (`--manifest`, pinned by a test), the result files use it,
//! and `--compare` applies each metric's direction and bound from it.

use crate::json::{get, get_num, get_str};
use dwr_obs::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// A count or a ratio of counts: two runs on one seed must agree
    /// exactly, whatever the bound says.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), exact: false }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: false }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, exact: true }
}

use Better::{Higher, Lower};

/// How long one untraced run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_scan",
        "distinct queries asked once each: every op misses the cache and scans long posting lists, so text decode, evaluation and top-k do nearly all the work",
    ),
    (
        "zipf_cached",
        "Zipf(0.9) repeats over the same index: the result cache decides how much backend work exists, so cache changes move it while cold_scan must not move",
    ),
    (
        "fanout_batch",
        "16 small shards, a pool of 2, batches of 64: a shard task is ~7 us of evaluation, so admission, scatter dispatch and broker merge weigh more here than anywhere else",
    ),
    (
        "index_build",
        "the write side: partitioned build, live-index build and 4 splits per cycle, so a read format that decodes faster but encodes slower or larger shows here",
    ),
    (
        "soak_storm",
        "crawl, refresh, live splits, routing, hedging and 3-site serving in one run: the only guard for the tiers the other four never touch",
    ),
];

/// Metrics a user of the system would see; reported by every workload.
///
/// The timing bounds are the widest the benchmark contract allows. They
/// describe the box the baseline was taken on, not the project's
/// tolerance: a 2-vCPU microVM whose effective CPU speed drifts by
/// 10–25 % for tens of seconds at a time (README, "Run-to-run spread").
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    // Steady to 1 % on one seed; `fanout_batch` moves 128–158 MB with it.
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    MetricDef {
        name: "index_bytes_per_posting",
        unit: "bytes",
        better: Lower,
        // The bound is for runs on different seeds (different corpora);
        // on one seed the figure is a ratio of two exact counts.
        bound: Some(0.02),
        exact: true,
    },
];

/// Metrics of single layers (layer = module), taken in the traced run.
/// A workload that never enters a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    timed("text.postings.decode_ns_per_posting", "ns", Lower),
    timed("text.postings.next_geq_ns_per_call", "ns", Lower),
    timed("text.postings.encode_ns_per_posting", "ns", Lower),
    counted("text.postings.bytes_per_posting", "bytes", Lower),
    timed("text.search.eval_ns_per_posting", "ns", Lower),
    timed("text.search.exhaustive_ns_per_posting", "ns", Lower),
    counted("text.search.postings_scanned_per_op", "count", Lower),
    counted("text.search.blocks_skipped_share", "ratio", Higher),
    counted("text.search.candidates_pruned_per_op", "count", Higher),
    timed("text.topk.push_ns_per_item", "ns", Lower),
    timed("text.index.build_ns_per_posting", "ns", Lower),
    timed("partition.parted.build_s", "s", Lower),
    timed("partition.repart.build_s", "s", Lower),
    timed("partition.repart.split_ms", "ms", Lower),
    counted("partition.repart.docs_moved_per_split", "count", Lower),
    timed("partition.repart.snapshot_ns", "ns", Lower),
    timed("query.broker.query_us", "us", Lower),
    timed("query.broker.self_us", "us", Lower),
    timed("query.broker.merge_ns_per_hit", "ns", Lower),
    timed("query.broker.sim_clock_ratio", "ratio", Lower),
    timed("query.scatter.dispatch_us_per_task", "us", Lower),
    timed("query.scatter.batch_dispatch_us_per_task", "us", Lower),
    timed("query.scatter.loop_ops_s", "ops/s", Higher),
    timed("query.scatter.pool_speedup", "ratio", Higher),
    counted("query.cache.hit_ratio", "ratio", Higher),
    timed("query.cache.get_hit_ns", "ns", Lower),
    timed("query.cache.get_miss_ns", "ns", Lower),
    timed("query.cache.put_ns", "ns", Lower),
    counted("query.cache.evictions_per_op", "count", Lower),
    timed("query.engine.hit_path_ns", "ns", Lower),
    timed("query.engine.cold_overhead_us", "us", Lower),
    counted("query.engine.backend_share", "ratio", Lower),
    timed("query.route.decide_ns", "ns", Lower),
    counted("query.route.shards_contacted_per_op", "count", Lower),
    counted("query.route.broadened_share", "ratio", Lower),
    counted("query.multisite.remote_share", "ratio", Lower),
    timed("crawler.sim.pages_per_wall_s", "pages/s", Higher),
    counted("soak.full_fidelity_share", "ratio", Higher),
    counted("soak.unanswered_share", "ratio", Lower),
    timed("obs.recorder.overhead_ratio", "ratio", Lower),
    timed("alloc.count_per_op", "count", Lower),
    timed("alloc.bytes_per_op", "bytes", Lower),
    timed("trace.overhead_ratio", "ratio", Lower),
    timed("trace.residual_share", "ratio", Lower),
    timed("trace.self_share.text", "ratio", Lower),
    timed("trace.self_share.query", "ratio", Lower),
    timed("trace.self_share.partition", "ratio", Lower),
    timed("trace.self_share.crawler", "ratio", Lower),
    timed("trace.self_share.soak", "ratio", Lower),
];

/// The definition of a metric, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn better_str(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better_str(m.better))),
                            (
                                "bound",
                                Json::Num(m.bound.expect("end-to-end metrics carry a bound")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(better_str(m.better))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render `value` with one array element or object member per line.
pub fn pretty(value: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = |d: usize| "  ".repeat(d);
        match v {
            // Leaf containers (one metric, one command) stay on one line.
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push(']');
            }
            Json::Obj(pairs)
                if pairs.iter().any(|(_, i)| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push_str("{\n");
                for (i, (k, item)) in pairs.iter().enumerate() {
                    out.push_str(&pad(depth + 1));
                    out.push_str(&Json::str(k.as_str()).render());
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(depth));
                out.push('}');
            }
            flat => out.push_str(&flat.render()),
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

/// Outcome of comparing one metric between a baseline and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or exactly equal, for an exact metric).
    Ok,
    /// Worse by more than the bound, or an exact metric that differs.
    Breach,
    /// A timed layer metric: shown, never judged (layers carry no bound).
    Info,
}

/// By how much `candidate` is worse than `baseline` as a share of the
/// baseline (negative when it is better), respecting the direction.
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    let delta = match better {
        Higher => baseline - candidate,
        Lower => candidate - baseline,
    };
    if delta == 0.0 {
        0.0
    } else if baseline == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / baseline.abs()
    }
}

/// Judge one metric of a candidate run against the baseline run.
pub fn judge(def: &MetricDef, baseline: f64, candidate: f64) -> Verdict {
    if def.exact {
        return if baseline == candidate { Verdict::Ok } else { Verdict::Breach };
    }
    match def.bound {
        Some(bound) if worsening(def.better, baseline, candidate) > bound => Verdict::Breach,
        Some(_) => Verdict::Ok,
        None => Verdict::Info,
    }
}

/// Compare two result files (as written by a full run): one row per
/// workload × metric, plus the per-workload exact fields. Returns the
/// rows and how many of them are breaches.
pub fn compare(baseline: &Json, candidate: &Json) -> Result<(Vec<String>, usize), String> {
    let workloads = |doc: &Json| match get(doc, "workloads") {
        Some(Json::Obj(pairs)) => Ok(pairs.clone()),
        _ => Err("result file has no \"workloads\" object".to_string()),
    };
    let (base, cand) = (workloads(baseline)?, workloads(candidate)?);
    let mut rows = Vec::new();
    let mut breaches = 0usize;
    let mut row =
        |workload: &str, what: &str, a: String, b: String, note: String, verdict: Verdict| {
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Breach => "BREACH",
                Verdict::Info => "info",
            };
            rows.push(format!("{workload:<13} {what:<42} {a:>18} {b:>18} {note:>9}  {word}"));
            breaches += usize::from(verdict == Verdict::Breach);
        };
    let exact = |same: bool| if same { Verdict::Ok } else { Verdict::Breach };
    for (name, a) in &base {
        let Some((_, b)) = cand.iter().find(|(n, _)| n == name) else {
            row(
                name,
                "(workload)",
                "present".into(),
                "missing".into(),
                String::new(),
                Verdict::Breach,
            );
            continue;
        };
        for field in ["fixture_digest", "response_digest"] {
            let (x, y) = (get_str(a, field).unwrap_or("-"), get_str(b, field).unwrap_or("-"));
            row(name, field, x.into(), y.into(), "exact".into(), exact(x == y));
        }
        for field in ["correct", "failed_share"] {
            let show = |doc: &Json| match get(doc, field) {
                Some(v) => v.render(),
                None => "-".to_string(),
            };
            let (x, y) = (show(a), show(b));
            let same = x == y && (field != "correct" || y == "true");
            row(name, field, x, y, "exact".into(), exact(same));
        }
        let Some(Json::Obj(metrics)) = get(a, "metrics") else {
            return Err(format!("workload {name} has no metrics"));
        };
        for (metric, entry) in metrics {
            let Some(def) = lookup(metric) else {
                return Err(format!("unknown metric {metric}"));
            };
            let x = get_num(entry, "value").ok_or_else(|| format!("{name}.{metric}: no value"))?;
            let Some(y) =
                get(b, "metrics").and_then(|m| get(m, metric)).and_then(|e| get_num(e, "value"))
            else {
                row(name, metric, format!("{x}"), "missing".into(), String::new(), Verdict::Breach);
                continue;
            };
            let verdict = judge(def, x, y);
            let note = if def.exact {
                "exact".to_string()
            } else {
                format!("{:+.1}%", 100.0 * worsening(def.better, x, y))
            };
            row(name, metric, format!("{x:.4}"), format!("{y:.4}"), note, verdict);
        }
    }
    Ok((rows, breaches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names =
            WORKLOADS.iter().map(|w| w.0).chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
        let setup = lookup("setup_s").unwrap();
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(widest <= 0.25);
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(parse(&on_disk).unwrap(), manifest(), "regenerate with run.sh --manifest");
        assert_eq!(parse(&pretty(&manifest())).unwrap(), manifest());
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
        assert!((worsening(Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Lower, 100.0, 130.0) - 0.30).abs() < 1e-12);
        assert_eq!(worsening(Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn judge_applies_bound_direction_and_exactness() {
        let tput = lookup("throughput_ops_s").unwrap();
        assert_eq!(judge(tput, 1000.0, 755.0), Verdict::Ok);
        assert_eq!(judge(tput, 1000.0, 745.0), Verdict::Breach);
        assert_eq!(judge(tput, 1000.0, 5000.0), Verdict::Ok, "better is never a breach");
        let p99 = lookup("latency_p99_us").unwrap();
        assert_eq!(judge(p99, 100.0, 124.0), Verdict::Ok);
        assert_eq!(judge(p99, 100.0, 126.0), Verdict::Breach);
        let bytes = lookup("index_bytes_per_posting").unwrap();
        assert_eq!(judge(bytes, 2.38, 2.38), Verdict::Ok);
        assert_eq!(
            judge(bytes, 2.38, 2.379),
            Verdict::Breach,
            "exact metrics may not even improve"
        );
        assert_eq!(judge(lookup("query.cache.hit_ratio").unwrap(), 0.62, 0.63), Verdict::Breach);
        assert_eq!(judge(lookup("query.broker.query_us").unwrap(), 10.0, 99.0), Verdict::Info);
    }

    fn result(tput: f64, fixture: &str, failed_share: f64) -> Json {
        parse(&format!(
            "{{\"workloads\":{{\"cold_scan\":{{\"fixture_digest\":\"{fixture}\",\"response_digest\":\"r\",\
             \"correct\":true,\"failed_share\":{failed_share},\"metrics\":{{\
             \"throughput_ops_s\":{{\"value\":{tput},\"unit\":\"ops/s\"}},\
             \"query.broker.query_us\":{{\"value\":{tput},\"unit\":\"us\"}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_counts_breaches() {
        let base = result(1000.0, "f", 0.0);
        let (rows, breaches) = compare(&base, &result(950.0, "f", 0.0)).unwrap();
        assert_eq!(breaches, 0, "{rows:#?}");
        assert!(rows.iter().any(|r| r.contains("query.broker.query_us") && r.ends_with("info")));
        assert_eq!(compare(&base, &result(700.0, "f", 0.0)).unwrap().1, 1, "throughput breach");
        assert_eq!(
            compare(&base, &result(1000.0, "g", 0.0)).unwrap().1,
            1,
            "fixture digest differs"
        );
        assert_eq!(compare(&base, &result(1000.0, "f", 0.5)).unwrap().1, 1, "failed share differs");
        assert!(compare(&base, &parse("{}").unwrap()).is_err());
    }
}
