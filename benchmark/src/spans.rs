//! Spans recorded by the benchmark around its own calls into `ocean`.
//!
//! The traced run records one span around every client call (the *op*)
//! and, for a 1-in-16 sample of ops, replays the layers beneath the
//! engine through their public functions with the same inputs, parenting
//! each replayed span to the op. No span lives inside `crates/`: this is
//! measurement strictly from outside.
//!
//! Replayed children run one after the other on the client thread, so
//! they never overlap: the part of a parent's interval its children
//! cover is the sum of their durations, and a span's **self time** is its
//! duration minus that sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle of a recorded span (1-based; 0 means "no parent").
pub type SpanId = u32;

/// `op` of a span that belongs to no client call (stand-alone layer
/// microbenchmarks).
pub const NO_OP: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it (0 for a root).
    pub parent: SpanId,
    /// Index of the client call it belongs to; spans of one op share it.
    pub op: u32,
    /// `<crate>.<module>.<call>`, e.g. `text.search.maxscore`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The crate the span's call lives in (`text`, `query`, ...).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span store; written out once, when the workload ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        parent: SpanId,
        op: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }

    /// Time `f` and record it; returns its result, the span id and the
    /// measured duration.
    pub fn time<T>(
        &mut self,
        parent: SpanId,
        op: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(parent, op, name, start, end), end - start)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as a JSON array of
    /// `{id, parent, op, name, start_ns, end_ns}` objects.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let op = if s.op == NO_OP { -1 } else { i64::from(s.op) };
            write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.write_all(b"\n]\n")
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// summed durations of its direct children, floored at zero (a replayed
/// child is a separate execution and can, by noise, outlast the call it
/// explains).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent as usize - 1] += s.duration_ns();
        }
    }
    spans.iter().zip(&covered).map(|(s, &c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Self time summed per layer over the spans of *explained* ops — ops
/// with more spans than the bare client call. An op that was not
/// sampled for replay has only that one span, and counting its whole
/// duration as the engine's self time would drown the layers beneath
/// it. Spans that belong to no op (stand-alone microbenchmarks) are
/// left out too.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut spans_of_op: BTreeMap<u32, usize> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op != NO_OP) {
        *spans_of_op.entry(s.op).or_insert(0) += 1;
    }
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        if spans_of_op.get(&s.op).is_some_and(|&n| n >= 2) {
            *by_layer.entry(s.layer()).or_insert(0) += own;
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(SpanId, &'static str, u64, u64)]) -> Tracer {
        tracer_with_ops(&spans.iter().map(|&(p, n, s, e)| (p, 0, n, s, e)).collect::<Vec<_>>())
    }

    fn tracer_with_ops(spans: &[(SpanId, u32, &'static str, u64, u64)]) -> Tracer {
        let mut t = Tracer::default();
        for &(parent, op, name, start, end) in spans {
            t.push(parent, op, name, start, end);
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op 0..100; broker 10..80 under it; two shard evals under the broker.
        let t = tracer_with(&[
            (0, "query.engine.query_full", 0, 100),
            (1, "query.broker.query", 10, 80),
            (2, "text.search.maxscore", 12, 40),
            (2, "text.search.maxscore", 40, 70),
        ]);
        assert_eq!(self_times(t.spans()), vec![30, 12, 28, 30]);
    }

    #[test]
    fn a_child_outlasting_its_parent_floors_at_zero() {
        let t = tracer_with(&[(0, "query.cache.get", 0, 10), (1, "query.cache.inner", 20, 45)]);
        assert_eq!(self_times(t.spans()), vec![0, 25]);
    }

    #[test]
    fn layer_shares_cover_only_explained_ops() {
        let t = tracer_with_ops(&[
            (0, 0, "query.engine.query_full", 0, 100), // op 0, explained by a replay
            (1, 0, "text.search.maxscore", 0, 90),
            (0, 1, "query.engine.query_full", 100, 1_000), // op 1, not sampled: ignored
            (0, NO_OP, "partition.repart.snapshot", 0, 7), // microbenchmarks: ignored
            (0, NO_OP, "partition.repart.snapshot", 7, 14),
        ]);
        let by = self_time_by_layer(t.spans());
        assert_eq!(by.get("query"), Some(&10));
        assert_eq!(by.get("text"), Some(&90));
        assert_eq!(by.get("partition"), None);
    }

    #[test]
    fn json_lists_every_field() {
        let mut t = tracer_with(&[(0, "query.engine.query_full", 5, 9)]);
        t.push(1, NO_OP, "text.topk.push", 6, 7);
        let mut text = Vec::new();
        t.write_json(&mut text).unwrap();
        let parsed = crate::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let dwr_obs::Json::Arr(items) = parsed else { panic!("not an array") };
        assert_eq!(items.len(), 2);
        assert_eq!(crate::json::get_num(&items[0], "end_ns"), Some(9.0));
        assert_eq!(crate::json::get_num(&items[1], "op"), Some(-1.0));
        assert_eq!(crate::json::get_str(&items[1], "name"), Some("text.topk.push"));
    }
}
