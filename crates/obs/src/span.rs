//! Sampled per-query span tracing.
//!
//! A [`Span`] is the stage-by-stage story of one query — broker admit,
//! cache lookup, scatter dispatch, per-shard service, gather,
//! hedge/failover attempts, WAN hops — each stamped with the
//! deterministic sim clock. The [`SpanRecorder`] samples 1 query in `N`
//! (deterministically, by admission ordinal, so reruns trace the same
//! queries) and keeps the last `capacity` finished spans in a ring.
//!
//! Unlike the metric instruments, spans go through a mutex: they are
//! sampled (most queries never touch the lock beyond one counter
//! increment) and variable-length, so a lock-free design buys nothing.

use dwr_sim::SimTime;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A stage marker inside one query's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query admitted by the serving tier.
    Admit,
    /// Result-cache lookup; `value_us` is 1.0 on a hit, 0.0 on a miss.
    CacheLookup,
    /// Scatter across partitions; `value_us` is the partition count.
    ScatterDispatch,
    /// One partition serviced; `value_us` is its service time in µs.
    ShardService,
    /// All partitions gathered; `value_us` is the query latency in µs.
    Gather,
    /// A hedged retry fired; `value_us` is the extra service µs charged.
    Hedge,
    /// A site attempt began; `value_us` is the site id.
    SiteAttempt,
    /// A site failed over; `value_us` is the backoff charged in µs.
    SiteFailover,
    /// A WAN hop; `value_us` is the round-trip charged in µs.
    WanHop,
    /// Terminal outcome; `value_us` is the total latency in µs (0 if the
    /// query never completed).
    Outcome,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::CacheLookup => "cache_lookup",
            Stage::ScatterDispatch => "scatter",
            Stage::ShardService => "shard_service",
            Stage::Gather => "gather",
            Stage::Hedge => "hedge",
            Stage::SiteAttempt => "site_attempt",
            Stage::SiteFailover => "site_failover",
            Stage::WanHop => "wan_hop",
            Stage::Outcome => "outcome",
        }
    }
}

/// One timestamped stage inside a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Sim-clock timestamp the stage was recorded at.
    pub at: SimTime,
    /// Stage kind.
    pub stage: Stage,
    /// Stage payload (see [`Stage`] per-variant docs).
    pub value_us: f64,
}

/// The recorded trace of one sampled query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Query key (`dwr_query` term-set hash).
    pub qid: u64,
    /// Admission ordinal (1-based) across all queries, sampled or not.
    pub ordinal: u64,
    /// Stages in emission order.
    pub events: Vec<SpanEvent>,
}

impl Span {
    /// Render as an indented multi-line trace for experiment output.
    pub fn render(&self) -> String {
        let mut out = format!("span qid={:016x} (query #{})\n", self.qid, self.ordinal);
        let t0 = self.events.first().map_or(0, |e| e.at);
        for e in &self.events {
            out.push_str(&format!(
                "  +{:>8}us  {:<13} {:.1}\n",
                e.at.saturating_sub(t0),
                e.stage.label(),
                e.value_us
            ));
        }
        out
    }
}

#[derive(Debug, Default)]
struct SpanState {
    /// Spans still accumulating events, keyed by qid (small: one per
    /// in-flight sampled query).
    open: Vec<Span>,
    /// Finished spans, oldest first, bounded by `capacity`.
    ring: VecDeque<Span>,
    /// Total queries entered (sampled or not); drives deterministic
    /// 1-in-N selection.
    started: u64,
}

/// A fixed-capacity recorder of sampled query spans.
#[derive(Debug)]
pub struct SpanRecorder {
    /// Sample 1 query in this many; 0 disables tracing entirely.
    sample_every: u64,
    /// Finished spans retained.
    capacity: usize,
    state: Mutex<SpanState>,
}

/// Open spans tolerated before the oldest is force-closed — a leak guard
/// for queries that never reach a terminal event.
const MAX_OPEN: usize = 32;

impl SpanRecorder {
    /// Trace 1 query in `sample_every` (0 = never), keeping the last
    /// `capacity` finished spans.
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        SpanRecorder { sample_every, capacity, state: Mutex::new(SpanState::default()) }
    }

    /// A query was admitted: count it, and open a span if it is sampled.
    /// If `qid` already has an open span (a multi-site retry re-entering
    /// a site engine), append to it instead of double-counting.
    pub fn enter(&self, qid: u64, at: SimTime, stage: Stage, value_us: f64) {
        if self.sample_every == 0 {
            return;
        }
        let mut st = self.lock();
        if let Some(span) = st.open.iter_mut().find(|s| s.qid == qid) {
            span.events.push(SpanEvent { at, stage, value_us });
            return;
        }
        st.started += 1;
        if !(st.started - 1).is_multiple_of(self.sample_every) {
            return;
        }
        let ordinal = st.started;
        if st.open.len() >= MAX_OPEN {
            let orphan = st.open.remove(0);
            self.finish(&mut st, orphan);
        }
        st.open.push(Span { qid, ordinal, events: vec![SpanEvent { at, stage, value_us }] });
    }

    /// Append a stage to `qid`'s span, if one is open (non-sampled
    /// queries fall through for free).
    pub fn touch(&self, qid: u64, at: SimTime, stage: Stage, value_us: f64) {
        if self.sample_every == 0 {
            return;
        }
        let mut st = self.lock();
        if let Some(span) = st.open.iter_mut().find(|s| s.qid == qid) {
            span.events.push(SpanEvent { at, stage, value_us });
        }
    }

    /// Terminal stage: append it and move the span to the finished ring.
    pub fn close(&self, qid: u64, at: SimTime, stage: Stage, value_us: f64) {
        if self.sample_every == 0 {
            return;
        }
        let mut st = self.lock();
        if let Some(pos) = st.open.iter().position(|s| s.qid == qid) {
            let mut span = st.open.remove(pos);
            span.events.push(SpanEvent { at, stage, value_us });
            self.finish(&mut st, span);
        }
    }

    /// Finished spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().ring.iter().cloned().collect()
    }

    fn finish(&self, st: &mut SpanState, span: Span) {
        if self.capacity == 0 {
            return;
        }
        if st.ring.len() >= self.capacity {
            st.ring.pop_front();
        }
        st.ring.push_back(span);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_one_in_n_deterministically() {
        let rec = SpanRecorder::new(3, 16);
        for q in 0..9u64 {
            rec.enter(q, q * 10, Stage::Admit, 0.0);
            rec.close(q, q * 10 + 5, Stage::Outcome, 5.0);
        }
        let spans = rec.spans();
        let sampled: Vec<_> = spans.iter().map(|s| s.qid).collect();
        assert_eq!(sampled, [0, 3, 6], "queries 1,4,7... by ordinal");
        assert_eq!(rec.lock().started, 9);
    }

    #[test]
    fn touch_on_unsampled_query_is_a_noop() {
        let rec = SpanRecorder::new(2, 16);
        rec.enter(1, 0, Stage::Admit, 0.0); // sampled (ordinal 1)
        rec.enter(2, 1, Stage::Admit, 0.0); // not sampled
        rec.touch(2, 2, Stage::Gather, 9.0);
        rec.close(2, 3, Stage::Outcome, 9.0);
        rec.touch(1, 4, Stage::Gather, 7.0);
        rec.close(1, 5, Stage::Outcome, 7.0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].qid, 1);
        assert_eq!(spans[0].events.len(), 3);
    }

    #[test]
    fn ring_keeps_only_the_newest_spans() {
        let rec = SpanRecorder::new(1, 2);
        for q in 0..5u64 {
            rec.enter(q, q, Stage::Admit, 0.0);
            rec.close(q, q, Stage::Outcome, 0.0);
        }
        let qids: Vec<_> = rec.spans().iter().map(|s| s.qid).collect();
        assert_eq!(qids, [3, 4]);
    }

    #[test]
    fn reentry_appends_instead_of_recounting() {
        let rec = SpanRecorder::new(1, 4);
        rec.enter(7, 0, Stage::Admit, 0.0);
        rec.enter(7, 10, Stage::Admit, 0.0); // failover retry re-enters the same query
        rec.close(7, 20, Stage::Outcome, 20.0);
        assert_eq!(rec.lock().started, 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].events.len(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = SpanRecorder::new(0, 8);
        rec.enter(1, 0, Stage::Admit, 0.0);
        rec.close(1, 1, Stage::Outcome, 1.0);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.lock().started, 0);
    }

    #[test]
    fn render_is_relative_to_first_event() {
        let rec = SpanRecorder::new(1, 1);
        rec.enter(0xabc, 100, Stage::Admit, 0.0);
        rec.touch(0xabc, 150, Stage::ShardService, 42.5);
        rec.close(0xabc, 200, Stage::Outcome, 100.0);
        let text = rec.spans()[0].render();
        assert!(text.contains("+       0us  admit"), "{text}");
        assert!(text.contains("+      50us  shard_service 42.5"), "{text}");
        assert!(text.contains("+     100us  outcome"), "{text}");
    }
}
