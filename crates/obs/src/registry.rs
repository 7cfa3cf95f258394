//! A registry of named instruments and its exportable snapshot.
//!
//! Registration is get-or-create under a mutex; the returned `Arc`
//! handle is then lock-free to mutate, so hot-path code registers once
//! at construction time and never touches the registry lock while
//! serving. Names are dotted paths (`engine.latency_us`,
//! `shard.003.busy_us`); snapshots sort them so text and JSON exports
//! are deterministic.

use crate::instrument::{Counter, Gauge, Histogram};
use crate::json::Json;
use dwr_sim::stats::Percentiles;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named set of instruments.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<String, Instrument>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.instruments.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("instruments", &n).finish()
    }
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("instrument {name:?} is not a counter"),
        }
    }

    /// Get or register the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("instrument {name:?} is not a gauge"),
        }
    }

    /// Get or register the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("instrument {name:?} is not a histogram"),
        }
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let entries = map
            .iter()
            .map(|(name, inst)| {
                let snap = match inst {
                    Instrument::Counter(c) => InstrumentSnapshot::Counter(c.get()),
                    Instrument::Gauge(g) => InstrumentSnapshot::Gauge(g.get()),
                    Instrument::Histogram(h) => InstrumentSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect();
        Snapshot { entries }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Instrument>> {
        // Instruments are plain atomics, so a panicked holder left the map
        // itself intact; recover the guard like the query tier's locks do.
        self.instruments.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The exported value of one instrument.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentSnapshot {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram's mergeable summary.
    Histogram(Percentiles),
}

/// A point-in-time export of a whole registry, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, InstrumentSnapshot)>,
}

impl Snapshot {
    /// All `(name, value)` entries, sorted by name.
    pub fn entries(&self) -> &[(String, InstrumentSnapshot)] {
        &self.entries
    }

    /// The value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            InstrumentSnapshot::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            InstrumentSnapshot::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The summary of histogram `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Percentiles> {
        match self.get(name)? {
            InstrumentSnapshot::Histogram(p) => Some(p),
            _ => None,
        }
    }

    fn get(&self, name: &str) -> Option<&InstrumentSnapshot> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The change from `earlier` to `self`: the interval-report
    /// primitive, so a long-lived run can print per-window activity
    /// without ever resetting the live instruments.
    ///
    /// Per kind:
    /// * **counters** subtract (saturating, so a misordered pair yields
    ///   0 instead of wrapping);
    /// * **gauges** are levels, not flows — the delta carries the later
    ///   value unchanged;
    /// * **histograms** subtract bucket-wise (occupancy, count, and sum
    ///   are all monotone), while `min`/`max` carry the later summary's
    ///   cumulative extremes — merging consecutive window deltas
    ///   therefore reproduces the final cumulative summary exactly
    ///   (bucket occupancy and count bitwise; `sum` up to float
    ///   rounding).
    ///
    /// Instruments registered after `earlier` was taken appear with
    /// their full value; `earlier`-only instruments cannot occur (a
    /// registry never unregisters) and are ignored.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, later)| {
                let d = match (later, earlier.get(name)) {
                    (InstrumentSnapshot::Counter(v), Some(InstrumentSnapshot::Counter(e))) => {
                        InstrumentSnapshot::Counter(v.saturating_sub(*e))
                    }
                    (InstrumentSnapshot::Histogram(p), Some(InstrumentSnapshot::Histogram(q))) => {
                        let buckets: Vec<u64> = p
                            .buckets()
                            .iter()
                            .zip(q.buckets())
                            .map(|(a, b)| a.saturating_sub(*b))
                            .collect();
                        let count = buckets.iter().sum();
                        InstrumentSnapshot::Histogram(Percentiles::from_parts(
                            buckets,
                            count,
                            p.sum() - q.sum(),
                            p.min(),
                            p.max(),
                        ))
                    }
                    // Gauges, newly registered instruments, and
                    // kind-mismatched pairs (impossible in one registry)
                    // pass through.
                    (other, _) => other.clone(),
                };
                (name.clone(), d)
            })
            .collect();
        Snapshot { entries }
    }

    /// Render as a JSON object keyed by instrument name.
    pub fn to_json(&self) -> Json {
        let pairs = self
            .entries
            .iter()
            .map(|(name, snap)| {
                let val = match snap {
                    InstrumentSnapshot::Counter(v) => {
                        Json::obj([("kind", Json::from("counter")), ("value", Json::from(*v))])
                    }
                    InstrumentSnapshot::Gauge(v) => {
                        Json::obj([("kind", Json::from("gauge")), ("value", Json::from(*v))])
                    }
                    InstrumentSnapshot::Histogram(p) => Json::obj([
                        ("kind", Json::from("histogram")),
                        ("count", Json::from(p.count())),
                        ("sum", Json::from(p.sum())),
                        ("min", Json::from(p.min())),
                        ("max", Json::from(p.max())),
                        ("mean", Json::from(p.mean())),
                        ("p50", Json::from(p.p50())),
                        ("p90", Json::from(p.p90())),
                        ("p99", Json::from(p.p99())),
                        ("p999", Json::from(p.p999())),
                    ]),
                };
                (name.clone(), val)
            })
            .collect();
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        r.gauge("g").set(1.5);
        r.histogram("h").record(10.0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histogram("h").map(|p| p.count()), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.counter("g"), None, "kind-mismatched lookup is None");
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_keeps_gauges() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(1.0);
        r.histogram("h").record(10.0);
        let s0 = r.snapshot();
        r.counter("c").add(4);
        r.gauge("g").set(7.5);
        r.histogram("h").record(20.0);
        r.histogram("h").record(30.0);
        let s1 = r.snapshot();
        let d = s1.delta(&s0);
        assert_eq!(d.counter("c"), Some(4));
        assert_eq!(d.gauge("g"), Some(7.5), "gauges are levels: delta carries the later value");
        let h = d.histogram("h").expect("histogram present");
        assert_eq!(h.count(), 2, "only the window's observations");
        assert!((h.sum() - 50.0).abs() < 1e-9);
        // Instruments born inside the window report their full value.
        r.counter("new").add(9);
        let s2 = r.snapshot();
        assert_eq!(s2.delta(&s1).counter("new"), Some(9));
        // A self-delta is all-zero (and gauges keep their level).
        let z = s2.delta(&s2);
        assert_eq!(z.counter("c"), Some(0));
        assert_eq!(z.histogram("h").map(|p| p.count()), Some(0));
        assert_eq!(z.gauge("g"), Some(7.5));
    }

    #[test]
    fn window_deltas_sum_back_to_the_final_snapshot() {
        let r = Registry::new();
        let snaps_and_deltas = {
            let mut snaps = vec![r.snapshot()];
            for w in 0..4u64 {
                r.counter("c").add(w + 1);
                r.gauge("g").set(w as f64);
                for i in 0..=w {
                    r.histogram("h").record((1 + i + 10 * w) as f64);
                }
                snaps.push(r.snapshot());
            }
            let deltas: Vec<Snapshot> =
                snaps.windows(2).map(|pair| pair[1].delta(&pair[0])).collect();
            (snaps, deltas)
        };
        let (snaps, deltas) = snaps_and_deltas;
        let fin = snaps.last().unwrap();
        // Counters: the window deltas sum back to the final value.
        let c_sum: u64 = deltas.iter().map(|d| d.counter("c").unwrap()).sum();
        assert_eq!(Some(c_sum), fin.counter("c"));
        // Histograms: counts and bucket occupancy sum back bitwise;
        // sums up to float rounding; merging the deltas reproduces the
        // final cumulative summary including min/max.
        let mut merged = Percentiles::new();
        for d in &deltas {
            merged.merge(d.histogram("h").unwrap());
        }
        let final_h = fin.histogram("h").unwrap();
        assert_eq!(merged.count(), final_h.count());
        assert_eq!(merged.buckets(), final_h.buckets());
        assert_eq!(merged.min(), final_h.min());
        assert_eq!(merged.max(), final_h.max());
        assert!((merged.sum() - final_h.sum()).abs() < 1e-9);
        // Gauges: the last window's delta is the final level.
        assert_eq!(deltas.last().unwrap().gauge("g"), fin.gauge("g"));
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let r = Registry::new();
        r.counter("b.count").inc();
        r.gauge("a.load").set(0.25);
        r.histogram("c.lat");
        let snap = r.snapshot();
        let names: Vec<_> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.load", "b.count", "c.lat"]);
        let json = snap.to_json().render();
        assert!(json.starts_with('{') && json.contains("\"b.count\""), "{json}");
    }
}
