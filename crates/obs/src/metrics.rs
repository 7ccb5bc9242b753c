//! Named counters, gauges and histograms behind one registry.
//!
//! The registry unifies the relay's scattered stat bags (`RelayStats`,
//! `PoolStats`, breaker and group counters) behind a single model that the
//! exporters in [`crate::export`] understand. Handles are cheap `Arc`
//! clones over atomics; observation never takes the registry lock.
//!
//! Histograms use **exponential** bucket bounds (each bound a constant
//! factor above the last) instead of a small fixed array, so tail latency
//! keeps resolution across orders of magnitude, and they track `sum`,
//! `count` and `max` so mean and worst-case are recoverable from exports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing (or scrape-time absolute) counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value. Meant for scrape-time bridging of existing
    /// counter bags (a [`crate::handle::MetricSource`] copies its absolute
    /// totals in), not for hot-path use.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive) of each finite bucket, strictly increasing.
    bounds: Vec<u64>,
    /// One cumulative-free count per finite bucket plus one overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// An exponential-bound histogram of `u64` observations (typically
/// nanoseconds).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram over explicit strictly-increasing inclusive bounds.
    /// Values above the last bound land in an implicit overflow bucket.
    pub fn with_bounds(bounds: Vec<u64>) -> Histogram {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Exponential bounds: `start, start*factor, start*factor^2, ...`
    /// (`count` bounds total, saturating instead of overflowing).
    pub fn exponential(start: u64, factor: u64, count: usize) -> Histogram {
        let mut bounds = Vec::with_capacity(count);
        let mut bound = start.max(1);
        for _ in 0..count {
            bounds.push(bound);
            bound = bound.saturating_mul(factor.max(2));
        }
        bounds.dedup();
        Histogram::with_bounds(bounds)
    }

    /// Default latency histogram: 1µs to ~17s in ×4 steps (13 buckets).
    pub fn latency_nanos() -> Histogram {
        Histogram::exponential(1_000, 4, 13)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        if let Some(bucket) = inner.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; last entry is the overflow
    /// bucket above the final bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or zero with no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`q` in `0.0..=1.0`) from the bucket bounds:
    /// returns the smallest bound whose cumulative count covers `q`, the
    /// tracked `max` for the overflow bucket, and zero with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank.max(1) {
                return self.bounds.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter { help: String, value: Counter },
    Gauge { help: String, value: Gauge },
    Histogram { help: String, value: Histogram },
}

/// The kind of a metric in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Bucketed histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus exposition name for this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A snapshot value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One metric in a registry snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric name (already a valid Prometheus identifier).
    pub name: String,
    /// Help text for the exposition.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Point-in-time value.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry, name-sorted.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// The snapshotted metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The snapshot of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The counter value of `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value of `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram state of `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name).map(|m| &m.value) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// Name of the self-registered counter that counts kind clashes (see
/// [`Registry::counter`]): its presence in an export means some call site
/// re-registered an existing name under a different kind and is recording
/// into a detached handle.
pub const KIND_CLASH_COUNTER: &str = "tdt_obs_metric_kind_clashes_total";

/// Formats a labeled series name, `family{k="v",...}`; with no labels the
/// plain family name is returned. Label values are escaped for the
/// Prometheus exposition (backslash, double quote, newline).
pub fn labeled_name(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a series name into `(family, label block)` where the label
/// block excludes the braces: `a_total{relay="x"}` → `("a_total",
/// Some("relay=\"x\""))`, `a_total` → `("a_total", None)`.
pub fn split_series_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// A registry of named metrics. Cloning shares the underlying map.
///
/// The lock guards only registration and snapshotting; handles returned
/// from the accessors touch atomics directly.
///
/// Names may carry a Prometheus label block (built with [`labeled_name`])
/// to keep per-instance series distinct — e.g. two relays bridged into
/// one registry export `tdt_relay_served_total{relay="stl-relay"}` and
/// `{relay="swt-relay"}` instead of overwriting each other.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

/// Bumps the self-registered clash counter and warns (once per registry)
/// that `name` was re-registered under a different kind.
fn note_kind_clash(map: &mut BTreeMap<String, Metric>, name: &str, wanted: &str) {
    let metric = map
        .entry(KIND_CLASH_COUNTER.to_string())
        .or_insert_with(|| Metric::Counter {
            help: "Metric registrations that clashed with an existing name of a \
                   different kind and got a detached handle"
                .to_string(),
            value: Counter::new(),
        });
    if let Metric::Counter { value, .. } = metric {
        value.inc();
        if value.get() == 1 {
            eprintln!(
                "tdt-obs: metric {name:?} re-registered as a {wanted} under an \
                 existing name of a different kind; values recorded on the \
                 returned handle will not be exported"
            );
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn with_map<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut map)
    }

    /// Gets or creates the counter `name`. On a kind clash with an
    /// existing metric, returns a fresh **detached** handle (recorded
    /// values are then invisible to exports) rather than panicking; the
    /// clash increments the self-registered [`KIND_CLASH_COUNTER`] and
    /// warns on stderr once, so typo'd re-registrations are discoverable
    /// at runtime, not only by the golden exposition test.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.with_map(|map| {
            if let Metric::Counter { value, .. } =
                map.entry(name.to_string())
                    .or_insert_with(|| Metric::Counter {
                        help: help.to_string(),
                        value: Counter::new(),
                    })
            {
                return value.clone();
            }
            note_kind_clash(map, name, "counter");
            Counter::new()
        })
    }

    /// Gets or creates the gauge `name` (see [`Registry::counter`] for the
    /// kind-clash contract).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.with_map(|map| {
            if let Metric::Gauge { value, .. } =
                map.entry(name.to_string())
                    .or_insert_with(|| Metric::Gauge {
                        help: help.to_string(),
                        value: Gauge::new(),
                    })
            {
                return value.clone();
            }
            note_kind_clash(map, name, "gauge");
            Gauge::new()
        })
    }

    /// Gets or creates the histogram `name`, using `make` to build it on
    /// first registration (see [`Registry::counter`] for the kind-clash
    /// contract).
    pub fn histogram(&self, name: &str, help: &str, make: impl FnOnce() -> Histogram) -> Histogram {
        self.with_map(|map| {
            if let Metric::Histogram { value, .. } =
                map.entry(name.to_string())
                    .or_insert_with(|| Metric::Histogram {
                        help: help.to_string(),
                        value: make(),
                    })
            {
                return value.clone();
            }
            note_kind_clash(map, name, "histogram");
            Histogram::with_bounds(Vec::new())
        })
    }

    /// Adopts an externally created histogram handle under `name`, so hot
    /// paths can observe into a histogram they own while exports still see
    /// it. First registration wins; later calls with the same name are
    /// no-ops.
    pub fn register_histogram(&self, name: &str, help: &str, value: &Histogram) {
        self.with_map(|map| {
            map.entry(name.to_string())
                .or_insert_with(|| Metric::Histogram {
                    help: help.to_string(),
                    value: value.clone(),
                });
        });
    }

    /// Snapshots every registered metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.with_map(|map| RegistrySnapshot {
            metrics: map
                .iter()
                .map(|(name, metric)| match metric {
                    Metric::Counter { help, value } => MetricSnapshot {
                        name: name.clone(),
                        help: help.clone(),
                        kind: MetricKind::Counter,
                        value: MetricValue::Counter(value.get()),
                    },
                    Metric::Gauge { help, value } => MetricSnapshot {
                        name: name.clone(),
                        help: help.clone(),
                        kind: MetricKind::Gauge,
                        value: MetricValue::Gauge(value.get()),
                    },
                    Metric::Histogram { help, value } => MetricSnapshot {
                        name: name.clone(),
                        help: help.clone(),
                        kind: MetricKind::Histogram,
                        value: MetricValue::Histogram(value.snapshot()),
                    },
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c_total", "a counter");
        c.inc();
        c.add(4);
        let g = reg.gauge("g", "a gauge");
        g.set(7);
        g.add(-2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(5));
        assert_eq!(snap.gauge("g"), Some(5));
    }

    #[test]
    fn same_name_shares_storage() {
        let reg = Registry::new();
        reg.counter("shared_total", "h").inc();
        reg.counter("shared_total", "h").inc();
        assert_eq!(reg.snapshot().counter("shared_total"), Some(2));
    }

    #[test]
    fn kind_clash_returns_detached_handle_and_is_counted() {
        let reg = Registry::new();
        reg.counter("mixed", "h").inc();
        let g = reg.gauge("mixed", "h");
        g.set(99);
        // The registered metric is untouched; the gauge was detached and
        // the clash is visible in the export as a self-registered counter.
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mixed"), Some(1));
        assert_eq!(snap.counter(KIND_CLASH_COUNTER), Some(1));
        // A clean registry never exports the clash counter.
        assert!(Registry::new().snapshot().get(KIND_CLASH_COUNTER).is_none());
    }

    #[test]
    fn labeled_name_formats_and_splits() {
        assert_eq!(labeled_name("a_total", &[]), "a_total");
        let name = labeled_name("a_total", &[("relay", "stl"), ("role", "src")]);
        assert_eq!(name, "a_total{relay=\"stl\",role=\"src\"}");
        assert_eq!(
            split_series_name(&name),
            ("a_total", Some("relay=\"stl\",role=\"src\""))
        );
        assert_eq!(split_series_name("plain"), ("plain", None));
        assert_eq!(
            labeled_name("a", &[("k", "q\"\\\n")]),
            "a{k=\"q\\\"\\\\\\n\"}"
        );
    }

    #[test]
    fn labeled_series_stay_distinct() {
        let reg = Registry::new();
        reg.counter(&labeled_name("x_total", &[("relay", "a")]), "h")
            .set(3);
        reg.counter(&labeled_name("x_total", &[("relay", "b")]), "h")
            .set(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x_total{relay=\"a\"}"), Some(3));
        assert_eq!(snap.counter("x_total{relay=\"b\"}"), Some(5));
    }

    #[test]
    fn histogram_buckets_sum_count_max() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [5, 50, 500, 5000, 7] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5562);
        assert_eq!(s.max, 5000);
        assert_eq!(s.mean(), 1112);
    }

    #[test]
    fn exponential_bounds_grow_by_factor() {
        let h = Histogram::exponential(1000, 4, 5);
        assert_eq!(h.snapshot().bounds, vec![1000, 4000, 16000, 64000, 256000]);
    }

    #[test]
    fn quantile_reads_bucket_bounds() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..10 {
            h.observe(700);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 10);
        assert_eq!(s.quantile(0.99), 1000);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn overflow_quantile_reports_max() {
        let h = Histogram::with_bounds(vec![10]);
        h.observe(12345);
        assert_eq!(h.snapshot().quantile(0.99), 12345);
    }

    #[test]
    fn registered_histogram_visible_in_snapshot() {
        let reg = Registry::new();
        let h = Histogram::latency_nanos();
        reg.register_histogram("lat_ns", "latency", &h);
        h.observe(2_000);
        let snap = reg.snapshot();
        let hs = snap.histogram("lat_ns").expect("histogram");
        assert_eq!(hs.count, 1);
        assert_eq!(hs.max, 2_000);
    }
}
