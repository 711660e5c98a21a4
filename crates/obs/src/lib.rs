//! # rsdc-obs — std-only observability primitives
//!
//! Metrics and control-plane tracing for the [`rsdc-engine`] streaming
//! autoscaler. The engine's whole point is running the Albers–Quedenfeld
//! online policies *continuously*, which makes its control plane — LCP
//! bound crossings, autoscale decisions, migrations, WAL
//! recovery — the interesting surface to observe. This crate provides the
//! two primitives that surface wires through:
//!
//! * a [`Registry`] of named metrics — striped monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-linear [`Histogram`]s with cheap p50/p90/p99
//!   estimates — safe to hammer from the engine's shard threads;
//! * a bounded [`TraceBuffer`] ring of structured control-plane
//!   [`TraceEvent`]s with monotonic sequence numbers, so decision ordering
//!   (fence before commit, window open before deferred admit) can be
//!   reconstructed post-hoc.
//!
//! Everything is `std`-only (no serde): the engine's wire layer converts
//! snapshots to JSON itself, and [`Registry::render_prometheus`] emits the
//! text exposition format directly.
//!
//! ## Determinism contract
//!
//! Nothing in this crate feeds back into engine state: metrics and traces
//! are observation-only, live outside journaled state, and may be enabled
//! or disabled without changing a single journaled byte. A disabled
//! registry turns every record call into a branch on a baked-in flag, so
//! the instrumented hot path costs near-zero when observability is off.
//!
//! [`rsdc-engine`]: ../rsdc_engine/index.html

#![warn(missing_docs)]

pub mod hist;
pub mod trace;

pub use hist::{bucket_of, Histogram, HistogramSnapshot};
pub use trace::{FieldValue, TraceBuffer, TraceEvent};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of counter stripes; enough to keep the default shard counts
/// (1–16 worker threads) from contending on one cache line.
const STRIPES: usize = 8;

/// Round-robin source of thread stripe assignments.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread's stripe, assigned round-robin on first touch.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// One `AtomicU64` alone on its cache line, so stripes don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A metric's identity: a name plus at most one `key="value"` label pair
/// (enough for the engine's per-shard breakdowns without a label DSL).
/// Ordering is lexicographic, so registry snapshots come out sorted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `engine_events_ingested`.
    pub name: String,
    /// Optional `(key, value)` label, e.g. `("shard", "3")`.
    pub label: Option<(String, String)>,
}

impl MetricId {
    /// Unlabelled id.
    pub fn plain(name: &str) -> MetricId {
        MetricId {
            name: name.to_string(),
            label: None,
        }
    }

    /// Id carrying one label pair.
    pub fn labelled(name: &str, key: &str, value: &str) -> MetricId {
        MetricId {
            name: name.to_string(),
            label: Some((key.to_string(), value.to_string())),
        }
    }
}

struct CounterInner {
    enabled: bool,
    stripes: [PaddedU64; STRIPES],
}

/// A monotonic counter, striped across cache lines so concurrent shard
/// threads increment without bouncing one line. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    fn new(enabled: bool) -> Counter {
        Counter {
            inner: Arc::new(CounterInner {
                enabled,
                stripes: Default::default(),
            }),
        }
    }

    /// Add `n` to the counter (no-op when the registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.inner.enabled {
            return;
        }
        STRIPE.with(|&s| self.inner.stripes[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (sum over stripes).
    pub fn value(&self) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeInner {
    enabled: bool,
    value: AtomicI64,
}

/// A settable signed gauge. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

impl Gauge {
    fn new(enabled: bool) -> Gauge {
        Gauge {
            inner: Arc::new(GaugeInner {
                enabled,
                value: AtomicI64::new(0),
            }),
        }
    }

    /// Set the gauge (no-op when the registry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if self.inner.enabled {
            self.inner.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.inner.enabled {
            self.inner.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment by one (for gauges tracking a live population, e.g.
    /// open connections).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// One metric in a [`Registry::snapshot`]: identity plus current value.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// The metric's identity.
    pub id: MetricId,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct RegistryInner {
    enabled: bool,
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
}

/// A registry of named metrics. Handle lookup takes a lock (call it at
/// setup, not per event); the returned handles are lock-free. Cheap to
/// clone (an `Arc`).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A registry; `enabled = false` bakes a no-op flag into every handle
    /// it hands out, making instrumentation near-free.
    pub fn new(enabled: bool) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled,
                metrics: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The counter with this id, registering it on first use. Panics if
    /// the id is already registered as a different metric kind. A disabled
    /// registry hands out detached no-op handles and registers nothing, so
    /// its snapshot stays empty.
    pub fn counter(&self, id: MetricId) -> Counter {
        if !self.inner.enabled {
            return Counter::new(false);
        }
        let mut metrics = self.inner.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(id.clone())
            .or_insert_with(|| Metric::Counter(Counter::new(self.inner.enabled)))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {id:?} already registered with another kind"),
        }
    }

    /// The gauge with this id, registering it on first use.
    pub fn gauge(&self, id: MetricId) -> Gauge {
        if !self.inner.enabled {
            return Gauge::new(false);
        }
        let mut metrics = self.inner.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(id.clone())
            .or_insert_with(|| Metric::Gauge(Gauge::new(self.inner.enabled)))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {id:?} already registered with another kind"),
        }
    }

    /// The histogram with this id, registering it on first use.
    pub fn histogram(&self, id: MetricId) -> Histogram {
        if !self.inner.enabled {
            return Histogram::new(false);
        }
        let mut metrics = self.inner.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(id.clone())
            .or_insert_with(|| Metric::Histogram(Histogram::new(self.inner.enabled)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {id:?} already registered with another kind"),
        }
    }

    /// Point-in-time values of every registered metric, sorted by id.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .map(|(id, metric)| MetricSnapshot {
                id: id.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Render every metric in the Prometheus text exposition format.
    /// Histograms come out as summaries (`{quantile="..."}` series plus
    /// `_count`/`_sum`/`_max`).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for m in self.snapshot() {
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            if m.id.name != last_name {
                out.push_str(&format!("# TYPE {} {kind}\n", m.id.name));
                last_name = m.id.name.clone();
            }
            let label = |extra: Option<(&str, String)>| -> String {
                let mut pairs = Vec::new();
                if let Some((k, v)) = &m.id.label {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if let Some((k, v)) = extra {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            match m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.id.name, label(None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", m.id.name, label(None)));
                }
                MetricValue::Histogram(h) => {
                    for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        out.push_str(&format!(
                            "{}{} {v}\n",
                            m.id.name,
                            label(Some(("quantile", q.to_string())))
                        ));
                    }
                    out.push_str(&format!("{}_count{} {}\n", m.id.name, label(None), h.count));
                    out.push_str(&format!("{}_sum{} {}\n", m.id.name, label(None), h.sum));
                    out.push_str(&format!("{}_max{} {}\n", m.id.name, label(None), h.max));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Registry::new(true);
        let c = reg.counter(MetricId::plain("hits"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new(false);
        let c = reg.counter(MetricId::plain("hits"));
        let g = reg.gauge(MetricId::plain("level"));
        let h = reg.histogram(MetricId::plain("lat"));
        c.add(10);
        g.set(5);
        h.record(123);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(!reg.enabled());
    }

    #[test]
    fn same_id_returns_same_handle() {
        let reg = Registry::new(true);
        let a = reg.counter(MetricId::labelled("x", "shard", "0"));
        let b = reg.counter(MetricId::labelled("x", "shard", "0"));
        a.inc();
        assert_eq!(b.value(), 1);
        // A different label is a different metric.
        let c = reg.counter(MetricId::labelled("x", "shard", "1"));
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new(true);
        reg.counter(MetricId::plain("x"));
        reg.gauge(MetricId::plain("x"));
    }

    #[test]
    fn snapshot_is_sorted_and_prometheus_renders() {
        let reg = Registry::new(true);
        reg.counter(MetricId::plain("zeta")).add(1);
        reg.counter(MetricId::plain("alpha")).add(2);
        reg.histogram(MetricId::labelled("lat", "shard", "0"))
            .record(100);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.iter().map(|m| m.id.name.as_str()).collect();
        assert_eq!(names, ["alpha", "lat", "zeta"]);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE alpha counter"));
        assert!(text.contains("alpha 2\n"));
        assert!(text.contains("# TYPE lat summary"));
        assert!(text.contains("lat{shard=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_count{shard=\"0\"} 1"));
    }
}
