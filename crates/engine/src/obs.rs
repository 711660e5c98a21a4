//! Engine-side observability: the pre-registered metric handles and the
//! control-plane trace the engine records into.
//!
//! One [`EngineObs`] lives in the [`Engine`](crate::Engine) handle and is
//! shared via `Arc` with every shard, which records its batches and WAL
//! appends into it. Everything here is observation-only state
//! **outside** journaled engine state: enabling or disabling metrics
//! changes no journaled byte, so recovery remains byte-identical with
//! observability on or off — the regression tests hold the engine to
//! that.
//!
//! Metric handles are registered once at engine spawn (registry lookups
//! take a lock; the handles themselves are lock-free), except the
//! per-shard batch-latency histograms, which each shard registers for its
//! own index when it is built.

use rsdc_obs::{Counter, FieldValue, Gauge, Histogram, MetricId, Registry, TraceBuffer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The engine's metric handles + control-plane trace ring.
pub struct EngineObs {
    registry: Registry,
    trace: TraceBuffer,

    /// Events applied by shards.
    pub(crate) events_ingested: Counter,
    /// Events that did not apply: throttled at the gate, unknown tenant,
    /// or a deterministic per-event policy failure.
    pub(crate) events_dropped: Counter,
    /// Admits refused at the tenant cap (`reason="rejected"`).
    pub(crate) admission_rejected: Counter,
    /// Step events refused by a token bucket (`reason="throttled"`).
    pub(crate) admission_throttled: Counter,
    /// Admits deferred by an open migration window (`reason="deferred"`).
    pub(crate) admission_deferred: Counter,
    /// Wall time of [`Engine::checkpoint`](crate::Engine::checkpoint).
    pub(crate) checkpoint_ns: Histogram,
    /// Wall time of a rebalance/migration (either path), successful only.
    pub(crate) migration_ns: Histogram,
    /// Tenants moved by completed rebalances/migrations.
    pub(crate) migration_tenants_moved: Counter,
    /// WAL records replayed by recovery.
    pub(crate) recovery_records_replayed: Counter,
    /// Stream events re-applied from replayed batch records.
    pub(crate) recovery_events_replayed: Counter,
    /// Replay failures (counted, not fatal — see recovery docs).
    pub(crate) recovery_replay_errors: Counter,
    /// Whole joules metered by the energy runtime (floor-diff emission:
    /// the meter keeps the authoritative `f64`, the counter trails it by
    /// less than one joule).
    pub(crate) energy_joules: Counter,
    /// Milli-units of priced energy cost (same floor-diff emission).
    pub(crate) energy_cost_milli: Counter,

    // Wire connection I/O, folded in after every feed by the framing
    // layers ([`crate::binwire::BinSession`] counts frames,
    // [`crate::wire::LineSession`] counts lines).
    /// Request frames/lines decoded (including corrupt ones that errored).
    pub(crate) wire_frames_in: Counter,
    /// Response frames/lines emitted.
    pub(crate) wire_frames_out: Counter,
    /// Raw connection bytes received (preamble included).
    pub(crate) wire_bytes_in: Counter,
    /// Raw connection bytes sent (preamble included).
    pub(crate) wire_bytes_out: Counter,

    // WAL metrics, recorded where the engine calls its store: the
    // shard's append, the handle's checkpoint commit and its final sync.
    wal_append_ns: Histogram,
    wal_fsync_ns: Histogram,
    wal_checkpoint_commit_ns: Histogram,
    wal_appended_records: Counter,
    wal_appended_bytes: Counter,
    wal_fsyncs: Counter,

    // Always-on WAL volume counters: the `wal_stats` wire op reports
    // these even when the registry is disabled, so write-volume
    // accounting survives `--no-metrics`.
    volume_records: AtomicU64,
    volume_bytes: AtomicU64,
    volume_syncs: AtomicU64,

    /// Last observed admission-window state, for open/close edge traces.
    window_open: AtomicBool,
}

impl EngineObs {
    /// Build the engine's observability state. `metrics = false` bakes a
    /// no-op flag into every handle; `trace_capacity` bounds the ring.
    pub fn new(metrics: bool, trace_capacity: usize) -> EngineObs {
        let registry = Registry::new(metrics);
        let c = |name: &str| registry.counter(MetricId::plain(name));
        let refused = |reason: &str| {
            registry.counter(MetricId::labelled(
                "engine_admission_refused",
                "reason",
                reason,
            ))
        };
        let h = |name: &str| registry.histogram(MetricId::plain(name));
        EngineObs {
            events_ingested: c("engine_events_ingested"),
            events_dropped: c("engine_events_dropped"),
            admission_rejected: refused("rejected"),
            admission_throttled: refused("throttled"),
            admission_deferred: refused("deferred"),
            checkpoint_ns: h("engine_checkpoint_ns"),
            migration_ns: h("engine_migration_ns"),
            migration_tenants_moved: c("engine_migration_tenants_moved"),
            recovery_records_replayed: c("engine_recovery_records_replayed"),
            recovery_events_replayed: c("engine_recovery_events_replayed"),
            recovery_replay_errors: c("engine_recovery_replay_errors"),
            energy_joules: c("engine_energy_joules"),
            energy_cost_milli: c("engine_energy_cost_milli"),
            wire_frames_in: registry.counter(MetricId::labelled("engine_wire_frames", "dir", "in")),
            wire_frames_out: registry.counter(MetricId::labelled(
                "engine_wire_frames",
                "dir",
                "out",
            )),
            wire_bytes_in: registry.counter(MetricId::labelled("engine_wire_bytes", "dir", "in")),
            wire_bytes_out: registry.counter(MetricId::labelled("engine_wire_bytes", "dir", "out")),
            wal_append_ns: h("wal_append_ns"),
            wal_fsync_ns: h("wal_fsync_ns"),
            wal_checkpoint_commit_ns: h("wal_checkpoint_commit_ns"),
            wal_appended_records: c("wal_appended_records"),
            wal_appended_bytes: c("wal_appended_bytes"),
            wal_fsyncs: c("wal_fsyncs"),
            volume_records: AtomicU64::new(0),
            volume_bytes: AtomicU64::new(0),
            volume_syncs: AtomicU64::new(0),
            window_open: AtomicBool::new(false),
            trace: TraceBuffer::new(metrics, trace_capacity),
            registry,
        }
    }

    /// Whether metric handles record anything.
    pub fn metrics_enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// The metrics registry (snapshot/exposition surface).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The control-plane trace ring.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Cumulative WAL write volume through this engine's store handle:
    /// `(records appended, payload bytes appended, explicit syncs)`.
    /// Always counted, independent of the metrics flag.
    pub fn wal_volume(&self) -> (u64, u64, u64) {
        (
            self.volume_records.load(Ordering::Relaxed),
            self.volume_bytes.load(Ordering::Relaxed),
            self.volume_syncs.load(Ordering::Relaxed),
        )
    }

    /// Record a control-plane trace event (no-op when disabled).
    pub(crate) fn event(
        &self,
        tick: u64,
        kind: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        self.trace.record(tick, kind, fields);
    }

    /// Start a wall-clock lap, only when the registry will record it.
    pub(crate) fn clock(&self) -> Option<Instant> {
        if self.registry.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record a lap started by [`clock`](EngineObs::clock) into `hist`.
    pub(crate) fn lap(&self, hist: &Histogram, start: Option<Instant>) {
        if let Some(start) = start {
            hist.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Count one WAL append of `bytes` payload bytes that succeeded,
    /// timed from a [`clock`](EngineObs::clock) lap.
    pub(crate) fn wal_appended(&self, start: Option<Instant>, bytes: usize) {
        self.lap(&self.wal_append_ns, start);
        self.volume_records.fetch_add(1, Ordering::Relaxed);
        self.volume_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.wal_appended_records.inc();
        self.wal_appended_bytes.add(bytes as u64);
    }

    /// Count one explicit WAL sync that succeeded.
    pub(crate) fn wal_synced(&self, start: Option<Instant>) {
        self.lap(&self.wal_fsync_ns, start);
        self.volume_syncs.fetch_add(1, Ordering::Relaxed);
        self.wal_fsyncs.inc();
    }

    /// Time one checkpoint commit that succeeded.
    pub(crate) fn wal_committed(&self, start: Option<Instant>) {
        self.lap(&self.wal_checkpoint_commit_ns, start);
    }

    /// Count one admission refusal by reason.
    pub(crate) fn count_refusal(&self, e: &crate::AdmissionError) {
        match e {
            crate::AdmissionError::Rejected { .. } => self.admission_rejected.inc(),
            crate::AdmissionError::Throttled { .. } => self.admission_throttled.inc(),
            crate::AdmissionError::Migrating { .. } => self.admission_deferred.inc(),
        }
    }

    /// The watts gauge for one shard, registered on first use (the shard
    /// set changes under rebalancing, so the energy runtime grows its
    /// gauge vector lazily rather than pre-registering a fixed count).
    pub(crate) fn shard_watts_gauge(&self, shard: usize) -> Gauge {
        self.registry.gauge(MetricId::labelled(
            "engine_shard_watts",
            "shard",
            &shard.to_string(),
        ))
    }

    /// The batch-latency histogram of one shard, registered when the
    /// shard is built.
    pub(crate) fn shard_batch_ns(&self, shard: usize) -> Histogram {
        self.registry.histogram(MetricId::labelled(
            "engine_batch_ns",
            "shard",
            &shard.to_string(),
        ))
    }

    /// Trace admission-window open/close *edges*: called with the current
    /// window state, records an event only on a transition.
    pub(crate) fn note_window(&self, tick: u64, open: bool) {
        let was = self.window_open.swap(open, Ordering::Relaxed);
        if was != open {
            let kind = if open {
                "admission_window_open"
            } else {
                "admission_window_close"
            };
            self.event(tick, kind, Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_volume_counts_even_with_metrics_disabled() {
        let obs = EngineObs::new(false, 16);
        let start = obs.clock();
        assert!(start.is_none(), "no clock read with metrics off");
        obs.wal_appended(start, 100);
        obs.wal_appended(start, 50);
        obs.wal_synced(start);
        obs.wal_committed(start);
        assert_eq!(obs.wal_volume(), (2, 150, 1));
        // ...but the registry-backed counters stayed silent.
        let total: u64 = obs
            .registry()
            .snapshot()
            .iter()
            .filter_map(|m| match &m.value {
                rsdc_obs::MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn window_edges_trace_once() {
        let obs = EngineObs::new(true, 16);
        obs.note_window(1, false); // no edge: starts closed
        obs.note_window(2, true); // open edge
        obs.note_window(3, true); // no edge
        obs.note_window(4, false); // close edge
        let kinds: Vec<&str> = obs.trace().events(None).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["admission_window_open", "admission_window_close"]);
    }
}
