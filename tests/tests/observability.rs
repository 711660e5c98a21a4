//! Observability regression tests — the deterministic-safety bar for the
//! metrics registry and control-plane trace:
//!
//! * metrics and trace live **outside** journaled state: a durable run
//!   writes byte-identical store files with observability on or off, and
//!   crash-recovery with metrics enabled reproduces the exact reports of
//!   a metrics-free uninterrupted run;
//! * the trace ring is ordered (strictly increasing seq, ring-bounded) and
//!   autoscale decisions carry the live LCP bound values;
//! * counters reconcile with what the engine actually did (ingested
//!   events, typed admission refusals, WAL write volume).

use rsdc_core::Cost;
use rsdc_engine::{
    AdmissionConfig, Engine, EngineConfig, PolicySpec, TenantConfig, TopologyConfig,
};
use rsdc_obs::{FieldValue, MetricValue};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-observability")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &std::path::Path) -> Arc<dyn Durability> {
    Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 16 }).expect("open store"))
}

fn cfg(shards: usize, metrics: bool) -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(shards);
    cfg.metrics = metrics;
    cfg
}

const TENANTS: usize = 6;
const SLOTS: usize = 24;

fn fleet() -> Vec<TenantConfig> {
    (0..TENANTS)
        .map(|i| {
            let policy = if i % 2 == 0 {
                PolicySpec::Lcp
            } else {
                PolicySpec::HalfStepRounded { seed: i as u64 }
            };
            TenantConfig::new(format!("t{i}"), 12, 4.0, policy)
        })
        .collect()
}

fn slot_batch(slot: usize) -> Vec<(String, Cost)> {
    (0..TENANTS)
        .map(|i| {
            let center = ((slot * 5 + i) % 13) as f64;
            (format!("t{i}"), Cost::abs(1.0, center))
        })
        .collect()
}

fn report_texts(engine: &Engine) -> Vec<String> {
    use serde::Serialize as _;
    engine
        .report_all()
        .expect("report")
        .iter()
        .map(|r| serde_json::to_string(&r.to_value()).expect("json"))
        .collect()
}

/// Every store file under `dir` as `(relative name, bytes)`, sorted.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("prefix")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("read")));
            }
        }
    }
    out.sort();
    out
}

/// One durable run: admit, stream `SLOTS` slots with a checkpoint every 7,
/// shut down cleanly (no final checkpoint — leave a WAL tail on disk).
fn durable_run(dir: &std::path::Path, metrics: bool) -> Vec<String> {
    let engine = Engine::with_store(cfg(2, metrics), open_store(dir)).expect("durable engine");
    for t in fleet() {
        engine.admit(t).expect("admit");
    }
    for t in 0..SLOTS {
        engine.step_batch(slot_batch(t)).expect("step");
        if (t + 1) % 7 == 0 {
            engine.checkpoint().expect("checkpoint");
        }
    }
    let reports = report_texts(&engine);
    engine.shutdown();
    reports
}

/// The tentpole invariant: observability state is not journaled state.
/// Two identical durable runs — one with the registry + trace enabled,
/// one with `--no-metrics` — leave **byte-identical** store directories.
#[test]
fn metrics_flag_never_touches_journaled_state() {
    let dir_on = case_dir("flag-on");
    let dir_off = case_dir("flag-off");
    let reports_on = durable_run(&dir_on, true);
    let reports_off = durable_run(&dir_off, false);
    assert_eq!(reports_on, reports_off, "reports agree");
    let (on, off) = (dir_bytes(&dir_on), dir_bytes(&dir_off));
    let on_names: Vec<&String> = on.iter().map(|(n, _)| n).collect();
    let off_names: Vec<&String> = off.iter().map(|(n, _)| n).collect();
    assert_eq!(on_names, off_names, "same store files");
    for ((name, a), (_, b)) in on.iter().zip(off.iter()) {
        assert_eq!(a, b, "store file {name} must be byte-identical");
    }
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
}

/// Crash-recovery with metrics enabled end to end reproduces the reports
/// of an uninterrupted metrics-**off** run: instrumentation (including the
/// WAL timing around every append recovery replays) never perturbs replay.
#[test]
fn recovery_with_metrics_enabled_is_byte_identical() {
    // Metrics-off uninterrupted reference.
    let want = {
        let engine = Engine::new(cfg(2, false));
        for t in fleet() {
            engine.admit(t).expect("admit");
        }
        for t in 0..SLOTS {
            engine.step_batch(slot_batch(t)).expect("step");
        }
        let reports = report_texts(&engine);
        engine.shutdown();
        reports
    };
    for kill_at in [3usize, 10, 20] {
        let dir = case_dir("kill");
        let durable = Engine::with_store(cfg(2, true), open_store(&dir)).expect("durable engine");
        for t in fleet() {
            durable.admit(t).expect("admit");
        }
        for t in 0..kill_at {
            durable.step_batch(slot_batch(t)).expect("step");
            if (t + 1) % 4 == 0 {
                durable.checkpoint().expect("checkpoint");
            }
        }
        drop(durable); // crash

        let (recovered, report) = Engine::recover(cfg(2, true), open_store(&dir)).expect("recover");
        assert_eq!(report.replay_errors, 0);
        for t in kill_at..SLOTS {
            recovered.step_batch(slot_batch(t)).expect("step");
        }
        assert_eq!(
            report_texts(&recovered),
            want,
            "kill at {kill_at}: metrics-on recovery must match the metrics-off reference"
        );
        // Replay work surfaced in the recovery counters.
        let replayed: u64 = recovered
            .obs()
            .registry()
            .snapshot()
            .iter()
            .filter(|m| m.id.name == "engine_recovery_records_replayed")
            .filter_map(|m| match &m.value {
                MetricValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum();
        assert_eq!(replayed, report.records_replayed as u64);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Trace ordering + content: seqs strictly increase, the ring stays
/// bounded, and autoscale decisions carry the live LCP bound values the
/// policy acted on.
#[test]
fn trace_orders_autoscale_decisions_with_lcp_bounds() {
    let mut cfg = cfg(1, true);
    cfg.trace_capacity = 64;
    let mut engine = Engine::new(cfg);
    for t in fleet() {
        engine.admit(t).expect("admit");
    }
    let mut topo = TopologyConfig::new(1, 4);
    topo.switch_cost = 0.5; // cheap switches: make the policy actually move
    engine.set_autoscale(Some(topo)).expect("autoscale");
    // Load swing big enough to push the LCP bounds around; applying the
    // pending decision after each batch is the wire session's loop.
    for t in 0..40usize {
        let load = if (t / 10) % 2 == 0 { 12.0 } else { 0.5 };
        let batch: Vec<(String, Cost, Option<f64>)> = (0..TENANTS)
            .map(|i| (format!("t{i}"), Cost::abs(1.0, 6.0), Some(load)))
            .collect();
        engine.step_batch_loads(batch).expect("step");
        engine.maybe_autoscale().expect("autoscale step");
    }
    let events = engine.obs().trace().events(None);
    assert!(
        !events.is_empty(),
        "control-plane activity must leave a trace"
    );
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seq strictly increases");
        assert!(pair[0].tick <= pair[1].tick, "ticks never run backwards");
    }
    let decisions: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "autoscale_decision")
        .collect();
    assert!(
        !decisions.is_empty(),
        "the swinging load must trigger decisions"
    );
    for d in &decisions {
        let field = |name: &str| {
            d.fields
                .iter()
                .find(|(k, _)| *k == name)
                .unwrap_or_else(|| panic!("autoscale_decision missing {name}"))
                .1
                .clone()
        };
        let as_u64 = |v: FieldValue| match v {
            FieldValue::U64(x) => x,
            other => panic!("expected U64, got {other:?}"),
        };
        let (lower, upper) = (as_u64(field("lower")), as_u64(field("upper")));
        assert!(lower <= upper, "LCP bounds ordered: {lower} <= {upper}");
        let target = as_u64(field("target"));
        assert!((1..=4).contains(&(target as usize)), "target within lo:hi");
        assert!(matches!(field("switch_cost_accrued"), FieldValue::F64(_)));
    }
    // Rebalances that the decisions induced are traced with begin/commit.
    let begins = events
        .iter()
        .filter(|e| e.kind == "rebalance_begin")
        .count();
    let commits = events
        .iter()
        .filter(|e| e.kind == "rebalance_commit")
        .count();
    assert!(
        begins > 0 && commits > 0,
        "decisions induce traced rebalances"
    );
    assert!(
        engine.obs().trace().recorded() >= events.len() as u64,
        "recorded() counts everything ever traced"
    );
    assert!(events.len() <= 64, "ring stays within capacity");
    engine.shutdown();
}

/// Counters reconcile with engine behaviour: ingested events, typed
/// admission refusals, and WAL volume all reflect what actually happened.
#[test]
fn counters_reconcile_with_engine_activity() {
    let dir = case_dir("counters");
    let engine = Engine::with_store(cfg(1, true), open_store(&dir)).expect("durable engine");
    engine
        .set_limits(AdmissionConfig {
            max_tenants: 2,
            rate: 1.0,
            burst: 2.0,
        })
        .expect("limits");
    engine
        .admit(TenantConfig::new("a", 12, 4.0, PolicySpec::Lcp))
        .expect("admit a");
    engine
        .admit(TenantConfig::new("b", 12, 4.0, PolicySpec::Lcp))
        .expect("admit b");
    let rejected = engine.admit(TenantConfig::new("c", 12, 4.0, PolicySpec::Lcp));
    assert!(rejected.is_err(), "cap refuses the third admit");
    // Two slots: within burst, then over it (throttled drops).
    let mut ingested_want = 0u64;
    for _ in 0..2 {
        let outcomes = engine
            .step_batch(vec![
                ("a".into(), Cost::abs(1.0, 3.0)),
                ("a".into(), Cost::abs(1.0, 4.0)),
                ("b".into(), Cost::abs(1.0, 5.0)),
            ])
            .expect("step");
        ingested_want += outcomes.iter().filter(|o| o.error.is_none()).count() as u64;
    }
    let get = |name: &str| -> u64 {
        engine
            .obs()
            .registry()
            .snapshot()
            .iter()
            .filter(|m| m.id.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    };
    assert_eq!(get("engine_events_ingested"), ingested_want);
    assert!(
        get("engine_admission_refused") >= 1,
        "the cap refusal counted"
    );
    let (records, bytes, _) = engine.obs().wal_volume();
    assert!(records > 0 && bytes > 0, "journaled writes counted");
    assert_eq!(get("wal_appended_records"), records);
    assert_eq!(get("wal_appended_bytes"), bytes);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--no-metrics`: the registry snapshot is empty and the trace ring
/// records nothing, but always-on WAL volume accounting still works.
#[test]
fn disabled_observability_is_empty_but_wal_volume_counts() {
    let dir = case_dir("disabled");
    let mut engine = Engine::with_store(cfg(1, false), open_store(&dir)).expect("durable engine");
    for t in fleet() {
        engine.admit(t).expect("admit");
    }
    for t in 0..4 {
        engine.step_batch(slot_batch(t)).expect("step");
    }
    engine.rebalance(2, None).expect("rebalance");
    assert!(engine.obs().registry().snapshot().is_empty(), "no metrics");
    assert_eq!(engine.obs().trace().recorded(), 0, "no trace events");
    let (records, bytes, _) = engine.obs().wal_volume();
    assert!(records > 0 && bytes > 0, "volume survives --no-metrics");
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
