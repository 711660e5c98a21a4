//! Crash-recovery differential tests (the rsdc-store acceptance bar):
//!
//! * killing a durable engine at a **randomized point** mid-trace, then
//!   recovering from disk (newest checkpoint + WAL-tail replay) and
//!   finishing the trace, produces per-tenant reports **byte-identical**
//!   to an uninterrupted run — across mixed policy fleets (including
//!   RNG-bearing rounders, lookahead lag, and heterogeneous tenants whose
//!   state is a lattice-DP frontier), randomized checkpoint cadences, and
//!   *different* shard counts before and after the crash;
//! * a torn or corrupted WAL tail degrades to "recover the valid prefix":
//!   recovery repairs the file, stays functional, and never propagates the
//!   corruption.

use proptest::prelude::*;
use rsdc_core::Cost;
use rsdc_engine::{
    Engine, EngineConfig, FleetSpec, HeteroAlgo, PolicySpec, TenantConfig, TenantReport,
};
use rsdc_hetero::ServerType;
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::traces::{Diurnal, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh, unique data directory per test case.
fn case_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-store-recovery")
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

/// A small two-class hetero fleet (12 lattice points) for the mixed fleet.
fn hetero_spec() -> FleetSpec {
    FleetSpec::new(vec![
        ServerType {
            count: 3,
            beta: 1.0,
            energy: 1.0,
            capacity: 1.0,
        },
        ServerType {
            count: 2,
            beta: 2.5,
            energy: 1.4,
            capacity: 2.0,
        },
    ])
}

/// The demo fleet: one tenant per policy family — including both hetero
/// policies, whose DP-frontier state must survive every kill point — with
/// seeds derived from `seed` so RNG state is exercised and differs between
/// cases.
fn fleet(seed: u64) -> Vec<TenantConfig> {
    let m = 12;
    let beta = CostModel::default().beta;
    vec![
        TenantConfig::new("lcp", m, beta, PolicySpec::Lcp).with_opt_tracking(),
        TenantConfig::new("flcp", m, beta, PolicySpec::FlcpRounded { k: 2, seed })
            .with_opt_tracking(),
        TenantConfig::new(
            "half",
            m,
            beta,
            PolicySpec::HalfStepRounded {
                seed: seed ^ 0x9e37,
            },
        ),
        TenantConfig::new("look", m, beta, PolicySpec::Lookahead { window: 3 }),
        TenantConfig::new("hyst", m, beta, PolicySpec::Hysteresis { band: 2 }),
        TenantConfig::hetero("het-dp", hetero_spec(), HeteroAlgo::Frontier).with_opt_tracking(),
        TenantConfig::hetero("het-gr", hetero_spec(), HeteroAlgo::Greedy),
    ]
}

fn slot_events(
    model: &CostModel,
    fleet: &[TenantConfig],
    load: f64,
) -> Vec<(String, Cost, Option<f64>)> {
    let cost = Cost::Server {
        lambda: load,
        params: model.server,
        overload: model.overload,
    };
    fleet
        .iter()
        .map(|cfg| (cfg.id.clone(), cost.clone(), Some(load)))
        .collect()
}

fn admit_all(engine: &Engine, fleet: &[TenantConfig]) {
    for cfg in fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
}

fn finish_all(engine: &Engine, fleet: &[TenantConfig]) {
    for cfg in fleet {
        engine.finish(&cfg.id).expect("finish");
    }
}

fn report_texts(engine: &Engine) -> Vec<String> {
    use serde::Serialize as _;
    engine
        .report_all()
        .expect("report")
        .iter()
        .map(|r: &TenantReport| serde_json::to_string(&r.to_value()).expect("serializable"))
        .collect()
}

/// Uninterrupted reference run on `shards` shards.
fn reference_run(trace: &Trace, fleet: &[TenantConfig], shards: usize) -> (Vec<String>, String) {
    let model = CostModel::default();
    let engine = Engine::new(EngineConfig::with_shards(shards));
    admit_all(&engine, fleet);
    for &load in &trace.loads {
        engine
            .step_batch_loads(slot_events(&model, fleet, load))
            .expect("step");
    }
    finish_all(&engine, fleet);
    let reports = report_texts(&engine);
    use serde::Serialize as _;
    let stats =
        serde_json::to_string(&engine.shard_stats().expect("stats").to_value()).expect("json");
    (reports, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill the engine at a random slot, with a random checkpoint cadence
    /// and (possibly different) shard counts before and after the crash.
    /// The recovered run's reports must be byte-identical to an
    /// uninterrupted run's.
    #[test]
    fn randomized_kill_points_recover_bit_identically(
        seed in 0u64..1_000_000,
        kill_at in 1usize..48,
        ck_every in 1usize..24,
        shards_before in 1usize..4,
        shards_after in 1usize..4,
    ) {
        let trace = Diurnal::default().generate(48, seed);
        let model = CostModel::default();
        let fleet = fleet(seed);
        let (want_reports, want_stats) = reference_run(&trace, &fleet, shards_after);

        let dir = case_dir("kill");
        let durable = Engine::with_store(
            EngineConfig::with_shards(shards_before),
            open_store(&dir),
        ).expect("durable engine");
        admit_all(&durable, &fleet);
        for (t, &load) in trace.loads[..kill_at].iter().enumerate() {
            durable
                .step_batch_loads(slot_events(&model, &fleet, load))
                .expect("step");
            if (t + 1) % ck_every == 0 {
                durable.checkpoint().expect("checkpoint");
            }
        }
        drop(durable); // crash: whatever the cadence left uncovered is WAL-only

        let (recovered, report) = Engine::recover(
            EngineConfig::with_shards(shards_after),
            open_store(&dir),
        ).expect("recover");
        prop_assert_eq!(report.replay_errors, 0);
        prop_assert_eq!(report.corrupt_segments, 0);
        prop_assert_eq!(
            report.tenants_restored + (report.checkpoint_seq == 0) as usize * fleet.len(),
            fleet.len(),
            "tenants come from the checkpoint or (before the first one) WAL admits"
        );
        for &load in &trace.loads[kill_at..] {
            recovered
                .step_batch_loads(slot_events(&model, &fleet, load))
                .expect("step");
        }
        finish_all(&recovered, &fleet);
        prop_assert_eq!(report_texts(&recovered), want_reports);
        if shards_before == shards_after {
            use serde::Serialize as _;
            let got_stats = serde_json::to_string(
                &recovered.shard_stats().expect("stats").to_value(),
            ).expect("json");
            prop_assert_eq!(got_stats, want_stats, "shard aggregates survive too");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Largest WAL segment file in a data dir.
fn largest_wal(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wal"))
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .expect("a wal segment")
}

/// Run a single-tenant durable engine for `slots` events and crash it.
fn crashed_single_tenant_run(dir: &std::path::Path, slots: usize) {
    let engine = Engine::with_store(EngineConfig::with_shards(1), open_store(dir)).expect("engine");
    engine
        .admit(TenantConfig::new("t", 8, 4.0, PolicySpec::Lcp))
        .expect("admit");
    for t in 0..slots {
        engine
            .step("t", Cost::abs(1.0, (t % 7) as f64))
            .expect("step");
    }
    drop(engine);
}

#[test]
fn truncated_wal_tail_recovers_the_valid_prefix() {
    // Chop k bytes off the WAL tail for a sweep of k: recovery must accept
    // the valid prefix, repair the file, and stay fully functional.
    for chop in [1u64, 3, 7, 12, 40] {
        let dir = case_dir("truncate");
        crashed_single_tenant_run(&dir, 30);
        let wal = largest_wal(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - chop)
            .unwrap();

        let (engine, report) =
            Engine::recover(EngineConfig::with_shards(1), open_store(&dir)).unwrap();
        let events = engine.report("t").unwrap().events;
        assert!(events < 30, "chop {chop}: some tail must be lost");
        assert!(
            events >= 30 - 1 - chop.div_ceil(8 + 2),
            "chop {chop}: at most the torn records drop"
        );
        assert!(report.corrupt_segments <= 1);
        // Still functional: the engine continues and re-recovers cleanly.
        engine.step("t", Cost::abs(1.0, 2.0)).unwrap();
        drop(engine);
        let (engine, report2) =
            Engine::recover(EngineConfig::with_shards(2), open_store(&dir)).unwrap();
        assert_eq!(
            report2.corrupt_segments, 0,
            "chop {chop}: repair is durable"
        );
        assert_eq!(engine.report("t").unwrap().events, events + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_wal_byte_drops_only_the_tail() {
    let dir = case_dir("flip");
    crashed_single_tenant_run(&dir, 24);
    let wal = largest_wal(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x20;
    std::fs::write(&wal, &bytes).unwrap();

    let (engine, report) = Engine::recover(EngineConfig::with_shards(1), open_store(&dir)).unwrap();
    assert_eq!(report.corrupt_segments, 1);
    assert_eq!(report.replay_errors, 0, "valid prefix replays cleanly");
    let events = engine.report("t").unwrap().events;
    assert!(
        events < 24 && events > 0,
        "roughly half survives, got {events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_recovery_appends_at_the_right_boundary() {
    // Crash → recover → stream → crash again → recover: the second
    // recovery must see checkpoint(recovery #1) + both WAL tails exactly
    // once each.
    let trace = Diurnal::default().generate(36, 9);
    let model = CostModel::default();
    let fleet = fleet(9);
    let (want, _) = reference_run(&trace, &fleet, 2);

    let dir = case_dir("double");
    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    admit_all(&engine, &fleet);
    for &load in &trace.loads[..12] {
        engine
            .step_batch_loads(slot_events(&model, &fleet, load))
            .expect("step");
    }
    drop(engine);

    let (engine, _) = Engine::recover(EngineConfig::with_shards(3), open_store(&dir)).unwrap();
    for &load in &trace.loads[12..25] {
        engine
            .step_batch_loads(slot_events(&model, &fleet, load))
            .expect("step");
    }
    drop(engine);

    let (engine, report) = Engine::recover(EngineConfig::with_shards(2), open_store(&dir)).unwrap();
    assert_eq!(report.tenants_restored, fleet.len());
    assert_eq!(report.replay_errors, 0);
    for &load in &trace.loads[25..] {
        engine
            .step_batch_loads(slot_events(&model, &fleet, load))
            .expect("step");
    }
    finish_all(&engine, &fleet);
    assert_eq!(report_texts(&engine), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hetero_admitted_after_the_checkpoint_recovers_from_the_wal_alone() {
    // A hetero tenant admitted *after* the last checkpoint exists only as
    // WAL records (admit + load batches): recovery must rebuild the fleet
    // spec and replay the DP frontier from scratch, bit-identically.
    let dir = case_dir("hetero-wal");
    let loads = [1.0, 4.5, 2.0, 5.5, 0.5, 3.0, 2.5];

    let reference = Engine::new(EngineConfig::with_shards(2));
    reference
        .admit(TenantConfig::hetero("h", hetero_spec(), HeteroAlgo::Frontier).with_opt_tracking())
        .unwrap();
    for &l in &loads {
        reference.step_load("h", l).unwrap();
    }
    let want = {
        use serde::Serialize as _;
        serde_json::to_string(&reference.report("h").unwrap().to_value()).unwrap()
    };

    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    engine
        .admit(TenantConfig::new("warmup", 6, 2.0, PolicySpec::Lcp))
        .unwrap();
    engine.checkpoint().unwrap();
    engine
        .admit(TenantConfig::hetero("h", hetero_spec(), HeteroAlgo::Frontier).with_opt_tracking())
        .unwrap();
    for &l in &loads[..4] {
        engine.step_load("h", l).unwrap();
    }
    drop(engine);

    let (engine, report) = Engine::recover(EngineConfig::with_shards(1), open_store(&dir)).unwrap();
    assert_eq!(report.tenants_restored, 1, "checkpoint held only warmup");
    assert_eq!(report.replay_errors, 0);
    for &l in &loads[4..] {
        engine.step_load("h", l).unwrap();
    }
    let got = {
        use serde::Serialize as _;
        serde_json::to_string(&engine.report("h").unwrap().to_value()).unwrap()
    };
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_and_late_admission_survive_recovery() {
    // Admits and evicts after the last checkpoint only exist in the WAL;
    // recovery must replay them in order.
    let dir = case_dir("churn");
    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    engine
        .admit(TenantConfig::new("old", 6, 2.0, PolicySpec::Lcp))
        .unwrap();
    for t in 0..8 {
        engine.step("old", Cost::abs(1.0, t as f64)).unwrap();
    }
    engine.checkpoint().unwrap();
    engine.evict("old").unwrap();
    engine
        .admit(TenantConfig::new(
            "new",
            6,
            2.0,
            PolicySpec::FlcpRounded { k: 2, seed: 4 },
        ))
        .unwrap();
    for t in 0..5 {
        engine.step("new", Cost::abs(1.0, t as f64)).unwrap();
    }
    drop(engine);

    let (engine, report) = Engine::recover(EngineConfig::with_shards(2), open_store(&dir)).unwrap();
    assert_eq!(report.tenants_restored, 1, "checkpoint held only \"old\"");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(engine.tenant_ids().unwrap(), vec!["new".to_string()]);
    assert_eq!(engine.report("new").unwrap().events, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refused_restore_leaves_no_wal_record() {
    // A restore whose snapshot fails validation is refused before it is
    // journaled, like an invalid admit: the WAL must not carry a record
    // that can only fail again on replay.
    let dir = case_dir("refused-restore");
    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    engine
        .admit(TenantConfig::new("a", 8, 2.0, PolicySpec::Lcp))
        .unwrap();
    engine.step("a", Cost::abs(1.0, 3.0)).unwrap();
    let mut bad = engine.snapshot("a").unwrap();
    bad.config.id = "b".into();
    bad.policy = serde::Value::String("garbage".into());
    assert!(
        engine.restore(bad).is_err(),
        "garbage policy state is refused"
    );
    assert!(engine.report("b").is_err());
    let (appended, _, _) = engine.obs().wal_volume();
    assert_eq!(
        appended, 2,
        "admit + one batch; the refused restore adds none"
    );
    drop(engine);

    let (engine, report) = Engine::recover(EngineConfig::with_shards(2), open_store(&dir)).unwrap();
    assert_eq!(report.records_replayed, 2);
    assert_eq!(report.replay_errors, 0);
    assert_eq!(engine.tenant_ids().unwrap(), vec!["a".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}
