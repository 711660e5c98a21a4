//! Rebalance/migration differential tests (the control-plane acceptance
//! bar): a fleet streamed through **any** schedule of live rebalances —
//! including a kill mid-migration, in the window where the `Rebalance`
//! record is journaled but the fencing checkpoint never committed — must
//! commit byte-identical tenant reports to a static single-shard engine
//! that never rebalanced at all.
//!
//! The proptest randomizes the fleet (scalar policies × seeds, plus
//! hetero lattice-DP tenants), the rebalance points and target
//! topologies, the checkpoint cadence, the kill point, and the
//! shard count recovery restarts with. The heavy `#[ignore]`d variants
//! run the same properties at raised case counts for the nightly CI job
//! (`cargo test -- --include-ignored`, `RSDC_HEAVY_CASES` to scale).

use proptest::prelude::*;
use rsdc_core::Cost;
use rsdc_engine::journal::JournalRecord;
use rsdc_engine::ring::{moved_ids, HashRing};
use rsdc_engine::{
    Engine, EngineConfig, FleetSpec, HeteroAlgo, PolicySpec, RingSpec, TenantConfig, TopologyConfig,
};
use rsdc_hetero::ServerType;
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use rsdc_tests::heavy_cases;
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::traces::Diurnal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SLOTS: usize = 36;

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-rebalance-migration")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &std::path::Path) -> Arc<dyn Durability> {
    Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 8 }).expect("open store"))
}

fn hetero_spec(kind: usize) -> FleetSpec {
    let types = match kind % 2 {
        0 => vec![
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
        ],
        _ => vec![
            ServerType {
                count: 4,
                beta: 0.5,
                energy: 0.8,
                capacity: 0.7,
            },
            ServerType {
                count: 1,
                beta: 4.0,
                energy: 2.0,
                capacity: 3.5,
            },
        ],
    };
    FleetSpec::new(types)
}

/// A randomized mixed fleet: `n_scalar` tenants cycling through every
/// scalar policy family (seeds derived from `seed`), plus `n_hetero`
/// lattice tenants alternating frontier/greedy.
fn build_fleet(seed: u64, n_scalar: usize, n_hetero: usize) -> Vec<TenantConfig> {
    let m = 10;
    let beta = CostModel::default().beta;
    let mut fleet = Vec::new();
    for i in 0..n_scalar {
        let s = seed.wrapping_mul(31).wrapping_add(i as u64);
        let policy = match i % 5 {
            0 => PolicySpec::Lcp,
            1 => PolicySpec::FlcpRounded { k: 2, seed: s },
            2 => PolicySpec::HalfStepRounded { seed: s },
            3 => PolicySpec::Lookahead { window: 1 + i % 3 },
            _ => PolicySpec::Hysteresis {
                band: 1 + (i % 2) as u32,
            },
        };
        let mut cfg = TenantConfig::new(format!("s{i}"), m, beta, policy);
        cfg.track_opt = i % 2 == 0;
        fleet.push(cfg);
    }
    for i in 0..n_hetero {
        let algo = if i % 2 == 0 {
            HeteroAlgo::Frontier
        } else {
            HeteroAlgo::Greedy
        };
        let mut cfg = TenantConfig::hetero(format!("h{i}"), hetero_spec(i), algo);
        cfg.track_opt = i % 2 == 0;
        fleet.push(cfg);
    }
    fleet
}

fn slot_events(fleet: &[TenantConfig], load: f64) -> Vec<(String, Cost, Option<f64>)> {
    let model = CostModel::default();
    let cost = Cost::Server {
        lambda: load,
        params: model.server,
        overload: model.overload,
    };
    fleet
        .iter()
        .map(|cfg| {
            if cfg.policy.is_hetero() {
                (cfg.id.clone(), Cost::Zero, Some(load))
            } else {
                (cfg.id.clone(), cost.clone(), Some(load))
            }
        })
        .collect()
}

fn report_texts(engine: &Engine) -> Vec<String> {
    engine
        .report_all()
        .expect("report")
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable"))
        .collect()
}

/// The static reference: one shard, no store, no rebalancing.
fn reference_run(loads: &[f64], fleet: &[TenantConfig]) -> Vec<String> {
    let engine = Engine::new(EngineConfig::with_shards(1));
    for cfg in fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    for &load in loads {
        engine
            .step_batch_loads(slot_events(fleet, load))
            .expect("step");
    }
    for cfg in fleet {
        engine.finish(&cfg.id).expect("finish");
    }
    report_texts(&engine)
}

/// One randomized schedule, exercised end to end. Returns nothing; panics
/// (via assert) on any divergence from the static reference.
#[allow(clippy::too_many_arguments)]
fn run_case(
    seed: u64,
    n_scalar: usize,
    n_hetero: usize,
    shards_before: usize,
    rebalance_at: usize,
    rebalance_to: usize,
    vnodes_to: usize,
    ck_every: usize,
    kill_at: usize,
    shards_after: usize,
    mid_kill: bool,
) {
    let trace = Diurnal::default().generate(SLOTS, seed);
    let fleet = build_fleet(seed, n_scalar, n_hetero);
    let want = reference_run(&trace.loads, &fleet);

    let dir = case_dir("mig");
    let mut engine = Engine::with_store(EngineConfig::with_shards(shards_before), open_store(&dir))
        .expect("durable engine");
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    for (t, &load) in trace.loads[..kill_at].iter().enumerate() {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
        if (t + 1) % ck_every == 0 {
            engine.checkpoint().expect("checkpoint");
        }
        if t + 1 == rebalance_at {
            let report = engine
                .rebalance(rebalance_to, Some(vnodes_to))
                .expect("rebalance");
            assert!(report.durable, "rebalance on a durable engine is fenced");
            assert_eq!(report.tenants, fleet.len());
            assert_eq!(engine.ring_spec(), RingSpec::new(rebalance_to, vnodes_to));
        }
        // A second, seed-derived rebalance so durable runs exercise
        // *sequences* of topology changes — in particular shrink-then-
        // regrow, where a shard index goes idle for an epoch and comes
        // back (the WAL-writer-eviction regression).
        if t + 1 == rebalance_at + 1 + (seed as usize % 5) {
            let to = 1 + ((seed / 3) as usize % 4);
            engine.rebalance(to, None).expect("second rebalance");
        }
    }
    drop(engine); // crash

    // A mid-migration kill: the topology change was journaled (write-ahead)
    // but the crash hit before the fencing checkpoint — exactly the state
    // Engine::rebalance leaves behind if it dies between its first and
    // second durable write. Recovery must finish the migration.
    let mid_target = RingSpec::new(1 + (seed as usize % 4), 8 + (seed as usize % 48));
    if mid_kill {
        let store = open_store(&dir);
        store.recover().expect("scan");
        store
            .append(
                0,
                &JournalRecord::Rebalance {
                    shards: mid_target.shards,
                    vnodes: mid_target.vnodes,
                }
                .encode(),
            )
            .expect("journal rebalance");
        store.sync().expect("sync");
    }

    let (engine, report) =
        Engine::recover(EngineConfig::with_shards(shards_after), open_store(&dir))
            .expect("recover");
    assert_eq!(report.replay_errors, 0, "clean replay");
    if mid_kill {
        assert_eq!(report.rebalances_replayed, 1);
        assert_eq!(
            engine.ring_spec(),
            mid_target,
            "recovery completes the interrupted migration"
        );
    } else {
        assert_eq!(report.rebalances_replayed, 0, "fenced rebalances truncate");
    }
    for &load in &trace.loads[kill_at..] {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
    }
    for cfg in &fleet {
        engine.finish(&cfg.id).expect("finish");
    }
    assert_eq!(
        report_texts(&engine),
        want,
        "rebalanced+killed run must report byte-identically to the static engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fleet × rebalance schedule × kill point (including the
    /// journal-then-die mid-migration window): byte-identical reports.
    #[test]
    fn random_rebalance_schedules_recover_bit_identically(
        seed in 0u64..1_000_000,
        n_scalar in 2usize..6,
        n_hetero in 0usize..3,
        shards_before in 1usize..4,
        rebalance_at in 1usize..SLOTS,
        rebalance_to in 1usize..5,
        vnodes_to in 8usize..96,
        ck_every in 1usize..18,
        kill_at in 1usize..SLOTS,
        shards_after in 1usize..4,
        mid in 0u8..2,
    ) {
        run_case(
            seed, n_scalar, n_hetero, shards_before, rebalance_at,
            rebalance_to, vnodes_to, ck_every, kill_at, shards_after, mid == 1,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(48)))]

    /// Nightly-depth version of the same property (`--include-ignored`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn random_rebalance_schedules_recover_bit_identically_heavy(
        seed in 0u64..1_000_000,
        n_scalar in 2usize..6,
        n_hetero in 0usize..3,
        shards_before in 1usize..4,
        rebalance_at in 1usize..SLOTS,
        rebalance_to in 1usize..5,
        vnodes_to in 8usize..96,
        ck_every in 1usize..18,
        kill_at in 1usize..SLOTS,
        shards_after in 1usize..4,
        mid in 0u8..2,
    ) {
        run_case(
            seed, n_scalar, n_hetero, shards_before, rebalance_at,
            rebalance_to, vnodes_to, ck_every, kill_at, shards_after, mid == 1,
        );
    }
}

/// Perform one incremental migration on `engine`, asserting the moved set
/// is **exactly** the ring diff (no tenant moved that didn't have to, and
/// none that had to was skipped).
fn incremental_step(engine: &mut Engine, to: usize, vnodes: Option<usize>) {
    let old_spec = engine.ring_spec();
    let new_spec = RingSpec::new(to, vnodes.unwrap_or(old_spec.vnodes));
    let ids = engine.tenant_ids().expect("ids");
    let mut want = moved_ids(
        &HashRing::new(old_spec),
        &HashRing::new(new_spec),
        ids.iter().map(|s| s.as_str()),
    );
    want.sort_unstable();
    let report = engine
        .rebalance_incremental(to, vnodes)
        .expect("incremental rebalance");
    assert!(report.incremental);
    assert_eq!(
        report.moved_ids, want,
        "incremental migration must move exactly the ring diff"
    );
    assert_eq!(report.tenants, want.len(), "only the diff was re-installed");
    assert_eq!(engine.ring_spec(), new_spec);
    assert_eq!(engine.live_tenants().expect("live"), ids.len());
}

/// The incremental twin of `run_case`: random fleets × incremental
/// migration schedules × kill points, including the journal-then-die
/// window where a `Migrate` record survives in the WAL tail. Recovery
/// must be byte-identical to the static single-shard reference, and the
/// recovery report must count the interrupted migration.
#[allow(clippy::too_many_arguments)]
fn run_incremental_case(
    seed: u64,
    n_scalar: usize,
    n_hetero: usize,
    shards_before: usize,
    migrate_at: usize,
    migrate_to: usize,
    vnodes_to: usize,
    ck_every: usize,
    kill_at: usize,
    shards_after: usize,
    mid_kill: bool,
) {
    let trace = Diurnal::default().generate(SLOTS, seed);
    let fleet = build_fleet(seed, n_scalar, n_hetero);
    let want = reference_run(&trace.loads, &fleet);

    let dir = case_dir("inc");
    let mut engine = Engine::with_store(EngineConfig::with_shards(shards_before), open_store(&dir))
        .expect("durable engine");
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    for (t, &load) in trace.loads[..kill_at].iter().enumerate() {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
        if (t + 1) % ck_every == 0 {
            engine.checkpoint().expect("checkpoint");
        }
        if t + 1 == migrate_at {
            incremental_step(&mut engine, migrate_to, Some(vnodes_to));
        }
        // A second, seed-derived incremental migration: sequences of
        // topology changes, including shrink-then-regrow (retired shard
        // indices coming back) and vnode-density churn.
        if t + 1 == migrate_at + 1 + (seed as usize % 5) {
            let to = 1 + ((seed / 3) as usize % 4);
            incremental_step(&mut engine, to, None);
        }
    }
    drop(engine); // crash

    // Journal-then-die: the Migrate record reached the WAL but the crash
    // hit before the fencing checkpoint — exactly the write-ahead window
    // of Engine::rebalance_incremental. Recovery must finish the change.
    let mid_target = RingSpec::new(1 + (seed as usize % 4), 8 + (seed as usize % 48));
    if mid_kill {
        let store = open_store(&dir);
        store.recover().expect("scan");
        store
            .append(
                0,
                &JournalRecord::Migrate {
                    shards: mid_target.shards,
                    vnodes: mid_target.vnodes,
                    moved: vec!["s0".into(), "h0".into()],
                }
                .encode(),
            )
            .expect("journal migrate");
        store.sync().expect("sync");
    }

    let (engine, report) =
        Engine::recover(EngineConfig::with_shards(shards_after), open_store(&dir))
            .expect("recover");
    assert_eq!(report.replay_errors, 0, "clean replay");
    assert_eq!(report.rebalances_replayed, 0, "no full-rebalance records");
    if mid_kill {
        assert_eq!(
            report.migrations_replayed, 1,
            "the interrupted Migrate record must be counted"
        );
        assert_eq!(
            engine.ring_spec(),
            mid_target,
            "recovery completes the interrupted incremental migration"
        );
    } else {
        assert_eq!(report.migrations_replayed, 0, "fenced migrations truncate");
    }
    for &load in &trace.loads[kill_at..] {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
    }
    for cfg in &fleet {
        engine.finish(&cfg.id).expect("finish");
    }
    assert_eq!(
        report_texts(&engine),
        want,
        "incremental migration + kill must report byte-identically to the static engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fleet × incremental-migration schedule × kill point
    /// (including the journal-then-die mid-`Migrate` window):
    /// byte-identical reports, moved set = ring diff exactly.
    #[test]
    fn random_incremental_migrations_recover_bit_identically(
        seed in 0u64..1_000_000,
        n_scalar in 2usize..6,
        n_hetero in 0usize..3,
        shards_before in 1usize..4,
        migrate_at in 1usize..SLOTS,
        migrate_to in 1usize..5,
        vnodes_to in 8usize..96,
        ck_every in 1usize..18,
        kill_at in 1usize..SLOTS,
        shards_after in 1usize..4,
        mid in 0u8..2,
    ) {
        run_incremental_case(
            seed, n_scalar, n_hetero, shards_before, migrate_at,
            migrate_to, vnodes_to, ck_every, kill_at, shards_after, mid == 1,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(48)))]

    /// Nightly-depth version of the incremental kill-point property
    /// (`--include-ignored`, scaled by `RSDC_HEAVY_CASES`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn random_incremental_migrations_recover_bit_identically_heavy(
        seed in 0u64..1_000_000,
        n_scalar in 2usize..6,
        n_hetero in 0usize..3,
        shards_before in 1usize..4,
        migrate_at in 1usize..SLOTS,
        migrate_to in 1usize..5,
        vnodes_to in 8usize..96,
        ck_every in 1usize..18,
        kill_at in 1usize..SLOTS,
        shards_after in 1usize..4,
        mid in 0u8..2,
    ) {
        run_incremental_case(
            seed, n_scalar, n_hetero, shards_before, migrate_at,
            migrate_to, vnodes_to, ck_every, kill_at, shards_after, mid == 1,
        );
    }
}

/// Auto-triggered chaos: the topology policy steers a **durable** engine
/// over a load ramp (trickle → flood → trickle), every applied decision
/// is an incremental migration, and a crash at the end must recover
/// byte-identically to a static single-shard engine fed the same
/// per-tenant streams. Topology decisions must never leak into tenant
/// state.
#[test]
fn auto_triggered_migrations_survive_a_crash_losslessly() {
    let fleet = build_fleet(13, 6, 2);
    let trace = Diurnal::default().generate(SLOTS, 13);
    // Slot t steps only the first k_t tenants: the varying batch size is
    // what drives the policy's induced cost up and down.
    let subset = |t: usize| -> usize {
        match t {
            0..=9 => 2,
            10..=24 => fleet.len(),
            _ => 2,
        }
    };
    let sub_events = |t: usize, load: f64| {
        let mut ev = slot_events(&fleet, load);
        ev.truncate(subset(t));
        ev
    };
    // Reference: same streams, one static shard, no policy.
    let reference = Engine::new(EngineConfig::with_shards(1));
    for cfg in &fleet {
        reference.admit(cfg.clone()).expect("admit");
    }
    for (t, &load) in trace.loads.iter().enumerate() {
        reference
            .step_batch_loads(sub_events(t, load))
            .expect("step");
    }
    for cfg in &fleet {
        reference.finish(&cfg.id).expect("finish");
    }
    let want = report_texts(&reference);

    let dir = case_dir("auto");
    let mut engine =
        Engine::with_store(EngineConfig::with_shards(1), open_store(&dir)).expect("engine");
    let mut cfg = TopologyConfig::new(1, 4);
    cfg.switch_cost = 3.0;
    cfg.cooldown = 1;
    engine.set_autoscale(Some(cfg)).expect("autoscale on");
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    let kill_at = 33;
    let mut migrations = 0;
    for (t, &load) in trace.loads[..kill_at].iter().enumerate() {
        engine.step_batch_loads(sub_events(t, load)).expect("step");
        if let Some(report) = engine.maybe_autoscale().expect("autoscale") {
            assert!(report.incremental, "auto decisions migrate incrementally");
            assert!(report.durable, "on a durable engine they are fenced");
            migrations += 1;
        }
    }
    assert!(migrations >= 2, "the ramp must trigger grow and shrink");
    assert!(engine.autoscale_status().expect("status").migrations >= migrations as u64);
    drop(engine); // crash

    let (engine, report) =
        Engine::recover(EngineConfig::with_shards(2), open_store(&dir)).expect("recover");
    assert_eq!(report.replay_errors, 0);
    for (t, &load) in trace.loads.iter().enumerate().skip(kill_at) {
        engine.step_batch_loads(sub_events(t, load)).expect("step");
    }
    for cfg in &fleet {
        engine.finish(&cfg.id).expect("finish");
    }
    assert_eq!(report_texts(&engine), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: a recovery that completes an interrupted
/// incremental migration must say so — `migrations_replayed` in the
/// recovery report, and both replay counters surfaced by the wire
/// `wal_stats` op.
#[test]
fn recovered_engine_reports_migrations_replayed_in_wal_stats() {
    use rsdc_engine::wire::Session;
    let fleet = build_fleet(3, 3, 1);
    let dir = case_dir("walstats");
    let engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    for &load in &Diurnal::default().generate(6, 3).loads {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
    }
    drop(engine); // crash
                  // Inject the journal-then-die window for an incremental migration.
    let store = open_store(&dir);
    store.recover().expect("scan");
    store
        .append(
            0,
            &JournalRecord::Migrate {
                shards: 3,
                vnodes: 32,
                moved: vec!["s1".into()],
            }
            .encode(),
        )
        .expect("append");
    store.sync().expect("sync");

    let (mut session, report) =
        Session::open_durable_cfg(EngineConfig::with_shards(2), open_store(&dir)).expect("open");
    let report = report.expect("store had state");
    assert_eq!(report.migrations_replayed, 1);
    assert_eq!(report.rebalances_replayed, 0);
    assert_eq!(session.engine().ring_spec(), RingSpec::new(3, 32));
    let out = session.handle_lines(["{\"op\":\"wal_stats\"}"]);
    let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
    assert_eq!(v["op"], "wal_stats");
    assert_eq!(v["migrations_replayed"], 1);
    assert_eq!(v["rebalances_replayed"], 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Back-to-back rebalances (a pathological control-plane storm) on a
/// **durable** engine, with traffic between them and a crash at the end:
/// the fleet must recover exactly. The shrink steps park shard indices
/// for an epoch and the regrow steps bring them back, which is the
/// pattern that once lost WAL records to stale cached segment writers.
#[test]
fn durable_rebalance_storm_survives_a_crash_losslessly() {
    let fleet = build_fleet(7, 5, 2);
    let trace = Diurnal::default().generate(18, 7);
    let want = reference_run(&trace.loads, &fleet);

    let dir = case_dir("storm");
    let mut engine =
        Engine::with_store(EngineConfig::with_shards(2), open_store(&dir)).expect("engine");
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    let mut slot = 0usize;
    for (shards, vnodes) in [(4, 64), (1, 8), (3, 128), (3, 16), (2, 64), (4, 32)] {
        for &load in &trace.loads[slot..slot + 2] {
            engine
                .step_batch_loads(slot_events(&fleet, load))
                .expect("step");
        }
        slot += 2;
        let report = engine.rebalance(shards, Some(vnodes)).expect("rebalance");
        assert_eq!(report.tenants, fleet.len());
        assert_eq!(engine.live_tenants().unwrap(), fleet.len());
    }
    for &load in &trace.loads[slot..] {
        engine
            .step_batch_loads(slot_events(&fleet, load))
            .expect("step");
    }
    drop(engine); // crash: the tail after the last fence is WAL-only

    let (engine, report) =
        Engine::recover(EngineConfig::with_shards(4), open_store(&dir)).expect("recover");
    assert_eq!(report.replay_errors, 0);
    for cfg in &fleet {
        engine.finish(&cfg.id).expect("finish");
    }
    assert_eq!(report_texts(&engine), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fleet totals summed over the shards: tenants, events, states.
fn fleet_totals(engine: &Engine) -> (usize, u64, u64) {
    engine
        .shard_stats()
        .expect("stats")
        .iter()
        .fold((0, 0, 0), |(t, e, s), st| {
            (t + st.tenants, e + st.events, s + st.states)
        })
}

/// The two rebalance modes agree. Two engines fed the same stream are
/// rebalanced to the same targets — a grow, then a shrink — one in full
/// mode and one in incremental mode. After each rebalance and at the end
/// of the stream they report identical tenants and integer fleet totals;
/// both report the ring diff as `moved` and `moved_ids`, and full mode
/// counts the whole fleet as re-installed.
#[test]
fn full_and_incremental_rebalances_agree() {
    let fleet = build_fleet(11, 10, 4);
    let trace = Diurnal::default().generate(SLOTS, 11);
    let mut ids: Vec<String> = fleet.iter().map(|cfg| cfg.id.clone()).collect();
    ids.sort();
    let [mut full, mut incremental] = [(); 2].map(|_| Engine::new(EngineConfig::with_shards(3)));
    for engine in [&full, &incremental] {
        for cfg in &fleet {
            engine.admit(cfg.clone()).expect("admit");
        }
    }
    let mut loads = trace.loads.chunks(SLOTS / 3);
    let mut step = |full: &Engine, incremental: &Engine| {
        for &load in loads.next().expect("a chunk per phase") {
            for engine in [full, incremental] {
                engine
                    .step_batch_loads(slot_events(&fleet, load))
                    .expect("step");
            }
        }
    };
    for to in [5, 2] {
        step(&full, &incremental);
        let want = moved_ids(
            &HashRing::new(full.ring_spec()),
            &HashRing::new(RingSpec::new(to, full.ring_spec().vnodes)),
            ids.iter().map(|s| s.as_str()),
        );
        assert!(!want.is_empty(), "the swing moves someone");
        let a = full.rebalance(to, None).expect("full rebalance");
        let b = incremental
            .rebalance_incremental(to, None)
            .expect("incremental rebalance");
        assert!(!a.incremental && b.incremental);
        assert_eq!((a.moved, b.moved), (want.len(), want.len()));
        assert_eq!(a.moved_ids, want, "full mode reports the ring diff");
        assert_eq!(b.moved_ids, want, "incremental mode moves the ring diff");
        assert_eq!(a.tenants, fleet.len(), "full mode re-installs the fleet");
        assert_eq!(b.tenants, want.len());
        assert_eq!((full.shards(), incremental.shards()), (to, to));
        assert_eq!(report_texts(&full), report_texts(&incremental));
        assert_eq!(fleet_totals(&full), fleet_totals(&incremental));
    }
    step(&full, &incremental);
    for engine in [&full, &incremental] {
        for cfg in &fleet {
            engine.finish(&cfg.id).expect("finish");
        }
    }
    assert_eq!(report_texts(&full), report_texts(&incremental));
    assert_eq!(
        report_texts(&full),
        reference_run(&trace.loads, &fleet),
        "both match a static single-shard run"
    );
    assert_eq!(fleet_totals(&full), fleet_totals(&incremental));
}

/// Admission limits survive a rebalance (they live in the handle, not the
/// workers), and migrated tenants keep their identity for the gate.
#[test]
fn limits_apply_across_rebalances() {
    use rsdc_engine::AdmissionConfig;
    let mut engine = Engine::new(EngineConfig::with_shards(1));
    engine
        .set_limits(AdmissionConfig {
            max_tenants: 3,
            rate: 0.0,
            burst: 0.0,
        })
        .unwrap();
    for i in 0..3 {
        engine
            .admit(TenantConfig::new(format!("t{i}"), 4, 1.0, PolicySpec::Lcp))
            .unwrap();
    }
    engine.rebalance(3, None).unwrap();
    assert_eq!(engine.limits().max_tenants, 3);
    assert!(
        engine
            .admit(TenantConfig::new("t3", 4, 1.0, PolicySpec::Lcp))
            .is_err(),
        "cap still enforced after migration"
    );
    engine.evict("t0").unwrap();
    engine
        .admit(TenantConfig::new("t3", 4, 1.0, PolicySpec::Lcp))
        .unwrap();
}
