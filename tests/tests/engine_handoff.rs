//! The engine's shard handoff: shards are plain state behind one lock
//! each, control calls run on the caller's thread, and step batches go
//! through one persistent worker per shard.
//!
//! * One `&Engine` shared across threads: stepping threads admit, step,
//!   finish and report disjoint tenant sets on one durable (`FileStore`)
//!   engine while another thread loops on `shard_stats`, `report_all` and
//!   `checkpoint`. Tenants are independent, so however the threads
//!   interleave, every tenant's report must equal a serial run's — and,
//!   because each shard's lock orders its journal appends with the
//!   mutations they record, an engine recovered from the store must
//!   report the same again.
//! * A batch that fails on one shard (its WAL append is refused) leaves
//!   that shard's tenants untouched and the handoff clean: the next
//!   batch's outcomes are exactly its own. The engine counts only the
//!   WAL appends and checkpoint commits the store accepted.
//! * A rebalance whose fencing checkpoint fails — grow or shrink —
//!   leaves the engine serving on its old shards, with
//!   every tenant back on its old shard and every shard's aggregates
//!   untouched, and the run continues (and recovers) exactly as if it had
//!   not been tried.
//! * A resolved `(id, key)` pair that outlived the intern table it came
//!   from steps the tenant its id names, live and on replay.
//! * Keys are reused after an evict, but a key is only a hint: a stale
//!   pair whose key now names another tenant fails as an unknown tenant
//!   and never touches the tenant that took the key — also while another
//!   thread evicts and re-admits ids under the steps and reports — and
//!   the recovered engine reports the same.
//! * Control-plane toggles — rate limits on and off, the energy meter on
//!   and off, the autoscale policy on and off — interleave with stepping
//!   threads without deadlock, and change no tenant's report.

use rsdc_core::Cost;
use rsdc_engine::wire::Session;
use rsdc_engine::{
    AdmissionConfig, Engine, EngineConfig, EngineError, HashRing, PolicySpec, PowerConfig,
    PowerSpec, StepEvent, TenantConfig, TenantReport, TopologyConfig, UNKNOWN_KEY,
};
use rsdc_obs::MetricValue;
use rsdc_store::{Durability, FileStore, FileStoreConfig, Recovery, StoreError, StoreStats};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Both handles can be shared by reference across threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Engine>();
    shareable::<Session>();
};

const THREADS: usize = 3;
const TENANTS_PER_THREAD: usize = 4;
const SLOTS: usize = 200;

/// The tenants stepping thread `t` owns.
fn tenants(t: usize) -> Vec<TenantConfig> {
    (0..TENANTS_PER_THREAD)
        .map(|i| {
            let id = format!("w{t}-t{i}");
            let policy = match i % 3 {
                0 => PolicySpec::Lcp,
                1 => PolicySpec::HalfStepRounded {
                    seed: (t * 31 + i) as u64,
                },
                _ => PolicySpec::Lookahead { window: 2 },
            };
            TenantConfig::new(id, 10, 3.0, policy)
        })
        .collect()
}

/// Thread `t`'s whole workload: admit its tenants, step them slot by
/// slot, finish them, and return their reports.
fn run_thread(engine: &Engine, t: usize) -> Vec<TenantReport> {
    let fleet = tenants(t);
    for cfg in &fleet {
        engine.admit(cfg.clone()).expect("admit");
    }
    for slot in 0..SLOTS {
        let load = ((slot * 7 + t * 3) % 10) as f64;
        let batch = fleet
            .iter()
            .map(|cfg| (cfg.id.clone(), Cost::abs(1.0, load), Some(load)))
            .collect();
        let outcomes = engine.step_batch_loads(batch).expect("step");
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        assert!(outcomes.iter().zip(&fleet).all(|(o, c)| *o.id == c.id));
    }
    fleet
        .iter()
        .map(|cfg| {
            engine.finish(&cfg.id).expect("finish");
            engine.report(&cfg.id).expect("report")
        })
        .collect()
}

/// Each shard's statistics and tenant set, read through the public API:
/// a tenant is listed under the shard its ring routes it to, and must be
/// installed there (every id-addressed call looks it up on that shard).
fn placement(engine: &Engine) -> (Vec<String>, Vec<Vec<String>>) {
    let stats = engine.shard_stats().expect("stats");
    let ring = HashRing::new(engine.ring_spec());
    let mut sets = vec![Vec::new(); engine.shards()];
    for id in engine.tenant_ids().expect("ids") {
        engine
            .tenant_config(&id)
            .expect("installed on its ring shard");
        sets[ring.route(&id)].push(id);
    }
    for (s, set) in stats.iter().zip(&sets) {
        assert_eq!(s.tenants, set.len(), "shard {} holds its ring set", s.shard);
    }
    let stats = stats.iter().map(|s| format!("{s:?}")).collect();
    (stats, sets)
}

fn texts(reports: &[TenantReport]) -> Vec<String> {
    use serde::Serialize as _;
    let mut texts: Vec<String> = reports
        .iter()
        .map(|r| serde_json::to_string(&r.to_value()).expect("serializable"))
        .collect();
    texts.sort();
    texts
}

#[test]
fn shared_engine_matches_a_serial_run_and_recovers_it() {
    let serial: Vec<TenantReport> = {
        let engine = Engine::new(EngineConfig::with_shards(2));
        (0..THREADS).flat_map(|t| run_thread(&engine, t)).collect()
    };

    let dir = std::env::temp_dir().join(format!("rsdc-engine-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn Durability> =
        Arc::new(FileStore::open(&dir, FileStoreConfig { sync_every: 16 }).expect("open store"));
    let engine = Engine::with_store(EngineConfig::with_shards(2), store).expect("engine");
    let done = AtomicBool::new(false);
    let shared = std::thread::scope(|scope| {
        let observer = scope.spawn(|| loop {
            let stats = engine.shard_stats().expect("stats");
            assert_eq!(stats.len(), 2);
            let reports = engine.report_all().expect("report_all");
            assert!(reports.windows(2).all(|w| w[0].id < w[1].id));
            engine.checkpoint().expect("checkpoint");
            if done.load(Ordering::Acquire) {
                break;
            }
        });
        let steppers: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                scope.spawn(move || run_thread(engine, t))
            })
            .collect();
        let shared: Vec<TenantReport> = steppers
            .into_iter()
            .flat_map(|h| h.join().expect("stepping thread"))
            .collect();
        done.store(true, Ordering::Release);
        observer.join().expect("observer thread");
        shared
    });
    let want = texts(&serial);
    assert_eq!(texts(&shared), want);
    assert_eq!(texts(&engine.report_all().expect("report_all")), want);
    let store = engine.store().clone();
    drop(engine);

    let (recovered, report) =
        Engine::recover(EngineConfig::with_shards(2), store).expect("recover");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(texts(&recovered.report_all().expect("report_all")), want);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `FileStore` whose appends for shard `fail` fail (none while it is
/// out of range), and whose checkpoint commits fail while `fail_commit`
/// is set.
struct FailingStore {
    inner: FileStore,
    fail: AtomicUsize,
    fail_commit: AtomicBool,
}

impl FailingStore {
    fn open(dir: &std::path::Path) -> FailingStore {
        FailingStore {
            inner: FileStore::open(dir, FileStoreConfig { sync_every: 16 }).expect("open store"),
            fail: AtomicUsize::new(NO_SHARD),
            fail_commit: AtomicBool::new(false),
        }
    }
}

impl Durability for FailingStore {
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
    fn has_state(&self) -> Result<bool, StoreError> {
        self.inner.has_state()
    }
    fn append(&self, shard: usize, payload: &[u8]) -> Result<(), StoreError> {
        if shard == self.fail.load(Ordering::SeqCst) {
            return Err(StoreError::InvalidState("append refused".into()));
        }
        self.inner.append(shard, payload)
    }
    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
    fn begin_checkpoint(&self) -> Result<u64, StoreError> {
        self.inner.begin_checkpoint()
    }
    fn rotate(&self, shard: usize, seq: u64) -> Result<(), StoreError> {
        self.inner.rotate(shard, seq)
    }
    fn commit_checkpoint(&self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        if self.fail_commit.load(Ordering::SeqCst) {
            return Err(StoreError::InvalidState("commit refused".into()));
        }
        self.inner.commit_checkpoint(seq, payload)
    }
    fn recover(&self) -> Result<Recovery, StoreError> {
        self.inner.recover()
    }
    fn wal_stats(&self) -> Result<StoreStats, StoreError> {
        self.inner.wal_stats()
    }
}

const NO_SHARD: usize = usize::MAX;

/// The engine's `wal_appended_records` counter and the sample count of
/// its `wal_checkpoint_commit_ns` histogram.
fn wal_metrics(engine: &Engine) -> (u64, u64) {
    let (mut records, mut commits) = (0, 0);
    for m in engine.obs().registry().snapshot() {
        match (m.id.name.as_str(), &m.value) {
            ("wal_appended_records", MetricValue::Counter(v)) => records = *v,
            ("wal_checkpoint_commit_ns", MetricValue::Histogram(h)) => commits = h.count,
            _ => {}
        }
    }
    (records, commits)
}

/// Fail one batch's append on `shard`, then check that shard applied
/// nothing, the refused append was not counted and the next batch comes
/// back clean; then fail a checkpoint commit and check it adds no
/// commit-latency sample.
fn failed_batch_case(shard: usize) {
    let dir =
        std::env::temp_dir().join(format!("rsdc-engine-failed-{shard}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(FailingStore::open(&dir));
    let engine = Engine::with_store(EngineConfig::with_shards(2), store.clone()).expect("engine");
    let ring = HashRing::new(engine.ring_spec());
    let ids: Vec<String> = (0..12).map(|i| format!("t{i}")).collect();
    let failing: Vec<&String> = ids.iter().filter(|id| ring.route(id) == shard).collect();
    assert!(!failing.is_empty() && failing.len() < ids.len());
    for id in &ids {
        engine
            .admit(TenantConfig::new(id.clone(), 8, 2.0, PolicySpec::Lcp))
            .expect("admit");
    }
    let batch = |ids: &[String], load: f64| -> Vec<(String, Cost, Option<f64>)> {
        ids.iter()
            .map(|id| (id.clone(), Cost::abs(1.0, load), Some(load)))
            .collect()
    };
    engine
        .step_batch_loads(batch(&ids, 3.0))
        .expect("healthy batch");
    let snapshots = |engine: &Engine| -> Vec<String> {
        use serde::Serialize as _;
        failing
            .iter()
            .map(|id| {
                let snapshot = engine.snapshot(id).expect("snapshot");
                serde_json::to_string(&snapshot.to_value()).expect("serializable")
            })
            .collect()
    };
    let before = snapshots(&engine);
    let (volume, metrics) = (engine.obs().wal_volume(), wal_metrics(&engine));

    store.fail.store(shard, Ordering::SeqCst);
    let only_failing: Vec<String> = failing.iter().map(|id| id.to_string()).collect();
    let refused = engine.step_batch_loads(batch(&only_failing, 6.0));
    assert!(matches!(refused, Err(EngineError::Store(_))), "{refused:?}");
    assert_eq!(
        engine.obs().wal_volume(),
        volume,
        "a refused append adds no volume"
    );
    assert_eq!(wal_metrics(&engine), metrics, "nor a counted record");
    let failed = engine.step_batch_loads(batch(&ids, 6.0));
    assert!(
        matches!(failed, Err(EngineError::Store(_))),
        "a refused append fails the batch: {failed:?}"
    );
    assert_eq!(snapshots(&engine), before, "shard {shard} applied nothing");
    // The other shard's append went through: the engine's counts are the
    // store's own, which counts only accepted appends.
    let stats = store.wal_stats().expect("stats");
    let (records, bytes, _) = engine.obs().wal_volume();
    assert_eq!(
        (records, bytes),
        (stats.appended_records, stats.appended_bytes)
    );
    assert_eq!(wal_metrics(&engine).0, records);

    store.fail.store(NO_SHARD, Ordering::SeqCst);
    let next: Vec<String> = ids.iter().rev().step_by(2).cloned().collect();
    let outcomes = engine
        .step_batch_loads(batch(&next, 1.0))
        .expect("next batch");
    let got: Vec<&str> = outcomes.iter().map(|o| &*o.id).collect();
    let want: Vec<&str> = next.iter().map(|id| id.as_str()).collect();
    assert_eq!(got, want, "the next batch's outcomes are exactly its own");
    assert!(outcomes
        .iter()
        .all(|o| o.error.is_none() && o.states.len() == 1));

    let commits = wal_metrics(&engine).1;
    store.fail_commit.store(true, Ordering::SeqCst);
    let refused = engine.checkpoint();
    assert!(matches!(refused, Err(EngineError::Store(_))), "{refused:?}");
    assert_eq!(
        wal_metrics(&engine).1,
        commits,
        "a refused commit is not timed"
    );
    store.fail_commit.store(false, Ordering::SeqCst);
    engine.checkpoint().expect("checkpoint");
    assert_eq!(wal_metrics(&engine).1, commits + 1, "an accepted one is");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_batch_leaves_the_handoff_clean() {
    // Shard 1 fails after shard 0 succeeded; shard 0 failing first must
    // not leave shard 1's reply behind for the next batch either.
    failed_batch_case(1);
    failed_batch_case(0);
}

#[test]
fn aborted_rebalances_keep_the_old_shards() {
    let ids: Vec<String> = (0..12).map(|i| format!("t{i}")).collect();
    let admit_all = |engine: &Engine| {
        for (i, id) in ids.iter().enumerate() {
            let policy = if i % 2 == 0 {
                PolicySpec::Lcp
            } else {
                PolicySpec::HalfStepRounded { seed: i as u64 }
            };
            engine
                .admit(TenantConfig::new(id.clone(), 8, 2.0, policy))
                .expect("admit");
        }
    };
    let step = |engine: &Engine, slot: usize| {
        let load = (slot % 7) as f64;
        let batch = ids
            .iter()
            .map(|id| (id.clone(), Cost::abs(1.0, load), Some(load)))
            .collect();
        engine.step_batch_loads(batch).expect("step");
    };
    let reference = {
        let engine = Engine::new(EngineConfig::with_shards(2));
        admit_all(&engine);
        (0..20).for_each(|slot| step(&engine, slot));
        texts(&engine.report_all().expect("report_all"))
    };
    for target in [3, 1] {
        let dir =
            std::env::temp_dir().join(format!("rsdc-engine-abort-{target}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(FailingStore::open(&dir));
        let mut engine =
            Engine::with_store(EngineConfig::with_shards(2), store.clone()).expect("engine");
        admit_all(&engine);
        (0..10).for_each(|slot| step(&engine, slot));
        let before = texts(&engine.report_all().expect("report_all"));
        let placed = placement(&engine);

        store.fail_commit.store(true, Ordering::SeqCst);
        let aborted = engine.rebalance(target, None);
        assert!(
            matches!(aborted, Err(EngineError::Store(_))),
            "the fence commit fails the rebalance: {aborted:?}"
        );
        store.fail_commit.store(false, Ordering::SeqCst);
        assert_eq!(engine.shards(), 2, "still on the old shards");
        assert_eq!(texts(&engine.report_all().expect("report_all")), before);
        assert_eq!(
            placement(&engine),
            placed,
            "placement and aggregates untouched (target {target})"
        );

        (10..20).for_each(|slot| step(&engine, slot));
        assert_eq!(texts(&engine.report_all().expect("report_all")), reference);
        drop(engine);
        let (recovered, _) = Engine::recover(EngineConfig::with_shards(2), store).expect("recover");
        assert_eq!(
            recovered.shards(),
            2,
            "the aborted topology is not replayed"
        );
        assert_eq!(
            texts(&recovered.report_all().expect("report_all")),
            reference
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A pending step can hold its resolved `(id, key)` pair while the intern
/// table it came from goes away — another connection on the same server
/// runs `recover`, or admits the id after the step was resolved. The
/// batch must step the tenant the id names: the journal records ids, so
/// anything else makes the live engine and its replay disagree.
#[test]
fn stale_resolved_keys_step_the_tenant_their_id_names() {
    let lcp = |id: &str| TenantConfig::new(id, 4, 2.0, PolicySpec::Lcp);
    // `a` is key 0 on the other engine, key 1 on this one.
    let other = Engine::new(EngineConfig::with_shards(2));
    other.admit(lcp("a")).expect("admit");
    let (a, stale_key) = other.resolve("a");

    let dir = std::env::temp_dir().join(format!("rsdc-engine-stale-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn Durability> =
        Arc::new(FileStore::open(&dir, FileStoreConfig { sync_every: 1 }).expect("open store"));
    let engine = Engine::with_store(EngineConfig::with_shards(2), store).expect("engine");
    // `c` is resolved before it is admitted.
    let (c, unknown) = engine.resolve("c");
    assert_eq!(unknown, UNKNOWN_KEY);
    for id in ["b", "a", "c"] {
        engine.admit(lcp(id)).expect("admit");
    }
    assert_ne!(engine.resolve("a").1, stale_key);

    let step = |id: &Arc<str>, key| StepEvent {
        id: Arc::clone(id),
        key,
        cost: Cost::abs(1.0, 2.0),
        load: Some(2.0),
    };
    let mut events = vec![step(&a, stale_key), step(&c, unknown)];
    let mut out = Vec::new();
    engine.step_events(&mut events, &mut out).expect("step");
    let stepped: Vec<(&str, bool)> = out.iter().map(|o| (&*o.id, o.error.is_none())).collect();
    assert_eq!(stepped, [("a", true), ("c", true)]);
    let events_of = |id: &str| engine.report(id).expect("report").events;
    assert_eq!(
        (events_of("a"), events_of("b"), events_of("c")),
        (1, 0, 1),
        "each step lands on the tenant its id names"
    );

    let want = texts(&engine.report_all().expect("report_all"));
    let store = engine.store().clone();
    drop(engine);
    let (recovered, report) =
        Engine::recover(EngineConfig::with_shards(2), store).expect("recover");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(texts(&recovered.report_all().expect("report_all")), want);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh 1-shard durable engine on a temp-dir `FileStore` named `tag`.
fn durable_engine(tag: &str) -> (Engine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rsdc-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store: Arc<dyn Durability> =
        Arc::new(FileStore::open(&dir, FileStoreConfig { sync_every: 64 }).expect("open store"));
    let engine = Engine::with_store(EngineConfig::with_shards(1), store).expect("engine");
    (engine, dir)
}

/// Recover `engine`'s store into a fresh engine and check it reports what
/// `engine` did (`gone` ids stay unknown).
fn recovers_identically(engine: Engine, dir: std::path::PathBuf, gone: &[&str]) {
    let want = texts(&engine.report_all().expect("report_all"));
    let store = engine.store().clone();
    drop(engine);
    let (recovered, report) =
        Engine::recover(EngineConfig::with_shards(1), store).expect("recover");
    assert_eq!(report.replay_errors, 0);
    assert_eq!(texts(&recovered.report_all().expect("report_all")), want);
    for id in gone {
        assert!(matches!(
            recovered.report(id),
            Err(EngineError::UnknownTenant(_))
        ));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `a` is evicted and `z` takes its key: the stale `(a, key)` pair fails
/// as an unknown tenant and leaves `z` untouched.
#[test]
fn stale_keys_never_step_the_tenant_that_reused_them() {
    let lcp = |id: &str| TenantConfig::new(id, 4, 2.0, PolicySpec::Lcp);
    let (engine, dir) = durable_engine("reused-key");
    engine.admit(lcp("a")).expect("admit");
    let (a, key) = engine.resolve("a");
    engine.evict("a").expect("evict");
    engine.admit(lcp("z")).expect("admit");
    assert_eq!(engine.resolve("z").1, key, "z reuses a's key");

    let mut events = vec![StepEvent {
        id: a,
        key,
        cost: Cost::abs(1.0, 2.0),
        load: Some(2.0),
    }];
    let mut out = Vec::new();
    engine.step_events(&mut events, &mut out).expect("step");
    let unknown = EngineError::UnknownTenant("a".into()).to_string();
    assert_eq!(out[0].error.as_deref(), Some(unknown.as_str()));
    assert_eq!(engine.report("z").expect("report").events, 0);
    assert!(matches!(
        engine.report("a"),
        Err(EngineError::UnknownTenant(_))
    ));
    recovers_identically(engine, dir, &["a"]);
}

/// One thread evicts and re-admits ids (each admit reuses the key the
/// evict freed, usually for another id) while the other steps through
/// stale and fresh pairs and reads reports: every report names the id
/// asked for, every failed step is an unknown tenant, and the recovered
/// engine reports the same.
#[test]
fn key_reuse_races_with_steps_and_reports() {
    const IDS: usize = 6;
    const ROUNDS: usize = 2000;
    let ids: Vec<String> = (0..IDS).map(|i| format!("r{i}")).collect();
    let lcp = |id: &str| TenantConfig::new(id, 6, 2.0, PolicySpec::Lcp);
    let (engine, dir) = durable_engine("key-race");
    for id in &ids[..IDS / 2] {
        engine.admit(lcp(id)).expect("admit");
    }
    let stale: Vec<(Arc<str>, u32)> = ids.iter().map(|id| engine.resolve(id)).collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Live ids are r{k}..r{k+2} (mod 6): evict the oldest, admit
            // the next.
            for k in 0..ROUNDS {
                engine.evict(&ids[k % IDS]).expect("evict");
                engine.admit(lcp(&ids[(k + IDS / 2) % IDS])).expect("admit");
            }
            done.store(true, Ordering::Release);
        });
        let mut round = 0;
        while !done.load(Ordering::Acquire) || round < 10 {
            round += 1;
            let mut events: Vec<StepEvent> = stale
                .iter()
                .map(|(id, _)| engine.resolve(id))
                .chain(stale.iter().cloned())
                .map(|(id, key)| StepEvent {
                    id,
                    key,
                    cost: Cost::abs(1.0, (round % 5) as f64),
                    load: Some((round % 5) as f64),
                })
                .collect();
            let mut out = Vec::new();
            engine.step_events(&mut events, &mut out).expect("step");
            for o in &out {
                if let Some(error) = &o.error {
                    assert_eq!(
                        *error,
                        EngineError::UnknownTenant(o.id.to_string()).to_string()
                    );
                }
            }
            for id in &ids {
                match engine.report(id) {
                    Ok(report) => assert_eq!(&report.id, id),
                    Err(e) => assert!(matches!(e, EngineError::UnknownTenant(_)), "{e}"),
                }
            }
        }
    });
    assert_eq!(engine.live_tenants().expect("live"), IDS / 2);
    recovers_identically(engine, dir, &[]);
}

/// Stepping threads run their disjoint tenants while one thread loops
/// over the control-plane toggles: a rate limit too loose to throttle
/// and then none, an energy meter and then none, an autoscale policy
/// and then none (never applied: that takes `&mut Engine`). All threads
/// start together at a barrier. The run must finish within a bound, and
/// every report, with `energy` masked, must equal a serial run's.
#[test]
fn control_toggles_race_with_steps() {
    let masked = |mut reports: Vec<TenantReport>| {
        reports.iter_mut().for_each(|r| r.energy = None);
        texts(&reports)
    };
    let serial = {
        let engine = Engine::new(EngineConfig::with_shards(2));
        masked((0..THREADS).flat_map(|t| run_thread(&engine, t)).collect())
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let engine = Engine::new(EngineConfig::with_shards(2));
        let done = AtomicBool::new(false);
        let start = Barrier::new(THREADS + 1);
        let reports: Vec<TenantReport> = std::thread::scope(|scope| {
            scope.spawn(|| {
                let loose = AdmissionConfig {
                    max_tenants: 0,
                    rate: 1e9,
                    burst: 1e9,
                };
                let meter = PowerConfig::new(PowerSpec::Linear {
                    idle: 100.0,
                    peak: 250.0,
                });
                start.wait();
                loop {
                    engine.set_limits(loose).expect("limits on");
                    engine.set_power(Some(meter.clone())).expect("power on");
                    engine
                        .set_autoscale(Some(TopologyConfig::new(1, 4)))
                        .expect("autoscale on");
                    engine
                        .set_limits(AdmissionConfig::default())
                        .expect("limits off");
                    engine.set_power(None).expect("power off");
                    engine.set_autoscale(None).expect("autoscale off");
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
            let steppers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (engine, start) = (&engine, &start);
                    scope.spawn(move || {
                        start.wait();
                        run_thread(engine, t)
                    })
                })
                .collect();
            let reports = steppers
                .into_iter()
                .flat_map(|h| h.join().expect("stepping thread"))
                .collect();
            done.store(true, Ordering::Release);
            reports
        });
        let _ = tx.send(masked(reports));
    });
    let shared = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the toggled run finishes within two minutes");
    assert_eq!(shared, serial);
}
