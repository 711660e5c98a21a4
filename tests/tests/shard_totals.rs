//! Shard running totals: the committed machine count and the load-aware
//! `ShardTotals` are maintained incrementally, never recomputed from a
//! slab scan or a per-commit log. This suite pins them against oracles
//! rebuilt from the outside:
//!
//! * a checkpoint written before the totals replaced the per-commit
//!   record log (`fixtures/pre_totals_checkpoint/`, captured with
//!   `rsdc engine --events events.jsonl --shards 2 --data-dir data`)
//!   still recovers: its `stats` are byte-identical to what that engine
//!   reported (`stats.jsonl`), and stepping continues exactly as on an
//!   engine that never checkpointed, except for the fixture's HalfStep
//!   and memoryless tenants (see [`FRACTIONAL`]);
//! * random sequences of admits, load steps, finishes, evictions,
//!   restores (new and replacing), rebalances and
//!   crash recoveries keep each shard's running `machines` equal to the
//!   sum of its tenants' last committed states (read back through the
//!   energy meter) and its `ShardStats` equal to the record log
//!   (`rsdc_sim::metrics::Metrics`) fed the same commits. The same
//!   sequences pin id reachability through the engine's one id index
//!   (the intern table): after every operation `tenant_ids()` is exactly
//!   the live set, every live id answers `report` and `snapshot`, and
//!   evicted or never-admitted ids answer `UnknownTenant`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsdc_core::Cost;
use rsdc_engine::wire::Session;
use rsdc_engine::{
    Engine, EngineConfig, EngineError, FleetSpec, HashRing, HeteroAlgo, PolicySpec, PowerConfig,
    PowerSpec, ShardStats, StepOutcome, TenantConfig, TenantSnapshot,
};
use rsdc_hetero::ServerType;
use rsdc_sim::metrics::{Metrics, SlotRecord};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use rsdc_tests::heavy_cases;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/pre_totals_checkpoint"
);

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh, unique data directory per test case.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rsdc-shard-totals").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> Arc<dyn Durability> {
    Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 64 }).expect("open store"))
}

fn fixture_lines(name: &str) -> Vec<String> {
    std::fs::read_to_string(Path::new(FIXTURE).join(name))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
        .lines()
        .map(str::to_owned)
        .collect()
}

/// The fixture's HalfStep (`api`) and memoryless (`batch`) tenants. Its
/// engine found their minimizers by a ternary search, where the current
/// one bisects over the integers, so a fresh run of the prefix takes other
/// states for them. They are the only tenants whose reference is not a
/// fresh run: it starts from their states in the fixture.
const FRACTIONAL: [&str; 2] = ["api", "batch"];

/// The `stats` reply after a fresh run of the fixture's prefix. It differs
/// from `stats.jsonl` only through the [`FRACTIONAL`] tenants' commits.
const FRESH_STATS: &str = concat!(
    r#"{"op":"stats","shards":[{"shard":0,"tenants":3,"events":90,"states":90,"metric_slots":90,"#,
    r#""total_energy":1114.0,"drop_rate":0.0,"mean_committed":12.377777777777778,"total_wakes":88},"#,
    r#"{"shard":1,"tenants":3,"events":90,"states":88,"metric_slots":88,"total_energy":1157.0,"#,
    r#""drop_rate":0.002939020671230947,"mean_committed":13.147727272727273,"total_wakes":70}],"#,
    r#""skew":{"tenants":1.0,"events":1.0},"autoscale":null,"energy":null}"#
);

/// Steps, finishes and reads to run after the fixture's prefix.
fn suffix_records() -> Vec<String> {
    let ids = ["web", "api", "db", "cache", "batch", "edge"];
    let mut lines = Vec::new();
    for t in 0..12 {
        for (k, id) in ids.iter().enumerate() {
            let load = 0.125 + ((t * 7 + k * 5) % 23) as f64 * 0.61;
            lines.push(format!(r#"{{"op":"step","id":"{id}","load":{load}}}"#));
        }
    }
    lines.push(r#"{"op":"stats"}"#.into());
    for id in ids {
        lines.push(format!(r#"{{"op":"finish","id":"{id}"}}"#));
    }
    lines.push(r#"{"op":"stats"}"#.into());
    lines.push(r#"{"op":"report"}"#.into());
    lines
}

#[test]
fn pre_totals_checkpoint_recovers_with_identical_stats_and_continues() {
    let events = fixture_lines("events.jsonl");
    let want_stats = fixture_lines("stats.jsonl");
    assert_eq!(want_stats.len(), 1, "stats.jsonl holds one stats line");
    let prefix: Vec<&str> = events
        .iter()
        .map(String::as_str)
        .filter(|l| !l.contains(r#""op":"stats""#))
        .collect();

    // The fixture's record arrays carry load-aware slots on both shards.
    // The document follows the checkpoint frame's length and CRC words.
    let frame = std::fs::read(Path::new(FIXTURE).join("data/ckpt-00000000000000000001.ckpt"))
        .expect("read fixture checkpoint");
    let doc = std::str::from_utf8(&frame[8..]).expect("checkpoint document is UTF-8");
    assert_eq!(doc.matches(r#""metrics":{"records":[{"#).count(), 2);

    // Recover a copy (recovery writes a fresh checkpoint into its dir).
    let dir = case_dir("fixture");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for entry in std::fs::read_dir(Path::new(FIXTURE).join("data")).expect("list fixture") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    let (mut recovered, report) =
        Session::open_durable_cfg(EngineConfig::with_shards(2), open_store(&dir))
            .expect("recover fixture");
    let report = report.expect("the fixture holds state");
    assert_eq!(report.tenants_restored, 6);
    assert!(report.shard_meta_restored);
    assert_eq!(recovered.handle_lines([r#"{"op":"stats"}"#]), want_stats);

    // The same events on an engine that never checkpointed.
    let mut fresh = Session::new(Engine::new(EngineConfig::with_shards(2)));
    fresh.handle_lines(prefix.iter().copied());
    assert_eq!(fresh.handle_lines([r#"{"op":"stats"}"#]), [FRESH_STATS]);

    // The reference recovers the fixture's checkpoint with every tenant
    // but the fractional ones taken from the fresh run: the shard totals
    // and the fractional tenants start where the fixture's engine left
    // them, the other tenants where a run that never checkpointed is.
    let mut checkpoint: serde::Value = serde_json::from_str(doc).expect("checkpoint is JSON");
    let serde::Value::Object(fields) = &mut checkpoint else {
        panic!("checkpoint is an object");
    };
    let Some((_, serde::Value::Array(tenants))) = fields.iter_mut().find(|(k, _)| k == "tenants")
    else {
        panic!("checkpoint lists its tenants");
    };
    for tenant in tenants.iter_mut() {
        let id = tenant["config"]["id"]
            .as_str()
            .expect("tenant id")
            .to_owned();
        if !FRACTIONAL.contains(&id.as_str()) {
            use serde::Serialize as _;
            *tenant = fresh
                .engine()
                .snapshot(&id)
                .expect("fresh tenant")
                .to_value();
        }
    }
    let reference_dir = case_dir("reference");
    let store = open_store(&reference_dir);
    let seq = store.begin_checkpoint().expect("begin checkpoint");
    let checkpoint = serde_json::to_string(&checkpoint).expect("render checkpoint");
    store
        .commit_checkpoint(seq, checkpoint.as_bytes())
        .expect("write reference checkpoint");
    let (mut reference, _) =
        Session::open_durable_cfg(EngineConfig::with_shards(2), store).expect("recover reference");
    assert_eq!(reference.handle_lines([r#"{"op":"stats"}"#]), want_stats);

    let suffix = suffix_records();
    let want = reference.handle_lines(suffix.iter().map(String::as_str));
    let got = recovered.handle_lines(suffix.iter().map(String::as_str));
    assert_eq!(got, want);
    drop((recovered, reference));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn legacy_record_arrays_fold_into_totals() {
    use serde::Deserialize as _;
    let legacy = serde_json::from_str::<serde::Value>(
        r#"{"shard":1,"events":3,"states":3,"metrics":{"records":[
            {"target":4,"committed":4,"serving":4,"load":5.5,"served":4.0,"dropped":1.5,
             "utilisation":1.0,"power":4.0,"wake_energy":0.0,"woken":4,"slept":0},
            {"target":2,"committed":2,"serving":2,"load":0.1,"served":0.1,"dropped":0.0,
             "utilisation":0.05,"power":2.0,"wake_energy":0.0,"woken":0,"slept":2}]}}"#,
    )
    .expect("parse");
    let meta = rsdc_engine::ShardMeta::from_value(&legacy).expect("legacy meta decodes");
    let t = &meta.metrics;
    assert_eq!((t.slots, t.committed, t.wakes), (2, 6, 4));
    assert_eq!(t.load.to_bits(), (0.0 + 5.5 + 0.1f64).to_bits());
    assert_eq!(t.dropped, 1.5);
    // The current form round-trips exactly.
    use serde::Serialize as _;
    let again = rsdc_engine::ShardMeta::from_value(&meta.to_value()).expect("decodes");
    assert_eq!(again.metrics, meta.metrics);
}

// ---------------------------------------------------------------------------
// Invariant property test.
// ---------------------------------------------------------------------------

/// A two-class fleet (12 lattice points).
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

/// What the oracle knows about one tenant: its last committed state (and
/// configuration, for hetero tenants) and the loads of the slots it has
/// ingested but not committed yet (lookahead lag).
#[derive(Clone, Debug)]
struct Shadow {
    hetero: bool,
    finished: bool,
    prev: u32,
    prev_config: Vec<u32>,
    pending: VecDeque<Option<f64>>,
}

impl Shadow {
    fn new(hetero: bool) -> Shadow {
        Shadow {
            hetero,
            finished: false,
            prev: 0,
            prev_config: vec![0; if hetero { 2 } else { 0 }],
            pending: VecDeque::new(),
        }
    }
}

/// One shard as the oracle sees it.
#[derive(Default)]
struct ShardLog {
    /// The old per-commit record log, rebalance merges included — the
    /// semantic oracle.
    log: Metrics,
    /// The log's float sums re-associated the way running totals add
    /// them: `base` holds the `(load, dropped)` sums a rebalance merge
    /// produced (`a + b` of whole shard sums), `tail` the records since.
    base: (f64, f64),
    tail: Metrics,
    /// Whether a merge ever combined two non-empty logs into this one.
    merged: bool,
    events: u64,
    states: u64,
}

impl ShardLog {
    /// `(load, dropped)` summed in the running totals' association.
    fn sums(&self) -> (f64, f64) {
        self.tail
            .records()
            .iter()
            .fold(self.base, |(l, d), r| (l + r.load, d + r.dropped))
    }

    fn drop_rate(&self) -> f64 {
        let (load, dropped) = self.sums();
        if load == 0.0 {
            0.0
        } else {
            dropped / load
        }
    }

    /// Fold `other` into this shard, as `ShardMeta::merge` does.
    fn merge(&mut self, other: ShardLog) {
        if self.log.slots() > 0 && other.log.slots() > 0 {
            self.merged = true;
        }
        self.merged |= other.merged;
        let (l, d) = self.sums();
        let (ol, od) = other.sums();
        self.base = (l + ol, d + od);
        self.tail = Metrics::default();
        self.log.merge(&other.log);
        self.events += other.events;
        self.states += other.states;
    }
}

struct Oracle {
    tenants: BTreeMap<String, Shadow>,
    /// Evicted ids not restored since.
    evicted: BTreeSet<String>,
    saved: Vec<(TenantSnapshot, Shadow)>,
    shards: Vec<ShardLog>,
}

impl Oracle {
    fn new(shards: usize) -> Oracle {
        Oracle {
            tenants: BTreeMap::new(),
            evicted: BTreeSet::new(),
            saved: Vec::new(),
            shards: (0..shards).map(|_| ShardLog::default()).collect(),
        }
    }

    /// Count `states` committed by `id` on `shard`, pairing each with its
    /// own slot's load.
    fn commit(&mut self, id: &str, shard: usize, states: &[u32], configs: Option<&Vec<Vec<u32>>>) {
        let t = self.tenants.get_mut(id).expect("live tenant");
        let s = &mut self.shards[shard];
        for (i, &x) in states.iter().enumerate() {
            let load = t
                .pending
                .pop_front()
                .expect("a commit serves an ingested slot");
            let ups = if t.hetero {
                let config = &configs.expect("hetero commits carry configs")[i];
                let ups = config
                    .iter()
                    .zip(&t.prev_config)
                    .map(|(&b, &a)| b.saturating_sub(a) as u64)
                    .sum();
                t.prev_config = config.clone();
                ups
            } else {
                x.saturating_sub(t.prev) as u64
            };
            t.prev = x;
            s.states += 1;
            let Some(load) = load else { continue };
            let record = SlotRecord {
                target: x,
                committed: x,
                serving: x,
                load,
                served: load.min(x as f64),
                dropped: (load - x as f64).max(0.0),
                utilisation: if x > 0 {
                    (load / x as f64).min(1.0)
                } else {
                    0.0
                },
                power: x as f64,
                wake_energy: 0.0,
                woken: ups as u32,
                slept: 0,
            };
            s.log.push(record);
            s.tail.push(record);
        }
    }

    /// A rebalance folds only retired shards onto shard 0.
    fn rebalance(&mut self, new_shards: usize) {
        let retired = self.shards.split_off(new_shards.min(self.shards.len()));
        for log in retired {
            self.shards[0].merge(log);
        }
        self.shards.resize_with(new_shards, ShardLog::default);
    }
}

/// One id per shard that was never admitted: a batch of these reaches
/// every shard (each reports the event unknown) without touching any
/// tenant, so every shard's reply refreshes its `machines` sample in the
/// energy meter.
fn probe_ids(ring: &HashRing, shards: usize) -> Vec<String> {
    let mut ids: Vec<Option<String>> = vec![None; shards];
    for k in 0.. {
        let id = format!("probe-{k}");
        let slot = &mut ids[ring.route(&id)];
        if slot.is_none() {
            *slot = Some(id);
        }
        if ids.iter().all(Option::is_some) {
            break;
        }
    }
    ids.into_iter().flatten().collect()
}

fn power() -> PowerConfig {
    PowerConfig::new(PowerSpec::Constant { watts: 1.0 })
}

/// Every live id, and only those, is reachable by id.
fn check_reachability(engine: &Engine, oracle: &Oracle, step: usize) {
    let live: Vec<String> = oracle.tenants.keys().cloned().collect();
    assert_eq!(engine.tenant_ids().expect("ids"), live, "op {step}");
    for id in &live {
        let snapshot = engine.snapshot(id).expect("live id snapshots");
        assert_eq!(&snapshot.config.id, id, "op {step}");
        assert_eq!(&engine.report(id).expect("live id reports").id, id);
    }
    let never = ["never-admitted", "probe-0"];
    for id in oracle.evicted.iter().map(String::as_str).chain(never) {
        let unknown = |r: Result<(), EngineError>| {
            assert!(
                matches!(&r, Err(EngineError::UnknownTenant(u)) if u == id),
                "op {step}: {id} answered {r:?}"
            )
        };
        unknown(engine.report(id).map(|_| ()));
        unknown(engine.snapshot(id).map(|_| ()));
        unknown(engine.tenant_config(id).map(|_| ()));
    }
}

fn check(engine: &Engine, oracle: &Oracle, step: usize) {
    check_reachability(engine, oracle, step);
    let ring = HashRing::new(engine.ring_spec());
    let shards = engine.shards();
    assert_eq!(oracle.shards.len(), shards);

    // Running machines, read back through the meter: a constant 1 W
    // machine draws `max(machines, 1)` watts (the meter floors at one).
    let probes = probe_ids(&ring, shards);
    let replies = engine
        .step_batch(probes.iter().map(|id| (id.clone(), Cost::Zero)).collect())
        .expect("probe batch");
    assert!(replies.iter().all(|o| o.error.is_some()));
    let watts = engine.energy_status().expect("power is on").watts;
    let mut machines = vec![0u64; shards];
    for (id, t) in &oracle.tenants {
        machines[ring.route(id)] += t.prev as u64;
        assert_eq!(engine.report(id).expect("report").last_state, t.prev);
    }
    for s in 0..shards {
        assert_eq!(
            watts[s],
            machines[s].max(1) as f64,
            "op {step}: shard {s} running machines"
        );
    }

    // Stats vs the record log.
    let stats: Vec<ShardStats> = engine.shard_stats().expect("stats");
    for (s, (got, want)) in stats.iter().zip(&oracle.shards).enumerate() {
        let ctx = format!("op {step}: shard {s} ({got:?})");
        let log = &want.log;
        assert_eq!(got.events, want.events, "{ctx}");
        assert_eq!(got.states, want.states, "{ctx}");
        assert_eq!(got.metric_slots, log.slots() as u64, "{ctx}");
        assert_eq!(got.total_wakes, log.total_wakes() as u64, "{ctx}");
        // Integer-valued sums: exact in any order. (`==` equates the
        // empty log's `-0.0` with the totals' `0.0`.)
        assert_eq!(got.total_energy, log.total_energy(), "{ctx}");
        assert_eq!(got.mean_committed, log.mean_committed(), "{ctx}");
        // The float sums are bit-exact in the totals' own association...
        assert_eq!(
            got.drop_rate.to_bits(),
            want.drop_rate().to_bits(),
            "{ctx}: drop rate vs the re-associated log"
        );
        if !want.merged {
            // ...which is the log's own order until a merge.
            assert_eq!(
                got.drop_rate.to_bits(),
                log.drop_rate().to_bits(),
                "{ctx}: drop rate vs the log"
            );
        } else {
            // A merge adds two whole-shard sums (`a + b`) where the log
            // adds the second shard's terms one by one onto the first:
            // the same non-negative terms in another association. Any
            // association of N such terms is within (N-1)u of the exact
            // sum (u = EPSILON/2), so the two load sums, the two dropped
            // sums, and the quotients of each pair agree to within about
            // 2N EPSILON relative. No fixed ulp count holds: each of the
            // second shard's terms can round differently at the larger
            // scale, so the gap grows with the number of terms.
            let n = log.slots() as f64;
            let (a, b) = (got.drop_rate, log.drop_rate());
            assert!(
                (a - b).abs() <= 2.0 * n * f64::EPSILON * a.max(b),
                "{ctx}: drop rate {a} vs log {b}"
            );
        }
    }
}

fn random_config(rng: &mut StdRng, id: &str) -> TenantConfig {
    let m = rng.gen_range(3u32..10);
    let beta = rng.gen_range(1.0..6.0);
    let policy = match rng.gen_range(0u32..6) {
        0 | 1 => PolicySpec::Lcp,
        2 => PolicySpec::HalfStepRounded { seed: rng.gen() },
        3 => PolicySpec::Lookahead {
            window: rng.gen_range(1usize..4),
        },
        4 => PolicySpec::FlcpRounded {
            k: 2,
            seed: rng.gen(),
        },
        _ => {
            let algo = if rng.gen_bool(0.5) {
                HeteroAlgo::Frontier
            } else {
                HeteroAlgo::Greedy
            };
            return TenantConfig::hetero(id, hetero_spec(), algo);
        }
    };
    TenantConfig::new(id, m, beta, policy)
}

fn pick<'a>(rng: &mut StdRng, ids: &'a [String]) -> Option<&'a String> {
    (!ids.is_empty()).then(|| &ids[rng.gen_range(0..ids.len())])
}

fn run_case(seed: u64, ops: usize, shards: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = case_dir("ops");
    let mut engine =
        Engine::with_store(EngineConfig::with_shards(shards), open_store(&dir)).expect("engine");
    engine.set_power(Some(power())).expect("power");
    let mut oracle = Oracle::new(shards);
    let mut next_id = 0usize;

    for step in 0..ops {
        let live: Vec<String> = oracle.tenants.keys().cloned().collect();
        let active: Vec<String> = oracle
            .tenants
            .iter()
            .filter(|(_, t)| !t.finished)
            .map(|(id, _)| id.clone())
            .collect();
        let ring = HashRing::new(engine.ring_spec());
        match rng.gen_range(0u32..100) {
            0..=11 => {
                let id = format!("t{next_id}");
                next_id += 1;
                let cfg = random_config(&mut rng, &id);
                let hetero = cfg.policy.is_hetero();
                engine.admit(cfg).expect("admit");
                oracle.tenants.insert(id, Shadow::new(hetero));
            }
            12..=56 => {
                let mut batch = Vec::new();
                for id in &active {
                    if !rng.gen_bool(0.7) {
                        continue;
                    }
                    let hetero = oracle.tenants[id].hetero;
                    let load = (hetero || rng.gen_bool(0.85)).then(|| rng.gen_range(0.0..12.0));
                    let center = load.unwrap_or_else(|| rng.gen_range(0.0..8.0));
                    batch.push((id.clone(), Cost::abs(1.5, center), load));
                }
                let outcomes: Vec<StepOutcome> =
                    engine.step_batch_loads(batch.clone()).expect("batch");
                for ((id, _, load), o) in batch.iter().zip(&outcomes) {
                    assert!(o.error.is_none(), "{id}: {:?}", o.error);
                    let shard = ring.route(id);
                    oracle.shards[shard].events += 1;
                    oracle
                        .tenants
                        .get_mut(id)
                        .expect("live")
                        .pending
                        .push_back(*load);
                    oracle.commit(id, shard, &o.states, o.configs.as_ref());
                }
            }
            57..=63 => {
                if let Some(id) = pick(&mut rng, &active) {
                    let states = engine.finish(id).expect("finish");
                    oracle.commit(id, ring.route(id), &states, None);
                    oracle.tenants.get_mut(id).expect("live").finished = true;
                }
            }
            64..=69 => {
                if let Some(id) = pick(&mut rng, &live) {
                    engine.evict(id).expect("evict");
                    oracle.tenants.remove(id);
                    oracle.evicted.insert(id.clone());
                }
            }
            70..=75 => {
                if let Some(id) = pick(&mut rng, &live) {
                    let snapshot = engine.snapshot(id).expect("snapshot");
                    oracle.saved.push((snapshot, oracle.tenants[id].clone()));
                }
            }
            76..=83 => {
                if !oracle.saved.is_empty() {
                    let at = rng.gen_range(0..oracle.saved.len());
                    let (snapshot, shadow) = oracle.saved[at].clone();
                    let id = snapshot.config.id.clone();
                    engine.restore(snapshot).expect("restore");
                    oracle.evicted.remove(&id);
                    oracle.tenants.insert(id, shadow);
                }
            }
            84..=92 => {
                let to = rng.gen_range(1usize..5);
                let vnodes = rng.gen_bool(0.5).then(|| rng.gen_range(8usize..96));
                engine.rebalance(to, vnodes).expect("rebalance");
                oracle.rebalance(to);
            }
            93..=95 => {
                engine.checkpoint().expect("checkpoint");
            }
            _ => {
                // Crash: everything since the last checkpoint is WAL-only.
                let spec = engine.ring_spec();
                drop(engine);
                let (recovered, report) = Engine::recover(
                    EngineConfig::with_topology(spec.shards, spec.vnodes),
                    open_store(&dir),
                )
                .expect("recover");
                assert_eq!(report.replay_errors, 0);
                engine = recovered;
                engine.set_power(Some(power())).expect("power");
            }
        }
        check(&engine, &oracle, step);
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running `machines` and `ShardStats` match their oracles after every
    /// operation of a random sequence.
    #[test]
    fn running_totals_match_the_record_log_oracle(
        seed in 0u64..1_000_000,
        ops in 20usize..70,
        shards in 1usize..4,
    ) {
        run_case(seed, ops, shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(64)))]

    /// Nightly-depth version of the same property (`--include-ignored`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn running_totals_match_the_record_log_oracle_heavy(
        seed in 0u64..1_000_000,
        ops in 60usize..200,
        shards in 1usize..5,
    ) {
        run_case(seed, ops, shards);
    }
}
