//! Bounded-state soak: a durable engine's checkpoint does not grow with
//! the number of events it has processed.
//!
//! 100 tenants step load-carrying events on a `FileStore` engine that
//! checkpoints every tenth of the run. The first and the last checkpoint
//! document must have the same shape — every number masked, the bytes are
//! identical — so the only growth left is in the digits of the numbers
//! themselves (event counters gain a digit per decade). Shard aggregates
//! are fixed-size running totals, so `stats` stays O(1) as well.
//!
//! The tier-1 variant runs 100k events; the 1M-event variant is
//! `#[ignore]`d and runs in the nightly `--include-ignored` job.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsdc_core::Cost;
use rsdc_engine::{Engine, EngineConfig, PolicySpec, TenantConfig};
use rsdc_store::{Durability, FileStore, FileStoreConfig, Recovery, StoreError, StoreStats};
use std::sync::{Arc, Mutex};

const TENANTS: usize = 100;

/// A `FileStore` that keeps a copy of every committed checkpoint document.
struct Tap {
    inner: FileStore,
    docs: Mutex<Vec<Vec<u8>>>,
}

impl Durability for Tap {
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
    fn has_state(&self) -> Result<bool, StoreError> {
        self.inner.has_state()
    }
    fn append(&self, shard: usize, payload: &[u8]) -> Result<(), StoreError> {
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
        self.docs.lock().unwrap().push(payload.to_vec());
        self.inner.commit_checkpoint(seq, payload)
    }
    fn recover(&self) -> Result<Recovery, StoreError> {
        self.inner.recover()
    }
    fn wal_stats(&self) -> Result<StoreStats, StoreError> {
        self.inner.wal_stats()
    }
}

/// The document's shape: its structure and keys, with every number
/// leaf replaced by `#` and every string leaf by `s`; plus the count of
/// leaves masked.
fn shape(doc: &[u8]) -> (String, usize) {
    fn strip(v: &serde::Value, leaves: &mut usize) -> serde::Value {
        match v {
            serde::Value::Number(_) => {
                *leaves += 1;
                serde::Value::String("#".into())
            }
            serde::Value::String(_) => {
                *leaves += 1;
                serde::Value::String("s".into())
            }
            serde::Value::Array(items) => {
                serde::Value::Array(items.iter().map(|v| strip(v, leaves)).collect())
            }
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), strip(v, leaves)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    let doc: serde::Value =
        serde_json::from_str(std::str::from_utf8(doc).expect("utf-8")).expect("JSON document");
    let mut leaves = 0;
    let shape = strip(&doc, &mut leaves);
    (serde_json::to_string(&shape).expect("render"), leaves)
}

fn soak(events: usize) {
    let dir = std::env::temp_dir().join(format!(
        "rsdc-bounded-state-{events}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Tap {
        inner: FileStore::open(&dir, FileStoreConfig { sync_every: 1024 }).expect("open store"),
        docs: Mutex::new(Vec::new()),
    });
    let mut cfg = EngineConfig::with_shards(2);
    cfg.metrics = false;
    let engine = Engine::with_store(cfg, store.clone()).expect("engine");
    let ids: Vec<String> = (0..TENANTS).map(|i| format!("t{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        let policy = match i % 3 {
            0 => PolicySpec::Lcp,
            1 => PolicySpec::HalfStepRounded { seed: i as u64 },
            _ => PolicySpec::Lookahead { window: 2 },
        };
        engine
            .admit(TenantConfig::new(id.clone(), 8, 3.0, policy))
            .expect("admit");
    }
    let mut rng = StdRng::seed_from_u64(events as u64);
    let slots = events / TENANTS;
    for slot in 1..=slots {
        let batch = ids
            .iter()
            .map(|id| {
                let load = rng.gen_range(0.0..10.0);
                (id.clone(), Cost::abs(1.0, load), Some(load))
            })
            .collect();
        engine.step_batch_loads(batch).expect("step");
        if slot % (slots / 10) == 0 {
            engine.checkpoint().expect("checkpoint");
        }
    }

    let stats = engine.shard_stats().expect("stats");
    assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), events as u64);
    // Lookahead tenants still hold their last two slots uncommitted.
    let lagging = (TENANTS / 3) as u64 * 2;
    assert_eq!(
        stats.iter().map(|s| s.metric_slots).sum::<u64>(),
        events as u64 - lagging
    );
    engine.shutdown();

    let docs = store.docs.lock().unwrap();
    assert_eq!(docs.len(), 10);
    let (first, last) = (&docs[0], &docs[9]);
    let (first_shape, leaves) = shape(first);
    assert!(
        first_shape == shape(last).0,
        "checkpoint shape changed between {} and {events} events",
        events / 10
    );
    // Ten times the events grows a counter by one digit and leaves the
    // other leaves' lengths to chance: on average at most a byte a leaf.
    eprintln!(
        "checkpoint bytes: {} at {} events, {} at {events} ({leaves} leaves)",
        first.len(),
        events / 10,
        last.len()
    );
    assert!(
        last.len() <= first.len() + leaves,
        "checkpoint grew from {} to {} bytes over {leaves} leaves",
        first.len(),
        last.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_size_is_independent_of_event_count() {
    soak(100_000);
}

#[test]
#[ignore = "heavy: run via the nightly --include-ignored CI job"]
fn checkpoint_size_is_independent_of_event_count_1m() {
    soak(1_000_000);
}
