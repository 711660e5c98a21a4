//! Criterion bench: engine policy-steps/second versus shard count on a
//! synthetic 10k-tenant workload, plus the durability overhead of
//! journaling every batch through `rsdc-store`.
//!
//! Each sample streams one full slot — a batch of `(tenant, cost)` events,
//! one per tenant — through the engine; throughput is reported in
//! policy-steps (elements) per second for shard counts 1, 2, 4 and 8
//! (`steps_10k_tenants`) and for `NullStore` vs `FileStore` backends at a
//! fixed shard count (`store_overhead`), which prices the WAL's
//! serialize + write(+ batched fsync) cost per event.
//!
//! Note: shard scaling is wall-clock parallelism, so the curve is flat on
//! single-core runners; on an N-core machine the batch work fans out to
//! min(N, shards) threads.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use rsdc_core::Cost;
use rsdc_engine::{Engine, EngineConfig, FleetSpec, HeteroAlgo, PolicySpec, TenantConfig};
use rsdc_hetero::ServerType;
use rsdc_store::{Durability, FileStore, FileStoreConfig, NullStore};
use std::sync::Arc;

const TENANTS: usize = 10_000;
const M: u32 = 128;
const BETA: f64 = 4.0;

/// Benches run with the metrics registry disabled — the documented
/// hot-path configuration — so the numbers price the engine itself, not
/// the observability layer. (`engine_bench` records the same shape to
/// `BENCH_engine.json`.)
fn bench_cfg(shards: usize) -> EngineConfig {
    let mut cfg = EngineConfig::with_shards(shards);
    cfg.metrics = false;
    cfg
}

fn setup(shards: usize) -> Engine {
    let engine = Engine::new(bench_cfg(shards));
    for i in 0..TENANTS {
        let policy = if i % 2 == 0 {
            PolicySpec::Lcp
        } else {
            PolicySpec::HalfStepRounded { seed: i as u64 }
        };
        engine
            .admit(TenantConfig::new(format!("t{i}"), M, BETA, policy))
            .expect("admit");
    }
    engine
}

/// Pre-built slot batches so sampling measures engine dispatch + policy
/// stepping, not string formatting.
fn slot_batches(n: usize) -> Vec<Vec<(String, Cost)>> {
    (0..n)
        .map(|t| {
            (0..TENANTS)
                .map(|i| {
                    let center = ((t * 5 + i) % (M as usize + 1)) as f64;
                    (format!("t{i}"), Cost::abs(1.0, center))
                })
                .collect()
        })
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/steps_10k_tenants");
    group.throughput(Throughput::Elements(TENANTS as u64));
    let batches = slot_batches(16);
    for shards in [1usize, 2, 4, 8] {
        let engine = setup(shards);
        let mut t = 0usize;
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            // The clone is setup, not workload: keep it out of the timing.
            b.iter_batched(
                || {
                    let batch = batches[t % batches.len()].clone();
                    t += 1;
                    batch
                },
                |batch| engine.step_batch(batch).expect("step"),
                BatchSize::PerIteration,
            )
        });
        engine.shutdown();
    }
    group.finish();
}

const HETERO_TENANTS: usize = 500;

/// Heterogeneous tenants: each policy step is an `O(S * D)` frontier
/// advance over the configuration lattice (here two classes,
/// `S = 4 * 3 = 12`) — this group prices it against the scalar groups
/// above. Frontier vs greedy isolates the DP itself from the
/// plain lattice scan.
fn bench_hetero_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/hetero_steps_500_tenants");
    group.throughput(Throughput::Elements(HETERO_TENANTS as u64));
    let fleet = FleetSpec::new(vec![
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
    ]);
    let load_batches: Vec<Vec<(String, Cost, Option<f64>)>> = (0..16)
        .map(|t| {
            (0..HETERO_TENANTS)
                .map(|i| {
                    let load = 0.5 + ((t * 5 + i) % 11) as f64 * 0.5;
                    (format!("h{i}"), Cost::Zero, Some(load))
                })
                .collect()
        })
        .collect();
    for algo in [HeteroAlgo::Frontier, HeteroAlgo::Greedy] {
        let engine = Engine::new(bench_cfg(2));
        for i in 0..HETERO_TENANTS {
            engine
                .admit(TenantConfig::hetero(format!("h{i}"), fleet.clone(), algo))
                .expect("admit");
        }
        let name = match algo {
            HeteroAlgo::Frontier => "frontier",
            HeteroAlgo::Greedy => "greedy",
        };
        let mut t = 0usize;
        group.bench_with_input(BenchmarkId::new("algo", name), &name, |b, _| {
            b.iter_batched(
                || {
                    let batch = load_batches[t % load_batches.len()].clone();
                    t += 1;
                    batch
                },
                |batch| engine.step_batch_loads(batch).expect("step"),
                BatchSize::PerIteration,
            )
        });
        engine.shutdown();
    }
    group.finish();
}

const OVERHEAD_TENANTS: usize = 500;

/// `NullStore` vs `FileStore`: the engine is identical, only the shard
/// journaling hook changes, so the gap is the pure durability overhead
/// (per-batch JSON serialization + WAL write + fsync every 64 records).
fn bench_store_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/store_overhead_500_tenants");
    group.throughput(Throughput::Elements(OVERHEAD_TENANTS as u64));
    let batches: Vec<Vec<(String, Cost)>> = (0..16)
        .map(|t| {
            (0..OVERHEAD_TENANTS)
                .map(|i| {
                    let center = ((t * 5 + i) % (M as usize + 1)) as f64;
                    (format!("t{i}"), Cost::abs(1.0, center))
                })
                .collect()
        })
        .collect();
    let dir = std::env::temp_dir()
        .join("rsdc-bench-store")
        .join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for backend in ["null", "file"] {
        let store: Arc<dyn Durability> = match backend {
            "null" => Arc::new(NullStore),
            _ => Arc::new(
                FileStore::open(&dir, FileStoreConfig { sync_every: 64 }).expect("open store"),
            ),
        };
        let engine = Engine::with_store(bench_cfg(2), store).expect("durable engine");
        for i in 0..OVERHEAD_TENANTS {
            engine
                .admit(TenantConfig::new(format!("t{i}"), M, BETA, PolicySpec::Lcp))
                .expect("admit");
        }
        let mut t = 0usize;
        group.bench_with_input(BenchmarkId::new("backend", backend), &backend, |b, _| {
            b.iter_batched(
                || {
                    // Setup (untimed): pick the slot batch; checkpoint
                    // periodically so the WAL stays truncated, as a real
                    // deployment would run it.
                    if t > 0 && t.is_multiple_of(256) {
                        engine.checkpoint().expect("checkpoint");
                    }
                    let batch = batches[t % batches.len()].clone();
                    t += 1;
                    batch
                },
                |batch| engine.step_batch(batch).expect("step"),
                BatchSize::PerIteration,
            )
        });
        engine.shutdown();
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

const REBALANCE_TENANTS: usize = 1_000;

/// Migration cost: every sample is one full `Engine::rebalance` swinging
/// a 1k-tenant fleet between 4 and 8 shards, so throughput reads as
/// tenants/s migrated (every shard is rebuilt and every tenant moves onto
/// it; the ring only *re-routes* the consistent-hashing minority).
/// The `durable` variant adds the write-ahead `Rebalance` record and the
/// fencing full-state checkpoint — the price of crash-safe elasticity.
fn bench_rebalance(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/rebalance_1k_tenants");
    group.throughput(Throughput::Elements(REBALANCE_TENANTS as u64));
    let dir = std::env::temp_dir()
        .join("rsdc-bench-rebalance")
        .join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for backend in ["ephemeral", "durable"] {
        let mut engine = match backend {
            "ephemeral" => Engine::new(bench_cfg(4)),
            _ => Engine::with_store(
                bench_cfg(4),
                Arc::new(
                    FileStore::open(&dir, FileStoreConfig { sync_every: 64 }).expect("open store"),
                ),
            )
            .expect("durable engine"),
        };
        for i in 0..REBALANCE_TENANTS {
            let policy = if i % 2 == 0 {
                PolicySpec::Lcp
            } else {
                PolicySpec::HalfStepRounded { seed: i as u64 }
            };
            engine
                .admit(TenantConfig::new(format!("t{i}"), M, BETA, policy))
                .expect("admit");
        }
        // A few streamed slots so migrated snapshots carry real state.
        for t in 0..4usize {
            let batch = (0..REBALANCE_TENANTS)
                .map(|i| {
                    let center = ((t * 5 + i) % (M as usize + 1)) as f64;
                    (format!("t{i}"), Cost::abs(1.0, center))
                })
                .collect();
            engine.step_batch(batch).expect("step");
        }
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("backend", backend), &backend, |b, _| {
            b.iter(|| {
                flip = !flip;
                let report = engine
                    .rebalance(if flip { 8 } else { 4 }, None)
                    .expect("rebalance");
                assert_eq!(report.tenants, REBALANCE_TENANTS);
                report.moved
            })
        });
        engine.shutdown();
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Incremental vs full migration on the same topology swing: each sample
/// re-partitions a 1k-tenant fleet between 4 and 8 shards, and throughput
/// reads as tenants/s **moved** (the ring diff, `~1/2` of the fleet on a
/// 4↔8 swing — both paths move the same set, so the number isolates the
/// mechanism). The full mode additionally moves every unmoved tenant
/// onto a rebuilt shard (the shard workers persist per index either
/// way); the incremental mode touches only the diff, which is the entire
/// point of the `mode:"incremental"` rebalance and the autoscale policy
/// built on it.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/incremental_vs_full_rebalance");
    // Moved set on a 4↔8 vnode-default swing (measured once below so the
    // throughput denominator is honest).
    for mode in ["full", "incremental"] {
        let mut engine = Engine::new(bench_cfg(4));
        for i in 0..REBALANCE_TENANTS {
            engine
                .admit(TenantConfig::new(format!("t{i}"), M, BETA, PolicySpec::Lcp))
                .expect("admit");
        }
        for t in 0..4usize {
            let batch = (0..REBALANCE_TENANTS)
                .map(|i| {
                    let center = ((t * 5 + i) % (M as usize + 1)) as f64;
                    (format!("t{i}"), Cost::abs(1.0, center))
                })
                .collect();
            engine.step_batch(batch).expect("step");
        }
        // The 4→8 diff size is deterministic for a fixed ring.
        let moved = {
            use rsdc_engine::ring::{moved_ids, HashRing};
            use rsdc_engine::RingSpec;
            let ids: Vec<String> = (0..REBALANCE_TENANTS).map(|i| format!("t{i}")).collect();
            moved_ids(
                &HashRing::new(RingSpec::new(4, 64)),
                &HashRing::new(RingSpec::new(8, 64)),
                ids.iter().map(|s| s.as_str()),
            )
            .len()
        };
        group.throughput(Throughput::Elements(moved as u64));
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new("mode", mode), &mode, |b, _| {
            b.iter(|| {
                flip = !flip;
                let to = if flip { 8 } else { 4 };
                let report = match mode {
                    "incremental" => engine.rebalance_incremental(to, None),
                    _ => engine.rebalance(to, None),
                }
                .expect("rebalance");
                assert_eq!(report.moved, moved);
                report.moved
            })
        });
        engine.shutdown();
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_throughput, bench_hetero_throughput, bench_store_overhead,
        bench_rebalance, bench_incremental_vs_full
);
criterion_main!(benches);
