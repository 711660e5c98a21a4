//! The scenario runner: compile a [`ScenarioSpec`] into one full-stack
//! engine run and emit a [`ScenarioReport`].
//!
//! The runner drives the real [`rsdc_engine::Engine`] — admission gate,
//! sharded policy workers, autoscale policy, energy meter, WAL — with a
//! per-tick batch derived from the realized workload. All report
//! counters are accumulated **by the runner** from batch outcomes rather
//! than read back from the metrics registry, because kill-point faults
//! restart the registry (it is process state, never journaled) while the
//! report must account for every event across incarnations.

use crate::report::{EnergyTotals, ScenarioReport, WallStats, WorkloadSummary};
use crate::spec::{FaultAction, ScenarioSpec};
use rsdc_core::Cost;
use rsdc_engine::{AdmissionError, Engine, EngineConfig, EngineError, TenantConfig, TenantReport};
use rsdc_hetero::{FleetSpec, HeteroAlgo, ServerType};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::stats::trace_stats;
use rsdc_workloads::traces::Trace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes concurrent runs (and reruns within one process) so
/// durable scenarios never see each other's WAL directories.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// The stock two-type fleet used when a scenario asks for heterogeneous
/// tenants without specifying one.
fn default_fleet() -> FleetSpec {
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

/// Price a scalar load through the scenario cost model.
fn price(model: &CostModel, load: f64) -> Cost {
    Cost::Server {
        lambda: load,
        params: model.server,
        overload: model.overload,
    }
}

/// Per-tenant prepared feed: one load per tick, plus (for adversarially
/// dilated scalar tenants) one explicit pre-dilated cost per tick.
struct Feed {
    id: String,
    hetero: bool,
    loads: Vec<f64>,
    costs: Option<Vec<Cost>>,
}

/// Accumulated run counters (survive engine incarnations).
#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    deferred: u64,
    offered: u64,
    applied: u64,
    throttled: u64,
    failed: u64,
    auto_rebalances: u64,
    forced_rebalances: u64,
    moved: u64,
    recoveries: u64,
    records_replayed: u64,
    events_replayed: u64,
    replay_errors: u64,
    checkpoints: u64,
}

/// Run a scenario to completion. Deterministic in the spec and its seed
/// (modulo the report's wall-clock section).
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    spec.validate()?;
    let model = spec.tenants.cost_model();
    let base = spec.workload.realize(spec.t_len, spec.seed)?;
    if base.is_empty() {
        return Err(format!(
            "scenario {:?}: realized workload is empty",
            spec.name
        ));
    }
    let reps = spec.workload.dilation().map(|(n, w)| n * w).unwrap_or(1);
    let ticks = base.len() * reps;
    let core = spec.tenants.core();

    // Per-core-tenant share of each base slot's load, with the skew
    // storm applied (tenant 0 is the victim).
    let share_of = |tenant: usize, t_base: usize| -> f64 {
        let total = base.loads[t_base];
        // Skew windows are expressed in final ticks.
        let t_final = t_base * reps;
        match &spec.tenants.skew {
            Some(s) if t_final >= s.from && t_final < s.until && core > 1 => {
                if tenant == 0 {
                    total * s.victim_share
                } else {
                    total * (1.0 - s.victim_share) / (core - 1) as f64
                }
            }
            _ => total / core as f64,
        }
    };

    // Prepare core-tenant feeds: scalar tenants first, then hetero.
    let mut feeds: Vec<Feed> = Vec::with_capacity(core);
    for i in 0..core {
        let hetero = i >= spec.tenants.scalar;
        let id = if hetero {
            format!("h{:03}", i - spec.tenants.scalar)
        } else {
            format!("t{i:03}")
        };
        let share_base: Vec<f64> = (0..base.len()).map(|t| share_of(i, t)).collect();
        let loads: Vec<f64> = share_base
            .iter()
            .flat_map(|&l| std::iter::repeat_n(l / reps as f64, reps))
            .collect();
        let costs = if !hetero && reps > 1 {
            // Adversarial dilation: the tenant's cost sequence is its
            // base instance dilated per Section 5.4, fed explicitly.
            let inst = model.instance(spec.tenants.m, &Trace::new(id.clone(), share_base));
            let dilated = {
                let (n, w) = spec.workload.dilation().expect("reps > 1 implies dilation");
                rsdc_adversary::dilation::dilate(&inst, n, w)
            };
            Some(
                (1..=dilated.horizon())
                    .map(|t| dilated.cost_fn(t).clone())
                    .collect(),
            )
        } else {
            None
        };
        feeds.push(Feed {
            id,
            hetero,
            loads,
            costs,
        });
    }

    // Engine + (optionally) durable store.
    let mut cfg = EngineConfig::default();
    if spec.knobs.shards > 0 {
        cfg = EngineConfig::with_shards(spec.knobs.shards);
    }
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("rsdc-scenarios").join(format!(
        "{}-{}-{seq}",
        spec.name,
        std::process::id()
    ));
    let store: Option<Arc<dyn Durability>> = if spec.knobs.durable {
        let _ = std::fs::remove_dir_all(&dir);
        Some(Arc::new(
            FileStore::open(&dir, FileStoreConfig { sync_every: 64 })
                .map_err(|e| format!("open store: {e}"))?,
        ))
    } else {
        None
    };
    let mut engine = match &store {
        Some(store) => Engine::with_store(cfg.clone(), Arc::clone(store))
            .map_err(|e| format!("durable engine: {e}"))?,
        None => Engine::new(cfg.clone()),
    };
    let mut c = Counters::default();
    let shards_initial = engine.shards() as u64;

    // Knobs before any tenant: admission caps must see the admits.
    let apply_knobs = |engine: &Engine| -> Result<(), String> {
        if let Some(limits) = spec.knobs.admission {
            engine.set_limits(limits).map_err(|e| e.to_string())?;
        }
        if let Some(power) = spec.knobs.power.clone() {
            engine.set_power(Some(power)).map_err(|e| e.to_string())?;
        }
        if let Some(autoscale) = spec.knobs.autoscale.clone() {
            engine
                .set_autoscale(Some(autoscale))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    apply_knobs(&engine)?;

    // Admit the core mix; cap rejections are a counted outcome, not an
    // error (the cold-start flood scenario runs over its cap on purpose).
    let fleet = spec.tenants.fleet.clone().unwrap_or_else(default_fleet);
    let mut live: BTreeMap<String, usize> = BTreeMap::new(); // id -> feed index
    for (i, feed) in feeds.iter().enumerate() {
        let tcfg = if feed.hetero {
            TenantConfig::hetero(feed.id.clone(), fleet.clone(), HeteroAlgo::Frontier)
        } else {
            TenantConfig::new(
                feed.id.clone(),
                spec.tenants.m,
                spec.tenants.beta,
                spec.tenants.policy.clone(),
            )
            .with_opt_tracking()
            .with_cost_model(model)
        };
        match engine.admit(tcfg) {
            Ok(()) => {
                c.admitted += 1;
                live.insert(feed.id.clone(), i);
            }
            Err(EngineError::Admission(AdmissionError::Rejected { .. })) => c.rejected += 1,
            Err(EngineError::Admission(AdmissionError::Migrating { .. })) => c.deferred += 1,
            Err(e) => return Err(format!("admit {}: {e}", feed.id)),
        }
    }

    // Surge-wave bookkeeping: ids admitted lazily at `from`, retried
    // through migration windows, evicted (report captured) at `until`.
    let surge = spec.tenants.surge;
    let mut surge_pending: Vec<String> = Vec::new();
    let mut surge_live: Vec<String> = Vec::new();
    let mut finished: Vec<TenantReport> = Vec::new();
    let surge_cfg = |id: &str| {
        TenantConfig::new(
            id,
            spec.tenants.m,
            spec.tenants.beta,
            spec.tenants.policy.clone(),
        )
        .with_opt_tracking()
        .with_cost_model(model)
    };

    for t in 0..ticks {
        // 1. Scheduled faults, in plan order.
        for fault in spec.faults.iter().filter(|f| f.at() == t) {
            match *fault {
                FaultAction::Checkpoint { .. } => {
                    engine
                        .checkpoint()
                        .map_err(|e| format!("checkpoint: {e}"))?;
                    c.checkpoints += 1;
                }
                FaultAction::Rebalance { shards, .. } => {
                    let report = engine
                        .rebalance(shards, None)
                        .map_err(|e| format!("rebalance: {e}"))?;
                    c.forced_rebalances += 1;
                    c.moved += report.moved as u64;
                }
                FaultAction::Kill { .. } => {
                    let store = store.as_ref().expect("validated: kill implies durable");
                    drop(engine);
                    let (recovered, report) = Engine::recover(cfg.clone(), Arc::clone(store))
                        .map_err(|e| format!("recover: {e}"))?;
                    engine = recovered;
                    c.recoveries += 1;
                    c.records_replayed += report.records_replayed as u64;
                    c.events_replayed += report.events_replayed as u64;
                    c.replay_errors += report.replay_errors as u64;
                    // Admission limits, the energy meter and the
                    // autoscale policy are process state (never
                    // journaled): re-arm them, as an operator would.
                    apply_knobs(&engine)?;
                }
            }
        }

        // 2. Surge admissions (initial wave at `from`, plus deferred
        // retries), and the eviction edge at `until`.
        if let Some(s) = surge {
            if t == s.from {
                surge_pending.extend((0..s.tenants).map(|i| format!("s{i:03}")));
            }
            if t >= s.from && t < s.until && !surge_pending.is_empty() {
                let mut still_pending = Vec::new();
                for id in surge_pending.drain(..) {
                    match engine.admit(surge_cfg(&id)) {
                        Ok(()) => {
                            c.admitted += 1;
                            surge_live.push(id);
                        }
                        Err(EngineError::Admission(AdmissionError::Rejected { .. })) => {
                            c.rejected += 1;
                        }
                        Err(EngineError::Admission(AdmissionError::Migrating { .. })) => {
                            c.deferred += 1;
                            still_pending.push(id);
                        }
                        Err(e) => return Err(format!("admit {id}: {e}")),
                    }
                }
                surge_pending = still_pending;
            }
            if t == s.until {
                surge_pending.clear();
                for id in surge_live.drain(..) {
                    let report = engine.evict(&id).map_err(|e| format!("evict {id}: {e}"))?;
                    finished.push(report);
                }
            }
        }

        // 3. The tick's batch: every live core tenant plus active surge
        // tenants (each surge tenant carries one core share's load).
        let base_slot = t / reps;
        let mut batch: Vec<(String, Cost, Option<f64>)> = Vec::new();
        for (id, &i) in &live {
            let feed = &feeds[i];
            let load = feed.loads[t];
            let cost = match &feed.costs {
                Some(costs) => costs[t].clone(),
                None if feed.hetero => Cost::Zero,
                None => price(&model, load),
            };
            batch.push((id.clone(), cost, Some(load)));
        }
        let surge_load = base.loads[base_slot] / (core as f64 * reps as f64);
        for id in &surge_live {
            batch.push((id.clone(), price(&model, surge_load), Some(surge_load)));
        }
        if !batch.is_empty() {
            c.offered += batch.len() as u64;
            let outcomes = engine
                .step_batch_loads(batch)
                .map_err(|e| format!("tick {t}: {e}"))?;
            for outcome in outcomes {
                match &outcome.error {
                    None => c.applied += 1,
                    Some(msg) if msg.contains("throttled") => c.throttled += 1,
                    Some(_) => c.failed += 1,
                }
            }
        }

        // 4. Let the autoscale policy act on what it just observed.
        if spec.knobs.autoscale.is_some() {
            if let Some(report) = engine
                .maybe_autoscale()
                .map_err(|e| format!("autoscale: {e}"))?
            {
                c.auto_rebalances += 1;
                c.moved += report.moved as u64;
            }
        }
    }

    // Flush lookahead tails, then gather final tenant reports (sorted by
    // id so float summation order is deterministic).
    let mut ids = engine.tenant_ids().map_err(|e| e.to_string())?;
    ids.sort();
    for id in &ids {
        engine.finish(id).map_err(|e| format!("finish {id}: {e}"))?;
    }
    finished.extend(engine.report_all().map_err(|e| e.to_string())?);
    finished.sort_by(|a, b| a.id.cmp(&b.id));

    let mut online_cost = 0.0;
    let mut online_tracked = 0.0;
    let mut opt_cost = 0.0;
    let mut tracked = false;
    for r in &finished {
        let total = r.breakdown.total();
        online_cost += total;
        if let Some(opt) = r.opt_cost {
            online_tracked += total;
            opt_cost += opt;
            tracked = true;
        }
    }
    let ratio = (tracked && opt_cost > 0.0).then(|| online_tracked / opt_cost);

    let energy = engine.energy_status().map(|s| EnergyTotals {
        joules: s.joules,
        cost: s.cost,
    });

    // Wall-clock batch latencies from the (last incarnation's) registry.
    let mut wall = WallStats::default();
    for m in engine.obs().registry().snapshot() {
        if m.id.name == "engine_batch_ns" {
            if let rsdc_obs::MetricValue::Histogram(h) = m.value {
                wall.p50_batch_ns = wall.p50_batch_ns.max(h.p50);
                wall.p99_batch_ns = wall.p99_batch_ns.max(h.p99);
                wall.max_batch_ns = wall.max_batch_ns.max(h.max);
            }
        }
    }

    let shards_final = engine.shards() as u64;
    engine.shutdown();
    if store.is_some() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The realized total workload, dilation expansion included.
    let realized = if reps > 1 {
        Trace::new(
            base.label.clone(),
            base.loads
                .iter()
                .flat_map(|&l| std::iter::repeat_n(l / reps as f64, reps))
                .collect(),
        )
    } else {
        base.clone()
    };

    Ok(ScenarioReport {
        scenario: spec.name.clone(),
        seed: spec.seed,
        ticks: ticks as u64,
        tenants_admitted: c.admitted,
        tenants_rejected: c.rejected,
        tenants_deferred: c.deferred,
        events_offered: c.offered,
        events_applied: c.applied,
        events_throttled: c.throttled,
        events_failed: c.failed,
        events_lost: c.offered - c.applied - c.throttled - c.failed,
        online_cost,
        opt_cost,
        online_tracked_cost: online_tracked,
        ratio,
        shards_initial,
        shards_final,
        auto_rebalances: c.auto_rebalances,
        forced_rebalances: c.forced_rebalances,
        tenants_moved: c.moved,
        recoveries: c.recoveries,
        records_replayed: c.records_replayed,
        events_replayed: c.events_replayed,
        replay_errors: c.replay_errors,
        checkpoints: c.checkpoints,
        energy,
        workload: WorkloadSummary {
            label: realized.label.clone(),
            stats: trace_stats(&realized),
        },
        wall,
    })
}
