//! # rsdc-engine — sharded multi-tenant streaming autoscaler engine
//!
//! Every other entry point in this workspace is batch-shaped: it consumes a
//! complete [`rsdc_core::Instance`] and returns a schedule. This crate is
//! the *service* shape the paper's algorithms are meant for: a persistent
//! engine hosting thousands of independent online-policy instances
//! ("tenants"), each reacting to an unbounded stream of per-slot cost
//! events.
//!
//! ## Architecture
//!
//! ```text
//!                 admit / step / snapshot / report / rebalance
//!   caller ──────────────► Engine handle
//!                            │ admission gate (caps, rate limits)
//!                            │ consistent-hash ring (vnodes)
//!              ┌─────────────┼─────────────┐
//!              ▼             ▼             ▼
//!          shard 0       shard 1  ...  shard N-1     (one lock + one
//!                                                     batch worker each)
//!          tenants:      tenants:      tenants:
//!          policy +      policy +      policy +
//!          accounting    accounting    accounting
//! ```
//!
//! * **Tenants** ([`TenantConfig`], [`tenant::Tenant`]) pair one
//!   `m`/`beta` configuration with one policy ([`PolicySpec`]): LCP,
//!   FLCP-rounded, half-step-rounded, memoryless-rounded, lookahead LCP,
//!   or a baseline. Each policy is the online algorithm itself, stepped
//!   through the object-safe, resumable
//!   [`rsdc_online::streaming::StreamingPolicy`] trait.
//! * **Heterogeneous tenants** ([`TenantConfig::hetero`],
//!   [`PolicySpec::Hetero`]) run mixed machine-class fleets: a
//!   [`FleetSpec`] (per-class count/beta/energy/capacity) plus an
//!   [`rsdc_hetero::HeteroStream`] whose incremental state is the lattice
//!   DP frontier. They ingest per-slot offered loads, commit
//!   configuration *vectors* (reported as `configs` beside the
//!   total-machine scalar `states`), and participate in snapshots,
//!   checkpoints and recovery with the same bit-exactness as scalar
//!   tenants.
//! * **Shards** ([`shard`]) are plain state, one mutex each: control
//!   calls run on the caller's thread under the engine's one handle lock
//!   and then the owning shard's lock, and step batches run in parallel
//!   on one persistent worker thread per shard, handed over through a
//!   handoff created at spawn. Tenants are partitioned by a
//!   consistent-hash ring with virtual nodes ([`ring`]) so all per-tenant
//!   operations are serialized and deterministic — and so changing the
//!   shard count moves only a minority of tenants.
//! * **Control plane** ([`admission`], [`Engine::rebalance`],
//!   [`topology`]): an admission gate
//!   in front of the shards enforces tenant caps and per-tenant
//!   token-bucket rate limits with typed
//!   [`Rejected`](AdmissionError::Rejected)/[`Throttled`](AdmissionError::Throttled)
//!   errors (refused traffic never reaches a WAL), and live rebalancing
//!   migrates tenants bit-exactly onto a new ring topology — one
//!   migration routine that moves exactly the ring-diff tenant set and
//!   leaves every surviving shard in place — journaled and
//!   checkpoint-fenced so a kill mid-migration recovers exactly. The
//!   [`topology`] module closes the loop: a [`TopologyPolicy`] applies
//!   the paper's own LCP hysteresis to the shard count, auto-triggering
//!   migrations only when accumulated load-imbalance cost provably
//!   exceeds the migration's switching cost.
//! * **Accounting** reuses [`rsdc_core::analysis`] (cost breakdowns,
//!   schedule statistics with identical phase semantics); shard-level
//!   load aggregates are fixed-size running totals ([`ShardTotals`]) and
//!   the committed machine count is a running sum, all maintained in O(1)
//!   per event — a batch costs O(batch) work, not O(fleet).
//! * **Snapshots** ([`tenant::TenantSnapshot`]) capture the *complete*
//!   tenant state — policy value functions, fractional states, rounder RNG
//!   words, pending slots and the running accounting — so a tenant
//!   restored on a fresh engine continues **bit-identically**, a property
//!   the cross-crate differential tests enforce.
//! * **Durability** ([`journal`], `rsdc-store`): shards journal every
//!   state-mutating operation to a per-shard write-ahead log *before*
//!   applying it, [`Engine::checkpoint`] captures full engine state and
//!   truncates the log, and [`Engine::recover`] rebuilds the exact
//!   pre-crash engine from the newest checkpoint plus the WAL tail —
//!   byte-identical reports, enforced by randomized kill-point tests.
//! * **Wire format** ([`wire`]) is JSON-lines: `admit`/`step`/`finish`/
//!   `snapshot`/`restore`/`report`/`stats`/`checkpoint`/`recover`/
//!   `wal_stats`/`rebalance`/`limits` records, with ingestion helpers from
//!   [`rsdc_workloads`] traces and per-line error attribution. The `rsdc engine` CLI
//!   subcommand and the `engine_stream` example speak it end to end.
//!
//! ## Example
//!
//! ```
//! use rsdc_core::Cost;
//! use rsdc_engine::{Engine, EngineConfig, PolicySpec, TenantConfig};
//!
//! let engine = Engine::new(EngineConfig::with_shards(2));
//! engine.admit(TenantConfig::new("web", 8, 6.0, PolicySpec::Lcp)).unwrap();
//! for t in 0..48 {
//!     let load = 4.0 + 3.0 * ((t as f64) * 0.3).sin();
//!     let states = engine
//!         .step("web", Cost::abs(1.0, load))
//!         .unwrap();
//!     assert_eq!(states.len(), 1);
//! }
//! let report = engine.report("web").unwrap();
//! assert_eq!(report.committed, 48);
//! assert!(report.breakdown.total() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod binwire;
pub mod engine;
mod framed;
pub mod intern;
pub mod journal;
pub mod obs;
mod power;
pub mod ring;
pub mod serve;
pub mod shard;
pub mod statelist;
pub mod tenant;
pub mod topology;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionError};
pub use engine::{
    CheckpointReport, Engine, EngineConfig, RebalanceReport, RecoveryReport, StepEvent,
    DEFAULT_TRACE_CAPACITY,
};
pub use intern::UNKNOWN_KEY;
pub use obs::EngineObs;
pub use ring::{HashRing, RingSpec, DEFAULT_VNODES, MAX_SHARDS, MAX_VNODES};
pub use rsdc_hetero::{FleetSpec, HeteroAlgo};
pub use rsdc_power::{EnergyStatus, PowerConfig, PowerSpec, PriceSchedule};
pub use serve::{ServeConfig, ServeSummary, Server, WireMode};
pub use shard::{ShardMeta, ShardStats, ShardTotals, StepOutcome};
pub use statelist::StateList;
pub use tenant::{PolicySpec, TenantConfig, TenantEnergy, TenantReport, TenantSnapshot};
pub use topology::{TopologyConfig, TopologyPolicy, TopologyStatus};

/// Errors surfaced by [`Engine`] operations.
#[derive(Debug)]
pub enum EngineError {
    /// No tenant with this id on its shard.
    UnknownTenant(String),
    /// A tenant with this id already exists.
    DuplicateTenant(String),
    /// The shard is unusable: its batch worker thread is gone, or its
    /// lock was poisoned by a panic mid-operation.
    ShardDown(usize),
    /// Policy-level failure (invalid snapshot, bad parameters).
    Policy(rsdc_core::Error),
    /// Durability-layer failure (WAL append, checkpoint, recovery scan).
    Store(String),
    /// Control-plane refusal: the tenant cap rejected an admit, or a
    /// per-tenant rate limit throttled a step event.
    Admission(AdmissionError),
}

impl EngineError {
    /// Wrap a store error.
    pub fn from_store(e: rsdc_store::StoreError) -> EngineError {
        EngineError::Store(e.to_string())
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            EngineError::DuplicateTenant(id) => write!(f, "tenant {id:?} already admitted"),
            EngineError::ShardDown(i) => write!(f, "shard {i} is down"),
            EngineError::Policy(e) => write!(f, "policy error: {e}"),
            EngineError::Store(m) => write!(f, "store error: {m}"),
            // Rendered without a prefix: the admission renderings double as
            // the wire's per-event error messages, which classify back to
            // this variant by exact match.
            EngineError::Admission(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<rsdc_core::Error> for EngineError {
    fn from(e: rsdc_core::Error) -> Self {
        EngineError::Policy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdc_core::Cost;

    fn costs(n: usize) -> Vec<Cost> {
        (0..n)
            .map(|t| Cost::abs(0.5 + (t % 3) as f64, ((t * 5 + 1) % 8) as f64))
            .collect()
    }

    #[test]
    fn admit_step_report_evict() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .admit(TenantConfig::new("a", 8, 2.0, PolicySpec::Lcp))
            .unwrap();
        assert!(matches!(
            engine.admit(TenantConfig::new("a", 8, 2.0, PolicySpec::Lcp)),
            Err(EngineError::DuplicateTenant(_))
        ));
        for f in costs(20) {
            engine.step("a", f).unwrap();
        }
        let report = engine.report("a").unwrap();
        assert_eq!(report.events, 20);
        assert_eq!(report.committed, 20);
        let final_report = engine.evict("a").unwrap();
        assert_eq!(final_report.committed, 20);
        assert!(matches!(
            engine.report("a"),
            Err(EngineError::UnknownTenant(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn results_are_shard_count_invariant() {
        let fs = costs(40);
        let mut per_shards = Vec::new();
        for shards in [1usize, 3] {
            let engine = Engine::new(EngineConfig::with_shards(shards));
            for i in 0..10 {
                engine
                    .admit(TenantConfig::new(
                        format!("t{i}"),
                        6,
                        1.5,
                        PolicySpec::FlcpRounded { k: 2, seed: i },
                    ))
                    .unwrap();
            }
            for f in &fs {
                let batch: Vec<(String, Cost)> =
                    (0..10).map(|i| (format!("t{i}"), f.clone())).collect();
                engine.step_batch(batch).unwrap();
            }
            let reports = engine.report_all().unwrap();
            per_shards.push(
                reports
                    .into_iter()
                    .map(|r| {
                        (
                            r.id,
                            r.breakdown.operating,
                            r.breakdown.switching,
                            r.last_state,
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(per_shards[0], per_shards[1]);
    }

    #[test]
    fn batch_outcomes_preserve_submission_order() {
        let engine = Engine::new(EngineConfig::with_shards(4));
        for i in 0..12 {
            engine
                .admit(TenantConfig::new(format!("t{i}"), 4, 1.0, PolicySpec::Lcp))
                .unwrap();
        }
        let batch: Vec<(String, Cost)> = (0..12)
            .map(|i| (format!("t{i}"), Cost::abs(1.0, (i % 5) as f64)))
            .collect();
        let outcomes = engine.step_batch(batch).unwrap();
        let ids: Vec<String> = outcomes.iter().map(|o| o.id.to_string()).collect();
        let expected: Vec<String> = (0..12).map(|i| format!("t{i}")).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn unknown_tenant_in_batch_does_not_poison_other_events() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .admit(TenantConfig::new("real", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        let outcomes = engine
            .step_batch(vec![
                ("real".to_string(), Cost::abs(10.0, 2.0)),
                ("ghost".to_string(), Cost::abs(10.0, 2.0)),
                ("real".to_string(), Cost::abs(10.0, 3.0)),
            ])
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].error.is_none());
        assert_eq!(outcomes[0].states, vec![2]);
        assert!(outcomes[1].error.as_deref().unwrap().contains("ghost"));
        assert!(outcomes[2].error.is_none());
        assert_eq!(outcomes[2].states, vec![3]);
        // The single-event path still surfaces the error as Err.
        assert!(matches!(
            engine.step("ghost", Cost::Zero),
            Err(EngineError::UnknownTenant(_))
        ));
        assert_eq!(engine.report("real").unwrap().committed, 2);
    }

    #[test]
    fn incremental_rebalance_moves_exactly_the_ring_diff() {
        use crate::ring::{moved_ids, HashRing};
        let mut engine = Engine::new(EngineConfig::with_topology(2, 32));
        let ids: Vec<String> = (0..40).map(|i| format!("t{i}")).collect();
        for id in &ids {
            engine
                .admit(TenantConfig::new(id.clone(), 6, 1.5, PolicySpec::Lcp))
                .unwrap();
        }
        for f in costs(10) {
            let batch: Vec<(String, Cost)> = ids.iter().map(|id| (id.clone(), f.clone())).collect();
            engine.step_batch(batch).unwrap();
        }
        // The expected diff, computed independently of the engine.
        let old = HashRing::new(RingSpec::new(2, 32));
        let new = HashRing::new(RingSpec::new(5, 32));
        let mut want = moved_ids(&old, &new, ids.iter().map(|s| s.as_str()));
        want.sort_unstable();

        let report = engine.rebalance(5, None).unwrap();
        assert_eq!(report.shards, 5);
        assert_eq!(report.moved_ids, want, "exactly the diff, nothing else");
        assert_eq!(report.moved, want.len());
        assert_eq!(engine.shards(), 5);
        assert_eq!(engine.live_tenants().unwrap(), ids.len());

        // The migrated engine serves the whole fleet and matches a static
        // single-shard reference bit-exactly.
        let reference = Engine::new(EngineConfig::with_shards(1));
        for id in &ids {
            reference
                .admit(TenantConfig::new(id.clone(), 6, 1.5, PolicySpec::Lcp))
                .unwrap();
        }
        for f in costs(10) {
            let batch: Vec<(String, Cost)> = ids.iter().map(|id| (id.clone(), f.clone())).collect();
            reference.step_batch(batch).unwrap();
        }
        for f in costs(6) {
            let batch: Vec<(String, Cost)> = ids.iter().map(|id| (id.clone(), f.clone())).collect();
            engine.step_batch(batch.clone()).unwrap();
            reference.step_batch(batch).unwrap();
        }
        let texts = |e: &Engine| -> Vec<String> {
            e.report_all()
                .unwrap()
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect()
        };
        assert_eq!(texts(&engine), texts(&reference));

        // Shrinking back also moves only the (reverse) diff, and fleet
        // totals survive the retired shards.
        let before: u64 = engine.shard_stats().unwrap().iter().map(|s| s.events).sum();
        let report = engine.rebalance(2, None).unwrap();
        assert_eq!(engine.shards(), 2);
        let mut back = moved_ids(&new, &old, ids.iter().map(|s| s.as_str()));
        back.sort_unstable();
        assert_eq!(report.moved_ids, back);
        let after: u64 = engine.shard_stats().unwrap().iter().map(|s| s.events).sum();
        assert_eq!(before, after, "retired shards' aggregates merged, not lost");
        engine.shutdown();
    }

    #[test]
    fn autoscale_policy_grows_the_engine_under_load() {
        let mut engine = Engine::new(EngineConfig::with_shards(1));
        let mut cfg = TopologyConfig::new(1, 4);
        cfg.switch_cost = 4.0;
        cfg.cooldown = 0;
        engine.set_autoscale(Some(cfg)).unwrap();
        assert_eq!(engine.autoscale_status().unwrap().shards, 1);
        let ids: Vec<String> = (0..30).map(|i| format!("t{i}")).collect();
        for id in &ids {
            engine
                .admit(TenantConfig::new(id.clone(), 4, 1.0, PolicySpec::Lcp))
                .unwrap();
        }
        // 30 events per tick against f(s) = 30/s + s: the plan should
        // leave 1 shard within a few ticks.
        let mut applied = Vec::new();
        for t in 0..30 {
            let batch: Vec<(String, Cost)> = ids
                .iter()
                .map(|id| (id.clone(), Cost::abs(1.0, (t % 3) as f64)))
                .collect();
            engine.step_batch(batch).unwrap();
            if let Some(report) = engine.maybe_autoscale().unwrap() {
                applied.push(report.shards);
            }
        }
        assert!(!applied.is_empty(), "sustained load must trigger a grow");
        assert!(engine.shards() > 1);
        let status = engine.autoscale_status().unwrap();
        assert_eq!(status.shards, engine.shards());
        assert!(status.migrations as usize >= applied.len());
        assert!(status.imbalance_cost > 0.0);
        // The migration window opened: a brand-new admit is deferred.
        assert!(
            matches!(
                engine.admit(TenantConfig::new("late", 4, 1.0, PolicySpec::Lcp)),
                Err(EngineError::Admission(AdmissionError::Migrating { .. }))
            ) || {
                // ...unless the cooldown-0 window closed immediately, which a
                // zero-length window does by design.
                engine.evict("late").is_ok()
            }
        );
        // Disabling stops observations and clears status.
        engine.set_autoscale(None).unwrap();
        assert!(engine.autoscale_status().is_none());
        engine.shutdown();
    }

    #[test]
    fn manual_rebalances_resync_the_autoscale_policy() {
        let mut engine = Engine::new(EngineConfig::with_shards(1));
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.cooldown = 4;
        engine.set_autoscale(Some(cfg)).unwrap();
        engine
            .admit(TenantConfig::new("a", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        // Operator-requested changes must be visible to the policy...
        engine.rebalance(4, None).unwrap();
        assert_eq!(engine.autoscale_status().unwrap().shards, 4);
        engine.rebalance(3, None).unwrap();
        let status = engine.autoscale_status().unwrap();
        assert_eq!(status.shards, 3);
        // ...without being charged to the policy's own accounting.
        assert_eq!(status.migrations, 0);
        assert_eq!(status.switch_cost_accrued, 0.0);
        // And the policy must not instantly fight the operator: the
        // manual change restarted the cooldown clock, so nothing is
        // pending even though the plan (1 shard — no load yet) disagrees.
        assert!(engine.maybe_autoscale().unwrap().is_none());
        assert_eq!(engine.shards(), 3);
        engine.shutdown();
    }

    #[test]
    fn shard_stats_aggregate_load_metrics() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .admit(TenantConfig::new("a", 8, 2.0, PolicySpec::Lcp))
            .unwrap();
        for t in 0..30 {
            let load = 2.0 + (t % 4) as f64;
            engine
                .step_batch_loads(vec![("a".to_string(), Cost::abs(2.0, load), Some(load))])
                .unwrap();
        }
        let stats = engine.shard_stats().unwrap();
        assert_eq!(stats.len(), 2);
        let total_events: u64 = stats.iter().map(|s| s.events).sum();
        assert_eq!(total_events, 30);
        let slots: u64 = stats.iter().map(|s| s.metric_slots).sum();
        assert_eq!(slots, 30);
        assert!(stats.iter().map(|s| s.total_energy).sum::<f64>() > 0.0);
        engine.shutdown();
    }

    #[test]
    fn crash_recovery_matches_uninterrupted_run() {
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-engine-tests")
            .join(format!("recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = costs(40);
        let policies = || {
            [
                PolicySpec::Lcp,
                PolicySpec::FlcpRounded { k: 2, seed: 5 },
                PolicySpec::Lookahead { window: 3 },
            ]
        };
        let feed = |engine: &Engine, slice: &[Cost]| {
            for f in slice {
                let batch = (0..3)
                    .map(|i| (format!("t{i}"), f.clone(), Some(1.5 + i as f64)))
                    .collect();
                engine.step_batch_loads(batch).unwrap();
            }
        };

        // Uninterrupted reference (no store).
        let reference = Engine::new(EngineConfig::with_shards(2));
        for (i, policy) in policies().into_iter().enumerate() {
            reference
                .admit(TenantConfig::new(format!("t{i}"), 6, 2.0, policy).with_opt_tracking())
                .unwrap();
        }
        feed(&reference, &fs);
        let want = reference.report_all().unwrap();

        // Durable run, killed mid-stream (dropped without a checkpoint
        // covering the last 12 slots).
        let store: Arc<dyn rsdc_store::Durability> =
            Arc::new(FileStore::open(&dir, FileStoreConfig { sync_every: 8 }).unwrap());
        let durable = Engine::with_store(EngineConfig::with_shards(2), store.clone()).unwrap();
        for (i, policy) in policies().into_iter().enumerate() {
            durable
                .admit(TenantConfig::new(format!("t{i}"), 6, 2.0, policy).with_opt_tracking())
                .unwrap();
        }
        feed(&durable, &fs[..17]);
        durable.checkpoint().unwrap();
        feed(&durable, &fs[17..29]);
        drop(durable);

        let (recovered, report) =
            Engine::recover(EngineConfig::with_shards(2), store.clone()).unwrap();
        assert_eq!(report.tenants_restored, 3);
        // 12 post-checkpoint slots, one WAL record per (slot, shard touched).
        assert!((12..=24).contains(&report.records_replayed));
        assert_eq!(report.events_replayed, 36);
        assert_eq!(report.replay_errors, 0);
        assert!(report.shard_meta_restored);
        feed(&recovered, &fs[29..]);
        let got = recovered.report_all().unwrap();
        let to_text = |rs: &[TenantReport]| -> Vec<String> {
            rs.iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect()
        };
        assert_eq!(to_text(&got), to_text(&want), "per-tenant reports");
        // Shard-level stats survived the crash exactly too.
        assert_eq!(
            serde_json::to_string(&recovered.shard_stats().unwrap()).unwrap(),
            serde_json::to_string(&reference.shard_stats().unwrap()).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_store_refuses_dirty_store() {
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-engine-tests")
            .join(format!("dirty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn rsdc_store::Durability> =
            Arc::new(FileStore::open(&dir, FileStoreConfig::default()).unwrap());
        let engine = Engine::with_store(EngineConfig::with_shards(1), store.clone()).unwrap();
        engine
            .admit(TenantConfig::new("a", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        drop(engine);
        assert!(matches!(
            Engine::with_store(EngineConfig::with_shards(1), store.clone()),
            Err(EngineError::Store(_))
        ));
        // Recovery is the sanctioned path onto existing state.
        let (engine, report) = Engine::recover(EngineConfig::with_shards(1), store).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(engine.tenant_ids().unwrap(), vec!["a".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fleet() -> FleetSpec {
        FleetSpec::new(vec![
            rsdc_hetero::ServerType {
                count: 3,
                beta: 1.0,
                energy: 1.0,
                capacity: 1.0,
            },
            rsdc_hetero::ServerType {
                count: 2,
                beta: 2.5,
                energy: 1.4,
                capacity: 2.0,
            },
        ])
    }

    #[test]
    fn hetero_tenant_streams_vector_configs() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .admit(TenantConfig::hetero("h", fleet(), HeteroAlgo::Frontier).with_opt_tracking())
            .unwrap();
        let loads = [1.0, 4.5, 2.0, 5.5, 0.5, 3.0];
        let mut configs = Vec::new();
        for &l in &loads {
            let outcome = engine.step_load("h", l).unwrap();
            assert_eq!(outcome.states.len(), 1);
            let cfgs = outcome.configs.expect("hetero outcomes carry configs");
            assert_eq!(cfgs.len(), 1);
            assert_eq!(
                cfgs[0].iter().sum::<u32>(),
                outcome.states[0],
                "scalar state is the total machines"
            );
            configs.extend(cfgs);
        }
        let report = engine.report("h").unwrap();
        assert_eq!(report.events, loads.len() as u64);
        assert_eq!(report.committed, loads.len() as u64);
        assert_eq!(
            report.last_config.as_deref(),
            Some(&configs.last().unwrap()[..])
        );
        assert!(report.breakdown.total() > 0.0);
        let ratio = report.ratio.expect("tracked");
        assert!(ratio >= 1.0 - 1e-9, "{ratio}");

        // A step without a load is a per-event policy error, not a panic
        // (and not a bogus unknown-tenant).
        assert!(matches!(
            engine.step("h", Cost::abs(1.0, 2.0)),
            Err(EngineError::Policy(_))
        ));
        assert!(matches!(
            engine.step_load("ghost", 1.0),
            Err(EngineError::UnknownTenant(_))
        ));
        let outcomes = engine
            .step_batch(vec![("h".to_string(), Cost::abs(1.0, 2.0))])
            .unwrap();
        assert!(outcomes[0].error.as_deref().unwrap().contains("load"));
        // The failed event changed nothing.
        assert_eq!(engine.report("h").unwrap().events, loads.len() as u64);
    }

    #[test]
    fn hetero_admit_rejects_degenerate_fleets() {
        let engine = Engine::new(EngineConfig::with_shards(1));
        let mut bad = fleet();
        bad.types[0].count = 0;
        assert!(matches!(
            engine.admit(TenantConfig::hetero("h", bad, HeteroAlgo::Frontier)),
            Err(EngineError::Policy(_))
        ));
    }

    #[test]
    fn hetero_snapshot_restore_across_engines() {
        let loads: Vec<f64> = (0..30).map(|t| 0.5 + ((t * 3 + 1) % 6) as f64).collect();
        for algo in [HeteroAlgo::Frontier, HeteroAlgo::Greedy] {
            let reference = Engine::new(EngineConfig::with_shards(2));
            reference
                .admit(TenantConfig::hetero("h", fleet(), algo).with_opt_tracking())
                .unwrap();
            let mut want = Vec::new();
            for &l in &loads {
                want.extend(reference.step_load("h", l).unwrap().configs.unwrap());
            }
            let want_report = reference.report("h").unwrap();

            let first = Engine::new(EngineConfig::with_shards(1));
            first
                .admit(TenantConfig::hetero("h", fleet(), algo).with_opt_tracking())
                .unwrap();
            let mut got = Vec::new();
            for &l in &loads[..11] {
                got.extend(first.step_load("h", l).unwrap().configs.unwrap());
            }
            let snapshot = first.snapshot("h").unwrap();
            first.shutdown();

            let second = Engine::new(EngineConfig::with_shards(3));
            second.restore(snapshot).unwrap();
            for &l in &loads[11..] {
                got.extend(second.step_load("h", l).unwrap().configs.unwrap());
            }
            assert_eq!(got, want, "{algo:?}");
            let got_report = second.report("h").unwrap();
            assert_eq!(
                serde_json::to_string(&got_report).unwrap(),
                serde_json::to_string(&want_report).unwrap(),
                "{algo:?}: restored report must be byte-identical"
            );
        }
    }

    #[test]
    fn rebalance_preserves_every_tenant_bit_exactly() {
        let fs = costs(60);
        let mut fleet_cfg: Vec<TenantConfig> = (0..12)
            .map(|i| {
                TenantConfig::new(
                    format!("t{i}"),
                    6,
                    1.5,
                    PolicySpec::FlcpRounded { k: 2, seed: i },
                )
                .with_opt_tracking()
            })
            .collect();
        fleet_cfg.push(TenantConfig::hetero("h", fleet(), HeteroAlgo::Frontier));
        let feed = |engine: &Engine, slice: &[Cost]| {
            for f in slice {
                let batch = fleet_cfg
                    .iter()
                    .map(|c| (c.id.clone(), f.clone(), Some(2.0)))
                    .collect();
                engine.step_batch_loads(batch).unwrap();
            }
        };
        // Static single-shard reference.
        let reference = Engine::new(EngineConfig::with_shards(1));
        for cfg in &fleet_cfg {
            reference.admit(cfg.clone()).unwrap();
        }
        feed(&reference, &fs);
        let want = reference.report_all().unwrap();

        // Rebalanced run: 1 → 3 → 2 shards mid-stream, vnode change too.
        let mut engine = Engine::new(EngineConfig::with_shards(1));
        for cfg in &fleet_cfg {
            engine.admit(cfg.clone()).unwrap();
        }
        feed(&engine, &fs[..20]);
        let r = engine.rebalance(3, None).unwrap();
        assert_eq!(r.shards, 3);
        assert!(r.moved > 0, "growing 1→3 must move someone");
        assert!(!r.durable, "no store on this engine");
        feed(&engine, &fs[20..41]);
        engine.rebalance(2, Some(16)).unwrap();
        assert_eq!(engine.ring_spec(), ring::RingSpec::new(2, 16));
        feed(&engine, &fs[41..]);
        let got = engine.report_all().unwrap();
        let to_text = |rs: &[TenantReport]| -> Vec<String> {
            rs.iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect()
        };
        assert_eq!(to_text(&got), to_text(&want));
        // Fleet totals survived both migrations (merged onto shard 0).
        let events: u64 = engine.shard_stats().unwrap().iter().map(|s| s.events).sum();
        assert_eq!(events, 60 * fleet_cfg.len() as u64);
    }

    #[test]
    fn tenant_cap_rejects_admit_and_new_restores() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .set_limits(AdmissionConfig {
                max_tenants: 2,
                ..AdmissionConfig::default()
            })
            .unwrap();
        engine
            .admit(TenantConfig::new("a", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        engine
            .admit(TenantConfig::new("b", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        assert!(matches!(
            engine.admit(TenantConfig::new("c", 4, 1.0, PolicySpec::Lcp)),
            Err(EngineError::Admission(AdmissionError::Rejected { .. }))
        ));
        // Restoring an existing tenant is a replacement, not an admit…
        let snap = engine.snapshot("a").unwrap();
        engine.restore(snap.clone()).unwrap();
        // …but restoring a new id counts against the cap.
        let mut new_snap = snap;
        new_snap.config.id = "d".to_string();
        assert!(matches!(
            engine.restore(new_snap),
            Err(EngineError::Admission(AdmissionError::Rejected { .. }))
        ));
        // Evicting frees a slot.
        engine.evict("b").unwrap();
        engine
            .admit(TenantConfig::new("c", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        // Invalid limits are refused.
        assert!(engine
            .set_limits(AdmissionConfig {
                rate: f64::INFINITY,
                ..AdmissionConfig::default()
            })
            .is_err());
    }

    #[test]
    fn rate_limit_throttles_with_typed_per_event_errors() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .set_limits(AdmissionConfig {
                max_tenants: 0,
                rate: 0.5,
                burst: 2.0,
            })
            .unwrap();
        engine
            .admit(TenantConfig::new("a", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        engine
            .admit(TenantConfig::new("b", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        // One batch (= one tick) with 3 events for "a" and 1 for "b": the
        // burst of 2 passes, a's third event throttles, b is untouched.
        let outcomes = engine
            .step_batch(vec![
                ("a".to_string(), Cost::abs(1.0, 2.0)),
                ("a".to_string(), Cost::abs(1.0, 2.0)),
                ("a".to_string(), Cost::abs(1.0, 3.0)),
                ("b".to_string(), Cost::abs(1.0, 1.0)),
            ])
            .unwrap();
        assert!(outcomes[0].error.is_none());
        assert!(outcomes[1].error.is_none());
        assert!(outcomes[2].error.as_deref().unwrap().contains("throttled"));
        assert!(outcomes[3].error.is_none());
        // The throttled event changed nothing.
        assert_eq!(engine.report("a").unwrap().events, 2);
        // The single-event path surfaces the typed error (the call's own
        // tick refills only half a token at rate 0.5).
        assert!(matches!(
            engine.step("a", Cost::abs(1.0, 2.0)),
            Err(EngineError::Admission(AdmissionError::Throttled { .. }))
        ));
        // Ticks refill: after one more batch (tick), "a" can step again.
        engine.step("b", Cost::abs(1.0, 1.0)).unwrap();
        engine.step("a", Cost::abs(1.0, 2.0)).unwrap();
        assert_eq!(engine.report("a").unwrap().events, 3);
        // Disabling limits reopens the gate.
        engine.set_limits(AdmissionConfig::default()).unwrap();
        for _ in 0..8 {
            engine.step("a", Cost::abs(1.0, 2.0)).unwrap();
        }
    }

    #[test]
    fn throttled_events_never_reach_the_wal() {
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-engine-tests")
            .join(format!("throttle-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn rsdc_store::Durability> =
            Arc::new(FileStore::open(&dir, FileStoreConfig::default()).unwrap());
        let engine = Engine::with_store(EngineConfig::with_shards(1), store.clone()).unwrap();
        engine
            .set_limits(AdmissionConfig {
                max_tenants: 0,
                rate: 1.0,
                burst: 1.0,
            })
            .unwrap();
        engine
            .admit(TenantConfig::new("a", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        // 3 events in one batch: 1 admitted, 2 throttled.
        let outcomes = engine
            .step_batch(vec![
                ("a".to_string(), Cost::abs(1.0, 2.0)),
                ("a".to_string(), Cost::abs(1.0, 3.0)),
                ("a".to_string(), Cost::abs(1.0, 1.0)),
            ])
            .unwrap();
        assert_eq!(outcomes.iter().filter(|o| o.error.is_some()).count(), 2);
        let want = engine.report("a").unwrap();
        assert_eq!(want.events, 1);
        drop(engine);
        // Recovery (with no limits configured) replays only the admitted
        // event: the throttled ones were never journaled.
        let (recovered, report) = Engine::recover(EngineConfig::with_shards(1), store).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(
            serde_json::to_string(&recovered.report("a").unwrap()).unwrap(),
            serde_json::to_string(&want).unwrap(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_rebalance_is_fenced_and_interrupted_ones_replay() {
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-engine-tests")
            .join(format!("rebalance-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || -> Arc<dyn rsdc_store::Durability> {
            Arc::new(FileStore::open(&dir, FileStoreConfig::default()).unwrap())
        };
        let fs = costs(30);
        // Reference: static single shard, no store.
        let reference = Engine::new(EngineConfig::with_shards(1));
        for i in 0..6 {
            reference
                .admit(TenantConfig::new(
                    format!("t{i}"),
                    6,
                    2.0,
                    PolicySpec::FlcpRounded { k: 2, seed: i },
                ))
                .unwrap();
        }
        for f in &fs {
            let batch = (0..6).map(|i| (format!("t{i}"), f.clone())).collect();
            reference.step_batch(batch).unwrap();
        }
        let want: Vec<String> = reference
            .report_all()
            .unwrap()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();

        // Durable run with a live rebalance mid-stream, killed after more
        // WAL-only events.
        let mut engine = Engine::with_store(EngineConfig::with_shards(2), open()).unwrap();
        for i in 0..6 {
            engine
                .admit(TenantConfig::new(
                    format!("t{i}"),
                    6,
                    2.0,
                    PolicySpec::FlcpRounded { k: 2, seed: i },
                ))
                .unwrap();
        }
        for f in &fs[..10] {
            let batch = (0..6).map(|i| (format!("t{i}"), f.clone())).collect();
            engine.step_batch(batch).unwrap();
        }
        let r = engine.rebalance(3, None).unwrap();
        assert!(r.durable);
        assert!(r.seq > 0, "fencing checkpoint committed");
        for f in &fs[10..20] {
            let batch = (0..6).map(|i| (format!("t{i}"), f.clone())).collect();
            engine.step_batch(batch).unwrap();
        }
        drop(engine); // crash after the fence + 10 WAL-only slots

        let (engine, report) = Engine::recover(EngineConfig::with_shards(3), open()).unwrap();
        assert_eq!(report.tenants_restored, 6, "fencing checkpoint had all");
        assert_eq!(report.replay_errors, 0);
        assert_eq!(
            report.migrations_replayed, 0,
            "completed fence truncated it"
        );
        drop(engine);

        // Interrupted rebalance: journal the record but crash before the
        // fence (the journal-then-die window) — recovery must finish the
        // topology change. The record is the read-only `Rebalance` an
        // older build wrote, so its data directories still recover.
        {
            let store = open();
            let recovery = store.recover().unwrap();
            assert!(recovery.checkpoint.is_some());
            store
                .append(
                    0,
                    &crate::journal::JournalRecord::Rebalance {
                        shards: 2,
                        vnodes: 16,
                    }
                    .encode(),
                )
                .unwrap();
            store.sync().unwrap();
        }
        let (mut engine, report) = Engine::recover(EngineConfig::with_shards(3), open()).unwrap();
        assert_eq!(report.migrations_replayed, 1);
        assert_eq!(
            engine.ring_spec(),
            ring::RingSpec::new(2, 16),
            "recovery completes the interrupted migration"
        );
        // The stream finishes identically to the static reference.
        for f in &fs[20..] {
            let batch = (0..6).map(|i| (format!("t{i}"), f.clone())).collect();
            engine.step_batch(batch).unwrap();
        }
        let _ = engine.rebalance(1, None).unwrap();
        let got: Vec<String> = engine
            .report_all()
            .unwrap()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_shrink_then_regrow_rebalance_loses_no_wal_records() {
        // Regression: after shrinking the ring, a shard index goes idle;
        // the next fencing checkpoint deletes its old WAL segment. When a
        // later rebalance brings the index back, its appends must land in
        // a live segment — a stale cached writer would journal into an
        // unlinked inode and recovery would silently drop every event
        // since the regrow.
        use rsdc_store::{FileStore, FileStoreConfig};
        use std::sync::Arc;
        let dir = std::env::temp_dir()
            .join("rsdc-engine-tests")
            .join(format!("regrow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || -> Arc<dyn rsdc_store::Durability> {
            Arc::new(FileStore::open(&dir, FileStoreConfig { sync_every: 1 }).unwrap())
        };
        let fs = costs(30);
        let admit_fleet = |engine: &Engine| {
            for i in 0..8 {
                engine
                    .admit(
                        TenantConfig::new(
                            format!("t{i}"),
                            6,
                            2.0,
                            PolicySpec::FlcpRounded { k: 2, seed: i },
                        )
                        .with_opt_tracking(),
                    )
                    .unwrap();
            }
        };
        let feed = |engine: &Engine, slice: &[Cost]| {
            for f in slice {
                let batch = (0..8).map(|i| (format!("t{i}"), f.clone())).collect();
                engine.step_batch(batch).unwrap();
            }
        };
        let to_text = |engine: &Engine| -> Vec<String> {
            engine
                .report_all()
                .unwrap()
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect()
        };

        let reference = Engine::new(EngineConfig::with_shards(1));
        admit_fleet(&reference);
        feed(&reference, &fs);
        let want = to_text(&reference);

        let mut engine = Engine::with_store(EngineConfig::with_shards(4), open()).unwrap();
        admit_fleet(&engine);
        feed(&engine, &fs[..10]);
        engine.rebalance(2, None).unwrap();
        feed(&engine, &fs[10..20]);
        engine.rebalance(4, None).unwrap();
        // These events route to shards 2 and 3 again — WAL-only state.
        feed(&engine, &fs[20..]);
        drop(engine); // crash

        let (recovered, report) = Engine::recover(EngineConfig::with_shards(4), open()).unwrap();
        assert_eq!(report.replay_errors, 0);
        assert_eq!(
            to_text(&recovered),
            want,
            "events journaled on re-grown shards must survive the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restore_across_engines() {
        let fs = costs(36);
        // Uninterrupted reference run.
        let reference = Engine::new(EngineConfig::with_shards(2));
        reference
            .admit(TenantConfig::new(
                "t",
                6,
                2.0,
                PolicySpec::HalfStepRounded { seed: 17 },
            ))
            .unwrap();
        let mut want = Vec::new();
        for f in &fs {
            want.extend(reference.step("t", f.clone()).unwrap());
        }
        let want_report = reference.report("t").unwrap();

        // Interrupted run: kill the engine mid-stream, restore elsewhere.
        let first = Engine::new(EngineConfig::with_shards(2));
        first
            .admit(TenantConfig::new(
                "t",
                6,
                2.0,
                PolicySpec::HalfStepRounded { seed: 17 },
            ))
            .unwrap();
        let mut got = Vec::new();
        for f in &fs[..15] {
            got.extend(first.step("t", f.clone()).unwrap());
        }
        let snapshot = first.snapshot("t").unwrap();
        first.shutdown();

        let second = Engine::new(EngineConfig::with_shards(3));
        second.restore(snapshot).unwrap();
        for f in &fs[15..] {
            got.extend(second.step("t", f.clone()).unwrap());
        }
        assert_eq!(got, want);
        let got_report = second.report("t").unwrap();
        assert_eq!(
            got_report.breakdown.operating,
            want_report.breakdown.operating
        );
        assert_eq!(
            got_report.breakdown.switching,
            want_report.breakdown.switching
        );
        assert_eq!(got_report.stats, want_report.stats);
    }

    #[test]
    fn energy_meter_integrates_engine_ticks() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        for i in 0..6 {
            engine
                .admit(TenantConfig::new(format!("t{i}"), 8, 1.0, PolicySpec::Lcp))
                .unwrap();
        }
        assert!(engine.energy_status().is_none(), "accounting starts off");
        let cfg = PowerConfig {
            model: PowerSpec::Linear {
                idle: 100.0,
                peak: 250.0,
            },
            capacity: 4.0,
            price: PriceSchedule::Step {
                period: 3,
                prices: vec![1.0, 5.0],
            },
        };
        engine.set_power(Some(cfg)).unwrap();
        for f in costs(12) {
            let batch: Vec<(String, Cost)> = (0..6).map(|i| (format!("t{i}"), f.clone())).collect();
            engine.step_batch(batch).unwrap();
        }
        let status = engine.energy_status().unwrap();
        assert_eq!(status.ticks, 12, "one metered tick per ingested batch");
        assert!(status.joules > 0.0);
        assert!(status.cost > status.joules, "expensive windows priced > 1");
        assert_eq!(status.watts.len(), 2);
        // Every shard draws at least one machine's idle power per tick, so
        // totals are bounded below by the idle floor.
        assert!(status.joules >= 12.0 * 2.0 * 100.0);
        // The registry counters trail the meter by less than one unit.
        let counters: std::collections::HashMap<String, u64> = engine
            .obs()
            .registry()
            .snapshot()
            .into_iter()
            .filter_map(|m| match m.value {
                rsdc_obs::MetricValue::Counter(v) => Some((m.id.name, v)),
                _ => None,
            })
            .collect();
        assert_eq!(counters["engine_energy_joules"], status.joules as u64);
        assert_eq!(
            counters["engine_energy_cost_milli"],
            (status.cost * 1000.0) as u64
        );
        // Per-tenant attribution: every tenant committed machines, so each
        // carries a share, and the shares never exceed the metered total.
        let reports = engine.report_all().unwrap();
        let attributed: f64 = reports
            .iter()
            .map(|r| r.energy.expect("accounting on").joules)
            .sum();
        assert!(attributed > 0.0);
        assert!(attributed <= status.joules + 1e-9);
        // Disabling accounting clears the read-backs and report fields.
        engine.set_power(None).unwrap();
        assert!(engine.energy_status().is_none());
        assert!(engine.report("t0").unwrap().energy.is_none());
    }

    #[test]
    fn price_window_trace_marks_schedule_edges() {
        let engine = Engine::new(EngineConfig::with_shards(1));
        engine
            .admit(TenantConfig::new("t", 4, 1.0, PolicySpec::Lcp))
            .unwrap();
        engine
            .set_power(Some(PowerConfig {
                model: PowerSpec::Constant { watts: 50.0 },
                capacity: 1.0,
                price: PriceSchedule::Step {
                    period: 2,
                    prices: vec![1.0, 4.0],
                },
            }))
            .unwrap();
        for f in costs(5) {
            engine.step("t", f).unwrap();
        }
        let windows: Vec<u64> = engine
            .obs()
            .trace()
            .events(None)
            .iter()
            .filter(|e| e.kind == "price_window")
            .map(|e| e.tick)
            .collect();
        // Ticks 1..=5 on the engine clock; the meter's 0-based ticks 0, 2
        // and 4 open windows (first tick, then each period boundary).
        assert_eq!(windows.len(), 3, "first tick + two period edges");
    }
}
