//! The engine handle: tenant routing, batched dispatch, lifecycle,
//! admission control, checkpointing, crash recovery, live ring
//! rebalancing (moving only the ring diff), and lazy auto-rebalancing.

use crate::admission::{AdmissionConfig, AdmissionControl, AdmissionError};
use crate::intern::{Interner, Pricing, UNKNOWN_KEY};
use crate::journal::{CheckpointDoc, JournalRecord};
use crate::obs::EngineObs;
use crate::power::PowerRuntime;
use crate::ring::{moved_ids, HashRing, RingSpec, DEFAULT_VNODES};
use crate::shard::{Event, Shard, ShardDump, ShardMeta, ShardStats, StepOutcome, Worker};
use crate::tenant::{Tenant, TenantConfig, TenantReport, TenantSnapshot};
use crate::topology::{TopologyConfig, TopologyPolicy, TopologyStatus};
use crate::EngineError;
use rsdc_core::Cost;
use rsdc_power::{EnergyStatus, PowerConfig};
use rsdc_store::{Durability, NullStore};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of shards, each with one batch worker thread (tenants are
    /// partitioned by the consistent-hash ring).
    pub shards: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Whether the metrics registry records anything. `false` bakes a
    /// no-op flag into every handle (the ingestion hot path pays one
    /// branch). Metrics live outside journaled state either way: this
    /// flag never changes a journaled or recovered byte.
    pub metrics: bool,
    /// Control-plane trace ring capacity, in events (clamped to `>= 1`;
    /// tracing is off whenever `metrics` is off).
    pub trace_capacity: usize,
}

/// Default control-plane trace capacity, in events.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

impl Default for EngineConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        EngineConfig::with_shards(shards)
    }
}

impl EngineConfig {
    /// Config with an explicit shard count (`>= 1`) and the default ring.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig::with_topology(shards, DEFAULT_VNODES)
    }

    /// Config with an explicit shard count and virtual-node count.
    pub fn with_topology(shards: usize, vnodes: usize) -> Self {
        EngineConfig {
            shards: shards.max(1),
            vnodes: vnodes.max(1),
            metrics: true,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The ring topology this config describes.
    pub fn ring_spec(&self) -> RingSpec {
        RingSpec::new(self.shards, self.vnodes)
    }
}

/// A sharded multi-tenant streaming engine.
///
/// Tenants are partitioned across `shards` shards by a consistent-hash
/// ring ([`crate::ring`]); every operation routes by tenant id. Control
/// operations run on the caller's thread under the owning shard's lock;
/// batched ingestion ([`Engine::step_batch`]) hands each shard's slice of
/// a mixed batch to that shard's persistent worker thread, so shards step
/// in parallel. The handle also owns the control plane: admission limits
/// ([`Engine::set_limits`]) are enforced here, before anything reaches a
/// shard or its WAL, and [`Engine::rebalance`] migrates tenants onto a
/// new topology without a restart. See the crate docs for the full
/// lifecycle.
///
/// One lock guards the handle: every public method past the `store`
/// and `obs` accessors takes it once, at entry, and holds it until it
/// returns — a step batch from its gate tick through routing, the
/// worker round trip and energy attribution.
/// Calls on one engine therefore never interleave. The lock order is
/// handle, then shard: shard code (the workers included) takes no
/// handle lock, and no thread takes the handle lock while it holds a
/// shard lock.
pub struct Engine {
    /// The backend shards journal through; its appends, checkpoint
    /// commits and final sync are timed and counted into `obs` where they
    /// are called.
    store: Arc<dyn Durability>,
    obs: Arc<EngineObs>,
    /// The handle lock.
    control: Mutex<Control>,
}

/// Everything the handle keeps besides its store and its metrics, behind
/// the one handle lock. Helpers take the held `&mut Control` (or
/// `&Control`) rather than locking for themselves.
struct Control {
    shards: Vec<Arc<Mutex<Shard>>>,
    ring: HashRing,
    /// Whether the shards journal: set once the store is attached
    /// (recovery replays before it).
    attached: bool,
    gate: AdmissionControl,
    policy: Option<TopologyPolicy>,
    power: Option<PowerRuntime>,
    /// The one per-tenant record: per live id, the slab key, the cached
    /// route, the load pricing, the token bucket and the energy
    /// attribution. Hash once at admit, route on the integer.
    intern: Interner,
    pool: DispatchPool,
}

/// A step event with its tenant id already resolved against the engine's
/// intern table: the shared id string plus the slab key shards index by.
/// Build these once with [`Engine::resolve`] and feed them through
/// [`Engine::step_events`] with reused buffers — the steady-state path
/// then performs zero per-event allocations.
pub struct StepEvent {
    /// Interned tenant id.
    pub id: Arc<str>,
    /// Slab key ([`crate::intern::UNKNOWN_KEY`] for ids that are not
    /// live). The key is a hint and `id` the truth: resolving and
    /// stepping are separate calls, each under the handle lock once, and
    /// an evict between them may hand the key to another tenant. A key
    /// that no longer names `id` in this engine's intern table is looked
    /// up again by `id`. Ids that are not live are never gated by a rate
    /// limit: they fail as unknown tenants.
    pub key: u32,
    /// Cost function for this slot.
    pub cost: Cost,
    /// Offered load, when known.
    pub load: Option<f64>,
}

/// What [`Engine::step_events`] dispatches through: one persistent
/// [`Worker`] per shard index (each parking its shard's recycled event
/// and outcome buffers), the order-restoring outcome staging area, and
/// the per-shard pulse vectors the topology policy and energy meter
/// read. Part of the handle's control state: a batch holds the handle
/// lock across its worker round trip, so one batch at a time owns the
/// workers' reply channels.
#[derive(Default)]
struct DispatchPool {
    workers: Vec<Worker>,
    indexed: Vec<(usize, StepOutcome)>,
    /// `(key, shard)` per event of the batch, in submission order.
    routes: Vec<(u32, usize)>,
    shard_events: Vec<u64>,
    pulses: Vec<(usize, usize)>,
    machines: Vec<(usize, u64)>,
}

impl DispatchPool {
    /// Grow or shrink the worker set to one worker per shard index.
    fn resize(&mut self, shards: usize) {
        let keep = shards.min(self.workers.len());
        for worker in self.workers.drain(keep..) {
            worker.stop();
        }
        self.workers.extend((keep..shards).map(Worker::spawn));
    }
}

/// What [`Engine::checkpoint`] produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointReport {
    /// Checkpoint sequence number.
    pub seq: u64,
    /// Tenants captured.
    pub tenants: usize,
    /// False when the engine runs on a [`NullStore`] (nothing persisted).
    pub durable: bool,
}

/// What [`Engine::rebalance`] did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Shard count after the rebalance.
    pub shards: usize,
    /// Virtual nodes per shard after the rebalance.
    pub vnodes: usize,
    /// Tenants the rebalance moved: those whose ring placement changed
    /// (the consistent-hashing minority; the rest stay on their shard).
    pub moved: usize,
    /// The tenants it moved, sorted by id: the ring diff.
    pub moved_ids: Vec<String>,
    /// Sequence of the fencing checkpoint (0 on a non-durable engine).
    pub seq: u64,
    /// Whether the topology change was fenced by a durable checkpoint.
    pub durable: bool,
    /// The engine's logical clock (admission-gate ticks, one per ingested
    /// batch) when the operation ran — correlates the report with trace
    /// events and `autoscale` read-backs.
    pub tick: u64,
}

/// What [`Engine::recover`] reconstructed from disk.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint the engine was rebuilt from (0 = none,
    /// the WAL alone carried the state).
    pub checkpoint_seq: u64,
    /// Tenants restored from the checkpoint.
    pub tenants_restored: usize,
    /// Whether shard-level aggregates (stats, load metrics) were restored;
    /// false when the recovering engine's shard count differs from the
    /// checkpoint's (tenant state is still exact either way).
    pub shard_meta_restored: bool,
    /// WAL segments replayed.
    pub segments: usize,
    /// WAL records replayed.
    pub records_replayed: usize,
    /// Stream events re-applied from replayed batch records.
    pub events_replayed: usize,
    /// Records that failed to decode or re-apply (deterministic failures
    /// such as a journaled duplicate admit count here too).
    pub replay_errors: usize,
    /// Segments whose torn/corrupt tail was truncated back to the last
    /// valid record.
    pub corrupt_segments: usize,
    /// Newer-but-invalid checkpoint files skipped by the store scan.
    pub checkpoints_skipped: usize,
    /// Interrupted topology-change records found in the WAL tail: every
    /// `Migrate`, and every `Rebalance` an older build journaled. The
    /// last one's spec is applied after replay by the same ring-diff
    /// migration as [`Engine::rebalance`], completing the change the
    /// crash cut short.
    pub migrations_replayed: usize,
    /// Sequence of the fresh checkpoint written right after recovery.
    pub post_checkpoint_seq: u64,
}

impl Control {
    /// Lock shard `index`. A poisoned lock — a panic mid-operation — reads
    /// as a down shard.
    fn shard(&self, index: usize) -> Result<MutexGuard<'_, Shard>, EngineError> {
        self.shards[index]
            .lock()
            .map_err(|_| EngineError::ShardDown(index))
    }

    /// Lock each shard in turn and apply `f` to it.
    fn each_shard<T>(&self, mut f: impl FnMut(&mut Shard) -> T) -> Result<Vec<T>, EngineError> {
        (0..self.shards.len())
            .map(|i| Ok(f(&mut *self.shard(i)?)))
            .collect()
    }

    /// The slab key and shard index of tenant `id`: one intern lookup.
    /// Ids that are not live fail with `UnknownTenant` without touching a
    /// shard.
    fn locate(&self, id: &str) -> Result<(u32, usize), EngineError> {
        let (key, e) = self.intern.lookup(id).ok_or_else(|| unknown(id))?;
        Ok((key, e.shard as usize))
    }

    /// Apply `f` to live tenant `id` under its shard's lock.
    fn read_tenant<T>(&self, id: &str, f: impl FnOnce(&Tenant) -> T) -> Result<T, EngineError> {
        let (key, shard) = self.locate(id)?;
        self.shard(shard)?
            .tenant(key, id)
            .map(f)
            .ok_or_else(|| unknown(id))
    }

    /// Resolve `id` without inserting; see [`Engine::resolve_priced`].
    fn resolve(&self, id: &str) -> (Arc<str>, u32, Pricing) {
        match self.intern.lookup(id) {
            Some((key, e)) => (Arc::clone(&e.id), key, e.pricing),
            None => (Arc::from(id), UNKNOWN_KEY, Pricing::default()),
        }
    }

    /// [`Control::resolve`] for a whole batch.
    fn resolve_batch(
        &self,
        events: impl IntoIterator<Item = (String, Cost, Option<f64>)>,
    ) -> Vec<StepEvent> {
        events
            .into_iter()
            .map(|(id, cost, load)| {
                let (id, key, _) = self.resolve(&id);
                StepEvent {
                    id,
                    key,
                    cost,
                    load,
                }
            })
            .collect()
    }

    fn live_tenants(&self) -> Result<usize, EngineError> {
        Ok(self.each_shard(|s| s.stats().tenants)?.into_iter().sum())
    }

    fn tenant_ids(&self) -> Result<Vec<String>, EngineError> {
        let mut all = Vec::new();
        self.each_shard(|s| all.extend(s.ids().cloned()))?;
        all.sort_unstable();
        Ok(all)
    }

    /// Fill the reports' `energy` fields from their tenants' intern
    /// entries, when energy accounting is on.
    fn decorate_energy(&self, reports: &mut [TenantReport]) {
        if self.power.is_some() {
            for report in reports {
                let entry = self.intern.lookup(&report.id);
                report.energy = entry.and_then(|(_, e)| e.energy).map(|a| a.energy);
            }
        }
    }

    /// Keep the autoscale policy's view of the topology in sync after a
    /// successful rebalance — including operator-requested ones, which
    /// would otherwise leave the policy reasoning (and reporting) against
    /// a stale shard count.
    fn sync_policy_topology(&mut self, shards: usize) {
        if let Some(policy) = &mut self.policy {
            policy.note_topology(shards);
        }
    }

    /// Admit bypassing admission control (recovery replay). A live id is
    /// refused before its config is built; the config is validated (and
    /// the tenant built) before anything is interned or journaled.
    fn admit_unchecked(&mut self, cfg: TenantConfig) -> Result<(), EngineError> {
        if self.read_tenant(&cfg.id, |_| ()).is_ok() {
            return Err(EngineError::DuplicateTenant(cfg.id));
        }
        let tenant = Tenant::new(cfg.clone()).map_err(EngineError::Policy)?;
        self.install(tenant, Some(JournalRecord::Admit(cfg)))
    }

    /// Install a validated tenant: intern its id (hashed once, routed
    /// once, handed to its shard as a slab key), journal `record` and
    /// place the tenant on its shard, replacing any tenant there. Its
    /// pricing is recorded only once the install succeeded; a failed
    /// install of a new id releases the key again. The handle lock is
    /// held throughout, so no batch routes while the id becomes live.
    fn install(
        &mut self,
        tenant: Tenant,
        record: Option<JournalRecord>,
    ) -> Result<(), EngineError> {
        let pricing = Pricing::of(tenant.config());
        let id = tenant.config().id.clone();
        let (key, shard) = self.intern.intern(&id, &self.ring);
        let placed = self.shard(shard).and_then(|mut shard| {
            if let Some(record) = &record {
                shard.journal(record)?;
            }
            shard.place(key, tenant);
            Ok(())
        });
        if placed.is_ok() {
            self.intern.set_pricing(key, pricing);
        } else if self
            .shard(shard)
            .is_ok_and(|s| s.tenant(key, &id).is_none())
        {
            self.intern.release(key);
        }
        placed
    }

    fn finish(&self, id: &str) -> Result<Vec<u32>, EngineError> {
        let (key, shard) = self.locate(id)?;
        self.shard(shard)?
            .finish(key, id)?
            .ok_or_else(|| unknown(id))
    }

    fn evict(&mut self, id: &str) -> Result<TenantReport, EngineError> {
        let (key, shard) = self.locate(id)?;
        let mut report = self
            .shard(shard)?
            .evict(key, id)?
            .ok_or_else(|| unknown(id))?;
        report.energy = self
            .intern
            .release(key)
            .and_then(|e| e.energy)
            .map(|a| a.energy);
        Ok(report)
    }

    /// Apply `f` to post-migration shard `index`: a surviving shard
    /// (under its lock) or, from `keep` on, one of the `fresh` shards a
    /// grow builds.
    fn on_new_shard<T>(
        &self,
        fresh: &mut [Shard],
        keep: usize,
        index: usize,
        f: impl FnOnce(&mut Shard) -> T,
    ) -> Result<T, EngineError> {
        match index.checked_sub(keep) {
            Some(i) => Ok(f(&mut fresh[i])),
            None => Ok(f(&mut *self.shard(index)?)),
        }
    }

    /// Neutralize an aborted migration's write-ahead topology record: the
    /// migration did not happen, so a crash before the next checkpoint
    /// must not replay it. Recovery takes the *last* record's topology, so
    /// re-journaling the current one restores the truth (best-effort — if
    /// this append fails too, the next successful checkpoint truncates
    /// both).
    fn neutralize(&self, record: JournalRecord) {
        if let Ok(shard) = self.shard(0) {
            let _ = shard.journal(&record);
        }
    }
}

impl Engine {
    /// Start an engine with no durability (a [`NullStore`]).
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::spawn(cfg, Arc::new(NullStore))
    }

    /// Start a durable engine journaling through `store`. Fails when the
    /// store already holds state — recover with [`Engine::recover`]
    /// instead of silently appending a second, inconsistent history.
    pub fn with_store(
        cfg: EngineConfig,
        store: Arc<dyn Durability>,
    ) -> Result<Engine, EngineError> {
        if store.has_state().map_err(EngineError::from_store)? {
            return Err(EngineError::Store(
                "store already holds a checkpoint or WAL data; use Engine::recover".into(),
            ));
        }
        let engine = Engine::spawn(cfg, store);
        engine.attach_store(&mut engine.control())?;
        Ok(engine)
    }

    fn spawn(cfg: EngineConfig, store: Arc<dyn Durability>) -> Engine {
        let spec = cfg.ring_spec();
        let obs = Arc::new(EngineObs::new(cfg.metrics, cfg.trace_capacity));
        let mut control = Control {
            shards: (0..spec.shards)
                .map(|i| Arc::new(Mutex::new(Shard::new(i, &obs))))
                .collect(),
            ring: HashRing::new(spec),
            attached: false,
            gate: AdmissionControl::default(),
            policy: None,
            power: None,
            intern: Interner::new(),
            pool: DispatchPool::default(),
        };
        control.pool.resize(spec.shards);
        Engine {
            store,
            obs,
            control: Mutex::new(control),
        }
    }

    /// Take the handle lock.
    fn control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().expect("engine handle poisoned")
    }

    /// Hand every shard its journaling handle. Mutations before this point
    /// are not journaled, which is exactly what recovery replay needs.
    fn attach_store(&self, ctl: &mut Control) -> Result<(), EngineError> {
        ctl.each_shard(|s| s.attach(self.store.clone()))?;
        ctl.attached = true;
        Ok(())
    }

    /// The durability backend this engine journals through, as it was
    /// given — what a restart hands back to [`Engine::recover`].
    pub fn store(&self) -> &Arc<dyn Durability> {
        &self.store
    }

    /// The engine's observability state: metrics registry, control-plane
    /// trace, WAL write-volume counters.
    pub fn obs(&self) -> &Arc<EngineObs> {
        &self.obs
    }

    /// The engine's logical clock: admission-gate ticks, one per ingested
    /// batch. Stamped onto rebalance reports and trace events.
    pub fn logical_tick(&self) -> u64 {
        self.control().gate.now()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.control().shards.len()
    }

    /// The routing-ring topology.
    pub fn ring_spec(&self) -> RingSpec {
        self.control().ring.spec()
    }

    /// The admission limits in force.
    pub fn limits(&self) -> AdmissionConfig {
        self.control().gate.config()
    }

    /// Install new admission limits (tenant cap, per-tenant rate limit).
    /// Applies to subsequent operations only; limits are control-plane
    /// state, deliberately not journaled — recovery replays exactly the
    /// traffic that was admitted, whatever the limits were.
    pub fn set_limits(&self, cfg: AdmissionConfig) -> Result<(), EngineError> {
        cfg.validate().map_err(invalid)?;
        let mut ctl = self.control();
        if ctl.gate.config().limits_rate() && !cfg.limits_rate() {
            // Buckets are charged only under a rate limit, so they stay
            // full while it is off: re-enabling one starts them full.
            ctl.intern
                .each_mut()
                .for_each(|e| e.bucket = Default::default());
        }
        ctl.gate.set_config(cfg);
        Ok(())
    }

    /// Whether mutations are journaled: the store is durable and attached.
    fn journaling(&self, ctl: &Control) -> bool {
        self.store.is_durable() && ctl.attached
    }

    /// Resolve a tenant id against the intern table without inserting:
    /// live ids come back as their shared string plus slab key, other ids
    /// get a fresh string and [`UNKNOWN_KEY`] (the owning shard will
    /// report `UnknownTenant` for them). The key stays a hint: after an
    /// evict it may name another tenant, and the step path then looks
    /// the id up again. This is the one allocation a caller pays per
    /// *distinct* id, not per event — hold the returned pair and reuse it
    /// across [`Engine::step_events`] batches.
    pub fn resolve(&self, id: &str) -> (Arc<str>, u32) {
        let (id, key, _) = self.resolve_priced(id);
        (id, key)
    }

    /// [`Engine::resolve`] plus the tenant's load [`Pricing`] from the
    /// same lookup (the default pricing for ids that are not live).
    pub(crate) fn resolve_priced(&self, id: &str) -> (Arc<str>, u32, Pricing) {
        self.control().resolve(id)
    }

    /// Enable (`Some`) or disable (`None`) energy accounting. Installing
    /// a config starts a **fresh** meter (totals reset to zero); like the
    /// metrics registry and the topology policy, the energy runtime is
    /// control-plane process state, deliberately not journaled — recovery
    /// restarts the meter, it never replays watt-hours.
    ///
    /// Once enabled, every ingested batch meters one logical tick:
    /// per-shard utilization (events over committed machines times the
    /// configured capacity) drives the power model, joules integrate over
    /// the logical clock, and the price schedule turns them into cost.
    pub fn set_power(&self, cfg: Option<PowerConfig>) -> Result<(), EngineError> {
        let runtime = cfg
            .map(|cfg| cfg.validate().map(|()| PowerRuntime::new(cfg)))
            .transpose()
            .map_err(invalid)?;
        let mut ctl = self.control();
        if ctl.power.is_some() {
            // Tenants are attributed only while a meter runs: the next
            // one attributes from zero.
            ctl.intern.each_mut().for_each(|e| e.energy = None);
        }
        ctl.power = runtime;
        Ok(())
    }

    /// The power configuration in force (`None` when energy accounting is
    /// disabled).
    pub fn power_config(&self) -> Option<PowerConfig> {
        self.control()
            .power
            .as_ref()
            .map(|rt| rt.meter().config().clone())
    }

    /// Point-in-time energy read-back: configuration, totals, and the
    /// last tick's per-shard physics (`None` when disabled).
    pub fn energy_status(&self) -> Option<EnergyStatus> {
        self.control().power.as_ref().map(|rt| rt.meter().status())
    }

    /// Enable (`Some`) or disable (`None`) the lazy auto-rebalancing
    /// policy ([`crate::topology`]). Like admission limits, the policy is
    /// control-plane process state — deliberately not journaled; each
    /// deployment states its own knobs and a restarted engine re-learns
    /// the load within a few ticks.
    ///
    /// Once enabled, every ingested batch feeds the policy one
    /// observation tick; call [`Engine::maybe_autoscale`] (the wire
    /// session does this after every batch) to apply pending decisions
    /// through [`Engine::rebalance`]'s migration.
    pub fn set_autoscale(&self, cfg: Option<TopologyConfig>) -> Result<(), EngineError> {
        let mut ctl = self.control();
        ctl.policy = cfg
            .map(|cfg| TopologyPolicy::new(cfg, ctl.shards.len()))
            .transpose()
            .map_err(invalid)?;
        Ok(())
    }

    /// Point-in-time status of the auto-rebalancing policy (`None` when
    /// disabled).
    pub fn autoscale_status(&self) -> Option<TopologyStatus> {
        self.control().policy.as_ref().map(|p| p.status())
    }

    /// Apply the auto-rebalancing policy's pending decision, if any,
    /// through [`Engine::rebalance`]'s migration (only the ring-diff
    /// tenants move).
    /// Returns the migration report when a topology change was applied.
    /// A no-op when the policy is disabled, satisfied, or cooling down.
    /// Opens the admission migration window for the policy's cooldown
    /// (new admits are deferred, rate-limited buckets refill at half
    /// rate) so the topology settles before the fleet shifts under it
    /// again.
    pub fn maybe_autoscale(&mut self) -> Result<Option<RebalanceReport>, EngineError> {
        let mut ctl = self.control();
        let Some((shards, cooldown, status)) = ctl
            .policy
            .as_ref()
            .and_then(|p| Some((p.pending()?, p.config().cooldown, p.status())))
        else {
            return Ok(None);
        };
        let from = ctl.shards.len();
        // The decision record carries the live LCP state that forced it:
        // both bounds, and the accrued costs whose comparison is the
        // paper's trigger condition.
        self.obs.event(
            ctl.gate.now(),
            "autoscale_decision",
            vec![
                ("from", from.into()),
                ("target", shards.into()),
                ("lower", status.lower.into()),
                ("upper", status.upper.into()),
                ("imbalance_cost", status.imbalance_cost.into()),
                ("switch_cost_accrued", status.switch_cost_accrued.into()),
                ("event_skew", status.event_skew.into()),
            ],
        );
        let spec = RingSpec::new(shards, ctl.ring.spec().vnodes);
        let report = self.migrate(&mut ctl, spec)?;
        let ctl = &mut *ctl;
        if let Some(policy) = &mut ctl.policy {
            policy.record_applied(from, report.shards, report.moved);
        }
        let buckets = ctl.intern.each_mut().map(|e| &mut e.bucket);
        ctl.gate.begin_migration_window(cooldown, buckets);
        if cooldown > 0 {
            self.obs.note_window(ctl.gate.now(), true);
        }
        Ok(Some(report))
    }

    /// Live tenants across all shards.
    pub fn live_tenants(&self) -> Result<usize, EngineError> {
        self.control().live_tenants()
    }

    /// Admit a new tenant. Refused with a typed
    /// [`Rejected`](crate::AdmissionError::Rejected) error when the engine
    /// is at its [`max_tenants`](AdmissionConfig::max_tenants) cap. The
    /// count and the insert happen under one hold of the handle lock, so
    /// concurrent admits cannot push the fleet past the cap.
    pub fn admit(&self, cfg: TenantConfig) -> Result<(), EngineError> {
        let mut ctl = self.control();
        self.check_admit(&mut ctl, &cfg.id)?;
        ctl.admit_unchecked(cfg)
    }

    /// Gate one new tenant `id`: refused at the tenant cap or inside a
    /// migration window.
    fn check_admit(&self, ctl: &mut Control, id: &str) -> Result<(), EngineError> {
        let cap = ctl.gate.config().max_tenants > 0;
        if cap || ctl.gate.in_migration_window() {
            // The live count is only fetched when a cap could bite.
            let live = if cap { ctl.live_tenants()? } else { 0 };
            ctl.gate.check_admit(id, live).map_err(|e| {
                self.obs.count_refusal(&e);
                EngineError::Admission(e)
            })?;
        }
        Ok(())
    }

    /// Classify a per-event error string back into the [`EngineError`] it
    /// was rendered from: the unknown-tenant and throttled renderings are
    /// each produced in exactly one place, everything else is a
    /// policy-level step failure.
    fn classify_event_error(id: &str, message: String) -> EngineError {
        let throttled = AdmissionError::Throttled { id: id.to_string() };
        if message == EngineError::UnknownTenant(id.to_string()).to_string() {
            EngineError::UnknownTenant(id.to_string())
        } else if message == throttled.to_string() {
            EngineError::Admission(throttled)
        } else {
            // Per-event errors are rendered rsdc_core::Errors; strip the
            // rendering prefix before re-wrapping so the message is not
            // double-prefixed on display.
            let message = message
                .strip_prefix("invalid parameter: ")
                .map(str::to_string)
                .unwrap_or(message);
            invalid(message)
        }
    }

    /// Feed one cost function to one tenant; returns the states committed
    /// by this event (empty while a lookahead window fills).
    pub fn step(&self, id: &str, cost: Cost) -> Result<Vec<u32>, EngineError> {
        self.step_one(&mut self.control(), id, cost, None)
            .map(|o| o.states.to_vec())
    }

    /// Run one event through the batch path and unwrap its outcome.
    fn step_one(
        &self,
        ctl: &mut Control,
        id: &str,
        cost: Cost,
        load: Option<f64>,
    ) -> Result<StepOutcome, EngineError> {
        let mut events = ctl.resolve_batch([(id.to_string(), cost, load)]);
        let mut out = Vec::with_capacity(1);
        self.dispatch(ctl, &mut events, true, &mut out)?;
        let outcome = out.pop().ok_or_else(|| unknown(id))?;
        match outcome.error {
            None => Ok(outcome),
            Some(message) => Err(Engine::classify_event_error(id, message)),
        }
    }

    /// Fetch a tenant's static configuration.
    pub fn tenant_config(&self, id: &str) -> Result<crate::TenantConfig, EngineError> {
        self.control().read_tenant(id, |t| t.config().clone())
    }

    /// Feed one offered load to one **heterogeneous** tenant; returns the
    /// full outcome (total-machine states plus the committed
    /// configurations). Scalar tenants are rejected: their loads must be
    /// priced into a [`Cost`] first (the wire session does this through
    /// the tenant's cost model) — silently ingesting an unpriced load
    /// would produce wrong accounting with an `Ok` result.
    pub fn step_load(&self, id: &str, load: f64) -> Result<StepOutcome, EngineError> {
        let mut ctl = self.control();
        let (_, entry) = ctl.intern.lookup(id).ok_or_else(|| unknown(id))?;
        if entry.pricing != Pricing::Hetero {
            return Err(invalid(format!(
                "tenant {id:?} is not heterogeneous: price the load into a Cost and use step instead"
            )));
        }
        self.step_one(&mut ctl, id, Cost::Zero, Some(load))
    }

    /// Feed a batch of `(tenant, cost)` events. Events are fanned out to
    /// the owning shards' workers, one handoff per shard; per-tenant order
    /// is preserved, and outcomes come back in submission order.
    pub fn step_batch(&self, events: Vec<(String, Cost)>) -> Result<Vec<StepOutcome>, EngineError> {
        self.step_batch_loads(events.into_iter().map(|(id, c)| (id, c, None)).collect())
    }

    /// [`Engine::step_batch`] with per-event offered load, which also feeds
    /// the shard-level metrics.
    ///
    /// Each call advances the admission gate's logical clock by one tick;
    /// when a per-tenant rate limit is configured, events that find their
    /// tenant's token bucket empty come back as per-event
    /// [`Throttled`](crate::AdmissionError::Throttled) errors **without
    /// reaching the owning shard or its WAL** — a throttled event never
    /// poisons the rest of the batch, and never reappears on replay.
    pub fn step_batch_loads(
        &self,
        events: Vec<(String, Cost, Option<f64>)>,
    ) -> Result<Vec<StepOutcome>, EngineError> {
        let mut ctl = self.control();
        let mut resolved = ctl.resolve_batch(events);
        let mut out = Vec::with_capacity(resolved.len());
        self.dispatch(&mut ctl, &mut resolved, true, &mut out)?;
        Ok(out)
    }

    /// [`Engine::step_batch_loads`] over pre-resolved events with reused
    /// buffers — the zero-allocation ingest path, and the one every other
    /// step entry point wraps. `events` is drained (its
    /// capacity survives for the caller's next batch); outcomes are
    /// appended to `out` in submission order. Resolve ids once with
    /// [`Engine::resolve`] and recycle both vectors across batches:
    /// steady-state ingest then allocates nothing per event.
    pub fn step_events(
        &self,
        events: &mut Vec<StepEvent>,
        out: &mut Vec<StepOutcome>,
    ) -> Result<(), EngineError> {
        self.dispatch(&mut self.control(), events, true, out)
    }

    /// Fan events out to shards. A `live` batch first advances the
    /// admission gate one tick; under a rate limit, each of its events
    /// whose id names a live tenant then spends a token from that
    /// tenant's bucket, and a throttled event becomes a local error
    /// outcome. Its per-shard batch sizes and the live-tenant pulses each
    /// shard returns with its outcomes feed the auto-rebalancing policy
    /// and the energy meter one tick. Recovery replay is not `live`:
    /// replayed traffic was admitted once already, and it is history,
    /// not load.
    ///
    /// Every non-empty per-shard batch goes to that shard's persistent
    /// worker, and every handed-off batch is collected before this
    /// returns — also on an error — so a worker's reply channel never
    /// holds a stale reply. The event and outcome buffers round-trip
    /// through the workers, so steady-state batches reuse the same
    /// allocations end to end. Shard routing comes from the intern
    /// table's cached routes; only ids that are not live fall back to
    /// hashing the ring.
    fn dispatch(
        &self,
        ctl: &mut Control,
        events: &mut Vec<StepEvent>,
        live: bool,
        out: &mut Vec<StepOutcome>,
    ) -> Result<(), EngineError> {
        let mut refill = None;
        if live {
            ctl.gate.tick();
            // Window close is observed lazily (the gate has no timer): the
            // first tick past the cooldown records the close edge.
            self.obs
                .note_window(ctl.gate.now(), ctl.gate.in_migration_window());
            refill = ctl.gate.refill();
        }
        let pool = &mut ctl.pool;
        pool.indexed.clear();
        pool.routes.clear();
        let mut throttled = 0;
        for (index, ev) in events.drain(..).enumerate() {
            // Shards step the key but journal the id, so the key must
            // still name the event's id (see `Interner::find_mut`).
            let (key, shard, spent) = match ctl.intern.find_mut(ev.key, &ev.id) {
                Some((key, e)) => (
                    key,
                    e.shard as usize,
                    refill.is_none_or(|r| r.spend(&mut e.bucket)),
                ),
                None => (UNKNOWN_KEY, ctl.ring.route(&ev.id), true),
            };
            pool.routes.push((key, shard));
            if !spent {
                throttled += 1;
                let error = AdmissionError::Throttled {
                    id: ev.id.to_string(),
                };
                pool.indexed
                    .push((index, StepOutcome::failed(error, ev.id)));
                continue;
            }
            pool.workers[shard].events.push(Event {
                index,
                id: ev.id,
                key,
                cost: ev.cost,
                load: ev.load,
            });
        }
        if throttled > 0 {
            self.obs.admission_throttled.add(throttled);
            self.obs.events_dropped.add(throttled);
        }
        let mut failure = None;
        pool.shard_events.clear();
        for (worker, shard) in pool.workers.iter_mut().zip(&ctl.shards) {
            pool.shard_events.push(worker.events.len() as u64);
            if !worker.events.is_empty() {
                if let Err(e) = worker.start(shard) {
                    failure.get_or_insert(e);
                }
            }
        }
        pool.pulses.clear();
        pool.machines.clear();
        for (shard, worker) in pool.workers.iter_mut().enumerate() {
            match worker.finish(&mut pool.indexed) {
                Some(Ok(pulse)) => {
                    pool.pulses.push((shard, pulse.tenants));
                    pool.machines.push((shard, pulse.machines));
                }
                Some(Err(e)) => {
                    failure.get_or_insert(e);
                }
                None => {}
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        // Unstable sort: indexes are distinct, so stability is moot, and
        // (unlike the stable sort) it does not allocate a merge buffer.
        pool.indexed.sort_unstable_by_key(|(index, _)| *index);
        if live {
            if let Some(policy) = &mut ctl.policy {
                policy.observe(&pool.shard_events, &pool.pulses);
            }
            if let Some(runtime) = &mut ctl.power {
                // One metered tick: the committed outcomes refresh their
                // tenants' attribution (key and shard as routed above),
                // then the shard samples drive the meter.
                // (A failed event commits no state.)
                for ((_, o), &(key, shard)) in pool.indexed.iter().zip(&pool.routes) {
                    if let (Some(&last), Some((_, e))) =
                        (o.states.last(), ctl.intern.find_mut(key, &o.id))
                    {
                        let a = e.energy.get_or_insert_with(Default::default);
                        (a.machines, a.shard) = (last as u64, shard);
                    }
                }
                runtime.observe(
                    ctl.gate.now(),
                    &pool.shard_events,
                    &pool.machines,
                    ctl.intern.each_mut().filter_map(|e| e.energy.as_mut()),
                    &self.obs,
                );
            }
        }
        out.extend(pool.indexed.drain(..).map(|(_, o)| o));
        Ok(())
    }

    /// End-of-stream for one tenant: flush pending lookahead states.
    pub fn finish(&self, id: &str) -> Result<Vec<u32>, EngineError> {
        self.control().finish(id)
    }

    /// Capture a tenant's full state.
    pub fn snapshot(&self, id: &str) -> Result<TenantSnapshot, EngineError> {
        self.control().read_tenant(id, Tenant::snapshot)
    }

    /// Re-install a tenant from a snapshot (replaces any existing tenant
    /// with the same id). Installing a *new* tenant this way counts
    /// against the [`max_tenants`](AdmissionConfig::max_tenants) cap,
    /// exactly like `admit`; re-installing a live one is neither an admit
    /// nor a migration hazard, so it is not gated.
    pub fn restore(&self, snapshot: TenantSnapshot) -> Result<(), EngineError> {
        let mut ctl = self.control();
        if ctl.intern.lookup(&snapshot.config.id).is_none() {
            self.check_admit(&mut ctl, &snapshot.config.id)?;
        }
        self.restore_unchecked(&mut ctl, snapshot)
    }

    /// Restore bypassing admission control (recovery). The snapshot is
    /// validated before it is interned or journaled, so a refused restore
    /// leaves neither an intern entry nor a record behind.
    fn restore_unchecked(
        &self,
        ctl: &mut Control,
        snapshot: TenantSnapshot,
    ) -> Result<(), EngineError> {
        let record = self
            .journaling(ctl)
            .then(|| JournalRecord::Restore(Box::new(snapshot.clone())));
        let tenant = Tenant::from_snapshot(snapshot).map_err(EngineError::Policy)?;
        ctl.install(tenant, record)
    }

    /// Remove a tenant, returning its final report (with its attributed
    /// energy, when accounting is on). The tenant's intern entry is
    /// released — its token bucket and attribution with it — and its key
    /// is reused by a later admit.
    pub fn evict(&self, id: &str) -> Result<TenantReport, EngineError> {
        self.control().evict(id)
    }

    /// Report for one tenant.
    pub fn report(&self, id: &str) -> Result<TenantReport, EngineError> {
        let ctl = self.control();
        let mut report = ctl.read_tenant(id, Tenant::report)?;
        ctl.decorate_energy(std::slice::from_mut(&mut report));
        Ok(report)
    }

    /// Reports for every tenant, sorted by id.
    pub fn report_all(&self) -> Result<Vec<TenantReport>, EngineError> {
        let ctl = self.control();
        let mut all = Vec::new();
        ctl.each_shard(|s| all.extend(s.reports()))?;
        all.sort_by(|a, b| a.id.cmp(&b.id));
        ctl.decorate_energy(&mut all);
        Ok(all)
    }

    /// Aggregate per-shard statistics.
    pub fn shard_stats(&self) -> Result<Vec<ShardStats>, EngineError> {
        self.control().each_shard(|s| s.stats())
    }

    /// Ids of every tenant across all shards, sorted.
    pub fn tenant_ids(&self) -> Result<Vec<String>, EngineError> {
        self.control().tenant_ids()
    }

    /// Merge shard checkpoint contributions into the tenant snapshots,
    /// sorted by id, plus the per-shard aggregates in shard order.
    fn collect_dumps(
        dumps: impl IntoIterator<Item = Result<ShardDump, EngineError>>,
    ) -> Result<(Vec<TenantSnapshot>, Vec<ShardMeta>), EngineError> {
        let mut tenants = Vec::new();
        let mut shard_meta = Vec::new();
        for dump in dumps {
            let dump = dump?;
            tenants.extend(dump.snapshots);
            shard_meta.push(dump.meta);
        }
        tenants.sort_by(|a, b| a.config.id.cmp(&b.config.id));
        Ok((tenants, shard_meta))
    }

    /// Capture a full-state checkpoint and truncate the write-ahead log.
    ///
    /// Each shard rotates its WAL under its lock, at the exact position of
    /// its snapshot, so the published document plus the (now empty) new
    /// segments are equivalent to the old checkpoint plus the old WAL —
    /// committing the document then deletes the superseded files. On a
    /// [`NullStore`] engine this is a consistent no-op dump
    /// (`durable: false`).
    pub fn checkpoint(&self) -> Result<CheckpointReport, EngineError> {
        self.checkpoint_in(&self.control())
    }

    fn checkpoint_in(&self, ctl: &Control) -> Result<CheckpointReport, EngineError> {
        let lap = self.obs.clock();
        let durable = self.store.is_durable();
        let seq = self
            .store
            .begin_checkpoint()
            .map_err(EngineError::from_store)?;
        // Each shard rotates its WAL to `seq` at its capture point.
        let (tenants, shard_meta) = Engine::collect_dumps(ctl.each_shard(|s| s.checkpoint(seq))?)?;
        let count = tenants.len();
        if durable {
            self.commit_doc(seq, ctl.ring.spec(), tenants, shard_meta)?;
        }
        self.obs.lap(&self.obs.checkpoint_ns, lap);
        Ok(CheckpointReport {
            seq,
            tenants: count,
            durable,
        })
    }

    /// Publish checkpoint `seq`: the tenants and shard aggregates under
    /// topology `spec`.
    fn commit_doc(
        &self,
        seq: u64,
        spec: RingSpec,
        tenants: Vec<TenantSnapshot>,
        shard_meta: Vec<ShardMeta>,
    ) -> Result<(), EngineError> {
        let doc = CheckpointDoc {
            seq,
            shards: spec.shards,
            vnodes: spec.vnodes,
            tenants,
            shard_meta,
        };
        let payload = doc.encode();
        let lap = self.obs.clock();
        self.store
            .commit_checkpoint(seq, &payload)
            .map_err(EngineError::from_store)?;
        self.obs.wal_committed(lap);
        Ok(())
    }

    /// Re-partition the engine onto a new ring topology, live, moving
    /// **only** the tenants whose placement the ring change affects (the
    /// old-ring/new-ring route diff, [`moved_ids`]). Surviving shards stay
    /// in place (their unmoved tenants, aggregates and per-shard
    /// attribution untouched), a grow adds only the new indices, and a
    /// shrink retires the dead ones (their historical aggregates fold
    /// onto shard 0). Every tenant moves as the same live object, so the
    /// stream continues bit-exactly.
    ///
    /// Crash safety on a durable engine:
    ///
    /// 1. a [`JournalRecord::Migrate`] (the target spec and the moved-id
    ///    list) is journaled write-ahead to shard 0's WAL, so a crash
    ///    mid-migration leaves a record [`Engine::recover`] replays to
    ///    finish the topology change;
    /// 2. tenants move with take/place, bypassing the journal, and the
    ///    migration is *fenced* by a full-state checkpoint carrying the
    ///    new topology — its commit is the atomic commit point, truncating
    ///    the record away. Before it, every journaled record was routed by
    ///    the old ring; after it, the WAL restarts empty on the new ring.
    ///    No record ever spans a tenant's move.
    ///
    /// On failure before the fence commits, the moved tenants go back to
    /// their old shards and the engine keeps serving on its old topology;
    /// an error in the bookkeeping *after* the commit point is reported
    /// with the engine already on the new topology (matching the committed
    /// checkpoint — the migration happened). `vnodes = None` keeps the
    /// current ring density. Requesting the current topology is a true
    /// no-op: `moved: 0`, no journal record, no fence, no shard touched.
    pub fn rebalance(
        &mut self,
        new_shards: usize,
        vnodes: Option<usize>,
    ) -> Result<RebalanceReport, EngineError> {
        let mut ctl = self.control();
        let spec = RingSpec::new(new_shards, vnodes.unwrap_or(ctl.ring.spec().vnodes));
        self.migrate(&mut ctl, spec)
    }

    /// The one migration routine behind [`Engine::rebalance`], the
    /// autoscale policy and recovery. Post-migration shard `i` is the old
    /// shard `i` when both topologies have it, else a new plain
    /// [`Shard`]; every old shard past the new count retires, and its
    /// aggregates fold onto shard 0. A tenant moves exactly when the ring
    /// diff re-routes it. The protocol is fenced only on a durable engine
    /// whose store is attached — recovery runs it before attaching, and
    /// checkpoints afterwards itself. The current topology is a no-op.
    fn migrate(&self, ctl: &mut Control, spec: RingSpec) -> Result<RebalanceReport, EngineError> {
        if spec == ctl.ring.spec() {
            ctl.sync_policy_topology(spec.shards);
            return Ok(RebalanceReport {
                shards: spec.shards,
                vnodes: spec.vnodes,
                moved: 0,
                moved_ids: Vec::new(),
                seq: 0,
                durable: false,
                tick: ctl.gate.now(),
            });
        }
        let record = |spec: RingSpec, moved| JournalRecord::Migrate {
            shards: spec.shards,
            vnodes: spec.vnodes,
            moved,
        };
        let (old_shards, keep) = (ctl.shards.len(), ctl.shards.len().min(spec.shards));
        let ring = HashRing::new(spec);
        let ids = ctl.tenant_ids()?;
        // Sorted, because `ids` is. Every tenant of a retired shard is in
        // it: the new ring routes no tenant to an index it does not have.
        let moved = moved_ids(&ctl.ring, &ring, ids.iter().map(|s| s.as_str()));
        let durable = self.journaling(ctl);
        let lap = self.obs.clock();
        let tick = ctl.gate.now();
        self.obs.event(
            tick,
            "rebalance_begin",
            vec![
                ("shards", spec.shards.into()),
                ("vnodes", spec.vnodes.into()),
                ("moved", moved.len().into()),
                ("fenced", durable.into()),
            ],
        );
        if durable {
            // Write-ahead: the topology change is journaled before any
            // tenant moves.
            ctl.shard(0)?.journal(&record(spec, moved.clone()))?;
        }
        let seq = self
            .store
            .begin_checkpoint()
            .map_err(EngineError::from_store)?;
        // New shards are plain values with no store until the fence
        // commits, so nothing they do before the swap is journaled.
        let mut fresh: Vec<Shard> = (keep..spec.shards)
            .map(|i| Shard::new(i, &self.obs))
            .collect();
        let mut placed = 0;
        let mut retired_meta: Vec<ShardMeta> = Vec::new();
        let mut migrate = || -> Result<(), EngineError> {
            for id in &moved {
                let (key, from) = ctl.locate(id)?;
                let tenant = ctl.shard(from)?.take(key).ok_or_else(|| unknown(id))?;
                ctl.on_new_shard(&mut fresh, keep, ring.route(id), |s| s.place(key, tenant))?;
                placed += 1;
            }
            // Retired shards are empty now. Capture their aggregates: they
            // are folded into the fence document here and merged onto the
            // live shard 0 only after the commit point, so an abort never
            // double-counts.
            for shard in keep..old_shards {
                let dump = ctl.shard(shard)?.checkpoint(seq)?;
                debug_assert!(
                    dump.snapshots.is_empty(),
                    "retired shard {shard} still held tenants"
                );
                retired_meta.push(dump.meta);
            }
            if durable {
                // The fence: capture every post-migration shard (rotating
                // a survivor's WAL to this sequence), fold the retired
                // shards' history onto the document's shard 0, and commit
                // a full-state checkpoint carrying the new topology.
                let (tenants, mut shard_meta) = Engine::collect_dumps(
                    (0..spec.shards)
                        .map(|i| ctl.on_new_shard(&mut fresh, keep, i, |s| s.checkpoint(seq))?),
                )?;
                for meta in &retired_meta {
                    shard_meta[0].merge(meta);
                }
                self.commit_doc(seq, spec, tenants, shard_meta)?;
                self.obs
                    .event(tick, "rebalance_fence", vec![("seq", seq.into())]);
            }
            Ok(())
        };
        if let Err(e) = migrate() {
            self.obs.event(
                tick,
                "rebalance_abort",
                vec![("error", e.to_string().into())],
            );
            // Abort: move every tenant already placed back to its old
            // shard, drop the new shards, and keep serving on the old
            // topology.
            for id in &moved[..placed] {
                let Ok((key, from)) = ctl.locate(id) else {
                    continue;
                };
                let taken = ctl.on_new_shard(&mut fresh, keep, ring.route(id), |s| s.take(key));
                if let (Ok(Some(tenant)), Ok(mut from)) = (taken, ctl.shard(from)) {
                    from.place(key, tenant);
                }
            }
            if durable {
                ctl.neutralize(record(ctl.ring.spec(), Vec::new()));
            }
            return Err(e);
        }
        // Past the commit point: the migration *happened* (on a durable
        // engine the fence is on disk), so the swap — pure in-memory,
        // infallible — comes first. Any error in the bookkeeping below is
        // reported with the engine already on the new topology, matching
        // the store; returning the old topology here would tell the
        // caller a committed migration failed.
        ctl.shards.truncate(keep);
        ctl.shards
            .extend(fresh.into_iter().map(|shard| Arc::new(Mutex::new(shard))));
        ctl.pool.resize(spec.shards);
        ctl.ring = ring;
        ctl.intern.reroute(&ctl.ring);
        ctl.sync_policy_topology(spec.shards);
        // The in-memory shard 0 absorbs the retired shards' history
        // (matching what the fence document recorded).
        for meta in &retired_meta {
            ctl.shard(0)?.merge_meta(meta);
        }
        if ctl.attached {
            // Idempotent for the survivors; hands the new shards their
            // journaling handle.
            self.attach_store(ctl)?;
        }
        self.obs.lap(&self.obs.migration_ns, lap);
        self.obs.migration_tenants_moved.add(moved.len() as u64);
        self.obs.event(
            tick,
            "rebalance_commit",
            vec![
                ("shards", spec.shards.into()),
                ("moved", moved.len().into()),
                ("seq", seq.into()),
            ],
        );
        Ok(RebalanceReport {
            shards: spec.shards,
            vnodes: spec.vnodes,
            moved: moved.len(),
            moved_ids: moved,
            seq: if durable { seq } else { 0 },
            durable,
            tick,
        })
    }

    /// Rebuild the pre-crash engine from a store: load the newest valid
    /// checkpoint, replay the WAL tail on top of it, then write a fresh
    /// checkpoint so the next restart starts from a compact log.
    ///
    /// Replay happens before the store is attached to the shards, so
    /// replayed operations are not re-journaled, and bypasses admission
    /// control (the journaled stream *is* the admitted traffic). Per-tenant
    /// state is exact for any shard count; shard-level aggregates are only
    /// carried over when the shard count matches the checkpoint's. An
    /// interrupted rebalance (a [`JournalRecord::Migrate`], or an older
    /// build's [`JournalRecord::Rebalance`], surviving in the WAL tail) is
    /// completed: after replay the engine moves the ring diff onto the
    /// journaled topology, exactly as [`Engine::rebalance`] would have,
    /// before the fresh checkpoint.
    pub fn recover(
        cfg: EngineConfig,
        store: Arc<dyn Durability>,
    ) -> Result<(Engine, RecoveryReport), EngineError> {
        let recovery = store.recover().map_err(EngineError::from_store)?;
        let engine = Engine::spawn(cfg, store);
        let mut report = RecoveryReport {
            checkpoints_skipped: recovery.checkpoints_skipped,
            ..RecoveryReport::default()
        };
        let mut ctl = engine.control();
        if let Some(blob) = &recovery.checkpoint {
            let doc = CheckpointDoc::decode(&blob.payload).map_err(EngineError::Store)?;
            report.checkpoint_seq = doc.seq;
            for snapshot in doc.tenants {
                engine.restore_unchecked(&mut ctl, snapshot)?;
                report.tenants_restored += 1;
            }
            if doc.shards == ctl.shards.len() {
                for meta in doc.shard_meta {
                    ctl.shard(meta.shard)?.install_meta(meta);
                }
                report.shard_meta_restored = true;
            }
            engine.obs.event(
                0,
                "recovery_checkpoint_restored",
                vec![
                    ("seq", report.checkpoint_seq.into()),
                    ("tenants", report.tenants_restored.into()),
                ],
            );
        }
        let mut interrupted: Option<RingSpec> = None;
        for segment in &recovery.segments {
            report.segments += 1;
            if segment.dropped_bytes > 0 {
                report.corrupt_segments += 1;
            }
            for bytes in &segment.records {
                report.records_replayed += 1;
                match JournalRecord::decode(bytes) {
                    Err(_) => report.replay_errors += 1,
                    Ok(
                        JournalRecord::Migrate { shards, vnodes, .. }
                        | JournalRecord::Rebalance { shards, vnodes },
                    ) => {
                        // Applied after replay: tenant state is topology-
                        // independent, so order against other shards' WALs
                        // does not matter — only the last topology does.
                        // The moved list is advisory: the migration
                        // recomputes the ring diff from the live tenants.
                        interrupted = Some(RingSpec::new(shards, vnodes));
                        report.migrations_replayed += 1;
                    }
                    Ok(record) => engine.replay(&mut ctl, record, &mut report),
                }
            }
        }
        let obs = &engine.obs;
        obs.recovery_records_replayed
            .add(report.records_replayed as u64);
        obs.recovery_events_replayed
            .add(report.events_replayed as u64);
        obs.recovery_replay_errors.add(report.replay_errors as u64);
        obs.event(
            0,
            "recovery_wal_replayed",
            vec![
                ("segments", report.segments.into()),
                ("records", report.records_replayed.into()),
                ("events", report.events_replayed.into()),
                ("errors", report.replay_errors.into()),
            ],
        );
        if let Some(spec) = interrupted {
            engine.migrate(&mut ctl, spec)?;
            engine.obs.event(
                0,
                "recovery_topology_completed",
                vec![
                    ("shards", spec.shards.into()),
                    ("vnodes", spec.vnodes.into()),
                ],
            );
        }
        engine.attach_store(&mut ctl)?;
        report.post_checkpoint_seq = engine.checkpoint_in(&ctl)?.seq;
        engine.obs.event(
            0,
            "recovery_complete",
            vec![("post_checkpoint_seq", report.post_checkpoint_seq.into())],
        );
        drop(ctl);
        Ok((engine, report))
    }

    /// Re-apply one journaled operation during recovery. Failures are
    /// counted, not fatal: a journaled operation that failed originally
    /// (e.g. an evict raced with an admit) fails identically here.
    fn replay(&self, ctl: &mut Control, record: JournalRecord, report: &mut RecoveryReport) {
        let outcome = match record {
            JournalRecord::Admit(cfg) => ctl.admit_unchecked(cfg),
            JournalRecord::Batch(events) => {
                let mut resolved =
                    ctl.resolve_batch(events.into_iter().map(|e| (e.id, e.cost, e.load)));
                let mut outcomes = Vec::with_capacity(resolved.len());
                self.dispatch(ctl, &mut resolved, false, &mut outcomes)
                    .map(|()| report.events_replayed += outcomes.len())
            }
            JournalRecord::Finish(id) => ctl.finish(&id).map(|_| ()),
            JournalRecord::Evict(id) => ctl.evict(&id).map(|_| ()),
            JournalRecord::Restore(snapshot) => self.restore_unchecked(ctl, *snapshot),
            // Intercepted by the recovery loop before this point.
            JournalRecord::Rebalance { .. } | JournalRecord::Migrate { .. } => Ok(()),
        };
        if outcome.is_err() {
            report.replay_errors += 1;
        }
    }

    /// Stop all shard workers, join their threads and sync the store —
    /// what dropping the engine does.
    pub fn shutdown(self) {}
}

fn unknown(id: &str) -> EngineError {
    EngineError::UnknownTenant(id.to_string())
}

fn invalid(message: String) -> EngineError {
    EngineError::Policy(rsdc_core::Error::InvalidParameter(message))
}

impl Drop for Engine {
    fn drop(&mut self) {
        let ctl = self.control.get_mut().unwrap_or_else(|e| e.into_inner());
        ctl.pool.resize(0);
        // Whatever the store buffered reaches disk before the engine goes.
        if ctl.attached {
            let lap = self.obs.clock();
            if self.store.sync().is_ok() {
                self.obs.wal_synced(lap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;
    use rsdc_hetero::{FleetSpec, HeteroAlgo};

    /// `cycles` rounds of admit → step → evict over ever-fresh ids beside
    /// a small resident fleet, with a rate limit and energy accounting
    /// on: the intern table and every slab key index stay at the
    /// live-tenant high-water mark, and each cycle's tenant starts with a
    /// full bucket and no attributed energy.
    fn churn(cycles: usize) {
        const RESIDENT: usize = 3;
        let lcp = |id: &str| TenantConfig::new(id, 4, 2.0, PolicySpec::Lcp);
        let mut cfg = EngineConfig::with_shards(2);
        cfg.metrics = false;
        let engine = Engine::new(cfg);
        engine
            .set_limits(AdmissionConfig {
                max_tenants: 0,
                rate: 1.0,
                burst: 2.0,
            })
            .unwrap();
        engine
            .set_power(Some(PowerConfig::new(rsdc_power::PowerSpec::Linear {
                idle: 100.0,
                peak: 250.0,
            })))
            .unwrap();
        for i in 0..RESIDENT {
            engine.admit(lcp(&format!("resident-{i}"))).unwrap();
        }
        let cost = || Cost::abs(1.0, 3.0);
        let mut id = String::new();
        for cycle in 0..cycles {
            // Every tenth cycle re-admits the id just evicted.
            if cycle % 10 != 1 {
                id = format!("churn-{cycle}");
            }
            engine.admit(lcp(&id)).unwrap();
            assert!(engine.report(&id).unwrap().energy.is_none());
            // A full bucket serves the burst of 2, then throttles — in the
            // same batch as a resident tenant's step.
            let batch = vec![
                (id.clone(), cost()),
                (id.clone(), cost()),
                (id.clone(), cost()),
                (format!("resident-{}", cycle % RESIDENT), cost()),
            ];
            let errors: Vec<Option<String>> = engine
                .step_batch(batch)
                .unwrap()
                .into_iter()
                .map(|o| o.error)
                .collect();
            let throttled = AdmissionError::Throttled { id: id.clone() }.to_string();
            assert_eq!(errors, [None, None, Some(throttled), None], "cycle {cycle}");
            let report = engine.evict(&id).unwrap();
            assert_eq!(report.events, 2);
            assert!(report.energy.is_some(), "cycle {cycle}");
        }
        let high_water = RESIDENT + 1;
        assert_eq!(engine.control().intern.len(), high_water);
        for shard in &engine.control().shards {
            assert!(shard.lock().unwrap().key_span() <= high_water);
        }
        assert_eq!(engine.live_tenants().unwrap(), RESIDENT);
    }

    #[test]
    fn churned_ids_reuse_keys_and_start_fresh() {
        churn(100_000);
    }

    /// Nightly-depth churn soak (`--include-ignored`), scaled by
    /// `RSDC_HEAVY_CASES`.
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn churned_ids_reuse_keys_and_start_fresh_heavy() {
        let cases: usize = std::env::var("RSDC_HEAVY_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        churn(100_000 * cases.div_ceil(64));
    }

    #[test]
    fn refused_admits_and_restores_leave_no_intern_entry() {
        let engine = Engine::new(EngineConfig::with_shards(2));
        engine
            .admit(TenantConfig::new("live", 4, 2.0, PolicySpec::Lcp))
            .unwrap();
        let good = engine.snapshot("live").unwrap();
        let interned = || engine.control().intern.len();
        assert_eq!(interned(), 1);
        for i in 0..50 {
            let id = format!("fresh-{i}");
            let refused = [
                TenantConfig::hetero(&id, FleetSpec::new(Vec::new()), HeteroAlgo::Frontier),
                TenantConfig::new(&id, 4_000_000_000, 1.0, PolicySpec::Lcp),
                TenantConfig::new(&id, 4, -1.0, PolicySpec::Lcp),
                TenantConfig::new(&id, 4, f64::NAN, PolicySpec::Lcp),
            ];
            for cfg in refused {
                assert!(matches!(engine.admit(cfg), Err(EngineError::Policy(_))));
            }
            // A snapshot whose policy state does not fit its config.
            let mut bad = good.clone();
            bad.config.id = id.clone();
            bad.config.m = 9;
            assert!(matches!(engine.restore(bad), Err(EngineError::Policy(_))));
            let mut oversized = good.clone();
            oversized.config.id = id;
            oversized.config.m = u32::MAX;
            assert!(matches!(
                engine.restore(oversized),
                Err(EngineError::Policy(_))
            ));
        }
        // Duplicates are refused without interning either.
        assert!(matches!(
            engine.admit(TenantConfig::new("live", 4, 2.0, PolicySpec::Lcp)),
            Err(EngineError::DuplicateTenant(_))
        ));
        assert_eq!(interned(), 1);
        assert_eq!(engine.tenant_ids().unwrap(), vec!["live".to_string()]);
    }
}
