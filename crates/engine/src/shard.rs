//! Shard workers: each shard is one OS thread owning a disjoint set of
//! tenants, driven by batched requests over an MPSC channel.
//!
//! When a durable store is attached, every state-mutating request is
//! journaled to the shard's write-ahead log *before* it is applied
//! (write-ahead discipline), and checkpoint captures rotate the WAL at the
//! exact request-stream position of the snapshot — the shard thread is the
//! serialization point, so the snapshot/WAL boundary is always consistent.
//!
//! Tenants live in a per-shard slab addressed by the engine's interned
//! tenant key (see [`crate::intern`]): the per-event path is an array
//! index plus one indirection, not a string hash, and tenant storage is
//! sized to the shard's own tenants. A small id → key side map serves the
//! cold control ops (snapshot/evict/report-by-id), which still arrive
//! keyed by id.
//!
//! Everything a batch reports beyond its outcomes is a running total —
//! the committed machine count and the load-aware [`ShardTotals`] — so a
//! batch costs O(batch) work and a shard's checkpointed aggregates have a
//! fixed size however many events it has processed.

use crate::journal::{JournalEvent, JournalRecord};
use crate::obs::{EngineObs, ShardObs};
use crate::statelist::StateList;
use crate::tenant::{StepScratch, Tenant, TenantConfig, TenantReport, TenantSnapshot};
use crate::EngineError;
use rsdc_store::Durability;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// One streamed event: a tenant id (shared, interned), its slab key, the
/// next cost function, and (when the event was derived from a load) the
/// offered load — which feeds the shard-level [`ShardTotals`].
#[derive(Debug)]
pub struct Event {
    /// Original position in the caller's batch (used to reassemble replies
    /// in submission order).
    pub index: usize,
    /// Tenant id (interned; shared with the engine's intern table).
    pub id: Arc<str>,
    /// The tenant's slab key ([`crate::intern::UNKNOWN_KEY`] when the id
    /// was never admitted — the shard reports it unknown without a probe).
    pub key: u32,
    /// Cost function for this slot.
    pub cost: rsdc_core::Cost,
    /// Offered load, when known.
    pub load: Option<f64>,
}

/// States committed in response to one [`Event`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Tenant id.
    pub id: Arc<str>,
    /// Newly committed states in slot order (empty while a lookahead
    /// window fills). For heterogeneous tenants: total active machines.
    /// Stored inline for the common short lists, so the hot path commits
    /// without a heap allocation.
    pub states: StateList,
    /// Newly committed configurations in slot order (heterogeneous
    /// tenants only; one vector per committed slot).
    pub configs: Option<Vec<Vec<u32>>>,
    /// Per-event failure (e.g. unknown tenant, or a hetero step without a
    /// load). A failed event never poisons the other events of its batch.
    pub error: Option<String>,
}

/// Aggregate statistics for one shard, derived in O(1) from its
/// [`ShardTotals`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Live tenants.
    pub tenants: usize,
    /// Events processed.
    pub events: u64,
    /// States committed.
    pub states: u64,
    /// Load-carrying committed slots counted in the load-aware totals
    /// (a commit whose slot carried no load is not counted).
    pub metric_slots: u64,
    /// Server-slots committed over those slots: 1 unit per committed
    /// server per slot. A logical-fleet count, not joules — the engine's
    /// `PowerModel` meter reports energy.
    pub total_energy: f64,
    /// Fraction of offered load dropped (capacity shortfall).
    pub drop_rate: f64,
    /// Mean committed servers per load-aware slot.
    pub mean_committed: f64,
    /// Total power-up events.
    pub total_wakes: u64,
}

/// A shard's running load-aware totals over its load-carrying commits,
/// in a logical-fleet model: every committed server serves (and costs 1
/// unit per slot), so a slot serves `min(load, state)` and drops the
/// rest. Fixed-size, so checkpoints do not grow with event count.
///
/// Summing in slot order gives bit-for-bit the values a full per-slot log
/// would sum to. Merging two shards' totals (on a rebalance) adds the
/// integer fields exactly; the two float sums become `a + b`, which can
/// differ from the sum over the concatenated slots in the last bits.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ShardTotals {
    /// Load-carrying committed slots.
    pub slots: u64,
    /// Offered load, summed.
    pub load: f64,
    /// Load dropped for lack of committed servers, summed.
    pub dropped: f64,
    /// Committed servers, summed (server-slots).
    pub committed: u64,
    /// Servers powered up entering those slots, summed.
    pub wakes: u64,
}

impl ShardTotals {
    /// Count one load-carrying committed slot.
    pub(crate) fn record(&mut self, state: u32, load: f64, ups: u64) {
        self.slots += 1;
        self.load += load;
        self.dropped += (load - state as f64).max(0.0);
        self.committed += state as u64;
        self.wakes += ups;
    }

    /// Fold another shard's totals into these (exact for the counts).
    pub(crate) fn merge(&mut self, other: &ShardTotals) {
        self.slots += other.slots;
        self.load += other.load;
        self.dropped += other.dropped;
        self.committed += other.committed;
        self.wakes += other.wakes;
    }

    /// Fraction of offered load dropped (0 when no load was offered).
    pub(crate) fn drop_rate(&self) -> f64 {
        if self.load == 0.0 {
            0.0
        } else {
            self.dropped / self.load
        }
    }

    /// Mean committed servers per counted slot (0 before the first).
    pub(crate) fn mean_committed(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.committed as f64 / self.slots as f64
        }
    }
}

/// Decodes both the current field form and the per-slot record log that
/// checkpoints written before running totals carry
/// (`{"records":[{"committed":..,"load":..,"woken":..,..},..]}`),
/// recording each in slot order — so the recovered totals are
/// bit-identical to what the old log summed to.
impl Deserialize for ShardTotals {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            let f = v
                .get_field(name)
                .ok_or_else(|| serde::DeError::missing_field("ShardTotals", name))?;
            T::from_value(f)
        }
        let Some(records) = v.get_field("records") else {
            return Ok(ShardTotals {
                slots: field(v, "slots")?,
                load: field(v, "load")?,
                dropped: field(v, "dropped")?,
                committed: field(v, "committed")?,
                wakes: field(v, "wakes")?,
            });
        };
        let records = records
            .as_array()
            .ok_or_else(|| serde::DeError::custom("ShardTotals: records is not an array"))?;
        let mut totals = ShardTotals::default();
        for r in records {
            let woken: u32 = field(r, "woken")?;
            totals.record(field(r, "committed")?, field(r, "load")?, woken as u64);
        }
        Ok(totals)
    }
}

/// Aggregate shard state that lives outside any tenant: the counters and
/// load totals a checkpoint must carry for the recovered engine to be
/// bit-identical to the pre-crash one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardMeta {
    /// Shard index.
    pub shard: usize,
    /// Events processed.
    pub events: u64,
    /// States committed.
    pub states: u64,
    /// Load-aware running totals accumulated by this shard.
    pub metrics: ShardTotals,
}

impl ShardMeta {
    /// Empty aggregates for shard `shard`.
    pub(crate) fn new(shard: usize) -> Self {
        ShardMeta {
            shard,
            events: 0,
            states: 0,
            metrics: ShardTotals::default(),
        }
    }

    /// Fold another shard's aggregates into these (used when a rebalance
    /// retires shards: fleet totals survive on the target shard).
    pub(crate) fn merge(&mut self, other: &ShardMeta) {
        self.events += other.events;
        self.states += other.states;
        self.metrics.merge(&other.metrics);
    }
}

/// What one shard contributes to a checkpoint: every tenant snapshot plus
/// the shard-level aggregates, captured atomically with the WAL rotation.
#[derive(Debug, Clone)]
pub struct ShardDump {
    /// Tenant snapshots, sorted by id.
    pub snapshots: Vec<TenantSnapshot>,
    /// Shard-level aggregate state.
    pub meta: ShardMeta,
}

/// One shard's reply to a [`Request::Batch`]: the per-event outcomes plus
/// the aggregate pulse the topology policy feeds on (the shard's live
/// tenant count after the batch) — piggybacked so observing load costs no
/// extra round trips.
#[derive(Debug)]
pub struct BatchReply {
    /// Outcomes, tagged with their original batch positions.
    pub outcomes: Vec<(usize, StepOutcome)>,
    /// The drained event buffer, handed back so the engine's dispatch
    /// pool can reuse its capacity (steady state allocates no new event
    /// vectors).
    pub events: Vec<Event>,
    /// Live tenants on this shard after the batch.
    pub tenants: usize,
    /// Machines committed across this shard's tenants after the batch
    /// (sum of last committed states, kept as a running total) — the
    /// energy meter's load sample.
    pub machines: u64,
}

/// Requests a shard worker serves. Slot-addressed requests carry the
/// interned key the engine resolved; id strings ride along for journaling
/// and error messages.
pub enum Request {
    /// Admit a new tenant under the given interned key.
    Admit(TenantConfig, u32, Sender<Result<(), EngineError>>),
    /// Process a batch of events (already routed to this shard).
    Batch(Vec<Event>, Sender<Result<BatchReply, EngineError>>),
    /// End-of-stream for one tenant: flush lookahead states.
    Finish(String, Sender<Result<StepOutcome, EngineError>>),
    /// Capture one tenant's full state.
    Snapshot(String, Sender<Result<TenantSnapshot, EngineError>>),
    /// Fetch one tenant's static configuration.
    Config(String, Sender<Result<TenantConfig, EngineError>>),
    /// Re-install a tenant from a snapshot (admits it if absent).
    Restore(Box<TenantSnapshot>, u32, Sender<Result<(), EngineError>>),
    /// Migration plumbing: remove a tenant and hand back its snapshot
    /// **without journaling** — an incremental migration's moves are
    /// covered by the write-ahead `Migrate` record plus the fencing
    /// checkpoint, so per-tenant records would corrupt replay (a
    /// journaled `Evict` would delete the tenant on recovery).
    Extract(String, Sender<Result<TenantSnapshot, EngineError>>),
    /// Migration plumbing: install a tenant from a snapshot **without
    /// journaling** (counterpart of [`Extract`](Request::Extract); also
    /// used to land tenants on freshly spawned workers).
    Install(Box<TenantSnapshot>, u32, Sender<Result<(), EngineError>>),
    /// Remove a tenant, returning its final report.
    Evict(String, Sender<Result<TenantReport, EngineError>>),
    /// Report one tenant (`Some(id)`) or all tenants on this shard.
    Report(
        Option<String>,
        Sender<Result<Vec<TenantReport>, EngineError>>,
    ),
    /// Shard-level aggregate statistics.
    Stats(Sender<ShardStats>),
    /// Ids of the tenants living on this shard (sorted).
    TenantIds(Sender<Vec<String>>),
    /// Attach a durability backend: subsequent mutations are journaled.
    AttachStore(Arc<dyn Durability>, Sender<()>),
    /// Journal a record to this shard's WAL without applying anything —
    /// the engine handle routes control-plane records (topology changes)
    /// through the owning shard thread so WAL appends stay serialized.
    Journal(Box<JournalRecord>, Sender<Result<(), EngineError>>),
    /// Capture this shard's checkpoint contribution, rotating its WAL to
    /// the segment for the given checkpoint sequence at the capture point.
    Checkpoint(u64, Sender<Result<ShardDump, EngineError>>),
    /// Install shard-level aggregates from a checkpoint (recovery only).
    InstallMeta(Box<ShardMeta>, Sender<()>),
    /// Merge shard-level aggregates *into* this shard's own (used when an
    /// incremental migration retires shards: the retired indices' history
    /// folds onto shard 0 so fleet totals stay exact).
    MergeMeta(Box<ShardMeta>, Sender<()>),
    /// Stop the worker.
    Shutdown,
}

/// A shard's tenant storage: tenants packed densely in a vector sized to
/// this shard's own tenants, plus a `u32` position per interned key. The
/// index spans the engine-wide key space at 4 bytes a key; the tenants do
/// not.
#[derive(Default)]
struct Slab {
    /// Position in `tenants` per key ([`VACANT`] for keys whose tenant
    /// lives on another shard, was evicted, or was never admitted). A
    /// shard holds at most one tenant per key and keys stay below
    /// [`crate::intern::UNKNOWN_KEY`], so positions fit below `VACANT`.
    index: Vec<u32>,
    /// Live tenants with their keys, in no particular order.
    tenants: Vec<(u32, Tenant)>,
}

const VACANT: u32 = u32::MAX;

impl Slab {
    fn position(&self, key: u32) -> Option<usize> {
        match self.index.get(key as usize) {
            Some(&at) if at != VACANT => Some(at as usize),
            _ => None,
        }
    }

    fn get(&self, key: u32) -> Option<&Tenant> {
        self.position(key).map(|at| &self.tenants[at].1)
    }

    fn get_mut(&mut self, key: u32) -> Option<&mut Tenant> {
        self.position(key).map(|at| &mut self.tenants[at].1)
    }

    /// Place `tenant` under `key`, returning the tenant it replaced.
    fn insert(&mut self, key: u32, tenant: Tenant) -> Option<Tenant> {
        if let Some(at) = self.position(key) {
            return Some(std::mem::replace(&mut self.tenants[at].1, tenant));
        }
        let at = key as usize;
        if at >= self.index.len() {
            self.index.resize(at + 1, VACANT);
        }
        self.index[at] = self.tenants.len() as u32;
        self.tenants.push((key, tenant));
        None
    }

    /// Remove the tenant under `key`; the last tenant fills its place.
    fn remove(&mut self, key: u32) -> Option<Tenant> {
        let at = self.position(key)?;
        self.index[key as usize] = VACANT;
        let (_, tenant) = self.tenants.swap_remove(at);
        if let Some(&(moved, _)) = self.tenants.get(at) {
            self.index[moved as usize] = at as u32;
        }
        Some(tenant)
    }

    fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter().map(|(_, t)| t)
    }
}

/// State owned by one shard thread.
pub struct Shard {
    index: usize,
    slab: Slab,
    /// Cold-path id → key map for the control ops that address by id.
    by_id: HashMap<String, u32>,
    /// Running sum of every live tenant's last committed state. Each
    /// update adds the new state before subtracting the old, so no
    /// intermediate value underflows.
    machines: u64,
    meta: ShardMeta,
    store: Option<Arc<dyn Durability>>,
    obs: ShardObs,
    scratch: StepScratch,
}

impl Shard {
    /// Worker entry point: serve requests until `Shutdown` or hangup.
    pub fn run(index: usize, rx: Receiver<Request>, obs: Arc<EngineObs>) {
        let mut shard = Shard {
            index,
            slab: Slab::default(),
            by_id: HashMap::new(),
            machines: 0,
            meta: ShardMeta::new(index),
            store: None,
            obs: ShardObs::for_shard(&obs, index),
            scratch: StepScratch::default(),
        };
        while let Ok(req) = rx.recv() {
            match req {
                Request::Admit(cfg, key, reply) => {
                    let _ = reply.send(shard.admit(cfg, key));
                }
                Request::Batch(events, reply) => {
                    let _ = reply.send(shard.batch(events));
                }
                Request::Finish(id, reply) => {
                    let _ = reply.send(shard.finish(&id));
                }
                Request::Snapshot(id, reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| t.snapshot()));
                }
                Request::Config(id, reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| t.config().clone()));
                }
                Request::Restore(snapshot, key, reply) => {
                    let _ = reply.send(shard.restore(*snapshot, key));
                }
                Request::Extract(id, reply) => {
                    let _ = reply.send(shard.extract(&id));
                }
                Request::Install(snapshot, key, reply) => {
                    let _ = reply.send(shard.install(*snapshot, key));
                }
                Request::Evict(id, reply) => {
                    let _ = reply.send(shard.evict(&id));
                }
                Request::Report(Some(id), reply) => {
                    let _ = reply.send(shard.tenant(&id).map(|t| vec![t.report()]));
                }
                Request::Report(None, reply) => {
                    let mut reports: Vec<TenantReport> =
                        shard.slab.iter().map(|t| t.report()).collect();
                    reports.sort_by(|a, b| a.id.cmp(&b.id));
                    let _ = reply.send(Ok(reports));
                }
                Request::Stats(reply) => {
                    let _ = reply.send(shard.stats());
                }
                Request::TenantIds(reply) => {
                    let mut ids: Vec<String> = shard.by_id.keys().cloned().collect();
                    ids.sort_unstable();
                    let _ = reply.send(ids);
                }
                Request::AttachStore(store, reply) => {
                    shard.store = Some(store);
                    let _ = reply.send(());
                }
                Request::Journal(record, reply) => {
                    let _ = reply.send(shard.journal(&record));
                }
                Request::Checkpoint(seq, reply) => {
                    let _ = reply.send(shard.checkpoint(seq));
                }
                Request::InstallMeta(meta, reply) => {
                    shard.meta = ShardMeta {
                        shard: index,
                        ..*meta
                    };
                    let _ = reply.send(());
                }
                Request::MergeMeta(meta, reply) => {
                    shard.meta.merge(&meta);
                    let _ = reply.send(());
                }
                Request::Shutdown => break,
            }
        }
        // Whatever the store buffered reaches disk before the thread dies.
        if let Some(store) = &shard.store {
            let _ = store.sync();
        }
    }

    fn durable(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_durable())
    }

    /// Write-ahead hook: persist `record` to this shard's WAL. Callers
    /// journal *before* mutating, so a crash between the two replays the
    /// mutation instead of losing it.
    fn journal(&self, record: &JournalRecord) -> Result<(), EngineError> {
        if self.durable() {
            let store = self.store.as_ref().expect("durable implies store");
            store
                .append(self.index, &record.encode())
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, seq: u64) -> Result<ShardDump, EngineError> {
        if self.durable() {
            let store = self.store.as_ref().expect("durable implies store");
            store
                .rotate(self.index, seq)
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        let mut snapshots: Vec<TenantSnapshot> = self.slab.iter().map(|t| t.snapshot()).collect();
        snapshots.sort_by(|a, b| a.config.id.cmp(&b.config.id));
        Ok(ShardDump {
            snapshots,
            meta: self.meta.clone(),
        })
    }

    fn tenant(&self, id: &str) -> Result<&Tenant, EngineError> {
        self.by_id
            .get(id)
            .and_then(|&key| self.slab.get(key))
            .ok_or_else(|| EngineError::UnknownTenant(id.to_string()))
    }

    /// Place `tenant` under `key`, replacing any tenant already there.
    fn place(&mut self, key: u32, tenant: Tenant) {
        let id = tenant.config().id.clone();
        self.machines += tenant.last_state() as u64;
        if let Some(old) = self.slab.insert(key, tenant) {
            self.machines -= old.last_state() as u64;
        }
        self.by_id.insert(id, key);
    }

    fn admit(&mut self, cfg: TenantConfig, key: u32) -> Result<(), EngineError> {
        if self.by_id.contains_key(&cfg.id) {
            return Err(EngineError::DuplicateTenant(cfg.id));
        }
        // Validate (and build) before journaling so an invalid config is
        // rejected without leaving a doomed admit in the WAL.
        let tenant = Tenant::new(cfg.clone()).map_err(EngineError::Policy)?;
        self.journal(&JournalRecord::Admit(cfg))?;
        self.place(key, tenant);
        Ok(())
    }

    fn take(&mut self, id: &str) -> Option<Tenant> {
        let key = self.by_id.remove(id)?;
        let tenant = self.slab.remove(key)?;
        self.machines -= tenant.last_state() as u64;
        Some(tenant)
    }

    fn evict(&mut self, id: &str) -> Result<TenantReport, EngineError> {
        if !self.by_id.contains_key(id) {
            return Err(EngineError::UnknownTenant(id.to_string()));
        }
        self.journal(&JournalRecord::Evict(id.to_string()))?;
        Ok(self.take(id).expect("checked above").report())
    }

    /// Remove a tenant and return its snapshot, bypassing the journal
    /// (incremental-migration plumbing; see [`Request::Extract`]).
    fn extract(&mut self, id: &str) -> Result<TenantSnapshot, EngineError> {
        self.take(id)
            .map(|t| t.snapshot())
            .ok_or_else(|| EngineError::UnknownTenant(id.to_string()))
    }

    /// Install a tenant from a snapshot, bypassing the journal
    /// (incremental-migration plumbing; see [`Request::Install`]).
    fn install(&mut self, snapshot: TenantSnapshot, key: u32) -> Result<(), EngineError> {
        let tenant = Tenant::from_snapshot(snapshot).map_err(EngineError::Policy)?;
        self.place(key, tenant);
        Ok(())
    }

    fn batch(&mut self, mut events: Vec<Event>) -> Result<BatchReply, EngineError> {
        // One clock pair per *batch*, journal included, gated on a bool
        // baked in at spawn — with metrics off the hot path pays exactly
        // this branch and two counter no-ops.
        let lap = if self.obs.enabled {
            Some(Instant::now())
        } else {
            None
        };
        if self.durable() {
            // The whole batch is one WAL record, including events that will
            // fail with a per-event error: replay reproduces the outcomes
            // identically either way, and one record per batch is what
            // keeps journaling off the per-event hot path.
            let record = JournalRecord::Batch(
                events
                    .iter()
                    .map(|ev| JournalEvent {
                        id: ev.id.to_string(),
                        cost: ev.cost.clone(),
                        load: ev.load,
                    })
                    .collect(),
            );
            self.journal(&record)?;
        }
        let mut out = Vec::with_capacity(events.len());
        let (mut ingested, mut dropped) = (0u64, 0u64);
        for ev in events.drain(..) {
            let Some(tenant) = self.slab.get_mut(ev.key) else {
                dropped += 1;
                out.push((
                    ev.index,
                    StepOutcome {
                        error: Some(EngineError::UnknownTenant(ev.id.to_string()).to_string()),
                        id: ev.id,
                        states: StateList::new(),
                        configs: None,
                    },
                ));
                continue;
            };
            let before = tenant.last_state() as u64;
            match tenant.step_into(&ev.cost, ev.load, &mut self.scratch) {
                Ok(()) => {
                    self.machines = self.machines + tenant.last_state() as u64 - before;
                    let effect = &self.scratch.effect;
                    self.meta.events += 1;
                    ingested += 1;
                    out.push((
                        ev.index,
                        StepOutcome {
                            id: ev.id,
                            states: effect.state_list(),
                            configs: effect.configs(),
                            error: None,
                        },
                    ));
                    self.meter();
                }
                // Deterministic per-event failure (e.g. a hetero step with
                // no load): replay reproduces it identically.
                Err(e) => {
                    dropped += 1;
                    out.push((
                        ev.index,
                        StepOutcome {
                            id: ev.id,
                            states: StateList::new(),
                            configs: None,
                            error: Some(e.to_string()),
                        },
                    ));
                }
            }
        }
        self.obs.ingested.add(ingested);
        self.obs.dropped.add(dropped);
        if let Some(start) = lap {
            self.obs
                .batch_ns
                .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        Ok(BatchReply {
            outcomes: out,
            events,
            tenants: self.by_id.len(),
            machines: self.machines,
        })
    }

    fn finish(&mut self, id: &str) -> Result<StepOutcome, EngineError> {
        let Some(&key) = self.by_id.get(id) else {
            return Err(EngineError::UnknownTenant(id.to_string()));
        };
        self.journal(&JournalRecord::Finish(id.to_string()))?;
        let tenant = self.slab.get_mut(key).expect("keyed above");
        let before = tenant.last_state() as u64;
        let effect = tenant.finish();
        self.machines = self.machines + tenant.last_state() as u64 - before;
        let id: Arc<str> = Arc::from(id);
        let outcome = StepOutcome {
            id,
            states: effect.state_list(),
            configs: effect.configs(),
            error: None,
        };
        self.scratch.effect = effect;
        self.meter();
        Ok(outcome)
    }

    /// Count the scratch effect's commits: every commit towards `states`,
    /// and each load-carrying one into the load totals — paired with *its
    /// own* slot's load (they differ under lookahead lag).
    fn meter(&mut self) {
        let commits = &self.scratch.effect.commits;
        self.meta.states += commits.len() as u64;
        for c in commits {
            if let Some(load) = c.load {
                self.meta.metrics.record(c.state, load, c.ups);
            }
        }
    }

    fn restore(&mut self, snapshot: TenantSnapshot, key: u32) -> Result<(), EngineError> {
        if self.durable() {
            self.journal(&JournalRecord::Restore(Box::new(snapshot.clone())))?;
        }
        self.install(snapshot, key)
    }

    fn stats(&self) -> ShardStats {
        let totals = &self.meta.metrics;
        ShardStats {
            shard: self.index,
            tenants: self.by_id.len(),
            events: self.meta.events,
            states: self.meta.states,
            metric_slots: totals.slots,
            total_energy: totals.committed as f64,
            drop_rate: totals.drop_rate(),
            mean_committed: totals.mean_committed(),
            total_wakes: totals.wakes,
        }
    }
}
