//! Shards: each shard is plain state — a disjoint set of tenants plus its
//! aggregates — owned by the [`crate::Engine`] behind one mutex per shard.
//! Control-plane operations (admit, finish, snapshot, checkpoint, …) are
//! direct calls on the caller's thread under that lock; step batches run
//! in parallel on one persistent worker thread per shard index, which
//! receives each batch through a one-slot handoff created at spawn.
//!
//! When a durable store is attached, every state-mutating operation is
//! journaled to the shard's write-ahead log *before* it is applied
//! (write-ahead discipline), and checkpoint captures rotate the WAL at the
//! exact position of the snapshot. The shard lock is held across
//! journal-then-apply, so it is the WAL serialization point: the
//! snapshot/WAL boundary is always consistent. Shard code takes no engine
//! lock.
//!
//! Tenants live in a per-shard slab addressed by the engine's interned
//! tenant key (see [`crate::intern`]): the per-event path is an array
//! index plus one indirection, not a string hash, and tenant storage is
//! sized to the shard's own tenants. Shards keep no id index of their
//! own: every operation arrives keyed, resolved against the engine's
//! intern table, and a tenant's id is read from its config. Keys are
//! reused after an evict, so a key is only a hint: every keyed lookup
//! also checks that the tenant it finds carries the id the operation
//! names, and answers "no such tenant" otherwise.
//!
//! Everything a batch reports beyond its outcomes is a running total —
//! the committed machine count and the load-aware [`ShardTotals`] — so a
//! batch costs O(batch) work and a shard's checkpointed aggregates have a
//! fixed size however many events it has processed.

use crate::journal::{JournalEvent, JournalRecord};
use crate::obs::EngineObs;
use crate::statelist::StateList;
use crate::tenant::{StepScratch, Tenant, TenantReport, TenantSnapshot};
use crate::EngineError;
use rsdc_obs::Histogram;
use rsdc_store::Durability;
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

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
    /// is not live — the shard reports it unknown without a probe).
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

impl StepOutcome {
    /// The outcome of an event that failed with `error`: nothing
    /// committed.
    pub(crate) fn failed(error: impl std::fmt::Display, id: Arc<str>) -> StepOutcome {
        StepOutcome {
            id,
            states: StateList::new(),
            configs: None,
            error: Some(error.to_string()),
        }
    }
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

/// The aggregate pulse one batch leaves behind, for the topology policy
/// and the energy meter — piggybacked so observing load costs nothing
/// extra.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pulse {
    /// Live tenants on this shard after the batch.
    pub(crate) tenants: usize,
    /// Machines committed across this shard's tenants after the batch
    /// (sum of last committed states, kept as a running total) — the
    /// energy meter's load sample.
    pub(crate) machines: u64,
}

/// One step batch in flight: the shard to apply it to, the events and
/// the vector their outcomes go into. The worker hands all three back,
/// so the buffers keep their capacity for the next batch.
struct Job {
    shard: Arc<Mutex<Shard>>,
    events: Vec<Event>,
    outcomes: Vec<(usize, StepOutcome)>,
}

/// The persistent worker thread for one shard index (named
/// `rsdc-shard-<i>`), plus the parked buffers of its next batch. The
/// handoff — a one-slot job channel and a one-slot reply channel — is
/// created once, at spawn; a batch moves the buffers over and back, so
/// steady-state dispatch allocates nothing.
pub(crate) struct Worker {
    index: usize,
    jobs: SyncSender<Job>,
    done: Receiver<(Job, Result<Pulse, EngineError>)>,
    thread: JoinHandle<()>,
    busy: bool,
    /// Events routed to this shard for the next batch.
    pub(crate) events: Vec<Event>,
    outcomes: Vec<(usize, StepOutcome)>,
}

impl Worker {
    /// Spawn the worker thread for shard index `index`. Returns once the
    /// thread runs, so it already carries its name (`/proc/<pid>/task/
    /// <tid>/comm`) for whoever looks it up, e.g. to pin it to a CPU.
    pub(crate) fn spawn(index: usize) -> Worker {
        let (jobs, inbox) = sync_channel::<Job>(1);
        let (reply, done) = sync_channel(1);
        let running = Arc::new(Barrier::new(2));
        let started = running.clone();
        let thread = std::thread::Builder::new()
            .name(format!("rsdc-shard-{index}"))
            .spawn(move || {
                started.wait();
                for mut job in inbox {
                    let result = match job.shard.lock() {
                        Ok(mut shard) => shard.batch(&mut job.events, &mut job.outcomes),
                        Err(_) => Err(EngineError::ShardDown(index)),
                    };
                    if reply.send((job, result)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn shard worker");
        running.wait();
        Worker {
            index,
            jobs,
            done,
            thread,
            busy: false,
            events: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Hand the routed events to the worker thread as a batch on `shard`.
    pub(crate) fn start(&mut self, shard: &Arc<Mutex<Shard>>) -> Result<(), EngineError> {
        let job = Job {
            shard: shard.clone(),
            events: std::mem::take(&mut self.events),
            outcomes: std::mem::take(&mut self.outcomes),
        };
        match self.jobs.send(job) {
            Ok(()) => {
                self.busy = true;
                Ok(())
            }
            Err(failed) => {
                self.park(failed.0);
                Err(EngineError::ShardDown(self.index))
            }
        }
    }

    /// Wait for the batch [`Worker::start`] handed over, if any. A
    /// successful batch's outcomes are appended to `out`; either way the
    /// buffers come back empty, so no stale event or outcome reaches the
    /// next batch.
    pub(crate) fn finish(
        &mut self,
        out: &mut Vec<(usize, StepOutcome)>,
    ) -> Option<Result<Pulse, EngineError>> {
        if !std::mem::take(&mut self.busy) {
            return None;
        }
        let Ok((mut job, result)) = self.done.recv() else {
            return Some(Err(EngineError::ShardDown(self.index)));
        };
        if result.is_ok() {
            out.append(&mut job.outcomes);
        }
        self.park(job);
        Some(result)
    }

    fn park(&mut self, mut job: Job) {
        job.events.clear();
        job.outcomes.clear();
        self.events = job.events;
        self.outcomes = job.outcomes;
    }

    /// Close the handoff and join the thread.
    pub(crate) fn stop(self) {
        drop(self.jobs);
        let _ = self.thread.join();
    }
}

/// A shard's tenant storage: tenants packed densely in a vector sized to
/// this shard's own tenants, plus a `u32` position per interned key. The
/// index spans the engine-wide key space (the live-tenant high-water
/// mark, since keys are reused) at 4 bytes a key; the tenants do not.
#[derive(Default)]
struct Slab {
    /// Position in `tenants` per key ([`VACANT`] for keys whose tenant
    /// lives on another shard or is not live). A shard holds at most one
    /// tenant per key and keys stay below [`crate::intern::UNKNOWN_KEY`],
    /// so positions fit below `VACANT`.
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

    /// The tenant under `key`, if it is the tenant `id` names.
    fn get(&self, key: u32, id: &str) -> Option<&Tenant> {
        let tenant = &self.tenants[self.position(key)?].1;
        (tenant.config().id == id).then_some(tenant)
    }

    fn get_mut(&mut self, key: u32, id: &str) -> Option<&mut Tenant> {
        let at = self.position(key)?;
        let tenant = &mut self.tenants[at].1;
        (tenant.config().id == id).then_some(tenant)
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

    fn len(&self) -> usize {
        self.tenants.len()
    }
}

/// One shard's state: its tenants, aggregates and journaling handle.
pub struct Shard {
    index: usize,
    slab: Slab,
    /// Running sum of every live tenant's last committed state. Each
    /// update adds the new state before subtracting the old, so no
    /// intermediate value underflows.
    machines: u64,
    meta: ShardMeta,
    store: Option<Arc<dyn Durability>>,
    obs: Arc<EngineObs>,
    /// This shard's `engine_batch_ns{shard}` histogram.
    batch_ns: Histogram,
    scratch: StepScratch,
}

impl Shard {
    /// An empty shard `index`, journaling nothing until a store is
    /// attached.
    pub(crate) fn new(index: usize, obs: &Arc<EngineObs>) -> Shard {
        Shard {
            index,
            slab: Slab::default(),
            machines: 0,
            meta: ShardMeta::new(index),
            store: None,
            obs: Arc::clone(obs),
            batch_ns: obs.shard_batch_ns(index),
            scratch: StepScratch::default(),
        }
    }

    /// Journal subsequent mutations through `store`.
    pub(crate) fn attach(&mut self, store: Arc<dyn Durability>) {
        self.store = Some(store);
    }

    fn durable(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_durable())
    }

    /// Write-ahead hook: persist `record` to this shard's WAL. Callers
    /// journal *before* mutating, so a crash between the two replays the
    /// mutation instead of losing it.
    pub(crate) fn journal(&self, record: &JournalRecord) -> Result<(), EngineError> {
        if self.durable() {
            let store = self.store.as_ref().expect("durable implies store");
            let payload = record.encode();
            let lap = self.obs.clock();
            store
                .append(self.index, &payload)
                .map_err(|e| EngineError::Store(e.to_string()))?;
            self.obs.wal_appended(lap, payload.len());
        }
        Ok(())
    }

    /// Capture this shard's checkpoint contribution, rotating its WAL to
    /// the segment for checkpoint `seq` at the capture point.
    pub(crate) fn checkpoint(&mut self, seq: u64) -> Result<ShardDump, EngineError> {
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

    /// Tenant `id`, found under slab key `key`, if it lives on this
    /// shard.
    pub(crate) fn tenant(&self, key: u32, id: &str) -> Option<&Tenant> {
        self.slab.get(key, id)
    }

    /// Reports for every tenant on this shard, in no particular order.
    pub(crate) fn reports(&self) -> impl Iterator<Item = TenantReport> + '_ {
        self.slab.iter().map(|t| t.report())
    }

    /// Ids of the tenants on this shard, in no particular order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = &String> {
        self.slab.iter().map(|t| &t.config().id)
    }

    /// Place `tenant` under `key`, replacing any tenant already there.
    /// Bypasses the journal: an admit or restore journals its record
    /// first, and a migration's moves are covered by its write-ahead
    /// topology record plus the fencing checkpoint.
    pub(crate) fn place(&mut self, key: u32, tenant: Tenant) {
        self.machines += tenant.last_state() as u64;
        if let Some(old) = self.slab.insert(key, tenant) {
            self.machines -= old.last_state() as u64;
        }
    }

    /// Remove the tenant under `key` without journaling (migration
    /// plumbing, like [`Shard::place`]).
    pub(crate) fn take(&mut self, key: u32) -> Option<Tenant> {
        let tenant = self.slab.remove(key)?;
        self.machines -= tenant.last_state() as u64;
        Some(tenant)
    }

    /// Journal and remove tenant `id` from under `key`, returning its
    /// final report (`None` when it does not live there).
    pub(crate) fn evict(
        &mut self,
        key: u32,
        id: &str,
    ) -> Result<Option<TenantReport>, EngineError> {
        if self.slab.get(key, id).is_none() {
            return Ok(None);
        }
        self.journal(&JournalRecord::Evict(id.to_string()))?;
        Ok(self.take(key).map(|t| t.report()))
    }

    /// Run one batch: journal it as one record, then step each event,
    /// appending its outcome (tagged with its batch position) to `out`.
    /// `events` is drained on success; on a journal failure nothing is
    /// applied.
    fn batch(
        &mut self,
        events: &mut Vec<Event>,
        out: &mut Vec<(usize, StepOutcome)>,
    ) -> Result<Pulse, EngineError> {
        // One clock pair per *batch*, journal included, gated on the
        // registry's flag — with metrics off the hot path pays exactly
        // this branch and two counter no-ops.
        let lap = self.obs.clock();
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
        let (mut ingested, mut dropped) = (0u64, 0u64);
        for ev in events.drain(..) {
            let Some(tenant) = self.slab.get_mut(ev.key, &ev.id) else {
                dropped += 1;
                let error = EngineError::UnknownTenant(ev.id.to_string());
                out.push((ev.index, StepOutcome::failed(error, ev.id)));
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
                    out.push((ev.index, StepOutcome::failed(e, ev.id)));
                }
            }
        }
        self.obs.events_ingested.add(ingested);
        self.obs.events_dropped.add(dropped);
        self.obs.lap(&self.batch_ns, lap);
        Ok(Pulse {
            tenants: self.slab.len(),
            machines: self.machines,
        })
    }

    /// End-of-stream for tenant `id` under `key`: journal, then flush its
    /// pending lookahead states (`None` when it does not live there).
    pub(crate) fn finish(&mut self, key: u32, id: &str) -> Result<Option<Vec<u32>>, EngineError> {
        if self.slab.get(key, id).is_none() {
            return Ok(None);
        }
        self.journal(&JournalRecord::Finish(id.to_string()))?;
        let tenant = self.slab.get_mut(key, id).expect("keyed above");
        let before = tenant.last_state() as u64;
        let effect = tenant.finish();
        self.machines = self.machines + tenant.last_state() as u64 - before;
        let states = effect.states();
        self.scratch.effect = effect;
        self.meter();
        Ok(Some(states))
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

    /// Install shard-level aggregates from a checkpoint (recovery).
    pub(crate) fn install_meta(&mut self, meta: ShardMeta) {
        self.meta = ShardMeta {
            shard: self.index,
            ..meta
        };
    }

    /// Fold another shard's aggregates into this one's (a migration
    /// retiring shards folds their history onto shard 0).
    pub(crate) fn merge_meta(&mut self, meta: &ShardMeta) {
        self.meta.merge(meta);
    }

    /// Length of the slab's key index (the highest key placed here + 1).
    #[cfg(test)]
    pub(crate) fn key_span(&self) -> usize {
        self.slab.index.len()
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let totals = &self.meta.metrics;
        ShardStats {
            shard: self.index,
            tenants: self.slab.len(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicySpec, TenantConfig};

    /// Keys are reused after an evict: a lookup keyed by a key that now
    /// holds another tenant misses, for every keyed operation.
    #[test]
    fn stale_keys_miss_the_tenant_that_reused_them() {
        let mut shard = Shard::new(0, &Arc::new(EngineObs::new(false, 1)));
        let tenant = |id: &str| Tenant::new(TenantConfig::new(id, 4, 2.0, PolicySpec::Lcp));
        shard.place(0, tenant("z").unwrap());
        assert!(shard.tenant(0, "a").is_none());
        assert!(shard.finish(0, "a").unwrap().is_none());
        assert!(shard.evict(0, "a").unwrap().is_none());
        let event = |id: &str| Event {
            index: 0,
            id: Arc::from(id),
            key: 0,
            cost: rsdc_core::Cost::abs(1.0, 2.0),
            load: None,
        };
        let mut out = Vec::new();
        shard.batch(&mut vec![event("a")], &mut out).unwrap();
        let unknown = EngineError::UnknownTenant("a".into()).to_string();
        assert_eq!(out[0].1.error.as_deref(), Some(unknown.as_str()));
        assert_eq!(shard.tenant(0, "z").unwrap().report().events, 0);
        shard.batch(&mut vec![event("z")], &mut out).unwrap();
        assert!(out[1].1.error.is_none());
        assert!(shard.evict(0, "z").unwrap().is_some());
    }
}
