//! The engine's energy runtime: the [`EnergyMeter`] plus the handle-side
//! bookkeeping that feeds it — last-known per-shard machine counts, the
//! per-tenant attribution pass, and the floor-diff emission into the
//! metrics registry.
//!
//! Per-tenant attribution lives on the tenants' intern entries
//! ([`crate::intern`]), not in a map of its own: a tenant's
//! [`Attribution`] starts at its first commit under the current meter,
//! is released with its entry when it is evicted (a re-admitted id
//! starts with none), and is cleared fleet-wide when a new meter is
//! installed. Attribution memory is therefore bounded by the live-tenant
//! high-water mark, and ids that are not live are never charged.
//!
//! Like the metrics registry, the admission gate and the topology policy,
//! the runtime is **process state, never journaled**: enabling energy
//! accounting changes no journaled byte, and a recovered engine restarts
//! its meter from zero. The regression tests hold the engine to that.

use crate::obs::EngineObs;
use crate::tenant::TenantEnergy;
use rsdc_obs::Gauge;
use rsdc_power::{EnergyDelta, EnergyMeter, PowerConfig, PowerModel, ShardSample};

/// Handle-side energy accounting state (lives under the engine's handle
/// lock; one instance per `set_power(Some(..))` install).
pub(crate) struct PowerRuntime {
    meter: EnergyMeter,
    /// Last-known machines per shard. Shards that served no events this
    /// tick keep drawing at their last reported commitment — machines do
    /// not power down just because a batch skipped their shard.
    shard_machines: Vec<u64>,
    /// Per-shard watts gauges, registered lazily as shards appear.
    gauges: Vec<Gauge>,
    /// Whole joules already emitted to the registry counter.
    emitted_joules: u64,
    /// Cost milli-units already emitted to the registry counter.
    emitted_cost_milli: u64,
}

/// One tenant's machine count and attributed energy under the current
/// meter, kept on its intern entry.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Attribution {
    /// The tenant's last committed state.
    pub(crate) machines: u64,
    /// The shard the tenant last committed on — where its machines run,
    /// and therefore whose utilization prices its per-machine draw.
    pub(crate) shard: usize,
    /// The energy attributed so far, as reported.
    pub(crate) energy: TenantEnergy,
}

impl PowerRuntime {
    pub(crate) fn new(cfg: PowerConfig) -> PowerRuntime {
        PowerRuntime {
            meter: EnergyMeter::new(cfg),
            shard_machines: Vec::new(),
            gauges: Vec::new(),
            emitted_joules: 0,
            emitted_cost_milli: 0,
        }
    }

    pub(crate) fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Meter one engine tick: fold the per-shard samples into the meter,
    /// charge each attributed tenant its share, and emit
    /// gauges/counters/trace.
    ///
    /// `shard_events[i]` is the events shard `i` applied this tick;
    /// `machines` carries `(shard, committed machines)` for the shards
    /// that replied; `tenants` are the attributions, already refreshed
    /// from this tick's commits.
    pub(crate) fn observe<'a>(
        &mut self,
        tick: u64,
        shard_events: &[u64],
        machines: &[(usize, u64)],
        tenants: impl Iterator<Item = &'a mut Attribution>,
        obs: &EngineObs,
    ) -> EnergyDelta {
        self.shard_machines.resize(shard_events.len(), 0);
        for &(shard, m) in machines {
            self.shard_machines[shard] = m;
        }
        let samples: Vec<ShardSample> = shard_events
            .iter()
            .zip(&self.shard_machines)
            .map(|(&events, &machines)| ShardSample { events, machines })
            .collect();
        let price = self.meter.config().price.price_at(self.meter.ticks());
        let delta = self.meter.observe(&samples);
        self.attribute(price, tenants);
        self.emit(tick, &delta, obs);
        delta
    }

    /// Charge each tenant `machines * watts_per_machine(util of its
    /// shard's sample)` for this tick. The per-machine draw is derived
    /// from the fleet-wide model at the shard-mean utilization recorded by
    /// the meter; the idle floor of shards with zero committed machines
    /// stays unattributed (the meter total is the authoritative bill).
    fn attribute<'a>(&self, price: f64, tenants: impl Iterator<Item = &'a mut Attribution>) {
        let cfg = self.meter.config();
        let utils = self.meter.last_utilization();
        for t in tenants {
            if t.machines == 0 {
                continue;
            }
            let util = utils.get(t.shard).copied().unwrap_or(0.0);
            let joules = t.machines as f64 * cfg.model.watts(util);
            t.energy.joules += joules;
            t.energy.cost += joules * price;
        }
    }

    /// Gauges, floor-diff counters, and the price-window trace edge.
    fn emit(&mut self, tick: u64, delta: &EnergyDelta, obs: &EngineObs) {
        let watts = self.meter.last_watts();
        while self.gauges.len() < watts.len() {
            self.gauges.push(obs.shard_watts_gauge(self.gauges.len()));
        }
        for (gauge, w) in self.gauges.iter().zip(watts) {
            gauge.set(w.round() as i64);
        }
        let joules = self.meter.joules().floor() as u64;
        if joules > self.emitted_joules {
            obs.energy_joules.add(joules - self.emitted_joules);
            self.emitted_joules = joules;
        }
        let cost_milli = (self.meter.cost() * 1000.0).floor() as u64;
        if cost_milli > self.emitted_cost_milli {
            obs.energy_cost_milli
                .add(cost_milli - self.emitted_cost_milli);
            self.emitted_cost_milli = cost_milli;
        }
        if delta.price_changed {
            obs.event(
                tick,
                "price_window",
                vec![
                    ("price", delta.price.into()),
                    ("joules_total", self.meter.joules().into()),
                    ("cost_total", self.meter.cost().into()),
                ],
            );
        }
    }
}
