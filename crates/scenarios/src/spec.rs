//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] names everything a full-stack replay needs: where
//! the load comes from ([`WorkloadSource`]), who receives it
//! ([`TenantMix`], including heterogeneous fleets, skew storms and surge
//! waves), which control-plane knobs are on ([`EngineKnobs`]: admission
//! limits, auto-rebalancing, energy/price accounting, durability) and
//! what goes wrong along the way ([`FaultAction`]: kill-points,
//! checkpoints, forced rebalances). The runner in [`crate::run()`] compiles
//! a spec into one deterministic engine run.

use rsdc_engine::{AdmissionConfig, PolicySpec, PowerConfig, TopologyConfig};
use rsdc_hetero::FleetSpec;
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::io;
use rsdc_workloads::traces::{Bursty, Diurnal, Spiky, Stationary, Trace, Weekly};

/// Where a scenario's offered load comes from. Every variant realizes to
/// a per-tick load trace, deterministically in `(t_len, seed)`.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Daily sinusoid plus noise.
    Diurnal(Diurnal),
    /// Two-state calm/burst modulated process.
    Bursty(Bursty),
    /// Sparse flash-crowd spikes over a low floor.
    Spiky(Spiky),
    /// Weekday diurnal cycles with quiet weekends.
    Weekly(Weekly),
    /// CLT-smoothed Poisson arrivals.
    Stationary(Stationary),
    /// Replay a recorded trace from disk (`.csv` or JSON, via
    /// [`rsdc_workloads::io`]); truncated to `t_len` when longer.
    File {
        /// Path to the trace file.
        path: String,
    },
    /// An embedded load sequence (tests, hand-built corner cases).
    Inline {
        /// Provenance label.
        label: String,
        /// Load per tick.
        loads: Vec<f64>,
    },
    /// Section 5.4 adversarial dilation: an alternating peak/idle hard
    /// sequence whose per-slot costs the runner dilates through
    /// [`rsdc_adversary::dilation::dilate`] — each base slot becomes
    /// `n * w` slots of its cost scaled by `1/(n*w)`, eroding any
    /// fixed-window lookahead advantage.
    Dilated {
        /// Peak load of the alternating base sequence.
        peak: f64,
        /// Slots per alternation block in the base sequence.
        period: usize,
        /// Dilation multiplier `n`.
        n: usize,
        /// Window length `w` being defeated.
        w: usize,
    },
}

impl WorkloadSource {
    /// Materialize the per-tick load trace. For [`Dilated`] sources this
    /// is the *base* (undilated) sequence of `t_len / (n*w)` slots; the
    /// runner expands it cost-side.
    ///
    /// [`Dilated`]: WorkloadSource::Dilated
    pub fn realize(&self, t_len: usize, seed: u64) -> Result<Trace, String> {
        let tr = match self {
            WorkloadSource::Diurnal(g) => g.generate(t_len, seed),
            WorkloadSource::Bursty(g) => g.generate(t_len, seed),
            WorkloadSource::Spiky(g) => g.generate(t_len, seed),
            WorkloadSource::Weekly(g) => g.generate(t_len, seed),
            WorkloadSource::Stationary(g) => g.generate(t_len, seed),
            WorkloadSource::File { path } => {
                let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                // Content sniff before extension: binary traces announce
                // themselves with the RSDT magic whatever they're named.
                let mut tr = if io::is_binary(&data) {
                    io::read_binary(&data).map_err(|e| format!("{path}: {e}"))?
                } else if path.ends_with(".csv") {
                    io::read_csv(&data[..], path.clone()).map_err(|e| format!("{path}: {e}"))?
                } else {
                    let text = std::str::from_utf8(&data)
                        .map_err(|e| format!("{path}: not UTF-8: {e}"))?;
                    io::from_json(text).map_err(|e| format!("{path}: bad JSON trace: {e:?}"))?
                };
                if tr.is_empty() {
                    return Err(format!("{path}: empty trace"));
                }
                tr.loads.truncate(t_len);
                tr
            }
            WorkloadSource::Inline { label, loads } => {
                let mut loads = loads.clone();
                loads.truncate(t_len);
                Trace::new(label.clone(), loads)
            }
            WorkloadSource::Dilated { peak, period, n, w } => {
                let (peak, period, n, w) = (*peak, (*period).max(1), *n, *w);
                let reps = (n * w).max(1);
                let base_len = t_len / reps;
                let loads = (0..base_len)
                    .map(|t| if (t / period) % 2 == 0 { peak } else { 0.0 })
                    .collect();
                Trace::new(format!("dilated(n={n},w={w})"), loads)
            }
        };
        Ok(tr)
    }

    /// The dilation factors, when this source is adversarially dilated.
    pub fn dilation(&self) -> Option<(usize, usize)> {
        match self {
            WorkloadSource::Dilated { n, w, .. } => Some((*n, *w)),
            _ => None,
        }
    }
}

/// A load-concentration window: during `[from, until)` ticks, tenant 0
/// receives `victim_share` of the total offered load and the rest is
/// split evenly — the skew shape that trips load-aware rebalancing.
#[derive(Debug, Clone, Copy)]
pub struct SkewStorm {
    /// First tick of the storm.
    pub from: usize,
    /// First tick after the storm.
    pub until: usize,
    /// Fraction of total load the victim tenant receives, in `(0, 1]`.
    pub victim_share: f64,
}

/// A wave of short-lived extra tenants: admitted at `from`, evicted at
/// `until`, each offered the same per-tenant load as a core tenant while
/// alive — the FaaS cold-start / flash-crowd shape that exercises
/// admission and autoscaling together.
#[derive(Debug, Clone, Copy)]
pub struct SurgeWave {
    /// Number of surge tenants.
    pub tenants: usize,
    /// Admission tick.
    pub from: usize,
    /// Eviction tick (must be `> from`).
    pub until: usize,
}

/// Who receives the offered load.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// Number of scalar (single-dimension) core tenants.
    pub scalar: usize,
    /// Policy every scalar tenant runs.
    pub policy: PolicySpec,
    /// Scalar fleet bound `m`.
    pub m: u32,
    /// Power-up cost `beta` (also the cost model's).
    pub beta: f64,
    /// Number of heterogeneous core tenants (0 = none).
    pub hetero: usize,
    /// Fleet for the heterogeneous tenants; `None` uses a stock two-type
    /// fleet when `hetero > 0`.
    pub fleet: Option<FleetSpec>,
    /// Optional load-concentration window.
    pub skew: Option<SkewStorm>,
    /// Optional short-lived tenant wave.
    pub surge: Option<SurgeWave>,
}

impl TenantMix {
    /// A plain mix: `n` scalar LCP tenants, no hetero, no skew, no surge.
    pub fn scalar_lcp(n: usize, m: u32, beta: f64) -> TenantMix {
        TenantMix {
            scalar: n,
            policy: PolicySpec::Lcp,
            m,
            beta,
            hetero: 0,
            fleet: None,
            skew: None,
            surge: None,
        }
    }

    /// Core tenants (scalar + hetero), excluding surge waves.
    pub fn core(&self) -> usize {
        self.scalar + self.hetero
    }

    /// The cost model scalar loads are priced through.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            beta: self.beta,
            ..CostModel::default()
        }
    }
}

/// Control-plane knobs for the run.
#[derive(Debug, Clone, Default)]
pub struct EngineKnobs {
    /// Initial shard count (0 = engine default).
    pub shards: usize,
    /// Admission limits (tenant cap, token-bucket rate), if any.
    pub admission: Option<AdmissionConfig>,
    /// Lazy auto-rebalancing policy, if any (priced when its `pricing`
    /// field carries a power config).
    pub autoscale: Option<TopologyConfig>,
    /// Energy/price accounting, if any.
    pub power: Option<PowerConfig>,
    /// Run over a durable file store (required by kill-point faults).
    pub durable: bool,
}

/// One scheduled control-plane event. Actions fire before the batch of
/// the tick they are scheduled at, in the order listed.
#[derive(Debug, Clone, Copy)]
pub enum FaultAction {
    /// Drop the engine without flushing and recover it from the durable
    /// store — the crash/recovery kill-point.
    Kill {
        /// Tick to crash at.
        at: usize,
    },
    /// Take a durable checkpoint (truncates the WAL).
    Checkpoint {
        /// Tick to checkpoint at.
        at: usize,
    },
    /// Force a live topology change to `shards` (it moves only the
    /// ring-diff tenant set).
    Rebalance {
        /// Tick to rebalance at.
        at: usize,
        /// Target shard count.
        shards: usize,
    },
}

impl FaultAction {
    /// The tick this action fires at.
    pub fn at(&self) -> usize {
        match self {
            FaultAction::Kill { at }
            | FaultAction::Checkpoint { at }
            | FaultAction::Rebalance { at, .. } => *at,
        }
    }
}

/// A complete, runnable scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Unique name (the zoo key and CLI handle).
    pub name: String,
    /// One-line human summary.
    pub summary: String,
    /// Generator seed; the whole run is deterministic in it.
    pub seed: u64,
    /// Ticks to run (for dilated sources: including dilation).
    pub t_len: usize,
    /// Offered-load source.
    pub workload: WorkloadSource,
    /// Tenant mix.
    pub tenants: TenantMix,
    /// Control-plane knobs.
    pub knobs: EngineKnobs,
    /// Scheduled fault plan.
    pub faults: Vec<FaultAction>,
}

impl ScenarioSpec {
    /// Reject specs the runner cannot execute deterministically.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        if self.t_len == 0 {
            return Err("t_len must be positive".into());
        }
        if self.tenants.core() == 0 {
            return Err("at least one core tenant is required".into());
        }
        if self.tenants.scalar == 0 && self.tenants.skew.is_some() {
            return Err("a skew storm needs scalar tenants".into());
        }
        if let Some(s) = &self.tenants.skew {
            if !(s.victim_share > 0.0 && s.victim_share <= 1.0) {
                return Err(format!(
                    "skew victim_share must be in (0, 1], got {}",
                    s.victim_share
                ));
            }
            if s.from >= s.until {
                return Err("skew storm window is empty".into());
            }
        }
        if let Some(s) = &self.tenants.surge {
            if s.tenants == 0 || s.from >= s.until {
                return Err("surge wave must admit at least one tenant for
                    at least one tick"
                    .trim()
                    .to_string());
            }
        }
        if let WorkloadSource::Dilated { period, n, w, .. } = &self.workload {
            if *n == 0 || *w == 0 || *period == 0 {
                return Err("dilation needs period, n and w all >= 1".into());
            }
            if self.t_len < n * w {
                return Err(format!(
                    "t_len {} shorter than one dilated block ({})",
                    self.t_len,
                    n * w
                ));
            }
        }
        let kills = self
            .faults
            .iter()
            .any(|f| matches!(f, FaultAction::Kill { .. }));
        if kills && !self.knobs.durable {
            return Err("kill-point faults require knobs.durable".into());
        }
        for f in &self.faults {
            if f.at() >= self.t_len {
                return Err(format!(
                    "fault at tick {} is past the horizon {}",
                    f.at(),
                    self.t_len
                ));
            }
            if let FaultAction::Rebalance { shards, .. } = f {
                if *shards == 0 {
                    return Err("forced rebalance target must be >= 1 shard".into());
                }
            }
        }
        if let Some(a) = &self.knobs.autoscale {
            a.validate()?;
        }
        if let Some(p) = &self.knobs.power {
            p.validate()?;
        }
        Ok(())
    }
}

/// Per-scenario assertion bounds: the regression-fleet contract a report
/// must satisfy. `check` returns the violations (empty = pass).
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Maximum aggregate online/OPT ratio over opt-tracked tenants.
    pub max_ratio: Option<f64>,
    /// Every offered event must be accounted for (applied, throttled,
    /// rejected or failed) — nothing silently lost.
    pub zero_lost: bool,
    /// Recovery replay must be error-free.
    pub zero_replay_errors: bool,
    /// At least this many events must apply.
    pub min_applied: u64,
    /// At least this many tenant admissions must be refused.
    pub min_rejected: u64,
    /// At least this many step events must be throttled.
    pub min_throttled: u64,
    /// At least this many crash/recovery cycles must complete.
    pub min_recoveries: u64,
    /// At least this many topology changes (auto + forced) must land.
    pub min_rebalances: u64,
    /// The energy meter must report nonzero joules and cost.
    pub require_energy: bool,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_ratio: None,
            zero_lost: true,
            zero_replay_errors: true,
            min_applied: 1,
            min_rejected: 0,
            min_throttled: 0,
            min_recoveries: 0,
            min_rebalances: 0,
            require_energy: false,
        }
    }
}

impl Bounds {
    /// Check a report against the bounds; returns human-readable
    /// violations (empty = within bounds).
    pub fn check(&self, r: &crate::report::ScenarioReport) -> Vec<String> {
        let mut errs = Vec::new();
        if let Some(max) = self.max_ratio {
            match r.ratio {
                Some(ratio) if ratio <= max => {}
                Some(ratio) => errs.push(format!("online/OPT ratio {ratio:.4} > bound {max}")),
                None => errs.push(format!("ratio unavailable but bound {max} set")),
            }
        }
        if self.zero_lost && r.events_lost != 0 {
            errs.push(format!("{} events lost", r.events_lost));
        }
        if self.zero_replay_errors && r.replay_errors != 0 {
            errs.push(format!("{} replay errors", r.replay_errors));
        }
        if r.events_applied < self.min_applied {
            errs.push(format!(
                "only {} events applied (need >= {})",
                r.events_applied, self.min_applied
            ));
        }
        if r.tenants_rejected < self.min_rejected {
            errs.push(format!(
                "only {} admits rejected (need >= {})",
                r.tenants_rejected, self.min_rejected
            ));
        }
        if r.events_throttled < self.min_throttled {
            errs.push(format!(
                "only {} events throttled (need >= {})",
                r.events_throttled, self.min_throttled
            ));
        }
        if r.recoveries < self.min_recoveries {
            errs.push(format!(
                "only {} recoveries (need >= {})",
                r.recoveries, self.min_recoveries
            ));
        }
        let rebalances = r.auto_rebalances + r.forced_rebalances;
        if rebalances < self.min_rebalances {
            errs.push(format!(
                "only {rebalances} rebalances (need >= {})",
                self.min_rebalances
            ));
        }
        if self.require_energy {
            match &r.energy {
                Some(e) if e.joules > 0.0 && e.cost > 0.0 => {}
                _ => errs.push("energy meter reported no consumption".into()),
            }
        }
        errs
    }
}
