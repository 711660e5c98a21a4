//! Tenants: one streaming policy instance plus its running accounting.
//!
//! Two tenant families share one accounting core:
//!
//! * **scalar** tenants run a homogeneous
//!   [`rsdc_online::streaming::StreamingPolicy`] over 1-D costs and commit
//!   scalar states;
//! * **heterogeneous** tenants ([`PolicySpec::Hetero`]) run an
//!   [`rsdc_hetero::HeteroStream`] over per-slot offered loads and commit
//!   configuration vectors. The scalar accounting fields then track the
//!   *total* active machines (so shard metrics and schedule statistics
//!   stay uniform), while operating/switching costs come from the stream's
//!   exact per-commit fleet accounting (per-type betas).

use rsdc_core::analysis::{CostBreakdown, Direction, ScheduleStats};
use rsdc_core::prelude::*;
use rsdc_hetero::{FleetSpec, HeteroAlgo, HeteroSnapshot, HeteroStream};
use rsdc_online::baselines::{FollowTheMinimizer, Hysteresis};
use rsdc_online::bounds::{BoundTracker, TrackerSnapshot};
use rsdc_online::flcp::GridLcp;
use rsdc_online::fractional::{EvalMode, HalfStep, MemorylessBalance};
use rsdc_online::prediction::LookaheadLcp;
use rsdc_online::randomized::RandomizedOnline;
use rsdc_online::streaming::{refuse_lag, StreamingPolicy};
use rsdc_online::Lcp;
use rsdc_workloads::builder::CostModel;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which online policy a tenant runs. Serializable so admit records and
/// snapshots can carry it over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Discrete Lazy Capacity Provisioning (3-competitive, Theorem 2).
    Lcp,
    /// Half-subgradient fractional algorithm + Section 4 rounding
    /// (the CLI's `randomized` policy).
    HalfStepRounded {
        /// Rounder RNG seed.
        seed: u64,
    },
    /// Fractional LCP on a `1/k` grid + Section 4 rounding.
    FlcpRounded {
        /// Grid resolution (`k >= 1`).
        k: u32,
        /// Rounder RNG seed.
        seed: u64,
    },
    /// Memoryless balance + Section 4 rounding.
    MemorylessRounded {
        /// Rounder RNG seed.
        seed: u64,
    },
    /// LCP with a prediction window (states lag the stream by `window`).
    Lookahead {
        /// Window length `w`.
        window: usize,
    },
    /// Follow-the-minimizer baseline.
    FollowTheMinimizer,
    /// Hysteresis baseline with a dead-band.
    Hysteresis {
        /// Dead-band width.
        band: u32,
    },
    /// Heterogeneous fleet: vector configurations over the machine-class
    /// lattice, driven by the streaming lattice DP (or the greedy
    /// baseline). Step events must carry a `load`, priced through the
    /// fleet's aggregate cost.
    Hetero {
        /// Machine classes plus aggregate-cost parameters.
        fleet: FleetSpec,
        /// Which hetero policy drives the stream.
        algo: HeteroAlgo,
    },
}

/// A live policy instance: a scalar online algorithm, or a
/// heterogeneous stream with vector states and its own fleet accounting.
pub enum PolicyRuntime {
    /// Homogeneous policy over 1-D costs (scalar states).
    Scalar(Box<dyn StreamingPolicy>),
    /// Heterogeneous lattice policy over offered loads (vector states).
    Hetero(Box<HeteroStream>),
}

impl PolicySpec {
    /// True for the policies whose step assumes convex slot costs: LCP,
    /// lookahead LCP and fractional LCP run an LCP bound tracker, and
    /// HalfStep and memoryless search for the minimizer. Their explicit
    /// step costs must pass [`Cost::check_convex`], as must those of any
    /// tenant that tracks the prefix optimum.
    pub fn needs_convex_costs(&self) -> bool {
        matches!(
            self,
            PolicySpec::Lcp
                | PolicySpec::Lookahead { .. }
                | PolicySpec::FlcpRounded { .. }
                | PolicySpec::HalfStepRounded { .. }
                | PolicySpec::MemorylessRounded { .. }
        )
    }

    /// True for the heterogeneous variant (whose step events must carry a
    /// `load` rather than an explicit 1-D cost).
    pub fn is_hetero(&self) -> bool {
        matches!(self, PolicySpec::Hetero { .. })
    }

    /// Instantiate the policy for a tenant with `m` servers and power-up
    /// cost `beta` (both ignored by the hetero variant, which carries its
    /// own fleet spec). `track_opt` sizes the hetero prefix-optimum
    /// tracker; scalar policies track through their own bound tracker (LCP
    /// and lookahead LCP, see [`StreamingPolicy::opt_tracker`]) or a
    /// separate [`BoundTracker`].
    pub fn build(
        &self,
        m: u32,
        beta: f64,
        track_opt: bool,
    ) -> Result<PolicyRuntime, rsdc_core::Error> {
        let interp = EvalMode::Interpolate;
        let scalar: Box<dyn StreamingPolicy> = match self {
            PolicySpec::Lcp => Box::new(Lcp::new(m, beta)),
            PolicySpec::HalfStepRounded { seed } => Box::new(RandomizedOnline::new(
                HalfStep::new(m, beta, interp),
                m,
                *seed,
            )),
            PolicySpec::FlcpRounded { k, seed } => {
                Box::new(RandomizedOnline::new(GridLcp::new(m, beta, *k), m, *seed))
            }
            PolicySpec::MemorylessRounded { seed } => Box::new(RandomizedOnline::new(
                MemorylessBalance::new(m, beta, interp),
                m,
                *seed,
            )),
            PolicySpec::Lookahead { window } => {
                Box::new(LookaheadLcp::with_window(m, beta, *window))
            }
            PolicySpec::FollowTheMinimizer => Box::new(FollowTheMinimizer::new(m)),
            PolicySpec::Hysteresis { band } => Box::new(Hysteresis::new(m, *band)),
            PolicySpec::Hetero { fleet, algo } => {
                let stream = HeteroStream::new(fleet.clone(), *algo, track_opt)?;
                return Ok(PolicyRuntime::Hetero(Box::new(stream)));
            }
        };
        Ok(PolicyRuntime::Scalar(scalar))
    }

    /// Parse the CLI short syntax: `lcp`, `halfstep[:seed]`,
    /// `flcp[:k[,seed]]`, `memoryless[:seed]`, `lookahead[:w]`, `followmin`,
    /// `hysteresis[:band]`.
    pub fn parse_short(s: &str) -> Result<PolicySpec, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        fn num<T: std::str::FromStr>(a: Option<&str>, default: T) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            match a {
                None => Ok(default),
                Some(x) => x.parse().map_err(|e| format!("bad number {x:?}: {e}")),
            }
        }
        match name {
            "lcp" => Ok(PolicySpec::Lcp),
            "halfstep" | "randomized" => Ok(PolicySpec::HalfStepRounded {
                seed: num(arg, 0)?,
            }),
            "flcp" => {
                let (k, seed) = match arg {
                    None => (4, 0),
                    Some(a) => match a.split_once(',') {
                        None => (num(Some(a), 4)?, 0),
                        Some((k, s)) => (num(Some(k), 4)?, num(Some(s), 0)?),
                    },
                };
                Ok(PolicySpec::FlcpRounded { k, seed })
            }
            "memoryless" => Ok(PolicySpec::MemorylessRounded {
                seed: num(arg, 0)?,
            }),
            "lookahead" => Ok(PolicySpec::Lookahead {
                window: num(arg, 1)?,
            }),
            "followmin" => Ok(PolicySpec::FollowTheMinimizer),
            "hysteresis" => Ok(PolicySpec::Hysteresis {
                band: num(arg, 1)?,
            }),
            other => Err(format!(
                "unknown policy {other:?} (lcp|halfstep|flcp|memoryless|lookahead|followmin|hysteresis)"
            )),
        }
    }
}

/// Largest fleet size `m` a tenant may declare. A scalar tenant's bound
/// tracker keeps a window of up to `m + 1` states, and an explicit step
/// cost is checked for convexity over all of them, so the cap keeps one
/// admit record from allocating gigabytes — the scalar counterpart of
/// [`rsdc_hetero::streaming::MAX_LATTICE`].
pub const MAX_M: u32 = 65_536;

/// Largest lookahead window a tenant may declare. A lookahead tenant keeps
/// up to `window` costs pending and each ingest peeks its bound tracker
/// through all of them, so the cap bounds both the tenant's memory and
/// its per-step work. Without it, a window longer than the stream never
/// commits and the tenant holds every cost it was sent.
pub const MAX_WINDOW: usize = 1024;

/// Static configuration of one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Unique tenant id (the sharding key).
    pub id: String,
    /// Fleet size `m`.
    pub m: u32,
    /// Power-up cost `beta`.
    pub beta: f64,
    /// The online policy to run.
    pub policy: PolicySpec,
    /// Report the prefix optimum and the competitive ratio. Free for LCP
    /// and lookahead LCP, whose own bound trackers already hold the prefix
    /// optimum of the committed slots; other scalar policies run one extra
    /// bound-tracker step per committed slot.
    pub track_opt: bool,
    /// Cost model used to price raw `load` events for this tenant, when it
    /// differs from the beta-derived default. Carried in the config (and
    /// therefore in snapshots and journaled admits) so load pricing
    /// survives crash recovery.
    pub cost_model: Option<CostModel>,
}

impl TenantConfig {
    /// Tenant with the given id/model and policy; `track_opt` off.
    pub fn new(id: impl Into<String>, m: u32, beta: f64, policy: PolicySpec) -> Self {
        Self {
            id: id.into(),
            m,
            beta,
            policy,
            track_opt: false,
            cost_model: None,
        }
    }

    /// Heterogeneous tenant over `fleet`, driven by `algo`. The scalar
    /// `m` is set to the fleet's total machine count (it bounds the
    /// total-machines statistics) and `beta` to 0 (switching is priced
    /// per machine class inside the stream, not by the scalar accounting).
    pub fn hetero(id: impl Into<String>, fleet: FleetSpec, algo: HeteroAlgo) -> Self {
        let m = fleet.total_machines();
        Self {
            id: id.into(),
            m,
            beta: 0.0,
            policy: PolicySpec::Hetero { fleet, algo },
            track_opt: false,
            cost_model: None,
        }
    }

    /// Enable competitive-ratio tracking.
    pub fn with_opt_tracking(mut self) -> Self {
        self.track_opt = true;
        self
    }

    /// Attach an explicit cost model for `load`-carrying events.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Check the scalar parameters every tenant is built from: `m` at
    /// most [`MAX_M`], `beta` finite and non-negative, a fractional LCP
    /// grid of `m * k` states with `1 <= k` and `m * k` at most [`MAX_M`]
    /// (its bound tracker runs over the grid), a lookahead window of at
    /// most [`MAX_WINDOW`], and an explicit cost model's server
    /// parameters valid with a finite non-negative overload (so every
    /// load it prices is convex).
    /// [`Tenant::new`] runs this, so admits, restores and recovery replay
    /// share it.
    pub fn validate(&self) -> Result<(), rsdc_core::Error> {
        let invalid = |m: String| Err(rsdc_core::Error::InvalidParameter(m));
        if self.m > MAX_M {
            return invalid(format!("m = {} exceeds the cap of {MAX_M}", self.m));
        }
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return invalid(format!("beta must be finite and >= 0, got {}", self.beta));
        }
        if let PolicySpec::FlcpRounded { k, .. } = self.policy {
            if k == 0 {
                return invalid("flcp grid resolution k must be at least 1".into());
            }
            let states = self.m as u64 * k as u64;
            if states > MAX_M as u64 {
                return invalid(format!(
                    "flcp grid m * k = {states} exceeds the cap of {MAX_M}"
                ));
            }
        }
        if let PolicySpec::Lookahead { window } = self.policy {
            if window > MAX_WINDOW {
                return invalid(format!(
                    "lookahead window {window} exceeds the cap of {MAX_WINDOW}"
                ));
            }
        }
        if let Some(model) = &self.cost_model {
            if let Err(e) = model.server.validate() {
                return invalid(format!("cost_model: {e}"));
            }
            if !(model.overload.is_finite() && model.overload >= 0.0) {
                return invalid(format!(
                    "cost_model: overload must be finite and >= 0, got {}",
                    model.overload
                ));
            }
        }
        Ok(())
    }

    /// The cost model that prices this tenant's `load` events: the
    /// explicit one, or the beta-derived default.
    pub fn load_cost_model(&self) -> CostModel {
        self.cost_model.unwrap_or(CostModel {
            beta: self.beta,
            ..CostModel::default()
        })
    }
}

/// A tenant's share of the metered energy, attributed by the engine
/// handle (shards know nothing about power models).
///
/// Attribution charges each tenant its committed machines times the
/// per-machine draw at its shard's utilization, every metered tick. The
/// idle floor a shard burns with zero committed machines stays
/// unattributed, so the fleet-wide meter total is an upper bound on the
/// sum of tenant shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantEnergy {
    /// Joules (watt·ticks) attributed to this tenant.
    pub joules: f64,
    /// Priced cost attributed to this tenant.
    pub cost: f64,
}

/// Point-in-time report for one tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id.
    pub id: String,
    /// Policy display name.
    pub policy: String,
    /// Cost functions ingested.
    pub events: u64,
    /// States committed (lags `events` for lookahead tenants).
    pub committed: u64,
    /// Most recently committed state. For heterogeneous tenants this is
    /// the total active machines across classes; see `last_config`.
    pub last_state: u32,
    /// Most recently committed configuration (heterogeneous tenants only;
    /// one entry per machine class).
    pub last_config: Option<Vec<u32>>,
    /// Running cost decomposition (operating + power-up switching), the
    /// eq. 1 objective over the committed prefix.
    pub breakdown: CostBreakdown,
    /// Structural statistics of the committed schedule, maintained
    /// incrementally with the same phase semantics as
    /// [`rsdc_core::analysis::stats`].
    pub stats: ScheduleStats,
    /// Prefix offline optimum (min over `x` of `\hat C^L`), when tracked.
    pub opt_cost: Option<f64>,
    /// `breakdown.total() / opt_cost`, when tracked and meaningful.
    pub ratio: Option<f64>,
    /// Attributed energy, filled in by the engine handle when energy
    /// accounting is enabled (shards always report `None` — the power
    /// runtime lives on the handle, outside journaled state).
    pub energy: Option<TenantEnergy>,
}

/// Serializable full state of a tenant (policy + accounting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Tenant configuration (used to rebuild the policy before restore).
    pub config: TenantConfig,
    /// Events ingested.
    pub events: u64,
    /// States committed.
    pub committed: u64,
    /// Previous committed state.
    pub prev_state: u32,
    /// Running operating cost.
    pub operating: f64,
    /// Running switching cost.
    pub switching: f64,
    /// Total power-ups.
    pub ups: u64,
    /// Total power-downs.
    pub downs: u64,
    /// Slots where the state changed.
    pub change_slots: u64,
    /// Peak state.
    pub peak: u32,
    /// Sum of committed states (for the mean).
    pub sum_states: f64,
    /// Phases closed so far (monotone-run decomposition).
    pub phases_closed: u64,
    /// Direction of the open phase.
    pub dir: Direction,
    /// Policy-specific snapshot payload.
    pub policy: serde::Value,
    /// Slots ingested but not yet matched to a committed state
    /// (lookahead lag), oldest first. They are a lookahead policy's
    /// window: its payload holds no cost.
    pub pending: Vec<PendingSlot>,
    /// Prefix-optimum tracker state, when tracked by a separate tracker.
    /// `None` for LCP and lookahead tenants, whose policy snapshot carries
    /// the tracker (snapshots that still carry a duplicate one restore
    /// fine; it is ignored).
    pub opt: Option<TrackerSnapshot>,
}

/// A slot that has been ingested but whose state is not yet committed
/// (lookahead lag): the cost function plus the offered load, when known.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PendingSlot {
    /// The slot's cost function.
    pub cost: Cost,
    /// The slot's offered load, when the event carried one.
    pub load: Option<f64>,
}

/// A live tenant: policy instance plus incrementally maintained accounting.
pub struct Tenant {
    cfg: TenantConfig,
    policy: PolicyRuntime,
    events: u64,
    committed: u64,
    prev_state: u32,
    operating: f64,
    switching: f64,
    ups: u64,
    downs: u64,
    change_slots: u64,
    peak: u32,
    sum_states: f64,
    phases_closed: u64,
    dir: Direction,
    /// The costs of the slots ingested but not yet committed, oldest
    /// first: the one buffer of them, which a lookahead policy reads as
    /// its window.
    pending: VecDeque<Cost>,
    /// The offered loads of the `pending` slots, when known.
    pending_loads: VecDeque<Option<f64>>,
    /// Separate prefix-optimum tracker: only for `track_opt` scalar
    /// policies without an [`StreamingPolicy::opt_tracker`] of their own.
    opt: Option<BoundTracker>,
}

/// One committed slot, paired with its own slot's load and movement (for
/// shard-level metrics).
#[derive(Debug, Clone)]
pub struct Commit {
    /// The committed state (total active machines for hetero tenants).
    pub state: u32,
    /// The committed configuration (hetero tenants only).
    pub config: Option<Vec<u32>>,
    /// The offered load of the slot this state serves (not the load of the
    /// event that triggered the commit — they differ under lookahead lag).
    pub load: Option<f64>,
    /// Servers powered up entering this slot.
    pub ups: u64,
    /// Servers powered down entering this slot.
    pub downs: u64,
}

/// What one ingest produced.
#[derive(Debug, Clone, Default)]
pub struct StepEffect {
    /// Slots committed by this event, in slot order.
    pub commits: Vec<Commit>,
}

/// Reusable buffers for the allocation-free ingest path: the scalar
/// policy's output states and the effect under construction. One scratch
/// lives per shard and is threaded through [`Tenant::step_into`] for
/// every event, so the steady-state batch loop performs no per-event
/// heap allocation (the vectors keep their high-water capacity).
#[derive(Default)]
pub struct StepScratch {
    out: Vec<u32>,
    /// The effect of the last [`Tenant::step_into`] call.
    pub effect: StepEffect,
}

impl StepEffect {
    /// The committed states in slot order.
    pub fn states(&self) -> Vec<u32> {
        self.commits.iter().map(|c| c.state).collect()
    }

    /// The committed states as an inline-capable [`crate::statelist::StateList`]
    /// (allocation-free for the common short lists).
    pub fn state_list(&self) -> crate::statelist::StateList {
        self.commits.iter().map(|c| c.state).collect()
    }

    /// The committed configurations in slot order (hetero tenants only;
    /// `None` when no commit carried one).
    pub fn configs(&self) -> Option<Vec<Vec<u32>>> {
        let configs: Vec<Vec<u32>> = self
            .commits
            .iter()
            .filter_map(|c| c.config.clone())
            .collect();
        (!configs.is_empty()).then_some(configs)
    }
}

impl Tenant {
    /// Build a fresh tenant from its configuration. Fails when the
    /// configuration is invalid ([`TenantConfig::validate`], or e.g. a
    /// degenerate or oversized fleet).
    pub fn new(cfg: TenantConfig) -> Result<Self, rsdc_core::Error> {
        cfg.validate()?;
        let policy = cfg.policy.build(cfg.m, cfg.beta, cfg.track_opt)?;
        let opt = match &policy {
            PolicyRuntime::Scalar(p) if cfg.track_opt && p.opt_tracker().is_none() => {
                Some(BoundTracker::new(cfg.m, cfg.beta))
            }
            _ => None,
        };
        Ok(Self {
            policy,
            opt,
            cfg,
            events: 0,
            committed: 0,
            prev_state: 0,
            operating: 0.0,
            switching: 0.0,
            ups: 0,
            downs: 0,
            change_slots: 0,
            peak: 0,
            sum_states: 0.0,
            phases_closed: 0,
            dir: Direction::Flat,
            pending: VecDeque::new(),
            pending_loads: VecDeque::new(),
        })
    }

    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// The most recently committed state (total active machines for
    /// heterogeneous tenants) — the cheap accessor the shard's
    /// machine-count aggregation reads per batch.
    pub fn last_state(&self) -> u32 {
        self.prev_state
    }

    /// Monotone-phase state machine over the (total-machines) state,
    /// mirroring `rsdc_core::analysis::phases`.
    fn advance_phase(&mut self, x: u32) {
        if self.committed > 0 {
            let step_dir = match x.cmp(&self.prev_state) {
                std::cmp::Ordering::Greater => Direction::Up,
                std::cmp::Ordering::Less => Direction::Down,
                std::cmp::Ordering::Equal => Direction::Flat,
            };
            match (self.dir, step_dir) {
                (_, Direction::Flat) => {}
                (Direction::Flat, d) => self.dir = d,
                (d, e) if d == e => {}
                (_, e) => {
                    self.phases_closed += 1;
                    self.dir = e;
                }
            }
        }
    }

    /// Shared accounting epilogue for one committed slot, scalar or
    /// hetero: movement counters, change/phase/peak/mean statistics, and
    /// the effect's `Commit`. `total` is the committed state (total active
    /// machines for hetero tenants). A slot counts as changed whenever any
    /// machine moved — for hetero tenants a reshuffle across classes can
    /// keep the total constant while `ups + downs > 0`.
    fn commit_slot(
        &mut self,
        total: u32,
        ups: u64,
        downs: u64,
        config: Option<Vec<u32>>,
        load: Option<f64>,
        effect: &mut StepEffect,
    ) {
        self.ups += ups;
        self.downs += downs;
        if ups + downs > 0 {
            self.change_slots += 1;
        }
        self.advance_phase(total);
        self.peak = self.peak.max(total);
        self.sum_states += total as f64;
        self.committed += 1;
        self.prev_state = total;
        effect.commits.push(Commit {
            state: total,
            config,
            load,
            ups,
            downs,
        });
    }

    /// Scalar accounting of state `x` for the oldest pending slot.
    fn account_pending(&mut self, x: u32, effect: &mut StepEffect) {
        let (Some(cost), Some(load)) = (self.pending.pop_front(), self.pending_loads.pop_front())
        else {
            panic!("policy committed more states than costs ingested");
        };
        self.account(x, &cost, load, effect);
    }

    /// Scalar accounting of state `x` for a slot with cost `cost`.
    fn account(&mut self, x: u32, cost: &Cost, load: Option<f64>, effect: &mut StepEffect) {
        self.operating += cost.eval(x);
        // The prefix optimum advances per *committed* slot, so mid-stream
        // ratios always compare cost and optimum over the same prefix even
        // under lookahead lag.
        if let Some(opt) = &mut self.opt {
            opt.step(cost);
        }
        let up = x.saturating_sub(self.prev_state) as u64;
        let down = self.prev_state.saturating_sub(x) as u64;
        self.switching += self.cfg.beta * up as f64;
        self.commit_slot(x, up, down, None, load, effect);
    }

    /// Hetero accounting: the stream reports exact per-commit fleet costs;
    /// the scalar aggregates track total active machines.
    fn account_hetero(
        &mut self,
        commit: rsdc_hetero::HeteroCommit,
        load: Option<f64>,
        effect: &mut StepEffect,
    ) {
        let total: u32 = commit.config.iter().sum();
        self.operating += commit.operating;
        self.switching += commit.switching;
        self.commit_slot(
            total,
            commit.ups,
            commit.downs,
            Some(commit.config),
            load,
            effect,
        );
    }

    /// Ingest one cost function (with the slot's offered load, when known).
    /// Heterogeneous tenants require the load (their slot cost is priced
    /// through the fleet spec; the 1-D cost is ignored) and fail without
    /// one.
    pub fn step(&mut self, f: &Cost, load: Option<f64>) -> Result<StepEffect, rsdc_core::Error> {
        let mut scratch = StepScratch::default();
        self.step_into(f, load, &mut scratch)?;
        Ok(scratch.effect)
    }

    /// [`Tenant::step`] through caller-owned scratch buffers: the effect
    /// lands in `scratch.effect` (cleared first), and for scalar tenants
    /// the warmed-up path allocates nothing. This is the shard batch
    /// loop's entry point.
    pub fn step_into(
        &mut self,
        f: &Cost,
        load: Option<f64>,
        scratch: &mut StepScratch,
    ) -> Result<(), rsdc_core::Error> {
        scratch.out.clear();
        scratch.effect.commits.clear();
        match &mut self.policy {
            PolicyRuntime::Scalar(policy) => {
                // A bound tracker's window search and the fractional
                // policies' minimizer search rely on convex slot costs.
                // Shapes convex by construction (a load priced into a
                // `Server` cost among them) pass in O(1).
                if self.cfg.track_opt || self.cfg.policy.needs_convex_costs() {
                    f.check_convex(self.cfg.m)
                        .map_err(|msg| rsdc_core::Error::NotConvex {
                            t: self.events as usize + 1,
                            msg,
                        })?;
                }
                self.events += 1;
                if self.pending.is_empty() {
                    // Nothing is held back, so the new cost alone is the
                    // window; it is queued only if the policy holds it.
                    policy.ingest(std::slice::from_ref(f), &mut scratch.out);
                    debug_assert!(scratch.out.len() <= 1, "one state per pending cost");
                    match scratch.out.first() {
                        Some(&x) => self.account(x, f, load, &mut scratch.effect),
                        None => {
                            self.pending.push_back(f.clone());
                            self.pending_loads.push_back(load);
                        }
                    }
                    return Ok(());
                }
                self.pending.push_back(f.clone());
                self.pending_loads.push_back(load);
                policy.ingest(self.pending.make_contiguous(), &mut scratch.out);
            }
            PolicyRuntime::Hetero(stream) => {
                let Some(lambda) = load else {
                    return Err(rsdc_core::Error::InvalidParameter(format!(
                        "hetero tenant {:?} requires a load-carrying step event",
                        self.cfg.id
                    )));
                };
                self.events += 1;
                let commit = stream.ingest(lambda);
                self.account_hetero(commit, load, &mut scratch.effect);
                return Ok(());
            }
        }
        for i in 0..scratch.out.len() {
            self.account_pending(scratch.out[i], &mut scratch.effect);
        }
        Ok(())
    }

    /// End-of-stream: flush lookahead states (a no-op for hetero tenants,
    /// which commit one configuration per ingested load).
    pub fn finish(&mut self) -> StepEffect {
        let mut out = Vec::new();
        if let PolicyRuntime::Scalar(policy) = &mut self.policy {
            policy.finish(self.pending.make_contiguous(), &mut out);
        }
        let mut effect = StepEffect::default();
        for x in out {
            self.account_pending(x, &mut effect);
        }
        effect
    }

    /// Current report.
    pub fn report(&self) -> TenantReport {
        let opt_cost = match &self.policy {
            PolicyRuntime::Scalar(policy) => self
                .opt
                .as_ref()
                .or_else(|| self.cfg.track_opt.then(|| policy.opt_tracker()).flatten())
                .and_then(BoundTracker::prefix_opt),
            PolicyRuntime::Hetero(stream) => {
                self.cfg.track_opt.then(|| stream.opt_cost()).flatten()
            }
        };
        let total = self.operating + self.switching;
        let ratio = opt_cost.map(|opt| {
            if opt.abs() < 1e-300 {
                if total.abs() < 1e-300 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                total / opt
            }
        });
        let phase_count = if self.committed == 0 {
            0
        } else {
            (self.phases_closed + 1) as usize
        };
        TenantReport {
            id: self.cfg.id.clone(),
            policy: match &self.policy {
                PolicyRuntime::Scalar(policy) => policy.name(),
                PolicyRuntime::Hetero(stream) => stream.name(),
            },
            events: self.events,
            committed: self.committed,
            last_state: self.prev_state,
            last_config: match &self.policy {
                PolicyRuntime::Scalar(_) => None,
                PolicyRuntime::Hetero(stream) => Some(stream.last_config().clone()),
            },
            breakdown: CostBreakdown {
                operating: self.operating,
                switching: self.switching,
            },
            stats: ScheduleStats {
                total_power_ups: self.ups,
                total_power_downs: self.downs,
                change_slots: self.change_slots as usize,
                peak: self.peak,
                mean: if self.committed == 0 {
                    0.0
                } else {
                    self.sum_states / self.committed as f64
                },
                phase_count,
            },
            opt_cost,
            ratio,
            energy: None,
        }
    }

    /// Capture the full tenant state.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            config: self.cfg.clone(),
            events: self.events,
            committed: self.committed,
            prev_state: self.prev_state,
            operating: self.operating,
            switching: self.switching,
            ups: self.ups,
            downs: self.downs,
            change_slots: self.change_slots,
            peak: self.peak,
            sum_states: self.sum_states,
            phases_closed: self.phases_closed,
            dir: self.dir,
            policy: match &self.policy {
                PolicyRuntime::Scalar(policy) => policy.snapshot(),
                PolicyRuntime::Hetero(stream) => stream.snapshot().to_value(),
            },
            pending: self
                .pending
                .iter()
                .zip(&self.pending_loads)
                .map(|(cost, &load)| PendingSlot {
                    cost: cost.clone(),
                    load,
                })
                .collect(),
            opt: self.opt.as_ref().map(|t| t.snapshot()),
        }
    }

    /// Rebuild a tenant from a snapshot. Its lag must be consistent: every
    /// ingested slot not yet committed is pending, and the policy accepts
    /// that many pending slots ([`StreamingPolicy::check_lag`]), so each
    /// state it later commits pairs with its own slot's cost.
    pub fn from_snapshot(s: TenantSnapshot) -> Result<Self, rsdc_core::Error> {
        let mut tenant = Tenant::new(s.config)?;
        match &mut tenant.policy {
            PolicyRuntime::Scalar(policy) => policy.restore(&s.policy)?,
            PolicyRuntime::Hetero(stream) => {
                let snap = HeteroSnapshot::from_value(&s.policy).map_err(|e| {
                    rsdc_core::Error::InvalidParameter(format!("bad hetero snapshot: {e}"))
                })?;
                stream.restore(&snap)?;
            }
        }
        let lag = |msg: String| Err(rsdc_core::Error::InvalidParameter(msg));
        let pending = s.pending.len();
        if s.committed > s.events {
            return lag(format!(
                "snapshot commits {} states but ingested {} events",
                s.committed, s.events
            ));
        }
        if pending as u64 != s.events - s.committed {
            return lag(format!(
                "snapshot has {pending} pending slots, expected events - committed = {}",
                s.events - s.committed
            ));
        }
        match &tenant.policy {
            PolicyRuntime::Scalar(policy) => policy.check_lag(pending)?,
            PolicyRuntime::Hetero(_) => refuse_lag(pending)?,
        }
        tenant.events = s.events;
        tenant.committed = s.committed;
        tenant.prev_state = s.prev_state;
        tenant.operating = s.operating;
        tenant.switching = s.switching;
        tenant.ups = s.ups;
        tenant.downs = s.downs;
        tenant.change_slots = s.change_slots;
        tenant.peak = s.peak;
        tenant.sum_states = s.sum_states;
        tenant.phases_closed = s.phases_closed;
        tenant.dir = s.dir;
        (tenant.pending, tenant.pending_loads) =
            s.pending.into_iter().map(|p| (p.cost, p.load)).unzip();
        // Only a tenant built with a separate tracker restores one. LCP
        // and lookahead tenants read the optimum from their policy's
        // tracker, restored above, and ignore the duplicate older
        // snapshots carry; hetero tenants track it inside the stream
        // snapshot (the hetero restore above enforces its presence).
        if tenant.opt.is_some() {
            let Some(t) = s.opt else {
                return Err(rsdc_core::Error::InvalidParameter(
                    "snapshot lacks the opt tracker its config requires".into(),
                ));
            };
            tenant.opt = Some(BoundTracker::from_snapshot(&t)?);
        }
        Ok(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdc_core::analysis;
    use rsdc_online::traits::run;

    fn costs(n: usize) -> Vec<Cost> {
        (0..n)
            .map(|t| Cost::abs(1.0 + (t % 2) as f64, ((t * 3 + 1) % 7) as f64))
            .collect()
    }

    /// A `Server` cost whose negative delay weight bends it concave past
    /// the load while keeping it positive.
    fn bent_server_cost() -> Cost {
        Cost::Server {
            lambda: 3.7,
            params: rsdc_core::ServerParams {
                delay_weight: -0.05,
                ..Default::default()
            },
            overload: 50.0,
        }
    }

    #[test]
    fn tracker_fed_tenants_refuse_non_convex_server_costs() {
        let bent = bent_server_cost();
        for (policy, track_opt, refused) in [
            (PolicySpec::Lcp, false, true),
            (PolicySpec::Lookahead { window: 2 }, false, true),
            (PolicySpec::FlcpRounded { k: 2, seed: 1 }, false, true),
            (PolicySpec::HalfStepRounded { seed: 1 }, true, true),
            (PolicySpec::HalfStepRounded { seed: 1 }, false, true),
            (PolicySpec::MemorylessRounded { seed: 1 }, false, true),
            (PolicySpec::FollowTheMinimizer, true, true),
            // Nothing in this tenant assumes convex costs.
            (PolicySpec::FollowTheMinimizer, false, false),
            (PolicySpec::Hysteresis { band: 1 }, false, false),
        ] {
            let mut cfg = TenantConfig::new("t", 32, 2.0, policy.clone());
            cfg.track_opt = track_opt;
            let mut tenant = Tenant::new(cfg).unwrap();
            let result = tenant.step(&bent, None);
            assert_eq!(
                matches!(result, Err(rsdc_core::Error::NotConvex { t: 1, .. })),
                refused,
                "{policy:?} track_opt={track_opt}: {result:?}"
            );
        }
    }

    #[test]
    fn cost_models_with_invalid_server_params_are_refused() {
        let model = |delay_weight, overload| CostModel {
            server: rsdc_core::ServerParams {
                delay_weight,
                ..Default::default()
            },
            overload,
            beta: 2.0,
        };
        let admit =
            |m| Tenant::new(TenantConfig::new("t", 32, 2.0, PolicySpec::Lcp).with_cost_model(m));
        admit(model(1.0, 20.0)).unwrap();
        let err = admit(model(-0.05, 20.0)).err().unwrap().to_string();
        assert!(err.contains("delay_weight"), "{err}");
        let err = admit(model(1.0, f64::NAN)).err().unwrap().to_string();
        assert!(err.contains("overload"), "{err}");
    }

    #[test]
    fn accounting_matches_batch_analysis() {
        let fs = costs(48);
        let inst = Instance::new(6, 2.0, fs.clone()).unwrap();
        let mut tenant =
            Tenant::new(TenantConfig::new("t", 6, 2.0, PolicySpec::Lcp).with_opt_tracking())
                .unwrap();
        let mut xs = Vec::new();
        for f in &fs {
            xs.extend(tenant.step(f, None).unwrap().states());
        }
        xs.extend(tenant.finish().states());
        let schedule = Schedule(xs);
        // Same schedule as batch LCP.
        let batch = run(&mut rsdc_online::Lcp::new(6, 2.0), &inst);
        assert_eq!(schedule, batch);
        // Incremental accounting equals the batch analysis exactly.
        let report = tenant.report();
        let breakdown = analysis::breakdown(&inst, &schedule);
        assert_eq!(report.breakdown.operating, breakdown.operating);
        assert_eq!(report.breakdown.switching, breakdown.switching);
        let stats = analysis::stats(&schedule);
        assert_eq!(report.stats, stats);
        // Ratio against the true prefix optimum.
        let opt = rsdc_offline::dp::solve_cost_only(&inst);
        let got = report.opt_cost.unwrap();
        assert!((got - opt).abs() < 1e-9 * (1.0 + opt), "{got} vs {opt}");
        assert!(report.ratio.unwrap() <= 3.0 + 1e-9);
    }

    #[test]
    fn lookahead_accounting_pairs_lagged_states_with_their_costs() {
        let fs = costs(20);
        let inst = Instance::new(6, 2.0, fs.clone()).unwrap();
        let mut tenant = Tenant::new(TenantConfig::new(
            "t",
            6,
            2.0,
            PolicySpec::Lookahead { window: 3 },
        ))
        .unwrap();
        let mut xs = Vec::new();
        for f in &fs {
            xs.extend(tenant.step(f, None).unwrap().states());
        }
        assert_eq!(tenant.report().committed, 17);
        xs.extend(tenant.finish().states());
        let schedule = Schedule(xs);
        let report = tenant.report();
        assert_eq!(report.committed, 20);
        let breakdown = analysis::breakdown(&inst, &schedule);
        assert_eq!(report.breakdown.operating, breakdown.operating);
        assert_eq!(report.breakdown.switching, breakdown.switching);
    }

    fn lookahead_with_opt(window: usize) -> Tenant {
        let cfg = TenantConfig::new("t", 6, 2.0, PolicySpec::Lookahead { window });
        Tenant::new(cfg.with_opt_tracking()).unwrap()
    }

    #[test]
    fn lookahead_opt_cost_is_the_committed_prefix_optimum() {
        let fs = costs(24);
        let mut tenant = lookahead_with_opt(3);
        assert!(tenant.opt.is_none(), "read from the policy's own tracker");
        let check = |tenant: &Tenant| {
            let report = tenant.report();
            let committed = report.committed as usize;
            let got = report.opt_cost;
            if committed == 0 {
                assert_eq!(got, None);
                return;
            }
            let inst = Instance::new(6, 2.0, fs[..committed].to_vec()).unwrap();
            let opt = rsdc_offline::dp::solve_cost_only(&inst);
            let got = got.expect("tracked");
            assert!((got - opt).abs() < 1e-9 * (1.0 + opt), "{got} vs {opt}");
        };
        for f in &fs {
            tenant.step(f, None).unwrap();
            check(&tenant);
        }
        assert_eq!(tenant.report().committed, 21);
        tenant.finish();
        check(&tenant);
        assert!(tenant.snapshot().opt.is_none());
    }

    #[test]
    fn parent_shaped_lookahead_snapshot_restores_bit_identically() {
        let fs = costs(30);
        let mut a = lookahead_with_opt(2);
        for f in &fs[..13] {
            a.step(f, None).unwrap();
        }
        // A snapshot as written when lookahead tenants still ran a
        // separate prefix-OPT tracker: the same tracker, stepped once per
        // committed slot, carried in `opt`.
        let mut snap = a.snapshot();
        let mut separate = BoundTracker::new(6, 2.0);
        for f in &fs[..a.report().committed as usize] {
            separate.step(f);
        }
        snap.opt = Some(separate.snapshot());
        let text = serde_json::to_string(&snap.to_value()).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let mut b = Tenant::from_snapshot(TenantSnapshot::from_value(&value).unwrap()).unwrap();
        for f in &fs[13..] {
            let (ea, eb) = (a.step(f, None).unwrap(), b.step(f, None).unwrap());
            assert_eq!(ea.states(), eb.states());
            assert_eq!(a.report().opt_cost, b.report().opt_cost);
        }
        assert_eq!(a.finish().states(), b.finish().states());
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.breakdown.operating, rb.breakdown.operating);
        assert_eq!(ra.breakdown.switching, rb.breakdown.switching);
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.opt_cost, rb.opt_cost);
        assert_eq!(ra.ratio, rb.ratio);
    }

    /// A lookahead:2 tenant's snapshot after two steps: both slots pending.
    fn two_pending_lookahead_snapshot() -> TenantSnapshot {
        let mut tenant = lookahead_with_opt(2);
        for f in &costs(2) {
            assert!(tenant.step(f, None).unwrap().commits.is_empty());
        }
        let snap = tenant.snapshot();
        assert_eq!((snap.events, snap.committed, snap.pending.len()), (2, 0, 2));
        snap
    }

    fn refusal(snap: TenantSnapshot) -> String {
        match Tenant::from_snapshot(snap) {
            Ok(_) => panic!("crafted snapshot restored"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn restore_refuses_pending_slots_short_of_the_uncommitted_events() {
        let mut snap = two_pending_lookahead_snapshot();
        snap.pending.clear();
        let err = refusal(snap);
        assert!(
            err.contains("snapshot has 0 pending slots, expected events - committed = 2"),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_a_lookahead_buffer_beyond_the_window() {
        // Lag consistent with the events, but three pending costs in a
        // two-slot window: the tenant would hold one cost too many.
        let mut snap = two_pending_lookahead_snapshot();
        snap.pending.push(PendingSlot {
            cost: costs(3).pop().unwrap(),
            load: None,
        });
        snap.events += 1;
        let err = refusal(snap);
        assert!(err.contains("lookahead buffer exceeds window"), "{err}");
    }

    #[test]
    fn lookahead_snapshot_holds_each_pending_cost_once() {
        let snap = two_pending_lookahead_snapshot();
        let text = serde_json::to_string(&snap.to_value()).unwrap();
        for slot in &snap.pending {
            let cost = serde_json::to_string(&slot.cost.to_value()).unwrap();
            assert_eq!(text.matches(&cost).count(), 1, "{cost} in {text}");
        }
        // The policy payload is the plain LCP state: tracker and state.
        let keys: Vec<&str> = snap
            .policy
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["tracker", "state"]);
    }

    #[test]
    fn restore_refuses_more_commits_than_events() {
        let mut tenant = Tenant::new(TenantConfig::new("t", 6, 2.0, PolicySpec::Lcp)).unwrap();
        for f in &costs(3) {
            tenant.step(f, None).unwrap();
        }
        let mut snap = tenant.snapshot();
        snap.committed = 4;
        let err = refusal(snap);
        assert!(
            err.contains("snapshot commits 4 states but ingested 3 events"),
            "{err}"
        );
    }

    #[test]
    fn restore_refuses_pending_slots_the_policy_does_not_hold() {
        // An LCP tenant commits one state per cost, so it holds none; a
        // pending slot would pair its next state with the wrong cost.
        let fs = costs(4);
        let mut tenant = Tenant::new(TenantConfig::new("t", 6, 2.0, PolicySpec::Lcp)).unwrap();
        for f in &fs[..3] {
            tenant.step(f, None).unwrap();
        }
        let mut snap = tenant.snapshot();
        snap.pending.push(PendingSlot {
            cost: fs[3].clone(),
            load: None,
        });
        snap.events += 1;
        let err = refusal(snap);
        assert!(
            err.contains("snapshot has 1 pending slots but its policy holds 0"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let fs = costs(30);
        let mut a = Tenant::new(
            TenantConfig::new("t", 5, 1.5, PolicySpec::FlcpRounded { k: 2, seed: 3 })
                .with_opt_tracking(),
        )
        .unwrap();
        let mut xs_a = Vec::new();
        for f in &fs[..13] {
            xs_a.extend(a.step(f, None).unwrap().states());
        }
        let snap = a.snapshot();
        // Round-trip the snapshot through JSON text.
        let text = serde_json::to_string_pretty(&snap.to_value()).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let snap2 = TenantSnapshot::from_value(&value).unwrap();
        let mut b = Tenant::from_snapshot(snap2).unwrap();
        let mut xs_b = Vec::new();
        for f in &fs[13..] {
            xs_a.extend(a.step(f, None).unwrap().states());
            xs_b.extend(b.step(f, None).unwrap().states());
        }
        assert_eq!(
            &xs_a[13..],
            &xs_b[..],
            "restored tenant must continue the identical stream"
        );
        let ra = a.report();
        let rb = b.report();
        assert_eq!(ra.breakdown.operating, rb.breakdown.operating);
        assert_eq!(ra.breakdown.switching, rb.breakdown.switching);
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.opt_cost, rb.opt_cost);
    }

    #[test]
    fn flcp_grids_are_refused_past_the_cap() {
        let cap = "exceeds the cap of 65536";
        for (m, k, refusal) in [
            (8, 0, Some("flcp grid resolution k must be at least 1")),
            (0, 0, Some("flcp grid resolution k must be at least 1")),
            (8, 1 << 30, Some(cap)),
            (8, u32::MAX, Some(cap)),
            (65_536, 2, Some(cap)),
            (8, 8_192, None),
            (65_536, 1, None),
        ] {
            let cfg = TenantConfig::new("t", m, 1.0, PolicySpec::FlcpRounded { k, seed: 1 });
            match (Tenant::new(cfg), refusal) {
                (Ok(_), None) => {}
                (Err(rsdc_core::Error::InvalidParameter(e)), Some(want)) => {
                    assert!(e.contains(want), "m = {m}, k = {k}: {e}")
                }
                (got, _) => panic!("m = {m}, k = {k}: {:?}", got.err()),
            }
        }
    }

    #[test]
    fn lookahead_windows_are_refused_past_the_cap() {
        for (window, refused) in [(0, false), (MAX_WINDOW, false), (MAX_WINDOW + 1, true)] {
            let cfg = TenantConfig::new("t", 8, 1.0, PolicySpec::Lookahead { window });
            match Tenant::new(cfg) {
                Ok(_) => assert!(!refused, "window {window} must be refused"),
                Err(rsdc_core::Error::InvalidParameter(e)) => {
                    assert!(refused, "window {window}: {e}");
                    assert_eq!(e, "lookahead window 1025 exceeds the cap of 1024");
                }
                Err(e) => panic!("window {window}: {e:?}"),
            }
        }
        // A restore (and so recovery from a checkpoint) checks it too.
        let cfg = TenantConfig::new("t", 8, 1.0, PolicySpec::Lookahead { window: 2 });
        let mut snapshot = Tenant::new(cfg).expect("tenant").snapshot();
        snapshot.config.policy = PolicySpec::Lookahead {
            window: MAX_WINDOW + 1,
        };
        assert!(matches!(
            Tenant::from_snapshot(snapshot),
            Err(rsdc_core::Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn short_syntax_refuses_numbers_past_u32() {
        for (short, parsed) in [
            // Parses; the admit then refuses the grid.
            ("flcp:0", Some(PolicySpec::FlcpRounded { k: 0, seed: 0 })),
            (
                "flcp:4294967295,2",
                Some(PolicySpec::FlcpRounded {
                    k: u32::MAX,
                    seed: 2,
                }),
            ),
            ("flcp:4294967296", None),
            ("flcp:4294967297,1", None),
            (
                "hysteresis:4294967295",
                Some(PolicySpec::Hysteresis { band: u32::MAX }),
            ),
            ("hysteresis:4294967296", None),
        ] {
            let got = PolicySpec::parse_short(short);
            match parsed {
                Some(want) => assert_eq!(got, Ok(want), "{short}"),
                None => assert!(got.unwrap_err().contains("bad number"), "{short}"),
            }
        }
    }

    #[test]
    fn policy_short_syntax() {
        assert_eq!(PolicySpec::parse_short("lcp").unwrap(), PolicySpec::Lcp);
        assert_eq!(
            PolicySpec::parse_short("flcp:8,42").unwrap(),
            PolicySpec::FlcpRounded { k: 8, seed: 42 }
        );
        assert_eq!(
            PolicySpec::parse_short("lookahead:5").unwrap(),
            PolicySpec::Lookahead { window: 5 }
        );
        assert!(PolicySpec::parse_short("nope").is_err());
    }
}
