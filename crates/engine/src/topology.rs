//! Lazy auto-rebalancing: the engine's shard count, governed by the
//! paper's own algorithm.
//!
//! The engine hosts thousands of tenants whose *server* counts are
//! right-sized by Lazy Capacity Provisioning. This module closes the loop
//! and applies the same discipline to the engine's *topology*: the shard
//! count is treated exactly like the paper's machine count, with
//!
//! * an **imbalance/operating cost** accrued every tick — running `s`
//!   shards against `E` ingested events costs
//!   `E / s + shard_cost * s` (serial work per shard, which overload
//!   makes expensive, plus a fixed per-shard overhead, which idling
//!   makes wasteful; convex in `s`, minimized near `sqrt(E/shard_cost)`),
//!   and
//! * a **switching cost** charged when the topology changes — every
//!   migrated tenant is a full snapshot/restore move, so a shard change
//!   costs roughly `(tenants / shards) * per-tenant migration cost`;
//!   [`TopologyConfig::switch_cost`] is that product, the induced `beta`.
//!
//! Each ingested batch is one logical tick (the same clock the admission
//! gate uses). The observation stream induces an instance of the paper's
//! problem over states `x = shards - min_shards in 0..=(max - min)`, and
//! the policy runs [`rsdc_online::Lcp`] itself on it — its bound tracker
//! maintains the lower/upper bounds `x^L_t <= x^U_t`, and the planned
//! state moves **only when the bounds force it** (eq. 13). That inherits the paper's guarantees verbatim:
//! the (imbalance + switching) cost of the topology schedule is within a
//! factor 3 of the offline-optimal schedule for the same observations
//! (Theorem 2), and the plan provably cannot flap — a grow is never
//! followed by a shrink until the accumulated imbalance evidence exceeds
//! the switching cost it would waste.
//!
//! With [`TopologyConfig::pricing`] set, the induced instance is priced
//! in **modeled watts and scheduled energy prices** instead of bare event
//! counts: the per-shard overhead term becomes
//! `price(t) * s * watts(E / (s * capacity))` — the actual (modeled)
//! energy bill of the topology. The serial-work term stays unpriced, so
//! during expensive price windows the evidence for *growing* accrues
//! slowly and grow migrations land in cheap windows (the deferral the
//! energy tests pin); the LCP machinery and its 3-competitive bound apply
//! to the priced instance verbatim, because each tick's cost is still
//! convex and the switching cost is still fixed.
//!
//! The policy is deliberately **control-plane state, not journaled** —
//! exactly like admission limits. Recovery replays the admitted traffic;
//! whatever topology decisions the old process made were fenced into the
//! WAL/checkpoint stream as [`Migrate`](crate::journal::JournalRecord)
//! records, so the *effects* recover exactly while the policy itself
//! restarts fresh (each deployment states its own knobs, and a restarted
//! engine re-learns the load in a few ticks).

use rsdc_core::Cost;
use rsdc_online::{Lcp, OnlineAlgorithm};
use rsdc_power::{PowerConfig, PowerModel, PowerSpec};
use serde::{Deserialize, Serialize};

/// Knobs for the lazy auto-rebalancing policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Smallest shard count the policy may target (`>= 1`).
    pub min_shards: usize,
    /// Largest shard count the policy may target (`>= min_shards`).
    pub max_shards: usize,
    /// Switching cost per shard powered up, in the same units as the
    /// imbalance cost — the paper's `beta` for the induced instance.
    /// Calibrate as *(per-tenant migration cost) × (tenants per shard)*:
    /// consistent hashing moves ~`tenants / (n+1)` tenants per added
    /// shard, and each move is a full snapshot/restore.
    pub switch_cost: f64,
    /// Fixed per-shard, per-tick overhead (thread, memory, WAL segment)
    /// in cost units. The imbalance cost of running `s` shards against
    /// `E` events for one tick is `E / s + shard_cost * s`. Ignored in
    /// priced mode, where the modeled energy bill replaces it.
    pub shard_cost: f64,
    /// Minimum ticks between applied topology changes; also the length of
    /// the admission migration window opened after each change (during
    /// which new admits are deferred and rate-limited buckets refill at
    /// half rate). `0` applies every bound crossing immediately.
    pub cooldown: u64,
    /// Priced mode: when set, the per-shard overhead term of the induced
    /// cost is the **modeled, priced energy bill** of running the shards
    /// instead of `shard_cost * s` — see
    /// [`tick_cost`](TopologyConfig::tick_cost). `None` (the default)
    /// keeps the original event-counting mode.
    pub pricing: Option<PowerConfig>,
}

impl TopologyConfig {
    /// Policy over `[min, max]` shards with default cost knobs:
    /// `switch_cost = 8`, `shard_cost = 1`, `cooldown = 2`, counting
    /// (unpriced) mode.
    pub fn new(min_shards: usize, max_shards: usize) -> TopologyConfig {
        TopologyConfig {
            min_shards,
            max_shards,
            switch_cost: 8.0,
            shard_cost: 1.0,
            cooldown: 2,
            pricing: None,
        }
    }

    /// Reject configurations the tracker arithmetic cannot serve.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_shards < 1 {
            return Err(format!("min_shards must be >= 1, got {}", self.min_shards));
        }
        if self.max_shards < self.min_shards {
            return Err(format!(
                "max_shards {} must be >= min_shards {}",
                self.max_shards, self.min_shards
            ));
        }
        if self.max_shards - self.min_shards > 255 {
            return Err(format!(
                "shard range {}..={} is wider than 256 states",
                self.min_shards, self.max_shards
            ));
        }
        for (name, v) in [
            ("switch_cost", self.switch_cost),
            ("shard_cost", self.shard_cost),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be finite and > 0, got {v}"));
            }
        }
        if let Some(pricing) = &self.pricing {
            pricing.validate()?;
            // Each tick's priced cost is convex only when the watt curve
            // is, and the LCP bound tracker relies on convex costs.
            if let PowerSpec::Piecewise { points } = &pricing.model {
                Cost::table(points.clone())
                    .check_convex(points.len() as u32 - 1)
                    .map_err(|e| format!("priced autoscaling needs a convex watt curve: {e}"))?;
            }
        }
        Ok(())
    }

    /// Number of policy states: `max - min + 1` shard counts.
    fn states(&self) -> u32 {
        (self.max_shards - self.min_shards) as u32
    }

    /// The induced per-tick cost function over policy states
    /// (`x = shards - min_shards`) for logical tick `tick` ingesting
    /// `events` events.
    ///
    /// **Counting mode** (`pricing: None`, the original):
    /// `f(x) = events / s + shard_cost * s` with `s = min + x` — serial
    /// work per shard plus a fixed per-shard overhead. `tick` is ignored.
    ///
    /// **Priced mode** (`pricing: Some`): the overhead term becomes the
    /// modeled energy bill,
    /// `f(x) = events / s + price(tick) * s * watts(events / (s * capacity))`
    /// — each shard is one machine of the power model, its utilization is
    /// the events it would serve against its capacity (*unclamped*:
    /// overload extrapolates the model's final segment, which keeps the
    /// energy term convex in `s` — for [`Linear`](rsdc_power::Linear) it
    /// is exactly `s * idle + const`), and the price schedule makes the
    /// bill time-varying. The serial-work delay term stays unpriced, so
    /// expensive windows penalize *extra shards*, not serving load —
    /// that asymmetry is what defers grow migrations into cheap windows.
    ///
    /// Both modes are convex in `x` (1/s terms plus, in priced mode, the
    /// perspective `s * watts(E / (s * cap))` of a convex watt curve), so
    /// the LCP bound machinery — and the offline DP the differential
    /// tests compare against — applies verbatim, tick by tick.
    pub fn tick_cost(&self, tick: u64, events: f64) -> Cost {
        let vals = (self.min_shards..=self.max_shards)
            .map(|s| {
                let serial = events / s as f64;
                match &self.pricing {
                    None => serial + self.shard_cost * s as f64,
                    Some(p) => {
                        let util = events / (s as f64 * p.capacity);
                        serial + p.price.price_at(tick) * s as f64 * p.model.watts(util)
                    }
                }
            })
            .collect();
        Cost::table(vals)
    }
}

/// A point-in-time view of the policy, reported by the wire `stats` op
/// (`autoscale` field) and the `autoscale` read-back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopologyStatus {
    /// The configuration in force.
    pub config: TopologyConfig,
    /// Shard count of the engine the policy is steering (last applied).
    pub shards: usize,
    /// Shard count the LCP plan currently wants.
    pub target: usize,
    /// Lower LCP bound, in shards (`min_shards + x^L`).
    pub lower: usize,
    /// Upper LCP bound, in shards (`min_shards + x^U`).
    pub upper: usize,
    /// Logical ticks observed.
    pub ticks: u64,
    /// Accrued imbalance/operating cost (sum of `tick_cost` evaluated at
    /// the applied topology).
    pub imbalance_cost: f64,
    /// Accrued switching cost (`switch_cost` per shard powered up).
    pub switch_cost_accrued: f64,
    /// Topology changes the policy has triggered.
    pub migrations: u64,
    /// Tenants moved by those changes (each one a snapshot/restore).
    pub tenants_moved: u64,
    /// Per-shard event-load skew observed last tick: max over mean
    /// (`1.0` = perfectly balanced, or no traffic yet).
    pub event_skew: f64,
    /// In priced mode, the energy price the *next* tick will be charged
    /// at; `None` in counting mode.
    pub price_now: Option<f64>,
    /// Per-shard event counts from the last observed tick.
    pub last_events: Vec<u64>,
    /// Last known per-shard live-tenant counts (from batch replies).
    pub last_tenants: Vec<usize>,
}

/// The lazy auto-rebalancing policy: per-shard load observations in,
/// hysteretic shard-count targets out.
///
/// Owned by the [`Engine`](crate::Engine) handle under its one lock, fed by
/// [`step_batch`](crate::Engine::step_batch) aggregates (one
/// [`observe`](TopologyPolicy::observe) per ingested batch), and applied
/// by [`maybe_autoscale`](crate::Engine::maybe_autoscale) as ring-diff
/// migrations. Usable standalone too — the differential tests drive it
/// directly against the offline optimum.
#[derive(Debug, Clone)]
pub struct TopologyPolicy {
    cfg: TopologyConfig,
    /// The LCP plan, in policy states (`shards = min + state`).
    lcp: Lcp,
    /// Shard count last applied to the engine.
    applied: usize,
    ticks: u64,
    last_change: u64,
    imbalance_cost: f64,
    switch_cost_accrued: f64,
    migrations: u64,
    tenants_moved: u64,
    last_events: Vec<u64>,
    last_tenants: Vec<usize>,
}

impl TopologyPolicy {
    /// Policy for an engine currently running `shards` shards. The LCP
    /// plan itself starts at `min_shards` (the paper's `x_0 = 0`): an
    /// over-provisioned engine is right-sized toward the observed load
    /// within the first few ticks.
    pub fn new(cfg: TopologyConfig, shards: usize) -> Result<TopologyPolicy, String> {
        cfg.validate()?;
        Ok(TopologyPolicy {
            lcp: Lcp::new(cfg.states(), cfg.switch_cost),
            applied: shards,
            ticks: 0,
            last_change: 0,
            imbalance_cost: 0.0,
            switch_cost_accrued: 0.0,
            migrations: 0,
            tenants_moved: 0,
            last_events: Vec::new(),
            last_tenants: Vec::new(),
            cfg,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Ingest one tick of per-shard aggregates: `events[i]` is the number
    /// of events shard `i` received this batch, and `tenants` carries the
    /// `(shard, live-tenant-count)` pulses piggybacked on the batch
    /// replies (shards that received no events keep their last known
    /// count). Advances the LCP bounds by one step of the induced cost
    /// function and returns the shard count the engine *should* move to —
    /// `Some` only when the plan disagrees with the applied topology and
    /// the cooldown has elapsed.
    pub fn observe(&mut self, events: &[u64], tenants: &[(usize, usize)]) -> Option<usize> {
        // The tick being observed is 0-based — the same numbering the
        // energy meter charges, so priced instances see one consistent
        // schedule.
        let tick = self.ticks;
        self.ticks += 1;
        self.last_events = events.to_vec();
        self.last_tenants
            .resize(events.len().max(self.last_tenants.len()), 0);
        for &(shard, count) in tenants {
            if shard < self.last_tenants.len() {
                self.last_tenants[shard] = count;
            }
        }
        let total: u64 = events.iter().sum();
        let f = self.cfg.tick_cost(tick, total as f64);
        // Imbalance accrues at the *applied* topology — the cost the
        // engine actually paid this tick.
        self.imbalance_cost += f.eval(
            (self.applied.clamp(self.cfg.min_shards, self.cfg.max_shards) - self.cfg.min_shards)
                as u32,
        );
        // Eq. 13: lazily project the previous plan into [x^L, x^U].
        self.lcp.step(&f);
        self.pending()
    }

    /// The shard count the engine should move to now, if any: the plan
    /// disagrees with the applied topology and the cooldown has elapsed
    /// since the last topology change — the policy's own *or* an
    /// operator's (so an autoscaler never instantly undoes a manual
    /// rebalance; it re-decides only after the window it opened).
    pub fn pending(&self) -> Option<usize> {
        let target = self.target();
        if target == self.applied {
            return None;
        }
        if self.ticks < self.last_change + self.cfg.cooldown {
            return None;
        }
        Some(target)
    }

    /// The shard count the LCP plan currently wants.
    pub fn target(&self) -> usize {
        self.cfg.min_shards + self.lcp.state() as usize
    }

    /// Record that a *policy-triggered* topology change (from `from` to
    /// `to` shards, moving `moved` tenants) was applied — charges the
    /// switching cost for the growth and restarts the cooldown clock.
    pub fn record_applied(&mut self, from: usize, to: usize, moved: usize) {
        let grew = to.saturating_sub(from);
        self.switch_cost_accrued += self.cfg.switch_cost * grew as f64;
        self.note_topology(to);
        self.migrations += 1;
        self.tenants_moved += moved as u64;
    }

    /// Sync the policy with the engine's actual shard count without
    /// charging policy accounting — called by the engine after **every**
    /// successful rebalance, including operator-requested ones, so the
    /// policy never reasons (or reports) against a stale topology. An
    /// operator override also restarts the cooldown clock: the policy may
    /// still steer back toward its own plan afterwards (enabling
    /// autoscale delegates the topology), but never inside the window the
    /// operator's change just opened.
    pub fn note_topology(&mut self, shards: usize) {
        self.applied = shards;
        self.last_tenants.resize(shards, 0);
        self.last_change = self.ticks;
    }

    /// Per-shard event skew from the last tick: max over mean (`1.0` when
    /// balanced or idle).
    pub fn event_skew(&self) -> f64 {
        skew_of(&self.last_events)
    }

    /// Point-in-time status for reporting.
    pub fn status(&self) -> TopologyStatus {
        TopologyStatus {
            config: self.cfg.clone(),
            shards: self.applied,
            target: self.target(),
            lower: self.cfg.min_shards + self.lcp.tracker().x_low() as usize,
            upper: self.cfg.min_shards + self.lcp.tracker().x_up() as usize,
            ticks: self.ticks,
            imbalance_cost: self.imbalance_cost,
            switch_cost_accrued: self.switch_cost_accrued,
            migrations: self.migrations,
            tenants_moved: self.tenants_moved,
            event_skew: self.event_skew(),
            price_now: self
                .cfg
                .pricing
                .as_ref()
                .map(|p| p.price.price_at(self.ticks)),
            last_events: self.last_events.clone(),
            last_tenants: self.last_tenants.clone(),
        }
    }
}

/// Max-over-mean skew of a count vector.
///
/// The degenerate cases are pinned deliberately: an **empty vector** or a
/// window in which **every shard saw zero events** reports `1.0` —
/// "perfectly balanced", never `0.0`, `NaN` or `±inf`. Downstream math
/// (energy/utilization accounting, the wire `stats` skew fields, trace
/// events) treats skew as a safe divisor and a safe comparison operand,
/// so this function's contract is: the result is always finite and
/// `>= 1.0`. The unit test `skew_of_handles_degenerate_vectors` holds it
/// to that.
pub fn skew_of(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if counts.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stationary(policy: &mut TopologyPolicy, events_per_tick: u64, ticks: usize) -> Vec<usize> {
        let mut applied = Vec::with_capacity(ticks);
        for _ in 0..ticks {
            if let Some(target) = policy.observe(&[events_per_tick], &[(0, 1)]) {
                let from = policy.status().shards;
                policy.record_applied(from, target, 0);
            }
            applied.push(policy.target());
        }
        applied
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(TopologyConfig::new(1, 4).validate().is_ok());
        assert!(TopologyConfig::new(0, 4).validate().is_err());
        assert!(TopologyConfig::new(4, 2).validate().is_err());
        assert!(TopologyConfig::new(1, 300).validate().is_err());
        let mut cfg = TopologyConfig::new(1, 4);
        cfg.switch_cost = 0.0;
        assert!(cfg.validate().is_err());
        cfg = TopologyConfig::new(1, 4);
        cfg.shard_cost = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tick_cost_is_convex_and_minimized_near_the_ideal() {
        let cfg = TopologyConfig::new(1, 8);
        let f = cfg.tick_cost(0, 16.0);
        // f(x) = 16/(1+x) + (1+x): minimized at s = 4, i.e. x = 3.
        let vals: Vec<f64> = (0..8).map(|x| f.eval(x)).collect();
        let best = (0..8).min_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
        assert_eq!(best, Some(3));
        for w in vals.windows(3) {
            assert!(w[1] - w[0] <= w[2] - w[1] + 1e-12, "convexity: {w:?}");
        }
    }

    #[test]
    fn priced_tick_cost_follows_the_schedule_and_stays_convex() {
        use rsdc_power::{PowerConfig, PowerSpec, PriceSchedule};
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.pricing = Some(PowerConfig {
            model: PowerSpec::Linear {
                idle: 1.0,
                peak: 3.0,
            },
            capacity: 4.0,
            price: PriceSchedule::Step {
                period: 2,
                prices: vec![1.0, 10.0],
            },
        });
        assert!(cfg.validate().is_ok());
        // Linear model, so the energy term is s*idle + (peak-idle)*E/cap
        // regardless of s: at tick 0 (price 1) and s = 2, E = 16:
        // f = 16/2 + 1 * (2*1 + 2*(16/8 - 1)*... ) — check via the model:
        // util = 16/(2*4) = 2.0, watts = 1 + 2*2 = 5, term = 2*5 = 10.
        let cheap = cfg.tick_cost(0, 16.0);
        assert!((cheap.eval(1) - (8.0 + 10.0)).abs() < 1e-12);
        // The expensive window scales only the energy term by 10.
        let dear = cfg.tick_cost(2, 16.0);
        assert!((dear.eval(1) - (8.0 + 100.0)).abs() < 1e-12);
        // Convex in the state for both windows.
        for f in [cheap, dear] {
            let vals: Vec<f64> = (0..8).map(|x| f.eval(x)).collect();
            for w in vals.windows(3) {
                assert!(w[1] - w[0] <= w[2] - w[1] + 1e-9, "convexity: {w:?}");
            }
        }
        // Counting mode ignores the tick entirely.
        let plain = TopologyConfig::new(1, 8);
        for x in 0..8 {
            assert_eq!(
                plain.tick_cost(0, 16.0).eval(x),
                plain.tick_cost(7, 16.0).eval(x)
            );
        }
        // A bad pricing config is rejected with the rest of validation.
        let mut bad = cfg.clone();
        bad.pricing.as_mut().unwrap().capacity = -1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sustained_load_grows_lazily_and_idles_shrink_lazily() {
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.cooldown = 0;
        let mut policy = TopologyPolicy::new(cfg, 1).unwrap();
        // Heavy stationary load: the plan should climb to the ideal (4
        // shards for 16 events/tick) but not on the very first tick —
        // the switching cost must be earned first.
        let applied = stationary(&mut policy, 16, 40);
        assert_eq!(*applied.last().unwrap(), 4, "converges to the ideal");
        assert!(applied[0] < 4, "growth is lazy, not instant");
        // Now the load vanishes; the plan shrinks only after the idle
        // per-shard overhead has accumulated past the switching cost.
        let before = policy.target();
        let applied = stationary(&mut policy, 0, 60);
        assert!(applied[0] == before, "shrink is lazy too");
        assert_eq!(*applied.last().unwrap(), 1, "idle fleet right-sizes down");
    }

    #[test]
    fn stationary_load_never_flaps() {
        for events in [0u64, 3, 10, 40, 200] {
            let mut cfg = TopologyConfig::new(1, 6);
            cfg.cooldown = 0;
            let mut policy = TopologyPolicy::new(cfg, 1).unwrap();
            let applied = stationary(&mut policy, events, 120);
            for w in applied.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "stationary load must never shrink after growing: {applied:?}"
                );
            }
        }
    }

    #[test]
    fn cooldown_defers_application_but_not_the_plan() {
        let mut cfg = TopologyConfig::new(1, 8);
        cfg.cooldown = 10;
        let mut policy = TopologyPolicy::new(cfg, 1).unwrap();
        let mut applied_changes = 0;
        for _ in 0..12 {
            if let Some(t) = policy.observe(&[400], &[(0, 1)]) {
                let from = policy.status().shards;
                policy.record_applied(from, t, 0);
                applied_changes += 1;
            }
        }
        // The first change applies immediately (no migration yet); further
        // changes wait out the cooldown even though the plan wants more.
        assert!(applied_changes >= 1);
        assert!(
            applied_changes <= 2,
            "cooldown must batch changes, applied {applied_changes}"
        );
        assert!(policy.target() >= policy.status().shards);
    }

    #[test]
    fn status_reports_costs_and_skew() {
        let cfg = TopologyConfig::new(2, 4);
        let mut policy = TopologyPolicy::new(cfg, 2).unwrap();
        policy.observe(&[9, 3], &[(0, 5), (1, 2)]);
        let status = policy.status();
        assert_eq!(status.shards, 2);
        assert_eq!(status.ticks, 1);
        assert!(status.imbalance_cost > 0.0);
        assert_eq!(status.switch_cost_accrued, 0.0);
        assert_eq!(status.last_events, vec![9, 3]);
        assert_eq!(status.last_tenants, vec![5, 2]);
        // max 9 over mean 6.
        assert!((status.event_skew - 1.5).abs() < 1e-12);
        assert!(status.lower >= 2 && status.upper <= 4);
        // Applying a growth charges the switching cost per shard.
        policy.record_applied(2, 4, 7);
        let status = policy.status();
        assert_eq!(status.shards, 4);
        assert_eq!(status.migrations, 1);
        assert_eq!(status.tenants_moved, 7);
        assert!((status.switch_cost_accrued - 2.0 * policy.config().switch_cost).abs() < 1e-12);
    }

    #[test]
    fn skew_of_handles_degenerate_vectors() {
        // A window where every shard saw zero events pins to exactly 1.0
        // ("balanced"), never 0/NaN/inf — energy and utilization math
        // divides by skew-shaped aggregates unchecked, so this value is a
        // documented contract, not an implementation accident.
        assert_eq!(skew_of(&[]), 1.0);
        assert_eq!(skew_of(&[0, 0]), 1.0);
        assert_eq!(skew_of(&[0; 16]), 1.0);
        assert_eq!(skew_of(&[4, 4]), 1.0);
        assert!((skew_of(&[6, 2]) - 1.5).abs() < 1e-12);
        for counts in [&[][..], &[0, 0][..], &[0, 7, 0][..], &[9, 9, 9][..]] {
            let s = skew_of(counts);
            assert!(s.is_finite() && s >= 1.0, "always a safe divisor: {s}");
        }
    }

    #[test]
    fn single_state_range_is_inert() {
        let mut policy = TopologyPolicy::new(TopologyConfig::new(3, 3), 3).unwrap();
        for _ in 0..20 {
            assert_eq!(
                policy.observe(&[100, 100, 100], &[(0, 1), (1, 1), (2, 1)]),
                None
            );
        }
        assert_eq!(policy.target(), 3);
    }
}
