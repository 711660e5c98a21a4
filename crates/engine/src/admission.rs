//! Admission control and per-tenant QoS: the gate in front of the engine.
//!
//! Two knobs, both off by default:
//!
//! * **max tenants** — `admit` (and a `restore` that would install a *new*
//!   tenant) is refused with [`AdmissionError::Rejected`] once the fleet
//!   is full; and
//! * **per-tenant rate limits** — a token bucket per tenant: each step
//!   event spends one token, buckets hold at most `burst` tokens and
//!   refill `rate` tokens per *tick*. Events arriving on an empty bucket
//!   fail with [`AdmissionError::Throttled`].
//!
//! The clock is logical, not wall time: one tick per batch the engine
//! ingests ([`Engine::step_batch_loads`](crate::Engine::step_batch_loads)
//! advances it once per call, and the wire session flushes one batch per
//! run of consecutive `step` lines). In fleet mode one batch is one slot,
//! so `rate` reads as "sustained events per tenant per slot" and `burst`
//! as the tolerated backlog. A logical clock keeps the control plane
//! deterministic: the same JSONL input always throttles the same lines.
//!
//! Throttling happens **before journaling** — a throttled event never
//! reaches the WAL, so crash-recovery replay (which bypasses admission
//! entirely) reproduces exactly the accepted stream and stays
//! byte-identical regardless of the limits configured at recovery time.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Control-plane limits. `Default` disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Maximum live tenants (0 = unlimited).
    pub max_tenants: usize,
    /// Token-bucket refill per tick, in events (0 = unlimited, no
    /// throttling).
    pub rate: f64,
    /// Token-bucket capacity, in events. Clamped up to at least `rate`
    /// (a bucket smaller than one refill would leak tokens).
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_tenants: 0,
            rate: 0.0,
            burst: 0.0,
        }
    }
}

impl AdmissionConfig {
    /// True when rate limiting is active.
    pub fn limits_rate(&self) -> bool {
        self.rate > 0.0
    }

    /// The effective bucket capacity: at least one refill's worth.
    pub fn effective_burst(&self) -> f64 {
        self.burst.max(self.rate)
    }

    /// Reject non-finite or negative knobs before they poison bucket
    /// arithmetic.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("rate", self.rate), ("burst", self.burst)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }
}

/// Typed control-plane refusals.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// A new tenant was refused (fleet is at `max_tenants`).
    Rejected {
        /// Tenant that was refused.
        id: String,
        /// The cap in force.
        max_tenants: usize,
    },
    /// A step event was refused (the tenant's token bucket is empty).
    Throttled {
        /// Tenant whose event was dropped.
        id: String,
    },
    /// A new tenant was deferred because a topology migration window is
    /// open (admitting mid-migration would shift the fleet under the
    /// topology the policy just settled; retry after the window).
    Migrating {
        /// Tenant whose admit was deferred.
        id: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Rejected { id, max_tenants } => write!(
                f,
                "tenant {id:?} rejected: engine is at its cap of {max_tenants} tenants"
            ),
            AdmissionError::Throttled { id } => {
                write!(f, "tenant {id:?} throttled: per-tenant rate limit exceeded")
            }
            AdmissionError::Migrating { id } => write!(
                f,
                "tenant {id:?} deferred: topology migration window is open"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// How many ticks between bucket-prune sweeps (amortizes the map scan).
const PRUNE_EVERY: u64 = 256;

/// One tenant's token bucket, refilled lazily against the shared tick.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    as_of_tick: u64,
}

/// The admission gate: config, logical clock, and per-tenant buckets.
/// Lives in the [`Engine`](crate::Engine) handle; shards never see
/// refused traffic.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    tick: u64,
    buckets: HashMap<String, TokenBucket>,
    /// Tick (exclusive) until which a topology-migration window is open:
    /// new admits are deferred and rate-limited buckets refill at half
    /// rate, so the topology settles before the fleet shifts under it
    /// again. Deferred admits age the window too (see `check_admit`).
    migration_until: u64,
}

impl AdmissionControl {
    /// Gate with the given limits (normalized as in
    /// [`set_config`](AdmissionControl::set_config)).
    pub fn new(cfg: AdmissionConfig) -> AdmissionControl {
        let mut gate = AdmissionControl::default();
        gate.set_config(cfg);
        gate
    }

    /// The limits in force.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// The gate's logical clock: ticks advanced so far, one per ingested
    /// batch. This is the engine's logical time — rebalance reports and
    /// trace events are stamped with it.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Replace the limits. Buckets keep their levels (tightening `burst`
    /// caps them at the next refill); disabling rate limits drops all
    /// bucket state. `burst` is normalized to the effective (rate-clamped)
    /// capacity on the way in, so [`config`](AdmissionControl::config) —
    /// and therefore the wire `limits` read-back — always reports the
    /// bucket size actually enforced.
    pub fn set_config(&mut self, mut cfg: AdmissionConfig) {
        if cfg.limits_rate() {
            cfg.burst = cfg.effective_burst();
        }
        self.cfg = cfg;
        if !cfg.limits_rate() {
            self.buckets.clear();
        }
    }

    /// Open (or extend) the migration window for the next `ticks` ticks.
    /// Called by the engine when an auto-triggered incremental migration
    /// lands. `0` closes nothing and opens nothing.
    ///
    /// Every bucket is settled (refilled at the full rate) up to the
    /// opening tick first, so idle spans that *straddle* the boundary are
    /// not retroactively halved — pre-window ticks fund at the full rate,
    /// only in-window ticks at half (`check_step` splits the other
    /// boundary symmetrically).
    pub fn begin_migration_window(&mut self, ticks: u64) {
        if self.cfg.limits_rate() {
            let (rate, burst, now) = (self.cfg.rate, self.cfg.effective_burst(), self.tick);
            for bucket in self.buckets.values_mut() {
                let elapsed = now.saturating_sub(bucket.as_of_tick);
                bucket.tokens = (bucket.tokens + elapsed as f64 * rate).min(burst);
                bucket.as_of_tick = now;
            }
        }
        self.migration_until = self.migration_until.max(self.tick.saturating_add(ticks));
    }

    /// Is a topology-migration window currently open?
    pub fn in_migration_window(&self) -> bool {
        self.tick < self.migration_until
    }

    /// Would admitting one more tenant (current live count `tenants`)
    /// exceed the cap — or land inside an open migration window?
    ///
    /// A deferred admit also **ages the window by one tick-equivalent**:
    /// the window is measured on the batch clock, so without this a
    /// client that paused its step stream (and therefore stopped the
    /// clock) could be told to retry forever. Either traffic or retries
    /// close the window after at most `cooldown` steps.
    pub fn check_admit(&mut self, id: &str, tenants: usize) -> Result<(), AdmissionError> {
        if self.in_migration_window() {
            self.migration_until -= 1;
            return Err(AdmissionError::Migrating { id: id.to_string() });
        }
        if self.cfg.max_tenants > 0 && tenants >= self.cfg.max_tenants {
            return Err(AdmissionError::Rejected {
                id: id.to_string(),
                max_tenants: self.cfg.max_tenants,
            });
        }
        Ok(())
    }

    /// Advance the logical clock by one tick (one ingested batch).
    ///
    /// Periodically prunes buckets that have refilled to capacity: a full
    /// bucket carries no information (a fresh one starts full), so ids
    /// that stop arriving — evicted tenants, typos, hostile id floods —
    /// are reclaimed instead of accumulating forever.
    pub fn tick(&mut self) {
        self.tick += 1;
        // The sweep estimates refill at the full rate, which overshoots
        // inside a migration window (half-rate refill) — and a pruned
        // bucket resurrects full. Windows are short; skip the sweep.
        if self.tick.is_multiple_of(PRUNE_EVERY)
            && !self.buckets.is_empty()
            && !self.in_migration_window()
        {
            let rate = self.cfg.rate;
            let burst = self.cfg.effective_burst();
            let now = self.tick;
            self.buckets
                .retain(|_, b| b.tokens + now.saturating_sub(b.as_of_tick) as f64 * rate < burst);
        }
    }

    /// Spend one token from `id`'s bucket, refilling it first. Inside a
    /// migration window buckets refill at **half** the configured rate —
    /// rate-limited tenants are throttled to half their sustained rate
    /// while a just-applied topology change settles, but never starved
    /// outright (a full bucket still serves its burst; unlimited tenants
    /// are unaffected: the window defers admits, not traffic, when no
    /// rate limit is configured).
    pub fn check_step(&mut self, id: &str) -> Result<(), AdmissionError> {
        if !self.cfg.limits_rate() {
            return Ok(());
        }
        let burst = self.cfg.effective_burst();
        let bucket = self.buckets.entry(id.to_string()).or_insert(TokenBucket {
            tokens: burst,
            as_of_tick: self.tick,
        });
        let elapsed = self.tick.saturating_sub(bucket.as_of_tick);
        // Split the elapsed span at the window's closing boundary: ticks
        // inside the window refill at half rate, ticks after it at full.
        // `begin_migration_window` settled all buckets at the opening
        // boundary, so `as_of_tick` never predates an open window and the
        // split below is exact.
        let halved = self
            .migration_until
            .saturating_sub(bucket.as_of_tick)
            .min(elapsed);
        let refill =
            halved as f64 * self.cfg.rate * 0.5 + (elapsed - halved) as f64 * self.cfg.rate;
        bucket.tokens = (bucket.tokens + refill).min(burst);
        bucket.as_of_tick = self.tick;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(AdmissionError::Throttled { id: id.to_string() })
        }
    }

    /// Drop a tenant's bucket (on evict).
    pub fn forget(&mut self, id: &str) {
        self.buckets.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_open() {
        let mut gate = AdmissionControl::default();
        gate.check_admit("a", usize::MAX - 1).unwrap();
        for _ in 0..10_000 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.buckets.is_empty(), "open gate keeps no bucket state");
    }

    #[test]
    fn tenant_cap_rejects_at_the_limit() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 2,
            ..AdmissionConfig::default()
        });
        gate.check_admit("a", 0).unwrap();
        gate.check_admit("b", 1).unwrap();
        let err = gate.check_admit("c", 2).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::Rejected {
                id: "c".into(),
                max_tenants: 2
            }
        );
        assert!(err.to_string().contains("cap of 2"));
    }

    #[test]
    fn token_bucket_throttles_and_refills() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 1.0,
            burst: 3.0,
        });
        // Fresh bucket starts full: the burst passes, the 4th event fails.
        for _ in 0..3 {
            gate.check_step("a").unwrap();
        }
        assert_eq!(
            gate.check_step("a").unwrap_err(),
            AdmissionError::Throttled { id: "a".into() }
        );
        // Other tenants have their own buckets.
        gate.check_step("b").unwrap();
        // One tick refills one token; two events still exceed it.
        gate.tick();
        gate.check_step("a").unwrap();
        assert!(gate.check_step("a").is_err());
        // Many idle ticks cap at burst, not unbounded credit.
        for _ in 0..100 {
            gate.tick();
        }
        for _ in 0..3 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.check_step("a").is_err());
    }

    #[test]
    fn fractional_rates_accumulate_across_ticks() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 0.5,
            burst: 1.0,
        });
        gate.check_step("a").unwrap();
        assert!(gate.check_step("a").is_err(), "burst of 1 is spent");
        gate.tick();
        assert!(gate.check_step("a").is_err(), "half a token is not enough");
        gate.tick();
        gate.check_step("a").unwrap();
    }

    #[test]
    fn burst_is_clamped_up_to_rate() {
        let cfg = AdmissionConfig {
            max_tenants: 0,
            rate: 4.0,
            burst: 1.0,
        };
        assert_eq!(cfg.effective_burst(), 4.0);
        assert!(AdmissionConfig {
            rate: f64::NAN,
            ..AdmissionConfig::default()
        }
        .validate()
        .is_err());
        assert!(AdmissionConfig {
            burst: -1.0,
            ..AdmissionConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn idle_buckets_are_pruned() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 1.0,
            burst: 4.0,
        });
        // A burst of distinct ids (typos, hostile floods, evicted
        // tenants) must not pin memory forever.
        for i in 0..1000 {
            let _ = gate.check_step(&format!("ghost-{i}"));
        }
        assert_eq!(gate.buckets.len(), 1000);
        for _ in 0..2 * PRUNE_EVERY {
            gate.tick();
        }
        assert!(gate.buckets.is_empty(), "idle buckets refill and drop");
        // An id kept busy (spending faster than it refills, so its bucket
        // stays below capacity) survives the sweep.
        for _ in 0..PRUNE_EVERY + 8 {
            let _ = gate.check_step("busy");
            let _ = gate.check_step("busy");
            gate.tick();
        }
        assert!(gate.buckets.contains_key("busy"));
    }

    #[test]
    fn migration_window_defers_admits_and_halves_refill() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 2.0,
            burst: 2.0,
        });
        assert!(!gate.in_migration_window());
        gate.begin_migration_window(4);
        assert!(gate.in_migration_window());
        // Admits are deferred even with no tenant cap configured.
        let err = gate.check_admit("new", 0).unwrap_err();
        assert_eq!(err, AdmissionError::Migrating { id: "new".into() });
        assert!(err.to_string().contains("migration window"));
        // The burst still serves — the window throttles, never starves.
        gate.check_step("a").unwrap();
        gate.check_step("a").unwrap();
        assert!(gate.check_step("a").is_err());
        // Inside the window one tick refills at half rate: 1 token, not 2.
        gate.tick();
        assert!(gate.in_migration_window());
        gate.check_step("a").unwrap();
        assert!(gate.check_step("a").is_err(), "half refill serves one");
        // Past the window, refill and admits return to normal.
        gate.tick();
        gate.tick();
        gate.tick();
        assert!(!gate.in_migration_window());
        gate.check_admit("new", 0).unwrap();
        gate.check_step("a").unwrap();
        gate.check_step("a").unwrap();
        // A zero-length window never opens.
        let mut idle = AdmissionControl::default();
        idle.begin_migration_window(0);
        assert!(!idle.in_migration_window());
    }

    #[test]
    fn window_refill_splits_at_the_opening_boundary() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 2.0,
            burst: 4.0,
        });
        // Drain the bucket at tick 0, idle one full-rate tick, then open
        // the window and idle one half-rate tick: the straddling span
        // must fund 2 + 1 = 3 tokens, not 2 (retroactive halving) or 4.
        for _ in 0..4 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.check_step("a").is_err());
        gate.tick();
        gate.begin_migration_window(8);
        gate.tick();
        for _ in 0..3 {
            gate.check_step("a").unwrap();
        }
        assert!(
            gate.check_step("a").is_err(),
            "pre-window ticks fund at full rate, in-window ticks at half"
        );
    }

    #[test]
    fn window_refill_splits_at_the_closing_boundary() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 2.0,
            burst: 10.0,
        });
        // Drain at tick 0 with a 2-tick window open; spend again at tick
        // 4: the span covers 2 in-window ticks (half rate, 1 each) and 2
        // post-window ticks (full rate, 2 each) = 6 tokens — not 8 (the
        // whole span retroactively at full rate once the window closed).
        gate.begin_migration_window(2);
        for _ in 0..10 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.check_step("a").is_err());
        for _ in 0..4 {
            gate.tick();
        }
        assert!(!gate.in_migration_window());
        for _ in 0..6 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.check_step("a").is_err(), "in-window ticks stay halved");
    }

    #[test]
    fn deferred_admits_age_the_window_shut() {
        // The window is measured on the batch clock; a client that pauses
        // its step stream must still be able to retry its way in.
        let mut gate = AdmissionControl::default();
        gate.begin_migration_window(3);
        for _ in 0..3 {
            assert!(gate.check_admit("new", 0).is_err());
        }
        gate.check_admit("new", 0)
            .expect("refusals age the window shut without any ticks");
    }

    #[test]
    fn migration_window_without_rate_limits_leaves_steps_alone() {
        let mut gate = AdmissionControl::default();
        gate.begin_migration_window(5);
        for _ in 0..100 {
            gate.check_step("a").unwrap();
        }
        assert!(gate.check_admit("b", 0).is_err());
    }

    #[test]
    fn forget_and_reconfigure_reset_buckets() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 1.0,
            burst: 1.0,
        });
        gate.check_step("a").unwrap();
        assert!(gate.check_step("a").is_err());
        // Evicting the tenant drops its bucket; a re-admitted tenant
        // starts with a full one.
        gate.forget("a");
        gate.check_step("a").unwrap();
        // Disabling limits clears state; re-enabling starts fresh.
        gate.set_config(AdmissionConfig::default());
        assert!(gate.buckets.is_empty());
    }
}
