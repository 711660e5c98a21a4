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
//! The gate owns the config and the clock; the buckets live on the
//! tenants' intern entries ([`crate::intern`]), so a bucket exists
//! exactly while its tenant does. Each batch ticks the gate once and
//! takes a [`Refill`] snapshot, which the engine's routing loop spends
//! against the bucket of every event whose id names a live tenant. Ids
//! that are not live are never gated: they fail as unknown tenants and
//! hold no bucket. An evict releases the entry with its bucket, so a
//! re-admitted id starts with a full one, and bucket memory is bounded
//! by the live-tenant high-water mark.
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

/// One tenant's token bucket, refilled lazily against the gate's tick.
/// The default is a full bucket: its infinite level clamps to `burst`
/// at the first refill.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    tokens: f64,
    as_of_tick: u64,
}

impl Default for TokenBucket {
    fn default() -> Self {
        TokenBucket {
            tokens: f64::INFINITY,
            as_of_tick: 0,
        }
    }
}

/// What one batch charges its buckets against: the rate limit and the
/// gate's clock as of the batch's tick.
#[derive(Debug, Clone, Copy)]
pub struct Refill {
    rate: f64,
    burst: f64,
    tick: u64,
    /// Tick (exclusive) until which the migration window halves refill.
    window_end: u64,
}

impl Refill {
    /// Refill `bucket` up to this tick and spend one token from it;
    /// `false` (throttled) when less than one token is left.
    ///
    /// Inside a migration window buckets refill at **half** the
    /// configured rate — rate-limited tenants are throttled to half their
    /// sustained rate while a just-applied topology change settles, but
    /// never starved outright (a full bucket still serves its burst;
    /// unlimited tenants are unaffected: the window defers admits, not
    /// traffic, when no rate limit is configured).
    pub fn spend(&self, bucket: &mut TokenBucket) -> bool {
        let elapsed = self.tick.saturating_sub(bucket.as_of_tick);
        // Split the elapsed span at the window's closing boundary: ticks
        // inside the window refill at half rate, ticks after it at full.
        // `begin_migration_window` settled all buckets at the opening
        // boundary, so `as_of_tick` never predates an open window and the
        // split below is exact.
        let halved = self
            .window_end
            .saturating_sub(bucket.as_of_tick)
            .min(elapsed);
        let refill = halved as f64 * self.rate * 0.5 + (elapsed - halved) as f64 * self.rate;
        bucket.tokens = (bucket.tokens + refill).min(self.burst);
        // Concurrent batches may charge out of tick order; a bucket's
        // clock never runs backwards, so no tick is funded twice.
        bucket.as_of_tick = bucket.as_of_tick.max(self.tick);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The admission gate: config and logical clock. Lives in the
/// [`Engine`](crate::Engine) handle; shards never see refused traffic.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    tick: u64,
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
    /// caps them at the next refill); the engine resets every bucket to
    /// full when rate limits are disabled. `burst` is normalized to the
    /// effective (rate-clamped) capacity on the way in, so
    /// [`config`](AdmissionControl::config) — and therefore the wire
    /// `limits` read-back — always reports the bucket size actually
    /// enforced.
    pub fn set_config(&mut self, mut cfg: AdmissionConfig) {
        if cfg.limits_rate() {
            cfg.burst = cfg.effective_burst();
        }
        self.cfg = cfg;
    }

    /// Open (or extend) the migration window for the next `ticks` ticks.
    /// Called by the engine when an auto-triggered migration
    /// lands. `0` closes nothing and opens nothing.
    ///
    /// Every bucket of the fleet is settled (refilled at the full rate)
    /// up to the opening tick first, so idle spans that *straddle* the
    /// boundary are not retroactively halved — pre-window ticks fund at
    /// the full rate, only in-window ticks at half ([`Refill::spend`]
    /// splits the other boundary symmetrically).
    pub fn begin_migration_window<'a>(
        &mut self,
        ticks: u64,
        buckets: impl Iterator<Item = &'a mut TokenBucket>,
    ) {
        if self.cfg.limits_rate() {
            let (rate, burst, now) = (self.cfg.rate, self.cfg.effective_burst(), self.tick);
            for bucket in buckets {
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
    pub fn tick(&mut self) {
        self.tick += 1;
    }

    /// The refill the current tick's events are charged against, or
    /// `None` when no rate limit is configured.
    pub fn refill(&self) -> Option<Refill> {
        self.cfg.limits_rate().then_some(Refill {
            rate: self.cfg.rate,
            burst: self.cfg.effective_burst(),
            tick: self.tick,
            window_end: self.migration_until,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Charge one event to `bucket` at the gate's current tick.
    fn spend(gate: &AdmissionControl, bucket: &mut TokenBucket) -> bool {
        gate.refill().expect("rate limited").spend(bucket)
    }

    #[test]
    fn default_config_is_fully_open() {
        let mut gate = AdmissionControl::default();
        gate.check_admit("a", usize::MAX - 1).unwrap();
        gate.tick();
        assert!(gate.refill().is_none(), "an open gate charges no bucket");
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
        let (mut a, mut b) = (TokenBucket::default(), TokenBucket::default());
        // Fresh bucket starts full: the burst passes, the 4th event fails.
        for _ in 0..3 {
            assert!(spend(&gate, &mut a));
        }
        assert!(!spend(&gate, &mut a));
        assert!(AdmissionError::Throttled { id: "a".into() }
            .to_string()
            .contains("throttled"));
        // Other tenants have their own buckets.
        assert!(spend(&gate, &mut b));
        // One tick refills one token; two events still exceed it.
        gate.tick();
        assert!(spend(&gate, &mut a));
        assert!(!spend(&gate, &mut a));
        // Many idle ticks cap at burst, not unbounded credit.
        for _ in 0..100 {
            gate.tick();
        }
        for _ in 0..3 {
            assert!(spend(&gate, &mut a));
        }
        assert!(!spend(&gate, &mut a));
    }

    #[test]
    fn fractional_rates_accumulate_across_ticks() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 0.5,
            burst: 1.0,
        });
        let mut a = TokenBucket::default();
        assert!(spend(&gate, &mut a));
        assert!(!spend(&gate, &mut a), "burst of 1 is spent");
        gate.tick();
        assert!(!spend(&gate, &mut a), "half a token is not enough");
        gate.tick();
        assert!(spend(&gate, &mut a));
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
    fn migration_window_defers_admits_and_halves_refill() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 2.0,
            burst: 2.0,
        });
        let mut a = TokenBucket::default();
        assert!(!gate.in_migration_window());
        gate.begin_migration_window(4, std::iter::once(&mut a));
        assert!(gate.in_migration_window());
        // Admits are deferred even with no tenant cap configured.
        let err = gate.check_admit("new", 0).unwrap_err();
        assert_eq!(err, AdmissionError::Migrating { id: "new".into() });
        assert!(err.to_string().contains("migration window"));
        // The burst still serves — the window throttles, never starves.
        assert!(spend(&gate, &mut a));
        assert!(spend(&gate, &mut a));
        assert!(!spend(&gate, &mut a));
        // Inside the window one tick refills at half rate: 1 token, not 2.
        gate.tick();
        assert!(gate.in_migration_window());
        assert!(spend(&gate, &mut a));
        assert!(!spend(&gate, &mut a), "half refill serves one");
        // Past the window, refill and admits return to normal.
        gate.tick();
        gate.tick();
        gate.tick();
        assert!(!gate.in_migration_window());
        gate.check_admit("new", 0).unwrap();
        assert!(spend(&gate, &mut a));
        assert!(spend(&gate, &mut a));
        // A zero-length window never opens.
        let mut idle = AdmissionControl::default();
        idle.begin_migration_window(0, std::iter::empty());
        assert!(!idle.in_migration_window());
    }

    #[test]
    fn window_refill_splits_at_the_opening_boundary() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 2.0,
            burst: 4.0,
        });
        let mut a = TokenBucket::default();
        // Drain the bucket at tick 0, idle one full-rate tick, then open
        // the window and idle one half-rate tick: the straddling span
        // must fund 2 + 1 = 3 tokens, not 2 (retroactive halving) or 4.
        for _ in 0..4 {
            assert!(spend(&gate, &mut a));
        }
        assert!(!spend(&gate, &mut a));
        gate.tick();
        gate.begin_migration_window(8, std::iter::once(&mut a));
        gate.tick();
        for _ in 0..3 {
            assert!(spend(&gate, &mut a));
        }
        assert!(
            !spend(&gate, &mut a),
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
        let mut a = TokenBucket::default();
        // Drain at tick 0 with a 2-tick window open; spend again at tick
        // 4: the span covers 2 in-window ticks (half rate, 1 each) and 2
        // post-window ticks (full rate, 2 each) = 6 tokens — not 8 (the
        // whole span retroactively at full rate once the window closed).
        gate.begin_migration_window(2, std::iter::once(&mut a));
        for _ in 0..10 {
            assert!(spend(&gate, &mut a));
        }
        assert!(!spend(&gate, &mut a));
        for _ in 0..4 {
            gate.tick();
        }
        assert!(!gate.in_migration_window());
        for _ in 0..6 {
            assert!(spend(&gate, &mut a));
        }
        assert!(!spend(&gate, &mut a), "in-window ticks stay halved");
    }

    #[test]
    fn deferred_admits_age_the_window_shut() {
        // The window is measured on the batch clock; a client that pauses
        // its step stream must still be able to retry its way in.
        let mut gate = AdmissionControl::default();
        gate.begin_migration_window(3, std::iter::empty());
        for _ in 0..3 {
            assert!(gate.check_admit("new", 0).is_err());
        }
        gate.check_admit("new", 0)
            .expect("refusals age the window shut without any ticks");
    }

    #[test]
    fn migration_window_without_rate_limits_leaves_steps_alone() {
        let mut gate = AdmissionControl::default();
        gate.begin_migration_window(5, std::iter::empty());
        assert!(gate.refill().is_none(), "no bucket is charged");
        assert!(gate.check_admit("b", 0).is_err());
    }

    #[test]
    fn forget_and_reconfigure_reset_buckets() {
        let mut gate = AdmissionControl::new(AdmissionConfig {
            max_tenants: 0,
            rate: 1.0,
            burst: 1.0,
        });
        let mut a = TokenBucket::default();
        assert!(spend(&gate, &mut a));
        assert!(!spend(&gate, &mut a));
        // A released tenant's bucket is forgotten with its intern entry;
        // a re-admitted tenant starts with a fresh, full one.
        a = TokenBucket::default();
        assert!(spend(&gate, &mut a));
        // Charges out of tick order never run a bucket's clock backwards.
        gate.tick();
        gate.tick();
        let late = gate.refill().unwrap();
        assert!(late.spend(&mut a));
        assert!(!Refill { tick: 1, ..late }.spend(&mut a));
        assert!(!late.spend(&mut a), "tick 2 is not funded twice");
        // Disabling limits stops all charging; re-enabling starts fresh.
        gate.set_config(AdmissionConfig::default());
        assert!(gate.refill().is_none());
    }
}
