//! Streaming heterogeneous tenants: the lattice DP as a resumable policy.
//!
//! The homogeneous policies stream through
//! [`rsdc_online::streaming::StreamingPolicy`], whose events are 1-D
//! [`rsdc_core::Cost`] functions and whose states are scalars. The
//! heterogeneous problem has vector states over a configuration lattice,
//! so it gets its own streaming shape here, mirroring the same contract:
//!
//! * [`FleetSpec`] — the serializable tenant configuration: server types
//!   (count / power-up beta / energy / capacity per machine class) plus
//!   the aggregate-cost parameters that price a raw offered load into an
//!   [`HCost::Aggregate`] slot cost;
//! * [`HeteroStream`] — ingest one load per slot, commit one
//!   configuration per slot, and expose **bit-exact** `snapshot` /
//!   `restore`: the incremental state is the DP frontier (plus the
//!   committed configuration), so a restored stream continues exactly the
//!   schedule an uninterrupted run would produce — the property the
//!   engine's checkpoint/recovery layer builds on;
//! * [`HeteroAlgo`] — which policy drives the stream:
//!   [`Frontier`](HeteroAlgo::Frontier) (the [`FrontierDp`] lattice DP;
//!   its frontier min doubles as the exact prefix optimum) or
//!   [`Greedy`](HeteroAlgo::Greedy) (slot-wise minimizer, the thrash-prone
//!   baseline; pairs with a separate opt frontier when ratio tracking is
//!   on).
//!
//! Every commit reports its own operating and switching cost (per-type
//! betas make the scalar accounting of the engine insufficient), so the
//! engine can keep exact running totals without re-deriving fleet math.

use crate::model::{self, Config, HCost, ServerType};
use crate::online::{FrontierDp, GreedyConfig};
use serde::{Deserialize, Serialize};

/// Largest configuration lattice a streaming tenant may declare
/// (`prod (m_d + 1)` points, exponential in `D`). Per-tenant memory and
/// per-slot DP work are both `O(S * D)`, so the cap bounds what one admit
/// record can make its shard hold and do each slot.
pub const MAX_LATTICE: usize = 4096;

/// A heterogeneous tenant's static configuration: the machine classes and
/// the aggregate-cost parameters that price each offered load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Server types (dimension `D = types.len()`): per class, machine
    /// count, power-up cost, per-slot energy, and serving capacity.
    pub types: Vec<ServerType>,
    /// Delay weight of the aggregate cost.
    pub delay_weight: f64,
    /// Regulariser keeping the delay finite near saturation.
    pub delay_eps: f64,
    /// Overload penalty per unserved load unit.
    pub overload: f64,
}

impl FleetSpec {
    /// A fleet with the default aggregate-cost parameters
    /// (`delay_weight = 1`, `delay_eps = 0.3`, `overload = 25`).
    pub fn new(types: Vec<ServerType>) -> Self {
        FleetSpec {
            types,
            delay_weight: 1.0,
            delay_eps: 0.3,
            overload: 25.0,
        }
    }

    /// Validate the spec: at least one type, every count `>= 1`, finite
    /// non-negative betas/energies, positive capacities and `delay_eps`,
    /// and a lattice no larger than [`MAX_LATTICE`].
    pub fn validate(&self) -> Result<(), rsdc_core::Error> {
        let bad = |m: String| rsdc_core::Error::InvalidParameter(m);
        if self.types.is_empty() {
            return Err(bad("fleet needs at least one server type".into()));
        }
        for (d, ty) in self.types.iter().enumerate() {
            if ty.count == 0 {
                return Err(bad(format!("type {d}: count must be >= 1")));
            }
            if !(ty.beta.is_finite() && ty.beta >= 0.0) {
                return Err(bad(format!("type {d}: beta must be finite and >= 0")));
            }
            if !(ty.energy.is_finite() && ty.energy >= 0.0) {
                return Err(bad(format!("type {d}: energy must be finite and >= 0")));
            }
            if !(ty.capacity.is_finite() && ty.capacity > 0.0) {
                return Err(bad(format!("type {d}: capacity must be finite and > 0")));
            }
        }
        if !(self.delay_eps.is_finite() && self.delay_eps > 0.0) {
            return Err(bad("delay_eps must be finite and > 0".into()));
        }
        if !(self.delay_weight.is_finite() && self.delay_weight >= 0.0) {
            return Err(bad("delay_weight must be finite and >= 0".into()));
        }
        if !(self.overload.is_finite() && self.overload >= 0.0) {
            return Err(bad("overload must be finite and >= 0".into()));
        }
        if self.lattice_size() > MAX_LATTICE {
            return Err(bad(format!(
                "configuration lattice exceeds {MAX_LATTICE} points"
            )));
        }
        Ok(())
    }

    /// Dimension `D` (number of machine classes).
    pub fn dims(&self) -> usize {
        self.types.len()
    }

    /// Lattice size `S = prod (count_d + 1)` (saturating; compare against
    /// [`MAX_LATTICE`]).
    pub fn lattice_size(&self) -> usize {
        self.types
            .iter()
            .fold(1usize, |s, ty| s.saturating_mul(ty.count as usize + 1))
    }

    /// Total machines across all classes.
    pub fn total_machines(&self) -> u32 {
        self.types.iter().map(|t| t.count).sum()
    }

    /// Price one offered load into this fleet's slot cost.
    pub fn hcost(&self, lambda: f64) -> HCost {
        HCost::Aggregate {
            lambda,
            delay_weight: self.delay_weight,
            delay_eps: self.delay_eps,
            overload: self.overload,
        }
    }

    /// Build the batch instance equivalent to streaming `loads` — the
    /// reference object for engine-vs-batch differential tests.
    pub fn instance(&self, loads: &[f64]) -> crate::HInstance {
        crate::HInstance {
            types: self.types.clone(),
            costs: loads.iter().map(|&l| self.hcost(l)).collect(),
        }
    }

    /// Bridge into the physical layer: a [`rsdc_power::PowerConfig`]
    /// whose model is the fleet's machine-weighted mean per-machine draw
    /// (each class contributes [`ServerType::power_model`]) and whose
    /// capacity is the machine-weighted mean serving capacity — the
    /// scalar physics an [`rsdc_power::EnergyMeter`] needs when a shard
    /// hosts this fleet. The price defaults to a constant unit schedule;
    /// callers override it.
    pub fn power_config(&self) -> rsdc_power::PowerConfig {
        let machines: f64 = self.types.iter().map(|t| t.count as f64).sum();
        let machines = machines.max(1.0);
        let watts = self
            .types
            .iter()
            .map(|t| t.count as f64 * t.energy)
            .sum::<f64>()
            / machines;
        let capacity = self
            .types
            .iter()
            .map(|t| t.count as f64 * t.capacity)
            .sum::<f64>()
            / machines;
        let mut cfg = rsdc_power::PowerConfig::new(rsdc_power::PowerSpec::Constant { watts });
        // A fleet of zero-capacity classes cannot validate; the parse and
        // validate paths refuse those, so this only guards hand-built
        // specs.
        cfg.capacity = capacity.max(f64::MIN_POSITIVE);
        cfg
    }

    /// Parse the CLI short syntax: comma-separated machine classes, each
    /// `count:beta:energy:capacity` — e.g. `"4:1:1:1,2:2.5:1.4:2"`.
    pub fn parse_types(s: &str) -> Result<Vec<ServerType>, String> {
        let mut types = Vec::new();
        for (i, part) in s.split(',').enumerate() {
            let fields: Vec<&str> = part.split(':').collect();
            if fields.len() != 4 {
                return Err(format!(
                    "class {i}: expected count:beta:energy:capacity, got {part:?}"
                ));
            }
            let num = |k: usize, what: &str| -> Result<f64, String> {
                fields[k]
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("class {i}: bad {what} {:?}: {e}", fields[k]))
            };
            let count = fields[0]
                .trim()
                .parse::<u32>()
                .map_err(|e| format!("class {i}: bad count {:?}: {e}", fields[0]))?;
            types.push(ServerType {
                count,
                beta: num(1, "beta")?,
                energy: num(2, "energy")?,
                capacity: num(3, "capacity")?,
            });
        }
        Ok(types)
    }
}

impl ServerType {
    /// The physical-layer power model for one machine of this class. The
    /// hetero cost model charges `energy` per active machine per slot
    /// regardless of its load, so the equivalent [`rsdc_power`] model is
    /// a constant draw.
    pub fn power_model(&self) -> rsdc_power::PowerSpec {
        rsdc_power::PowerSpec::Constant { watts: self.energy }
    }
}

/// Which online policy drives a heterogeneous stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeteroAlgo {
    /// Follow the offline DP frontier ([`FrontierDp`]).
    Frontier,
    /// Slot-wise minimizer ([`GreedyConfig`]), the baseline.
    Greedy,
}

impl HeteroAlgo {
    /// Parse `frontier` / `greedy` (the CLI and wire short names).
    pub fn parse_short(s: &str) -> Result<HeteroAlgo, String> {
        match s {
            "frontier" | "dp" => Ok(HeteroAlgo::Frontier),
            "greedy" => Ok(HeteroAlgo::Greedy),
            other => Err(format!(
                "unknown hetero algorithm {other:?} (frontier|greedy)"
            )),
        }
    }

    /// Recognize the `hetero[:frontier|:greedy]` policy syntax shared by
    /// the wire format and the CLI (case-insensitive). `None` when `s` is
    /// not hetero-prefixed; `Some(Err(..))` for a hetero prefix with an
    /// unknown algorithm; bare `hetero` defaults to
    /// [`HeteroAlgo::Frontier`].
    pub fn parse_policy_prefix(s: &str) -> Option<Result<HeteroAlgo, String>> {
        let lower = s.to_lowercase();
        if lower == "hetero" {
            return Some(Ok(HeteroAlgo::Frontier));
        }
        let rest = lower.strip_prefix("hetero:")?;
        Some(HeteroAlgo::parse_short(rest))
    }
}

/// What one ingested load committed: the configuration and its exact slot
/// accounting (operating cost, per-type switching cost, machine ups/downs).
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCommit {
    /// The committed configuration (one entry per machine class).
    pub config: Config,
    /// Operating cost of this slot at the committed configuration.
    pub operating: f64,
    /// Switching cost entering this slot (per-type betas).
    pub switching: f64,
    /// Machines powered up entering this slot (across all classes).
    pub ups: u64,
    /// Machines powered down entering this slot (across all classes).
    pub downs: u64,
}

/// Serializable complete state of a [`HeteroStream`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroSnapshot {
    /// Fleet dimension `D` (shape check on restore).
    pub dims: usize,
    /// Lattice size `S` (shape check on restore).
    pub lattice: usize,
    /// Slots ingested.
    pub slots: u64,
    /// Committed configuration.
    pub state: Vec<u32>,
    /// Policy DP frontier (empty for greedy, and before the first slot).
    pub frontier: Vec<f64>,
    /// Separate prefix-optimum frontier (greedy with tracking only).
    pub opt_frontier: Option<Vec<f64>>,
}

/// A resumable streaming wrapper over the heterogeneous online policies:
/// one offered load in, one committed configuration (with its exact cost
/// accounting) out, and bit-exact snapshot/restore of the complete mutable
/// state — the DP frontier.
pub struct HeteroStream {
    spec: FleetSpec,
    algo: HeteroAlgo,
    dp: Option<FrontierDp>,       // the policy, for Frontier
    greedy: Option<GreedyConfig>, // the policy, for Greedy
    opt: Option<FrontierDp>,      // prefix-optimum tracker (Greedy + tracking)
    state: Config,
    slots: u64,
}

impl HeteroStream {
    /// Build a stream for `spec` driven by `algo`. With `track_opt`, the
    /// exact prefix optimum is maintained so reports can carry the
    /// competitive ratio — free for [`HeteroAlgo::Frontier`] (the policy
    /// frontier's min *is* the optimum), one extra frontier for greedy.
    pub fn new(
        spec: FleetSpec,
        algo: HeteroAlgo,
        track_opt: bool,
    ) -> Result<Self, rsdc_core::Error> {
        spec.validate()?;
        let dims = spec.dims();
        let (dp, greedy, opt) = match algo {
            HeteroAlgo::Frontier => (Some(FrontierDp::new(&spec.types)), None, None),
            HeteroAlgo::Greedy => (
                None,
                Some(GreedyConfig::new(dims)),
                track_opt.then(|| FrontierDp::new(&spec.types)),
            ),
        };
        Ok(HeteroStream {
            spec,
            algo,
            dp,
            greedy,
            opt,
            state: vec![0; dims],
            slots: 0,
        })
    }

    /// The fleet specification.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// The driving algorithm.
    pub fn algo(&self) -> HeteroAlgo {
        self.algo
    }

    /// Human-readable policy name (the tenant report's `policy` field).
    pub fn name(&self) -> String {
        let algo = match self.algo {
            HeteroAlgo::Frontier => "frontier",
            HeteroAlgo::Greedy => "greedy",
        };
        let counts: Vec<String> = self
            .spec
            .types
            .iter()
            .map(|t| t.count.to_string())
            .collect();
        format!("Hetero({algo},m=[{}])", counts.join(","))
    }

    /// Slots ingested so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The last committed configuration (all-zero before the first slot).
    pub fn last_config(&self) -> &Config {
        &self.state
    }

    /// Exact prefix offline optimum, when tracked (`None` before the first
    /// slot, or for greedy streams built without tracking).
    pub fn opt_cost(&self) -> Option<f64> {
        match (&self.dp, &self.opt) {
            (Some(dp), _) => dp.opt_cost(),
            (None, Some(opt)) => opt.opt_cost(),
            (None, None) => None,
        }
    }

    /// Ingest one offered load and commit this slot's configuration with
    /// its exact accounting.
    pub fn ingest(&mut self, lambda: f64) -> HeteroCommit {
        let cost = self.spec.hcost(lambda);
        let next = match self.algo {
            HeteroAlgo::Frontier => self.dp.as_mut().expect("frontier policy").step_cost(&cost),
            HeteroAlgo::Greedy => self
                .greedy
                .as_mut()
                .expect("greedy policy")
                .step_cost(&self.spec.types, &cost),
        };
        if let Some(opt) = &mut self.opt {
            opt.step_cost(&cost);
        }
        let operating = cost.eval(&self.spec.types, &next);
        let switching = model::switch_cost(&self.spec.types, &self.state, &next);
        let ups: u64 = next
            .iter()
            .zip(&self.state)
            .map(|(&b, &a)| b.saturating_sub(a) as u64)
            .sum();
        let downs: u64 = next
            .iter()
            .zip(&self.state)
            .map(|(&b, &a)| a.saturating_sub(b) as u64)
            .sum();
        self.state = next.clone();
        self.slots += 1;
        HeteroCommit {
            config: next,
            operating,
            switching,
            ups,
            downs,
        }
    }

    /// Capture the complete mutable state.
    pub fn snapshot(&self) -> HeteroSnapshot {
        let lattice = self.spec.lattice_size();
        HeteroSnapshot {
            dims: self.spec.dims(),
            lattice,
            slots: self.slots,
            state: self.state.clone(),
            frontier: self
                .dp
                .as_ref()
                .map(|dp| dp.frontier().to_vec())
                .unwrap_or_default(),
            opt_frontier: self.opt.as_ref().map(|opt| opt.frontier().to_vec()),
        }
    }

    /// Re-install a captured state. The receiver must have been built with
    /// the same fleet spec, algorithm and tracking flag.
    pub fn restore(&mut self, s: &HeteroSnapshot) -> Result<(), rsdc_core::Error> {
        let bad = |m: &str| rsdc_core::Error::InvalidParameter(format!("hetero snapshot: {m}"));
        if s.dims != self.spec.dims() {
            return Err(bad("fleet dimension mismatch"));
        }
        if s.state.len() != self.spec.dims() {
            return Err(bad("state dimension mismatch"));
        }
        if s.state
            .iter()
            .zip(&self.spec.types)
            .any(|(&x, ty)| x > ty.count)
        {
            return Err(bad("state exceeds a type's machine count"));
        }
        let lattice = self.spec.lattice_size();
        if s.lattice != lattice {
            return Err(bad("lattice size mismatch"));
        }
        match self.algo {
            HeteroAlgo::Frontier => {
                if s.opt_frontier.is_some() {
                    return Err(bad("frontier stream cannot carry a separate opt frontier"));
                }
                self.dp.as_mut().expect("frontier policy").restore(
                    s.frontier.clone(),
                    s.state.clone(),
                    s.slots,
                )?;
            }
            HeteroAlgo::Greedy => {
                if !s.frontier.is_empty() {
                    return Err(bad("greedy stream cannot carry a policy frontier"));
                }
                match (&mut self.opt, &s.opt_frontier) {
                    (Some(opt), Some(front)) => {
                        opt.restore(front.clone(), s.state.clone(), s.slots)?;
                    }
                    (Some(_), None) => {
                        return Err(bad("snapshot lacks the opt frontier tracking requires"))
                    }
                    (None, Some(_)) => {
                        return Err(bad(
                            "snapshot carries an opt frontier the receiver does not track",
                        ))
                    }
                    (None, None) => {}
                }
                self.greedy
                    .as_mut()
                    .expect("greedy policy")
                    .set_state(s.state.clone());
            }
        }
        self.state = s.state.clone();
        self.slots = s.slots;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FleetSpec {
        FleetSpec::new(vec![
            ServerType {
                count: 3,
                beta: 1.0,
                energy: 1.0,
                capacity: 1.0,
            },
            ServerType {
                count: 2,
                beta: 2.5,
                energy: 1.4,
                capacity: 2.0,
            },
        ])
    }

    fn loads(n: usize) -> Vec<f64> {
        (0..n).map(|t| 0.5 + ((t * 3 + 1) % 6) as f64).collect()
    }

    #[test]
    fn validate_rejects_degenerate_fleets() {
        assert!(FleetSpec::new(vec![]).validate().is_err());
        let mut s = spec();
        s.types[0].count = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.delay_eps = 0.0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.types[1].capacity = -1.0;
        assert!(s.validate().is_err());
        // Lattice blow-up is refused, not attempted.
        let huge = FleetSpec::new(vec![
            ServerType {
                count: 1000,
                beta: 1.0,
                energy: 1.0,
                capacity: 1.0,
            };
            3
        ]);
        assert!(huge.validate().is_err());
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn fleet_maps_onto_the_physical_power_layer() {
        use rsdc_power::{PowerModel, PowerSpec};
        let s = spec();
        // Per class: a constant draw at the class's per-slot energy,
        // independent of utilization.
        assert_eq!(s.types[1].power_model(), PowerSpec::Constant { watts: 1.4 });
        assert_eq!(s.types[0].power_model().watts(0.0), 1.0);
        assert_eq!(s.types[0].power_model().watts(1.0), 1.0);
        // Fleet-wide: machine-weighted means over 3 + 2 machines.
        let cfg = s.power_config();
        assert!(cfg.validate().is_ok());
        assert_eq!(
            cfg.model,
            PowerSpec::Constant {
                watts: (3.0 * 1.0 + 2.0 * 1.4) / 5.0
            }
        );
        assert_eq!(cfg.capacity, (3.0 * 1.0 + 2.0 * 2.0) / 5.0);
        assert_eq!(cfg.price.price_at(17), 1.0, "unit price by default");
    }

    #[test]
    fn stream_matches_batch_frontier_dp() {
        let fs = loads(40);
        let inst = spec().instance(&fs);
        let mut batch = FrontierDp::new(&inst.types);
        let want: Vec<Config> = (1..=inst.horizon()).map(|t| batch.step(&inst, t)).collect();
        let mut stream = HeteroStream::new(spec(), HeteroAlgo::Frontier, true).unwrap();
        let got: Vec<Config> = fs.iter().map(|&l| stream.ingest(l).config).collect();
        assert_eq!(got, want);
        assert_eq!(stream.opt_cost(), batch.opt_cost());
        // The commit accounting re-assembles to the instance's total cost.
        let mut replay = HeteroStream::new(spec(), HeteroAlgo::Frontier, false).unwrap();
        let total: f64 = fs
            .iter()
            .map(|&l| {
                let c = replay.ingest(l);
                c.operating + c.switching
            })
            .sum();
        assert!((total - inst.cost(&got)).abs() < 1e-9 * (1.0 + total.abs()));
    }

    #[test]
    fn stream_matches_batch_greedy() {
        let fs = loads(25);
        let inst = spec().instance(&fs);
        let mut batch = GreedyConfig::new(inst.dims());
        let want: Vec<Config> = (1..=inst.horizon()).map(|t| batch.step(&inst, t)).collect();
        let mut stream = HeteroStream::new(spec(), HeteroAlgo::Greedy, false).unwrap();
        let got: Vec<Config> = fs.iter().map(|&l| stream.ingest(l).config).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let fs = loads(32);
        for (algo, track) in [
            (HeteroAlgo::Frontier, true),
            (HeteroAlgo::Frontier, false),
            (HeteroAlgo::Greedy, true),
            (HeteroAlgo::Greedy, false),
        ] {
            let mut full = HeteroStream::new(spec(), algo, track).unwrap();
            let want: Vec<Config> = fs.iter().map(|&l| full.ingest(l).config).collect();

            let mut first = HeteroStream::new(spec(), algo, track).unwrap();
            let mut got: Vec<Config> = fs[..13].iter().map(|&l| first.ingest(l).config).collect();
            // Through JSON text, as a checkpoint would carry it.
            let text = serde_json::to_string(&first.snapshot().to_value()).unwrap();
            let v: serde::Value = serde_json::from_str(&text).unwrap();
            let snap = HeteroSnapshot::from_value(&v).unwrap();
            let mut resumed = HeteroStream::new(spec(), algo, track).unwrap();
            resumed.restore(&snap).unwrap();
            got.extend(fs[13..].iter().map(|&l| resumed.ingest(l).config));
            assert_eq!(got, want, "{algo:?} track={track}");
            assert_eq!(
                resumed.opt_cost(),
                full.opt_cost(),
                "{algo:?} track={track}"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatches() {
        let mut a = HeteroStream::new(spec(), HeteroAlgo::Frontier, false).unwrap();
        a.ingest(2.0);
        let snap = a.snapshot();
        // Different fleet shape.
        let other = FleetSpec::new(vec![ServerType {
            count: 4,
            beta: 1.0,
            energy: 1.0,
            capacity: 1.0,
        }]);
        let mut b = HeteroStream::new(other, HeteroAlgo::Frontier, false).unwrap();
        assert!(b.restore(&snap).is_err());
        // Greedy receiver refuses a frontier-carrying snapshot.
        let mut c = HeteroStream::new(spec(), HeteroAlgo::Greedy, false).unwrap();
        assert!(c.restore(&snap).is_err());
        // Tracking greedy refuses a snapshot without the opt frontier.
        let mut d = HeteroStream::new(spec(), HeteroAlgo::Greedy, true).unwrap();
        let mut e = HeteroStream::new(spec(), HeteroAlgo::Greedy, false).unwrap();
        e.ingest(2.0);
        assert!(d.restore(&e.snapshot()).is_err());
        // ... and the reverse: a non-tracking greedy receiver refuses a
        // tracking snapshot instead of silently dropping the opt frontier.
        d.ingest(2.0);
        assert!(e.restore(&d.snapshot()).is_err());
    }

    #[test]
    fn parse_types_short_syntax() {
        let types = FleetSpec::parse_types("4:1:1:1,2:2.5:1.4:2").unwrap();
        assert_eq!(types.len(), 2);
        assert_eq!(types[0].count, 4);
        assert_eq!(types[1].beta, 2.5);
        assert_eq!(types[1].capacity, 2.0);
        assert!(FleetSpec::parse_types("4:1:1").is_err());
        assert!(FleetSpec::parse_types("x:1:1:1").is_err());
        assert_eq!(
            HeteroAlgo::parse_short("frontier").unwrap(),
            HeteroAlgo::Frontier
        );
        assert_eq!(
            HeteroAlgo::parse_short("greedy").unwrap(),
            HeteroAlgo::Greedy
        );
        assert!(HeteroAlgo::parse_short("zap").is_err());
    }
}
