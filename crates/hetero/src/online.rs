//! Online heuristics for the heterogeneous problem.
//!
//! No algorithm here carries the paper's guarantees — the heterogeneous
//! lower bounds are strictly harder (the paper cites convex function
//! chasing, where the best known ratios grow with dimension). Provided:
//!
//! * [`FrontierDp`] — maintain the *offline DP frontier* incrementally
//!   (the exact prefix optimum to every lattice point, the recurrence of
//!   [`crate::offline::solve`] run one slot at a time) and commit the
//!   frontier's argmin each slot. The frontier vector is the algorithm's
//!   complete state, which is what makes it streamable: snapshotting the
//!   frontier and resuming is bit-identical to never stopping.
//! * [`CoordinateLcp`] — run one discrete LCP per type on the *marginal*
//!   cost function (vary type `d`, freeze the other coordinates at their
//!   current values). Inherits LCP's laziness; no global guarantee.
//! * [`GreedyConfig`] — jump to the minimizing configuration each slot
//!   (coordinate descent); the thrash-prone baseline.

use crate::model::{self, Config, HCost, HInstance, ServerType};
use rsdc_core::cost::Cost;
use rsdc_online::lcp::Lcp;
use rsdc_online::traits::OnlineAlgorithm;

/// Per-type LCP on marginal costs.
#[derive(Debug)]
pub struct CoordinateLcp {
    trackers: Vec<Lcp>,
    state: Config,
}

impl CoordinateLcp {
    /// Build from the instance's type parameters.
    pub fn new(inst: &HInstance) -> Self {
        let trackers = inst
            .types
            .iter()
            .map(|ty| Lcp::new(ty.count, ty.beta))
            .collect();
        Self {
            trackers,
            state: vec![0; inst.dims()],
        }
    }

    /// Consume slot `t`'s cost (1-based, must match the instance) and
    /// commit a configuration.
    pub fn step(&mut self, inst: &HInstance, t: usize) -> Config {
        // One pass of coordinate updates, each against the marginal cost
        // with the *latest* values of the other coordinates.
        for d in 0..inst.dims() {
            let mut probe = self.state.clone();
            let vals: Vec<f64> = (0..=inst.types[d].count)
                .map(|v| {
                    probe[d] = v;
                    inst.eval(t, &probe)
                })
                .collect();
            let marginal = convex_lower_envelope(vals);
            let x = self.trackers[d].step(&marginal);
            self.state[d] = x;
        }
        self.state.clone()
    }
}

/// Jump to a minimizing configuration of each slot's cost (exhaustive over
/// the lattice — coordinate descent can stall at non-global lattice points
/// even for jointly convex costs, so we pay the `O(S)` scan; the lattices
/// this crate targets are small).
#[derive(Debug)]
pub struct GreedyConfig {
    state: Config,
    lattice: Option<Vec<Config>>,
}

impl GreedyConfig {
    /// Start from the all-zero configuration.
    pub fn new(dims: usize) -> Self {
        Self {
            state: vec![0; dims],
            lattice: None,
        }
    }

    /// Commit a configuration for slot `t`.
    pub fn step(&mut self, inst: &HInstance, t: usize) -> Config {
        self.step_cost(&inst.types, &inst.costs[t - 1])
    }

    /// Commit a configuration for one streamed cost — the instance-free
    /// core of [`GreedyConfig::step`], used by the streaming wrapper.
    pub fn step_cost(&mut self, types: &[ServerType], cost: &HCost) -> Config {
        let lattice = self
            .lattice
            .get_or_insert_with(|| model::all_configs(types));
        let mut best_c = f64::INFINITY;
        let mut best = self.state.clone();
        for cfg in lattice.iter() {
            let c = cost.eval(types, cfg);
            if c < best_c {
                best_c = c;
                best = cfg.clone();
            }
        }
        self.state = best;
        self.state.clone()
    }

    /// The last committed configuration.
    pub fn state(&self) -> &Config {
        &self.state
    }

    /// Re-install a committed configuration (snapshot restore).
    pub fn set_state(&mut self, state: Config) {
        self.state = state;
    }
}

/// Follow the offline DP frontier: keep, for every lattice point `j`, the
/// exact optimal cost `dist[j]` of serving the prefix seen so far and
/// ending in `j` (the recurrence of [`crate::offline::solve`], advanced
/// one slot at a time), and commit the frontier's argmin each slot.
///
/// Two properties make this the natural streaming hetero policy:
///
/// * the frontier **is** the complete algorithm state — `O(S)` floats for
///   `S` lattice points, independent of the stream length — so snapshot /
///   restore is exact by construction;
/// * `min_j dist[j]` is the exact prefix offline optimum, so competitive-
///   ratio tracking comes for free (no second tracker needed).
///
/// `O(S * D)` work per slot: the min over predecessors runs as one scalar
/// [`rsdc_offline::dp::relax`] per lattice line along each axis.
#[derive(Debug, Clone)]
pub struct FrontierDp {
    types: Vec<ServerType>,
    pub(crate) lattice: Vec<Config>,
    dist: Vec<f64>, // empty until the first slot is ingested
    /// The last step's argmin predecessor (lattice index) of every point.
    pub(crate) parent: Vec<u32>,
    line: Vec<f64>,     // one lattice line's values, then its relaxed values
    line_idx: Vec<u32>, // its predecessors, then its in-line argmins
    state: Config,
    slots: u64,
}

impl FrontierDp {
    /// Build for a fleet. The lattice (`prod (m_d + 1)` points) is
    /// enumerated here; memory is `O(S * D)`.
    pub fn new(types: &[ServerType]) -> Self {
        FrontierDp {
            types: types.to_vec(),
            state: vec![0; types.len()],
            lattice: model::all_configs(types),
            dist: Vec::new(),
            parent: Vec::new(),
            line: Vec::new(),
            line_idx: Vec::new(),
            slots: 0,
        }
    }

    /// Commit a configuration for slot `t` of an instance (batch runner).
    pub fn step(&mut self, inst: &HInstance, t: usize) -> Config {
        self.step_cost(&inst.costs[t - 1])
    }

    /// Advance the frontier by one streamed cost and commit its argmin
    /// (ties break toward the lowest lattice index, deterministically).
    pub fn step_cost(&mut self, cost: &HCost) -> Config {
        let arg = self.advance(cost);
        self.state = self.lattice[arg].clone();
        self.state.clone()
    }

    /// Advance the frontier by one slot and return its argmin's lattice
    /// index.
    pub(crate) fn advance(&mut self, cost: &HCost) -> usize {
        if self.dist.is_empty() {
            // Every schedule starts at the all-zero configuration (index 0).
            self.dist = vec![f64::INFINITY; self.lattice.len()];
            self.dist[0] = 0.0;
        }
        self.relax();
        for (d, cfg) in self.dist.iter_mut().zip(&self.lattice) {
            *d += cost.eval(&self.types, cfg);
        }
        self.slots += 1;
        let mut arg = 0usize;
        for j in 1..self.dist.len() {
            if self.dist[j] < self.dist[arg] {
                arg = j;
            }
        }
        arg
    }

    /// The min-plus step without the operating cost, in place:
    /// `dist[j] <- min_i dist[i] + switch_cost(lattice[i], lattice[j])`
    /// with `parent[j]` an argmin `i`. The switching cost
    /// `sum_d beta_d (x_d - y_d)^+` is separable, so the min over all `S`
    /// predecessors factorises into one scalar [`rsdc_offline::dp::relax`]
    /// per lattice line along each axis in turn (a distance transform):
    /// `O(S * D)` instead of `O(S^2 * D)`.
    fn relax(&mut self) {
        let s = self.dist.len();
        self.parent.clear();
        self.parent.extend(0..s as u32);
        let mut stride = s;
        for ty in &self.types {
            // Row-major: along axis d the index steps by the product of
            // the later axes' lengths, and lines start where x_d = 0.
            let len = ty.count as usize + 1;
            stride /= len;
            self.line.resize(2 * len, 0.0);
            self.line_idx.resize(2 * len, 0);
            let (line, relaxed) = self.line.split_at_mut(len);
            let (src, arg) = self.line_idx.split_at_mut(len);
            for start in (0..s).step_by(len * stride).flat_map(|o| o..o + stride) {
                for k in 0..len {
                    line[k] = self.dist[start + k * stride];
                    src[k] = self.parent[start + k * stride];
                }
                rsdc_offline::dp::relax(line, ty.beta, relaxed, arg);
                for k in 0..len {
                    self.dist[start + k * stride] = relaxed[k];
                    self.parent[start + k * stride] = src[arg[k] as usize];
                }
            }
        }
    }

    /// The fleet's server types.
    pub fn types(&self) -> &[ServerType] {
        &self.types
    }

    /// Lattice size `S`.
    pub fn lattice_size(&self) -> usize {
        self.lattice.len()
    }

    /// Slots ingested so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The frontier vector (empty before the first slot).
    pub fn frontier(&self) -> &[f64] {
        &self.dist
    }

    /// The last committed configuration (all-zero before the first slot).
    pub fn state(&self) -> &Config {
        &self.state
    }

    /// Exact offline optimum of the ingested prefix — `min_j dist[j]`
    /// (`None` before the first slot).
    pub fn opt_cost(&self) -> Option<f64> {
        self.dist
            .iter()
            .copied()
            .reduce(|a, b| if b < a { b } else { a })
    }

    /// Re-install a previously captured frontier + committed state.
    pub fn restore(
        &mut self,
        dist: Vec<f64>,
        state: Config,
        slots: u64,
    ) -> Result<(), rsdc_core::Error> {
        let bad = |m: &str| rsdc_core::Error::InvalidParameter(format!("FrontierDp snapshot: {m}"));
        if !(dist.is_empty() || dist.len() == self.lattice.len()) {
            return Err(bad("frontier length does not match the lattice"));
        }
        if state.len() != self.types.len() {
            return Err(bad("state dimension does not match the fleet"));
        }
        if state.iter().zip(&self.types).any(|(&x, ty)| x > ty.count) {
            return Err(bad("state exceeds a type's machine count"));
        }
        if dist.is_empty() != (slots == 0) {
            return Err(bad("slot count inconsistent with frontier"));
        }
        // Every lattice point is reachable by powering up, so a genuine
        // frontier is finite everywhere.
        if dist.iter().any(|v| !v.is_finite()) {
            return Err(bad("frontier entries must be finite"));
        }
        self.dist = dist;
        self.state = state;
        self.slots = slots;
        Ok(())
    }
}

/// Convexify a sampled marginal: marginal costs of a jointly-convex
/// function along one axis are convex already; numerical noise or the
/// saturated overload branch can leave tiny violations, so take the convex
/// lower envelope defensively (monotone-slope repair).
fn convex_lower_envelope(vals: Vec<f64>) -> Cost {
    let mut v = vals;
    // Repair: enforce non-decreasing slopes by a single pass of slope
    // averaging (Pool Adjacent Violators on the derivative).
    let n = v.len();
    if n >= 3 {
        let slopes: Vec<f64> = v.windows(2).map(|w| w[1] - w[0]).collect();
        // Pool Adjacent Violators on the slope sequence: blocks store
        // (slope sum, count); merge while the previous block's average
        // exceeds the current block's average.
        let mut blocks: Vec<(f64, usize)> = Vec::new();
        for s in slopes {
            let mut cur = (s, 1usize);
            while let Some(&(psum, pcnt)) = blocks.last() {
                let prev_avg = psum / pcnt as f64;
                let cur_avg = cur.0 / cur.1 as f64;
                if prev_avg > cur_avg + 1e-15 {
                    blocks.pop();
                    cur = (psum + cur.0, pcnt + cur.1);
                } else {
                    break;
                }
            }
            blocks.push(cur);
        }
        let mut acc = v[0];
        let mut i = 0usize;
        for (sum, cnt) in blocks {
            let avg = sum / cnt as f64;
            for _ in 0..cnt {
                acc += avg;
                i += 1;
                v[i] = acc;
            }
        }
    }
    Cost::table(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HCost, ServerType};
    use crate::offline;

    fn instance(loads: &[f64]) -> HInstance {
        HInstance {
            types: vec![
                ServerType {
                    count: 3,
                    beta: 1.0,
                    energy: 1.0,
                    capacity: 1.0,
                },
                ServerType {
                    count: 3,
                    beta: 2.5,
                    energy: 1.4,
                    capacity: 2.0,
                },
            ],
            costs: loads
                .iter()
                .map(|&lambda| HCost::Aggregate {
                    lambda,
                    delay_weight: 1.0,
                    delay_eps: 0.3,
                    overload: 25.0,
                })
                .collect(),
        }
    }

    fn run_coordinate_lcp(inst: &HInstance) -> Vec<Config> {
        let mut a = CoordinateLcp::new(inst);
        (1..=inst.horizon()).map(|t| a.step(inst, t)).collect()
    }

    fn run_greedy(inst: &HInstance) -> Vec<Config> {
        let mut a = GreedyConfig::new(inst.dims());
        (1..=inst.horizon()).map(|t| a.step(inst, t)).collect()
    }

    #[test]
    fn coordinate_lcp_is_feasible_and_reasonable() {
        let loads: Vec<f64> = (0..40)
            .map(|t| 2.5 + 2.0 * ((t as f64) * 0.4).sin())
            .collect();
        let inst = instance(&loads);
        let xs = run_coordinate_lcp(&inst);
        for (x, ty) in xs.iter().flat_map(|c| c.iter().zip(&inst.types)) {
            assert!(*x <= ty.count);
        }
        let opt = offline::solve(&inst);
        let ratio = inst.cost(&xs) / opt.cost;
        assert!(
            (1.0..=4.0).contains(&ratio),
            "coordinate LCP ratio {ratio} out of expected band"
        );
    }

    #[test]
    fn greedy_finds_slotwise_minima() {
        let inst = instance(&[3.0]);
        let xs = run_greedy(&inst);
        // Exhaustive check: no configuration has lower slot cost.
        let c = inst.eval(1, &xs[0]);
        for cfg in inst.all_configs() {
            assert!(inst.eval(1, &cfg) >= c - 1e-9, "{cfg:?}");
        }
    }

    #[test]
    fn lcp_no_worse_than_greedy_on_oscillation() {
        // Alternating load: greedy re-buys capacity every other slot.
        let loads: Vec<f64> = (0..60)
            .map(|t| if t % 2 == 0 { 5.0 } else { 0.5 })
            .collect();
        let inst = instance(&loads);
        let c_lcp = inst.cost(&run_coordinate_lcp(&inst));
        let c_greedy = inst.cost(&run_greedy(&inst));
        assert!(
            c_lcp <= c_greedy * 1.05,
            "coordinate LCP {c_lcp} vs greedy {c_greedy}"
        );
    }

    #[test]
    fn frontier_dp_tracks_the_exact_prefix_optimum() {
        // The frontier after t slots is the offline DP's column t, so its
        // min must equal the offline optimum of the prefix — bitwise, the
        // arithmetic is the same.
        let loads: Vec<f64> = (0..12).map(|t| 1.0 + (t % 5) as f64).collect();
        let inst = instance(&loads);
        let mut a = FrontierDp::new(&inst.types);
        for t in 1..=inst.horizon() {
            a.step(&inst, t);
            let prefix = HInstance {
                types: inst.types.clone(),
                costs: inst.costs[..t].to_vec(),
            };
            let opt = offline::solve(&prefix).cost;
            assert_eq!(a.opt_cost().unwrap(), opt, "prefix length {t}");
        }
    }

    #[test]
    fn frontier_dp_is_feasible_and_reasonable() {
        let loads: Vec<f64> = (0..40)
            .map(|t| 2.5 + 2.0 * ((t as f64) * 0.4).sin())
            .collect();
        let inst = instance(&loads);
        let mut a = FrontierDp::new(&inst.types);
        let xs: Vec<Config> = (1..=inst.horizon()).map(|t| a.step(&inst, t)).collect();
        for (x, ty) in xs.iter().flat_map(|c| c.iter().zip(&inst.types)) {
            assert!(*x <= ty.count);
        }
        let opt = offline::solve(&inst);
        let ratio = inst.cost(&xs) / opt.cost;
        assert!(
            (1.0..=4.0).contains(&ratio),
            "frontier DP ratio {ratio} out of expected band"
        );
    }

    #[test]
    fn frontier_dp_restore_resumes_bit_identically() {
        let loads: Vec<f64> = (0..30).map(|t| 0.5 + (t % 7) as f64).collect();
        let inst = instance(&loads);
        let mut full = FrontierDp::new(&inst.types);
        let want: Vec<Config> = (1..=inst.horizon()).map(|t| full.step(&inst, t)).collect();

        let mut first = FrontierDp::new(&inst.types);
        let mut got: Vec<Config> = (1..=11).map(|t| first.step(&inst, t)).collect();
        let (dist, state, slots) = (
            first.frontier().to_vec(),
            first.state().clone(),
            first.slots(),
        );
        let mut resumed = FrontierDp::new(&inst.types);
        resumed.restore(dist, state, slots).unwrap();
        got.extend((12..=inst.horizon()).map(|t| resumed.step(&inst, t)));
        assert_eq!(got, want);
        assert_eq!(resumed.opt_cost(), full.opt_cost());
    }

    #[test]
    fn frontier_dp_restore_rejects_mismatched_shapes() {
        let inst = instance(&[1.0]);
        let mut a = FrontierDp::new(&inst.types);
        a.step(&inst, 1);
        let mut b = FrontierDp::new(&inst.types);
        assert!(b
            .restore(vec![0.0; 3], a.state().clone(), a.slots())
            .is_err());
        assert!(b.restore(a.frontier().to_vec(), vec![9, 9], 1).is_err());
        assert!(b.restore(a.frontier().to_vec(), vec![0, 0, 0], 1).is_err());
        assert!(b.restore(Vec::new(), vec![0, 0], 1).is_err());
        for bad in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
            let mut front = a.frontier().to_vec();
            front[3] = bad;
            assert!(b.restore(front, a.state().clone(), a.slots()).is_err());
        }
        assert!(b
            .restore(a.frontier().to_vec(), a.state().clone(), a.slots())
            .is_ok());
    }

    #[test]
    fn envelope_repair_is_convex_and_below_input() {
        let raw = vec![5.0, 1.0, 2.0, 1.5, 4.0];
        let c = convex_lower_envelope(raw.clone());
        let vals: Vec<f64> = (0..5).map(|x| c.eval(x)).collect();
        for w in vals.windows(3) {
            assert!(w[1] - w[0] <= w[2] - w[1] + 1e-9, "{vals:?}");
        }
        for (v, r) in vals.iter().zip(&raw) {
            assert!(v <= &(r + 1e-9), "{vals:?} above {raw:?}");
        }
        assert!(vals[2] < raw[2], "the non-convex kink is cut: {vals:?}");
        assert_eq!(vals[0], raw[0], "anchored at the left end");
    }
}
