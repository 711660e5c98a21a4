//! Lazy Capacity Provisioning for the discrete setting (Section 3).
//!
//! At each step the algorithm computes the bounds `x^L_tau <= x^U_tau` (see
//! [`crate::bounds`]) and lazily projects its previous state into the
//! interval:
//!
//! ```text
//! x^LCP_tau = [ x^LCP_{tau-1} ]^{x^U_tau}_{x^L_tau}     (eq. 13)
//! ```
//!
//! Theorem 2: LCP is 3-competitive, and by Theorem 4 no deterministic
//! online algorithm does better in the discrete setting.

use crate::bounds::{BoundTracker, TrackerSnapshot};
use crate::traits::OnlineAlgorithm;
use rsdc_core::prelude::*;
use serde::{Deserialize, Serialize};

/// The discrete Lazy Capacity Provisioning algorithm. A step costs
/// `O(x^U - x^L + moved)`: the bound tracker's window (see
/// [`crate::bounds`]).
#[derive(Debug, Clone)]
pub struct Lcp {
    tracker: BoundTracker,
    state: u32,
}

impl Lcp {
    /// LCP for a data center with `m` servers and power-up cost `beta`.
    pub fn new(m: u32, beta: f64) -> Self {
        Self {
            tracker: BoundTracker::new(m, beta),
            state: 0,
        }
    }

    /// Current state `x^LCP_tau`.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// The bound tracker (exposes `x^L`, `x^U` and the value functions).
    pub fn tracker(&self) -> &BoundTracker {
        &self.tracker
    }

    /// Capture the full algorithm state (tracker + current state) for the
    /// streaming layer's snapshot/restore protocol.
    pub fn snapshot(&self) -> LcpSnapshot {
        LcpSnapshot {
            tracker: self.tracker.snapshot(),
            state: self.state,
        }
    }

    /// Rebuild from a [`Lcp::snapshot`].
    pub fn from_snapshot(s: &LcpSnapshot) -> Result<Self, rsdc_core::Error> {
        Ok(Self {
            tracker: BoundTracker::from_snapshot(&s.tracker)?,
            state: s.state,
        })
    }
}

/// Serializable state of an LCP-family algorithm ([`Lcp`], and the
/// [`crate::flcp::GridLcp`] and [`crate::prediction::LookaheadLcp`]
/// variants): its bound tracker and its committed state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpSnapshot {
    /// Tracker state.
    pub tracker: TrackerSnapshot,
    /// Committed state (grid units for [`crate::flcp::GridLcp`]).
    pub state: u32,
}

impl OnlineAlgorithm for Lcp {
    fn step(&mut self, f: &Cost) -> u32 {
        self.tracker.step(f);
        let lo = self.tracker.x_low();
        let hi = self.tracker.x_up();
        debug_assert!(lo <= hi, "x^L must not exceed x^U");
        self.state = self.state.clamp(lo, hi);
        self.state
    }

    fn name(&self) -> String {
        "LCP".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{competitive_ratio, run};
    use rsdc_offline::dp;

    #[test]
    fn follows_single_spike_lazily() {
        // Big spike at t=1, then silence. LCP should rise to the spike and
        // then descend only as the lower bound decays.
        let inst = Instance::new(
            8,
            1.0,
            vec![
                Cost::abs(100.0, 5.0),
                Cost::abs(0.1, 0.0),
                Cost::abs(0.1, 0.0),
            ],
        )
        .unwrap();
        let mut lcp = Lcp::new(8, 1.0);
        let xs = run(&mut lcp, &inst);
        assert_eq!(xs.0[0], 5, "must serve the spike");
        assert!(xs.0[1] <= 5 && xs.0[2] <= xs.0[1], "lazy descent");
    }

    #[test]
    fn stays_within_bounds_every_step() {
        let costs: Vec<Cost> = (0..40)
            .map(|t| Cost::abs(1.0 + (t % 3) as f64, ((t * 5 + 2) % 9) as f64))
            .collect();
        let inst = Instance::new(8, 2.0, costs).unwrap();
        let mut lcp = Lcp::new(8, 2.0);
        for t in 1..=inst.horizon() {
            let x = lcp.step(inst.cost_fn(t));
            assert!(lcp.tracker().x_low() <= x && x <= lcp.tracker().x_up());
        }
    }

    #[test]
    fn three_competitive_on_adversarial_flip_flop() {
        // phi_1 when at 0, phi_0 when at 1 — the Theorem 4 adversary played
        // against LCP for a fixed horizon.
        let eps = 0.05;
        let m = 1;
        let beta = 2.0;
        let mut lcp = Lcp::new(m, beta);
        let mut inst = Instance::empty(m, beta).unwrap();
        let mut state = 0u32;
        for _ in 0..2000 {
            let f = if state == 0 {
                Cost::phi1(eps)
            } else {
                Cost::phi0(eps)
            };
            inst.push(f.clone());
            state = lcp.step(&f);
        }
        let xs = {
            // Re-run to obtain the schedule (LCP is deterministic).
            let mut fresh = Lcp::new(m, beta);
            run(&mut fresh, &inst)
        };
        let (_, _, ratio) = competitive_ratio(&inst, &xs);
        assert!(ratio <= 3.0 + 1e-9, "LCP ratio {ratio} must be <= 3");
        // The adversary should push it close to 3 (within the finite-T,
        // finite-eps slack of Theorem 4).
        assert!(ratio > 2.0, "adversary should hurt LCP, got {ratio}");
    }

    #[test]
    fn ratio_bounded_by_three_on_varied_workloads() {
        for (seed, beta) in [(1u32, 0.5), (2, 2.0), (3, 8.0)] {
            let costs: Vec<Cost> = (0u32..120)
                .map(|t| {
                    let z = ((t.wrapping_mul(seed).wrapping_mul(2654435761u32)) >> 16) % 10;
                    Cost::abs(0.2 + (z % 4) as f64, (z % 7) as f64)
                })
                .collect();
            let inst = Instance::new(6, beta, costs).unwrap();
            let mut lcp = Lcp::new(6, beta);
            let xs = run(&mut lcp, &inst);
            let (alg, opt, ratio) = competitive_ratio(&inst, &xs);
            assert!(
                ratio <= 3.0 + 1e-9,
                "seed {seed}: ratio {ratio} (alg {alg}, opt {opt})"
            );
        }
    }

    #[test]
    fn optimal_when_workload_is_monotone() {
        // Steadily rising demand: LCP should match OPT exactly (it only
        // powers up, like OPT).
        let costs: Vec<Cost> = (0..8).map(|t| Cost::abs(10.0, t as f64)).collect();
        let inst = Instance::new(8, 1.0, costs).unwrap();
        let mut lcp = Lcp::new(8, 1.0);
        let xs = run(&mut lcp, &inst);
        let opt = dp::solve(&inst);
        assert!((cost(&inst, &xs) - opt.cost).abs() < 1e-9);
    }

    #[test]
    fn restricted_model_feasibility() {
        // Loads force x_t >= lambda_t; LCP must respect them via the
        // infinite-cost states.
        let unit = Unit::Server(ServerParams::default());
        let lambdas = vec![1.0, 3.0, 2.0, 4.0, 1.0];
        let r = RestrictedInstance::new(6, 2.0, unit, lambdas.clone()).unwrap();
        let g = r.to_general();
        let mut lcp = Lcp::new(6, 2.0);
        let xs = run(&mut lcp, &g);
        for (t, (&x, &l)) in xs.0.iter().zip(&lambdas).enumerate() {
            assert!(x as f64 >= l, "slot {}: x = {x} < lambda = {l}", t + 1);
        }
        assert!(cost(&g, &xs).is_finite());
    }

    #[test]
    fn zero_horizon_is_fine() {
        let mut lcp = Lcp::new(4, 1.0);
        assert_eq!(lcp.state(), 0);
        let inst = Instance::new(4, 1.0, vec![]).unwrap();
        let xs = run(&mut lcp, &inst);
        assert!(xs.is_empty());
    }
}
