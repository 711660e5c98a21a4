//! Fractional Lazy Capacity Provisioning — the *continuous-setting* LCP of
//! Lin et al. [22, 24], realized on a refined state grid.
//!
//! The continuous extension of a discrete instance is piecewise linear
//! (eq. 3), so the continuous problem restricted to the grid
//! `{i/k | i = 0..k*m}` loses at most `O(1/k)` per slot; running the
//! *discrete* LCP machinery on that grid (states scaled by `k`, `beta`
//! scaled by `1/k`) yields the fractional LCP trajectory. As `k -> 1` this
//! degrades to discrete LCP; large `k` approximates the continuous
//! algorithm whose competitive ratio is 3 in the continuous setting.
//!
//! This bridges the paper's discrete world back to the Lin et al. original
//! and provides the natural fractional input for the Section 4 rounding as
//! an alternative to [`crate::fractional::HalfStep`].

use crate::lcp::{Lcp, LcpSnapshot};
use crate::traits::{FractionalAlgorithm, OnlineAlgorithm};
use rsdc_core::prelude::*;

/// Fractional LCP on a `1/k` grid over `[0, m]`: discrete [`Lcp`] over
/// `m * k` grid states with power-up cost `beta / k`.
#[derive(Debug, Clone)]
pub struct GridLcp {
    m: u32,
    k: u32,
    /// LCP in *grid units* (servers = state / k).
    lcp: Lcp,
}

impl GridLcp {
    /// New fractional LCP with grid resolution `1/k` (`k >= 1`).
    pub fn new(m: u32, beta: f64, k: u32) -> Self {
        assert!(k >= 1, "grid resolution must be at least 1");
        let fine_m = m.checked_mul(k).expect("k*m must fit in u32");
        Self {
            m,
            k,
            lcp: Lcp::new(fine_m, beta / k as f64),
        }
    }

    /// Current fractional state in server units.
    pub fn state(&self) -> f64 {
        self.lcp.state() as f64 / self.k as f64
    }

    /// Grid resolution.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Fleet size in server units.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Capture full state (tracker + grid-unit state) for streaming
    /// snapshots.
    pub fn snapshot(&self) -> LcpSnapshot {
        self.lcp.snapshot()
    }

    /// Rebuild from a [`GridLcp::snapshot`]; `m` and `k` must match the
    /// original configuration (the tracker snapshot records `m * k`).
    pub fn from_snapshot(m: u32, k: u32, s: &LcpSnapshot) -> Result<Self, rsdc_core::Error> {
        if s.tracker.m != m.checked_mul(k).unwrap_or(0) {
            return Err(rsdc_core::Error::InvalidParameter(format!(
                "GridLcp snapshot tracker covers {} states, expected m*k = {}",
                s.tracker.m,
                m as u64 * k as u64
            )));
        }
        Ok(Self {
            m,
            k,
            lcp: Lcp::from_snapshot(s)?,
        })
    }
}

impl FractionalAlgorithm for GridLcp {
    fn step(&mut self, f: &Cost) -> f64 {
        // Present the interpolated cost on the fine grid to LCP.
        let vals: Vec<f64> = (0..=self.m * self.k)
            .map(|i| f.interpolate(i as f64 / self.k as f64))
            .collect();
        self.lcp.step(&Cost::table(vals));
        self.state()
    }

    fn name(&self) -> String {
        format!("LCP(1/{})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcp::Lcp;
    use crate::traits::{run, run_frac};

    fn inst() -> Instance {
        let costs: Vec<Cost> = (0..30)
            .map(|t| Cost::abs(1.0, 2.0 + 1.9 * ((t as f64) * 0.6).sin()))
            .collect();
        Instance::new(4, 2.0, costs).unwrap()
    }

    #[test]
    fn k1_matches_discrete_lcp() {
        let inst = inst();
        let mut grid = GridLcp::new(4, 2.0, 1);
        let frac = run_frac(&mut grid, &inst);
        let mut disc = Lcp::new(4, 2.0);
        let xs = run(&mut disc, &inst);
        for (a, b) in frac.0.iter().zip(&xs.0) {
            assert!((a - *b as f64).abs() < 1e-12, "grid {a} vs discrete {b}");
        }
    }

    #[test]
    fn states_live_on_the_grid() {
        let inst = inst();
        let k = 4;
        let mut grid = GridLcp::new(4, 2.0, k);
        let frac = run_frac(&mut grid, &inst);
        for &x in &frac.0 {
            let scaled = x * k as f64;
            assert!((scaled - scaled.round()).abs() < 1e-9, "{x} off-grid");
            assert!((0.0..=4.0).contains(&x));
        }
    }

    #[test]
    fn finer_grids_cost_no_more_in_the_continuous_model() {
        // The fractional LCP's continuous-extension cost should not blow up
        // with refinement; typically it improves slightly (less
        // overshooting). We assert monotone-ish behaviour with slack.
        let inst = inst();
        let mut costs = Vec::new();
        for k in [1u32, 2, 8] {
            let mut grid = GridLcp::new(4, 2.0, k);
            let frac = run_frac(&mut grid, &inst);
            costs.push(frac_cost(&inst, &frac, FracMode::Interpolate));
        }
        assert!(costs[2] <= costs[0] * 1.05 + 1e-9, "{costs:?}");
    }

    #[test]
    fn three_competitive_against_continuous_optimum() {
        // LCP is 3-competitive in the continuous setting; check against the
        // fine-grid offline optimum.
        let inst = inst();
        let k = 8;
        let mut grid = GridLcp::new(4, 2.0, k);
        let frac = run_frac(&mut grid, &inst);
        let alg = frac_cost(&inst, &frac, FracMode::Interpolate);
        let opt = rsdc_offline::rounding::refined_grid_optimum(&inst, k);
        assert!(
            alg <= 3.0 * opt + 1e-9,
            "grid LCP {alg} vs 3*OPT {}",
            3.0 * opt
        );
    }
}
