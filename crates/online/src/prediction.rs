//! Online algorithms with a finite prediction window (Section 5.4).
//!
//! At time `t` such an algorithm sees `f_t, ..., f_{t+w}`. Theorem 10 shows
//! that a constant window does not improve the achievable competitive
//! ratio: the adversary dilates each function into `n*w` copies scaled by
//! `1/(n*w)`, making the window's extra knowledge vanishingly valuable.
//!
//! Two concrete lookahead strategies are provided:
//!
//! * [`RecedingHorizon`] — solve the offline problem on everything seen so
//!   far (prefix plus window) and play the state that solution assigns to
//!   the current slot. A strong, natural baseline (a.k.a. model-predictive
//!   control).
//! * [`LookaheadLcp`] — LCP whose bound tracker is fed the window functions
//!   before committing: it projects onto the bounds of time `t + w`
//!   computed from the known prefix, mirroring Lin et al.'s LCP(w).

use crate::bounds::BoundTracker;
use crate::traits::LookaheadAlgorithm;
use rsdc_core::prelude::*;
use rsdc_offline::restricted_dp::solve_restricted;

/// Receding-horizon control: replan offline on the full known prefix +
/// window each step and commit the current slot's state.
#[derive(Debug, Clone)]
pub struct RecedingHorizon {
    m: u32,
    beta: f64,
    seen: Vec<Cost>,
}

impl RecedingHorizon {
    /// New controller for `m` servers and power-up cost `beta`.
    pub fn new(m: u32, beta: f64) -> Self {
        Self {
            m,
            beta,
            seen: Vec::new(),
        }
    }
}

impl LookaheadAlgorithm for RecedingHorizon {
    fn step(&mut self, window: &[Cost]) -> u32 {
        assert!(!window.is_empty(), "window must contain the current slot");
        self.seen.push(window[0].clone());
        let t_now = self.seen.len();
        let mut all = self.seen.clone();
        all.extend_from_slice(&window[1..]);
        let inst = Instance::new(self.m, self.beta, all).expect("valid parameters");
        let sol = rsdc_offline::dp::solve(&inst);
        sol.schedule.0[t_now - 1]
    }

    fn name(&self) -> String {
        "RecedingHorizon".into()
    }
}

/// LCP with lookahead: the bounds are advanced through the window before
/// the projection, so the algorithm projects onto `[x^L_{t+w}, x^U_{t+w}]`.
#[derive(Debug, Clone)]
pub struct LookaheadLcp {
    pub(crate) tracker: BoundTracker,
    /// Scratch copy the window is peeked on, refreshed every step.
    peek: BoundTracker,
    pub(crate) state: u32,
    /// Window length `w` as a streaming policy (see
    /// [`crate::streaming::StreamingPolicy`]); the batch runner
    /// [`crate::traits::run_lookahead`] passes its own.
    pub(crate) window: usize,
}

impl LookaheadLcp {
    /// New lookahead LCP (streaming window 0).
    pub fn new(m: u32, beta: f64) -> Self {
        Self::with_window(m, beta, 0)
    }

    /// New lookahead LCP that, as a streaming policy, commits a slot once
    /// `window` later costs are pending.
    pub fn with_window(m: u32, beta: f64, window: usize) -> Self {
        Self {
            tracker: BoundTracker::new(m, beta),
            peek: BoundTracker::new(m, beta),
            state: 0,
            window,
        }
    }

    /// The bound tracker. It advances by the committed slot's function
    /// only (the window is peeked on a copy), so it holds the prefix
    /// optimum of the committed prefix.
    pub fn tracker(&self) -> &BoundTracker {
        &self.tracker
    }
}

impl LookaheadAlgorithm for LookaheadLcp {
    fn step(&mut self, window: &[Cost]) -> u32 {
        assert!(!window.is_empty());
        // Advance the persistent tracker by the current function only...
        self.tracker.step(&window[0]);
        // ...then peek through the window on the scratch copy.
        self.peek.clone_from(&self.tracker);
        for f in &window[1..] {
            self.peek.step(f);
        }
        let (lo, hi) = (self.peek.x_low(), self.peek.x_up());
        self.state = self.state.clamp(lo.min(hi), hi.max(lo));
        self.state
    }

    fn name(&self) -> String {
        "LCP(lookahead)".into()
    }
}

/// Solve the offline problem restricted to a fixed set of states per slot
/// (helper shared by tests exercising window dilation).
pub fn offline_on(m: u32, beta: f64, costs: &[Cost]) -> f64 {
    let inst = Instance::new(m, beta, costs.to_vec()).expect("valid parameters");
    let allowed: Vec<Vec<u32>> = (0..costs.len()).map(|_| (0..=m).collect()).collect();
    solve_restricted(&inst, &allowed).cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{competitive_ratio, run_lookahead};

    fn spiky_instance() -> Instance {
        let costs: Vec<Cost> = (0..24)
            .map(|t| {
                let target = if t % 6 == 0 { 6.0 } else { 1.0 };
                Cost::abs(2.0, target)
            })
            .collect();
        Instance::new(8, 3.0, costs).unwrap()
    }

    #[test]
    fn full_lookahead_is_optimal() {
        // Window covering the whole horizon makes RecedingHorizon exactly
        // offline-optimal.
        let inst = spiky_instance();
        let w = inst.horizon();
        let mut rh = RecedingHorizon::new(8, 3.0);
        let xs = run_lookahead(&mut rh, &inst, w);
        let (alg, opt, ratio) = competitive_ratio(&inst, &xs);
        assert!(
            (alg - opt).abs() < 1e-9,
            "full lookahead must be optimal, ratio {ratio}"
        );
    }

    #[test]
    fn lookahead_helps_receding_horizon() {
        let inst = spiky_instance();
        let mut rh0 = RecedingHorizon::new(8, 3.0);
        let xs0 = run_lookahead(&mut rh0, &inst, 0);
        let mut rh4 = RecedingHorizon::new(8, 3.0);
        let xs4 = run_lookahead(&mut rh4, &inst, 4);
        let c0 = rsdc_core::schedule::cost(&inst, &xs0);
        let c4 = rsdc_core::schedule::cost(&inst, &xs4);
        assert!(
            c4 <= c0 + 1e-9,
            "lookahead should not hurt on this workload: {c4} vs {c0}"
        );
    }

    #[test]
    fn lookahead_lcp_feasible_and_competitive() {
        let inst = spiky_instance();
        for w in [0usize, 2, 6] {
            let mut a = LookaheadLcp::new(8, 3.0);
            let xs = run_lookahead(&mut a, &inst, w);
            assert!(xs.is_feasible(&inst));
            let (_, _, ratio) = competitive_ratio(&inst, &xs);
            assert!(ratio <= 3.0 + 1e-9, "w={w}: ratio {ratio}");
        }
    }

    #[test]
    fn zero_window_lcp_matches_plain_lcp() {
        use crate::lcp::Lcp;
        use crate::traits::run;
        let inst = spiky_instance();
        let mut a = LookaheadLcp::new(8, 3.0);
        let xs_look = run_lookahead(&mut a, &inst, 0);
        let mut b = Lcp::new(8, 3.0);
        let xs_plain = run(&mut b, &inst);
        assert_eq!(xs_look, xs_plain);
    }
}
