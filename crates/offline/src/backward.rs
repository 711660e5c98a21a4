//! The Lemma 11 backward-greedy optimal solver.
//!
//! Lemma 11 characterises one particular optimal schedule: with the bounds
//! `x^L_t` (smallest final state of an optimal power-up-charged truncated
//! schedule) and `x^U_t` (largest final state, power-down-charged), the
//! schedule defined backwards in time by
//!
//! ```text
//! x_{T+1} = 0,    x_t = [ x_{t+1} ]^{x^U_t}_{x^L_t}
//! ```
//!
//! is optimal. This is the schedule the LCP analysis compares against
//! (Lemmas 12–16), so having it as a first-class solver lets tests verify
//! the structural facts directly:
//!
//! * its cost equals the DP optimum (Lemma 11),
//! * between consecutive meeting points of LCP and this schedule, both move
//!   in the same direction (Lemma 13),
//! * LCP's switching cost is at most this schedule's (Lemma 14).

use crate::dp::Solution;
use rsdc_core::prelude::*;

/// The two-DP recursion for the LCP bounds, kept as the reference the
/// online tracker is tested against.
///
/// It maintains `\hat C^L` (switching charged for powering up, eq. 11) and
/// `\hat C^U` (charged for powering down, eq. 12) as two independent
/// vectors, each with its own parent-tracking relaxation
/// ([`crate::dp::relax`], [`crate::dp::relax_down`]) and its own per-state
/// evaluation of `f`. The online `BoundTracker` keeps only `\hat C^L` and
/// derives `\hat C^U(x) = \hat C^L(x) - beta x` (Lemma 7).
#[derive(Debug, Clone)]
pub struct TwoDpBounds {
    beta: f64,
    c_low: Vec<f64>,
    c_up: Vec<f64>,
    scratch: Vec<f64>,
    parent: Vec<u32>,
    x_low: u32,
    x_up: u32,
}

impl TwoDpBounds {
    /// Both value functions at `tau = 0`: only state 0 is reachable.
    pub fn new(m: u32, beta: f64) -> Self {
        let m1 = m as usize + 1;
        let mut c_low = vec![f64::INFINITY; m1];
        c_low[0] = 0.0;
        Self {
            beta,
            c_up: c_low.clone(),
            c_low,
            scratch: vec![0.0; m1],
            parent: vec![0; m1],
            x_low: 0,
            x_up: 0,
        }
    }

    /// Incorporate the next cost function.
    pub fn step(&mut self, f: &Cost) {
        crate::dp::relax(&self.c_low, self.beta, &mut self.scratch, &mut self.parent);
        for (x, v) in self.scratch.iter_mut().enumerate() {
            *v += f.eval(x as u32);
        }
        std::mem::swap(&mut self.c_low, &mut self.scratch);

        crate::dp::relax_down(&self.c_up, self.beta, &mut self.scratch, &mut self.parent);
        for (x, v) in self.scratch.iter_mut().enumerate() {
            *v += f.eval(x as u32);
        }
        std::mem::swap(&mut self.c_up, &mut self.scratch);

        self.x_low = smallest_argmin(&self.c_low);
        self.x_up = largest_argmin(&self.c_up);
    }

    /// Smallest argmin of `\hat C^L`.
    pub fn x_low(&self) -> u32 {
        self.x_low
    }

    /// Largest argmin of `\hat C^U`.
    pub fn x_up(&self) -> u32 {
        self.x_up
    }

    /// The `\hat C^L` vector.
    pub fn c_low(&self) -> &[f64] {
        &self.c_low
    }

    /// The `\hat C^U` vector.
    pub fn c_up(&self) -> &[f64] {
        &self.c_up
    }
}

/// The per-slot bounds `(x^L_t, x^U_t)` for every `t`, computed in one
/// forward pass of [`TwoDpBounds`] (`O(T m)` total).
pub fn bound_trajectories(inst: &Instance) -> (Vec<u32>, Vec<u32>) {
    let mut dp = TwoDpBounds::new(inst.m(), inst.beta());
    let mut lows = Vec::with_capacity(inst.horizon());
    let mut ups = Vec::with_capacity(inst.horizon());
    for t in 1..=inst.horizon() {
        dp.step(inst.cost_fn(t));
        lows.push(dp.x_low());
        ups.push(dp.x_up());
    }
    (lows, ups)
}

/// Solve via the Lemma 11 recursion. Exact; `O(T m)`.
pub fn solve(inst: &Instance) -> Solution {
    let (lows, ups) = bound_trajectories(inst);
    let t_len = inst.horizon();
    let mut xs = vec![0u32; t_len];
    let mut next = 0u32; // x_{T+1} = 0
    for t in (0..t_len).rev() {
        let (lo, hi) = (lows[t], ups[t]);
        debug_assert!(lo <= hi, "Lemma 6 ordering violated at t = {}", t + 1);
        next = next.clamp(lo, hi);
        xs[t] = next;
    }
    let schedule = Schedule(xs);
    let cost = cost(inst, &schedule);
    Solution { schedule, cost }
}

fn smallest_argmin(v: &[f64]) -> u32 {
    let mut best = f64::INFINITY;
    let mut best_i = 0u32;
    for (i, &x) in v.iter().enumerate() {
        if x < best {
            best = x;
            best_i = i as u32;
        }
    }
    best_i
}

fn largest_argmin(v: &[f64]) -> u32 {
    let mut best = f64::INFINITY;
    let mut best_i = 0u32;
    for (i, &x) in v.iter().enumerate() {
        if x <= best {
            best = x;
            best_i = i as u32;
        }
    }
    best_i
}

/// Decompose `[0, T]` into the maximal intervals between meeting points of
/// two schedules (the `t_0 < t_1 < ... < t_kappa` of the LCP analysis),
/// returning for each interior interval whether schedule `a` sits strictly
/// above `b` (`true`) or strictly below (`false`). Panics if the schedules
/// have different lengths.
pub fn crossing_structure(a: &Schedule, b: &Schedule) -> Vec<(std::ops::Range<usize>, bool)> {
    assert_eq!(a.len(), b.len());
    let mut out = Vec::new();
    let mut start: Option<(usize, bool)> = None;
    for t in 0..a.len() {
        let (xa, xb) = (a.0[t], b.0[t]);
        match (&mut start, xa.cmp(&xb)) {
            (None, std::cmp::Ordering::Equal) => {}
            (None, std::cmp::Ordering::Greater) => start = Some((t, true)),
            (None, std::cmp::Ordering::Less) => start = Some((t, false)),
            (Some((s, above)), std::cmp::Ordering::Equal) => {
                out.push((*s..t, *above));
                start = None;
            }
            (Some((s, above)), ord) => {
                // Lemma 12: schedules cannot cross without meeting.
                let crossing = (*above && ord == std::cmp::Ordering::Less)
                    || (!*above && ord == std::cmp::Ordering::Greater);
                if crossing {
                    out.push((*s..t, *above));
                    start = Some((t, ord == std::cmp::Ordering::Greater));
                }
            }
        }
    }
    if let Some((s, above)) = start {
        out.push((s..a.len(), above));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{binsearch, dp};
    use rsdc_core::cost::Cost;

    fn wavy(m: u32, t_len: usize, beta: f64) -> Instance {
        let costs = (0..t_len)
            .map(|t| {
                let target = (m as f64 / 2.0) * (1.0 + ((t as f64) * 0.9).sin());
                Cost::abs(1.0 + (t % 3) as f64, target)
            })
            .collect();
        Instance::new(m, beta, costs).unwrap()
    }

    #[test]
    fn lemma11_schedule_is_optimal() {
        for (m, t_len, beta) in [(6, 20, 1.0), (9, 33, 4.0), (4, 12, 0.3)] {
            let inst = wavy(m, t_len, beta);
            let a = solve(&inst);
            let b = dp::solve(&inst);
            assert!(
                (a.cost - b.cost).abs() < 1e-9 * (1.0 + b.cost),
                "backward {} vs dp {}",
                a.cost,
                b.cost
            );
        }
    }

    #[test]
    fn bounds_are_ordered_and_match_tracker() {
        let inst = wavy(7, 25, 2.0);
        let (lows, ups) = bound_trajectories(&inst);
        for (l, u) in lows.iter().zip(&ups) {
            assert!(l <= u, "Lemma 6 ordering");
        }
        // Spot check: the final lower bound equals the smallest final state
        // of an optimal schedule (smallest argmin of the full-instance DP
        // column), consistent with Lemma 6.
        let opt = dp::solve(&inst);
        let last = inst.horizon() - 1;
        assert!(lows[last] <= opt.schedule.0[last]);
        assert!(opt.schedule.0[last] <= ups[last]);
    }

    #[test]
    fn agrees_with_binsearch() {
        let inst = wavy(16, 30, 1.5);
        let a = solve(&inst);
        let b = binsearch::solve(&inst);
        assert!((a.cost - b.cost).abs() < 1e-9 * (1.0 + b.cost));
    }

    #[test]
    fn crossing_structure_detects_intervals() {
        let a = Schedule(vec![2, 3, 3, 1, 1, 2]);
        let b = Schedule(vec![2, 1, 1, 1, 3, 2]);
        let cs = crossing_structure(&a, &b);
        // a above b on 1..3, equal at 3 (both 1), below on 4..5, equal at 5.
        assert_eq!(cs, vec![(1..3, true), (4..5, false)]);
    }

    #[test]
    fn crossing_structure_empty_when_equal() {
        let a = Schedule(vec![1, 2, 3]);
        assert!(crossing_structure(&a, &a).is_empty());
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(4, 1.0, vec![]).unwrap();
        assert_eq!(solve(&inst).cost, 0.0);
    }
}
