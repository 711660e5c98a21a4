//! Online maintenance of the LCP bounds `x^L_tau` and `x^U_tau`
//! (Section 3.1).
//!
//! `\hat C^L_tau(x)` is the cheapest cost of serving `f_1..=f_tau` ending in
//! state `x` when switching cost is charged for powering **up** (eq. 11);
//! `\hat C^U_tau(x)` charges powering **down** instead (eq. 12). The bounds
//! are
//!
//! * `x^L_tau` — the **smallest** minimizer of `\hat C^L_tau` (smallest
//!   final state of an optimal truncated schedule),
//! * `x^U_tau` — the **largest** minimizer of `\hat C^U_tau`.
//!
//! Both schedules start at `x_0 = 0`, so every path to `x` powers up `x`
//! more servers than it powers down, and the two value functions differ by
//! exactly that charge (Lemma 7):
//!
//! ```text
//! \hat C^U_tau(x) = \hat C^L_tau(x) - beta * x
//! ```
//!
//! The tracker therefore runs a single dynamic program, `O(m)` per step:
//! one batched pass evaluates `f_tau` ([`Cost::add_to`]), and the
//! relaxation of [`rsdc_offline::dp::relax`] (without parent pointers)
//! adds it to `\hat C^L` while the same scan takes `x^L`, the smallest
//! argmin of `\hat C^L`, and `x^U`, the largest argmin of
//! `\hat C^L(x) - beta x`. The minimum of `\hat C^L` is the optimum of the
//! truncated instance, so the same tracker serves as a prefix-OPT tracker
//! ([`BoundTracker::prefix_opt`]).
//!
//! The tracker also exposes the structural facts the analysis rests on so
//! tests can assert them: the value function is convex (Lemma 8) and
//! `\hat C^L` has slope at most `beta` up to `x^U` and at least `beta` after
//! it (Lemma 9). Lemma 7 itself is checked against the two-DP recursion of
//! [`rsdc_offline::backward`], which keeps both vectors.

use rsdc_core::prelude::*;
use serde::{Deserialize, Serialize};

/// Incrementally maintained `\hat C^L` and the derived bounds.
#[derive(Debug, Clone)]
pub struct BoundTracker {
    m: u32,
    beta: f64,
    tau: usize,
    c_low: Vec<f64>,
    scratch: Vec<f64>,
    f_vals: Vec<f64>,
    x_low: u32,
    x_up: u32,
}

impl BoundTracker {
    /// Start tracking for a data center with `m` servers and power-up cost
    /// `beta`. Before any [`step`](Self::step), the bounds are `0`.
    pub fn new(m: u32, beta: f64) -> Self {
        let m1 = m as usize + 1;
        // At tau = 0 the only reachable state is 0 (x_0 = 0): encode by
        // infinite cost elsewhere.
        let mut c_low = vec![f64::INFINITY; m1];
        c_low[0] = 0.0;
        Self {
            m,
            beta,
            tau: 0,
            c_low,
            scratch: vec![0.0; m1],
            f_vals: vec![0.0; m1],
            x_low: 0,
            x_up: 0,
        }
    }

    /// Incorporate the next cost function; `O(m)`.
    pub fn step(&mut self, f: &Cost) {
        self.tau += 1;
        self.f_vals.fill(0.0);
        f.add_to(&mut self.f_vals);
        (self.x_low, self.x_up) =
            step_bounds(&self.c_low, self.beta, &self.f_vals, &mut self.scratch);
        std::mem::swap(&mut self.c_low, &mut self.scratch);
    }

    /// `x^L_tau`: smallest final state of an optimal power-up-charged
    /// truncated schedule.
    pub fn x_low(&self) -> u32 {
        self.x_low
    }

    /// `x^U_tau`: largest final state of an optimal power-down-charged
    /// truncated schedule.
    pub fn x_up(&self) -> u32 {
        self.x_up
    }

    /// Number of steps consumed so far.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// `\hat C^L_tau(x)`.
    pub fn c_low(&self, x: u32) -> f64 {
        self.c_low[x as usize]
    }

    /// `\hat C^U_tau(x)`, derived from `\hat C^L` by Lemma 7.
    pub fn c_up(&self, x: u32) -> f64 {
        self.c_low[x as usize] - self.beta * x as f64
    }

    /// Full `\hat C^L` vector (for diagnostics/tests).
    pub fn c_low_vec(&self) -> &[f64] {
        &self.c_low
    }

    /// The optimum of the truncated instance `f_1..=f_tau`, i.e.
    /// `min_x \hat C^L_tau(x)` (`None` before the first step).
    pub fn prefix_opt(&self) -> Option<f64> {
        (self.tau > 0).then(|| self.c_low[self.x_low as usize])
    }

    /// Verify Lemma 8 (convexity of `\hat C^L`) and Lemma 9 (slope of
    /// `\hat C^L` at most `beta` up to `x^U`, at least `beta` above). Returns
    /// a description of the first violation, if any. Only meaningful after
    /// at least one step. (`\hat C^U` is derived from `\hat C^L` by
    /// Lemma 7, so its convexity follows.)
    pub fn check_lemmas(&self) -> Result<(), String> {
        let m1 = self.m as usize + 1;
        let scale = self
            .c_low
            .iter()
            .filter(|v| v.is_finite())
            .fold(1.0f64, |a, &b| a.max(b.abs()));
        let tol = 1e-9 * scale;

        // Lemma 8: convexity (on the finite suffix).
        let fin: Vec<f64> = self
            .c_low
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        for w in fin.windows(3) {
            if (w[1] - w[0]) > (w[2] - w[1]) + tol {
                return Err(format!("lemma 8 violated for C^L: {w:?}"));
            }
        }
        // Lemma 9.
        let xu = self.x_up as usize;
        if xu >= 1 && self.c_low[xu].is_finite() && self.c_low[xu - 1].is_finite() {
            let slope = self.c_low[xu] - self.c_low[xu - 1];
            if slope > self.beta + tol {
                return Err(format!("lemma 9: slope {slope} > beta before x^U"));
            }
        }
        if xu + 1 < m1 && self.c_low[xu + 1].is_finite() && self.c_low[xu].is_finite() {
            let slope = self.c_low[xu + 1] - self.c_low[xu];
            if slope < self.beta - tol {
                return Err(format!("lemma 9: slope {slope} < beta after x^U"));
            }
        }
        Ok(())
    }
}

/// Serializable full state of a [`BoundTracker`], used by the streaming
/// layer (`crate::streaming`) so tenants survive engine restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackerSnapshot {
    /// Fleet size.
    pub m: u32,
    /// Power-up cost.
    pub beta: f64,
    /// Steps consumed.
    pub tau: u64,
    /// `\hat C^L` vector (non-finite entries encode unreachable states).
    pub c_low: Vec<f64>,
    /// Always `None` (written as `null`): `\hat C^U` is derived from
    /// `\hat C^L` (Lemma 7). Snapshots from the former two-DP tracker carry
    /// the vector here; restore ignores it.
    pub c_up: Option<Vec<f64>>,
    /// Current `x^L`.
    pub x_low: u32,
    /// Current `x^U`.
    pub x_up: u32,
}

impl BoundTracker {
    /// Capture the full tracker state.
    ///
    /// Unreachable states hold `+inf`, which plain JSON cannot carry;
    /// snapshots encode them as `f64::MAX` (no legitimate cost comes
    /// within a factor of 2 of it) so the vectors survive any JSON
    /// implementation, and [`BoundTracker::from_snapshot`] maps them back.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            m: self.m,
            beta: self.beta,
            tau: self.tau as u64,
            c_low: self
                .c_low
                .iter()
                .map(|&x| if x.is_finite() { x } else { f64::MAX })
                .collect(),
            c_up: None,
            x_low: self.x_low,
            x_up: self.x_up,
        }
    }

    /// Rebuild a tracker from a [`TrackerSnapshot`].
    ///
    /// The `f64::MAX` sentinel (and any non-finite residue from a JSON
    /// round trip) is normalised back to `+inf` — the only non-finite
    /// value the tracker ever produces.
    pub fn from_snapshot(s: &TrackerSnapshot) -> Result<Self, Error> {
        let m1 = s.m as usize + 1;
        if s.c_low.len() != m1 {
            return Err(Error::InvalidParameter(format!(
                "tracker snapshot has {} states, expected {m1}",
                s.c_low.len()
            )));
        }
        if !(s.beta.is_finite() && s.beta > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "tracker snapshot beta {} invalid",
                s.beta
            )));
        }
        let c_low = s
            .c_low
            .iter()
            .map(|&x| {
                if x.is_finite() && x < f64::MAX / 2.0 {
                    x
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Ok(Self {
            m: s.m,
            beta: s.beta,
            tau: s.tau as usize,
            c_low,
            scratch: vec![0.0; m1],
            f_vals: vec![0.0; m1],
            x_low: s.x_low.min(s.m),
            x_up: s.x_up.min(s.m),
        })
    }
}

/// One step of the dynamic program: writes `\hat C^L_tau` into `next`,
/// given `\hat C^L_{tau-1}` in `prev` and the values of `f_tau` in
/// `f_vals`, and returns `(x^L_tau, x^U_tau)`.
///
/// `next` receives exactly the values [`rsdc_offline::dp::relax`] plus `f`
/// would: the same candidates, compared the same way. For `x^U` the scan
/// needs `\hat C^U(x) = \hat C^L(x) - beta x`, and takes the `- beta x`
/// inside the two relaxation candidates instead of after them. The power-up
/// candidate `min_{x' <= x} (prev(x') - beta x') + beta x` then contributes
/// its minimum before `beta x` is added back. So where `\hat C^U` is flat in
/// exact arithmetic (a flat stretch of `f` the schedule powers up into), it
/// is flat in floating point too, and its largest argmin is not decided by
/// rounding noise.
fn step_bounds(prev: &[f64], beta: f64, f_vals: &[f64], next: &mut [f64]) -> (u32, u32) {
    // Forward: the power-up candidate's running minimum, before `+ beta x`.
    let mut best = f64::INFINITY;
    for (x, (&p, up_min)) in prev.iter().zip(next.iter_mut()).enumerate() {
        let cand = p - beta * x as f64;
        if cand < best {
            best = cand;
        }
        *up_min = best;
    }
    // Backward: the stay-or-power-down candidate (the suffix minimum of
    // `prev`), both value functions and both argmins. Scanning down, `<=`
    // keeps the smallest argmin and `<` the largest.
    let m = prev.len() - 1;
    let mut suffix = f64::INFINITY;
    let (mut best_low, mut x_low) = (f64::INFINITY, 0u32);
    let (mut best_up, mut x_up) = (f64::INFINITY, m as u32);
    let column = prev.iter().zip(f_vals).zip(next.iter_mut());
    for (x, ((&p, &f), next)) in column.enumerate().rev() {
        if p < suffix {
            suffix = p;
        }
        let shift = beta * x as f64;
        let up_min = *next;
        let relaxed_low = if suffix < up_min + shift {
            suffix
        } else {
            up_min + shift
        };
        let relaxed_up = if suffix - shift < up_min {
            suffix - shift
        } else {
            up_min
        };
        let (low, up) = (relaxed_low + f, relaxed_up + f);
        *next = low;
        // Index and value updates are split so each running minimum stays
        // a plain `a < b ? a : b`: a single min instruction on the loop's
        // critical path.
        if low <= best_low {
            x_low = x as u32;
        }
        if low < best_low {
            best_low = low;
        }
        if up < best_up {
            best_up = up;
            x_up = x as u32;
        }
    }
    (x_low, x_up)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_bounds_are_zero() {
        let b = BoundTracker::new(4, 1.0);
        assert_eq!(b.x_low(), 0);
        assert_eq!(b.x_up(), 0);
    }

    #[test]
    fn first_step_bounds() {
        // f_1 = 10*|x - 2|, beta = 1.
        // C^L(x) = f_1(x) + x; minimized at 2 -> x^L = 2.
        // C^U(x) = f_1(x) (power-down charged later); largest argmin = 2.
        let mut b = BoundTracker::new(4, 1.0);
        b.step(&Cost::abs(10.0, 2.0));
        assert_eq!(b.x_low(), 2);
        assert_eq!(b.x_up(), 2);
        assert!((b.c_low(2) - 2.0).abs() < 1e-12);
        assert!((b.c_up(2) - 0.0).abs() < 1e-12);
        b.check_lemmas().unwrap();
    }

    #[test]
    fn flat_cost_splits_bounds() {
        // A function indifferent between 1 and 3: x^L should take the
        // smallest optimal final state, x^U the largest.
        let f = Cost::table(vec![5.0, 1.0, 1.0, 1.0, 5.0]);
        let mut b = BoundTracker::new(4, 2.0);
        b.step(&f);
        // C^L(x) = f(x) + 2x: minimized at x = 1 -> x^L = 1.
        assert_eq!(b.x_low(), 1);
        // C^U(x) = f(x): largest argmin is 3.
        assert_eq!(b.x_up(), 3);
        b.check_lemmas().unwrap();
    }

    #[test]
    fn lemmas_hold_over_random_sequences() {
        // Deterministic pseudo-random sequence of convex functions.
        let mut b = BoundTracker::new(12, 1.7);
        for t in 0..60u32 {
            let center = ((t * 7 + 3) % 13) as f64;
            let slope = 0.3 + ((t * 5) % 4) as f64;
            let f = if t % 3 == 0 {
                Cost::quadratic(slope * 0.2, center, 0.1)
            } else {
                Cost::abs(slope, center)
            };
            b.step(&f);
            b.check_lemmas().unwrap_or_else(|e| panic!("step {t}: {e}"));
            assert!(b.x_low() <= b.x_up(), "Lemma 6 ordering via Lemma 7/9");
        }
    }

    #[test]
    fn x_low_matches_offline_truncated_optimum() {
        // x^L_tau is the smallest last state among optimal schedules of the
        // truncated instance; cross-check via offline DP cost.
        let costs = vec![
            Cost::abs(2.0, 3.0),
            Cost::abs(0.5, 1.0),
            Cost::abs(4.0, 5.0),
        ];
        let inst = Instance::new(6, 1.0, costs.clone()).unwrap();
        let mut b = BoundTracker::new(6, 1.0);
        for t in 1..=3 {
            b.step(inst.cost_fn(t));
            let prefix = inst.prefix(t);
            let opt = rsdc_offline::dp::solve_cost_only(&prefix);
            let min_cl = (0..=6).map(|x| b.c_low(x)).fold(f64::INFINITY, f64::min);
            assert!(
                (opt - min_cl).abs() < 1e-9,
                "truncated optimum {opt} vs min C^L {min_cl} at tau={t}"
            );
        }
    }

    #[test]
    fn restricted_model_infinite_states() {
        // Load constraint x >= 2 at slot 1.
        let f = Cost::load(
            2.0,
            Unit::Affine {
                base: 0.5,
                slope: 0.0,
            },
        );
        let mut b = BoundTracker::new(4, 1.0);
        b.step(&f);
        assert!(b.c_low(0).is_infinite());
        assert!(b.c_low(2).is_finite());
        assert!(b.x_low() >= 2);
        assert!(b.x_up() >= 2);
    }
}
