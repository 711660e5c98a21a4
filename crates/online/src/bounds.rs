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
//! The tracker therefore runs a single dynamic program on `\hat C^L`. The
//! relaxation of [`rsdc_offline::dp::relax`] (without parent pointers)
//! adds `f_tau` to `\hat C^L` while the same scan takes `x^L`, the smallest
//! argmin of `\hat C^L`, and `x^U`, the largest argmin of
//! `\hat C^L(x) - beta x`. The minimum of `\hat C^L` is the optimum of the
//! truncated instance, so the same tracker serves as a prefix-OPT tracker
//! ([`BoundTracker::prefix_opt`]).
//!
//! # The window
//!
//! A step does not need `\hat C^L` on all `m + 1` states. With `\hat C^L`
//! convex (Lemma 8), its relaxation is the constant `\hat C^L(x^L)` below
//! `x^L`, equals `\hat C^L` between `x^L` and `x^U`, and rises with slope
//! `beta` above `x^U` (Lemma 9). So the tracker keeps `\hat C^L` only on a
//! window of states around `[x^L, x^U]`. A step relaxes the window, reads
//! the two tails from its ends, and adds `f_tau` ([`Cost::add_range_to`])
//! on a slice grown outward from the old bounds until both new argmins lie
//! inside it; by convexity of `f_tau` they are then the global ones. The
//! new window is that slice cut back to the new bounds. A step costs
//! `O(x^U - x^L + moved)`, where `moved` is how far the bounds travel.
//!
//! The window keeps, past each bound, every state whose value lies within a
//! rounding margin of the minimum there. Outside it, the values of the full
//! recursion clear the tails by more than any rounding, so the window
//! computes exactly the values, bounds and minimum the full `O(m)`
//! recursion would (that recursion is the oracle of
//! `tests/tests/bound_tracker_oracle.rs`).
//!
//! The window search needs every `f_tau` convex over `0..=m`, as
//! [`Cost::check_convex`] verifies; an infinite prefix (load constraints
//! of the restricted model) is fine. That check lets a state lie above
//! the convex hull of `f_tau` by [`rsdc_core::CONVEX_RTOL`] (2^-40) of its
//! value. Such a state's column value is then at most 2^-40 of itself
//! above a convex column, so a slice end that clears the minimum by the
//! margin still clears it by nearly the margin on the hull, and the
//! states beyond cannot fall back below it. A cost with a deeper concave
//! stretch could hide a lower minimum behind the slice end; the engine
//! refuses those, and [`BoundTracker::step`] must not be fed them.
//!
//! The tracker also exposes the structural facts the analysis rests on so
//! tests can assert them: the value function is convex (Lemma 8) and
//! `\hat C^L` has slope at most `beta` up to `x^U` and at least `beta` after
//! it (Lemma 9). Lemma 7 itself is checked against the two-DP recursion of
//! [`rsdc_offline::backward`], which keeps both vectors.

use rsdc_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

/// Relative rounding margin: the window keeps states whose value lies
/// within `MARGIN * (|min| + beta m)` of a minimum. Rounding in one step is
/// a few ulps of that scale, far below it.
const MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Incrementally maintained `\hat C^L` on a window of states, and the
/// derived bounds.
#[derive(Debug)]
pub struct BoundTracker {
    m: u32,
    beta: f64,
    tau: usize,
    /// `\hat C^L_tau` on the states `lo..lo + window.len()`, a range that
    /// contains `[x^L, x^U]`.
    window: Vec<f64>,
    lo: u32,
    x_low: u32,
    x_up: u32,
    /// The relaxation of `\hat C^{L}_{tau-1}` the last step read.
    relaxed: Relaxed,
    /// `f_tau`, so [`BoundTracker::c_low`] can answer outside the window.
    last: Option<Cost>,
}

/// The relaxation of a window of `\hat C^L`: per state, the suffix minimum
/// `S(x) = min_{x' >= x} C(x')` (stay or power down) and the prefix minimum
/// `U(x) = min_{x' <= x} (C(x') - beta x')` (power up, before `+ beta x`).
#[derive(Debug, Default)]
struct Relaxed {
    lo: u32,
    /// `(S, U)` on `lo..lo + mins.len()`.
    mins: Vec<(f64, f64)>,
}

impl Relaxed {
    /// `(S(x), U(x))`. Below the window `S` is the minimum and no power-up
    /// candidate competes; above it `U` is the window's last prefix minimum
    /// and staying never competes.
    fn at(&self, x: u32) -> (f64, f64) {
        let n = self.mins.len();
        match x.checked_sub(self.lo).map(|i| i as usize) {
            None => (self.mins[0].0, f64::INFINITY),
            Some(i) if i < n => self.mins[i],
            Some(_) => (f64::INFINITY, self.mins[n - 1].1),
        }
    }
}

/// The relaxed `(\hat C^L, \hat C^U)` at a state from its `(S, U)` and
/// `shift = beta x`. For `\hat C^U(x) = \hat C^L(x) - beta x` the `- beta x`
/// goes inside the two candidates instead of after them: the power-up
/// candidate then contributes its minimum before `beta x` is added back.
/// So where `\hat C^U` is flat in exact arithmetic (a flat stretch of `f`
/// the schedule powers up into), it is flat in floating point too, and its
/// largest argmin is not decided by rounding noise.
#[inline(always)]
fn relax(s: f64, u: f64, shift: f64) -> (f64, f64) {
    let low = if s < u + shift { s } else { u + shift };
    let up = if s - shift < u { s - shift } else { u };
    (low, up)
}

impl BoundTracker {
    /// Start tracking for a data center with `m` servers and power-up cost
    /// `beta`. Before any [`step`](Self::step), the bounds are `0`.
    pub fn new(m: u32, beta: f64) -> Self {
        // At tau = 0 the only reachable state is 0 (x_0 = 0): every other
        // state costs infinity, which the window's upper tail encodes.
        Self {
            m,
            beta,
            tau: 0,
            window: vec![0.0],
            lo: 0,
            x_low: 0,
            x_up: 0,
            relaxed: Relaxed::default(),
            last: None,
        }
    }

    /// Incorporate the next cost function, which must pass
    /// [`Cost::check_convex`] over `0..=m` (debug builds assert it);
    /// `O(x^U - x^L + moved)`.
    pub fn step(&mut self, f: &Cost) {
        debug_assert_eq!(f.check_convex(self.m), Ok(()), "tau {}", self.tau + 1);
        self.tau += 1;
        self.relax_window();
        SLICE.with_borrow_mut(|slice| self.evaluate(f, slice));
        self.last = Some(f.clone());
    }

    /// Fill `relaxed` from the window: the forward pass takes the prefix
    /// minima `U`, the backward pass the suffix minima `S`.
    fn relax_window(&mut self) {
        let Self {
            window,
            relaxed,
            beta,
            lo,
            ..
        } = self;
        relaxed.lo = *lo;
        relaxed.mins.clear();
        let mut u = f64::INFINITY;
        for (i, &c) in window.iter().enumerate() {
            let cand = c - *beta * (*lo as usize + i) as f64;
            if cand < u {
                u = cand;
            }
            relaxed.mins.push((f64::INFINITY, u));
        }
        let mut s = f64::INFINITY;
        for (&c, mins) in window.iter().zip(relaxed.mins.iter_mut()).rev() {
            if c < s {
                s = c;
            }
            mins.0 = s;
        }
    }

    /// Add `f` to the relaxed column on a slice grown from the old window
    /// until both argmins clear its ends, then cut the slice back to the
    /// new window.
    fn evaluate(&mut self, f: &Cost, slice: &mut Slice) {
        let (r, beta) = (&self.relaxed, self.beta);
        // Start from the old window, whose ends cleared the old minima.
        slice.reset(self.lo);
        slice.append(f, r, beta, self.window.len() as u32);
        let chunk = (self.window.len() as u32 / 4).max(4);
        let (mut down, mut up) = (chunk, chunk);
        loop {
            let margin = self.margin(slice.min_low);
            let b = slice.end();
            // An end clears its minimum when it lies above it by more
            // than the margin (NaN and infinite minima never clear).
            let low_clear = slice.low[0] > slice.min_low + margin;
            let up_clear = slice.up[slice.up.len() - 1] > slice.min_up + margin;
            let grow_down = slice.a > 0 && !low_clear;
            let grow_up = b < self.m && !up_clear;
            if !(grow_down || grow_up) {
                break;
            }
            if grow_down {
                slice.prepend(f, r, beta, down.min(slice.a));
                down = down.saturating_mul(2);
            }
            if grow_up {
                slice.append(f, r, beta, up.min(self.m - b));
                up = up.saturating_mul(2);
            }
        }
        // Cut the slice back to the new bounds plus, on each side, the
        // states within the margin of the minimum there.
        self.x_low = slice.x_low.unwrap_or(slice.a);
        self.x_up = slice.x_up.unwrap_or(slice.end());
        let margin = self.margin(slice.min_low);
        let (il, iu) = (
            (self.x_low - slice.a) as usize,
            (self.x_up - slice.a) as usize,
        );
        let mut first = il;
        while first > 0 {
            first -= 1;
            if slice.low[first] > slice.min_low + margin {
                break;
            }
        }
        let mut last = iu;
        while last + 1 < slice.up.len() {
            last += 1;
            if slice.up[last] > slice.min_up + margin {
                break;
            }
        }
        let (first, last) = (first.min(iu), last.max(il));
        self.window.clear();
        self.window.extend_from_slice(&slice.low[first..=last]);
        self.lo = slice.a + first as u32;
    }

    /// Rounding margin at a minimum of value `min`.
    fn margin(&self, min: f64) -> f64 {
        (min.abs() + self.beta * self.m as f64) * MARGIN
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

    /// The configuration: fleet size `m` and power-up cost `beta`.
    pub fn params(&self) -> (u32, f64) {
        (self.m, self.beta)
    }

    /// Number of steps consumed so far.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The window: its first state and `\hat C^L_tau` on it.
    pub fn window(&self) -> (u32, &[f64]) {
        (self.lo, &self.window)
    }

    /// `\hat C^L_tau(x)`, for any `x` in `0..=m`: read from the window
    /// inside it, and from the last step's relaxation plus its cost outside.
    /// (Before the first step only state 0 is reachable; a tracker rebuilt
    /// by [`BoundTracker::from_snapshot`] holds all states until its next
    /// step.)
    pub fn c_low(&self, x: u32) -> f64 {
        if let Some(&v) = x
            .checked_sub(self.lo)
            .and_then(|i| self.window.get(i as usize))
        {
            return v;
        }
        match &self.last {
            None => f64::INFINITY,
            Some(f) => {
                let (s, u) = self.relaxed.at(x);
                relax(s, u, self.beta * x as f64).0 + (0.0 + f.eval(x))
            }
        }
    }

    /// `\hat C^U_tau(x)`, derived from `\hat C^L` by Lemma 7.
    pub fn c_up(&self, x: u32) -> f64 {
        self.c_low(x) - self.beta * x as f64
    }

    /// The optimum of the truncated instance `f_1..=f_tau`, i.e.
    /// `min_x \hat C^L_tau(x)` (`None` before the first step).
    pub fn prefix_opt(&self) -> Option<f64> {
        (self.tau > 0).then(|| self.window[(self.x_low - self.lo) as usize])
    }

    /// Verify Lemma 8 (convexity of `\hat C^L`) and Lemma 9 (slope of
    /// `\hat C^L` at most `beta` up to `x^U`, at least `beta` above) on all
    /// of `0..=m`. Returns a description of the first violation, if any.
    /// Only meaningful after at least one step. (`\hat C^U` is derived from
    /// `\hat C^L` by Lemma 7, so its convexity follows.)
    pub fn check_lemmas(&self) -> Result<(), String> {
        let c_low: Vec<f64> = (0..=self.m).map(|x| self.c_low(x)).collect();
        let m1 = c_low.len();
        let scale = c_low
            .iter()
            .filter(|v| v.is_finite())
            .fold(1.0f64, |a, &b| a.max(b.abs()));
        let tol = 1e-9 * scale;

        // Lemma 8: convexity (on the finite suffix).
        let fin: Vec<f64> = c_low.iter().copied().filter(|x| x.is_finite()).collect();
        for w in fin.windows(3) {
            if (w[1] - w[0]) > (w[2] - w[1]) + tol {
                return Err(format!("lemma 8 violated for C^L: {w:?}"));
            }
        }
        // Lemma 9.
        let xu = self.x_up as usize;
        if xu >= 1 && c_low[xu].is_finite() && c_low[xu - 1].is_finite() {
            let slope = c_low[xu] - c_low[xu - 1];
            if slope > self.beta + tol {
                return Err(format!("lemma 9: slope {slope} > beta before x^U"));
            }
        }
        if xu + 1 < m1 && c_low[xu + 1].is_finite() && c_low[xu].is_finite() {
            let slope = c_low[xu + 1] - c_low[xu];
            if slope < self.beta - tol {
                return Err(format!("lemma 9: slope {slope} < beta after x^U"));
            }
        }
        Ok(())
    }
}

thread_local! {
    /// The step scratch every tracker stepped on this thread shares, so a
    /// tracker's own memory is its window and last relaxation.
    static SLICE: RefCell<Slice> = RefCell::new(Slice::default());
}

/// One step's evaluated slice: `\hat C^L_tau` and `\hat C^U_tau` on the
/// states `a..a + low.len()`, with their running argmins.
#[derive(Default)]
struct Slice {
    a: u32,
    low: Vec<f64>,
    up: Vec<f64>,
    min_low: f64,
    x_low: Option<u32>,
    min_up: f64,
    x_up: Option<u32>,
}

impl Slice {
    /// Empty the slice, to grow from state `a`.
    fn reset(&mut self, a: u32) {
        self.a = a;
        self.low.clear();
        self.up.clear();
        (self.min_low, self.x_low) = (f64::INFINITY, None);
        (self.min_up, self.x_up) = (f64::INFINITY, None);
    }

    /// Last state of the (non-empty) slice.
    fn end(&self) -> u32 {
        self.a + self.low.len() as u32 - 1
    }

    /// Evaluate the `k` states above the slice, add them to it and update
    /// its argmins (scanning up, `<` keeps the smallest argmin of
    /// `\hat C^L` and `<=` the largest of `\hat C^U`).
    fn append(&mut self, f: &Cost, r: &Relaxed, beta: f64, k: u32) {
        let (n, start) = (self.low.len(), self.a + self.low.len() as u32);
        self.low.resize(n + k as usize, 0.0);
        self.up.resize(n + k as usize, 0.0);
        self.fill(f, r, beta, start, n..n + k as usize);
        for i in n..self.low.len() {
            let x = start + (i - n) as u32;
            if self.low[i] < self.min_low {
                (self.min_low, self.x_low) = (self.low[i], Some(x));
            }
            if self.up[i] <= self.min_up {
                (self.min_up, self.x_up) = (self.up[i], Some(x));
            }
        }
    }

    /// Evaluate the `k` states below the slice, add them to it and update
    /// its argmins (scanning down, `<=` keeps the smallest argmin of
    /// `\hat C^L` and `<` the largest of `\hat C^U`).
    fn prepend(&mut self, f: &Cost, r: &Relaxed, beta: f64, k: u32) {
        let (n, k) = (self.low.len(), k as usize);
        self.low.resize(n + k, 0.0);
        self.up.resize(n + k, 0.0);
        self.low.copy_within(0..n, k);
        self.up.copy_within(0..n, k);
        self.a -= k as u32;
        self.fill(f, r, beta, self.a, 0..k);
        for i in (0..k).rev() {
            let x = self.a + i as u32;
            if self.low[i] <= self.min_low {
                (self.min_low, self.x_low) = (self.low[i], Some(x));
            }
            if self.up[i] < self.min_up {
                (self.min_up, self.x_up) = (self.up[i], Some(x));
            }
        }
    }

    /// Write the relaxed column `r` plus `f` into `low`/`up` at the
    /// indices `range`, whose first index is state `start`.
    fn fill(&mut self, f: &Cost, r: &Relaxed, beta: f64, start: u32, range: Range<usize>) {
        let (low, up) = (&mut self.low[range.clone()], &mut self.up[range]);
        // `up` holds `f` first: `0.0 + f(x)`, as a zeroed column sums it.
        up.fill(0.0);
        f.add_range_to(start, up);
        for (i, (low, up)) in low.iter_mut().zip(up.iter_mut()).enumerate() {
            let x = start + i as u32;
            let (s, u) = r.at(x);
            let (relaxed_low, relaxed_up) = relax(s, u, beta * x as f64);
            *low = relaxed_low + *up;
            *up += relaxed_up;
        }
    }
}

/// A peek copy (lookahead) reuses its buffers: `clone_from` copies the
/// window and the last relaxation, and allocates only to grow.
impl Clone for BoundTracker {
    fn clone(&self) -> Self {
        let mut copy = BoundTracker::new(self.m, self.beta);
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.m = source.m;
        self.beta = source.beta;
        self.tau = source.tau;
        self.window.clone_from(&source.window);
        self.lo = source.lo;
        self.x_low = source.x_low;
        self.x_up = source.x_up;
        self.relaxed.lo = source.relaxed.lo;
        self.relaxed.mins.clone_from(&source.relaxed.mins);
        self.last.clone_from(&source.last);
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
    /// Capture the full tracker state: `\hat C^L` on all `m + 1` states
    /// ([`BoundTracker::c_low`]), exactly the vector the `O(m)` recursion
    /// holds, so snapshots keep one format whatever the window.
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
            c_low: (0..=self.m)
                .map(|x| self.c_low(x))
                .map(|x| if x.is_finite() { x } else { f64::MAX })
                .collect(),
            c_up: None,
            x_low: self.x_low,
            x_up: self.x_up,
        }
    }

    /// Rebuild a tracker from a [`TrackerSnapshot`]. The restored window
    /// spans all states; the next step cuts it back to the bounds.
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
        let mut tracker = BoundTracker::new(s.m, s.beta);
        tracker.tau = s.tau as usize;
        tracker.window = s
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
        tracker.x_low = s.x_low.min(s.m);
        tracker.x_up = s.x_up.min(s.m);
        Ok(tracker)
    }
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
