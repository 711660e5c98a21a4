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
//! window of states around `[x^L, x^U]`, and a step is one fused pass over
//! it ([`Cost::visit_range`]): per state it reads the old value, relaxes
//! it, adds `f_tau`, writes `\hat C^L_tau` in place and `\hat C^U_tau` to a
//! scratch column, and takes both argmins, in one loop with the slot
//! cost's own evaluation. The relaxation needs each state's suffix minimum
//! `S` and prefix minimum `U` of `\hat C^L(x) - beta x`. `U` is a running
//! minimum of the pass. `S` is the window's minimum up to the old `x^L`
//! and the state's own value above it; a compare of every state first
//! confirms that the window is convex that way, and a window that
//! rounding left otherwise takes its exact suffix minima instead.
//!
//! Past the window's ends the pass extends the two tails from two
//! scalars: below it `S` is the window's minimum, above it `U` is its last
//! prefix minimum. It grows each end until the end's value clears the
//! minimum (by convexity of `f_tau` the argmins are then the global ones),
//! by as many states as the slope and curvature at the end say it needs.
//! The next window is cut back from the states visited to the new bounds.
//! The column is indexed by state and grows only when the bounds reach
//! states it has not held, so nothing is copied or allocated in a step
//! once the bounds have swept their range. A step costs one evaluation of
//! `f_tau` and a few dozen flops per state of the window, plus the states
//! the bounds move: on the `large-m` load at m = 1024, about twice
//! [`Cost::add_range_to`] over the window alone.
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
//! above a convex column, so an end of the pass that clears the minimum
//! by the margin still clears it by nearly the margin on the hull, and
//! the states beyond cannot fall back below it. A cost with a deeper
//! concave stretch could hide a lower minimum behind the end; the engine
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
    /// The column: state `x` at `col[x - base]`. It holds `\hat C^L_tau`
    /// on `span`, the states the last step visited.
    col: Vec<f64>,
    base: u32,
    span: (u32, u32),
    /// The window `lo..=hi` the next step reads, inside `span`; it
    /// contains `[x^L, x^U]`.
    lo: u32,
    hi: u32,
    x_low: u32,
    x_up: u32,
    /// The relaxation's tails past the window the last step read: the
    /// suffix minimum `S` below it and the prefix minimum `U` above it.
    tails: (f64, f64),
    /// `f_tau`, so [`BoundTracker::c_low`] can answer outside `span`.
    last: Option<Cost>,
}

/// The relaxed `(\hat C^L, \hat C^U)` at a state from its suffix minimum
/// `s = min_{x' >= x} C(x')` (stay or power down), its prefix minimum
/// `u = min_{x' <= x} (C(x') - beta x')` (power up, before `+ beta x`) and
/// `shift = beta x`. For `\hat C^U(x) = \hat C^L(x) - beta x` the
/// `- beta x` goes inside the two candidates instead of after them: the
/// power-up candidate then contributes its minimum before `beta x` is
/// added back. So where `\hat C^U` is flat in exact arithmetic (a flat
/// stretch of `f` the schedule powers up into), it is flat in floating
/// point too, and its largest argmin is not decided by rounding noise.
#[inline(always)]
fn relax(s: f64, u: f64, shift: f64) -> (f64, f64) {
    let low = if s < u + shift { s } else { u + shift };
    let up = if s - shift < u { s - shift } else { u };
    (low, up)
}

/// The running minima of one step: the smallest argmin of `\hat C^L_tau`
/// and the largest of `\hat C^U_tau` over the states visited so far.
struct Mins {
    low: f64,
    x_low: Option<u32>,
    up: f64,
    x_up: Option<u32>,
}

impl Mins {
    const NONE: Mins = Mins {
        low: f64::INFINITY,
        x_low: None,
        up: f64::INFINITY,
        x_up: None,
    };

    /// Fold in the minima of states that all lie below those seen so far:
    /// a tie moves `x^L` down and leaves `x^U`.
    fn below(&mut self, lower: Mins) {
        if lower.x_low.is_some() && lower.low <= self.low {
            (self.low, self.x_low) = (lower.low, lower.x_low);
        }
        if lower.up < self.up {
            (self.up, self.x_up) = (lower.up, lower.x_up);
        }
    }
}

/// How many states an end of the pass still needs to clear `target`,
/// estimated from the values at the `end`, outermost first, on a convex
/// column (with fewer than three values there is no estimate). Where the
/// column already rises outward, at that slope (a convex column rises at
/// least that fast). Where it still falls, to where its slope, changing by
/// the curvature at the end, turns; taken 1.5 times, since a slot cost's
/// curvature falls off toward its minimum (on the `large-m` load that
/// takes about a quarter fewer growths for the same states visited). At
/// least `4 << times` for an end's growth after `times` others, so a long
/// walk takes O(log m) growths.
fn reach(mut end: impl Iterator<Item = f64>, target: f64, times: u32) -> u32 {
    let mut next = || end.next().unwrap_or(f64::NAN);
    let (v0, v1, v2) = (next(), next(), next());
    let (d0, d1) = (v0 - v1, v1 - v2);
    let k = if d0 > 0.0 {
        (target - v0) / d0 + 1.0
    } else if d0 - d1 > 0.0 {
        1.5 * -d0 / (d0 - d1) + 2.0
    } else {
        f64::NAN
    };
    (k as u64).clamp(4 << times.min(29), u32::MAX as u64) as u32
}

/// One step's pass: the slot cost, `beta`, and the scratch column that
/// takes `\hat C^U_tau(x)` at `up[x]`.
struct Pass<'a> {
    f: &'a Cost,
    beta: f64,
    up: &'a mut [f64],
}

impl Pass<'_> {
    /// The fused pass over the states from `x0` up, one per entry of
    /// `low`. On entry `low` holds `\hat C^L_{tau-1}` where the window has
    /// it, and `u` is the prefix minimum below `x0`; `state(c, shift)`
    /// gives a state's suffix minimum and its power-up candidate. Each
    /// state gets its relaxation plus `0.0 + f_tau` (as a zeroed column
    /// sums it): `\hat C^L_tau` into `low`, `\hat C^U_tau` into `up`, and
    /// both argmins scan up (`<` keeps the smallest of `\hat C^L`, `<=` the
    /// largest of `\hat C^U`). Returns the prefix minimum after the last
    /// state.
    // Not inlined: on its own the loop keeps its values in registers.
    #[inline(never)]
    fn sweep(
        &mut self,
        low: &mut [f64],
        x0: u32,
        mut u: f64,
        mut state: impl FnMut(f64, f64) -> (f64, f64),
        mins: &mut Mins,
    ) -> f64 {
        let (beta, start) = (self.beta, x0 as usize);
        let up = &mut self.up[start..start + low.len()];
        let mut x = x0;
        self.f
            .visit_range(x0, low.iter_mut().zip(up), |(low, up), fx| {
                let shift = beta * x as f64;
                let (s, cand) = state(*low, shift);
                if cand < u {
                    u = cand;
                }
                let (relaxed_low, relaxed_up) = relax(s, u, shift);
                let fx = 0.0 + fx;
                (*low, *up) = (relaxed_low + fx, relaxed_up + fx);
                if *low < mins.low {
                    (mins.low, mins.x_low) = (*low, Some(x));
                }
                if *up <= mins.up {
                    (mins.up, mins.x_up) = (*up, Some(x));
                }
                x += 1;
            });
        u
    }
}

impl BoundTracker {
    /// Start tracking for a data center with `m` servers and power-up cost
    /// `beta`. Before any [`step`](Self::step), the bounds are `0`.
    pub fn new(m: u32, beta: f64) -> Self {
        // At tau = 0 the only reachable state is 0 (x_0 = 0): every other
        // state costs infinity, which `c_low` answers outside the span.
        Self {
            m,
            beta,
            tau: 0,
            col: vec![0.0],
            base: 0,
            span: (0, 0),
            lo: 0,
            hi: 0,
            x_low: 0,
            x_up: 0,
            tails: (f64::INFINITY, f64::INFINITY),
            last: None,
        }
    }

    /// Incorporate the next cost function, which must pass
    /// [`Cost::check_convex`] over `0..=m` (debug builds assert it);
    /// `O(x^U - x^L + moved)`.
    pub fn step(&mut self, f: &Cost) {
        debug_assert_eq!(f.check_convex(self.m), Ok(()), "tau {}", self.tau + 1);
        self.tau += 1;
        SCRATCH.with_borrow_mut(|scratch| self.pass(f, scratch));
        self.last = Some(f.clone());
    }

    /// One step: the fused pass over the window, the pass extended past
    /// its ends until both argmins clear them, and the cut back to the new
    /// window.
    fn pass(&mut self, f: &Cost, scratch: &mut Scratch) {
        let (m, beta, x_low) = (self.m, self.beta, self.x_low);
        let margin = |min: f64| (min.abs() + beta * m as f64) * MARGIN;
        let Scratch { up, suffix } = scratch;
        if up.len() <= m as usize {
            up.resize(m as usize + 1, 0.0);
        }
        let mut pass = Pass { f, beta, up };
        let (lo, hi) = (self.lo, self.hi);
        let window = self.states(lo, hi);
        // The suffix minimum `S` of a convex window is its minimum up to
        // its smallest argmin `x^L` and the value itself above: a compare
        // of every state confirms both (and refuses NaN). A window that
        // rounding left unconvex takes its exact suffix minima instead.
        let k = (x_low - lo) as usize;
        let min = window[k];
        let convex = window[..k].iter().fold(true, |ok, &c| ok & (c >= min))
            && window[k + 1..]
                .iter()
                .zip(&window[k..])
                .fold(true, |ok, (&c, &prev)| ok & (c >= prev));
        let mut mins = Mins::NONE;
        let inf = f64::INFINITY;
        let (s_below, u_above) = if convex {
            let (left, right) = window.split_at_mut(k + 1);
            let u = pass.sweep(left, lo, inf, |c, shift| (min, c - shift), &mut mins);
            let u = pass.sweep(right, x_low + 1, u, |c, shift| (c, c - shift), &mut mins);
            (min, u)
        } else {
            suffix.clear();
            suffix.extend(window.iter().rev().scan(inf, |s, &c| {
                if c < *s {
                    *s = c;
                }
                Some(*s)
            }));
            let mut s = suffix.iter().rev().copied();
            let exact = |c: f64, shift| (s.next().expect("one per state"), c - shift);
            let u = pass.sweep(window, lo, inf, exact, &mut mins);
            (suffix[suffix.len() - 1], u)
        };

        // Extend past the ends until each clears its minimum by more than
        // the margin (NaN and infinite minima never clear). Below the
        // window `S` is its minimum and no power-up candidate competes;
        // above it `U` is its last prefix minimum and staying never
        // competes. Each growth is estimated from the three states at the
        // end.
        let (mut downs, mut ups) = (0, 0);
        let (mut a, mut b) = (lo, hi);
        loop {
            let margin = margin(mins.low);
            let (low, up) = (self.states(a, b), &pass.up[a as usize..=b as usize]);
            let n = low.len() - 1;
            let low_clear = low[0] > mins.low + margin;
            let up_clear = up[n] > mins.up + margin;
            let (grow_down, grow_up) = (a > 0 && !low_clear, b < m && !up_clear);
            if !(grow_down || grow_up) {
                break;
            }
            let down_by = reach(low.iter().copied(), mins.low + margin, downs);
            let up_by = reach(up.iter().rev().copied(), mins.up + margin, ups);
            if grow_down {
                let from = a - down_by.min(a);
                self.cover(from, b);
                let mut lower = Mins::NONE;
                let states = self.states(from, a - 1);
                pass.sweep(states, from, inf, |_, _| (s_below, inf), &mut lower);
                mins.below(lower);
                (a, downs) = (from, downs + 1);
            }
            if grow_up {
                let to = b + up_by.min(m - b);
                self.cover(a, to);
                let states = self.states(b + 1, to);
                pass.sweep(states, b + 1, u_above, |_, _| (inf, inf), &mut mins);
                (b, ups) = (to, ups + 1);
            }
        }

        // Cut back to the new bounds plus, on each side, the states within
        // the margin of the minimum there.
        self.x_low = mins.x_low.unwrap_or(a);
        self.x_up = mins.x_up.unwrap_or(b);
        let margin = margin(mins.low);
        let mut first = self.x_low;
        while first > a {
            first -= 1;
            if self.col[(first - self.base) as usize] > mins.low + margin {
                break;
            }
        }
        let mut last = self.x_up;
        while last < b {
            last += 1;
            if pass.up[last as usize] > mins.up + margin {
                break;
            }
        }
        (self.lo, self.hi) = (first.min(self.x_up), last.max(self.x_low));
        self.span = (a, b);
        self.tails = (s_below, u_above);
    }

    /// `\hat C^L` on the states `a..=b` of the column.
    fn states(&mut self, a: u32, b: u32) -> &mut [f64] {
        let base = self.base;
        &mut self.col[(a - base) as usize..=(b - base) as usize]
    }

    /// Make `col` hold the states `a..=b`, growing it by at least its own
    /// length on the side that lacks room, so a tracker whose bounds sweep
    /// the same states again reallocates nothing.
    fn cover(&mut self, a: u32, b: u32) {
        if a < self.base {
            let grow = (self.base - a).max(self.col.len() as u32).min(self.base);
            self.col
                .splice(0..0, std::iter::repeat_n(0.0, grow as usize));
            self.base -= grow;
        }
        let need = (b - self.base) as usize + 1;
        if need > self.col.len() {
            let most = (self.m - self.base) as usize + 1;
            self.col.resize(need.max(2 * self.col.len()).min(most), 0.0);
        }
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
        let (lo, hi) = (self.lo - self.base, self.hi - self.base);
        (self.lo, &self.col[lo as usize..=hi as usize])
    }

    /// `\hat C^L_tau(x)`, for any `x` in `0..=m`: read from the column on
    /// the states the last step visited, and from the tails of its
    /// relaxation plus its cost outside them. (Before the first step only
    /// state 0 is reachable; a tracker rebuilt by
    /// [`BoundTracker::from_snapshot`] holds all states until its next
    /// step.)
    pub fn c_low(&self, x: u32) -> f64 {
        let (a, b) = self.span;
        if (a..=b).contains(&x) {
            return self.col[(x - self.base) as usize];
        }
        match &self.last {
            None => f64::INFINITY,
            Some(f) => {
                let (s, u) = if x < a {
                    (self.tails.0, f64::INFINITY)
                } else {
                    (f64::INFINITY, self.tails.1)
                };
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
        (self.tau > 0).then(|| self.col[(self.x_low - self.base) as usize])
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
    /// tracker's own memory is its column.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One step's scratch.
#[derive(Default)]
struct Scratch {
    /// `\hat C^U_tau(x)` at `up[x]` for the states a step visits.
    up: Vec<f64>,
    /// The suffix minima of a window that is not convex in floating point.
    suffix: Vec<f64>,
}

/// A peek copy (lookahead) reuses its buffers: `clone_from` copies the
/// states the source's last step visited, and allocates only to grow.
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
        self.col.resize(source.col.len(), 0.0);
        let (a, b) = source.span;
        let states = (a - source.base) as usize..=(b - source.base) as usize;
        self.col[states.clone()].copy_from_slice(&source.col[states]);
        self.base = source.base;
        self.span = source.span;
        self.lo = source.lo;
        self.hi = source.hi;
        self.x_low = source.x_low;
        self.x_up = source.x_up;
        self.tails = source.tails;
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
        tracker.col = s
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
        (tracker.span, tracker.hi) = ((0, s.m), s.m);
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
