//! Convex operating-cost functions.
//!
//! The paper models the operating cost at time `t` by a non-negative convex
//! function `f_t : [m]_0 -> R_{>=0}` (general model, eq. 1) or by
//! `x * f(lambda/x)` subject to `x >= lambda` (restricted model, eq. 2).
//!
//! [`Cost`] is a closed enum of cost-function shapes. Using an enum rather
//! than a trait object keeps instances `Clone + Serialize` and lets the
//! optimizers stay monomorphic and fast. Every variant supports
//!
//! * [`Cost::eval`] — exact evaluation at an **integer** state,
//! * [`Cost::eval_analytic`] — evaluation at a **real** state using the
//!   variant's natural analytic formula (used by natively-continuous
//!   instances such as the Section 5 lower-bound constructions),
//! * [`Cost::interpolate`] — the paper's continuous extension (eq. 3):
//!   linear interpolation between adjacent integer states.
//!
//! States outside a variant's feasible region (e.g. `x < lambda` in the
//! restricted model) evaluate to `f64::INFINITY`, which the dynamic programs
//! treat as "forbidden".

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// Relative rounding allowance of [`Cost::check_convex`]: a state may lie
/// above the lower convex hull of the values by at most this fraction of
/// its own value. It is 2^-40 — thousands of ulps, so costs computed in
/// floating point from a convex formula pass, yet 2^10 times finer than
/// the relative rounding margin (2^-30) of the LCP bound tracker's
/// window, so no accepted cost can hide a lower minimum from its window
/// search (the argument is in `rsdc_online::bounds`).
pub const CONVEX_RTOL: f64 = 1.0 / (1u64 << 40) as f64;

/// Parameters of the Lin et al. style per-server cost used by the data-center
/// workload builders: energy plus a queueing-delay penalty.
///
/// A server running at utilisation `rho = lambda/x in [0, 1]` costs
///
/// ```text
/// energy(rho) = e_idle + (e_peak - e_idle) * rho
/// delay(rho)  = delay_weight * rho / (1 - rho + delay_eps)
/// ```
///
/// and the slot cost is `x * (energy + delay)`, which is convex in `x` for
/// fixed `lambda` (decreasing marginal utilisation). `delay_eps > 0` keeps
/// the delay finite at full utilisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerParams {
    /// Idle power draw of one active server (cost units per slot).
    pub e_idle: f64,
    /// Peak power draw of one fully utilised server.
    pub e_peak: f64,
    /// Weight of the queueing-delay term.
    pub delay_weight: f64,
    /// Regulariser that keeps the delay finite at `rho = 1`.
    pub delay_eps: f64,
}

impl Default for ServerParams {
    fn default() -> Self {
        Self {
            e_idle: 1.0,
            e_peak: 2.0,
            delay_weight: 1.0,
            delay_eps: 0.05,
        }
    }
}

impl ServerParams {
    /// Check the parameters that make [`Cost::Server`] convex and
    /// non-negative: all finite, `0 <= e_idle <= e_peak`,
    /// `delay_weight >= 0` and `delay_eps > 0`.
    pub fn validate(&self) -> Result<(), String> {
        let Self {
            e_idle,
            e_peak,
            delay_weight,
            delay_eps,
        } = *self;
        if ![e_idle, e_peak, delay_weight, delay_eps]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(format!("server params must be finite, got {self:?}"));
        }
        if !(0.0 <= e_idle && e_idle <= e_peak) {
            return Err(format!(
                "server params need 0 <= e_idle <= e_peak, got e_idle {e_idle}, e_peak {e_peak}"
            ));
        }
        if delay_weight < 0.0 {
            return Err(format!("delay_weight must be >= 0, got {delay_weight}"));
        }
        if delay_eps <= 0.0 {
            return Err(format!("delay_eps must be > 0, got {delay_eps}"));
        }
        Ok(())
    }

    /// Cost of a single server running at utilisation `rho` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn unit_cost(&self, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, 1.0);
        let energy = self.e_idle + (self.e_peak - self.e_idle) * rho;
        let delay = self.delay_weight * rho / (1.0 - rho + self.delay_eps);
        energy + delay
    }
}

/// A single-server load-cost function `f(z)` for the restricted model
/// (eq. 2), where `z in [0, 1]` is the per-server utilisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant docs explain each field's role
pub enum Unit {
    /// `scale * |c0 - c1 * z|` — the shape used by every lower-bound proof
    /// in Section 5 (`f(z) = eps*|1 - 2z|`, `f(z) = eps*|1 - k z|`).
    AbsAffine { scale: f64, c0: f64, c1: f64 },
    /// `base + slope * z` (affine, convex).
    Affine { base: f64, slope: f64 },
    /// Energy + delay per [`ServerParams`].
    Server(ServerParams),
}

impl Unit {
    /// Evaluate the unit cost at utilisation `z`.
    #[inline]
    pub fn eval(&self, z: f64) -> f64 {
        match self {
            Unit::AbsAffine { scale, c0, c1 } => scale * (c0 - c1 * z).abs(),
            Unit::Affine { base, slope } => base + slope * z,
            Unit::Server(p) => p.unit_cost(z),
        }
    }
}

/// A non-negative convex operating-cost function over server counts.
///
/// See the module docs for the evaluation modes. Construct instances via the
/// provided constructors ([`Cost::abs`], [`Cost::quadratic`], ...) or the
/// enum literals directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant docs explain each field's role
pub enum Cost {
    /// Identically zero. Used for padding slots (e.g. `f_0` in the paper).
    Zero,
    /// Constant `c >= 0`.
    Const(f64),
    /// `slope * |x - center|`. The adversarial building block
    /// (`phi_0(x) = eps*|x|`, `phi_1(x) = eps*|1 - x|`, Section 5).
    Abs { slope: f64, center: f64 },
    /// `a * (x - center)^2 + offset`, `a >= 0`, `offset >= 0`.
    Quadratic { a: f64, center: f64, offset: f64 },
    /// `intercept + slope * x`; requires non-negativity over `[0, m]`, which
    /// [`Cost::check_convex`] verifies.
    Linear { intercept: f64, slope: f64 },
    /// Hinge `slope * max(0, x - knee)` plus `drop * max(0, knee - x)`:
    /// a general piecewise-linear "V" with independent arms.
    Hinge {
        knee: f64,
        left_slope: f64,
        right_slope: f64,
    },
    /// Explicit table of values for `x = 0..=m`. Shared so clones are cheap.
    Table(Arc<Vec<f64>>),
    /// Restricted-model cost `x * f(lambda/x)` subject to `x >= lambda`
    /// (eq. 2). Evaluates to `+inf` for `x < lambda`.
    Load { lambda: f64, unit: Unit },
    /// Data-center slot cost `x * unit_cost(lambda/x)` with **soft**
    /// capacity: for `x >= ceil(lambda)` the perspective-function cost
    /// applies; below, the cost extends linearly backwards with per-missing-
    /// server slope `max(overload, drop)` where `drop` is whatever slope is
    /// needed to keep the function convex at the junction. Convex in `x`.
    Server {
        lambda: f64,
        params: ServerParams,
        overload: f64,
    },
    /// `factor * inner(x)` — used by the Section 5.4 dilation (`f'_{t,u} =
    /// f_t / (n w)`).
    Scaled { factor: f64, inner: Box<Cost> },
    /// Power-of-two padding (Section 2.2): `inner(x)` for `x <= m_orig` and
    /// a linear extension `inner(m_orig) + (x - m_orig) * (inner(m_orig) +
    /// eps)` above.
    ///
    /// Note: the paper writes the extension as `x * (f_t(m) + eps)`, which
    /// taken literally jumps discontinuously at `m` and is *not* convex at
    /// `m + 1`. Its stated justification ("the greatest slope of `f_t` is
    /// `f_t(m) - f_t(m-1) <= f_t(m)`") is exactly the convexity condition
    /// for the slope-based extension used here, which also preserves the
    /// only property the algorithm needs: states above `m` are never
    /// optimal because the extension increases strictly.
    Padded {
        m_orig: u32,
        eps: f64,
        inner: Box<Cost>,
    },
}

impl Cost {
    /// `slope * |x - center|`.
    pub fn abs(slope: f64, center: f64) -> Self {
        Cost::Abs { slope, center }
    }

    /// The adversary function `phi_0(x) = slope * |x|`.
    pub fn phi0(slope: f64) -> Self {
        Cost::Abs { slope, center: 0.0 }
    }

    /// The adversary function `phi_1(x) = slope * |1 - x|`.
    pub fn phi1(slope: f64) -> Self {
        Cost::Abs { slope, center: 1.0 }
    }

    /// `a (x - center)^2 + offset`.
    pub fn quadratic(a: f64, center: f64, offset: f64) -> Self {
        Cost::Quadratic { a, center, offset }
    }

    /// Table cost from explicit per-state values.
    pub fn table(values: Vec<f64>) -> Self {
        Cost::Table(Arc::new(values))
    }

    /// Restricted-model cost `x * unit(lambda / x)`, `x >= lambda` enforced.
    pub fn load(lambda: f64, unit: Unit) -> Self {
        Cost::Load { lambda, unit }
    }

    /// Scale this cost by `factor`.
    pub fn scaled(self, factor: f64) -> Self {
        Cost::Scaled {
            factor,
            inner: Box::new(self),
        }
    }

    /// Evaluate at an integer state.
    #[inline]
    pub fn eval(&self, x: u32) -> f64 {
        self.eval_analytic(x as f64)
    }

    /// Add `f(x)` to `acc[x]` for every `x in 0..acc.len()`: the batched
    /// form of [`Cost::eval`] the dynamic programs use to fold a slot's
    /// cost into a value column.
    ///
    /// The variant is matched once per call rather than once per state, and
    /// [`Cost::Server`] computes its junction terms once. Every sum is
    /// bit-identical to `acc[x] += self.eval(x)`.
    pub fn add_to(&self, acc: &mut [f64]) {
        self.add_range_to(0, acc);
    }

    /// [`Cost::add_to`] over the states `start..start + acc.len()`: adds
    /// `f(start + i)` to `acc[i]`, bit-identical to
    /// `acc[i] += self.eval(start + i)`.
    pub fn add_range_to(&self, start: u32, acc: &mut [f64]) {
        self.visit_range(start, acc.iter_mut(), |a, v| *a += v);
    }

    /// Call `visit(item, f(start + i))` for the `i`-th of `items`, in
    /// order, with each value bit-identical to `self.eval(start + i)`: the
    /// one loop over states behind [`Cost::add_range_to`]. The variant is
    /// matched once per call rather than once per state, and
    /// [`Cost::Server`] computes its junction terms once. The window bound
    /// tracker folds its whole step into `visit`.
    #[inline]
    pub fn visit_range<T>(
        &self,
        start: u32,
        items: impl Iterator<Item = T>,
        visit: impl FnMut(T, f64),
    ) {
        let at = |i: usize| (start as usize + i) as f64;
        match self {
            Cost::Zero => each(items, visit, |_| 0.0),
            Cost::Const(c) => each(items, visit, |_| *c),
            Cost::Abs { slope, center } => each(items, visit, |i| slope * (at(i) - center).abs()),
            Cost::Quadratic { a, center, offset } => each(items, visit, |i| {
                let d = at(i) - center;
                a * d * d + offset
            }),
            Cost::Linear { intercept, slope } => each(items, visit, |i| intercept + slope * at(i)),
            Cost::Table(v) => {
                // Integer states read the table directly; states past its
                // end clamp to the last entry, as `interpolate_table` does.
                let last = v.len() - 1;
                each(items, visit, |i| v[(start as usize + i).min(last)]);
            }
            Cost::Server {
                lambda,
                params,
                overload,
            } => {
                let x0 = server_x0(*lambda);
                let (g_x0, pen) = server_extension(*lambda, params, *overload, x0);
                each(items, visit, |i| {
                    let x = at(i);
                    if x >= x0 {
                        server_g(*lambda, params, x)
                    } else {
                        g_x0 + (x0 - x) * pen
                    }
                });
            }
            _ => each(items, visit, |i| self.eval_analytic(at(i))),
        }
    }

    /// Evaluate at a real state using the variant's analytic formula.
    ///
    /// For [`Cost::Table`] this falls back to linear interpolation, which is
    /// the only sensible continuous reading of tabulated data (and matches
    /// eq. 3 exactly there).
    pub fn eval_analytic(&self, x: f64) -> f64 {
        match self {
            Cost::Zero => 0.0,
            Cost::Const(c) => *c,
            Cost::Abs { slope, center } => slope * (x - center).abs(),
            Cost::Quadratic { a, center, offset } => {
                let d = x - center;
                a * d * d + offset
            }
            Cost::Linear { intercept, slope } => intercept + slope * x,
            Cost::Hinge {
                knee,
                left_slope,
                right_slope,
            } => {
                if x >= *knee {
                    right_slope * (x - knee)
                } else {
                    left_slope * (knee - x)
                }
            }
            Cost::Table(v) => interpolate_table(v, x),
            Cost::Load { lambda, unit } => {
                if x + 1e-12 < *lambda {
                    f64::INFINITY
                } else if x <= 0.0 {
                    // lambda <= 0 here; zero servers serving zero load.
                    0.0
                } else {
                    x * unit.eval((lambda / x).clamp(0.0, 1.0))
                }
            }
            Cost::Server {
                lambda,
                params,
                overload,
            } => {
                let x0 = server_x0(*lambda);
                if x >= x0 {
                    server_g(*lambda, params, x)
                } else {
                    let (g_x0, pen) = server_extension(*lambda, params, *overload, x0);
                    g_x0 + (x0 - x) * pen
                }
            }
            Cost::Scaled { factor, inner } => factor * inner.eval_analytic(x),
            Cost::Padded { m_orig, eps, inner } => {
                let m = *m_orig as f64;
                if x <= m {
                    inner.eval_analytic(x)
                } else {
                    let fm = inner.eval(*m_orig);
                    fm + (x - m) * (fm + eps)
                }
            }
        }
    }

    /// The paper's continuous extension (eq. 3): linear interpolation of the
    /// integer values. For `x` outside `[0, m]` the nearest endpoint value
    /// is extended linearly using the boundary slope of zero (clamped).
    pub fn interpolate(&self, x: f64) -> f64 {
        interpolate_integers(x, |i| self.eval(i))
    }

    /// Verify convexity and non-negativity of the integer restriction over
    /// `0..=m`, allowing an infinite prefix (infeasible low states in the
    /// restricted model). Returns `Err` with a human-readable reason.
    ///
    /// "Convex" means within rounding of convex: no state may lie above
    /// the lower convex hull of the values by more than [`CONVEX_RTOL`]
    /// of its own value. The bound is on each state's height, so slight
    /// concavity cannot add up across states into a hidden second well
    /// (the LCP bound tracker's window search relies on that).
    ///
    /// Shapes whose parameters make them convex and non-negative on all
    /// of `[0, m]` (see [`Cost::convex_by_construction`]) answer in
    /// `O(1)`. Any other cost is read once per state when its values are
    /// exactly convex, and up to three times otherwise; the hull lives in
    /// a per-thread buffer, so a warm check allocates nothing.
    pub fn check_convex(&self, m: u32) -> Result<(), String> {
        if self.convex_by_construction() {
            return Ok(());
        }
        HULL.with_borrow_mut(|hull| match self {
            // Past its end a table repeats its last entry, so one state
            // of that tail decides the rest.
            Cost::Table(v) => check_values(hull, m.min(v.len() as u32), |x| {
                v[(x as usize).min(v.len() - 1)]
            }),
            _ => check_values(hull, m, |x| self.eval(x)),
        })
    }

    /// Whether the shape's parameters alone make it convex and
    /// non-negative on all of `[0, m]` for every `m`, with each value
    /// computed to within a few ulps of itself: `Zero`, non-negative
    /// `Const`, `Abs`, `Hinge` and `Scaled` factors, `Quadratic` with
    /// `a, offset >= 0`, `Linear` with `intercept, slope >= 0`, and
    /// `Server` with a finite non-negative load and overload and valid
    /// [`ServerParams`]. Tables, load costs and padded costs are checked
    /// state by state instead.
    pub fn convex_by_construction(&self) -> bool {
        let nonneg = |v: &[f64]| v.iter().all(|v| v.is_finite() && *v >= 0.0);
        match self {
            Cost::Zero => true,
            Cost::Const(c) => nonneg(&[*c]),
            Cost::Abs { slope, center } => nonneg(&[*slope]) && center.is_finite(),
            Cost::Quadratic { a, center, offset } => nonneg(&[*a, *offset]) && center.is_finite(),
            Cost::Linear { intercept, slope } => nonneg(&[*intercept, *slope]),
            Cost::Hinge {
                knee,
                left_slope,
                right_slope,
            } => nonneg(&[*left_slope, *right_slope]) && knee.is_finite(),
            Cost::Server {
                lambda,
                params,
                overload,
            } => nonneg(&[*lambda, *overload]) && params.validate().is_ok(),
            Cost::Scaled { factor, inner } => nonneg(&[*factor]) && inner.convex_by_construction(),
            Cost::Table(_) | Cost::Load { .. } | Cost::Padded { .. } => false,
        }
    }

    /// Smallest integer minimizer over `0..=m` (the paper's `x_t^{min-}`).
    pub fn argmin_low(&self, m: u32) -> u32 {
        let mut best = 0u32;
        let mut best_v = f64::INFINITY;
        for x in 0..=m {
            let v = self.eval(x);
            if v < best_v {
                best_v = v;
                best = x;
            }
        }
        best
    }

    /// Greatest integer minimizer over `0..=m` (the paper's `x_t^{min+}`).
    pub fn argmin_high(&self, m: u32) -> u32 {
        let mut best = 0u32;
        let mut best_v = f64::INFINITY;
        for x in 0..=m {
            let v = self.eval(x);
            if v <= best_v {
                best_v = v;
                best = x;
            }
        }
        best
    }
}

thread_local! {
    /// The lower-hull stack [`Cost::check_convex`] reuses on this thread.
    static HULL: RefCell<Vec<(u32, f64)>> = const { RefCell::new(Vec::new()) };
}

/// [`Cost::check_convex`] over the values `value(0..=end)`, with `hull` as
/// the hull stack. The first pass skips the infinite prefix, checks the
/// rest finite and non-negative, and tests every triple of neighbours for
/// exact convexity; values that pass it (the common case) are done. For
/// the others, a second pass keeps the lower convex hull and a third
/// measures every state between two hull vertices against their chord.
fn check_values(
    hull: &mut Vec<(u32, f64)>,
    end: u32,
    value: impl Fn(u32) -> f64,
) -> Result<(), String> {
    let Some(first) = (0..=end).find(|&x| value(x) != f64::INFINITY) else {
        return Err("cost is infinite at every state".into());
    };
    let (mut a, mut b) = (0.0, 0.0);
    let mut exact = true;
    for x in first..=end {
        let c = value(x);
        if !(-1e-12..f64::INFINITY).contains(&c) {
            return Err(if c.is_nan() {
                format!("cost is NaN at state {x}")
            } else if c == f64::INFINITY {
                format!("infinite cost at state {x} after finite state {first}")
            } else {
                format!("negative cost {c} at state {x}")
            });
        }
        if x >= first + 2 {
            exact &= convex_triple(a, b, c);
        }
        (a, b) = (b, c);
    }
    if exact {
        return Ok(());
    }
    hull.clear();
    for x in first..=end {
        let c = value(x);
        while let [.., (xa, a), (xb, b)] = hull[..] {
            // Drop `b` unless it lies strictly below the chord a–c.
            if (b - a) * (x - xa) as f64 >= (c - a) * (xb - xa) as f64 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push((x, c));
    }
    for w in hull.windows(2) {
        let ((xa, a), (xb, b)) = (w[0], w[1]);
        for x in xa + 1..xb {
            let c = value(x);
            let chord = a + (b - a) * (x - xa) as f64 / (xb - xa) as f64;
            if c - chord > CONVEX_RTOL * c.abs() {
                return Err(format!(
                    "state {x} lies {} above the convex hull (values {a} at {xa}, \
                     {c} at {x}, {b} at {xb})",
                    c - chord
                ));
            }
        }
    }
    Ok(())
}

/// Whether `a + c >= 2 b` holds exactly for finite `a`, `b`, `c`. The sum
/// `a + c` is split into its rounded value `s` and its exact error `e`
/// (Knuth's two-sum); `(s - 2b) + e` then rounds to the sign of the exact
/// `a + c - 2b`, whether or not `s - 2b` is exact.
#[inline(always)]
fn convex_triple(a: f64, b: f64, c: f64) -> bool {
    let s = a + c;
    let z = s - a;
    let e = (a - (s - z)) + (c - z);
    (s - 2.0 * b) + e >= 0.0
}

/// `visit(item, f(i))` for the `i`-th of `items`.
#[inline(always)]
fn each<T>(
    items: impl Iterator<Item = T>,
    mut visit: impl FnMut(T, f64),
    f: impl Fn(usize) -> f64,
) {
    for (i, item) in items.enumerate() {
        visit(item, f(i));
    }
}

/// The perspective function `g(x) = x * unit(lambda/x)` of [`Cost::Server`],
/// convex on `x >= lambda` when the unit cost is convex.
#[inline(always)]
fn server_g(lambda: f64, params: &ServerParams, x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * params.unit_cost((lambda / x).clamp(0.0, 1.0))
    }
}

/// Smallest integer state of [`Cost::Server`] that serves the load without
/// overload (0 when there is no load: an idle fleet costs 0).
#[inline(always)]
fn server_x0(lambda: f64) -> f64 {
    lambda.max(0.0).ceil()
}

/// `(g(x0), pen)` of [`Cost::Server`]'s backward linear extension below
/// `x0`: its slope `pen` is steep enough to dominate the junction slope of
/// `g`, which keeps the cost convex.
#[inline(always)]
fn server_extension(lambda: f64, params: &ServerParams, overload: f64, x0: f64) -> (f64, f64) {
    let g_x0 = server_g(lambda, params, x0);
    let junction_drop = (g_x0 - server_g(lambda, params, x0 + 1.0)).max(0.0);
    (g_x0, overload.max(junction_drop))
}

/// [`Cost::interpolate`] over the integer values `int` reads: callers that
/// read one cost at many nearby points can memoise `int`.
pub fn interpolate_integers(x: f64, mut int: impl FnMut(u32) -> f64) -> f64 {
    if x < 0.0 {
        return int(0);
    }
    let lo = x.floor();
    let hi = lo + 1.0;
    let frac = x - lo;
    if frac == 0.0 {
        return int(lo as u32);
    }
    let f_lo = int(lo as u32);
    let f_hi = int(hi as u32);
    (1.0 - frac) * f_lo + frac * f_hi
}

fn interpolate_table(v: &[f64], x: f64) -> f64 {
    debug_assert!(!v.is_empty());
    let last = (v.len() - 1) as f64;
    let x = x.clamp(0.0, last);
    let lo = x.floor() as usize;
    let frac = x - lo as f64;
    if frac == 0.0 {
        v[lo]
    } else {
        (1.0 - frac) * v[lo] + frac * v[lo + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_matches_phi_functions() {
        let phi0 = Cost::phi0(0.5);
        let phi1 = Cost::phi1(0.5);
        assert_eq!(phi0.eval(0), 0.0);
        assert_eq!(phi0.eval(3), 1.5);
        assert_eq!(phi1.eval(1), 0.0);
        assert_eq!(phi1.eval(0), 0.5);
        assert_eq!(phi1.eval(4), 1.5);
    }

    #[test]
    fn quadratic_eval_and_convexity() {
        let q = Cost::quadratic(2.0, 3.0, 1.0);
        assert_eq!(q.eval(3), 1.0);
        assert_eq!(q.eval(0), 19.0);
        q.check_convex(10).unwrap();
    }

    #[test]
    fn table_interpolation_matches_eq3() {
        let t = Cost::table(vec![4.0, 1.0, 0.0, 5.0]);
        assert_eq!(t.eval(2), 0.0);
        // eq. 3 at x = 1.25: 0.75*f(1) + 0.25*f(2)
        assert!((t.interpolate(1.25) - 0.75).abs() < 1e-12);
        // analytic == interpolation for tables
        assert_eq!(t.eval_analytic(1.25), t.interpolate(1.25));
    }

    #[test]
    fn load_infeasible_below_lambda() {
        let f = Cost::load(
            1.0,
            Unit::AbsAffine {
                scale: 0.1,
                c0: 1.0,
                c1: 2.0,
            },
        );
        assert!(f.eval(0).is_infinite());
        // x = 1: 1 * 0.1*|1-2| = 0.1
        assert!((f.eval(1) - 0.1).abs() < 1e-12);
        // x = 2: 2 * 0.1*|1-1| = 0
        assert!((f.eval(2) - 0.0).abs() < 1e-12);
        f.check_convex(8).unwrap();
    }

    #[test]
    fn restricted_model_theorem5_identity() {
        // Proof of Theorem 5: with f(z) = eps|1-2z| and two servers,
        // lambda = 0.5 gives cost eps*|x^L - 1| = eps*|x^G| and lambda = 1
        // gives eps*|x^L - 2| = eps*|1 - x^G| where x^L = x^G + 1.
        let eps = 0.25;
        let unit = Unit::AbsAffine {
            scale: eps,
            c0: 1.0,
            c1: 2.0,
        };
        let l0 = Cost::load(0.5, unit.clone());
        let l1 = Cost::load(1.0, unit);
        let phi0 = Cost::phi0(eps);
        let phi1 = Cost::phi1(eps);
        for xg in 0u32..=1 {
            let xl = xg + 1;
            assert!((l0.eval(xl) - phi0.eval(xg)).abs() < 1e-12, "l0 at {xl}");
            assert!((l1.eval(xl) - phi1.eval(xg)).abs() < 1e-12, "l1 at {xl}");
        }
    }

    #[test]
    fn server_cost_is_convex_and_nonneg() {
        let c = Cost::Server {
            lambda: 3.7,
            params: ServerParams::default(),
            overload: 50.0,
        };
        c.check_convex(32).unwrap();
        assert!(c.eval(0) > 0.0);
    }

    #[test]
    fn padded_cost_matches_section_2_2() {
        let inner = Cost::quadratic(1.0, 2.0, 0.0);
        let padded = Cost::Padded {
            m_orig: 3,
            eps: 0.5,
            inner: Box::new(inner.clone()),
        };
        for x in 0..=3 {
            assert_eq!(padded.eval(x), inner.eval(x));
        }
        // above m: f(3) + (x - 3) * (f(3) + eps) = 1 + (x - 3) * 1.5
        assert_eq!(padded.eval(4), 1.0 + 1.5);
        assert_eq!(padded.eval(6), 1.0 + 3.0 * 1.5);
        padded.check_convex(8).unwrap();
    }

    #[test]
    fn scaled_cost() {
        let c = Cost::phi1(1.0).scaled(0.25);
        assert_eq!(c.eval(0), 0.25);
        assert_eq!(c.eval(1), 0.0);
    }

    #[test]
    fn argmin_low_high() {
        let t = Cost::table(vec![3.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(t.argmin_low(4), 1);
        assert_eq!(t.argmin_high(4), 3);
    }

    #[test]
    fn convexity_rejects_concave() {
        let t = Cost::table(vec![0.0, 2.0, 3.0]);
        assert!(t.check_convex(2).is_err());
    }

    #[test]
    fn convexity_rejects_negative() {
        let t = Cost::table(vec![0.0, -1.0, 0.0]);
        assert!(t.check_convex(2).is_err());
    }

    #[test]
    fn convexity_rejects_infinite_interior() {
        let t = Cost::table(vec![0.0, f64::INFINITY, 0.0]);
        assert!(t.check_convex(2).is_err());
    }

    #[test]
    fn convexity_bounds_each_state_not_each_triple() {
        // Values near 1e6 whose slope falls by 1e-4 per state: every
        // triple is within a per-triple allowance of 1e-9 of the value,
        // but over 500 states the shortfalls add up to a bump about 3
        // above the hull.
        let mut vals = vec![1e6];
        let mut slope = 0.0;
        for _ in 0..500 {
            slope -= 1e-4;
            vals.push(vals.last().unwrap() + slope);
        }
        for w in vals.windows(3) {
            assert!((w[1] - w[0]) - (w[2] - w[1]) <= 1e-9 * w[0]);
        }
        assert!(Cost::table(vals).check_convex(500).is_err());
    }

    #[test]
    fn convexity_allows_rounding_sized_bumps() {
        // A linear table with one state raised a quarter, then four times,
        // the allowance above its neighbours' chord.
        let bumped = |k: f64| {
            let mut vals: Vec<f64> = (0..=64).map(|x| 1e6 + x as f64).collect();
            vals[32] += k * CONVEX_RTOL * vals[32];
            Cost::table(vals)
        };
        bumped(0.25).check_convex(64).unwrap();
        assert!(bumped(4.0).check_convex(64).is_err());
    }

    #[test]
    fn server_params_validate() {
        ServerParams::default().validate().unwrap();
        let with = |f: fn(&mut ServerParams)| {
            let mut p = ServerParams::default();
            f(&mut p);
            p.validate()
        };
        assert!(with(|p| p.e_idle = -0.5).is_err());
        assert!(with(|p| p.e_peak = 0.5).is_err());
        assert!(with(|p| p.delay_weight = -0.05).is_err());
        assert!(with(|p| p.delay_eps = 0.0).is_err());
        assert!(with(|p| p.e_peak = f64::NAN).is_err());
    }

    #[test]
    fn server_cost_with_invalid_params_is_checked_state_by_state() {
        let server = |delay_weight| Cost::Server {
            lambda: 3.7,
            params: ServerParams {
                delay_weight,
                ..ServerParams::default()
            },
            overload: 50.0,
        };
        assert!(server(1.0).convex_by_construction());
        // A negative delay weight keeps this cost non-negative but bends
        // it concave past the load.
        let bent = server(-0.05);
        assert!(!bent.convex_by_construction());
        assert!((0..=32).all(|x| bent.eval(x) > 0.0));
        assert!(bent.check_convex(32).is_err());
    }

    #[test]
    fn convexity_rejects_nan() {
        let t = Cost::table(vec![f64::NAN, 1.0, 2.0]);
        assert!(t.check_convex(2).is_err());
    }

    #[test]
    fn convexity_reads_one_state_of_a_table_tail() {
        // Past its end a table repeats its last entry: a rising table then
        // turns flat, which is concave.
        assert!(Cost::table(vec![0.0, 1.0, 2.0]).check_convex(9).is_err());
        Cost::table(vec![2.0, 1.0, 1.0]).check_convex(9).unwrap();
    }

    #[test]
    fn convexity_allows_infinite_prefix() {
        let t = Cost::table(vec![f64::INFINITY, f64::INFINITY, 1.0, 2.0]);
        t.check_convex(3).unwrap();
    }

    #[test]
    fn interpolate_at_integers_is_exact() {
        let q = Cost::quadratic(1.0, 1.5, 0.0);
        for x in 0..5u32 {
            assert_eq!(q.interpolate(x as f64), q.eval(x));
        }
        // Between integers, interpolation of a strictly convex function lies
        // above the analytic value.
        assert!(q.interpolate(1.5) > q.eval_analytic(1.5));
    }

    #[test]
    fn serde_round_trip() {
        let c = Cost::Padded {
            m_orig: 3,
            eps: 0.5,
            inner: Box::new(Cost::quadratic(1.0, 2.0, 0.0)),
        };
        let s = serde_json::to_string(&c).unwrap();
        let back: Cost = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }
}
