//! Fractional (continuous-setting) online algorithms.
//!
//! The randomized 2-competitive algorithm of Section 4 needs, as its first
//! stage, a 2-competitive *fractional* schedule for the continuous extension
//! of the instance. The paper obtains one from Bansal et al. \[7\] by
//! reference, without restating that algorithm. We implement:
//!
//! * [`HalfStep`] — the half-subgradient rule: move toward the minimizer of
//!   `f_t` by `(average slope)/beta`, never past the minimizer. On the
//!   two-point workloads (`phi_0`, `phi_1`, `beta = 2`) this moves by
//!   exactly `eps/2`, i.e. it *is* the reference algorithm `B` of
//!   Section 5.2.1, which the paper states is "equivalent to the algorithm
//!   of Bansal et al. for the special case". Its competitiveness on general
//!   workloads is measured empirically (experiment E6).
//! * [`MemorylessBalance`] — the memoryless algorithm of Bansal et al.:
//!   move toward the minimizer until the *movement* cost of this step
//!   equals the *hitting* cost at the stopping point (3-competitive in the
//!   continuous setting; best possible for memoryless algorithms).
//! * [`Obd`] — Online Balanced Descent (Chen et al.), included as a
//!   related-work baseline: move toward the minimizer until the hitting
//!   cost at the stopping point equals `gamma *` movement cost.
//!
//! All three treat the movement cost as `beta/2` per unit in each direction
//! (the Section 5 convention, equal in total to eq. 1 for closed
//! schedules), evaluate costs in a chosen [`FracMode`], and keep states in
//! `[0, m]`.
//!
//! Each step first finds the minimizer of `f_t`. Under
//! [`EvalMode::Interpolate`] the eq. 3 extension is linear between
//! integers, so a convex cost is minimized at an integer vertex: a
//! bisection on the sign of `f(i+1) - f(i)` returns the smallest integer
//! minimizer in `ceil(log2(m + 1))` rounds of two integer reads, and an
//! infinite prefix (states that cannot serve the load) counts as
//! descending. [`EvalMode::Analytic`] costs need not bend at integers and
//! keep a ternary search.

use crate::traits::FractionalAlgorithm;
use rsdc_core::cost::interpolate_integers;
use rsdc_core::prelude::*;

/// How a fractional algorithm reads the arriving cost function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Use the analytic formula (native continuous instances, Section 5).
    Analytic,
    /// Use the eq. 3 interpolation (continuous extension of a discrete
    /// instance, Section 4).
    Interpolate,
}

impl EvalMode {
    #[cfg(test)]
    fn eval(self, f: &Cost, x: f64) -> f64 {
        match self {
            EvalMode::Analytic => f.eval_analytic(x),
            EvalMode::Interpolate => f.interpolate(x),
        }
    }
}

/// One cost read in one [`EvalMode`] during one step. `Interpolate`
/// memoises the integer values it reads: the step reads the minimizer
/// again after the search, and once the balance bisection's bracket is
/// narrower than 2, every read lands on the same two or three integers.
/// Each read is bit-identical to [`Cost::interpolate`].
struct Reader<'a> {
    mode: EvalMode,
    f: &'a Cost,
    /// The last integer reads, `(state, f(state))`, replaced round-robin.
    memo: [(u32, f64); 4],
    filled: usize,
    next: usize,
}

impl<'a> Reader<'a> {
    fn new(mode: EvalMode, f: &'a Cost) -> Self {
        Reader {
            mode,
            f,
            memo: [(0, 0.0); 4],
            filled: 0,
            next: 0,
        }
    }

    fn eval(&mut self, x: f64) -> f64 {
        match self.mode {
            EvalMode::Analytic => self.f.eval_analytic(x),
            EvalMode::Interpolate => interpolate_integers(x, |i| self.integer(i)),
        }
    }

    fn integer(&mut self, x: u32) -> f64 {
        if let Some(&(_, v)) = self.memo[..self.filled].iter().find(|e| e.0 == x) {
            return v;
        }
        let v = self.f.eval(x);
        self.memo[self.next] = (x, v);
        self.next = (self.next + 1) % self.memo.len();
        self.filled = (self.filled + 1).min(self.memo.len());
        v
    }

    /// Minimizer of the convex function over `[0, m]`: under
    /// `Interpolate` the exact integer [`integer_argmin`] finds, under
    /// `Analytic` the [`ternary_argmin`] point.
    fn argmin(&mut self, m: u32) -> f64 {
        match self.mode {
            EvalMode::Analytic => ternary_argmin(|x| self.f.eval_analytic(x), m as f64, true),
            EvalMode::Interpolate => integer_argmin(m, |i| self.integer(i)) as f64,
        }
    }
}

/// Smallest minimizer of the convex integer values `int(0..=m)`: the first
/// `i < m` with a finite `int(i) <= int(i + 1)`, or `m` if there is none,
/// found by bisection in `ceil(log2(m + 1))` rounds of two reads. An
/// infinite `int(i)` counts as descending, so an infinite prefix (states
/// that cannot serve the load) leads the search to the first finite state.
fn integer_argmin(m: u32, mut int: impl FnMut(u32) -> f64) -> u32 {
    let (mut lo, mut hi) = (0, m);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let here = int(mid);
        if here.is_finite() && int(mid + 1) >= here {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// At most this many iterations for the ternary and bisection searches of
/// real states.
const SEARCH_ITERS: usize = 200;

/// Shrink `bracket` by `step` [`SEARCH_ITERS`] times and return it.
///
/// With `stop_at_fixed_point`, the loop ends as soon as a step leaves the
/// bracket bit-for-bit unchanged: every later step would see the same
/// bracket and return it again, so the result is bit-identical to running
/// all iterations.
fn narrow(
    mut bracket: (f64, f64),
    stop_at_fixed_point: bool,
    mut step: impl FnMut(f64, f64) -> (f64, f64),
) -> (f64, f64) {
    for _ in 0..SEARCH_ITERS {
        let next = step(bracket.0, bracket.1);
        let fixed =
            next.0.to_bits() == bracket.0.to_bits() && next.1.to_bits() == bracket.1.to_bits();
        bracket = next;
        if stop_at_fixed_point && fixed {
            break;
        }
    }
    bracket
}

/// The midpoint of a search's final `bracket`, or its upper end where
/// `eval` is infinite at the midpoint. Both searches keep the upper end
/// finite, so a bracket that closes on the edge of an infinite prefix
/// (states that cannot serve the load) answers a state that can.
fn settle((lo, hi): (f64, f64), mut eval: impl FnMut(f64) -> f64) -> f64 {
    let mid = 0.5 * (lo + hi);
    if eval(mid).is_finite() {
        mid
    } else {
        hi
    }
}

/// Ternary search for the minimizer of a convex `eval` over `[0, m]`: the
/// [`EvalMode::Analytic`] search, and the oracle the integer search is
/// tested against. (On `Server` costs at m = 1024 the bracket reaches its
/// fixed point after about 91 of the [`SEARCH_ITERS`] steps.) As in
/// [`integer_argmin`], an infinite `eval(a)` counts as descending.
fn ternary_argmin(mut eval: impl FnMut(f64) -> f64, m: f64, stop_at_fixed_point: bool) -> f64 {
    let bracket = narrow((0.0, m), stop_at_fixed_point, |lo, hi| {
        let a = lo + (hi - lo) / 3.0;
        let b = hi - (hi - lo) / 3.0;
        let at_a = eval(a);
        if at_a.is_finite() && at_a <= eval(b) {
            (lo, b)
        } else {
            (a, hi)
        }
    });
    settle(bracket, eval)
}

/// Bisection for the sign change of `h` between `lo` (where `h > 0`) and
/// `hi`.
fn bisect(mut h: impl FnMut(f64) -> f64, lo: f64, hi: f64, stop_at_fixed_point: bool) -> f64 {
    let bracket = narrow((lo, hi), stop_at_fixed_point, |lo, hi| {
        let mid = 0.5 * (lo + hi);
        if h(mid) > 0.0 {
            (mid, hi)
        } else {
            (lo, mid)
        }
    });
    settle(bracket, h)
}

/// The half-subgradient fractional algorithm (see module docs).
#[derive(Debug, Clone)]
pub struct HalfStep {
    m: f64,
    beta: f64,
    mode: EvalMode,
    state: f64,
}

impl HalfStep {
    /// New tracker over `[0, m]` with power-up cost `beta`.
    pub fn new(m: u32, beta: f64, mode: EvalMode) -> Self {
        Self {
            m: m as f64,
            beta,
            mode,
            state: 0.0,
        }
    }

    /// Current fractional state.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Overwrite the current state (snapshot restore); clamped to `[0, m]`.
    pub fn set_state(&mut self, state: f64) {
        self.state = state.clamp(0.0, self.m);
    }
}

impl FractionalAlgorithm for HalfStep {
    fn step(&mut self, f: &Cost) -> f64 {
        let mut reader = Reader::new(self.mode, f);
        let target = reader.argmin(self.m as u32);
        let dist = (target - self.state).abs();
        if dist > 1e-15 {
            // Average slope of f between the current state and the
            // minimizer; for phi-shaped functions this is the slope.
            let drop = (reader.eval(self.state) - reader.eval(target)).max(0.0);
            let avg_slope = drop / dist;
            // Move by slope / beta, never past the minimizer. With the
            // symmetric convention (beta/2 per direction) this is the
            // "eps/2 per step at beta = 2" rule of algorithm B.
            let step = (avg_slope / self.beta).min(dist);
            self.state += step * (target - self.state).signum();
            self.state = self.state.clamp(0.0, self.m);
        }
        self.state
    }

    fn name(&self) -> String {
        "HalfStep(Bansal-style)".into()
    }
}

/// The memoryless "balance" algorithm of Bansal et al.: moves toward the
/// minimizer of `f_t`, stopping where this step's movement cost equals the
/// hitting cost at the stopping point (or at the minimizer if its hitting
/// cost still exceeds the movement).
#[derive(Debug, Clone)]
pub struct MemorylessBalance {
    m: f64,
    beta: f64,
    mode: EvalMode,
    state: f64,
}

impl MemorylessBalance {
    /// New tracker over `[0, m]` with power-up cost `beta`.
    pub fn new(m: u32, beta: f64, mode: EvalMode) -> Self {
        Self {
            m: m as f64,
            beta,
            mode,
            state: 0.0,
        }
    }

    /// Current fractional state.
    pub fn state(&self) -> f64 {
        self.state
    }

    /// Overwrite the current state (snapshot restore); clamped to `[0, m]`.
    pub fn set_state(&mut self, state: f64) {
        self.state = state.clamp(0.0, self.m);
    }
}

impl FractionalAlgorithm for MemorylessBalance {
    fn step(&mut self, f: &Cost) -> f64 {
        self.state = balance_point(self.mode, f, self.state, self.m, self.beta / 2.0, 1.0);
        self.state
    }

    fn name(&self) -> String {
        "MemorylessBalance".into()
    }
}

/// Online Balanced Descent with balance parameter `gamma`: stop where the
/// hitting cost equals `gamma * movement cost`. `gamma = 1` recovers
/// [`MemorylessBalance`].
#[derive(Debug, Clone)]
pub struct Obd {
    m: f64,
    beta: f64,
    gamma: f64,
    mode: EvalMode,
    state: f64,
}

impl Obd {
    /// New tracker; `gamma > 0`.
    pub fn new(m: u32, beta: f64, gamma: f64, mode: EvalMode) -> Self {
        assert!(gamma > 0.0);
        Self {
            m: m as f64,
            beta,
            gamma,
            mode,
            state: 0.0,
        }
    }
}

impl FractionalAlgorithm for Obd {
    fn step(&mut self, f: &Cost) -> f64 {
        self.state = balance_point(
            self.mode,
            f,
            self.state,
            self.m,
            self.beta / 2.0,
            self.gamma,
        );
        self.state
    }

    fn name(&self) -> String {
        format!("OBD(gamma={})", self.gamma)
    }
}

/// Find the point `x` on the segment from `from` toward the minimizer of
/// `f` where `f(x) = gamma * move_rate * |x - from|`, or the minimizer if
/// the hitting cost never drops that low. Bisection on the convex
/// difference.
fn balance_point(mode: EvalMode, f: &Cost, from: f64, m: f64, move_rate: f64, gamma: f64) -> f64 {
    let mut reader = Reader::new(mode, f);
    let target = reader.argmin(m as u32);
    let mut h = |x: f64| reader.eval(x) - gamma * move_rate * (x - from).abs();
    if h(from) <= 0.0 {
        // Already cheap enough: don't move.
        return from;
    }
    if h(target) >= 0.0 {
        // Even at the minimizer the hitting cost dominates: go there.
        return target;
    }
    // h changes sign on [from, target]; h is continuous.
    bisect(h, from, target, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::run_frac;

    #[test]
    fn halfstep_matches_algorithm_b_on_phi_functions() {
        // Section 5.2.1: with beta = 2 and functions eps*|x|, eps*|1-x|,
        // algorithm B moves by exactly eps/2 toward the minimizer.
        let eps = 0.25;
        let mut b = HalfStep::new(1, 2.0, EvalMode::Analytic);
        let x1 = b.step(&Cost::phi1(eps));
        assert!((x1 - eps / 2.0).abs() < 1e-9, "x1 = {x1}");
        let x2 = b.step(&Cost::phi1(eps));
        assert!((x2 - eps).abs() < 1e-9);
        let x3 = b.step(&Cost::phi0(eps));
        assert!((x3 - eps / 2.0).abs() < 1e-9);
    }

    #[test]
    fn halfstep_clamps_at_minimizer() {
        // A huge function should pull the state all the way to its
        // minimizer, not overshoot.
        let mut b = HalfStep::new(10, 1.0, EvalMode::Analytic);
        let x = b.step(&Cost::abs(1000.0, 7.0));
        assert!((x - 7.0).abs() < 1e-6);
    }

    #[test]
    fn halfstep_saturates_at_bounds() {
        let mut b = HalfStep::new(1, 2.0, EvalMode::Analytic);
        for _ in 0..100 {
            b.step(&Cost::phi1(0.5));
        }
        assert!(b.state() <= 1.0 + 1e-12);
        assert!((b.state() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memoryless_balances_hitting_and_movement() {
        // f = 4*|x - 5|, from 0, move rate beta/2 = 1, gamma = 1:
        // balance point x with 4*(5-x) = x -> x = 4.
        let mut a = MemorylessBalance::new(10, 2.0, EvalMode::Analytic);
        let x = a.step(&Cost::abs(4.0, 5.0));
        assert!((x - 4.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn memoryless_does_not_move_when_cheap() {
        let mut a = MemorylessBalance::new(10, 2.0, EvalMode::Analytic);
        a.step(&Cost::abs(4.0, 5.0));
        let before = a.state;
        // Zero function: staying is optimal.
        let x = a.step(&Cost::Zero);
        assert_eq!(x, before);
    }

    #[test]
    fn obd_gamma_interpolates() {
        // Larger gamma stops farther from the minimizer (hitting cost must
        // equal a larger multiple of movement).
        let f = Cost::abs(4.0, 5.0);
        let mut a1 = Obd::new(10, 2.0, 1.0, EvalMode::Analytic);
        let mut a4 = Obd::new(10, 2.0, 4.0, EvalMode::Analytic);
        let x1 = a1.step(&f);
        let x4 = a4.step(&f);
        assert!(x4 < x1, "gamma=4 stops earlier: {x4} vs {x1}");
    }

    #[test]
    fn interpolate_mode_sees_piecewise_costs() {
        // Table cost minimized at state 2; interpolation must find it.
        let f = Cost::table(vec![9.0, 4.0, 0.0, 4.0, 9.0]);
        let mut b = HalfStep::new(4, 0.5, EvalMode::Interpolate);
        let x = b.step(&f);
        assert!(x > 0.0 && x <= 2.0 + 1e-9);
    }

    /// Random convex costs over `[0, m]`, `m <= max_m`, for the search
    /// tests: every shape the streaming policies meet, including `Server`
    /// and `Table` costs.
    fn random_costs(n: usize, max_m: u32) -> Vec<(Cost, u32)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        (0..n)
            .map(|i| {
                let m = rng.gen_range(1..=max_m);
                let mf = m as f64;
                let c = rng.gen_range(0.0..mf);
                let f = match i % 5 {
                    0 => Cost::abs(rng.gen_range(0.01..5.0), c),
                    1 => Cost::quadratic(rng.gen_range(0.01..2.0), c, rng.gen_range(0.0..1.0)),
                    2 => Cost::Hinge {
                        knee: c,
                        left_slope: rng.gen_range(0.0..4.0),
                        right_slope: rng.gen_range(0.0..4.0),
                    },
                    3 => Cost::Server {
                        lambda: c,
                        params: ServerParams::default(),
                        overload: rng.gen_range(0.0..50.0),
                    },
                    _ => {
                        let mut slopes: Vec<f64> =
                            (0..m).map(|_| rng.gen_range(-4.0..4.0)).collect();
                        slopes.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        let mut v = vec![rng.gen_range(0.0..3.0)];
                        for s in slopes {
                            v.push((v.last().unwrap() + s).max(0.0));
                        }
                        Cost::table(v)
                    }
                };
                (f, m)
            })
            .collect()
    }

    #[test]
    fn ternary_fixed_point_stop_is_bit_identical() {
        for (f, m) in random_costs(400, 64) {
            for mode in [EvalMode::Analytic, EvalMode::Interpolate] {
                let eval = |x: f64| mode.eval(&f, x);
                let early = ternary_argmin(eval, m as f64, true);
                let full = ternary_argmin(eval, m as f64, false);
                assert_eq!(early.to_bits(), full.to_bits(), "{f:?} m={m} {mode:?}");
            }
        }
    }

    #[test]
    fn memoryless_fixed_point_stop_is_bit_identical() {
        for (i, (f, m)) in random_costs(400, 64).into_iter().enumerate() {
            let mode = EvalMode::Interpolate;
            let mf = m as f64;
            let target = Reader::new(mode, &f).argmin(m);
            for from in [0.0, mf, mf * (i % 7) as f64 / 7.0] {
                // The balance of `balance_point` at move rate 1 and gamma 1.
                let h = |x: f64| mode.eval(&f, x) - (x - from).abs();
                let early = bisect(h, from, target, true);
                let full = bisect(h, from, target, false);
                assert_eq!(early.to_bits(), full.to_bits(), "{f:?} m={m} from={from}");
            }
        }
    }

    #[test]
    fn memoised_searches_are_bit_identical() {
        for (i, (f, m)) in random_costs(400, 64).into_iter().enumerate() {
            let mf = m as f64;
            for mode in [EvalMode::Analytic, EvalMode::Interpolate] {
                let mut reader = Reader::new(mode, &f);
                let plain = match mode {
                    EvalMode::Analytic => ternary_argmin(|x| mode.eval(&f, x), mf, true),
                    EvalMode::Interpolate => integer_argmin(m, |x| f.eval(x)) as f64,
                };
                let target = reader.argmin(m);
                assert_eq!(plain.to_bits(), target.to_bits(), "{f:?} m={m} {mode:?}");
                for from in [0.0, mf, mf * (i % 7) as f64 / 7.0] {
                    let plain = bisect(|x| mode.eval(&f, x) - (x - from).abs(), from, target, true);
                    let memo = bisect(|x| reader.eval(x) - (x - from).abs(), from, target, true);
                    assert_eq!(plain.to_bits(), memo.to_bits(), "{f:?} m={m} from={from}");
                }
            }
        }
    }

    /// The `Interpolate` search on `f` over `0..=m` against a full scan
    /// and against the ternary search it replaced.
    fn check_integer_search(f: &Cost, m: u32) {
        let target = Reader::new(EvalMode::Interpolate, f).argmin(m);
        assert_eq!(target.fract(), 0.0, "{f:?} m={m}");
        let min = (0..=m).map(|x| f.eval(x)).fold(f64::INFINITY, f64::min);
        let at = f.eval(target as u32);
        assert!(
            at - min <= 1e-12 * min.abs(),
            "{f:?} m={m}: f({target}) = {at} > {min}"
        );
        // These shapes' integer values are exactly convex.
        if matches!(f, Cost::Abs { .. } | Cost::Hinge { .. } | Cost::Table(_)) {
            assert_eq!(target as u32, f.argmin_low(m), "{f:?} m={m}");
        }
        let ternary = ternary_argmin(|x| f.interpolate(x), m as f64, true);
        assert!(
            (target - ternary).abs() <= 1e-9 * m as f64,
            "{f:?} m={m}: {target} vs ternary {ternary}"
        );
    }

    #[test]
    fn integer_search_finds_the_smallest_minimizer() {
        for (f, m) in random_costs(400, 64) {
            check_integer_search(&f, m);
        }
    }

    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn integer_search_finds_the_smallest_minimizer_up_to_the_largest_fleet() {
        // 65 536 is the engine's largest tenant fleet (`MAX_M`).
        for (f, m) in random_costs(400, 65_536) {
            check_integer_search(&f, m);
        }
    }

    #[test]
    fn integer_search_steps_over_an_infinite_prefix() {
        // A load cost is infinite below its load; the first state that
        // serves it is the minimizer, which both policies reach in one
        // step.
        for (lambda, m) in [(12.0, 16), (900.0, 1024), (16.0, 16), (0.5, 4)] {
            let f = Cost::load(
                lambda,
                Unit::Affine {
                    base: 1.0,
                    slope: 1.0,
                },
            );
            let want = f64::ceil(lambda);
            assert_eq!(Reader::new(EvalMode::Interpolate, &f).argmin(m), want);
            let mut b = HalfStep::new(m, 2.0, EvalMode::Interpolate);
            assert_eq!(b.step(&f), want, "lambda {lambda} m={m}");
            let mut a = MemorylessBalance::new(m, 2.0, EvalMode::Interpolate);
            assert_eq!(a.step(&f), want, "lambda {lambda} m={m}");
            // The analytic cost is finite from `lambda - 1e-12` up, and
            // increasing there: each policy lands on a state that serves
            // the load, at a finite cost, within that tolerance of it.
            for beta in [2.0, 100.0] {
                let mut b = HalfStep::new(m, beta, EvalMode::Analytic);
                let mut a = MemorylessBalance::new(m, beta, EvalMode::Analytic);
                for x in [b.step(&f), a.step(&f)] {
                    let cost = f.eval_analytic(x);
                    assert!(
                        x + 1e-12 >= lambda && x <= lambda + 1e-9 && cost.is_finite(),
                        "lambda {lambda} m={m} beta {beta}: f({x}) = {cost}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_frac_produces_feasible_schedule() {
        let inst = Instance::new(
            4,
            2.0,
            vec![Cost::phi1(0.3), Cost::phi0(0.3), Cost::phi1(0.3)],
        )
        .unwrap();
        let mut b = HalfStep::new(4, 2.0, EvalMode::Analytic);
        let xs = run_frac(&mut b, &inst);
        assert_eq!(xs.len(), 3);
        assert!(xs.0.iter().all(|&x| (0.0..=4.0).contains(&x)));
    }
}
