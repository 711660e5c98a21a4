//! Randomized rounding of fractional schedules (Section 4.1) and the
//! resulting 2-competitive randomized online algorithm.
//!
//! Given a fractional schedule `\bar X`, the rounding keeps the integral
//! state `x_t` in `{ floor(\bar x_t), ceil*(\bar x_t) }` where
//! `ceil*(x) = floor(x) + 1`, choosing transitions so that
//!
//! * `Pr[x_t = ceil*(\bar x_t)] = frac(\bar x_t)` (Lemma 18),
//! * the expected operating cost equals the fractional operating cost under
//!   the eq. 3 interpolation (Lemma 19),
//! * the expected switching cost equals the fractional switching cost
//!   (Lemma 20).
//!
//! Hence `E[cost] = cost(\bar X)`: feeding in a 2-competitive fractional
//! schedule yields a 2-competitive randomized integral algorithm
//! (Theorem 3), which is optimal (Theorem 8).

use crate::traits::{FractionalAlgorithm, OnlineAlgorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsdc_core::prelude::*;

/// `ceil*(x) = floor(x) + 1` — the paper's modified ceiling, which exceeds
/// `x` even at integers.
#[inline]
pub fn ceil_star(x: f64) -> f64 {
    x.floor() + 1.0
}

/// Online randomized rounding state machine (Section 4.1).
#[derive(Debug, Clone)]
pub struct Rounder<R: Rng> {
    rng: R,
    prev_frac: f64,
    prev_int: u32,
}

impl Rounder<StdRng> {
    /// Seeded rounder (deterministic runs for tests/benches).
    pub fn seeded(seed: u64) -> Self {
        Rounder {
            rng: StdRng::seed_from_u64(seed),
            prev_frac: 0.0,
            prev_int: 0,
        }
    }

    /// Capture the full rounder state — previous fractional/integral states
    /// plus the raw RNG state — so a restored rounder continues the exact
    /// random stream (streaming snapshot/restore).
    pub fn snapshot(&self) -> RounderSnapshot {
        RounderSnapshot {
            prev_frac: self.prev_frac,
            prev_int: self.prev_int,
            rng_state: self.rng.state().to_vec(),
        }
    }

    /// Rebuild from a [`Rounder::snapshot`].
    pub fn from_snapshot(s: &RounderSnapshot) -> Result<Self, rsdc_core::Error> {
        let state: [u64; 4] = s.rng_state.as_slice().try_into().map_err(|_| {
            rsdc_core::Error::InvalidParameter(format!(
                "rounder snapshot has {} RNG words, expected 4",
                s.rng_state.len()
            ))
        })?;
        Ok(Rounder {
            rng: StdRng::from_state(state),
            prev_frac: s.prev_frac,
            prev_int: s.prev_int,
        })
    }
}

/// Serializable state of a seeded [`Rounder`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RounderSnapshot {
    /// Previous fractional input.
    pub prev_frac: f64,
    /// Previous integral output.
    pub prev_int: u32,
    /// Raw xoshiro state words (always 4).
    pub rng_state: Vec<u64>,
}

impl<R: Rng> Rounder<R> {
    /// Rounder with an explicit RNG.
    pub fn with_rng(rng: R) -> Self {
        Rounder {
            rng,
            prev_frac: 0.0,
            prev_int: 0,
        }
    }

    /// Round the next fractional state to an integral one.
    pub fn round(&mut self, frac_state: f64) -> u32 {
        let xbar_t = frac_state.max(0.0);
        let lo = xbar_t.floor();
        let frac = xbar_t - lo;

        let next = if frac == 0.0 {
            // Integral target: Pr[upper] = frac = 0, so deterministic.
            lo as u32
        } else {
            let hi = lo + 1.0; // ceil*(xbar_t)
                               // Project the previous fractional state into [lo, hi].
            let xbar_prev_proj = self.prev_frac.clamp(lo, hi);
            let prev = self.prev_int as f64;
            if self.prev_frac <= xbar_t {
                // Increasing slot.
                if prev >= hi {
                    hi as u32
                } else {
                    // p_up = (xbar_t - xbar'_{t-1}) / (hi - xbar'_{t-1}).
                    let p_up = (xbar_t - xbar_prev_proj) / (hi - xbar_prev_proj);
                    if self.rng.gen_bool(p_up.clamp(0.0, 1.0)) {
                        hi as u32
                    } else {
                        lo as u32
                    }
                }
            } else {
                // Decreasing slot.
                if prev <= lo {
                    lo as u32
                } else {
                    // p_down = (xbar'_{t-1} - xbar_t) / (xbar'_{t-1} - lo).
                    let p_down = (xbar_prev_proj - xbar_t) / (xbar_prev_proj - lo);
                    if self.rng.gen_bool(p_down.clamp(0.0, 1.0)) {
                        lo as u32
                    } else {
                        hi as u32
                    }
                }
            }
        };

        self.prev_frac = xbar_t;
        self.prev_int = next;
        next
    }
}

/// Round an entire fractional schedule (offline use / experiments).
pub fn round_schedule<R: Rng>(rng: R, xs: &FracSchedule) -> Schedule {
    let mut r = Rounder::with_rng(rng);
    Schedule(xs.0.iter().map(|&x| r.round(x)).collect())
}

/// **Ablation only** — naive *independent* rounding: each slot goes up to
/// `ceil*` with probability `frac(x_t)` independently of the previous slot.
///
/// This preserves the per-slot marginals (so the expected *operating* cost
/// still equals the fractional one) but destroys the coupling Lemma 20
/// relies on: consecutive slots with the same fractional value flip
/// independently and pay switching cost the fractional schedule never
/// incurs. Experiment E15 quantifies the inflation; this is why the
/// paper's Section 4.1 transition rule exists.
pub fn round_schedule_independent<R: Rng>(mut rng: R, xs: &FracSchedule) -> Schedule {
    Schedule(
        xs.0.iter()
            .map(|&x| {
                let x = x.max(0.0);
                let lo = x.floor();
                let frac = x - lo;
                if frac > 0.0 && rng.gen_bool(frac.clamp(0.0, 1.0)) {
                    lo as u32 + 1
                } else {
                    lo as u32
                }
            })
            .collect(),
    )
}

/// The randomized online algorithm of Section 4: a fractional algorithm
/// (e.g. [`crate::fractional::HalfStep`] over the continuous extension)
/// composed with the randomized [`Rounder`].
pub struct RandomizedOnline<F: FractionalAlgorithm> {
    pub(crate) fractional: F,
    pub(crate) rounder: Rounder<StdRng>,
    m: u32,
}

impl<F: FractionalAlgorithm> RandomizedOnline<F> {
    /// Compose a fractional algorithm with a seeded rounder.
    pub fn new(fractional: F, m: u32, seed: u64) -> Self {
        Self {
            fractional,
            rounder: Rounder::seeded(seed),
            m,
        }
    }
}

impl<F: FractionalAlgorithm> OnlineAlgorithm for RandomizedOnline<F> {
    fn step(&mut self, f: &Cost) -> u32 {
        let frac = self.fractional.step(f);
        self.rounder.round(frac).min(self.m)
    }

    fn name(&self) -> String {
        format!("Randomized({})", self.fractional.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empirical distribution check for Lemma 18 on a fixed fractional
    /// trajectory.
    fn marginals(xs: &[f64], trials: usize) -> Vec<f64> {
        let mut up_counts = vec![0usize; xs.len()];
        for s in 0..trials {
            let mut r = Rounder::seeded(s as u64);
            for (t, &x) in xs.iter().enumerate() {
                let v = r.round(x);
                if (v as f64 - ceil_star(x)).abs() < 0.5 && x.fract() != 0.0 {
                    up_counts[t] += 1;
                }
            }
        }
        up_counts
            .iter()
            .map(|&c| c as f64 / trials as f64)
            .collect()
    }

    #[test]
    fn lemma18_marginal_probabilities() {
        let xs = [0.3, 0.7, 0.7, 0.2, 1.6, 1.4, 0.5];
        let got = marginals(&xs, 20_000);
        for (t, (&x, &p)) in xs.iter().zip(&got).enumerate() {
            let want = x.fract();
            assert!(
                (p - want).abs() < 0.02,
                "slot {t}: Pr[upper] = {p}, want frac = {want}"
            );
        }
    }

    #[test]
    fn integral_states_are_deterministic() {
        let mut r = Rounder::seeded(7);
        assert_eq!(r.round(0.0), 0);
        assert_eq!(r.round(3.0), 3);
        assert_eq!(r.round(1.0), 1);
    }

    #[test]
    fn rounded_state_brackets_fraction() {
        let mut r = Rounder::seeded(42);
        for &x in &[0.4, 1.2, 2.9, 2.1, 0.6, 0.0, 4.5] {
            let v = r.round(x) as f64;
            assert!(
                (v - x.floor()).abs() < 1e-9 || (v - ceil_star(x)).abs() < 1e-9,
                "rounded {v} not in {{floor, ceil*}} of {x}"
            );
        }
    }

    #[test]
    fn monotone_fractional_rounds_monotone() {
        // While xbar increases, the integral state never decreases (the
        // algorithm only keeps or raises within increasing slots).
        for seed in 0..50u64 {
            let mut r = Rounder::seeded(seed);
            let mut prev = 0u32;
            for &x in &[0.2, 0.5, 0.9, 1.3, 1.8, 2.4, 3.3] {
                let v = r.round(x);
                assert!(v >= prev, "seed {seed}: {v} < {prev}");
                prev = v;
            }
        }
    }

    #[test]
    fn lemma20_expected_switching_cost() {
        // E[(x_t - x_{t-1})^+] must equal (xbar_t - xbar_{t-1})^+ per slot.
        let xs = [0.3, 0.8, 0.8, 0.1, 1.7, 2.2, 0.9];
        let trials = 40_000;
        let mut total_up = 0.0;
        for s in 0..trials {
            let mut r = Rounder::seeded(s as u64);
            let mut prev = 0u32;
            for &x in &xs {
                let v = r.round(x);
                total_up += v.saturating_sub(prev) as f64;
                prev = v;
            }
        }
        let got = total_up / trials as f64;
        let want: f64 = {
            let mut prev = 0.0;
            let mut acc = 0.0;
            for &x in &xs {
                acc += (x - prev).max(0.0);
                prev = x;
            }
            acc
        };
        assert!(
            (got - want).abs() < 0.03,
            "E[switching] = {got}, fractional = {want}"
        );
    }

    #[test]
    fn lemma19_expected_operating_cost() {
        let inst = Instance::new(
            4,
            2.0,
            vec![
                Cost::quadratic(1.0, 2.0, 0.0),
                Cost::abs(3.0, 1.0),
                Cost::quadratic(0.5, 3.0, 0.2),
            ],
        )
        .unwrap();
        let frac = FracSchedule(vec![1.4, 1.1, 2.6]);
        let trials = 40_000;
        let mut acc = 0.0;
        for s in 0..trials {
            let rng = StdRng::seed_from_u64(s as u64);
            let xs = round_schedule(rng, &frac);
            acc += operating_cost(&inst, &xs);
        }
        let got = acc / trials as f64;
        let want = frac_operating_cost(&inst, &frac, FracMode::Interpolate);
        assert!(
            (got - want).abs() < 0.05 * (1.0 + want),
            "E[operating] = {got}, fractional = {want}"
        );
    }

    #[test]
    fn expected_total_cost_matches_fractional() {
        // The headline identity E[C(X)] = C(\bar X) behind Theorem 3.
        let inst = Instance::new(
            3,
            1.5,
            vec![
                Cost::abs(2.0, 2.0),
                Cost::abs(1.0, 0.0),
                Cost::abs(3.0, 3.0),
                Cost::abs(0.5, 1.0),
            ],
        )
        .unwrap();
        let frac = FracSchedule(vec![1.7, 0.6, 2.3, 1.2]);
        let trials = 60_000;
        let mut acc = 0.0;
        for s in 0..trials {
            let rng = StdRng::seed_from_u64(s as u64);
            let xs = round_schedule(rng, &frac);
            acc += cost(&inst, &xs);
        }
        let got = acc / trials as f64;
        let want = frac_cost(&inst, &frac, FracMode::Interpolate);
        assert!(
            (got - want).abs() < 0.05 * (1.0 + want),
            "E[C] = {got} vs fractional {want}"
        );
    }

    #[test]
    fn independent_rounding_preserves_marginals_but_inflates_switching() {
        // A constant fractional schedule at 0.5: coupled rounding never
        // switches after the first slot; independent rounding flips a coin
        // per slot and pays ~T/4 expected power-ups.
        let xs = FracSchedule(vec![0.5; 200]);
        let trials = 2000;
        let (mut coupled_up, mut indep_up) = (0.0f64, 0.0f64);
        for s in 0..trials {
            let a = round_schedule(StdRng::seed_from_u64(s), &xs);
            let b = round_schedule_independent(StdRng::seed_from_u64(s), &xs);
            let ups = |sch: &Schedule| {
                let mut prev = 0u32;
                let mut acc = 0u64;
                for &x in &sch.0 {
                    acc += x.saturating_sub(prev) as u64;
                    prev = x;
                }
                acc as f64
            };
            coupled_up += ups(&a);
            indep_up += ups(&b);
        }
        coupled_up /= trials as f64;
        indep_up /= trials as f64;
        // Coupled: exactly the fractional power-up total, 0.5.
        assert!((coupled_up - 0.5).abs() < 0.05, "coupled {coupled_up}");
        // Independent: ~ T/4 = 50.
        assert!(indep_up > 30.0, "independent {indep_up} should thrash");
    }

    #[test]
    fn a_reached_minimizer_is_committed_without_a_draw() {
        // Under eq. 3 the minimizer is an integer, so a fractional state
        // that reaches it is integral and the rounder commits it without
        // a draw (the integral case of Lemma 18).
        use crate::fractional::{EvalMode, HalfStep, MemorylessBalance};
        let f = Cost::Server {
            lambda: 6.3,
            params: ServerParams::default(),
            overload: 50.0,
        };
        let target = f.argmin_low(16);
        let mode = EvalMode::Interpolate;
        let mut half = RandomizedOnline::new(HalfStep::new(16, 2.0, mode), 16, 5);
        let rng = half.rounder.snapshot().rng_state;
        assert_eq!(half.step(&f), target);
        assert_eq!(half.fractional.state(), target as f64);
        assert_eq!(half.rounder.snapshot().rng_state, rng);
        let mut memo = RandomizedOnline::new(MemorylessBalance::new(16, 2.0, mode), 16, 5);
        assert_eq!(memo.step(&f), target);
        assert_eq!(memo.fractional.state(), target as f64);
        assert_eq!(memo.rounder.snapshot().rng_state, rng);
    }

    #[test]
    fn composed_online_algorithm_is_feasible() {
        use crate::fractional::{EvalMode, HalfStep};
        use crate::traits::run;
        let inst = Instance::new(
            4,
            2.0,
            (0..20)
                .map(|t| Cost::abs(0.5, (t % 5) as f64))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let frac = HalfStep::new(4, 2.0, EvalMode::Interpolate);
        let mut algo = RandomizedOnline::new(frac, 4, 123);
        let xs = run(&mut algo, &inst);
        assert!(xs.is_feasible(&inst));
    }
}
