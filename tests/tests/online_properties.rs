//! Property tests for the online algorithms (Sections 3 and 4).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsdc_core::prelude::*;
use rsdc_online::bounds::BoundTracker;
use rsdc_online::fractional::{EvalMode, HalfStep, MemorylessBalance};
use rsdc_online::lcp::Lcp;
use rsdc_online::randomized::{ceil_star, round_schedule, RandomizedOnline};
use rsdc_online::traits::{competitive_ratio, run, run_frac};
use rsdc_tests::instance;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2 as a property: LCP is never worse than 3x optimal.
    #[test]
    fn lcp_is_three_competitive(inst in instance(1..=8, 0..=30)) {
        let mut lcp = Lcp::new(inst.m(), inst.beta());
        let xs = run(&mut lcp, &inst);
        let (alg, opt, ratio) = competitive_ratio(&inst, &xs);
        prop_assert!(
            ratio <= 3.0 + 1e-9,
            "ratio {ratio} (alg {alg}, opt {opt}) on {inst:?}"
        );
    }

    /// Lemma 6 consequence: LCP's state always lies within [x^L, x^U].
    #[test]
    fn lcp_respects_bounds(inst in instance(1..=8, 1..=20)) {
        let mut lcp = Lcp::new(inst.m(), inst.beta());
        for t in 1..=inst.horizon() {
            let x = rsdc_online::traits::OnlineAlgorithm::step(&mut lcp, inst.cost_fn(t));
            prop_assert!(lcp.tracker().x_low() <= x);
            prop_assert!(x <= lcp.tracker().x_up());
        }
    }

    /// Lemmas 8 and 9 hold along arbitrary convex sequences (Lemma 7 is
    /// checked against the two-DP recursion in `bound_tracker_oracle`).
    #[test]
    fn bound_tracker_lemmas(inst in instance(1..=10, 1..=20)) {
        let mut tr = BoundTracker::new(inst.m(), inst.beta());
        for t in 1..=inst.horizon() {
            tr.step(inst.cost_fn(t));
            if let Err(e) = tr.check_lemmas() {
                prop_assert!(false, "step {t}: {e}");
            }
            prop_assert!(tr.x_low() <= tr.x_up());
        }
    }

    /// The truncated-optimum interpretation of the bounds: min_x C^L_tau(x)
    /// equals the offline optimum of the prefix instance.
    #[test]
    fn c_low_min_is_prefix_optimum(inst in instance(1..=6, 1..=12)) {
        let mut tr = BoundTracker::new(inst.m(), inst.beta());
        for t in 1..=inst.horizon() {
            tr.step(inst.cost_fn(t));
            let prefix_opt = rsdc_offline::dp::solve_cost_only(&inst.prefix(t));
            let min_cl = (0..=inst.m()).map(|x| tr.c_low(x)).fold(f64::INFINITY, f64::min);
            prop_assert!(
                (prefix_opt - min_cl).abs() <= 1e-8 * (1.0 + prefix_opt.abs()),
                "tau {t}: prefix opt {prefix_opt} vs min C^L {min_cl}"
            );
        }
    }

    /// Rounded states always bracket the fractional state.
    #[test]
    fn rounding_brackets(xs in proptest::collection::vec(0.0f64..6.0, 0..24), seed in 0u64..1000) {
        let frac = FracSchedule(xs.clone());
        let rng = StdRng::seed_from_u64(seed);
        let rounded = round_schedule(rng, &frac);
        for (&x, &v) in xs.iter().zip(&rounded.0) {
            let v = v as f64;
            prop_assert!(
                (v - x.floor()).abs() < 1e-9 || (v - ceil_star(x)).abs() < 1e-9,
                "{v} not bracketing {x}"
            );
        }
    }

    /// The composed randomized online algorithm emits feasible schedules
    /// and (empirically, single run) stays below 3x optimal — its expected
    /// guarantee is 2, single runs may fluctuate above 2 but feasibility
    /// and sanity must always hold.
    #[test]
    fn randomized_online_feasible(inst in instance(1..=6, 0..=20), seed in 0u64..50) {
        let frac = HalfStep::new(inst.m(), inst.beta(), EvalMode::Interpolate);
        let mut algo = RandomizedOnline::new(frac, inst.m(), seed);
        let xs = run(&mut algo, &inst);
        prop_assert!(xs.is_feasible(&inst));
        let c = cost(&inst, &xs);
        prop_assert!(c.is_finite() && c >= 0.0);
    }

    /// Fractional algorithms stay within [0, m] and never increase their
    /// distance to a *stationary* minimizer once reached.
    #[test]
    fn fractional_algorithms_stay_in_range(inst in instance(1..=6, 0..=20)) {
        let mut hs = HalfStep::new(inst.m(), inst.beta(), EvalMode::Interpolate);
        let xs = run_frac(&mut hs, &inst);
        for &x in &xs.0 {
            prop_assert!((0.0..=inst.m() as f64).contains(&x));
        }
        let mut mb = MemorylessBalance::new(inst.m(), inst.beta(), EvalMode::Interpolate);
        let ys = run_frac(&mut mb, &inst);
        for &y in &ys.0 {
            prop_assert!((0.0..=inst.m() as f64).contains(&y));
        }
    }
}

/// Lemma 18 as a statistical test on a fixed pipeline (kept out of
/// proptest: it needs many trials per target).
#[test]
fn rounding_marginals_match_fraction() {
    let xs = FracSchedule(vec![0.25, 0.75, 1.5, 1.25, 0.5]);
    let trials = 20_000;
    let mut ups = vec![0usize; xs.len()];
    for s in 0..trials {
        let rng = StdRng::seed_from_u64(s as u64);
        let r = round_schedule(rng, &xs);
        for (i, (&v, &x)) in r.0.iter().zip(&xs.0).enumerate() {
            if (v as f64 - ceil_star(x)).abs() < 0.5 {
                ups[i] += 1;
            }
        }
    }
    for (i, (&u, &x)) in ups.iter().zip(&xs.0).enumerate() {
        let p = u as f64 / trials as f64;
        assert!(
            (p - x.fract()).abs() < 0.015,
            "slot {i}: Pr[upper] = {p}, want {}",
            x.fract()
        );
    }
}

/// End-to-end Theorem 3 check on a fixed workload: expected cost within
/// noise of the fractional cost, hence within 2x of OPT whenever the
/// fractional schedule is.
#[test]
fn expected_cost_equals_fractional_cost() {
    let costs: Vec<Cost> = (0..30)
        .map(|t| Cost::abs(1.0, 2.0 + 1.8 * ((t as f64) * 0.7).sin()))
        .collect();
    let inst = Instance::new(5, 2.0, costs).unwrap();
    let mut frac_alg = HalfStep::new(5, 2.0, EvalMode::Interpolate);
    let fx = run_frac(&mut frac_alg, &inst);
    let fc = frac_cost(&inst, &fx, FracMode::Interpolate);

    let trials = 20_000;
    let mut acc = 0.0;
    for s in 0..trials {
        let rng = StdRng::seed_from_u64(s as u64);
        let xs = round_schedule(rng, &fx);
        acc += cost(&inst, &xs);
    }
    let expected = acc / trials as f64;
    assert!(
        (expected - fc).abs() < 0.02 * (1.0 + fc),
        "E[C] = {expected} vs fractional {fc}"
    );
}
