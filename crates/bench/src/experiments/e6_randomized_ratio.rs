//! E6 — Theorem 3: the randomized algorithm is 2-competitive in
//! expectation, because randomized rounding preserves the fractional cost
//! (Lemmas 18–20).
//!
//! Two measurements per workload:
//! 1. the fractional (HalfStep) schedule's ratio against OPT — the input
//!    guarantee the rounding inherits;
//! 2. the Monte-Carlo expected cost of the rounded schedule divided by the
//!    fractional cost — must be ~1.0 (the Section 4 identity
//!    `E[C(X)] = C(\bar X)`).

use crate::report::{fmt, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use rsdc_core::prelude::*;
use rsdc_online::fractional::{EvalMode, HalfStep};
use rsdc_online::randomized::round_schedule;
use rsdc_online::traits::run_frac;
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::fleet_size;
use rsdc_workloads::traces::standard_corpus;

/// Run the experiment.
pub fn run() -> Report {
    run_sized(1000)
}

/// Run with a chosen Monte-Carlo trial count.
pub fn run_sized(trials: usize) -> Report {
    let mut rep = Report::new(
        "E6",
        "randomized rounding preserves cost; randomized algorithm near 2-competitive",
        "Theorem 3 via Lemmas 18-20: E[C(X)] = C(fractional); with a 2-competitive fractional \
         schedule the rounded algorithm is 2-competitive",
        &["workload", "frac/OPT", "E[C]/frac", "E[C]/OPT"],
    );

    let mut worst_preservation_err: f64 = 0.0;
    let mut worst_expected_ratio: f64 = 0.0;

    for trace in standard_corpus(400, 77) {
        let model = CostModel::default();
        let m = fleet_size(&trace, 0.8);
        let inst = model.instance(m, &trace);

        // Stage 1: fractional schedule over the continuous extension.
        let mut frac_alg = HalfStep::new(m, model.beta, EvalMode::Interpolate);
        let fx = run_frac(&mut frac_alg, &inst);
        let frac_c = frac_cost(&inst, &fx, FracMode::Interpolate);
        let opt = rsdc_offline::dp::solve_cost_only(&inst);

        // Stage 2: Monte-Carlo rounding.
        let total: f64 = (0..trials)
            .into_par_iter()
            .map(|s| {
                let rng = StdRng::seed_from_u64(s as u64);
                let xs = round_schedule(rng, &fx);
                cost(&inst, &xs)
            })
            .sum();
        let expected = total / trials as f64;

        let frac_ratio = frac_c / opt;
        let preservation = expected / frac_c;
        let exp_ratio = expected / opt;
        worst_preservation_err = worst_preservation_err.max((preservation - 1.0).abs());
        worst_expected_ratio = worst_expected_ratio.max(exp_ratio);

        rep.row(vec![
            trace.label.clone(),
            fmt(frac_ratio),
            fmt(preservation),
            fmt(exp_ratio),
        ]);
    }

    rep.check(
        worst_preservation_err < 0.02,
        format!(
            "rounding preserves expected cost to within Monte-Carlo noise \
             (max |E[C]/frac - 1| = {})",
            fmt(worst_preservation_err)
        ),
    );
    rep.check(
        worst_expected_ratio <= 2.0 + 0.1,
        format!(
            "expected ratio stays at or below ~2 on the corpus (worst {})",
            fmt(worst_expected_ratio)
        ),
    );
    rep.note(
        "frac/OPT is the empirical competitiveness of the HalfStep fractional stage \
         (substitute for Bansal et al.)",
    );
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_passes() {
        let r = super::run_sized(200);
        assert!(r.pass, "{}", r.to_markdown());
    }
}
