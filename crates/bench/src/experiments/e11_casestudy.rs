//! E11 — the Lin et al. case study: how much does right-sizing save?
//!
//! The motivating evaluation this paper inherits from Lin et al. [22, 24]:
//! on diurnal data-center traces, dynamic right-sizing (offline optimal,
//! LCP, randomized) saves a substantial fraction of cost versus the best
//! static provisioning, with the savings shrinking as the switching cost
//! `beta` grows and as the peak-to-mean ratio approaches 1.
//!
//! The proprietary MSR/Hotmail traces are substituted by the synthetic
//! corpus; the sweep over peak-to-mean ratios makes the qualitative claim
//! testable over the whole regime.

use crate::report::{fmt, Report};
use rayon::prelude::*;
use rsdc_online::fractional::{EvalMode, HalfStep};
use rsdc_online::lcp::Lcp;
use rsdc_online::randomized::RandomizedOnline;
use rsdc_online::traits::run as run_online;
use rsdc_workloads::builder::CostModel;
use rsdc_workloads::fleet_size;
use rsdc_workloads::traces::{Diurnal, Trace};

struct Row {
    label: String,
    beta: f64,
    save_opt: f64,
    save_lcp: f64,
    save_rand: f64,
}

/// The case-study cost model: energy-dominated (idle power is the waste
/// right-sizing recovers), soft delay, firm overload penalty. Chosen so the
/// savings *range* matches the Lin et al. narrative; the shape checks below
/// are what the experiment asserts.
fn case_model(beta: f64) -> CostModel {
    CostModel {
        beta,
        overload: 40.0,
        server: rsdc_core::ServerParams {
            e_idle: 1.0,
            e_peak: 2.0,
            delay_weight: 0.2,
            delay_eps: 0.5,
        },
    }
}

fn savings(model: &CostModel, trace: &Trace) -> Row {
    let m = fleet_size(trace, 0.6);
    let inst = model.instance(m, trace);
    let (_, static_cost) = model.best_static_cost(m, trace);
    let opt = rsdc_offline::dp::solve_cost_only(&inst);

    let mut lcp = Lcp::new(m, model.beta);
    let lcp_cost = rsdc_core::schedule::cost(&inst, &run_online(&mut lcp, &inst));

    let mut rnd =
        RandomizedOnline::new(HalfStep::new(m, model.beta, EvalMode::Interpolate), m, 2024);
    let rnd_cost = rsdc_core::schedule::cost(&inst, &run_online(&mut rnd, &inst));

    let pct = |c: f64| 100.0 * (1.0 - c / static_cost);
    Row {
        label: trace.label.clone(),
        beta: model.beta,
        save_opt: pct(opt),
        save_lcp: pct(lcp_cost),
        save_rand: pct(rnd_cost),
    }
}

/// Run the experiment.
pub fn run() -> Report {
    let mut rep = Report::new(
        "E11",
        "right-sizing savings vs static provisioning (Lin et al. case study)",
        "Right-sizing saves significantly on diurnal load; savings shrink with larger beta and \
         with peak-to-mean -> 1",
        &[
            "trace",
            "PMR",
            "beta",
            "save OPT %",
            "save LCP %",
            "save RND %",
        ],
    );

    // Beta sweep on a strongly diurnal trace.
    let diurnal = Diurnal {
        period: 48,
        base: 0.5,
        peak: 18.0,
        noise: 0.08,
    }
    .generate(480, 5);

    let betas = [1.0, 6.0, 24.0, 96.0];
    let beta_rows: Vec<Row> = betas
        .par_iter()
        .map(|&beta| savings(&case_model(beta), &diurnal))
        .collect();
    for r in &beta_rows {
        rep.row(vec![
            r.label.clone(),
            fmt(diurnal.peak_to_mean()),
            fmt(r.beta),
            fmt(r.save_opt),
            fmt(r.save_lcp),
            fmt(r.save_rand),
        ]);
    }

    // Peak-to-mean sweep at fixed beta: flatten the diurnal pattern.
    let pmr_rows: Vec<(f64, Row)> = [(0.5, 18.0), (6.0, 18.0), (12.0, 18.0), (17.0, 18.0)]
        .par_iter()
        .map(|&(base, peak)| {
            let tr = Diurnal {
                period: 48,
                base,
                peak,
                noise: 0.05,
            }
            .generate(480, 9);
            (tr.peak_to_mean(), savings(&case_model(6.0), &tr))
        })
        .collect();
    for (pmr, r) in &pmr_rows {
        rep.row(vec![
            r.label.clone(),
            fmt(*pmr),
            fmt(r.beta),
            fmt(r.save_opt),
            fmt(r.save_lcp),
            fmt(r.save_rand),
        ]);
    }

    // Shape checks.
    rep.check(
        beta_rows[0].save_opt > 20.0,
        format!(
            "substantial savings at low beta ({}%)",
            fmt(beta_rows[0].save_opt)
        ),
    );
    rep.check(
        beta_rows
            .windows(2)
            .all(|w| w[1].save_opt <= w[0].save_opt + 1.0),
        "savings shrink (weakly) as beta grows",
    );
    let pmr_saves: Vec<f64> = pmr_rows.iter().map(|(_, r)| r.save_opt).collect();
    rep.check(
        pmr_saves.last().unwrap() + 1.0 < *pmr_saves.first().unwrap(),
        format!(
            "savings shrink as peak-to-mean -> 1 ({} -> {})",
            fmt(pmr_saves[0]),
            fmt(*pmr_saves.last().unwrap())
        ),
    );
    rep.check(
        beta_rows.iter().all(|r| r.save_lcp <= r.save_opt + 1e-9),
        "online never beats offline",
    );
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_passes() {
        let r = super::run();
        assert!(r.pass, "{}", r.to_markdown());
    }
}
