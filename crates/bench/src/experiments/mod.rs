//! The experiment suite: one module per paper experiment (E1–E12) plus
//! the ablation/calibration suite (E13–E16). Each module exposes
//! `run() -> Report`.

pub mod e10_prediction;
pub mod e11_casestudy;
pub mod e12_rounding_lemma;
pub mod e13_ablations;
pub mod e14_baselines;
pub mod e15_rounding_ablation;
pub mod e16_hetero;
pub mod e1_graph;
pub mod e2_offline_equiv;
pub mod e3_scaling;
pub mod e4_lcp_ratio;
pub mod e5_lb_deterministic;
pub mod e6_randomized_ratio;
pub mod e7_lb_randomized;
pub mod e8_lb_continuous;
pub mod e9_restricted;

use crate::report::Report;

/// All experiment ids in run order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

/// Run one experiment by id (`"e1"`..`"e16"`). `quick` shrinks the sizes of
/// the slow ones.
pub fn run_by_id(id: &str, quick: bool) -> Option<Report> {
    Some(match id {
        "e1" => e1_graph::run(),
        "e2" => e2_offline_equiv::run(),
        "e3" => e3_scaling::run_sized(quick),
        "e4" => e4_lcp_ratio::run(),
        "e5" => e5_lb_deterministic::run(),
        "e6" => {
            if quick {
                e6_randomized_ratio::run_sized(200)
            } else {
                e6_randomized_ratio::run()
            }
        }
        "e7" => e7_lb_randomized::run(),
        "e8" => e8_lb_continuous::run(),
        "e9" => e9_restricted::run(),
        "e10" => e10_prediction::run(),
        "e11" => e11_casestudy::run(),
        "e12" => e12_rounding_lemma::run(),
        "e13" => e13_ablations::run(),
        "e14" => e14_baselines::run(),
        "e15" => e15_rounding_ablation::run(),
        "e16" => e16_hetero::run(),
        _ => return None,
    })
}
