//! The one-DP [`BoundTracker`] against the two-DP recursion it replaced.
//!
//! [`TwoDpBounds`] keeps `\hat C^L` and `\hat C^U` as independent vectors
//! with their own relaxations; the tracker keeps only `\hat C^L` and
//! derives `\hat C^U(x) = \hat C^L(x) - beta x` (Lemma 7). Per step, `x^L`
//! and `x^U` must agree exactly and `min \hat C^L` bit for bit, and the
//! derived `\hat C^U` must match the oracle's vector (Lemma 7).
//!
//! Ties are where the two can part. With dyadic costs and `beta` every sum
//! is exact in `f64`, so an exact tie is a tie in both recursions and the
//! bounds must agree. With decimal costs a flat stretch of `\hat C^U` is
//! flat only up to rounding, and each recursion rounds differently; there
//! the test requires any `x^U` disagreement to be a tie within one ulp of
//! the value scale in the oracle's own `\hat C^U`. (Replayed in exact
//! rational arithmetic, such disagreements resolve toward the tracker: it
//! takes the power-up candidate's minimum before adding `beta x` back, so a
//! flat stretch stays exactly flat, while the oracle's power-down pass adds
//! and subtracts `beta x'`.)

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_core::prelude::*;
use rsdc_offline::backward::TwoDpBounds;
use rsdc_online::bounds::BoundTracker;
use rsdc_tests::convex_table;

/// A table over `0..=m` built from sorted slopes drawn from `slopes`
/// (repeated zeros make flat runs), shifted so its minimum is `start`.
fn flat_run_table(m: u32, slopes: &'static [f64], start: f64) -> impl Strategy<Value = Cost> {
    vec(0..slopes.len(), m as usize).prop_map(move |picks| {
        let mut ds: Vec<f64> = picks.into_iter().map(|i| slopes[i]).collect();
        ds.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut vals = vec![0.0];
        for d in ds {
            vals.push(vals.last().unwrap() + d);
        }
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        Cost::table(vals.into_iter().map(|v| v - min + start).collect())
    })
}

/// Costs whose every value is a small dyadic rational: tie-heavy tables
/// with flat runs, hinges with integer knees and flat arms, and integer
/// `Abs` costs.
fn dyadic_cost(m: u32) -> impl Strategy<Value = Cost> {
    const SLOPES: &[f64] = &[-2.0, -0.75, -0.25, 0.0, 0.0, 0.0, 0.0, 0.5, 1.25, 3.0];
    const ARMS: &[f64] = &[0.0, 0.0, 0.25, 0.5, 1.0, 2.75];
    prop_oneof![
        flat_run_table(m, SLOPES, 0.0),
        flat_run_table(m, SLOPES, 1.5),
        (0..=m, 0..ARMS.len(), 0..ARMS.len()).prop_map(|(knee, l, r)| Cost::Hinge {
            knee: knee as f64,
            left_slope: ARMS[l],
            right_slope: ARMS[r],
        }),
        (1u32..6, 0..=m).prop_map(|(s, c)| Cost::abs(s as f64, c as f64)),
    ]
}

/// Costs with decimal parameters: `Abs`/`Hinge` with integer knees,
/// quadratics, arbitrary convex tables, and `Load`/`Server` costs with
/// infinite or steep low states.
fn decimal_cost(m: u32) -> impl Strategy<Value = Cost> {
    let mf = m as f64;
    prop_oneof![
        convex_table(m),
        (0.01f64..5.0, 0..=m).prop_map(|(s, c)| Cost::abs(s, c as f64)),
        (0..=m, 0.01f64..5.0, 0.01f64..5.0).prop_map(|(knee, l, r)| Cost::Hinge {
            knee: knee as f64,
            left_slope: l,
            right_slope: r,
        }),
        (0.01f64..2.0, 0.0..mf, 0.0f64..2.0).prop_map(|(a, c, o)| Cost::quadratic(a, c, o)),
        (0.0..mf, 0.0f64..2.0, 0.0f64..2.0)
            .prop_map(|(lambda, base, slope)| { Cost::load(lambda, Unit::Affine { base, slope }) }),
        (0.0..mf).prop_map(|lambda| Cost::load(lambda, Unit::Server(ServerParams::default()))),
        (0.0..mf, prop_oneof![0.0f64..50.0, 1e3f64..1e6]).prop_map(|(lambda, overload)| {
            Cost::Server {
                lambda,
                params: ServerParams::default(),
                overload,
            }
        }),
    ]
}

/// Decimal tables and hinges with flat runs: exact ties that rounding
/// blurs.
fn decimal_flat_cost(m: u32) -> impl Strategy<Value = Cost> {
    const SLOPES: &[f64] = &[-1.3, -0.7, 0.0, 0.0, 0.0, 0.9, 2.1];
    prop_oneof![
        flat_run_table(m, SLOPES, 0.0),
        (0..=m, 0.0f64..1.0, 0.01f64..5.0, 0.01f64..5.0).prop_map(|(knee, side, a, b)| {
            let (left_slope, right_slope) = if side < 0.5 { (0.0, a) } else { (b, 0.0) };
            Cost::Hinge {
                knee: knee as f64,
                left_slope,
                right_slope,
            }
        }),
    ]
}

/// Largest finite `|\hat C^L|`: the value scale one ulp is measured at.
fn scale(c_low: &[f64]) -> f64 {
    c_low
        .iter()
        .filter(|v| v.is_finite())
        .fold(1.0f64, |s, v| s.max(v.abs()))
}

/// Step both recursions through `costs`. Per step: `x^L` exactly equal,
/// `min \hat C^L` bit-equal, Lemma 7 against the oracle's `\hat C^U`,
/// Lemmas 8 and 9 on the tracker, and `x^U` equal — or, with
/// `allow_float_ties`, at a tie within one ulp of the value scale in the
/// oracle's `\hat C^U`.
fn check_against_oracle(m: u32, beta: f64, costs: &[Cost], allow_float_ties: bool) {
    let mut tracker = BoundTracker::new(m, beta);
    let mut oracle = TwoDpBounds::new(m, beta);
    for (t, f) in costs.iter().enumerate() {
        tracker.step(f);
        oracle.step(f);
        let ctx = || format!("step {t} of m={m} beta={beta} costs={costs:?}");
        prop_assert_eq!(tracker.x_low(), oracle.x_low(), "x^L at {}", ctx());
        let oracle_min = oracle.c_low().iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(
            tracker.prefix_opt().map(f64::to_bits),
            Some(oracle_min.to_bits()),
            "min C^L at {}",
            ctx()
        );
        let scale = scale(oracle.c_low());
        let ulp = f64::EPSILON * scale;
        let c_up = oracle.c_up();
        if allow_float_ties {
            let (ours, theirs) = (tracker.x_up() as usize, oracle.x_up() as usize);
            prop_assert!(
                (c_up[ours] - c_up[theirs]).abs() <= ulp,
                "x^U {ours} vs {theirs} is no float tie ({} vs {}) at {}",
                c_up[ours],
                c_up[theirs],
                ctx()
            );
        } else {
            prop_assert_eq!(tracker.x_up(), oracle.x_up(), "x^U at {}", ctx());
        }
        // Lemma 7: the derived C^U is the oracle's, up to rounding.
        for x in 0..=m {
            let (derived, direct) = (tracker.c_up(x), c_up[x as usize]);
            prop_assert_eq!(
                derived.is_finite(),
                direct.is_finite(),
                "x={} at {}",
                x,
                ctx()
            );
            if direct.is_finite() {
                prop_assert!(
                    (derived - direct).abs() <= 1e-9 * scale,
                    "lemma 7 at x={x}: {derived} vs {direct} at {}",
                    ctx()
                );
            }
        }
        if let Err(e) = tracker.check_lemmas() {
            panic!("{e} at {}", ctx());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact arithmetic: ties are ties in both recursions, so the bounds
    /// agree exactly.
    #[test]
    fn one_dp_matches_two_dp_on_dyadic_ties(
        (m, quarter_beta, costs) in (1u32..=16).prop_flat_map(|m| {
            (Just(m), 1u32..=48, vec(dyadic_cost(m), 1..=30))
        })
    ) {
        check_against_oracle(m, quarter_beta as f64 / 4.0, &costs, false);
    }

    /// Decimal costs without structural ties: the bounds agree exactly.
    #[test]
    fn one_dp_matches_two_dp_on_decimal_costs(
        (m, beta, costs) in (1u32..=16).prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_cost(m), 1..=30))
        })
    ) {
        check_against_oracle(m, beta, &costs, false);
    }

    /// Decimal flat runs: `x^U` may differ only at a one-ulp tie of the
    /// oracle's own `\hat C^U`; `x^L` and `min \hat C^L` still agree
    /// exactly.
    #[test]
    fn one_dp_differs_from_two_dp_only_at_float_ties(
        (m, beta, costs) in (1u32..=16).prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_flat_cost(m), 1..=30))
        })
    ) {
        check_against_oracle(m, beta, &costs, true);
    }
}

/// The `large-m` benchmark's cost shape: `Server` costs on a noisy diurnal
/// load at m = 1024 and beta = 6, where every bound matches exactly.
#[test]
fn one_dp_matches_two_dp_on_diurnal_server_costs() {
    let m = 1024u32;
    let costs: Vec<Cost> = (0..600)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * (k as f64 + 7.0) / 48.0;
            let noise = ((k * 37 % 101) as f64 / 50.0 - 1.0) * 0.1;
            let lambda = (512.0 - 307.2 * angle.cos()) * (1.0 + noise);
            Cost::Server {
                lambda: (lambda * 16.0).round() / 16.0,
                params: ServerParams::default(),
                overload: 20.0,
            }
        })
        .collect();
    check_against_oracle(m, 6.0, &costs, false);
}
