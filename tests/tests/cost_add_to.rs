//! `Cost::add_to`, the batched evaluator the dynamic programs fold slot
//! costs with, is bit-identical to per-state `Cost::eval` for every
//! variant.

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_core::prelude::*;

/// Every non-nested variant over states `0..=m`: `Server` loads put states
/// on both sides of `ceil(lambda)`, `Load` costs have infinite low states,
/// and tables may be shorter than the column (states past the end clamp).
fn leaf_cost(m: u32) -> impl Strategy<Value = Cost> {
    let mf = m as f64;
    let unit = prop_oneof![
        (0.0f64..2.0, 0.0f64..2.0).prop_map(|(base, slope)| Unit::Affine { base, slope }),
        (0.0f64..1.0, 0.0f64..2.0, 0.0f64..3.0).prop_map(|(scale, c0, c1)| Unit::AbsAffine {
            scale,
            c0,
            c1
        }),
        (0.5f64..2.0, 0.0f64..2.0, 0.0f64..0.5).prop_map(|(e_idle, delay_weight, delay_eps)| {
            Unit::Server(ServerParams {
                e_idle,
                e_peak: 2.0 * e_idle,
                delay_weight,
                delay_eps: 0.01 + delay_eps,
            })
        }),
    ];
    prop_oneof![
        Just(Cost::Zero),
        (0.0f64..5.0).prop_map(Cost::Const),
        (0.0f64..5.0, 0.0..mf).prop_map(|(s, c)| Cost::abs(s, c)),
        (0.0f64..2.0, 0.0..mf, 0.0f64..2.0).prop_map(|(a, c, o)| Cost::quadratic(a, c, o)),
        (0.0f64..3.0, 0.0f64..2.0).prop_map(|(intercept, slope)| Cost::Linear { intercept, slope }),
        (0.0..mf, 0.0f64..4.0, 0.0f64..4.0).prop_map(|(knee, l, r)| Cost::Hinge {
            knee,
            left_slope: l,
            right_slope: r,
        }),
        (vec(0.0f64..9.0, 1..=(m as usize + 1)), 0usize..3).prop_map(|(mut v, inf)| {
            let inf = inf.min(v.len() - 1);
            v[..inf].fill(f64::INFINITY);
            Cost::table(v)
        }),
        (0.0..mf + 2.0, unit).prop_map(|(lambda, unit)| Cost::load(lambda, unit)),
        (
            prop_oneof![0.0..mf, (0..=m).prop_map(|l| l as f64)],
            prop_oneof![0.0f64..50.0, 1e3f64..1e6],
            0.5f64..1.5,
        )
            .prop_map(|(lambda, overload, e_idle)| Cost::Server {
                lambda,
                params: ServerParams {
                    e_idle,
                    ..ServerParams::default()
                },
                overload,
            }),
    ]
}

/// Leaves, plus `Scaled` and `Padded` wrappers nested up to two deep.
fn any_cost(m: u32) -> impl Strategy<Value = Cost> {
    (leaf_cost(m), 0usize..5, 0.0f64..3.0, 0..=m, 0.0f64..1.0).prop_map(
        move |(leaf, shape, factor, m_orig, eps)| {
            let scaled = |inner: Cost| inner.scaled(factor);
            let padded = |inner: Cost| Cost::Padded {
                m_orig,
                eps,
                inner: Box::new(inner),
            };
            match shape {
                0 | 1 => leaf,
                2 => scaled(leaf),
                3 => padded(leaf),
                _ => scaled(padded(scaled(leaf))),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn add_to_is_bit_identical_to_eval(
        (f, acc) in (1u32..=40).prop_flat_map(|m| {
            let start = prop_oneof![0.0f64..1e4, Just(0.0), Just(f64::INFINITY)];
            (any_cost(m), vec(start, m as usize + 1))
        })
    ) {
        let mut batched = acc.clone();
        f.add_to(&mut batched);
        for (x, (&a, &b)) in acc.iter().zip(&batched).enumerate() {
            let want = a + f.eval(x as u32);
            prop_assert_eq!(b.to_bits(), want.to_bits(), "state {} of {:?}: {} vs {}", x, f, b, want);
        }
    }
}
