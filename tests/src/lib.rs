//! Shared test infrastructure: proptest strategies generating arbitrary
//! valid problem data (convex cost functions, instances, schedules) for the
//! cross-crate property tests under `tests/`.

#![warn(missing_docs)]

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_core::prelude::*;

/// Strategy: an arbitrary convex, non-negative table cost over `0..=m`,
/// built by integrating sorted slopes (covers the full convex class, not
/// just parametric shapes).
pub fn convex_table(m: u32) -> impl Strategy<Value = Cost> {
    (
        vec(-8.0f64..8.0, m as usize),
        0.0f64..4.0, // starting value offset
    )
        .prop_map(move |(mut slopes, start)| {
            slopes.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let mut vals = Vec::with_capacity(m as usize + 1);
            let mut v = start;
            vals.push(v);
            for s in slopes {
                v += s;
                vals.push(v);
            }
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            for v in &mut vals {
                *v -= min;
            }
            Cost::table(vals)
        })
}

/// Strategy: a parametric convex cost (absolute value or quadratic).
pub fn parametric_cost(m: u32) -> impl Strategy<Value = Cost> {
    prop_oneof![
        (0.01f64..5.0, 0.0f64..(m as f64)).prop_map(|(s, c)| Cost::abs(s, c)),
        (0.01f64..2.0, 0.0f64..(m as f64), 0.0f64..2.0)
            .prop_map(|(a, c, o)| Cost::quadratic(a, c, o)),
        (0.0f64..1.0).prop_map(Cost::Const),
    ]
}

/// Strategy: any convex cost usable at fleet size `m`.
pub fn any_cost(m: u32) -> impl Strategy<Value = Cost> {
    prop_oneof![convex_table(m), parametric_cost(m)]
}

/// Strategy: a full instance with `m in m_range`, `T in t_range` and beta
/// in `[0.05, 16]`.
pub fn instance(
    m_range: std::ops::RangeInclusive<u32>,
    t_range: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = Instance> {
    (m_range, t_range)
        .prop_flat_map(|(m, t_len)| (Just(m), 0.05f64..16.0, vec(any_cost(m), t_len)))
        .prop_map(|(m, beta, costs)| {
            Instance::new(m, beta, costs).expect("strategy must emit convex costs")
        })
}

/// Strategy: a feasible schedule for the given horizon and fleet size.
pub fn schedule(m: u32, t_len: usize) -> impl Strategy<Value = Schedule> {
    vec(0u32..=m, t_len).prop_map(Schedule)
}

/// Relative-tolerance float comparison used across the suite.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-8 * (1.0 + a.abs().max(b.abs()))
}

/// Case count for the heavy (`#[ignore]`d) proptest variants the nightly
/// `--include-ignored` CI job runs: `RSDC_HEAVY_CASES` overrides the
/// suite's default so depth can be scaled without recompiling.
pub fn heavy_cases(default: u32) -> u32 {
    std::env::var("RSDC_HEAVY_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn convex_tables_are_convex(c in convex_table(10)) {
            prop_assert!(c.check_convex(10).is_ok());
        }

        #[test]
        fn parametric_costs_are_convex(c in parametric_cost(6)) {
            prop_assert!(c.check_convex(6).is_ok());
        }

        #[test]
        fn instances_validate(inst in instance(1..=6, 0..=6)) {
            prop_assert!(inst.m() >= 1);
            prop_assert!(inst.beta() > 0.0);
        }

        #[test]
        fn schedules_are_feasible(
            (inst, xs) in instance(2..=5, 1..=5).prop_flat_map(|i| {
                let m = i.m();
                let t = i.horizon();
                (Just(i), schedule(m, t))
            })
        ) {
            prop_assert!(xs.is_feasible(&inst));
        }
    }

    #[test]
    fn close_tolerates_scale() {
        assert!(close(1e9, 1e9 + 1.0));
        assert!(!close(1.0, 1.1));
    }
}
