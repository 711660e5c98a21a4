//! Exact offline optimum over the configuration lattice.
//!
//! The [`FrontierDp`] recurrence run over the whole horizon, plus a
//! backtrack through the per-slot predecessors its lattice relaxation
//! writes — `O(T * S * D)` time and `O(T * S)` parent memory for the
//! `S = prod (m_d + 1)` configurations, exponential in the number of
//! types and intended for the small `D` regimes where the heterogeneous
//! extension is typically studied (2–3 types). The homogeneous solvers
//! remain the scalable path; this is the ground truth they are compared
//! against.

use crate::model::{Config, HInstance};
use crate::online::FrontierDp;

/// An optimal configuration schedule with its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct HSolution {
    /// One configuration per slot.
    pub schedule: Vec<Config>,
    /// Total cost.
    pub cost: f64,
}

/// Exact DP: step a [`FrontierDp`] through every slot, then follow the
/// predecessors back from the final frontier's argmin.
pub fn solve(inst: &HInstance) -> HSolution {
    let mut dp = FrontierDp::new(&inst.types);
    let mut parents = Vec::with_capacity(inst.horizon());
    let mut j = 0usize;
    for cost in &inst.costs {
        j = dp.advance(cost);
        parents.push(dp.parent.clone());
    }
    let cost = dp.opt_cost().unwrap_or(0.0);
    let mut schedule = vec![Vec::new(); parents.len()];
    for (t, parent) in parents.iter().enumerate().rev() {
        schedule[t] = dp.lattice[j].clone();
        j = parent[j] as usize;
    }
    HSolution { schedule, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HCost, ServerType};

    fn types() -> Vec<ServerType> {
        vec![
            ServerType {
                count: 2,
                beta: 1.0,
                energy: 1.0,
                capacity: 1.0,
            },
            ServerType {
                count: 2,
                beta: 3.0,
                energy: 1.5,
                capacity: 2.5,
            },
        ]
    }

    #[test]
    fn separable_decomposes_into_1d_problems() {
        // For separable costs the heterogeneous optimum is the product of
        // the per-type homogeneous optima — cross-check against the 1-D DP.
        use rsdc_core::prelude::*;
        let targets = [vec![2.0, 0.0], vec![1.0, 2.0], vec![0.0, 1.0]];
        let inst = HInstance {
            types: types(),
            costs: targets
                .iter()
                .map(|t| HCost::SeparableAbs {
                    targets: t.clone(),
                    slopes: vec![2.0, 1.5],
                })
                .collect(),
        };
        let h = solve(&inst);

        let mut sum_1d = 0.0;
        for d in 0..2 {
            let ty = inst.types[d];
            let costs: Vec<Cost> = targets
                .iter()
                .map(|t| Cost::abs([2.0, 1.5][d], t[d]))
                .collect();
            let one = Instance::new(ty.count, ty.beta, costs).unwrap();
            sum_1d += rsdc_offline::dp::solve_cost_only(&one);
        }
        assert!(
            (h.cost - sum_1d).abs() < 1e-9 * (1.0 + sum_1d),
            "hetero {} vs decomposed {}",
            h.cost,
            sum_1d
        );
    }

    #[test]
    fn prefers_efficient_type_under_aggregate_cost() {
        // Type 1 has 2.5x the capacity for 1.5x the energy: at high load
        // the optimum should use it.
        let inst = HInstance {
            types: types(),
            costs: vec![
                HCost::Aggregate {
                    lambda: 4.0,
                    delay_weight: 1.0,
                    delay_eps: 0.3,
                    overload: 30.0,
                };
                6
            ],
        };
        let h = solve(&inst);
        let used_type1: u32 = h.schedule.iter().map(|c| c[1]).max().unwrap();
        assert!(used_type1 >= 2, "should lean on the efficient type: {h:?}");
        // Reported cost must match re-evaluation.
        assert!((inst.cost(&h.schedule) - h.cost).abs() < 1e-9);
    }

    #[test]
    fn beats_every_constant_configuration() {
        let inst = HInstance {
            types: types(),
            costs: (0..5)
                .map(|t| HCost::Aggregate {
                    lambda: 1.0 + t as f64,
                    delay_weight: 1.0,
                    delay_eps: 0.3,
                    overload: 30.0,
                })
                .collect(),
        };
        let h = solve(&inst);
        for cfg in inst.all_configs() {
            let xs = vec![cfg.clone(); 5];
            assert!(inst.cost(&xs) >= h.cost - 1e-9);
        }
    }

    #[test]
    fn empty_horizon() {
        let inst = HInstance {
            types: types(),
            costs: vec![],
        };
        assert_eq!(solve(&inst).cost, 0.0);
    }
}
