//! Exact dynamic program over all `m + 1` states.
//!
//! This is the pseudo-polynomial shortest-path computation of Section 2.1,
//! implemented in `O(T m)` time instead of the naive `O(T m^2)`: the
//! transition
//!
//! ```text
//! C_t(j) = f_t(j) + min_{j'} ( C_{t-1}(j') + beta * (j - j')^+ )
//! ```
//!
//! splits into a *prefix* candidate (`j' <= j`, pays `beta (j - j')`) and a
//! *suffix* candidate (`j' >= j`, pays nothing), each computable for all `j`
//! by a single scan.
//!
//! The same scan is exposed as [`relax`] because the online algorithms of
//! Section 3 maintain exactly these value vectors (`\hat C^L_tau`).

use rsdc_core::prelude::*;

/// An optimal schedule together with its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// An optimal integral schedule.
    pub schedule: Schedule,
    /// Its total cost under eq. (1).
    pub cost: f64,
}

/// One DP relaxation step *without* the operating cost: given the previous
/// column's values `prev`, writes `min_{j'} (prev[j'] + beta (j - j')^+)`
/// into `out` and the minimizing `j'` into `parent` (ties broken toward
/// smaller `j'`, then toward staying — see note below).
///
/// Tie-breaking: among equal-cost predecessors we prefer the one requiring
/// the least powering-up (the largest `j' >= j` candidate is never preferred
/// over an equal prefix candidate; within the suffix we keep the smallest
/// such `j'`). Any consistent rule yields an optimal schedule.
pub fn relax(prev: &[f64], beta: f64, out: &mut [f64], parent: &mut [u32]) {
    let m1 = prev.len();
    debug_assert_eq!(out.len(), m1);
    debug_assert_eq!(parent.len(), m1);

    // Prefix pass: best_{j' <= j} (prev[j'] - beta j') + beta j.
    let mut best = f64::INFINITY;
    let mut best_j = 0u32;
    for j in 0..m1 {
        let cand = prev[j] - beta * j as f64;
        if cand < best {
            best = cand;
            best_j = j as u32;
        }
        out[j] = best + beta * j as f64;
        parent[j] = best_j;
    }

    // Suffix pass: best_{j' >= j} prev[j'].
    let mut best = f64::INFINITY;
    let mut best_j = (m1 - 1) as u32;
    for j in (0..m1).rev() {
        if prev[j] <= best {
            best = prev[j];
            best_j = j as u32;
        }
        if best < out[j] {
            out[j] = best;
            parent[j] = best_j;
        }
    }
}

/// Mirror of [`relax`] for the `C^U` convention (eq. 12), where switching
/// cost is charged for powering **down**: writes
/// `min_{j'} (prev[j'] + beta (j' - j)^+)` into `out`.
///
/// The online tracker derives `\hat C^U` from `\hat C^L` (Lemma 7) and
/// never calls this; it backs the two-DP reference recursion
/// [`crate::backward::TwoDpBounds`].
pub fn relax_down(prev: &[f64], beta: f64, out: &mut [f64], parent: &mut [u32]) {
    let m1 = prev.len();
    debug_assert_eq!(out.len(), m1);
    debug_assert_eq!(parent.len(), m1);

    // Prefix pass: best_{j' <= j} prev[j'] (no charge for powering up).
    let mut best = f64::INFINITY;
    let mut best_j = 0u32;
    for j in 0..m1 {
        if prev[j] < best {
            best = prev[j];
            best_j = j as u32;
        }
        out[j] = best;
        parent[j] = best_j;
    }

    // Suffix pass: best_{j' >= j} (prev[j'] + beta j') - beta j.
    let mut best = f64::INFINITY;
    let mut best_j = (m1 - 1) as u32;
    for j in (0..m1).rev() {
        let cand = prev[j] + beta * j as f64;
        if cand <= best {
            best = cand;
            best_j = j as u32;
        }
        let v = best - beta * j as f64;
        if v < out[j] {
            out[j] = v;
            parent[j] = best_j;
        }
    }
}

/// Solve the instance exactly, returning an optimal schedule.
///
/// `O(T m)` time, `O(T m)` memory for parent pointers. For cost-only runs
/// over very large instances use [`solve_cost_only`].
pub fn solve(inst: &Instance) -> Solution {
    let t_len = inst.horizon();
    let m1 = inst.m() as usize + 1;
    if t_len == 0 {
        return Solution {
            schedule: Schedule::zeros(0),
            cost: 0.0,
        };
    }

    let mut prev = vec![f64::INFINITY; m1];
    prev[0] = 0.0; // x_0 = 0
    let mut cur = vec![0.0f64; m1];
    let mut scratch_parent = vec![0u32; m1];
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(t_len);

    for t in 1..=t_len {
        relax(&prev, inst.beta(), &mut cur, &mut scratch_parent);
        inst.cost_fn(t).add_to(&mut cur);
        parents.push(scratch_parent.clone());
        std::mem::swap(&mut prev, &mut cur);
    }

    // Final state: powering down is free, so take the cheapest end state.
    let (mut j, cost) = prev
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("DP values must not be NaN"))
        .map(|(j, &c)| (j as u32, c))
        .expect("m >= 1 implies a non-empty DP column");

    let mut xs = vec![0u32; t_len];
    for t in (1..=t_len).rev() {
        xs[t - 1] = j;
        j = parents[t - 1][j as usize];
    }
    debug_assert_eq!(j, 0, "schedules must start from x_0 = 0");

    Solution {
        schedule: Schedule(xs),
        cost,
    }
}

/// Optimal cost only, `O(m)` memory.
pub fn solve_cost_only(inst: &Instance) -> f64 {
    let t_len = inst.horizon();
    let m1 = inst.m() as usize + 1;
    if t_len == 0 {
        return 0.0;
    }
    let mut prev = vec![f64::INFINITY; m1];
    prev[0] = 0.0;
    let mut cur = vec![0.0f64; m1];
    let mut parent = vec![0u32; m1];
    for t in 1..=t_len {
        relax(&prev, inst.beta(), &mut cur, &mut parent);
        inst.cost_fn(t).add_to(&mut cur);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsdc_core::cost::Cost;

    fn inst(m: u32, beta: f64, costs: Vec<Cost>) -> Instance {
        Instance::new(m, beta, costs).unwrap()
    }

    #[test]
    fn empty_instance() {
        let i = inst(4, 1.0, vec![]);
        let s = solve(&i);
        assert_eq!(s.cost, 0.0);
        assert!(s.schedule.is_empty());
    }

    #[test]
    fn single_slot_tradeoff() {
        // f(x) = 4*|x - 3|, beta = 1: moving to 3 costs 3*beta, saves 12.
        let i = inst(8, 1.0, vec![Cost::abs(4.0, 3.0)]);
        let s = solve(&i);
        assert_eq!(s.schedule, Schedule(vec![3]));
        assert!((s.cost - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_slot_not_worth_switching() {
        // f(x) = 0.1*|x - 3|, beta = 10: cheaper to stay at 0.
        let i = inst(8, 10.0, vec![Cost::abs(0.1, 3.0)]);
        let s = solve(&i);
        assert_eq!(s.schedule, Schedule(vec![0]));
        assert!((s.cost - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lazy_behavior_avoids_oscillation() {
        // Alternating targets 2 and 0 with huge beta: optimal parks between.
        let costs = vec![
            Cost::abs(1.0, 2.0),
            Cost::abs(1.0, 0.0),
            Cost::abs(1.0, 2.0),
            Cost::abs(1.0, 0.0),
        ];
        let i = inst(4, 100.0, costs);
        let s = solve(&i);
        // With beta = 100 any power-up costs 100 and saves at most 8.
        assert_eq!(s.schedule, Schedule(vec![0, 0, 0, 0]));
        assert!((s.cost - 4.0).abs() < 1e-12);
    }

    #[test]
    fn oscillation_when_beta_small() {
        let costs = vec![
            Cost::abs(10.0, 2.0),
            Cost::abs(10.0, 0.0),
            Cost::abs(10.0, 2.0),
        ];
        let i = inst(4, 0.5, costs);
        let s = solve(&i);
        assert_eq!(s.schedule, Schedule(vec![2, 0, 2]));
        // switching: 2*0.5 + 0 + 2*0.5 = 2
        assert!((s.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matches_exhaustive_small() {
        // 3 slots, m = 3: enumerate all 4^3 schedules.
        let costs = vec![
            Cost::table(vec![3.0, 1.0, 0.5, 2.0]),
            Cost::table(vec![0.2, 1.0, 2.0, 3.0]),
            Cost::table(vec![5.0, 2.0, 1.0, 0.8]),
        ];
        let i = inst(3, 1.5, costs);
        let s = solve(&i);
        let mut best = f64::INFINITY;
        for a in 0..=3u32 {
            for b in 0..=3u32 {
                for c in 0..=3u32 {
                    let x = Schedule(vec![a, b, c]);
                    best = best.min(cost(&i, &x));
                }
            }
        }
        assert!(
            (s.cost - best).abs() < 1e-9,
            "dp {} vs brute {best}",
            s.cost
        );
        assert!((cost(&i, &s.schedule) - s.cost).abs() < 1e-9);
    }

    #[test]
    fn infeasible_states_are_avoided() {
        // Restricted-model style: x >= 2 forced at slot 2.
        let costs = vec![
            Cost::Zero,
            Cost::table(vec![f64::INFINITY, f64::INFINITY, 1.0, 2.0]),
            Cost::Zero,
        ];
        let i = inst(3, 1.0, costs);
        let s = solve(&i);
        assert!(s.schedule.0[1] >= 2);
        assert!(s.cost.is_finite());
    }

    #[test]
    fn cost_only_matches_solve() {
        let costs = vec![
            Cost::quadratic(1.0, 2.0, 0.0),
            Cost::quadratic(0.5, 4.0, 1.0),
            Cost::abs(2.0, 1.0),
        ];
        let i = inst(6, 1.25, costs);
        assert!((solve(&i).cost - solve_cost_only(&i)).abs() < 1e-12);
    }

    #[test]
    fn schedule_cost_consistency() {
        let costs: Vec<Cost> = (0..6)
            .map(|t| Cost::quadratic(0.3 + 0.1 * t as f64, (t % 4) as f64, 0.0))
            .collect();
        let i = inst(5, 0.75, costs);
        let s = solve(&i);
        assert!(s.schedule.is_feasible(&i));
        assert!((cost(&i, &s.schedule) - s.cost).abs() < 1e-9);
    }

    #[test]
    fn relax_prefers_cheapest_transition() {
        let prev = vec![0.0, 10.0, 1.0];
        let mut out = vec![0.0; 3];
        let mut parent = vec![0u32; 3];
        relax(&prev, 2.0, &mut out, &mut parent);
        // j = 0: staying (j'=0, cost 0) vs suffix min(10, 1) = 1 -> 0 wins.
        assert_eq!(out[0], 0.0);
        assert_eq!(parent[0], 0);
        // j = 2: from 0 pay 4, from 2 pay 1 -> 1.
        assert_eq!(out[2], 1.0);
        assert_eq!(parent[2], 2);
    }

    #[test]
    fn relax_down_charges_power_down() {
        let prev = vec![0.0, 10.0, 1.0];
        let mut out = vec![0.0; 3];
        let mut parent = vec![0u32; 3];
        relax_down(&prev, 2.0, &mut out, &mut parent);
        // j = 0: from 0 free (0), from 2 pay 2*2 = 4 + 1 = 5 -> 0.
        assert_eq!(out[0], 0.0);
        assert_eq!(parent[0], 0);
        // j = 2: from below free: min(0, 10) = 0; from 2: 1. -> 0.
        assert_eq!(out[2], 0.0);
        assert_eq!(parent[2], 0);
        // j = 1: prefix min(0, 10) = 0; suffix: prev[2] + beta = 1+4-2 = 3.
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn m_equals_one() {
        let i = inst(1, 1.0, vec![Cost::abs(5.0, 1.0), Cost::abs(5.0, 1.0)]);
        let s = solve(&i);
        assert_eq!(s.schedule, Schedule(vec![1, 1]));
        assert!((s.cost - 1.0).abs() < 1e-12);
    }
}
