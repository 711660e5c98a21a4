//! Property tests for the heterogeneous extension.
//!
//! The lattice DP's min-plus step runs one scalar relaxation per lattice
//! line along each axis. [`quadratic_oracle`] is the recurrence it
//! replaced — every target minimises over every predecessor — and the
//! kernel tests below hold [`FrontierDp`] and [`rsdc_hetero::solve`] to it.
//! With dyadic data every sum is exact, so the frontiers must agree bit
//! for bit; otherwise the two round differently and agree to 1e-13
//! relative. Argmins must agree except on ties of the oracle's own values.

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_core::prelude::*;
use rsdc_hetero::streaming::MAX_LATTICE;
use rsdc_hetero::{
    CoordinateLcp, FleetSpec, FrontierDp, HCost, HInstance, HeteroAlgo, HeteroSnapshot,
    HeteroStream, ServerType,
};
use serde::{Deserialize as _, Serialize as _};

fn types_strategy() -> impl Strategy<Value = Vec<ServerType>> {
    vec(
        (1u32..4, 0.2f64..4.0, 0.2f64..2.0, 0.5f64..3.0).prop_map(
            |(count, beta, energy, capacity)| ServerType {
                count,
                beta,
                energy,
                capacity,
            },
        ),
        1..3,
    )
}

fn separable_instance() -> impl Strategy<Value = HInstance> {
    (types_strategy(), 0usize..6).prop_flat_map(|(types, t_len)| {
        let d = types.len();
        (
            Just(types),
            vec(
                (vec(0.0f64..4.0, d), vec(0.1f64..3.0, d))
                    .prop_map(|(targets, slopes)| HCost::SeparableAbs { targets, slopes }),
                t_len..=t_len,
            ),
        )
            .prop_map(|(types, costs)| HInstance { types, costs })
    })
}

fn aggregate_instance() -> impl Strategy<Value = HInstance> {
    (types_strategy(), vec(0.0f64..6.0, 0..8)).prop_map(|(types, loads)| HInstance {
        types: types.clone(),
        costs: loads
            .iter()
            .map(|&lambda| HCost::Aggregate {
                lambda,
                delay_weight: 1.0,
                delay_eps: 0.3,
                overload: 20.0,
            })
            .collect(),
    })
}

/// The quadratic lattice DP: per slot, each point's best predecessor over
/// the whole lattice (first minimum) plus its operating cost, starting
/// from the all-zero configuration. Returns each slot's frontier and
/// predecessors.
fn quadratic_oracle(inst: &HInstance) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
    let lattice = inst.all_configs();
    let mut dist = vec![f64::INFINITY; lattice.len()];
    dist[0] = 0.0;
    let (mut frontiers, mut parents) = (Vec::new(), Vec::new());
    for t in 1..=inst.horizon() {
        let mut next = vec![0.0; lattice.len()];
        let mut parent = vec![0u32; lattice.len()];
        for (j, to) in lattice.iter().enumerate() {
            let mut best = f64::INFINITY;
            for (i, from) in lattice.iter().enumerate() {
                let c = dist[i] + inst.switch_cost(from, to);
                if c < best {
                    best = c;
                    parent[j] = i as u32;
                }
            }
            next[j] = best + inst.eval(t, to);
        }
        dist = next;
        frontiers.push(dist.clone());
        parents.push(parent);
    }
    (frontiers, parents)
}

/// First minimum of a frontier, the commit rule of [`FrontierDp`].
fn argmin(v: &[f64]) -> usize {
    (1..v.len()).fold(0, |a, j| if v[j] < v[a] { j } else { a })
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// Hold the lattice kernel to the quadratic oracle on one instance: per
/// slot the frontier (bit for bit when `exact`, else within 1e-13
/// relative) and the commit (equal, or tied in the oracle's frontier);
/// offline, the cost within 1e-12 relative and a schedule that is the
/// oracle's or ties it, re-evaluating to its reported cost.
fn check_kernel_against_oracle(inst: &HInstance, exact: bool) {
    let (frontiers, parents) = quadratic_oracle(inst);
    let lattice = inst.all_configs();
    let mut dp = FrontierDp::new(&inst.types);
    for (t, want) in frontiers.iter().enumerate() {
        let commit = dp.step(inst, t + 1);
        let got = dp.frontier();
        for (j, (&g, &w)) in got.iter().zip(want).enumerate() {
            if exact {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "slot {} point {}", t + 1, j);
            } else {
                prop_assert!(
                    rel_close(g, w, 1e-13),
                    "slot {} point {j}: {g} vs {w}",
                    t + 1
                );
            }
        }
        let k = lattice.iter().position(|c| *c == commit).unwrap();
        let o = argmin(want);
        prop_assert!(
            k == o || rel_close(want[k], want[o], 1e-13),
            "slot {}: commit {:?} vs oracle {:?}",
            t + 1,
            commit,
            &lattice[o]
        );
    }
    // The oracle's offline optimum: backtrack from the last frontier's
    // first minimum.
    let last = frontiers.last().expect("non-empty horizon");
    let mut j = argmin(last);
    let cost = last[j];
    let mut schedule = vec![Vec::new(); parents.len()];
    for t in (0..parents.len()).rev() {
        schedule[t] = lattice[j].clone();
        j = parents[t][j] as usize;
    }
    let h = rsdc_hetero::solve(inst);
    prop_assert!(
        rel_close(h.cost, cost, 1e-12),
        "offline {} vs oracle {cost}",
        h.cost
    );
    let replay = inst.cost(&h.schedule);
    prop_assert!((replay - h.cost).abs() <= 1e-9 * (1.0 + h.cost.abs()));
    prop_assert!(h.schedule == schedule || rel_close(replay, cost, 1e-12));
}

/// `dims` types (at most `max_count` machines each) with non-dyadic
/// betas, priced by aggregate or separable costs.
fn kernel_instance(dims: usize, max_count: u32) -> impl Strategy<Value = HInstance> {
    let types = vec(
        (1..=max_count, 0.1f64..5.0).prop_map(|(count, beta)| ServerType {
            count,
            beta,
            energy: 1.0 + beta / 7.0,
            capacity: 0.5 + beta / 3.0,
        }),
        dims..=dims,
    );
    (types, vec(0.0f64..1.0, 1..6), 0u8..2).prop_map(|(types, loads, shape)| {
        let cap: f64 = types.iter().map(|t| t.count as f64 * t.capacity).sum();
        let d = types.len();
        let costs = loads
            .iter()
            .map(|&u| match shape {
                0 => HCost::Aggregate {
                    lambda: u * cap,
                    delay_weight: 1.0,
                    delay_eps: 0.3,
                    overload: 20.0,
                },
                _ => HCost::SeparableAbs {
                    targets: (0..d).map(|k| u * (k + 2) as f64).collect(),
                    slopes: (0..d).map(|k| 0.3 + u * k as f64).collect(),
                },
            })
            .collect();
        HInstance { types, costs }
    })
}

/// Integer targets, slopes and betas: every DP sum is exact, and ties
/// (equal-cost predecessors and optima) are common.
fn dyadic_instance() -> impl Strategy<Value = HInstance> {
    (vec((1u32..6, 0u8..4), 1..=3), 1usize..6).prop_flat_map(|(shape, t_len)| {
        let types: Vec<ServerType> = shape
            .iter()
            .map(|&(count, b)| ServerType {
                count,
                beta: [0.0, 1.0, 4.0, 10.0][b as usize],
                energy: 1.0,
                capacity: 1.0,
            })
            .collect();
        let d = types.len();
        let cost =
            (vec(0u32..6, d), vec(0u32..4, d)).prop_map(|(targets, slopes)| HCost::SeparableAbs {
                targets: targets.into_iter().map(f64::from).collect(),
                slopes: slopes.into_iter().map(f64::from).collect(),
            });
        (Just(types), vec(cost, t_len..=t_len))
            .prop_map(|(types, costs)| HInstance { types, costs })
    })
}

/// The 12+6 two-class fleet (betas 4 and 10, a 91-point lattice) under
/// 600 slots of noisy diurnal load: the kernel's commits equal the
/// quadratic oracle's and its frontier is bit-identical every slot.
#[test]
fn frontier_matches_quadratic_oracle_on_the_12_6_fleet() {
    let spec = FleetSpec::new(vec![
        ServerType {
            count: 12,
            beta: 4.0,
            energy: 1.0,
            capacity: 1.0,
        },
        ServerType {
            count: 6,
            beta: 10.0,
            energy: 1.6,
            capacity: 2.0,
        },
    ]);
    let loads: Vec<f64> = (0..600)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * k as f64 / 48.0;
            let noise = ((k * 37 % 101) as f64 / 50.0 - 1.0) * 0.1;
            let v = (9.6 - 7.2 * angle.cos()) * (1.0 + noise);
            (v * 16.0).round() / 16.0
        })
        .collect();
    let inst = spec.instance(&loads);
    let (frontiers, _) = quadratic_oracle(&inst);
    let lattice = inst.all_configs();
    let mut dp = FrontierDp::new(&inst.types);
    for (t, want) in frontiers.iter().enumerate() {
        assert_eq!(
            dp.step(&inst, t + 1),
            lattice[argmin(want)],
            "slot {}",
            t + 1
        );
        let got: Vec<u64> = dp.frontier().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "slot {}", t + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The lattice kernel against the quadratic oracle, non-dyadic betas.
    #[test]
    fn kernel_matches_quadratic_oracle(
        inst in (1usize..=3).prop_flat_map(|d| kernel_instance(d, 5)),
    ) {
        check_kernel_against_oracle(&inst, false);
    }

    /// ... and with exact arithmetic and frequent ties, bit for bit.
    #[test]
    fn kernel_matches_quadratic_oracle_exactly_on_dyadic_data(inst in dyadic_instance()) {
        check_kernel_against_oracle(&inst, true);
    }

    /// The lattice DP is a lower bound for every explicit schedule.
    #[test]
    fn dp_lower_bounds_all_schedules(inst in aggregate_instance()) {
        let opt = rsdc_hetero::solve(&inst);
        // Probe a handful of deterministic schedules.
        let all = inst.all_configs();
        for config in all.iter().take(4) {
            let xs = vec![config.clone(); inst.horizon()];
            prop_assert!(inst.cost(&xs) >= opt.cost - 1e-9 * (1.0 + opt.cost.abs()));
        }
        // And the DP's own schedule re-evaluates to its cost.
        prop_assert!((inst.cost(&opt.schedule) - opt.cost).abs() < 1e-9 * (1.0 + opt.cost.abs()));
    }

    /// Separable instances decompose into per-type 1-D problems.
    #[test]
    fn separable_decomposition(inst in separable_instance()) {
        let h = rsdc_hetero::solve(&inst);
        let mut sum = 0.0;
        for d in 0..inst.dims() {
            let ty = inst.types[d];
            let costs: Vec<Cost> = inst
                .costs
                .iter()
                .map(|c| match c {
                    HCost::SeparableAbs { targets, slopes } => Cost::abs(slopes[d], targets[d]),
                    _ => unreachable!("separable strategy"),
                })
                .collect();
            let one = Instance::new(ty.count, ty.beta, costs).unwrap();
            sum += rsdc_offline::dp::solve_cost_only(&one);
        }
        prop_assert!(
            (h.cost - sum).abs() < 1e-8 * (1.0 + sum.abs()),
            "hetero {} vs decomposed {sum}",
            h.cost
        );
    }

    /// Coordinate LCP emits feasible configurations and never beats OPT.
    #[test]
    fn coordinate_lcp_feasible(inst in aggregate_instance()) {
        let mut a = CoordinateLcp::new(&inst);
        let xs: Vec<_> = (1..=inst.horizon()).map(|t| a.step(&inst, t)).collect();
        for cfg in &xs {
            for (x, ty) in cfg.iter().zip(&inst.types) {
                prop_assert!(*x <= ty.count);
            }
        }
        if inst.horizon() > 0 {
            let opt = rsdc_hetero::solve(&inst);
            prop_assert!(inst.cost(&xs) >= opt.cost - 1e-9 * (1.0 + opt.cost.abs()));
        }
    }

    /// Streaming hetero tenants resume bit-identically: for random fleet
    /// specs, load traces, policies and interruption points, snapshot →
    /// (JSON round trip) → restore → continue produces exactly the
    /// configurations and prefix optimum of an uninterrupted run.
    #[test]
    fn hetero_snapshot_round_trips_bit_identically(
        types in types_strategy(),
        loads in vec(0.0f64..6.0, 1..40),
        cut in 0usize..40,
        frontier in 0u8..2,
        track in 0u8..2,
    ) {
        let spec = FleetSpec::new(types);
        prop_assume!(spec.validate().is_ok());
        let algo = if frontier == 0 { HeteroAlgo::Frontier } else { HeteroAlgo::Greedy };
        let cut = cut.min(loads.len());

        let mut full = HeteroStream::new(spec.clone(), algo, track != 0).unwrap();
        let want: Vec<Vec<u32>> = loads.iter().map(|&l| full.ingest(l).config).collect();

        let mut first = HeteroStream::new(spec.clone(), algo, track != 0).unwrap();
        let mut got: Vec<Vec<u32>> =
            loads[..cut].iter().map(|&l| first.ingest(l).config).collect();
        let text = serde_json::to_string(&first.snapshot().to_value()).unwrap();
        let value: serde::Value = serde_json::from_str(&text).unwrap();
        let snap = HeteroSnapshot::from_value(&value).unwrap();
        let mut resumed = HeteroStream::new(spec, algo, track != 0).unwrap();
        resumed.restore(&snap).unwrap();
        got.extend(loads[cut..].iter().map(|&l| resumed.ingest(l).config));

        prop_assert_eq!(got, want);
        // Bit-identical includes the tracked optimum (f64 equality).
        prop_assert_eq!(resumed.opt_cost(), full.opt_cost());
    }

    /// The frontier policy's tracked optimum is the exact offline DP.
    #[test]
    fn frontier_opt_matches_offline_dp(
        types in types_strategy(),
        loads in vec(0.0f64..6.0, 1..12),
    ) {
        let spec = FleetSpec::new(types);
        prop_assume!(spec.validate().is_ok());
        let inst = spec.instance(&loads);
        let mut dp = FrontierDp::new(&inst.types);
        for t in 1..=inst.horizon() {
            dp.step(&inst, t);
        }
        prop_assert_eq!(dp.opt_cost().unwrap(), rsdc_hetero::solve(&inst).cost);
    }

    /// Aggregate costs are convex along every axis at every base point.
    #[test]
    fn aggregate_axis_convexity(inst in aggregate_instance()) {
        for t in 1..=inst.horizon() {
            for d in 0..inst.dims() {
                let maxd = inst.types[d].count;
                if maxd < 2 { continue; }
                let base: Vec<u32> = inst.types.iter().map(|ty| ty.count / 2).collect();
                let mut prev_slope = f64::NEG_INFINITY;
                for v in 0..maxd {
                    let mut a = base.clone();
                    let mut b = base.clone();
                    a[d] = v;
                    b[d] = v + 1;
                    let slope = inst.eval(t, &b) - inst.eval(t, &a);
                    prop_assert!(slope >= prev_slope - 1e-9);
                    prev_slope = slope;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Heavy: the kernel against the quadratic oracle on lattices up to
    /// [`MAX_LATTICE`] points (`S^2` pair evaluations per oracle slot);
    /// each per-type cap is the largest whose `d`-type lattice fits.
    #[test]
    #[ignore]
    fn kernel_matches_quadratic_oracle_up_to_max_lattice(
        inst in (1usize..=3).prop_flat_map(|d| kernel_instance(d, [4095, 63, 15][d - 1])),
    ) {
        assert!(inst.state_count() <= MAX_LATTICE);
        check_kernel_against_oracle(&inst, false);
    }
}
