//! The window [`BoundTracker`] against the recursions it replaced.
//!
//! Two oracles. [`FullTracker`] is the `O(m)` one-DP tracker the window
//! replaced: `\hat C^L` on all `m + 1` states, one relaxation and one scan
//! per step. The window must reproduce it exactly: `x^L`, `x^U` and every
//! value of `\hat C^L` bit for bit, on all of `0..=m`, at m = 16, 64 and
//! 1024, on tie-heavy dyadic costs, decimal costs, decimal flat runs and
//! load costs with infinite low states.
//!
//! [`TwoDpBounds`] keeps `\hat C^L` and `\hat C^U` as independent vectors
//! with their own relaxations; the tracker keeps only `\hat C^L` and
//! derives `\hat C^U(x) = \hat C^L(x) - beta x` (Lemma 7). Per step, `x^L`
//! and `x^U` must agree exactly and `min \hat C^L` bit for bit, and the
//! derived `\hat C^U` must match the oracle's vector (Lemma 7).
//!
//! Ties are where the two DPs can part. With dyadic costs and `beta` every
//! sum is exact in `f64`, so an exact tie is a tie in both recursions and
//! the bounds must agree. With decimal costs a flat stretch of `\hat C^U`
//! is flat only up to rounding, and each recursion rounds differently;
//! there the test requires any `x^U` disagreement to be a tie within one
//! ulp of the value scale in the oracle's own `\hat C^U`. (Replayed in
//! exact rational arithmetic, such disagreements resolve toward the
//! tracker: it takes the power-up candidate's minimum before adding
//! `beta x` back, so a flat stretch stays exactly flat, while the oracle's
//! power-down pass adds and subtracts `beta x'`.)

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_core::prelude::*;
use rsdc_offline::backward::TwoDpBounds;
use rsdc_online::bounds::{BoundTracker, TrackerSnapshot};
use rsdc_tests::convex_table;

/// The `O(m)` tracker: `\hat C^L` on every state.
struct FullTracker {
    beta: f64,
    tau: u64,
    c_low: Vec<f64>,
    scratch: Vec<f64>,
    f_vals: Vec<f64>,
    x_low: u32,
    x_up: u32,
}

impl FullTracker {
    fn new(m: u32, beta: f64) -> Self {
        let m1 = m as usize + 1;
        let mut c_low = vec![f64::INFINITY; m1];
        c_low[0] = 0.0;
        FullTracker {
            beta,
            tau: 0,
            c_low,
            scratch: vec![0.0; m1],
            f_vals: vec![0.0; m1],
            x_low: 0,
            x_up: 0,
        }
    }

    fn step(&mut self, f: &Cost) {
        self.tau += 1;
        self.f_vals.fill(0.0);
        f.add_to(&mut self.f_vals);
        (self.x_low, self.x_up) =
            step_bounds(&self.c_low, self.beta, &self.f_vals, &mut self.scratch);
        std::mem::swap(&mut self.c_low, &mut self.scratch);
    }

    /// A snapshot in the format written before the window: all `m + 1`
    /// states, `+inf` as `f64::MAX`.
    fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            m: self.c_low.len() as u32 - 1,
            beta: self.beta,
            tau: self.tau,
            c_low: self
                .c_low
                .iter()
                .map(|&x| if x.is_finite() { x } else { f64::MAX })
                .collect(),
            c_up: None,
            x_low: self.x_low,
            x_up: self.x_up,
        }
    }
}

/// One step of the full dynamic program: writes `\hat C^L_tau` into
/// `next`, given `\hat C^L_{tau-1}` in `prev` and the values of `f_tau` in
/// `f_vals`, and returns `(x^L_tau, x^U_tau)`. The relaxation is
/// [`rsdc_offline::dp::relax`]'s; for `x^U` the `- beta x` of
/// `\hat C^U(x) = \hat C^L(x) - beta x` goes inside the two candidates.
fn step_bounds(prev: &[f64], beta: f64, f_vals: &[f64], next: &mut [f64]) -> (u32, u32) {
    // Forward: the power-up candidate's running minimum, before `+ beta x`.
    let mut best = f64::INFINITY;
    for (x, (&p, up_min)) in prev.iter().zip(next.iter_mut()).enumerate() {
        let cand = p - beta * x as f64;
        if cand < best {
            best = cand;
        }
        *up_min = best;
    }
    // Backward: the stay-or-power-down candidate (the suffix minimum of
    // `prev`), both value functions and both argmins. Scanning down, `<=`
    // keeps the smallest argmin and `<` the largest.
    let m = prev.len() - 1;
    let mut suffix = f64::INFINITY;
    let (mut best_low, mut x_low) = (f64::INFINITY, 0u32);
    let (mut best_up, mut x_up) = (f64::INFINITY, m as u32);
    let column = prev.iter().zip(f_vals).zip(next.iter_mut());
    for (x, ((&p, &f), next)) in column.enumerate().rev() {
        if p < suffix {
            suffix = p;
        }
        let shift = beta * x as f64;
        let up_min = *next;
        let relaxed_low = if suffix < up_min + shift {
            suffix
        } else {
            up_min + shift
        };
        let relaxed_up = if suffix - shift < up_min {
            suffix - shift
        } else {
            up_min
        };
        let (low, up) = (relaxed_low + f, relaxed_up + f);
        *next = low;
        if low <= best_low {
            x_low = x as u32;
        }
        if low < best_low {
            best_low = low;
        }
        if up < best_up {
            best_up = up;
            x_up = x as u32;
        }
    }
    (x_low, x_up)
}

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

/// Load costs whose low states are infinite, with loads that jump across
/// the fleet: the window must walk from the old bounds to the finite
/// states.
fn load_cost(m: u32) -> impl Strategy<Value = Cost> {
    let mf = m as f64;
    let unit = prop_oneof![
        (0.0f64..2.0, 0.0f64..2.0).prop_map(|(base, slope)| Unit::Affine { base, slope }),
        Just(Unit::Server(ServerParams::default())),
    ];
    (prop_oneof![0.0..mf, (0..=m).prop_map(|l| l as f64)], unit)
        .prop_map(|(lambda, unit)| Cost::load(lambda, unit))
}

/// Costs of order 1e-3 against a `beta` near 1e4: `beta x` dwarfs the
/// values, so the relaxation's `- beta x` and `+ beta x` round them by
/// more than the gaps between neighbouring states. A window cut exactly to
/// `[x^L, x^U]` loses the states those gaps decide; the tracker's window
/// keeps them.
fn tiny_cost(m: u32) -> impl Strategy<Value = Cost> {
    let mf = m as f64;
    prop_oneof![
        (1e-14f64..1e-6, 0.0..mf, 0.0f64..1e-3).prop_map(|(a, c, o)| Cost::quadratic(a, c, o)),
        (1e-12f64..1e-6, 0.0..mf).prop_map(|(s, c)| Cost::abs(s, c)),
        (0.0..mf, 1e-12f64..1e-3, 1e-12f64..1e-3).prop_map(|(knee, l, r)| Cost::Hinge {
            knee,
            left_slope: l,
            right_slope: r,
        }),
        (0.0f64..1e-6).prop_map(Cost::Const),
    ]
}

/// Fleet sizes of the window checks.
fn fleet() -> impl Strategy<Value = u32> {
    prop_oneof![Just(16u32), Just(64u32), Just(1024u32)]
}

/// `x^L` and `x^U` equal, and `\hat C^L` bit-equal on every state (so the
/// minimum is too).
fn assert_matches_full(window: &BoundTracker, full: &FullTracker, ctx: impl Fn() -> String) {
    prop_assert_eq!(window.x_low(), full.x_low, "x^L at {}", ctx());
    prop_assert_eq!(window.x_up(), full.x_up, "x^U at {}", ctx());
    for (x, c) in full.c_low.iter().enumerate() {
        prop_assert_eq!(
            window.c_low(x as u32).to_bits(),
            c.to_bits(),
            "C^L({}) at {}",
            x,
            ctx()
        );
    }
}

/// Step the window and the full tracker through `costs`, and match them
/// after every step.
fn check_against_full(m: u32, beta: f64, costs: &[Cost]) {
    let mut window = BoundTracker::new(m, beta);
    let mut full = FullTracker::new(m, beta);
    for (t, f) in costs.iter().enumerate() {
        window.step(f);
        full.step(f);
        let ctx = || format!("step {t} of m={m} beta={beta} costs={costs:?}");
        assert_matches_full(&window, &full, ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_matches_full_recursion_on_dyadic_ties(
        (m, quarter_beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 1u32..=48, vec(dyadic_cost(m), 1..=30))
        })
    ) {
        check_against_full(m, quarter_beta as f64 / 4.0, &costs);
    }

    #[test]
    fn window_matches_full_recursion_on_decimal_costs(
        (m, beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_cost(m), 1..=30))
        })
    ) {
        check_against_full(m, beta, &costs);
    }

    #[test]
    fn window_matches_full_recursion_on_decimal_flat_runs(
        (m, beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_flat_cost(m), 1..=30))
        })
    ) {
        check_against_full(m, beta, &costs);
    }

    #[test]
    fn window_walks_to_the_finite_states_of_load_costs(
        (m, beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(load_cost(m), 1..=30))
        })
    ) {
        check_against_full(m, beta, &costs);
    }

    #[test]
    fn window_matches_full_recursion_when_beta_dwarfs_costs(
        (m, beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 100.0f64..1e4, vec(tiny_cost(m), 1..=40))
        })
    ) {
        check_against_full(m, beta, &costs);
    }

    /// A snapshot taken mid-stream holds the full recursion's vector bit
    /// for bit; sent through JSON and restored, it continues
    /// bit-identically to the uninterrupted tracker, and so does the full
    /// tracker's own snapshot.
    #[test]
    fn snapshots_restore_mid_stream(
        (m, beta, costs, cut) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_cost(m), 2..=20), 1usize..20)
        })
    ) {
        let cut = cut.min(costs.len() - 1);
        let mut whole = BoundTracker::new(m, beta);
        let mut full = FullTracker::new(m, beta);
        for f in &costs[..cut] {
            whole.step(f);
            full.step(f);
        }
        prop_assert_eq!(whole.snapshot(), full.snapshot());
        let json = serde_json::to_string(&whole.snapshot()).unwrap();
        let snap: TrackerSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&snap, &whole.snapshot());
        let mut restored = BoundTracker::from_snapshot(&snap).unwrap();
        prop_assert_eq!(restored.snapshot(), whole.snapshot());
        for f in &costs[cut..] {
            whole.step(f);
            restored.step(f);
            full.step(f);
            prop_assert_eq!(restored.window(), whole.window());
            prop_assert_eq!(restored.snapshot(), full.snapshot());
        }
    }

    /// The pass reads the suffix minima of a convex window from its
    /// smallest argmin `x^L`, after a compare of every state confirms it.
    /// A restored snapshot whose `x^L` and `x^U` were written elsewhere
    /// fails that compare, and the step takes the exact minima instead: it
    /// still continues bit-identically to the full recursion.
    #[test]
    fn restored_bounds_off_the_minimum_step_exactly(
        (m, beta, costs, cut, x_low, x_up) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_cost(m), 2..=12), 1usize..12, 0..=m, 0..=m)
        })
    ) {
        let cut = cut.min(costs.len() - 1);
        let mut full = FullTracker::new(m, beta);
        for f in &costs[..cut] {
            full.step(f);
        }
        let mut snap = full.snapshot();
        (snap.x_low, snap.x_up) = (x_low, x_up);
        let mut restored = BoundTracker::from_snapshot(&snap).unwrap();
        for (t, f) in costs[cut..].iter().enumerate() {
            restored.step(f);
            full.step(f);
            let ctx = || format!("step {t} after {cut} of m={m} beta={beta} costs={costs:?}");
            assert_matches_full(&restored, &full, ctx);
        }
    }

    /// A snapshot taken before the first step holds `+inf` (written as
    /// `f64::MAX`) on every state but 0. Restored, its window is all
    /// `m + 1` states, the infinities included, and it steps bit-identically
    /// to the full recursion.
    #[test]
    fn never_stepped_snapshots_restore_and_step(
        (m, beta, costs) in fleet().prop_flat_map(|m| {
            (Just(m), 0.05f64..16.0, vec(decimal_cost(m), 1..=20))
        })
    ) {
        let mut full = FullTracker::new(m, beta);
        let json = serde_json::to_string(&BoundTracker::new(m, beta).snapshot()).unwrap();
        let snap: TrackerSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&snap, &full.snapshot());
        let mut restored = BoundTracker::from_snapshot(&snap).unwrap();
        let (lo, window) = restored.window();
        prop_assert_eq!((lo, window.len()), (0, m as usize + 1));
        prop_assert!(window[1..].iter().all(|c| *c == f64::INFINITY));
        for (t, f) in costs.iter().enumerate() {
            restored.step(f);
            full.step(f);
            let ctx = || format!("step {t} of m={m} beta={beta} costs={costs:?}");
            assert_matches_full(&restored, &full, ctx);
        }
    }
}

/// `Server` costs on a noisy diurnal load over `m` servers: the `large-m`
/// benchmark's shape.
fn diurnal_server_costs(m: u32, slots: usize) -> Vec<Cost> {
    (0..slots)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * (k as f64 + 7.0) / 48.0;
            let noise = ((k * 37 % 101) as f64 / 50.0 - 1.0) * 0.1;
            let lambda = (0.5 - 0.3 * angle.cos()) * m as f64 * (1.0 + noise);
            Cost::Server {
                lambda: (lambda * 16.0).round() / 16.0,
                params: ServerParams::default(),
                overload: 20.0,
            }
        })
        .collect()
}

/// The `large-m` shape at m = 1024 and at `MAX_M` = 65 536: the window
/// reproduces the full recursion on every state.
#[test]
fn window_matches_full_recursion_on_diurnal_server_costs() {
    for (m, slots) in [(1024u32, 600usize), (65_536, 40)] {
        check_against_full(m, 6.0, &diurnal_server_costs(m, slots));
    }
}

/// Bounds, window and `\hat C^L` at every state, bit for bit.
fn assert_same(a: &BoundTracker, b: &BoundTracker, m: u32, ctx: &str) {
    assert_eq!((a.x_low(), a.x_up()), (b.x_low(), b.x_up()), "{ctx}");
    assert_eq!(a.window(), b.window(), "{ctx}");
    for x in 0..=m {
        assert_eq!(a.c_low(x).to_bits(), b.c_low(x).to_bits(), "x={x} {ctx}");
    }
}

/// Lookahead steps a peek: `peek.clone_from(&t)`, then the next slots. On
/// the `large-m` costs at m = 1024, a peek that held another state before
/// must equal the tracker it copied, and then match a fresh clone stepped
/// the same way, on the bounds, the window and `\hat C^L` at every state:
/// whatever a step or `c_low` reads, `clone_from` copies.
#[test]
fn clone_from_peeks_match_fresh_clones() {
    let m = 1024;
    let costs = diurnal_server_costs(m, 200);
    let mut tracker = BoundTracker::new(m, 6.0);
    let mut peek = BoundTracker::new(m, 6.0);
    for (t, f) in costs.iter().enumerate() {
        peek.clone_from(&tracker);
        assert_same(&peek, &tracker, m, &format!("copy at slot {t}"));
        let mut fresh = tracker.clone();
        for (k, g) in costs[t..].iter().take(3).enumerate() {
            peek.step(g);
            fresh.step(g);
            assert_same(&peek, &fresh, m, &format!("peek {k} from slot {t}"));
        }
        tracker.step(f);
    }
}

/// A case the window's margin states exist for (found by a randomized
/// search over [`tiny_cost`] shapes): cut exactly to `[x^L, x^U]`, the
/// window reads one state of step 18 an ulp off the full recursion.
#[test]
fn window_keeps_the_states_rounding_decides() {
    let costs = [
        Cost::Const(5.875905367052878e-7),
        Cost::Quadratic {
            a: 9.345695195381559e-7,
            center: 427.16672642198705,
            offset: 0.0006467825243190536,
        },
        Cost::Quadratic {
            a: 5.473177586518635e-7,
            center: 980.7634509905346,
            offset: 0.0006498793550150375,
        },
        Cost::Quadratic {
            a: 6.340179717798994e-7,
            center: 654.8667521047511,
            offset: 0.0005676163452610737,
        },
        Cost::Hinge {
            knee: 91.09375175622279,
            left_slope: 0.0005988789273270588,
            right_slope: 0.0004851462702781525,
        },
        Cost::Hinge {
            knee: 382.8626136375119,
            left_slope: 1.54859451036318e-5,
            right_slope: 3.616510961569496e-5,
        },
        Cost::Hinge {
            knee: 139.71819018140502,
            left_slope: 0.0006982929177419347,
            right_slope: 0.0009185787244097404,
        },
        Cost::Const(3.101885852784183e-7),
        Cost::Quadratic {
            a: 2.0456790851936002e-7,
            center: 309.40604940290166,
            offset: 0.0006343581955767346,
        },
        Cost::Abs {
            slope: 7.935396602720736e-7,
            center: 16.509504310522857,
        },
        Cost::Hinge {
            knee: 997.8112531943414,
            left_slope: 0.00036798518416404684,
            right_slope: 0.0005730671357759185,
        },
        Cost::Quadratic {
            a: 9.858489659351676e-7,
            center: 799.2120255787227,
            offset: 0.0006303452938634659,
        },
        Cost::Abs {
            slope: 2.9754745159952815e-7,
            center: 227.89999135201947,
        },
        Cost::Abs {
            slope: 5.808650016556576e-7,
            center: 1018.3942959304449,
        },
        Cost::Hinge {
            knee: 579.3073667121691,
            left_slope: 0.00014035216455410664,
            right_slope: 0.0009035802862414332,
        },
        Cost::Quadratic {
            a: 2.4427018324698457e-7,
            center: 589.4057759878364,
            offset: 0.00011796994357251023,
        },
        Cost::Const(3.941140791807227e-7),
        Cost::Abs {
            slope: 7.39838342259459e-8,
            center: 957.492776151217,
        },
        Cost::Abs {
            slope: 2.0377339232118775e-7,
            center: 151.20112879177543,
        },
    ];
    check_against_full(1024, 8913.038036035241, &costs);
}

/// Two wells `0.5e-6` apart in depth behind a bump `0.4e-6` high, on
/// values near 1e6: slightly concave over 600 states, yet no state lies
/// more than [`rsdc_core::CONVEX_RTOL`] of its value above the convex hull, so
/// `check_convex` accepts it. `mirror` swaps the wells.
fn shallow_wells(m: u32, bump: f64, mirror: bool) -> Cost {
    let v = 1e6;
    let vals = (0..=m)
        .map(|i| {
            let x = if mirror { m - i } else { i } as f64;
            if x < 200.0 {
                v + 1e-3 * (200.0 - x)
            } else if x <= 800.0 {
                let s = (x - 200.0) / 600.0;
                v - 0.5e-6 * s + bump * (std::f64::consts::PI * s).sin()
            } else {
                v - 0.5e-6 + 1e-3 * (x - 800.0)
            }
        })
        .collect();
    Cost::table(vals)
}

/// Costs that pass `check_convex` while bending concave by up to its
/// allowance over a long stretch: the window still matches the full
/// recursion bit for bit, because the allowance is far inside its
/// rounding margin. A bump five times higher is refused.
#[test]
fn window_matches_full_recursion_on_costs_concave_within_the_allowance() {
    let m = 1024;
    assert!(shallow_wells(m, 2e-6, false).check_convex(m).is_err());
    let costs: Vec<Cost> = (0..24)
        .map(|t| shallow_wells(m, 0.4e-6, t % 5 < 2))
        .collect();
    for f in &costs {
        f.check_convex(m).unwrap();
    }
    for beta in [1e-9, 1e-3, 1.0] {
        check_against_full(m, beta, &costs);
    }
}

/// Priced autoscaling feeds the tracker `events / s + price s watts(..)`
/// over at most 256 shard counts. With a convex watt curve every tick
/// cost is convex and the window matches the full recursion; a concave
/// (SPEC-style) curve, on which a window search could stop at a local
/// minimum, is refused when the policy is configured.
#[test]
fn priced_autoscale_costs_match_the_full_recursion() {
    use rsdc_engine::{PowerConfig, PowerSpec, PriceSchedule, TopologyConfig};
    let priced = |points: Vec<f64>| {
        let mut cfg = TopologyConfig::new(1, 256);
        cfg.pricing = Some(PowerConfig {
            model: PowerSpec::Piecewise { points },
            capacity: 1500.0,
            price: PriceSchedule::Step {
                period: 7,
                prices: vec![1.0, 0.25, 3.0],
            },
        });
        cfg
    };
    let concave = priced(vec![0.0, 100.0, 100.0]);
    let err = concave.validate().unwrap_err();
    assert!(err.contains("convex watt curve"), "{err}");

    let cfg = priced(vec![60.0, 80.0, 130.0, 250.0]);
    cfg.validate().unwrap();
    let m = cfg.max_shards as u32 - cfg.min_shards as u32;
    let costs: Vec<Cost> = (0..200u64)
        .map(|tick| {
            let angle = 2.0 * std::f64::consts::PI * tick as f64 / 48.0;
            let events = (100_000.0 * (1.1 - angle.cos())).round();
            let f = cfg.tick_cost(tick, events);
            f.check_convex(m).unwrap();
            f
        })
        .collect();
    for beta in [cfg.switch_cost, 1.0, 500.0] {
        check_against_full(m, beta, &costs);
    }
}

/// A library caller that skips the policy's validation still cannot hand
/// the trackers a concave cost through an [`Instance`]: the priced tick
/// cost of a concave watt curve (`piecewise:0,100,100`, 10 000 events,
/// capacity 1500, m = 255), on which a window search stops at a local
/// minimum, is refused at construction.
#[test]
fn instance_refuses_the_concave_priced_tick_cost() {
    use rsdc_engine::{PowerConfig, PowerSpec, PriceSchedule, TopologyConfig};
    let mut cfg = TopologyConfig::new(1, 256);
    cfg.pricing = Some(PowerConfig {
        model: PowerSpec::Piecewise {
            points: vec![0.0, 100.0, 100.0],
        },
        capacity: 1500.0,
        price: PriceSchedule::Constant { price: 1.0 },
    });
    let m = cfg.max_shards as u32 - cfg.min_shards as u32;
    assert_eq!(m, 255);
    let f = cfg.tick_cost(0, 10_000.0);
    match Instance::new(m, 8.0, vec![Cost::Zero, f]) {
        Err(Error::NotConvex { t, .. }) => assert_eq!(t, 2),
        other => panic!("expected NotConvex at slot 2, got {other:?}"),
    }
}
