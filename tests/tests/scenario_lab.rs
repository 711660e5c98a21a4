//! Scenario lab pins: the regression fleet's determinism and bounds.
//!
//! Three layers:
//!
//! 1. **Golden determinism** — every zoo scenario, run twice with the
//!    same seed, yields byte-identical `ScenarioReport::golden_json()`.
//!    This is the contract that lets `BENCH_scenarios.json` be checked
//!    in and diffed: a changed byte means changed behavior, not noise.
//! 2. **Bounds** — each quick-fleet report satisfies its per-scenario
//!    `Bounds` (online/OPT ratio at the theorem bound, zero lost events
//!    across crash recoveries, visible rejections under flood, ...).
//! 3. **Spec fuzz** (heavy, `--ignored`) — randomized `ScenarioSpec`s
//!    must either be refused by validation or run to a report that
//!    accounts for every event and stays golden-deterministic.

use proptest::prelude::*;
use rsdc_scenarios::{
    run, zoo, EngineKnobs, FaultAction, ScenarioSpec, SkewStorm, SurgeWave, TenantMix,
    WorkloadSource,
};
use rsdc_workloads::traces::{Bursty, Diurnal, Spiky};

#[test]
fn zoo_reports_are_golden_deterministic() {
    for scenario in zoo::zoo(true) {
        let name = scenario.spec.name.clone();
        let first = run(&scenario.spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let second = run(&scenario.spec).unwrap_or_else(|e| panic!("{name} (rerun): {e}"));
        assert_eq!(
            first.golden_json(),
            second.golden_json(),
            "{name}: two same-seed runs diverged"
        );
    }
}

#[test]
fn zoo_reports_satisfy_their_bounds() {
    for scenario in zoo::zoo(true) {
        let name = scenario.spec.name.clone();
        let report = run(&scenario.spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let violations = scenario.bounds.check(&report);
        assert!(
            violations.is_empty(),
            "{name}: bounds violated: {violations:?}\n{}",
            report.summary_line()
        );
    }
}

#[test]
fn crash_recovery_loses_nothing_and_replays_cleanly() {
    let scenario = zoo::find("crash-recovery", true).expect("zoo has crash-recovery");
    let report = run(&scenario.spec).unwrap();
    assert_eq!(report.recoveries, 2, "both kill-points must recover");
    assert_eq!(report.events_lost, 0);
    assert_eq!(report.replay_errors, 0);
    assert!(
        report.events_replayed > 0,
        "a kill after live traffic must replay events from the WAL"
    );
    assert!(report.checkpoints >= 1);
    assert_eq!(report.events_offered, report.events_applied);
}

#[test]
fn adversarial_dilation_stays_within_the_lcp_bound() {
    let scenario = zoo::find("adversarial-dilation", true).unwrap();
    let report = run(&scenario.spec).unwrap();
    let ratio = report.ratio.expect("dilated scalar tenants track OPT");
    assert!(
        ratio <= zoo::LCP_RATIO_BOUND,
        "dilated adversary broke the bound: {ratio}"
    );
    // Dilation multiplies the horizon: 120 ticks requested, n*w = 6.
    assert_eq!(report.ticks, 120);
}

#[test]
fn cold_start_flood_rejects_and_throttles_visibly() {
    let scenario = zoo::find("cold-start-flood", true).unwrap();
    let report = run(&scenario.spec).unwrap();
    assert!(report.tenants_rejected >= 2, "{}", report.summary_line());
    assert!(report.events_throttled > 0);
    assert_eq!(report.events_lost, 0);
    assert_eq!(
        report.events_offered,
        report.events_applied + report.events_throttled + report.events_failed
    );
}

// ---------------------------------------------------------------------------
// Heavy spec fuzz: arbitrary specs either validate-refuse or run clean.
// ---------------------------------------------------------------------------

fn arb_workload() -> impl Strategy<Value = WorkloadSource> {
    prop_oneof![
        Just(WorkloadSource::Diurnal(Diurnal::default())),
        Just(WorkloadSource::Bursty(Bursty::default())),
        Just(WorkloadSource::Spiky(Spiky::default())),
        (1.0..8.0f64, 1usize..4, 1usize..3, 1usize..3)
            .prop_map(|(peak, period, n, w)| { WorkloadSource::Dilated { peak, period, n, w } }),
        proptest::collection::vec(0.0..6.0f64, 1..40).prop_map(|loads| {
            WorkloadSource::Inline {
                label: "fuzz".into(),
                loads,
            }
        }),
    ]
}

fn arb_skew() -> impl Strategy<Value = Option<SkewStorm>> {
    prop_oneof![
        Just(None),
        (0usize..40, 1usize..40, 0.1..1.0f64).prop_map(|(from, len, victim_share)| {
            Some(SkewStorm {
                from,
                until: from + len,
                victim_share,
            })
        }),
    ]
}

fn arb_surge() -> impl Strategy<Value = Option<SurgeWave>> {
    prop_oneof![
        Just(None),
        (1usize..5, 0usize..40, 1usize..40).prop_map(|(tenants, from, len)| {
            Some(SurgeWave {
                tenants,
                from,
                until: from + len,
            })
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            arb_workload(),
            1usize..5,  // scalar tenants
            0usize..3,  // hetero tenants
            8usize..48, // t_len
            0u64..1000, // seed
        ),
        (
            arb_skew(),
            arb_surge(),
            // Forced rebalance tick; 40+ disables it.
            0usize..80,
            // Durable store (enables a mid-run kill).
            prop_oneof![Just(false), Just(true)],
        ),
    )
        .prop_map(
            |((workload, scalar, hetero, t_len, seed), (skew, surge, reb_at, durable))| {
                let reb = (reb_at < 40).then_some(reb_at);
                let mut faults = Vec::new();
                if let Some(at) = reb {
                    faults.push(FaultAction::Rebalance { at, shards: 3 });
                }
                if durable && t_len > 4 {
                    faults.push(FaultAction::Kill { at: t_len / 2 });
                }
                ScenarioSpec {
                    name: "fuzz".into(),
                    summary: "randomized spec".into(),
                    seed,
                    t_len,
                    workload,
                    tenants: TenantMix {
                        hetero,
                        skew,
                        surge,
                        ..TenantMix::scalar_lcp(scalar, 6, 3.0)
                    },
                    knobs: EngineKnobs {
                        shards: 2,
                        durable,
                        ..EngineKnobs::default()
                    },
                    faults,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(rsdc_tests::heavy_cases(48)))]

    /// Heavy: any spec either fails validation with a message or runs to
    /// a fully-accounted, golden-deterministic report. Never a panic.
    #[test]
    #[ignore]
    fn random_specs_run_clean_or_refuse(spec in arb_spec()) {
        match run(&spec) {
            Err(msg) => prop_assert!(!msg.is_empty()),
            Ok(report) => {
                prop_assert_eq!(report.events_lost, 0, "events lost: {}", report.summary_line());
                prop_assert_eq!(report.replay_errors, 0);
                prop_assert!(report.online_cost.is_finite() && report.online_cost >= 0.0);
                prop_assert!(report.opt_cost.is_finite() && report.opt_cost >= 0.0);
                if let Some(r) = report.ratio {
                    prop_assert!(r.is_finite() && r > 0.0);
                }
                let again = run(&spec).expect("second run of a runnable spec");
                prop_assert_eq!(
                    report.golden_json(),
                    again.golden_json(),
                    "same-seed runs diverged"
                );
            }
        }
    }
}
