//! The curated scenario zoo: the CI regression fleet.
//!
//! Each entry pairs a [`ScenarioSpec`] with the [`Bounds`] its report
//! must satisfy. The zoo runs in two sizes: `quick` (push CI, ~120
//! ticks) and full (nightly heavy job, ~960 ticks); the specs are
//! identical up to horizon scaling, so a quick pass is a faithful
//! miniature of the nightly run.

use crate::spec::{
    Bounds, EngineKnobs, FaultAction, ScenarioSpec, SkewStorm, SurgeWave, TenantMix, WorkloadSource,
};
use rsdc_engine::{AdmissionConfig, TopologyConfig};
use rsdc_power::{PowerConfig, PowerSpec, PriceSchedule};
use rsdc_workloads::traces::{Bursty, Diurnal, Spiky, Weekly};

/// A zoo entry: what to run and what the run must look like.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The runnable spec.
    pub spec: ScenarioSpec,
    /// The regression contract.
    pub bounds: Bounds,
}

/// LCP is 3-competitive; the fleet allows a hair of float-summation
/// slack on top of the theorem bound.
pub const LCP_RATIO_BOUND: f64 = 3.05;

fn horizon(quick: bool) -> usize {
    if quick {
        120
    } else {
        960
    }
}

/// The linear power model + square-wave tariff shared by the priced
/// scenarios.
fn square_wave_power(t_len: usize) -> PowerConfig {
    PowerConfig {
        model: PowerSpec::Linear {
            idle: 100.0,
            peak: 250.0,
        },
        capacity: 8.0,
        price: PriceSchedule::Step {
            period: (t_len as u64 / 8).max(1),
            prices: vec![1.0, 3.5],
        },
    }
}

/// The full regression fleet, in stable order.
pub fn zoo(quick: bool) -> Vec<Scenario> {
    let t = horizon(quick);
    let out = vec![
        // 1. The baseline: a plain diurnal day against eight LCP tenants.
        //    Pins the end-to-end online/OPT ratio at the theorem bound.
        Scenario {
            spec: ScenarioSpec {
                name: "diurnal-baseline".into(),
                summary: "Diurnal load, 8 scalar LCP tenants, no faults: the ratio pin".into(),
                seed: 11,
                t_len: t,
                workload: WorkloadSource::Diurnal(Diurnal::default()),
                tenants: TenantMix::scalar_lcp(8, 8, 4.0),
                knobs: EngineKnobs {
                    shards: 2,
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                ..Bounds::default()
            },
        },
        // 2. Bursty load plus a surge wave of short-lived tenants, with the
        //    autoscale policy free to react: the topology must actually move.
        Scenario {
            spec: ScenarioSpec {
                name: "bursty-autoscale".into(),
                summary: "Bursty load + tenant surge wave under lazy autoscaling".into(),
                seed: 23,
                t_len: t,
                workload: WorkloadSource::Bursty(Bursty::default()),
                tenants: TenantMix {
                    surge: Some(SurgeWave {
                        tenants: 12,
                        from: t / 4,
                        until: 3 * t / 4,
                    }),
                    ..TenantMix::scalar_lcp(6, 8, 4.0)
                },
                knobs: EngineKnobs {
                    shards: 2,
                    autoscale: Some(TopologyConfig {
                        switch_cost: 4.0,
                        ..TopologyConfig::new(1, 6)
                    }),
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                min_rebalances: 1,
                ..Bounds::default()
            },
        },
        // 3. A skew storm concentrates 85% of the load on one victim tenant
        //    while forced rebalances reshape the ring mid-storm.
        Scenario {
            spec: ScenarioSpec {
                name: "skew-storm".into(),
                summary: "85% load skew onto one tenant across forced incremental rebalances"
                    .into(),
                seed: 37,
                t_len: t,
                workload: WorkloadSource::Diurnal(Diurnal::default()),
                tenants: TenantMix {
                    skew: Some(SkewStorm {
                        from: t / 3,
                        until: 2 * t / 3,
                        victim_share: 0.85,
                    }),
                    ..TenantMix::scalar_lcp(8, 8, 4.0)
                },
                knobs: EngineKnobs {
                    shards: 2,
                    ..EngineKnobs::default()
                },
                faults: vec![
                    FaultAction::Rebalance {
                        at: t / 3,
                        shards: 4,
                    },
                    FaultAction::Rebalance {
                        at: 2 * t / 3,
                        shards: 2,
                    },
                ],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                min_rebalances: 2,
                ..Bounds::default()
            },
        },
        // 4. A square-wave electricity tariff with the priced autoscaler:
        //    the energy meter must bill the run and the ratio must hold.
        Scenario {
            spec: ScenarioSpec {
                name: "price-squarewave".into(),
                summary: "Square-wave tariff, metered energy, priced autoscaling".into(),
                seed: 41,
                t_len: t,
                workload: WorkloadSource::Diurnal(Diurnal::default()),
                tenants: TenantMix::scalar_lcp(4, 8, 4.0),
                knobs: EngineKnobs {
                    shards: 2,
                    power: Some(square_wave_power(t)),
                    autoscale: Some(TopologyConfig {
                        pricing: Some(square_wave_power(t)),
                        ..TopologyConfig::new(1, 4)
                    }),
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                require_energy: true,
                ..Bounds::default()
            },
        },
        // 5. Crash mid-migration, recover, checkpoint, crash again: the
        //    durability pin. Every offered event must be accounted for and
        //    replay must be error-free across both recoveries.
        Scenario {
            spec: ScenarioSpec {
                name: "crash-recovery".into(),
                summary: "Kill mid-incremental-migration and after a checkpoint; zero lost events"
                    .into(),
                seed: 53,
                t_len: t,
                workload: WorkloadSource::Diurnal(Diurnal::default()),
                tenants: TenantMix::scalar_lcp(6, 8, 4.0),
                knobs: EngineKnobs {
                    shards: 2,
                    durable: true,
                    ..EngineKnobs::default()
                },
                faults: vec![
                    FaultAction::Rebalance {
                        at: t / 4,
                        shards: 3,
                    },
                    FaultAction::Kill { at: t / 4 + 1 },
                    FaultAction::Checkpoint { at: t / 2 },
                    FaultAction::Kill { at: 3 * t / 4 },
                ],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                min_recoveries: 2,
                min_rebalances: 1,
                ..Bounds::default()
            },
        },
        // 6. The Section 5.4 adversary: dilated alternating load that erodes
        //    fixed-window lookahead. LCP's memoryless bound must still hold.
        Scenario {
            spec: ScenarioSpec {
                name: "adversarial-dilation".into(),
                summary: "Dilated alternating adversary (n=2, w=3) against LCP".into(),
                seed: 67,
                t_len: t,
                workload: WorkloadSource::Dilated {
                    peak: 6.0,
                    period: 2,
                    n: 2,
                    w: 3,
                },
                tenants: TenantMix::scalar_lcp(4, 8, 6.0),
                knobs: EngineKnobs {
                    shards: 2,
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                ..Bounds::default()
            },
        },
        // 7. A mixed fleet: scalar LCP tenants next to heterogeneous
        //    two-type fleets on a weekly trace. The ratio pin covers the
        //    opt-tracked scalar half; the hetero half must simply serve.
        Scenario {
            spec: ScenarioSpec {
                name: "hetero-fleet".into(),
                summary: "4 scalar LCP + 4 heterogeneous two-type fleet tenants, weekly load"
                    .into(),
                seed: 79,
                t_len: t,
                workload: WorkloadSource::Weekly(Weekly::default()),
                tenants: TenantMix {
                    hetero: 4,
                    ..TenantMix::scalar_lcp(4, 8, 4.0)
                },
                knobs: EngineKnobs {
                    shards: 2,
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                max_ratio: Some(LCP_RATIO_BOUND),
                ..Bounds::default()
            },
        },
        // 8. Cold-start flood: more tenants than the cap, a surge wave on
        //    top, and a sub-1/tick token bucket. Admission must visibly
        //    reject and throttle — and still lose nothing.
        Scenario {
            spec: ScenarioSpec {
                name: "cold-start-flood".into(),
                summary: "Over-cap tenant flood with rate limiting: reject, throttle, lose nothing"
                    .into(),
                seed: 83,
                t_len: t,
                workload: WorkloadSource::Spiky(Spiky::default()),
                tenants: TenantMix {
                    surge: Some(SurgeWave {
                        tenants: 8,
                        from: t / 3,
                        until: 2 * t / 3,
                    }),
                    ..TenantMix::scalar_lcp(12, 8, 4.0)
                },
                knobs: EngineKnobs {
                    shards: 2,
                    admission: Some(AdmissionConfig {
                        max_tenants: 10,
                        rate: 0.6,
                        burst: 1.0,
                    }),
                    ..EngineKnobs::default()
                },
                faults: vec![],
            },
            bounds: Bounds {
                min_rejected: 2,
                min_throttled: 1,
                ..Bounds::default()
            },
        },
    ];
    out
}

/// Look up one zoo scenario by name.
pub fn find(name: &str, quick: bool) -> Option<Scenario> {
    zoo(quick).into_iter().find(|s| s.spec.name == name)
}

/// The zoo's scenario names, in fleet order.
pub fn names() -> Vec<String> {
    zoo(true).into_iter().map(|s| s.spec.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_specs_validate_in_both_sizes() {
        for quick in [true, false] {
            let fleet = zoo(quick);
            assert_eq!(fleet.len(), 8);
            for s in &fleet {
                s.spec.validate().unwrap_or_else(|e| {
                    panic!("zoo spec {:?} (quick={quick}) invalid: {e}", s.spec.name)
                });
            }
        }
    }

    #[test]
    fn zoo_names_are_unique_and_stable() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate zoo names");
        assert_eq!(names[0], "diurnal-baseline");
        assert!(names.contains(&"crash-recovery".to_string()));
        assert!(names.contains(&"adversarial-dilation".to_string()));
    }

    #[test]
    fn find_resolves_every_name() {
        for name in names() {
            assert!(find(&name, true).is_some(), "find({name:?}) failed");
        }
        assert!(find("no-such-scenario", true).is_none());
    }
}
