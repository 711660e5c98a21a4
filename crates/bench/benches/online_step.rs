//! Criterion bench: per-step cost of the online machinery (supports E4).
//!
//! LCP's step is O(x^U - x^L + moved): the bound tracker relaxes
//! `\hat C^L` on its window around the bounds (Lemma 7 derives `\hat C^U`
//! from it) and adds the slot cost on a slice grown from the old bounds.
//! `server_m1024` prices the `large-m` shape: `Server` costs on a diurnal
//! load at m = 1024, through the bare tracker and through LCP+OPT and
//! HalfStep+OPT tenants; its `tracker_m65536` row runs the bare tracker on
//! the same load shape at the engine's `MAX_M`, where the window's
//! sublinear scaling shows against the m = 1024 row.
//! `hetero/frontier_step` prices one `FrontierDp` step (O(S * D): one
//! scalar relaxation per lattice line along each axis) on the `durable-mixed`
//! 12+6 fleet (S = 91) and on a 63 x 63 fleet at the lattice cap
//! (S = 4096).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsdc_core::prelude::*;
use rsdc_engine::tenant::MAX_M;
use rsdc_engine::tenant::{StepScratch, Tenant};
use rsdc_engine::{PolicySpec, TenantConfig};
use rsdc_hetero::{FleetSpec, FrontierDp, ServerType};
use rsdc_online::bounds::BoundTracker;
use rsdc_online::lcp::Lcp;
use rsdc_online::traits::OnlineAlgorithm;
use std::hint::black_box;

fn bench_lcp_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/lcp_full_run_T1024");
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::abs(1.0, (t % (m as usize + 1)) as f64))
            .collect();
        group.bench_with_input(BenchmarkId::new("lcp", m), &costs, |b, costs| {
            b.iter(|| {
                let mut lcp = Lcp::new(m, 2.0);
                let mut acc = 0u64;
                for f in costs {
                    acc += lcp.step(black_box(f)) as u64;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_tracker_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("online/bound_tracker_T1024");
    for m in [16u32, 256, 4096] {
        let costs: Vec<Cost> = (0..1024)
            .map(|t| Cost::quadratic(0.5, (t % (m as usize + 1)) as f64, 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::new("tracker", m), &costs, |b, costs| {
            b.iter(|| {
                let mut tr = BoundTracker::new(m, 2.0);
                for f in costs {
                    tr.step(black_box(f));
                }
                black_box((tr.x_low(), tr.x_up()))
            })
        });
    }
    group.finish();
}

/// 256 `Server` slot costs on a noisy diurnal load over `m` servers.
fn diurnal_server_costs(m: u32) -> Vec<Cost> {
    let cap = m as f64;
    (0..256)
        .map(|k| {
            let angle = 2.0 * std::f64::consts::PI * k as f64 / 48.0;
            let noise = ((k * 37 % 101) as f64 / 50.0 - 1.0) * 0.1;
            let lambda = (0.4 - 0.3 * angle.cos()) * cap * (1.0 + noise);
            Cost::Server {
                lambda: (lambda * 16.0).round() / 16.0,
                params: ServerParams::default(),
                overload: 20.0,
            }
        })
        .collect()
}

fn bench_server_m1024(c: &mut Criterion) {
    const M: u32 = 1024;
    const BETA: f64 = 6.0;
    let costs = diurnal_server_costs(M);
    let mut group = c.benchmark_group("online/server_m1024_T256");
    group.bench_function("tracker", |b| {
        b.iter(|| {
            let mut tr = BoundTracker::new(M, BETA);
            for f in &costs {
                tr.step(black_box(f));
            }
            black_box((tr.x_low(), tr.x_up()))
        })
    });
    let big = diurnal_server_costs(MAX_M);
    group.bench_function("tracker_m65536", |b| {
        b.iter(|| {
            let mut tr = BoundTracker::new(MAX_M, BETA);
            for f in &big {
                tr.step(black_box(f));
            }
            black_box((tr.x_low(), tr.x_up()))
        })
    });
    for (name, policy) in [
        ("lcp_opt_tenant", PolicySpec::Lcp),
        (
            "halfstep_opt_tenant",
            PolicySpec::HalfStepRounded { seed: 1 },
        ),
    ] {
        let cfg = TenantConfig::new("t", M, BETA, policy).with_opt_tracking();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut tenant = Tenant::new(cfg.clone()).expect("valid tenant");
                let mut scratch = StepScratch::default();
                for f in &costs {
                    tenant
                        .step_into(black_box(f), None, &mut scratch)
                        .expect("scalar step");
                }
                black_box(tenant.report().opt_cost)
            })
        });
    }
    group.finish();
}

/// Two classes (power-up betas 4 and 10) of `small` and `large` machines.
fn two_class_fleet(small: u32, large: u32) -> FleetSpec {
    FleetSpec::new(vec![
        ServerType {
            count: small,
            beta: 4.0,
            energy: 1.0,
            capacity: 1.0,
        },
        ServerType {
            count: large,
            beta: 10.0,
            energy: 1.6,
            capacity: 2.0,
        },
    ])
}

fn bench_frontier_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("hetero/frontier_step");
    for fleet in [two_class_fleet(12, 6), two_class_fleet(63, 63)] {
        let cap: f64 = fleet
            .types
            .iter()
            .map(|t| t.count as f64 * t.capacity)
            .sum();
        let costs: Vec<_> = (0..48)
            .map(|k| {
                let angle = 2.0 * std::f64::consts::PI * k as f64 / 48.0;
                fleet.hcost((0.4 - 0.3 * angle.cos()) * cap)
            })
            .collect();
        // Warm the frontier so every timed step is a steady-state step.
        let mut dp = FrontierDp::new(&fleet.types);
        for cost in &costs {
            dp.step_cost(cost);
        }
        let mut k = 0usize;
        let id = BenchmarkId::new("lattice", fleet.lattice_size());
        group.bench_function(id, |b| {
            b.iter(|| {
                k += 1;
                dp.step_cost(black_box(&costs[k % costs.len()]))
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lcp_step, bench_tracker_step, bench_server_m1024, bench_frontier_step
);
criterion_main!(benches);
