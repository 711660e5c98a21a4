//! # rsdc-bench — experiment harness and benchmarks
//!
//! Regenerates every artifact of the paper (see the DESIGN.md experiment
//! index E1–E12). Run all of them with
//!
//! ```text
//! cargo run -p rsdc-bench --release --bin experiments
//! ```
//!
//! or one by id (`experiments e5`), with `--quick` for reduced sizes. The
//! Criterion micro-benchmarks live under `benches/`:
//!
//! * `offline_scaling` — DP vs binary search across `m` and `T` (E3's
//!   microscope);
//! * `online_step` — per-step cost of LCP and the bound tracker;
//! * `rounding` — throughput of the randomized rounding;
//! * `sim_throughput` — slots/second of the cluster simulator.
//!
//! Engine and wire speeds are measured by one binary, `engine_bench`
//! (`cargo run --release -p rsdc-bench --bin engine_bench`), which
//! records `BENCH_engine.json`; `scenario_bench` records the scenario
//! fleet's `BENCH_scenarios.json`.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::{fmt, Report};
