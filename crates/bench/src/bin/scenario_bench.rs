//! The scenario regression fleet runner: executes the curated zoo from
//! `rsdc-scenarios` end to end, checks every report against its
//! per-scenario bounds, and writes the comparable trajectory that is
//! checked in as `BENCH_scenarios.json` at the repo root.
//!
//! Unlike `engine_bench` (wall-clock rates, machine-dependent), every
//! number here except the zeroed wall section is **deterministic** in
//! the scenario seeds: reports are embedded in their golden rendering
//! (`ScenarioReport::golden_json`), so the checked-in file is
//! byte-reproducible and diffs only when behavior changes.
//!
//! USAGE: scenario_bench [--quick] [--out FILE] [--validate FILE]
//!
//! `--quick` runs the 120-tick fleet (push CI); the default is the
//! 960-tick nightly horizon. `--validate` checks an existing file
//! against the schema — fleet complete, bounds satisfied, every metric
//! finite — and exits 1 on mismatch. Any other argument, or an option
//! without its value, exits 2 before any work. One `name: ratio=...`
//! summary line per scenario goes to stderr either way.

use rsdc_bench::{validate_file, write_doc, Args};
use rsdc_scenarios::zoo;

/// Schema tag validated by `--validate`; bump on shape changes.
const SCHEMA: &str = "rsdc-scenarios-bench/v1";

/// Every zoo scenario a valid document must carry, in fleet order.
const FLEET: [&str; 8] = [
    "diurnal-baseline",
    "bursty-autoscale",
    "skew-storm",
    "price-squarewave",
    "crash-recovery",
    "adversarial-dilation",
    "hetero-fleet",
    "cold-start-flood",
];

/// Schema check: fleet complete, every report well-formed, every bounds
/// check clean. Returns the list of violations (empty = valid).
pub fn validate(doc: &serde::Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc["schema"].as_str() != Some(SCHEMA) {
        errs.push(format!("schema != {SCHEMA:?}"));
    }
    let rows = match doc["results"]["scenarios"].as_array() {
        Some(rows) if !rows.is_empty() => rows,
        _ => {
            errs.push("results.scenarios: missing or empty".into());
            return errs;
        }
    };
    for name in FLEET {
        if !rows.iter().any(|r| r["name"].as_str() == Some(name)) {
            errs.push(format!("scenario {name:?} missing from fleet"));
        }
    }
    for row in rows {
        let name = row["name"].as_str().unwrap_or("<unnamed>");
        match row["violations"].as_array() {
            Some(v) if v.is_empty() => {}
            Some(v) => {
                for violation in v {
                    let text = violation.as_str().unwrap_or("<non-string violation>");
                    errs.push(format!("{name}: bound violated: {text}"));
                }
            }
            None => errs.push(format!("{name}: violations field missing")),
        }
        let report = &row["report"];
        for field in ["online_cost", "opt_cost"] {
            match report[field].as_f64() {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => errs.push(format!("{name}: report.{field}: not a finite non-negative")),
            }
        }
        for field in ["ticks", "events_offered", "events_applied"] {
            match report[field].as_f64() {
                Some(v) if v > 0.0 => {}
                _ => errs.push(format!("{name}: report.{field}: not positive")),
            }
        }
        if report["events_lost"].as_f64() != Some(0.0) {
            errs.push(format!("{name}: report.events_lost: nonzero or missing"));
        }
    }
    errs
}

fn main() {
    let args = Args::from_env("scenario_bench", &["--quick"], &["--out", "--validate"]);
    if let Some(path) = args.opt("--validate") {
        validate_file(path, SCHEMA, validate);
    }

    let quick = args.flag("--quick");
    eprintln!(
        "scenario_bench: running the {}-scenario fleet{}",
        FLEET.len(),
        if quick { " (quick)" } else { "" }
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for scenario in zoo::zoo(quick) {
        let name = scenario.spec.name.clone();
        let report = match rsdc_scenarios::run(&scenario.spec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scenario_bench: {name}: RUN FAILED: {e}");
                failed = true;
                continue;
            }
        };
        let violations = scenario.bounds.check(&report);
        let status = if violations.is_empty() { "ok" } else { "FAIL" };
        eprintln!("scenario_bench: [{status}] {}", report.summary_line());
        for v in &violations {
            eprintln!("scenario_bench:        bound violated: {v}");
            failed = true;
        }
        let golden: serde::Value =
            serde_json::from_str(&report.golden_json()).expect("golden report parses");
        rows.push(serde_json::json!({
            "name": name,
            "summary": scenario.spec.summary,
            "violations": violations,
            "report": golden,
        }));
    }

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "quick": quick,
        "results": { "scenarios": serde::Value::Array(rows) },
    });
    let errs = validate(&doc);
    if failed || !errs.is_empty() {
        for e in &errs {
            eprintln!("scenario_bench: {e}");
        }
        std::process::exit(1);
    }
    write_doc("scenario_bench", args.opt("--out"), &doc);
}
