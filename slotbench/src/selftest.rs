//! `slotbench selftest`: every workload at tiny sizes, plus gate checks.
//!
//! * each workload runs untraced and traced; every metric must be present,
//!   finite, in order, with its unit, and must match `BENCHMARK.json` when
//!   one is in the working directory;
//! * the correctness gate must accept well-formed replies and reject a
//!   corrupted state, a wrong tenant, a wrong sequence number and a
//!   missing reply.

use crate::gate::{self, Tally};
use crate::stats::{Metrics, END_TO_END, PER_LAYER};
use crate::workload::{Inputs, Kind, Spec};
use crate::{provenance, run, RunArgs};
use rsdc_engine::binwire::{put_frame, BodyWriter, TAG_RESP_LINE, TAG_RESP_STEPPED};
use std::process::ExitCode;

/// Run the self-test; exit 0 only when every check passes.
pub fn run_all() -> ExitCode {
    let mut failures = Vec::new();
    for kind in [Kind::LargeM, Kind::WideFleet, Kind::DurableMixed] {
        for trace in [false, true] {
            let a = RunArgs {
                kind,
                seed: 7,
                seconds: 1,
                trace,
                tiny: true,
            };
            let what = format!("{} trace={}", kind.name(), trace as u8);
            let outcome = provenance::scratch_dir(kind.name(), a.seed).and_then(|dir| {
                let out = run(&a, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                out
            });
            match outcome {
                Err(e) => failures.push(format!("{what}: {e}")),
                Ok(o) => {
                    if o.tally.failed > 0 {
                        failures.push(format!("{what}: gate failed: {:?}", o.tally.notes));
                    }
                    let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                    check_metrics(&what, &o.metrics, want, &mut failures);
                }
            }
        }
    }
    check_benchmark_json(&mut failures);
    check_gate_rejects(&mut failures);
    for f in &failures {
        eprintln!("selftest: FAIL {f}");
    }
    if failures.is_empty() {
        eprintln!("selftest: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_metrics(what: &str, got: &Metrics, want: &[(&str, &str)], failures: &mut Vec<String>) {
    let names: Vec<(&str, &str)> = got.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    if names != want {
        failures.push(format!("{what}: metrics {names:?}, want {want:?}"));
    }
    for (name, value, _) in got {
        if !value.is_finite() {
            failures.push(format!("{what}: {name} = {value}"));
        }
    }
}

/// `BENCHMARK.json`, when present, must name exactly the printed metrics.
fn check_benchmark_json(failures: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return;
    };
    let Ok(v) = serde_json::from_str::<serde::Value>(&text) else {
        failures.push("BENCHMARK.json does not parse".into());
        return;
    };
    for (key, want) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = v
            .get(key)
            .and_then(|x| x.as_array())
            .map(|a| {
                a.iter()
                    .map(|m| {
                        let field =
                            |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                        (field("name"), field("unit"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let want: Vec<(String, String)> = want
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed != want {
            failures.push(format!(
                "BENCHMARK.json {key} {listed:?} != printed {want:?}"
            ));
        }
    }
}

/// Feed the gate one good and several corrupted reply sets for slot 0.
fn check_gate_rejects(failures: &mut Vec<String>) {
    let inputs = Inputs::generate(Spec::new(Kind::LargeM, 1, true), 7);
    let steps = inputs.slot_steps(0);
    let first_seq = inputs.spec.tenants;
    let m = inputs.spec.m;
    let ids: Vec<&str> = steps
        .iter()
        .map(|s| inputs.configs[s.tenant as usize].id.as_str())
        .collect();

    // (label, replies as (seq, id, state), whether the gate must pass)
    let good: Vec<(u64, &str, u32)> = ids
        .iter()
        .enumerate()
        .map(|(j, id)| ((first_seq + j + 1) as u64, *id, 1))
        .collect();
    let mut bad_state = good.clone();
    bad_state[0].2 = m + 1;
    let mut bad_id = good.clone();
    bad_id[1].1 = ids[0];
    let mut bad_seq = good.clone();
    bad_seq[2].0 += 1;
    let mut missing = good.clone();
    missing.pop();
    let cases = [
        ("good", good, true),
        ("state above m", bad_state, false),
        ("wrong tenant", bad_id, false),
        ("wrong sequence", bad_seq, false),
        ("missing reply", missing, false),
    ];
    for (label, replies, pass) in cases {
        let mut bytes = Vec::new();
        let mut payload = Vec::new();
        for &(seq, id, state) in &replies {
            let mut w = BodyWriter::start(&mut payload, TAG_RESP_STEPPED);
            w.u64(seq).str16(id).u16(1).u32(state);
            put_frame(&mut bytes, &payload);
        }
        payload.clear();
        payload.push(TAG_RESP_LINE);
        payload.extend_from_slice(br#"{"op":"limits","max_tenants":0}"#);
        put_frame(&mut bytes, &payload);
        let mut tally = Tally::default();
        gate::check_served_slot(&inputs, 0, first_seq, &bytes, &mut tally);
        if (tally.failed == 0) != pass {
            failures.push(format!(
                "gate on {label} (binary): {} failures",
                tally.failed
            ));
        }
        // The same replies as JSONL lines (no sequence numbers on the
        // wire: a wrong sequence is invisible there, so it must pass).
        let lines: Vec<String> = replies
            .iter()
            .map(|(_, id, state)| format!(r#"{{"op":"stepped","id":"{id}","states":[{state}]}}"#))
            .collect();
        let mut tally = Tally::default();
        gate::check_line_slot(&inputs, 0, &lines, &mut tally);
        let pass_lines = pass || label == "wrong sequence";
        if (tally.failed == 0) != pass_lines {
            failures.push(format!(
                "gate on {label} (JSONL): {} failures",
                tally.failed
            ));
        }
    }
}
