//! Both bench binaries read their command line strictly: an unknown
//! argument or an option without its value exits 2 before any work, and
//! `--validate` exits 0 on a valid document and 1 on one of the wrong
//! schema.

use std::process::{Command, Stdio};

/// A file at the repository root.
fn root(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn bench_binaries_refuse_arguments_they_do_not_read() {
    let engine = env!("CARGO_BIN_EXE_engine_bench");
    let scenario = env!("CARGO_BIN_EXE_scenario_bench");
    let (engine_doc, scenario_doc) = (root("BENCH_engine.json"), root("BENCH_scenarios.json"));
    let cases: &[(&str, &[&str], i32)] = &[
        (engine, &["--validate"], 2),
        (engine, &["--vaildate", &engine_doc], 2),
        (engine, &["--validate", &engine_doc], 0),
        (engine, &["--validate", &scenario_doc], 1),
        (scenario, &["--validate"], 2),
        (scenario, &["--vaildate", &scenario_doc], 2),
        (scenario, &["--validate", &scenario_doc], 0),
        (scenario, &["--validate", &engine_doc], 1),
    ];
    for (bin, args, code) in cases {
        let out = Command::new(bin)
            .args(*args)
            .stdin(Stdio::null())
            .output()
            .expect("run the bench binary");
        assert_eq!(out.status.code(), Some(*code), "{bin} {args:?}: {out:?}");
        if *code == 2 {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?}: {out:?}");
        }
    }
}
