//! Experiment runner CLI.
//!
//! ```text
//! experiments [--quick] [--json <dir>] [id ...]
//! ```
//!
//! With no ids, runs the full E1–E16 suite. Markdown reports go to stdout;
//! `--json <dir>` additionally writes one JSON file per report.

use rsdc_bench::experiments::{run_by_id, ALL};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut json_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                json_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a directory");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: experiments [--quick] [--json <dir>] [e1 .. e16]");
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_ascii_lowercase()),
        }
    }
    if ids.is_empty() {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut failures = 0usize;
    for id in &ids {
        let Some(report) = run_by_id(id, quick) else {
            eprintln!("unknown experiment id {id:?} (expected e1..e16)");
            failures += 1;
            continue;
        };
        print!("{}", report.to_markdown());
        if !report.pass {
            failures += 1;
        }
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{id}.json");
            match serde_json::to_string_pretty(&report) {
                Ok(s) => {
                    if let Err(e) = std::fs::write(&path, s) {
                        eprintln!("cannot write {path}: {e}");
                    }
                }
                Err(e) => eprintln!("cannot serialize {id}: {e}"),
            }
        }
    }

    if failures == 0 {
        eprintln!("all {} experiment(s) reproduced", ids.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} experiment(s) FAILED");
        ExitCode::FAILURE
    }
}
