//! # rsdc-bench — experiment harness and benchmarks
//!
//! Regenerates every artifact of the paper (experiments E1–E16). Run all
//! of them with
//!
//! ```text
//! cargo run -p rsdc-bench --release --bin experiments
//! ```
//!
//! or one by id (`experiments e5`), with `--quick` for reduced sizes.
//!
//! Wall-clock speeds are measured by one binary, `engine_bench`
//! (`cargo run --release -p rsdc-bench --bin engine_bench`), which
//! records `BENCH_engine.json`: the engine and wire sections, and the
//! per-step cost of the policies themselves (LCP, the bound tracker,
//! HalfStep, rounding, the simulator). `scenario_bench` records the
//! scenario fleet's `BENCH_scenarios.json`. Both bench binaries read
//! their command line with [`Args::from_env`] and their documents with
//! [`read_doc`].

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::{fmt, Report};

use serde::Value;

/// A bench binary's command line, read strictly: every argument is one
/// of the binary's flags, or one of its options followed by a value.
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Reads `std::env::args()` for the binary `bin`. Each of `flags`
    /// stands alone; each of `options` takes the next argument, a file, as
    /// its value. An argument that is neither, an option without a value,
    /// or a name given twice prints the error and a usage line to stderr
    /// and exits 2, before any work.
    pub fn from_env(bin: &str, flags: &[&str], options: &[&str]) -> Args {
        Args::parse(std::env::args().skip(1), flags, options).unwrap_or_else(|e| {
            let flags = flags.iter().map(|f| format!(" [{f}]"));
            let options = options.iter().map(|o| format!(" [{o} FILE]"));
            let usage: String = flags.chain(options).collect();
            eprintln!("{e}\nusage: {bin}{usage}");
            std::process::exit(2);
        })
    }

    fn parse(
        args: impl Iterator<Item = String>,
        flags: &[&str],
        options: &[&str],
    ) -> Result<Args, String> {
        let mut args = args.peekable();
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        while let Some(name) = args.next() {
            let value = if flags.contains(&name.as_str()) {
                None
            } else if options.contains(&name.as_str()) {
                match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v),
                    None => return Err(format!("{name} needs a value")),
                }
            } else {
                return Err(format!("unknown argument {name:?}"));
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given twice"));
            }
            given.push((name, value));
        }
        Ok(Args { given })
    }

    /// Whether the flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The value of the option `name`, if it was given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// The JSON document at `path`. A file that cannot be read or parsed
/// prints the reason to stderr and exits 1, like a document that fails
/// its schema.
pub fn read_doc(path: &str) -> Value {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("{e}"))
        .and_then(|text| serde_json::from_str(&text).map_err(|e| format!("{e:?}")));
    doc.unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// `--validate`: checks the document at `path` with `validate`, prints
/// `valid {schema}` and exits 0, or prints each violation and exits 1.
pub fn validate_file(path: &str, schema: &str, validate: fn(&Value) -> Vec<String>) -> ! {
    let errs = validate(&read_doc(path));
    if errs.is_empty() {
        println!("{path}: valid {schema}");
        std::process::exit(0);
    }
    for e in &errs {
        eprintln!("{path}: {e}");
    }
    std::process::exit(1);
}

/// Writes a recorded document to `out`, or to stdout without one.
pub fn write_doc(bin: &str, out: Option<&str>, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("render") + "\n";
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("{bin}: wrote {path}");
        }
        None => print!("{text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    #[test]
    fn args_are_read_strictly() {
        let parse = |line: &str| {
            Args::parse(
                line.split_whitespace().map(String::from),
                &["--quick"],
                &["--out", "--validate"],
            )
        };
        let args = parse("--quick --out f.json").expect("valid");
        assert!(args.flag("--quick"));
        assert_eq!(args.opt("--out"), Some("f.json"));
        assert_eq!(args.opt("--validate"), None);
        for (line, err) in [
            ("--validate", "--validate needs a value"),
            ("--validate --quick", "--validate needs a value"),
            ("--vaildate f.json", "unknown argument \"--vaildate\""),
            ("f.json", "unknown argument \"f.json\""),
            ("--quick --quick", "--quick given twice"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(err), "{line}");
        }
    }
}
