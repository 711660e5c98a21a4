//! `slotbench` — the end-to-end slot-decision benchmark.
//!
//! ```text
//! slotbench --workload large-m|wide-fleet|durable-mixed --seed N \
//!           --seconds S --trace 0|1
//! slotbench selftest
//! ```
//!
//! A run generates every request from the seed, runs the workload's
//! episodes (each a fresh engine process), checks every decision, and
//! prints one JSON result as its last stdout line: the end-to-end metrics
//! with `--trace 0`, the per-layer split with `--trace 1`. See README.md.

mod durable;
mod gate;
mod pin;
mod provenance;
mod selftest;
mod served;
mod stats;
mod trace;
mod workload;

use gate::{CostSums, Tally};
use stats::Metrics;
use std::process::ExitCode;
use workload::{Framing, Inputs, Kind, Spec};

/// A run starts no episode after this long (but always makes one), so a
/// run on a busy host still ends in well under a minute.
const DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// A run makes at most this many times its count of episodes.
const MAX_EPISODES: usize = 3;

/// What one episode measured.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// First admit request written to the last admit reply, in seconds.
    pub setup_s: f64,
    /// Latency of every timed slot, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Sum of the timed slots' latencies, in seconds.
    pub window_s: f64,
    /// Share of the run's CPU capacity the host stole during each block
    /// of `Spec::block_slots` timed slots.
    pub block_steal: Vec<f64>,
    /// Step requests in the timed slots.
    pub steps: u64,
    /// WAL `fsync`s inside the timed window (0 without a store).
    pub syncs: u64,
    /// Request bytes of the timed slots.
    pub bytes_in: u64,
    /// Reply bytes of the timed slots.
    pub bytes_out: u64,
    /// Peak resident set of the engine's process, in MB.
    pub rss_mb: f64,
    /// Correctness-gate outcome.
    pub tally: Tally,
    /// Scalar cost sums from the final report.
    pub ratio: CostSums,
}

impl Episode {
    /// An episode that ended after set-up.
    pub fn setup(setup_s: f64, tally: Tally) -> Episode {
        Episode {
            setup_s,
            tally,
            ..Episode::default()
        }
    }
}

/// Parsed command line of a run.
struct RunArgs {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny: false,
    })
}

/// The outcome of a run: the result object plus whether it passed.
pub struct Outcome {
    /// Correctness tally over every episode (and the traced replay).
    pub tally: Tally,
    /// Metrics to report.
    pub metrics: Metrics,
}

/// Run one workload and collect its metrics.
fn run(a: &RunArgs, scratch: &std::path::Path) -> Result<Outcome, String> {
    // A traced run makes the same untraced episodes first: the split is
    // taken against the very slot time `--trace 0` reports.
    let inputs = Inputs::generate(Spec::new(a.kind, a.seconds, a.tiny), a.seed);
    provenance::print(&inputs, a.seconds, a.trace, scratch);
    // Everything this run starts inherits the run's first CPU; shards get
    // their own CPUs once they exist (see `pin`).
    pin::pin_self();

    // Every episode is gated. Hypervisor steal on a shared host swung
    // between 0% and 60% for tens of seconds at a time, and slot times
    // with it. So the end-to-end metrics measure a fixed number of the
    // least stolen blocks of slots (see `stats::kept_slots`), and while
    // too few blocks were quiet, more episodes run (up to `DEADLINE`).
    // Set-ups are timed per episode, as `(episode, seconds)`.
    let spec = &inputs.spec;
    let started = std::time::Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    while episodes.is_empty()
        || started.elapsed() < DEADLINE
            && (episodes.len() < spec.episodes
                || !stats::enough_quiet(&episodes, spec.keep_per_block)
                    && episodes.len() < MAX_EPISODES * spec.episodes)
    {
        let e = episodes.len();
        // Set-up-only episodes, where set-up alone is too short to time
        // once per episode.
        for _ in 0..spec.extra_setups {
            let episode = served::episode(&inputs, true)?;
            tally.merge(&episode.tally);
            setups.push((e, episode.setup_s));
        }
        let episode = match spec.framing {
            Framing::InProcess => {
                durable::episode(&inputs, a.seconds, a.tiny, &scratch.join(format!("ep{e}")))?
            }
            Framing::Binary | Framing::Jsonl => served::episode(&inputs, false)?,
        };
        let lat_us: Vec<f64> = episode.lat_ns.iter().map(|&n| n as f64 / 1e3).collect();
        eprintln!(
            "slotbench: {} episode {e}: setup {:.4} s, {} slots, window {:.3} s, p50 {:.1} us, \
             p99 {:.1} us, steal {:.1}%, wal fsyncs {}, failed {}",
            a.kind.name(),
            episode.setup_s,
            episode.lat_ns.len(),
            episode.window_s,
            stats::median(&lat_us),
            stats::quantile(&lat_us, 0.99),
            stats::mean(&episode.block_steal) * 100.0,
            episode.syncs,
            episode.tally.failed
        );
        tally.merge(&episode.tally);
        setups.push((e, episode.setup_s));
        episodes.push(episode);
    }
    let kept = stats::kept_slots(&episodes, spec.block_slots, spec.keep_per_block);
    let syncs: Vec<String> = episodes.iter().map(|e| e.syncs.to_string()).collect();
    println!(
        r#"{{"host":{{"episodes":{},"setups":{},"slots_kept":{},"slots_timed":{},"steal_kept":{:.4},"steal_dropped":{:.4},"wal_fsyncs_per_window":[{}]}}}}"#,
        episodes.len(),
        setups.len(),
        kept.lat_us.len(),
        episodes.iter().map(|e| e.lat_ns.len()).sum::<usize>(),
        kept.steal_kept,
        kept.steal_dropped,
        syncs.join(",")
    );
    let setup_s = stats::setup_s(&episodes, &setups);
    let e2e = stats::end_to_end(&episodes, &kept.lat_us, spec.steps_per_slot, setup_s);
    let metrics = if a.trace {
        let (layers, replay_tally) = trace::run(&inputs, &e2e, &episodes, scratch)?;
        tally.merge(&replay_tally);
        layers
    } else {
        e2e
    };
    Ok(Outcome { tally, metrics })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Read the CPU set while this process is still single-threaded.
    pin::cpus();
    match args.first().map(String::as_str) {
        // The server process: the `rsdc` CLI, linked into this binary so a
        // served episode runs exactly `rsdc serve` without a second build.
        Some("rsdc") => return rsdc(&args[1..]),
        Some("durable-child") => return durable::child(&args[1..]),
        Some("selftest") => return selftest::run_all(),
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slotbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match provenance::scratch_dir(a.kind.name(), a.seed) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("slotbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&a, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(o) => {
            for note in &o.tally.notes {
                eprintln!("slotbench: gate: {note}");
            }
            let correct = o.tally.failed == 0;
            println!("{}", stats::result_line(correct, &o.tally, &o.metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("slotbench: {} failed: {e}", a.kind.name());
            ExitCode::from(2)
        }
    }
}

/// Run the `rsdc` CLI with `args` (the served episodes' server process).
fn rsdc(args: &[String]) -> ExitCode {
    let parsed = match rsdc_cli::Args::parse(args.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsdc: {e}");
            return ExitCode::from(2);
        }
    };
    match rsdc_cli::dispatch(&parsed) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rsdc: {e}");
            ExitCode::FAILURE
        }
    }
}
