//! `durable-mixed` episodes: an in-process durable `wire::Session` over a
//! `FileStore`, in a child process of its own.
//!
//! `rsdc serve` has no data directory, so this workload drives the
//! session directly: one slot is one `Session::handle_lines` call. The
//! child regenerates the inputs from the seed, opens the store, admits
//! every tenant (set-up), runs the warm-up and the timed slots, gates each
//! slot's replies as soon as its call returns (outside the timed call),
//! and prints its measurements as one JSON line.

use crate::gate::{self, CostSums, Tally};
use crate::served::status_mb;
use crate::stats::BlockSteal;
use crate::workload::{Inputs, Kind, Spec, CHECKPOINT_EVERY, REPORT_LINE, SHARDS};
use crate::Episode;
use rsdc_engine::wire::Session;
use rsdc_engine::EngineConfig;
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open a fresh durable session over a `FileStore` in `dir`, the way the
/// workload runs it (2 shards, metrics on, auto-checkpointing).
pub fn open_session(store: Arc<dyn rsdc_store::Durability>) -> Result<Session, String> {
    let (session, recovered) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), store)
        .map_err(|e| format!("open durable session: {e}"))?;
    if recovered.is_some() {
        return Err("store directory was not empty".into());
    }
    Ok(session.with_auto_checkpoint(CHECKPOINT_EVERY))
}

/// The workload's `FileStore` in `dir`, with the store's default fsync
/// batch (the one `rsdc engine --data-dir` uses too).
pub fn file_store(dir: &Path) -> Result<FileStore, String> {
    FileStore::open(dir, FileStoreConfig::default())
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Parent side: spawn the child and collect its result.
pub fn episode(inputs: &Inputs, seconds: u64, tiny: bool, dir: &Path) -> Result<Episode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["durable-child", "--seed", &inputs.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if tiny {
        cmd.arg("--tiny");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn durable child: {e}"))?;
    let mut result = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut result);
    let status = child
        .wait()
        .map_err(|e| format!("wait durable child: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    read.map_err(|e| format!("read durable child: {e}"))?;
    if !status.success() {
        return Err(format!("durable child failed ({status})"));
    }
    let v: serde::Value =
        serde_json::from_str(&result).map_err(|e| format!("durable child result: {e}"))?;
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
    let int = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let array = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_array())
            .cloned()
            .unwrap_or_default()
    };
    let lat_ns = array("lat_ns").iter().filter_map(|x| x.as_u64()).collect();
    let floats = |k: &str| array(k).iter().filter_map(|x| x.as_f64()).collect();
    let notes = array("notes")
        .iter()
        .filter_map(|x| x.as_str().map(str::to_string))
        .collect();
    Ok(Episode {
        setup_s: num("setup_s"),
        lat_ns,
        window_s: num("window_s"),
        block_steal: floats("block_steal"),
        steps: int("steps"),
        syncs: int("syncs"),
        bytes_in: int("bytes_in"),
        bytes_out: int("bytes_out"),
        rss_mb: num("rss_mb"),
        tally: Tally {
            attempted: int("attempted"),
            failed: int("failed"),
            notes,
        },
        ratio: CostSums {
            online: num("online"),
            opt: num("opt"),
        },
    })
}

/// Child side: `durable-child --seed N --seconds S --dir D [--tiny]`.
pub fn child(args: &[String]) -> ExitCode {
    match child_run(args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("slotbench durable child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn child_run(args: &[String]) -> Result<String, String> {
    let mut seed = None;
    let mut seconds = 10;
    let mut dir = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()),
            "--seconds" => seconds = it.next().and_then(|s| s.parse().ok()).unwrap_or(seconds),
            "--dir" => dir = it.next().cloned(),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let dir = dir.ok_or("--dir is required")?;
    let inputs = Inputs::generate(Spec::new(Kind::DurableMixed, seconds, tiny), seed);
    let spec = &inputs.spec;
    let store = Arc::new(file_store(Path::new(&dir))?);
    let wal_syncs = || store.wal_stats().map(|w| w.syncs).unwrap_or(0);

    // This process also holds the generated inputs: its resident set
    // before the session opens is subtracted from the peak.
    let baseline_mb = status_mb("self", "VmRSS");
    let mut session = open_session(store.clone())?;
    if crate::pin::pin_threads("self") != SHARDS {
        return Err(format!("could not pin the {SHARDS} shard threads"));
    }
    let admit_lines = inputs.admit_lines();
    let t0 = Instant::now();
    let admitted = session.handle_lines(admit_lines);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let admit_bytes: Vec<u8> = admitted
        .iter()
        .flat_map(|l| [l.as_bytes(), b"\n"].concat())
        .collect();
    gate::check_admits(spec.framing, &admit_bytes, &mut tally);
    drop((admitted, admit_bytes));

    let mut lat_ns = Vec::with_capacity(spec.timed_slots);
    let mut window = Duration::ZERO;
    let mut bytes_out = 0;
    let mut syncs_before = 0;
    let mut steal = BlockSteal::start();
    for s in 0..inputs.slots() {
        let timed = s.checked_sub(spec.warmup_slots);
        if timed == Some(0) {
            syncs_before = wal_syncs();
            steal = BlockSteal::start();
        } else if timed.is_some_and(|i| i % spec.block_slots == 0) {
            steal.cut();
        }
        let lines = inputs.slot_lines(s);
        let t = Instant::now();
        let out = session.handle_lines(lines.iter().copied());
        let dt = t.elapsed();
        if s >= spec.warmup_slots {
            lat_ns.push(dt.as_nanos() as u64);
            window += dt;
            bytes_out += out.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        }
        gate::check_line_slot(&inputs, s, &out, &mut tally);
    }
    let syncs = wal_syncs() - syncs_before;
    steal.cut();
    let rss_mb = status_mb("self", "VmHWM") - baseline_mb;

    let report = session.handle_lines([REPORT_LINE]);
    let ratio = gate::check_reports(&inputs, inputs.slots(), &report, &mut tally);
    drop(session);

    let timed = spec.warmup_slots..inputs.slots();
    let v = serde_json::json!({
        "setup_s": setup_s,
        "lat_ns": lat_ns,
        "window_s": window.as_secs_f64(),
        "block_steal": steal.shares,
        "steps": (inputs.step_off[timed.end] - inputs.step_off[timed.start]) as u64,
        "syncs": syncs,
        "bytes_in": (inputs.slot_off[timed.end] - inputs.slot_off[timed.start]) as u64,
        "bytes_out": bytes_out,
        "rss_mb": rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "online": ratio.online,
        "opt": ratio.opt,
    });
    serde_json::to_string(&v).map_err(|e| format!("encode result: {e}"))
}
