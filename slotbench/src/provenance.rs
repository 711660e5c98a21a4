//! Run provenance and the run's scratch directory.

use crate::workload::{Framing, Inputs, SHARDS};
use std::path::{Path, PathBuf};

/// Scratch space of one run, inside the working directory (stores and
/// span dumps never leave the checkout): `.slotbench/<workload>-<seed>-<pid>`.
pub fn scratch_dir(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".slotbench")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The commit of the enclosing git checkout, read from `.git` directly
/// (no subprocess); `unknown` outside a git checkout.
fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
                return commit.trim().to_string();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
                .unwrap_or_else(|| "unknown".into());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn filesystem(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Print the run's provenance as one JSON line on stdout.
pub fn print(inputs: &Inputs, seconds: u64, trace: bool, scratch: &Path) {
    let spec = &inputs.spec;
    let nproc = crate::pin::cpus().len();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (store, fs) = match spec.framing {
        Framing::InProcess => (scratch.display().to_string(), filesystem(scratch)),
        _ => ("none (NullStore)".into(), "none".into()),
    };
    let framing = match spec.framing {
        Framing::Binary => "binary",
        Framing::Jsonl => "jsonl",
        Framing::InProcess => "in-process jsonl",
    };
    let v = serde_json::json!({
        "provenance": {
            "workload": spec.kind.name(),
            "seed": inputs.seed,
            "seconds": seconds,
            "trace": trace,
            "nproc": nproc,
            "profile": profile,
            "commit": git_commit(),
            "shards": SHARDS,
            "store_path": store,
            "store_fs": fs,
            "framing": framing,
            "tenants": spec.tenants,
            "m": spec.m,
            "steps_per_slot": spec.steps_per_slot,
            "episodes": spec.episodes,
            "warmup_slots_per_episode": spec.warmup_slots,
            "timed_slots_per_episode": spec.timed_slots,
        }
    });
    println!("{}", serde_json::to_string(&v).expect("serializable"));
}
