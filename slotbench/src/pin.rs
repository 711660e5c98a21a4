//! Fix where an engine's threads run, from outside.
//!
//! With two shard threads, a reactor and a client on two CPUs, the
//! scheduler sometimes stacks both shards on one CPU for seconds at a
//! time, and a 64-step batch then runs serially: on `wide-fleet` the
//! median slot moved between ~600 us and ~850 us from one episode to the
//! next. So every benchmark thread runs on the run's first CPU except
//! shard `i`, which runs on CPU number `i mod n` of the run: a batch's
//! shards stay parallel, and the only cross-CPU wake-ups are those of the
//! shards on other CPUs. The shard threads are found by the names the
//! engine gives them (`rsdc-shard-<i>`) under `/proc/<pid>/task`; nothing
//! in the engine changes.

use std::path::Path;
use std::sync::OnceLock;

/// CPU masks handed to the kernel: room for 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    /// glibc `sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
    /// glibc `sched_getaffinity(pid_t, size_t, cpu_set_t *)`.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
}

/// Environment variable carrying the run's CPU list to its child
/// processes, which start with a narrower mask inherited from a pinned
/// thread.
const CPUS_ENV: &str = "SLOTBENCH_CPUS";

static CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// The CPUs this run may use: the list a parent run passed down, else
/// the calling thread's affinity mask (then exported for children). Call
/// once at start-up, before any thread is pinned or spawned.
pub fn cpus() -> &'static [usize] {
    CPUS.get_or_init(|| {
        if let Some(list) = std::env::var(CPUS_ENV).ok().and_then(|v| {
            v.split(',')
                .map(|c| c.parse().ok())
                .collect::<Option<Vec<usize>>>()
        }) {
            return list;
        }
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; the kernel writes at most that many bytes into it.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } == 0;
        let list: Vec<usize> = (0..1024)
            .filter(|&c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let list = if list.is_empty() { vec![0] } else { list };
        let joined: Vec<String> = list.iter().map(usize::to_string).collect();
        std::env::set_var(CPUS_ENV, joined.join(","));
        list
    })
}

/// Restrict thread `tid` (0 = the calling thread) to CPU `cpu`.
fn set_cpu(tid: i32, cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly the size
    // passed, so the kernel reads only those bytes. A stale `tid` or a CPU
    // outside the allowed set makes the call fail, nothing else.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), &mask) == 0 }
}

/// Pin the calling thread to the run's first CPU.
pub fn pin_self() {
    set_cpu(0, cpus()[0]);
}

/// Pin every thread of process `pid` (a number, or `self`): shard `i` to
/// the run's CPU `i mod n`, every other thread to its first CPU. Returns
/// how many shard threads were pinned.
pub fn pin_threads(pid: &str) -> usize {
    let cpus = cpus();
    let Ok(tasks) = std::fs::read_dir(Path::new("/proc").join(pid).join("task")) else {
        return 0;
    };
    let mut shards = 0;
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        else {
            continue;
        };
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        match comm
            .trim()
            .strip_prefix("rsdc-shard-")
            .and_then(|i| i.parse::<usize>().ok())
        {
            Some(index) => shards += set_cpu(tid, cpus[index % cpus.len()]) as usize,
            None => {
                set_cpu(tid, cpus[0]);
            }
        }
    }
    shards
}
