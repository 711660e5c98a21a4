//! Aggregation and the result line.

use crate::gate::Tally;
use crate::workload::mix;
use crate::Episode;
use std::time::Instant;

/// Named metrics with units, in report order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics (`--trace 0`), in order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("steps_per_s", "steps/s"),
    ("slot_p50_us", "us"),
    ("slot_p99_us", "us"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), in order, with units.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("tenant.step_ns.lcp", "ns"),
    ("tenant.step_ns.halfstep", "ns"),
    ("tenant.step_ns.hetero", "ns"),
    ("tenant.critical_us", "us"),
    ("engine.step_events_us", "us"),
    ("engine.dispatch_us", "us"),
    ("engine.resolve_ns", "ns"),
    ("engine.admit_us", "us"),
    ("wire.decode_ns", "ns"),
    ("wire.render_ns", "ns"),
    ("wire.bytes_in_per_step", "bytes"),
    ("wire.bytes_out_per_step", "bytes"),
    ("session.feed_us", "us"),
    ("serve.residual_us", "us"),
    ("store.append_us", "us"),
    ("store.sync_us", "us"),
    ("store.appends_per_slot", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes.first", "bytes"),
    ("store.checkpoint_bytes.last", "bytes"),
    ("trace.unexplained_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Pair values with the names and units of `table`.
pub fn named(table: &[(&'static str, &'static str)], values: &[f64]) -> Metrics {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| (name.to_string(), v, unit))
        .collect()
}

/// Look a metric up by name.
pub fn get(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .map(|&(_, v, _)| v)
        .unwrap_or(f64::NAN)
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Host CPU steal so far, in seconds, summed over the run's CPUs
/// (`/proc/stat`, whose clock ticks are 1/100 s).
fn steal_s() -> f64 {
    let cpus = crate::pin::cpus();
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let cpu: usize = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            // user nice system idle iowait irq softirq steal
            cpus.contains(&cpu)
                .then(|| fields.nth(7)?.parse::<f64>().ok())?
        })
        .sum();
    ticks / 100.0
}

/// Measures the share of the run's CPU capacity the host took (steal)
/// over a window.
pub struct StealClock {
    wall: Instant,
    steal: f64,
}

impl StealClock {
    /// Start a window now.
    pub fn start() -> StealClock {
        StealClock {
            wall: Instant::now(),
            steal: steal_s(),
        }
    }

    /// Stolen share of the window so far, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        let capacity = self.wall.elapsed().as_secs_f64() * crate::pin::cpus().len() as f64;
        ((steal_s() - self.steal) / capacity).clamp(0.0, 1.0)
    }
}

/// Steal shares of consecutive blocks of a timed window. Read between
/// slots, never inside a timed call.
pub struct BlockSteal {
    clock: StealClock,
    /// Stolen share of each closed block.
    pub shares: Vec<f64>,
}

impl BlockSteal {
    /// Open the first block now.
    pub fn start() -> BlockSteal {
        BlockSteal {
            clock: StealClock::start(),
            shares: Vec::new(),
        }
    }

    /// Close the current block and open the next.
    pub fn cut(&mut self) {
        self.shares.push(self.clock.fraction());
        self.clock = StealClock::start();
    }
}

/// Steal share up to which a block of slots counts as quiet: no whole
/// clock tick stolen from a block of about 80 ms on two CPUs.
pub const QUIET_STEAL: f64 = 0.02;

/// Blocks on each side of a block whose steal makes up its neighbourhood.
/// Steal is counted in 10 ms ticks, so a block can lose a few milliseconds
/// and still read zero; a quiet neighbourhood makes that less likely.
const REACH: usize = 2;

/// How disturbed block `b` of a window was: its own steal share, then the
/// mean share of the blocks within [`REACH`] of it.
fn disturbance(shares: &[f64], b: usize) -> (f64, f64) {
    let near = &shares[b.saturating_sub(REACH)..(b + REACH + 1).min(shares.len())];
    (shares[b], mean(near))
}

fn quiet((own, near): (f64, f64)) -> bool {
    own <= QUIET_STEAL && near <= QUIET_STEAL
}

/// Blocks per episode window (every episode times the same slots).
fn positions(episodes: &[Episode]) -> usize {
    episodes
        .iter()
        .map(|e| e.block_steal.len())
        .min()
        .unwrap_or(0)
}

/// Whether `keep` blocks per position are quiet, over all positions.
pub fn enough_quiet(episodes: &[Episode], keep: usize) -> bool {
    let n = positions(episodes);
    let quiet = (0..n)
        .flat_map(|b| episodes.iter().map(move |e| disturbance(&e.block_steal, b)))
        .filter(|&d| quiet(d))
        .count();
    quiet >= keep * n
}

/// The timed slots the end-to-end metrics measure, with the mean steal
/// share of the kept and of the dropped blocks.
pub struct Kept {
    /// Latencies of the kept slots, in microseconds.
    pub lat_us: Vec<f64>,
    /// Mean steal share of the kept blocks.
    pub steal_kept: f64,
    /// Mean steal share of the dropped blocks.
    pub steal_dropped: f64,
}

/// Fewest slots a run measures while too few blocks were quiet: a p99
/// then still has ten slots beyond it.
const MIN_KEPT_SLOTS: usize = 1024;

/// Choose the measured slots: `keep` blocks per block position.
///
/// Every episode's timed window is cut into blocks of `block` consecutive
/// slots, each with the share of the run's CPUs the hypervisor stole
/// during it. The least disturbed blocks are kept: by the block's own
/// steal, then by its neighbourhood's. When fewer blocks than that were
/// quiet, only the quiet ones are kept, but at least [`MIN_KEPT_SLOTS`]
/// slots' worth. The choice is by steal alone, never by latency. Every episode replays the same slots, so a block
/// position holds the same slots in each; equally quiet blocks go by their
/// rank among the episodes at their position (then a hash of it), so when
/// the host is quiet every slot of the workload — a checkpoint, an fsync,
/// a `stats` read — is measured exactly `keep` times.
pub fn kept_slots(episodes: &[Episode], block: usize, keep: usize) -> Kept {
    // (disturbance, rank at its position, hash, episode, position)
    let mut blocks = Vec::new();
    for b in 0..positions(episodes) {
        let mut at: Vec<((f64, f64), u64, usize)> = episodes
            .iter()
            .enumerate()
            .map(|(e, ep)| (disturbance(&ep.block_steal, b), mix(e as u64, b as u64), e))
            .collect();
        at.sort_by(|x, y| by_disturbance(x.0, y.0).then(x.1.cmp(&y.1)));
        blocks.extend(
            at.into_iter()
                .enumerate()
                .map(|(rank, (d, hash, e))| (d, rank, hash, e, b)),
        );
    }
    blocks.sort_by(|x, y| {
        by_disturbance(x.0, y.0)
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });
    let quiet_blocks = blocks.iter().take_while(|x| quiet(x.0)).count();
    let n = (keep * positions(episodes))
        .min(quiet_blocks.max(MIN_KEPT_SLOTS.div_ceil(block)))
        .min(blocks.len());
    let mut lat_us = Vec::new();
    for &(_, _, _, e, b) in &blocks[..n] {
        let lat = &episodes[e].lat_ns;
        lat_us.extend(
            lat[b * block..((b + 1) * block).min(lat.len())]
                .iter()
                .map(|&n| n as f64 / 1e3),
        );
    }
    let own: Vec<f64> = blocks.iter().map(|x| x.0 .0).collect();
    // No block dropped (or kept) reads as no steal, not NaN.
    let share = |v: &[f64]| if v.is_empty() { 0.0 } else { mean(v) };
    Kept {
        lat_us,
        steal_kept: share(&own[..n]),
        steal_dropped: share(&own[n..]),
    }
}

fn by_disturbance(x: (f64, f64), y: (f64, f64)) -> std::cmp::Ordering {
    x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1))
}

/// Median set-up time over the quieter half of the episodes, ranked by
/// the mean steal of their blocks. A set-up of a few milliseconds is too
/// short to read steal over, but steal came in phases of tens of seconds,
/// and an episode's window shows which phase its set-ups (its own and the
/// set-up-only ones just before it, `(episode, seconds)`) ran in.
pub fn setup_s(episodes: &[Episode], setups: &[(usize, f64)]) -> f64 {
    let mut order: Vec<usize> = (0..episodes.len()).collect();
    let steal = |e: usize| mean(&episodes[e].block_steal);
    order.sort_by(|&x, &y| steal(x).total_cmp(&steal(y)).then(x.cmp(&y)));
    let quiet = &order[..episodes.len().div_ceil(2)];
    let times: Vec<f64> = setups
        .iter()
        .filter(|(e, _)| quiet.contains(e))
        .map(|&(_, s)| s)
        .collect();
    median(&times)
}

/// The end-to-end metrics over a run's episodes, from measured times
/// only. `steps_per_s`, `slot_p50_us` and `slot_p99_us` are taken over the
/// kept slots `lat_us` (see [`kept_slots`]), pooled: the kept steps over
/// their summed slot time, and quantiles of their latencies. `setup_s` is
/// given (see [`setup_s`]); `peak_rss_mb` is the median episode's.
pub fn end_to_end(
    episodes: &[Episode],
    lat_us: &[f64],
    steps_per_slot: usize,
    setup_s: f64,
) -> Metrics {
    let steps = (lat_us.len() * steps_per_slot) as f64;
    let window_s = lat_us.iter().sum::<f64>() / 1e6;
    let online: f64 = episodes.iter().map(|e| e.ratio.online).sum();
    let opt: f64 = episodes.iter().map(|e| e.ratio.opt).sum();
    let rss: Vec<f64> = episodes.iter().map(|e| e.rss_mb).collect();
    named(
        &END_TO_END,
        &[
            steps / window_s,
            median(lat_us),
            quantile(lat_us, 0.99),
            online / opt,
            setup_s,
            median(&rss),
        ],
    )
}

/// The final stdout line. A non-finite metric is a failed measurement:
/// it is reported as `null` and makes the run incorrect.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        correct && finite,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}
