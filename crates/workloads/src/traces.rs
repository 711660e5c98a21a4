//! Synthetic workload traces.
//!
//! Lin et al. [22, 24] evaluate right-sizing on two proprietary traces (an
//! MSR cluster and Hotmail). Those are not redistributable, so this module
//! generates traces with the same qualitative shape statistics the paper
//! discusses: strong diurnal periodicity, bursts, occasional spikes and a
//! tunable peak-to-mean ratio. The optimization algorithms only ever see
//! the convex per-slot cost functions derived from a trace, so any trace
//! with comparable variability exercises identical code paths.
//!
//! All generators are deterministic given a seed (ChaCha8).

use rand::distributions::Distribution;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A workload trace: arrival load per slot, in "server-loads" (a load of
/// `k` keeps `k` servers fully busy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Load per time slot, non-negative.
    pub loads: Vec<f64>,
    /// Free-form provenance label ("diurnal(seed=1)", file name, ...).
    pub label: String,
}

impl Trace {
    /// Build from raw loads.
    pub fn new(label: impl Into<String>, loads: Vec<f64>) -> Self {
        Self {
            loads,
            label: label.into(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True if the trace has no slots.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Mean load.
    pub fn mean(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.loads.iter().sum::<f64>() / self.loads.len() as f64
        }
    }

    /// Peak load.
    pub fn peak(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Peak-to-mean ratio. Always finite, so trace statistics survive a
    /// JSON round trip (the serializer renders non-finite floats as
    /// `null`): 1.0 for constant traces — including all-zero ("no load
    /// is perfectly flat") and empty ones — and 0.0 when the ratio is
    /// undefined (a non-positive mean with a nonzero peak, which only
    /// degenerate hand-built traces with negative loads can produce).
    pub fn peak_to_mean(&self) -> f64 {
        let m = self.mean();
        if m > 0.0 {
            self.peak() / m
        } else if self.peak() == 0.0 {
            1.0
        } else {
            0.0
        }
    }

    /// Rescale so that the peak equals `new_peak`.
    pub fn scaled_to_peak(&self, new_peak: f64) -> Trace {
        let peak = self.peak();
        if peak == 0.0 {
            return self.clone();
        }
        let k = new_peak / peak;
        Trace {
            loads: self.loads.iter().map(|l| l * k).collect(),
            label: format!("{}*{k:.3}", self.label),
        }
    }

    /// Clamp every load into `[0, cap]`.
    pub fn clamped(&self, cap: f64) -> Trace {
        Trace {
            loads: self.loads.iter().map(|l| l.clamp(0.0, cap)).collect(),
            label: self.label.clone(),
        }
    }
}

/// Diurnal (daily-periodic) trace: sinusoid plus multiplicative noise.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Diurnal {
    /// Slots per day.
    pub period: usize,
    /// Mean load at the daily trough.
    pub base: f64,
    /// Mean load at the daily peak.
    pub peak: f64,
    /// Multiplicative noise amplitude in `[0, 1)`.
    pub noise: f64,
}

impl Default for Diurnal {
    fn default() -> Self {
        Self {
            period: 48,
            base: 2.0,
            peak: 16.0,
            noise: 0.1,
        }
    }
}

impl Diurnal {
    /// Generate `t_len` slots.
    pub fn generate(&self, t_len: usize, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let amp = (self.peak - self.base) / 2.0;
        let mid = (self.peak + self.base) / 2.0;
        let loads = (0..t_len)
            .map(|t| {
                let phase = 2.0 * std::f64::consts::PI * (t as f64) / self.period as f64;
                // Trough at t = 0 (night), peak mid-period (afternoon).
                let clean = mid - amp * phase.cos();
                let jitter = 1.0 + self.noise * (rng.gen::<f64>() * 2.0 - 1.0);
                (clean * jitter).max(0.0)
            })
            .collect();
        Trace::new(format!("diurnal(seed={seed})"), loads)
    }
}

/// Bursty trace: a two-state modulated process (calm/burst) with
/// geometrically distributed sojourn times — an MMPP-flavoured generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bursty {
    /// Mean load in the calm state.
    pub calm_load: f64,
    /// Mean load in the burst state.
    pub burst_load: f64,
    /// Per-slot probability of entering a burst.
    pub p_enter: f64,
    /// Per-slot probability of leaving a burst.
    pub p_exit: f64,
    /// Relative load jitter in each slot.
    pub jitter: f64,
}

impl Default for Bursty {
    fn default() -> Self {
        Self {
            calm_load: 3.0,
            burst_load: 14.0,
            p_enter: 0.03,
            p_exit: 0.15,
            jitter: 0.15,
        }
    }
}

impl Bursty {
    /// Generate `t_len` slots.
    pub fn generate(&self, t_len: usize, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bursting = false;
        let loads = (0..t_len)
            .map(|_| {
                let flip: f64 = rng.gen();
                if bursting {
                    if flip < self.p_exit {
                        bursting = false;
                    }
                } else if flip < self.p_enter {
                    bursting = true;
                }
                let base = if bursting {
                    self.burst_load
                } else {
                    self.calm_load
                };
                let j = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                (base * j).max(0.0)
            })
            .collect();
        Trace::new(format!("bursty(seed={seed})"), loads)
    }
}

/// Sparse spikes over a low floor — models flash crowds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Spiky {
    /// Background load.
    pub floor: f64,
    /// Spike height.
    pub height: f64,
    /// Per-slot spike probability.
    pub p_spike: f64,
    /// Spike duration in slots.
    pub width: usize,
}

impl Default for Spiky {
    fn default() -> Self {
        Self {
            floor: 1.0,
            height: 12.0,
            p_spike: 0.02,
            width: 3,
        }
    }
}

impl Spiky {
    /// Generate `t_len` slots.
    pub fn generate(&self, t_len: usize, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut loads = vec![self.floor; t_len];
        for t in 0..t_len {
            if rng.gen::<f64>() < self.p_spike {
                let end = (t + self.width).min(t_len);
                for load in &mut loads[t..end] {
                    *load = load.max(self.height);
                }
            }
        }
        Trace::new(format!("spiky(seed={seed})"), loads)
    }
}

/// Poisson arrivals averaged per slot (CLT-smoothed): load is
/// `Normal(rate, rate/samples)` clipped at 0 — a cheap stand-in for a
/// per-slot mean of many Poisson arrivals.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Stationary {
    /// Mean load.
    pub rate: f64,
    /// Effective number of aggregated arrival samples per slot.
    pub samples: f64,
}

impl Default for Stationary {
    fn default() -> Self {
        Self {
            rate: 6.0,
            samples: 30.0,
        }
    }
}

impl Stationary {
    /// Generate `t_len` slots.
    pub fn generate(&self, t_len: usize, seed: u64) -> Trace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sd = (self.rate / self.samples).sqrt();
        let normal = NormalApprox { sd };
        let loads = (0..t_len)
            .map(|_| (self.rate + normal.sample(&mut rng)).max(0.0))
            .collect();
        Trace::new(format!("stationary(seed={seed})"), loads)
    }
}

/// Zero-mean approximately-normal noise via the sum of uniforms
/// (Irwin–Hall with 12 terms), avoiding a dependency on `rand_distr`.
struct NormalApprox {
    sd: f64,
}

impl Distribution<f64> for NormalApprox {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        s * self.sd
    }
}

/// Weekly pattern: weekday diurnal cycles plus quieter weekends — the shape
/// of enterprise traces like the ones Lin et al. evaluated on.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Weekly {
    /// The weekday diurnal component.
    pub weekday: Diurnal,
    /// Multiplier applied on the two weekend days (e.g. `0.4`).
    pub weekend_factor: f64,
}

impl Default for Weekly {
    fn default() -> Self {
        Self {
            weekday: Diurnal::default(),
            weekend_factor: 0.4,
        }
    }
}

impl Weekly {
    /// Generate `t_len` slots; the week starts on a Monday.
    pub fn generate(&self, t_len: usize, seed: u64) -> Trace {
        let base = self.weekday.generate(t_len, seed);
        let per_day = self.weekday.period;
        let loads = base
            .loads
            .iter()
            .enumerate()
            .map(|(t, &l)| {
                let day = (t / per_day) % 7;
                if day >= 5 {
                    l * self.weekend_factor
                } else {
                    l
                }
            })
            .collect();
        Trace::new(format!("weekly(seed={seed})"), loads)
    }
}

impl Trace {
    /// Concatenate two traces.
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut loads = self.loads.clone();
        loads.extend_from_slice(&other.loads);
        Trace::new(format!("{}+{}", self.label, other.label), loads)
    }

    /// Downsample by averaging consecutive blocks of `factor` slots (the
    /// trailing partial block is averaged too). `factor >= 1`.
    pub fn downsample(&self, factor: usize) -> Trace {
        assert!(factor >= 1);
        let loads = self
            .loads
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        Trace::new(format!("{}/{}x", self.label, factor), loads)
    }

    /// Pointwise sum of two traces (shorter one implicitly zero-padded).
    pub fn overlay(&self, other: &Trace) -> Trace {
        let n = self.len().max(other.len());
        let loads = (0..n)
            .map(|t| {
                self.loads.get(t).copied().unwrap_or(0.0)
                    + other.loads.get(t).copied().unwrap_or(0.0)
            })
            .collect();
        Trace::new(format!("{}|{}", self.label, other.label), loads)
    }
}

/// The standard corpus used by tests, benches and the experiment harness:
/// one trace per generator family, including the weekly enterprise shape.
pub fn standard_corpus(t_len: usize, seed: u64) -> Vec<Trace> {
    vec![
        Diurnal::default().generate(t_len, seed),
        Bursty::default().generate(t_len, seed.wrapping_add(1)),
        Spiky::default().generate(t_len, seed.wrapping_add(2)),
        Stationary::default().generate(t_len, seed.wrapping_add(3)),
        Weekly::default().generate(t_len, seed.wrapping_add(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_is_periodic_and_bounded() {
        let d = Diurnal {
            period: 24,
            base: 2.0,
            peak: 10.0,
            noise: 0.0,
        };
        let tr = d.generate(96, 7);
        assert_eq!(tr.len(), 96);
        // Noise-free: slot t and t+period coincide.
        for t in 0..72 {
            assert!((tr.loads[t] - tr.loads[t + 24]).abs() < 1e-9);
        }
        assert!(tr.peak() <= 10.0 + 1e-9);
        assert!(tr.loads.iter().copied().fold(f64::INFINITY, f64::min) >= 2.0 - 1e-9);
    }

    #[test]
    fn diurnal_noise_is_seeded() {
        let d = Diurnal::default();
        let a = d.generate(100, 1);
        let b = d.generate(100, 1);
        let c = d.generate(100, 2);
        assert_eq!(a, b);
        assert_ne!(a.loads, c.loads);
    }

    #[test]
    fn bursty_visits_both_states() {
        let tr = Bursty::default().generate(4000, 11);
        let hi = tr.loads.iter().filter(|&&l| l > 8.0).count();
        let lo = tr.loads.iter().filter(|&&l| l < 5.0).count();
        assert!(hi > 100, "bursts should occur: {hi}");
        assert!(lo > 1000, "calm should dominate: {lo}");
    }

    #[test]
    fn spiky_has_flat_floor_and_spikes() {
        let tr = Spiky::default().generate(2000, 3);
        let floor = tr.loads.iter().filter(|&&l| (l - 1.0).abs() < 1e-9).count();
        let spikes = tr.loads.iter().filter(|&&l| l > 10.0).count();
        assert!(floor > 1000);
        assert!(spikes > 10);
    }

    #[test]
    fn stationary_concentrates_near_rate() {
        let tr = Stationary::default().generate(5000, 9);
        assert!((tr.mean() - 6.0).abs() < 0.2);
        assert!(tr.peak_to_mean() < 1.6);
    }

    #[test]
    fn peak_to_mean_and_scaling() {
        let tr = Trace::new("t", vec![1.0, 2.0, 3.0, 2.0]);
        assert!((tr.mean() - 2.0).abs() < 1e-12);
        assert!((tr.peak_to_mean() - 1.5).abs() < 1e-12);
        let s = tr.scaled_to_peak(6.0);
        assert!((s.peak() - 6.0).abs() < 1e-12);
        assert!((s.peak_to_mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clamped_respects_cap() {
        let tr = Trace::new("t", vec![0.5, 5.0, -1.0]).clamped(2.0);
        assert_eq!(tr.loads, vec![0.5, 2.0, 0.0]);
    }

    #[test]
    fn empty_trace_statistics() {
        let tr = Trace::new("e", vec![]);
        assert!(tr.is_empty());
        assert_eq!(tr.mean(), 0.0);
        assert_eq!(tr.peak_to_mean(), 1.0);
    }

    #[test]
    fn corpus_has_expected_members() {
        let c = standard_corpus(200, 5);
        assert_eq!(c.len(), 5);
        assert!(c.iter().all(|t| t.len() == 200));
        assert!(c.iter().any(|t| t.label.starts_with("weekly")));
    }

    #[test]
    fn peak_to_mean_is_always_finite() {
        // All-zero load: flat, ratio 1.
        assert_eq!(Trace::new("z", vec![0.0; 8]).peak_to_mean(), 1.0);
        // Degenerate zero-mean trace with a nonzero peak: the ratio is
        // undefined; it must come back 0, never inf (inf renders as
        // `null` in JSON and breaks stats round trips).
        let degenerate = Trace::new("d", vec![-1.0, 1.0]);
        assert_eq!(degenerate.peak_to_mean(), 0.0);
        assert!(degenerate.peak_to_mean().is_finite());
    }

    #[test]
    fn weekly_weekends_are_quieter() {
        let w = Weekly {
            weekday: Diurnal {
                period: 24,
                base: 2.0,
                peak: 10.0,
                noise: 0.0,
            },
            weekend_factor: 0.5,
        };
        let tr = w.generate(24 * 7, 3);
        // Same phase, day 0 (Mon) vs day 5 (Sat): factor 0.5.
        for h in 0..24 {
            let mon = tr.loads[h];
            let sat = tr.loads[24 * 5 + h];
            assert!((sat - 0.5 * mon).abs() < 1e-9, "hour {h}");
        }
    }

    #[test]
    fn concat_and_overlay() {
        let a = Trace::new("a", vec![1.0, 2.0]);
        let b = Trace::new("b", vec![3.0]);
        assert_eq!(a.concat(&b).loads, vec![1.0, 2.0, 3.0]);
        assert_eq!(a.overlay(&b).loads, vec![4.0, 2.0]);
    }

    #[test]
    fn downsample_averages_blocks() {
        let a = Trace::new("a", vec![1.0, 3.0, 5.0, 7.0, 10.0]);
        let d = a.downsample(2);
        assert_eq!(d.loads, vec![2.0, 6.0, 10.0]);
        // factor 1 is the identity on loads.
        assert_eq!(a.downsample(1).loads, a.loads);
    }
}
