//! Trace statistics: the shape descriptors used to match synthetic traces
//! to the qualitative properties of the (proprietary) originals, and to
//! report workload characteristics (`rsdc analyze`).

use crate::traces::Trace;
use serde::{Deserialize, Serialize};

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of slots.
    pub len: usize,
    /// Mean load.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum load.
    pub min: f64,
    /// Maximum load.
    pub max: f64,
    /// Peak-to-mean ratio.
    pub peak_to_mean: f64,
    /// Coefficient of variation (std/mean; 0 for zero-mean traces).
    pub cv: f64,
    /// Lag-1 autocorrelation (0 for traces shorter than 2).
    pub autocorr1: f64,
    /// Mean absolute slot-to-slot change, normalised by the mean
    /// ("burstiness": 0 for constant traces, large for noisy ones).
    pub burstiness: f64,
}

/// Compute all summary statistics.
pub fn trace_stats(tr: &Trace) -> TraceStats {
    let n = tr.len();
    let mean = tr.mean();
    let var = if n == 0 {
        0.0
    } else {
        tr.loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n as f64
    };
    let std_dev = var.sqrt();
    let min = tr.loads.iter().copied().fold(f64::INFINITY, f64::min);
    let min = if min.is_finite() { min } else { 0.0 };
    TraceStats {
        len: n,
        mean,
        std_dev,
        min,
        max: tr.peak(),
        peak_to_mean: tr.peak_to_mean(),
        cv: if mean > 0.0 { std_dev / mean } else { 0.0 },
        autocorr1: autocorrelation(&tr.loads, 1),
        burstiness: burstiness(&tr.loads),
    }
}

/// Lag-`k` autocorrelation; 0 when undefined (short traces or zero
/// variance).
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    let n = xs.len();
    if n <= k || n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
    if var == 0.0 {
        return 0.0;
    }
    let cov: f64 = xs
        .windows(k + 1)
        .map(|w| (w[0] - mean) * (w[k] - mean))
        .sum();
    cov / var
}

/// Mean absolute slot-to-slot change normalised by the mean load.
pub fn burstiness(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let step: f64 = xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (xs.len() - 1) as f64;
    step / mean
}

/// Empirical quantile (linear interpolation between order statistics);
/// `q in [0, 1]`. Returns 0 for empty inputs.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN loads"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 || lo + 1 >= sorted.len() {
        sorted[lo]
    } else {
        (1.0 - frac) * sorted[lo] + frac * sorted[lo + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{Bursty, Diurnal, Stationary};

    #[test]
    fn stats_of_constant_trace() {
        let tr = Trace::new("c", vec![5.0; 10]);
        let s = trace_stats(&tr);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.peak_to_mean, 1.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.autocorr1, 0.0); // zero variance
        assert_eq!(s.burstiness, 0.0);
    }

    #[test]
    fn diurnal_is_strongly_autocorrelated() {
        let tr = Diurnal {
            period: 48,
            base: 1.0,
            peak: 10.0,
            noise: 0.02,
        }
        .generate(480, 1);
        let s = trace_stats(&tr);
        assert!(s.autocorr1 > 0.9, "smooth sinusoid: got {}", s.autocorr1);
        assert!(s.burstiness < 0.2);
    }

    #[test]
    fn stationary_is_weakly_autocorrelated() {
        let tr = Stationary::default().generate(4000, 2);
        let s = trace_stats(&tr);
        assert!(s.autocorr1.abs() < 0.1, "iid noise: got {}", s.autocorr1);
    }

    #[test]
    fn bursty_is_burstier_than_diurnal() {
        let d = trace_stats(&Diurnal::default().generate(2000, 3));
        let b = trace_stats(&Bursty::default().generate(2000, 3));
        assert!(b.burstiness > d.burstiness);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Out-of-range q is clamped.
        assert_eq!(quantile(&xs, 2.0), 4.0);
    }

    #[test]
    fn autocorrelation_of_alternating_signal() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
        assert_eq!(burstiness(&[1.0]), 0.0);
        assert_eq!(burstiness(&[0.0, 0.0]), 0.0);
        let s = trace_stats(&Trace::new("e", vec![]));
        assert_eq!(s.len, 0);
        assert_eq!(s.min, 0.0);
    }
}
