//! # rsdc-online — competitive online algorithms
//!
//! The online side of Albers & Quedenfeld (SPAA 2018): cost functions
//! arrive one per slot and the algorithm commits to `x_t` before seeing
//! `f_{t+1}`.
//!
//! * [`lcp`] — the discrete **Lazy Capacity Provisioning** algorithm,
//!   3-competitive (Theorem 2) and optimal among deterministic algorithms
//!   (Theorem 4);
//! * [`bounds`] — incremental maintenance of the LCP bounds `x^L`, `x^U`
//!   and the value functions `\hat C^L`, `\hat C^U` (Lemmas 7–10 are
//!   runtime-checkable);
//! * [`fractional`] — fractional algorithms for the continuous setting
//!   (half-subgradient "algorithm B", memoryless balance, OBD);
//! * [`randomized`] — the Section 4 randomized rounding, turning any
//!   2-competitive fractional schedule into a 2-competitive randomized
//!   integral algorithm (Theorem 3, optimal by Theorem 8);
//! * [`prediction`] — lookahead algorithms for the prediction-window model
//!   of Section 5.4;
//! * [`streaming`] — the object-safe, resumable [`StreamingPolicy`] trait
//!   with snapshot/restore, implemented by the algorithms themselves; the
//!   substrate of the `rsdc-engine` service layer;
//! * [`traits`] — the algorithm interfaces and runners.
//!
//! ## Example
//!
//! ```
//! use rsdc_core::prelude::*;
//! use rsdc_online::lcp::Lcp;
//! use rsdc_online::traits::{run, competitive_ratio, OnlineAlgorithm};
//!
//! let inst = Instance::new(8, 2.0, (0..50).map(|t| {
//!     Cost::abs(1.0, 4.0 + 3.0 * ((t as f64) * 0.4).sin())
//! }).collect()).unwrap();
//!
//! let mut lcp = Lcp::new(8, 2.0);
//! let xs = run(&mut lcp, &inst);
//! let (_alg, _opt, ratio) = competitive_ratio(&inst, &xs);
//! assert!(ratio <= 3.0 + 1e-9); // Theorem 2
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod bounds;
pub mod flcp;
pub mod fractional;
pub mod lcp;
pub mod prediction;
pub mod randomized;
pub mod streaming;
pub mod traits;

pub use lcp::Lcp;
pub use streaming::StreamingPolicy;
pub use traits::{FractionalAlgorithm, LookaheadAlgorithm, OnlineAlgorithm};
