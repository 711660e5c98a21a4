//! # rsdc-core — the discrete data-center right-sizing problem model
//!
//! Core types for the reproduction of Albers & Quedenfeld, *Optimal
//! Algorithms for Right-Sizing Data Centers* (SPAA 2018, extended version
//! arXiv:1807.05112v2).
//!
//! The problem: a data center has `m` homogeneous servers; at each time slot
//! `t = 1..=T` a non-negative convex function `f_t` prices running `x_t`
//! active servers, and powering a server up costs `beta`. Find the integral
//! schedule `X = (x_1, ..., x_T)` minimizing
//!
//! ```text
//! sum_t f_t(x_t) + beta * sum_t (x_t - x_{t-1})^+ ,   x_0 = x_{T+1} = 0.
//! ```
//!
//! This crate contains the *model* only: cost functions ([`Cost`]),
//! instances ([`Instance`], [`RestrictedInstance`]), schedules
//! ([`Schedule`], [`FracSchedule`]) and cost evaluators. Algorithms live in
//! `rsdc-offline` (optimal offline solvers) and `rsdc-online` (competitive
//! online algorithms); adversarial lower-bound constructions live in
//! `rsdc-adversary`.
//!
//! ## Example
//!
//! ```
//! use rsdc_core::prelude::*;
//!
//! // Three slots, up to 4 servers, power-up cost 2.
//! let inst = Instance::new(4, 2.0, vec![
//!     Cost::quadratic(1.0, 3.0, 0.0), // wants ~3 servers
//!     Cost::quadratic(1.0, 1.0, 0.0), // wants ~1 server
//!     Cost::quadratic(1.0, 4.0, 0.0), // wants ~4 servers
//! ]).unwrap();
//!
//! let xs = Schedule(vec![3, 2, 4]);
//! assert!(xs.is_feasible(&inst));
//! let total = rsdc_core::schedule::cost(&inst, &xs);
//! assert!(total > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod error;
pub mod instance;
pub mod schedule;

pub use analysis::{
    breakdown, phases, stats as schedule_stats, CostBreakdown, Direction, ScheduleStats,
};
pub use cost::{Cost, ServerParams, Unit, CONVEX_RTOL};
pub use error::Error;
pub use instance::{Instance, RestrictedInstance};
pub use schedule::{FracMode, FracSchedule, Schedule};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cost::{Cost, ServerParams, Unit};
    pub use crate::error::Error;
    pub use crate::instance::{Instance, RestrictedInstance};
    pub use crate::schedule::{
        cost, frac_cost, frac_operating_cost, frac_switching_cost_up, frac_symmetric_cost,
        operating_cost, switching_cost_up, symmetric_cost, FracMode, FracSchedule, Schedule,
    };
}
