//! Resumable, object-safe streaming wrappers over the online algorithms.
//!
//! The batch runners in [`crate::traits`] consume a complete [`Instance`];
//! a long-lived service instead sees an *unbounded* stream of cost
//! functions and must be able to checkpoint and resume mid-stream. This
//! module adapts every policy family to that shape behind one object-safe
//! trait, [`StreamingPolicy`]:
//!
//! * **ingest** — feed the next cost function; committed states come back
//!   through an out-buffer because lookahead policies emit them with a lag;
//! * **finish** — end-of-stream: flush states still held back by lookahead;
//! * **snapshot / restore** — capture and re-install the *complete*
//!   mutable state (bound-tracker value function, fractional states,
//!   rounder RNG words, buffered windows) as a [`serde::Value`] tree, so a
//!   restored policy continues **bit-identically** — including the
//!   randomized policies, whose RNG state rides along.
//!
//! Equivalence guarantees (checked by the cross-crate differential tests):
//! feeding a trace through a wrapper one event at a time, with any number
//! of snapshot/restore interruptions, produces exactly the schedule the
//! corresponding batch runner produces on the equivalent [`Instance`].

use crate::baselines::{FollowTheMinimizer, Hysteresis};
use crate::bounds::{BoundTracker, TrackerSnapshot};
use crate::flcp::GridLcp;
use crate::fractional::{EvalMode, HalfStep, MemorylessBalance};
use crate::lcp::Lcp;
use crate::prediction::LookaheadLcp;
use crate::randomized::{Rounder, RounderSnapshot};
use crate::traits::{FractionalAlgorithm, LookaheadAlgorithm, OnlineAlgorithm};
use rand::rngs::StdRng;
use rsdc_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Errors raised by snapshot/restore.
pub type StreamError = rsdc_core::Error;

fn bad_snapshot(what: &str) -> StreamError {
    rsdc_core::Error::InvalidParameter(format!("incompatible snapshot: {what}"))
}

/// An online policy adapted to unbounded streams with checkpointing.
///
/// Object-safe: engines hold tenants as `Box<dyn StreamingPolicy>`.
///
/// The contract every implementation upholds (and the differential tests
/// enforce): (1) streamed output equals the corresponding batch runner's
/// on the equivalent instance; (2) `restore(snapshot())` on a same-config
/// receiver continues **bit-identically** — including RNG state, so even
/// randomized policies survive checkpoints exactly; (3) `restore` rejects
/// snapshots from a differently-configured policy instead of silently
/// corrupting state. Heterogeneous (vector-state) tenants stream through
/// the parallel `rsdc_hetero::HeteroStream` shape, which upholds the same
/// three guarantees with the DP frontier as its snapshot.
pub trait StreamingPolicy: Send {
    /// Human-readable policy name.
    fn name(&self) -> String;

    /// Feed the next cost function; newly committed states are appended to
    /// `out` (usually exactly one; zero while a lookahead window fills).
    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>);

    /// Signal end-of-stream and flush any states still held back.
    fn finish(&mut self, out: &mut Vec<u32>);

    /// Capture the complete mutable state.
    fn snapshot(&self) -> serde::Value;

    /// Re-install a previously captured state. The receiver must have been
    /// built with the same configuration (`m`, `beta`, policy parameters).
    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError>;

    /// The policy's own bound tracker, when it is stepped with exactly the
    /// ingested costs, one per committed state, over the policy's `m` and
    /// `beta`. Its `min \hat C^L` is then the prefix optimum of the
    /// committed slots ([`BoundTracker::prefix_opt`]), so a caller tracking
    /// the competitive ratio can read it here instead of running a second
    /// tracker. `None` (the default) for every other policy.
    fn opt_tracker(&self) -> Option<&BoundTracker> {
        None
    }
}

fn decode<T: Deserialize>(v: &serde::Value, what: &str) -> Result<T, StreamError> {
    T::from_value(v).map_err(|e| bad_snapshot(&format!("{what}: {e}")))
}

// ------------------------------------------------------------------- LCP

/// Streaming discrete LCP ([`Lcp`]): one state per ingested cost.
pub struct StreamLcp {
    m: u32,
    beta: f64,
    inner: Lcp,
}

/// Serializable state of [`StreamLcp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpSnapshot {
    /// Tracker state.
    pub tracker: TrackerSnapshot,
    /// Committed state `x^LCP`.
    pub state: u32,
}

impl StreamLcp {
    /// Streaming LCP over `m` servers with power-up cost `beta`.
    pub fn new(m: u32, beta: f64) -> Self {
        Self {
            m,
            beta,
            inner: Lcp::new(m, beta),
        }
    }
}

impl StreamingPolicy for StreamLcp {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.inner.step(f).min(self.m));
    }

    fn finish(&mut self, _out: &mut Vec<u32>) {}

    fn snapshot(&self) -> serde::Value {
        let (tracker, state) = self.inner.snapshot();
        LcpSnapshot { tracker, state }.to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: LcpSnapshot = decode(snapshot, "LCP")?;
        if s.tracker.m != self.m || s.tracker.beta != self.beta {
            return Err(bad_snapshot("LCP snapshot m/beta mismatch"));
        }
        self.inner = Lcp::from_snapshot(&s.tracker, s.state)?;
        Ok(())
    }

    fn opt_tracker(&self) -> Option<&BoundTracker> {
        Some(self.inner.tracker())
    }
}

// --------------------------------------------- fractional + rounding

/// Fractional algorithms that can expose and re-install their full state.
///
/// Implemented by [`HalfStep`], [`MemorylessBalance`] and [`GridLcp`]; the
/// [`StreamRounded`] wrapper composes any of them with the Section 4
/// randomized [`Rounder`] into an integral streaming policy.
pub trait ResumableFractional: FractionalAlgorithm + Send {
    /// Capture the algorithm's mutable state.
    fn frac_snapshot(&self) -> serde::Value;

    /// Re-install a captured state.
    fn frac_restore(&mut self, v: &serde::Value) -> Result<(), StreamError>;
}

impl ResumableFractional for HalfStep {
    fn frac_snapshot(&self) -> serde::Value {
        self.state().to_value()
    }

    fn frac_restore(&mut self, v: &serde::Value) -> Result<(), StreamError> {
        self.set_state(decode::<f64>(v, "HalfStep state")?);
        Ok(())
    }
}

impl ResumableFractional for MemorylessBalance {
    fn frac_snapshot(&self) -> serde::Value {
        self.state().to_value()
    }

    fn frac_restore(&mut self, v: &serde::Value) -> Result<(), StreamError> {
        self.set_state(decode::<f64>(v, "MemorylessBalance state")?);
        Ok(())
    }
}

/// Serializable state of a [`GridLcp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridLcpSnapshot {
    /// Tracker over the fine grid.
    pub tracker: TrackerSnapshot,
    /// State in grid units.
    pub state: u32,
}

impl ResumableFractional for GridLcp {
    fn frac_snapshot(&self) -> serde::Value {
        let (tracker, state) = self.snapshot();
        GridLcpSnapshot { tracker, state }.to_value()
    }

    fn frac_restore(&mut self, v: &serde::Value) -> Result<(), StreamError> {
        let s: GridLcpSnapshot = decode(v, "GridLcp")?;
        *self = GridLcp::from_snapshot(self.m(), self.k(), &s.tracker, s.state)?;
        Ok(())
    }
}

/// A fractional policy composed with the randomized rounding of Section 4,
/// exactly mirroring [`crate::randomized::RandomizedOnline`] step for step
/// (including the final `min(m)` clamp), so streamed output is
/// bit-identical to the batch runner for equal seeds.
pub struct StreamRounded<F: ResumableFractional> {
    fractional: F,
    rounder: Rounder<StdRng>,
    m: u32,
    label: String,
}

/// Serializable state of [`StreamRounded`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundedSnapshot {
    /// Inner fractional policy state (policy-specific layout).
    pub fractional: serde::Value,
    /// Rounder state including RNG words.
    pub rounder: RounderSnapshot,
}

impl<F: ResumableFractional> StreamRounded<F> {
    /// Compose `fractional` with a seeded rounder over `0..=m`.
    pub fn new(fractional: F, m: u32, seed: u64) -> Self {
        let label = format!("Randomized({})", fractional.name());
        Self {
            fractional,
            rounder: Rounder::seeded(seed),
            m,
            label,
        }
    }
}

impl<F: ResumableFractional> StreamingPolicy for StreamRounded<F> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        let frac = self.fractional.step(f);
        out.push(self.rounder.round(frac).min(self.m));
    }

    fn finish(&mut self, _out: &mut Vec<u32>) {}

    fn snapshot(&self) -> serde::Value {
        RoundedSnapshot {
            fractional: self.fractional.frac_snapshot(),
            rounder: self.rounder.snapshot(),
        }
        .to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: RoundedSnapshot = decode(snapshot, "StreamRounded")?;
        self.fractional.frac_restore(&s.fractional)?;
        self.rounder = Rounder::from_snapshot(&s.rounder)?;
        Ok(())
    }
}

// ------------------------------------------------------------ lookahead

/// Streaming lookahead: buffers up to `window` future costs and commits
/// slot `t` once `f_{t+window}` arrives (or at [`StreamingPolicy::finish`],
/// where the window shrinks exactly like
/// [`crate::traits::run_lookahead`] near the horizon).
pub struct StreamLookahead {
    m: u32,
    beta: f64,
    window: usize,
    inner: LookaheadLcp,
    buf: VecDeque<Cost>,
}

/// Serializable state of [`StreamLookahead`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LookaheadSnapshot {
    /// Tracker state.
    pub tracker: TrackerSnapshot,
    /// Committed state.
    pub state: u32,
    /// Buffered, not-yet-committed window costs (oldest first).
    pub buffered: Vec<Cost>,
}

impl StreamLookahead {
    /// Streaming [`LookaheadLcp`] with a `window`-slot prediction window.
    pub fn new(m: u32, beta: f64, window: usize) -> Self {
        Self {
            m,
            beta,
            window,
            inner: LookaheadLcp::new(m, beta),
            buf: VecDeque::new(),
        }
    }

    fn commit_front(&mut self, out: &mut Vec<u32>) {
        let x = self.inner.step(self.buf.make_contiguous()).min(self.m);
        self.buf.pop_front();
        out.push(x);
    }
}

impl StreamingPolicy for StreamLookahead {
    fn name(&self) -> String {
        format!("LCP(lookahead,w={})", self.window)
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        self.buf.push_back(f.clone());
        if self.buf.len() == self.window + 1 {
            self.commit_front(out);
        }
    }

    fn finish(&mut self, out: &mut Vec<u32>) {
        while !self.buf.is_empty() {
            self.commit_front(out);
        }
    }

    fn snapshot(&self) -> serde::Value {
        let (tracker, state) = self.inner.snapshot();
        LookaheadSnapshot {
            tracker,
            state,
            buffered: self.buf.iter().cloned().collect(),
        }
        .to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: LookaheadSnapshot = decode(snapshot, "StreamLookahead")?;
        if s.buffered.len() > self.window + 1 {
            return Err(bad_snapshot("lookahead buffer exceeds window"));
        }
        if s.tracker.m != self.m || s.tracker.beta != self.beta {
            return Err(bad_snapshot("lookahead snapshot m/beta mismatch"));
        }
        self.inner = LookaheadLcp::from_snapshot(&s.tracker, s.state)?;
        self.buf = s.buffered.into_iter().collect();
        Ok(())
    }

    fn opt_tracker(&self) -> Option<&BoundTracker> {
        Some(self.inner.tracker())
    }
}

// ------------------------------------------------------------- baselines

/// Streaming [`FollowTheMinimizer`] (stateless between steps).
pub struct StreamFollowMin {
    m: u32,
    inner: FollowTheMinimizer,
}

impl StreamFollowMin {
    /// Streaming follow-the-minimizer over `0..=m`.
    pub fn new(m: u32) -> Self {
        Self {
            m,
            inner: FollowTheMinimizer::new(m),
        }
    }
}

impl StreamingPolicy for StreamFollowMin {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.inner.step(f).min(self.m));
    }

    fn finish(&mut self, _out: &mut Vec<u32>) {}

    fn snapshot(&self) -> serde::Value {
        serde::Value::Null
    }

    fn restore(&mut self, _snapshot: &serde::Value) -> Result<(), StreamError> {
        Ok(())
    }
}

/// Streaming [`Hysteresis`] baseline.
pub struct StreamHysteresis {
    m: u32,
    inner: Hysteresis,
}

impl StreamHysteresis {
    /// Streaming hysteresis with dead-band `band`.
    pub fn new(m: u32, band: u32) -> Self {
        Self {
            m,
            inner: Hysteresis::new(m, band),
        }
    }
}

impl StreamingPolicy for StreamHysteresis {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.inner.step(f).min(self.m));
    }

    fn finish(&mut self, _out: &mut Vec<u32>) {}

    fn snapshot(&self) -> serde::Value {
        self.inner.state().to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        self.inner
            .set_state(decode::<u32>(snapshot, "Hysteresis state")?);
        Ok(())
    }
}

/// Convenience constructors matching the CLI's policy names.
impl StreamRounded<HalfStep> {
    /// The Section 4 randomized algorithm over the interpolated extension —
    /// the streaming twin of the CLI's `randomized` policy.
    pub fn halfstep(m: u32, beta: f64, seed: u64) -> Self {
        StreamRounded::new(HalfStep::new(m, beta, EvalMode::Interpolate), m, seed)
    }
}

impl StreamRounded<GridLcp> {
    /// Fractional LCP on a `1/k` grid, rounded — "FLCP-rounded".
    pub fn flcp(m: u32, beta: f64, k: u32, seed: u64) -> Self {
        StreamRounded::new(GridLcp::new(m, beta, k), m, seed)
    }
}

impl StreamRounded<MemorylessBalance> {
    /// Memoryless balance, rounded.
    pub fn memoryless(m: u32, beta: f64, seed: u64) -> Self {
        StreamRounded::new(
            MemorylessBalance::new(m, beta, EvalMode::Interpolate),
            m,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomized::RandomizedOnline;
    use crate::traits::{run, run_lookahead};

    fn costs(n: usize) -> Vec<Cost> {
        (0..n)
            .map(|t| Cost::abs(0.5 + (t % 3) as f64, ((t * 7 + 2) % 9) as f64))
            .collect()
    }

    fn stream_all(p: &mut dyn StreamingPolicy, fs: &[Cost]) -> Vec<u32> {
        let mut out = Vec::new();
        for f in fs {
            p.ingest(f, &mut out);
        }
        p.finish(&mut out);
        out
    }

    #[test]
    fn stream_lcp_matches_batch_run() {
        let fs = costs(60);
        let inst = Instance::new(8, 2.0, fs.clone()).unwrap();
        let batch = run(&mut Lcp::new(8, 2.0), &inst);
        let mut s = StreamLcp::new(8, 2.0);
        assert_eq!(stream_all(&mut s, &fs), batch.0);
    }

    #[test]
    fn stream_rounded_matches_randomized_online() {
        let fs = costs(50);
        let inst = Instance::new(6, 1.5, fs.clone()).unwrap();
        let mut batch_alg =
            RandomizedOnline::new(HalfStep::new(6, 1.5, EvalMode::Interpolate), 6, 99);
        let batch = run(&mut batch_alg, &inst);
        let mut s = StreamRounded::halfstep(6, 1.5, 99);
        assert_eq!(stream_all(&mut s, &fs), batch.0);
    }

    #[test]
    fn stream_lookahead_matches_run_lookahead() {
        let fs = costs(31);
        let inst = Instance::new(8, 2.0, fs.clone()).unwrap();
        for w in [0usize, 1, 3, 7] {
            let batch = run_lookahead(&mut LookaheadLcp::new(8, 2.0), &inst, w);
            let mut s = StreamLookahead::new(8, 2.0, w);
            assert_eq!(stream_all(&mut s, &fs), batch.0, "window {w}");
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let fs = costs(40);
        // Policies under test, paired with fresh twins restored mid-stream.
        type Builder = Box<dyn Fn() -> Box<dyn StreamingPolicy>>;
        let builders: Vec<(&str, Builder)> = vec![
            ("lcp", Box::new(|| Box::new(StreamLcp::new(7, 2.5)))),
            (
                "halfstep",
                Box::new(|| Box::new(StreamRounded::halfstep(7, 2.5, 5))),
            ),
            (
                "flcp",
                Box::new(|| Box::new(StreamRounded::flcp(7, 2.5, 3, 5))),
            ),
            (
                "memoryless",
                Box::new(|| Box::new(StreamRounded::memoryless(7, 2.5, 5))),
            ),
            (
                "lookahead",
                Box::new(|| Box::new(StreamLookahead::new(7, 2.5, 2))),
            ),
            (
                "hysteresis",
                Box::new(|| Box::new(StreamHysteresis::new(7, 1))),
            ),
        ];
        for (name, make) in &builders {
            let mut uninterrupted = make();
            let full = stream_all(uninterrupted.as_mut(), &fs);

            let mut first = make();
            let mut out = Vec::new();
            for f in &fs[..17] {
                first.ingest(f, &mut out);
            }
            let snap = first.snapshot();
            drop(first);
            let mut resumed = make();
            resumed.restore(&snap).unwrap();
            for f in &fs[17..] {
                resumed.ingest(f, &mut out);
            }
            resumed.finish(&mut out);
            assert_eq!(out, full, "policy {name}");
        }
    }

    #[test]
    fn snapshot_survives_json_text() {
        let fs = costs(25);
        let mut p = StreamRounded::flcp(5, 2.0, 2, 11);
        let mut out = Vec::new();
        for f in &fs[..10] {
            p.ingest(f, &mut out);
        }
        let text = serde_json::to_string(&p.snapshot()).unwrap();
        let snap: serde::Value = serde_json::from_str(&text).unwrap();
        let mut q = StreamRounded::flcp(5, 2.0, 2, 0);
        q.restore(&snap).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for f in &fs[10..] {
            p.ingest(f, &mut a);
            q.ingest(f, &mut b);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut a = StreamLcp::new(4, 1.0);
        let mut out = Vec::new();
        a.ingest(&Cost::abs(1.0, 2.0), &mut out);
        let snap = a.snapshot();
        let mut b = StreamLcp::new(8, 1.0);
        assert!(b.restore(&snap).is_err());
        let mut c = StreamLcp::new(4, 2.0);
        assert!(c.restore(&snap).is_err());

        let mut a = StreamLookahead::new(4, 1.0, 2);
        a.ingest(&Cost::abs(1.0, 2.0), &mut out);
        let snap = a.snapshot();
        assert!(StreamLookahead::new(4, 1.0, 2).restore(&snap).is_ok());
        assert!(StreamLookahead::new(8, 1.0, 2).restore(&snap).is_err());
        assert!(StreamLookahead::new(4, 2.0, 2).restore(&snap).is_err());
    }
}
