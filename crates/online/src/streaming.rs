//! The online algorithms as resumable, object-safe streaming policies.
//!
//! The batch runners in [`crate::traits`] consume a complete [`Instance`];
//! a long-lived service instead sees an *unbounded* stream of cost
//! functions and must be able to checkpoint and resume mid-stream. The
//! algorithms themselves implement the one object-safe trait for that
//! shape, [`StreamingPolicy`]: [`Lcp`], [`RandomizedOnline`] over any
//! [`ResumableFractional`] algorithm, [`FollowTheMinimizer`] and
//! [`Hysteresis`]. [`StreamLookahead`] is the one adapter: it buffers the
//! prediction window that [`LookaheadLcp`] reads.
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
//! feeding a trace through a policy one event at a time, with any number
//! of snapshot/restore interruptions, produces exactly the schedule the
//! corresponding batch runner produces on the equivalent [`Instance`].

use crate::baselines::{FollowTheMinimizer, Hysteresis};
use crate::bounds::{BoundTracker, TrackerSnapshot};
use crate::flcp::GridLcp;
use crate::fractional::{HalfStep, MemorylessBalance};
use crate::lcp::{Lcp, LcpSnapshot};
use crate::prediction::LookaheadLcp;
use crate::randomized::{RandomizedOnline, Rounder, RounderSnapshot};
use crate::traits::{FractionalAlgorithm, LookaheadAlgorithm, OnlineAlgorithm};
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

    /// Signal end-of-stream and flush any states still held back. The
    /// default holds none back.
    fn finish(&mut self, _out: &mut Vec<u32>) {}

    /// Capture the complete mutable state.
    fn snapshot(&self) -> serde::Value;

    /// Re-install a previously captured state. The receiver must have been
    /// built with the same configuration (`m`, `beta`, policy parameters).
    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError>;

    /// How many ingested costs wait for a committed state: a lookahead
    /// window's buffer; 0 (the default) for a policy that commits one
    /// state per cost.
    fn held(&self) -> usize {
        0
    }

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

/// Refuse a tracker snapshot taken over another `m` or `beta`.
fn check_params(own: &BoundTracker, s: &TrackerSnapshot, what: &str) -> Result<(), StreamError> {
    if (s.m, s.beta) != own.params() {
        return Err(bad_snapshot(&format!("{what} snapshot m/beta mismatch")));
    }
    Ok(())
}

// ------------------------------------------------------------------- LCP

/// Discrete LCP: one state per ingested cost; the snapshot is an
/// [`LcpSnapshot`].
impl StreamingPolicy for Lcp {
    fn name(&self) -> String {
        OnlineAlgorithm::name(self)
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.step(f));
    }

    fn snapshot(&self) -> serde::Value {
        Lcp::snapshot(self).to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: LcpSnapshot = decode(snapshot, "LCP")?;
        check_params(self.tracker(), &s.tracker, "LCP")?;
        *self = Lcp::from_snapshot(&s)?;
        Ok(())
    }

    fn opt_tracker(&self) -> Option<&BoundTracker> {
        Some(self.tracker())
    }
}

// --------------------------------------------- fractional + rounding

/// Fractional algorithms that can expose and re-install their full state.
///
/// Implemented by [`HalfStep`], [`MemorylessBalance`] and [`GridLcp`];
/// [`RandomizedOnline`] composes any of them with the Section 4 randomized
/// [`Rounder`] into an integral streaming policy.
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

impl ResumableFractional for GridLcp {
    fn frac_snapshot(&self) -> serde::Value {
        self.snapshot().to_value()
    }

    fn frac_restore(&mut self, v: &serde::Value) -> Result<(), StreamError> {
        let s: LcpSnapshot = decode(v, "GridLcp")?;
        *self = GridLcp::from_snapshot(self.m(), self.k(), &s)?;
        Ok(())
    }
}

/// Serializable state of a [`RandomizedOnline`] policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundedSnapshot {
    /// Inner fractional policy state (policy-specific layout).
    pub fractional: serde::Value,
    /// Rounder state including RNG words.
    pub rounder: RounderSnapshot,
}

/// The Section 4 randomized algorithm: its stream is the batch runner's
/// for equal seeds, and its snapshot carries the rounder's RNG words.
impl<F: ResumableFractional> StreamingPolicy for RandomizedOnline<F> {
    fn name(&self) -> String {
        OnlineAlgorithm::name(self)
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.step(f));
    }

    fn snapshot(&self) -> serde::Value {
        RoundedSnapshot {
            fractional: self.fractional.frac_snapshot(),
            rounder: self.rounder.snapshot(),
        }
        .to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: RoundedSnapshot = decode(snapshot, "Randomized")?;
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
            window,
            inner: LookaheadLcp::new(m, beta),
            buf: VecDeque::new(),
        }
    }

    fn commit_front(&mut self, out: &mut Vec<u32>) {
        let x = self.inner.step(self.buf.make_contiguous());
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
        let LcpSnapshot { tracker, state } = self.inner.snapshot();
        LookaheadSnapshot {
            tracker,
            state,
            buffered: self.buf.iter().cloned().collect(),
        }
        .to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        let s: LookaheadSnapshot = decode(snapshot, "StreamLookahead")?;
        // `ingest` commits as soon as the buffer reaches `window + 1`, so a
        // snapshot never holds more than `window` costs.
        if s.buffered.len() > self.window {
            return Err(bad_snapshot("lookahead buffer exceeds window"));
        }
        check_params(self.inner.tracker(), &s.tracker, "lookahead")?;
        self.inner = LookaheadLcp::from_snapshot(&LcpSnapshot {
            tracker: s.tracker,
            state: s.state,
        })?;
        self.buf = s.buffered.into_iter().collect();
        Ok(())
    }

    fn held(&self) -> usize {
        self.buf.len()
    }

    fn opt_tracker(&self) -> Option<&BoundTracker> {
        Some(self.inner.tracker())
    }
}

// ------------------------------------------------------------- baselines

/// Follow-the-minimizer keeps no state between steps.
impl StreamingPolicy for FollowTheMinimizer {
    fn name(&self) -> String {
        OnlineAlgorithm::name(self)
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.step(f));
    }

    fn snapshot(&self) -> serde::Value {
        serde::Value::Null
    }

    fn restore(&mut self, _snapshot: &serde::Value) -> Result<(), StreamError> {
        Ok(())
    }
}

/// Hysteresis: the snapshot is the current state.
impl StreamingPolicy for Hysteresis {
    fn name(&self) -> String {
        OnlineAlgorithm::name(self)
    }

    fn ingest(&mut self, f: &Cost, out: &mut Vec<u32>) {
        out.push(self.step(f));
    }

    fn snapshot(&self) -> serde::Value {
        self.state().to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        self.set_state(decode::<u32>(snapshot, "Hysteresis state")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fractional::EvalMode;
    use crate::traits::run_lookahead;

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
        let interp = EvalMode::Interpolate;
        // Policies under test, paired with fresh twins restored mid-stream.
        type Builder = Box<dyn Fn() -> Box<dyn StreamingPolicy>>;
        let builders: Vec<(&str, Builder)> = vec![
            ("lcp", Box::new(|| Box::new(Lcp::new(7, 2.5)))),
            (
                "halfstep",
                Box::new(move || {
                    Box::new(RandomizedOnline::new(HalfStep::new(7, 2.5, interp), 7, 5))
                }),
            ),
            (
                "flcp",
                Box::new(|| Box::new(RandomizedOnline::new(GridLcp::new(7, 2.5, 3), 7, 5))),
            ),
            (
                "memoryless",
                Box::new(move || {
                    let balance = MemorylessBalance::new(7, 2.5, interp);
                    Box::new(RandomizedOnline::new(balance, 7, 5))
                }),
            ),
            (
                "lookahead",
                Box::new(|| Box::new(StreamLookahead::new(7, 2.5, 2))),
            ),
            (
                "followmin",
                Box::new(|| Box::new(FollowTheMinimizer::new(7))),
            ),
            ("hysteresis", Box::new(|| Box::new(Hysteresis::new(7, 1)))),
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
        let mut p = RandomizedOnline::new(GridLcp::new(5, 2.0, 2), 5, 11);
        let mut out = Vec::new();
        for f in &fs[..10] {
            p.ingest(f, &mut out);
        }
        let text = serde_json::to_string(&StreamingPolicy::snapshot(&p)).unwrap();
        let snap: serde::Value = serde_json::from_str(&text).unwrap();
        let mut q = RandomizedOnline::new(GridLcp::new(5, 2.0, 2), 5, 0);
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
        let mut a = Lcp::new(4, 1.0);
        let mut out = Vec::new();
        a.ingest(&Cost::abs(1.0, 2.0), &mut out);
        let snap = StreamingPolicy::snapshot(&a);
        let mismatch = "incompatible snapshot: LCP snapshot m/beta mismatch";
        let err = Lcp::new(8, 1.0).restore(&snap).unwrap_err();
        assert!(err.to_string().contains(mismatch), "{err}");
        assert!(Lcp::new(4, 2.0).restore(&snap).is_err());

        let mut a = StreamLookahead::new(4, 1.0, 2);
        a.ingest(&Cost::abs(1.0, 2.0), &mut out);
        let snap = a.snapshot();
        assert!(StreamLookahead::new(4, 1.0, 2).restore(&snap).is_ok());
        assert!(StreamLookahead::new(8, 1.0, 2).restore(&snap).is_err());
        assert!(StreamLookahead::new(4, 2.0, 2).restore(&snap).is_err());
        // `ingest` never leaves more than `window` costs buffered.
        let mut overfull = LookaheadSnapshot::from_value(&snap).unwrap();
        overfull.buffered.extend(costs(2));
        let err = StreamLookahead::new(4, 1.0, 2)
            .restore(&overfull.to_value())
            .unwrap_err();
        assert!(err.to_string().contains("lookahead buffer exceeds window"));

        let flcp = RandomizedOnline::new(GridLcp::new(4, 1.0, 2), 4, 0);
        let snap = StreamingPolicy::snapshot(&flcp);
        let mut finer = RandomizedOnline::new(GridLcp::new(4, 1.0, 3), 4, 0);
        let err = finer.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("expected m*k = 12"), "{err}");
    }
}
