//! The online algorithms as resumable, object-safe streaming policies.
//!
//! The batch runners in [`crate::traits`] consume a complete [`Instance`];
//! a long-lived service instead sees an *unbounded* stream of cost
//! functions and must be able to checkpoint and resume mid-stream. The
//! algorithms themselves implement the one object-safe trait for that
//! shape, [`StreamingPolicy`]: [`Lcp`], [`RandomizedOnline`] over any
//! [`ResumableFractional`] algorithm, [`LookaheadLcp`],
//! [`FollowTheMinimizer`] and [`Hysteresis`]. No adapter sits between.
//!
//! The caller keeps the one buffer of ingested, uncommitted costs (its
//! *pending* slots, oldest first) and hands it to every call, so a
//! lookahead policy reads its prediction window there instead of keeping
//! a copy:
//!
//! * **ingest** — the new cost is the last pending one; committed states
//!   come back through an out-buffer, one per oldest pending cost, because
//!   lookahead policies emit them with a lag;
//! * **finish** — end-of-stream: commit every pending slot;
//! * **snapshot / restore** — capture and re-install the *complete*
//!   mutable state (bound-tracker value function, fractional states,
//!   rounder RNG words) as a [`serde::Value`] tree, so a restored policy,
//!   handed the same pending slots, continues **bit-identically** —
//!   including the randomized policies, whose RNG state rides along;
//! * **check_lag** — how many pending slots a restored policy may be
//!   handed: none, or up to the window for lookahead.
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

/// Errors raised by snapshot/restore.
pub type StreamError = rsdc_core::Error;

fn bad_snapshot(what: &str) -> StreamError {
    rsdc_core::Error::InvalidParameter(format!("incompatible snapshot: {what}"))
}

/// The lag rule of a policy that commits one state per cost: it is never
/// handed a pending slot after a restore.
pub fn refuse_lag(pending: usize) -> Result<(), StreamError> {
    if pending == 0 {
        return Ok(());
    }
    Err(rsdc_core::Error::InvalidParameter(format!(
        "snapshot has {pending} pending slots but its policy holds 0"
    )))
}

/// The new cost of an [`StreamingPolicy::ingest`] call.
fn newest(pending: &[Cost]) -> &Cost {
    pending.last().expect("ingest is handed the new cost")
}

/// An online policy adapted to unbounded streams with checkpointing.
///
/// Object-safe: engines hold tenants as `Box<dyn StreamingPolicy>`.
///
/// The contract every implementation upholds (and the differential tests
/// enforce): (1) streamed output equals the corresponding batch runner's
/// on the equivalent instance; (2) `restore(snapshot())` on a same-config
/// receiver, handed the same pending slots, continues **bit-identically**
/// — including RNG state, so even randomized policies survive checkpoints
/// exactly; (3) `restore` and `check_lag` reject state from a
/// differently-configured policy instead of silently corrupting it.
/// Heterogeneous (vector-state) tenants stream through the parallel
/// `rsdc_hetero::HeteroStream` shape, which upholds the same three
/// guarantees with the DP frontier as its snapshot.
pub trait StreamingPolicy: Send {
    /// Human-readable policy name.
    fn name(&self) -> String;

    /// Feed the next cost function, the last of the caller's `pending`
    /// costs (ingested, not yet committed, oldest first). Newly committed
    /// states are appended to `out`, one for each of the oldest pending
    /// costs, which the caller then drops (usually exactly one; zero while
    /// a lookahead window fills).
    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>);

    /// Signal end-of-stream: commit a state for every `pending` cost. The
    /// default has none pending.
    fn finish(&mut self, _pending: &[Cost], _out: &mut Vec<u32>) {}

    /// Capture the complete mutable state.
    fn snapshot(&self) -> serde::Value;

    /// Re-install a previously captured state. The receiver must have been
    /// built with the same configuration (`m`, `beta`, policy parameters).
    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError>;

    /// Accept or refuse `pending` uncommitted slots for a restored policy.
    /// The default ([`refuse_lag`]) accepts none.
    fn check_lag(&self, pending: usize) -> Result<(), StreamError> {
        refuse_lag(pending)
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

    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        out.push(self.step(newest(pending)));
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

    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        out.push(self.step(newest(pending)));
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

/// Lookahead LCP reads its prediction window from the caller's pending
/// costs: it commits the oldest once they number `window + 1`, and at
/// [`StreamingPolicy::finish`] over the shrinking tail, exactly like
/// [`crate::traits::run_lookahead`] near the horizon. The snapshot is an
/// [`LcpSnapshot`]; the window itself is the caller's to keep.
impl StreamingPolicy for LookaheadLcp {
    fn name(&self) -> String {
        format!("LCP(lookahead,w={})", self.window)
    }

    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        if pending.len() > self.window {
            out.push(self.step(pending));
        }
    }

    fn finish(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        for start in 0..pending.len() {
            out.push(self.step(&pending[start..]));
        }
    }

    fn snapshot(&self) -> serde::Value {
        LcpSnapshot {
            tracker: self.tracker.snapshot(),
            state: self.state,
        }
        .to_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), StreamError> {
        // Snapshots written before the window lived with the caller carry
        // a `buffered` copy of it; decoding skips that field.
        let s: LcpSnapshot = decode(snapshot, "LookaheadLcp")?;
        check_params(&self.tracker, &s.tracker, "lookahead")?;
        self.tracker = BoundTracker::from_snapshot(&s.tracker)?;
        self.state = s.state;
        Ok(())
    }

    fn check_lag(&self, pending: usize) -> Result<(), StreamError> {
        // `ingest` commits as soon as `window + 1` costs are pending.
        if pending > self.window {
            return Err(bad_snapshot("lookahead buffer exceeds window"));
        }
        Ok(())
    }

    fn opt_tracker(&self) -> Option<&BoundTracker> {
        Some(self.tracker())
    }
}

// ------------------------------------------------------------- baselines

/// Follow-the-minimizer keeps no state between steps.
impl StreamingPolicy for FollowTheMinimizer {
    fn name(&self) -> String {
        OnlineAlgorithm::name(self)
    }

    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        out.push(self.step(newest(pending)));
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

    fn ingest(&mut self, pending: &[Cost], out: &mut Vec<u32>) {
        out.push(self.step(newest(pending)));
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

    /// Ingest `fs` the way a tenant does: `pending` is the one buffer of
    /// ingested, uncommitted costs, and each committed state drops the
    /// oldest.
    fn feed(p: &mut dyn StreamingPolicy, pending: &mut Vec<Cost>, fs: &[Cost], out: &mut Vec<u32>) {
        for f in fs {
            pending.push(f.clone());
            let before = out.len();
            p.ingest(pending, out);
            pending.drain(..out.len() - before);
        }
    }

    fn flush(p: &mut dyn StreamingPolicy, pending: &mut Vec<Cost>, out: &mut Vec<u32>) {
        let before = out.len();
        p.finish(pending, out);
        assert_eq!(
            out.len() - before,
            pending.len(),
            "one state per pending cost"
        );
        pending.clear();
    }

    fn stream_all(p: &mut dyn StreamingPolicy, fs: &[Cost]) -> Vec<u32> {
        let (mut pending, mut out) = (Vec::new(), Vec::new());
        feed(p, &mut pending, fs, &mut out);
        flush(p, &mut pending, &mut out);
        out
    }

    #[test]
    fn stream_lookahead_matches_run_lookahead() {
        let fs = costs(31);
        let inst = Instance::new(8, 2.0, fs.clone()).unwrap();
        for w in 0..=3 {
            let batch = run_lookahead(&mut LookaheadLcp::new(8, 2.0), &inst, w);
            let mut s = LookaheadLcp::with_window(8, 2.0, w);
            assert_eq!(stream_all(&mut s, &fs), batch.0, "window {w}");
        }
    }

    #[test]
    fn lookahead_resumes_from_every_prefix() {
        let fs = costs(12);
        for w in 0..=3 {
            let full = stream_all(&mut LookaheadLcp::with_window(7, 2.5, w), &fs);
            for cut in 0..=fs.len() {
                let (mut pending, mut out) = (Vec::new(), Vec::new());
                let mut first = LookaheadLcp::with_window(7, 2.5, w);
                feed(&mut first, &mut pending, &fs[..cut], &mut out);
                assert_eq!(pending.len(), cut.min(w), "window {w}, cut {cut}");
                let snap = StreamingPolicy::snapshot(&first);
                let mut resumed = LookaheadLcp::with_window(7, 2.5, w);
                resumed.restore(&snap).unwrap();
                resumed.check_lag(pending.len()).unwrap();
                feed(&mut resumed, &mut pending, &fs[cut..], &mut out);
                flush(&mut resumed, &mut pending, &mut out);
                assert_eq!(out, full, "window {w}, cut {cut}");
            }
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
                Box::new(|| Box::new(LookaheadLcp::with_window(7, 2.5, 2))),
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
            let (mut pending, mut out) = (Vec::new(), Vec::new());
            feed(first.as_mut(), &mut pending, &fs[..17], &mut out);
            let snap = first.snapshot();
            drop(first);
            let mut resumed = make();
            resumed.restore(&snap).unwrap();
            resumed.check_lag(pending.len()).unwrap();
            feed(resumed.as_mut(), &mut pending, &fs[17..], &mut out);
            flush(resumed.as_mut(), &mut pending, &mut out);
            assert_eq!(out, full, "policy {name}");
        }
    }

    #[test]
    fn snapshot_survives_json_text() {
        let fs = costs(25);
        let mut p = RandomizedOnline::new(GridLcp::new(5, 2.0, 2), 5, 11);
        let mut out = Vec::new();
        feed(&mut p, &mut Vec::new(), &fs[..10], &mut out);
        let text = serde_json::to_string(&StreamingPolicy::snapshot(&p)).unwrap();
        let snap: serde::Value = serde_json::from_str(&text).unwrap();
        let mut q = RandomizedOnline::new(GridLcp::new(5, 2.0, 2), 5, 0);
        q.restore(&snap).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        feed(&mut p, &mut Vec::new(), &fs[10..], &mut a);
        feed(&mut q, &mut Vec::new(), &fs[10..], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut a = Lcp::new(4, 1.0);
        let mut out = Vec::new();
        feed(&mut a, &mut Vec::new(), &costs(1), &mut out);
        let snap = StreamingPolicy::snapshot(&a);
        let mismatch = "incompatible snapshot: LCP snapshot m/beta mismatch";
        let err = Lcp::new(8, 1.0).restore(&snap).unwrap_err();
        assert!(err.to_string().contains(mismatch), "{err}");
        assert!(Lcp::new(4, 2.0).restore(&snap).is_err());
        let err = a.check_lag(1).unwrap_err();
        assert!(err
            .to_string()
            .contains("snapshot has 1 pending slots but its policy holds 0"));

        let mismatch = "incompatible snapshot: lookahead snapshot m/beta mismatch";
        for w in 0..=3 {
            let mut a = LookaheadLcp::with_window(4, 1.0, w);
            feed(&mut a, &mut Vec::new(), &costs(1), &mut out);
            let snap = StreamingPolicy::snapshot(&a);
            assert!(LookaheadLcp::with_window(4, 1.0, w).restore(&snap).is_ok());
            for (m, beta) in [(8, 1.0), (4, 2.0)] {
                let err = LookaheadLcp::with_window(m, beta, w)
                    .restore(&snap)
                    .unwrap_err();
                assert!(err.to_string().contains(mismatch), "window {w}: {err}");
            }
            // `ingest` never leaves more than `window` costs pending.
            a.check_lag(w).unwrap();
            let err = a.check_lag(w + 1).unwrap_err();
            assert!(err.to_string().contains("lookahead buffer exceeds window"));
        }

        let flcp = RandomizedOnline::new(GridLcp::new(4, 1.0, 2), 4, 0);
        let snap = StreamingPolicy::snapshot(&flcp);
        let mut finer = RandomizedOnline::new(GridLcp::new(4, 1.0, 3), 4, 0);
        let err = finer.restore(&snap).unwrap_err();
        assert!(err.to_string().contains("expected m*k = 12"), "{err}");
    }
}
