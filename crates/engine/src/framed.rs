//! The framing core behind both wire framings: one connection state,
//! [`Framing`], generic over the [`Codec`] that splits connection bytes
//! into requests and encodes replies.
//!
//! Everything a connection does besides framing lives here once: the step
//! batch pending across feeds, the 1-based request sequence, the dead
//! flag, the I/O counters and their per-feed fold into the engine's wire
//! metrics, and the end-of-stream and shed paths. A `Framing` borrows the
//! [`Session`] it drives for each call, so many connections can share one
//! session — the serving layer does. [`Framed`] is a `Framing` that owns
//! its session: `wire::LineSession` is `Framed<wire::Lines>` and
//! `binwire::BinSession` is `Framed<binwire::Frames>`.

use crate::wire::{Reply, Request, Session};

/// The framing-specific half of a [`Framing`] connection.
pub trait Codec {
    /// Split connection bytes into requests and hand each to `core`,
    /// stopping once a fatal framing error ends it. Bytes written straight
    /// to `out` (the binary preamble echo) precede this feed's replies.
    fn decode(&mut self, bytes: &[u8], core: &mut Core, out: &mut Vec<u8>);

    /// End of stream: hand a trailing complete request to `core`, and
    /// return the `(seq, message)` error for an incomplete one.
    fn finish(&mut self, core: &mut Core) -> Option<(usize, String)>;

    /// Append one reply's encoding to `out`.
    fn encode(&mut self, reply: Reply, out: &mut Vec<u8>);
}

/// The framing-independent connection state, kept across calls.
#[derive(Default)]
struct State {
    pending: Vec<(usize, crate::StepEvent)>,
    replies: Vec<Reply>,
    /// Requests consumed so far; the next one is number `seq + 1`.
    seq: usize,
    dead: bool,
    /// `(frames_in, frames_out, bytes_in, bytes_out)`, as
    /// [`Framed::io_counters`] reports them.
    io: [u64; 4],
    /// The `io` values already folded into the engine's metrics registry.
    reported: [u64; 4],
}

/// What a [`Codec`] drives: the connection's state, lent the session for
/// one call.
pub struct Core<'a> {
    session: &'a mut Session,
    state: &'a mut State,
}

impl Core<'_> {
    /// The 1-based sequence number the next request will get.
    pub(crate) fn next_seq(&self) -> usize {
        self.state.seq + 1
    }

    /// Route the next request, at sequence [`Core::next_seq`].
    pub(crate) fn request(&mut self, request: Request<'_>) {
        let state = &mut *self.state;
        state.seq += 1;
        state.io[0] += 1;
        self.session
            .dispatch(state.seq, request, &mut state.pending, &mut state.replies);
    }

    /// End the connection: the pending step batch flushes (its replies
    /// are owed), then the `(seq, message)` error, if any, follows.
    pub(crate) fn end(&mut self, error: Option<(usize, String)>) {
        let state = &mut *self.state;
        self.session
            .flush_steps(&mut state.pending, &mut state.replies);
        if let Some((seq, message)) = error {
            state.replies.push(Reply::Error {
                seq,
                id: None,
                message,
            });
        }
        state.dead = true;
    }
}

/// One streaming server connection's state, built for long-lived
/// connections that deliver bytes in arbitrary chunks; every call borrows
/// the [`Session`] the connection drives.
///
/// [`Session::handle_lines`] numbers requests from 1 per call and
/// flushes the step batch when its input ends — correct for one-shot
/// files, wrong for a socket. A `Framing` keeps the sequence counter and
/// the pending step batch **across** [`Framing::feed`] calls, so a
/// chunked connection batches exactly like the equivalent one-shot
/// input: runs of consecutive steps flush on a control request, a
/// malformed request, the batch cap, or [`Framing::finish`] — never at a
/// read boundary. The differential suites pin this equivalence. Steps a
/// connection has queued but not flushed are not applied (nor answered)
/// until one of those happens; dropping the connection drops them.
///
/// The per-connection I/O counters fold into the engine's wire metrics
/// after every `feed`, `finish` and `shed`, so a long-lived connection
/// reports its traffic while still open. A `metrics` dump requested on
/// the connection itself reflects traffic up to the previous fold —
/// chunk-dependent, which is why the framing differentials leave the
/// `metrics` op out.
pub struct Framing<C> {
    codec: C,
    state: State,
}

impl<C: Codec> Framing<C> {
    /// A fresh connection framed by `codec`.
    pub fn new(codec: C) -> Self {
        Framing {
            codec,
            state: State::default(),
        }
    }

    /// The connection's codec.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// True once the stream finished, was shed, or hit a fatal framing
    /// error.
    pub fn is_dead(&self) -> bool {
        self.state.dead
    }

    /// Ingest connection bytes into `session`, appending encoded
    /// responses to `out`. Bytes fed after death are ignored.
    pub fn feed(&mut self, session: &mut Session, bytes: &[u8], out: &mut Vec<u8>) {
        self.call(session, out, |codec, core, out| {
            core.state.io[2] += bytes.len() as u64;
            codec.decode(bytes, core, out);
        });
    }

    /// End of stream: a trailing complete request is served, the pending
    /// step batch flushes, an incomplete request is reported as an error,
    /// and the remaining responses are appended to `out`.
    pub fn finish(&mut self, session: &mut Session, out: &mut Vec<u8>) {
        self.call(session, out, |codec, core, _| {
            let error = codec.finish(core);
            core.end(error);
        });
    }

    /// Abandon the connection with a typed error at the next sequence
    /// number: the pending step batch flushes first (its replies are
    /// owed — the overshoot is bounded by one batch), then the error is
    /// encoded and the connection dies. Used by the serving layer to shed
    /// slow consumers.
    pub fn shed(&mut self, session: &mut Session, message: &str, out: &mut Vec<u8>) {
        self.call(session, out, |_, core, _| {
            core.end(Some((core.next_seq(), message.to_string())));
        });
    }

    /// Run `f` over the codec and a [`Core`] lent `session` — nothing once
    /// the connection is dead — then encode the replies it queued into
    /// `out` and fold the counters' deltas into the engine's
    /// registry-backed wire metrics.
    fn call(
        &mut self,
        session: &mut Session,
        out: &mut Vec<u8>,
        f: impl FnOnce(&mut C, &mut Core, &mut Vec<u8>),
    ) {
        if self.state.dead {
            return;
        }
        let start = out.len();
        let state = &mut self.state;
        f(&mut self.codec, &mut Core { session, state }, out);
        for reply in state.replies.drain(..) {
            self.codec.encode(reply, out);
            state.io[1] += 1;
        }
        state.io[3] += (out.len() - start) as u64;
        let obs = session.engine().obs();
        let counters = [
            &obs.wire_frames_in,
            &obs.wire_frames_out,
            &obs.wire_bytes_in,
            &obs.wire_bytes_out,
        ];
        for ((counter, now), reported) in counters.into_iter().zip(state.io).zip(&state.reported) {
            counter.add(now - reported);
        }
        state.reported = state.io;
    }
}

/// A [`Framing`] that owns its [`Session`]: the one-connection form the
/// CLI, the benches and the tests drive.
pub struct Framed<C> {
    framing: Framing<C>,
    session: Session,
}

impl<C: Codec + Default> Framed<C> {
    /// Serve this framing over `session`.
    pub fn new(session: Session) -> Self {
        Framed {
            framing: Framing::new(C::default()),
            session,
        }
    }
}

impl<C: Codec> Framed<C> {
    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Unwrap the underlying session.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// See [`Framing::is_dead`].
    pub fn is_dead(&self) -> bool {
        self.framing.is_dead()
    }

    /// Per-connection I/O counters: `(frames_in, frames_out, bytes_in,
    /// bytes_out)`, where a JSONL frame is one request or response line.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        let [frames_in, frames_out, bytes_in, bytes_out] = self.framing.state.io;
        (frames_in, frames_out, bytes_in, bytes_out)
    }

    /// Ingest connection bytes, appending encoded responses to `out`
    /// ([`Framing::feed`]).
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        self.framing.feed(&mut self.session, bytes, out);
    }

    /// End of stream ([`Framing::finish`]).
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        self.framing.finish(&mut self.session, out);
    }

    /// Abandon the connection with a typed error ([`Framing::shed`]).
    pub fn shed(&mut self, message: &str, out: &mut Vec<u8>) {
        self.framing.shed(&mut self.session, message, out);
    }
}
