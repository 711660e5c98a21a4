//! The framing core behind both wire framings: one connection type,
//! [`Framed`], generic over the [`Codec`] that splits connection bytes
//! into requests and encodes replies.
//!
//! Everything a connection does besides framing lives here once: the
//! [`Session`] it drives, the step batch pending across feeds, the
//! 1-based request sequence, the dead flag, the I/O counters and their
//! per-feed fold into the engine's wire metrics, and the end-of-stream
//! and shed paths. `wire::LineSession` is `Framed<wire::Lines>` and
//! `binwire::BinSession` is `Framed<binwire::Frames>`.

use crate::wire::{PendingStep, Reply, Request, Session};

/// The framing-specific half of a [`Framed`] connection.
pub trait Codec: Default {
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

/// The framing-independent connection state a [`Codec`] drives.
pub struct Core {
    session: Session,
    pending: Vec<PendingStep>,
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

impl Core {
    /// The 1-based sequence number the next request will get.
    pub(crate) fn next_seq(&self) -> usize {
        self.seq + 1
    }

    /// Route the next request, at sequence [`Core::next_seq`].
    pub(crate) fn request(&mut self, request: Request<'_>) {
        self.seq += 1;
        self.io[0] += 1;
        self.session
            .dispatch(self.seq, request, &mut self.pending, &mut self.replies);
    }

    /// End the connection: the pending step batch flushes (its replies
    /// are owed), then the `(seq, message)` error, if any, follows.
    pub(crate) fn end(&mut self, error: Option<(usize, String)>) {
        self.session
            .flush_steps(&mut self.pending, &mut self.replies);
        if let Some((seq, message)) = error {
            self.replies.push(Reply::Error {
                seq,
                id: None,
                message,
            });
        }
        self.dead = true;
    }
}

/// A streaming server connection over a [`Session`], built for
/// long-lived connections that deliver bytes in arbitrary chunks.
///
/// [`Session::handle_lines`] numbers requests from 1 per call and
/// flushes the step batch when its input ends — correct for one-shot
/// files, wrong for a socket. A `Framed` connection keeps the sequence
/// counter and the pending step batch **across** [`Framed::feed`] calls,
/// so a chunked connection batches exactly like the equivalent one-shot
/// input: runs of consecutive steps flush on a control request, a
/// malformed request, the batch cap, or [`Framed::finish`] — never at a
/// read boundary. The differential suites pin this equivalence.
///
/// The per-connection I/O counters fold into the engine's wire metrics
/// after every `feed`, `finish` and `shed`, so a long-lived connection
/// reports its traffic while still open. A `metrics` dump requested on
/// the connection itself reflects traffic up to the previous fold —
/// chunk-dependent, which is why the framing differentials leave the
/// `metrics` op out.
pub struct Framed<C> {
    codec: C,
    core: Core,
}

impl<C: Codec> Framed<C> {
    /// Serve this framing over `session`.
    pub fn new(session: Session) -> Self {
        Framed {
            codec: C::default(),
            core: Core {
                session,
                pending: Vec::new(),
                replies: Vec::new(),
                seq: 0,
                dead: false,
                io: [0; 4],
                reported: [0; 4],
            },
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.core.session
    }

    /// Unwrap the underlying session.
    pub fn into_session(self) -> Session {
        self.core.session
    }

    /// The 1-based sequence number the next request will get — errors
    /// the serving layer injects (e.g. a slow-consumer shed) are
    /// attributed to this sequence.
    pub fn next_seq(&self) -> usize {
        self.core.next_seq()
    }

    /// True once the stream finished, was shed, or hit a fatal framing
    /// error.
    pub fn is_dead(&self) -> bool {
        self.core.dead
    }

    /// Per-connection I/O counters: `(frames_in, frames_out, bytes_in,
    /// bytes_out)`, where a JSONL frame is one request or response line.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        let [frames_in, frames_out, bytes_in, bytes_out] = self.core.io;
        (frames_in, frames_out, bytes_in, bytes_out)
    }

    /// Ingest connection bytes, appending encoded responses to `out`.
    /// Bytes fed after death are ignored.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        if self.core.dead {
            return;
        }
        self.core.io[2] += bytes.len() as u64;
        let start = out.len();
        self.codec.decode(bytes, &mut self.core, out);
        self.drain(start, out);
    }

    /// End of stream: a trailing complete request is served, the pending
    /// step batch flushes, an incomplete request is reported as an error,
    /// and the remaining responses are appended to `out`.
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        if self.core.dead {
            return;
        }
        let start = out.len();
        let error = self.codec.finish(&mut self.core);
        self.core.end(error);
        self.drain(start, out);
    }

    /// Abandon the connection with a typed error at the next sequence
    /// number: the pending step batch flushes first (its replies are
    /// owed — the overshoot is bounded by one batch), then the error is
    /// encoded and the connection dies. Used by the serving layer to shed
    /// slow consumers.
    pub fn shed(&mut self, message: &str, out: &mut Vec<u8>) {
        if self.core.dead {
            return;
        }
        let start = out.len();
        self.core
            .end(Some((self.core.next_seq(), message.to_string())));
        self.drain(start, out);
    }

    /// Encode the queued replies into `out` (which held `start` bytes
    /// before this call), then fold the counters' deltas into the
    /// engine's registry-backed wire metrics.
    fn drain(&mut self, start: usize, out: &mut Vec<u8>) {
        let core = &mut self.core;
        for reply in core.replies.drain(..) {
            self.codec.encode(reply, out);
            core.io[1] += 1;
        }
        core.io[3] += (out.len() - start) as u64;
        let obs = core.session.engine().obs();
        let counters = [
            &obs.wire_frames_in,
            &obs.wire_frames_out,
            &obs.wire_bytes_in,
            &obs.wire_bytes_out,
        ];
        for ((counter, now), reported) in counters.into_iter().zip(core.io).zip(&core.reported) {
            counter.add(now - reported);
        }
        core.reported = core.io;
    }
}
