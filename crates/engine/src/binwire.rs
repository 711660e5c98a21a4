//! Binary wire framing: length-prefixed, CRC-guarded frames negotiated
//! per connection alongside the JSONL protocol.
//!
//! A binary connection opens with a 6-byte preamble — the ASCII magic
//! `RSDC`, the protocol marker byte `0xB1`, and a version byte — and
//! then carries a stream of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//!                              └── [tag: u8] [body: len-1 bytes]
//! ```
//!
//! `crc` is the CRC-32 of the payload, computed by the WAL's own
//! [`rsdc_store::wal::crc32`]. `len` counts the payload only and is
//! capped at [`MAX_FRAME_LEN`]; a larger prefix is rejected before any
//! buffering happens, so a corrupt length cannot balloon memory. The response
//! stream echoes the preamble once, then frames its replies the same
//! way.
//!
//! Framing is deliberately dumb: the two step tags carry a step's fields
//! compactly, and every other request, the whole control plane, is one
//! JSONL line inside a [`TAG_JSON`] envelope, read by the same
//! [`parse_record`](crate::wire::parse_record) a JSONL session uses (see
//! `WIRE.md`). Errors carry the same 1-based sequence numbers a JSONL
//! session would report, and the [`crate::wire::Session`] behind both
//! framings is shared — the differential test suite pins byte-identical
//! behaviour.

use rsdc_store::wal::crc32;
use std::fmt;

/// The 4 ASCII magic bytes opening a binary connection: `RSDC`.
pub const MAGIC: [u8; 4] = *b"RSDC";

/// Protocol marker byte following the magic (distinguishes the wire
/// preamble from a file that merely starts with `RSDC`).
pub const PROTO: u8 = 0xB1;

/// Current protocol version. Version 1 also gave ten control ops their
/// own tags (0x03–0x0C); a version-1 preamble is refused like any other
/// unknown version.
pub const VERSION: u8 = 2;

/// The full 6-byte connection preamble for [`VERSION`].
pub const PREAMBLE: [u8; 6] = [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], PROTO, VERSION];

/// Hard cap on a frame's payload length (16 MiB). A length prefix above
/// this is a protocol error, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// Bytes of frame header: length prefix + CRC.
pub const FRAME_HEADER: usize = 8;

// Request tags. Steps get dedicated compact encodings; every other
// operation travels as a framed JSONL record (tag 0x0F) and is handled
// by the same parser as the text protocol.
/// `{id, load}` — load-carrying step.
pub const TAG_STEP_LOAD: u8 = 0x01;
/// `{id, cost[, load]}` — scalar step, cost as canonical JSON.
pub const TAG_STEP_COST: u8 = 0x02;
/// Body is one JSONL request line: any op but a compact step.
pub const TAG_JSON: u8 = 0x0F;

// Response tags.
/// Body is one rendered JSONL response line (sans newline).
pub const TAG_RESP_LINE: u8 = 0x80;
/// `{seq: u32, id, states: n×u32}` — compact scalar step response.
pub const TAG_RESP_STEPPED: u8 = 0x81;
/// `{seq: u32, [id], message}` — error carrying the request sequence.
pub const TAG_RESP_ERROR: u8 = 0x82;

/// A framing-level protocol violation. Violations of frame structure
/// kill the connection (there is no way to resynchronize a byte stream
/// with a corrupt length); a bad CRC on a well-delimited frame is
/// reported per-frame and the stream continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The connection preamble was not `RSDC` + marker.
    BadMagic([u8; 6]),
    /// The preamble named a protocol version this build does not speak.
    BadVersion(u8),
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversize(u32),
    /// The payload did not match its CRC. Recoverable: the frame is
    /// dropped, the stream continues.
    BadCrc {
        /// CRC the frame header declared.
        expect: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// A zero-length payload (every frame carries at least a tag byte).
    Empty,
    /// The stream ended mid-preamble or mid-frame.
    Truncated {
        /// Bytes the pending frame needs to complete.
        need: usize,
        /// Bytes actually buffered.
        have: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(bytes) => {
                write!(f, "bad preamble {bytes:02x?}: expected RSDC magic")
            }
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            FrameError::Oversize(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::BadCrc { expect, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {expect:#010x}, payload {got:#010x}"
                )
            }
            FrameError::Empty => write!(f, "empty frame payload"),
            FrameError::Truncated { need, have } => {
                write!(f, "truncated stream: need {need} bytes, have {have}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one frame (`header + payload`) to `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(!payload.is_empty() && payload.len() as u32 <= MAX_FRAME_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame reader over an internal byte buffer. Feed bytes in
/// with [`FrameDecoder::extend`], pull frames out with
/// [`FrameDecoder::next_frame`]; partial frames stay buffered across
/// feeds, and consumed bytes are compacted away lazily.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted when it crosses half
    /// the buffer, so steady-state reads don't shift memory per frame).
    pos: usize,
}

/// One decoded frame, borrowed from the decoder's buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Operation tag (first payload byte).
    pub tag: u8,
    /// Payload after the tag.
    pub body: &'a [u8],
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer more bytes from the connection.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// - `Ok(Some(frame))`: a whole, CRC-valid frame (consumed).
    /// - `Ok(None)`: no complete frame buffered yet.
    /// - `Err(Oversize | Empty)`: fatal — the stream cannot be resynced.
    /// - `Err(BadCrc)`: the frame was well-delimited but corrupt; it has
    ///   been consumed and the next call continues with the next frame.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversize(len));
        }
        if len == 0 {
            return Err(FrameError::Empty);
        }
        let expect = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let total = FRAME_HEADER + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        self.pos += total;
        let payload = &self.buf[self.pos - len as usize..self.pos];
        let got = crc32(payload);
        if got != expect {
            return Err(FrameError::BadCrc { expect, got });
        }
        Ok(Some(Frame {
            tag: payload[0],
            body: &payload[1..],
        }))
    }

    /// End-of-stream check: a non-empty remainder means the peer died
    /// mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            return Ok(());
        }
        let need = if avail.len() < FRAME_HEADER {
            FRAME_HEADER
        } else {
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
            FRAME_HEADER + (len.min(MAX_FRAME_LEN)) as usize
        };
        Err(FrameError::Truncated {
            need,
            have: avail.len(),
        })
    }
}

/// Check a 6-byte connection preamble.
pub fn check_preamble(bytes: &[u8; 6]) -> Result<(), FrameError> {
    if bytes[..4] != MAGIC || bytes[4] != PROTO {
        return Err(FrameError::BadMagic(*bytes));
    }
    if bytes[5] != VERSION {
        return Err(FrameError::BadVersion(bytes[5]));
    }
    Ok(())
}

// ---- little-endian body readers (shared by the session layer) ----

/// Cursor over a frame body with typed little-endian readers. Every
/// reader returns `None` on underrun; the session layer turns that into
/// a typed, sequence-numbered error, never a panic.
pub struct BodyReader<'a> {
    body: &'a [u8],
}

impl<'a> BodyReader<'a> {
    /// Wrap a frame body.
    pub fn new(body: &'a [u8]) -> Self {
        Self { body }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// The unread remainder (used for trailing JSON segments).
    pub fn rest(self) -> &'a [u8] {
        self.body
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.body.split_first()?;
        self.body = rest;
        Some(b)
    }

    /// Read a `u16` (LE).
    pub fn u16(&mut self) -> Option<u16> {
        let bytes = self.take(2)?;
        Some(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.take(4)?;
        Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Some(u64::from_le_bytes(raw))
    }

    /// Read an `f64` (LE bit pattern).
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self) -> Option<&'a str> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.body.len() < n {
            return None;
        }
        let (head, rest) = self.body.split_at(n);
        self.body = rest;
        Some(head)
    }
}

/// Body writer mirroring [`BodyReader`], appending to a reusable buffer.
pub struct BodyWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> BodyWriter<'a> {
    /// Start a payload in `out` (cleared first) with its tag byte.
    pub fn start(out: &'a mut Vec<u8>, tag: u8) -> Self {
        out.clear();
        out.push(tag);
        Self { out }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.out.push(v);
        self
    }

    /// Append a `u16` (LE).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` (LE bit pattern).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append a `u16`-length-prefixed string (truncating ids longer than
    /// `u16::MAX` is never correct, so this asserts instead).
    pub fn str16(&mut self, s: &str) -> &mut Self {
        assert!(
            s.len() <= u16::MAX as usize,
            "id longer than u16 length prefix"
        );
        self.u16(s.len() as u16);
        self.out.extend_from_slice(s.as_bytes());
        self
    }

    /// Append raw bytes (trailing JSON segments).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.out.extend_from_slice(bytes);
        self
    }
}

// ---- binary server session ----

use crate::framed::{Codec, Core};
use crate::wire::{error_reply_line, stepped_states_line, Reply, Request, WireError};
use rsdc_core::Cost;
use serde::Deserialize;

/// A binary-framed server connection over the same
/// [`Session`](crate::wire::Session) and framing core the JSONL framing
/// drives: feed connection bytes in with `feed`, response frames come
/// back out, and `finish` flushes the final step batch at end of stream.
///
/// Sequencing mirrors the text protocol exactly: the N-th frame of the
/// connection is "line N", and every error reply carries that number.
/// The response stream opens with the echoed [`PREAMBLE`] once the
/// request preamble is accepted. A bad preamble kills the connection
/// with an error frame at sequence 0; a fatal framing violation
/// ([`FrameError::Oversize`] / [`FrameError::Empty`]) kills it with an
/// error frame at the offending sequence; a [`FrameError::BadCrc`] on a
/// well-delimited frame is reported at its sequence and the stream
/// continues. End of stream mid-frame (or mid-preamble) is reported as a
/// truncation error at the next sequence (or at 0).
pub type BinSession = crate::framed::Framed<Frames>;

/// The binary codec of a [`BinSession`]: the preamble handshake, then
/// [`FrameDecoder`] frames in and compact or line frames out.
#[derive(Default)]
pub struct Frames {
    decoder: FrameDecoder,
    preamble: [u8; 6],
    /// Preamble bytes received; frames follow once all 6 are accepted.
    preamble_len: usize,
    /// Reusable response-payload scratch.
    payload: Vec<u8>,
}

impl Codec for Frames {
    fn decode(&mut self, mut bytes: &[u8], core: &mut Core, out: &mut Vec<u8>) {
        if self.preamble_len < PREAMBLE.len() {
            let take = (PREAMBLE.len() - self.preamble_len).min(bytes.len());
            self.preamble[self.preamble_len..][..take].copy_from_slice(&bytes[..take]);
            self.preamble_len += take;
            bytes = &bytes[take..];
            if self.preamble_len < PREAMBLE.len() {
                return;
            }
            if let Err(e) = check_preamble(&self.preamble) {
                return core.end(Some((0, e.to_string())));
            }
            out.extend_from_slice(&PREAMBLE);
        }
        self.decoder.extend(bytes);
        loop {
            match self.decoder.next_frame() {
                Ok(None) => return,
                Ok(Some(Frame { tag, body })) => {
                    core.request(decode_request(tag, body).unwrap_or_else(Request::Error));
                }
                // The corrupt frame occupies a sequence slot; like a JSONL
                // parse error, it flushes the batch and the stream
                // continues.
                Err(e @ FrameError::BadCrc { .. }) => core.request(Request::Error(e.to_string())),
                // Oversize/empty length prefix: the byte stream cannot be
                // resynchronized — report and die.
                Err(e) => return core.end(Some((core.next_seq(), e.to_string()))),
            }
        }
    }

    fn finish(&mut self, core: &mut Core) -> Option<(usize, String)> {
        if self.preamble_len < PREAMBLE.len() {
            let have = self.preamble_len;
            return (have > 0).then(|| (0, FrameError::Truncated { need: 6, have }.to_string()));
        }
        let truncated = self.decoder.finish().err()?;
        Some((core.next_seq(), truncated.to_string()))
    }

    fn encode(&mut self, reply: Reply, out: &mut Vec<u8>) {
        encode_reply(reply, &mut self.payload, out);
    }
}

fn underrun(tag: u8) -> String {
    format!("truncated body for frame tag {tag:#04x}")
}

/// The step-load validation [`parse_record`](crate::wire::parse_record)
/// applies, with its exact message — binary and JSONL reject a bad load
/// identically.
fn check_load(l: f64) -> Result<(), String> {
    if l.is_finite() && l >= 0.0 {
        Ok(())
    } else {
        Err(WireError(format!("field \"load\" must be finite and >= 0, got {l}")).to_string())
    }
}

fn decode_request(tag: u8, body: &[u8]) -> Result<Request<'_>, String> {
    let mut r = BodyReader::new(body);
    match tag {
        TAG_STEP_LOAD => {
            let id = r.str16().ok_or_else(|| underrun(tag))?;
            let load = r.f64().ok_or_else(|| underrun(tag))?;
            check_load(load)?;
            Ok(Request::Step {
                id,
                cost: None,
                load: Some(load),
            })
        }
        TAG_STEP_COST => {
            let id = r.str16().ok_or_else(|| underrun(tag))?;
            let has_load = r.u8().ok_or_else(|| underrun(tag))?;
            let load = if has_load != 0 {
                let l = r.f64().ok_or_else(|| underrun(tag))?;
                check_load(l)?;
                Some(l)
            } else {
                None
            };
            let text = std::str::from_utf8(r.rest())
                .map_err(|_| format!("frame tag {tag:#04x}: cost is not valid UTF-8"))?;
            let v: serde::Value = serde_json::from_str(text)
                .map_err(|e| WireError(format!("bad cost: {e}")).to_string())?;
            let cost = Cost::from_value(&v)
                .map_err(|e| WireError(format!("bad cost: {e}")).to_string())?;
            Ok(Request::Step {
                id,
                cost: Some(cost),
                load,
            })
        }
        TAG_JSON => {
            let text = std::str::from_utf8(body)
                .map_err(|_| "frame body is not valid UTF-8".to_string())?;
            Ok(Request::line(text))
        }
        _ => Err(format!("unknown frame tag {tag:#04x}")),
    }
}

/// Frame one [`Reply`] into `out` (via the reusable `payload` scratch).
/// Scalar config-free step outcomes and errors get compact encodings;
/// everything else ships as its rendered JSONL line.
fn encode_reply(reply: Reply, payload: &mut Vec<u8>, out: &mut Vec<u8>) {
    match reply {
        Reply::Stepped { seq, outcome }
            if outcome.configs.is_none()
                && outcome.id.len() <= u16::MAX as usize
                && outcome.states.len() <= u16::MAX as usize =>
        {
            let mut w = BodyWriter::start(payload, TAG_RESP_STEPPED);
            w.u64(seq as u64).str16(&outcome.id);
            w.u16(outcome.states.len() as u16);
            for &s in outcome.states.iter() {
                w.u32(s);
            }
            put_frame(out, payload);
        }
        Reply::Error { seq, id, message }
            if id.as_ref().is_none_or(|i| i.len() <= u16::MAX as usize) =>
        {
            let mut w = BodyWriter::start(payload, TAG_RESP_ERROR);
            w.u64(seq as u64);
            match &id {
                Some(id) => {
                    w.u8(1).str16(id);
                }
                None => {
                    w.u8(0);
                }
            }
            w.raw(message.as_bytes());
            put_frame(out, payload);
        }
        other => {
            let line = other.into_line();
            payload.clear();
            payload.push(TAG_RESP_LINE);
            payload.extend_from_slice(line.as_bytes());
            put_frame(out, payload);
        }
    }
}

// ---- client-side codecs ----

/// Transcode one JSONL request line into its binary frame, appended to
/// `out` (via the reusable `payload` scratch). A step gets its compact
/// tag; everything else — every control op, and blank and `#` comment
/// lines, which must keep consuming sequence numbers — travels as a
/// [`TAG_JSON`] envelope and hits the same parser a JSONL session uses,
/// so both framings reject a bad line with the same message at the same
/// sequence.
pub fn encode_request_line(line: &str, payload: &mut Vec<u8>, out: &mut Vec<u8>) {
    let trimmed = line.trim();
    if !compact_step(trimmed, payload) {
        payload.clear();
        payload.push(TAG_JSON);
        payload.extend_from_slice(trimmed.as_bytes());
    }
    put_frame(out, payload);
}

/// Try the compact step encoding for `line`; true when `payload` holds
/// it. A line that is not a step, or a step the two step tags can't
/// represent faithfully (per [`parse_record`](crate::wire::parse_record)'s
/// field semantics), falls back to the JSON envelope.
fn compact_step(line: &str, payload: &mut Vec<u8>) -> bool {
    let Ok(v) = serde_json::from_str::<serde::Value>(line) else {
        return false;
    };
    if v.get("op").and_then(|x| x.as_str()) != Some("step") {
        return false;
    }
    let Some(id) = v
        .get("id")
        .and_then(|x| x.as_str())
        .filter(|s| s.len() <= u16::MAX as usize)
    else {
        return false;
    };
    let cost = v.get("cost").filter(|c| !c.is_null());
    let load = v.get("load").and_then(|x| x.as_f64());
    match (cost, load) {
        (None, Some(load)) => {
            BodyWriter::start(payload, TAG_STEP_LOAD)
                .str16(id)
                .f64(load);
        }
        (Some(cost), load) => {
            let cost = serde_json::to_string(cost).expect("serializable");
            let mut w = BodyWriter::start(payload, TAG_STEP_COST);
            w.str16(id);
            match load {
                Some(l) => {
                    w.u8(1).f64(l);
                }
                None => {
                    w.u8(0);
                }
            }
            w.raw(cost.as_bytes());
        }
        (None, None) => return false,
    }
    true
}

/// Decode a complete binary response stream (preamble + frames) back into
/// the JSONL response lines it represents. Compact `STEPPED`/`ERROR`
/// frames re-render through the same line builders the JSONL session
/// uses, so the result is byte-identical to what a JSONL session would
/// have produced — the differential suite asserts exactly that.
pub fn decode_response(bytes: &[u8]) -> Result<Vec<String>, String> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    if bytes.len() < PREAMBLE.len() {
        return Err(FrameError::Truncated {
            need: PREAMBLE.len(),
            have: bytes.len(),
        }
        .to_string());
    }
    let mut pre = [0u8; 6];
    pre.copy_from_slice(&bytes[..6]);
    check_preamble(&pre).map_err(|e| e.to_string())?;
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes[6..]);
    let mut lines = Vec::new();
    loop {
        match dec.next_frame() {
            Ok(None) => break,
            Ok(Some(Frame { tag, body })) => lines.push(decode_response_frame(tag, body)?),
            Err(e) => return Err(e.to_string()),
        }
    }
    dec.finish().map_err(|e| e.to_string())?;
    Ok(lines)
}

fn decode_response_frame(tag: u8, body: &[u8]) -> Result<String, String> {
    let mut r = BodyReader::new(body);
    match tag {
        TAG_RESP_LINE => std::str::from_utf8(body)
            .map(|s| s.to_string())
            .map_err(|_| "response line is not valid UTF-8".to_string()),
        TAG_RESP_STEPPED => {
            let _seq = r.u64().ok_or_else(|| underrun(tag))?;
            let id = r.str16().ok_or_else(|| underrun(tag))?;
            let n = r.u16().ok_or_else(|| underrun(tag))?;
            let mut states = Vec::with_capacity(n as usize);
            for _ in 0..n {
                states.push(r.u32().ok_or_else(|| underrun(tag))?);
            }
            Ok(stepped_states_line(id, &states))
        }
        TAG_RESP_ERROR => {
            let seq = r.u64().ok_or_else(|| underrun(tag))?;
            let has_id = r.u8().ok_or_else(|| underrun(tag))?;
            let id = if has_id != 0 {
                Some(r.str16().ok_or_else(|| underrun(tag))?)
            } else {
                None
            };
            let message = std::str::from_utf8(r.rest())
                .map_err(|_| "error message is not valid UTF-8".to_string())?;
            Ok(error_reply_line(seq as usize, id, message))
        }
        _ => Err(format!("unknown response tag {tag:#04x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Session;

    #[test]
    fn frames_round_trip_across_split_feeds() {
        let mut wire = Vec::new();
        put_frame(&mut wire, &[TAG_STEP_LOAD, 1, 2, 3]);
        put_frame(&mut wire, &[TAG_JSON]);
        let mut dec = FrameDecoder::new();
        // Feed byte-by-byte: partial frames must stay buffered.
        let mut seen = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                seen.push((frame.tag, frame.body.to_vec()));
            }
        }
        assert_eq!(
            seen,
            vec![(TAG_STEP_LOAD, vec![1, 2, 3]), (TAG_JSON, vec![])]
        );
        dec.finish().unwrap();
    }

    #[test]
    fn corrupt_crc_is_reported_and_skipped() {
        let mut wire = Vec::new();
        put_frame(&mut wire, &[TAG_STEP_LOAD, 9]);
        let good_len = wire.len();
        put_frame(&mut wire, &[TAG_JSON]);
        wire[good_len + FRAME_HEADER] ^= 0xFF; // flip a payload byte of frame 2
        put_frame(&mut wire, &[TAG_JSON, b'{']);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap().tag, TAG_STEP_LOAD);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
        // The corrupt frame is consumed; the stream continues.
        assert_eq!(
            dec.next_frame().unwrap(),
            Some(Frame {
                tag: TAG_JSON,
                body: b"{"
            })
        );
        dec.finish().unwrap();
    }

    #[test]
    fn oversize_and_truncation_are_typed_errors() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        dec.extend(&[0u8; 4]);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversize(MAX_FRAME_LEN + 1))
        );

        let mut wire = Vec::new();
        put_frame(&mut wire, &[TAG_STEP_LOAD, 1, 2, 3]);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..wire.len() - 2]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(
            dec.finish(),
            Err(FrameError::Truncated {
                need: FRAME_HEADER + 4,
                have: FRAME_HEADER + 2,
            })
        );
    }

    #[test]
    fn preamble_checks_magic_and_version() {
        assert_eq!(check_preamble(&PREAMBLE), Ok(()));
        let mut bad = PREAMBLE;
        bad[5] = 9;
        assert_eq!(check_preamble(&bad), Err(FrameError::BadVersion(9)));
        // Version 1, which had compact control-op tags, is refused.
        bad[5] = 1;
        assert_eq!(check_preamble(&bad), Err(FrameError::BadVersion(1)));
        let mut bad = PREAMBLE;
        bad[0] = b'X';
        assert!(matches!(check_preamble(&bad), Err(FrameError::BadMagic(_))));
    }

    fn fresh_session() -> Session {
        Session::new(crate::Engine::new(crate::EngineConfig::with_shards(2)))
    }

    /// Transcode `lines` to a binary request stream (preamble + frames).
    fn transcode(lines: &[&str]) -> Vec<u8> {
        let mut wire = PREAMBLE.to_vec();
        let mut payload = Vec::new();
        for line in lines {
            encode_request_line(line, &mut payload, &mut wire);
        }
        wire
    }

    /// Serve `wire` through a fresh binary session, feeding `chunk` bytes
    /// at a time, and decode the response stream back to JSONL lines.
    fn serve_binary(wire: &[u8], chunk: usize) -> Vec<String> {
        let mut bin = BinSession::new(fresh_session());
        let mut out = Vec::new();
        for part in wire.chunks(chunk.max(1)) {
            bin.feed(part, &mut out);
        }
        bin.finish(&mut out);
        decode_response(&out).expect("valid response stream")
    }

    #[test]
    fn binary_session_matches_jsonl_byte_for_byte() {
        let lines = vec![
            "# demo stream",
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":8,\"beta\":6.0,\"policy\":\"lcp\"}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":2.0}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":5.0}",
            "",
            "{\"op\":\"step\",\"id\":\"a\",\"cost\":{\"Abs\":{\"slope\":1.0,\"center\":3.0}}}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":-1.0}", // rejected: bad load
            "{\"op\":\"step\",\"id\":\"ghost\",\"load\":1.0}", // rejected: unknown tenant
            "not json at all",
            "{\"op\":\"finish\",\"id\":\"a\"}",
            "{\"op\":\"report\",\"id\":\"a\"}",
            // (no "metrics" op here: its dump embeds wall-clock batch
            // latency histograms, nondeterministic across any two runs)
            "{\"op\":\"stats\"}",
        ];
        let expect = fresh_session().handle_lines(lines.iter().copied());
        let wire = transcode(&lines);
        // Chunked feeds must not change batching or responses.
        for chunk in [1, 7, wire.len()] {
            assert_eq!(serve_binary(&wire, chunk), expect, "chunk size {chunk}");
        }
    }

    #[test]
    fn bad_preamble_errors_at_seq_zero_and_kills_the_connection() {
        let mut bin = BinSession::new(fresh_session());
        let mut out = Vec::new();
        let mut wire = PREAMBLE.to_vec();
        wire[5] = 9; // future version
        bin.feed(&wire, &mut out);
        assert!(bin.is_dead());
        // No preamble echo: the error frame is the whole response stream.
        let mut dec = FrameDecoder::new();
        dec.extend(&out);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame.tag, TAG_RESP_ERROR);
        let line = decode_response_frame(frame.tag, frame.body).unwrap();
        assert!(line.contains("\"line\":0"), "{line}");
        assert!(line.contains("unsupported protocol version 9"), "{line}");
        // Bytes after death are ignored.
        bin.feed(&[1, 2, 3], &mut out);
        bin.finish(&mut out);
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn corrupt_frame_reports_its_sequence_and_the_stream_continues() {
        let lines = vec![
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\"}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":1.0}",
            "{\"op\":\"stats\"}",
        ];
        let mut wire = transcode(&lines);
        // Flip one payload byte of the step frame (frame 2). Locate it:
        // preamble + frame1, then header of frame 2.
        let f1_len = u32::from_le_bytes(wire[6..10].try_into().unwrap()) as usize;
        let f2_start = 6 + FRAME_HEADER + f1_len;
        wire[f2_start + FRAME_HEADER] ^= 0xFF;
        let replies = serve_binary(&wire, wire.len());
        assert!(replies[0].contains("admitted"), "{:?}", replies);
        assert!(
            replies[1].contains("\"line\":2") && replies[1].contains("crc mismatch"),
            "{:?}",
            replies
        );
        // Frame 3 still served, at its own sequence.
        assert!(replies[2].contains("\"op\":\"stats\""), "{:?}", replies);
    }

    #[test]
    fn truncated_stream_errors_at_the_next_sequence() {
        let lines = vec![
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\"}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":1.0}",
        ];
        let wire = transcode(&lines);
        let cut = &wire[..wire.len() - 3]; // kill mid-step-frame
        let mut bin = BinSession::new(fresh_session());
        let mut out = Vec::new();
        bin.feed(cut, &mut out);
        bin.finish(&mut out);
        let replies = decode_response(&out).unwrap();
        assert_eq!(replies.len(), 2, "{:?}", replies);
        assert!(replies[0].contains("admitted"));
        assert!(
            replies[1].contains("\"line\":2") && replies[1].contains("truncated stream"),
            "{:?}",
            replies
        );
        let (frames_in, frames_out, bytes_in, bytes_out) = bin.io_counters();
        assert_eq!((frames_in, frames_out), (1, 2));
        assert_eq!(bytes_in as usize, cut.len());
        assert_eq!(bytes_out as usize, out.len());
    }

    #[test]
    fn compact_encoding_picks_the_expected_tags() {
        let cases = [
            ("{\"op\":\"step\",\"id\":\"a\",\"load\":1.5}", TAG_STEP_LOAD),
            (
                "{\"op\":\"step\",\"id\":\"a\",\"cost\":\"Zero\"}",
                TAG_STEP_COST,
            ),
            // Every control op rides the JSON envelope.
            ("{\"op\":\"finish\",\"id\":\"a\"}", TAG_JSON),
            ("{\"op\":\"snapshot\",\"id\":\"a\"}", TAG_JSON),
            ("{\"op\":\"report\"}", TAG_JSON),
            ("{\"op\":\"report\",\"id\":\"a\"}", TAG_JSON),
            ("{\"op\":\"stats\"}", TAG_JSON),
            ("{\"op\":\"checkpoint\"}", TAG_JSON),
            ("{\"op\":\"recover\"}", TAG_JSON),
            ("{\"op\":\"wal_stats\"}", TAG_JSON),
            ("{\"op\":\"metrics\"}", TAG_JSON),
            ("{\"op\":\"trace\",\"last\":4}", TAG_JSON),
            ("{\"op\":\"rebalance\",\"shards\":4}", TAG_JSON),
            (
                "{\"op\":\"admit\",\"id\":\"a\",\"m\":1,\"beta\":1.0,\"policy\":\"lcp\"}",
                TAG_JSON,
            ),
            ("{\"op\":\"autoscale\"}", TAG_JSON),
            ("", TAG_JSON),
            ("# comment", TAG_JSON),
            ("{\"op\":\"rebalance\",\"shards\":0}", TAG_JSON), // invalid: parser decides
        ];
        for (line, want) in cases {
            let mut payload = Vec::new();
            let mut out = Vec::new();
            encode_request_line(line, &mut payload, &mut out);
            assert_eq!(out[FRAME_HEADER], want, "line {line:?}");
        }
    }

    #[test]
    fn wire_metrics_fold_per_feed_batch() {
        let lines = vec![
            "{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\"}",
            "{\"op\":\"step\",\"id\":\"a\",\"load\":1.0}",
        ];
        let wire = transcode(&lines);
        let mut bin = BinSession::new(fresh_session());
        let mut out = Vec::new();
        let counter = |bin: &BinSession, name: &str| {
            bin.session()
                .engine()
                .obs()
                .registry()
                .snapshot()
                .iter()
                .find_map(|m| match (&m.id.name[..], &m.value) {
                    (n, rsdc_obs::MetricValue::Counter(v))
                        if n == name
                            && m.id.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
                                == Some(("dir", "in")) =>
                    {
                        Some(*v)
                    }
                    _ => None,
                })
        };
        let frames_in_of = |bin: &BinSession| counter(bin, "engine_wire_frames");
        // A feed that ends mid-preamble folds its bytes too.
        bin.feed(&wire[..3], &mut out);
        assert_eq!(
            counter(&bin, "engine_wire_bytes"),
            Some(3),
            "mid-preamble feed folds"
        );
        // Feed everything but the last byte: both frames' bytes minus one
        // — only the fully decoded first frame has been consumed.
        bin.feed(&wire[3..wire.len() - 1], &mut out);
        assert_eq!(frames_in_of(&bin), Some(1), "first frame folds mid-stream");
        // The long-lived-connection regression (PR 9 folded only at
        // close): an open connection must already report its traffic.
        bin.feed(&wire[wire.len() - 1..], &mut out);
        assert_eq!(frames_in_of(&bin), Some(2), "per-feed fold, not at close");
        bin.finish(&mut out);
        assert_eq!(frames_in_of(&bin), Some(2), "finish folds the same delta");
        let (frames_in, _, bytes_in, _) = bin.io_counters();
        assert_eq!(frames_in, 2);
        assert_eq!(bytes_in as usize, wire.len());
    }

    #[test]
    fn body_reader_writer_round_trip() {
        let mut buf = Vec::new();
        BodyWriter::start(&mut buf, TAG_STEP_COST)
            .str16("tenant-1")
            .u8(1)
            .f64(2.5)
            .raw(b"{\"kind\":\"zero\"}");
        assert_eq!(buf[0], TAG_STEP_COST);
        let mut r = BodyReader::new(&buf[1..]);
        assert_eq!(r.str16(), Some("tenant-1"));
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.f64(), Some(2.5));
        assert_eq!(r.rest(), b"{\"kind\":\"zero\"}");
        // Underruns are None, not panics.
        let mut r = BodyReader::new(&[5, 0]);
        assert_eq!(r.str16(), None);
    }
}
