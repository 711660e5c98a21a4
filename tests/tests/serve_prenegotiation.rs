//! Pre-negotiation replies, byte for byte: what a connection hears before
//! its framing is decided. Every case is answered at sequence 0, in the
//! listener's framing — a JSONL error line on an `auto` listener, a binary
//! error frame on a forced-`binary` one — except a garbage preamble that
//! opens with `R`, which both listeners route to the binary framing.
//!
//! One table crosses the two sniffing listeners with the four ways a
//! handshake can end without a framing: EOF mid-preamble, a stall past
//! the handshake deadline, a garbage preamble, and a connection-cap
//! reject.

use rsdc_engine::binwire::{put_frame, PREAMBLE, TAG_RESP_ERROR};
use rsdc_engine::wire::Session;
use rsdc_engine::{Engine, EngineConfig, ServeConfig, ServeSummary, Server, WireMode};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// How a case's client ends the handshake.
#[derive(Clone, Copy, Debug)]
enum Ending {
    /// Send three preamble bytes, then half-close.
    Eof,
    /// Send three preamble bytes, then wait past the handshake deadline.
    Stall,
    /// Send a full preamble with a wrong protocol byte.
    Garbage,
    /// Connect while another connection holds the only slot.
    AtCapacity,
}

/// The sequence-0 error as a JSONL line.
fn line(message: &str) -> Vec<u8> {
    format!("{{\"op\":\"error\",\"line\":0,\"message\":\"{message}\"}}\n").into_bytes()
}

/// The sequence-0 error as a binary error frame: tag, `u64` sequence,
/// no-id marker, message.
fn frame(message: &str) -> Vec<u8> {
    let mut payload = vec![TAG_RESP_ERROR];
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.push(0);
    payload.extend_from_slice(message.as_bytes());
    let mut out = Vec::new();
    put_frame(&mut out, &payload);
    out
}

const TRUNCATED: &str = "handshake truncated: need 6 preamble bytes, have 3";
const TIMEOUT: &str = "handshake timeout: framing undecided after 3 preamble byte(s)";
const BAD_PROTO: &str = "bad preamble [52, 53, 44, 43, 00, 01]: expected RSDC magic";
const REJECTED: &str = "connection rejected: server is at its cap of 1 connections";

/// One row of the table: the listener's framing, how the client ends
/// the handshake, the exact bytes it must hear, and the server's
/// `(accepted, closed, shed)` summary.
struct Case(WireMode, Ending, Vec<u8>, (u64, u64, u64));

fn cases() -> Vec<Case> {
    use Ending::*;
    use WireMode::{Auto, Binary};
    vec![
        Case(Auto, Eof, line(TRUNCATED), (1, 1, 0)),
        Case(Auto, Stall, line(TIMEOUT), (1, 0, 1)),
        Case(Auto, Garbage, frame(BAD_PROTO), (1, 1, 0)),
        Case(Auto, AtCapacity, line(REJECTED), (1, 1, 1)),
        Case(Binary, Eof, frame(TRUNCATED), (1, 1, 0)),
        Case(Binary, Stall, frame(TIMEOUT), (1, 0, 1)),
        Case(Binary, Garbage, frame(BAD_PROTO), (1, 1, 0)),
        Case(Binary, AtCapacity, frame(REJECTED), (1, 1, 1)),
    ]
}

fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run().expect("run")))
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
}

fn read_all(mut stream: TcpStream) -> Vec<u8> {
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("server closes");
    got
}

/// Run one case; returns the bytes the client heard and the summary.
fn run(wire: WireMode, ending: Ending) -> (Vec<u8>, ServeSummary) {
    let at_capacity = matches!(ending, Ending::AtCapacity);
    let cfg = ServeConfig {
        wire,
        max_conns: 1,
        max_accepts: Some(if at_capacity { 2 } else { 1 }),
        handshake_timeout: if matches!(ending, Ending::Stall) {
            Duration::from_millis(100)
        } else {
            Duration::from_secs(10)
        },
        ..ServeConfig::default()
    };
    let (addr, server) = spawn_server(cfg);
    let got = match ending {
        Ending::Eof | Ending::Stall => {
            let mut client = connect(addr);
            client.write_all(&PREAMBLE[..3]).expect("send");
            if matches!(ending, Ending::Eof) {
                client.shutdown(Shutdown::Write).expect("half-close");
            }
            read_all(client)
        }
        Ending::Garbage => {
            let mut client = connect(addr);
            let mut garbage = PREAMBLE;
            garbage[4] = 0;
            client.write_all(&garbage).expect("send");
            read_all(client)
        }
        Ending::AtCapacity => {
            // A well-formed binary connection holds the only slot until
            // the rejected one has heard its refusal.
            let mut holder = connect(addr);
            holder.write_all(&PREAMBLE).expect("send");
            let mut echo = [0u8; 6];
            holder.read_exact(&mut echo).expect("preamble echo");
            assert_eq!(echo, PREAMBLE);
            let rejected = read_all(connect(addr));
            holder.shutdown(Shutdown::Write).expect("half-close");
            assert!(read_all(holder).is_empty(), "holder gets no more bytes");
            rejected
        }
    };
    (got, server.join().expect("server"))
}

#[test]
fn prenegotiation_replies_are_exact_sequence_zero_bytes() {
    for Case(wire, ending, want, (accepted, closed, shed)) in cases() {
        let (got, summary) = run(wire, ending);
        assert_eq!(
            got,
            want,
            "{wire:?} listener, {ending:?}: got {:?}",
            String::from_utf8_lossy(&got)
        );
        assert_eq!(
            (summary.accepted, summary.closed, summary.shed),
            (accepted, closed, shed),
            "{wire:?} listener, {ending:?}: summary"
        );
    }
}
