//! Serve concurrency differentials. The reactor multiplexes many
//! connections over **one** engine-backed session, so tenants, topology,
//! the logical tick and the `stats`/`report`/`wal_stats` replies are
//! server-wide. Two differentials pin that, for both framings at once:
//!
//! * **Interleaved**: K concurrent client connections, each over its own
//!   tenant ids and without server-wide ops, must be **byte-identical**
//!   to K standalone serial sessions fed the same request streams (JSONL
//!   clients against `Session::handle_lines`, binary clients against a
//!   one-shot `BinSession` run). Tenants are independent, so however the
//!   reactor interleaves the connections, each one's replies are its own.
//! * **Sequential**: K connections over the *same* tenant ids plus the
//!   server-wide ops (all-tenant `report`, `stats`, `wal_stats`,
//!   `rebalance`), run one after another, must be byte-identical to one
//!   session fed the same streams in turn — `LineSession`/`BinSession`
//!   chained through `into_session()`. Each connection sees the tenants
//!   and topology the earlier ones left behind.
//!
//! Every request kind is covered by one of the two. The `metrics` op is
//! excluded from generated streams, as in the JSONL↔binary differential:
//! its dump embeds wall-clock histograms.
//!
//! The suite also pins the backpressure contract end to end: a client
//! that requests a multi-megabyte response stream and then stops reading
//! is marked slow, shed after `shed_timeout` with a **typed** error at
//! the next sequence number, and the other K−1 clients complete
//! byte-identically — one stalled consumer cannot wedge the fleet.

use rsdc_engine::binwire::{encode_request_line, BinSession, PREAMBLE};
use rsdc_engine::wire::{LineSession, Session};
use rsdc_engine::{Engine, EngineConfig, ServeConfig, ServeSummary, Server, WireMode};
use rsdc_tests::heavy_cases;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SHARDS: usize = 2;

fn engine_cfg() -> EngineConfig {
    EngineConfig::with_shards(SHARDS)
}

fn spawn_server(cfg: ServeConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let mut server = Server::bind(cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("reactor"));
    (addr, handle)
}

/// Deterministic splitmix-style generator: the differential must be
/// reproducible, so streams derive from a seed, not an RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One client's request stream over the tenants `{prefix}t0..t3` and
/// `{prefix}h0`: an admit prelude, then `ops` mixed operations — steps
/// (the hot path), per-tenant control ops, skip lines, and deliberate
/// errors, so sequence-number accounting is differentially pinned — plus,
/// with `global`, the server-wide ops (all-tenant `report`, `stats`,
/// `wal_stats`, `rebalance`).
fn client_lines(seed: u64, ops: usize, prefix: &str, global: bool) -> Vec<String> {
    let mut mix = Mix(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
    let mut lines: Vec<String> = (0..4)
        .map(|i| {
            let policy = if i % 2 == 0 {
                r#""lcp""#.to_string()
            } else {
                format!(r#"{{"HalfStepRounded":{{"seed":{i}}}}}"#)
            };
            format!(r#"{{"op":"admit","id":"{prefix}t{i}","m":16,"beta":4.0,"policy":{policy}}}"#)
        })
        .collect();
    lines.push(format!(
        r#"{{"op":"admit","id":"{prefix}h0","policy":"hetero:greedy","fleet":{{"types":[{{"count":3,"beta":1.0,"energy":1.0,"capacity":1.0}},{{"count":2,"beta":2.5,"energy":1.4,"capacity":2.0}}]}}}}"#
    ));
    for _ in 0..ops {
        let line = match mix.pick(12) {
            8 if global => match mix.pick(3) {
                0 => r#"{"op":"report"}"#.to_string(),
                1 => r#"{"op":"stats"}"#.to_string(),
                _ => r#"{"op":"wal_stats"}"#.to_string(),
            },
            9 if global => format!(
                r#"{{"op":"rebalance","shards":{},"vnodes":8}}"#,
                mix.pick(3) + 1
            ),
            // Weight toward steps: the hot path.
            0..=4 | 8 | 9 => {
                let i = mix.pick(4);
                let c = mix.pick(17);
                format!(
                    r#"{{"op":"step","id":"{prefix}t{i}","cost":{{"Abs":{{"slope":1.0,"center":{c}.0}}}}}}"#
                )
            }
            5 => format!(
                r#"{{"op":"step","id":"{prefix}h0","load":{}}}"#,
                mix.pick(9) as f64 * 0.5 + 0.5
            ),
            6 => format!(r#"{{"op":"snapshot","id":"{prefix}t{}"}}"#, mix.pick(4)),
            7 => format!(r#"{{"op":"report","id":"{prefix}t{}"}}"#, mix.pick(4)),
            10 => match mix.pick(3) {
                0 => String::new(),
                1 => "   ".to_string(),
                _ => "# interleaved comment".to_string(),
            },
            _ => match mix.pick(4) {
                0 => r#"{"op":"step","id":"ghost","load":1.0}"#.to_string(),
                1 => format!(r#"{{"op":"step","id":"{prefix}t0","load":-1}}"#),
                2 => r#"{"op":"warp"}"#.to_string(),
                _ => r#"{"op":"#.to_string(),
            },
        };
        lines.push(line);
    }
    lines
}

/// The exact bytes a serial JSONL session writes for `lines`.
fn serial_jsonl(lines: &[String]) -> Vec<u8> {
    let mut session = Session::new(Engine::new(engine_cfg()));
    let mut out = Vec::new();
    for reply in session.handle_lines(lines.iter().map(|s| s.as_str())) {
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Transcode a JSONL request stream into one binary connection stream.
fn transcode(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&PREAMBLE);
    let mut payload = Vec::new();
    for line in lines {
        encode_request_line(line, &mut payload, &mut out);
    }
    out
}

/// The exact bytes a serial binary session writes for `stream`.
fn serial_binary(stream: &[u8]) -> Vec<u8> {
    let mut bin = BinSession::new(Session::new(Engine::new(engine_cfg())));
    let mut out = Vec::new();
    bin.feed(stream, &mut out);
    bin.finish(&mut out);
    out
}

/// Run one client: write `request` in deterministic ragged chunks (with
/// yields, to force interleaving at the reactor), half-close, read the
/// full response stream to EOF.
fn run_client(addr: std::net::SocketAddr, request: Vec<u8>, seed: u64) -> Vec<u8> {
    let mut mix = Mix(seed ^ 0xc0ff_ee00);
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut at = 0usize;
    while at < request.len() {
        let n = (mix.pick(96) as usize + 1).min(request.len() - at);
        stream.write_all(&request[at..at + n]).expect("send chunk");
        at += n;
        if mix.pick(4) == 0 {
            std::thread::sleep(Duration::from_millis(mix.pick(3)));
        } else {
            std::thread::yield_now();
        }
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("read to EOF");
    got
}

/// K interleaved connections, alternating JSONL and binary framing, each
/// over its own tenants and byte-identical to its standalone serial twin.
fn differential(clients: usize, ops: usize) {
    let cfg = ServeConfig {
        engine: engine_cfg(),
        wire: WireMode::Auto,
        max_conns: clients,
        max_accepts: Some(clients as u64),
        ..ServeConfig::default()
    };
    let (addr, server) = spawn_server(cfg);

    let mut want = Vec::new();
    let mut handles = Vec::new();
    for i in 0..clients {
        let lines = client_lines(i as u64 + 1, ops, &format!("c{i}-"), false);
        let (request, expect) = if i % 2 == 0 {
            ((lines.join("\n") + "\n").into_bytes(), serial_jsonl(&lines))
        } else {
            let stream = transcode(&lines);
            let expect = serial_binary(&stream);
            (stream, expect)
        };
        want.push(expect);
        handles.push(std::thread::spawn(move || {
            run_client(addr, request, i as u64)
        }));
    }

    for (i, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        let framing = if i % 2 == 0 { "jsonl" } else { "binary" };
        assert_eq!(
            got, want[i],
            "client {i} ({framing}) diverged from its serial twin"
        );
    }
    let summary = server.join().expect("server thread");
    assert_eq!(summary.accepted, clients as u64);
    assert_eq!(summary.closed, clients as u64);
    assert_eq!(summary.shed, 0);
}

#[test]
fn interleaved_connections_match_serial_sessions() {
    differential(8, 40);
}

/// Nightly-depth differential (`--include-ignored`): more clients, longer
/// streams, scaled by `RSDC_HEAVY_CASES`.
#[test]
#[ignore = "heavy: run via the nightly --include-ignored CI job"]
fn interleaved_connections_match_serial_sessions_heavy() {
    let clients = (heavy_cases(512) / 32).clamp(8, 32) as usize;
    differential(clients, 120);
}

/// K connections over the shared tenant ids and the server-wide ops, run
/// one after another (each drained to EOF before the next connects),
/// alternating JSONL and binary framing: byte-identical to one session
/// fed the same streams in turn.
fn sequential_differential(clients: usize, ops: usize) {
    let cfg = ServeConfig {
        engine: engine_cfg(),
        wire: WireMode::Auto,
        max_accepts: Some(clients as u64),
        ..ServeConfig::default()
    };
    let (addr, server) = spawn_server(cfg);

    let mut session = Session::new(Engine::new(engine_cfg()));
    for i in 0..clients {
        let lines = client_lines(i as u64 + 1, ops, "", true);
        let mut want = Vec::new();
        let request = if i % 2 == 0 {
            let request = (lines.join("\n") + "\n").into_bytes();
            let mut ls = LineSession::new(session);
            ls.feed(&request, &mut want);
            ls.finish(&mut want);
            session = ls.into_session();
            request
        } else {
            let request = transcode(&lines);
            let mut bin = BinSession::new(session);
            bin.feed(&request, &mut want);
            bin.finish(&mut want);
            session = bin.into_session();
            request
        };
        let got = run_client(addr, request, i as u64);
        let framing = if i % 2 == 0 { "jsonl" } else { "binary" };
        assert_eq!(
            got, want,
            "connection {i} ({framing}) diverged from the shared serial session"
        );
    }
    let summary = server.join().expect("server thread");
    assert_eq!(
        (summary.accepted, summary.closed, summary.shed),
        (clients as u64, clients as u64, 0)
    );
}

#[test]
fn sequential_connections_share_one_session() {
    sequential_differential(6, 40);
}

/// A deliberately stalled consumer: requests a multi-megabyte response
/// stream, never reads while the reactor serves it, and must be shed with
/// a typed error — while the other K−1 clients complete byte-identically.
#[test]
fn slow_client_is_shed_typed_while_the_rest_complete() {
    // The shed window doubles as the drain window, so the stall must
    // outlast `slow-mark + shed_timeout` but resume reading inside
    // `slow-mark + 2 * shed_timeout`; resuming at 1.5× the timeout is
    // safe as long as the slow mark lands within half a timeout of the
    // request burst, which a one-feed multi-MB reply guarantees.
    let shed_timeout = Duration::from_millis(1200);
    let clients = 4usize;
    let cfg = ServeConfig {
        engine: EngineConfig::with_shards(1),
        wire: WireMode::Auto,
        max_conns: clients,
        max_accepts: Some(clients as u64),
        write_buf: 2048,
        shed_timeout,
        ..ServeConfig::default()
    };
    let (addr, server) = spawn_server(cfg.clone());

    // The stalled client's stream: admit a wide tenant universe, then
    // fleet-wide reports — small requests, multi-kilobyte replies, so the
    // response stream dwarfs every buffer in the path.
    let mut amplifier: Vec<String> = (0..64)
        .map(|i| format!(r#"{{"op":"admit","id":"w{i}","m":8,"beta":2.0,"policy":"lcp"}}"#))
        .collect();
    for _ in 0..1500 {
        amplifier.push(r#"{"op":"report"}"#.to_string());
    }
    let stalled_request = amplifier.join("\n") + "\n";

    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(stalled_request.as_bytes())
            .expect("send amplifier");
        // Stall: do not read. The reactor fills the socket buffers, marks
        // the connection slow, and sheds it after the timeout.
        std::thread::sleep(shed_timeout + shed_timeout / 2);
        let mut got = Vec::new();
        stream.read_to_end(&mut got).expect("read to EOF");
        got
    });

    // The well-behaved fleet, started while the stalled client hogs its
    // buffers; each must still match its serial twin byte for byte.
    let mut want = Vec::new();
    let mut handles = Vec::new();
    for i in 0..clients - 1 {
        let lines = client_lines(100 + i as u64, 30, &format!("c{i}-"), false);
        let (request, expect) = if i % 2 == 0 {
            ((lines.join("\n") + "\n").into_bytes(), {
                let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
                let mut out = Vec::new();
                for reply in session.handle_lines(lines.iter().map(|s| s.as_str())) {
                    out.extend_from_slice(reply.as_bytes());
                    out.push(b'\n');
                }
                out
            })
        } else {
            let stream = transcode(&lines);
            let mut bin = BinSession::new(Session::new(Engine::new(EngineConfig::with_shards(1))));
            let mut out = Vec::new();
            bin.feed(&stream, &mut out);
            bin.finish(&mut out);
            (stream, out)
        };
        want.push(expect);
        handles.push(std::thread::spawn(move || {
            run_client(addr, request, 100 + i as u64)
        }));
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        assert_eq!(got, want[i], "well-behaved client {i} diverged");
    }

    let got = stalled.join().expect("stalled client thread");
    let text = String::from_utf8_lossy(&got);
    let last = text.lines().last().unwrap_or_default();
    assert!(
        last.contains(r#""op":"error""#)
            && last.contains("connection shed: outbound queue held over 2048 bytes"),
        "typed slow-consumer shed error expected as the final line, got {last:?}"
    );
    // The shed error carries the *next* sequence number. How many report
    // lines the reactor consumed before the slow mark depends on kernel
    // buffer sizes, but every admit (lines 1..=64) certainly landed first.
    let seq: usize = last
        .split(r#""line":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("shed error missing a sequence number: {last:?}"));
    assert!(
        seq > 64,
        "shed sequence {seq} should follow the admit prelude"
    );

    let summary = server.join().expect("server thread");
    assert_eq!(summary.accepted, clients as u64);
    assert_eq!(
        (summary.closed, summary.shed),
        ((clients - 1) as u64, 1),
        "exactly the stalled client is shed"
    );
}
