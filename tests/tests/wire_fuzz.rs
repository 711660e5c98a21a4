//! Wire-parser robustness: fuzz-style proptests feeding truncated,
//! byte-flipped, spliced and otherwise mutated JSONL lines into a live
//! `wire::Session`, asserting the protocol's failure contract:
//!
//! * the session **never panics** and never stops serving;
//! * every response is valid JSON with a string `op`;
//! * every failure is a typed `error` response carrying the correct
//!   **1-based line number** of the offending input line (blank lines and
//!   comments included in the count);
//! * the session stays fully usable after arbitrary garbage.
//!
//! The binary corpus (second half of the file) holds `BinSession` to the
//! same bar over mutated frame streams: truncated frames, corrupt CRCs,
//! oversize length prefixes, mid-frame kills, and wrong-magic /
//! wrong-version handshakes all yield typed sequence-numbered error
//! frames, never a panic or a hang — and the response stream always
//! decodes cleanly, whatever the request stream looked like.
//!
//! The heavy `#[ignore]`d variants run the same properties at raised case
//! counts for the nightly `--include-ignored` CI job.

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_engine::binwire::{
    encode_request_line, put_frame, BinSession, BodyReader, FrameDecoder, MAX_FRAME_LEN, PREAMBLE,
    TAG_RESP_ERROR,
};
use rsdc_engine::wire::{parse_record, Session};
use rsdc_engine::{Engine, EngineConfig};
use rsdc_tests::heavy_cases;

/// A corpus of valid request lines covering every op (ASCII only, so
/// byte-indexed mutations never split a UTF-8 sequence).
fn base_lines() -> Vec<&'static str> {
    vec![
        r#"{"op":"admit","id":"web","m":8,"beta":6.0,"policy":"lcp","track_opt":true}"#,
        r#"{"op":"admit","id":"api","m":8,"beta":6.0,"policy":{"FlcpRounded":{"k":4,"seed":7}}}"#,
        r#"{"op":"admit","id":"h1","policy":"hetero:frontier","fleet":{"types":[{"count":3,"beta":1.0,"energy":1.0,"capacity":1.0},{"count":2,"beta":2.5,"energy":1.4,"capacity":2.0}]}}"#,
        r#"{"op":"step","id":"web","load":3.2}"#,
        r#"{"op":"step","id":"api","cost":{"Abs":{"slope":1.0,"center":3.0}}}"#,
        r#"{"op":"step","id":"h1","load":2.5}"#,
        r#"{"op":"finish","id":"web"}"#,
        r#"{"op":"snapshot","id":"api"}"#,
        r#"{"op":"report","id":"web"}"#,
        r#"{"op":"report"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"rebalance","shards":2,"vnodes":16}"#,
        r#"{"op":"limits","max_tenants":10,"rate":5.0,"burst":20.0}"#,
        r#"{"op":"energy","model":"linear:100:250","capacity":4.0,"price":"step:24:1,3.5"}"#,
        r#"{"op":"energy"}"#,
        r#"{"op":"autoscale","min":1,"max":8,"switch_cost":32.0}"#,
        r#"{"op":"autoscale","min":1,"max":8,"switch_cost":32.0,"priced":true}"#,
        r#"{"op":"autoscale"}"#,
        r#"{"op":"autoscale","off":true}"#,
        r#"{"op":"checkpoint"}"#,
        r#"{"op":"wal_stats"}"#,
    ]
}

/// Apply one mutation. `kind` selects truncate / byte-flip / insert /
/// splice-delete / duplicate-chunk; `at` and `byte` parameterize it.
/// Lossy UTF-8 repair keeps the result feedable as `&str` (the session
/// reads text lines; invalid UTF-8 cannot reach it by construction).
fn mutate(line: &str, kind: u8, at: usize, byte: u8) -> String {
    let mut b = line.as_bytes().to_vec();
    if b.is_empty() {
        return String::new();
    }
    let at = at % b.len();
    match kind % 5 {
        0 => b.truncate(at),
        1 => b[at] ^= byte | 1,
        2 => b.insert(at, byte),
        3 => {
            let end = (at + 1 + (byte as usize % 5)).min(b.len());
            b.drain(at..end);
        }
        _ => {
            let chunk: Vec<u8> = b[at..(at + 8).min(b.len())].to_vec();
            b.extend(chunk);
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Feed `lines` to a fresh session and enforce the failure contract.
/// Returns the number of error responses.
fn check_contract(lines: &[String]) -> usize {
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
    let mut errors = 0;
    for response in &out {
        let v: serde::Value = serde_json::from_str(response)
            .unwrap_or_else(|e| panic!("response is not JSON ({e}): {response}"));
        let op = v["op"].as_str().unwrap_or_else(|| {
            panic!("response lacks a string op: {response}");
        });
        if op == "error" {
            errors += 1;
            let line = v["line"]
                .as_u64()
                .unwrap_or_else(|| panic!("error without a line number: {response}"));
            assert!(
                line >= 1 && line <= lines.len() as u64,
                "error line {line} outside 1..={}: {response}",
                lines.len()
            );
            assert!(
                !v["message"].as_str().unwrap_or("").is_empty(),
                "error without a message: {response}"
            );
        }
    }
    // The session survived: it still serves a well-formed report.
    let after = session.handle_lines([r#"{"op":"report"}"#, r#"{"op":"stats"}"#]);
    for response in &after {
        let v: serde::Value = serde_json::from_str(response).expect("post-garbage response");
        assert!(v["op"].as_str().is_some());
    }
    errors
}

/// Build the fuzz input: a valid prelude (so some tenants exist), then
/// the mutated picks interleaved with untouched lines.
fn fuzz_lines(picks: &[(usize, u8, usize, u8)]) -> Vec<String> {
    let base = base_lines();
    let mut lines: Vec<String> = vec![
        base[0].to_string(), // admit web
        base[2].to_string(), // admit h1
    ];
    for &(index, kind, at, byte) in picks {
        let template = base[index % base.len()];
        // kind 5..=7 feeds the template untouched, mixing valid traffic in.
        if kind >= 5 {
            lines.push(template.to_string());
        } else {
            lines.push(mutate(template, kind, at, byte));
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary mutated JSONL streams: typed line-numbered errors, no
    /// panics, session stays alive.
    #[test]
    fn mutated_jsonl_streams_fail_typed_and_numbered(
        picks in vec((0usize..64, 0u8..8, 0usize..512, 0u8..=255u8), 1..24),
    ) {
        check_contract(&fuzz_lines(&picks));
    }

    /// A single garbage line after `pad` blank/comment lines produces an
    /// error naming exactly line `pad + 1` — the numbering includes the
    /// skipped lines.
    #[test]
    fn error_line_numbers_point_at_the_offending_line(
        pad in 0usize..40,
        kind in 0u8..5,
        at in 0usize..512,
        byte in 0u8..=255u8,
        index in 0usize..64,
    ) {
        let template = base_lines()[index % base_lines().len()];
        let garbage = mutate(template, kind, at, byte);
        // Only assert when the mutation actually broke the line.
        let broken = parse_record(&garbage).is_err()
            && !garbage.trim().is_empty()
            && !garbage.trim_start().starts_with('#');
        if broken {
            let mut lines: Vec<String> = (0..pad)
                .map(|i| if i % 2 == 0 { String::new() } else { "# padding".to_string() })
                .collect();
            lines.push(garbage.clone());
            let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
            let out = session.handle_lines(lines.iter().map(|s| s.as_str()));
            prop_assert!(!out.is_empty(), "a broken line must produce a response");
            let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
            prop_assert_eq!(v["op"].as_str().unwrap(), "error");
            prop_assert_eq!(v["line"].as_u64().unwrap(), pad as u64 + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(2048)))]

    /// Nightly-depth fuzzing (`--include-ignored`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn mutated_jsonl_streams_fail_typed_and_numbered_heavy(
        picks in vec((0usize..64, 0u8..8, 0usize..512, 0u8..=255u8), 1..24),
    ) {
        check_contract(&fuzz_lines(&picks));
    }
}

/// Exhaustive prefix sweep: every truncation of every valid request line
/// parses to `Ok` or a typed error — never a panic. (ASCII corpus, so
/// every byte index is a char boundary.)
#[test]
fn every_prefix_of_every_op_parses_or_errors() {
    for line in base_lines() {
        for cut in 0..=line.len() {
            let _ = parse_record(&line[..cut]);
        }
    }
}

// ---------------------------------------------------------------------
// Binary framing corpus.
// ---------------------------------------------------------------------

/// A valid binary connection stream: preamble + every base line
/// transcoded to its frame.
fn base_stream() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&PREAMBLE);
    let mut payload = Vec::new();
    for line in base_lines() {
        encode_request_line(line, &mut payload, &mut out);
    }
    out
}

/// Mutate the frame region of a valid stream (the preamble stays intact
/// so the handshake succeeds and the mutation exercises frame handling).
/// `kind` selects truncate / byte-flip (CRC corruption) / insert /
/// splice-delete / length-prefix inflation (oversize).
fn mutate_stream(stream: &[u8], kind: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut b = stream.to_vec();
    let lo = PREAMBLE.len();
    if b.len() <= lo {
        return b;
    }
    let at = lo + at % (b.len() - lo);
    match kind % 5 {
        0 => b.truncate(at),
        1 => b[at] ^= byte | 1,
        2 => b.insert(at, byte),
        3 => {
            let end = (at + 1 + (byte as usize % 9)).min(b.len());
            b.drain(at..end);
        }
        _ => {
            // Stamp an oversize little-endian length over 4 bytes — when
            // this lands on a frame header the decoder must refuse it
            // without ever allocating the claimed length.
            let huge = (MAX_FRAME_LEN + 1 + byte as u32).to_le_bytes();
            for (i, v) in huge.iter().enumerate() {
                if at + i < b.len() {
                    b[at + i] = *v;
                }
            }
        }
    }
    b
}

/// Feed a (possibly mutated) binary stream and enforce the binary
/// failure contract; returns the decoded response lines.
fn check_binary_contract(stream: &[u8], chunk: usize) -> Vec<String> {
    let mut bin = BinSession::new(Session::new(Engine::new(EngineConfig::with_shards(1))));
    let mut reply = Vec::new();
    for part in stream.chunks(chunk.max(1)) {
        bin.feed(part, &mut reply);
    }
    bin.finish(&mut reply);
    // Feeding a finished (dead) connection is a no-op, never a panic.
    let before = reply.len();
    bin.feed(b"garbage after close", &mut reply);
    assert_eq!(reply.len(), before, "a dead connection stays silent");

    // Whatever the request stream looked like, the response stream is
    // well-framed and every line is JSON with a string op; errors carry
    // their 1-based sequence number.
    let lines = rsdc_engine::binwire::decode_response(&reply)
        .unwrap_or_else(|e| panic!("response stream must decode: {e}"));
    for line in &lines {
        let v: serde::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"));
        let op = v["op"]
            .as_str()
            .unwrap_or_else(|| panic!("response lacks a string op: {line}"));
        if op == "error" {
            let seq = v["line"]
                .as_u64()
                .unwrap_or_else(|| panic!("error without a sequence number: {line}"));
            assert!(seq >= 1, "post-handshake errors carry seq >= 1: {line}");
            assert!(
                !v["message"].as_str().unwrap_or("").is_empty(),
                "error without a message: {line}"
            );
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary mutated frame streams at arbitrary feed chunkings:
    /// typed seq-numbered error frames, a decodable response stream, no
    /// panics, no hangs.
    #[test]
    fn mutated_binary_streams_fail_typed_and_numbered(
        muts in vec((0u8..5, 0usize..4096, 0u8..=255u8), 1..6),
        chunk in 1usize..200,
    ) {
        let mut stream = base_stream();
        for &(kind, at, byte) in &muts {
            stream = mutate_stream(&stream, kind, at, byte);
        }
        check_binary_contract(&stream, chunk);
    }

    /// Mid-frame kills: every byte-truncation of a valid stream serves
    /// the delivered frame prefix and reports the torn tail (if any) as
    /// one truncation error at the next sequence number.
    #[test]
    fn mid_frame_kills_report_the_torn_tail(cut_frac in 0.0f64..1.0, chunk in 1usize..64) {
        let stream = base_stream();
        let span = stream.len() - PREAMBLE.len();
        let cut = PREAMBLE.len() + (cut_frac * span as f64) as usize;
        let lines = check_binary_contract(&stream[..cut], chunk);
        // Count the frames actually delivered.
        let mut dec = FrameDecoder::new();
        dec.extend(&stream[PREAMBLE.len()..cut]);
        let mut delivered = 0u64;
        while let Ok(Some(_)) = dec.next_frame() {
            delivered += 1;
        }
        let torn = dec.finish().is_err();
        if torn {
            let last = lines.last().expect("a torn tail must be reported");
            let v: serde::Value = serde_json::from_str(last).unwrap();
            prop_assert_eq!(v["op"].as_str().unwrap(), "error");
            prop_assert_eq!(v["line"].as_u64().unwrap(), delivered + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(2048)))]

    /// Nightly-depth binary fuzzing (`--include-ignored`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn mutated_binary_streams_fail_typed_and_numbered_heavy(
        muts in vec((0u8..5, 0usize..4096, 0u8..=255u8), 1..8),
        chunk in 1usize..200,
    ) {
        let mut stream = base_stream();
        for &(kind, at, byte) in &muts {
            stream = mutate_stream(&stream, kind, at, byte);
        }
        check_binary_contract(&stream, chunk);
    }
}

/// A wrong-version or wrong-magic handshake is refused with one typed
/// error frame at sequence 0 — emitted without a preamble echo, since no
/// protocol was ever agreed — and the connection is dead from then on.
#[test]
fn wrong_handshakes_are_refused_with_a_seq_zero_error() {
    for (mutate_at, expect) in [
        (5usize, "unsupported protocol version"),
        (0, "bad preamble"),
    ] {
        let mut wire = base_stream();
        wire[mutate_at] ^= 0x5A;
        let mut bin = BinSession::new(Session::new(Engine::new(EngineConfig::with_shards(1))));
        let mut reply = Vec::new();
        bin.feed(&wire, &mut reply);
        bin.finish(&mut reply);
        assert!(bin.is_dead());
        let mut dec = FrameDecoder::new();
        dec.extend(&reply);
        let frame = dec
            .next_frame()
            .expect("well-framed")
            .expect("one error frame");
        assert_eq!(frame.tag, TAG_RESP_ERROR);
        let mut r = BodyReader::new(frame.body);
        assert_eq!(r.u64(), Some(0), "handshake errors are sequence 0");
        assert_eq!(r.u8(), Some(0), "no tenant id on a handshake error");
        let message = String::from_utf8(r.rest().to_vec()).expect("utf-8 message");
        assert!(message.contains(expect), "{message}");
        assert!(
            dec.next_frame().expect("decode").is_none(),
            "exactly one frame"
        );
        assert!(dec.finish().is_ok());
    }
}

/// An oversize length prefix is fatal at its own sequence number — and
/// the decoder refuses it from the header alone, without buffering or
/// allocating the claimed 16 MiB+.
#[test]
fn oversize_length_prefixes_are_refused_from_the_header() {
    let mut wire = PREAMBLE.to_vec();
    let mut payload = Vec::new();
    encode_request_line(r#"{"op":"stats"}"#, &mut payload, &mut wire);
    wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]); // header tail + a little garbage
    let lines = check_binary_contract(&wire, 7);
    // stats answered, then the oversize frame killed the stream at seq 2.
    assert!(lines[0].contains("\"op\":\"stats\""), "{}", lines[0]);
    let v: serde::Value = serde_json::from_str(&lines[1]).unwrap();
    assert_eq!(v["op"].as_str().unwrap(), "error");
    assert_eq!(v["line"].as_u64().unwrap(), 2);
    assert!(
        v["message"].as_str().unwrap().contains("exceeds cap"),
        "{}",
        lines[1]
    );
}

/// The step-shape guards swept from `unwrap`/`expect` to typed errors:
/// a hetero tenant stepped with a scalar cost, and a step carrying
/// neither cost nor load, both answer typed line-numbered errors and
/// leave the session serving.
#[test]
fn step_shape_mismatches_error_typed_and_numbered() {
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let out = session.handle_lines([
        base_lines()[2], // admit h1 (hetero)
        r#"{"op":"step","id":"h1","cost":{"Abs":{"slope":1.0,"center":3.0}}}"#,
        r#"{"op":"step","id":"h1"}"#,
        r#"{"op":"report","id":"h1"}"#,
    ]);
    assert_eq!(out.len(), 4, "{out:?}");
    for (reply, line) in [(&out[1], 2), (&out[2], 3)] {
        let v: serde::Value = serde_json::from_str(reply).unwrap();
        assert_eq!(v["op"], "error", "{reply}");
        assert_eq!(v["line"].as_u64().unwrap(), line, "{reply}");
    }
    assert!(out[3].contains("\"op\":\"report\""), "session stays live");
}

/// Invalid UTF-8 cannot reach the batch path (it reads whole files as
/// `String`), but a socket connection can deliver any bytes: the serving
/// layer's `LineSession` answers a typed, line-numbered error and keeps
/// serving the connection.
#[test]
fn line_session_rejects_invalid_utf8_typed_and_numbered() {
    use rsdc_engine::wire::LineSession;
    let mut ls = LineSession::new(Session::new(Engine::new(EngineConfig::with_shards(1))));
    let mut out = Vec::new();
    ls.feed(
        b"{\"op\":\"stats\"}\n\xff\xfe{\"op\":\"stats\"}\n{\"op\":\"stats\"}\n",
        &mut out,
    );
    ls.finish(&mut out);
    let text = String::from_utf8(out).expect("replies are valid UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    let v: serde::Value = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(v["op"], "error", "{}", lines[1]);
    assert_eq!(v["line"].as_u64().unwrap(), 2);
    assert!(v["message"].as_str().unwrap().contains("not valid UTF-8"));
    for line in [lines[0], lines[2]] {
        assert!(
            line.contains("\"op\":\"stats\""),
            "stats still served: {line}"
        );
    }
}

/// A peer streaming bytes with no `\n` in sight cannot grow the line
/// framing's partial buffer without bound: one byte over `MAX_LINE_LEN`
/// the session answers a typed, line-numbered error and dies — the
/// JSONL twin of the oversize-length-prefix refusal above — and stays
/// silent (never panics) on bytes fed after death. The cap counts the
/// whole line: an overlong line that is terminated and followed by more
/// requests is refused identically whether it arrives in one feed or in
/// chunks.
#[test]
fn unterminated_line_over_the_cap_kills_the_session_typed() {
    use rsdc_engine::wire::{LineSession, MAX_LINE_LEN};
    let stats = b"{\"op\":\"stats\"}\n";
    let line = vec![b'x'; MAX_LINE_LEN + (2 << 20)];
    let unterminated = [&stats[..], &line].concat();
    let terminated = [&stats[..], &line, b"\n", stats].concat();
    let mut first: Option<Vec<u8>> = None;
    for (input, chunk) in [
        (&unterminated, 1 << 20),
        (&terminated, terminated.len()),
        (&terminated, 1 << 20),
    ] {
        let case = format!("{} bytes in {chunk}-byte feeds", input.len());
        let mut ls = LineSession::new(Session::new(Engine::new(EngineConfig::with_shards(1))));
        let mut out = Vec::new();
        for part in input.chunks(chunk) {
            ls.feed(part, &mut out);
        }
        assert!(ls.is_dead(), "overlong line is fatal: {case}");
        let text = String::from_utf8(out.clone()).expect("replies are valid UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{case}: {lines:?}");
        assert!(lines[0].contains("\"op\":\"stats\""), "{}", lines[0]);
        let v: serde::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v["op"], "error", "{}", lines[1]);
        assert_eq!(v["line"].as_u64().unwrap(), 2, "the overlong line's number");
        assert!(v["message"].as_str().unwrap().contains("exceeds cap"));
        assert_eq!(
            out_len_after_death(&mut ls),
            0,
            "a dead connection stays silent"
        );
        let first = first.get_or_insert_with(|| out.clone());
        assert_eq!(&out, first, "{case} answers like the first case");
    }
}

fn out_len_after_death(ls: &mut rsdc_engine::wire::LineSession) -> usize {
    let mut out = Vec::new();
    ls.feed(b"{\"op\":\"stats\"}\n", &mut out);
    ls.finish(&mut out);
    out.len()
}

/// A restore whose hetero frontier or opt frontier holds an infinite
/// entry is refused, and the honest snapshot still restores. (Accepted,
/// a `-1e999` entry would make the tenant commit its all-zero
/// configuration from then on and report a null optimum.)
#[test]
fn non_finite_hetero_frontiers_are_refused() {
    let fleet = r#""fleet":{"types":[{"count":3,"beta":1.0,"energy":1.0,"capacity":1.0},{"count":2,"beta":2.5,"energy":1.4,"capacity":2.0}]}"#;
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    for (id, policy, key) in [
        ("hf", "hetero:frontier", r#""frontier":["#),
        ("hg", "hetero:greedy", r#""opt_frontier":["#),
    ] {
        let lines = [
            format!(r#"{{"op":"admit","id":"{id}","policy":"{policy}","track_opt":true,{fleet}}}"#),
            format!(r#"{{"op":"step","id":"{id}","load":4.5}}"#),
            format!(r#"{{"op":"snapshot","id":"{id}"}}"#),
        ];
        let out = session.handle_lines(lines.iter().map(|l| l.as_str()));
        let restore = out[2].replacen(
            &format!(r#""op":"snapshot","id":"{id}","#),
            r#""op":"restore","#,
            1,
        );
        let at = restore.find(key).expect("snapshot carries the frontier") + key.len();
        let end = at
            + restore[at..]
                .find(',')
                .expect("frontier has several entries");
        for bad in ["-1e999", "1e999"] {
            let forged = format!("{}{bad}{}", &restore[..at], &restore[end..]);
            let reply = &session.handle_lines([forged.as_str()])[0];
            assert!(reply.starts_with(r#"{"op":"error""#), "{id} {bad}: {reply}");
        }
        let reply = &session.handle_lines([restore.as_str()])[0];
        assert!(reply.starts_with(r#"{"op":"restored""#), "{id}: {reply}");
    }
}

/// Deep nesting, absurd numbers, NaN-ish spellings, and null injections
/// are rejected as errors, not panics or silent acceptance.
#[test]
fn hostile_corner_case_lines_are_rejected() {
    let hostile: Vec<String> = [
        &format!("{}{}", "[".repeat(4000), "]".repeat(4000)),
        r#"{"op":"step","id":"web","load":1e999}"#,
        r#"{"op":"step","id":"web","load":-1.0}"#,
        r#"{"op":"step","id":"web","load":null}"#,
        r#"{"op":"admit","id":"web","m":99999999999999999999,"beta":1.0,"policy":"lcp"}"#,
        r#"{"op":"admit","id":"web","m":-4,"beta":1.0,"policy":"lcp"}"#,
        // In range for a u32 but past the tenant cap: refused before a
        // 3 x (m + 1) tracker allocation could abort the process.
        r#"{"op":"admit","id":"x","m":4000000000,"beta":1.0,"policy":"lcp"}"#,
        r#"{"op":"admit","id":"x","m":4,"beta":-1.0,"policy":"lcp"}"#,
        r#"{"op":"rebalance","shards":-1}"#,
        r#"{"op":"rebalance","shards":1.5}"#,
        // Past the shard and vnode caps: refused before a ring or worker
        // pool of that size could abort the process.
        r#"{"op":"rebalance","shards":4294967296}"#,
        r#"{"op":"rebalance","shards":257}"#,
        r#"{"op":"rebalance","shards":2,"vnodes":4294967296}"#,
        r#"{"op":"rebalance","shards":2,"vnodes":1025}"#,
        r#"{"op":"limits","rate":"fast"}"#,
        // Step-shape guards swept from unwrap/expect to typed errors.
        r#"{"op":"step","id":"web"}"#,
        r#"{"op":"step","id":"h1","cost":{"Abs":{"slope":1.0,"center":3.0}}}"#,
        // Control-plane knob contracts: partial autoscale/energy configs
        // must be refused, never half-applied.
        r#"{"op":"autoscale","switch_cost":32.0}"#,
        r#"{"op":"autoscale","min":1,"switch_cost":32.0}"#,
        r#"{"op":"autoscale","priced":true}"#,
        r#"{"op":"autoscale","min":1,"max":8,"priced":true}"#,
        r#"{"op":"autoscale","min":8,"max":1}"#,
        r#"{"op":"energy","capacity":4.0}"#,
        r#"{"op":"energy","model":"warp:9"}"#,
        r#"{"op":"energy","model":"linear:100:250","price":"step:0:1"}"#,
        r#"{"op":"energy","model":"linear:100:250","capacity":-2.0}"#,
        r#"{"op":null}"#,
        r#"{"op":{"nested":"object"}}"#,
        "{\"op\":\"step\",\"id\":\"\\u0000\",\"load\":1.0}",
        r#"{"op":"admit","id":"h","policy":"hetero:frontier","fleet":{"types":[{"count":99,"beta":1.0,"energy":1.0,"capacity":1.0},{"count":99,"beta":1.0,"energy":1.0,"capacity":1.0}]}}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let out = session.handle_lines(hostile.iter().map(|s| s.as_str()));
    assert_eq!(out.len(), hostile.len(), "every hostile line answers");
    for (i, response) in out.iter().enumerate() {
        let v: serde::Value = serde_json::from_str(response).unwrap();
        assert_eq!(v["op"], "error", "line {}: {response}", i + 1);
        assert_eq!(v["line"].as_u64().unwrap(), i as u64 + 1);
    }
}

/// The binary framing refuses the same oversized rebalances: lines past
/// the caps travel as JSON envelopes, so they answer the JSONL parser's
/// typed errors, at the same sequence numbers.
#[test]
fn oversized_rebalances_are_refused_in_both_framings() {
    let lines = [
        r#"{"op":"rebalance","shards":4294967296}"#,
        r#"{"op":"rebalance","shards":257}"#,
        r#"{"op":"rebalance","shards":2,"vnodes":4294967296}"#,
        r#"{"op":"rebalance","shards":2,"vnodes":1025}"#,
    ];
    let mut jsonl = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let want = jsonl.handle_lines(lines);
    let mut stream = PREAMBLE.to_vec();
    let mut payload = Vec::new();
    for line in lines {
        encode_request_line(line, &mut payload, &mut stream);
    }
    let got = check_binary_contract(&stream, 7);
    assert_eq!(got, want);
    for (i, reply) in got.iter().enumerate() {
        let v: serde::Value = serde_json::from_str(reply).unwrap();
        assert_eq!(v["op"], "error", "{reply}");
        assert_eq!(v["line"].as_u64().unwrap(), i as u64 + 1, "{reply}");
        let message = v["message"].as_str().unwrap();
        assert!(message.contains("must be at most"), "{reply}");
    }
}

/// Version 1 gave ten control ops their own tags, 0x03 to 0x0C. On a
/// version 2 connection each is an unknown tag, answered at its own
/// sequence number, and the connection keeps serving.
#[test]
fn retired_control_tags_are_unknown_frame_tags() {
    let retired = 0x03u8..=0x0C;
    let mut stream = PREAMBLE.to_vec();
    for tag in retired.clone() {
        // Each with a body its version 1 decoder would have accepted.
        put_frame(&mut stream, &[tag, 1, 0, b'a', 1, 0, 0, 0, 0, 0]);
    }
    let mut payload = Vec::new();
    encode_request_line(r#"{"op":"stats"}"#, &mut payload, &mut stream);
    let got = check_binary_contract(&stream, 5);
    assert_eq!(got.len(), retired.clone().count() + 1, "{got:?}");
    for (i, tag) in retired.enumerate() {
        let v: serde::Value = serde_json::from_str(&got[i]).unwrap();
        assert_eq!(v["op"], "error", "{}", got[i]);
        assert_eq!(v["line"].as_u64().unwrap(), i as u64 + 1, "{}", got[i]);
        let message = v["message"].as_str().unwrap();
        assert_eq!(message, format!("unknown frame tag {tag:#04x}"));
    }
    assert!(
        got[got.len() - 1].starts_with(r#"{"op":"stats""#),
        "{got:?}"
    );
}
