//! JSONL ↔ binary wire differential: the binary framing is pinned to the
//! JSONL protocol by construction — same ops, same sequence numbers, same
//! engine behind both — so any random valid request stream must produce
//!
//! * **byte-identical response lines** (modulo framing: binary responses
//!   are decoded back to their JSONL text), from the one-shot
//!   `handle_lines` and from both streaming framings at any feed chunking,
//! * **byte-identical durable stores** when both sessions journal to a
//!   `FileStore`, and
//! * **byte-identical recovery**: a binary connection killed at an
//!   arbitrary byte leaves a store from which recovery matches a JSONL
//!   session fed exactly the delivered frame prefix.
//!
//! The op generator covers every deterministic wire op plus blank lines,
//! comments, and deliberate errors (unknown tenants, bad loads, garbage
//! JSON) so the error/sequence-number accounting is differentially tested
//! too. The `metrics` op is excluded by design: its dump embeds
//! wall-clock batch-latency histograms, nondeterministic across any two
//! runs regardless of framing.

use proptest::collection::vec;
use proptest::prelude::*;
use rsdc_engine::binwire::{encode_request_line, BinSession, FrameDecoder, PREAMBLE};
use rsdc_engine::wire::{LineSession, Session};
use rsdc_engine::{Engine, EngineConfig};
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use rsdc_tests::heavy_cases;
use std::sync::Arc;

const SHARDS: usize = 2;

/// One generated request line. Weighted toward steps (the hot path) with
/// every control op, skip line, and error shape mixed in.
fn line_strategy() -> impl Strategy<Value = String> {
    let scalar_step = || {
        (0usize..6, 0u32..17).prop_map(|(i, c)| {
            format!(
                r#"{{"op":"step","id":"t{i}","cost":{{"Abs":{{"slope":1.0,"center":{c}.0}}}}}}"#
            )
        })
    };
    let hetero_step = || {
        (0usize..3, 1u32..10)
            .prop_map(|(i, l)| format!(r#"{{"op":"step","id":"h{i}","load":{}}}"#, l as f64 * 0.5))
    };
    let control = prop_oneof![
        (0usize..6).prop_map(|i| format!(r#"{{"op":"finish","id":"t{i}"}}"#)),
        (0usize..6).prop_map(|i| format!(r#"{{"op":"snapshot","id":"t{i}"}}"#)),
        (0usize..6).prop_map(|i| format!(r#"{{"op":"report","id":"t{i}"}}"#)),
        Just(r#"{"op":"report"}"#.to_string()),
        Just(r#"{"op":"stats"}"#.to_string()),
        Just(r#"{"op":"wal_stats"}"#.to_string()),
        (1usize..5).prop_map(|s| format!(r#"{{"op":"rebalance","shards":{s},"vnodes":8}}"#)),
        (1usize..5).prop_map(|s| format!(
            r#"{{"op":"rebalance","shards":{s},"vnodes":8,"mode":"incremental"}}"#
        )),
    ];
    let skip = prop_oneof![
        Just(String::new()),
        Just("   ".to_string()),
        Just("# comment".to_string()),
    ];
    let error = prop_oneof![
        Just(r#"{"op":"step","id":"ghost","load":1.0}"#.to_string()),
        Just(r#"{"op":"step","id":"t0","load":-1}"#.to_string()),
        Just(r#"{"op":"step","id":"t0"}"#.to_string()),
        Just(r#"{"op":"warp"}"#.to_string()),
        Just(r#"{"op":"#.to_string()),
        Just(r#"{"op":"finish","id":"ghost"}"#.to_string()),
    ];
    // Weight toward steps by repeating arms (the proptest shim's
    // `prop_oneof!` samples arms uniformly).
    prop_oneof![
        scalar_step(),
        scalar_step(),
        scalar_step(),
        hetero_step(),
        hetero_step(),
        control,
        skip,
        error,
    ]
}

/// Admits establishing the tenant universe the random ops step.
fn prelude() -> Vec<String> {
    let mut lines: Vec<String> = (0..6)
        .map(|i| {
            let policy = if i % 2 == 0 {
                r#""lcp""#.to_string()
            } else {
                format!(r#"{{"HalfStepRounded":{{"seed":{i}}}}}"#)
            };
            format!(r#"{{"op":"admit","id":"t{i}","m":16,"beta":4.0,"policy":{policy}}}"#)
        })
        .collect();
    for i in 0..3 {
        lines.push(format!(
            r#"{{"op":"admit","id":"h{i}","policy":"hetero:greedy","fleet":{{"types":[{{"count":3,"beta":1.0,"energy":1.0,"capacity":1.0}},{{"count":2,"beta":2.5,"energy":1.4,"capacity":2.0}}]}}}}"#
        ));
    }
    lines
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

/// Serve `stream` through a binary session in `chunk`-byte feeds and
/// decode the responses back to JSONL text.
fn serve_binary(session: Session, stream: &[u8], chunk: usize) -> (Vec<String>, Session) {
    let mut bin = BinSession::new(session);
    let mut reply_bytes = Vec::new();
    for part in stream.chunks(chunk.max(1)) {
        bin.feed(part, &mut reply_bytes);
    }
    bin.finish(&mut reply_bytes);
    let session = bin.into_session();
    let lines = rsdc_engine::binwire::decode_response(&reply_bytes).expect("decode responses");
    (lines, session)
}

/// Serve the JSONL `lines` through a streaming line session in
/// `chunk`-byte feeds and split the responses back into lines.
fn serve_jsonl(lines: &[String], chunk: usize) -> Vec<String> {
    let stream: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut ls = LineSession::new(ephemeral_session());
    let mut reply_bytes = Vec::new();
    for part in stream.as_bytes().chunks(chunk.max(1)) {
        ls.feed(part, &mut reply_bytes);
    }
    ls.finish(&mut reply_bytes);
    let text = String::from_utf8(reply_bytes).expect("JSONL responses are UTF-8");
    text.lines().map(str::to_string).collect()
}

fn ephemeral_session() -> Session {
    Session::new(Engine::new(EngineConfig::with_shards(SHARDS)))
}

/// A fresh, unique data directory per test case.
fn case_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("rsdc-wire-binary-differential")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &std::path::Path) -> Arc<dyn Durability> {
    Arc::new(FileStore::open(dir, FileStoreConfig { sync_every: 16 }).expect("open store"))
}

/// Sorted `(file name, contents)` listing of a store directory.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read store file"))
        })
        .collect();
    files.sort();
    files
}

/// Number of complete frames in `stream[PREAMBLE..cut]` — the ops a
/// connection killed at byte `cut` actually delivered.
fn complete_frames(stream: &[u8], cut: usize) -> usize {
    let mut dec = FrameDecoder::new();
    dec.extend(&stream[PREAMBLE.len()..cut]);
    let mut n = 0usize;
    while let Ok(Some(_)) = dec.next_frame() {
        n += 1;
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random op streams answer byte-identically through both framings
    /// and the one-shot `handle_lines`, for any feed chunking of the
    /// streaming connections.
    #[test]
    fn responses_are_byte_identical_across_framings(
        ops in vec(line_strategy(), 1..40),
        chunk in 1usize..80,
    ) {
        let mut lines = prelude();
        lines.extend(ops);

        let mut jsonl = ephemeral_session();
        let want = jsonl.handle_lines(lines.iter().map(|s| s.as_str()));

        let stream = transcode(&lines);
        let (got, _session) = serve_binary(ephemeral_session(), &stream, chunk);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(serve_jsonl(&lines, chunk), want);
    }

    /// With a durable store behind each session, the same stream leaves
    /// byte-identical WAL + checkpoint files on disk — the journaling
    /// path cannot tell the framings apart either.
    #[test]
    fn durable_stores_are_byte_identical_across_framings(
        ops in vec(line_strategy(), 1..24),
        checkpoint_at in 0usize..24,
        chunk in 1usize..80,
    ) {
        let mut lines = prelude();
        lines.extend(ops);
        let at = prelude().len() + (checkpoint_at % (lines.len() - prelude().len() + 1));
        lines.insert(at, r#"{"op":"checkpoint"}"#.to_string());

        let dir_j = case_dir("jsonl");
        let dir_b = case_dir("binary");

        let (mut jsonl, none) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_j)).expect("open");
        prop_assert!(none.is_none());
        let want = jsonl.handle_lines(lines.iter().map(|s| s.as_str()));
        drop(jsonl);

        let (binary, none) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_b)).expect("open");
        prop_assert!(none.is_none());
        let (got, session) = serve_binary(binary, &transcode(&lines), chunk);
        drop(session);

        // `wal_stats` embeds the store's own directory path — the one
        // legitimately session-specific byte sequence. Mask it.
        let mask = |out: Vec<String>, dir: &std::path::Path| -> Vec<String> {
            let text = dir.display().to_string();
            out.into_iter().map(|l| l.replace(&text, "<dir>")).collect()
        };
        prop_assert_eq!(mask(got, &dir_b), mask(want, &dir_j));
        prop_assert_eq!(dir_bytes(&dir_j), dir_bytes(&dir_b));
        let _ = std::fs::remove_dir_all(&dir_j);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    /// Kill-point recovery: cut the binary stream at an arbitrary byte
    /// (possibly mid-frame). The delivered complete frames match a JSONL
    /// session fed exactly that line prefix, and recovering both stores
    /// yields byte-identical reports and stats.
    #[test]
    fn killed_binary_connections_recover_like_their_jsonl_prefix(
        ops in vec(line_strategy(), 4..24),
        cut_frac in 0.0f64..1.0,
        chunk in 1usize..80,
    ) {
        let mut lines = prelude();
        lines.extend(ops);
        let stream = transcode(&lines);
        let span = stream.len() - PREAMBLE.len();
        let cut = PREAMBLE.len() + (cut_frac * span as f64) as usize;
        let delivered = complete_frames(&stream, cut);

        let dir_j = case_dir("kill-jsonl");
        let dir_b = case_dir("kill-binary");

        // The killed binary connection: feed the cut stream, then drop it
        // (finish flushes what arrived — the engine-side close a real
        // transport kill triggers).
        let (binary, _) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_b)).expect("open");
        let (_replies, session) = serve_binary(binary, &stream[..cut], chunk);
        drop(session);

        // The JSONL twin serves exactly the delivered prefix.
        let (mut jsonl, _) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_j)).expect("open");
        jsonl.handle_lines(lines[..delivered].iter().map(|s| s.as_str()));
        drop(jsonl);

        // Recover both and interrogate them identically.
        let probe = [r#"{"op":"report"}"#, r#"{"op":"stats"}"#];
        let (mut rj, _) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_j)).expect("recover");
        let want = rj.handle_lines(probe);
        drop(rj);
        let (mut rb, _) = Session::open_durable_cfg(EngineConfig::with_shards(SHARDS), open_store(&dir_b)).expect("recover");
        let got = rb.handle_lines(probe);
        drop(rb);

        prop_assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir_j);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(heavy_cases(512)))]

    /// Nightly-depth differential (`--include-ignored`).
    #[test]
    #[ignore = "heavy: run via the nightly --include-ignored CI job"]
    fn responses_are_byte_identical_across_framings_heavy(
        ops in vec(line_strategy(), 1..120),
        chunk in 1usize..200,
    ) {
        let mut lines = prelude();
        lines.extend(ops);
        let mut jsonl = ephemeral_session();
        let want = jsonl.handle_lines(lines.iter().map(|s| s.as_str()));
        let stream = transcode(&lines);
        let (got, _session) = serve_binary(ephemeral_session(), &stream, chunk);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(serve_jsonl(&lines, chunk), want);
    }
}
