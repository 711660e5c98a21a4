//! Wire-conformance suite: `docs/WIRE.md` is executable documentation.
//!
//! Every fenced code block in the doc whose info string is
//! `jsonl conformance` (or `jsonl conformance-durable`) is a live session
//! transcript: lines starting with `> ` are requests, every other
//! non-empty line is the *exact* expected response, in order. This test
//! feeds each block's requests to a fresh [`rsdc_engine::wire::Session`]
//! and asserts JSON equivalence response by response — so the documented
//! protocol can never drift from the implemented one. Plain `jsonl`
//! blocks (no `conformance` tag) stay illustrative and are not executed.
//!
//! Blocks tagged `binwire conformance` document the binary framing: their
//! `> ` lines are **hex-dumped request bytes** (anything after `#` is a
//! comment), fed verbatim to a fresh single-shard [`BinSession`]; the
//! remaining lines are the decoded JSONL text of the expected response
//! frames. The documented frame bytes — preambles, CRCs, tag layouts —
//! are therefore checked against the live codec. A refused preamble is
//! answered without the preamble echo; such a block's lone error frame
//! is decoded as if the echo were there.
//!
//! Determinism ground rules for conformance blocks, enforced here:
//! * each block runs on a fresh single-shard session (durable blocks get
//!   a fresh temp-dir `FileStore` with the default config), so sequence
//!   numbers and recovery reports are reproducible;
//! * the environment-dependent fields are normalized on both sides
//!   before comparison: the store's `dir` in `wal_stats` responses
//!   becomes `"<data-dir>"`, and wall-clock histogram statistics in
//!   `metrics` responses (`sum`/`max`/`p50`/`p90`/`p99`) become `0` —
//!   histogram **counts** are deterministic and stay checked.

use rsdc_engine::binwire::{decode_response, BinSession, PREAMBLE};
use rsdc_engine::wire::Session;
use rsdc_engine::EngineConfig;
use rsdc_store::{Durability, FileStore, FileStoreConfig};
use std::sync::Arc;

/// One executable block: where it sits in the doc, which framing it
/// speaks, whether it gets a durable store, and its interleaved
/// request/response lines.
struct Block {
    doc_line: usize,
    durable: bool,
    binary: bool,
    requests: Vec<String>,
    expected: Vec<String>,
}

/// Extract the conformance blocks from the markdown source.
fn conformance_blocks(doc: &str) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut current: Option<Block> = None;
    for (index, line) in doc.lines().enumerate() {
        let trimmed = line.trim_end();
        if let Some(block) = &mut current {
            if trimmed == "```" {
                blocks.push(current.take().expect("in block"));
            } else if let Some(req) = trimmed.strip_prefix("> ") {
                block.requests.push(req.to_string());
            } else if !trimmed.is_empty() {
                block.expected.push(trimmed.to_string());
            }
            continue;
        }
        let durable = trimmed == "```jsonl conformance-durable";
        let binary = trimmed == "```binwire conformance";
        if durable || binary || trimmed == "```jsonl conformance" {
            current = Some(Block {
                doc_line: index + 1,
                durable,
                binary,
                requests: Vec::new(),
                expected: Vec::new(),
            });
        }
    }
    assert!(current.is_none(), "unterminated fenced block in WIRE.md");
    blocks
}

/// Normalize environment-dependent fields, then parse.
fn canon(line: &str) -> serde::Value {
    let mut v: serde::Value =
        serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
    if let serde::Value::Object(entries) = &mut v {
        if let Some(store) = entries.iter_mut().find(|(k, _)| k == "store") {
            if let serde::Value::Object(fields) = &mut store.1 {
                for (k, val) in fields.iter_mut() {
                    if k == "dir" {
                        *val = serde::Value::String("<data-dir>".to_string());
                    }
                }
            }
        }
        // Metrics responses: histogram rows carry wall-clock timings
        // (sum/max/quantiles); zero them so doc transcripts stay exact.
        // Counts are event counts, hence deterministic — left checked.
        if let Some(rows) = entries.iter_mut().find(|(k, _)| k == "metrics") {
            if let serde::Value::Array(rows) = &mut rows.1 {
                for row in rows {
                    if let serde::Value::Object(fields) = row {
                        let histogram = fields
                            .iter()
                            .any(|(k, v)| k == "kind" && v.as_str() == Some("histogram"));
                        if histogram {
                            for (k, val) in fields.iter_mut() {
                                if matches!(k.as_str(), "sum" | "max" | "p50" | "p90" | "p99") {
                                    *val = serde_json::to_value(&0u64);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    v
}

/// Hex-dump request lines back to bytes: strip `#`-comments, then parse
/// whitespace-separated two-digit hex octets.
fn hex_bytes(requests: &[String], doc_line: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in requests {
        let data = line.split('#').next().unwrap_or("");
        for tok in data.split_whitespace() {
            let byte = u8::from_str_radix(tok, 16)
                .unwrap_or_else(|e| panic!("bad hex {tok:?} near docs/WIRE.md:{doc_line}: {e}"));
            bytes.push(byte);
        }
    }
    bytes
}

fn fresh_dir(tag: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-wire-conformance")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_wire_md_example_matches_a_live_session() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/WIRE.md");
    let doc = std::fs::read_to_string(doc_path).expect("read docs/WIRE.md");
    let blocks = conformance_blocks(&doc);
    // The floor has been raised PR over PR: autoscale (live auto-trigger
    // transcript plus error cases), rebalance, the
    // skew/policy-carrying stats + wal_stats shapes, the observability
    // pair (metrics-registry dump + traced autoscale decision), and now
    // the energy trio — metered session, spec rejections, and the
    // priced-autoscale composition.
    assert!(
        blocks.len() >= 22,
        "WIRE.md must keep its per-op conformance coverage, found {}",
        blocks.len()
    );
    let executed: usize = blocks.iter().map(|b| b.requests.len()).sum();
    assert!(executed >= 120, "suspiciously few requests: {executed}");
    assert!(
        doc.contains("\"op\":\"autoscale\"") && doc.contains("\"op\":\"rebalanced\""),
        "the autoscale and rebalance examples must stay documented"
    );
    assert!(
        doc.contains("\"op\":\"metrics\"") && doc.contains("autoscale_decision"),
        "the metrics dump and control-plane trace examples must stay documented"
    );
    assert!(
        doc.contains("\"op\":\"energy\"") && doc.contains("\"priced\":true"),
        "the energy op and priced-autoscale examples must stay documented"
    );
    let binary_blocks = blocks.iter().filter(|b| b.binary).count();
    assert!(
        binary_blocks >= 3,
        "WIRE.md must keep its binary-framing transcripts, found {binary_blocks}"
    );

    for (tag, block) in blocks.iter().enumerate() {
        if block.binary {
            let mut bin = BinSession::new(Session::new(rsdc_engine::Engine::new(
                EngineConfig::with_shards(1),
            )));
            let mut frames = Vec::new();
            bin.feed(&hex_bytes(&block.requests, block.doc_line), &mut frames);
            bin.finish(&mut frames);
            if !frames.starts_with(&PREAMBLE) {
                frames.splice(0..0, PREAMBLE);
            }
            let out = decode_response(&frames).unwrap_or_else(|e| {
                panic!(
                    "undecodable response stream for block at docs/WIRE.md:{}: {e}",
                    block.doc_line
                )
            });
            assert_eq!(
                out.len(),
                block.expected.len(),
                "response count mismatch; block at docs/WIRE.md:{} decoded:\n{}",
                block.doc_line,
                out.join("\n")
            );
            for (i, (got, want)) in out.iter().zip(&block.expected).enumerate() {
                assert!(
                    canon(got) == canon(want),
                    "response {i} differs;\n want: {want}\n  got: {got}\nblock at docs/WIRE.md:{}",
                    block.doc_line
                );
            }
            continue;
        }
        let dir = fresh_dir(tag);
        let mut session = if block.durable {
            let store: Arc<dyn Durability> =
                Arc::new(FileStore::open(&dir, FileStoreConfig::default()).expect("open store"));
            Session::open_durable_cfg(EngineConfig::with_shards(1), store)
                .expect("fresh durable session")
                .0
        } else {
            Session::new(rsdc_engine::Engine::new(EngineConfig::with_shards(1)))
        };
        let out = session.handle_lines(block.requests.iter().map(|s| s.as_str()));
        let context = || {
            format!(
                "block at docs/WIRE.md:{} —\nrequests:\n{}\nactual responses:\n{}",
                block.doc_line,
                block.requests.join("\n"),
                out.join("\n"),
            )
        };
        assert_eq!(
            out.len(),
            block.expected.len(),
            "response count mismatch; {}",
            context()
        );
        for (i, (got, want)) in out.iter().zip(&block.expected).enumerate() {
            assert!(
                canon(got) == canon(want),
                "response {i} differs;\n want: {want}\n  got: {got}\n{}",
                context()
            );
        }
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The doc's informal claim that blank lines and comments count toward
/// line numbering is part of the protocol; pin it here, next to the
/// parser that the conformance blocks exercise.
#[test]
fn line_numbering_counts_blanks_and_comments() {
    let mut session = Session::new(rsdc_engine::Engine::new(EngineConfig::with_shards(1)));
    let out = session.handle_lines(["", "# comment", "nope"]);
    let v: serde::Value = serde_json::from_str(&out[0]).unwrap();
    assert_eq!(v["op"], "error");
    assert_eq!(v["line"], 3);
}
