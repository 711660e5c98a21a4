//! `rsdc serve` and `rsdc engine` build their session from the same
//! flags: the same limits, meter and autoscale policy read back the same,
//! and a flag combination one command refuses, the other refuses with the
//! same text.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Command, Output, Stdio};

const SESSION_FLAGS: &[&str] = &[
    "--max-tenants",
    "1",
    "--rate-limit",
    "2:4",
    "--power-model",
    "linear:100:250",
    "--auto-rebalance",
    "1:4",
];

const READ_BACKS: &str = "{\"op\":\"limits\"}\n{\"op\":\"energy\"}\n{\"op\":\"autoscale\"}\n";

fn rsdc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsdc"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run rsdc")
}

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("rsdc-session-flags");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{name}-{}", std::process::id()));
    path.to_string_lossy().into_owned()
}

/// `requests` answered by `rsdc engine --events`.
fn engine_replies(flags: &[&str], requests: &str) -> Vec<String> {
    let events = scratch("events.jsonl");
    std::fs::write(&events, requests).expect("write events");
    let out = rsdc(&[&["engine", "--events", &events], flags].concat());
    let _ = std::fs::remove_file(&events);
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// `requests` answered over one connection to `rsdc serve`.
fn served_replies(flags: &[&str], requests: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsdc"))
        .args(["serve", "--listen", "127.0.0.1:0", "--max-accepts", "1"])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rsdc serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut serving = String::new();
    stdout.read_line(&mut serving).expect("readiness line");
    let addr = serving
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or_else(|| panic!("no address in {serving:?}"));
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(requests.as_bytes()).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    conn.read_to_string(&mut replies).expect("read");
    assert!(child.wait().expect("server exits").success());
    replies.lines().map(str::to_string).collect()
}

#[test]
fn serve_and_engine_read_back_the_same_session() {
    let engine = engine_replies(SESSION_FLAGS, READ_BACKS);
    let served = served_replies(SESSION_FLAGS, READ_BACKS);
    assert_eq!(engine.len(), 3, "{engine:?}");
    for (line, op) in engine.iter().zip(["limits", "energy", "autoscale"]) {
        assert!(line.contains(&format!("\"op\":\"{op}\"")), "{line}");
    }
    assert!(engine[0].contains("\"max_tenants\":1"), "{}", engine[0]);
    assert!(engine[1].contains("linear:100:250"), "{}", engine[1]);
    assert_eq!(served, engine);
}

#[test]
fn refused_flag_combinations_read_the_same_in_both_commands() {
    // (argv after the command, text the refusal must carry)
    let cases: &[(&[&str], &str)] = &[
        (
            &["--checkpoint-every", "5"],
            "--checkpoint-every requires --data-dir",
        ),
        (
            &["--wire", "carrier-pigeon"],
            "bad wire mode \"carrier-pigeon\"",
        ),
        (&["--rate-limit", "fast"], "bad --rate-limit rate \"fast\""),
        (
            &["--price", "2.0"],
            "--power-capacity/--price/--price-trace/--priced-autoscale require --power-model",
        ),
    ];
    for (flags, needle) in cases {
        for command in [
            &["engine", "--events", "/dev/null"][..],
            &["serve", "--listen", "127.0.0.1:0"],
        ] {
            let out = rsdc(&[command, flags].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{command:?} {flags:?} must fail");
            assert!(
                stderr.contains(needle),
                "{command:?} {flags:?}: {stderr:?} lacks {needle:?}"
            );
            assert!(
                out.stdout.is_empty(),
                "{command:?} {flags:?}: refused before serving"
            );
        }
    }
}
