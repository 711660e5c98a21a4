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
fn serve_metrics_dump_carries_the_server_registry() {
    let dump = scratch("serve-metrics.prom");
    let replies = served_replies(
        &["--metrics-dump", &dump],
        "{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\"}\n\
         {\"op\":\"step\",\"id\":\"a\",\"load\":1.0}\n",
    );
    assert_eq!(replies.len(), 2, "{replies:?}");
    let prom = std::fs::read_to_string(&dump).expect("metrics dump");
    let _ = std::fs::remove_file(&dump);
    for line in [
        "engine_events_ingested 1",
        "serve_conns_accepted 1",
        "serve_conns_closed 1",
    ] {
        assert!(prom.lines().any(|l| l == line), "{line:?} not in {prom}");
    }
}

#[test]
fn unbuildable_flcp_admits_answer_errors_in_both_commands() {
    // The grid tracker has m * k states: k = 0 and an m * k past the
    // tenant cap are typed errors, and both commands go on to the stats.
    let requests = concat!(
        r#"{"op":"admit","id":"a","m":8,"beta":1.0,"policy":{"FlcpRounded":{"k":0,"seed":1}}}"#,
        "\n",
        r#"{"op":"admit","id":"b","m":8,"beta":1.0,"policy":{"FlcpRounded":{"k":1073741824,"seed":1}}}"#,
        "\n",
        r#"{"op":"admit","id":"c","m":8,"beta":1.0,"policy":"flcp:0"}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
    );
    let engine = engine_replies(&[], requests);
    assert_eq!(engine.len(), 4, "{engine:?}");
    for reply in &engine[..3] {
        assert!(reply.contains(r#""op":"error""#), "{reply}");
    }
    assert!(engine[1].contains("exceeds the cap"), "{}", engine[1]);
    assert!(engine[3].contains(r#""op":"stats""#), "{}", engine[3]);
    assert_eq!(served_replies(&[], requests), engine);
}

#[test]
fn oversized_lookahead_windows_answer_errors_in_both_commands() {
    // A window past the cap of 1024 would never commit: its tenant's
    // pending costs would grow with the stream. Both commands refuse the
    // admit with a line-numbered error and go on serving.
    let requests = concat!(
        r#"{"op":"admit","id":"a","m":16,"beta":1.0,"policy":"lookahead:1000000000"}"#,
        "\n",
        r#"{"op":"admit","id":"b","m":16,"beta":1.0,"policy":{"Lookahead":{"window":1025}}}"#,
        "\n",
        r#"{"op":"admit","id":"c","m":16,"beta":1.0,"policy":"lookahead:1024"}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
    );
    let engine = engine_replies(&[], requests);
    assert_eq!(engine.len(), 4, "{engine:?}");
    for (line, reply) in engine[..2].iter().enumerate() {
        assert!(reply.contains(r#""op":"error""#), "{reply}");
        assert!(
            reply.contains(&format!(r#""line":{}"#, line + 1)),
            "{reply}"
        );
        assert!(reply.contains("exceeds the cap of 1024"), "{reply}");
    }
    assert!(engine[2].contains(r#""op":"admitted""#), "{}", engine[2]);
    assert!(engine[3].contains(r#""op":"stats""#), "{}", engine[3]);
    assert_eq!(served_replies(&[], requests), engine);
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

#[test]
fn options_a_command_does_not_read_are_refused_before_it_runs() {
    let store = scratch("data-dri");
    let out_file = scratch("unread-out.json");
    // (argv, the refused option) — one row per command, each with an
    // option another command reads or a typo of one.
    let cases: &[(&[&str], &str)] = &[
        (
            &["engine", "--events", "/dev/null", "--data-dri", &store],
            "data-dri",
        ),
        (
            &[
                "generate", "--kind", "diurnal", "--slots", "5", "--polcy", "x",
            ],
            "polcy",
        ),
        (
            &[
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--max-accepts",
                "0",
                "--out",
                &out_file,
            ],
            "out",
        ),
        (
            &["serve", "--listen", "127.0.0.1:0", "--events", "/dev/null"],
            "events",
        ),
        (&["solve", "--trace", "/dev/null", "--quiet"], "quiet"),
        (
            &["online", "--trace", "/dev/null", "--shards", "2"],
            "shards",
        ),
        (
            &["simulate", "--trace", "/dev/null", "--out", &out_file],
            "out",
        ),
        (
            &["analyze", "--trace", "/dev/null", "--algorithm", "dp"],
            "algorithm",
        ),
        (&["scenario", "list", "--fast"], "fast"),
    ];
    for (argv, key) in cases {
        let out = rsdc(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let needle = format!("rsdc {} does not take --{key}", argv[0]);
        assert!(!out.status.success(), "{argv:?} must fail");
        assert!(
            stderr.contains(&needle),
            "{argv:?}: {stderr:?} lacks {needle:?}"
        );
        assert!(out.stdout.is_empty(), "{argv:?}: refused before it ran");
    }
    assert!(
        !std::path::Path::new(&store).exists(),
        "no store was opened"
    );
    assert!(
        !std::path::Path::new(&out_file).exists(),
        "nothing was written"
    );

    // Help takes anything; a command's own options still pass.
    for argv in [&["--help"][..], &["help"]] {
        let out = rsdc(argv);
        assert!(out.status.success(), "{argv:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("rsdc"));
    }
    let out = rsdc(&[
        "engine",
        "--events",
        "/dev/null",
        "--no-metrics",
        "--shards",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");
}
