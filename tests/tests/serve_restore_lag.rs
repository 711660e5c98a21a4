//! A crafted `restore` whose lag does not match its policy is refused with
//! a typed error, and the server keeps serving.
//!
//! Two snapshots of a `lookahead:2` tenant taken after two steps are
//! tampered with: one has its `pending` slots emptied (the policy would
//! then commit states no cost is pending for), the other holds three
//! pending costs, its policy's window, in a two-slot window. Each
//! `restore` must answer an error line, leave the original tenant in
//! place, and a later connection must still be served.

use rsdc_core::prelude::Cost;
use rsdc_engine::tenant::{PendingSlot, TenantSnapshot};
use rsdc_engine::wire::Session;
use rsdc_engine::{Engine, EngineConfig, ServeConfig, Server};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

fn line(record: serde::Value) -> String {
    serde_json::to_string(&record).expect("JSON values render")
}

fn prefix() -> Vec<String> {
    vec![
        line(json!({"op": "admit", "id": "la", "m": 8, "beta": 2.0, "policy": "lookahead:2"})),
        line(json!({"op": "step", "id": "la", "load": 3.0})),
        line(json!({"op": "step", "id": "la", "load": 5.5})),
    ]
}

/// The tenant's `snapshot` reply after [`prefix`], from an in-process
/// session (the engine is deterministic, so the served tenant's is equal).
fn snapshot_reply() -> serde::Value {
    let mut lines = prefix();
    lines.push(line(json!({"op": "snapshot", "id": "la"})));
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let out = session.handle_lines(lines.iter().map(String::as_str));
    serde_json::from_str(out.last().expect("snapshot reply")).expect("JSON reply")
}

fn restore_line(reply: &serde::Value, snapshot: TenantSnapshot) -> String {
    line(json!({"op": "restore", "snapshot": snapshot.to_value(),
               "cost_model": reply["cost_model"].clone()}))
}

fn exchange(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all((lines.join("\n") + "\n").as_bytes())
        .expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    conn.read_to_string(&mut replies).expect("read");
    replies.lines().map(str::to_string).collect()
}

#[test]
fn crafted_lag_restores_are_refused_and_the_server_keeps_serving() {
    let reply = snapshot_reply();
    let snap = TenantSnapshot::from_value(&reply["snapshot"]).expect("tenant snapshot");
    assert_eq!(snap.pending.len(), 2);

    let mut emptied = snap.clone();
    emptied.pending.clear();
    // Lag consistent with the events, but three costs in a two-slot window.
    let mut overfull = snap.clone();
    overfull.pending.push(PendingSlot {
        cost: Cost::abs(1.0, 4.0),
        load: None,
    });
    overfull.events += 1;

    let session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let cfg = ServeConfig {
        max_accepts: Some(2),
        ..ServeConfig::default()
    };
    let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let reactor = std::thread::spawn(move || server.run().expect("reactor"));

    let mut lines = prefix();
    lines.push(restore_line(&reply, emptied));
    lines.push(line(json!({"op": "finish", "id": "la"})));
    lines.push(restore_line(&reply, overfull));
    lines.push(line(json!({"op": "report", "id": "la"})));
    let got = exchange(addr, &lines);
    let errors: Vec<&String> = got.iter().filter(|l| l.contains("\"error\"")).collect();
    assert_eq!(errors.len(), 2, "{got:?}");
    assert!(
        errors[0].contains("snapshot has 0 pending slots, expected events - committed = 2"),
        "{}",
        errors[0]
    );
    assert!(
        errors[1].contains("lookahead buffer exceeds window"),
        "{}",
        errors[1]
    );
    // The refused restores left the original tenant: its finish and report
    // read as in a session that never saw them.
    let mut untouched = prefix();
    untouched.push(line(json!({"op": "finish", "id": "la"})));
    untouched.push(line(json!({"op": "report", "id": "la"})));
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let want = session.handle_lines(untouched.iter().map(String::as_str));
    let kept: Vec<&String> = got.iter().filter(|l| !l.contains("\"error\"")).collect();
    assert_eq!(kept, want.iter().collect::<Vec<_>>());
    assert!(want[want.len() - 2].contains("\"op\":\"finished\""));

    let later = exchange(addr, &[line(json!({"op": "report", "id": "la"}))]);
    assert_eq!(later.len(), 1, "{later:?}");
    assert!(later[0].contains("\"events\":2"), "{}", later[0]);
    let summary = reactor.join().expect("the reactor survives");
    assert_eq!(summary.accepted, 2);
}
