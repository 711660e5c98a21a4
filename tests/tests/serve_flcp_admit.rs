//! A fractional-LCP admit whose grid cannot be built is refused with a
//! typed error, and the server keeps serving.
//!
//! The grid tracker of `flcp:k` runs over `m * k` states, so `k = 0` and
//! an `m * k` past the tenant cap are refused at admission, in the
//! object and in the short policy form. Each admit must answer an error
//! line, the `stats` after them a stats line, and a later connection must
//! still be served.

use rsdc_engine::wire::Session;
use rsdc_engine::{Engine, EngineConfig, ServeConfig, Server};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

fn line(record: serde::Value) -> String {
    serde_json::to_string(&record).expect("JSON values render")
}

fn admit(id: &str, policy: serde::Value) -> String {
    line(json!({"op": "admit", "id": id, "m": 8, "beta": 1.0, "policy": policy}))
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
fn unbuildable_flcp_admits_are_refused_and_the_server_keeps_serving() {
    let session = Session::new(Engine::new(EngineConfig::with_shards(1)));
    let cfg = ServeConfig {
        max_accepts: Some(2),
        ..ServeConfig::default()
    };
    let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let reactor = std::thread::spawn(move || server.run().expect("reactor"));

    let refused = [
        (
            admit("zero", json!({"FlcpRounded": {"k": 0, "seed": 1}})),
            "k must be at least 1",
        ),
        (
            admit(
                "wide",
                json!({"FlcpRounded": {"k": 1_073_741_824u64, "seed": 1}}),
            ),
            "flcp grid m * k = 8589934592 exceeds the cap of 65536",
        ),
        (admit("short", json!("flcp:0")), "k must be at least 1"),
        (
            admit("truncated", json!("flcp:4294967297")),
            "bad number \\\"4294967297\\\"",
        ),
    ];
    let mut lines: Vec<String> = refused.iter().map(|(l, _)| l.clone()).collect();
    lines.push(line(json!({"op": "stats"})));
    let got = exchange(addr, &lines);
    assert_eq!(got.len(), refused.len() + 1, "{got:?}");
    for (reply, (_, want)) in got.iter().zip(&refused) {
        assert!(reply.contains("\"op\":\"error\""), "{reply}");
        assert!(reply.contains(want), "{reply} lacks {want}");
    }
    assert!(got[refused.len()].contains("\"op\":\"stats\""), "{got:?}");

    let later = exchange(
        addr,
        &[
            admit("ok", json!("flcp:4,1")),
            line(json!({"op": "step", "id": "ok", "load": 3.0})),
            line(json!({"op": "report", "id": "ok"})),
        ],
    );
    assert_eq!(later.len(), 3, "{later:?}");
    assert!(later[0].contains("\"op\":\"admitted\""), "{}", later[0]);
    assert!(later[2].contains("\"events\":1"), "{}", later[2]);
    let summary = reactor.join().expect("the reactor survives");
    assert_eq!(summary.accepted, 2);
}
