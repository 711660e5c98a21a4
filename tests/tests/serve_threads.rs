//! One engine per server: however many connections are open, the process
//! runs exactly one `rsdc-shard-<i>` thread per shard of the server's
//! engine. This test is alone in its binary because it counts the
//! process's threads, and any other test building an engine would add
//! its own.

#[cfg(target_os = "linux")]
#[test]
fn open_connections_share_the_servers_shard_threads() {
    use rsdc_engine::wire::Session;
    use rsdc_engine::{Engine, EngineConfig, ServeConfig, Server, WireMode};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    fn shard_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("task list")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("rsdc-shard-"))
            .count()
    }

    const SHARDS: usize = 2;
    const CONNS: usize = 6;
    let cfg = ServeConfig {
        wire: WireMode::Auto,
        max_accepts: Some(CONNS as u64),
        ..ServeConfig::default()
    };
    let session = Session::new(Engine::new(EngineConfig::with_shards(SHARDS)));
    let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    assert_eq!(shard_threads(), SHARDS, "the engine exists once bound");
    let server = std::thread::spawn(move || server.run().expect("run"));

    // Every connection is open and answered before the threads are
    // counted.
    let conns: Vec<BufReader<TcpStream>> = (0..CONNS)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let admit = format!(r#"{{"op":"admit","id":"c{i}","m":4,"beta":2.0,"policy":"lcp"}}"#);
            writeln!(stream, "{admit}").expect("send");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            assert!(reply.contains(r#""op":"admitted""#), "{reply}");
            reader
        })
        .collect();
    assert_eq!(shard_threads(), SHARDS, "{CONNS} open connections");

    for conn in conns {
        conn.get_ref()
            .shutdown(Shutdown::Write)
            .expect("half-close");
    }
    let summary = server.join().expect("server");
    assert_eq!(
        (summary.accepted, summary.closed),
        (CONNS as u64, CONNS as u64)
    );
}
