//! Kill points of a durable `rsdc serve`.
//!
//! Two clients stream disjoint tenants, one request at a time, each
//! waiting for its reply before sending the next. At a seeded
//! acknowledged reply the client that received it SIGKILLs the server,
//! which is then restarted on the same data directory. Every tenant's
//! recovered `report` must equal, byte for byte, the report of an
//! in-process session fed that tenant's acknowledged requests. The other
//! client may have had one request in flight at the kill, so its tenants
//! may instead match the acknowledged requests plus that one. With a
//! lazier `--fsync-every` every tenant must match some prefix of its
//! stream. The restarted server is drained, so its final checkpoint is
//! pinned too.

use rsdc_engine::wire::{step_load_line, Session};
use rsdc_engine::{Engine, EngineConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const CLIENTS: usize = 2;
const POLICIES: [&str; 3] = ["lcp", "flcp:2,7", "halfstep:11"];
const STEPS: usize = 12;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tenant(client: usize, k: usize) -> String {
    format!("c{client}-t{k}")
}

fn report_request(id: &str) -> String {
    format!(r#"{{"op":"report","id":"{id}"}}"#)
}

/// One client's stream of `(tenant index, request line)`: the admits of
/// its tenants, then seeded steps spread over them.
fn stream(client: usize, seed: u64) -> Vec<(usize, String)> {
    let mut rng = seed ^ (client as u64 + 1).wrapping_mul(0x51_7cc1_b727_220a);
    let mut out: Vec<(usize, String)> = POLICIES
        .iter()
        .enumerate()
        .map(|(k, policy)| {
            let id = tenant(client, k);
            let admit = format!(
                r#"{{"op":"admit","id":"{id}","m":8,"beta":4.0,"policy":"{policy}","track_opt":true}}"#
            );
            (k, admit)
        })
        .collect();
    for _ in 0..STEPS * POLICIES.len() {
        let k = splitmix(&mut rng) as usize % POLICIES.len();
        let load = (splitmix(&mut rng) % 800) as f64 / 100.0;
        out.push((k, step_load_line(&tenant(client, k), load)));
    }
    out
}

/// The report line of tenant `id` after each prefix of its requests:
/// entry `n` follows the first `n` requests (`None` before its admit).
fn reference_reports(id: &str, requests: &[&str]) -> Vec<Option<String>> {
    let mut session = Session::new(Engine::new(EngineConfig::with_shards(2)));
    let mut out = vec![None];
    for request in requests {
        let replies = session.handle_lines([*request, report_request(id).as_str()]);
        out.push(replies.last().cloned());
    }
    out
}

struct Server {
    child: Arc<Mutex<Child>>,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn start(dir: &Path, fsync_every: u64, max_accepts: &str) -> Server {
    let child = Command::new(env!("CARGO_BIN_EXE_rsdc"))
        .args(["serve", "--listen", "127.0.0.1:0", "--shards", "2"])
        .args(["--max-accepts", max_accepts, "--fsync-every"])
        .arg(fsync_every.to_string())
        .arg("--data-dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rsdc serve");
    let child = Arc::new(Mutex::new(child));
    let stdout = child.lock().unwrap().stdout.take().expect("piped stdout");
    let mut server = Server {
        child,
        stdout: BufReader::new(stdout),
        addr: String::new(),
    };
    let serving = server.line();
    assert!(serving.contains(r#""op":"serving""#), "{serving:?}");
    server.addr = serving
        .split(r#""addr":""#)
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("address in the readiness line")
        .to_string();
    server
}

impl Server {
    fn line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("server stdout");
        line
    }
}

/// What one client got through before the kill.
struct Outcome {
    /// Requests acknowledged, in stream order.
    acked: usize,
    /// Whether request `acked` was sent (wholly or partly) unanswered.
    in_flight: bool,
}

/// Stream `requests` one at a time; the client whose acknowledgement is
/// number `kill_at` across both clients kills the server. A step is
/// followed by a `report` of its tenant, which flushes the connection's
/// step batch, so every request is answered before the next is sent.
fn client(
    addr: &str,
    c: usize,
    requests: &[(usize, String)],
    acks: &AtomicUsize,
    kill_at: usize,
    server: &Mutex<Child>,
) -> Outcome {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (acked, (k, line)) in requests.iter().enumerate() {
        let (bytes, replies) = if line.contains(r#""op":"step""#) {
            let flush = report_request(&tenant(c, *k));
            (format!("{line}\n{flush}\n"), 2)
        } else {
            (format!("{line}\n"), 1)
        };
        let died = Outcome {
            acked,
            in_flight: true,
        };
        if writer.write_all(bytes.as_bytes()).is_err() {
            return died;
        }
        for _ in 0..replies {
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(n) if n > 0 && reply.ends_with('\n') => {
                    assert!(!reply.contains(r#""op":"error""#), "{reply}");
                }
                _ => return died,
            }
        }
        if acks.fetch_add(1, Ordering::SeqCst) + 1 == kill_at {
            server.lock().unwrap().kill().expect("SIGKILL the server");
            return Outcome {
                acked: acked + 1,
                in_flight: false,
            };
        }
    }
    Outcome {
        acked: requests.len(),
        in_flight: false,
    }
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rsdc-serve-kill-points")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One kill point: stream until the `kill_at`-th acknowledgement, kill,
/// restart, and check every tenant's recovered report; `exact` holds the
/// report to the acknowledged requests (plus one in flight), otherwise
/// any prefix of the tenant's stream passes.
fn kill_point(seed: u64, fsync_every: u64, exact: bool) {
    let streams: Vec<Vec<(usize, String)>> = (0..CLIENTS).map(|c| stream(c, seed)).collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut rng = seed;
    let kill_at = 1 + (splitmix(&mut rng) as usize % total);
    let dir = data_dir(&format!("{seed}-{fsync_every}"));

    let server = start(&dir, fsync_every, "1000");
    let acks = AtomicUsize::new(0);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, requests)| {
                let (addr, acks, child) = (&server.addr, &acks, &*server.child);
                scope.spawn(move || client(addr, c, requests, acks, kill_at, child))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        acks.load(Ordering::SeqCst) >= kill_at,
        "seed {seed}: the streams ended before kill point {kill_at}"
    );
    drop(server);

    let mut server = start(&dir, fsync_every, "1");
    let recovered = server.line();
    assert!(recovered.contains(r#""op":"recovered""#), "{recovered:?}");
    let mut conn = TcpStream::connect(&server.addr).expect("connect");
    let ids: Vec<(usize, usize)> = (0..CLIENTS)
        .flat_map(|c| (0..POLICIES.len()).map(move |k| (c, k)))
        .collect();
    let request: String = ids
        .iter()
        .map(|&(c, k)| report_request(&tenant(c, k)) + "\n")
        .collect();
    conn.write_all(request.as_bytes()).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut replies = String::new();
    conn.read_to_string(&mut replies).expect("read");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), ids.len(), "{replies:?}");

    for (&(c, k), got) in ids.iter().zip(&replies) {
        let id = tenant(c, k);
        let own: Vec<&str> = streams[c]
            .iter()
            .filter(|(t, _)| *t == k)
            .map(|(_, line)| line.as_str())
            .collect();
        let reports = reference_reports(&id, &own);
        let got = Some(got.to_string()).filter(|l| !l.contains(r#""op":"error""#));
        let matched: Vec<usize> = (0..reports.len()).filter(|&n| reports[n] == got).collect();
        let mine = |n: usize| streams[c][..n].iter().filter(|(t, _)| *t == k).count();
        let Outcome { acked, in_flight } = outcomes[c];
        let allowed: Vec<usize> = if exact {
            let mut allowed = vec![mine(acked)];
            if in_flight {
                allowed.push(mine(acked + 1));
            }
            allowed
        } else {
            (0..reports.len()).collect()
        };
        assert!(
            matched.iter().any(|n| allowed.contains(n)),
            "seed {seed}, fsync-every {fsync_every}, kill at {kill_at}: tenant {id} \
             recovered {got:?}, which matches prefixes {matched:?} of its stream, \
             not one of {allowed:?}"
        );
    }

    // The drained server checkpoints before it reports its summary.
    let rest: Vec<String> = (0..2).map(|_| server.line()).collect();
    assert!(rest[0].contains(r#""op":"checkpointed""#), "{rest:?}");
    assert!(rest[1].contains(r#""op":"served""#), "{rest:?}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_every_one_recovers_each_tenants_acknowledged_requests() {
    for seed in [3, 17, 40] {
        kill_point(seed, 1, true);
    }
}

#[test]
fn fsync_every_32_recovers_a_prefix_of_each_tenants_stream() {
    for seed in [5, 23] {
        kill_point(seed, 32, false);
    }
}
