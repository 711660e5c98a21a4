//! Served episodes: one `rsdc serve` process, one closed-loop connection.
//!
//! The client is a single thread with one slot outstanding: it writes a
//! slot's request bytes (steps plus the flush record), then reads until
//! every reply of that slot has arrived. It only writes bytes and counts
//! replies inside the window; replies are kept and checked afterwards.

use crate::gate::{self, Tally};
use crate::pin::pin_threads;
use crate::stats::BlockSteal;
use crate::workload::{push_record, Framing, Inputs, REPORT_LINE, SHARDS, STATS_LINE};
use crate::Episode;
use rsdc_engine::binwire::PREAMBLE;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A client connection that keeps every reply byte it reads.
struct Conn {
    stream: TcpStream,
    framing: Framing,
    /// Every byte received so far.
    buf: Vec<u8>,
    /// Parse cursor: replies before it have been counted.
    scan: usize,
    chunk: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream, framing: Framing) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            framing,
            buf: Vec::with_capacity(1 << 20),
            scan: 0,
            chunk: vec![0; 1 << 16],
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let n = self.stream.read(&mut self.chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-slot",
            ));
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(())
    }

    /// Read until `bytes` more raw bytes are buffered past the cursor, and
    /// step over them (the binary preamble echo).
    fn skip_raw(&mut self, bytes: usize) -> std::io::Result<()> {
        while self.buf.len() < self.scan + bytes {
            self.fill()?;
        }
        self.scan += bytes;
        Ok(())
    }

    /// Read until `count` more whole replies are buffered past the cursor.
    fn read_replies(&mut self, mut count: usize) -> std::io::Result<()> {
        while count > 0 {
            match self.next_reply_end() {
                Some(end) => {
                    self.scan = end;
                    count -= 1;
                }
                None => self.fill()?,
            }
        }
        Ok(())
    }

    /// End offset of the next complete reply after the cursor.
    fn next_reply_end(&self) -> Option<usize> {
        let rest = &self.buf[self.scan..];
        match self.framing {
            Framing::Binary => {
                if rest.len() < 8 {
                    return None;
                }
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                (rest.len() >= 8 + len).then_some(self.scan + 8 + len)
            }
            _ => rest
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| self.scan + p + 1),
        }
    }
}

/// Kills and reaps the server if the episode fails half-way.
struct ServerProc(Option<Child>);

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Half-close the connection, drain it, and wait for the server to exit.
fn close(
    mut proc: ServerProc,
    conn: &mut Conn,
    mut announce: BufReader<ChildStdout>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("closing episode: {e}");
    conn.stream.shutdown(Shutdown::Write).map_err(io)?;
    conn.stream.read_to_end(&mut Vec::new()).map_err(io)?;
    announce.read_to_string(&mut String::new()).map_err(io)?;
    let status = proc
        .0
        .take()
        .expect("server still owned")
        .wait()
        .map_err(io)?;
    if !status.success() {
        return Err(format!("server exited with {status}"));
    }
    Ok(())
}

/// A memory figure of process `pid` from its status file, in MB: `VmHWM`
/// (peak resident set) or `VmRSS` (current resident set).
pub fn status_mb(pid: &str, key: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Run one served episode: spawn the server, set up, warm up, time the
/// window, then read the final report and let the server exit. With
/// `setup_only` the episode ends after set-up: only `setup_s` and the
/// admit checks are filled in.
pub fn episode(inputs: &Inputs, setup_only: bool) -> Result<Episode, String> {
    let spec = &inputs.spec;
    let wire = match spec.framing {
        Framing::Binary => "binary",
        _ => "jsonl",
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let shards = SHARDS.to_string();

    let child = Command::new(exe)
        .args(["rsdc", "serve", "--listen", "127.0.0.1:0", "--wire", wire])
        .args(["--shards", &shards, "--max-accepts", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let mut proc = ServerProc(Some(child));
    let child = proc.0.as_mut().expect("just spawned");
    let pid = child.id().to_string();
    let mut announce = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    announce
        .read_line(&mut line)
        .map_err(|e| format!("read server announce: {e}"))?;
    let addr = line
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .ok_or_else(|| format!("no address in server announce {line:?}"))?
        .to_string();
    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut conn = Conn::new(stream, spec.framing).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| format!("episode i/o: {e}");

    // The server spawns its engine when the first bytes arrive; one
    // read-only `stats` (a round trip through every shard) makes it do
    // so, so its threads can be pinned before the admits. Set-up is timed
    // from the first admit byte written to the last admit reply: process
    // spawn and engine start are the operating system's work, and took
    // most of a few-millisecond set-up.
    let mut hello = Vec::new();
    if spec.framing == Framing::Binary {
        hello.extend_from_slice(&PREAMBLE);
    }
    push_record(spec.framing, STATS_LINE, &mut Vec::new(), &mut hello);
    conn.stream.write_all(&hello).map_err(io)?;
    if spec.framing == Framing::Binary {
        conn.skip_raw(PREAMBLE.len()).map_err(io)?;
    }
    conn.read_replies(1).map_err(io)?;
    if pin_threads(&pid) != SHARDS {
        return Err(format!(
            "could not pin the {SHARDS} shard threads of the server"
        ));
    }
    let admit_start = conn.scan;
    let t_admit = Instant::now();
    conn.stream.write_all(&inputs.admit_bytes).map_err(io)?;
    conn.read_replies(spec.tenants).map_err(io)?;
    let setup_s = t_admit.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    gate::check_admits(spec.framing, &conn.buf[admit_start..conn.scan], &mut tally);
    if setup_only {
        close(proc, &mut conn, announce)?;
        return Ok(Episode::setup(setup_s, tally));
    }

    // Warm-up, then the timed window: one slot outstanding at a time.
    let mut reply_off = Vec::with_capacity(inputs.slots() + 1);
    let mut lat_ns = Vec::with_capacity(spec.timed_slots);
    let mut window = Duration::ZERO;
    let mut steal = BlockSteal::start();
    for s in 0..inputs.slots() {
        let timed = s.checked_sub(spec.warmup_slots);
        if timed == Some(0) {
            steal = BlockSteal::start();
        } else if timed.is_some_and(|i| i % spec.block_slots == 0) {
            steal.cut();
        }
        let replies = inputs.slot_steps(s).len() + inputs.controls[s] as usize;
        reply_off.push(conn.scan);
        let t0 = Instant::now();
        conn.stream.write_all(inputs.slot_bytes(s)).map_err(io)?;
        conn.read_replies(replies).map_err(io)?;
        let dt = t0.elapsed();
        if s >= spec.warmup_slots {
            lat_ns.push(dt.as_nanos() as u64);
            window += dt;
        }
    }
    reply_off.push(conn.scan);
    steal.cut();
    let rss_mb = status_mb(&pid, "VmHWM");

    // Correctness gate over every slot's replies (the first record was
    // the one that spawned the engine, then one admit per tenant).
    let mut seq = 1 + spec.tenants;
    for s in 0..inputs.slots() {
        let bytes = &conn.buf[reply_off[s]..reply_off[s + 1]];
        gate::check_served_slot(inputs, s, seq, bytes, &mut tally);
        seq += inputs.slot_steps(s).len() + inputs.controls[s] as usize;
    }
    let timed_from = reply_off[spec.warmup_slots];
    let bytes_out = (conn.scan - timed_from) as u64;

    // Final report, then half-close: the server drains and exits.
    let mut report_bytes = Vec::new();
    push_record(
        spec.framing,
        REPORT_LINE,
        &mut Vec::new(),
        &mut report_bytes,
    );
    conn.stream.write_all(&report_bytes).map_err(io)?;
    let report_start = conn.scan;
    conn.read_replies(spec.tenants).map_err(io)?;
    let report_end = conn.scan;
    close(proc, &mut conn, announce)?;
    let report_lines = gate::reply_lines(spec.framing, &conn.buf[report_start..report_end])?;
    let ratio = gate::check_reports(inputs, inputs.slots(), &report_lines, &mut tally);

    let timed = spec.warmup_slots..inputs.slots();
    Ok(Episode {
        setup_s,
        lat_ns,
        window_s: window.as_secs_f64(),
        block_steal: steal.shares,
        steps: (inputs.step_off[timed.end] - inputs.step_off[timed.start]) as u64,
        bytes_in: (inputs.slot_off[timed.end] - inputs.slot_off[timed.start]) as u64,
        bytes_out,
        rss_mb,
        tally,
        ratio,
        ..Episode::default()
    })
}
