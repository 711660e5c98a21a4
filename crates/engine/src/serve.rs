//! Multiplexed serving layer: one readiness-driven reactor, many
//! connections, one engine.
//!
//! The wire protocol (JSONL lines or CRC-framed binary, [`crate::wire`] /
//! [`crate::binwire`]) was built batch-first: a single blocking session
//! over stdin/stdout. This module is the server shape: a std-only
//! [`Server`] owning one nonblocking [`TcpListener`], N nonblocking
//! [`TcpStream`]s multiplexed over a `poll(2)` readiness shim — no async
//! runtime, no extra dependencies, structured so a future tokio-backed
//! reactor can slot in behind the same [`ServeConfig`]/[`Server`] surface
//! (the readiness loop is the only piece that would change) — and one
//! engine-backed [`Session`], built by the caller and handed to
//! [`Server::bind`], so a served engine is built like any other: durable
//! and recovered, limited, metered or autoscaled as its caller set it up.
//!
//! ## Connection lifecycle
//!
//! ```text
//!   accept ──► handshake (sniff ≤ 6 bytes, deadline-bound)
//!                │ first byte `R` (0x52)        │ anything else
//!                ▼                              ▼
//!          binary framing                  JSONL framing
//!                │  EOF / fatal framing error / shed
//!                ▼
//!           drain outbound queue ──► close
//! ```
//!
//! * **One engine per server**: a connection keeps only its framing
//!   state (`framed::Framing`: codec, pending step batch,
//!   sequence counter, I/O counters) and borrows the server's session for
//!   every feed. The reactor is single-threaded, so requests from all
//!   connections apply one at a time, in the order the reactor reads
//!   them. Tenants, the topology (`rebalance`), the logical tick, the
//!   `stats`/`report`/`wal_stats` replies and the engine's wire counters
//!   are server-wide, and tenants outlive the connection that admitted
//!   them (the admission `limits` cap bounds them). Traffic where each
//!   connection keeps to its own tenants is byte-identical to the same
//!   requests served by standalone sessions (the concurrency differential
//!   suite pins this, and pins shared tenants against one session fed the
//!   connections in turn).
//! * **Unflushed steps**: a connection's consecutive steps batch until a
//!   control request, a malformed request, the batch cap, end of stream
//!   or a shed flushes them. A connection that dies on an I/O error drops
//!   the steps it has not flushed; they were never acknowledged.
//! * **`--wire auto` preamble sniff**: the reactor buffers at most 6
//!   bytes. A first byte of `R` (0x52, [`MAGIC`]`[0]` — no JSONL request
//!   line starts with it) routes to the binary framing once all 6
//!   preamble bytes arrive; anything else routes to JSONL immediately.
//!   Forced-binary listeners also collect the 6 preamble bytes here, so
//!   the handshake deadline covers them too.
//! * **Handshake deadline**: a client that connects and stalls before the
//!   framing is decided is shed after
//!   [`ServeConfig::handshake_timeout`] with a typed sequence-0 error —
//!   it cannot hold a connection slot open forever.
//! * **Fairness**: each reactor turn visits connections in rotating
//!   round-robin order and reads at most 64 KiB (`READ_CHUNK`) per
//!   connection, so one chatty client cannot starve the rest.
//! * **Backpressure and shedding**: responses queue in a per-connection
//!   outbound buffer. While the backlog exceeds
//!   [`ServeConfig::write_buf`] the connection is marked *slow* and the
//!   reactor stops reading its input (natural TCP backpressure). If the
//!   backlog stays over the cap for [`ServeConfig::shed_timeout`], the
//!   connection is shed — admission-style, with a typed error at the
//!   next sequence number ([`SHED_SLOW_CONSUMER`]) — then given one
//!   drain window before the socket closes. The queue is bounded;
//!   the reactor never is.
//!
//! Pre-negotiation errors (handshake truncation or timeout, connection-cap
//! reject on an `auto`/`jsonl` listener) are rendered as JSONL error lines
//! at sequence 0; a forced-`binary` listener renders them as binary error
//! frames.

use crate::binwire::{Frames, MAGIC, PREAMBLE};
use crate::framed::{Codec, Core, Framing};
use crate::wire::{Lines, Reply, Session};
use rsdc_obs::{Counter, Gauge, MetricId, Registry};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Typed shed reason: the outbound queue stayed over its cap.
pub const SHED_SLOW_CONSUMER: &str = "slow-consumer";
/// Typed shed reason: the preamble sniff deadline expired.
pub const SHED_HANDSHAKE_TIMEOUT: &str = "handshake-timeout";
/// Typed shed reason: the connection cap was reached at accept.
pub const SHED_AT_CAPACITY: &str = "at-capacity";
/// Typed shed reason: the socket errored mid-stream.
pub const SHED_IO_ERROR: &str = "io-error";

/// Most input bytes one connection may deliver per reactor turn (the
/// round-robin fairness quantum).
const READ_CHUNK: usize = 64 * 1024;

/// Which framing(s) a listener accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Sniff the first bytes of each connection: `R` routes to binary,
    /// anything else to JSONL.
    Auto,
    /// JSONL only: every connection gets a [`crate::wire::LineSession`] immediately
    /// (no handshake phase).
    Jsonl,
    /// Binary only: every connection must open with the 6-byte preamble.
    Binary,
}

impl WireMode {
    /// Parse the `--wire` CLI spelling.
    pub fn parse(s: &str) -> Result<WireMode, String> {
        match s {
            "auto" => Ok(WireMode::Auto),
            "jsonl" => Ok(WireMode::Jsonl),
            "binary" => Ok(WireMode::Binary),
            other => Err(format!(
                "bad wire mode {other:?}: expected auto, jsonl or binary"
            )),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            WireMode::Auto => "auto",
            WireMode::Jsonl => "jsonl",
            WireMode::Binary => "binary",
        }
    }
}

/// Reactor configuration. `Default` is tuned for tests and small fleets;
/// the CLI overrides the knobs it exposes.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Framing negotiation mode.
    pub wire: WireMode,
    /// Maximum concurrently open connections; connection N+1 is refused
    /// with a typed sequence-0 error and counted as shed
    /// ([`SHED_AT_CAPACITY`]).
    pub max_conns: usize,
    /// Outbound queue cap per connection, in bytes. A backlog over this
    /// marks the connection slow; staying over it for
    /// [`ServeConfig::shed_timeout`] sheds it. (One reply batch may
    /// overshoot the cap — the bound is cap + one batch, never
    /// unbounded.)
    pub write_buf: usize,
    /// How long a connection may sit without a decided framing before it
    /// is shed ([`SHED_HANDSHAKE_TIMEOUT`]).
    pub handshake_timeout: Duration,
    /// How long a connection may stay slow (backlog over
    /// [`ServeConfig::write_buf`]) before it is shed
    /// ([`SHED_SLOW_CONSUMER`]). Also the drain window a closing
    /// connection gets to flush its final bytes.
    pub shed_timeout: Duration,
    /// Stop taking connections off the listener after this many accepts
    /// (capacity rejects included) and return from [`Server::run`] once
    /// every admitted connection closes. `None` serves forever.
    pub max_accepts: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            wire: WireMode::Auto,
            max_conns: 64,
            write_buf: 256 * 1024,
            handshake_timeout: Duration::from_secs(10),
            shed_timeout: Duration::from_secs(5),
            max_accepts: None,
        }
    }
}

/// Server-level metrics, on their own registry (the server's engine owns
/// an [`crate::EngineObs`]; the reactor's accept/shed/backlog accounting
/// is connection state and lives here).
pub struct ServeObs {
    registry: Registry,
    accepted: Counter,
    closed: Counter,
    shed_slow: Counter,
    shed_handshake: Counter,
    shed_capacity: Counter,
    shed_io: Counter,
    /// Connections currently open (per-connection population gauge).
    open: Gauge,
    /// Connections currently marked slow (backlog over the cap).
    slow: Gauge,
    bytes_in: Counter,
    bytes_out: Counter,
}

impl ServeObs {
    fn new() -> ServeObs {
        let registry = Registry::new(true);
        let shed = |reason: &str| {
            registry.counter(MetricId::labelled("serve_conns_shed", "reason", reason))
        };
        ServeObs {
            accepted: registry.counter(MetricId::plain("serve_conns_accepted")),
            closed: registry.counter(MetricId::plain("serve_conns_closed")),
            shed_slow: shed(SHED_SLOW_CONSUMER),
            shed_handshake: shed(SHED_HANDSHAKE_TIMEOUT),
            shed_capacity: shed(SHED_AT_CAPACITY),
            shed_io: shed(SHED_IO_ERROR),
            open: registry.gauge(MetricId::plain("serve_conns_open")),
            slow: registry.gauge(MetricId::plain("serve_conns_slow")),
            bytes_in: registry.counter(MetricId::labelled("serve_bytes", "dir", "in")),
            bytes_out: registry.counter(MetricId::labelled("serve_bytes", "dir", "out")),
            registry,
        }
    }

    /// The server's metrics registry (snapshot/exposition surface).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Connections currently open.
    pub fn open_conns(&self) -> i64 {
        self.open.value()
    }

    /// Connections currently marked slow.
    pub fn slow_conns(&self) -> i64 {
        self.slow.value()
    }

    fn count_shed(&self, reason: &'static str) {
        match reason {
            SHED_SLOW_CONSUMER => self.shed_slow.inc(),
            SHED_HANDSHAKE_TIMEOUT => self.shed_handshake.inc(),
            SHED_AT_CAPACITY => self.shed_capacity.inc(),
            _ => self.shed_io.inc(),
        }
    }

    fn shed_total(&self) -> u64 {
        self.shed_slow.value()
            + self.shed_handshake.value()
            + self.shed_capacity.value()
            + self.shed_io.value()
    }
}

/// What a finished [`Server::run`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted into the reactor.
    pub accepted: u64,
    /// Connections that ran to a clean close (EOF + drained responses).
    pub closed: u64,
    /// Connections shed (capacity reject, handshake timeout, slow
    /// consumer, or I/O error), by every reason combined.
    pub shed: u64,
    /// Raw bytes read from all connections.
    pub bytes_in: u64,
    /// Raw bytes written to all connections.
    pub bytes_out: u64,
}

// ---- poll(2) shim ----

/// Minimal readiness shim over the `poll(2)` syscall: the one OS-facing
/// seam of the reactor. A future tokio (or epoll/kqueue) backend replaces
/// exactly this module; everything above it speaks nonblocking
/// `read`/`write` plus "which fds are ready".
mod readiness {
    /// Readable.
    pub const POLLIN: i16 = 0x001;
    /// Writable.
    pub const POLLOUT: i16 = 0x004;

    /// One entry of the poll set, matching the C ABI `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        /// Raw fd (< 0 entries are ignored by the kernel).
        pub fd: i32,
        /// Requested events (`POLLIN` / `POLLOUT`).
        pub events: i16,
        /// Kernel-reported events.
        pub revents: i16,
    }

    #[cfg(unix)]
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // std already links the platform C library; declaring poll(2)
        // directly keeps the reactor dependency-free.
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Degraded portable fallback: sleep one tick and report everything
    /// ready — nonblocking sockets turn spurious readiness into
    /// `WouldBlock`, so the reactor stays correct, just less efficient.
    #[cfg(not(unix))]
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(1, 10) as u64
        ));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> i32 {
    -1
}

// ---- connection state ----

/// The codec of a served connection: sniffing while the handshake decides
/// the framing, then the JSONL or binary codec for the rest of the
/// connection.
enum ConnCodec {
    /// Handshake: buffering the first bytes (up to the whole 6-byte
    /// preamble when they route to binary). `binary` marks a forced-binary
    /// listener, which also renders pre-negotiation errors as frames.
    Sniff {
        buf: Vec<u8>,
        binary: bool,
    },
    Lines(Lines),
    Frames(Frames),
}

impl Codec for ConnCodec {
    fn decode(&mut self, bytes: &[u8], core: &mut Core, out: &mut Vec<u8>) {
        match self {
            ConnCodec::Lines(lines) => lines.decode(bytes, core, out),
            ConnCodec::Frames(frames) => frames.decode(bytes, core, out),
            ConnCodec::Sniff { buf, binary } => {
                buf.extend_from_slice(bytes);
                let binary = *binary || buf.first() == Some(&MAGIC[0]);
                if buf.is_empty() || (binary && buf.len() < PREAMBLE.len()) {
                    return;
                }
                // Decided: the chosen codec takes every byte buffered so
                // far (the binary one validates and echoes the preamble).
                let sniffed = std::mem::take(buf);
                *self = if binary {
                    ConnCodec::Frames(Frames::default())
                } else {
                    ConnCodec::Lines(Lines::default())
                };
                self.decode(&sniffed, core, out);
            }
        }
    }

    fn finish(&mut self, core: &mut Core) -> Option<(usize, String)> {
        match self {
            ConnCodec::Lines(lines) => lines.finish(core),
            ConnCodec::Frames(frames) => frames.finish(core),
            // Died mid-handshake: the truncation the binary framing
            // reports, in the listener's framing like every other
            // pre-negotiation error.
            ConnCodec::Sniff { buf, .. } => {
                let have = buf.len();
                let message = format!("handshake truncated: need 6 preamble bytes, have {have}");
                (have > 0).then_some((0, message))
            }
        }
    }

    fn encode(&mut self, reply: Reply, out: &mut Vec<u8>) {
        match self {
            ConnCodec::Lines(lines) => lines.encode(reply, out),
            ConnCodec::Frames(frames) => frames.encode(reply, out),
            // Nothing is numbered before the framing is decided: the only
            // replies are the reactor's own errors, all at sequence 0.
            ConnCodec::Sniff { binary, .. } => {
                if let Reply::Error { message, .. } = reply {
                    prenegotiation_error(*binary, &message, out);
                }
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    fd: i32,
    framing: Framing<ConnCodec>,
    /// When an undecided handshake is shed.
    handshake: Instant,
    /// Outbound queue; `outbuf[sent..]` is still unwritten.
    outbuf: Vec<u8>,
    sent: usize,
    /// When the backlog first exceeded the cap (None = not slow).
    slow_since: Option<Instant>,
    /// Input side finished (EOF, shed, or fatal error): drain until this
    /// deadline, then close.
    closing: Option<Instant>,
    /// Shed reason, when the close is a shed rather than a clean EOF.
    shed: Option<&'static str>,
    dead: bool,
}

impl Conn {
    fn backlog(&self) -> usize {
        self.outbuf.len() - self.sent
    }

    fn wants_read(&self) -> bool {
        self.closing.is_none() && self.slow_since.is_none()
    }

    /// Preamble bytes so far, while an open connection's framing is
    /// still undecided.
    fn sniffing(&self) -> Option<usize> {
        match self.framing.codec() {
            ConnCodec::Sniff { buf, .. } if self.closing.is_none() => Some(buf.len()),
            _ => None,
        }
    }
}

// ---- the server ----

/// The reactor: one nonblocking listener, N multiplexed connections, one
/// session they all drive.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    listener_fd: i32,
    local_addr: SocketAddr,
    session: Session,
    conns: Vec<Conn>,
    /// Round-robin start offset for this turn's connection sweep.
    rr: usize,
    obs: ServeObs,
    /// Connections taken off the listener, capacity rejects included
    /// (drives [`ServeConfig::max_accepts`] termination).
    taken: u64,
    scratch: Vec<u8>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and build the reactor over
    /// `session`, which every connection then shares.
    pub fn bind(session: Session, cfg: ServeConfig, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let scratch = vec![0u8; READ_CHUNK];
        Ok(Server {
            listener_fd: raw_fd(&listener),
            listener,
            local_addr,
            session,
            conns: Vec::new(),
            rr: 0,
            obs: ServeObs::new(),
            taken: 0,
            scratch,
            cfg,
        })
    }

    /// The bound address (resolves `:0` listeners).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Server-level metrics.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Unwrap the served session, e.g. to checkpoint it once
    /// [`Server::run`] has drained.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// The framing mode this server was configured with.
    pub fn wire_mode(&self) -> &'static str {
        self.cfg.wire.as_str()
    }

    /// Run the reactor until [`ServeConfig::max_accepts`] connections
    /// have been accepted **and** every connection has closed (forever
    /// when `max_accepts` is `None`).
    pub fn run(&mut self) -> std::io::Result<ServeSummary> {
        while !self.done() {
            self.turn()?;
        }
        Ok(self.summary())
    }

    /// The summary [`Server::run`] returns, computable at any point.
    pub fn summary(&self) -> ServeSummary {
        ServeSummary {
            accepted: self.obs.accepted.value(),
            closed: self.obs.closed.value(),
            shed: self.obs.shed_total(),
            bytes_in: self.obs.bytes_in.value(),
            bytes_out: self.obs.bytes_out.value(),
        }
    }

    fn done(&self) -> bool {
        match self.cfg.max_accepts {
            Some(n) => self.taken >= n && self.conns.is_empty(),
            None => false,
        }
    }

    fn accepts_remaining(&self) -> bool {
        self.cfg.max_accepts.is_none_or(|n| self.taken < n)
    }

    /// One reactor turn: poll, accept, sweep connections round-robin.
    fn turn(&mut self) -> std::io::Result<()> {
        use readiness::{PollFd, POLLIN, POLLOUT};

        let accepting = self.accepts_remaining();
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        fds.push(PollFd {
            fd: self.listener_fd,
            events: if accepting { POLLIN } else { 0 },
            revents: 0,
        });
        for conn in &self.conns {
            let mut events = 0;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.backlog() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.fd,
                events,
                revents: 0,
            });
        }
        readiness::wait(&mut fds, self.poll_timeout_ms())?;

        if accepting && fds[0].revents & POLLIN != 0 {
            self.accept_ready();
        }

        // Sweep connections starting at a rotating offset: each gets at
        // most one READ_CHUNK of input per turn, so a firehose client
        // cannot monopolize the reactor.
        let n = self.conns.len();
        if n > 0 {
            self.rr %= n;
            for i in 0..n {
                let idx = (self.rr + i) % n;
                self.service(idx);
            }
            self.rr += 1;
        }
        self.reap();
        Ok(())
    }

    /// Poll timeout: the nearest deadline among handshakes, slow-consumer
    /// sheds and drain windows, else a coarse idle tick.
    fn poll_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| {
            next = Some(match next {
                Some(cur) if cur <= t => cur,
                _ => t,
            });
        };
        for conn in &self.conns {
            if let Some(deadline) = conn.closing {
                consider(deadline);
                continue;
            }
            if conn.sniffing().is_some() {
                consider(conn.handshake);
            }
            if let Some(since) = conn.slow_since {
                consider(since + self.cfg.shed_timeout);
            }
        }
        match next {
            Some(t) => t.saturating_duration_since(now).as_millis().clamp(1, 100) as i32,
            None => 50,
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if !self.accepts_remaining() {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit_conn(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED etc.): skip.
                Err(_) => return,
            }
        }
    }

    /// Admission for a fresh socket: refuse typed at the connection cap,
    /// otherwise start the handshake (or go straight to JSONL framing).
    fn admit_conn(&mut self, stream: TcpStream) {
        self.taken += 1;
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if self.conns.len() >= self.cfg.max_conns {
            // Admission reject: typed, sequence-0, best-effort write —
            // the socket never enters the reactor. Short writes retry
            // (with one brief WouldBlock grace) so the tiny reject is
            // not silently truncated, but the reactor never stalls on
            // an unwritable peer.
            let message = format!(
                "connection rejected: server is at its cap of {} connections",
                self.cfg.max_conns
            );
            let mut bytes = Vec::new();
            prenegotiation_error(self.cfg.wire == WireMode::Binary, &message, &mut bytes);
            let mut stream = stream;
            let mut sent = 0;
            let mut waited = false;
            while sent < bytes.len() {
                match stream.write(&bytes[sent..]) {
                    Ok(0) => break,
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock && !waited => {
                        waited = true;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            self.obs.count_shed(SHED_AT_CAPACITY);
            return;
        }
        self.obs.accepted.inc();
        self.obs.open.inc();
        let codec = match self.cfg.wire {
            WireMode::Jsonl => ConnCodec::Lines(Lines::default()),
            mode => ConnCodec::Sniff {
                buf: Vec::with_capacity(PREAMBLE.len()),
                binary: mode == WireMode::Binary,
            },
        };
        self.conns.push(Conn {
            fd: raw_fd(&stream),
            stream,
            framing: Framing::new(codec),
            handshake: Instant::now() + self.cfg.handshake_timeout,
            outbuf: Vec::new(),
            sent: 0,
            slow_since: None,
            closing: None,
            shed: None,
            dead: false,
        });
    }

    /// Service one connection for this turn: flush writes, read one
    /// quantum, feed the framing, re-flush, then apply backpressure and
    /// deadline state transitions.
    fn service(&mut self, idx: usize) {
        let now = Instant::now();
        let drain_by = now + self.cfg.shed_timeout;
        self.flush_writes(idx);

        // Read one fairness quantum and feed the framing layer.
        let conn = &mut self.conns[idx];
        if conn.wants_read() && !conn.dead {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => conn.framing.finish(&mut self.session, &mut conn.outbuf),
                Ok(n) => {
                    self.obs.bytes_in.add(n as u64);
                    let bytes = &self.scratch[..n];
                    conn.framing
                        .feed(&mut self.session, bytes, &mut conn.outbuf);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // Steps this connection queued but never flushed were
                    // never acknowledged; they go with it.
                    conn.shed = Some(SHED_IO_ERROR);
                    conn.dead = true;
                }
            }
            // End of stream, or a fatal framing error (bad preamble,
            // oversize frame, overlong line) whose typed error the framing
            // already rendered: close once drained, so a connection born
            // dead cannot pin its slot until the peer half-closes.
            if conn.framing.is_dead() {
                conn.closing = Some(drain_by);
            }
            self.flush_writes(idx);
        }

        // Backpressure: mark/unmark slow by backlog against the cap.
        let over = self.conns[idx].backlog() > self.cfg.write_buf;
        let conn = &mut self.conns[idx];
        match (over, conn.slow_since) {
            (true, None) if conn.closing.is_none() => {
                conn.slow_since = Some(now);
                self.obs.slow.inc();
            }
            (false, Some(_)) => {
                conn.slow_since = None;
                self.obs.slow.dec();
            }
            _ => {}
        }

        // Deadlines of an open connection: handshake, slow-consumer shed.
        if let Some(have) = conn.sniffing().filter(|_| now >= conn.handshake) {
            let message =
                format!("handshake timeout: framing undecided after {have} preamble byte(s)");
            self.shed_conn(idx, SHED_HANDSHAKE_TIMEOUT, &message, drain_by);
        } else if conn.closing.is_none()
            && conn
                .slow_since
                .is_some_and(|since| now >= since + self.cfg.shed_timeout)
        {
            let message = format!(
                "connection shed: outbound queue held over {} bytes past the \
                 slow-consumer deadline",
                self.cfg.write_buf
            );
            self.shed_conn(idx, SHED_SLOW_CONSUMER, &message, drain_by);
        }

        // Close once drained, or once the drain window expires: stop
        // waiting on a peer that will not read.
        let conn = &mut self.conns[idx];
        if conn
            .closing
            .is_some_and(|deadline| now >= deadline || conn.backlog() == 0)
        {
            conn.dead = true;
        }
    }

    /// Shed `idx`: typed error at the next sequence number, then a
    /// drain window until `drain_by`.
    fn shed_conn(&mut self, idx: usize, reason: &'static str, message: &str, drain_by: Instant) {
        let conn = &mut self.conns[idx];
        conn.framing
            .shed(&mut self.session, message, &mut conn.outbuf);
        conn.shed = Some(reason);
        conn.closing = Some(drain_by);
        self.flush_writes(idx);
    }

    /// Write as much of the outbound queue as the socket accepts.
    fn flush_writes(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        while conn.sent < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.sent..]) {
                Ok(n) if n > 0 => {
                    conn.sent += n;
                    self.obs.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A zero-length write or a hard error: the peer is gone.
                _ => {
                    conn.shed = conn.shed.or(Some(SHED_IO_ERROR));
                    conn.dead = true;
                    break;
                }
            }
        }
        // Compact the queue once it is fully written (keeps the
        // allocation, drops the dead prefix).
        if conn.sent == conn.outbuf.len() && conn.sent > 0 {
            conn.outbuf.clear();
            conn.sent = 0;
        }
    }

    /// Remove dead connections and settle their accounting.
    fn reap(&mut self) {
        let obs = &self.obs;
        self.conns.retain_mut(|conn| {
            if !conn.dead {
                return true;
            }
            if conn.slow_since.take().is_some() {
                obs.slow.dec();
            }
            match conn.shed {
                Some(reason) => obs.count_shed(reason),
                None => obs.closed.inc(),
            }
            obs.open.dec();
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            false
        });
    }
}

/// Render a pre-negotiation error (no framing decided) at sequence 0, as
/// the codec of the listener's framing encodes it: a JSONL error line, or
/// a binary error frame on a forced-`binary` listener, where the client
/// expects frames.
fn prenegotiation_error(binary: bool, message: &str, out: &mut Vec<u8>) {
    let reply = Reply::Error {
        seq: 0,
        id: None,
        message: message.to_string(),
    };
    if binary {
        Frames::default().encode(reply, out);
    } else {
        Lines::default().encode(reply, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
        let session = Session::new(crate::Engine::new(crate::EngineConfig::with_shards(1)));
        let mut server = Server::bind(session, cfg, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().expect("run"));
        (addr, handle)
    }

    #[test]
    fn serves_one_jsonl_connection() {
        let cfg = ServeConfig {
            max_accepts: Some(1),
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(
                b"{\"op\":\"admit\",\"id\":\"a\",\"m\":4,\"beta\":2.0,\"policy\":\"lcp\"}\n\
                  {\"op\":\"step\",\"id\":\"a\",\"load\":1.0}\n",
            )
            .expect("send");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut got = String::new();
        client.read_to_string(&mut got).expect("read");
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(lines.len(), 2, "{got:?}");
        assert!(lines[0].contains("admitted"));
        assert!(lines[1].contains("stepped"));
        let summary = handle.join().expect("join");
        assert_eq!((summary.accepted, summary.closed, summary.shed), (1, 1, 0));
    }

    #[test]
    fn handshake_deadline_sheds_a_stalled_preamble() {
        let cfg = ServeConfig {
            max_accepts: Some(1),
            handshake_timeout: Duration::from_millis(80),
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut client = TcpStream::connect(addr).expect("connect");
        // Three preamble bytes, then stall: the reactor must not hang.
        client.write_all(&MAGIC[..3]).expect("send");
        let mut got = String::new();
        client.read_to_string(&mut got).expect("read to EOF");
        assert!(
            got.contains("handshake timeout") && got.contains("\"line\":0"),
            "typed sequence-0 error expected, got {got:?}"
        );
        let summary = handle.join().expect("join");
        assert_eq!(summary.shed, 1, "stalled handshake counted as shed");
        assert_eq!(summary.closed, 0);
    }

    #[test]
    fn garbage_preamble_closes_the_connection_without_client_eof() {
        let cfg = ServeConfig {
            max_accepts: Some(1),
            wire: WireMode::Binary,
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // A full garbage preamble on a forced-binary listener kills the
        // fresh session; the server must answer its seq-0 error frame
        // and close on its own — the client never half-closes.
        client.write_all(b"NOTBINARY").expect("send");
        let mut got = Vec::new();
        client.read_to_end(&mut got).expect("server closes first");
        assert!(!got.is_empty(), "typed error frame expected");
        let summary = handle.join().expect("join");
        assert_eq!((summary.accepted, summary.closed), (1, 1));
    }

    #[test]
    fn unterminated_line_over_the_cap_is_refused_typed() {
        use crate::wire::MAX_LINE_LEN;
        let cfg = ServeConfig {
            max_accepts: Some(1),
            wire: WireMode::Jsonl,
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // One newline-free byte over the cap: the line framing must
        // refuse it with a typed line-1 error and close, rather than
        // buffer without bound.
        let chunk = vec![b'x'; 64 * 1024];
        let mut remaining = MAX_LINE_LEN + 1;
        while remaining > 0 {
            let n = remaining.min(chunk.len());
            client.write_all(&chunk[..n]).expect("send");
            remaining -= n;
        }
        let mut got = String::new();
        client
            .read_to_string(&mut got)
            .expect("server closes first");
        assert!(
            got.contains("exceeds cap") && got.contains("\"line\":1"),
            "typed overlong-line error expected, got {got:?}"
        );
        let summary = handle.join().expect("join");
        assert_eq!((summary.accepted, summary.closed), (1, 1));
    }

    #[test]
    fn capacity_reject_is_typed_and_the_fleet_survives() {
        let cfg = ServeConfig {
            max_accepts: Some(2),
            max_conns: 1,
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut first = TcpStream::connect(addr).expect("connect");
        first.write_all(b"# hold the slot\n").expect("send");
        // Wait until the first connection holds the only slot.
        std::thread::sleep(Duration::from_millis(100));
        let mut second = TcpStream::connect(addr).expect("connect");
        let mut got = String::new();
        second.read_to_string(&mut got).expect("read");
        assert!(
            got.contains("rejected") && got.contains("cap of 1"),
            "typed capacity reject expected, got {got:?}"
        );
        first
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = String::new();
        first.read_to_string(&mut rest).expect("read");
        let summary = handle.join().expect("join");
        assert_eq!((summary.closed, summary.shed), (1, 1));
    }

    #[test]
    fn shed_reader_that_never_reads_is_closed_after_one_drain_window() {
        let shed_timeout = Duration::from_millis(150);
        let cfg = ServeConfig {
            max_accepts: Some(1),
            write_buf: 1024,
            shed_timeout,
            ..ServeConfig::default()
        };
        let (addr, handle) = spawn_server(cfg);
        let mut client = TcpStream::connect(addr).expect("connect");
        // Small requests, multi-megabyte replies: the backlog outgrows
        // every socket buffer and stays over the cap, since this client
        // never reads.
        let mut request = String::new();
        for i in 0..64 {
            request += &format!(
                "{{\"op\":\"admit\",\"id\":\"w{i}\",\"m\":8,\"beta\":2.0,\"policy\":\"lcp\"}}\n"
            );
        }
        for _ in 0..3000 {
            request += "{\"op\":\"report\"}\n";
        }
        client.write_all(request.as_bytes()).expect("send");
        // Shed at slow-mark + timeout, closed one drain window later: the
        // shed must not restart the drain window on every turn.
        let deadline = Instant::now() + Duration::from_secs(20);
        while !handle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "a shed connection whose peer never reads must still close"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let summary = handle.join().expect("join");
        assert_eq!((summary.closed, summary.shed), (0, 1));
        drop(client);
    }
}
