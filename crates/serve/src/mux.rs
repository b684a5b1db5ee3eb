//! A multiplexed load-generation client for the socket frontend.
//!
//! `serve_load` needs to hold a thousand concurrent connections open
//! against the server without burning a thread per connection on the
//! *client* side either. [`run`] drives N connections through one
//! `poll(2)` loop ([`crate::sys`]), each running the HELLO → REQ/grant
//! → CLOSE session over the incremental [`wire::FrameDecoder`] — the
//! mirror image of the server's event loop.
//!
//! Two load models, the standard pair for latency benchmarking:
//!
//! * **Closed loop** ([`LoadMode::Closed`]) — each connection keeps
//!   exactly one request outstanding and issues the next on grant.
//!   Offered load adapts to service speed, so the measured throughput
//!   at large N is the *saturation* throughput, but latency hides
//!   queueing the client never generates (coordinated omission).
//! * **Open loop** ([`LoadMode::Open`]) — each connection issues
//!   requests on a fixed arrival schedule whether or not earlier ones
//!   have completed (pipelined on the connection). Offered load is
//!   independent of service speed, so tail latency includes the queue
//!   an overloaded service builds — the honest p999 under load.
//!
//! Latency is measured per request from write-buffering the `REQ` to
//! decoding its reply; replies on one connection arrive in request
//! order (the scheduler grants a connection's requests FIFO), so a
//! per-connection send-time queue pairs them without request ids. In
//! open-loop mode the clock starts at the request's *scheduled*
//! arrival instant, not the actual send: if the generator itself falls
//! behind the schedule, that lateness is charged to the measurement —
//! the standard coordinated-omission correction
//! (`docs/engine_perf.md`).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::wire::{self, OP_BUSY, OP_CLOSE, OP_ERR, OP_HELLO, OP_HELLO_OK, OP_OK, OP_REQ};

/// How request arrivals are generated; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// One outstanding request per connection; the next is issued on
    /// completion.
    Closed,
    /// Fixed arrival schedule per connection, pipelined regardless of
    /// outstanding requests.
    Open {
        /// Nanoseconds between consecutive arrivals on one connection.
        interval_ns: u64,
    },
}

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct MuxConfig {
    /// Concurrent connections to hold open.
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_conn: usize,
    /// Bytes requested per `REQ`.
    pub nbytes: u32,
    /// Arrival model.
    pub mode: LoadMode,
    /// Client id of connection 0; connection `i` registers as
    /// `first_client_id + i`.
    pub first_client_id: u32,
    /// In closed loop, whether a `BUSY` reply re-issues the request
    /// (after counting it) instead of consuming the slot.
    pub retry_backpressure: bool,
    /// Abort the run (reporting `deadline_hit`) after this long.
    pub deadline: Duration,
}

/// What a load run measured.
#[derive(Debug, Clone, Default)]
pub struct MuxReport {
    /// Per-grant latency in nanoseconds, in completion order.
    pub latencies_ns: Vec<u64>,
    /// Granted requests.
    pub grants: u64,
    /// `BUSY` rejections observed.
    pub busy: u64,
    /// Terminal `ERR` frames and dead connections.
    pub errors: u64,
    /// Granted payload bytes.
    pub bytes: u64,
    /// Wall time from first HELLO flush to last completion.
    pub wall_ns: u64,
    /// Connections that completed their full session.
    pub completed_conns: usize,
    /// Largest simultaneous outstanding-request count observed.
    pub peak_outstanding: usize,
    /// The run hit its deadline before every session finished.
    pub deadline_hit: bool,
}

struct MuxConn {
    stream: UnixStream,
    decoder: wire::FrameDecoder,
    wbuf: Vec<u8>,
    wpos: usize,
    hello_ok: bool,
    /// Requests issued so far.
    sent: usize,
    /// Requests resolved (granted or rejected-without-retry).
    resolved: usize,
    /// Send instants of outstanding requests, FIFO.
    outstanding: VecDeque<Instant>,
    /// Open loop: when the next arrival is due.
    next_due: Instant,
    /// CLOSE has been buffered; flush and drop.
    finishing: bool,
    dead: bool,
}

impl MuxConn {
    fn done(&self, total: usize) -> bool {
        self.dead || (self.finishing && self.wpos >= self.wbuf.len())
            || (self.sent >= total && self.resolved >= total && self.outstanding.is_empty())
    }

    fn buffer_frame(&mut self, op: u8, payload: &[u8]) {
        // An oversized payload cannot happen for u32-sized requests.
        let _ = wire::encode_frame(&mut self.wbuf, op, payload);
    }

    /// Flushes as much buffered output as the socket accepts.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            // Nonblocking socket: WouldBlock parks the rest for the
            // next writable readiness.
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
    }
}

/// Runs one multiplexed load session against the server at `path`.
///
/// # Errors
///
/// [`ServeError::Io`] if the initial connections cannot be established;
/// everything after that is reported in the [`MuxReport`] counters
/// rather than failing the run.
pub fn run(path: impl AsRef<Path>, config: &MuxConfig) -> Result<MuxReport, ServeError> {
    let path = path.as_ref();
    let total = config.requests_per_conn;
    let mut conns = Vec::with_capacity(config.connections);
    let start = Instant::now();
    for i in 0..config.connections {
        let stream = connect_with_retry(path)?;
        stream.set_nonblocking(true)?;
        let id = config.first_client_id + i as u32;
        let mut conn = MuxConn {
            stream,
            decoder: wire::FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            hello_ok: false,
            sent: 0,
            resolved: 0,
            outstanding: VecDeque::new(),
            next_due: start,
            finishing: false,
            dead: false,
        };
        conn.buffer_frame(OP_HELLO, &id.to_le_bytes());
        conn.flush();
        conns.push(conn);
    }

    let mut report = MuxReport::default();
    let deadline = start + config.deadline;
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let mut idx_of: Vec<usize> = Vec::with_capacity(conns.len());
    loop {
        let now = Instant::now();
        if now >= deadline {
            report.deadline_hit = true;
            break;
        }
        // Issue whatever is due, then poll on the remainder.
        for conn in &mut conns {
            pump_sends(conn, config, total, now);
        }
        let outstanding_now: usize = conns.iter().map(|c| c.outstanding.len()).sum();
        report.peak_outstanding = report.peak_outstanding.max(outstanding_now);
        fds.clear();
        idx_of.clear();
        for (i, conn) in conns.iter().enumerate() {
            if conn.dead || conn.done(total) {
                continue;
            }
            let mut events = POLLIN;
            if conn.wpos < conn.wbuf.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            idx_of.push(i);
        }
        if fds.is_empty() {
            break;
        }
        let timeout = poll_timeout(&conns, config, now, deadline);
        poll_fds(&mut fds, timeout)?;
        for (k, fd) in fds.iter().enumerate() {
            let conn = &mut conns[idx_of[k]];
            if fd.writable() {
                conn.flush();
            }
            if fd.readable() {
                read_conn(conn, config, &mut report);
            }
        }
        // Connections whose last reply just arrived say goodbye.
        for conn in &mut conns {
            if !conn.dead
                && !conn.finishing
                && conn.sent >= total
                && conn.resolved >= total
                && conn.outstanding.is_empty()
            {
                conn.buffer_frame(OP_CLOSE, &[]);
                conn.flush();
                conn.finishing = true;
            }
        }
    }
    report.wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.completed_conns = conns
        .iter()
        .filter(|c| !c.dead && c.resolved >= total)
        .count();
    report.errors += conns.iter().filter(|c| c.dead).count() as u64;
    Ok(report)
}

/// Issues every request that is due on `conn` at `now`.
fn pump_sends(conn: &mut MuxConn, config: &MuxConfig, total: usize, now: Instant) {
    if conn.dead || !conn.hello_ok || conn.finishing {
        return;
    }
    loop {
        if conn.sent >= total {
            return;
        }
        let due = match config.mode {
            LoadMode::Closed => conn.outstanding.is_empty(),
            LoadMode::Open { .. } => now >= conn.next_due,
        };
        if !due {
            return;
        }
        conn.buffer_frame(OP_REQ, &config.nbytes.to_le_bytes());
        // Open loop stamps the scheduled arrival, not the actual send:
        // generator lateness counts against the service (the
        // coordinated-omission correction — docs/engine_perf.md).
        conn.outstanding.push_back(match config.mode {
            LoadMode::Closed => Instant::now(),
            LoadMode::Open { .. } => conn.next_due,
        });
        conn.sent += 1;
        if let LoadMode::Open { interval_ns } = config.mode {
            conn.next_due += Duration::from_nanos(interval_ns);
        }
        conn.flush();
        if matches!(config.mode, LoadMode::Closed) {
            return;
        }
    }
}

/// Poll timeout: short enough to hit the next open-loop arrival, long
/// enough not to spin.
fn poll_timeout(conns: &[MuxConn], config: &MuxConfig, now: Instant, deadline: Instant) -> i32 {
    let mut cap = deadline.saturating_duration_since(now);
    if let LoadMode::Open { .. } = config.mode {
        for conn in conns {
            if conn.hello_ok && !conn.dead && !conn.finishing {
                cap = cap.min(conn.next_due.saturating_duration_since(now));
            }
        }
    }
    #[allow(clippy::cast_possible_truncation)]
    let ms = cap.as_millis().min(100) as i32;
    ms.max(1)
}

/// Drains one connection's socket and resolves decoded replies.
fn read_conn(conn: &mut MuxConn, config: &MuxConfig, report: &mut MuxReport) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        // The socket is nonblocking: WouldBlock ends the read burst.
        let n = match conn.stream.read(&mut buf) {
            Ok(0) => {
                if !conn.finishing {
                    conn.dead = true;
                }
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        };
        conn.decoder.feed(&buf[..n]);
        loop {
            match conn.decoder.next_frame() {
                Ok(Some((op, payload))) => {
                    handle_reply(conn, config, op, &payload, report);
                    if conn.dead {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if n < buf.len() {
            return;
        }
    }
}

fn handle_reply(
    conn: &mut MuxConn,
    config: &MuxConfig,
    op: u8,
    payload: &[u8],
    report: &mut MuxReport,
) {
    match op {
        OP_HELLO_OK => {
            conn.hello_ok = true;
            // The arrival schedule starts once the session is up —
            // handshake time is not the service's request latency.
            conn.next_due = Instant::now();
        }
        OP_OK => {
            if let Some(sent_at) = conn.outstanding.pop_front() {
                report
                    .latencies_ns
                    .push(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            report.grants += 1;
            report.bytes += payload.len() as u64;
            conn.resolved += 1;
        }
        OP_BUSY => {
            report.busy += 1;
            let _ = conn.outstanding.pop_front();
            if config.retry_backpressure && matches!(config.mode, LoadMode::Closed) {
                // Re-issue the same request; `sent` already counts it,
                // so the session still ends after `requests_per_conn`
                // *grants* plus however many rejections occurred.
                conn.buffer_frame(OP_REQ, &config.nbytes.to_le_bytes());
                conn.outstanding.push_back(Instant::now());
                conn.flush();
            } else {
                conn.resolved += 1;
            }
        }
        OP_ERR => {
            report.errors += 1;
            conn.dead = true;
        }
        _ => {
            report.errors += 1;
            conn.dead = true;
        }
    }
}

/// Connects with bounded retries — a burst of N connects can transiently
/// overflow the listener backlog while the event loop drains it.
fn connect_with_retry(path: &Path) -> Result<UnixStream, ServeError> {
    let mut delay = Duration::from_micros(200);
    for _ in 0..50 {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock
                        | ErrorKind::ConnectionRefused
                        | ErrorKind::ResourceBusy
                        | ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(20));
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    UnixStream::connect(path).map_err(ServeError::Io)
}
