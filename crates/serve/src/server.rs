//! The Unix-domain-socket frontend: a readiness-driven event loop.
//!
//! One thread multiplexes every connection through `poll(2)`
//! ([`crate::sys`]): the listener, a wake channel fed by the
//! scheduler's [`CompletionQueue`], and a per-connection read/write
//! state machine over the incremental [`wire::FrameDecoder`]. There is
//! no thread per connection (simlint rule SL110 forbids one), so a
//! thousand idle clients cost a thousand descriptors and nothing else —
//! and the old failure mode where a connection-thread spawn failure
//! silently dropped the peer is gone: accept and register failures are
//! typed, counted in [`ServerStats`], and answered with an `ERR` frame
//! when a peer exists to hear it.
//!
//! Request flow: a `REQ` frame is submitted to the scheduler with
//! [`EntropyClient::request_queued`] under a token carrying the
//! connection's slot and generation. The grant comes back through the
//! completion queue; a wake byte makes `poll` return; the reply frame
//! is buffered on the connection and drained as the socket reports
//! writable. A completion for a connection that died in the meantime
//! carries a stale generation and is dropped.
//!
//! Liveness discipline (SL108): every socket here is nonblocking; reads
//! return `WouldBlock` instead of parking the loop, and the poll
//! timeout bounds the latency of a shutdown-flag check.
//!
//! ## Hardening
//!
//! Three defenses keep one bad peer from degrading the loop for
//! everyone else ([`ServerOptions`] tunes them):
//!
//! * **Error budget** — a decodable but invalid frame (unknown opcode,
//!   malformed payload, protocol-order violation) is answered with a
//!   typed `ERR` frame and *charged* against the connection's strike
//!   budget; the connection survives until the budget is spent.
//!   Unrecoverable framing (an oversized length prefix) still closes
//!   immediately — past that point the byte stream cannot be re-synced.
//! * **Idle reaping** — a connection with no outstanding request, no
//!   buffered reply and no frame activity for [`ServerOptions::idle_timeout`]
//!   is closed and counted in [`ServerStats::idle_reaped`]; a slowloris
//!   peer holds a descriptor only until the reaper's next pass.
//! * **Graceful drain** — [`UdsServer::shutdown_graceful`] walks the
//!   shutdown state machine: stop accepting, deliver every in-flight
//!   grant, flush write buffers, then close sockets and join — bounded
//!   by a deadline so a wedged peer cannot hold shutdown hostage.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use strentropy::pool::EntropyEstimate;

use crate::error::ServeError;
use crate::pool::SourceStatus;
use crate::scheduler::{CompletionQueue, Connector, EntropyClient};
use crate::supervisor::Deadline;
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::wire::{
    self, FrameDecoder, OP_BUSY, OP_CLOSE, OP_ERR, OP_HELLO, OP_HELLO_OK, OP_OK,
    OP_RATE_LIMITED, OP_REQ, OP_SHEDDING,
};

/// Poll timeout — the upper bound on how long a shutdown request waits
/// for the loop to notice it.
const POLL_TIMEOUT_MS: i32 = 100;

/// Read timeout for [`UdsClient`] replies.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(150);

/// Per-read scratch size; one `read` drains at most this many bytes
/// before the loop moves on to the next ready descriptor.
const READ_CHUNK: usize = 16 * 1024;

/// Connections the loop accepts before parking the listener (far below
/// the descriptor limit, far above the 1024-client acceptance drill).
const MAX_CONNS: usize = 16 * 1024;

/// Monotone counters of the socket frontend, shared with the event
/// loop. Accept/register failures are *counted*, never silently
/// swallowed — the fix for the old spawn-failure connection drop.
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    accept_errors: AtomicU64,
    register_errors: AtomicU64,
    protocol_errors: AtomicU64,
    active: AtomicU64,
    idle_reaped: AtomicU64,
    wake_full: AtomicU64,
    wake_errors: AtomicU64,
    /// Pool slots whose online entropy estimate has a verdict (the
    /// rest are still filling their sliding windows — the estimator's
    /// typed `InsufficientData` case, counted as unknown, not as zero).
    entropy_known: AtomicU64,
    /// Slots whose published estimate sits below the demotion
    /// threshold (the pool's weighted consumption throttles them).
    entropy_demoted: AtomicU64,
    /// Lowest published estimate, in millibits per bit (0 when no slot
    /// has a verdict yet — check [`ServerStats::entropy_known`]).
    entropy_min_millibits: AtomicU64,
}

impl ServerStats {
    /// Connections accepted over the server's lifetime.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// `accept(2)` failures (descriptor exhaustion, aborted peers).
    #[must_use]
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// `HELLO` registrations the scheduler refused (duplicate id,
    /// shutdown) — each one also answered with a typed `ERR` frame.
    #[must_use]
    pub fn register_errors(&self) -> u64 {
        self.register_errors.load(Ordering::Relaxed)
    }

    /// Malformed frames and protocol-order violations.
    #[must_use]
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Idle connections reaped by [`ServerOptions::idle_timeout`] —
    /// each one had no outstanding request and no frame activity for
    /// the full timeout (the slowloris defense).
    #[must_use]
    pub fn idle_reaped(&self) -> u64 {
        self.idle_reaped.load(Ordering::Relaxed)
    }

    /// Wake-pipe writes absorbed because the pipe was already full —
    /// benign under level-triggered polling (at least one unread byte
    /// already guarantees the next `poll` returns), mirrored from the
    /// [`CompletionQueue`] so operators see EAGAIN pressure.
    #[must_use]
    pub fn wake_full(&self) -> u64 {
        self.wake_full.load(Ordering::Relaxed)
    }

    /// Wake-pipe writes that failed with a real error (not
    /// full-pipe EAGAIN); completions still land because the loop
    /// drains the queue unconditionally every tick.
    #[must_use]
    pub fn wake_errors(&self) -> u64 {
        self.wake_errors.load(Ordering::Relaxed)
    }

    /// Pool slots with a published entropy verdict at the last
    /// [`ServerStats::publish_entropy`] refresh.
    #[must_use]
    pub fn entropy_known(&self) -> u64 {
        self.entropy_known.load(Ordering::Relaxed)
    }

    /// Slots below the demotion threshold at the last refresh.
    #[must_use]
    pub fn entropy_demoted(&self) -> u64 {
        self.entropy_demoted.load(Ordering::Relaxed)
    }

    /// Lowest published estimate at the last refresh, millibits per
    /// bit; 0 with [`ServerStats::entropy_known`] = 0 means "no
    /// verdict yet", not a dead source.
    #[must_use]
    pub fn entropy_min_millibits(&self) -> u64 {
        self.entropy_min_millibits.load(Ordering::Relaxed)
    }

    /// Publishes the per-source entropy estimates (one
    /// [`SourceStatus`] per pool slot, e.g. from [`Connector::status`])
    /// into the gauge set operators scrape. Slots without a verdict —
    /// short windows, the estimator's typed `InsufficientData` case —
    /// count as *unknown*, never as demoted or zero-entropy.
    pub fn publish_entropy(&self, statuses: &[SourceStatus], threshold: EntropyEstimate) {
        let mut known = 0u64;
        let mut demoted = 0u64;
        let mut min: Option<EntropyEstimate> = None;
        for status in statuses {
            let Some(estimate) = status.entropy else {
                continue;
            };
            known += 1;
            if estimate < threshold {
                demoted += 1;
            }
            min = Some(min.map_or(estimate, |m| m.min(estimate)));
        }
        self.entropy_known.store(known, Ordering::Relaxed);
        self.entropy_demoted.store(demoted, Ordering::Relaxed);
        self.entropy_min_millibits
            .store(min.map_or(0, |m| u64::from(m.millibits())), Ordering::Relaxed);
    }
}

/// Tunables of the socket frontend's hardening layer.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Close a connection with no outstanding request and no frame
    /// activity for this long (`None` disables the reaper). Reaped
    /// connections are counted in [`ServerStats::idle_reaped`].
    pub idle_timeout: Option<Duration>,
    /// Decodable-but-invalid frames a connection may send before it is
    /// closed; each one is answered with a typed `ERR` frame first.
    pub error_budget: u32,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            idle_timeout: None,
            error_budget: 4,
        }
    }
}

/// A running socket frontend.
#[derive(Debug)]
pub struct UdsServer {
    path: PathBuf,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    handle: Option<JoinHandle<()>>,
    epoch: Instant,
    /// Drain deadline in milliseconds after `epoch`; `0` = not
    /// draining. One word so the event loop can read it locklessly.
    drain: Arc<AtomicU64>,
    /// Set by the event loop when a drain completed with every grant
    /// delivered and every write buffer flushed before the deadline.
    drained_clean: Arc<AtomicBool>,
}

impl UdsServer {
    /// Binds `path` (replacing any stale socket file) and starts the
    /// event loop. Clients registered over the socket go through
    /// `connector` into the shared scheduler.
    ///
    /// # Errors
    ///
    /// [`ServeError::Accept`] if the socket cannot be bound, configured
    /// or the wake channel cannot be created.
    pub fn start(connector: Connector, path: impl AsRef<Path>) -> Result<Self, ServeError> {
        Self::start_with_options(connector, path, ServerOptions::default())
    }

    /// [`UdsServer::start`] with explicit hardening tunables.
    ///
    /// # Errors
    ///
    /// [`ServeError::Accept`] if the socket cannot be bound, configured
    /// or the wake channel cannot be created.
    pub fn start_with_options(
        connector: Connector,
        path: impl AsRef<Path>,
        options: ServerOptions,
    ) -> Result<Self, ServeError> {
        let path = path.as_ref().to_path_buf();
        // A stale socket file from a crashed predecessor would make
        // bind fail; removing a *live* server's socket is the
        // operator's own foot-gun, exactly as with any UDS daemon.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).map_err(ServeError::Accept)?;
        listener.set_nonblocking(true).map_err(ServeError::Accept)?;
        let (wake_tx, wake_rx) = UnixStream::pair().map_err(ServeError::Accept)?;
        wake_tx.set_nonblocking(true).map_err(ServeError::Accept)?;
        wake_rx.set_nonblocking(true).map_err(ServeError::Accept)?;
        let completions = Arc::new(CompletionQueue::new(wake_tx));
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let epoch = Instant::now();
        let drain = Arc::new(AtomicU64::new(0));
        let drained_clean = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let counters = Arc::clone(&stats);
        let drain_word = Arc::clone(&drain);
        let drained_flag = Arc::clone(&drained_clean);
        // Startup spawn: the one event-loop thread per server — every
        // connection is multiplexed through it, never given a thread.
        let handle = thread::Builder::new()
            .name("strent-serve-event-loop".to_owned())
            .spawn(move || {
                EventLoop {
                    listener,
                    wake_rx,
                    completions,
                    connector,
                    stats: counters,
                    options,
                    epoch,
                    drain: drain_word,
                    drained_clean: drained_flag,
                    conns: Vec::new(),
                    generations: Vec::new(),
                    free: Vec::new(),
                }
                .run(&flag);
            })
            .map_err(ServeError::Accept)?;
        Ok(UdsServer {
            path,
            shutdown,
            stats,
            handle: Some(handle),
            epoch,
            drain,
            drained_clean,
        })
    }

    /// The socket path the server is bound to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The frontend's monotone counters.
    #[must_use]
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the event loop, drops every connection and removes the
    /// socket file.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] if the event-loop thread panicked.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shutdown.store(true, Ordering::SeqCst);
        let panicked = match self.handle.take() {
            Some(handle) => handle.join().is_err(),
            None => false,
        };
        // `Drop` runs as `self` goes out of scope and removes the
        // socket file.
        if panicked {
            return Err(ServeError::Shutdown);
        }
        Ok(())
    }

    /// The graceful shutdown state machine: stop accepting new
    /// connections, deliver every in-flight grant, flush every write
    /// buffer, then close sockets and join — all within `budget`.
    ///
    /// Returns `Ok(true)` when every connection quiesced before the
    /// deadline; `Ok(false)` when the budget expired with work still
    /// buffered (the loop then closes connections as a plain shutdown
    /// would).
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] if the event-loop thread panicked.
    pub fn shutdown_graceful(mut self, budget: Duration) -> Result<bool, ServeError> {
        #[allow(clippy::cast_possible_truncation)]
        let deadline_ms = ((self.epoch.elapsed() + budget).as_millis() as u64).max(1);
        self.drain.store(deadline_ms, Ordering::SeqCst);
        let panicked = match self.handle.take() {
            Some(handle) => handle.join().is_err(),
            None => false,
        };
        if panicked {
            return Err(ServeError::Shutdown);
        }
        Ok(self.drained_clean.load(Ordering::SeqCst))
    }
}

impl Drop for UdsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One connection's state machine.
struct Conn {
    stream: UnixStream,
    decoder: FrameDecoder,
    /// Buffered reply bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf`.
    wpos: usize,
    client: Option<EntropyClient>,
    /// Bumped every time the slot is reused; stale completions carry
    /// the old generation and are dropped.
    generation: u32,
    /// Flush the write buffer, then close.
    closing: bool,
    /// Requests submitted to the scheduler whose grants have not come
    /// back yet — the drain and the idle reaper both key on zero.
    outstanding: u32,
    /// Last complete frame (or accept) on this connection; the idle
    /// reaper's staleness clock.
    last_frame: Instant,
    /// Decodable-but-invalid frames charged against the error budget.
    strikes: u32,
}

impl Conn {
    fn token(&self, slot: usize) -> u64 {
        ((slot as u64) << 32) | u64::from(self.generation)
    }

    fn has_backlog(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Appends a frame to the write buffer and opportunistically
    /// flushes. Returns `false` if the connection is dead.
    fn send_frame(&mut self, op: u8, payload: &[u8]) -> bool {
        if wire::encode_frame(&mut self.wbuf, op, payload).is_err() {
            return false;
        }
        self.flush()
    }

    /// Writes as much of the backlog as the socket accepts. Returns
    /// `false` if the connection is dead.
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            // Nonblocking socket: a full buffer returns WouldBlock and
            // the poll set picks the flush up on the next writable.
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        true
    }
}

/// What to do with a connection after handling an event.
enum ConnFate {
    Keep,
    Close,
}

struct EventLoop {
    listener: UnixListener,
    wake_rx: UnixStream,
    completions: Arc<CompletionQueue>,
    connector: Connector,
    stats: Arc<ServerStats>,
    options: ServerOptions,
    epoch: Instant,
    drain: Arc<AtomicU64>,
    drained_clean: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    /// Per-slot reuse counter, bumped on close so stale completion
    /// tokens never reach a successor connection.
    generations: Vec<u32>,
    free: Vec<usize>,
}

impl EventLoop {
    fn run(mut self, shutdown: &AtomicBool) {
        // Poll set layout: [listener, wake, conn, conn, ...].
        let mut fds: Vec<PollFd> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new();
        loop {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            fds.clear();
            slot_of.clear();
            let drain_ms = self.drain.load(Ordering::Relaxed);
            let draining = drain_ms != 0;
            let at_capacity = self.active_count() >= MAX_CONNS;
            fds.push(PollFd::new(
                self.listener.as_raw_fd(),
                // Draining parks the listener: step one of the graceful
                // shutdown is to stop accepting.
                if at_capacity || draining { 0 } else { POLLIN },
            ));
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            for (slot, conn) in self.conns.iter().enumerate() {
                if let Some(conn) = conn {
                    let mut events = POLLIN;
                    if conn.has_backlog() {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    slot_of.push(slot);
                }
            }
            if poll_fds(&mut fds, POLL_TIMEOUT_MS).is_err() {
                // EINVAL/ENOMEM from poll(2) is not survivable for a
                // multiplexer; exit and let shutdown clean up.
                break;
            }
            if fds[1].readable() {
                self.drain_wake();
            }
            // Completions may land between polls; drain unconditionally.
            self.deliver_completions();
            if fds[0].readable() {
                self.accept_ready();
            }
            for (i, fd) in fds.iter().enumerate().skip(2) {
                let slot = slot_of[i - 2];
                if fd.writable() {
                    self.flush_slot(slot);
                }
                if fd.readable() {
                    self.read_slot(slot);
                }
            }
            // Mirror the wake-pipe pressure counters from the
            // completion queue so they surface in ServerStats.
            self.stats
                .wake_full
                .store(self.completions.wake_full(), Ordering::Relaxed);
            self.stats
                .wake_errors
                .store(self.completions.wake_errors(), Ordering::Relaxed);
            self.reap_idle();
            if draining {
                if self.quiescent() {
                    // Every grant delivered, every write buffer
                    // flushed: a clean drain.
                    self.drained_clean.store(true, Ordering::SeqCst);
                    break;
                }
                if self.epoch.elapsed() >= Duration::from_millis(drain_ms) {
                    // Deadline-bounded: a wedged peer cannot hold
                    // shutdown hostage.
                    break;
                }
            }
        }
        // Dropping each Conn drops its EntropyClient, which closes the
        // scheduler-side client.
        self.conns.clear();
    }

    fn active_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Whether every connection has delivered its grants and flushed
    /// its write buffer — the drain's exit condition.
    fn quiescent(&self) -> bool {
        self.conns.iter().flatten().all(|conn| {
            conn.outstanding == 0 && !conn.has_backlog()
        })
    }

    /// Closes connections with nothing outstanding, nothing buffered
    /// and no frame activity within the idle timeout (the slowloris
    /// defense). Disabled when no timeout is configured.
    fn reap_idle(&mut self) {
        let Some(timeout) = self.options.idle_timeout else {
            return;
        };
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                let idle = conn.outstanding == 0
                    && !conn.has_backlog()
                    && conn.last_frame.elapsed() >= timeout;
                idle.then_some(slot)
            })
            .collect();
        for slot in stale {
            self.stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
            self.close_slot(slot);
        }
    }

    /// Swallows pending wake bytes (level-triggered readiness: one
    /// drained byte per push keeps the channel from filling).
    fn drain_wake(&mut self) {
        let mut sink = [0u8; 256];
        // The wake stream is nonblocking; WouldBlock ends the drain.
        while let Ok(n) = self.wake_rx.read(&mut sink) {
            if n < sink.len() {
                break;
            }
        }
    }

    /// Routes finished grants to their connections' write buffers.
    fn deliver_completions(&mut self) {
        for completion in self.completions.drain() {
            let slot = (completion.token >> 32) as usize;
            #[allow(clippy::cast_possible_truncation)]
            let generation = completion.token as u32;
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                continue;
            };
            if conn.generation != generation {
                continue;
            }
            conn.outstanding = conn.outstanding.saturating_sub(1);
            let alive = match completion.result {
                Ok(bytes) => conn.send_frame(OP_OK, &bytes),
                Err(ServeError::Busy { in_flight }) => {
                    let count = u32::try_from(in_flight).unwrap_or(u32::MAX);
                    conn.send_frame(OP_BUSY, &count.to_le_bytes())
                }
                Err(ServeError::RateLimited { retry_after_us }) => {
                    let us = u32::try_from(retry_after_us).unwrap_or(u32::MAX);
                    conn.send_frame(OP_RATE_LIMITED, &us.to_le_bytes())
                }
                Err(ServeError::Shedding { queued }) => {
                    let count = u32::try_from(queued).unwrap_or(u32::MAX);
                    conn.send_frame(OP_SHEDDING, &count.to_le_bytes())
                }
                Err(e) => {
                    // Terminal failure: answer, flush, close.
                    conn.closing = true;
                    conn.send_frame(OP_ERR, e.to_string().as_bytes())
                }
            };
            if !alive || (conn.closing && !conn.has_backlog()) {
                self.close_slot(slot);
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            // The listener is nonblocking; WouldBlock ends the accept burst.
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.active.fetch_add(1, Ordering::Relaxed);
                    let mut conn = Conn {
                        stream,
                        decoder: FrameDecoder::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        client: None,
                        generation: 0,
                        closing: false,
                        outstanding: 0,
                        last_frame: Instant::now(),
                        strikes: 0,
                    };
                    match self.free.pop() {
                        Some(slot) => {
                            conn.generation = self.generations[slot];
                            self.conns[slot] = Some(conn);
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.generations.push(0);
                        }
                    }
                    if self.active_count() >= MAX_CONNS {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Typed and counted (the old code dropped the peer
                    // without a trace); back off to the next poll round
                    // so a persistent error cannot spin the loop.
                    self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    fn flush_slot(&mut self, slot: usize) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        let alive = conn.flush();
        if !alive || (conn.closing && !conn.has_backlog()) {
            self.close_slot(slot);
        }
    }

    /// Reads whatever the socket has, feeds the decoder and handles
    /// every complete frame.
    fn read_slot(&mut self, slot: usize) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                return;
            };
            // The socket is nonblocking: WouldBlock ends the read burst.
            let n = match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF: the peer is gone; closing the slot drops the
                    // EntropyClient, which closes the scheduler client.
                    self.close_slot(slot);
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_slot(slot);
                    return;
                }
            };
            conn.decoder.feed(&buf[..n]);
            loop {
                let Some(Some(conn)) = self.conns.get_mut(slot) else {
                    return;
                };
                match conn.decoder.next_frame() {
                    Ok(Some((op, payload))) => {
                        conn.last_frame = Instant::now();
                        if matches!(self.handle_frame(slot, op, &payload), ConnFate::Close) {
                            self.close_slot(slot);
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // Unrecoverable framing (oversized length).
                        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.send_frame(OP_ERR, b"unrecoverable framing error");
                        self.close_slot(slot);
                        return;
                    }
                }
            }
            if n < buf.len() {
                return;
            }
        }
    }

    /// Handles one decoded frame on one connection.
    fn handle_frame(&mut self, slot: usize, op: u8, payload: &[u8]) -> ConnFate {
        let has_client = match self.conns.get(slot) {
            Some(Some(conn)) => {
                if conn.closing {
                    // The session is over; ignore anything after CLOSE.
                    return ConnFate::Keep;
                }
                conn.client.is_some()
            }
            _ => return ConnFate::Close,
        };
        match (op, has_client) {
            (OP_HELLO, false) => match wire::parse_u32(payload) {
                Ok(id) => {
                    // The registration round trip is the one blocking
                    // hop on this path; it never touches the pool, so
                    // the scheduler answers within a serving pass.
                    let registered = self.connector.connect(id);
                    let Some(Some(conn)) = self.conns.get_mut(slot) else {
                        return ConnFate::Close;
                    };
                    match registered {
                        Ok(client) => {
                            conn.client = Some(client);
                            if conn.send_frame(OP_HELLO_OK, &[]) {
                                ConnFate::Keep
                            } else {
                                ConnFate::Close
                            }
                        }
                        Err(e) => {
                            self.stats.register_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = conn.send_frame(OP_ERR, e.to_string().as_bytes());
                            ConnFate::Close
                        }
                    }
                }
                Err(e) => self.protocol_error(slot, &e.to_string()),
            },
            (OP_HELLO, true) => self.protocol_error(slot, "duplicate HELLO on one connection"),
            (OP_REQ, true) => match wire::parse_u32(payload) {
                Ok(nbytes) => {
                    let completions = Arc::clone(&self.completions);
                    let Some(Some(conn)) = self.conns.get_mut(slot) else {
                        return ConnFate::Close;
                    };
                    let token = conn.token(slot);
                    let client = conn.client.as_ref().expect("checked");
                    match client.request_queued(nbytes as usize, &completions, token) {
                        Ok(()) => {
                            conn.outstanding += 1;
                            ConnFate::Keep
                        }
                        Err(e) => {
                            let _ = conn.send_frame(OP_ERR, e.to_string().as_bytes());
                            ConnFate::Close
                        }
                    }
                }
                Err(e) => self.protocol_error(slot, &e.to_string()),
            },
            (OP_REQ, false) => self.protocol_error(slot, "REQ before HELLO"),
            (OP_CLOSE, _) => {
                let Some(Some(conn)) = self.conns.get_mut(slot) else {
                    return ConnFate::Close;
                };
                // Flush any buffered replies, then close.
                conn.closing = true;
                if conn.has_backlog() {
                    ConnFate::Keep
                } else {
                    ConnFate::Close
                }
            }
            (other, _) => self.protocol_error(slot, &format!("unknown opcode 0x{other:02x}")),
        }
    }

    /// Answers a decodable-but-invalid frame with a typed `ERR` and
    /// charges it against the connection's error budget. The peer
    /// survives until the budget is spent — one poisoned frame must not
    /// tear down a connection that is otherwise making progress, and it
    /// never tears down the event loop.
    fn protocol_error(&mut self, slot: usize, msg: &str) -> ConnFate {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let budget = self.options.error_budget;
        if let Some(Some(conn)) = self.conns.get_mut(slot) {
            conn.strikes += 1;
            let alive = conn.send_frame(OP_ERR, format!("protocol violation: {msg}").as_bytes());
            if alive && conn.strikes <= budget {
                return ConnFate::Keep;
            }
        }
        ConnFate::Close
    }

    fn close_slot(&mut self, slot: usize) {
        if let Some(entry) = self.conns.get_mut(slot) {
            // Dropping the Conn drops its EntropyClient (scheduler-side
            // Close) and abandons any in-flight tokens to staleness.
            if entry.take().is_some() {
                self.stats.active.fetch_sub(1, Ordering::Relaxed);
                self.generations[slot] = self.generations[slot].wrapping_add(1);
                self.free.push(slot);
            }
        }
    }
}

/// A minimal synchronous client for the socket protocol — used by the
/// integration tests. Load generation at scale goes through
/// [`crate::mux::MuxClient`], which multiplexes many connections
/// without a thread each.
#[derive(Debug)]
pub struct UdsClient {
    stream: UnixStream,
    path: PathBuf,
    client_id: u32,
}

/// First reconnect backoff; doubles per attempt up to
/// [`RECONNECT_BACKOFF_CAP`].
const RECONNECT_BACKOFF: Duration = Duration::from_micros(200);

/// Reconnect backoff ceiling.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_millis(20);

/// Reconnect attempts before giving up.
const RECONNECT_ATTEMPTS: u32 = 50;

impl UdsClient {
    /// Connects to the server socket and registers `client_id`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServeError::Protocol`] if the server
    /// rejected the registration.
    pub fn connect(path: impl AsRef<Path>, client_id: u32) -> Result<Self, ServeError> {
        let path = path.as_ref().to_path_buf();
        let stream = UnixStream::connect(&path)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        let mut client = UdsClient {
            stream,
            path,
            client_id,
        };
        wire::write_frame(&mut client.stream, OP_HELLO, &client_id.to_le_bytes())?;
        // Reply reads are bounded by the read timeout set above.
        let (op, payload) = wire::read_frame(&mut client.stream)?;
        match op {
            OP_HELLO_OK => Ok(client),
            OP_ERR => Err(ServeError::Protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(ServeError::Protocol(format!(
                "expected HELLO_OK, got opcode 0x{other:02x}"
            ))),
        }
    }

    /// Drops the current connection and dials a fresh one under the
    /// same client id, with capped exponential backoff across attempts.
    /// The old socket is shut down *first* so the server observes EOF
    /// and releases the registration before the new `HELLO` arrives;
    /// the retry loop rides out the unregister/re-register race.
    ///
    /// # Errors
    ///
    /// The last connect error once the attempt budget is spent.
    pub fn reconnect(&mut self) -> Result<(), ServeError> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let mut backoff = RECONNECT_BACKOFF;
        let mut last = ServeError::Timeout;
        for _ in 0..RECONNECT_ATTEMPTS {
            match Self::connect(&self.path, self.client_id) {
                Ok(fresh) => {
                    self.stream = fresh.stream;
                    return Ok(());
                }
                Err(e) => last = e,
            }
            thread::sleep(backoff);
            backoff = (backoff * 2).min(RECONNECT_BACKOFF_CAP);
        }
        Err(last)
    }

    /// Requests `nbytes` bytes over the socket.
    ///
    /// # Errors
    ///
    /// A typed backpressure rejection ([`ServeError::Busy`],
    /// [`ServeError::RateLimited`], [`ServeError::Shedding`]) when the
    /// scheduler refused the request; transport or protocol errors
    /// otherwise.
    pub fn request(&mut self, nbytes: u32) -> Result<Vec<u8>, ServeError> {
        wire::write_frame(&mut self.stream, OP_REQ, &nbytes.to_le_bytes())?;
        self.read_reply()
    }

    /// [`UdsClient::request`] with retry semantics that cannot
    /// duplicate or drop entropy bytes, bounded by a deadline.
    ///
    /// The write/read split decides what is safe to retry:
    ///
    /// * a failed **write** cannot have reached the scheduler — the
    ///   client reconnects (capped backoff) and resends;
    /// * a typed backpressure **reply** ([`ServeError::Busy`],
    ///   [`ServeError::RateLimited`], [`ServeError::Shedding`]) means
    ///   the scheduler refused the request without consuming bytes —
    ///   the client waits (honoring the `retry_after_us` hint, backing
    ///   off harder on shedding) and resends;
    /// * a transport error **after** a fully-written request is
    ///   terminal: the grant may already have consumed bytes from the
    ///   deterministic allocation, and resending would double-spend it.
    ///
    /// # Errors
    ///
    /// The last rejection once `budget` expires; terminal transport,
    /// protocol, or service errors immediately.
    pub fn request_resilient(
        &mut self,
        nbytes: u32,
        budget: Duration,
    ) -> Result<Vec<u8>, ServeError> {
        let deadline = Deadline::after(budget);
        let mut backoff = RECONNECT_BACKOFF;
        loop {
            if let Err(e) = wire::write_frame(&mut self.stream, OP_REQ, &nbytes.to_le_bytes()) {
                // Nothing reached the scheduler: reconnect and resend.
                if deadline.expired() {
                    return Err(e.into());
                }
                self.reconnect()?;
                continue;
            }
            let err = match self.read_reply() {
                Ok(bytes) => return Ok(bytes),
                Err(err) => err,
            };
            let wait = match &err {
                ServeError::RateLimited { retry_after_us } => {
                    Duration::from_micros((*retry_after_us).max(1))
                }
                ServeError::Shedding { .. } => backoff * 4,
                ServeError::Busy { .. } => backoff,
                // Anything else after a fully-written REQ is terminal:
                // retrying could double-spend served bytes.
                _ => return Err(err),
            };
            if deadline.expired() {
                return Err(err);
            }
            thread::sleep(wait.min(deadline.remaining()));
            backoff = (backoff * 2).min(RECONNECT_BACKOFF_CAP);
        }
    }

    /// Reads and classifies one reply frame.
    fn read_reply(&mut self) -> Result<Vec<u8>, ServeError> {
        // Reply reads are bounded by the connect-time read timeout.
        let (op, payload) = wire::read_frame(&mut self.stream)?;
        match op {
            OP_OK => Ok(payload),
            OP_BUSY => Err(ServeError::Busy {
                in_flight: wire::parse_u32(&payload).unwrap_or(0) as usize,
            }),
            OP_RATE_LIMITED => Err(ServeError::RateLimited {
                retry_after_us: u64::from(wire::parse_u32(&payload).unwrap_or(0)),
            }),
            OP_SHEDDING => Err(ServeError::Shedding {
                queued: wire::parse_u32(&payload).unwrap_or(0) as usize,
            }),
            OP_ERR => Err(ServeError::Protocol(
                String::from_utf8_lossy(&payload).into_owned(),
            )),
            other => Err(ServeError::Protocol(format!(
                "unexpected reply opcode 0x{other:02x}"
            ))),
        }
    }

    /// Sends CLOSE and drops the connection.
    ///
    /// # Errors
    ///
    /// Transport errors writing the final frame.
    pub fn close(mut self) -> Result<(), ServeError> {
        wire::write_frame(&mut self.stream, OP_CLOSE, &[])?;
        Ok(())
    }
}
