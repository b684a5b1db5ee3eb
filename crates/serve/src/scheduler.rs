//! The request scheduler — one shard type serving both modes — and the
//! in-process client API.
//!
//! ## Modes
//!
//! Both modes run the same shard loop: apply every queued message, then
//! serve one *pass* — at most one queued request per client, granted in
//! ascending client id — then block for the next message. A request
//! from a client that has not registered is a typed
//! [`ServeError::Protocol`] in both modes. The modes differ only in the
//! values [`EntropyService::start`] gives the shards:
//!
//! * **Deterministic** ([`SchedulerMode::Deterministic`]) — one shard
//!   owns the whole [`SourcePool`] and gates its passes with the
//!   *round barrier*: no pass runs before `expected_clients` clients
//!   have registered, and after that a pass runs only when every
//!   registered, still-open client has a request queued. Which bytes
//!   each client receives is then a pure function of the pool config
//!   and the per-client request traces — independent of thread timing,
//!   connection order, worker count **and shard count**: in this mode
//!   `shards` only widens the producer worker layout
//!   (`workers.max(shards)`), never the consumption order, so the
//!   served allocation is byte-identical at shards 1, 2 and 8 (pinned
//!   by `tests/sharding.rs`).
//! * **Fair** ([`SchedulerMode::Fair`]) — one shard per configured
//!   core. Shard `k` of `S` owns the pool partition
//!   `{ slot | slot % S == k }` ([`SourcePool::start_partition`]) and
//!   the clients `{ id | id % S == k }`. Serving is deficit
//!   round-robin: because a pass grants at most one request per
//!   client, a greedy client cannot starve its neighbours. An idle
//!   shard **steals** the oldest queued request from a loaded sibling,
//!   so one hot shard cannot leave the others' sources idle.
//!
//! ## Wakeups
//!
//! No shard polls. A shard blocks in `recv()` whenever it has nothing
//! to serve or its round barrier is closed, and only a message wakes
//! it. A shard marks itself idle before its last look for stealable
//! work; a sibling whose serving pass leaves requests queued swaps that
//! flag and sends the idle shard one `Steal` message. After each reply
//! a shard calls [`SourcePool::wake_workers`], so the pool refills its
//! read-ahead once the reply is out, not mid-grant. Chaos faults
//! ([`EntropyService::inject`]) are messages too: they fire when the
//! shard handles them, between messages, never mid-grant.
//!
//! ## Failure
//!
//! Each shard thread runs its loop once, under the crate's one
//! `catch_unwind`. A panic records a `panic` and then a `quarantined`
//! incident, sets the shard's quarantine flag so [`Connector`] routes
//! new clients to the next healthy sibling, and refuses what the shard
//! still holds with typed errors. A shard is never restarted.
//!
//! ## Backpressure classes (fair mode)
//!
//! Admission is checked in severity order and every rejection is a
//! typed *reply*, never a stalled socket:
//!
//! 1. [`ServeError::Shedding`] — the service-wide queued count is at or
//!    over the operator-set [`ServeConfig::shed_limit`] watermark;
//! 2. [`ServeError::RateLimited`] — the per-client token bucket
//!    ([`RateLimit`]) lacks tokens for the request, with the refill
//!    wait advertised in microseconds;
//! 3. [`ServeError::Busy`] — the home shard's `max_in_flight` budget is
//!    exhausted.
//!
//! Deterministic mode serves a closed, pre-registered client set and
//! applies none of these (the round barrier is its admission control).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use strent_sim::sweep::panic_payload_text;
use strentropy::pool::PoolConfig;

use crate::error::ServeError;
use crate::pool::{ConsumptionPolicy, SourcePool, SourceStatus};
use crate::supervisor::{IncidentKind, IncidentLog};

/// How long a client waits for its grant. Generous: a pool rebuilding a
/// dead ring mid-request stays well under this.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// How requests are admitted and ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Round-barrier serving for reproducible byte allocation; see the
    /// module docs.
    Deterministic {
        /// Clients that must register before any request is served.
        expected_clients: usize,
    },
    /// Deficit round-robin with a bounded per-shard in-flight budget.
    Fair {
        /// Queued requests each shard admits before new ones get
        /// [`ServeError::Busy`]. Zero rejects everything (useful for
        /// drills).
        max_in_flight: usize,
    },
}

/// Per-client token-bucket rate limit (fair mode only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Steady-state refill rate, in granted bytes per second.
    pub bytes_per_sec: f64,
    /// Bucket capacity — the largest burst a client can draw after
    /// idling.
    pub burst_bytes: f64,
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The source pool to serve from.
    pub pool: PoolConfig,
    /// Producer worker threads per shard (clamped to `[1, slots]`).
    pub workers: usize,
    /// Scheduler shards (fair mode; clamped to `[1, sources]`). In
    /// deterministic mode this only widens the producer worker layout.
    pub shards: usize,
    /// Scheduling mode.
    pub mode: SchedulerMode,
    /// Per-client token-bucket rate limit; `None` disables the
    /// `RateLimited` class. Fair mode only.
    pub rate_limit: Option<RateLimit>,
    /// Service-wide queued-request watermark for overload shedding;
    /// `None` disables the `Shedding` class. Operators set this below
    /// `shards * max_in_flight` to cap aggregate queueing independent
    /// of shard count. Fair mode only.
    pub shed_limit: Option<usize>,
    /// Weight pool consumption by each source's online Markov
    /// min-entropy estimate: sources whose published estimate falls
    /// below `pool.demotion_threshold()` are demoted to a
    /// [`DEMOTED_WEIGHT`](crate::pool::DEMOTED_WEIGHT)-per-cycle share.
    /// **Fair mode only** — the deterministic round barrier ignores the
    /// flag and always consumes strictly, so its byte-allocation digest
    /// stays identical at every shard count with or without weighting.
    pub entropy_weighting: bool,
}

impl ServeConfig {
    /// A configuration with one worker, one shard and no rate limiting
    /// or shedding — override fields as needed.
    #[must_use]
    pub fn new(pool: PoolConfig, mode: SchedulerMode) -> Self {
        ServeConfig {
            pool,
            workers: 1,
            shards: 1,
            mode,
            rate_limit: None,
            shed_limit: None,
            entropy_weighting: false,
        }
    }
}

type ReplyTx = SyncSender<Result<Vec<u8>, ServeError>>;

/// One finished grant (or typed rejection) for a queued request.
#[derive(Debug)]
pub struct Completion {
    /// The caller-chosen token identifying the request.
    pub token: u64,
    /// The granted bytes or the typed error.
    pub result: Result<Vec<u8>, ServeError>,
}

/// A lock-protected completion mailbox with a readiness wake-up, the
/// asynchronous reply path of the socket event loop: the scheduler
/// pushes a [`Completion`] and writes one byte into the wake stream,
/// which the event loop holds in its `poll(2)` set.
#[derive(Debug)]
pub struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
    wake: UnixStream,
    wake_full: AtomicU64,
    wake_errors: AtomicU64,
}

impl CompletionQueue {
    /// Wraps the write half of a wake channel (the caller keeps the
    /// read half in its poll set). `wake` should be nonblocking: a full
    /// wake pipe means a wake-up is already pending, which is exactly
    /// when dropping the byte is harmless.
    #[must_use]
    pub fn new(wake: UnixStream) -> Self {
        CompletionQueue {
            inner: Mutex::new(Vec::new()),
            wake,
            wake_full: AtomicU64::new(0),
            wake_errors: AtomicU64::new(0),
        }
    }

    /// Delivers one completion and signals the wake channel.
    pub fn push(&self, token: u64, result: Result<Vec<u8>, ServeError>) {
        self.inner
            .lock()
            .expect("completion queue lock")
            .push(Completion { token, result });
        // EAGAIN-safe wake: a full pipe (`WouldBlock`) is benign — the
        // consumer polls the read half level-triggered and at least one
        // unread byte is already in the pipe, so the wakeup cannot be
        // lost — but it is *counted*, never silently swallowed. A
        // transient `Interrupted` retries once; anything else means the
        // consumer is gone and is counted as a wake error.
        match (&self.wake).write(&[1u8]) {
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.wake_full.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                match (&self.wake).write(&[1u8]) {
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.wake_full.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        self.wake_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(_) => {
                self.wake_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Wake-pipe writes dropped because the pipe was already full (a
    /// pending wakeup made them redundant; level-triggered polling
    /// guarantees delivery).
    #[must_use]
    pub fn wake_full(&self) -> u64 {
        self.wake_full.load(Ordering::Relaxed)
    }

    /// Wake-pipe writes that failed outright (consumer gone).
    #[must_use]
    pub fn wake_errors(&self) -> u64 {
        self.wake_errors.load(Ordering::Relaxed)
    }

    /// Takes every pending completion.
    #[must_use]
    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.inner.lock().expect("completion queue lock"))
    }
}

/// Where a grant result is delivered.
enum Sink {
    /// A blocked in-process caller.
    Sync(ReplyTx),
    /// A completion mailbox (the socket event loop), keyed by token.
    Queue { queue: Arc<CompletionQueue>, token: u64 },
}

impl Sink {
    fn send(self, result: Result<Vec<u8>, ServeError>) {
        match self {
            // A vanished caller is not the scheduler's problem.
            Sink::Sync(reply) => drop(reply.send(result)),
            Sink::Queue { queue, token } => queue.push(token, result),
        }
    }
}

enum Msg {
    Register {
        client_id: u32,
        reply: SyncSender<Result<(), ServeError>>,
    },
    Request {
        client_id: u32,
        nbytes: usize,
        sink: Sink,
    },
    Close {
        client_id: u32,
    },
    Status {
        reply: SyncSender<Vec<(usize, SourceStatus)>>,
    },
    /// Graceful-drain phase 2: stop admitting, serve what is queued
    /// until the deadline, refuse the remainder typed. Replies whether
    /// the queue fully drained in time.
    Drain {
        deadline: Instant,
        reply: SyncSender<bool>,
    },
    /// A chaos fault queued by [`EntropyService::inject`].
    Chaos(ChaosAction),
    /// A sibling left requests queued while this shard was idle.
    Steal,
    Shutdown,
}

/// The running entropy service: owns one scheduler thread per shard.
#[derive(Debug)]
pub struct EntropyService {
    shards: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<()>>,
    incidents: IncidentLog,
    quarantined: Arc<Vec<AtomicBool>>,
}

impl EntropyService {
    /// Builds the pool partitions (fail-fast) and spawns the scheduler
    /// shard threads.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid pool configuration or a source
    /// that fails to build.
    pub fn start(config: &ServeConfig) -> Result<Self, ServeError> {
        config.pool.validate()?;
        let slots = config.pool.sources.len();
        let incidents = IncidentLog::new();
        // Deterministic mode is one shard over the whole pool behind the
        // round barrier: a single consumer keeps the interleave and the
        // allocation identical at every shard count, so `shards` only
        // widens the producer side, and consumption stays strict.
        let (shard_count, workers, max_in_flight, barrier) = match config.mode {
            SchedulerMode::Deterministic { expected_clients } => (
                1,
                config.workers.max(config.shards),
                usize::MAX,
                Some(expected_clients),
            ),
            SchedulerMode::Fair { max_in_flight } => (
                config.shards.clamp(1, slots.max(1)),
                config.workers,
                max_in_flight,
                None,
            ),
        };
        let fair = barrier.is_none();
        let mut pools = Vec::with_capacity(shard_count);
        for k in 0..shard_count {
            let mut pool = SourcePool::start_partition(&config.pool, shard_count, k, workers)?;
            if fair && config.entropy_weighting {
                // Each shard weights its own partition by the estimates
                // riding on its delivered chunks — a pure function of
                // those chunks, so still worker-count invariant per
                // shard.
                pool.set_consumption_policy(ConsumptionPolicy::Weighted {
                    threshold: config.pool.demotion_threshold(),
                });
            }
            pools.push(pool);
        }
        let shared: Vec<Arc<ShardShared>> = (0..shard_count)
            .map(|_| Arc::new(ShardShared::default()))
            .collect();
        let quarantined: Arc<Vec<AtomicBool>> =
            Arc::new((0..shard_count).map(|_| AtomicBool::new(false)).collect());
        // The shards' control channels: their senders live on the event
        // loop and must never block, and admission control (shed_limit,
        // max_in_flight) bounds their depth upstream.
        // simlint: allow(SL203) control channels, bounded upstream by admission
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..shard_count).map(|_| mpsc::channel()).unzip();
        // Built before the first spawn: if a later spawn fails, dropping
        // the service sends the shutdown message to the shards already
        // running and joins them.
        let mut service = EntropyService {
            shards: senders,
            handles: Vec::with_capacity(shard_count),
            incidents: incidents.clone(),
            quarantined: Arc::clone(&quarantined),
        };
        for (k, (pool, rx)) in pools.into_iter().zip(receivers).enumerate() {
            let mut shard = Shard {
                pool,
                shard_id: k,
                shared: shared.clone(),
                peers: service.shards.clone(),
                max_in_flight,
                shed_limit: config.shed_limit.filter(|_| fair),
                rate: config.rate_limit.filter(|_| fair),
                barrier,
                buckets: BTreeMap::new(),
                registered: BTreeSet::new(),
                draining: false,
                log: incidents.clone(),
            };
            let log = incidents.clone();
            let flags = Arc::clone(&quarantined);
            // Startup spawn: one thread per scheduler shard.
            let handle = thread::Builder::new()
                .name(format!("strent-serve-shard-{k}"))
                .spawn(move || {
                    // The escalation boundary: the loop runs once, and a
                    // panic quarantines the shard at once, since a rerun
                    // would replay into the same panic.
                    let Err(payload) = catch_unwind(AssertUnwindSafe(|| shard.run(&rx))) else {
                        return;
                    };
                    let unit = format!("shard-{k}");
                    log.record(
                        &unit,
                        IncidentKind::Panic,
                        panic_payload_text(payload.as_ref()),
                    );
                    log.record(
                        &unit,
                        IncidentKind::Quarantined,
                        "shard panicked; queued requests refused, clients rerouted",
                    );
                    // Quarantine: new registrations reroute to the next
                    // healthy sibling; what is still queued is refused
                    // typed (or was stolen by siblings first).
                    flags[k].store(true, Ordering::SeqCst);
                    shard.shutdown();
                })
                .map_err(ServeError::Io)?;
            service.handles.push(handle);
        }
        Ok(service)
    }

    /// The incident log every scheduler shard of this service records
    /// into.
    #[must_use]
    pub fn incidents(&self) -> &IncidentLog {
        &self.incidents
    }

    /// Per-shard quarantine flags (true once a shard panicked and was
    /// taken out of rotation).
    #[must_use]
    pub fn quarantined(&self) -> Vec<bool> {
        self.quarantined
            .iter()
            .map(|flag| flag.load(Ordering::SeqCst))
            .collect()
    }

    /// A cloneable handle frontends use to register clients.
    #[must_use]
    pub fn connector(&self) -> Connector {
        Connector {
            shards: self.shards.clone(),
            quarantined: Arc::clone(&self.quarantined),
        }
    }

    /// Registers a client with the given id and returns its handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for a duplicate id,
    /// [`ServeError::Shutdown`] if the scheduler is gone.
    pub fn connect(&self, client_id: u32) -> Result<EntropyClient, ServeError> {
        self.connector().connect(client_id)
    }

    /// Snapshot of every pool slot's health/lifecycle status, merged
    /// across shards in global slot order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] or [`ServeError::Timeout`] if a shard
    /// cannot answer.
    pub fn status(&self) -> Result<Vec<SourceStatus>, ServeError> {
        self.connector().status()
    }

    /// Queues a chaos fault for scheduler shard `unit` (deterministic
    /// mode has the one shard 0). It fires when the shard handles the
    /// message — between messages, never mid-grant.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for a shard the service does not have,
    /// [`ServeError::Shutdown`] if the shard is gone.
    pub fn inject(&self, unit: usize, action: ChaosAction) -> Result<(), ServeError> {
        let tx = self
            .shards
            .get(unit)
            .ok_or_else(|| ServeError::Protocol(format!("no scheduler shard {unit}")))?;
        tx.send(Msg::Chaos(action)).map_err(|_| ServeError::Shutdown)
    }

    /// Graceful-drain phase: every shard stops admitting new requests
    /// (refusing them with [`ServeError::Draining`]), serves what is
    /// already queued until `budget` elapses, and refuses the
    /// remainder typed. Returns whether every shard fully drained in
    /// time; a quarantined shard counts as not drained.
    pub fn drain(&self, budget: Duration) -> bool {
        let deadline = Instant::now() + budget;
        let mut all = true;
        let mut replies = Vec::with_capacity(self.shards.len());
        for tx in &self.shards {
            let (reply, rx) = mpsc::sync_channel(1);
            if tx.send(Msg::Drain { deadline, reply }).is_err() {
                all = false;
                continue;
            }
            replies.push(rx);
        }
        for rx in replies {
            match recv_reply(&rx) {
                Ok(drained) => all &= drained,
                Err(_) => all = false,
            }
        }
        all
    }

    /// The full graceful-shutdown state machine: stop admitting, drain
    /// in-flight grants within `budget`, then stop the shards (which
    /// flush and stop their pool partitions) and join every thread.
    /// Returns whether the drain completed before the deadline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] if a scheduler thread panicked.
    pub fn shutdown_graceful(self, budget: Duration) -> Result<bool, ServeError> {
        let drained = self.drain(budget);
        self.shutdown()?;
        Ok(drained)
    }

    /// Stops every shard (which stops its pool partition) and joins.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] if a scheduler thread panicked.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        for tx in &self.shards {
            let _ = tx.send(Msg::Shutdown);
        }
        let mut panicked = false;
        for handle in self.handles.drain(..) {
            panicked |= handle.join().is_err();
        }
        if panicked {
            return Err(ServeError::Shutdown);
        }
        Ok(())
    }
}

impl Drop for EntropyService {
    fn drop(&mut self) {
        for tx in &self.shards {
            let _ = tx.send(Msg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A cloneable client-registration handle (used by the socket event
/// loop). Routes client `id` to its home shard `id % shards` — or,
/// when that shard has been quarantined after a panic, walks forward
/// to the first healthy sibling so registration keeps working through
/// a shard loss.
#[derive(Debug, Clone)]
pub struct Connector {
    shards: Vec<Sender<Msg>>,
    quarantined: Arc<Vec<AtomicBool>>,
}

impl Connector {
    fn route(&self, client_id: u32) -> &Sender<Msg> {
        let n = self.shards.len();
        let home = client_id as usize % n;
        for step in 0..n {
            let k = (home + step) % n;
            if !self.quarantined[k].load(Ordering::SeqCst) {
                return &self.shards[k];
            }
        }
        // Every shard quarantined: send to the home shard and let the
        // dead channel surface as a typed Shutdown.
        &self.shards[home]
    }

    /// Registers a client with the given id.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EntropyService::connect`].
    pub fn connect(&self, client_id: u32) -> Result<EntropyClient, ServeError> {
        // Resolve the route once and pin the client to it, so a
        // quarantine flag flipping mid-registration cannot split the
        // register and request paths across two shards.
        let route = self.route(client_id).clone();
        let (reply, rx) = mpsc::sync_channel(1);
        route
            .send(Msg::Register { client_id, reply })
            .map_err(|_| ServeError::Shutdown)?;
        recv_reply(&rx)??;
        Ok(EntropyClient {
            id: client_id,
            tx: route,
        })
    }

    /// Snapshot of every pool slot's health, lifecycle and entropy
    /// status, merged across shards in global slot order — what a
    /// frontend feeds into `ServerStats::publish_entropy`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] or [`ServeError::Timeout`] if a shard
    /// cannot answer.
    pub fn status(&self) -> Result<Vec<SourceStatus>, ServeError> {
        let mut tagged = Vec::new();
        for tx in &self.shards {
            let (reply, rx) = mpsc::sync_channel(1);
            tx.send(Msg::Status { reply })
                .map_err(|_| ServeError::Shutdown)?;
            tagged.extend(recv_reply(&rx)?);
        }
        tagged.sort_by_key(|(slot, _)| *slot);
        Ok(tagged.into_iter().map(|(_, status)| status).collect())
    }
}

/// Waits for one reply with the standard timeout mapping.
fn recv_reply<T>(rx: &Receiver<T>) -> Result<T, ServeError> {
    match rx.recv_timeout(REPLY_TIMEOUT) {
        Ok(value) => Ok(value),
        Err(RecvTimeoutError::Timeout) => Err(ServeError::Timeout),
        Err(RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
    }
}

/// An in-process client of the service. Dropping it closes the client
/// (in deterministic mode, removing it from the round barrier).
#[derive(Debug)]
pub struct EntropyClient {
    id: u32,
    tx: Sender<Msg>,
}

impl EntropyClient {
    /// This client's id (its rank in the deterministic serving order).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Requests exactly `nbytes` conditioned, health-passed bytes,
    /// blocking until granted.
    ///
    /// # Errors
    ///
    /// A typed backpressure rejection ([`ServeError::Busy`],
    /// [`ServeError::RateLimited`], [`ServeError::Shedding`]) when
    /// admission refused the request; [`ServeError::Shutdown`] /
    /// [`ServeError::Timeout`] when the service went away.
    pub fn request(&self, nbytes: usize) -> Result<Vec<u8>, ServeError> {
        if nbytes == 0 {
            return Ok(Vec::new());
        }
        let (reply, rx) = mpsc::sync_channel(1);
        self.tx
            .send(Msg::Request {
                client_id: self.id,
                nbytes,
                sink: Sink::Sync(reply),
            })
            .map_err(|_| ServeError::Shutdown)?;
        recv_reply(&rx)?
    }

    /// Submits a request whose result is delivered to `queue` under
    /// `token` instead of blocking the caller — the socket event loop's
    /// request path. A zero-byte request completes through the queue
    /// like any other.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] if the scheduler is gone (nothing was
    /// queued); every later outcome, including typed backpressure,
    /// arrives as the completion's `result`.
    pub fn request_queued(
        &self,
        nbytes: usize,
        queue: &Arc<CompletionQueue>,
        token: u64,
    ) -> Result<(), ServeError> {
        if nbytes == 0 {
            queue.push(token, Ok(Vec::new()));
            return Ok(());
        }
        self.tx
            .send(Msg::Request {
                client_id: self.id,
                nbytes,
                sink: Sink::Queue {
                    queue: Arc::clone(queue),
                    token,
                },
            })
            .map_err(|_| ServeError::Shutdown)
    }

    /// Closes the client explicitly (equivalent to dropping it).
    pub fn close(self) {}
}

impl Drop for EntropyClient {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Close { client_id: self.id });
    }
}

// ---------------------------------------------------------------------
// The shard: one loop for both modes.
// ---------------------------------------------------------------------

/// A queued, admitted request. `home` is the shard whose budget it
/// occupies (always the shard that admitted it; thieves execute the
/// grant but credit the home shard's budget on completion).
struct Job {
    nbytes: usize,
    sink: Sink,
    client_id: u32,
    home: usize,
}

/// The cross-shard state work stealing needs: the stealable queue, the
/// admitted-but-unreplied count, and whether the shard is blocked idle
/// (a sibling that leaves work queued swaps the flag and wakes it).
#[derive(Default)]
struct ShardShared {
    injector: Mutex<VecDeque<Job>>,
    in_flight: AtomicUsize,
    idle: AtomicBool,
}

/// Per-client token bucket.
struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(limit: &RateLimit) -> Self {
        TokenBucket {
            tokens: limit.burst_bytes,
            last: Instant::now(),
        }
    }

    /// Takes `nbytes` tokens, or reports the refill wait in µs.
    fn try_take(&mut self, nbytes: usize, limit: &RateLimit) -> Result<(), u64> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * limit.bytes_per_sec).min(limit.burst_bytes);
        #[allow(clippy::cast_precision_loss)]
        let need = nbytes as f64;
        if self.tokens >= need {
            self.tokens -= need;
            return Ok(());
        }
        let wait_s = (need - self.tokens) / limit.bytes_per_sec.max(f64::MIN_POSITIVE);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Err((wait_s * 1e6).min(1e15) as u64 + 1)
    }
}

/// One scheduler shard, in either mode; [`EntropyService::start`]
/// picks the per-mode values.
struct Shard {
    pool: SourcePool,
    shard_id: usize,
    shared: Vec<Arc<ShardShared>>,
    /// Every shard's message channel (this one's included), indexed
    /// like `shared` — how an idle sibling is sent `Steal`.
    peers: Vec<Sender<Msg>>,
    max_in_flight: usize,
    shed_limit: Option<usize>,
    rate: Option<RateLimit>,
    /// The round barrier: in deterministic mode, the registrations
    /// still awaited before the first pass; `None` in fair mode.
    barrier: Option<usize>,
    buckets: BTreeMap<u32, TokenBucket>,
    /// The registered clients that are still open.
    registered: BTreeSet<u32>,
    draining: bool,
    log: IncidentLog,
}

impl Shard {
    /// The shard's loop. The shard holds a sender to its own channel
    /// (in `peers`), so the channel never disconnects: the shutdown
    /// message is the only way a shard exits.
    fn run(&mut self, rx: &Receiver<Msg>) {
        loop {
            // Messages first, so every registration and close is
            // visible to the barrier; then one serving pass per empty
            // inbox.
            let msg = if let Ok(msg) = rx.try_recv() {
                msg
            } else if self.barrier_open() && self.serve_pass() {
                continue;
            } else {
                // Nothing local: steal. Mark this shard idle before the
                // look, so a sibling that leaves work queued after it
                // finds the flag set and wakes us.
                self.shared[self.shard_id].idle.store(true, Ordering::SeqCst);
                if let Some(job) = self.steal() {
                    self.shared[self.shard_id].idle.store(false, Ordering::SeqCst);
                    self.grant(job);
                    continue;
                }
                // Block for the next message (a request, a Steal or the
                // shutdown message that ends the wait).
                let next = rx.recv();
                self.shared[self.shard_id].idle.store(false, Ordering::SeqCst);
                next.unwrap_or(Msg::Shutdown)
            };
            if !self.handle(msg) {
                break;
            }
        }
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Refuse everything still queued locally so no sink is left
        // dangling, then stop the pool partition.
        let jobs = std::mem::take(&mut *self.own_queue());
        for job in jobs {
            self.shared[job.home].in_flight.fetch_sub(1, Ordering::Relaxed);
            job.sink.send(Err(ServeError::Shutdown));
        }
        self.pool.shutdown();
    }

    fn own_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.shared[self.shard_id]
            .injector
            .lock()
            .expect("injector lock")
    }

    /// Applies one message; `false` means shut down.
    fn handle(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Register { client_id, reply } => {
                let result = if self.draining {
                    Err(ServeError::Draining)
                } else if self.registered.insert(client_id) {
                    // Each registration counts the barrier down; nothing
                    // counts it back up.
                    if let Some(awaited) = &mut self.barrier {
                        *awaited = awaited.saturating_sub(1);
                    }
                    Ok(())
                } else {
                    Err(ServeError::Protocol(format!(
                        "client id {client_id} is already registered"
                    )))
                };
                let _ = reply.send(result);
            }
            Msg::Request {
                client_id,
                nbytes,
                sink,
            } => self.admit(client_id, nbytes, sink),
            Msg::Close { client_id } => {
                self.registered.remove(&client_id);
                self.buckets.remove(&client_id);
                // Drop the client's still-queued jobs; anything already
                // stolen or granted completes into a stale token.
                let mut queue = self.own_queue();
                let dropped: Vec<Job> = {
                    let mut kept = VecDeque::with_capacity(queue.len());
                    let mut dropped = Vec::new();
                    while let Some(job) = queue.pop_front() {
                        if job.client_id == client_id {
                            dropped.push(job);
                        } else {
                            kept.push_back(job);
                        }
                    }
                    *queue = kept;
                    dropped
                };
                drop(queue);
                for job in dropped {
                    self.shared[job.home].in_flight.fetch_sub(1, Ordering::Relaxed);
                    job.sink.send(Err(ServeError::Shutdown));
                }
            }
            Msg::Status { reply } => {
                let _ = reply.send(self.pool.slot_status());
            }
            Msg::Drain { deadline, reply } => {
                self.draining = true;
                let drained = self.drain_until(deadline);
                if !drained {
                    self.log.record(
                        &format!("shard-{}", self.shard_id),
                        IncidentKind::DrainTimedOut,
                        "drain deadline hit; remainder refused",
                    );
                }
                let _ = reply.send(drained);
            }
            Msg::Chaos(action) => fire(&format!("shard-{}", self.shard_id), action),
            // Only wakes the loop; its idle path then steals.
            Msg::Steal => {}
            Msg::Shutdown => return false,
        }
        true
    }

    /// Serves the local queue until it is empty or the deadline
    /// passes; admission is already closed, and siblings may keep
    /// stealing concurrently. Anything left at the deadline is refused
    /// with [`ServeError::Draining`] — typed, never dropped.
    fn drain_until(&mut self, deadline: Instant) -> bool {
        loop {
            if Instant::now() >= deadline {
                let jobs = std::mem::take(&mut *self.own_queue());
                if jobs.is_empty() {
                    return true;
                }
                for job in jobs {
                    self.shared[job.home].in_flight.fetch_sub(1, Ordering::Relaxed);
                    job.sink.send(Err(ServeError::Draining));
                }
                return false;
            }
            let batch = self.pop_local_pass();
            if batch.is_empty() {
                return true;
            }
            for job in batch {
                self.grant(job);
            }
        }
    }

    /// Admission control, most severe class first; see module docs.
    fn admit(&mut self, client_id: u32, nbytes: usize, sink: Sink) {
        if self.draining {
            sink.send(Err(ServeError::Draining));
            return;
        }
        if !self.registered.contains(&client_id) {
            sink.send(Err(ServeError::Protocol(format!(
                "client {client_id} sent a request before registering"
            ))));
            return;
        }
        let queued: usize = self
            .shared
            .iter()
            .map(|s| s.in_flight.load(Ordering::Relaxed))
            .sum();
        if let Some(limit) = self.shed_limit {
            if queued >= limit {
                sink.send(Err(ServeError::Shedding { queued }));
                return;
            }
        }
        if let Some(limit) = self.rate {
            let bucket = self
                .buckets
                .entry(client_id)
                .or_insert_with(|| TokenBucket::new(&limit));
            if let Err(retry_after_us) = bucket.try_take(nbytes, &limit) {
                sink.send(Err(ServeError::RateLimited { retry_after_us }));
                return;
            }
        }
        let mine = self.shared[self.shard_id].in_flight.load(Ordering::Relaxed);
        if mine >= self.max_in_flight {
            sink.send(Err(ServeError::Busy { in_flight: mine }));
            return;
        }
        self.shared[self.shard_id]
            .in_flight
            .fetch_add(1, Ordering::Relaxed);
        self.own_queue().push_back(Job {
            nbytes,
            sink,
            client_id,
            home: self.shard_id,
        });
    }

    /// The pass gate. Fair mode serves whenever it has work. The round
    /// barrier opens once every expected client has registered, and
    /// then only while every registered, still-open client has a job
    /// queued.
    fn barrier_open(&self) -> bool {
        match self.barrier {
            None => true,
            Some(0) => {
                let queued: BTreeSet<u32> =
                    self.own_queue().iter().map(|job| job.client_id).collect();
                self.registered.is_subset(&queued)
            }
            Some(_) => false,
        }
    }

    /// One serving pass over the local queue (see
    /// [`Shard::pop_local_pass`]). Returns whether any grant was issued;
    /// an empty queue sends `run` down its stealing path.
    fn serve_pass(&mut self) -> bool {
        let batch = self.pop_local_pass();
        if batch.is_empty() {
            return false;
        }
        // Jobs this pass leaves queued wait behind the whole batch:
        // offer them to an idle sibling.
        if !self.own_queue().is_empty() {
            self.wake_idle_sibling();
        }
        for job in batch {
            self.grant(job);
        }
        true
    }

    /// Takes each client's oldest queued job, in ascending client id —
    /// the deficit-round-robin pass, and one round of the barrier.
    fn pop_local_pass(&mut self) -> Vec<Job> {
        let mut queue = self.own_queue();
        let mut taken = BTreeMap::new();
        let mut kept = VecDeque::with_capacity(queue.len());
        while let Some(job) = queue.pop_front() {
            match taken.entry(job.client_id) {
                Entry::Vacant(slot) => {
                    slot.insert(job);
                }
                Entry::Occupied(_) => kept.push_back(job),
            }
        }
        *queue = kept;
        taken.into_values().collect()
    }

    /// Swaps the first idle sibling's flag and sends it one `Steal`.
    fn wake_idle_sibling(&self) {
        for (k, shard) in self.shared.iter().enumerate() {
            if k != self.shard_id
                && shard.idle.swap(false, Ordering::SeqCst)
                && self.peers[k].send(Msg::Steal).is_ok()
            {
                return;
            }
        }
    }

    /// Steals the oldest job from the deepest sibling queue.
    fn steal(&self) -> Option<Job> {
        let mut victim: Option<usize> = None;
        let mut depth = 0usize;
        for (k, shard) in self.shared.iter().enumerate() {
            if k == self.shard_id {
                continue;
            }
            let queued = shard.injector.lock().expect("injector lock").len();
            if queued > depth {
                depth = queued;
                victim = Some(k);
            }
        }
        let victim = victim?;
        self.shared[victim]
            .injector
            .lock()
            .expect("injector lock")
            .pop_front()
    }

    fn grant(&mut self, job: Job) {
        /// Releases the home shard's budget on drop, so a panic inside
        /// `read_bytes` (the sink drops too — the client observes a
        /// typed disconnect) cannot leak the in-flight count and wedge
        /// admission forever.
        struct InFlightGuard<'a>(&'a AtomicUsize);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _guard = InFlightGuard(&self.shared[job.home].in_flight);
        let result = self.pool.read_bytes(job.nbytes);
        job.sink.send(result);
        self.pool.wake_workers();
    }
}

/// A scheduler fault, queued by [`EntropyService::inject`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Panic with an "injected" payload — the quarantine path.
    Panic,
    /// Sleep for the given duration — the wedged-unit/liveness path.
    Stall(Duration),
}

/// Fires a chaos fault the unit just dequeued: a panic for the
/// quarantine path, or a stall for the liveness path.
fn fire(unit: &str, action: ChaosAction) {
    match action {
        ChaosAction::Panic => panic!("injected {unit} panic"),
        ChaosAction::Stall(pause) => thread::sleep(pause),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use strent_trng::postprocess::ConditionerKind;

    fn small_serve_config(sources: usize, mode: SchedulerMode) -> ServeConfig {
        let mut pool = PoolConfig::mixed_default(sources, 42);
        pool.conditioner = ConditionerKind::Raw;
        pool.sample_period_factor = 2.37;
        pool.batch_raw_bits = 64;
        pool.warmup_periods = 16.0;
        let mut config = ServeConfig::new(pool, mode);
        config.workers = 2;
        config
    }

    #[test]
    fn single_client_stream_matches_the_pool_prefix() {
        let config = small_serve_config(
            2,
            SchedulerMode::Deterministic {
                expected_clients: 1,
            },
        );
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(0).expect("registers");
        let mut served = Vec::new();
        for n in [8usize, 16, 4] {
            let grant = client.request(n).expect("granted");
            assert_eq!(grant.len(), n);
            served.extend(grant);
        }
        client.close();
        service.shutdown().expect("clean shutdown");

        let mut pool = SourcePool::start(&config.pool, 1).expect("starts");
        let expected = pool.read_bytes(28).expect("reads");
        assert_eq!(served, expected, "served stream is the pool stream");
    }

    #[test]
    fn zero_budget_rejects_with_typed_busy() {
        let config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 0 });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(1).expect("registers");
        let err = client.request(8).expect_err("budget 0 rejects everything");
        assert!(err.is_busy(), "{err}");
        assert!(matches!(err, ServeError::Busy { in_flight: 0 }));
        assert_eq!(err.backpressure(), Some(crate::error::BackpressureClass::Busy));
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn fair_mode_serves_sequential_requests() {
        let config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 4 });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(9).expect("registers");
        let a = client.request(16).expect("granted");
        let b = client.request(16).expect("granted");
        assert_eq!(a.len(), 16);
        assert_ne!(a, b, "stream advances between grants");
        assert!(client.request(0).expect("trivial").is_empty());
        let status = service.status().expect("answers");
        assert_eq!(status.len(), 2);
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn sharded_fair_mode_serves_every_client_and_merges_status() {
        let mut config = small_serve_config(4, SchedulerMode::Fair { max_in_flight: 8 });
        config.shards = 2;
        let service = EntropyService::start(&config).expect("starts");
        // Clients 0/2 land on shard 0, clients 1/3 on shard 1.
        for id in 0..4u32 {
            let client = service.connect(id).expect("registers");
            let grant = client.request(24).expect("granted");
            assert_eq!(grant.len(), 24);
            client.close();
        }
        let status = service.status().expect("answers");
        assert_eq!(status.len(), 4, "all slots visible through the merge");
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn token_bucket_rejects_with_rate_limited_then_refills() {
        let mut config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 8 });
        // The slow refill keeps the bucket empty for 80 ms — wide
        // enough that scheduling hiccups between the burst grant and
        // the follow-up cannot refill it under a loaded test host.
        config.rate_limit = Some(RateLimit {
            bytes_per_sec: 200.0,
            burst_bytes: 16.0,
        });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(5).expect("registers");
        // The burst covers the first 16 bytes; the immediate follow-up
        // finds an empty bucket.
        let first = client.request(16).expect("burst granted");
        assert_eq!(first.len(), 16);
        let err = client.request(16).expect_err("bucket drained");
        let ServeError::RateLimited { retry_after_us } = err else {
            panic!("expected RateLimited, got {err}");
        };
        assert!(retry_after_us > 0);
        assert_eq!(
            err.backpressure(),
            Some(crate::error::BackpressureClass::RateLimited)
        );
        // 16 bytes at 200 B/s refill in 80 ms; wait it out and retry.
        thread::sleep(Duration::from_micros(retry_after_us) + Duration::from_millis(2));
        let retried = client.request(16).expect("refilled");
        assert_eq!(retried.len(), 16);
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn shed_limit_zero_rejects_with_shedding_before_any_other_class() {
        let mut config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 8 });
        config.shed_limit = Some(0);
        // Even with a rate limiter configured, shedding wins: it is the
        // most severe class and is checked first.
        config.rate_limit = Some(RateLimit {
            bytes_per_sec: 1e9,
            burst_bytes: 1e9,
        });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(2).expect("registers");
        let err = client.request(8).expect_err("shedding everything");
        assert!(matches!(err, ServeError::Shedding { queued: 0 }), "{err}");
        assert_eq!(
            err.backpressure(),
            Some(crate::error::BackpressureClass::Shedding)
        );
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn queued_requests_complete_through_the_completion_queue() {
        let config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 4 });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(7).expect("registers");
        let (wake_tx, mut wake_rx) = UnixStream::pair().expect("socketpair");
        wake_tx.set_nonblocking(true).expect("nonblocking");
        wake_rx
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let queue = Arc::new(CompletionQueue::new(wake_tx));
        client.request_queued(12, &queue, 0xA1).expect("queued");
        client.request_queued(0, &queue, 0xA2).expect("trivial");
        let mut done = Vec::new();
        while done.len() < 2 {
            // Every push writes one wake byte; block on it, the way the
            // event loop does, with the read timeout as the guard.
            wake_rx
                .read_exact(&mut [0u8; 1])
                .expect("completions never arrived");
            done.extend(queue.drain());
        }
        done.sort_by_key(|c| c.token);
        assert_eq!(done[0].token, 0xA1);
        assert_eq!(done[0].result.as_ref().expect("granted").len(), 12);
        assert_eq!(done[1].token, 0xA2);
        assert!(done[1].result.as_ref().expect("trivial").is_empty());
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn duplicate_client_ids_are_rejected() {
        let config = small_serve_config(
            2,
            SchedulerMode::Deterministic {
                expected_clients: 1,
            },
        );
        let service = EntropyService::start(&config).expect("starts");
        let _first = service.connect(3).expect("registers");
        let err = service.connect(3).expect_err("duplicate id");
        assert!(matches!(err, ServeError::Protocol(_)), "{err}");
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn drain_closes_admission_with_a_typed_refusal() {
        let config = small_serve_config(2, SchedulerMode::Fair { max_in_flight: 4 });
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(1).expect("registers");
        let first = client.request(8).expect("granted");
        assert_eq!(first.len(), 8);
        assert!(
            service.drain(Duration::from_secs(5)),
            "empty queues drain instantly"
        );
        let err = client.request(8).expect_err("draining refuses requests");
        assert!(matches!(err, ServeError::Draining), "{err}");
        let err = service.connect(9).expect_err("draining refuses registration");
        assert!(matches!(err, ServeError::Draining), "{err}");
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn panicked_shard_quarantines_and_reroutes_new_clients() {
        let mut config = small_serve_config(4, SchedulerMode::Fair { max_in_flight: 8 });
        config.shards = 2;
        let service = EntropyService::start(&config).expect("starts");
        // One panic quarantines shard 0 at once.
        service.inject(0, ChaosAction::Panic).expect("queued");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !service.quarantined()[0] {
            assert!(Instant::now() < deadline, "shard 0 was never quarantined");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(!service.quarantined()[1], "sibling stays healthy");
        // Client 0's home shard is dead; the connector walks to shard 1.
        let client = service.connect(0).expect("reroutes to the healthy sibling");
        let grant = client.request(16).expect("granted by the sibling");
        assert_eq!(grant.len(), 16);
        assert_eq!(service.incidents().count_of("panic"), 1);
        assert_eq!(service.incidents().count_of("quarantined"), 1);
        // The panic incident comes first and carries the payload text.
        let first = &service.incidents().snapshot()[0];
        assert_eq!(first.unit, "shard-0");
        assert_eq!(first.kind, IncidentKind::Panic);
        assert_eq!(first.detail, "injected shard-0 panic");
        client.close();
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn deterministic_digests_ignore_entropy_weighting_at_any_shard_count() {
        let serve = |shards: usize, weighting: bool| {
            let mut config = small_serve_config(
                3,
                SchedulerMode::Deterministic {
                    expected_clients: 1,
                },
            );
            config.shards = shards;
            config.entropy_weighting = weighting;
            let service = EntropyService::start(&config).expect("starts");
            let client = service.connect(0).expect("registers");
            let mut served = Vec::new();
            for n in [16usize, 8, 24] {
                served.extend(client.request(n).expect("granted"));
            }
            client.close();
            service.shutdown().expect("clean shutdown");
            served
        };
        // A deterministic-mode shard always consumes strictly, so the
        // weighting flag must never move a byte at any shard count.
        let baseline = serve(1, false);
        for shards in [1usize, 2, 8] {
            assert_eq!(
                serve(shards, true),
                baseline,
                "weighting perturbed the deterministic stream at {shards} shards"
            );
        }
    }

    #[test]
    fn fair_mode_entropy_weighting_publishes_estimates_and_serves() {
        let mut config = small_serve_config(3, SchedulerMode::Fair { max_in_flight: 8 });
        // A window small enough to saturate within the drill, so every
        // slot has a published verdict by the time we read the status.
        config.pool.entropy_order = 1;
        config.pool.entropy_window_bits = 128;
        config.pool.batch_raw_bits = 128;
        config.entropy_weighting = true;
        let service = EntropyService::start(&config).expect("starts");
        let client = service.connect(4).expect("registers");
        let grant = client.request(256).expect("granted under weighting");
        assert_eq!(grant.len(), 256);
        let status = service.status().expect("answers");
        assert_eq!(status.len(), 3);
        assert!(
            status.iter().all(|s| s.entropy.is_some()),
            "every slot delivered enough bits for a verdict: {status:?}"
        );
        let stats = crate::server::ServerStats::default();
        stats.publish_entropy(&status, config.pool.demotion_threshold());
        assert_eq!(stats.entropy_known(), 3);
        assert!(stats.entropy_min_millibits() > 0, "raw streams carry entropy");
        assert!(stats.entropy_demoted() <= 3);
        client.close();
        service.shutdown().expect("clean shutdown");
    }

    #[test]
    fn unregistered_request_is_a_protocol_error() {
        for mode in [
            SchedulerMode::Deterministic {
                expected_clients: 1,
            },
            SchedulerMode::Fair { max_in_flight: 4 },
        ] {
            let config = small_serve_config(2, mode);
            let service = EntropyService::start(&config).expect("starts");
            let registered = service.connect(0).expect("registers");
            // Forge a client handle that never registered.
            let rogue = EntropyClient {
                id: 99,
                tx: registered.tx.clone(),
            };
            let err = rogue.request(4).expect_err("must register first");
            assert!(matches!(err, ServeError::Protocol(_)), "{mode:?}: {err}");
            drop(rogue);
            registered.close();
            service.shutdown().expect("clean shutdown");
        }
    }
}
