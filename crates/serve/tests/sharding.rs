//! Integration tests for the sharded service, through the public
//! `EntropyService` API end to end: the deterministic-mode contract
//! (served bytes pinned to exact digests and invariant to the shard
//! count, the frontend and an injected stall), and the fair-mode
//! shard/steal path and pass order.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;

use common::{drill_pool, SEED};
use strent_rings::surrogate::SourceBackend;
use strent_serve::{
    ChaosAction, CompletionQueue, EntropyClient, EntropyService, SchedulerMode, ServeConfig,
    SourcePool, UdsClient, UdsServer,
};
use strent_sim::rng::{fnv1a, splitmix64};
use strentropy::pool::PoolConfig;

/// fnv1a64 of the drill trace's served bytes (all clients, in id
/// order) on the full simulation. A change that moves the served bytes
/// on purpose updates this and says why in CHANGES.md.
const FULL_SIM_DIGEST: u64 = 0x3fb4_ddb8_e14a_b22c;

/// The same digest on the calibrated surrogate backend.
const SURROGATE_DIGEST: u64 = 0x3004_45d1_799c_89a9;

fn small_pool(sources: usize) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, 4242);
    config.batch_raw_bits = 192;
    config
}

/// Bytes client `client` asks for in `round` of the drill trace: sizes
/// vary by (client, round), so the allocation exercises uneven grants.
fn drill_request(client: usize, round: usize) -> usize {
    1 + (32 + 7 * client + 3 * round) % 64
}

/// The drill trace: 3 clients x 6 requests.
fn drill_trace() -> Vec<Vec<usize>> {
    (0..3)
        .map(|client| (0..6).map(|round| drill_request(client, round)).collect())
        .collect()
}

/// An uneven trace: client `id` asks for `16 + 8 id + 4 round` bytes
/// and closes after `4 - id` rounds, so the barrier must keep serving
/// the clients still open.
fn uneven_trace() -> Vec<Vec<usize>> {
    (0..3)
        .map(|id| (0..4 - id).map(|round| 16 + 8 * id + 4 * round).collect())
        .collect()
}

/// Every parameter of one chaos drill, derived from one seed with
/// splitmix64 steps: no wall clock or OS randomness, so a drill replays
/// identically run after run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChaosPlan {
    /// Request index a client queues a scheduler stall ahead of.
    scheduler_stall_after_request: u64,
    /// Length of the stall, milliseconds.
    stall_ms: u64,
}

impl ChaosPlan {
    fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        let scheduler_stall_after_request = 2 + next() % 10;
        let stall_ms = 10 + next() % 25;
        ChaosPlan {
            scheduler_stall_after_request,
            stall_ms,
        }
    }

    /// The stall as a `(request index, fault)` pair. An index past a
    /// trace of `requests` lands before its last request, so a short
    /// trace still injects it.
    fn scheduler_stall(&self, requests: usize) -> (usize, ChaosAction) {
        let at = usize::try_from(self.scheduler_stall_after_request)
            .map_or(requests - 1, |k| k.min(requests - 1));
        (at, ChaosAction::Stall(Duration::from_millis(self.stall_ms)))
    }
}

/// How the clients of a deterministic run reach the service.
#[derive(Debug, Clone, Copy)]
enum Frontend {
    InProcess,
    Socket,
}

enum Client {
    InProcess(EntropyClient),
    Socket(UdsClient),
}

impl Client {
    fn request(&mut self, nbytes: usize) -> Vec<u8> {
        match self {
            Client::InProcess(client) => client.request(nbytes),
            Client::Socket(client) => client.request(u32::try_from(nbytes).expect("small request")),
        }
        .expect("grant")
    }

    fn close(self) {
        match self {
            Client::InProcess(client) => client.close(),
            Client::Socket(client) => client.close().expect("close frame"),
        }
    }
}

/// Serves `trace` (client `c` asks for `trace[c]` in order, then
/// closes) in deterministic mode at `shards` and returns each client's
/// received stream, in client order. With a `plan`, client 0 queues
/// the plan's scheduler stall ahead of its request.
fn deterministic_streams(
    pool: &PoolConfig,
    trace: &[Vec<usize>],
    frontend: Frontend,
    shards: usize,
    plan: Option<&ChaosPlan>,
) -> Vec<Vec<u8>> {
    static SOCKETS: AtomicUsize = AtomicUsize::new(0);
    let stall = plan.map(|plan| plan.scheduler_stall(trace[0].len()));
    let mut config = ServeConfig::new(
        pool.clone(),
        SchedulerMode::Deterministic {
            expected_clients: trace.len(),
        },
    );
    config.shards = shards;
    let service = EntropyService::start(&config).expect("service starts");
    let path = std::env::temp_dir().join(format!(
        "strent-shard-{}-{}.sock",
        std::process::id(),
        SOCKETS.fetch_add(1, Ordering::Relaxed)
    ));
    let server = match frontend {
        Frontend::InProcess => None,
        Frontend::Socket => {
            Some(UdsServer::start(service.connector(), &path).expect("server starts"))
        }
    };
    let streams = std::thread::scope(|scope| {
        let handles: Vec<_> = trace
            .iter()
            .enumerate()
            .map(|(id, sizes)| {
                let stall = stall.filter(|_| id == 0);
                let (service, path) = (&service, &path);
                // One thread per client; joined below. Every request is
                // bounded by the client's reply timeout.
                scope.spawn(move || {
                    let id32 = u32::try_from(id).expect("small id");
                    let mut client = match frontend {
                        Frontend::InProcess => {
                            Client::InProcess(service.connect(id32).expect("registers"))
                        }
                        Frontend::Socket => {
                            Client::Socket(UdsClient::connect(path, id32).expect("registers"))
                        }
                    };
                    let mut stream = Vec::new();
                    for (round, &nbytes) in sizes.iter().enumerate() {
                        if let Some((_, fault)) = stall.filter(|&(at, _)| at == round) {
                            service.inject(0, fault).expect("fault queued");
                        }
                        stream.extend(client.request(nbytes));
                    }
                    client.close();
                    stream
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    if let Some(server) = server {
        server.shutdown().expect("server stops");
        assert!(!path.exists(), "server left its socket behind");
    }
    service.shutdown().expect("clean shutdown");
    streams
}

/// Replays the barrier allocation of `trace` from a bare single-worker
/// pool: each round serves every client still open, in id order.
fn replay_allocation(pool: &PoolConfig, trace: &[Vec<usize>]) -> Vec<Vec<u8>> {
    let mut pool = SourcePool::start(pool, 1).expect("pool starts");
    let rounds = trace.iter().map(Vec::len).max().unwrap_or(0);
    let mut streams = vec![Vec::new(); trace.len()];
    for round in 0..rounds {
        for (stream, sizes) in streams.iter_mut().zip(trace) {
            if let Some(&nbytes) = sizes.get(round) {
                stream.extend(pool.read_bytes(nbytes).expect("pool produces"));
            }
        }
    }
    pool.shutdown();
    streams
}

#[test]
fn chaos_plans_are_seed_deterministic_and_distinct() {
    assert_eq!(
        ChaosPlan::derive(7),
        ChaosPlan::derive(7),
        "same seed, same plan"
    );
    assert_ne!(
        ChaosPlan::derive(7),
        ChaosPlan::derive(8),
        "different seeds diverge"
    );
}

/// The served bytes themselves, not just their invariance: the drill
/// trace yields one pinned digest per backend, at shards 1, 2 and 8
/// (so 1, 2 and 8 producer workers), in process and over the socket,
/// and with a scheduler stall injected under three plan seeds. A stall
/// may cost time, never bytes.
#[test]
fn served_bytes_match_the_pinned_digests() {
    let trace = drill_trace();
    let digest = |streams: &[Vec<u8>]| fnv1a(&streams.concat());

    let full = drill_pool(3, SourceBackend::FullSim);
    let replay = replay_allocation(&full, &trace);
    assert_eq!(digest(&replay), FULL_SIM_DIGEST, "pool replay digest moved");
    for shards in [1usize, 2, 8] {
        let streams = deterministic_streams(&full, &trace, Frontend::InProcess, shards, None);
        assert_eq!(streams, replay, "full sim at {shards} shards");
    }
    let over_socket = deterministic_streams(&full, &trace, Frontend::Socket, 1, None);
    assert_eq!(over_socket, replay, "full sim over the socket");

    let surrogate = drill_pool(3, SourceBackend::Surrogate);
    // Plan seeds 42, 40545 and 81048.
    let [base, second, third] = [0u64, 1, 2].map(|k| ChaosPlan::derive(SEED + k * 0x9E37));
    let runs = [
        (1, None),
        (2, None),
        (8, None),
        (1, Some(base)),
        (2, Some(base)),
        (8, Some(base)),
        (1, Some(second)),
        (1, Some(third)),
    ];
    for (shards, plan) in runs {
        let streams = deterministic_streams(
            &surrogate,
            &trace,
            Frontend::InProcess,
            shards,
            plan.as_ref(),
        );
        assert_eq!(
            digest(&streams),
            SURROGATE_DIGEST,
            "surrogate at {shards} shards, plan {plan:?}"
        );
    }
}

/// The determinism contract of `docs/serving.md`, extended to shards:
/// every client's byte stream is bit-identical at 1, 2 and 8 shards.
#[test]
fn deterministic_streams_are_shard_count_invariant() {
    let trace = uneven_trace();
    let baseline = deterministic_streams(&small_pool(4), &trace, Frontend::InProcess, 1, None);
    assert!(baseline.iter().all(|s| !s.is_empty()));
    for shards in [2usize, 8] {
        let streams =
            deterministic_streams(&small_pool(4), &trace, Frontend::InProcess, shards, None);
        for (id, (a, b)) in baseline.iter().zip(&streams).enumerate() {
            assert_eq!(
                fnv1a(a),
                fnv1a(b),
                "client {id} digest differs at {shards} shards"
            );
            assert_eq!(a, b, "client {id} stream differs at {shards} shards");
        }
    }
}

/// The deterministic allocation is also replayable from a bare pool:
/// concatenating the clients' streams in barrier order reproduces the
/// pool's round-robin interleave (no served byte is dropped, reordered
/// or fabricated by the scheduler).
#[test]
fn deterministic_allocation_replays_from_the_pool() {
    let trace = uneven_trace();
    let streams = deterministic_streams(&small_pool(4), &trace, Frontend::InProcess, 1, None);
    assert_eq!(streams, replay_allocation(&small_pool(4), &trace));
}

/// Fair mode shards real work: with more clients than shards, every
/// shard serves someone, each client gets exactly the bytes it asked
/// for, and client→shard routing is stable (`id % shards`).
#[test]
fn fair_mode_serves_across_shards() {
    const CLIENTS: u32 = 6;
    let mut config = ServeConfig::new(
        small_pool(4),
        SchedulerMode::Fair { max_in_flight: 4 },
    );
    config.shards = 2;
    let service = strent_serve::EntropyService::start(&config).expect("service starts");
    let connector = service.connector();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let connector = connector.clone();
            // Worker thread per in-process client; joined below.
            std::thread::Builder::new()
                .name(format!("fair-client-{id}"))
                .spawn(move || {
                    let client = connector.connect(id).expect("registers");
                    let mut got = 0usize;
                    for _ in 0..3 {
                        got += client.request(24).expect("grant").len();
                    }
                    (id, got)
                })
                .expect("spawns")
        })
        .collect();
    let mut per_client = BTreeMap::new();
    for handle in handles {
        let (id, got) = handle.join().expect("client thread");
        per_client.insert(id, got);
    }
    service.shutdown().expect("clean shutdown");
    assert_eq!(per_client.len(), CLIENTS as usize);
    assert!(per_client.values().all(|&got| got == 72));
}

/// Work stealing needs no polling. Shard 0 admits a large and a small
/// request from one client in the same pass, but serves one request
/// per client per pass, so the small one waits in its queue while the
/// large grant runs. The idle shard 1 is woken by a `Steal` message,
/// steals it and serves it from its own partition: its bytes are the
/// head of partition 1's stream.
#[test]
fn idle_shard_steals_what_a_busy_sibling_leaves_queued() {
    const LARGE: usize = 1024;
    const SMALL: usize = 24;
    let mut config = ServeConfig::new(
        small_pool(4),
        SchedulerMode::Fair { max_in_flight: 4 },
    );
    config.shards = 2;
    let service = strent_serve::EntropyService::start(&config).expect("service starts");
    let client = service.connect(0).expect("registers on shard 0");
    let (wake_tx, mut wake_rx) = UnixStream::pair().expect("socketpair");
    wake_tx.set_nonblocking(true).expect("nonblocking");
    wake_rx
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let queue = Arc::new(CompletionQueue::new(wake_tx));
    // The stall holds shard 0 while both requests queue up behind it,
    // so one drain admits them both.
    service
        .inject(0, ChaosAction::Stall(Duration::from_millis(200)))
        .expect("queued");
    client.request_queued(LARGE, &queue, 1).expect("queued");
    client.request_queued(SMALL, &queue, 2).expect("queued");
    let mut done = Vec::new();
    while done.len() < 2 {
        wake_rx
            .read_exact(&mut [0u8; 1])
            .expect("both grants arrive before the read timeout");
        done.extend(queue.drain());
    }
    drop(client);
    service.shutdown().expect("clean shutdown");
    let small = done
        .into_iter()
        .find(|c| c.token == 2)
        .expect("small completion")
        .result
        .expect("small grant");
    let mut partition = SourcePool::start_partition(&config.pool, 2, 1, 1).expect("starts");
    let head = partition.read_bytes(SMALL).expect("replays");
    partition.shutdown();
    assert_eq!(small, head, "shard 1 did not steal the queued request");
}

/// One pass grants in ascending client id, whatever order the requests
/// arrived in. The stall holds the shard while client 2 and then
/// client 0 queue a request, so one pass takes both: client 0's grant
/// is the head of the pool stream and client 2's the next 16 bytes.
#[test]
fn a_pass_grants_in_ascending_client_id() {
    const NBYTES: usize = 16;
    let config = ServeConfig::new(small_pool(4), SchedulerMode::Fair { max_in_flight: 4 });
    let service = strent_serve::EntropyService::start(&config).expect("service starts");
    let late = service.connect(2).expect("registers");
    let early = service.connect(0).expect("registers");
    let (wake_tx, mut wake_rx) = UnixStream::pair().expect("socketpair");
    wake_tx.set_nonblocking(true).expect("nonblocking");
    wake_rx
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let queue = Arc::new(CompletionQueue::new(wake_tx));
    service
        .inject(0, ChaosAction::Stall(Duration::from_millis(200)))
        .expect("queued");
    late.request_queued(NBYTES, &queue, 2).expect("queued");
    early.request_queued(NBYTES, &queue, 0).expect("queued");
    let mut done = BTreeMap::new();
    while done.len() < 2 {
        wake_rx
            .read_exact(&mut [0u8; 1])
            .expect("both grants arrive before the read timeout");
        for completion in queue.drain() {
            done.insert(completion.token, completion.result.expect("granted"));
        }
    }
    drop((late, early));
    service.shutdown().expect("clean shutdown");
    let mut pool = SourcePool::start(&config.pool, 1).expect("pool starts");
    let head = pool.read_bytes(2 * NBYTES).expect("replays");
    pool.shutdown();
    assert_eq!(done[&0], head[..NBYTES], "client 0 is granted first");
    assert_eq!(done[&2], head[NBYTES..], "client 2 is granted second");
}
