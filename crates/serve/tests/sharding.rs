//! Integration tests for the sharded service: the deterministic-mode
//! shard-count invariance contract, the fair-mode shard/steal path and
//! the pass order, exercised through the public `EntropyService` API
//! end to end.

use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use strent_serve::{ChaosAction, CompletionQueue, SchedulerMode, ServeConfig, SourcePool};
use strent_sim::rng::fnv1a;
use strentropy::pool::PoolConfig;

fn small_pool(sources: usize) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, 4242);
    config.batch_raw_bits = 192;
    config
}

const CLIENTS: usize = 3;
const ROUNDS: usize = 4;

/// Bytes client `id` asks for in `round`: asymmetric sizes, so a
/// scheduling bug cannot hide behind uniform allocation.
fn request_size(id: usize, round: usize) -> usize {
    16 + 8 * id + 4 * round
}

/// Runs a deterministic-mode service at `shards` and returns each
/// client's full received stream, in client order. The traces are
/// uneven: client `id` closes after `ROUNDS - id` rounds, so the
/// barrier must keep serving the clients still open.
fn deterministic_streams(shards: usize) -> Vec<Vec<u8>> {
    let mut config = ServeConfig::new(
        small_pool(4),
        SchedulerMode::Deterministic {
            expected_clients: CLIENTS,
        },
    );
    config.shards = shards;
    let service = strent_serve::EntropyService::start(&config).expect("service starts");
    let connector = service.connector();
    let handles: Vec<_> = (0..CLIENTS as u32)
        .map(|id| {
            let connector = connector.clone();
            // Worker thread per in-process client; joined below.
            std::thread::Builder::new()
                .name(format!("det-client-{id}"))
                .spawn(move || {
                    let client = connector.connect(id).expect("registers");
                    let mut stream = Vec::new();
                    for round in 0..ROUNDS - id as usize {
                        let nbytes = request_size(id as usize, round);
                        stream.extend(client.request(nbytes).expect("grant"));
                    }
                    stream
                })
                .expect("spawns")
        })
        .collect();
    let streams: Vec<Vec<u8>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    service.shutdown().expect("clean shutdown");
    streams
}

/// The determinism contract of `docs/serving.md`, extended to shards:
/// every client's byte stream is bit-identical at 1, 2 and 8 shards.
#[test]
fn deterministic_streams_are_shard_count_invariant() {
    let baseline = deterministic_streams(1);
    assert!(baseline.iter().all(|s| !s.is_empty()));
    for shards in [2usize, 8] {
        let streams = deterministic_streams(shards);
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
    let streams = deterministic_streams(1);
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut pool = SourcePool::start(&small_pool(4), 1).expect("pool starts");
    let raw = pool.read_bytes(total).expect("pool produces");
    pool.shutdown();
    // Re-allocate the raw stream with the documented barrier policy:
    // each round serves every client still open, in id order, FCFS.
    let mut replayed: Vec<Vec<u8>> = vec![Vec::new(); CLIENTS];
    let mut cursor = 0usize;
    for round in 0..ROUNDS {
        for (id, replay) in replayed.iter_mut().enumerate() {
            if round < ROUNDS - id {
                let nbytes = request_size(id, round);
                replay.extend(&raw[cursor..cursor + nbytes]);
                cursor += nbytes;
            }
        }
    }
    assert_eq!(cursor, total);
    assert_eq!(streams, replayed);
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
