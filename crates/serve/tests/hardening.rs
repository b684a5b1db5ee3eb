//! Integration tests for the socket frontend's hardening layer:
//! per-connection error budgets, peers that vanish mid-frame or
//! mid-request, the typed `BUSY` refusal, a thousand multiplexed
//! connections and the graceful drain state machine, all exercised over
//! a live Unix-domain socket.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

mod common;

use common::drill_pool;
use strent_rings::surrogate::SourceBackend;
use strent_serve::mux::{self, LoadMode, MuxConfig};
use strent_serve::server::ERROR_BUDGET;
use strent_serve::wire::{self, OP_ERR, OP_HELLO, OP_HELLO_OK, OP_OK, OP_REQ};
use strent_serve::{EntropyService, SchedulerMode, ServeConfig, UdsClient, UdsServer};
use strentropy::pool::PoolConfig;

fn small_pool() -> PoolConfig {
    let mut config = PoolConfig::mixed_default(2, 7341);
    config.batch_raw_bits = 192;
    config
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("strent-hard-{tag}-{}.sock", std::process::id()))
}

fn fair_service() -> EntropyService {
    let config = ServeConfig::new(small_pool(), SchedulerMode::Fair { max_in_flight: 8 });
    EntropyService::start(&config).expect("service starts")
}

/// Registers `id` over a bare stream, so a test can send byte sequences
/// no well-behaved client would.
fn raw_hello(path: &Path, id: u32) -> UnixStream {
    let mut stream = UnixStream::connect(path).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout set");
    wire::write_frame(&mut stream, OP_HELLO, &id.to_le_bytes()).expect("hello");
    // Bounded by the read timeout set above.
    let (op, _) = wire::read_frame(&mut stream).expect("hello reply");
    assert_eq!(op, OP_HELLO_OK);
    stream
}

/// Decodable-but-invalid frames are answered with typed `ERR` frames
/// and charged against the error budget: the connection keeps working
/// under the budget (a valid request still succeeds between poisons)
/// and is closed only once the budget is spent.
#[test]
fn error_budget_tolerates_poison_frames_then_closes() {
    assert_eq!(ERROR_BUDGET, 4);
    let service = fair_service();
    let path = sock_path("budget");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");

    // Replies below are bounded by raw_hello's read timeout.
    let mut stream = raw_hello(&path, 9);

    // Four poison frames (opcode outside the protocol): each one is
    // an ERR reply, none closes the connection.
    for strike in 1..=ERROR_BUDGET {
        wire::write_frame(&mut stream, 0x40, &[]).expect("poison accepted");
        let (op, payload) = wire::read_frame(&mut stream).expect("err reply");
        assert_eq!(op, OP_ERR, "strike {strike} must get a typed ERR");
        assert!(String::from_utf8_lossy(&payload).contains("protocol violation"));
    }

    // The connection is still functional under the budget.
    wire::write_frame(&mut stream, OP_REQ, &16u32.to_le_bytes()).expect("req");
    let (op, payload) = wire::read_frame(&mut stream).expect("grant reply");
    assert_eq!(op, OP_OK);
    assert_eq!(payload.len(), 16);

    // The fifth strike exceeds the budget: one last ERR, then EOF.
    wire::write_frame(&mut stream, 0x41, &[]).expect("final poison");
    let (op, _) = wire::read_frame(&mut stream).expect("final err");
    assert_eq!(op, OP_ERR);
    if let Ok((op, _)) = wire::read_frame(&mut stream) {
        panic!("expected close after budget, got opcode 0x{op:02x}");
    }

    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// Peers that vanish mid-frame or mid-request cost nothing but their
/// own work. A frame header cut at each of its first four bytes, and a
/// client that writes one more `REQ` after two grants and then leaves
/// without reading, leave the loop serving: every fully written `REQ`
/// except the abandoned one is answered `OK` at its length (the request
/// ledger balances, with no silent drop).
#[test]
fn partial_writes_and_abandoned_requests_drop_no_grant() {
    let service = fair_service();
    let path = sock_path("vanish");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");

    let mut frame = Vec::new();
    wire::encode_frame(&mut frame, OP_REQ, &16u32.to_le_bytes()).expect("encodes");
    for cut in 1..5u32 {
        let mut partial = raw_hello(&path, 10 + cut);
        partial
            .write_all(&frame[..cut as usize])
            .expect("partial write");
        drop(partial);
        assert!(
            grants_in_full(&mut raw_hello(&path, 20 + cut), 16),
            "after a header cut at {cut}"
        );
    }

    let mut vanishing = raw_hello(&path, 30);
    for nbytes in [24, 40] {
        assert!(
            grants_in_full(&mut vanishing, nbytes),
            "vanishing client's {nbytes} B request"
        );
    }
    // Gone with a request in flight: its grant lands on a stale
    // connection and is dropped by design.
    wire::write_frame(&mut vanishing, OP_REQ, &32u32.to_le_bytes()).expect("req");
    drop(vanishing);
    assert!(
        grants_in_full(&mut raw_hello(&path, 31), 16),
        "after a client vanished mid-request"
    );

    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// Writes one `REQ` for `nbytes` and reads the reply: whether it is
/// `OK` at that length.
fn grants_in_full(stream: &mut UnixStream, nbytes: u32) -> bool {
    wire::write_frame(stream, OP_REQ, &nbytes.to_le_bytes()).expect("req");
    // Bounded by raw_hello's read timeout.
    let (op, payload) = wire::read_frame(stream).expect("reply");
    op == OP_OK && payload.len() == nbytes as usize
}

/// `shutdown_graceful` reports a clean drain when every grant has been
/// delivered and every write buffer flushed before the deadline.
#[test]
fn graceful_shutdown_drains_cleanly() {
    let service = fair_service();
    let path = sock_path("drain");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");

    let mut client = UdsClient::connect(&path, 31).expect("registers");
    for _ in 0..4 {
        assert_eq!(client.request(32).expect("grant").len(), 32);
    }
    client.close().expect("close frame");

    let drained = server
        .shutdown_graceful(Duration::from_secs(10))
        .expect("no event-loop panic");
    assert!(drained, "drain must quiesce with no in-flight work left");
    let drained = service
        .shutdown_graceful(Duration::from_secs(10))
        .expect("no shard panic");
    assert!(drained, "the scheduler tier must drain cleanly too");
}

/// The typed `BUSY` refusal reaches socket clients: 2 shards admitting
/// 1 request each meet a multiplexed closed loop of 16 connections.
#[test]
fn typed_busy_reaches_socket_clients() {
    let mut config = ServeConfig::new(
        drill_pool(4, SourceBackend::Surrogate),
        SchedulerMode::Fair { max_in_flight: 1 },
    );
    config.shards = 2;
    let service = EntropyService::start(&config).expect("service starts");
    let path = sock_path("backpressure");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");
    let load = MuxConfig {
        connections: 16,
        requests_per_conn: 6,
        nbytes: 16,
        mode: LoadMode::Closed,
        first_client_id: 0,
        retry_backpressure: true,
        deadline: Duration::from_secs(60),
    };
    let report = mux::run(&path, &load).expect("mux run");
    assert!(report.busy > 0, "no BUSY reply in {} grants", report.grants);
    assert_eq!(report.errors, 0, "mux errors");
    assert_eq!(server.stats().accept_errors(), 0);
    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// One event-loop thread multiplexes 1024 connections: every connection
/// completes with zero errors, the server counts every accept and no
/// accept or register error, every slot is released once the clients
/// leave, and shutdown is clean and removes the socket file.
#[test]
fn a_thousand_multiplexed_connections_are_served_and_released() {
    const CONNS: usize = 1024;
    let mut config = ServeConfig::new(
        drill_pool(8, SourceBackend::Surrogate),
        SchedulerMode::Fair { max_in_flight: 64 },
    );
    config.shards = 4;
    let service = EntropyService::start(&config).expect("service starts");
    let path = sock_path("thousand");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");
    let stats = server.stats();
    let load = MuxConfig {
        connections: CONNS,
        requests_per_conn: 2,
        nbytes: 16,
        mode: LoadMode::Closed,
        first_client_id: 0,
        retry_backpressure: true,
        deadline: Duration::from_secs(180),
    };
    let report = mux::run(&path, &load).expect("mux run");
    assert_eq!(report.completed_conns, CONNS, "connections left unfinished");
    assert_eq!(report.errors, 0, "mux errors");
    let grants = report.grants;
    assert!(grants >= 2 * CONNS as u64, "only {grants} grants");
    assert!(stats.accepted() >= CONNS as u64);
    assert_eq!(stats.accept_errors(), 0);
    assert_eq!(stats.register_errors(), 0);
    // The clients have all disconnected; the event loop observes the
    // EOFs and releases every slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.active() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections never released",
            stats.active()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
    assert!(!path.exists(), "server left its socket behind");
}
