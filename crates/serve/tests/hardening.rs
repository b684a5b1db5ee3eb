//! Integration tests for the socket frontend's hardening layer:
//! idle-connection reaping, per-connection error budgets, peers that
//! vanish mid-frame or mid-request, the typed backpressure classes, a
//! thousand multiplexed connections, the graceful drain state machine
//! and the resilient client, all exercised over a live Unix-domain
//! socket.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

use common::drill_pool;
use strent_rings::surrogate::SourceBackend;
use strent_serve::mux::{self, LoadMode, MuxConfig};
use strent_serve::wire::{self, OP_ERR, OP_HELLO, OP_HELLO_OK, OP_OK, OP_REQ};
use strent_serve::{
    ChaosAction, CompletionQueue, EntropyService, RateLimit, SchedulerMode, ServeConfig,
    ServeError, ServerOptions, UdsClient, UdsServer,
};
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

/// A connection that completes HELLO and then goes silent (the
/// slowloris shape) is reaped once the idle timeout passes, counted in
/// the typed `idle_reaped` stat, and the server keeps serving.
#[test]
fn idle_connections_are_reaped_and_counted() {
    let service = fair_service();
    let path = sock_path("reap");
    let options = ServerOptions {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerOptions::default()
    };
    let server = UdsServer::start_with_options(service.connector(), &path, options)
        .expect("server starts");
    let stats = server.stats();

    // The slowloris peer: registers, then never sends another byte.
    let slow = UdsClient::connect(&path, 1).expect("slow client registers");
    // A healthy client proves the loop stays live around the reap.
    let mut healthy = UdsClient::connect(&path, 2).expect("healthy client registers");
    assert_eq!(healthy.request(16).expect("grant").len(), 16);

    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.idle_reaped() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        stats.idle_reaped() >= 1,
        "idle connection was never reaped (reaped={})",
        stats.idle_reaped()
    );

    // Fresh connections are still accepted and served after the reap.
    let mut fresh = UdsClient::connect(&path, 3).expect("post-reap client registers");
    assert_eq!(fresh.request(8).expect("grant").len(), 8);
    drop((slow, healthy, fresh));
    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// Decodable-but-invalid frames are answered with typed `ERR` frames
/// and charged against the error budget: the connection keeps working
/// under the budget (a valid request still succeeds between poisons)
/// and is closed only once the budget is spent.
#[test]
fn error_budget_tolerates_poison_frames_then_closes() {
    let service = fair_service();
    let path = sock_path("budget");
    let options = ServerOptions {
        idle_timeout: None,
        error_budget: 3,
    };
    let server = UdsServer::start_with_options(service.connector(), &path, options)
        .expect("server starts");

    // Replies below are bounded by raw_hello's read timeout.
    let mut stream = raw_hello(&path, 9);

    // Three poison frames (opcode outside the protocol): each one is
    // an ERR reply, none closes the connection.
    for strike in 1..=3u32 {
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

    // The fourth strike exceeds the budget: one last ERR, then EOF.
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

/// The resilient request path survives a dropped connection: after
/// `reconnect` the same client id is re-registered and served, and
/// `request_resilient` succeeds within its deadline.
#[test]
fn resilient_client_reconnects_and_serves() {
    let service = fair_service();
    let path = sock_path("resilient");
    let server = UdsServer::start(service.connector(), &path).expect("server starts");

    let mut client = UdsClient::connect(&path, 57).expect("registers");
    assert_eq!(
        client
            .request_resilient(24, Duration::from_secs(10))
            .expect("grant")
            .len(),
        24
    );
    client.reconnect().expect("reconnects under the same id");
    assert_eq!(
        client
            .request_resilient(40, Duration::from_secs(10))
            .expect("grant after reconnect")
            .len(),
        40
    );
    drop(client);
    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// All three typed backpressure classes reach socket clients. Every
/// budget is starved at once: 2 shards admitting 1 request each, a
/// trickle token bucket and a service-wide shed watermark of 2. A
/// multiplexed closed loop meets `BUSY` and `RATE_LIMITED`; under that
/// load `SHEDDING` needs both shards to hold admitted work at the same
/// instant, which [`held_shed`] then makes certain.
#[test]
fn all_three_backpressure_classes_reach_socket_clients() {
    let mut config = ServeConfig::new(
        drill_pool(4, SourceBackend::Surrogate),
        SchedulerMode::Fair { max_in_flight: 1 },
    );
    config.shards = 2;
    config.rate_limit = Some(RateLimit {
        bytes_per_sec: 4096.0,
        burst_bytes: 32.0,
    });
    config.shed_limit = Some(2);
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
    let shed = report.shed + held_shed(&service, &path);
    // (busy, rate_limited, shed) replies seen.
    let seen = (report.busy, report.rate_limited, shed);
    assert!(report.busy > 0, "no BUSY reply: {seen:?}");
    assert!(report.rate_limited > 0, "no RATE_LIMITED reply: {seen:?}");
    assert!(shed > 0, "no SHEDDING reply: {seen:?}");
    assert_eq!(server.stats().accept_errors(), 0);
    server.shutdown().expect("server stops");
    service.shutdown().expect("service stops");
}

/// Makes both shards hold admitted work at once, then sends one socket
/// request into that overlap. Each shard is sent a stall, an in-process
/// holder's request and a second stall; the first stall keeps the
/// shard from serving until the other two are queued behind it, so the
/// shard admits the request (its in-flight budget of 1) and stalls
/// again with it queued. Shard 1 holds longest. A socket client homed
/// on shard 0 then meets a service-wide queued count of 2, the
/// watermark. Returns 1 if it was told `SHEDDING`, else 0.
fn held_shed(service: &EntropyService, path: &Path) -> u64 {
    // Registered before any stall: registration blocks the event loop
    // until the home shard answers.
    let mut probe = UdsClient::connect(path, 100).expect("probe registers");
    let (wake, mut wake_rx) = UnixStream::pair().expect("socketpair");
    wake.set_nonblocking(true).expect("nonblocking");
    let grants = Arc::new(CompletionQueue::new(wake));
    let mut holders = Vec::new();
    for (shard, hold_ms) in [(0u32, 50), (1, 300)] {
        let holder = service.connect(200 + shard).expect("holder registers");
        let unit = shard as usize;
        service
            .inject(unit, ChaosAction::Stall(Duration::from_millis(50)))
            .expect("stall queued");
        holder.request_queued(16, &grants, 0).expect("queued");
        service
            .inject(unit, ChaosAction::Stall(Duration::from_millis(hold_ms)))
            .expect("stall queued");
        holders.push(holder);
    }
    let shed = match probe.request(16) {
        Err(ServeError::Shedding { .. }) => 1,
        Err(e) => {
            assert!(e.backpressure().is_some(), "probe failed: {e}");
            0
        }
        Ok(_) => 0,
    };
    // Both holders are granted once the stalls end.
    wake_rx
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut granted = 0;
    while granted < holders.len() {
        wake_rx
            .read_exact(&mut [0u8; 1])
            .expect("held grants arrive before the read timeout");
        granted += grants.drain().len();
    }
    shed
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
