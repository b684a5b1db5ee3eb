//! Chaos drill for `strent-serve`: injects a seed-deterministic fault
//! plan into a live service and asserts the self-healing contract,
//! emitting `BENCH_chaos.json` (schema `strentropy-bench-chaos/2`) with
//! five sections:
//!
//! * `determinism` — deterministic round-barrier runs at 1, 2 and 8
//!   shards, chaos OFF and chaos ON (worker panic plus scheduler
//!   panic/stall), and chaos ON across three distinct chaos seeds: the
//!   served byte stream must be bit-identical in every run, proving
//!   recovery is byte-transparent;
//! * `recovery` — a fair-mode run with the plan's scheduler panic and
//!   stall injected, every grant latency measured: the service must
//!   restart, serve every request, and keep the worst grant under the
//!   recovery bound (no unbounded outage, no silent drop);
//! * `quarantine_storm` — a shard sent one panic more than its restart
//!   budget must escalate, be quarantined, and have new clients
//!   rerouted to its healthy sibling;
//! * `uds` — misbehaving socket clients against the poll frontend:
//!   slowloris (reaped by the idle timeout), poison frames (typed `ERR`
//!   under the error budget, closed past it, with a valid request still
//!   served in between), a mid-frame partial write, and a mid-stream
//!   disconnect with a request outstanding — with full request
//!   accounting proving zero silent drops;
//! * `drain` — the graceful shutdown state machine on both the socket
//!   frontend and the scheduler tier must report a clean drain.
//!
//! Every injection parameter derives from `--seed` (see
//! `strent_serve::chaos::ChaosPlan`); the drill replays identically.
//! Scheduler faults are messages (`EntropyService::inject`) that a
//! drill client queues right before a given request index, so they
//! fire between two grants.
//! The JSON is hand-formatted — the workspace builds offline against
//! stub crates, so no serializer is assumed.
//!
//! Usage: `serve_chaos [--quick|--full] [--seed N] [--out PATH]`
//! (default `--quick`, `BENCH_chaos.json` in the current directory).

use std::fmt::Write as _;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use strent_serve::wire::{self, OP_ERR, OP_HELLO, OP_HELLO_OK, OP_OK, OP_REQ};
use strent_serve::{
    ChaosAction, ChaosPlan, EntropyService, RestartPolicy, SchedulerMode, ServeConfig,
    ServerOptions, UdsClient, UdsServer,
};
use strent_sim::rng::fnv1a;
use strent_trng::postprocess::ConditionerKind;
use strent_rings::surrogate::SourceBackend;
use strentropy::pool::PoolConfig;

/// Shard counts the determinism section digests the stream at.
const SHARD_SWEEP: [usize; 3] = [1, 2, 8];

/// Worst tolerated grant latency while the scheduler is panicking,
/// stalling and restarting (the bounded-recovery assertion).
const RECOVERY_BOUND_MS: f64 = 5_000.0;

/// Idle timeout of the UDS drill server — the slowloris trip wire.
const DRILL_IDLE_TIMEOUT: Duration = Duration::from_millis(300);

/// Error budget of the UDS drill server.
const DRILL_ERROR_BUDGET: u32 = 4;

struct Options {
    full: bool,
    seed: u64,
    out: String,
    clients: usize,
    requests: usize,
    bytes: usize,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        full: false,
        seed: 42,
        out: "BENCH_chaos.json".to_owned(),
        clients: 3,
        requests: 6,
        bytes: 32,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.full = false,
            "--full" => options.full = true,
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                options.seed = value.parse().map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--out" => options.out = args.next().ok_or("--out requires a value")?.clone(),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if options.full {
        options.requests *= 3;
    }
    Ok(options)
}

/// The drill pool: raw conditioner (stream content is what's digested)
/// on the calibrated surrogate fast path, small batches so the worker
/// panic trigger fires early.
fn chaos_pool(sources: usize, seed: u64) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, seed);
    config.conditioner = ConditionerKind::Raw;
    config.sample_period_factor = 2.37;
    config.batch_raw_bits = 64;
    config.warmup_periods = 16.0;
    config.with_backend(SourceBackend::Surrogate)
}

/// Arms the plan's worker-panic trigger on its chosen pool slot.
fn arm_worker_panic(config: &mut PoolConfig, plan: &ChaosPlan) {
    let slot = plan.worker_panic_source % config.sources.len();
    config.sources[slot] =
        config.sources[slot]
            .clone()
            .with_panic_after(plan.worker_panic_after_batches);
}

/// The plan's scheduler faults as `(request index, fault)` pairs: a
/// drill client queues each fault right before that request. An index
/// past a short trace lands before its last request, so every chaos-on
/// run injects both.
fn scheduler_faults(plan: &ChaosPlan, requests: usize) -> [(usize, ChaosAction); 2] {
    let at = |after: u64| usize::try_from(after).map_or(requests - 1, |k| k.min(requests - 1));
    [
        (at(plan.scheduler_panic_after_request), ChaosAction::Panic),
        (
            at(plan.scheduler_stall_after_request),
            ChaosAction::Stall(Duration::from_millis(plan.stall_ms)),
        ),
    ]
}

/// Queues into scheduler unit 0 every fault due before request `round`.
fn inject_due(
    service: &EntropyService,
    faults: &[(usize, ChaosAction)],
    round: usize,
) -> Result<(), String> {
    for &(_, fault) in faults.iter().filter(|&&(at, _)| at == round) {
        service
            .inject(0, fault)
            .map_err(|e| format!("inject failed: {e}"))?;
    }
    Ok(())
}

/// The deterministic request trace: sizes vary by (client, round) so
/// the allocation exercises uneven grants while staying a pure function
/// of the drill parameters.
fn request_size(options: &Options, client: usize, round: usize) -> usize {
    1 + (options.bytes + client * 7 + round * 3) % (2 * options.bytes)
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

/// One deterministic-mode run, optionally with the full chaos plan
/// injected (client 0 queues the scheduler faults). Returns the
/// concatenated served stream (client order) and the number of
/// injected-fault incidents recorded.
fn deterministic_run(
    options: &Options,
    shards: usize,
    chaos_seed: Option<u64>,
) -> Result<(Vec<u8>, usize), String> {
    let mut pool = chaos_pool(options.clients.max(2), options.seed);
    let mut faults = Vec::new();
    if let Some(seed) = chaos_seed {
        let plan = ChaosPlan::derive(seed);
        arm_worker_panic(&mut pool, &plan);
        faults.extend(scheduler_faults(&plan, options.requests));
    }
    let mut config = ServeConfig::new(
        pool,
        SchedulerMode::Deterministic {
            expected_clients: options.clients,
        },
    );
    config.workers = 2;
    config.shards = shards;
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let mut clients = Vec::new();
    for client_id in 0..options.clients {
        let client = service
            .connect(u32::try_from(client_id).expect("small id"))
            .map_err(|e| format!("client {client_id} failed to register: {e}"))?;
        clients.push(client);
    }
    let streams = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(client_id, client)| {
                let service = &service;
                let faults = if client_id == 0 { &faults[..] } else { &[] };
                scope.spawn(move || {
                    let mut stream = Vec::new();
                    for round in 0..options.requests {
                        inject_due(service, faults, round)?;
                        match client.request(request_size(options, client_id, round)) {
                            Ok(grant) => stream.extend(grant),
                            Err(e) => return Err(format!("grant failed: {e}")),
                        }
                    }
                    client.close();
                    Ok(stream)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut concat = Vec::new();
    for (client_id, joined) in streams.into_iter().enumerate() {
        match joined {
            Ok(Ok(stream)) => concat.extend(stream),
            Ok(Err(e)) => return Err(format!("client {client_id}: {e}")),
            Err(_) => return Err(format!("client {client_id} panicked")),
        }
    }
    let injected = service.incidents().count_of("panic");
    service
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    Ok((concat, injected))
}

struct DeterminismSection {
    /// (shards, chaos_on, digest) per run of the shard sweep.
    shard_digests: Vec<(usize, bool, u64)>,
    /// (chaos_seed, digest) at 1 shard, chaos on.
    seed_digests: Vec<(u64, u64)>,
    bytes_per_run: usize,
    identical: bool,
    injected_panics: usize,
}

fn determinism(options: &Options) -> Result<DeterminismSection, String> {
    let mut shard_digests = Vec::new();
    let mut bytes_per_run = 0usize;
    let mut injected = 0usize;
    for shards in SHARD_SWEEP {
        for chaos_on in [false, true] {
            let seed = chaos_on.then_some(options.seed);
            let (stream, panics) = deterministic_run(options, shards, seed)?;
            if chaos_on && panics == 0 {
                return Err(format!(
                    "chaos-on run at {shards} shards injected nothing — the drill is vacuous"
                ));
            }
            injected += panics;
            bytes_per_run = stream.len();
            shard_digests.push((shards, chaos_on, fnv1a(&stream)));
        }
    }
    // Distinct chaos seeds reshape the fault schedule; the bytes must
    // not move.
    let mut seed_digests = Vec::new();
    for offset in [1u64, 2] {
        let seed = options.seed.wrapping_add(offset * 0x9E37);
        let (stream, panics) = deterministic_run(options, 1, Some(seed))?;
        if panics == 0 {
            return Err(format!("chaos seed {seed} injected nothing"));
        }
        injected += panics;
        seed_digests.push((seed, fnv1a(&stream)));
    }
    let reference = shard_digests[0].2;
    let identical = shard_digests.iter().all(|&(_, _, d)| d == reference)
        && seed_digests.iter().all(|&(_, d)| d == reference);
    Ok(DeterminismSection {
        shard_digests,
        seed_digests,
        bytes_per_run,
        identical,
        injected_panics: injected,
    })
}

// ---------------------------------------------------------------------
// recovery latency
// ---------------------------------------------------------------------

struct RecoverySection {
    requests: usize,
    grants: usize,
    max_grant_ms: f64,
    bound_ms: f64,
    restarts: usize,
    panics: usize,
    bounded: bool,
}

/// Fair-mode service whose one shard gets the plan's scheduler panic
/// and stall at their request indices; every grant is timed through
/// the outage.
fn recovery(options: &Options) -> Result<RecoverySection, String> {
    let plan = ChaosPlan::derive(options.seed);
    let mut config = ServeConfig::new(
        chaos_pool(2, options.seed),
        SchedulerMode::Fair { max_in_flight: 8 },
    );
    config.shards = 1;
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let client = service.connect(0).map_err(|e| format!("register: {e}"))?;
    let requests = (options.requests * 4).max(16);
    let faults = scheduler_faults(&plan, requests);
    let mut grants = 0usize;
    let mut max_grant_ms = 0f64;
    for round in 0..requests {
        inject_due(&service, &faults, round)?;
        let nbytes = request_size(options, 0, round);
        let begin = Instant::now();
        let grant = client
            .request(nbytes)
            .map_err(|e| format!("grant {round} failed during chaos: {e}"))?;
        let elapsed_ms = begin.elapsed().as_secs_f64() * 1e3;
        max_grant_ms = max_grant_ms.max(elapsed_ms);
        if grant.len() == nbytes {
            grants += 1;
        }
    }
    client.close();
    let restarts = service.incidents().count_of("restarted");
    let panics = service.incidents().count_of("panic");
    service
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    if panics == 0 {
        return Err("recovery drill injected no panic — the drill is vacuous".to_owned());
    }
    Ok(RecoverySection {
        requests,
        grants,
        max_grant_ms,
        bound_ms: RECOVERY_BOUND_MS,
        restarts,
        panics,
        bounded: grants == requests && max_grant_ms < RECOVERY_BOUND_MS,
    })
}

// ---------------------------------------------------------------------
// quarantine storm
// ---------------------------------------------------------------------

struct QuarantineSection {
    quarantined: bool,
    escalated: usize,
    rerouted_bytes: usize,
    wait_ms: f64,
}

/// Drives fair shard 0 through its restart budget with one queued
/// panic more than the budget allows; shard 1 must absorb the
/// rerouted client.
fn quarantine_storm(options: &Options) -> Result<QuarantineSection, String> {
    let mut config = ServeConfig::new(
        chaos_pool(2, options.seed),
        SchedulerMode::Fair { max_in_flight: 8 },
    );
    config.shards = 2;
    // A tight budget so the storm escalates in milliseconds.
    config.restart = RestartPolicy {
        initial_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(200),
        max_restarts: 2,
        window: Duration::from_secs(60),
        jitter_seed: options.seed,
    };
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let begin = Instant::now();
    for _ in 0..=config.restart.max_restarts {
        service
            .inject(0, ChaosAction::Panic)
            .map_err(|e| format!("inject failed: {e}"))?;
    }
    let deadline = begin + Duration::from_secs(30);
    while !service.quarantined()[0] && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    let wait_ms = begin.elapsed().as_secs_f64() * 1e3;
    let quarantined = service.quarantined()[0];
    // A client homed on the dead shard (id % 2 == 0) must reroute.
    let rerouted_bytes = if quarantined {
        let client = service
            .connector()
            .connect(0)
            .map_err(|e| format!("rerouted register: {e}"))?;
        let got = client
            .request(48)
            .map_err(|e| format!("rerouted grant: {e}"))?
            .len();
        client.close();
        got
    } else {
        0
    };
    let escalated = service.incidents().count_of("escalated");
    service
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    Ok(QuarantineSection {
        quarantined,
        escalated,
        rerouted_bytes,
        wait_ms,
    })
}

// ---------------------------------------------------------------------
// UDS drills
// ---------------------------------------------------------------------

/// Request-accounting ledger of the socket drills: every REQ frame the
/// drill fully writes is issued, and must come back as a grant, a typed
/// rejection/error, or a deliberately abandoned in-flight request — the
/// zero-silent-drop invariant.
#[derive(Default)]
struct Ledger {
    issued: u64,
    granted: u64,
    typed_rejections: u64,
    abandoned: u64,
}

impl Ledger {
    fn balanced(&self) -> bool {
        self.issued == self.granted + self.typed_rejections + self.abandoned
    }
}

struct UdsSection {
    slowloris_reaped: u64,
    poison_errs: u32,
    poison_survived: bool,
    poison_closed: bool,
    partial_write_survived: bool,
    disconnect_survived: bool,
    accepted: u64,
    protocol_errors: u64,
    issued: u64,
    granted: u64,
    typed_rejections: u64,
    abandoned: u64,
    zero_silent_drops: bool,
}

/// Raw socket helper: registers `id` over a bare stream so the drill
/// can send byte sequences no well-behaved client would.
fn raw_hello(path: &std::path::Path, id: u32) -> Result<UnixStream, String> {
    let mut stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    wire::write_frame(&mut stream, OP_HELLO, &id.to_le_bytes())
        .map_err(|e| format!("hello: {e}"))?;
    // Bounded by the read timeout set above.
    let (op, _) = wire::read_frame(&mut stream).map_err(|e| format!("hello reply: {e}"))?;
    if op != OP_HELLO_OK {
        return Err(format!("expected HELLO_OK, got 0x{op:02x}"));
    }
    Ok(stream)
}

#[allow(clippy::too_many_lines)]
fn uds_drills(options: &Options) -> Result<UdsSection, String> {
    let plan = ChaosPlan::derive(options.seed);
    let config = ServeConfig::new(
        chaos_pool(2, options.seed),
        SchedulerMode::Fair { max_in_flight: 8 },
    );
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let socket = std::env::temp_dir().join(format!(
        "strent-chaos-{}-{}.sock",
        options.seed,
        std::process::id()
    ));
    let server_options = ServerOptions {
        idle_timeout: Some(DRILL_IDLE_TIMEOUT),
        error_budget: DRILL_ERROR_BUDGET,
    };
    let server = UdsServer::start_with_options(service.connector(), &socket, server_options)
        .map_err(|e| format!("server start failed: {e}"))?;
    let stats = server.stats();
    let mut ledger = Ledger::default();

    // --- Poison frames: ERR under the budget, close past it, a valid
    // request served in between.
    let mut poison_errs = 0u32;
    let mut stream = raw_hello(&socket, 10)?;
    for _ in 0..DRILL_ERROR_BUDGET - 1 {
        wire::write_frame(&mut stream, plan.malformed_opcode, &[])
            .map_err(|e| format!("poison write: {e}"))?;
        // Bounded by the raw_hello read timeout.
        let (op, _) = wire::read_frame(&mut stream).map_err(|e| format!("poison reply: {e}"))?;
        if op == OP_ERR {
            poison_errs += 1;
        }
    }
    wire::write_frame(&mut stream, OP_REQ, &24u32.to_le_bytes())
        .map_err(|e| format!("req after poison: {e}"))?;
    ledger.issued += 1;
    let (op, payload) =
        wire::read_frame(&mut stream).map_err(|e| format!("grant after poison: {e}"))?;
    let poison_survived = op == OP_OK && payload.len() == 24;
    if poison_survived {
        ledger.granted += 1;
    } else {
        ledger.typed_rejections += 1;
    }
    // Spend the rest of the budget and one more: the final poison must
    // close the connection (ERR frames drain first, then EOF).
    let mut poison_closed = false;
    for _ in 0..=DRILL_ERROR_BUDGET {
        if wire::write_frame(&mut stream, plan.malformed_opcode, &[]).is_err() {
            poison_closed = true;
            break;
        }
        match wire::read_frame(&mut stream) {
            Ok((op, _)) if op == OP_ERR => poison_errs += 1,
            Ok(_) => {}
            Err(_) => {
                poison_closed = true;
                break;
            }
        }
    }
    drop(stream);

    // --- Partial write: a frame header cut mid-way, then a vanished
    // peer. The decoder must hold the fragment and the loop must not
    // stumble.
    {
        let mut stream = raw_hello(&socket, 11)?;
        let mut frame = Vec::new();
        wire::encode_frame(&mut frame, OP_REQ, &16u32.to_le_bytes())
            .map_err(|e| format!("encode: {e}"))?;
        stream
            .write_all(&frame[..plan.partial_write_len])
            .map_err(|e| format!("partial write: {e}"))?;
        // Dropping here is the interrupted write: never issued.
    }
    let mut probe = UdsClient::connect(&socket, 12).map_err(|e| format!("probe: {e}"))?;
    ledger.issued += 1;
    let partial_write_survived = match probe.request(16) {
        Ok(grant) => {
            ledger.granted += 1;
            grant.len() == 16
        }
        Err(_) => {
            ledger.typed_rejections += 1;
            false
        }
    };
    drop(probe);

    // --- Mid-stream disconnect: a client that completes the plan's
    // request count, writes one more REQ, and vanishes without reading
    // the reply. The grant lands on a stale generation and is dropped
    // by design — accounted as abandoned, not silent.
    {
        let mut stream = raw_hello(&socket, 13)?;
        for round in 0..plan.disconnect_after_requests {
            let nbytes = u32::try_from(request_size(options, 13, round)).expect("small");
            wire::write_frame(&mut stream, OP_REQ, &nbytes.to_le_bytes())
                .map_err(|e| format!("disconnect req: {e}"))?;
            ledger.issued += 1;
            let (op, _) =
                wire::read_frame(&mut stream).map_err(|e| format!("disconnect reply: {e}"))?;
            if op == OP_OK {
                ledger.granted += 1;
            } else {
                ledger.typed_rejections += 1;
            }
        }
        wire::write_frame(&mut stream, OP_REQ, &32u32.to_le_bytes())
            .map_err(|e| format!("abandoned req: {e}"))?;
        ledger.issued += 1;
        ledger.abandoned += 1;
        // Vanish with the request in flight.
    }
    let mut probe = UdsClient::connect(&socket, 14).map_err(|e| format!("probe2: {e}"))?;
    ledger.issued += 1;
    let disconnect_survived = match probe.request(16) {
        Ok(grant) => {
            ledger.granted += 1;
            grant.len() == 16
        }
        Err(_) => {
            ledger.typed_rejections += 1;
            false
        }
    };
    drop(probe);

    // --- Slowloris: register, then go silent; the idle reaper must
    // collect the connection and count it.
    let slow = UdsClient::connect(&socket, 15).map_err(|e| format!("slowloris: {e}"))?;
    let reap_deadline = Instant::now() + Duration::from_secs(15);
    while stats.idle_reaped() == 0 && Instant::now() < reap_deadline {
        thread::sleep(Duration::from_millis(25));
    }
    drop(slow);
    let slowloris_reaped = stats.idle_reaped();

    // --- The loop survived everything above: one final served request.
    let mut fresh = UdsClient::connect(&socket, 16).map_err(|e| format!("final probe: {e}"))?;
    ledger.issued += 1;
    match fresh.request(8) {
        Ok(_) => ledger.granted += 1,
        Err(_) => ledger.typed_rejections += 1,
    }
    drop(fresh);

    let accepted = stats.accepted();
    let protocol_errors = stats.protocol_errors();
    server.shutdown().map_err(|e| format!("server stop: {e}"))?;
    service
        .shutdown()
        .map_err(|e| format!("service stop: {e}"))?;
    let _ = std::fs::remove_file(&socket);
    Ok(UdsSection {
        slowloris_reaped,
        poison_errs,
        poison_survived,
        poison_closed,
        partial_write_survived,
        disconnect_survived,
        accepted,
        protocol_errors,
        issued: ledger.issued,
        granted: ledger.granted,
        typed_rejections: ledger.typed_rejections,
        abandoned: ledger.abandoned,
        zero_silent_drops: ledger.balanced(),
    })
}

// ---------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------

struct DrainSection {
    server_drained: bool,
    service_drained: bool,
    drain_ms: f64,
}

fn drain_drill(options: &Options) -> Result<DrainSection, String> {
    let config = ServeConfig::new(
        chaos_pool(2, options.seed),
        SchedulerMode::Fair { max_in_flight: 8 },
    );
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let socket = std::env::temp_dir().join(format!(
        "strent-chaos-drain-{}-{}.sock",
        options.seed,
        std::process::id()
    ));
    let server = UdsServer::start(service.connector(), &socket)
        .map_err(|e| format!("server start failed: {e}"))?;
    let mut client = UdsClient::connect(&socket, 1).map_err(|e| format!("register: {e}"))?;
    for _ in 0..4 {
        client.request(32).map_err(|e| format!("grant: {e}"))?;
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    let begin = Instant::now();
    let server_drained = server
        .shutdown_graceful(Duration::from_secs(10))
        .map_err(|e| format!("server drain: {e}"))?;
    let service_drained = service
        .shutdown_graceful(Duration::from_secs(10))
        .map_err(|e| format!("service drain: {e}"))?;
    let drain_ms = begin.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&socket);
    Ok(DrainSection {
        server_drained,
        service_drained,
        drain_ms,
    })
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

fn emit_json(
    options: &Options,
    det: &DeterminismSection,
    recovery: &RecoverySection,
    storm: &QuarantineSection,
    uds: &UdsSection,
    drain: &DrainSection,
) -> String {
    let plan = ChaosPlan::derive(options.seed);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"strentropy-bench-chaos/2\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        if options.full { "full" } else { "quick" }
    );
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(
        json,
        "  \"plan\": {{\"worker_panic_source\": {}, \"worker_panic_after_batches\": {}, \
         \"scheduler_panic_after_request\": {}, \"scheduler_stall_after_request\": {}, \
         \"stall_ms\": {}, \"malformed_opcode\": \"0x{:02x}\", \
         \"partial_write_len\": {}, \"disconnect_after_requests\": {}}},",
        plan.worker_panic_source,
        plan.worker_panic_after_batches,
        plan.scheduler_panic_after_request,
        plan.scheduler_stall_after_request,
        plan.stall_ms,
        plan.malformed_opcode,
        plan.partial_write_len,
        plan.disconnect_after_requests,
    );
    json.push_str("  \"determinism\": {\n");
    json.push_str("    \"runs\": [");
    for (i, (shards, chaos_on, digest)) in det.shard_digests.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"shards\": {shards}, \"chaos\": {chaos_on}, \"fnv1a64\": \"{digest:016x}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("],\n");
    json.push_str("    \"chaos_seed_runs\": [");
    for (i, (seed, digest)) in det.seed_digests.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"chaos_seed\": {seed}, \"fnv1a64\": \"{digest:016x}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("],\n");
    let _ = writeln!(json, "    \"bytes_per_run\": {},", det.bytes_per_run);
    let _ = writeln!(json, "    \"injected_panics\": {},", det.injected_panics);
    let _ = writeln!(json, "    \"identical\": {}", det.identical);
    json.push_str("  },\n");

    json.push_str("  \"recovery\": {\n");
    let _ = writeln!(json, "    \"requests\": {},", recovery.requests);
    let _ = writeln!(json, "    \"grants\": {},", recovery.grants);
    let _ = writeln!(json, "    \"max_grant_ms\": {:.3},", recovery.max_grant_ms);
    let _ = writeln!(json, "    \"bound_ms\": {:.1},", recovery.bound_ms);
    let _ = writeln!(json, "    \"panics\": {},", recovery.panics);
    let _ = writeln!(json, "    \"restarts\": {},", recovery.restarts);
    let _ = writeln!(json, "    \"bounded\": {}", recovery.bounded);
    json.push_str("  },\n");

    json.push_str("  \"quarantine_storm\": {\n");
    let _ = writeln!(json, "    \"quarantined\": {},", storm.quarantined);
    let _ = writeln!(json, "    \"escalated_incidents\": {},", storm.escalated);
    let _ = writeln!(json, "    \"rerouted_bytes\": {},", storm.rerouted_bytes);
    let _ = writeln!(json, "    \"quarantine_wait_ms\": {:.1}", storm.wait_ms);
    json.push_str("  },\n");

    json.push_str("  \"uds\": {\n");
    let _ = writeln!(json, "    \"slowloris_reaped\": {},", uds.slowloris_reaped);
    let _ = writeln!(json, "    \"poison_errs\": {},", uds.poison_errs);
    let _ = writeln!(json, "    \"poison_survived\": {},", uds.poison_survived);
    let _ = writeln!(json, "    \"poison_closed\": {},", uds.poison_closed);
    let _ = writeln!(
        json,
        "    \"partial_write_survived\": {},",
        uds.partial_write_survived
    );
    let _ = writeln!(
        json,
        "    \"disconnect_survived\": {},",
        uds.disconnect_survived
    );
    let _ = writeln!(json, "    \"accepted\": {},", uds.accepted);
    let _ = writeln!(json, "    \"protocol_errors\": {},", uds.protocol_errors);
    let _ = writeln!(
        json,
        "    \"accounting\": {{\"issued\": {}, \"granted\": {}, \
         \"typed_rejections\": {}, \"abandoned\": {}}},",
        uds.issued, uds.granted, uds.typed_rejections, uds.abandoned
    );
    let _ = writeln!(json, "    \"zero_silent_drops\": {}", uds.zero_silent_drops);
    json.push_str("  },\n");

    json.push_str("  \"drain\": {\n");
    let _ = writeln!(json, "    \"server_drained\": {},", drain.server_drained);
    let _ = writeln!(json, "    \"service_drained\": {},", drain.service_drained);
    let _ = writeln!(json, "    \"drain_ms\": {:.1}", drain.drain_ms);
    json.push_str("  }\n}\n");
    json
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(msg) => {
            eprintln!("{msg}\nusage: serve_chaos [--quick|--full] [--seed N] [--out PATH]");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# serve_chaos: seed {}, {} clients x {} requests (base {} bytes)",
        options.seed, options.clients, options.requests, options.bytes
    );
    let det = match determinism(&options) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("determinism section failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# determinism: {} bytes/run, {} injected panics, digests {}",
        det.bytes_per_run,
        det.injected_panics,
        if det.identical { "identical" } else { "DIVERGED" }
    );
    let rec = match recovery(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery section failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# recovery: {}/{} grants, worst {:.1}ms (bound {:.0}ms), {} restarts",
        rec.grants, rec.requests, rec.max_grant_ms, rec.bound_ms, rec.restarts
    );
    let storm = match quarantine_storm(&options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("quarantine storm failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# quarantine storm: quarantined={} after {:.0}ms, {} escalations, rerouted {} bytes",
        storm.quarantined, storm.wait_ms, storm.escalated, storm.rerouted_bytes
    );
    let uds = match uds_drills(&options) {
        Ok(u) => u,
        Err(e) => {
            eprintln!("uds drills failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# uds: reaped {}, poison errs {} (survived={}, closed={}), partial={}, \
         disconnect={}, accounting {}+{}+{} of {} issued",
        uds.slowloris_reaped,
        uds.poison_errs,
        uds.poison_survived,
        uds.poison_closed,
        uds.partial_write_survived,
        uds.disconnect_survived,
        uds.granted,
        uds.typed_rejections,
        uds.abandoned,
        uds.issued
    );
    let drain = match drain_drill(&options) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("drain drill failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# drain: server={}, service={}, {:.0}ms",
        drain.server_drained, drain.service_drained, drain.drain_ms
    );

    let failed = !det.identical
        || !rec.bounded
        || !storm.quarantined
        || storm.rerouted_bytes == 0
        || uds.slowloris_reaped == 0
        || !uds.poison_survived
        || !uds.poison_closed
        || !uds.partial_write_survived
        || !uds.disconnect_survived
        || !uds.zero_silent_drops
        || !drain.server_drained
        || !drain.service_drained;

    let json = emit_json(&options, &det, &rec, &storm, &uds, &drain);
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", options.out);
    if failed {
        eprintln!("serve_chaos: an invariant failed (see the JSON report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
