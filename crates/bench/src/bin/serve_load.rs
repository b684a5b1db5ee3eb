//! Load bench for `strent-serve`: drives the sharded, readiness-driven
//! service with deterministic request traces plus multiplexed socket
//! load, and emits `BENCH_serve.json` (schema
//! `strentropy-bench-serve/2`) with six sections:
//!
//! * `determinism` — the full served byte stream (deterministic
//!   round-barrier mode) digested at 1, 2 and 8 scheduler shards; the
//!   digests must be identical (the shard-count invariance contract)
//!   and must match a bare single-worker pool replay;
//! * `closed_loop` — saturation throughput vs client count (1, 16,
//!   128, 1024 multiplexed UDS connections, one outstanding request
//!   each): p50/p99/p999 grant latency and requests/s per point;
//! * `open_loop` — fixed-arrival-rate runs at fractions of the
//!   measured closed-loop saturation: achieved rate, tail latency and
//!   typed backpressure counts (the closed-loop numbers hide
//!   coordinated omission; these do not — see `docs/engine_perf.md`);
//! * `shard_scaling` — closed-loop saturation at 1/2/4/8 shards for
//!   both waveform backends (`full_sim`, `surrogate`), measured with
//!   in-process clients so the scheduler tier is isolated from the
//!   single-threaded socket frontend, with the 8-vs-1 speedup per
//!   backend;
//! * `backpressure` — a drill with tiny budgets proving all three
//!   typed classes (`BUSY`, `RATE_LIMITED`, `SHEDDING`) reach clients;
//! * `fault_drill` — a pool with one permanently clamped source: the
//!   slot must alarm, quarantine and replace its ring while the
//!   delivered stream re-passes the SP 800-90B monitors;
//! * `--smoke` additionally exercises the socket frontend end to end:
//!   a ≥1024-connection multiplexed drill through the poll event loop
//!   (no thread per connection), server counter checks, and a
//!   three-client deterministic byte-for-byte replay over real
//!   `UdsClient`s.
//!
//! The JSON is hand-formatted — the workspace builds offline against
//! stub crates, so no serializer is assumed.
//!
//! Usage: `serve_load [--quick|--full] [--seed N] [--clients N]
//! [--requests N] [--bytes N] [--out PATH] [--smoke] [--socket PATH]`
//! (default `--quick`, `BENCH_serve.json` in the current directory).

use std::fmt::Write as _;
use std::io::Read;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use strent_serve::mux::{self, LoadMode, MuxConfig, MuxReport};
use strent_serve::{
    ChaosAction, CompletionQueue, EntropyService, RateLimit, SchedulerMode, ServeConfig,
    ServeError, SourcePool, UdsClient, UdsServer,
};
use strent_sim::rng::fnv1a;
use strent_sim::{Bit, FaultPlan};
use strent_trng::bits::BitString;
use strent_trng::health;
use strent_trng::postprocess::ConditionerKind;
use strent_rings::surrogate::SourceBackend;
use strentropy::pool::{PoolConfig, RingSpec, SourceSpec};

/// Shard counts the determinism section digests the stream at.
const SHARD_SWEEP: [usize; 3] = [1, 2, 8];

/// Shard counts the scaling section saturates at.
const SCALING_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// In-process clients and per-shard in-flight budget for the
/// shard-scaling sweep (also emitted into the JSON `shard_scaling`
/// section so the committed artifact documents its own harness).
const SCALING_CLIENTS: usize = 64;
const SCALING_MAX_IN_FLIGHT: usize = 4;

/// Client counts the closed-loop section sweeps.
const CLIENT_SWEEP: [usize; 4] = [1, 16, 128, 1024];

/// Connections the smoke drill holds open through the poll frontend.
const SMOKE_CONNS: usize = 1024;

struct Options {
    full: bool,
    seed: u64,
    clients: usize,
    requests: usize,
    bytes: usize,
    out: String,
    smoke: bool,
    socket: Option<String>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        full: false,
        seed: 42,
        clients: 3,
        requests: 6,
        bytes: 32,
        out: "BENCH_serve.json".to_owned(),
        smoke: false,
        socket: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.full = false,
            "--full" => options.full = true,
            "--smoke" => options.smoke = true,
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                options.seed = value.parse().map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--clients" => {
                let value = args.next().ok_or("--clients requires a value")?;
                options.clients =
                    value.parse().map_err(|_| format!("invalid clients: {value}"))?;
            }
            "--requests" => {
                let value = args.next().ok_or("--requests requires a value")?;
                options.requests =
                    value.parse().map_err(|_| format!("invalid requests: {value}"))?;
            }
            "--bytes" => {
                let value = args.next().ok_or("--bytes requires a value")?;
                options.bytes = value.parse().map_err(|_| format!("invalid bytes: {value}"))?;
            }
            "--out" => options.out = args.next().ok_or("--out requires a value")?.clone(),
            "--socket" => options.socket = Some(args.next().ok_or("--socket requires a value")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if options.full {
        options.requests *= 4;
        options.bytes *= 2;
    }
    if options.clients == 0 || options.requests == 0 || options.bytes == 0 {
        return Err("--clients/--requests/--bytes must be positive".to_owned());
    }
    Ok(options)
}

/// A pool configuration sized for the bench: raw conditioner (the
/// stream content is what's digested; conditioning ratios are covered
/// by the serve crate's own tests) and small batches for quick rounds.
fn bench_pool(sources: usize, seed: u64) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, seed);
    config.conditioner = ConditionerKind::Raw;
    config.sample_period_factor = 2.37;
    config.batch_raw_bits = 64;
    config.warmup_periods = 16.0;
    config
}

/// The bench pool on the calibrated surrogate fast path — the backend
/// the socket-load sections default to, so a sweep measures the
/// serving machinery rather than waveform simulation time.
fn surrogate_pool(sources: usize, seed: u64) -> PoolConfig {
    bench_pool(sources, seed).with_backend(SourceBackend::Surrogate)
}

/// The deterministic request trace of one client: sizes vary by
/// (client, round) so the allocation exercises uneven grants while
/// staying a pure function of the bench parameters.
fn request_size(options: &Options, client: usize, round: usize) -> usize {
    1 + (options.bytes + client * 7 + round * 3) % (2 * options.bytes)
}

fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * pct).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64 / 1e3
}

/// p50/p99/p999 in microseconds from an unsorted latency vector.
fn tails_us(latencies_ns: &mut [u64]) -> (f64, f64, f64) {
    latencies_ns.sort_unstable();
    (
        percentile_us(latencies_ns, 0.50),
        percentile_us(latencies_ns, 0.99),
        percentile_us(latencies_ns, 0.999),
    )
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

/// Serves every client's full trace in deterministic round-barrier mode
/// at the given shard count and returns the per-client streams, in
/// client-id order.
fn deterministic_run(options: &Options, shards: usize) -> Result<Vec<Vec<u8>>, String> {
    let mut config = ServeConfig::new(
        bench_pool(options.clients.max(2), options.seed),
        SchedulerMode::Deterministic {
            expected_clients: options.clients,
        },
    );
    config.workers = 2;
    config.shards = shards;
    let service =
        EntropyService::start(&config).map_err(|e| format!("service start failed: {e}"))?;
    let mut handles = Vec::new();
    for client_id in 0..options.clients {
        let client = service
            .connect(u32::try_from(client_id).expect("small id"))
            .map_err(|e| format!("client {client_id} failed to register: {e}"))?;
        let requests = options.requests;
        let sizes: Vec<usize> = (0..requests)
            .map(|round| request_size(options, client_id, round))
            .collect();
        handles.push(thread::spawn(move || {
            let mut stream = Vec::new();
            for nbytes in sizes {
                match client.request(nbytes) {
                    Ok(grant) => stream.extend(grant),
                    Err(e) => return Err(format!("grant failed: {e}")),
                }
            }
            client.close();
            Ok(stream)
        }));
    }
    let mut streams = Vec::with_capacity(options.clients);
    for (client_id, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(stream)) => streams.push(stream),
            Ok(Err(e)) => return Err(format!("client {client_id}: {e}")),
            Err(_) => return Err(format!("client {client_id} panicked")),
        }
    }
    service
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    Ok(streams)
}

/// Replays the expected allocation from a fresh single-worker pool: the
/// round barrier grants in ascending client id, so the pool stream is
/// consumed in (round, client) order.
fn replay_allocation(options: &Options, sources: usize) -> Result<Vec<Vec<u8>>, String> {
    let config = bench_pool(sources, options.seed);
    let mut pool = SourcePool::start(&config, 1).map_err(|e| format!("pool: {e}"))?;
    let mut streams = vec![Vec::new(); options.clients];
    for round in 0..options.requests {
        for (client_id, stream) in streams.iter_mut().enumerate() {
            let nbytes = request_size(options, client_id, round);
            let grant = pool.read_bytes(nbytes).map_err(|e| format!("read: {e}"))?;
            stream.extend(grant);
        }
    }
    pool.shutdown();
    Ok(streams)
}

struct DeterminismSection {
    digests: Vec<(usize, u64)>,
    bytes_per_run: usize,
    bit_identical: bool,
    matches_replay: bool,
}

fn determinism(options: &Options) -> Result<DeterminismSection, String> {
    let mut digests = Vec::new();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for shards in SHARD_SWEEP {
        let streams = deterministic_run(options, shards)?;
        let concat: Vec<u8> = streams.iter().flatten().copied().collect();
        digests.push((shards, fnv1a(&concat)));
        if reference.is_none() {
            reference = Some(streams);
        }
    }
    let reference = reference.expect("at least one run");
    let bytes_per_run = reference.iter().map(Vec::len).sum();
    let bit_identical = digests.iter().all(|&(_, d)| d == digests[0].1);
    let replay = replay_allocation(options, options.clients.max(2))?;
    Ok(DeterminismSection {
        digests,
        bytes_per_run,
        bit_identical,
        matches_replay: replay == reference,
    })
}

// ---------------------------------------------------------------------
// Socket load harness
// ---------------------------------------------------------------------

/// One measured socket-load point.
struct LoadPoint {
    label: f64,
    report: MuxReport,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

impl LoadPoint {
    fn throughput_rps(&self) -> f64 {
        if self.report.wall_ns == 0 {
            return 0.0;
        }
        self.report.grants as f64 * 1e9 / self.report.wall_ns as f64
    }

    fn throughput_bytes_per_sec(&self) -> f64 {
        if self.report.wall_ns == 0 {
            return 0.0;
        }
        self.report.bytes as f64 * 1e9 / self.report.wall_ns as f64
    }
}

/// Starts a fair-mode service + UDS server on a fresh temp socket, runs
/// one mux session against it, then `then` against the live service
/// and socket, and tears both down.
#[allow(clippy::too_many_arguments)]
fn socket_run<T>(
    pool: PoolConfig,
    shards: usize,
    max_in_flight: usize,
    rate_limit: Option<RateLimit>,
    shed_limit: Option<usize>,
    mux_config: &MuxConfig,
    tag: &str,
    then: impl FnOnce(&EntropyService, &str) -> Result<T, String>,
) -> Result<(MuxReport, u64, u64, T), String> {
    let mut config = ServeConfig::new(pool, SchedulerMode::Fair { max_in_flight });
    config.shards = shards;
    config.rate_limit = rate_limit;
    config.shed_limit = shed_limit;
    let service =
        EntropyService::start(&config).map_err(|e| format!("{tag}: service start: {e}"))?;
    let socket = std::env::temp_dir()
        .join(format!("strent-serve-{tag}-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let server = UdsServer::start(service.connector(), &socket)
        .map_err(|e| format!("{tag}: server start: {e}"))?;
    let stats = server.stats();
    let report = mux::run(&socket, mux_config).map_err(|e| format!("{tag}: mux: {e}"))?;
    let after = then(&service, &socket).map_err(|e| format!("{tag}: {e}"))?;
    let accepted = stats.accepted();
    let accept_errors = stats.accept_errors();
    server
        .shutdown()
        .map_err(|e| format!("{tag}: server shutdown: {e}"))?;
    service
        .shutdown()
        .map_err(|e| format!("{tag}: service shutdown: {e}"))?;
    Ok((report, accepted, accept_errors, after))
}

fn point_from(label: f64, mut report: MuxReport) -> LoadPoint {
    let (p50_us, p99_us, p999_us) = tails_us(&mut report.latencies_ns);
    LoadPoint {
        label,
        report,
        p50_us,
        p99_us,
        p999_us,
    }
}

// ---------------------------------------------------------------------
// closed_loop
// ---------------------------------------------------------------------

struct ClosedLoopSection {
    points: Vec<LoadPoint>,
    saturation_rps: f64,
}

/// Closed-loop sweep: each connection keeps exactly one request
/// outstanding, so throughput is the saturation rate at that
/// concurrency and latency is service time (coordinated omission
/// hides queueing delay — the open-loop section covers that).
fn closed_loop(options: &Options) -> Result<ClosedLoopSection, String> {
    let budget = if options.full { 16_384 } else { 4_096 };
    let mut points = Vec::new();
    for &clients in &CLIENT_SWEEP {
        let requests_per_conn = (budget / clients).clamp(2, 512);
        let mux_config = MuxConfig {
            connections: clients,
            requests_per_conn,
            nbytes: u32::try_from(options.bytes.min(32)).expect("small"),
            mode: LoadMode::Closed,
            first_client_id: 0,
            retry_backpressure: true,
            deadline: Duration::from_secs(120),
        };
        let (report, _, accept_errors, ()) = socket_run(
            surrogate_pool(8, options.seed),
            4,
            64,
            None,
            None,
            &mux_config,
            &format!("closed-{clients}"),
            |_, _| Ok(()),
        )?;
        if accept_errors > 0 {
            return Err(format!("closed loop at {clients} clients: accept errors"));
        }
        points.push(point_from(clients as f64, report));
    }
    let saturation_rps = points
        .iter()
        .filter(|p| p.label >= 16.0)
        .map(LoadPoint::throughput_rps)
        .fold(0.0f64, f64::max);
    Ok(ClosedLoopSection {
        points,
        saturation_rps,
    })
}

// ---------------------------------------------------------------------
// open_loop
// ---------------------------------------------------------------------

struct OpenLoopSection {
    conns: usize,
    points: Vec<LoadPoint>,
}

/// Open-loop runs at fractions of the measured closed-loop saturation:
/// arrivals follow a fixed schedule whether or not replies are back, so
/// the tails include queueing delay (no coordinated omission).
fn open_loop(options: &Options, saturation_rps: f64) -> Result<OpenLoopSection, String> {
    let conns = 32usize;
    let seconds = if options.full { 2.0 } else { 0.75 };
    let mut points = Vec::new();
    for fraction in [0.5f64, 0.9, 1.5] {
        let target_rps = (saturation_rps * fraction).max(50.0);
        let per_conn_rps = target_rps / conns as f64;
        let interval_ns = (1e9 / per_conn_rps) as u64;
        let requests_per_conn = ((target_rps * seconds) / conns as f64).ceil().max(2.0) as usize;
        let mux_config = MuxConfig {
            connections: conns,
            requests_per_conn,
            nbytes: u32::try_from(options.bytes.min(32)).expect("small"),
            mode: LoadMode::Open { interval_ns },
            first_client_id: 0,
            retry_backpressure: false,
            deadline: Duration::from_secs(120),
        };
        let (report, _, accept_errors, ()) = socket_run(
            surrogate_pool(8, options.seed),
            4,
            64,
            None,
            None,
            &mux_config,
            &format!("open-{}", (fraction * 100.0) as u32),
            |_, _| Ok(()),
        )?;
        if accept_errors > 0 {
            return Err(format!("open loop at {fraction}x: accept errors"));
        }
        points.push(point_from(fraction, report));
    }
    Ok(OpenLoopSection { conns, points })
}

// ---------------------------------------------------------------------
// shard_scaling
// ---------------------------------------------------------------------

struct ScalingPoint {
    backend: &'static str,
    shards: usize,
    throughput_rps: f64,
    p99_us: f64,
}

struct ScalingSection {
    points: Vec<ScalingPoint>,
    speedup_full_sim: f64,
    speedup_surrogate: f64,
}

impl ScalingSection {
    fn best_speedup(&self) -> f64 {
        self.speedup_full_sim.max(self.speedup_surrogate)
    }
}

/// One time-bounded in-process saturation run: `clients` threads in a
/// closed retry loop against a fair service at `shards`, with the
/// per-shard in-flight budget fixed — the resource each added shard
/// brings along.
fn scaling_point(
    options: &Options,
    backend: SourceBackend,
    shards: usize,
    clients: usize,
    max_in_flight: usize,
    seconds: f64,
) -> Result<(f64, f64), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut config = ServeConfig::new(
        bench_pool(8, options.seed).with_backend(backend),
        SchedulerMode::Fair { max_in_flight },
    );
    config.shards = shards;
    let service =
        EntropyService::start(&config).map_err(|e| format!("scaling service start: {e}"))?;
    let connector = service.connector();
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for id in 0..clients {
        let connector = connector.clone();
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let client = match connector.connect(u32::try_from(id).expect("small id")) {
                Ok(c) => c,
                Err(e) => return Err(format!("client {id} connect: {e}")),
            };
            let mut latencies_ns = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                match client.request(16) {
                    Ok(_) => latencies_ns.push(t0.elapsed().as_nanos() as u64),
                    // Typed backpressure: retry immediately (closed
                    // retry loop — offered load tracks capacity).
                    Err(e) if e.backpressure().is_some() => {}
                    Err(e) => return Err(format!("client {id} request: {e}")),
                }
            }
            Ok(latencies_ns)
        }));
    }
    let t0 = Instant::now();
    thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut latencies = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(Ok(lat)) => latencies.extend(lat),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err("scaling client panicked".to_owned()),
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    service
        .shutdown()
        .map_err(|e| format!("scaling shutdown: {e}"))?;
    let rps = latencies.len() as f64 / wall;
    let (_, p99_us, _) = tails_us(&mut latencies);
    Ok((rps, p99_us))
}

/// Saturation throughput at 1/2/4/8 shards for both backends, using
/// in-process clients so the sweep isolates the scheduler tier from
/// the (single-threaded) socket frontend. Each shard brings a fixed
/// in-flight budget and its own producer worker, so the curve measures
/// per-shard admission and serving capacity under a closed retry loop
/// — the speedup column is the honest answer on this host (see
/// `host_cpus` at the top level and `docs/engine_perf.md`).
fn shard_scaling(options: &Options) -> Result<ScalingSection, String> {
    let clients = SCALING_CLIENTS;
    let max_in_flight = SCALING_MAX_IN_FLIGHT;
    let seconds = if options.full { 1.5 } else { 0.5 };
    let mut points = Vec::new();
    let mut speedups = [0.0f64; 2];
    for (b, backend) in [SourceBackend::FullSim, SourceBackend::Surrogate]
        .into_iter()
        .enumerate()
    {
        let backend_label = match backend {
            SourceBackend::FullSim => "full_sim",
            SourceBackend::Surrogate => "surrogate",
        };
        let mut base_rps = 0.0f64;
        for &shards in &SCALING_SHARDS {
            let (rps, p99_us) =
                scaling_point(options, backend, shards, clients, max_in_flight, seconds)?;
            if shards == 1 {
                base_rps = rps;
            }
            if shards == 8 && base_rps > 0.0 {
                speedups[b] = rps / base_rps;
            }
            points.push(ScalingPoint {
                backend: backend_label,
                shards,
                throughput_rps: rps,
                p99_us,
            });
        }
    }
    Ok(ScalingSection {
        points,
        speedup_full_sim: speedups[0],
        speedup_surrogate: speedups[1],
    })
}

// ---------------------------------------------------------------------
// backpressure
// ---------------------------------------------------------------------

struct BackpressureSection {
    busy: u64,
    rate_limited: u64,
    shed: u64,
    grants: u64,
    all_classes_observed: bool,
}

/// Starves every budget at once — a per-shard in-flight budget of 1, a
/// trickle token bucket and a global shed watermark of 2 — and proves
/// each typed class actually reaches clients over the wire. Under the
/// mux load, `SHEDDING` needs both shards to hold admitted work at the
/// same instant, which depends on how long grants take; [`held_shed`]
/// then makes that overlap certain on the same service, and its reply
/// counts with the mux's.
fn backpressure_drill(options: &Options) -> Result<BackpressureSection, String> {
    let mux_config = MuxConfig {
        connections: 16,
        requests_per_conn: 6,
        nbytes: 16,
        mode: LoadMode::Closed,
        first_client_id: 0,
        retry_backpressure: true,
        deadline: Duration::from_secs(60),
    };
    let rate = RateLimit {
        bytes_per_sec: 4096.0,
        burst_bytes: 32.0,
    };
    let (report, _, accept_errors, held) = socket_run(
        surrogate_pool(4, options.seed),
        2,
        1,
        Some(rate),
        Some(2),
        &mux_config,
        "backpressure",
        held_shed,
    )?;
    if accept_errors > 0 {
        return Err("backpressure drill: accept errors".to_owned());
    }
    let shed = report.shed + held;
    Ok(BackpressureSection {
        busy: report.busy,
        rate_limited: report.rate_limited,
        shed,
        grants: report.grants,
        all_classes_observed: report.busy > 0 && report.rate_limited > 0 && shed > 0,
    })
}

/// Makes both shards hold admitted work at once, then sends one socket
/// request into that overlap. Each shard is sent a stall, an in-process
/// holder's request and a second stall; the first stall keeps the
/// shard from serving until the other two are queued behind it, so the
/// shard admits the request (its in-flight budget of 1) and stalls
/// again with it queued. Shard 1 holds longest. A socket client homed
/// on shard 0 then meets a service-wide queued count of 2, the
/// watermark. Returns 1 if it was told `SHEDDING`, else 0.
fn held_shed(service: &EntropyService, socket: &str) -> Result<u64, String> {
    let held = || -> Result<u64, ServeError> {
        // Registered before any stall: registration blocks the event
        // loop until the home shard answers.
        let mut probe = UdsClient::connect(socket, 100)?;
        let (wake, mut wake_rx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        let grants = Arc::new(CompletionQueue::new(wake));
        let mut holders = Vec::new();
        for (shard, hold_ms) in [(0, 50), (1, 300)] {
            let holder = service.connect(200 + shard)?;
            let unit = shard as usize;
            service.inject(unit, ChaosAction::Stall(Duration::from_millis(50)))?;
            holder.request_queued(16, &grants, 0)?;
            service.inject(unit, ChaosAction::Stall(Duration::from_millis(hold_ms)))?;
            holders.push(holder);
        }
        let shed = match probe.request(16) {
            Err(ServeError::Shedding { .. }) => 1,
            Err(e) if e.backpressure().is_none() => return Err(e),
            _ => 0,
        };
        // Both holders are granted once the stalls end.
        wake_rx.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut granted = 0;
        while granted < holders.len() {
            wake_rx.read_exact(&mut [0u8; 1])?;
            granted += grants.drain().len();
        }
        Ok(shed)
    };
    held().map_err(|e| format!("held-work probe: {e}"))
}

// ---------------------------------------------------------------------
// fault_drill
// ---------------------------------------------------------------------

struct FaultSection {
    delivered_bytes: u64,
    alarms: u64,
    requarantines: u64,
    replacements: u64,
    health_clean: bool,
}

impl FaultSection {
    fn bytes_per_alarm(&self) -> f64 {
        if self.alarms == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64 / self.alarms as f64
    }
}

/// Fault drill: slot 0 is permanently clamped low, so its ring must be
/// quarantined and replaced while the pooled stream stays health-clean.
fn fault_drill(options: &Options) -> Result<FaultSection, String> {
    let mut config = bench_pool(2, options.seed);
    config.max_relock_windows = 4;
    let spec = &config.sources[0];
    let period = spec.ring.stream_config().predicted_period_ps(&spec.board(0));
    let clamp_from = config.warmup_periods * period;
    // Ring nets are named `str{i}` / `iro{i}`; clamp the first stage.
    let net = match spec.ring {
        RingSpec::Str32 | RingSpec::Str64 => "str0",
        RingSpec::Iro32 => "iro0",
    };
    let plan = FaultPlan::new(spec.seed)
        .with_stuck_at(net, Bit::Low, clamp_from, 1e12)
        .map_err(|e| format!("fault plan: {e}"))?;
    config.sources[0] = SourceSpec::new(spec.ring, spec.seed).with_fault(plan);

    let mut pool = SourcePool::start(&config, 2).map_err(|e| format!("pool: {e}"))?;
    let nbytes = options.requests * options.bytes * 2;
    let delivered = pool.read_bytes(nbytes).map_err(|e| format!("read: {e}"))?;
    let status = pool.status().to_vec();
    pool.shutdown();

    let alarms: u64 = status.iter().map(|s| s.stats.alarms).sum();
    let requarantines: u64 = status.iter().map(|s| s.stats.requarantines).sum();
    let replacements: u64 = status.iter().map(|s| s.stats.replacements).sum();
    let bits = BitString::from_packed(&delivered, delivered.len() * 8);
    let (rct, apt) = health::scan(&bits, config.claimed_min_entropy)
        .map_err(|e| format!("health scan: {e}"))?;
    Ok(FaultSection {
        delivered_bytes: delivered.len() as u64,
        alarms,
        requarantines,
        replacements,
        health_clean: (rct, apt) == (0, 0),
    })
}

// ---------------------------------------------------------------------
// uds_smoke
// ---------------------------------------------------------------------

struct SmokeSection {
    socket: String,
    mux_clients: usize,
    mux_grants: u64,
    mux_errors: u64,
    mux_completed: usize,
    accepted: u64,
    accept_errors: u64,
    register_errors: u64,
    drained: bool,
    replay_clients: usize,
    bytes_served: usize,
    deterministic: bool,
    clean_shutdown: bool,
}

/// Socket smoke, two halves:
///
/// 1. a 1024-connection closed-loop drill through the poll event loop —
///    every connection accepted and multiplexed by one thread, the
///    server counters checked (`accepted >= 1024`, zero accept and
///    register errors, all slots drained after the clients leave);
/// 2. a deterministic three-client run over real `UdsClient`s whose
///    served allocation is checked byte-for-byte against a fresh
///    in-process pool replay.
fn uds_smoke(options: &Options) -> Result<SmokeSection, String> {
    // Half 1: the big multiplexed drill.
    let mut config = ServeConfig::new(
        surrogate_pool(8, options.seed),
        SchedulerMode::Fair { max_in_flight: 64 },
    );
    config.shards = 4;
    let service =
        EntropyService::start(&config).map_err(|e| format!("smoke service start: {e}"))?;
    let socket = options.socket.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("strent-serve-smoke-{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let server = UdsServer::start(service.connector(), &socket)
        .map_err(|e| format!("smoke server start: {e}"))?;
    let stats = server.stats();
    let mux_config = MuxConfig {
        connections: SMOKE_CONNS,
        requests_per_conn: 2,
        nbytes: 16,
        mode: LoadMode::Closed,
        first_client_id: 0,
        retry_backpressure: true,
        deadline: Duration::from_secs(180),
    };
    let report = mux::run(&socket, &mux_config).map_err(|e| format!("smoke mux: {e}"))?;
    // The clients have all disconnected; the event loop observes the
    // EOFs and releases every slot. Give it a bounded moment.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while stats.active() > 0 && Instant::now() < drain_deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let accepted = stats.accepted();
    let accept_errors = stats.accept_errors();
    let register_errors = stats.register_errors();
    let drained = stats.active() == 0;
    let mut clean_shutdown = server.shutdown().is_ok() && service.shutdown().is_ok();

    // Half 2: deterministic replay over real socket clients.
    let replay_clients = 3usize;
    let smoke = Options {
        full: options.full,
        seed: options.seed,
        clients: replay_clients,
        requests: options.requests.min(4),
        bytes: options.bytes.min(24),
        out: String::new(),
        smoke: true,
        socket: None,
    };
    let det_config = ServeConfig::new(
        bench_pool(replay_clients, smoke.seed),
        SchedulerMode::Deterministic {
            expected_clients: replay_clients,
        },
    );
    let det_service =
        EntropyService::start(&det_config).map_err(|e| format!("replay service start: {e}"))?;
    let det_socket = format!("{socket}.det");
    let det_server = UdsServer::start(det_service.connector(), &det_socket)
        .map_err(|e| format!("replay server start: {e}"))?;

    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for client_id in 0..replay_clients {
        let path = det_socket.clone();
        let sizes: Vec<u32> = (0..smoke.requests)
            .map(|round| {
                u32::try_from(request_size(&smoke, client_id, round)).expect("small size")
            })
            .collect();
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            let run = || -> Result<Vec<u8>, String> {
                let mut client =
                    UdsClient::connect(&path, u32::try_from(client_id).expect("small id"))
                        .map_err(|e| format!("connect: {e}"))?;
                let mut stream = Vec::new();
                for nbytes in sizes {
                    stream.extend(
                        client
                            .request(nbytes)
                            .map_err(|e| format!("request: {e}"))?,
                    );
                }
                client.close().map_err(|e| format!("close: {e}"))?;
                Ok(stream)
            };
            let _ = tx.send((client_id, run()));
        }));
    }
    drop(tx);
    let mut streams = vec![Vec::new(); replay_clients];
    for _ in 0..replay_clients {
        let (client_id, result) = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "smoke replay client timed out".to_owned())?;
        streams[client_id] = result.map_err(|e| format!("replay client {client_id}: {e}"))?;
    }
    for handle in handles {
        let _ = handle.join();
    }
    clean_shutdown =
        clean_shutdown && det_server.shutdown().is_ok() && det_service.shutdown().is_ok();

    let replay = replay_allocation(&smoke, replay_clients)?;
    Ok(SmokeSection {
        socket,
        mux_clients: SMOKE_CONNS,
        mux_grants: report.grants,
        mux_errors: report.errors,
        mux_completed: report.completed_conns,
        accepted,
        accept_errors,
        register_errors,
        drained,
        replay_clients,
        bytes_served: streams.iter().map(Vec::len).sum(),
        deterministic: streams == replay,
        clean_shutdown,
    })
}

impl SmokeSection {
    fn passed(&self) -> bool {
        self.mux_completed == self.mux_clients
            && self.mux_errors == 0
            && self.mux_grants >= (self.mux_clients as u64) * 2
            && self.accepted >= self.mux_clients as u64
            && self.accept_errors == 0
            && self.register_errors == 0
            && self.drained
            && self.deterministic
            && self.clean_shutdown
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

fn push_load_points(json: &mut String, label_key: &str, points: &[LoadPoint], label_int: bool) {
    for (i, point) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let label = if label_int {
            format!("{}", point.label as u64)
        } else {
            format!("{:.2}", point.label)
        };
        let _ = write!(
            json,
            "{sep}\n      {{\"{label_key}\": {label}, \"grants\": {}, \"busy\": {}, \
             \"rate_limited\": {}, \"shed\": {}, \"errors\": {}, \
             \"throughput_rps\": {:.1}, \"throughput_bytes_per_sec\": {:.0}, \
             \"wall_ms\": {:.1}, \"latency_p50_us\": {:.1}, \"latency_p99_us\": {:.1}, \
             \"latency_p999_us\": {:.1}, \"peak_outstanding\": {}, \"deadline_hit\": {}}}",
            point.report.grants,
            point.report.busy,
            point.report.rate_limited,
            point.report.shed,
            point.report.errors,
            point.throughput_rps(),
            point.throughput_bytes_per_sec(),
            point.report.wall_ns as f64 / 1e6,
            point.p50_us,
            point.p99_us,
            point.p999_us,
            point.report.peak_outstanding,
            point.report.deadline_hit,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    options: &Options,
    det: &DeterminismSection,
    closed: &ClosedLoopSection,
    open: &OpenLoopSection,
    scaling: &ScalingSection,
    backpressure: &BackpressureSection,
    fault: &FaultSection,
    smoke: Option<&SmokeSection>,
) -> String {
    let host_cpus = thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"strentropy-bench-serve/2\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        if options.full { "full" } else { "quick" }
    );
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"trace\": {{\"clients\": {}, \"requests_per_client\": {}, \
         \"base_bytes\": {}}},",
        options.clients, options.requests, options.bytes
    );
    json.push_str("  \"determinism\": {\n");
    json.push_str("    \"shard_digests\": [");
    for (i, (shards, digest)) in det.digests.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"shards\": {shards}, \"fnv1a64\": \"{digest:016x}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("],\n");
    let _ = writeln!(json, "    \"bytes_per_run\": {},", det.bytes_per_run);
    let _ = writeln!(json, "    \"bit_identical\": {},", det.bit_identical);
    let _ = writeln!(json, "    \"matches_pool_replay\": {}", det.matches_replay);
    json.push_str("  },\n");

    json.push_str("  \"closed_loop\": {\n");
    json.push_str("    \"backend\": \"surrogate\",\n");
    json.push_str("    \"points\": [");
    push_load_points(&mut json, "clients", &closed.points, true);
    json.push_str("\n    ],\n");
    let _ = writeln!(json, "    \"saturation_rps\": {:.1}", closed.saturation_rps);
    json.push_str("  },\n");

    json.push_str("  \"open_loop\": {\n");
    json.push_str("    \"backend\": \"surrogate\",\n");
    let _ = writeln!(json, "    \"connections\": {},", open.conns);
    json.push_str("    \"points\": [");
    push_load_points(&mut json, "saturation_fraction", &open.points, false);
    json.push_str("\n    ]\n");
    json.push_str("  },\n");

    json.push_str("  \"shard_scaling\": {\n");
    json.push_str("    \"harness\": \"in_process\",\n");
    let _ = writeln!(json, "    \"clients\": {SCALING_CLIENTS},");
    let _ = writeln!(json, "    \"max_in_flight\": {SCALING_MAX_IN_FLIGHT},");
    json.push_str("    \"points\": [");
    for (i, point) in scaling.points.iter().enumerate() {
        let _ = write!(
            json,
            "{}\n      {{\"backend\": \"{}\", \"shards\": {}, \
             \"throughput_rps\": {:.1}, \"latency_p99_us\": {:.1}}}",
            if i == 0 { "" } else { "," },
            point.backend,
            point.shards,
            point.throughput_rps,
            point.p99_us,
        );
    }
    json.push_str("\n    ],\n");
    let _ = writeln!(
        json,
        "    \"speedup_8v1_full_sim\": {:.2},",
        scaling.speedup_full_sim
    );
    let _ = writeln!(
        json,
        "    \"speedup_8v1_surrogate\": {:.2},",
        scaling.speedup_surrogate
    );
    let _ = writeln!(json, "    \"speedup_8v1\": {:.2}", scaling.best_speedup());
    json.push_str("  },\n");

    json.push_str("  \"backpressure\": {\n");
    let _ = writeln!(json, "    \"grants\": {},", backpressure.grants);
    let _ = writeln!(json, "    \"busy\": {},", backpressure.busy);
    let _ = writeln!(json, "    \"rate_limited\": {},", backpressure.rate_limited);
    let _ = writeln!(json, "    \"shed\": {},", backpressure.shed);
    let _ = writeln!(
        json,
        "    \"all_classes_observed\": {}",
        backpressure.all_classes_observed
    );
    json.push_str("  },\n");

    json.push_str("  \"fault_drill\": {\n");
    let _ = writeln!(json, "    \"delivered_bytes\": {},", fault.delivered_bytes);
    let _ = writeln!(json, "    \"alarms\": {},", fault.alarms);
    let _ = writeln!(json, "    \"requarantines\": {},", fault.requarantines);
    let _ = writeln!(json, "    \"replacements\": {},", fault.replacements);
    let _ = writeln!(json, "    \"bytes_per_alarm\": {:.1},", fault.bytes_per_alarm());
    let _ = writeln!(json, "    \"health_clean\": {}", fault.health_clean);
    let _ = write!(json, "  }}");
    if let Some(smoke) = smoke {
        json.push_str(",\n  \"uds_smoke\": {\n");
        let _ = writeln!(json, "    \"socket\": \"{}\",", smoke.socket);
        let _ = writeln!(json, "    \"mux_clients\": {},", smoke.mux_clients);
        let _ = writeln!(json, "    \"mux_grants\": {},", smoke.mux_grants);
        let _ = writeln!(json, "    \"mux_errors\": {},", smoke.mux_errors);
        let _ = writeln!(json, "    \"mux_completed\": {},", smoke.mux_completed);
        let _ = writeln!(json, "    \"accepted\": {},", smoke.accepted);
        let _ = writeln!(json, "    \"accept_errors\": {},", smoke.accept_errors);
        let _ = writeln!(json, "    \"register_errors\": {},", smoke.register_errors);
        let _ = writeln!(json, "    \"drained\": {},", smoke.drained);
        let _ = writeln!(json, "    \"replay_clients\": {},", smoke.replay_clients);
        let _ = writeln!(json, "    \"bytes_served\": {},", smoke.bytes_served);
        let _ = writeln!(json, "    \"deterministic\": {},", smoke.deterministic);
        let _ = writeln!(json, "    \"clean_shutdown\": {}", smoke.clean_shutdown);
        let _ = write!(json, "  }}");
    }
    json.push_str("\n}\n");
    json
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: serve_load [--quick|--full] [--seed N] [--clients N] \
                 [--requests N] [--bytes N] [--out PATH] [--smoke] [--socket PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# serve_load: seed {}, {} clients x {} requests (base {} bytes)",
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
        "# determinism: {} bytes/run, digests {} across shards {:?}",
        det.bytes_per_run,
        if det.bit_identical { "identical" } else { "DIVERGED" },
        SHARD_SWEEP
    );
    let closed = match closed_loop(&options) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("closed loop failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for point in &closed.points {
        eprintln!(
            "# closed loop: {} clients -> {:.0} req/s, p50 {:.0}us p99 {:.0}us p999 {:.0}us",
            point.label as u64,
            point.throughput_rps(),
            point.p50_us,
            point.p99_us,
            point.p999_us
        );
    }
    let open = match open_loop(&options, closed.saturation_rps) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("open loop failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for point in &open.points {
        eprintln!(
            "# open loop: {:.2}x sat -> {:.0} req/s achieved, p99 {:.0}us p999 {:.0}us",
            point.label,
            point.throughput_rps(),
            point.p99_us,
            point.p999_us
        );
    }
    let scaling = match shard_scaling(&options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shard scaling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# shard scaling: speedup 8v1 full_sim {:.2}x, surrogate {:.2}x",
        scaling.speedup_full_sim, scaling.speedup_surrogate
    );
    let backpressure = match backpressure_drill(&options) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("backpressure drill failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# backpressure: {} grants, busy {}, rate_limited {}, shed {}",
        backpressure.grants, backpressure.busy, backpressure.rate_limited, backpressure.shed
    );
    let fault = match fault_drill(&options) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fault drill failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# fault drill: {} alarms, {} replacements, {:.0} bytes/alarm, clean={}",
        fault.alarms,
        fault.replacements,
        fault.bytes_per_alarm(),
        fault.health_clean
    );
    let smoke = if options.smoke {
        match uds_smoke(&options) {
            Ok(s) => {
                eprintln!(
                    "# uds smoke: {} mux conns ({} grants, {} errors), accepted {}, \
                     deterministic={}, shutdown={}",
                    s.mux_clients,
                    s.mux_grants,
                    s.mux_errors,
                    s.accepted,
                    s.deterministic,
                    s.clean_shutdown
                );
                Some(s)
            }
            Err(e) => {
                eprintln!("uds smoke failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let failed = !det.bit_identical
        || !det.matches_replay
        || closed.saturation_rps <= 0.0
        || closed.points.iter().any(|p| p.report.deadline_hit)
        || open.points.iter().any(|p| p.report.deadline_hit)
        || scaling.best_speedup() < 2.0
        || !backpressure.all_classes_observed
        || fault.alarms == 0
        || fault.replacements == 0
        || !fault.health_clean
        || smoke.as_ref().is_some_and(|s| !s.passed());

    let json = emit_json(
        &options,
        &det,
        &closed,
        &open,
        &scaling,
        &backpressure,
        &fault,
        smoke.as_ref(),
    );
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", options.out);
    if failed {
        eprintln!("serve_load: an invariant failed (see the JSON report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
