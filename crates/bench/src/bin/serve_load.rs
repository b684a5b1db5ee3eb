//! Load bench for `strent-serve`: drives the sharded, readiness-driven
//! service and emits `BENCH_serve.json` (schema
//! `strentropy-bench-serve/3`) with three measured sections:
//!
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
//!   backend.
//!
//! The socket sections send 32 B per request, the scaling sweep 16 B.
//! The pass/fail properties of the serving tier (served-byte digests,
//! backpressure classes, fault containment, the 1024-connection
//! frontend drill) are tests in `crates/serve`; `scripts/ci.sh`
//! validates this report's shape and scaling gate.
//! The JSON is hand-formatted — the workspace builds offline against
//! stub crates, so no serializer is assumed.
//!
//! Usage: `serve_load [--quick|--full] [--seed N] [--out PATH]`
//! (default `--quick`, `BENCH_serve.json` in the current directory).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use strent_rings::surrogate::SourceBackend;
use strent_serve::mux::{self, LoadMode, MuxConfig, MuxReport};
use strent_serve::{EntropyService, SchedulerMode, ServeConfig, UdsServer};
use strent_trng::postprocess::ConditionerKind;
use strentropy::pool::PoolConfig;

/// Shard counts the scaling section saturates at.
const SCALING_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// In-process clients and per-shard in-flight budget for the
/// shard-scaling sweep (also emitted into the JSON `shard_scaling`
/// section so the committed artifact documents its own harness).
const SCALING_CLIENTS: usize = 64;
const SCALING_MAX_IN_FLIGHT: usize = 4;

/// Client counts the closed-loop section sweeps.
const CLIENT_SWEEP: [usize; 4] = [1, 16, 128, 1024];

struct Options {
    full: bool,
    seed: u64,
    out: String,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        full: false,
        seed: 42,
        out: "BENCH_serve.json".to_owned(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.full = false,
            "--full" => options.full = true,
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--out" => options.out = args.next().ok_or("--out requires a value")?.clone(),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

/// A pool configuration sized for the bench: raw conditioner (the
/// conditioning ratios are covered by the serve crate's own tests) and
/// small batches for quick rounds, on the given waveform backend.
fn bench_pool(sources: usize, seed: u64, backend: SourceBackend) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, seed);
    config.conditioner = ConditionerKind::Raw;
    config.sample_period_factor = 2.37;
    config.batch_raw_bits = 64;
    config.warmup_periods = 16.0;
    config.with_backend(backend)
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

/// Starts a fair-mode service (8 surrogate sources, 4 shards,
/// `max_in_flight` 64) and a UDS server on a fresh temp socket, runs
/// one mux session against it, and tears both down.
fn socket_run(options: &Options, mux_config: &MuxConfig, tag: &str) -> Result<MuxReport, String> {
    let mut config = ServeConfig::new(
        bench_pool(8, options.seed, SourceBackend::Surrogate),
        SchedulerMode::Fair { max_in_flight: 64 },
    );
    config.shards = 4;
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
    let accept_errors = stats.accept_errors();
    server
        .shutdown()
        .map_err(|e| format!("{tag}: server shutdown: {e}"))?;
    service
        .shutdown()
        .map_err(|e| format!("{tag}: service shutdown: {e}"))?;
    if accept_errors > 0 {
        return Err(format!("{tag}: {accept_errors} accept errors"));
    }
    Ok(report)
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
            nbytes: 32,
            mode: LoadMode::Closed,
            first_client_id: 0,
            retry_backpressure: true,
            deadline: Duration::from_secs(120),
        };
        let report = socket_run(options, &mux_config, &format!("closed-{clients}"))?;
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
            nbytes: 32,
            mode: LoadMode::Open { interval_ns },
            first_client_id: 0,
            retry_backpressure: false,
            deadline: Duration::from_secs(120),
        };
        let tag = format!("open-{}", (fraction * 100.0) as u32);
        let report = socket_run(options, &mux_config, &tag)?;
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
        bench_pool(8, options.seed, backend),
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

fn emit_json(
    options: &Options,
    closed: &ClosedLoopSection,
    open: &OpenLoopSection,
    scaling: &ScalingSection,
) -> String {
    let host_cpus = thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"strentropy-bench-serve/3\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        if options.full { "full" } else { "quick" }
    );
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");

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
    json.push_str("  }\n}\n");
    json
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\nusage: serve_load [--quick|--full] [--seed N] [--out PATH]");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("# serve_load: seed {}", options.seed);

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

    let json = emit_json(&options, &closed, &open, &scaling);
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", options.out);
    ExitCode::SUCCESS
}
