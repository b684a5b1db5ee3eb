//! The serving workloads (`serve_bulk`, `serve_paced`) and the traced
//! request-path ladder.
//!
//! Both workloads drive the same stack — a Fair-mode `EntropyService`
//! with one worker and one shard behind a `UdsServer`, serving the
//! production `PoolConfig::mixed_default` pool on the surrogate backend
//! — in opposite regimes: a closed loop that saturates the batch path,
//! and a light open loop where the request path and its timers set
//! latency and CPU.
//!
//! Every request of a workload has the same size, so the k-th grant is
//! bytes [k·n, (k+1)·n) of the pool stream whichever connection gets
//! it. An order-independent digest over all grants must therefore equal
//! the digest of a single-worker `SourcePool` replay of the same config.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use strent_rings::surrogate::SourceBackend;
use strent_serve::{EntropyService, SchedulerMode, ServeConfig, SourcePool, UdsServer};
use strentropy::pool::PoolConfig;

use crate::loadgen::{self, Reply};
use crate::stats::{self, median, percentile, us, ColdStarts, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{ladder, repro, Args};

/// Pool sources (cycling the STR-32 / STR-64 / IRO-32 presets).
const SOURCES: usize = 6;
/// Producer worker threads, pinned rather than taken from the host.
const WORKERS: usize = 1;
/// Scheduler shards, pinned rather than taken from the host.
const SHARDS: usize = 1;
/// Fair-mode per-shard in-flight budget; neither workload reaches it.
const MAX_IN_FLIGHT: usize = 16;
/// Client connections of either load generator.
const CONNECTIONS: u32 = 2;
/// `serve_bulk` request size, bytes.
const BULK_REQUEST: usize = 4096;
/// `serve_bulk` requests per round (32 KiB). Rounds are short so that a
/// run holds dozens of them and their median rides out the host's
/// second-to-second swings.
const BULK_ROUND_REQUESTS: usize = 8;
/// `serve_paced` request size, bytes.
const PACED_REQUEST: usize = 32;
/// `serve_paced` offered rate over all connections, requests/s.
const PACED_RATE_HZ: f64 = 200.0;
/// Fewest samples any reported percentile is computed over.
const MIN_SAMPLES: usize = 2000;
/// Cold starts per run, spread over the measured phase; their median is
/// `setup_s`.
const SETUP_STARTS: usize = 9;
/// Segments of a paced schedule; `cpu_s` is the median segment's.
const PACED_SEGMENTS: usize = 8;
/// Requests of the fixed budget `EntropyService::status()` is read at.
const STATUS_REQUESTS: usize = 16;
/// Pause after the warm-up grants so every source's channel is full
/// before a paced clock starts.
const WARM_FILL: Duration = Duration::from_millis(200);
/// Lead between arming an open loop and its first due instant.
const LEAD: Duration = Duration::from_millis(10);

/// The seed whose simulated boards every serving run places its
/// sources on.
const BOARD_SEED: u64 = repro::GOLDEN_SEED;

/// The pool every serving measurement uses: the production
/// `mixed_default` pool on the surrogate backend. `seed` reseeds the
/// rings' noise; the boards stay those of [`BOARD_SEED`], so every seed
/// runs the same hardware — board process variation moves a ring's
/// period and with it the per-byte cost, which would make the workload
/// a different one at each seed.
fn pool_config(seed: u64) -> PoolConfig {
    let boards = PoolConfig::mixed_default(SOURCES, BOARD_SEED);
    let mut pool = PoolConfig::mixed_default(SOURCES, seed);
    for (spec, board) in pool.sources.iter_mut().zip(&boards.sources) {
        spec.board_seed = board.board_seed;
    }
    pool.with_backend(SourceBackend::Surrogate)
}

/// The service configuration every serving measurement uses.
fn serve_config(seed: u64) -> ServeConfig {
    let mut config = ServeConfig::new(
        pool_config(seed),
        SchedulerMode::Fair {
            max_in_flight: MAX_IN_FLIGHT,
        },
    );
    config.workers = WORKERS;
    config.shards = SHARDS;
    config
}

/// Order-independent digest of a set of grants: the wrapping sum of
/// each grant's FNV-1a hash, with the grant count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Digest {
    sum: u64,
    count: u64,
}

impl Digest {
    fn add(&mut self, grant: &[u8]) {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &b in grant {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.sum = self.sum.wrapping_add(hash);
        self.count += 1;
    }
}

/// Digest of the first `count` grants of `nbytes` from a single-worker
/// `SourcePool` of the same config, and the first grant itself.
fn replay(seed: u64, nbytes: usize, count: u64) -> Result<(Digest, Vec<u8>), String> {
    let mut pool = SourcePool::start(&pool_config(seed), 1).map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    let mut first = Vec::new();
    for k in 0..count {
        let grant = pool.read_bytes(nbytes).map_err(|e| e.to_string())?;
        digest.add(&grant);
        if k == 0 {
            first = grant;
        }
    }
    pool.shutdown();
    Ok((digest, first))
}

/// A running service and its socket frontend.
struct Live {
    service: EntropyService,
    server: UdsServer,
    path: PathBuf,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        self.server.shutdown().map_err(|e| e.to_string())?;
        self.service.shutdown().map_err(|e| e.to_string())
    }
}

/// A fresh socket path inside the checkout, relative so it stays far
/// below the `sun_path` limit.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let dir = PathBuf::from(".bench_build/perfbench");
    std::fs::create_dir_all(&dir).expect("creating the socket directory");
    dir.join(format!(
        "s{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Cold start → first grant: starts the service and its frontend,
/// connects as client 0 and requests `nbytes`. Returns the live
/// service, the elapsed time and the grant.
fn cold_start(seed: u64, nbytes: usize) -> Result<(Live, Duration, Vec<u8>), String> {
    let path = socket_path();
    let start = Instant::now();
    let service = EntropyService::start(&serve_config(seed)).map_err(|e| e.to_string())?;
    let server = UdsServer::start(service.connector(), &path).map_err(|e| e.to_string())?;
    let mut stream = loadgen::connect(&path, 0)?;
    let reply = loadgen::request(&mut stream, nbytes)?;
    let took = start.elapsed();
    if !loadgen::is_grant(&reply, nbytes) {
        return Err(format!("first request refused (0x{:02x})", reply.op));
    }
    Ok((
        Live {
            service,
            server,
            path,
        },
        took,
        reply.bytes,
    ))
}

/// A cold start beside the live service, stopped again; its first grant
/// joins `firsts` for the replay check.
fn extra_cold_start(
    seed: u64,
    nbytes: usize,
    firsts: &mut Vec<Vec<u8>>,
) -> Result<Duration, String> {
    let (live, took, grant) = cold_start(seed, nbytes)?;
    live.stop()?;
    firsts.push(grant);
    Ok(took)
}

/// Thread-name prefixes (`comm` is truncated to 15 bytes) of the
/// per-thread CPU metrics.
const THREAD_GROUPS: [(&str, &str); 3] = [
    ("serve.pool.worker_cpu_s", "strent-serve-wo"),
    ("serve.scheduler.shard_cpu_s", "strent-serve-sh"),
    ("serve.server.event_loop_cpu_s", "strent-serve-ev"),
];

type ThreadSnapshot = std::collections::BTreeMap<u32, (String, f64)>;

/// Per-thread CPU of the service's threads between two snapshots, and
/// of the load generator (whose threads report their own CPU on exit).
fn thread_metrics(before: &ThreadSnapshot, after: &ThreadSnapshot, loadgen_cpu_s: f64) -> Metrics {
    let mut m = Metrics::default();
    for (metric, prefix) in THREAD_GROUPS {
        m.put(metric, stats::thread_cpu_delta(before, after, prefix), "s");
    }
    m.put("loadgen.cpu_s", loadgen_cpu_s, "s");
    m
}

/// Tallies replies into a digest; returns (grants verified, typed
/// backpressure rejections, other failures).
fn tally(replies: &[Reply], nbytes: usize, digest: &mut Digest) -> (u64, u64, u64) {
    let (mut ok, mut rejected, mut failed) = (0, 0, 0);
    for reply in replies {
        if loadgen::is_grant(reply, nbytes) {
            digest.add(&reply.bytes);
            ok += 1;
        } else if matches!(
            reply.op,
            strent_serve::wire::OP_BUSY
                | strent_serve::wire::OP_RATE_LIMITED
                | strent_serve::wire::OP_SHEDDING
        ) {
            rejected += 1;
        } else {
            failed += 1;
        }
    }
    (ok, rejected, failed)
}

/// One closed-loop round of `serve_bulk`.
struct BulkRound {
    wall: Duration,
    cpu_s: f64,
    loadgen_cpu_s: f64,
    bytes: usize,
    replies: Vec<Reply>,
}

fn bulk_round(live: &Live, round: u32) -> Result<BulkRound, String> {
    let ids: Vec<u32> = (0..CONNECTIONS)
        .map(|c| 1 + round * CONNECTIONS + c)
        .collect();
    let cpu0 = stats::process_cpu_s();
    let (replies, wall, loadgen_cpu_s) =
        loadgen::closed_loop(&live.path, &ids, BULK_REQUEST, BULK_ROUND_REQUESTS)?;
    Ok(BulkRound {
        wall,
        cpu_s: stats::process_cpu_s() - cpu0,
        loadgen_cpu_s,
        bytes: replies.iter().map(|r| r.bytes.len()).sum(),
        replies,
    })
}

/// `serve_bulk`: a cold start, a warm-up round, then closed-loop rounds
/// until the measuring time is used up, with the other cold starts
/// spread between them, then the replay check.
pub fn bulk(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let (live, took, first) = cold_start(seed, BULK_REQUEST)?;
    let mut setups = ColdStarts::new(SETUP_STARTS);
    setups.record(took);
    let mut digest = Digest::default();
    digest.add(&first);
    let mut firsts = vec![first];
    let warm = bulk_round(&live, 0)?;
    let mut rounds = Vec::new();
    let steal = stats::HostSteal::start();
    let start = Instant::now();
    // Start another round only while it is expected to end in time.
    while rounds
        .last()
        .is_none_or(|r: &BulkRound| start.elapsed() + r.wall <= args.seconds)
    {
        rounds.push(bulk_round(&live, 1 + rounds.len() as u32)?);
        let done = start.elapsed().as_secs_f64() / args.seconds.as_secs_f64();
        setups.keep_pace(done, || extra_cold_start(seed, BULK_REQUEST, &mut firsts))?;
    }
    setups.keep_pace(1.0, || extra_cold_start(seed, BULK_REQUEST, &mut firsts))?;
    let steal = steal.stop();
    live.stop()?;
    let replies: Vec<&Reply> = rounds.iter().flat_map(|r| &r.replies).collect();
    let mut ok = 0;
    let mut failed = 0;
    for round in std::iter::once(&warm).chain(&rounds) {
        let (o, r, f) = tally(&round.replies, BULK_REQUEST, &mut digest);
        ok += o;
        failed += r + f;
    }
    let attempted = (warm.replies.len() + replies.len()) as u64;
    let (expected, first) = replay(seed, BULK_REQUEST, digest.count)?;
    let digest_ok = digest == expected && firsts.iter().all(|g| *g == first);
    if !digest_ok {
        eprintln!("serve_bulk: served grants do not match the single-worker pool replay");
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    let mut m = Metrics::default();
    m.put("wall_s", median(&walls), "s");
    m.put("cpu_s", median(&cpus), "s");
    m.put("setup_s", setups.median(), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m.put(
        "success_frac",
        if digest_ok {
            ok as f64 / attempted as f64
        } else {
            0.0
        },
        "ratio",
    );
    let latencies: Vec<f64> = replies.iter().map(|r| us(r.decoded - r.sent)).collect();
    let bytes: usize = rounds.iter().map(|r| r.bytes).sum();
    eprintln!(
        "serve_bulk: setups {:?} s, {} rounds of {BULK_ROUND_REQUESTS} x {BULK_REQUEST} B, \
         walls {walls:?} s, cpu {cpus:?} s, {:.0} B/s, request p50 {:.0} us p99 {:.0} us, \
         host steal {:.1}%",
        setups.times(),
        rounds.len(),
        bytes as f64 / walls.iter().sum::<f64>(),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        steal.percent()
    );
    Ok(Outcome {
        correct: digest_ok && failed == 0,
        attempted,
        failed: if digest_ok { failed } else { attempted },
        metrics: m,
    })
}

/// One open-loop schedule of `serve_paced` against a live service.
struct PacedRun {
    replies: Vec<Reply>,
    /// Each segment's first due instant → its last grant decoded.
    segment_wall_s: Vec<f64>,
    segment_cpu_s: Vec<f64>,
    steal_percent: f64,
    threads: Metrics,
    wake_full: u64,
}

/// Connects the two load-generator connections, warms each with one
/// grant, lets the pool buffers fill, then runs `total` requests at the
/// paced rate in [`PACED_SEGMENTS`] segments, measuring the wall time
/// and process CPU of each. After each segment, `between` is called
/// with the share of the schedule done. Warm-up grants are added to
/// `digest`.
fn paced_schedule(
    live: &Live,
    total: usize,
    digest: &mut Digest,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<PacedRun, String> {
    let mut streams = Vec::new();
    for c in 0..CONNECTIONS {
        let mut stream = loadgen::connect(&live.path, 1 + c)?;
        let warm = loadgen::request(&mut stream, PACED_REQUEST)?;
        if !loadgen::is_grant(&warm, PACED_REQUEST) {
            return Err(format!("warm-up request refused (0x{:02x})", warm.op));
        }
        digest.add(&warm.bytes);
        streams.push(stream);
    }
    thread::sleep(WARM_FILL);
    let stats = live.server.stats();
    let wake0 = stats.wake_full();
    let threads0 = stats::thread_cpu();
    let steal = stats::HostSteal::start();
    let mut replies = Vec::with_capacity(total);
    let mut segment_wall_s = Vec::with_capacity(PACED_SEGMENTS);
    let mut segment_cpu_s = Vec::with_capacity(PACED_SEGMENTS);
    let mut loadgen_cpu_s = 0.0;
    for segment in 0..PACED_SEGMENTS {
        let n = total / PACED_SEGMENTS + usize::from(segment < total % PACED_SEGMENTS);
        let cpu0 = stats::process_cpu_s();
        let at = Instant::now() + LEAD;
        let (r, cpu) = loadgen::open_loop(&streams, PACED_REQUEST, PACED_RATE_HZ, n, at)?;
        segment_cpu_s.push(stats::process_cpu_s() - cpu0);
        let last = r.iter().map(|r| r.decoded).max().unwrap_or(at);
        segment_wall_s.push((last - at).as_secs_f64());
        replies.extend(r);
        loadgen_cpu_s += cpu;
        between((segment + 1) as f64 / PACED_SEGMENTS as f64)?;
    }
    let threads = thread_metrics(&threads0, &stats::thread_cpu(), loadgen_cpu_s);
    Ok(PacedRun {
        replies,
        segment_wall_s,
        segment_cpu_s,
        steal_percent: steal.stop().percent(),
        threads,
        wake_full: stats.wake_full() - wake0,
    })
}

/// Requests in the paced schedule of a run measuring for `seconds`.
fn paced_total(seconds: Duration) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let scheduled = (PACED_RATE_HZ * seconds.as_secs_f64()) as usize;
    scheduled.max(MIN_SAMPLES)
}

/// `serve_paced`: a cold start, warm-up, one open-loop schedule filling
/// the measuring time with the other cold starts spread between its
/// segments, then the replay check.
pub fn paced(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let (live, took, first) = cold_start(seed, PACED_REQUEST)?;
    let mut setups = ColdStarts::new(SETUP_STARTS);
    setups.record(took);
    let mut digest = Digest::default();
    digest.add(&first);
    let mut firsts = vec![first];
    let run = paced_schedule(&live, paced_total(args.seconds), &mut digest, |done| {
        setups.keep_pace(done, || extra_cold_start(seed, PACED_REQUEST, &mut firsts))
    })?;
    live.stop()?;
    let (ok, rejected, failed) = tally(&run.replies, PACED_REQUEST, &mut digest);
    let attempted = run.replies.len() as u64;
    let (expected, first) = replay(seed, PACED_REQUEST, digest.count)?;
    let digest_ok = digest == expected && firsts.iter().all(|g| *g == first);
    if !digest_ok {
        eprintln!("serve_paced: served grants do not match the single-worker pool replay");
    }
    let mut m = Metrics::default();
    m.put("wall_s", run.segment_wall_s.iter().sum(), "s");
    m.put("cpu_s", median(&run.segment_cpu_s), "s");
    m.put("setup_s", setups.median(), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m.put(
        "success_frac",
        if digest_ok {
            ok as f64 / attempted as f64
        } else {
            0.0
        },
        "ratio",
    );
    let latencies: Vec<f64> = run.replies.iter().map(|r| us(r.decoded - r.due)).collect();
    let lateness: Vec<f64> = run.replies.iter().map(|r| us(r.sent - r.due)).collect();
    eprintln!(
        "serve_paced: setups {:?} s, {attempted} requests, segment cpu {:?} s, latency p50 {:.0} us \
         p99 {:.0} us, lateness p50 {:.0} us p99 {:.0} us, host steal {:.1}%",
        setups.times(),
        run.segment_cpu_s,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&lateness, 0.50),
        percentile(&lateness, 0.99),
        run.steal_percent
    );
    let failed = rejected + failed;
    Ok(Outcome {
        correct: digest_ok && failed == 0,
        attempted,
        failed: if digest_ok { failed } else { attempted },
        metrics: m,
    })
}

/// Calls `call(i)` at each due instant of a `MIN_SAMPLES`-request paced
/// schedule, recording a span per call. Returns the calls' results and
/// each call's latency from its due instant, µs.
fn on_schedule<T>(
    tracer: &mut Tracer,
    span: &'static str,
    mut call: impl FnMut(usize) -> T,
) -> (Vec<T>, Vec<f64>) {
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE_HZ);
    let start = Instant::now() + LEAD;
    let mut results = Vec::with_capacity(MIN_SAMPLES);
    let mut latencies = Vec::with_capacity(MIN_SAMPLES);
    for i in 0..MIN_SAMPLES {
        let due = start + interval * i as u32;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        results.push(call(i));
        let done = Instant::now();
        tracer.record(span, due, done, None, Some(i as u64));
        latencies.push(us(done - due));
    }
    (results, latencies)
}

/// The paced schedule against `SourcePool::read_bytes` directly, after
/// the socket path's warm-up (the cold-start grant and one grant per
/// connection). Returns the latencies and the digest of every grant.
fn pool_entry(seed: u64, tracer: &mut Tracer) -> Result<(Vec<f64>, Digest), String> {
    let mut pool = SourcePool::start(&pool_config(seed), WORKERS).map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    for _ in 0..=CONNECTIONS {
        digest.add(&pool.read_bytes(PACED_REQUEST).map_err(|e| e.to_string())?);
    }
    thread::sleep(WARM_FILL);
    let (grants, latencies) = on_schedule(tracer, "serve.pool.read_bytes", |_| {
        pool.read_bytes(PACED_REQUEST)
    });
    pool.shutdown();
    for grant in grants {
        digest.add(&grant.map_err(|e| e.to_string())?);
    }
    Ok((latencies, digest))
}

/// The paced schedule against in-process `EntropyClient::request`, with
/// the same warm-up. Returns the latencies, the digest of the grants,
/// and the typed backpressure rejections and other failures.
fn scheduler_entry(seed: u64, tracer: &mut Tracer) -> Result<(Vec<f64>, Digest, u64, u64), String> {
    let service = EntropyService::start(&serve_config(seed)).map_err(|e| e.to_string())?;
    let clients = (0..=CONNECTIONS)
        .map(|id| service.connect(id))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut digest = Digest::default();
    for client in &clients {
        digest.add(&client.request(PACED_REQUEST).map_err(|e| e.to_string())?);
    }
    thread::sleep(WARM_FILL);
    let (results, latencies) = on_schedule(tracer, "serve.scheduler.request", |i| {
        clients[1 + i % CONNECTIONS as usize].request(PACED_REQUEST)
    });
    drop(clients);
    service.shutdown().map_err(|e| e.to_string())?;
    let (mut rejections, mut failed) = (0, 0);
    for result in results {
        match result {
            Ok(grant) if grant.len() == PACED_REQUEST => digest.add(&grant),
            Err(e) if e.backpressure().is_some() => rejections += 1,
            _ => failed += 1,
        }
    }
    Ok((latencies, digest, rejections, failed))
}

/// The serving ladder: the batch path per byte, the source status at a
/// fixed budget, and the paced schedule replayed through the pool, the
/// scheduler and the socket (consecutive differences are each layer's
/// self time). Returns the socket replay's latency p50 and the
/// per-thread CPU over it.
pub fn layers(seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> Result<(f64, Metrics), String> {
    let (compared, differed) = ladder::batch_path(&pool_config(seed), tracer, &mut out.metrics)?;
    out.count(compared, differed);
    status_counts(seed, &mut out.metrics)?;

    let (pool, pool_digest) = pool_entry(seed, tracer)?;
    let (sched, sched_digest, sched_rejected, sched_failed) = scheduler_entry(seed, tracer)?;
    let (live, _, first) = cold_start(seed, PACED_REQUEST)?;
    let mut digest = Digest::default();
    digest.add(&first);
    let run = paced_schedule(&live, MIN_SAMPLES, &mut digest, |_| Ok(()))?;
    live.stop()?;
    let (_, sock_rejected, sock_failed) = tally(&run.replies, PACED_REQUEST, &mut digest);
    for (i, r) in run.replies.iter().enumerate() {
        let id = Some(i as u64);
        let span = tracer.record("serve.server.request", r.due, r.decoded, None, id);
        tracer.record("loadgen.send", r.due, r.sent, Some(span), id);
    }
    let sock: Vec<f64> = run.replies.iter().map(|r| us(r.decoded - r.due)).collect();
    let lateness: Vec<f64> = run.replies.iter().map(|r| us(r.sent - r.due)).collect();
    let m = &mut out.metrics;
    for (name, lat) in [
        ("serve.pool.read", &pool),
        ("serve.scheduler.request", &sched),
        ("serve.server.request", &sock),
        ("loadgen.lateness", &lateness),
    ] {
        m.put(format!("{name}_p50_us"), percentile(lat, 0.50), "us");
        m.put(format!("{name}_p99_us"), percentile(lat, 0.99), "us");
    }
    m.put(
        "serve.scheduler.rejections",
        (sched_rejected + sock_rejected) as f64,
        "count",
    );
    m.put("serve.server.wake_full", run.wake_full as f64, "count");
    // The pool replay is the reference stream; the scheduler and the
    // socket must serve exactly it.
    let mismatched = u64::from(sched_digest != pool_digest) + u64::from(digest != pool_digest);
    if mismatched > 0 {
        eprintln!("request ladder: scheduler or socket grants differ from the pool stream");
    }
    out.count(
        3 * MIN_SAMPLES as u64,
        sched_rejected + sched_failed + sock_rejected + sock_failed + mismatched,
    );
    Ok((percentile(&sock, 0.50), run.threads))
}

/// `EntropyService::status()` after a fixed budget through one
/// in-process client: lifetime alarms and the discarded-batch share.
fn status_counts(seed: u64, m: &mut Metrics) -> Result<(), String> {
    let service = EntropyService::start(&serve_config(seed)).map_err(|e| e.to_string())?;
    let client = service.connect(1).map_err(|e| e.to_string())?;
    for _ in 0..STATUS_REQUESTS {
        client.request(BULK_REQUEST).map_err(|e| e.to_string())?;
    }
    let status = service.status().map_err(|e| e.to_string())?;
    drop(client);
    service.shutdown().map_err(|e| e.to_string())?;
    let alarms: u64 = status.iter().map(|s| s.stats.alarms).sum();
    let discarded: u64 = status.iter().map(|s| s.stats.batches_discarded).sum();
    let delivered: u64 = status.iter().map(|s| s.stats.batches_delivered).sum();
    m.put("serve.source.alarms", alarms as f64, "count");
    m.put(
        "serve.source.discard_frac",
        discarded as f64 / (discarded + delivered) as f64,
        "ratio",
    );
    Ok(())
}

/// `serve_bulk`'s traced unit: untraced and traced rounds on one service
/// in the order untraced, traced, traced, untraced, so a steady drift of
/// the host's speed cancels. Returns `trace.overhead_frac` (time per
/// byte, traced against untraced) and the per-thread CPU over the traced
/// rounds.
pub fn bulk_overhead(
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(f64, Metrics), String> {
    let (live, _, first) = cold_start(seed, BULK_REQUEST)?;
    let mut digest = Digest::default();
    digest.add(&first);
    let plain_first = bulk_round(&live, 0)?;
    let threads0 = stats::thread_cpu();
    let traced = [bulk_round(&live, 1)?, bulk_round(&live, 2)?];
    let loadgen_cpu_s = traced.iter().map(|r| r.loadgen_cpu_s).sum();
    let threads = thread_metrics(&threads0, &stats::thread_cpu(), loadgen_cpu_s);
    let plain = [plain_first, bulk_round(&live, 3)?];
    live.stop()?;
    for (i, r) in traced.iter().flat_map(|t| &t.replies).enumerate() {
        tracer.record(
            "serve.server.request",
            r.sent,
            r.decoded,
            None,
            Some(i as u64),
        );
    }
    let mut failed = 0;
    for round in plain.iter().chain(&traced) {
        let (_, rejected, other) = tally(&round.replies, BULK_REQUEST, &mut digest);
        failed += rejected + other;
    }
    let (expected, _) = replay(seed, BULK_REQUEST, digest.count)?;
    out.count(
        4 * BULK_ROUND_REQUESTS as u64,
        failed + u64::from(expected != digest),
    );
    let per_byte = |rounds: &[BulkRound]| {
        rounds.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>()
            / rounds.iter().map(|r| r.bytes).sum::<usize>() as f64
    };
    Ok((per_byte(&traced) / per_byte(&plain) - 1.0, threads))
}

/// `serve_paced`'s untraced unit: the ladder's socket schedule without
/// spans. Returns its latency p50.
pub fn paced_plain_p50(seed: u64, out: &mut Outcome) -> Result<f64, String> {
    let (live, _, first) = cold_start(seed, PACED_REQUEST)?;
    let mut digest = Digest::default();
    digest.add(&first);
    let plain = paced_schedule(&live, MIN_SAMPLES, &mut digest, |_| Ok(()))?;
    live.stop()?;
    let (_, rejected, failed) = tally(&plain.replies, PACED_REQUEST, &mut digest);
    let (expected, _) = replay(seed, PACED_REQUEST, digest.count)?;
    out.count(
        MIN_SAMPLES as u64,
        rejected + failed + u64::from(expected != digest),
    );
    let latencies: Vec<f64> = plain
        .replies
        .iter()
        .map(|r| us(r.decoded - r.due))
        .collect();
    Ok(percentile(&latencies, 0.50))
}
