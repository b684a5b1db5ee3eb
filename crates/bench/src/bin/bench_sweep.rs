//! Emits `BENCH_sweep.json` (per-stage execution statistics of the
//! parallel experiment runner: wall clock, per-shard busy time and
//! dispatched simulator events, plus a fig8 thread-scaling probe) and
//! `BENCH_engine.json` (per-experiment dispatch throughput plus a
//! 32-stage STR dispatch microbench — the kernel evidence described in
//! `docs/engine_perf.md`).
//!
//! The JSON is hand-formatted — the workspace builds offline against
//! stub crates, so no serializer is assumed.
//!
//! Usage: `bench_sweep [--quick|--full] [--seed N] [--threads N]
//! [--out PATH] [--engine-out PATH]` (default `--quick`,
//! `BENCH_sweep.json` / `BENCH_engine.json` in the current directory).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use strent_device::{Board, Technology};
use strent_rings::{str_ring, StrConfig};
use strent_sim::{Simulator, Time};
use strentropy::experiments::runner::{ExperimentRunner, StageReport};
use strentropy::experiments::{
    ext_charlie, ext_coherent, ext_det, ext_flicker, ext_method, ext_mode, ext_multi, ext_restart,
    ext_trng, fig11, fig12, fig5, fig7, fig8, fig9, obs_a, table1, table2, Effort, ExperimentError,
};

struct Options {
    effort: Effort,
    seed: u64,
    threads: Option<usize>,
    out: String,
    engine_out: String,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        effort: Effort::Quick,
        seed: strentropy::calibration::PAPER_SEED,
        threads: None,
        out: "BENCH_sweep.json".to_owned(),
        engine_out: "BENCH_engine.json".to_owned(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.effort = Effort::Quick,
            "--full" => options.effort = Effort::Full,
            "--seed" => {
                let value = args.next().ok_or("--seed requires a value")?;
                options.seed = value.parse().map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--threads" => {
                let value = args.next().ok_or("--threads requires a value")?;
                options.threads =
                    Some(value.parse().map_err(|_| format!("invalid threads: {value}"))?);
            }
            "--out" => options.out = args.next().ok_or("--out requires a value")?.clone(),
            "--engine-out" => {
                options.engine_out = args.next().ok_or("--engine-out requires a value")?.clone();
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

/// The dispatch microbench result.
struct DispatchProbe {
    events: u64,
    wall_ns: u128,
}

impl DispatchProbe {
    fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_ns as f64
    }
}

/// Dispatches a 32-stage STR for 4 simulated microseconds and reports
/// events + wall time (best of three runs, which suppresses allocator
/// warm-up noise). The board and simulator seeds are fixed, so the
/// event count does not depend on `--seed` or the effort.
fn probe_dispatch() -> DispatchProbe {
    let board = Board::new(Technology::cyclone_iii(), 0, 7);
    let config = StrConfig::new(32, 16).expect("valid counts");
    let mut best: Option<DispatchProbe> = None;
    for _ in 0..3 {
        let mut sim = Simulator::new(7);
        let handle = str_ring::build(&config, &board, &mut sim).expect("wires");
        sim.watch(handle.output()).expect("net exists");
        let started = Instant::now();
        sim.run_until(Time::from_us(4.0));
        let wall_ns = started.elapsed().as_nanos();
        let probe = DispatchProbe {
            events: sim.stats().events_processed,
            wall_ns,
        };
        if best.as_ref().is_none_or(|b| probe.wall_ns < b.wall_ns) {
            best = Some(probe);
        }
    }
    best.expect("three runs happened")
}

/// Emits `BENCH_engine.json`: per-experiment dispatch throughput from
/// the stage log plus the STR-32 dispatch microbench.
fn engine_json(options: &Options, threads: usize, stages: &[StageReport]) -> String {
    let probe = probe_dispatch();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"strentropy-bench-engine/3\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        match options.effort {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    );
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"str32_dispatch_microbench\": {\n");
    let _ = writeln!(json, "    \"workload\": \"str32_16tok_4us_single_thread\",");
    let _ = writeln!(
        json,
        "    \"events\": {}, \"wall_ns\": {}, \"events_per_sec\": {:.0},",
        probe.events,
        probe.wall_ns,
        probe.events_per_sec()
    );
    // Recorded pre-PR reference: the same workload on the old kernel
    // (binary-heap event queue, per-drive listener clone, HashSet
    // cancellation, per-event alpha-power evaluation), measured with
    // the identical best-of-N in-process methodology at commit a4a414d.
    // This is a calibration constant, not re-measured per run — see
    // docs/engine_perf.md for the measurement log.
    const PRE_PR_EVENTS_PER_SEC: f64 = 5_380_000.0;
    let _ = writeln!(
        json,
        "    \"pre_pr_baseline\": {{\"commit\": \"a4a414d\", \"queue\": \"binary_heap\", \
         \"events_per_sec\": {PRE_PR_EVENTS_PER_SEC:.0}}},"
    );
    let _ = writeln!(
        json,
        "    \"wheel_speedup_vs_pre_pr\": {:.3}",
        probe.events_per_sec() / PRE_PR_EVENTS_PER_SEC
    );
    json.push_str("  },\n");
    json.push_str("  \"experiments\": [\n");
    for (i, report) in stages.iter().enumerate() {
        let s = &report.stats;
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"jobs\": {}, \"wall_ns\": {}",
            report.label, s.jobs, s.wall_ns,
        );
        // Stages that drive traces through samplers without metering a
        // simulator record no events; omitting the fields keeps a zero
        // from masquerading as a measured throughput of zero.
        if s.events() > 0 {
            let _ = write!(
                json,
                ", \"events\": {}, \"events_per_sec\": {:.0}",
                s.events(),
                s.events_per_sec(),
            );
        }
        let _ = write!(json, ", \"suppressed\": {}}}", s.suppressed());
        json.push_str(if i + 1 == stages.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Every ported experiment, driven through one shared runner so the
/// stage log accumulates in execution order.
fn run_all(runner: &ExperimentRunner) -> Result<(), ExperimentError> {
    fig5::run_with(runner)?;
    fig7::run_with(runner)?;
    fig8::run_with(runner)?;
    fig9::run_with(runner)?;
    fig11::run_with(runner)?;
    fig12::run_with(runner)?;
    obs_a::run_with(runner)?;
    table1::run_with(runner)?;
    table2::run_with(runner)?;
    ext_charlie::run_with(runner)?;
    ext_mode::run_with(runner)?;
    ext_det::run_with(runner)?;
    ext_flicker::run_with(runner)?;
    ext_method::run_with(runner)?;
    ext_multi::run_with(runner)?;
    ext_restart::run_with(runner)?;
    ext_coherent::run_with(runner)?;
    ext_trng::run_with(runner)?;
    Ok(())
}

fn stage_json(out: &mut String, report: &StageReport) {
    let s = &report.stats;
    let _ = write!(
        out,
        "    {{\"label\": \"{}\", \"threads\": {}, \"jobs\": {}, \"wall_ns\": {}, \
         \"busy_ns\": {}, \"events\": {}, \"speedup\": {:.4}, \"shards\": [",
        report.label,
        s.threads,
        s.jobs,
        s.wall_ns,
        s.busy_ns(),
        s.events(),
        s.speedup()
    );
    for (i, shard) in s.shards.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"jobs\": {}, \"busy_ns\": {}, \"events\": {}}}",
            if i == 0 { "" } else { ", " },
            shard.jobs,
            shard.busy_ns,
            shard.sim.events_processed
        );
    }
    out.push_str("]}");
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: bench_sweep [--quick|--full] [--seed N] [--threads N] [--out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = options.threads.unwrap_or(available);

    let mut runner = ExperimentRunner::new(options.effort, options.seed);
    if let Some(t) = options.threads {
        runner = runner.with_threads(t);
    }
    eprintln!(
        "# bench_sweep: {:?} effort, seed {}, {threads} worker(s), {available} CPU(s)",
        options.effort, options.seed
    );
    if let Err(e) = run_all(&runner) {
        eprintln!("experiment failed: {e}");
        return ExitCode::FAILURE;
    }
    let stages = runner.take_stages();

    // Thread-scaling probe on fig8 (the widest frequency sweep): run it
    // once single-threaded and once at the configured worker count. On
    // a single-CPU container the ratio only measures sharding overhead,
    // so the JSON records `available_parallelism` for the consumer to
    // gate speedup expectations on.
    let single = ExperimentRunner::new(options.effort, options.seed).with_threads(1);
    let t0 = Instant::now();
    if let Err(e) = fig8::run_with(&single) {
        eprintln!("fig8 scaling probe failed: {e}");
        return ExitCode::FAILURE;
    }
    let wall_1 = t0.elapsed().as_nanos();
    let multi = ExperimentRunner::new(options.effort, options.seed).with_threads(threads);
    let t0 = Instant::now();
    if let Err(e) = fig8::run_with(&multi) {
        eprintln!("fig8 scaling probe failed: {e}");
        return ExitCode::FAILURE;
    }
    let wall_n = t0.elapsed().as_nanos();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"strentropy-bench-sweep/1\",");
    let _ = writeln!(
        json,
        "  \"effort\": \"{}\",",
        match options.effort {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    );
    let _ = writeln!(json, "  \"seed\": {},", options.seed);
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"available_parallelism\": {available},");
    let _ = writeln!(
        json,
        "  \"totals\": {{\"stages\": {}, \"jobs\": {}, \"wall_ns\": {}, \"events\": {}}},",
        stages.len(),
        stages.iter().map(|s| s.stats.jobs).sum::<usize>(),
        stages.iter().map(|s| s.stats.wall_ns).sum::<u128>(),
        stages.iter().map(|s| s.stats.events()).sum::<u64>()
    );
    let _ = writeln!(
        json,
        "  \"fig8_scaling\": {{\"threads\": {threads}, \"wall_ns_1\": {wall_1}, \
         \"wall_ns_n\": {wall_n}, \"speedup\": {:.4}}},",
        wall_1 as f64 / wall_n.max(1) as f64
    );
    json.push_str("  \"stages\": [\n");
    for (i, report) in stages.iter().enumerate() {
        stage_json(&mut json, report);
        json.push_str(if i + 1 == stages.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("cannot write {}: {e}", options.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "# wrote {} ({} stages, fig8 speedup {:.2}x at {threads} thread(s))",
        options.out,
        stages.len(),
        wall_1 as f64 / wall_n.max(1) as f64
    );

    let engine = engine_json(&options, threads, &stages);
    if let Err(e) = std::fs::write(&options.engine_out, &engine) {
        eprintln!("cannot write {}: {e}", options.engine_out);
        return ExitCode::FAILURE;
    }
    eprintln!("# wrote {}", options.engine_out);
    ExitCode::SUCCESS
}
