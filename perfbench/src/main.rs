//! Benchmark of the paper-reproduction and entropy-serving pipelines.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_full|serve_bulk|serve_paced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! workload's end-to-end metrics with tracing off; with `--trace 1` it
//! profiles every layer of both pipelines from the benchmark's own code
//! and compares the workload's traced unit with an untraced one. Every
//! output is checked; the last line of standard output is the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.

mod ladder;
mod loadgen;
mod repro;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::Outcome;
use trace::Tracer;

/// Command-line arguments of one run.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// The seed each workload runs at when none is given.
const DEFAULT_SEED: u64 = repro::GOLDEN_SEED;

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|e| bad(&e))?;
                args.seconds = Duration::try_from_secs_f64(seconds).map_err(|e| bad(&e))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

const WORKLOADS: [&str; 3] = ["repro_full", "serve_bulk", "serve_paced"];

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        (w, _) if !WORKLOADS.contains(&w) => Err(format!(
            "unknown workload {w:?} (expected one of {WORKLOADS:?})"
        )),
        (_, true) => traced(args),
        ("repro_full", false) => repro::run(args),
        ("serve_bulk", false) => serve::bulk(args),
        (_, false) => serve::paced(args),
    }
}

/// The traced run. It profiles every layer of both pipelines from the
/// benchmark's own calls, and times the workload's own unit both
/// untraced and traced for `trace.overhead_frac`: a regeneration pass
/// (`repro_full`), rounds' time per byte (`serve_bulk`), the socket
/// schedule's latency p50 (`serve_paced`). Per-thread CPU is taken over
/// the traced bulk rounds for `serve_bulk` and over the socket schedule
/// otherwise.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    let seed = args.seed;
    let overhead = match args.workload.as_str() {
        "repro_full" => {
            let plain = repro::plain_pass(seed, &mut out)?;
            let traced = repro::layers(seed, &mut tracer, &mut out)?;
            let (_, threads) = serve::layers(seed, &mut tracer, &mut out)?;
            out.metrics.extend(threads);
            traced.as_secs_f64() / plain.as_secs_f64() - 1.0
        }
        "serve_bulk" => {
            let (overhead, threads) = serve::bulk_overhead(seed, &mut tracer, &mut out)?;
            repro::layers(seed, &mut tracer, &mut out)?;
            serve::layers(seed, &mut tracer, &mut out)?;
            out.metrics.extend(threads);
            overhead
        }
        _ => {
            let plain = serve::paced_plain_p50(seed, &mut out)?;
            repro::layers(seed, &mut tracer, &mut out)?;
            let (traced, threads) = serve::layers(seed, &mut tracer, &mut out)?;
            out.metrics.extend(threads);
            traced / plain - 1.0
        }
    };
    out.metrics.put("trace.overhead_frac", overhead, "ratio");
    out.correct = out.failed == 0;
    let path = PathBuf::from(format!(
        ".bench_build/perfbench/trace-{}-{seed}.jsonl",
        args.workload
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "traced run: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(out)
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|args| {
        eprintln!(
            "perfbench: workload {} seed {} seconds {:?} trace {} host_cpus {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
        );
        run(&args)
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
