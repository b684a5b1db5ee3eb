//! The `repro_full` workload: every `repro_all --full` section in
//! order, checked against the golden report, plus the traced ladder of
//! the experiment pipeline (sections, sweep, kernel, rings, analysis).

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

use strent_analysis::{allan, jitter, normality};
use strent_rings::{measure, StrConfig};
use strentropy::calibration;
use strentropy::experiments::runner::{ExperimentRunner, StageReport};
use strentropy::experiments::{self, Effort, ExperimentError};

use crate::stats::{self, median, ColdStarts, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// The seed `docs/repro_full_output.txt` was regenerated at.
pub const GOLDEN_SEED: u64 = 2012;

/// Sweep worker threads, pinned rather than taken from the host.
const SWEEP_THREADS: usize = 2;

/// Cold starts (fresh runner → first verified section) per run, spread
/// over the measured phase; their median is `setup_s`.
const SETUP_STARTS: usize = 25;

/// The golden report, read from the checkout under test.
const GOLDEN_PATH: &str = "docs/repro_full_output.txt";

/// Periods of the single-thread STR-32 kernel probe.
const PROBE_PERIODS: usize = 100_000;

/// Probe repetitions; the median per-event cost is reported.
const PROBE_REPEATS: usize = 3;

type SectionFn = fn(&ExperimentRunner) -> Result<String, ExperimentError>;

/// One `repro_all` section: its printed id, its module and its entry
/// point (`run_with` on the shared runner where the module has one).
struct Section {
    id: &'static str,
    module: &'static str,
    span: &'static str,
    run: SectionFn,
}

macro_rules! sweep {
    ($id:literal, $module:ident) => {
        Section {
            id: $id,
            module: stringify!($module),
            span: concat!("core.experiments.", stringify!($module)),
            run: |r| experiments::$module::run_with(r).map(|x| x.to_string()),
        }
    };
}

macro_rules! single {
    ($id:literal, $module:ident) => {
        Section {
            id: $id,
            module: stringify!($module),
            span: concat!("core.experiments.", stringify!($module)),
            run: |r| experiments::$module::run(r.effort(), r.seed()).map(|x| x.to_string()),
        }
    };
}

/// The sections in `repro_all` order.
fn sections() -> [Section; 18] {
    [
        sweep!("FIG5", fig5),
        single!("FIG7", fig7),
        sweep!("FIG8", fig8),
        sweep!("TAB1", table1),
        sweep!("TAB2", table2),
        single!("FIG9", fig9),
        single!("FIG11", fig11),
        single!("FIG12", fig12),
        sweep!("OBS-A", obs_a),
        sweep!("EXT-DET", ext_det),
        sweep!("EXT-METHOD", ext_method),
        sweep!("EXT-TRNG", ext_trng),
        sweep!("EXT-MODE", ext_mode),
        sweep!("EXT-CHARLIE", ext_charlie),
        sweep!("EXT-FLICKER", ext_flicker),
        sweep!("EXT-RESTART", ext_restart),
        sweep!("EXT-MULTI", ext_multi),
        sweep!("EXT-COHERENT", ext_coherent),
    ]
}

/// What a section's output must equal: the golden block at the golden
/// seed; at any other seed only an `Ok` result is required.
struct Golden(Option<BTreeMap<String, String>>);

impl Golden {
    fn load(seed: u64) -> Result<Self, String> {
        if seed != GOLDEN_SEED {
            return Ok(Golden(None));
        }
        let text = fs::read_to_string(GOLDEN_PATH)
            .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
        let mut blocks = BTreeMap::new();
        for section in sections() {
            let header = format!("================ {} ================\n", section.id);
            let start = text
                .find(&header)
                .ok_or_else(|| format!("{GOLDEN_PATH} has no {} block", section.id))?
                + header.len();
            // A block runs to the blank line before the next header.
            let end = text[start..]
                .find("\n================ ")
                .map_or(text.len(), |i| start + i);
            blocks.insert(section.id.to_owned(), text[start..end].to_owned());
        }
        Ok(Golden(Some(blocks)))
    }

    /// Whether a section's result is correct. `repro_all` prints the
    /// result followed by a newline, which is what the block holds.
    fn check(&self, id: &str, result: &Result<String, ExperimentError>) -> bool {
        match (result, &self.0) {
            (Err(_), _) => false,
            (Ok(_), None) => true,
            (Ok(text), Some(blocks)) => blocks
                .get(id)
                .is_some_and(|block| block.strip_suffix('\n') == Some(text.as_str())),
        }
    }
}

/// One full regeneration of the paper.
struct Pass {
    wall: Duration,
    cpu_s: f64,
    matched: usize,
    section_walls: Vec<(&'static str, Duration)>,
    stages: Vec<StageReport>,
}

fn run_pass(seed: u64, golden: &Golden, mut tracer: Option<&mut Tracer>) -> Pass {
    let runner = ExperimentRunner::new(Effort::Full, seed).with_threads(SWEEP_THREADS);
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now();
    let pass_span = tracer.as_deref_mut().map(|t| t.open("repro.pass", None));
    let mut pass = Pass {
        wall: Duration::ZERO,
        cpu_s: 0.0,
        matched: 0,
        section_walls: Vec::with_capacity(18),
        stages: Vec::new(),
    };
    for section in sections() {
        let t0 = Instant::now();
        let result = black_box((section.run)(&runner));
        let t1 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record(section.span, t0, t1, pass_span, None);
        }
        match (&result, golden.check(section.id, &result)) {
            (_, true) => pass.matched += 1,
            (Err(e), false) => eprintln!("{} failed: {e}", section.id),
            (Ok(_), false) => eprintln!("{} differs from {GOLDEN_PATH}", section.id),
        }
        pass.section_walls.push((section.module, t1 - t0));
    }
    pass.wall = start.elapsed();
    pass.cpu_s = stats::process_cpu_s() - cpu0;
    if let (Some(t), Some(id)) = (tracer, pass_span) {
        t.close(id);
    }
    pass.stages = runner.take_stages();
    pass
}

/// Cold start to the first verified section: a fresh runner regenerates
/// FIG5 and checks it.
fn cold_start(seed: u64, golden: &Golden) -> (Duration, bool) {
    let first = &sections()[0];
    let start = Instant::now();
    let runner = ExperimentRunner::new(Effort::Full, seed).with_threads(SWEEP_THREADS);
    let result = (first.run)(&runner);
    let ok = golden.check(first.id, &result);
    (start.elapsed(), ok)
}

/// The untraced measurement: full passes until the measuring time is
/// used up, with the cold starts spread before and between them.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let golden = Golden::load(args.seed)?;
    let mut setups = ColdStarts::new(SETUP_STARTS);
    let mut setup_failures = 0;
    let mut setup = || {
        let (elapsed, ok) = cold_start(args.seed, &golden);
        setup_failures += u64::from(!ok);
        Ok(elapsed)
    };
    setups.keep_pace(0.0, &mut setup)?;
    let mut passes = Vec::new();
    let steal = stats::HostSteal::start();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < args.seconds {
        passes.push(run_pass(args.seed, &golden, None));
        let done = start.elapsed().as_secs_f64() / args.seconds.as_secs_f64();
        setups.keep_pace(done, &mut setup)?;
    }
    setups.keep_pace(1.0, &mut setup)?;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let sections_run = 18 * passes.len() as u64;
    let matched: u64 = passes.iter().map(|p| p.matched as u64).sum();

    let mut m = Metrics::default();
    m.put("wall_s", median(&walls), "s");
    m.put("cpu_s", median(&cpus), "s");
    m.put("setup_s", setups.median(), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m.put(
        "success_frac",
        matched as f64 / sections_run as f64,
        "ratio",
    );
    eprintln!(
        "repro_full: {} passes, walls {walls:?} s, cpu {cpus:?} s, \
         {matched}/{sections_run} sections verified, host steal {:.1}%",
        passes.len(),
        steal.stop().percent()
    );
    let failed = (sections_run - matched) + setup_failures;
    Ok(Outcome {
        correct: failed == 0,
        attempted: sections_run + SETUP_STARTS as u64,
        failed,
        metrics: m,
    })
}

/// The traced ladder of the experiment pipeline: one traced pass
/// (per-section spans, sweep and kernel counters from the runner's
/// stages), then the STR-32 kernel probe and the analyses over its
/// periods. Returns the traced pass's wall time.
pub fn layers(seed: u64, tracer: &mut Tracer, out: &mut Outcome) -> Result<Duration, String> {
    let golden = Golden::load(seed)?;
    let pass = run_pass(seed, &golden, Some(tracer));
    out.count(18, 18 - pass.matched as u64);
    let m = &mut out.metrics;
    for (module, wall) in &pass.section_walls {
        m.put(
            format!("core.experiments.{module}.wall_s"),
            wall.as_secs_f64(),
            "s",
        );
    }
    // Only stages that publish kernel events are metered.
    let metered: Vec<&StageReport> = pass
        .stages
        .iter()
        .filter(|s| s.stats.events() > 0)
        .collect();
    let jobs: usize = metered.iter().map(|s| s.stats.jobs).sum();
    let events: u64 = metered.iter().map(|s| s.stats.events()).sum();
    let busy_ns: u128 = metered.iter().map(|s| s.stats.busy_ns()).sum();
    let capacity_ns: u128 = metered
        .iter()
        .map(|s| s.stats.wall_ns * s.stats.threads as u128)
        .sum();
    m.put("sim.sweep.jobs", jobs as f64, "count");
    m.put("sim.engine.events", events as f64, "count");
    m.put(
        "sim.sweep.parallel_efficiency",
        busy_ns as f64 / capacity_ns as f64,
        "ratio",
    );
    m.put(
        "sim.sweep.busy_ns_per_event",
        busy_ns as f64 / events as f64,
        "ns",
    );
    let (probe_ns, analysis_ns) = kernel_probe(seed, tracer)?;
    m.put("rings.measure.str32_ns_per_event", probe_ns, "ns");
    m.put("analysis.ns_per_period", analysis_ns, "ns");
    Ok(pass.wall)
}

/// Single-thread STR-32 runs on the default event queue, then the
/// jitter, Allan and normality analyses over the probe's periods.
/// Returns (ns per kernel event, ns of analysis per period).
fn kernel_probe(seed: u64, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let config = StrConfig::new(32, 16).map_err(|e| e.to_string())?;
    let board = calibration::default_board();
    let mut per_event = Vec::with_capacity(PROBE_REPEATS);
    let mut periods = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let (run, took) = tracer.time("rings.measure.run_str", None, || {
            measure::run_str(&config, &board, seed, PROBE_PERIODS)
        });
        let run = run.map_err(|e| e.to_string())?;
        per_event.push(took.as_nanos() as f64 / run.stats.events_processed as f64);
        periods = run.periods_ps;
    }
    let span = tracer.open("analysis", None);
    let analysed: Result<(), strent_analysis::AnalysisError> = (|| {
        black_box(jitter::period_jitter(&periods)?);
        black_box(jitter::cycle_to_cycle_jitter(&periods)?);
        black_box(jitter::accumulation_curve(&periods, 100)?);
        black_box(allan::allan_curve(&periods, 100)?);
        black_box(normality::chi_square_gof(&periods, 32)?);
        black_box(normality::jarque_bera(&periods)?);
        black_box(normality::anderson_darling(&periods)?);
        Ok(())
    })();
    let took = tracer.close(span);
    analysed.map_err(|e| e.to_string())?;
    Ok((
        median(&per_event),
        took.as_nanos() as f64 / periods.len() as f64,
    ))
}

/// One untraced pass, the untraced counterpart of [`layers`]' pass.
/// Returns its wall time.
pub fn plain_pass(seed: u64, out: &mut Outcome) -> Result<Duration, String> {
    let pass = run_pass(seed, &Golden::load(seed)?, None);
    out.count(18, 18 - pass.matched as u64);
    Ok(pass.wall)
}
