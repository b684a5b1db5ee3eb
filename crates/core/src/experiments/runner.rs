//! The shared parallel harness behind every experiment module.
//!
//! [`ExperimentRunner`] wraps [`SweepRunner`] with the three things the
//! experiment layer needs on top of raw sharding:
//!
//! * **stage-scoped seeding** — every call to
//!   [`ExperimentRunner::run_stage`] derives its sweep master seed from
//!   `(experiment seed, stage label)`, and each job inside the stage is
//!   forked by index ([`RngTree::fork`]). Results therefore depend only
//!   on `(effort, seed)`, never on thread count or scheduling;
//! * **Effort-aware batching** — `Quick` jobs are short, so workers
//!   claim them in chunks to amortize traffic on the shared job cursor;
//!   `Full` jobs run long enough that per-job claiming (the best load
//!   balance) wins;
//! * **stage statistics** — every stage's [`SweepStats`] (wall clock,
//!   per-shard busy time and dispatched simulator events) is retained
//!   and can be drained with [`ExperimentRunner::take_stages`], which is
//!   how `strent-bench` builds `BENCH_sweep.json`.

use std::sync::Mutex;

use strent_device::Board;
use strent_rings::measure::{self, RingRun};
use strent_rings::stream::StreamConfig;
use strent_rings::surrogate::{self, Calibrator, SourceBackend, SurrogateStream};
use strent_rings::{IroConfig, StrConfig};
use strent_sim::rng::fnv1a;
use strent_sim::{JobMeter, RngTree, SweepJob, SweepRunner, SweepStats};

use super::{Effort, ExperimentError};

/// One executed stage: its label and the sweep's execution statistics.
///
/// `stats` carries the full kernel counters (dispatched, cancelled and
/// suppressed events) alongside wall/busy time, so per-experiment
/// dispatch throughput is visible in every bench report.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The stage label passed to [`ExperimentRunner::run_stage`].
    pub label: String,
    /// Execution statistics of the stage's sweep.
    pub stats: SweepStats,
}

impl StageReport {
    /// Dispatch throughput of this stage, events per second of sweep
    /// wall time.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        self.stats.events_per_sec()
    }
}

/// A parallel, deterministically seeded executor for experiment stages.
///
/// # Examples
///
/// ```
/// use strentropy::experiments::runner::ExperimentRunner;
/// use strentropy::experiments::Effort;
///
/// let runner = ExperimentRunner::new(Effort::Quick, 2012).with_threads(2);
/// let squares = runner
///     .run_stage("demo", &[1u64, 2, 3], |job, _meter| Ok(job.config * job.config))
///     .expect("no job fails");
/// assert_eq!(squares, vec![1, 4, 9]);
/// let report = runner.take_stages();
/// assert_eq!(report[0].label, "demo");
/// assert_eq!(report[0].stats.jobs, 3);
/// ```
#[derive(Debug)]
pub struct ExperimentRunner {
    effort: Effort,
    seed: u64,
    threads: usize,
    stages: Mutex<Vec<StageReport>>,
}

impl ExperimentRunner {
    /// Creates a runner for the given effort and master seed, with one
    /// worker per available CPU.
    #[must_use]
    pub fn new(effort: Effort, seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ExperimentRunner {
            effort,
            seed,
            threads,
            stages: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the worker count (clamped to at least 1). Results are
    /// identical for every value — this only changes wall-clock time.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured effort.
    #[must_use]
    pub fn effort(&self) -> Effort {
        self.effort
    }

    /// The experiment master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The Effort-aware batching policy: how many jobs a worker claims
    /// per cursor grab for a stage of `jobs` jobs.
    fn chunk_for(&self, jobs: usize) -> usize {
        match self.effort {
            // Quick jobs are small: batch so each worker expects ~4
            // grabs, amortizing cursor contention.
            Effort::Quick => (jobs / (self.threads * 4)).max(1),
            // Full jobs dominate any claiming overhead: claim singly
            // for the best load balance.
            Effort::Full => 1,
        }
    }

    /// Runs `f` over every config in parallel and records the stage's
    /// statistics under `label`.
    ///
    /// The stage's sweep seed is derived from `(seed, label)`, so two
    /// stages of the same experiment draw independent randomness, and
    /// re-running a stage with the same label replays it exactly.
    ///
    /// # Errors
    ///
    /// Propagates the error of the lowest-indexed failing job.
    pub fn run_stage<C, R, F>(
        &self,
        label: &str,
        configs: &[C],
        f: F,
    ) -> Result<Vec<R>, ExperimentError>
    where
        C: Sync,
        R: Send,
        F: Fn(SweepJob<'_, C>, &mut JobMeter) -> Result<R, ExperimentError> + Sync,
    {
        let stage_seed = self.stage_rng(label).master_seed();
        let sweep = SweepRunner::new(stage_seed)
            .with_threads(self.threads)
            .with_chunk_size(self.chunk_for(configs.len()));
        let outcome = sweep.run_metered(configs, f)?;
        self.stages
            .lock()
            .expect("no poisoned stage log")
            .push(StageReport {
                label: label.to_owned(),
                stats: outcome.stats,
            });
        Ok(outcome.results)
    }

    /// Derives the deterministic seed subtree keyed by `label` — the
    /// same derivation [`ExperimentRunner::run_stage`] uses for its
    /// sweep seed. Experiments use this for auxiliary seed streams that
    /// must be *shared across jobs* (e.g. Table II loads the same
    /// "bitstream" into every board, so all boards of a ring share one
    /// measurement seed) while staying independent of other stages.
    #[must_use]
    pub fn stage_rng(&self, label: &str) -> RngTree {
        // FNV-1a of the label: a stable key for the stage's subtree.
        RngTree::new(self.seed).subtree(fnv1a(label.as_bytes()))
    }

    /// Drains the per-stage execution reports accumulated so far, in
    /// execution order.
    #[must_use]
    pub fn take_stages(&self) -> Vec<StageReport> {
        std::mem::take(&mut *self.stages.lock().expect("no poisoned stage log"))
    }
}

/// A ring to measure — the flattened config unit of frequency sweeps.
#[derive(Debug, Clone, PartialEq)]
pub enum RingSpec {
    /// An inverter ring oscillator.
    Iro(IroConfig),
    /// A self-timed ring.
    Str(StrConfig),
}

impl RingSpec {
    /// Runs the ring on `board` and reports its full kernel statistics
    /// (dispatched, cancelled, suppressed events) into `meter`.
    ///
    /// # Errors
    ///
    /// Propagates ring simulation errors.
    pub fn measure(
        &self,
        board: &Board,
        seed: u64,
        periods: usize,
        meter: &mut JobMeter,
    ) -> Result<RingRun, ExperimentError> {
        let run = match self {
            RingSpec::Iro(config) => measure::run_iro(config, board, seed, periods)?,
            RingSpec::Str(config) => measure::run_str(config, board, seed, periods)?,
        };
        meter.record_sim(run.stats);
        Ok(run)
    }

    /// This spec as a stream configuration (the vocabulary the
    /// surrogate tier and the serving layer share).
    #[must_use]
    pub fn stream_config(&self) -> StreamConfig {
        match self {
            RingSpec::Iro(config) => StreamConfig::Iro(config.clone()),
            RingSpec::Str(config) => StreamConfig::Str(config.clone()),
        }
    }

    /// Like [`measure`](RingSpec::measure), but honoring a waveform
    /// backend request: with [`SourceBackend::Surrogate`] an eligible
    /// ring is calibrated once and replayed at O(1) per period, while
    /// boundary configurations silently fall back to the event-driven
    /// run. Surrogate workloads meter their emitted transitions as
    /// events, so sweep stages stay comparable in the perf reports.
    ///
    /// # Errors
    ///
    /// Propagates ring simulation and calibration errors.
    pub fn measure_with(
        &self,
        backend: SourceBackend,
        board: &Board,
        seed: u64,
        periods: usize,
        meter: &mut JobMeter,
    ) -> Result<RingRun, ExperimentError> {
        let config = self.stream_config();
        if backend == SourceBackend::FullSim
            || !surrogate::surrogate_eligible(&config, board, false)
        {
            return self.measure(board, seed, periods, meter);
        }
        let model = Calibrator::default().fit(&config, board, seed)?;
        let mut stream = SurrogateStream::new(model, seed);
        // The AR(1) flicker starts at rest; discard the same warm-up
        // span the event-driven runners do so the retained window is
        // stationary.
        let warmup = measure::WARMUP_PERIODS;
        stream.next_periods(warmup);
        stream.prune_before(stream.now());
        let periods_ps = stream.next_periods(periods);
        let stats = stream.stats();
        meter.record_sim(stats);
        let mean = periods_ps.iter().sum::<f64>() / periods_ps.len().max(1) as f64;
        Ok(RingRun {
            half_periods_ps: stream.trace().half_periods(),
            frequency_mhz: 1e6 / mean,
            periods_ps,
            events_dispatched: stats.events_processed,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;

    #[test]
    fn stage_results_do_not_depend_on_thread_count() {
        let configs: Vec<u64> = (0..17).collect();
        let reference = ExperimentRunner::new(Effort::Quick, 42)
            .with_threads(1)
            .run_stage("t", &configs, |job, _| Ok(job.seed() ^ job.config))
            .expect("runs");
        for threads in [2, 5] {
            let out = ExperimentRunner::new(Effort::Quick, 42)
                .with_threads(threads)
                .run_stage("t", &configs, |job, _| Ok(job.seed() ^ job.config))
                .expect("runs");
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn stages_draw_independent_seeds() {
        let runner = ExperimentRunner::new(Effort::Quick, 7);
        let a = runner
            .run_stage("alpha", &[0u8], |job, _| Ok(job.seed()))
            .expect("runs");
        let b = runner
            .run_stage("beta", &[0u8], |job, _| Ok(job.seed()))
            .expect("runs");
        assert_ne!(a, b, "stage labels key the seed subtree");
        // Same label replays the same seed.
        let a2 = runner
            .run_stage("alpha", &[0u8], |job, _| Ok(job.seed()))
            .expect("runs");
        assert_eq!(a, a2);
    }

    #[test]
    fn batching_policy_scales_with_effort() {
        let quick = ExperimentRunner::new(Effort::Quick, 1).with_threads(2);
        assert_eq!(quick.chunk_for(80), 10);
        assert_eq!(quick.chunk_for(3), 1);
        let full = ExperimentRunner::new(Effort::Full, 1).with_threads(2);
        assert_eq!(full.chunk_for(80), 1);
    }

    #[test]
    fn stage_reports_accumulate_and_drain() {
        let runner = ExperimentRunner::new(Effort::Quick, 3);
        let _ = runner.run_stage("one", &[1u8, 2], |_, m| {
            m.record_events(5);
            Ok(())
        });
        let _ = runner.run_stage("two", &[1u8], |_, _| Ok(()));
        let stages = runner.take_stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].label, "one");
        assert_eq!(stages[0].stats.events(), 10);
        assert_eq!(stages[1].stats.jobs, 1);
        assert!(runner.take_stages().is_empty(), "drained");
    }

    #[test]
    fn ring_spec_measures_and_meters() {
        let board = calibration::default_board();
        let spec = RingSpec::Iro(IroConfig::new(5).expect("valid"));
        let runner = ExperimentRunner::new(Effort::Quick, 11);
        let runs = runner
            .run_stage("spec", &[spec], |job, meter| {
                job.config.measure(&board, job.seed(), 50, meter)
            })
            .expect("oscillates");
        assert_eq!(runs[0].periods_ps.len(), 50);
        let stages = runner.take_stages();
        assert!(stages[0].stats.events() > 0, "events metered");
    }

    #[test]
    fn ring_spec_measures_through_the_surrogate_backend() {
        let board = calibration::default_board();
        let spec = RingSpec::Str(StrConfig::new(32, 16).expect("valid"));
        let runner = ExperimentRunner::new(Effort::Quick, 13);
        let runs = runner
            .run_stage("surrogate", std::slice::from_ref(&spec), |job, meter| {
                job.config
                    .measure_with(SourceBackend::Surrogate, &board, job.seed(), 400, meter)
            })
            .expect("calibrates");
        assert_eq!(runs[0].periods_ps.len(), 400);
        let stages = runner.take_stages();
        assert!(stages[0].stats.events() > 0, "surrogate transitions metered");
        // Statistical agreement with the event-driven run: mean within
        // 2%, jitter within a factor 2 on a short window.
        let full = runner
            .run_stage("full", &[spec], |job, meter| {
                job.config
                    .measure_with(SourceBackend::FullSim, &board, job.seed(), 400, meter)
            })
            .expect("oscillates");
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let sigma = |xs: &[f64]| {
            let m = mean(xs);
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let (ms, mf) = (mean(&runs[0].periods_ps), mean(&full[0].periods_ps));
        assert!((ms / mf - 1.0).abs() < 0.02, "means {ms} vs {mf}");
        let (ss, sf) = (sigma(&runs[0].periods_ps), sigma(&full[0].periods_ps));
        assert!(ss / sf < 2.0 && sf / ss < 2.0, "sigmas {ss} vs {sf}");
    }
}
