//! The shared parallel harness behind every experiment module.
//!
//! [`ExperimentRunner`] wraps [`SweepRunner`] with the four things the
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
//!   how `strent-bench` builds `BENCH_sweep.json`;
//! * **typed stage errors** — a job that panics is caught by the sweep
//!   and fails its stage with [`ExperimentError::JobAborted`], the same
//!   error at every thread count, instead of unwinding into the caller.

use std::sync::Mutex;

use strent_device::Board;
use strent_rings::measure::{self, RingRun};
use strent_rings::RingConfig;
use strent_sim::rng::fnv1a;
use strent_sim::{FailureKind, JobFailure, JobMeter, RngTree, SweepJob, SweepRunner, SweepStats};

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
    /// re-running a stage with the same label replays it exactly. A
    /// job that panics is caught and fails the stage like any other
    /// job error; the remaining jobs still run.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing job's own error, or
    /// [`ExperimentError::JobAborted`] naming the stage, the job and its
    /// seed when that job panicked.
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
        let report = sweep.run(configs, f);
        // Failures are sorted by index: the first is the lowest
        // failing job, whatever the schedule.
        if let Some(failure) = report.failures.into_iter().next() {
            return Err(stage_error(label, failure));
        }
        self.stages
            .lock()
            .expect("no poisoned stage log")
            .push(StageReport {
                label: label.to_owned(),
                stats: report.stats,
            });
        // With no failures recorded, every slot holds its job's result.
        Ok(report.results.into_iter().flatten().collect())
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

/// The typed error for a stage's failed job: its own error when it
/// returned one, otherwise [`ExperimentError::JobAborted`].
fn stage_error(label: &str, failure: JobFailure<ExperimentError>) -> ExperimentError {
    match failure.kind {
        FailureKind::Failed { error } => error,
        FailureKind::Panicked { payload } => ExperimentError::JobAborted {
            stage: label.to_owned(),
            index: failure.index,
            seed: failure.seed,
            detail: payload,
        },
    }
}

/// Measures `ring` on `board` ([`measure::run`]) and reports the run's
/// full kernel statistics (dispatched, cancelled, suppressed events)
/// into `meter`.
///
/// # Errors
///
/// Propagates ring simulation errors.
pub fn measure_ring(
    ring: &RingConfig,
    board: &Board,
    seed: u64,
    periods: usize,
    meter: &mut JobMeter,
) -> Result<RingRun, ExperimentError> {
    let run = measure::run(ring, board, seed, periods)?;
    meter.record_sim(run.stats);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration;
    use strent_sim::SimStats;
    use strent_trng::TrngError;

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
    fn a_panicking_job_fails_its_stage_with_a_typed_error() {
        let configs: Vec<u64> = (0..8).collect();
        let stage = |runner: &ExperimentRunner, panic_at: Option<usize>| {
            runner.run_stage("panics", &configs, |job, _| {
                if Some(job.index) == panic_at {
                    panic!("job {} blew up", job.index);
                }
                Ok(job.seed())
            })
        };
        // The seed job 3 is handed, read from a clean run of the stage.
        let seeds = stage(&ExperimentRunner::new(Effort::Quick, 5), None).expect("no panic");
        let expected = ExperimentError::JobAborted {
            stage: "panics".to_owned(),
            index: 3,
            seed: seeds[3],
            detail: "job 3 blew up".to_owned(),
        };
        for threads in [1, 2] {
            let runner = ExperimentRunner::new(Effort::Quick, 5).with_threads(threads);
            let result = stage(&runner, Some(3));
            assert_eq!(result, Err(expected.clone()), "threads = {threads}");
            assert!(runner.take_stages().is_empty(), "no stage report");
        }
    }

    #[test]
    fn the_lowest_failing_job_decides_the_stage_error() {
        // Job 2 returns a typed error and job 3 panics: the stage
        // returns job 2's own error, the one a serial run meets first.
        let configs: Vec<usize> = (0..12).collect();
        let not_enough =
            |needed| ExperimentError::from(TrngError::NotEnoughBits { needed, got: 0 });
        for threads in [1, 3] {
            let result = ExperimentRunner::new(Effort::Quick, 9)
                .with_threads(threads)
                .run_stage("typed", &configs, |job, _| match job.index {
                    2 | 7 => Err(not_enough(job.index)),
                    3 => panic!("job 3 blew up"),
                    _ => Ok(()),
                });
            assert_eq!(result, Err(not_enough(2)), "threads = {threads}");
        }
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
            m.record_sim(SimStats {
                events_processed: 5,
                ..SimStats::default()
            });
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
    fn measure_ring_measures_and_meters() {
        let board = calibration::default_board();
        let ring = RingConfig::Iro(strent_rings::IroConfig::new(5).expect("valid"));
        let runner = ExperimentRunner::new(Effort::Quick, 11);
        let runs = runner
            .run_stage("ring", &[ring], |job, meter| {
                measure_ring(job.config, &board, job.seed(), 50, meter)
            })
            .expect("oscillates");
        assert_eq!(runs[0].periods_ps.len(), 50);
        let stages = runner.take_stages();
        assert!(stages[0].stats.events() > 0, "events metered");
    }
}
