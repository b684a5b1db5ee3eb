//! Parallel sweep execution with deterministic seed sharding.
//!
//! Every figure and table of the paper is regenerated by sweeping dozens
//! of *independent* ring configurations (lengths, token counts, supply
//! voltages, boards) through one [`Simulator`](crate::Simulator) each.
//! [`SweepRunner`] shards those configurations across a pool of worker
//! threads while keeping the results **bit-identical regardless of
//! thread count or scheduling order**.
//!
//! ## The determinism contract
//!
//! The runner owns an [`RngTree`] rooted at the sweep's master seed.
//! Job `i` receives `tree.fork(i)` — a seed subtree keyed *only* by the
//! job's position in the config list, never by which worker ran it or
//! when. A job function must draw all of its randomness from the
//! [`SweepJob`] it is handed (its `seed`/`rng`), so
//!
//! ```text
//! result[i] = f(configs[i], fork(master, i))
//! ```
//!
//! holds for every thread count, including the inline single-threaded
//! path. `tests/determinism.rs` pins this contract at the workspace
//! level.
//!
//! ## Scheduling
//!
//! Workers claim jobs from a shared atomic cursor in chunks (see
//! [`SweepRunner::with_chunk_size`]); claiming order is racy, but
//! because outputs are written back by job index the assembled result
//! vector is order-independent. Each shard meters its busy wall-clock
//! time, job count and dispatched simulator events, so benchmark
//! harnesses can report speedup and load balance per worker.
//!
//! ## Failures
//!
//! A job that panics, stalls or returns a typed error becomes one
//! [`JobFailure`] in the [`SweepReport`] while the other jobs still
//! run; the manifest is sorted by job index, so it too is the same at
//! every thread count.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::engine::SimStats;
use crate::error::SimError;
use crate::rng::RngTree;

/// One unit of work handed to a sweep job function.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob<'a, C> {
    /// Position of this job in the config list.
    pub index: usize,
    /// The configuration to simulate.
    pub config: &'a C,
    /// The job's deterministic seed subtree (`master.fork(index)`).
    pub rng: RngTree,
    /// Which attempt this is (0 for the first try; retries count up).
    /// The seed subtree is the same on every attempt — determinism
    /// comes from the fork, escalation comes from the budget.
    pub attempt: u32,
    /// The watchdog budget for this attempt (unlimited under the
    /// default [`RetryPolicy`]).
    pub budget: JobBudget,
}

impl<C> SweepJob<'_, C> {
    /// The job's scalar seed — what a `Simulator` or a measurement
    /// runner takes as its master seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.rng.master_seed()
    }
}

/// Timing and workload counters for one worker shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Jobs this shard executed.
    pub jobs: usize,
    /// Busy wall-clock time of this shard, nanoseconds.
    pub busy_ns: u128,
    /// Simulator events dispatched by jobs on this shard, as reported
    /// through [`SweepJob`]-aware job functions (0 when jobs do not
    /// report).
    pub events: u64,
    /// Cancelled events skipped by jobs on this shard (0 when jobs do
    /// not report full [`SimStats`]).
    pub cancelled: u64,
    /// No-change net drives suppressed by jobs on this shard (0 when
    /// jobs do not report full [`SimStats`]).
    pub suppressed: u64,
}

/// Aggregate statistics of one sweep execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Worker threads used.
    pub threads: usize,
    /// Total jobs executed.
    pub jobs: usize,
    /// End-to-end wall-clock time of the sweep, nanoseconds.
    pub wall_ns: u128,
    /// Per-shard counters, one entry per worker.
    pub shards: Vec<ShardStats>,
}

impl SweepStats {
    /// Total busy time across shards, nanoseconds — the sequential-
    /// equivalent cost of the sweep.
    #[must_use]
    pub fn busy_ns(&self) -> u128 {
        self.shards.iter().map(|s| s.busy_ns).sum()
    }

    /// Total simulator events dispatched across shards.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Total cancelled events skipped across shards.
    #[must_use]
    pub fn cancelled(&self) -> u64 {
        self.shards.iter().map(|s| s.cancelled).sum()
    }

    /// Total no-change drives suppressed across shards.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.shards.iter().map(|s| s.suppressed).sum()
    }

    /// Dispatch throughput over the sweep's wall-clock time, events per
    /// second (0.0 for an instantaneous or unmetered sweep).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events() as f64 * 1e9 / self.wall_ns as f64
    }

    /// Parallel speedup estimate: total busy time over wall time.
    ///
    /// 1.0 means no overlap (or one thread); `threads` is the ideal.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.busy_ns() as f64 / self.wall_ns as f64
    }
}

/// A deterministic parallel executor for independent simulation jobs.
///
/// # Examples
///
/// ```
/// use strent_sim::sweep::{JobError, JobMeter, RetryPolicy, SweepJob, SweepRunner};
///
/// fn double(job: SweepJob<'_, usize>, _: &mut JobMeter) -> Result<usize, JobError<()>> {
///     Ok(job.config * 2 + (job.seed() % 2) as usize)
/// }
/// let lengths = [4usize, 8, 16, 32];
/// let report = SweepRunner::new(2012)
///     .with_threads(4)
///     .run_resilient(&lengths, RetryPolicy::default(), double);
/// assert!(report.failures.is_empty(), "no job fails");
/// // Results arrive in config order, regardless of which worker ran them.
/// let again = SweepRunner::new(2012)
///     .with_threads(1)
///     .run_resilient(&lengths, RetryPolicy::default(), double);
/// assert_eq!(report.results, again.results);
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    tree: RngTree,
    threads: usize,
    chunk: usize,
}

impl SweepRunner {
    /// Creates a runner rooted at `master_seed`, with one worker per
    /// available CPU.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        SweepRunner {
            tree: RngTree::new(master_seed),
            threads,
            chunk: 1,
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets how many jobs a worker claims per grab (clamped to at least
    /// 1). Larger chunks amortize contention on the job cursor when
    /// jobs are tiny; 1 gives the best load balance for heavy jobs.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Runs `f` over every config, in parallel, with deterministic
    /// per-job seeds, and reports every job's outcome. Each job runs
    /// inside `catch_unwind`, may carry a watchdog budget and is
    /// retried per `policy`, so one panicking or stalling config
    /// yields a [`JobFailure`] entry instead of killing the sweep. `f`
    /// reports dispatched simulator events into the shard counters
    /// through the [`JobMeter`] it is handed.
    ///
    /// Semantics:
    ///
    /// * **Panics** are caught, rendered to text and retried up to
    ///   `policy.attempts` times (a deterministic panic fails every
    ///   attempt; the bound keeps that cheap).
    /// * **Stalls** ([`JobError::Stalled`], typically produced by
    ///   mapping [`SimError::StepLimitExceeded`] through
    ///   [`JobError::from_sim`]) are retried with the budget escalated
    ///   by `policy.escalation` per attempt.
    /// * **Typed errors** ([`JobError::Failed`]) fail fast — jobs are
    ///   deterministic functions of `(config, seed)`, so re-running an
    ///   error-returning job cannot change its outcome.
    ///
    /// Every attempt of job `i` receives the *same* `tree.fork(i)`
    /// subtree (only `attempt`/`budget` differ), so the successful
    /// results are bit-identical across thread counts and retry
    /// histories; `tests/determinism.rs` pins this.
    ///
    /// The returned [`SweepReport`] always carries all partial results;
    /// a failure never stops the other jobs.
    pub fn run_resilient<C, R, E, F>(
        &self,
        configs: &[C],
        policy: RetryPolicy,
        f: F,
    ) -> SweepReport<R, E>
    where
        C: Sync,
        R: Send,
        E: Send,
        F: Fn(SweepJob<'_, C>, &mut JobMeter) -> Result<R, JobError<E>> + Sync,
    {
        let started = Instant::now();
        let threads = self.threads.min(configs.len()).max(1);

        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(configs.len(), || None);
        let slots = Mutex::new(slots);
        let failures: Mutex<Vec<JobFailure<E>>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        // Which job each shard claimed last — context for the
        // join-failure message below.
        let in_flight: Vec<AtomicUsize> = (0..threads)
            .map(|_| AtomicUsize::new(usize::MAX))
            .collect();

        let run_shard = |shard_id: usize, shard_stats: &mut ShardStats| {
            let shard_started = Instant::now();
            loop {
                let start = cursor.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= configs.len() {
                    break;
                }
                let end = (start + self.chunk).min(configs.len());
                for (index, config) in configs.iter().enumerate().take(end).skip(start) {
                    in_flight[shard_id].store(index, Ordering::Relaxed);
                    let mut attempts = 0u32;
                    let failure: Option<(FailureKind<E>, u64)> = loop {
                        let job = SweepJob {
                            index,
                            config,
                            rng: self.tree.fork(index as u64),
                            attempt: attempts,
                            budget: policy.budget_for(attempts),
                        };
                        let mut meter = JobMeter::new();
                        // Job state is per-attempt and never observed
                        // again after an unwind, so suppressing the
                        // UnwindSafe bound is sound here.
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            f(job, &mut meter)
                        }));
                        attempts += 1;
                        let events = meter.events;
                        shard_stats.events += meter.events;
                        shard_stats.cancelled += meter.cancelled;
                        shard_stats.suppressed += meter.suppressed;
                        match caught {
                            Ok(Ok(result)) => {
                                let mut guard =
                                    slots.lock().expect("no poisoned job slots");
                                guard[index] = Some(result);
                                break None;
                            }
                            Ok(Err(JobError::Failed(error))) => {
                                // Deterministic domain error: retrying
                                // cannot help.
                                break Some((FailureKind::Failed { error }, events));
                            }
                            Ok(Err(JobError::Stalled(cause))) => {
                                if attempts >= policy.attempts() {
                                    break Some((FailureKind::Stalled { cause }, events));
                                }
                            }
                            Err(payload) => {
                                let text = panic_payload_text(payload.as_ref());
                                if attempts >= policy.attempts() {
                                    break Some((
                                        FailureKind::Panicked { payload: text },
                                        events,
                                    ));
                                }
                            }
                        }
                    };
                    shard_stats.jobs += 1;
                    if let Some((kind, events)) = failure {
                        let mut guard =
                            failures.lock().expect("no poisoned failure manifest");
                        guard.push(JobFailure {
                            index,
                            seed: self.tree.fork(index as u64).master_seed(),
                            attempts,
                            events,
                            kind,
                        });
                    }
                }
            }
            shard_stats.busy_ns = shard_started.elapsed().as_nanos();
        };

        let mut shards = vec![ShardStats::default(); threads];
        if threads == 1 {
            // Inline path: no thread spawn, identical results by the
            // seed-tree contract.
            run_shard(0, &mut shards[0]);
        } else {
            std::thread::scope(|scope| {
                let run_shard = &run_shard;
                let mut handles = Vec::with_capacity(threads);
                for shard_id in 0..threads {
                    handles.push(scope.spawn(move || {
                        let mut stats = ShardStats::default();
                        run_shard(shard_id, &mut stats);
                        stats
                    }));
                }
                for (shard_id, (shard, handle)) in
                    shards.iter_mut().zip(handles).enumerate()
                {
                    match handle.join() {
                        Ok(stats) => *shard = stats,
                        // simlint: allow(SL107) — contextual propagation:
                        // job panics are caught above, so reaching this
                        // means the runner itself is broken.
                        Err(payload) => {
                            let job = in_flight[shard_id].load(Ordering::Relaxed);
                            panic!(
                                "sweep worker for shard {shard_id} panicked outside \
                                 a job (last claimed job {job}): {}",
                                panic_payload_text(payload.as_ref())
                            );
                        }
                    }
                }
            });
        }

        let results = slots.into_inner().expect("no poisoned job slots");
        let mut failures = failures.into_inner().expect("no poisoned failure manifest");
        // Claiming order is racy; the manifest is not. Sort by job
        // index so equal runs produce byte-equal manifests.
        failures.sort_by_key(|failure| failure.index);
        let jobs = results.len();
        SweepReport {
            results,
            failures,
            stats: SweepStats {
                threads,
                jobs,
                wall_ns: started.elapsed().as_nanos(),
                shards,
            },
        }
    }
}

/// Why a job attempt could not produce a result — what job functions
/// return instead of a bare error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError<E> {
    /// A typed domain failure. Not retried: jobs are deterministic in
    /// `(config, seed)`, so the same error would recur.
    Failed(E),
    /// The watchdog budget ran out before the job finished. Retried
    /// with an escalated budget.
    Stalled(StallCause),
}

impl<E> JobError<E> {
    /// Classifies a simulator error: [`SimError::StepLimitExceeded`]
    /// becomes a retryable stall (the event-count watchdog tripping),
    /// everything else a typed failure.
    pub fn from_sim(error: SimError) -> JobError<E>
    where
        E: From<SimError>,
    {
        match error {
            SimError::StepLimitExceeded { limit } => {
                JobError::Stalled(StallCause::EventBudget { limit })
            }
            other => JobError::Failed(other.into()),
        }
    }
}

impl<E: fmt::Display> fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Failed(error) => write!(f, "{error}"),
            JobError::Stalled(cause) => write!(f, "stalled: {cause}"),
        }
    }
}

/// Which watchdog limit a stalled job ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StallCause {
    /// The event-count budget was exhausted (typically surfaced as
    /// [`SimError::StepLimitExceeded`] with this limit).
    EventBudget {
        /// The exhausted limit.
        limit: u64,
    },
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallCause::EventBudget { limit } => {
                write!(f, "event budget of {limit} exhausted")
            }
        }
    }
}

/// A per-attempt watchdog budget: an optional event-count ceiling.
///
/// The budget is *cooperative*: a job applies the ceiling to its
/// simulator ([`JobBudget::apply_to`], backed by the engine's bounded
/// `run_until` pops). The runner cannot preempt a job that never
/// yields — but every simulation-shaped job naturally does.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobBudget {
    max_events: Option<u64>,
}

impl JobBudget {
    /// The event-count ceiling, if any.
    #[must_use]
    pub fn max_events(&self) -> Option<u64> {
        self.max_events
    }

    /// Applies the event ceiling to a simulator's step limit (no-op for
    /// an unlimited budget).
    pub fn apply_to(&self, sim: &mut crate::Simulator) {
        if let Some(limit) = self.max_events {
            sim.set_step_limit(limit);
        }
    }
}

/// Retry/watchdog policy for [`SweepRunner::run_resilient`].
///
/// The default is one attempt with no budget — `catch_unwind` panic
/// isolation only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    max_events: Option<u64>,
    escalation: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            max_events: None,
            escalation: 2,
        }
    }
}

impl RetryPolicy {
    /// Total attempts per job (clamped to at least 1).
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Base event-count budget per attempt.
    #[must_use]
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Budget multiplier applied per retry (clamped to at least 1):
    /// attempt `n` gets `base * escalation^n`.
    #[must_use]
    pub fn with_escalation(mut self, escalation: u32) -> Self {
        self.escalation = escalation.max(1);
        self
    }

    /// The configured attempt count.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Arms the budget for attempt `attempt` (0-based), escalating the
    /// base limit by `escalation^attempt`.
    #[must_use]
    pub fn budget_for(&self, attempt: u32) -> JobBudget {
        let factor = u64::from(self.escalation.max(1)).saturating_pow(attempt);
        JobBudget {
            max_events: self.max_events.map(|e| e.saturating_mul(factor)),
        }
    }
}

/// How a job ultimately failed after its retry budget ran out.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FailureKind<E> {
    /// The job function panicked; the payload rendered as text.
    Panicked {
        /// The panic payload (string payloads verbatim, otherwise a
        /// placeholder).
        payload: String,
    },
    /// Every attempt exhausted its watchdog budget.
    Stalled {
        /// The limit the final attempt ran into.
        cause: StallCause,
    },
    /// The job returned a typed error (not retried).
    Failed {
        /// The domain error.
        error: E,
    },
}

impl<E> FailureKind<E> {
    /// Stable machine-readable label ("panicked" / "stalled" /
    /// "failed") used in the JSON manifest.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panicked { .. } => "panicked",
            FailureKind::Stalled { .. } => "stalled",
            FailureKind::Failed { .. } => "failed",
        }
    }
}

/// One abandoned job in a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure<E> {
    /// The job's position in the config list.
    pub index: usize,
    /// The job's derived scalar seed (`fork(index)`) — enough to replay
    /// the job in isolation.
    pub seed: u64,
    /// Attempts consumed (1 for fail-fast typed errors).
    pub attempts: u32,
    /// Simulator events the final attempt dispatched before failing.
    pub events: u64,
    /// How the job failed.
    pub kind: FailureKind<E>,
}

impl<E: fmt::Display> JobFailure<E> {
    /// Human/JSON detail string for the failure.
    #[must_use]
    pub fn detail(&self) -> String {
        match &self.kind {
            FailureKind::Panicked { payload } => payload.clone(),
            FailureKind::Stalled { cause } => cause.to_string(),
            FailureKind::Failed { error } => error.to_string(),
        }
    }
}

/// The outcome of a sweep: per-config results in config order plus a
/// failure manifest. It is not behind a `Result`: the sweep completes
/// either way.
#[derive(Debug, Clone)]
pub struct SweepReport<R, E> {
    /// One slot per input config, in input order; `None` where the job
    /// failed.
    pub results: Vec<Option<R>>,
    /// Failed jobs, sorted by index (deterministic regardless of
    /// scheduling).
    pub failures: Vec<JobFailure<E>>,
    /// Execution statistics.
    pub stats: SweepStats,
}

impl<R, E> SweepReport<R, E> {
    /// Number of jobs that produced a result.
    #[must_use]
    pub fn successes(&self) -> usize {
        self.results.iter().filter(|slot| slot.is_some()).count()
    }
}

impl<R, E: fmt::Display> SweepReport<R, E> {
    /// Renders the failure manifest as deterministic JSON (no wall
    /// times, stable field order, failures sorted by index) — the
    /// schema is documented in `docs/robustness.md`.
    #[must_use]
    pub fn failure_manifest_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"jobs\": {},\n", self.results.len()));
        out.push_str(&format!("  \"successes\": {},\n", self.successes()));
        out.push_str("  \"failures\": [");
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"index\": {}, \"seed\": {}, \"attempts\": {}, \
                 \"events\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                failure.index,
                failure.seed,
                failure.attempts,
                failure.events,
                failure.kind.label(),
                escape_json(&failure.detail()),
            ));
        }
        if self.failures.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Renders a panic payload to text: string payloads verbatim, anything
/// else a placeholder.
fn panic_payload_text(payload: &(dyn Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Minimal JSON string escaping for the hand-formatted manifest.
fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-job workload reporter, aggregated into [`ShardStats`].
#[derive(Debug)]
pub struct JobMeter {
    events: u64,
    cancelled: u64,
    suppressed: u64,
}

impl JobMeter {
    /// A zeroed meter (one is created per job attempt).
    fn new() -> Self {
        JobMeter {
            events: 0,
            cancelled: 0,
            suppressed: 0,
        }
    }

    /// Adds `events` dispatched simulator events to the shard counter.
    pub fn record_events(&mut self, events: u64) {
        self.events += events;
    }

    /// Records a finished simulation's full kernel statistics
    /// (dispatched, cancelled, suppressed) into the shard counters.
    pub fn record_sim(&mut self, stats: SimStats) {
        self.events += stats.events_processed;
        self.cancelled += stats.events_cancelled;
        self.suppressed += stats.drives_suppressed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_value(job: SweepJob<'_, usize>) -> u64 {
        // Depends on config and forked seed only.
        *job.config as u64 ^ job.seed().rotate_left(7)
    }

    /// Runs `f` once per config under the default policy (panic
    /// isolation only), its errors typed — how experiment stages sweep.
    fn sweep<C: Sync, R: Send, E: Send>(
        runner: SweepRunner,
        configs: &[C],
        f: impl Fn(SweepJob<'_, C>, &mut JobMeter) -> Result<R, E> + Sync,
    ) -> SweepReport<R, E> {
        runner.run_resilient(configs, RetryPolicy::default(), |job, meter| {
            f(job, meter).map_err(JobError::Failed)
        })
    }

    #[test]
    fn results_are_in_config_order() {
        let configs: Vec<usize> = (0..64).collect();
        let report = sweep(SweepRunner::new(1).with_threads(4), &configs, |job, _| {
            Ok::<_, ()>((job.index, job_value(job)))
        });
        assert!(report.failures.is_empty());
        for (i, slot) in report.results.iter().enumerate() {
            assert_eq!(slot.map(|(index, _)| index), Some(i));
        }
        assert_eq!(report.stats.jobs, 64);
        assert_eq!(report.stats.threads, 4);
        assert_eq!(
            report.stats.shards.iter().map(|s| s.jobs).sum::<usize>(),
            64
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let configs: Vec<usize> = (0..41).collect();
        let value = |job: SweepJob<'_, usize>, _: &mut JobMeter| Ok::<_, ()>(job_value(job));
        let reference = sweep(SweepRunner::new(9).with_threads(1), &configs, value);
        assert_eq!(reference.successes(), 41);
        for threads in [2, 3, 8] {
            for chunk in [1, 4] {
                let runner = SweepRunner::new(9)
                    .with_threads(threads)
                    .with_chunk_size(chunk);
                let report = sweep(runner, &configs, value);
                assert_eq!(report.results, reference.results, "T={threads} c={chunk}");
            }
        }
    }

    #[test]
    fn per_job_seeds_are_distinct_and_stable() {
        let configs = [0usize; 16];
        let report = sweep(SweepRunner::new(77).with_threads(2), &configs, |job, _| {
            Ok::<_, ()>(job.seed())
        });
        let seeds: Vec<u64> = report.results.iter().flatten().copied().collect();
        assert_eq!(seeds.len(), 16, "no failures");
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 16, "all forks distinct");
        // Forks match the tree contract.
        let tree = RngTree::new(77);
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, tree.fork(i as u64).master_seed());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Every odd job fails; under racy claiming the manifest still
        // leads with the lowest failing index and its own error.
        let configs: Vec<usize> = (0..32).collect();
        let report = sweep(SweepRunner::new(3).with_threads(4), &configs, |job, _| {
            if *job.config % 2 == 1 {
                Err(*job.config)
            } else {
                Ok(())
            }
        });
        let first = report.failures.first().expect("odd jobs fail");
        assert_eq!(first.index, 1);
        assert_eq!(first.kind, FailureKind::Failed { error: 1 });
        let indices: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, (1..32).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn meter_feeds_shard_event_counters() {
        let configs: Vec<usize> = (0..10).collect();
        let runner = SweepRunner::new(5).with_threads(2);
        let report = sweep(runner, &configs, |job, meter| {
            meter.record_events(*job.config as u64);
            Ok::<_, ()>(())
        });
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.events(), (0..10).sum::<u64>());
        assert!(report.stats.speedup() > 0.0);
    }

    #[test]
    fn record_sim_feeds_all_counters() {
        let configs: Vec<usize> = (1..=4).collect();
        let runner = SweepRunner::new(6).with_threads(2);
        let report = sweep(runner, &configs, |job, meter| {
            meter.record_sim(SimStats {
                events_processed: *job.config as u64 * 10,
                events_cancelled: *job.config as u64,
                drives_suppressed: *job.config as u64 * 2,
            });
            Ok::<_, ()>(())
        });
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.events(), 100);
        assert_eq!(report.stats.cancelled(), 10);
        assert_eq!(report.stats.suppressed(), 20);
        assert!(report.stats.events_per_sec() > 0.0);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = sweep(SweepRunner::new(1), &[] as &[usize], |_, _| Ok::<_, ()>(()));
        assert!(report.results.is_empty());
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }

    /// The 14-job acceptance scenario: 2 panics, 1 stall, 11 results.
    fn degraded_sweep(threads: usize) -> SweepReport<u64, String> {
        let configs: Vec<usize> = (0..14).collect();
        SweepRunner::new(2012)
            .with_threads(threads)
            .run_resilient(
                &configs,
                RetryPolicy::default()
                    .with_attempts(2)
                    .with_max_events(1_000),
                |job, meter| {
                    match *job.config {
                        3 | 9 => panic!("deliberate panic in config {}", job.config),
                        6 => {
                            // Simulate a stall: the job "dispatches"
                            // its whole event budget without finishing.
                            let limit = job.budget.max_events().unwrap_or(u64::MAX);
                            meter.record_events(limit);
                            Err(JobError::Stalled(StallCause::EventBudget { limit }))
                        }
                        c => {
                            meter.record_events(10);
                            Ok(c as u64 ^ job.seed())
                        }
                    }
                },
            )
    }

    #[test]
    fn resilient_sweep_survives_panics_and_stalls() {
        let report = degraded_sweep(4);
        assert_eq!(report.results.len(), 14);
        assert_eq!(report.successes(), 11);
        assert_eq!(report.failures.len(), 3);
        let by_index: Vec<(usize, &str, u32)> = report
            .failures
            .iter()
            .map(|f| (f.index, f.kind.label(), f.attempts))
            .collect();
        assert_eq!(
            by_index,
            vec![(3, "panicked", 2), (6, "stalled", 2), (9, "panicked", 2)]
        );
        for failure in &report.failures {
            assert_eq!(
                failure.seed,
                RngTree::new(2012).fork(failure.index as u64).master_seed()
            );
        }
        // The stall detail names the (escalated) exhausted budget.
        assert!(report.failures[1].detail().contains("2000"));
        // Failed slots stay empty, successful slots are filled.
        for (index, slot) in report.results.iter().enumerate() {
            let failed = matches!(index, 3 | 6 | 9);
            assert_eq!(slot.is_none(), failed, "slot {index}");
        }
    }

    #[test]
    fn resilient_results_are_thread_count_invariant() {
        let reference = degraded_sweep(1);
        for threads in [2, 8] {
            let report = degraded_sweep(threads);
            assert_eq!(report.results, reference.results, "T={threads}");
            assert_eq!(
                report.failure_manifest_json(),
                reference.failure_manifest_json(),
                "manifest T={threads}"
            );
        }
    }

    #[test]
    fn manifest_json_is_parseable_shape() {
        let report = degraded_sweep(2);
        let json = report.failure_manifest_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"jobs\": 14"));
        assert!(json.contains("\"successes\": 11"));
        assert!(json.contains("\"kind\": \"panicked\""));
        assert!(json.contains("\"kind\": \"stalled\""));
        // Panic payloads render verbatim (escaped).
        assert!(json.contains("deliberate panic in config 3"));
        // A clean report still renders valid JSON with an empty list.
        let clean = SweepRunner::new(1)
            .run_resilient(&[1usize], RetryPolicy::default(), |_, _| {
                Ok::<_, JobError<String>>(0u64)
            });
        assert!(clean.failures.is_empty());
        assert!(clean.failure_manifest_json().contains("\"failures\": []"));
        assert_eq!(clean.results, vec![Some(0)]);
    }

    #[test]
    fn typed_errors_fail_fast_without_retry() {
        let configs = [1usize, 2];
        let report = SweepRunner::new(4).with_threads(1).run_resilient(
            &configs,
            RetryPolicy::default().with_attempts(5),
            |job, _| {
                if *job.config == 2 {
                    Err(JobError::Failed("bad config".to_owned()))
                } else {
                    Ok(*job.config)
                }
            },
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].attempts, 1, "typed errors are not retried");
        assert_eq!(report.failures[0].kind.label(), "failed");
    }

    #[test]
    fn stalls_retry_with_escalating_budget_and_can_recover() {
        // The job needs 3000 events; the base budget of 1000 escalates
        // to 2000 then 4000, so the third attempt succeeds.
        let configs = [(); 1];
        let report = SweepRunner::new(4).with_threads(1).run_resilient(
            &configs,
            RetryPolicy::default()
                .with_attempts(3)
                .with_max_events(1_000)
                .with_escalation(2),
            |job, _| {
                let budget = job.budget.max_events().expect("policy sets a budget");
                if budget < 3_000 {
                    Err(JobError::<String>::Stalled(StallCause::EventBudget {
                        limit: budget,
                    }))
                } else {
                    Ok(job.attempt)
                }
            },
        );
        assert!(report.failures.is_empty());
        assert_eq!(report.results[0], Some(2), "succeeded on the third attempt");
    }

    #[test]
    fn budget_applies_step_limit_and_classifies_stall() {
        use crate::{Bit, Simulator, Time};
        // A self-looping driver generates unbounded events; the budget
        // converts the runaway run into a retryable stall.
        struct Echo {
            net: crate::NetId,
        }
        impl crate::Component for Echo {
            fn on_event(&mut self, event: &crate::Event, ctx: &mut crate::Context<'_>) {
                if let crate::Event::NetChanged { net, value } = *event {
                    if net == self.net {
                        ctx.schedule_net(self.net, !value, 1.0);
                    }
                }
            }
        }
        let configs = [(); 1];
        let report = SweepRunner::new(8).with_threads(1).run_resilient(
            &configs,
            RetryPolicy::default().with_attempts(2).with_max_events(100),
            |job, meter| {
                let mut sim = Simulator::new(job.seed());
                let net = sim.add_net("echo");
                let id = sim.add_component(Echo { net });
                sim.listen(net, id).map_err(JobError::from_sim)?;
                sim.inject(net, Bit::High, 0.0).map_err(JobError::from_sim)?;
                job.budget.apply_to(&mut sim);
                let run = sim.run_until(Time::from_us(1.0));
                meter.record_sim(sim.stats());
                run.map_err(JobError::<SimError>::from_sim)?;
                Ok(())
            },
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].kind.label(), "stalled");
        assert_eq!(report.failures[0].attempts, 2);
        // Both attempts dispatched up to their (escalated) budgets.
        assert!(report.failures[0].events >= 100);
    }

    #[test]
    fn job_panic_is_caught_and_names_the_job() {
        // A panicking job does not unwind through the sweep, inline or
        // on a spawned worker: its failure names the job, its seed and
        // the payload, and every other job still delivers.
        let configs: Vec<usize> = (0..8).collect();
        for threads in [1, 2] {
            let runner = SweepRunner::new(1).with_threads(threads);
            let report = sweep(runner, &configs, |job, _| {
                if *job.config == 5 {
                    panic!("boom in job 5");
                }
                Ok::<_, ()>(())
            });
            assert_eq!(report.successes(), 7, "T={threads}");
            assert_eq!(
                report.failures,
                vec![JobFailure {
                    index: 5,
                    seed: RngTree::new(1).fork(5).master_seed(),
                    attempts: 1,
                    events: 0,
                    kind: FailureKind::Panicked {
                        payload: "boom in job 5".to_owned()
                    },
                }],
                "T={threads}"
            );
        }
    }
}
