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
//! Each job runs once. A job that panics or returns a typed error
//! becomes one [`JobFailure`] in the [`SweepReport`] while the other
//! jobs still run; failures are sorted by job index, so they too are
//! the same at every thread count. A job is a pure function of
//! `(config, seed)`, so running a failed job again would fail it the
//! same way.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::engine::SimStats;
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
    /// Kernel counters of the simulations the jobs on this shard
    /// reported through their [`JobMeter`] (zero when jobs do not
    /// report).
    pub sim: SimStats,
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
        self.shards.iter().map(|s| s.sim.events_processed).sum()
    }

    /// Total no-change drives suppressed across shards.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.shards.iter().map(|s| s.sim.drives_suppressed).sum()
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
/// use strent_sim::sweep::{JobMeter, SweepJob, SweepRunner};
///
/// fn double(job: SweepJob<'_, usize>, _: &mut JobMeter) -> Result<usize, ()> {
///     Ok(job.config * 2 + (job.seed() % 2) as usize)
/// }
/// let lengths = [4usize, 8, 16, 32];
/// let report = SweepRunner::new(2012).with_threads(4).run(&lengths, double);
/// assert!(report.failures.is_empty(), "no job fails");
/// // Results arrive in config order, regardless of which worker ran them.
/// let again = SweepRunner::new(2012).with_threads(1).run(&lengths, double);
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

    /// Runs `f` once over every config, in parallel, with deterministic
    /// per-job seeds, and reports every job's outcome. Each job runs
    /// inside `catch_unwind`, so a job that panics or returns an error
    /// yields a [`JobFailure`] instead of killing the sweep, and the
    /// other jobs still run. `f` reports the kernel statistics of its
    /// simulations into the shard counters through the [`JobMeter`] it
    /// is handed.
    ///
    /// Job `i` receives `tree.fork(i)`, so the results and the failures
    /// are bit-identical across thread counts; `tests/determinism.rs`
    /// pins this.
    pub fn run<C, R, E, F>(&self, configs: &[C], f: F) -> SweepReport<R, E>
    where
        C: Sync,
        R: Send,
        E: Send,
        F: Fn(SweepJob<'_, C>, &mut JobMeter) -> Result<R, E> + Sync,
    {
        // simlint: allow(SL102) wall-clock sweep stats only; results carry simulated time
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
            // simlint: allow(SL102) wall-clock shard stats only; results carry simulated time
            let shard_started = Instant::now();
            loop {
                let start = cursor.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= configs.len() {
                    break;
                }
                let end = (start + self.chunk).min(configs.len());
                for (index, config) in configs.iter().enumerate().take(end).skip(start) {
                    in_flight[shard_id].store(index, Ordering::Relaxed);
                    let job = SweepJob {
                        index,
                        config,
                        rng: self.tree.fork(index as u64),
                    };
                    let seed = job.seed();
                    let mut meter = JobMeter {
                        sim: SimStats::default(),
                    };
                    // Job state is never observed again after an
                    // unwind, so suppressing the UnwindSafe bound is
                    // sound here.
                    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| f(job, &mut meter)));
                    shard_stats.jobs += 1;
                    shard_stats.sim.absorb(meter.sim);
                    let kind = match caught {
                        Ok(Ok(result)) => {
                            slots.lock().expect("no poisoned job slots")[index] = Some(result);
                            continue;
                        }
                        Ok(Err(error)) => FailureKind::Failed { error },
                        Err(payload) => FailureKind::Panicked {
                            payload: panic_payload_text(payload.as_ref()),
                        },
                    };
                    failures
                        .lock()
                        .expect("no poisoned failure list")
                        .push(JobFailure { index, seed, kind });
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
        let mut failures = failures.into_inner().expect("no poisoned failure list");
        // Claiming order is racy; the failure list is not. Sort by job
        // index so equal runs produce equal lists.
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

/// How a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind<E> {
    /// The job function panicked; the payload rendered as text.
    Panicked {
        /// The panic payload (string payloads verbatim, otherwise a
        /// placeholder).
        payload: String,
    },
    /// The job returned a typed error.
    Failed {
        /// The domain error.
        error: E,
    },
}

/// One failed job in a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure<E> {
    /// The job's position in the config list.
    pub index: usize,
    /// The job's derived scalar seed (`fork(index)`) — enough to replay
    /// the job in isolation.
    pub seed: u64,
    /// How the job failed.
    pub kind: FailureKind<E>,
}

/// The outcome of a sweep: per-config results in config order plus the
/// failed jobs. It is not behind a `Result`: the sweep completes either
/// way.
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

/// Per-job workload reporter, aggregated into [`ShardStats`].
#[derive(Debug)]
pub struct JobMeter {
    sim: SimStats,
}

impl JobMeter {
    /// Records a finished simulation's kernel statistics (dispatched and
    /// suppressed events) into the shard counters.
    pub fn record_sim(&mut self, stats: SimStats) {
        self.sim.absorb(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_value(job: SweepJob<'_, usize>) -> u64 {
        // Depends on config and forked seed only.
        *job.config as u64 ^ job.seed().rotate_left(7)
    }

    /// A meter reading of `events` dispatched events.
    fn dispatched(events: u64) -> SimStats {
        SimStats {
            events_processed: events,
            ..SimStats::default()
        }
    }

    #[test]
    fn results_are_in_config_order() {
        let configs: Vec<usize> = (0..64).collect();
        let report = SweepRunner::new(1)
            .with_threads(4)
            .run(&configs, |job, _| Ok::<_, ()>((job.index, job_value(job))));
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
        let reference = SweepRunner::new(9).with_threads(1).run(&configs, value);
        assert!(reference.failures.is_empty());
        for threads in [2, 3, 8] {
            for chunk in [1, 4] {
                let runner = SweepRunner::new(9)
                    .with_threads(threads)
                    .with_chunk_size(chunk);
                let report = runner.run(&configs, value);
                assert_eq!(report.results, reference.results, "T={threads} c={chunk}");
            }
        }
    }

    #[test]
    fn per_job_seeds_are_distinct_and_stable() {
        let configs = [0usize; 16];
        let report = SweepRunner::new(77)
            .with_threads(2)
            .run(&configs, |job, _| Ok::<_, ()>(job.seed()));
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
        // Every odd job fails; under racy claiming the failure list
        // still leads with the lowest failing index and its own error.
        let configs: Vec<usize> = (0..32).collect();
        let report = SweepRunner::new(3).with_threads(4).run(&configs, |job, _| {
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
        let report = SweepRunner::new(5)
            .with_threads(2)
            .run(&configs, |job, meter| {
                meter.record_sim(dispatched(*job.config as u64));
                Ok::<_, ()>(())
            });
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.events(), (0..10).sum::<u64>());
        assert!(report.stats.speedup() > 0.0);
    }

    #[test]
    fn record_sim_feeds_all_counters() {
        let configs: Vec<usize> = (1..=4).collect();
        let report = SweepRunner::new(6)
            .with_threads(2)
            .run(&configs, |job, meter| {
                meter.record_sim(SimStats {
                    events_processed: *job.config as u64 * 10,
                    drives_suppressed: *job.config as u64 * 2,
                });
                Ok::<_, ()>(())
            });
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.events(), 100);
        assert_eq!(report.stats.suppressed(), 20);
        assert!(report.stats.events_per_sec() > 0.0);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = SweepRunner::new(1).run(&[] as &[usize], |_, _| Ok::<_, ()>(()));
        assert!(report.results.is_empty());
        assert!(report.failures.is_empty());
        assert_eq!(report.stats.jobs, 0);
    }

    #[test]
    fn failed_jobs_leave_the_others_and_match_at_every_thread_count() {
        // 14 jobs: panics at 3 and 9, a typed error at 6, 11 results.
        let configs: Vec<usize> = (0..14).collect();
        let sweep = |threads| {
            SweepRunner::new(2012)
                .with_threads(threads)
                .run(&configs, |job, meter| match *job.config {
                    3 | 9 => panic!("deliberate panic in config {}", job.config),
                    6 => Err(format!("bad config {}", job.config)),
                    c => {
                        meter.record_sim(dispatched(10));
                        Ok(c as u64 ^ job.seed())
                    }
                })
        };
        let seed = |index: usize| RngTree::new(2012).fork(index as u64).master_seed();
        let panicked = |index: usize| JobFailure {
            index,
            seed: seed(index),
            kind: FailureKind::Panicked {
                payload: format!("deliberate panic in config {index}"),
            },
        };
        let expected_failures = vec![
            panicked(3),
            JobFailure {
                index: 6,
                seed: seed(6),
                kind: FailureKind::Failed {
                    error: "bad config 6".to_owned(),
                },
            },
            panicked(9),
        ];
        let expected_results: Vec<Option<u64>> = (0..14)
            .map(|c| (!matches!(c, 3 | 6 | 9)).then(|| c as u64 ^ seed(c)))
            .collect();
        for threads in [1, 2, 8] {
            let report = sweep(threads);
            assert_eq!(report.results, expected_results, "T={threads}");
            assert_eq!(report.failures, expected_failures, "T={threads}");
            assert_eq!(report.stats.jobs, 14, "T={threads}");
            assert_eq!(report.stats.events(), 110, "T={threads}");
        }
    }

    #[test]
    fn job_panic_is_caught_and_names_the_job() {
        // A panicking job does not unwind through the sweep, inline or
        // on a spawned worker: its failure names the job, its seed and
        // the payload, and every other job still delivers.
        let configs: Vec<usize> = (0..8).collect();
        for threads in [1, 2] {
            let report = SweepRunner::new(1)
                .with_threads(threads)
                .run(&configs, |job, _| {
                    if *job.config == 5 {
                        panic!("boom in job 5");
                    }
                    Ok::<_, ()>(())
                });
            assert_eq!(report.results.iter().flatten().count(), 7, "T={threads}");
            assert_eq!(
                report.failures,
                vec![JobFailure {
                    index: 5,
                    seed: RngTree::new(1).fork(5).master_seed(),
                    kind: FailureKind::Panicked {
                        payload: "boom in job 5".to_owned()
                    },
                }],
                "T={threads}"
            );
        }
    }
}
