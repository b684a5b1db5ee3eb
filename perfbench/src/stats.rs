//! Process counters read from `/proc`, order statistics, and the
//! result line the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// user + system CPU seconds of the fields following the `(comm)` of a
/// `/proc/.../stat` line.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm: state(0) ... utime(11) stime(12).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// CPU seconds (user + system) this process has used so far, summed
/// over all its threads, finished ones included.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| stat_cpu_s(&s))
        .expect("/proc/self/stat has utime and stime")
}

/// CPU seconds of a thread from its `schedstat` (nanosecond run time;
/// the tick-based `stat` fields round a lightly loaded thread to zero).
fn schedstat_cpu_s(schedstat: &str) -> Option<f64> {
    let ns: u64 = schedstat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-9)
}

/// CPU seconds the calling thread has used so far.
pub fn current_thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| schedstat_cpu_s(&s))
        .expect("/proc/thread-self/schedstat has the run time")
}

/// Host-wide CPU time stolen by the hypervisor over an interval, from
/// the aggregate `cpu` line of `/proc/stat` — reported with each run
/// because it moves wall-clock figures on a shared virtual machine.
#[derive(Debug, Clone, Copy)]
pub struct HostSteal {
    steal: u64,
    total: u64,
}

impl HostSteal {
    fn read() -> HostSteal {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        HostSteal {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Marks the start of an interval.
    pub fn start() -> HostSteal {
        HostSteal::read()
    }

    /// The interval from `self` to now.
    pub fn stop(self) -> HostSteal {
        let now = HostSteal::read();
        HostSteal {
            steal: now.steal - self.steal,
            total: now.total - self.total,
        }
    }

    /// Stolen share of all CPU time in the interval, percent.
    pub fn percent(self) -> f64 {
        100.0 * self.steal as f64 / self.total.max(1) as f64
    }
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// CPU seconds per live thread of this process, keyed by thread id,
/// with the thread's name (`comm`, truncated by the kernel to 15 bytes).
pub fn thread_cpu() -> BTreeMap<u32, (String, f64)> {
    let mut threads = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return threads;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading; skip it.
        let (Ok(comm), Ok(schedstat)) = (
            fs::read_to_string(entry.path().join("comm")),
            fs::read_to_string(entry.path().join("schedstat")),
        ) else {
            continue;
        };
        if let Some(cpu) = schedstat_cpu_s(&schedstat) {
            threads.insert(tid, (comm.trim_end().to_owned(), cpu));
        }
    }
    threads
}

/// CPU seconds spent between two [`thread_cpu`] snapshots by threads
/// whose name starts with `prefix` (a thread born after `before` counts
/// from zero).
pub fn thread_cpu_delta(
    before: &BTreeMap<u32, (String, f64)>,
    after: &BTreeMap<u32, (String, f64)>,
    prefix: &str,
) -> f64 {
    after
        .iter()
        .filter(|(_, (name, _))| name.starts_with(prefix))
        .map(|(tid, (_, cpu))| cpu - before.get(tid).map_or(0.0, |(_, c)| *c))
        .sum()
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Cold starts spread evenly over a run's measured phase. Their median
/// (`setup_s`) then samples the host over the same stretch as the
/// measured units rather than at one instant: the host's speed drifts
/// over seconds to minutes.
#[derive(Debug)]
pub struct ColdStarts {
    total: usize,
    times: Vec<f64>,
}

impl ColdStarts {
    /// `total` cold starts over the run.
    pub fn new(total: usize) -> ColdStarts {
        ColdStarts {
            total,
            times: Vec::with_capacity(total),
        }
    }

    /// Counts a cold start made elsewhere.
    pub fn record(&mut self, took: Duration) {
        self.times.push(took.as_secs_f64());
    }

    /// Makes cold starts with `start` (which returns the time one took)
    /// until their count keeps pace with `done`, the share of the
    /// measured phase behind; at least one, at most the total.
    pub fn keep_pace(
        &mut self,
        done: f64,
        mut start: impl FnMut() -> Result<Duration, String>,
    ) -> Result<(), String> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let due = (done.clamp(0.0, 1.0) * self.total as f64).ceil() as usize;
        while self.times.len() < due.clamp(1, self.total) {
            let took = start()?;
            self.record(took);
        }
        Ok(())
    }

    /// The cold starts' times, seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Median cold-start time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A named set of metrics, each with its unit, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name` = `value` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// The outcome of one run: the correctness verdict, the operation
/// counts and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}
