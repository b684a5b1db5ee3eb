//! Supervision primitives for the serving layer: restart policies with
//! deterministic jittered backoff, typed incident records, and the
//! bounded-deadline helpers the graceful-drain state machine uses.
//!
//! Every long-lived service thread (pool workers, scheduler shards, the
//! socket event loop) runs its loop body under [`supervise`]: a panic is
//! caught at the loop boundary, recorded as a typed [`Incident`], and
//! the body is restarted after a jittered exponential backoff. The
//! thread's mutable state lives *outside* the unwind boundary, so a
//! restart resumes from the survivor state instead of from scratch —
//! the property that keeps deterministic-mode served bytes identical
//! with chaos injection on or off (see `docs/serving.md`, "Supervision
//! & shutdown").
//!
//! Escalation is bounded: more than [`RestartPolicy::max_restarts`]
//! restarts inside [`RestartPolicy::window`] stops the restart loop and
//! returns [`SupervisionOutcome::Escalated`], letting the owner
//! quarantine the unit (a shard hands its clients to siblings; a worker
//! lets the pool report `SourceFailed`) instead of flapping forever.
//!
//! The backoff jitter is derived from [`RestartPolicy::jitter_seed`]
//! with a splitmix64 step — no wall-clock or OS randomness — so a chaos
//! drill replay restarts on the exact same schedule every run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use strent_sim::rng::splitmix64;

/// How a supervised unit restarts after a panic, and when restarting
/// gives way to escalation.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Backoff before the first restart.
    pub initial_backoff: Duration,
    /// Cap on the exponentially growing backoff.
    pub max_backoff: Duration,
    /// Restarts tolerated inside `window` before the unit escalates.
    pub max_restarts: u32,
    /// The sliding window `max_restarts` is counted over.
    pub window: Duration,
    /// Seed of the deterministic backoff jitter (splitmix64-derived;
    /// no wall-clock randomness, so chaos replays restart on the same
    /// schedule).
    pub jitter_seed: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            max_restarts: 8,
            window: Duration::from_secs(30),
            jitter_seed: 0x5EED_0F5E_17ED,
        }
    }
}

impl RestartPolicy {
    /// The backoff before restart number `attempt` (1-based): an
    /// exponential doubling from `initial_backoff`, capped at
    /// `max_backoff`, scaled by a deterministic jitter factor in
    /// `[0.75, 1.25)` drawn from `jitter_seed` and `attempt`.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        let h = splitmix64(self.jitter_seed ^ u64::from(attempt));
        // Integer jitter: base * (768 + h % 512) / 1024 in [0.75, 1.25).
        let scaled = base.as_nanos() as u64 / 1024 * (768 + h % 512);
        Duration::from_nanos(scaled)
    }
}

/// What happened to a supervised unit, as recorded in its incidents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentKind {
    /// The unit's body panicked; the payload text is in the detail.
    Panic,
    /// The unit was restarted (attempt number inside the current
    /// escalation window).
    Restarted {
        /// 1-based restart attempt inside the window.
        attempt: u32,
    },
    /// The restart budget was exhausted; the unit stopped flapping and
    /// handed itself to the escalation path.
    Escalated {
        /// Restarts consumed inside the window before giving up.
        restarts: u32,
    },
    /// A scheduler shard was quarantined after escalation: new clients
    /// route to siblings, queued work stays stealable.
    Quarantined,
    /// A graceful drain hit its deadline with work still pending; the
    /// remainder was refused with a typed error, never dropped.
    DrainTimedOut,
}

impl IncidentKind {
    /// A short stable label (used in reports and JSON).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::Panic => "panic",
            IncidentKind::Restarted { .. } => "restarted",
            IncidentKind::Escalated { .. } => "escalated",
            IncidentKind::Quarantined => "quarantined",
            IncidentKind::DrainTimedOut => "drain_timed_out",
        }
    }
}

/// One typed incident record.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The supervised unit ("worker-0", "shard-1", "event-loop").
    pub unit: String,
    /// What happened.
    pub kind: IncidentKind,
    /// Free-form context (panic payload text, escalation counts).
    pub detail: String,
    /// Milliseconds since the incident log was created.
    pub at_ms: u64,
}

/// A shared, append-only incident log. Cloning shares the underlying
/// storage — every supervised unit of one service records into the same
/// log, which [`crate::EntropyService::incidents`] exposes to callers.
#[derive(Debug, Clone)]
pub struct IncidentLog {
    start: Instant,
    inner: Arc<Mutex<Vec<Incident>>>,
}

impl Default for IncidentLog {
    fn default() -> Self {
        IncidentLog::new()
    }
}

impl IncidentLog {
    /// An empty log; the creation instant anchors `at_ms` timestamps.
    #[must_use]
    pub fn new() -> Self {
        IncidentLog {
            start: Instant::now(),
            inner: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Appends one incident.
    pub fn record(&self, unit: &str, kind: IncidentKind, detail: impl Into<String>) {
        let at_ms = u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.inner.lock().expect("incident log lock").push(Incident {
            unit: unit.to_owned(),
            kind,
            detail: detail.into(),
            at_ms,
        });
    }

    /// A copy of every incident recorded so far, in record order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Incident> {
        self.inner.lock().expect("incident log lock").clone()
    }

    /// Incidents of one kind (matching on the kind's label).
    #[must_use]
    pub fn count_of(&self, label: &str) -> usize {
        self.inner
            .lock()
            .expect("incident log lock")
            .iter()
            .filter(|i| i.kind.label() == label)
            .count()
    }
}

/// How a supervised unit's lifetime ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisionOutcome {
    /// The body returned normally (clean shutdown).
    Completed,
    /// The restart budget was exhausted; the owner must quarantine or
    /// tear down the unit.
    Escalated {
        /// Restarts consumed inside the escalation window.
        restarts: u32,
    },
}

/// Runs `body` under a panic-catching restart loop.
///
/// `state` is the unit's mutable state, held **outside** the unwind
/// boundary so it survives a panic; `repair` runs before each restart
/// (never before the first attempt) to mend whatever invariant the
/// panic may have interrupted. A normal return from `body` ends the
/// loop with [`SupervisionOutcome::Completed`]; exhausting
/// [`RestartPolicy::max_restarts`] inside [`RestartPolicy::window`]
/// ends it with [`SupervisionOutcome::Escalated`].
pub fn supervise<S>(
    unit: &str,
    policy: &RestartPolicy,
    log: &IncidentLog,
    state: &mut S,
    mut repair: impl FnMut(&mut S),
    mut body: impl FnMut(&mut S),
) -> SupervisionOutcome {
    let mut restarts_in_window: Vec<Instant> = Vec::new();
    let mut attempt = 0u32;
    loop {
        // The restart-with-backoff supervision boundary: state stays
        // outside the unwind so a restarted body resumes, and repeated
        // panics escalate once the policy window fills.
        let outcome = catch_unwind(AssertUnwindSafe(|| body(state)));
        let payload = match outcome {
            Ok(()) => return SupervisionOutcome::Completed,
            Err(payload) => payload,
        };
        log.record(unit, IncidentKind::Panic, panic_text(payload.as_ref()));
        let now = Instant::now();
        restarts_in_window.retain(|t| now.duration_since(*t) < policy.window);
        if restarts_in_window.len() >= policy.max_restarts as usize {
            let restarts = u32::try_from(restarts_in_window.len()).unwrap_or(u32::MAX);
            log.record(
                unit,
                IncidentKind::Escalated { restarts },
                format!("{restarts} restarts within the escalation window"),
            );
            return SupervisionOutcome::Escalated { restarts };
        }
        restarts_in_window.push(now);
        attempt = attempt.saturating_add(1);
        thread::sleep(policy.backoff_for(attempt));
        repair(state);
        log.record(
            unit,
            IncidentKind::Restarted { attempt },
            format!("restarted after backoff attempt {attempt}"),
        );
    }
}

/// Best-effort extraction of a panic payload's message.
#[must_use]
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A monotone deadline for the drain state machine: construction pins
/// the budget, and every phase asks how much is left.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// The instant the deadline lands on.
    #[must_use]
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left, saturating at zero.
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Time left as a `poll(2)` timeout in milliseconds, at least 1 so
    /// a caller never converts a drain wait into a busy spin.
    #[must_use]
    pub fn poll_ms(&self) -> i32 {
        i32::try_from(self.remaining().as_millis().clamp(1, 1000)).unwrap_or(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jitters_deterministically() {
        let policy = RestartPolicy::default();
        let a1 = policy.backoff_for(1);
        let a5 = policy.backoff_for(5);
        assert!(a5 > a1, "backoff grows with the attempt number");
        // The cap bounds even absurd attempt numbers (1.25x jitter max).
        let huge = policy.backoff_for(40);
        assert!(huge <= policy.max_backoff.mul_f64(1.25));
        // Same seed, same schedule — the chaos-replay requirement.
        let again = RestartPolicy::default();
        for attempt in 1..10 {
            assert_eq!(policy.backoff_for(attempt), again.backoff_for(attempt));
        }
        // A different seed jitters differently somewhere in the range.
        let other = RestartPolicy {
            jitter_seed: 7,
            ..RestartPolicy::default()
        };
        assert!((1..10).any(|a| other.backoff_for(a) != policy.backoff_for(a)));
    }

    #[test]
    fn supervise_restarts_through_panics_and_preserves_state() {
        let log = IncidentLog::new();
        let policy = RestartPolicy {
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
            max_restarts: 5,
            window: Duration::from_secs(10),
            jitter_seed: 1,
        };
        // State: (progress, panics already fired). The body panics
        // twice mid-run, then completes; progress must survive.
        let mut state = (0u32, 0u32);
        let outcome = supervise(
            "unit-test",
            &policy,
            &log,
            &mut state,
            |_| {},
            |s| {
                while s.0 < 10 {
                    s.0 += 1;
                    if (s.0 == 3 || s.0 == 7) && s.1 < 2 {
                        s.1 += 1;
                        panic!("injected panic at progress {}", s.0);
                    }
                }
            },
        );
        assert_eq!(outcome, SupervisionOutcome::Completed);
        assert_eq!(state.0, 10, "progress survived both panics");
        assert_eq!(log.count_of("panic"), 2);
        assert_eq!(log.count_of("restarted"), 2);
        let snapshot = log.snapshot();
        assert!(snapshot[0].detail.contains("injected panic"));
        assert_eq!(snapshot[0].unit, "unit-test");
    }

    #[test]
    fn supervise_escalates_after_the_window_fills() {
        let log = IncidentLog::new();
        let policy = RestartPolicy {
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            max_restarts: 3,
            window: Duration::from_secs(60),
            jitter_seed: 2,
        };
        let mut runs = 0u32;
        let outcome = supervise(
            "flapper",
            &policy,
            &log,
            &mut runs,
            |_| {},
            |r| {
                *r += 1;
                panic!("always fails");
            },
        );
        assert_eq!(outcome, SupervisionOutcome::Escalated { restarts: 3 });
        assert_eq!(runs, 4, "initial run plus three restarts");
        assert_eq!(log.count_of("escalated"), 1);
        assert_eq!(log.count_of("panic"), 4);
    }

    #[test]
    fn repair_runs_before_each_restart_but_not_the_first_attempt() {
        let log = IncidentLog::new();
        let policy = RestartPolicy {
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
            max_restarts: 4,
            window: Duration::from_secs(60),
            jitter_seed: 3,
        };
        let mut state = (0u32, 0u32); // (repairs, runs)
        let outcome = supervise(
            "repairable",
            &policy,
            &log,
            &mut state,
            |s| s.0 += 1,
            |s| {
                s.1 += 1;
                if s.1 < 3 {
                    panic!("not yet");
                }
            },
        );
        assert_eq!(outcome, SupervisionOutcome::Completed);
        assert_eq!(state, (2, 3), "two repairs for two restarts");
    }

    #[test]
    fn deadline_expires_and_reports_bounded_poll_timeouts() {
        let deadline = Deadline::after(Duration::from_millis(20));
        assert!(!deadline.expired());
        assert!(deadline.poll_ms() >= 1 && deadline.poll_ms() <= 1000);
        thread::sleep(Duration::from_millis(25));
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Duration::ZERO);
        assert_eq!(deadline.poll_ms(), 1, "expired deadlines never spin");
    }

    #[test]
    fn incident_labels_are_stable() {
        assert_eq!(IncidentKind::Panic.label(), "panic");
        assert_eq!(IncidentKind::Restarted { attempt: 1 }.label(), "restarted");
        assert_eq!(IncidentKind::Escalated { restarts: 2 }.label(), "escalated");
        assert_eq!(IncidentKind::Quarantined.label(), "quarantined");
        assert_eq!(IncidentKind::DrainTimedOut.label(), "drain_timed_out");
    }
}
