//! Failure records for the serving layer: typed incidents and the
//! monotone deadline the resilient client retries against.
//!
//! A serving thread has one way to fail. A pool worker runs its
//! producer loop once: a source error or a panic ends it, its slots'
//! senders drop, and the consumer's next read of one of those slots is
//! the typed [`crate::ServeError::SourceFailed`]. A scheduler shard
//! runs its loop once, under the crate's one `catch_unwind`: a panic
//! records a `panic` [`Incident`] with the payload text and then a
//! `quarantined` one, sets the shard's quarantine flag so new clients
//! route to a healthy sibling, and refuses whatever the shard still
//! holds with typed errors (see `docs/serving.md`, "Failure &
//! shutdown"). Nothing is restarted: every source is a seeded
//! simulation, so a rebuilt unit would only replay into the same panic.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What happened to a scheduler shard, as recorded in its incidents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentKind {
    /// The shard's loop panicked; the payload text is in the detail.
    Panic,
    /// The panicked shard was quarantined: new clients route to
    /// siblings, and the requests it still held are refused typed.
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
            IncidentKind::Quarantined => "quarantined",
            IncidentKind::DrainTimedOut => "drain_timed_out",
        }
    }
}

/// One typed incident record.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The scheduler shard that recorded it ("shard-1"); only shards
    /// record incidents.
    pub unit: String,
    /// What happened.
    pub kind: IncidentKind,
    /// Free-form context (panic payload text, what was refused).
    pub detail: String,
    /// Milliseconds since the incident log was created.
    pub at_ms: u64,
}

/// A shared, append-only incident log. Cloning shares the underlying
/// storage — every shard of one service records into the same log,
/// which [`crate::EntropyService::incidents`] exposes to callers.
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

/// A monotone deadline: construction pins the budget, and each retry
/// asks whether it has passed and how much is left.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn deadline_expires_and_reports_zero_remaining() {
        let deadline = Deadline::after(Duration::from_millis(20));
        assert!(!deadline.expired());
        thread::sleep(Duration::from_millis(25));
        assert!(deadline.expired());
        assert_eq!(deadline.remaining(), Duration::ZERO);
    }

    #[test]
    fn incident_labels_are_stable() {
        assert_eq!(IncidentKind::Panic.label(), "panic");
        assert_eq!(IncidentKind::Quarantined.label(), "quarantined");
        assert_eq!(IncidentKind::DrainTimedOut.label(), "drain_timed_out");
    }
}
