//! Error type of the serving layer.

use std::error::Error;
use std::fmt;

use strent_rings::RingError;
use strent_trng::TrngError;
use strentropy::ExperimentError;

/// Errors reported by the entropy service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The pool configuration failed validation.
    Config(ExperimentError),
    /// A ring simulation inside a source failed.
    Ring(RingError),
    /// Sampling or conditioning failed.
    Trng(TrngError),
    /// The request was rejected because the shard's in-flight budget is
    /// exhausted — the mildest typed backpressure class. Clients retry
    /// later.
    Busy {
        /// Requests already queued when the rejection was issued.
        in_flight: usize,
    },
    /// The request was rejected because the client's token bucket is
    /// empty — the per-client rate limit, not service load. Retry after
    /// the indicated delay.
    RateLimited {
        /// Microseconds until the bucket holds enough tokens for the
        /// rejected request.
        retry_after_us: u64,
    },
    /// The request was rejected because the whole service is over its
    /// global queue watermark — overload shedding, the most severe
    /// backpressure class. Back off substantially.
    Shedding {
        /// Requests queued service-wide when the rejection was issued.
        queued: usize,
    },
    /// The socket frontend failed to accept or register a connection.
    /// Carried by [`ServerStats`](crate::server::ServerStats) counters
    /// and surfaced to the peer as a typed `ERR` frame instead of the
    /// old silent drop.
    Accept(std::io::Error),
    /// The service (or a pool worker) is shutting down; no more bytes
    /// will be produced.
    Shutdown,
    /// The service is draining for a graceful shutdown: queued grants
    /// are still being served, but no new request is admitted. A typed
    /// refusal, distinct from [`ServeError::Shutdown`] so clients can
    /// fail over instead of retrying.
    Draining,
    /// A pool source stopped producing (its worker died, the source
    /// hit an unrecoverable simulator error, or it discarded
    /// `max_relock_windows` batches in a row without delivering one).
    SourceFailed {
        /// Pool index of the failed source.
        source: usize,
    },
    /// Waited too long on a source or on the scheduler.
    Timeout,
    /// A malformed frame or protocol-order violation on the wire.
    Protocol(String),
    /// An I/O error on the socket transport.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid pool configuration: {e}"),
            ServeError::Ring(e) => write!(f, "source simulation failed: {e}"),
            ServeError::Trng(e) => write!(f, "sampling/conditioning failed: {e}"),
            ServeError::Busy { in_flight } => {
                write!(f, "busy: {in_flight} requests already in flight")
            }
            ServeError::RateLimited { retry_after_us } => {
                write!(f, "rate limited: retry in {retry_after_us} us")
            }
            ServeError::Shedding { queued } => {
                write!(f, "shedding load: {queued} requests queued service-wide")
            }
            ServeError::Accept(e) => write!(f, "frontend accept/register failed: {e}"),
            ServeError::Shutdown => write!(f, "service is shutting down"),
            ServeError::Draining => {
                write!(f, "service is draining; new requests are refused")
            }
            ServeError::SourceFailed { source } => {
                write!(f, "pool source {source} stopped producing")
            }
            ServeError::Timeout => write!(f, "timed out waiting for entropy"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Config(e) => Some(e),
            ServeError::Ring(e) => Some(e),
            ServeError::Trng(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Accept(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExperimentError> for ServeError {
    fn from(e: ExperimentError) -> Self {
        ServeError::Config(e)
    }
}

impl From<RingError> for ServeError {
    fn from(e: RingError) -> Self {
        ServeError::Ring(e)
    }
}

impl From<TrngError> for ServeError {
    fn from(e: TrngError) -> Self {
        ServeError::Trng(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The three typed backpressure classes a request can be rejected
/// with, ordered by severity. A rejection is a *reply*, never a stalled
/// socket; the class tells the client how to react.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackpressureClass {
    /// Shard in-flight budget exhausted — retry shortly.
    Busy,
    /// Per-client token bucket empty — wait out the advertised delay.
    RateLimited,
    /// Service-wide overload — back off substantially.
    Shedding,
}

impl ServeError {
    /// Whether this is the in-flight-budget backpressure rejection.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        matches!(self, ServeError::Busy { .. })
    }

    /// The backpressure class, if this error is a typed rejection
    /// rather than a failure.
    #[must_use]
    pub fn backpressure(&self) -> Option<BackpressureClass> {
        match self {
            ServeError::Busy { .. } => Some(BackpressureClass::Busy),
            ServeError::RateLimited { .. } => Some(BackpressureClass::RateLimited),
            ServeError::Shedding { .. } => Some(BackpressureClass::Shedding),
            _ => None,
        }
    }
}
