//! # strent-serve — health-gated entropy as a service
//!
//! The experiment layer answers "which oscillator is the better entropy
//! source?"; this crate asks the follow-on production question: what
//! does it take to *serve* bytes from a pool of such sources, with the
//! SP 800-90B continuous health tests standing between the rings and
//! every consumer?
//!
//! * [`source`] — one pool slot: a live [`RingStream`] + sampler +
//!   conditioner + [`HealthMonitor`], with the quarantine → drain →
//!   re-lock → (readmit | replace) lifecycle;
//! * [`estimator`] — the per-source sliding-window Markov min-entropy
//!   estimator scoring the *delivered* bits online; its verdicts ride
//!   on every chunk and drive the pool's weighted consumption and the
//!   frontend's entropy gauges (see `docs/entropy_estimation.md`);
//! * [`pool`] — N sources produced by W worker threads, consumed in a
//!   deterministic round-robin interleave so the served stream is
//!   independent of W (the `SweepRunner` determinism contract, applied
//!   to a service); a pool can also run as one shard's partition of the
//!   global slot set, and fair mode may weight its consumption by the
//!   online entropy estimates ([`ConsumptionPolicy`]);
//! * [`scheduler`] — the request scheduler: one shard type serving
//!   both modes. Deterministic mode is one shard behind a round barrier
//!   (reproducible byte allocation across clients, bit-identical at
//!   every shard count); fair mode is one shard per core (deficit
//!   round-robin with work stealing behind a per-shard in-flight
//!   budget, whose one typed refusal is [`ServeError::Busy`]);
//! * [`wire`] — the length-prefixed frame codec of the socket protocol,
//!   blocking and incremental (nonblocking) flavors;
//! * [`sys`] — the one-syscall FFI shim (`poll(2)`) the event loops
//!   multiplex on;
//! * [`server`] — the Unix-domain-socket frontend: a single-threaded,
//!   readiness-driven event loop (no thread per connection);
//! * [`mux`] — the multiplexed closed/open-loop load-generation client.
//!
//! A serving thread fails one way. A pool worker's failure ends its
//! slots with a typed [`ServeError::SourceFailed`], and a scheduler
//! shard whose loop panics, or whose pool read returns that error, is
//! quarantined at once (quarantine → refuse its queue typed → reroute
//! new clients). [`EntropyService::quarantined`] is the record of a
//! failed shard. A test drives the panic path by queueing a
//! [`ChaosAction`] (panic or stall) into a live shard with
//! [`EntropyService::inject`].
//!
//! See `docs/serving.md` for the architecture and the determinism
//! contract, and `BENCH_serve.json` (emitted by the `serve_load` bench)
//! for throughput and latency numbers.
//!
//! Unsafe code policy: the crate contains exactly one `unsafe` block —
//! the `poll(2)` call in [`sys`] — with a `// SAFETY:` justification
//! audited by simlint rule SL105.
//!
//! [`RingStream`]: strent_rings::stream::RingStream
//! [`HealthMonitor`]: strent_trng::HealthMonitor

#![warn(missing_docs)]

pub mod error;
pub mod estimator;
pub mod mux;
pub mod pool;
pub mod scheduler;
pub mod server;
pub mod source;
pub mod sys;
pub mod wire;

pub use error::ServeError;
pub use estimator::RateEstimator;
pub use pool::{ConsumptionPolicy, PoolChunk, SourcePool, SourceStatus};
pub use scheduler::{
    ChaosAction, CompletionQueue, Connector, EntropyClient, EntropyService, SchedulerMode,
    ServeConfig,
};
pub use server::{ServerStats, UdsClient, UdsServer};
pub use source::PooledSource;
