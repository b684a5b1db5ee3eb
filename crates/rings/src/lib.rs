//! # strent-rings — STR and IRO oscillator models
//!
//! The heart of the reproduction: structural, analytic and event-driven
//! models of the two oscillator families the paper compares.
//!
//! * [`state`] — the untimed token/bubble algebra of self-timed rings:
//!   initialization patterns, the propagation rule, conservation
//!   invariants (Sec. II of the paper);
//! * [`charlie`] — the Charlie-effect temporal model of a Muller-gate
//!   stage (Eq. 3), including the drafting effect and Charlie-diagram
//!   generation (Fig. 7);
//! * [`iro`] — inverter ring oscillators: event-driven simulation on
//!   [`strent_sim`] plus closed-form predictions (Eq. 4);
//! * [`str_ring`] — self-timed rings: event-driven simulation with the
//!   Charlie model (the paper's Sec. III), initialization from any token
//!   pattern;
//! * [`analytic`] — closed-form period/jitter predictions for both
//!   families (Eqs. 4 and 5, the `NT = NB` period formula);
//! * [`mode`] — oscillation-mode detection: evenly-spaced vs burst
//!   (Fig. 5) from simulated traces;
//! * [`ring`] — [`RingConfig`], the one STR-or-IRO type, and its
//!   verified build, the step every ring simulation goes through;
//! * [`measure`] — measurement runners that simulate a ring and
//!   return period series ready for `strent-analysis`;
//! * [`differential`] — paired-ring differential measurement: two
//!   matched rings share a global-jitter process (common-mode supply
//!   tone) while keeping private thermal seeds; subtracting their
//!   period series quantifies the common-mode rejection ratio;
//! * [`stream`] — long-running incremental sources for the serving
//!   layer: one ring kept alive indefinitely, advanced in batches, with
//!   trace pruning so memory stays bounded over uptime;
//! * [`surrogate`] — the calibrated O(1)-per-sample fast path for
//!   locked rings: a stochastic period model fitted from a short full
//!   run, plus the `FullSim`/`Surrogate` backend selector with
//!   automatic fallback near mode boundaries (see `docs/surrogate.md`);
//! * [`fault`] — fault-armed runners for degradation studies: fixed
//!   horizon, no oscillation requirement, supply droops applied at the
//!   device layer and everything else on the engine;
//! * [`lint`] — the ring-aware half of the `simlint` static verifier:
//!   oscillation conditions, token conservation, Eq. 1 burst-mode
//!   prediction and wiring checks, run on every ring the verified build
//!   step builds (see `docs/static_analysis.md`).
//!
//! ## Example: measure a 16-stage STR
//!
//! ```
//! use strent_device::{Board, Technology};
//! use strent_rings::{measure, RingConfig, StrConfig};
//!
//! let board = Board::new(Technology::cyclone_iii(), 0, 42);
//! let config = StrConfig::new(16, 8)?; // L = 16, NT = NB = 8
//! let run = measure::run(&RingConfig::Str(config.clone()), &board, 42, 200)?;
//! // The evenly-spaced STR oscillates near its analytic frequency.
//! let predicted = strent_rings::analytic::str_frequency_mhz(&config, &board);
//! assert!((run.frequency_mhz / predicted - 1.0).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod charlie;
pub mod differential;
pub mod divider;
pub mod error;
pub mod fault;
pub mod iro;
pub mod lint;
pub mod measure;
pub mod mode;
pub mod ring;
pub mod state;
pub mod str_ring;
pub mod stream;
pub mod surrogate;

pub use charlie::CharlieModel;
pub use error::RingError;
pub use iro::IroConfig;
pub use mode::OscillationMode;
pub use ring::{RingConfig, RingHandle};
pub use state::StrState;
pub use str_ring::StrConfig;
pub use stream::RingStream;
pub use surrogate::{Calibrator, EntropySource, SourceBackend, SurrogateModel, SurrogateStream};
