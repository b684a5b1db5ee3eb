//! # strent-sim — deterministic discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation kernel for gate-level
//! timing studies. It was built as the substrate for reproducing
//! *"Comparison of Self-Timed Ring and Inverter Ring Oscillators as Entropy
//! Sources in FPGAs"* (Cherkaoui et al., DATE 2012), but is independent of
//! that paper: it knows about **time**, **events**, **nets**, **components**
//! and **waveform traces** — nothing about rings.
//!
//! ## Unit convention
//!
//! All simulation time is expressed in **picoseconds**. Absolute instants
//! are the [`Time`] newtype; durations, delays and jitter standard
//! deviations are plain `f64` picoseconds (documented at each use site).
//!
//! ## Determinism
//!
//! Given the same master seed and the same sequence of API calls, a
//! simulation run is bit-for-bit reproducible: the event queue breaks time
//! ties by insertion sequence number, and all randomness flows from a
//! [`rng::RngTree`] keyed by stable component identifiers.
//!
//! ## Example
//!
//! The smallest oscillator — an inverter closed on itself:
//!
//! ```
//! use strent_sim::{Simulator, Component, Context, Event, Bit, NetId};
//!
//! /// An inverting delay stage closed on itself: schedules `n = !n`
//! /// `delay` picoseconds after every transition of `n`.
//! struct LoopedInverter { net: NetId, delay: f64 }
//!
//! impl Component for LoopedInverter {
//!     fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
//!         if let Event::NetChanged { net, value } = *event {
//!             if net == self.net {
//!                 ctx.schedule_net(self.net, !value, self.delay);
//!             }
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), strent_sim::SimError> {
//! let mut sim = Simulator::new(42);
//! let n = sim.add_net("osc");
//! let inv = sim.add_component(LoopedInverter { net: n, delay: 100.0 });
//! sim.listen(n, inv)?;
//! sim.watch(n)?;
//! // Kick the loop: raise `osc` at t = 0.
//! sim.inject(n, Bit::High, 0.0)?;
//! sim.run_until(2_000.0.into());
//! // Period = 2 * 100 ps -> rising edges at 0, 200, ..., 2000 ps.
//! let edges = sim.trace(n).expect("watched").rising_edges();
//! assert_eq!(edges.len(), 11);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod lint;
pub mod process;
mod queue;
pub mod rng;
pub mod signal;
pub mod sweep;
pub mod time;
pub mod trace;
pub mod vcd;

pub use engine::{Component, ComponentId, Context, SimStats, Simulator};
pub use error::SimError;
pub use event::{Event, TimerTag};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultTarget};
pub use lint::{Diagnostic, LintCode, LintReport, Severity};
pub use process::Ar1Process;
pub use rng::{Normal, RngTree, SimRng};
pub use signal::{Bit, Edge, NetId};
pub use sweep::{
    FailureKind, JobFailure, JobMeter, ShardStats, SweepJob, SweepReport, SweepRunner,
    SweepStats,
};
pub use time::Time;
pub use trace::{Trace, TraceSet};
