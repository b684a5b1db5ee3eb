//! # strentropy — STR vs IRO entropy sources in FPGAs
//!
//! A from-scratch reproduction of **"Comparison of Self-Timed Ring and
//! Inverter Ring Oscillators as Entropy Sources in FPGAs"** (Cherkaoui,
//! Fischer, Aubert, Fesquet — DATE 2012), built on a discrete-event
//! timing simulator instead of Cyclone III silicon.
//!
//! This crate is the facade: it re-exports the substrate crates and adds
//! the **experiment layer** — one module per table/figure of the paper,
//! each of which regenerates the corresponding result:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::fig5`]  | Fig. 5 — burst vs evenly-spaced modes |
//! | [`experiments::fig7`]  | Fig. 7 — the Charlie diagram |
//! | [`experiments::fig8`]  | Fig. 8 — normalized frequency vs voltage |
//! | [`experiments::table1`]| Table I — normalized frequency excursions |
//! | [`experiments::table2`]| Table II — extra-device `sigma_rel` |
//! | [`experiments::fig9`]  | Fig. 9 — period jitter histograms |
//! | [`experiments::fig11`] | Fig. 11 — IRO jitter vs ring length |
//! | [`experiments::fig12`] | Fig. 12 — STR jitter vs ring length |
//! | [`experiments::obs_a`] | Sec. V-A — evenly-spaced locking range |
//! | [`experiments::ext_det`] | Sec. IV-B — deterministic jitter accumulation |
//! | [`experiments::ext_method`] | Sec. V-D.2 — divider method validation |
//! | [`experiments::ext_trng`] | Conclusion — TRNG robustness under attack |
//! | [`experiments::ext_mode`] | refs \[3\],\[4\] — mode map over (Charlie, drafting) |
//! | [`experiments::ext_charlie`] | Sec. III-B ablation — Charlie magnitude sweep |
//! | [`experiments::ext_flicker`] | model extension — 1/f-like delay noise |
//! | [`experiments::ext_restart`] | restart-based true-randomness certification |
//! | [`experiments::ext_multi`] | future work — the multi-phase STR TRNG |
//! | [`experiments::ext_coherent`] | ref \[7\] — coherent sampling across devices |
//! | [`experiments::degradation`] | SP 800-90B §4.4 — fault injection vs online health tests |
//!
//! ## Quickstart
//!
//! ```
//! use strentropy::prelude::*;
//!
//! // One simulated Cyclone III board...
//! let board = Board::new(Technology::cyclone_iii(), 0, 42);
//! // ...carrying a 96-stage self-timed ring with NT = NB = 48.
//! let config = RingConfig::Str(StrConfig::new(96, 48)?);
//! let run = measure::run(&config, &board, 7, 200)?;
//! // The paper's Table II reports ~320-328 MHz for this ring.
//! assert!((300.0..350.0).contains(&run.frequency_mhz));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod experiments;
pub mod pool;
pub mod report;

pub use strent_analysis as analysis;
pub use strent_device as device;
pub use strent_rings as rings;
pub use strent_sim as sim;
pub use strent_trng as trng;

pub use experiments::{Effort, ExperimentError};

/// The convenient single import for experiment code.
pub mod prelude {
    pub use strent_analysis::{frequency, jitter, stats, Histogram, Summary};
    pub use strent_device::{Board, BoardFarm, Supply, Technology};
    pub use strent_rings::{
        analytic, measure, mode, IroConfig, OscillationMode, RingConfig, StrConfig, StrState,
    };
    pub use strent_sim::{Bit, Simulator, Time};
    pub use strent_trng::{battery, entropy, postprocess, BitString};

    pub use crate::calibration;
    pub use crate::experiments::{self, Effort};
    pub use crate::pool::{PoolConfig, RingSpec, SourceSpec, SourceState};
    pub use crate::report::Table;
}
