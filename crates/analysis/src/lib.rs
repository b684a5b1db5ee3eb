//! # strent-analysis — jitter and frequency measurement toolkit
//!
//! The software counterpart of the paper's measurement bench (a LeCroy
//! WavePro 735 ZI and its statistics package): everything needed to turn a
//! series of edge timestamps or oscillation periods into the quantities
//! the paper reports.
//!
//! * [`stats`] — summary statistics (Welford), relative standard deviation;
//! * [`histogram`] — uniform-bin histograms (Fig. 9);
//! * [`special`] — special functions: `erf`, `ln_gamma`, incomplete gamma,
//!   normal quantile — the numeric substrate for p-values;
//! * [`normality`] — chi-square goodness-of-fit, Jarque–Bera and
//!   Anderson–Darling normality tests;
//! * [`fit`] — least-squares fits: linear, `c*sqrt(x)` (Fig. 11's jitter
//!   accumulation law) and the Charlie-diagram hyperbola;
//! * [`jitter`] — period jitter, cycle-to-cycle jitter, accumulated jitter;
//! * [`entropy`] — the bit-pattern model: min-entropy lower bounds as a
//!   function of the sampling ratio `sigma/T`;
//! * [`markov`] — order-`k` Markov min-entropy estimation over delivered
//!   bitstreams, with small-sample confidence haircuts;
//! * [`divider`] — the paper's on-chip measurement method (Eq. 6):
//!   estimate `sigma_p` from the cycle-to-cycle jitter of a divided clock;
//! * [`allan`] — Allan variance of period series;
//! * [`spectrum`] — periodograms and single-tone (Goertzel) power, for
//!   spotting attack-injected spectral lines;
//! * [`frequency`] — frequency, normalized excursion (`dF`, Table I) and
//!   extra-device relative sigma (`sigma_rel`, Table II).
//!
//! This crate is deliberately dependency-free (only `serde` for data
//! types) and knows nothing about rings or simulators: it consumes plain
//! `&[f64]` series.
//!
//! ## Example
//!
//! ```
//! use strent_analysis::{jitter, stats::Summary};
//!
//! // Periods of a jittery 300 MHz clock, in ps.
//! let periods = [3333.0, 3335.5, 3331.2, 3334.1, 3332.8, 3333.9];
//! let summary = Summary::from_slice(&periods);
//! let sigma_period = jitter::period_jitter(&periods)?;
//! assert!((summary.mean() - 3333.4).abs() < 1.0);
//! assert!(sigma_period > 0.0);
//! # Ok::<(), strent_analysis::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allan;
pub mod divider;
pub mod entropy;
pub mod error;
pub mod fit;
pub mod frequency;
pub mod histogram;
pub mod jitter;
pub mod markov;
pub mod normality;
pub mod special;
pub mod spectrum;
pub mod stats;

pub use error::AnalysisError;
pub use histogram::Histogram;
pub use stats::Summary;
