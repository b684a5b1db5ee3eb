//! EXT-CHARLIE — ablation of the Charlie-effect magnitude.
//!
//! The Charlie effect is the paper's central mechanism: it locks the
//! evenly-spaced mode and regulates the token spacing. This ablation
//! sweeps `Dcharlie` on a 32-stage STR (everything else fixed) and
//! measures what the mechanism actually buys:
//!
//! * the **period** grows with `Dcharlie` (the spacing servo's price:
//!   `T = 4 (Ds + Dcharlie)` at `NT = NB`);
//! * the **period jitter** *falls* as `Dcharlie` grows: near `s = 0` the
//!   Charlie curve's flat bottom absorbs separation fluctuations, while
//!   at `Dcharlie = 0` the kinked `Ds + |s|` characteristic rectifies
//!   them into extra jitter — the paper's "variations are smoothed"
//!   argument (Sec. III-B), quantified;
//! * the evenly-spaced mode survives at every magnitude (the
//!   mean-referenced firing rule alone disperses clusters; cf. EXT-MODE
//!   where only *drafting* creates bursts).

use std::fmt;

use strent_analysis::jitter;
use strent_rings::mode::{classify_half_periods, OscillationMode};
use strent_rings::{RingConfig, StrConfig};

use crate::calibration;
use crate::report::{fmt_mhz, fmt_ps, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// The swept Charlie magnitudes, ps.
pub const CHARLIE_SWEEP_PS: [f64; 5] = [0.0, 16.0, 64.0, 128.0, 256.0];

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtCharliePoint {
    /// The Charlie magnitude, ps.
    pub charlie_ps: f64,
    /// Mean frequency, MHz.
    pub frequency_mhz: f64,
    /// Period jitter, ps.
    pub sigma_period_ps: f64,
    /// Detected oscillation mode.
    pub mode: OscillationMode,
}

/// The EXT-CHARLIE result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCharlieResult {
    /// One point per swept magnitude.
    pub points: Vec<ExtCharliePoint>,
}

impl fmt::Display for ExtCharlieResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-CHARLIE — Charlie-magnitude ablation on a 32-stage STR (NT = NB = 16)"
        )?;
        let mut table = Table::new(&["Dcharlie", "F (MHz)", "sigma_p", "mode"]);
        for p in &self.points {
            table.row_owned(vec![
                fmt_ps(p.charlie_ps),
                fmt_mhz(p.frequency_mhz),
                fmt_ps(p.sigma_period_ps),
                p.mode.to_string(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-CHARLIE ablation on a caller-provided runner: one
/// sharded job per swept Charlie magnitude.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtCharlieResult, ExperimentError> {
    let periods = runner.effort().size(2_000, 8_000);
    let board = calibration::default_board();
    let points = runner.run_stage("ext_charlie", &CHARLIE_SWEEP_PS, |job, meter| {
        let charlie = *job.config;
        let config = StrConfig::new(32, 16)
            .expect("valid counts")
            .with_charlie_ps(charlie)?;
        let run = measure_ring(&RingConfig::Str(config), &board, job.seed(), periods, meter)?;
        Ok(ExtCharliePoint {
            charlie_ps: charlie,
            frequency_mhz: run.frequency_mhz,
            sigma_period_ps: jitter::period_jitter(&run.periods_ps)?,
            mode: classify_half_periods(&run.half_periods_ps),
        })
    })?;
    Ok(ExtCharlieResult { points })
}

/// Runs the EXT-CHARLIE ablation.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtCharlieResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charlie_magnitude_trades_speed_for_jitter_smoothing() {
        let result = run(Effort::Quick, 23).expect("simulates");
        assert_eq!(result.points.len(), 5);
        // Frequency falls monotonically with Dcharlie (spacing price).
        for w in result.points.windows(2) {
            assert!(
                w[1].frequency_mhz < w[0].frequency_mhz,
                "frequency must fall: {} -> {}",
                w[0].frequency_mhz,
                w[1].frequency_mhz
            );
        }
        // Jitter at zero Charlie exceeds jitter at the calibrated 128 ps
        // (the rectified |s| kink vs the smooth bottom).
        let sigma_at = |c: f64| {
            result
                .points
                .iter()
                .find(|p| p.charlie_ps == c)
                .expect("swept")
                .sigma_period_ps
        };
        assert!(
            sigma_at(0.0) > 1.15 * sigma_at(128.0),
            "smoothing: sigma(0) {} vs sigma(128) {}",
            sigma_at(0.0),
            sigma_at(128.0)
        );
        // The evenly-spaced mode survives at every magnitude.
        for p in &result.points {
            assert_eq!(p.mode, OscillationMode::EvenlySpaced, "Dch = {}", p.charlie_ps);
        }
        let text = result.to_string();
        assert!(text.contains("EXT-CHARLIE"));
    }
}
