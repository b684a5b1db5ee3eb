//! Fig. 12 — STR period jitter vs ring length: flat in `L`, converging
//! to `sqrt(2) * sigma_g` (Eq. 5).

use std::fmt;

use strent_analysis::jitter;
use strent_analysis::stats::Summary;
use strent_rings::{analytic, RingConfig, StrConfig};

use crate::calibration::{self, FIG12_LENGTHS};
use crate::report::{fmt_mhz, fmt_ps, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// One measured point of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Point {
    /// Ring length `L` (with `NT = NB = L/2`).
    pub length: usize,
    /// Mean frequency, MHz.
    pub frequency_mhz: f64,
    /// Measured period jitter, ps.
    pub sigma_period_ps: f64,
}

/// The reproduced Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Result {
    /// Measured points in increasing length.
    pub points: Vec<Fig12Point>,
    /// Eq. 5's prediction `sqrt(2) * sigma_g`, ps.
    pub predicted_sigma_ps: f64,
}

impl Fig12Result {
    /// Mean measured jitter across lengths.
    #[must_use]
    pub fn mean_sigma_ps(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.sigma_period_ps)
            .collect::<Summary>()
            .mean()
    }

    /// The spread (max/min ratio) of the jitter across lengths — a
    /// direct "is it flat?" metric.
    #[must_use]
    pub fn flatness_ratio(&self) -> f64 {
        let max = self
            .points
            .iter()
            .map(|p| p.sigma_period_ps)
            .fold(f64::MIN, f64::max);
        let min = self
            .points
            .iter()
            .map(|p| p.sigma_period_ps)
            .fold(f64::MAX, f64::min);
        max / min
    }
}

impl fmt::Display for Fig12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 12 — STR period jitter vs number of stages")?;
        let mut table = Table::new(&["L", "F (MHz)", "sigma_p"]);
        for p in &self.points {
            table.row_owned(vec![
                p.length.to_string(),
                fmt_mhz(p.frequency_mhz),
                fmt_ps(p.sigma_period_ps),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "mean sigma_p = {} (Eq. 5 predicts sqrt(2)*sigma_g = {}), max/min = {:.2}",
            fmt_ps(self.mean_sigma_ps()),
            fmt_ps(self.predicted_sigma_ps),
            self.flatness_ratio()
        )
    }
}

/// Runs the Fig. 12 experiment on a caller-provided runner: each ring
/// length is one job of the `fig12` stage.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Fig12Result, ExperimentError> {
    let periods = runner.effort().size(1_500, 8_000);
    let board = calibration::default_board();
    // Every ring runs on the experiment seed, not its job seed: the
    // golden output depends on it.
    let seed = runner.seed();
    let points = runner.run_stage("fig12", &FIG12_LENGTHS, |job, meter| {
        let l = *job.config;
        let ring = RingConfig::Str(StrConfig::new(l, l / 2).expect("valid counts"));
        let run = measure_ring(&ring, &board, seed, periods, meter)?;
        Ok(Fig12Point {
            length: l,
            frequency_mhz: run.frequency_mhz,
            sigma_period_ps: jitter::period_jitter(&run.periods_ps)?,
        })
    })?;
    Ok(Fig12Result {
        predicted_sigma_ps: analytic::str_sigma_period_ps(&board),
        points,
    })
}

/// Runs the Fig. 12 experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<Fig12Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_jitter_is_flat_and_in_band() {
        let result = run(Effort::Quick, 5).expect("simulates");
        assert_eq!(result.points.len(), 8);
        // The paper's band: 2-4 ps for every length.
        for p in &result.points {
            assert!(
                (2.0..4.5).contains(&p.sigma_period_ps),
                "L={}: sigma {}",
                p.length,
                p.sigma_period_ps
            );
        }
        // Flat: a 24x length increase moves sigma by well under 50%.
        assert!(
            result.flatness_ratio() < 1.5,
            "flatness {}",
            result.flatness_ratio()
        );
        // Near Eq. 5's prediction (within the paper's own 2-4 ps spread
        // around sqrt(2)*sigma_g = 2.83 ps).
        let mean = result.mean_sigma_ps();
        assert!(
            (mean / result.predicted_sigma_ps) < 1.5 && (mean / result.predicted_sigma_ps) > 0.7,
            "mean {mean} vs predicted {}",
            result.predicted_sigma_ps
        );
        let text = result.to_string();
        assert!(text.contains("Fig. 12"));
        assert!(text.contains("Eq. 5"));
    }
}
