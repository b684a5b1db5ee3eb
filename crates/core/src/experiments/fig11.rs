//! Fig. 11 — IRO period jitter vs ring length: the sqrt(2L) law and the
//! extraction of the per-gate jitter `sigma_g`.

use std::fmt;

use strent_analysis::fit::{sqrt_law, SqrtFit};
use strent_analysis::jitter;
use strent_rings::{IroConfig, RingConfig};

use crate::calibration::{self, FIG11_LENGTHS};
use crate::report::{fmt_mhz, fmt_ps, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// One measured point of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Point {
    /// Ring length `k`.
    pub length: usize,
    /// Mean frequency, MHz.
    pub frequency_mhz: f64,
    /// Measured period jitter, ps.
    pub sigma_period_ps: f64,
    /// The per-point `sigma_g` back-computed via Eq. 7
    /// (`sigma_g = sigma_p / sqrt(2k)`).
    pub sigma_g_ps: f64,
}

/// The reproduced Fig. 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Result {
    /// Measured points in increasing length.
    pub points: Vec<Fig11Point>,
    /// The fitted `sigma_p = c sqrt(k)` law.
    pub fit: SqrtFit,
}

impl Fig11Result {
    /// The `sigma_g` extracted from the global fit
    /// (`c = sqrt(2) sigma_g`).
    #[must_use]
    pub fn fitted_sigma_g_ps(&self) -> f64 {
        self.fit.coefficient / std::f64::consts::SQRT_2
    }
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 11 — IRO period jitter vs number of stages")?;
        let mut table = Table::new(&["k", "F (MHz)", "sigma_p", "sigma_g (Eq. 7)"]);
        for p in &self.points {
            table.row_owned(vec![
                p.length.to_string(),
                fmt_mhz(p.frequency_mhz),
                fmt_ps(p.sigma_period_ps),
                fmt_ps(p.sigma_g_ps),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "sqrt-law fit: sigma_p = {:.3} * sqrt(k) (R^2 = {:.4}) -> sigma_g ~ {}",
            self.fit.coefficient,
            self.fit.r_squared,
            fmt_ps(self.fitted_sigma_g_ps())
        )
    }
}

/// Runs the Fig. 11 experiment on a caller-provided runner: each ring
/// length is one job of the `fig11` stage.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Fig11Result, ExperimentError> {
    let periods = runner.effort().size(1_500, 8_000);
    let board = calibration::default_board();
    // Every ring runs on the experiment seed, not its job seed: the
    // golden output depends on it.
    let seed = runner.seed();
    let points = runner.run_stage("fig11", &FIG11_LENGTHS, |job, meter| {
        let l = *job.config;
        let ring = RingConfig::Iro(IroConfig::new(l).expect("valid length"));
        let run = measure_ring(&ring, &board, seed, periods, meter)?;
        let sigma = jitter::period_jitter(&run.periods_ps)?;
        Ok(Fig11Point {
            length: l,
            frequency_mhz: run.frequency_mhz,
            sigma_period_ps: sigma,
            sigma_g_ps: sigma / (2.0 * l as f64).sqrt(),
        })
    })?;
    let k: Vec<f64> = points.iter().map(|p| p.length as f64).collect();
    let sigma: Vec<f64> = points.iter().map(|p| p.sigma_period_ps).collect();
    Ok(Fig11Result {
        fit: sqrt_law(&k, &sigma)?,
        points,
    })
}

/// Runs the Fig. 11 experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<Fig11Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_reproduces_the_sqrt_law() {
        let result = run(Effort::Quick, 5).expect("simulates");
        assert_eq!(result.points.len(), 8);
        // Jitter grows with length...
        assert!(result.points.last().expect("points").sigma_period_ps
            > 3.0 * result.points.first().expect("points").sigma_period_ps);
        // ...following the sqrt law tightly...
        assert!(result.fit.r_squared > 0.98, "R^2 {}", result.fit.r_squared);
        // ...and the extracted sigma_g matches the paper's ~2 ps.
        let sigma_g = result.fitted_sigma_g_ps();
        assert!((sigma_g - 2.0).abs() < 0.3, "sigma_g {sigma_g}");
        // Every per-point back-computation agrees too (Eq. 7).
        for p in &result.points {
            assert!((p.sigma_g_ps - 2.0).abs() < 0.5, "k={}: {}", p.length, p.sigma_g_ps);
        }
        let text = result.to_string();
        assert!(text.contains("Fig. 11"));
        assert!(text.contains("sqrt-law fit"));
    }
}
