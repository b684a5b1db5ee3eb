//! Fig. 9 — period jitter histograms for a 96-stage STR and a 5-stage
//! IRO at similar frequencies (~300 MHz), with Gaussian fits and
//! normality verdicts.

use std::fmt;

use strent_analysis::normality::{anderson_darling, chi_square_gof, jarque_bera, TestResult};
use strent_analysis::{jitter, Histogram, Summary};
use strent_rings::{IroConfig, RingConfig, StrConfig};

use crate::calibration;
use crate::report::fmt_ps;

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// The histogram panel for one ring.
#[derive(Debug, Clone, PartialEq)]
pub struct JitterHistogram {
    /// Display label.
    pub label: String,
    /// Mean frequency, MHz.
    pub frequency_mhz: f64,
    /// Mean period, ps.
    pub mean_period_ps: f64,
    /// Period jitter `sigma_period`, ps.
    pub sigma_period_ps: f64,
    /// The period histogram.
    pub histogram: Histogram,
    /// Chi-square goodness-of-fit against the fitted normal.
    pub chi_square: TestResult,
    /// Jarque–Bera verdict.
    pub jarque_bera: TestResult,
    /// Anderson–Darling verdict.
    pub anderson_darling: TestResult,
}

impl JitterHistogram {
    fn from_periods(label: &str, periods: &[f64]) -> Result<Self, ExperimentError> {
        let summary = Summary::from_slice(periods);
        Ok(JitterHistogram {
            label: label.to_owned(),
            frequency_mhz: 1e6 / summary.mean(),
            mean_period_ps: summary.mean(),
            sigma_period_ps: jitter::period_jitter(periods)?,
            histogram: Histogram::from_data(periods, 40)?,
            chi_square: chi_square_gof(periods, 40)?,
            jarque_bera: jarque_bera(periods)?,
            anderson_darling: anderson_darling(periods)?,
        })
    }

    /// Whether all three normality tests pass at the given significance.
    #[must_use]
    pub fn is_gaussian(&self, alpha: f64) -> bool {
        self.chi_square.passes(alpha)
            && self.jarque_bera.passes(alpha)
            && self.anderson_darling.passes(alpha)
    }
}

/// The two panels of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// Panel (a): the 96-stage STR.
    pub str_panel: JitterHistogram,
    /// Panel (b): the 5-stage IRO.
    pub iro_panel: JitterHistogram,
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9 — period jitter histograms")?;
        for panel in [&self.str_panel, &self.iro_panel] {
            writeln!(
                f,
                "\n({}) F = {:.1} MHz, T = {}, sigma_period = {}",
                panel.label,
                panel.frequency_mhz,
                fmt_ps(panel.mean_period_ps),
                fmt_ps(panel.sigma_period_ps)
            )?;
            writeln!(
                f,
                "normality: chi2 p={:.3}, JB p={:.3}, AD p={:.3} -> {}",
                panel.chi_square.p_value,
                panel.jarque_bera.p_value,
                panel.anderson_darling.p_value,
                if panel.is_gaussian(0.01) {
                    "GAUSSIAN"
                } else {
                    "NOT GAUSSIAN"
                }
            )?;
            write!(f, "{}", panel.histogram.to_ascii(48))?;
        }
        Ok(())
    }
}

/// Runs the Fig. 9 experiment on a caller-provided runner: each ring
/// is one job of the `fig9` stage and builds its own panel.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Fig9Result, ExperimentError> {
    let periods = runner.effort().size(3_000, 20_000);
    let board = calibration::default_board();
    let rings = [
        (
            "96-stage STR",
            RingConfig::Str(StrConfig::new(96, 48).expect("valid counts")),
        ),
        (
            "5-stage IRO",
            RingConfig::Iro(IroConfig::new(5).expect("valid length")),
        ),
    ];
    // Both rings run on the experiment seed, not their job seeds: the
    // golden output depends on it.
    let seed = runner.seed();
    let panels = runner.run_stage("fig9", &rings, |job, meter| {
        let (label, ring) = job.config;
        let run = measure_ring(ring, &board, seed, periods, meter)?;
        JitterHistogram::from_periods(label, &run.periods_ps)
    })?;
    let [str_panel, iro_panel]: [JitterHistogram; 2] =
        panels.try_into().expect("one panel per ring");
    Ok(Fig9Result {
        str_panel,
        iro_panel,
    })
}

/// Runs the Fig. 9 experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<Fig9Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_both_panels_are_gaussian() {
        let result = run(Effort::Quick, 3).expect("simulates");
        // Both rings sit in the ~300-400 MHz region like the paper's.
        assert!((250.0..450.0).contains(&result.str_panel.frequency_mhz));
        assert!((250.0..450.0).contains(&result.iro_panel.frequency_mhz));
        // Jitter magnitudes: STR in the 2-4 ps band, IRO near
        // sqrt(10)*2 ~ 6.3 ps.
        assert!(
            (2.0..4.5).contains(&result.str_panel.sigma_period_ps),
            "STR sigma {}",
            result.str_panel.sigma_period_ps
        );
        assert!(
            (5.0..8.0).contains(&result.iro_panel.sigma_period_ps),
            "IRO sigma {}",
            result.iro_panel.sigma_period_ps
        );
        // The paper's observation: both histograms are Gaussian.
        assert!(result.str_panel.is_gaussian(0.001));
        assert!(result.iro_panel.is_gaussian(0.001));
        // Histograms hold every period.
        assert_eq!(result.str_panel.histogram.total(), 3_000);

        let text = result.to_string();
        assert!(text.contains("GAUSSIAN"));
        assert!(text.contains("96-stage STR"));
    }
}
