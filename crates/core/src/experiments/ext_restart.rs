//! EXT-RESTART — restart-based evidence that the harvested randomness
//! is *true* randomness (the evaluation technique of the authors'
//! follow-up work).
//!
//! Two campaigns:
//!
//! * **edge dispersion** (calibrated technology): the standard deviation
//!   across restarts of the `k`-th output edge time grows as `sqrt(k)` —
//!   phase diffusion from a known origin. Pseudo-randomness would give
//!   zero dispersion at every `k`.
//! * **entropy onset** (noisy-corner technology, `sigma_g` boosted so
//!   the transition fits in an affordable horizon): the output sampled
//!   at a fixed delay after restart is deterministic early and
//!   approaches a fair coin once the accumulated jitter spans the
//!   period.

use std::fmt;

use strent_analysis::fit::sqrt_law;
use strent_device::{Board, Technology};
use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_trng::restart;

use crate::calibration::{self, PAPER_SEED};
use crate::report::{fmt_ps, Table};

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// Edge-dispersion results for one source.
#[derive(Debug, Clone, PartialEq)]
pub struct DispersionRow {
    /// Display label.
    pub label: String,
    /// Probed edge indices.
    pub edge_indices: Vec<usize>,
    /// Dispersion across restarts at each index, ps.
    pub sigma_ps: Vec<f64>,
    /// R^2 of the `sigma = c sqrt(k)` fit.
    pub sqrt_fit_r2: f64,
}

/// The EXT-RESTART result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtRestartResult {
    /// Edge dispersion for IRO 5C and STR 16C.
    pub dispersion: Vec<DispersionRow>,
    /// Entropy-onset curve: `(delay in ring periods, across-restart
    /// bit entropy)` for the noisy-corner STR.
    pub entropy_onset: Vec<(f64, f64)>,
}

impl fmt::Display for ExtRestartResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXT-RESTART — restarts from an identical state")?;
        writeln!(f, "\nedge-time dispersion across restarts:")?;
        let mut table = Table::new(&["Ring", "k", "sigma(k)", "sqrt-fit R^2"]);
        for row in &self.dispersion {
            for (i, &k) in row.edge_indices.iter().enumerate() {
                table.row_owned(vec![
                    if i == 0 { row.label.clone() } else { String::new() },
                    k.to_string(),
                    fmt_ps(row.sigma_ps[i]),
                    if i == 0 {
                        format!("{:.4}", row.sqrt_fit_r2)
                    } else {
                        String::new()
                    },
                ]);
            }
        }
        write!(f, "{table}")?;
        writeln!(f, "\nentropy onset after restart (noisy-corner STR 8C):")?;
        let mut table = Table::new(&["delay (periods)", "H(bit) across restarts"]);
        for &(delay, h) in &self.entropy_onset {
            table.row_owned(vec![format!("{delay:.0}"), format!("{h:.3}")]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-RESTART experiment on a caller-provided runner: the two
/// dispersion campaigns and the entropy-onset campaign are three
/// independent jobs within one stage.
///
/// # Errors
///
/// Propagates simulation and fit errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtRestartResult, ExperimentError> {
    let restarts = runner.effort().size(48, 160);
    let board = calibration::default_board();
    let edge_indices = [4usize, 8, 16, 32, 64];

    // Entropy onset: noisy corner so the coin-flip transition is
    // reachable within a few hundred periods.
    let noisy = Board::new(
        Technology::cyclone_iii()
            .with_sigma_g_ps(60.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        PAPER_SEED,
    );
    let onset_source = RingConfig::Str(StrConfig::new(8, 4).expect("valid counts"));
    let period = onset_source.predicted_period_ps(&noisy);
    let delay_periods = [2.0, 8.0, 24.0, 60.0, 120.0, 240.0];
    let delays: Vec<f64> = delay_periods.iter().map(|&m| m * period).collect();

    enum Campaign {
        Dispersion(&'static str, RingConfig),
        Onset(RingConfig),
    }
    enum CampaignResult {
        Dispersion(DispersionRow),
        Onset(Vec<(f64, f64)>),
    }
    let campaigns = [
        Campaign::Dispersion(
            "IRO 5C",
            RingConfig::Iro(IroConfig::new(5).expect("valid length")),
        ),
        Campaign::Dispersion(
            "STR 16C",
            RingConfig::Str(StrConfig::new(16, 8).expect("valid counts")),
        ),
        Campaign::Onset(onset_source),
    ];
    let results = runner.run_stage("ext_restart", &campaigns, |job, _meter| {
        match job.config {
            Campaign::Dispersion(label, source) => {
                let outcome = restart::run(
                    source,
                    &board,
                    job.seed(),
                    restarts,
                    &[1_000.0],
                    &edge_indices,
                )?;
                let k: Vec<f64> = edge_indices.iter().map(|&k| k as f64).collect();
                let fit = sqrt_law(&k, &outcome.edge_sigma_ps)?;
                Ok(CampaignResult::Dispersion(DispersionRow {
                    label: (*label).to_owned(),
                    edge_indices: edge_indices.to_vec(),
                    sigma_ps: outcome.edge_sigma_ps,
                    sqrt_fit_r2: fit.r_squared,
                }))
            }
            Campaign::Onset(source) => {
                let outcome =
                    restart::run(source, &noisy, job.seed(), restarts, &delays, &[1])?;
                Ok(CampaignResult::Onset(
                    delay_periods
                        .iter()
                        .copied()
                        .zip(outcome.entropy_per_delay())
                        .collect(),
                ))
            }
        }
    })?;

    let mut dispersion = Vec::new();
    let mut entropy_onset = Vec::new();
    for result in results {
        match result {
            CampaignResult::Dispersion(row) => dispersion.push(row),
            CampaignResult::Onset(curve) => entropy_onset = curve,
        }
    }
    Ok(ExtRestartResult {
        dispersion,
        entropy_onset,
    })
}

/// Runs the EXT-RESTART experiment.
///
/// # Errors
///
/// Propagates simulation and fit errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtRestartResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restarts_show_true_randomness() {
        let result = run(Effort::Quick, 13).expect("simulates");
        // Edge dispersion follows the sqrt law for both sources.
        for row in &result.dispersion {
            assert!(row.sqrt_fit_r2 > 0.85, "{}: R^2 {}", row.label, row.sqrt_fit_r2);
            assert!(
                row.sigma_ps.last().expect("points") > &(2.0 * row.sigma_ps[0]),
                "{}: dispersion must grow",
                row.label
            );
        }
        // Entropy onset: deterministic early, cointoss-like late.
        let first = result.entropy_onset.first().expect("points").1;
        let last = result.entropy_onset.last().expect("points").1;
        assert!(first < 0.5, "early entropy {first}");
        assert!(last > 0.8, "late entropy {last}");
        // Monotone-ish growth (allowing small sampling wiggles).
        let hs: Vec<f64> = result.entropy_onset.iter().map(|&(_, h)| h).collect();
        assert!(hs.windows(2).filter(|w| w[1] + 0.15 < w[0]).count() <= 1);
        let text = result.to_string();
        assert!(text.contains("EXT-RESTART"));
    }
}
