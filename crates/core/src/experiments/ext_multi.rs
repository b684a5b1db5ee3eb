//! EXT-MULTI — the multi-phase STR TRNG (the paper's future work).
//!
//! The paper closes with "each ring stage can be considered as an
//! independent entropy source" and announces a robust STR-based TRNG as
//! future work; the authors' follow-up design samples every stage
//! output with one reference clock and XORs the samples. This
//! experiment quantifies the payoff: entropy per bit at a *fast*
//! reference (high throughput) for the single-phase baseline vs the
//! multi-phase combiner, across ring lengths.

use std::fmt;

use strent_device::{Board, Technology};
use strent_rings::StrConfig;
use strent_trng::entropy;
use strent_trng::multiphase::MultiphaseTrng;

use crate::calibration::PAPER_SEED;
use crate::report::{fmt_ps, Table};

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// One ring-length row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtMultiRow {
    /// Ring length `L` (with `NT = NB = L/2`).
    pub length: usize,
    /// The ring's phase resolution `T / (2L)`, ps.
    pub phase_resolution_ps: f64,
    /// Markov entropy of the single-phase stream.
    pub single_phase_entropy: f64,
    /// Markov entropy of the XOR-of-all-phases stream.
    pub multiphase_entropy: f64,
}

/// The EXT-MULTI result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtMultiResult {
    /// One row per ring length.
    pub rows: Vec<ExtMultiRow>,
    /// Reference period used, in ring periods.
    pub reference_periods: f64,
}

impl fmt::Display for ExtMultiResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-MULTI — multi-phase STR TRNG at a fast reference ({} ring periods per bit)",
            self.reference_periods
        )?;
        let mut table = Table::new(&[
            "L",
            "phase res.",
            "H single-phase",
            "H multi-phase",
            "gain",
        ]);
        for row in &self.rows {
            table.row_owned(vec![
                row.length.to_string(),
                fmt_ps(row.phase_resolution_ps),
                format!("{:.3}", row.single_phase_entropy),
                format!("{:.3}", row.multiphase_entropy),
                format!(
                    "{:+.3}",
                    row.multiphase_entropy - row.single_phase_entropy
                ),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-MULTI experiment on a caller-provided runner: one
/// sharded job per ring length.
///
/// # Errors
///
/// Propagates simulation and entropy-estimation errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtMultiResult, ExperimentError> {
    let bits = runner.effort().size(1_200, 4_000);
    let reference_periods = 4.0;
    // Noisy-corner technology: the entropy transition must be visible
    // at a simulable reference rate (see DESIGN.md §5 on scaling).
    let tech = Technology::cyclone_iii()
        .with_sigma_g_ps(40.0)
        .with_sigma_intra(0.0)
        .with_sigma_inter(0.0);
    let board = Board::new(tech, 0, PAPER_SEED);
    let rows = runner.run_stage("ext_multi", &[8usize, 16, 32], |job, _meter| {
        let l = *job.config;
        let config = StrConfig::new(l, l / 2).expect("valid counts");
        let period = strent_rings::analytic::str_period_general_ps(&config, &board);
        let trng = MultiphaseTrng::new(config, reference_periods * period, 0.0)?;
        // Both arms sample the same ring run, so they share one seed.
        let multi = trng.generate(&board, job.seed(), bits)?;
        let single = trng.generate_single_phase(&board, job.seed(), bits)?;
        Ok(ExtMultiRow {
            length: l,
            phase_resolution_ps: trng.phase_resolution_ps(&board),
            single_phase_entropy: entropy::markov_entropy(&single)?,
            multiphase_entropy: entropy::markov_entropy(&multi)?,
        })
    })?;
    Ok(ExtMultiResult {
        rows,
        reference_periods,
    })
}

/// Runs the EXT-MULTI experiment.
///
/// # Errors
///
/// Propagates simulation and entropy-estimation errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtMultiResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiphase_gains_entropy_at_every_length() {
        let result = run(Effort::Quick, 21).expect("simulates");
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(
                row.multiphase_entropy > row.single_phase_entropy + 0.05,
                "L={}: multi {} vs single {}",
                row.length,
                row.multiphase_entropy,
                row.single_phase_entropy
            );
        }
        // Longer rings refine the phase resolution.
        assert!(
            result.rows[2].phase_resolution_ps < result.rows[0].phase_resolution_ps,
            "resolution should shrink with L"
        );
        // And the longest ring achieves solid per-bit entropy at a
        // reference only 4 periods long.
        assert!(
            result.rows[2].multiphase_entropy > 0.7,
            "L=32 multi entropy {}",
            result.rows[2].multiphase_entropy
        );
        let text = result.to_string();
        assert!(text.contains("EXT-MULTI"));
    }
}
