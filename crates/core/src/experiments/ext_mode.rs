//! EXT-MODE — a map of the oscillation mode over the (Charlie magnitude,
//! drafting magnitude) plane, connecting the paper's Sec. II-D narrative
//! to its references \[3\] (Winstanley: drafting drives bursts) and \[4\]
//! (Hamon: the Charlie effect locks the evenly-spaced mode).

use std::fmt;

use strent_device::{Board, Technology};
use strent_rings::mode::{classify_half_periods, OscillationMode};
use strent_rings::str_ring::TokenLayout;
use strent_rings::{measure, RingError, StrConfig};

use crate::calibration::PAPER_SEED;

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// The probed Charlie magnitudes, ps.
pub const CHARLIE_GRID_PS: [f64; 5] = [0.0, 2.0, 5.0, 15.0, 40.0];

/// The probed drafting magnitudes, ps.
pub const DRAFTING_GRID_PS: [f64; 5] = [0.0, 5.0, 10.0, 20.0, 40.0];

/// The mode map.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtModeResult {
    /// `cells[i][j]` is the mode at `CHARLIE_GRID_PS[i]`,
    /// `DRAFTING_GRID_PS[j]`.
    pub cells: Vec<Vec<OscillationMode>>,
}

impl ExtModeResult {
    /// The mode at grid position `(charlie_index, drafting_index)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn mode_at(&self, charlie_index: usize, drafting_index: usize) -> OscillationMode {
        self.cells[charlie_index][drafting_index]
    }

    /// Number of burst cells in the map.
    #[must_use]
    pub fn burst_count(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|&&m| m == OscillationMode::Burst)
            .count()
    }
}

impl fmt::Display for ExtModeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-MODE — oscillation mode of a 16-stage STR (NT = 6, clustered start)"
        )?;
        writeln!(f, "rows: Dcharlie (ps); columns: drafting (ps)")?;
        write!(f, "{:>10}", "")?;
        for d in DRAFTING_GRID_PS {
            write!(f, "{d:>8.0}")?;
        }
        writeln!(f)?;
        for (i, &c) in CHARLIE_GRID_PS.iter().enumerate() {
            write!(f, "{c:>10.0}")?;
            for cell in &self.cells[i] {
                let symbol = match cell {
                    OscillationMode::EvenlySpaced => "even",
                    OscillationMode::Burst => "BURST",
                    OscillationMode::Dead => "dead",
                };
                write!(f, "{symbol:>8}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Runs the EXT-MODE experiment on a caller-provided runner: the 5x5
/// (Charlie, drafting) grid is flattened into one job per cell.
///
/// # Errors
///
/// Propagates ring simulation errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtModeResult, ExperimentError> {
    let periods = runner.effort().size(250, 800);
    let base = Technology::asic_like()
        .with_sigma_intra(0.0)
        .with_sigma_inter(0.0);
    let grid: Vec<(f64, f64)> = CHARLIE_GRID_PS
        .iter()
        .flat_map(|&c| DRAFTING_GRID_PS.iter().map(move |&d| (c, d)))
        .collect();
    let modes = runner.run_stage("ext_mode", &grid, |job, meter| {
        let (charlie, drafting) = *job.config;
        let tech = base
            .clone()
            .with_charlie_delay_ps(charlie)
            .with_drafting_delay_ps(drafting);
        let board = Board::new(tech, 0, PAPER_SEED);
        let config = StrConfig::new(16, 6)
            .expect("valid counts")
            .with_layout(TokenLayout::Clustered);
        let mode = match measure::run_str_full(&config, &board, job.seed(), periods) {
            Ok(full) => {
                meter.record_sim(full.run.stats);
                classify_half_periods(&full.run.half_periods_ps)
            }
            Err(error) => dead_or(error)?,
        };
        Ok(mode)
    })?;
    let cells = modes
        .chunks(DRAFTING_GRID_PS.len())
        .map(<[OscillationMode]>::to_vec)
        .collect();
    Ok(ExtModeResult { cells })
}

/// A ring that stops short of its edges is a dead cell; any other
/// failure (a simulator fault, a lint rejection) is an error.
fn dead_or(error: RingError) -> Result<OscillationMode, RingError> {
    match error {
        RingError::NotOscillating { .. } => Ok(OscillationMode::Dead),
        other => Err(other),
    }
}

/// Runs the EXT-MODE experiment.
///
/// # Errors
///
/// Propagates ring simulation errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtModeResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_ring_short_of_edges_is_dead() {
        let short = RingError::NotOscillating {
            observed_transitions: 3,
        };
        assert_eq!(dead_or(short), Ok(OscillationMode::Dead));
        let rejected = RingError::Lint(Vec::new());
        assert_eq!(dead_or(rejected.clone()), Err(rejected));
    }

    #[test]
    fn mode_map_matches_the_literature() {
        let result = run(Effort::Quick, 3).expect("simulates");
        assert_eq!(result.cells.len(), 5);
        // No drafting -> the Charlie mean-referencing always locks the
        // evenly-spaced mode (Hamon), whatever the Charlie magnitude.
        for (i, &dch) in CHARLIE_GRID_PS.iter().enumerate() {
            assert_eq!(
                result.mode_at(i, 0),
                OscillationMode::EvenlySpaced,
                "Dch={dch} with no drafting"
            );
        }
        // Strong drafting with a weak Charlie effect -> burst
        // (Winstanley's mechanism).
        assert_eq!(result.mode_at(0, 4), OscillationMode::Burst);
        // A strong Charlie effect suppresses bursts even under strong
        // drafting.
        assert_eq!(result.mode_at(4, 1), OscillationMode::EvenlySpaced);
        // The map contains both regimes.
        assert!(result.burst_count() >= 2);
        assert!(result.burst_count() <= 15);
        let text = result.to_string();
        assert!(text.contains("BURST"));
        assert!(text.contains("even"));
    }
}
