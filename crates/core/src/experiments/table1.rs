//! Table I — normalized frequency excursions `dF` over the 0.4 V sweep,
//! for IRO {5, 25, 80}C and STR {4, 24, 48, 64, 96}C.

use std::fmt;

use strent_analysis::frequency::{normalize_sweep, SweepPoint};
use strent_device::Supply;
use strent_rings::{IroConfig, RingConfig, StrConfig};

use crate::calibration::{self, NOMINAL_VOLTS, SWEEP_VOLTS, TABLE1_IRO_LENGTHS, TABLE1_STR_LENGTHS};
use crate::report::{fmt_mhz, fmt_percent, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Display label ("IRO 5C"...).
    pub label: String,
    /// Frequency at the nominal voltage, MHz.
    pub f_nominal_mhz: f64,
    /// The normalized excursion `dF` as a fraction.
    pub excursion: f64,
}

/// The reproduced Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// All rows, IROs first then STRs, in increasing length order.
    pub rows: Vec<Table1Row>,
}

impl Table1Result {
    /// Looks up a row by label.
    #[must_use]
    pub fn row(&self, label: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The STR rows in length order.
    #[must_use]
    pub fn str_rows(&self) -> Vec<&Table1Row> {
        self.rows
            .iter()
            .filter(|r| r.label.starts_with("STR"))
            .collect()
    }

    /// The IRO rows in length order.
    #[must_use]
    pub fn iro_rows(&self) -> Vec<&Table1Row> {
        self.rows
            .iter()
            .filter(|r| r.label.starts_with("IRO"))
            .collect()
    }
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I — normalized frequency excursions for a 0.4 V sweep"
        )?;
        let mut table = Table::new(&["Ring", "Fn (MHz)", "dF"]);
        for row in &self.rows {
            table.row_owned(vec![
                row.label.clone(),
                fmt_mhz(row.f_nominal_mhz),
                fmt_percent(row.excursion),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the Table I experiment on a caller-provided runner: one sharded
/// job per (ring, voltage) point of the 8x9 grid.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Table1Result, ExperimentError> {
    let periods = runner.effort().size(100, 300);
    let base = calibration::default_board();

    let specs: Vec<(String, RingConfig)> = TABLE1_IRO_LENGTHS
        .iter()
        .map(|&l| {
            (
                format!("IRO {l}C"),
                RingConfig::Iro(IroConfig::new(l).expect("valid length")),
            )
        })
        .chain(TABLE1_STR_LENGTHS.iter().map(|&l| {
            (
                format!("STR {l}C"),
                RingConfig::Str(StrConfig::new(l, l / 2).expect("valid counts")),
            )
        }))
        .collect();
    let jobs: Vec<(usize, f64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(ri, _)| SWEEP_VOLTS.iter().map(move |&v| (ri, v)))
        .collect();

    let freqs = runner.run_stage("table1", &jobs, |job, meter| {
        let (ri, v) = *job.config;
        let mut board = base.clone();
        board.set_supply(Supply::dc(v));
        Ok(measure_ring(&specs[ri].1, &board, job.seed(), periods, meter)?.frequency_mhz)
    })?;

    let mut rows = Vec::with_capacity(specs.len());
    for (ri, (label, _)) in specs.iter().enumerate() {
        let points: Vec<SweepPoint> = SWEEP_VOLTS
            .iter()
            .zip(&freqs[ri * SWEEP_VOLTS.len()..])
            .map(|(&voltage, &frequency_mhz)| SweepPoint {
                voltage,
                frequency_mhz,
            })
            .collect();
        let sweep = normalize_sweep(&points, NOMINAL_VOLTS)?;
        rows.push(Table1Row {
            label: label.clone(),
            f_nominal_mhz: sweep.f_nominal_mhz,
            excursion: sweep.excursion,
        });
    }
    Ok(Table1Result { rows })
}

/// Runs the Table I experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<Table1Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let result = run(Effort::Quick, 1).expect("simulates");
        assert_eq!(result.rows.len(), 8);

        // IRO excursions stay ~flat with length (47-49% in the paper).
        for row in result.iro_rows() {
            assert!(
                (0.42..0.58).contains(&row.excursion),
                "{}: dF {}",
                row.label,
                row.excursion
            );
        }
        // STR excursions improve monotonically with length: 50% -> 37%.
        let strs = result.str_rows();
        for w in strs.windows(2) {
            assert!(
                w[1].excursion <= w[0].excursion + 0.01,
                "dF must not grow with L: {} {} -> {} {}",
                w[0].label,
                w[0].excursion,
                w[1].label,
                w[1].excursion
            );
        }
        let str96 = result.row("STR 96C").expect("present");
        let str4 = result.row("STR 4C").expect("present");
        assert!(str4.excursion - str96.excursion > 0.08, "improvement with L");
        assert!((0.30..0.43).contains(&str96.excursion), "{}", str96.excursion);

        // Nominal frequencies near the paper's Table I column.
        let f = |label: &str| result.row(label).expect("present").f_nominal_mhz;
        assert!((f("IRO 5C") - 376.0).abs() < 20.0, "{}", f("IRO 5C"));
        assert!((f("IRO 25C") - 73.0).abs() < 6.0, "{}", f("IRO 25C"));
        assert!((f("IRO 80C") - 23.0).abs() < 3.0, "{}", f("IRO 80C"));
        assert!((f("STR 4C") - 653.0).abs() < 35.0, "{}", f("STR 4C"));
        assert!((f("STR 96C") - 320.0).abs() < 20.0, "{}", f("STR 96C"));

        let text = result.to_string();
        assert!(text.contains("Table I"));
        assert!(text.lines().count() >= 10);
    }
}
