//! Fig. 8 — normalized frequencies over the 1.0 V..1.4 V core supply
//! sweep, for IRO 5C/80C and STR 4C/96C.

use std::fmt;

use strent_analysis::frequency::{normalize_sweep, NormalizedSweep, SweepPoint};
use strent_device::Supply;
use strent_rings::{IroConfig, RingConfig, StrConfig};

use crate::calibration::{self, NOMINAL_VOLTS, SWEEP_VOLTS};
use crate::report::{fmt_mhz, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// One ring's sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSweep {
    /// Display label ("IRO 5C"...).
    pub label: String,
    /// The normalized sweep (`Fn` series and excursion).
    pub sweep: NormalizedSweep,
}

/// The full Fig. 8 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// One sweep per ring, in the paper's order:
    /// IRO 5C, IRO 80C, STR 4C, STR 96C.
    pub rings: Vec<RingSweep>,
    /// The swept voltages.
    pub volts: Vec<f64>,
}

impl Fig8Result {
    /// The `Fn` series of ring `label`, if present.
    #[must_use]
    pub fn normalized_series(&self, label: &str) -> Option<&[(f64, f64)]> {
        self.rings
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.sweep.normalized.as_slice())
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut headers = vec!["V (V)".to_owned()];
        headers.extend(self.rings.iter().map(|r| format!("Fn {}", r.label)));
        let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
        for (i, &v) in self.volts.iter().enumerate() {
            let mut row = vec![format!("{v:.2}")];
            for ring in &self.rings {
                row.push(format!("{:.4}", ring.sweep.normalized[i].1));
            }
            table.row_owned(row);
        }
        writeln!(f, "Fig. 8 — normalized frequency vs core voltage")?;
        write!(f, "{table}")?;
        for ring in &self.rings {
            writeln!(
                f,
                "{}: Fnom = {} MHz, dF = {:.1} %",
                ring.label,
                fmt_mhz(ring.sweep.f_nominal_mhz),
                ring.sweep.excursion * 100.0
            )?;
        }
        Ok(())
    }
}

/// Runs the Fig. 8 experiment on a caller-provided runner.
///
/// The (ring, voltage) grid is flattened into one job per point and
/// sharded across the runner's workers; the results are identical for
/// every thread count.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Fig8Result, ExperimentError> {
    let periods = runner.effort().size(120, 400);
    let base = calibration::default_board();

    let specs: Vec<(String, RingConfig)> = [5usize, 80]
        .iter()
        .map(|&l| {
            (
                format!("IRO {l}C"),
                RingConfig::Iro(IroConfig::new(l).expect("valid length")),
            )
        })
        .chain([4usize, 96].iter().map(|&l| {
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

    let freqs = runner.run_stage("fig8", &jobs, |job, meter| {
        let (ri, v) = *job.config;
        let mut board = base.clone();
        board.set_supply(Supply::dc(v));
        Ok(measure_ring(&specs[ri].1, &board, job.seed(), periods, meter)?.frequency_mhz)
    })?;

    let mut rings = Vec::with_capacity(specs.len());
    for (ri, (label, _)) in specs.iter().enumerate() {
        let points: Vec<SweepPoint> = SWEEP_VOLTS
            .iter()
            .zip(&freqs[ri * SWEEP_VOLTS.len()..])
            .map(|(&voltage, &frequency_mhz)| SweepPoint {
                voltage,
                frequency_mhz,
            })
            .collect();
        rings.push(RingSweep {
            label: label.clone(),
            sweep: normalize_sweep(&points, NOMINAL_VOLTS)?,
        });
    }
    Ok(Fig8Result {
        rings,
        volts: SWEEP_VOLTS.to_vec(),
    })
}

/// Runs the Fig. 8 experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<Fig8Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_matches_paper() {
        let result = run(Effort::Quick, 1).expect("simulates");
        assert_eq!(result.rings.len(), 4);
        assert_eq!(result.volts.len(), 9);

        for ring in &result.rings {
            // Frequency rises monotonically with voltage (Fig. 8 lines).
            let series = &ring.sweep.normalized;
            for w in series.windows(2) {
                assert!(w[1].1 > w[0].1, "{}: non-monotone at {:?}", ring.label, w);
            }
            // Normalized to 1 at the nominal point.
            let nominal = series.iter().find(|p| p.0 == 1.2).expect("nominal point");
            assert!((nominal.1 - 1.0).abs() < 1e-9);
        }

        // The 96-stage STR is the least voltage sensitive; IRO 5C and
        // STR 4C are the most (paper: ~49-50% vs 37%).
        let excursion = |label: &str| {
            result
                .rings
                .iter()
                .find(|r| r.label == label)
                .expect("ring present")
                .sweep
                .excursion
        };
        assert!(excursion("STR 96C") < excursion("IRO 5C") - 0.05);
        assert!(excursion("STR 96C") < excursion("STR 4C") - 0.05);
        assert!((0.30..0.45).contains(&excursion("STR 96C")));
        assert!((0.42..0.58).contains(&excursion("IRO 5C")));

        // Display produces the table and the summary lines.
        let text = result.to_string();
        assert!(text.contains("Fig. 8"));
        assert!(text.contains("STR 96C"));
        assert!(result.normalized_series("IRO 80C").is_some());
        assert!(result.normalized_series("nope").is_none());
    }
}
