//! Fig. 7 — the Charlie diagram: the stage delay as a function of the
//! input separation time, plus a hyperbola fit recovering `(Ds,
//! Dcharlie)` and a cross-check against effective delays measured from
//! simulated rings.

use std::fmt;

use strent_analysis::fit::{charlie_hyperbola, CharlieFit};
use strent_device::Technology;
use strent_rings::{CharlieModel, RingConfig, StrConfig};

use crate::calibration;
use crate::report::{fmt_ps, Table};

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// The reproduced Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// The analytic `(s, charlie(s))` series.
    pub diagram: Vec<(f64, f64)>,
    /// The hyperbola fit recovered from the diagram points.
    pub fit: CharlieFit,
    /// The technology's true parameters, for comparison: `(Ds, Dch)`.
    pub true_params_ps: (f64, f64),
    /// Effective per-stage delays measured from simulated rings at
    /// `NT = NB` (separation 0): `(length, measured Deff, predicted
    /// charlie(0))`.
    pub measured_deff: Vec<(usize, f64, f64)>,
    /// The *measured* Charlie diagram: sweeping `NT` on an unbalanced
    /// ring sets a nonzero steady separation, so simulation alone
    /// traces the curve. Points are `(half-separation delta in ps,
    /// delay from the mean input arrival in ps)` = `(h (NB-NT)/(2L),
    /// h/2)` per the timing-closure identities.
    pub measured_diagram: Vec<(f64, f64)>,
    /// The hyperbola fit of the measured diagram — `(Ds, Dcharlie)`
    /// recovered from simulation with no analytic input.
    pub measured_fit: CharlieFit,
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 7 — Charlie diagram")?;
        let mut table = Table::new(&["s (ps)", "charlie(s) (ps)"]);
        // Print a readable subset of the curve.
        for chunk in self.diagram.chunks(self.diagram.len().div_ceil(13).max(1)) {
            let (s, d) = chunk[0];
            table.row_owned(vec![format!("{s:.0}"), format!("{d:.1}")]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "hyperbola fit: Ds = {}, Dcharlie = {} (true: Ds = {}, Dcharlie = {})",
            fmt_ps(self.fit.static_delay_ps),
            fmt_ps(self.fit.charlie_delay_ps),
            fmt_ps(self.true_params_ps.0),
            fmt_ps(self.true_params_ps.1),
        )?;
        writeln!(f, "\nmeasured effective stage delay at s = 0 (NT = NB rings):")?;
        let mut table = Table::new(&["L", "Deff measured", "charlie(0) predicted"]);
        for &(l, measured, predicted) in &self.measured_deff {
            table.row_owned(vec![
                l.to_string(),
                fmt_ps(measured),
                fmt_ps(predicted),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\nmeasured Charlie diagram (NT sweep on a 32-stage ring):"
        )?;
        let mut table = Table::new(&["delta (ps)", "delay from mean (ps)"]);
        for &(delta, delay) in &self.measured_diagram {
            table.row_owned(vec![format!("{delta:.1}"), format!("{delay:.1}")]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "fit of measured points: Ds = {}, Dcharlie = {} (true: Ds = {}, Dcharlie = {})",
            fmt_ps(self.measured_fit.static_delay_ps),
            fmt_ps(self.measured_fit.charlie_delay_ps),
            fmt_ps(self.true_params_ps.0),
            fmt_ps(self.true_params_ps.1),
        )
    }
}

/// Runs the Fig. 7 experiment on a caller-provided runner: each of the
/// 16 simulated rings (three `NT = NB` cross-checks, then the 13-point
/// `NT` sweep) is one job of the `fig7` stage.
///
/// # Errors
///
/// Propagates ring simulation and fit errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<Fig7Result, ExperimentError> {
    let tech = Technology::cyclone_iii();
    let model = CharlieModel::new(tech.lut_delay_ps(), tech.charlie_delay_ps())?;
    let diagram = model.diagram(600.0, runner.effort().size(30, 120));
    let (s, d): (Vec<f64>, Vec<f64>) = diagram.iter().copied().unzip();
    let fit = charlie_hyperbola(&s, &d)?;

    // One job per `(L, NT)` ring: the NT = NB cross-checks, then the
    // NT sweep on a 32-stage ring.
    const DEFF_LENGTHS: [usize; 3] = [8, 16, 32];
    let l = 32usize;
    let rings: Vec<(usize, usize)> = DEFF_LENGTHS
        .iter()
        .map(|&length| (length, length / 2))
        .chain((4..=28).step_by(2).map(|tokens| (l, tokens)))
        .collect();
    let specs = rings
        .iter()
        .map(|&(length, tokens)| {
            let config = StrConfig::new(length, tokens)
                .expect("valid counts")
                .with_routing_ps(0.0)?;
            Ok(RingConfig::Str(config))
        })
        .collect::<Result<Vec<_>, ExperimentError>>()?;
    let board = calibration::ideal_board();
    let periods = runner.effort().size(100, 300);
    // Every ring runs on the experiment seed, not its job seed: the
    // golden output depends on it.
    let seed = runner.seed();
    let freqs = runner.run_stage("fig7", &specs, |job, meter| {
        Ok(measure_ring(job.config, &board, seed, periods, meter)?.frequency_mhz)
    })?;
    let (deff_freqs, sweep_freqs) = freqs.split_at(DEFF_LENGTHS.len());

    // Cross-check: a noise-free NT = NB ring runs every stage at
    // separation 0, so its period directly measures charlie(0):
    // T = 2 L Deff / NT  =>  Deff = T NT / (2L).
    let measured_deff = DEFF_LENGTHS
        .iter()
        .zip(deff_freqs)
        .map(|(&length, &frequency_mhz)| {
            let t = 1e6 / frequency_mhz;
            let deff = t * (length as f64 / 2.0) / (2.0 * length as f64);
            (length, deff, model.charlie_delay(0.0))
        })
        .collect();
    // The measured Charlie diagram: sweep NT on a 32-stage ring. In
    // the evenly-spaced steady state every stage fires at interval
    // h = T/2, the enabling inputs arrive with half-difference
    // delta = h (NB - NT) / (2L), and the firing delay measured from
    // the mean arrival is exactly h/2 — so each token count yields one
    // (delta, delay) sample of the Charlie surface, from timestamps
    // alone.
    let mut measured_diagram: Vec<(f64, f64)> = rings[DEFF_LENGTHS.len()..]
        .iter()
        .zip(sweep_freqs)
        .map(|(&(_, tokens), &frequency_mhz)| {
            let h = (1e6 / frequency_mhz) / 2.0;
            let delta = h * (l as f64 - 2.0 * tokens as f64) / (2.0 * l as f64);
            (delta, h / 2.0)
        })
        .collect();
    measured_diagram.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ms, md): (Vec<f64>, Vec<f64>) = measured_diagram.iter().copied().unzip();
    let measured_fit = charlie_hyperbola(&ms, &md)?;

    Ok(Fig7Result {
        diagram,
        fit,
        true_params_ps: (tech.lut_delay_ps(), tech.charlie_delay_ps()),
        measured_deff,
        measured_diagram,
        measured_fit,
    })
}

/// Runs the Fig. 7 experiment.
///
/// # Errors
///
/// Propagates ring simulation and fit errors.
pub fn run(effort: Effort, seed: u64) -> Result<Fig7Result, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_fit_recovers_technology_parameters() {
        let result = run(Effort::Quick, 1).expect("simulates");
        // The fit inverts Eq. 3 exactly on analytic points.
        assert!((result.fit.static_delay_ps - result.true_params_ps.0).abs() < 0.01);
        assert!((result.fit.charlie_delay_ps - result.true_params_ps.1).abs() < 0.01);
        // The diagram is symmetric with its minimum at s = 0.
        let min = result
            .diagram
            .iter()
            .cloned()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        assert_eq!(min.0, 0.0);
        // Simulated rings confirm charlie(0) within 2%.
        for &(l, measured, predicted) in &result.measured_deff {
            assert!(
                (measured / predicted - 1.0).abs() < 0.02,
                "L={l}: Deff {measured} vs {predicted}"
            );
        }
        // The measured diagram (pure simulation, NT sweep) recovers the
        // technology parameters through the hyperbola fit.
        assert_eq!(result.measured_diagram.len(), 13);
        assert!(
            (result.measured_fit.static_delay_ps - result.true_params_ps.0).abs() < 3.0,
            "measured Ds {}",
            result.measured_fit.static_delay_ps
        );
        assert!(
            (result.measured_fit.charlie_delay_ps - result.true_params_ps.1).abs() < 3.0,
            "measured Dcharlie {}",
            result.measured_fit.charlie_delay_ps
        );
        // The measured points themselves lie on the Charlie surface:
        // delay(delta) = Ds + sqrt(Dch^2 + delta^2).
        for &(delta, delay) in &result.measured_diagram {
            let expected = result.true_params_ps.0
                + (result.true_params_ps.1.powi(2) + delta * delta).sqrt();
            assert!(
                (delay / expected - 1.0).abs() < 0.02,
                "delta {delta}: {delay} vs {expected}"
            );
        }
        let text = result.to_string();
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("hyperbola fit"));
        assert!(text.contains("measured Charlie diagram"));
    }
}
