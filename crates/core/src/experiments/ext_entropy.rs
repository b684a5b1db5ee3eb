//! EXT-ENTROPY — entropy estimation: analytic bound vs Markov estimator.
//!
//! The paper's quantitative punchline is that an STR accumulates enough
//! thermal jitter *per short period* to be sampled fast, while an IRO
//! must wait out its long period for the same quality ratio. This
//! experiment turns that into numbers with the new estimation
//! subsystem (`strent_analysis::{entropy, markov}`):
//!
//! 1. measure each pool preset (STR-32, STR-64, IRO-32) on the
//!    calibrated board: mean period `T` and one-period jitter
//!    `sigma_1`;
//! 2. for a sweep of sampling intervals (`m` ring periods per sampled
//!    bit) form the quality ratio `q = sigma_1 sqrt(m) / T` (white
//!    phase diffusion) and evaluate the **analytic min-entropy lower
//!    bound** of the bit-pattern model;
//! 3. sample the same physics through the phase-diffusion bit model
//!    and run the order-`k` **Markov min-entropy estimator** (with its
//!    small-sample confidence haircut) over the resulting stream;
//! 4. cross-check: the estimator must never undercut the bound by more
//!    than the documented agreement band.
//!
//! A second stage runs the differential-pair scenario
//! (`strent_rings::differential`): paired rings under a shared
//! supply-ripple tone, quantifying the common-mode rejection ratio and
//! the deterministic-to-thermal contamination of each family.

use std::fmt;

use strent_analysis::entropy;
use strent_device::noise::GlobalJitterProcess;
use strent_rings::differential::{run_differential, DifferentialOutcome};
use strent_trng::entropy::markov_min_entropy;
use strent_trng::phase::PhaseModel;

use crate::calibration;
use crate::pool::RingSpec;
use crate::report::Table;

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// Markov order of the cross-checking estimator.
pub const MARKOV_ORDER: usize = 2;

/// The documented agreement band: the Markov estimate may sit above
/// the bound (a bound is conservative by construction; the finite-order
/// chain also overestimates quasi-periodic sources) but must not
/// undercut it by more than this, the estimator's own confidence
/// haircut allowance.
pub const AGREEMENT_BAND: f64 = 0.05;

/// Sampling intervals probed, in ring periods per sampled bit. Spans
/// quality ratios from "deterministic" (`q ~ 0.05`) to "saturated"
/// (`q > 0.5`) for the calibrated technology.
pub const SAMPLE_FACTORS: [f64; 3] = [2_000.0, 20_000.0, 200_000.0];

/// Supply-ripple tone of the differential stage (matches EXT-DET).
pub const SUPPLY_AMPLITUDE_V: f64 = 0.012;

/// Tone frequency of the differential stage, MHz (matches EXT-DET).
pub const MODULATION_MHZ: f64 = 5.0;

/// One (preset, sampling interval) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtEntropyRow {
    /// Preset label (`str32`, `str64`, `iro32`).
    pub label: &'static str,
    /// Ring periods per sampled bit.
    pub factor: f64,
    /// Measured mean period, ps.
    pub mean_period_ps: f64,
    /// Measured one-period jitter, ps.
    pub sigma_period_ps: f64,
    /// Quality ratio `sigma_acc / T` at this sampling interval.
    pub ratio: f64,
    /// Analytic min-entropy lower bound (bits/bit).
    pub bound: f64,
    /// Analytic Shannon-entropy bound (bits/bit), for reference.
    pub shannon_bound: f64,
    /// Order-[`MARKOV_ORDER`] Markov min-entropy estimate of the
    /// phase-model bitstream (bits/bit).
    pub markov: f64,
}

impl ExtEntropyRow {
    /// Markov minus bound: positive when the estimator confirms the
    /// bound with room to spare, and never allowed below
    /// `-`[`AGREEMENT_BAND`].
    #[must_use]
    pub fn agreement(&self) -> f64 {
        self.markov - self.bound
    }
}

/// The EXT-ENTROPY result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtEntropyResult {
    /// Sweep rows, preset-major then increasing sampling interval.
    pub rows: Vec<ExtEntropyRow>,
    /// Differential-pair outcomes (STR-32 pair, IRO-32 pair).
    pub differential: Vec<DifferentialOutcome>,
}

impl fmt::Display for ExtEntropyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-ENTROPY — analytic min-entropy bound vs order-{MARKOV_ORDER} Markov estimate"
        )?;
        let mut table = Table::new(&[
            "Ring", "m (T/bit)", "T (ps)", "sigma1", "q", "H_bound", "H_shannon", "H_markov",
            "agree",
        ]);
        for row in &self.rows {
            table.row_owned(vec![
                row.label.to_owned(),
                format!("{:.0}", row.factor),
                format!("{:.0}", row.mean_period_ps),
                format!("{:.2}", row.sigma_period_ps),
                format!("{:.4}", row.ratio),
                format!("{:.4}", row.bound),
                format!("{:.4}", row.shannon_bound),
                format!("{:.4}", row.markov),
                format!("{:+.4}", row.agreement()),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\n\nDifferential pairs under a {:.1}% / {} MHz supply tone",
            SUPPLY_AMPLITUDE_V / 1.2 * 100.0,
            MODULATION_MHZ
        )?;
        let mut table = Table::new(&[
            "Pair",
            "A_single (ps)",
            "A_diff (ps)",
            "CMRR (dB)",
            "det/thermal",
        ]);
        for out in &self.differential {
            table.row_owned(vec![
                out.label.clone(),
                format!("{:.2}", out.single_tone_ps),
                format!("{:.3}", out.differential_tone_ps),
                format!("{:.1}", out.cmrr_db()),
                format!("{:.2}", out.det_to_thermal()),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs EXT-ENTROPY on a caller-provided runner: one job per
/// (preset, sampling factor) sweep cell, then one per differential
/// pair.
///
/// # Errors
///
/// Propagates ring simulation, analysis and phase-model errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtEntropyResult, ExperimentError> {
    let periods = runner.effort().size(1_200, 4_000);
    let markov_bits = runner.effort().size(65_536, 262_144);
    let board = calibration::default_board();
    let presets = [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32];
    let cells: Vec<(RingSpec, f64)> = presets
        .iter()
        .flat_map(|&p| SAMPLE_FACTORS.iter().map(move |&m| (p, m)))
        .collect();
    let rows = runner.run_stage("ext_entropy_sweep", &cells, |job, meter| {
        let &(preset, factor) = job.config;
        let run = measure_ring(&preset.stream_config(), &board, job.seed(), periods, meter)?;
        let mean_period_ps =
            run.periods_ps.iter().sum::<f64>() / run.periods_ps.len() as f64;
        let sigma_period_ps = strent_analysis::jitter::period_jitter(&run.periods_ps)?;
        let sigma_acc_ps = sigma_period_ps * factor.sqrt();
        let ratio = entropy::sampling_ratio(sigma_acc_ps, mean_period_ps)?;
        let bound = entropy::min_entropy_bound(ratio)?;
        let shannon_bound = entropy::shannon_entropy_bound(ratio)?;
        // Sample the same physics through the phase-diffusion bit
        // model and let the empirical estimator judge the stream.
        let mut model = PhaseModel::new(mean_period_ps, sigma_acc_ps, job.seed() ^ 0xE57)?;
        let bits = model.generate(markov_bits);
        let markov = markov_min_entropy(&bits, MARKOV_ORDER)?;
        Ok(ExtEntropyRow {
            label: preset.label(),
            factor,
            mean_period_ps,
            sigma_period_ps,
            ratio,
            bound,
            shannon_bound,
            markov,
        })
    })?;
    let process = GlobalJitterProcess::new(SUPPLY_AMPLITUDE_V, MODULATION_MHZ);
    let pairs = [RingSpec::Str32, RingSpec::Iro32];
    let differential = runner.run_stage("ext_entropy_diff", &pairs, |job, _meter| {
        let seeds = (job.seed(), job.seed() ^ 1);
        let ring = job.config.stream_config();
        Ok(run_differential(&ring, &board, &process, seeds, periods)?)
    })?;
    Ok(ExtEntropyResult { rows, differential })
}

/// Runs the EXT-ENTROPY experiment.
///
/// # Errors
///
/// Propagates ring simulation, analysis and phase-model errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtEntropyResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_and_estimator_agree_and_rank_the_families() {
        let result = run(Effort::Quick, 11).expect("simulates");
        assert_eq!(result.rows.len(), 9);
        let by = |label: &str| -> Vec<&ExtEntropyRow> {
            result.rows.iter().filter(|r| r.label == label).collect()
        };
        let (str32, iro32) = (by("str32"), by("iro32"));
        for (s, i) in str32.iter().zip(&iro32) {
            // Equal sampling factor: the STR's short period gives it
            // the higher quality ratio, hence the higher bound.
            assert!(
                s.bound >= i.bound,
                "m={}: STR {} vs IRO {}",
                s.factor,
                s.bound,
                i.bound
            );
        }
        for row in &result.rows {
            // The estimator never undercuts the bound by more than the
            // documented band...
            assert!(
                row.agreement() >= -AGREEMENT_BAND,
                "{} m={}: markov {} vs bound {}",
                row.label,
                row.factor,
                row.markov,
                row.bound
            );
            // ...and both live in the unit interval.
            assert!((0.0..=1.0).contains(&row.bound));
            assert!((0.0..=1.0).contains(&row.markov));
            assert!(row.shannon_bound >= row.bound - 1e-12);
        }
        // The bound saturates as sampling slows (monotone per preset).
        for label in ["str32", "str64", "iro32"] {
            let rows = by(label);
            for pair in rows.windows(2) {
                assert!(
                    pair[1].bound >= pair[0].bound - 1e-12,
                    "{label}: bound not monotone in m"
                );
            }
            // The slowest sampling reaches a usable rate.
            assert!(rows.last().expect("rows").bound > 0.3, "{label}");
        }
        // Differential: both pairs reject the common mode measurably,
        // and the STR's deterministic-to-thermal contamination sits
        // below the IRO's.
        assert_eq!(result.differential.len(), 2);
        let (str_pair, iro_pair) = (&result.differential[0], &result.differential[1]);
        assert!(str_pair.label.starts_with("STR"));
        assert!(iro_pair.label.starts_with("IRO"));
        for out in &result.differential {
            assert!(out.cmrr_db() > 15.0, "{}: CMRR {} dB", out.label, out.cmrr_db());
        }
        assert!(
            str_pair.det_to_thermal() < 0.75 * iro_pair.det_to_thermal(),
            "STR {} vs IRO {}",
            str_pair.det_to_thermal(),
            iro_pair.det_to_thermal()
        );
        let text = result.to_string();
        assert!(text.contains("EXT-ENTROPY"));
        assert!(text.contains("CMRR"));
    }
}
