//! EXT-TRNG — the conclusion's claim at the bit level: elementary TRNGs
//! built on the two sources, evaluated clean and under a supply attack.
//!
//! Two configurations per source (IRO 5C and STR 96C, both ~300 MHz):
//!
//! * **quality** — a slow reference clock giving a healthy accumulated
//!   jitter ratio: the battery should pass (the TRNG works);
//! * **attacked** — a fast reference (weak entropy per bit, the regime
//!   where attacks bite) plus sinusoidal supply modulation. The induced
//!   deterministic structure is lock-in detected on the *bit stream* at
//!   the modulation frequency.
//!
//! **Finding.** At *matched output frequency* (IRO 5C vs STR 96C, both
//! ~300-380 MHz) the bit-level damage is comparable: the attack's phase
//! displacement integrates to `epsilon / omega` regardless of the ring
//! architecture, and the STR's smaller voltage sensitivity (Table I) is
//! partially offset by its lower per-sample noise, which keeps the
//! injected structure coherent for longer. The STR's robustness
//! advantage lives at the *source* level — EXT-DET shows its
//! deterministic jitter staying flat with length while the IRO's grows
//! linearly — and becomes decisive at matched logic footprint or in the
//! multi-phase STR samplers of the authors' follow-up work. The paper's
//! conclusion ("STR-based TRNGs *should* be more robust") is a
//! conjecture this experiment refines rather than blindly confirms.

use std::fmt;

use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_trng::attack::{attacked_phase_model, probe_response};
use strent_trng::battery;
use strent_trng::elementary::ElementaryTrng;
use strent_trng::entropy;
use strent_trng::BitString;

use crate::calibration;
use crate::report::Table;

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// Supply attack amplitude, volts (±0.33% of nominal — small enough
/// that the induced phase displacement stays below half a ring period
/// for both sources; larger attacks wrap the phase and smear their own
/// fundamental, hiding the structure from a lock-in at the modulation
/// frequency).
pub const ATTACK_AMPLITUDE_V: f64 = 0.004;

/// Supply attack frequency, MHz.
pub const ATTACK_MHZ: f64 = 2.25;

/// Segmented (incoherent) lock-in amplitude of a bit stream at a known
/// per-sample period: the mean over fixed-length segments of the
/// segment's coherent lock-in magnitude.
///
/// Why segmented: the bit response to a phase modulation has *opposite
/// signs* at the stream's two decision thresholds (pushing the phase up
/// flips a bit low near 0.5 but high near the 1.0 wrap), so a
/// whole-stream coherent sum cancels over many phase-mixing times. Each
/// segment is short enough to stay sign-coherent; taking magnitudes
/// before averaging keeps the structure visible.
fn segmented_bit_lockin(bits: &BitString, period_samples: f64, segment: usize) -> f64 {
    let omega = std::f64::consts::TAU / period_samples;
    let b = bits.as_slice();
    let mut total = 0.0;
    let mut segments = 0usize;
    for chunk in b.chunks_exact(segment) {
        let (mut i_sum, mut q_sum) = (0.0, 0.0);
        for (k, &bit) in chunk.iter().enumerate() {
            let x = 2.0 * f64::from(bit) - 1.0;
            i_sum += x * (omega * k as f64).sin();
            q_sum += x * (omega * k as f64).cos();
        }
        total += 2.0 * (i_sum * i_sum + q_sum * q_sum).sqrt() / segment as f64;
        segments += 1;
    }
    if segments == 0 {
        0.0
    } else {
        total / segments as f64
    }
}

/// Segment length for [`segmented_bit_lockin`]: a fraction of the weak
/// stream's phase-mixing time `(T / sigma_acc)^2 ~ 30k samples`.
const LOCKIN_SEGMENT: usize = 16_384;

/// Evaluation of one source in the quality configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Display label.
    pub label: String,
    /// `sigma_acc / T` at the slow reference.
    pub quality_factor: f64,
    /// Shannon entropy per raw bit.
    pub shannon_entropy: f64,
    /// Battery tests passed at alpha = 0.01.
    pub battery_passed: usize,
    /// Battery tests run (the matrix-rank test joins for long streams).
    pub battery_total: usize,
}

/// Evaluation of one source under attack.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRow {
    /// Display label.
    pub label: String,
    /// Measured deterministic period amplitude, ps.
    pub det_amplitude_ps: f64,
    /// Lock-in amplitude on the clean bit stream.
    pub clean_structure: f64,
    /// Lock-in amplitude on the attacked bit stream.
    pub attacked_structure: f64,
}

/// The EXT-TRNG result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtTrngResult {
    /// Quality configuration rows (IRO 5C, STR 96C).
    pub quality: Vec<QualityRow>,
    /// Attack configuration rows (IRO 5C, STR 96C).
    pub attack: Vec<AttackRow>,
}

impl fmt::Display for ExtTrngResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXT-TRNG — elementary TRNGs on both sources")?;
        writeln!(f, "\nquality configuration (slow reference clock):")?;
        let mut table = Table::new(&["Source", "q = sigma_acc/T", "H_shannon", "battery"]);
        for row in &self.quality {
            table.row_owned(vec![
                row.label.clone(),
                format!("{:.3}", row.quality_factor),
                format!("{:.4}", row.shannon_entropy),
                format!("{}/{}", row.battery_passed, row.battery_total),
            ]);
        }
        write!(f, "{table}")?;
        writeln!(
            f,
            "\nattack configuration (fast reference, {:.2} MHz / ±{:.1}% supply sine):",
            ATTACK_MHZ,
            ATTACK_AMPLITUDE_V / 1.2 * 100.0
        )?;
        let mut table = Table::new(&["Source", "A_det (ps)", "structure clean", "structure attacked"]);
        for row in &self.attack {
            table.row_owned(vec![
                row.label.clone(),
                format!("{:.1}", row.det_amplitude_ps),
                format!("{:.4}", row.clean_structure),
                format!("{:.4}", row.attacked_structure),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-TRNG experiment on a caller-provided runner: one
/// sharded job per source, each evaluating both the quality and the
/// attack configuration with seeds forked from its job subtree.
///
/// # Errors
///
/// Propagates ring simulation, TRNG and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtTrngResult, ExperimentError> {
    let calibration_periods = runner.effort().size(1_500, 4_000);
    let bits_quality = runner.effort().size(30_000, 200_000);
    // The weak-source phase walk mixes over ~(T/sigma_acc)^2 ~ 30k
    // samples; the attack stream must be several mixing times long or
    // the lock-in depends on where the phase lingered.
    let bits_attack = runner.effort().size(400_000, 2_000_000);
    let board = calibration::default_board();

    let sources = [
        (
            "IRO 5C",
            RingConfig::Iro(IroConfig::new(5).expect("valid length")),
        ),
        (
            "STR 96C",
            RingConfig::Str(StrConfig::new(96, 48).expect("valid counts")),
        ),
    ];

    let rows = runner.run_stage("ext_trng", &sources, |job, _meter| {
        let (label, source) = job.config;
        let seed = job.seed();
        let period = source.predicted_period_ps(&board);

        // Quality configuration: a reference slow enough for q = 0.5.
        // Calibrate the accumulated jitter at a measurable reference,
        // then scale by the white-noise sqrt law to the q = 0.5 point
        // (the required reference period is milliseconds — cheap in the
        // phase model, intractable event-by-event).
        let t_ref_probe = period * 20.0;
        let trng = ElementaryTrng::new(source.clone(), t_ref_probe, 0.0)?;
        let probe_model = trng.calibrated_phase_model(&board, seed, calibration_periods)?;
        let mut model = strent_trng::phase::PhaseModel::new(
            probe_model.period_ps(),
            0.5 * probe_model.period_ps(),
            job.rng.fork(1).master_seed(),
        )?;
        let bits = model.generate(bits_quality);
        let report = battery::run_all(&bits)?;
        let quality = QualityRow {
            label: (*label).to_owned(),
            quality_factor: model.quality_factor(),
            shannon_entropy: entropy::shannon_bit_entropy(&bits)?,
            battery_passed: report.passed(0.01),
            battery_total: report.outcomes.len(),
        };

        // Attack configuration: fast reference (weak per-bit entropy).
        let t_ref_attack = period * 18.0;
        let trng = ElementaryTrng::new(source.clone(), t_ref_attack, 0.0)?;
        let weak_model = trng.calibrated_phase_model(&board, seed, calibration_periods)?;
        let response = probe_response(
            source,
            &board,
            ATTACK_AMPLITUDE_V,
            ATTACK_MHZ,
            seed,
            calibration_periods,
        )?;
        let mod_period_samples = (1e6 / ATTACK_MHZ) / t_ref_attack;
        let clean_bits = weak_model.clone().generate(bits_attack);
        let mut attacked = attacked_phase_model(
            &response,
            weak_model.sigma_acc_ps(),
            t_ref_attack,
            job.rng.fork(2).master_seed(),
        )?;
        let attacked_bits = attacked.generate(bits_attack);
        let attack = AttackRow {
            label: (*label).to_owned(),
            det_amplitude_ps: response.det_amplitude_ps,
            clean_structure: segmented_bit_lockin(
                &clean_bits,
                mod_period_samples,
                LOCKIN_SEGMENT,
            ),
            attacked_structure: segmented_bit_lockin(
                &attacked_bits,
                mod_period_samples,
                LOCKIN_SEGMENT,
            ),
        };
        Ok((quality, attack))
    })?;

    let (quality, attack) = rows.into_iter().unzip();
    Ok(ExtTrngResult { quality, attack })
}

/// Runs the EXT-TRNG experiment.
///
/// # Errors
///
/// Propagates ring simulation, TRNG and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtTrngResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trng_quality_and_attack_contrast() {
        let result = run(Effort::Quick, 9).expect("simulates");
        assert_eq!(result.quality.len(), 2);
        assert_eq!(result.attack.len(), 2);

        // Quality configuration: both sources make working TRNGs.
        for row in &result.quality {
            assert!(row.quality_factor > 0.3, "{}: q {}", row.label, row.quality_factor);
            assert!(row.shannon_entropy > 0.99, "{}: H {}", row.label, row.shannon_entropy);
            assert!(row.battery_passed >= 6, "{}: {}/8", row.label, row.battery_passed);
        }

        // Attack: the modulation injects detectable structure into both
        // weak streams (the refs [1]/[2] attack works on either source).
        for row in &result.attack {
            assert!(
                row.attacked_structure > 3.0 * row.clean_structure,
                "{}: clean {} vs attacked {}",
                row.label,
                row.clean_structure,
                row.attacked_structure
            );
        }
        // At matched output frequency the damage is comparable (within
        // 5x either way): the displacement epsilon/omega is
        // architecture-independent. See the module docs — the STR's
        // decisive advantage is at the source level (EXT-DET).
        let iro = &result.attack[0];
        let strr = &result.attack[1];
        let ratio = strr.attacked_structure / iro.attacked_structure;
        assert!(
            (0.2..5.0).contains(&ratio),
            "unexpected asymmetry: STR {} vs IRO {}",
            strr.attacked_structure,
            iro.attacked_structure
        );
        // The STR's source-level deterministic response is no worse than
        // the IRO's at matched frequency (its better RVV compensates its
        // slightly longer period).
        assert!(
            strr.det_amplitude_ps < 1.3 * iro.det_amplitude_ps,
            "STR A_det {} vs IRO A_det {}",
            strr.det_amplitude_ps,
            iro.det_amplitude_ps
        );
        let text = result.to_string();
        assert!(text.contains("EXT-TRNG"));
    }
}
