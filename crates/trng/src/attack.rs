//! Supply-modulation attack scenarios.
//!
//! The classic non-invasive attack on ring-oscillator TRNGs (the paper's
//! refs \[1\], \[2\]): modulate the core supply, inject *deterministic*
//! jitter, and bias the sampled bits. This module measures a ring's
//! deterministic response with a lock-in detector on its simulated
//! period series, and translates the response into bit-level damage
//! through the phase model.

use serde::{Deserialize, Serialize};
use strent_analysis::jitter;
use strent_device::{Board, Supply};
use strent_rings::{measure, RingConfig};
use strent_sim::SimStats;

use crate::error::TrngError;
use crate::phase::PhaseModel;

/// Lock-in detection: the amplitude of a sinusoidal component of known
/// frequency in a period series.
///
/// The series' sample instants are reconstructed by accumulating the
/// periods themselves (self-clocked sampling, like a real counter).
///
/// # Errors
///
/// Returns [`TrngError::InvalidParameter`] for a non-positive frequency
/// or [`TrngError::NotEnoughBits`] for fewer than 16 periods.
pub fn lockin_amplitude_ps(periods_ps: &[f64], freq_mhz: f64) -> Result<f64, TrngError> {
    if !(freq_mhz.is_finite() && freq_mhz > 0.0) {
        return Err(TrngError::InvalidParameter {
            name: "freq_mhz",
            constraint: "finite and positive",
        });
    }
    if periods_ps.len() < 16 {
        return Err(TrngError::NotEnoughBits {
            needed: 16,
            got: periods_ps.len(),
        });
    }
    let omega = std::f64::consts::TAU * freq_mhz * 1e-6; // rad per ps
    let mean = periods_ps.iter().sum::<f64>() / periods_ps.len() as f64;
    let mut t = 0.0;
    let mut i_sum = 0.0;
    let mut q_sum = 0.0;
    for &p in periods_ps {
        let centered = p - mean;
        i_sum += centered * (omega * t).sin();
        q_sum += centered * (omega * t).cos();
        t += p;
    }
    let n = periods_ps.len() as f64;
    Ok(2.0 * (i_sum * i_sum + q_sum * q_sum).sqrt() / n)
}

/// A ring's measured response to sinusoidal supply modulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModulationResponse {
    /// Modulation frequency, MHz.
    pub freq_mhz: f64,
    /// Supply modulation amplitude, volts.
    pub supply_amplitude_v: f64,
    /// Mean ring period, ps.
    pub mean_period_ps: f64,
    /// Deterministic period-modulation amplitude (lock-in), ps.
    pub det_amplitude_ps: f64,
    /// Random period jitter with the modulation off, ps.
    pub sigma_random_ps: f64,
}

impl ModulationResponse {
    /// The deterministic-to-random jitter ratio per period — the attack
    /// figure of merit from the paper's ref \[2\].
    #[must_use]
    pub fn det_to_random_ratio(&self) -> f64 {
        if self.sigma_random_ps == 0.0 {
            f64::INFINITY
        } else {
            self.det_amplitude_ps / self.sigma_random_ps
        }
    }

    /// The amplitude (ps) of the deterministic *phase-time* modulation of
    /// the ring's edges: integrating the period modulation gives
    /// `amplitude / (omega * T)` in periods, i.e. `amplitude / (omega*T)
    /// * T` ps of edge displacement.
    #[must_use]
    pub fn phase_time_amplitude_ps(&self) -> f64 {
        let omega = std::f64::consts::TAU * self.freq_mhz * 1e-6; // rad/ps
        self.det_amplitude_ps / (omega * self.mean_period_ps)
    }
}

/// Measures a ring's modulation response: one run with a sine supply
/// (lock-in) and one clean run (random jitter floor).
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn probe_response(
    source: &RingConfig,
    board: &Board,
    supply_amplitude_v: f64,
    freq_mhz: f64,
    seed: u64,
    periods: usize,
) -> Result<ModulationResponse, TrngError> {
    probe_response_metered(source, board, supply_amplitude_v, freq_mhz, seed, periods)
        .map(|(response, _)| response)
}

/// Like [`probe_response`], also returning the combined simulator
/// kernel statistics of the clean and attacked runs — callers inside a
/// metered sweep feed these to their `JobMeter`.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn probe_response_metered(
    source: &RingConfig,
    board: &Board,
    supply_amplitude_v: f64,
    freq_mhz: f64,
    seed: u64,
    periods: usize,
) -> Result<(ModulationResponse, SimStats), TrngError> {
    let clean = measure::run(source, board, seed, periods)?;
    let sigma_random = jitter::period_jitter(&clean.periods_ps)?;
    let mut attacked_board = board.clone();
    let dc = board.supply().dc_level();
    attacked_board.set_supply(Supply::sine(dc, supply_amplitude_v, freq_mhz));
    let attacked = measure::run(source, &attacked_board, seed, periods)?;
    let det = lockin_amplitude_ps(&attacked.periods_ps, freq_mhz)?;
    let mut stats = clean.stats;
    stats.absorb(attacked.stats);
    Ok((
        ModulationResponse {
            freq_mhz,
            supply_amplitude_v,
            mean_period_ps: 1e6 / attacked.frequency_mhz,
            det_amplitude_ps: det,
            sigma_random_ps: sigma_random,
        },
        stats,
    ))
}

/// Builds an attacked elementary-TRNG phase model from a measured
/// modulation response: the deterministic edge displacement becomes a
/// periodic phase modulation at the sampler.
///
/// # Errors
///
/// Propagates phase-model parameter errors.
pub fn attacked_phase_model(
    response: &ModulationResponse,
    sigma_acc_ps: f64,
    reference_period_ps: f64,
    seed: u64,
) -> Result<PhaseModel, TrngError> {
    let mod_period_ps = 1e6 / response.freq_mhz;
    PhaseModel::new(response.mean_period_ps, sigma_acc_ps, seed)?
        .with_deterministic_modulation(
            response.phase_time_amplitude_ps(),
            mod_period_ps / reference_period_ps,
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::Technology;
    use strent_rings::{IroConfig, StrConfig};

    #[test]
    fn lockin_recovers_known_sinusoid() {
        // Period series with a 3 ps sinusoid at 10 MHz riding on 1000 ps.
        let freq = 10.0; // MHz
        let omega = std::f64::consts::TAU * freq * 1e-6;
        let mut t = 0.0;
        let periods: Vec<f64> = (0..5000)
            .map(|_| {
                let p = 1000.0 + 3.0 * (omega * t).sin();
                t += p;
                p
            })
            .collect();
        let a = lockin_amplitude_ps(&periods, freq).expect("valid");
        assert!((a - 3.0).abs() < 0.1, "amplitude {a}");
        // Off-frequency lock-in sees almost nothing.
        let off = lockin_amplitude_ps(&periods, 3.7).expect("valid");
        assert!(off < 0.3, "off-frequency leakage {off}");
    }

    #[test]
    fn lockin_rejects_bad_input() {
        assert!(lockin_amplitude_ps(&[1.0; 8], 1.0).is_err());
        assert!(lockin_amplitude_ps(&[1.0; 100], 0.0).is_err());
    }

    #[test]
    fn iro_response_shows_deterministic_component() {
        let board = Board::new(Technology::cyclone_iii(), 0, 3);
        let source = RingConfig::Iro(IroConfig::new(5).expect("valid"));
        let resp =
            probe_response(&source, &board, 0.012, 20.0, 5, 2000).expect("simulates");
        // ~1% supply swing moves the ~2.66 ns period by tens of ps:
        // far above the 6.3 ps random jitter.
        assert!(
            resp.det_amplitude_ps > resp.sigma_random_ps,
            "det {} vs random {}",
            resp.det_amplitude_ps,
            resp.sigma_random_ps
        );
        assert!(resp.det_to_random_ratio() > 1.0);
    }

    #[test]
    fn str_response_is_weaker_than_iro_at_same_stage_count() {
        // The paper's Sec. IV-B claim, scaled down for test runtime:
        // at equal L the STR's absolute deterministic response is far
        // smaller because its period stays short.
        let board = Board::new(Technology::cyclone_iii(), 0, 3);
        let iro = RingConfig::Iro(IroConfig::new(25).expect("valid"));
        let strr = RingConfig::Str(StrConfig::new(24, 12).expect("valid"));
        let r_iro =
            probe_response(&iro, &board, 0.012, 20.0, 5, 1500).expect("simulates");
        let r_str =
            probe_response(&strr, &board, 0.012, 20.0, 5, 1500).expect("simulates");
        assert!(
            r_str.det_amplitude_ps < r_iro.det_amplitude_ps / 2.0,
            "STR det {} vs IRO det {}",
            r_str.det_amplitude_ps,
            r_iro.det_amplitude_ps
        );
    }

    #[test]
    fn attacked_model_shows_structure() {
        let resp = ModulationResponse {
            freq_mhz: 10.0,
            supply_amplitude_v: 0.012,
            mean_period_ps: 3000.0,
            det_amplitude_ps: 60.0,
            sigma_random_ps: 3.0,
        };
        assert!(resp.det_to_random_ratio() > 10.0);
        assert!(resp.phase_time_amplitude_ps() > 100.0);
        let mut weak = attacked_phase_model(&resp, 10.0, 12_500.0, 3).expect("valid");
        let bits = weak.generate(8_000);
        // The modulation period in samples: 1e5 ps / 12.5e3 ps = 8.
        let b = bits.as_slice();
        let n = b.len() - 8;
        let agree = (0..n).filter(|&i| b[i] == b[i + 8]).count() as f64 / n as f64;
        assert!(
            (agree - 0.5).abs() > 0.05,
            "attacked stream shows lag-8 structure: {agree}"
        );
    }
}
