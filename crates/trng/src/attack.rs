//! Supply-modulation attack scenarios.
//!
//! The classic non-invasive attack on ring-oscillator TRNGs (the paper's
//! refs \[1\], \[2\]): modulate the core supply, inject *deterministic*
//! jitter, and bias the sampled bits. This module measures a ring's
//! deterministic response with a lock-in detector on its simulated
//! period series, and translates the response into bit-level damage
//! through the phase model.

use serde::{Deserialize, Serialize};
use strent_analysis::{jitter, spectrum};
use strent_device::{Board, Supply};
use strent_rings::measure::{self, RingRun};
use strent_rings::RingConfig;
use strent_sim::SimStats;

use crate::error::TrngError;
use crate::phase::PhaseModel;

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

/// Measures a ring's modulation response: `clean`, a [`measure::run`]
/// of `source` on `board`, gives the random jitter floor, and one run
/// of the same length and `seed` with a sine supply gives the lock-in
/// amplitude. Only the attacked run is simulated here; its kernel
/// statistics come back with the response.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn probe_response(
    source: &RingConfig,
    board: &Board,
    clean: &RingRun,
    supply_amplitude_v: f64,
    freq_mhz: f64,
    seed: u64,
) -> Result<(ModulationResponse, SimStats), TrngError> {
    let sigma_random = jitter::period_jitter(&clean.periods_ps)?;
    let mut attacked_board = board.clone();
    let dc = board.supply().dc_level();
    attacked_board.set_supply(Supply::sine(dc, supply_amplitude_v, freq_mhz));
    let attacked = measure::run(source, &attacked_board, seed, clean.periods_ps.len())?;
    let det = spectrum::self_clocked_lockin_amplitude(&attacked.periods_ps, freq_mhz * 1e-6)?;
    Ok((
        ModulationResponse {
            freq_mhz,
            supply_amplitude_v,
            mean_period_ps: 1e6 / attacked.frequency_mhz,
            det_amplitude_ps: det,
            sigma_random_ps: sigma_random,
        },
        attacked.stats,
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
    fn iro_response_shows_deterministic_component() {
        let board = Board::new(Technology::cyclone_iii(), 0, 3);
        let source = RingConfig::Iro(IroConfig::new(5).expect("valid"));
        let clean = measure::run(&source, &board, 5, 2000).expect("simulates");
        let (resp, stats) =
            probe_response(&source, &board, &clean, 0.012, 20.0, 5).expect("simulates");
        assert!(stats.events_processed > 0);
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
        let probe = |ring: &RingConfig| {
            let clean = measure::run(ring, &board, 5, 1500).expect("simulates");
            probe_response(ring, &board, &clean, 0.012, 20.0, 5)
                .expect("simulates")
                .0
        };
        let (r_iro, r_str) = (probe(&iro), probe(&strr));
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
