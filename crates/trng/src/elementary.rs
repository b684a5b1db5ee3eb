//! The elementary ring-oscillator TRNG (refs \[1\], \[2\] of the paper).
//!
//! A jittery ring output is sampled by a slow reference clock; the
//! entropy per bit is governed by the jitter accumulated over one
//! reference period relative to the ring period.
//!
//! The source is any [`RingConfig`]. Two execution paths are provided,
//! and both rest on a ring built through its verified build step
//! ([`RingConfig::build`]), which refuses an STR that Eq. 1 predicts to
//! run in burst mode:
//!
//! * [`ElementaryTrng::generate_simulated`] — bit-exact: builds the ring
//!   in the event-driven simulator and samples its trace. Expensive but
//!   fully physical; used for validation and attack demonstrations.
//! * [`ElementaryTrng::calibrated_phase_model`] — takes a *short*
//!   event-driven run of the ring ([`strent_rings::measure::run`]),
//!   measures its period and accumulated jitter, and returns a
//!   [`PhaseModel`] reproducing those statistics for megabit-scale
//!   studies.

use strent_device::Board;
use strent_rings::{measure::RingRun, RingConfig};
use strent_sim::{RngTree, Simulator, Time};

use strent_analysis::jitter;

use crate::bits::BitString;
use crate::error::TrngError;
use crate::phase::PhaseModel;
use crate::sampler::Sampler;

/// An elementary TRNG: `source` sampled every `reference_period_ps`.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementaryTrng {
    source: RingConfig,
    reference_period_ps: f64,
    meta_window_ps: f64,
}

impl ElementaryTrng {
    /// Creates the generator.
    ///
    /// # Errors
    ///
    /// Returns [`TrngError::InvalidParameter`] if the reference period is
    /// not positive or the metastability window is negative.
    pub fn new(
        source: RingConfig,
        reference_period_ps: f64,
        meta_window_ps: f64,
    ) -> Result<Self, TrngError> {
        // Sampler::new performs the validation.
        let _ = Sampler::new(reference_period_ps, meta_window_ps)?;
        Ok(ElementaryTrng {
            source,
            reference_period_ps,
            meta_window_ps,
        })
    }

    /// The entropy source.
    #[must_use]
    pub fn source(&self) -> &RingConfig {
        &self.source
    }

    /// The reference sampling period, ps.
    #[must_use]
    pub fn reference_period_ps(&self) -> f64 {
        self.reference_period_ps
    }

    /// Generates `count` bits by full event-driven simulation.
    ///
    /// The ring is simulated for the whole sampling window, then the
    /// recorded trace is sampled. A warm-up of 64 ring periods is
    /// discarded before the first sample.
    ///
    /// # Errors
    ///
    /// Propagates ring verification and simulation errors.
    pub fn generate_simulated(
        &self,
        board: &Board,
        seed: u64,
        count: usize,
    ) -> Result<BitString, TrngError> {
        let ring_period = self.source.predicted_period_ps(board);
        let warmup_ps = 64.0 * ring_period;
        let horizon = warmup_ps + self.reference_period_ps * (count + 2) as f64;
        let mut sim = Simulator::new(seed);
        let output = self.source.build(board, &mut sim, false)?.output();
        sim.watch(output)?;
        sim.run_until(Time::from_ps(horizon));
        let trace = sim.trace(output).expect("watched");
        let sampler = Sampler::new(self.reference_period_ps, self.meta_window_ps)?;
        let mut rng = RngTree::new(seed ^ 0x5a5a).stream(1);
        sampler.sample_trace(trace, Time::from_ps(warmup_ps), count, &mut rng)
    }

    /// Returns a [`PhaseModel`] with the period and per-sample
    /// accumulated jitter of `run`, a [`strent_rings::measure::run`] of
    /// the source (2000 or more periods recommended).
    ///
    /// # Errors
    ///
    /// Propagates statistics and phase-model parameter errors.
    pub fn calibrated_phase_model(
        &self,
        run: &RingRun,
        seed: u64,
    ) -> Result<PhaseModel, TrngError> {
        let mean_period = 1e6 / run.frequency_mhz;
        // Periods per reference interval (need not be integral).
        let n_ratio = self.reference_period_ps / mean_period;
        // Accumulated jitter: measure at a block size we can afford and
        // extrapolate by the white-noise sqrt law.
        let m_meas = ((run.periods_ps.len() / 8).max(2)).min(n_ratio.ceil() as usize);
        let sigma_m = jitter::accumulated_jitter(&run.periods_ps, m_meas)?;
        let sigma_acc = sigma_m * (n_ratio / m_meas as f64).sqrt();
        PhaseModel::new(mean_period, sigma_acc, seed ^ 0x9e37)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::Technology;
    use strent_rings::{measure, IroConfig, StrConfig};

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 3)
    }

    #[test]
    fn simulated_bits_are_produced_and_deterministic() {
        let source = RingConfig::Str(StrConfig::new(8, 4).expect("valid"));
        // Sample every ~7.3 ring periods.
        let trng = ElementaryTrng::new(source, 5_000.0, 10.0).expect("valid");
        let bits = trng
            .generate_simulated(&board(), 5, 400)
            .expect("simulates");
        assert_eq!(bits.len(), 400);
        // Both symbols occur (the sampling is incommensurate).
        assert!(bits.count_ones() > 0 && bits.count_zeros() > 0);
        let again = trng
            .generate_simulated(&board(), 5, 400)
            .expect("simulates");
        assert_eq!(bits, again);
    }

    #[test]
    fn iro_source_works_too() {
        let source = RingConfig::Iro(IroConfig::new(5).expect("valid"));
        let trng = ElementaryTrng::new(source, 9_000.0, 10.0).expect("valid");
        let bits = trng
            .generate_simulated(&board(), 1, 200)
            .expect("simulates");
        assert_eq!(bits.len(), 200);
    }

    #[test]
    fn phase_model_calibration_matches_source() {
        let source = RingConfig::Str(StrConfig::new(16, 8).expect("valid"));
        let trng = ElementaryTrng::new(source.clone(), 50_000.0, 0.0).expect("valid");
        let run = measure::run(&source, &board(), 2, 2000).expect("simulates");
        let model = trng.calibrated_phase_model(&run, 2).expect("calibrates");
        let predicted = source.predicted_period_ps(&board());
        assert!(
            (model.period_ps() / predicted - 1.0).abs() < 0.05,
            "period {} vs {predicted}",
            model.period_ps()
        );
        // Accumulated jitter grows with the reference period.
        let slow = ElementaryTrng::new(source, 200_000.0, 0.0).expect("valid");
        let slow_model = slow.calibrated_phase_model(&run, 2).expect("calibrates");
        assert!(slow_model.sigma_acc_ps() > model.sigma_acc_ps());
    }

    #[test]
    fn every_simulated_path_rejects_a_burst_ring() {
        use crate::{multiphase::MultiphaseTrng, restart};
        use strent_rings::lint;
        use strent_rings::str_ring::TokenLayout;
        use strent_rings::{OscillationMode, RingError};
        // EXT-MODE's clustered STR-16/6 at Dcharlie 0 and drafting 5 ps.
        let tech = Technology::asic_like()
            .with_charlie_delay_ps(0.0)
            .with_drafting_delay_ps(5.0);
        let board = Board::new(tech, 0, 2012);
        let config = StrConfig::new(16, 6)
            .expect("valid")
            .with_layout(TokenLayout::Clustered);
        assert_eq!(
            lint::predicted_mode(&config, &board),
            OscillationMode::Burst
        );
        let ring = RingConfig::Str(config.clone());
        let errors = [
            ElementaryTrng::new(ring.clone(), 5_000.0, 0.0)
                .and_then(|trng| trng.generate_simulated(&board, 1, 16))
                .err(),
            restart::run(&ring, &board, 1, 2, &[1_000.0], &[1]).err(),
            MultiphaseTrng::new(config, 5_000.0, 0.0)
                .and_then(|trng| trng.generate(&board, 1, 16))
                .err(),
        ];
        for error in errors {
            assert!(
                matches!(error, Some(TrngError::Ring(RingError::Lint(_)))),
                "{error:?}"
            );
        }
    }

    #[test]
    fn parameter_validation() {
        let source = RingConfig::Str(StrConfig::new(8, 4).expect("valid"));
        assert!(ElementaryTrng::new(source.clone(), 0.0, 0.0).is_err());
        assert!(ElementaryTrng::new(source, 100.0, -1.0).is_err());
    }
}
