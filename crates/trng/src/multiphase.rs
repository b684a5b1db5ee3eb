//! The multi-phase STR TRNG — the paper's future work, realized.
//!
//! The paper's conclusion: STR period jitter is dominated by the local
//! jitter of a single stage, so *"each ring stage can be considered as
//! an independent entropy source"*. The authors' follow-up TRNG exploits
//! exactly that: an `L`-stage STR provides `L` output phases spread
//! across the period; a reference clock samples **all** of them and
//! XORs the samples into one bit. Whenever any phase boundary falls
//! within the accumulated jitter of the sampling instant, that stage
//! contributes entropy — so the entropy per sample grows with `L`
//! instead of requiring a slower reference.

use strent_device::Board;
use strent_rings::{analytic, RingConfig, StrConfig};
use strent_sim::{RngTree, Simulator, Time};

use crate::bits::BitString;
use crate::error::TrngError;
use crate::sampler::Sampler;

/// A multi-phase STR TRNG: every stage output sampled and XOR-combined.
///
/// # Examples
///
/// ```
/// use strent_device::{Board, Technology};
/// use strent_rings::StrConfig;
/// use strent_trng::multiphase::MultiphaseTrng;
///
/// let board = Board::new(Technology::cyclone_iii(), 0, 42);
/// let trng = MultiphaseTrng::new(StrConfig::new(16, 8)?, 25_000.0, 5.0)?;
/// let bits = trng.generate(&board, 7, 100)?;
/// assert_eq!(bits.len(), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiphaseTrng {
    config: StrConfig,
    reference_period_ps: f64,
    meta_window_ps: f64,
}

impl MultiphaseTrng {
    /// Creates the generator.
    ///
    /// # Errors
    ///
    /// Returns [`TrngError::InvalidParameter`] if the reference period
    /// is not positive or the metastability window is negative.
    pub fn new(
        config: StrConfig,
        reference_period_ps: f64,
        meta_window_ps: f64,
    ) -> Result<Self, TrngError> {
        // Sampler::new performs the validation.
        let _ = Sampler::new(reference_period_ps, meta_window_ps)?;
        Ok(MultiphaseTrng {
            config,
            reference_period_ps,
            meta_window_ps,
        })
    }

    /// The ring configuration.
    #[must_use]
    pub fn config(&self) -> &StrConfig {
        &self.config
    }

    /// The reference sampling period, ps.
    #[must_use]
    pub fn reference_period_ps(&self) -> f64 {
        self.reference_period_ps
    }

    /// Generates `count` bits by full event-driven simulation: one
    /// sampling flip-flop per ring stage, XOR of all stage samples per
    /// reference edge.
    ///
    /// # Errors
    ///
    /// Propagates ring verification, simulation and sampling errors.
    pub fn generate(&self, board: &Board, seed: u64, count: usize) -> Result<BitString, TrngError> {
        self.sample_stages(board, seed, count, self.config.length())
    }

    /// Generates `count` bits from stage 0 only — the single-phase
    /// baseline the multi-phase architecture improves upon.
    ///
    /// # Errors
    ///
    /// Propagates ring verification, simulation and sampling errors.
    pub fn generate_single_phase(
        &self,
        board: &Board,
        seed: u64,
        count: usize,
    ) -> Result<BitString, TrngError> {
        self.sample_stages(board, seed, count, 1)
    }

    /// Builds the ring through its verified build step, simulates it
    /// over the sampling window, samples stages `0..stages` and XORs
    /// their samples per reference edge.
    fn sample_stages(
        &self,
        board: &Board,
        seed: u64,
        count: usize,
        stages: usize,
    ) -> Result<BitString, TrngError> {
        let ring = RingConfig::Str(self.config.clone());
        let warmup_ps = 64.0 * ring.predicted_period_ps(board);
        let horizon = warmup_ps + self.reference_period_ps * (count + 2) as f64;
        let mut sim = Simulator::new(seed);
        let nets = ring.build(board, &mut sim, false)?.nets()[..stages].to_vec();
        for &net in &nets {
            sim.watch(net)?;
        }
        sim.run_until(Time::from_ps(horizon));

        let sampler = Sampler::new(self.reference_period_ps, self.meta_window_ps)?;
        let rng_tree = RngTree::new(seed ^ 0x3b7a);
        let t0 = Time::from_ps(warmup_ps);
        let mut combined = vec![0u8; count];
        for (stage, &net) in nets.iter().enumerate() {
            let trace = sim.trace(net).expect("watched");
            let mut rng = rng_tree.stream(stage as u64);
            let stage_bits = sampler.sample_trace(trace, t0, count, &mut rng)?;
            for (acc, bit) in combined.iter_mut().zip(stage_bits.iter()) {
                *acc ^= bit;
            }
        }
        Ok(combined.into_iter().collect())
    }

    /// The phase resolution the ring offers: the mean spacing between
    /// consecutive stage-output events within one period, `T / (2L)`
    /// — the quantity the authors' follow-up design sets against the
    /// jitter magnitude.
    #[must_use]
    pub fn phase_resolution_ps(&self, board: &Board) -> f64 {
        analytic::str_period_general_ps(&self.config, board) / (2.0 * self.config.length() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy;
    use strent_device::Technology;

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 9)
    }

    fn trng() -> MultiphaseTrng {
        // Reference ~ 9.7 ring periods (incommensurate).
        MultiphaseTrng::new(StrConfig::new(16, 8).expect("valid counts"), 19_391.0, 5.0)
            .expect("valid")
    }

    #[test]
    fn produces_deterministic_bits() {
        let trng = trng();
        let a = trng.generate(&board(), 5, 300).expect("simulates");
        let b = trng.generate(&board(), 5, 300).expect("simulates");
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        let c = trng.generate(&board(), 6, 300).expect("simulates");
        assert_ne!(a, c);
    }

    #[test]
    fn multiphase_beats_single_phase_entropy() {
        // The discriminating regime (the follow-up paper's design
        // point): a reference *commensurate* with the ring period, so a
        // single phase is deterministic unless jitter reaches the one
        // nearby boundary — while the L phases put a boundary within
        // jitter reach of every sampling instant. A noisy-corner sigma_g
        // makes the transition observable at test scale.
        // A *fast* reference (4 ring periods per bit — the throughput
        // regime the multi-phase architecture targets).
        let tech = Technology::cyclone_iii()
            .with_sigma_g_ps(40.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0);
        let board = Board::new(tech, 0, 9);
        let config = StrConfig::new(16, 8).expect("valid counts");
        let period = analytic::str_period_general_ps(&config, &board);
        let trng = MultiphaseTrng::new(config, 4.0 * period, 0.0).expect("valid");
        let multi = trng.generate(&board, 3, 1200).expect("simulates");
        let single = trng
            .generate_single_phase(&board, 3, 1200)
            .expect("simulates");
        let h_multi = entropy::markov_entropy(&multi).expect("enough");
        let h_single = entropy::markov_entropy(&single).expect("enough");
        assert!(
            h_multi > h_single + 0.15,
            "multi {h_multi} vs single {h_single}"
        );
        assert!(h_multi > 0.65, "multi-phase entropy too low: {h_multi}");
    }

    #[test]
    fn phase_resolution_follows_the_ring_geometry() {
        let trng = trng();
        let res = trng.phase_resolution_ps(&board());
        let period = analytic::str_period_general_ps(trng.config(), &board());
        assert!((res - period / 32.0).abs() < 1e-9);
        assert_eq!(trng.reference_period_ps(), 19_391.0);
    }

    #[test]
    fn parameter_validation() {
        let config = StrConfig::new(8, 4).expect("valid counts");
        assert!(MultiphaseTrng::new(config.clone(), 0.0, 0.0).is_err());
        assert!(MultiphaseTrng::new(config, 100.0, -1.0).is_err());
    }
}
