//! One pooled entropy source: a live ring, its sampler, conditioner and
//! health monitor, plus the quarantine → drain → re-lock lifecycle.
//!
//! The batch is the unit of health gating: `batch_raw_bits` raw samples
//! are produced, fed to the [`HealthMonitor`], and delivered *only if no
//! sample alarmed*. An alarmed batch is discarded wholesale — the
//! conditioner never sees a bit from it, so unhealthy randomness cannot
//! leak into served bytes through carried conditioner state. The source
//! then drains in quarantine until the re-lock criterion
//! ([`rising_interval_cv`] below the configured threshold, the same
//! figure of merit the fault experiments use) passes, or is replaced by
//! a fresh ring after `max_relock_windows` failures. A source that
//! discards `max_relock_windows` batches in a row without delivering
//! one fails with a typed error.
//!
//! Everything here is a pure function of the [`SourceSpec`] and
//! [`PoolConfig`]: no wall clock, no global state. That purity is what
//! makes the pool's served stream independent of worker-thread count.

use strent_rings::fault::rising_interval_cv;
use strent_rings::surrogate::{EntropySource, SourceBackend};
use strent_sim::{RngTree, SimRng, Time};
use strent_trng::postprocess::StreamConditioner;
use strent_trng::sampler::Sampler;
use strent_trng::{BitString, HealthMonitor};
use strentropy::pool::{EntropyEstimate, PoolConfig, SourceSpec, SourceState, SourceStats};

use crate::error::ServeError;
use crate::estimator::RateEstimator;

/// RNG stream key for metastability coin flips — distinct from any
/// component key the simulator derives from the same seed.
const META_RNG_KEY: u64 = 0xD0F1_CA11;

/// Seed stride between ring generations of one source slot.
const GENERATION_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A live, health-gated entropy source occupying one pool slot.
#[derive(Debug)]
pub struct PooledSource {
    index: usize,
    spec: SourceSpec,
    config: PoolConfig,
    stream: EntropySource,
    sampler: Sampler,
    meta_rng: SimRng,
    conditioner: StreamConditioner,
    monitor: HealthMonitor,
    state: SourceState,
    stats: SourceStats,
    generation: u64,
    /// Start instant of the next raw batch, ps.
    cursor_ps: f64,
    bit_carry: BitString,
    /// Sliding-window Markov estimator over the *delivered* bits.
    estimator: RateEstimator,
}

impl PooledSource {
    /// Builds the source for pool slot `index`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or a ring that
    /// fails static verification at build time.
    pub fn build(
        index: usize,
        spec: &SourceSpec,
        config: &PoolConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        // All ring construction goes through the backend selector so
        // the surrogate fallback rules cannot be bypassed (simlint
        // SL109 enforces this for the whole serving layer).
        let stream = EntropySource::build(
            &spec.ring.stream_config(),
            &spec.board(index),
            spec.seed,
            spec.fault.as_ref(),
            spec.backend,
        )?;
        let period = stream.expected_period_ps();
        let sampler = Sampler::new(
            config.sample_period_factor * period,
            config.meta_window_ps,
        )?;
        Ok(PooledSource {
            index,
            spec: spec.clone(),
            config: config.clone(),
            sampler,
            meta_rng: RngTree::new(spec.seed).stream(META_RNG_KEY),
            conditioner: StreamConditioner::new(config.conditioner),
            monitor: HealthMonitor::new(config.claimed_min_entropy)?,
            state: SourceState::Healthy,
            stats: SourceStats::default(),
            generation: 0,
            cursor_ps: config.warmup_periods * period,
            bit_carry: BitString::new(),
            estimator: RateEstimator::new(config.entropy_order, config.entropy_window_bits)?,
            stream,
        })
    }

    /// Pool slot of this source.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> SourceState {
        self.state
    }

    /// Lifetime counters (alarms are monotone across quarantines).
    #[must_use]
    pub fn stats(&self) -> SourceStats {
        self.stats
    }

    /// Ring generation: 0 for the original, +1 per replacement.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The online min-entropy estimate of this source's recently
    /// *delivered* bits, or `None` while the sliding window is still
    /// too short for a verdict — "no estimate yet", never "zero
    /// entropy", so a freshly started or re-locked source is not
    /// penalised for its empty window (the estimator's typed
    /// `InsufficientData` case, mapped to `None` below).
    #[must_use]
    pub fn entropy(&self) -> Option<EntropyEstimate> {
        self.estimator.entropy_rate()
    }

    /// The waveform backend the fallback rules actually selected (may
    /// be [`SourceBackend::FullSim`] even for a surrogate-requesting
    /// spec — e.g. while a fault plan is armed).
    #[must_use]
    pub fn backend(&self) -> SourceBackend {
        self.stream.selected_backend()
    }

    /// Produces one raw batch of `batch_raw_bits` samples starting at
    /// the cursor, advancing the simulation as far as needed.
    fn produce_raw_batch(&mut self) -> Result<BitString, ServeError> {
        let count = self.config.batch_raw_bits;
        let (period_ps, window_ps) = (self.sampler.period_ps(), self.sampler.meta_window_ps());
        let bits = match &mut self.stream {
            // The surrogate samples as it draws and records no trace of
            // the sampled span; the bits are the trace path's.
            EntropySource::Surrogate(stream) => {
                let mut bits = BitString::with_capacity(count);
                stream.sample_batch(
                    self.cursor_ps,
                    period_ps,
                    count,
                    window_ps,
                    &mut self.meta_rng,
                    |bit| bits.push_bool(bit),
                )?;
                bits
            }
            EntropySource::Full(stream) => {
                // Simulate past the last sample instant plus the
                // metastability half-window, so no future transition
                // can straddle a sample.
                let needed_ps = self.cursor_ps + period_ps * count as f64 + window_ps;
                let now_ps = stream.now().as_ps();
                if now_ps < needed_ps {
                    stream.advance_by(needed_ps - now_ps)?;
                }
                self.sampler.sample_trace_until(
                    stream.trace(),
                    Time::from_ps(self.cursor_ps),
                    count,
                    stream.now(),
                    &mut self.meta_rng,
                )?
            }
        };
        self.cursor_ps += period_ps * count as f64;
        // Keep one re-lock window of history; drop the rest (the
        // surrogate has kept less than that already).
        let keep_ps = self.relock_window_ps() + self.sampler.meta_window_ps();
        if self.cursor_ps > keep_ps {
            self.stream.prune_before(Time::from_ps(self.cursor_ps - keep_ps));
        }
        Ok(bits)
    }

    fn relock_window_ps(&self) -> f64 {
        self.config.relock_window_periods * self.stream.expected_period_ps()
    }

    /// Delivers the next non-empty health-passed byte chunk, running
    /// the quarantine lifecycle as many times as the ring demands.
    ///
    /// # Errors
    ///
    /// Returns an error for unrecoverable simulator failures, and
    /// [`ServeError::SourceFailed`] once `max_relock_windows` batches in
    /// a row are discarded with none delivered: a ring that alarms on
    /// every batch yet passes every re-lock check would otherwise spin
    /// here for ever. A ring that is merely unhealthy for a while is
    /// handled (quarantined, re-locked or replaced), never surfaced.
    pub fn next_batch(&mut self) -> Result<Vec<u8>, ServeError> {
        let mut discarded_in_a_row = 0;
        loop {
            let raw = self.produce_raw_batch()?;
            let alarmed = self.monitor.scan_chunk(&raw);
            self.stats.alarms = self.monitor.alarms();
            if alarmed > 0 {
                // The whole batch is suspect: discard it before the
                // conditioner can absorb any of it.
                self.stats.batches_discarded += 1;
                discarded_in_a_row += 1;
                if discarded_in_a_row >= self.config.max_relock_windows {
                    return Err(ServeError::SourceFailed { source: self.index });
                }
                self.quarantine_and_relock()?;
                continue;
            }
            discarded_in_a_row = 0;
            self.stats.batches_delivered += 1;
            self.state = SourceState::Healthy;
            self.bit_carry.extend(self.conditioner.feed(&raw).iter());
            let whole_bytes = self.bit_carry.len() / 8;
            if whole_bytes == 0 {
                // Conditioning (e.g. von Neumann on a quiet stretch)
                // yielded less than a byte; produce more.
                continue;
            }
            let packed = self.bit_carry.slice(0, whole_bytes * 8).pack().to_vec();
            // Only bytes that actually leave the source are scored:
            // the estimate describes what consumers receive.
            self.estimator.feed_bytes(&packed);
            self.bit_carry = self
                .bit_carry
                .slice(whole_bytes * 8, self.bit_carry.len() - whole_bytes * 8);
            return Ok(packed);
        }
    }

    /// Drains the ring until the re-lock CV passes, then re-arms the
    /// monitor and conditioner; replaces the ring entirely after
    /// `max_relock_windows` failed windows.
    fn quarantine_and_relock(&mut self) -> Result<(), ServeError> {
        self.state = SourceState::Quarantined;
        let window_ps = self.relock_window_ps();
        for _ in 0..self.config.max_relock_windows {
            let from = self.stream.now();
            self.stream.advance_by(window_ps)?;
            let until = self.stream.now();
            self.state = SourceState::Relocking;
            let relocked = rising_interval_cv(self.stream.trace(), from.as_ps(), until.as_ps())
                .is_some_and(|cv| cv < self.config.relock_cv_threshold);
            self.stream.prune_before(from);
            if relocked {
                self.readmit(until.as_ps());
                self.stats.requarantines += 1;
                return Ok(());
            }
        }
        self.replace_ring()
    }

    /// Re-arms the gating state after a passed re-lock check. Nothing
    /// produced before `resume_ps` is ever served.
    fn readmit(&mut self, resume_ps: f64) {
        self.monitor.reset();
        self.conditioner = StreamConditioner::new(self.config.conditioner);
        self.bit_carry = BitString::new();
        // The pre-alarm window no longer describes the re-locked ring.
        self.estimator.reset();
        self.cursor_ps =
            resume_ps + self.config.warmup_periods * self.stream.expected_period_ps();
        self.state = SourceState::Healthy;
    }

    /// Swaps in a fresh ring for an unrecoverable one: same preset and
    /// board, a generation-derived seed, and no fault plan (the fault
    /// modeled hardware this slot is abandoning).
    fn replace_ring(&mut self) -> Result<(), ServeError> {
        self.generation += 1;
        self.stats.replacements += 1;
        let seed = self
            .spec
            .seed
            .wrapping_add(self.generation.wrapping_mul(GENERATION_STRIDE));
        self.stream = EntropySource::build(
            &self.spec.ring.stream_config(),
            &self.spec.board(self.index),
            seed,
            None,
            self.spec.backend,
        )?;
        self.meta_rng = RngTree::new(seed).stream(META_RNG_KEY);
        let warmup = self.config.warmup_periods * self.stream.expected_period_ps();
        self.monitor.reset();
        self.conditioner = StreamConditioner::new(self.config.conditioner);
        self.bit_carry = BitString::new();
        // A fresh ring starts a fresh stream; stale bits would blend
        // two generations into one estimate.
        self.estimator.reset();
        self.cursor_ps = warmup;
        self.state = SourceState::Healthy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_sim::rng::fnv1a;
    use strent_sim::{Bit, FaultPlan};
    use strent_trng::health;
    use strent_trng::postprocess::ConditionerKind;
    use strentropy::pool::RingSpec;

    /// A small, fast pool config for tests.
    fn test_config() -> PoolConfig {
        let mut config = PoolConfig::mixed_default(1, 7);
        config.conditioner = ConditionerKind::Raw;
        config.sample_period_factor = 2.37;
        config.batch_raw_bits = 64;
        config.warmup_periods = 16.0;
        config
    }

    #[test]
    fn healthy_source_delivers_deterministic_batches() {
        let spec = SourceSpec::new(RingSpec::Str32, 11);
        let config = test_config();
        let mut a = PooledSource::build(0, &spec, &config).expect("builds");
        let mut b = PooledSource::build(0, &spec, &config).expect("builds");
        for _ in 0..5 {
            let batch_a = a.next_batch().expect("produces");
            let batch_b = b.next_batch().expect("produces");
            assert_eq!(batch_a, batch_b, "same spec + config is bit-identical");
            assert_eq!(batch_a.len(), 8, "64 raw bits -> 8 bytes");
        }
        assert_eq!(a.stats().batches_delivered, 5);
        assert_eq!(a.stats().alarms, 0);
        assert_eq!(a.state(), SourceState::Healthy);
        assert_eq!(a.generation(), 0);
    }

    #[test]
    fn all_presets_produce() {
        let config = test_config();
        for (i, ring) in [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32]
            .into_iter()
            .enumerate()
        {
            let spec = SourceSpec::new(ring, 20 + i as u64);
            let mut source = PooledSource::build(i, &spec, &config).expect("builds");
            let batch = source.next_batch().expect("produces");
            assert!(!batch.is_empty(), "{} yields bytes", ring.label());
            assert_eq!(source.index(), i);
        }
    }

    #[test]
    fn conditioned_output_shrinks_by_the_decimation_factor() {
        let spec = SourceSpec::new(RingSpec::Str32, 3);
        let mut config = test_config();
        config.conditioner = ConditionerKind::XorDecimate(2);
        let mut source = PooledSource::build(0, &spec, &config).expect("builds");
        // 64 raw bits -> 32 conditioned -> 4 bytes per batch.
        assert_eq!(source.next_batch().expect("produces").len(), 4);
    }

    #[test]
    fn surrogate_backed_source_serves_deterministic_healthy_batches() {
        let spec =
            SourceSpec::new(RingSpec::Str32, 17).with_backend(SourceBackend::Surrogate);
        let config = test_config();
        let mut a = PooledSource::build(0, &spec, &config).expect("builds");
        let mut b = PooledSource::build(0, &spec, &config).expect("builds");
        assert_eq!(a.backend(), SourceBackend::Surrogate, "str32 is eligible");
        let mut delivered = Vec::new();
        for _ in 0..8 {
            let batch_a = a.next_batch().expect("produces");
            let batch_b = b.next_batch().expect("produces");
            assert_eq!(batch_a, batch_b, "surrogate batches are bit-identical");
            delivered.extend(batch_a);
        }
        assert_eq!(a.stats().alarms, 0, "calibrated surrogate stays healthy");
        let bits = BitString::from_packed(&delivered, delivered.len() * 8);
        let (rct, apt) =
            health::scan(&bits, config.claimed_min_entropy).expect("valid claim");
        assert_eq!((rct, apt), (0, 0), "served surrogate bytes are health-clean");
    }

    /// Sampling at 2.024 ring periods aliases with the ring, so a
    /// 1-bit/bit claim alarms often while every re-lock passes: the
    /// source runs the quarantine path over and over.
    fn aliasing_config(factor: f64) -> PoolConfig {
        let mut config = test_config();
        config.sample_period_factor = factor;
        config.batch_raw_bits = 256;
        config.claimed_min_entropy = 1.0;
        config
    }

    #[test]
    fn requarantined_surrogate_source_serves_pinned_bytes() {
        // Both values were read from the trace-recording batch path;
        // the surrogate's one-pass sampler must serve the same bytes
        // through the same lifecycle.
        let spec = SourceSpec::new(RingSpec::Str32, 2012).with_backend(SourceBackend::Surrogate);
        let mut source = PooledSource::build(0, &spec, &aliasing_config(2.024)).expect("builds");
        assert_eq!(source.backend(), SourceBackend::Surrogate);
        let mut delivered = Vec::new();
        for _ in 0..12 {
            delivered.extend(source.next_batch().expect("delivers"));
        }
        assert_eq!(delivered.len(), 384);
        assert_eq!(
            fnv1a(&delivered),
            0xb348_8d95_6e04_259b,
            "served bytes moved"
        );
        assert_eq!(
            source.stats(),
            SourceStats {
                batches_delivered: 12,
                batches_discarded: 21,
                alarms: 32,
                requarantines: 21,
                replacements: 0,
            }
        );
    }

    #[test]
    fn a_source_that_never_delivers_fails_typed() {
        // At 2.021 periods per sample every batch alarms and every
        // re-lock passes; without a bound `next_batch` spins for ever.
        let mut config = aliasing_config(2.021);
        config.max_relock_windows = 3;
        let spec = SourceSpec::new(RingSpec::Str32, 2012).with_backend(SourceBackend::Surrogate);
        let mut source = PooledSource::build(0, &spec, &config).expect("builds");
        let err = source.next_batch().expect_err("a bounded discard streak");
        assert!(
            matches!(err, ServeError::SourceFailed { source: 0 }),
            "{err}"
        );
        let stats = source.stats();
        assert_eq!(
            (stats.batches_discarded, stats.batches_delivered),
            (3, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn delivered_bits_drive_the_published_estimate() {
        let spec = SourceSpec::new(RingSpec::Str32, 11);
        let mut config = test_config();
        config.entropy_order = 1;
        config.entropy_window_bits = 128;
        let mut source = PooledSource::build(0, &spec, &config).expect("builds");
        assert_eq!(source.entropy(), None, "no verdict before any delivery");
        let mut delivered = Vec::new();
        while delivered.len() * 8 < 256 {
            delivered.extend(source.next_batch().expect("produces"));
        }
        let estimate = source.entropy().expect("saturated window has a verdict");
        assert!(estimate.bits_per_bit() > 0.0);
        // The published estimate is a pure function of the served
        // bytes: replaying them through a fresh window reproduces it.
        let mut mirror = RateEstimator::new(1, 128).expect("valid");
        mirror.feed_bytes(&delivered);
        assert_eq!(mirror.entropy_rate(), Some(estimate));
    }

    #[test]
    fn armed_fault_plan_forces_the_full_sim_backend() {
        // A surrogate cannot reproduce injected faults, so a spec that
        // both arms a fault plan and requests the surrogate must fall
        // back to the full discrete-event stream.
        let config = test_config();
        let period = RingSpec::Str32
            .stream_config()
            .predicted_period_ps(&SourceSpec::new(RingSpec::Str32, 5).board(0));
        let clamp_from = config.warmup_periods * period;
        let plan = FaultPlan::new(5)
            .with_stuck_at("str0", Bit::Low, clamp_from, clamp_from + 50.0 * period)
            .expect("valid");
        let spec = SourceSpec::new(RingSpec::Str32, 5)
            .with_fault(plan)
            .with_backend(SourceBackend::Surrogate);
        let source = PooledSource::build(0, &spec, &config).expect("builds");
        assert_eq!(source.backend(), SourceBackend::FullSim, "fault wins");
    }

    #[test]
    fn stuck_ring_is_quarantined_and_served_bytes_stay_healthy() {
        // Clamp the output low for ~100 sample periods starting inside
        // the first batch: the RCT must fire, the batch must be
        // discarded, and after the clamp releases the ring re-locks.
        let config = test_config();
        let period = RingSpec::Str32
            .stream_config()
            .predicted_period_ps(&SourceSpec::new(RingSpec::Str32, 5).board(0));
        let sample_ps = config.sample_period_factor * period;
        let clamp_from = config.warmup_periods * period + 4.0 * sample_ps;
        let clamp_until = clamp_from + 100.0 * sample_ps;
        let plan = FaultPlan::new(5)
            .with_stuck_at("str0", Bit::Low, clamp_from, clamp_until)
            .expect("valid");
        let spec = SourceSpec::new(RingSpec::Str32, 5).with_fault(plan);
        let mut source = PooledSource::build(0, &spec, &config).expect("builds");

        let mut delivered = Vec::new();
        let mut batches = 0u64;
        while batches < 8 {
            delivered.extend(source.next_batch().expect("recovers"));
            batches += 1;
        }
        let stats = source.stats();
        assert!(stats.alarms >= 1, "clamp must alarm, stats {stats:?}");
        assert!(stats.batches_discarded >= 1);
        assert_eq!(stats.requarantines, 1, "one quarantine cycle");
        assert_eq!(stats.replacements, 0, "ring recovered, no replacement");
        // Zero unhealthy bytes delivered: the served stream passes the
        // same monitors with a fresh scan.
        let bits = BitString::from_packed(&delivered, delivered.len() * 8);
        let (rct, apt) =
            health::scan(&bits, config.claimed_min_entropy).expect("valid claim");
        assert_eq!((rct, apt), (0, 0), "served bytes are health-clean");
    }

    #[test]
    fn permanently_dead_ring_is_replaced() {
        // A clamp that outlives every re-lock window the config allows:
        // the slot swaps in a fresh ring and keeps serving.
        let mut config = test_config();
        config.max_relock_windows = 4;
        let spec = SourceSpec::new(RingSpec::Str32, 9);
        let period = spec.ring.stream_config().predicted_period_ps(&spec.board(0));
        let clamp_from = config.warmup_periods * period;
        let plan = FaultPlan::new(9)
            .with_stuck_at("str0", Bit::Low, clamp_from, 1e12)
            .expect("valid");
        let spec = spec.with_fault(plan);
        let mut source = PooledSource::build(0, &spec, &config).expect("builds");
        let batch = source.next_batch().expect("replacement serves");
        assert!(!batch.is_empty());
        assert_eq!(source.generation(), 1);
        assert_eq!(source.stats().replacements, 1);
        assert!(source.stats().alarms >= 1);
        // The replacement is itself deterministic.
        let mut again = PooledSource::build(0, &spec, &config).expect("builds");
        assert_eq!(again.next_batch().expect("produces"), batch);
    }
}
