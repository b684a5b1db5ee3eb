//! Pool configuration for the entropy service.
//!
//! `strent-serve` owns a pool of long-running ring-backed TRNG sources;
//! *what* those sources are — ring presets, seeds, per-source process
//! variation, sampling and conditioning parameters, health and re-lock
//! thresholds — is experiment-layer vocabulary and lives here, next to
//! the experiments that calibrated it:
//!
//! * the health cutoffs reuse [`degradation::CLAIMED_H`], the claim the
//!   EXT-DEGRADATION experiment characterizes detection latency for;
//! * the re-lock threshold mirrors the `rising_interval_cv < 0.05`
//!   criterion the fault experiments use to call an STR phase-locked;
//! * the ring presets are the paper's configurations (STR-32 and
//!   STR-64 with `NT = NB = L/2`, IRO-32).
//!
//! The serving crate consumes a validated [`PoolConfig`] and never
//! invents physics parameters of its own; see `docs/serving.md`.

use strent_device::{Board, Technology};
use strent_rings::surrogate::SourceBackend;
use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_sim::FaultPlan;
use strent_trng::postprocess::ConditionerKind;
use strent_trng::TrngError;

use crate::experiments::degradation;
use crate::experiments::ExperimentError;

/// Ring presets the pool can instantiate — the paper's configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingSpec {
    /// 32-stage self-timed ring, `NT = NB = 16` (evenly-spaced mode).
    Str32,
    /// 64-stage self-timed ring, `NT = NB = 32`.
    Str64,
    /// 32-stage inverter ring oscillator.
    Iro32,
}

/// Smallest analytic min-entropy bound the pool will adopt as its
/// claimed rate. Below this the derived claim would drag the SP 800-90B
/// cutoffs into never-fire territory (an RCT cutoff of hundreds of
/// identical bits detects nothing in a 256-bit batch), so the pool
/// falls back to the EXT-DEGRADATION claim the health tests were
/// characterized against. The honest bound remains available from
/// [`RingSpec::analytic_entropy_bound`] for reporting.
pub const DERIVED_CLAIM_FLOOR: f64 = 0.05;

impl RingSpec {
    /// A short stable label (used in reports and JSON).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RingSpec::Str32 => "str32",
            RingSpec::Str64 => "str64",
            RingSpec::Iro32 => "iro32",
        }
    }

    /// The analytic per-bit min-entropy lower bound of this preset on
    /// the given board at the given sampling period (a multiple of the
    /// ring period): accumulated jitter over the sampling interval is
    /// `sigma_period * sqrt(factor)` (white phase diffusion), the
    /// quality ratio is that over the ring period, and the bound is the
    /// bit-pattern model's (`strent_analysis::entropy`).
    ///
    /// Returns `None` instead of an error when the inputs leave the
    /// model's domain (non-finite or sub-unity factor, degenerate
    /// board) — callers fall back to the characterized claim.
    #[must_use]
    pub fn analytic_entropy_bound(
        &self,
        board: &Board,
        sample_period_factor: f64,
    ) -> Option<f64> {
        if !(sample_period_factor.is_finite() && sample_period_factor >= 1.0) {
            return None;
        }
        use strent_rings::analytic;
        let (period_ps, sigma_period_ps) = match self.stream_config() {
            RingConfig::Str(config) => (
                analytic::str_period_ps(&config, board),
                analytic::str_sigma_period_ps(board),
            ),
            RingConfig::Iro(config) => (
                analytic::iro_period_ps(&config, board),
                analytic::iro_sigma_period_ps(&config, board),
            ),
        };
        let sigma_acc_ps = sigma_period_ps * sample_period_factor.sqrt();
        let q = strent_analysis::entropy::sampling_ratio(sigma_acc_ps, period_ps).ok()?;
        strent_analysis::entropy::min_entropy_bound(q).ok()
    }

    /// The claimed per-bit min-entropy the pool gates this preset with:
    /// the analytic bound when it clears [`DERIVED_CLAIM_FLOOR`],
    /// otherwise the EXT-DEGRADATION claim ([`degradation::CLAIMED_H`])
    /// whose detection latency the health tests were calibrated
    /// against.
    #[must_use]
    pub fn claimed_entropy(&self, board: &Board, sample_period_factor: f64) -> f64 {
        match self.analytic_entropy_bound(board, sample_period_factor) {
            Some(bound) if bound >= DERIVED_CLAIM_FLOOR => bound,
            _ => degradation::CLAIMED_H,
        }
    }

    /// The ring this preset builds.
    #[must_use]
    pub fn stream_config(&self) -> RingConfig {
        match self {
            RingSpec::Str32 => RingConfig::Str(StrConfig::new(32, 16).expect("preset is valid")),
            RingSpec::Str64 => RingConfig::Str(StrConfig::new(64, 32).expect("preset is valid")),
            RingSpec::Iro32 => RingConfig::Iro(IroConfig::new(32).expect("preset is valid")),
        }
    }
}

/// One entropy source in the pool: a ring preset placed on its own
/// simulated device, with a dedicated noise seed and an optional fault
/// plan (for drills and degradation-aware serving tests).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Which ring this source runs.
    pub ring: RingSpec,
    /// The simulator noise seed — the source's entire output stream is
    /// a pure function of `(ring, seed, board_seed, fault)`.
    pub seed: u64,
    /// The process-variation seed of the board this source is placed
    /// on (distinct boards model distinct FPGA placements).
    pub board_seed: u64,
    /// Fault plan to arm at build time, if any.
    pub fault: Option<FaultPlan>,
    /// Requested waveform backend. [`SourceBackend::FullSim`] (the
    /// default) always simulates; [`SourceBackend::Surrogate`] opts
    /// into the calibrated fast path, which still falls back to the
    /// full simulation near mode boundaries or when `fault` is armed
    /// (`strent_rings::surrogate::surrogate_eligible`).
    pub backend: SourceBackend,
}

impl SourceSpec {
    /// A healthy source of the given preset and noise seed, placed on a
    /// board whose process seed is derived from the noise seed.
    #[must_use]
    pub fn new(ring: RingSpec, seed: u64) -> Self {
        SourceSpec {
            ring,
            seed,
            board_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            fault: None,
            backend: SourceBackend::FullSim,
        }
    }

    /// Places the source on a specific board process seed.
    #[must_use]
    pub fn with_board_seed(mut self, board_seed: u64) -> Self {
        self.board_seed = board_seed;
        self
    }

    /// Arms a fault plan on this source.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Requests a waveform backend (subject to the surrogate fallback
    /// rules at build time).
    #[must_use]
    pub fn with_backend(mut self, backend: SourceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The board this source is placed on (`index` becomes the board
    /// id, purely cosmetic).
    #[must_use]
    pub fn board(&self, index: usize) -> Board {
        Board::new(Technology::cyclone_iii(), index, self.board_seed)
    }
}

/// Full configuration of a source pool: the sources plus every sampling,
/// conditioning, health and re-lock parameter the service needs.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// The sources, in pool order (pool order is the deterministic
    /// interleave order of the served stream).
    pub sources: Vec<SourceSpec>,
    /// Claimed per-bit min-entropy for the SP 800-90B cutoffs. Defaults
    /// to [`degradation::CLAIMED_H`] so serving is gated by exactly the
    /// thresholds EXT-DEGRADATION characterizes.
    pub claimed_min_entropy: f64,
    /// Conditioning applied to health-passed raw bits.
    pub conditioner: ConditionerKind,
    /// Reference sampling period as a multiple of the ring's expected
    /// period. Large factors accumulate more jitter per sample (better
    /// entropy, slower). Keep it away from integers: a near-commensurate
    /// ratio freezes the sampling phase and a perfectly healthy ring
    /// would read as stuck (long identical-bit runs tripping the RCT).
    pub sample_period_factor: f64,
    /// Flip-flop metastability window, ps.
    pub meta_window_ps: f64,
    /// Raw bits produced per batch per source (health gating is
    /// all-or-nothing at this granularity).
    pub batch_raw_bits: usize,
    /// Expected ring periods to discard at startup and after a
    /// quarantine before sampling resumes (the lock transient).
    pub warmup_periods: f64,
    /// Re-admission threshold on the rising-edge interval CV
    /// (`strent_rings::fault::rising_interval_cv`): a quarantined
    /// source rejoins only once its CV over the re-lock window drops
    /// below this. The fault experiments use 0.05 for "phase-locked".
    pub relock_cv_threshold: f64,
    /// Length of the re-lock measurement window, in expected periods.
    pub relock_window_periods: f64,
    /// Re-lock windows a quarantined source may fail before it is
    /// declared unrecoverable and replaced by a fresh ring.
    pub max_relock_windows: usize,
    /// Markov order of the online per-source entropy-rate estimator
    /// (`strent_analysis::markov` over the delivered conditioned bits).
    pub entropy_order: usize,
    /// Sliding-window length, in delivered bits, the online estimator
    /// re-estimates over. Must hold the `(4 << order).max(64)`
    /// transitions a verdict requires *plus* the `order` priming bits.
    pub entropy_window_bits: usize,
    /// Demotion threshold as a fraction of the claimed min-entropy:
    /// a source whose online estimate drops below
    /// `demote_fraction * claimed_min_entropy` is weighted down by
    /// entropy-aware consumption (it keeps producing and keeps being
    /// health-tested; demotion only slows how fast the pool drains it).
    pub demote_fraction: f64,
}

impl PoolConfig {
    /// A pool of `n` healthy sources cycling through the three presets
    /// (STR-32, STR-64, IRO-32), with noise seeds derived from `seed`.
    #[must_use]
    pub fn mixed_default(n: usize, seed: u64) -> Self {
        const PRESETS: [RingSpec; 3] = [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32];
        let sources = (0..n)
            .map(|i| {
                SourceSpec::new(
                    PRESETS[i % PRESETS.len()],
                    seed.wrapping_add(1 + i as u64),
                )
            })
            .collect();
        PoolConfig {
            sources,
            claimed_min_entropy: degradation::CLAIMED_H,
            conditioner: ConditionerKind::XorDecimate(2),
            sample_period_factor: 8.37,
            meta_window_ps: 10.0,
            batch_raw_bits: 256,
            warmup_periods: 64.0,
            relock_cv_threshold: 0.05,
            relock_window_periods: 64.0,
            max_relock_windows: 256,
            entropy_order: 2,
            entropy_window_bits: 4096,
            demote_fraction: 0.5,
        }
    }

    /// Requests the same waveform backend for every source in the pool
    /// (each source still falls back per the surrogate eligibility
    /// rules at build time). Lets a preset pool opt into
    /// [`SourceBackend::Surrogate`] wholesale for load runs.
    #[must_use]
    pub fn with_backend(mut self, backend: SourceBackend) -> Self {
        for spec in &mut self.sources {
            spec.backend = backend;
        }
        self
    }

    /// Checks every parameter; the serving layer calls this before
    /// spawning any worker so a bad config fails fast and typed.
    ///
    /// # Errors
    ///
    /// Returns [`TrngError::InvalidParameter`] (wrapped in
    /// [`ExperimentError::Trng`]) naming the offending field.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        fn bad(name: &'static str, constraint: &'static str) -> ExperimentError {
            ExperimentError::Trng(TrngError::InvalidParameter { name, constraint })
        }
        if self.sources.is_empty() {
            return Err(bad("sources", "at least one source"));
        }
        let h = self.claimed_min_entropy;
        if !(h.is_finite() && h > 0.0 && h <= 1.0) {
            return Err(bad("claimed_min_entropy", "in (0, 1]"));
        }
        if let ConditionerKind::XorDecimate(0) = self.conditioner {
            return Err(bad("conditioner", "decimation factor must be positive"));
        }
        if !(self.sample_period_factor.is_finite() && self.sample_period_factor >= 1.0) {
            return Err(bad("sample_period_factor", "finite and >= 1"));
        }
        if !(self.meta_window_ps.is_finite() && self.meta_window_ps >= 0.0) {
            return Err(bad("meta_window_ps", "finite and non-negative"));
        }
        if self.batch_raw_bits == 0 {
            return Err(bad("batch_raw_bits", "at least one bit per batch"));
        }
        if !(self.warmup_periods.is_finite() && self.warmup_periods >= 0.0) {
            return Err(bad("warmup_periods", "finite and non-negative"));
        }
        if !(self.relock_cv_threshold.is_finite() && self.relock_cv_threshold > 0.0) {
            return Err(bad("relock_cv_threshold", "finite and positive"));
        }
        if !(self.relock_window_periods.is_finite() && self.relock_window_periods >= 4.0)
        {
            return Err(bad(
                "relock_window_periods",
                "finite and >= 4 (need interval statistics)",
            ));
        }
        if self.max_relock_windows == 0 {
            return Err(bad("max_relock_windows", "at least one re-lock attempt"));
        }
        if !(1..=strent_analysis::markov::MAX_ORDER).contains(&self.entropy_order) {
            return Err(bad(
                "entropy_order",
                "between 1 and the supported Markov order",
            ));
        }
        // `required` transitions for a verdict, plus the `order` bits
        // that prime the context (and so record no transition): a
        // window any smaller could never produce an estimate.
        let required = (4u64 << self.entropy_order).max(64) as usize + self.entropy_order;
        if self.entropy_window_bits < required {
            return Err(bad(
                "entropy_window_bits",
                "window must hold the required transitions plus the priming bits",
            ));
        }
        if !(self.demote_fraction.is_finite()
            && self.demote_fraction > 0.0
            && self.demote_fraction <= 1.0)
        {
            return Err(bad("demote_fraction", "in (0, 1]"));
        }
        Ok(())
    }

    /// The online-estimate level below which a source is demoted:
    /// `demote_fraction * claimed_min_entropy`, as an
    /// [`EntropyEstimate`] so the serving layer compares in the same
    /// fixed-point domain it publishes.
    #[must_use]
    pub fn demotion_threshold(&self) -> EntropyEstimate {
        EntropyEstimate::from_bits_per_bit(self.demote_fraction * self.claimed_min_entropy)
    }

    /// Conditioned bits a full healthy batch yields (before byte
    /// packing): `batch_raw_bits / raw_bits_per_output`, except von
    /// Neumann where the rate is variable and this is the worst-case
    /// floor of 0 — callers treat it as an estimate only.
    #[must_use]
    pub fn batch_conditioned_bits_estimate(&self) -> usize {
        match self.conditioner {
            ConditionerKind::Raw => self.batch_raw_bits,
            // ~1/4 for fair input; an estimate, not a guarantee.
            ConditionerKind::VonNeumann => self.batch_raw_bits / 4,
            ConditionerKind::XorDecimate(f) => self.batch_raw_bits / f as usize,
        }
    }
}

/// A per-bit min-entropy estimate in fixed-point **millibits**
/// (thousandths of a bit per bit, 0..=1000) — the unit the serving
/// layer publishes online estimates in. Fixed point keeps the type
/// `Copy + Eq + Ord` so estimates can live in stats structs, be
/// compared against thresholds, and cross thread boundaries without
/// float-equality traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntropyEstimate(u16);

impl EntropyEstimate {
    /// Converts a bits-per-bit rate (clamped to `[0, 1]`; NaN maps to
    /// 0) into millibits.
    #[must_use]
    pub fn from_bits_per_bit(h: f64) -> Self {
        let h = if h.is_finite() { h.clamp(0.0, 1.0) } else { 0.0 };
        // Round-to-nearest keeps 1.0 -> 1000 exact.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        EntropyEstimate((h * 1000.0).round() as u16)
    }

    /// The raw millibit value (0..=1000).
    #[must_use]
    pub fn millibits(&self) -> u16 {
        self.0
    }

    /// Back to bits per bit.
    #[must_use]
    pub fn bits_per_bit(&self) -> f64 {
        f64::from(self.0) / 1000.0
    }
}

impl std::fmt::Display for EntropyEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}", self.bits_per_bit())
    }
}

/// Lifecycle state of a pooled source — shared vocabulary between the
/// serving crate and the bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// Producing health-passed batches.
    Healthy,
    /// A health alarm fired; output is discarded while the ring drains.
    Quarantined,
    /// Quarantine over; waiting for the re-lock CV to pass.
    Relocking,
}

impl SourceState {
    /// A short stable label (used in reports and JSON).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SourceState::Healthy => "healthy",
            SourceState::Quarantined => "quarantined",
            SourceState::Relocking => "relocking",
        }
    }
}

/// Per-source lifetime counters, as reported by the serving layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Health-passed batches delivered to the pool.
    pub batches_delivered: u64,
    /// Batches discarded because a health test alarmed inside them.
    pub batches_discarded: u64,
    /// Lifetime health alarms (monotone over quarantine cycles, the
    /// denominator of bytes-per-alarm).
    pub alarms: u64,
    /// Completed quarantine → re-lock → readmission cycles.
    pub requarantines: u64,
    /// Unrecoverable rings swapped out for a fresh replacement.
    pub replacements: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_valid_stream_configs() {
        for spec in [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32] {
            let config = spec.stream_config();
            let board = SourceSpec::new(spec, 1).board(0);
            assert!(
                config.predicted_period_ps(&board) > 0.0,
                "{} has a positive predicted period",
                spec.label()
            );
        }
        assert_eq!(RingSpec::Str64.label(), "str64");
    }

    #[test]
    fn mixed_default_validates_and_cycles_presets() {
        let pool = PoolConfig::mixed_default(7, 42);
        pool.validate().expect("default config is valid");
        assert_eq!(pool.sources.len(), 7);
        assert_eq!(pool.sources[0].ring, RingSpec::Str32);
        assert_eq!(pool.sources[1].ring, RingSpec::Str64);
        assert_eq!(pool.sources[2].ring, RingSpec::Iro32);
        assert_eq!(pool.sources[3].ring, RingSpec::Str32);
        // Claim matches the degradation experiment's.
        assert!((pool.claimed_min_entropy - degradation::CLAIMED_H).abs() < f64::EPSILON);
        // Seeds are pairwise distinct (streams must be independent).
        for (i, a) in pool.sources.iter().enumerate() {
            for b in &pool.sources[i + 1..] {
                assert_ne!(a.seed, b.seed);
                assert_ne!(a.board_seed, b.board_seed);
            }
        }
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let good = PoolConfig::mixed_default(3, 1);
        let cases: Vec<(&str, PoolConfig)> = vec![
            ("sources", PoolConfig {
                sources: vec![],
                ..good.clone()
            }),
            ("claimed_min_entropy", PoolConfig {
                claimed_min_entropy: 1.5,
                ..good.clone()
            }),
            ("conditioner", PoolConfig {
                conditioner: ConditionerKind::XorDecimate(0),
                ..good.clone()
            }),
            ("sample_period_factor", PoolConfig {
                sample_period_factor: 0.5,
                ..good.clone()
            }),
            ("meta_window_ps", PoolConfig {
                meta_window_ps: -1.0,
                ..good.clone()
            }),
            ("batch_raw_bits", PoolConfig {
                batch_raw_bits: 0,
                ..good.clone()
            }),
            ("warmup_periods", PoolConfig {
                warmup_periods: f64::NAN,
                ..good.clone()
            }),
            ("relock_cv_threshold", PoolConfig {
                relock_cv_threshold: 0.0,
                ..good.clone()
            }),
            ("relock_window_periods", PoolConfig {
                relock_window_periods: 1.0,
                ..good.clone()
            }),
            ("max_relock_windows", PoolConfig {
                max_relock_windows: 0,
                ..good.clone()
            }),
        ];
        for (field, config) in cases {
            let err = config.validate().expect_err(field);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        good.validate().expect("baseline stays valid");
    }

    #[test]
    fn validation_rejects_bad_estimator_fields() {
        let good = PoolConfig::mixed_default(3, 1);
        for (field, config) in [
            ("entropy_order", PoolConfig {
                entropy_order: 0,
                ..good.clone()
            }),
            ("entropy_order", PoolConfig {
                entropy_order: strent_analysis::markov::MAX_ORDER + 1,
                ..good.clone()
            }),
            ("entropy_window_bits", PoolConfig {
                entropy_window_bits: 8,
                ..good.clone()
            }),
            // One bit short of required transitions + priming bits at
            // the default order 2: 64 + 2 = 66.
            ("entropy_window_bits", PoolConfig {
                entropy_window_bits: 65,
                ..good.clone()
            }),
            ("demote_fraction", PoolConfig {
                demote_fraction: 0.0,
                ..good.clone()
            }),
            ("demote_fraction", PoolConfig {
                demote_fraction: 1.5,
                ..good.clone()
            }),
        ] {
            let err = config.validate().expect_err(field);
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        // The minimal viable window is accepted.
        PoolConfig {
            entropy_window_bits: 66,
            ..good
        }
        .validate()
        .expect("minimal window validates");
    }

    #[test]
    fn entropy_estimate_fixed_point_round_trips() {
        assert_eq!(EntropyEstimate::from_bits_per_bit(1.0).millibits(), 1000);
        assert_eq!(EntropyEstimate::from_bits_per_bit(0.0).millibits(), 0);
        assert_eq!(EntropyEstimate::from_bits_per_bit(f64::NAN).millibits(), 0);
        assert_eq!(EntropyEstimate::from_bits_per_bit(7.0).millibits(), 1000);
        let h = EntropyEstimate::from_bits_per_bit(0.8575);
        assert_eq!(h.millibits(), 858);
        assert!((h.bits_per_bit() - 0.858).abs() < 1e-12);
        assert_eq!(h.to_string(), "0.858");
        // Ordered like the underlying rate.
        assert!(EntropyEstimate::from_bits_per_bit(0.4) < EntropyEstimate::from_bits_per_bit(0.5));
    }

    #[test]
    fn derived_claim_falls_back_below_the_floor() {
        let pool = PoolConfig::mixed_default(3, 42);
        let board = pool.sources[0].board(0);
        // At the default sampling factor the accumulated jitter is a few
        // ps against a multi-ns period: the honest bound is tiny...
        let bound = RingSpec::Str32
            .analytic_entropy_bound(&board, pool.sample_period_factor)
            .expect("bound computes");
        assert!(bound > 0.0 && bound < DERIVED_CLAIM_FLOOR, "bound {bound}");
        // ...so the gating claim falls back to the characterized one and
        // the default pool behaves exactly as before this tier existed.
        let claimed = RingSpec::Str32.claimed_entropy(&board, pool.sample_period_factor);
        assert!((claimed - degradation::CLAIMED_H).abs() < f64::EPSILON);
        // Out-of-domain factors also fall back instead of erroring.
        assert!(RingSpec::Iro32.analytic_entropy_bound(&board, 0.5).is_none());
        assert!(
            (RingSpec::Iro32.claimed_entropy(&board, f64::NAN) - degradation::CLAIMED_H).abs()
                < f64::EPSILON
        );
    }

    #[test]
    fn derived_claim_engages_at_slow_sampling() {
        // Crank the sampling interval until accumulated jitter is a
        // meaningful fraction of the period: q grows as sqrt(factor), so
        // a factor of ~400k takes STR-32's q from ~3.5e-3 to ~2.2 and
        // the bound saturates near 1 — now the derived claim is adopted.
        let board = SourceSpec::new(RingSpec::Str32, 1).board(0);
        let factor = 400_000.0;
        let bound = RingSpec::Str32
            .analytic_entropy_bound(&board, factor)
            .expect("bound computes");
        assert!(bound > 0.9, "bound {bound}");
        let claimed = RingSpec::Str32.claimed_entropy(&board, factor);
        assert!((claimed - bound).abs() < f64::EPSILON);
        // Bound grows monotonically with the sampling factor.
        let slower = RingSpec::Str32
            .analytic_entropy_bound(&board, 4.0 * factor)
            .expect("bound computes");
        assert!(slower >= bound);
    }

    #[test]
    fn str_bound_beats_iro_at_equal_factor() {
        // Same board, same sampling factor: the STR's L-independent
        // jitter against its short period yields a higher q — the
        // paper's entropy-rate advantage, visible straight from the
        // presets.
        let board = SourceSpec::new(RingSpec::Str32, 1).board(0);
        for factor in [100.0, 10_000.0, 100_000.0] {
            let str_bound = RingSpec::Str32
                .analytic_entropy_bound(&board, factor)
                .expect("bound computes");
            let iro_bound = RingSpec::Iro32
                .analytic_entropy_bound(&board, factor)
                .expect("bound computes");
            assert!(
                str_bound >= iro_bound,
                "factor {factor}: STR {str_bound} vs IRO {iro_bound}"
            );
        }
    }

    #[test]
    fn demotion_threshold_scales_with_claim() {
        let mut pool = PoolConfig::mixed_default(1, 1);
        pool.claimed_min_entropy = 0.8;
        pool.demote_fraction = 0.5;
        assert_eq!(pool.demotion_threshold().millibits(), 400);
    }

    #[test]
    fn conditioned_bit_estimates() {
        let mut pool = PoolConfig::mixed_default(1, 1);
        pool.batch_raw_bits = 240;
        pool.conditioner = ConditionerKind::Raw;
        assert_eq!(pool.batch_conditioned_bits_estimate(), 240);
        pool.conditioner = ConditionerKind::XorDecimate(3);
        assert_eq!(pool.batch_conditioned_bits_estimate(), 80);
        pool.conditioner = ConditionerKind::VonNeumann;
        assert_eq!(pool.batch_conditioned_bits_estimate(), 60);
    }

    #[test]
    fn source_state_labels() {
        assert_eq!(SourceState::Healthy.label(), "healthy");
        assert_eq!(SourceState::Quarantined.label(), "quarantined");
        assert_eq!(SourceState::Relocking.label(), "relocking");
        assert_eq!(SourceStats::default().alarms, 0);
    }

    #[test]
    fn fault_armed_spec_round_trips() {
        let plan = strent_sim::FaultPlan::new(3);
        let spec = SourceSpec::new(RingSpec::Str32, 9)
            .with_board_seed(77)
            .with_fault(plan.clone());
        assert_eq!(spec.board_seed, 77);
        assert_eq!(spec.fault, Some(plan));
        assert_eq!(spec.board(4).id(), 4);
    }

    #[test]
    fn backend_defaults_to_full_sim_and_round_trips() {
        let spec = SourceSpec::new(RingSpec::Str32, 9);
        assert_eq!(spec.backend, SourceBackend::FullSim);
        let spec = spec.with_backend(SourceBackend::Surrogate);
        assert_eq!(spec.backend, SourceBackend::Surrogate);
        // The default pool stays on the full simulator, so existing
        // reproduction output is untouched by the surrogate tier.
        let pool = PoolConfig::mixed_default(3, 1);
        assert!(pool
            .sources
            .iter()
            .all(|s| s.backend == SourceBackend::FullSim));
    }

    #[test]
    fn pool_with_backend_switches_every_source() {
        let pool = PoolConfig::mixed_default(5, 7).with_backend(SourceBackend::Surrogate);
        assert!(pool
            .sources
            .iter()
            .all(|s| s.backend == SourceBackend::Surrogate));
        pool.validate().expect("backend choice stays valid");
        // Ring/seed layout is untouched — only the backend flips.
        let full = PoolConfig::mixed_default(5, 7);
        for (a, b) in pool.sources.iter().zip(&full.sources) {
            assert_eq!(a.ring, b.ring);
            assert_eq!(a.seed, b.seed);
        }
    }
}
