//! Property-based battery for the entropy-estimation subsystem: the
//! analytic bit-pattern bound, the order-`k` Markov estimator, and the
//! calibrated surrogate tier reproducing the bound's inputs.
//!
//! Three claims, stressed across random geometry and corruption:
//!
//! 1. the Markov estimate never undercuts the analytic bound by more
//!    than the documented agreement band when both see the same
//!    phase-diffusion physics;
//! 2. the estimator is a pure function of the bit stream — chunked and
//!    whole feeding agree exactly, and short streams are a typed
//!    refusal, not a zero;
//! 3. corrupted streams (biased, periodic, stuck) score far below any
//!    claimed rate, which is what makes online demotion meaningful.

use proptest::prelude::*;

use strent_analysis::entropy::{min_entropy_bound, sampling_ratio};
use strent_analysis::jitter::period_jitter;
use strent_analysis::markov::MarkovCounts;
use strent_analysis::AnalysisError;
use strent_rings::measure;
use strent_rings::surrogate::Calibrator;
use strent_trng::bits::BitString;
use strent_trng::entropy::markov_min_entropy;
use strent_trng::error::TrngError;
use strent_trng::phase::PhaseModel;
use strentropy::calibration;
use strentropy::experiments::ext_entropy::{AGREEMENT_BAND, MARKOV_ORDER};
use strentropy::pool::{RingSpec, SourceSpec};

/// Bits per Markov judgement — enough that the estimator's
/// small-sample confidence haircut stays inside [`AGREEMENT_BAND`].
const JUDGE_BITS: usize = 65_536;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across the whole quality-ratio range the Markov estimate of the
    /// phase-diffusion stream confirms the analytic bound: it may sit
    /// above (the bound is conservative) but never undercuts it by
    /// more than the band.
    #[test]
    fn markov_estimate_never_undercuts_the_bound(
        q in 0.02_f64..0.9,
        period_ps in 500.0_f64..5_000.0,
        seed in 0_u64..1_000,
    ) {
        let sigma_acc_ps = q * period_ps;
        let mut model = PhaseModel::new(period_ps, sigma_acc_ps, seed)
            .expect("valid phase model");
        let bits = model.generate(JUDGE_BITS);
        let markov = markov_min_entropy(&bits, MARKOV_ORDER).expect("judged");
        let ratio = sampling_ratio(sigma_acc_ps, period_ps).expect("valid ratio");
        let bound = min_entropy_bound(ratio).expect("valid bound");
        prop_assert!(
            markov - bound >= -AGREEMENT_BAND,
            "q={q:.3}: markov {markov:.4} undercuts bound {bound:.4}"
        );
    }

    /// The Markov counter is a pure fold over the stream: feeding one
    /// whole slice and feeding arbitrary chunkings of it yield exactly
    /// the same verdict.
    #[test]
    fn chunked_and_whole_feeding_agree_exactly(
        bits in prop::collection::vec(0_u8..2, 600..2_000),
        chunk in 1_usize..97,
        order in 1_usize..4,
    ) {
        let mut whole = MarkovCounts::new(order).expect("valid order");
        whole.feed(&bits);
        let mut chunked = MarkovCounts::new(order).expect("valid order");
        for piece in bits.chunks(chunk) {
            chunked.feed(piece);
        }
        let (a, b) = (whole.min_entropy(), chunked.min_entropy());
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
            (Err(AnalysisError::InsufficientData { .. }),
             Err(AnalysisError::InsufficientData { .. })) => {}
            other => prop_assert!(false, "verdicts diverged: {:?}", other),
        }
    }

    /// A stream too short for the requested order is a typed
    /// [`InsufficientData`] refusal — never a zero-entropy verdict.
    #[test]
    fn short_streams_refuse_with_a_typed_error(
        len in 0_usize..48,
        order in 2_usize..8,
    ) {
        let mut bits = BitString::new();
        for i in 0..len {
            bits.push((i % 2) as u8);
        }
        let err = markov_min_entropy(&bits, order).expect_err("underfed");
        prop_assert!(
            matches!(
                err,
                TrngError::Analysis(AnalysisError::InsufficientData { .. })
            ),
            "expected the typed refusal, got: {err}"
        );
    }

    /// Heavily biased streams score no better than their ideal
    /// single-bit min-entropy (plus the estimation band), far below a
    /// balanced source's claim.
    #[test]
    fn biased_streams_score_at_most_their_bias_entropy(
        p_one in 0.05_f64..0.25,
        seed in 0_u64..1_000,
    ) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut bits = BitString::with_capacity(JUDGE_BITS);
        for _ in 0..JUDGE_BITS {
            // xorshift64* keeps the battery free of ambient RNG.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64
                / (1_u64 << 53) as f64;
            bits.push(u8::from(u < p_one));
        }
        let markov = markov_min_entropy(&bits, MARKOV_ORDER).expect("judged");
        let ideal = -(1.0 - p_one).log2();
        prop_assert!(
            markov <= ideal + AGREEMENT_BAND,
            "p={p_one:.3}: markov {markov:.4} above ideal {ideal:.4}"
        );
        prop_assert!(markov < 0.5, "biased stream must sit below a healthy claim");
    }

    /// Periodic and stuck streams — the classic failure modes an
    /// online estimator exists to catch — collapse to (near) zero.
    #[test]
    fn periodic_and_stuck_streams_collapse(period in 1_usize..8) {
        let mut periodic = BitString::with_capacity(JUDGE_BITS);
        for i in 0..JUDGE_BITS {
            periodic.push(u8::from(i % (2 * period) < period));
        }
        // A context of `period` bits pins the phase of a square wave
        // of half-period `period`, so an order >= period chain sees
        // every transition as deterministic.
        let order = period.max(MARKOV_ORDER);
        let h = markov_min_entropy(&periodic, order).expect("judged");
        prop_assert!(h < 0.05, "period {period}: scored {h:.4}");
        let mut stuck = BitString::with_capacity(JUDGE_BITS);
        for _ in 0..JUDGE_BITS {
            stuck.push(0);
        }
        let h = markov_min_entropy(&stuck, MARKOV_ORDER).expect("judged");
        prop_assert!(h < 0.01, "stuck stream scored {h:.4}");
    }
}

/// The calibrated surrogate's golden moments (mean period, per-period
/// jitter — the quantities the calibration protocol fits) reproduce
/// the full-sim sampling bound for every serving preset: feeding
/// either side's moments through the analytic chain lands on the same
/// min-entropy claim.
#[test]
fn surrogate_golden_moments_reproduce_the_full_sim_bound() {
    let seed = calibration::PAPER_SEED;
    let periods = 3_000;
    // EXT-ENTROPY's middle sampling interval: the steep part of the
    // bound curve, where a drifted sigma shows up hardest.
    let decimation = 20_000.0_f64;
    for preset in [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32] {
        let spec = SourceSpec::new(preset, seed);
        let board = spec.board(0);
        let config = preset.stream_config();
        let run = measure::run(&config, &board, seed, periods).expect("full sim runs");
        let mean = run.periods_ps.iter().sum::<f64>() / run.periods_ps.len() as f64;
        let sigma1 = period_jitter(&run.periods_ps).expect("jitter measures");
        let full_ratio =
            sampling_ratio(sigma1 * decimation.sqrt(), mean).expect("valid ratio");
        let full_bound = min_entropy_bound(full_ratio).expect("valid bound");

        let model = Calibrator::default()
            .fit(&config, &board, seed)
            .expect("calibrates");
        let surr_ratio = sampling_ratio(
            model.sigma_period_ps() * decimation.sqrt(),
            model.period_mean_ps,
        )
        .expect("valid ratio");
        let surr_bound = min_entropy_bound(surr_ratio).expect("valid bound");

        let label = preset.label();
        assert!(
            (model.period_mean_ps - mean).abs() / mean < 0.01,
            "{label}: period drifted ({} vs {mean})",
            model.period_mean_ps
        );
        assert!(
            surr_ratio / full_ratio > 0.7 && surr_ratio / full_ratio < 1.4,
            "{label}: quality ratio drifted ({surr_ratio} vs {full_ratio})"
        );
        assert!(
            (surr_bound - full_bound).abs() < 0.15,
            "{label}: bound drifted ({surr_bound} vs {full_bound})"
        );
        assert!(full_bound > 0.2, "{label}: test sits on a degenerate bound");
    }
}
