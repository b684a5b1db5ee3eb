//! Statistical-equivalence harness for the calibrated surrogate tier
//! (`strent_rings::surrogate`): proves the O(1)-per-period analytical
//! generator is exchangeable with the event-driven simulation for the
//! serving presets, within the tolerances documented in
//! `docs/surrogate.md`.
//!
//! Three layers:
//!
//! 1. **Golden moments** (`tests/fixtures/golden_moments.txt`): period
//!    mean/σ, Allan deviation and lag-1 autocorrelation at seed 2012.
//!    The full sim must reproduce them bit-for-bit (regression); the
//!    surrogate must land inside the equivalence bands.
//! 2. **Downstream parity**: SP 800-90B health verdicts, min-entropy /
//!    Markov estimates, and the quick battery agree across backends —
//!    and deliberately corrupted calibration is *detected*.
//! 3. **Properties**: geometry / `sigma_g` / sampler-frequency sweeps
//!    of the σ_period agreement (the Eq. 5 scaling), health-verdict
//!    parity, and a proof that boundary configurations select the
//!    `FullSim` fallback.

use proptest::prelude::*;

use strent_analysis::{allan, jitter};
use strent_rings::fault::rising_interval_cv;
use strent_rings::measure::{self, WARMUP_PERIODS};
use strent_rings::surrogate::{
    surrogate_eligible, Calibrator, EntropySource, SourceBackend, SurrogateModel,
    SurrogateStream, BOUNDARY_DEVIATION,
};
use strent_rings::{analytic, RingConfig, StrConfig};
use strent_sim::{RngTree, Time};
use strent_trng::phase::PhaseModel;
use strent_trng::sampler::Sampler;
use strent_trng::{battery, entropy, health, BitString};
use strentropy::prelude::*;

/// The paper seed every golden value is pinned to.
const SEED: u64 = 2012;

/// Periods retained per golden run (after the warm-up discard).
const GOLDEN_PERIODS: usize = 3000;

/// Allan cluster size recorded in the fixture.
const ALLAN_M: usize = 8;

/// Sampler period as a multiple of the ring period (incommensurate).
const SAMPLE_FACTOR: f64 = 2.37;

/// RNG key for sampler metastability draws.
const SAMPLER_KEY: u64 = 0xB17;

/// Claimed min-entropy for the SP 800-90B parity checks (the serving
/// default's order of magnitude).
const CLAIMED_H: f64 = 0.4;

fn preset_board(ring: &RingSpec) -> Board {
    SourceSpec::new(*ring, SEED).board(0)
}

/// The event-driven reference period series for a serving preset.
fn full_periods(ring: &RingSpec, n: usize) -> Vec<f64> {
    let board = preset_board(ring);
    let run =
        measure::run(&ring.stream_config(), &board, SEED, n).expect("reference ring oscillates");
    run.periods_ps
}

/// The calibrated surrogate's period series (same warm-up discard).
fn surrogate_periods(ring: &RingSpec, n: usize) -> Vec<f64> {
    let board = preset_board(ring);
    let model = Calibrator::default()
        .fit(&ring.stream_config(), &board, SEED)
        .expect("calibration run oscillates");
    let mut stream = SurrogateStream::new(model, SEED);
    stream.next_periods(WARMUP_PERIODS);
    stream.prune_before(stream.now());
    stream.next_periods(n)
}

/// The four golden statistics of a period series.
fn golden_stats(periods: &[f64]) -> (f64, f64, f64, f64) {
    let n = periods.len() as f64;
    let mean = periods.iter().sum::<f64>() / n;
    let sigma =
        (periods.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n).sqrt();
    let adev = allan::allan_deviation(periods, ALLAN_M).expect("enough periods");
    let rho1 = jitter::period_autocorrelation(periods, 1).expect("enough periods");
    (mean, sigma, adev, rho1)
}

/// Samples `count` bits from a backend through the serving-style
/// sampler (metastability window disabled so verdicts are pure
/// waveform).
fn sampled_bits(
    config: &RingConfig,
    board: &Board,
    backend: SourceBackend,
    count: usize,
    factor: f64,
) -> BitString {
    let mut source =
        EntropySource::build(config, board, SEED, None, backend).expect("builds");
    let period = source.expected_period_ps();
    let sample_ps = factor * period;
    let t0 = WARMUP_PERIODS as f64 * period;
    let horizon = t0 + (count as f64 + 2.0) * sample_ps;
    while source.now().as_ps() < horizon {
        let deficit = horizon - source.now().as_ps();
        source.advance_by(deficit + period).expect("advances");
    }
    let sampler = Sampler::new(sample_ps, 0.0).expect("valid sampler");
    let mut rng = RngTree::new(SEED).stream(SAMPLER_KEY);
    sampler
        .sample_trace_until(source.trace(), Time::from_ps(t0), count, source.now(), &mut rng)
        .expect("trace covers the sample span")
}

/// Bits from a hand-built (possibly corrupted) surrogate model.
fn model_bits(model: SurrogateModel, count: usize) -> BitString {
    let mut stream = SurrogateStream::new(model, SEED);
    let sample_ps = SAMPLE_FACTOR * model.period_mean_ps;
    let t0 = WARMUP_PERIODS as f64 * model.period_mean_ps;
    let horizon = t0 + (count as f64 + 2.0) * sample_ps;
    while stream.now().as_ps() < horizon {
        let deficit = horizon - stream.now().as_ps();
        stream.advance_by(deficit + model.period_mean_ps);
    }
    let sampler = Sampler::new(sample_ps, 0.0).expect("valid sampler");
    let mut rng = RngTree::new(SEED).stream(SAMPLER_KEY);
    sampler
        .sample_trace_until(stream.trace(), Time::from_ps(t0), count, stream.now(), &mut rng)
        .expect("trace covers the sample span")
}

/// One parsed fixture row.
struct GoldenRow {
    label: String,
    mean_ps: f64,
    sigma_ps: f64,
    adev_ps: f64,
    rho1: f64,
}

/// Parses `tests/fixtures/golden_moments.txt` (whitespace-separated
/// columns, `#` comments — no JSON parser is vendored).
fn golden_rows() -> Vec<GoldenRow> {
    include_str!("fixtures/golden_moments.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut cols = l.split_whitespace();
            let mut next = || cols.next().expect("five fixture columns").to_owned();
            let label = next();
            let parse = |s: String| s.parse::<f64>().expect("numeric fixture column");
            GoldenRow {
                label,
                mean_ps: parse(next()),
                sigma_ps: parse(next()),
                adev_ps: parse(next()),
                rho1: parse(next()),
            }
        })
        .collect()
}

fn presets() -> [RingSpec; 3] {
    [RingSpec::Str32, RingSpec::Str64, RingSpec::Iro32]
}

/// Regenerates the fixture: `cargo test --test surrogate_equivalence
/// -- --ignored print_golden_moments --nocapture` and paste the rows.
#[test]
#[ignore = "fixture generator, not a check"]
fn print_golden_moments() {
    for ring in presets() {
        let (mean, sigma, adev, rho1) = golden_stats(&full_periods(&ring, GOLDEN_PERIODS));
        println!("{} {mean:.6} {sigma:.6} {adev:.6} {rho1:.6}", ring.label());
    }
}

#[test]
fn full_sim_reproduces_the_golden_moments_exactly() {
    let rows = golden_rows();
    assert_eq!(rows.len(), 3, "one row per serving preset");
    for (ring, row) in presets().iter().zip(&rows) {
        assert_eq!(ring.label(), row.label, "fixture row order");
        let (mean, sigma, adev, rho1) = golden_stats(&full_periods(ring, GOLDEN_PERIODS));
        // The simulation is a pure function of the seed: the fixture is
        // a regression pin, so agreement is to printed precision.
        assert!((mean - row.mean_ps).abs() < 1e-4, "{} mean {mean}", row.label);
        assert!((sigma - row.sigma_ps).abs() < 1e-4, "{} sigma {sigma}", row.label);
        assert!((adev - row.adev_ps).abs() < 1e-4, "{} adev {adev}", row.label);
        assert!((rho1 - row.rho1).abs() < 1e-4, "{} rho1 {rho1}", row.label);
    }
}

#[test]
fn surrogate_lands_inside_the_equivalence_bands() {
    for (ring, row) in presets().iter().zip(&golden_rows()) {
        let (mean, sigma, adev, rho1) =
            golden_stats(&surrogate_periods(ring, GOLDEN_PERIODS));
        // Bands documented in docs/surrogate.md §equivalence.
        assert!(
            (mean - row.mean_ps).abs() / row.mean_ps < 0.01,
            "{}: surrogate mean {mean} vs golden {}",
            row.label,
            row.mean_ps
        );
        let sigma_ratio = sigma / row.sigma_ps;
        assert!(
            (0.6..=1.6).contains(&sigma_ratio),
            "{}: sigma ratio {sigma_ratio}",
            row.label
        );
        let adev_ratio = adev / row.adev_ps;
        assert!(
            (0.4..=2.5).contains(&adev_ratio),
            "{}: allan ratio {adev_ratio}",
            row.label
        );
        assert!(
            (rho1 - row.rho1).abs() < 0.2,
            "{}: rho1 {rho1} vs golden {}",
            row.label,
            row.rho1
        );
    }
}

#[test]
fn health_verdicts_agree_across_backends() {
    for ring in presets() {
        let board = preset_board(&ring);
        let config = ring.stream_config();
        let full = sampled_bits(&config, &board, SourceBackend::FullSim, 8192, SAMPLE_FACTOR);
        let surr =
            sampled_bits(&config, &board, SourceBackend::Surrogate, 8192, SAMPLE_FACTOR);
        let full_scan = health::scan(&full, CLAIMED_H).expect("valid claim");
        let surr_scan = health::scan(&surr, CLAIMED_H).expect("valid claim");
        assert_eq!(full_scan, (0, 0), "{}: full sim is healthy", ring.label());
        assert_eq!(surr_scan, full_scan, "{}: verdict parity", ring.label());
    }
}

#[test]
fn entropy_estimates_agree_across_backends() {
    for ring in presets() {
        let board = preset_board(&ring);
        let config = ring.stream_config();
        let full = sampled_bits(&config, &board, SourceBackend::FullSim, 20_000, SAMPLE_FACTOR);
        let surr =
            sampled_bits(&config, &board, SourceBackend::Surrogate, 20_000, SAMPLE_FACTOR);
        let h_full = entropy::min_entropy(&full).expect("enough bits");
        let h_surr = entropy::min_entropy(&surr).expect("enough bits");
        assert!(
            (h_full - h_surr).abs() < 0.08,
            "{}: min-entropy {h_full} vs {h_surr}",
            ring.label()
        );
        let m_full = entropy::markov_entropy(&full).expect("enough bits");
        let m_surr = entropy::markov_entropy(&surr).expect("enough bits");
        assert!(
            (m_full - m_surr).abs() < 0.08,
            "{}: markov {m_full} vs {m_surr}",
            ring.label()
        );
    }
}

/// Battery-grade bits for a (possibly corrupted) calibration, through
/// the repo's decimated phase-accumulation TRNG front end.
///
/// Direct trace sampling at a few periods per sample is quasi-periodic
/// for *any* backend (phase drifts ~σ/T per sample), so battery-quality
/// output requires decimation: the server samples every `k` periods,
/// with `k` fixed from the healthy calibration so the accumulated
/// jitter `sqrt(k)·σ_period` is half a period (the paper's quality
/// regime, same construction as the `ext_trng` experiment). The same
/// `k` is then applied to corrupted calibrations — a broken model must
/// be *detected downstream*, not silently re-tuned around.
fn battery_bits(model: &SurrogateModel, periods_per_sample: f64, count: usize) -> BitString {
    let sigma_acc = periods_per_sample.sqrt() * model.sigma_period_ps();
    let mut phase = PhaseModel::new(model.period_mean_ps, sigma_acc, SEED)
        .expect("calibrated period is positive")
        .with_duty(model.duty)
        .expect("calibrated duty is a proper fraction");
    phase.generate(count)
}

#[test]
fn quick_battery_passes_surrogate_bits_and_catches_corruption() {
    let ring = RingSpec::Str32;
    let board = preset_board(&ring);
    let model = Calibrator::default()
        .fit(&ring.stream_config(), &board, SEED)
        .expect("calibrates");
    // Decimation depth the server derives from the healthy calibration:
    // accumulated jitter over k periods is half a period (q = 0.5).
    let k = (0.5 * model.period_mean_ps / model.sigma_period_ps()).powi(2);

    // Healthy calibration: zero battery alarms, zero health alarms —
    // both on the decimated battery stream and on the raw trace samples.
    let good = battery_bits(&model, k, 30_000);
    let report = battery::run_quick(&good).expect("enough bits");
    assert!(
        report.all_passed(0.01),
        "healthy surrogate fails the quick battery:\n{}",
        report.to_table(0.01)
    );
    assert_eq!(health::scan(&good, CLAIMED_H).expect("valid claim"), (0, 0));
    let raw = model_bits(model, 8192);
    assert_eq!(health::scan(&raw, CLAIMED_H).expect("valid claim"), (0, 0));

    // Corruption 1: a biased duty cycle must trip monobit.
    let biased = SurrogateModel { duty: 0.66, ..model };
    let report =
        battery::run_quick(&battery_bits(&biased, k, 30_000)).expect("enough bits");
    assert!(
        !report.all_passed(0.01),
        "biased duty slipped through:\n{}",
        report.to_table(0.01)
    );

    // Corruption 2: zeroed jitter freezes the phase walk, so the same
    // decimation depth now yields a (near-)deterministic pattern the
    // structure tests must reject.
    let frozen = SurrogateModel {
        sigma_white_ps: 0.0,
        sigma_edge_ps: 0.0,
        sigma_flicker_ps: 0.0,
        ..model
    };
    let report =
        battery::run_quick(&battery_bits(&frozen, k, 30_000)).expect("enough bits");
    assert!(
        !report.all_passed(0.01),
        "jitter-free waveform slipped through:\n{}",
        report.to_table(0.01)
    );

    // Corruption 3: a near-constant output must raise 800-90B alarms.
    let stuck = SurrogateModel { duty: 0.95, ..model };
    let (rct, apt) =
        health::scan(&battery_bits(&stuck, k, 30_000), CLAIMED_H).expect("valid claim");
    assert!(rct + apt > 0, "near-constant stream raised no health alarm");
}

/// The one-pass sampler against the recording path it replaces:
/// `SurrogateStream::sample_batch` on one stream, `advance_by` +
/// `Sampler::sample_trace_until` + `prune_before` on a second stream
/// of the same model and seed, at `PooledSource`'s batch cadence with
/// re-lock windows and run-ahead advances interleaved.
#[test]
fn one_pass_sampling_matches_the_recording_path() {
    for ring in presets() {
        let model = Calibrator::default()
            .fit(&ring.stream_config(), &preset_board(&ring), SEED)
            .expect("calibrates");
        for factor in [8.37, 2.024] {
            for window_ps in [0.0, 10.0, 200.0] {
                for count in [1, 7, 256] {
                    let label = format!("{} x{factor} w{window_ps} n{count}", ring.label());
                    one_pass_matches(model, factor, window_ps, count, &label);
                }
            }
        }
    }
}

fn one_pass_matches(model: SurrogateModel, factor: f64, window_ps: f64, count: usize, label: &str) {
    let serving = PoolConfig::mixed_default(1, SEED);
    let warmup_ps = serving.warmup_periods * model.period_mean_ps;
    let relock_ps = serving.relock_window_periods * model.period_mean_ps;
    let sample_ps = factor * model.period_mean_ps;
    let sampler = Sampler::new(sample_ps, window_ps).expect("valid sampler");
    let mut oracle = SurrogateStream::new(model, SEED);
    let mut fused = SurrogateStream::new(model, SEED);
    let mut oracle_rng = RngTree::new(SEED).stream(SAMPLER_KEY);
    let mut fused_rng = RngTree::new(SEED).stream(SAMPLER_KEY);
    let mut cursor_ps = warmup_ps;
    for batch in 0..12 {
        if batch % 5 == 4 {
            // A caller that ran ahead: the batch reads recorded
            // transitions and draws nothing.
            let ahead = 2.0 * sample_ps * count as f64 + window_ps;
            oracle.advance_by(ahead);
            fused.advance_by(ahead);
        }
        let needed_ps = cursor_ps + sample_ps * count as f64 + window_ps;
        let now_ps = oracle.now().as_ps();
        if now_ps < needed_ps {
            oracle.advance_by(needed_ps - now_ps);
        }
        let expected = sampler
            .sample_trace_until(
                oracle.trace(),
                Time::from_ps(cursor_ps),
                count,
                oracle.now(),
                &mut oracle_rng,
            )
            .expect("the trace covers the batch");
        let mut bits = BitString::with_capacity(count);
        fused
            .sample_batch(
                cursor_ps,
                sample_ps,
                count,
                window_ps,
                &mut fused_rng,
                |bit| bits.push_bool(bit),
            )
            .expect("the draws cover the batch");
        assert_eq!(bits, expected, "{label}: batch {batch} bits");
        assert_eq!(fused.now(), oracle.now(), "{label}: batch {batch} horizon");
        assert_eq!(
            fused.stats(),
            oracle.stats(),
            "{label}: batch {batch} draws"
        );
        // Only the tail is kept: the last transition at or before the
        // final instant and the recorded waveform after it.
        cursor_ps += sample_ps * count as f64;
        let last = Time::from_ps(cursor_ps);
        let tail = fused.trace().transitions();
        assert!(
            oracle.trace().transitions().ends_with(tail),
            "{label}: batch {batch} tail is not the recorded waveform's"
        );
        assert!(
            tail.first().is_some_and(|&(t, _)| t <= last)
                && tail[1..].iter().all(|&(t, _)| t > last),
            "{label}: batch {batch} trace is not the tail: {tail:?}"
        );
        let keep_ps = relock_ps + window_ps;
        if cursor_ps > keep_ps {
            oracle.prune_before(Time::from_ps(cursor_ps - keep_ps));
        }
        if batch % 3 == 2 {
            // `PooledSource`'s re-lock check over one window.
            let from = oracle.now();
            oracle.advance_by(relock_ps);
            fused.advance_by(relock_ps);
            let until = oracle.now();
            assert_eq!(fused.now(), until, "{label}: batch {batch} re-lock horizon");
            let cv =
                |s: &SurrogateStream| rising_interval_cv(s.trace(), from.as_ps(), until.as_ps());
            assert!(cv(&oracle).is_some(), "{label}: the window holds edges");
            assert_eq!(cv(&fused), cv(&oracle), "{label}: batch {batch} re-lock CV");
            oracle.prune_before(from);
            fused.prune_before(from);
            assert_eq!(
                fused.trace(),
                oracle.trace(),
                "{label}: batch {batch} re-lock trace"
            );
            cursor_ps = until.as_ps() + warmup_ps;
        }
    }
}

/// Valid near-balanced STR geometries (evenly-spaced on the FPGA
/// technology, so surrogate-eligible).
fn balanced_strs() -> impl Strategy<Value = (usize, usize)> {
    (5usize..=12).prop_map(|half| (2 * half, half.div_ceil(2) * 2))
}

/// Gate-jitter magnitudes to sweep, ps.
fn sigma_gs() -> impl Strategy<Value = f64> {
    (20u32..=80).prop_map(f64::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Eq. 5 scaling parity: across geometry and `sigma_g` the
    /// calibrated model's σ_period tracks the event-driven σ_period,
    /// and both sit inside the paper band around `sqrt(2)·σ_g`.
    #[test]
    fn calibrated_sigma_tracks_the_full_sim_across_the_sweep(
        (len, tokens) in balanced_strs(),
        sigma_g in sigma_gs(),
    ) {
        let tech = Technology::cyclone_iii().with_sigma_g_ps(sigma_g);
        let board = Board::new(tech, 0, 7);
        let config = StrConfig::new(len, tokens).expect("strategy yields valid counts");
        let stream_config = RingConfig::Str(config);
        prop_assume!(surrogate_eligible(&stream_config, &board, false));
        let run = measure::run(&stream_config, &board, SEED, 800).expect("oscillates");
        let n = run.periods_ps.len() as f64;
        let mean = run.periods_ps.iter().sum::<f64>() / n;
        let full_sigma = (run.periods_ps.iter().map(|p| (p - mean).powi(2)).sum::<f64>()
            / n)
            .sqrt();
        let model = Calibrator::default()
            .fit(&stream_config, &board, SEED)
            .expect("calibrates");
        let ratio = model.sigma_period_ps() / full_sigma;
        prop_assert!(
            (0.6..=1.6).contains(&ratio),
            "model sigma {} vs full {} (ratio {ratio}) at L={len} NT={tokens} sigma_g={sigma_g}",
            model.sigma_period_ps(),
            full_sigma
        );
        // Both stay inside the empirical Eq. 5 band (tests/equations.rs
        // documents the factor-1.6 envelope; calibration windows add
        // sampling spread on top).
        let eq5 = analytic::str_sigma_period_ps(&board);
        let band = 2.0;
        for sigma in [full_sigma, model.sigma_period_ps()] {
            prop_assert!(
                sigma / eq5 < band && eq5 / sigma < band,
                "sigma {sigma} outside the Eq. 5 band {eq5} at sigma_g={sigma_g}"
            );
        }
    }

    /// Health-test *verdict* parity holds across sampler frequencies:
    /// both backends agree on whether the stream is flagged. Exact
    /// alarm counters are not compared — at near-commensurate factors
    /// (e.g. exactly 2 or 3 periods per sample) both backends alarm
    /// heavily, but the counts ride on individual jitter draws.
    #[test]
    fn health_parity_holds_across_sampler_frequencies(
        (len, tokens) in balanced_strs(),
        factor_tenths in 17u32..=33,
    ) {
        let factor = f64::from(factor_tenths) / 10.0;
        let board = Board::new(Technology::cyclone_iii(), 0, 7);
        let config = StrConfig::new(len, tokens).expect("valid counts");
        let stream_config = RingConfig::Str(config);
        prop_assume!(surrogate_eligible(&stream_config, &board, false));
        let full = sampled_bits(&stream_config, &board, SourceBackend::FullSim, 4096, factor);
        let surr = sampled_bits(&stream_config, &board, SourceBackend::Surrogate, 4096, factor);
        let (full_rct, full_apt) = health::scan(&full, CLAIMED_H).expect("valid claim");
        let (surr_rct, surr_apt) = health::scan(&surr, CLAIMED_H).expect("valid claim");
        prop_assert_eq!(
            full_rct + full_apt > 0,
            surr_rct + surr_apt > 0,
            "factor {}: full ({}, {}) vs surrogate ({}, {})",
            factor, full_rct, full_apt, surr_rct, surr_apt
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Boundary configurations provably select the `FullSim` fallback:
    /// any STR whose Eq. 1 deviation exceeds the margin on a
    /// drafting-capable technology is ineligible, and a `Surrogate`
    /// request resolves to the full stream.
    #[test]
    fn boundary_configs_select_the_full_sim_fallback(
        len in 10usize..=24,
        pairs in 1usize..=11,
    ) {
        let tokens = 2 * pairs;
        prop_assume!(tokens + 1 < len);
        let config = StrConfig::new(len, tokens).expect("valid counts");
        let (actual, target) = analytic::design_rule(&config);
        let deviation = (actual / target).max(target / actual);
        prop_assume!(deviation > BOUNDARY_DEVIATION);
        let board = Board::new(Technology::asic_like(), 0, 7);
        let stream_config = RingConfig::Str(config);
        prop_assert!(!surrogate_eligible(&stream_config, &board, false));
        let source =
            EntropySource::build(&stream_config, &board, SEED, None, SourceBackend::Surrogate)
                .expect("fallback builds");
        prop_assert_eq!(source.selected_backend(), SourceBackend::FullSim);
    }
}
