//! Cross-crate pipeline tests: the full stack from event-driven
//! simulation through analysis to TRNG evaluation, plus artifact export.

use strentropy::prelude::*;
use strentropy::trng::elementary::ElementaryTrng;

/// sim -> rings -> trace -> VCD: the exported waveform is a well-formed
/// VCD document containing every stage of the ring.
#[test]
fn ring_waveforms_export_to_vcd() {
    let board = Board::new(Technology::cyclone_iii(), 0, 5);
    let mut sim = Simulator::new(3);
    let config = StrConfig::new(8, 4).expect("valid counts");
    let handle = strentropy::rings::str_ring::build(&config, &board, &mut sim).expect("wires");
    for &net in handle.nets() {
        sim.watch(net).expect("net exists");
    }
    sim.run_until(Time::from_ns(100.0));

    let mut out = Vec::new();
    sim.write_vcd(&mut out, "str8").expect("write to Vec");
    let text = String::from_utf8(out).expect("ascii");
    assert!(text.contains("$timescale 1 fs $end"));
    assert!(text.contains("$scope module str8 $end"));
    for i in 0..8 {
        assert!(text.contains(&format!("str{i}")), "stage {i} missing");
    }
    // Time-ordered change records exist.
    assert!(text.matches('#').count() > 50);
}

/// rings -> analysis: frequency and jitter measured through the public
/// API agree with the paper-calibrated analytic model.
#[test]
fn measured_statistics_match_analytic_models() {
    let board = Board::new(Technology::cyclone_iii(), 0, 5);
    for &(l, nt) in &[(8usize, 4usize), (24, 12), (48, 24)] {
        let config = StrConfig::new(l, nt).expect("valid counts");
        let run =
            measure::run(&RingConfig::Str(config.clone()), &board, 9, 400).expect("oscillates");
        let predicted = analytic::str_frequency_mhz(&config, &board);
        assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 0.05,
            "L={l}: {} vs {predicted}",
            run.frequency_mhz
        );
    }
    for &l in &[3usize, 9, 25] {
        let config = IroConfig::new(l).expect("valid length");
        let run =
            measure::run(&RingConfig::Iro(config.clone()), &board, 9, 400).expect("oscillates");
        let predicted = analytic::iro_frequency_mhz(&config, &board);
        assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 0.05,
            "L={l}: {} vs {predicted}",
            run.frequency_mhz
        );
    }
}

/// rings -> trng: full bit-exact path — simulate an STR, sample it with
/// a reference clock, condition the bits — is deterministic and
/// produces both symbols.
#[test]
fn simulated_trng_bits_end_to_end() {
    let board = Board::new(Technology::cyclone_iii(), 0, 5);
    let source = RingConfig::Str(StrConfig::new(16, 8).expect("valid counts"));
    let trng = ElementaryTrng::new(source, 7_777.0, 20.0).expect("valid");
    let bits = trng.generate_simulated(&board, 11, 600).expect("simulates");
    assert_eq!(bits.len(), 600);
    assert!(bits.count_ones() > 50 && bits.count_zeros() > 50);
    let again = trng.generate_simulated(&board, 11, 600).expect("simulates");
    assert_eq!(bits, again, "same seed, same bits");
    let other = trng.generate_simulated(&board, 12, 600).expect("simulates");
    assert_ne!(bits, other, "different seed, different bits");

    // Conditioning reduces bias below the raw stream's.
    let raw_bias = entropy::bias(&bits).expect("non-empty").abs();
    let vn = postprocess::von_neumann(&bits);
    if vn.len() >= 100 {
        let vn_bias = entropy::bias(&vn).expect("non-empty").abs();
        assert!(vn_bias < raw_bias + 0.1);
    }
}

/// analysis <- rings: the divider measurement applied to a simulated
/// IRO recovers the directly computed jitter (the EXT-METHOD headline
/// at integration scope).
#[test]
fn divider_method_on_simulated_iro() {
    let board = Board::new(Technology::cyclone_iii(), 0, 5);
    let config = IroConfig::new(9).expect("valid length");
    let run = measure::run(&RingConfig::Iro(config), &board, 21, 8_000).expect("oscillates");
    let (direct, estimated, rel) =
        strentropy::analysis::divider::validate_against_direct(&run.periods_ps, 8)
            .expect("measures");
    assert!(rel < 0.15, "direct {direct} vs estimated {estimated}");
}

/// Determinism across the whole stack: an experiment rerun with the
/// same seed is bit-identical; a different seed moves the statistics.
#[test]
fn experiments_are_reproducible() {
    use strentropy::experiments::{fig12, Effort};
    let a = fig12::run(Effort::Quick, 7).expect("runs");
    let b = fig12::run(Effort::Quick, 7).expect("runs");
    assert_eq!(a, b);
    let c = fig12::run(Effort::Quick, 8).expect("runs");
    assert_ne!(a, c);
}

/// Boards are independent silicon: the same ring measured on different
/// boards of the farm gives close but not identical frequencies.
#[test]
fn board_farm_gives_distinct_but_close_frequencies() {
    let farm = BoardFarm::new(Technology::cyclone_iii(), 5, 77);
    let config = StrConfig::new(24, 12).expect("valid counts");
    let freqs: Vec<f64> = farm
        .iter()
        .map(|b| {
            measure::run(&RingConfig::Str(config.clone()), b, 3, 200)
                .expect("oscillates")
                .frequency_mhz
        })
        .collect();
    let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
    for f in &freqs {
        assert!((f / mean - 1.0).abs() < 0.05, "outlier {f} vs mean {mean}");
    }
    let all_same = freqs.windows(2).all(|w| w[0] == w[1]);
    assert!(!all_same, "process variation must differentiate boards");
}
