//! Cross-crate property-based tests: arbitrary valid ring
//! configurations, end to end through the simulator and the analytic
//! models. Case counts are kept small because every case is a full
//! event-driven simulation.

use proptest::prelude::*;

use strentropy::prelude::*;

fn quiet_board() -> Board {
    Board::new(
        Technology::cyclone_iii()
            .with_sigma_g_ps(0.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        1,
    )
}

/// Valid `(length, tokens)` pairs for small STRs.
fn str_configs() -> impl Strategy<Value = (usize, usize)> {
    (4usize..=24).prop_flat_map(|len| {
        let max_pairs = (len - 1) / 2;
        (Just(len), 1..=max_pairs).prop_map(|(len, pairs)| (len, 2 * pairs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every valid STR configuration oscillates, locks evenly spaced
    /// (Charlie-dominated fabric), and lands on the general timing-
    /// closure frequency within 3%.
    #[test]
    fn any_valid_str_matches_the_closure_formula((len, tokens) in str_configs()) {
        let board = quiet_board();
        let config = StrConfig::new(len, tokens).expect("strategy yields valid counts");
        let run = measure::run(&RingConfig::Str(config.clone()), &board, 7, 150).expect("oscillates");
        prop_assert_eq!(
            mode::classify_half_periods(&run.half_periods_ps),
            OscillationMode::EvenlySpaced
        );
        let predicted = 1e6 / analytic::str_period_general_ps(&config, &board);
        prop_assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 0.03,
            "L={} NT={}: sim {} vs predicted {}",
            len, tokens, run.frequency_mhz, predicted
        );
    }

    /// Every IRO length oscillates at the analytic two-lap period.
    #[test]
    fn any_iro_matches_the_two_lap_period(len in 1usize..=20) {
        let board = quiet_board();
        let config = IroConfig::new(len).expect("positive length");
        let run = measure::run(&RingConfig::Iro(config.clone()), &board, 7, 150).expect("oscillates");
        let predicted = analytic::iro_frequency_mhz(&config, &board);
        prop_assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 1e-6,
            "L={len}: sim {} vs predicted {}",
            run.frequency_mhz,
            predicted
        );
    }

    /// With jitter enabled, every valid STR keeps its period jitter in
    /// a bounded band independent of the configuration. Strongly
    /// unbalanced rings sit on the *linear* part of the Charlie curve
    /// where the smoothing vanishes (the paper's own caveat about its
    /// 4-stage STR), so the band is wider than the NT = NB value but
    /// never grows with length the way an IRO's does.
    #[test]
    fn any_str_has_bounded_jitter((len, tokens) in str_configs()) {
        let board = Board::new(
            Technology::cyclone_iii()
                .with_sigma_intra(0.0)
                .with_sigma_inter(0.0),
            0,
            1,
        );
        let config = StrConfig::new(len, tokens).expect("valid counts");
        let run = measure::run(&RingConfig::Str(config), &board, 11, 400).expect("oscillates");
        let sigma = jitter::period_jitter(&run.periods_ps).expect("enough");
        // Token- or bubble-starved rings degrade markedly (the scarce
        // species stops averaging and the Charlie smoothing is lost) —
        // which is why the paper designs at NT = NB — but the jitter
        // never diverges: it stays within a small multiple of the
        // equal-length IRO's sqrt(2L) sigma_g.
        let sigma_g = board.technology().sigma_g_ps();
        let iro_equiv = (2.0 * len as f64).sqrt() * sigma_g;
        prop_assert!(
            sigma > 1.0 && sigma < 3.0 * iro_equiv,
            "L={} NT={}: sigma {} vs IRO-equivalent {}",
            len, tokens, sigma, iro_equiv
        );
        // Balanced rings stay in the paper's 2-4 ps band.
        if tokens * 2 == len {
            prop_assert!((2.0..4.5).contains(&sigma), "balanced sigma {sigma}");
        }
    }
}
