//! Property-based tests of the Charlie-effect stage model (Eq. 3) and
//! of the jitter-accumulation shapes it produces at ring level: the
//! paper's Eq. 4 (STR period jitter stays a stage-local `~sqrt(2)
//! sigma_g`) against Eq. 5 (IRO period jitter accumulates over the
//! whole loop as `sqrt(2L) sigma_g`).

use proptest::prelude::*;

use strent_device::{Board, Technology};
use strent_rings::{measure, CharlieModel, IroConfig, RingConfig, StrConfig};

/// Arbitrary valid `(Ds, Dcharlie)` model parameters, ps.
fn model_params() -> impl Strategy<Value = (f64, f64)> {
    (10.0f64..600.0, 0.0f64..300.0)
}

/// A board with white phase noise only — no process variation — so the
/// ring-level properties isolate the Eq. 4 / Eq. 5 jitter shapes.
fn jitter_board() -> Board {
    Board::new(
        Technology::cyclone_iii()
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. 3 is an even function of the input separation.
    #[test]
    fn charlie_delay_is_symmetric(
        (ds, dch) in model_params(),
        s in -5_000.0f64..5_000.0,
    ) {
        let model = CharlieModel::new(ds, dch).expect("strategy yields valid params");
        prop_assert_eq!(model.charlie_delay(s), model.charlie_delay(-s));
    }

    /// Eq. 3 grows monotonically in `|s|`: the Charlie smoothing is
    /// strongest (delay largest relative to `Ds + |s|`) at simultaneous
    /// inputs, and the curve never dips as the inputs separate.
    #[test]
    fn charlie_delay_is_monotone_in_separation(
        (ds, dch) in model_params(),
        lo in 0.0f64..4_000.0,
        step in 0.001f64..1_000.0,
    ) {
        let model = CharlieModel::new(ds, dch).expect("valid params");
        prop_assert!(model.charlie_delay(lo + step) > model.charlie_delay(lo));
    }

    /// Eq. 3 is pinched between its two asymptotic regimes:
    /// `max(Ds + Dcharlie, Ds + |s|) <= charlie(s) <= Ds + Dcharlie + |s|`,
    /// and the curve is 1-Lipschitz in `s` (slope never exceeds the
    /// pure-causality slope of 1).
    #[test]
    fn charlie_delay_is_bounded_and_lipschitz(
        (ds, dch) in model_params(),
        a in -4_000.0f64..4_000.0,
        b in -4_000.0f64..4_000.0,
    ) {
        let model = CharlieModel::new(ds, dch).expect("valid params");
        for s in [a, b] {
            let d = model.charlie_delay(s);
            prop_assert!(d >= (ds + dch).max(ds + s.abs()) - 1e-9);
            prop_assert!(d <= ds + dch + s.abs() + 1e-9);
        }
        prop_assert!(
            (model.charlie_delay(a) - model.charlie_delay(b)).abs()
                <= (a - b).abs() + 1e-9
        );
    }

    /// The output-event form of Eq. 3 is causal (never fires before the
    /// later enabling input plus the static delay) and symmetric under
    /// swapping the forward and reverse inputs.
    #[test]
    fn output_time_is_causal_and_input_symmetric(
        (ds, dch) in model_params(),
        t_fwd in 0.0f64..100_000.0,
        t_rev in 0.0f64..100_000.0,
    ) {
        let model = CharlieModel::new(ds, dch).expect("valid params");
        let t = model.output_time(t_fwd, t_rev);
        prop_assert!(t >= t_fwd.max(t_rev) + ds - 1e-9);
        prop_assert_eq!(t, model.output_time(t_rev, t_fwd));
    }

    /// Drafting only ever shortens the delay, by at most its magnitude,
    /// and the reduction decays monotonically with the elapsed time.
    #[test]
    fn drafting_reduction_is_bounded_and_decaying(
        magnitude in 0.0f64..90.0,
        tau in 1.0f64..500.0,
        elapsed in 0.0f64..2_000.0,
        step in 0.0f64..2_000.0,
    ) {
        let model = CharlieModel::new(100.0, 20.0)
            .expect("valid params")
            .with_drafting(magnitude, tau)
            .expect("magnitude below Ds");
        let now = model.drafting_reduction(elapsed);
        prop_assert!((0.0..=magnitude).contains(&now));
        prop_assert!(model.drafting_reduction(elapsed + step) <= now + 1e-12);
    }
}

proptest! {
    // Each case runs two full event-driven simulations; keep the count
    // low, as tests/ring_properties.rs does at workspace root.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Eq. 4 vs Eq. 5 shape at ring level: for any (even) length,
    /// the IRO's period jitter accumulates over the whole loop,
    /// `sigma ~ sqrt(2L) sigma_g`, while the balanced STR's stays a
    /// stage-local quantity of order `sqrt(2) sigma_g`, independent of
    /// `L` — so from modest lengths on the IRO is strictly noisier.
    #[test]
    fn str_jitter_stays_local_while_iro_jitter_accumulates(pairs in 2usize..=8) {
        // `tokens = L/2` must itself be even, so lengths step by 4.
        let half = 2 * pairs;
        let length = 2 * half;
        let board = jitter_board();
        let sigma_g = board.technology().sigma_g_ps();

        let iro = IroConfig::new(length).expect("positive length");
        let iro_run = measure::run(&RingConfig::Iro(iro), &board, 5, 400).expect("oscillates");
        let iro_sigma =
            strent_analysis::jitter::period_jitter(&iro_run.periods_ps).expect("enough");

        let str_config = StrConfig::new(length, half).expect("balanced counts");
        let str_run = measure::run(&RingConfig::Str(str_config), &board, 5, 400).expect("oscillates");
        let str_sigma =
            strent_analysis::jitter::period_jitter(&str_run.periods_ps).expect("enough");

        // Eq. 5: the IRO accumulates 2L independent crossings per period.
        let iro_predicted = (2.0 * length as f64).sqrt() * sigma_g;
        prop_assert!(
            (iro_sigma / iro_predicted - 1.0).abs() < 0.25,
            "L={length}: IRO sigma {iro_sigma} vs sqrt(2L) sigma_g {iro_predicted}"
        );

        // Eq. 4 shape: the STR's jitter is a bounded multiple of the
        // stage-local sqrt(2) sigma_g, with no sqrt(L) growth.
        let str_scale = std::f64::consts::SQRT_2 * sigma_g;
        prop_assert!(
            str_sigma > 0.5 * str_scale && str_sigma < 2.5 * str_scale,
            "L={length}: STR sigma {str_sigma} vs sqrt(2) sigma_g {str_scale}"
        );

        // The comparison the paper draws from the two equations: at any
        // length in this band the IRO is already the noisier ring.
        prop_assert!(
            str_sigma < iro_sigma,
            "L={length}: STR {str_sigma} should undercut IRO {iro_sigma}"
        );
    }
}
