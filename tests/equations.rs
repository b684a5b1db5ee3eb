//! The paper's numbered equations, validated against the event-driven
//! simulation (not against themselves): each test measures the
//! simulated system and checks the equation's prediction.

use strentropy::prelude::*;

fn quiet_board() -> Board {
    Board::new(
        Technology::cyclone_iii()
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        1,
    )
}

/// Eq. 1 / Eq. 2 — with `Dff = Drr` (single-LUT stages), `NT = NB`
/// satisfies the evenly-spaced design rule, and indeed every `NT = NB`
/// ring locks evenly spaced.
#[test]
fn eq1_design_rule_locks_evenly_spaced_mode() {
    let board = quiet_board();
    for &l in &[4usize, 8, 16, 24] {
        let config = StrConfig::new(l, l / 2).expect("valid counts");
        let (ratio, target) = analytic::design_rule(&config);
        assert_eq!(ratio, target);
        let run =
            measure::run(&RingConfig::Str(config.clone()), &board, 3, 300).expect("oscillates");
        assert_eq!(
            mode::classify_half_periods(&run.half_periods_ps),
            OscillationMode::EvenlySpaced,
            "L = {l}"
        );
    }
}

/// Eq. 3 — the Charlie delay of a simulated `NT = NB` ring equals
/// `charlie(0) = Ds + Dcharlie` per stage: the period is `2 L
/// charlie(0) / NT` within 1%.
#[test]
fn eq3_charlie_delay_shapes_the_period() {
    let board = quiet_board();
    let tech = board.technology();
    let charlie0 = tech.lut_delay_ps() + tech.charlie_delay_ps();
    for &l in &[8usize, 16, 32] {
        let config = StrConfig::new(l, l / 2)
            .expect("valid counts")
            .with_routing_ps(0.0)
            .expect("valid routing");
        let run =
            measure::run(&RingConfig::Str(config.clone()), &board, 3, 200).expect("oscillates");
        let period = 1e6 / run.frequency_mhz;
        let predicted = 2.0 * l as f64 * charlie0 / (l as f64 / 2.0);
        assert!(
            (period / predicted - 1.0).abs() < 0.01,
            "L = {l}: {period} vs {predicted}"
        );
    }
}

/// Eq. 4 — IRO period jitter follows `sigma_p = sqrt(2k) sigma_g`
/// within 10% for every measured length.
#[test]
fn eq4_iro_jitter_accumulation() {
    let board = quiet_board();
    let sigma_g = board.technology().sigma_g_ps();
    for &k in &[5usize, 15, 41] {
        let config = IroConfig::new(k).expect("valid length");
        let run =
            measure::run(&RingConfig::Iro(config.clone()), &board, 5, 4_000).expect("oscillates");
        let sigma = jitter::period_jitter(&run.periods_ps).expect("enough");
        let predicted = (2.0 * k as f64).sqrt() * sigma_g;
        assert!(
            (sigma / predicted - 1.0).abs() < 0.10,
            "k = {k}: {sigma} vs {predicted}"
        );
    }
}

/// Eq. 5 — STR period jitter is independent of the ring length and of
/// the order of `sqrt(2) sigma_g`: within a factor 1.6 of the
/// prediction at every length, with no growth trend.
#[test]
fn eq5_str_jitter_is_length_independent() {
    let board = quiet_board();
    let predicted = std::f64::consts::SQRT_2 * board.technology().sigma_g_ps();
    let mut sigmas = Vec::new();
    for &l in &[8usize, 32, 96] {
        let config = StrConfig::new(l, l / 2).expect("valid counts");
        let run =
            measure::run(&RingConfig::Str(config.clone()), &board, 5, 4_000).expect("oscillates");
        let sigma = jitter::period_jitter(&run.periods_ps).expect("enough");
        assert!(
            sigma / predicted < 1.6 && sigma / predicted > 0.6,
            "L = {l}: {sigma} vs {predicted}"
        );
        sigmas.push(sigma);
    }
    let spread = sigmas.iter().copied().fold(f64::MIN, f64::max)
        / sigmas.iter().copied().fold(f64::MAX, f64::min);
    assert!(spread < 1.25, "sigma spread over 12x length: {spread}");
}

/// Eq. 6 — the divider method: on i.i.d. periods (IRO), `sigma_p =
/// sigma_cc_mes / (2 sqrt(n))` recovers the true jitter for several
/// divider settings.
#[test]
fn eq6_divider_method_on_iid_periods() {
    let board = quiet_board();
    let config = IroConfig::new(5).expect("valid length");
    let run = measure::run(&RingConfig::Iro(config), &board, 13, 16_000).expect("oscillates");
    let direct = jitter::period_jitter(&run.periods_ps).expect("enough");
    for &n in &[4usize, 16] {
        let m = strentropy::analysis::divider::measure(&run.periods_ps, n).expect("measures");
        assert!(
            (m.sigma_p_ps / direct - 1.0).abs() < 0.12,
            "n = {n}: {} vs {direct}",
            m.sigma_p_ps
        );
        assert!(m.normality.passes(0.001), "hypothesis check");
    }
}

/// Eq. 7 — `sigma_g = sigma_p / sqrt(2k)`: back-computing `sigma_g`
/// from different IRO lengths gives a consistent value equal to the
/// technology's configured local jitter.
#[test]
fn eq7_sigma_g_extraction_is_consistent() {
    let board = quiet_board();
    let true_sigma_g = board.technology().sigma_g_ps();
    let mut estimates = Vec::new();
    for &k in &[9usize, 25, 60] {
        let config = IroConfig::new(k).expect("valid length");
        let run =
            measure::run(&RingConfig::Iro(config.clone()), &board, 17, 4_000).expect("oscillates");
        let sigma = jitter::period_jitter(&run.periods_ps).expect("enough");
        estimates.push(sigma / (2.0 * k as f64).sqrt());
    }
    for e in &estimates {
        assert!((e - true_sigma_g).abs() < 0.25, "estimate {e} vs {true_sigma_g}");
    }
}
