//! Closed-form predictions for both ring families.
//!
//! These are the paper's analytic results (Sec. III/IV), evaluated on our
//! device model. They serve as cross-checks for the event-driven
//! simulations — agreement between the two is itself one of the
//! reproduction's validation criteria.

use strent_device::Board;

use crate::iro::IroConfig;
use crate::str_ring::StrConfig;

/// Predicted IRO period: two laps of the event through all stage static
/// delays at the board's DC operating point (evaluated at `t = 0`).
#[must_use]
pub fn iro_period_ps(config: &IroConfig, board: &Board) -> f64 {
    let supply = board.supply();
    2.0 * config
        .cells(board)
        .iter()
        .map(|c| c.static_delay_ps(supply, 0.0))
        .sum::<f64>()
}

/// Predicted IRO frequency in MHz.
#[must_use]
pub fn iro_frequency_mhz(config: &IroConfig, board: &Board) -> f64 {
    1e6 / iro_period_ps(config, board)
}

/// Eq. 4: predicted IRO period jitter `sigma_period = sqrt(2L) * sigma_g`.
#[must_use]
pub fn iro_sigma_period_ps(config: &IroConfig, board: &Board) -> f64 {
    (2.0 * config.length() as f64).sqrt() * board.technology().sigma_g_ps()
}

/// Predicted STR period in the evenly-spaced mode.
///
/// The output of a stage toggles at every token passage; with `NT` tokens
/// taking `Deff` per stage, passages arrive every `L * Deff / NT`, so the
/// period is `T = 2 * L * Deff / NT`.
///
/// For `NT = NB` (the paper's Eq. 2 setup, `Dff = Drr` in a LUT
/// implementation) the steady-state separation is zero and
/// `Deff = Ds + Dcharlie` — the Charlie diagram bottom. For `NT != NB`
/// this is a lower bound on `Deff` (the separation leaves the bottom),
/// so the prediction is exact for the paper's configurations and
/// approximate otherwise.
#[must_use]
pub fn str_period_ps(config: &StrConfig, board: &Board) -> f64 {
    let supply = board.supply();
    let tech = board.technology();
    let charlie_nominal = config.charlie_ps(board);
    let deff_sum: f64 = config
        .cells(board)
        .iter()
        .map(|cell| {
            let v = supply.voltage_at(0.0);
            let scaling = cell.scaling();
            let temp = scaling.temperature_factor(cell.temp_c());
            let dch = charlie_nominal * cell.process_factor(tech.lut_delay_ps())
                * scaling.transistor_factor(v)
                * temp;
            cell.static_delay_ps(supply, 0.0) + dch
        })
        .sum();
    // Mean effective stage delay times 2L/NT.
    2.0 * deff_sum / config.tokens() as f64
}

/// Predicted STR frequency in MHz (evenly-spaced mode).
#[must_use]
pub fn str_frequency_mhz(config: &StrConfig, board: &Board) -> f64 {
    1e6 / str_period_ps(config, board)
}

/// Predicted STR period for **any** token/bubble ratio, from the
/// timing-closure equation of the Charlie model (the general form of
/// the Hamon time-accurate analysis).
///
/// In the evenly-spaced steady state every stage fires at interval
/// `h = T/2`; adjacent stages fire `delta = NT h / L` apart; and the
/// enabling input separation is `s = h (NB - NT) / L`. Substituting
/// into the Charlie firing rule gives the closure equation
///
/// ```text
/// h/2 = Deff + sqrt(Dch^2 + (h (NB - NT) / (2L))^2)
/// ```
///
/// whose squared form is quadratic in `h`; the physical root (the one
/// with `h >= 2 Deff`, where `Deff` is the voltage/process-scaled
/// static stage delay and `Dch` the scaled Charlie magnitude) yields
/// `T = 2h`. For `NT = NB` it reduces to [`str_period_ps`]'s
/// `T = 2 L (Deff + Dch) / NT` with `s = 0`.
///
/// Uses the board's mean effective stage delay (per-cell process
/// factors averaged), like the specialized prediction.
#[must_use]
pub fn str_period_general_ps(config: &StrConfig, board: &Board) -> f64 {
    let supply = board.supply();
    let tech = board.technology();
    let charlie_nominal = config.charlie_ps(board);
    let cells = config.cells(board);
    let n = cells.len() as f64;
    let v = supply.voltage_at(0.0);
    let (mut ds_sum, mut dch_sum) = (0.0, 0.0);
    for cell in &cells {
        let scaling = cell.scaling();
        let temp = scaling.temperature_factor(cell.temp_c());
        ds_sum += cell.static_delay_ps(supply, 0.0);
        dch_sum += charlie_nominal
            * cell.process_factor(tech.lut_delay_ps())
            * scaling.transistor_factor(v)
            * temp;
    }
    let ds = ds_sum / n;
    let dch = dch_sum / n;
    let l = config.length() as f64;
    let r = (config.bubbles() as f64 - config.tokens() as f64) / (2.0 * l);
    // (h/2 - Ds)^2 = Dch^2 + (h r)^2
    // => h^2 (1/4 - r^2) - h Ds + (Ds^2 - Dch^2) = 0.
    let a = 0.25 - r * r;
    let discriminant = (ds * ds - 4.0 * a * (ds * ds - dch * dch)).max(0.0);
    let h = (ds + discriminant.sqrt()) / (2.0 * a);
    2.0 * h
}

/// Eq. 5: predicted STR period jitter `sigma_period ~ sqrt(2) * sigma_g`,
/// independent of the ring length.
#[must_use]
pub fn str_sigma_period_ps(board: &Board) -> f64 {
    std::f64::consts::SQRT_2 * board.technology().sigma_g_ps()
}

/// Eq. 1, the evenly-spaced design rule: the token/bubble ratio should
/// equal `Dff / Drr`. Returns `(actual ratio, target ratio)`; in the LUT
/// implementation `Dff = Drr`, so the target is 1.
#[must_use]
pub fn design_rule(config: &StrConfig) -> (f64, f64) {
    (
        config.tokens() as f64 / config.bubbles() as f64,
        1.0, // Dff / Drr for a single-LUT stage (the paper's Eq. 2 premise)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::{Supply, Technology};

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

    #[test]
    fn iro_predictions_match_paper_calibration() {
        let board = quiet_board();
        // IRO 3C with no routing: 2*3*255 = 1530 ps -> 653.6 MHz.
        let c3 = IroConfig::new(3)
            .expect("valid")
            .with_routing_ps(0.0)
            .expect("valid routing");
        assert!((iro_period_ps(&c3, &board) - 1530.0).abs() < 1e-9);
        assert!((iro_frequency_mhz(&c3, &board) - 653.6).abs() < 0.5);
        // IRO 5C with calibrated routing lands near Table I's 376 MHz.
        let c5 = IroConfig::new(5).expect("valid");
        let f5 = iro_frequency_mhz(&c5, &board);
        assert!((f5 - 376.0).abs() < 10.0, "IRO 5C {f5} MHz");
        // IRO 80C near 23 MHz.
        let c80 = IroConfig::new(80).expect("valid");
        let f80 = iro_frequency_mhz(&c80, &board);
        assert!((f80 - 23.0).abs() < 1.0, "IRO 80C {f80} MHz");
    }

    #[test]
    fn str_predictions_match_paper_calibration() {
        let board = quiet_board();
        // STR 4C: ~653 MHz.
        let c4 = StrConfig::new(4, 2).expect("valid");
        let f4 = str_frequency_mhz(&c4, &board);
        assert!((f4 - 653.0).abs() < 15.0, "STR 4C {f4} MHz");
        // STR 96C with calibrated routing: ~320 MHz.
        let c96 = StrConfig::new(96, 48).expect("valid");
        let f96 = str_frequency_mhz(&c96, &board);
        assert!((f96 - 320.0).abs() < 10.0, "STR 96C {f96} MHz");
        // STR 24C: ~433 MHz.
        let c24 = StrConfig::new(24, 12).expect("valid");
        let f24 = str_frequency_mhz(&c24, &board);
        assert!((f24 - 433.0).abs() < 15.0, "STR 24C {f24} MHz");
    }

    #[test]
    fn general_period_reduces_to_the_balanced_case() {
        let board = quiet_board();
        for &l in &[8usize, 24, 96] {
            let config = StrConfig::new(l, l / 2).expect("valid counts");
            let special = str_period_ps(&config, &board);
            let general = str_period_general_ps(&config, &board);
            assert!(
                (general / special - 1.0).abs() < 1e-9,
                "L = {l}: {general} vs {special}"
            );
        }
    }

    #[test]
    fn general_period_matches_simulation_across_token_counts() {
        // The headline validation: the closure formula predicts the
        // simulated frequency of unbalanced rings within 2%.
        let board = quiet_board();
        for tokens in [4usize, 8, 12, 16, 20, 24, 28] {
            let config = StrConfig::new(32, tokens).expect("valid counts");
            let predicted = 1e6 / str_period_general_ps(&config, &board);
            let ring = crate::RingConfig::Str(config.clone());
            let run = crate::measure::run(&ring, &board, 3, 200).expect("oscillates");
            assert!(
                (run.frequency_mhz / predicted - 1.0).abs() < 0.02,
                "NT = {tokens}: sim {} vs predicted {predicted}",
                run.frequency_mhz
            );
        }
    }

    #[test]
    fn general_period_is_symmetric_and_peaks_at_balance() {
        let board = quiet_board();
        let period = |tokens: usize| {
            str_period_general_ps(
                &StrConfig::new(32, tokens).expect("valid counts"),
                &board,
            )
        };
        // Token/bubble exchange symmetry: T(NT) = T(NB).
        for tokens in [4usize, 8, 12] {
            let mirrored = 32 - tokens;
            assert!(
                (period(tokens) / period(mirrored) - 1.0).abs() < 1e-12,
                "NT = {tokens}"
            );
        }
        // The balanced ring is the fastest.
        assert!(period(16) < period(12));
        assert!(period(16) < period(20));
    }

    #[test]
    fn jitter_predictions() {
        let board = quiet_board();
        let c5 = IroConfig::new(5).expect("valid");
        // These use the technology sigma_g (zeroed in quiet_board).
        assert_eq!(iro_sigma_period_ps(&c5, &board), 0.0);
        let board = Board::new(Technology::cyclone_iii(), 0, 1);
        let s = iro_sigma_period_ps(&c5, &board);
        assert!((s - (10.0_f64).sqrt() * 2.0).abs() < 1e-12);
        assert!((str_sigma_period_ps(&board) - 2.0 * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn voltage_moves_predictions() {
        let mut board = quiet_board();
        let c = StrConfig::new(8, 4).expect("valid");
        let f_nom = str_frequency_mhz(&c, &board);
        board.set_supply(Supply::dc(1.0));
        let f_low = str_frequency_mhz(&c, &board);
        assert!(f_low < f_nom);
    }

    #[test]
    fn design_rule_for_balanced_ring() {
        let c = StrConfig::new(16, 8).expect("valid");
        let (actual, target) = design_rule(&c);
        assert_eq!(actual, 1.0);
        assert_eq!(target, 1.0);
        let c = StrConfig::new(32, 10).expect("valid");
        assert!((design_rule(&c).0 - 10.0 / 22.0).abs() < 1e-12);
    }
}
