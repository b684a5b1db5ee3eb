//! Generate a 256-bit key from a simulated STR-based elementary TRNG:
//! ring simulation -> calibrated phase model -> raw bits -> von Neumann
//! conditioning -> statistical verdicts -> hex key.
//!
//! Run with: `cargo run --release --example trng_keygen`

use std::error::Error;

use strentropy::prelude::*;
use strentropy::trng::elementary::ElementaryTrng;

fn main() -> Result<(), Box<dyn Error>> {
    let board = Board::new(Technology::cyclone_iii(), 0, 42);

    // The entropy source: the paper's 96-stage STR. The reference clock
    // is slow enough that the jitter accumulated per sample is a large
    // fraction of the ring period.
    let source = RingConfig::Str(StrConfig::new(96, 48)?);
    let trng = ElementaryTrng::new(source, 20.0 * 3_125.0, 10.0)?;

    // Calibrate the fast phase model from an event-driven run, then
    // crank its accumulated jitter to the q = 0.45 operating point
    // (a slower reference; see EXT-TRNG for the scaling law).
    let probe = trng.calibrated_phase_model(&board, 3, 3_000)?;
    println!(
        "calibrated source: T = {:.1} ps, sigma_acc(20T) = {:.1} ps",
        probe.period_ps(),
        probe.sigma_acc_ps()
    );
    let mut model =
        strentropy::trng::phase::PhaseModel::new(probe.period_ps(), 0.45 * probe.period_ps(), 3)?;

    // Raw stream, conditioned stream, verdicts.
    let raw = model.generate(120_000);
    let conditioned = postprocess::von_neumann(&raw);
    println!(
        "raw bits: {} (bias {:+.4}), after von Neumann: {} (bias {:+.4})",
        raw.len(),
        entropy::bias(&raw)?,
        conditioned.len(),
        entropy::bias(&conditioned)?
    );
    println!(
        "entropy: shannon {:.4}, min {:.4}, markov {:.4}",
        entropy::shannon_bit_entropy(&conditioned)?,
        entropy::min_entropy(&conditioned)?,
        entropy::markov_entropy(&conditioned)?
    );

    let report = battery::run_all(&conditioned)?;
    println!("\nstatistical battery:\n{}", report.to_table(0.01));
    if !report.all_passed(0.01) {
        println!("warning: not all tests passed — do not use this key");
    }

    // Online health tests (SP 800-90B): a deployed generator runs these
    // continuously on the raw stream and kills the output on alarm.
    let (rct_alarms, apt_alarms) =
        strentropy::trng::health::scan(&raw, entropy::min_entropy(&raw)?.clamp(0.05, 1.0))?;
    println!("health tests on the raw stream: RCT alarms = {rct_alarms}, APT alarms = {apt_alarms}");

    // Pack the first 256 conditioned bits as the key.
    let key = conditioned.slice(0, 256).pack();
    let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
    println!("256-bit key: {hex}");
    Ok(())
}
