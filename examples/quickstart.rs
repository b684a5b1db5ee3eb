//! Quickstart: build the paper's flagship oscillator (a 96-stage
//! self-timed ring with `NT = NB = 48`) on a simulated Cyclone III
//! board, measure it, and compare against the analytic model and the
//! paper's reported numbers.
//!
//! Run with: `cargo run --release --example quickstart`

use std::error::Error;

use strentropy::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    // A board is one seeded draw from the technology's process
    // distribution, operating at the nominal 1.2 V / 25 C point.
    let board = Board::new(Technology::cyclone_iii(), 0, 42);

    // The paper's workhorse ring: evenly-spaced mode guaranteed by
    // NT = NB (its Eq. 2).
    let config = StrConfig::new(96, 48)?;

    // Predict, then simulate.
    let predicted_mhz = analytic::str_frequency_mhz(&config, &board);
    let run = measure::run(&RingConfig::Str(config), &board, 7, 2_000)?;
    let sigma_period = jitter::period_jitter(&run.periods_ps)?;

    println!("96-stage self-timed ring (NT = NB = 48)");
    println!("  analytic frequency : {predicted_mhz:8.2} MHz");
    println!("  simulated frequency: {:8.2} MHz", run.frequency_mhz);
    println!("  period jitter      : {sigma_period:8.2} ps");
    println!("  (paper: ~320-328 MHz, sigma_p in the 2-4 ps band)");

    // The same measurement for the IRO the paper compares against.
    let iro = IroConfig::new(5)?;
    let iro_run = measure::run(&RingConfig::Iro(iro.clone()), &board, 7, 2_000)?;
    let iro_sigma = jitter::period_jitter(&iro_run.periods_ps)?;
    println!("\n5-stage inverter ring oscillator");
    println!("  simulated frequency: {:8.2} MHz", iro_run.frequency_mhz);
    println!("  period jitter      : {iro_sigma:8.2} ps");
    println!(
        "  Eq. 4 prediction   : {:8.2} ps  (sqrt(2k) * sigma_g)",
        analytic::iro_sigma_period_ps(&iro, &board)
    );

    // The STR's jitter does not grow with ring length; the IRO's does.
    // That, plus robustness (Tables I and II), is the paper's thesis.
    println!("\nsigma_p ratio STR96/IRO5: {:.2}", sigma_period / iro_sigma);
    Ok(())
}
