//! The restart experiment, as you would see it on a storage scope:
//! overlay many restarts of the same oscillator from the same initial
//! state and watch the edges fan out — the visual certificate that the
//! jitter is thermal, not deterministic.
//!
//! Run with: `cargo run --release --example restart_scope`

use std::error::Error;

use strentropy::prelude::*;
use strentropy::trng::restart;

fn main() -> Result<(), Box<dyn Error>> {
    let board = Board::new(Technology::cyclone_iii(), 0, 42);
    let source = RingConfig::Str(StrConfig::new(16, 8)?);
    let period = source.predicted_period_ps(&board);

    // 96 restarts; probe the dispersion of edges 2, 8, 32, 128.
    let edge_indices = [2usize, 8, 32, 128];
    let outcome = restart::run(&source, &board, 7, 96, &[period], &edge_indices)?;

    println!("16-stage STR, 96 restarts from the identical token pattern\n");
    println!("edge-time dispersion (the scope's 'fan-out'):");
    for (i, &k) in outcome.edge_indices.iter().enumerate() {
        let sigma = outcome.edge_sigma_ps[i];
        let bar = "#".repeat((sigma * 4.0) as usize);
        println!("  edge {k:>4}: sigma = {sigma:6.2} ps  |{bar}");
    }
    println!(
        "\nsqrt(k) growth means every restart diverges thermally;\n\
         a pseudo-random source would print zeros here."
    );

    // The same campaign at a noisy corner shows the entropy onset.
    let noisy = Board::new(
        Technology::cyclone_iii()
            .with_sigma_g_ps(60.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        42,
    );
    let source = RingConfig::Str(StrConfig::new(8, 4)?);
    let noisy_period = source.predicted_period_ps(&noisy);
    let delays: Vec<f64> = [2.0, 10.0, 40.0, 160.0]
        .iter()
        .map(|m| m * noisy_period)
        .collect();
    let outcome = restart::run(&source, &noisy, 9, 96, &delays, &[1])?;
    println!("\nbit sampled at a fixed delay after restart (noisy corner):");
    for ((delay, h), bits) in delays
        .iter()
        .zip(outcome.entropy_per_delay())
        .zip(&outcome.per_delay_bits)
    {
        println!(
            "  t = {:>6.0} ps ({:>4.0} periods): ones = {:>2}/96, H = {h:.3}",
            delay,
            delay / noisy_period,
            bits.count_ones()
        );
    }
    Ok(())
}
