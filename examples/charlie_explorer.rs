//! Explore the Charlie diagram (the paper's Fig. 7): plot `charlie(s)`
//! for several effect magnitudes, recover the parameters with the
//! hyperbola fit, and check the analytic curve against an actual
//! simulated ring.
//!
//! Run with: `cargo run --release --example charlie_explorer`

use std::error::Error;

use strentropy::analysis::fit;
use strentropy::prelude::*;
use strentropy::rings::CharlieModel;

fn main() -> Result<(), Box<dyn Error>> {
    let ds = 255.0;
    println!("Charlie diagrams for Ds = {ds} ps (columns: Dcharlie = 0, 64, 128, 256 ps)\n");
    let models: Vec<CharlieModel> = [0.0, 64.0, 128.0, 256.0]
        .iter()
        .map(|&dch| CharlieModel::new(ds, dch))
        .collect::<Result<_, _>>()?;

    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "s (ps)", "Dch=0", "Dch=64", "Dch=128", "Dch=256"
    );
    for i in -8..=8 {
        let s = f64::from(i) * 75.0;
        print!("{s:>8.0}");
        for model in &models {
            print!(" {:>10.1}", model.charlie_delay(s));
        }
        println!();
    }

    // Fit recovery: sample the Dch = 128 curve and invert it.
    let diagram = models[2].diagram(600.0, 60);
    let (s, d): (Vec<f64>, Vec<f64>) = diagram.into_iter().unzip();
    let fitted = fit::charlie_hyperbola(&s, &d)?;
    println!(
        "\nhyperbola fit of the Dch=128 curve: Ds = {:.2} ps, Dcharlie = {:.2} ps",
        fitted.static_delay_ps, fitted.charlie_delay_ps
    );

    // Cross-check against a simulated ring: an NT = NB ring runs at
    // separation 0, so its period measures charlie(0) directly.
    let board = Board::new(
        Technology::cyclone_iii()
            .with_sigma_g_ps(0.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0),
        0,
        1,
    );
    let config = StrConfig::new(16, 8)?.with_routing_ps(0.0)?;
    let run = measure::run(&RingConfig::Str(config), &board, 1, 200)?;
    let deff = (1e6 / run.frequency_mhz) / 4.0; // T = 4 Deff at NT = NB = L/2
    println!(
        "simulated 16-stage ring: Deff = {:.1} ps vs charlie(0) = {:.1} ps",
        deff,
        models[2].charlie_delay(0.0)
    );
    Ok(())
}
