//! The attacker's view: modulate the core supply and watch deterministic
//! jitter appear in each oscillator family.
//!
//! Reproduces the mechanism of the paper's refs [1], [2] — the reason
//! robustness to voltage matters for TRNGs — and shows the paper's
//! Sec. IV-B claim: the deterministic component accumulates with ring
//! length in the IRO but stays bounded in the STR.
//!
//! Run with: `cargo run --release --example voltage_attack`

use std::error::Error;

use strentropy::prelude::*;
use strentropy::trng::attack::probe_response;

fn main() -> Result<(), Box<dyn Error>> {
    let board = Board::new(Technology::cyclone_iii(), 0, 42);
    let freq_mhz = 5.0; // modulation frequency
    println!("supply attack: ±1% sine at {freq_mhz} MHz on the 1.2 V core\n");
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12}",
        "ring", "T (ps)", "A_det (ps)", "sigma_p (ps)", "det/random"
    );

    for l in [5usize, 25, 80] {
        let source = RingConfig::Iro(IroConfig::new(l)?);
        let r = probe_response(&source, &board, 0.012, freq_mhz, 11, 3_000)?;
        println!(
            "{:<10} {:>10.0} {:>12.1} {:>14.2} {:>12.2}",
            format!("IRO {l}C"),
            r.mean_period_ps,
            r.det_amplitude_ps,
            r.sigma_random_ps,
            r.det_to_random_ratio()
        );
    }
    for l in [8usize, 32, 96] {
        let source = RingConfig::Str(StrConfig::new(l, l / 2)?);
        let r = probe_response(&source, &board, 0.012, freq_mhz, 11, 3_000)?;
        println!(
            "{:<10} {:>10.0} {:>12.1} {:>14.2} {:>12.2}",
            format!("STR {l}C"),
            r.mean_period_ps,
            r.det_amplitude_ps,
            r.sigma_random_ps,
            r.det_to_random_ratio()
        );
    }

    println!(
        "\nThe IRO's deterministic amplitude grows with its (length-proportional)\n\
         period — the linear accumulation of ref [2] — while the STR's stays small\n\
         and nearly flat: only the token spacing, not the whole revolution, is\n\
         exposed to the common-mode modulation."
    );
    Ok(())
}
