//! Regenerates every table and figure of the paper in one run — the
//! source of `EXPERIMENTS.md`'s measured numbers.
//!
//! By default a failing section aborts the run. Under `--keep-going`
//! the remaining sections still execute, partial output is kept, and a
//! JSON failure report lands on stderr before the (still non-zero)
//! exit — the experiment-level analogue of the sweep layer's partial
//! results and sorted failures.

use std::process::ExitCode;
use std::time::Instant;

use strent_bench::{section_failure_report, ReproOptions};
use strentropy::experiments;

fn main() -> ExitCode {
    let options = match ReproOptions::parse(std::env::args().skip(1), true) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\nusage: repro_all [--quick|--full] [--seed N] [--keep-going]");
            return ExitCode::FAILURE;
        }
    };
    let (effort, seed) = (options.effort, options.seed);
    eprintln!("# repro_all ({effort:?} effort, seed {seed})");

    let mut sections = 0usize;
    let mut failures: Vec<(String, String)> = Vec::new();

    macro_rules! section {
        ($id:literal, $module:ident) => {
            sections += 1;
            let start = Instant::now();
            println!("\n================ {} ================", $id);
            match experiments::$module::run(effort, seed) {
                Ok(result) => {
                    println!("{result}");
                    eprintln!("[{} done in {:.1}s]", $id, start.elapsed().as_secs_f64());
                }
                Err(err) => {
                    eprintln!("{} failed: {err}", $id);
                    if !options.keep_going {
                        return ExitCode::FAILURE;
                    }
                    failures.push(($id.to_owned(), err.to_string()));
                }
            }
        };
    }

    section!("FIG5", fig5);
    section!("FIG7", fig7);
    section!("FIG8", fig8);
    section!("TAB1", table1);
    section!("TAB2", table2);
    section!("FIG9", fig9);
    section!("FIG11", fig11);
    section!("FIG12", fig12);
    section!("OBS-A", obs_a);
    section!("EXT-DET", ext_det);
    section!("EXT-METHOD", ext_method);
    section!("EXT-TRNG", ext_trng);
    section!("EXT-MODE", ext_mode);
    section!("EXT-CHARLIE", ext_charlie);
    section!("EXT-FLICKER", ext_flicker);
    section!("EXT-RESTART", ext_restart);
    section!("EXT-MULTI", ext_multi);
    section!("EXT-COHERENT", ext_coherent);

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}", section_failure_report(sections, &failures));
        ExitCode::FAILURE
    }
}
