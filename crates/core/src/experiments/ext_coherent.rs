//! EXT-COHERENT — why Table II matters: coherent-sampling calibration
//! across devices.
//!
//! The paper's conclusion singles out coherent-sampling TRNGs (its ref
//! \[7\]) as the design where STR process robustness pays off: the
//! designer must "guarantee that the ring oscillator frequencies will
//! remain in a required interval for all devices of the same family".
//! Here we build the ref-\[7\] architecture from two same-design,
//! differently-placed rings — once from IROs, once from STRs — on each
//! board of a farm, with the pair detuned by the same relative amount
//! (4 % of the period) in both families. The figure of merit is the
//! dispersion across devices of the **beat length** (the quantity the
//! bit extractor is calibrated around): it inherits the per-ring
//! frequency dispersion `sigma_rel` of Table II amplified by the beat's
//! `1/delta` sensitivity, so short IROs drift far more than long STRs.
//!
//! A secondary (simulation-only) finding folded into the dispersion:
//! with process variation the STR's stages no longer all run at zero
//! separation, so its period exceeds the homogeneous-ring prediction by
//! an instance-dependent amount — extra pair dispersion the naive
//! i.i.d. delay-sum model misses.

use std::fmt;

use strent_analysis::stats::Summary;
use strent_device::{BoardFarm, Technology};
use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_trng::coherent::CoherentSampler;

use crate::calibration::PAPER_SEED;
use crate::report::Table;

use super::runner::{measure_ring, ExperimentRunner};
use super::{Effort, ExperimentError};

/// The common relative detune of each pair (fraction of the period).
pub const RELATIVE_DETUNE: f64 = 0.04;

/// Per-family calibration-drift summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CoherentRow {
    /// Display label of the ring pair.
    pub label: String,
    /// Beat length on every board of the farm, in samples.
    pub beats: Vec<f64>,
    /// Mean beat length.
    pub mean_beat: f64,
    /// Relative dispersion (CV) of the beat across devices.
    pub beat_cv: f64,
}

/// The EXT-COHERENT result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtCoherentResult {
    /// IRO-pair and STR-pair rows.
    pub rows: Vec<CoherentRow>,
    /// Number of boards in the farm.
    pub boards: usize,
}

impl fmt::Display for ExtCoherentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-COHERENT — coherent-sampling beat length over {} devices \
             (pairs detuned by {:.0} % of the period)",
            self.boards,
            RELATIVE_DETUNE * 100.0
        )?;
        let mut table = Table::new(&["Pair", "mean beat", "beat CV", "min..max"]);
        for row in &self.rows {
            let min = row.beats.iter().copied().fold(f64::MAX, f64::min);
            let max = row.beats.iter().copied().fold(f64::MIN, f64::max);
            table.row_owned(vec![
                row.label.clone(),
                format!("{:.1}", row.mean_beat),
                format!("{:.1} %", row.beat_cv * 100.0),
                format!("{min:.1} .. {max:.1}"),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-COHERENT experiment on a caller-provided runner: one
/// sharded job per (family, board) cell; each job measures the pair on
/// its board with two seeds forked from the job's subtree.
///
/// # Errors
///
/// Propagates ring simulation and construction errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtCoherentResult, ExperimentError> {
    let periods = runner.effort().size(120, 250);
    let boards = runner.effort().size(8, 24);
    let farm = BoardFarm::new(Technology::cyclone_iii(), boards, PAPER_SEED);
    let farm_boards: Vec<_> = farm.iter().collect();

    let jobs: Vec<(usize, usize)> = (0..2)
        .flat_map(|family| (0..farm_boards.len()).map(move |bi| (family, bi)))
        .collect();
    let beats = runner.run_stage("ext_coherent", &jobs, |job, meter| {
        let (family, bi) = *job.config;
        let board = farm_boards[bi];
        let seed_a = job.rng.fork(0).master_seed();
        let seed_b = job.rng.fork(1).master_seed();
        let (a, b) = if family == 0 {
            // IRO pair (5 stages each, ~376 MHz); dT/dr = 2L.
            let a = IroConfig::new(5).expect("valid length");
            let t_nominal = strent_rings::analytic::iro_period_ps(&a, board);
            let detune = RELATIVE_DETUNE * t_nominal / (2.0 * 5.0);
            let b = IroConfig::new(5)
                .expect("valid length")
                .with_placement_base(100)
                .with_routing_ps(a.routing_ps(board) + detune)?;
            (RingConfig::Iro(a), RingConfig::Iro(b))
        } else {
            // STR pair (96 stages each, ~318 MHz); dT/dr = 2L/NT = 4.
            let a = StrConfig::new(96, 48).expect("valid counts");
            let t_nominal = strent_rings::analytic::str_period_ps(&a, board);
            let detune = RELATIVE_DETUNE * t_nominal * 48.0 / (2.0 * 96.0);
            let b = StrConfig::new(96, 48)
                .expect("valid counts")
                .with_placement_base(1000)
                .with_routing_ps(a.routing_ps(board) + detune)?;
            (RingConfig::Str(a), RingConfig::Str(b))
        };
        let ta = 1e6 / measure_ring(&a, board, seed_a, periods, meter)?.frequency_mhz;
        let tb = 1e6 / measure_ring(&b, board, seed_b, periods, meter)?.frequency_mhz;
        Ok(CoherentSampler::new(ta, tb, 0.0, 1)?.beat_samples())
    })?;

    let rows = vec![
        make_row("IRO 5C pair", beats[..farm_boards.len()].to_vec()),
        make_row("STR 96C pair", beats[farm_boards.len()..].to_vec()),
    ];
    Ok(ExtCoherentResult { rows, boards })
}

/// Runs the EXT-COHERENT experiment.
///
/// # Errors
///
/// Propagates ring simulation and construction errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtCoherentResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

fn make_row(label: &str, beats: Vec<f64>) -> CoherentRow {
    let summary = Summary::from_slice(&beats);
    CoherentRow {
        label: label.to_owned(),
        mean_beat: summary.mean(),
        beat_cv: summary.std_dev() / summary.mean(),
        beats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_pairs_hold_their_calibration_better() {
        let result = run(Effort::Quick, 31).expect("simulates");
        assert_eq!(result.rows.len(), 2);
        let iro = &result.rows[0];
        let strr = &result.rows[1];
        assert_eq!(iro.beats.len(), result.boards);
        // Both pairs produce a usable design beat (~25 samples at 4%).
        assert!((10.0..60.0).contains(&iro.mean_beat), "{}", iro.mean_beat);
        assert!((10.0..60.0).contains(&strr.mean_beat), "{}", strr.mean_beat);
        // The STR pair's beat disperses less across devices than the
        // IRO pair's — Table II's sigma_rel gap at the architecture
        // level.
        assert!(
            strr.beat_cv < iro.beat_cv,
            "STR CV {} vs IRO CV {}",
            strr.beat_cv,
            iro.beat_cv
        );
        let text = result.to_string();
        assert!(text.contains("EXT-COHERENT"));
    }
}
