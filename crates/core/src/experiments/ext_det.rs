//! EXT-DET — deterministic jitter accumulation (Sec. IV-B of the paper).
//!
//! Ref \[2\] showed that global deterministic jitter accumulates *linearly*
//! through an IRO, while the paper argues the STR strongly attenuates
//! it. Here we modulate the core supply sinusoidally and lock-in detect
//! the deterministic component of the period series as the ring length
//! grows: the IRO's absolute deterministic amplitude scales with its
//! (length-proportional) period, while the STR's stays nearly flat and
//! small — each token's spacing, not the full revolution, carries it.

use std::fmt;

use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_trng::attack::{probe_response_metered, ModulationResponse};

use crate::calibration;
use crate::report::{fmt_ps, Table};

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// The modulation applied in this experiment: ±1% of the nominal 1.2 V.
pub const SUPPLY_AMPLITUDE_V: f64 = 0.012;

/// The modulation frequency, MHz. Slow relative to every probed ring's
/// period (the 80-stage IRO's period is 43.5 ns), so the per-period
/// response is not sinc-filtered away by intra-period averaging.
pub const MODULATION_MHZ: f64 = 5.0;

/// One ring's measured response.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDetRow {
    /// Display label.
    pub label: String,
    /// Ring length.
    pub length: usize,
    /// The measured response.
    pub response: ModulationResponse,
}

/// The EXT-DET result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDetResult {
    /// IRO rows in increasing length.
    pub iro_rows: Vec<ExtDetRow>,
    /// STR rows in increasing length.
    pub str_rows: Vec<ExtDetRow>,
}

impl fmt::Display for ExtDetResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-DET — deterministic period modulation under a {:.1}% / {} MHz supply attack",
            SUPPLY_AMPLITUDE_V / 1.2 * 100.0,
            MODULATION_MHZ
        )?;
        let mut table = Table::new(&["Ring", "T (ps)", "A_det", "sigma_random", "det/random"]);
        for row in self.iro_rows.iter().chain(&self.str_rows) {
            table.row_owned(vec![
                row.label.clone(),
                format!("{:.0}", row.response.mean_period_ps),
                fmt_ps(row.response.det_amplitude_ps),
                fmt_ps(row.response.sigma_random_ps),
                format!("{:.2}", row.response.det_to_random_ratio()),
            ]);
        }
        write!(f, "{table}")
    }
}

/// Runs the EXT-DET experiment on a caller-provided runner: one sharded
/// job per probed ring (three IRO lengths, three STR lengths).
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtDetResult, ExperimentError> {
    let periods = runner.effort().size(1_200, 4_000);
    let board = calibration::default_board();
    let sources: Vec<(String, usize, RingConfig)> = [5usize, 25, 80]
        .iter()
        .map(|&l| {
            (
                format!("IRO {l}C"),
                l,
                RingConfig::Iro(IroConfig::new(l).expect("valid length")),
            )
        })
        .chain([8usize, 32, 96].iter().map(|&l| {
            (
                format!("STR {l}C"),
                l,
                RingConfig::Str(StrConfig::new(l, l / 2).expect("valid counts")),
            )
        }))
        .collect();
    let mut rows = runner.run_stage("ext_det", &sources, |job, meter| {
        let (label, length, source) = job.config;
        let (response, stats) = probe_response_metered(
            source,
            &board,
            SUPPLY_AMPLITUDE_V,
            MODULATION_MHZ,
            job.seed(),
            periods,
        )?;
        meter.record_sim(stats);
        Ok(ExtDetRow {
            label: label.clone(),
            length: *length,
            response,
        })
    })?;
    let str_rows = rows.split_off(3);
    Ok(ExtDetResult {
        iro_rows: rows,
        str_rows,
    })
}

/// Runs the EXT-DET experiment.
///
/// # Errors
///
/// Propagates ring simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtDetResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_jitter_accumulates_in_iros_not_strs() {
        let result = run(Effort::Quick, 6).expect("simulates");
        // IRO: deterministic amplitude grows strongly with length...
        let iro_first = &result.iro_rows.first().expect("rows").response;
        let iro_last = &result.iro_rows.last().expect("rows").response;
        assert!(
            iro_last.det_amplitude_ps > 4.0 * iro_first.det_amplitude_ps,
            "IRO det: {} -> {}",
            iro_first.det_amplitude_ps,
            iro_last.det_amplitude_ps
        );
        // ...while the STR's stays bounded: the 96-stage STR sees far
        // less deterministic jitter than the 80-stage IRO.
        let str_last = &result.str_rows.last().expect("rows").response;
        assert!(
            str_last.det_amplitude_ps < iro_last.det_amplitude_ps / 4.0,
            "STR 96 det {} vs IRO 80 det {}",
            str_last.det_amplitude_ps,
            iro_last.det_amplitude_ps
        );
        // Figure of merit: at large L the IRO's det/random ratio dwarfs
        // the STR's (the attack surface the paper warns about).
        assert!(
            iro_last.det_to_random_ratio() > 2.0 * str_last.det_to_random_ratio(),
            "IRO ratio {} vs STR ratio {}",
            iro_last.det_to_random_ratio(),
            str_last.det_to_random_ratio()
        );
        let text = result.to_string();
        assert!(text.contains("EXT-DET"));
    }
}
