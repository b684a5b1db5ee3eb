//! EXT-FLICKER — what low-frequency (1/f-like) delay noise would do to
//! the paper's measurements.
//!
//! The paper's temporal model (and its ref \[2\]'s accumulation laws)
//! assume *white* per-crossing jitter. Real gates also carry slow delay
//! noise. We enable the Ornstein–Uhlenbeck flicker extension of the
//! device model on an IRO and compare against the white baseline:
//!
//! * the **Allan deviation** of the period series: white noise falls as
//!   `1/sqrt(m)`; flicker bends the curve up toward a bump at averaging
//!   windows comparable to its correlation time — the standard
//!   diagnostic separating the two;
//! * the **Eq. 6 divider method**: with flicker, the `osc_mes`
//!   cycle-to-cycle deviation picks up the slow component, inflating
//!   the `sigma_p` estimate as the divider setting grows — another
//!   hidden failure mode of the method (complementary to the STR
//!   anti-correlation bias of EXT-METHOD).

use std::fmt;

use strent_analysis::{allan, divider, jitter};
use strent_device::{Board, Technology};
use strent_rings::{measure, IroConfig, RingConfig};
use strent_sim::SimStats;

use crate::calibration::PAPER_SEED;
use crate::report::{fmt_ps, Table};

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// Flicker magnitude enabled in the "flicker" arm (relative stationary
/// sigma per stage).
pub const FLICKER_REL_SIGMA: f64 = 0.002;

/// Flicker correlation time, ps (1 microsecond).
pub const FLICKER_TAU_PS: f64 = 1.0e6;

/// One arm of the comparison (white or flicker).
#[derive(Debug, Clone, PartialEq)]
pub struct FlickerArm {
    /// Display label.
    pub label: String,
    /// Direct period jitter, ps.
    pub sigma_direct_ps: f64,
    /// `(averaging factor m, Allan deviation in ps)`.
    pub allan_curve: Vec<(usize, f64)>,
    /// `(divider setting n, Eq. 6 sigma_p estimate in ps)`.
    pub divider_estimates: Vec<(usize, f64)>,
}

/// The EXT-FLICKER result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtFlickerResult {
    /// The white-noise baseline (the paper's model).
    pub white: FlickerArm,
    /// The flicker-enabled arm.
    pub flicker: FlickerArm,
}

impl ExtFlickerResult {
    /// The Allan deviation of an arm at averaging factor `m`, if probed.
    #[must_use]
    pub fn adev_at(arm: &FlickerArm, m: usize) -> Option<f64> {
        arm.allan_curve
            .iter()
            .find(|&&(mm, _)| mm == m)
            .map(|&(_, adev)| adev)
    }
}

impl fmt::Display for ExtFlickerResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-FLICKER — IRO 9C, white model vs OU flicker \
             (rel sigma {FLICKER_REL_SIGMA}, tau {FLICKER_TAU_PS:.0} ps)"
        )?;
        writeln!(f, "\nAllan deviation of the period series:")?;
        let mut table = Table::new(&["m", "ADEV white", "ADEV flicker"]);
        for (&(m, white), &(_, fl)) in self.white.allan_curve.iter().zip(&self.flicker.allan_curve)
        {
            table.row_owned(vec![m.to_string(), fmt_ps(white), fmt_ps(fl)]);
        }
        write!(f, "{table}")?;
        writeln!(f, "\nEq. 6 divider estimates (direct sigma_p: white = {}, flicker = {}):",
            fmt_ps(self.white.sigma_direct_ps),
            fmt_ps(self.flicker.sigma_direct_ps))?;
        let mut table = Table::new(&["n", "estimate white", "estimate flicker"]);
        for (&(n, white), &(_, fl)) in self
            .white
            .divider_estimates
            .iter()
            .zip(&self.flicker.divider_estimates)
        {
            table.row_owned(vec![n.to_string(), fmt_ps(white), fmt_ps(fl)]);
        }
        write!(f, "{table}")
    }
}

fn measure_arm(
    label: &str,
    tech: &Technology,
    seed: u64,
    periods: usize,
) -> Result<(FlickerArm, SimStats), ExperimentError> {
    let board = Board::new(tech.clone(), 0, PAPER_SEED);
    let ring = RingConfig::Iro(IroConfig::new(9).expect("valid length"));
    let run = measure::run(&ring, &board, seed, periods)?;
    let mut allan_curve = Vec::new();
    for m in [1usize, 4, 16, 64, 256] {
        allan_curve.push((m, allan::allan_deviation(&run.periods_ps, m)?));
    }
    let mut divider_estimates = Vec::new();
    for n in [4usize, 64] {
        divider_estimates.push((n, divider::measure(&run.periods_ps, n)?.sigma_p_ps));
    }
    Ok((
        FlickerArm {
            label: label.to_owned(),
            sigma_direct_ps: jitter::period_jitter(&run.periods_ps)?,
            allan_curve,
            divider_estimates,
        },
        run.stats,
    ))
}

/// Runs the EXT-FLICKER experiment on a caller-provided runner: the
/// white and flicker arms are independent jobs.
///
/// # Errors
///
/// Propagates simulation and analysis errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<ExtFlickerResult, ExperimentError> {
    let periods = runner.effort().size(10_000, 20_000);
    let base = Technology::cyclone_iii()
        .with_sigma_intra(0.0)
        .with_sigma_inter(0.0);
    let arms = [
        ("white", base.clone()),
        (
            "flicker",
            base.with_flicker_rel_sigma(FLICKER_REL_SIGMA)
                .with_flicker_tau_ps(FLICKER_TAU_PS),
        ),
    ];
    let mut results = runner.run_stage("ext_flicker", &arms, |job, meter| {
        let (label, tech) = job.config;
        let (arm, stats) = measure_arm(label, tech, job.seed(), periods)?;
        meter.record_sim(stats);
        Ok(arm)
    })?;
    let flicker = results.pop().expect("two arms");
    let white = results.pop().expect("two arms");
    Ok(ExtFlickerResult { white, flicker })
}

/// Runs the EXT-FLICKER experiment.
///
/// # Errors
///
/// Propagates simulation and analysis errors.
pub fn run(effort: Effort, seed: u64) -> Result<ExtFlickerResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flicker_bends_the_allan_curve_and_biases_eq6() {
        let result = run(Effort::Quick, 17).expect("simulates");

        // White baseline: ADEV falls like 1/sqrt(m) end to end.
        let w1 = ExtFlickerResult::adev_at(&result.white, 1).expect("probed");
        let w256 = ExtFlickerResult::adev_at(&result.white, 256).expect("probed");
        let expected_ratio = 16.0; // sqrt(256)
        assert!(
            (w1 / w256 / expected_ratio - 1.0).abs() < 0.5,
            "white slope: {w1} -> {w256}"
        );

        // Flicker arm: same short-window behaviour, but the long-window
        // deviation sits well above the white floor.
        let f1 = ExtFlickerResult::adev_at(&result.flicker, 1).expect("probed");
        let f256 = ExtFlickerResult::adev_at(&result.flicker, 256).expect("probed");
        assert!((f1 / w1 - 1.0).abs() < 0.3, "short windows match: {f1} vs {w1}");
        assert!(
            f256 > 2.0 * w256,
            "flicker floor must lift the long-window ADEV: {f256} vs {w256}"
        );

        // Eq. 6: accurate for white at any n; inflated by flicker at
        // large n (the slow component leaks into the cycle-to-cycle
        // deviation of the divided clock).
        let white_n64 = result.white.divider_estimates[1].1;
        let flicker_n64 = result.flicker.divider_estimates[1].1;
        // (n = 64 leaves ~78 osc_mes periods at Quick size, so the
        // estimate itself carries ~8% sampling error.)
        assert!(
            (white_n64 / result.white.sigma_direct_ps - 1.0).abs() < 0.25,
            "white n=64 estimate {white_n64}"
        );
        assert!(
            flicker_n64 > 1.5 * result.flicker.sigma_direct_ps,
            "flicker inflates the estimate: {flicker_n64} vs direct {}",
            result.flicker.sigma_direct_ps
        );
        let text = result.to_string();
        assert!(text.contains("EXT-FLICKER"));
    }
}
