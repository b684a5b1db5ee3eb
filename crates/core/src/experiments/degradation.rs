//! EXT-DEGRADATION — the fault-injection campaign: online health tests
//! against every fault class, on both ring families.
//!
//! The robustness claim of a ring-based TRNG is not "it never fails"
//! but "its online tests notice when it does" (SP 800-90B §4.4). This
//! experiment drives the STR-32 and IRO-32 pipelines through the four
//! fault classes of `strent_sim::fault` — stuck-at clamps, glitch
//! bursts, delay drift (aging) and supply droop — and measures the
//! **detection latency** of the RCT and APT monitors sampling the ring
//! output, plus the STR's phase re-lock once a transient fault clears.
//!
//! Monitor model: the output trace is sampled mid-tick at one eighth of
//! the healthy period, so a healthy ring yields runs of ~4 identical
//! samples (far below the RCT cutoff of 22 at `H = 1`) and a balanced
//! APT window. The fault onset is aligned to an APT window boundary so
//! "within one window" is a meaningful latency bound.

use std::fmt;

use strent_rings::fault::{self as ring_fault, DegradedRun};
use strent_rings::{IroConfig, RingConfig, StrConfig};
use strent_sim::{Bit, FaultPlan, Time};
use strent_trng::health::{
    self, AdaptiveProportionTest, RepetitionCountTest, APT_WINDOW,
};
use strent_trng::BitString;

use crate::calibration;
use crate::report::Table;

use super::runner::ExperimentRunner;
use super::{Effort, ExperimentError};

/// The claimed per-bit min-entropy the monitors are configured for.
///
/// Shared with the serving layer ([`crate::pool`]) so the health
/// cutoffs a served source is gated by are exactly the ones this
/// experiment characterizes (see `docs/serving.md`).
pub const CLAIMED_H: f64 = 1.0;

/// Monitor samples per healthy half-period is this over two.
const SAMPLES_PER_PERIOD: f64 = 8.0;

/// The ring under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingKind {
    /// 32-stage self-timed ring, NT = NB = 16 (evenly-spaced mode).
    Str32,
    /// 32-stage inverter ring.
    Iro32,
}

impl RingKind {
    fn label(self) -> &'static str {
        match self {
            RingKind::Str32 => "STR-32",
            RingKind::Iro32 => "IRO-32",
        }
    }

    /// The name of the watched output net (`StrHandle::output` is stage
    /// 0's net; `IroHandle::output` is the last stage's).
    fn output_net(self) -> &'static str {
        match self {
            RingKind::Str32 => "str0",
            RingKind::Iro32 => "iro31",
        }
    }

    fn stage_count(self) -> usize {
        32
    }

    fn config(self) -> RingConfig {
        match self {
            RingKind::Str32 => RingConfig::Str(StrConfig::new(32, 16).expect("valid counts")),
            RingKind::Iro32 => RingConfig::Iro(IroConfig::new(32).expect("valid length")),
        }
    }
}

/// The injected fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    StuckAt,
    GlitchBurst,
    DelayDrift,
    SupplyDroop,
}

impl FaultClass {
    fn label(self) -> &'static str {
        match self {
            FaultClass::StuckAt => "stuck-at",
            FaultClass::GlitchBurst => "glitch burst",
            FaultClass::DelayDrift => "delay drift",
            FaultClass::SupplyDroop => "supply droop",
        }
    }
}

/// One (ring, fault) campaign outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRow {
    /// Ring label (`STR-32` / `IRO-32`).
    pub ring: String,
    /// Fault-class label.
    pub fault: String,
    /// Monitor samples before the fault onset.
    pub pre_onset_samples: usize,
    /// Monitor samples after the fault onset.
    pub post_onset_samples: usize,
    /// Samples from onset to the first RCT alarm, if any.
    pub rct_latency: Option<usize>,
    /// Samples from onset to the first APT alarm, if any.
    pub apt_latency: Option<usize>,
    /// Health-test alarms before the onset (false positives).
    pub pre_onset_alarms: u64,
    /// Rising-interval CV after a transient fault cleared (stuck-at
    /// rows only) — the re-lock figure of merit.
    pub relock_cv: Option<f64>,
}

impl DegradationRow {
    /// Whether the fault class was caught by the monitor that owns it:
    /// persistent/slow faults (stuck-at, drift, droop) by the RCT, the
    /// biased glitch burst by the APT within one window.
    #[must_use]
    pub fn detected(&self) -> bool {
        match self.fault.as_str() {
            "glitch burst" => self
                .apt_latency
                .is_some_and(|l| l < APT_WINDOW as usize),
            _ => self.rct_latency.is_some(),
        }
    }
}

/// The EXT-DEGRADATION result set.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationResult {
    /// One row per (ring, fault class), rings outermost.
    pub rows: Vec<DegradationRow>,
    /// The RCT cutoff the monitors ran with.
    pub rct_cutoff: u32,
    /// The APT cutoff the monitors ran with.
    pub apt_cutoff: u32,
}

impl fmt::Display for DegradationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "EXT-DEGRADATION — fault injection vs online health tests"
        )?;
        writeln!(
            f,
            "(RCT cutoff {}, APT cutoff {}/{} at claimed H = 1)",
            self.rct_cutoff, self.apt_cutoff, APT_WINDOW
        )?;
        let mut table = Table::new(&[
            "Ring",
            "Fault",
            "RCT latency",
            "APT latency",
            "pre-onset alarms",
            "re-lock CV",
            "detected",
        ]);
        let fmt_latency =
            |l: Option<usize>| l.map_or_else(|| "-".to_owned(), |v| format!("{v}"));
        for row in &self.rows {
            table.row_owned(vec![
                row.ring.clone(),
                row.fault.clone(),
                fmt_latency(row.rct_latency),
                fmt_latency(row.apt_latency),
                row.pre_onset_alarms.to_string(),
                row.relock_cv
                    .map_or_else(|| "-".to_owned(), |cv| format!("{cv:.4}")),
                if row.detected() { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        write!(f, "{table}")
    }
}

/// The per-campaign geometry, all in monitor ticks (one tick is an
/// eighth of the healthy period).
struct Geometry {
    /// Ticks before the fault onset (a whole number of APT windows, so
    /// the onset lands on a window boundary).
    pre: usize,
    /// Ticks after the onset.
    post: usize,
    /// Tick length, ps.
    tick_ps: f64,
    /// First monitored instant (warm-up skipped), ps.
    t0_ps: f64,
    /// Fault onset, ps.
    onset_ps: f64,
    /// Simulation horizon, ps.
    horizon_ps: f64,
}

impl Geometry {
    fn new(effort: Effort, period_ps: f64) -> Self {
        let window = APT_WINDOW as usize;
        let pre = window;
        let post = effort.size(window + window / 2, 2 * window);
        let tick_ps = period_ps / SAMPLES_PER_PERIOD;
        let t0_ps = 32.0 * period_ps;
        let onset_ps = t0_ps + pre as f64 * tick_ps;
        let horizon_ps = t0_ps + (pre + post + 16) as f64 * tick_ps;
        Geometry {
            pre,
            post,
            tick_ps,
            t0_ps,
            onset_ps,
            horizon_ps,
        }
    }

    /// The instant of monitor tick `i` — mid-tick, so a sample never
    /// sits exactly on a forcing-window edge.
    fn tick_at(&self, i: usize) -> f64 {
        self.t0_ps + (i as f64 + 0.5) * self.tick_ps
    }
}

/// Builds the fault plan for one campaign.
fn plan_for(
    ring: RingKind,
    fault: FaultClass,
    geo: &Geometry,
    seed: u64,
) -> Result<FaultPlan, ExperimentError> {
    let plan = FaultPlan::new(seed);
    let tick = geo.tick_ps;
    let onset = geo.onset_ps;
    let plan = match fault {
        // A clamp held for 256 ticks (32 periods), then released: the
        // transient whose recovery the re-lock check watches.
        FaultClass::StuckAt => plan.with_stuck_at(
            ring.output_net(),
            Bit::Low,
            onset,
            onset + 256.0 * tick,
        )?,
        // Pulses forcing ones on ~75% of the post-onset span: the
        // sampled stream carries ~87.5% ones, far past the APT cutoff.
        FaultClass::GlitchBurst => plan.with_glitch_burst(
            ring.output_net(),
            Bit::High,
            onset,
            geo.post / 2,
            2.0 * tick,
            1.5 * tick,
        )?,
        // Uniform aging: every stage's delays ramp to 8x over 32
        // periods, stretching healthy 4-sample runs to ~32 — past the
        // RCT cutoff of 22.
        FaultClass::DelayDrift => {
            let mut plan = plan;
            for stage in 0..ring.stage_count() {
                plan = plan.with_delay_drift(stage, onset, 8.0, 256.0 * tick)?;
            }
            plan
        }
        // The rail sags 1.2 V -> 0.52 V for the rest of the run; the
        // blended transistor/RC delay model slows the ring ~10x.
        FaultClass::SupplyDroop => {
            plan.with_supply_droop(onset, 0.68, geo.horizon_ps + tick)?
        }
    };
    Ok(plan)
}

/// Samples the output trace on the monitor grid.
fn monitor_bits(run: &DegradedRun, geo: &Geometry) -> BitString {
    (0..geo.pre + geo.post)
        .map(|i| u8::from(run.trace.value_at(Time::from_ps(geo.tick_at(i))) == Bit::High))
        .collect()
}

/// Runs the EXT-DEGRADATION campaign on a caller-provided runner: one
/// job per (ring, fault class).
///
/// # Errors
///
/// Propagates ring-simulation and health-test configuration errors.
pub fn run_with(runner: &ExperimentRunner) -> Result<DegradationResult, ExperimentError> {
    let effort = runner.effort();
    let board = calibration::default_board();

    let scenarios: Vec<(RingKind, FaultClass)> = [RingKind::Str32, RingKind::Iro32]
        .into_iter()
        .flat_map(|ring| {
            [
                FaultClass::StuckAt,
                FaultClass::GlitchBurst,
                FaultClass::DelayDrift,
                FaultClass::SupplyDroop,
            ]
            .into_iter()
            .map(move |fault| (ring, fault))
        })
        .collect();

    let rows = runner.run_stage("degradation", &scenarios, |job, meter| {
        let (ring, fault) = *job.config;
        let config = ring.config();
        let geo = Geometry::new(effort, config.predicted_period_ps(&board));
        let plan = plan_for(ring, fault, &geo, job.seed())?;
        let run = ring_fault::run_degraded(&config, &board, job.seed(), geo.horizon_ps, &plan)?;
        meter.record_sim(run.stats);
        let bits = monitor_bits(&run, &geo);
        let latency = health::alarm_latency(&bits, CLAIMED_H, geo.pre)?;
        // Re-lock: once the stuck-at clamp (released after 256 ticks =
        // 32 periods) clears, a healthy ring settles back to a tight
        // rising-interval CV. Judged over the final stretch, leaving
        // 64 periods of recovery slack.
        let relock_cv = if fault == FaultClass::StuckAt {
            ring_fault::rising_interval_cv(
                &run.trace,
                geo.onset_ps + (256.0 + 512.0) * geo.tick_ps,
                geo.horizon_ps,
            )
        } else {
            None
        };
        Ok(DegradationRow {
            ring: ring.label().to_owned(),
            fault: fault.label().to_owned(),
            pre_onset_samples: geo.pre,
            post_onset_samples: geo.post,
            rct_latency: latency.rct_latency,
            apt_latency: latency.apt_latency,
            pre_onset_alarms: latency.rct_before_onset + latency.apt_before_onset,
            relock_cv,
        })
    })?;

    Ok(DegradationResult {
        rows,
        rct_cutoff: RepetitionCountTest::for_min_entropy(CLAIMED_H)?.cutoff(),
        apt_cutoff: AdaptiveProportionTest::for_min_entropy(CLAIMED_H)?.cutoff(),
    })
}

/// Runs the EXT-DEGRADATION experiment.
///
/// # Errors
///
/// Propagates ring-simulation and health-test configuration errors.
pub fn run(effort: Effort, seed: u64) -> Result<DegradationResult, ExperimentError> {
    run_with(&ExperimentRunner::new(effort, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::PAPER_SEED;

    #[test]
    fn every_fault_class_is_detected() {
        let runner = ExperimentRunner::new(Effort::Quick, PAPER_SEED);
        let result = run_with(&runner).expect("simulates");
        assert_eq!(result.rows.len(), 8, "2 rings x 4 fault classes");
        let stages = runner.take_stages();
        assert_eq!(stages.len(), 1, "one stage");
        assert_eq!(stages[0].stats.jobs, 8);
        assert!(stages[0].stats.events() > 0, "runs are metered");
        assert_eq!(result.rct_cutoff, 22);
        for row in &result.rows {
            assert_eq!(
                row.pre_onset_alarms, 0,
                "{} / {}: no false alarms before the onset",
                row.ring, row.fault
            );
            assert!(row.detected(), "{} / {} undetected", row.ring, row.fault);
        }
        // Latency bounds per fault class.
        for row in &result.rows {
            match row.fault.as_str() {
                "stuck-at" => {
                    let l = row.rct_latency.expect("detected");
                    assert!(
                        l <= result.rct_cutoff as usize,
                        "{}: stuck-at RCT latency {l} within the cutoff",
                        row.ring
                    );
                }
                "glitch burst" => {
                    let l = row.apt_latency.expect("detected");
                    assert!(
                        l < APT_WINDOW as usize,
                        "{}: glitch APT latency {l} within one window",
                        row.ring
                    );
                }
                "delay drift" => {
                    let l = row.rct_latency.expect("detected");
                    assert!(l < 512, "{}: drift RCT latency {l}", row.ring);
                }
                "supply droop" => {
                    let l = row.rct_latency.expect("detected");
                    assert!(l < 128, "{}: droop RCT latency {l}", row.ring);
                }
                other => panic!("unexpected fault label {other}"),
            }
        }
        // The STR re-locks after the stuck-at transient clears.
        let str_stuck = result
            .rows
            .iter()
            .find(|r| r.ring == "STR-32" && r.fault == "stuck-at")
            .expect("present");
        let cv = str_stuck.relock_cv.expect("post-recovery edges");
        assert!(cv < 0.05, "STR-32 re-locks after the clamp, cv = {cv}");
        let text = result.to_string();
        assert!(text.contains("EXT-DEGRADATION"));
        assert!(text.contains("stuck-at"));
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run(Effort::Quick, 7).expect("simulates");
        let b = run(Effort::Quick, 7).expect("simulates");
        assert_eq!(a, b, "same seed replays bit-identically");
    }
}
