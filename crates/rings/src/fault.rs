//! The fault-armed ring runner for degradation studies.
//!
//! [`measure::run`](crate::measure::run) demands an oscillating ring —
//! exactly the property a fault campaign destroys. [`run_degraded`]
//! builds the ring through the same verified build step, with SL012
//! excused, splits a [`FaultPlan`] into its device half (supply
//! droops, applied to a cloned [`Board`]) and its engine half
//! (net/stage faults, armed on the [`Simulator`]), then runs to a
//! **fixed horizon** and hands back whatever trace the ring produced —
//! a stuck ring is a result, not an error.
//!
//! See `docs/robustness.md` for the fault taxonomy and
//! `run_degradation` in `strent-core` for the experiment built on top.

use strent_device::{Board, Supply};
use strent_sim::{Edge, FaultKind, FaultPlan, SimError, SimStats, Simulator, Time, Trace};

use crate::error::RingError;
use crate::ring::RingConfig;

/// The outcome of a fixed-horizon fault-armed run.
///
/// Unlike [`RingRun`](crate::measure::RingRun) there is no period
/// series: a degraded ring may stall, glitch or drift, so consumers
/// work from the raw output trace (e.g. via [`rising_interval_cv`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// The output-net waveform over the whole horizon.
    pub trace: Trace,
    /// The simulation end time (the requested horizon).
    pub end_time: Time,
    /// Kernel statistics of the run.
    pub stats: SimStats,
}

/// Applies the plan's supply-droop specs to a copy of the board.
///
/// At most one droop is supported per plan — the [`Supply`] waveform
/// model holds a single sag window. The drooped rail must stay above
/// the technology threshold voltage, where the delay model loses
/// meaning (the device layer would panic).
pub(crate) fn apply_supply_faults(board: &Board, plan: &FaultPlan) -> Result<Board, RingError> {
    let droops = plan.supply_faults();
    let Some(spec) = droops.first() else {
        return Ok(board.clone());
    };
    if droops.len() > 1 {
        return Err(RingError::Sim(SimError::InvalidFault(format!(
            "at most one supply droop per plan, got {}",
            droops.len()
        ))));
    }
    let FaultKind::SupplyDroop { delta_v, until_ps } = spec.kind else {
        unreachable!("supply_faults() only returns SupplyDroop specs");
    };
    let nominal = board.supply().dc_level();
    let sagged = nominal - delta_v;
    let vth = board.technology().threshold_voltage();
    if sagged <= vth {
        return Err(RingError::Sim(SimError::InvalidFault(format!(
            "supply droop to {sagged:.3} V falls below the {vth:.3} V \
             threshold where the delay model is undefined"
        ))));
    }
    let mut drooped = board.clone();
    drooped.set_supply(Supply::droop(nominal, sagged, spec.at_ps, until_ps));
    Ok(drooped)
}

/// Trace capacity for `horizon_ps` of oscillation at `period_ps`.
fn degraded_capacity(horizon_ps: f64, period_ps: f64) -> usize {
    // Two transitions per period, 25% slack for glitch edges and the
    // pre-lock transient, plus fixed headroom for short horizons.
    ((horizon_ps / period_ps) * 2.5) as usize + 32
}

fn check_horizon(horizon_ps: f64) -> Result<(), RingError> {
    if !horizon_ps.is_finite() || horizon_ps <= 0.0 {
        return Err(RingError::Sim(SimError::InvalidFault(format!(
            "degraded-run horizon must be positive and finite, got {horizon_ps}"
        ))));
    }
    Ok(())
}

/// Builds the ring, arms `plan` and runs to `horizon_ps`.
///
/// Supply-droop specs are applied to a cloned board before
/// construction; everything else is armed on the engine. Degraded
/// operation is the experiment, not a finding, so the verified build
/// excuses the Eq. 1 burst prediction (SL012); every other check still
/// applies. The run makes no oscillation demand — use
/// [`rising_interval_cv`] or the health tests in `strent-trng` to judge
/// what came back.
///
/// # Errors
///
/// Returns an error for an invalid configuration or horizon, a plan
/// naming an unknown net or out-of-range stage, an unsupportable
/// supply droop, or a static-verification rejection.
pub fn run_degraded(
    config: &RingConfig,
    board: &Board,
    seed: u64,
    horizon_ps: f64,
    plan: &FaultPlan,
) -> Result<DegradedRun, RingError> {
    check_horizon(horizon_ps)?;
    let board = apply_supply_faults(board, plan)?;
    let mut sim = Simulator::new(seed);
    let ring = config.build(&board, &mut sim, true)?;
    let expected = config.predicted_period_ps(&board);
    sim.watch_with_capacity(ring.output(), degraded_capacity(horizon_ps, expected))?;
    sim.arm_faults(&plan.without_supply_faults(), ring.components())?;
    sim.run_until(Time::from_ps(horizon_ps));
    let trace = sim.trace(ring.output()).expect("watched").clone();
    Ok(DegradedRun {
        trace,
        end_time: sim.now(),
        stats: sim.stats(),
    })
}

/// Coefficient of variation of the rising-edge intervals inside
/// `[from_ps, until_ps)` — the re-lock figure of merit.
///
/// A phase-locked STR shows CV well below 0.05 (jitter only); a ring
/// mid-recovery or in burst mode shows CV an order of magnitude
/// larger. Returns `None` when the window holds fewer than three
/// rising edges (no interval statistics to speak of).
#[must_use]
pub fn rising_interval_cv(trace: &Trace, from_ps: f64, until_ps: f64) -> Option<f64> {
    let edges: Vec<f64> = trace
        .edges(Edge::Rising)
        .iter()
        .map(|t| t.as_ps())
        .filter(|&t| t >= from_ps && t < until_ps)
        .collect();
    if edges.len() < 3 {
        return None;
    }
    let intervals: Vec<f64> = edges.windows(2).map(|w| w[1] - w[0]).collect();
    let n = intervals.len() as f64;
    let mean = intervals.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return None;
    }
    let var = intervals.iter().map(|i| (i - mean).powi(2)).sum::<f64>() / n;
    Some(var.sqrt() / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IroConfig, StrConfig};
    use strent_device::Technology;
    use strent_sim::Bit;

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 7)
    }

    fn str_config(length: usize, tokens: usize) -> RingConfig {
        RingConfig::Str(StrConfig::new(length, tokens).expect("valid"))
    }

    fn iro_config() -> RingConfig {
        RingConfig::Iro(IroConfig::new(5).expect("valid"))
    }

    #[test]
    fn clean_plan_matches_healthy_oscillation() {
        let run = run_degraded(
            &str_config(8, 4),
            &board(),
            3,
            200_000.0,
            &FaultPlan::new(3),
        )
        .expect("runs");
        let cv = rising_interval_cv(&run.trace, 50_000.0, 200_000.0).expect("edges");
        assert!(cv < 0.05, "healthy STR locks tightly, cv={cv}");
        assert_eq!(run.end_time, Time::from_ps(200_000.0));
        assert!(run.stats.events_processed > 0);
    }

    #[test]
    fn stuck_at_stalls_then_ring_relocks() {
        let plan = FaultPlan::new(9)
            .with_stuck_at("str0", Bit::Low, 60_000.0, 120_000.0)
            .expect("valid");
        let run = run_degraded(&str_config(8, 4), &board(), 3, 260_000.0, &plan).expect("runs");
        // The clamp window contains (almost) no rising edges on the
        // clamped output net.
        let clamped: Vec<f64> = run
            .trace
            .edges(Edge::Rising)
            .iter()
            .map(|t| t.as_ps())
            .filter(|&t| (62_000.0..120_000.0).contains(&t))
            .collect();
        assert!(clamped.is_empty(), "clamp held, but saw edges {clamped:?}");
        // After release the ring oscillates and re-locks.
        let cv = rising_interval_cv(&run.trace, 180_000.0, 260_000.0)
            .expect("post-recovery edges");
        assert!(cv < 0.05, "STR re-locks after the clamp clears, cv={cv}");
    }

    #[test]
    fn supply_droop_slows_the_iro() {
        let healthy =
            run_degraded(&iro_config(), &board(), 4, 150_000.0, &FaultPlan::new(4)).expect("runs");
        let plan = FaultPlan::new(4)
            .with_supply_droop(40_000.0, 0.65, 150_000.0)
            .expect("valid");
        let drooped = run_degraded(&iro_config(), &board(), 4, 150_000.0, &plan).expect("runs");
        let healthy_edges = healthy.trace.edge_count(Edge::Rising);
        let droop_edges = drooped.trace.edge_count(Edge::Rising);
        assert!(
            (droop_edges as f64) < 0.7 * healthy_edges as f64,
            "droop to 0.55 V slows the ring: {droop_edges} vs {healthy_edges} edges"
        );
    }

    #[test]
    fn droop_below_threshold_is_rejected() {
        let plan = FaultPlan::new(0)
            .with_supply_droop(1_000.0, 0.8, 2_000.0)
            .expect("valid spec");
        let err = run_degraded(&iro_config(), &board(), 1, 10_000.0, &plan)
            .expect_err("0.4 V rail rejected");
        assert!(err.to_string().contains("threshold"), "{err}");
    }

    #[test]
    fn unknown_net_in_plan_is_reported() {
        let plan = FaultPlan::new(0)
            .with_stuck_at("nosuchnet", Bit::High, 10.0, 20.0)
            .expect("valid spec");
        let err = run_degraded(&str_config(8, 4), &board(), 1, 10_000.0, &plan)
            .expect_err("unknown net rejected");
        assert!(matches!(
            err,
            RingError::Sim(SimError::UnknownNetName(_))
        ));
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let ring = str_config(12, 6);
        let plan = FaultPlan::new(11)
            .with_glitch_burst("str3", Bit::High, 30_000.0, 6, 2_000.0, 400.0)
            .expect("valid");
        let a = run_degraded(&ring, &board(), 5, 120_000.0, &plan).expect("runs");
        let b = run_degraded(&ring, &board(), 5, 120_000.0, &plan).expect("runs");
        assert_eq!(a, b, "same seed + plan is bit-identical");
    }
}
