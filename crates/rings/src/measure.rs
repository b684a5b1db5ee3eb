//! Measurement runners: simulate a ring, return period series.
//!
//! [`run`] measures any [`RingConfig`] built through the verified build
//! step ([`RingConfig::build`]) and adds the bookkeeping every
//! experiment needs: warm-up discarding, a stop rule that ends each run
//! about one period past the last rising edge it reads
//! (`advance_to_edges`) and trace extraction. [`run_str_full`] records
//! every stage of an STR for mode diagnosis.

use strent_device::Board;
use strent_sim::{Edge, SimStats, Simulator, Time, Trace};

use crate::analytic;
use crate::error::RingError;
use crate::ring::RingConfig;
use crate::str_ring::StrConfig;

/// Number of initial periods discarded as start-up transient.
pub const WARMUP_PERIODS: usize = 64;

/// The outcome of running one ring on one board.
#[derive(Debug, Clone, PartialEq)]
pub struct RingRun {
    /// Steady-state periods (rising edge to rising edge), picoseconds.
    pub periods_ps: Vec<f64>,
    /// Steady-state half-periods (any edge to any edge), picoseconds.
    pub half_periods_ps: Vec<f64>,
    /// Mean frequency over the steady-state periods, MHz.
    pub frequency_mhz: f64,
    /// Full kernel statistics of the run (dispatched, cancelled,
    /// suppressed), for per-experiment perf reporting.
    pub stats: SimStats,
}

impl RingRun {
    fn from_trace(
        trace: &Trace,
        warmup: usize,
        requested: usize,
        stats: SimStats,
    ) -> Result<Self, RingError> {
        let all_periods = trace.periods(Edge::Rising);
        if all_periods.len() < warmup + requested {
            return Err(RingError::HorizonExceeded {
                collected: all_periods.len().saturating_sub(warmup),
                requested,
            });
        }
        let periods_ps: Vec<f64> = all_periods[warmup..warmup + requested].to_vec();
        let halves = trace.half_periods();
        let half_start = (2 * warmup).min(halves.len());
        let half_end = (2 * (warmup + requested)).min(halves.len());
        let mean = periods_ps.iter().sum::<f64>() / periods_ps.len() as f64;
        Ok(RingRun {
            half_periods_ps: halves[half_start..half_end].to_vec(),
            frequency_mhz: 1e6 / mean,
            periods_ps,
            stats,
        })
    }
}

/// Expected transition count on a ring output collecting `total`
/// periods: two transitions per period, plus a quarter for the
/// pre-lock transient and for a first advance aimed with a period
/// prediction that runs long.
fn expected_transitions(total: usize) -> usize {
    total * 2 + total / 2 + 8
}

/// Where [`advance_to_edges`] gives up, in predicted runs: 1.3 × 2⁸.
/// A ring that has not produced its edges in 332.8 times the time it
/// should need is taken as not oscillating.
const HORIZON_BUDGET_RUNS: f64 = 1.3 * 256.0;

/// The stop rule of every measurement run: advances a ring until its
/// output holds more than `total` rising edges, and no further than
/// about one period past the edge that makes the count.
///
/// `advance_to(t)` simulates up to the absolute instant `t` and returns
/// the output's rising-edge count so far. The first advance aims at the
/// needed edge at `predicted_period_ps`; each later one adds the
/// shortfall at the pace measured so far (elapsed time per counted
/// edge), and a step that adds no edge doubles the next one. Nothing
/// here touches the simulator's event loop: the run's waveform does not
/// depend on where it is paused, only on where it stops.
///
/// # Errors
///
/// Returns [`RingError::NotOscillating`] (rising edges past `warmup`)
/// once the horizon reaches [`HORIZON_BUDGET_RUNS`] predicted runs
/// without the edges.
pub(crate) fn advance_to_edges(
    predicted_period_ps: f64,
    total: usize,
    warmup: usize,
    mut advance_to: impl FnMut(Time) -> usize,
) -> Result<(), RingError> {
    let needed = total + 1;
    let budget = predicted_period_ps * total as f64 * HORIZON_BUDGET_RUNS;
    let mut step = predicted_period_ps * needed as f64;
    let (mut horizon, mut edges) = (0.0_f64, 0_usize);
    loop {
        horizon = (horizon + step).min(budget);
        let counted = advance_to(Time::from_ps(horizon));
        if counted >= needed {
            return Ok(());
        }
        if horizon >= budget {
            return Err(RingError::NotOscillating {
                observed_transitions: counted.saturating_sub(warmup),
            });
        }
        step = if counted > edges {
            (needed - counted) as f64 * horizon / counted as f64
        } else {
            2.0 * step
        };
        edges = counted;
    }
}

/// Runs the simulation until `net` holds the rising edges that
/// `needed_periods` steady-state periods after `warmup` read.
fn run_to_periods(
    sim: &mut Simulator,
    net: strent_sim::NetId,
    expected_period_ps: f64,
    needed_periods: usize,
    warmup: usize,
) -> Result<(), RingError> {
    let total = needed_periods + warmup + 2;
    advance_to_edges(expected_period_ps, total, warmup, |horizon| {
        sim.run_until(horizon);
        sim.trace(net).map_or(0, |t| t.edge_count(Edge::Rising))
    })
}

/// Builds `config` through the verified build step, with SL012 a
/// finding, and runs it for `periods` steady-state periods.
///
/// # Errors
///
/// Returns an error if the ring fails verification or to oscillate, or
/// the simulator reports a fault.
pub fn run(
    config: &RingConfig,
    board: &Board,
    seed: u64,
    periods: usize,
) -> Result<RingRun, RingError> {
    let mut sim = Simulator::new(seed);
    let output = config.build(board, &mut sim, false)?.output();
    let capacity = expected_transitions(periods + WARMUP_PERIODS + 2);
    sim.watch_with_capacity(output, capacity)?;
    let expected = config.predicted_period_ps(board);
    run_to_periods(&mut sim, output, expected, periods, WARMUP_PERIODS)?;
    let trace = sim.trace(output).expect("watched");
    RingRun::from_trace(trace, WARMUP_PERIODS, periods, sim.stats())
}

/// [`run`] for an STR. Nothing in the workspace calls it: it keeps its
/// name for perfbench's kernel probe, and goes once that probe calls
/// [`run`].
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_str(
    config: &StrConfig,
    board: &Board,
    seed: u64,
    periods: usize,
) -> Result<RingRun, RingError> {
    run(&RingConfig::Str(config.clone()), board, seed, periods)
}

/// A full STR run that also records every stage output — the input for
/// mode detection and the Fig. 5 occupancy film.
#[derive(Debug, Clone)]
pub struct StrFullRun {
    /// The measurement view of the run (periods, frequency).
    pub run: RingRun,
    /// One trace per stage, in stage order.
    pub stage_traces: Vec<Trace>,
    /// The simulation end time.
    pub end_time: Time,
}

/// Builds and runs an STR with all stage outputs recorded.
///
/// Mode diagnosis is what this runner exists for, and Fig. 5 and the
/// mode map provoke the burst regime on purpose, so the verified build
/// excuses SL012 here; every other finding still applies.
///
/// This run does not stop at the edge it needs: it runs to 1.3 times
/// the predicted run, doubled (at most eight times) until the output
/// holds the edges. FIG5 cuts its occupancy film at
/// [`StrFullRun::end_time`], so that instant is part of the golden
/// output, and EXT-MODE classifies modes from the same traces.
///
/// # Errors
///
/// Returns [`RingError::NotOscillating`] when the output still holds
/// no more than `periods + WARMUP_PERIODS + 2` rising edges at the last
/// horizon, which a burst-mode ring short of edges meets too. Also
/// returns an error if the ring fails verification or the simulator
/// faults.
pub fn run_str_full(
    config: &StrConfig,
    board: &Board,
    seed: u64,
    periods: usize,
) -> Result<StrFullRun, RingError> {
    let mut sim = Simulator::new(seed);
    let ring = RingConfig::Str(config.clone()).build(board, &mut sim, true)?;
    let capacity = expected_transitions(periods + WARMUP_PERIODS + 2);
    for &net in ring.nets() {
        sim.watch_with_capacity(net, capacity)?;
    }
    let expected = analytic::str_period_ps(config, board);
    let (output, warmup) = (ring.output(), WARMUP_PERIODS);
    let total = periods + warmup + 2;
    let rising = |sim: &Simulator| sim.trace(output).map_or(0, |t| t.edge_count(Edge::Rising));
    let mut horizon = expected * total as f64 * 1.3;
    sim.run_until(Time::from_ps(horizon));
    for _ in 0..8 {
        if rising(&sim) > total {
            break;
        }
        horizon *= 2.0;
        sim.run_until(Time::from_ps(horizon));
    }
    let edges = rising(&sim);
    if edges <= total {
        return Err(RingError::NotOscillating {
            observed_transitions: edges.saturating_sub(warmup),
        });
    }
    let trace = sim.trace(output).expect("watched");
    let run = RingRun::from_trace(trace, warmup, periods, sim.stats())?;
    let stage_traces: Vec<Trace> = ring
        .nets()
        .iter()
        .map(|&net| sim.trace(net).expect("watched").clone())
        .collect();
    Ok(StrFullRun {
        run,
        stage_traces,
        end_time: sim.now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iro::IroConfig;
    use strent_device::Technology;
    use strent_sim::NetId;

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 7)
    }

    /// The rings the stop-rule tests cover, with a period count each.
    fn stop_rule_rings() -> [(RingConfig, usize); 3] {
        [
            (RingConfig::Str(StrConfig::new(32, 16).expect("valid")), 400),
            (RingConfig::Str(StrConfig::new(96, 48).expect("valid")), 150),
            (RingConfig::Iro(IroConfig::new(5).expect("valid")), 400),
        ]
    }

    /// [`run`] on `ring`.
    fn measured(ring: &RingConfig, seed: u64, periods: usize) -> RingRun {
        run(ring, &board(), seed, periods).expect("oscillates")
    }

    /// `ring` built and watched as [`run`] builds it, not yet run.
    fn built(ring: &RingConfig, seed: u64) -> (Simulator, NetId) {
        let mut sim = Simulator::new(seed);
        let output = ring
            .build(&board(), &mut sim, false)
            .expect("verifies")
            .output();
        sim.watch(output).expect("net exists");
        (sim, output)
    }

    #[test]
    fn stop_rule_runs_equal_runs_far_past_the_need() {
        for (ring, periods) in stop_rule_rings() {
            let run = measured(&ring, 3, periods);
            let (mut sim, output) = built(&ring, 3);
            let total = periods + WARMUP_PERIODS + 2;
            let far = 3.0 * ring.predicted_period_ps(&board()) * total as f64;
            sim.run_until(Time::from_ps(far));
            let trace = sim.trace(output).expect("watched");
            let mut reference =
                RingRun::from_trace(trace, WARMUP_PERIODS, periods, sim.stats()).expect("enough");
            assert!(
                run.stats.events_processed < reference.stats.events_processed,
                "{ring:?}: {} events vs {} far past the need",
                run.stats.events_processed,
                reference.stats.events_processed
            );
            // Only the kernel counters may differ.
            reference.stats = run.stats;
            assert_eq!(run, reference, "{ring:?}");
        }
    }

    #[test]
    fn a_wrong_period_prediction_yields_the_same_run() {
        for (ring, periods) in stop_rule_rings() {
            let mut run = measured(&ring, 4, periods);
            run.stats = SimStats::default();
            for factor in [0.5, 2.0] {
                let (mut sim, output) = built(&ring, 4);
                let predicted = factor * ring.predicted_period_ps(&board());
                run_to_periods(&mut sim, output, predicted, periods, WARMUP_PERIODS)
                    .expect("oscillates");
                let trace = sim.trace(output).expect("watched");
                let again =
                    RingRun::from_trace(trace, WARMUP_PERIODS, periods, SimStats::default())
                        .expect("enough");
                assert_eq!(again, run, "{ring:?} predicted at {factor}x");
            }
        }
    }

    #[test]
    fn runs_end_about_one_period_past_the_needed_edge() {
        for (ring, periods) in stop_rule_rings() {
            let (mut sim, output) = built(&ring, 5);
            let predicted = ring.predicted_period_ps(&board());
            run_to_periods(&mut sim, output, predicted, periods, WARMUP_PERIODS)
                .expect("oscillates");
            let trace = sim.trace(output).expect("watched");
            let rising = trace.edges(Edge::Rising);
            let needed = rising[periods + WARMUP_PERIODS + 2];
            let (last, _) = *trace.transitions().last().expect("transitions");
            let period = (rising[rising.len() - 1] - rising[0]) / (rising.len() - 1) as f64;
            assert!(
                last - needed <= 1.25 * period,
                "{ring:?}: last transition {} periods past the needed edge",
                (last - needed) / period
            );
        }
    }

    #[test]
    fn a_ring_without_edges_fails_within_the_horizon_budget() {
        let (period, total) = (1_000.0, 100);
        let budget = period * total as f64 * 1.3 * 256.0;
        // A dead ring, and one that dies after 50 rising edges.
        for (edges, warmup) in [(0, WARMUP_PERIODS), (50, 10)] {
            let mut horizons = Vec::new();
            let result = advance_to_edges(period, total, warmup, |t| {
                horizons.push(t.as_ps());
                edges.min((t.as_ps() / period) as usize)
            });
            assert_eq!(
                result,
                Err(RingError::NotOscillating {
                    observed_transitions: edges.saturating_sub(warmup)
                })
            );
            assert_eq!(
                horizons.last().copied(),
                Some(budget),
                "gives up at the budget"
            );
            assert!(horizons.windows(2).all(|w| w[0] < w[1]), "{horizons:?}");
            assert!(
                horizons.len() <= 10,
                "doubles while no edge comes: {horizons:?}"
            );
        }
    }

    #[test]
    fn iro_run_collects_requested_periods() {
        let config = IroConfig::new(5).expect("valid");
        let run = run(&RingConfig::Iro(config.clone()), &board(), 1, 300).expect("oscillates");
        assert_eq!(run.periods_ps.len(), 300);
        assert_eq!(run.half_periods_ps.len(), 600);
        let predicted = analytic::iro_frequency_mhz(&config, &board());
        assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 0.02,
            "sim {} vs analytic {predicted}",
            run.frequency_mhz
        );
    }

    #[test]
    fn str_run_matches_analytic_frequency() {
        let config = StrConfig::new(16, 8).expect("valid");
        let run = run(&RingConfig::Str(config.clone()), &board(), 1, 300).expect("oscillates");
        assert_eq!(run.periods_ps.len(), 300);
        let predicted = analytic::str_frequency_mhz(&config, &board());
        assert!(
            (run.frequency_mhz / predicted - 1.0).abs() < 0.03,
            "sim {} vs analytic {predicted}",
            run.frequency_mhz
        );
    }

    #[test]
    fn full_run_records_every_stage() {
        let config = StrConfig::new(8, 4).expect("valid");
        let full = run_str_full(&config, &board(), 2, 100).expect("oscillates");
        assert_eq!(full.stage_traces.len(), 8);
        for trace in &full.stage_traces {
            assert!(trace.len() > 100, "every stage toggles");
        }
        assert!(full.end_time > Time::ZERO);
    }

    #[test]
    fn runs_are_deterministic() {
        let ring = RingConfig::Str(StrConfig::new(12, 6).expect("valid"));
        let a = run(&ring, &board(), 9, 200).expect("oscillates");
        let b = run(&ring, &board(), 9, 200).expect("oscillates");
        assert_eq!(a, b);
        let c = run(&ring, &board(), 10, 200).expect("oscillates");
        assert_ne!(a.periods_ps, c.periods_ps, "different seed, different jitter");
    }
}
