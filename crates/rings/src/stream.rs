//! Long-running incremental ring sources.
//!
//! The measurement runners in [`crate::measure`] build a ring, run it to
//! a horizon, and hand back a finished trace — the right shape for a
//! one-shot experiment, the wrong shape for a *service*. A serving
//! worker needs to keep one ring alive indefinitely, advance it in
//! small batches, read the freshly produced waveform, and discard what
//! it has already consumed so memory stays bounded over hours of
//! uptime.
//!
//! [`RingStream`] is that shape: it owns the [`Simulator`], the built
//! ring and a consumption cursor. Each `advance_by` extends the
//! simulation; `trace()` exposes the waveform for sampling; and
//! `prune_before` drops everything the consumer is done with (via
//! [`Trace::discard_before`]). The ring is built once, through the same
//! verified build step as the one-shot runners
//! ([`RingConfig::build`]), and a [`FaultPlan`] can be armed for
//! degradation-aware serving — supply droops are split off to the
//! device layer the same way [`crate::fault::run_degraded`] does.

use strent_device::Board;
use strent_sim::{FaultPlan, SimStats, Simulator, Time, Trace};

use crate::error::RingError;
use crate::fault::apply_supply_faults;
use crate::ring::RingConfig;

/// An incrementally stepped, indefinitely running ring source.
#[derive(Debug)]
pub struct RingStream {
    sim: Simulator,
    output: strent_sim::NetId,
    expected_period_ps: f64,
    /// Everything before this instant has been consumed and pruned.
    consumed_until: Time,
}

impl RingStream {
    /// Builds the ring on `board`, verifies the netlist, optionally
    /// arms `fault`, and returns the stream positioned at `t = 0`.
    ///
    /// When a fault plan is supplied, its supply-droop half is applied
    /// to a cloned board before construction and the Eq. 1 burst-mode
    /// prediction (SL012) is excused, as in
    /// [`run_degraded`](crate::fault::run_degraded): degraded operation
    /// is the point. Every other finding still rejects the build.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration, an unsupportable
    /// supply droop, a plan naming an unknown net, or a
    /// static-verification rejection.
    pub fn build(
        config: &RingConfig,
        board: &Board,
        seed: u64,
        fault: Option<&FaultPlan>,
    ) -> Result<Self, RingError> {
        let board = match fault {
            Some(plan) => apply_supply_faults(board, plan)?,
            None => board.clone(),
        };
        let mut sim = Simulator::new(seed);
        let ring = config.build(&board, &mut sim, fault.is_some())?;
        sim.watch(ring.output())?;
        if let Some(plan) = fault {
            sim.arm_faults(&plan.without_supply_faults(), ring.components())?;
        }
        Ok(RingStream {
            sim,
            output: ring.output(),
            expected_period_ps: config.predicted_period_ps(&board),
            consumed_until: Time::ZERO,
        })
    }

    /// The analytic period prediction for this stream's ring, ps.
    #[must_use]
    pub fn expected_period_ps(&self) -> f64 {
        self.expected_period_ps
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Kernel statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Advances the simulation by `delta_ps` picoseconds past the later
    /// of the current simulation time and the prune cursor, and returns
    /// the new horizon.
    pub fn advance_by(&mut self, delta_ps: f64) -> Time {
        let horizon = self.sim.now().max(self.consumed_until) + delta_ps;
        self.sim.run_until(horizon);
        horizon
    }

    /// The output-net waveform produced so far (everything at or after
    /// the last [`prune_before`](RingStream::prune_before) cut).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        self.sim.trace(self.output).expect("output is watched")
    }

    /// Discards trace history strictly before `until`, returning the
    /// number of transitions dropped. The consumption cursor is
    /// monotone: pruning backwards is a no-op.
    pub fn prune_before(&mut self, until: Time) -> usize {
        if until <= self.consumed_until {
            return 0;
        }
        self.consumed_until = until;
        self.sim
            .traces_mut()
            .get_mut(self.output)
            .expect("output is watched")
            .discard_before(until)
    }

    /// Everything before this instant has been pruned away.
    #[must_use]
    pub fn consumed_until(&self) -> Time {
        self.consumed_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IroConfig, StrConfig};
    use strent_device::Technology;
    use strent_sim::{Bit, Edge};

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 7)
    }

    fn str_stream(seed: u64) -> RingStream {
        let config = RingConfig::Str(StrConfig::new(16, 8).expect("valid"));
        RingStream::build(&config, &board(), seed, None).expect("builds")
    }

    #[test]
    fn incremental_stepping_matches_one_shot_simulation() {
        // Advancing in ten 20 ns slices produces the same waveform as
        // one 200 ns run: stepping is purely an execution schedule.
        let mut incremental = str_stream(11);
        for _ in 0..10 {
            incremental.advance_by(20_000.0);
        }
        let mut one_shot = str_stream(11);
        one_shot.advance_by(200_000.0);
        assert_eq!(incremental.trace(), one_shot.trace());
        assert_eq!(incremental.now(), one_shot.now());
    }

    #[test]
    fn pruning_bounds_memory_without_changing_the_future() {
        let mut pruned = str_stream(5);
        let mut kept = str_stream(5);
        let mut pruned_len_max = 0usize;
        for step in 1..=20 {
            pruned.advance_by(10_000.0);
            kept.advance_by(10_000.0);
            pruned.prune_before(Time::from_ps(f64::from(step) * 10_000.0 - 5_000.0));
            pruned_len_max = pruned_len_max.max(pruned.trace().len());
        }
        // The pruned stream retains only ~one slice of history...
        assert!(
            pruned_len_max < kept.trace().len() / 4,
            "pruned max {pruned_len_max} vs full {}",
            kept.trace().len()
        );
        // ...and the surviving suffix is identical to the unpruned run.
        let cut = pruned.consumed_until();
        let suffix: Vec<_> = kept
            .trace()
            .transitions()
            .iter()
            .filter(|&&(t, _)| t >= cut)
            .copied()
            .collect();
        assert_eq!(pruned.trace().transitions(), suffix.as_slice());
        assert_eq!(pruned.trace().value_at(cut), kept.trace().value_at(cut));
    }

    #[test]
    fn prune_cursor_is_monotone() {
        let mut stream = str_stream(3);
        stream.advance_by(50_000.0);
        let dropped = stream.prune_before(Time::from_ps(30_000.0));
        assert!(dropped > 0);
        assert_eq!(stream.prune_before(Time::from_ps(10_000.0)), 0, "no rewind");
        assert_eq!(stream.consumed_until(), Time::from_ps(30_000.0));
    }

    #[test]
    fn iro_streams_oscillate_too() {
        let config = RingConfig::Iro(IroConfig::new(9).expect("valid"));
        let mut stream = RingStream::build(&config, &board(), 2, None).expect("builds");
        stream.advance_by(100_000.0);
        assert!(stream.trace().edge_count(Edge::Rising) > 10);
        assert!(stream.stats().events_processed > 0);
        assert!(stream.expected_period_ps() > 0.0);
    }

    #[test]
    fn fault_armed_stream_shows_the_clamp() {
        let config = RingConfig::Str(StrConfig::new(8, 4).expect("valid"));
        let plan = FaultPlan::new(9)
            .with_stuck_at("str0", Bit::Low, 40_000.0, 90_000.0)
            .expect("valid");
        let mut stream =
            RingStream::build(&config, &board(), 3, Some(&plan)).expect("builds");
        stream.advance_by(120_000.0);
        let clamped = stream
            .trace()
            .edges(Edge::Rising)
            .iter()
            .map(|t| t.as_ps())
            .filter(|&t| (42_000.0..90_000.0).contains(&t))
            .count();
        assert_eq!(clamped, 0, "clamp window stays flat");
    }

    #[test]
    fn bad_configurations_are_rejected_at_build() {
        // A droop below threshold is rejected exactly as in the
        // degraded runners.
        let config = RingConfig::Iro(IroConfig::new(5).expect("valid"));
        let plan = FaultPlan::new(0)
            .with_supply_droop(1_000.0, 0.8, 2_000.0)
            .expect("valid spec");
        assert!(RingStream::build(&config, &board(), 1, Some(&plan)).is_err());
    }
}
