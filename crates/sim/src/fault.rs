//! Deterministic fault injection for live simulations.
//!
//! A [`FaultPlan`] is a seed-driven schedule of physical faults —
//! stuck-at clamps on named nets, transient glitch pulses, per-stage
//! delay drift (aging) and supply-droop windows — that a caller builds
//! up front and arms on a [`Simulator`] before running it. Arming
//! translates the plan into ordinary queue events (a crate-private
//! `Occurrence` variant), so injection rides the same `(time, seq)`
//! ordering as every other event and the run stays bit-reproducible
//! under a fixed seed.
//!
//! The hot path pays nothing when no plan is armed: the engine holds an
//! `Option<Box<FaultRuntime>>` that `drive_net` checks with a single
//! branch, and the per-component drift table handed to [`Context`] is
//! an empty slice.
//!
//! Supply-droop specs are *not* applied by the engine — voltage lives
//! in the device layer (`strent-device::Supply`), so ring-level runners
//! split them out with [`FaultPlan::supply_faults`] and rebuild the
//! board before construction. [`Simulator::arm_faults`] rejects plans
//! that still contain them.
//!
//! See `docs/robustness.md` for the full fault taxonomy.
//!
//! [`Simulator`]: crate::Simulator
//! [`Simulator::arm_faults`]: crate::Simulator::arm_faults
//! [`Context`]: crate::Context

use crate::error::SimError;
use crate::rng::RngTree;
use crate::signal::Bit;

/// What a single fault does once it triggers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Clamp the target net to `value` from the fault time until
    /// `until_ps` (absolute). Drives attempted while the clamp holds
    /// are blocked but remembered; when the clamp releases, the last
    /// blocked level is re-driven so a stalled ring wakes up again.
    StuckAt {
        /// The forced level.
        value: Bit,
        /// Absolute release time, ps.
        until_ps: f64,
    },
    /// Force the target net to `value` for `width_ps`, then restore the
    /// pre-glitch level (or the last blocked drive, if the ring fired
    /// into the glitch window).
    Glitch {
        /// The forced level.
        value: Bit,
        /// Pulse width, ps.
        width_ps: f64,
    },
    /// Multiply every delay the target stage schedules by a factor that
    /// ramps linearly from 1 at the fault time to `factor` over
    /// `ramp_ps` — the aging model.
    DelayDrift {
        /// Final delay multiplier (> 0).
        factor: f64,
        /// Ramp duration, ps (0 applies the full factor instantly).
        ramp_ps: f64,
    },
    /// Drop the supply from its DC level by `delta_v` volts until
    /// `until_ps` (absolute). Applied at the device layer — see the
    /// module docs.
    SupplyDroop {
        /// Voltage drop, V (> 0).
        delta_v: f64,
        /// Absolute recovery time, ps.
        until_ps: f64,
    },
}

/// What a fault acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultTarget {
    /// A net, by its registered name (e.g. `"str3"`, `"iro0"`).
    Net(String),
    /// A stage, by position in the handle's component list.
    Stage(usize),
    /// The board supply (only meaningful for [`FaultKind::SupplyDroop`]).
    Supply,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What the fault acts on.
    pub target: FaultTarget,
    /// Absolute onset time, ps.
    pub at_ps: f64,
    /// What happens at the onset.
    pub kind: FaultKind,
}

/// A deterministic, seed-driven schedule of faults.
///
/// Build with the `with_*` constructors, then hand to
/// [`Simulator::arm_faults`](crate::Simulator::arm_faults) (net/stage
/// faults) and the device layer ([`FaultPlan::supply_faults`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

/// Validates a fault onset/extent pair.
fn check_window(what: &str, at_ps: f64, end_ps: f64) -> Result<(), SimError> {
    if !at_ps.is_finite() || at_ps < 0.0 {
        return Err(SimError::InvalidFault(format!(
            "{what}: onset must be finite and non-negative, got {at_ps}"
        )));
    }
    if !end_ps.is_finite() || end_ps <= at_ps {
        return Err(SimError::InvalidFault(format!(
            "{what}: window end {end_ps} must lie after onset {at_ps}"
        )));
    }
    Ok(())
}

impl FaultPlan {
    /// An empty plan whose seed drives the burst-spacing dither.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// The scheduled specs, in insertion order.
    #[must_use]
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The plan seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` if no fault is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Schedules a stuck-at clamp on the net named `net` over
    /// `[at_ps, until_ps)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for a non-finite/negative
    /// onset or an empty window.
    pub fn with_stuck_at(
        mut self,
        net: impl Into<String>,
        value: Bit,
        at_ps: f64,
        until_ps: f64,
    ) -> Result<Self, SimError> {
        check_window("stuck-at", at_ps, until_ps)?;
        self.specs.push(FaultSpec {
            target: FaultTarget::Net(net.into()),
            at_ps,
            kind: FaultKind::StuckAt { value, until_ps },
        });
        Ok(self)
    }

    /// Schedules a single glitch pulse on the net named `net`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for a non-finite/negative
    /// onset or a non-positive width.
    pub fn with_glitch(
        mut self,
        net: impl Into<String>,
        value: Bit,
        at_ps: f64,
        width_ps: f64,
    ) -> Result<Self, SimError> {
        if !width_ps.is_finite() || width_ps <= 0.0 {
            return Err(SimError::InvalidFault(format!(
                "glitch: width must be positive, got {width_ps}"
            )));
        }
        check_window("glitch", at_ps, at_ps + width_ps)?;
        self.specs.push(FaultSpec {
            target: FaultTarget::Net(net.into()),
            at_ps,
            kind: FaultKind::Glitch { value, width_ps },
        });
        Ok(self)
    }

    /// Schedules a burst of `count` glitch pulses with nominal spacing
    /// `spacing_ps`, each start dithered by up to ±10 % of the spacing
    /// from the plan seed — the "EM injection" style disturbance. The
    /// dither is a pure function of `(seed, specs.len(), pulse index)`,
    /// so equal plans expand to equal schedules.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for invalid geometry
    /// (`count == 0`, non-positive width/spacing, or pulses that would
    /// overlap: `width_ps` must stay below 80 % of `spacing_ps`).
    pub fn with_glitch_burst(
        mut self,
        net: impl Into<String>,
        value: Bit,
        at_ps: f64,
        count: usize,
        spacing_ps: f64,
        width_ps: f64,
    ) -> Result<Self, SimError> {
        if count == 0 {
            return Err(SimError::InvalidFault(
                "glitch burst: count must be at least 1".to_owned(),
            ));
        }
        if !spacing_ps.is_finite() || spacing_ps <= 0.0 {
            return Err(SimError::InvalidFault(format!(
                "glitch burst: spacing must be positive, got {spacing_ps}"
            )));
        }
        if !width_ps.is_finite() || width_ps <= 0.0 || width_ps > 0.8 * spacing_ps {
            return Err(SimError::InvalidFault(format!(
                "glitch burst: width {width_ps} must be positive and below 80% of spacing {spacing_ps}"
            )));
        }
        check_window("glitch burst", at_ps, at_ps + width_ps)?;
        let net = net.into();
        // The dither stream is keyed on the spec index the burst starts
        // at, so appending bursts in a different order produces
        // different (but still deterministic) schedules.
        let mut rng = RngTree::new(self.seed).stream(self.specs.len() as u64);
        for pulse in 0..count {
            // ±10 % of the spacing keeps consecutive pulses disjoint
            // given the 80 % width bound above.
            let dither = rng.uniform_in(-0.1, 0.1) * spacing_ps;
            let start = if pulse == 0 {
                at_ps
            } else {
                at_ps + pulse as f64 * spacing_ps + dither
            };
            self.specs.push(FaultSpec {
                target: FaultTarget::Net(net.clone()),
                at_ps: start,
                kind: FaultKind::Glitch { value, width_ps },
            });
        }
        Ok(self)
    }

    /// Schedules delay drift (aging) on stage `stage`: delays it
    /// schedules ramp to `factor`× over `ramp_ps` starting at `at_ps`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for a non-positive factor or
    /// invalid times.
    pub fn with_delay_drift(
        mut self,
        stage: usize,
        at_ps: f64,
        factor: f64,
        ramp_ps: f64,
    ) -> Result<Self, SimError> {
        if !at_ps.is_finite() || at_ps < 0.0 {
            return Err(SimError::InvalidFault(format!(
                "delay drift: onset must be finite and non-negative, got {at_ps}"
            )));
        }
        if !factor.is_finite() || factor <= 0.0 {
            return Err(SimError::InvalidFault(format!(
                "delay drift: factor must be positive, got {factor}"
            )));
        }
        if !ramp_ps.is_finite() || ramp_ps < 0.0 {
            return Err(SimError::InvalidFault(format!(
                "delay drift: ramp must be finite and non-negative, got {ramp_ps}"
            )));
        }
        self.specs.push(FaultSpec {
            target: FaultTarget::Stage(stage),
            at_ps,
            kind: FaultKind::DelayDrift { factor, ramp_ps },
        });
        Ok(self)
    }

    /// Schedules a supply droop of `delta_v` volts over
    /// `[at_ps, until_ps)`. Consumed by the device layer, not the
    /// engine — see the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFault`] for a non-positive drop or an
    /// empty window.
    pub fn with_supply_droop(
        mut self,
        at_ps: f64,
        delta_v: f64,
        until_ps: f64,
    ) -> Result<Self, SimError> {
        if !delta_v.is_finite() || delta_v <= 0.0 {
            return Err(SimError::InvalidFault(format!(
                "supply droop: delta_v must be positive, got {delta_v}"
            )));
        }
        check_window("supply droop", at_ps, until_ps)?;
        self.specs.push(FaultSpec {
            target: FaultTarget::Supply,
            at_ps,
            kind: FaultKind::SupplyDroop { delta_v, until_ps },
        });
        Ok(self)
    }

    /// The supply-droop specs — the part of the plan the device layer
    /// applies (the engine rejects them).
    #[must_use]
    pub fn supply_faults(&self) -> Vec<&FaultSpec> {
        self.specs
            .iter()
            .filter(|s| s.target == FaultTarget::Supply)
            .collect()
    }

    /// A copy of the plan without its supply-droop specs — what
    /// [`Simulator::arm_faults`](crate::Simulator::arm_faults) accepts
    /// after the device layer consumed [`FaultPlan::supply_faults`].
    #[must_use]
    pub fn without_supply_faults(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            specs: self
                .specs
                .iter()
                .filter(|s| s.target != FaultTarget::Supply)
                .cloned()
                .collect(),
        }
    }

    /// The earliest fault onset, ps — the healthy/degraded boundary
    /// monitors key on. `None` for an empty plan.
    #[must_use]
    pub fn first_onset_ps(&self) -> Option<f64> {
        self.specs
            .iter()
            .map(|s| s.at_ps)
            .min_by(|a, b| a.partial_cmp(b).expect("onsets are finite"))
    }
}

/// A forcing window (stuck-at or glitch) resolved onto a net id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ForceState {
    /// The clamped net (index into the simulator's net table).
    pub(crate) net: u32,
    /// The forced level while active.
    pub(crate) value: Bit,
    /// Whether the window is currently holding the net.
    pub(crate) active: bool,
    /// Net level right before the window opened (glitch restore value).
    pub(crate) prev: Bit,
    /// Last drive blocked while the window held (ring wake-up value).
    pub(crate) blocked: Option<Bit>,
}

/// A delay-drift (aging) record resolved onto a component id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DriftState {
    /// The aged component.
    pub(crate) component: u32,
    /// Final delay multiplier.
    pub(crate) factor: f64,
    /// Onset, ps.
    pub(crate) from_ps: f64,
    /// Ramp duration, ps.
    pub(crate) ramp_ps: f64,
}

impl DriftState {
    /// The delay multiplier at absolute time `now_ps`: 1 before the
    /// onset, `factor` after the ramp, linear in between.
    #[inline]
    pub(crate) fn scale_at(&self, now_ps: f64) -> f64 {
        if now_ps < self.from_ps {
            return 1.0;
        }
        if self.ramp_ps <= 0.0 {
            return self.factor;
        }
        let progress = ((now_ps - self.from_ps) / self.ramp_ps).min(1.0);
        1.0 + (self.factor - 1.0) * progress
    }
}

/// What a scheduled fault-edge event does when it fires. The `usize`
/// indexes [`FaultRuntime::forces`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    /// Open forcing window `i`: remember the current level, clamp.
    ForceStart(usize),
    /// Close forcing window `i`: release, re-drive the wake-up level.
    ForceEnd(usize),
}

/// The armed form of a [`FaultPlan`]: forcing windows and drift records
/// resolved onto net/component ids, plus the action table the
/// fault-edge queue events index into.
///
/// Boxed behind an `Option` on the simulator so the unarmed hot path
/// pays one branch and no storage.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    pub(crate) forces: Vec<ForceState>,
    pub(crate) drifts: Vec<DriftState>,
    pub(crate) actions: Vec<FaultAction>,
}

impl FaultRuntime {
    /// Applies active clamps to an organic drive of `net`: returns the
    /// (possibly overridden) value to apply, remembering the blocked
    /// level so the closing edge can re-drive it.
    #[inline]
    pub(crate) fn filter(&mut self, net: u32, value: Bit) -> Bit {
        for force in &mut self.forces {
            if force.active && force.net == net {
                if value != force.value {
                    force.blocked = Some(value);
                }
                return force.value;
            }
        }
        value
    }

    /// Per-component drift table view handed to `Context` (empty slice
    /// when unarmed — the caller maps `None` to `&[]`).
    #[inline]
    pub(crate) fn drift_table(&self) -> &[DriftState] {
        &self.drifts
    }
}

/// Combined delay multiplier for `component` at `now_ps` over a drift
/// table (the empty-table case is the unarmed hot path).
#[inline]
pub(crate) fn drift_scale(drifts: &[DriftState], component: usize, now_ps: f64) -> f64 {
    let mut scale = 1.0;
    for drift in drifts {
        if drift.component as usize == component {
            scale *= drift.scale_at(now_ps);
        }
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Component, Context, Event, NetId, SimError, Simulator, Time};

    /// An inverting delay stage closed on itself — the smallest
    /// oscillator, used to observe clamp/release and aging behavior.
    struct LoopedInverter {
        net: NetId,
        delay: f64,
    }

    impl Component for LoopedInverter {
        fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
            if let Event::NetChanged { net, value } = *event {
                if net == self.net {
                    ctx.schedule_net(self.net, !value, self.delay);
                }
            }
        }
    }

    /// 100 ps looped inverter on a watched net named "osc", kicked at
    /// t = 0: edges at 0, 100, 200, ...
    fn oscillator() -> (Simulator, NetId, crate::ComponentId) {
        let mut sim = Simulator::new(7);
        let net = sim.add_net("osc");
        let inv = sim.add_component(LoopedInverter { net, delay: 100.0 });
        sim.listen(net, inv).expect("net exists");
        sim.watch(net).expect("net exists");
        sim.inject(net, Bit::High, 0.0).expect("valid");
        (sim, net, inv)
    }

    #[test]
    fn stuck_at_clamps_then_releases_and_ring_resumes() {
        let (mut sim, net, _stage) = oscillator();
        let plan = FaultPlan::new(1)
            .with_stuck_at("osc", Bit::High, 1_000.0, 2_000.0)
            .expect("valid");
        sim.arm_faults(&plan, &[]).expect("arms");
        sim.run_until(Time::from_ps(3_000.0));
        let trace = sim.trace(net).expect("watched");
        // Clamped flat inside the window...
        assert_eq!(trace.value_at(Time::from_ps(1_050.0)), Bit::High);
        assert_eq!(trace.value_at(Time::from_ps(1_550.0)), Bit::High);
        assert_eq!(trace.value_at(Time::from_ps(1_950.0)), Bit::High);
        // ...released at 2000 with the blocked drive (Low), after which
        // the loop oscillates again with its 200 ps period.
        assert_eq!(trace.value_at(Time::from_ps(2_050.0)), Bit::Low);
        assert_eq!(trace.value_at(Time::from_ps(2_150.0)), Bit::High);
        assert_eq!(trace.value_at(Time::from_ps(2_250.0)), Bit::Low);
        // No transitions recorded strictly inside the clamp window.
        let inside = trace
            .transitions()
            .iter()
            .filter(|(t, _)| t.as_ps() > 1_000.0 && t.as_ps() < 2_000.0)
            .count();
        assert_eq!(inside, 0, "clamp window must be flat");
    }

    #[test]
    fn glitch_forces_and_restores_a_quiet_net() {
        let mut sim = Simulator::new(7);
        let net = sim.add_net("quiet");
        sim.watch(net).expect("net exists");
        let plan = FaultPlan::new(1)
            .with_glitch("quiet", Bit::High, 500.0, 100.0)
            .expect("valid");
        sim.arm_faults(&plan, &[]).expect("arms");
        sim.run_until(Time::from_ps(1_000.0));
        let trace = sim.trace(net).expect("watched");
        assert_eq!(trace.value_at(Time::from_ps(499.0)), Bit::Low);
        assert_eq!(trace.value_at(Time::from_ps(550.0)), Bit::High);
        // Restored to the pre-glitch level after the pulse.
        assert_eq!(trace.value_at(Time::from_ps(700.0)), Bit::Low);
        assert_eq!(trace.transitions().len(), 2);
    }

    #[test]
    fn delay_drift_stretches_the_period() {
        let (mut sim, net, stage) = oscillator();
        let plan = FaultPlan::new(1)
            .with_delay_drift(0, 0.0, 2.0, 0.0)
            .expect("valid");
        sim.arm_faults(&plan, &[stage]).expect("arms");
        sim.run_until(Time::from_ps(2_000.0));
        let trace = sim.trace(net).expect("watched");
        // Delays double instantly: edges at 0, 200, 400, ... instead
        // of every 100 ps.
        let edges = trace.transitions();
        assert!(edges.len() >= 5);
        for pair in edges.windows(2) {
            let gap = pair[1].0.as_ps() - pair[0].0.as_ps();
            assert!((gap - 200.0).abs() < 1e-9, "spacing {gap}");
        }
    }

    #[test]
    fn empty_plan_is_bit_identical_to_unarmed() {
        let run = |arm: bool| {
            let (mut sim, net, _) = oscillator();
            if arm {
                sim.arm_faults(&FaultPlan::new(9), &[]).expect("arms");
            }
            sim.run_until(Time::from_ps(5_000.0));
            sim.trace(net).expect("watched").transitions().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn arm_rejects_bad_plans() {
        let (mut sim, _, _) = oscillator();
        // Unknown net name.
        let plan = FaultPlan::new(1)
            .with_stuck_at("nope", Bit::High, 0.0, 10.0)
            .expect("valid");
        assert!(matches!(
            sim.arm_faults(&plan, &[]),
            Err(SimError::UnknownNetName(_))
        ));
        // Supply specs belong to the device layer.
        let plan = FaultPlan::new(1)
            .with_supply_droop(0.0, 0.2, 10.0)
            .expect("valid");
        assert!(matches!(
            sim.arm_faults(&plan, &[]),
            Err(SimError::InvalidFault(_))
        ));
        assert!(sim
            .arm_faults(&plan.without_supply_faults(), &[])
            .is_ok());
        // Stage index out of range.
        let plan = FaultPlan::new(1)
            .with_delay_drift(5, 0.0, 2.0, 0.0)
            .expect("valid");
        assert!(matches!(
            sim.arm_faults(&plan, &[]),
            Err(SimError::InvalidFault(_))
        ));
        // Onset before current time.
        sim.run_until(Time::from_ps(100.0));
        let plan = FaultPlan::new(1)
            .with_glitch("osc", Bit::High, 50.0, 10.0)
            .expect("valid");
        assert!(matches!(
            sim.arm_faults(&plan, &[]),
            Err(SimError::InvalidFault(_))
        ));
    }

    #[test]
    fn builders_validate() {
        assert!(FaultPlan::new(1)
            .with_stuck_at("n", Bit::High, 10.0, 5.0)
            .is_err());
        assert!(FaultPlan::new(1)
            .with_stuck_at("n", Bit::High, -1.0, 5.0)
            .is_err());
        assert!(FaultPlan::new(1).with_glitch("n", Bit::High, 0.0, 0.0).is_err());
        assert!(FaultPlan::new(1)
            .with_glitch_burst("n", Bit::High, 0.0, 0, 100.0, 10.0)
            .is_err());
        assert!(FaultPlan::new(1)
            .with_glitch_burst("n", Bit::High, 0.0, 3, 100.0, 90.0)
            .is_err());
        assert!(FaultPlan::new(1).with_delay_drift(0, 0.0, 0.0, 10.0).is_err());
        assert!(FaultPlan::new(1).with_delay_drift(0, 0.0, 2.0, -1.0).is_err());
        assert!(FaultPlan::new(1).with_supply_droop(0.0, -0.1, 10.0).is_err());
        let plan = FaultPlan::new(1)
            .with_stuck_at("n", Bit::High, 0.0, 5.0)
            .expect("valid")
            .with_supply_droop(1.0, 0.2, 9.0)
            .expect("valid");
        assert_eq!(plan.specs().len(), 2);
        assert_eq!(plan.supply_faults().len(), 1);
        assert_eq!(plan.without_supply_faults().specs().len(), 1);
        assert_eq!(plan.first_onset_ps(), Some(0.0));
    }

    #[test]
    fn burst_expansion_is_deterministic_and_disjoint() {
        let expand = || {
            FaultPlan::new(42)
                .with_glitch_burst("n", Bit::High, 1000.0, 8, 200.0, 50.0)
                .expect("valid")
        };
        let a = expand();
        let b = expand();
        assert_eq!(a, b, "equal seeds must expand identically");
        assert_eq!(a.specs().len(), 8);
        // Pulses stay ordered and non-overlapping: dither is ±10 % of
        // spacing and width is bounded by 80 % of spacing.
        let mut last_end = f64::MIN;
        for spec in a.specs() {
            let FaultKind::Glitch { width_ps, .. } = spec.kind else {
                panic!("burst expands to glitches");
            };
            assert!(spec.at_ps >= last_end, "pulse overlap at {}", spec.at_ps);
            last_end = spec.at_ps + width_ps;
        }
        // A different seed dithers differently.
        let c = FaultPlan::new(43)
            .with_glitch_burst("n", Bit::High, 1000.0, 8, 200.0, 50.0)
            .expect("valid");
        assert_ne!(a, c);
    }

    #[test]
    fn drift_scale_ramps_linearly() {
        let drift = DriftState {
            component: 0,
            factor: 3.0,
            from_ps: 100.0,
            ramp_ps: 200.0,
        };
        assert_eq!(drift.scale_at(50.0), 1.0);
        assert_eq!(drift.scale_at(100.0), 1.0);
        assert!((drift.scale_at(200.0) - 2.0).abs() < 1e-12);
        assert_eq!(drift.scale_at(300.0), 3.0);
        assert_eq!(drift.scale_at(1000.0), 3.0);
        let instant = DriftState {
            ramp_ps: 0.0,
            ..drift
        };
        assert_eq!(instant.scale_at(100.0001), 3.0);
    }

    #[test]
    fn filter_blocks_and_remembers() {
        let mut rt = FaultRuntime {
            forces: vec![ForceState {
                net: 3,
                value: Bit::High,
                active: true,
                prev: Bit::Low,
                blocked: None,
            }],
            drifts: Vec::new(),
            actions: Vec::new(),
        };
        // Other nets pass through.
        assert_eq!(rt.filter(2, Bit::Low), Bit::Low);
        // The clamped net is overridden and the blocked level kept.
        assert_eq!(rt.filter(3, Bit::Low), Bit::High);
        assert_eq!(rt.forces[0].blocked, Some(Bit::Low));
        // Driving the forced value doesn't clobber the wake-up level.
        assert_eq!(rt.filter(3, Bit::High), Bit::High);
        assert_eq!(rt.forces[0].blocked, Some(Bit::Low));
        // Inactive windows pass everything through.
        rt.forces[0].active = false;
        assert_eq!(rt.filter(3, Bit::Low), Bit::Low);
    }
}
