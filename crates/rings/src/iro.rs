//! Inverter ring oscillators (Fig. 1 of the paper).
//!
//! The first stage is an inverter; all other stages are delay elements.
//! One event circulates; the period is two laps, so local Gaussian jitter
//! accumulates as `sigma_period = sqrt(2L) * sigma_g` (Eq. 4) and global
//! deterministic delay modulation accumulates linearly over the lap.

use strent_device::noise::FlickerProcess;
use strent_device::{Board, LutCell, Supply};
use strent_sim::{Bit, Component, ComponentId, Context, Event, NetId, Simulator};

use crate::error::RingError;

/// Timer tag used to bootstrap ring components at `t = 0`.
pub(crate) const INIT_TAG: u64 = 0;

/// Configuration of an inverter ring oscillator.
///
/// # Examples
///
/// ```
/// use strent_rings::IroConfig;
///
/// let config = IroConfig::new(5)?;
/// assert_eq!(config.length(), 5);
/// # Ok::<(), strent_rings::RingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IroConfig {
    length: usize,
    placement_base: u64,
    routing_override_ps: Option<f64>,
}

impl IroConfig {
    /// Creates a configuration for an `length`-stage IRO.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidConfig`] if `length == 0`.
    pub fn new(length: usize) -> Result<Self, RingError> {
        if length == 0 {
            return Err(RingError::InvalidConfig(
                "an IRO needs at least one stage".to_owned(),
            ));
        }
        Ok(IroConfig {
            length,
            placement_base: 0,
            routing_override_ps: None,
        })
    }

    /// Number of ring stages.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Places the ring starting at a different cell index (so several
    /// rings on one board use distinct silicon).
    #[must_use]
    pub fn with_placement_base(mut self, base: u64) -> Self {
        self.placement_base = base;
        self
    }

    /// Overrides the per-stage routing overhead (ps) instead of the
    /// technology's calibrated [`RoutingModel`].
    ///
    /// [`RoutingModel`]: strent_device::RoutingModel
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidConfig`] (surfaced as an `SL010`
    /// diagnostic) if the value is negative or non-finite.
    pub fn with_routing_ps(mut self, routing_ps: f64) -> Result<Self, RingError> {
        if !(routing_ps.is_finite() && routing_ps >= 0.0) {
            return Err(RingError::InvalidConfig(format!(
                "routing override must be non-negative, got {routing_ps}"
            )));
        }
        self.routing_override_ps = Some(routing_ps);
        Ok(self)
    }

    /// The per-stage routing overhead this configuration resolves to on
    /// the given board.
    #[must_use]
    pub fn routing_ps(&self, board: &Board) -> f64 {
        self.routing_override_ps.unwrap_or_else(|| {
            board
                .technology()
                .iro_routing()
                .overhead_ps(u32::try_from(self.length).unwrap_or(u32::MAX))
        })
    }

    /// The placed LUT cells this ring uses on `board`, in stage order.
    #[must_use]
    pub fn cells(&self, board: &Board) -> Vec<LutCell> {
        let routing = self.routing_ps(board);
        (0..self.length)
            .map(|i| board.lut_with_routing(self.placement_base + i as u64, routing))
            .collect()
    }
}

/// One IRO stage: an inverter (stage 0) or delay element, driven by the
/// previous stage's output.
struct IroStage {
    input: NetId,
    output: NetId,
    invert: bool,
    cell: LutCell,
    supply: Supply,
    flicker: FlickerProcess,
    /// Supply voltage the cached static delay was computed at (NaN
    /// until the first crossing). The supply is piecewise-constant in
    /// almost every experiment, so successive crossings resolve the
    /// same voltage and skip the alpha-power law entirely.
    cached_v: f64,
    /// Static (process/voltage/temperature-scaled, flicker-free) stage
    /// delay at `cached_v`, ps.
    cached_ds_ps: f64,
}

impl IroStage {
    fn propagate(&mut self, value: Bit, ctx: &mut Context<'_>) {
        let now = ctx.now().as_ps();
        let out = if self.invert { !value } else { value };
        // Slow flicker modulates the static delay; white jitter stays
        // per-crossing. With flicker disabled (the paper's model) this
        // is exactly `sample_delay_ps`.
        let factor = self.flicker.factor_at(now, ctx.rng());
        // Static delay memoized against the supply voltage. Equal
        // inputs produce equal outputs, so the memo is bit-identical
        // to recomputing.
        let v = self.supply.voltage_at(now);
        if v != self.cached_v {
            let (tf, inf) = self.cell.scaling().voltage_factors(v);
            self.cached_ds_ps = self.cell.static_delay_from_factors(tf, inf);
            self.cached_v = v;
        }
        let rng = ctx.rng();
        let delay = (self.cached_ds_ps * factor + rng.normal(0.0, self.cell.sigma_g_ps()))
            .max(0.01);
        ctx.schedule_net_uncancellable(self.output, out, delay);
    }
}

impl Component for IroStage {
    fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
        match *event {
            Event::NetChanged { net, value } if net == self.input => {
                self.propagate(value, ctx);
            }
            Event::Timer { tag } if tag == INIT_TAG => {
                let value = ctx.net(self.input);
                self.propagate(value, ctx);
            }
            _ => {}
        }
    }
}

/// Handle to an IRO instantiated in a simulator.
#[derive(Debug, Clone)]
pub struct IroHandle {
    nets: Vec<NetId>,
    components: Vec<ComponentId>,
}

impl IroHandle {
    /// The stage output nets, in stage order (net `i` is stage `i`'s
    /// output).
    #[must_use]
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// The ring output net observed by measurements (the last stage's
    /// output, which feeds the inverter).
    #[must_use]
    pub fn output(&self) -> NetId {
        *self.nets.last().expect("ring has at least one stage")
    }

    /// The stage component ids.
    #[must_use]
    pub fn components(&self) -> &[ComponentId] {
        &self.components
    }
}

/// Instantiates the IRO on a board inside a simulator and arms its
/// bootstrap event.
///
/// # Errors
///
/// Propagates simulator wiring errors.
pub fn build(
    config: &IroConfig,
    board: &Board,
    sim: &mut Simulator,
) -> Result<IroHandle, RingError> {
    let cells = config.cells(board);
    let nets: Vec<NetId> = (0..config.length)
        .map(|i| sim.add_net_with(format!("iro{i}"), Bit::Low))
        .collect();
    let mut components = Vec::with_capacity(config.length);
    for (i, cell) in cells.into_iter().enumerate() {
        let input = nets[(i + config.length - 1) % config.length];
        let tech = board.technology();
        let stage = IroStage {
            input,
            output: nets[i],
            invert: i == 0,
            cell,
            supply: *board.supply(),
            flicker: FlickerProcess::new(tech.flicker_rel_sigma(), tech.flicker_tau_ps()),
            cached_v: f64::NAN,
            cached_ds_ps: 0.0,
        };
        let id = sim.add_component(stage);
        sim.listen(input, id)?;
        components.push(id);
    }
    // Bootstrap: only the inverter produces a change from the all-low
    // state; it launches the single circulating event.
    sim.arm_timer(components[0], 0.0, INIT_TAG)?;
    Ok(IroHandle { nets, components })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::Technology;
    use strent_sim::Time;

    fn quiet_board() -> Board {
        // No jitter, no process variation: deterministic period.
        let tech = Technology::cyclone_iii()
            .with_sigma_g_ps(0.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0);
        Board::new(tech, 0, 1)
    }

    #[test]
    fn config_validation() {
        assert!(IroConfig::new(0).is_err());
        assert!(IroConfig::new(3).is_ok());
    }

    #[test]
    fn routing_resolution() {
        let board = quiet_board();
        let c = IroConfig::new(5).expect("valid");
        assert!((c.routing_ps(&board) - 11.0).abs() < 1e-9);
        let c = c.with_routing_ps(99.0).expect("valid routing");
        assert_eq!(c.routing_ps(&board), 99.0);
        assert_eq!(c.cells(&board).len(), 5);
        // The former panics are now typed SL010-backed rejections.
        assert!(IroConfig::new(5)
            .expect("valid")
            .with_routing_ps(-1.0)
            .is_err());
        assert!(IroConfig::new(5)
            .expect("valid")
            .with_routing_ps(f64::NAN)
            .is_err());
    }

    #[test]
    fn ideal_iro_period_is_two_laps() {
        let board = quiet_board();
        let config = IroConfig::new(3)
            .expect("valid")
            .with_routing_ps(0.0)
            .expect("valid routing");
        let mut sim = Simulator::new(7);
        let handle = build(&config, &board, &mut sim).expect("valid");
        sim.watch(handle.output()).expect("net exists");
        sim.run_until(Time::from_ns(50.0));
        let periods = sim
            .trace(handle.output())
            .expect("watched")
            .periods(strent_sim::Edge::Rising);
        assert!(periods.len() > 10, "got {} periods", periods.len());
        // T = 2 * 3 * 255 ps = 1530 ps.
        for p in &periods[2..] {
            assert!((p - 1530.0).abs() < 1e-6, "period {p}");
        }
    }

    #[test]
    fn placement_base_changes_silicon() {
        let tech = Technology::cyclone_iii();
        let board = Board::new(tech, 0, 5);
        let a = IroConfig::new(3).expect("valid").cells(&board);
        let b = IroConfig::new(3)
            .expect("valid")
            .with_placement_base(100)
            .cells(&board);
        assert_ne!(a[0].transistor_ps(), b[0].transistor_ps());
    }

    #[test]
    fn jitter_accumulates_with_sqrt_2l() {
        // Statistical smoke check of Eq. 4 at small scale; the full
        // Fig. 11 test lives in the measure module and integration tests.
        let tech = Technology::cyclone_iii()
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0);
        let board = Board::new(tech, 0, 1);
        let config = IroConfig::new(5)
            .expect("valid")
            .with_routing_ps(0.0)
            .expect("valid routing");
        let mut sim = Simulator::new(3);
        let handle = build(&config, &board, &mut sim).expect("valid");
        sim.watch(handle.output()).expect("net exists");
        sim.run_until(Time::from_us(3.0));
        let periods = sim
            .trace(handle.output())
            .expect("watched")
            .periods(strent_sim::Edge::Rising);
        assert!(periods.len() > 500);
        let n = periods.len() as f64;
        let mean = periods.iter().sum::<f64>() / n;
        let sd = (periods.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
        let expected = (2.0 * 5.0_f64).sqrt() * 2.0; // sqrt(2L) * sigma_g
        assert!(
            (sd / expected - 1.0).abs() < 0.15,
            "sigma {sd} vs {expected}"
        );
    }
}
