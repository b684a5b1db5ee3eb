//! Self-timed rings (Fig. 2 of the paper): event-driven simulation with
//! the Charlie-effect temporal model.
//!
//! Each stage is a Muller C-element plus inverter implemented in one LUT.
//! Stage `i` fires (copies its forward input) when it holds a token and
//! stage `i+1` holds a bubble; the firing instant follows the Charlie
//! model of [`crate::charlie`], scaled by the board's supply voltage,
//! temperature and per-cell process variation, plus a fresh local
//! Gaussian jitter sample per firing — the entropy source under study.

use strent_device::noise::FlickerProcess;
use strent_device::{Board, LutCell, Supply};
use strent_sim::{Bit, Component, ComponentId, Context, Event, NetId, Simulator};

use crate::error::RingError;
use crate::iro::INIT_TAG;
use crate::state::StrState;

/// How the tokens are distributed at initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TokenLayout {
    /// Tokens spread as evenly as possible (the paper's setup).
    #[default]
    Spread,
    /// Tokens clustered contiguously (provokes the burst mode).
    Clustered,
}

/// Configuration of a self-timed ring.
///
/// # Examples
///
/// ```
/// use strent_rings::StrConfig;
///
/// // The paper's workhorse: NT = NB (Eq. 2).
/// let config = StrConfig::new(32, 16)?;
/// assert_eq!(config.length(), 32);
/// assert_eq!(config.tokens(), 16);
/// assert_eq!(config.bubbles(), 16);
/// # Ok::<(), strent_rings::RingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrConfig {
    length: usize,
    tokens: usize,
    layout: TokenLayout,
    placement_base: u64,
    routing_override_ps: Option<f64>,
    charlie_override_ps: Option<f64>,
}

impl StrConfig {
    /// Creates a configuration for an `length`-stage STR initialized
    /// with `tokens` tokens (and `length - tokens` bubbles).
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidConfig`] unless the oscillation
    /// conditions hold: `length >= 3`, `tokens` positive and even,
    /// at least one bubble.
    pub fn new(length: usize, tokens: usize) -> Result<Self, RingError> {
        // Reuse the state constructor's validation.
        let _ = StrState::with_spread_tokens(length, tokens)?;
        Ok(StrConfig {
            length,
            tokens,
            layout: TokenLayout::Spread,
            placement_base: 0,
            routing_override_ps: None,
            charlie_override_ps: None,
        })
    }

    /// Number of ring stages `L`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Number of tokens `NT`.
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Number of bubbles `NB = L - NT`.
    #[must_use]
    pub fn bubbles(&self) -> usize {
        self.length - self.tokens
    }

    /// The initial token layout.
    #[must_use]
    pub fn layout(&self) -> TokenLayout {
        self.layout
    }

    /// Selects the initial token layout.
    #[must_use]
    pub fn with_layout(mut self, layout: TokenLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Places the ring starting at a different cell index.
    #[must_use]
    pub fn with_placement_base(mut self, base: u64) -> Self {
        self.placement_base = base;
        self
    }

    /// Overrides the per-stage routing overhead (ps).
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

    /// Overrides the nominal Charlie magnitude (ps) — used by ablation
    /// studies; the default comes from the board's technology.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::InvalidConfig`] (surfaced as an `SL010`
    /// diagnostic) if the value is negative or non-finite.
    pub fn with_charlie_ps(mut self, charlie_ps: f64) -> Result<Self, RingError> {
        if !(charlie_ps.is_finite() && charlie_ps >= 0.0) {
            return Err(RingError::InvalidConfig(format!(
                "Charlie override must be non-negative, got {charlie_ps}"
            )));
        }
        self.charlie_override_ps = Some(charlie_ps);
        Ok(self)
    }

    /// The initial logical state this configuration produces.
    ///
    /// # Panics
    ///
    /// Never in practice: the constructor validated the counts.
    #[must_use]
    pub fn initial_state(&self) -> StrState {
        match self.layout {
            TokenLayout::Spread => StrState::with_spread_tokens(self.length, self.tokens),
            TokenLayout::Clustered => StrState::with_clustered_tokens(self.length, self.tokens),
        }
        .expect("validated at construction")
    }

    /// The per-stage routing overhead this configuration resolves to.
    #[must_use]
    pub fn routing_ps(&self, board: &Board) -> f64 {
        self.routing_override_ps.unwrap_or_else(|| {
            board
                .technology()
                .str_routing()
                .overhead_ps(u32::try_from(self.length).unwrap_or(u32::MAX))
        })
    }

    /// The nominal Charlie magnitude this configuration resolves to.
    #[must_use]
    pub fn charlie_ps(&self, board: &Board) -> f64 {
        self.charlie_override_ps
            .unwrap_or_else(|| board.technology().charlie_delay_ps())
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

/// One STR stage (Muller gate + inverter in a LUT).
struct StrStage {
    forward: NetId,
    reverse: NetId,
    output: NetId,
    /// Mirrors of the three net levels, updated from the `NetChanged`
    /// events themselves. The stage listens on all three nets and a net
    /// only changes by dispatching to its listeners, so the mirrors
    /// track the simulator's net state exactly — and the per-firing
    /// guard needs no net reads at all.
    val_forward: Bit,
    val_reverse: Bit,
    val_output: Bit,
    cell: LutCell,
    /// Process-adjusted nominal Charlie magnitude, ps.
    charlie_nominal_ps: f64,
    drafting_nominal_ps: f64,
    drafting_tau_ps: f64,
    supply: Supply,
    /// Slow flicker modulation of this stage's static delays.
    flicker: FlickerProcess,
    /// Supply voltage the cached delays below were computed at (NaN
    /// until the first firing). The supply is piecewise-constant in
    /// almost every experiment, so successive firings resolve the same
    /// voltage and skip the alpha-power law entirely.
    cached_v: f64,
    /// Static (process/voltage/temperature-scaled, flicker-free) stage
    /// delay at `cached_v`, ps.
    cached_ds_ps: f64,
    /// Scaled Charlie magnitude at `cached_v`, ps.
    cached_dch_ps: f64,
    /// Timestamps (ps) of the most recent change on each input.
    t_forward: f64,
    t_reverse: f64,
    /// Timestamp (ps) of our most recent output event.
    t_output: f64,
    /// Whether a firing is currently scheduled.
    pending: bool,
}

impl StrStage {
    /// Evaluates the Muller-gate enabling condition and schedules the
    /// firing if enabled. Inputs cannot change while a firing is pending
    /// (a structural property of valid STR states), so `pending` is a
    /// simple flag.
    fn evaluate(&mut self, ctx: &mut Context<'_>) {
        if self.pending {
            return;
        }
        let f = self.val_forward;
        if f == self.val_reverse || self.val_output == f {
            return;
        }
        let now = ctx.now().as_ps();
        // Effective (process + voltage + temperature scaled) parameters,
        // memoized against the supply voltage. Equal inputs produce
        // equal outputs, so the memo is bit-identical to recomputing.
        let v = self.supply.voltage_at(now);
        if v != self.cached_v {
            let scaling = self.cell.scaling();
            let temp = scaling.temperature_factor(self.cell.temp_c());
            let (tf, inf) = scaling.voltage_factors(v);
            self.cached_ds_ps = self.cell.static_delay_from_factors(tf, inf);
            self.cached_dch_ps = self.charlie_nominal_ps * tf * temp;
            self.cached_v = v;
        }
        let flicker = self.flicker.factor_at(now, ctx.rng());
        let ds = self.cached_ds_ps * flicker;
        let dch = self.cached_dch_ps * flicker;
        // Charlie timing from the two enabling input event times.
        let m = 0.5 * (self.t_forward + self.t_reverse);
        let delta = 0.5 * (self.t_forward - self.t_reverse);
        let mut t_fire = m + (dch * dch + delta * delta).sqrt() + ds;
        // Drafting: delay reduction shortly after our last output event.
        if self.drafting_nominal_ps > 0.0 && self.t_output >= 0.0 {
            let elapsed = now - self.t_output;
            t_fire -= self.drafting_nominal_ps * (-elapsed / self.drafting_tau_ps).exp();
        }
        // Local Gaussian jitter: the entropy source.
        t_fire += ctx.rng().normal(0.0, self.cell.sigma_g_ps());
        // Causality clamp (noise or drafting cannot fire in the past).
        let delay = (t_fire - now).max(0.01);
        ctx.schedule_net_uncancellable(self.output, f, delay);
        self.pending = true;
    }
}

impl Component for StrStage {
    fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
        match *event {
            Event::NetChanged { net, value } => {
                let now = ctx.now().as_ps();
                if net == self.output {
                    self.val_output = value;
                    self.t_output = now;
                    self.pending = false;
                    // After our own output fires, C == F by
                    // construction: the fired value was F at scheduling
                    // time, and inputs cannot change while a firing is
                    // pending. The Muller guard in `evaluate` cannot
                    // pass, so the call would be a no-op (it returns
                    // before any RNG draw) — skip it.
                } else {
                    if net == self.forward {
                        self.val_forward = value;
                        self.t_forward = now;
                    }
                    if net == self.reverse {
                        self.val_reverse = value;
                        self.t_reverse = now;
                    }
                    self.evaluate(ctx);
                }
            }
            Event::Timer { tag } if tag == INIT_TAG => {
                self.evaluate(ctx);
            }
            _ => {}
        }
    }
}

/// Handle to an STR instantiated in a simulator.
#[derive(Debug, Clone)]
pub struct StrHandle {
    nets: Vec<NetId>,
    components: Vec<ComponentId>,
}

impl StrHandle {
    /// Assembles a handle from raw parts — only for the lint tests,
    /// which forge mis-wired handles to prove `SL013` fires.
    #[cfg(test)]
    pub(crate) fn from_parts(nets: Vec<NetId>, components: Vec<ComponentId>) -> Self {
        StrHandle { nets, components }
    }

    /// The stage output nets `C[0..L]`.
    #[must_use]
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// The net observed by measurements (stage 0's output — the paper
    /// taps a single stage as the oscillator output).
    #[must_use]
    pub fn output(&self) -> NetId {
        self.nets[0]
    }

    /// The stage component ids.
    #[must_use]
    pub fn components(&self) -> &[ComponentId] {
        &self.components
    }
}

/// Instantiates the STR on a board inside a simulator, sets the initial
/// token pattern and arms the bootstrap events.
///
/// # Errors
///
/// Propagates simulator wiring errors.
pub fn build(
    config: &StrConfig,
    board: &Board,
    sim: &mut Simulator,
) -> Result<StrHandle, RingError> {
    let state = config.initial_state();
    let cells = config.cells(board);
    let tech = board.technology();
    let charlie_nominal = config.charlie_ps(board);
    let lut_nominal = tech.lut_delay_ps();

    let nets: Vec<NetId> = (0..config.length)
        .map(|i| sim.add_net_with(format!("str{i}"), state.output(i)))
        .collect();
    let mut components = Vec::with_capacity(config.length);
    for (i, cell) in cells.into_iter().enumerate() {
        let forward = nets[(i + config.length - 1) % config.length];
        let reverse = nets[(i + 1) % config.length];
        // Scale the Charlie and drafting terms by the same frozen process
        // factor as the cell's transistor delay.
        let process = cell.process_factor(lut_nominal);
        let stage = StrStage {
            forward,
            reverse,
            output: nets[i],
            val_forward: state.output((i + config.length - 1) % config.length),
            val_reverse: state.output((i + 1) % config.length),
            val_output: state.output(i),
            charlie_nominal_ps: charlie_nominal * process,
            drafting_nominal_ps: tech.drafting_delay_ps() * process,
            drafting_tau_ps: tech.drafting_tau_ps(),
            cell,
            supply: *board.supply(),
            flicker: FlickerProcess::new(tech.flicker_rel_sigma(), tech.flicker_tau_ps()),
            cached_v: f64::NAN,
            cached_ds_ps: 0.0,
            cached_dch_ps: 0.0,
            t_forward: 0.0,
            t_reverse: 0.0,
            t_output: -1.0,
            pending: false,
        };
        let id = sim.add_component(stage);
        sim.listen(forward, id)?;
        sim.listen(reverse, id)?;
        sim.listen(nets[i], id)?;
        components.push(id);
    }
    for &id in &components {
        sim.arm_timer(id, 0.0, INIT_TAG)?;
    }
    Ok(StrHandle { nets, components })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::Technology;
    use strent_sim::Time;

    fn quiet_board() -> Board {
        let tech = Technology::cyclone_iii()
            .with_sigma_g_ps(0.0)
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0);
        Board::new(tech, 0, 1)
    }

    fn run_periods(config: &StrConfig, board: &Board, horizon_ns: f64) -> Vec<f64> {
        let mut sim = Simulator::new(11);
        let handle = build(config, board, &mut sim).expect("valid");
        sim.watch(handle.output()).expect("net exists");
        sim.run_until(Time::from_ns(horizon_ns));
        sim.trace(handle.output())
            .expect("watched")
            .periods(strent_sim::Edge::Rising)
    }

    #[test]
    fn config_accessors_and_validation() {
        let c = StrConfig::new(16, 8).expect("valid");
        assert_eq!(c.bubbles(), 8);
        assert!(StrConfig::new(2, 2).is_err());
        assert!(StrConfig::new(16, 3).is_err());
        assert!(StrConfig::new(16, 16).is_err());
        assert_eq!(
            c.initial_state().token_count(),
            8,
            "initial state matches config"
        );
        let clustered = c.clone().with_layout(TokenLayout::Clustered);
        assert_eq!(clustered.layout(), TokenLayout::Clustered);
        assert_eq!(
            clustered.initial_state().token_positions(),
            (0..8).collect::<Vec<_>>()
        );
        // The former panics are now typed SL010-backed rejections.
        assert!(c.clone().with_routing_ps(-1.0).is_err());
        assert!(c.clone().with_routing_ps(f64::INFINITY).is_err());
        assert!(c.clone().with_charlie_ps(-0.5).is_err());
        assert!(c.clone().with_charlie_ps(f64::NAN).is_err());
        match c.clone().with_charlie_ps(-0.5) {
            Err(e) => assert_eq!(e.diagnostics()[0].code.code(), "SL010"),
            Ok(_) => panic!("negative Charlie accepted"),
        }
    }

    #[test]
    fn ideal_str_period_matches_analytic() {
        // NT = NB, no noise, no routing: T = 2*L*(Ds + Dch)/NT = 4*(Ds+Dch).
        let board = quiet_board();
        let config = StrConfig::new(8, 4)
            .expect("valid")
            .with_routing_ps(0.0)
            .expect("valid routing");
        let periods = run_periods(&config, &board, 60.0);
        assert!(periods.len() > 10, "got {} periods", periods.len());
        let expected = 4.0 * (255.0 + 128.0);
        for p in periods.iter().skip(5) {
            assert!((p / expected - 1.0).abs() < 0.01, "period {p} vs {expected}");
        }
    }

    #[test]
    fn four_stage_ring_matches_paper_frequency() {
        // STR 4C: the paper reports ~653-669 MHz.
        let board = quiet_board();
        let config = StrConfig::new(4, 2)
            .expect("valid")
            .with_routing_ps(0.0)
            .expect("valid routing");
        let periods = run_periods(&config, &board, 60.0);
        assert!(periods.len() > 10);
        let mean = periods.iter().skip(5).sum::<f64>() / (periods.len() - 5) as f64;
        let f_mhz = 1e6 / mean;
        assert!((600.0..700.0).contains(&f_mhz), "F = {f_mhz} MHz");
    }

    #[test]
    fn str_oscillates_for_all_paper_lengths() {
        // Sec. V-A: NT = NB rings oscillate for L in 4..=96.
        let board = quiet_board();
        for &l in &[4usize, 8, 16, 24, 48] {
            let config = StrConfig::new(l, l / 2)
                .expect("valid")
                .with_routing_ps(0.0)
                .expect("valid routing");
            let periods = run_periods(&config, &board, 80.0);
            assert!(periods.len() > 5, "L={l}: only {} periods", periods.len());
        }
    }

    #[test]
    fn jitter_is_length_independent() {
        // The signature STR property (Eq. 5): sigma_p does not grow with L.
        let tech = Technology::cyclone_iii()
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0);
        let board = Board::new(tech, 0, 1);
        let mut sigmas = Vec::new();
        for &l in &[8usize, 32] {
            let config = StrConfig::new(l, l / 2)
                .expect("valid")
                .with_routing_ps(0.0)
                .expect("valid routing");
            let periods = run_periods(&config, &board, 3_000.0);
            assert!(periods.len() > 400, "L={l}");
            let skip = 50;
            let n = (periods.len() - skip) as f64;
            let mean = periods[skip..].iter().sum::<f64>() / n;
            let sd =
                (periods[skip..].iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (n - 1.0))
                    .sqrt();
            sigmas.push(sd);
        }
        // Both in the paper's 2..4 ps band, and not growing 2x with 4x
        // the stages.
        for &s in &sigmas {
            assert!((1.0..6.0).contains(&s), "sigma {s}");
        }
        assert!(
            sigmas[1] / sigmas[0] < 1.6,
            "sigma grew with L: {sigmas:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let board = quiet_board();
        let config = StrConfig::new(12, 6).expect("valid");
        let a = run_periods(&config, &board, 100.0);
        let b = run_periods(&config, &board, 100.0);
        assert_eq!(a, b);
    }
}
