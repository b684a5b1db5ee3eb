//! Calibrated surrogate source tier: O(1)-per-sample ring models.
//!
//! The paper's locked evenly-spaced regime is *statistically* simple:
//! Eq. 5 gives the STR period jitter in closed form
//! (`sigma_period ~ sqrt(2)*sigma_g`, independent of `L`) and Eq. 4 the
//! IRO accumulation law. Simulating every Muller-gate event to
//! reproduce a distribution we can write down is the dominant serving
//! cost (see `docs/engine_perf.md`), so this module provides the fast
//! path: a [`SurrogateModel`] — mean period, white thermal jitter,
//! AR(1) flicker wander and duty cycle — fitted by a [`Calibrator`]
//! from one *short full discrete-event run* per (geometry, board,
//! supply) configuration, then replayed by a [`SurrogateStream`] at a
//! couple of trace pushes per period instead of ~1.5 events per stage
//! per half-period.
//!
//! The surrogate claims **statistical** equivalence, not bit
//! equivalence: the golden moments (period mean/σ, Allan deviation,
//! lag-k autocorrelation), the SP 800-90B health verdicts and the
//! entropy estimates must match the event-driven simulation within the
//! tolerances of `tests/surrogate_equivalence.rs` — see
//! `docs/surrogate.md`.
//!
//! [`EntropySource`] is the selector the serving layer builds through
//! (simlint SL109 forbids bypassing it): a [`SourceBackend`] request is
//! honored only when [`surrogate_eligible`] says the configuration sits
//! safely inside the locked regime. Near the Eq. 1 mode boundary
//! (burst-prone layouts or token/bubble ratios, the SL012 territory)
//! and whenever a [`FaultPlan`] is armed, the full simulation is used
//! no matter what was asked — the surrogate models a *healthy locked*
//! ring and nothing else.

use strent_device::Board;
use strent_sim::{Ar1Process, Bit, Edge, FaultPlan, RngTree, SimRng, SimStats, Time, Trace};

use crate::analytic;
use crate::error::RingError;
use crate::lint;
use crate::measure::{advance_to_edges, WARMUP_PERIODS};
use crate::mode::OscillationMode;
use crate::ring::RingConfig;
use crate::stream::RingStream;

/// RNG stream key for surrogate period draws — distinct from every
/// component key the event-driven simulator derives from the same seed,
/// so a surrogate and a full sim of one seed never share a stream.
const SURROGATE_RNG_KEY: u64 = 0x5089_7061_7E50_F7CE;

/// Eq. 1 design-rule deviation beyond which a configuration counts as
/// *near* the burst boundary and stays on the full simulator. The burst
/// prediction itself fires at 1.5 (see [`lint::predicted_mode`]); the
/// surrogate backs off earlier because its calibration run cannot
/// distinguish "locked today" from "about to burst".
pub const BOUNDARY_DEVIATION: f64 = 1.25;

/// Which engine produces a source's waveform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceBackend {
    /// The event-driven simulation — always valid, the default.
    FullSim,
    /// The calibrated O(1)-per-sample surrogate — valid only in the
    /// locked evenly-spaced regime, with automatic fallback.
    Surrogate,
}

impl SourceBackend {
    /// A short stable label (used in reports and JSON).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SourceBackend::FullSim => "full_sim",
            SourceBackend::Surrogate => "surrogate",
        }
    }
}

/// The fitted stochastic model of one locked ring on one board:
///
/// ```text
/// rising[k]  = nominal[k] + edge[k]               (edge[k] ~ N(0, sigma_edge^2), i.i.d.)
/// nominal[k+1] = nominal[k] + period_mean_ps + flicker[k] + white[k]
/// flicker[k+1] = rho * flicker[k] + drive[k]      (stationary sigma_flicker)
/// white[k] ~ N(0, sigma_white^2)                  (i.i.d.)
/// ```
///
/// The measured period series `rising[k+1] - rising[k]` then has
/// variance `sigma_white^2 + sigma_flicker^2 + 2*sigma_edge^2`,
/// lag-1 autocovariance `rho*sigma_flicker^2 - sigma_edge^2` and
/// lag-k (k >= 2) autocovariance `rho^k * sigma_flicker^2`. The edge
/// term is what gives event-driven rings their *negative* lag-1 period
/// autocorrelation — consecutive periods share one jittered edge — and
/// the three components separate from the lag-0..3 autocovariances of
/// a short calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateModel {
    /// Mean oscillation period, ps.
    pub period_mean_ps: f64,
    /// White (thermal) per-lap jitter standard deviation, ps.
    pub sigma_white_ps: f64,
    /// Per-edge placement jitter standard deviation, ps (shared by
    /// adjacent periods, hence the MA(1) anticorrelation).
    pub sigma_edge_ps: f64,
    /// Stationary standard deviation of the AR(1) flicker wander, ps.
    pub sigma_flicker_ps: f64,
    /// Lag-1 autocorrelation of the flicker component, in `[0, 1)`.
    pub flicker_rho: f64,
    /// Fraction of each period the output spends high, in `(0, 1)`.
    pub duty: f64,
}

impl SurrogateModel {
    /// Total per-period jitter standard deviation, ps — the quantity
    /// Eq. 5 predicts as `sqrt(2)*sigma_g` for a locked STR.
    #[must_use]
    pub fn sigma_period_ps(&self) -> f64 {
        (self.sigma_white_ps.powi(2)
            + self.sigma_flicker_ps.powi(2)
            + 2.0 * self.sigma_edge_ps.powi(2))
        .sqrt()
    }

    /// The model's lag-1 period autocorrelation,
    /// `(rho*sigma_flicker^2 - sigma_edge^2) / sigma_period^2` —
    /// negative for an edge-noise-dominated ring, 0 for pure white.
    #[must_use]
    pub fn lag1_autocorrelation(&self) -> f64 {
        let var = self.sigma_period_ps().powi(2);
        if var <= 0.0 {
            return 0.0;
        }
        (self.flicker_rho * self.sigma_flicker_ps.powi(2) - self.sigma_edge_ps.powi(2)) / var
    }
}

/// Fits a [`SurrogateModel`] from a short full discrete-event run.
///
/// The calibration protocol (documented in `docs/surrogate.md`): build
/// the ring exactly as [`RingStream`] would, discard the standard
/// warm-up transient, collect `periods` steady-state periods, then fit
/// the mean, the white/flicker variance split (from the lag-1 and
/// lag-2 autocovariances) and the duty cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibrator {
    periods: usize,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator { periods: 512 }
    }
}

impl Calibrator {
    /// Minimum calibration run length — below this the autocovariance
    /// estimates are too noisy to split white from flicker.
    pub const MIN_PERIODS: usize = 64;

    /// A calibrator collecting the default 512 steady-state periods.
    #[must_use]
    pub fn new() -> Self {
        Calibrator::default()
    }

    /// Overrides the calibration run length (clamped up to
    /// [`Calibrator::MIN_PERIODS`]).
    #[must_use]
    pub fn with_periods(mut self, periods: usize) -> Self {
        self.periods = periods.max(Self::MIN_PERIODS);
        self
    }

    /// The calibration run length, steady-state periods.
    #[must_use]
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// Runs the full event-driven simulation once and fits the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the ring fails construction, static
    /// verification, or does not oscillate long enough to calibrate.
    pub fn fit(
        &self,
        config: &RingConfig,
        board: &Board,
        seed: u64,
    ) -> Result<SurrogateModel, RingError> {
        let mut stream = RingStream::build(config, board, seed, None)?;
        let total = WARMUP_PERIODS + self.periods + 2;
        advance_to_edges(
            stream.expected_period_ps(),
            total,
            WARMUP_PERIODS,
            |horizon| {
                stream.advance_by(horizon - stream.now());
                stream.trace().edge_count(Edge::Rising)
            },
        )?;
        Ok(self.fit_trace(stream.trace()))
    }

    /// Fits the model to the steady-state window of a calibration
    /// run's output trace, which must hold more than `WARMUP_PERIODS +
    /// periods + 2` rising edges.
    fn fit_trace(&self, trace: &Trace) -> SurrogateModel {
        let rising = trace.edges(Edge::Rising);
        let window = &rising[WARMUP_PERIODS..=WARMUP_PERIODS + self.periods];
        let periods_ps: Vec<f64> = window.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
        let falling = trace.edges(Edge::Falling);
        let duty = duty_cycle(window, &falling);
        Self::fit_series(&periods_ps, duty)
    }

    /// Fits the model to an already-measured period series (the moment
    /// half of [`fit`](Calibrator::fit), exposed for testing and for
    /// calibrating against externally produced series).
    ///
    /// The three-way variance split solves the edge+flicker+white
    /// moment system from the population autocovariances `c0..c3`:
    /// for lags `k >= 2` only the flicker survives (`ck = rho^k *
    /// var_f`), so `rho = c3/c2` and `var_f = c2/rho^2`; the lag-1
    /// shortfall `rho*var_f - c1` is the shared-edge variance; the
    /// remainder of `c0` is the per-lap white term. Components whose
    /// autocovariance evidence sits inside the `~c0/sqrt(n)` sampling
    /// noise collapse to zero, and the flicker share is capped at 95%
    /// of the total variance so the white component never vanishes.
    ///
    /// # Panics
    ///
    /// Panics if `periods_ps` is empty or `duty` is outside `(0, 1)` —
    /// calibration inputs are produced by this module's own runner.
    #[must_use]
    pub fn fit_series(periods_ps: &[f64], duty: f64) -> SurrogateModel {
        assert!(!periods_ps.is_empty(), "calibration needs periods");
        assert!(
            duty > 0.0 && duty < 1.0,
            "duty must be in (0, 1), got {duty}"
        );
        let n = periods_ps.len() as f64;
        let mean = periods_ps.iter().sum::<f64>() / n;
        let cov = |lag: usize| -> f64 {
            if periods_ps.len() <= lag {
                return 0.0;
            }
            periods_ps
                .windows(lag + 1)
                .map(|w| (w[0] - mean) * (w[lag] - mean))
                .sum::<f64>()
                / (periods_ps.len() - lag) as f64
        };
        let c0 = cov(0).max(0.0);
        let c1 = cov(1);
        let c2 = cov(2);
        let c3 = cov(3);
        // Autocovariances of a structureless series scatter with a
        // standard error of ~c0/sqrt(n); anything below two standard
        // errors is indistinguishable from zero.
        let noise_floor = c0 * 2.0 / n.sqrt();
        // Flicker needs consistent positive structure at lags 2 and 3
        // (lag 1 is contaminated by the edge term).
        let (rho, var_flicker) = if c0 <= 0.0 || c2 <= noise_floor || c3 <= 0.0 {
            (0.0, 0.0)
        } else {
            let rho = (c3 / c2).clamp(0.05, 0.98);
            let var_f = (c2 / rho.powi(2)).min(0.95 * c0);
            (rho, var_f)
        };
        // The edge variance is whatever the flicker's lag-1 prediction
        // overshoots the measurement by; for a flicker-free ring that
        // is simply -c1. Bounded so the white variance stays >= 0.
        let edge_evidence = rho * var_flicker - c1;
        let var_edge = if edge_evidence > noise_floor {
            edge_evidence.min((c0 - var_flicker) / 2.0).max(0.0)
        } else {
            0.0
        };
        let var_white = (c0 - var_flicker - 2.0 * var_edge).max(0.0);
        SurrogateModel {
            period_mean_ps: mean,
            sigma_white_ps: var_white.sqrt(),
            sigma_edge_ps: var_edge.sqrt(),
            sigma_flicker_ps: var_flicker.sqrt(),
            flicker_rho: rho,
            duty,
        }
    }
}

/// Mean high fraction over the calibration window: for each rising edge
/// the high segment runs to the next falling edge.
fn duty_cycle(rising_window: &[Time], falling: &[Time]) -> f64 {
    let mut high = 0.0;
    let mut total = 0.0;
    for pair in rising_window.windows(2) {
        let (rise, next_rise) = (pair[0], pair[1]);
        let idx = falling.partition_point(|&f| f <= rise);
        if let Some(&fall) = falling.get(idx) {
            if fall < next_rise {
                high += fall - rise;
                total += next_rise - rise;
            }
        }
    }
    if total <= 0.0 {
        return 0.5;
    }
    (high / total).clamp(0.05, 0.95)
}

/// An O(1)-per-sample replacement for a locked [`RingStream`]: replays
/// a [`SurrogateModel`] into a [`Trace`], two transitions per period,
/// with the same incremental `advance_by` / `trace` / `prune_before`
/// surface the sampling and serving layers consume, or samples itself
/// as it draws ([`sample_batch`](SurrogateStream::sample_batch)).
///
/// Determinism matches the event-driven engine's contract: the emitted
/// waveform is a pure function of `(model, seed)` and is independent of
/// the `advance_by` call granularity.
#[derive(Debug, Clone)]
pub struct SurrogateStream {
    model: SurrogateModel,
    flicker: Ar1Process,
    rng: SimRng,
    trace: Trace,
    now: Time,
    consumed_until: Time,
    /// Nominal (edge-noise-free) instant of the next rising edge, ps.
    next_rising_ps: f64,
    /// Where the previous rising edge was actually emitted, ps.
    prev_rise_ps: f64,
    /// Last instant recorded into the trace (monotonicity clamp), ps.
    last_record_ps: f64,
    periods_emitted: u64,
    transitions_emitted: u64,
}

impl SurrogateStream {
    /// Creates the stream at `t = 0`, output low, first rising edge one
    /// drawn period in.
    #[must_use]
    pub fn new(model: SurrogateModel, seed: u64) -> Self {
        let mut stream = SurrogateStream {
            flicker: Ar1Process::new(model.flicker_rho, model.sigma_flicker_ps),
            rng: RngTree::new(seed).stream(SURROGATE_RNG_KEY),
            trace: Trace::new(Bit::Low),
            now: Time::ZERO,
            consumed_until: Time::ZERO,
            next_rising_ps: 0.0,
            prev_rise_ps: 0.0,
            last_record_ps: 0.0,
            periods_emitted: 0,
            transitions_emitted: 0,
            model,
        };
        stream.next_rising_ps = stream.draw_period_ps();
        stream
    }

    /// The fitted model this stream replays.
    #[must_use]
    pub fn model(&self) -> &SurrogateModel {
        &self.model
    }

    /// The model's mean period, ps (the analogue of
    /// [`RingStream::expected_period_ps`]).
    #[must_use]
    pub fn expected_period_ps(&self) -> f64 {
        self.model.period_mean_ps
    }

    /// The generation horizon reached so far.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Periods emitted so far.
    #[must_use]
    pub fn periods_emitted(&self) -> u64 {
        self.periods_emitted
    }

    /// Surrogate statistics in kernel vocabulary: each emitted trace
    /// transition counts as one processed event (nothing is ever
    /// cancelled or suppressed — there is no event queue). This is what
    /// makes surrogate and full-sim workloads comparable in the perf
    /// reports.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        SimStats {
            events_processed: self.transitions_emitted,
            ..SimStats::default()
        }
    }

    /// One nominal-lap draw: mean + AR(1) flicker + white jitter,
    /// clamped to a positive floor so the waveform stays monotone even
    /// under a (deliberately corrupted) model whose jitter dwarfs its
    /// mean.
    fn draw_period_ps(&mut self) -> f64 {
        let flicker = self.flicker.step(&mut self.rng);
        let white = self.rng.normal(0.0, self.model.sigma_white_ps);
        let period = self.model.period_mean_ps + flicker + white;
        period.max(0.05 * self.model.period_mean_ps)
    }

    /// Extends the waveform by `delta_ps` past the later of the current
    /// horizon and the prune cursor, emitting every period that starts
    /// inside the new window. Mirrors [`RingStream::advance_by`].
    pub fn advance_by(&mut self, delta_ps: f64) -> Time {
        let horizon_ps = self.now.as_ps().max(self.consumed_until.as_ps()) + delta_ps;
        while self.next_rising_ps <= horizon_ps {
            self.emit_period();
        }
        self.now = Time::from_ps(horizon_ps);
        self.now
    }

    /// Emits one full period (rising + falling edge) and returns the
    /// measured duration — the gap between this rising edge and the
    /// previous one as *emitted* (edge noise included), matching what
    /// an observer of the trace would measure.
    fn emit_period(&mut self) -> f64 {
        let prev_rise = self.prev_rise_ps;
        let (rise, fall) = self.draw_edges();
        self.trace.record(Time::from_ps(rise), Bit::High);
        self.trace.record(Time::from_ps(fall), Bit::Low);
        rise - prev_rise
    }

    /// Draws the next period's rising and falling instants, ps, without
    /// recording them. Inlined into both callers, so sharing it costs
    /// the recording path (`advance_by` → `emit_period`) no extra call
    /// per period.
    #[inline]
    fn draw_edges(&mut self) -> (f64, f64) {
        let period = self.draw_period_ps();
        let edge = self.rng.normal(0.0, self.model.sigma_edge_ps);
        // The monotonicity clamp never binds for a calibrated model
        // (edge noise is orders of magnitude below the period); it only
        // guards deliberately corrupted models.
        let min_step = 0.01 * self.model.period_mean_ps;
        let rise = (self.next_rising_ps + edge).max(self.last_record_ps + min_step);
        let fall = rise + (self.model.duty * period).max(min_step);
        self.prev_rise_ps = rise;
        self.last_record_ps = fall;
        self.next_rising_ps += period;
        self.periods_emitted += 1;
        self.transitions_emitted += 2;
        (rise, fall)
    }

    /// Samples the waveform at `t0 + period * k` for `k = 1..=count`,
    /// drawing periods as it reads them, and hands each bit to `emit`.
    ///
    /// The single-pass form of what a trace-sampling caller does per
    /// batch: `advance_by(needed − now)` when `now` is short of
    /// `needed = t0 + period * count + meta_window`, then
    /// `Sampler::sample_trace_until` over the trace, then a prune. The
    /// draws, their order, the instant arithmetic and the `meta_rng`
    /// coin flips are the same, so the bits are identical: an instant
    /// reads the level after the last transition at or before it, or
    /// flips a coin when that transition or the first one after it lies
    /// within `meta_window / 2` (and the window is positive).
    ///
    /// Transitions of the sampled span are never recorded. Afterwards
    /// [`trace`](SurrogateStream::trace) holds only the last transition
    /// at or before the final instant and everything after it, so a
    /// later `advance_by`, [`now`](SurrogateStream::now) and any window
    /// read from `now` on see the same waveform as on the recording
    /// path, with O(1) trace memory per batch.
    ///
    /// # Errors
    ///
    /// [`RingError::HorizonExceeded`] when both the horizon and the last
    /// transition end before the final instant, as the sampler reports
    /// it. Only rounding of a zero metastability window can get there;
    /// the stream has advanced and `emit` has seen the bits by then.
    pub fn sample_batch(
        &mut self,
        t0_ps: f64,
        period_ps: f64,
        count: usize,
        meta_window_ps: f64,
        meta_rng: &mut SimRng,
        mut emit: impl FnMut(bool),
    ) -> Result<(), RingError> {
        let final_ps = t0_ps + period_ps * count as f64;
        let needed_ps = final_ps + meta_window_ps;
        let now_ps = self.now.as_ps();
        // The horizon `advance_by(needed − now)` would reach; no draws
        // at all when `now` already covers the batch.
        let horizon_ps = if now_ps < needed_ps {
            now_ps.max(self.consumed_until.as_ps()) + (needed_ps - now_ps)
        } else {
            f64::NEG_INFINITY
        };
        // Transitions in time order: what the trace holds, then fresh
        // draws while a period's nominal rise is inside the horizon.
        let recorded = std::mem::take(&mut self.trace);
        let mut replay = recorded.transitions().iter().map(|&(t, v)| (t.as_ps(), v));
        let mut pending_fall = None;
        let mut pull = |stream: &mut Self| {
            replay
                .next()
                .or_else(|| pending_fall.take().map(|t| (t, Bit::Low)))
                .or_else(|| {
                    (stream.next_rising_ps <= horizon_ps).then(|| {
                        let (rise, fall) = stream.draw_edges();
                        pending_fall = Some(fall);
                        (rise, Bit::High)
                    })
                })
        };
        let half = meta_window_ps / 2.0;
        // `last` is the last transition at or before the instant, `next`
        // the first after it, `before` the level `last` switched from.
        let mut before = recorded.initial();
        let mut last: Option<(f64, Bit)> = None;
        let mut next = pull(self);
        for k in 1..=count {
            let t = t0_ps + period_ps * k as f64;
            while let Some(edge) = next.filter(|&(tt, _)| tt <= t) {
                if let Some((_, v)) = last {
                    before = v;
                }
                last = Some(edge);
                next = pull(self);
            }
            let near = |e: Option<(f64, Bit)>| e.is_some_and(|(tt, _)| (t - tt).abs() <= half);
            if meta_window_ps > 0.0 && (near(last) || near(next)) {
                emit(meta_rng.bernoulli(0.5));
            } else {
                emit(last.map_or(before, |(_, v)| v).is_high());
            }
        }
        let mut tail = Trace::new(before);
        if let Some((t, v)) = last {
            tail.record(Time::from_ps(t), v);
        }
        while let Some((t, v)) = next {
            tail.record(Time::from_ps(t), v);
            next = pull(self);
        }
        self.trace = tail;
        if now_ps < needed_ps {
            self.now = Time::from_ps(horizon_ps);
        }
        let end_ps = self
            .trace
            .transitions()
            .last()
            .map_or(0.0, |&(t, _)| t.as_ps())
            .max(self.now.as_ps());
        if end_ps < final_ps {
            return Err(RingError::HorizonExceeded {
                collected: ((end_ps - t0_ps) / period_ps).max(0.0) as usize,
                requested: count,
            });
        }
        Ok(())
    }

    /// Generates the next `n` periods eagerly and returns their
    /// durations — the moment-extraction path of the equivalence
    /// harness and benches. The trace advances identically to the
    /// `advance_by` path (the sequence depends only on the draw count).
    pub fn next_periods(&mut self, n: usize) -> Vec<f64> {
        let periods: Vec<f64> = (0..n).map(|_| self.emit_period()).collect();
        self.now = Time::from_ps(self.next_rising_ps).max(self.now);
        periods
    }

    /// The waveform produced so far (everything at or after the last
    /// prune cut).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Discards trace history strictly before `until`; the cursor is
    /// monotone exactly as in [`RingStream::prune_before`].
    pub fn prune_before(&mut self, until: Time) -> usize {
        if until <= self.consumed_until {
            return 0;
        }
        self.consumed_until = until;
        self.trace.discard_before(until)
    }

    /// Everything before this instant has been pruned away.
    #[must_use]
    pub fn consumed_until(&self) -> Time {
        self.consumed_until
    }
}

/// Whether a configuration may run on the surrogate tier.
///
/// The fallback rules (see `docs/surrogate.md`):
///
/// 1. an armed [`FaultPlan`] always forces the full simulation — the
///    surrogate models a healthy locked ring only;
/// 2. an STR whose Eq. 1 prediction ([`lint::predicted_mode`], the
///    SL012 rule) is not evenly-spaced is ineligible;
/// 3. an STR in a drafting-capable technology whose design-rule
///    deviation exceeds [`BOUNDARY_DEVIATION`] is *near* the mode
///    boundary and ineligible even though SL012 has not fired yet;
/// 4. IROs have no burst mode and are always eligible when healthy.
#[must_use]
pub fn surrogate_eligible(config: &RingConfig, board: &Board, fault_armed: bool) -> bool {
    if fault_armed {
        return false;
    }
    match config {
        RingConfig::Iro(_) => true,
        RingConfig::Str(c) => {
            if lint::predicted_mode(c, board) != OscillationMode::EvenlySpaced {
                return false;
            }
            let drafting_ps = board.technology().drafting_delay_ps();
            if drafting_ps > 0.0 && c.charlie_ps(board) <= drafting_ps {
                let (actual, target) = analytic::design_rule(c);
                let deviation = (actual / target).max(target / actual);
                if deviation > BOUNDARY_DEVIATION {
                    return false;
                }
            }
            true
        }
    }
}

/// The backend selector the serving layer builds sources through: a
/// [`SourceBackend`] *request* resolved against [`surrogate_eligible`],
/// wrapping whichever stream the rules picked behind one API.
///
/// simlint rule SL109 forbids `crates/serve` and `crates/core` source
/// code from constructing a [`RingStream`] directly — routing every
/// build through here is what makes the fallback rules unbypassable.
#[derive(Debug)]
pub enum EntropySource {
    /// The event-driven simulation (requested, or selected by
    /// fallback).
    Full(RingStream),
    /// The calibrated surrogate fast path.
    Surrogate(SurrogateStream),
}

impl EntropySource {
    /// Builds the source, resolving `backend` against the fallback
    /// rules: a [`SourceBackend::Surrogate`] request silently degrades
    /// to the full simulation when [`surrogate_eligible`] rejects the
    /// configuration. When the surrogate is selected, the calibration
    /// run uses the same `(config, board, seed)` triple, so the whole
    /// source stays a pure function of its spec.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration, a
    /// static-verification rejection, or a calibration run that fails
    /// to oscillate.
    pub fn build(
        config: &RingConfig,
        board: &Board,
        seed: u64,
        fault: Option<&FaultPlan>,
        backend: SourceBackend,
    ) -> Result<Self, RingError> {
        if backend == SourceBackend::Surrogate
            && surrogate_eligible(config, board, fault.is_some())
        {
            let model = Calibrator::default().fit(config, board, seed)?;
            return Ok(EntropySource::Surrogate(SurrogateStream::new(model, seed)));
        }
        Ok(EntropySource::Full(RingStream::build(
            config, board, seed, fault,
        )?))
    }

    /// Which backend the fallback rules actually selected.
    #[must_use]
    pub fn selected_backend(&self) -> SourceBackend {
        match self {
            EntropySource::Full(_) => SourceBackend::FullSim,
            EntropySource::Surrogate(_) => SourceBackend::Surrogate,
        }
    }

    /// The expected (full sim: analytic; surrogate: calibrated mean)
    /// period, ps.
    #[must_use]
    pub fn expected_period_ps(&self) -> f64 {
        match self {
            EntropySource::Full(s) => s.expected_period_ps(),
            EntropySource::Surrogate(s) => s.expected_period_ps(),
        }
    }

    /// The current waveform horizon.
    #[must_use]
    pub fn now(&self) -> Time {
        match self {
            EntropySource::Full(s) => s.now(),
            EntropySource::Surrogate(s) => s.now(),
        }
    }

    /// Workload statistics (surrogate transitions count as events; see
    /// [`SurrogateStream::stats`]).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        match self {
            EntropySource::Full(s) => s.stats(),
            EntropySource::Surrogate(s) => s.stats(),
        }
    }

    /// Advances the waveform by `delta_ps` past the later of the
    /// current horizon and the prune cursor.
    ///
    /// # Errors
    ///
    /// Never fails: neither backend can. The `Result` stays because
    /// perfbench's ladder (`perfbench/src/ladder.rs`) maps its error;
    /// ROADMAP item 7 drops it in the next benchmark change.
    pub fn advance_by(&mut self, delta_ps: f64) -> Result<Time, RingError> {
        Ok(match self {
            EntropySource::Full(s) => s.advance_by(delta_ps),
            EntropySource::Surrogate(s) => s.advance_by(delta_ps),
        })
    }

    /// The waveform produced so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        match self {
            EntropySource::Full(s) => s.trace(),
            EntropySource::Surrogate(s) => s.trace(),
        }
    }

    /// Discards trace history strictly before `until` (monotone
    /// cursor).
    pub fn prune_before(&mut self, until: Time) -> usize {
        match self {
            EntropySource::Full(s) => s.prune_before(until),
            EntropySource::Surrogate(s) => s.prune_before(until),
        }
    }

    /// Everything before this instant has been pruned away.
    #[must_use]
    pub fn consumed_until(&self) -> Time {
        match self {
            EntropySource::Full(s) => s.consumed_until(),
            EntropySource::Surrogate(s) => s.consumed_until(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::str_ring::{StrConfig, TokenLayout};
    use crate::IroConfig;
    use strent_device::Technology;

    fn fpga_board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 7)
    }

    fn asic_board() -> Board {
        Board::new(Technology::asic_like(), 0, 7)
    }

    fn str32() -> RingConfig {
        RingConfig::Str(StrConfig::new(32, 16).expect("valid"))
    }

    #[test]
    fn fit_series_recovers_a_known_mixture() {
        // Synthesize 60k periods from a known AR(1)+white mixture and
        // check the fit lands on the generating parameters.
        let truth = SurrogateModel {
            period_mean_ps: 1_000.0,
            sigma_white_ps: 4.0,
            sigma_edge_ps: 0.0,
            sigma_flicker_ps: 2.0,
            flicker_rho: 0.8,
            duty: 0.5,
        };
        let mut flicker = Ar1Process::new(truth.flicker_rho, truth.sigma_flicker_ps);
        let mut rng = RngTree::new(3).stream(1);
        let periods: Vec<f64> = (0..60_000)
            .map(|_| truth.period_mean_ps + flicker.step(&mut rng) + rng.normal(0.0, 4.0))
            .collect();
        let fitted = Calibrator::fit_series(&periods, 0.5);
        assert!((fitted.period_mean_ps - 1_000.0).abs() < 0.2, "{fitted:?}");
        assert!((fitted.flicker_rho - 0.8).abs() < 0.08, "{fitted:?}");
        assert!((fitted.sigma_white_ps - 4.0).abs() < 0.3, "{fitted:?}");
        assert!((fitted.sigma_flicker_ps - 2.0).abs() < 0.4, "{fitted:?}");
        assert!(fitted.sigma_edge_ps < 0.8, "{fitted:?}");
        assert!(
            (fitted.sigma_period_ps() - truth.sigma_period_ps()).abs() < 0.15,
            "{fitted:?}"
        );
    }

    #[test]
    fn fit_series_recovers_shared_edge_noise() {
        // Periods measured between independently jittered timestamps:
        // p[k] = mean + e[k+1] - e[k] + v[k], the structure event-driven
        // rings actually exhibit (lag-1 anticorrelation).
        let (sigma_e, sigma_v) = (3.0, 2.0);
        let mut rng = RngTree::new(11).stream(2);
        let mut prev_e = rng.normal(0.0, sigma_e);
        let periods: Vec<f64> = (0..60_000)
            .map(|_| {
                let e = rng.normal(0.0, sigma_e);
                let p = 1_000.0 + e - prev_e + rng.normal(0.0, sigma_v);
                prev_e = e;
                p
            })
            .collect();
        let fitted = Calibrator::fit_series(&periods, 0.5);
        assert!((fitted.sigma_edge_ps - sigma_e).abs() < 0.3, "{fitted:?}");
        assert!((fitted.sigma_white_ps - sigma_v).abs() < 0.5, "{fitted:?}");
        assert_eq!(fitted.sigma_flicker_ps, 0.0, "{fitted:?}");
        // Model rho1 = -var_e / (var_v + 2 var_e).
        let expected_rho1 = -(sigma_e * sigma_e) / sigma_v.mul_add(sigma_v, 2.0 * sigma_e * sigma_e);
        assert!(
            (fitted.lag1_autocorrelation() - expected_rho1).abs() < 0.05,
            "rho1 {} vs {expected_rho1}",
            fitted.lag1_autocorrelation()
        );
    }

    #[test]
    fn fit_series_degenerates_to_white_noise_cleanly() {
        let mut rng = RngTree::new(5).stream(0);
        let periods: Vec<f64> = (0..20_000).map(|_| rng.normal(500.0, 3.0)).collect();
        let fitted = Calibrator::fit_series(&periods, 0.4);
        assert_eq!(fitted.flicker_rho * fitted.sigma_flicker_ps, 0.0, "{fitted:?}");
        assert_eq!(fitted.sigma_edge_ps, 0.0, "{fitted:?}");
        assert!((fitted.sigma_white_ps - 3.0).abs() < 0.2, "{fitted:?}");
        assert!(fitted.lag1_autocorrelation().abs() < 1e-12);
        // Constant periods: zero jitter, still a valid model.
        let flat = Calibrator::fit_series(&[100.0; 512], 0.5);
        assert_eq!(flat.sigma_period_ps(), 0.0);
    }

    #[test]
    fn calibrated_str_matches_the_eq5_prediction() {
        let board = fpga_board();
        let model = Calibrator::new()
            .fit(&str32(), &board, 2012)
            .expect("calibrates");
        // The event-driven STR tracks Eq. 5 within a factor 1.6 (see
        // tests/equations.rs); the fitted sigma must land in the same
        // band.
        let predicted = analytic::str_sigma_period_ps(&board);
        let ratio = model.sigma_period_ps() / predicted;
        assert!(
            (1.0 / 1.6..1.6).contains(&ratio),
            "fitted sigma {} vs Eq. 5 {predicted}",
            model.sigma_period_ps()
        );
        let expected_period = str32().predicted_period_ps(&board);
        assert!(
            (model.period_mean_ps / expected_period - 1.0).abs() < 0.02,
            "fitted mean {} vs analytic {expected_period}",
            model.period_mean_ps
        );
        assert!((0.2..=0.8).contains(&model.duty), "duty {}", model.duty);
    }

    #[test]
    fn calibration_equals_a_fit_from_a_run_far_past_the_need() {
        let iro5 = RingConfig::Iro(IroConfig::new(5).expect("valid"));
        for config in [str32(), iro5] {
            let calibrator = Calibrator::new().with_periods(256);
            let model = calibrator
                .fit(&config, &fpga_board(), 6)
                .expect("calibrates");
            let mut stream = RingStream::build(&config, &fpga_board(), 6, None).expect("builds");
            let total = WARMUP_PERIODS + calibrator.periods() + 2;
            stream.advance_by(3.0 * stream.expected_period_ps() * total as f64);
            assert_eq!(calibrator.fit_trace(stream.trace()), model, "{config:?}");
        }
    }

    #[test]
    fn surrogate_stream_reproduces_the_model_moments() {
        let model = SurrogateModel {
            period_mean_ps: 800.0,
            sigma_white_ps: 3.0,
            sigma_edge_ps: 2.0,
            sigma_flicker_ps: 1.5,
            flicker_rho: 0.7,
            duty: 0.5,
        };
        let mut stream = SurrogateStream::new(model, 9);
        let periods = stream.next_periods(40_000);
        let refit = Calibrator::fit_series(&periods, 0.5);
        assert!((refit.period_mean_ps - 800.0).abs() < 0.2, "{refit:?}");
        assert!(
            (refit.sigma_period_ps() - model.sigma_period_ps()).abs() < 0.15,
            "{refit:?}"
        );
        assert!(
            (refit.lag1_autocorrelation() - model.lag1_autocorrelation()).abs() < 0.05,
            "{refit:?}"
        );
        assert_eq!(stream.periods_emitted(), 40_000);
        assert_eq!(stream.stats().events_processed, 80_000);
    }

    #[test]
    fn advance_granularity_does_not_change_the_waveform() {
        let model = Calibrator::new()
            .with_periods(Calibrator::MIN_PERIODS)
            .fit(&str32(), &fpga_board(), 4)
            .expect("calibrates");
        let mut incremental = SurrogateStream::new(model, 11);
        for _ in 0..10 {
            incremental.advance_by(20_000.0);
        }
        let mut one_shot = SurrogateStream::new(model, 11);
        one_shot.advance_by(200_000.0);
        assert_eq!(incremental.trace(), one_shot.trace());
        assert_eq!(incremental.now(), one_shot.now());
        // Different seeds diverge.
        let mut other = SurrogateStream::new(model, 12);
        other.advance_by(200_000.0);
        assert_ne!(other.trace(), one_shot.trace());
    }

    #[test]
    fn pruning_is_monotone_and_bounds_memory() {
        let model = SurrogateModel {
            period_mean_ps: 1_000.0,
            sigma_white_ps: 2.0,
            sigma_edge_ps: 1.0,
            sigma_flicker_ps: 0.0,
            flicker_rho: 0.0,
            duty: 0.5,
        };
        let mut stream = SurrogateStream::new(model, 1);
        let mut max_len = 0;
        for step in 1..=50 {
            stream.advance_by(10_000.0);
            stream.prune_before(Time::from_ps(f64::from(step) * 10_000.0 - 5_000.0));
            max_len = max_len.max(stream.trace().len());
        }
        assert!(max_len < 40, "pruned trace stays near one slice: {max_len}");
        assert_eq!(stream.prune_before(Time::from_ps(0.0)), 0, "no rewind");
        assert!(stream.consumed_until() > Time::ZERO);
    }

    #[test]
    fn eligibility_follows_the_fallback_rules() {
        let board = fpga_board();
        // Healthy FPGA rings: both families eligible.
        assert!(surrogate_eligible(&str32(), &board, false));
        let iro = RingConfig::Iro(IroConfig::new(32).expect("valid"));
        assert!(surrogate_eligible(&iro, &board, false));
        // Rule 1: an armed fault forces the full sim.
        assert!(!surrogate_eligible(&str32(), &board, true));
        assert!(!surrogate_eligible(&iro, &board, true));
        // Rule 2: predicted burst (clustered tokens under drafting).
        let clustered = RingConfig::Str(
            StrConfig::new(16, 6)
                .expect("valid")
                .with_layout(TokenLayout::Clustered),
        );
        assert!(!surrogate_eligible(&clustered, &asic_board(), false));
        // Rule 3: near-boundary deviation under drafting, even though
        // SL012 itself has not fired.
        let near = StrConfig::new(14, 8).expect("valid");
        let (actual, target) = analytic::design_rule(&near);
        let deviation = (actual / target).max(target / actual);
        assert!(
            deviation > BOUNDARY_DEVIATION && deviation <= 1.5,
            "fixture sits between the margins: {deviation}"
        );
        assert!(!surrogate_eligible(
            &RingConfig::Str(near.clone()),
            &asic_board(),
            false
        ));
        // The same ratio on the FPGA (no drafting) stays eligible.
        assert!(surrogate_eligible(&RingConfig::Str(near), &board, false));
    }

    #[test]
    fn entropy_source_resolves_backends() {
        let board = fpga_board();
        // FullSim request is honored verbatim.
        let full = EntropySource::build(&str32(), &board, 1, None, SourceBackend::FullSim)
            .expect("builds");
        assert_eq!(full.selected_backend(), SourceBackend::FullSim);
        // Surrogate request on a healthy config selects the surrogate.
        let sur = EntropySource::build(&str32(), &board, 1, None, SourceBackend::Surrogate)
            .expect("builds");
        assert_eq!(sur.selected_backend(), SourceBackend::Surrogate);
        // Surrogate request with a fault armed falls back to full sim.
        let plan = FaultPlan::new(3);
        let fallen =
            EntropySource::build(&str32(), &board, 1, Some(&plan), SourceBackend::Surrogate)
                .expect("builds");
        assert_eq!(fallen.selected_backend(), SourceBackend::FullSim);
        assert_eq!(SourceBackend::Surrogate.label(), "surrogate");
        assert_eq!(SourceBackend::FullSim.label(), "full_sim");
    }

    #[test]
    fn entropy_source_serves_both_backends_through_one_surface() {
        let board = fpga_board();
        for backend in [SourceBackend::FullSim, SourceBackend::Surrogate] {
            let mut source = EntropySource::build(&str32(), &board, 6, None, backend)
                .expect("builds");
            let period = source.expected_period_ps();
            assert!(period > 0.0);
            source.advance_by(200.0 * period).expect("advances");
            assert!(source.now() >= Time::from_ps(200.0 * period));
            assert!(
                source.trace().edge_count(Edge::Rising) > 150,
                "{} oscillates",
                backend.label()
            );
            assert!(source.stats().events_processed > 0);
            let dropped = source.prune_before(Time::from_ps(50.0 * period));
            assert!(dropped > 0);
            assert_eq!(source.consumed_until(), Time::from_ps(50.0 * period));
        }
    }
}
