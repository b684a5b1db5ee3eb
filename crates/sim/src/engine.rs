//! The simulation kernel: nets, components, scheduling and dispatch.
//!
//! The dispatch hot path is allocation-free in steady state: the
//! pending-event set is a timing wheel whose buckets retain capacity
//! (`queue::WheelQueue`), event liveness lives in a generation-stamped slab
//! ([`CancelSlab`](crate::slab)), net fan-out is stored inline for the
//! common small case, and trace recording is a dense indexed lookup.
//! `docs/engine_perf.md` documents the design and the measured effect.

use std::any::Any;

use crate::error::SimError;
use crate::event::{Event, EventId, Occurrence, TimerTag};
use crate::fault::{self, DriftState, FaultAction, FaultKind, FaultPlan, FaultRuntime, FaultTarget, ForceState};
use crate::lint::{Diagnostic, LintCode, LintReport};
use crate::queue::{ScheduledEvent, WheelQueue};
use crate::rng::{RngTree, SimRng};
use crate::signal::{Bit, NetId};
use crate::slab::{CancelSlab, NO_SLOT};
use crate::trace::{Trace, TraceSet};
use crate::Time;

/// Identifier of a component registered in a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Returns the raw index of this component.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A reactive simulation element.
///
/// Components receive [`Event`]s (net changes on nets they listen to, and
/// their own elapsed timers) and react by scheduling future occurrences
/// through the [`Context`].
///
/// The `Any` supertrait allows typed access to a component after the run
/// via [`Simulator::component`] / [`Simulator::component_mut`]. The
/// `Send` supertrait lets a whole built simulator move across threads
/// (the serving layer hands long-running rings to worker threads);
/// components are plain state machines, so the bound costs nothing.
pub trait Component: Any + Send {
    /// Handles one event. Called by the simulator during dispatch.
    fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>);
}

/// Fan-out listeners stored inline while small.
///
/// Nearly every net in a ring has one to three listeners (the next
/// stage, the previous stage, the stage's own feedback), so the list
/// lives in the [`NetState`] itself; only wider fan-outs spill to a
/// heap vector. Dispatch then copies at most
/// [`Listeners::INLINE`] words to the stack instead of cloning a
/// `Vec` per drive — the clone used to be the only per-event heap
/// allocation in the kernel.
#[derive(Debug)]
enum Listeners {
    /// Up to [`Listeners::INLINE`] component indices, in line.
    Inline {
        len: u8,
        buf: [u32; Listeners::INLINE],
    },
    /// The rare wide fan-out.
    Spilled(Vec<u32>),
}

/// A borrowless snapshot of a net's fan-out, taken for the duration of
/// one dispatch (components cannot mutate listener lists mid-dispatch —
/// [`Context`] has no subscription API — so the snapshot is exact).
enum Fanout {
    Inline {
        len: u8,
        buf: [u32; Listeners::INLINE],
    },
    /// The spilled vector, moved out and restored after dispatch.
    Taken(Vec<u32>),
}

/// Number of listeners a net stores inline before spilling to the
/// heap. Published so static verifiers ([`Simulator::lint_netlist`],
/// `strent_rings::lint`) can flag fan-outs that leave the
/// zero-allocation dispatch fast path.
pub const INLINE_FANOUT: usize = 4;

impl Listeners {
    const INLINE: usize = INLINE_FANOUT;

    const fn new() -> Self {
        Listeners::Inline {
            len: 0,
            buf: [0; Listeners::INLINE],
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Listeners::Inline { len, buf } => &buf[..usize::from(*len)],
            Listeners::Spilled(vec) => vec,
        }
    }

    fn contains(&self, component: u32) -> bool {
        self.as_slice().contains(&component)
    }

    fn push(&mut self, component: u32) {
        match self {
            Listeners::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < Listeners::INLINE {
                    buf[n] = component;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(Listeners::INLINE * 2);
                    vec.extend_from_slice(buf);
                    vec.push(component);
                    *self = Listeners::Spilled(vec);
                }
            }
            Listeners::Spilled(vec) => vec.push(component),
        }
    }

    /// Takes a dispatchable snapshot: a stack copy of the inline array,
    /// or the moved-out spill vector (restored via [`Listeners::restore`]).
    #[inline]
    fn snapshot(&mut self) -> Fanout {
        match self {
            Listeners::Inline { len, buf } => Fanout::Inline {
                len: *len,
                buf: *buf,
            },
            Listeners::Spilled(vec) => Fanout::Taken(std::mem::take(vec)),
        }
    }

    /// Puts a spilled vector back after dispatch.
    #[inline]
    fn restore(&mut self, vec: Vec<u32>) {
        debug_assert!(
            matches!(self, Listeners::Spilled(v) if v.is_empty()),
            "fan-out cannot change during dispatch"
        );
        *self = Listeners::Spilled(vec);
    }
}

/// Per-net bookkeeping.
#[derive(Debug)]
struct NetState {
    name: String,
    value: Bit,
    listeners: Listeners,
}

/// Schedules one occurrence: allocates its liveness slot, stamps the
/// tie-break sequence number and enqueues it.
///
/// This is the single push path shared by [`Simulator`] (`inject`,
/// `arm_timer`) and [`Context`] (`schedule_net`, `schedule_timer`), so
/// sequence numbering and slab accounting cannot drift apart.
#[inline]
fn push_event(
    queue: &mut WheelQueue,
    next_seq: &mut u64,
    slab: &mut CancelSlab,
    time: Time,
    occurrence: Occurrence,
) -> EventId {
    let seq = *next_seq;
    *next_seq += 1;
    let (slot, generation) = slab.alloc();
    queue.push(ScheduledEvent {
        time,
        seq,
        slot,
        occurrence,
    });
    EventId::pack(slot, generation)
}

/// Schedules one fire-and-forget occurrence: same sequence numbering as
/// [`push_event`], but no cancellation slot — the event cannot be
/// cancelled and the dispatch path skips the liveness check. This is
/// the ring-oscillator hot path (stages never cancel their own
/// firings).
#[inline]
fn push_event_uncancellable(
    queue: &mut WheelQueue,
    next_seq: &mut u64,
    time: Time,
    occurrence: Occurrence,
) {
    let seq = *next_seq;
    *next_seq += 1;
    queue.push(ScheduledEvent {
        time,
        seq,
        slot: NO_SLOT,
        occurrence,
    });
}

/// The component's view of the simulator during event dispatch.
///
/// Provides the current time, net reads, scheduling, cancellation and the
/// component's private random stream.
pub struct Context<'a> {
    now: Time,
    component: usize,
    nets: &'a [NetState],
    queue: &'a mut WheelQueue,
    next_seq: &'a mut u64,
    slab: &'a mut CancelSlab,
    rngs: &'a mut [SimRng],
    /// Armed delay-drift (aging) records; empty unless a fault plan
    /// with drift specs is armed, so the hot path pays one emptiness
    /// check.
    drift: &'a [DriftState],
}

impl<'a> Context<'a> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the component being dispatched.
    #[must_use]
    pub fn component_id(&self) -> ComponentId {
        ComponentId(self.component)
    }

    /// Reads the current level of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this simulator.
    #[must_use]
    pub fn net(&self, net: NetId) -> Bit {
        self.nets[net.index()].value
    }

    /// Schedules `net` to be driven to `value` after `delay_ps`.
    ///
    /// # Panics
    ///
    /// Panics if the delay is negative or non-finite, or the net is
    /// unknown. These are component logic errors, not runtime conditions.
    #[inline]
    pub fn schedule_net(&mut self, net: NetId, value: Bit, delay_ps: f64) -> EventId {
        assert!(
            delay_ps.is_finite() && delay_ps >= 0.0,
            "delay must be finite and non-negative, got {delay_ps}"
        );
        assert!(net.index() < self.nets.len(), "unknown {net}");
        let delay_ps = self.aged_delay(delay_ps);
        push_event(
            self.queue,
            self.next_seq,
            self.slab,
            self.now + delay_ps,
            Occurrence::DriveNet { net, value },
        )
    }

    /// Schedules `net` to be driven to `value` after `delay_ps`,
    /// without a cancellation handle.
    ///
    /// Semantically identical to [`schedule_net`] for an event that is
    /// never cancelled — same `(time, sequence)` ordering, same
    /// statistics — but skips the cancellation-slab bookkeeping on both
    /// the schedule and dispatch paths. Ring stages fire tens of
    /// millions of these and never cancel one.
    ///
    /// # Panics
    ///
    /// Panics if the delay is negative or non-finite, or the net is
    /// unknown.
    ///
    /// [`schedule_net`]: Context::schedule_net
    #[inline]
    pub fn schedule_net_uncancellable(&mut self, net: NetId, value: Bit, delay_ps: f64) {
        assert!(
            delay_ps.is_finite() && delay_ps >= 0.0,
            "delay must be finite and non-negative, got {delay_ps}"
        );
        assert!(net.index() < self.nets.len(), "unknown {net}");
        let delay_ps = self.aged_delay(delay_ps);
        push_event_uncancellable(
            self.queue,
            self.next_seq,
            self.now + delay_ps,
            Occurrence::DriveNet { net, value },
        );
    }

    /// Arms a timer that will deliver [`Event::Timer`] with `tag` back to
    /// this component after `delay_ps`.
    ///
    /// # Panics
    ///
    /// Panics if the delay is negative or non-finite.
    #[inline]
    pub fn schedule_timer(&mut self, delay_ps: f64, tag: TimerTag) -> EventId {
        assert!(
            delay_ps.is_finite() && delay_ps >= 0.0,
            "delay must be finite and non-negative, got {delay_ps}"
        );
        push_event(
            self.queue,
            self.next_seq,
            self.slab,
            self.now + delay_ps,
            Occurrence::FireTimer {
                component: self.component,
                tag,
            },
        )
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired is a no-op, as is cancelling twice.
    pub fn cancel(&mut self, id: EventId) {
        self.slab.cancel(id.slot(), id.generation());
    }

    /// This component's private deterministic random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rngs[self.component]
    }

    /// Applies any armed delay-drift (aging) records for this component
    /// to a propagation delay. With no fault plan armed the table is
    /// empty and the delay passes through untouched — same bits, one
    /// branch.
    #[inline]
    fn aged_delay(&self, delay_ps: f64) -> f64 {
        if self.drift.is_empty() {
            return delay_ps;
        }
        delay_ps * fault::drift_scale(self.drift, self.component, self.now.as_ps())
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events dispatched (including suppressed no-change net drives).
    pub events_processed: u64,
    /// Events skipped because they had been cancelled.
    pub events_cancelled: u64,
    /// Net drives suppressed because the net already held the value.
    pub drives_suppressed: u64,
}

impl SimStats {
    /// Accumulates another run's counters into this one (used by sweep
    /// harnesses aggregating per-shard totals).
    pub fn absorb(&mut self, other: SimStats) {
        self.events_processed += other.events_processed;
        self.events_cancelled += other.events_cancelled;
        self.drives_suppressed += other.drives_suppressed;
    }
}

/// The discrete-event simulator.
///
/// Owns the nets, components, pending-event set (a timing wheel),
/// waveform traces and the random-number tree.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulator {
    queue: WheelQueue,
    now: Time,
    next_seq: u64,
    nets: Vec<NetState>,
    components: Vec<Option<Box<dyn Component>>>,
    /// Whether a bootstrap timer was ever armed for each component —
    /// consulted by [`Simulator::lint_netlist`] to tell apart
    /// components reachable through a timer from truly orphaned ones.
    timer_armed: Vec<bool>,
    rngs: Vec<SimRng>,
    traces: TraceSet,
    slab: CancelSlab,
    rng_tree: RngTree,
    stats: SimStats,
    /// Armed fault plan, if any. `None` (the default) keeps the hot
    /// path fault-free: `drive_net` pays one branch, `Context` carries
    /// an empty drift table.
    faults: Option<Box<FaultRuntime>>,
}

impl Simulator {
    /// Creates an empty simulator whose random streams derive from
    /// `master_seed`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Simulator {
            queue: WheelQueue::new(),
            now: Time::ZERO,
            next_seq: 0,
            nets: Vec::new(),
            components: Vec::new(),
            timer_armed: Vec::new(),
            rngs: Vec::new(),
            traces: TraceSet::new(),
            slab: CancelSlab::default(),
            rng_tree: RngTree::new(master_seed),
            stats: SimStats::default(),
            faults: None,
        }
    }

    /// Adds a named net, initialized to [`Bit::Low`].
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.add_net_with(name, Bit::Low)
    }

    /// Adds a named net with an explicit initial level.
    pub fn add_net_with(&mut self, name: impl Into<String>, initial: Bit) -> NetId {
        let id = NetId(u32::try_from(self.nets.len()).expect("too many nets"));
        self.nets.push(NetState {
            name: name.into(),
            value: initial,
            listeners: Listeners::new(),
        });
        id
    }

    /// Registers a component and derives its private random stream.
    pub fn add_component(&mut self, component: impl Component) -> ComponentId {
        let id = self.components.len();
        let _ = u32::try_from(id).expect("too many components");
        self.components.push(Some(Box::new(component)));
        self.timer_armed.push(false);
        self.rngs.push(self.rng_tree.stream(id as u64));
        ComponentId(id)
    }

    /// Subscribes `component` to changes of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] or [`SimError::UnknownComponent`]
    /// if either id does not belong to this simulator.
    pub fn listen(&mut self, net: NetId, component: ComponentId) -> Result<(), SimError> {
        if component.0 >= self.components.len() {
            return Err(SimError::UnknownComponent(component.0));
        }
        let state = self
            .nets
            .get_mut(net.index())
            .ok_or(SimError::UnknownNet(net))?;
        let index = u32::try_from(component.0).expect("component ids fit u32");
        if !state.listeners.contains(index) {
            state.listeners.push(index);
        }
        Ok(())
    }

    /// Starts recording the waveform of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if the net is unknown.
    pub fn watch(&mut self, net: NetId) -> Result<(), SimError> {
        let state = self
            .nets
            .get(net.index())
            .ok_or(SimError::UnknownNet(net))?;
        self.traces.watch(net, state.value);
        Ok(())
    }

    /// Starts recording `net` with trace storage preallocated for
    /// `transitions` transitions — measurement loops that know their
    /// horizon use this to keep recording reallocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if the net is unknown.
    pub fn watch_with_capacity(
        &mut self,
        net: NetId,
        transitions: usize,
    ) -> Result<(), SimError> {
        self.watch(net)?;
        self.traces.reserve(net, transitions);
        Ok(())
    }

    /// Schedules an externally driven transition on `net`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] for an unknown net or
    /// [`SimError::InvalidDelay`] for a negative/non-finite delay.
    pub fn inject(&mut self, net: NetId, value: Bit, delay_ps: f64) -> Result<EventId, SimError> {
        if net.index() >= self.nets.len() {
            return Err(SimError::UnknownNet(net));
        }
        if !delay_ps.is_finite() || delay_ps < 0.0 {
            return Err(SimError::InvalidDelay(delay_ps));
        }
        Ok(push_event(
            &mut self.queue,
            &mut self.next_seq,
            &mut self.slab,
            self.now + delay_ps,
            Occurrence::DriveNet { net, value },
        ))
    }

    /// Arms a timer on behalf of `component` (typically to bootstrap it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownComponent`] or [`SimError::InvalidDelay`].
    pub fn arm_timer(
        &mut self,
        component: ComponentId,
        delay_ps: f64,
        tag: TimerTag,
    ) -> Result<EventId, SimError> {
        if component.0 >= self.components.len() {
            return Err(SimError::UnknownComponent(component.0));
        }
        if !delay_ps.is_finite() || delay_ps < 0.0 {
            return Err(SimError::InvalidDelay(delay_ps));
        }
        self.timer_armed[component.0] = true;
        Ok(push_event(
            &mut self.queue,
            &mut self.next_seq,
            &mut self.slab,
            self.now + delay_ps,
            Occurrence::FireTimer {
                component: component.0,
                tag,
            },
        ))
    }

    /// Cancels a scheduled event. Cancelling an event that already
    /// fired is a no-op, as is cancelling twice.
    pub fn cancel(&mut self, id: EventId) {
        self.slab.cancel(id.slot(), id.generation());
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current level of a net.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if the net is unknown.
    pub fn net_value(&self, net: NetId) -> Result<Bit, SimError> {
        self.nets
            .get(net.index())
            .map(|s| s.value)
            .ok_or(SimError::UnknownNet(net))
    }

    /// Name of a net.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if the net is unknown.
    pub fn net_name(&self, net: NetId) -> Result<&str, SimError> {
        self.nets
            .get(net.index())
            .map(|s| s.name.as_str())
            .ok_or(SimError::UnknownNet(net))
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The components subscribed to `net`, in subscription order.
    ///
    /// A verification-time accessor (it allocates); dispatch never
    /// uses it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNet`] if the net is unknown.
    pub fn listeners(&self, net: NetId) -> Result<Vec<ComponentId>, SimError> {
        let state = self
            .nets
            .get(net.index())
            .ok_or(SimError::UnknownNet(net))?;
        Ok(state
            .listeners
            .as_slice()
            .iter()
            .map(|&c| ComponentId(c as usize))
            .collect())
    }

    /// Runs the structural netlist checks and returns the findings.
    ///
    /// Intended to run **after wiring and before the first event**:
    ///
    /// * `SL001` — a net nobody listens to and nobody watches;
    /// * `SL002` — a component with no subscriptions and no armed
    ///   bootstrap timer (it can never be dispatched);
    /// * `SL003` — a net whose fan-out spilled the inline listener
    ///   storage (dispatch leaves the zero-allocation fast path).
    ///
    /// The pass only reads bookkeeping that wiring already built, so
    /// it consumes no randomness and cannot perturb a simulation run.
    #[must_use]
    pub fn lint_netlist(&self) -> LintReport {
        let mut report = LintReport::new();
        let mut subscribed = vec![false; self.components.len()];
        for (i, state) in self.nets.iter().enumerate() {
            let fan_out = state.listeners.as_slice();
            for &listener in fan_out {
                if let Some(flag) = subscribed.get_mut(listener as usize) {
                    *flag = true;
                }
            }
            let net = NetId(u32::try_from(i).expect("net ids fit u32"));
            if fan_out.is_empty() && !self.traces.is_watched(net) {
                report.push(Diagnostic::new(
                    LintCode::OrphanNet,
                    format!("net {i} ({})", state.name),
                    "no listeners and not watched: drives on this net have no effect",
                ));
            }
            if fan_out.len() > INLINE_FANOUT {
                report.push(Diagnostic::new(
                    LintCode::SpilledFanout,
                    format!("net {i} ({})", state.name),
                    format!(
                        "fan-out {} exceeds the inline capacity {INLINE_FANOUT}: \
                         dispatch takes the spilled (allocating) path",
                        fan_out.len()
                    ),
                ));
            }
        }
        for (i, component) in self.components.iter().enumerate() {
            if component.is_some() && !subscribed[i] && !self.timer_armed[i] {
                report.push(Diagnostic::new(
                    LintCode::UnreachableComponent,
                    format!("component {i}"),
                    "no net subscriptions and no armed timer: it can never be dispatched",
                ));
            }
        }
        report
    }

    /// All recorded traces.
    #[must_use]
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// Mutable access to the recorded traces (e.g. for warm-up removal).
    pub fn traces_mut(&mut self) -> &mut TraceSet {
        &mut self.traces
    }

    /// The trace of one watched net.
    #[must_use]
    pub fn trace(&self, net: NetId) -> Option<&Trace> {
        self.traces.get(net)
    }

    /// Typed shared access to a registered component.
    ///
    /// Returns `None` if the id is unknown or the component is not a `T`.
    #[must_use]
    pub fn component<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let boxed = self.components.get(id.0)?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Typed exclusive access to a registered component.
    ///
    /// Returns `None` if the id is unknown or the component is not a `T`.
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        let boxed = self.components.get_mut(id.0)?.as_mut()?;
        (boxed.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Handles one popped event: retires its liveness slot, then either
    /// skips it (cancelled) or advances time and dispatches it.
    #[inline]
    fn process(&mut self, event: ScheduledEvent) {
        if event.slot != NO_SLOT && self.slab.finish(event.slot) {
            self.stats.events_cancelled += 1;
            return;
        }
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.stats.events_processed += 1;
        match event.occurrence {
            Occurrence::DriveNet { net, value } => self.drive_net(net, value),
            Occurrence::FireTimer { component, tag } => {
                self.dispatch(component, Event::Timer { tag });
            }
            Occurrence::FaultEdge { action } => self.apply_fault_edge(action),
        }
    }

    /// Runs until the pending-event set is empty or the next event lies
    /// beyond `horizon`; simulation time is left at `min(horizon, last
    /// event time)`.
    ///
    /// The loop issues one bounded pop per event instead of a peek +
    /// pop pair, so the wheel locates the minimum once.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(event) = self.queue.pop_at_or_before(horizon) {
            self.process(event);
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Applies a net transition and notifies the fan-out, honoring any
    /// active stuck-at/glitch clamp on the net (the clamp overrides the
    /// incoming level and remembers it for the release edge).
    #[inline]
    fn drive_net(&mut self, net: NetId, value: Bit) {
        let value = match &mut self.faults {
            None => value,
            Some(rt) => rt.filter(net.0, value),
        };
        self.drive_net_raw(net, value);
    }

    /// The unfiltered drive path: applies the transition regardless of
    /// clamps. Fault edges use this to force and release levels.
    #[inline]
    fn drive_net_raw(&mut self, net: NetId, value: Bit) {
        let state = &mut self.nets[net.index()];
        if state.value == value {
            self.stats.drives_suppressed += 1;
            return;
        }
        state.value = value;
        // Snapshot the fan-out without cloning: inline lists copy to
        // the stack, spilled lists are moved out and restored below.
        // (Listener lists cannot change during dispatch — Context has
        // no subscription API — so the snapshot stays exact.)
        let fanout = state.listeners.snapshot();
        self.traces.record(net, self.now, value);
        let event = Event::NetChanged { net, value };
        // One Context serves the whole fan-out; only the component index
        // changes between listeners.
        let mut ctx = Context {
            now: self.now,
            component: 0,
            nets: &self.nets,
            queue: &mut self.queue,
            next_seq: &mut self.next_seq,
            slab: &mut self.slab,
            rngs: &mut self.rngs,
            drift: self.faults.as_deref().map_or(&[], FaultRuntime::drift_table),
        };
        // Components live in a separate field from everything Context
        // borrows, so each listener gets a direct `&mut` — no box
        // take/restore on the hot path.
        match fanout {
            Fanout::Inline { len, buf } => {
                for &listener in &buf[..usize::from(len)] {
                    let component = listener as usize;
                    let Some(Some(boxed)) = self.components.get_mut(component) else {
                        continue;
                    };
                    ctx.component = component;
                    boxed.on_event(&event, &mut ctx);
                }
            }
            Fanout::Taken(vec) => {
                for &listener in &vec {
                    let component = listener as usize;
                    let Some(Some(boxed)) = self.components.get_mut(component) else {
                        continue;
                    };
                    ctx.component = component;
                    boxed.on_event(&event, &mut ctx);
                }
                self.nets[net.index()].listeners.restore(vec);
            }
        }
    }

    #[inline]
    fn dispatch(&mut self, component: usize, event: Event) {
        let Some(Some(boxed)) = self.components.get_mut(component) else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            component,
            nets: &self.nets,
            queue: &mut self.queue,
            next_seq: &mut self.next_seq,
            slab: &mut self.slab,
            rngs: &mut self.rngs,
            drift: self.faults.as_deref().map_or(&[], FaultRuntime::drift_table),
        };
        boxed.on_event(&event, &mut ctx);
    }

    /// Executes one armed fault action: opens or closes a forcing
    /// window and drives the corresponding level through the raw
    /// (unfiltered) path.
    fn apply_fault_edge(&mut self, action: usize) {
        let Some(rt) = self.faults.as_mut() else {
            debug_assert!(false, "fault edge fired with no runtime armed");
            return;
        };
        let (net, value) = match rt.actions[action] {
            FaultAction::ForceStart(i) => {
                let force = &mut rt.forces[i];
                force.prev = self.nets[force.net as usize].value;
                force.active = true;
                force.blocked = None;
                (NetId(force.net), force.value)
            }
            FaultAction::ForceEnd(i) => {
                let force = &mut rt.forces[i];
                force.active = false;
                // Wake the fan-out back up: resume the last level the
                // ring tried to drive into the clamp, or restore the
                // pre-window level if nothing fired into it.
                let wake = force.blocked.take().unwrap_or(force.prev);
                (NetId(force.net), wake)
            }
        };
        self.drive_net_raw(net, value);
    }

    /// Arms a fault plan: resolves net names and stage indices, stores
    /// the forcing windows / drift records and queues their edge
    /// events. May be called repeatedly; plans accumulate.
    ///
    /// `stages` maps [`FaultTarget::Stage`] positions to component ids
    /// (pass a ring handle's component list, or `&[]` if the plan only
    /// targets nets).
    ///
    /// Supply-droop specs are device-layer faults; strip them with
    /// [`FaultPlan::without_supply_faults`] first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNetName`] for an unresolvable net
    /// name and [`SimError::InvalidFault`] for supply specs, stage
    /// indices out of range, mismatched target/kind pairs or onsets
    /// before the current simulation time.
    pub fn arm_faults(
        &mut self,
        plan: &FaultPlan,
        stages: &[ComponentId],
    ) -> Result<(), SimError> {
        let was_armed = self.faults.is_some();
        let mut rt = match self.faults.take() {
            Some(boxed) => *boxed,
            None => FaultRuntime::default(),
        };
        let snapshot = (rt.forces.len(), rt.drifts.len(), rt.actions.len());
        // Validate and stage everything before queueing edge events so
        // a failed arm leaves the simulator untouched.
        let mut edges: Vec<(f64, usize)> = Vec::new();
        let result = (|| {
            for spec in plan.specs() {
                if spec.at_ps < self.now.as_ps() {
                    return Err(SimError::InvalidFault(format!(
                        "onset {} ps lies before current time {}",
                        spec.at_ps, self.now
                    )));
                }
                match (&spec.target, &spec.kind) {
                    (FaultTarget::Supply, _) | (_, FaultKind::SupplyDroop { .. }) => {
                        return Err(SimError::InvalidFault(
                            "supply faults are applied at the device layer; strip them \
                             with FaultPlan::without_supply_faults before arming"
                                .to_owned(),
                        ));
                    }
                    (FaultTarget::Net(name), FaultKind::StuckAt { value, until_ps }) => {
                        let net = self.resolve_net(name)?;
                        let index = rt.forces.len();
                        rt.forces.push(ForceState {
                            net: net.0,
                            value: *value,
                            active: false,
                            prev: Bit::Low,
                            blocked: None,
                        });
                        edges.push((spec.at_ps, rt.actions.len()));
                        rt.actions.push(FaultAction::ForceStart(index));
                        edges.push((*until_ps, rt.actions.len()));
                        rt.actions.push(FaultAction::ForceEnd(index));
                    }
                    (FaultTarget::Net(name), FaultKind::Glitch { value, width_ps }) => {
                        let net = self.resolve_net(name)?;
                        let index = rt.forces.len();
                        rt.forces.push(ForceState {
                            net: net.0,
                            value: *value,
                            active: false,
                            prev: Bit::Low,
                            blocked: None,
                        });
                        edges.push((spec.at_ps, rt.actions.len()));
                        rt.actions.push(FaultAction::ForceStart(index));
                        edges.push((spec.at_ps + width_ps, rt.actions.len()));
                        rt.actions.push(FaultAction::ForceEnd(index));
                    }
                    (FaultTarget::Stage(stage), FaultKind::DelayDrift { factor, ramp_ps }) => {
                        let component = stages.get(*stage).ok_or_else(|| {
                            SimError::InvalidFault(format!(
                                "stage {stage} out of range (ring has {} stages)",
                                stages.len()
                            ))
                        })?;
                        rt.drifts.push(DriftState {
                            component: u32::try_from(component.0)
                                .expect("component ids fit u32"),
                            factor: *factor,
                            from_ps: spec.at_ps,
                            ramp_ps: *ramp_ps,
                        });
                    }
                    (target, kind) => {
                        return Err(SimError::InvalidFault(format!(
                            "fault kind {kind:?} cannot target {target:?}"
                        )));
                    }
                }
            }
            Ok(())
        })();
        if let Err(err) = result {
            // Roll back to the pre-call runtime: drop everything this
            // plan staged, restore the previous armed state (if any).
            rt.forces.truncate(snapshot.0);
            rt.drifts.truncate(snapshot.1);
            rt.actions.truncate(snapshot.2);
            if was_armed {
                self.faults = Some(Box::new(rt));
            }
            return Err(err);
        }
        for (at_ps, action) in edges {
            push_event(
                &mut self.queue,
                &mut self.next_seq,
                &mut self.slab,
                Time::from_ps(at_ps),
                Occurrence::FaultEdge { action },
            );
        }
        self.faults = Some(Box::new(rt));
        Ok(())
    }

    /// Looks up a net by its registered name (linear scan — an
    /// arm-time convenience, not a hot path).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNetName`] if no net has that name.
    pub fn resolve_net(&self, name: &str) -> Result<NetId, SimError> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(u32::try_from(i).expect("net ids fit u32")))
            .ok_or_else(|| SimError::UnknownNetName(name.to_owned()))
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nets", &self.nets.len())
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverting delay stage used across engine tests.
    struct Inverter {
        input: NetId,
        output: NetId,
        delay: f64,
    }

    impl Component for Inverter {
        fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
            if let Event::NetChanged { net, value } = *event {
                if net == self.input {
                    ctx.schedule_net(self.output, !value, self.delay);
                }
            }
        }
    }

    /// Counts timer firings and re-arms itself `repeats` times.
    struct Ticker {
        period: f64,
        remaining: u32,
        fired: u32,
    }

    impl Component for Ticker {
        fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
            if let Event::Timer { tag } = *event {
                self.fired += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.schedule_timer(self.period, tag);
                }
            }
        }
    }

    /// Builds an odd-length all-inverting ring with alternating initial
    /// levels so that injecting `High` on net 0 starts the oscillation.
    fn ring(sim: &mut Simulator, stages: usize, delay: f64) -> Vec<NetId> {
        assert!(stages % 2 == 1, "inverting ring must have odd length");
        let nets: Vec<NetId> = (0..stages)
            .map(|i| {
                sim.add_net_with(format!("n{i}"), if i % 2 == 1 { Bit::High } else { Bit::Low })
            })
            .collect();
        for i in 0..stages {
            let input = nets[i];
            let output = nets[(i + 1) % stages];
            let comp = sim.add_component(Inverter {
                input,
                output,
                delay,
            });
            sim.listen(input, comp).expect("net exists");
        }
        nets
    }

    #[test]
    fn three_stage_ring_oscillates_at_expected_period() {
        let mut sim = Simulator::new(1);
        let nets = ring(&mut sim, 3, 100.0);
        sim.watch(nets[0]).expect("net exists");
        sim.inject(nets[0], Bit::High, 0.0).expect("valid");
        sim.run_until(Time::from_ns(10.0));
        let periods = sim
            .trace(nets[0])
            .expect("watched")
            .periods(crate::signal::Edge::Rising);
        assert!(periods.len() > 10);
        // Ideal 3-stage inverter ring: period = 2 * 3 * 100 ps.
        for p in &periods {
            assert!((p - 600.0).abs() < 1e-9, "period {p}");
        }
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut sim = Simulator::new(1);
        let ticker = sim.add_component(Ticker {
            period: 50.0,
            remaining: 4,
            fired: 0,
        });
        sim.arm_timer(ticker, 50.0, 7).expect("valid");
        sim.run_until(Time::from_ns(1.0));
        let t = sim.component::<Ticker>(ticker).expect("typed");
        assert_eq!(t.fired, 5);
        assert_eq!(sim.now(), Time::from_ns(1.0));
    }

    #[test]
    fn cancellation_suppresses_events() {
        let mut sim = Simulator::new(1);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        let id = sim.inject(net, Bit::High, 10.0).expect("valid");
        sim.cancel(id);
        sim.run_until(Time::from_ps(100.0));
        assert!(sim.trace(net).expect("watched").is_empty());
        assert_eq!(sim.stats().events_cancelled, 1);
    }

    #[test]
    fn cancellation_edge_cases_count_exactly() {
        let mut sim = Simulator::new(3);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");

        // A fired event: cancelling afterwards must be a no-op.
        let fired = sim.inject(net, Bit::High, 1.0).expect("valid");
        sim.run_until(Time::from_ps(5.0));
        assert_eq!(sim.stats().events_processed, 1);
        sim.cancel(fired); // stale: no effect, ever
        sim.cancel(fired);

        // A pending event cancelled twice counts once.
        let pending = sim.inject(net, Bit::Low, 10.0).expect("valid");
        sim.cancel(pending);
        sim.cancel(pending);

        // A later event still fires normally even though the slab may
        // recycle the cancelled event's slot.
        sim.inject(net, Bit::Low, 20.0).expect("valid");
        sim.run_until(Time::from_ps(100.0));

        // The stale handle aimed at the (long fired) first event must
        // not have cancelled anything that reused its slot.
        assert_eq!(sim.trace(net).expect("watched").len(), 2);
        assert_eq!(sim.stats().events_cancelled, 1, "cancel-twice counts once");
        assert_eq!(sim.stats().events_processed, 2);
    }

    #[test]
    fn cancel_from_context_is_honoured() {
        /// Schedules two future drives and cancels one of them.
        struct Canceller {
            net: NetId,
            armed: bool,
        }
        impl Component for Canceller {
            fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
                if matches!(event, Event::Timer { .. }) && !self.armed {
                    self.armed = true;
                    let keep = ctx.schedule_net(self.net, Bit::High, 10.0);
                    let drop = ctx.schedule_net(self.net, Bit::Low, 20.0);
                    ctx.cancel(drop);
                    ctx.cancel(drop); // twice: still one cancellation
                    let _ = keep;
                }
            }
        }
        let mut sim = Simulator::new(5);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        let comp = sim.add_component(Canceller { net, armed: false });
        sim.arm_timer(comp, 1.0, 0).expect("valid");
        sim.run_until(Time::from_ps(100.0));
        assert_eq!(sim.trace(net).expect("watched").len(), 1, "one drive fired");
        assert_eq!(sim.stats().events_cancelled, 1);
        assert_eq!(sim.net_value(net).expect("known"), Bit::High);
    }

    #[test]
    fn no_change_drives_are_suppressed() {
        let mut sim = Simulator::new(1);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        sim.inject(net, Bit::Low, 5.0).expect("valid");
        sim.inject(net, Bit::High, 10.0).expect("valid");
        sim.inject(net, Bit::High, 15.0).expect("valid");
        sim.run_until(Time::from_ps(100.0));
        assert_eq!(sim.trace(net).expect("watched").len(), 1);
        assert_eq!(sim.stats().drives_suppressed, 2);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let mut sim = Simulator::new(1);
        let net = sim.add_net("n");
        let comp = sim.add_component(Ticker {
            period: 1.0,
            remaining: 0,
            fired: 0,
        });
        assert!(matches!(
            sim.listen(NetId(9), comp),
            Err(SimError::UnknownNet(_))
        ));
        assert!(matches!(
            sim.listen(net, ComponentId(9)),
            Err(SimError::UnknownComponent(9))
        ));
        assert!(matches!(
            sim.inject(NetId(9), Bit::High, 0.0),
            Err(SimError::UnknownNet(_))
        ));
        assert!(matches!(
            sim.inject(net, Bit::High, -1.0),
            Err(SimError::InvalidDelay(_))
        ));
        assert!(matches!(
            sim.arm_timer(ComponentId(9), 0.0, 0),
            Err(SimError::UnknownComponent(9))
        ));
        assert!(matches!(
            sim.watch(NetId(9)),
            Err(SimError::UnknownNet(_))
        ));
    }

    #[test]
    fn wide_fanout_spills_and_still_dispatches() {
        // More listeners than the inline capacity: the spill vector is
        // taken and restored around dispatch, and every listener fires
        // on every drive.
        let mut sim = Simulator::new(1);
        let src = sim.add_net("src");
        let mut outs = Vec::new();
        for i in 0..7 {
            // Outputs start High so the inverted drive (Low) records.
            let out = sim.add_net_with(format!("out{i}"), Bit::High);
            let comp = sim.add_component(Inverter {
                input: src,
                output: out,
                delay: 1.0 + i as f64,
            });
            sim.listen(src, comp).expect("net exists");
            sim.watch(out).expect("net exists");
            outs.push(out);
        }
        sim.inject(src, Bit::High, 0.0).expect("valid");
        sim.run_until(Time::from_ps(50.0));
        for &out in &outs {
            assert_eq!(sim.trace(out).expect("watched").len(), 1);
        }
        // Drive again: the restored spill list must still be intact.
        sim.inject(src, Bit::Low, 0.0).expect("valid");
        sim.run_until(Time::from_ps(100.0));
        for &out in &outs {
            assert_eq!(sim.trace(out).expect("watched").len(), 2);
        }
    }

    #[test]
    fn duplicate_listen_registers_once() {
        let mut sim = Simulator::new(1);
        let a = sim.add_net("a");
        let comp = sim.add_component(Ticker {
            period: 0.0,
            remaining: 0,
            fired: 0,
        });
        sim.listen(a, comp).expect("net exists");
        sim.listen(a, comp).expect("net exists");
        sim.inject(a, Bit::High, 0.0).expect("valid");
        sim.run_until(Time::from_ps(10.0));
        assert_eq!(sim.stats().events_processed, 1);
        assert_eq!(sim.nets[a.index()].listeners.as_slice().len(), 1);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<(f64, u8)> {
            let mut sim = Simulator::new(seed);
            let nets = ring(&mut sim, 5, 100.0);
            sim.watch(nets[0]).expect("net exists");
            sim.inject(nets[0], Bit::High, 0.0).expect("valid");
            sim.run_until(Time::from_ns(20.0));
            sim.trace(nets[0])
                .expect("watched")
                .transitions()
                .iter()
                .map(|&(t, v)| (t.as_ps(), u8::from(v)))
                .collect()
        }
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn lint_flags_orphan_net_unreachable_component_and_spill() {
        use crate::lint::LintCode;

        let mut sim = Simulator::new(1);
        // Orphan: no listeners, not watched -> SL001.
        let orphan = sim.add_net("dangling");
        // Unreachable: no subscriptions, no timer -> SL002.
        let _idle = sim.add_component(Ticker {
            period: 1.0,
            remaining: 0,
            fired: 0,
        });
        // Spilled fan-out: INLINE + 1 listeners -> SL003 (and the net
        // itself has listeners, so no SL001 for it).
        let wide = sim.add_net("wide");
        for i in 0..=INLINE_FANOUT {
            let out = sim.add_net(format!("out{i}"));
            sim.watch(out).expect("net exists");
            let comp = sim.add_component(Inverter {
                input: wide,
                output: out,
                delay: 1.0,
            });
            sim.listen(wide, comp).expect("net exists");
        }
        let report = sim.lint_netlist();
        assert!(report.has_code(LintCode::OrphanNet));
        assert!(report.has_code(LintCode::UnreachableComponent));
        assert!(report.has_code(LintCode::SpilledFanout));
        let orphan_subject = format!("net {} (dangling)", orphan.index());
        assert!(
            report
                .diagnostics()
                .iter()
                .any(|d| d.code == LintCode::OrphanNet && d.subject == orphan_subject),
            "orphan names the net: {report}"
        );
    }

    #[test]
    fn lint_accepts_a_well_formed_netlist() {
        // A ring (every net listened), a watched output and an armed
        // timer component: nothing to report.
        let mut sim = Simulator::new(1);
        let nets = ring(&mut sim, 3, 100.0);
        sim.watch(nets[0]).expect("net exists");
        let ticker = sim.add_component(Ticker {
            period: 50.0,
            remaining: 1,
            fired: 0,
        });
        sim.arm_timer(ticker, 50.0, 7).expect("valid");
        let report = sim.lint_netlist();
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn watched_but_unlistened_net_is_not_an_orphan() {
        // A measurement tap: no listeners, but watched. The trace is
        // the observer, so the net is not an orphan.
        let mut sim = Simulator::new(1);
        let tap = sim.add_net("tap");
        sim.watch(tap).expect("net exists");
        assert!(sim.lint_netlist().is_clean());
    }

    #[test]
    fn listeners_accessor_reports_subscriptions() {
        let mut sim = Simulator::new(1);
        let net = sim.add_net("n");
        let comp = sim.add_component(Ticker {
            period: 1.0,
            remaining: 0,
            fired: 0,
        });
        assert_eq!(sim.listeners(net).expect("known"), vec![]);
        sim.listen(net, comp).expect("net exists");
        assert_eq!(sim.listeners(net).expect("known"), vec![comp]);
        assert!(sim.listeners(NetId(9)).is_err());
    }

    #[test]
    fn components_have_independent_rngs() {
        struct Sampler {
            out: Vec<f64>,
        }
        impl Component for Sampler {
            fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
                if matches!(event, Event::Timer { .. }) {
                    let x = ctx.rng().standard_normal();
                    self.out.push(x);
                }
            }
        }
        let mut sim = Simulator::new(4);
        let a = sim.add_component(Sampler { out: Vec::new() });
        let b = sim.add_component(Sampler { out: Vec::new() });
        sim.arm_timer(a, 1.0, 0).expect("valid");
        sim.arm_timer(b, 1.0, 0).expect("valid");
        sim.run_until(Time::from_ps(10.0));
        let xa = sim.component::<Sampler>(a).expect("typed").out[0];
        let xb = sim.component::<Sampler>(b).expect("typed").out[0];
        assert_ne!(xa, xb);
    }
}
