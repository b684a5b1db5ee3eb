//! An on-chip frequency counter.
//!
//! The paper measured frequencies with an external scope; production
//! FPGA TRNG designs measure them on-chip with a gated edge counter
//! (also the usual online-health-test primitive). The component counts
//! rising edges of its input within consecutive fixed gate windows; the
//! count history converts directly to frequency estimates with a
//! ±1-count quantization.

use strent_sim::{Bit, Component, ComponentId, Context, Event, NetId, Simulator};

use crate::error::RingError;

/// Timer tag used for the gate window.
const GATE_TAG: u64 = 0xC0;

/// The gated-counter component. Public so callers can downcast via
/// [`Simulator::component`] to read the captured counts.
///
/// [`Simulator::component`]: strent_sim::Simulator::component
#[derive(Debug)]
pub struct FrequencyCounter {
    input: NetId,
    gate_ps: f64,
    current: u64,
    windows: Vec<u64>,
}

impl FrequencyCounter {
    /// The completed gate-window counts, oldest first.
    #[must_use]
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// The gate window length, ps.
    #[must_use]
    pub fn gate_ps(&self) -> f64 {
        self.gate_ps
    }

    /// Frequency estimates in MHz, one per completed window.
    #[must_use]
    pub fn frequencies_mhz(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|&c| c as f64 / self.gate_ps * 1e6)
            .collect()
    }
}

impl Component for FrequencyCounter {
    fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
        match *event {
            Event::NetChanged { net, value } if net == self.input && value == Bit::High => {
                self.current += 1;
            }
            Event::Timer { tag } if tag == GATE_TAG => {
                self.windows.push(self.current);
                self.current = 0;
                ctx.schedule_timer(self.gate_ps, GATE_TAG);
            }
            _ => {}
        }
    }
}

/// Handle to an instantiated counter.
#[derive(Debug, Clone, Copy)]
pub struct CounterHandle {
    component: ComponentId,
}

impl CounterHandle {
    /// The counter component id (downcast with
    /// `sim.component::<FrequencyCounter>(handle.component())`).
    #[must_use]
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// Reads the completed-window frequency estimates from a simulator.
    ///
    /// Returns an empty vector if the handle does not belong to `sim`.
    #[must_use]
    pub fn frequencies_mhz(&self, sim: &Simulator) -> Vec<f64> {
        sim.component::<FrequencyCounter>(self.component)
            .map(FrequencyCounter::frequencies_mhz)
            .unwrap_or_default()
    }
}

/// Attaches a gated frequency counter to `input`. The first gate window
/// opens at the current simulation time.
///
/// # Errors
///
/// Returns [`RingError::InvalidConfig`] for a non-positive gate length,
/// or propagates simulator wiring errors.
pub fn build(
    sim: &mut Simulator,
    input: NetId,
    gate_ps: f64,
) -> Result<CounterHandle, RingError> {
    if !(gate_ps.is_finite() && gate_ps > 0.0) {
        return Err(RingError::InvalidConfig(format!(
            "gate window must be positive, got {gate_ps}"
        )));
    }
    let component = sim.add_component(FrequencyCounter {
        input,
        gate_ps,
        current: 0,
        windows: Vec::new(),
    });
    sim.listen(input, component)?;
    sim.arm_timer(component, gate_ps, GATE_TAG)?;
    Ok(CounterHandle { component })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iro::{self, IroConfig};
    use strent_device::{Board, Technology};
    use strent_sim::Time;

    #[test]
    fn counter_matches_trace_frequency() {
        let board = Board::new(Technology::cyclone_iii(), 0, 3);
        let mut sim = strent_sim::Simulator::new(9);
        let config = IroConfig::new(5).expect("valid length");
        let ring = iro::build(&config, &board, &mut sim).expect("wires");
        sim.watch(ring.output()).expect("net exists");
        let gate_ps = 100_000.0; // 100 ns windows (~37 edges each)
        let counter = build(&mut sim, ring.output(), gate_ps).expect("valid gate");
        sim.run_until(Time::from_us(2.0)).expect("no limit");

        let freqs = counter.frequencies_mhz(&sim);
        assert!(freqs.len() >= 19, "windows completed: {}", freqs.len());
        let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
        let reference = sim
            .trace(ring.output())
            .expect("watched")
            .mean_frequency_mhz()
            .expect("oscillates");
        // The counter quantizes to ±1 count per window (~±10 MHz here);
        // the mean over 19+ windows is much tighter.
        assert!(
            (mean / reference - 1.0).abs() < 0.02,
            "counter {mean} vs trace {reference}"
        );
        // Each individual window is within the quantization bound.
        let quantum = 1e6 / gate_ps; // MHz per count
        for f in &freqs {
            assert!((f - reference).abs() <= 2.0 * quantum, "window {f}");
        }
    }

    #[test]
    fn invalid_gate_rejected() {
        let mut sim = strent_sim::Simulator::new(1);
        let net = sim.add_net("osc");
        assert!(build(&mut sim, net, 0.0).is_err());
        assert!(build(&mut sim, net, f64::NAN).is_err());
        let handle = build(&mut sim, net, 100.0).expect("valid");
        assert!(handle.frequencies_mhz(&sim).is_empty());
    }

    #[test]
    fn idle_input_counts_zero() {
        let mut sim = strent_sim::Simulator::new(1);
        let net = sim.add_net("quiet");
        let counter = build(&mut sim, net, 500.0).expect("valid");
        sim.run_until(Time::from_ps(2_600.0)).expect("no limit");
        let c = sim
            .component::<FrequencyCounter>(counter.component())
            .expect("typed");
        assert_eq!(c.windows(), &[0, 0, 0, 0, 0]);
        assert_eq!(c.gate_ps(), 500.0);
    }
}
