//! The on-chip measurement divider (Fig. 10 of the paper), as real
//! simulated hardware.
//!
//! The paper measures low jitter values indirectly: a counter inside the
//! chip toggles `osc_mes` every `n` rising edges of the ring output, so
//! one full `osc_mes` period spans `2n` ring periods, accumulating
//! enough jitter for the scope to resolve. `strent-analysis::divider`
//! implements the *math* of the method on period series; this module
//! implements the *circuit*, so the whole measurement chain — ring,
//! counter, scope statistics — runs inside the simulator exactly as it
//! ran on the authors' bench.

use strent_sim::{Bit, Component, ComponentId, Context, Event, NetId, Simulator};

use crate::error::RingError;

/// The counter component: toggles its output every `n` rising edges of
/// its input.
struct EdgeCounter {
    input: NetId,
    output: NetId,
    toggle_every: u64,
    seen: u64,
}

impl Component for EdgeCounter {
    fn on_event(&mut self, event: &Event, ctx: &mut Context<'_>) {
        if let Event::NetChanged { net, value } = *event {
            if net == self.input && value == Bit::High {
                self.seen += 1;
                if self.seen >= self.toggle_every {
                    self.seen = 0;
                    let current = ctx.net(self.output);
                    // An ideal counter: the flip-flop delay is constant,
                    // so it cancels out of every period difference; use
                    // zero for clarity.
                    ctx.schedule_net_uncancellable(self.output, !current, 0.0);
                }
            }
        }
    }
}

/// Handle to an instantiated divider.
#[derive(Debug, Clone, Copy)]
pub struct DividerHandle {
    input: NetId,
    output: NetId,
    component: ComponentId,
    n: u64,
}

impl DividerHandle {
    /// The ring net the counter listens on.
    #[must_use]
    pub fn input(&self) -> NetId {
        self.input
    }

    /// The `osc_mes` net (one full period = `2n` input periods).
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The counter component id.
    #[must_use]
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// The divider setting `n` of Eq. 6.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// Attaches a divide-by-`2n` counter to `input` (a ring output net) and
/// returns the `osc_mes` handle. The output net is watched
/// automatically.
///
/// # Errors
///
/// Returns [`RingError::InvalidConfig`] if `n == 0`, or propagates
/// simulator wiring errors.
pub fn build(
    sim: &mut Simulator,
    input: NetId,
    n: u64,
) -> Result<DividerHandle, RingError> {
    if n == 0 {
        return Err(RingError::InvalidConfig(
            "divider setting n must be at least 1".to_owned(),
        ));
    }
    let output = sim.add_net_with(format!("osc_mes_div{n}"), Bit::Low);
    let component = sim.add_component(EdgeCounter {
        input,
        output,
        toggle_every: n,
        seen: 0,
    });
    sim.listen(input, component)?;
    sim.watch(output)?;
    Ok(DividerHandle {
        input,
        output,
        component,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iro::{self, IroConfig};
    use strent_device::{Board, Technology};
    use strent_sim::{Edge, Time};

    fn run_with_divider(n: u64, horizon_ns: f64) -> (Vec<f64>, Vec<f64>) {
        let board = Board::new(Technology::cyclone_iii(), 0, 3);
        let mut sim = Simulator::new(17);
        let config = IroConfig::new(5).expect("valid length");
        let ring = iro::build(&config, &board, &mut sim).expect("wires");
        sim.watch(ring.output()).expect("net exists");
        let divider = build(&mut sim, ring.output(), n).expect("valid n");
        sim.run_until(Time::from_ns(horizon_ns));
        let osc = sim
            .trace(ring.output())
            .expect("watched")
            .periods(Edge::Rising);
        let mes = sim
            .trace(divider.output())
            .expect("watched")
            .periods(Edge::Rising);
        (osc, mes)
    }

    #[test]
    fn mes_period_is_sum_of_2n_osc_periods() {
        let n = 4;
        let (osc, mes) = run_with_divider(n, 2_000.0);
        assert!(mes.len() >= 10, "got {} mes periods", mes.len());
        // Each osc_mes period spans 2n osc rising edges. Align to the
        // divider's phase: the first toggle happens at osc edge n, the
        // first mes rising edge at edge 2n, the next at 4n...
        // Compare the MEAN periods instead of per-edge bookkeeping:
        // mean(T_mes) = 2n * mean(T_osc) exactly.
        let mean_osc = osc.iter().sum::<f64>() / osc.len() as f64;
        let mean_mes = mes.iter().sum::<f64>() / mes.len() as f64;
        assert!(
            (mean_mes / (2.0 * n as f64 * mean_osc) - 1.0).abs() < 1e-3,
            "mes {mean_mes} vs 2n*osc {}",
            2.0 * n as f64 * mean_osc
        );
    }

    #[test]
    fn hardware_divider_matches_offline_method() {
        let n = 8;
        let (osc, mes) = run_with_divider(n, 40_000.0);
        // Offline: Eq. 6 applied to the osc period series.
        let offline = strent_analysis::divider::measure(&osc, n as usize).expect("measures");
        // Hardware: Eq. 6 applied to the traced osc_mes periods.
        let diffs: Vec<f64> = mes.windows(2).map(|w| w[1] - w[0]).collect();
        let sigma_cc = strent_analysis::stats::std_dev(&diffs).expect("enough");
        let hardware_sigma_p = sigma_cc / (2.0 * (n as f64).sqrt());
        assert!(
            (hardware_sigma_p / offline.sigma_p_ps - 1.0).abs() < 0.15,
            "hardware {hardware_sigma_p} vs offline {}",
            offline.sigma_p_ps
        );
        // And both agree with the direct jitter (IRO periods are iid).
        let direct = strent_analysis::jitter::period_jitter(&osc).expect("enough");
        assert!(
            (hardware_sigma_p / direct - 1.0).abs() < 0.15,
            "hardware {hardware_sigma_p} vs direct {direct}"
        );
    }

    #[test]
    fn zero_n_is_rejected() {
        let mut sim = Simulator::new(1);
        let net = sim.add_net("osc");
        assert!(build(&mut sim, net, 0).is_err());
        let handle = build(&mut sim, net, 3).expect("valid");
        assert_eq!(handle.n(), 3);
    }
}
