//! The one ring type and its verified build.
//!
//! [`RingConfig`] names the oscillator a run simulates, and
//! [`RingConfig::build`] is the step every ring simulation goes
//! through: it builds the netlist and runs the static checks the ring
//! admits through [`lint::enforce`] before any event fires. The
//! runners of this crate ([`crate::measure`], [`crate::fault`],
//! [`crate::stream`], [`crate::differential`]) and the TRNGs of
//! `strent-trng` all build through it, so verification holds for every
//! simulated ring by construction. The raw builders
//! ([`str_ring::build`], [`iro::build`]) stay public for tests and the
//! engine benchmarks.

use strent_device::Board;
use strent_sim::{ComponentId, LintCode, NetId, Simulator};

use crate::analytic;
use crate::error::RingError;
use crate::iro::{self, IroConfig};
use crate::lint;
use crate::str_ring::{self, StrConfig};

/// Which ring family a run simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum RingConfig {
    /// A self-timed ring.
    Str(StrConfig),
    /// An inverter ring oscillator.
    Iro(IroConfig),
}

/// A ring built and verified by [`RingConfig::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingHandle {
    output: NetId,
    nets: Vec<NetId>,
    components: Vec<ComponentId>,
}

impl RingHandle {
    /// The net measurements observe: stage 0 of an STR, the last stage
    /// of an IRO.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The stage output nets, in stage order.
    #[must_use]
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// The stage components, in stage order (what fault plans arm).
    #[must_use]
    pub fn components(&self) -> &[ComponentId] {
        &self.components
    }
}

impl RingConfig {
    /// The analytic period prediction on `board`, ps. For an STR this
    /// is the general closure formula, which stays accurate for
    /// `NT != NB`, where the balanced formula can underestimate the
    /// period several-fold.
    #[must_use]
    pub fn predicted_period_ps(&self, board: &Board) -> f64 {
        match self {
            RingConfig::Str(c) => analytic::str_period_general_ps(c, board),
            RingConfig::Iro(c) => analytic::iro_period_ps(c, board),
        }
    }

    /// Builds the ring into `sim` and verifies it: the netlist checks,
    /// the built-ring wiring checks and, for an STR, the configuration
    /// checks (the SL010/SL011 state checks and SL012, Eq. 1's
    /// burst-mode prediction) all go through [`lint::enforce`].
    ///
    /// `burst_excused` drops SL012 where burst operation is the
    /// experiment (mode diagnosis, fault campaigns); every other
    /// finding still applies. Nothing is watched: each runner watches
    /// the nets it reads, with the trace reservation it needs.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration, a simulator
    /// fault, or a static-verification rejection.
    pub fn build(
        &self,
        board: &Board,
        sim: &mut Simulator,
        burst_excused: bool,
    ) -> Result<RingHandle, RingError> {
        let (output, nets, components, checks) = match self {
            RingConfig::Str(c) => {
                let built = str_ring::build(c, board, sim)?;
                let mut checks = lint::verify_built_str(sim, &built);
                checks.extend(
                    lint::verify_str_config(c, board)
                        .into_iter()
                        .filter(|d| !(burst_excused && d.code == LintCode::BurstModePredicted))
                        .collect(),
                );
                let (nets, components) = (built.nets().to_vec(), built.components().to_vec());
                (built.output(), nets, components, checks)
            }
            RingConfig::Iro(c) => {
                let built = iro::build(c, board, sim)?;
                let checks = lint::verify_built_iro(sim, &built, c);
                let (nets, components) = (built.nets().to_vec(), built.components().to_vec());
                (built.output(), nets, components, checks)
            }
        };
        let mut report = sim.lint_netlist();
        report.extend(checks);
        lint::enforce(&report)?;
        Ok(RingHandle {
            output,
            nets,
            components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::run_degraded;
    use crate::measure::{self, run_str_full};
    use crate::mode::OscillationMode;
    use crate::str_ring::TokenLayout;
    use crate::stream::RingStream;
    use strent_device::Technology;
    use strent_sim::FaultPlan;

    /// EXT-MODE's clustered STR-16/6 at Dcharlie 0 and drafting 5 ps,
    /// which Eq. 1 predicts to run in burst mode.
    fn burst_ring() -> (StrConfig, Board) {
        let tech = Technology::asic_like()
            .with_sigma_intra(0.0)
            .with_sigma_inter(0.0)
            .with_charlie_delay_ps(0.0)
            .with_drafting_delay_ps(5.0);
        let config = StrConfig::new(16, 6)
            .expect("valid counts")
            .with_layout(TokenLayout::Clustered);
        (config, Board::new(tech, 0, 2012))
    }

    fn names_sl012<T: std::fmt::Debug>(result: &Result<T, RingError>) -> bool {
        matches!(result, Err(RingError::Lint(diags))
            if diags.iter().any(|d| d.code == LintCode::BurstModePredicted))
    }

    #[test]
    fn sl012_is_excused_only_where_burst_is_the_experiment() {
        let (config, board) = burst_ring();
        assert_eq!(
            lint::predicted_mode(&config, &board),
            OscillationMode::Burst
        );
        let ring = RingConfig::Str(config.clone());
        let plan = FaultPlan::new(1);
        let measured = measure::run(&ring, &board, 1, 100);
        let stream = RingStream::build(&ring, &board, 1, None);
        let full = run_str_full(&config, &board, 1, 100);
        let degraded = run_degraded(&ring, &board, 1, 50_000.0, &plan);
        let armed_stream = RingStream::build(&ring, &board, 1, Some(&plan));
        assert!(names_sl012(&measured), "{measured:?}");
        assert!(names_sl012(&stream), "{stream:?}");
        assert!(full.is_ok(), "{:?}", full.err());
        assert!(degraded.is_ok(), "{:?}", degraded.err());
        assert!(armed_stream.is_ok(), "{:?}", armed_stream.err());
    }
}
