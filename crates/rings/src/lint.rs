//! Ring-aware static verification (the `SL01x` half of `simlint`).
//!
//! [`strent_sim::lint`] covers netlist-generic checks (orphan nets,
//! unreachable components, fan-out spills); this module adds the checks
//! that need the ring builders' vocabulary: oscillation conditions and
//! token conservation (Sec. II-C.2 of the paper), the Eq. 1
//! evenly-spaced vs. burst-mode prediction, ring connectivity of a
//! *built* netlist, measurement-divider reachability and the
//! uncancellable-fast-path fan-out budget.
//!
//! The verified build step ([`crate::RingConfig::build`]) runs these
//! checks on every ring it builds, honoring the process-wide
//! [`LintPolicy`]:
//! warn-by-default (diagnostics on stderr, simulation proceeds), deny
//! in CI (`STRENT_LINT=deny`, any finding aborts the run as
//! [`RingError::Lint`]), or silent.

use std::sync::atomic::{AtomicU8, Ordering};

use strent_device::Board;
use strent_sim::{Diagnostic, LintCode, LintReport, NetId, Simulator, INLINE_FANOUT};

use crate::analytic;
use crate::divider::DividerHandle;
use crate::error::RingError;
use crate::iro::{IroConfig, IroHandle};
use crate::mode::OscillationMode;
use crate::state::StrState;
use crate::str_ring::{StrConfig, StrHandle, TokenLayout};

/// What happens to diagnostics the pre-simulation verifier collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintPolicy {
    /// Print each finding to stderr and proceed (the default). Stdout
    /// is untouched, so `repro_all` output stays bit-identical.
    Warn,
    /// Abort the run with [`RingError::Lint`] on any finding — the CI
    /// mode.
    Deny,
    /// Discard findings (for callers that inspect reports themselves).
    Silent,
}

/// Sentinel: the policy atomic has not been initialized from the
/// environment yet.
const POLICY_UNSET: u8 = u8::MAX;

static POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);

/// Serializes the tests that set the process-wide policy, which the
/// test harness would otherwise run on parallel threads.
#[cfg(test)]
pub(crate) static POLICY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn policy_from_env() -> LintPolicy {
    match std::env::var("STRENT_LINT").as_deref() {
        Ok("deny") => LintPolicy::Deny,
        Ok("silent") | Ok("off") => LintPolicy::Silent,
        _ => LintPolicy::Warn,
    }
}

/// The process-wide policy, initialized from `STRENT_LINT`
/// (`deny`/`silent`/`warn`) on first use.
#[must_use]
pub fn policy() -> LintPolicy {
    match POLICY.load(Ordering::Relaxed) {
        0 => LintPolicy::Warn,
        1 => LintPolicy::Deny,
        2 => LintPolicy::Silent,
        _ => {
            let resolved = policy_from_env();
            set_policy(resolved);
            resolved
        }
    }
}

/// Overrides the process-wide policy (e.g. a test that builds a
/// deliberately broken netlist).
pub fn set_policy(policy: LintPolicy) {
    let raw = match policy {
        LintPolicy::Warn => 0,
        LintPolicy::Deny => 1,
        LintPolicy::Silent => 2,
    };
    POLICY.store(raw, Ordering::Relaxed);
}

/// Applies the current [`LintPolicy`] to a report: warn prints to
/// stderr, deny turns any finding into [`RingError::Lint`], silent
/// drops everything.
///
/// # Errors
///
/// Returns [`RingError::Lint`] under [`LintPolicy::Deny`] when the
/// report is not clean.
pub fn enforce(report: &LintReport) -> Result<(), RingError> {
    if report.is_clean() {
        return Ok(());
    }
    match policy() {
        LintPolicy::Silent => Ok(()),
        LintPolicy::Warn => {
            for d in report.diagnostics() {
                eprintln!("simlint: {d}");
            }
            Ok(())
        }
        LintPolicy::Deny => Err(RingError::Lint(report.diagnostics().to_vec())),
    }
}

/// Eq. 1 mode prediction: does this configuration oscillate
/// evenly-spaced, or is a burst regime expected?
///
/// The Charlie effect spaces events apart (the analog servo of
/// Sec. III); the drafting effect attracts them. A burst regime needs
/// drafting to win: it is only *possible* when the technology has a
/// drafting term at all and the Charlie magnitude does not dominate it.
/// Within that regime, a clustered token layout starts the ring inside
/// a burst, and a token/bubble ratio far from the `Dff/Drr` target of
/// Eq. 1 keeps events bunched even from a spread start.
#[must_use]
pub fn predicted_mode(config: &StrConfig, board: &Board) -> OscillationMode {
    let charlie_ps = config.charlie_ps(board);
    let drafting_ps = board.technology().drafting_delay_ps();
    if drafting_ps <= 0.0 || charlie_ps > drafting_ps {
        return OscillationMode::EvenlySpaced;
    }
    if config.layout() == TokenLayout::Clustered {
        return OscillationMode::Burst;
    }
    let (actual, target) = analytic::design_rule(config);
    let deviation = (actual / target).max(target / actual);
    if deviation > 1.5 {
        OscillationMode::Burst
    } else {
        OscillationMode::EvenlySpaced
    }
}

/// Verifies an STR state against the oscillation conditions (`SL010`)
/// and token/bubble accounting (`SL011`): the token count must match
/// `expected_tokens` when given, the ring must not deadlock, and the
/// count must be conserved under a deterministic propagation closure of
/// `2L` firings (always taking the lowest enabled stage — no RNG, so
/// the check never perturbs reproducibility).
#[must_use]
pub fn verify_state(state: &StrState, expected_tokens: Option<usize>, subject: &str) -> LintReport {
    let mut report = LintReport::new();
    if !state.satisfies_oscillation_conditions() {
        report.push(Diagnostic::new(
            LintCode::InvalidRingConfig,
            subject,
            format!(
                "oscillation conditions violated: L={}, NT={}, NB={} \
                 (need L >= 3, NT positive and even, NB >= 1)",
                state.len(),
                state.token_count(),
                state.bubble_count()
            ),
        ));
    }
    let expected = state.token_count();
    if let Some(want) = expected_tokens {
        if expected != want {
            report.push(Diagnostic::new(
                LintCode::TokenConservation,
                subject,
                format!("state holds {expected} tokens, configuration promised {want}"),
            ));
        }
    }
    let mut probe = state.clone();
    for step in 0..2 * probe.len() {
        let enabled = probe.enabled_stages();
        let Some(&stage) = enabled.first() else {
            report.push(Diagnostic::new(
                LintCode::TokenConservation,
                subject,
                format!("ring deadlocks after {step} firings: no stage is enabled"),
            ));
            break;
        };
        if probe.fire(stage).is_err() {
            report.push(Diagnostic::new(
                LintCode::TokenConservation,
                subject,
                format!("enabled stage {stage} refused to fire at step {step}"),
            ));
            break;
        }
        let now = probe.token_count();
        if now != expected {
            report.push(Diagnostic::new(
                LintCode::TokenConservation,
                subject,
                format!(
                    "token conservation violated at step {step}: {expected} -> {now}"
                ),
            ));
            break;
        }
    }
    report
}

/// Verifies an STR configuration before simulation: state checks
/// (`SL010`/`SL011`) plus the Eq. 1 burst-mode prediction (`SL012`).
#[must_use]
pub fn verify_str_config(config: &StrConfig, board: &Board) -> LintReport {
    let subject = format!(
        "StrConfig(L={}, NT={}, {:?})",
        config.length(),
        config.tokens(),
        config.layout()
    );
    let mut report = verify_state(&config.initial_state(), Some(config.tokens()), &subject);
    if predicted_mode(config, board) == OscillationMode::Burst {
        let (actual, target) = analytic::design_rule(config);
        report.push(Diagnostic::new(
            LintCode::BurstModePredicted,
            subject,
            format!(
                "Eq. 1 predicts burst-mode propagation: NT/NB = {actual:.3} vs \
                 Dff/Drr target {target:.3}, layout {:?}, Charlie {:.1} ps vs \
                 drafting {:.1} ps",
                config.layout(),
                config.charlie_ps(board),
                board.technology().drafting_delay_ps()
            ),
        ));
    }
    report
}

/// Checks one expected listener edge of a built ring, recording `SL013`
/// if it is missing.
fn expect_listener(
    sim: &Simulator,
    net: NetId,
    component: strent_sim::ComponentId,
    role: &str,
    subject: &str,
    report: &mut LintReport,
) {
    match sim.listeners(net) {
        Ok(listeners) if listeners.contains(&component) => {}
        Ok(_) => report.push(Diagnostic::new(
            LintCode::RingConnectivity,
            subject,
            format!("stage is not subscribed to its {role} net"),
        )),
        Err(_) => report.push(Diagnostic::new(
            LintCode::RingConnectivity,
            subject,
            format!("{role} net does not exist in the simulator"),
        )),
    }
}

/// Records `SL015` for ring nets whose fan-out spilled the inline
/// listener storage, costing the uncancellable fast path its
/// zero-allocation property.
fn check_fast_path(
    sim: &Simulator,
    nets: &[NetId],
    family: &str,
    report: &mut LintReport,
) {
    for (i, &net) in nets.iter().enumerate() {
        if let Ok(listeners) = sim.listeners(net) {
            if listeners.len() > INLINE_FANOUT {
                report.push(Diagnostic::new(
                    LintCode::FastPathIneligible,
                    format!("{family} stage {i} output"),
                    format!(
                        "fan-out {} exceeds the inline capacity {INLINE_FANOUT}; \
                         dispatch leaves the zero-allocation fast path",
                        listeners.len()
                    ),
                ));
            }
        }
    }
}

/// Verifies the listener graph of a built STR (`SL013`): stage `i` must
/// subscribe to its forward net `C[i-1]`, reverse net `C[i+1]` and its
/// own output `C[i]` — the closed ring of Fig. 2. Also audits the
/// fast-path fan-out budget (`SL015`).
#[must_use]
pub fn verify_built_str(sim: &Simulator, handle: &StrHandle) -> LintReport {
    let mut report = LintReport::new();
    let nets = handle.nets();
    let components = handle.components();
    let l = nets.len();
    if components.len() != l || l < 3 {
        report.push(Diagnostic::new(
            LintCode::RingConnectivity,
            "STR handle",
            format!("{l} nets vs {} stage components", components.len()),
        ));
        return report;
    }
    for (i, &component) in components.iter().enumerate() {
        let subject = format!("STR stage {i}");
        expect_listener(sim, nets[(i + l - 1) % l], component, "forward", &subject, &mut report);
        expect_listener(sim, nets[(i + 1) % l], component, "reverse", &subject, &mut report);
        expect_listener(sim, nets[i], component, "output", &subject, &mut report);
    }
    check_fast_path(sim, nets, "STR", &mut report);
    report
}

/// Verifies the listener graph of a built IRO (`SL013`): stage `i` must
/// subscribe to the previous stage's output — the single loop of
/// Fig. 1. Also audits the fast-path fan-out budget (`SL015`).
#[must_use]
pub fn verify_built_iro(
    sim: &Simulator,
    handle: &IroHandle,
    config: &IroConfig,
) -> LintReport {
    let mut report = LintReport::new();
    let nets = handle.nets();
    let components = handle.components();
    let l = config.length();
    if nets.len() != l || components.len() != l {
        report.push(Diagnostic::new(
            LintCode::RingConnectivity,
            "IRO handle",
            format!(
                "config length {l} vs {} nets / {} components",
                nets.len(),
                components.len()
            ),
        ));
        return report;
    }
    for (i, &component) in components.iter().enumerate() {
        let subject = format!("IRO stage {i}");
        expect_listener(sim, nets[(i + l - 1) % l], component, "input", &subject, &mut report);
    }
    check_fast_path(sim, nets, "IRO", &mut report);
    report
}

/// Verifies a measurement divider (`SL014`): its input must be one of
/// the ring's nets, the counter must be subscribed to it, and the
/// `osc_mes` output must be watched — otherwise Eq. 6 measures nothing.
#[must_use]
pub fn verify_divider(
    sim: &Simulator,
    divider: &DividerHandle,
    ring_nets: &[NetId],
) -> LintReport {
    let mut report = LintReport::new();
    let subject = format!("divider(n={})", divider.n());
    if !ring_nets.contains(&divider.input()) {
        report.push(Diagnostic::new(
            LintCode::DividerUnreachable,
            subject.clone(),
            "divider input is not a ring net".to_owned(),
        ));
    }
    match sim.listeners(divider.input()) {
        Ok(listeners) if listeners.contains(&divider.component()) => {}
        _ => report.push(Diagnostic::new(
            LintCode::DividerUnreachable,
            subject.clone(),
            "counter is not subscribed to its input net".to_owned(),
        )),
    }
    if sim.trace(divider.output()).is_none() {
        report.push(Diagnostic::new(
            LintCode::DividerUnreachable,
            subject,
            "osc_mes output net is not watched".to_owned(),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{divider, iro, str_ring};
    use strent_device::Technology;
    use strent_sim::Bit;

    fn fpga_board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 7)
    }

    fn asic_board() -> Board {
        Board::new(Technology::asic_like(), 0, 7)
    }

    #[test]
    fn clean_config_produces_clean_report() {
        let config = StrConfig::new(16, 8).expect("valid");
        let report = verify_str_config(&config, &fpga_board());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn deadlocked_state_fires_token_conservation() {
        // Alternating outputs: every stage holds a token, no bubble —
        // nothing can ever fire.
        let outputs: Vec<Bit> = (0..6)
            .map(|i| if i % 2 == 0 { Bit::Low } else { Bit::High })
            .collect();
        let state = StrState::from_outputs(outputs).expect("length ok");
        let report = verify_state(&state, None, "fixture");
        assert!(report.has_code(LintCode::InvalidRingConfig), "{report}");
        assert!(report.has_code(LintCode::TokenConservation), "{report}");
    }

    #[test]
    fn token_count_mismatch_fires_sl011() {
        let state = StrState::with_spread_tokens(12, 4).expect("valid");
        let report = verify_state(&state, Some(6), "fixture");
        assert!(report.has_code(LintCode::TokenConservation), "{report}");
        assert!(
            report.diagnostics()[0].message.contains("4 tokens"),
            "{report}"
        );
    }

    #[test]
    fn burst_prediction_fires_for_clustered_asic_ring() {
        // The ext_mode setup: weak Charlie, strong drafting, clustered
        // tokens — the canonical burst provocation (paper Fig. 5 right).
        let config = StrConfig::new(16, 6)
            .expect("valid")
            .with_layout(TokenLayout::Clustered);
        let report = verify_str_config(&config, &asic_board());
        assert!(report.has_code(LintCode::BurstModePredicted), "{report}");
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::BurstModePredicted)
            .expect("present");
        assert!(diag.message.contains("Eq. 1"), "{}", diag.message);
    }

    #[test]
    fn burst_prediction_spares_fpga_rings() {
        // Cyclone III has no drafting term: the Charlie servo always
        // wins, whatever the layout (the paper never saw burst on the
        // FPGA with NT=NB).
        let clustered = StrConfig::new(16, 6)
            .expect("valid")
            .with_layout(TokenLayout::Clustered);
        assert_eq!(
            predicted_mode(&clustered, &fpga_board()),
            OscillationMode::EvenlySpaced
        );
        // And a balanced spread ring is evenly spaced even on the ASIC
        // profile.
        let balanced = StrConfig::new(16, 8).expect("valid");
        assert_eq!(
            predicted_mode(&balanced, &asic_board()),
            OscillationMode::EvenlySpaced
        );
    }

    #[test]
    fn unbalanced_spread_ring_predicts_burst_under_drafting() {
        // Spread layout but NT/NB far from the Eq. 1 target: still
        // burst-prone when drafting dominates.
        let config = StrConfig::new(16, 4).expect("valid");
        assert_eq!(
            predicted_mode(&config, &asic_board()),
            OscillationMode::Burst
        );
    }

    #[test]
    fn built_str_passes_wiring_check() {
        let mut sim = Simulator::new(5);
        let config = StrConfig::new(8, 4).expect("valid");
        let handle = str_ring::build(&config, &fpga_board(), &mut sim).expect("wires");
        let report = verify_built_str(&sim, &handle);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn broken_wiring_fires_ring_connectivity() {
        // Hand-build a "ring" that misses the reverse subscriptions:
        // the verifier must notice even though each net has listeners.
        let mut sim = Simulator::new(5);
        let config = StrConfig::new(8, 4).expect("valid");
        let good = str_ring::build(&config, &fpga_board(), &mut sim).expect("wires");
        // Forge a handle claiming stage order is rotated by one: every
        // stage then appears subscribed to the wrong nets.
        let mut rotated = good.components().to_vec();
        rotated.rotate_left(1);
        let forged = StrHandle::from_parts(good.nets().to_vec(), rotated);
        let report = verify_built_str(&sim, &forged);
        assert!(report.has_code(LintCode::RingConnectivity), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn oversubscribed_ring_net_fires_fast_path_warning() {
        // A well-formed ring keeps every net at fan-out 3 (forward,
        // reverse, own stage) — inside the inline budget. Attaching two
        // dividers to one ring net pushes it to 5 > INLINE_FANOUT and
        // the uncancellable fast path degrades to spill storage there.
        let mut sim = Simulator::new(5);
        let config = StrConfig::new(8, 4).expect("valid");
        let handle = str_ring::build(&config, &fpga_board(), &mut sim).expect("wires");
        let tap = handle.nets()[0];
        divider::build(&mut sim, tap, 4).expect("valid");
        divider::build(&mut sim, tap, 16).expect("valid");
        let report = verify_built_str(&sim, &handle);
        assert!(report.has_code(LintCode::FastPathIneligible), "{report}");
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == LintCode::FastPathIneligible)
            .expect("present");
        assert_eq!(diag.severity, strent_sim::Severity::Warning);
        assert!(!report.has_errors(), "SL015 alone must not be fatal");
    }

    #[test]
    fn built_iro_passes_wiring_check() {
        let mut sim = Simulator::new(5);
        let config = IroConfig::new(5).expect("valid");
        let handle = iro::build(&config, &fpga_board(), &mut sim).expect("wires");
        let report = verify_built_iro(&sim, &handle, &config);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn divider_on_ring_output_is_reachable() {
        let mut sim = Simulator::new(5);
        let config = IroConfig::new(5).expect("valid");
        let ring = iro::build(&config, &fpga_board(), &mut sim).expect("wires");
        let div = divider::build(&mut sim, ring.output(), 4).expect("valid");
        let report = verify_divider(&sim, &div, ring.nets());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn divider_on_foreign_net_fires_sl014() {
        let mut sim = Simulator::new(5);
        let config = IroConfig::new(5).expect("valid");
        let ring = iro::build(&config, &fpga_board(), &mut sim).expect("wires");
        let stray = sim.add_net("not_a_ring_net");
        let div = divider::build(&mut sim, stray, 4).expect("valid");
        let report = verify_divider(&sim, &div, ring.nets());
        assert!(report.has_code(LintCode::DividerUnreachable), "{report}");
    }

    #[test]
    fn enforce_deny_surfaces_ring_error() {
        let _serial = POLICY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let saved = policy();
        set_policy(LintPolicy::Deny);
        let mut report = LintReport::new();
        assert!(enforce(&report).is_ok(), "clean report passes deny");
        report.push(Diagnostic::new(
            LintCode::OrphanNet,
            "net 0",
            "dangling",
        ));
        let err = enforce(&report).expect_err("deny rejects findings");
        match &err {
            RingError::Lint(diags) => assert_eq!(diags.len(), 1),
            other => panic!("expected Lint error, got {other:?}"),
        }
        assert!(err.to_string().contains("SL001"), "{err}");
        set_policy(LintPolicy::Silent);
        assert!(enforce(&report).is_ok(), "silent swallows findings");
        set_policy(saved);
    }
}
