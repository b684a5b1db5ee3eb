//! Typed static-verification diagnostics (the netlist half of
//! `simlint`).
//!
//! Every diagnostic carries a stable `SL0xx` code so experiment logs
//! and CI filters can refer to a check without parsing prose. Codes
//! are never reused (SL015, once a ring-net copy of SL003, stays
//! retired); `docs/static_analysis.md` is the catalog. The checks
//! themselves live in two places:
//!
//! * [`Simulator::lint_netlist`](crate::Simulator::lint_netlist) —
//!   structural checks any netlist can fail (orphan nets, unreachable
//!   components, fan-out spills);
//! * `strent_rings::lint` — ring-aware checks (token conservation,
//!   Eq. 1 burst-mode prediction, ring connectivity, divider
//!   reachability) that need the ring builders' vocabulary.
//!
//! The source-hygiene half (`SL1xx`, determinism and `unsafe` audits)
//! is the standalone `simlint` crate.

use std::fmt;

/// How serious a diagnostic is.
///
/// Warnings flag constructions that simulate correctly but deviate
/// from the paper's assumptions (e.g. a ring predicted to run in burst
/// mode); errors flag netlists whose results would be meaningless
/// (broken connectivity, conservation violations). The verified ring
/// build treats both as fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but simulatable.
    Warning,
    /// The netlist cannot produce a trustworthy result.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable codes for the netlist/config verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LintCode {
    /// `SL001`: a net with no listeners that is not watched — events
    /// driven onto it disappear without effect.
    OrphanNet,
    /// `SL002`: a component that subscribes to no net and has no armed
    /// bootstrap timer — it can never be dispatched.
    UnreachableComponent,
    /// `SL003`: a net whose fan-out exceeds the inline listener
    /// capacity, so dispatch leaves the zero-allocation fast path.
    SpilledFanout,
    /// `SL010`: a ring configuration violating the oscillation
    /// conditions (Sec. II-C.2: `L >= 3`, `NT` positive and even,
    /// `NB >= 1`).
    InvalidRingConfig,
    /// `SL011`: token/bubble accounting broken — the state's token
    /// count disagrees with the configuration, conservation fails
    /// under the propagation closure, or the ring deadlocks.
    TokenConservation,
    /// `SL012`: Eq. 1 predicts burst-mode propagation (weak Charlie
    /// effect relative to drafting, with a clustered layout or a
    /// token/bubble ratio far from `Dff/Drr`).
    BurstModePredicted,
    /// `SL013`: the built ring's listener graph is not the closed ring
    /// the builder guarantees (a stage misses a neighbour
    /// subscription).
    RingConnectivity,
    /// `SL014`: a measurement divider whose input is not a ring net or
    /// whose output is not watched — Eq. 6 would measure nothing.
    DividerUnreachable,
}

impl LintCode {
    /// The stable `SL0xx` code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::OrphanNet => "SL001",
            LintCode::UnreachableComponent => "SL002",
            LintCode::SpilledFanout => "SL003",
            LintCode::InvalidRingConfig => "SL010",
            LintCode::TokenConservation => "SL011",
            LintCode::BurstModePredicted => "SL012",
            LintCode::RingConnectivity => "SL013",
            LintCode::DividerUnreachable => "SL014",
        }
    }

    /// The severity this code carries by default.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::OrphanNet
            | LintCode::UnreachableComponent
            | LintCode::SpilledFanout
            | LintCode::BurstModePredicted => Severity::Warning,
            LintCode::InvalidRingConfig
            | LintCode::TokenConservation
            | LintCode::RingConnectivity
            | LintCode::DividerUnreachable => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: LintCode,
    /// The severity (the code's default unless a caller escalates).
    pub severity: Severity,
    /// What the finding is about (a net, component or config, named).
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: LintCode, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// The collected findings of one verification pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs all findings of another report.
    pub fn extend(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The findings, in discovery order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether no findings were recorded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding has [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is empty (alias of [`LintReport::is_clean`]
    /// for collection-like use).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether a finding with the given code is present.
    #[must_use]
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl FromIterator<Diagnostic> for LintReport {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Self {
        LintReport {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for LintReport {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            LintCode::OrphanNet,
            LintCode::UnreachableComponent,
            LintCode::SpilledFanout,
            LintCode::InvalidRingConfig,
            LintCode::TokenConservation,
            LintCode::BurstModePredicted,
            LintCode::RingConnectivity,
            LintCode::DividerUnreachable,
        ];
        let mut seen: Vec<&str> = all.iter().map(|c| c.code()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len(), "duplicate SL code");
        for code in all {
            assert!(code.code().starts_with("SL0"), "{code} range");
        }
    }

    #[test]
    fn report_accumulates_and_classifies() {
        let mut report = LintReport::new();
        assert!(report.is_clean());
        assert!(!report.has_errors());
        report.push(Diagnostic::new(LintCode::OrphanNet, "net 3", "dangling"));
        assert!(!report.is_clean());
        assert!(!report.has_errors(), "orphan net is a warning");
        let mut other = LintReport::new();
        other.push(Diagnostic::new(
            LintCode::RingConnectivity,
            "stage 2",
            "missing reverse subscription",
        ));
        report.extend(other);
        assert_eq!(report.len(), 2);
        assert!(report.has_errors());
        assert!(report.has_code(LintCode::OrphanNet));
        assert!(!report.has_code(LintCode::DividerUnreachable));
        let text = report.to_string();
        assert!(text.contains("SL001 warning [net 3]"));
        assert!(text.contains("SL013 error [stage 2]"));
    }
}
