//! Error type for the ring models.

use std::error::Error;
use std::fmt;

use strent_sim::{Diagnostic, LintCode, SimError};

/// Errors reported by ring construction and measurement.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RingError {
    /// A ring configuration violated the oscillation conditions
    /// (Sec. II-C.2 of the paper: `L >= 3`, `NB >= 1`, `NT` even and
    /// positive for STRs; `L >= 1` for IROs).
    InvalidConfig(String),
    /// The ring stopped producing transitions (deadlock or dead config).
    NotOscillating {
        /// Transitions observed before the ring went quiet.
        observed_transitions: usize,
    },
    /// The simulation horizon was reached before enough periods were
    /// collected.
    HorizonExceeded {
        /// Periods collected so far.
        collected: usize,
        /// Periods requested.
        requested: usize,
    },
    /// An underlying simulator error.
    Sim(SimError),
    /// The pre-simulation static verifier rejected the netlist or
    /// configuration (see [`crate::lint`]).
    Lint(Vec<Diagnostic>),
    /// A statistical computation over measured series failed (the
    /// differential scenario runs lock-in detection and jitter
    /// measurements as part of the run).
    Analysis(strent_analysis::AnalysisError),
}

impl RingError {
    /// The `SL0xx` diagnostic view of this error: lint rejections carry
    /// their findings verbatim, and configuration rejections surface as
    /// an `SL010` diagnostic (so every typed validation failure has a
    /// stable machine-readable code).
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            RingError::Lint(diagnostics) => diagnostics.clone(),
            RingError::InvalidConfig(msg) => vec![Diagnostic::new(
                LintCode::InvalidRingConfig,
                "ring config",
                msg.clone(),
            )],
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::InvalidConfig(msg) => write!(f, "invalid ring configuration: {msg}"),
            RingError::NotOscillating {
                observed_transitions,
            } => write!(
                f,
                "ring stopped oscillating after {observed_transitions} transitions"
            ),
            RingError::HorizonExceeded {
                collected,
                requested,
            } => write!(
                f,
                "simulation horizon reached with {collected}/{requested} periods"
            ),
            RingError::Sim(e) => write!(f, "simulator error: {e}"),
            RingError::Lint(diagnostics) => {
                write!(
                    f,
                    "static verification failed with {} finding(s):",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, " {d};")?;
                }
                Ok(())
            }
            RingError::Analysis(e) => write!(f, "measurement analysis failed: {e}"),
        }
    }
}

impl Error for RingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RingError::Sim(e) => Some(e),
            RingError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<strent_analysis::AnalysisError> for RingError {
    fn from(e: strent_analysis::AnalysisError) -> Self {
        RingError::Analysis(e)
    }
}

impl From<SimError> for RingError {
    fn from(e: SimError) -> Self {
        RingError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RingError::InvalidConfig("NT must be even".into())
            .to_string()
            .contains("NT"));
        assert!(RingError::NotOscillating {
            observed_transitions: 4
        }
        .to_string()
        .contains('4'));
        assert!(RingError::HorizonExceeded {
            collected: 10,
            requested: 100
        }
        .to_string()
        .contains("10/100"));
        let wrapped = RingError::from(SimError::InvalidDelay(-1.0));
        assert!(wrapped.to_string().contains("simulator"));
        assert!(Error::source(&wrapped).is_some());
        let lint = RingError::Lint(vec![Diagnostic::new(
            LintCode::OrphanNet,
            "net 3",
            "dangling",
        )]);
        let text = lint.to_string();
        assert!(text.contains("1 finding"), "{text}");
        assert!(text.contains("SL001"), "{text}");
    }

    #[test]
    fn errors_surface_as_sl_diagnostics() {
        let invalid = RingError::InvalidConfig("NT must be even".into());
        let diags = invalid.diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::InvalidRingConfig);
        assert_eq!(diags[0].code.code(), "SL010");
        assert!(diags[0].message.contains("NT"));
        let lint = RingError::Lint(vec![Diagnostic::new(
            LintCode::DividerUnreachable,
            "divider(n=4)",
            "input is not a ring net",
        )]);
        assert_eq!(lint.diagnostics()[0].code.code(), "SL014");
        assert!(
            RingError::NotOscillating {
                observed_transitions: 0
            }
            .diagnostics()
            .is_empty(),
            "runtime failures are not static findings"
        );
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<RingError>();
    }
}
