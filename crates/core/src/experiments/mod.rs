//! The experiment layer: one module per table/figure of the paper.
//!
//! Every module exposes a `run(effort, seed) -> Result<...Result>`
//! function whose result type implements `Display`, printing the same
//! rows/series the paper reports. `Effort::Quick` keeps runs small
//! enough for the test suite; `Effort::Full` is what the `repro_*`
//! binaries and `EXPERIMENTS.md` use.

pub mod degradation;
pub mod ext_charlie;
pub mod ext_coherent;
pub mod ext_det;
pub mod ext_entropy;
pub mod ext_flicker;
pub mod ext_method;
pub mod ext_mode;
pub mod ext_multi;
pub mod ext_restart;
pub mod ext_trng;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs_a;
pub mod runner;
pub mod table1;
pub mod table2;

use std::error::Error;
use std::fmt;

use strent_analysis::AnalysisError;
use strent_rings::RingError;
use strent_trng::TrngError;

/// How much simulation to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Reduced sizes: seconds-scale, used by tests and smoke runs. The
    /// *shapes* still hold; statistical error bars are wider.
    Quick,
    /// Paper-scale sizes, used by the `repro_*` binaries.
    #[default]
    Full,
}

impl Effort {
    /// Picks a size: `quick` under [`Effort::Quick`], `full` otherwise.
    #[must_use]
    pub fn size(self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

/// Errors reported by the experiment layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A ring simulation failed.
    Ring(RingError),
    /// A statistical computation failed.
    Analysis(AnalysisError),
    /// A TRNG computation failed.
    Trng(TrngError),
    /// A stage job ended without a result or an error of its own: it
    /// panicked, and the sweep caught the unwind (or, under a watchdog
    /// budget, it stalled).
    JobAborted {
        /// The stage label passed to `ExperimentRunner::run_stage`.
        stage: String,
        /// The job's position in the stage's config list.
        index: usize,
        /// The job's seed, enough to replay it alone.
        seed: u64,
        /// How it ended: `"panicked"` or `"stalled"`.
        kind: &'static str,
        /// The panic text, or the exhausted budget.
        detail: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Ring(e) => write!(f, "ring simulation failed: {e}"),
            ExperimentError::Analysis(e) => write!(f, "analysis failed: {e}"),
            ExperimentError::Trng(e) => write!(f, "trng evaluation failed: {e}"),
            ExperimentError::JobAborted {
                stage,
                index,
                seed,
                kind,
                detail,
            } => write!(
                f,
                "stage {stage} job {index} (seed {seed}) {kind}: {detail}"
            ),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Ring(e) => Some(e),
            ExperimentError::Analysis(e) => Some(e),
            ExperimentError::Trng(e) => Some(e),
            ExperimentError::JobAborted { .. } => None,
        }
    }
}

impl From<RingError> for ExperimentError {
    fn from(e: RingError) -> Self {
        ExperimentError::Ring(e)
    }
}

impl From<strent_sim::SimError> for ExperimentError {
    /// Engine errors surface through the ring layer's wrapper, so a
    /// `FaultPlan` builder failing inside an experiment job carries the
    /// same shape as one failing inside a ring runner.
    fn from(e: strent_sim::SimError) -> Self {
        ExperimentError::Ring(RingError::Sim(e))
    }
}

impl From<AnalysisError> for ExperimentError {
    fn from(e: AnalysisError) -> Self {
        ExperimentError::Analysis(e)
    }
}

impl From<TrngError> for ExperimentError {
    fn from(e: TrngError) -> Self {
        ExperimentError::Trng(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_sizes() {
        assert_eq!(Effort::Quick.size(10, 1000), 10);
        assert_eq!(Effort::Full.size(10, 1000), 1000);
        assert_eq!(Effort::default(), Effort::Full);
    }

    #[test]
    fn error_conversions_and_display() {
        let e = ExperimentError::from(RingError::InvalidConfig("x".into()));
        assert!(e.to_string().contains("ring"));
        assert!(e.source().is_some());
        let e = ExperimentError::from(AnalysisError::NonFiniteData);
        assert!(e.to_string().contains("analysis"));
        let e = ExperimentError::from(TrngError::NotEnoughBits { needed: 1, got: 0 });
        assert!(e.to_string().contains("trng"));
        let e = ExperimentError::JobAborted {
            stage: "fig8".to_owned(),
            index: 3,
            seed: 99,
            kind: "panicked",
            detail: "boom".to_owned(),
        };
        assert_eq!(e.to_string(), "stage fig8 job 3 (seed 99) panicked: boom");
        assert!(e.source().is_none());
    }
}
