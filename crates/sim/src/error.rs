//! Error type for the simulation engine.

use std::error::Error;
use std::fmt;

use crate::signal::NetId;
use crate::Time;

/// Errors reported by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A [`NetId`] did not belong to this simulator.
    UnknownNet(NetId),
    /// A component id did not belong to this simulator.
    UnknownComponent(usize),
    /// An event was scheduled before the current simulation time.
    ScheduleInPast {
        /// Current simulation time.
        now: Time,
        /// Requested (earlier) event time.
        requested: Time,
    },
    /// A delay was negative or non-finite.
    InvalidDelay(f64),
    /// A fault target named a net that does not exist in this
    /// simulator.
    UnknownNetName(String),
    /// A `FaultPlan` was malformed (invalid window, bad factor,
    /// stage index out of range, or supply faults handed to the
    /// engine instead of the device layer).
    InvalidFault(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNet(net) => write!(f, "unknown net {net}"),
            SimError::UnknownComponent(id) => write!(f, "unknown component #{id}"),
            SimError::ScheduleInPast { now, requested } => {
                write!(f, "event scheduled in the past ({requested} < now {now})")
            }
            SimError::InvalidDelay(d) => {
                write!(f, "delay must be finite and non-negative, got {d}")
            }
            SimError::UnknownNetName(name) => {
                write!(f, "fault targets unknown net {name:?}")
            }
            SimError::InvalidFault(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = SimError::UnknownNet(NetId(3));
        assert_eq!(err.to_string(), "unknown net net#3");
        let err = SimError::InvalidDelay(-1.0);
        assert!(err.to_string().contains("-1"));
        let err = SimError::ScheduleInPast {
            now: Time::from_ps(10.0),
            requested: Time::from_ps(5.0),
        };
        assert!(err.to_string().contains("past"));
        let err = SimError::UnknownComponent(2);
        assert!(err.to_string().contains("#2"));
        let err = SimError::UnknownNetName("str99".to_owned());
        assert!(err.to_string().contains("str99"));
        let err = SimError::InvalidFault("bad window".to_owned());
        assert!(err.to_string().contains("bad window"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimError>();
    }
}
