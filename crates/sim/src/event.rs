//! Event payloads delivered to components.

use crate::signal::{Bit, NetId};

/// Opaque tag attached to timer events so a component can distinguish
/// several concurrent timers it has armed.
pub type TimerTag = u64;

/// An event delivered to a [`Component`].
///
/// [`Component`]: crate::Component
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A net this component listens to changed value.
    NetChanged {
        /// The net that changed.
        net: NetId,
        /// Its new level.
        value: Bit,
    },
    /// A timer armed by this component elapsed.
    Timer {
        /// The tag passed when the timer was armed.
        tag: TimerTag,
    },
}

/// Internal representation of a queued occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Occurrence {
    /// Drive `net` to `value`; fan-out listeners are then notified.
    DriveNet { net: NetId, value: Bit },
    /// Deliver `Event::Timer { tag }` to `component`.
    FireTimer { component: usize, tag: TimerTag },
    /// Apply fault action `action` (an index into the armed
    /// `FaultRuntime`'s action table): open or close a forcing window.
    /// Only ever queued while a fault plan is armed.
    FaultEdge { action: usize },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_compare() {
        let a = Event::NetChanged {
            net: NetId(1),
            value: Bit::High,
        };
        let b = Event::Timer { tag: 9 };
        assert_ne!(a, b);
        assert_eq!(b, Event::Timer { tag: 9 });
    }
}
