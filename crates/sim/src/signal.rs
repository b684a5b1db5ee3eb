//! Binary signal values, edges and net identifiers.

use std::fmt;
use std::ops::Not;

use serde::{Deserialize, Serialize};

/// A binary logic level.
///
/// The simulator models ideal digital nets: no `X`/`Z` states. Oscillator
/// studies only need resolved binary waveforms; metastability is modelled
/// statistically at the sampler level (in the TRNG crate), not as a third
/// logic state.
///
/// # Examples
///
/// ```
/// use strent_sim::Bit;
///
/// assert_eq!(!Bit::Low, Bit::High);
/// assert_eq!(Bit::from(true), Bit::High);
/// assert_eq!(u8::from(Bit::High), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum Bit {
    /// Logic 0.
    #[default]
    Low,
    /// Logic 1.
    High,
}

impl Bit {
    /// Returns `true` if the level is [`Bit::High`].
    #[must_use]
    pub fn is_high(self) -> bool {
        self == Bit::High
    }

    /// The edge that a transition *to* this level represents.
    #[must_use]
    pub fn arriving_edge(self) -> Edge {
        match self {
            Bit::Low => Edge::Falling,
            Bit::High => Edge::Rising,
        }
    }
}

impl Not for Bit {
    type Output = Bit;

    fn not(self) -> Bit {
        match self {
            Bit::Low => Bit::High,
            Bit::High => Bit::Low,
        }
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Self {
        if b {
            Bit::High
        } else {
            Bit::Low
        }
    }
}

impl From<Bit> for bool {
    fn from(bit: Bit) -> bool {
        bit.is_high()
    }
}

impl From<Bit> for u8 {
    fn from(bit: Bit) -> u8 {
        match bit {
            Bit::Low => 0,
            Bit::High => 1,
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Bit::Low => "0",
            Bit::High => "1",
        })
    }
}

/// A transition direction on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Edge {
    /// Low-to-high transition.
    Rising,
    /// High-to-low transition.
    Falling,
}

impl Edge {
    /// The level a net holds immediately after this edge.
    #[must_use]
    pub fn target_level(self) -> Bit {
        match self {
            Edge::Rising => Bit::High,
            Edge::Falling => Bit::Low,
        }
    }

    /// The opposite edge.
    #[must_use]
    pub fn opposite(self) -> Edge {
        match self {
            Edge::Rising => Edge::Falling,
            Edge::Falling => Edge::Rising,
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Edge::Rising => "rising",
            Edge::Falling => "falling",
        })
    }
}

/// Identifier of a net (a named wire) inside a [`Simulator`].
///
/// `NetId`s are handed out by [`Simulator::add_net`] and are only
/// meaningful within the simulator that created them.
///
/// [`Simulator`]: crate::Simulator
/// [`Simulator::add_net`]: crate::Simulator::add_net
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Returns the raw index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_not_is_involutive() {
        assert_eq!(!!Bit::Low, Bit::Low);
        assert_eq!(!!Bit::High, Bit::High);
    }

    #[test]
    fn bit_conversions() {
        assert_eq!(Bit::from(true), Bit::High);
        assert_eq!(Bit::from(false), Bit::Low);
        assert!(bool::from(Bit::High));
        assert_eq!(u8::from(Bit::Low), 0);
        assert_eq!(u8::from(Bit::High), 1);
    }

    #[test]
    fn edges_round_trip() {
        assert_eq!(Edge::Rising.target_level(), Bit::High);
        assert_eq!(Edge::Falling.target_level(), Bit::Low);
        assert_eq!(Bit::High.arriving_edge(), Edge::Rising);
        assert_eq!(Edge::Rising.opposite(), Edge::Falling);
        assert_eq!(Edge::Falling.opposite().opposite(), Edge::Falling);
    }

    #[test]
    fn default_bit_is_low() {
        assert_eq!(Bit::default(), Bit::Low);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Bit::High.to_string(), "1");
        assert_eq!(Edge::Falling.to_string(), "falling");
        assert_eq!(NetId(7).to_string(), "net#7");
    }
}
