//! Online entropy-rate estimation of the served stream, per pool slot.
//!
//! Every [`PooledSource`](crate::source::PooledSource) owns a
//! [`RateEstimator`]: a sliding window over the *delivered* conditioned
//! bits (exactly what consumers receive — never discarded or
//! quarantined bits) re-scored with the order-`k` Markov min-entropy
//! estimator from `strent_analysis::markov` after each batch. The
//! resulting [`EntropyEstimate`] rides on every
//! [`PoolChunk`](crate::pool::PoolChunk) and
//! [`SourceStatus`](crate::pool::SourceStatus), which keeps the whole
//! path a pure function of the delivered stream: the estimate — and
//! everything scheduled from it, like the pool's weighted consumption
//! policy — is worker-count and shard-count invariant by construction.
//!
//! ## The `InsufficientData` contract
//!
//! An underfed window is *estimate unavailable*, never zero entropy:
//! `MarkovCounts::min_entropy` returns the typed
//! `AnalysisError::InsufficientData` until the window holds enough
//! transitions, and [`RateEstimator::entropy_rate`] maps that case to
//! `None`. Consumers (the pool's demotion logic, the stats gauges) must
//! treat `None` as "no verdict yet" — demoting a source for having
//! served too few bytes would punish startup, not low entropy. Simlint
//! rule SL112 audits every serving-layer call site of the estimator for
//! exactly this handling.

use std::collections::VecDeque;

use strent_analysis::markov::MarkovCounts;
use strent_analysis::AnalysisError;
use strentropy::pool::EntropyEstimate;

use crate::error::ServeError;

/// A sliding window of delivered bits with an on-demand Markov
/// min-entropy estimate.
///
/// The window holds the most recent `window_bits` delivered bits; the
/// estimate is rebuilt from scratch on each call (transition counts
/// cannot be decremented when a bit slides out, and the window is small
/// enough that a rebuild is microseconds of work).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    order: usize,
    window_bits: usize,
    /// Newest bit at the back; one bit per entry.
    window: VecDeque<u8>,
}

impl RateEstimator {
    /// Creates an estimator of the given Markov order over a window of
    /// `window_bits` delivered bits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an order outside the estimator's
    /// supported range or a window too small to ever yield an estimate
    /// (the same bounds `PoolConfig::validate` enforces).
    pub fn new(order: usize, window_bits: usize) -> Result<Self, ServeError> {
        let probe = MarkovCounts::new(order).map_err(|e| ServeError::Config(e.into()))?;
        // Required transitions plus the `order` priming bits: a window
        // any smaller could never produce a verdict.
        #[allow(clippy::cast_possible_truncation)]
        let required = probe.required() as usize + order;
        if window_bits < required {
            return Err(ServeError::Config(AnalysisError::InsufficientData {
                needed: required,
                got: window_bits,
            }
            .into()));
        }
        Ok(RateEstimator {
            order,
            window_bits,
            window: VecDeque::with_capacity(window_bits),
        })
    }

    /// The Markov order `k`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// The configured window size, in bits.
    #[must_use]
    pub fn window_bits(&self) -> usize {
        self.window_bits
    }

    /// Delivered bits currently held (saturates at the window size).
    #[must_use]
    pub fn observed_bits(&self) -> usize {
        self.window.len()
    }

    /// Slides one delivered bit into the window (any nonzero byte is a
    /// `1`), evicting the oldest bit once the window is full.
    pub fn feed_bit(&mut self, bit: u8) {
        if self.window.len() == self.window_bits {
            self.window.pop_front();
        }
        self.window.push_back(u8::from(bit != 0));
    }

    /// Slides a chunk of delivered *bytes* into the window, MSB first —
    /// the packing order `BitString::pack` uses, so feeding the pool's
    /// served bytes reproduces the served bit order exactly.
    pub fn feed_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            for shift in (0..8).rev() {
                self.feed_bit((byte >> shift) & 1);
            }
        }
    }

    /// Discards the window (a replaced ring starts a new stream; stale
    /// bits would blend two generations into one estimate).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// The current min-entropy estimate of the windowed stream, or
    /// `None` while the window is still too short for a verdict.
    ///
    /// The window is fed to the counter as one contiguous stream, so
    /// the estimate is invariant to how the delivered bytes were
    /// chunked into batches.
    #[must_use]
    pub fn entropy_rate(&self) -> Option<EntropyEstimate> {
        let mut counts = MarkovCounts::new(self.order).ok()?;
        let (front, back) = self.window.as_slices();
        counts.feed(front);
        counts.feed(back);
        // InsufficientData means "no verdict yet", never zero entropy;
        // any other failure (impossible for a validated order) also
        // withholds the estimate rather than inventing one.
        match counts.min_entropy() {
            Ok(h) => Some(EntropyEstimate::from_bits_per_bit(h)),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_sim::{RngTree, SimRng};

    fn coin_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng: SimRng = RngTree::new(seed).stream(0xC0);
        (0..n).map(|_| u8::from(rng.uniform() < 0.5)).collect()
    }

    #[test]
    fn rejects_bad_order_and_thin_windows() {
        assert!(RateEstimator::new(0, 4096).is_err());
        assert!(RateEstimator::new(2, 8).is_err());
        assert!(RateEstimator::new(2, 4096).is_ok());
    }

    #[test]
    fn underfed_window_withholds_the_estimate() {
        let mut est = RateEstimator::new(2, 256).expect("valid");
        assert_eq!(est.entropy_rate(), None, "empty window");
        est.feed_bytes(&[0xA5; 2]);
        // 16 bits < the 64 transitions an order-2 chain requires.
        assert_eq!(est.entropy_rate(), None, "short window");
        assert_eq!(est.observed_bits(), 16);
    }

    #[test]
    fn window_slides_and_estimate_is_chunking_invariant() {
        let bits = coin_bits(2_048, 7);
        let mut whole = RateEstimator::new(2, 512).expect("valid");
        for &b in &bits {
            whole.feed_bit(b);
        }
        assert_eq!(whole.observed_bits(), 512, "window saturates");
        let mut chunked = RateEstimator::new(2, 512).expect("valid");
        for chunk in bits.chunks(37) {
            for &b in chunk {
                chunked.feed_bit(b);
            }
        }
        let (a, b) = (whole.entropy_rate(), chunked.entropy_rate());
        assert!(a.is_some());
        assert_eq!(a, b, "estimate depends only on the windowed stream");
    }

    #[test]
    fn byte_feed_matches_msb_first_bit_feed() {
        let mut by_bytes = RateEstimator::new(1, 128).expect("valid");
        by_bytes.feed_bytes(&[0b1010_0110, 0xFF]);
        let mut by_bits = RateEstimator::new(1, 128).expect("valid");
        for b in [1, 0, 1, 0, 0, 1, 1, 0] {
            by_bits.feed_bit(b);
        }
        for _ in 0..8 {
            by_bits.feed_bit(1);
        }
        assert_eq!(by_bytes.observed_bits(), by_bits.observed_bits());
        assert_eq!(by_bytes.entropy_rate(), by_bits.entropy_rate());
    }

    #[test]
    fn balanced_stream_scores_high_and_stuck_stream_scores_zero() {
        let mut fair = RateEstimator::new(2, 2_048).expect("valid");
        for &b in &coin_bits(2_048, 11) {
            fair.feed_bit(b);
        }
        let h = fair.entropy_rate().expect("verdict").bits_per_bit();
        assert!(h > 0.6, "coin-flip stream scored {h}");

        let mut stuck = RateEstimator::new(2, 2_048).expect("valid");
        stuck.feed_bytes(&[0u8; 256]);
        let h = stuck.entropy_rate().expect("verdict").bits_per_bit();
        assert!(h < 0.01, "stuck stream scored {h}");
        stuck.reset();
        assert_eq!(stuck.observed_bits(), 0);
        assert_eq!(stuck.entropy_rate(), None, "reset clears the verdict");
    }
}
