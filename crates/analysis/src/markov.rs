//! Order-`k` Markov min-entropy estimation over delivered bitstreams.
//!
//! The counterpart of the analytical bound in [`crate::entropy`]: where
//! the bound predicts entropy from measured jitter, this module
//! *estimates* it from the bits themselves, in the style of the
//! SP 800-90B Markov estimator. A [`MarkovCounts`] accumulates order-`k`
//! transition counts (the last `k` bits are the state); the estimate is
//! the per-bit min-entropy of the most likely length-[`PATH_LENGTH`]
//! path through the chain, computed with *upper-confidence* transition
//! probabilities (a small-sample haircut: every probability is inflated
//! by its Wald interval before the path search, so thin data lowers the
//! estimate rather than inflating it).
//!
//! A finite-order chain cannot see structure longer than its memory, so
//! the estimate is generally *optimistic* for quasi-periodic sources —
//! the analytical bound stays the claimable number and this estimator
//! is the cross-check and the online health signal (see
//! `docs/entropy_estimation.md`).
//!
//! Feeding is streaming and chunk-invariant: splitting a stream across
//! any number of [`MarkovCounts::feed`] calls yields bit-identical
//! counts to feeding it whole.

use crate::error::AnalysisError;
use crate::special::normal_quantile;

/// Maximum supported chain order (states = `2^order`; the count table
/// is `2^(order+1)` wide, so 16 keeps it well under a megabyte).
pub const MAX_ORDER: usize = 16;

/// Length of the most-likely path whose probability is converted to a
/// per-bit min-entropy (the SP 800-90B Markov estimator uses 128).
pub const PATH_LENGTH: usize = 128;

/// Two-sided 99% confidence level used for the default haircut.
pub const DEFAULT_CONFIDENCE: f64 = 0.99;

/// Binary Shannon entropy of `p`: `-p log2 p - (1-p) log2 (1-p)`.
#[must_use]
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Streaming order-`k` transition counts over a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkovCounts {
    order: usize,
    /// `counts[(state << 1) | bit]`: times `bit` followed `state`.
    counts: Vec<u64>,
    /// The last `order` bits, as the next transition's state.
    context: usize,
    /// Bits consumed toward the initial context (saturates at `order`).
    primed: usize,
    /// Total transitions recorded.
    total: u64,
}

impl MarkovCounts {
    /// Creates an empty counter of the given order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] unless
    /// `1 <= order <= MAX_ORDER`.
    pub fn new(order: usize) -> Result<Self, AnalysisError> {
        if order == 0 || order > MAX_ORDER {
            return Err(AnalysisError::InvalidParameter {
                name: "order",
                constraint: "between 1 and MAX_ORDER",
            });
        }
        Ok(MarkovCounts {
            order,
            counts: vec![0; 1 << (order + 1)],
            context: 0,
            primed: 0,
            total: 0,
        })
    }

    /// The chain order `k`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total transitions observed so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.total
    }

    /// Transitions required before [`MarkovCounts::min_entropy`]
    /// answers: enough for every state to plausibly have been visited
    /// a handful of times.
    #[must_use]
    pub fn required(&self) -> u64 {
        (4_u64 << self.order).max(64)
    }

    /// Feeds a chunk of bits (any nonzero byte counts as a `1`). The
    /// first `order` bits of the whole stream prime the context and
    /// record no transition.
    pub fn feed(&mut self, bits: &[u8]) {
        let mask = (1usize << self.order) - 1;
        for &b in bits {
            let bit = usize::from(b != 0);
            if self.primed < self.order {
                self.context = ((self.context << 1) | bit) & mask;
                self.primed += 1;
                continue;
            }
            self.counts[(self.context << 1) | bit] += 1;
            self.total += 1;
            self.context = ((self.context << 1) | bit) & mask;
        }
    }

    /// The Shannon entropy rate `H(X_n | state)` (bits per bit): each
    /// state's [`binary_entropy`] of its next bit, weighted by how often
    /// the state occurred. Plug-in frequencies, no haircut.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InsufficientData`] before the first
    /// transition.
    pub fn shannon_rate(&self) -> Result<f64, AnalysisError> {
        if self.total == 0 {
            return Err(AnalysisError::InsufficientData { needed: 1, got: 0 });
        }
        let mut h = 0.0;
        for row in self.counts.chunks_exact(2) {
            let row_total = row[0] + row[1];
            if row_total == 0 {
                continue;
            }
            let p_state = row_total as f64 / self.total as f64;
            h += p_state * binary_entropy(row[1] as f64 / row_total as f64);
        }
        Ok(h)
    }

    /// The min-entropy estimate (bits per bit, in `[0, 1]`) at the
    /// default [`DEFAULT_CONFIDENCE`] haircut.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InsufficientData`] until
    /// [`MarkovCounts::required`] transitions have been observed —
    /// callers must treat that as "estimate unavailable", never as
    /// zero entropy.
    pub fn min_entropy(&self) -> Result<f64, AnalysisError> {
        self.min_entropy_at(DEFAULT_CONFIDENCE)
    }

    /// [`MarkovCounts::min_entropy`] at an explicit two-sided
    /// confidence level in `(0, 1)` (larger level = larger haircut =
    /// more conservative estimate).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InsufficientData`] when underfed and
    /// [`AnalysisError::InvalidParameter`] for a level outside `(0, 1)`.
    pub fn min_entropy_at(&self, confidence: f64) -> Result<f64, AnalysisError> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(AnalysisError::InvalidParameter {
                name: "confidence",
                constraint: "strictly between 0 and 1",
            });
        }
        let required = self.required();
        if self.total < required {
            return Err(AnalysisError::InsufficientData {
                needed: required as usize,
                got: self.total as usize,
            });
        }
        let z = normal_quantile(0.5 + confidence / 2.0);
        let states = 1usize << self.order;
        let mask = states - 1;
        // Upper-confidence log2 transition probabilities. Unvisited
        // states get probability-1 transitions: we know nothing about
        // them, and the haircut must never manufacture entropy.
        let mut log_up = vec![0.0f64; states << 1];
        for s in 0..states {
            let ones = self.counts[(s << 1) | 1];
            let zeros = self.counts[s << 1];
            let n = ones + zeros;
            for bit in 0..2usize {
                let idx = (s << 1) | bit;
                log_up[idx] = if n == 0 {
                    0.0
                } else {
                    let p = self.counts[idx] as f64 / n as f64;
                    let up = (p + z * (p * (1.0 - p) / n as f64).sqrt()).min(1.0);
                    if up <= 0.0 {
                        f64::NEG_INFINITY
                    } else {
                        up.log2().min(0.0)
                    }
                };
            }
        }
        // Upper-confidence initial distribution from state occupancy.
        let mut value = vec![f64::NEG_INFINITY; states];
        for (s, v) in value.iter_mut().enumerate() {
            let n = self.counts[s << 1] + self.counts[(s << 1) | 1];
            if n > 0 {
                let f = n as f64 / self.total as f64;
                let up = (f + z * (f * (1.0 - f) / self.total as f64).sqrt()).min(1.0);
                *v = up.log2().min(0.0);
            }
        }
        // Most likely path of PATH_LENGTH emitted bits, in log2 domain.
        let mut next = vec![f64::NEG_INFINITY; states];
        for _ in 0..PATH_LENGTH {
            for x in next.iter_mut() {
                *x = f64::NEG_INFINITY;
            }
            for s in 0..states {
                if value[s] == f64::NEG_INFINITY {
                    continue;
                }
                for bit in 0..2usize {
                    let cand = value[s] + log_up[(s << 1) | bit];
                    let dest = ((s << 1) | bit) & mask;
                    if cand > next[dest] {
                        next[dest] = cand;
                    }
                }
            }
            std::mem::swap(&mut value, &mut next);
        }
        let best = value.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if best == f64::NEG_INFINITY {
            // Cannot happen with total > 0, but never divide into it.
            return Ok(1.0);
        }
        Ok((-best / PATH_LENGTH as f64).clamp(0.0, 1.0))
    }
}

/// One-shot convenience: counts the whole stream and estimates.
///
/// # Errors
///
/// Returns [`AnalysisError::InsufficientData`] when the stream is
/// shorter than `order + 1` bits (no transition can even be formed) or
/// too short for a meaningful estimate, and
/// [`AnalysisError::InvalidParameter`] for an unsupported order.
pub fn markov_min_entropy(bits: &[u8], order: usize) -> Result<f64, AnalysisError> {
    let mut counts = MarkovCounts::new(order)?;
    if bits.len() < order + 1 {
        return Err(AnalysisError::InsufficientData {
            needed: order + 1,
            got: bits.len(),
        });
    }
    counts.feed(bits);
    counts.min_entropy()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alternating(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 2) as u8).collect()
    }

    /// A tiny deterministic LCG bit generator for test data.
    fn pseudo_random(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 60) & 1) as u8
            })
            .collect()
    }

    #[test]
    fn rejects_order_zero_and_huge_orders() {
        assert!(MarkovCounts::new(0).is_err());
        assert!(MarkovCounts::new(MAX_ORDER + 1).is_err());
    }

    #[test]
    fn binary_entropy_reference_points() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.11) - 0.4999).abs() < 0.001);
        assert!((binary_entropy(0.25) - binary_entropy(0.75)).abs() < 1e-12);
    }

    #[test]
    fn shannon_rate_matches_a_hand_counted_table() {
        // 0 0 1 1 0 1 0 0 1: transitions 0→0 ×2, 0→1 ×3, 1→1 ×1,
        // 1→0 ×2, so state 0 occurs 5 times in 8 and state 1 three.
        let mut counts = MarkovCounts::new(1).unwrap();
        assert!(matches!(
            counts.shannon_rate(),
            Err(AnalysisError::InsufficientData { .. })
        ));
        counts.feed(&[0, 0, 1, 1, 0, 1, 0, 0, 1]);
        let expected =
            5.0 / 8.0 * binary_entropy(3.0 / 5.0) + 3.0 / 8.0 * binary_entropy(1.0 / 3.0);
        assert_eq!(counts.shannon_rate().unwrap(), expected);
    }

    #[test]
    fn short_stream_is_insufficient_not_zero() {
        let err = markov_min_entropy(&[1, 0], 3).unwrap_err();
        assert_eq!(err, AnalysisError::InsufficientData { needed: 4, got: 2 });
        // Even past the priming length, thin data must refuse rather
        // than answer.
        let err = markov_min_entropy(&alternating(16), 3).unwrap_err();
        assert!(matches!(err, AnalysisError::InsufficientData { .. }));
    }

    #[test]
    fn stuck_and_periodic_streams_estimate_near_zero() {
        let stuck = vec![1u8; 4096];
        let h = markov_min_entropy(&stuck, 2).unwrap();
        assert!(h < 0.02, "stuck stream estimated {h}");
        let h = markov_min_entropy(&alternating(4096), 2).unwrap();
        assert!(h < 0.05, "alternating stream estimated {h}");
    }

    #[test]
    fn balanced_pseudo_random_estimates_high() {
        let bits = pseudo_random(32_768, 42);
        let h = markov_min_entropy(&bits, 2).unwrap();
        assert!(h > 0.85, "random-looking stream estimated only {h}");
        assert!(h <= 1.0);
    }

    #[test]
    fn haircut_is_monotone_in_confidence() {
        let bits = pseudo_random(4096, 7);
        let mut counts = MarkovCounts::new(2).unwrap();
        counts.feed(&bits);
        let loose = counts.min_entropy_at(0.5).unwrap();
        let tight = counts.min_entropy_at(0.999).unwrap();
        assert!(
            tight <= loose + 1e-12,
            "bigger haircut must not raise the estimate: {tight} vs {loose}"
        );
    }

    #[test]
    fn feeding_in_chunks_is_invariant() {
        let bits = pseudo_random(8192, 99);
        let mut whole = MarkovCounts::new(4).unwrap();
        whole.feed(&bits);
        let mut chunked = MarkovCounts::new(4).unwrap();
        for chunk in bits.chunks(17) {
            chunked.feed(chunk);
        }
        assert_eq!(whole, chunked);
        assert_eq!(
            whole.min_entropy().unwrap(),
            chunked.min_entropy().unwrap()
        );
    }

    #[test]
    fn biased_stream_sits_between_stuck_and_fair() {
        // 1 in 8 bits are ones: min-entropy around -log2(7/8) ~ 0.19.
        let bits: Vec<u8> = (0..16_384).map(|i| u8::from(i % 8 == 0)).collect();
        let h = markov_min_entropy(&bits, 1).unwrap();
        assert!(h > 0.01 && h < 0.4, "biased stream estimated {h}");
    }
}
