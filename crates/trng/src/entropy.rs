//! Entropy estimators for binary sequences.

use crate::bits::BitString;
use crate::error::TrngError;
use strent_analysis::markov::MarkovCounts;

pub use strent_analysis::markov::binary_entropy;

fn require_bits(bits: &BitString, needed: usize) -> Result<(), TrngError> {
    if bits.len() < needed {
        return Err(TrngError::NotEnoughBits {
            needed,
            got: bits.len(),
        });
    }
    Ok(())
}

/// The bias of a bit stream: `P(1) - 1/2`.
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] for an empty stream.
pub fn bias(bits: &BitString) -> Result<f64, TrngError> {
    require_bits(bits, 1)?;
    Ok(bits.count_ones() as f64 / bits.len() as f64 - 0.5)
}

/// Per-bit Shannon entropy estimated from the symbol frequencies
/// (an upper bound on the true entropy rate — correlations only lower
/// it; combine with [`markov_entropy`]).
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] for fewer than 100 bits.
pub fn shannon_bit_entropy(bits: &BitString) -> Result<f64, TrngError> {
    require_bits(bits, 100)?;
    let p = bits.count_ones() as f64 / bits.len() as f64;
    Ok(binary_entropy(p))
}

/// Per-bit min-entropy from the most probable symbol:
/// `-log2 max(p, 1-p)`.
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] for fewer than 100 bits.
pub fn min_entropy(bits: &BitString) -> Result<f64, TrngError> {
    require_bits(bits, 100)?;
    let p = bits.count_ones() as f64 / bits.len() as f64;
    Ok(-p.max(1.0 - p).log2())
}

/// First-order Markov entropy rate: the conditional entropy
/// `H(X_n | X_{n-1})` estimated from transition frequencies
/// ([`MarkovCounts::shannon_rate`] of order 1). Catches the serial
/// correlation that plain symbol frequencies miss.
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] for fewer than 101 bits.
pub fn markov_entropy(bits: &BitString) -> Result<f64, TrngError> {
    require_bits(bits, 101)?;
    let mut counts = MarkovCounts::new(1)?;
    counts.feed(bits.as_slice());
    Ok(counts.shannon_rate()?)
}

/// Per-bit collision (Rényi order-2) entropy: `-log2 (p^2 + (1-p)^2)`.
///
/// Sits between min-entropy and Shannon entropy
/// (`H_min <= H_2 <= H_1`), and is the quantity SP 800-90B-style
/// collision estimators target.
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] for fewer than 100 bits.
pub fn collision_entropy(bits: &BitString) -> Result<f64, TrngError> {
    require_bits(bits, 100)?;
    let p = bits.count_ones() as f64 / bits.len() as f64;
    Ok(-(p * p + (1.0 - p) * (1.0 - p)).log2())
}

/// Sample autocorrelation of the ±1-mapped stream at the given lag.
///
/// # Errors
///
/// Returns [`TrngError::NotEnoughBits`] if fewer than `lag + 100` bits
/// are available, or [`TrngError::InvalidParameter`] for a zero lag.
pub fn autocorrelation(bits: &BitString, lag: usize) -> Result<f64, TrngError> {
    if lag == 0 {
        return Err(TrngError::InvalidParameter {
            name: "lag",
            constraint: "must be at least 1",
        });
    }
    require_bits(bits, lag + 100)?;
    let b = bits.as_slice();
    let n = b.len() - lag;
    let mean = b.iter().map(|&x| f64::from(x)).sum::<f64>() / b.len() as f64;
    let var = b
        .iter()
        .map(|&x| (f64::from(x) - mean).powi(2))
        .sum::<f64>()
        / b.len() as f64;
    if var == 0.0 {
        return Ok(1.0); // constant stream is perfectly self-correlated
    }
    let cov = (0..n)
        .map(|i| (f64::from(b[i]) - mean) * (f64::from(b[i + lag]) - mean))
        .sum::<f64>()
        / n as f64;
    Ok(cov / var)
}

/// Order-`k` Markov *min*-entropy estimate of a delivered bitstream,
/// delegating to [`strent_analysis::markov`]: upper-confidence
/// transition probabilities (small-sample haircut), most-likely-path
/// min-entropy per bit, in `[0, 1]`.
///
/// Unlike the frequency estimators above, a stream too short to
/// support the order does **not** collapse to a 0-entropy answer — it
/// is a typed refusal the caller must handle.
///
/// # Errors
///
/// Returns [`AnalysisError::InsufficientData`] (wrapped in
/// [`TrngError::Analysis`]) when the stream is shorter than
/// `order + 1` bits or too thin for a meaningful estimate, and
/// [`TrngError::Analysis`] with `InvalidParameter` for an unsupported
/// order.
///
/// [`AnalysisError::InsufficientData`]: strent_analysis::AnalysisError::InsufficientData
pub fn markov_min_entropy(bits: &BitString, order: usize) -> Result<f64, TrngError> {
    Ok(strent_analysis::markov::markov_min_entropy(
        bits.as_slice(),
        order,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_sim::RngTree;

    fn random_bits(n: usize, seed: u64) -> BitString {
        let mut rng = RngTree::new(seed).stream(0);
        (0..n).map(|_| u8::from(rng.bernoulli(0.5))).collect()
    }

    #[test]
    fn markov_min_entropy_refuses_short_streams_with_typed_error() {
        let short: BitString = [1u8, 0].iter().copied().collect();
        match markov_min_entropy(&short, 3) {
            Err(TrngError::Analysis(strent_analysis::AnalysisError::InsufficientData {
                needed,
                got,
            })) => {
                assert_eq!((needed, got), (4, 2));
            }
            other => panic!("expected InsufficientData, got {other:?}"),
        }
        // With enough data the estimate answers and stays in range.
        let bits = random_bits(16_384, 3);
        let h = markov_min_entropy(&bits, 2).expect("enough data");
        assert!(h > 0.8 && h <= 1.0, "fair stream estimated {h}");
    }

    #[test]
    fn estimators_on_fair_random_bits() {
        let bits = random_bits(100_000, 1);
        assert!(bias(&bits).expect("non-empty").abs() < 0.01);
        assert!(shannon_bit_entropy(&bits).expect("enough") > 0.999);
        assert!(min_entropy(&bits).expect("enough") > 0.98);
        assert!(markov_entropy(&bits).expect("enough") > 0.999);
        assert!(autocorrelation(&bits, 1).expect("enough").abs() < 0.02);
    }

    #[test]
    fn estimators_on_structured_bits() {
        // Alternating bits: balanced but zero conditional entropy.
        let bits: BitString = (0..10_000).map(|i| (i % 2) as u8).collect();
        assert!(bias(&bits).expect("non-empty").abs() < 1e-9);
        assert!(shannon_bit_entropy(&bits).expect("enough") > 0.999);
        assert!(markov_entropy(&bits).expect("enough") < 0.01);
        assert!(autocorrelation(&bits, 1).expect("enough") < -0.99);
        assert!(autocorrelation(&bits, 2).expect("enough") > 0.99);
        // Constant stream.
        let bits: BitString = (0..1000).map(|_| 1u8).collect();
        assert_eq!(min_entropy(&bits).expect("enough"), 0.0);
        assert_eq!(autocorrelation(&bits, 3).expect("enough"), 1.0);
    }

    #[test]
    fn collision_entropy_ordering() {
        // H_min <= H_2 <= H_shannon for any bias.
        for p in [0.5, 0.6, 0.8, 0.95] {
            let n = 10_000;
            let bits: BitString = (0..n)
                .map(|i| u8::from((i as f64 / n as f64) < p))
                .collect();
            let h1 = shannon_bit_entropy(&bits).expect("enough");
            let h2 = collision_entropy(&bits).expect("enough");
            let hmin = min_entropy(&bits).expect("enough");
            assert!(hmin <= h2 + 1e-9, "p={p}: {hmin} vs {h2}");
            assert!(h2 <= h1 + 1e-9, "p={p}: {h2} vs {h1}");
        }
        // Fair bits: all three are 1.
        let fair = random_bits(10_000, 3);
        assert!((collision_entropy(&fair).expect("enough") - 1.0).abs() < 0.01);
        assert!(collision_entropy(&random_bits(10, 3)).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(bias(&BitString::new()).is_err());
        assert!(shannon_bit_entropy(&random_bits(10, 1)).is_err());
        assert!(autocorrelation(&random_bits(1000, 1), 0).is_err());
        assert!(autocorrelation(&random_bits(50, 1), 10).is_err());
    }
}
