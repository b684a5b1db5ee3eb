//! Spectral analysis of period series.
//!
//! A supply-modulation attack appears as a spectral line in the period
//! sequence; white period noise appears as a flat floor. The
//! [`periodogram`] gives the full picture; [`goertzel_power`] evaluates
//! a single bin cheaply (the frequency-domain twin of the lock-in
//! detector in `strent-trng`).

use serde::{Deserialize, Serialize};

use crate::error::{require_finite, AnalysisError};

/// One periodogram bin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectralBin {
    /// Frequency in cycles per sample, in `[0, 0.5]`.
    pub frequency: f64,
    /// Power (mean squared amplitude) in this bin.
    pub power: f64,
}

/// The power of a single tone at `frequency` cycles per sample, via the
/// Goertzel recurrence. The input mean is removed first, so the DC bin
/// of a constant series is zero.
///
/// # Errors
///
/// Returns an error for fewer than 8 samples, non-finite data, or a
/// frequency outside `[0, 0.5]`.
pub fn goertzel_power(samples: &[f64], frequency: f64) -> Result<f64, AnalysisError> {
    require_finite(samples, 8)?;
    if !(0.0..=0.5).contains(&frequency) {
        return Err(AnalysisError::InvalidParameter {
            name: "frequency",
            constraint: "cycles per sample in [0, 0.5]",
        });
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let omega = std::f64::consts::TAU * frequency;
    let coeff = 2.0 * omega.cos();
    let (mut s_prev, mut s_prev2) = (0.0, 0.0);
    for &x in samples {
        let s = (x - mean) + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power =
        (s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2) / (n * n / 4.0);
    Ok(power.max(0.0))
}

/// Self-clocked lock-in amplitude: the amplitude of a sinusoidal
/// component of known frequency in a period series whose sample
/// instants are the accumulated periods themselves (a real counter's
/// sampling). `frequency` is in cycles per unit of the series' own
/// time base (for a picosecond series and a tone in MHz, pass
/// `freq_mhz * 1e-6`). This is the time-domain twin of
/// [`goertzel_power`] for unevenly self-sampled data — the detector
/// the differential-measurement scenario uses to quantify common-mode
/// rejection.
///
/// # Errors
///
/// Returns an error for fewer than 16 samples, non-finite data, or a
/// non-positive frequency.
pub fn self_clocked_lockin_amplitude(
    periods: &[f64],
    frequency: f64,
) -> Result<f64, AnalysisError> {
    require_finite(periods, 16)?;
    if !(frequency.is_finite() && frequency > 0.0) {
        return Err(AnalysisError::InvalidParameter {
            name: "frequency",
            constraint: "finite and positive",
        });
    }
    let mut t = 0.0;
    let times: Vec<f64> = periods
        .iter()
        .map(|&p| {
            let start = t;
            t += p;
            start
        })
        .collect();
    lockin_amplitude_at(&times, periods, frequency)
}

/// Lock-in amplitude of a tone of known `frequency` in `samples` taken
/// at explicit `times` (same units as `1 / frequency`). Lets a caller
/// correlate *two* series against the same clock — e.g. a differential
/// period series evaluated at the reference ring's edge instants, so
/// the common-mode tone estimate and its differential residual are
/// produced by the identical detector.
///
/// # Errors
///
/// Returns an error for fewer than 16 samples, non-finite data,
/// mismatched lengths, or a non-positive frequency.
pub fn lockin_amplitude_at(
    times: &[f64],
    samples: &[f64],
    frequency: f64,
) -> Result<f64, AnalysisError> {
    require_finite(samples, 16)?;
    require_finite(times, 16)?;
    if times.len() != samples.len() {
        return Err(AnalysisError::InvalidParameter {
            name: "times",
            constraint: "same length as samples",
        });
    }
    if !(frequency.is_finite() && frequency > 0.0) {
        return Err(AnalysisError::InvalidParameter {
            name: "frequency",
            constraint: "finite and positive",
        });
    }
    let omega = std::f64::consts::TAU * frequency;
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let mut i_sum = 0.0;
    let mut q_sum = 0.0;
    for (&t, &x) in times.iter().zip(samples) {
        let centered = x - mean;
        i_sum += centered * (omega * t).sin();
        q_sum += centered * (omega * t).cos();
    }
    let n = samples.len() as f64;
    Ok(2.0 * (i_sum * i_sum + q_sum * q_sum).sqrt() / n)
}

/// The full (mean-removed) periodogram: `bins` equally spaced
/// frequencies from just above DC to Nyquist.
///
/// # Errors
///
/// Returns an error for fewer than 8 samples, non-finite data, or zero
/// bins.
pub fn periodogram(samples: &[f64], bins: usize) -> Result<Vec<SpectralBin>, AnalysisError> {
    if bins == 0 {
        return Err(AnalysisError::InvalidParameter {
            name: "bins",
            constraint: "must be at least 1",
        });
    }
    require_finite(samples, 8)?;
    (1..=bins)
        .map(|k| {
            let frequency = 0.5 * k as f64 / bins as f64;
            Ok(SpectralBin {
                frequency,
                power: goertzel_power(samples, frequency)?,
            })
        })
        .collect()
}

/// The ratio of the peak bin power to the median bin power — a simple
/// "is there a line in this spectrum?" detector. White noise gives a
/// small ratio (a few); a strong injected tone gives a large one.
///
/// # Errors
///
/// Propagates [`periodogram`] errors.
pub fn peak_to_median_ratio(samples: &[f64], bins: usize) -> Result<f64, AnalysisError> {
    let spec = periodogram(samples, bins)?;
    let mut powers: Vec<f64> = spec.iter().map(|b| b.power).collect();
    powers.sort_by(f64::total_cmp);
    let peak = *powers.last().expect("bins >= 1");
    let median = powers[powers.len() / 2];
    if median == 0.0 {
        return Err(AnalysisError::DegenerateData("zero median power"));
    }
    Ok(peak / median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, freq: f64, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|k| 1000.0 + amplitude * (std::f64::consts::TAU * freq * k as f64).sin())
            .collect()
    }

    #[test]
    fn self_clocked_lockin_recovers_amplitude_and_cancels_in_difference() {
        // A 1000 ps clock with a 6 ps tone at 1e-4 cycles/ps.
        let freq = 1e-4;
        let mut t = 0.0;
        let periods: Vec<f64> = (0..4096)
            .map(|_| {
                let p = 1000.0 + 6.0 * (std::f64::consts::TAU * freq * t).sin();
                t += p;
                p
            })
            .collect();
        let a = self_clocked_lockin_amplitude(&periods, freq).expect("valid");
        assert!((a - 6.0).abs() < 0.5, "lock-in amplitude {a}");
        // Off-frequency lock-in sees almost nothing.
        let off = self_clocked_lockin_amplitude(&periods, 0.37 * freq).expect("valid");
        assert!(off < 0.3, "off-frequency leakage {off}");
        // The same tone in two series evaluated against one clock
        // cancels in their difference.
        let times: Vec<f64> = periods
            .iter()
            .scan(0.0, |acc, &p| {
                let start = *acc;
                *acc += p;
                Some(start)
            })
            .collect();
        let diff = vec![0.0; periods.len()];
        let residual = lockin_amplitude_at(&times, &diff, freq).expect("valid");
        assert!(residual < 1e-9, "difference residual {residual}");
        assert!(lockin_amplitude_at(&times[..8], &diff[..8], freq).is_err());
    }

    #[test]
    fn goertzel_finds_a_pure_tone() {
        let samples = tone(4096, 0.125, 3.0);
        // Power of a sine of amplitude A is A^2 at the exact bin.
        let p = goertzel_power(&samples, 0.125).expect("valid");
        assert!((p - 9.0).abs() < 0.1, "power {p}");
        // Far-off bins see almost nothing.
        let off = goertzel_power(&samples, 0.3).expect("valid");
        assert!(off < 0.05, "off-bin power {off}");
    }

    #[test]
    fn dc_is_removed() {
        let samples = vec![123.0; 64];
        let p = goertzel_power(&samples, 0.25).expect("valid");
        assert!(p < 1e-18);
    }

    #[test]
    fn periodogram_peak_lands_on_the_tone() {
        let samples = tone(2048, 0.2, 2.0);
        let spec = periodogram(&samples, 50).expect("valid");
        assert_eq!(spec.len(), 50);
        let peak = spec
            .iter()
            .max_by(|a, b| a.power.total_cmp(&b.power))
            .expect("non-empty");
        assert!((peak.frequency - 0.2).abs() < 0.011, "peak at {}", peak.frequency);
    }

    #[test]
    fn peak_detector_separates_tone_from_noise() {
        // Deterministic pseudo-noise.
        let mut state = 0x1234_5678_u64;
        let noise: Vec<f64> = (0..2048)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                1000.0 + ((state >> 33) as f64 / 2f64.powi(31) - 0.5) * 4.0
            })
            .collect();
        let noise_ratio = peak_to_median_ratio(&noise, 64).expect("valid");
        let toned: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(k, &x)| x + 5.0 * (std::f64::consts::TAU * 0.11 * k as f64).sin())
            .collect();
        let tone_ratio = peak_to_median_ratio(&toned, 64).expect("valid");
        assert!(
            tone_ratio > 10.0 * noise_ratio,
            "tone {tone_ratio} vs noise {noise_ratio}"
        );
    }

    #[test]
    fn error_cases() {
        assert!(goertzel_power(&[1.0; 4], 0.1).is_err());
        assert!(goertzel_power(&[1.0; 100], 0.6).is_err());
        assert!(periodogram(&[1.0; 100], 0).is_err());
        assert!(self_clocked_lockin_amplitude(&[1.0; 8], 1e-4).is_err());
        assert!(self_clocked_lockin_amplitude(&[1.0; 100], 0.0).is_err());
        assert!(peak_to_median_ratio(&[5.0; 100], 8).is_err()); // zero power
    }
}
