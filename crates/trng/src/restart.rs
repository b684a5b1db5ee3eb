//! Restart experiments: the standard technique for separating *true*
//! randomness from pseudo-randomness in oscillator-based TRNGs (used
//! heavily in the authors' follow-up STR-TRNG work).
//!
//! The oscillator is restarted many times from an **identical** initial
//! condition; only the thermal noise differs between restarts. Two
//! observables:
//!
//! * the dispersion of the `k`-th output edge time across restarts grows
//!   as `sqrt(k)` (phase diffusion from a known phase origin);
//! * the output level sampled at a fixed delay after the restart is
//!   deterministic for small delays and converges to a fair coin once
//!   the accumulated jitter spans the oscillation period.
//!
//! On silicon this requires power-cycling and a storage scope; in the
//! simulator a restart is simply a fresh run with the same initial state
//! and a different noise stream.

use strent_device::Board;
use strent_rings::RingConfig;
use strent_sim::{RngTree, Simulator, Time};

use crate::bits::BitString;
use crate::error::TrngError;

/// The observables of one restart campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartOutcome {
    /// The sampling delays after restart, ps.
    pub delays_ps: Vec<f64>,
    /// For each delay, the sampled output level across restarts
    /// (`per_delay_bits[d].len() == restarts`).
    pub per_delay_bits: Vec<BitString>,
    /// The probed rising-edge indices `k`.
    pub edge_indices: Vec<usize>,
    /// For each probed `k`, the standard deviation across restarts of
    /// the `k`-th rising-edge time, ps.
    pub edge_sigma_ps: Vec<f64>,
}

impl RestartOutcome {
    /// The across-restart bit entropy at each delay (Shannon, from the
    /// one-frequency), in delay order.
    #[must_use]
    pub fn entropy_per_delay(&self) -> Vec<f64> {
        self.per_delay_bits
            .iter()
            .map(|bits| {
                let p = bits.count_ones() as f64 / bits.len().max(1) as f64;
                crate::entropy::binary_entropy(p)
            })
            .collect()
    }
}

/// Runs `restarts` independent restarts of `source` on `board`.
///
/// Each restart rebuilds the ring through its verified build step in a
/// fresh simulator, with the same initial token/event configuration and
/// a restart-specific noise stream, runs long enough to cover the
/// largest delay and edge index, then records the requested
/// observables.
///
/// # Errors
///
/// Returns [`TrngError::InvalidParameter`] for an empty campaign
/// (`restarts == 0`, no delays, or no edge indices), or propagates
/// ring verification and simulation errors; [`TrngError::NotEnoughBits`] if a restart
/// produced fewer edges than the largest requested index.
pub fn run(
    source: &RingConfig,
    board: &Board,
    seed: u64,
    restarts: usize,
    delays_ps: &[f64],
    edge_indices: &[usize],
) -> Result<RestartOutcome, TrngError> {
    if restarts == 0 || delays_ps.is_empty() || edge_indices.is_empty() {
        return Err(TrngError::InvalidParameter {
            name: "campaign",
            constraint: "needs restarts >= 1, delays and edge indices",
        });
    }
    if delays_ps.iter().any(|d| !(d.is_finite() && *d > 0.0)) {
        return Err(TrngError::InvalidParameter {
            name: "delays_ps",
            constraint: "finite and positive",
        });
    }
    let max_delay = delays_ps.iter().copied().fold(0.0, f64::max);
    let max_edge = *edge_indices.iter().max().expect("non-empty");
    let period = source.predicted_period_ps(board);
    let horizon = max_delay.max((max_edge as f64 + 4.0) * period) * 1.5 + 10.0 * period;

    let seeds = RngTree::new(seed);
    let mut per_delay_bits = vec![BitString::with_capacity(restarts); delays_ps.len()];
    let mut edge_times: Vec<Vec<f64>> = vec![Vec::with_capacity(restarts); edge_indices.len()];

    for m in 0..restarts {
        let run_seed = seeds.stream(m as u64).next_u64();
        let mut sim = Simulator::new(run_seed);
        let output = source.build(board, &mut sim, false)?.output();
        sim.watch(output)?;
        sim.run_until(Time::from_ps(horizon));
        let trace = sim.trace(output).expect("watched");
        for (i, &delay) in delays_ps.iter().enumerate() {
            per_delay_bits[i].push(trace.value_at(Time::from_ps(delay)).into());
        }
        let edges = trace.rising_edges();
        for (i, &k) in edge_indices.iter().enumerate() {
            let Some(&t) = edges.get(k) else {
                return Err(TrngError::NotEnoughBits {
                    needed: k + 1,
                    got: edges.len(),
                });
            };
            edge_times[i].push(t.as_ps());
        }
    }

    let edge_sigma_ps = edge_times
        .iter()
        .map(|times| {
            let n = times.len() as f64;
            let mean = times.iter().sum::<f64>() / n;
            (times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (n - 1.0).max(1.0))
                .sqrt()
        })
        .collect();

    Ok(RestartOutcome {
        delays_ps: delays_ps.to_vec(),
        per_delay_bits,
        edge_indices: edge_indices.to_vec(),
        edge_sigma_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_device::Technology;
    use strent_rings::{IroConfig, StrConfig};

    #[test]
    fn edge_dispersion_grows_as_sqrt_k() {
        let board = Board::new(
            Technology::cyclone_iii()
                .with_sigma_intra(0.0)
                .with_sigma_inter(0.0),
            0,
            1,
        );
        let source = RingConfig::Iro(IroConfig::new(5).expect("valid length"));
        let outcome = run(
            &source,
            &board,
            7,
            48,
            &[1_000.0],
            &[4, 16, 64],
        )
        .expect("simulates");
        // sigma(k) ~ sqrt(2k) sigma_g from a common origin: ratios of
        // sqrt(16/4) = 2 and sqrt(64/16) = 2 within sampling error.
        let s = &outcome.edge_sigma_ps;
        assert!(s[0] > 0.0);
        assert!((s[1] / s[0] - 2.0).abs() < 0.7, "ratio {}", s[1] / s[0]);
        assert!((s[2] / s[1] - 2.0).abs() < 0.7, "ratio {}", s[2] / s[1]);
    }

    #[test]
    fn early_samples_are_deterministic_late_samples_are_not() {
        // Boosted noise so the entropy transition happens within an
        // affordable horizon ("noisy corner" technology).
        let board = Board::new(
            Technology::cyclone_iii()
                .with_sigma_g_ps(60.0)
                .with_sigma_intra(0.0)
                .with_sigma_inter(0.0),
            0,
            1,
        );
        let source = RingConfig::Str(StrConfig::new(8, 4).expect("valid counts"));
        let period = source.predicted_period_ps(&board);
        let outcome = run(
            &source,
            &board,
            11,
            64,
            &[2.0 * period, 120.0 * period],
            &[1],
        )
        .expect("simulates");
        let entropy = outcome.entropy_per_delay();
        assert!(
            entropy[0] < 0.6,
            "shortly after restart the output is mostly deterministic: H = {}",
            entropy[0]
        );
        assert!(
            entropy[1] > 0.8,
            "after many periods the phase has diffused: H = {}",
            entropy[1]
        );
    }

    #[test]
    fn restarts_share_the_initial_condition_but_not_the_noise() {
        let board = Board::new(Technology::cyclone_iii(), 0, 1);
        let source = RingConfig::Str(StrConfig::new(8, 4).expect("valid counts"));
        let outcome = run(&source, &board, 3, 16, &[50_000.0], &[40]).expect("simulates");
        // The 40th edge times differ across restarts (noise)...
        assert!(outcome.edge_sigma_ps[0] > 0.0);
        // ...but only by picoseconds (same starting configuration).
        let period = source.predicted_period_ps(&board);
        assert!(outcome.edge_sigma_ps[0] < period / 10.0);
    }

    #[test]
    fn invalid_campaigns_are_rejected() {
        let board = Board::new(Technology::cyclone_iii(), 0, 1);
        let source = RingConfig::Iro(IroConfig::new(3).expect("valid length"));
        assert!(run(&source, &board, 1, 0, &[100.0], &[1]).is_err());
        assert!(run(&source, &board, 1, 4, &[], &[1]).is_err());
        assert!(run(&source, &board, 1, 4, &[100.0], &[]).is_err());
        assert!(run(&source, &board, 1, 4, &[-5.0], &[1]).is_err());
    }
}
