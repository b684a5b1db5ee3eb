//! Differential measurement of paired rings: common-mode rejection.
//!
//! The classic counter to global deterministic jitter (supply ripple,
//! substrate coupling — everything an attacker can modulate from the
//! outside) is to measure *two* matched rings on the same die and
//! subtract: what is common to both cancels, what is private (the
//! thermal jitter entropy actually comes from) survives. This module
//! runs that scenario on the simulated fabric:
//!
//! 1. a shared [`GlobalJitterProcess`] (from `strent_device::noise`)
//!    modulates one board — the common mode both rings see;
//! 2. two identically-configured rings run on that board with
//!    *different* thermal seeds — the private noise;
//! 3. the tone is lock-in detected in a single ring's period series
//!    (the single-ended, undefended measurement) and in the
//!    **difference** of the two series evaluated against the same
//!    clock (the differential measurement);
//! 4. the ratio of the two tone amplitudes is the common-mode
//!    rejection ratio (CMRR).
//!
//! Both families carry a similar *relative* tone (a global delay
//! modulation scales every stage, hence every period, by the same
//! factor). What separates them is the tone measured against the
//! thermal noise the sampler actually harvests: the STR's period — and
//! with it the absolute tone — stays put as stages are added, so its
//! deterministic-to-thermal ratio is flat in `L`, while the IRO's
//! period grows linearly and its thermal jitter only as `sqrt(L)`, so
//! the ratio climbs with ring size (the EXT-DET experiment's figure of
//! merit, seen here from the differential side).

use strent_analysis::{jitter, spectrum};
use strent_device::noise::GlobalJitterProcess;
use strent_device::Board;
use strent_sim::SimStats;

use crate::error::RingError;
use crate::measure::{run, RingRun};
use crate::ring::RingConfig;

/// Fewest periods per ring for a meaningful lock-in and jitter floor.
pub const MIN_PERIODS: usize = 64;

/// The outcome of one differential-pair run.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialOutcome {
    /// Display label of the pair (e.g. `STR 32C pair`).
    pub label: String,
    /// Mean period of the reference ring, ps.
    pub mean_period_ps: f64,
    /// Lock-in tone amplitude in the single-ended series, ps — the
    /// common-mode deterministic jitter an undefended measurement
    /// delivers to the sampler.
    pub single_tone_ps: f64,
    /// Lock-in tone amplitude in the differential series, ps — the
    /// common-mode residue after pairing.
    pub differential_tone_ps: f64,
    /// Random period jitter of the single-ended series, ps (includes
    /// the tone's contribution to the spread).
    pub single_sigma_ps: f64,
    /// Random period jitter of the differential series, ps (private
    /// noise of both rings, `sqrt(2)` of one ring's).
    pub differential_sigma_ps: f64,
}

impl DifferentialOutcome {
    /// The common-mode rejection ratio as a plain amplitude ratio.
    #[must_use]
    pub fn cmrr(&self) -> f64 {
        if self.differential_tone_ps == 0.0 {
            f64::INFINITY
        } else {
            self.single_tone_ps / self.differential_tone_ps
        }
    }

    /// The common-mode rejection ratio in decibels,
    /// `20 log10(single / differential)`.
    #[must_use]
    pub fn cmrr_db(&self) -> f64 {
        20.0 * self.cmrr().log10()
    }

    /// The single-ended deterministic tone as a fraction of the ring
    /// period — the relative common-mode sensitivity. Similar across
    /// families (a global delay modulation is multiplicative), which is
    /// exactly why [`det_to_thermal`](Self::det_to_thermal) is the
    /// discriminating axis.
    #[must_use]
    pub fn intrinsic_sensitivity(&self) -> f64 {
        self.single_tone_ps / self.mean_period_ps
    }

    /// One ring's private thermal jitter, ps, recovered from the
    /// differential series (where the tone has cancelled): the two
    /// rings' independent noises add in quadrature, so one ring's share
    /// is `differential_sigma / sqrt(2)`.
    #[must_use]
    pub fn thermal_sigma_ps(&self) -> f64 {
        self.differential_sigma_ps / std::f64::consts::SQRT_2
    }

    /// The deterministic tone measured against the thermal noise the
    /// sampler harvests — the differential-side analogue of EXT-DET's
    /// det-to-random figure of merit. Flat in `L` for STRs, growing
    /// with `L` for IROs.
    #[must_use]
    pub fn det_to_thermal(&self) -> f64 {
        let thermal = self.thermal_sigma_ps();
        if thermal == 0.0 {
            f64::INFINITY
        } else {
            self.single_tone_ps / thermal
        }
    }
}

/// Shared post-processing: lock-in both series against the reference
/// ring's edge instants and package the outcome.
fn analyze(
    label: String,
    a: &RingRun,
    b: &RingRun,
    process: &GlobalJitterProcess,
) -> Result<DifferentialOutcome, RingError> {
    let n = a.periods_ps.len().min(b.periods_ps.len());
    // Start instants of the reference ring's periods: the one clock
    // both lock-ins correlate against, so single-ended and
    // differential tone estimates come from the identical detector.
    let mut t = 0.0;
    let times: Vec<f64> = a.periods_ps[..n]
        .iter()
        .map(|&p| {
            let start = t;
            t += p;
            start
        })
        .collect();
    let diff: Vec<f64> = a.periods_ps[..n]
        .iter()
        .zip(&b.periods_ps[..n])
        .map(|(&pa, &pb)| pa - pb)
        .collect();
    let tone = process.tone_per_ps();
    let single_tone_ps = spectrum::lockin_amplitude_at(&times, &a.periods_ps[..n], tone)?;
    let differential_tone_ps = spectrum::lockin_amplitude_at(&times, &diff, tone)?;
    let mean_period_ps = a.periods_ps[..n].iter().sum::<f64>() / n as f64;
    Ok(DifferentialOutcome {
        label,
        mean_period_ps,
        single_tone_ps,
        differential_tone_ps,
        single_sigma_ps: jitter::period_jitter(&a.periods_ps[..n])?,
        differential_sigma_ps: jitter::period_jitter(&diff)?,
    })
}

fn check_periods(periods: usize) -> Result<(), RingError> {
    if periods < MIN_PERIODS {
        return Err(RingError::InvalidConfig(format!(
            "differential run needs at least {MIN_PERIODS} periods, got {periods}"
        )));
    }
    Ok(())
}

/// Runs a differential pair: two rings of the same configuration on
/// the same globally-modulated board, thermal seeds `seeds.0` and
/// `seeds.1`. An IRO pair is the control the STR pair is compared
/// against. The outcome comes with the two runs' kernel statistics,
/// combined.
///
/// # Errors
///
/// Propagates ring simulation errors, and rejects `periods` below
/// [`MIN_PERIODS`] or equal seeds (identical thermal noise would make
/// the differential rejection trivially perfect).
pub fn run_differential(
    config: &RingConfig,
    board: &Board,
    process: &GlobalJitterProcess,
    seeds: (u64, u64),
    periods: usize,
) -> Result<(DifferentialOutcome, SimStats), RingError> {
    check_periods(periods)?;
    check_seeds(seeds)?;
    let modulated = process.modulated(board);
    let a = run(config, &modulated, seeds.0, periods)?;
    let b = run(config, &modulated, seeds.1, periods)?;
    let label = match config {
        RingConfig::Str(c) => format!("STR {}C pair", c.length()),
        RingConfig::Iro(c) => format!("IRO {}C pair", c.length()),
    };
    let mut stats = a.stats;
    stats.absorb(b.stats);
    Ok((analyze(label, &a, &b, process)?, stats))
}

fn check_seeds(seeds: (u64, u64)) -> Result<(), RingError> {
    if seeds.0 == seeds.1 {
        return Err(RingError::InvalidConfig(
            "differential pair seeds must differ (equal seeds share thermal noise)".to_owned(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IroConfig, StrConfig};
    use strent_device::Technology;

    fn board() -> Board {
        Board::new(Technology::cyclone_iii(), 0, 0xD1FF)
    }

    fn iro(length: usize) -> RingConfig {
        RingConfig::Iro(IroConfig::new(length).expect("valid"))
    }

    #[test]
    fn rejects_thin_runs_and_shared_seeds() {
        let process = GlobalJitterProcess::new(0.012, 5.0);
        let config = iro(5);
        assert!(matches!(
            run_differential(&config, &board(), &process, (1, 2), 8),
            Err(RingError::InvalidConfig(_))
        ));
        assert!(matches!(
            run_differential(&config, &board(), &process, (3, 3), 256),
            Err(RingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn iro_pair_rejects_the_common_mode() {
        let process = GlobalJitterProcess::new(0.012, 5.0);
        let (out, stats) =
            run_differential(&iro(25), &board(), &process, (11, 12), 1_200).expect("runs");
        assert!(stats.events_processed > 0);
        // The undefended series carries the tone well above the
        // differential residue: measurable rejection.
        assert!(
            out.single_tone_ps > 10.0 * out.differential_tone_ps,
            "single {} vs differential {}",
            out.single_tone_ps,
            out.differential_tone_ps
        );
        assert!(out.cmrr_db() > 20.0, "CMRR {} dB", out.cmrr_db());
        // The single-ended spread is tone-dominated; once the tone
        // cancels, only the two rings' thermal noise (in quadrature)
        // remains, so the differential sigma drops but stays finite.
        assert!(out.differential_sigma_ps > 0.0);
        assert!(
            out.differential_sigma_ps < out.single_sigma_ps,
            "differential {} vs single {}",
            out.differential_sigma_ps,
            out.single_sigma_ps
        );
        assert!(out.thermal_sigma_ps() > 0.0 && out.det_to_thermal().is_finite());
    }

    #[test]
    fn str_intrinsic_sensitivity_beats_the_iro() {
        let process = GlobalJitterProcess::new(0.012, 5.0);
        let str_out = run_differential(
            &RingConfig::Str(StrConfig::new(32, 16).expect("valid")),
            &board(),
            &process,
            (21, 22),
            1_200,
        )
        .expect("runs")
        .0;
        let iro_out = run_differential(&iro(25), &board(), &process, (21, 22), 1_200)
            .expect("runs")
            .0;
        // Both families see a similar ~1.3-1.5% relative tone (global
        // delay modulation is multiplicative) ...
        assert!(str_out.intrinsic_sensitivity() > 0.005);
        assert!(iro_out.intrinsic_sensitivity() > 0.005);
        // ... but measured against the thermal noise the sampler
        // harvests, the STR's deterministic contamination sits well
        // below the IRO's — the paper's robustness claim, quantified
        // from the differential side.
        assert!(
            str_out.det_to_thermal() < 0.75 * iro_out.det_to_thermal(),
            "STR {} vs IRO {}",
            str_out.det_to_thermal(),
            iro_out.det_to_thermal()
        );
        // And pairing still rejects the STR's common mode strongly.
        assert!(
            str_out.cmrr_db() > 20.0,
            "STR CMRR {} dB",
            str_out.cmrr_db()
        );
    }
}
