//! The per-byte ladder of the serving batch path.
//!
//! [`Replica`] rebuilds `PooledSource::next_batch` from the public
//! calls of each layer — surrogate advance, sampler, health monitor,
//! conditioner, bit packing, online estimator — and times each call.
//! Every replica batch is asserted byte-equal to the batch the real
//! `PooledSource` delivers from the same spec, so the ladder fails
//! loudly if the batch path changes underneath it.

use std::time::Duration;

use strent_rings::fault::rising_interval_cv;
use strent_rings::surrogate::EntropySource;
use strent_serve::{PooledSource, RateEstimator};
use strent_sim::{RngTree, SimRng, Time};
use strent_trng::postprocess::StreamConditioner;
use strent_trng::sampler::Sampler;
use strent_trng::{BitString, HealthMonitor};
use strentropy::pool::{PoolConfig, SourceSpec};

use crate::stats::Metrics;
use crate::trace::{SpanId, Tracer};

/// RNG stream key of a source's metastability coin flips (the value
/// `PooledSource` derives its sampler RNG with).
const META_RNG_KEY: u64 = 0xD0F1_CA11;

/// Seed stride between ring generations of one slot (as in
/// `PooledSource`).
const GENERATION_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Batches replayed per pool source.
const BATCHES_PER_SOURCE: usize = 400;

/// Layers of the ladder in batch-path order: span name, metric name.
const LAYERS: [(&str, &str); 6] = [
    (
        "rings.surrogate.advance",
        "rings.surrogate.advance_ns_per_byte",
    ),
    ("trng.sampler", "trng.sampler.ns_per_byte"),
    ("trng.health", "trng.health.ns_per_byte"),
    ("trng.postprocess", "trng.postprocess.ns_per_byte"),
    ("trng.bits.pack", "trng.bits.pack_ns_per_byte"),
    ("serve.estimator", "serve.estimator.ns_per_byte"),
];

/// Per-layer busy time accumulated by the replica.
#[derive(Debug, Default)]
struct LayerClock([Duration; 6]);

/// Runs `f` as layer `layer`, adding its time to the clock and a span
/// under `parent`.
fn timed<R>(
    clock: &mut LayerClock,
    tracer: &mut Tracer,
    parent: SpanId,
    layer: usize,
    f: impl FnOnce() -> R,
) -> R {
    let (out, took) = tracer.time(LAYERS[layer].0, Some(parent), f);
    clock.0[layer] += took;
    out
}

/// `PooledSource::next_batch` rebuilt from public per-layer calls.
struct Replica {
    index: usize,
    spec: SourceSpec,
    config: PoolConfig,
    stream: EntropySource,
    sampler: Sampler,
    meta_rng: SimRng,
    conditioner: StreamConditioner,
    monitor: HealthMonitor,
    generation: u64,
    cursor_ps: f64,
    bit_carry: BitString,
    estimator: RateEstimator,
    discarded: u64,
}

impl Replica {
    fn new(
        index: usize,
        spec: &SourceSpec,
        config: &PoolConfig,
        stream: EntropySource,
    ) -> Result<Self, String> {
        let period = stream.expected_period_ps();
        Ok(Replica {
            index,
            spec: spec.clone(),
            config: config.clone(),
            sampler: Sampler::new(config.sample_period_factor * period, config.meta_window_ps)
                .map_err(|e| e.to_string())?,
            meta_rng: RngTree::new(spec.seed).stream(META_RNG_KEY),
            conditioner: StreamConditioner::new(config.conditioner),
            monitor: HealthMonitor::new(config.claimed_min_entropy).map_err(|e| e.to_string())?,
            generation: 0,
            cursor_ps: config.warmup_periods * period,
            bit_carry: BitString::new(),
            estimator: RateEstimator::new(config.entropy_order, config.entropy_window_bits)
                .map_err(|e| e.to_string())?,
            stream,
            discarded: 0,
        })
    }

    fn relock_window_ps(&self) -> f64 {
        self.config.relock_window_periods * self.stream.expected_period_ps()
    }

    fn next_batch(
        &mut self,
        clock: &mut LayerClock,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Vec<u8>, String> {
        loop {
            let count = self.config.batch_raw_bits;
            let t0 = Time::from_ps(self.cursor_ps);
            let needed_ps = self.cursor_ps
                + self.sampler.period_ps() * count as f64
                + self.sampler.meta_window_ps();
            let now_ps = self.stream.now().as_ps();
            if now_ps < needed_ps {
                let stream = &mut self.stream;
                timed(clock, tracer, parent, 0, || {
                    stream.advance_by(needed_ps - now_ps)
                })
                .map_err(|e| e.to_string())?;
            }
            let (sampler, stream, rng) = (&self.sampler, &self.stream, &mut self.meta_rng);
            let raw = timed(clock, tracer, parent, 1, || {
                sampler.sample_trace_until(stream.trace(), t0, count, stream.now(), rng)
            })
            .map_err(|e| e.to_string())?;
            self.cursor_ps += self.sampler.period_ps() * count as f64;
            let keep_ps = self.relock_window_ps() + self.sampler.meta_window_ps();
            if self.cursor_ps > keep_ps {
                let (stream, until) = (&mut self.stream, Time::from_ps(self.cursor_ps - keep_ps));
                timed(clock, tracer, parent, 0, || stream.prune_before(until));
            }
            let monitor = &mut self.monitor;
            let alarmed = timed(clock, tracer, parent, 2, || monitor.scan_chunk(&raw));
            if alarmed > 0 {
                self.discarded += 1;
                // Draining and re-locking the ring is ring advance work.
                let span = tracer.open(LAYERS[0].0, Some(parent));
                let relocked = self.quarantine_and_relock();
                clock.0[0] += tracer.close(span);
                relocked?;
                continue;
            }
            let conditioner = &mut self.conditioner;
            let conditioned = timed(clock, tracer, parent, 3, || conditioner.feed(&raw));
            let carry = &mut self.bit_carry;
            let packed = timed(clock, tracer, parent, 4, || {
                carry.extend(conditioned.iter());
                let whole_bytes = carry.len() / 8;
                if whole_bytes == 0 {
                    return None;
                }
                let packed = carry.slice(0, whole_bytes * 8).pack().to_vec();
                *carry = carry.slice(whole_bytes * 8, carry.len() - whole_bytes * 8);
                Some(packed)
            });
            let Some(packed) = packed else {
                continue;
            };
            let estimator = &mut self.estimator;
            timed(clock, tracer, parent, 5, || estimator.feed_bytes(&packed));
            return Ok(packed);
        }
    }

    fn quarantine_and_relock(&mut self) -> Result<(), String> {
        let window_ps = self.relock_window_ps();
        for _ in 0..self.config.max_relock_windows {
            let from = self.stream.now();
            self.stream
                .advance_by(window_ps)
                .map_err(|e| e.to_string())?;
            let until = self.stream.now();
            let relocked = rising_interval_cv(self.stream.trace(), from.as_ps(), until.as_ps())
                .is_some_and(|cv| cv < self.config.relock_cv_threshold);
            self.stream.prune_before(from);
            if relocked {
                self.reset(
                    until.as_ps() + self.config.warmup_periods * self.stream.expected_period_ps(),
                );
                return Ok(());
            }
        }
        self.generation += 1;
        let seed = self
            .spec
            .seed
            .wrapping_add(self.generation.wrapping_mul(GENERATION_STRIDE));
        self.stream = EntropySource::build(
            &self.spec.ring.stream_config(),
            &self.spec.board(self.index),
            seed,
            None,
            self.spec.backend,
        )
        .map_err(|e| e.to_string())?;
        self.meta_rng = RngTree::new(seed).stream(META_RNG_KEY);
        self.reset(self.config.warmup_periods * self.stream.expected_period_ps());
        Ok(())
    }

    fn reset(&mut self, cursor_ps: f64) {
        self.monitor.reset();
        self.conditioner = StreamConditioner::new(self.config.conditioner);
        self.bit_carry = BitString::new();
        self.estimator.reset();
        self.cursor_ps = cursor_ps;
    }
}

/// Replays every source of `config` through the replica and through
/// `PooledSource::next_batch`, checking byte equality. Records the
/// per-delivered-byte ladder, the direct cost, the unattributed share
/// and the calibration time; returns (batches compared, batches that
/// differed).
pub fn batch_path(
    config: &PoolConfig,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let mut clock = LayerClock::default();
    let mut direct = Duration::ZERO;
    let mut calibration = Duration::ZERO;
    let mut bytes = 0usize;
    let (mut compared, mut differed) = (0u64, 0u64);
    for (index, spec) in config.sources.iter().enumerate() {
        let (stream, took) = tracer.time("rings.surrogate.calibration", None, || {
            EntropySource::build(
                &spec.ring.stream_config(),
                &spec.board(index),
                spec.seed,
                spec.fault.as_ref(),
                spec.backend,
            )
        });
        calibration += took;
        let mut replica = Replica::new(index, spec, config, stream.map_err(|e| e.to_string())?)?;
        let mut source = PooledSource::build(index, spec, config).map_err(|e| e.to_string())?;
        for _ in 0..BATCHES_PER_SOURCE {
            let span = tracer.open("ladder.batch", None);
            let ours = replica.next_batch(&mut clock, tracer, span)?;
            tracer.close(span);
            let (theirs, took) =
                tracer.time("serve.source.next_batch", None, || source.next_batch());
            direct += took;
            let theirs = theirs.map_err(|e| e.to_string())?;
            compared += 1;
            if ours != theirs {
                differed += 1;
            }
            bytes += theirs.len();
        }
        if replica.discarded != source.stats().batches_discarded {
            differed += 1;
        }
    }
    if differed > 0 {
        eprintln!("batch-path replica differs from PooledSource::next_batch in {differed} batches");
    }
    let per_byte = |d: Duration| d.as_nanos() as f64 / bytes as f64;
    for ((_, metric), took) in LAYERS.iter().zip(clock.0) {
        m.put(*metric, per_byte(took), "ns/B");
    }
    let ladder: Duration = clock.0.iter().sum();
    m.put("serve.source.ns_per_byte", per_byte(direct), "ns/B");
    m.put(
        "trace.unattributed_frac",
        1.0 - ladder.as_secs_f64() / direct.as_secs_f64(),
        "ratio",
    );
    m.put(
        "rings.surrogate.calibration_s",
        calibration.as_secs_f64(),
        "s",
    );
    Ok((compared, differed))
}
