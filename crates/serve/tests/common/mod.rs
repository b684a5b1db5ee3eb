//! Fixtures shared by the integration tests.

use strent_rings::surrogate::SourceBackend;
use strent_trng::postprocess::ConditionerKind;
use strentropy::pool::PoolConfig;

/// Seed of the drill pool and of the default chaos plan.
pub const SEED: u64 = 42;

/// The drill pool: raw conditioner (the stream content is what is
/// digested) and small batches.
pub fn drill_pool(sources: usize, backend: SourceBackend) -> PoolConfig {
    let mut config = PoolConfig::mixed_default(sources, SEED);
    config.conditioner = ConditionerKind::Raw;
    config.sample_period_factor = 2.37;
    config.batch_raw_bits = 64;
    config.warmup_periods = 16.0;
    config.with_backend(backend)
}
