//! The source pool: W worker threads producing batches from S sources,
//! consumed in a deterministic interleave.
//!
//! ## The determinism contract
//!
//! Each source's byte stream is a pure function of its spec and the
//! pool config (see [`PooledSource`]). Workers only decide *when* a
//! batch gets computed, never *what* it contains; the consumer side
//! reads batches strictly round-robin by source index (round `r` takes
//! batch `r` of source 0, then source 1, …). The concatenated stream is
//! therefore bit-identical for any worker count — the same contract the
//! experiment layer's `SweepRunner` pins for thread-count invariance,
//! applied to a long-running service.
//!
//! Backpressure inside the pool is a credit handshake. Each slot has a
//! room count of `CHANNEL_DEPTH` batches, shared with its worker. A
//! worker produces only for slots with room, takes a room once the
//! batch exists, and parks when no slot has room; `next_chunk` gives
//! the room back. The wake that goes with it waits for
//! [`SourcePool::wake_workers`], which a scheduler calls once its reply
//! is sent, or for the consumer to find a slot empty. Memory stays
//! bounded, a slot drained slowly never holds up the worker's other
//! slots, and an idle pool burns no CPU.
//!
//! ## Sharding
//!
//! A pool can also be started as one *partition* of a sharded service
//! ([`SourcePool::start_partition`]): shard `k` of `S` owns exactly the
//! global slots `{ i | i % S == k }`, builds them with their **global**
//! indices (so a slot's spec, seed derivation and replacement stream
//! are identical no matter how many shards exist), and consumes them
//! round-robin in ascending global-slot order. The full pool is the
//! special case `S = 1`.
//!
//! ## Failure
//!
//! Each worker runs its producer loop once. A source error or a panic
//! (a simulator bug) ends the loop and drops the senders of every slot
//! the worker owns, so the consumer's next read of such a slot is the
//! typed [`ServeError::SourceFailed`], never a silent stall. Nothing
//! rebuilds the slot: its stream is a pure function of
//! `(SourceSpec, PoolConfig)`, so a rebuilt slot would replay into the
//! same failure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use strentropy::pool::{EntropyEstimate, PoolConfig, SourceState, SourceStats};

use crate::error::ServeError;
use crate::source::PooledSource;

/// Batches a source may run ahead of the consumer: a slot's room count
/// starts here and its channel holds this many, so a send made with a
/// room in hand never blocks.
const CHANNEL_DEPTH: usize = 3;

/// How long the consumer waits for one batch before declaring a source
/// stuck (a healthy batch takes milliseconds of host time).
const PRODUCE_TIMEOUT: Duration = Duration::from_secs(60);

/// Chunks a healthy slot receives per weighted-consumption cycle.
pub const HEALTHY_WEIGHT: u64 = 4;

/// Chunks a demoted slot receives per weighted-consumption cycle — it
/// keeps contributing (and keeps its estimate fresh), just less often.
pub const DEMOTED_WEIGHT: u64 = 1;

/// How [`SourcePool::next_chunk`] orders consumption across slots.
///
/// Both policies are pure functions of the delivered chunks (the
/// entropy estimates they weight by ride *on* the chunks), so either
/// way the served stream stays worker-count and shard-count invariant.
/// A deterministic-mode shard always runs [`ConsumptionPolicy::Strict`]
/// — its byte-allocation contract is pinned by digest tests — while
/// fair mode may opt into weighting via `ServeConfig::entropy_weighting`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsumptionPolicy {
    /// Strict round-robin by slot index: round `r` takes batch `r` of
    /// every slot in ascending order.
    #[default]
    Strict,
    /// Credit-based weighted round-robin: each refill cycle grants
    /// [`HEALTHY_WEIGHT`] chunks to slots whose published entropy
    /// estimate clears `threshold` (or is still unavailable — a short
    /// window is "no verdict yet", never "low entropy") and
    /// [`DEMOTED_WEIGHT`] to slots below it.
    Weighted {
        /// Demotion threshold, normally
        /// `PoolConfig::demotion_threshold()`.
        threshold: EntropyEstimate,
    },
}

/// One health-passed byte batch, tagged with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolChunk {
    /// Per-source batch sequence number (0-based).
    pub round: u64,
    /// Pool slot that produced the bytes.
    pub source: usize,
    /// The conditioned, health-passed bytes.
    pub bytes: Vec<u8>,
    /// Source lifecycle state after producing this batch.
    pub state: SourceState,
    /// Lifetime counters after producing this batch.
    pub stats: SourceStats,
    /// Ring generation that produced the batch.
    pub generation: u64,
    /// Online min-entropy estimate of the source's delivered window
    /// after this batch (`None` while the window is too short).
    pub entropy: Option<EntropyEstimate>,
}

/// Last observed condition of one pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceStatus {
    /// Lifecycle state.
    pub state: SourceState,
    /// Lifetime counters.
    pub stats: SourceStats,
    /// Ring generation.
    pub generation: u64,
    /// Last published entropy estimate (`None` until the source's
    /// sliding window saturates).
    pub entropy: Option<EntropyEstimate>,
}

impl Default for SourceStatus {
    fn default() -> Self {
        SourceStatus {
            state: SourceState::Healthy,
            stats: SourceStats::default(),
            generation: 0,
            entropy: None,
        }
    }
}

/// A running pool of entropy sources (possibly one shard's partition).
#[derive(Debug)]
pub struct SourcePool {
    receivers: Vec<Receiver<PoolChunk>>,
    /// Free read-ahead of each slot, shared with its worker: the worker
    /// takes a room per batch it sends, `next_chunk` gives it back. The
    /// give-back is `Release`, paired with the worker's `Acquire` check;
    /// the batch itself travels through the channel.
    rooms: Vec<Arc<AtomicUsize>>,
    /// Global slot index of each receiver, ascending.
    slots: Vec<usize>,
    workers: Vec<JoinHandle<()>>,
    /// Workers `next_chunk` gave a room back to since the last
    /// [`SourcePool::wake_workers`], indexed like `workers`.
    owed: Vec<bool>,
    shutdown: Arc<AtomicBool>,
    cursor: usize,
    policy: ConsumptionPolicy,
    /// Chunks each slot may still draw this weighted cycle (empty under
    /// [`ConsumptionPolicy::Strict`], refilled from the slot statuses
    /// when exhausted).
    credits: Vec<u64>,
    rounds_completed: u64,
    status: Vec<SourceStatus>,
    buffer: VecDeque<u8>,
    finished: bool,
}

impl SourcePool {
    /// Validates `config`, builds every source (fail-fast, in slot
    /// order) and spawns `workers` producer threads. Source `i` is
    /// owned by worker `i % workers`; ownership only affects wall-clock
    /// scheduling, never byte content.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or a source that
    /// fails to build (static verification, bad fault plan, …).
    pub fn start(config: &PoolConfig, workers: usize) -> Result<Self, ServeError> {
        SourcePool::start_partition(config, 1, 0, workers)
    }

    /// Starts shard `shard` of `shards`: builds only the global slots
    /// `{ i | i % shards == shard }`, each with its global index, so
    /// per-slot byte streams are identical at every shard count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SourcePool::start`], plus a config error
    /// for an out-of-range shard or an empty partition.
    pub fn start_partition(
        config: &PoolConfig,
        shards: usize,
        shard: usize,
        workers: usize,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        if shards == 0 || shard >= shards {
            return Err(ServeError::Protocol(format!(
                "shard {shard} of {shards} is not a valid partition"
            )));
        }
        let mut sources = Vec::new();
        let mut slots = Vec::new();
        for (i, spec) in config.sources.iter().enumerate() {
            if i % shards == shard {
                sources.push(PooledSource::build(i, spec, config)?);
                slots.push(i);
            }
        }
        if sources.is_empty() {
            return Err(ServeError::Protocol(format!(
                "shard {shard} of {shards} owns no slot of a {}-source pool",
                config.sources.len()
            )));
        }
        let worker_count = workers.clamp(1, sources.len());
        let shutdown = Arc::new(AtomicBool::new(false));

        let status = vec![SourceStatus::default(); sources.len()];
        let mut receivers = Vec::with_capacity(sources.len());
        let mut rooms = Vec::with_capacity(sources.len());
        let mut groups: Vec<Vec<WorkerSlot>> = (0..worker_count).map(|_| Vec::new()).collect();
        for (i, source) in sources.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
            let room = Arc::new(AtomicUsize::new(CHANNEL_DEPTH));
            receivers.push(rx);
            rooms.push(Arc::clone(&room));
            groups[i % worker_count].push(WorkerSlot {
                source,
                tx,
                room,
                delivered: 0,
            });
        }

        let mut handles = Vec::with_capacity(worker_count);
        for (w, group) in groups.into_iter().enumerate() {
            let flag = Arc::clone(&shutdown);
            // The loop runs once: when it returns or panics, the group's
            // senders drop with it, and a consumer still reading sees
            // SourceFailed.
            let handle = thread::Builder::new()
                .name(format!("strent-serve-worker-{w}"))
                .spawn(move || produce_loop(group, &flag))
                .map_err(ServeError::Io)?;
            handles.push(handle);
        }

        Ok(SourcePool {
            receivers,
            rooms,
            slots,
            owed: vec![false; handles.len()],
            workers: handles,
            shutdown,
            cursor: 0,
            policy: ConsumptionPolicy::Strict,
            credits: Vec::new(),
            rounds_completed: 0,
            status,
            buffer: VecDeque::new(),
            finished: false,
        })
    }

    /// Number of pool slots owned by this pool (partition).
    #[must_use]
    pub fn sources(&self) -> usize {
        self.status.len()
    }

    /// Global slot indices owned by this pool (partition), ascending.
    #[must_use]
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// Last observed status of every owned slot, tagged with its global
    /// slot index — what a sharded scheduler merges into a full view.
    #[must_use]
    pub fn slot_status(&self) -> Vec<(usize, SourceStatus)> {
        self.slots
            .iter()
            .copied()
            .zip(self.status.iter().copied())
            .collect()
    }

    /// Completed consumption rounds (every source read once per round).
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Last observed status of every slot, in slot order.
    #[must_use]
    pub fn status(&self) -> &[SourceStatus] {
        &self.status
    }

    /// The consumption policy currently in force.
    #[must_use]
    pub fn consumption_policy(&self) -> ConsumptionPolicy {
        self.policy
    }

    /// Switches the consumption policy. Changing policy discards any
    /// partially-spent weighted cycle; the per-source streams themselves
    /// are untouched (a policy only reorders which slot is read next).
    pub fn set_consumption_policy(&mut self, policy: ConsumptionPolicy) {
        self.policy = policy;
        self.credits.clear();
    }

    /// The per-cycle chunk budget of a slot with the given published
    /// estimate: an estimate below the threshold demotes the slot; a
    /// missing estimate (window still short — the estimator's typed
    /// `InsufficientData` case) keeps full weight, because "no verdict
    /// yet" must never read as "low entropy".
    fn consumption_weight(entropy: Option<EntropyEstimate>, threshold: EntropyEstimate) -> u64 {
        match entropy {
            Some(estimate) if estimate < threshold => DEMOTED_WEIGHT,
            _ => HEALTHY_WEIGHT,
        }
    }

    /// The slot the current policy reads next (refilling the weighted
    /// credit cycle from the latest slot statuses when exhausted).
    fn next_slot(&mut self) -> usize {
        let n = self.receivers.len();
        match self.policy {
            ConsumptionPolicy::Strict => self.cursor,
            ConsumptionPolicy::Weighted { threshold } => {
                if self.credits.len() != n || self.credits.iter().all(|&c| c == 0) {
                    self.credits = self
                        .status
                        .iter()
                        .map(|s| Self::consumption_weight(s.entropy, threshold))
                        .collect();
                }
                let mut i = self.cursor % n;
                // Terminates: every weight is at least DEMOTED_WEIGHT,
                // so a fresh refill leaves no all-zero credit vector.
                while self.credits[i] == 0 {
                    i = (i + 1) % n;
                }
                i
            }
        }
    }

    /// The next chunk in the deterministic interleave — strict
    /// round-robin by slot index, or the credit-weighted order under
    /// [`ConsumptionPolicy::Weighted`]. Either way the interleave is a
    /// pure function of the delivered chunks, independent of worker
    /// count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] if the slot's worker produced nothing
    /// within the produce deadline, [`ServeError::SourceFailed`] if it
    /// died, [`ServeError::Shutdown`] after [`SourcePool::shutdown`].
    pub fn next_chunk(&mut self) -> Result<PoolChunk, ServeError> {
        if self.finished {
            return Err(ServeError::Shutdown);
        }
        let i = self.next_slot();
        // Local slot `i` belongs to worker `i % workers`.
        let w = i % self.workers.len();
        if self.rooms[i].load(Ordering::Acquire) == CHANNEL_DEPTH {
            // Nothing queued or in hand for the slot, so the wait below
            // would block: the worker may be parked on rooms given back
            // since the last wake, so wake it first.
            self.workers[w].thread().unpark();
        }
        let chunk = self.receivers[i]
            .recv_timeout(PRODUCE_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => ServeError::Timeout,
                RecvTimeoutError::Disconnected => ServeError::SourceFailed {
                    source: self.slots[i],
                },
            })?;
        // The consumer credit: give the room back. The worker is woken
        // later, by `wake_workers` or by the wait above.
        self.rooms[i].fetch_add(1, Ordering::Release);
        self.owed[w] = true;
        self.status[i] = SourceStatus {
            state: chunk.state,
            stats: chunk.stats,
            generation: chunk.generation,
            entropy: chunk.entropy,
        };
        match self.policy {
            ConsumptionPolicy::Strict => {
                self.cursor = (self.cursor + 1) % self.receivers.len();
                if self.cursor == 0 {
                    self.rounds_completed += 1;
                }
            }
            ConsumptionPolicy::Weighted { .. } => {
                self.credits[i] -= 1;
                self.cursor = (i + 1) % self.receivers.len();
                if self.credits.iter().all(|&c| c == 0) {
                    self.rounds_completed += 1;
                }
            }
        }
        Ok(chunk)
    }

    /// Reads exactly `n` bytes of the pooled stream, buffering any
    /// chunk remainder for the next call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SourcePool::next_chunk`].
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, ServeError> {
        while self.buffer.len() < n {
            let chunk = self.next_chunk()?;
            self.buffer.extend(chunk.bytes);
        }
        Ok(self.buffer.drain(..n).collect())
    }

    /// Unparks every worker `next_chunk` gave a room back to since the
    /// last call, so it refills the read-ahead. A scheduler calls this
    /// once its reply is sent: a worker woken mid-grant takes the CPU
    /// the reply is waiting for. Callers that never call it still get
    /// every byte, because `next_chunk` wakes a worker before it waits
    /// on one of its drained slots.
    pub fn wake_workers(&mut self) {
        for (handle, owed) in self.workers.iter().zip(&mut self.owed) {
            if std::mem::take(owed) {
                handle.thread().unpark();
            }
        }
    }

    /// Stops the workers and joins them. Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.shutdown.store(true, Ordering::SeqCst);
        // A parked worker sees the flag once woken.
        for handle in &self.workers {
            handle.thread().unpark();
        }
        for handle in self.workers.drain(..) {
            // A panicked worker already printed its message; the pool
            // is going away either way.
            if handle.join().is_err() {
                continue;
            }
        }
    }
}

impl Drop for SourcePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One pool slot as a worker sees it: the live source, its outbound
/// channel and room count.
struct WorkerSlot {
    source: PooledSource,
    tx: SyncSender<PoolChunk>,
    /// Batches the consumer has room for (see [`SourcePool`]'s rooms).
    room: Arc<AtomicUsize>,
    /// Batches already handed to the consumer channel; numbers the
    /// next chunk's `round`.
    delivered: u64,
}

/// A worker's producer loop: round-robin over its slots that have room,
/// pushing each batch into that slot's channel, and parking when no
/// slot has room. It runs once; returning (shutdown, consumer gone,
/// failed source) or a panic drops `slots` and every sender with them.
fn produce_loop(mut slots: Vec<WorkerSlot>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        let mut produced = false;
        for slot in &mut slots {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            if slot.room.load(Ordering::Acquire) == 0 {
                continue;
            }
            let Ok(bytes) = slot.source.next_batch() else {
                // Unrecoverable source error: drop every sender so the
                // consumer sees the disconnect as SourceFailed.
                return;
            };
            let chunk = PoolChunk {
                round: slot.delivered,
                source: slot.source.index(),
                bytes,
                state: slot.source.state(),
                stats: slot.source.stats(),
                generation: slot.source.generation(),
                entropy: slot.source.entropy(),
            };
            // The batch exists: take its room. The room guarantees the
            // channel has space, so this send cannot block.
            slot.room.fetch_sub(1, Ordering::AcqRel);
            if slot.tx.send(chunk).is_err() {
                return;
            }
            slot.delivered += 1;
            produced = true;
        }
        if !produced {
            // No slot has room: sleep until the consumer wakes us with
            // rooms given back, or shutdown unparks the worker.
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strent_trng::postprocess::ConditionerKind;

    fn small_config(sources: usize) -> PoolConfig {
        let mut config = PoolConfig::mixed_default(sources, 42);
        config.conditioner = ConditionerKind::Raw;
        config.sample_period_factor = 2.37;
        config.batch_raw_bits = 64;
        config.warmup_periods = 16.0;
        config
    }

    #[test]
    fn stream_is_worker_count_invariant() {
        let config = small_config(3);
        let mut reference: Option<Vec<u8>> = None;
        for workers in [1usize, 2, 8] {
            let mut pool = SourcePool::start(&config, workers).expect("starts");
            let bytes = pool.read_bytes(96).expect("reads");
            pool.shutdown();
            match &reference {
                None => reference = Some(bytes),
                Some(expected) => {
                    assert_eq!(&bytes, expected, "{workers} workers diverged");
                }
            }
        }
    }

    #[test]
    fn chunks_interleave_round_robin_by_slot() {
        let config = small_config(3);
        let mut pool = SourcePool::start(&config, 2).expect("starts");
        for round in 0..3u64 {
            for slot in 0..3usize {
                let chunk = pool.next_chunk().expect("produces");
                assert_eq!((chunk.source, chunk.round), (slot, round));
                assert!(!chunk.bytes.is_empty());
            }
            assert_eq!(pool.rounds_completed(), round + 1);
        }
        assert_eq!(pool.status().len(), 3);
        pool.shutdown();
        assert!(matches!(pool.next_chunk(), Err(ServeError::Shutdown)));
    }

    #[test]
    fn partitions_preserve_global_slot_streams() {
        let config = small_config(3);
        // Reference: first chunk of every slot from the unsharded pool.
        let mut full = SourcePool::start(&config, 1).expect("starts");
        let mut reference = Vec::new();
        for slot in 0..3usize {
            let chunk = full.next_chunk().expect("produces");
            assert_eq!(chunk.source, slot);
            reference.push(chunk.bytes);
        }
        full.shutdown();
        // Each shard of a 2-way split must reproduce its slots' chunks
        // byte-for-byte, under their global indices.
        for shard in 0..2usize {
            let mut part = SourcePool::start_partition(&config, 2, shard, 1).expect("starts");
            let owned: Vec<usize> = (0..3).filter(|i| i % 2 == shard).collect();
            assert_eq!(part.slots(), owned.as_slice());
            for &slot in &owned {
                let chunk = part.next_chunk().expect("produces");
                assert_eq!(chunk.source, slot);
                assert_eq!(chunk.bytes, reference[slot], "slot {slot} diverged");
            }
            let status = part.slot_status();
            assert_eq!(status.len(), owned.len());
            assert_eq!(status[0].0, owned[0]);
            part.shutdown();
        }
    }

    /// A config whose sources publish an estimate after their first
    /// delivered batch (128 delivered bits > the 65-bit order-1 floor).
    fn estimator_config(sources: usize) -> PoolConfig {
        let mut config = small_config(sources);
        config.entropy_order = 1;
        config.entropy_window_bits = 128;
        config.batch_raw_bits = 128;
        config
    }

    #[test]
    fn weighted_policy_with_no_demotions_matches_strict() {
        let config = estimator_config(3);
        let mut strict = SourcePool::start(&config, 2).expect("starts");
        let expected = strict.read_bytes(96).expect("reads");
        strict.shutdown();

        let mut weighted = SourcePool::start(&config, 2).expect("starts");
        // Threshold 0: no estimate can fall below it, every slot keeps
        // HEALTHY_WEIGHT, and the weighted order degenerates to the
        // strict round-robin — weighting only ever *reorders*, it
        // never changes per-slot bytes.
        let policy = ConsumptionPolicy::Weighted {
            threshold: EntropyEstimate::from_bits_per_bit(0.0),
        };
        weighted.set_consumption_policy(policy);
        assert_eq!(weighted.consumption_policy(), policy);
        let bytes = weighted.read_bytes(96).expect("reads");
        weighted.shutdown();
        assert_eq!(bytes, expected, "uniform weights must reproduce strict order");
    }

    #[test]
    fn weighted_policy_demotes_low_scoring_slots() {
        let config = estimator_config(3);
        // Probe the estimate each slot will have published when the
        // first weighted cycle ends (after 4 delivered batches) —
        // streams are pure functions of (spec, config), so a rebuilt
        // source replays the pool's slots exactly.
        let mut after4 = Vec::new();
        for (i, spec) in config.sources.iter().enumerate() {
            let mut source = PooledSource::build(i, spec, &config).expect("builds");
            for _ in 0..4 {
                source.next_batch().expect("produces");
            }
            after4.push(source.entropy().expect("saturated window"));
        }
        let lo = *after4.iter().min().expect("slots");
        let hi = *after4.iter().max().expect("slots");
        assert!(lo < hi, "presets must score apart for this drill: {after4:?}");
        // One millibit above the lowest scorer: it (and any tie) is
        // demoted, everyone else keeps full weight.
        let threshold =
            EntropyEstimate::from_bits_per_bit(f64::from(lo.millibits() + 1) / 1000.0);
        let demoted: Vec<bool> = after4.iter().map(|&e| e < threshold).collect();

        let mut pool = SourcePool::start(&config, 2).expect("starts");
        pool.set_consumption_policy(ConsumptionPolicy::Weighted { threshold });
        // Cycle 1: no verdict has been consumed yet, so every slot
        // holds full weight — 3 slots x HEALTHY_WEIGHT chunks.
        for _ in 0..12 {
            pool.next_chunk().expect("produces");
        }
        assert_eq!(pool.rounds_completed(), 1);
        // Cycle 2 refills from the published estimates: each slot's
        // share is exactly its weight.
        let cycle: u64 = demoted
            .iter()
            .map(|&d| if d { DEMOTED_WEIGHT } else { HEALTHY_WEIGHT })
            .sum();
        let mut seen = [0u64; 3];
        for _ in 0..cycle {
            seen[pool.next_chunk().expect("produces").source] += 1;
        }
        for (i, &was_demoted) in demoted.iter().enumerate() {
            let want = if was_demoted { DEMOTED_WEIGHT } else { HEALTHY_WEIGHT };
            assert_eq!(seen[i], want, "slot {i} drew the wrong share: {seen:?}");
        }
        assert_eq!(pool.rounds_completed(), 2);
        pool.shutdown();
    }

    #[test]
    fn weighted_stream_is_worker_count_invariant() {
        let config = estimator_config(3);
        let policy = ConsumptionPolicy::Weighted {
            threshold: config.demotion_threshold(),
        };
        let mut reference: Option<Vec<u8>> = None;
        for workers in [1usize, 2, 8] {
            let mut pool = SourcePool::start(&config, workers).expect("starts");
            pool.set_consumption_policy(policy);
            let bytes = pool.read_bytes(256).expect("reads");
            pool.shutdown();
            match &reference {
                None => reference = Some(bytes),
                Some(expected) => {
                    assert_eq!(&bytes, expected, "{workers} workers diverged");
                }
            }
        }
    }

    #[test]
    fn invalid_partitions_are_rejected() {
        let config = small_config(2);
        assert!(SourcePool::start_partition(&config, 0, 0, 1).is_err());
        assert!(SourcePool::start_partition(&config, 2, 2, 1).is_err());
        // A 4-way split of a 2-source pool leaves shards 2 and 3 empty.
        assert!(SourcePool::start_partition(&config, 4, 3, 1).is_err());
    }

    #[test]
    fn invalid_config_fails_fast() {
        let mut config = small_config(2);
        config.batch_raw_bits = 0;
        assert!(matches!(
            SourcePool::start(&config, 1),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn a_failed_source_ends_its_slot_with_a_typed_error() {
        use strent_rings::surrogate::SourceBackend;
        use strentropy::pool::{RingSpec, SourceSpec};

        // At 2.021 periods per sample every batch alarms, so the one
        // source fails its bounded discard streak: the worker's loop
        // ends, and the slot reads as a typed failure, not a stall.
        let mut config = small_config(1);
        config.sources[0] =
            SourceSpec::new(RingSpec::Str32, 2012).with_backend(SourceBackend::Surrogate);
        config.sample_period_factor = 2.021;
        config.claimed_min_entropy = 1.0;
        config.batch_raw_bits = 256;
        config.max_relock_windows = 3;
        let mut pool = SourcePool::start(&config, 1).expect("starts");
        for _ in 0..2 {
            let err = pool.next_chunk().expect_err("the source failed");
            assert!(
                matches!(err, ServeError::SourceFailed { source: 0 }),
                "{err}"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn clamped_slot_is_replaced_and_the_pool_stream_stays_health_clean() {
        use strent_sim::{Bit, FaultPlan};
        use strent_trng::bits::BitString;
        use strent_trng::health;
        use strentropy::pool::{RingSpec, SourceSpec};

        // Slot 0 (STR-32) is clamped low for good from the end of its
        // warmup: it must alarm and be replaced while the pooled stream
        // re-passes the SP 800-90B monitors.
        let mut config = small_config(2);
        config.max_relock_windows = 4;
        let spec = &config.sources[0];
        assert_eq!(spec.ring, RingSpec::Str32);
        let period = spec
            .ring
            .stream_config()
            .predicted_period_ps(&spec.board(0));
        let plan = FaultPlan::new(spec.seed)
            .with_stuck_at("str0", Bit::Low, config.warmup_periods * period, 1e12)
            .expect("valid");
        config.sources[0] = SourceSpec::new(spec.ring, spec.seed).with_fault(plan);

        let mut pool = SourcePool::start(&config, 2).expect("starts");
        let delivered = pool.read_bytes(384).expect("reads through the fault");
        let status = pool.status().to_vec();
        pool.shutdown();
        let alarms: u64 = status.iter().map(|s| s.stats.alarms).sum();
        let replacements: u64 = status.iter().map(|s| s.stats.replacements).sum();
        assert!(alarms >= 1, "the clamp never alarmed: {status:?}");
        assert!(
            replacements >= 1,
            "the dead ring was never replaced: {status:?}"
        );
        let bits = BitString::from_packed(&delivered, delivered.len() * 8);
        let (rct, apt) = health::scan(&bits, config.claimed_min_entropy).expect("valid claim");
        assert_eq!((rct, apt), (0, 0), "delivered bytes are health-clean");
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let config = small_config(2);
        let mut pool = SourcePool::start(&config, 4).expect("starts");
        let _ = pool.read_bytes(8).expect("reads");
        pool.shutdown();
        pool.shutdown();
        drop(pool);
    }
}
