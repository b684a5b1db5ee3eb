//! Seed-deterministic chaos injection for the supervision drills.
//!
//! A [`ChaosPlan`] derives every injection parameter — which pool slot's
//! worker panics and after how many delivered batches, after which
//! request the scheduler panics or stalls, how a misbehaving socket
//! client misbehaves — from one seed with splitmix64 steps. No
//! wall-clock or OS randomness is consulted, so a drill replays
//! identically run after run, and the `serve_chaos` bench can assert
//! that deterministic-mode served bytes are byte-identical with chaos
//! on and off.
//!
//! Server-side faults land only at clean boundaries. A scheduler fault
//! is a [`ChaosAction`] message queued by
//! [`EntropyService::inject`](crate::EntropyService::inject): it fires
//! when the unit handles it, between messages, never mid-grant. The
//! worker-panic hook (`SourceSpec::panic_after_batches`) fires between
//! batches, after the previous batch was delivered. Combined with
//! survivor state held outside the unwind boundary
//! ([`crate::supervisor::supervise`]) this is what makes recovery
//! byte-transparent.

use std::time::Duration;

use strent_sim::rng::splitmix64;

/// Every parameter of one chaos drill, derived deterministically from
/// the seed. The server-side fields say which faults a drill injects
/// and when; the client-side fields script the misbehaving socket
/// clients the `serve_chaos` bench runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed everything below is derived from.
    pub seed: u64,
    /// Pool slot whose worker receives the one-shot panic trigger.
    pub worker_panic_source: usize,
    /// Batches that slot delivers before its worker panics once.
    pub worker_panic_after_batches: u64,
    /// Requests a drill client completes before it queues one
    /// scheduler panic.
    pub scheduler_panic_after_request: u64,
    /// Requests a drill client completes before it queues one
    /// scheduler stall.
    pub scheduler_stall_after_request: u64,
    /// Length of the injected stall, milliseconds.
    pub stall_ms: u64,
    /// An opcode no frame handler knows (poison-frame drill).
    pub malformed_opcode: u8,
    /// Bytes of a frame header a partial-write client sends before
    /// dropping the connection mid-frame (always inside the 5-byte
    /// header).
    pub partial_write_len: usize,
    /// Requests a mid-stream-disconnect client completes before
    /// vanishing with one still outstanding.
    pub disconnect_after_requests: usize,
}

impl ChaosPlan {
    /// Derives a full plan from `seed`.
    #[must_use]
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        let worker_panic_source = (next() % 4) as usize;
        let worker_panic_after_batches = 1 + next() % 3;
        let scheduler_panic_after_request = 2 + next() % 5;
        let scheduler_stall_after_request = scheduler_panic_after_request + 3 + next() % 5;
        let stall_ms = 10 + next() % 25;
        // 0x40..0x5F: disjoint from every request (0x0x) and reply
        // (0x8x) opcode the protocol defines.
        #[allow(clippy::cast_possible_truncation)]
        let malformed_opcode = 0x40 | (next() % 0x20) as u8;
        let partial_write_len = 1 + (next() % 4) as usize;
        let disconnect_after_requests = 1 + (next() % 3) as usize;
        ChaosPlan {
            seed,
            worker_panic_source,
            worker_panic_after_batches,
            scheduler_panic_after_request,
            scheduler_stall_after_request,
            stall_ms,
            malformed_opcode,
            partial_write_len,
            disconnect_after_requests,
        }
    }
}

/// A scheduler fault, queued by
/// [`EntropyService::inject`](crate::EntropyService::inject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Panic with an "injected" payload — the supervised restart path.
    Panic,
    /// Sleep for the given duration — the wedged-unit/liveness path.
    Stall(Duration),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_distinct() {
        let a = ChaosPlan::derive(7);
        let b = ChaosPlan::derive(7);
        assert_eq!(a, b, "same seed, same plan");
        let c = ChaosPlan::derive(8);
        assert_ne!(a, c, "different seeds diverge");
        // Structural invariants every plan must satisfy.
        for seed in 0..64u64 {
            let plan = ChaosPlan::derive(seed);
            assert!(plan.scheduler_stall_after_request > plan.scheduler_panic_after_request);
            assert!((0x40..0x60).contains(&plan.malformed_opcode));
            assert!((1..5).contains(&plan.partial_write_len), "inside the header");
            assert!(plan.worker_panic_after_batches >= 1);
            assert!(plan.disconnect_after_requests >= 1);
        }
    }
}
