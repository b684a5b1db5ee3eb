//! The pending-event set: a two-level timing wheel.
//!
//! Events pop in `(time, sequence)` order, where ties in time are broken
//! by the monotonically increasing insertion sequence number. The order
//! is pinned by unit tests here against a sorted-`Vec` oracle and by the
//! property suite in `crates/sim/tests/properties.rs`.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::event::Occurrence;
use crate::Time;

/// A queued occurrence with its scheduled time and tie-breaking sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScheduledEvent {
    /// When the event fires.
    pub(crate) time: Time,
    /// Insertion sequence number — the deterministic tie-break.
    pub(crate) seq: u64,
    /// What happens.
    pub(crate) occurrence: Occurrence,
}

impl ScheduledEvent {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A lazily sorted event bucket of the [`WheelQueue`].
///
/// Events accumulate unsorted; the first pop after a push sorts the
/// bucket **descending** by `(time, seq)` so the minimum sits at the
/// tail and `Vec::pop` drains it in O(1). Keys are unique (sequence
/// numbers never repeat), so the unstable sort is deterministic.
#[derive(Debug, Default)]
struct LazyBucket {
    events: Vec<ScheduledEvent>,
    sorted: bool,
}

impl LazyBucket {
    #[inline]
    fn push(&mut self, event: ScheduledEvent) {
        self.events.push(event);
        self.sorted = false;
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Establishes the descending order if a push disturbed it.
    #[inline]
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // Ring workloads leave only one or two events per bucket;
            // handle those without the sort-call overhead.
            match self.events.len() {
                0 | 1 => {}
                2 => {
                    if self.events[0].cmp(&self.events[1]) == std::cmp::Ordering::Less {
                        self.events.swap(0, 1);
                    }
                }
                _ => self.events.sort_unstable_by(|a, b| b.cmp(a)),
            }
            self.sorted = true;
        }
    }

    /// Sorts if needed and returns the earliest event in the bucket.
    #[inline]
    fn ensure_min(&mut self) -> Option<&ScheduledEvent> {
        self.ensure_sorted();
        self.events.last()
    }

    /// Pops the earliest event; callers must have a non-empty bucket.
    #[inline]
    fn pop_min(&mut self) -> ScheduledEvent {
        debug_assert!(self.sorted, "pop_min follows ensure_min");
        self.events.pop().expect("bucket is non-empty")
    }
}

/// Number of near-window buckets in a [`WheelQueue`] (power of two).
const WHEEL_SLOTS: usize = 256;

/// Width of one wheel bucket: 64 ps, a fraction of one gate delay, so
/// consecutive ring events land a few buckets ahead of the cursor and
/// rarely force a re-sort of the bucket being drained. A power of two,
/// so its reciprocal is exact and bucket indices are bit-identical to
/// dividing by the width.
const BUCKET_WIDTH_PS: f64 = 64.0;

/// Two-level timing wheel — the simulator's pending-event set.
///
/// The **near window** is a ring of [`WHEEL_SLOTS`] buckets of
/// [`BUCKET_WIDTH_PS`] picoseconds each, covering the time span right
/// ahead of the cursor; events beyond it overflow into a **far** map of
/// coarse buckets keyed by absolute bucket index. Ring-oscillator
/// workloads schedule every event at most a few gate delays ahead, so
/// in steady state every push and pop touches only the near ring:
///
/// * `push` is a multiply, a mask and a `Vec::push` — O(1), and after
///   warm-up allocation-free (bucket vectors retain their capacity);
/// * `pop_at_or_before` pops the tail of the current bucket — O(1)
///   amortized, with one O(k log k) lazy sort per bucket generation
///   (k = events that landed in the bucket);
/// * far-window events (long timers) pay one `BTreeMap` operation each,
///   amortized into the window advance.
///
/// # Determinism
///
/// Pop order is exactly `(time, sequence)`: bucket indices are a
/// monotone function of time, so cross-bucket order is correct by
/// construction, and within a bucket the lazy sort orders by the full
/// key. A push whose time quantizes to a bucket the cursor already
/// passed (possible only through floating-point edge cases, since event
/// times are never earlier than the last popped time) is clamped to the
/// cursor bucket, which preserves the pop order — see the proof sketch
/// in `docs/engine_perf.md`.
#[derive(Debug)]
pub(crate) struct WheelQueue {
    /// The near ring; bucket for absolute index `b` lives at
    /// `b % WHEEL_SLOTS`.
    slots: Box<[LazyBucket]>,
    /// Absolute bucket index of the cursor (earliest possibly non-empty
    /// near bucket).
    cur: u64,
    /// Overflow: absolute bucket index -> events, for buckets at or
    /// beyond `cur + WHEEL_SLOTS`.
    far: BTreeMap<u64, Vec<ScheduledEvent>>,
    /// Events in the near ring.
    near_len: usize,
    /// Total pending events (near + far).
    len: usize,
}

impl WheelQueue {
    /// Creates an empty wheel.
    pub(crate) fn new() -> Self {
        let mut slots = Vec::with_capacity(WHEEL_SLOTS);
        slots.resize_with(WHEEL_SLOTS, LazyBucket::default);
        WheelQueue {
            slots: slots.into_boxed_slice(),
            cur: 0,
            far: BTreeMap::new(),
            near_len: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Absolute bucket index of an instant. Monotone in `time`;
    /// saturates at 0 for (theoretical) negative instants.
    #[inline]
    fn bucket_of(time: Time) -> u64 {
        // Multiplying by the exact reciprocal beats a division on the
        // push hot path. `as` saturates: negatives -> 0, huge -> u64::MAX.
        (time.as_ps() * BUCKET_WIDTH_PS.recip()) as u64
    }

    #[inline]
    fn slot_of(bucket: u64) -> usize {
        (bucket % WHEEL_SLOTS as u64) as usize
    }

    /// Advances the cursor past its (empty) bucket, pulling in the far
    /// bucket that just entered the near window, if any.
    fn advance(&mut self) {
        debug_assert!(self.slots[Self::slot_of(self.cur)].is_empty());
        self.cur += 1;
        let entering = self.cur + WHEEL_SLOTS as u64 - 1;
        if let Some(events) = self.far.remove(&entering) {
            let bucket = &mut self.slots[Self::slot_of(entering)];
            debug_assert!(bucket.is_empty());
            self.near_len += events.len();
            bucket.events = events;
            bucket.sorted = false;
        }
    }

    /// Repositions the cursor when the near ring is empty: jumps to the
    /// earliest far bucket and pulls every far bucket inside the new
    /// window into the ring.
    fn refill_from_far(&mut self) {
        debug_assert_eq!(self.near_len, 0);
        let Some((&first, _)) = self.far.iter().next() else {
            return;
        };
        self.cur = first;
        let window_end = self.cur + WHEEL_SLOTS as u64;
        while let Some((&b, _)) = self.far.iter().next() {
            if b >= window_end {
                break;
            }
            let events = self.far.remove(&b).expect("key just observed");
            let bucket = &mut self.slots[Self::slot_of(b)];
            debug_assert!(bucket.is_empty());
            self.near_len += events.len();
            bucket.events = events;
            bucket.sorted = false;
        }
    }

    /// Positions the cursor on the next non-empty bucket, sorts it, and
    /// returns it, or `None` when the queue is empty. The bucket's
    /// minimum sits at the vector tail.
    #[inline]
    fn min_bucket(&mut self) -> Option<&mut LazyBucket> {
        if self.len == 0 {
            return None;
        }
        if self.near_len == 0 {
            self.refill_from_far();
        }
        while self.slots[Self::slot_of(self.cur)].is_empty() {
            self.advance();
        }
        let bucket = &mut self.slots[Self::slot_of(self.cur)];
        bucket.ensure_sorted();
        Some(bucket)
    }

    /// Inserts an event. The event's time is never earlier than the
    /// time of the most recently popped event (simulation time is
    /// monotone).
    #[inline]
    pub(crate) fn push(&mut self, event: ScheduledEvent) {
        // Clamping to the cursor bucket keeps the order invariant even
        // if quantization places the event behind the cursor (event
        // times are never earlier than the last popped time, so the
        // clamp can only be triggered by float rounding at a bucket
        // boundary or by a cursor parked ahead after a bounded pop).
        let bucket = Self::bucket_of(event.time).max(self.cur);
        if bucket < self.cur + WHEEL_SLOTS as u64 {
            self.slots[Self::slot_of(bucket)].push(event);
            self.near_len += 1;
        } else {
            self.far.entry(bucket).or_default().push(event);
        }
        self.len += 1;
    }

    /// Removes and returns the earliest event **only if** it fires at
    /// or before `horizon`; otherwise removes nothing and returns
    /// `None` (the cursor may still park on the earliest bucket).
    ///
    /// This is the hot-path primitive behind
    /// [`Simulator::run_until`](crate::Simulator::run_until): one call
    /// per event locates the minimum once, instead of a peek + pop pair.
    #[inline]
    pub(crate) fn pop_at_or_before(&mut self, horizon: Time) -> Option<ScheduledEvent> {
        let bucket = self.min_bucket()?;
        if bucket.ensure_min().expect("bucket is non-empty").time > horizon {
            return None;
        }
        let event = bucket.pop_min();
        self.near_len -= 1;
        self.len -= 1;
        Some(event)
    }

    /// Removes and returns the earliest event, or `None` when empty.
    #[cfg(test)]
    fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_at_or_before(Time::from_ps(f64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{Bit, NetId};

    fn ev(time: f64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: Time::from_ps(time),
            seq,
            occurrence: Occurrence::DriveNet {
                net: NetId(0),
                value: Bit::High,
            },
        }
    }

    fn drain(queue: &mut WheelQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = queue.pop() {
            out.push((e.time.as_ps(), e.seq));
        }
        out
    }

    #[test]
    fn wheel_orders_by_time_then_sequence() {
        let mut q = WheelQueue::new();
        q.push(ev(5.0, 1));
        q.push(ev(1.0, 2));
        q.push(ev(5.0, 0));
        q.push(ev(3.0, 3));
        q.push(ev(0.0, 9));
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![(0.0, 9), (1.0, 2), (3.0, 3), (5.0, 0), (5.0, 1)]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wheel_crosses_near_far_boundary() {
        // Events straddling the near window (256 buckets x 64 ps =
        // 16384 ps) must pop in global order: far buckets are pulled in
        // as the cursor advances.
        let mut q = WheelQueue::new();
        let times = [
            0.5, 100.0, 16_383.9, 16_384.0, 20_000.0, 1e6, 2e6, 2e6 + 1.0,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(ev(t, i as u64));
        }
        let drained = drain(&mut q);
        let got: Vec<f64> = drained.iter().map(|&(t, _)| t).collect();
        let mut want = times.to_vec();
        want.sort_by(f64::total_cmp);
        assert_eq!(got, want);
    }

    #[test]
    fn wheel_interleaves_push_and_pop() {
        // Popping then pushing events near the cursor (including into
        // the bucket currently being drained) keeps the order exact.
        let mut q = WheelQueue::new();
        q.push(ev(5.0, 0));
        q.push(ev(6.0, 1));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // Same bucket as the one just drained from.
        q.push(ev(5.5, 2));
        q.push(ev(7.0, 3));
        assert_eq!(
            drain(&mut q),
            vec![(5.5, 2), (6.0, 1), (7.0, 3)]
        );
    }

    /// Invariant test (simlint relies on it): a push whose time
    /// quantizes to a bucket the cursor already passed is clamped to
    /// the cursor bucket, and the (time, seq) pop order survives. The
    /// cursor parks ahead when the queue drains (it stays at the bucket
    /// of the last popped event), so a subsequent push at an earlier
    /// wall-clock time — legal only through float rounding at a bucket
    /// boundary, but exercised here directly — must not vanish behind
    /// the cursor or pop out of order.
    #[test]
    fn wheel_clamps_push_behind_parked_cursor() {
        let mut q = WheelQueue::new();
        // Park the cursor deep into the ring: pop an event at
        // t=12805 (bucket 200), leaving `cur` = 200 with an empty queue.
        q.push(ev(12_805.0, 0));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert_eq!(q.len(), 0);
        // These quantize to buckets 0 and 1 — far behind the cursor —
        // and must clamp into bucket 200 while keeping (time, seq)
        // order among themselves and against an in-window push.
        q.push(ev(100.0, 3));
        q.push(ev(5.0, 2));
        q.push(ev(12_870.0, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(5.0, 2), (100.0, 3), (12_870.0, 1)]);
    }

    /// Invariant test: the clamp also holds when the cursor was parked
    /// by a *bounded* pop (`pop_at_or_before` advancing to a non-empty
    /// bucket without consuming it) rather than by draining the queue.
    #[test]
    fn wheel_clamp_after_bounded_pop_keeps_order() {
        let mut q = WheelQueue::new();
        q.push(ev(3_200.0, 0));
        // The bounded pop repositions the cursor onto bucket 50 (the
        // earliest non-empty one) and returns nothing.
        assert!(q.pop_at_or_before(Time::from_ps(640.0)).is_none());
        // Bucket 3 quantization — behind the parked cursor.
        q.push(ev(192.0, 1));
        assert_eq!(
            drain(&mut q),
            vec![(192.0, 1), (3_200.0, 0)],
            "clamped event still pops before the later in-window event"
        );
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = WheelQueue::new();
        q.push(ev(10.0, 0));
        q.push(ev(20.0, 1));
        assert!(q.pop_at_or_before(Time::from_ps(9.0)).is_none());
        assert_eq!(q.len(), 2, "bounded pop must not consume");
        assert_eq!(
            q.pop_at_or_before(Time::from_ps(10.0)).map(|e| e.seq),
            Some(0)
        );
        assert!(q.pop_at_or_before(Time::from_ps(15.0)).is_none());
        assert_eq!(
            q.pop_at_or_before(Time::from_ps(1e9)).map(|e| e.seq),
            Some(1)
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wheel_single_bucket_drains_in_loglinear_time() {
        // Regression guard for an O(k^2) bucket pop (a linear min-scan
        // per pop): 30_000 events in ONE 64 ps bucket would cost ~4.5e8
        // key comparisons to drain; the lazily sorted bucket needs one
        // O(k log k) sort. The generous wall-clock bound only trips on
        // a quadratic regression, not on machine noise.
        const EVENTS: u64 = 30_000;
        let mut q = WheelQueue::new();
        for seq in (0..EVENTS).rev() {
            q.push(ev(seq as f64 * (BUCKET_WIDTH_PS / EVENTS as f64), seq));
        }
        assert_eq!(q.near_len, EVENTS as usize);
        assert_eq!(q.slots[0].events.len(), EVENTS as usize, "one bucket");
        let started = std::time::Instant::now();
        let drained = drain(&mut q);
        assert_eq!(drained.len(), EVENTS as usize);
        assert!(
            drained.windows(2).all(|w| w[0] <= w[1]),
            "sorted drain order"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "single-bucket drain took {:?} — quadratic pop is back",
            started.elapsed()
        );
    }

    /// One step of a 64-bit LCG, returning the well-mixed high bits.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn wheel_matches_sorted_vec_oracle() {
        // Deterministic pseudo-random interleaving of pushes, pops and
        // bounded pops, driven the way the simulator drives the wheel:
        // pushes land at `now + delay`, a pop advances `now` to the
        // event, a bounded pop that returns nothing advances `now` to
        // its horizon (parking the cursor ahead). Delays are mostly a
        // few buckets, with some past the 16,384 ps near window.
        let mut wheel = WheelQueue::new();
        // Ascending by (time, seq): the oracle's minimum is its head.
        let mut oracle: Vec<(f64, u64)> = Vec::new();
        let mut now = 0.0_f64;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for seq in 0..20_000 {
            let roll = lcg(&mut state);
            match roll % 8 {
                0..=3 => {
                    let delay = match lcg(&mut state) % 16 {
                        0 => (lcg(&mut state) % 100_000) as f64,
                        1 => 0.0,
                        _ => (lcg(&mut state) % 512) as f64 / 4.0,
                    };
                    let key = (now + delay, seq);
                    wheel.push(ev(key.0, key.1));
                    let at = oracle.partition_point(|&entry| entry < key);
                    oracle.insert(at, key);
                }
                4 | 5 => {
                    let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                    let got = wheel.pop().map(|e| (e.time.as_ps(), e.seq));
                    assert_eq!(got, want, "pop #{seq}");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                _ => {
                    let horizon = now + (lcg(&mut state) % 1_024) as f64;
                    let due = oracle.first().is_some_and(|&(t, _)| t <= horizon);
                    let want = due.then(|| oracle.remove(0));
                    let got = wheel
                        .pop_at_or_before(Time::from_ps(horizon))
                        .map(|e| (e.time.as_ps(), e.seq));
                    assert_eq!(got, want, "bounded pop #{seq}");
                    now = got.map_or(horizon, |(t, _)| t);
                }
            }
            assert_eq!(wheel.len(), oracle.len());
        }
        assert_eq!(drain(&mut wheel), oracle);
    }

    #[test]
    fn wheel_reuses_bucket_capacity() {
        // Steady-state pushes into the near window must not reallocate:
        // drain a bucket, push into it again, and the capacity is
        // retained (zero-allocation dispatch hot path).
        let mut q = WheelQueue::new();
        for i in 0..8 {
            q.push(ev(5.0, i));
        }
        while q.pop().is_some() {}
        let cap_before: usize = q.slots.iter().map(|b| b.events.capacity()).sum();
        assert!(cap_before >= 8, "drained buckets keep their capacity");
        for i in 0..8 {
            q.push(ev(5.0, 100 + i));
        }
        let cap_after: usize = q.slots.iter().map(|b| b.events.capacity()).sum();
        assert_eq!(cap_before, cap_after, "no reallocation on refill");
    }
}
