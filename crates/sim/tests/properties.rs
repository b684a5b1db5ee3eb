//! Property-based tests for the simulation engine substrate.

use proptest::prelude::*;

use strent_sim::{Bit, Edge, NetId, SimStats, Simulator, Time, Trace};

/// Event times (or delays) that reach the timing wheel's edge cases:
/// exact ties on a 16 ps grid across 64 ps bucket boundaries, both at
/// the origin and at the 16,384 ps edge of the near window; a dense
/// cluster inside four 64 ps buckets; and a spread far past the window.
fn times() -> impl Strategy<Value = Vec<f64>> {
    let time = (0_u8..4, 0_u32..16, 0.0_f64..256.0, 0.0_f64..1e6).prop_map(
        |(kind, step, cluster, spread)| match kind {
            0 => f64::from(step) * 16.0,
            1 => 16_256.0 + f64::from(step) * 16.0,
            2 => cluster,
            _ => spread,
        },
    );
    prop::collection::vec(time, 1..200)
}

/// A sorted-`Vec` model of the kernel for drives on one net: pending
/// `(time, seq, level)` entries, drained in `(time, seq)` order. It
/// predicts every trace transition and the exact `SimStats`.
#[derive(Default)]
struct Oracle {
    now: Time,
    next_seq: u64,
    pending: Vec<(Time, u64, Bit)>,
    level: Bit,
    transitions: Vec<(Time, Bit)>,
    stats: SimStats,
}

impl Oracle {
    /// Schedules a drive `delay_ps` from now.
    fn inject(&mut self, level: Bit, delay_ps: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push((self.now + delay_ps, seq, level));
    }

    fn run_until(&mut self, horizon: Time) {
        self.pending.sort_by_key(|e| (e.0, e.1));
        let due = self.pending.partition_point(|e| e.0 <= horizon);
        for (time, _, level) in self.pending.drain(..due) {
            self.now = time;
            self.stats.events_processed += 1;
            if level == self.level {
                self.stats.drives_suppressed += 1;
            } else {
                self.level = level;
                self.transitions.push((time, level));
            }
        }
        self.now = self.now.max(horizon);
    }
}

/// The kernel and its oracle, driven call for call by one workload.
struct Lockstep {
    sim: Simulator,
    net: NetId,
    oracle: Oracle,
}

impl Lockstep {
    fn new() -> Self {
        let mut sim = Simulator::new(7);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        Lockstep {
            sim,
            net,
            oracle: Oracle::default(),
        }
    }

    fn inject(&mut self, level: Bit, delay_ps: f64) {
        self.sim.inject(self.net, level, delay_ps).expect("valid");
        self.oracle.inject(level, delay_ps);
    }

    fn run_until(&mut self, horizon_ps: f64) {
        let horizon = Time::from_ps(horizon_ps);
        self.sim.run_until(horizon);
        self.oracle.run_until(horizon);
    }

    /// The kernel's and the oracle's observable outcome: every recorded
    /// transition plus the exact statistics.
    fn outcomes(&self) -> [(Vec<(Time, Bit)>, SimStats); 2] {
        let trace = self.sim.trace(self.net).expect("watched");
        [
            (trace.transitions().to_vec(), self.sim.stats()),
            (self.oracle.transitions.clone(), self.oracle.stats),
        ]
    }
}

proptest! {
    /// The kernel pops any injection workload in exactly the order the
    /// sorted-`Vec` oracle predicts.
    #[test]
    fn kernel_matches_sorted_oracle(ts in times()) {
        let mut run = Lockstep::new();
        let mut level = Bit::Low;
        for &t in &ts {
            level = !level;
            run.inject(level, t);
        }
        run.run_until(2e6);
        let [kernel, oracle] = run.outcomes();
        prop_assert_eq!(kernel, oracle);
    }

    /// A partial run between two injection batches keeps the kernel and
    /// the oracle in agreement: the second batch is scheduled from the
    /// time the first `run_until` left behind, so a kernel that does
    /// not advance to its horizon places it differently.
    #[test]
    fn kernel_matches_sorted_oracle_across_a_partial_run(
        ts in times(),
        split_num in 0_usize..=100,
    ) {
        let split = ts.len() * split_num / 100;
        let mut run = Lockstep::new();
        let mut level = Bit::Low;
        for &t in &ts[..split] {
            level = !level;
            run.inject(level, t);
        }
        run.run_until(5e5);
        for &t in &ts[split..] {
            level = !level;
            run.inject(level, t);
        }
        run.run_until(2e6);
        let [kernel, oracle] = run.outcomes();
        prop_assert_eq!(kernel, oracle);
    }

    /// Trace transitions are always strictly alternating in level and
    /// non-decreasing in time, regardless of the injection pattern.
    #[test]
    fn traces_alternate_and_are_ordered(ts in times(), flips in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut sim = Simulator::new(3);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        for (i, &t) in ts.iter().enumerate() {
            let v = Bit::from(flips[i % flips.len()]);
            sim.inject(net, v, t).expect("valid");
        }
        sim.run_until(Time::from_ps(2e6));
        let trace = sim.trace(net).expect("watched");
        let mut prev_level = trace.initial();
        let mut prev_time = Time::ZERO;
        for &(t, v) in trace.transitions() {
            prop_assert_ne!(v, prev_level, "levels must alternate");
            prop_assert!(t >= prev_time, "time must be monotone");
            prev_level = v;
            prev_time = t;
        }
    }

    /// Rising and falling edge counts differ by at most one, and the
    /// period list is exactly one shorter than the edge list.
    #[test]
    fn edge_counts_are_consistent(ts in times()) {
        let mut sim = Simulator::new(5);
        let net = sim.add_net("n");
        sim.watch(net).expect("net exists");
        let mut level = Bit::Low;
        for &t in &ts {
            level = !level;
            sim.inject(net, level, t).expect("valid");
        }
        sim.run_until(Time::from_ps(2e6));
        let trace = sim.trace(net).expect("watched");
        let rising = trace.rising_edges().len();
        let falling = trace.falling_edges().len();
        prop_assert!(rising.abs_diff(falling) <= 1);
        if rising >= 1 {
            prop_assert_eq!(trace.periods(Edge::Rising).len(), rising - 1);
        }
    }

    /// `value_at` agrees with a naive scan of the transition list.
    #[test]
    fn value_at_matches_linear_scan(
        transitions in prop::collection::vec((0.0_f64..1e4, any::<bool>()), 0..100),
        query in 0.0_f64..1.2e4,
    ) {
        let mut trace = Trace::new(Bit::Low);
        let mut sorted = transitions;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, v) in &sorted {
            trace.record(Time::from_ps(*t), Bit::from(*v));
        }
        let fast = trace.value_at(Time::from_ps(query));
        let mut slow = trace.initial();
        for &(t, v) in trace.transitions() {
            if t <= Time::from_ps(query) {
                slow = v;
            }
        }
        prop_assert_eq!(fast, slow);
    }

    /// VCD export/parse round-trips every recorded transition for any
    /// injection pattern.
    #[test]
    fn vcd_round_trip(ts in times()) {
        let mut sim = Simulator::new(11);
        let net = sim.add_net("sig");
        sim.watch(net).expect("net exists");
        let mut level = Bit::Low;
        for &t in &ts {
            level = !level;
            sim.inject(net, level, t).expect("valid");
        }
        sim.run_until(Time::from_ps(2e6));
        let mut out = Vec::new();
        sim.write_vcd(&mut out, "prop").expect("write to Vec");
        let doc = strent_sim::vcd::parse_vcd(&String::from_utf8(out).expect("ascii"))
            .expect("parses");
        let trace = sim.trace(net).expect("watched");
        prop_assert_eq!(doc.changes.len(), trace.len());
        for (change, &(t, v)) in doc.changes.iter().zip(trace.transitions()) {
            prop_assert_eq!(change.0, (t.as_ps() * 1e3).round() as u64);
            prop_assert_eq!(change.2, v);
        }
    }

    /// Two simulators with the same seed and workload produce identical
    /// event statistics (determinism).
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), ts in times()) {
        fn run(seed: u64, ts: &[f64]) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            let net = sim.add_net("n");
            let mut level = Bit::Low;
            for &t in ts {
                level = !level;
                sim.inject(net, level, t).expect("valid");
            }
            sim.run_until(Time::from_ps(2e6));
            (sim.stats().events_processed, sim.stats().drives_suppressed)
        }
        prop_assert_eq!(run(seed, &ts), run(seed, &ts));
    }
}
