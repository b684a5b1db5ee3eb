//! Simulation-engine benches:
//!
//! * kernel dispatch cost across small/medium/large IRO and STR
//!   workloads (ring family and pending-set size);
//! * event-driven simulation vs the closed-form analytic model.
//!
//! `docs/engine_perf.md` explains how these workloads relate to the
//! `BENCH_engine.json` numbers emitted by `bench_sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use strent_device::{Board, Technology};
use strent_rings::{analytic, iro, str_ring, IroConfig, StrConfig};
use strent_sim::{Simulator, Time};

/// IRO lengths for the size sweep (inverting rings must be odd, so
/// "3/32/96-stage" maps to 3/33/95).
const IRO_STAGES: [usize; 3] = [3, 33, 95];
/// STR stage counts for the size sweep (tokens = stages/2 keeps the
/// ring in the evenly-spaced regime at every size).
const STR_STAGES: [usize; 3] = [8, 32, 96];

fn board() -> Board {
    Board::new(Technology::cyclone_iii(), 0, 7)
}

fn run_iro(seed: u64, board: &Board, stages: usize) -> u64 {
    let mut sim = Simulator::new(seed);
    let config = IroConfig::new(stages).expect("valid length");
    let handle = iro::build(&config, board, &mut sim).expect("wires");
    sim.watch(handle.output()).expect("net exists");
    sim.run_until(Time::from_us(1.0)).expect("no limit");
    sim.stats().events_processed
}

fn run_str(seed: u64, board: &Board, stages: usize) -> u64 {
    let mut sim = Simulator::new(seed);
    let config = StrConfig::new(stages, stages / 2).expect("valid counts");
    let handle = str_ring::build(&config, board, &mut sim).expect("wires");
    sim.watch(handle.output()).expect("net exists");
    sim.run_until(Time::from_us(1.0)).expect("no limit");
    sim.stats().events_processed
}

fn bench_ring_sizes(c: &mut Criterion) {
    let board = board();
    let mut group = c.benchmark_group("engine/rings");
    for stages in IRO_STAGES {
        group.bench_function(&format!("iro{stages}_1us"), |b| {
            b.iter(|| run_iro(black_box(7), &board, stages));
        });
    }
    for stages in STR_STAGES {
        group.bench_function(&format!("str{stages}_1us"), |b| {
            b.iter(|| run_str(black_box(7), &board, stages));
        });
    }
    group.finish();
}

fn bench_analytic_vs_event(c: &mut Criterion) {
    let board = board();
    let mut group = c.benchmark_group("engine/analytic");
    let config = StrConfig::new(96, 48).expect("valid counts");
    group.bench_function("analytic_str96_period", |b| {
        b.iter(|| analytic::str_period_ps(black_box(&config), &board));
    });
    group.bench_function("event_driven_str96_100_periods", |b| {
        b.iter(|| {
            strent_rings::measure::run_str(black_box(&config), &board, 7, 100)
                .expect("oscillates")
                .frequency_mhz
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ring_sizes, bench_analytic_vs_event);
criterion_main!(benches);
