//! Property-based tests for the ring models: the token/bubble algebra's
//! invariants and the Charlie model's structural guarantees.

use proptest::prelude::*;

use strent_rings::{CharlieModel, StrState};

/// Valid `(length, token count)` pairs for a self-timed ring.
fn ring_counts() -> impl Strategy<Value = (usize, usize)> {
    (3usize..64).prop_flat_map(|len| {
        let max_pairs = (len - 1) / 2;
        (Just(len), 1..=max_pairs.max(1)).prop_map(|(len, pairs)| (len, 2 * pairs))
    })
}

proptest! {
    /// Token and bubble counts always satisfy the construction and the
    /// oscillation conditions.
    #[test]
    fn construction_counts_are_exact((len, nt) in ring_counts()) {
        for state in [
            StrState::with_spread_tokens(len, nt).expect("valid"),
            StrState::with_clustered_tokens(len, nt).expect("valid"),
        ] {
            prop_assert_eq!(state.token_count(), nt);
            prop_assert_eq!(state.bubble_count(), len - nt);
            prop_assert!(state.satisfies_oscillation_conditions());
            prop_assert_eq!(state.occupancy_string().len(), len);
        }
    }

    /// Tokens are conserved under ANY firing schedule, and a live ring
    /// never deadlocks (some stage is always enabled).
    #[test]
    fn token_conservation_under_arbitrary_schedules(
        (len, nt) in ring_counts(),
        schedule in prop::collection::vec(any::<usize>(), 1..300),
    ) {
        let mut state = StrState::with_spread_tokens(len, nt).expect("valid");
        for pick in schedule {
            let enabled = state.enabled_stages();
            prop_assert!(!enabled.is_empty(), "deadlock in a live ring");
            state.fire(enabled[pick % enabled.len()]).expect("enabled");
            prop_assert_eq!(state.token_count(), nt, "token conservation");
        }
    }

    /// Firing a stage moves exactly one token one stage forward.
    #[test]
    fn firing_advances_one_token((len, nt) in ring_counts(), pick in any::<usize>()) {
        let mut state = StrState::with_clustered_tokens(len, nt).expect("valid");
        let enabled = state.enabled_stages();
        prop_assume!(!enabled.is_empty());
        let stage = enabled[pick % enabled.len()];
        let before = state.token_positions();
        state.fire(stage).expect("enabled");
        let after = state.token_positions();
        // Exactly the fired stage lost its token; stage+1 gained one.
        prop_assert!(before.contains(&stage));
        prop_assert!(!after.contains(&stage));
        prop_assert!(after.contains(&((stage + 1) % len)));
        prop_assert_eq!(after.len(), before.len());
    }

    /// Enabled stages are never adjacent (the structural fact that lets
    /// a stage's scheduled firing stand: no neighbour can disable it
    /// before it fires, so the simulator never retracts an event).
    #[test]
    fn enabled_stages_are_never_adjacent(
        (len, nt) in ring_counts(),
        schedule in prop::collection::vec(any::<usize>(), 0..100),
    ) {
        let mut state = StrState::with_spread_tokens(len, nt).expect("valid");
        for pick in schedule {
            let enabled = state.enabled_stages();
            for &i in &enabled {
                prop_assert!(!enabled.contains(&((i + 1) % len)), "adjacent enabled stages");
            }
            if !enabled.is_empty() {
                state.fire(enabled[pick % enabled.len()]).expect("enabled");
            }
        }
    }

    /// The Charlie delay (Eq. 3) is even, minimized at s = 0, monotone
    /// in |s|, and asymptotically linear.
    #[test]
    fn charlie_delay_shape(
        ds in 10.0_f64..1000.0,
        dch in 0.0_f64..500.0,
        s in -5_000.0_f64..5_000.0,
    ) {
        let model = CharlieModel::new(ds, dch).expect("valid");
        prop_assert!((model.charlie_delay(s) - model.charlie_delay(-s)).abs() < 1e-9);
        prop_assert!(model.charlie_delay(s) >= model.charlie_delay(0.0) - 1e-9);
        prop_assert!(model.charlie_delay(s) >= ds + s.abs() - 1e-9);
        prop_assert!(model.charlie_delay(s) <= ds + dch + s.abs() + 1e-9);
    }

    /// The output-time form is causal and symmetric in its inputs.
    #[test]
    fn charlie_output_time_is_causal(
        ds in 10.0_f64..1000.0,
        dch in 0.0_f64..500.0,
        t1 in 0.0_f64..1e6,
        t2 in 0.0_f64..1e6,
    ) {
        let model = CharlieModel::new(ds, dch).expect("valid");
        let out = model.output_time(t1, t2);
        prop_assert!(out >= t1.max(t2) + ds - 1e-6, "causality");
        prop_assert!((out - model.output_time(t2, t1)).abs() < 1e-6, "symmetry");
    }

    /// Invalid configurations are rejected exhaustively.
    #[test]
    fn invalid_counts_rejected(len in 3usize..64, odd in 0usize..31) {
        let nt = 2 * odd + 1; // always odd
        prop_assert!(StrState::with_spread_tokens(len, nt).is_err());
        prop_assert!(StrState::with_spread_tokens(len, 0).is_err());
        prop_assert!(StrState::with_spread_tokens(len, len).is_err());
    }
}
