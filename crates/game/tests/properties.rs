//! Property-based tests of the game engine: whatever the strategies,
//! seeds and environment composition, the accounting must balance.

use ahn_game::{game::Scratch, play_game, Arena, GameConfig, Tournament};
use ahn_net::{NodeId, PathMode};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An arbitrary population of 13-bit strategies.
fn strategies(n: usize) -> impl proptest::strategy::Strategy<Value = Vec<ahn_strategy::Strategy>> {
    proptest::collection::vec(0u16..(1 << 13), n).prop_map(|codes| {
        codes
            .into_iter()
            .map(ahn_strategy::Strategy::decode)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every member of the reconstruction family — at any scale —
    /// satisfies the §4.2 prose constraints and survives a serde
    /// round-trip exactly (the calibration engine and the serve
    /// protocol both rely on the round-trip being lossless).
    #[test]
    fn reconstruction_candidates_hold_constraints_and_roundtrip(
        pick in any::<u64>(),
        scale_idx in 0usize..4,
    ) {
        let family = ahn_game::enumerate_reconstructions();
        prop_assert!(family.len() >= 20, "family too small: {}", family.len());
        let table = family[(pick % family.len() as u64) as usize];
        let scale = [0.5, 1.0, 2.0, 4.0][scale_idx];
        let scaled = table.scaled_intermediate(scale);
        scaled.check_paper_constraints().unwrap();
        let json = serde_json::to_string(&scaled).unwrap();
        let back: ahn_game::PayoffConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(scaled, back);
    }

    /// After any batch of games: per-event payoff accounting balances,
    /// reputation invariants hold, and the metrics are consistent.
    #[test]
    fn arbitrary_populations_keep_the_books(
        strats in strategies(8),
        csn in 0usize..4,
        seed in any::<u64>(),
        mode in prop_oneof![Just(PathMode::Shorter), Just(PathMode::Longer)],
    ) {
        let n_normal = strats.len();
        let mut arena = Arena::new(strats, csn, GameConfig::paper(mode), 1);
        let ids: Vec<NodeId> = (0..(n_normal + csn) as u32).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = Scratch::default();

        let games = 120usize;
        for i in 0..games {
            let source = ids[i % ids.len()];
            let report = play_game(&mut arena, &mut rng, &ids, i % ids.len(), 0, &mut scratch);
            // The report itself is sane.
            prop_assert!(!scratch.last_path().contains(&source));
            prop_assert!(!scratch.last_path().contains(&report.destination));
            prop_assert_eq!(report.hops, scratch.last_path().len() + 1);
            prop_assert_ne!(report.destination, source);
        }

        arena.reputation.check_invariants().unwrap();
        let m = arena.metrics.env(0);
        prop_assert!(m.nn_delivered <= m.nn_games);
        prop_assert!(m.nn_csn_free_path <= m.nn_games);
        prop_assert!(m.nn_games <= games as u64);

        // Every played game produced exactly one source event.
        let source_event_count: f64 = arena.payoffs.iter().map(|p| p.ne as f64).sum();
        prop_assert!(source_event_count >= games as f64, "every game pays the source");

        // Request fractions sum to 1 on any non-empty side.
        for side in [m.from_nn, m.from_csn] {
            if side.total() > 0 {
                let (a, b, c) = side.fractions();
                prop_assert!((a + b + c - 1.0).abs() < 1e-9);
            }
        }

        // Energy: transmissions never exceed receptions + sourced games
        // (every forward is rx+tx, sources tx without rx).
        for ledger in &arena.energy {
            prop_assert!(ledger.tx_packets <= ledger.rx_packets + games as u64);
        }
    }

    /// Tournament bookkeeping: every participant sources exactly R games,
    /// whatever the strategies.
    #[test]
    fn tournament_source_counts(
        strats in strategies(6),
        seed in any::<u64>(),
        rounds in 1usize..12,
    ) {
        let mut arena = Arena::new(strats, 2, GameConfig::paper(PathMode::Shorter), 1);
        let ids: Vec<NodeId> = (0..8u32).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tournament::new(rounds).run(&mut arena, &mut rng, &ids, 0);

        // Each of the 8 participants sourced exactly `rounds` packets:
        // total source payoffs count = 8 * rounds, and nn_games counts
        // the 6 normal ones.
        prop_assert_eq!(arena.metrics.env(0).nn_games, 6 * rounds as u64);
        // Each node's tx count >= its source count (it always transmits
        // when sourcing).
        for i in 0..8 {
            prop_assert!(arena.energy[i].tx_packets >= rounds as u64);
        }
    }

    /// Determinism: identical seeds and populations give identical
    /// histories regardless of strategy content.
    #[test]
    fn games_are_deterministic(strats in strategies(6), seed in any::<u64>()) {
        let run = |strats: Vec<ahn_strategy::Strategy>, seed: u64| {
            let mut arena = Arena::new(strats, 1, GameConfig::paper(PathMode::Longer), 1);
            let ids: Vec<NodeId> = (0..7u32).map(NodeId).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut scratch = Scratch::default();
            for i in 0..50 {
                play_game(&mut arena, &mut rng, &ids, i % 7, 0, &mut scratch);
            }
            (arena.fitnesses(), *arena.metrics.env(0))
        };
        prop_assert_eq!(run(strats.clone(), seed), run(strats, seed));
    }

    /// Fitness is always within the payoff table's hull.
    #[test]
    fn fitness_is_bounded(strats in strategies(8), seed in any::<u64>()) {
        let mut arena = Arena::new(strats, 2, GameConfig::paper(PathMode::Shorter), 1);
        let ids: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tournament::new(5).run(&mut arena, &mut rng, &ids, 0);
        // Bounds: min/max of all payoff-table entries (source 0..5,
        // forward 0..2, discard 0.5..3).
        for f in arena.fitnesses() {
            prop_assert!((0.0..=5.0).contains(&f), "fitness {f} out of hull");
        }
    }
}
