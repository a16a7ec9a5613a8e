//! Cross-crate integration: pieces from different crates composed in
//! ways the main harness does not exercise.

use ahn::bitstr::BitStr;
use ahn::game::{Arena, GameConfig, NodeKind, Tournament};
use ahn::net::{NodeId, PathMode, RouteSelection, TrustLevel};
use ahn::strategy::{reduced::ReducedStrategy, Strategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// The reduced (5-bit) codec and a hand-lifted full strategy must play
/// identically: the ablation changes the genome, not the game.
#[test]
fn reduced_strategy_plays_like_its_lift() {
    let genome: BitStr = "01011".parse().unwrap();
    let reduced = ReducedStrategy::from_bits(genome);
    let lifted = reduced.lift();

    let play = |strategy: Strategy, seed: u64| {
        let mut arena = Arena::new(
            vec![strategy; 8],
            2,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let ids: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        let mut r = rng(seed);
        Tournament::new(50).run(&mut arena, &mut r, &ids, 0);
        (*arena.metrics.env(0), arena.fitnesses())
    };

    // The lift is exact, so identical seeds give identical histories.
    assert_eq!(play(lifted.clone(), 77), play(lifted, 77));
}

/// Random droppers (the extension node kind) interpolate between normal
/// cooperators and CSN.
#[test]
fn random_droppers_interpolate() {
    let coop_with_dropper = |p: f64| {
        let kinds: Vec<NodeKind> = (0..8)
            .map(|_| NodeKind::Normal)
            .chain((0..2).map(|_| NodeKind::RandomDropper(p)))
            .collect();
        let mut arena = Arena::with_kinds(
            vec![Strategy::always_forward(); 8],
            kinds,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let ids: Vec<NodeId> = (0..10u32).map(NodeId).collect();
        let mut r = rng(3);
        Tournament::new(100).run(&mut arena, &mut r, &ids, 0);
        arena.metrics.env(0).cooperation_level()
    };
    let none = coop_with_dropper(0.0);
    let half = coop_with_dropper(0.5);
    let full = coop_with_dropper(1.0);
    assert!(
        none > half && half > full,
        "{none:.2} / {half:.2} / {full:.2}"
    );
    assert_eq!(none, 1.0);
}

/// Random route selection really disables reputation-based avoidance.
#[test]
fn route_selection_policies_differ_under_selfishness() {
    let run = |selection: RouteSelection| {
        let mut config = GameConfig::paper(PathMode::Longer);
        config.route_selection = selection;
        let mut arena = Arena::new(vec![Strategy::always_forward(); 8], 4, config, 1);
        let ids: Vec<NodeId> = (0..12u32).map(NodeId).collect();
        let mut r = rng(11);
        Tournament::new(150).run(&mut arena, &mut r, &ids, 0);
        arena.metrics.env(0).cooperation_level()
    };
    let rated = run(RouteSelection::BestRated);
    let random = run(RouteSelection::Random);
    assert!(
        rated > random,
        "avoidance should beat random routing: {rated:.3} vs {random:.3}"
    );
}

/// Trust-threshold strategies expressed via the public API behave like
/// their textual description.
#[test]
fn trust_threshold_matches_description() {
    for min in TrustLevel::ALL {
        let s = Strategy::trust_threshold(min, false);
        for t in TrustLevel::ALL {
            for a in ahn::net::ActivityLevel::ALL {
                let expect = t >= min;
                assert_eq!(
                    s.decision(t, a) == ahn::strategy::Decision::Forward,
                    expect,
                    "min {min}, trust {t}, activity {a}"
                );
            }
        }
    }
}

/// The GA engine evolves IPDRP and ad hoc genomes with the same operator
/// stack (the genome length is the only difference).
#[test]
fn ga_engine_is_genome_length_agnostic() {
    use ahn::ga::{next_generation_into, GaParams, GenStats};
    let ones = |pop: &[BitStr]| -> Vec<f64> { pop.iter().map(|g| g.count_ones() as f64).collect() };
    let mut r = rng(13);
    for bits in [5usize, 13] {
        // 15 generations: the random one, then 14 bred ones.
        let mut pop: Vec<BitStr> = (0..20).map(|_| BitStr::random(&mut r, bits)).collect();
        let mut next = Vec::new();
        for _ in 1..15 {
            next_generation_into(&mut r, &GaParams::paper(), &pop, &ones(&pop), &mut next);
            std::mem::swap(&mut pop, &mut next);
        }
        assert!(GenStats::from_fitnesses(&ones(&pop)).best >= (bits as f64) - 2.0);
        assert!(pop.iter().all(|g| g.len() == bits));
    }
}

/// The acceptance claim of the sparse substrate: a 1 000-node arena
/// running paper-style traffic (50-participant tournaments drawn from
/// the big network) holds its reputation in O(observed-pairs) memory —
/// at least 5x below the dense N x N equivalent — while producing
/// observationally identical state.
#[test]
fn bignet_reputation_memory_is_o_observed_pairs() {
    use ahn::game::Tournament;
    use ahn::net::ReputationMatrix;

    let mut r = rng(29);
    let mut arena = Arena::new(
        (0..900).map(|_| Strategy::random(&mut r)).collect(),
        100,
        GameConfig::paper(PathMode::Shorter),
        1,
    );
    assert!(
        arena.reputation.is_sparse(),
        "a 1000-node arena must construct on the sparse backing"
    );

    // Paper-style traffic: a handful of 50-participant tournaments, each
    // over a different slice of the network.
    let tournament = Tournament::new(50);
    for t in 0..6u32 {
        let participants: Vec<NodeId> = (0..50u32).map(|i| NodeId(t * 150 + i)).collect();
        tournament.run(&mut arena, &mut r, &participants, 0);
    }
    arena.reputation.check_invariants().unwrap();

    let pairs = arena.reputation.observed_pairs();
    assert!(pairs > 1000, "traffic should observe many pairs: {pairs}");
    let sparse_bytes = arena.reputation.resident_bytes();
    let dense_bytes = ReputationMatrix::new_dense(1000).resident_bytes();
    assert!(
        sparse_bytes * 5 <= dense_bytes,
        "sparse {sparse_bytes}B must be >=5x below dense {dense_bytes}B \
         ({pairs} observed pairs)"
    );
}
