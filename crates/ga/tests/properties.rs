//! Property-based tests for the GA engine.

use ahn_bitstr::BitStr;
use ahn_ga::{next_generation, next_generation_into, GaParams, GenStats, Selection};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn population(n: usize, bits: usize) -> impl Strategy<Value = Vec<BitStr>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), bits).prop_map(BitStr::from_bits),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The next generation always has the same size and genome width.
    #[test]
    fn breeding_preserves_shape(
        pop in population(12, 13),
        seed in any::<u64>(),
        crossover in 0.0f64..=1.0,
        mutation in 0.0f64..=0.2,
    ) {
        let fitnesses: Vec<f64> = (0..pop.len()).map(|i| i as f64).collect();
        let params = GaParams {
            crossover_prob: crossover,
            mutation_prob: mutation,
            ..GaParams::paper()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let next = next_generation(&mut rng, &params, &pop, &fitnesses);
        prop_assert_eq!(next.len(), pop.len());
        prop_assert!(next.iter().all(|g| g.len() == 13));
    }

    /// With zero mutation, every child bit traces back to some parent at
    /// the same position (crossover only recombines).
    #[test]
    fn zero_mutation_children_are_recombinations(
        pop in population(10, 13),
        seed in any::<u64>(),
    ) {
        let fitnesses = vec![1.0; pop.len()];
        let params = GaParams { mutation_prob: 0.0, ..GaParams::paper() };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let next = next_generation(&mut rng, &params, &pop, &fitnesses);
        for child in &next {
            for i in 0..13 {
                let bit = child.get(i);
                prop_assert!(
                    pop.iter().any(|p| p.get(i) == bit),
                    "bit {i} of child {child} not in any parent"
                );
            }
        }
    }

    /// Selection always returns a valid index, for both operators.
    #[test]
    fn selection_indices_are_valid(
        fitnesses in proptest::collection::vec(-10.0f64..10.0, 1..30),
        seed in any::<u64>(),
        tsize in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for sel in [Selection::Tournament { size: tsize }, Selection::Roulette] {
            let idx = sel.select(&mut rng, &fitnesses);
            prop_assert!(idx < fitnesses.len());
        }
    }

    /// Elitism guarantees a maximum-fitness genome survives verbatim
    /// (ties may be broken either way, so we check fitness, not identity).
    #[test]
    fn elitism_keeps_champion(pop in population(8, 8), seed in any::<u64>()) {
        let fitnesses: Vec<f64> = pop.iter().map(|g| g.count_ones() as f64).collect();
        let best = fitnesses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let params = GaParams { elitism: 1, ..GaParams::paper() };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let next = next_generation(&mut rng, &params, &pop, &fitnesses);
        prop_assert!(
            next.iter().any(|g| g.count_ones() as f64 >= best && pop.contains(g)),
            "no verbatim champion with fitness {best} survived"
        );
    }

    /// GenStats is ordered best >= mean >= worst and std_dev >= 0.
    #[test]
    fn gen_stats_are_ordered(fitnesses in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let s = GenStats::from_fitnesses(&fitnesses);
        prop_assert!(s.best >= s.mean - 1e-9);
        prop_assert!(s.mean >= s.worst - 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Breeding generation after generation into one reused buffer keeps
    /// the population size and the genome width requested.
    #[test]
    fn evolve_shapes(seed in any::<u64>(), bits in 1usize..20, gens in 1usize..8) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pop: Vec<BitStr> = (0..6).map(|_| BitStr::random(&mut rng, bits)).collect();
        let mut next = Vec::new();
        for _ in 1..gens {
            let fitnesses: Vec<f64> = pop.iter().map(|g| g.count_ones() as f64).collect();
            next_generation_into(&mut rng, &GaParams::paper(), &pop, &fitnesses, &mut next);
            std::mem::swap(&mut pop, &mut next);
            prop_assert_eq!(pop.len(), 6);
            prop_assert!(pop.iter().all(|g| g.len() == bits));
        }
    }
}
