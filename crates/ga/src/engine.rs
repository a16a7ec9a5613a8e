//! The generational loop (paper §5).
//!
//! One generation: evaluate every genome, then build the next population
//! by repeating, once per offspring slot, *select two parents → one-point
//! crossover with probability `crossover_prob` → keep one child at random
//! → bit-flip mutate*. Optional elitism copies the fittest genomes
//! through unchanged (off by default; the paper uses none).

use crate::selection::Selection;
use ahn_bitstr::{ops, BitStr};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Probability a selected pair is crossed over (paper: 0.9); with the
    /// complementary probability one parent is cloned.
    pub crossover_prob: f64,
    /// Per-bit mutation probability (paper: 0.001).
    pub mutation_prob: f64,
    /// Parent selection operator.
    pub selection: Selection,
    /// Number of fittest genomes copied unchanged into the next
    /// generation (0 = none, as in the paper).
    pub elitism: usize,
}

impl GaParams {
    /// The paper's §6.1 settings: crossover 0.9, mutation 0.001, size-2
    /// tournament selection, no elitism.
    pub fn paper() -> Self {
        GaParams {
            crossover_prob: 0.9,
            mutation_prob: 0.001,
            selection: Selection::paper(),
            elitism: 0,
        }
    }

    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.crossover_prob) {
            return Err(format!(
                "crossover_prob {} outside [0,1]",
                self.crossover_prob
            ));
        }
        if !(0.0..=1.0).contains(&self.mutation_prob) {
            return Err(format!(
                "mutation_prob {} outside [0,1]",
                self.mutation_prob
            ));
        }
        self.selection.validate()
    }
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams::paper()
    }
}

/// Produces the next generation from the current population and its
/// fitnesses.
///
/// Convenience wrapper over [`next_generation_into`] that allocates a
/// fresh output vector.
///
/// # Panics
/// Panics if lengths mismatch, the population is empty, or `elitism`
/// exceeds the population size.
pub fn next_generation<R: Rng + ?Sized>(
    rng: &mut R,
    params: &GaParams,
    population: &[BitStr],
    fitnesses: &[f64],
) -> Vec<BitStr> {
    let mut next = Vec::with_capacity(population.len());
    next_generation_into(rng, params, population, fitnesses, &mut next);
    next
}

/// Breeds the next generation **into** `next`, reusing its buffer — the
/// double-buffered hot path of the generational loop.
///
/// `next` is cleared and refilled with one offspring per population
/// slot. Each offspring is built directly (for the paper's ≤ 64-bit
/// genomes this never touches the heap): on crossover only the one
/// surviving child is constructed ([`ops::one_point_child`]), on the
/// no-crossover branch only the surviving parent is cloned. The RNG draw
/// sequence is identical to the historical build-both-children
/// implementation, so seeded evolutions are bit-identical.
///
/// # Panics
/// Panics if lengths mismatch, the population is empty, or `elitism`
/// exceeds the population size.
pub fn next_generation_into<R: Rng + ?Sized>(
    rng: &mut R,
    params: &GaParams,
    population: &[BitStr],
    fitnesses: &[f64],
    next: &mut Vec<BitStr>,
) {
    assert_eq!(
        population.len(),
        fitnesses.len(),
        "one fitness per genome is required"
    );
    assert!(!population.is_empty(), "empty population");
    assert!(
        params.elitism <= population.len(),
        "elitism exceeds population size"
    );
    params.validate().expect("invalid GA parameters");

    next.clear();

    if params.elitism > 0 {
        let mut ranked: Vec<usize> = (0..population.len()).collect();
        ranked.sort_by(|&a, &b| {
            fitnesses[b]
                .partial_cmp(&fitnesses[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in ranked.iter().take(params.elitism) {
            next.push(population[i]);
        }
    }

    while next.len() < population.len() {
        let p1 = params.selection.select(rng, fitnesses);
        let p2 = params.selection.select(rng, fitnesses);
        let (a, b) = (&population[p1], &population[p2]);
        let mut child = if rng.gen_bool(params.crossover_prob) {
            if a.len() < 2 {
                // No interior cut point exists: the "children" are the
                // parents themselves.
                if rng.gen_bool(0.5) {
                    *a
                } else {
                    *b
                }
            } else {
                let cut = rng.gen_range(1..a.len());
                // "One of the two strategies created after crossover is
                // randomly selected to the next generation" (§5) — so
                // only that one is ever built.
                let keep_first = rng.gen_bool(0.5);
                ops::one_point_child(a, b, cut, !keep_first)
            }
        } else if rng.gen_bool(0.5) {
            *a
        } else {
            *b
        };
        ops::bit_flip_mutation(rng, &mut child, params.mutation_prob);
        next.push(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GenStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn ones_fitness(pop: &[BitStr]) -> Vec<f64> {
        pop.iter().map(|g| g.count_ones() as f64).collect()
    }

    /// One-max evolution over [`next_generation_into`]: a random
    /// population of `pop_size` genomes of `bits` bits, bred for
    /// `generations` generations, with the fitness statistics of every
    /// generation and the final population.
    fn onemax(
        seed: u64,
        pop_size: usize,
        bits: usize,
        generations: usize,
    ) -> (Vec<GenStats>, Vec<BitStr>) {
        let mut r = rng(seed);
        let mut pop: Vec<BitStr> = (0..pop_size)
            .map(|_| BitStr::random(&mut r, bits))
            .collect();
        let mut next = Vec::new();
        let mut history = Vec::new();
        for generation in 0..generations {
            let fit = ones_fitness(&pop);
            history.push(GenStats::from_fitnesses(&fit));
            if generation + 1 < generations {
                next_generation_into(&mut r, &GaParams::paper(), &pop, &fit, &mut next);
                std::mem::swap(&mut pop, &mut next);
            }
        }
        (history, pop)
    }

    #[test]
    fn next_generation_preserves_size_and_width() {
        let mut r = rng(0);
        let pop: Vec<BitStr> = (0..20).map(|_| BitStr::random(&mut r, 13)).collect();
        let fit = ones_fitness(&pop);
        let next = next_generation(&mut r, &GaParams::paper(), &pop, &fit);
        assert_eq!(next.len(), 20);
        assert!(next.iter().all(|g| g.len() == 13));
    }

    #[test]
    fn into_variant_reuses_buffer_and_matches_allocating_variant() {
        let mut r = rng(31);
        let pop: Vec<BitStr> = (0..20).map(|_| BitStr::random(&mut r, 13)).collect();
        let fit = ones_fitness(&pop);
        let fresh = next_generation(&mut rng(99), &GaParams::paper(), &pop, &fit);
        // Same seed, reused (pre-dirtied) buffer: identical offspring.
        let mut buffer = vec![BitStr::ones(13); 7];
        next_generation_into(&mut rng(99), &GaParams::paper(), &pop, &fit, &mut buffer);
        assert_eq!(fresh, buffer);
    }

    #[test]
    fn into_variant_matches_with_elitism_and_tiny_genomes() {
        for (bits, elitism) in [(1usize, 0usize), (13, 3), (63, 0), (64, 1)] {
            let mut r = rng(bits as u64);
            let pop: Vec<BitStr> = (0..10).map(|_| BitStr::random(&mut r, bits)).collect();
            let fit = ones_fitness(&pop);
            let params = GaParams {
                elitism,
                ..GaParams::paper()
            };
            let fresh = next_generation(&mut rng(5), &params, &pop, &fit);
            let mut buffer = Vec::new();
            next_generation_into(&mut rng(5), &params, &pop, &fit, &mut buffer);
            assert_eq!(fresh, buffer, "bits={bits} elitism={elitism}");
        }
    }

    #[test]
    fn onemax_converges() {
        let (history, _) = onemax(1, 40, 16, 60);
        assert_eq!(history.len(), 60);
        let first = &history[0];
        let last = &history[59];
        assert!(
            last.mean > first.mean + 3.0,
            "mean fitness should rise: {} -> {}",
            first.mean,
            last.mean
        );
        assert!(last.best >= 15.0, "best = {}", last.best);
    }

    #[test]
    fn elitism_never_loses_the_best() {
        let mut r = rng(2);
        let params = GaParams {
            elitism: 2,
            ..GaParams::paper()
        };
        let pop: Vec<BitStr> = (0..10).map(|_| BitStr::random(&mut r, 8)).collect();
        let fit = ones_fitness(&pop);
        let best_fit = fit.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for seed in 0..20 {
            let next = next_generation(&mut rng(seed), &params, &pop, &fit);
            let next_best = next.iter().map(|g| g.count_ones()).max().unwrap();
            assert!(next_best as f64 >= best_fit, "elite lost at seed {seed}");
        }
    }

    #[test]
    fn zero_mutation_zero_crossover_only_clones() {
        let mut r = rng(3);
        let params = GaParams {
            crossover_prob: 0.0,
            mutation_prob: 0.0,
            ..GaParams::paper()
        };
        let pop: Vec<BitStr> = (0..10).map(|_| BitStr::random(&mut r, 13)).collect();
        let fit = ones_fitness(&pop);
        let next = next_generation(&mut r, &params, &pop, &fit);
        for child in &next {
            assert!(pop.contains(child), "child is not a clone of any parent");
        }
    }

    #[test]
    fn selection_pressure_enriches_fit_genomes() {
        // Population: half all-zeros, half all-ones. With cloning only,
        // the next generation should be mostly all-ones.
        let mut pop = vec![BitStr::zeros(8); 10];
        pop.extend(vec![BitStr::ones(8); 10]);
        let fit = ones_fitness(&pop);
        let params = GaParams {
            crossover_prob: 0.0,
            mutation_prob: 0.0,
            ..GaParams::paper()
        };
        let next = next_generation(&mut rng(4), &params, &pop, &fit);
        let ones = next.iter().filter(|g| g.count_ones() == 8).count();
        assert!(ones > 12, "expected enrichment, got {ones}/20");
    }

    #[test]
    fn evolve_is_deterministic_under_seed() {
        assert_eq!(onemax(7, 10, 13, 10), onemax(7, 10, 13, 10));
    }

    #[test]
    fn history_records_are_indexed() {
        let (history, pop) = onemax(5, 5, 5, 7);
        assert_eq!(history.len(), 7);
        for stats in &history {
            assert!(stats.best >= stats.mean);
            assert!(stats.mean >= stats.worst);
        }
        assert!(pop.iter().all(|g| g.len() == 5));
    }

    #[test]
    #[should_panic(expected = "one fitness per genome")]
    fn fitness_length_mismatch_panics() {
        let pop = vec![BitStr::zeros(5)];
        next_generation(&mut rng(0), &GaParams::paper(), &pop, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "elitism exceeds")]
    fn oversized_elitism_panics() {
        let pop = vec![BitStr::zeros(5)];
        let params = GaParams {
            elitism: 2,
            ..GaParams::paper()
        };
        next_generation(&mut rng(0), &params, &pop, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid GA parameters")]
    fn bad_probability_panics() {
        let pop = vec![BitStr::zeros(5)];
        let params = GaParams {
            crossover_prob: 1.5,
            ..GaParams::paper()
        };
        next_generation(&mut rng(0), &params, &pop, &[1.0]);
    }
}
