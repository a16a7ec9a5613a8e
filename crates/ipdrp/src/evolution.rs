//! Evolution of IPDRP populations (experiment X3).
//!
//! Each generation: every player is randomly paired `rounds` times; each
//! pairing plays one PD round with single-round memory (players remember
//! only their own previous encounter, which — under random pairing — was
//! almost surely against someone else). Fitness is the average payoff
//! per round. The GA uses roulette selection as in the reference \[12\].

use crate::game::{payoff, IpdrpStrategy, Move, PdPayoffs, IPDRP_BITS};
use ahn_bitstr::BitStr;
use ahn_ga::{next_generation, GaParams, GenStats, Selection};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// IPDRP experiment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IpdrpConfig {
    /// Population size (must be even for pairing).
    pub population: usize,
    /// Pairing rounds per generation.
    pub rounds: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Payoff matrix.
    pub payoffs: PdPayoffs,
    /// GA parameters (reference \[12\] uses roulette selection).
    pub ga: GaParams,
}

impl Default for IpdrpConfig {
    fn default() -> Self {
        IpdrpConfig {
            population: 100,
            rounds: 100,
            generations: 100,
            payoffs: PdPayoffs::default(),
            ga: GaParams {
                selection: Selection::Roulette,
                ..GaParams::paper()
            },
        }
    }
}

/// Per-generation record of an IPDRP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpdrpGeneration {
    /// Generation index.
    pub generation: usize,
    /// Fraction of moves that were Cooperate this generation.
    pub cooperation: f64,
    /// Fitness statistics.
    pub stats: GenStats,
}

/// Runs one IPDRP evolution, returning one record per generation.
///
/// # Panics
/// Panics unless the population is even and ≥ 2 and the payoff matrix is
/// a valid dilemma.
pub fn run_ipdrp<R: Rng + ?Sized>(rng: &mut R, config: &IpdrpConfig) -> Vec<IpdrpGeneration> {
    assert!(
        config.population >= 2 && config.population.is_multiple_of(2),
        "random pairing needs an even population of at least 2"
    );
    config.payoffs.validate().expect("invalid PD payoffs");

    let mut population: Vec<BitStr> = (0..config.population)
        .map(|_| BitStr::random(rng, IPDRP_BITS))
        .collect();
    let mut history = Vec::with_capacity(config.generations);
    let mut order: Vec<usize> = (0..config.population).collect();

    for generation in 0..config.generations {
        let strategies: Vec<IpdrpStrategy> = population
            .iter()
            .map(|b| IpdrpStrategy::from_bits(*b))
            .collect();
        let mut totals = vec![0.0f64; config.population];
        let mut memory: Vec<Option<(Move, Move)>> = vec![None; config.population];
        let mut cooperations = 0u64;
        let mut moves = 0u64;

        for _round in 0..config.rounds {
            order.shuffle(rng);
            for pair in order.chunks_exact(2) {
                let (a, b) = (pair[0], pair[1]);
                let move_a = strategies[a].decide(memory[a]);
                let move_b = strategies[b].decide(memory[b]);
                let (pa, pb) = payoff(&config.payoffs, move_a, move_b);
                totals[a] += pa;
                totals[b] += pb;
                memory[a] = Some((move_a, move_b));
                memory[b] = Some((move_b, move_a));
                cooperations += (move_a == Move::Cooperate) as u64;
                cooperations += (move_b == Move::Cooperate) as u64;
                moves += 2;
            }
        }

        let fitnesses: Vec<f64> = totals.iter().map(|t| t / config.rounds as f64).collect();
        history.push(IpdrpGeneration {
            generation,
            cooperation: cooperations as f64 / moves as f64,
            stats: GenStats::from_fitnesses(&fitnesses),
        });
        if generation + 1 < config.generations {
            population = next_generation(rng, &config.ga, &population, &fitnesses);
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn small(generations: usize) -> IpdrpConfig {
        IpdrpConfig {
            population: 20,
            rounds: 30,
            generations,
            ..IpdrpConfig::default()
        }
    }

    #[test]
    fn produces_one_record_per_generation() {
        let h = run_ipdrp(&mut rng(0), &small(12));
        assert_eq!(h.len(), 12);
        for (i, g) in h.iter().enumerate() {
            assert_eq!(g.generation, i);
            assert!((0.0..=1.0).contains(&g.cooperation));
            // Fitness is bounded by the payoff matrix.
            assert!(g.stats.best <= 5.0 && g.stats.worst >= 0.0);
        }
    }

    #[test]
    fn defection_pressure_under_random_pairing() {
        // Namikawa & Ishibuchi's headline observation: under purely
        // random pairing with single-round memory, reciprocity cannot be
        // targeted at the defector, so cooperation collapses well below
        // the initial ~50%.
        let h = run_ipdrp(
            &mut rng(1),
            &IpdrpConfig {
                population: 60,
                rounds: 60,
                generations: 60,
                ..IpdrpConfig::default()
            },
        );
        let first = h.first().unwrap().cooperation;
        let last = h.last().unwrap().cooperation;
        assert!(first > 0.3, "random start should be mixed, got {first}");
        assert!(
            last < first * 0.6,
            "cooperation should collapse: {first} -> {last}"
        );
    }

    #[test]
    fn mean_fitness_approaches_punishment_when_defection_wins() {
        let h = run_ipdrp(
            &mut rng(2),
            &IpdrpConfig {
                population: 40,
                rounds: 40,
                generations: 80,
                ..IpdrpConfig::default()
            },
        );
        let last = h.last().unwrap();
        assert!(
            last.stats.mean < 2.0,
            "defecting population should earn near P=1, got {}",
            last.stats.mean
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_ipdrp(&mut rng(3), &small(5));
        let b = run_ipdrp(&mut rng(3), &small(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "even population")]
    fn odd_population_panics() {
        let cfg = IpdrpConfig {
            population: 7,
            ..small(2)
        };
        run_ipdrp(&mut rng(4), &cfg);
    }
}
