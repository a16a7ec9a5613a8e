//! The genetic algorithm of the paper (§5).
//!
//! The paper evolves 13-bit strategies with: tournament parent selection,
//! standard one-point crossover (probability 0.9), random choice of one
//! of the two children, and uniform bit-flip mutation (probability
//! 0.001). [`next_generation_into`] breeds one generation that way; the
//! experiment loop (`ahn_core::experiment`) and the IPDRP baseline call
//! it once per generation. It is genome-length agnostic (the IPDRP
//! baseline and the trust-only codec breed 5-bit genomes). Beside the
//! paper's operators it offers the roulette and rank selection and the
//! elitism that the selection and calibration studies vary; crossover is
//! always the paper's one-point operator.
//!
//! # Example
//!
//! ```
//! use ahn_bitstr::BitStr;
//! use ahn_ga::{next_generation_into, GaParams, GenStats};
//! use rand::SeedableRng;
//!
//! // Maximize the number of ones in an 8-bit genome.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let ones = |pop: &[BitStr]| -> Vec<f64> {
//!     pop.iter().map(|g| g.count_ones() as f64).collect()
//! };
//! let mut population: Vec<BitStr> = (0..30).map(|_| BitStr::random(&mut rng, 8)).collect();
//! let mut offspring = Vec::new();
//! for _ in 1..40 {
//!     let fitnesses = ones(&population);
//!     next_generation_into(&mut rng, &GaParams::paper(), &population, &fitnesses, &mut offspring);
//!     std::mem::swap(&mut population, &mut offspring);
//! }
//! assert!(GenStats::from_fitnesses(&ones(&population)).best >= 7.0);
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod selection;
pub mod stats;

pub use engine::{next_generation, next_generation_into, GaParams};
pub use selection::Selection;
pub use stats::GenStats;
