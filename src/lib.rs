//! # ahn — Evolution of Strategy-Driven Behavior in Ad Hoc Networks
//!
//! A Rust reproduction of *Seredynski, Bouvry & Klopotek: Evolution of
//! Strategy Driven Behavior in Ad Hoc Networks Using a Genetic
//! Algorithm* (IPDPS Workshops, 2007).
//!
//! Mobile ad hoc networks rely on nodes forwarding each other's packets;
//! battery-constrained nodes are tempted to free-ride. The paper equips
//! every node with a 13-bit *strategy* deciding, per forwarding request,
//! whether to relay based on the packet source's **trust level** (derived
//! from watchdog observations) and **activity level**, and evolves these
//! strategies with a genetic algorithm inside a game-theoretic network
//! model. This crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`bitstr`] | fixed-width bit-string genomes |
//! | [`stats`] | summaries, series, plots, sampling |
//! | [`net`] | reputation, trust, activity, watchdog, paths, energy, gossip |
//! | [`strategy`] | the 13-bit strategy codec and population analysis |
//! | [`game`] | the Ad Hoc Network Game, tournaments, environments |
//! | [`ga`] | the genetic-algorithm engine |
//! | [`ipdrp`] | the IPDRP baseline (Namikawa & Ishibuchi) |
//! | [`obs`] | observability: latency histograms, trace spans, recorder hooks |
//! | [`core`] | the experiment harness reproducing every table/figure |
//! | [`serve`] | the HTTP job server (worker pool, result cache, load test) |
//!
//! ## Example
//!
//! ```
//! use ahn::core::{cases::CaseSpec, config::ExperimentConfig, experiment};
//! use ahn::net::PathMode;
//!
//! let mut cfg = ExperimentConfig::smoke();
//! cfg.generations = 15;
//! let case = CaseSpec::mini("readme", &[0], 10, PathMode::Shorter);
//! let result = experiment::run_experiment(&cfg, &case);
//! assert!(result.coop_series.len() == 15);
//! ```
//!
//! Runnable examples live in `examples/` (start with
//! `cargo run --release --example quickstart`); the `ahn-exp` binary in
//! `crates/cli` regenerates every table and figure of the paper.

#![deny(missing_docs)]

pub use ahn_bitstr as bitstr;
pub use ahn_core as core;
pub use ahn_ga as ga;
pub use ahn_game as game;
pub use ahn_ipdrp as ipdrp;
pub use ahn_net as net;
pub use ahn_obs as obs;
pub use ahn_serve as serve;
pub use ahn_stats as stats;
pub use ahn_strategy as strategy;
