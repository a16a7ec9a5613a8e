//! Experiment harness reproducing every table and figure of
//! *Evolution of Strategy Driven Behavior in Ad Hoc Networks Using a
//! Genetic Algorithm* (Seredynski, Bouvry, Klopotek; IPDPS Workshops
//! 2007).
//!
//! The harness wires the workspace together: the network substrate
//! (`ahn-net`), the 13-bit strategies (`ahn-strategy`), the Ad Hoc
//! Network Game (`ahn-game`) and the GA engine (`ahn-ga`). Every run is
//! a pure function of `(config, case, seed)`, and every local
//! experiment runs its `(cell, replication)` pairs in parallel through
//! one engine, [`cells::run_cells`].
//!
//! * [`cases`] — the four evaluation cases of Table 4;
//! * [`config`] — experiment parameters with `paper`, `scaled` and
//!   `smoke` presets;
//! * [`experiment`] — replication runner, the one validity check of a
//!   `(config, case)` cell ([`check_cell`]) and cross-replication
//!   aggregation (Fig. 4, Tables 5–9 inputs);
//! * [`cells`] — the cell engine: a batch of `(config, case)` cells,
//!   every replication of every cell one parallel work item, optionally
//!   traced;
//! * [`report`] — plain-text renderers that print each table the way the
//!   paper lays it out;
//! * [`baselines`] — static-strategy and watchdog/pathrater-style
//!   baselines (DESIGN.md X1);
//! * [`scenarios`] — the adversary zoo: named, hash-canonicalized
//!   threat models composing attacker mixes with topology and energy
//!   knobs;
//! * [`atlas`] — the attack/defense atlas: every scenario against
//!   every defense posture, rendered as the committed `ATLAS.md`;
//! * [`threads`] — reporting the effective (`AHN_THREADS`-capped)
//!   worker-thread count;
//! * [`ablations`] — the A1–A6 design-choice studies of DESIGN.md.
//!
//! # Quickstart
//!
//! ```
//! use ahn_core::{cases::CaseSpec, config::ExperimentConfig, experiment};
//!
//! // A deliberately tiny configuration so the doctest stays fast (the
//! // longer R = 100 reputation horizon keeps 10-participant
//! // tournaments inside the cooperative basin).
//! let mut cfg = ExperimentConfig::smoke();
//! cfg.replications = 2;
//! cfg.rounds = 100;
//! cfg.generations = 40;
//! let case = CaseSpec::mini("demo", &[0], 10, ahn_net::PathMode::Shorter);
//! let result = experiment::run_experiment(&cfg, &case);
//! // A CSN-free world with evolving strategies learns to cooperate.
//! assert!(result.final_coop.mean().unwrap() > 0.4);
//! ```

#![deny(missing_docs)]

pub mod ablations;
pub mod atlas;
pub mod baselines;
pub mod calibrate;
pub mod cases;
pub mod cells;
pub mod checks;
pub mod config;
pub mod experiment;
pub mod extensions;
pub mod report;
pub mod scenarios;
pub mod sweeps;
pub mod threads;

pub use ahn_net::PathMode;
pub use atlas::{render_atlas, run_atlas, AtlasGrid, AtlasReport};
pub use calibrate::{run_calibration, score_calibration, CalibrationGrid, CalibrationReport};
pub use cases::CaseSpec;
pub use cells::{run_cells, Cell};
pub use config::{canonical_hash, ExperimentConfig, StrategyCodec};
pub use experiment::{
    check_cell, run_experiment, run_replication, run_replication_with, ExperimentResult,
    ReplicationResult,
};
pub use scenarios::{builtin_scenarios, find_scenario, resolve_scenario, AttackerShare, Scenario};
pub use sweeps::{
    cell_from_result, merge_sweep, run_sweep, run_sweep_traced, SweepCell, SweepCellSpec,
    SweepGrid, SweepReport,
};

/// Builds the [`ahn_game::GameConfig`] an [`ExperimentConfig`] implies
/// for a case — shared by the cell world and the studies' observation
/// worlds.
pub(crate) fn game_config_of(config: &ExperimentConfig, case: &CaseSpec) -> ahn_game::GameConfig {
    ahn_game::GameConfig {
        payoff: config.payoff,
        trust: config.trust,
        activity: config.activity,
        paths: ahn_net::PathGenerator::for_mode(case.mode),
        route_selection: config.route_selection,
        gossip: config.gossip,
    }
}
