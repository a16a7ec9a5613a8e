//! Non-evolving baselines.
//!
//! * [`evaluate_static`] runs the multi-environment schedule once with
//!   fixed (non-evolving) strategies — the hand-written baselines AllC,
//!   AllD and trust-threshold live here;
//! * [`pathrater_comparison`] reproduces the qualitative claim the paper
//!   cites from Marti et al. \[9\] (§2): route *avoidance* alone (watchdog
//!   plus pathrater) improves throughput in the presence of selfish
//!   nodes, but does not punish them. We compare best-rated route
//!   selection against random selection with identical cooperative
//!   populations and selfish minorities.

use crate::cases::CaseSpec;
use crate::config::ExperimentConfig;
use crate::experiment::{arena_for, check_cell};
use ahn_game::{EnvMetrics, EvaluationSchedule};
use ahn_net::RouteSelection;
use ahn_strategy::Strategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Runs the schedule once with a fixed population of `strategies`
/// (cycled to fill `config.population`) in the cell's own world — its
/// selfish pool or attacker groups and its sleepers — and returns the
/// aggregate metrics.
///
/// # Panics
/// Panics if `strategies` is empty, or with [`check_cell`]'s message
/// when the cell cannot run.
pub fn evaluate_static(
    config: &ExperimentConfig,
    case: &CaseSpec,
    strategies: &[Strategy],
    seed: u64,
) -> EnvMetrics {
    assert!(!strategies.is_empty(), "at least one strategy is required");
    check_cell(config, case).unwrap_or_else(|e| panic!("{e}"));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let schedule = EvaluationSchedule::new(case.envs.clone(), config.rounds, config.plays_per_env);
    let population: Vec<Strategy> = (0..config.population)
        .map(|i| strategies[i % strategies.len()].clone())
        .collect();
    let mut arena = arena_for(config, case, population);
    schedule.run(&mut arena, &mut rng);
    arena.metrics.total()
}

/// Result of the watchdog/pathrater-style comparison (X1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathraterReport {
    /// Cooperation level with reputation-rated route selection.
    pub with_rating: f64,
    /// Cooperation level with random route selection.
    pub without_rating: f64,
}

impl PathraterReport {
    /// Relative throughput improvement from avoidance
    /// (`with/without − 1`); Marti et al. report +17 % for 50 nodes with
    /// 20 selfish — the shape, not the constant, is what we check.
    pub fn improvement(&self) -> f64 {
        if self.without_rating == 0.0 {
            0.0
        } else {
            self.with_rating / self.without_rating - 1.0
        }
    }
}

/// Compares cooperative populations (AllC — avoidance without
/// punishment, exactly the pathrater setting) with and without
/// reputation-based route selection, in an environment with `csn`
/// selfish nodes out of `size`.
///
/// # Errors
/// Errors, before running anything, when either cell fails
/// [`check_cell`].
///
/// # Panics
/// Panics unless `csn < size` and `size >= 3` (like
/// [`CaseSpec::mini`]).
pub fn pathrater_comparison(
    config: &ExperimentConfig,
    size: usize,
    csn: usize,
    seed: u64,
) -> Result<PathraterReport, String> {
    let case = CaseSpec::mini("pathrater", &[csn], size, ahn_net::PathMode::Shorter);
    let allc = [Strategy::always_forward()];
    let cells = [RouteSelection::BestRated, RouteSelection::Random].map(|route_selection| {
        ExperimentConfig {
            // The population must at least fill one tournament of this size.
            population: config.population.max(size - csn),
            route_selection,
            ..config.clone()
        }
    });
    for cell in &cells {
        check_cell(cell, &case)?;
    }
    let [with_rating, without_rating] =
        cells.map(|cell| evaluate_static(&cell, &case, &allc, seed).cooperation_level());
    Ok(PathraterReport {
        with_rating,
        without_rating,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahn_net::{PathMode, TrustLevel};

    fn cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::smoke();
        c.rounds = 40;
        c
    }

    #[test]
    fn allc_without_csn_always_delivers() {
        let case = CaseSpec::mini("clean", &[0], 10, PathMode::Shorter);
        let m = evaluate_static(&cfg(), &case, &[Strategy::always_forward()], 0);
        assert_eq!(m.cooperation_level(), 1.0);
    }

    #[test]
    fn alld_never_delivers() {
        let case = CaseSpec::mini("dark", &[0], 10, PathMode::Shorter);
        let m = evaluate_static(&cfg(), &case, &[Strategy::always_discard()], 0);
        assert_eq!(m.cooperation_level(), 0.0);
    }

    #[test]
    fn threshold_strategy_beats_alld_under_csn() {
        let case = CaseSpec::mini("mixed", &[3], 10, PathMode::Shorter);
        let threshold = evaluate_static(
            &cfg(),
            &case,
            &[Strategy::trust_threshold(TrustLevel::T1, true)],
            1,
        );
        let alld = evaluate_static(&cfg(), &case, &[Strategy::always_discard()], 1);
        assert!(threshold.cooperation_level() > alld.cooperation_level());
    }

    #[test]
    fn pathrater_avoidance_improves_throughput() {
        // The Marti et al. shape: with selfish nodes present, rating-based
        // avoidance beats random routing.
        let report = pathrater_comparison(&cfg(), 12, 4, 3).unwrap();
        assert!(
            report.with_rating > report.without_rating,
            "avoidance should help: {report:?}"
        );
        assert!(report.improvement() > 0.05, "{report:?}");
        // And neither setting punishes: cooperation stays well above zero.
        assert!(report.without_rating > 0.2);
    }

    #[test]
    fn pathrater_report_improvement_math() {
        let r = PathraterReport {
            with_rating: 0.6,
            without_rating: 0.5,
        };
        assert!((r.improvement() - 0.2).abs() < 1e-12);
        let z = PathraterReport {
            with_rating: 0.5,
            without_rating: 0.0,
        };
        assert_eq!(z.improvement(), 0.0);
    }
}
