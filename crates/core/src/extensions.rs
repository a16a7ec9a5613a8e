//! Extension experiments beyond the paper's evaluation.
//!
//! Both follow directly from the paper's own discussion:
//!
//! * **Strategy transfer** — the conclusion warns "The exact evolution of
//!   strategies depends on the network conditions ... To achieve best
//!   results one should know what kind of network are those strategies
//!   target." [`transfer_matrix`] quantifies that: evolve under one case,
//!   deploy under another, measure the cooperation gap.
//! * **Newcomer join** — §6.3 observes the evolved unknown-node bit is
//!   Forward, "as a result, new nodes can easily join the network".
//!   [`newcomer_join`] tests the claim: drop a fresh, unknown node into a
//!   converged population and track how its own packets fare as its
//!   reputation forms.

use crate::cases::CaseSpec;
use crate::config::{ExperimentConfig, SleeperSpec, StrategyCodec};
use crate::experiment::run_replication;
use ahn_game::{game::Scratch, play_game, Arena};
use ahn_net::NodeId;
use ahn_strategy::Strategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Outcome of deploying strategies evolved under one case into another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferCell {
    /// Case the population was evolved under.
    pub trained_on: String,
    /// Case the population was evaluated under (no further evolution).
    pub evaluated_on: String,
    /// Cooperation level achieved in the evaluation case.
    pub cooperation: f64,
}

/// Evolves a population under `train` (one replication), then freezes it
/// and measures cooperation under `eval`.
pub fn transfer(
    config: &ExperimentConfig,
    train: &CaseSpec,
    eval: &CaseSpec,
    seed: u64,
) -> TransferCell {
    let trained = run_replication(config, train, seed);
    let metrics = crate::baselines::evaluate_static(
        config,
        eval,
        &trained.final_population,
        seed.wrapping_add(transfer_salt()),
    );
    TransferCell {
        trained_on: train.name.clone(),
        evaluated_on: eval.name.clone(),
        cooperation: metrics.cooperation_level(),
    }
}

const fn transfer_salt() -> u64 {
    0x7A_5A_17
}

/// Full train × eval matrix over the given cases.
pub fn transfer_matrix(
    config: &ExperimentConfig,
    cases: &[CaseSpec],
    seed: u64,
) -> Vec<TransferCell> {
    let mut out = Vec::with_capacity(cases.len() * cases.len());
    for train in cases {
        for eval in cases {
            out.push(transfer(config, train, eval, seed));
        }
    }
    out
}

/// Renders a transfer matrix as a text table.
pub fn render_transfer(cells: &[TransferCell]) -> String {
    use std::fmt::Write as _;
    fn unique<'a>(labels: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
        let mut seen: Vec<&str> = Vec::new();
        for l in labels {
            if !seen.contains(&l) {
                seen.push(l);
            }
        }
        seen
    }
    let mut out = String::from("Strategy transfer (rows: trained on; cols: evaluated on)\n");
    let evals = unique(cells.iter().map(|c| c.evaluated_on.as_str()));
    let _ = write!(out, "{:<12}", "");
    for e in &evals {
        let _ = write!(out, "{e:>12}");
    }
    let _ = writeln!(out);
    let trains = unique(cells.iter().map(|c| c.trained_on.as_str()));
    for t in trains {
        let _ = write!(out, "{t:<12}");
        for e in &evals {
            if let Some(c) = cells
                .iter()
                .find(|c| c.trained_on == t && &c.evaluated_on == e)
            {
                let _ = write!(out, "{:>11.1}%", c.cooperation * 100.0);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// How a fresh node's own packets fared while it integrated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NewcomerReport {
    /// Delivery rate of the newcomer's packets in the first quarter of
    /// the observation window (reputation not yet formed).
    pub early_delivery: f64,
    /// Delivery rate in the last quarter (reputation established).
    pub late_delivery: f64,
    /// Share of final-population strategies that forward for unknowns —
    /// the mechanism that admits the newcomer at all.
    pub unknown_forward_share: f64,
}

/// Evolves a population under `case`, then adds one cooperative newcomer
/// (unknown to everyone) and plays `rounds` observation rounds in a
/// CSN-free tournament drawn from the evolved population.
///
/// # Panics
/// Panics if the case has no environments or the population is smaller
/// than the tournament demand.
pub fn newcomer_join(
    config: &ExperimentConfig,
    case: &CaseSpec,
    rounds: usize,
    seed: u64,
) -> NewcomerReport {
    assert!(rounds >= 8, "need at least 8 rounds to compare quarters");
    let trained = run_replication(config, case, seed);
    let mut census = ahn_strategy::analysis::StrategyCensus::new();
    census.add_population(&trained.final_population);

    // Tournament: evolved veterans + the newcomer (an always-cooperator,
    // as a node eager to integrate would behave).
    let veterans = case.envs[0].normal().min(trained.final_population.len());
    let mut strategies: Vec<Strategy> = trained.final_population[..veterans].to_vec();
    let newcomer = NodeId::from(strategies.len());
    strategies.push(Strategy::always_forward());

    let game_config = crate::game_config_of(config, case);
    let mut arena = Arena::new(strategies, 0, game_config, 1);
    let participants: Vec<NodeId> = (0..arena.n_total() as u32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(transfer_salt()));
    let mut scratch = Scratch::default();

    // Warm up the veterans' mutual reputation WITHOUT the newcomer so it
    // is genuinely the only unknown party.
    let veterans_only: Vec<NodeId> = participants[..veterans].to_vec();
    for _ in 0..rounds {
        for pos in 0..veterans_only.len() {
            play_game(&mut arena, &mut rng, &veterans_only, pos, 0, &mut scratch);
        }
    }

    // Observation: everyone plays, and we track the newcomer's games.
    let mut deliveries: Vec<bool> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for (pos, &src) in participants.iter().enumerate() {
            let report = play_game(&mut arena, &mut rng, &participants, pos, 0, &mut scratch);
            if src == newcomer {
                deliveries.push(report.outcome.delivered());
            }
        }
    }

    let quarter = (deliveries.len() / 4).max(1);
    let rate = |slice: &[bool]| -> f64 {
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().filter(|&&d| d).count() as f64 / slice.len() as f64
        }
    };
    NewcomerReport {
        early_delivery: rate(&deliveries[..quarter]),
        late_delivery: rate(&deliveries[deliveries.len() - quarter..]),
        unknown_forward_share: census.unknown_forward_share(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahn_net::PathMode;

    fn cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::smoke();
        c.population = 20;
        c.rounds = 30;
        c.generations = 25;
        c
    }

    #[test]
    fn transfer_diagonal_beats_hostile_off_diagonal() {
        // A population trained in a clean world, dropped into a hostile
        // one, must do worse than in its own world.
        let config = cfg();
        let clean = CaseSpec::mini("clean", &[0], 10, PathMode::Shorter);
        let hostile = CaseSpec::mini("hostile", &[6], 10, PathMode::Shorter);
        let own = transfer(&config, &clean, &clean, 3);
        let cross = transfer(&config, &clean, &hostile, 3);
        assert!(
            own.cooperation > cross.cooperation,
            "own {:.2} vs cross {:.2}",
            own.cooperation,
            cross.cooperation
        );
    }

    #[test]
    fn transfer_matrix_covers_all_pairs() {
        let config = cfg();
        let cases = [
            CaseSpec::mini("a", &[0], 10, PathMode::Shorter),
            CaseSpec::mini("b", &[4], 10, PathMode::Shorter),
        ];
        let cells = transfer_matrix(&config, &cases, 1);
        assert_eq!(cells.len(), 4);
        let rendered = render_transfer(&cells);
        assert!(rendered.contains('a') && rendered.contains('b'));
        assert_eq!(rendered.lines().count(), 4, "header + 2 rows:\n{rendered}");
    }

    #[test]
    fn newcomer_integrates_into_cooperative_population() {
        // The unknown-node bit needs a converged cooperative world
        // before it is consistently selected for; R = 100 / 60
        // generations is inside that basin at 10-participant scale
        // (R = 30 leaves the bit undecided).
        let mut config = cfg();
        config.rounds = 100;
        config.generations = 60;
        let case = CaseSpec::mini("join", &[0], 10, PathMode::Shorter);
        let report = newcomer_join(&config, &case, 40, 5);
        // In a CSN-free evolved world the newcomer must end up served.
        assert!(
            report.late_delivery > 0.5,
            "newcomer never integrated: {report:?}"
        );
        assert!(report.unknown_forward_share > 0.5, "{report:?}");
    }
}

/// Outcome of the sleeper study (extension X6): does the activity
/// dimension let strategies punish low-duty nodes that trust alone
/// cannot distinguish?
///
/// Sleepers forward everything *while awake*, so their forwarding rate —
/// and hence their trust level — stays high; only their absolute
/// forwarded-packet count (the activity datum of §3.2) is low. A
/// trust-only chromosome therefore cannot tell them from fully active
/// nodes, while the paper's 13-bit chromosome can.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleeperStudy {
    /// Delivery rate of sleepers' own packets under the full 13-bit
    /// (trust x activity) chromosome.
    pub full_sleeper_delivery: f64,
    /// Delivery rate of always-on nodes' packets under the full codec.
    pub full_active_delivery: f64,
    /// Sleeper delivery under the 5-bit trust-only chromosome.
    pub trust_only_sleeper_delivery: f64,
    /// Active delivery under the trust-only chromosome.
    pub trust_only_active_delivery: f64,
    /// Mean energy of a sleeper relative to an active node (same codec
    /// run, full chromosome) — the temptation being policed.
    pub sleeper_energy_ratio: f64,
}

impl SleeperStudy {
    /// The penalty the activity dimension imposes on sleeping:
    /// `(active - sleeper) / active` delivery gap under each codec.
    pub fn activity_penalty(&self) -> (f64, f64) {
        let gap = |active: f64, sleeper: f64| {
            if active == 0.0 {
                0.0
            } else {
                (active - sleeper) / active
            }
        };
        (
            gap(self.full_active_delivery, self.full_sleeper_delivery),
            gap(
                self.trust_only_active_delivery,
                self.trust_only_sleeper_delivery,
            ),
        )
    }
}

/// Runs the sleeper study: `n_sleepers` population members get the given
/// `duty` cycle, the population evolves under `case`, and the converged
/// generation's per-node delivery rates are compared across codecs.
///
/// # Panics
/// Panics if `n_sleepers` ≥ the population size or `duty ∉ (0, 1]`.
pub fn sleeper_study(
    base: &ExperimentConfig,
    case: &CaseSpec,
    n_sleepers: usize,
    duty: f64,
    seed: u64,
) -> SleeperStudy {
    assert!(n_sleepers < base.population, "leave some nodes awake");
    assert!(duty > 0.0 && duty <= 1.0, "duty {duty} outside (0, 1]");

    let run_codec = |codec: StrategyCodec| -> (f64, f64, f64) {
        let mut cfg = base.clone();
        cfg.codec = codec;
        cfg.sleepers = (0..n_sleepers)
            .map(|index| SleeperSpec { index, duty })
            .collect();
        let rep = run_replication(&cfg, case, seed);

        // Observation phase: the converged strategies play one CSN-free
        // tournament with the same duty cycles; per-source deliveries are
        // tracked directly.
        let game_config = crate::game_config_of(&cfg, case);
        let size = case.envs[0].normal().min(rep.final_population.len());
        let mut arena = Arena::new(rep.final_population[..size].to_vec(), 0, game_config, 1);
        for s in 0..n_sleepers.min(size) {
            arena.set_duty_cycle(NodeId::from(s), duty);
        }
        let participants: Vec<NodeId> = (0..size as u32).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(transfer_salt()));
        let mut scratch = Scratch::default();
        let mut delivered = vec![0u64; size];
        let mut sourced = vec![0u64; size];
        // Mirror the tournament's sleep handling via Tournament::run-like
        // manual rounds so deliveries can be attributed per source.
        for _round in 0..cfg.rounds {
            // Sample awake set.
            let mut awake: Vec<NodeId> = Vec::with_capacity(size);
            for &p in &participants {
                let d = arena.duty_cycle(p);
                if d >= 1.0 || rand::Rng::gen_bool(&mut rng, d) {
                    awake.push(p);
                }
            }
            if awake.len() < 2 {
                continue;
            }
            for &source in &participants {
                let awake_pos = awake.iter().position(|&p| p == source);
                if awake_pos.is_none() {
                    awake.push(source);
                }
                if awake.len() >= 3 {
                    let pos = awake_pos.unwrap_or(awake.len() - 1);
                    let report = play_game(&mut arena, &mut rng, &awake, pos, 0, &mut scratch);
                    sourced[source.index()] += 1;
                    delivered[source.index()] += report.outcome.delivered() as u64;
                }
                if awake_pos.is_none() {
                    awake.pop();
                }
            }
        }
        let rate_over = |range: std::ops::Range<usize>| -> f64 {
            let d: u64 = range.clone().map(|i| delivered[i]).sum();
            let s: u64 = range.map(|i| sourced[i]).sum();
            if s == 0 {
                0.0
            } else {
                d as f64 / s as f64
            }
        };
        let sleeper_rate = rate_over(0..n_sleepers.min(size));
        let active_rate = rate_over(n_sleepers.min(size)..size);
        // Energy ratio from the observation tournament (full codec only
        // uses it, but compute uniformly).
        let profile = ahn_net::energy::PowerProfile::wavelan();
        let mean = |r: std::ops::Range<usize>| -> f64 {
            let n = r.len().max(1) as f64;
            r.map(|i| arena.energy[i].total_mj(&profile)).sum::<f64>() / n
        };
        let ratio = {
            let active = mean(n_sleepers.min(size)..size);
            if active == 0.0 {
                1.0
            } else {
                mean(0..n_sleepers.min(size)) / active
            }
        };
        (sleeper_rate, active_rate, ratio)
    };

    let (full_sleeper, full_active, energy_ratio) = run_codec(StrategyCodec::Full);
    let (trust_sleeper, trust_active, _) = run_codec(StrategyCodec::TrustOnly);
    SleeperStudy {
        full_sleeper_delivery: full_sleeper,
        full_active_delivery: full_active,
        trust_only_sleeper_delivery: trust_sleeper,
        trust_only_active_delivery: trust_active,
        sleeper_energy_ratio: energy_ratio,
    }
}

#[cfg(test)]
mod sleeper_tests {
    use super::*;
    use ahn_net::PathMode;

    #[test]
    fn sleeper_study_reports_energy_savings() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.population = 12;
        cfg.rounds = 40;
        cfg.generations = 20;
        let case = CaseSpec::mini("sleep", &[0], 12, PathMode::Shorter);
        let study = sleeper_study(&cfg, &case, 3, 0.3, 7);
        // Sleeping must save energy in the observation tournament.
        assert!(
            study.sleeper_energy_ratio < 0.9,
            "sleepers should be cheaper: ratio {}",
            study.sleeper_energy_ratio
        );
        // Deliveries are probabilities.
        for v in [
            study.full_sleeper_delivery,
            study.full_active_delivery,
            study.trust_only_sleeper_delivery,
            study.trust_only_active_delivery,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
        let (_full_gap, _trust_gap) = study.activity_penalty();
    }

    #[test]
    #[should_panic(expected = "leave some nodes awake")]
    fn all_sleepers_rejected() {
        let cfg = ExperimentConfig::smoke();
        let case = CaseSpec::mini("sleep", &[0], 10, PathMode::Shorter);
        sleeper_study(&cfg, &case, cfg.population, 0.5, 0);
    }
}
