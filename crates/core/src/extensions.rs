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
//!
//! Every study checks its cells up front ([`check_cell`]) and plays its
//! observation rounds through [`Tournament`], like the evolution does.

use crate::cases::CaseSpec;
use crate::config::{ExperimentConfig, SleeperSpec, StrategyCodec};
use crate::experiment::{check_cell, run_replication};
use ahn_game::{Arena, RoundScratch, Tournament};
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

const fn transfer_salt() -> u64 {
    0x7A_5A_17
}

/// Full train × eval matrix over the given cases: evolves one population
/// under each case (one replication), then freezes it and measures its
/// cooperation under every case.
///
/// # Errors
/// Errors, before running anything, when a `(config, case)` cell fails
/// [`check_cell`].
pub fn transfer_matrix(
    config: &ExperimentConfig,
    cases: &[CaseSpec],
    seed: u64,
) -> Result<Vec<TransferCell>, String> {
    for case in cases {
        check_cell(config, case)?;
    }
    let mut out = Vec::with_capacity(cases.len() * cases.len());
    for train in cases {
        let trained = run_replication(config, train, seed);
        for eval in cases {
            let metrics = crate::baselines::evaluate_static(
                config,
                eval,
                &trained.final_population,
                seed.wrapping_add(transfer_salt()),
            );
            out.push(TransferCell {
                trained_on: train.name.clone(),
                evaluated_on: eval.name.clone(),
                cooperation: metrics.cooperation_level(),
            });
        }
    }
    Ok(out)
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
/// # Errors
/// Errors, before running anything, when the cell fails [`check_cell`].
///
/// # Panics
/// Panics if `rounds < 8`, or if the case's first environment has
/// fewer than 3 normal players (a tournament of veterans needs 3).
pub fn newcomer_join(
    config: &ExperimentConfig,
    case: &CaseSpec,
    rounds: usize,
    seed: u64,
) -> Result<NewcomerReport, String> {
    assert!(rounds >= 8, "need at least 8 rounds to compare quarters");
    check_cell(config, case)?;
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
    let mut scratch = RoundScratch::default();
    let tournament = Tournament::new(rounds);

    // Warm up the veterans' mutual reputation WITHOUT the newcomer so it
    // is genuinely the only unknown party.
    let veterans_only = &participants[..veterans];
    tournament.run_with_scratch(&mut arena, &mut rng, veterans_only, 0, &mut scratch);

    // Observation: everyone plays, and we track the newcomer's games.
    let mut deliveries: Vec<bool> = Vec::with_capacity(rounds);
    tournament.run_observed(
        &mut arena,
        &mut rng,
        &participants,
        0,
        &mut scratch,
        |source, report, _| {
            if source == newcomer {
                deliveries.push(report.outcome.delivered());
            }
        },
    );

    let quarter = (deliveries.len() / 4).max(1);
    let rate = |slice: &[bool]| -> f64 {
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().filter(|&&d| d).count() as f64 / slice.len() as f64
        }
    };
    Ok(NewcomerReport {
        early_delivery: rate(&deliveries[..quarter]),
        late_delivery: rate(&deliveries[deliveries.len() - quarter..]),
        unknown_forward_share: census.unknown_forward_share(),
    })
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
        let cells = transfer_matrix(&config, &[clean, hostile], 3).unwrap();
        // Row-major: trained on clean, evaluated on clean then hostile.
        let (own, cross) = (&cells[0], &cells[1]);
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
        let cells = transfer_matrix(&config, &cases, 1).unwrap();
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
        let report = newcomer_join(&config, &case, 40, 5).unwrap();
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
/// # Errors
/// Errors, before running anything, when a cell fails [`check_cell`]
/// (a `duty` outside (0, 1] among them).
///
/// # Panics
/// Panics if the cells pass but leave no member awake (`n_sleepers`
/// equal to the population).
pub fn sleeper_study(
    base: &ExperimentConfig,
    case: &CaseSpec,
    n_sleepers: usize,
    duty: f64,
    seed: u64,
) -> Result<SleeperStudy, String> {
    let cells = [StrategyCodec::Full, StrategyCodec::TrustOnly].map(|codec| ExperimentConfig {
        codec,
        sleepers: (0..n_sleepers)
            .map(|index| SleeperSpec { index, duty })
            .collect(),
        ..base.clone()
    });
    for cfg in &cells {
        check_cell(cfg, case)?;
    }
    assert!(n_sleepers < base.population, "leave some nodes awake");

    let run_codec = |cfg: &ExperimentConfig| -> (f64, f64, f64) {
        let rep = run_replication(cfg, case, seed);

        // Observation phase: the converged strategies play one CSN-free
        // tournament with the same duty cycles, through the tournament's
        // own rounds (awake sampling, idle and sleep energy); its game
        // hook attributes deliveries per source.
        let game_config = crate::game_config_of(cfg, case);
        let size = case.envs[0].normal().min(rep.final_population.len());
        let mut arena = Arena::new(rep.final_population[..size].to_vec(), 0, game_config, 1);
        for s in 0..n_sleepers.min(size) {
            arena.set_duty_cycle(NodeId::from(s), duty);
        }
        let participants: Vec<NodeId> = (0..size as u32).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(transfer_salt()));
        let mut delivered = vec![0u64; size];
        let mut sourced = vec![0u64; size];
        Tournament::new(cfg.rounds).run_observed(
            &mut arena,
            &mut rng,
            &participants,
            0,
            &mut RoundScratch::default(),
            |source, report, _| {
                sourced[source.index()] += 1;
                delivered[source.index()] += u64::from(report.outcome.delivered());
            },
        );
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

    let [full, trust_only] = &cells;
    let (full_sleeper, full_active, energy_ratio) = run_codec(full);
    let (trust_sleeper, trust_active, _) = run_codec(trust_only);
    Ok(SleeperStudy {
        full_sleeper_delivery: full_sleeper,
        full_active_delivery: full_active,
        trust_only_sleeper_delivery: trust_sleeper,
        trust_only_active_delivery: trust_active,
        sleeper_energy_ratio: energy_ratio,
    })
}

/// The `ahn-exp trace` dump: evolves one replication of case 3 (the
/// population grown to fill it), plays the evolved strategies in a TE2
/// tournament (case 3's second environment) for 40 warm-up rounds, and
/// renders the first 25 games of the next round as a JSON array, one
/// game per line: source, destination, relay path, and each relay's
/// decision with its trust in the source (`D@TL0`, `F@TL3`).
///
/// # Errors
/// Errors, before running anything, when the case-3 cell fails
/// [`check_cell`].
pub fn decision_trace(config: &ExperimentConfig) -> Result<String, String> {
    let case = CaseSpec::paper(3);
    let cfg = ExperimentConfig {
        replications: 1,
        population: config.population.max(case.required_normal()),
        ..config.clone()
    };
    check_cell(&cfg, &case)?;
    let rep = run_replication(&cfg, &case, cfg.base_seed);

    let env = case.envs[1];
    let size = env.normal().min(rep.final_population.len());
    let game_config = crate::game_config_of(&cfg, &case);
    let mut arena = Arena::new(
        rep.final_population[..size].to_vec(),
        env.csn,
        game_config,
        1,
    );
    let participants: Vec<NodeId> = (0..arena.n_total() as u32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.base_seed ^ 0xdecaf);
    let mut scratch = RoundScratch::default();
    Tournament::new(40).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    let mut games = Vec::with_capacity(25);
    Tournament::new(1).run_observed(
        &mut arena,
        &mut rng,
        &participants,
        0,
        &mut scratch,
        |source, report, game| {
            if games.len() == 25 {
                return;
            }
            let path: Vec<u32> = game.last_path().iter().map(|n| n.0).collect();
            let decisions: Vec<String> = (game.last_decisions().iter())
                .map(|(d, t)| format!("{d}@{t}"))
                .collect();
            games.push(format!(
                "  {{\"source\": {}, \"destination\": {}, \"path\": {path:?}, \
                 \"decisions\": {decisions:?}, \"delivered\": {}}}",
                source.0,
                report.destination.0,
                report.outcome.delivered()
            ));
        },
    );
    Ok(format!("[\n{}\n]\n", games.join(",\n")))
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
        let study = sleeper_study(&cfg, &case, 3, 0.3, 7).unwrap();
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
    fn sleeper_energy_is_the_tournaments_energy() {
        // The settings of `sleeper_study_reports_energy_savings`.
        let mut cfg = ExperimentConfig::smoke();
        cfg.population = 12;
        cfg.rounds = 40;
        cfg.generations = 20;
        let case = CaseSpec::mini("sleep", &[0], 12, PathMode::Shorter);
        let (n_sleepers, duty, seed) = (3, 0.3, 7);
        let study = sleeper_study(&cfg, &case, n_sleepers, duty, seed).unwrap();

        // The full-codec observation tournament, played by `Tournament::run`.
        cfg.sleepers = (0..n_sleepers)
            .map(|index| SleeperSpec { index, duty })
            .collect();
        let rep = run_replication(&cfg, &case, seed);
        let game_config = crate::game_config_of(&cfg, &case);
        let mut arena = Arena::new(rep.final_population, 0, game_config, 1);
        for s in 0..n_sleepers {
            arena.set_duty_cycle(NodeId::from(s), duty);
        }
        let participants: Vec<NodeId> = (0..12).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(transfer_salt()));
        Tournament::new(cfg.rounds).run(&mut arena, &mut rng, &participants, 0);
        // Every node spends each round listening or asleep.
        for ledger in &arena.energy {
            assert_eq!(ledger.idle_s + ledger.sleep_s, 40.0);
        }
        let profile = ahn_net::energy::PowerProfile::wavelan();
        let mean = |r: std::ops::Range<usize>| {
            let n = r.len() as f64;
            r.map(|i| arena.energy[i].total_mj(&profile)).sum::<f64>() / n
        };
        assert_eq!(study.sleeper_energy_ratio, mean(0..3) / mean(3..12));
    }

    #[test]
    #[should_panic(expected = "leave some nodes awake")]
    fn all_sleepers_rejected() {
        let cfg = ExperimentConfig::smoke();
        let case = CaseSpec::mini("sleep", &[0], 10, PathMode::Shorter);
        let _ = sleeper_study(&cfg, &case, cfg.population, 0.5, 0);
    }
}
