//! Replication runner and cross-replication aggregation.
//!
//! One *replication* is a complete evolution: random initial population,
//! `generations` iterations of multi-environment evaluation (§4.4) and
//! breeding (§5), with per-generation metrics. An *experiment* averages
//! `replications` independent replications (the paper uses 60), run in
//! parallel by the cell engine ([`crate::cells`]) — each replication
//! owns its RNG (`base_seed + k`), so parallelism never changes results.

use crate::cases::CaseSpec;
use crate::config::ExperimentConfig;
use ahn_bitstr::BitStr;
use ahn_ga::{next_generation_into, GenStats};
use ahn_game::{Arena, EnvMetrics, EvaluationSchedule, NodeKind};
use ahn_net::energy::{EnergyLedger, PowerProfile};
use ahn_stats::{Series, Summary};
use ahn_strategy::analysis::StrategyCensus;
use ahn_strategy::Strategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Everything one replication produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicationResult {
    /// Cooperation level per generation, aggregated over environments
    /// (the Fig. 4 series of this run).
    pub coop_by_gen: Vec<f64>,
    /// Final-generation metrics per environment (Tab. 5 inputs).
    pub final_by_env: Vec<EnvMetrics>,
    /// Final-generation whole-run metrics (Tab. 6 inputs).
    pub final_total: EnvMetrics,
    /// The last generation's population (Tab. 7–9 inputs).
    pub final_population: Vec<Strategy>,
    /// Fitness statistics per generation.
    pub fitness_by_gen: Vec<GenStats>,
    /// Mean per-node energy in the final generation (mJ, WaveLAN
    /// profile), split normal / selfish — the extension metric.
    pub energy_normal_mj: f64,
    /// Mean final-generation energy per selfish node (mJ).
    pub energy_selfish_mj: f64,
}

/// Decides whether a `(config, case)` cell can run: the whole
/// precondition of [`run_replication_with`], checked without running
/// or allocating anything, so every front end refuses a bad cell with
/// an error instead of a panic.
///
/// # Errors
/// Names the first field that makes the cell unrunnable: an invalid
/// config ([`ExperimentConfig::validate`]), a case without environments
/// or with one of fewer than 3 participants or no normal player
/// (deserialization bypasses [`ahn_game::EnvironmentSpec::new`]), a
/// population or attacker pool short of the case's largest demand.
pub fn check_cell(config: &ExperimentConfig, case: &CaseSpec) -> Result<(), String> {
    config.validate()?;
    if case.envs.is_empty() {
        return Err(format!("{:?} has no environments", case.name));
    }
    for env in &case.envs {
        if env.size < 3 {
            return Err(format!(
                "{:?}: an environment of {} participants cannot route \
                 (source, relay and destination need 3)",
                case.name, env.size
            ));
        }
        if env.csn >= env.size {
            return Err(format!(
                "{:?}: {} CSN cannot fit an environment of {} participants",
                case.name, env.csn, env.size
            ));
        }
    }
    if config.population < case.required_normal() {
        return Err(format!(
            "population {} cannot fill {:?}, which needs {} normal players",
            config.population,
            case.name,
            case.required_normal()
        ));
    }
    if config.attackers.is_some() && config.attacker_count() < case.required_csn() {
        return Err(format!(
            "attackers: a pool of {} cannot fill {:?}, which needs {} selfish nodes",
            config.attacker_count(),
            case.name,
            case.required_csn()
        ));
    }
    Ok(())
}

/// The world a cell plays in: `strategies` as the normal players (ids
/// `0..strategies.len()`), then the selfish pool — the case's
/// constantly selfish nodes, or the adversary zoo's attacker groups in
/// declaration order — with the configured sleepers' duty cycles.
pub(crate) fn arena_for(
    config: &ExperimentConfig,
    case: &CaseSpec,
    strategies: Vec<Strategy>,
) -> Arena {
    let mut kinds = vec![NodeKind::Normal; strategies.len()];
    match &config.attackers {
        None => kinds.extend(std::iter::repeat_n(
            NodeKind::ConstantlySelfish,
            case.required_csn(),
        )),
        Some(groups) => {
            for g in groups {
                kinds.extend(std::iter::repeat_n(g.behavior.node_kind(), g.count));
            }
        }
    }
    let game_config = crate::game_config_of(config, case);
    let mut arena = Arena::with_kinds(strategies, kinds, game_config, case.envs.len());
    for sleeper in &config.sleepers {
        arena.set_duty_cycle(ahn_net::NodeId::from(sleeper.index), sleeper.duty);
    }
    arena
}

/// Runs a single replication with the given seed.
///
/// # Panics
/// Panics with [`check_cell`]'s message when the cell cannot run.
pub fn run_replication(config: &ExperimentConfig, case: &CaseSpec, seed: u64) -> ReplicationResult {
    run_replication_with(config, case, seed, &mut ahn_obs::NoopRecorder)
}

/// [`run_replication`] with a hot-path [`ahn_obs::Recorder`] marking
/// the schedule/play/evolve phase boundaries of every generation.
///
/// The function is generic so the default [`ahn_obs::NoopRecorder`]
/// monomorphizes every hook to an empty inlined body: instrumentation
/// off costs literally nothing (`tests/zero_alloc.rs` and the BENCH
/// gate pin this). Recorders never touch `rng` or any simulated state,
/// so results are bit-identical with recording on or off.
///
/// # Panics
/// Panics with [`check_cell`]'s message when the cell cannot run.
pub fn run_replication_with<R: ahn_obs::Recorder>(
    config: &ExperimentConfig,
    case: &CaseSpec,
    seed: u64,
    recorder: &mut R,
) -> ReplicationResult {
    check_cell(config, case).unwrap_or_else(|e| panic!("{e}"));

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let schedule = EvaluationSchedule::new(case.envs.clone(), config.rounds, config.plays_per_env);

    let bits = config.codec.genome_bits();
    let mut genomes: Vec<BitStr> = (0..config.population)
        .map(|_| {
            let mut g = BitStr::random(&mut rng, bits);
            config.mask_genome(&mut g);
            g
        })
        .collect();

    let decode =
        |gs: &[BitStr]| -> Vec<Strategy> { gs.iter().map(|g| config.codec.decode(g)).collect() };

    let mut arena = arena_for(config, case, decode(&genomes));

    let mut coop_by_gen = Vec::with_capacity(config.generations);
    let mut fitness_by_gen = Vec::with_capacity(config.generations);
    // Steady-state buffer reuse: offspring are double-buffered and
    // swapped, strategies decode in place into the arena's SoA buffer,
    // fitnesses fill a reused vector, and the schedule's participant
    // selection shares one scratch — so the generational loop performs
    // no per-generation allocations even at 1 000-node scale.
    let mut offspring: Vec<BitStr> = Vec::with_capacity(config.population);
    let mut fitnesses: Vec<f64> = Vec::with_capacity(config.population);
    let mut schedule_scratch = ahn_game::ScheduleScratch::default();

    for generation in 0..config.generations {
        recorder.begin(ahn_obs::Phase::Schedule);
        arena.set_strategies_with(|i| config.codec.decode(&genomes[i]));
        recorder.end(ahn_obs::Phase::Schedule);

        recorder.begin(ahn_obs::Phase::Play);
        schedule.run_with_scratch(&mut arena, &mut rng, &mut schedule_scratch);
        recorder.end(ahn_obs::Phase::Play);

        let total = arena.metrics.total();
        let cooperation = total.cooperation_level();
        coop_by_gen.push(cooperation);
        arena.fitnesses_into(&mut fitnesses);
        fitness_by_gen.push(GenStats::from_fitnesses(&fitnesses));

        if generation + 1 < config.generations {
            recorder.begin(ahn_obs::Phase::Evolve);
            next_generation_into(&mut rng, &config.ga, &genomes, &fitnesses, &mut offspring);
            std::mem::swap(&mut genomes, &mut offspring);
            for g in &mut genomes {
                config.mask_genome(g);
            }
            recorder.end(ahn_obs::Phase::Evolve);
        }
        recorder.generation(generation as u64, cooperation);
    }

    let profile = PowerProfile::wavelan();
    let mean_energy = |ledgers: &[EnergyLedger]| -> f64 {
        if ledgers.is_empty() {
            0.0
        } else {
            ledgers.iter().map(|l| l.total_mj(&profile)).sum::<f64>() / ledgers.len() as f64
        }
    };
    let n = arena.n_normal();

    ReplicationResult {
        coop_by_gen,
        final_by_env: (0..case.envs.len())
            .map(|e| *arena.metrics.env(e))
            .collect(),
        final_total: arena.metrics.total(),
        final_population: decode(&genomes),
        fitness_by_gen,
        energy_normal_mj: mean_energy(&arena.energy[..n]),
        energy_selfish_mj: mean_energy(&arena.energy[n..]),
    }
}

/// Per-source-kind request-response fractions averaged over replications
/// (one side of Table 6).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReqSummary {
    /// Fraction of requests accepted.
    pub accepted: Summary,
    /// Fraction rejected by normal players.
    pub rejected_by_nn: Summary,
    /// Fraction rejected by CSN.
    pub rejected_by_csn: Summary,
}

impl ReqSummary {
    fn add(&mut self, counts: &ahn_game::ReqCounts) {
        let (a, n, c) = counts.fractions();
        self.accepted.add(a);
        self.rejected_by_nn.add(n);
        self.rejected_by_csn.add(c);
    }
}

/// Aggregated outcome of one experiment (config × case, averaged over
/// replications).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Case name (e.g. "case 3").
    pub case_name: String,
    /// Replications aggregated.
    pub replications: usize,
    /// Cooperation level per generation (Fig. 4 series: mean ± CI).
    pub coop_series: Series,
    /// Final-generation cooperation level (the number quoted in §6.2).
    pub final_coop: Summary,
    /// Final-generation cooperation per environment (Tab. 5, cols 2–3).
    pub per_env_coop: Vec<Summary>,
    /// Final-generation CSN-free-path share per environment (Tab. 5,
    /// cols 4–5).
    pub per_env_csn_free: Vec<Summary>,
    /// Responses to requests from normal sources (Tab. 6 left).
    pub req_from_nn: ReqSummary,
    /// Responses to requests from CSN sources (Tab. 6 right).
    pub req_from_csn: ReqSummary,
    /// Census of all final populations (Tab. 7–9).
    pub census: StrategyCensus,
    /// Mean-fitness series across generations.
    pub fitness_mean_series: Series,
    /// Mean final-generation energy per node kind (mJ).
    pub energy_normal_mj: Summary,
    /// Mean final-generation energy per selfish node (mJ).
    pub energy_selfish_mj: Summary,
}

/// Runs `config.replications` replications of `case` and aggregates
/// them: a one-cell batch of the cell engine ([`crate::run_cells`]),
/// whose replications run in parallel.
pub fn run_experiment(config: &ExperimentConfig, case: &CaseSpec) -> ExperimentResult {
    let cell = (config.clone(), case.clone());
    let mut results = crate::cells::run_cells(&[cell], None, |_| String::new());
    results.pop().expect("one cell, one result")
}

/// Merges replication results into an [`ExperimentResult`].
pub fn aggregate(
    config: &ExperimentConfig,
    case: &CaseSpec,
    results: &[ReplicationResult],
) -> ExperimentResult {
    assert!(!results.is_empty(), "no replications to aggregate");
    let n_envs = case.envs.len();
    let mut coop_series = Series::new();
    let mut fitness_mean_series = Series::new();
    let mut final_coop = Summary::new();
    let mut per_env_coop = vec![Summary::new(); n_envs];
    let mut per_env_csn_free = vec![Summary::new(); n_envs];
    let mut req_from_nn = ReqSummary::default();
    let mut req_from_csn = ReqSummary::default();
    let mut census = StrategyCensus::new();
    let mut energy_normal_mj = Summary::new();
    let mut energy_selfish_mj = Summary::new();

    for r in results {
        coop_series.add_run(&r.coop_by_gen);
        fitness_mean_series.add_run(&r.fitness_by_gen.iter().map(|s| s.mean).collect::<Vec<_>>());
        if let Some(&last) = r.coop_by_gen.last() {
            final_coop.add(last);
        }
        for (e, m) in r.final_by_env.iter().enumerate() {
            per_env_coop[e].add(m.cooperation_level());
            per_env_csn_free[e].add(m.csn_free_share());
        }
        req_from_nn.add(&r.final_total.from_nn);
        req_from_csn.add(&r.final_total.from_csn);
        census.add_population(&r.final_population);
        energy_normal_mj.add(r.energy_normal_mj);
        energy_selfish_mj.add(r.energy_selfish_mj);
    }

    ExperimentResult {
        case_name: case.name.clone(),
        replications: config.replications,
        coop_series,
        final_coop,
        per_env_coop,
        per_env_csn_free,
        req_from_nn,
        req_from_csn,
        census,
        fitness_mean_series,
        energy_normal_mj,
        energy_selfish_mj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahn_net::PathMode;

    fn smoke_case(csn: &[usize]) -> CaseSpec {
        CaseSpec::mini("smoke", csn, 10, PathMode::Shorter)
    }

    #[test]
    fn replication_shapes_are_consistent() {
        let cfg = ExperimentConfig::smoke();
        let case = smoke_case(&[0, 3]);
        let r = run_replication(&cfg, &case, 7);
        assert_eq!(r.coop_by_gen.len(), cfg.generations);
        assert_eq!(r.fitness_by_gen.len(), cfg.generations);
        assert_eq!(r.final_by_env.len(), 2);
        assert_eq!(r.final_population.len(), cfg.population);
        assert!(r.coop_by_gen.iter().all(|c| (0.0..=1.0).contains(c)));
    }

    #[test]
    fn replications_are_deterministic() {
        let cfg = ExperimentConfig::smoke();
        let case = smoke_case(&[2]);
        let a = run_replication(&cfg, &case, 42);
        let b = run_replication(&cfg, &case, 42);
        assert_eq!(a, b);
        let c = run_replication(&cfg, &case, 43);
        assert_ne!(
            a.coop_by_gen, c.coop_by_gen,
            "different seeds should differ"
        );
    }

    #[test]
    fn experiment_aggregates_all_replications() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.replications = 3;
        let case = smoke_case(&[0]);
        let res = run_experiment(&cfg, &case);
        assert_eq!(res.replications, 3);
        assert_eq!(res.final_coop.count(), 3);
        assert_eq!(res.coop_series.len(), cfg.generations);
        assert_eq!(res.census.total(), (3 * cfg.population) as u64);
        assert_eq!(res.per_env_coop.len(), 1);
    }

    #[test]
    fn parallel_equals_sequential() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.replications = 2;
        let case = smoke_case(&[1]);
        let par = run_experiment(&cfg, &case);
        let seq: Vec<ReplicationResult> = (0..2)
            .map(|k| run_replication(&cfg, &case, cfg.base_seed.wrapping_add(k)))
            .collect();
        let seq = aggregate(&cfg, &case, &seq);
        assert_eq!(par, seq);
    }

    #[test]
    fn trust_only_codec_runs() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.codec = crate::config::StrategyCodec::TrustOnly;
        let r = run_replication(&cfg, &smoke_case(&[2]), 1);
        // Lifted strategies are activity-invariant by construction.
        for s in &r.final_population {
            for t in ahn_net::TrustLevel::ALL {
                let sub = s.sub_strategy(t);
                assert!(
                    sub == 0b000 || sub == 0b111,
                    "activity-variant sub {sub:03b}"
                );
            }
        }
    }

    #[test]
    fn forced_unknown_bit_is_pinned() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.force_unknown = Some(false);
        let r = run_replication(&cfg, &smoke_case(&[1]), 3);
        for s in &r.final_population {
            assert_eq!(s.unknown_decision(), ahn_strategy::Decision::Discard);
        }
    }

    #[test]
    fn selfish_nodes_save_transmit_energy() {
        // Population exactly fills one tournament so normal nodes and CSN
        // participate equally often; only per-event behavior differs.
        let mut cfg = ExperimentConfig::smoke();
        cfg.generations = 4;
        cfg.population = 6;
        let r = run_replication(&cfg, &smoke_case(&[4]), 5);
        assert!(r.energy_selfish_mj > 0.0, "CSN still receive and source");
        assert!(
            r.energy_normal_mj > r.energy_selfish_mj,
            "forwarding must cost more: normal {} vs selfish {}",
            r.energy_normal_mj,
            r.energy_selfish_mj
        );
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn population_too_small_panics() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.population = 5;
        run_replication(&cfg, &smoke_case(&[0]), 0);
    }
}
