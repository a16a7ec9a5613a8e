//! Experiment configuration with the paper's parameters as the reference
//! preset.
//!
//! Paper parameters (§6.1): population 100, tournament size 50, rounds
//! 300, generations 500, crossover 0.9, mutation 0.001, 60 repetitions.
//! The `scaled` preset keeps the model identical but shrinks rounds,
//! generations and repetitions so the full table/figure sweep runs in
//! minutes on a laptop; EXPERIMENTS.md records which preset produced each
//! number.

use ahn_bitstr::BitStr;
use ahn_ga::GaParams;
use ahn_game::PayoffConfig;
use ahn_net::{ActivityBands, GossipConfig, RouteSelection, TrustTable};
use ahn_strategy::{reduced::ReducedStrategy, Strategy};
use serde::{Deserialize, Serialize};

/// Which chromosome the GA evolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum StrategyCodec {
    /// The paper's 13-bit trust × activity strategy.
    #[default]
    Full,
    /// The 5-bit trust-only ablation (DESIGN.md A2): same game, smaller
    /// genome, activity information discarded.
    TrustOnly,
}

impl StrategyCodec {
    /// Genome width in bits.
    pub fn genome_bits(self) -> usize {
        match self {
            StrategyCodec::Full => ahn_strategy::STRATEGY_BITS,
            StrategyCodec::TrustOnly => ahn_strategy::reduced::REDUCED_BITS,
        }
    }

    /// Index of the unknown-node bit in this encoding.
    pub fn unknown_bit(self) -> usize {
        match self {
            StrategyCodec::Full => ahn_strategy::UNKNOWN_BIT,
            StrategyCodec::TrustOnly => 4,
        }
    }

    /// Decodes a genome into the playable 13-bit strategy.
    ///
    /// # Panics
    /// Panics if the genome width does not match the codec.
    pub fn decode(self, genome: &BitStr) -> Strategy {
        match self {
            StrategyCodec::Full => Strategy::from_bits(*genome),
            StrategyCodec::TrustOnly => ReducedStrategy::from_bits(*genome).lift(),
        }
    }
}

/// A population member with a reduced radio duty cycle (extension X6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleeperSpec {
    /// Index of the player within the population.
    pub index: usize,
    /// Probability of being awake in any tournament round (0, 1].
    pub duty: f64,
}

/// A named attacker behavior from the adversary zoo (DESIGN.md
/// "Scenarios"), mapping one-to-one onto an [`ahn_game::NodeKind`].
/// Every behavior occupies a selfish-pool slot: excluded from evolution
/// and from the cooperation metrics, participating in tournaments
/// according to each environment's CSN count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackerBehavior {
    /// The paper's constantly selfish node: always discards.
    Selfish,
    /// Drops each request independently with probability `p`.
    RandomDropper {
        /// Per-request drop probability in \[0, 1\].
        p: f64,
    },
    /// Forwards faithfully while poisoning second-hand reputation
    /// (slander + vouching for fellow liars) when chosen as a gossip
    /// teller. Requires a gossip extension to have any effect.
    Liar,
    /// Forwards only for its own clique, discards for everyone else,
    /// and vouches for clique-mates in gossip.
    Colluder {
        /// Clique identifier; members with equal ids cooperate.
        clique: u8,
    },
    /// Forwards for `on` rounds, discards for `off` rounds, repeating.
    OnOff {
        /// Cooperative rounds per cycle.
        on: u16,
        /// Defecting rounds per cycle.
        off: u16,
    },
    /// Always discards; its public history is wiped every `period`
    /// rounds (fresh-identity re-entry).
    Whitewasher {
        /// Rounds between identity resets.
        period: u16,
    },
    /// Always discards and sources `extra` additional packets per round
    /// (energy exhaustion).
    Flooder {
        /// Extra packets sourced per round.
        extra: u8,
    },
}

impl AttackerBehavior {
    /// The node kind implementing this behavior in the game engine.
    pub fn node_kind(self) -> ahn_game::NodeKind {
        match self {
            AttackerBehavior::Selfish => ahn_game::NodeKind::ConstantlySelfish,
            AttackerBehavior::RandomDropper { p } => ahn_game::NodeKind::RandomDropper(p),
            AttackerBehavior::Liar => ahn_game::NodeKind::Liar,
            AttackerBehavior::Colluder { clique } => ahn_game::NodeKind::Colluder(clique),
            AttackerBehavior::OnOff { on, off } => ahn_game::NodeKind::OnOff { on, off },
            AttackerBehavior::Whitewasher { period } => ahn_game::NodeKind::Whitewasher { period },
            AttackerBehavior::Flooder { extra } => ahn_game::NodeKind::Flooder { extra },
        }
    }

    /// Parameter sanity.
    pub fn validate(self) -> Result<(), String> {
        match self {
            AttackerBehavior::RandomDropper { p } if !(0.0..=1.0).contains(&p) => {
                Err(format!("random dropper probability {p} outside [0, 1]"))
            }
            AttackerBehavior::OnOff { on, off } if on == 0 && off == 0 => {
                Err("on-off attacker needs a non-empty cycle".into())
            }
            AttackerBehavior::Whitewasher { period: 0 } => {
                Err("whitewasher period must be positive".into())
            }
            AttackerBehavior::Flooder { extra: 0 } => {
                Err("flooder must source at least one extra packet".into())
            }
            _ => Ok(()),
        }
    }
}

/// `count` identically-behaved attackers occupying consecutive
/// selfish-pool slots (arena tail ids, in group order).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackerGroup {
    /// Behavior of every node in the group.
    pub behavior: AttackerBehavior,
    /// Number of nodes.
    pub count: usize,
}

/// All knobs of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Population size `N` (paper: 100).
    pub population: usize,
    /// Rounds per tournament `R` (paper: 300).
    pub rounds: usize,
    /// Generations (paper: 500).
    pub generations: usize,
    /// Independent repetitions averaged into every report (paper: 60).
    pub replications: usize,
    /// Times each player plays per environment (`L`; DESIGN.md default 1).
    pub plays_per_env: usize,
    /// GA hyper-parameters.
    pub ga: GaParams,
    /// Payoff tables.
    pub payoff: PayoffConfig,
    /// Trust lookup table.
    pub trust: TrustTable,
    /// Activity bands.
    pub activity: ActivityBands,
    /// Route-selection policy (paper: best-rated).
    pub route_selection: RouteSelection,
    /// Genome encoding (paper: 13-bit full).
    pub codec: StrategyCodec,
    /// Optional second-hand reputation exchange (extension A7; the paper
    /// uses first-hand watchdog observation only).
    pub gossip: Option<GossipConfig>,
    /// Population members with reduced duty cycles (extension X6; empty —
    /// the paper's model — means everyone always listens).
    pub sleepers: Vec<SleeperSpec>,
    /// When set, the unknown-node bit is pinned to this value after every
    /// breeding step (ablation A6).
    pub force_unknown: Option<bool>,
    /// When set, the selfish pool is built from these attacker groups
    /// (adversary zoo; see `ahn_core::scenarios`) instead of plain
    /// constantly-selfish nodes. `None` — the paper's model — keeps the
    /// all-CSN pool.
    pub attackers: Option<Vec<AttackerGroup>>,
    /// Base RNG seed; replication `k` runs with `base_seed + k`.
    pub base_seed: u64,
}

impl ExperimentConfig {
    /// The paper's full-scale parameters.
    pub fn paper() -> Self {
        ExperimentConfig {
            population: 100,
            rounds: 300,
            generations: 500,
            replications: 60,
            plays_per_env: 1,
            ga: GaParams::paper(),
            payoff: PayoffConfig::paper(),
            trust: TrustTable::paper(),
            activity: ActivityBands::paper(),
            route_selection: RouteSelection::BestRated,
            codec: StrategyCodec::Full,
            gossip: None,
            sleepers: Vec::new(),
            force_unknown: None,
            attackers: None,
            base_seed: 0x5EED_2007,
        }
    }

    /// Laptop-scale preset: identical model and tournament length
    /// (R = 300 — the reputation horizon is load-bearing, see
    /// EXPERIMENTS.md), smaller evolution budget (150 generations,
    /// 12 repetitions instead of 500/60).
    pub fn scaled() -> Self {
        ExperimentConfig {
            generations: 150,
            replications: 12,
            ..ExperimentConfig::paper()
        }
    }

    /// Tiny preset for unit/integration tests. 30 rounds is the smallest
    /// reputation horizon at which cooperation can still evolve in
    /// 10-participant tournaments (below that the defection basin
    /// swallows every run; see EXPERIMENTS.md, "scale sensitivity").
    pub fn smoke() -> Self {
        ExperimentConfig {
            population: 20,
            rounds: 30,
            generations: 10,
            replications: 2,
            ..ExperimentConfig::paper()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.population == 0 || self.generations == 0 || self.replications == 0 {
            return Err("population, generations and replications must be positive".into());
        }
        if self.rounds == 0 || self.plays_per_env == 0 {
            return Err("rounds and plays_per_env must be positive".into());
        }
        self.ga.validate()?;
        if self.ga.elitism > self.population {
            return Err(format!(
                "ga.elitism {} exceeds the population ({})",
                self.ga.elitism, self.population
            ));
        }
        self.trust.validate()?;
        for (i, sleeper) in self.sleepers.iter().enumerate() {
            if !(sleeper.duty > 0.0 && sleeper.duty <= 1.0) {
                return Err(format!(
                    "sleepers[{i}].duty {} outside (0, 1]",
                    sleeper.duty
                ));
            }
            if sleeper.index >= self.population {
                return Err(format!(
                    "sleepers[{i}].index {} outside the population ({})",
                    sleeper.index, self.population
                ));
            }
        }
        if let Some(groups) = &self.attackers {
            if groups.is_empty() {
                return Err("attackers, when set, needs at least one group".into());
            }
            let mut total = 0usize;
            for g in groups {
                if g.count == 0 {
                    return Err("attacker groups must be non-empty".into());
                }
                g.behavior.validate()?;
                total += g.count;
            }
            if total >= self.population {
                return Err(format!(
                    "attacker pool ({total}) must stay below the population ({})",
                    self.population
                ));
            }
        }
        Ok(())
    }

    /// Total attacker-pool size, 0 when `attackers` is unset.
    pub fn attacker_count(&self) -> usize {
        self.attackers
            .as_ref()
            .map(|groups| groups.iter().map(|g| g.count).sum())
            .unwrap_or(0)
    }

    /// Applies the `force_unknown` mask to a freshly bred genome.
    pub fn mask_genome(&self, genome: &mut BitStr) {
        if let Some(v) = self.force_unknown {
            genome.set(self.codec.unknown_bit(), v);
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper()
    }
}

/// Canonical structural hash of any serializable value: FNV-1a 64 over
/// the compact JSON encoding.
///
/// The vendored serde derive serializes struct fields in declaration
/// order and the writer is deterministic, so two structurally equal
/// values always produce the same byte stream — the property the
/// `ahn_serve` result cache keys on. The hash is a pure function of the
/// value (no per-process randomness), so keys are stable across
/// processes and restarts.
pub fn canonical_hash<T: ?Sized + serde::Serialize>(value: &T) -> Result<u64, String> {
    let json = serde_json::to_string(value).map_err(|e| format!("cannot canonicalize: {e}"))?;
    Ok(ahn_obs::fnv1a64(json.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_6_1() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.population, 100);
        assert_eq!(c.rounds, 300);
        assert_eq!(c.generations, 500);
        assert_eq!(c.replications, 60);
        assert_eq!(c.ga.crossover_prob, 0.9);
        assert_eq!(c.ga.mutation_prob, 0.001);
        c.validate().unwrap();
    }

    #[test]
    fn presets_validate() {
        ExperimentConfig::scaled().validate().unwrap();
        ExperimentConfig::smoke().validate().unwrap();
    }

    #[test]
    fn codec_widths() {
        assert_eq!(StrategyCodec::Full.genome_bits(), 13);
        assert_eq!(StrategyCodec::TrustOnly.genome_bits(), 5);
        assert_eq!(StrategyCodec::Full.unknown_bit(), 12);
        assert_eq!(StrategyCodec::TrustOnly.unknown_bit(), 4);
    }

    #[test]
    fn decode_full_and_reduced() {
        let full = StrategyCodec::Full.decode(&"0101011011111".parse().unwrap());
        assert_eq!(full.to_string(), "010 101 101 111 1");
        let lifted = StrategyCodec::TrustOnly.decode(&"01011".parse().unwrap());
        // Trust-only bit for T1 = 1 -> all three activity cells forward.
        assert_eq!(lifted.sub_strategy(ahn_net::TrustLevel::T1), 0b111);
        assert_eq!(lifted.sub_strategy(ahn_net::TrustLevel::T0), 0b000);
    }

    #[test]
    fn mask_pins_unknown_bit() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.force_unknown = Some(false);
        let mut g: BitStr = BitStr::ones(13);
        cfg.mask_genome(&mut g);
        assert!(!g.get(12));
        cfg.force_unknown = None;
        let mut g2 = BitStr::ones(13);
        cfg.mask_genome(&mut g2);
        assert!(g2.get(12));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ExperimentConfig::smoke();
        c.population = 0;
        assert!(c.validate().is_err());
        let mut c = ExperimentConfig::smoke();
        c.ga.mutation_prob = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn attacker_groups_validate() {
        let mut c = ExperimentConfig::smoke();
        assert_eq!(c.attacker_count(), 0);
        c.attackers = Some(vec![
            AttackerGroup {
                behavior: AttackerBehavior::Liar,
                count: 2,
            },
            AttackerGroup {
                behavior: AttackerBehavior::OnOff { on: 5, off: 5 },
                count: 3,
            },
        ]);
        c.validate().unwrap();
        assert_eq!(c.attacker_count(), 5);
        // Bad parameters are rejected.
        for bad in [
            AttackerBehavior::RandomDropper { p: 1.5 },
            AttackerBehavior::OnOff { on: 0, off: 0 },
            AttackerBehavior::Whitewasher { period: 0 },
            AttackerBehavior::Flooder { extra: 0 },
        ] {
            let mut c = ExperimentConfig::smoke();
            c.attackers = Some(vec![AttackerGroup {
                behavior: bad,
                count: 1,
            }]);
            assert!(c.validate().is_err(), "{bad:?} should fail validation");
        }
        // A pool the size of the population leaves nobody to evolve.
        let mut c = ExperimentConfig::smoke();
        c.attackers = Some(vec![AttackerGroup {
            behavior: AttackerBehavior::Selfish,
            count: c.population,
        }]);
        assert!(c.validate().is_err());
        // Empty group list and zero-count groups are rejected.
        let mut c = ExperimentConfig::smoke();
        c.attackers = Some(vec![]);
        assert!(c.validate().is_err());
    }

    #[test]
    fn behaviors_map_to_their_node_kinds() {
        use ahn_game::NodeKind;
        assert_eq!(
            AttackerBehavior::Selfish.node_kind(),
            NodeKind::ConstantlySelfish
        );
        assert_eq!(
            AttackerBehavior::Colluder { clique: 3 }.node_kind(),
            NodeKind::Colluder(3)
        );
        assert_eq!(
            AttackerBehavior::Whitewasher { period: 25 }.node_kind(),
            NodeKind::Whitewasher { period: 25 }
        );
    }

    #[test]
    fn legacy_config_json_without_attackers_still_parses() {
        // Wire-compat: specs serialized before the attackers field
        // existed must keep deserializing (absent Option tolerance).
        let mut json = serde_json::to_string(&ExperimentConfig::smoke()).unwrap();
        let needle = "\"attackers\":null,";
        assert!(json.contains(needle), "field missing from {json}");
        json = json.replace(needle, "");
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ExperimentConfig::smoke());
    }

    #[test]
    fn committed_best_fit_config_is_the_scaled_preset_with_the_best_fit_table() {
        // CI's all-four-cases fidelity gate runs `--config configs/best-fit.json`.
        let json = include_str!("../../../configs/best-fit.json");
        let config: ExperimentConfig = serde_json::from_str(json).unwrap();
        let want = ExperimentConfig {
            payoff: PayoffConfig::best_fit(),
            ..ExperimentConfig::scaled()
        };
        assert_eq!(config, want);
    }

    #[test]
    fn canonical_hash_is_structural() {
        let a = ExperimentConfig::scaled();
        let b = ExperimentConfig::scaled();
        assert_eq!(canonical_hash(&a).unwrap(), canonical_hash(&b).unwrap());
        // A JSON round-trip must not move the hash (same structure).
        let json = serde_json::to_string(&a).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(canonical_hash(&a).unwrap(), canonical_hash(&back).unwrap());
        // Any field change must move it.
        let mut c = ExperimentConfig::scaled();
        c.base_seed ^= 1;
        assert_ne!(canonical_hash(&a).unwrap(), canonical_hash(&c).unwrap());
    }

    #[test]
    fn canonical_hash_is_fnv1a() {
        // Pin the reference vectors so the on-disk cache-key format can
        // never drift silently (FNV-1a 64 of the compact JSON bytes).
        use ahn_obs::fnv1a64;
        assert_eq!(canonical_hash("").unwrap(), fnv1a64(b"\"\""));
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn serde_roundtrip() {
        let c = ExperimentConfig::scaled();
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
