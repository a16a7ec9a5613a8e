//! The mutable world one generation of games plays in.
//!
//! An [`Arena`] owns everything a generation touches: the node kinds, the
//! normal players' strategies, the shared reputation matrix, per-player
//! payoff accounts and energy ledgers, and the per-environment metrics.
//! Node ids are dense: normal players take `0..n_normal`, the
//! constantly-selfish pool follows.
//!
//! # Layout: struct of arrays, sized once
//!
//! Per-node state is stored as parallel arrays indexed by node id
//! (`kinds[i]`, `strategies[i]`, `payoffs[i]`, `energy[i]`,
//! `duty_cycle[i]`) rather than an array of node structs: the hot game
//! loop touches one dimension at a time (a decision reads kind +
//! strategy, the payoff pass writes payoffs + energy), so SoA keeps each
//! pass on contiguous memory and leaves untouched dimensions out of the
//! cache. Every buffer is sized at construction and **reused across
//! generations**: [`Arena::begin_generation`] clears in place,
//! [`Arena::set_strategies_with`] decodes a new generation into the
//! existing strategy buffer, and [`Arena::fitnesses_into`] fills a
//! caller-owned vector — so the generational loop performs no
//! steady-state allocations even at 1 000 nodes (tests/zero_alloc.rs).

use crate::metrics::Metrics;
use crate::payoff::{PayoffAccount, PayoffConfig};
use crate::players::NodeKind;
use ahn_net::energy::EnergyLedger;
use ahn_net::{
    ActivityBands, GossipConfig, NodeId, PathGenerator, PathMode, ReputationMatrix, RouteSelection,
    TrustTable,
};
use ahn_strategy::Strategy;
use serde::{Deserialize, Serialize};

/// Static rules of the game: payoffs, trust table, activity bands and the
/// path model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Payoff tables (Fig. 2).
    pub payoff: PayoffConfig,
    /// Forwarding-rate → trust-level lookup (Fig. 1b).
    pub trust: TrustTable,
    /// Activity classification (§3.2).
    pub activity: ActivityBands,
    /// Path-length / alternate-path model (Tables 2–3).
    pub paths: PathGenerator,
    /// How the source chooses among candidate paths (paper: best-rated).
    pub route_selection: RouteSelection,
    /// Optional second-hand reputation exchange after every tournament
    /// round (extension; the paper uses first-hand observation only).
    pub gossip: Option<GossipConfig>,
}

impl GameConfig {
    /// The paper's configuration for a path mode.
    pub fn paper(mode: PathMode) -> Self {
        GameConfig {
            payoff: PayoffConfig::paper(),
            trust: TrustTable::paper(),
            activity: ActivityBands::paper(),
            paths: PathGenerator::for_mode(mode),
            route_selection: RouteSelection::BestRated,
            gossip: None,
        }
    }
}

/// World state for one generation of tournaments.
#[derive(Debug, Clone)]
pub struct Arena {
    kinds: Vec<NodeKind>,
    /// Strategies of the normal players (index = node id).
    strategies: Vec<Strategy>,
    /// Bit-parallel twin of `strategies`: player `i`'s 13-bit genome as
    /// the integer [`Strategy::encode`] produces (paper bit 0 = most
    /// significant). The game kernel reads decisions straight
    /// off this flat array — a shift and a mask against a 2-byte word —
    /// instead of loading the `Strategy` struct per decision. Kept in
    /// sync by every strategy-mutating method.
    strategy_masks: Vec<u16>,
    /// Shared reputation state, sized for every node (normal + selfish).
    pub reputation: ReputationMatrix,
    /// Per-node payoff accounts.
    pub payoffs: Vec<PayoffAccount>,
    /// Per-node energy ledgers (extension metric).
    pub energy: Vec<EnergyLedger>,
    /// Game rules.
    pub config: GameConfig,
    /// Per-environment experiment counters.
    pub metrics: Metrics,
    /// Per-node radio duty cycle: the probability of being awake (and
    /// therefore eligible as relay or destination) in any given round.
    /// 1.0 — the paper's model — means always listening. Lower values
    /// model the sleep behavior of §1 that motivates the activity
    /// dimension (extension X6).
    duty_cycle: Vec<f64>,
    /// Current tournament round, maintained by the tournament driver so
    /// round-phased kinds ([`NodeKind::OnOff`], [`NodeKind::Whitewasher`])
    /// can read a clock without consuming randomness. Reset each
    /// generation.
    round_clock: u32,
}

impl Arena {
    /// Builds an arena with `strategies.len()` normal players followed by
    /// `csn_count` constantly selfish nodes, tracking metrics for
    /// `n_envs` environments.
    pub fn new(
        strategies: Vec<Strategy>,
        csn_count: usize,
        config: GameConfig,
        n_envs: usize,
    ) -> Self {
        let n_normal = strategies.len();
        let total = n_normal + csn_count;
        let mut kinds = vec![NodeKind::Normal; n_normal];
        kinds.extend(std::iter::repeat_n(NodeKind::ConstantlySelfish, csn_count));
        let strategy_masks = strategies.iter().map(Strategy::encode).collect();
        Arena {
            kinds,
            strategies,
            strategy_masks,
            reputation: ReputationMatrix::new(total),
            payoffs: vec![PayoffAccount::new(); total],
            energy: vec![EnergyLedger::new(); total],
            config,
            metrics: Metrics::new(n_envs),
            duty_cycle: vec![1.0; total],
            round_clock: 0,
        }
    }

    /// Builds an arena with explicit node kinds (for extension kinds such
    /// as [`NodeKind::RandomDropper`]). `strategies` must cover every
    /// [`NodeKind::Normal`] entry — i.e. all Normal nodes must come first.
    ///
    /// # Panics
    /// Panics if a Normal node appears at an index ≥ `strategies.len()`.
    pub fn with_kinds(
        strategies: Vec<Strategy>,
        kinds: Vec<NodeKind>,
        config: GameConfig,
        n_envs: usize,
    ) -> Self {
        for (i, k) in kinds.iter().enumerate() {
            if k.is_normal() {
                assert!(
                    i < strategies.len(),
                    "normal node {i} has no strategy (strategies cover 0..{})",
                    strategies.len()
                );
            }
        }
        let total = kinds.len();
        let strategy_masks = strategies.iter().map(Strategy::encode).collect();
        Arena {
            kinds,
            strategies,
            strategy_masks,
            reputation: ReputationMatrix::new(total),
            payoffs: vec![PayoffAccount::new(); total],
            energy: vec![EnergyLedger::new(); total],
            config,
            metrics: Metrics::new(n_envs),
            duty_cycle: vec![1.0; total],
            round_clock: 0,
        }
    }

    /// Number of normal (strategy-driven) players.
    pub fn n_normal(&self) -> usize {
        self.strategies.len()
    }

    /// Total number of nodes (normal + selfish pool).
    pub fn n_total(&self) -> usize {
        self.kinds.len()
    }

    /// All node ids of normal players.
    pub fn normal_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_normal()).map(NodeId::from)
    }

    /// Node ids of the selfish pool (every non-normal node).
    pub fn selfish_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.n_normal()..self.n_total()).map(NodeId::from)
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// The strategy of a normal player.
    ///
    /// # Panics
    /// Panics if `id` is not a normal player.
    #[inline]
    pub fn strategy(&self, id: NodeId) -> &Strategy {
        &self.strategies[id.index()]
    }

    /// The encoded 13-bit genome of a normal player, paper bit `b` at
    /// integer bit `12 - b` (see [`Strategy::encode`]). The game
    /// kernel's decision read: 2 bytes per player instead of the full
    /// `Strategy` struct.
    ///
    /// # Panics
    /// Panics if `id` is not a normal player.
    #[inline]
    pub fn strategy_mask(&self, id: NodeId) -> u16 {
        self.strategy_masks[id.index()]
    }

    /// Replaces the normal players' strategies (new generation).
    ///
    /// # Panics
    /// Panics if the count changes.
    pub fn set_strategies(&mut self, strategies: Vec<Strategy>) {
        assert_eq!(
            strategies.len(),
            self.strategies.len(),
            "population size is fixed for an arena"
        );
        self.strategies = strategies;
        self.strategy_masks.clear();
        self.strategy_masks
            .extend(self.strategies.iter().map(Strategy::encode));
    }

    /// Replaces the normal players' strategies **in place**: `decode(i)`
    /// produces player `i`'s new strategy directly into the existing SoA
    /// buffer. The allocation-free sibling of
    /// [`Arena::set_strategies`] for the generational loop (decoding a
    /// genome is a pure bit operation, so no intermediate `Vec` is
    /// needed).
    pub fn set_strategies_with(&mut self, mut decode: impl FnMut(usize) -> Strategy) {
        for (i, (slot, mask)) in self
            .strategies
            .iter_mut()
            .zip(self.strategy_masks.iter_mut())
            .enumerate()
        {
            *slot = decode(i);
            *mask = slot.encode();
        }
    }

    /// Clears everything a generation accumulates: reputation (§4.4
    /// Step 1), payoff accounts, energy ledgers, metrics and the round
    /// clock.
    pub fn begin_generation(&mut self) {
        self.reputation.clear();
        for p in &mut self.payoffs {
            p.clear();
        }
        for e in &mut self.energy {
            *e = EnergyLedger::new();
        }
        self.metrics.clear();
        self.round_clock = 0;
    }

    /// The current tournament round (see the `round_clock` field).
    #[inline]
    pub fn round_clock(&self) -> u32 {
        self.round_clock
    }

    /// Sets the round clock; called by the tournament driver at the
    /// start of each round.
    #[inline]
    pub fn set_round_clock(&mut self, round: u32) {
        self.round_clock = round;
    }

    /// The duty cycle of a node (probability of being awake per round).
    #[inline]
    pub fn duty_cycle(&self, id: NodeId) -> f64 {
        self.duty_cycle[id.index()]
    }

    /// Sets a node's duty cycle.
    ///
    /// # Panics
    /// Panics unless `0 < duty <= 1` (a node that never wakes cannot even
    /// send its own packets).
    pub fn set_duty_cycle(&mut self, id: NodeId, duty: f64) {
        assert!(
            duty > 0.0 && duty <= 1.0,
            "duty cycle {duty} outside (0, 1]"
        );
        self.duty_cycle[id.index()] = duty;
    }

    /// `true` when any node sleeps (duty < 1), i.e. the tournament must
    /// sample awake sets per round.
    pub fn has_sleepers(&self) -> bool {
        self.duty_cycle.iter().any(|&d| d < 1.0)
    }

    /// Fitness (eq. 1) of every normal player, in id order — the GA's
    /// evaluation vector.
    pub fn fitnesses(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.fitnesses_into(&mut out);
        out
    }

    /// Writes every normal player's fitness into `out` (cleared first),
    /// reusing its capacity — the allocation-free sibling of
    /// [`Arena::fitnesses`] for the generational loop.
    pub fn fitnesses_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n_normal()).map(|i| self.payoffs[i].fitness()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn arena(n_normal: usize, csn: usize) -> Arena {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let strategies = (0..n_normal).map(|_| Strategy::random(&mut rng)).collect();
        Arena::new(strategies, csn, GameConfig::paper(PathMode::Shorter), 1)
    }

    #[test]
    fn layout_normal_then_selfish() {
        let a = arena(5, 3);
        assert_eq!(a.n_normal(), 5);
        assert_eq!(a.n_total(), 8);
        assert!(a.kind(NodeId(0)).is_normal());
        assert!(a.kind(NodeId(4)).is_normal());
        assert!(a.kind(NodeId(5)).is_csn());
        assert!(a.kind(NodeId(7)).is_csn());
        assert_eq!(a.normal_ids().count(), 5);
        assert_eq!(
            a.selfish_ids().collect::<Vec<_>>(),
            vec![NodeId(5), NodeId(6), NodeId(7)]
        );
        assert_eq!(a.reputation.len(), 8);
    }

    #[test]
    fn begin_generation_resets_accumulators() {
        let mut a = arena(3, 1);
        a.payoffs[0].add_source(5.0);
        a.reputation.record_forward(NodeId(0), NodeId(1));
        a.energy[2].add_tx();
        a.metrics.env_mut(0).nn_games = 7;
        a.begin_generation();
        assert_eq!(a.payoffs[0].fitness(), 0.0);
        assert!(!a.reputation.knows(NodeId(0), NodeId(1)));
        assert_eq!(a.energy[2].tx_packets, 0);
        assert_eq!(a.metrics.env(0).nn_games, 0);
    }

    #[test]
    fn fitnesses_cover_only_normal_players() {
        let mut a = arena(2, 2);
        a.payoffs[0].add_source(5.0);
        a.payoffs[2].add_discard(3.0); // CSN payoffs are ignored
        let f = a.fitnesses();
        assert_eq!(f.len(), 2);
        assert_eq!(f[0], 5.0);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn set_strategies_swaps_generation() {
        let mut a = arena(2, 0);
        let new = vec![Strategy::always_forward(), Strategy::always_discard()];
        a.set_strategies(new.clone());
        assert_eq!(a.strategy(NodeId(0)), &new[0]);
        assert_eq!(a.strategy(NodeId(1)), &new[1]);
    }

    #[test]
    #[should_panic(expected = "population size is fixed")]
    fn set_strategies_rejects_resize() {
        let mut a = arena(2, 0);
        a.set_strategies(vec![Strategy::always_forward()]);
    }

    #[test]
    fn with_kinds_allows_droppers() {
        let strategies = vec![Strategy::always_forward()];
        let kinds = vec![
            NodeKind::Normal,
            NodeKind::RandomDropper(0.3),
            NodeKind::ConstantlySelfish,
        ];
        let a = Arena::with_kinds(strategies, kinds, GameConfig::paper(PathMode::Longer), 2);
        assert_eq!(a.n_normal(), 1);
        assert_eq!(a.n_total(), 3);
        assert_eq!(a.metrics.n_envs(), 2);
    }

    #[test]
    fn duty_cycles_default_to_always_awake() {
        let mut a = arena(3, 1);
        assert!(!a.has_sleepers());
        assert_eq!(a.duty_cycle(NodeId(2)), 1.0);
        a.set_duty_cycle(NodeId(2), 0.25);
        assert!(a.has_sleepers());
        assert_eq!(a.duty_cycle(NodeId(2)), 0.25);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_duty_cycle_is_rejected() {
        let mut a = arena(2, 0);
        a.set_duty_cycle(NodeId(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "has no strategy")]
    fn with_kinds_rejects_uncovered_normals() {
        let kinds = vec![NodeKind::ConstantlySelfish, NodeKind::Normal];
        let _ = Arena::with_kinds(vec![], kinds, GameConfig::paper(PathMode::Shorter), 1);
    }
}
