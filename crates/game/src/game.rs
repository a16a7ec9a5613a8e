//! A single Ad Hoc Network Game (paper §4.1): the one implementation
//! of a game, for every node kind.
//!
//! The source draws a random destination and candidate paths toward it,
//! selects the best-reputation one (§3.1), and the chosen intermediates
//! decide in sequence. The first discard ends the game. Afterwards:
//!
//! * every intermediate that received the packet is paid per the
//!   intermediate payoff table (its trust in the *source* selects the
//!   column), the source is paid by transmission status (Fig. 2);
//! * reputation is updated per the watchdog rule (Fig. 1a);
//! * metrics and energy ledgers are updated.
//!
//! Games stay sequential: each decision reads the reputation the
//! previous games wrote (§4.4). What makes one game cheap:
//!
//! * **No relay-pool copy.** The source is addressed by its *position*
//!   in the participant list, and [`ahn_net::PathGenerator::draw`]
//!   shuffles a virtual pool (the list with two positions deleted)
//!   through a small overlay instead of copying it per game and per
//!   candidate.
//! * **Bit-parallel strategy decode.** A normal relay's decision reads
//!   the arena's flat `u16` genome array ([`Arena::strategy_mask`]):
//!   the (trust, activity) cell of paper bit `b` is one shift of a
//!   2-byte word. Every other kind decides by
//!   [`NodeKind::fixed_decision_ctx`](crate::NodeKind::fixed_decision_ctx)
//!   with the source's kind and the round clock.
//! * **One settlement pass.** Payoffs, energy and request counts
//!   accumulate in one pass over the path, in path order, so float
//!   accumulation is reproducible bit for bit.

use crate::arena::Arena;
use crate::metrics::ReqCounts;
use ahn_net::watchdog::{apply_route_outcome, RouteOutcome};
use ahn_net::{Candidates, NodeId, TrustLevel, MAX_RELAYS};
use ahn_strategy::{Decision, UNKNOWN_BIT};
use rand::Rng;

/// Fixed-size working state of [`play_game`]: no heap, so games
/// allocate nothing from the first one on (tests/zero_alloc.rs). After
/// a game returns, the scratch retains that game's chosen path and
/// decision trace for inspection.
#[derive(Debug, Clone)]
pub struct Scratch {
    candidates: Candidates,
    /// Index of the chosen candidate.
    best: usize,
    /// Decision trace of the chosen path; the first `n_decided` entries
    /// are live.
    decisions: [(Decision, TrustLevel); MAX_RELAYS],
    n_decided: usize,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            candidates: Candidates::default(),
            best: 0,
            decisions: [(Decision::Discard, TrustLevel::T0); MAX_RELAYS],
            n_decided: 0,
        }
    }
}

impl Scratch {
    /// The relay path chosen by the most recent game (empty before the
    /// first game).
    pub fn last_path(&self) -> &[NodeId] {
        if self.candidates.is_empty() {
            return &[];
        }
        self.candidates.get(self.best)
    }

    /// The decision trace of the most recent game: one entry per relay
    /// that received the packet, in path order.
    pub fn last_decisions(&self) -> &[(Decision, TrustLevel)] {
        &self.decisions[..self.n_decided]
    }
}

/// What one game looked like. The chosen path stays in the [`Scratch`]
/// (see [`Scratch::last_path`]) so games never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameReport {
    /// Chosen destination.
    pub destination: NodeId,
    /// Number of hops of the chosen path (relays + 1).
    pub hops: usize,
    /// How the attempt ended.
    pub outcome: RouteOutcome,
}

/// Plays one game sourced by `participants[source_pos]` among
/// `participants`, charging metrics to environment `env`.
///
/// The source is passed by position: the relay pool is the participant
/// list without the source and the destination, addressed by position,
/// so no per-game lookup or copy is needed.
///
/// # Panics
/// Panics if `participants` has fewer than three nodes (source,
/// destination and at least one potential relay are required), or if
/// `source_pos` is out of range.
pub fn play_game<R: Rng + ?Sized>(
    arena: &mut Arena,
    rng: &mut R,
    participants: &[NodeId],
    source_pos: usize,
    env: usize,
    scratch: &mut Scratch,
) -> GameReport {
    let len = participants.len();
    assert!(
        len >= 3,
        "a game needs a source, a destination and a relay candidate"
    );
    let source = participants[source_pos];

    // Step 2 of the tournament scheme: random destination by rejection,
    // keeping its position for the virtual relay pool.
    let (dest_pos, destination) = loop {
        let d_pos = rng.gen_range(0..len);
        let d = participants[d_pos];
        if d != source {
            break (d_pos, d);
        }
    };

    // Steps 2–3: draw candidate paths and pick one (§3.1).
    arena.config.paths.draw(
        rng,
        participants,
        source_pos,
        dest_pos,
        &mut scratch.candidates,
    );
    scratch.best =
        arena
            .config
            .route_selection
            .select(rng, &arena.reputation, source, &scratch.candidates);
    let path = scratch.candidates.get(scratch.best);

    // Step 4: sequential decisions. Each node's choice depends only on
    // its own pre-game view of the source, so a read-only pass suffices.
    // `Strategy::encode` stores paper bit `b` at integer bit `12 - b`.
    let source_kind = arena.kind(source);
    let round = arena.round_clock();
    let mut outcome = RouteOutcome::Delivered;
    let mut n_decided = 0;
    for (k, &node) in path.iter().enumerate() {
        let (rate, forwarded) = arena.reputation.rate_and_forwarded(node, source);
        let trust = arena.config.trust.level_opt(rate);
        let decision = match arena.kind(node).fixed_decision_ctx(rng, source_kind, round) {
            Some(fixed) => fixed,
            None => {
                let bit_index = match rate {
                    // Unknown sources use strategy bit 12 (§6.1).
                    None => UNKNOWN_BIT,
                    Some(_) => {
                        let activity = arena.config.activity.classify_opt(
                            f64::from(forwarded),
                            arena.reputation.mean_forwarded_of_known(node),
                        );
                        trust.value() as usize * 3 + activity.value() as usize
                    }
                };
                let mask = arena.strategy_mask(node);
                Decision::from_bit((mask >> (UNKNOWN_BIT - bit_index)) & 1 == 1)
            }
        };
        scratch.decisions[k] = (decision, trust);
        n_decided = k + 1;
        if decision == Decision::Discard {
            outcome = RouteOutcome::DroppedAt(k);
            break;
        }
    }
    scratch.n_decided = n_decided;

    // Step 5 + metrics, fused into one pass over the path: payoffs and
    // energy for every decider, request-level counts (Tab. 6) and the
    // CSN-free-path flag (Tab. 5) — each node's kind is loaded once.
    let delivered = outcome.delivered();
    arena.payoffs[source.index()].add_source(arena.config.payoff.source(delivered));
    arena.energy[source.index()].add_tx();
    let mut req = ReqCounts::default();
    let mut csn_free = true;
    for (k, &node) in path.iter().enumerate() {
        let kind = arena.kind(node);
        csn_free &= !kind.is_csn();
        // Only the first `n_decided` nodes received the packet; the rest
        // still count for path composition above.
        if k < n_decided {
            let (decision, trust) = scratch.decisions[k];
            match decision {
                Decision::Forward => {
                    arena.payoffs[node.index()].add_forward(arena.config.payoff.forward(trust));
                    arena.energy[node.index()].add_forward();
                    req.accepted += 1;
                }
                Decision::Discard => {
                    arena.payoffs[node.index()].add_discard(arena.config.payoff.discard(trust));
                    arena.energy[node.index()].add_discard();
                    if kind.is_normal() {
                        req.rejected_by_nn += 1;
                    } else {
                        req.rejected_by_csn += 1;
                    }
                }
            }
        }
    }
    if delivered {
        arena.energy[destination.index()].add_rx();
    }

    // Game-level metrics (Fig. 4 / Tab. 5).
    {
        let m = arena.metrics.env_mut(env);
        if source_kind.is_normal() {
            m.nn_games += 1;
            if delivered {
                m.nn_delivered += 1;
            }
            if csn_free {
                m.nn_csn_free_path += 1;
            }
            m.from_nn.merge(&req);
        } else {
            m.from_csn.merge(&req);
        }
    }

    // Step 6: reputation updates per the watchdog rule.
    apply_route_outcome(&mut arena.reputation, source, path, outcome);

    GameReport {
        destination,
        hops: path.len() + 1,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::GameConfig;
    use crate::players::NodeKind;
    use ahn_net::PathMode;
    use ahn_strategy::Strategy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn participants(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from).collect()
    }

    fn cooperative_arena(n: usize) -> Arena {
        Arena::new(
            vec![Strategy::always_forward(); n],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        )
    }

    #[test]
    fn all_cooperators_always_deliver() {
        let mut a = cooperative_arena(10);
        let mut r = rng(1);
        let mut s = Scratch::default();
        let ids = participants(10);
        for _ in 0..100 {
            let rep = play_game(&mut a, &mut r, &ids, 0, 0, &mut s);
            assert!(rep.outcome.delivered());
            assert_ne!(rep.destination, NodeId(0));
            assert!(!s.last_path().contains(&NodeId(0)));
            assert!(!s.last_path().contains(&rep.destination));
            assert_eq!(rep.hops, s.last_path().len() + 1);
        }
        let m = a.metrics.env(0);
        assert_eq!(m.nn_games, 100);
        assert_eq!(m.nn_delivered, 100);
        assert_eq!(m.nn_csn_free_path, 100);
        assert_eq!(m.from_nn.rejected_by_nn, 0);
        assert!(m.from_nn.accepted > 0);
        a.reputation.check_invariants().unwrap();
    }

    #[test]
    fn all_defectors_never_deliver() {
        let mut a = Arena::new(
            vec![Strategy::always_discard(); 10],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let mut r = rng(2);
        let mut s = Scratch::default();
        let ids = participants(10);
        for _ in 0..50 {
            let rep = play_game(&mut a, &mut r, &ids, 3, 0, &mut s);
            assert!(!rep.outcome.delivered());
            assert_eq!(rep.outcome, RouteOutcome::DroppedAt(0));
        }
        let m = a.metrics.env(0);
        assert_eq!(m.nn_delivered, 0);
        assert_eq!(m.from_nn.accepted, 0);
        assert_eq!(m.from_nn.rejected_by_nn, 50);
    }

    #[test]
    fn csn_discards_are_attributed_to_csn() {
        // 3 cooperators + 7 CSN: with only CSN available as relays often,
        // drops must be recorded as rejected_by_csn.
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 3],
            7,
            GameConfig::paper(PathMode::Longer),
            1,
        );
        let mut r = rng(3);
        let mut s = Scratch::default();
        let ids = participants(10);
        for _ in 0..200 {
            play_game(&mut a, &mut r, &ids, 0, 0, &mut s);
        }
        let m = a.metrics.env(0);
        assert!(m.from_nn.rejected_by_csn > 0);
        assert_eq!(m.from_nn.rejected_by_nn, 0);
        assert!(m.nn_csn_free_path < m.nn_games);
    }

    #[test]
    fn source_payoff_matches_outcome() {
        let mut a = cooperative_arena(5);
        let mut r = rng(4);
        let mut s = Scratch::default();
        let ids = participants(5);
        play_game(&mut a, &mut r, &ids, 0, 0, &mut s);
        // Delivered -> S = 5 as the single source event.
        assert_eq!(a.payoffs[0].tps, 5.0);
        assert_eq!(a.payoffs[0].ne, 1);
    }

    #[test]
    fn unknown_source_uses_bit_12() {
        // Strategy: discard for everything known, forward for unknown.
        let s: Strategy = "000 000 000 000 1".parse().unwrap();
        let mut a = Arena::new(vec![s; 5], 0, GameConfig::paper(PathMode::Shorter), 1);
        let mut r = rng(5);
        let mut scratch = Scratch::default();
        let ids = participants(5);
        // First game: everyone is unknown -> delivery must succeed.
        let rep = play_game(&mut a, &mut r, &ids, 0, 0, &mut scratch);
        assert!(rep.outcome.delivered());
    }

    #[test]
    fn known_bad_source_is_punished_by_threshold_strategy() {
        // Normal players forward only for trust >= 2; node 4 is CSN whose
        // rate collapses to 0 once observed.
        let strat = Strategy::trust_threshold(ahn_net::TrustLevel::T2, true);
        let kinds = vec![
            NodeKind::Normal,
            NodeKind::Normal,
            NodeKind::Normal,
            NodeKind::Normal,
            NodeKind::ConstantlySelfish,
        ];
        let mut a = Arena::with_kinds(
            vec![strat; 4],
            kinds,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let mut r = rng(6);
        let mut scratch = Scratch::default();
        let ids = participants(5);
        // Let the CSN be observed dropping: normal players source games.
        for _ in 0..200 {
            for src in 0..4 {
                play_game(&mut a, &mut r, &ids, src, 0, &mut scratch);
            }
        }
        // Now the CSN sources: its packets should be discarded by
        // normal players that know it.
        let before = a.metrics.env(0).from_csn;
        for _ in 0..100 {
            play_game(&mut a, &mut r, &ids, 4, 0, &mut scratch);
        }
        let after = a.metrics.env(0).from_csn;
        let rejected = after.rejected_by_nn - before.rejected_by_nn;
        let accepted = after.accepted - before.accepted;
        assert!(
            rejected > accepted,
            "CSN packets should mostly be rejected: rejected={rejected} accepted={accepted}"
        );
    }

    #[test]
    fn energy_accounting_per_role() {
        let mut a = cooperative_arena(4);
        let mut r = rng(7);
        let mut s = Scratch::default();
        let ids = participants(4);
        let rep = play_game(&mut a, &mut r, &ids, 0, 0, &mut s);
        assert_eq!(a.energy[0].tx_packets, 1, "source transmits");
        let path: Vec<NodeId> = s.last_path().to_vec();
        for &n in &path {
            assert_eq!(a.energy[n.index()].tx_packets, 1, "forwarder retransmits");
            assert_eq!(a.energy[n.index()].rx_packets, 1, "forwarder receives");
        }
        assert_eq!(a.energy[rep.destination.index()].rx_packets, 1);
    }

    #[test]
    #[should_panic(expected = "a game needs")]
    fn too_few_participants_panics() {
        let mut a = cooperative_arena(2);
        let mut r = rng(8);
        let mut s = Scratch::default();
        play_game(&mut a, &mut r, &participants(2), 0, 0, &mut s);
    }
}
