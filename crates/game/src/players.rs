//! Node kinds (paper §4.3) and per-player state.
//!
//! The paper uses two kinds: *normal nodes* (NN) that follow an evolving
//! strategy, and *constantly selfish nodes* (CSN) that always discard and
//! never take part in selection/reproduction. The *random dropper* is an
//! extension kind (not in the paper) used by robustness tests: it drops
//! with a fixed probability irrespective of reputation.
//!
//! The remaining kinds are the adversary zoo (DESIGN.md "Scenarios"):
//! attacker behaviors from the watchdog/CONFIDANT/CORE literature the
//! paper's related-work section cites, each occupying a CSN slot (tail
//! ids, excluded from evolution) but misbehaving in its own way. Their
//! relay decisions are deterministic — only [`NodeKind::RandomDropper`]
//! consumes randomness — so adding them leaves the base model's seeded
//! draw sequences untouched.

use ahn_strategy::Decision;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The behavioral class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Plays its evolving 13-bit strategy (NN).
    Normal,
    /// Always discards; immune to evolution (CSN).
    ConstantlySelfish,
    /// Extension: drops each forwarding request independently with this
    /// probability, ignoring reputation entirely.
    RandomDropper(f64),
    /// Liar/poisoner: forwards faithfully (buying a spotless first-hand
    /// record) while slandering normal nodes and vouching for fellow
    /// liars whenever it is picked as a gossip teller. Inert without a
    /// gossip extension — the watchdog never believes hearsay.
    Liar,
    /// Colluding clique member: forwards only for members of its own
    /// clique, discards for everyone else, and vouches for clique-mates
    /// when gossiping. The payload is the clique id.
    Colluder(u8),
    /// On-off ("grudger") defector: forwards for `on` rounds, then
    /// discards for `off` rounds, repeating — probing how fast
    /// reputation tracks intermittent defection.
    OnOff {
        /// Rounds per cycle spent cooperating.
        on: u16,
        /// Rounds per cycle spent defecting.
        off: u16,
    },
    /// Whitewasher: always discards, and every `period` rounds its
    /// public history is wiped (everyone forgets it), as if it rejoined
    /// under a fresh identity.
    Whitewasher {
        /// Rounds between identity resets.
        period: u16,
    },
    /// Energy-exhaustion attacker: always discards as a relay and
    /// sources `extra` additional packets per round, burning relay
    /// batteries while contributing nothing.
    Flooder {
        /// Extra packets sourced per round beyond the normal share.
        extra: u8,
    },
}

impl NodeKind {
    /// `true` for the paper's CSN kind.
    #[inline]
    pub fn is_csn(self) -> bool {
        matches!(self, NodeKind::ConstantlySelfish)
    }

    /// `true` for strategy-driven normal nodes.
    #[inline]
    pub fn is_normal(self) -> bool {
        matches!(self, NodeKind::Normal)
    }

    /// `true` for the original three kinds (normal, CSN, random
    /// dropper), `false` for the adversary-zoo kinds, whose decisions
    /// read per-game context (the source's kind, the round clock). It no
    /// longer selects a code path: every kind plays through
    /// [`crate::play_game`]. Benchmarks still use it to count cells that
    /// hold zoo kinds.
    #[inline]
    pub fn is_batchable(self) -> bool {
        matches!(
            self,
            NodeKind::Normal | NodeKind::ConstantlySelfish | NodeKind::RandomDropper(_)
        )
    }

    /// The fixed decision this kind makes for a packet sourced by a
    /// node of kind `source` during tournament round `round`, or `None`
    /// when the decision is strategy-driven. Only
    /// [`NodeKind::RandomDropper`] draws from `rng`.
    pub fn fixed_decision_ctx<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        source: NodeKind,
        round: u32,
    ) -> Option<Decision> {
        match self {
            NodeKind::Normal => None,
            NodeKind::ConstantlySelfish => Some(Decision::Discard),
            NodeKind::RandomDropper(p) => Some(if rng.gen_bool(p) {
                Decision::Discard
            } else {
                Decision::Forward
            }),
            NodeKind::Liar => Some(Decision::Forward),
            NodeKind::Colluder(clique) => Some(match source {
                NodeKind::Colluder(c) if c == clique => Decision::Forward,
                _ => Decision::Discard,
            }),
            NodeKind::OnOff { on, off } => {
                let cycle = u32::from(on) + u32::from(off);
                let cooperating = cycle == 0 || round % cycle < u32::from(on);
                Some(if cooperating {
                    Decision::Forward
                } else {
                    Decision::Discard
                })
            }
            NodeKind::Whitewasher { .. } => Some(Decision::Discard),
            NodeKind::Flooder { .. } => Some(Decision::Discard),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::ConstantlySelfish.is_csn());
        assert!(!NodeKind::Normal.is_csn());
        assert!(NodeKind::Normal.is_normal());
        assert!(!NodeKind::RandomDropper(0.5).is_normal());
        assert!(!NodeKind::RandomDropper(0.5).is_csn());
    }

    #[test]
    fn csn_always_discards() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                NodeKind::ConstantlySelfish.fixed_decision_ctx(&mut rng, NodeKind::Normal, 0),
                Some(Decision::Discard)
            );
        }
    }

    #[test]
    fn normal_defers_to_strategy() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            NodeKind::Normal.fixed_decision_ctx(&mut rng, NodeKind::Normal, 0),
            None
        );
    }

    #[test]
    fn random_dropper_matches_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let kind = NodeKind::RandomDropper(0.25);
        let drops = (0..10_000)
            .filter(|_| {
                kind.fixed_decision_ctx(&mut rng, NodeKind::Normal, 0) == Some(Decision::Discard)
            })
            .count();
        assert!((2_200..=2_800).contains(&drops), "drops={drops}");
    }

    #[test]
    fn zoo_kinds_are_deterministic_and_unbatchable() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for kind in [
            NodeKind::Liar,
            NodeKind::Colluder(0),
            NodeKind::OnOff { on: 2, off: 3 },
            NodeKind::Whitewasher { period: 10 },
            NodeKind::Flooder { extra: 4 },
        ] {
            assert!(!kind.is_batchable());
            assert!(!kind.is_normal());
            assert!(!kind.is_csn(), "zoo kinds are selfish slots, not CSN");
        }
        assert!(NodeKind::Normal.is_batchable());
        assert!(NodeKind::ConstantlySelfish.is_batchable());
        assert!(NodeKind::RandomDropper(0.5).is_batchable());
        // No RNG draws: the stream is unchanged after zoo decisions.
        let before = rng.clone();
        let _ = NodeKind::Liar.fixed_decision_ctx(&mut rng, NodeKind::Normal, 0);
        let _ =
            NodeKind::Whitewasher { period: 5 }.fixed_decision_ctx(&mut rng, NodeKind::Normal, 7);
        assert_eq!(rng, before);
    }

    #[test]
    fn liar_forwards_and_colluder_plays_favorites() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_eq!(
            NodeKind::Liar.fixed_decision_ctx(&mut rng, NodeKind::ConstantlySelfish, 9),
            Some(Decision::Forward)
        );
        let c = NodeKind::Colluder(2);
        assert_eq!(
            c.fixed_decision_ctx(&mut rng, NodeKind::Colluder(2), 0),
            Some(Decision::Forward)
        );
        assert_eq!(
            c.fixed_decision_ctx(&mut rng, NodeKind::Colluder(1), 0),
            Some(Decision::Discard)
        );
        assert_eq!(
            c.fixed_decision_ctx(&mut rng, NodeKind::Normal, 0),
            Some(Decision::Discard)
        );
    }

    #[test]
    fn on_off_follows_its_duty_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let k = NodeKind::OnOff { on: 2, off: 3 };
        let pattern: Vec<bool> = (0..10)
            .map(|r| k.fixed_decision_ctx(&mut rng, NodeKind::Normal, r) == Some(Decision::Forward))
            .collect();
        assert_eq!(
            pattern,
            [true, true, false, false, false, true, true, false, false, false]
        );
        // Degenerate all-zero cycle cooperates rather than dividing by zero.
        assert_eq!(
            NodeKind::OnOff { on: 0, off: 0 }.fixed_decision_ctx(&mut rng, NodeKind::Normal, 3),
            Some(Decision::Forward)
        );
    }

    #[test]
    fn dropper_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(
            NodeKind::RandomDropper(0.0).fixed_decision_ctx(&mut rng, NodeKind::Normal, 0),
            Some(Decision::Forward)
        );
        assert_eq!(
            NodeKind::RandomDropper(1.0).fixed_decision_ctx(&mut rng, NodeKind::Normal, 0),
            Some(Decision::Discard)
        );
    }
}
