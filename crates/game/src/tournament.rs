//! The tournament scheme (paper §4.4).
//!
//! A tournament is `R` rounds over a fixed participant set; in every
//! round each participant sources exactly one packet (plays "its own
//! game") and serves as relay in the others' games as drawn by the path
//! model.

use crate::arena::Arena;
use crate::game::{play_game, Scratch};
use crate::players::NodeKind;
use ahn_net::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Wall-clock seconds one tournament round represents in the energy
/// ledgers (idle listening for awake nodes, sleep for the rest).
pub const ROUND_SECONDS: f64 = 1.0;

/// Tournament parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tournament {
    /// Number of rounds `R` (the paper uses 300).
    pub rounds: usize,
}

/// Reusable tournament buffers (the per-game [`Scratch`] plus the
/// per-round awake set), so back-to-back tournaments — the evaluation
/// schedule runs several per generation — share one set of allocations
/// sized at the first tournament's high-water mark.
#[derive(Debug, Default, Clone)]
pub struct RoundScratch {
    /// Fixed-size state of every game; after a tournament it holds the
    /// last game's path and decision trace.
    pub game: Scratch,
    /// This round's awake participants (extension X6; unused while every
    /// duty cycle is 1.0).
    awake: Vec<NodeId>,
    /// Normal participants — the slander targets of liar tellers.
    /// Filled once per tournament; empty unless zoo kinds are present.
    zoo_victims: Vec<NodeId>,
    /// Per-teller vouching targets (fellow liars or clique-mates),
    /// rebuilt per gossip exchange; empty unless zoo kinds are present.
    zoo_allies: Vec<NodeId>,
}

impl Tournament {
    /// Creates a tournament of `rounds` rounds.
    pub fn new(rounds: usize) -> Self {
        assert!(rounds > 0, "a tournament needs at least one round");
        Tournament { rounds }
    }

    /// Runs the tournament among `participants`, charging metrics to
    /// environment `env`. Every participant sources exactly
    /// [`Tournament::rounds`] packets.
    ///
    /// # Panics
    /// Panics if fewer than three participants are supplied.
    pub fn run<R: Rng + ?Sized>(
        &self,
        arena: &mut Arena,
        rng: &mut R,
        participants: &[NodeId],
        env: usize,
    ) {
        self.run_with_scratch(arena, rng, participants, env, &mut RoundScratch::default());
    }

    /// [`Tournament::run`] with caller-owned buffers — draw-identical,
    /// allocation-free once the scratch is warm.
    pub fn run_with_scratch<R: Rng + ?Sized>(
        &self,
        arena: &mut Arena,
        rng: &mut R,
        participants: &[NodeId],
        env: usize,
        round_scratch: &mut RoundScratch,
    ) {
        assert!(
            participants.len() >= 3,
            "a tournament needs at least three participants"
        );
        let RoundScratch {
            game: scratch,
            awake,
            zoo_victims,
            zoo_allies,
        } = round_scratch;
        awake.clear();
        let sample_sleep = arena.has_sleepers();
        // Adversary-zoo bookkeeping (DESIGN.md "Scenarios"). All of it is
        // keyed off the participant kinds, costs one scan per tournament,
        // and consumes no RNG — with none of the zoo kinds present every
        // branch below is dead and the round is exactly the paper's.
        let mut has_whitewashers = false;
        let mut has_flooders = false;
        let mut has_liars = false;
        zoo_victims.clear();
        for &p in participants {
            match arena.kind(p) {
                NodeKind::Whitewasher { .. } => has_whitewashers = true,
                NodeKind::Flooder { .. } => has_flooders = true,
                NodeKind::Liar => has_liars = true,
                _ => {}
            }
        }
        if has_liars {
            zoo_victims.extend(
                participants
                    .iter()
                    .copied()
                    .filter(|&p| arena.kind(p).is_normal()),
            );
        }
        for _round in 0..self.rounds {
            // Round-phased kinds read this clock instead of consuming RNG.
            arena.set_round_clock(_round as u32);
            if has_whitewashers && _round > 0 {
                // A whitewasher re-enters under a fresh identity every
                // `period` rounds: everyone forgets everything about it.
                for &p in participants {
                    if let NodeKind::Whitewasher { period } = arena.kind(p) {
                        if period > 0 && _round % usize::from(period) == 0 {
                            arena.reputation.forget_subject(p);
                        }
                    }
                }
            }
            // Sample this round's awake set (extension X6). With every
            // duty cycle at 1.0 — the paper's model — no RNG is consumed
            // and the round is exactly the paper's.
            if sample_sleep {
                awake.clear();
                for &p in participants {
                    let duty = arena.duty_cycle(p);
                    if duty >= 1.0 || rng.gen_bool(duty) {
                        awake.push(p);
                        arena.energy[p.index()].add_idle(ROUND_SECONDS);
                    } else {
                        arena.energy[p.index()].add_sleep(ROUND_SECONDS);
                    }
                }
                if awake.len() < 2 {
                    // Too few listeners to route anything this round.
                    continue;
                }
            }
            // Every participant sources one game (§4.4); energy-exhaustion
            // attackers then source `extra` more each.
            for pos in 0..participants.len() {
                let awake = sample_sleep.then_some(&mut *awake);
                play_sourced(arena, rng, participants, pos, awake, env, scratch);
            }
            if has_flooders {
                for (pos, &source) in participants.iter().enumerate() {
                    if let NodeKind::Flooder { extra } = arena.kind(source) {
                        for _ in 0..extra {
                            let awake = sample_sleep.then_some(&mut *awake);
                            play_sourced(arena, rng, participants, pos, awake, env, scratch);
                        }
                    }
                }
            }
            if let Some(gossip) = arena.config.gossip {
                // Each participant hears from one random other participant
                // per round (extension; see ahn_net::gossip). Sleeping
                // nodes neither tell nor listen.
                let pool: &[NodeId] = if sample_sleep { awake } else { participants };
                if pool.len() < 2 {
                    continue;
                }
                for &listener in pool {
                    let teller = loop {
                        let t = pool[rng.gen_range(0..pool.len())];
                        if t != listener {
                            break t;
                        }
                    };
                    // The teller's kind decides what actually travels.
                    // Teller selection above is the only RNG this phase
                    // consumes, so arenas without zoo kinds gossip exactly
                    // as before.
                    match arena.kind(teller) {
                        NodeKind::Liar => {
                            // Slander the honest majority, vouch for the
                            // fellow liars — the poisoning attack CORE's
                            // positive-only policy was designed to blunt.
                            ahn_net::gossip::poison_observations(
                                &mut arena.reputation,
                                teller,
                                listener,
                                zoo_victims,
                                &gossip,
                            );
                            zoo_allies.clear();
                            zoo_allies.extend(
                                pool.iter()
                                    .copied()
                                    .filter(|&p| arena.kind(p) == NodeKind::Liar),
                            );
                            ahn_net::gossip::vouch_observations(
                                &mut arena.reputation,
                                teller,
                                listener,
                                zoo_allies,
                                &gossip,
                            );
                        }
                        NodeKind::Colluder(clique) => {
                            // Honest first-hand share plus fabricated
                            // vouching for clique-mates.
                            ahn_net::gossip::share_observations(
                                &mut arena.reputation,
                                teller,
                                listener,
                                &gossip,
                            );
                            zoo_allies.clear();
                            zoo_allies.extend(
                                pool.iter()
                                    .copied()
                                    .filter(|&p| arena.kind(p) == NodeKind::Colluder(clique)),
                            );
                            ahn_net::gossip::vouch_observations(
                                &mut arena.reputation,
                                teller,
                                listener,
                                zoo_allies,
                                &gossip,
                            );
                        }
                        _ => {
                            ahn_net::gossip::share_observations(
                                &mut arena.reputation,
                                teller,
                                listener,
                                &gossip,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Plays one game sourced by `participants[pos]`. In a sleeper round
/// (`awake` is the round's awake set) the game is played among the awake
/// nodes instead, in their order. A sleeping source still wakes to send
/// its own packet (sleep saves listening energy, not transmission), so
/// it joins the end of the awake list for its own game only. A game
/// needs three eligible nodes; with fewer the packet is not sent.
fn play_sourced<R: Rng + ?Sized>(
    arena: &mut Arena,
    rng: &mut R,
    participants: &[NodeId],
    pos: usize,
    awake: Option<&mut Vec<NodeId>>,
    env: usize,
    scratch: &mut Scratch,
) {
    let Some(awake) = awake else {
        play_game(arena, rng, participants, pos, env, scratch);
        return;
    };
    let source = participants[pos];
    match awake.iter().position(|&p| p == source) {
        Some(awake_pos) => {
            if awake.len() >= 3 {
                play_game(arena, rng, awake, awake_pos, env, scratch);
            }
        }
        None => {
            awake.push(source);
            if awake.len() >= 3 {
                play_game(arena, rng, awake, awake.len() - 1, env, scratch);
            }
            awake.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::GameConfig;
    use ahn_net::PathMode;
    use ahn_strategy::Strategy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn every_participant_sources_r_games() {
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 6],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let ids: Vec<NodeId> = (0u32..6).map(NodeId::from).collect();
        Tournament::new(25).run(&mut a, &mut rng(0), &ids, 0);
        // 6 participants x 25 rounds, all normal sources.
        assert_eq!(a.metrics.env(0).nn_games, 150);
        // Every player has exactly 25 source events (tps counts S=5 each,
        // all delivered in a cooperative arena).
        for i in 0..6 {
            assert_eq!(a.payoffs[i].tps, 125.0, "player {i}");
        }
    }

    #[test]
    fn csn_participants_source_too_but_do_not_count_as_nn_games() {
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 4],
            2,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let ids: Vec<NodeId> = (0u32..6).map(NodeId::from).collect();
        Tournament::new(10).run(&mut a, &mut rng(1), &ids, 0);
        let m = a.metrics.env(0);
        // Only the 4 normal players' games count toward cooperation.
        assert_eq!(m.nn_games, 40);
        // CSN games produced request events from CSN sources.
        assert!(m.from_csn.total() > 0);
        // CSN sourced packets and accrued source events.
        assert!(a.payoffs[4].ne >= 10);
    }

    #[test]
    fn subsets_of_the_arena_can_play() {
        // 8 nodes exist but only 5 participate; non-participants must be
        // untouched.
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 8],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        let ids: Vec<NodeId> = (0u32..5).map(NodeId::from).collect();
        Tournament::new(5).run(&mut a, &mut rng(2), &ids, 0);
        for i in 5..8 {
            assert_eq!(a.payoffs[i].ne, 0, "non-participant {i} was touched");
            assert_eq!(a.reputation.known_count(NodeId::from(i)), 0);
        }
    }

    #[test]
    fn determinism_under_seed() {
        let build = |seed| {
            let mut a = Arena::new(
                vec![Strategy::always_forward(); 6],
                1,
                GameConfig::paper(PathMode::Longer),
                1,
            );
            let ids: Vec<NodeId> = (0u32..7).map(NodeId::from).collect();
            Tournament::new(20).run(&mut a, &mut rng(seed), &ids, 0);
            (a.fitnesses(), *a.metrics.env(0))
        };
        assert_eq!(build(42), build(42));
        assert_ne!(build(42).1.nn_delivered, 0);
    }

    #[test]
    fn sleepers_save_listening_energy_and_relay_less() {
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 8],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        // Node 7 sleeps 70% of rounds.
        a.set_duty_cycle(NodeId(7), 0.3);
        let ids: Vec<NodeId> = (0u32..8).map(NodeId::from).collect();
        Tournament::new(100).run(&mut a, &mut rng(5), &ids, 0);
        // The sleeper accumulated sleep time; the others only idle time.
        assert!(a.energy[7].sleep_s > 0.0);
        assert!(a.energy[7].idle_s < 100.0 * ROUND_SECONDS);
        assert_eq!(a.energy[0].sleep_s, 0.0);
        // It still sourced packets every round it could (>= awake rounds)
        // but relayed far less than an always-on peer.
        let sleeper_forwards = a.energy[7].rx_packets;
        let active_forwards = a.energy[0].rx_packets;
        assert!(
            sleeper_forwards * 2 < active_forwards,
            "sleeper relayed {sleeper_forwards}, active {active_forwards}"
        );
        // Everyone still sourced every round (the sleeper wakes to send).
        assert_eq!(a.metrics.env(0).nn_games, 800);
    }

    #[test]
    fn all_awake_matches_paper_model_exactly() {
        // With all duty cycles at 1.0 the sleep machinery must not
        // consume RNG: results equal the pre-extension behavior.
        let run = |set_duty: bool| {
            let mut a = Arena::new(
                vec![Strategy::always_forward(); 6],
                1,
                GameConfig::paper(PathMode::Longer),
                1,
            );
            if set_duty {
                // Setting a duty cycle of exactly 1.0 is a no-op.
                a.set_duty_cycle(NodeId(0), 1.0);
            }
            let ids: Vec<NodeId> = (0u32..7).map(NodeId::from).collect();
            Tournament::new(20).run(&mut a, &mut rng(42), &ids, 0);
            (a.fitnesses(), *a.metrics.env(0))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gossip_spreads_reputation_beyond_witnesses() {
        use ahn_net::GossipConfig;
        // Without gossip only game participants learn; with CONFIDANT
        // gossip, knowledge spreads to many more observer pairs.
        let known_pairs = |gossip: Option<GossipConfig>| {
            let mut config = GameConfig::paper(PathMode::Shorter);
            config.gossip = gossip;
            let mut a = Arena::new(vec![Strategy::always_forward(); 10], 0, config, 1);
            let ids: Vec<NodeId> = (0u32..10).map(NodeId::from).collect();
            Tournament::new(3).run(&mut a, &mut rng(7), &ids, 0);
            let mut pairs = 0;
            for o in 0..10u32 {
                pairs += a.reputation.known_count(NodeId(o));
            }
            pairs
        };
        let without = known_pairs(None);
        let with = known_pairs(Some(GossipConfig::confidant_style()));
        assert!(
            with > without,
            "gossip should spread knowledge: {with} vs {without}"
        );
    }

    /// Arena of `n` cooperative normals followed by the given zoo tail.
    fn zoo_arena(n: usize, tail: Vec<NodeKind>, gossip: Option<ahn_net::GossipConfig>) -> Arena {
        let mut kinds = vec![NodeKind::Normal; n];
        kinds.extend(tail);
        let mut config = GameConfig::paper(PathMode::Shorter);
        config.gossip = gossip;
        Arena::with_kinds(vec![Strategy::always_forward(); n], kinds, config, 1)
    }

    #[test]
    fn whitewasher_keeps_getting_forgotten() {
        let mut a = zoo_arena(7, vec![NodeKind::Whitewasher { period: 5 }], None);
        let ww = NodeId(7);
        let ids: Vec<NodeId> = (0u32..8).map(NodeId::from).collect();
        // Rounds 5, 10, ... wipe the whitewasher's history, so after a
        // multiple-of-period round count nobody may hold more than the
        // current period's observations, despite it discarding constantly.
        Tournament::new(100).run(&mut a, &mut rng(11), &ids, 0);
        let whitewashed: usize = (0..7)
            .map(|o| a.reputation.record(NodeId(o), ww).requests as usize)
            .sum();
        let mut b = zoo_arena(7, vec![NodeKind::ConstantlySelfish], None);
        Tournament::new(100).run(&mut b, &mut rng(11), &ids, 0);
        let remembered: usize = (0..7)
            .map(|o| b.reputation.record(NodeId(o), ww).requests as usize)
            .sum();
        assert!(
            whitewashed * 4 < remembered,
            "whitewashing should erase most history: {whitewashed} vs {remembered}"
        );
        a.reputation.check_invariants().unwrap();
    }

    #[test]
    fn flooder_burns_more_relay_energy_than_a_csn() {
        let run = |tail: NodeKind| {
            let mut a = zoo_arena(7, vec![tail], None);
            let ids: Vec<NodeId> = (0u32..8).map(NodeId::from).collect();
            Tournament::new(50).run(&mut a, &mut rng(12), &ids, 0);
            // Total packets received by the honest majority — the relay
            // load the attacker imposes.
            (0..7).map(|i| a.energy[i].rx_packets as u64).sum::<u64>()
        };
        let against_csn = run(NodeKind::ConstantlySelfish);
        let against_flooder = run(NodeKind::Flooder { extra: 4 });
        assert!(
            against_flooder > against_csn,
            "flooding must raise relay load: {against_flooder} vs {against_csn}"
        );
    }

    #[test]
    fn liars_poison_reputation_under_confidant_gossip() {
        let mut a = zoo_arena(
            8,
            vec![NodeKind::Liar, NodeKind::Liar],
            Some(ahn_net::GossipConfig::confidant_style()),
        );
        let ids: Vec<NodeId> = (0u32..10).map(NodeId::from).collect();
        Tournament::new(30).run(&mut a, &mut rng(13), &ids, 0);
        // Liars forward faithfully, so their first-hand record is clean;
        // the damage shows in what listeners now believe about honest
        // nodes: cooperative forwarders held below a perfect rate.
        let mut slandered = 0;
        for o in 0..8u32 {
            for s in 0..8u32 {
                if o == s {
                    continue;
                }
                if let Some(rate) = a.reputation.rate(NodeId(o), NodeId(s)) {
                    if rate < 0.9 {
                        slandered += 1;
                    }
                }
            }
        }
        assert!(
            slandered > 0,
            "confidant-style gossip should let slander through"
        );
        a.reputation.check_invariants().unwrap();
    }

    #[test]
    fn core_gossip_blunts_poison_but_not_vouching() {
        // Under CORE's positive-only policy the same liar population
        // still vouches (positive fabrications travel) but the fabricated
        // denunciations cannot be *shared onward* by honest nodes; direct
        // poison injections still land, so compare against CONFIDANT.
        let slander_volume = |gossip: ahn_net::GossipConfig| {
            let mut a = zoo_arena(8, vec![NodeKind::Liar, NodeKind::Liar], Some(gossip));
            let ids: Vec<NodeId> = (0u32..10).map(NodeId::from).collect();
            Tournament::new(30).run(&mut a, &mut rng(14), &ids, 0);
            let mut v = 0u64;
            for o in 0..8u32 {
                for s in 0..8u32 {
                    if o != s {
                        let r = a.reputation.record(NodeId(o), NodeId(s));
                        v += u64::from(r.requests - r.forwarded);
                    }
                }
            }
            v
        };
        let core = slander_volume(ahn_net::GossipConfig::core_style());
        let confidant = slander_volume(ahn_net::GossipConfig::confidant_style());
        assert!(
            core <= confidant,
            "positive-only gossip must not amplify slander: {core} vs {confidant}"
        );
    }

    #[test]
    fn colluders_cover_for_each_other_in_gossip() {
        let mut a = zoo_arena(
            8,
            vec![NodeKind::Colluder(1), NodeKind::Colluder(1)],
            Some(ahn_net::GossipConfig::core_style()),
        );
        let ids: Vec<NodeId> = (0u32..10).map(NodeId::from).collect();
        Tournament::new(30).run(&mut a, &mut rng(15), &ids, 0);
        // Colluders discard for everyone outside the clique, yet their
        // mutual vouching pumps fabricated forwards into honest tables:
        // somebody must now over-rate a colluder relative to its watchdog
        // record alone (which would be pure drops from normal sources).
        let mut inflated = 0;
        for o in 0..8u32 {
            for c in [NodeId(8), NodeId(9)] {
                if let Some(rate) = a.reputation.rate(NodeId(o), c) {
                    if rate > 0.0 {
                        inflated += 1;
                    }
                }
            }
        }
        assert!(inflated > 0, "vouching should inflate colluder ratings");
        a.reputation.check_invariants().unwrap();
    }

    #[test]
    fn on_off_attacker_alternates_between_saint_and_sinner() {
        let mut a = zoo_arena(7, vec![NodeKind::OnOff { on: 10, off: 10 }], None);
        let ids: Vec<NodeId> = (0u32..8).map(NodeId::from).collect();
        Tournament::new(20).run(&mut a, &mut rng(16), &ids, 0);
        // Over one full on/off cycle the attacker both forwarded and
        // dropped packets — unlike a CSN (drops only) or a cooperator.
        let onoff = NodeId(7);
        let mut forwards = 0u64;
        let mut drops = 0u64;
        for o in 0..7u32 {
            let r = a.reputation.record(NodeId(o), onoff);
            forwards += u64::from(r.forwarded);
            drops += u64::from(r.requests - r.forwarded);
        }
        assert!(forwards > 0, "on-phase must forward");
        assert!(drops > 0, "off-phase must drop");
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let _ = Tournament::new(0);
    }

    #[test]
    #[should_panic(expected = "at least three participants")]
    fn tiny_tournament_panics() {
        let mut a = Arena::new(
            vec![Strategy::always_forward(); 2],
            0,
            GameConfig::paper(PathMode::Shorter),
            1,
        );
        Tournament::new(1).run(&mut a, &mut rng(3), &[NodeId(0), NodeId(1)], 0);
    }
}
