//! The scalar reference game, and the property that the game kernel
//! plays every game exactly like it.
//!
//! `reference_game` is the Ad Hoc Network Game (§4.1) written for
//! reading, not speed: it copies the relay pool and `retain`s out the
//! source and destination, partial-shuffles a fresh pool copy per
//! candidate, takes the `path_rating` argmax (or a uniform pick under
//! random route selection), decides by `fixed_decision_ctx` or the
//! strategy, then settles payoffs, energy, metrics and reputation.
//!
//! The property plays the same games through `ahn::game::play_game` and
//! through the reference on clones of one arena, from one seed. For
//! every game it compares destination, path, decisions and outcome; at
//! the end it compares payoffs, energy, metrics, every reputation record
//! and the RNG position. Inputs cover arbitrary tails of every
//! non-normal kind, a round clock per round, shuffled participant
//! subsets with any source position (the shape of a sleeper round), both
//! route selections and both path modes, at N ∈ {3, 10, 50, 300}.

use ahn::game::game::Scratch;
use ahn::game::{play_game, Arena, GameConfig, NodeKind, ReqCounts};
use ahn::net::paths::path_rating;
use ahn::net::watchdog::{apply_route_outcome, RouteOutcome};
use ahn::net::{NodeId, PathMode, RouteSelection, TrustLevel};
use ahn::strategy::{Decision, Strategy};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One game as the reference played it.
#[derive(Debug, PartialEq)]
struct Played {
    destination: NodeId,
    path: Vec<NodeId>,
    decisions: Vec<(Decision, TrustLevel)>,
    outcome: RouteOutcome,
}

/// Plays one game sourced by `source` among `participants`, charging
/// metrics to environment 0.
fn reference_game(
    arena: &mut Arena,
    rng: &mut ChaCha8Rng,
    participants: &[NodeId],
    source: NodeId,
) -> Played {
    let destination = loop {
        let d = participants[rng.gen_range(0..participants.len())];
        if d != source {
            break d;
        }
    };
    let mut pool = participants.to_vec();
    pool.retain(|&n| n != source && n != destination);

    let hops = arena.config.paths.lengths.sample(rng);
    let relays = (hops - 1).min(pool.len());
    let n_paths = arena.config.paths.alternates.sample(rng, relays + 1);
    let candidates: Vec<Vec<NodeId>> = (0..n_paths)
        .map(|_| {
            let mut copy = pool.clone();
            copy.partial_shuffle(rng, relays).0.to_vec()
        })
        .collect();
    let best = match arena.config.route_selection {
        RouteSelection::BestRated => {
            let mut best = 0;
            let mut best_rating = f64::NEG_INFINITY;
            for (i, candidate) in candidates.iter().enumerate() {
                let r = path_rating(&arena.reputation, source, candidate);
                if r > best_rating {
                    best_rating = r;
                    best = i;
                }
            }
            best
        }
        RouteSelection::Random => rng.gen_range(0..n_paths),
    };
    let path = candidates[best].clone();

    let mut decisions = Vec::new();
    let mut outcome = RouteOutcome::Delivered;
    for (k, &node) in path.iter().enumerate() {
        let (rate, forwarded) = arena.reputation.rate_and_forwarded(node, source);
        let trust = arena.config.trust.level_opt(rate);
        let fixed =
            arena
                .kind(node)
                .fixed_decision_ctx(rng, arena.kind(source), arena.round_clock());
        let decision = fixed.unwrap_or_else(|| {
            let strategy = arena.strategy(node);
            match rate {
                None => strategy.unknown_decision(),
                Some(_) => {
                    let activity = arena.config.activity.classify_opt(
                        f64::from(forwarded),
                        arena.reputation.mean_forwarded_of_known(node),
                    );
                    strategy.decision(trust, activity)
                }
            }
        });
        decisions.push((decision, trust));
        if decision == Decision::Discard {
            outcome = RouteOutcome::DroppedAt(k);
            break;
        }
    }

    let delivered = outcome.delivered();
    arena.payoffs[source.index()].add_source(arena.config.payoff.source(delivered));
    arena.energy[source.index()].add_tx();
    let mut req = ReqCounts::default();
    for (&node, &(decision, trust)) in path.iter().zip(&decisions) {
        match decision {
            Decision::Forward => {
                arena.payoffs[node.index()].add_forward(arena.config.payoff.forward(trust));
                arena.energy[node.index()].add_forward();
                req.accepted += 1;
            }
            Decision::Discard => {
                arena.payoffs[node.index()].add_discard(arena.config.payoff.discard(trust));
                arena.energy[node.index()].add_discard();
                if arena.kind(node).is_normal() {
                    req.rejected_by_nn += 1;
                } else {
                    req.rejected_by_csn += 1;
                }
            }
        }
    }
    if delivered {
        arena.energy[destination.index()].add_rx();
    }
    let csn_free = path.iter().all(|&n| !arena.kind(n).is_csn());
    let source_normal = arena.kind(source).is_normal();
    let m = arena.metrics.env_mut(0);
    if source_normal {
        m.nn_games += 1;
        m.nn_delivered += u64::from(delivered);
        m.nn_csn_free_path += u64::from(csn_free);
        m.from_nn.merge(&req);
    } else {
        m.from_csn.merge(&req);
    }
    apply_route_outcome(&mut arena.reputation, source, &path, outcome);

    Played {
        destination,
        path,
        decisions,
        outcome,
    }
}

/// Any non-normal kind, with arbitrary parameters.
fn tail_kind(g: &mut ChaCha8Rng) -> NodeKind {
    match g.gen_range(0..7) {
        0 => NodeKind::ConstantlySelfish,
        1 => NodeKind::RandomDropper(g.gen_range(0.0..=1.0)),
        2 => NodeKind::Liar,
        3 => NodeKind::Colluder(g.gen_range(0..3)),
        4 => NodeKind::OnOff {
            on: g.gen_range(0..6),
            off: g.gen_range(1..6),
        },
        5 => NodeKind::Whitewasher {
            period: g.gen_range(0..8),
        },
        _ => NodeKind::Flooder {
            extra: g.gen_range(0..4),
        },
    }
}

/// Draws an arena of `n` nodes and a game schedule from `seed`, plays
/// the schedule through the kernel and the reference, and asserts that
/// they agree game by game and in the final state.
fn check_kernel_matches_reference(n: usize, seed: u64) {
    let mut g = ChaCha8Rng::seed_from_u64(seed);
    let n_normal = g.gen_range(1..=n);
    let strategies: Vec<Strategy> = (0..n_normal).map(|_| Strategy::random(&mut g)).collect();
    let mut kinds = vec![NodeKind::Normal; n_normal];
    // A third of the cases give the tail to one colluder clique, so
    // colluders often relay for a clique-mate even at N = 3.
    if g.gen_bool(1.0 / 3.0) {
        kinds.resize(n, NodeKind::Colluder(1));
    } else {
        kinds.extend((n_normal..n).map(|_| tail_kind(&mut g)));
    }
    let mode = *[PathMode::Shorter, PathMode::Longer]
        .choose(&mut g)
        .unwrap();
    let mut config = GameConfig::paper(mode);
    config.route_selection = *[RouteSelection::BestRated, RouteSelection::Random]
        .choose(&mut g)
        .unwrap();
    let mut kernel = Arena::with_kinds(strategies, kinds, config, 1);
    let mut reference = kernel.clone();

    let mut kernel_rng = ChaCha8Rng::seed_from_u64(g.gen());
    let mut reference_rng = kernel_rng.clone();
    let mut scratch = Scratch::default();
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let rounds = if n > 50 { 2 } else { g.gen_range(1..=4) };
    for _ in 0..rounds {
        let clock = g.gen_range(0..40);
        kernel.set_round_clock(clock);
        reference.set_round_clock(clock);
        // A shuffled subset of at least three nodes, each game sourced
        // at any position.
        let mut participants = ids.clone();
        participants.shuffle(&mut g);
        participants.truncate(g.gen_range(3..=n));
        for _ in 0..participants.len() {
            let pos = g.gen_range(0..participants.len());
            let report = play_game(
                &mut kernel,
                &mut kernel_rng,
                &participants,
                pos,
                0,
                &mut scratch,
            );
            let played = reference_game(
                &mut reference,
                &mut reference_rng,
                &participants,
                participants[pos],
            );
            let kernel_played = Played {
                destination: report.destination,
                path: scratch.last_path().to_vec(),
                decisions: scratch.last_decisions().to_vec(),
                outcome: report.outcome,
            };
            prop_assert_eq!(&kernel_played, &played, "seed {}", seed);
            prop_assert_eq!(report.hops, played.path.len() + 1);
        }
    }

    prop_assert_eq!(&kernel.payoffs, &reference.payoffs);
    prop_assert_eq!(&kernel.energy, &reference.energy);
    prop_assert_eq!(kernel.metrics.env(0), reference.metrics.env(0));
    for &o in &ids {
        for &s in &ids {
            prop_assert_eq!(
                kernel.reputation.record(o, s),
                reference.reputation.record(o, s),
                "reputation record {:?} -> {:?} diverged",
                o,
                s
            );
        }
    }
    prop_assert_eq!(kernel_rng.gen::<u64>(), reference_rng.gen::<u64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The smallest game: one relay candidate.
    #[test]
    fn kernel_matches_reference_at_3(seed in any::<u64>()) {
        check_kernel_matches_reference(3, seed);
    }

    /// Smoke scale.
    #[test]
    fn kernel_matches_reference_at_10(seed in any::<u64>()) {
        check_kernel_matches_reference(10, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper scale.
    #[test]
    fn kernel_matches_reference_at_50(seed in any::<u64>()) {
        check_kernel_matches_reference(50, seed);
    }
}

proptest! {
    // Fewer cases at the largest scale: each one plays up to 600 games
    // twice and compares 90 000 reputation records.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mid scale: the largest dense-backing network.
    #[test]
    fn kernel_matches_reference_at_300(seed in any::<u64>()) {
        check_kernel_matches_reference(300, seed);
    }
}
