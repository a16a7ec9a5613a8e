//! Property-based tests for the network substrate.

use ahn_net::watchdog::apply_route_outcome;
use ahn_net::{
    paths::{path_rating, UNKNOWN_RATE},
    ActivityBands, Candidates, NodeId, PathGenerator, PathMode, ReputationMatrix, RouteOutcome,
    RouteSelection, TrustLevel, TrustTable,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An arbitrary sequence of reputation operations on a small network.
#[derive(Debug, Clone)]
enum RepOp {
    Forward(u8, u8),
    Drop(u8, u8),
}

fn rep_ops(n_nodes: u8, max_len: usize) -> impl Strategy<Value = Vec<RepOp>> {
    proptest::collection::vec(
        (0..n_nodes, 0..n_nodes, any::<bool>()).prop_map(|(o, s, fwd)| {
            if fwd {
                RepOp::Forward(o, s)
            } else {
                RepOp::Drop(o, s)
            }
        }),
        0..max_len,
    )
}

/// The full update surface of the matrix: watchdog observations,
/// gossip-style merges, and generation clears.
#[derive(Debug, Clone)]
enum FullOp {
    Forward(u8, u8),
    Drop(u8, u8),
    Absorb(u8, u8, u8, u8),
    Clear,
}

fn full_ops(n_nodes: u8, max_len: usize) -> impl Strategy<Value = Vec<FullOp>> {
    proptest::collection::vec(
        (0..n_nodes, 0..n_nodes, any::<u8>(), any::<u8>(), 0u8..10).prop_map(
            |(o, s, a, b, kind)| match kind {
                0..=3 => FullOp::Forward(o, s),
                4..=6 => FullOp::Drop(o, s),
                7..=8 => FullOp::Absorb(o, s, a.max(b), a.min(b)),
                _ => FullOp::Clear,
            },
        ),
        0..max_len,
    )
}

/// Applies one op to a matrix, skipping self-pairs (a debug panic).
fn apply_full(m: &mut ReputationMatrix, op: &FullOp) {
    match *op {
        FullOp::Forward(o, s) if o != s => m.record_forward(NodeId(o.into()), NodeId(s.into())),
        FullOp::Drop(o, s) if o != s => m.record_drop(NodeId(o.into()), NodeId(s.into())),
        FullOp::Absorb(o, s, requests, forwarded) if o != s => m.absorb(
            NodeId(o.into()),
            NodeId(s.into()),
            requests.into(),
            forwarded.into(),
        ),
        FullOp::Clear => m.clear(),
        _ => {}
    }
}

proptest! {
    /// After any operation sequence: pf <= ps, rates in [0,1], diagonal
    /// untouched, and the structural invariant checker agrees.
    #[test]
    fn reputation_invariants_hold(ops in rep_ops(8, 200)) {
        let mut m = ReputationMatrix::new(8);
        for op in &ops {
            match *op {
                RepOp::Forward(o, s) if o != s => {
                    m.record_forward(NodeId(o.into()), NodeId(s.into()))
                }
                RepOp::Drop(o, s) if o != s => {
                    m.record_drop(NodeId(o.into()), NodeId(s.into()))
                }
                _ => {}
            }
        }
        m.check_invariants().unwrap();
        for o in 0..8u32 {
            for s in 0..8u32 {
                if let Some(r) = m.rate(NodeId(o), NodeId(s)) {
                    prop_assert!((0.0..=1.0).contains(&r));
                }
            }
        }
    }

    /// Trust levels are monotone in the forwarding rate.
    #[test]
    fn trust_is_monotone(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let t = TrustTable::paper();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.level(lo) <= t.level(hi));
    }

    /// The activity classification is monotone in the source's forwarded
    /// count and LO/HI flank MI.
    #[test]
    fn activity_is_monotone(av in 0.1f64..1000.0, x in 0.0f64..1000.0, y in 0.0f64..1000.0) {
        let bands = ActivityBands::paper();
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(bands.classify(lo, av) <= bands.classify(hi, av));
    }

    /// Path ratings multiply rates, so they are in [0,1] and adding a
    /// relay never increases the rating.
    #[test]
    fn path_rating_shrinks_with_length(ops in rep_ops(8, 100), len in 1usize..6) {
        let mut m = ReputationMatrix::new(8);
        for op in &ops {
            match *op {
                RepOp::Forward(o, s) if o != s => {
                    m.record_forward(NodeId(o.into()), NodeId(s.into()))
                }
                RepOp::Drop(o, s) if o != s => {
                    m.record_drop(NodeId(o.into()), NodeId(s.into()))
                }
                _ => {}
            }
        }
        let path: Vec<NodeId> = (1..=len as u32).map(NodeId).collect();
        let r_full = path_rating(&m, NodeId(0), &path);
        let r_prefix = path_rating(&m, NodeId(0), &path[..len - 1]);
        prop_assert!((0.0..=1.0).contains(&r_full));
        prop_assert!(r_full <= r_prefix + 1e-12);
    }

    /// Best-rated selection returns the argmax of path_rating.
    #[test]
    fn best_path_is_argmax(seed in any::<u64>(), n_participants in 3usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = ReputationMatrix::new(12);
        // Random reputation state.
        use rand::Rng as _;
        for _ in 0..100 {
            let o = NodeId(rng.gen_range(0..12));
            let s = NodeId(rng.gen_range(0..12));
            if o == s { continue; }
            if rng.gen_bool(0.5) { m.record_forward(o, s) } else { m.record_drop(o, s) }
        }
        let generator = PathGenerator::for_mode(PathMode::Shorter);
        let participants: Vec<NodeId> = (0..n_participants as u32).map(NodeId).collect();
        let mut candidates = Candidates::default();
        generator.draw(&mut rng, &participants, 0, 1, &mut candidates);
        let chosen = RouteSelection::BestRated.select(&mut rng, &m, NodeId(0), &candidates);
        let best = candidates
            .iter()
            .map(|c| path_rating(&m, NodeId(0), c))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((path_rating(&m, NodeId(0), candidates.get(chosen)) - best).abs() < 1e-12);
    }

    /// Generated candidate paths always satisfy the structural contract.
    #[test]
    fn generated_paths_are_wellformed(
        seed in any::<u64>(),
        n_participants in 3usize..40,
        source_pos in any::<usize>(),
        dest_offset in any::<usize>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let generator = PathGenerator::for_mode(PathMode::Longer);
        let participants: Vec<NodeId> = (0..n_participants as u32).map(NodeId).collect();
        let source_pos = source_pos % n_participants;
        let dest_pos = (source_pos + 1 + dest_offset % (n_participants - 1)) % n_participants;
        let mut candidates = Candidates::default();
        generator.draw(&mut rng, &participants, source_pos, dest_pos, &mut candidates);
        prop_assert!((1..=3).contains(&candidates.len()));
        for path in candidates.iter() {
            prop_assert!(!path.is_empty());
            prop_assert!(path.len() <= n_participants - 2);
            prop_assert!(path.len() <= 9, "at most 10 hops");
            let mut sorted = path.to_vec();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len(), "relays must be distinct");
            prop_assert!(!path.contains(&participants[source_pos]));
            prop_assert!(!path.contains(&participants[dest_pos]));
        }
    }

    /// `draw` makes exactly the draws, and yields exactly the candidates,
    /// of the plain model: copy the participants, remove source and
    /// destination, and partial-shuffle a fresh pool copy per candidate.
    #[test]
    fn draw_equals_shuffling_a_pool_copy(
        seed in any::<u64>(),
        n_participants in 3usize..60,
        source_pos in any::<usize>(),
        dest_offset in any::<usize>(),
        longer in any::<bool>(),
    ) {
        use rand::seq::SliceRandom as _;
        use rand::Rng as _;
        let mode = if longer { PathMode::Longer } else { PathMode::Shorter };
        let generator = PathGenerator::for_mode(mode);
        // Shuffled ids, so positions and ids differ.
        let mut participants: Vec<NodeId> = (0..n_participants as u32).map(NodeId).collect();
        participants.shuffle(&mut ChaCha8Rng::seed_from_u64(!seed));
        let source_pos = source_pos % n_participants;
        let dest_pos = (source_pos + 1 + dest_offset % (n_participants - 1)) % n_participants;

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut candidates = Candidates::default();
        generator.draw(&mut rng, &participants, source_pos, dest_pos, &mut candidates);

        let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
        let (source, dest) = (participants[source_pos], participants[dest_pos]);
        let mut pool = participants.clone();
        pool.retain(|&n| n != source && n != dest);
        let hops = generator.lengths.sample(&mut reference_rng);
        let relays = (hops - 1).min(pool.len());
        let n_paths = generator.alternates.sample(&mut reference_rng, relays + 1);
        prop_assert_eq!(candidates.len(), n_paths);
        for c in 0..n_paths {
            let mut copy = pool.clone();
            let (tail, _) = copy.partial_shuffle(&mut reference_rng, relays);
            prop_assert_eq!(candidates.get(c), &*tail);
        }
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }

    /// Watchdog updates never touch nodes outside the deciding prefix and
    /// never rate the source.
    #[test]
    fn watchdog_update_scope(
        n_inter in 1usize..8,
        drop_at in proptest::option::of(0usize..8),
    ) {
        let drop_at = drop_at.filter(|&k| k < n_inter);
        let mut m = ReputationMatrix::new(12);
        let source = NodeId(0);
        let inter: Vec<NodeId> = (1..=n_inter as u32).map(NodeId).collect();
        let outcome = match drop_at {
            Some(k) => RouteOutcome::DroppedAt(k),
            None => RouteOutcome::Delivered,
        };
        apply_route_outcome(&mut m, source, &inter, outcome);
        m.check_invariants().unwrap();

        let deciders = outcome.deciders(n_inter);
        // Nobody rates the source; nodes beyond the dropper are unknown.
        for o in 0..12u32 {
            prop_assert!(!m.knows(NodeId(o), source));
            for s in (deciders + 1)..=(n_inter) {
                prop_assert!(!m.knows(NodeId(o), NodeId(s as u32)));
            }
        }
        // Forwarders have rate 1 as seen by the source; the dropper 0.
        for (j, &s) in inter[..deciders].iter().enumerate() {
            let expected = if j < outcome.forwards(n_inter) { 1.0 } else { 0.0 };
            prop_assert_eq!(m.rate(source, s), Some(expected));
        }
    }

    /// Unknown-rate constant is consistent with the unknown trust level.
    #[test]
    fn unknown_rate_maps_to_unknown_trust(_x in 0..1) {
        let t = TrustTable::paper();
        prop_assert_eq!(t.level(UNKNOWN_RATE), t.unknown);
        prop_assert_eq!(t.unknown, TrustLevel::T1);
    }

    /// The sparse and dense backings are observationally equivalent
    /// under arbitrary update sequences: every read-side method agrees
    /// bit for bit, the aggregates match, and the two compare equal.
    #[test]
    fn sparse_and_dense_backings_are_observationally_equivalent(
        ops in full_ops(12, 250),
    ) {
        let n = 12usize;
        let mut dense = ReputationMatrix::new_dense(n);
        let mut sparse = ReputationMatrix::new_sparse(n);
        for op in &ops {
            apply_full(&mut dense, op);
            apply_full(&mut sparse, op);
        }
        dense.check_invariants().unwrap();
        sparse.check_invariants().unwrap();

        // Every lookup agrees, bit for bit.
        for o in 0..n as u32 {
            let o_id = NodeId(o);
            prop_assert_eq!(dense.known_count(o_id), sparse.known_count(o_id));
            prop_assert_eq!(
                dense.mean_forwarded_of_known(o_id).map(f64::to_bits),
                sparse.mean_forwarded_of_known(o_id).map(f64::to_bits)
            );
            for s in 0..n as u32 {
                let s_id = NodeId(s);
                prop_assert_eq!(dense.record(o_id, s_id), sparse.record(o_id, s_id));
                prop_assert_eq!(dense.knows(o_id, s_id), sparse.knows(o_id, s_id));
                prop_assert_eq!(
                    dense.rate(o_id, s_id).map(f64::to_bits),
                    sparse.rate(o_id, s_id).map(f64::to_bits)
                );
                prop_assert_eq!(
                    dense.rate_or_unknown(o_id, s_id).to_bits(),
                    sparse.rate_or_unknown(o_id, s_id).to_bits()
                );
                let (dr, df) = dense.rate_and_forwarded(o_id, s_id);
                let (sr, sf) = sparse.rate_and_forwarded(o_id, s_id);
                prop_assert_eq!((dr.map(f64::to_bits), df), (sr.map(f64::to_bits), sf));
                prop_assert_eq!(
                    dense.forwarded_count(o_id, s_id),
                    sparse.forwarded_count(o_id, s_id)
                );
            }
        }
        prop_assert_eq!(dense.observed_pairs(), sparse.observed_pairs());

        // Cross-backing equality in both directions.
        prop_assert_eq!(&dense, &sparse);
        prop_assert_eq!(&sparse, &dense);
    }
}
