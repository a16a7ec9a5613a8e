//! Micro-benchmarks of the simulation's hot paths.
//!
//! The single-game benchmark is the headline number: one Ad Hoc Network
//! Game (path generation + rating + decisions + payoffs + watchdog
//! updates) runs in well under a microsecond, which is what makes
//! paper-scale experiments (hundreds of millions of games) tractable.

use ahn_bench::{bench_arena, bench_bignet_arena, bench_rng};
use ahn_bitstr::{ops, BitStr};
use ahn_ga::{next_generation, next_generation_into, GaParams};
use ahn_game::{game::Scratch, play_game, RoundScratch, Tournament};
use ahn_net::{
    paths::{path_rating, AltPathDist, PathGenerator, PathLengthDist},
    Candidates, NodeId, PathMode, ReputationMatrix, RouteSelection, TrustTable,
};
use ahn_strategy::Strategy;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_single_game(c: &mut Criterion) {
    let (mut arena, participants) = bench_arena(1);
    let mut rng = bench_rng(2);
    let mut scratch = Scratch::default();
    c.bench_function("game/play_game_50_nodes", |b| {
        b.iter(|| {
            let report = play_game(&mut arena, &mut rng, &participants, 0, 0, &mut scratch);
            black_box(report.outcome)
        })
    });
}

fn bench_tournament_round(c: &mut Criterion) {
    c.bench_function("game/tournament_50_nodes_10_rounds", |b| {
        let (mut arena, participants) = bench_arena(3);
        let mut rng = bench_rng(4);
        let tournament = Tournament::new(10);
        b.iter(|| {
            arena.begin_generation();
            tournament.run(&mut arena, &mut rng, &participants, 0);
            black_box(arena.metrics.env(0).nn_games)
        })
    });
}

fn bench_reputation(c: &mut Criterion) {
    let mut m = ReputationMatrix::new(130);
    let mut rng = bench_rng(5);
    use rand::Rng as _;
    for _ in 0..5_000 {
        let o = NodeId(rng.gen_range(0..130));
        let s = NodeId(rng.gen_range(0..130));
        if o != s {
            m.record_forward(o, s);
        }
    }
    c.bench_function("reputation/rate_lookup", |b| {
        b.iter(|| black_box(m.rate(NodeId(3), NodeId(77))))
    });
    c.bench_function("reputation/rate_or_unknown_lookup", |b| {
        b.iter(|| black_box(m.rate_or_unknown(NodeId(3), NodeId(77))))
    });
    c.bench_function("reputation/mean_forwarded_of_known_130", |b| {
        b.iter(|| black_box(m.mean_forwarded_of_known(NodeId(3))))
    });
    let trust = TrustTable::paper();
    c.bench_function("reputation/trust_level_lookup", |b| {
        b.iter(|| black_box(trust.level_opt(m.rate(NodeId(3), NodeId(77)))))
    });
    // The update path, including the incremental rate / row-aggregate
    // maintenance: one forward and one drop per iteration, on a matrix
    // that is periodically reset so the counters stay small.
    c.bench_function("reputation/record_forward_and_drop", |b| {
        let mut fresh = ReputationMatrix::new(130);
        let mut i = 0u32;
        b.iter(|| {
            fresh.record_forward(NodeId(3), NodeId(77));
            fresh.record_drop(NodeId(77), NodeId(3));
            i += 1;
            if i >= 1_000_000 {
                fresh.clear();
                i = 0;
            }
            black_box(fresh.rate_or_unknown(NodeId(3), NodeId(77)))
        })
    });
}

/// Sparse-row lookup and update against the dense equivalents, at the
/// paper scale (N = 50) and big-network scale (N = 1000) — so a
/// regression in either backing is attributable to its layer.
fn bench_sparse_reputation(c: &mut Criterion) {
    use rand::Rng as _;
    for n in [50u32, 1000] {
        let mut sparse = ReputationMatrix::new_sparse(n as usize);
        let mut rng = bench_rng(u64::from(n));
        for _ in 0..(n * 40) {
            let o = NodeId(rng.gen_range(0..n));
            let s = NodeId(rng.gen_range(0..n));
            if o != s {
                sparse.record_forward(o, s);
            }
        }
        // A known and an unknown pair, fixed across iterations.
        let (known_o, known_s) = (NodeId(3), NodeId(n - 1));
        sparse.record_forward(known_o, known_s);
        c.bench_function(&format!("reputation/sparse_lookup_hit_{n}"), |b| {
            b.iter(|| black_box(sparse.rate_or_unknown(known_o, known_s)))
        });
        c.bench_function(&format!("reputation/sparse_lookup_all_{n}"), |b| {
            let mut s = 1u32;
            b.iter(|| {
                s = if s + 1 >= n { 1 } else { s + 1 };
                black_box(sparse.rate_or_unknown(NodeId(0), NodeId(s)))
            })
        });
        c.bench_function(&format!("reputation/sparse_update_{n}"), |b| {
            let mut fresh = ReputationMatrix::new_sparse(n as usize);
            let mut i = 0u32;
            b.iter(|| {
                fresh.record_forward(known_o, known_s);
                fresh.record_drop(known_s, known_o);
                i += 1;
                if i >= 1_000_000 {
                    fresh.clear();
                    i = 0;
                }
                black_box(fresh.rate_or_unknown(known_o, known_s))
            })
        });
    }
}

/// An arena fixture builder (`bench_arena` / `bench_bignet_arena`).
type ArenaBuilder = fn(u64) -> (ahn_game::Arena, Vec<NodeId>);

/// One full SoA-arena tournament round (every participant sources one
/// game) at the paper scale and the 1 000-node sparse scale.
fn bench_arena_round(c: &mut Criterion) {
    let cases: [(&str, ArenaBuilder); 2] = [
        ("game/arena_round_50_nodes", bench_arena),
        ("game/arena_round_1000_nodes", bench_bignet_arena),
    ];
    for (name, build) in cases {
        let (mut arena, participants) = build(9);
        let mut rng = bench_rng(10);
        let mut scratch = RoundScratch::default();
        let round = Tournament::new(1);
        // Warm the reputation rows so the bench times the steady state,
        // not first-touch growth.
        for _ in 0..2 {
            round.run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
        }
        c.bench_function(name, |b| {
            b.iter(|| {
                round.run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
                black_box(arena.metrics.env(0).nn_games)
            })
        });
    }
}

fn bench_path_generation(c: &mut Criterion) {
    let generator = PathGenerator::for_mode(PathMode::Longer);
    let participants: Vec<NodeId> = (0..50u32).map(NodeId).collect();
    let mut rng = bench_rng(6);
    let mut candidates = Candidates::default();
    c.bench_function("paths/draw_candidates_LP", |b| {
        b.iter(|| {
            generator.draw(&mut rng, &participants, 0, 1, &mut candidates);
            black_box(candidates.len())
        })
    });

    // The path-model samplers on their own.
    let lengths = PathLengthDist::paper_longer();
    c.bench_function("paths/sample_length_LP", |b| {
        b.iter(|| black_box(lengths.sample(&mut rng)))
    });
    let alts = AltPathDist::paper();
    c.bench_function("paths/sample_alt_count_5hops", |b| {
        b.iter(|| black_box(alts.sample(&mut rng, 5)))
    });

    let m = ReputationMatrix::new(50);
    generator.draw(&mut rng, &participants, 0, 1, &mut candidates);
    c.bench_function("paths/rate_and_select_candidates", |b| {
        b.iter(|| {
            let i = RouteSelection::BestRated.select(&mut rng, &m, NodeId(0), &candidates);
            black_box(path_rating(&m, NodeId(0), candidates.get(i)))
        })
    });
}

fn bench_strategy_ops(c: &mut Criterion) {
    let mut rng = bench_rng(7);
    let s = Strategy::random(&mut rng);
    c.bench_function("strategy/decision_lookup", |b| {
        b.iter(|| {
            black_box(s.decision(
                black_box(ahn_net::TrustLevel::T2),
                black_box(ahn_net::ActivityLevel::Mi),
            ))
        })
    });
    c.bench_function("strategy/encode", |b| b.iter(|| black_box(s.encode())));
}

fn bench_ga(c: &mut Criterion) {
    use rand::Rng as _;
    let mut rng = bench_rng(8);
    let population: Vec<BitStr> = (0..100).map(|_| BitStr::random(&mut rng, 13)).collect();
    let fitnesses: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let params = GaParams::paper();
    c.bench_function("ga/next_generation_100x13", |b| {
        b.iter(|| black_box(next_generation(&mut rng, &params, &population, &fitnesses)))
    });
    let mut offspring: Vec<BitStr> = Vec::new();
    c.bench_function("ga/next_generation_into_100x13", |b| {
        b.iter(|| {
            next_generation_into(&mut rng, &params, &population, &fitnesses, &mut offspring);
            black_box(offspring.len())
        })
    });
    let a = BitStr::random(&mut rng, 13);
    let bgen = BitStr::random(&mut rng, 13);
    c.bench_function("ga/one_point_child_13", |b| {
        b.iter(|| {
            let cut = rng.gen_range(1..13);
            black_box(ops::one_point_child(&a, &bgen, cut, rng.gen_bool(0.5)))
        })
    });
}

criterion_group!(
    benches,
    bench_single_game,
    bench_tournament_round,
    bench_reputation,
    bench_sparse_reputation,
    bench_arena_round,
    bench_path_generation,
    bench_strategy_ops,
    bench_ga,
);
criterion_main!(benches);
