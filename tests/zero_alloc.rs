//! Proof that the steady-state hot loop is allocation-free.
//!
//! A counting wrapper around the system allocator tracks every
//! allocation made by the *current thread*. After a warm-up phase grows
//! every scratch buffer to its high-water mark, full tournament rounds —
//! and GA breeding into a warm buffer — must not allocate a single byte.
//!
//! The counter is thread-local on purpose: the libtest harness's own
//! threads allocate asynchronously (its timed-wait machinery was
//! observed allocating during a sleep-only measured window), so a
//! process-global counter makes the test racy against the harness. The
//! invariant under test is about the simulating thread, and that is
//! exactly what a per-thread count pins — no harness noise, no
//! cross-test interference, and any allocation the hot loop itself
//! performs still fails the test.

use ahn::bitstr::BitStr;
use ahn::game::{Arena, GameConfig, NodeKind, RoundScratch, Tournament};
use ahn::net::{GossipConfig, NodeId, PathMode};
use ahn::strategy::Strategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` init: the cell lives in the static TLS block, so bumping
    // it never allocates and never recurses into the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Adds one to the current thread's allocation count. `try_with`
/// tolerates calls during thread teardown, after TLS is gone.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

#[test]
fn steady_state_tournament_round_allocates_zero_bytes() {
    // Longer-paths mode exercises the deepest buffers (up to 9 relays,
    // 3 candidates); a CSN minority exercises every decision branch.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let strategies: Vec<Strategy> = (0..40).map(|_| Strategy::random(&mut rng)).collect();
    let mut arena = Arena::new(strategies, 10, GameConfig::paper(PathMode::Longer), 1);
    let participants: Vec<NodeId> = (0..50u32).map(NodeId).collect();
    let mut scratch = RoundScratch::default();

    // Warm-up: enough games that every metrics counter and reputation
    // cell has reached its steady-state capacity.
    Tournament::new(40).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);

    // Measure: 20 full rounds (1000 games) must allocate nothing.
    let before = allocations();
    Tournament::new(20).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state tournament rounds performed {} allocations",
        after - before
    );
}

#[test]
fn bignet_paper_traffic_round_allocates_zero_bytes_once_warm() {
    // A 1 000-node arena runs on the *sparse* reputation backing; with
    // paper-style traffic (50-participant tournaments inside the big
    // network) the sparse rows saturate after a short warm-up — all
    // co-occurring pairs observed — and rounds must then be
    // allocation-free exactly like the dense paper-scale case.
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let strategies: Vec<Strategy> = (0..900).map(|_| Strategy::random(&mut rng)).collect();
    let mut arena = Arena::new(strategies, 100, GameConfig::paper(PathMode::Longer), 1);
    assert!(arena.reputation.is_sparse(), "1000 nodes must be sparse");
    let participants: Vec<NodeId> = (0..50u32).map(NodeId).collect();
    let mut scratch = RoundScratch::default();

    Tournament::new(40).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);

    let before = allocations();
    Tournament::new(20).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state sparse rounds performed {} allocations",
        after - before
    );
}

#[test]
fn full_bignet_round_allocates_zero_bytes_once_rows_are_saturated() {
    // The stronger claim: a full 1 000-participant round — every node
    // sourcing one game among all 1 000 — allocates nothing once each
    // observer's row holds every possible subject. Organic play takes
    // hundreds of rounds to saturate the pair set, so pre-touch every
    // pair through the public API first (absorb is the gossip merge
    // entry point); the measured rounds then exercise pure probe/update
    // paths.
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let strategies: Vec<Strategy> = (0..800).map(|_| Strategy::random(&mut rng)).collect();
    let mut arena = Arena::new(strategies, 200, GameConfig::paper(PathMode::Longer), 1);
    assert!(arena.reputation.is_sparse());
    let participants: Vec<NodeId> = (0..1000u32).map(NodeId).collect();
    for o in 0..1000u32 {
        for s in 0..1000u32 {
            if o != s {
                arena.reputation.absorb(NodeId(o), NodeId(s), 1, 1);
            }
        }
    }
    let mut scratch = RoundScratch::default();
    // One warm-up round for the metrics counters.
    Tournament::new(1).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);

    let before = allocations();
    Tournament::new(2).run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "saturated 1000-node rounds performed {} allocations",
        after - before
    );
}

#[test]
fn warm_zoo_sleeper_gossip_tournament_allocates_zero_bytes() {
    // Every tournament feature beyond the paper's round at once: a liar,
    // a colluder, an on-off node, a whitewasher and a flooder in the
    // tail, a sleeping normal player, and CONFIDANT gossip. Once the
    // round scratch has grown its awake and gossip lists, a whole
    // tournament allocates nothing.
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let strategies: Vec<Strategy> = (0..6).map(|_| Strategy::random(&mut rng)).collect();
    let mut kinds = vec![NodeKind::Normal; 6];
    kinds.extend([
        NodeKind::Liar,
        NodeKind::Colluder(1),
        NodeKind::OnOff { on: 3, off: 2 },
        NodeKind::Whitewasher { period: 4 },
        NodeKind::Flooder { extra: 2 },
    ]);
    let mut config = GameConfig::paper(PathMode::Longer);
    config.gossip = Some(GossipConfig::confidant_style());
    let mut arena = Arena::with_kinds(strategies, kinds, config, 1);
    arena.set_duty_cycle(NodeId(0), 0.5);
    let participants: Vec<NodeId> = (0..11u32).map(NodeId).collect();
    let tournament = Tournament::new(30);
    let mut scratch = RoundScratch::default();
    for _ in 0..3 {
        arena.begin_generation();
        tournament.run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    }

    let before = allocations();
    for _ in 0..3 {
        arena.begin_generation();
        tournament.run_with_scratch(&mut arena, &mut rng, &participants, 0, &mut scratch);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm zoo/sleeper/gossip tournaments performed {} allocations",
        after - before
    );
}

#[test]
fn histogram_record_allocates_zero_bytes() {
    // The instrumentation itself must be hot-loop-safe: recording into
    // an AtomicHistogram touches only its inline atomic buckets.
    let hist = ahn::obs::AtomicHistogram::new();
    hist.record(1);

    let before = allocations();
    for v in 0..10_000u64 {
        hist.record(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "histogram recording performed {} allocations",
        after - before
    );
}

#[test]
fn noop_recorder_hooks_allocate_zero_bytes() {
    // The zero-cost-when-off contract: every NoopRecorder hook has an
    // empty body, so a fully instrumented generation loop driven with
    // it must not allocate (or do anything else).
    use ahn::obs::{NoopRecorder, Phase, Recorder};
    let mut recorder = NoopRecorder;

    let before = allocations();
    for generation in 0..10_000u64 {
        for phase in [Phase::Schedule, Phase::Play, Phase::Evolve] {
            recorder.begin(phase);
            recorder.end(phase);
        }
        recorder.generation(generation, 0.5);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "no-op recorder hooks performed {} allocations",
        after - before
    );
}

#[test]
fn breeding_into_a_warm_buffer_allocates_zero_bytes() {
    // 13-bit genomes are stored inline; with a warmed offspring buffer
    // the whole breed step is allocation-free.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let population: Vec<BitStr> = (0..100).map(|_| BitStr::random(&mut rng, 13)).collect();
    let fitnesses: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let params = ahn::ga::GaParams::paper();
    let mut offspring: Vec<BitStr> = Vec::new();
    ahn::ga::next_generation_into(&mut rng, &params, &population, &fitnesses, &mut offspring);

    let before = allocations();
    for _ in 0..50 {
        ahn::ga::next_generation_into(&mut rng, &params, &population, &fitnesses, &mut offspring);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state breeding performed {} allocations",
        after - before
    );
}

#[test]
fn a_passing_cell_check_allocates_zero_bytes() {
    // The sweep, atlas and calibration grids run `check_cell` on every
    // cell they validate, so it allocates only to report a failure.
    use ahn::core::config::{AttackerBehavior, AttackerGroup, SleeperSpec};
    let config = ahn::core::ExperimentConfig {
        sleepers: (0..10)
            .map(|index| SleeperSpec { index, duty: 0.5 })
            .collect(),
        attackers: Some(vec![AttackerGroup {
            behavior: AttackerBehavior::Liar,
            count: 30,
        }]),
        ..ahn::core::ExperimentConfig::scaled()
    };
    let case = ahn::core::CaseSpec::paper(3);

    let before = allocations();
    for _ in 0..100 {
        assert!(ahn::core::check_cell(&config, &case).is_ok());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "passing cell checks performed {} allocations",
        after - before
    );
}
