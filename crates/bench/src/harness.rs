//! The `ahn-exp bench` measurement harness.
//!
//! Wall-clock times the paper-artifact pipelines (Figure 4, Table 5, the
//! IPDRP baseline) at the fixed *bench scale* plus raw game throughput
//! on a paper-sized tournament, and packages the numbers as a serde
//! report. The `ahn-exp bench --json` command prints the report;
//! `BENCH_N.json` files at the repository root commit before/after pairs
//! of these reports so every performance PR leaves a trajectory
//! (measurement protocol: PERFORMANCE.md).
//!
//! Every pipeline is run [`MEASURE_RUNS`] times and the **minimum** is
//! reported: minima are the standard low-noise estimator for
//! deterministic workloads (everything above the minimum is scheduler
//! noise, not the code under test).

use crate::{
    bench_arena, bench_bignet_arena, bench_case, bench_config, bench_rng, bench_sweep_grid,
};
use ahn_core::experiment::run_replication;
use ahn_game::Tournament;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How often each pipeline is timed (minimum wins).
pub const MEASURE_RUNS: usize = 5;

/// Rounds of the throughput tournament (the paper's R).
const THROUGHPUT_ROUNDS: usize = 300;

/// Rounds of the big-network throughput tournament (1 000 nodes; 100
/// rounds keeps one run under a second while reaching the sparse rows'
/// steady state).
const BIGNET_ROUNDS: usize = 100;

/// Distinct seeds per replication pipeline, so the timing averages over
/// path-length and evolution variance instead of pinning one trajectory.
pub const SEEDS_PER_PIPELINE: u64 = 2;

/// Distinct job specs in the serve bench's cache-miss phase.
pub const SERVE_DISTINCT: usize = 24;

/// Submissions in the serve bench's cache-hit phase.
pub const SERVE_HIT_REQUESTS: usize = 600;

/// One timed bench run: artifact-pipeline seconds plus game throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema tag (`"ahn-bench/2"`; `"ahn-bench/1"` reports
    /// predate the environment and thread-scaling rows and still
    /// deserialize with those fields `None`).
    pub schema: String,
    /// Human description of the measured scale.
    pub scale: String,
    /// Seconds for the Figure-4 pipeline (CSN-free + CSN-heavy case,
    /// [`SEEDS_PER_PIPELINE`] seeded replications each).
    pub fig4_seconds: f64,
    /// Seconds for the Table-5 pipeline (three-environment case,
    /// [`SEEDS_PER_PIPELINE`] seeded replications).
    pub table5_seconds: f64,
    /// Seconds for the IPDRP baseline pipeline.
    pub ipdrp_seconds: f64,
    /// Steady-state Ad Hoc Network Games per second in a 50-node,
    /// 300-round tournament (the paper-scale inner loop).
    pub games_per_second: f64,
    /// Serving throughput, cache-miss side: sequential submissions of
    /// [`SERVE_DISTINCT`] distinct specs against an in-process
    /// `ahn_serve` server, each polled to completion (requests/s over
    /// the full HTTP + queue + worker + serialize path). `None` in
    /// reports measured before the serve subsystem existed.
    pub serve_miss_rps: Option<f64>,
    /// Serving throughput, cache-hit side: [`SERVE_HIT_REQUESTS`]
    /// submissions of already-cached specs over 4 keep-alive
    /// connections (requests/s). `None` in pre-serve reports.
    pub serve_hit_rps: Option<f64>,
    /// Steady-state games per second in a 1 000-node, 100-round
    /// tournament — the sparse-reputation inner loop at 20x the paper's
    /// network size. `None` in reports measured before the sparse
    /// substrate existed.
    pub bignet_games_per_second: Option<f64>,
    /// Scenario-sweep engine throughput: cells per second over the
    /// 16-cell grid of `bench_sweep_grid` (each cell a full seeded
    /// experiment). `None` in pre-sweep reports.
    pub sweep_cells_per_second: Option<f64>,
    /// Reconstruction-search throughput: cells per second over the
    /// 8-cell grid of `bench_calibration_grid` (candidate enumeration +
    /// per-candidate sweeps + scoring, the full `ahn-exp calibrate`
    /// path). `None` in reports measured before the calibration engine
    /// existed.
    pub calibrate_cells_per_second: Option<f64>,
    /// Distributed-sweep throughput: cells per second over the same
    /// 16-cell grid, but run through a pull-only `ahn_serve` node by
    /// external pull workers and merged by the coordinator
    /// (`run_sweep_via`) — the full claim/complete/journal-free path.
    /// Measured at 1, 2 and 4 workers; the best count is recorded (on a
    /// single-core host all three are expected to tie). `None` in
    /// reports measured before the distributed layer existed.
    pub distributed_cells_per_second: Option<f64>,
    /// Cores the measuring host exposed (`available_parallelism`,
    /// ignoring any `AHN_THREADS` cap). `None` in pre-`ahn-bench/2`
    /// reports.
    pub host_cores: Option<u64>,
    /// Effective worker-thread count at measurement time (host cores
    /// capped by `AHN_THREADS`). `None` in pre-`ahn-bench/2` reports.
    pub ahn_threads: Option<u64>,
    /// Whether the binary looked like a `-C target-cpu=native` build
    /// (the [`portable_build_warning`] probe came back clean). `None`
    /// in pre-`ahn-bench/2` reports.
    pub target_cpu_native: Option<bool>,
    /// Aggregate games per second across 1 concurrent paper-scale
    /// tournament pinned to `AHN_THREADS=1` — the thread-scaling
    /// anchor. `None` in pre-`ahn-bench/2` reports or when `--threads`
    /// excluded 1.
    pub games_per_second_t1: Option<f64>,
    /// Aggregate games per second across 4 concurrent paper-scale
    /// tournaments under `AHN_THREADS=4`. `None` when the host has
    /// fewer than 4 cores (a capped run would mismeasure scaling), when
    /// `--threads` excluded 4, or in pre-`ahn-bench/2` reports.
    pub games_per_second_t4: Option<f64>,
    /// Aggregate games per second across 8 concurrent paper-scale
    /// tournaments under `AHN_THREADS=8`. `None` on hosts with fewer
    /// than 8 cores, when `--threads` excluded 8, or in
    /// pre-`ahn-bench/2` reports.
    pub games_per_second_t8: Option<f64>,
    /// Parallel efficiency of the sweep engine:
    /// `(cells/s at t) / (t × cells/s at t=1)` where `t` is the largest
    /// of {4, 8} the host can actually run (falling back to the core
    /// count itself on 2–3-core hosts). 1.0 is perfect linear scaling.
    /// `None` on single-core hosts and in pre-`ahn-bench/2` reports.
    pub sweep_scaling_efficiency: Option<f64>,
}

/// A committed before/after baseline pair (the `BENCH_N.json` format).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    /// File schema tag (`"ahn-bench-baseline/1"`).
    pub schema: String,
    /// What changed between `before` and `after`.
    pub note: String,
    /// Report measured on the tree *before* the change.
    pub before: BenchReport,
    /// Report measured on the tree *after* the change.
    pub after: BenchReport,
}

impl BenchBaseline {
    /// End-to-end speedup factors (`before / after`) per pipeline, in
    /// report order, plus the throughput ratio (`after / before`).
    pub fn speedups(&self) -> [(&'static str, f64); 4] {
        [
            ("fig4", self.before.fig4_seconds / self.after.fig4_seconds),
            (
                "table5",
                self.before.table5_seconds / self.after.table5_seconds,
            ),
            (
                "ipdrp",
                self.before.ipdrp_seconds / self.after.ipdrp_seconds,
            ),
            (
                "games_per_second",
                self.after.games_per_second / self.before.games_per_second,
            ),
        ]
    }
}

/// `Some(reason)` when this binary was probably **not** built with
/// `-C target-cpu=native` — the build configuration every committed
/// `BENCH_N.json` baseline assumes (`.cargo/config.toml`). Numbers from
/// a portable build are systematically slower and must never be
/// compared against a native baseline, so `ahn-exp bench` prints this
/// loudly.
///
/// Detection is a compile-time proxy: the portable `x86-64` baseline
/// predates SSE4.2 (2008), while `target-cpu=native` enables it on any
/// host this workspace realistically runs on. Non-x86 targets have no
/// comparably reliable probe and return `None`.
pub fn portable_build_warning() -> Option<String> {
    if cfg!(all(target_arch = "x86_64", not(target_feature = "sse4.2"))) {
        Some(
            "this binary was built without -C target-cpu=native (no SSE4.2): \
             numbers are NOT comparable to committed BENCH_N baselines — build \
             from the repository root so .cargo/config.toml applies"
                .into(),
        )
    } else {
        None
    }
}

/// Times `f` [`MEASURE_RUNS`] times and returns the minimum seconds.
fn time_min<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_RUNS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Pins `AHN_THREADS` for the lifetime of the guard and restores the
/// previous state (set or unset) on drop, so a thread-scaling phase
/// can never leak its cap into the rest of the suite.
struct ThreadCap {
    previous: Option<String>,
}

impl ThreadCap {
    fn pin(threads: usize) -> Self {
        let previous = std::env::var("AHN_THREADS").ok();
        std::env::set_var("AHN_THREADS", threads.to_string());
        ThreadCap { previous }
    }
}

impl Drop for ThreadCap {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(value) => std::env::set_var("AHN_THREADS", value),
            None => std::env::remove_var("AHN_THREADS"),
        }
    }
}

/// Aggregate games per second of `t` concurrent paper-scale tournaments
/// under `AHN_THREADS=t` (one tournament per worker thread — the rayon
/// shim re-reads the cap per call, so the pin takes effect
/// immediately). Each worker owns its arena; nothing is shared, so
/// this measures pure kernel scaling, not lock contention.
fn measure_games_at(t: usize) -> f64 {
    use rayon::prelude::*;
    let _cap = ThreadCap::pin(t);
    let nodes = bench_arena(0).1.len();
    let games = (t * nodes * THROUGHPUT_ROUNDS) as f64;
    let seconds = time_min(|| {
        let runs: Vec<()> = (0..t)
            .into_par_iter()
            .map(|i| {
                let (mut arena, participants) = bench_arena(10 + i as u64);
                let mut rng = bench_rng(20 + i as u64);
                let tournament = Tournament::new(THROUGHPUT_ROUNDS);
                arena.begin_generation();
                tournament.run(&mut arena, &mut rng, &participants, 0);
                std::hint::black_box(arena);
            })
            .collect();
        std::hint::black_box(runs);
    });
    games / seconds
}

/// Thread-scaling rows: `games_per_second_t{1,4,8}` for each requested
/// count the host can genuinely run (a count above the core budget
/// would silently serialize and mismeasure), plus the sweep engine's
/// parallel efficiency. `threads` comes from `ahn-exp bench
/// --threads`.
fn measure_thread_scaling(
    threads: &[usize],
    grid: &ahn_core::sweeps::SweepGrid,
) -> (Option<f64>, Option<f64>, Option<f64>, Option<f64>) {
    let host = ahn_core::threads::host_cores();
    let row = |t: usize| {
        if threads.contains(&t) && t <= host {
            Some(measure_games_at(t))
        } else {
            None
        }
    };
    let t1 = row(1);
    let t4 = row(4);
    let t8 = row(8);
    (t1, t4, t8, measure_sweep_scaling(grid))
}

/// `(cells/s at t) / (t × cells/s at t=1)` over the bench sweep grid,
/// where `t = min(host cores, 8)`. `None` on single-core hosts — there
/// is no scaling to measure.
fn measure_sweep_scaling(grid: &ahn_core::sweeps::SweepGrid) -> Option<f64> {
    let host = ahn_core::threads::host_cores();
    let t = host.min(8);
    if t < 2 {
        return None;
    }
    let cells = grid.cell_count() as f64;
    let rate_at = |t: usize| {
        let _cap = ThreadCap::pin(t);
        let seconds = time_min(|| {
            std::hint::black_box(ahn_core::sweeps::run_sweep(grid).expect("bench grid is valid"));
        });
        cells / seconds
    };
    let single = rate_at(1);
    let multi = rate_at(t);
    Some(multi / (t as f64 * single))
}

/// Runs the full measurement suite. `threads` selects which
/// `games_per_second_t{1,4,8}` rows to measure (subset of {1, 4, 8};
/// counts above the host's core budget are skipped and reported as
/// `None`).
pub fn run_bench(threads: &[usize]) -> BenchReport {
    let cfg = bench_config();

    // Figure 4: cooperation evolution, CSN-free and CSN-heavy.
    let fig4_cases = [bench_case(&[0]), bench_case(&[6])];
    let fig4_seconds = time_min(|| {
        for case in &fig4_cases {
            for seed in 0..SEEDS_PER_PIPELINE {
                std::hint::black_box(run_replication(&cfg, case, seed));
            }
        }
    });

    // Table 5: per-environment cooperation over three environments.
    let table5_case = bench_case(&[0, 3, 6]);
    let table5_seconds = time_min(|| {
        for seed in 0..SEEDS_PER_PIPELINE {
            std::hint::black_box(run_replication(&cfg, &table5_case, seed));
        }
    });

    // IPDRP baseline (X3).
    let ipdrp_config = ahn_ipdrp::IpdrpConfig {
        population: 40,
        rounds: 30,
        generations: 8,
        ..ahn_ipdrp::IpdrpConfig::default()
    };
    let ipdrp_seconds = time_min(|| {
        for seed in 0..SEEDS_PER_PIPELINE {
            let mut rng = bench_rng(seed + 1);
            std::hint::black_box(ahn_ipdrp::run_ipdrp(&mut rng, &ipdrp_config));
        }
    });

    // Raw throughput: one paper-scale tournament (50 nodes × 300
    // rounds = 15 000 games per run).
    let (mut arena, participants) = bench_arena(1);
    let mut rng = bench_rng(2);
    let tournament = Tournament::new(THROUGHPUT_ROUNDS);
    let games = (participants.len() * THROUGHPUT_ROUNDS) as f64;
    let tournament_seconds = time_min(|| {
        arena.begin_generation();
        tournament.run(&mut arena, &mut rng, &participants, 0);
    });

    // Big-network throughput: a 1 000-node tournament on the sparse
    // reputation substrate. The first run grows each observer's row to
    // its high-water mark; taking the minimum reports the steady state.
    let (mut bignet_arena, bignet_participants) = bench_bignet_arena(3);
    let mut bignet_rng = bench_rng(4);
    let bignet_tournament = Tournament::new(BIGNET_ROUNDS);
    let bignet_games = (bignet_participants.len() * BIGNET_ROUNDS) as f64;
    let bignet_seconds = time_min(|| {
        bignet_arena.begin_generation();
        bignet_tournament.run(&mut bignet_arena, &mut bignet_rng, &bignet_participants, 0);
    });

    // Scenario-sweep engine: a full 16-cell grid per run.
    let grid = bench_sweep_grid();
    let sweep_seconds = time_min(|| {
        std::hint::black_box(ahn_core::sweeps::run_sweep(&grid).expect("bench grid is valid"));
    });

    // Reconstruction search: an 8-cell calibration per run (candidate
    // enumeration included — it is part of every real search).
    let calibration = crate::bench_calibration_grid();
    let calibrate_seconds = time_min(|| {
        std::hint::black_box(
            ahn_core::run_calibration(&calibration).expect("bench calibration grid is valid"),
        );
    });

    // Serving throughput: an in-process ahn_serve server driven by the
    // loadtest client, cache-miss and cache-hit phases (best of
    // MEASURE_RUNS fresh servers — a fresh server per run so every miss
    // phase really misses).
    let (serve_miss_rps, serve_hit_rps) = measure_serve();

    // Distributed sweep: the same grid pulled cell by cell by external
    // workers and merged back by the coordinator.
    let distributed_cells_per_second = measure_distributed(&grid);

    // Thread scaling: concurrent tournaments under a pinned
    // AHN_THREADS, plus the sweep engine's parallel efficiency. Last,
    // so the pinned phases cannot perturb the ambient measurements
    // above.
    let (games_per_second_t1, games_per_second_t4, games_per_second_t8, sweep_scaling_efficiency) =
        measure_thread_scaling(threads, &grid);

    BenchReport {
        schema: "ahn-bench/2".into(),
        scale: format!(
            "pipelines: 10-node tournaments, {} rounds, {} generations, {} seeds; \
             throughput: 50-node tournament, {} rounds; bignet: 1000-node tournament, \
             {} rounds; sweep: {}-cell grid; calibrate: {}-cell search; serve: \
             {} distinct + {} hit requests; distributed: sweep grid via pull \
             workers, best of 1/2/4; scaling: concurrent tournaments at t in {:?}; \
             min of {} runs",
            cfg.rounds,
            cfg.generations,
            SEEDS_PER_PIPELINE,
            THROUGHPUT_ROUNDS,
            BIGNET_ROUNDS,
            grid.cell_count(),
            calibration.cell_count(),
            SERVE_DISTINCT,
            SERVE_HIT_REQUESTS,
            threads,
            MEASURE_RUNS
        ),
        fig4_seconds,
        table5_seconds,
        ipdrp_seconds,
        games_per_second: games / tournament_seconds,
        serve_miss_rps,
        serve_hit_rps,
        bignet_games_per_second: Some(bignet_games / bignet_seconds),
        sweep_cells_per_second: Some(grid.cell_count() as f64 / sweep_seconds),
        calibrate_cells_per_second: Some(calibration.cell_count() as f64 / calibrate_seconds),
        distributed_cells_per_second,
        host_cores: Some(ahn_core::threads::host_cores() as u64),
        ahn_threads: Some(ahn_core::threads::effective() as u64),
        target_cpu_native: Some(portable_build_warning().is_none()),
        games_per_second_t1,
        games_per_second_t4,
        games_per_second_t8,
        sweep_scaling_efficiency,
    }
}

/// Measures distributed-sweep throughput over `grid`: a fresh pull-only
/// server per timed run (so every cell is a real job, never a cache
/// hit), 1 / 2 / 4 pull-worker threads, best count wins. `None` when
/// the loopback server cannot run.
fn measure_distributed(grid: &ahn_core::sweeps::SweepGrid) -> Option<f64> {
    let cells = grid.cell_count() as f64;
    let mut best: Option<f64> = None;
    for worker_count in [1usize, 2, 4] {
        let mut best_seconds = f64::INFINITY;
        for _ in 0..MEASURE_RUNS {
            let Ok(handle) = ahn_serve::spawn(ahn_serve::ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 0,
                cache_cap: 2 * grid.cell_count(),
                queue_cap: 2 * grid.cell_count(),
                journal: None,
                ..ahn_serve::ServerConfig::default()
            }) else {
                return best;
            };
            let addr = handle.addr().to_string();
            let workers: Vec<_> = (0..worker_count)
                .map(|_| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut transport = ahn_serve::HttpTransport::new(&addr);
                        let config = ahn_serve::WorkerConfig {
                            lease_ms: 60_000,
                            poll_ms: 1,
                            max_cells: 0,
                            idle_exit_polls: 50,
                            max_consecutive_errors: 3,
                            ..ahn_serve::WorkerConfig::default()
                        };
                        let _ = ahn_serve::run_worker_observed(&mut transport, &config, None);
                    })
                })
                .collect();

            let start = Instant::now();
            let mut transport = ahn_serve::HttpTransport::new(&addr);
            let outcome = ahn_serve::run_sweep_via(&mut transport, grid, None, 1);
            let seconds = start.elapsed().as_secs_f64();
            for worker in workers {
                let _ = worker.join();
            }
            handle.shutdown();
            if outcome.is_ok() {
                best_seconds = best_seconds.min(seconds);
            }
        }
        if best_seconds.is_finite() {
            let rate = cells / best_seconds;
            best = Some(best.map_or(rate, |b| b.max(rate)));
        }
    }
    best
}

/// Measures serving throughput (see the `serve_*_rps` field docs);
/// `(None, None)` when the loopback server cannot run at all.
fn measure_serve() -> (Option<f64>, Option<f64>) {
    let mut best_miss: Option<f64> = None;
    let mut best_hit: Option<f64> = None;
    for _ in 0..MEASURE_RUNS {
        let Ok(handle) = ahn_serve::spawn(ahn_serve::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_cap: 2 * SERVE_DISTINCT,
            queue_cap: 2 * SERVE_DISTINCT,
            journal: None,
            ..ahn_serve::ServerConfig::default()
        }) else {
            return (None, None);
        };
        let addr = handle.addr().to_string();

        // Miss phase: one connection, every spec distinct, each job
        // polled to completion.
        let miss = ahn_serve::run_loadtest(&ahn_serve::LoadtestConfig {
            addr: addr.clone(),
            connections: 1,
            requests: SERVE_DISTINCT,
            distinct: SERVE_DISTINCT,
        });
        // Hit phase: same specs, now all cached, under 4 connections.
        let hit = ahn_serve::run_loadtest(&ahn_serve::LoadtestConfig {
            addr,
            connections: 4,
            requests: SERVE_HIT_REQUESTS,
            distinct: SERVE_DISTINCT,
        });
        handle.shutdown();

        if let Ok(report) = miss {
            if report.errors == 0 {
                best_miss = Some(best_miss.unwrap_or(0.0).max(report.requests_per_second));
            }
        }
        if let Ok(report) = hit {
            if report.errors == 0 && report.cache_hits == report.requests {
                best_hit = Some(best_hit.unwrap_or(0.0).max(report.requests_per_second));
            }
        }
    }
    (best_miss, best_hit)
}

/// Renders a report as an aligned human-readable table.
pub fn render(report: &BenchReport) -> String {
    let mut out = format!(
        "ahn bench ({})\n\
         pipeline            seconds\n\
         fig4             {:>10.4}\n\
         table5           {:>10.4}\n\
         ipdrp            {:>10.4}\n\
         throughput       {:>10.0} games/s\n",
        report.scale,
        report.fig4_seconds,
        report.table5_seconds,
        report.ipdrp_seconds,
        report.games_per_second,
    );
    if let Some(gps) = report.bignet_games_per_second {
        out.push_str(&format!("bignet (1000n)   {gps:>10.0} games/s\n"));
    }
    if let Some(cps) = report.sweep_cells_per_second {
        out.push_str(&format!("sweep            {cps:>10.2} cells/s\n"));
    }
    if let Some(cps) = report.calibrate_cells_per_second {
        out.push_str(&format!("calibrate        {cps:>10.2} cells/s\n"));
    }
    if let Some(cps) = report.distributed_cells_per_second {
        out.push_str(&format!("distributed      {cps:>10.2} cells/s\n"));
    }
    if let Some(rps) = report.serve_miss_rps {
        out.push_str(&format!("serve (miss)     {rps:>10.0} req/s\n"));
    }
    if let Some(rps) = report.serve_hit_rps {
        out.push_str(&format!("serve (hit)      {rps:>10.0} req/s\n"));
    }
    for (name, row) in [
        ("throughput @t=1", report.games_per_second_t1),
        ("throughput @t=4", report.games_per_second_t4),
        ("throughput @t=8", report.games_per_second_t8),
    ] {
        if let Some(gps) = row {
            out.push_str(&format!("{name}  {gps:>10.0} games/s\n"));
        }
    }
    if let Some(eff) = report.sweep_scaling_efficiency {
        out.push_str(&format!("sweep scaling    {eff:>10.2} efficiency\n"));
    }
    if let (Some(cores), Some(t)) = (report.host_cores, report.ahn_threads) {
        let build = match report.target_cpu_native {
            Some(true) => "native",
            Some(false) => "portable",
            None => "unknown",
        };
        out.push_str(&format!(
            "env: {t} worker thread(s) on {cores} core(s), {build} build\n"
        ));
    }
    out
}

/// Compares a fresh report against a committed baseline's `after` side.
///
/// Returns `Err` with a description when any pipeline is more than
/// `factor`× slower, or throughput more than `factor`× lower, than the
/// baseline — the CI regression gate.
pub fn check_regression(
    current: &BenchReport,
    baseline: &BenchBaseline,
    factor: f64,
) -> Result<(), String> {
    assert!(factor >= 1.0, "regression factor must be >= 1");
    let mut failures = Vec::new();
    let pipelines = [
        ("fig4", current.fig4_seconds, baseline.after.fig4_seconds),
        (
            "table5",
            current.table5_seconds,
            baseline.after.table5_seconds,
        ),
        ("ipdrp", current.ipdrp_seconds, baseline.after.ipdrp_seconds),
    ];
    for (name, now, base) in pipelines {
        if now > base * factor {
            failures.push(format!(
                "{name}: {now:.4}s is more than {factor}x the baseline {base:.4}s"
            ));
        }
    }
    if current.games_per_second * factor < baseline.after.games_per_second {
        failures.push(format!(
            "throughput: {:.0} games/s is less than 1/{factor} of the baseline {:.0}",
            current.games_per_second, baseline.after.games_per_second
        ));
    }
    // Optional rows gate only once a baseline has recorded them
    // (older baselines carry `None`): the serve rates since BENCH_3,
    // the bignet/sweep throughputs since BENCH_4.
    let rates = [
        (
            "serve miss",
            "req/s",
            current.serve_miss_rps,
            baseline.after.serve_miss_rps,
        ),
        (
            "serve hit",
            "req/s",
            current.serve_hit_rps,
            baseline.after.serve_hit_rps,
        ),
        (
            "bignet throughput",
            "games/s",
            current.bignet_games_per_second,
            baseline.after.bignet_games_per_second,
        ),
        (
            "sweep throughput",
            "cells/s",
            current.sweep_cells_per_second,
            baseline.after.sweep_cells_per_second,
        ),
        (
            "calibrate throughput",
            "cells/s",
            current.calibrate_cells_per_second,
            baseline.after.calibrate_cells_per_second,
        ),
        (
            "distributed throughput",
            "cells/s",
            current.distributed_cells_per_second,
            baseline.after.distributed_cells_per_second,
        ),
    ];
    for (name, unit, now, base) in rates {
        let Some(base) = base else { continue };
        match now {
            None => failures.push(format!(
                "{name}: the baseline records {base:.0} {unit} but the current report \
                 has no measurement"
            )),
            Some(now) if now * factor < base => failures.push(format!(
                "{name}: {now:.0} {unit} is less than 1/{factor} of the baseline {base:.0}"
            )),
            Some(_) => {}
        }
    }
    // Thread-scaling rows gate like the rates above, but only when the
    // *current* host could have produced them: a baseline measured on
    // an 8-core box must not fail CI on a 4-core (or 1-core) runner
    // where the t8 row is legitimately absent. The efficiency row
    // needs at least 2 cores for the same reason.
    let host = current.host_cores.unwrap_or(0);
    let scaling = [
        (
            1u64,
            "t1 throughput",
            current.games_per_second_t1,
            baseline.after.games_per_second_t1,
        ),
        (
            4,
            "t4 throughput",
            current.games_per_second_t4,
            baseline.after.games_per_second_t4,
        ),
        (
            8,
            "t8 throughput",
            current.games_per_second_t8,
            baseline.after.games_per_second_t8,
        ),
        (
            2,
            "sweep scaling efficiency",
            current.sweep_scaling_efficiency,
            baseline.after.sweep_scaling_efficiency,
        ),
    ];
    for (needs_cores, name, now, base) in scaling {
        let Some(base) = base else { continue };
        if host < needs_cores {
            continue;
        }
        match now {
            None => failures.push(format!(
                "{name}: the baseline records {base:.2} but the current report has \
                 no measurement despite {host} host cores"
            )),
            Some(now) if now * factor < base => failures.push(format!(
                "{name}: {now:.2} is less than 1/{factor} of the baseline {base:.2}"
            )),
            Some(_) => {}
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(factor: f64) -> BenchReport {
        BenchReport {
            schema: "ahn-bench/2".into(),
            scale: "test".into(),
            fig4_seconds: 1.0 * factor,
            table5_seconds: 2.0 * factor,
            ipdrp_seconds: 0.5 * factor,
            games_per_second: 1e6 / factor,
            serve_miss_rps: Some(1e3 / factor),
            serve_hit_rps: Some(1e4 / factor),
            bignet_games_per_second: Some(1e5 / factor),
            sweep_cells_per_second: Some(1e2 / factor),
            calibrate_cells_per_second: Some(1e2 / factor),
            distributed_cells_per_second: Some(1e2 / factor),
            host_cores: Some(8),
            ahn_threads: Some(8),
            target_cpu_native: Some(true),
            games_per_second_t1: Some(1e6 / factor),
            games_per_second_t4: Some(3.5e6 / factor),
            games_per_second_t8: Some(6e6 / factor),
            sweep_scaling_efficiency: Some(0.9 / factor),
        }
    }

    fn baseline() -> BenchBaseline {
        BenchBaseline {
            schema: "ahn-bench-baseline/1".into(),
            note: "test".into(),
            before: report(2.0),
            after: report(1.0),
        }
    }

    #[test]
    fn equal_report_passes_the_gate() {
        check_regression(&report(1.0), &baseline(), 2.0).unwrap();
    }

    #[test]
    fn slightly_slower_passes_within_factor() {
        check_regression(&report(1.8), &baseline(), 2.0).unwrap();
    }

    #[test]
    fn gross_regression_fails_the_gate() {
        let err = check_regression(&report(2.5), &baseline(), 2.0).unwrap_err();
        assert!(err.contains("fig4"), "{err}");
        assert!(err.contains("throughput"), "{err}");
    }

    #[test]
    fn speedups_divide_the_right_way() {
        let s = baseline().speedups();
        for (name, factor) in s {
            assert!((factor - 2.0).abs() < 1e-12, "{name}: {factor}");
        }
    }

    #[test]
    fn pre_serve_baselines_do_not_gate_serving() {
        // A BENCH_2-era baseline (no serve numbers) accepts any current
        // serve measurement, present or absent.
        let mut old = baseline();
        old.after.serve_miss_rps = None;
        old.after.serve_hit_rps = None;
        check_regression(&report(1.0), &old, 2.0).unwrap();
        let mut absent = report(1.0);
        absent.serve_miss_rps = None;
        absent.serve_hit_rps = None;
        check_regression(&absent, &old, 2.0).unwrap();
        // But once the baseline records serving throughput, a report
        // without it fails loudly instead of passing silently.
        let err = check_regression(&absent, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("no measurement"), "{err}");
    }

    #[test]
    fn serve_regression_fails_the_gate() {
        let mut slow = report(1.0);
        slow.serve_hit_rps = Some(1e4 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("serve hit"), "{err}");
        assert!(!err.contains("serve miss"), "{err}");
    }

    #[test]
    fn pre_serve_report_json_still_parses() {
        // The committed BENCH_2.json predates the serve fields; its
        // reports must keep deserializing (as None).
        let json = "{\"schema\":\"ahn-bench/1\",\"scale\":\"s\",\"fig4_seconds\":1.0,\
                    \"table5_seconds\":2.0,\"ipdrp_seconds\":0.5,\"games_per_second\":1e6}";
        let report: BenchReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.serve_miss_rps, None);
        assert_eq!(report.serve_hit_rps, None);
        assert_eq!(report.bignet_games_per_second, None);
        assert_eq!(report.sweep_cells_per_second, None);
        assert_eq!(report.calibrate_cells_per_second, None);
        assert_eq!(report.distributed_cells_per_second, None);
    }

    #[test]
    fn ahn_bench_1_report_json_still_parses() {
        // A BENCH_6-era report: every ahn-bench/1 field present, none
        // of the ahn-bench/2 environment or thread-scaling rows. Must
        // keep deserializing with the new fields None.
        let json = "{\"schema\":\"ahn-bench/1\",\"scale\":\"s\",\"fig4_seconds\":1.0,\
                    \"table5_seconds\":2.0,\"ipdrp_seconds\":0.5,\"games_per_second\":1e6,\
                    \"serve_miss_rps\":700.0,\"serve_hit_rps\":18000.0,\
                    \"bignet_games_per_second\":7e5,\"sweep_cells_per_second\":1100.0,\
                    \"calibrate_cells_per_second\":1200.0,\
                    \"distributed_cells_per_second\":470.0}";
        let report: BenchReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.bignet_games_per_second, Some(7e5));
        assert_eq!(report.host_cores, None);
        assert_eq!(report.ahn_threads, None);
        assert_eq!(report.target_cpu_native, None);
        assert_eq!(report.games_per_second_t1, None);
        assert_eq!(report.games_per_second_t4, None);
        assert_eq!(report.games_per_second_t8, None);
        assert_eq!(report.sweep_scaling_efficiency, None);
    }

    #[test]
    fn thread_rows_gate_only_on_capable_hosts() {
        // A 1-core runner: every scaling row may be absent even though
        // the baseline records all of them.
        let mut small_host = report(1.0);
        small_host.host_cores = Some(1);
        small_host.games_per_second_t4 = None;
        small_host.games_per_second_t8 = None;
        small_host.sweep_scaling_efficiency = None;
        check_regression(&small_host, &baseline(), 2.0).unwrap();
        // A 4-core runner must produce t1 and t4 (and efficiency) but
        // may skip t8.
        let mut four_core = small_host.clone();
        four_core.host_cores = Some(4);
        let err = check_regression(&four_core, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("t4 throughput"), "{err}");
        assert!(err.contains("sweep scaling"), "{err}");
        assert!(!err.contains("t8 throughput"), "{err}");
        // And on a capable host a slow row fails like any other rate.
        let mut slow = report(1.0);
        slow.games_per_second_t4 = Some(3.5e6 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("t4 throughput"), "{err}");
        assert!(!err.contains("t1 throughput"), "{err}");
    }

    #[test]
    fn pre_v2_baselines_do_not_gate_thread_rows() {
        // BENCH_2..6 baselines carry no scaling rows; a fresh report
        // is never compared against them.
        let mut old = baseline();
        old.after.host_cores = None;
        old.after.ahn_threads = None;
        old.after.target_cpu_native = None;
        old.after.games_per_second_t1 = None;
        old.after.games_per_second_t4 = None;
        old.after.games_per_second_t8 = None;
        old.after.sweep_scaling_efficiency = None;
        let mut absent = report(1.0);
        absent.games_per_second_t1 = None;
        absent.games_per_second_t4 = None;
        absent.games_per_second_t8 = None;
        absent.sweep_scaling_efficiency = None;
        check_regression(&absent, &old, 2.0).unwrap();
    }

    #[test]
    fn render_includes_scaling_and_env_rows() {
        let text = render(&report(1.0));
        assert!(text.contains("throughput @t=1"), "{text}");
        assert!(text.contains("throughput @t=8"), "{text}");
        assert!(text.contains("sweep scaling"), "{text}");
        assert!(text.contains("8 worker thread(s) on 8 core(s)"), "{text}");
        assert!(text.contains("native build"), "{text}");
        // Rows the host could not measure are omitted, not rendered as
        // zeros.
        let mut sparse = report(1.0);
        sparse.games_per_second_t4 = None;
        sparse.games_per_second_t8 = None;
        sparse.sweep_scaling_efficiency = None;
        let text = render(&sparse);
        assert!(text.contains("throughput @t=1"), "{text}");
        assert!(!text.contains("throughput @t=4"), "{text}");
        assert!(!text.contains("sweep scaling"), "{text}");
    }

    #[test]
    fn bignet_and_sweep_rows_gate_like_serve_rows() {
        // Pre-BENCH-4 baselines (rows absent) never gate them...
        let mut old = baseline();
        old.after.bignet_games_per_second = None;
        old.after.sweep_cells_per_second = None;
        old.after.calibrate_cells_per_second = None;
        check_regression(&report(1.0), &old, 2.0).unwrap();
        // ...but once recorded, a slow or missing row fails loudly.
        let mut slow = report(1.0);
        slow.bignet_games_per_second = Some(1e5 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("bignet throughput"), "{err}");
        let mut absent = report(1.0);
        absent.sweep_cells_per_second = None;
        let err = check_regression(&absent, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("sweep throughput"), "{err}");
        assert!(err.contains("no measurement"), "{err}");
        // The calibrate row follows the same protocol.
        let mut slow = report(1.0);
        slow.calibrate_cells_per_second = Some(1e2 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("calibrate throughput"), "{err}");
        // So does the distributed row.
        let mut slow = report(1.0);
        slow.distributed_cells_per_second = Some(1e2 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("distributed throughput"), "{err}");
    }

    #[test]
    fn rate_failures_name_each_rows_unit() {
        let mut slow = report(1.0);
        slow.sweep_cells_per_second = Some(1e2 / 3.0);
        slow.bignet_games_per_second = Some(1e5 / 3.0);
        let err = check_regression(&slow, &baseline(), 2.0).unwrap_err();
        assert!(err.contains("sweep throughput: 33 cells/s"), "{err}");
        assert!(err.contains("bignet throughput: 33333 games/s"), "{err}");
        assert!(!err.contains("req/s"), "{err}");
    }

    #[test]
    fn portable_build_warning_matches_compile_features() {
        // This workspace builds with target-cpu=native
        // (.cargo/config.toml), so on x86_64 the warning must be silent;
        // the cfg! mirror keeps the test meaningful on any target.
        let expect_warning = cfg!(all(target_arch = "x86_64", not(target_feature = "sse4.2")));
        assert_eq!(portable_build_warning().is_some(), expect_warning);
    }

    #[test]
    fn baseline_serde_roundtrip() {
        let b = baseline();
        let json = serde_json::to_string(&b).unwrap();
        let back: BenchBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
