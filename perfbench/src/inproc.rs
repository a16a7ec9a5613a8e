//! The in-process workloads.
//!
//! * `paper-sweep` — [`ahn_core::run_sweep`] over paper cases 1–4 at the
//!   paper's tournament shape (50 participants, R = 300) with a short
//!   evolution budget and two seed blocks: the batched round kernel and
//!   the `core` fan-out.
//! * `zoo-atlas` — [`ahn_core::run_atlas`] over the committed smoke
//!   grid: the scalar game path (6 of 9 rows), gossip (2 of 3 columns)
//!   and serial cells that each fan 3 replications out.
//!
//! Untraced, a run repeats the workload's public entry point for the run's
//! seconds. Traced, it then replays every cell one at a time through the
//! same public functions — resolve, `run_replication_with` per seed
//! under a [`PhaseRecorder`], `aggregate` — and checks that the folded
//! cells equal the untraced report.

use crate::measure::{self, median, ratio, Sample};
use crate::trace::{self, PhaseRecorder, Trace};
use crate::{Args, Outcome};
use ahn_core::atlas::{resolve_defense, DEFENSES};
use ahn_core::cases::CaseSpec;
use ahn_core::config::{AttackerBehavior, ExperimentConfig};
use ahn_core::{
    canonical_hash, cell_from_result, resolve_scenario, run_replication_with, AtlasGrid,
    AtlasReport, ExperimentResult, PathMode, SweepCellSpec, SweepGrid, SweepReport,
};
use std::time::Instant;

/// paper-sweep grid: paper cases 1–4 at 50 participants, 5 generations
/// of 2 replications per cell, 2 seed blocks (8 cells).
const PAPER_CASES: [usize; 4] = [1, 2, 3, 4];
const PAPER_GENERATIONS: usize = 5;
const PAPER_REPLICATIONS: usize = 2;
const PAPER_SEED_BLOCKS: u64 = 2;

/// `canonical_hash` (FNV-1a of the compact JSON) of the paper-sweep
/// report at seed 0: the report `ahn-exp sweep --preset scaled --gens 5
/// --reps 2 --sizes 50 --seed-blocks 2 --cases 1,2,3,4 --json` prints.
const PAPER_SWEEP_DIGEST: u64 = 0x260b_4173_50c6_3f24;

/// The committed atlas: the zoo-atlas report at seed 0 must reproduce
/// it byte for byte (as `ahn-exp atlas --json` writes it).
const COMMITTED_ATLAS: &str = include_str!("../../atlas.json");

/// Set-up samples before the first pass and after every pass;
/// `setup_s` is the median of all of them. A build takes microseconds,
/// so each sample averages a batch of builds.
const SETUP_SAMPLES: usize = 11;
const SETUP_BATCH: usize = 50;

/// Fewest timed passes per run, so `warm_cells_per_s` has a median of
/// at least two.
const MIN_PASSES: usize = 3;

/// A workload's grid, built from the run's seed. Seed 0 is the
/// committed configuration; seed `n` shifts every base seed by seed
/// blocks ([`crate::seed_base`]).
enum Grid {
    Sweep(SweepGrid),
    Atlas(AtlasGrid),
}

/// One resolved cell: the pure inputs of its replications.
struct Cell {
    config: ExperimentConfig,
    case: CaseSpec,
    spec: Option<SweepCellSpec>,
}

enum Report {
    Sweep(SweepReport),
    Atlas(AtlasReport),
}

impl Grid {
    fn build(workload: &str, seed: u64) -> Result<Grid, String> {
        let grid = match workload {
            "paper-sweep" => {
                let mut base = ExperimentConfig::scaled();
                base.generations = PAPER_GENERATIONS;
                base.replications = PAPER_REPLICATIONS;
                base.base_seed = crate::seed_base(base.base_seed, seed);
                let grid = SweepGrid::new(base, &PAPER_CASES, &[50], PAPER_SEED_BLOCKS);
                grid.validate()?;
                Grid::Sweep(grid)
            }
            "zoo-atlas" => {
                let mut grid = AtlasGrid::smoke();
                grid.base.base_seed = crate::seed_base(grid.base.base_seed, seed);
                grid.validate()?;
                Grid::Atlas(grid)
            }
            other => return Err(format!("{other:?} is not an in-process workload")),
        };
        Ok(grid)
    }

    fn cell_count(&self) -> usize {
        match self {
            Grid::Sweep(g) => g.cell_count(),
            Grid::Atlas(g) => g.scenarios.len() * DEFENSES.len(),
        }
    }

    /// Resolves every cell in report order.
    fn cells(&self) -> Result<Vec<Cell>, String> {
        match self {
            Grid::Sweep(g) => g
                .cell_specs()
                .into_iter()
                .map(|spec| {
                    let (config, case) = g.resolve(&spec)?;
                    Ok(Cell {
                        config,
                        case,
                        spec: Some(spec),
                    })
                })
                .collect(),
            Grid::Atlas(g) => {
                // The atlas's base environment (`AtlasGrid::case`).
                let case = CaseSpec::mini("atlas", &[0], g.size, PathMode::Shorter);
                let mut out = Vec::with_capacity(self.cell_count());
                for name in &g.scenarios {
                    let scenario = resolve_scenario(name)?;
                    for defense in DEFENSES {
                        let mut config = g.base.clone();
                        config.gossip = resolve_defense(defense)?;
                        let (config, case) = scenario.apply(&config, &case)?;
                        out.push(Cell {
                            config,
                            case,
                            spec: None,
                        });
                    }
                }
                Ok(out)
            }
        }
    }

    /// One pass of the workload's public entry point.
    fn run(&self) -> Result<Report, String> {
        match self {
            Grid::Sweep(g) => ahn_core::run_sweep(g).map(Report::Sweep),
            Grid::Atlas(g) => ahn_core::run_atlas(g).map(Report::Atlas),
        }
    }
}

impl Report {
    /// The bytes the CLI's `--json` writes for this report.
    fn bytes(&self) -> String {
        let json = match self {
            Report::Sweep(r) => serde_json::to_string(r),
            Report::Atlas(r) => serde_json::to_string(r),
        };
        json.expect("reports serialize") + "\n"
    }

    /// Each cell's result as JSON, in report order: the unit a replayed
    /// cell is compared on.
    fn cell_results(&self) -> Vec<String> {
        match self {
            Report::Sweep(r) => r.cells.iter().map(json).collect(),
            Report::Atlas(r) => r
                .rows
                .iter()
                .flat_map(|row| row.cells.iter().map(|c| json(&c.cooperation)))
                .collect(),
        }
    }
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("report parts serialize")
}

/// The same fold of a replayed cell.
fn fold(cell: &Cell, result: &ExperimentResult) -> String {
    match &cell.spec {
        Some(spec) => json(&cell_from_result(
            spec.clone(),
            &cell.config,
            &cell.case,
            result,
        )),
        None => json(&result.final_coop),
    }
}

/// The defense column a cell's gossip posture belongs to.
fn defense_of(config: &ExperimentConfig) -> &'static str {
    DEFENSES
        .into_iter()
        .find(|d| resolve_defense(d).ok() == Some(config.gossip))
        .unwrap_or("other")
}

/// Whether the cell's tournaments leave the batched round kernel: a
/// node kind the kernel cannot play, or sleepers.
fn takes_scalar_path(config: &ExperimentConfig) -> bool {
    !config.sleepers.is_empty()
        || config
            .attackers
            .iter()
            .flatten()
            .any(|g| !g.behavior.node_kind().is_batchable())
}

/// Tournament games the cell schedules: per generation and environment,
/// `ceil(population × plays / normal)` tournaments of `rounds` rounds,
/// each participant sourcing one game a round and every flooder `extra`
/// more. A sleeper round with fewer than three awake players skips its
/// games, so on sleeper cells this is an upper bound.
fn games_scheduled(config: &ExperimentConfig, case: &CaseSpec) -> u64 {
    let flooder_extra: u64 = config
        .attackers
        .iter()
        .flatten()
        .map(|g| match g.behavior {
            AttackerBehavior::Flooder { extra } => g.count as u64 * u64::from(extra),
            _ => 0,
        })
        .sum();
    let per_generation: u64 = case
        .envs
        .iter()
        .map(|env| {
            let plays = (config.population * config.plays_per_env) as u64;
            let tournaments = plays.div_ceil(env.normal() as u64);
            tournaments * config.rounds as u64 * (env.size as u64 + flooder_extra)
        })
        .sum();
    per_generation * (config.generations * config.replications) as u64
}

/// Offspring bred per cell: every generation but the last breeds a full
/// population.
fn offspring(config: &ExperimentConfig) -> u64 {
    (config.replications * config.generations.saturating_sub(1) * config.population) as u64
}

/// Replays every cell one at a time under spans; returns each folded
/// cell in report order.
fn replay(cells: &[Cell], trace: &mut Trace) -> Vec<String> {
    let mut folded = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let root = trace.open("core.cell", None, i);
        let mut results = Vec::with_capacity(cell.config.replications);
        for k in 0..cell.config.replications as u64 {
            let rep = trace.open("core.replication", Some(root), i);
            let seed = cell.config.base_seed.wrapping_add(k);
            let mut recorder = PhaseRecorder::new(trace, rep, i);
            results.push(run_replication_with(
                &cell.config,
                &cell.case,
                seed,
                &mut recorder,
            ));
            trace.close(rep);
        }
        let agg = trace.open("core.aggregate", Some(root), i);
        let aggregated = ahn_core::experiment::aggregate(&cell.config, &cell.case, &results);
        folded.push(fold(cell, &aggregated));
        trace.close(agg);
        trace.close(root);
    }
    folded
}

/// Takes [`SETUP_SAMPLES`] set-up samples, each the mean wall time of
/// [`SETUP_BATCH`] grid builds, appending them to `setups`.
fn set_up(args: &Args, setups: &mut Vec<f64>) -> Result<Grid, String> {
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        let (grid, sample) = measure::timed(|| {
            (1..SETUP_BATCH)
                .for_each(|_| drop(std::hint::black_box(Grid::build(&args.workload, args.seed))));
            Grid::build(&args.workload, args.seed)
        });
        setups.push(sample.wall_s / SETUP_BATCH as f64);
        built = Some(grid);
    }
    built.expect("SETUP_SAMPLES is positive")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let grid = match set_up(args, &mut setups) {
        Ok(grid) => grid,
        Err(e) => {
            out.mismatch(format!("grid set-up failed: {e}"));
            return out;
        }
    };
    let cells = grid.cell_count() as u64;

    // Timed passes: the same grid again and again; every pass must
    // reproduce the first byte for byte.
    let mut passes: Vec<Sample> = Vec::new();
    let mut first: Option<(String, Report)> = None;
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        if crate::past_deadline() {
            out.mismatch("run deadline passed before the timed passes finished".into());
            break;
        }
        out.attempted += cells;
        let (report, sample) = measure::timed(|| grid.run());
        match report {
            Ok(report) => {
                let bytes = report.bytes();
                match &first {
                    None => first = Some((bytes, report)),
                    Some((expected, _)) if *expected == bytes => {}
                    Some(_) => out.mismatch(format!(
                        "pass {} output differs from the first pass",
                        passes.len() + 1
                    )),
                }
                passes.push(sample);
            }
            Err(e) => {
                out.failed += cells;
                out.mismatch(format!("pass failed: {e}"));
            }
        }
        // More set-up samples between passes, so `setup_s` sees the
        // whole run's conditions rather than its first milliseconds.
        let _ = set_up(args, &mut setups);
    }
    let Some((_, first_report)) = first else {
        return out;
    };

    check_default_seed(args, &first_report, cells, &mut out);

    let per_pass = |f: &dyn Fn(&Sample) -> f64| median(passes.iter().map(f));
    let cpu_per_pass = per_pass(&|s| s.cpu_s);
    if !args.trace {
        out.metric("setup_s", median(setups.iter().copied()), "s");
        out.metric(
            "cells_per_s",
            per_pass(&|s| cells as f64 / s.wall_s),
            "cells/s",
        );
        out.metric(
            "warm_cells_per_s",
            median(passes[1..].iter().map(|s| cells as f64 / s.wall_s)),
            "cells/s",
        );
        out.metric("cpu_s_per_cell", cpu_per_pass / cells as f64, "CPU-s/cell");
        out.metric("peak_rss_mb", measure::peak_rss_mb(), "MiB");
        return out;
    }

    // Traced replay.
    let threads = ahn_core::threads::effective() as f64;
    out.metric(
        "core.cpu_util",
        per_pass(&|s| s.cpu_s / (s.wall_s * threads)),
        "ratio",
    );
    out.metric("core.setup_ms", median(setups.iter().copied()) * 1e3, "ms");
    let resolved = match grid.cells() {
        Ok(resolved) => resolved,
        Err(e) => {
            out.mismatch(format!("cell resolution failed: {e}"));
            return out;
        }
    };
    let mut trace = Trace::new(Instant::now(), "main");
    out.attempted += cells;
    let (folded, replay_sample) = measure::timed(|| replay(&resolved, &mut trace));
    if folded != first_report.cell_results() {
        out.mismatch("the traced replay's folded cells differ from the untraced report".into());
    }
    layer_metrics(
        &resolved,
        &trace.spans,
        cpu_per_pass,
        &replay_sample,
        &mut out,
    );
    out.write_trace(args, &trace.spans);
    out
}

/// Checks the default-seed output: the pinned paper-sweep digest, or
/// the committed `atlas.json`. Runs an extra untimed pass at seed 0
/// unless the run's own seed is 0.
fn check_default_seed(args: &Args, first: &Report, cells: u64, out: &mut Outcome) {
    let rerun;
    let report = if args.seed == 0 {
        first
    } else {
        out.attempted += cells;
        match Grid::build(&args.workload, 0).and_then(|g| g.run()) {
            Ok(report) => {
                rerun = report;
                &rerun
            }
            Err(e) => {
                out.mismatch(format!("default-seed pass failed: {e}"));
                return;
            }
        }
    };
    match report {
        Report::Sweep(sweep) => {
            let digest = canonical_hash(sweep).expect("sweep reports serialize");
            if digest != PAPER_SWEEP_DIGEST {
                out.mismatch(format!(
                    "paper-sweep seed-0 digest {digest:#018x} != pinned {PAPER_SWEEP_DIGEST:#018x}"
                ));
            }
        }
        Report::Atlas(_) => {
            if report.bytes() != COMMITTED_ATLAS {
                out.mismatch(
                    "zoo-atlas seed-0 report differs from the committed atlas.json".into(),
                );
            }
        }
    }
}

/// Per-layer metrics of a traced replay.
fn layer_metrics(
    cells: &[Cell],
    spans: &[trace::Span],
    untraced_cpu_per_pass: f64,
    replay: &Sample,
    out: &mut Outcome,
) {
    let own = trace::self_times(spans);
    let by_name = trace::self_by_name(spans);
    let self_ns = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let mut replication_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.replication")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let replication_ns: f64 = replication_ms.iter().sum::<f64>() * 1e6;
    let n = cells.len() as f64;

    out.metric(
        "core.replication_ms_p50",
        measure::quantile(&mut replication_ms, 0.5),
        "ms",
    );
    out.metric(
        "core.replication_ms_max",
        measure::quantile(&mut replication_ms, 1.0),
        "ms",
    );
    out.metric(
        "core.aggregate_us_per_cell",
        self_ns("core.aggregate") / 1e3 / n,
        "us",
    );
    out.metric(
        "strategy.decode_share",
        ratio(self_ns("strategy.decode"), replication_ns),
        "ratio",
    );
    out.metric(
        "game.play_share",
        ratio(self_ns("game.play"), replication_ns),
        "ratio",
    );
    let games: u64 = cells
        .iter()
        .map(|c| games_scheduled(&c.config, &c.case))
        .sum();
    out.metric(
        "game.ns_per_game",
        ratio(self_ns("game.play"), games as f64),
        "ns",
    );
    out.metric("game.games", games as f64, "count");
    let scalar = cells
        .iter()
        .filter(|c| takes_scalar_path(&c.config))
        .count();
    out.metric("game.scalar_cell_share", scalar as f64 / n, "ratio");
    for defense in DEFENSES {
        let play_ns: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "game.play" && defense_of(&cells[s.cell].config) == defense)
            .map(|(_, &ns)| ns)
            .sum();
        out.metric(format!("game.play_s.{defense}"), play_ns as f64 / 1e9, "s");
    }
    out.metric(
        "ga.evolve_share",
        ratio(self_ns("ga.evolve"), replication_ns),
        "ratio",
    );
    let bred: u64 = cells.iter().map(|c| offspring(&c.config)).sum();
    out.metric(
        "ga.ns_per_offspring",
        ratio(self_ns("ga.evolve"), bred as f64),
        "ns",
    );
    let traced_s = own.iter().sum::<u64>() as f64 / 1e9;
    out.metric(
        "trace.residual_share",
        ratio(untraced_cpu_per_pass - traced_s, untraced_cpu_per_pass),
        "ratio",
    );
    out.metric(
        "trace.overhead",
        ratio(replay.cpu_s, untraced_cpu_per_pass),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_committed_configuration() {
        let Grid::Atlas(atlas) = Grid::build("zoo-atlas", 0).unwrap() else {
            panic!("zoo-atlas builds an atlas grid");
        };
        assert_eq!(atlas, AtlasGrid::smoke());
        let Grid::Sweep(sweep) = Grid::build("paper-sweep", 0).unwrap() else {
            panic!("paper-sweep builds a sweep grid");
        };
        assert_eq!(sweep.base.base_seed, ExperimentConfig::scaled().base_seed);
        assert_eq!(sweep.cell_count(), 8);
        let Grid::Sweep(shifted) = Grid::build("paper-sweep", 3).unwrap() else {
            panic!("paper-sweep builds a sweep grid");
        };
        assert_ne!(shifted.base.base_seed, sweep.base.base_seed);
    }

    #[test]
    fn atlas_cells_classify_the_scalar_path_and_defenses() {
        let grid = Grid::build("zoo-atlas", 0).unwrap();
        let cells = grid.cells().unwrap();
        assert_eq!(cells.len(), 27);
        let scalar = cells
            .iter()
            .filter(|c| takes_scalar_path(&c.config))
            .count();
        assert_eq!(scalar, 18);
        let columns: Vec<_> = cells[..3].iter().map(|c| defense_of(&c.config)).collect();
        assert_eq!(columns, DEFENSES);
    }

    #[test]
    fn paper_cells_stay_on_the_batched_kernel() {
        let grid = Grid::build("paper-sweep", 0).unwrap();
        let cells = grid.cells().unwrap();
        assert!(cells.iter().all(|c| !takes_scalar_path(&c.config)));
        assert!(cells.iter().all(|c| defense_of(&c.config) == "watchdog"));
        // Case 1: one 50-node environment without CSN, population 100:
        // 2 tournaments x 300 rounds x 50 games, 5 generations, 2 seeds.
        assert_eq!(
            games_scheduled(&cells[0].config, &cells[0].case),
            2 * 300 * 50 * 5 * 2
        );
        assert_eq!(offspring(&cells[0].config), 2 * 4 * 100);
    }

    #[test]
    fn replay_folds_to_the_untraced_report() {
        let mut grid = AtlasGrid::smoke();
        grid.base.rounds = 40;
        grid.base.generations = 3;
        grid.base.replications = 2;
        grid.scenarios = vec!["base".into(), "energy-flooders".into()];
        let grid = Grid::Atlas(grid);
        let report = grid.run().unwrap();
        let cells = grid.cells().unwrap();
        let mut trace = Trace::new(Instant::now(), "main");
        assert_eq!(replay(&cells, &mut trace), report.cell_results());
        let names = trace::self_by_name(&trace.spans);
        for name in [
            "core.cell",
            "core.replication",
            "core.aggregate",
            "game.play",
            "ga.evolve",
        ] {
            assert!(names.contains_key(name), "{name} missing");
        }
    }
}
