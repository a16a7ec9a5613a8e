//! Reproducibility and serialization guarantees.
//!
//! Every run is a pure function of `(config, case, seed)` — the property
//! that makes the 60-replication averages of the paper reproducible and
//! lets rayon parallelism leave results bit-identical.

use ahn::core::{
    cases::CaseSpec,
    config::ExperimentConfig,
    experiment::{aggregate, run_experiment, run_replication, ExperimentResult},
};
use ahn::net::PathMode;

fn cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::smoke();
    c.generations = 8;
    c
}

#[test]
fn same_seed_same_everything() {
    let case = CaseSpec::mini("det", &[2], 10, PathMode::Longer);
    let a = run_replication(&cfg(), &case, 1234);
    let b = run_replication(&cfg(), &case, 1234);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let case = CaseSpec::mini("det", &[2], 10, PathMode::Shorter);
    let a = run_replication(&cfg(), &case, 1);
    let b = run_replication(&cfg(), &case, 2);
    assert_ne!(
        (a.coop_by_gen, a.final_population),
        (b.coop_by_gen, b.final_population)
    );
}

#[test]
fn parallel_experiment_is_deterministic() {
    let mut config = cfg();
    config.replications = 4;
    let case = CaseSpec::mini("det", &[1], 10, PathMode::Shorter);
    let a = run_experiment(&config, &case);
    let b = run_experiment(&config, &case);
    assert_eq!(a, b);
}

#[test]
fn aggregation_is_order_insensitive_for_series_means() {
    let config = cfg();
    let case = CaseSpec::mini("det", &[1], 10, PathMode::Shorter);
    let r1 = run_replication(&config, &case, 10);
    let r2 = run_replication(&config, &case, 11);
    let ab = aggregate(&config, &case, &[r1.clone(), r2.clone()]);
    let ba = aggregate(&config, &case, &[r2, r1]);
    // The Welford accumulators are association-sensitive in the last
    // ulps, so reported statistics agree to floating-point noise (the
    // census, being integer counts, must match exactly).
    let (ma, mb) = (ab.coop_series.means(), ba.coop_series.means());
    assert_eq!(ma.len(), mb.len());
    for (a, b) in ma.iter().zip(&mb) {
        assert!((a - b).abs() < 1e-12, "means diverge: {a} vs {b}");
    }
    let (fa, fb) = (ab.final_coop.mean().unwrap(), ba.final_coop.mean().unwrap());
    assert!((fa - fb).abs() < 1e-12, "final coop diverges: {fa} vs {fb}");
    assert_eq!(ab.census, ba.census);
}

#[test]
fn parallel_aggregation_is_bit_identical_to_a_serial_fold() {
    // The serve-path cache-correctness assumption: run_experiment's
    // rayon fan-out must be *bit-identical* to folding run_replication
    // serially over the same seeds — otherwise a cached result could
    // differ from a recomputed one by scheduling accident. Six
    // replications, so on a multi-core host several workers pull them
    // and finish them out of input order.
    let mut config = cfg();
    config.replications = 6;
    let case = CaseSpec::mini("fold", &[2], 10, PathMode::Longer);

    let parallel = run_experiment(&config, &case);
    let serial: Vec<_> = (0..config.replications as u64)
        .map(|k| run_replication(&config, &case, config.base_seed.wrapping_add(k)))
        .collect();
    let folded = aggregate(&config, &case, &serial);

    // Structural equality covers every float exactly (PartialEq on f64),
    // and the serialized forms match byte for byte — what the result
    // cache actually stores.
    assert_eq!(parallel, folded);
    assert_eq!(
        serde_json::to_string(&parallel).unwrap(),
        serde_json::to_string(&folded).unwrap()
    );
}

#[test]
fn experiment_result_serde_roundtrip() {
    let mut config = cfg();
    config.replications = 2;
    let case = CaseSpec::mini("serde", &[2], 10, PathMode::Shorter);
    let result = run_experiment(&config, &case);
    let json = serde_json::to_string(&result).expect("serializable");
    let back: ExperimentResult = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(result, back);
}

#[test]
fn config_and_case_serde_roundtrip() {
    let config = ExperimentConfig::scaled();
    let json = serde_json::to_string(&config).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);

    let case = CaseSpec::paper(4);
    let json = serde_json::to_string(&case).unwrap();
    let back: CaseSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(case, back);
}

#[test]
fn strategies_in_results_render_in_paper_notation() {
    let mut config = cfg();
    config.replications = 2;
    let case = CaseSpec::mini("notation", &[0], 10, PathMode::Shorter);
    let result = run_experiment(&config, &case);
    for (s, _) in result.census.top_strategies(3) {
        let text = s.to_string();
        // Four 3-bit groups plus the unknown bit: "xxx xxx xxx xxx x".
        assert_eq!(text.len(), 17, "unexpected notation: {text}");
        let reparsed: ahn::strategy::Strategy = text.parse().unwrap();
        assert_eq!(reparsed, s);
    }
}

// ---------------------------------------------------------------------
// The grid fold: a sweep folded from cells that ran as ordinary single
// experiments — the job a distributed worker runs — has the bytes of
// the in-process batch. This is the property the distributed
// coordinator (`ahn::serve::run_sweep_via`) leans on.

use ahn::core::{run_sweep, run_sweep_with, SweepGrid};

/// A base-model sweep: cases with one and four environments, so cells
/// of uneven cost, over two seed blocks.
fn sweep_grid() -> SweepGrid {
    let mut base = cfg();
    base.generations = 3;
    base.replications = 1;
    SweepGrid {
        base,
        scenarios: None,
        cases: vec![1, 3],
        payoffs: vec!["paper".into()],
        sizes: vec![10],
        seed_blocks: vec![0, 1],
    }
}

/// The scenario axis keeps the purity contract: resolving every cell
/// and running it as an ordinary single experiment (the distributed
/// worker path) folds to the exact bytes of the parallel `run_sweep` —
/// so scenario cells are bit-identical no matter how many threads or
/// workers computed them. The base-model grid holds it too.
#[test]
fn scenario_cells_from_single_experiments_merge_to_the_sweep_bytes() {
    let scenarios = SweepGrid {
        scenarios: Some(vec![
            "base".into(),
            "slanderers".into(),
            "whitewashers".into(),
        ]),
        cases: vec![1],
        ..sweep_grid()
    };
    for grid in [scenarios, sweep_grid()] {
        let folded = run_sweep_with(&grid, |cells| {
            Ok::<_, String>(
                (cells.cells().iter())
                    .map(|(config, case)| run_experiment(config, case))
                    .collect(),
            )
        })
        .expect("fold worker-path cells");
        let reference = run_sweep(&grid).expect("reference sweep");
        assert_eq!(
            serde_json::to_string(&folded).expect("serialize folded"),
            serde_json::to_string(&reference).expect("serialize reference")
        );
    }
}

/// A base-scenario coordinate (`Some("base")`) resolves to the same
/// `(config, case)` — and therefore the same seeds, streams and cache
/// keys — as the legacy scenario-free cell, up to the population floor
/// both paths apply.
#[test]
fn base_scenario_cells_match_legacy_cells() {
    let grid = sweep_grid();
    let mut with_axis = grid.clone();
    with_axis.scenarios = Some(vec!["base".into()]);
    let legacy = grid.cell_specs();
    let scenarioed = with_axis.cell_specs();
    assert_eq!(legacy.len(), scenarioed.len());
    for (old, new) in legacy.iter().zip(&scenarioed) {
        assert_eq!(new.scenario.as_deref(), Some("base"));
        assert_eq!(
            grid.resolve(old).expect("legacy resolve"),
            with_axis.resolve(new).expect("scenario resolve"),
        );
    }
}

// ---------------------------------------------------------------------
// Tracing never changes results, and a traced local run's span log
// joins back into one complete span tree per cell.

use ahn::core::{run_cells, Cell};
use ahn::obs::{join_traces, read_trace, TraceLog};
use std::path::{Path, PathBuf};

fn fresh_trace_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ahn-determinism-{}-{name}.trace",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Joins the log at `path` and checks it holds exactly `cells` complete
/// cells, no orphaned spans, and `generations` generation spans per cell.
fn assert_complete_cells(path: &Path, cells: usize, generations: usize) {
    let read = read_trace(path).expect("read trace");
    assert_eq!(read.discarded, 0);
    let tree = join_traces(read.events, read.discarded);
    assert_eq!(tree.cells.len(), cells);
    assert_eq!(tree.complete_cells(), cells);
    assert_eq!(tree.orphan_spans, 0);
    for cell in &tree.cells {
        let spans = cell.events.iter().filter(|e| e.span == "generation");
        assert_eq!(spans.count(), generations, "cell {:016x}", cell.trace_id);
    }
    let _ = std::fs::remove_file(path);
}

fn traced_cfg() -> ExperimentConfig {
    let mut config = cfg();
    config.generations = 3;
    config.replications = 2;
    config
}

#[test]
fn traced_sweep_matches_untraced_and_joins_into_complete_cells() {
    let grid = SweepGrid {
        base: traced_cfg(),
        scenarios: Some(vec!["base".into(), "slanderers".into()]),
        cases: vec![1],
        payoffs: vec!["paper".into()],
        sizes: vec![10],
        seed_blocks: vec![0, 1],
    };
    let path = fresh_trace_path("sweep");
    let log = TraceLog::open(&path, "test").expect("open trace");
    let traced = run_sweep_with(&grid, |cells| Ok::<_, String>(cells.run(Some(&log))))
        .expect("traced sweep");
    drop(log);
    let untraced = run_sweep(&grid).expect("untraced sweep");
    assert_eq!(
        serde_json::to_string(&traced).unwrap(),
        serde_json::to_string(&untraced).unwrap()
    );
    let config = &grid.base;
    assert_complete_cells(
        &path,
        grid.cell_count(),
        config.replications * config.generations,
    );
}

#[test]
fn traced_experiment_matches_untraced_and_joins_into_one_cell() {
    let config = traced_cfg();
    let case = CaseSpec::mini("traced", &[2], 10, PathMode::Shorter);
    let path = fresh_trace_path("experiment");
    let log = TraceLog::open(&path, "test").expect("open trace");
    let cell = (config.clone(), case.clone());
    let traced = run_cells(&[cell], Some(&log), |_| "traced".into());
    drop(log);
    assert_eq!(
        serde_json::to_string(&traced[0]).unwrap(),
        serde_json::to_string(&run_experiment(&config, &case)).unwrap()
    );
    assert_complete_cells(&path, 1, config.replications * config.generations);
}

/// One batch of cells with 1, 3 and 6 replications on both path modes:
/// more items than cores, of uneven cost, so under `AHN_THREADS` > 1
/// the replications of several cells run at once and finish out of
/// order.
fn mixed_batch() -> Vec<Cell> {
    let mut cells = Vec::new();
    for mode in [PathMode::Shorter, PathMode::Longer] {
        for replications in [1, 3, 6] {
            let mut config = traced_cfg();
            config.replications = replications;
            cells.push((config, CaseSpec::mini("mixed", &[2], 10, mode)));
        }
    }
    cells
}

#[test]
fn a_mixed_batch_equals_serial_folds_and_single_cell_runs() {
    let cells = mixed_batch();
    let batch = run_cells(&cells, None, |_| String::new());
    assert_eq!(batch.len(), cells.len());
    for ((config, case), result) in cells.iter().zip(&batch) {
        let serial: Vec<_> = (0..config.replications as u64)
            .map(|k| run_replication(config, case, config.base_seed.wrapping_add(k)))
            .collect();
        let json = serde_json::to_string(result).unwrap();
        for reference in [
            aggregate(config, case, &serial),
            run_experiment(config, case),
        ] {
            assert_eq!(result, &reference);
            assert_eq!(json, serde_json::to_string(&reference).unwrap());
        }
    }
}

#[test]
fn a_traced_mixed_batch_brackets_every_cell_with_its_spans() {
    let cells = mixed_batch();
    let path = fresh_trace_path("mixed");
    let log = TraceLog::open(&path, "test").expect("open trace");
    let traced = run_cells(&cells, Some(&log), |i| format!("cell {i}"));
    drop(log);
    assert_eq!(traced, run_cells(&cells, None, |_| String::new()));

    let read = read_trace(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert_eq!(read.discarded, 0);
    let tree = join_traces(read.events.clone(), 0);
    assert_eq!(tree.cells.len(), cells.len());
    assert_eq!(tree.complete_cells(), cells.len());
    assert_eq!(tree.orphan_spans, 0);
    for (config, case) in &cells {
        let key = ahn::core::canonical_hash(&(config, case)).unwrap();
        let trace_id = ahn::obs::trace_id_of_key(key);
        // This cell's spans in log order.
        let spans: Vec<&str> = (read.events.iter())
            .filter(|e| e.trace_id == trace_id)
            .map(|e| e.span.as_str())
            .collect();
        let generations = config.replications * config.generations;
        assert_eq!(spans.len(), generations + 2, "{spans:?}");
        assert_eq!(spans[0], "cell_start");
        assert_eq!(spans[spans.len() - 1], "cell_done");
        assert!(spans[1..=generations].iter().all(|&s| s == "generation"));
    }
}
