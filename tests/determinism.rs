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
// Distributed-merge determinism: however cell completions arrive —
// permuted, duplicated, split across checkpoints — `merge_sweep` must
// reproduce the serial `run_sweep` report bit for bit. This is the
// property the distributed coordinator (`ahn::serve::run_sweep_via`)
// leans on.

use ahn::core::{merge_sweep, run_sweep, SweepCell, SweepGrid, SweepReport};
use ahn::obs::splitmix64;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One serial reference run, shared by every proptest case.
fn sweep_fixture() -> &'static (SweepGrid, SweepReport, String) {
    static FIXTURE: OnceLock<(SweepGrid, SweepReport, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut base = cfg();
        base.generations = 3;
        base.replications = 1;
        let grid = SweepGrid {
            base,
            scenarios: None,
            cases: vec![1, 3],
            payoffs: vec!["paper".into()],
            sizes: vec![10],
            seed_blocks: vec![0, 1],
        };
        let report = run_sweep(&grid).expect("reference sweep");
        let json = serde_json::to_string(&report).expect("serialize reference");
        (grid, report, json)
    })
}

/// A reference sweep over the scenario axis (base + two attacker
/// scenarios), shared by the scenario-axis proptest.
fn scenario_sweep_fixture() -> &'static (SweepGrid, SweepReport, String) {
    static FIXTURE: OnceLock<(SweepGrid, SweepReport, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut base = cfg();
        base.generations = 3;
        base.replications = 1;
        let grid = SweepGrid {
            base,
            scenarios: Some(vec![
                "base".into(),
                "slanderers".into(),
                "whitewashers".into(),
            ]),
            cases: vec![1],
            payoffs: vec!["paper".into()],
            sizes: vec![10],
            seed_blocks: vec![0, 1],
        };
        let report = run_sweep(&grid).expect("reference scenario sweep");
        let json = serde_json::to_string(&report).expect("serialize reference");
        (grid, report, json)
    })
}

/// The scenario axis keeps the purity contract: resolving every cell
/// and running it as an ordinary single experiment (the distributed
/// worker path) merges to the exact bytes of the parallel
/// `run_sweep` — so scenario cells are bit-identical no matter how
/// many threads or workers computed them.
#[test]
fn scenario_cells_from_single_experiments_merge_to_the_sweep_bytes() {
    use ahn::core::cell_from_result;
    let (grid, _, reference_json) = scenario_sweep_fixture();
    let cells: Vec<SweepCell> = grid
        .cell_specs()
        .into_iter()
        .map(|spec| {
            let (config, case) = grid.resolve(&spec).expect("resolve scenario cell");
            let result = run_experiment(&config, &case);
            cell_from_result(spec, &config, &case, &result)
        })
        .collect();
    let merged = merge_sweep(grid, &cells).expect("merge worker-path cells");
    assert_eq!(
        &serde_json::to_string(&merged).expect("serialize merged"),
        reference_json
    );
}

/// A base-scenario coordinate (`Some("base")`) resolves to the same
/// `(config, case)` — and therefore the same seeds, streams and cache
/// keys — as the legacy scenario-free cell, up to the population floor
/// both paths apply.
#[test]
fn base_scenario_cells_match_legacy_cells() {
    let (grid, _, _) = sweep_fixture();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of completions — an arbitrary permutation, an
    /// arbitrary subset delivered twice, an arbitrary checkpoint split —
    /// merges to the serial report's exact bytes. A merge of only the
    /// first checkpoint's cells either already covers the grid or fails
    /// loudly about the missing cells; it never fabricates a report.
    #[test]
    fn any_completion_interleaving_merges_to_the_serial_report(
        perm_seed in any::<u64>(),
        dup_mask in any::<u32>(),
        split_pick in any::<u16>(),
    ) {
        let (grid, report, reference_json) = sweep_fixture();
        let mut arrivals: Vec<SweepCell> = report.cells.clone();
        let n = arrivals.len();

        // Duplicate the cells selected by the mask (a worker retrying a
        // completion the server already applied).
        for i in 0..n {
            if dup_mask & (1 << i) != 0 {
                arrivals.push(report.cells[i].clone());
            }
        }
        // Fisher-Yates with a seeded splitmix stream: an arbitrary
        // arrival order across workers.
        for i in (1..arrivals.len()).rev() {
            let j = (splitmix64(perm_seed ^ i as u64) % (i as u64 + 1)) as usize;
            arrivals.swap(i, j);
        }

        let merged = merge_sweep(grid, &arrivals).expect("merge interleaved completions");
        prop_assert_eq!(
            serde_json::to_string(&merged).expect("serialize merged"),
            reference_json.as_str(),
            "an interleaving changed the merged bytes"
        );

        // A partial checkpoint: merging only the first chunk must either
        // cover every cell (then: identical bytes) or name a missing
        // cell — and replaying the rest on top always completes.
        let split = (split_pick as usize) % (arrivals.len() + 1);
        let (first, rest) = arrivals.split_at(split);
        match merge_sweep(grid, first) {
            Ok(partial) => prop_assert_eq!(
                serde_json::to_string(&partial).expect("serialize partial"),
                reference_json.as_str()
            ),
            Err(e) => prop_assert!(e.contains("never completed"), "unexpected error: {e}"),
        }
        let replayed: Vec<SweepCell> = first.iter().chain(rest.iter()).cloned().collect();
        let resumed = merge_sweep(grid, &replayed).expect("resume merge");
        prop_assert_eq!(
            serde_json::to_string(&resumed).expect("serialize resumed"),
            reference_json.as_str()
        );
    }

    /// The interleaving property holds on the scenario axis too: any
    /// permutation + duplication of scenario-keyed cells merges to the
    /// serial report's exact bytes, and dropping a scenario cell names
    /// it instead of fabricating a report.
    #[test]
    fn scenario_axis_merges_bit_identically_across_interleavings(
        perm_seed in any::<u64>(),
        dup_mask in any::<u32>(),
        drop_pick in any::<u16>(),
    ) {
        let (grid, report, reference_json) = scenario_sweep_fixture();
        let mut arrivals: Vec<SweepCell> = report.cells.clone();
        let n = arrivals.len();
        for i in 0..n {
            if dup_mask & (1 << i) != 0 {
                arrivals.push(report.cells[i].clone());
            }
        }
        for i in (1..arrivals.len()).rev() {
            let j = (splitmix64(perm_seed ^ i as u64) % (i as u64 + 1)) as usize;
            arrivals.swap(i, j);
        }
        let merged = merge_sweep(grid, &arrivals).expect("merge scenario cells");
        prop_assert_eq!(
            serde_json::to_string(&merged).expect("serialize merged"),
            reference_json.as_str(),
            "an interleaving changed the scenario-sweep bytes"
        );

        // Removing every completion of one cell must fail loudly.
        let victim = report.cells[(drop_pick as usize) % n].spec.clone();
        let partial: Vec<SweepCell> = arrivals
            .iter()
            .filter(|c| c.spec != victim)
            .cloned()
            .collect();
        let err = merge_sweep(grid, &partial).expect_err("missing cell must not merge");
        prop_assert!(err.contains("never completed"), "unexpected error: {err}");
    }

    /// A completion that violates the purity contract — same cell
    /// coordinates, different numbers — must fail the merge loudly
    /// instead of silently picking a winner.
    #[test]
    fn conflicting_duplicates_fail_the_merge(which in 0usize..4, delta in 1u32..1000) {
        let (grid, report, _) = sweep_fixture();
        let mut arrivals: Vec<SweepCell> = report.cells.clone();
        let mut corrupt = arrivals[which].clone();
        corrupt.final_coop.add(delta as f64 / 1000.0);
        arrivals.push(corrupt);
        let err = merge_sweep(grid, &arrivals).expect_err("conflicting cells must not merge");
        prop_assert!(err.contains("conflicting"), "unexpected error: {err}");
    }
}

// ---------------------------------------------------------------------
// Tracing never changes results, and a traced local run's span log
// joins back into one complete span tree per cell.

use ahn::core::{run_experiment_traced, run_sweep_traced};
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
    let traced = run_sweep_traced(&grid, Some(&log)).expect("traced sweep");
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
    let traced = run_experiment_traced(&config, &case, Some(&log));
    drop(log);
    assert_eq!(
        serde_json::to_string(&traced).unwrap(),
        serde_json::to_string(&run_experiment(&config, &case)).unwrap()
    );
    assert_complete_cells(&path, 1, config.replications * config.generations);
}
