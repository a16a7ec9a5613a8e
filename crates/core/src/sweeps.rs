//! Parameter sweeps: single-axis curves and the multi-axis grid engine.
//!
//! Three curves the paper never plots but that govern its results, each
//! built as labeled `(config, case)` cells that the caller runs as one
//! batch of the cell engine ([`crate::run_cells`]) and prints with
//! [`render_sweep`]:
//!
//! * [`sweep_rounds`] — cooperation vs. the reputation horizon `R`. The
//!   defection basin swallows every run below a critical `R`
//!   (EXPERIMENTS.md, "scale sensitivity"); the paper's R = 300 sits
//!   comfortably above it.
//! * [`sweep_csn`] — cooperation vs. selfish-node density, the
//!   continuous version of environments TE1–TE4.
//! * [`sweep_mutation`] — cooperation vs. the GA's mutation rate; too
//!   much mutation destroys the evolved conventions.
//!
//! # The scenario-sweep engine
//!
//! [`run_sweep`] evaluates a full grid — **case × payoff-variant ×
//! network-size × seed-block** (optionally × scenario) — one experiment
//! per cell, as one batch of the same cell engine as
//! [`crate::run_atlas`]. Every cell is a *pure function* of its
//! resolved `(ExperimentConfig, CaseSpec)`:
//!
//! * the network-size axis rescales each paper environment to `size`
//!   participants, preserving its CSN fraction ([`scale_case`]);
//! * the payoff axis swaps in a named payoff table
//!   ([`payoff_variant`]);
//! * the seed-block axis shifts `base_seed` by a golden-ratio multiple
//!   of the block index ([`block_seed`] — block 0 keeps the base seed,
//!   so cell `(c, p, s, 0)` is byte-identical to running the same
//!   config directly, and shares its `ahn_serve` cache entry);
//! * replication `k` of a cell runs on seed `base_seed + k`, and the
//!   engine aggregates a cell's replications in that order however it
//!   scheduled them, so a cell equals `run_experiment` on its resolved
//!   inputs bit for bit (`tests/determinism.rs`).
//!
//! # One grid pipeline
//!
//! A sweep or a calibration ([`crate::calibrate`]) takes one path from
//! its grid to its report, whoever computes the cells:
//!
//! 1. one pass resolves every cell in report order and runs
//!    [`crate::check_cell`] on it once ([`SweepGrid::cells`],
//!    [`crate::CalibrationGrid::cells`]), so a bad grid fails before any
//!    cell runs or is queued;
//! 2. a *cell runner* turns those [`GridCells`] into one
//!    [`ExperimentResult`] per cell, in the same order — in-process
//!    ([`GridCells::run`]) or through a serve node
//!    (`ahn_serve::run_cells_via`);
//! 3. one fold turns the results into the report
//!    ([`run_sweep_with`], [`crate::calibrate::run_calibration_with`]).
//!
//! So a grid gives the same bytes locally and through a node, repeated
//! axis values included. The CLI front end is `ahn-exp sweep`; the
//! serving front end is `POST /v1/sweeps`, which submits the cells of
//! the same pass (each cached under its canonical hash).

use crate::cases::CaseSpec;
use crate::cells::Cell;
use crate::config::ExperimentConfig;
use crate::experiment::ExperimentResult;
use ahn_game::{EnvironmentSpec, PayoffConfig};
use ahn_net::PathMode;
use ahn_stats::Summary;
use serde::{Deserialize, Serialize};

/// Cooperation as a function of tournament rounds `R`: one cell per
/// value, labeled with it.
pub fn sweep_rounds(
    base: &ExperimentConfig,
    case: &CaseSpec,
    rounds: &[usize],
) -> Vec<(String, Cell)> {
    let values = rounds.iter().map(|&r| (trim(r as f64), r));
    crate::cells::vary(base, case, values, |c, r| c.rounds = r)
}

/// Cooperation as a function of CSN density (fraction of each
/// tournament's `size` participants that are constantly selfish): one
/// cell per density, labeled with it.
///
/// # Panics
/// Panics if a density would leave fewer than one normal player.
pub fn sweep_csn(
    base: &ExperimentConfig,
    size: usize,
    mode: PathMode,
    densities: &[f64],
) -> Vec<(String, Cell)> {
    densities
        .iter()
        .map(|&d| {
            assert!((0.0..1.0).contains(&d), "density {d} outside [0, 1)");
            let csn = ((size as f64) * d).round() as usize;
            let case = CaseSpec::mini(&format!("csn {:.0}%", d * 100.0), &[csn], size, mode);
            (trim(d), (base.clone(), case))
        })
        .collect()
}

/// Cooperation as a function of the per-bit mutation probability: one
/// cell per rate, labeled with it.
pub fn sweep_mutation(
    base: &ExperimentConfig,
    case: &CaseSpec,
    rates: &[f64],
) -> Vec<(String, Cell)> {
    let values = rates.iter().map(|&p| (trim(p), p));
    crate::cells::vary(base, case, values, |c, p| c.ga.mutation_prob = p)
}

/// Renders a sweep as an aligned text table, one `(x label, final
/// cooperation)` row per point.
pub fn render_sweep(title: &str, x_label: &str, rows: &[(String, Summary)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{title}\n  {x_label:>12}  cooperation (±95% CI)\n");
    for (x, cooperation) in rows {
        let _ = writeln!(
            out,
            "  {:>12}  {:>7} ± {:>5}",
            x,
            ahn_stats::pct(cooperation.mean().unwrap_or(0.0), 1),
            ahn_stats::pct(cooperation.ci95_half_width().unwrap_or(0.0), 1),
        );
    }
    out
}

/// Formats a float without trailing zeros (300 not 300.000, 0.001
/// stays 0.001): sweep x-values, calibration scales and payoff cells.
pub(crate) fn trim(x: f64) -> String {
    if x == x.trunc() {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// The payoff-variant names [`payoff_variant`] accepts.
pub const PAYOFF_VARIANTS: [&str; 4] = ["paper", "best-fit", "literal-ocr", "no-reputation"];

/// The pass-through payoff-variant name: keep whatever table the sweep's
/// base configuration already carries. This is how the reconstruction
/// search (`crate::calibrate`) pushes arbitrary candidate tables through
/// the sweep engine — the resolved per-cell config embeds the concrete
/// table, so cache keys stay exact.
pub const BASE_PAYOFF_VARIANT: &str = "base";

/// Resolves a named payoff table (the payoff-variant sweep axis; the
/// same three tables as ablation A1).
pub fn payoff_variant(name: &str) -> Result<PayoffConfig, String> {
    match name {
        "paper" => Ok(PayoffConfig::paper()),
        "best-fit" => Ok(PayoffConfig::best_fit()),
        "literal-ocr" => Ok(PayoffConfig::literal_ocr()),
        "no-reputation" => Ok(PayoffConfig::no_reputation()),
        other => Err(format!(
            "unknown payoff variant {other:?} (expected one of {PAYOFF_VARIANTS:?} \
             or {BASE_PAYOFF_VARIANT:?})"
        )),
    }
}

/// Resolves a payoff-variant name against a base table:
/// [`BASE_PAYOFF_VARIANT`] keeps `base`, anything else goes through
/// [`payoff_variant`].
pub fn resolve_payoff(name: &str, base: &PayoffConfig) -> Result<PayoffConfig, String> {
    if name == BASE_PAYOFF_VARIANT {
        Ok(*base)
    } else {
        payoff_variant(name)
    }
}

/// Rescales one of the paper's cases (1–4) to tournaments of `size`
/// participants, preserving each environment's CSN *fraction* (rounded)
/// and the case's path mode. `size == 50` reproduces the paper case
/// exactly.
///
/// # Panics
/// Panics unless `1 <= case_no <= 4` (like [`CaseSpec::paper`]).
///
/// # Errors
/// Errors when `size` is too small to route (< 3 participants) or the
/// rounded CSN count would leave no normal player.
pub fn scale_case(case_no: usize, size: usize) -> Result<CaseSpec, String> {
    let paper = CaseSpec::paper(case_no);
    if size < 3 {
        return Err(format!(
            "network size {size} cannot route (3 participants minimum)"
        ));
    }
    let mut envs = Vec::with_capacity(paper.envs.len());
    for env in &paper.envs {
        let fraction = env.csn as f64 / env.size as f64;
        let csn = ((size as f64) * fraction).round() as usize;
        if csn >= size {
            return Err(format!(
                "scaling {} to {size} participants leaves no normal player",
                paper.name
            ));
        }
        envs.push(EnvironmentSpec::new(size, csn));
    }
    Ok(CaseSpec {
        name: format!("{} @{size}", paper.name),
        envs,
        mode: paper.mode,
    })
}

/// The derived base seed of seed-block `block`: a golden-ratio stride
/// keeps blocks far apart in seed space (replications within a cell use
/// `seed + k`, so adjacent blocks must not overlap), and block 0 is the
/// identity so the first block of any sweep reproduces — and shares the
/// cache key of — a direct run.
pub fn block_seed(base_seed: u64, block: u64) -> u64 {
    base_seed.wrapping_add(block.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A scenario-sweep grid: the cross product of up to five axes around a
/// base configuration. See the module docs for what each axis means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Base configuration every cell derives from.
    pub base: ExperimentConfig,
    /// Threat-model axis: names from the scenario registry
    /// ([`crate::scenarios::builtin_scenarios`]). `None` — the legacy
    /// wire form — sweeps the base model only and keeps the original
    /// four-axis cell order, so old grids, caches and journals are
    /// untouched.
    pub scenarios: Option<Vec<String>>,
    /// Case axis: paper case numbers (1–4).
    pub cases: Vec<usize>,
    /// Payoff-variant axis: names accepted by [`payoff_variant`].
    pub payoffs: Vec<String>,
    /// Network-size axis: participants per tournament (the paper: 50).
    pub sizes: Vec<usize>,
    /// Seed-block axis: block indices fed to [`block_seed`].
    pub seed_blocks: Vec<u64>,
}

impl SweepGrid {
    /// A grid over `cases` and `sizes` with the paper payoff table and
    /// seed blocks `0..blocks` — the common CLI shape.
    pub fn new(base: ExperimentConfig, cases: &[usize], sizes: &[usize], blocks: u64) -> Self {
        SweepGrid {
            base,
            scenarios: None,
            cases: cases.to_vec(),
            payoffs: vec!["paper".into()],
            sizes: sizes.to_vec(),
            seed_blocks: (0..blocks.max(1)).collect(),
        }
    }

    /// The scenario axis as cell coordinates: the registry names when
    /// the axis is set, or the single legacy "no scenario" coordinate.
    fn scenario_axis(&self) -> Vec<Option<String>> {
        match &self.scenarios {
            Some(names) => names.iter().cloned().map(Some).collect(),
            None => vec![None],
        }
    }

    /// Total cells in the grid (saturating, so hostile axis lengths
    /// cannot overflow the product before a caller's size cap sees it).
    pub fn cell_count(&self) -> usize {
        self.scenario_axis()
            .len()
            .saturating_mul(self.cases.len())
            .saturating_mul(self.payoffs.len())
            .saturating_mul(self.sizes.len())
            .saturating_mul(self.seed_blocks.len())
    }

    /// Validates the axes and runs [`crate::check_cell`] on every cell
    /// they resolve to, so a bad grid fails before any cell runs or is
    /// queued.
    pub fn validate(&self) -> Result<(), String> {
        self.each_cell(|_, _| ())
    }

    /// The grid's cells in report order, each resolved and checked once
    /// (see [`SweepGrid::validate`]).
    pub fn cells(&self) -> Result<GridCells, String> {
        let mut cells = GridCells::default();
        self.each_cell(|spec, cell| cells.push(spec, cell))?;
        Ok(cells)
    }

    /// The one pass over the grid: validates the axes, then resolves
    /// every cell in report order, runs [`crate::check_cell`] on it and
    /// hands it to `visit`.
    pub(crate) fn each_cell(
        &self,
        mut visit: impl FnMut(SweepCellSpec, Cell),
    ) -> Result<(), String> {
        self.base.validate()?;
        if self.cell_count() == 0 {
            return Err("every sweep axis needs at least one value".into());
        }
        for &c in &self.cases {
            if !(1..=4).contains(&c) {
                return Err(format!("the paper defines cases 1..=4, not {c}"));
            }
        }
        for name in &self.payoffs {
            resolve_payoff(name, &self.base.payoff)?;
        }
        if let Some(names) = &self.scenarios {
            for name in names {
                crate::scenarios::resolve_scenario(name)?;
            }
        }
        for spec in self.cell_specs() {
            let (config, case) = self.resolve(&spec)?;
            crate::check_cell(&config, &case)?;
            visit(spec, (config, case));
        }
        Ok(())
    }

    /// Every cell of the grid in deterministic axis order (scenarios
    /// outermost, then cases, seed blocks innermost). Without a
    /// scenario axis this is exactly the legacy four-axis order.
    pub fn cell_specs(&self) -> Vec<SweepCellSpec> {
        let mut out = Vec::with_capacity(self.cell_count());
        for scenario in self.scenario_axis() {
            for &case_no in &self.cases {
                for payoff in &self.payoffs {
                    for &size in &self.sizes {
                        for &seed_block in &self.seed_blocks {
                            out.push(SweepCellSpec {
                                scenario: scenario.clone(),
                                case_no,
                                payoff: payoff.clone(),
                                size,
                                seed_block,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Resolves one cell to the pure `(config, case)` inputs of
    /// [`crate::run_experiment`]. The population grows to fill the scaled
    /// case's normal-player demand when the base population is too
    /// small for a large network size. A scenario coordinate, when
    /// present, is applied last ([`crate::scenarios::Scenario::apply`]),
    /// so scenario-free cells resolve exactly as they always have.
    pub fn resolve(&self, spec: &SweepCellSpec) -> Result<(ExperimentConfig, CaseSpec), String> {
        let case = scale_case(spec.case_no, spec.size)?;
        let mut config = self.base.clone();
        config.payoff = resolve_payoff(&spec.payoff, &self.base.payoff)?;
        config.base_seed = block_seed(self.base.base_seed, spec.seed_block);
        if let Some(name) = &spec.scenario {
            return crate::scenarios::resolve_scenario(name)?.apply(&config, &case);
        }
        config.population = config.population.max(case.required_normal());
        Ok((config, case))
    }
}

/// The coordinates of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepCellSpec {
    /// Threat-model coordinate (`None` on the legacy base-model axis).
    pub scenario: Option<String>,
    /// Paper case number (1–4).
    pub case_no: usize,
    /// Payoff-variant name.
    pub payoff: String,
    /// Participants per tournament.
    pub size: usize,
    /// Seed-block index.
    pub seed_block: u64,
}

/// One evaluated cell of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// The cell's grid coordinates.
    pub spec: SweepCellSpec,
    /// Canonical hash of the cell's resolved `(config, case)` pair — a
    /// stable identity for correlating cells across sweeps that share
    /// resolved inputs. (Not the `ahn_serve` cache key: the server
    /// hashes the externally tagged job spec wrapping the same pair,
    /// which is a different byte stream.)
    pub config_hash: u64,
    /// Final-generation cooperation level across the cell's
    /// replications.
    pub final_coop: Summary,
    /// Final-generation cooperation per environment.
    pub per_env_coop: Vec<Summary>,
    /// Final-generation CSN-free-path share per environment.
    pub per_env_csn_free: Vec<Summary>,
}

/// A completed sweep: one entry per cell, in [`SweepGrid::cell_specs`]
/// order. Pure data — two runs of the same grid serialize to identical
/// bytes (the CI sweep smoke pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report schema tag (`"ahn-sweep/1"`).
    pub schema: String,
    /// Replications per cell (from the base config).
    pub replications: usize,
    /// Evaluated cells.
    pub cells: Vec<SweepCell>,
}

/// Reduces the [`ExperimentResult`] of a cell's resolved
/// `(config, case)` to its [`SweepCell`]: the per-cell step of the
/// sweep fold ([`run_sweep_with`]). The result is the same bit for bit
/// whoever computed it — `run_experiment`, a batch of [`run_sweep`] or
/// a worker running the ordinary single-experiment job that `ahn_serve`
/// caches — because all run the cell through the same engine, whose
/// result does not depend on how it scheduled the batch
/// (`tests/determinism.rs`).
pub fn cell_from_result(
    spec: SweepCellSpec,
    config: &ExperimentConfig,
    case: &CaseSpec,
    result: &ExperimentResult,
) -> SweepCell {
    SweepCell {
        spec,
        config_hash: crate::config::canonical_hash(&(config, case)).unwrap_or(0),
        final_coop: result.final_coop.clone(),
        per_env_coop: result.per_env_coop.clone(),
        per_env_csn_free: result.per_env_csn_free.clone(),
    }
}

/// The cells of a sweep or calibration grid, resolved and checked
/// once, in report order ([`SweepGrid::cells`],
/// [`crate::CalibrationGrid::cells`]): what a cell runner runs. A
/// runner returns one [`ExperimentResult`] per cell, in the same order.
#[derive(Debug, Default)]
pub struct GridCells {
    specs: Vec<SweepCellSpec>,
    cells: Vec<Cell>,
}

impl GridCells {
    pub(crate) fn push(&mut self, spec: SweepCellSpec, cell: Cell) {
        self.specs.push(spec);
        self.cells.push(cell);
    }

    /// Each cell's coordinates: a calibration cell's are those in its
    /// candidate's sweep ([`crate::CalibrationGrid::sweep_for`]).
    pub fn specs(&self) -> &[SweepCellSpec] {
        &self.specs
    }

    /// Each cell's resolved `(config, case)`, which passed
    /// [`crate::check_cell`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Runs every cell in-process as one batch of the cell engine
    /// (every replication of every cell in parallel, bounded by
    /// `AHN_THREADS` like all rayon fan-out in this workspace). Traced
    /// into `trace`, every cell emits a `cell_start` span naming its
    /// coordinates, one `generation` span per generation of every
    /// replication, and a `cell_done` span (cells run in parallel, so
    /// spans of different cells interleave); the results are
    /// bit-identical either way.
    pub fn run(&self, trace: Option<&ahn_obs::TraceLog>) -> Vec<ExperimentResult> {
        crate::threads::log_once("sweep");
        crate::cells::run_cells(&self.cells, trace, |i| {
            let spec = &self.specs[i];
            let scenario = spec
                .scenario
                .as_deref()
                .map(|s| format!("scenario {s} "))
                .unwrap_or_default();
            format!(
                "{scenario}case {} payoff {} size {} seed_block {}",
                spec.case_no, spec.payoff, spec.size, spec.seed_block
            )
        })
    }
}

/// Runs every cell of the grid in-process ([`GridCells::run`]).
///
/// # Errors
/// Errors when the grid fails [`SweepGrid::validate`]; never errors
/// mid-run.
pub fn run_sweep(grid: &SweepGrid) -> Result<SweepReport, String> {
    run_sweep_with(grid, |cells| Ok(cells.run(None)))
}

/// Resolves the grid's cells once ([`SweepGrid::cells`]), runs them
/// through `run` — in-process ([`GridCells::run`]) or through a serve
/// node (`ahn_serve::run_cells_via`) — and folds the results into the
/// report ([`cell_from_result`]). The report is the same bytes whichever
/// runner computed the cells.
///
/// # Errors
/// Errors when the grid fails [`SweepGrid::validate`] (converted into
/// `E`) or with the runner's error; nothing runs for a bad grid.
///
/// # Panics
/// Panics if `run` does not return one result per cell.
pub fn run_sweep_with<E: From<String>>(
    grid: &SweepGrid,
    run: impl FnOnce(&GridCells) -> Result<Vec<ExperimentResult>, E>,
) -> Result<SweepReport, E> {
    let cells = grid.cells()?;
    let results = run(&cells)?;
    assert_eq!(
        results.len(),
        cells.cells.len(),
        "a cell runner returns one result per cell"
    );
    let GridCells { specs, cells } = cells;
    Ok(SweepReport {
        schema: "ahn-sweep/1".into(),
        replications: grid.base.replications,
        cells: (specs.into_iter().zip(&cells).zip(&results))
            .map(|((spec, (config, case)), result)| cell_from_result(spec, config, case, result))
            .collect(),
    })
}

/// Renders a sweep report as an aligned text table. The scenario
/// column appears only when some cell carries a scenario coordinate,
/// so base-model sweep output is unchanged.
pub fn render_sweep_report(report: &SweepReport) -> String {
    use std::fmt::Write as _;
    let with_scenarios = report.cells.iter().any(|c| c.spec.scenario.is_some());
    let mut out = format!(
        "scenario sweep: {} cells x {} replications\n",
        report.cells.len(),
        report.replications
    );
    if with_scenarios {
        out.push_str("scenario           ");
    }
    out.push_str("case  payoff         size  block  cooperation (±95% CI)\n");
    for cell in &report.cells {
        if with_scenarios {
            let _ = write!(
                out,
                "{:<19}",
                cell.spec.scenario.as_deref().unwrap_or("base")
            );
        }
        let _ = writeln!(
            out,
            "  {:>3}  {:<13} {:>5}  {:>5}  {:>7} ± {:>5}",
            cell.spec.case_no,
            cell.spec.payoff,
            cell.spec.size,
            cell.spec.seed_block,
            ahn_stats::pct(cell.final_coop.mean().unwrap_or(0.0), 1),
            ahn_stats::pct(cell.final_coop.ci95_half_width().unwrap_or(0.0), 1),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;

    fn cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::smoke();
        c.population = 16;
        c.rounds = 30;
        c.generations = 20;
        c.replications = 3;
        c
    }

    /// Runs a sweep's cells as one batch: labels and final cooperation.
    fn run(cells: Vec<(String, Cell)>) -> Vec<(String, Summary)> {
        let (labels, cells): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        let results = crate::run_cells(&cells, None, |_| String::new());
        labels
            .into_iter()
            .zip(results.into_iter().map(|r| r.final_coop))
            .collect()
    }

    #[test]
    fn rounds_sweep_shows_the_defection_basin() {
        // At 8-participant scale the crossover sits between ~5 and ~40
        // rounds: the short-horizon end must do markedly worse.
        let case = CaseSpec::mini("r-sweep", &[0], 8, PathMode::Shorter);
        let points = run(sweep_rounds(&cfg(), &case, &[4, 40]));
        assert_eq!(points.len(), 2);
        let short = points[0].1.mean().unwrap();
        let long = points[1].1.mean().unwrap();
        assert!(
            long > short + 0.2,
            "reputation horizon should matter: R=4 -> {short:.2}, R=40 -> {long:.2}"
        );
    }

    #[test]
    fn csn_sweep_is_monotone_at_the_extremes() {
        let points = run(sweep_csn(&cfg(), 8, PathMode::Shorter, &[0.0, 0.5]));
        let clean = points[0].1.mean().unwrap();
        let half = points[1].1.mean().unwrap();
        assert!(clean > half, "CSN must hurt: {clean:.2} vs {half:.2}");
        assert_eq!(points[0].0, trim(0.0));
    }

    #[test]
    fn mutation_sweep_extreme_rates_destroy_convention() {
        let case = CaseSpec::mini("m-sweep", &[0], 8, PathMode::Shorter);
        let points = run(sweep_mutation(&cfg(), &case, &[0.001, 0.25]));
        let paper_rate = points[0].1.mean().unwrap();
        let scrambled = points[1].1.mean().unwrap();
        assert!(
            paper_rate > scrambled,
            "25% per-bit mutation should destroy conventions: {paper_rate:.2} vs {scrambled:.2}"
        );
    }

    #[test]
    fn render_is_aligned_and_complete() {
        let points = vec![
            (trim(300.0), [0.97, 0.99].into_iter().collect()),
            (trim(0.001), [0.5].into_iter().collect()),
        ];
        let text = render_sweep("demo", "rounds", &points);
        assert!(text.contains("300"));
        assert!(text.contains("0.001"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn csn_density_one_is_rejected() {
        let _ = sweep_csn(&cfg(), 8, PathMode::Shorter, &[1.0]);
    }

    fn grid_cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::smoke();
        c.generations = 3;
        c.replications = 2;
        c
    }

    #[test]
    fn scale_case_preserves_csn_fraction_and_mode() {
        // Case 2 is TE4 (30 of 50 = 60% CSN), shorter paths.
        let scaled = scale_case(2, 10).unwrap();
        assert_eq!(scaled.envs, vec![EnvironmentSpec::new(10, 6)]);
        assert_eq!(scaled.mode, PathMode::Shorter);
        assert_eq!(scaled.name, "case 2 @10");
        // Size 50 reproduces the paper environments exactly.
        assert_eq!(scale_case(4, 50).unwrap().envs, CaseSpec::paper(4).envs);
        // Too small to route.
        assert!(scale_case(1, 2).is_err());
    }

    #[test]
    fn payoff_variants_resolve_and_reject() {
        for name in PAYOFF_VARIANTS {
            payoff_variant(name).unwrap();
        }
        let err = payoff_variant("galactic").unwrap_err();
        assert!(err.contains("unknown payoff variant"), "{err}");
    }

    #[test]
    fn base_variant_passes_the_base_table_through() {
        let custom = PayoffConfig {
            forward: [0.3, 0.5, 1.0, 2.0],
            ..PayoffConfig::paper()
        };
        assert_eq!(resolve_payoff("base", &custom).unwrap(), custom);
        assert_eq!(
            resolve_payoff("paper", &custom).unwrap(),
            PayoffConfig::paper()
        );
        // A grid whose payoff axis is ["base"] evaluates the base
        // config's table in every cell.
        let mut base = grid_cfg();
        base.payoff = custom;
        let grid = SweepGrid {
            base,
            scenarios: None,
            cases: vec![1],
            payoffs: vec!["base".into()],
            sizes: vec![10],
            seed_blocks: vec![0],
        };
        grid.validate().unwrap();
        let (config, _) = grid.resolve(&grid.cell_specs()[0]).unwrap();
        assert_eq!(config.payoff, custom);
        // Unknown names still fail validation.
        let mut bad = grid;
        bad.payoffs = vec!["bass".into()];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn block_zero_is_the_identity() {
        assert_eq!(block_seed(42, 0), 42);
        assert_ne!(block_seed(42, 1), block_seed(42, 2));
        // Blocks are spaced far beyond any replication offset.
        assert!(block_seed(0, 1).abs_diff(block_seed(0, 0)) > 1 << 32);
    }

    #[test]
    fn grid_expands_in_deterministic_axis_order() {
        let grid = SweepGrid {
            base: grid_cfg(),
            scenarios: None,
            cases: vec![1, 2],
            payoffs: vec!["paper".into(), "literal-ocr".into()],
            sizes: vec![10, 12],
            seed_blocks: vec![0, 1],
        };
        assert_eq!(grid.cell_count(), 16);
        let specs = grid.cell_specs();
        assert_eq!(specs.len(), 16);
        assert_eq!(specs[0].case_no, 1);
        assert_eq!(specs[0].seed_block, 0);
        assert_eq!(specs[1].seed_block, 1, "seed blocks are innermost");
        assert_eq!(specs[15].case_no, 2);
        assert_eq!(specs[15].size, 12);
        grid.validate().unwrap();
    }

    #[test]
    fn grid_validation_rejects_bad_axes() {
        let ok = SweepGrid::new(grid_cfg(), &[1], &[10], 1);
        ok.validate().unwrap();
        let mut bad = ok.clone();
        bad.cases = vec![5];
        assert!(bad.validate().unwrap_err().contains("cases 1..=4"));
        let mut bad = ok.clone();
        bad.payoffs = vec!["x".into()];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.sizes = vec![];
        assert!(bad.validate().unwrap_err().contains("at least one value"));
        let mut bad = ok;
        bad.sizes = vec![2];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn cells_match_run_experiment_bit_for_bit() {
        // A cell is the same pure function ahn_serve runs for the
        // equivalent single-case job — so its summaries (and cache key)
        // must match run_experiment exactly.
        let grid = SweepGrid::new(grid_cfg(), &[1], &[10], 1);
        let report = run_sweep(&grid).unwrap();
        assert_eq!(report.cells.len(), 1);
        let (config, case) = grid.resolve(&grid.cell_specs()[0]).unwrap();
        let direct = run_experiment(&config, &case);
        assert_eq!(report.cells[0].final_coop, direct.final_coop);
        assert_eq!(report.cells[0].per_env_coop, direct.per_env_coop);
        assert_eq!(
            report.cells[0].config_hash,
            crate::config::canonical_hash(&(&config, &case)).unwrap()
        );
    }

    #[test]
    fn sweep_is_deterministic_and_serializable() {
        let grid = SweepGrid::new(grid_cfg(), &[1, 2], &[10, 12], 1);
        let a = run_sweep(&grid).unwrap();
        let b = run_sweep(&grid).unwrap();
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.cells.len(), 4);
        // Different seed blocks produce different trajectories.
        let shifted = SweepGrid {
            seed_blocks: vec![3],
            ..grid
        };
        let c = run_sweep(&shifted).unwrap();
        assert_ne!(a.cells[0].final_coop, c.cells[0].final_coop);
    }

    #[test]
    fn cell_from_result_matches_run_sweep_bit_for_bit() {
        // Case 1 has one environment and case 3 four, so cells finish
        // out of input order; each must still equal its own experiment.
        let grid = SweepGrid::new(grid_cfg(), &[1, 3], &[10], 2);
        let local = run_sweep(&grid).unwrap();
        for (spec, expected) in grid.cell_specs().into_iter().zip(&local.cells) {
            let (config, case) = grid.resolve(&spec).unwrap();
            let result = run_experiment(&config, &case);
            let rebuilt = cell_from_result(spec, &config, &case, &result);
            assert_eq!(&rebuilt, expected);
        }
    }

    #[test]
    fn sweep_render_lists_every_cell() {
        let grid = SweepGrid::new(grid_cfg(), &[1], &[10, 12], 1);
        let report = run_sweep(&grid).unwrap();
        let text = render_sweep_report(&report);
        assert_eq!(text.lines().count(), 2 + report.cells.len());
        assert!(text.contains("paper"), "{text}");
        assert!(text.contains("12"), "{text}");
    }
}
