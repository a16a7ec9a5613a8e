//! Reconstruction search: calibrating the OCR-garbled Fig. 2 payoff
//! table (and the GA's selection pressure) against the paper's reported
//! cooperation levels.
//!
//! # Why this exists
//!
//! Cases 1 and 3 of Table 4 reproduce closely with the default
//! reconstruction of the intermediate payoff table, but the harsh
//! regimes — case 2 (60 % CSN under shorter paths) and case 4 (longer
//! paths) — collapse to all-defect at paper scale, where the paper
//! reports 19 % and 54 % cooperation. The leading suspects are the
//! garbled Fig. 2 digits (`ahn_game::payoff` module docs) and the
//! unreported selection pressure. Instead of hand-tweaking, this module
//! searches the whole space the prose constraints allow:
//!
//! * **payoff axis** — every member of
//!   [`ahn_game::enumerate_reconstructions`]: permutations of the OCR
//!   digit multiset across the eight intermediate cells, one pool per
//!   reading of the garbled digit, constraint-filtered;
//! * **scale axis** — the surviving tables with both intermediate rows
//!   multiplied by each factor in `scales`
//!   ([`PayoffConfig::scaled_intermediate`]), varying the weight of
//!   per-decision payoffs against the fixed source payoff S = 5;
//! * **selection axis** — the named selection-pressure variants of
//!   [`SELECTION_VARIANTS`] (tournament sizes, elitism, roulette,
//!   linear ranking).
//!
//! Each candidate is evaluated across the configured paper cases as a
//! sweep grid ([`CalibrationGrid::sweep_for`]: one pure experiment per
//! case × seed-block cell), every candidate's cells in one batch of the
//! cell engine ([`crate::run_cells`] — so results are bit-identical
//! whatever `AHN_THREADS` says) and scored
//! with a deterministic loss: the L1 distance, summed over cases,
//! between its replication-averaged final cooperation and the paper's
//! targets ([`PAPER_TARGETS`]).
//!
//! The report ranks every candidate by loss, marks the Pareto front of
//! per-case errors (a candidate is on the front when no other candidate
//! is at least as close on every case and strictly closer on one), and
//! states — with numbers — whether any candidate sustains nonzero
//! cooperation in the harsh regimes. The front ends are `ahn-exp
//! calibrate` and `POST /v1/calibrations`; per-cell results flow through
//! the same cache keys as direct runs and sweeps, so repeated searches
//! hit the `ahn_serve` cache.

use crate::config::ExperimentConfig;
use crate::sweeps::{trim, SweepGrid, SweepReport, BASE_PAYOFF_VARIANT};
use ahn_ga::Selection;
use ahn_game::{enumerate_reconstructions, PayoffConfig};
use serde::{Deserialize, Serialize};

/// The paper's target final cooperation level per case (1–4), §6.2's
/// quoted numbers (the same reference values
/// `crate::report::fig4_summary` prints): 97 %, 19 %, 38 %, 54 %.
pub const PAPER_TARGETS: [f64; 4] = [0.97, 0.19, 0.38, 0.54];

/// The paper's target cooperation for one case (1–4).
///
/// # Panics
/// Panics unless `1 <= case_no <= 4` (like [`crate::CaseSpec::paper`]).
pub fn paper_target(case_no: usize) -> f64 {
    assert!(
        (1..=4).contains(&case_no),
        "the paper defines cases 1..=4, not {case_no}"
    );
    PAPER_TARGETS[case_no - 1]
}

/// Table 5's per-environment cooperation levels for case 3
/// (TE1..TE4).
pub const TABLE5_CASE3: [f64; 4] = [0.99, 0.66, 0.28, 0.19];

/// Table 5's per-environment cooperation levels for case 4
/// (TE1..TE4).
pub const TABLE5_CASE4: [f64; 4] = [0.99, 0.41, 0.07, 0.05];

/// The paper's per-environment cooperation targets, where it reports
/// them: the multi-environment cases 3 and 4 get Table 5's TE1–TE4
/// columns; the single-environment cases 1 and 2 have only the
/// aggregate §6.2 number ([`paper_target`]) and return `None`.
///
/// The per-environment view is the sharper yardstick for cases 3–4:
/// their aggregate cooperation averages environments with very
/// different equilibria, while Table 5 pins each environment
/// separately.
///
/// # Panics
/// Panics unless `1 <= case_no <= 4`.
pub fn per_env_targets(case_no: usize) -> Option<&'static [f64; 4]> {
    match case_no {
        1 | 2 => None,
        3 => Some(&TABLE5_CASE3),
        4 => Some(&TABLE5_CASE4),
        other => panic!("the paper defines cases 1..=4, not {other}"),
    }
}

/// The named selection-pressure variants of the search's selection
/// axis, resolvable via [`selection_variant`].
pub const SELECTION_VARIANTS: [&str; 6] = [
    "paper",
    "tournament-3",
    "tournament-4",
    "elitist-2",
    "roulette",
    "rank",
];

/// Resolves a named selection-pressure variant to `(operator, elitism)`.
///
/// `"paper"` is the paper's size-2 tournament with no elitism; the
/// others vary exactly one pressure knob at a time: larger tournaments
/// (`"tournament-3"`, `"tournament-4"`), two elite slots
/// (`"elitist-2"`), fitness-proportionate selection (`"roulette"`), and
/// linear ranking at pressure 1.8 (`"rank"`).
pub fn selection_variant(name: &str) -> Result<(Selection, usize), String> {
    match name {
        "paper" => Ok((Selection::paper(), 0)),
        "tournament-3" => Ok((Selection::Tournament { size: 3 }, 0)),
        "tournament-4" => Ok((Selection::Tournament { size: 4 }, 0)),
        "elitist-2" => Ok((Selection::paper(), 2)),
        "roulette" => Ok((Selection::Roulette, 0)),
        "rank" => Ok((Selection::Rank { pressure: 1.8 }, 0)),
        other => Err(format!(
            "unknown selection variant {other:?} (expected one of {SELECTION_VARIANTS:?})"
        )),
    }
}

/// The scored error of one case, given its replication-averaged
/// aggregate cooperation and per-environment cooperation levels: the
/// mean per-environment L1 distance to Table 5's column when the paper
/// reports one ([`per_env_targets`]), the distance to the aggregate
/// §6.2 number ([`paper_target`]) otherwise. Always finite for finite
/// inputs.
pub fn case_error(case_no: usize, aggregate_coop: f64, per_env_coop: &[f64]) -> f64 {
    match per_env_targets(case_no) {
        Some(env_targets) if per_env_coop.len() == env_targets.len() => {
            per_env_coop
                .iter()
                .zip(env_targets)
                .map(|(c, t)| (c - t).abs())
                .sum::<f64>()
                / env_targets.len() as f64
        }
        _ => (aggregate_coop - paper_target(case_no)).abs(),
    }
}

/// One candidate reconstruction: a concrete intermediate payoff table
/// (already scaled) plus a selection-pressure variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateSpec {
    /// Index in the full deterministic candidate order (before any
    /// `max_candidates` cap) — stable across runs, threads, processes.
    pub id: usize,
    /// The candidate intermediate payoff table, scale already applied.
    pub payoff: PayoffConfig,
    /// The scale factor applied to the enumerated table.
    pub scale: f64,
    /// Selection-variant name ([`SELECTION_VARIANTS`]).
    pub selection: String,
}

/// A reconstruction-search grid: payoff-table family × scale ×
/// selection variant, evaluated over `cases` × `seed_blocks` at network
/// size `size`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationGrid {
    /// Base configuration every candidate derives from (its own payoff
    /// table is replaced by each candidate's).
    pub base: ExperimentConfig,
    /// Paper case numbers to score against (1–4).
    pub cases: Vec<usize>,
    /// Scale factors applied to every enumerated table.
    pub scales: Vec<f64>,
    /// Selection-variant names ([`SELECTION_VARIANTS`]).
    pub selections: Vec<String>,
    /// Participants per tournament (the paper: 50; environments rescale
    /// preserving their CSN fraction, as in the sweep engine).
    pub size: usize,
    /// Seed-block indices ([`crate::sweeps::block_seed`]); per-case
    /// cooperation averages over blocks, so more blocks mean a smoother
    /// (and resumable, block-by-block cacheable) objective.
    pub seed_blocks: Vec<u64>,
    /// Deterministic cap on the candidate count (first `n` in candidate
    /// order); 0 means unlimited.
    pub max_candidates: usize,
}

impl CalibrationGrid {
    /// A small smoke-scale search (2 candidates × cases 1–2), used by
    /// tests, the bench row and the CI calibrate smoke.
    pub fn smoke() -> Self {
        let mut base = ExperimentConfig::smoke();
        base.generations = 4;
        base.replications = 2;
        CalibrationGrid {
            base,
            cases: vec![1, 2],
            scales: vec![1.0],
            selections: vec!["paper".into()],
            size: 10,
            seed_blocks: vec![0],
            max_candidates: 2,
        }
    }

    /// The full candidate list in deterministic order — enumerated
    /// tables outermost (their sorted order), then scales, then
    /// selection variants — truncated at `max_candidates` when nonzero.
    pub fn candidates(&self) -> Vec<CandidateSpec> {
        let tables = enumerate_reconstructions();
        let mut out = Vec::new();
        let mut id = 0usize;
        'outer: for table in &tables {
            for &scale in &self.scales {
                for selection in &self.selections {
                    if self.max_candidates > 0 && out.len() >= self.max_candidates {
                        break 'outer;
                    }
                    out.push(CandidateSpec {
                        id,
                        payoff: table.scaled_intermediate(scale),
                        scale,
                        selection: selection.clone(),
                    });
                    id += 1;
                }
            }
        }
        out
    }

    /// Candidates the grid will evaluate (after the cap).
    pub fn candidate_count(&self) -> usize {
        let full = enumerate_reconstructions()
            .len()
            .saturating_mul(self.scales.len())
            .saturating_mul(self.selections.len());
        if self.max_candidates > 0 {
            full.min(self.max_candidates)
        } else {
            full
        }
    }

    /// Total experiment cells the search implies
    /// (candidates × cases × seed blocks).
    pub fn cell_count(&self) -> usize {
        self.candidate_count()
            .saturating_mul(self.cases.len())
            .saturating_mul(self.seed_blocks.len())
    }

    /// Resolves one candidate to the base configuration its cells
    /// derive from: the candidate's payoff table and selection variant
    /// grafted onto `base`.
    pub fn resolve(&self, candidate: &CandidateSpec) -> Result<ExperimentConfig, String> {
        let (selection, elitism) = selection_variant(&candidate.selection)?;
        let mut config = self.base.clone();
        config.payoff = candidate.payoff;
        config.ga.selection = selection;
        config.ga.elitism = elitism;
        config.validate()?;
        Ok(config)
    }

    /// The per-candidate sweep grid: `cases` × the candidate's table
    /// (via the [`BASE_PAYOFF_VARIANT`] pass-through) × `size` ×
    /// `seed_blocks`. Because the sweep engine resolves each cell to a
    /// concrete `(config, case)` pair, a calibration cell shares its
    /// cache key with any direct run or sweep of the same inputs.
    pub fn sweep_for(&self, candidate: &CandidateSpec) -> Result<SweepGrid, String> {
        Ok(SweepGrid {
            base: self.resolve(candidate)?,
            scenarios: None,
            cases: self.cases.clone(),
            payoffs: vec![BASE_PAYOFF_VARIANT.into()],
            sizes: vec![self.size],
            seed_blocks: self.seed_blocks.clone(),
        })
    }

    /// Validates the axes and every candidate's implied sweep
    /// ([`SweepGrid::validate`]), so a bad search fails before any cell
    /// runs or is queued.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.cases.is_empty() || self.scales.is_empty() || self.selections.is_empty() {
            return Err("every calibration axis needs at least one value".into());
        }
        if self.seed_blocks.is_empty() {
            return Err("at least one seed block is required".into());
        }
        for &c in &self.cases {
            if !(1..=4).contains(&c) {
                return Err(format!("the paper defines cases 1..=4, not {c}"));
            }
        }
        for &s in &self.scales {
            if !(s.is_finite() && s > 0.0) {
                return Err(format!(
                    "scale factors must be positive and finite, not {s}"
                ));
            }
        }
        for name in &self.selections {
            selection_variant(name)?;
        }
        let candidates = self.candidates();
        if candidates.is_empty() {
            return Err("the candidate family is empty".into());
        }
        for candidate in &candidates {
            self.sweep_for(candidate)?.validate()?;
        }
        Ok(())
    }
}

/// One scored candidate of a finished search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateResult {
    /// The candidate that was evaluated.
    pub spec: CandidateSpec,
    /// Replication-averaged final cooperation per case (aligned with
    /// the grid's `cases`; averaged over seed blocks).
    pub per_case_coop: Vec<f64>,
    /// `|cooperation − target|` per case.
    pub per_case_error: Vec<f64>,
    /// The L1 loss: the sum of the per-case errors.
    pub loss: f64,
    /// Whether the candidate is on the Pareto front of per-case errors.
    pub pareto: bool,
    /// Canonical hash of the candidate's resolved base configuration
    /// (`crate::config::canonical_hash`), for correlating candidates
    /// across searches.
    pub config_hash: u64,
}

/// What the search says about one harsh regime (case 2 or 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarshRegimeFinding {
    /// The case number (2 or 4).
    pub case_no: usize,
    /// The paper's target cooperation for the case.
    pub target: f64,
    /// The highest replication-averaged cooperation any candidate
    /// reached in the case.
    pub best_coop: f64,
    /// The candidate id reaching `best_coop`.
    pub best_candidate: usize,
    /// Whether that best exceeds the 5 % noise floor — i.e. whether
    /// *any* constraint-satisfying reconstruction sustains nonzero
    /// cooperation in the regime at the searched scale.
    pub sustained: bool,
}

/// A completed reconstruction search. Pure data: two runs of the same
/// grid serialize to identical bytes whatever `AHN_THREADS` says (the
/// CI calibrate smoke pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Report schema tag (`"ahn-calibrate/1"`).
    pub schema: String,
    /// The cases scored, in grid order.
    pub cases: Vec<usize>,
    /// The paper's target per scored case (aligned with `cases`).
    pub targets: Vec<f64>,
    /// Replications per cell (from the base config).
    pub replications: usize,
    /// Seed blocks averaged into each per-case cooperation.
    pub seed_blocks: usize,
    /// Participants per tournament.
    pub size: usize,
    /// Every evaluated candidate, ranked by ascending loss (ties broken
    /// by candidate id).
    pub candidates: Vec<CandidateResult>,
    /// Per-harsh-regime findings (cases 2 and 4, when searched).
    pub harsh: Vec<HarshRegimeFinding>,
    /// One-line deterministic statement of the harsh-regime outcome,
    /// with numbers.
    pub summary: String,
}

/// The cooperation level below which a harsh regime counts as collapsed
/// (all-defect populations measure a few percent residual forwarding
/// before conventions die out).
pub const SUSTAINED_FLOOR: f64 = 0.05;

/// Runs the full search: every candidate evaluated over the grid's
/// cases and seed blocks (all candidates' cells in one batch of the
/// cell engine), scored, ranked and summarized.
///
/// # Errors
/// Errors when the grid fails [`CalibrationGrid::validate`]; never
/// errors mid-search.
pub fn run_calibration(grid: &CalibrationGrid) -> Result<CalibrationReport, String> {
    run_calibration_traced(grid, None)
}

/// [`run_calibration`], traced into `trace` when one is given: every
/// cell emits `cell_start`, `generation` and `cell_done` spans as in
/// [`crate::sweeps::run_sweep_traced`]; either way the report is
/// bit-identical.
///
/// # Errors
/// Errors when the grid fails [`CalibrationGrid::validate`]; never
/// errors mid-search.
pub fn run_calibration_traced(
    grid: &CalibrationGrid,
    trace: Option<&ahn_obs::TraceLog>,
) -> Result<CalibrationReport, String> {
    grid.validate()?;
    let sweeps = (grid.candidates().iter())
        .map(|candidate| grid.sweep_for(candidate))
        .collect::<Result<Vec<_>, _>>()?;
    score_calibration(grid, &crate::sweeps::run_grids(&sweeps, trace))
}

/// Scores per-candidate sweep reports into the final ranked report —
/// the deterministic back half of [`run_calibration`], split out so a
/// distributed coordinator that assembled each candidate's sweep from
/// remotely computed cells ([`crate::sweeps::merge_sweep`]) reproduces
/// the exact single-process report, Pareto front included.
///
/// `sweeps[i]` must be the evaluated sweep of `grid.candidates()[i]`
/// ([`CalibrationGrid::sweep_for`]).
///
/// # Errors
/// Errors when the grid is invalid or `sweeps` doesn't line up with the
/// candidate list (wrong count, wrong cell count per candidate).
pub fn score_calibration(
    grid: &CalibrationGrid,
    sweeps: &[SweepReport],
) -> Result<CalibrationReport, String> {
    grid.validate()?;
    let candidates = grid.candidates();
    let n_cases = grid.cases.len();
    let n_blocks = grid.seed_blocks.len();
    let targets: Vec<f64> = grid.cases.iter().map(|&c| paper_target(c)).collect();
    if sweeps.len() != candidates.len() {
        return Err(format!(
            "{} sweep reports for {} candidates",
            sweeps.len(),
            candidates.len()
        ));
    }

    let mut results: Vec<CandidateResult> = Vec::with_capacity(candidates.len());
    for (candidate, report) in candidates.into_iter().zip(sweeps) {
        let sweep = grid.sweep_for(&candidate)?;
        if report.cells.len() != n_cases * n_blocks {
            return Err(format!(
                "candidate {} sweep has {} cells, expected {}",
                candidate.id,
                report.cells.len(),
                n_cases * n_blocks
            ));
        }
        // Cells arrive cases-outermost, seed-blocks-innermost.
        let per_case_coop: Vec<f64> = (0..n_cases)
            .map(|ci| {
                let blocks = &report.cells[ci * n_blocks..(ci + 1) * n_blocks];
                blocks
                    .iter()
                    .map(|cell| cell.final_coop.mean().unwrap_or(0.0))
                    .sum::<f64>()
                    / n_blocks as f64
            })
            .collect();
        // A case's error: against its aggregate §6.2 target for the
        // single-environment cases; the mean per-environment distance to
        // Table 5's column for the multi-environment cases (which an
        // aggregate would blur) — see [`case_error`].
        let per_case_error: Vec<f64> = (0..n_cases)
            .map(|ci| {
                let blocks = &report.cells[ci * n_blocks..(ci + 1) * n_blocks];
                let n_envs = blocks[0].per_env_coop.len();
                let per_env: Vec<f64> = (0..n_envs)
                    .map(|e| {
                        blocks
                            .iter()
                            .map(|cell| cell.per_env_coop[e].mean().unwrap_or(0.0))
                            .sum::<f64>()
                            / n_blocks as f64
                    })
                    .collect();
                case_error(grid.cases[ci], per_case_coop[ci], &per_env)
            })
            .collect();
        let loss = per_case_error.iter().sum();
        let config_hash = crate::config::canonical_hash(&sweep.base).unwrap_or(0);
        results.push(CandidateResult {
            spec: candidate,
            per_case_coop,
            per_case_error,
            loss,
            pareto: false,
            config_hash,
        });
    }

    // Pareto front of per-case errors: dominated means some other
    // candidate is at least as close on every case and strictly closer
    // on at least one.
    for i in 0..results.len() {
        let dominated = (0..results.len()).any(|j| {
            j != i
                && results[j]
                    .per_case_error
                    .iter()
                    .zip(&results[i].per_case_error)
                    .all(|(ej, ei)| ej <= ei)
                && results[j]
                    .per_case_error
                    .iter()
                    .zip(&results[i].per_case_error)
                    .any(|(ej, ei)| ej < ei)
        });
        results[i].pareto = !dominated;
    }

    results.sort_by(|a, b| a.loss.total_cmp(&b.loss).then(a.spec.id.cmp(&b.spec.id)));

    let harsh: Vec<HarshRegimeFinding> = [2usize, 4]
        .into_iter()
        .filter_map(|case_no| {
            let ci = grid.cases.iter().position(|&c| c == case_no)?;
            let (best_candidate, best_coop) = results
                .iter()
                .map(|r| (r.spec.id, r.per_case_coop[ci]))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))?;
            Some(HarshRegimeFinding {
                case_no,
                target: paper_target(case_no),
                best_coop,
                best_candidate,
                sustained: best_coop > SUSTAINED_FLOOR,
            })
        })
        .collect();

    let summary = if harsh.is_empty() {
        format!(
            "no harsh regime (case 2 or 4) in the searched cases {:?}",
            grid.cases
        )
    } else {
        harsh
            .iter()
            .map(|h| {
                format!(
                    "case {}: best candidate (#{}) reaches {} cooperation vs the paper's {} — {}",
                    h.case_no,
                    h.best_candidate,
                    ahn_stats::pct(h.best_coop, 1),
                    ahn_stats::pct(h.target, 1),
                    if h.sustained {
                        "cooperation sustained"
                    } else {
                        "no constraint-satisfying reconstruction sustains cooperation"
                    }
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    };

    Ok(CalibrationReport {
        schema: "ahn-calibrate/1".into(),
        cases: grid.cases.clone(),
        targets,
        replications: grid.base.replications,
        seed_blocks: n_blocks,
        size: grid.size,
        candidates: results,
        harsh,
        summary,
    })
}

/// Renders a calibration report as an aligned text table (best
/// candidates first), followed by the harsh-regime summary.
pub fn render_calibration_report(report: &CalibrationReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "reconstruction search: {} candidates x {} cases x {} seed blocks \
         ({} replications, {}-node tournaments)\n",
        report.candidates.len(),
        report.cases.len(),
        report.seed_blocks,
        report.replications,
        report.size
    );
    let _ = write!(
        out,
        "rank    id  selection     scale  forward           discard          "
    );
    for case in &report.cases {
        let _ = write!(out, "  c{case}");
    }
    out.push_str("    loss  front\n");
    let row4 = |row: &[f64; 4]| {
        format!(
            "{:<4} {:<4} {:<4} {:<4}",
            trim(row[0]),
            trim(row[1]),
            trim(row[2]),
            trim(row[3])
        )
    };
    for (rank, r) in report.candidates.iter().enumerate() {
        let _ = write!(
            out,
            "{:>4}  {:>4}  {:<12} {:>6}  {} {}",
            rank + 1,
            r.spec.id,
            r.spec.selection,
            trim(r.spec.scale),
            row4(&r.spec.payoff.forward),
            row4(&r.spec.payoff.discard),
        );
        for coop in &r.per_case_coop {
            let _ = write!(out, " {:>4}", ahn_stats::pct(*coop, 0));
        }
        let _ = writeln!(
            out,
            "  {:>6.3}  {}",
            r.loss,
            if r.pareto { "*" } else { "" }
        );
    }
    let _ = write!(out, "targets:");
    for (case, target) in report.cases.iter().zip(&report.targets) {
        let _ = write!(out, "  c{case} {}", ahn_stats::pct(*target, 0));
    }
    out.push('\n');
    let _ = writeln!(out, "{}", report.summary);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_match_the_paper() {
        assert_eq!(paper_target(1), 0.97);
        assert_eq!(paper_target(2), 0.19);
        assert_eq!(paper_target(3), 0.38);
        assert_eq!(paper_target(4), 0.54);
    }

    #[test]
    #[should_panic(expected = "cases 1..=4")]
    fn target_for_case_5_panics() {
        paper_target(5);
    }

    #[test]
    fn selection_variants_resolve_and_reject() {
        for name in SELECTION_VARIANTS {
            let (selection, elitism) = selection_variant(name).unwrap();
            selection.validate().unwrap();
            assert!(elitism <= 2);
        }
        assert_eq!(selection_variant("paper").unwrap(), (Selection::paper(), 0));
        assert_eq!(selection_variant("elitist-2").unwrap().1, 2);
        let err = selection_variant("galactic").unwrap_err();
        assert!(err.contains("unknown selection variant"), "{err}");
    }

    #[test]
    fn candidate_order_is_deterministic_and_capped() {
        let mut grid = CalibrationGrid::smoke();
        grid.scales = vec![1.0, 2.0];
        grid.selections = vec!["paper".into(), "roulette".into()];
        grid.max_candidates = 0;
        let all = grid.candidates();
        assert_eq!(all.len(), grid.candidate_count());
        // ids are the enumeration order and the axes nest as documented:
        // scales outer, selections inner, per table.
        assert_eq!(all[0].id, 0);
        assert_eq!((all[0].scale, all[0].selection.as_str()), (1.0, "paper"));
        assert_eq!((all[1].scale, all[1].selection.as_str()), (1.0, "roulette"));
        assert_eq!((all[2].scale, all[2].selection.as_str()), (2.0, "paper"));
        assert_eq!(all[3].payoff, all[0].payoff.scaled_intermediate(2.0));
        // The cap takes a prefix.
        grid.max_candidates = 3;
        assert_eq!(grid.candidates(), all[..3].to_vec());
        assert_eq!(grid.candidate_count(), 3);
        assert_eq!(grid.cell_count(), 6); // 3 candidates x 2 cases x 1 block
    }

    #[test]
    fn resolve_grafts_payoff_and_selection() {
        let mut grid = CalibrationGrid::smoke();
        grid.selections = vec!["elitist-2".into()];
        let candidate = &grid.candidates()[0];
        let config = grid.resolve(candidate).unwrap();
        assert_eq!(config.payoff, candidate.payoff);
        assert_eq!(config.ga.selection, Selection::paper());
        assert_eq!(config.ga.elitism, 2);
        // Everything else is untouched.
        assert_eq!(config.population, grid.base.population);
        assert_eq!(config.base_seed, grid.base.base_seed);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let ok = CalibrationGrid::smoke();
        ok.validate().unwrap();
        let mut bad = ok.clone();
        bad.cases = vec![7];
        assert!(bad.validate().unwrap_err().contains("cases 1..=4"));
        let mut bad = ok.clone();
        bad.scales = vec![-1.0];
        assert!(bad.validate().unwrap_err().contains("positive"));
        let mut bad = ok.clone();
        bad.scales = vec![f64::NAN];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.selections = vec!["x".into()];
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.seed_blocks = vec![];
        assert!(bad.validate().unwrap_err().contains("seed block"));
        let mut bad = ok.clone();
        bad.cases = vec![];
        assert!(bad.validate().unwrap_err().contains("at least one value"));
        let mut bad = ok;
        bad.size = 2;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn calibration_runs_ranks_and_is_deterministic() {
        let grid = CalibrationGrid::smoke();
        let a = run_calibration(&grid).unwrap();
        let b = run_calibration(&grid).unwrap();
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        let back: CalibrationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);

        assert_eq!(a.candidates.len(), 2);
        assert_eq!(a.cases, vec![1, 2]);
        assert_eq!(a.targets, vec![0.97, 0.19]);
        // Ranked ascending by loss.
        assert!(a.candidates[0].loss <= a.candidates[1].loss);
        for r in &a.candidates {
            assert!(r.loss.is_finite());
            assert_eq!(r.per_case_coop.len(), 2);
            assert_eq!(r.per_case_error.len(), 2);
            let expect: f64 = r.per_case_error.iter().sum();
            assert_eq!(r.loss, expect);
            assert!(r.config_hash != 0);
            r.spec.payoff.check_paper_constraints().unwrap();
        }
        // The best-loss candidate is never dominated.
        assert!(a.candidates[0].pareto);
        // Case 2 is searched, so the harsh finding reports it.
        assert_eq!(a.harsh.len(), 1);
        assert_eq!(a.harsh[0].case_no, 2);
        assert!(a.summary.contains("case 2"), "{}", a.summary);
    }

    #[test]
    fn score_calibration_reproduces_run_calibration_and_checks_shape() {
        let grid = CalibrationGrid::smoke();
        // Scoring locally-run sweeps is exactly run_calibration.
        let sweeps: Vec<_> = grid
            .candidates()
            .iter()
            .map(|c| crate::run_sweep(&grid.sweep_for(c).unwrap()).unwrap())
            .collect();
        let scored = score_calibration(&grid, &sweeps).unwrap();
        let direct = run_calibration(&grid).unwrap();
        assert_eq!(scored, direct);
        assert_eq!(
            serde_json::to_string(&scored).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        // Misaligned inputs fail loudly instead of mis-scoring.
        let err = score_calibration(&grid, &sweeps[..1]).unwrap_err();
        assert!(err.contains("sweep reports"), "{err}");
        let mut short = sweeps.clone();
        short[1].cells.pop();
        let err = score_calibration(&grid, &short).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn calibration_cells_share_cache_keys_with_direct_runs() {
        // A calibration cell resolves to exactly the (config, case)
        // pair a direct run_experiment of the candidate would use — the
        // property the serve cache relies on.
        let grid = CalibrationGrid::smoke();
        let candidate = &grid.candidates()[0];
        let sweep = grid.sweep_for(candidate).unwrap();
        let (config, case) = sweep.resolve(&sweep.cell_specs()[0]).unwrap();
        assert_eq!(config.payoff, candidate.payoff);
        let direct = crate::experiment::run_experiment(&config, &case);
        let report = run_calibration(&grid).unwrap();
        let cell_coop = report
            .candidates
            .iter()
            .find(|r| r.spec.id == candidate.id)
            .unwrap()
            .per_case_coop[0];
        assert_eq!(cell_coop, direct.final_coop.mean().unwrap());
    }

    #[test]
    fn render_lists_every_candidate_and_the_summary() {
        let report = run_calibration(&CalibrationGrid::smoke()).unwrap();
        let text = render_calibration_report(&report);
        assert_eq!(
            text.lines().count(),
            2 + report.candidates.len() + 2,
            "{text}"
        );
        assert!(text.contains("paper"), "{text}");
        assert!(text.contains("targets:"), "{text}");
        assert!(text.contains("case 2"), "{text}");
    }
}
