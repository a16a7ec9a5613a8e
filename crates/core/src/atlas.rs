//! The attack/defense atlas: every scenario against every defense.
//!
//! The headline artifact of the adversary zoo — a cumulative grid
//! answering "which defenses hold against which attacks?". Rows are
//! the registry's scenarios ([`crate::scenarios::builtin_scenarios`]);
//! columns are the three defense postures the substrate implements:
//!
//! * `watchdog` — first-hand observation only (the paper's model);
//! * `core` — CORE-style positive-only gossip;
//! * `confidant` — CONFIDANT-style full gossip.
//!
//! Every cell is one experiment at a fixed smoke scale, bit-identical
//! to [`crate::run_experiment`] on the cell's resolved `(config, case)`,
//! so the whole atlas is a pure function of its [`AtlasGrid`]: two
//! runs — at any `AHN_THREADS` — serialize to identical bytes, which is
//! what lets CI regenerate the committed `atlas.json` and fail on drift.
//!
//! A defense *holds* when the scenario keeps at least
//! [`HOLD_FRACTION`] of the cooperation the base scenario reaches
//! under the same defense (an attack is judged by the damage it does
//! relative to peacetime, not by an absolute bar that network size
//! would dominate).

use crate::cases::CaseSpec;
use crate::config::ExperimentConfig;
use crate::scenarios::{resolve_scenario, Scenario};
use ahn_net::{GossipConfig, PathMode};
use ahn_stats::Summary;
use serde::{Deserialize, Serialize};

/// Atlas report schema tag.
pub const ATLAS_SCHEMA: &str = "ahn-atlas/1";

/// The defense columns, in report order.
pub const DEFENSES: [&str; 3] = ["watchdog", "core", "confidant"];

/// A defense holds when cooperation stays at or above this fraction of
/// the base scenario's cooperation under the same defense.
pub const HOLD_FRACTION: f64 = 2.0 / 3.0;

/// Resolves a defense column to the gossip posture it configures.
pub fn resolve_defense(name: &str) -> Result<Option<GossipConfig>, String> {
    match name {
        "watchdog" => Ok(None),
        "core" => Ok(Some(GossipConfig::core_style())),
        "confidant" => Ok(Some(GossipConfig::confidant_style())),
        other => Err(format!(
            "unknown defense {other:?} (expected one of {DEFENSES:?})"
        )),
    }
}

/// The pure inputs of one atlas: a base configuration, the network
/// size, and the scenario rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasGrid {
    /// Base configuration each cell derives from (gossip is overridden
    /// per defense column).
    pub base: ExperimentConfig,
    /// Participants per tournament.
    pub size: usize,
    /// Scenario rows, by registry name.
    pub scenarios: Vec<String>,
}

impl AtlasGrid {
    /// The committed smoke-scale atlas: every registry scenario at 10
    /// participants, with rounds stretched to 150 so the phased
    /// behaviors (on-off cycles, whitewashing periods) actually fire
    /// inside a tournament, and enough generations and replications
    /// for the base row to reach its cooperative regime — while CI
    /// still regenerates the whole grid in seconds.
    pub fn smoke() -> Self {
        let mut base = ExperimentConfig::smoke();
        base.rounds = 150;
        base.generations = 25;
        base.replications = 3;
        AtlasGrid {
            base,
            size: 10,
            scenarios: crate::scenarios::builtin_scenarios()
                .into_iter()
                .map(|s| s.name)
                .collect(),
        }
    }

    /// The environment every row starts from: a CSN-free world of
    /// `size` participants (each scenario then installs its own
    /// attacker mix), shortest-path routing.
    fn case(&self) -> CaseSpec {
        CaseSpec::mini("atlas", &[0], self.size, PathMode::Shorter)
    }

    /// Validates the grid without running anything: every scenario row
    /// resolves, and its cell passes [`crate::check_cell`]. The defense
    /// columns of a row differ only in gossip, which no check reads, so
    /// one check per row covers all of them.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.scenarios.is_empty() {
            return Err("an atlas needs at least one scenario row".into());
        }
        let case = self.case();
        for name in &self.scenarios {
            let (config, case) = resolve_scenario(name)?.apply(&self.base, &case)?;
            crate::check_cell(&config, &case)?;
        }
        Ok(())
    }
}

/// One defense column of one scenario row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasCell {
    /// Defense column name (see [`DEFENSES`]).
    pub defense: String,
    /// Final-generation cooperation across replications.
    pub cooperation: Summary,
    /// Whether the defense holds (see [`HOLD_FRACTION`]).
    pub holds: bool,
}

/// One scenario row of the atlas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasRow {
    /// Scenario name.
    pub scenario: String,
    /// The scenario's canonical hash, in hex (a stable identity for
    /// correlating atlas rows across revisions of the registry).
    pub scenario_hash: String,
    /// The scenario's one-line summary.
    pub summary: String,
    /// Total attacker share of each tournament.
    pub attacker_share: f64,
    /// One cell per defense, in [`DEFENSES`] order.
    pub cells: Vec<AtlasCell>,
}

/// A completed atlas. Pure data — byte-identical across runs and
/// thread counts for the same grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasReport {
    /// Report schema tag ([`ATLAS_SCHEMA`]).
    pub schema: String,
    /// Participants per tournament.
    pub size: usize,
    /// Tournament rounds per generation.
    pub rounds: usize,
    /// Replications behind every cell.
    pub replications: usize,
    /// Scenario rows, in grid order.
    pub rows: Vec<AtlasRow>,
}

/// Runs the full atlas grid. All `rows × columns` cells run as one
/// batch of the cell engine ([`crate::run_cells`]), each cell
/// bit-identical to [`crate::run_experiment`] on its inputs, so the
/// report is deterministic at any `AHN_THREADS`.
///
/// # Errors
/// Errors when the grid fails [`AtlasGrid::validate`]; never errors
/// mid-run.
pub fn run_atlas(grid: &AtlasGrid) -> Result<AtlasReport, String> {
    grid.validate()?;
    crate::threads::log_once("atlas");
    let case = grid.case();
    let scenarios: Vec<Scenario> = grid
        .scenarios
        .iter()
        .map(|name| resolve_scenario(name))
        .collect::<Result<_, _>>()?;
    // Evaluate every (scenario, defense) cell, then judge each against
    // the base row under the same defense. Without a base row, "holds"
    // falls back to an absolute bar at HOLD_FRACTION.
    let mut cells = Vec::with_capacity(scenarios.len() * DEFENSES.len());
    for scenario in &scenarios {
        for defense in DEFENSES {
            let mut config = grid.base.clone();
            config.gossip = resolve_defense(defense)?;
            cells.push(scenario.apply(&config, &case)?);
        }
    }
    // The atlas is never traced, so no cell needs a span description.
    let coops: Vec<Summary> = crate::cells::run_cells(&cells, None, |_| String::new())
        .into_iter()
        .map(|result| result.final_coop)
        .collect();
    let raw: Vec<&[Summary]> = coops.chunks(DEFENSES.len()).collect();
    let base_row = scenarios
        .iter()
        .position(|s| s.attackers.is_none() && s.name == "base");
    let rows = scenarios
        .iter()
        .zip(&raw)
        .map(|(scenario, row)| AtlasRow {
            scenario: scenario.name.clone(),
            scenario_hash: format!("{:016x}", scenario.canonical_hash()),
            summary: scenario.summary.clone(),
            attacker_share: scenario.attacker_share(),
            cells: DEFENSES
                .iter()
                .zip(row.iter())
                .enumerate()
                .map(|(col, (&defense, coop))| {
                    let bar = match base_row {
                        Some(b) => HOLD_FRACTION * raw[b][col].mean().unwrap_or(0.0),
                        None => HOLD_FRACTION,
                    };
                    AtlasCell {
                        defense: defense.into(),
                        cooperation: coop.clone(),
                        holds: coop.mean().unwrap_or(0.0) >= bar,
                    }
                })
                .collect(),
        })
        .collect();
    Ok(AtlasReport {
        schema: ATLAS_SCHEMA.into(),
        size: grid.size,
        rounds: grid.base.rounds,
        replications: grid.base.replications,
        rows,
    })
}

/// Renders the atlas as the committed `ATLAS.md` markdown: a header
/// documenting scale and regeneration, then one table row per
/// scenario with `✓` (holds) / `✗` (breaks) per defense.
pub fn render_atlas(report: &AtlasReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Attack/defense atlas\n");
    let _ = writeln!(
        out,
        "Which defenses hold against which attacks — every scenario in the\n\
         registry (`ahn-exp scenario list`) against every defense posture.\n"
    );
    let _ = writeln!(
        out,
        "* Scale: {} participants per tournament, {} rounds, {} replications\n\
         * A defense **holds** (✓) when cooperation stays ≥ {:.0}% of the base\n\
         \x20 scenario's cooperation under the same defense\n\
         * Regenerate: `ahn-exp atlas --out ATLAS.md --json atlas.json`\n\
         \x20 (byte-stable; CI diffs this file against a fresh run)\n",
        report.size,
        report.rounds,
        report.replications,
        HOLD_FRACTION * 100.0
    );
    let mut header = String::from("| scenario | share | hash |");
    let mut rule = String::from("|---|---|---|");
    for defense in DEFENSES {
        let _ = write!(header, " {defense} |");
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}\n{rule}");
    for row in &report.rows {
        let _ = write!(
            out,
            "| {} | {:.0}% | `{}` |",
            row.scenario,
            row.attacker_share * 100.0,
            &row.scenario_hash[..8],
        );
        for cell in &row.cells {
            let _ = write!(
                out,
                " {} {} |",
                ahn_stats::pct(cell.cooperation.mean().unwrap_or(0.0), 1),
                if cell.holds { "✓" } else { "✗" },
            );
        }
        out.push('\n');
    }
    out.push('\n');
    for row in &report.rows {
        let _ = writeln!(out, "* **{}** — {}", row.scenario, row.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-row, 3-column grid small enough for a unit test.
    fn tiny_grid() -> AtlasGrid {
        let mut grid = AtlasGrid::smoke();
        grid.base.rounds = 60;
        grid.base.generations = 4;
        grid.base.replications = 1;
        grid.scenarios = vec!["base".into(), "selfish-majority".into()];
        grid
    }

    #[test]
    fn smoke_grid_validates_with_every_builtin_scenario() {
        AtlasGrid::smoke().validate().unwrap();
    }

    #[test]
    fn unknown_rows_and_defenses_fail_fast() {
        let mut grid = tiny_grid();
        grid.scenarios.push("nope".into());
        assert!(grid.validate().is_err());
        assert!(resolve_defense("nope").is_err());
        assert_eq!(resolve_defense("watchdog").unwrap(), None);
    }

    #[test]
    fn atlas_is_deterministic_and_base_holds_by_construction() {
        let grid = tiny_grid();
        let a = run_atlas(&grid).unwrap();
        let b = run_atlas(&grid).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(a.schema, ATLAS_SCHEMA);
        assert_eq!(a.rows.len(), 2);
        let base = &a.rows[0];
        assert_eq!(base.scenario, "base");
        assert_eq!(base.attacker_share, 0.0);
        assert!(base.cells.iter().all(|c| c.holds), "base vs itself");
        assert_eq!(
            a.rows[1]
                .cells
                .iter()
                .map(|c| &c.defense)
                .collect::<Vec<_>>(),
            vec!["watchdog", "core", "confidant"]
        );
    }

    #[test]
    fn every_cell_equals_run_experiment_on_its_resolved_inputs() {
        // Cells run in parallel, each folding its replications serially;
        // with two replications a cell must still be exactly the
        // experiment a direct call computes.
        let mut grid = tiny_grid();
        grid.base.replications = 2;
        let report = run_atlas(&grid).unwrap();
        for (row, name) in report.rows.iter().zip(&grid.scenarios) {
            let scenario = resolve_scenario(name).unwrap();
            for cell in &row.cells {
                let mut config = grid.base.clone();
                config.gossip = resolve_defense(&cell.defense).unwrap();
                let (config, case) = scenario.apply(&config, &grid.case()).unwrap();
                let direct = crate::run_experiment(&config, &case).final_coop;
                assert_eq!(cell.cooperation, direct, "{name} / {}", cell.defense);
            }
        }
    }

    #[test]
    fn render_mentions_every_row_and_the_regen_command() {
        let report = run_atlas(&tiny_grid()).unwrap();
        let md = render_atlas(&report);
        assert!(md.contains("| base |"), "{md}");
        assert!(md.contains("| selfish-majority |"), "{md}");
        assert!(md.contains("ahn-exp atlas --out ATLAS.md --json atlas.json"));
        assert!(md.contains("✓") || md.contains("✗"));
    }
}
