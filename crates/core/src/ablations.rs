//! Design-choice ablations A1–A6 (DESIGN.md §3).
//!
//! Every ablation varies one knob of the same experiment and returns
//! the labeled `(config, case)` cells, which the caller runs as one
//! batch of the cell engine ([`crate::run_cells`]) and prints side by
//! side with [`render_variants`]. They are ordinary experiments —
//! expensive at paper scale, fast under the `scaled`/`smoke` presets.

use crate::cases::CaseSpec;
use crate::cells::{vary, Cell};
use crate::config::{ExperimentConfig, StrategyCodec};
use ahn_ga::Selection;
use ahn_game::PayoffConfig;
use ahn_net::{GossipConfig, TrustTable};
use ahn_stats::Summary;

/// A1 — payoff-table reading: reconstructed paper table vs. the literal
/// OCR table vs. a no-reputation table.
pub fn ablate_payoff(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let tables = [
        ("paper (reconstructed)", PayoffConfig::paper()),
        ("best fit (PR-5 search)", PayoffConfig::best_fit()),
        ("literal OCR", PayoffConfig::literal_ocr()),
        ("no reputation response", PayoffConfig::no_reputation()),
    ];
    vary(base, case, tables, |c, payoff| c.payoff = payoff)
}

/// A2 — activity dimension: the full 13-bit chromosome vs. the 5-bit
/// trust-only reduction.
pub fn ablate_activity(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let codecs = [
        ("13-bit (trust x activity)", StrategyCodec::Full),
        ("5-bit (trust only)", StrategyCodec::TrustOnly),
    ];
    vary(base, case, codecs, |c, codec| c.codec = codec)
}

/// A3 — selection operator: the paper's size-2 tournament vs. the IPDRP
/// reference's roulette.
pub fn ablate_selection(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let operators = [
        ("tournament (paper)", Selection::paper()),
        ("roulette (IPDRP ref)", Selection::Roulette),
    ];
    vary(base, case, operators, |c, selection| {
        c.ga.selection = selection
    })
}

/// A5 — trust-table thresholds: the paper's bins vs. a coarser and a
/// stricter binning.
pub fn ablate_trust_table(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let tables = [
        ("paper (0.3/0.6/0.9)", TrustTable::paper()),
        (
            "coarse (0.2/0.5/0.8)",
            TrustTable {
                t1: 0.2,
                t2: 0.5,
                t3: 0.8,
                ..TrustTable::paper()
            },
        ),
        (
            "strict (0.5/0.75/0.95)",
            TrustTable {
                t1: 0.5,
                t2: 0.75,
                t3: 0.95,
                ..TrustTable::paper()
            },
        ),
    ];
    vary(base, case, tables, |c, trust| c.trust = trust)
}

/// A6 — unknown-node bit: evolved freely vs. pinned to forward vs. pinned
/// to discard (the paper observes the free bit converges to forward).
pub fn ablate_unknown(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let pins = [
        ("free (paper)", None),
        ("pinned forward", Some(true)),
        ("pinned discard", Some(false)),
    ];
    vary(base, case, pins, |c, force| c.force_unknown = force)
}

/// A7 — second-hand reputation: first-hand only (paper) vs CORE-style
/// positive gossip vs CONFIDANT-style full gossip.
pub fn ablate_gossip(base: &ExperimentConfig, case: &CaseSpec) -> Vec<(String, Cell)> {
    let policies = [
        ("first-hand only (paper)", None),
        ("positive gossip (CORE)", Some(GossipConfig::core_style())),
        (
            "full gossip (CONFIDANT)",
            Some(GossipConfig::confidant_style()),
        ),
    ];
    vary(base, case, policies, |c, gossip| c.gossip = gossip)
}

/// Renders an ablation comparison as a small table of final cooperation
/// levels, one `(label, final cooperation)` row per variant.
pub fn render_variants(title: &str, rows: &[(String, Summary)]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{title}\n");
    for (label, cooperation) in rows {
        let _ = writeln!(
            out,
            "  {:<28} final cooperation {:>6}",
            label,
            ahn_stats::pct(cooperation.mean().unwrap_or(0.0), 1),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentResult;
    use ahn_net::PathMode;

    fn base() -> ExperimentConfig {
        let mut c = ExperimentConfig::smoke();
        c.replications = 2;
        c.generations = 6;
        c
    }

    fn case() -> CaseSpec {
        CaseSpec::mini("ablation", &[2], 8, PathMode::Shorter)
    }

    /// Runs an ablation's cells as one batch: labels and results.
    fn run(cells: Vec<(String, Cell)>) -> (Vec<String>, Vec<ExperimentResult>) {
        let (labels, cells): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        (labels, crate::run_cells(&cells, None, |_| String::new()))
    }

    #[test]
    fn payoff_ablation_produces_four_variants() {
        let (labels, results) = run(ablate_payoff(&base(), &case()));
        assert_eq!(labels.len(), 4);
        assert!(labels[0].contains("paper"));
        assert!(labels[1].contains("best fit"));
        let rows: Vec<_> = (labels.into_iter())
            .zip(results.into_iter().map(|r| r.final_coop))
            .collect();
        let rendered = render_variants("A1", &rows);
        assert!(rendered.contains("literal OCR"));
    }

    #[test]
    fn activity_ablation_swaps_codec() {
        let (labels, results) = run(ablate_activity(&base(), &case()));
        assert_eq!(labels.len(), 2);
        // Trust-only populations have activity-invariant sub-strategies.
        let reduced = &results[1];
        for (s, _) in reduced.census.top_strategies(3) {
            for t in ahn_net::TrustLevel::ALL {
                let sub = s.sub_strategy(t);
                assert!(sub == 0 || sub == 7);
            }
        }
    }

    #[test]
    fn selection_ablation_runs_both_operators() {
        let (labels, results) = run(ablate_selection(&base(), &case()));
        assert_eq!(results.len(), 2);
        assert!(labels[1].contains("roulette"));
    }

    #[test]
    fn trust_table_ablation_runs_three_binnings() {
        let (_, results) = run(ablate_trust_table(&base(), &case()));
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn gossip_ablation_runs_three_policies() {
        let (labels, results) = run(ablate_gossip(&base(), &case()));
        assert_eq!(results.len(), 3);
        assert!(labels[0].contains("first-hand"));
        assert!(labels[1].contains("CORE"));
        assert!(labels[2].contains("CONFIDANT"));
    }

    #[test]
    fn unknown_ablation_pins_bits() {
        let (_, results) = run(ablate_unknown(&base(), &case()));
        assert_eq!(results.len(), 3);
        assert!((results[1].census.unknown_forward_share() - 1.0).abs() < 1e-12);
        assert_eq!(results[2].census.unknown_forward_share(), 0.0);
    }
}
