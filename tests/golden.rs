//! Golden determinism snapshots of seeded replications.
//!
//! These tests pin the *exact* output of `run_replication` for a set of
//! seeded small-scale configurations. Their purpose is to prove that
//! hot-path refactors (inline genomes, precomputed samplers, cached
//! reputation rates, scratch-buffer reuse, in-place breeding) are pure
//! speedups: the RNG draw sequence, and therefore every simulated
//! decision, must stay bit-identical.
//!
//! Floating-point values are snapshotted through `format!("{:?}")`,
//! Rust's shortest-roundtrip representation, so a one-ulp drift anywhere
//! in the pipeline fails the comparison.
//!
//! To regenerate after an *intentional* behavior change (never to paper
//! over an accidental one):
//!
//! ```console
//! $ AHN_GOLDEN_REGEN=1 cargo test --test golden
//! $ git diff tests/golden_replication.json   # review every changed draw
//! ```

use ahn::core::{
    cases::CaseSpec,
    config::{AttackerBehavior, ExperimentConfig},
    experiment::{run_replication, ReplicationResult},
    AttackerShare,
};
use ahn::net::{GossipConfig, PathMode, RouteSelection};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_replication.json");

/// One pinned scenario: a named (config, case, seed) triple.
struct Scenario {
    name: &'static str,
    config: ExperimentConfig,
    case: CaseSpec,
    seed: u64,
}

/// A threat model applied with `ahn::core::Scenario::apply` to the
/// smoke config at 10 participants (two environments), then given a
/// defense and a route-selection policy. These pin the tournament paths
/// the paper's model never takes: adversary-zoo decisions and gossip,
/// sleeper rounds and flooder packets.
fn threat(
    name: &'static str,
    attackers: &[(AttackerBehavior, f64)],
    mode: PathMode,
    duty: Option<f64>,
    gossip: Option<GossipConfig>,
    route_selection: RouteSelection,
    seed: u64,
) -> Scenario {
    let mut smoke = ExperimentConfig::smoke();
    smoke.generations = 4;
    smoke.gossip = gossip;
    smoke.route_selection = route_selection;
    let threat = ahn::core::Scenario {
        name: name.into(),
        summary: "golden threat mix".into(),
        attackers: Some(
            attackers
                .iter()
                .map(|&(behavior, share)| AttackerShare { behavior, share })
                .collect(),
        ),
        mode: Some(mode),
        duty,
    };
    let case = CaseSpec::mini(name, &[0, 0], 10, PathMode::Shorter);
    let (config, case) = threat.apply(&smoke, &case).expect("valid golden threat");
    Scenario {
        name,
        config,
        case,
        seed,
    }
}

/// The pinned scenarios. Small scale (10-participant tournaments, a few
/// generations) keeps the suite fast while exercising every hot path:
/// both path modes, CSN-free and CSN-heavy environments, and the
/// full evaluate→breed loop; the threat scenarios add every
/// adversary-zoo kind, both gossip defenses, random route selection,
/// sleepers and flooders.
fn scenarios() -> Vec<Scenario> {
    let mut smoke = ExperimentConfig::smoke();
    smoke.generations = 6;

    let mut longer_rounds = ExperimentConfig::smoke();
    longer_rounds.generations = 4;
    longer_rounds.rounds = 40;

    vec![
        Scenario {
            name: "sp_clean_and_hostile",
            config: smoke.clone(),
            case: CaseSpec::mini("golden-sp", &[0, 3], 10, PathMode::Shorter),
            seed: 42,
        },
        Scenario {
            name: "lp_mixed",
            config: smoke,
            case: CaseSpec::mini("golden-lp", &[2], 10, PathMode::Longer),
            seed: 7,
        },
        Scenario {
            name: "sp_long_horizon",
            config: longer_rounds,
            case: CaseSpec::mini("golden-r40", &[4], 10, PathMode::Shorter),
            seed: 20260730,
        },
        threat(
            "zoo_mix_confidant",
            &[
                (AttackerBehavior::Liar, 0.1),
                (AttackerBehavior::Colluder { clique: 1 }, 0.2),
                (AttackerBehavior::OnOff { on: 4, off: 3 }, 0.1),
                (AttackerBehavior::Whitewasher { period: 6 }, 0.1),
            ],
            PathMode::Shorter,
            None,
            Some(GossipConfig::confidant_style()),
            RouteSelection::BestRated,
            91,
        ),
        threat(
            "flooders_droppers_core_random_routes",
            &[
                (AttackerBehavior::Flooder { extra: 2 }, 0.2),
                (AttackerBehavior::RandomDropper { p: 0.4 }, 0.2),
                (AttackerBehavior::Colluder { clique: 3 }, 0.1),
            ],
            PathMode::Longer,
            None,
            Some(GossipConfig::core_style()),
            RouteSelection::Random,
            92,
        ),
        threat(
            "sleepers_lp_flooder_liar_confidant",
            &[
                (AttackerBehavior::Flooder { extra: 1 }, 0.1),
                (AttackerBehavior::Liar, 0.1),
                (AttackerBehavior::OnOff { on: 2, off: 5 }, 0.1),
            ],
            PathMode::Longer,
            Some(0.5),
            Some(GossipConfig::confidant_style()),
            RouteSelection::BestRated,
            93,
        ),
        threat(
            "sleepers_sp_watchdog_random_routes",
            &[
                (AttackerBehavior::Whitewasher { period: 4 }, 0.1),
                (AttackerBehavior::Colluder { clique: 1 }, 0.2),
                (AttackerBehavior::RandomDropper { p: 0.7 }, 0.1),
            ],
            PathMode::Shorter,
            Some(0.7),
            None,
            RouteSelection::Random,
            94,
        ),
    ]
}

/// Renders a replication result into an exact, human-diffable snapshot.
///
/// `{:?}` on `f64` is Rust's shortest representation that round-trips,
/// so two snapshots are equal iff every float is bit-identical.
fn snapshot(r: &ReplicationResult) -> Vec<String> {
    let mut lines = Vec::new();
    for (g, c) in r.coop_by_gen.iter().enumerate() {
        lines.push(format!("coop[{g}] = {c:?}"));
    }
    for (e, m) in r.final_by_env.iter().enumerate() {
        lines.push(format!(
            "env[{e}] nn_games={} nn_delivered={} nn_csn_free={} from_nn={:?} from_csn={:?}",
            m.nn_games,
            m.nn_delivered,
            m.nn_csn_free_path,
            (
                m.from_nn.accepted,
                m.from_nn.rejected_by_nn,
                m.from_nn.rejected_by_csn
            ),
            (
                m.from_csn.accepted,
                m.from_csn.rejected_by_nn,
                m.from_csn.rejected_by_csn
            ),
        ));
    }
    for (g, s) in r.fitness_by_gen.iter().enumerate() {
        lines.push(format!(
            "fitness[{g}] best={:?} mean={:?} worst={:?}",
            s.best, s.mean, s.worst
        ));
    }
    for (i, s) in r.final_population.iter().enumerate() {
        lines.push(format!("strategy[{i}] = {s}"));
    }
    lines.push(format!(
        "energy normal={:?} selfish={:?}",
        r.energy_normal_mj, r.energy_selfish_mj
    ));
    lines
}

fn current_snapshots() -> Vec<(String, Vec<String>)> {
    scenarios()
        .iter()
        .map(|s| {
            let r = run_replication(&s.config, &s.case, s.seed);
            (s.name.to_string(), snapshot(&r))
        })
        .collect()
}

fn render(snaps: &[(String, Vec<String>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    for (i, (name, lines)) in snaps.iter().enumerate() {
        out.push_str(&format!("  {:?}: [\n", name));
        for (j, line) in lines.iter().enumerate() {
            let comma = if j + 1 < lines.len() { "," } else { "" };
            out.push_str(&format!("    {line:?}{comma}\n"));
        }
        let comma = if i + 1 < snaps.len() { "," } else { "" };
        out.push_str(&format!("  ]{comma}\n"));
    }
    out.push_str("}\n");
    out
}

#[test]
fn seeded_replications_match_golden_snapshots() {
    let snaps = current_snapshots();
    let rendered = render(&snaps);

    if std::env::var_os("AHN_GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }

    let expected = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — run `AHN_GOLDEN_REGEN=1 cargo test --test golden` \
         on a known-good tree and commit tests/golden_replication.json",
    );
    if expected == rendered {
        return;
    }
    // Report the first diverging line for a readable failure.
    for (i, (want, got)) in expected.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "golden line {} diverged — a hot-path change altered the seeded \
             simulation (see tests/golden.rs header)",
            i + 1
        );
    }
    panic!(
        "golden snapshot length changed: {} pinned lines vs {} now",
        expected.lines().count(),
        rendered.lines().count()
    );
}

/// Every built-in threat scenario's canonical hash, pinned as a
/// literal. The hash is FNV-1a 64 over the scenario's compact JSON —
/// the identity `ATLAS.md` rows and cross-revision comparisons key on
/// — so any edit to a scenario's definition (shares, parameters,
/// summary text, field order) fails here and forces a deliberate
/// decision: new scenario name, or accept the re-keyed atlas row.
#[test]
fn builtin_scenario_hashes_are_pinned() {
    let pinned: &[(&str, &str)] = &[
        ("base", "f25a04528cfe7f86"),
        ("selfish-majority", "bfff1c4945488418"),
        ("random-droppers", "6e9f2682e8f4bae2"),
        ("slanderers", "bfb0a26aec21710c"),
        ("colluding-clique", "16721b978a514fc9"),
        ("on-off-grudgers", "0c9058f5735d0078"),
        ("whitewashers", "c81619e4491246d2"),
        ("energy-flooders", "ac489e1a0a8d7e21"),
        ("low-power-mesh", "3bdf32e2cb839707"),
    ];
    let all = ahn::core::builtin_scenarios();
    assert_eq!(
        all.len(),
        pinned.len(),
        "registry changed size — pin the new scenario's hash here"
    );
    for (scenario, (name, hash)) in all.iter().zip(pinned) {
        assert_eq!(&scenario.name, name, "registry order is part of the pin");
        assert_eq!(
            format!("{:016x}", scenario.canonical_hash()),
            *hash,
            "canonical hash of scenario {:?} drifted",
            scenario.name
        );
    }
}
