//! `check_cell` states the whole precondition of a cell. Over arbitrary
//! small `(config, case)` pairs — built by struct literal, so none of
//! the constructors' asserts filters them — a cell the check accepts
//! runs to the end, and a cell it refuses makes `run_replication` panic
//! with exactly the check's message.

use ahn_core::cases::CaseSpec;
use ahn_core::config::{AttackerBehavior, AttackerGroup, ExperimentConfig, SleeperSpec};
use ahn_core::{check_cell, run_replication};
use ahn_game::EnvironmentSpec;
use ahn_net::{GossipConfig, PathMode};
use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn behavior() -> impl Strategy<Value = AttackerBehavior> {
    prop_oneof![
        Just(AttackerBehavior::Selfish),
        prop_oneof![0.0..=1.0f64, -0.5..1.5f64].prop_map(|p| AttackerBehavior::RandomDropper { p }),
        Just(AttackerBehavior::Liar),
        (0..3u8).prop_map(|clique| AttackerBehavior::Colluder { clique }),
        (0..4u16, 0..4u16).prop_map(|(on, off)| AttackerBehavior::OnOff { on, off }),
        (0..4u16).prop_map(|period| AttackerBehavior::Whitewasher { period }),
        (0..3u8).prop_map(|extra| AttackerBehavior::Flooder { extra }),
    ]
}

/// Any duty: mostly inside (0, 1], sometimes 0, negative, above 1 or NaN.
fn duty() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.05..=1.0f64,
        0.05..=1.0f64,
        Just(1.0),
        Just(0.0),
        Just(-0.5),
        Just(1.5),
        Just(f64::NAN),
    ]
}

/// No attackers half the time, else 0–3 groups of 0–4 nodes.
fn attackers() -> impl Strategy<Value = Option<Vec<(AttackerBehavior, usize)>>> {
    prop_oneof![
        Just(None),
        vec((behavior(), prop_oneof![1..=4usize, 0..=4usize]), 0..=3).prop_map(Some),
    ]
}

/// No sleepers half the time, else 1–3 with any index and duty.
fn sleepers() -> impl Strategy<Value = Vec<(usize, f64)>> {
    prop_oneof![Just(Vec::new()), vec((0..=12usize, duty()), 1..=3)]
}

fn gossip() -> impl Strategy<Value = Option<GossipConfig>> {
    prop_oneof![
        Just(None),
        Just(Some(GossipConfig::core_style())),
        Just(Some(GossipConfig::confidant_style())),
    ]
}

/// Runs `f`, turning a panic into its message without printing it.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    outcome.map_err(|payload| {
        (payload.downcast_ref::<String>().cloned())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn accepted_cells_run_and_refused_cells_panic_with_the_check_message(
        envs in vec((1..=12usize, prop_oneof![0..=2usize, 0..=12usize]), 0..=3),
        longer in any::<bool>(),
        population in prop_oneof![6..=12usize, 1..=12usize],
        attackers in attackers(),
        sleepers in sleepers(),
        gossip in gossip(),
        seed in any::<u64>(),
    ) {
        let case = CaseSpec {
            name: "arbitrary".into(),
            envs: envs.iter().map(|&(size, csn)| EnvironmentSpec { size, csn }).collect(),
            mode: if longer { PathMode::Longer } else { PathMode::Shorter },
        };
        let config = ExperimentConfig {
            population,
            rounds: 3,
            generations: 1,
            replications: 1,
            gossip,
            sleepers: (sleepers.iter())
                .map(|&(index, duty)| SleeperSpec { index, duty })
                .collect(),
            attackers: attackers.map(|groups| {
                (groups.into_iter())
                    .map(|(behavior, count)| AttackerGroup { behavior, count })
                    .collect()
            }),
            ..ExperimentConfig::smoke()
        };
        let ran = quietly(|| run_replication(&config, &case, seed));
        match (check_cell(&config, &case), ran) {
            (Ok(()), Ok(result)) => prop_assert_eq!(result.coop_by_gen.len(), 1),
            (Err(want), Err(got)) => prop_assert_eq!(got, want),
            (Ok(()), Err(got)) => {
                panic!("accepted cell panicked with {got:?}:\n{config:?}\n{case:?}")
            }
            (Err(want), Ok(_)) => panic!("refused cell ({want}) ran:\n{config:?}\n{case:?}"),
        }
    }
}
