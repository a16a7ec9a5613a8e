//! Drives the built `ahn-exp` binary: the usage text, command dispatch,
//! and flag checks that must fail with exit 2 before any work starts.

use std::process::{Command, Output};

const COMMANDS: [&str; 32] = [
    "fig4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "all",
    "ipdrp",
    "baseline-pathrater",
    "ablate-payoff",
    "ablate-activity",
    "ablate-selection",
    "ablate-trust-table",
    "ablate-unknown",
    "ablate-gossip",
    "transfer",
    "newcomer",
    "sleepers",
    "sweep-rounds",
    "sweep-csn",
    "sweep-mutation",
    "sweep",
    "scenario",
    "atlas",
    "calibrate",
    "fidelity",
    "trace",
    "check",
    "bench",
    "serve",
    "worker",
    "loadtest",
];

/// The commands that run paper cases (or the 50-node CSN sweep): each
/// needs 50 normal players, more than the smoke preset's population.
const PAPER_CASE_COMMANDS: [&str; 20] = [
    "fig4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "all",
    "ablate-payoff",
    "ablate-activity",
    "ablate-selection",
    "ablate-trust-table",
    "ablate-unknown",
    "ablate-gossip",
    "transfer",
    "newcomer",
    "sleepers",
    "sweep-rounds",
    "sweep-csn",
    "sweep-mutation",
    "fidelity",
];

fn ahn_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ahn-exp"))
        .args(args)
        .output()
        .expect("run ahn-exp")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_names_every_command() {
    let out = ahn_exp(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = text(&out.stdout);
    for command in COMMANDS {
        assert!(
            usage.split_whitespace().any(|word| word == command),
            "--help does not name {command}"
        );
    }
}

#[test]
fn unknown_command_exits_2() {
    let out = ahn_exp(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("unknown command \"frobnicate\""));
}

#[test]
fn every_command_rejects_an_unknown_flag_before_running() {
    // `scenario` reads a subcommand first, so its two subcommands are
    // checked as well.
    let scenario = [vec!["scenario", "list"], vec!["scenario", "run", "base"]];
    for mut line in COMMANDS.map(|c| vec![c]).into_iter().chain(scenario) {
        line.push("--no-such-flag");
        let out = ahn_exp(&line);
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(
            stderr.contains("error:") && stderr.contains("--no-such-flag"),
            "{line:?} must name the flag: {stderr}"
        );
        // Nothing ran: stdout is empty or holds only the usage text.
        assert!(
            stdout.is_empty() || stdout.starts_with("ahn-exp — regenerate"),
            "{line:?} printed output before rejecting the flag: {stdout}"
        );
    }
}

#[test]
fn paper_case_commands_reject_the_smoke_population_without_panicking() {
    for command in PAPER_CASE_COMMANDS {
        let out = ahn_exp(&[command, "--preset", "smoke"]);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(
            stderr.contains("error: population 20 cannot fill"),
            "{command} must name the population and the requirement: {stderr}"
        );
    }
}
