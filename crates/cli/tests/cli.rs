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
fn a_node_that_cannot_be_reached_exits_1_and_a_bad_grid_exits_2() {
    // A port that was just free: nothing listens on it.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a free port");
        listener.local_addr().expect("bound address").to_string()
    };
    let grids: [&[&str]; 2] = [
        &[
            "sweep", "--preset", "smoke", "--cases", "1", "--sizes", "10",
        ],
        &["calibrate", "--max-candidates", "1", "--cases", "1"],
    ];
    for grid in grids {
        let line = [grid, &["--gens", "1", "--reps", "1", "--via", &addr]].concat();
        let out = ahn_exp(&line);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line:?}: {stderr}");
        assert!(
            stderr.contains("error: cell submission failed"),
            "{line:?}: {stderr}"
        );
        assert!(text(&out.stdout).is_empty(), "{line:?}");
        let bad = [&line[..], &["--cases", "9"]].concat();
        let out = ahn_exp(&bad);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("cases 1..=4"), "{bad:?}: {stderr}");
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

/// `--config` files whose cells cannot run, as edits of the committed
/// example config, each with the field its error must name: a sleeper
/// that never wakes, a sleeper outside the population, and a single
/// attacker where a case needs up to 30 selfish nodes.
const INVALID_CONFIGS: [(&str, &str, &str); 3] = [
    (
        "duty-0",
        "\"sleepers\": [{\"index\": 0, \"duty\": 0.0}]",
        "sleepers[0].duty",
    ),
    (
        "index-10000",
        "\"sleepers\": [{\"index\": 10000, \"duty\": 0.5}]",
        "sleepers[0].index",
    ),
    (
        "one-liar",
        "\"sleepers\": [], \"attackers\": [{\"behavior\": \"Liar\", \"count\": 1}]",
        "attackers",
    ),
];

#[test]
fn invalid_config_cells_exit_2_naming_the_field_without_panicking() {
    let example = include_str!("../../../configs/example.json");
    // `sweep` runs case 2 (30 selfish of 50). `newcomer` evolves case 1
    // only, which needs no selfish node, so one attacker fills it.
    let commands: [&[&str]; 5] = [
        &["fig4"],
        &["sweep", "--cases", "2"],
        &["transfer"],
        &["newcomer"],
        &["baseline-pathrater"],
    ];
    for (name, sleepers, field) in INVALID_CONFIGS {
        let path = std::env::temp_dir().join(format!("ahn-cli-{name}-{}.json", std::process::id()));
        std::fs::write(&path, example.replace("\"sleepers\": []", sleepers)).unwrap();
        let config = path.to_str().expect("a UTF-8 temp path");
        for command in commands {
            if name == "one-liar" && command == ["newcomer"] {
                continue;
            }
            // The small budget keeps a wrongly accepted cell short.
            let flags = [
                "--config", config, "--gens", "1", "--reps", "1", "--rounds", "5",
            ];
            let out = ahn_exp(&[command, &flags[..]].concat());
            let stderr = text(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command:?} {name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{command:?} {name}: {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains(field),
                "{command:?} {name} must name {field}: {stderr}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn pathrater_heading_names_what_fills_the_selfish_slots() {
    let example = include_str!("../../../configs/example.json");
    let droppers = "\"sleepers\": [], \"attackers\": \
        [{\"behavior\": {\"RandomDropper\": {\"p\": 0.0}}, \"count\": 30}]";
    let path = std::env::temp_dir().join(format!("ahn-cli-droppers-{}.json", std::process::id()));
    std::fs::write(&path, example.replace("\"sleepers\": []", droppers)).unwrap();
    let config = path.to_str().expect("a UTF-8 temp path");
    let cases: [(&[&str], &str); 2] = [
        (&[], "50 nodes, 20 selfish, AllC normals"),
        (
            &["--config", config],
            "50 nodes, 20 RandomDropper { p: 0.0 }, AllC normals",
        ),
    ];
    for (flags, heading) in cases {
        let line = [
            &["baseline-pathrater", "--gens", "1", "--rounds", "5"][..],
            flags,
        ]
        .concat();
        let out = ahn_exp(&line);
        let stdout = text(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{flags:?}: {}",
            text(&out.stderr)
        );
        assert_eq!(
            stdout.lines().next(),
            Some(format!("Watchdog/pathrater-style baseline (X1): {heading}").as_str()),
            "{flags:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Every local command that takes `--trace` (`serve` and `worker` aside),
/// with the number of experiment cells it runs at [`SMALL`]; 0 means it
/// runs none.
const TRACEABLE: [(&str, usize); 27] = [
    ("fig4", 4),
    ("table5", 2),
    ("table6", 2),
    ("table7", 2),
    ("table8", 1),
    ("table9", 1),
    ("all", 4),
    ("fidelity --tol 1", 2),
    ("ablate-payoff", 4),
    ("ablate-activity", 2),
    ("ablate-selection", 2),
    ("ablate-trust-table", 3),
    ("ablate-unknown", 3),
    ("ablate-gossip", 3),
    ("sweep-rounds", 5),
    ("sweep-csn", 5),
    ("sweep-mutation", 4),
    ("scenario run slanderers", 1),
    ("sweep --cases 1,2 --sizes 10", 2),
    ("calibrate --max-candidates 2 --cases 1,2", 4),
    ("ipdrp", 0),
    ("baseline-pathrater", 0),
    ("transfer", 0),
    ("newcomer", 0),
    ("sleepers", 0),
    ("trace", 0),
    ("check", 0),
];

/// The smallest settings that still fill the paper cases.
const SMALL: &str = "--preset scaled --gens 1 --reps 1 --rounds 5";

#[test]
fn every_traced_command_joins_into_its_cells_or_refuses_the_flag() {
    for (i, (command, cells)) in TRACEABLE.into_iter().enumerate() {
        let path =
            std::env::temp_dir().join(format!("ahn-cli-traced-{}-{i}.trace", std::process::id()));
        let path = path.to_str().expect("a UTF-8 temp path");
        let _ = std::fs::remove_file(path);
        let line: Vec<&str> = command.split(' ').chain(SMALL.split(' ')).collect();
        let traced = ahn_exp(&[&line[..], &["--trace", path]].concat());
        let stderr = text(&traced.stderr);
        if cells == 0 {
            assert_eq!(traced.status.code(), Some(2), "{command}: {stderr}");
            assert!(
                stderr.contains("error:") && stderr.contains("--trace"),
                "{command} must name --trace: {stderr}"
            );
            assert!(
                !std::path::Path::new(path).exists(),
                "{command} created the trace log it refused"
            );
            continue;
        }
        assert_eq!(traced.status.code(), Some(0), "{command}: {stderr}");
        let untraced = ahn_exp(&line);
        assert_eq!(
            text(&traced.stdout),
            text(&untraced.stdout),
            "{command}: --trace changed stdout"
        );
        let join = ahn_exp(&["trace", "--require-complete", &cells.to_string(), path]);
        let tree = text(&join.stdout);
        assert_eq!(join.status.code(), Some(0), "{command}: {tree}");
        assert!(
            tree.contains(&format!("summary: cells={cells} complete={cells} ")),
            "{command} must join into exactly {cells} complete cells: {tree}"
        );
        let _ = std::fs::remove_file(path);
    }
}
