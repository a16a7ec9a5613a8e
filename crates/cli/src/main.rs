//! `ahn-exp` — regenerate every table and figure of the paper.
//!
//! ```text
//! ahn-exp <command> [--preset smoke|scaled|paper] [--config FILE.json]
//!                   [--reps N] [--gens N] [--rounds N] [--seed S]
//!                   [--out DIR]
//! ```
//!
//! `--config` loads a full serde `ExperimentConfig` (see
//! `configs/example.json`); later flags override individual fields.
//! README.md's command table describes all 32 commands, from `fig4` and
//! `table5`..`table9` to `serve`, `worker` and `loadtest`; `ahn-exp
//! --help` ([`print_usage`]) lists each command's flags.
//!
//! `sweep` and `calibrate` also accept `--via ADDR` (run the grid
//! through a serve node, distributed across its workers) and
//! `--journal FILE` (checkpoint completed cells; resume skips them).
//!
//! `serve`, `worker`, `sweep`, `calibrate` and every experiment command
//! that runs experiment cells accept `--trace FILE`: each node appends
//! checksummed JSON span events ([`ahn_obs::TraceLog`]) keyed by a trace
//! id derived from the cell's canonical hash, so `ahn-exp trace FILE..`
//! reconstructs one cell's submit → enqueue → lease → compute → complete
//! → merge lifecycle across server, worker and coordinator logs, or a
//! local cell's `cell_start` → `generation` → `cell_done` spans. The
//! commands that run no cells refuse `--trace`.
//!
//! `serve` takes deadlines in milliseconds, 0 disabling each:
//! `--read-timeout-ms`, `--idle-timeout-ms`, `--write-timeout-ms` and
//! `--drain-ms`. `worker` takes a jittered retry backoff
//! (`--retry-base-ms`, `--retry-cap-ms`, `--backoff-seed`), a limit on
//! consecutive transport errors (`--max-errors`), a circuit breaker
//! (`--breaker-threshold`, `--breaker-cooldown-ms`) and seeded
//! self-injected faults (`--chaos-seed`, `--chaos-drop-request`,
//! `--chaos-drop-response`, `--chaos-latency-percent`,
//! `--chaos-latency-ms`, `--chaos-stall-percent`, `--chaos-stall-ms`,
//! `--chaos-partial-percent`).
//!
//! Every command returns a [`CliError`] on failure, and `main` alone
//! prints it and exits: 2 for bad input, 1 for a runtime failure.

mod args;

use ahn_core::ablations::{self, ablate_activity, ablate_gossip, ablate_payoff};
use ahn_core::ablations::{ablate_selection, ablate_trust_table, ablate_unknown};
use ahn_core::experiment::ExperimentResult;
use ahn_core::{baselines, cases::CaseSpec, config::ExperimentConfig, extensions, report};
use ahn_core::{sweeps, Cell, GridCells};
use args::{Args, CliError, CliError::Bad, CliError::Failed, CliError::Usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        if let Usage(_) = e {
            print_usage();
        }
        std::process::exit(if let Failed(_) = e { 1 } else { 2 });
    }
}

/// Dispatches a command line to its command.
fn run(args: &[String]) -> Result<(), CliError> {
    let (command, rest) = match args.split_first() {
        Some((command, rest)) if command != "--help" && command != "-h" => (command, rest),
        _ => {
            print_usage();
            return Ok(());
        }
    };
    // The experiment commands take the shared flags only. Those that run
    // no experiment cells have no spans to record, so they refuse
    // `--trace`.
    let opts = || Options::parse(rest, ExperimentConfig::scaled(), true);
    let untraced = || Options::parse(rest, ExperimentConfig::scaled(), false);
    match command.as_str() {
        "fig4" => fig4(&opts()?),
        "table5" => table(&opts()?, 5, &[3, 4], |r| report::table5(&r[0], &r[1])),
        "table6" => table(&opts()?, 6, &[3, 4], |r| report::table6(&r[0], &r[1])),
        "table7" => table(&opts()?, 7, &[3, 4], |r| report::table7(&[&r[0], &r[1]])),
        "table8" => table(&opts()?, 8, &[3], |r| report::table8_9(&r[0], 0.03)),
        "table9" => table(&opts()?, 9, &[4], |r| report::table8_9(&r[0], 0.03)),
        "all" => all(&opts()?),
        "ipdrp" => ipdrp(&untraced()?),
        "baseline-pathrater" => pathrater(&untraced()?),
        "ablate-payoff" | "ablate-activity" | "ablate-selection" | "ablate-trust-table"
        | "ablate-unknown" | "ablate-gossip" | "sweep-rounds" | "sweep-csn" | "sweep-mutation" => {
            study(&opts()?, command)
        }
        "transfer" => transfer(&untraced()?),
        "newcomer" => newcomer(&untraced()?),
        "sleepers" => sleepers(&untraced()?),
        // `trace` is two commands sharing a name: with trace-file
        // arguments it joins span logs; with experiment flags only, it
        // keeps its original meaning (dump a game decision trace).
        "trace" if trace_join_requested(rest) => trace_join(rest),
        "trace" => trace(&untraced()?),
        "check" => untraced().and_then(|_| check()),
        "sweep" => sweep(rest),
        // The adversary-zoo registry: `list` prints it, `run NAME`
        // evaluates one scenario against a chosen defense.
        "scenario" => match rest.first().map(String::as_str) {
            Some("list") => scenario_list(&rest[1..]),
            Some("run") => scenario_run(&rest[1..]),
            Some(other) => Err(Bad(format!(
                "unknown scenario subcommand {other:?} (list|run)"
            ))),
            None => Err(Bad("scenario needs a subcommand (list|run)".into())),
        },
        "atlas" => atlas(rest),
        "calibrate" => calibrate(rest),
        "fidelity" => fidelity(rest),
        "bench" => bench(rest),
        "serve" => serve(rest),
        "worker" => worker(rest),
        "loadtest" => loadtest(rest),
        other => Err(Usage(format!("unknown command {other:?}"))),
    }
}

fn print_usage() {
    println!(
        "ahn-exp — regenerate the tables and figures of Seredynski et al. (IPDPS'07)\n\n\
         usage: ahn-exp <command> [--preset smoke|scaled|paper] [--reps N]\n\
                [--gens N] [--rounds N] [--seed S] [--out DIR] [--trace FILE]\n\
                [--config FILE.json]\n\
                ahn-exp sweep [--scenarios base,slanderers,..] [--cases 1,2,..]\n\
                              [--payoffs paper,..] [--sizes 10,50,..]\n\
                              [--seed-blocks N] [--json] [--via ADDR] [--journal FILE]\n\
                              [--trace FILE] [+ the experiment flags above]\n\
                ahn-exp scenario list [--json]      (the adversary-zoo registry)\n\
                ahn-exp scenario run NAME [--defense watchdog|core|confidant]\n\
                                          [--size N] [+ the experiment flags above]\n\
                ahn-exp atlas [--json FILE] [--out FILE] [--scenarios a,b,..] [--size N]\n\
                              (scenario x defense grid; no args prints markdown)\n\
                ahn-exp calibrate [--cases 1,2,..] [--scales 0.5,1,..]\n\
                                  [--selections paper,rank,..] [--size N]\n\
                                  [--seed-blocks N] [--max-candidates N] [--json]\n\
                                  [--via ADDR] [--journal FILE] [--trace FILE]\n\
                                  [+ the experiment flags above]\n\
                ahn-exp fidelity [--cases 1,3] [--tol F] [+ the experiment flags]\n\
                ahn-exp bench [--json] [--baseline FILE.json] [--max-regression F]\n\
                              [--threads 1,4,8]\n\
                ahn-exp serve [--addr A] [--workers N] [--cache-cap N] [--queue-cap N]\n\
                              [--journal FILE] [--trace FILE]  (--workers 0 = pull-only)\n\
                              [--read-timeout-ms N] [--idle-timeout-ms N]\n\
                              [--write-timeout-ms N] [--drain-ms N]\n\
                ahn-exp worker [--addr A] [--lease-ms N] [--poll-ms N] [--max-cells N]\n\
                               [--exit-when-idle] [--trace FILE]\n\
                               [--retry-base-ms N] [--retry-cap-ms N] [--backoff-seed S]\n\
                               [--max-errors N] [--breaker-threshold N] [--breaker-cooldown-ms N]\n\
                               [--chaos-seed S] [--chaos-drop-request P]\n\
                               [--chaos-drop-response P] [--chaos-partial-percent P]\n\
                               [--chaos-latency-percent P] [--chaos-latency-ms N]\n\
                               [--chaos-stall-percent P] [--chaos-stall-ms N]\n\
                ahn-exp loadtest [--addr A] [--connections N] [--requests N]\n\
                                 [--distinct N] [--json] [--min-hit-rate F] [--shutdown]\n\
                ahn-exp trace [--require-complete N] FILE..   (join span logs)\n\n\
         commands: fig4 table5 table6 table7 table8 table9 all ipdrp\n\
                   baseline-pathrater ablate-payoff ablate-activity\n\
                   ablate-selection ablate-trust-table ablate-unknown\n\
                   ablate-gossip transfer newcomer sleepers\n\
                   sweep-rounds sweep-csn sweep-mutation sweep scenario atlas\n\
                   calibrate fidelity trace check bench serve worker loadtest"
    );
}

/// The shared experiment flags (`--preset --config --reps --gens
/// --rounds --seed --out --trace`), applied in place, left to right.
#[derive(Debug, Default)]
struct Options {
    config: ExperimentConfig,
    out_dir: Option<std::path::PathBuf>,
    /// `--trace FILE` as given; [`Options::open_trace`] opens it.
    trace_path: Option<String>,
    /// The role the span log names this process by, set by
    /// [`Options::finish`]: `ahn-exp`, or `coordinator` for `--via`.
    role: &'static str,
}

impl Options {
    /// Options before any flag: the command's default preset.
    fn new(config: ExperimentConfig) -> Self {
        Options {
            config,
            ..Default::default()
        }
    }

    /// A command line of shared flags only, starting from `preset`.
    /// `traced` is false for a command that runs no experiment cells: it
    /// has no spans to record, so `--trace` is bad input, refused before
    /// the file is created.
    fn parse(args: &[String], preset: ExperimentConfig, traced: bool) -> Result<Self, CliError> {
        let mut opts = Options::new(preset);
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            opts.apply(flag, &mut args)?;
        }
        if !traced && opts.trace_path.is_some() {
            return Err(Bad(
                "--trace records the spans of experiment cells, and this command runs none".into(),
            ));
        }
        opts.finish("ahn-exp")?;
        Ok(opts)
    }

    /// Applies one shared flag; any other flag is unknown. The usage
    /// follows every error from here.
    fn apply(&mut self, flag: &str, args: &mut Args) -> Result<(), CliError> {
        let mut apply = || -> Result<(), CliError> {
            let config = &mut self.config;
            match flag {
                "--preset" => {
                    *config = match args.value(flag)? {
                        "smoke" => ExperimentConfig::smoke(),
                        "scaled" => ExperimentConfig::scaled(),
                        "paper" => ExperimentConfig::paper(),
                        other => return Err(Bad(format!("unknown preset {other:?}"))),
                    }
                }
                "--config" => {
                    let path = args.value(flag)?;
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    *config = serde_json::from_str(&text)
                        .map_err(|e| format!("cannot parse {path}: {e}"))?;
                }
                "--reps" => config.replications = args.parse(flag)?,
                "--gens" => config.generations = args.parse(flag)?,
                "--rounds" => config.rounds = args.parse(flag)?,
                "--seed" => config.base_seed = args.parse(flag)?,
                "--out" => self.out_dir = Some(args.value(flag)?.into()),
                "--trace" => self.trace_path = Some(args.value(flag)?.into()),
                _ => return Err(Bad(format!("unknown flag {flag:?}"))),
            }
            Ok(())
        };
        apply().map_err(CliError::with_usage)
    }

    /// Validates the configuration, once the whole command line has
    /// parsed, and names the process `role` in its span log. The usage
    /// follows any error.
    fn finish(&mut self, role: &'static str) -> Result<(), CliError> {
        self.config.validate().map_err(Usage)?;
        self.role = role;
        Ok(())
    }

    /// Opens the `--trace` span log. Local runs record each cell's
    /// lifecycle and per-generation hot-loop samples into it, `--via`
    /// runs the coordinator's side of every cell. Called once the
    /// command's cells pass their check, so a rejected command leaves no
    /// file behind. The usage follows an error.
    fn open_trace(&self) -> Result<Option<ahn_obs::TraceLog>, CliError> {
        open_trace(self.trace_path.as_deref(), self.role).map_err(CliError::with_usage)
    }

    fn maybe_write(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
            let path = dir.join(name);
            match std::fs::write(&path, contents) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
}

/// Opens a `--trace` span log whose events name this process
/// `{role}:{pid}`.
fn open_trace(path: Option<&str>, role: &str) -> Result<Option<ahn_obs::TraceLog>, CliError> {
    let Some(path) = path else { return Ok(None) };
    let node = format!("{role}:{}", std::process::id());
    ahn_obs::TraceLog::open(std::path::Path::new(path), &node)
        .map(Some)
        .map_err(|e| Bad(format!("cannot open trace log {path}: {e}")))
}

/// Refuses a run, before any of its cells starts, unless every cell
/// passes `ahn_core::check_cell` — which `run_replication` asserts for
/// library callers.
fn check_cells(cells: &[Cell]) -> Result<(), CliError> {
    for (config, case) in cells {
        ahn_core::check_cell(config, case)?;
    }
    Ok(())
}

/// Runs the paper cases `case_nos` as one batch, once every cell can run.
fn run_cases(opts: &Options, case_nos: &[usize]) -> Result<Vec<ExperimentResult>, CliError> {
    let config = &opts.config;
    let cells: Vec<Cell> = (case_nos.iter())
        .map(|&n| (config.clone(), CaseSpec::paper(n)))
        .collect();
    check_cells(&cells)?;
    let trace = opts.open_trace()?;
    eprintln!(
        "running cases {case_nos:?} ({} replications x {} generations, R={})...",
        config.replications, config.generations, config.rounds
    );
    Ok(ahn_core::run_cells(&cells, trace.as_ref(), |i| {
        cells[i].1.name.clone()
    }))
}

fn fig4(opts: &Options) -> Result<(), CliError> {
    let results = run_cases(opts, &[1, 2, 3, 4])?;
    let refs: Vec<&_> = results.iter().collect();
    let means: Vec<Vec<f64>> = results.iter().map(|r| r.coop_series.means()).collect();
    let series: Vec<ahn_stats::PlotSeries> = results
        .iter()
        .zip(&means)
        .zip(['1', '2', '3', '4'])
        .map(|((r, values), marker)| ahn_stats::PlotSeries {
            label: &r.case_name,
            values,
            marker,
        })
        .collect();
    println!("{}", ahn_stats::ascii_chart(&series, 72, 16));
    print!("{}", report::fig4_summary(&refs));
    opts.maybe_write("fig4.csv", &report::fig4_csv(&refs));
    if opts.out_dir.is_none() {
        println!("\n(use --out DIR to save the full per-generation CSV)");
    }
    Ok(())
}

/// Table `number` (5–9), rendered from the paper cases `case_nos`.
fn table(
    opts: &Options,
    number: usize,
    case_nos: &[usize],
    render: fn(&[ExperimentResult]) -> String,
) -> Result<(), CliError> {
    let t = render(&run_cases(opts, case_nos)?);
    print!("{t}");
    opts.maybe_write(&format!("table{number}.txt"), &t);
    Ok(())
}

fn all(opts: &Options) -> Result<(), CliError> {
    let results = run_cases(opts, &[1, 2, 3, 4])?;
    let refs: Vec<&_> = results.iter().collect();
    let out = [
        report::fig4_summary(&refs),
        report::table5(&results[2], &results[3]),
        report::table6(&results[2], &results[3]),
        report::table7(&[&results[2], &results[3]]),
        report::table8_9(&results[2], 0.03),
        report::table8_9(&results[3], 0.03),
    ]
    .join("\n");
    print!("{out}");
    opts.maybe_write("all.txt", &out);
    opts.maybe_write("fig4.csv", &report::fig4_csv(&refs));
    if opts.out_dir.is_some() {
        match serde_json::to_string_pretty(&results) {
            Ok(json) => opts.maybe_write("results.json", &json),
            Err(e) => eprintln!("warning: cannot serialize results: {e}"),
        }
    }
    Ok(())
}

fn ipdrp(opts: &Options) -> Result<(), CliError> {
    use rand::SeedableRng;
    let config = ahn_ipdrp::IpdrpConfig {
        population: opts.config.population.max(2) / 2 * 2,
        rounds: opts.config.rounds,
        generations: opts.config.generations,
        ..ahn_ipdrp::IpdrpConfig::default()
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.config.base_seed);
    let history = ahn_ipdrp::run_ipdrp(&mut rng, &config);
    println!(
        "IPDRP baseline (population {}, {} rounds, {} generations)",
        config.population, config.rounds, config.generations
    );
    let first = history.first().expect("at least one generation");
    let last = history.last().expect("at least one generation");
    println!(
        "  cooperation: gen 0 = {:.1}%, final = {:.1}%  (random pairing suppresses reciprocity)",
        first.cooperation * 100.0,
        last.cooperation * 100.0
    );
    println!(
        "  mean fitness: gen 0 = {:.2}, final = {:.2}  (P = 1.0 is the all-defect floor)",
        first.stats.mean, last.stats.mean
    );
    let mut csv = String::from("generation,cooperation,mean_fitness\n");
    for g in &history {
        csv.push_str(&format!(
            "{},{:.4},{:.4}\n",
            g.generation, g.cooperation, g.stats.mean
        ));
    }
    opts.maybe_write("ipdrp.csv", &csv);
    Ok(())
}

fn pathrater(opts: &Options) -> Result<(), CliError> {
    // Marti et al.'s setting: 50 nodes with 20 selfish (40%).
    let (nodes, selfish) = (50, 20);
    let report =
        baselines::pathrater_comparison(&opts.config, nodes, selfish, opts.config.base_seed)?;
    println!(
        "Watchdog/pathrater-style baseline (X1): {nodes} nodes, {}, AllC normals",
        selfish_slots(&opts.config, selfish)
    );
    println!(
        "  throughput with rating-based avoidance:    {:.1}%",
        report.with_rating * 100.0
    );
    println!(
        "  throughput with random route selection:    {:.1}%",
        report.without_rating * 100.0
    );
    println!(
        "  improvement from avoidance alone:          {:+.1}%  (paper's ref [9]: +17%)",
        report.improvement() * 100.0
    );
    Ok(())
}

/// What the first `slots` nodes of the cell's selfish pool are: the
/// paper's CSNs, or the config's attacker groups in declaration order
/// (a tournament draws its selfish participants from the pool's front).
fn selfish_slots(config: &ExperimentConfig, slots: usize) -> String {
    let Some(groups) = &config.attackers else {
        return format!("{slots} selfish");
    };
    let mut left = slots;
    let mut parts = Vec::new();
    for group in groups {
        let taken = group.count.min(left);
        if taken > 0 {
            parts.push(format!("{taken} {:?}", group.behavior));
        }
        left -= taken;
    }
    parts.join(" + ")
}

/// The one-knob studies — the six `ablate-*` and three `sweep-*`
/// commands: labeled cells that each vary one knob of the base
/// configuration, run as one batch and printed one row per cell.
fn study(opts: &Options, command: &str) -> Result<(), CliError> {
    let config = &opts.config;
    let paper = CaseSpec::paper;
    // Ablations run on case 3 (the paper's richest setting). A sweep
    // names its x axis and prints a footer under its table.
    let ablation = |title, run: fn(&ExperimentConfig, &CaseSpec) -> Vec<(String, Cell)>| {
        (title, None, run(config, &paper(3)), "ablation.txt", None)
    };
    let (title, x_label, cells, file, footer) = match command {
        "ablate-payoff" => ablation("A1 payoff-table reading", ablate_payoff),
        "ablate-activity" => ablation("A2 activity dimension", ablate_activity),
        "ablate-selection" => ablation("A3 selection operator", ablate_selection),
        "ablate-trust-table" => ablation("A5 trust-table thresholds", ablate_trust_table),
        "ablate-unknown" => ablation("A6 unknown-node bit", ablate_unknown),
        "ablate-gossip" => ablation("A7 second-hand reputation", ablate_gossip),
        "sweep-rounds" => (
            "Cooperation vs reputation horizon R (case 1)",
            Some("rounds"),
            sweeps::sweep_rounds(config, &paper(1), &[30, 100, 200, 300, 500]),
            "sweep_rounds.txt",
            Some("(the paper's R = 300 sits above the defection-basin crossover)"),
        ),
        "sweep-csn" => (
            "Cooperation vs CSN density (50-node tournaments, shorter paths)",
            Some("density"),
            sweeps::sweep_csn(config, 50, paper(1).mode, &[0.0, 0.2, 0.4, 0.6, 0.8]),
            "sweep_csn.txt",
            Some("(TE1..TE4 are the 0%, 20%, 50% and 60% points of this curve)"),
        ),
        "sweep-mutation" => (
            "Cooperation vs per-bit mutation probability (case 3)",
            Some("mutation"),
            sweeps::sweep_mutation(config, &paper(3), &[0.0, 0.001, 0.01, 0.05]),
            "sweep_mutation.txt",
            Some("(the paper uses 0.001)"),
        ),
        other => unreachable!("{other} is not a one-knob study"),
    };
    let (labels, cells): (Vec<String>, Vec<_>) = cells.into_iter().unzip();
    check_cells(&cells)?;
    let trace = opts.open_trace()?;
    eprintln!("running {title} ({} cells)...", cells.len());
    let results = ahn_core::run_cells(&cells, trace.as_ref(), |i| labels[i].clone());
    let rows: Vec<_> = (labels.into_iter())
        .zip(results.into_iter().map(|r| r.final_coop))
        .collect();
    let t = match x_label {
        None => ablations::render_variants(title, &rows),
        Some(x_label) => sweeps::render_sweep(title, x_label, &rows),
    };
    print!("{t}");
    if let Some(footer) = footer {
        println!("{footer}");
    }
    opts.maybe_write(file, &t);
    Ok(())
}

fn transfer(opts: &Options) -> Result<(), CliError> {
    // One replication per training case keeps this affordable; use
    // --gens to deepen.
    let cases = CaseSpec::paper_all();
    eprintln!("running {}x{} transfer matrix...", cases.len(), cases.len());
    let cells = extensions::transfer_matrix(&opts.config, &cases, opts.config.base_seed)?;
    let rendered = extensions::render_transfer(&cells);
    print!("{rendered}");
    println!(
        "\nDiagonal cells are populations deployed in the conditions they\n\
         were evolved for; off-diagonal cells quantify the paper's closing\n\
         warning that strategies are condition-specific."
    );
    opts.maybe_write("transfer.txt", &rendered);
    Ok(())
}

fn newcomer(opts: &Options) -> Result<(), CliError> {
    eprintln!("evolving a case-1 population, then admitting a newcomer...");
    let case = CaseSpec::paper(1);
    let report = extensions::newcomer_join(&opts.config, &case, 120, opts.config.base_seed)?;
    println!("Newcomer-join experiment (case 1 veterans + 1 unknown cooperator)");
    println!(
        "  unknown-node bit forwards in {:.0}% of the evolved population",
        report.unknown_forward_share * 100.0
    );
    println!(
        "  newcomer delivery, first quarter of its games:  {:.1}%",
        report.early_delivery * 100.0
    );
    println!(
        "  newcomer delivery, last quarter of its games:   {:.1}%",
        report.late_delivery * 100.0
    );
    println!("  (the paper's claim: \"new nodes can easily join the network\")");
    Ok(())
}

fn sleepers(opts: &Options) -> Result<(), CliError> {
    // Case 1 needs 50 normal players, so a population that fills it
    // also keeps nodes awake beside the 20 sleepers.
    let case = CaseSpec::paper(1);
    eprintln!("sleeper study: evolving with 20 low-duty nodes, both codecs...");
    let study = extensions::sleeper_study(&opts.config, &case, 20, 0.3, opts.config.base_seed)?;
    let (full_gap, trust_gap) = study.activity_penalty();
    println!("Sleeper study (X6): 20 of 100 nodes at 30% duty cycle, case-1 world");
    println!(
        "  energy: a sleeper consumes {:.0}% of an active node's budget",
        study.sleeper_energy_ratio * 100.0
    );
    println!("  13-bit (trust x activity) chromosome:");
    println!(
        "    active-node delivery {:.1}%, sleeper delivery {:.1}%  (penalty {:.0}%)",
        study.full_active_delivery * 100.0,
        study.full_sleeper_delivery * 100.0,
        full_gap * 100.0
    );
    println!("  5-bit (trust-only) chromosome:");
    println!(
        "    active-node delivery {:.1}%, sleeper delivery {:.1}%  (penalty {:.0}%)",
        study.trust_only_active_delivery * 100.0,
        study.trust_only_sleeper_delivery * 100.0,
        trust_gap * 100.0
    );
    println!(
        "\nThe paper's motivation for the activity dimension (S1): sleepers\n\
         keep a perfect forwarding *rate*, so trust alone cannot see them;\n\
         only the activity-aware chromosome can price the free ride."
    );
    Ok(())
}

fn check() -> Result<(), CliError> {
    let rendered = ahn_core::checks::render(&ahn_core::checks::run_all());
    let (Ok(text) | Err(text)) = &rendered;
    print!("{text}");
    rendered
        .map(drop)
        .map_err(|_| Failed("model input checks failed".into()))
}

fn trace(opts: &Options) -> Result<(), CliError> {
    eprintln!("evolving one replication of case 3 for the trace...");
    print!("{}", extensions::decision_trace(&opts.config)?);
    Ok(())
}

/// True when `ahn-exp trace` was given span-log files to join rather
/// than experiment flags for the decision-trace dump: the first
/// argument is a file path (no `--` prefix) or the join-only
/// `--require-complete` flag.
fn trace_join_requested(args: &[String]) -> bool {
    matches!(args.first(), Some(a) if !a.starts_with("--") || a == "--require-complete")
}

/// `ahn-exp trace FILE..` flags.
#[derive(Debug, Clone, PartialEq, Default)]
struct TraceJoinFlags {
    /// Fail unless at least this many cells reconstruct end to end.
    require_complete: usize,
    /// The span-log files to join.
    files: Vec<String>,
}

fn parse_trace_join_flags(args: &[String]) -> Result<TraceJoinFlags, CliError> {
    let mut flags = TraceJoinFlags::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.flag() {
        match arg {
            "--require-complete" => {
                flags.require_complete = args.checked(arg, "a cell count", |v| v.parse().ok())?
            }
            _ if arg.starts_with("--") => return Err(CliError::unknown("trace", arg)),
            path => flags.files.push(path.to_owned()),
        }
    }
    if flags.files.is_empty() {
        return Err(Bad("trace needs at least one span-log file to join".into()));
    }
    Ok(flags)
}

/// `ahn-exp trace FILE..`: join span logs from any number of nodes into
/// per-cell lifecycle trees ([`ahn_obs::join_traces`]). Exits non-zero
/// when any spans are orphaned (a log file is missing from the join, or
/// trace-id propagation broke) or fewer than `--require-complete N`
/// cells reconstructed end to end — the CI chaos job's assertion.
fn trace_join(args: &[String]) -> Result<(), CliError> {
    let flags = parse_trace_join_flags(args)?;
    let mut events = Vec::new();
    let mut discarded = 0usize;
    for path in &flags.files {
        let read = ahn_obs::read_trace(std::path::Path::new(path))
            .map_err(|e| Bad(format!("cannot read {path}: {e}")))?;
        events.extend(read.events);
        discarded += read.discarded;
    }
    let tree = ahn_obs::join_traces(events, discarded);
    print!("{}", ahn_obs::render_tree(&tree));
    if tree.orphan_spans > 0 {
        return Err(Failed(format!(
            "{} orphaned spans (a log file is missing from the join, or propagation broke)",
            tree.orphan_spans
        )));
    }
    if tree.complete_cells() < flags.require_complete {
        return Err(Failed(format!(
            "only {} of the required {} cells reconstructed end to end",
            tree.complete_cells(),
            flags.require_complete
        )));
    }
    Ok(())
}

/// Participants per tournament (`--size`), at least 3.
fn participants(args: &mut Args, flag: &str) -> Result<usize, CliError> {
    args.checked(flag, "an integer >= 3", |v| {
        v.parse().ok().filter(|&n| n >= 3)
    })
}

/// The flags `sweep` and `calibrate` share around their grid: where to
/// run it, how to print its report, and the shared experiment flags,
/// whose configuration becomes the grid's base.
#[derive(Debug, Default)]
struct GridFlags {
    json: bool,
    /// Run the grid's cells through a serve node at this address
    /// instead of computing them locally (`ahn_serve::run_cells_via`).
    via: Option<String>,
    /// Checkpoint completed cells to this journal; resume skips them.
    journal: Option<String>,
    opts: Options,
}

impl GridFlags {
    /// Applies a flag both grid commands take; any other falls through
    /// to the shared experiment flags.
    fn apply(&mut self, flag: &str, args: &mut Args) -> Result<(), CliError> {
        match flag {
            "--json" => self.json = true,
            "--via" => self.via = Some(args.value(flag)?.into()),
            "--journal" => self.journal = Some(args.value(flag)?.into()),
            _ => self.opts.apply(flag, args)?,
        }
        Ok(())
    }

    /// Checks the flags against each other, then finishes the shared
    /// experiment flags.
    fn finish(&mut self) -> Result<(), CliError> {
        if self.journal.is_some() && self.via.is_none() {
            return Err(Bad(
                "--journal requires --via (it checkpoints a distributed run)".into(),
            ));
        }
        self.opts
            .finish(self.via.as_ref().map_or("ahn-exp", |_| "coordinator"))
    }

    /// Runs a grid's cells where the flags say — through the serve node
    /// at `--via`, checkpointed to `--journal`, or in-process — traced
    /// to `--trace` either way: the cell runner of `sweep` and
    /// `calibrate`, which the grid calls once its cells pass their check.
    /// It prints `banner` once the log opens. Whatever fails once the
    /// cells run (node, transport, job or journal) is a runtime failure.
    fn run(&self, cells: &GridCells, banner: String) -> Result<Vec<ExperimentResult>, CliError> {
        let trace = self.opts.open_trace()?;
        eprintln!("{banner}");
        let Some(addr) = &self.via else {
            return Ok(cells.run(trace.as_ref()));
        };
        eprintln!("  distributing via {addr}...");
        let mut transport = ahn_serve::HttpTransport::new(addr);
        let journal = self.journal.as_deref().map(std::path::Path::new);
        ahn_serve::run_cells_via(&mut transport, cells, journal, 10, trace.as_ref()).map_err(Failed)
    }

    /// Prints the report — its JSON with `--json`, else `rendered` — and
    /// writes the JSON to `--out` as `file`.
    fn print(
        &self,
        json: Result<String, serde_json::Error>,
        rendered: impl FnOnce() -> String,
        file: &str,
    ) -> Result<(), CliError> {
        let json = json.map_err(|e| Failed(format!("cannot serialize report: {e}")))?;
        if self.json {
            println!("{json}");
        } else {
            print!("{}", rendered());
        }
        self.opts.maybe_write(file, &json);
        Ok(())
    }
}

fn parse_sweep_flags(args: &[String]) -> Result<(ahn_core::SweepGrid, GridFlags), CliError> {
    let mut grid = ahn_core::SweepGrid::new(ExperimentConfig::scaled(), &[1], &[50], 1);
    let mut f = GridFlags::default();
    f.opts.config = ExperimentConfig::scaled();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--cases" => grid.cases = args.list(flag)?,
            "--scenarios" => {
                grid.scenarios = Some(args.checked(flag, "non-empty scenario names", |v| {
                    v.split(',')
                        .map(|s| (!s.is_empty()).then(|| s.to_owned()))
                        .collect()
                })?)
            }
            "--payoffs" => grid.payoffs = args.list(flag)?,
            "--sizes" => grid.sizes = args.list(flag)?,
            "--seed-blocks" => grid.seed_blocks = (0..args.positive(flag)?).collect(),
            _ => f.apply(flag, &mut args)?,
        }
    }
    f.finish()?;
    grid.base = f.opts.config.clone();
    Ok((grid, f))
}

/// `ahn-exp sweep`: run a (case x payoff x size x seed-block) grid with
/// one pure experiment per cell (`ahn_core::run_sweep_with`), cells in
/// parallel or — with `--via ADDR` — through a serve node, folded to
/// the same report either way.
fn sweep(args: &[String]) -> Result<(), CliError> {
    let (grid, f) = parse_sweep_flags(args)?;
    let report = ahn_core::run_sweep_with(&grid, |cells| {
        let banner = format!(
            "sweeping {} cells ({} scenarios x {} cases x {} payoffs x {} sizes x {} seed blocks, {} replications each)...",
            grid.cell_count(),
            grid.scenarios.as_ref().map(Vec::len).unwrap_or(1),
            grid.cases.len(),
            grid.payoffs.len(),
            grid.sizes.len(),
            grid.seed_blocks.len(),
            grid.base.replications
        );
        f.run(cells, banner)
    })?;
    f.print(
        serde_json::to_string_pretty(&report),
        || sweeps::render_sweep_report(&report),
        "sweep.json",
    )
}

fn parse_calibrate_flags(
    args: &[String],
) -> Result<(ahn_core::CalibrationGrid, GridFlags), CliError> {
    let mut grid = ahn_core::CalibrationGrid {
        base: ExperimentConfig::smoke(),
        cases: vec![1, 2, 3, 4],
        scales: vec![1.0],
        selections: vec!["paper".into()],
        size: 10,
        seed_blocks: vec![0],
        max_candidates: 0,
    };
    // The smoke preset (not `scaled`) so a bare `ahn-exp calibrate`
    // finishes in seconds.
    let mut f = GridFlags::default();
    f.opts.config = ExperimentConfig::smoke();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--cases" => grid.cases = args.list(flag)?,
            "--scales" => grid.scales = args.list(flag)?,
            "--selections" => {
                grid.selections = args.checked(flag, "a comma-separated list", |v| {
                    let names: Vec<String> = v
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect();
                    (!names.is_empty()).then_some(names)
                })?
            }
            "--size" => grid.size = participants(&mut args, flag)?,
            "--seed-blocks" => grid.seed_blocks = (0..args.positive(flag)?).collect(),
            "--max-candidates" => grid.max_candidates = args.parse(flag)?,
            _ => f.apply(flag, &mut args)?,
        }
    }
    f.finish()?;
    grid.base = f.opts.config.clone();
    Ok((grid, f))
}

/// `ahn-exp calibrate`: search the reconstruction space of the garbled
/// Fig. 2 payoff table (x scale x selection variant), scoring every
/// candidate against the paper's per-case cooperation targets
/// (`ahn_core::calibrate`). The base configuration defaults to the
/// `smoke` preset; override with the usual experiment flags.
fn calibrate(args: &[String]) -> Result<(), CliError> {
    let (grid, f) = parse_calibrate_flags(args)?;
    let report = ahn_core::run_calibration_with(&grid, |cells| {
        let banner = format!(
            "searching {} candidates ({} cases x {} seed blocks = {} cells, {} replications each)...",
            grid.candidate_count(),
            grid.cases.len(),
            grid.seed_blocks.len(),
            grid.cell_count(),
            grid.base.replications
        );
        f.run(cells, banner)
    })?;
    f.print(
        serde_json::to_string_pretty(&report),
        || ahn_core::calibrate::render_calibration_report(&report),
        "calibrate.json",
    )
}

/// `ahn-exp scenario list`: every built-in scenario (name, hash,
/// summary).
fn scenario_list(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--json" => json = true,
            _ => return Err(CliError::unknown("scenario list", flag)),
        }
    }
    let all = ahn_core::builtin_scenarios();
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&all).expect("scenarios serialize")
        );
        return Ok(());
    }
    println!("{} scenarios (rows of `ahn-exp atlas`):", all.len());
    for s in &all {
        println!(
            "  {:<18} {:016x}  {}",
            s.name,
            s.canonical_hash(),
            s.summary
        );
    }
    Ok(())
}

/// `ahn-exp scenario run NAME`: resolve the scenario, apply it to a
/// scaled case-1 world, run the experiment, print the usual report.
fn scenario_run(args: &[String]) -> Result<(), CliError> {
    let mut name = None;
    let mut defense = "watchdog";
    let mut size = 10usize;
    // Default to the smoke preset (like calibrate) so a bare
    // `ahn-exp scenario run slanderers` finishes in seconds.
    let mut opts = Options::new(ExperimentConfig::smoke());
    let mut args = Args::new(args);
    while let Some(arg) = args.flag() {
        match arg {
            "--defense" => defense = args.value(arg)?,
            "--size" => size = participants(&mut args, arg)?,
            _ if arg.starts_with("--") => opts.apply(arg, &mut args)?,
            _ if name.is_none() => name = Some(arg),
            _ => return Err(Bad(format!("unexpected argument {arg:?}"))),
        }
    }
    let name = name.ok_or_else(|| {
        Bad("scenario run needs a scenario name (try `ahn-exp scenario list`)".into())
    })?;
    opts.finish("ahn-exp")?;
    let scenario = ahn_core::resolve_scenario(name)?;
    let mut config = opts.config.clone();
    config.gossip = ahn_core::atlas::resolve_defense(defense)?;
    let case = CaseSpec::mini(name, &[0], size, ahn_core::PathMode::Shorter);
    let cell = scenario.apply(&config, &case)?;
    check_cells(std::slice::from_ref(&cell))?;
    let trace = opts.open_trace()?;
    eprintln!(
        "running scenario {name:?} (hash {:016x}) against {defense:?}, \
         {size} participants, {} replications...",
        scenario.canonical_hash(),
        cell.0.replications
    );
    let detail = format!("scenario {name} defense {defense} size {size}");
    let result = &ahn_core::run_cells(&[cell], trace.as_ref(), |_| detail.clone())[0];
    println!(
        "scenario {name} vs {defense}: cooperation {} ± {}",
        ahn_stats::pct(result.final_coop.mean().unwrap_or(0.0), 1),
        ahn_stats::pct(result.final_coop.ci95_half_width().unwrap_or(0.0), 1),
    );
    for (i, env) in result.per_env_csn_free.iter().enumerate() {
        println!(
            "  env {i}: attacker-free paths {}",
            ahn_stats::pct(env.mean().unwrap_or(0.0), 1)
        );
    }
    Ok(())
}

/// `ahn-exp atlas`: run the scenario x defense grid and emit the
/// committed artifacts — markdown to stdout or `--out`, the
/// byte-stable JSON report to `--json`.
fn atlas(args: &[String]) -> Result<(), CliError> {
    let mut grid = ahn_core::AtlasGrid::smoke();
    let (mut json_path, mut out_path) = (None, None);
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--json" => json_path = Some(args.value(flag)?),
            "--out" => out_path = Some(args.value(flag)?),
            "--scenarios" => {
                grid.scenarios = args.value(flag)?.split(',').map(str::to_owned).collect()
            }
            "--size" => grid.size = participants(&mut args, flag)?,
            _ => return Err(CliError::unknown("atlas", flag)),
        }
    }
    eprintln!(
        "atlas: {} scenarios x {} defenses at {} participants...",
        grid.scenarios.len(),
        ahn_core::atlas::DEFENSES.len(),
        grid.size
    );
    let report = ahn_core::run_atlas(&grid)?;
    let write = |path: &str, contents: &str| {
        std::fs::write(path, contents).map_err(|e| Bad(format!("cannot write {path}: {e}")))?;
        eprintln!("  wrote {path}");
        Ok::<_, CliError>(())
    };
    if let Some(path) = json_path {
        // serde_json's compact form is deterministic; a trailing
        // newline keeps the committed file POSIX-friendly.
        let mut bytes = serde_json::to_string(&report).expect("an atlas report serializes");
        bytes.push('\n');
        write(path, &bytes)?;
    }
    let md = ahn_core::render_atlas(&report);
    match out_path {
        Some(path) => write(path, &md)?,
        None => print!("{md}"),
    }
    Ok(())
}

/// `ahn-exp fidelity` flags.
#[derive(Debug)]
struct FidelityFlags {
    cases: Vec<usize>,
    tolerance: f64,
    opts: Options,
}

fn parse_fidelity_flags(args: &[String]) -> Result<FidelityFlags, CliError> {
    let mut f = FidelityFlags {
        cases: vec![1, 3],
        tolerance: 0.15,
        opts: Options::new(ExperimentConfig::scaled()),
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--cases" => {
                f.cases =
                    args.checked(flag, "a comma-separated list of paper cases 1..=4", |v| {
                        v.split(',')
                            .map(|c| c.parse().ok().filter(|c| (1..=4).contains(c)))
                            .collect()
                    })?
            }
            "--tol" => f.tolerance = args.fraction(flag)?,
            _ => f.opts.apply(flag, &mut args)?,
        }
    }
    f.opts.finish("ahn-exp")?;
    Ok(f)
}

/// `ahn-exp fidelity`: run the given paper cases and exit non-zero when
/// any final cooperation level lands outside `--tol` of the paper's
/// target — the CI guard that hot-path work cannot silently break the
/// model where it is known to reproduce.
fn fidelity(args: &[String]) -> Result<(), CliError> {
    let f = parse_fidelity_flags(args)?;
    let (opts, tolerance) = (&f.opts, f.tolerance);
    let results = run_cases(opts, &f.cases)?;
    println!(
        "reproduction fidelity: {} replications x {} generations, R={}, tolerance {:.0}%",
        opts.config.replications,
        opts.config.generations,
        opts.config.rounds,
        tolerance * 100.0
    );
    let mut failed = false;
    for (&case_no, result) in f.cases.iter().zip(&results) {
        // Single-environment cases check the aggregate §6.2 number;
        // multi-environment cases check each environment against its
        // Table 5 column (the aggregate would blur four very different
        // equilibria — see ahn_core::calibrate::per_env_targets).
        let checks: Vec<(String, &ahn_stats::Summary, f64)> =
            match ahn_core::calibrate::per_env_targets(case_no) {
                Some(targets) if result.per_env_coop.len() == targets.len() => {
                    (result.per_env_coop.iter().zip(targets).enumerate())
                        .map(|(e, (env, &target))| (format!(" TE{}", e + 1), env, target))
                        .collect()
                }
                _ => vec![(
                    String::new(),
                    &result.final_coop,
                    ahn_core::calibrate::paper_target(case_no),
                )],
            };
        for (env, summary, target) in checks {
            let coop = summary.mean().unwrap_or(0.0);
            let error = (coop - target).abs();
            let ok = error <= tolerance;
            // The replication count and min–max range the tolerance
            // rests on (too few replications for a normal interval).
            println!(
                "  case {case_no}{env}: cooperation {:>6} vs paper {:>6}  (|error| {:>5}; \
                 {} reps, range {}–{})  {}",
                ahn_stats::pct(coop, 1),
                ahn_stats::pct(target, 1),
                ahn_stats::pct(error, 1),
                summary.count(),
                ahn_stats::pct(summary.min().unwrap_or(0.0), 1),
                ahn_stats::pct(summary.max().unwrap_or(0.0), 1),
                if ok { "ok" } else { "OUTSIDE TOLERANCE" }
            );
            failed |= !ok;
        }
    }
    if failed {
        return Err(Failed(format!(
            "reproduction fidelity violated (tolerance {:.0}%)",
            tolerance * 100.0
        )));
    }
    Ok(())
}

/// `ahn-exp bench` flags.
#[derive(Debug, Clone, PartialEq)]
struct BenchFlags {
    json: bool,
    baseline_path: Option<String>,
    max_regression: f64,
    threads: Vec<usize>,
}

fn parse_bench_flags(args: &[String]) -> Result<BenchFlags, CliError> {
    let mut f = BenchFlags {
        json: false,
        baseline_path: None,
        max_regression: 2.0,
        threads: vec![1, 4, 8],
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--json" => f.json = true,
            "--baseline" => {
                f.baseline_path = Some(args.checked(flag, "a file", |p| Some(p.into()))?)
            }
            "--max-regression" => {
                f.max_regression = args.checked(flag, "a factor >= 1", |v| {
                    v.parse().ok().filter(|&x| x >= 1.0)
                })?
            }
            // The report schema has rows for exactly t = 1, 4, 8; other
            // counts would be measured into the void.
            "--threads" => {
                f.threads = args.checked(flag, "a comma-separated subset of 1,4,8", |v| {
                    v.split(',')
                        .map(|t| t.trim().parse().ok().filter(|t| [1, 4, 8].contains(t)))
                        .collect()
                })?
            }
            _ => return Err(CliError::unknown("bench", flag)),
        }
    }
    Ok(f)
}

/// `ahn-exp bench`: time the artifact pipelines and game throughput
/// (PERFORMANCE.md documents the protocol and the `BENCH_N.json`
/// convention).
fn bench(args: &[String]) -> Result<(), CliError> {
    let flags = parse_bench_flags(args)?;
    if let Some(reason) = ahn_bench::harness::portable_build_warning() {
        eprintln!("warning: {reason}");
    }
    ahn_core::threads::log_once("bench");
    let runs = ahn_bench::harness::MEASURE_RUNS;
    eprintln!("measuring (min of {runs} runs per pipeline)...");
    let report = ahn_bench::harness::run_bench(&flags.threads);
    if flags.json {
        let text = serde_json::to_string_pretty(&report)
            .map_err(|e| Failed(format!("cannot serialize report: {e}")))?;
        println!("{text}");
    } else {
        print!("{}", ahn_bench::harness::render(&report));
    }

    if let Some(path) = flags.baseline_path {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| Failed(format!("cannot read baseline {path}: {e}")))?;
        let baseline: ahn_bench::harness::BenchBaseline = serde_json::from_str(&text)
            .map_err(|e| Failed(format!("malformed baseline {path}: {e}")))?;
        ahn_bench::harness::check_regression(&report, &baseline, flags.max_regression)
            .map_err(|msg| Failed(format!("performance regression vs {path}: {msg}")))?;
        eprintln!(
            "within {}x of the committed baseline ({})",
            flags.max_regression, baseline.note
        );
    }
    Ok(())
}

fn parse_serve_flags(args: &[String]) -> Result<ahn_serve::ServerConfig, CliError> {
    let mut config = ahn_serve::ServerConfig::default();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--addr" => config.addr = args.value(flag)?.into(),
            // 0 is legal: a pull-only node that computes nothing
            // itself and serves cells to `ahn-exp worker` processes.
            "--workers" => config.workers = args.parse(flag)?,
            "--cache-cap" => config.cache_cap = args.parse(flag)?,
            "--journal" => config.journal = Some(args.value(flag)?.into()),
            "--trace" => config.trace = Some(args.value(flag)?.into()),
            "--queue-cap" => config.queue_cap = args.positive(flag)?,
            // Deadline knobs, all in milliseconds, 0 = disabled.
            "--read-timeout-ms" => config.read_timeout_ms = args.parse(flag)?,
            "--idle-timeout-ms" => config.idle_timeout_ms = args.parse(flag)?,
            "--write-timeout-ms" => config.write_timeout_ms = args.parse(flag)?,
            "--drain-ms" => config.drain_ms = args.parse(flag)?,
            _ => return Err(CliError::unknown("serve", flag)),
        }
    }
    Ok(config)
}

/// `ahn-exp serve`: run the HTTP job server until `POST /v1/shutdown`.
fn serve(args: &[String]) -> Result<(), CliError> {
    let config = parse_serve_flags(args)?;
    // Keep worker fan-out and per-job rayon fan-out from multiplying
    // into oversubscription: unless the operator already pinned
    // AHN_THREADS (the vendored rayon's cap, vendor/README.md), give
    // each worker an equal share of the cores.
    if std::env::var_os("AHN_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let share = (cores / config.workers.max(1)).max(1);
        std::env::set_var("AHN_THREADS", share.to_string());
    }
    let handle = ahn_serve::spawn(config.clone())
        .map_err(|e| Failed(format!("cannot bind {}: {e}", config.addr)))?;
    println!("ahn-serve listening on {}", handle.addr());
    eprintln!(
        "  {} workers, cache capacity {}, queue capacity {} (POST /v1/shutdown to stop)",
        config.workers, config.cache_cap, config.queue_cap
    );
    if let Some(path) = &config.journal {
        eprintln!("  completion journal: {path}");
    }
    if let Some(path) = &config.trace {
        eprintln!("  span trace log: {path}");
    }
    handle.join();
    eprintln!("ahn-serve: shut down cleanly");
    Ok(())
}

/// `ahn-exp loadtest` flags: the client config plus reporting options.
#[derive(Debug, Clone, PartialEq, Default)]
struct LoadtestFlags {
    config: ahn_serve::LoadtestConfig,
    json: bool,
    min_hit_rate: Option<f64>,
    shutdown: bool,
}

fn parse_loadtest_flags(args: &[String]) -> Result<LoadtestFlags, CliError> {
    let mut f = LoadtestFlags::default();
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--addr" => f.config.addr = args.value(flag)?.into(),
            "--connections" => f.config.connections = args.positive(flag)?,
            "--requests" => f.config.requests = args.positive(flag)?,
            "--distinct" => f.config.distinct = args.positive(flag)?,
            "--json" => f.json = true,
            "--min-hit-rate" => f.min_hit_rate = Some(args.fraction(flag)?),
            "--shutdown" => f.shutdown = true,
            _ => return Err(CliError::unknown("loadtest", flag)),
        }
    }
    Ok(f)
}

/// `ahn-exp loadtest`: drive a running server with a mixed
/// cache-hit/cache-miss workload and report latency + throughput.
fn loadtest(args: &[String]) -> Result<(), CliError> {
    let flags = parse_loadtest_flags(args)?;
    let config = &flags.config;
    eprintln!(
        "loadtest: {} requests over {} connections against {} ({} distinct specs)...",
        config.requests, config.connections, config.addr, config.distinct
    );
    let report = ahn_serve::run_loadtest(config).map_err(Failed)?;
    if flags.json {
        let text = serde_json::to_string_pretty(&report)
            .map_err(|e| Failed(format!("cannot serialize report: {e}")))?;
        println!("{text}");
    } else {
        print!("{}", ahn_serve::loadtest::render(&report));
    }

    if flags.shutdown {
        match ahn_serve::loadtest::one_shot(&config.addr, "POST", "/v1/shutdown", "") {
            Ok((200, _)) => eprintln!("sent shutdown to {}", config.addr),
            Ok((status, body)) => {
                return Err(Failed(format!("shutdown returned {status}: {body}")))
            }
            Err(e) => return Err(Failed(format!("shutdown failed: {e}"))),
        }
    }

    if report.errors > 0 {
        return Err(Failed(format!("{} requests failed", report.errors)));
    }
    if let Some(min) = flags.min_hit_rate {
        let rate = report.server_metrics.map_or(0.0, |m| m.cache_hit_rate);
        if rate < min {
            return Err(Failed(format!(
                "cache hit rate {rate:.3} is below the required {min:.3}"
            )));
        }
        eprintln!("cache hit rate {rate:.3} >= {min:.3}");
    }
    Ok(())
}

/// `ahn-exp worker` flags: where to pull work from, when to stop, how
/// to back off and break, and which chaos faults to self-inject.
#[derive(Debug, Clone, PartialEq)]
struct WorkerFlags {
    addr: String,
    config: ahn_serve::WorkerConfig,
    /// Breaker trip threshold (consecutive failures); 0 disables.
    breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe, milliseconds.
    breaker_cooldown_ms: u64,
    /// Seeded self-injected transport chaos (`--chaos-*`): the CLI face
    /// of the `FlakyTransport` harness, for drills and the CI chaos job.
    chaos: ahn_serve::FaultPlan,
    /// Span trace log path (`--trace`).
    trace: Option<String>,
}

fn parse_worker_flags(args: &[String]) -> Result<WorkerFlags, CliError> {
    let mut f = WorkerFlags {
        addr: "127.0.0.1:7878".into(),
        config: ahn_serve::WorkerConfig::default(),
        breaker_threshold: 8,
        breaker_cooldown_ms: 1_000,
        chaos: ahn_serve::FaultPlan::none(),
        trace: None,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.flag() {
        match flag {
            "--addr" => f.addr = args.value(flag)?.into(),
            "--lease-ms" => f.config.lease_ms = args.positive(flag)?,
            "--poll-ms" => f.config.poll_ms = args.positive(flag)?,
            "--max-cells" => f.config.max_cells = args.parse(flag)?,
            "--exit-when-idle" => f.config.idle_exit_polls = 3,
            "--retry-base-ms" => f.config.backoff.base_ms = args.positive(flag)?,
            "--retry-cap-ms" => f.config.backoff.cap_ms = args.positive(flag)?,
            "--backoff-seed" => f.config.backoff.seed = args.parse(flag)?,
            "--max-errors" => f.config.max_consecutive_errors = args.parse(flag)?,
            "--breaker-threshold" => f.breaker_threshold = args.parse(flag)?,
            "--breaker-cooldown-ms" => f.breaker_cooldown_ms = args.parse(flag)?,
            "--chaos-seed" => f.chaos.seed = args.parse(flag)?,
            "--chaos-drop-request" => f.chaos.drop_request_percent = args.percent(flag)?,
            "--chaos-drop-response" => f.chaos.drop_response_percent = args.percent(flag)?,
            "--chaos-latency-percent" => f.chaos.latency_percent = args.percent(flag)?,
            "--chaos-latency-ms" => f.chaos.latency_ms = args.parse(flag)?,
            "--chaos-stall-percent" => f.chaos.stall_percent = args.percent(flag)?,
            "--chaos-stall-ms" => f.chaos.stall_ms = args.parse(flag)?,
            "--chaos-partial-percent" => f.chaos.partial_write_percent = args.percent(flag)?,
            "--trace" => f.trace = Some(args.value(flag)?.into()),
            _ => return Err(CliError::unknown("worker", flag)),
        }
    }
    Ok(f)
}

/// `ahn-exp worker`: pull cells from a serve node over
/// `POST /v1/work/claim` / `complete` until told to stop (or, with
/// `--exit-when-idle`, until the queue stays empty).
fn worker(args: &[String]) -> Result<(), CliError> {
    let flags = parse_worker_flags(args)?;
    eprintln!("worker: pulling cells from {}...", flags.addr);
    ahn_core::threads::log_once("worker");
    if flags.chaos.is_active() {
        eprintln!("worker: chaos enabled: {:?}", flags.chaos);
    }
    let trace = open_trace(flags.trace.as_deref(), "worker")?;
    let mut transport = ahn_serve::CircuitBreaker::new(
        ahn_serve::FlakyTransport::new(ahn_serve::HttpTransport::new(&flags.addr), flags.chaos),
        flags.breaker_threshold,
        std::time::Duration::from_millis(flags.breaker_cooldown_ms),
    );
    let (report, telemetry) =
        ahn_serve::run_worker_observed(&mut transport, &flags.config, trace.as_ref())
            .map_err(Failed)?;
    eprintln!(
        "worker: {} completed, {} failed, {} duplicates, {} dropped, {} empty polls, {} breaker trips",
        report.completed,
        report.failed,
        report.duplicates,
        report.dropped,
        report.empty_polls,
        report.breaker_opens
    );
    // The machine-readable exit summary: one JSON line on stdout (the
    // human-readable progress stays on stderr).
    let summary = ahn_serve::WorkerSummary::new(&report, &telemetry);
    match serde_json::to_string(&summary) {
        Ok(line) => println!("{line}"),
        Err(e) => eprintln!("warning: cannot serialize worker summary: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The shared experiment flags alone, from the scaled preset.
    fn options(list: &[&str]) -> Result<Options, CliError> {
        Options::parse(&args(list), ExperimentConfig::scaled(), true)
    }

    #[test]
    fn bench_flags_parse() {
        let f = parse_bench_flags(&args(&["--json", "--baseline", "B.json"])).unwrap();
        assert!(f.json);
        assert_eq!(f.baseline_path.as_deref(), Some("B.json"));
        assert_eq!(f.max_regression, 2.0);
        assert_eq!(f.threads, vec![1, 4, 8], "default thread sweep");
        let f = parse_bench_flags(&args(&["--max-regression", "1.5"])).unwrap();
        assert_eq!(f.max_regression, 1.5);
        let f = parse_bench_flags(&args(&["--threads", "1,4"])).unwrap();
        assert_eq!(f.threads, vec![1, 4]);
        let f = parse_bench_flags(&args(&["--threads", " 8 "])).unwrap();
        assert_eq!(f.threads, vec![8]);
    }

    #[test]
    fn bench_flag_errors() {
        let err = parse_bench_flags(&args(&["--frobnicate"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown bench flag"), "{err}");
        let err = parse_bench_flags(&args(&["--baseline"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--baseline needs a file"), "{err}");
        for bad in [
            &["--max-regression"][..],
            &["--max-regression", "0.5"],
            &["--max-regression", "x"],
        ] {
            let err = parse_bench_flags(&args(bad)).unwrap_err().to_string();
            assert!(err.contains("factor >= 1"), "{bad:?}: {err}");
        }
        for bad in [
            &["--threads"][..],
            &["--threads", ""],
            &["--threads", "2"],
            &["--threads", "1,x"],
            &["--threads", "1,,4"],
        ] {
            let err = parse_bench_flags(&args(bad)).unwrap_err().to_string();
            assert!(err.contains("subset of 1,4,8"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn serve_flags_parse() {
        let c = parse_serve_flags(&args(&[])).unwrap();
        assert_eq!(c.addr, "127.0.0.1:7172");
        let c = parse_serve_flags(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-cap",
            "512",
            "--queue-cap",
            "32",
        ]))
        .unwrap();
        assert_eq!(
            (c.addr.as_str(), c.workers, c.cache_cap, c.queue_cap),
            ("0.0.0.0:9000", 8, 512, 32)
        );
        // cache-cap 0 is legal: it disables caching.
        assert_eq!(
            parse_serve_flags(&args(&["--cache-cap", "0"]))
                .unwrap()
                .cache_cap,
            0
        );
        // workers 0 is legal: a pull-only node for external workers.
        assert_eq!(
            parse_serve_flags(&args(&["--workers", "0"]))
                .unwrap()
                .workers,
            0
        );
        let c = parse_serve_flags(&args(&["--journal", "/tmp/j.log"])).unwrap();
        assert_eq!(c.journal.as_deref(), Some("/tmp/j.log"));
        let c = parse_serve_flags(&args(&[
            "--read-timeout-ms",
            "100",
            "--idle-timeout-ms",
            "200",
            "--write-timeout-ms",
            "300",
            "--drain-ms",
            "400",
        ]))
        .unwrap();
        assert_eq!(
            (
                c.read_timeout_ms,
                c.idle_timeout_ms,
                c.write_timeout_ms,
                c.drain_ms
            ),
            (100, 200, 300, 400)
        );
        // 0 is legal everywhere: it disables that deadline.
        assert_eq!(
            parse_serve_flags(&args(&["--read-timeout-ms", "0"]))
                .unwrap()
                .read_timeout_ms,
            0
        );
    }

    #[test]
    fn serve_flag_errors() {
        let err = parse_serve_flags(&args(&["--port", "80"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown serve flag"), "{err}");
        let err = parse_serve_flags(&args(&["--addr"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--addr needs a value"), "{err}");
        for bad in [&["--workers", "-1"][..], &["--workers", "many"]] {
            assert!(parse_serve_flags(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(parse_serve_flags(&args(&["--queue-cap", "0"])).is_err());
        assert!(parse_serve_flags(&args(&["--cache-cap", "x"])).is_err());
        assert!(parse_serve_flags(&args(&["--journal"])).is_err());
    }

    #[test]
    fn worker_flags_parse() {
        let f = parse_worker_flags(&args(&[])).unwrap();
        assert_eq!(f.addr, "127.0.0.1:7878");
        assert_eq!(f.config.idle_exit_polls, 0);
        let f = parse_worker_flags(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--lease-ms",
            "2000",
            "--poll-ms",
            "5",
            "--max-cells",
            "10",
            "--exit-when-idle",
        ]))
        .unwrap();
        assert_eq!(f.addr, "127.0.0.1:9");
        assert_eq!(
            (f.config.lease_ms, f.config.poll_ms, f.config.max_cells),
            (2000, 5, 10)
        );
        assert!(f.config.idle_exit_polls > 0);
    }

    #[test]
    fn worker_resilience_flags_parse() {
        let f = parse_worker_flags(&args(&[])).unwrap();
        assert_eq!(f.config.backoff, ahn_serve::BackoffPolicy::default());
        assert_eq!((f.breaker_threshold, f.breaker_cooldown_ms), (8, 1_000));
        assert!(!f.chaos.is_active());
        let f = parse_worker_flags(&args(&[
            "--retry-base-ms",
            "10",
            "--retry-cap-ms",
            "100",
            "--backoff-seed",
            "7",
            "--max-errors",
            "5",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown-ms",
            "250",
            "--chaos-seed",
            "42",
            "--chaos-drop-request",
            "20",
            "--chaos-drop-response",
            "10",
            "--chaos-latency-percent",
            "15",
            "--chaos-latency-ms",
            "30",
            "--chaos-stall-percent",
            "5",
            "--chaos-stall-ms",
            "60",
            "--chaos-partial-percent",
            "25",
        ]))
        .unwrap();
        assert_eq!(
            (
                f.config.backoff.base_ms,
                f.config.backoff.cap_ms,
                f.config.backoff.seed
            ),
            (10, 100, 7)
        );
        assert_eq!(f.config.max_consecutive_errors, 5);
        assert_eq!((f.breaker_threshold, f.breaker_cooldown_ms), (3, 250));
        assert_eq!(
            f.chaos,
            ahn_serve::FaultPlan {
                seed: 42,
                drop_request_percent: 20,
                drop_response_percent: 10,
                latency_percent: 15,
                latency_ms: 30,
                stall_percent: 5,
                stall_ms: 60,
                partial_write_percent: 25,
                die_after_calls: None,
            }
        );
        assert!(f.chaos.is_active());
    }

    #[test]
    fn worker_flag_errors() {
        let err = parse_worker_flags(&args(&["--what"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown worker flag"), "{err}");
        for bad in [
            &["--lease-ms", "0"][..],
            &["--poll-ms", "0"],
            &["--max-cells", "x"],
            &["--addr"],
            &["--retry-base-ms", "0"],
            &["--retry-cap-ms", "x"],
            &["--breaker-threshold", "-1"],
            &["--chaos-drop-request", "101"],
            &["--chaos-latency-percent", "x"],
            &["--chaos-stall-percent", "200"],
            &["--chaos-partial-percent"],
        ] {
            assert!(parse_worker_flags(&args(bad)).is_err(), "{bad:?}");
        }
        let err = parse_worker_flags(&args(&["--chaos-drop-request", "101"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("[0, 100]"), "{err}");
    }

    #[test]
    fn loadtest_flags_parse() {
        let f = parse_loadtest_flags(&args(&[])).unwrap();
        assert!(!f.json && !f.shutdown && f.min_hit_rate.is_none());
        let f = parse_loadtest_flags(&args(&[
            "--addr",
            "127.0.0.1:1",
            "--connections",
            "2",
            "--requests",
            "50",
            "--distinct",
            "5",
            "--json",
            "--min-hit-rate",
            "0.5",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(
            (f.config.connections, f.config.requests, f.config.distinct),
            (2, 50, 5)
        );
        assert!(f.json && f.shutdown);
        assert_eq!(f.min_hit_rate, Some(0.5));
    }

    #[test]
    fn loadtest_flag_errors() {
        let err = parse_loadtest_flags(&args(&["--what"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown loadtest flag"), "{err}");
        for bad in [
            &["--connections", "0"][..],
            &["--requests", "0"],
            &["--distinct", "0"],
            &["--connections"],
            &["--min-hit-rate", "1.5"],
            &["--min-hit-rate", "nan"],
        ] {
            assert!(parse_loadtest_flags(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_flags_parse() {
        let (grid, f) = parse_sweep_flags(&args(&[])).unwrap();
        assert_eq!(
            (grid.cases, grid.sizes, grid.seed_blocks.len(), f.json),
            (vec![1], vec![50], 1, false)
        );
        assert_eq!(grid.payoffs, vec!["paper".to_string()]);
        assert_eq!(grid.scenarios, None);
        // No shared flags: the base is the scaled preset.
        assert_eq!(grid.base, ExperimentConfig::scaled());

        let (grid, f) = parse_sweep_flags(&args(&[
            "--scenarios",
            "base,slanderers",
            "--cases",
            "1,3",
            "--payoffs",
            "paper,literal-ocr",
            "--sizes",
            "10,50,100",
            "--seed-blocks",
            "4",
            "--json",
            "--preset",
            "smoke",
            "--reps",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            grid.scenarios,
            Some(vec!["base".to_string(), "slanderers".to_string()])
        );
        assert_eq!(grid.cases, vec![1, 3]);
        assert_eq!(
            grid.payoffs,
            vec!["paper".to_string(), "literal-ocr".to_string()]
        );
        assert_eq!(grid.sizes, vec![10, 50, 100]);
        assert_eq!(grid.seed_blocks.len(), 4);
        assert!(f.json);
        // The shared flags `--preset smoke --reps 2` apply in place.
        let mut smoke = ExperimentConfig::smoke();
        smoke.replications = 2;
        assert_eq!(grid.base, smoke);
        assert_eq!(f.opts.config.replications, 2);

        let (_, f) =
            parse_sweep_flags(&args(&["--via", "127.0.0.1:7172", "--journal", "s.log"])).unwrap();
        assert_eq!(f.via.as_deref(), Some("127.0.0.1:7172"));
        assert_eq!(f.journal.as_deref(), Some("s.log"));
    }

    #[test]
    fn sweep_flag_errors() {
        for bad in [
            &["--cases"][..],
            &["--cases", ""],
            &["--scenarios"],
            &["--scenarios", ""],
            &["--sizes", "ten"],
            &["--seed-blocks", "0"],
            &["--seed-blocks", "-1"],
            // A journal only makes sense for a distributed run.
            &["--journal", "s.log"],
        ] {
            assert!(parse_sweep_flags(&args(bad)).is_err(), "{bad:?}");
        }
        // Unknown flags fall through to the shared experiment flags,
        // which reject them.
        assert!(parse_sweep_flags(&args(&["--frob", "x"])).is_err());
    }

    #[test]
    fn calibrate_flags_parse() {
        let (grid, f) = parse_calibrate_flags(&args(&[])).unwrap();
        assert_eq!(grid.cases, vec![1, 2, 3, 4]);
        assert_eq!(grid.scales, vec![1.0]);
        assert_eq!(grid.selections, vec!["paper".to_string()]);
        assert_eq!(
            (
                grid.size,
                grid.seed_blocks.len(),
                grid.max_candidates,
                f.json
            ),
            (10, 1, 0, false)
        );
        // No shared flags: the base is calibrate's smoke preset.
        assert_eq!(grid.base, ExperimentConfig::smoke());

        let (grid, f) = parse_calibrate_flags(&args(&[
            "--cases",
            "2,4",
            "--scales",
            "0.5,1,2",
            "--selections",
            "paper,rank,elitist-2",
            "--size",
            "50",
            "--seed-blocks",
            "3",
            "--max-candidates",
            "24",
            "--json",
            "--preset",
            "scaled",
            "--reps",
            "4",
        ]))
        .unwrap();
        assert_eq!(grid.cases, vec![2, 4]);
        assert_eq!(grid.scales, vec![0.5, 1.0, 2.0]);
        assert_eq!(
            grid.selections,
            vec![
                "paper".to_string(),
                "rank".to_string(),
                "elitist-2".to_string()
            ]
        );
        assert_eq!(
            (grid.size, grid.seed_blocks.len(), grid.max_candidates),
            (50, 3, 24)
        );
        assert!(f.json);
        // The shared flags `--preset scaled --reps 4` apply in place.
        let mut scaled = ExperimentConfig::scaled();
        scaled.replications = 4;
        assert_eq!(grid.base, scaled);
        assert_eq!(f.opts.config.replications, 4);

        let (_, f) =
            parse_calibrate_flags(&args(&["--via", "127.0.0.1:7172", "--journal", "c.log"]))
                .unwrap();
        assert_eq!(f.via.as_deref(), Some("127.0.0.1:7172"));
        assert_eq!(f.journal.as_deref(), Some("c.log"));
    }

    #[test]
    fn calibrate_flag_errors() {
        for bad in [
            &["--cases"][..],
            &["--cases", ""],
            &["--scales", "big"],
            &["--selections", ""],
            &["--size", "2"],
            &["--size", "many"],
            &["--seed-blocks", "0"],
            &["--max-candidates", "-1"],
            // A journal only makes sense for a distributed run.
            &["--journal", "c.log"],
        ] {
            assert!(parse_calibrate_flags(&args(bad)).is_err(), "{bad:?}");
        }
        // Unknown flags fall through to the shared experiment flags,
        // which reject them.
        assert!(parse_calibrate_flags(&args(&["--frob", "x"])).is_err());
    }

    #[test]
    fn fidelity_flags_parse() {
        let f = parse_fidelity_flags(&args(&[])).unwrap();
        assert_eq!(f.cases, vec![1, 3]);
        assert_eq!(f.tolerance, 0.15);
        let f = parse_fidelity_flags(&args(&[
            "--cases", "1,2,3,4", "--tol", "0.2", "--preset", "smoke",
        ]))
        .unwrap();
        assert_eq!(f.cases, vec![1, 2, 3, 4]);
        assert_eq!(f.tolerance, 0.2);
        assert_eq!(f.opts.config, ExperimentConfig::smoke());
    }

    #[test]
    fn fidelity_flag_errors() {
        for bad in [
            &["--cases", "0"][..],
            &["--cases", "5"],
            &["--cases", ""],
            &["--tol", "1.5"],
            &["--tol", "x"],
            &["--tol"],
        ] {
            assert!(parse_fidelity_flags(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn experiment_options_flag_errors() {
        let err = options(&["--bogus"]).unwrap_err().to_string();
        assert!(err.contains("unknown flag"), "{err}");
        let err = options(&["--reps"]).unwrap_err().to_string();
        assert!(err.contains("--reps needs a value"), "{err}");
        let err = options(&["--reps", "zero"]).unwrap_err().to_string();
        assert!(err.contains("--reps"), "{err}");
        let err = options(&["--preset", "galactic"]).unwrap_err().to_string();
        assert!(err.contains("unknown preset"), "{err}");
        let err = options(&["--config", "/no/such/file.json"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot read"), "{err}");
        // Flag values that parse but violate config validation.
        let err = options(&["--reps", "0"]).unwrap_err().to_string();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn experiment_options_happy_path() {
        let o = options(&["--preset", "smoke", "--reps", "3", "--seed", "9"]).unwrap();
        assert_eq!(o.config.replications, 3);
        assert_eq!(o.config.base_seed, 9);
        assert!(o.out_dir.is_none());
        assert!(o.open_trace().unwrap().is_none());
        let o = options(&["--out", "/tmp/x"]).unwrap();
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }

    /// A temp path for flags that open their file at parse time.
    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("ahn-cli-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn trace_flags_parse_everywhere() {
        // serve/worker/sweep/calibrate carry the path; Options opens it.
        let c = parse_serve_flags(&args(&["--trace", "srv.trace"])).unwrap();
        assert_eq!(c.trace.as_deref(), Some("srv.trace"));
        assert!(parse_serve_flags(&args(&["--trace"])).is_err());

        let f = parse_worker_flags(&args(&["--trace", "w.trace"])).unwrap();
        assert_eq!(f.trace.as_deref(), Some("w.trace"));
        assert!(parse_worker_flags(&args(&[])).unwrap().trace.is_none());

        // sweep and calibrate name theirs like every experiment command:
        // as the coordinator with --via, else for the local run. Parsing
        // opens nothing; the command opens the log once its cells pass.
        let path = tmp("grid.trace");
        let exists = || std::path::Path::new(&path).exists();
        let (_, f) = parse_sweep_flags(&args(&["--trace", &path])).unwrap();
        assert!(!exists(), "parsing created the trace log");
        let log = f.opts.open_trace().unwrap();
        assert_eq!(
            log.map(|log| log.node().starts_with("ahn-exp:")),
            Some(true)
        );
        assert!(exists());
        let (_, f) =
            parse_calibrate_flags(&args(&["--via", "127.0.0.1:7172", "--trace", &path])).unwrap();
        let coordinator =
            (f.opts.open_trace().unwrap()).map(|log| log.node().starts_with("coordinator:"));
        assert_eq!(coordinator, Some(true));
        let (_, f) = parse_calibrate_flags(&args(&["--trace", &path])).unwrap();
        assert!(f.opts.open_trace().unwrap().is_some());
        let _ = std::fs::remove_file(&path);

        let path = tmp("options.trace");
        let o = options(&["--trace", &path]).unwrap();
        assert!(o.open_trace().unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_log_opens_only_after_the_whole_line_parses() {
        let path = tmp("rejected.trace");
        let err = options(&["--trace", &path, "--bogus"]).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("--bogus")),
            "{err:?}"
        );
        assert!(
            !std::path::Path::new(&path).exists(),
            "a rejected command line must not leave a trace log behind"
        );
    }

    #[test]
    fn trace_join_dispatch_and_flags() {
        // File arguments (or --require-complete) pick the join mode;
        // experiment flags keep the legacy decision-trace dump.
        assert!(trace_join_requested(&args(&["a.trace", "b.trace"])));
        assert!(trace_join_requested(&args(&[
            "--require-complete",
            "1",
            "a.trace"
        ])));
        assert!(!trace_join_requested(&args(&[])));
        assert!(!trace_join_requested(&args(&["--preset", "smoke"])));

        let f = parse_trace_join_flags(&args(&["a.trace", "b.trace"])).unwrap();
        assert_eq!(f.require_complete, 0);
        assert_eq!(f.files, args(&["a.trace", "b.trace"]));
        let f = parse_trace_join_flags(&args(&["--require-complete", "3", "a.trace"])).unwrap();
        assert_eq!(f.require_complete, 3);

        for bad in [
            &[][..],
            &["--require-complete"],
            &["--require-complete", "x", "a.trace"],
            &["--frob", "a.trace"],
        ] {
            assert!(parse_trace_join_flags(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn trace_join_reconstructs_a_cell_across_logs() {
        use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
        let server = tmp("join-server.trace");
        let worker = tmp("join-worker.trace");
        let key = 0xfeed_beefu64;
        let tid = trace_id_of_key(key);
        {
            let log = TraceLog::open(std::path::Path::new(&server), "serve:test").unwrap();
            log.emit(TraceEvent::new(tid, "submit").key(key).job(1));
            log.emit(TraceEvent::new(tid, "enqueue").key(key).job(1));
            log.emit(TraceEvent::new(tid, "lease").key(key).job(1).lease(7));
            log.emit(
                TraceEvent::new(tid, "complete")
                    .key(key)
                    .job(1)
                    .outcome(true),
            );
        }
        {
            let log = TraceLog::open(std::path::Path::new(&worker), "worker:test").unwrap();
            log.emit(TraceEvent::new(tid, "claim").lease(7));
            log.emit(TraceEvent::new(tid, "compute").lease(7).outcome(true));
            log.emit(TraceEvent::new(tid, "deliver").lease(7).outcome(true));
        }
        let mut events = Vec::new();
        for path in [&server, &worker] {
            events.extend(
                ahn_obs::read_trace(std::path::Path::new(path))
                    .unwrap()
                    .events,
            );
        }
        let tree = ahn_obs::join_traces(events, 0);
        assert_eq!(tree.cells.len(), 1);
        assert_eq!(tree.complete_cells(), 1);
        assert_eq!(tree.orphan_spans, 0);
        let rendered = ahn_obs::render_tree(&tree);
        assert!(rendered.contains("complete"), "{rendered}");
        assert!(rendered.contains("cells=1 complete=1"), "{rendered}");
        let _ = std::fs::remove_file(&server);
        let _ = std::fs::remove_file(&worker);
    }
}
