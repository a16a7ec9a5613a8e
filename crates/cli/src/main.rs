//! `ahn-exp` — regenerate every table and figure of the paper.
//!
//! ```text
//! ahn-exp <command> [--preset smoke|scaled|paper] [--config FILE.json]
//!                   [--reps N] [--gens N] [--rounds N] [--seed S]
//!                   [--out DIR]
//!
//! `--config` loads a full serde `ExperimentConfig` (see
//! `configs/example.json`); later flags override individual fields.
//!
//! commands:
//!   fig4                cooperation evolution, cases 1-4 (Figure 4)
//!   table5              per-environment cooperation, cases 3-4 (Table 5)
//!   table6              forwarding-request responses (Table 6)
//!   table7              most popular strategies (Table 7)
//!   table8              sub-strategies, case 3 (Table 8)
//!   table9              sub-strategies, case 4 (Table 9)
//!   all                 everything above from one set of runs (+ JSON dump)
//!   ipdrp               IPDRP baseline evolution (X3)
//!   baseline-pathrater  avoidance-only baseline (X1)
//!   ablate-payoff       A1: payoff-table readings
//!   ablate-activity     A2: 13-bit vs 5-bit chromosome
//!   ablate-selection    A3: tournament vs roulette
//!   ablate-trust-table  A5: trust-threshold sensitivity
//!   ablate-unknown      A6: unknown-node bit pinning
//!   ablate-gossip       A7: second-hand reputation (CORE/CONFIDANT style)
//!   transfer            strategy transfer across cases (extension)
//!   newcomer            newcomer-join experiment (extension)
//!   sleepers            activity-dimension sleeper study (extension)
//!   sweep-rounds        cooperation vs reputation horizon R
//!   sweep-csn           cooperation vs selfish-node density
//!   sweep-mutation      cooperation vs GA mutation rate
//!   sweep               scenario-sweep grid: case x payoff x size x seed-block
//!   calibrate           reconstruction search: payoff-table family x scale x
//!                       selection variant, scored against the paper targets
//!   fidelity            assert per-case cooperation within tolerance of the
//!                       paper targets (the CI reproduction-fidelity smoke)
//!   trace               dump a JSON decision trace of one tournament, or —
//!                       given trace files — join them into per-cell span
//!                       trees (`ahn-exp trace [--require-complete N] FILE..`)
//!   check               verify the paper-input presets (Tables 1-4)
//!   bench               time the artifact pipelines (PERFORMANCE.md)
//!   serve               run the HTTP job server (crates/serve)
//!   worker              pull cells from a serve node and compute them
//!   loadtest            drive a running server, report p50/p99 + req/s
//! ```
//!
//! `sweep` and `calibrate` also accept `--via ADDR` (run the grid
//! through a serve node, distributed across its workers) and
//! `--journal FILE` (checkpoint completed cells; resume skips them).
//!
//! `serve`, `worker`, `sweep`, `calibrate` and the experiment commands
//! all accept `--trace FILE`: each node appends checksummed JSON span
//! events ([`ahn_obs::TraceLog`]) keyed by a trace id derived from the
//! cell's canonical hash, so `ahn-exp trace FILE..` reconstructs one
//! cell's submit → enqueue → lease → compute → complete → merge
//! lifecycle across server, worker and coordinator logs.

use ahn_core::{
    ablations, baselines, cases::CaseSpec, config::ExperimentConfig, experiment, extensions, report,
};
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let command = args[0].clone();
    // bench/serve/loadtest have their own flag sets; they do not share
    // the experiment-configuration options.
    if command == "bench" {
        bench(&args[1..]);
        return;
    }
    if command == "serve" {
        serve(&args[1..]);
        return;
    }
    if command == "loadtest" {
        loadtest(&args[1..]);
        return;
    }
    if command == "worker" {
        worker(&args[1..]);
        return;
    }
    if command == "sweep" {
        sweep(&args[1..]);
        return;
    }
    if command == "scenario" {
        scenario(&args[1..]);
        return;
    }
    if command == "atlas" {
        atlas(&args[1..]);
        return;
    }
    if command == "calibrate" {
        calibrate(&args[1..]);
        return;
    }
    if command == "fidelity" {
        fidelity(&args[1..]);
        return;
    }
    // `trace` is two commands sharing a name: with trace-file arguments
    // it joins span logs; with experiment flags only, it keeps its
    // original meaning (dump a game decision trace).
    if command == "trace" && trace_join_requested(&args[1..]) {
        trace_join(&args[1..]);
        return;
    }
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };

    match command.as_str() {
        "fig4" => fig4(&opts),
        "table5" => table5(&opts),
        "table6" => table6(&opts),
        "table7" => table7(&opts),
        "table8" => table8_9(&opts, 3),
        "table9" => table8_9(&opts, 4),
        "all" => all(&opts),
        "ipdrp" => ipdrp(&opts),
        "baseline-pathrater" => pathrater(&opts),
        "ablate-payoff" => ablate(&opts, "A1 payoff-table reading", ablations::ablate_payoff),
        "ablate-activity" => ablate(&opts, "A2 activity dimension", ablations::ablate_activity),
        "ablate-selection" => ablate(&opts, "A3 selection operator", ablations::ablate_selection),
        "ablate-trust-table" => ablate(
            &opts,
            "A5 trust-table thresholds",
            ablations::ablate_trust_table,
        ),
        "ablate-unknown" => ablate(&opts, "A6 unknown-node bit", ablations::ablate_unknown),
        "ablate-gossip" => ablate(&opts, "A7 second-hand reputation", ablations::ablate_gossip),
        "transfer" => transfer(&opts),
        "newcomer" => newcomer(&opts),
        "sleepers" => sleepers(&opts),
        "sweep-rounds" => sweep_rounds(&opts),
        "sweep-csn" => sweep_csn(&opts),
        "sweep-mutation" => sweep_mutation(&opts),
        "trace" => trace(&opts),
        "check" => {
            let results = ahn_core::checks::run_all();
            match ahn_core::checks::render(&results) {
                Ok(text) => print!("{text}"),
                Err(text) => {
                    print!("{text}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    println!(
        "ahn-exp — regenerate the tables and figures of Seredynski et al. (IPDPS'07)\n\n\
         usage: ahn-exp <command> [--preset smoke|scaled|paper] [--reps N]\n\
                [--gens N] [--rounds N] [--seed S] [--out DIR] [--trace FILE]\n\
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
                ahn-exp worker [--addr A] [--lease-ms N] [--poll-ms N] [--max-cells N]\n\
                               [--exit-when-idle] [--trace FILE]\n\
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

/// `ahn-exp bench` flags.
#[derive(Debug, Clone, PartialEq)]
struct BenchFlags {
    json: bool,
    baseline_path: Option<String>,
    max_regression: f64,
    threads: Vec<usize>,
}

fn parse_bench_flags(args: &[String]) -> Result<BenchFlags, String> {
    let mut flags = BenchFlags {
        json: false,
        baseline_path: None,
        max_regression: 2.0,
        threads: vec![1, 4, 8],
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => flags.json = true,
            "--baseline" => match it.next() {
                Some(p) => flags.baseline_path = Some(p.clone()),
                None => return Err("--baseline needs a file".into()),
            },
            "--max-regression" => match it.next().map(|s| s.parse::<f64>()) {
                Some(Ok(f)) if f >= 1.0 => flags.max_regression = f,
                _ => return Err("--max-regression needs a factor >= 1".into()),
            },
            // The report schema has rows for exactly t = 1, 4, 8; other
            // counts would be measured into the void.
            "--threads" => match it.next() {
                Some(list) => {
                    let parsed: Result<Vec<usize>, _> =
                        list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                    match parsed {
                        Ok(counts)
                            if !counts.is_empty()
                                && counts.iter().all(|t| [1, 4, 8].contains(t)) =>
                        {
                            flags.threads = counts
                        }
                        _ => return Err("--threads needs a comma-separated subset of 1,4,8".into()),
                    }
                }
                None => return Err("--threads needs a comma-separated subset of 1,4,8".into()),
            },
            other => return Err(format!("unknown bench flag {other:?}")),
        }
    }
    Ok(flags)
}

/// `ahn-exp bench`: time the artifact pipelines and game throughput
/// (PERFORMANCE.md documents the protocol and the `BENCH_N.json`
/// convention).
fn bench(args: &[String]) {
    let BenchFlags {
        json,
        baseline_path,
        max_regression,
        threads,
    } = match parse_bench_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(reason) = ahn_bench::harness::portable_build_warning() {
        eprintln!("warning: {reason}");
    }
    ahn_core::threads::log_once("bench");
    eprintln!("measuring (min of {} runs per pipeline)...", {
        ahn_bench::harness::MEASURE_RUNS
    });
    let report = ahn_bench::harness::run_bench(&threads);
    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error: cannot serialize report: {e}");
                std::process::exit(1);
            }
        }
    } else {
        print!("{}", ahn_bench::harness::render(&report));
    }

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline: ahn_bench::harness::BenchBaseline = match serde_json::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: malformed baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        match ahn_bench::harness::check_regression(&report, &baseline, max_regression) {
            Ok(()) => eprintln!(
                "within {max_regression}x of the committed baseline ({})",
                baseline.note
            ),
            Err(msg) => {
                eprintln!("error: performance regression vs {path}: {msg}");
                std::process::exit(1);
            }
        }
    }
}

fn parse_serve_flags(args: &[String]) -> Result<ahn_serve::ServerConfig, String> {
    let mut config = ahn_serve::ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            // 0 is legal: a pull-only node that computes nothing
            // itself and serves cells to `ahn-exp worker` processes.
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--cache-cap" => {
                config.cache_cap = value("--cache-cap")?
                    .parse()
                    .map_err(|e| format!("--cache-cap: {e}"))?
            }
            "--journal" => config.journal = Some(value("--journal")?.clone()),
            "--trace" => config.trace = Some(value("--trace")?.clone()),
            "--queue-cap" => match value("--queue-cap")?.parse() {
                Ok(n) if n > 0 => config.queue_cap = n,
                _ => return Err("--queue-cap needs a positive integer".into()),
            },
            // Deadline knobs, all in milliseconds, 0 = disabled.
            "--read-timeout-ms" => {
                config.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = value("--write-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?
            }
            "--drain-ms" => {
                config.drain_ms = value("--drain-ms")?
                    .parse()
                    .map_err(|e| format!("--drain-ms: {e}"))?
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    Ok(config)
}

/// `ahn-exp serve`: run the HTTP job server until `POST /v1/shutdown`.
fn serve(args: &[String]) {
    let config = match parse_serve_flags(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Keep worker fan-out and per-job rayon fan-out from multiplying
    // into oversubscription: unless the operator already pinned
    // AHN_THREADS (the vendored rayon's cap, vendor/README.md), give
    // each worker an equal share of the cores.
    if std::env::var_os("AHN_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let share = (cores / config.workers.max(1)).max(1);
        std::env::set_var("AHN_THREADS", share.to_string());
    }
    let handle = match ahn_serve::spawn(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
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
}

/// `ahn-exp loadtest` flags: the client config plus reporting options.
#[derive(Debug, Clone, PartialEq)]
struct LoadtestFlags {
    config: ahn_serve::LoadtestConfig,
    json: bool,
    min_hit_rate: Option<f64>,
    shutdown: bool,
}

fn parse_loadtest_flags(args: &[String]) -> Result<LoadtestFlags, String> {
    let mut flags = LoadtestFlags {
        config: ahn_serve::LoadtestConfig::default(),
        json: false,
        min_hit_rate: None,
        shutdown: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => flags.config.addr = value("--addr")?.clone(),
            "--connections" => match value("--connections")?.parse() {
                Ok(n) if n > 0 => flags.config.connections = n,
                _ => return Err("--connections needs a positive integer".into()),
            },
            "--requests" => match value("--requests")?.parse() {
                Ok(n) if n > 0 => flags.config.requests = n,
                _ => return Err("--requests needs a positive integer".into()),
            },
            "--distinct" => match value("--distinct")?.parse() {
                Ok(n) if n > 0 => flags.config.distinct = n,
                _ => return Err("--distinct needs a positive integer".into()),
            },
            "--json" => flags.json = true,
            "--min-hit-rate" => match value("--min-hit-rate")?.parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => flags.min_hit_rate = Some(f),
                _ => return Err("--min-hit-rate needs a fraction in [0, 1]".into()),
            },
            "--shutdown" => flags.shutdown = true,
            other => return Err(format!("unknown loadtest flag {other:?}")),
        }
    }
    Ok(flags)
}

/// `ahn-exp loadtest`: drive a running server with a mixed
/// cache-hit/cache-miss workload and report latency + throughput.
fn loadtest(args: &[String]) {
    let flags = match parse_loadtest_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "loadtest: {} requests over {} connections against {} ({} distinct specs)...",
        flags.config.requests, flags.config.connections, flags.config.addr, flags.config.distinct
    );
    let report = match ahn_serve::run_loadtest(&flags.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if flags.json {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error: cannot serialize report: {e}");
                std::process::exit(1);
            }
        }
    } else {
        print!("{}", ahn_serve::loadtest::render(&report));
    }

    if flags.shutdown {
        match ahn_serve::loadtest::one_shot(&flags.config.addr, "POST", "/v1/shutdown", "") {
            Ok((200, _)) => eprintln!("sent shutdown to {}", flags.config.addr),
            Ok((status, body)) => {
                eprintln!("error: shutdown returned {status}: {body}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if report.errors > 0 {
        eprintln!("error: {} requests failed", report.errors);
        std::process::exit(1);
    }
    if let Some(min) = flags.min_hit_rate {
        let rate = report
            .server_metrics
            .as_ref()
            .map(|m| m.cache_hit_rate)
            .unwrap_or(0.0);
        if rate < min {
            eprintln!("error: cache hit rate {rate:.3} is below the required {min:.3}");
            std::process::exit(1);
        }
        eprintln!("cache hit rate {rate:.3} >= {min:.3}");
    }
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

fn parse_worker_flags(args: &[String]) -> Result<WorkerFlags, String> {
    let mut flags = WorkerFlags {
        addr: "127.0.0.1:7878".into(),
        config: ahn_serve::WorkerConfig::default(),
        breaker_threshold: 8,
        breaker_cooldown_ms: 1_000,
        chaos: ahn_serve::FaultPlan::none(),
        trace: None,
    };
    let percent = |name: &str, text: &str| -> Result<u8, String> {
        match text.parse() {
            Ok(n) if n <= 100 => Ok(n),
            _ => Err(format!("{name} needs a percentage in [0, 100]")),
        }
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => flags.addr = value("--addr")?.clone(),
            "--lease-ms" => match value("--lease-ms")?.parse() {
                Ok(n) if n > 0 => flags.config.lease_ms = n,
                _ => return Err("--lease-ms needs a positive integer".into()),
            },
            "--poll-ms" => match value("--poll-ms")?.parse() {
                Ok(n) if n > 0 => flags.config.poll_ms = n,
                _ => return Err("--poll-ms needs a positive integer".into()),
            },
            "--max-cells" => {
                flags.config.max_cells = value("--max-cells")?
                    .parse()
                    .map_err(|e| format!("--max-cells: {e}"))?
            }
            "--exit-when-idle" => flags.config.idle_exit_polls = 3,
            "--retry-base-ms" => match value("--retry-base-ms")?.parse() {
                Ok(n) if n > 0 => flags.config.backoff.base_ms = n,
                _ => return Err("--retry-base-ms needs a positive integer".into()),
            },
            "--retry-cap-ms" => match value("--retry-cap-ms")?.parse() {
                Ok(n) if n > 0 => flags.config.backoff.cap_ms = n,
                _ => return Err("--retry-cap-ms needs a positive integer".into()),
            },
            "--backoff-seed" => {
                flags.config.backoff.seed = value("--backoff-seed")?
                    .parse()
                    .map_err(|e| format!("--backoff-seed: {e}"))?
            }
            "--max-errors" => {
                flags.config.max_consecutive_errors = value("--max-errors")?
                    .parse()
                    .map_err(|e| format!("--max-errors: {e}"))?
            }
            "--breaker-threshold" => {
                flags.breaker_threshold = value("--breaker-threshold")?
                    .parse()
                    .map_err(|e| format!("--breaker-threshold: {e}"))?
            }
            "--breaker-cooldown-ms" => {
                flags.breaker_cooldown_ms = value("--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|e| format!("--breaker-cooldown-ms: {e}"))?
            }
            "--chaos-seed" => {
                flags.chaos.seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?
            }
            "--chaos-drop-request" => {
                flags.chaos.drop_request_percent =
                    percent("--chaos-drop-request", value("--chaos-drop-request")?)?
            }
            "--chaos-drop-response" => {
                flags.chaos.drop_response_percent =
                    percent("--chaos-drop-response", value("--chaos-drop-response")?)?
            }
            "--chaos-latency-percent" => {
                flags.chaos.latency_percent =
                    percent("--chaos-latency-percent", value("--chaos-latency-percent")?)?
            }
            "--chaos-latency-ms" => {
                flags.chaos.latency_ms = value("--chaos-latency-ms")?
                    .parse()
                    .map_err(|e| format!("--chaos-latency-ms: {e}"))?
            }
            "--chaos-stall-percent" => {
                flags.chaos.stall_percent =
                    percent("--chaos-stall-percent", value("--chaos-stall-percent")?)?
            }
            "--chaos-stall-ms" => {
                flags.chaos.stall_ms = value("--chaos-stall-ms")?
                    .parse()
                    .map_err(|e| format!("--chaos-stall-ms: {e}"))?
            }
            "--chaos-partial-percent" => {
                flags.chaos.partial_write_percent =
                    percent("--chaos-partial-percent", value("--chaos-partial-percent")?)?
            }
            "--trace" => flags.trace = Some(value("--trace")?.clone()),
            other => return Err(format!("unknown worker flag {other:?}")),
        }
    }
    Ok(flags)
}

/// `ahn-exp worker`: pull cells from a serve node over
/// `POST /v1/work/claim` / `complete` until told to stop (or, with
/// `--exit-when-idle`, until the queue stays empty).
fn worker(args: &[String]) {
    let flags = match parse_worker_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("worker: pulling cells from {}...", flags.addr);
    if flags.chaos.is_active() {
        eprintln!("worker: chaos enabled: {:?}", flags.chaos);
    }
    let trace = open_trace(flags.trace.as_deref(), "worker");
    let mut transport = ahn_serve::CircuitBreaker::new(
        ahn_serve::FlakyTransport::new(ahn_serve::HttpTransport::new(&flags.addr), flags.chaos),
        flags.breaker_threshold,
        std::time::Duration::from_millis(flags.breaker_cooldown_ms),
    );
    match ahn_serve::run_worker_observed(&mut transport, &flags.config, trace.as_ref()) {
        Ok((report, telemetry)) => {
            eprintln!(
                "worker: {} completed, {} failed, {} duplicates, {} dropped, {} empty polls, {} breaker trips",
                report.completed,
                report.failed,
                report.duplicates,
                report.dropped,
                report.empty_polls,
                report.breaker_opens
            );
            // The machine-readable exit summary: one JSON line on
            // stdout (the human-readable progress stays on stderr).
            let summary = ahn_serve::WorkerSummary::new(&report, &telemetry);
            match serde_json::to_string(&summary) {
                Ok(line) => println!("{line}"),
                Err(e) => eprintln!("warning: cannot serialize worker summary: {e}"),
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `ahn-exp sweep` flags: the grid axes plus the shared experiment
/// options for the base configuration.
#[derive(Debug, Clone, PartialEq)]
struct SweepFlags {
    scenarios: Option<Vec<String>>,
    cases: Vec<usize>,
    payoffs: Vec<String>,
    sizes: Vec<usize>,
    seed_blocks: u64,
    json: bool,
    /// Run the grid through a serve node at this address instead of
    /// computing locally (`ahn_serve::run_sweep_via`).
    via: Option<String>,
    /// Checkpoint completed cells to this journal; resume skips them.
    journal: Option<String>,
    /// Span trace log path (`--trace`): local runs record per-cell
    /// lifecycles and per-generation hot-loop samples, `--via` runs
    /// record the coordinator's side of every cell.
    trace: Option<String>,
    /// Remaining (non-sweep) flags, handed to [`Options::parse`].
    rest: Vec<String>,
}

/// Parses a non-empty comma-separated flag value (shared by the
/// sweep/calibrate/fidelity flag parsers).
fn list<T: std::str::FromStr>(name: &str, text: &str) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, _> = text.split(',').map(str::parse).collect();
    match items {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("{name} needs a comma-separated list")),
    }
}

/// Forwards an unrecognized flag (and its value, if any) to the shared
/// experiment options, which `Options::parse` validates later. Every
/// `Options` flag takes a value, so the greedy pairing is safe.
fn pass_through(rest: &mut Vec<String>, flag: &str, it: &mut std::slice::Iter<'_, String>) {
    rest.push(flag.into());
    if let Some(v) = it.next() {
        rest.push(v.clone());
    }
}

fn parse_sweep_flags(args: &[String]) -> Result<SweepFlags, String> {
    let mut flags = SweepFlags {
        scenarios: None,
        cases: vec![1],
        payoffs: vec!["paper".into()],
        sizes: vec![50],
        seed_blocks: 1,
        json: false,
        via: None,
        journal: None,
        trace: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cases" => flags.cases = list("--cases", value("--cases")?)?,
            "--scenarios" => {
                let names: Vec<String> = list("--scenarios", value("--scenarios")?)?;
                if names.iter().any(String::is_empty) {
                    return Err("--scenarios needs non-empty scenario names".into());
                }
                flags.scenarios = Some(names);
            }
            "--payoffs" => flags.payoffs = list("--payoffs", value("--payoffs")?)?,
            "--sizes" => flags.sizes = list("--sizes", value("--sizes")?)?,
            "--seed-blocks" => match value("--seed-blocks")?.parse() {
                Ok(n) if n > 0 => flags.seed_blocks = n,
                _ => return Err("--seed-blocks needs a positive integer".into()),
            },
            "--json" => flags.json = true,
            "--via" => flags.via = Some(value("--via")?.clone()),
            "--journal" => flags.journal = Some(value("--journal")?.clone()),
            "--trace" => flags.trace = Some(value("--trace")?.clone()),
            other => pass_through(&mut flags.rest, other, &mut it),
        }
    }
    if flags.journal.is_some() && flags.via.is_none() {
        return Err("--journal requires --via (it checkpoints a distributed run)".into());
    }
    Ok(flags)
}

/// Opens a `--trace` span log whose events name this process
/// `{role}:{pid}`, exiting on failure.
fn open_trace(path: Option<&str>, role: &str) -> Option<ahn_obs::TraceLog> {
    path.map(|p| {
        match ahn_obs::TraceLog::open(
            std::path::Path::new(p),
            &format!("{role}:{}", std::process::id()),
        ) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("error: cannot open trace log {p}: {e}");
                std::process::exit(2);
            }
        }
    })
}

/// `ahn-exp sweep`: run a (case x payoff x size x seed-block) grid with
/// one pure experiment per cell, cells in parallel
/// (`ahn_core::sweeps::run_sweep`), or — with `--via ADDR` — through a
/// serve node, merging the distributed cells to the bit-identical
/// report.
fn sweep(args: &[String]) {
    let flags = match parse_sweep_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let opts = match Options::parse(&flags.rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    let grid = ahn_core::SweepGrid {
        base: opts.config.clone(),
        scenarios: flags.scenarios,
        cases: flags.cases,
        payoffs: flags.payoffs,
        sizes: flags.sizes,
        seed_blocks: (0..flags.seed_blocks).collect(),
    };
    eprintln!(
        "sweeping {} cells ({} scenarios x {} cases x {} payoffs x {} sizes x {} seed blocks, {} replications each)...",
        grid.cell_count(),
        grid.scenarios.as_ref().map(Vec::len).unwrap_or(1),
        grid.cases.len(),
        grid.payoffs.len(),
        grid.sizes.len(),
        grid.seed_blocks.len(),
        grid.base.replications
    );
    let report = if let Some(addr) = &flags.via {
        eprintln!("  distributing via {addr}...");
        let trace = open_trace(flags.trace.as_deref(), "coordinator");
        let mut transport = ahn_serve::HttpTransport::new(addr);
        let journal = flags.journal.as_deref().map(std::path::Path::new);
        ahn_serve::run_sweep_via_traced(&mut transport, &grid, journal, 10, trace.as_ref())
    } else {
        let trace = open_trace(flags.trace.as_deref(), "ahn-exp");
        ahn_core::run_sweep_traced(&grid, trace.as_ref())
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            std::process::exit(1);
        }
    };
    if flags.json {
        println!("{json}");
    } else {
        print!("{}", ahn_core::sweeps::render_sweep_report(&report));
    }
    opts.maybe_write("sweep.json", &json);
}

/// `ahn-exp calibrate` flags: the search axes plus the shared
/// experiment options for the base configuration.
#[derive(Debug, Clone, PartialEq)]
struct CalibrateFlags {
    cases: Vec<usize>,
    scales: Vec<f64>,
    selections: Vec<String>,
    size: usize,
    seed_blocks: u64,
    max_candidates: usize,
    json: bool,
    /// Run the search through a serve node at this address instead of
    /// computing locally (`ahn_serve::run_calibration_via`).
    via: Option<String>,
    /// Checkpoint completed cells to this journal; resume skips them.
    journal: Option<String>,
    /// Span trace log path (`--trace`); the coordinator records its
    /// side of every cell (requires `--via`).
    trace: Option<String>,
    /// Remaining (non-calibrate) flags, handed to [`Options::parse`].
    rest: Vec<String>,
}

fn parse_calibrate_flags(args: &[String]) -> Result<CalibrateFlags, String> {
    let mut flags = CalibrateFlags {
        cases: vec![1, 2, 3, 4],
        scales: vec![1.0],
        selections: vec!["paper".into()],
        size: 10,
        seed_blocks: 1,
        max_candidates: 0,
        json: false,
        via: None,
        journal: None,
        trace: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cases" => flags.cases = list("--cases", value("--cases")?)?,
            "--scales" => flags.scales = list("--scales", value("--scales")?)?,
            "--selections" => {
                flags.selections = value("--selections")?
                    .split(',')
                    .map(str::to_owned)
                    .filter(|s| !s.is_empty())
                    .collect();
                if flags.selections.is_empty() {
                    return Err("--selections needs a comma-separated list".into());
                }
            }
            "--size" => match value("--size")?.parse() {
                Ok(n) if n >= 3 => flags.size = n,
                _ => return Err("--size needs an integer >= 3".into()),
            },
            "--seed-blocks" => match value("--seed-blocks")?.parse() {
                Ok(n) if n > 0 => flags.seed_blocks = n,
                _ => return Err("--seed-blocks needs a positive integer".into()),
            },
            "--max-candidates" => {
                flags.max_candidates = value("--max-candidates")?
                    .parse()
                    .map_err(|e| format!("--max-candidates: {e}"))?
            }
            "--json" => flags.json = true,
            "--via" => flags.via = Some(value("--via")?.clone()),
            "--journal" => flags.journal = Some(value("--journal")?.clone()),
            "--trace" => flags.trace = Some(value("--trace")?.clone()),
            other => pass_through(&mut flags.rest, other, &mut it),
        }
    }
    if flags.journal.is_some() && flags.via.is_none() {
        return Err("--journal requires --via (it checkpoints a distributed run)".into());
    }
    if flags.trace.is_some() && flags.via.is_none() {
        return Err("calibrate --trace requires --via (it records the coordinator's spans)".into());
    }
    Ok(flags)
}

/// `ahn-exp scenario`: the adversary-zoo registry front end —
/// `list` prints every built-in scenario (name, hash, summary),
/// `run NAME` evaluates one scenario against a chosen defense.
fn scenario(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("list") => {
            let json = args.iter().any(|a| a == "--json");
            let all = ahn_core::builtin_scenarios();
            if json {
                println!("{}", serde_json::to_string_pretty(&all).unwrap());
                return;
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
        }
        Some("run") => scenario_run(&args[1..]),
        Some(other) => {
            eprintln!("error: unknown scenario subcommand {other:?} (list|run)");
            std::process::exit(2);
        }
        None => {
            eprintln!("error: scenario needs a subcommand (list|run)");
            std::process::exit(2);
        }
    }
}

/// `ahn-exp scenario run NAME`: resolve the scenario, apply it to a
/// scaled case-1 world, run the experiment, print the usual report.
fn scenario_run(args: &[String]) {
    let mut name = None;
    let mut defense = "watchdog".to_string();
    let mut size = 10usize;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--defense" => match it.next() {
                Some(d) => defense = d.clone(),
                None => {
                    eprintln!("error: --defense needs a value");
                    std::process::exit(2);
                }
            },
            "--size" => match it.next().map(|s| s.parse()) {
                Some(Ok(n)) if n >= 3 => size = n,
                _ => {
                    eprintln!("error: --size needs an integer >= 3");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => pass_through(&mut rest, flag, &mut it),
            bare if name.is_none() => name = Some(bare.to_string()),
            extra => {
                eprintln!("error: unexpected argument {extra:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(name) = name else {
        eprintln!("error: scenario run needs a scenario name (try `ahn-exp scenario list`)");
        std::process::exit(2);
    };
    // Default to the smoke preset (like calibrate) so a bare
    // `ahn-exp scenario run slanderers` finishes in seconds.
    let mut base_args = vec!["--preset".to_string(), "smoke".to_string()];
    base_args.extend(rest);
    let opts = match Options::parse(&base_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    let run = || -> Result<(), String> {
        let scenario = ahn_core::resolve_scenario(&name)?;
        let mut config = opts.config.clone();
        config.gossip = ahn_core::atlas::resolve_defense(&defense)?;
        let case = CaseSpec::mini(&name, &[0], size, ahn_core::PathMode::Shorter);
        let (config, case) = scenario.apply(&config, &case)?;
        eprintln!(
            "running scenario {name:?} (hash {:016x}) against {defense:?}, \
             {size} participants, {} replications...",
            scenario.canonical_hash(),
            config.replications
        );
        let result = experiment::run_experiment(&config, &case);
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
    };
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// `ahn-exp atlas`: run the scenario x defense grid and emit the
/// committed artifacts — markdown to stdout or `--out`, the
/// byte-stable JSON report to `--json`.
fn atlas(args: &[String]) {
    let mut grid = ahn_core::AtlasGrid::smoke();
    let mut json_path = None;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("error: --json needs a file path");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("error: --out needs a file path");
                    std::process::exit(2);
                }
            },
            "--scenarios" => match it.next() {
                Some(names) => {
                    grid.scenarios = names.split(',').map(str::to_string).collect();
                }
                None => {
                    eprintln!("error: --scenarios needs a comma-separated list");
                    std::process::exit(2);
                }
            },
            "--size" => match it.next().map(|s| s.parse()) {
                Some(Ok(n)) if n >= 3 => grid.size = n,
                _ => {
                    eprintln!("error: --size needs an integer >= 3");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown atlas flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "atlas: {} scenarios x {} defenses at {} participants...",
        grid.scenarios.len(),
        ahn_core::atlas::DEFENSES.len(),
        grid.size
    );
    let report = match ahn_core::run_atlas(&grid) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &json_path {
        // serde_json's compact form is deterministic; a trailing
        // newline keeps the committed file POSIX-friendly.
        let mut bytes = serde_json::to_string(&report).unwrap();
        bytes.push('\n');
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("  wrote {path}");
    }
    let md = ahn_core::render_atlas(&report);
    match &out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("  wrote {path}");
        }
        None => print!("{md}"),
    }
}

/// `ahn-exp calibrate`: search the reconstruction space of the garbled
/// Fig. 2 payoff table (x scale x selection variant), scoring every
/// candidate against the paper's per-case cooperation targets
/// (`ahn_core::calibrate`). The base configuration defaults to the
/// `smoke` preset (not `scaled`) so a bare `ahn-exp calibrate` finishes
/// in seconds; override with the usual experiment flags.
fn calibrate(args: &[String]) {
    let flags = match parse_calibrate_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Prepend the default preset so explicit flags in `rest` override it.
    let mut base_args = vec!["--preset".to_string(), "smoke".to_string()];
    base_args.extend(flags.rest.iter().cloned());
    let opts = match Options::parse(&base_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    let grid = ahn_core::CalibrationGrid {
        base: opts.config.clone(),
        cases: flags.cases,
        scales: flags.scales,
        selections: flags.selections,
        size: flags.size,
        seed_blocks: (0..flags.seed_blocks).collect(),
        max_candidates: flags.max_candidates,
    };
    eprintln!(
        "searching {} candidates ({} cases x {} seed blocks = {} cells, {} replications each)...",
        grid.candidate_count(),
        grid.cases.len(),
        grid.seed_blocks.len(),
        grid.cell_count(),
        grid.base.replications
    );
    let report = if let Some(addr) = &flags.via {
        eprintln!("  distributing via {addr}...");
        let trace = open_trace(flags.trace.as_deref(), "coordinator");
        let mut transport = ahn_serve::HttpTransport::new(addr);
        let journal = flags.journal.as_deref().map(std::path::Path::new);
        match ahn_serve::run_calibration_via_traced(
            &mut transport,
            &grid,
            journal,
            10,
            trace.as_ref(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    } else {
        match ahn_core::run_calibration(&grid) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            std::process::exit(1);
        }
    };
    if flags.json {
        println!("{json}");
    } else {
        print!(
            "{}",
            ahn_core::calibrate::render_calibration_report(&report)
        );
    }
    opts.maybe_write("calibrate.json", &json);
}

/// `ahn-exp fidelity` flags.
#[derive(Debug, Clone, PartialEq)]
struct FidelityFlags {
    cases: Vec<usize>,
    tolerance: f64,
    rest: Vec<String>,
}

fn parse_fidelity_flags(args: &[String]) -> Result<FidelityFlags, String> {
    let mut flags = FidelityFlags {
        cases: vec![1, 3],
        tolerance: 0.15,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cases" => flags.cases = list("--cases", value("--cases")?)?,
            "--tol" => match value("--tol")?.parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => flags.tolerance = f,
                _ => return Err("--tol needs a fraction in [0, 1]".into()),
            },
            other => pass_through(&mut flags.rest, other, &mut it),
        }
    }
    for &c in &flags.cases {
        if !(1..=4).contains(&c) {
            return Err(format!("the paper defines cases 1..=4, not {c}"));
        }
    }
    Ok(flags)
}

/// `ahn-exp fidelity`: run the given paper cases and exit non-zero when
/// any final cooperation level lands outside `--tol` of the paper's
/// target — the CI guard that hot-path work cannot silently break the
/// model where it is known to reproduce.
fn fidelity(args: &[String]) {
    let flags = match parse_fidelity_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let opts = match Options::parse(&flags.rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    println!(
        "reproduction fidelity: {} replications x {} generations, R={}, tolerance {:.0}%",
        opts.config.replications,
        opts.config.generations,
        opts.config.rounds,
        flags.tolerance * 100.0
    );
    let mut failed = false;
    for &case_no in &flags.cases {
        let result = run_case(&opts, case_no);
        // Single-environment cases check the aggregate §6.2 number;
        // multi-environment cases check each environment against its
        // Table 5 column (the aggregate would blur four very different
        // equilibria — see ahn_core::calibrate::per_env_targets).
        match ahn_core::calibrate::per_env_targets(case_no) {
            Some(env_targets) if result.per_env_coop.len() == env_targets.len() => {
                for (e, (summary, &target)) in
                    result.per_env_coop.iter().zip(env_targets).enumerate()
                {
                    let coop = summary.mean().unwrap_or(0.0);
                    let error = (coop - target).abs();
                    let ok = error <= flags.tolerance;
                    println!(
                        "  case {case_no} TE{}: cooperation {:>6} vs paper {:>6}  (|error| {:>5})  {}",
                        e + 1,
                        ahn_stats::pct(coop, 1),
                        ahn_stats::pct(target, 1),
                        ahn_stats::pct(error, 1),
                        if ok { "ok" } else { "OUTSIDE TOLERANCE" }
                    );
                    failed |= !ok;
                }
            }
            _ => {
                let coop = result.final_coop.mean().unwrap_or(0.0);
                let target = ahn_core::calibrate::paper_target(case_no);
                let error = (coop - target).abs();
                let ok = error <= flags.tolerance;
                println!(
                    "  case {case_no}: cooperation {:>6} vs paper {:>6}  (|error| {:>5})  {}",
                    ahn_stats::pct(coop, 1),
                    ahn_stats::pct(target, 1),
                    ahn_stats::pct(error, 1),
                    if ok { "ok" } else { "OUTSIDE TOLERANCE" }
                );
                failed |= !ok;
            }
        }
    }
    if failed {
        eprintln!(
            "error: reproduction fidelity violated (tolerance {:.0}%)",
            flags.tolerance * 100.0
        );
        std::process::exit(1);
    }
}

/// Parsed command-line options.
#[derive(Debug)]
struct Options {
    config: ExperimentConfig,
    out_dir: Option<std::path::PathBuf>,
    /// Span trace log (`--trace FILE`): experiment commands record each
    /// case's lifecycle and per-generation hot-loop samples into it.
    trace: Option<ahn_obs::TraceLog>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut config = ExperimentConfig::scaled();
        let mut out_dir = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--preset" => {
                    config = match value("--preset")?.as_str() {
                        "smoke" => ExperimentConfig::smoke(),
                        "scaled" => ExperimentConfig::scaled(),
                        "paper" => ExperimentConfig::paper(),
                        other => return Err(format!("unknown preset {other:?}")),
                    };
                }
                "--reps" => {
                    config.replications = value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?
                }
                "--gens" => {
                    config.generations = value("--gens")?
                        .parse()
                        .map_err(|e| format!("--gens: {e}"))?
                }
                "--rounds" => {
                    config.rounds = value("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?
                }
                "--seed" => {
                    config.base_seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--config" => {
                    let path = value("--config")?;
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    config = serde_json::from_str(&text)
                        .map_err(|e| format!("cannot parse {path}: {e}"))?;
                }
                "--out" => out_dir = Some(std::path::PathBuf::from(value("--out")?)),
                "--trace" => {
                    let path = value("--trace")?;
                    trace = Some(
                        ahn_obs::TraceLog::open(
                            std::path::Path::new(&path),
                            &format!("ahn-exp:{}", std::process::id()),
                        )
                        .map_err(|e| format!("cannot open trace log {path}: {e}"))?,
                    );
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        config.validate()?;
        Ok(Options {
            config,
            out_dir,
            trace,
        })
    }

    fn maybe_write(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
            let path = dir.join(name);
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes())) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
}

fn run_case(opts: &Options, case_no: usize) -> experiment::ExperimentResult {
    let case = CaseSpec::paper(case_no);
    eprintln!(
        "running {} ({} replications x {} generations, R={})...",
        case.name, opts.config.replications, opts.config.generations, opts.config.rounds
    );
    experiment::run_experiment_traced(&opts.config, &case, opts.trace.as_ref())
}

fn fig4(opts: &Options) {
    let results: Vec<_> = (1..=4).map(|i| run_case(opts, i)).collect();
    let refs: Vec<&_> = results.iter().collect();
    let means: Vec<Vec<f64>> = results.iter().map(|r| r.coop_series.means()).collect();
    let markers = ['1', '2', '3', '4'];
    let series: Vec<ahn_stats::PlotSeries> = results
        .iter()
        .zip(&means)
        .zip(markers)
        .map(|((r, values), marker)| ahn_stats::PlotSeries {
            label: &r.case_name,
            values,
            marker,
        })
        .collect();
    println!("{}", ahn_stats::ascii_chart(&series, 72, 16));
    print!("{}", report::fig4_summary(&refs));
    let csv = report::fig4_csv(&refs);
    opts.maybe_write("fig4.csv", &csv);
    if opts.out_dir.is_none() {
        println!("\n(use --out DIR to save the full per-generation CSV)");
    }
}

fn table5(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table5(&c3, &c4);
    print!("{t}");
    opts.maybe_write("table5.txt", &t);
}

fn table6(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table6(&c3, &c4);
    print!("{t}");
    opts.maybe_write("table6.txt", &t);
}

fn table7(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table7(&[&c3, &c4]);
    print!("{t}");
    opts.maybe_write("table7.txt", &t);
}

fn table8_9(opts: &Options, case_no: usize) {
    let r = run_case(opts, case_no);
    let t = report::table8_9(&r, 0.03);
    print!("{t}");
    opts.maybe_write(
        &format!("table{}.txt", if case_no == 3 { 8 } else { 9 }),
        &t,
    );
}

fn all(opts: &Options) {
    let results: Vec<_> = (1..=4).map(|i| run_case(opts, i)).collect();
    let refs: Vec<&_> = results.iter().collect();
    let mut out = String::new();
    out.push_str(&report::fig4_summary(&refs));
    out.push('\n');
    out.push_str(&report::table5(&results[2], &results[3]));
    out.push('\n');
    out.push_str(&report::table6(&results[2], &results[3]));
    out.push('\n');
    out.push_str(&report::table7(&[&results[2], &results[3]]));
    out.push('\n');
    out.push_str(&report::table8_9(&results[2], 0.03));
    out.push('\n');
    out.push_str(&report::table8_9(&results[3], 0.03));
    print!("{out}");
    opts.maybe_write("all.txt", &out);
    opts.maybe_write("fig4.csv", &report::fig4_csv(&refs));
    if opts.out_dir.is_some() {
        match serde_json::to_string_pretty(&results) {
            Ok(json) => opts.maybe_write("results.json", &json),
            Err(e) => eprintln!("warning: cannot serialize results: {e}"),
        }
    }
}

fn ipdrp(opts: &Options) {
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
}

fn pathrater(opts: &Options) {
    // Marti et al.'s setting: 50 nodes with 20 selfish (40%).
    let report = baselines::pathrater_comparison(&opts.config, 50, 20, opts.config.base_seed);
    println!("Watchdog/pathrater-style baseline (X1): 50 nodes, 20 selfish, AllC normals");
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
}

fn ablate(
    opts: &Options,
    title: &str,
    run: fn(&ExperimentConfig, &CaseSpec) -> Vec<ablations::Variant>,
) {
    // Ablations run on case 3 (the paper's richest setting).
    let case = CaseSpec::paper(3);
    eprintln!("running ablation {title} on {} ...", case.name);
    let variants = run(&opts.config, &case);
    let rendered = ablations::render_variants(title, &variants);
    print!("{rendered}");
    opts.maybe_write("ablation.txt", &rendered);
}

fn transfer(opts: &Options) {
    // One replication per (train, eval) pair keeps this affordable; use
    // --reps/--gens to deepen.
    let cases = ahn_core::cases::CaseSpec::paper_all();
    eprintln!("running {}x{} transfer matrix...", cases.len(), cases.len());
    let cells = extensions::transfer_matrix(&opts.config, &cases, opts.config.base_seed);
    let rendered = extensions::render_transfer(&cells);
    print!("{rendered}");
    println!(
        "\nDiagonal cells are populations deployed in the conditions they\n\
         were evolved for; off-diagonal cells quantify the paper's closing\n\
         warning that strategies are condition-specific."
    );
    opts.maybe_write("transfer.txt", &rendered);
}

fn newcomer(opts: &Options) {
    let case = CaseSpec::paper(1);
    eprintln!("evolving a case-1 population, then admitting a newcomer...");
    let report = extensions::newcomer_join(&opts.config, &case, 120, opts.config.base_seed);
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
}

fn sleepers(opts: &Options) {
    let case = CaseSpec::paper(1);
    eprintln!("sleeper study: evolving with 20 low-duty nodes, both codecs...");
    let study =
        ahn_core::extensions::sleeper_study(&opts.config, &case, 20, 0.3, opts.config.base_seed);
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
}

fn sweep_rounds(opts: &Options) {
    use ahn_core::sweeps;
    let case = CaseSpec::paper(1);
    let rounds = [30usize, 100, 200, 300, 500];
    eprintln!("sweeping tournament rounds over {rounds:?} on case 1...");
    let points = sweeps::sweep_rounds(&opts.config, &case, &rounds);
    let t = sweeps::render_sweep(
        "Cooperation vs reputation horizon R (case 1)",
        "rounds",
        &points,
    );
    print!("{t}");
    println!("(the paper's R = 300 sits above the defection-basin crossover)");
    opts.maybe_write("sweep_rounds.txt", &t);
}

fn sweep_csn(opts: &Options) {
    use ahn_core::sweeps;
    let densities = [0.0, 0.2, 0.4, 0.6, 0.8];
    eprintln!("sweeping CSN density over {densities:?} (50-node tournaments, SP)...");
    let points = sweeps::sweep_csn(
        &opts.config,
        50,
        ahn_core::cases::CaseSpec::paper(1).mode,
        &densities,
    );
    let t = sweeps::render_sweep(
        "Cooperation vs CSN density (50-node tournaments, shorter paths)",
        "density",
        &points,
    );
    print!("{t}");
    println!("(TE1..TE4 are the 0%, 20%, 50% and 60% points of this curve)");
    opts.maybe_write("sweep_csn.txt", &t);
}

fn sweep_mutation(opts: &Options) {
    use ahn_core::sweeps;
    let case = CaseSpec::paper(3);
    let rates = [0.0, 0.001, 0.01, 0.05];
    eprintln!("sweeping mutation rate over {rates:?} on case 3...");
    let points = sweeps::sweep_mutation(&opts.config, &case, &rates);
    let t = sweeps::render_sweep(
        "Cooperation vs per-bit mutation probability (case 3)",
        "mutation",
        &points,
    );
    print!("{t}");
    println!("(the paper uses 0.001)");
    opts.maybe_write("sweep_mutation.txt", &t);
}

fn trace(opts: &Options) {
    use rand::SeedableRng;
    // Evolve briefly, then trace the first games of a converged
    // tournament so the dump shows meaningful trust-driven decisions.
    let mut cfg = opts.config.clone();
    cfg.replications = 1;
    let case = CaseSpec::paper(3);
    cfg.population = cfg.population.max(case.required_normal());
    eprintln!("evolving one replication of {} for the trace...", case.name);
    let rep = ahn_core::experiment::run_replication(&cfg, &case, cfg.base_seed);

    let game_config = ahn_core::game_config_of(&cfg, &case);
    let size = case.envs[1].normal().min(rep.final_population.len());
    let csn = case.envs[1].csn;
    let mut arena =
        ahn_core::AhnArena::new(rep.final_population[..size].to_vec(), csn, game_config, 1);
    let participants: Vec<ahn_core::AhnNodeId> =
        (0..(size + csn) as u32).map(ahn_core::AhnNodeId).collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.base_seed ^ 0xdecaf);
    let mut scratch = ahn_core::AhnScratch::default();

    // Warm-up rounds so trust levels exist, then trace 25 games.
    for _ in 0..40 {
        for &src in &participants {
            ahn_core::ahn_play_game(&mut arena, &mut rng, src, &participants, 0, &mut scratch);
        }
    }
    println!("[");
    let mut first = true;
    for &src in participants.iter().take(25) {
        let report =
            ahn_core::ahn_play_game(&mut arena, &mut rng, src, &participants, 0, &mut scratch);
        let decisions: Vec<String> = scratch
            .last_decisions()
            .iter()
            .map(|(d, t)| format!("{d}@{t}"))
            .collect();
        let path: Vec<u32> = scratch.last_path().iter().map(|n| n.0).collect();
        if !first {
            println!(",");
        }
        first = false;
        print!(
            "  {{\"source\": {}, \"destination\": {}, \"path\": {:?}, \"decisions\": {:?}, \"delivered\": {}}}",
            src.0,
            report.destination.0,
            path,
            decisions,
            report.outcome.delivered()
        );
    }
    println!("\n]");
}

/// True when `ahn-exp trace` was given span-log files to join rather
/// than experiment flags for the decision-trace dump: the first
/// argument is a file path (no `--` prefix) or the join-only
/// `--require-complete` flag.
fn trace_join_requested(args: &[String]) -> bool {
    matches!(args.first(), Some(a) if !a.starts_with("--") || a == "--require-complete")
}

/// `ahn-exp trace FILE..` flags.
#[derive(Debug, Clone, PartialEq)]
struct TraceJoinFlags {
    /// Fail unless at least this many cells reconstruct end to end.
    require_complete: usize,
    /// The span-log files to join.
    files: Vec<String>,
}

fn parse_trace_join_flags(args: &[String]) -> Result<TraceJoinFlags, String> {
    let mut flags = TraceJoinFlags {
        require_complete: 0,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--require-complete" => match it.next().map(|s| s.parse()) {
                Some(Ok(n)) => flags.require_complete = n,
                _ => return Err("--require-complete needs a cell count".into()),
            },
            other if other.starts_with("--") => {
                return Err(format!("unknown trace flag {other:?}"))
            }
            path => flags.files.push(path.to_owned()),
        }
    }
    if flags.files.is_empty() {
        return Err("trace needs at least one span-log file to join".into());
    }
    Ok(flags)
}

/// `ahn-exp trace FILE..`: join span logs from any number of nodes into
/// per-cell lifecycle trees ([`ahn_obs::join_traces`]). Exits non-zero
/// when any spans are orphaned (a log file is missing from the join, or
/// trace-id propagation broke) or fewer than `--require-complete N`
/// cells reconstructed end to end — the CI chaos job's assertion.
fn trace_join(args: &[String]) {
    let flags = match parse_trace_join_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut events = Vec::new();
    let mut discarded = 0usize;
    for path in &flags.files {
        match ahn_obs::read_trace(std::path::Path::new(path)) {
            Ok(read) => {
                events.extend(read.events);
                discarded += read.discarded;
            }
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let tree = ahn_obs::join_traces(events, discarded);
    print!("{}", ahn_obs::render_tree(&tree));
    if tree.orphan_spans > 0 {
        eprintln!(
            "error: {} orphaned spans (a log file is missing from the join, or propagation broke)",
            tree.orphan_spans
        );
        std::process::exit(1);
    }
    if tree.complete_cells() < flags.require_complete {
        eprintln!(
            "error: only {} of the required {} cells reconstructed end to end",
            tree.complete_cells(),
            flags.require_complete
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
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
        let err = parse_bench_flags(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown bench flag"), "{err}");
        let err = parse_bench_flags(&args(&["--baseline"])).unwrap_err();
        assert!(err.contains("--baseline needs a file"), "{err}");
        for bad in [
            &["--max-regression"][..],
            &["--max-regression", "0.5"],
            &["--max-regression", "x"],
        ] {
            let err = parse_bench_flags(&args(bad)).unwrap_err();
            assert!(err.contains("factor >= 1"), "{bad:?}: {err}");
        }
        for bad in [
            &["--threads"][..],
            &["--threads", ""],
            &["--threads", "2"],
            &["--threads", "1,x"],
            &["--threads", "1,,4"],
        ] {
            let err = parse_bench_flags(&args(bad)).unwrap_err();
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
        let err = parse_serve_flags(&args(&["--port", "80"])).unwrap_err();
        assert!(err.contains("unknown serve flag"), "{err}");
        let err = parse_serve_flags(&args(&["--addr"])).unwrap_err();
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
        let err = parse_worker_flags(&args(&["--what"])).unwrap_err();
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
        let err = parse_worker_flags(&args(&["--chaos-drop-request", "101"])).unwrap_err();
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
        let err = parse_loadtest_flags(&args(&["--what"])).unwrap_err();
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
        let f = parse_sweep_flags(&args(&[])).unwrap();
        assert_eq!(
            (f.cases, f.sizes, f.seed_blocks, f.json),
            (vec![1], vec![50], 1, false)
        );
        assert_eq!(f.payoffs, vec!["paper".to_string()]);
        assert_eq!(f.scenarios, None);
        assert!(f.rest.is_empty());

        let f = parse_sweep_flags(&args(&[
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
            f.scenarios,
            Some(vec!["base".to_string(), "slanderers".to_string()])
        );
        assert_eq!(f.cases, vec![1, 3]);
        assert_eq!(
            f.payoffs,
            vec!["paper".to_string(), "literal-ocr".to_string()]
        );
        assert_eq!(f.sizes, vec![10, 50, 100]);
        assert_eq!(f.seed_blocks, 4);
        assert!(f.json);
        assert_eq!(f.rest, args(&["--preset", "smoke", "--reps", "2"]));
        // The shared flags parse through Options.
        let o = Options::parse(&f.rest).unwrap();
        assert_eq!(o.config.replications, 2);

        let f =
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
        // Unknown flags pass through to Options::parse, which rejects.
        let f = parse_sweep_flags(&args(&["--frob", "x"])).unwrap();
        assert!(Options::parse(&f.rest).is_err());
    }

    #[test]
    fn calibrate_flags_parse() {
        let f = parse_calibrate_flags(&args(&[])).unwrap();
        assert_eq!(f.cases, vec![1, 2, 3, 4]);
        assert_eq!(f.scales, vec![1.0]);
        assert_eq!(f.selections, vec!["paper".to_string()]);
        assert_eq!(
            (f.size, f.seed_blocks, f.max_candidates, f.json),
            (10, 1, 0, false)
        );
        assert!(f.rest.is_empty());

        let f = parse_calibrate_flags(&args(&[
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
        assert_eq!(f.cases, vec![2, 4]);
        assert_eq!(f.scales, vec![0.5, 1.0, 2.0]);
        assert_eq!(
            f.selections,
            vec![
                "paper".to_string(),
                "rank".to_string(),
                "elitist-2".to_string()
            ]
        );
        assert_eq!((f.size, f.seed_blocks, f.max_candidates), (50, 3, 24));
        assert!(f.json);
        assert_eq!(f.rest, args(&["--preset", "scaled", "--reps", "4"]));
        let o = Options::parse(&f.rest).unwrap();
        assert_eq!(o.config.replications, 4);

        let f = parse_calibrate_flags(&args(&["--via", "127.0.0.1:7172", "--journal", "c.log"]))
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
            // So does a coordinator trace: without --via there is no
            // coordinator, and the flag must fail at parse time rather
            // than after the (potentially long) local run.
            &["--trace", "t.log"],
        ] {
            assert!(parse_calibrate_flags(&args(bad)).is_err(), "{bad:?}");
        }
        // Unknown flags pass through to Options::parse, which rejects.
        let f = parse_calibrate_flags(&args(&["--frob", "x"])).unwrap();
        assert!(Options::parse(&f.rest).is_err());
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
        assert_eq!(f.rest, args(&["--preset", "smoke"]));
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
        let err = Options::parse(&args(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = Options::parse(&args(&["--reps"])).unwrap_err();
        assert!(err.contains("--reps needs a value"), "{err}");
        let err = Options::parse(&args(&["--reps", "zero"])).unwrap_err();
        assert!(err.contains("--reps"), "{err}");
        let err = Options::parse(&args(&["--preset", "galactic"])).unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
        let err = Options::parse(&args(&["--config", "/no/such/file.json"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // Flag values that parse but violate config validation.
        let err = Options::parse(&args(&["--reps", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn experiment_options_happy_path() {
        let o =
            Options::parse(&args(&["--preset", "smoke", "--reps", "3", "--seed", "9"])).unwrap();
        assert_eq!(o.config.replications, 3);
        assert_eq!(o.config.base_seed, 9);
        assert!(o.out_dir.is_none());
        assert!(o.trace.is_none());
        let o = Options::parse(&args(&["--out", "/tmp/x"])).unwrap();
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

        let f = parse_sweep_flags(&args(&["--trace", "s.trace"])).unwrap();
        assert_eq!(f.trace.as_deref(), Some("s.trace"));

        let f = parse_calibrate_flags(&args(&["--via", "127.0.0.1:7172", "--trace", "c.trace"]))
            .unwrap();
        assert_eq!(f.trace.as_deref(), Some("c.trace"));
        // A coordinator trace without a coordinator is a user error.
        let err = parse_calibrate_flags(&args(&["--trace", "c.trace"])).unwrap_err();
        assert!(err.contains("requires --via"), "{err}");

        let path = tmp("options.trace");
        let o = Options::parse(&args(&["--trace", &path])).unwrap();
        assert!(o.trace.is_some());
        let _ = std::fs::remove_file(&path);
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
