//! The repository's benchmark: three workloads that drive the system
//! through its public entry points, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep|zoo-atlas|distributed-sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The workload's inputs derive from `--seed` (seed 0 is the committed
//! configuration). A run measures for `--seconds`, checks the
//! program's outputs, and prints the host fingerprint and then, as the
//! last stdout line, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1` (spans are also written to
//! `perfbench/out/`). `perfbench/README.md` describes every workload
//! and metric.

mod distributed;
mod inproc;
mod measure;
mod trace;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload paper-sweep|zoo-atlas|distributed-sweep \
                     --seed N --seconds S --trace 0|1";

/// Wall-clock budget of one run; past it, no new work starts and every
/// request fails fast, so a run ends well inside three minutes.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("warm_cells_per_s", "cells/s"),
    ("cpu_s_per_cell", "CPU-s/cell"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("core.cpu_util", "ratio"),
    ("core.setup_ms", "ms"),
    ("core.replication_ms_p50", "ms"),
    ("core.replication_ms_max", "ms"),
    ("core.aggregate_us_per_cell", "us"),
    ("strategy.decode_share", "ratio"),
    ("game.play_share", "ratio"),
    ("game.ns_per_game", "ns"),
    ("game.games", "count"),
    ("game.scalar_cell_share", "ratio"),
    ("game.play_s.watchdog", "s"),
    ("game.play_s.core", "s"),
    ("game.play_s.confidant", "s"),
    ("ga.evolve_share", "ratio"),
    ("ga.ns_per_offspring", "ns"),
    ("serve.requests_per_cell.submit", "req/cell"),
    ("serve.requests_per_cell.poll", "req/cell"),
    ("serve.requests_per_cell.claim", "req/cell"),
    ("serve.requests_per_cell.complete", "req/cell"),
    ("serve.poll_done_ratio", "ratio"),
    ("serve.empty_claim_ratio", "ratio"),
    ("serve.rtt_us_p50.submit", "us"),
    ("serve.rtt_us_p90.submit", "us"),
    ("serve.rtt_us_p50.poll", "us"),
    ("serve.rtt_us_p90.poll", "us"),
    ("serve.rtt_us_p50.claim", "us"),
    ("serve.rtt_us_p90.claim", "us"),
    ("serve.rtt_us_p50.complete", "us"),
    ("serve.rtt_us_p90.complete", "us"),
    ("serve.rtt_us_p50.warm_submit", "us"),
    ("serve.rtt_us_p90.warm_submit", "us"),
    ("serve.poll_sleep_s", "s"),
    ("serve.worker_compute_share", "ratio"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.json_us_per_cell.encode", "us"),
    ("serve.json_us_per_cell.decode", "us"),
    ("serve.bytes_per_cell", "bytes/cell"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.transport_errors", "count"),
    ("serve.duplicates", "count"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("failed_cell_ratio", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&"must lie in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-sweep", "zoo-atlas", "distributed-sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

static DEADLINE: OnceLock<Instant> = OnceLock::new();

/// Whether the run's wall-clock budget is spent.
pub fn past_deadline() -> bool {
    Instant::now() >= *DEADLINE.get_or_init(|| Instant::now() + RUN_DEADLINE)
}

/// The base seed of a workload at run seed `seed`: seed 0 keeps the
/// committed base seed, and seed `n` starts 2^20 seed blocks after seed
/// `n - 1`, so runs at different seeds share no cell.
pub fn seed_base(base: u64, seed: u64) -> u64 {
    ahn_core::sweeps::block_seed(base, seed << 20)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells the run attempted: every cell of every pass, output-check
    /// pass and replay.
    pub attempted: u64,
    /// Cells missing or errored.
    pub failed: u64,
    /// Set by a failed output check: every cell of the run then counts
    /// as failed.
    pub mismatched: bool,
    /// Human-readable errors and check failures, printed to stderr.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// An output check failed.
    pub fn mismatch(&mut self, problem: String) {
        self.mismatched = true;
        self.problems.push(problem);
    }

    /// An error whose failed cells the caller has counted.
    pub fn error(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Writes a traced run's spans to `perfbench/out/`.
    pub fn write_trace(&self, args: &Args, spans: &[trace::Span]) {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match trace::write(&path, spans) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// The result line: `{correct, attempted, failed, metrics}` with the
/// metrics in `names` order.
fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let attempted = outcome.attempted.max(1);
    let failed = if outcome.mismatched {
        attempted
    } else {
        outcome.failed.min(attempted)
    };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match name {
            "failed_cell_ratio" => failed as f64 / attempted as f64,
            _ => outcome
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |&(_, value, _)| value),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = failed == 0 && outcome.attempted > 0;
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    past_deadline(); // starts the run's clock
    measure::pin_threads();
    let outcome = match args.workload.as_str() {
        "distributed-sweep" => distributed::run(&args),
        _ => inproc::run(&args),
    };
    for problem in &outcome.problems {
        eprintln!("error: {problem}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _, unit) in &outcome.metrics {
        assert!(
            names.contains(&(name.as_str(), *unit)),
            "metric {name} ({unit}) is not declared"
        );
    }
    println!("{}", measure::host_json());
    println!("{}", result_line(&outcome, names));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args(&[
            "--workload",
            "zoo-atlas",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zoo-atlas", 4, 2.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "zoo-atlas", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn seed_zero_keeps_the_base_seed() {
        assert_eq!(seed_base(42, 0), 42);
        assert_ne!(seed_base(42, 1), seed_base(42, 2));
    }

    #[test]
    fn a_mismatch_fails_every_cell() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metric("cells_per_s", 2.5, "cells/s");
        let line = result_line(&outcome, &[("cells_per_s", "cells/s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"cells_per_s\":{\"value\":2.5,\"unit\":\"cells/s\"}}}"
        );
        outcome.mismatch("bytes differ".into());
        let line = result_line(&outcome, &[("failed_cell_ratio", "ratio")]);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":10,"));
        assert!(line.contains("\"failed_cell_ratio\":{\"value\":1,"));
    }
}
