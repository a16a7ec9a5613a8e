//! The `distributed-sweep` workload: a pull-only `ahn_serve` node on
//! loopback, one pull-worker thread, and the `run_sweep_via`
//! coordinator, all in this process.
//!
//! Each repetition runs a fresh grid of many smoke-scale cells through
//! the same node, first cold, then warm. In the cold pass the worker
//! computes every cell; in each warm pass every submission must be
//! answered from the result cache. Repetition `r` uses seed blocks `[r·B, (r+1)·B)`, so
//! its cold pass never hits the cache.
//!
//! Lifecycle: the worker leaves only on an empty claim after the last
//! pass (it never exits while idle before the grid is submitted), then
//! the node drains through `POST /v1/shutdown`. Every request checks the
//! run deadline, so a wedged node fails the run instead of hanging it,
//! and a coordinator error counts its outstanding cells as failed.
//!
//! Both ends talk through [`TimedTransport`], a [`Transport`] wrapped
//! around [`HttpTransport`]; traced, it logs every request, and the
//! per-layer `serve` metrics come from those logs, the worker's
//! [`ahn_serve::WorkerTelemetry`] and `GET /metrics`.

use crate::measure::{self, median, ratio, Sample};
use crate::trace::{self, Span, Trace};
use crate::{Args, Outcome};
use ahn_core::config::ExperimentConfig;
use ahn_core::{ExperimentResult, SweepGrid, SweepReport};
use ahn_serve::{
    run_sweep_via, run_worker_observed, BackoffPolicy, HttpTransport, JobSpec, ServerConfig,
    ServerHandle, Snapshot, Transport, WorkerConfig, WorkerReport,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grid axes of one repetition: 4 cases × 4 payoff tables × 3 sizes ×
/// [`SEED_BLOCKS`] seed blocks = 192 cells, each a 1-generation,
/// 1-replication smoke experiment — cheap enough that per-cell HTTP,
/// JSON, lease and poll costs outweigh compute.
const CASES: [usize; 4] = [1, 2, 3, 4];
const PAYOFFS: [&str; 4] = ["paper", "best-fit", "literal-ocr", "no-reputation"];
const SIZES: [usize; 3] = [8, 10, 12];
const SEED_BLOCKS: u64 = 4;
const GENERATIONS: usize = 1;

/// The coordinator's and the worker's poll interval, milliseconds.
const POLL_MS: u64 = 1;
/// Per-request deadline of both transports, milliseconds.
const REQUEST_DEADLINE_MS: u64 = 10_000;
/// Set-ups (each a fresh node) before the first repetition and after
/// every repetition; `setup_s` is the median of all of them.
const SETUP_TRIALS: usize = 11;
const SETUP_TRIALS_BETWEEN: usize = 3;
/// Fewest repetitions per run.
const MIN_REPS: usize = 3;
/// Warm passes per repetition: a warm pass is short, so each
/// repetition takes several samples of it.
const WARM_PASSES: usize = 3;

fn grid(seed: u64, rep: u64) -> SweepGrid {
    let mut base = ExperimentConfig::smoke();
    base.generations = GENERATIONS;
    base.replications = 1;
    base.base_seed = crate::seed_base(base.base_seed, seed);
    SweepGrid {
        base,
        scenarios: None,
        cases: CASES.to_vec(),
        payoffs: PAYOFFS.map(String::from).to_vec(),
        sizes: SIZES.to_vec(),
        seed_blocks: (rep * SEED_BLOCKS..(rep + 1) * SEED_BLOCKS).collect(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Submit,
    Poll,
    Claim,
    Complete,
    Other,
}

impl Route {
    fn of(method: &str, path: &str) -> Route {
        match (method, path) {
            ("POST", "/v1/experiments") => Route::Submit,
            ("GET", p) if p.starts_with("/v1/jobs/") => Route::Poll,
            ("POST", "/v1/work/claim") => Route::Claim,
            ("POST", "/v1/work/complete") => Route::Complete,
            _ => Route::Other,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Route::Submit => "serve.submit",
            Route::Poll => "serve.poll",
            Route::Claim => "serve.claim",
            Route::Complete => "serve.complete",
            Route::Other => "serve.other",
        }
    }
}

/// One logged request.
#[derive(Debug, Clone, Copy)]
struct Request {
    route: Route,
    start: Instant,
    end: Instant,
    /// Request plus response body bytes.
    bytes: u64,
    /// A submit answered inline or a poll answered done.
    done: bool,
    /// A claim that found nothing to do.
    empty: bool,
}

/// `true` when `pattern` occurs in the first bytes of `reply`, where
/// the server puts the status field (results follow it).
fn head_has(reply: &str, pattern: &str) -> bool {
    let head = &reply.as_bytes()[..reply.len().min(96)];
    head.windows(pattern.len()).any(|w| w == pattern.as_bytes())
}

/// The benchmark's transport: [`HttpTransport`] plus the run deadline,
/// a count of answered cells and, when traced, a request log.
struct TimedTransport {
    inner: HttpTransport,
    /// Cells answered so far: submits served inline plus polls that
    /// answered done.
    answered: u64,
    /// Requests that never got a response.
    errors: u64,
    log: Option<Vec<Request>>,
    /// When set, 200 submit replies are kept (the warm pass's real
    /// result bytes, for the JSON cost measurement).
    keep_replies: Option<Vec<String>>,
}

impl TimedTransport {
    fn new(addr: &str, traced: bool) -> TimedTransport {
        TimedTransport {
            inner: HttpTransport::with_deadline(addr, REQUEST_DEADLINE_MS),
            answered: 0,
            errors: 0,
            log: traced.then(Vec::new),
            keep_replies: None,
        }
    }
}

impl Transport for TimedTransport {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        if crate::past_deadline() {
            self.errors += 1;
            return Err("run deadline passed".into());
        }
        let start = Instant::now();
        let result = self.inner.request(method, path, body);
        let end = Instant::now();
        let route = Route::of(method, path);
        let (status, reply) = match &result {
            Ok((status, reply)) => (*status, reply.as_str()),
            Err(_) => {
                self.errors += 1;
                (0, "")
            }
        };
        let done = match route {
            Route::Submit => status == 200,
            Route::Poll => status == 200 && head_has(reply, "\"status\":\"done\""),
            _ => false,
        };
        self.answered += u64::from(done);
        if let Some(log) = &mut self.log {
            log.push(Request {
                route,
                start,
                end,
                bytes: (body.len() + reply.len()) as u64,
                done,
                empty: route == Route::Claim && head_has(reply, "\"status\":\"empty\""),
            });
        }
        if let (Some(kept), Route::Submit, 200) = (&mut self.keep_replies, route, status) {
            kept.push(reply.to_string());
        }
        result
    }
}

/// What the worker thread did over its whole life.
#[derive(Debug, Default)]
struct WorkerTotals {
    report: WorkerReport,
    /// Σ `compute_us` of the worker's telemetry.
    compute_us: u64,
    error: Option<String>,
    log: Vec<Request>,
}

/// The pull worker: `run_worker_observed` with `idle_exit_polls = 1`,
/// re-entered after every empty claim until `stop` is set, so it never
/// exits while idle before the benchmark is done with the node.
fn worker_loop(
    addr: &str,
    stop: &AtomicBool,
    ready: mpsc::Sender<()>,
    traced: bool,
) -> WorkerTotals {
    let mut transport = TimedTransport::new(addr, traced);
    let config = WorkerConfig {
        poll_ms: POLL_MS,
        idle_exit_polls: 1,
        backoff: BackoffPolicy {
            base_ms: 2,
            cap_ms: 20,
            ..BackoffPolicy::default()
        },
        ..WorkerConfig::default()
    };
    let mut totals = WorkerTotals::default();
    loop {
        match run_worker_observed(&mut transport, &config, None) {
            Ok((report, telemetry)) => {
                let sum = &mut totals.report;
                sum.completed += report.completed;
                sum.failed += report.failed;
                sum.duplicates += report.duplicates;
                sum.dropped += report.dropped;
                sum.empty_polls += report.empty_polls;
                sum.transport_errors += report.transport_errors;
                totals.compute_us += telemetry.compute_us.sum;
            }
            Err(e) => {
                totals.error = Some(e);
                break;
            }
        }
        let _ = ready.send(());
        if stop.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(POLL_MS));
    }
    totals.log = transport.log.take().unwrap_or_default();
    totals
}

/// A running node: server plus worker thread.
struct Node {
    handle: ServerHandle,
    addr: String,
    stop: Arc<AtomicBool>,
    worker: JoinHandle<WorkerTotals>,
}

/// Spawns a pull-only server sized for `cells` cells per repetition and
/// its worker, and waits until the worker has made its first claim.
fn start_node(cells: usize, traced: bool) -> Result<Node, String> {
    let handle = ahn_serve::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        cache_cap: 2 * cells,
        queue_cap: 2 * cells,
        drain_ms: 2_000,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot spawn the server: {e}"))?;
    let addr = handle.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let (ready_tx, ready_rx) = mpsc::channel();
    let worker = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::Builder::new()
            .name("perfbench-worker".into())
            .spawn(move || worker_loop(&addr, &stop, ready_tx, traced))
            .map_err(|e| format!("cannot spawn the worker: {e}"))?
    };
    let node = Node {
        handle,
        addr,
        stop,
        worker,
    };
    match ready_rx.recv_timeout(Duration::from_millis(REQUEST_DEADLINE_MS)) {
        Ok(()) => Ok(node),
        Err(_) => {
            let totals = stop_node(node);
            Err(format!("the worker never claimed: {:?}", totals.error))
        }
    }
}

/// Stops the worker at its next empty claim, then drains the server
/// through `POST /v1/shutdown` and waits for it to exit.
fn stop_node(node: Node) -> WorkerTotals {
    node.stop.store(true, Ordering::SeqCst);
    let totals = node.worker.join().unwrap_or_else(|_| WorkerTotals {
        error: Some("the worker thread panicked".into()),
        ..WorkerTotals::default()
    });
    let deadline = Some(Duration::from_millis(REQUEST_DEADLINE_MS));
    match ahn_serve::loadtest::one_shot_deadlined(&node.addr, "POST", "/v1/shutdown", "", deadline)
    {
        Ok((200, _)) => node.handle.join(),
        _ => node.handle.shutdown(),
    }
    totals
}

fn metrics(addr: &str) -> Result<Snapshot, String> {
    let deadline = Some(Duration::from_millis(REQUEST_DEADLINE_MS));
    let (status, body) =
        ahn_serve::loadtest::one_shot_deadlined(addr, "GET", "/metrics", "", deadline)?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("cannot parse /metrics: {e}"))
}

/// One repetition's measurements.
struct Rep {
    cells: u64,
    cold: Sample,
    cold_window: (Instant, Instant),
    warm: Vec<Sample>,
    warm_windows: Vec<(Instant, Instant)>,
    warm_hits: u64,
    warm_submissions: u64,
}

/// One pass of the grid through the coordinator; a coordinator error
/// counts the pass's unanswered cells as failed.
fn pass(
    coord: &mut TimedTransport,
    grid: &SweepGrid,
    what: &str,
    out: &mut Outcome,
) -> Option<(SweepReport, Sample, (Instant, Instant))> {
    let cells = grid.cell_count() as u64;
    out.attempted += cells;
    let answered = coord.answered;
    let start = Instant::now();
    let (report, sample) = measure::timed(|| run_sweep_via(coord, grid, None, POLL_MS));
    let window = (start, Instant::now());
    match report {
        Ok(report) => Some((report, sample, window)),
        Err(e) => {
            let outstanding = cells.saturating_sub(coord.answered - answered);
            out.failed += outstanding;
            out.error(format!(
                "{what} pass failed with {outstanding} cells outstanding: {e}"
            ));
            None
        }
    }
}

/// The first repetition's grid and its warm-pass submit replies.
type JsonSample = (SweepGrid, Vec<String>);

/// Set-up samples, seconds: the whole set-up and its grid part.
#[derive(Debug, Default)]
struct Setups {
    total: Vec<f64>,
    grid: Vec<f64>,
}

impl Setups {
    /// One set-up: build and validate the grid, spawn the node, wait for
    /// the worker's first claim.
    fn trial(&mut self, args: &Args, cells: usize) -> Result<Node, String> {
        let started = Instant::now();
        let valid = grid(args.seed, 0).validate();
        self.grid.push(started.elapsed().as_secs_f64());
        let node = valid.and_then(|()| start_node(cells, false));
        self.total.push(started.elapsed().as_secs_f64());
        node
    }

    /// `n` more set-ups whose nodes are stopped again, untimed.
    fn sample(&mut self, args: &Args, cells: usize, n: usize) -> Result<(), String> {
        for _ in 0..n {
            stop_node(self.trial(args, cells)?);
        }
        Ok(())
    }
}

/// Runs repetitions against `node` for the run's seconds, checking
/// every pass. With `setups`, more set-up samples are taken after every
/// repetition, so `setup_s` sees the whole run's conditions; without
/// (the traced phase), the first warm pass's replies are kept.
fn reps(
    args: &Args,
    node: &Node,
    coord: &mut TimedTransport,
    mut setups: Option<&mut Setups>,
    out: &mut Outcome,
) -> (Vec<Rep>, Option<JsonSample>) {
    let sample_json = setups.is_none();
    let started = Instant::now();
    let mut done = Vec::new();
    let mut sample = None;
    for rep in 0.. {
        if done.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let grid = grid(args.seed, rep);
        let cells = grid.cell_count() as u64;
        let Some((cold, cold_sample, cold_window)) = pass(coord, &grid, "cold", out) else {
            break;
        };
        let mut done_rep = Rep {
            cells,
            cold: cold_sample,
            cold_window,
            warm: Vec::with_capacity(WARM_PASSES),
            warm_windows: Vec::with_capacity(WARM_PASSES),
            warm_hits: 0,
            warm_submissions: 0,
        };
        let mut reports = vec![cold];
        for w in 0..WARM_PASSES {
            let before = match metrics(&node.addr) {
                Ok(m) => m,
                Err(e) => {
                    out.mismatch(e);
                    return (done, sample);
                }
            };
            if sample_json && rep == 0 && w == 0 {
                coord.keep_replies = Some(Vec::new());
            }
            let warm_pass = pass(coord, &grid, "warm", out);
            if let Some(kept) = coord.keep_replies.take() {
                sample = Some((grid.clone(), kept));
            }
            let Some((warm, warm_sample, warm_window)) = warm_pass else {
                return (done, sample);
            };
            let after = match metrics(&node.addr) {
                Ok(m) => m,
                Err(e) => {
                    out.mismatch(e);
                    return (done, sample);
                }
            };
            let hits = after.cache_hits - before.cache_hits;
            let submissions = after.submissions - before.submissions;
            if hits != submissions || submissions != cells {
                out.mismatch(format!(
                    "warm pass: {hits} cache hits for {submissions} submissions of {cells} cells"
                ));
            }
            done_rep.warm.push(warm_sample);
            done_rep.warm_windows.push(warm_window);
            done_rep.warm_hits += hits;
            done_rep.warm_submissions += submissions;
            reports.push(warm);
        }
        // The merged reports must equal the in-process fold of the same
        // grid (computed outside the timed passes).
        match ahn_core::run_sweep(&grid) {
            Ok(local) if reports.iter().all(|r| *r == local) => {}
            Ok(_) => out.mismatch(format!(
                "repetition {rep}: a merged report differs from run_sweep"
            )),
            Err(e) => out.mismatch(format!("repetition {rep}: run_sweep failed: {e}")),
        }
        done.push(done_rep);
        if let Some(setups) = setups.as_deref_mut() {
            if let Err(e) = setups.sample(args, cells as usize, SETUP_TRIALS_BETWEEN) {
                out.mismatch(format!("set-up failed: {e}"));
                break;
            }
        }
        if crate::past_deadline() {
            out.error("run deadline passed".into());
            break;
        }
    }
    (done, sample)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cells = grid(args.seed, 0).cell_count();

    let mut setups = Setups::default();
    let node = match setups
        .sample(args, cells, SETUP_TRIALS - 1)
        .and_then(|()| setups.trial(args, cells))
    {
        Ok(node) => node,
        Err(e) => {
            out.mismatch(format!("set-up failed: {e}"));
            return out;
        }
    };

    let mut coord = TimedTransport::new(&node.addr, false);
    let (untraced, _) = reps(args, &node, &mut coord, Some(&mut setups), &mut out);
    let totals = stop_node(node);
    account_worker(&totals, &mut out);

    let cold_rate = median(untraced.iter().map(|r| r.cells as f64 / r.cold.wall_s));
    let cold_cpu_per_cell = median(untraced.iter().map(|r| r.cold.cpu_s / r.cells as f64));
    if !args.trace {
        out.metric("setup_s", median(setups.total), "s");
        out.metric("cells_per_s", cold_rate, "cells/s");
        out.metric(
            "warm_cells_per_s",
            median(
                untraced
                    .iter()
                    .flat_map(|r| r.warm.iter().map(|w| r.cells as f64 / w.wall_s)),
            ),
            "cells/s",
        );
        out.metric("cpu_s_per_cell", cold_cpu_per_cell, "CPU-s/cell");
        out.metric("peak_rss_mb", measure::peak_rss_mb(), "MiB");
        return out;
    }

    let threads = ahn_core::threads::effective() as f64;
    out.metric(
        "core.cpu_util",
        median(
            untraced
                .iter()
                .map(|r| r.cold.cpu_s / (r.cold.wall_s * threads)),
        ),
        "ratio",
    );
    out.metric("core.setup_ms", median(setups.grid) * 1e3, "ms");

    // Traced phase: a fresh node whose transports log every request.
    let origin = Instant::now();
    let node = match start_node(cells, true) {
        Ok(node) => node,
        Err(e) => {
            out.mismatch(format!("traced set-up failed: {e}"));
            return out;
        }
    };
    let mut coord = TimedTransport::new(&node.addr, true);
    let (traced, json_sample) = reps(args, &node, &mut coord, None, &mut out);
    let server = metrics(&node.addr);
    let totals = stop_node(node);
    account_worker(&totals, &mut out);
    let coord_log = coord.log.take().unwrap_or_default();

    let cold_windows: Vec<_> = traced.iter().map(|r| r.cold_window).collect();
    let warm_windows: Vec<_> = traced.iter().flat_map(|r| r.warm_windows.clone()).collect();
    let within = |windows: &[(Instant, Instant)], r: &Request| {
        windows.iter().any(|&(a, b)| r.start >= a && r.start < b)
    };
    let cold: Vec<Request> = coord_log
        .iter()
        .chain(&totals.log)
        .copied()
        .filter(|r| within(&cold_windows, r))
        .collect();
    let cold_cells: u64 = traced.iter().map(|r| r.cells).sum();
    let cold_wall: f64 = traced.iter().map(|r| r.cold.wall_s).sum();
    let count = |route: Route| cold.iter().filter(|r| r.route == route).count() as f64;

    for (route, name) in [
        (Route::Submit, "submit"),
        (Route::Poll, "poll"),
        (Route::Claim, "claim"),
        (Route::Complete, "complete"),
    ] {
        out.metric(
            format!("serve.requests_per_cell.{name}"),
            ratio(count(route), cold_cells as f64),
            "req/cell",
        );
        let mut rtts: Vec<f64> = cold
            .iter()
            .filter(|r| r.route == route)
            .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
            .collect();
        out.metric(
            format!("serve.rtt_us_p50.{name}"),
            measure::quantile(&mut rtts, 0.5),
            "us",
        );
        out.metric(
            format!("serve.rtt_us_p90.{name}"),
            measure::quantile(&mut rtts, 0.9),
            "us",
        );
    }
    let mut warm_submits: Vec<f64> = coord_log
        .iter()
        .filter(|r| r.route == Route::Submit && within(&warm_windows, r))
        .map(|r| (r.end - r.start).as_secs_f64() * 1e6)
        .collect();
    out.metric(
        "serve.rtt_us_p50.warm_submit",
        measure::quantile(&mut warm_submits, 0.5),
        "us",
    );
    out.metric(
        "serve.rtt_us_p90.warm_submit",
        measure::quantile(&mut warm_submits, 0.9),
        "us",
    );
    let polls_done = cold
        .iter()
        .filter(|r| r.route == Route::Poll && r.done)
        .count() as f64;
    out.metric(
        "serve.poll_done_ratio",
        ratio(polls_done, count(Route::Poll)),
        "ratio",
    );
    let empty = cold.iter().filter(|r| r.empty).count() as f64;
    out.metric(
        "serve.empty_claim_ratio",
        ratio(empty, count(Route::Claim)),
        "ratio",
    );

    // Coordinator sleep: from a not-done poll reply to its next request.
    let poll_sleep: f64 = coord_log
        .windows(2)
        .filter(|w| w[0].route == Route::Poll && !w[0].done && within(&cold_windows, &w[0]))
        .map(|w| (w[1].start - w[0].end).as_secs_f64())
        .sum();
    out.metric(
        "serve.poll_sleep_s",
        ratio(poll_sleep, traced.len() as f64),
        "s",
    );
    out.metric(
        "serve.worker_compute_share",
        ratio(totals.compute_us as f64 / 1e6, cold_wall),
        "ratio",
    );
    match &server {
        Ok(snapshot) => {
            let p50 = snapshot.latency.as_ref().map_or(0, |l| l.queue_wait_us.p50);
            out.metric("serve.queue_wait_us_p50", p50 as f64, "us");
        }
        Err(e) => out.mismatch(format!("final /metrics failed: {e}")),
    }
    match json_sample
        .ok_or_else(|| "no warm pass finished".to_string())
        .and_then(|(g, replies)| json_costs(&g, &replies))
    {
        Ok((encode, decode)) => {
            out.metric("serve.json_us_per_cell.encode", encode, "us");
            out.metric("serve.json_us_per_cell.decode", decode, "us");
        }
        Err(e) => out.mismatch(format!("JSON cost sample failed: {e}")),
    }
    let bytes: u64 = cold.iter().map(|r| r.bytes).sum();
    out.metric(
        "serve.bytes_per_cell",
        ratio(bytes as f64, cold_cells as f64),
        "bytes/cell",
    );
    let hits: u64 = traced.iter().map(|r| r.warm_hits).sum();
    let submissions: u64 = traced.iter().map(|r| r.warm_submissions).sum();
    out.metric(
        "serve.warm_hit_ratio",
        ratio(hits as f64, submissions as f64),
        "ratio",
    );
    out.metric(
        "serve.transport_errors",
        (totals.report.transport_errors + coord.errors) as f64,
        "count",
    );
    out.metric("serve.duplicates", totals.report.duplicates as f64, "count");

    // Closure: the request and compute spans of the cold passes against
    // the untraced cold passes' CPU.
    let spans = spans(origin, &traced, &coord_log, &totals.log);
    let cold_span_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some() || s.thread == "worker")
        .filter(|s| {
            let at = origin + Duration::from_nanos(s.start_ns);
            cold_windows.iter().any(|&(a, b)| at >= a && at < b)
        })
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    let untraced_cpu_per_pass = median(untraced.iter().map(|r| r.cold.cpu_s));
    out.metric(
        "trace.residual_share",
        ratio(
            untraced_cpu_per_pass - cold_span_s / traced.len().max(1) as f64,
            untraced_cpu_per_pass,
        ),
        "ratio",
    );
    let traced_cpu_per_cell = median(traced.iter().map(|r| r.cold.cpu_s / r.cells as f64));
    out.metric(
        "trace.overhead",
        ratio(traced_cpu_per_cell, cold_cpu_per_cell),
        "ratio",
    );
    out.write_trace(args, &spans);
    out
}

/// Folds the worker's own failures into the run's outcome.
fn account_worker(totals: &WorkerTotals, out: &mut Outcome) {
    if let Some(e) = &totals.error {
        out.error(format!("the worker gave up: {e}"));
    }
    if totals.report.failed > 0 {
        out.failed += totals.report.failed;
        out.error(format!("the worker failed {} cells", totals.report.failed));
    }
}

/// The spans of a traced phase: per repetition a `core.pass.cold` and a
/// `core.pass.warm` root with the coordinator's requests under them; the
/// worker's requests as roots, each compute gap (grant received to
/// completion sent) as a `core.compute` span.
fn spans(origin: Instant, reps: &[Rep], coord: &[Request], worker: &[Request]) -> Vec<Span> {
    let mut coordinator = Trace::new(origin, "coordinator");
    let mut passes = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let (a, b) = rep.cold_window;
        passes.push((a, b, coordinator.record("core.pass.cold", a, b, None, i)));
        for &(a, b) in &rep.warm_windows {
            passes.push((a, b, coordinator.record("core.pass.warm", a, b, None, i)));
        }
    }
    for (i, r) in coord.iter().enumerate() {
        let parent = passes
            .iter()
            .find(|&&(a, b, _)| r.start >= a && r.start < b)
            .map(|&(_, _, id)| id);
        coordinator.record(r.route.span(), r.start, r.end, parent, i);
    }
    let mut pulled = Trace::new(origin, "worker");
    for (i, r) in worker.iter().enumerate() {
        pulled.record(r.route.span(), r.start, r.end, None, i);
        if let Some(next) = worker.get(i + 1) {
            if r.route == Route::Claim && !r.empty && next.route == Route::Complete {
                pulled.record("core.compute", r.end, next.start, None, i);
            }
        }
    }
    trace::merge(vec![coordinator, pulled])
}

/// Per-cell `serde_json` cost on a pass's real bytes: encoding each
/// cell's `JobSpec` and its `ExperimentResult` list, and decoding both.
fn json_costs(grid: &SweepGrid, replies: &[String]) -> Result<(f64, f64), String> {
    if replies.is_empty() {
        return Err("no warm-pass replies were sampled".into());
    }
    let specs: Vec<JobSpec> = grid
        .cell_specs()
        .iter()
        .map(|spec| {
            grid.resolve(spec)
                .map(|(config, case)| JobSpec::Experiment {
                    config,
                    cases: vec![case],
                })
        })
        .collect::<Result<_, _>>()?;
    let results: Vec<Vec<ExperimentResult>> = replies
        .iter()
        .map(|reply| {
            let value: serde_json::Value =
                serde_json::from_str(reply).map_err(|e| e.to_string())?;
            serde_json::from_value(value["result"].clone()).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    const ROUNDS: usize = 5;
    let cells = specs.len() as f64;
    let mut encode = Vec::with_capacity(ROUNDS);
    let mut decode = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (texts, sample) = measure::timed(|| {
            let specs: Vec<String> = specs
                .iter()
                .map(serde_json::to_string)
                .collect::<Result<_, _>>()?;
            let results: Vec<String> = results
                .iter()
                .map(serde_json::to_string)
                .collect::<Result<_, _>>()?;
            Ok::<_, serde_json::Error>((specs, results))
        });
        let (spec_texts, result_texts) = texts.map_err(|e| e.to_string())?;
        encode.push(sample.wall_s * 1e6 / cells);
        let (parsed, sample) = measure::timed(|| {
            for text in &spec_texts {
                std::hint::black_box(serde_json::from_str::<JobSpec>(text)?);
            }
            for text in &result_texts {
                std::hint::black_box(serde_json::from_str::<Vec<ExperimentResult>>(text)?);
            }
            Ok::<_, serde_json::Error>(())
        });
        parsed.map_err(|e| e.to_string())?;
        decode.push(sample.wall_s * 1e6 / cells);
    }
    Ok((median(encode), median(decode)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_never_share_a_cell() {
        let a = grid(7, 0);
        let b = grid(7, 1);
        assert_eq!(a.cell_count(), 192);
        a.validate().unwrap();
        let key = |g: &SweepGrid| -> Vec<u64> {
            g.cell_specs()
                .iter()
                .map(|s| g.resolve(s).unwrap().0.base_seed)
                .collect()
        };
        let (ka, kb) = (key(&a), key(&b));
        assert!(ka.iter().all(|s| !kb.contains(s)));
    }

    #[test]
    fn routes_and_status_heads() {
        assert_eq!(Route::of("GET", "/v1/jobs/12"), Route::Poll);
        assert_eq!(Route::of("POST", "/v1/work/claim"), Route::Claim);
        assert_eq!(Route::of("GET", "/metrics"), Route::Other);
        assert!(head_has(
            "{\"job_id\":3,\"status\":\"done\",\"result\":[]}",
            "\"status\":\"done\""
        ));
        assert!(!head_has(
            "{\"job_id\":3,\"status\":\"queued\"}",
            "\"status\":\"done\""
        ));
    }

    #[test]
    fn node_round_trip_stops_cleanly() {
        let mut grid = grid(1, 0);
        grid.cases = vec![1];
        grid.payoffs = vec!["paper".into()];
        grid.sizes = vec![8];
        grid.seed_blocks = vec![0, 1];
        let node = start_node(grid.cell_count(), true).unwrap();
        let mut coord = TimedTransport::new(&node.addr, true);
        let cold = run_sweep_via(&mut coord, &grid, None, POLL_MS).unwrap();
        let warm = run_sweep_via(&mut coord, &grid, None, POLL_MS).unwrap();
        assert_eq!(cold, ahn_core::run_sweep(&grid).unwrap());
        assert_eq!(warm, cold);
        assert_eq!(coord.answered, 4);
        let totals = stop_node(node);
        assert_eq!(totals.error, None);
        assert_eq!(totals.report.completed, 2);
        assert!(totals.log.iter().any(|r| r.route == Route::Complete));
    }
}
