//! The distributed coordinator: runs a sweep or calibration *through* a
//! serve node instead of in-process, one `POST /v1/experiments` job per
//! grid cell, and merges the completed cells into a report bit-identical
//! to the single-process `run_sweep` / `run_calibration` fold.
//!
//! Why per-cell submissions instead of `POST /v1/sweeps`: each cell
//! rides the server's full cache/coalesce/queue flow under its own
//! `canonical_hash` key, so distributed sweeps share cached cells with
//! direct submissions, other sweeps, and calibration searches — and a
//! full queue backpressures one cell at a time (the coordinator retries
//! 503s) instead of bouncing a whole grid.
//!
//! Determinism: the coordinator never folds floats from wire text.
//! Results deserialize into typed [`ExperimentResult`]s (the vendored
//! JSON writer emits shortest-round-trip f64, so the parse is lossless),
//! become [`SweepCell`]s via [`ahn_core::cell_from_result`], and are
//! merged by [`ahn_core::merge_sweep`] in grid order — worker count,
//! arrival order, duplicate completions and crash/resume cannot change
//! a byte of the output.
//!
//! Checkpoint/resume: with a journal path every completed cell is
//! appended (checksummed, flushed) before the coordinator moves on; a
//! restarted coordinator replays the journal and submits only the
//! missing cells.

use crate::journal::{replay, Journal};
use crate::protocol::JobSpec;
use crate::worker::Transport;
use ahn_core::cases::CaseSpec;
use ahn_core::config::ExperimentConfig;
use ahn_core::{
    cell_from_result, merge_sweep, score_calibration, CalibrationGrid, CalibrationReport,
    ExperimentResult, SweepCell, SweepCellSpec, SweepGrid, SweepReport,
};
use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// How many poll rounds a cell may take before the coordinator gives
/// up (multiplied by `poll_ms`; 15 000 × the 2 ms test cadence = 30 s,
/// matching the loadtest budget).
const MAX_POLL_ROUNDS: usize = 15_000;

/// How many consecutive 503 (queue full) answers a single cell may
/// absorb before the coordinator gives up.
const MAX_BACKPRESSURE_RETRIES: usize = 10_000;

/// One grid cell, resolved far enough to submit and to rebuild its
/// [`SweepCell`] from the wire result.
struct CellTask {
    sweep_index: usize,
    cell_spec: SweepCellSpec,
    config: ExperimentConfig,
    case: CaseSpec,
    spec: JobSpec,
    key: u64,
}

/// Expands `grid` into submission-ready cell tasks tagged with
/// `sweep_index` (which per-candidate sweep they belong to).
fn cell_tasks(grid: &SweepGrid, sweep_index: usize) -> Result<Vec<CellTask>, String> {
    let mut out = Vec::with_capacity(grid.cell_count());
    for cell_spec in grid.cell_specs() {
        let (config, case) = grid.resolve(&cell_spec)?;
        let spec = JobSpec::Experiment {
            config: config.clone(),
            cases: vec![case.clone()],
        };
        let key = spec.cache_key()?;
        out.push(CellTask {
            sweep_index,
            cell_spec,
            config,
            case,
            spec,
            key,
        });
    }
    Ok(out)
}

/// Drives every task through the serve node: journal replay → submit
/// missing → poll → journal append. Returns result JSON by cache key.
fn execute_cells(
    transport: &mut dyn Transport,
    tasks: &[CellTask],
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<HashMap<u64, String>, String> {
    let emit = |event: TraceEvent| {
        if let Some(log) = trace {
            log.emit(event);
        }
    };
    let pause = Duration::from_millis(poll_ms.max(1));
    let mut done: HashMap<u64, String> = HashMap::new();
    let mut journal = match journal_path {
        None => None,
        Some(path) => {
            let replayed = replay(path)
                .map_err(|e| format!("cannot replay journal {}: {e}", path.display()))?;
            for record in replayed.records {
                done.insert(record.key, record.result);
            }
            Some(
                Journal::open(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
            )
        }
    };

    // Submit every cell not already checkpointed (distinct keys once —
    // calibration candidates can share cells).
    let mut polling: Vec<(usize, u64)> = Vec::new(); // (task index, job id)
    let mut submitted: HashSet<u64> = HashSet::new();
    for (index, task) in tasks.iter().enumerate() {
        if done.contains_key(&task.key) || !submitted.insert(task.key) {
            continue;
        }
        let body =
            serde_json::to_string(&task.spec).map_err(|e| format!("cannot serialize cell: {e}"))?;
        let trace_id = trace_id_of_key(task.key);
        let mut backpressure = 0usize;
        loop {
            let (status, response) = transport
                .request("POST", "/v1/experiments", &body)
                .map_err(|e| format!("cell submission failed: {e}"))?;
            match status {
                200 => {
                    // Cache hit: the result is inline.
                    emit(
                        TraceEvent::new(trace_id, "submit")
                            .key(task.key)
                            .outcome(true)
                            .detail("cache_hit".into()),
                    );
                    let reply: serde_json::Value = serde_json::from_str(&response)
                        .map_err(|e| format!("cannot parse response: {e}"))?;
                    checkpoint(
                        &mut done,
                        &mut journal,
                        task.key,
                        result_of(&reply, &response)?,
                    )?;
                    emit(
                        TraceEvent::new(trace_id, "merge")
                            .key(task.key)
                            .outcome(true),
                    );
                    break;
                }
                202 => {
                    let value: serde_json::Value = serde_json::from_str(&response)
                        .map_err(|e| format!("cannot parse submit ack: {e}"))?;
                    let serde_json::Value::U64(job_id) = value["job_id"] else {
                        return Err(format!("submit ack without job_id: {response}"));
                    };
                    emit(
                        TraceEvent::new(trace_id, "submit")
                            .key(task.key)
                            .job(job_id),
                    );
                    polling.push((index, job_id));
                    break;
                }
                503 => {
                    backpressure += 1;
                    if backpressure >= MAX_BACKPRESSURE_RETRIES {
                        return Err("server queue stayed full; giving up".into());
                    }
                    std::thread::sleep(pause);
                }
                _ => return Err(format!("cell submission rejected: {status} {response}")),
            }
        }
    }

    // Poll submissions to completion in order; cells finish in any
    // order server-side, the order here only shapes wait time.
    for (index, job_id) in polling {
        let task = &tasks[index];
        let mut rounds = 0usize;
        loop {
            let (status, response) = transport
                .request("GET", &format!("/v1/jobs/{job_id}"), "")
                .map_err(|e| format!("job poll failed: {e}"))?;
            if status != 200 {
                return Err(format!("job {job_id} poll rejected: {status} {response}"));
            }
            let value: serde_json::Value = serde_json::from_str(&response)
                .map_err(|e| format!("cannot parse job status: {e}"))?;
            match &value["status"] {
                serde_json::Value::String(s) if s == "done" => {
                    checkpoint(
                        &mut done,
                        &mut journal,
                        task.key,
                        result_of(&value, &response)?,
                    )?;
                    emit(
                        TraceEvent::new(trace_id_of_key(task.key), "merge")
                            .key(task.key)
                            .job(job_id)
                            .outcome(true),
                    );
                    break;
                }
                serde_json::Value::String(s) if s == "failed" => {
                    let error = serde_json::to_string(&value["error"]).unwrap_or_default();
                    return Err(format!("cell job {job_id} failed: {error}"));
                }
                _ => {
                    rounds += 1;
                    if rounds >= MAX_POLL_ROUNDS {
                        return Err(format!("cell job {job_id} did not finish in time"));
                    }
                    std::thread::sleep(pause);
                }
            }
        }
    }
    Ok(done)
}

/// Re-serializes the `result` field of a parsed reply (`response` is
/// its text, for the error). Both sides use the same writer, so this
/// reproduces the worker's compact result bytes.
fn result_of(reply: &serde_json::Value, response: &str) -> Result<String, String> {
    match reply.get("result") {
        Some(inner) => {
            serde_json::to_string(inner).map_err(|e| format!("cannot re-serialize result: {e}"))
        }
        None => Err(format!("response has no \"result\" field: {response}")),
    }
}

/// Records one completed cell: durably first (journal append is
/// checksummed and flushed), then in the in-memory map.
fn checkpoint(
    done: &mut HashMap<u64, String>,
    journal: &mut Option<Journal>,
    key: u64,
    result: String,
) -> Result<(), String> {
    if let Some(journal) = journal {
        journal
            .append(key, &result)
            .map_err(|e| format!("cannot append to journal: {e}"))?;
    }
    done.insert(key, result);
    Ok(())
}

/// Rebuilds the typed [`SweepCell`]s of one sweep from wire results.
fn build_cells(
    tasks: &[&CellTask],
    results: &HashMap<u64, String>,
) -> Result<Vec<SweepCell>, String> {
    tasks
        .iter()
        .map(|task| {
            let json = results
                .get(&task.key)
                .ok_or_else(|| format!("cell {:?} has no result", task.cell_spec))?;
            let mut parsed: Vec<ExperimentResult> =
                serde_json::from_str(json).map_err(|e| format!("cannot parse cell result: {e}"))?;
            if parsed.len() != 1 {
                return Err(format!(
                    "cell {:?} returned {} results, expected 1",
                    task.cell_spec,
                    parsed.len()
                ));
            }
            Ok(cell_from_result(
                task.cell_spec.clone(),
                &task.config,
                &task.case,
                &parsed.remove(0),
            ))
        })
        .collect()
}

/// Runs `grid` through the serve node behind `transport` and merges the
/// cells into a [`SweepReport`] bit-identical to
/// [`ahn_core::run_sweep`]. `journal_path` enables checkpoint/resume.
pub fn run_sweep_via(
    transport: &mut dyn Transport,
    grid: &SweepGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
) -> Result<SweepReport, String> {
    run_sweep_via_traced(transport, grid, journal_path, poll_ms, None)
}

/// [`run_sweep_via`] with span tracing: when `trace` is set the
/// coordinator emits a `submit` event per cell submission and a `merge`
/// event per checkpoint, so the coordinator's view joins with the
/// server's and the workers' via the shared key-derived trace id. The
/// report stays bit-identical — tracing never touches the fold.
pub fn run_sweep_via_traced(
    transport: &mut dyn Transport,
    grid: &SweepGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<SweepReport, String> {
    grid.validate()?;
    let tasks = cell_tasks(grid, 0)?;
    let results = execute_cells(transport, &tasks, journal_path, poll_ms, trace)?;
    let refs: Vec<&CellTask> = tasks.iter().collect();
    let cells = build_cells(&refs, &results)?;
    merge_sweep(grid, &cells)
}

/// Runs `grid` through the serve node behind `transport` and scores the
/// merged per-candidate sweeps into a [`CalibrationReport`] — Pareto
/// front included — bit-identical to [`ahn_core::run_calibration`].
/// `journal_path` enables checkpoint/resume, and `trace` span tracing
/// with the same contract as [`run_sweep_via_traced`].
pub fn run_calibration_via_traced(
    transport: &mut dyn Transport,
    grid: &CalibrationGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<CalibrationReport, String> {
    grid.validate()?;
    let mut sweep_grids = Vec::new();
    let mut tasks = Vec::new();
    for (index, candidate) in grid.candidates().into_iter().enumerate() {
        let sweep = grid.sweep_for(&candidate)?;
        tasks.extend(cell_tasks(&sweep, index)?);
        sweep_grids.push(sweep);
    }
    let results = execute_cells(transport, &tasks, journal_path, poll_ms, trace)?;
    let mut sweeps = Vec::with_capacity(sweep_grids.len());
    for (index, sweep_grid) in sweep_grids.iter().enumerate() {
        let refs: Vec<&CellTask> = tasks.iter().filter(|t| t.sweep_index == index).collect();
        let cells = build_cells(&refs, &results)?;
        sweeps.push(merge_sweep(sweep_grid, &cells)?);
    }
    score_calibration(grid, &sweeps)
}
