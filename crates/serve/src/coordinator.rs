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
//! Each reply is decoded once, straight into a typed
//! [`JobReply`] whose results are [`ExperimentResult`]s (the vendored
//! JSON writer emits shortest-round-trip f64, so the parse is
//! lossless). They become [`SweepCell`]s via
//! [`ahn_core::cell_from_result`] and are merged by
//! [`ahn_core::merge_sweep`] in grid order — worker count, arrival
//! order, duplicate completions and crash/resume cannot change a byte
//! of the output.
//!
//! One JSON pass per document: each cell's [`JobSpec`] is encoded once,
//! into the submission body, and its cache key is the FNV-1a hash of
//! that body (which is what [`JobSpec::cache_key`] computes); each reply
//! is decoded once, as it arrives; results stay typed until the merge.
//!
//! Checkpoint/resume: with a journal path every completed cell is
//! appended (checksummed, flushed) before the coordinator moves on; a
//! restarted coordinator replays the journal, decodes the records of
//! its own cells once, and submits only the missing cells. A record's
//! result text is the typed result encoded again, byte for byte the
//! text the worker delivered; without a journal no result is encoded.

use crate::journal::{replay, Journal};
use crate::protocol::{JobReply, JobSpec};
use crate::worker::Transport;
use ahn_core::cases::CaseSpec;
use ahn_core::config::ExperimentConfig;
use ahn_core::{
    cell_from_result, merge_sweep, score_calibration, CalibrationGrid, CalibrationReport,
    ExperimentResult, SweepCell, SweepCellSpec, SweepGrid, SweepReport,
};
use ahn_obs::{fnv1a64, trace_id_of_key, TraceEvent, TraceLog};
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
    /// The cell's `JobSpec::Experiment`, encoded once.
    body: String,
    /// `fnv1a64(body)`: the cell's `JobSpec::cache_key`.
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
        let body =
            serde_json::to_string(&spec).map_err(|e| format!("cannot serialize cell: {e}"))?;
        out.push(CellTask {
            sweep_index,
            cell_spec,
            config,
            case,
            key: fnv1a64(body.as_bytes()),
            body,
        });
    }
    Ok(out)
}

/// Drives every task through the serve node: journal replay → submit
/// missing → poll → journal append. Returns each cell's result by
/// cache key.
fn execute_cells(
    transport: &mut dyn Transport,
    tasks: &[CellTask],
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<HashMap<u64, ExperimentResult>, String> {
    let emit = |event: TraceEvent| {
        if let Some(log) = trace {
            log.emit(event);
        }
    };
    let pause = Duration::from_millis(poll_ms.max(1));
    let mut done: HashMap<u64, ExperimentResult> = HashMap::new();
    let mut journal = match journal_path {
        None => None,
        Some(path) => {
            let replayed = replay(path)
                .map_err(|e| format!("cannot replay journal {}: {e}", path.display()))?;
            let keys: HashSet<u64> = tasks.iter().map(|task| task.key).collect();
            for record in replayed.records {
                if keys.contains(&record.key) {
                    let result = serde_json::from_str(&record.result)
                        .map_err(|e| format!("cannot parse the result: {e}"))
                        .and_then(|results| single_result(Some(results)))
                        .map_err(|e| format!("journal record {:016x}: {e}", record.key))?;
                    done.insert(record.key, result);
                }
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
        let trace_id = trace_id_of_key(task.key);
        let mut backpressure = 0usize;
        loop {
            let (status, response) = transport
                .request("POST", "/v1/experiments", &task.body)
                .map_err(|e| format!("cell submission failed: {e}"))?;
            if status == 503 {
                backpressure += 1;
                if backpressure >= MAX_BACKPRESSURE_RETRIES {
                    return Err("server queue stayed full; giving up".into());
                }
                std::thread::sleep(pause);
                continue;
            }
            if status != 200 && status != 202 {
                return Err(format!("cell submission rejected: {status} {response}"));
            }
            let in_cell = |e: String| format!("cell {:?}: {e}", task.cell_spec);
            let reply = decode(&response).map_err(in_cell)?;
            if status == 200 {
                // Cache hit: the result is inline.
                emit(
                    TraceEvent::new(trace_id, "submit")
                        .key(task.key)
                        .outcome(true)
                        .detail("cache_hit".into()),
                );
                let result = single_result(reply.result).map_err(in_cell)?;
                checkpoint(&mut done, &mut journal, task.key, result)?;
                emit(
                    TraceEvent::new(trace_id, "merge")
                        .key(task.key)
                        .outcome(true),
                );
            } else {
                let Some(job_id) = reply.job_id else {
                    return Err(format!("submit ack without job_id: {response}"));
                };
                emit(
                    TraceEvent::new(trace_id, "submit")
                        .key(task.key)
                        .job(job_id),
                );
                polling.push((index, job_id));
            }
            break;
        }
    }

    // Poll submissions to completion in order; cells finish in any
    // order server-side, the order here only shapes wait time. Each
    // done reply is decoded as it arrives, while later cells compute.
    for (index, job_id) in polling {
        let task = &tasks[index];
        let in_job = |e: String| format!("job {job_id}: {e}");
        let mut rounds = 0usize;
        loop {
            let (status, response) = transport
                .request("GET", &format!("/v1/jobs/{job_id}"), "")
                .map_err(|e| format!("job poll failed: {e}"))?;
            if status != 200 {
                return Err(format!("job {job_id} poll rejected: {status} {response}"));
            }
            let reply = decode(&response).map_err(in_job)?;
            match reply.status.as_str() {
                "done" => {
                    let result = single_result(reply.result).map_err(in_job)?;
                    checkpoint(&mut done, &mut journal, task.key, result)?;
                    emit(
                        TraceEvent::new(trace_id_of_key(task.key), "merge")
                            .key(task.key)
                            .job(job_id)
                            .outcome(true),
                    );
                    break;
                }
                "failed" => {
                    let error = serde_json::to_string(&reply.error).unwrap_or_default();
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

/// Decodes one reply; the caller names the cell or job in the error.
fn decode(response: &str) -> Result<JobReply, String> {
    serde_json::from_str(response).map_err(|e| format!("cannot parse the reply: {e}"))
}

/// The one result of a single-case job.
fn single_result(results: Option<Vec<ExperimentResult>>) -> Result<ExperimentResult, String> {
    match results {
        Some(mut results) if results.len() == 1 => Ok(results.remove(0)),
        Some(results) => Err(format!("{} results, expected 1", results.len())),
        None => Err("done without a result".into()),
    }
}

/// Records one completed cell: durably first (journal append is
/// checksummed and flushed), then in the in-memory map. The record's
/// text encodes the result as the one-element list the worker sent.
fn checkpoint(
    done: &mut HashMap<u64, ExperimentResult>,
    journal: &mut Option<Journal>,
    key: u64,
    result: ExperimentResult,
) -> Result<(), String> {
    if let Some(journal) = journal {
        let text = serde_json::to_string(std::slice::from_ref(&result))
            .map_err(|e| format!("cannot serialize result: {e}"))?;
        journal
            .append(key, &text)
            .map_err(|e| format!("cannot append to journal: {e}"))?;
    }
    done.insert(key, result);
    Ok(())
}

/// Rebuilds the typed [`SweepCell`]s of one sweep from the results.
fn build_cells(
    tasks: &[&CellTask],
    results: &HashMap<u64, ExperimentResult>,
) -> Result<Vec<SweepCell>, String> {
    tasks
        .iter()
        .map(|task| {
            let result = results
                .get(&task.key)
                .ok_or_else(|| format!("cell {:?} has no result", task.cell_spec))?;
            Ok(cell_from_result(
                task.cell_spec.clone(),
                &task.config,
                &task.case,
                result,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_task_key_is_its_spec_cache_key() {
        let grid = CalibrationGrid::smoke();
        let candidate = grid.candidates().swap_remove(0);
        let sweep = grid.sweep_for(&candidate).unwrap();
        let tasks = cell_tasks(&sweep, 0).unwrap();
        assert_eq!(tasks.len(), sweep.cell_count());
        for task in &tasks {
            let spec: JobSpec = serde_json::from_str(&task.body).unwrap();
            assert_eq!(
                spec,
                JobSpec::Experiment {
                    config: task.config.clone(),
                    cases: vec![task.case.clone()],
                }
            );
            assert_eq!(task.key, spec.cache_key().unwrap());
        }
    }
}
