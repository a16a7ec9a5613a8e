//! The distributed coordinator: a cell runner that computes a sweep's
//! or calibration's cells *through* a serve node instead of in-process,
//! one `POST /v1/experiments` job per cell. [`run_cells_via`] takes the
//! cells the core pass resolved and checked ([`ahn_core::GridCells`])
//! and returns one result per cell in cell order, so the core fold
//! ([`ahn_core::run_sweep_with`],
//! [`ahn_core::calibrate::run_calibration_with`]) builds a report
//! bit-identical to the in-process run.
//!
//! Why per-cell submissions instead of `POST /v1/sweeps`: each cell
//! rides the server's full cache/coalesce/queue flow under its own
//! `canonical_hash` key, so distributed sweeps share cached cells with
//! direct submissions, other sweeps, and calibration searches — and a
//! full queue backpressures one cell at a time (the coordinator retries
//! 503s) instead of bouncing a whole grid. Cells that share a key (a
//! repeated axis value, calibration candidates sharing a cell) are
//! submitted once and share the result.
//!
//! Determinism: the coordinator never folds floats from wire text.
//! Each reply is decoded once, straight into a typed [`JobReply`] whose
//! results are [`ExperimentResult`]s (the vendored JSON writer emits
//! shortest-round-trip f64, so the parse is lossless), and results are
//! returned in cell order — worker count, arrival order, duplicate
//! completions and crash/resume cannot change a byte of the output.
//!
//! One JSON pass per document: each cell's [`JobSpec`] is encoded once,
//! into the submission body, and its cache key is the FNV-1a hash of
//! that body (which is what [`JobSpec::cache_key`] computes); each reply
//! is decoded once, as it arrives; results stay typed until the fold.
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
use ahn_core::{ExperimentResult, GridCells, SweepGrid, SweepReport};
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

/// One cell as the node sees it.
struct CellTask {
    /// The cell's `JobSpec::Experiment`, encoded once.
    body: String,
    /// `fnv1a64(body)`: the cell's `JobSpec::cache_key`.
    key: u64,
}

/// Encodes every cell as its submission.
fn cell_tasks(cells: &GridCells) -> Result<Vec<CellTask>, String> {
    (cells.cells().iter())
        .map(|(config, case)| {
            let spec = JobSpec::Experiment {
                config: config.clone(),
                cases: vec![case.clone()],
            };
            let body =
                serde_json::to_string(&spec).map_err(|e| format!("cannot serialize cell: {e}"))?;
            Ok(CellTask {
                key: fnv1a64(body.as_bytes()),
                body,
            })
        })
        .collect()
}

/// Runs every cell through the serve node behind `transport` and
/// returns one result per cell, in cell order: journal replay → submit
/// the missing cells → poll → journal append. `journal_path` enables
/// checkpoint/resume. With `trace`, the coordinator emits a `submit`
/// event per cell submission and a `merge` event per checkpoint, so its
/// view joins with the server's and the workers' via the shared
/// key-derived trace id; tracing never touches the results.
///
/// # Errors
/// Names the cell or job: a transport failure, a rejected submission, a
/// queue that stays full, a failed job, a job that does not finish in
/// time, an unusable reply, or a journal that cannot be read or written.
pub fn run_cells_via(
    transport: &mut dyn Transport,
    cells: &GridCells,
    journal_path: Option<&Path>,
    poll_ms: u64,
    trace: Option<&TraceLog>,
) -> Result<Vec<ExperimentResult>, String> {
    let tasks = cell_tasks(cells)?;
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

    // Submit every cell not already checkpointed, each distinct key
    // once.
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
            let in_cell = |e: String| format!("cell {:?}: {e}", cells.specs()[index]);
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

    // One result per cell, in cell order: a key several cells share is
    // cloned for all but its last cell.
    let last: HashMap<u64, usize> = (tasks.iter().enumerate())
        .map(|(index, task)| (task.key, index))
        .collect();
    (tasks.iter().enumerate())
        .map(|(index, task)| {
            let result = if last[&task.key] == index {
                done.remove(&task.key)
            } else {
                done.get(&task.key).cloned()
            };
            result.ok_or_else(|| format!("cell {:?} has no result", cells.specs()[index]))
        })
        .collect()
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

/// Runs `grid` through the serve node behind `transport`
/// ([`run_cells_via`]) into a [`SweepReport`] bit-identical to
/// [`ahn_core::run_sweep`]. `journal_path` enables checkpoint/resume.
pub fn run_sweep_via(
    transport: &mut dyn Transport,
    grid: &SweepGrid,
    journal_path: Option<&Path>,
    poll_ms: u64,
) -> Result<SweepReport, String> {
    ahn_core::run_sweep_with(grid, |cells| {
        run_cells_via(transport, cells, journal_path, poll_ms, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_task_key_is_its_spec_cache_key() {
        let grid = ahn_core::CalibrationGrid::smoke();
        let (_, cells) = grid.cells().unwrap();
        let tasks = cell_tasks(&cells).unwrap();
        assert_eq!(tasks.len(), grid.cell_count());
        for (task, (config, case)) in tasks.iter().zip(cells.cells()) {
            let spec: JobSpec = serde_json::from_str(&task.body).unwrap();
            assert_eq!(
                spec,
                JobSpec::Experiment {
                    config: config.clone(),
                    cases: vec![case.clone()],
                }
            );
            assert_eq!(task.key, spec.cache_key().unwrap());
        }
    }
}
