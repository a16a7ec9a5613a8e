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
//! Polling gives up only on a job that stays queued: `MAX_QUEUED_POLLS`
//! polls that find it queued fail the run, while polls that find it
//! running do not count, so a cell may compute as long as it needs.
//! Each poll first runs the node's lazy lease sweep, so a cell whose
//! worker died reads queued again once its lease expires, and a run with
//! no live worker still fails.
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

/// How many polls may find a cell's job still queued before the
/// coordinator gives up (multiplied by `poll_ms`: 150 s at the CLI's
/// 10 ms). Polls that find it running do not count, however long the
/// cell computes.
const MAX_QUEUED_POLLS: usize = 15_000;

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
/// queue that stays full, a failed job, a job that no worker takes, an
/// unusable reply, or a journal that cannot be read or written.
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
        let mut queued_polls = 0usize;
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
                "queued" => {
                    queued_polls += 1;
                    if queued_polls >= MAX_QUEUED_POLLS {
                        return Err(format!(
                            "cell job {job_id} still queued after {queued_polls} polls \
                             (no worker took it)"
                        ));
                    }
                    std::thread::sleep(pause);
                }
                // Running: a worker holds the cell, however long it computes.
                _ => std::thread::sleep(pause),
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

    /// A node holding one job: the submission is queued as job 1, and
    /// each poll answers the next of `polls`, then `done` with `result`.
    struct OneJob {
        polls: std::vec::IntoIter<&'static str>,
        result: String,
    }

    impl Transport for OneJob {
        fn request(&mut self, method: &str, path: &str, _: &str) -> Result<(u16, String), String> {
            match (method, path) {
                ("POST", "/v1/experiments") => {
                    Ok((202, "{\"job_id\":1,\"status\":\"queued\"}".into()))
                }
                ("GET", "/v1/jobs/1") => Ok((
                    200,
                    match self.polls.next() {
                        Some(status) => format!("{{\"status\":\"{status}\"}}"),
                        None => format!("{{\"status\":\"done\",\"result\":{}}}", self.result),
                    },
                )),
                _ => Err(format!("unexpected {method} {path}")),
            }
        }
    }

    /// Runs the one-cell smoke grid against a node answering `polls`.
    fn run_one(polls: Vec<&'static str>) -> (Result<Vec<ExperimentResult>, String>, String) {
        let mut base = ahn_core::ExperimentConfig::smoke();
        (base.generations, base.replications) = (1, 1);
        let grid = SweepGrid {
            base,
            scenarios: None,
            cases: vec![1],
            payoffs: vec!["paper".into()],
            sizes: vec![10],
            seed_blocks: vec![0],
        };
        let cells = grid.cells().unwrap();
        let local = ahn_core::run_cells(cells.cells(), None, |_| String::new());
        let result = serde_json::to_string(&local).unwrap();
        let mut node = OneJob {
            polls: polls.into_iter(),
            result: result.clone(),
        };
        (run_cells_via(&mut node, &cells, None, 1, None), result)
    }

    #[test]
    fn a_running_job_is_polled_past_the_queued_bound() {
        let mut polls = vec!["queued"; 2];
        polls.extend(vec!["running"; MAX_QUEUED_POLLS]);
        let (results, local) = run_one(polls);
        assert_eq!(serde_json::to_string(&results.unwrap()).unwrap(), local);
    }

    #[test]
    fn a_job_that_stays_queued_fails_the_run() {
        let (results, _) = run_one(vec!["queued"; MAX_QUEUED_POLLS]);
        let error = results.unwrap_err();
        assert!(
            error.contains("cell job 1 still queued after 15000 polls"),
            "{error}"
        );
    }

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
