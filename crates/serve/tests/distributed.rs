//! Fault-injection tests for the distributed sweep layer: real servers
//! on ephemeral ports, real pull workers on threads, seeded
//! [`FlakyTransport`] failures — and one invariant throughout: the
//! merged report is byte-identical to a single-process run no matter
//! how many workers ran, which crashed, or what got delivered twice.

use ahn_serve::jobs::run_job;
use ahn_serve::loadtest::one_shot;
use ahn_serve::protocol::{JobReply, WorkCompletion, WorkGrant};
use ahn_serve::server::{spawn, ServerConfig, ServerHandle};
use ahn_serve::{
    run_cells_via, run_sweep_via, run_worker_observed, BackoffPolicy, CircuitBreaker, FaultPlan,
    FlakyTransport, HttpTransport, Transport, WorkerConfig, WorkerReport,
};
use serde_json::Value;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Boots a server; `workers: 0` makes it pull-only (all compute happens
/// in `ahn-exp worker`-style pull loops).
fn boot(workers: usize, journal: Option<&std::path::Path>) -> (ServerHandle, String) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_cap: 64,
        queue_cap: 64,
        journal: journal.map(|p| p.display().to_string()),
        // Short drain: several tests shut down with work still queued
        // and must not wait out the default drain budget.
        drain_ms: 250,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ahn-distributed-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A 4-cell sweep (2 cases x 2 seed blocks) small enough to run many
/// times per test but exercising distinct per-cell seeds.
fn small_grid() -> ahn_core::SweepGrid {
    let mut base = ahn_core::ExperimentConfig::smoke();
    base.generations = 3;
    base.replications = 1;
    ahn_core::SweepGrid {
        base,
        scenarios: None,
        cases: vec![1, 3],
        payoffs: vec!["paper".into()],
        sizes: vec![10],
        seed_blocks: vec![0, 1],
    }
}

/// Starts a pull worker on a thread with the given fault schedule.
/// Returns the worker's report and how many faults were injected.
fn start_worker(
    addr: &str,
    plan: FaultPlan,
    lease_ms: u64,
) -> JoinHandle<(Result<WorkerReport, String>, u64)> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut transport = FlakyTransport::new(HttpTransport::new(&addr), plan);
        let config = WorkerConfig {
            lease_ms,
            poll_ms: 5,
            max_cells: 0,
            // Generous idle tolerance (~2s): the worker must outlive
            // submission gaps and lease-expiry waits mid-test.
            idle_exit_polls: 400,
            max_consecutive_errors: 200,
            // Fast backoff so injected faults cost milliseconds, not
            // the production-scale default delays.
            backoff: BackoffPolicy {
                base_ms: 1,
                cap_ms: 8,
                seed: 3,
            },
        };
        let outcome = run_worker_observed(&mut transport, &config, None).map(|(report, _)| report);
        (outcome, transport.injected())
    })
}

/// Starts a pull worker behind the full resilience stack — circuit
/// breaker over seeded chaos over HTTP, the `ahn-exp worker --chaos-*`
/// configuration in-process. Fast backoff keeps retries test-friendly;
/// zero cooldown makes every post-trip call a half-open probe, so the
/// breaker exercises its state machine without fail-fast nondeterminism.
/// Returns `(report, injected faults, breaker trips)`.
fn start_hardened_worker(
    addr: &str,
    plan: FaultPlan,
    lease_ms: u64,
) -> JoinHandle<(Result<WorkerReport, String>, u64, u64)> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut transport = CircuitBreaker::new(
            FlakyTransport::new(HttpTransport::new(&addr), plan),
            2,
            Duration::ZERO,
        );
        let config = WorkerConfig {
            lease_ms,
            poll_ms: 5,
            max_cells: 0,
            idle_exit_polls: 400,
            max_consecutive_errors: 500,
            backoff: BackoffPolicy {
                base_ms: 1,
                cap_ms: 8,
                seed: 7,
            },
        };
        let outcome = run_worker_observed(&mut transport, &config, None).map(|(report, _)| report);
        (outcome, transport.inner().injected(), transport.opens())
    })
}

fn get(addr: &str, path: &str) -> (u16, Value) {
    let (status, body) = one_shot(addr, "GET", path, "").expect("request");
    (status, serde_json::from_str(&body).unwrap_or(Value::Null))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    one_shot(addr, "POST", path, body).expect("request")
}

fn metric_u64(addr: &str, field: &str) -> u64 {
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    match metrics[field] {
        Value::U64(n) => n,
        ref other => panic!("metric {field} should be an integer, got {other:?}"),
    }
}

#[test]
fn one_two_and_four_workers_merge_bit_identically() {
    let grid = small_grid();
    let local = ahn_core::run_sweep(&grid).expect("local sweep");
    let local_json = serde_json::to_string_pretty(&local).unwrap();

    for worker_count in [1usize, 2, 4] {
        let (handle, addr) = boot(0, None);
        let workers: Vec<_> = (0..worker_count)
            .map(|_| start_worker(&addr, FaultPlan::none(), 60_000))
            .collect();

        let mut transport = HttpTransport::new(&addr);
        let report = run_sweep_via(&mut transport, &grid, None, 2)
            .unwrap_or_else(|e| panic!("{worker_count}-worker sweep failed: {e}"));
        let distributed_json = serde_json::to_string_pretty(&report).unwrap();
        assert_eq!(
            distributed_json, local_json,
            "{worker_count} workers changed the report bytes"
        );

        for worker in workers {
            let (outcome, _) = worker.join().expect("worker thread");
            outcome.expect("healthy worker exits cleanly");
        }
        handle.shutdown();
    }
}

#[test]
fn flaky_workers_cannot_change_a_byte() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);
    // Two lossy workers: dropped requests stall claims, dropped
    // responses make the server process completions the worker never
    // sees — forcing the retry-then-duplicate path. Short leases heal
    // claims whose grant got lost in flight.
    let plans = [
        FaultPlan {
            seed: 11,
            drop_request_percent: 20,
            drop_response_percent: 20,
            ..FaultPlan::none()
        },
        FaultPlan {
            seed: 12,
            drop_request_percent: 20,
            drop_response_percent: 20,
            ..FaultPlan::none()
        },
    ];
    let workers: Vec<_> = plans
        .iter()
        .map(|plan| start_worker(&addr, *plan, 300))
        .collect();

    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2).expect("flaky distributed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "injected faults changed the report bytes"
    );

    let mut total_injected = 0;
    for worker in workers {
        let (_, injected) = worker.join().expect("worker thread");
        total_injected += injected;
    }
    // Each worker polls idle for hundreds of calls before exiting, so a
    // 40% fault schedule cannot miss every call.
    assert!(total_injected > 0, "the fault plans never fired");
    handle.shutdown();
}

#[test]
fn worker_crash_mid_cell_expires_the_lease_and_another_worker_finishes() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);

    // Queue all four cells up front so the crasher has work to claim.
    for spec in grid.cell_specs() {
        let (config, case) = grid.resolve(&spec).unwrap();
        let body = serde_json::to_string(&ahn_serve::JobSpec::Experiment {
            config,
            cases: vec![case],
        })
        .unwrap();
        let (status, response) = post(&addr, "/v1/experiments", &body);
        assert_eq!(status, 202, "{response}");
    }

    // The crasher claims a cell (call 0 succeeds), computes it, then
    // dies permanently before any completion lands — kill -9 between
    // compute and report. Its short lease is now orphaned.
    let crasher = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let plan = FaultPlan {
                die_after_calls: Some(1),
                ..FaultPlan::none()
            };
            let mut transport = FlakyTransport::new(HttpTransport::new(&addr), plan);
            let config = WorkerConfig {
                lease_ms: 150,
                poll_ms: 2,
                max_cells: 0,
                idle_exit_polls: 0,
                max_consecutive_errors: 3,
                ..WorkerConfig::default()
            };
            run_worker_observed(&mut transport, &config, None).map(|(report, _)| report)
        }
    });
    assert!(
        crasher.join().expect("crasher thread").is_err(),
        "the dead transport must kill the crasher"
    );

    // A healthy worker takes over: once the 150ms lease expires, its
    // next claim sweeps the orphan back to the queue front.
    let healthy = start_worker(&addr, FaultPlan::none(), 60_000);
    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2).expect("recovery sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "crash recovery changed the report bytes"
    );
    assert!(
        metric_u64(&addr, "lease_requeues") >= 1,
        "the orphaned lease must have been requeued"
    );
    healthy
        .join()
        .expect("healthy thread")
        .0
        .expect("clean exit");
    handle.shutdown();
}

#[test]
fn duplicate_completion_keeps_the_first_result() {
    let (handle, addr) = boot(0, None);
    let spec = ahn_serve::loadtest::smoke_spec(3);
    let body = serde_json::to_string(&spec).unwrap();
    let (status, response) = post(&addr, "/v1/experiments", &body);
    assert_eq!(status, 202, "{response}");

    // Claim the cell and compute it exactly like a worker would.
    let (status, granted) = post(&addr, "/v1/work/claim", "{\"lease_ms\":60000}");
    assert_eq!(status, 200, "{granted}");
    let grant: WorkGrant = serde_json::from_str(&granted).expect("work grant");
    assert_eq!(grant.spec.cache_key().unwrap(), grant.key);
    let result = run_job(&grant.spec).expect("compute cell");

    let completion = serde_json::to_string(&WorkCompletion {
        lease_id: grant.lease_id,
        job_id: grant.job_id,
        key: grant.key,
        result: Some(result.clone()),
        error: None,
        trace_id: grant.trace_id,
        compute_us: 0,
    })
    .unwrap();

    // First delivery wins; the byte-identical replay is a duplicate.
    let (status, first) = post(&addr, "/v1/work/complete", &completion);
    assert_eq!((status, first.as_str()), (200, "{\"status\":\"recorded\"}"));
    let (status, second) = post(&addr, "/v1/work/complete", &completion);
    assert_eq!(
        (status, second.as_str()),
        (200, "{\"status\":\"duplicate\"}")
    );
    assert_eq!(metric_u64(&addr, "work_duplicate"), 1);
    assert_eq!(metric_u64(&addr, "cells_completed_external"), 1);

    // The job's recorded result is the first delivery, bit for bit.
    let (status, job) = get(&addr, &format!("/v1/jobs/{}", grant.job_id));
    assert_eq!(status, 200);
    assert_eq!(job["status"], Value::String("done".into()));
    assert_eq!(
        serde_json::to_string(&job["result"]).unwrap(),
        result,
        "stored result must be the delivered bytes"
    );
    handle.shutdown();
}

#[test]
fn coordinator_resumes_from_journal_and_recomputes_only_missing_cells() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();
    let journal = tmp("coordinator-resume");

    // Phase 1: checkpoint half the grid (one seed block = 2 of 4 cells)
    // through a server with its own compute workers.
    let mut half = grid.clone();
    half.seed_blocks = vec![0];
    {
        let (handle, addr) = boot(1, None);
        let mut transport = HttpTransport::new(&addr);
        run_sweep_via(&mut transport, &half, Some(&journal), 2).expect("half sweep");
        handle.shutdown();
    }

    // Phase 2: a fresh server (empty cache) finishes the full grid.
    // Only the two cells missing from the journal may run as jobs.
    let (handle, addr) = boot(1, None);
    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, Some(&journal), 2).expect("resumed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "journal resume changed the report bytes"
    );
    assert_eq!(
        metric_u64(&addr, "jobs_completed"),
        2,
        "checkpointed cells must not be recomputed"
    );
    handle.shutdown();

    // Phase 3: crash the coordinator mid-run against a fresh journal,
    // then resume. Any partial checkpoint state must converge to the
    // same bytes.
    let crash_journal = tmp("coordinator-crash");
    let (handle, addr) = boot(1, None);
    let plan = FaultPlan {
        die_after_calls: Some(6),
        ..FaultPlan::none()
    };
    let mut flaky = FlakyTransport::new(HttpTransport::new(&addr), plan);
    let crashed = run_sweep_via(&mut flaky, &grid, Some(&crash_journal), 2);
    assert!(crashed.is_err(), "the dead transport must fail the run");

    let mut transport = HttpTransport::new(&addr);
    let report =
        run_sweep_via(&mut transport, &grid, Some(&crash_journal), 2).expect("crash resume");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "crash/resume changed the report bytes"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&crash_journal);
}

#[test]
fn distributed_calibration_matches_local_including_pareto_front() {
    let grid = ahn_core::CalibrationGrid::smoke();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_calibration(&grid).expect("local calibration"))
            .unwrap();
    let journal = tmp("calibration");

    let (handle, addr) = boot(0, None);
    let workers: Vec<_> = (0..2)
        .map(|_| start_worker(&addr, FaultPlan::none(), 60_000))
        .collect();
    let mut transport = HttpTransport::new(&addr);
    let report = ahn_core::run_calibration_with(&grid, |cells| {
        run_cells_via(&mut transport, cells, Some(&journal), 2, None)
    })
    .expect("distributed calibration");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "distributed calibration changed the report bytes"
    );
    for worker in workers {
        worker.join().expect("worker thread").0.expect("clean exit");
    }
    handle.shutdown();

    // Resume from the journal alone: a pull-only server with *no*
    // workers anywhere can still produce the full report.
    let (handle, addr) = boot(0, None);
    let mut transport = HttpTransport::new(&addr);
    let resumed = ahn_core::run_calibration_with(&grid, |cells| {
        run_cells_via(&mut transport, cells, Some(&journal), 2, None)
    })
    .expect("journal-only calibration");
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        local_json,
        "journal-only resume changed the report bytes"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn repeated_axis_values_give_the_local_bytes_through_a_node() {
    let sweep = |cases: &[usize], sizes: &[usize]| ahn_core::SweepGrid {
        cases: cases.to_vec(),
        sizes: sizes.to_vec(),
        seed_blocks: vec![0],
        ..small_grid()
    };
    let mut calibration = ahn_core::CalibrationGrid::smoke();
    calibration.cases = vec![1, 1];
    calibration.base.replications = 1;

    let (handle, addr) = boot(0, None);
    let worker = start_worker(&addr, FaultPlan::none(), 60_000);
    let mut transport = HttpTransport::new(&addr);
    for grid in [sweep(&[1, 1], &[10]), sweep(&[2], &[10, 10])] {
        let local = ahn_core::run_sweep(&grid).expect("local sweep");
        let via = run_sweep_via(&mut transport, &grid, None, 2)
            .unwrap_or_else(|e| panic!("{:?} x {:?}: {e}", grid.cases, grid.sizes));
        assert_eq!(local.cells.len(), 2);
        assert_eq!(
            serde_json::to_string_pretty(&via).unwrap(),
            serde_json::to_string_pretty(&local).unwrap()
        );
    }
    let local = ahn_core::run_calibration(&calibration).expect("local calibration");
    let via = ahn_core::run_calibration_with(&calibration, |cells| {
        run_cells_via(&mut transport, cells, None, 2, None)
    })
    .expect("calibration through the node");
    assert_eq!(
        serde_json::to_string_pretty(&via).unwrap(),
        serde_json::to_string_pretty(&local).unwrap()
    );
    // Each distinct cell was computed once: one per sweep, one per
    // calibration candidate.
    assert_eq!(metric_u64(&addr, "cells_completed_external"), 1 + 1 + 2);
    worker.join().expect("worker thread").0.expect("clean exit");
    handle.shutdown();
}

#[test]
fn churn_under_latency_stalls_partial_writes_and_breakers_cannot_change_a_byte() {
    let grid = small_grid();
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();

    let (handle, addr) = boot(0, None);
    // Two workers behind breaker-over-chaos transports: dropped calls
    // trip retries, stalls burn their transport deadline budget, partial
    // writes feed the server malformed JSON, and two consecutive
    // failures trip the breaker. Short leases heal every lost grant.
    let plans = [
        FaultPlan {
            seed: 21,
            drop_request_percent: 10,
            drop_response_percent: 10,
            latency_percent: 15,
            latency_ms: 5,
            stall_percent: 10,
            stall_ms: 10,
            partial_write_percent: 10,
            die_after_calls: None,
        },
        FaultPlan {
            seed: 22,
            drop_request_percent: 10,
            drop_response_percent: 10,
            latency_percent: 15,
            latency_ms: 5,
            stall_percent: 10,
            stall_ms: 10,
            partial_write_percent: 10,
            die_after_calls: None,
        },
    ];
    let workers: Vec<_> = plans
        .iter()
        .map(|plan| start_hardened_worker(&addr, *plan, 300))
        .collect();

    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, None, 2).expect("churned sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "timeouts, breakers, and chaos changed the report bytes"
    );

    let (mut total_injected, mut total_opens) = (0, 0);
    for worker in workers {
        let (_, injected, opens) = worker.join().expect("worker thread");
        total_injected += injected;
        total_opens += opens;
    }
    assert!(total_injected > 0, "the fault plans never fired");
    // ~45% of calls fail, so two consecutive failures (a trip) are
    // certain across hundreds of deterministic per-worker schedules.
    assert!(total_opens > 0, "the breakers never tripped");
    // Workers report trip deltas on their (many) trailing idle claims,
    // so the server-side fold must have seen at least one.
    assert!(
        metric_u64(&addr, "breaker_open_total") > 0,
        "claim-reported trips must fold into breaker_open_total"
    );
    // All four cells were computed externally; the local-compute gauge
    // stays honest at zero on a pull-only node.
    assert_eq!(metric_u64(&addr, "cells_completed_external"), 4);
    assert_eq!(metric_u64(&addr, "games_simulated"), 0);
    handle.shutdown();
}

#[test]
fn claim_reported_breaker_trips_fold_into_the_metric() {
    let (handle, addr) = boot(0, None);
    let (status, body) = post(
        &addr,
        "/v1/work/claim",
        "{\"lease_ms\":1000,\"breaker_trips\":3}",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(metric_u64(&addr, "breaker_open_total"), 3);
    // The field is optional: plain claims add nothing.
    let (status, _) = post(&addr, "/v1/work/claim", "{\"lease_ms\":1000}");
    assert_eq!(status, 200);
    assert_eq!(metric_u64(&addr, "breaker_open_total"), 3);
    handle.shutdown();
}

#[test]
fn drain_mid_sweep_then_restart_resumes_byte_identically_from_a_torn_journal() {
    let mut grid = small_grid();
    grid.seed_blocks = vec![0, 1, 2, 3]; // 8 cells: enough to drain mid-run
    let cells = grid.cell_specs().len() as u64;
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();
    let journal = tmp("drain-midrun");

    // Phase 1: a pull-only server, one worker slowed by injected
    // latency, and a checkpointing coordinator on a thread. Once the
    // journal holds at least one completion, drain the server out from
    // under both of them.
    let (handle, addr) = boot(0, None);
    let slow = FaultPlan {
        seed: 5,
        latency_percent: 100,
        latency_ms: 30,
        ..FaultPlan::none()
    };
    let worker = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut transport = FlakyTransport::new(HttpTransport::new(&addr), slow);
            // Low error tolerance + fast backoff: once the server is
            // gone this worker gives up in well under a second.
            let config = WorkerConfig {
                lease_ms: 60_000,
                poll_ms: 2,
                max_cells: 0,
                idle_exit_polls: 400,
                max_consecutive_errors: 10,
                backoff: BackoffPolicy {
                    base_ms: 1,
                    cap_ms: 5,
                    seed: 3,
                },
            };
            run_worker_observed(&mut transport, &config, None).map(|(report, _)| report)
        }
    });
    let coordinator = std::thread::spawn({
        let addr = addr.clone();
        let grid = grid.clone();
        let journal = journal.clone();
        move || {
            let mut transport = HttpTransport::new(&addr);
            run_sweep_via(&mut transport, &grid, Some(&journal), 2)
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let checkpointed = ahn_serve::journal::replay(&journal)
            .map(|r| r.records.len())
            .unwrap_or(0);
        if checkpointed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no cell was ever checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = post(&addr, "/v1/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    assert!(
        coordinator.join().expect("coordinator thread").is_err(),
        "the drained server must fail the mid-run coordinator"
    );
    let _ = worker.join().expect("worker thread");

    // Phase 1.5: tear the journal's trailing record, as a crash mid-append
    // would. Replay discards exactly the torn tail and keeps the rest.
    let bytes = std::fs::read(&journal).expect("journal exists");
    assert!(!bytes.is_empty());
    std::fs::write(&journal, &bytes[..bytes.len() - 3]).expect("tear the tail");
    let replayed = ahn_serve::journal::replay(&journal).expect("replay torn journal");
    assert_eq!(replayed.discarded, 1, "exactly the torn record is dropped");
    let salvaged = replayed.records.len() as u64;
    assert!(salvaged < cells);

    // Phase 2: a fresh server and a healthy worker resume from the torn
    // journal — byte-identical, recomputing only the missing cells.
    let (handle, addr) = boot(0, None);
    let healthy = start_worker(&addr, FaultPlan::none(), 60_000);
    let mut transport = HttpTransport::new(&addr);
    let report = run_sweep_via(&mut transport, &grid, Some(&journal), 2).expect("resumed sweep");
    assert_eq!(
        serde_json::to_string_pretty(&report).unwrap(),
        local_json,
        "drain/tear/resume changed the report bytes"
    );
    assert_eq!(
        metric_u64(&addr, "cells_completed_external"),
        cells - salvaged,
        "checkpointed cells must not be recomputed (and none double-counted)"
    );
    healthy
        .join()
        .expect("healthy thread")
        .0
        .expect("clean exit");
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn server_journal_replays_onto_a_fresh_store_identically() {
    let journal = tmp("server-journal");
    let spec = ahn_serve::loadtest::smoke_spec(9);
    let body = serde_json::to_string(&spec).unwrap();
    let key = spec.cache_key().unwrap();

    // Server A computes the job and records it in its on-disk store.
    let first_result = {
        let (handle, addr) = boot(1, Some(&journal));
        let (status, response) = post(&addr, "/v1/experiments", &body);
        assert_eq!(status, 202, "{response}");
        let ack: Value = serde_json::from_str(&response).unwrap();
        let Value::U64(job_id) = ack["job_id"] else {
            panic!("no job id in {response}");
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let result = loop {
            let (status, job) = get(&addr, &format!("/v1/jobs/{job_id}"));
            assert_eq!(status, 200);
            match &job["status"] {
                Value::String(s) if s == "done" => {
                    break serde_json::to_string(&job["result"]).unwrap()
                }
                Value::String(s) if s == "failed" => panic!("job failed: {job:?}"),
                _ => {
                    assert!(Instant::now() < deadline, "job timed out");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        handle.shutdown();
        result
    };

    // The journal on disk holds exactly that completion, checksummed.
    let replayed = ahn_serve::journal::replay(&journal).expect("replay journal");
    assert_eq!(replayed.discarded, 0);
    assert_eq!(replayed.records.len(), 1);
    assert_eq!(replayed.records[0].key, key);
    assert_eq!(replayed.records[0].result, first_result);

    // Server B (same journal, zero compute anywhere) answers the same
    // submission inline from the replayed cache — byte-identical.
    let (handle, addr) = boot(0, Some(&journal));
    let (status, response) = post(&addr, "/v1/experiments", &body);
    assert_eq!(
        status, 200,
        "replayed journal must warm the cache: {response}"
    );
    let hit: Value = serde_json::from_str(&response).unwrap();
    assert_eq!(hit["cached"], Value::Bool(true));
    assert_eq!(
        serde_json::to_string(&hit["result"]).unwrap(),
        first_result,
        "replayed result must be bit-identical"
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&journal);
}

/// Completes a leased cell with `result` or `error`, as a worker would.
fn complete(addr: &str, grant: &WorkGrant, result: Option<String>, error: Option<String>) {
    let completion = serde_json::to_string(&WorkCompletion {
        lease_id: grant.lease_id,
        job_id: grant.job_id,
        key: grant.key,
        result,
        error,
        trace_id: grant.trace_id,
        compute_us: 0,
    })
    .unwrap();
    let (status, reply) = post(addr, "/v1/work/complete", &completion);
    assert_eq!((status, reply.as_str()), (200, "{\"status\":\"recorded\"}"));
}

#[test]
fn every_job_reply_the_server_writes_decodes_through_one_type() {
    let (handle, addr) = boot(0, None);
    let decode = |text: &str| -> JobReply {
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{e}: {text}"))
    };
    let spec = ahn_serve::loadtest::smoke_spec(11);
    let body = serde_json::to_string(&spec).unwrap();

    // 202: a queued job to poll.
    let (status, ack) = post(&addr, "/v1/experiments", &body);
    assert_eq!(status, 202, "{ack}");
    let ack = decode(&ack);
    let job_id = ack.job_id.expect("an ack names its job");
    assert_eq!(
        (ack.status.as_str(), &ack.result, &ack.error),
        ("queued", &None, &None)
    );
    let poll = |id: u64| {
        let (status, text) = one_shot(&addr, "GET", &format!("/v1/jobs/{id}"), "").unwrap();
        assert_eq!(status, 200, "{text}");
        decode(&text)
    };
    assert_eq!(poll(job_id).status, "queued");

    // Running while leased, done once completed.
    let (_, granted) = post(&addr, "/v1/work/claim", "{\"lease_ms\":60000}");
    let grant: WorkGrant = serde_json::from_str(&granted).expect("work grant");
    assert_eq!(grant.job_id, job_id);
    let running = poll(job_id);
    assert_eq!(
        (running.job_id, running.status.as_str()),
        (Some(job_id), "running")
    );
    let result = run_job(&grant.spec).expect("compute cell");
    complete(&addr, &grant, Some(result.clone()), None);
    let done = poll(job_id);
    assert_eq!(done.status, "done");
    let results = done.result.expect("a done reply carries its result");
    assert_eq!(serde_json::to_string(&results).unwrap(), result);

    // 200: the cache hit carries the same result inline, with no job.
    let (status, hit) = post(&addr, "/v1/experiments", &body);
    assert_eq!(status, 200, "{hit}");
    let hit = decode(&hit);
    assert_eq!((hit.job_id, hit.status.as_str()), (None, "done"));
    assert_eq!(hit.result, Some(results));

    // Failed: the error text, and no result.
    let other = serde_json::to_string(&ahn_serve::loadtest::smoke_spec(12)).unwrap();
    assert_eq!(post(&addr, "/v1/experiments", &other).0, 202);
    let (_, granted) = post(&addr, "/v1/work/claim", "{\"lease_ms\":60000}");
    let grant: WorkGrant = serde_json::from_str(&granted).expect("work grant");
    complete(&addr, &grant, None, Some("boom".into()));
    let failed = poll(grant.job_id);
    assert_eq!(failed.status, "failed");
    assert_eq!(
        (failed.result, failed.error.as_deref()),
        (None, Some("boom"))
    );
    handle.shutdown();

    // The done shape the server writes when a job holds no result.
    let empty = decode("{\"job_id\":5,\"status\":\"done\",\"result\":null}");
    assert_eq!((empty.job_id, empty.result), (Some(5), None));
}

#[test]
fn a_poll_after_a_lease_expires_reads_queued() {
    // The poll runs the lease sweep itself, so a cell whose worker died
    // reads queued again without waiting for another claim.
    let (handle, addr) = boot(0, None);
    let body = serde_json::to_string(&ahn_serve::loadtest::smoke_spec(13)).unwrap();
    assert_eq!(post(&addr, "/v1/experiments", &body).0, 202);
    let (_, granted) = post(&addr, "/v1/work/claim", "{\"lease_ms\":1}");
    let grant: WorkGrant = serde_json::from_str(&granted).expect("work grant");
    std::thread::sleep(Duration::from_millis(20));
    let (status, poll) = get(&addr, &format!("/v1/jobs/{}", grant.job_id));
    assert_eq!(
        (status, &poll["status"]),
        (200, &Value::String("queued".into()))
    );
    handle.shutdown();
}

#[test]
fn a_cell_that_outlives_its_lease_is_delivered_before_the_next_claim() {
    // One cell that fills the worker's threads, under a 1 ms lease: it
    // finishes long after the lease expired. Delivered first, it is
    // recorded; claimed past, the claim's sweep would grant it straight
    // back and the worker would compute it twice. Its settle sweeps
    // nothing, so the expired lease is never requeued either.
    let (handle, addr) = boot(0, None);
    let mut spec = ahn_serve::loadtest::smoke_spec(14);
    if let ahn_serve::JobSpec::Experiment { config, .. } = &mut spec {
        config.replications = ahn_core::threads::effective();
    }
    let body = serde_json::to_string(&spec).unwrap();
    assert_eq!(post(&addr, "/v1/experiments", &body).0, 202);
    let config = WorkerConfig {
        lease_ms: 1,
        poll_ms: 1,
        idle_exit_polls: 1,
        ..WorkerConfig::default()
    };
    let (report, telemetry) =
        run_worker_observed(&mut HttpTransport::new(&addr), &config, None).expect("clean exit");
    assert!(
        telemetry.compute_us.max >= 1_000,
        "the cell outlived its lease"
    );
    assert_eq!((report.completed, report.duplicates), (1, 0));
    assert_eq!(metric_u64(&addr, "work_claims"), 1, "one grant");
    assert_eq!(metric_u64(&addr, "lease_requeues"), 0);
    handle.shutdown();
}

/// Once the queue is idle, every submission is a hit, a coalesce or a
/// miss, and every miss the queue took settled exactly once — on a node
/// where the pool and a pull worker on a 1 ms lease drain one queue of
/// two slots, and every cell is submitted several times.
#[test]
fn job_counters_add_up_once_the_queue_is_idle() {
    let grid = small_grid();
    let local = ahn_core::run_sweep(&grid).expect("local sweep");
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 2,
        drain_ms: 250,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let worker = start_worker(&addr, FaultPlan::none(), 1);
    // Two direct submissions of the whole grid: the second coalesces
    // onto (or hits) what the first queued, and a full queue rejects.
    let body = serde_json::to_string(&grid).unwrap();
    for _ in 0..2 {
        assert_eq!(post(&addr, "/v1/sweeps", &body).0, 200);
    }
    let mut transport = HttpTransport::new(&addr);
    for pass in ["cold", "warm"] {
        let report = run_sweep_via(&mut transport, &grid, None, 2).expect(pass);
        assert_eq!(report, local, "{pass} pass");
    }
    let (outcome, _) = worker.join().expect("worker thread");
    outcome.expect("clean exit");

    let (status, m) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let count = |field: &str| match m[field] {
        Value::U64(n) => n,
        ref other => panic!("metric {field} should be an integer, got {other:?}"),
    };
    assert_eq!(
        count("submissions"),
        count("cache_hits") + count("coalesced") + count("cache_misses"),
        "{m:?}"
    );
    assert_eq!(
        count("jobs_completed") + count("jobs_failed"),
        count("cache_misses") - count("rejected_queue_full"),
        "{m:?}"
    );
    assert!(count("cache_hits") >= 4, "the warm pass hits every cell");
    handle.shutdown();
}

/// A transport that answers from a script, one reply per request, and
/// records the requests it saw.
struct Scripted {
    replies: std::collections::VecDeque<(u16, String)>,
    seen: Vec<String>,
}

impl Scripted {
    fn new(replies: &[(u16, &str)]) -> Scripted {
        Scripted {
            replies: replies.iter().map(|(s, r)| (*s, r.to_string())).collect(),
            seen: Vec::new(),
        }
    }
}

impl Transport for Scripted {
    fn request(&mut self, method: &str, path: &str, _body: &str) -> Result<(u16, String), String> {
        self.seen.push(format!("{method} {path}"));
        self.replies
            .pop_front()
            .ok_or_else(|| "script exhausted".to_string())
    }
}

#[test]
fn bad_replies_fail_the_run_naming_the_job() {
    let mut grid = small_grid();
    grid.cases = vec![1];
    grid.seed_blocks = vec![0];
    let ack = (202, "{\"job_id\":7,\"status\":\"queued\",\"cached\":false}");
    let polls: [((u16, &str), &str); 6] = [
        (
            (
                200,
                "{\"job_id\":7,\"status\":\"failed\",\"error\":\"job panicked: boom\"}",
            ),
            "cell job 7 failed: \"job panicked: boom\"",
        ),
        (
            (200, "{\"job_id\":7,\"status\":\"done\",\"result\":null}"),
            "job 7: done without a result",
        ),
        (
            (200, "{\"job_id\":7,\"status\":\"done\"}"),
            "job 7: done without a result",
        ),
        (
            (200, "{\"job_id\":7,\"status\":\"done\",\"result\":[]}"),
            "job 7: 0 results, expected 1",
        ),
        (
            (200, "<html>not json</html>"),
            "job 7: cannot parse the reply",
        ),
        (
            (500, "{\"error\":\"internal\"}"),
            "job 7 poll rejected: 500",
        ),
    ];
    for (poll, expected) in polls {
        let mut transport =
            Scripted::new(&[ack, (200, "{\"job_id\":7,\"status\":\"running\"}"), poll]);
        let err = run_sweep_via(&mut transport, &grid, None, 1).expect_err(expected);
        assert!(
            err.contains(expected),
            "{err:?} should contain {expected:?}"
        );
        assert_eq!(
            transport.seen,
            ["POST /v1/experiments", "GET /v1/jobs/7", "GET /v1/jobs/7"]
        );
    }

    // Submission replies that cannot be used name the cell instead.
    let cell = format!("cell {:?}", grid.cell_specs()[0]);
    let unparsed = format!("{cell}: cannot parse the reply");
    let resultless = format!("{cell}: done without a result");
    let submits: [((u16, &str), &str); 4] = [
        ((200, "not json"), &unparsed),
        (
            (
                200,
                "{\"job_id\":null,\"status\":\"done\",\"cached\":true,\"result\":null}",
            ),
            &resultless,
        ),
        (
            (202, "{\"status\":\"queued\"}"),
            "submit ack without job_id",
        ),
        (
            (400, "{\"error\":\"bad\"}"),
            "cell submission rejected: 400",
        ),
    ];
    for (submit, expected) in submits {
        let mut transport = Scripted::new(&[submit]);
        let err = run_sweep_via(&mut transport, &grid, None, 1).expect_err(expected);
        assert!(
            err.contains(expected),
            "{err:?} should contain {expected:?}"
        );
    }
}

#[test]
fn a_warm_pass_is_all_cache_hits_and_byte_identical() {
    let grid = small_grid();
    let cells = grid.cell_count() as u64;
    let local_json =
        serde_json::to_string_pretty(&ahn_core::run_sweep(&grid).expect("local sweep")).unwrap();
    let (handle, addr) = boot(1, None);
    let mut transport = HttpTransport::new(&addr);
    let cold = run_sweep_via(&mut transport, &grid, None, 2).expect("cold pass");
    assert_eq!(serde_json::to_string_pretty(&cold).unwrap(), local_json);
    let (completed, hits) = (
        metric_u64(&addr, "jobs_completed"),
        metric_u64(&addr, "cache_hits"),
    );
    assert_eq!(completed, cells);

    let warm = run_sweep_via(&mut transport, &grid, None, 2).expect("warm pass");
    assert_eq!(serde_json::to_string_pretty(&warm).unwrap(), local_json);
    assert_eq!(
        metric_u64(&addr, "jobs_completed"),
        completed,
        "nothing recomputed"
    );
    assert_eq!(
        metric_u64(&addr, "cache_hits"),
        hits + cells,
        "every cell a hit"
    );
    handle.shutdown();
}

#[test]
fn journal_records_hold_the_bytes_a_worker_delivers() {
    let grid = small_grid();
    let journal = tmp("record-bytes");
    let (handle, addr) = boot(1, None);
    let mut transport = HttpTransport::new(&addr);
    // Cold, then warm against a second journal: results that arrived by
    // poll and inline from the cache are recorded alike.
    let warm_journal = tmp("record-bytes-warm");
    run_sweep_via(&mut transport, &grid, Some(&journal), 2).expect("cold pass");
    run_sweep_via(&mut transport, &grid, Some(&warm_journal), 2).expect("warm pass");
    handle.shutdown();

    for path in [&journal, &warm_journal] {
        let replayed = ahn_serve::journal::replay(path).expect("replay");
        assert_eq!(replayed.discarded, 0);
        assert_eq!(replayed.records.len(), grid.cell_count());
        for cell_spec in grid.cell_specs() {
            let (config, case) = grid.resolve(&cell_spec).unwrap();
            let key = ahn_serve::JobSpec::Experiment {
                config: config.clone(),
                cases: vec![case.clone()],
            }
            .cache_key()
            .unwrap();
            let local = ahn_core::run_cells(&[(config, case)], None, |_| String::new());
            let record = replayed
                .records
                .iter()
                .find(|r| r.key == key)
                .unwrap_or_else(|| panic!("no record for {cell_spec:?}"));
            assert_eq!(record.result, serde_json::to_string(&local).unwrap());
        }
        let _ = std::fs::remove_file(path);
    }
}

/// A one-worker node in memory, as a [`Transport`]: grants `queue` in
/// order, answers `{"status":"empty"}` once it is spent (and to the
/// claim numbered `empty_claim`, counted from 0), and records each
/// completion after checking it against `run_job` on its spec, byte for
/// byte.
///
/// It sees what the worker computes through the worker's span log: a
/// cell is *computing* from its grant until its `compute` span is
/// written. A compute thread writes that span before the loop thread
/// learns the cell finished, so at every claim the cells seen computing
/// are a subset of those the loop counts in flight.
struct ScriptedNode {
    queue: std::collections::VecDeque<ahn_serve::JobSpec>,
    empty_claim: Option<usize>,
    /// The claim, counted from 0, answered `503`.
    refused_claim: Option<usize>,
    log: PathBuf,
    /// Granted and undelivered: job id → (trace id, replication items).
    held: std::collections::HashMap<u64, (u64, usize)>,
    specs: std::collections::HashMap<u64, ahn_serve::JobSpec>,
    claims: usize,
    granted: usize,
    delivered: Vec<u64>,
    /// Most cells held at once.
    most_held: usize,
    /// Most replication items computing once a grant lands.
    most_computing: usize,
    /// Claims made while a cell computed.
    claims_while_computing: usize,
}

impl ScriptedNode {
    fn new(queue: Vec<ahn_serve::JobSpec>, log: PathBuf) -> ScriptedNode {
        ScriptedNode {
            queue: queue.into(),
            empty_claim: None,
            refused_claim: None,
            log,
            held: Default::default(),
            specs: Default::default(),
            claims: 0,
            granted: 0,
            delivered: Vec::new(),
            most_held: 0,
            most_computing: 0,
            claims_while_computing: 0,
        }
    }

    /// Replication items of the held cells without a `compute` span.
    fn computing(&self) -> usize {
        let computed: std::collections::HashSet<u64> = ahn_obs::read_trace(&self.log)
            .expect("read the worker's span log")
            .events
            .into_iter()
            .filter(|event| event.span == "compute")
            .map(|event| event.trace_id)
            .collect();
        (self.held.values())
            .filter(|(trace_id, _)| !computed.contains(trace_id))
            .map(|&(_, items)| items)
            .sum()
    }
}

impl Transport for ScriptedNode {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        match (method, path) {
            ("POST", "/v1/work/claim") => {
                let claim = self.claims;
                self.claims += 1;
                let computing = self.computing();
                if computing > 0 {
                    self.claims_while_computing += 1;
                }
                if self.empty_claim == Some(claim) {
                    return Ok((200, "{\"status\":\"empty\"}".into()));
                }
                if self.refused_claim == Some(claim) {
                    return Ok((503, "{\"error\":\"refused\"}".into()));
                }
                let Some(spec) = self.queue.pop_front() else {
                    return Ok((200, "{\"status\":\"empty\"}".into()));
                };
                let items = match &spec {
                    ahn_serve::JobSpec::Experiment { config, cases } => {
                        config.replications * cases.len()
                    }
                    _ => 1,
                };
                self.granted += 1;
                let job_id = self.granted as u64;
                let key = spec.cache_key().unwrap();
                let trace_id = ahn_obs::trace_id_of_key(key);
                self.held.insert(job_id, (trace_id, items));
                self.most_held = self.most_held.max(self.held.len());
                self.most_computing = self.most_computing.max(computing + items);
                self.specs.insert(job_id, spec.clone());
                let grant = WorkGrant {
                    lease_id: job_id,
                    job_id,
                    key,
                    lease_ms: 60_000,
                    trace_id,
                    spec,
                };
                Ok((200, serde_json::to_string(&grant).unwrap()))
            }
            ("POST", "/v1/work/complete") => {
                let completion: WorkCompletion = serde_json::from_str(body).unwrap();
                let id = completion.job_id;
                assert!(self.held.remove(&id).is_some(), "job {id} delivered twice");
                let expected = run_job(&self.specs[&id]).expect("the cell computes");
                assert_eq!(
                    completion.result.as_deref(),
                    Some(expected.as_str()),
                    "job {id}"
                );
                self.delivered.push(id);
                Ok((200, "{\"status\":\"recorded\"}".into()))
            }
            _ => Err(format!("unexpected {method} {path}")),
        }
    }
}

/// `cells` distinct smoke cells of `replications` replications each.
fn smoke_cells(cells: u64, replications: usize) -> Vec<ahn_serve::JobSpec> {
    (0..cells)
        .map(|i| {
            let mut spec = ahn_serve::loadtest::smoke_spec(100 + i);
            if let ahn_serve::JobSpec::Experiment { config, .. } = &mut spec {
                config.generations = 1;
                config.replications = replications;
            }
            spec
        })
        .collect()
}

/// Runs one traced worker against `node` until it exits; the node
/// checks every delivery.
fn run_traced(node: &mut ScriptedNode, config: WorkerConfig) -> Result<WorkerReport, String> {
    let _ = std::fs::remove_file(&node.log);
    let trace = ahn_obs::TraceLog::open(&node.log, "worker:test").expect("open span log");
    let outcome = run_worker_observed(node, &config, Some(&trace));
    let _ = std::fs::remove_file(&node.log);
    outcome.map(|(report, _)| report)
}

/// [`run_traced`], for a worker that must exit `Ok` with every cell it
/// was granted delivered.
fn run_scripted(node: &mut ScriptedNode, config: WorkerConfig) -> WorkerReport {
    let report = run_traced(node, config).expect("worker exits Ok");
    assert!(node.held.is_empty(), "undelivered: {:?}", node.held);
    report
}

fn scripted_config(idle_exit_polls: u64, max_cells: u64) -> WorkerConfig {
    WorkerConfig {
        poll_ms: 1,
        max_cells,
        idle_exit_polls,
        ..WorkerConfig::default()
    }
}

#[test]
fn a_worker_keeps_up_to_the_thread_count_of_replications_in_flight() {
    let threads = ahn_core::threads::effective();
    let mut node = ScriptedNode::new(smoke_cells(8, 1), tmp("in-flight.trace"));
    let report = run_scripted(&mut node, scripted_config(1, 0));
    assert_eq!(report.completed, 8);
    assert_eq!(node.delivered.len(), 8);
    assert!(
        node.most_computing <= threads,
        "{} replication items computed at once on {threads} threads",
        node.most_computing
    );
    if threads > 1 {
        assert!(
            node.most_held >= 2,
            "one cell at a time on {threads} threads"
        );
    }
}

#[test]
fn a_cell_that_fills_the_thread_count_is_never_granted_alongside_another() {
    // Twelve replications, as a scaled-preset cell has. Below 24 threads
    // a second one does not fit beside it.
    let threads = ahn_core::threads::effective();
    let mut node = ScriptedNode::new(smoke_cells(3, 12), tmp("alone.trace"));
    let report = run_scripted(&mut node, scripted_config(1, 0));
    assert_eq!(report.completed, 3);
    assert!(
        node.most_computing <= threads.max(12),
        "{} replication items computed at once on {threads} threads",
        node.most_computing
    );
    if threads < 24 {
        assert_eq!(
            node.claims_while_computing, 0,
            "a claim went out while a full cell computed"
        );
        assert_eq!(node.most_computing, 12);
    }
}

#[test]
fn a_worker_that_gives_up_on_a_claim_first_delivers_the_cell_it_finished() {
    // The claim after the first cell is refused. Below 24 threads that
    // claim waits for the 12-replication cell to finish, and the worker
    // delivers the cell before it claims.
    if ahn_core::threads::effective() >= 24 {
        return;
    }
    let mut node = ScriptedNode::new(smoke_cells(2, 12), tmp("refused.trace"));
    node.refused_claim = Some(1);
    let error = run_traced(&mut node, scripted_config(1, 0)).expect_err("a refused claim ends it");
    assert!(error.contains("claim rejected: 503"), "{error}");
    assert_eq!(node.delivered, [1], "the finished cell was not delivered");
    assert_eq!(node.queue.len(), 1);
}

#[test]
fn an_empty_claim_while_cells_compute_still_delivers_every_cell() {
    let mut node = ScriptedNode::new(smoke_cells(4, 1), tmp("empty-busy.trace"));
    // With more than one thread the second claim goes out right after
    // the first grant, while that cell is in flight. With one thread it
    // would come after, and the empty answer would end the worker.
    if ahn_core::threads::effective() > 1 {
        node.empty_claim = Some(1);
    }
    let report = run_scripted(&mut node, scripted_config(1, 0));
    assert_eq!(report.completed, 4);
    assert_eq!(node.delivered.len(), 4);
}

#[test]
fn max_cells_bounds_the_grants() {
    let mut node = ScriptedNode::new(smoke_cells(6, 1), tmp("max-cells.trace"));
    // The worker stops at its third delivery, before any empty claim.
    let report = run_scripted(&mut node, scripted_config(1, 3));
    assert_eq!(report.completed, 3);
    assert_eq!((node.granted, node.delivered.len()), (3, 3));
    assert_eq!(node.queue.len(), 3, "the worker claimed past max_cells");
}
