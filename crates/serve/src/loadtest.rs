//! A std-only load generator for the job server.
//!
//! Opens `connections` keep-alive connections, drives `requests` total
//! submissions round-robin over `distinct` structurally different job
//! specs, polls every queued job to completion, and reports p50/p99
//! submit latency plus requests/s. Because the specs repeat, the run is
//! a *mixed* cache workload by construction: the first submission of
//! each distinct spec misses (and costs a real experiment), every
//! repeat hits the LRU cache.

use crate::metrics::Snapshot;
use crate::protocol::{JobSpec, SubmitAck};
use crate::worker::{HttpTransport, Transport};
use ahn_core::{cases::CaseSpec, config::ExperimentConfig};
use ahn_obs::{AtomicHistogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-test parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadtestConfig {
    /// Server address, e.g. `127.0.0.1:7172`.
    pub addr: String,
    /// Concurrent keep-alive connections (one thread each).
    pub connections: usize,
    /// Total submissions across all connections.
    pub requests: usize,
    /// Structurally distinct specs cycled over (each distinct spec costs
    /// one real experiment; the rest of its submissions are cache hits).
    pub distinct: usize,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            addr: "127.0.0.1:7172".into(),
            connections: 4,
            requests: 200,
            distinct: 4,
        }
    }
}

/// What one load-test run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadtestReport {
    /// Submissions actually attempted (a connection that dies mid-run
    /// stops attempting, so this can be below the configured total).
    pub requests: u64,
    /// Submissions answered inline from the cache.
    pub cache_hits: u64,
    /// Submissions that became jobs and were polled to completion.
    pub jobs_completed: u64,
    /// Submissions bounced with 503 (queue full).
    pub rejected: u64,
    /// Transport or protocol errors.
    pub errors: u64,
    /// Median submit latency, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile submit latency, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile submit latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed submit latency, milliseconds (exact, not a bucket
    /// bound).
    pub max_ms: f64,
    /// The full submit-latency distribution (log-linear buckets,
    /// microseconds), merged across connections.
    pub latency: HistogramSnapshot,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// `requests / wall_seconds`.
    pub requests_per_second: f64,
    /// The server's `/metrics` snapshot after the run.
    pub server_metrics: Option<Snapshot>,
}

/// The tiny-but-real experiment spec the load test submits; `index`
/// varies the base seed, making specs structurally distinct (distinct
/// cache keys) while keeping every job sub-millisecond-scale.
pub fn smoke_spec(index: u64) -> JobSpec {
    let mut config = ExperimentConfig::smoke();
    config.population = 10;
    config.rounds = 30;
    config.generations = 3;
    config.replications = 1;
    config.base_seed = 0xAD0C ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    JobSpec::Experiment {
        config,
        cases: vec![CaseSpec::mini(
            "loadtest",
            &[2],
            10,
            ahn_net::PathMode::Shorter,
        )],
    }
}

/// One synchronous request through a fresh [`HttpTransport`] (CLI
/// helper for one-shot calls like `/metrics` or `/v1/shutdown`), so it
/// opens its own connection and closes it after the reply.
pub fn one_shot(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    one_shot_deadlined(addr, method, path, body, None)
}

/// [`one_shot`] with a deadline applied to connect, send and receive
/// (each phase individually bounded by `deadline`). `None` blocks
/// indefinitely.
pub fn one_shot_deadlined(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    deadline: Option<Duration>,
) -> Result<(u16, String), String> {
    HttpTransport::with_timeout(addr, deadline).request(method, path, body)
}

struct WorkerTally {
    /// Submissions this connection actually sent (or tried to send).
    attempted: u64,
    /// Submit latencies, microseconds — a zero-allocation histogram per
    /// connection, merged after the run (merge order cannot change the
    /// totals, so the report is deterministic for a given set of
    /// latencies).
    latency: AtomicHistogram,
    cache_hits: u64,
    jobs_completed: u64,
    rejected: u64,
    errors: u64,
}

/// Runs the load test to completion.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, String> {
    if config.connections == 0 || config.requests == 0 {
        return Err("connections and requests must be positive".into());
    }
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..config.distinct.max(1) as u64)
            .map(|d| {
                serde_json::to_string(&smoke_spec(d))
                    .map_err(|e| format!("cannot serialize spec: {e}"))
            })
            .collect::<Result<_, _>>()?,
    );

    let started = Instant::now();
    let mut tallies: Vec<WorkerTally> = Vec::with_capacity(config.connections);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|worker| {
                let bodies = Arc::clone(&bodies);
                let addr = config.addr.clone();
                // Split `requests` across workers, first workers take
                // the remainder.
                let base = config.requests / config.connections;
                let extra = usize::from(worker < config.requests % config.connections);
                let count = base + extra;
                scope.spawn(move || drive_connection(&addr, &bodies, worker, count))
            })
            .collect();
        for handle in handles {
            tallies.push(handle.join().expect("loadtest worker panicked"));
        }
    });
    let wall_seconds = started.elapsed().as_secs_f64();

    let latency = AtomicHistogram::new();
    let (mut attempted, mut hits, mut completed) = (0u64, 0u64, 0u64);
    let (mut rejected, mut errors) = (0u64, 0u64);
    for t in &tallies {
        latency.merge_from(&t.latency);
        attempted += t.attempted;
        hits += t.cache_hits;
        completed += t.jobs_completed;
        rejected += t.rejected;
        errors += t.errors;
    }
    let latency = latency.snapshot();

    let server_metrics = one_shot(&config.addr, "GET", "/metrics", "")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| serde_json::from_str(&body).ok());

    Ok(LoadtestReport {
        requests: attempted,
        cache_hits: hits,
        jobs_completed: completed,
        rejected,
        errors,
        p50_ms: latency.p50 as f64 / 1000.0,
        p90_ms: latency.p90 as f64 / 1000.0,
        p99_ms: latency.p99 as f64 / 1000.0,
        max_ms: latency.max as f64 / 1000.0,
        latency,
        wall_seconds,
        requests_per_second: attempted as f64 / wall_seconds.max(1e-9),
        server_metrics,
    })
}

/// Renders a report for terminal output.
pub fn render(report: &LoadtestReport) -> String {
    let mut out = format!(
        "loadtest: {} requests in {:.3}s -> {:.0} req/s\n\
         latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n\
         cache hits {}, jobs completed {}, rejected {}, errors {}\n",
        report.requests,
        report.wall_seconds,
        report.requests_per_second,
        report.p50_ms,
        report.p90_ms,
        report.p99_ms,
        report.max_ms,
        report.cache_hits,
        report.jobs_completed,
        report.rejected,
        report.errors,
    );
    // The distribution itself: one line per occupied bucket.
    for bucket in &report.latency.buckets {
        out.push_str(&format!(
            "latency <= {:>9.3} ms : {}\n",
            bucket.le as f64 / 1000.0,
            bucket.count
        ));
    }
    if let Some(m) = &report.server_metrics {
        out.push_str(&format!(
            "server: hit rate {:.1}%, queue depth {} (peak {}), {:.0} games/s busy-side\n\
             server: {:.3}s compute across {} jobs ({:.1} ms/job mean)\n\
             server: hardening: {} timed-out requests, {} breaker trips, \
             {} external cells, drained {:.3}s\n",
            m.cache_hit_rate * 100.0,
            m.queue_depth,
            m.queue_depth_peak,
            m.games_per_second,
            m.job_seconds_total,
            m.jobs_completed + m.jobs_failed,
            m.job_seconds_mean * 1000.0,
            m.requests_timed_out,
            m.breaker_open_total,
            m.cells_completed_external,
            m.drain_seconds,
        ));
    }
    out
}

fn drive_connection(addr: &str, bodies: &[String], worker: usize, count: usize) -> WorkerTally {
    let mut tally = WorkerTally {
        attempted: 0,
        latency: AtomicHistogram::new(),
        cache_hits: 0,
        jobs_completed: 0,
        rejected: 0,
        errors: 0,
    };
    let mut conn = HttpTransport::with_timeout(addr, None);
    for i in 0..count {
        let body = &bodies[(worker + i) % bodies.len()];
        tally.attempted += 1;
        let submit_started = Instant::now();
        let Ok((status, response)) = conn.request("POST", "/v1/experiments", body) else {
            tally.errors += 1;
            break;
        };
        tally
            .latency
            .record(submit_started.elapsed().as_micros() as u64);

        match status {
            200 if response.contains("\"cached\":true") => tally.cache_hits += 1,
            202 => match job_id_of(&response) {
                Some(job_id) => {
                    if poll_to_completion(&mut conn, job_id) {
                        tally.jobs_completed += 1;
                    } else {
                        tally.errors += 1;
                    }
                }
                None => tally.errors += 1,
            },
            503 => {
                tally.rejected += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            _ => tally.errors += 1,
        }
    }
    tally
}

/// Polls `GET /v1/jobs/{id}` on the same connection until the job
/// leaves the queue; true on `done`.
fn poll_to_completion(conn: &mut HttpTransport, job_id: u64) -> bool {
    let path = format!("/v1/jobs/{job_id}");
    // 2 ms x 15 000 polls = a 30 s budget, far beyond any smoke job.
    for _ in 0..15_000 {
        let Ok((status, body)) = conn.request("GET", &path, "") else {
            return false;
        };
        if status != 200 {
            return false;
        }
        if body.contains("\"status\":\"done\"") {
            return true;
        }
        if body.contains("\"status\":\"failed\"") {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// The job id of a submit ack.
fn job_id_of(response: &str) -> Option<u64> {
    serde_json::from_str::<SubmitAck>(response)
        .ok()
        .map(|ack| ack.job_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_specs_are_distinct_and_valid() {
        let a = smoke_spec(0);
        let b = smoke_spec(1);
        a.validate().unwrap();
        b.validate().unwrap();
        assert_ne!(a.cache_key().unwrap(), b.cache_key().unwrap());
        assert_eq!(
            smoke_spec(1).cache_key().unwrap(),
            b.cache_key().unwrap(),
            "spec construction is deterministic"
        );
    }

    #[test]
    fn percentiles_come_from_the_merged_histogram() {
        // Two connections' tallies, merged the way run_loadtest does.
        let (a, b) = (AtomicHistogram::new(), AtomicHistogram::new());
        for us in (1..=50).map(|i| i * 1000) {
            a.record(us);
        }
        for us in (51..=100).map(|i| i * 1000) {
            b.record(us);
        }
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 100);
        // Log2 buckets report the bucket's upper bound: within 2x of
        // the exact percentile, and the max is exact.
        assert!(snap.p50 >= 50_000 && snap.p50 <= 100_000, "{}", snap.p50);
        assert!(snap.p99 >= 99_000 && snap.p99 <= 198_000, "{}", snap.p99);
        assert_eq!(snap.max, 100_000);
        // An empty run reports zeros, not NaNs.
        let empty = AtomicHistogram::new().snapshot();
        assert_eq!((empty.count, empty.p50, empty.max), (0, 0, 0));
    }

    #[test]
    fn job_id_extraction() {
        assert_eq!(
            job_id_of("{\"job_id\":17,\"status\":\"queued\",\"cached\":false}"),
            Some(17)
        );
        assert_eq!(job_id_of("{\"job_id\":null,\"status\":\"done\"}"), None);
        assert_eq!(job_id_of("not json"), None);
    }

    #[test]
    fn zero_connections_rejected() {
        let bad = LoadtestConfig {
            connections: 0,
            ..LoadtestConfig::default()
        };
        assert!(run_loadtest(&bad).is_err());
    }
}
