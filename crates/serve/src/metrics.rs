//! Lock-free server counters and their JSON snapshot.

use ahn_obs::{AtomicHistogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic counters every connection/worker thread bumps with relaxed
/// atomics; `/metrics` renders a consistent-enough snapshot (individual
/// counters are exact, cross-counter ratios are racy by a request or
/// two, which is fine for an operational endpoint).
#[derive(Debug)]
pub struct Metrics {
    /// HTTP requests served, any route, any status.
    pub http_requests: AtomicU64,
    /// TCP connections the accept loop handed to a connection thread.
    /// With kept-alive clients it stays far below `http_requests`.
    pub connections_accepted: AtomicU64,
    /// `POST /v1/experiments` submissions accepted for processing
    /// (cache hits + queued jobs + coalesced duplicates).
    pub submissions: AtomicU64,
    /// Submissions answered straight from the result cache.
    pub cache_hits: AtomicU64,
    /// Submissions that enqueued a fresh job.
    pub cache_misses: AtomicU64,
    /// Submissions coalesced onto an already-queued identical job.
    pub coalesced: AtomicU64,
    /// Submissions rejected because the job queue was full (503s).
    pub rejected_queue_full: AtomicU64,
    /// Jobs settled with a result — once per job, by whichever worker
    /// (pool or external) finished it first.
    pub jobs_completed: AtomicU64,
    /// Jobs settled with an error, once per job.
    pub jobs_failed: AtomicU64,
    /// Ad Hoc Network Games simulated by completed jobs.
    pub games_simulated: AtomicU64,
    /// Worker wall-nanoseconds spent inside jobs (across all workers).
    pub busy_nanos: AtomicU64,
    /// Highest queue depth observed at any submission — the backlog
    /// high-water mark a capacity planner actually wants (the
    /// instantaneous `queue_depth` is usually 0 by scrape time).
    pub queue_depth_peak: AtomicU64,
    /// `POST /v1/work/claim` requests that granted a lease.
    pub work_claims: AtomicU64,
    /// `POST /v1/work/claim` requests that found the queue empty.
    pub work_claim_empty: AtomicU64,
    /// `POST /v1/work/complete` results accepted (first completion of a
    /// job).
    pub work_completed: AtomicU64,
    /// Results discarded as duplicates of an already-finished job: a
    /// `POST /v1/work/complete` replay or late delivery, or a pool
    /// thread's recompute of a requeued cell that an external worker
    /// settled first (work the node did for nothing).
    pub work_duplicate: AtomicU64,
    /// Expired leases requeued by the lazy sweep (each one is a cell a
    /// crashed or stalled worker abandoned).
    pub lease_requeues: AtomicU64,
    /// Connections evicted by a read deadline mid-request (slowloris
    /// defense). Idle keep-alive closes are clean and not counted here.
    pub requests_timed_out: AtomicU64,
    /// Circuit-breaker trips reported by claiming workers (best-effort:
    /// a trip report dropped by the transport is retried with the next
    /// claim, so the counter is at-least-once under faults).
    pub breaker_open_total: AtomicU64,
    /// Completions accepted from external workers. Kept separate so
    /// `games_simulated` stays an honest *local-compute* gauge — a
    /// pull-only node reports the cells it recorded, not games it never
    /// simulated (the PR-6 accounting gotcha).
    pub cells_completed_external: AtomicU64,
    /// Nanoseconds spent draining at shutdown, updated live while the
    /// drain loop runs (so a `/metrics` scrape during drain sees it
    /// rising).
    pub drain_nanos: AtomicU64,
    /// Request latency, submission routes (`/v1/experiments`,
    /// `/v1/sweeps`, `/v1/calibrations`), microseconds.
    pub request_submit_us: AtomicHistogram,
    /// Request latency, `/v1/jobs/*` polls, microseconds.
    pub request_jobs_us: AtomicHistogram,
    /// Request latency, `/v1/work/*` (claim/complete), microseconds.
    pub request_work_us: AtomicHistogram,
    /// Request latency, every other route, microseconds.
    pub request_other_us: AtomicHistogram,
    /// Queue wait per job: enqueue → first lease or local pop,
    /// microseconds.
    pub queue_wait_us: AtomicHistogram,
    /// Job compute time (local workers measure it directly, external
    /// workers self-report via `WorkCompletion`), microseconds.
    pub job_compute_us: AtomicHistogram,
    /// External-worker round trip: lease grant → completion accepted,
    /// microseconds. A completion whose lease the sweep already
    /// requeued is not sampled (its grant time went with the lease).
    pub claim_rtt_us: AtomicHistogram,
    /// Backoff sleep totals workers self-report with each claim,
    /// milliseconds.
    pub backoff_sleep_ms: AtomicHistogram,
    /// Server boot time, so the snapshot can report uptime without a
    /// wider `snapshot()` signature.
    boot: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            http_requests: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            submissions: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            games_simulated: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            work_claims: AtomicU64::new(0),
            work_claim_empty: AtomicU64::new(0),
            work_completed: AtomicU64::new(0),
            work_duplicate: AtomicU64::new(0),
            lease_requeues: AtomicU64::new(0),
            requests_timed_out: AtomicU64::new(0),
            breaker_open_total: AtomicU64::new(0),
            cells_completed_external: AtomicU64::new(0),
            drain_nanos: AtomicU64::new(0),
            request_submit_us: AtomicHistogram::new(),
            request_jobs_us: AtomicHistogram::new(),
            request_work_us: AtomicHistogram::new(),
            request_other_us: AtomicHistogram::new(),
            queue_wait_us: AtomicHistogram::new(),
            job_compute_us: AtomicHistogram::new(),
            claim_rtt_us: AtomicHistogram::new(),
            backoff_sleep_ms: AtomicHistogram::new(),
            boot: Instant::now(),
        }
    }
}

impl Metrics {
    /// Picks the request-latency histogram for a route. Submissions,
    /// job polls and the worker protocol get their own distributions;
    /// everything else (health, metrics, shutdown) shares one.
    pub fn request_histogram(&self, path: &str) -> &AtomicHistogram {
        if path == "/v1/experiments" || path == "/v1/sweeps" || path == "/v1/calibrations" {
            &self.request_submit_us
        } else if path.starts_with("/v1/jobs/") {
            &self.request_jobs_us
        } else if path.starts_with("/v1/work/") {
            &self.request_work_us
        } else {
            &self.request_other_us
        }
    }

    /// Adds one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark gauge to `value` if it is higher.
    pub fn raise(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Overwrites a gauge (used by the drain loop, whose elapsed time
    /// is monotone by construction).
    pub fn set(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// Builds the `/metrics` response body.
    pub fn snapshot(&self, queue_depth: usize, cached_results: usize, workers: usize) -> Snapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let hits = load(&self.cache_hits);
        let misses = load(&self.cache_misses);
        let games = load(&self.games_simulated);
        let busy = load(&self.busy_nanos);
        let completed = load(&self.jobs_completed);
        let failed = load(&self.jobs_failed);
        let job_seconds_total = busy as f64 / 1e9;
        Snapshot {
            schema: "ahn-serve-metrics/2".into(),
            http_requests: load(&self.http_requests),
            submissions: load(&self.submissions),
            cache_hits: hits,
            cache_misses: misses,
            coalesced: load(&self.coalesced),
            cache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            rejected_queue_full: load(&self.rejected_queue_full),
            jobs_completed: completed,
            jobs_failed: failed,
            queue_depth: queue_depth as u64,
            queue_depth_peak: load(&self.queue_depth_peak),
            cached_results: cached_results as u64,
            workers: workers as u64,
            games_simulated: games,
            games_per_second: if busy == 0 {
                0.0
            } else {
                games as f64 / job_seconds_total
            },
            job_seconds_total,
            job_seconds_mean: if completed + failed == 0 {
                0.0
            } else {
                job_seconds_total / (completed + failed) as f64
            },
            work_claims: load(&self.work_claims),
            work_claim_empty: load(&self.work_claim_empty),
            work_completed: load(&self.work_completed),
            work_duplicate: load(&self.work_duplicate),
            lease_requeues: load(&self.lease_requeues),
            requests_timed_out: load(&self.requests_timed_out),
            breaker_open_total: load(&self.breaker_open_total),
            cells_completed_external: load(&self.cells_completed_external),
            drain_seconds: load(&self.drain_nanos) as f64 / 1e9,
            effective_threads: Some(ahn_core::threads::effective() as u64),
            uptime_seconds: Some(self.boot.elapsed().as_secs()),
            connections_accepted: Some(load(&self.connections_accepted)),
            latency: Some(LatencySnapshot {
                request_submit_us: self.request_submit_us.snapshot(),
                request_jobs_us: self.request_jobs_us.snapshot(),
                request_work_us: self.request_work_us.snapshot(),
                request_other_us: self.request_other_us.snapshot(),
                queue_wait_us: self.queue_wait_us.snapshot(),
                job_compute_us: self.job_compute_us.snapshot(),
                claim_rtt_us: self.claim_rtt_us.snapshot(),
                backoff_sleep_ms: self.backoff_sleep_ms.snapshot(),
            }),
        }
    }
}

/// The latency-distribution block of a v2 snapshot: one
/// [`HistogramSnapshot`] per instrumented stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Request latency, submission routes, microseconds.
    pub request_submit_us: HistogramSnapshot,
    /// Request latency, `/v1/jobs/*` polls, microseconds.
    pub request_jobs_us: HistogramSnapshot,
    /// Request latency, `/v1/work/*` routes, microseconds.
    pub request_work_us: HistogramSnapshot,
    /// Request latency, every other route, microseconds.
    pub request_other_us: HistogramSnapshot,
    /// Job queue wait (enqueue → lease/pop), microseconds.
    pub queue_wait_us: HistogramSnapshot,
    /// Job compute time, microseconds.
    pub job_compute_us: HistogramSnapshot,
    /// External-worker claim→complete round trip, microseconds; a
    /// completion whose lease was already swept is not sampled.
    pub claim_rtt_us: HistogramSnapshot,
    /// Worker-reported backoff sleep totals, milliseconds.
    pub backoff_sleep_ms: HistogramSnapshot,
}

/// One rendered `/metrics` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Report schema tag (`"ahn-serve-metrics/2"`; v1 reports omit the
    /// `uptime_seconds`/`latency` fields, which therefore stay
    /// [`Option`] so old captures still deserialize).
    pub schema: String,
    /// HTTP requests served, any route.
    pub http_requests: u64,
    /// Experiment submissions accepted.
    pub submissions: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that enqueued a fresh job.
    pub cache_misses: u64,
    /// Submissions attached to an identical in-flight job.
    pub coalesced: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 before traffic.
    pub cache_hit_rate: f64,
    /// Submissions bounced with 503 because the queue was full.
    pub rejected_queue_full: u64,
    /// Jobs finished successfully.
    pub jobs_completed: u64,
    /// Jobs finished with an error.
    pub jobs_failed: u64,
    /// Jobs currently waiting for a worker.
    pub queue_depth: u64,
    /// Highest queue depth observed at any submission since boot.
    pub queue_depth_peak: u64,
    /// Results currently held by the LRU cache.
    pub cached_results: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Ad Hoc Network Games simulated by completed jobs.
    pub games_simulated: u64,
    /// `games_simulated` per worker-busy second — the serving-side
    /// counterpart of the bench harness's throughput number.
    pub games_per_second: f64,
    /// Worker seconds spent inside jobs since boot (compute, not
    /// queueing).
    pub job_seconds_total: f64,
    /// Mean compute seconds per finished job (completed + failed).
    pub job_seconds_mean: f64,
    /// Work leases granted to external workers.
    pub work_claims: u64,
    /// Work claims that found nothing to do.
    pub work_claim_empty: u64,
    /// External completions accepted.
    pub work_completed: u64,
    /// Results discarded as duplicates: external completions, and pool
    /// recomputes an external completion beat.
    pub work_duplicate: u64,
    /// Expired leases requeued by the lazy sweep.
    pub lease_requeues: u64,
    /// Connections evicted by a read deadline mid-request.
    pub requests_timed_out: u64,
    /// Circuit-breaker trips reported by claiming workers.
    pub breaker_open_total: u64,
    /// Completions accepted from external workers (excluded from
    /// `games_simulated`, which counts local compute only).
    pub cells_completed_external: u64,
    /// Seconds spent draining at shutdown (rises live during a drain).
    pub drain_seconds: f64,
    /// Worker threads each experiment's rayon fan-out will use —
    /// `available_parallelism` capped by `AHN_THREADS` (the silent
    /// footgun this gauge surfaces). Absent in pre-PR-9 reports.
    pub effective_threads: Option<u64>,
    /// Seconds since server boot. Absent in v1 reports.
    pub uptime_seconds: Option<u64>,
    /// Latency distributions per instrumented stage. Absent in v1
    /// reports.
    pub latency: Option<LatencySnapshot>,
    /// TCP connections accepted since boot. Absent in reports from
    /// servers that predate it.
    pub connections_accepted: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_games_per_second() {
        let m = Metrics::default();
        let s = m.snapshot(0, 0, 2);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.games_per_second, 0.0);
        assert_eq!(s.job_seconds_mean, 0.0);

        Metrics::add(&m.cache_hits, 3);
        Metrics::add(&m.cache_misses, 1);
        Metrics::add(&m.games_simulated, 2_000_000);
        Metrics::add(&m.busy_nanos, 500_000_000); // 0.5 s
        Metrics::add(&m.jobs_completed, 2);
        let s = m.snapshot(4, 2, 2);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((s.games_per_second - 4_000_000.0).abs() < 1e-6);
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.cached_results, 2);
        assert!((s.job_seconds_total - 0.5).abs() < 1e-12);
        assert!((s.job_seconds_mean - 0.25).abs() < 1e-12);
    }

    #[test]
    fn peak_queue_depth_only_rises() {
        let m = Metrics::default();
        Metrics::raise(&m.queue_depth_peak, 3);
        Metrics::raise(&m.queue_depth_peak, 1);
        assert_eq!(m.snapshot(0, 0, 1).queue_depth_peak, 3);
        Metrics::raise(&m.queue_depth_peak, 7);
        assert_eq!(m.snapshot(0, 0, 1).queue_depth_peak, 7);
    }

    #[test]
    fn hardening_counters_flow_into_the_snapshot() {
        let m = Metrics::default();
        Metrics::bump(&m.requests_timed_out);
        Metrics::add(&m.breaker_open_total, 3);
        Metrics::add(&m.cells_completed_external, 7);
        Metrics::set(&m.drain_nanos, 1_500_000_000);
        let s = m.snapshot(0, 0, 1);
        assert_eq!(s.requests_timed_out, 1);
        assert_eq!(s.breaker_open_total, 3);
        assert_eq!(s.cells_completed_external, 7);
        assert!((s.drain_seconds - 1.5).abs() < 1e-12);
        // External completions never leak into the local-compute gauge.
        assert_eq!(s.games_simulated, 0);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let m = Metrics::default();
        m.request_submit_us.record(250);
        m.claim_rtt_us.record(9_000);
        let s = m.snapshot(1, 2, 3);
        assert_eq!(s.schema, "ahn-serve-metrics/2");
        assert!(s.uptime_seconds.is_some());
        let json = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let latency = back.latency.expect("v2 snapshot carries latency");
        assert_eq!(latency.request_submit_us.count, 1);
        assert_eq!(latency.claim_rtt_us.max, 9_000);
    }

    /// A snapshot captured by a v1 server (no `uptime_seconds`, no
    /// `latency`) must still deserialize — the new fields are `Option`
    /// precisely so archived reports and old dashboards keep working.
    #[test]
    fn effective_threads_is_reported_and_sane() {
        let m = Metrics::default();
        let s = m.snapshot(0, 0, 1);
        let t = s.effective_threads.expect("current snapshots report it");
        assert!(t >= 1);
        assert!(t <= ahn_core::threads::host_cores() as u64);
    }

    #[test]
    fn request_histograms_are_grouped_by_route() {
        let m = Metrics::default();
        m.request_histogram("/v1/experiments").record(10);
        m.request_histogram("/v1/sweeps").record(10);
        m.request_histogram("/v1/calibrations").record(10);
        m.request_histogram("/v1/jobs/42").record(20);
        m.request_histogram("/v1/work/claim").record(30);
        m.request_histogram("/v1/work/complete").record(30);
        m.request_histogram("/metrics").record(40);
        m.request_histogram("/healthz").record(40);
        assert_eq!(m.request_submit_us.count(), 3);
        assert_eq!(m.request_jobs_us.count(), 1);
        assert_eq!(m.request_work_us.count(), 2);
        assert_eq!(m.request_other_us.count(), 2);
    }
}
