//! The `/metrics` report. [`Metrics`] holds what only the HTTP layer
//! sees — requests, connections, timeouts, the breaker trips and
//! backoff sleep workers report, the drain time and request latency
//! per route — and [`Metrics::snapshot`] joins it with the job store's
//! counters and timings ([`JobStats`], which the store keeps for every
//! decision it makes) into one [`Snapshot`].

use crate::jobs::JobStats;
use ahn_obs::{AtomicHistogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters every connection thread adds to with relaxed atomics;
/// individual counters are exact, and ratios across them may trail by a
/// request or two, which is fine for an operational endpoint.
#[derive(Debug)]
pub struct Metrics {
    /// HTTP requests served, any route, any status.
    pub http_requests: AtomicU64,
    /// TCP connections the accept loop handed to a connection thread.
    /// With kept-alive clients it stays far below `http_requests`.
    pub connections_accepted: AtomicU64,
    /// Connections evicted by a read deadline mid-request (slowloris
    /// defense). Idle keep-alive closes are clean and not counted here.
    pub requests_timed_out: AtomicU64,
    /// Circuit-breaker trips reported by claiming workers (best-effort:
    /// a trip report dropped by the transport is retried with the next
    /// claim, so the counter is at-least-once under faults).
    pub breaker_open_total: AtomicU64,
    /// Nanoseconds spent draining at shutdown, overwritten live by the
    /// drain loop (so a `/metrics` scrape during drain sees it rising).
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
            requests_timed_out: AtomicU64::new(0),
            breaker_open_total: AtomicU64::new(0),
            drain_nanos: AtomicU64::new(0),
            request_submit_us: AtomicHistogram::new(),
            request_jobs_us: AtomicHistogram::new(),
            request_work_us: AtomicHistogram::new(),
            request_other_us: AtomicHistogram::new(),
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

    /// Builds the `/metrics` response body from these counters and one
    /// readout of the job store.
    pub fn snapshot(&self, jobs: JobStats, workers: usize) -> Snapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // A ratio reads 0 until its denominator has counted something.
        let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
        let c = &jobs.counters;
        let (hits, misses) = (c.cache_hits, c.cache_misses);
        let job_seconds_total = c.busy_nanos as f64 / 1e9;
        let settled = (c.jobs_completed + c.jobs_failed) as f64;
        Snapshot {
            schema: "ahn-serve-metrics/2".into(),
            http_requests: load(&self.http_requests),
            submissions: c.submissions,
            cache_hits: hits,
            cache_misses: misses,
            coalesced: c.coalesced,
            cache_hit_rate: ratio(hits as f64, (hits + misses) as f64),
            rejected_queue_full: c.rejected_queue_full,
            jobs_completed: c.jobs_completed,
            jobs_failed: c.jobs_failed,
            queue_depth: jobs.queue_depth,
            queue_depth_peak: c.queue_depth_peak,
            cached_results: jobs.cached_results,
            workers: workers as u64,
            games_simulated: c.games_simulated,
            games_per_second: ratio(c.games_simulated as f64, job_seconds_total),
            job_seconds_total,
            job_seconds_mean: ratio(job_seconds_total, settled),
            work_claims: c.work_claims,
            work_claim_empty: c.work_claim_empty,
            work_duplicate: c.work_duplicate,
            lease_requeues: c.lease_requeues,
            requests_timed_out: load(&self.requests_timed_out),
            breaker_open_total: load(&self.breaker_open_total),
            cells_completed_external: c.cells_completed_external,
            drain_seconds: load(&self.drain_nanos) as f64 / 1e9,
            effective_threads: ahn_core::threads::effective() as u64,
            uptime_seconds: self.boot.elapsed().as_secs(),
            connections_accepted: load(&self.connections_accepted),
            latency: Some(LatencySnapshot {
                request_submit_us: self.request_submit_us.snapshot(),
                request_jobs_us: self.request_jobs_us.snapshot(),
                request_work_us: self.request_work_us.snapshot(),
                request_other_us: self.request_other_us.snapshot(),
                queue_wait_us: jobs.queue_wait_us,
                job_compute_us: jobs.job_compute_us,
                claim_rtt_us: jobs.claim_rtt_us,
                backoff_sleep_ms: self.backoff_sleep_ms.snapshot(),
            }),
        }
    }
}

/// The latency-distribution block of a snapshot: one
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
    /// Job queue wait (enqueue → lease or pool take), microseconds.
    pub queue_wait_us: HistogramSnapshot,
    /// Job compute time per settle (the pool measures it, external
    /// workers report it), microseconds.
    pub job_compute_us: HistogramSnapshot,
    /// External-worker claim→complete round trip, microseconds; a
    /// completion whose lease was already swept is not sampled.
    pub claim_rtt_us: HistogramSnapshot,
    /// Worker-reported backoff sleep totals, milliseconds.
    pub backoff_sleep_ms: HistogramSnapshot,
}

/// One rendered `/metrics` report. The job fields read the store's
/// [`crate::jobs::JobCounters`] of the same names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Report schema tag, `"ahn-serve-metrics/2"`.
    pub schema: String,
    /// HTTP requests served, any route.
    pub http_requests: u64,
    /// Specs submitted: `cache_hits + coalesced + cache_misses`.
    pub submissions: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that needed a fresh job, queued or refused.
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
    /// Ad Hoc Network Games simulated by the jobs the pool completed.
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
    /// Work claims that found nothing to do, or a draining node.
    pub work_claim_empty: u64,
    /// Results discarded as duplicates: external completions, and pool
    /// recomputes an external completion beat.
    pub work_duplicate: u64,
    /// Expired leases requeued by the lazy sweep.
    pub lease_requeues: u64,
    /// Connections evicted by a read deadline mid-request.
    pub requests_timed_out: u64,
    /// Circuit-breaker trips reported by claiming workers.
    pub breaker_open_total: u64,
    /// Jobs external workers completed with a result (excluded from
    /// `games_simulated`, which counts local compute only).
    pub cells_completed_external: u64,
    /// Seconds spent draining at shutdown (rises live during a drain).
    pub drain_seconds: f64,
    /// Worker threads each experiment's rayon fan-out will use —
    /// `available_parallelism` capped by `AHN_THREADS` (the silent
    /// footgun this gauge surfaces).
    pub effective_threads: u64,
    /// Seconds since server boot.
    pub uptime_seconds: u64,
    /// Latency distributions per instrumented stage; every report
    /// carries it (`None` only for readers that build a report by hand).
    pub latency: Option<LatencySnapshot>,
    /// TCP connections accepted since boot.
    pub connections_accepted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobCounters, JobStore};
    use crate::protocol::JobSpec;

    /// A store readout holding `counters` and nothing else.
    fn stats(counters: JobCounters) -> JobStats {
        JobStats {
            counters,
            queue_depth: 0,
            cached_results: 0,
            queue_wait_us: HistogramSnapshot::empty(),
            job_compute_us: HistogramSnapshot::empty(),
            claim_rtt_us: HistogramSnapshot::empty(),
        }
    }

    #[test]
    fn hit_rate_and_games_per_second() {
        let m = Metrics::default();
        let s = m.snapshot(stats(JobCounters::default()), 2);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.games_per_second, 0.0);
        assert_eq!(s.job_seconds_mean, 0.0);

        let counters = JobCounters {
            cache_hits: 3,
            cache_misses: 1,
            games_simulated: 2_000_000,
            busy_nanos: 500_000_000, // 0.5 s
            jobs_completed: 2,
            ..JobCounters::default()
        };
        let jobs = JobStats {
            queue_depth: 4,
            cached_results: 2,
            ..stats(counters)
        };
        let s = m.snapshot(jobs, 2);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((s.games_per_second - 4_000_000.0).abs() < 1e-6);
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.cached_results, 2);
        assert!((s.job_seconds_total - 0.5).abs() < 1e-12);
        assert!((s.job_seconds_mean - 0.25).abs() < 1e-12);
    }

    #[test]
    fn peak_queue_depth_only_rises() {
        let store = JobStore::new(8, 8);
        let submit = |key| store.submit(JobSpec::Preset { name: "x".into() }, key);
        let peak = || {
            Metrics::default()
                .snapshot(store.stats(), 1)
                .queue_depth_peak
        };
        for key in 1..=3 {
            submit(key);
        }
        for _ in 0..3 {
            let _ = store.take();
        }
        submit(4);
        assert_eq!(peak(), 3);
        for key in 5..=10 {
            submit(key);
        }
        assert_eq!(peak(), 7);
    }

    #[test]
    fn hardening_counters_flow_into_the_snapshot() {
        let m = Metrics::default();
        m.requests_timed_out.fetch_add(1, Ordering::Relaxed);
        m.breaker_open_total.fetch_add(3, Ordering::Relaxed);
        m.drain_nanos.store(1_500_000_000, Ordering::Relaxed);
        let counters = JobCounters {
            cells_completed_external: 7,
            ..JobCounters::default()
        };
        let s = m.snapshot(stats(counters), 1);
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
        let rtt = AtomicHistogram::new();
        rtt.record(9_000);
        let jobs = JobStats {
            claim_rtt_us: rtt.snapshot(),
            ..stats(JobCounters::default())
        };
        let s = m.snapshot(jobs, 3);
        assert_eq!(s.schema, "ahn-serve-metrics/2");
        let json = serde_json::to_string(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let latency = back.latency.expect("a snapshot carries latency");
        assert_eq!(latency.request_submit_us.count, 1);
        assert_eq!(latency.claim_rtt_us.max, 9_000);
    }

    #[test]
    fn effective_threads_is_reported_and_sane() {
        let m = Metrics::default();
        let t = m
            .snapshot(stats(JobCounters::default()), 1)
            .effective_threads;
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
