//! The job lifecycle: the [`JobStore`] holds every piece of a job's
//! state behind one lock — the result cache, the job table, the
//! coalescing map, the queue, the leases and the optional completion
//! journal — and [`run_job`] is the single place server-side compute
//! happens.
//!
//! One store method per step of a job's life:
//!
//! * [`JobStore::submit`] answers from the result cache, attaches the
//!   caller to an identical pending job (request coalescing), or queues
//!   a fresh job. A full queue refuses the job: the server answers 503
//!   instead of buffering unbounded work.
//! * Two consumers drain the one FIFO, each holding a job under a
//!   lease: the in-process worker pool blocks on [`JobStore::take`]
//!   (a lease that never expires), external workers lease cells via
//!   [`JobStore::claim`] (the `/v1/work/*` endpoints) with a deadline,
//!   and a draining store grants them nothing.
//! * [`JobStore::settle`] is the only way a job finishes, for both
//!   consumers, and the first completion wins. A later one — a late
//!   external worker, the pool recomputing a requeued cell — changes no
//!   cache entry, job record or coalescing entry: it is a duplicate.
//! * An external lease past its deadline is swept: its pending job goes
//!   back to the *front* of the queue, so a crashed worker can never
//!   strand a cell. One pass over the leases sweeps at the start of each
//!   claim, job poll, [`JobStore::stats`] and [`JobStore::outstanding`]
//!   — never from a background thread, so an idle node does no work,
//!   and never inside a settle, so a completion that arrives after its
//!   own lease expired settles its job instead of first requeueing it.
//!
//! The store counts and times what it decides under the lock that
//! decides it — every outcome of a submission, claim and settle, the
//! requeues, the pool's games and busy time, the queue wait at lease
//! and the compute time and claim round trip at settle — so its
//! counters never disagree, and [`JobStore::stats`] reads them at once.

use crate::cache::LruCache;
use crate::journal::{replay, Journal};
use crate::protocol::JobSpec;
use ahn_obs::{AtomicHistogram, HistogramSnapshot};
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is in the job table (and the cache).
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// One entry of the job table.
#[derive(Debug, Clone)]
pub struct Job {
    /// Result-cache key of the job's spec; a completion must quote it.
    pub key: u64,
    /// Where the job is in its lifecycle.
    pub status: JobStatus,
    /// The result JSON, once `Done`.
    pub result: Option<Arc<str>>,
    /// The failure message, once `Failed`.
    pub error: Option<String>,
}

/// One queued unit of work.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Server-assigned id.
    pub id: u64,
    /// Result-cache key of the resolved spec.
    pub key: u64,
    /// The resolved (non-preset) spec to run.
    pub spec: JobSpec,
    /// When the job entered the queue; each lease samples its queue
    /// wait from it. Requeued leases keep the original enqueue time —
    /// the cell really did wait that long.
    pub enqueued_at: Instant,
}

/// How [`JobStore::submit`] disposed of a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum Submitted {
    /// The result was cached; nothing was queued.
    Cached(Arc<str>),
    /// An identical job is queued or running; the caller joins it.
    Coalesced {
        /// The pending job.
        id: u64,
        /// Its current status.
        status: JobStatus,
    },
    /// A fresh job entered the queue.
    Enqueued {
        /// The new job.
        id: u64,
    },
    /// The queue is full (or closed); nothing was recorded.
    QueueFull,
}

/// Why [`JobStore::claim`] leased nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoGrant {
    /// The queue is empty.
    Empty,
    /// The store drains and grants nothing new.
    Draining,
}

/// A job held under a lease: by an external worker until its deadline,
/// by a pool thread until it settles.
#[derive(Debug, Clone)]
pub struct LeasedJob {
    /// Store-assigned lease id; quote it back when settling.
    pub lease_id: u64,
    /// The leased job.
    pub job: QueuedJob,
}

/// What [`JobStore::settle`] did with one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settle {
    /// The job's first completion: journaled, then cached and visible.
    Recorded,
    /// The job was already settled; nothing changed.
    Duplicate,
    /// No such job: never created, or pruned from the table.
    Unknown,
    /// The completion's key is not the job's spec hash; nothing changed.
    KeyMismatch,
}

/// Who settles a job, with what the store counts and times for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settler {
    /// A pool thread that ran the job.
    Pool {
        /// Games the job simulates ([`JobSpec::games`]).
        games: u64,
        /// Wall time the thread spent in [`run_job`].
        compute: Duration,
    },
    /// An external worker's `POST /v1/work/complete`.
    External {
        /// The compute time the worker reports, microseconds.
        compute_us: u64,
    },
}

/// How often the store decided each outcome since it opened, reported
/// by the `/metrics` fields of the same names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounters {
    /// Specs submitted: `cache_hits + coalesced + cache_misses`.
    pub submissions: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that needed a fresh job, queued or refused.
    pub cache_misses: u64,
    /// Submissions attached to an identical pending job.
    pub coalesced: u64,
    /// Submissions refused because the queue was full or closed.
    pub rejected_queue_full: u64,
    /// Highest queue depth right after a submission queued a job.
    pub queue_depth_peak: u64,
    /// Claims that leased a job.
    pub work_claims: u64,
    /// Claims answered empty: nothing queued, or the store drains.
    pub work_claim_empty: u64,
    /// Jobs settled with a result, once per job.
    pub jobs_completed: u64,
    /// Jobs settled with an error, once per job.
    pub jobs_failed: u64,
    /// Settles that lost to an earlier completion of their job.
    pub work_duplicate: u64,
    /// Expired external leases whose job went back to the queue.
    pub lease_requeues: u64,
    /// Jobs an external worker completed with a result.
    pub cells_completed_external: u64,
    /// Games simulated by the jobs the pool completed.
    pub games_simulated: u64,
    /// Nanoseconds the pool spent computing the jobs it completed.
    pub busy_nanos: u64,
}

/// One locked readout of a [`JobStore`]: its counters, sizes and the
/// three timings `/metrics` reports under the same names.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Every decision the store counted.
    pub counters: JobCounters,
    /// Jobs waiting in the queue (leased jobs excluded).
    pub queue_depth: u64,
    /// Results the cache holds.
    pub cached_results: u64,
    /// Queue wait per lease, microseconds.
    pub queue_wait_us: HistogramSnapshot,
    /// Compute time per settle, microseconds.
    pub job_compute_us: HistogramSnapshot,
    /// Lease grant → settle of an external lease, microseconds.
    pub claim_rtt_us: HistogramSnapshot,
}

struct Lease {
    job: QueuedJob,
    granted_at: Instant,
    /// `None` for a pool thread's lease, which never expires.
    deadline: Option<Instant>,
}

struct Inner {
    cache: LruCache,
    jobs: HashMap<u64, Job>,
    /// Cache key -> id of the pending job computing it, so identical
    /// submissions coalesce onto one job.
    inflight: HashMap<u64, u64>,
    /// Settled job ids, oldest first; the table keeps the newest
    /// `retain_finished` of them for polling.
    finished: VecDeque<u64>,
    retain_finished: usize,
    /// Pending jobs only: a settled job leaves the queue with its result.
    queue: VecDeque<QueuedJob>,
    leases: HashMap<u64, Lease>,
    next_job_id: u64,
    next_lease_id: u64,
    open: bool,
    counters: JobCounters,
    queue_wait_us: AtomicHistogram,
    job_compute_us: AtomicHistogram,
    claim_rtt_us: AtomicHistogram,
}

/// The serve node's job state and lifecycle (module docs), safe to
/// share across the accept loop, the worker pool and every connection
/// thread.
///
/// Opened on a path, the store is durable: every winning result is
/// appended to the checksummed completion journal before it becomes
/// visible, and on open the journal is replayed (torn trailing writes
/// discarded) into the result cache, so a restarted node resumes
/// without recomputing finished cells.
pub struct JobStore {
    inner: Mutex<Inner>,
    ready: Condvar,
    queue_cap: usize,
    journal: Option<Mutex<Journal>>,
    /// Set once a drain starts: claims grant nothing, and the server
    /// refuses submissions and reports not ready.
    draining: AtomicBool,
}

impl JobStore {
    /// Creates an in-memory store queueing at most `queue_cap` waiting
    /// jobs and caching at most `cache_cap` results.
    pub fn new(queue_cap: usize, cache_cap: usize) -> JobStore {
        JobStore {
            inner: Mutex::new(Inner {
                cache: LruCache::new(cache_cap),
                jobs: HashMap::new(),
                inflight: HashMap::new(),
                finished: VecDeque::new(),
                retain_finished: (4 * cache_cap).max(256),
                queue: VecDeque::with_capacity(queue_cap.min(1024)),
                leases: HashMap::new(),
                next_job_id: 1,
                next_lease_id: 1,
                open: true,
                counters: JobCounters::default(),
                queue_wait_us: AtomicHistogram::new(),
                job_compute_us: AtomicHistogram::new(),
                claim_rtt_us: AtomicHistogram::new(),
            }),
            ready: Condvar::new(),
            queue_cap,
            journal: None,
            draining: AtomicBool::new(false),
        }
    }

    /// Opens a durable store, replaying any existing journal at `path`
    /// into the result cache.
    pub fn open(queue_cap: usize, cache_cap: usize, path: &Path) -> std::io::Result<JobStore> {
        let recovered = replay(path)?.records;
        let store = JobStore {
            journal: Some(Mutex::new(Journal::open(path)?)),
            ..JobStore::new(queue_cap, cache_cap)
        };
        let mut inner = store.lock();
        for record in recovered {
            inner.cache.put(record.key, Arc::from(record.result));
        }
        drop(inner);
        Ok(store)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock")
    }

    /// The lock, once every pending job whose external lease has expired
    /// is requeued at the front of the queue (an expired lease of a
    /// settled job is simply dropped), with one blocked pool thread woken
    /// per requeue.
    fn lock_swept(&self) -> MutexGuard<'_, Inner> {
        let mut inner = self.lock();
        for _ in 0..inner.requeue_expired(Instant::now()) {
            self.ready.notify_one();
        }
        inner
    }

    /// Submits a resolved, validated spec hashing to `key`: a cached
    /// result, the identical pending job, or a fresh job at the back of
    /// the queue.
    pub fn submit(&self, spec: JobSpec, key: u64) -> Submitted {
        let mut inner = self.lock();
        inner.counters.submissions += 1;
        if let Some(result) = inner.cache.get(key) {
            inner.counters.cache_hits += 1;
            return Submitted::Cached(result);
        }
        if let Some(&id) = inner.inflight.get(&key) {
            inner.counters.coalesced += 1;
            let status = inner
                .jobs
                .get(&id)
                .map_or(JobStatus::Queued, |job| job.status);
            return Submitted::Coalesced { id, status };
        }
        inner.counters.cache_misses += 1;
        if !inner.open || inner.queue.len() >= self.queue_cap {
            inner.counters.rejected_queue_full += 1;
            return Submitted::QueueFull;
        }
        let id = inner.next_job_id;
        inner.next_job_id += 1;
        let job = Job {
            key,
            status: JobStatus::Queued,
            result: None,
            error: None,
        };
        inner.jobs.insert(id, job);
        inner.inflight.insert(key, id);
        let enqueued_at = Instant::now();
        inner.queue.push_back(QueuedJob {
            id,
            key,
            spec,
            enqueued_at,
        });
        let depth = inner.queue.len() as u64;
        inner.counters.queue_depth_peak = inner.counters.queue_depth_peak.max(depth);
        drop(inner);
        self.ready.notify_one();
        Submitted::Enqueued { id }
    }

    /// The pool's take: blocks until a job is queued and leases it with
    /// no deadline. Returns `None` once the store is closed and drained
    /// (the pool's shutdown signal).
    pub fn take(&self) -> Option<LeasedJob> {
        let mut inner = self.lock();
        loop {
            if let Some(leased) = inner.lease_front(None) {
                return Some(leased);
            }
            if !inner.open {
                return None;
            }
            inner = self.ready.wait(inner).expect("store lock");
        }
    }

    /// An external worker's claim: sweeps, then leases the front of the
    /// queue until `lease` elapses, after which a sweep requeues the job
    /// unless it settled. A draining store grants nothing.
    pub fn claim(&self, lease: Duration) -> Result<LeasedJob, NoGrant> {
        let mut inner = self.lock_swept();
        let deadline = Instant::now() + lease;
        let leased = if self.draining() {
            Err(NoGrant::Draining)
        } else {
            inner.lease_front(Some(deadline)).ok_or(NoGrant::Empty)
        };
        match &leased {
            Ok(_) => inner.counters.work_claims += 1,
            Err(_) => inner.counters.work_claim_empty += 1,
        }
        leased
    }

    /// Settles job `job_id` with one completion — the only way a job
    /// finishes, for the pool and for `/v1/work/complete` alike. The
    /// first completion wins: when the store is durable its result is
    /// journaled (outside the lock), then under the lock it is cached,
    /// the job table and coalescing map record it, and any requeued copy
    /// leaves the queue. A losing completion changes none of that.
    ///
    /// Whatever the outcome, the completion ends lease `lease_id` when
    /// that lease holds this job under `key`, and the store counts and
    /// times it for `by` (module docs). A settle never sweeps, so a
    /// completion whose lease expired unswept settles like a live one.
    pub fn settle(
        &self,
        lease_id: u64,
        job_id: u64,
        key: u64,
        outcome: Result<String, String>,
        by: Settler,
    ) -> Settle {
        if let (Some(journal), Ok(result)) = (&self.journal, &outcome) {
            // Durable before visible. Only a would-be winner is written;
            // two racing completions may both be, and replay keeps the
            // first line per key — the same bytes of a pure function.
            if self.lock().pending(job_id, key) {
                // A full disk must not take the serving path down: the
                // journal saves recompute, it is not needed for
                // correctness, so an append error degrades to memory.
                let _ = journal.lock().expect("journal lock").append(key, result);
            }
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let granted_at = inner.end_lease(lease_id, job_id, key);
        let succeeded = outcome.is_ok();
        let settled = inner.record(job_id, key, outcome);
        let won = settled == Settle::Recorded && succeeded;
        let c = &mut inner.counters;
        match (settled, by) {
            (Settle::Recorded, _) if succeeded => c.jobs_completed += 1,
            (Settle::Recorded, _) => c.jobs_failed += 1,
            // A pool thread's job is unknown only once another completion
            // settled it and the table pruned it.
            (Settle::Duplicate, _) | (Settle::Unknown, Settler::Pool { .. }) => {
                c.work_duplicate += 1
            }
            (Settle::Unknown | Settle::KeyMismatch, _) => {}
        }
        let compute_us = match by {
            Settler::Pool { games, compute } if won => {
                c.games_simulated += games;
                c.busy_nanos += compute.as_nanos() as u64;
                compute.as_micros() as u64
            }
            Settler::Pool { compute, .. } => compute.as_micros() as u64,
            Settler::External { compute_us } => {
                c.cells_completed_external += won as u64;
                if let Some(granted_at) = granted_at {
                    let rtt = granted_at.elapsed().as_micros() as u64;
                    inner.claim_rtt_us.record(rtt);
                }
                compute_us
            }
        };
        inner.job_compute_us.record(compute_us);
        settled
    }

    /// A job's table entry, while the table holds it (after a sweep, so
    /// a cell whose worker died reads queued again).
    pub fn status(&self, id: u64) -> Option<Job> {
        self.lock_swept().jobs.get(&id).cloned()
    }

    /// Every counter and timing, the queue depth and the cached results,
    /// read under one lock after a sweep.
    pub fn stats(&self) -> JobStats {
        let inner = self.lock_swept();
        JobStats {
            counters: inner.counters,
            queue_depth: inner.queue.len() as u64,
            cached_results: inner.cache.len() as u64,
            queue_wait_us: inner.queue_wait_us.snapshot(),
            job_compute_us: inner.job_compute_us.snapshot(),
            claim_rtt_us: inner.claim_rtt_us.snapshot(),
        }
    }

    /// Starts a drain, after which claims grant nothing; false when a
    /// drain had already started.
    pub fn start_draining(&self) -> bool {
        !self.draining.swap(true, Ordering::SeqCst)
    }

    /// True once a drain has started.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Closes the store: queued jobs still drain, new submissions are
    /// refused, and blocked pool threads wake up to exit.
    pub fn close(&self) {
        self.lock().open = false;
        self.ready.notify_all();
    }

    /// Queued jobs plus every lease — external ones and the pool's —
    /// in one locked read after a sweep: the work a draining node must
    /// see settled (or give up on at its drain deadline) before it can
    /// stop.
    pub fn outstanding(&self) -> usize {
        let inner = self.lock_swept();
        inner.queue.len() + inner.leases.len()
    }
}

impl Inner {
    /// Pops the front of the queue and leases it until `deadline`,
    /// sampling its queue wait.
    fn lease_front(&mut self, deadline: Option<Instant>) -> Option<LeasedJob> {
        let job = self.queue.pop_front()?;
        let waited = job.enqueued_at.elapsed().as_micros() as u64;
        self.queue_wait_us.record(waited);
        if let Some(record) = self.jobs.get_mut(&job.id) {
            record.status = JobStatus::Running;
        }
        let lease_id = self.next_lease_id;
        self.next_lease_id += 1;
        let lease = Lease {
            job: job.clone(),
            granted_at: Instant::now(),
            deadline,
        };
        self.leases.insert(lease_id, lease);
        Some(LeasedJob { lease_id, job })
    }

    /// True while job `job_id` hashing to `key` still awaits its result.
    fn pending(&self, job_id: u64, key: u64) -> bool {
        self.jobs.get(&job_id).is_some_and(|job| {
            job.key == key && matches!(job.status, JobStatus::Queued | JobStatus::Running)
        })
    }

    /// Removes lease `lease_id` if it holds job `job_id` under `key`,
    /// returning its grant time.
    fn end_lease(&mut self, lease_id: u64, job_id: u64, key: u64) -> Option<Instant> {
        let lease = self.leases.get(&lease_id)?;
        if lease.job.id != job_id || lease.job.key != key {
            return None;
        }
        self.leases.remove(&lease_id).map(|lease| lease.granted_at)
    }

    /// Records the first completion of a pending job (see
    /// [`JobStore::settle`]).
    fn record(&mut self, job_id: u64, key: u64, outcome: Result<String, String>) -> Settle {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return Settle::Unknown;
        };
        if matches!(job.status, JobStatus::Done | JobStatus::Failed) {
            return Settle::Duplicate;
        }
        if job.key != key {
            return Settle::KeyMismatch;
        }
        if job.status == JobStatus::Queued {
            // Its lease expired and the job was requeued: the copy in the
            // queue has nothing left to compute.
            self.queue.retain(|queued| queued.id != job_id);
        }
        match outcome {
            Ok(json) => {
                let result: Arc<str> = Arc::from(json);
                self.cache.put(key, Arc::clone(&result));
                job.status = JobStatus::Done;
                job.result = Some(result);
            }
            Err(error) => {
                job.status = JobStatus::Failed;
                job.error = Some(error);
            }
        }
        self.inflight.remove(&key);
        self.finished.push_back(job_id);
        while self.finished.len() > self.retain_finished {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
        Settle::Recorded
    }

    /// Requeues the pending jobs of the external leases expired by
    /// `now`, counting and returning how many.
    fn requeue_expired(&mut self, now: Instant) -> usize {
        let expired: Vec<u64> = (self.leases.iter())
            .filter(|(_, lease)| lease.deadline.is_some_and(|deadline| deadline <= now))
            .map(|(&id, _)| id)
            .collect();
        let mut requeued = 0;
        for id in expired {
            let lease = self.leases.remove(&id).expect("expired lease present");
            match self.jobs.get_mut(&lease.job.id) {
                Some(job) if job.status == JobStatus::Running => {
                    job.status = JobStatus::Queued;
                    self.queue.push_front(lease.job);
                    requeued += 1;
                }
                _ => {}
            }
        }
        self.counters.lease_requeues += requeued as u64;
        requeued
    }
}

/// Runs a resolved job to completion, returning the serialized result
/// JSON. This is the only place server-side compute happens; everything
/// around it is bookkeeping.
///
/// Panics inside the simulation (validation holes, internal asserts)
/// are caught and reported as job failures — a poisoned spec must never
/// take a worker thread down with it.
pub fn run_job(spec: &JobSpec) -> Result<String, String> {
    let spec = std::panic::AssertUnwindSafe(spec);
    match std::panic::catch_unwind(|| run_job_inner(*spec)) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let reason = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("job panicked: {reason}"))
        }
    }
}

fn run_job_inner(spec: &JobSpec) -> Result<String, String> {
    match spec {
        JobSpec::Experiment { config, cases } => {
            let cells: Vec<ahn_core::Cell> = (cases.iter())
                .map(|case| (config.clone(), case.clone()))
                .collect();
            let results = ahn_core::run_cells(&cells, None, |_| String::new());
            serde_json::to_string(&results).map_err(|e| format!("cannot serialize result: {e}"))
        }
        JobSpec::Ipdrp { config, seed } => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(*seed);
            let history = ahn_ipdrp::run_ipdrp(&mut rng, config);
            serde_json::to_string(&history).map_err(|e| format!("cannot serialize result: {e}"))
        }
        JobSpec::Preset { name } => Err(format!("unresolved preset {name:?} reached a worker")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::presets;

    /// Submits a job hashing to `key`; a fresh store numbers its jobs
    /// from 1, so submitting keys 1, 2, … gives the same job ids.
    fn submit(store: &JobStore, key: u64) -> Submitted {
        store.submit(JobSpec::Preset { name: "x".into() }, key)
    }

    fn claim(store: &JobStore, lease_ms: u64) -> Option<LeasedJob> {
        store.claim(Duration::from_millis(lease_ms)).ok()
    }

    fn depth(store: &JobStore) -> usize {
        store.stats().queue_depth as usize
    }

    fn leased_count(store: &JobStore) -> usize {
        store.outstanding() - depth(store)
    }

    /// Settles a leased job with `result` as an external worker would.
    fn settle(store: &JobStore, leased: &LeasedJob, result: &str) -> Settle {
        let job = &leased.job;
        let by = Settler::External { compute_us: 5 };
        store.settle(leased.lease_id, job.id, job.key, Ok(result.into()), by)
    }

    #[test]
    fn push_pop_fifo() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        submit(&q, 2);
        assert_eq!(depth(&q), 2);
        assert_eq!(q.take().unwrap().job.id, 1);
        assert_eq!(q.take().unwrap().job.id, 2);
        assert_eq!(depth(&q), 0);
        // Both leases sampled their queue wait.
        assert_eq!(q.stats().queue_wait_us.count, 2);
    }

    #[test]
    fn full_queue_rejects() {
        let q = JobStore::new(1, 4);
        assert!(matches!(submit(&q, 1), Submitted::Enqueued { .. }));
        assert_eq!(submit(&q, 2), Submitted::QueueFull);
        let _ = q.take();
        assert!(matches!(submit(&q, 3), Submitted::Enqueued { .. }));
        let c = q.stats().counters;
        assert_eq!(
            (c.submissions, c.cache_misses, c.rejected_queue_full),
            (3, 3, 1)
        );
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        q.close();
        assert_eq!(submit(&q, 2), Submitted::QueueFull);
        assert_eq!(q.take().unwrap().job.id, 1);
        assert!(q.take().is_none());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobStore::new(1, 4));
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.take());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(waiter.join().unwrap().is_none());
    }

    #[test]
    fn claim_then_complete_settles_the_lease() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        let leased = claim(&q, 60_000).unwrap();
        assert_eq!(leased.job.id, 1);
        assert_eq!((depth(&q), leased_count(&q)), (0, 1));
        assert_eq!(settle(&q, &leased, "\"r\""), Settle::Recorded);
        assert_eq!(
            settle(&q, &leased, "\"r\""),
            Settle::Duplicate,
            "second settle is a no-op"
        );
        assert_eq!((depth(&q), leased_count(&q)), (0, 0));
        // Nothing left to claim, and sweeping an empty table is free.
        assert!(claim(&q, 60_000).is_none());
        let stats = q.stats();
        let c = stats.counters;
        assert_eq!((c.work_claims, c.work_claim_empty), (1, 1));
        assert_eq!((c.jobs_completed, c.cells_completed_external), (1, 1));
        assert_eq!((c.work_duplicate, c.lease_requeues), (1, 0));
        // Both completions reported their compute; only the first ended
        // a live lease, so only it timed a round trip.
        assert_eq!(stats.job_compute_us.count, 2);
        assert_eq!(stats.claim_rtt_us.count, 1);
    }

    #[test]
    fn expired_lease_requeues_at_the_front() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        submit(&q, 2);
        let leased = claim(&q, 0).unwrap();
        assert_eq!(leased.job.id, 1);
        // Deadline already passed: the next claim's sweep puts #1 ahead
        // of #2 and leases it again.
        assert_eq!(claim(&q, 60_000).unwrap().job.id, 1);
        assert_eq!(q.stats().counters.lease_requeues, 1);
        // A completion for the dead lease still settles the job, with no
        // round trip to time.
        assert_eq!(settle(&q, &leased, "\"r\""), Settle::Recorded);
        assert_eq!(q.stats().claim_rtt_us.count, 0);
    }

    #[test]
    fn unexpired_leases_survive_the_sweep() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        let leased = claim(&q, 60_000).unwrap();
        let stats = q.stats();
        assert_eq!((stats.queue_depth, stats.counters.lease_requeues), (0, 0));
        assert_eq!(leased_count(&q), 1);
        assert_eq!(settle(&q, &leased, "\"r\""), Settle::Recorded);
        assert_eq!(q.stats().claim_rtt_us.count, 1);
    }

    #[test]
    fn expired_requeue_wakes_a_blocked_worker() {
        let q = Arc::new(JobStore::new(4, 4));
        submit(&q, 7);
        let _leased = claim(&q, 0).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.take());
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A job poll sweeps: the cell reads queued, and the pool thread
        // wakes to take it.
        assert_eq!(q.status(1).unwrap().status, JobStatus::Queued);
        assert_eq!(waiter.join().unwrap().unwrap().job.key, 7);
        assert_eq!(q.stats().counters.lease_requeues, 1);
    }

    /// A completion that arrives after its lease expired, before any
    /// sweep, settles its job: nothing is requeued, and no blocked pool
    /// thread wakes to recompute the cell.
    #[test]
    fn a_settle_after_its_lease_expired_requeues_nothing() {
        let q = Arc::new(JobStore::new(4, 4));
        submit(&q, 1);
        let leased = claim(&q, 0).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.take());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(settle(&q, &leased, "\"r\""), Settle::Recorded);
        let stats = q.stats();
        assert_eq!((stats.queue_depth, stats.counters.lease_requeues), (0, 0));
        assert_eq!(stats.claim_rtt_us.count, 1, "the lease was still held");
        assert_eq!(q.outstanding(), 0);
        q.close();
        assert!(waiter.join().unwrap().is_none(), "no pool thread took it");
    }

    #[test]
    fn journal_store_records_survive_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("ahn-jobstore-test-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let store = JobStore::open(4, 4, &path).unwrap();
        assert_eq!(store.stats().cached_results, 0);
        for (key, result) in [(11, "\"one\""), (22, "\"two\"")] {
            submit(&store, key);
            let leased = claim(&store, 0).unwrap();
            assert_eq!(settle(&store, &leased, result), Settle::Recorded);
        }
        // A retried completion for 11 loses, so it is never journaled.
        let by = Settler::External { compute_us: 5 };
        assert_eq!(
            store.settle(0, 1, 11, Ok("\"one-retry\"".into()), by),
            Settle::Duplicate
        );
        drop(store);

        let recovered: Vec<(u64, String)> = (replay(&path).unwrap().records.into_iter())
            .map(|r| (r.key, r.result))
            .collect();
        // First completion wins; append order preserved.
        assert_eq!(
            recovered,
            vec![(11, "\"one\"".into()), (22, "\"two\"".into())]
        );
        // The reopened store answers both cells from its warmed cache.
        let store = JobStore::open(4, 4, &path).unwrap();
        assert_eq!(submit(&store, 11), Submitted::Cached(Arc::from("\"one\"")));
        assert_eq!(submit(&store, 22), Submitted::Cached(Arc::from("\"two\"")));
        // Queue/lease semantics are those of the in-memory store.
        submit(&store, 1);
        let leased = claim(&store, 60_000).unwrap();
        assert_eq!(settle(&store, &leased, "\"r\""), Settle::Recorded);
        let _ = std::fs::remove_file(&path);
    }

    /// An external lease expires and its cell is requeued to the pool,
    /// so the pool and the late external worker both finish it. In either
    /// order the first result stays, only the winner counts its kind of
    /// completion, and the second settle counts as a duplicate and
    /// touches neither the cache, the job nor coalescing.
    #[test]
    fn settle_is_first_completion_wins_in_both_orders() {
        let pool_by = Settler::Pool {
            games: 10,
            compute: Duration::from_micros(7),
        };
        let external_by = Settler::External { compute_us: 9 };
        for pool_first in [true, false] {
            let q = JobStore::new(4, 4);
            submit(&q, 5);
            let external = claim(&q, 0).unwrap();
            // A job poll sweeps the expired lease back to the queue.
            let status = q.status(external.job.id).unwrap().status;
            assert_eq!(status, JobStatus::Queued);
            let pool = q.take().unwrap();
            assert_eq!(pool.job.id, external.job.id);

            let finish = |(leased, by): (&LeasedJob, Settler), result: &str| {
                let job = &leased.job;
                q.settle(leased.lease_id, job.id, job.key, Ok(result.into()), by)
            };
            let (first, second) = if pool_first {
                ((&pool, pool_by), (&external, external_by))
            } else {
                ((&external, external_by), (&pool, pool_by))
            };
            assert_eq!(finish(first, "\"first\""), Settle::Recorded);
            assert_eq!(finish(second, "\"second\""), Settle::Duplicate);
            let stats = q.stats();
            let c = stats.counters;
            let context = format!("pool_first={pool_first}: {c:?}");
            assert_eq!((c.jobs_completed, c.work_duplicate), (1, 1), "{context}");
            let (games, external_cells) = if pool_first { (10, 0) } else { (0, 1) };
            assert_eq!(
                (c.games_simulated, c.cells_completed_external),
                (games, external_cells),
                "{context}"
            );
            assert_eq!((c.lease_requeues, stats.job_compute_us.count), (1, 2));

            let job = q.status(pool.job.id).unwrap();
            assert_eq!(job.status, JobStatus::Done);
            assert_eq!(job.result.as_deref(), Some("\"first\""));
            // The cache holds the winner, and no pending job claims key 5.
            assert_eq!(submit(&q, 5), Submitted::Cached(Arc::from("\"first\"")));
            assert_eq!((q.outstanding(), q.stats().cached_results), (0, 1));
        }
    }

    #[test]
    fn a_draining_store_grants_no_claim() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        assert!(q.start_draining());
        assert!(!q.start_draining(), "a drain starts once");
        let refused = q.claim(Duration::from_secs(60)).map(|leased| leased.job.id);
        assert_eq!(refused, Err(NoGrant::Draining));
        // The pool still drains the queue.
        assert_eq!(q.take().unwrap().job.id, 1);
        let c = q.stats().counters;
        assert_eq!((c.work_claims, c.work_claim_empty), (0, 1));
    }

    #[test]
    fn outstanding_counts_queued_leased_and_pool_held_jobs() {
        let q = JobStore::new(4, 4);
        for key in 1..=3 {
            submit(&q, key);
        }
        assert_eq!(q.outstanding(), 3);
        let pool = q.take().unwrap();
        let external = claim(&q, 60_000).unwrap();
        // One queued, one leased externally, one held by the pool.
        assert_eq!((depth(&q), q.outstanding()), (1, 3));
        let by = Settler::Pool {
            games: 3,
            compute: Duration::from_millis(2),
        };
        let job = &pool.job;
        let settled = q.settle(pool.lease_id, job.id, job.key, Ok("\"p\"".into()), by);
        assert_eq!(settled, Settle::Recorded);
        assert_eq!(settle(&q, &external, "\"e\""), Settle::Recorded);
        assert_eq!(q.outstanding(), 1);
        let _ = q.take().unwrap();
        assert_eq!((depth(&q), q.outstanding()), (0, 1));
        let c = q.stats().counters;
        assert_eq!((c.games_simulated, c.busy_nanos), (3, 2_000_000));
    }

    #[test]
    fn run_job_executes_every_preset() {
        for preset in presets() {
            let json = run_job(&preset.body).unwrap();
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert!(
                matches!(value, serde_json::Value::Seq(ref items) if !items.is_empty()),
                "{}: result should be a non-empty array",
                preset.name
            );
        }
    }

    #[test]
    fn run_job_is_deterministic() {
        let spec = presets()[2].body.clone(); // ipdrp: cheapest
        assert_eq!(run_job(&spec).unwrap(), run_job(&spec).unwrap());
    }

    #[test]
    fn unresolved_preset_fails() {
        assert!(run_job(&JobSpec::Preset { name: "x".into() }).is_err());
    }

    #[test]
    fn panicking_job_becomes_a_failure_not_a_dead_worker() {
        // A spec that dodges validation and trips an internal assert
        // (no environments) must come back as Err, so the worker thread
        // survives and the job is marked failed instead of wedging.
        let case: ahn_core::CaseSpec =
            serde_json::from_str("{\"name\":\"empty\",\"envs\":[],\"mode\":\"Shorter\"}").unwrap();
        let spec = JobSpec::Experiment {
            config: ahn_core::ExperimentConfig::smoke(),
            cases: vec![case],
        };
        let err = run_job(&spec).unwrap_err();
        assert!(err.contains("job panicked"), "{err}");
    }
}
