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
//!   [`JobStore::claim`] (the `/v1/work/*` endpoints) with a deadline.
//! * [`JobStore::settle`] is the only way a job finishes, for both
//!   consumers, and the first completion wins. A later one — a late
//!   external worker, the pool recomputing a requeued cell — changes no
//!   cache entry, job record or coalescing entry, and its caller counts
//!   it only as a duplicate.
//! * [`JobStore::sweep_expired`] requeues each pending job whose
//!   external lease passed its deadline at the *front* of the queue, so
//!   a crashed worker can never strand a cell. [`JobStore::outstanding`]
//!   is the work a draining node waits for.
//!
//! Lease expiry is swept lazily from request handlers — never from a
//! background thread — so an idle serve node does exactly zero work.
//! Each sweep is bounded by the number of outstanding leases.

use crate::cache::LruCache;
use crate::journal::{replay, Journal};
use crate::protocol::JobSpec;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
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
    /// When the job entered the queue, so the consumer that dequeues it
    /// (lease grant or local take) can sample the `queue_wait_us`
    /// histogram. Requeued leases keep the original enqueue time — the
    /// cell really did wait that long.
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
        /// Queue depth right after the push.
        depth: usize,
    },
    /// The queue is full (or closed); nothing was recorded.
    QueueFull,
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
            }),
            ready: Condvar::new(),
            queue_cap,
            journal: None,
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

    /// Submits a resolved, validated spec hashing to `key`: a cached
    /// result, the identical pending job, or a fresh job at the back of
    /// the queue.
    pub fn submit(&self, spec: JobSpec, key: u64) -> Submitted {
        let mut inner = self.lock();
        if let Some(result) = inner.cache.get(key) {
            return Submitted::Cached(result);
        }
        if let Some(&id) = inner.inflight.get(&key) {
            let status = inner
                .jobs
                .get(&id)
                .map_or(JobStatus::Queued, |job| job.status);
            return Submitted::Coalesced { id, status };
        }
        if !inner.open || inner.queue.len() >= self.queue_cap {
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
        let depth = inner.queue.len();
        drop(inner);
        self.ready.notify_one();
        Submitted::Enqueued { id, depth }
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

    /// An external worker's claim: leases the front of the queue until
    /// `lease` elapses, after which the next sweep requeues the job
    /// unless it settled. Returns `None` when the queue is empty.
    pub fn claim(&self, lease: Duration) -> Option<LeasedJob> {
        self.lock().lease_front(Some(Instant::now() + lease))
    }

    /// Settles job `job_id` with one completion — the only way a job
    /// finishes, for the pool and for `/v1/work/complete` alike. The
    /// first completion wins: when the store is durable its result is
    /// journaled (outside the lock), then under the lock it is cached,
    /// the job table and coalescing map record it, any requeued copy
    /// leaves the queue, and `on_record` runs — so a counter it bumps is
    /// never behind what a poller sees. A losing completion changes
    /// none of that and skips `on_record`.
    ///
    /// Whatever the outcome, the completion ends lease `lease_id` when
    /// that lease holds this job under `key`, and the lease's grant time
    /// comes back; `None` when the lease was already swept or settled.
    pub fn settle(
        &self,
        lease_id: u64,
        job_id: u64,
        key: u64,
        outcome: Result<String, String>,
        on_record: impl FnOnce(),
    ) -> (Settle, Option<Instant>) {
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
        let mut inner = self.lock();
        let granted_at = inner.end_lease(lease_id, job_id, key);
        let settled = inner.record(job_id, key, outcome);
        if settled == Settle::Recorded {
            on_record();
        }
        (settled, granted_at)
    }

    /// Requeues, at the front of the queue, every pending job whose
    /// external lease has expired, waking a blocked pool thread per
    /// requeue, and returns how many were requeued. An expired lease of
    /// an already settled job is simply dropped. Cost is bounded by the
    /// number of outstanding leases.
    pub fn sweep_expired(&self) -> usize {
        let requeued = self.lock().requeue_expired(Instant::now());
        for _ in 0..requeued {
            self.ready.notify_one();
        }
        requeued
    }

    /// A job's table entry, while the table holds it.
    pub fn status(&self, id: u64) -> Option<Job> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Closes the store: queued jobs still drain, new submissions are
    /// refused, and blocked pool threads wake up to exit.
    pub fn close(&self) {
        self.lock().open = false;
        self.ready.notify_all();
    }

    /// Jobs currently waiting (excludes leased jobs).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Results currently cached.
    pub fn cached(&self) -> usize {
        self.lock().cache.len()
    }

    /// Queued jobs plus every lease — external ones and the pool's —
    /// in one locked read: the work a draining node must see settled
    /// (or give up on at its drain deadline) before it can stop.
    pub fn outstanding(&self) -> usize {
        let inner = self.lock();
        inner.queue.len() + inner.leases.len()
    }
}

impl Inner {
    /// Pops the front of the queue and leases it until `deadline`.
    fn lease_front(&mut self, deadline: Option<Instant>) -> Option<LeasedJob> {
        let job = self.queue.pop_front()?;
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
    /// `now`, returning how many.
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

    fn leased_count(store: &JobStore) -> usize {
        store.outstanding() - store.depth()
    }

    /// Settles a leased job with `result`, returning the outcome and
    /// whether the lease was still live.
    fn settle(store: &JobStore, leased: &LeasedJob, result: &str) -> (Settle, bool) {
        let job = &leased.job;
        let (settled, granted_at) =
            store.settle(leased.lease_id, job.id, job.key, Ok(result.into()), || {});
        (settled, granted_at.is_some())
    }

    #[test]
    fn push_pop_fifo() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        submit(&q, 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.take().unwrap().job.id, 1);
        assert_eq!(q.take().unwrap().job.id, 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects() {
        let q = JobStore::new(1, 4);
        assert!(matches!(submit(&q, 1), Submitted::Enqueued { .. }));
        assert_eq!(submit(&q, 2), Submitted::QueueFull);
        let _ = q.take();
        assert!(matches!(submit(&q, 3), Submitted::Enqueued { .. }));
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
        let leased = q.claim(Duration::from_secs(60)).unwrap();
        assert_eq!(leased.job.id, 1);
        assert_eq!((q.depth(), leased_count(&q)), (0, 1));
        assert_eq!(settle(&q, &leased, "\"r\""), (Settle::Recorded, true));
        assert_eq!(
            settle(&q, &leased, "\"r\""),
            (Settle::Duplicate, false),
            "second settle is a no-op"
        );
        assert_eq!((q.depth(), leased_count(&q)), (0, 0));
        // Nothing left to claim, and sweeping an empty table is free.
        assert!(q.claim(Duration::from_secs(60)).is_none());
        assert_eq!(q.sweep_expired(), 0);
    }

    #[test]
    fn expired_lease_requeues_at_the_front() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        submit(&q, 2);
        let leased = q.claim(Duration::from_millis(0)).unwrap();
        assert_eq!(leased.job.id, 1);
        // Deadline already passed; the sweep puts #1 ahead of #2.
        assert_eq!(q.sweep_expired(), 1);
        assert_eq!(leased_count(&q), 0);
        assert_eq!(q.claim(Duration::from_secs(60)).unwrap().job.id, 1);
        // A completion for the dead lease reports it unknown, but its
        // result still settles the job.
        assert_eq!(settle(&q, &leased, "\"r\""), (Settle::Recorded, false));
    }

    #[test]
    fn unexpired_leases_survive_the_sweep() {
        let q = JobStore::new(4, 4);
        submit(&q, 1);
        let leased = q.claim(Duration::from_secs(60)).unwrap();
        assert_eq!(q.sweep_expired(), 0);
        assert_eq!((q.depth(), leased_count(&q)), (0, 1));
        assert_eq!(settle(&q, &leased, "\"r\""), (Settle::Recorded, true));
    }

    #[test]
    fn expired_requeue_wakes_a_blocked_worker() {
        let q = Arc::new(JobStore::new(4, 4));
        submit(&q, 7);
        let _leased = q.claim(Duration::from_millis(0)).unwrap();
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || q2.take());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.sweep_expired(), 1);
        assert_eq!(waiter.join().unwrap().unwrap().job.key, 7);
    }

    #[test]
    fn journal_store_records_survive_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("ahn-jobstore-test-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let store = JobStore::open(4, 4, &path).unwrap();
        assert_eq!(store.cached(), 0);
        for (key, result) in [(11, "\"one\""), (22, "\"two\"")] {
            submit(&store, key);
            let leased = store.claim(Duration::from_millis(0)).unwrap();
            assert_eq!(settle(&store, &leased, result).0, Settle::Recorded);
        }
        // A retried completion for 11 loses, so it is never journaled.
        assert_eq!(
            store.settle(0, 1, 11, Ok("\"one-retry\"".into()), || {}).0,
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
        let leased = store.claim(Duration::from_secs(60)).unwrap();
        assert_eq!(settle(&store, &leased, "\"r\""), (Settle::Recorded, true));
        let _ = std::fs::remove_file(&path);
    }

    /// An external lease expires and its cell is requeued to the pool,
    /// so the pool and the late external worker both finish it. In either
    /// order the first result stays, and the second settle neither runs
    /// its counter hook nor touches the cache, the job or coalescing.
    #[test]
    fn settle_is_first_completion_wins_in_both_orders() {
        for pool_first in [true, false] {
            let q = JobStore::new(4, 4);
            submit(&q, 5);
            let external = q.claim(Duration::from_millis(0)).unwrap();
            assert_eq!(q.sweep_expired(), 1);
            let pool = q.take().unwrap();
            assert_eq!(pool.job.id, external.job.id);

            let mut counted = 0;
            let mut finish = |leased: &LeasedJob, result: &str| {
                let job = &leased.job;
                let count = || counted += 1;
                q.settle(leased.lease_id, job.id, job.key, Ok(result.into()), count)
                    .0
            };
            let (first, second) = if pool_first {
                (&pool, &external)
            } else {
                (&external, &pool)
            };
            assert_eq!(finish(first, "\"first\""), Settle::Recorded);
            assert_eq!(finish(second, "\"second\""), Settle::Duplicate);
            assert_eq!(counted, 1, "pool_first={pool_first}");

            let job = q.status(pool.job.id).unwrap();
            assert_eq!(job.status, JobStatus::Done);
            assert_eq!(job.result.as_deref(), Some("\"first\""));
            // The cache holds the winner, and no pending job claims key 5.
            assert_eq!(submit(&q, 5), Submitted::Cached(Arc::from("\"first\"")));
            assert_eq!((q.outstanding(), q.cached()), (0, 1));
        }
    }

    #[test]
    fn outstanding_counts_queued_leased_and_pool_held_jobs() {
        let q = JobStore::new(4, 4);
        for key in 1..=3 {
            submit(&q, key);
        }
        assert_eq!(q.outstanding(), 3);
        let pool = q.take().unwrap();
        let external = q.claim(Duration::from_secs(60)).unwrap();
        // One queued, one leased externally, one held by the pool.
        assert_eq!((q.depth(), q.outstanding()), (1, 3));
        assert_eq!(settle(&q, &pool, "\"p\"").0, Settle::Recorded);
        assert_eq!(settle(&q, &external, "\"e\"").0, Settle::Recorded);
        assert_eq!(q.outstanding(), 1);
        let _ = q.take().unwrap();
        assert_eq!((q.depth(), q.outstanding()), (0, 1));
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
