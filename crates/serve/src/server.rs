//! The HTTP job server: routing, submission flow, worker wiring,
//! graceful shutdown.
//!
//! ```text
//! POST /v1/experiments   submit a JobSpec; cache hit -> result inline,
//!                        miss -> 202 + job id (503 when the queue is full)
//! POST /v1/sweeps        submit a SweepGrid; expands to one job per
//!                        cell, each cached/coalesced/queued exactly
//!                        like an equivalent /v1/experiments submission
//! POST /v1/calibrations  submit a CalibrationGrid (reconstruction
//!                        search); expands to one job per candidate x
//!                        case x seed-block cell through the same
//!                        cache/coalesce/enqueue flow
//! GET  /v1/jobs/{id}     poll a job; done -> result inline
//! GET  /v1/presets       ready-to-POST bodies for fig4/table5/ipdrp
//! GET  /v1/scenarios     the adversary-zoo registry (names usable on
//!                        a sweep grid's scenario axis)
//! GET  /healthz          liveness probe (200 while the process serves)
//! GET  /readyz           readiness probe: 200 while accepting work,
//!                        503 once draining (load balancers stop
//!                        routing; liveness stays green)
//! GET  /metrics          counters: requests, cache hit rate, queue
//!                        depth (current + peak), job compute seconds,
//!                        games/s, hardening (timeouts/breaker/drain)
//! POST /v1/work/claim    lease one queued cell to an external worker
//!                        (empty queue -> {"status":"empty"})
//! POST /v1/work/complete deliver a leased cell's result; duplicates of
//!                        an already-finished job are discarded
//! POST /v1/shutdown      graceful drain: readiness flips to 503, new
//!                        submissions answer 503, claims answer empty;
//!                        queued and leased cells get up to `drain_ms`
//!                        to finish (completions are still accepted and
//!                        journaled), then the node exits
//! ```
//!
//! Connections get one OS thread each and are kept alive: every pull
//! worker and coordinator holds one connection ([`crate::HttpTransport`]),
//! so it costs one server thread, and a load generator with N
//! connections costs N. Experiment compute runs on the bounded worker
//! pool of [`crate::jobs`], never on connection threads. Every
//! connection read runs under the [`crate::http::Deadlines`] of the
//! config — a slowloris client is evicted with 408, a connection idle
//! past `idle_timeout_ms` is closed silently (its client reconnects on
//! its next request), and neither can pin its thread past the deadline.
//! Once the server has stopped, a connection thread hangs up at the
//! next request instead of answering it.

use crate::cache::LruCache;
use crate::http::{read_request_deadlined, write_response, Deadlines, ReadOutcome, Request};
use crate::jobs::{run_job, JobStatus, JobStore, QueuedJob};
use crate::metrics::Metrics;
use crate::protocol::{
    presets, ClaimRequest, JobSpec, SubmitAck, WorkCompletion, WorkGrant, DEFAULT_LEASE_MS,
    MAX_LEASE_MS,
};
use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most cells one `POST /v1/sweeps` or `POST /v1/calibrations`
/// submission may expand to. Keeps a small hostile body from wedging
/// the connection thread with millions of cache lookups and an
/// unbounded response.
pub const MAX_SWEEP_CELLS: usize = 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7172` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads executing experiment jobs. `0` is legal and means
    /// pull-only: every job waits for an external worker to claim it
    /// via `POST /v1/work/claim`.
    pub workers: usize,
    /// Result-cache capacity (finished results, LRU-evicted).
    pub cache_cap: usize,
    /// Waiting-job capacity; a full queue answers 503.
    pub queue_cap: usize,
    /// Path of the on-disk completion journal. `None` keeps everything
    /// in memory; `Some(path)` opens a durable [`JobStore`]:
    /// every completion is appended durably and replayed into the
    /// result cache on the next boot, so a restarted node resumes
    /// without recomputing finished cells.
    pub journal: Option<String>,
    /// Total budget for reading one request (headers + body) once its
    /// request line arrived, milliseconds; a client that drips bytes
    /// slower is evicted with 408. `0` disables the deadline.
    pub read_timeout_ms: u64,
    /// Longest a keep-alive connection may sit idle between requests,
    /// milliseconds; expiry closes the connection silently. `0`
    /// disables the deadline.
    pub idle_timeout_ms: u64,
    /// Socket write timeout per response write, milliseconds; a client
    /// that stops reading its response is disconnected. `0` disables
    /// the deadline.
    pub write_timeout_ms: u64,
    /// Drain budget of a graceful shutdown, milliseconds: how long the
    /// node waits for queued, leased and in-flight cells to settle
    /// before exiting anyway. `0` exits immediately (the
    /// pre-hardening behavior).
    pub drain_ms: u64,
    /// Path of the structured trace log. `None` (the default) emits
    /// nothing; `Some(path)` appends one checksummed JSON line per span
    /// event (submit/enqueue/lease/complete/…) so a cell's lifecycle can
    /// be joined across nodes with `ahn-exp trace`.
    pub trace: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7172".into(),
            workers: 2,
            cache_cap: 128,
            queue_cap: 64,
            journal: None,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            drain_ms: 5_000,
            trace: None,
        }
    }
}

/// One finished-or-pending job in the table.
#[derive(Debug, Clone)]
struct JobRecord {
    status: JobStatus,
    result: Option<Arc<str>>,
    error: Option<String>,
}

/// Mutable server state behind one lock (cache, job table, in-flight
/// dedup map). One mutex keeps the lock ordering trivially correct; all
/// critical sections are bookkeeping-sized.
struct State {
    cache: LruCache,
    jobs: HashMap<u64, JobRecord>,
    /// cache key -> job id, for submissions while an identical job is
    /// already queued or running (request coalescing).
    inflight: HashMap<u64, u64>,
    /// Finished job ids, oldest first, for table pruning.
    finished: VecDeque<u64>,
    /// Finished jobs kept for polling before pruning.
    retain_finished: usize,
}

struct Shared {
    config: ServerConfig,
    local_addr: SocketAddr,
    metrics: Metrics,
    state: Mutex<State>,
    store: JobStore,
    next_job_id: AtomicU64,
    running: AtomicBool,
    /// Set the moment a shutdown is requested: readiness flips to 503,
    /// submissions bounce, claims answer empty. `running` only follows
    /// once the drain budget is spent or the work is settled.
    draining: AtomicBool,
    /// In-process worker threads currently inside `run_job` — the
    /// third kind of outstanding work (besides queued and leased) a
    /// drain must wait on.
    busy_jobs: AtomicU64,
    /// Structured trace log, when `--trace` is configured.
    trace: Option<TraceLog>,
    /// lease id → grant time, for the `claim_rtt_us` histogram (grant →
    /// completion accepted). Entries whose completion never arrives are
    /// pruned once older than [`MAX_LEASE_MS`].
    lease_starts: Mutex<HashMap<u64, Instant>>,
}

impl Shared {
    /// Appends a span event to the trace log, if one is configured.
    /// Never called under the state lock (trace emission does file
    /// I/O).
    fn emit(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.emit(event);
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] or POST `/v1/shutdown`.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests a graceful drain-then-stop and waits for workers and
    /// the accept loop to exit. Outstanding work (queued, leased,
    /// in-flight) gets up to `drain_ms` to settle; readiness answers
    /// 503 and new work is refused throughout.
    pub fn shutdown(self) {
        initiate_shutdown(&self.shared);
        self.join();
    }

    /// Waits until the server stops (via `/v1/shutdown` or
    /// [`ServerHandle::shutdown`]).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Binds the listener, starts the worker pool and the accept loop, and
/// returns immediately.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    // Surface the silent AHN_THREADS cap: each worker's experiment
    // fans out through the rayon shim, so the effective per-experiment
    // thread count is a real capacity parameter.
    ahn_core::threads::log_once("serve");
    let workers = config.workers;
    let mut cache = LruCache::new(config.cache_cap);
    let store = match &config.journal {
        None => JobStore::new(config.queue_cap),
        Some(path) => JobStore::open(config.queue_cap, std::path::Path::new(path))?,
    };
    // Checkpoint/resume: completions recorded by the previous
    // incarnation become cache hits, so resubmitted cells are answered
    // without recomputation.
    for record in store.recovered() {
        cache.put(record.key, Arc::from(record.result.as_str()));
    }
    // The trace node name carries the bound address so logs from several
    // serve incarnations (e.g. before/after a chaos restart) stay
    // distinguishable after joining.
    let trace = match &config.trace {
        None => None,
        Some(path) => Some(TraceLog::open(
            std::path::Path::new(path),
            &format!("serve:{local_addr}"),
        )?),
    };
    let shared = Arc::new(Shared {
        store,
        state: Mutex::new(State {
            cache,
            jobs: HashMap::new(),
            inflight: HashMap::new(),
            finished: VecDeque::new(),
            retain_finished: (4 * config.cache_cap).max(256),
        }),
        config,
        local_addr,
        metrics: Metrics::default(),
        next_job_id: AtomicU64::new(1),
        running: AtomicBool::new(true),
        draining: AtomicBool::new(false),
        busy_jobs: AtomicU64::new(0),
        trace,
        lease_starts: Mutex::new(HashMap::new()),
    });

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ahn-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("ahn-serve-accept".into())
        .spawn(move || {
            accept_loop(&accept_shared, listener);
            // The accept loop owns the workers' lifetime: once it stops
            // accepting, close the queue (idempotent) and join them.
            accept_shared.store.close();
            for handle in worker_handles {
                let _ = handle.join();
            }
        })
        .expect("spawn accept thread");

    Ok(ServerHandle { shared, accept })
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        Metrics::bump(&shared.metrics.connections_accepted);
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("ahn-serve-conn".into())
            .spawn(move || handle_connection(&conn_shared, stream));
    }
}

/// Graceful drain, then stop. The first caller flips `draining` (so
/// readiness answers 503, submissions bounce and claims answer empty),
/// waits up to `drain_ms` for outstanding work — queued cells, leased
/// cells, jobs inside in-process workers — to settle (completions keep
/// being accepted and journaled throughout), then stops the accept
/// loop, poking it with a throwaway connection so it observes the flag.
/// Leases still outstanding at the deadline are abandoned safely: their
/// cells were journaled if finished, and requeue on resubmission
/// otherwise.
fn initiate_shutdown(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // another caller is already draining
    }
    let started = Instant::now();
    let budget = Duration::from_millis(shared.config.drain_ms);
    loop {
        // The lazy lease sweep keeps running during the drain so a cell
        // abandoned by a crashed worker still requeues (and can be
        // picked up by in-process workers) instead of pinning the wait.
        let requeued = shared.store.sweep_expired();
        Metrics::add(&shared.metrics.lease_requeues, requeued as u64);
        let outstanding =
            shared.store.outstanding() + shared.busy_jobs.load(Ordering::SeqCst) as usize;
        Metrics::set(
            &shared.metrics.drain_nanos,
            started.elapsed().as_nanos() as u64,
        );
        if outstanding == 0 || started.elapsed() >= budget {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    shared.running.store(false, Ordering::SeqCst);
    shared.store.close();
    let _ = TcpStream::connect(shared.local_addr);
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let millis = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let deadlines = Deadlines {
        idle: millis(shared.config.idle_timeout_ms),
        request: millis(shared.config.read_timeout_ms),
    };
    if stream
        .set_write_timeout(millis(shared.config.write_timeout_ms))
        .is_err()
    {
        return;
    }
    let mut stream = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        match read_request_deadlined(&mut reader, &deadlines) {
            Ok(ReadOutcome::Request(req)) => {
                // A kept connection outlives the listener: once the
                // server has stopped, hang up rather than answer from a
                // detached thread, so the client sees the node is gone.
                if !shared.running.load(Ordering::SeqCst) {
                    break;
                }
                Metrics::bump(&shared.metrics.http_requests);
                let started = Instant::now();
                let (status, body, shutdown) = route(shared, &req);
                shared
                    .metrics
                    .request_histogram(&req.path)
                    .record(started.elapsed().as_micros() as u64);
                let write_ok = write_response(&mut stream, status, &body, req.close).is_ok();
                if shutdown {
                    initiate_shutdown(shared);
                }
                if !write_ok || req.close || shutdown {
                    break;
                }
            }
            Ok(ReadOutcome::Malformed(reason)) => {
                Metrics::bump(&shared.metrics.http_requests);
                let _ = write_response(&mut stream, 400, &error_body(&reason), true);
                break;
            }
            Ok(ReadOutcome::TimedOut) => {
                // A started-but-stalled request: evict loudly so the
                // slowloris shows up in metrics, then hang up.
                Metrics::bump(&shared.metrics.requests_timed_out);
                let _ = write_response(&mut stream, 408, &error_body("request deadline"), true);
                break;
            }
            Ok(ReadOutcome::Closed) | Err(_) => break,
        }
    }
}

/// Dispatches one request; returns `(status, body, initiate_shutdown)`.
fn route(shared: &Arc<Shared>, req: &Request) -> (u16, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".into(), false),
        ("GET", "/readyz") => {
            // Readiness, distinct from liveness: a draining node is
            // alive (finishing work, accepting completions) but must
            // not receive new traffic.
            if shared.draining.load(Ordering::SeqCst) {
                (503, "{\"status\":\"draining\"}".into(), false)
            } else {
                (200, "{\"status\":\"ready\"}".into(), false)
            }
        }
        ("GET", "/metrics") => {
            // A metrics scrape doubles as a lazy lease sweep: cells
            // abandoned by crashed workers are requeued here (and on
            // every claim/complete), never by a background thread — an
            // idle node does zero work between requests.
            let requeued = shared.store.sweep_expired();
            Metrics::add(&shared.metrics.lease_requeues, requeued as u64);
            let (queue_depth, cached) = {
                let state = shared.state.lock().expect("state lock");
                (shared.store.depth(), state.cache.len())
            };
            let snapshot = shared
                .metrics
                .snapshot(queue_depth, cached, shared.config.workers);
            match serde_json::to_string(&snapshot) {
                Ok(body) => (200, body, false),
                Err(e) => (500, error_body(&e.to_string()), false),
            }
        }
        ("GET", "/v1/presets") => match serde_json::to_string(&presets()) {
            Ok(body) => (200, body, false),
            Err(e) => (500, error_body(&e.to_string()), false),
        },
        // The adversary-zoo registry: pure data straight from
        // `ahn_core::scenarios`, so clients can enumerate the scenario
        // axis they may put in a `/v1/sweeps` grid.
        ("GET", "/v1/scenarios") => match serde_json::to_string(&ahn_core::builtin_scenarios()) {
            Ok(body) => (200, body, false),
            Err(e) => (500, error_body(&e.to_string()), false),
        },
        // A draining node takes no new work: submissions answer 503 so
        // callers retry elsewhere (or later), and claims answer empty
        // so pull workers idle out instead of erroring. Completions for
        // work already leased keep landing below.
        ("POST", "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations")
            if shared.draining.load(Ordering::SeqCst) =>
        {
            (
                503,
                error_body("server is draining, no new submissions"),
                false,
            )
        }
        ("POST", "/v1/work/claim") if shared.draining.load(Ordering::SeqCst) => {
            Metrics::bump(&shared.metrics.work_claim_empty);
            (
                200,
                "{\"status\":\"empty\",\"reason\":\"draining\"}".into(),
                false,
            )
        }
        ("POST", "/v1/experiments") => submit(shared, &req.body),
        ("POST", "/v1/sweeps") => submit_sweep(shared, &req.body),
        ("POST", "/v1/calibrations") => submit_calibration(shared, &req.body),
        ("POST", "/v1/work/claim") => work_claim(shared, &req.body),
        ("POST", "/v1/work/complete") => work_complete(shared, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path),
        ("POST", "/v1/shutdown") => (200, "{\"status\":\"shutting-down\"}".into(), true),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/presets" | "/v1/scenarios"
            | "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations" | "/v1/work/claim"
            | "/v1/work/complete" | "/v1/shutdown",
        ) => (405, error_body("method not allowed"), false),
        (_, path) if path.starts_with("/v1/jobs/") => {
            (405, error_body("method not allowed"), false)
        }
        _ => (404, error_body("no such route"), false),
    }
}

/// How one cache/coalesce/enqueue attempt ended — shared by the
/// single-experiment and sweep submission routes.
enum SubmitOutcome {
    /// The result was already cached; the JSON is ready to embed.
    Cached(Arc<str>),
    /// A job covers this spec (freshly queued, or an identical
    /// in-flight job the caller was attached to).
    Job { id: u64, status: JobStatus },
    /// The queue is full; nothing was recorded.
    QueueFull,
}

/// Runs one resolved, validated spec through the cache lookup →
/// coalesce → enqueue flow, bumping the submission metrics and emitting
/// the cell's root trace spans (submit/enqueue/coalesce).
fn submit_spec(shared: &Arc<Shared>, spec: JobSpec, key: u64) -> SubmitOutcome {
    /// Which path the submission took, remembered across the lock scope
    /// so trace emission (file I/O) happens after the lock is released.
    enum Flow {
        Hit,
        Coalesced(u64),
        Enqueued(u64),
        Rejected,
    }
    let (outcome, flow) = {
        let mut state = shared.state.lock().expect("state lock");
        Metrics::bump(&shared.metrics.submissions);

        if let Some(result) = state.cache.get(key) {
            Metrics::bump(&shared.metrics.cache_hits);
            (SubmitOutcome::Cached(result), Flow::Hit)
        } else if let Some(&job_id) = state.inflight.get(&key) {
            // An identical job is already queued or running: attach the
            // caller to it instead of recomputing.
            Metrics::bump(&shared.metrics.coalesced);
            let status = state
                .jobs
                .get(&job_id)
                .map(|r| r.status)
                .unwrap_or(JobStatus::Queued);
            (
                SubmitOutcome::Job { id: job_id, status },
                Flow::Coalesced(job_id),
            )
        } else {
            Metrics::bump(&shared.metrics.cache_misses);
            let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            state.jobs.insert(
                id,
                JobRecord {
                    status: JobStatus::Queued,
                    result: None,
                    error: None,
                },
            );
            state.inflight.insert(key, id);
            // Enqueue while holding the state lock so a worker cannot
            // finish the job before its record and inflight entry exist.
            let queued = QueuedJob {
                id,
                key,
                spec,
                enqueued_at: Instant::now(),
            };
            if shared.store.try_push(queued).is_err() {
                state.jobs.remove(&id);
                state.inflight.remove(&key);
                Metrics::bump(&shared.metrics.rejected_queue_full);
                (SubmitOutcome::QueueFull, Flow::Rejected)
            } else {
                Metrics::raise(
                    &shared.metrics.queue_depth_peak,
                    shared.store.depth() as u64,
                );
                (
                    SubmitOutcome::Job {
                        id,
                        status: JobStatus::Queued,
                    },
                    Flow::Enqueued(id),
                )
            }
        }
    };
    if shared.trace.is_some() {
        let tid = trace_id_of_key(key);
        match flow {
            Flow::Hit => shared.emit(
                TraceEvent::new(tid, "submit")
                    .key(key)
                    .outcome(true)
                    .detail("cache_hit".into()),
            ),
            Flow::Coalesced(id) => shared.emit(TraceEvent::new(tid, "coalesce").key(key).job(id)),
            Flow::Enqueued(id) => {
                shared.emit(TraceEvent::new(tid, "submit").key(key).job(id));
                shared.emit(TraceEvent::new(tid, "enqueue").key(key).job(id));
            }
            Flow::Rejected => shared.emit(
                TraceEvent::new(tid, "submit")
                    .key(key)
                    .outcome(false)
                    .detail("queue_full".into()),
            ),
        }
    }
    outcome
}

/// The `POST /v1/experiments` flow: parse, resolve, validate, hash,
/// then the shared [`submit_spec`] flow.
fn submit(shared: &Arc<Shared>, body: &[u8]) -> (u16, String, bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8"), false),
    };
    let spec: JobSpec = match serde_json::from_str(text) {
        Ok(s) => s,
        Err(e) => {
            return (
                400,
                error_body(&format!("cannot parse JobSpec: {e}")),
                false,
            )
        }
    };
    let spec = match spec.resolve() {
        Ok(s) => s,
        Err(e) => return (400, error_body(&e), false),
    };
    if let Err(e) = spec.validate() {
        return (400, error_body(&e), false);
    }
    let key = match spec.cache_key() {
        Ok(k) => k,
        Err(e) => return (500, error_body(&e), false),
    };

    match submit_spec(shared, spec, key) {
        // Format outside the critical section: the response embeds the
        // whole result JSON, and an O(result-size) copy under the state
        // lock would serialize the cache-hit hot path.
        SubmitOutcome::Cached(result) => (
            200,
            format!("{{\"job_id\":null,\"status\":\"done\",\"cached\":true,\"result\":{result}}}"),
            false,
        ),
        SubmitOutcome::Job { id, status } => {
            let ack = SubmitAck {
                job_id: id,
                status: status.as_str().into(),
                cached: false,
            };
            (
                202,
                serde_json::to_string(&ack).unwrap_or_else(|_| "{}".into()),
                false,
            )
        }
        SubmitOutcome::QueueFull => (503, error_body("job queue is full, retry later"), false),
    }
}

/// Validates, hashes and submits one expanded grid cell, formatting its
/// response entry (shared by the sweep and calibration routes); errors
/// carry the ready-to-send `(status, body)`.
fn submit_cell_entry(
    shared: &Arc<Shared>,
    spec: JobSpec,
    coords: &str,
) -> Result<String, (u16, String)> {
    if let Err(e) = spec.validate() {
        return Err((400, error_body(&e)));
    }
    let key = spec.cache_key().map_err(|e| (500, error_body(&e)))?;
    Ok(match submit_spec(shared, spec, key) {
        SubmitOutcome::Cached(result) => format!(
            "{{\"spec\":{coords},\"job_id\":null,\"status\":\"done\",\
             \"cached\":true,\"result\":{result}}}"
        ),
        SubmitOutcome::Job { id, status } => format!(
            "{{\"spec\":{coords},\"job_id\":{id},\"status\":\"{}\",\"cached\":false}}",
            status.as_str()
        ),
        SubmitOutcome::QueueFull => format!(
            "{{\"spec\":{coords},\"job_id\":null,\"status\":\"rejected\",\
             \"cached\":false}}"
        ),
    })
}

/// The `POST /v1/sweeps` flow: parse a [`ahn_core::sweeps::SweepGrid`],
/// expand it to one single-case experiment job per cell, and run every
/// cell through the same cache/coalesce/enqueue flow as
/// `POST /v1/experiments`. Because a cell's job spec is byte-identical
/// to the equivalent direct submission, cells share the result cache
/// with single experiments (and with every other sweep that contains
/// them).
///
/// The response is one entry per cell, in grid order: cached cells
/// carry their result inline, fresh/coalesced cells a `job_id` to poll
/// at `GET /v1/jobs/{id}`, and cells bounced by a full queue the status
/// `"rejected"` (the caller retries just those).
fn submit_sweep(shared: &Arc<Shared>, body: &[u8]) -> (u16, String, bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8"), false),
    };
    let grid: ahn_core::sweeps::SweepGrid = match serde_json::from_str(text) {
        Ok(g) => g,
        Err(e) => {
            return (
                400,
                error_body(&format!("cannot parse SweepGrid: {e}")),
                false,
            )
        }
    };
    // Cap the expansion before anything O(cells) runs (validation
    // included): a kilobyte of repeated axis values would otherwise
    // expand to millions of cells of server-side work and an unbounded
    // response body.
    if grid.cell_count() > MAX_SWEEP_CELLS {
        return (
            400,
            error_body(&format!(
                "sweep expands to {} cells, above the server cap of {MAX_SWEEP_CELLS}; \
                 split the grid into smaller submissions",
                grid.cell_count()
            )),
            false,
        );
    }
    if let Err(e) = grid.validate() {
        return (400, error_body(&e), false);
    }

    let mut cells = Vec::with_capacity(grid.cell_count());
    for cell_spec in grid.cell_specs() {
        let (config, case) = match grid.resolve(&cell_spec) {
            Ok(resolved) => resolved,
            Err(e) => return (400, error_body(&e), false),
        };
        let spec = JobSpec::Experiment {
            config,
            cases: vec![case],
        };
        let spec_json = serde_json::to_string(&cell_spec).unwrap_or_else(|_| "{}".into());
        match submit_cell_entry(shared, spec, &spec_json) {
            Ok(entry) => cells.push(entry),
            Err((status, body)) => return (status, body, false),
        }
    }
    let body = format!("{{\"cells\":[{}]}}", cells.join(","));
    (200, body, false)
}

/// The `POST /v1/calibrations` flow: parse an
/// [`ahn_core::calibrate::CalibrationGrid`], expand it to one
/// single-case experiment job per candidate × case × seed-block cell,
/// and run every cell through the same cache/coalesce/enqueue flow as
/// `POST /v1/experiments`. A calibration cell resolves to exactly the
/// `(config, case)` pair the equivalent direct submission or sweep
/// would use, so repeated searches — and searches overlapping a sweep —
/// hit the result cache per cell.
///
/// The response lists one entry per cell in deterministic order
/// (candidates outermost, then the candidate's sweep-cell order):
/// cached cells carry their result inline, fresh/coalesced cells a
/// `job_id`, queue-bounced cells the status `"rejected"`.
fn submit_calibration(shared: &Arc<Shared>, body: &[u8]) -> (u16, String, bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8"), false),
    };
    let grid: ahn_core::calibrate::CalibrationGrid = match serde_json::from_str(text) {
        Ok(g) => g,
        Err(e) => {
            return (
                400,
                error_body(&format!("cannot parse CalibrationGrid: {e}")),
                false,
            )
        }
    };
    // Cap the expansion before anything O(cells) runs, like /v1/sweeps.
    if grid.cell_count() > MAX_SWEEP_CELLS {
        return (
            400,
            error_body(&format!(
                "calibration expands to {} cells, above the server cap of {MAX_SWEEP_CELLS}; \
                 lower max_candidates or split the search",
                grid.cell_count()
            )),
            false,
        );
    }
    if let Err(e) = grid.validate() {
        return (400, error_body(&e), false);
    }

    let mut cells = Vec::with_capacity(grid.cell_count());
    for candidate in grid.candidates() {
        let sweep = match grid.sweep_for(&candidate) {
            Ok(s) => s,
            Err(e) => return (400, error_body(&e), false),
        };
        for cell_spec in sweep.cell_specs() {
            let (config, case) = match sweep.resolve(&cell_spec) {
                Ok(resolved) => resolved,
                Err(e) => return (400, error_body(&e), false),
            };
            let spec = JobSpec::Experiment {
                config,
                cases: vec![case],
            };
            let coords = format!(
                "{{\"candidate\":{},\"case_no\":{},\"seed_block\":{}}}",
                candidate.id, cell_spec.case_no, cell_spec.seed_block
            );
            match submit_cell_entry(shared, spec, &coords) {
                Ok(entry) => cells.push(entry),
                Err((status, body)) => return (status, body, false),
            }
        }
    }
    let body = format!("{{\"cells\":[{}]}}", cells.join(","));
    (200, body, false)
}

/// The `GET /v1/jobs/{id}` flow.
fn job_status(shared: &Arc<Shared>, path: &str) -> (u16, String, bool) {
    let id_text = &path["/v1/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return (400, error_body(&format!("bad job id {id_text:?}")), false);
    };
    // Copy the record's cheap parts (the result is an Arc) and format
    // outside the critical section.
    let record = {
        let state = shared.state.lock().expect("state lock");
        match state.jobs.get(&id) {
            Some(record) => record.clone(),
            None => {
                return (
                    404,
                    error_body("no such job (pruned or never created)"),
                    false,
                )
            }
        }
    };
    let body = match record.status {
        JobStatus::Done => {
            let result = record.result.as_deref().unwrap_or("null");
            format!("{{\"job_id\":{id},\"status\":\"done\",\"result\":{result}}}")
        }
        JobStatus::Failed => {
            let error = serde_json::to_string(record.error.as_deref().unwrap_or("unknown"))
                .unwrap_or_else(|_| "\"unknown\"".into());
            format!("{{\"job_id\":{id},\"status\":\"failed\",\"error\":{error}}}")
        }
        status => format!("{{\"job_id\":{id},\"status\":\"{}\"}}", status.as_str()),
    };
    (200, body, false)
}

/// The `POST /v1/work/claim` flow: sweep expired leases (the only
/// sweep trigger besides `/v1/work/complete` and `/metrics` — request
/// driven, so an idle node never spins), then lease the front of the
/// queue to the caller. An empty queue answers `{"status":"empty"}`.
fn work_claim(shared: &Arc<Shared>, body: &[u8]) -> (u16, String, bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8"), false),
    };
    let request: ClaimRequest = if text.trim().is_empty() {
        ClaimRequest::default()
    } else {
        match serde_json::from_str(text) {
            Ok(r) => r,
            Err(e) => {
                return (
                    400,
                    error_body(&format!("cannot parse claim request: {e}")),
                    false,
                )
            }
        }
    };
    let lease_ms = request
        .lease_ms
        .unwrap_or(DEFAULT_LEASE_MS)
        .clamp(1, MAX_LEASE_MS);
    // Fold worker-reported breaker trips into the fleet-wide counter
    // (best-effort telemetry; deltas lost with a dropped claim are
    // re-sent with the worker's next claim).
    if let Some(trips) = request.breaker_trips {
        Metrics::add(&shared.metrics.breaker_open_total, trips);
    }
    // Same contract for backoff sleep: each claim samples the worker's
    // sleep total since its last acknowledged claim.
    if let Some(backoff_ms) = request.backoff_ms {
        shared.metrics.backoff_sleep_ms.record(backoff_ms);
    }

    let requeued = shared.store.sweep_expired();
    Metrics::add(&shared.metrics.lease_requeues, requeued as u64);

    loop {
        let Some(leased) = shared.store.claim(Duration::from_millis(lease_ms)) else {
            Metrics::bump(&shared.metrics.work_claim_empty);
            return (200, "{\"status\":\"empty\"}".into(), false);
        };
        // A requeued copy of a job can race its own late completion;
        // skip anything already settled instead of handing out a cell
        // whose result is in the cache.
        let still_pending = {
            let mut state = shared.state.lock().expect("state lock");
            match state.jobs.get_mut(&leased.job.id) {
                Some(record) if matches!(record.status, JobStatus::Queued | JobStatus::Running) => {
                    record.status = JobStatus::Running;
                    true
                }
                _ => false,
            }
        };
        if !still_pending {
            shared.store.complete_lease(leased.lease_id);
            continue;
        }
        Metrics::bump(&shared.metrics.work_claims);
        // The cell just left the queue: that ends its queue wait and
        // starts its claim round trip.
        shared
            .metrics
            .queue_wait_us
            .record(leased.job.enqueued_at.elapsed().as_micros() as u64);
        {
            let mut starts = shared.lease_starts.lock().expect("lease starts lock");
            // Completions that never arrive would leak entries; drop
            // anything older than the longest possible lease.
            if starts.len() >= 1024 {
                let horizon = Duration::from_millis(MAX_LEASE_MS);
                starts.retain(|_, at| at.elapsed() < horizon);
            }
            starts.insert(leased.lease_id, Instant::now());
        }
        let trace_id = trace_id_of_key(leased.job.key);
        shared.emit(
            TraceEvent::new(trace_id, "lease")
                .key(leased.job.key)
                .job(leased.job.id)
                .lease(leased.lease_id),
        );
        let grant = WorkGrant {
            lease_id: leased.lease_id,
            job_id: leased.job.id,
            key: leased.job.key,
            lease_ms,
            trace_id: Some(trace_id),
            spec: leased.job.spec,
        };
        return match serde_json::to_string(&grant) {
            Ok(body) => (200, body, false),
            Err(e) => (500, error_body(&e.to_string()), false),
        };
    }
}

/// The `POST /v1/work/complete` flow, mirroring the bookkeeping of
/// [`worker_loop`]: first completion wins (`{"status":"recorded"}`),
/// later deliveries for the same job — retried leases, expired leases
/// whose worker finished late — are discarded as
/// `{"status":"duplicate"}`. The completion is accepted even when the
/// lease already expired: the result is still bit-identical, only the
/// lease bookkeeping is gone.
fn work_complete(shared: &Arc<Shared>, body: &[u8]) -> (u16, String, bool) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (400, error_body("body is not UTF-8"), false),
    };
    let completion: WorkCompletion = match serde_json::from_str(text) {
        Ok(c) => c,
        Err(e) => {
            return (
                400,
                error_body(&format!("cannot parse completion: {e}")),
                false,
            )
        }
    };
    if completion.result.is_some() == completion.error.is_some() {
        return (
            400,
            error_body("exactly one of result and error must be set"),
            false,
        );
    }
    let requeued = shared.store.sweep_expired();
    Metrics::add(&shared.metrics.lease_requeues, requeued as u64);
    shared.store.complete_lease(completion.lease_id);

    // The completion ends the lease's round trip (grant → accepted);
    // expired leases whose start was pruned simply go unsampled.
    if let Some(granted_at) = shared
        .lease_starts
        .lock()
        .expect("lease starts lock")
        .remove(&completion.lease_id)
    {
        shared
            .metrics
            .claim_rtt_us
            .record(granted_at.elapsed().as_micros() as u64);
    }
    // Compute time is worker-measured: the server cannot see the remote
    // clock, so it trusts the self-report (telemetry, not accounting).
    if let Some(compute_us) = completion.compute_us {
        shared.metrics.job_compute_us.record(compute_us);
    }
    let trace_id = trace_id_of_key(completion.key);

    let mut state = shared.state.lock().expect("state lock");
    let status = match state.jobs.get(&completion.job_id) {
        Some(record) => record.status,
        None => {
            return (
                404,
                error_body("no such job (pruned or never created)"),
                false,
            )
        }
    };
    if matches!(status, JobStatus::Done | JobStatus::Failed) {
        Metrics::bump(&shared.metrics.work_duplicate);
        drop(state);
        shared.emit(
            TraceEvent::new(trace_id, "duplicate")
                .key(completion.key)
                .job(completion.job_id)
                .lease(completion.lease_id),
        );
        return (200, "{\"status\":\"duplicate\"}".into(), false);
    }
    // Idempotency cross-check: while a job is pending its cache key is
    // in the inflight map, so a completion whose key disagrees with the
    // server's record is a client bug, not a mergeable result.
    if state.inflight.get(&completion.key) != Some(&completion.job_id) {
        return (
            400,
            error_body("completion key does not match the job's spec hash"),
            false,
        );
    }

    let mut recorded: Option<Arc<str>> = None;
    match &completion.result {
        Some(json) => {
            let result: Arc<str> = Arc::from(json.as_str());
            state.cache.put(completion.key, Arc::clone(&result));
            if let Some(record) = state.jobs.get_mut(&completion.job_id) {
                record.status = JobStatus::Done;
                record.result = Some(Arc::clone(&result));
            }
            recorded = Some(result);
            Metrics::bump(&shared.metrics.jobs_completed);
            Metrics::bump(&shared.metrics.work_completed);
            // Externally computed cells count here, *not* in
            // `games_simulated`: that gauge stays honest local compute
            // (this node never simulated these games).
            Metrics::bump(&shared.metrics.cells_completed_external);
        }
        None => {
            if let Some(record) = state.jobs.get_mut(&completion.job_id) {
                record.status = JobStatus::Failed;
                record.error = completion.error.clone();
            }
            Metrics::bump(&shared.metrics.jobs_failed);
        }
    }
    state.inflight.remove(&completion.key);
    state.finished.push_back(completion.job_id);
    while state.finished.len() > state.retain_finished {
        if let Some(old) = state.finished.pop_front() {
            state.jobs.remove(&old);
        }
    }
    drop(state);
    // Journal outside the state lock: durability is per-store (no-op in
    // memory, one flushed line on disk) and must not serialize requests.
    if let Some(result) = recorded {
        shared.store.record_completion(completion.key, &result);
    }
    let mut complete = TraceEvent::new(trace_id, "complete")
        .key(completion.key)
        .job(completion.job_id)
        .lease(completion.lease_id)
        .outcome(completion.result.is_some());
    if let Some(compute_us) = completion.compute_us {
        complete = complete.dur_us(compute_us);
    }
    shared.emit(complete);
    (200, "{\"status\":\"recorded\"}".into(), false)
}

/// Worker thread body: drain the queue until it closes.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.store.pop_blocking() {
        // A requeued copy of a job an external worker finished late is
        // already settled; skip it rather than recompute.
        let still_pending = {
            let mut state = shared.state.lock().expect("state lock");
            match state.jobs.get_mut(&job.id) {
                Some(record) if matches!(record.status, JobStatus::Queued | JobStatus::Running) => {
                    record.status = JobStatus::Running;
                    true
                }
                _ => false,
            }
        };
        if !still_pending {
            continue;
        }

        // Visible to the drain loop: a job inside `run_job` is neither
        // queued nor leased, but a drain must still wait for it.
        shared.busy_jobs.fetch_add(1, Ordering::SeqCst);
        shared
            .metrics
            .queue_wait_us
            .record(job.enqueued_at.elapsed().as_micros() as u64);
        let trace_id = trace_id_of_key(job.key);
        let started = Instant::now();
        let outcome = run_job(&job.spec);
        let elapsed_nanos = started.elapsed().as_nanos() as u64;
        shared.metrics.job_compute_us.record(elapsed_nanos / 1_000);
        shared.emit(
            TraceEvent::new(trace_id, "compute")
                .key(job.key)
                .job(job.id)
                .dur_us(elapsed_nanos / 1_000)
                .outcome(outcome.is_ok()),
        );

        if let Ok(json) = &outcome {
            // Durable before visible: journal the completion (no-op in
            // memory) outside the state lock.
            shared.store.record_completion(job.key, json);
        }
        let mut state = shared.state.lock().expect("state lock");
        match outcome {
            Ok(json) => {
                let result: Arc<str> = Arc::from(json);
                state.cache.put(job.key, Arc::clone(&result));
                if let Some(record) = state.jobs.get_mut(&job.id) {
                    record.status = JobStatus::Done;
                    record.result = Some(result);
                }
                Metrics::bump(&shared.metrics.jobs_completed);
                Metrics::add(&shared.metrics.games_simulated, job.spec.games());
                Metrics::add(&shared.metrics.busy_nanos, elapsed_nanos);
            }
            Err(error) => {
                if let Some(record) = state.jobs.get_mut(&job.id) {
                    record.status = JobStatus::Failed;
                    record.error = Some(error);
                }
                Metrics::bump(&shared.metrics.jobs_failed);
            }
        }
        let succeeded = state
            .jobs
            .get(&job.id)
            .map(|r| r.status == JobStatus::Done)
            .unwrap_or(false);
        state.inflight.remove(&job.key);
        state.finished.push_back(job.id);
        while state.finished.len() > state.retain_finished {
            if let Some(old) = state.finished.pop_front() {
                state.jobs.remove(&old);
            }
        }
        drop(state);
        shared.emit(
            TraceEvent::new(trace_id, "complete")
                .key(job.key)
                .job(job.id)
                .outcome(succeeded),
        );
        // Decrement only after the result is visible: the drain loop
        // must not observe zero outstanding work while a completed
        // job's bookkeeping is still in flight.
        shared.busy_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `{"error": <json-escaped message>}`.
fn error_body(message: &str) -> String {
    format!(
        "{{\"error\":{}}}",
        serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into())
    )
}
