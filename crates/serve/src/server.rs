//! The HTTP job server: routing, request decoding, response encoding,
//! metrics and spans. A job's state and lifecycle — result cache, job
//! table, coalescing, queue, leases, journal, first-completion-wins
//! settling — belong to the [`JobStore`] of [`crate::jobs`]; this module
//! turns requests into store calls and store outcomes into responses,
//! counters and trace events.
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
//! pool, which drains the same queue as the pull workers, never on
//! connection threads. Every
//! connection read runs under the [`crate::http::Deadlines`] of the
//! config — a slowloris client is evicted with 408, a connection idle
//! past `idle_timeout_ms` is closed silently (its client reconnects on
//! its next request), and neither can pin its thread past the deadline.
//! Once the server has stopped, a connection thread hangs up at the
//! next request instead of answering it.

use crate::http::{read_request_deadlined, write_response, Deadlines, ReadOutcome, Request};
use crate::jobs::{run_job, JobStatus, JobStore, LeasedJob, Settle, Submitted};
use crate::metrics::Metrics;
use crate::protocol::{
    presets, ClaimRequest, JobSpec, SubmitAck, WorkCompletion, WorkGrant, DEFAULT_LEASE_MS,
    MAX_LEASE_MS,
};
use ahn_core::{GridCells, SweepGrid};
use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

struct Shared {
    config: ServerConfig,
    local_addr: SocketAddr,
    metrics: Metrics,
    store: JobStore,
    running: AtomicBool,
    /// Set the moment a shutdown is requested: readiness flips to 503,
    /// submissions bounce, claims answer empty. `running` only follows
    /// once the drain budget is spent or the work is settled.
    draining: AtomicBool,
    /// Structured trace log, when `--trace` is configured.
    trace: Option<TraceLog>,
}

impl Shared {
    /// Appends a span event to the trace log, if one is configured.
    /// Never called under the store lock (trace emission does file
    /// I/O).
    fn emit(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.emit(event);
        }
    }

    /// Requeues expired leases, counting them. Sweeps are request
    /// driven (claims, completions, `/metrics`, the drain loop), so an
    /// idle node never spins.
    fn sweep_expired(&self) {
        let requeued = self.store.sweep_expired();
        Metrics::add(&self.metrics.lease_requeues, requeued as u64);
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
    // Checkpoint/resume: a durable store replays the previous
    // incarnation's completions into its result cache, so resubmitted
    // cells are answered without recomputation.
    let store = match &config.journal {
        None => JobStore::new(config.queue_cap, config.cache_cap),
        Some(path) => JobStore::open(config.queue_cap, config.cache_cap, path.as_ref())?,
    };
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
        config,
        local_addr,
        metrics: Metrics::default(),
        running: AtomicBool::new(true),
        draining: AtomicBool::new(false),
        trace,
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
        shared.sweep_expired();
        let outstanding = shared.store.outstanding();
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

fn handle_connection(shared: &Shared, stream: TcpStream) {
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
                let (status, body) = route(shared, &req).unwrap_or_else(|reply| reply);
                shared
                    .metrics
                    .request_histogram(&req.path)
                    .record(started.elapsed().as_micros() as u64);
                let write_ok = write_response(&mut stream, status, &body, req.close).is_ok();
                let shutdown = req.method == "POST" && req.path == "/v1/shutdown";
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

/// A response: status and JSON body. Handlers return `Err` with a
/// ready error response, so request decoding can use `?`.
type Reply = (u16, String);

/// Dispatches one request. `POST /v1/shutdown` answers here; the
/// connection loop then starts the drain.
fn route(shared: &Shared, req: &Request) -> Result<Reply, Reply> {
    let draining = shared.draining.load(Ordering::SeqCst);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok((200, "{\"status\":\"ok\"}".into())),
        // Readiness, distinct from liveness: a draining node is alive
        // (finishing work, accepting completions) but must not receive
        // new traffic.
        ("GET", "/readyz") if draining => Ok((503, "{\"status\":\"draining\"}".into())),
        ("GET", "/readyz") => Ok((200, "{\"status\":\"ready\"}".into())),
        ("GET", "/metrics") => {
            // A metrics scrape doubles as a lazy lease sweep: cells
            // abandoned by crashed workers are requeued here (and on
            // every claim/complete), never by a background thread — an
            // idle node does zero work between requests.
            shared.sweep_expired();
            let (depth, cached) = (shared.store.depth(), shared.store.cached());
            let snapshot = shared
                .metrics
                .snapshot(depth, cached, shared.config.workers);
            Ok(json(&snapshot))
        }
        ("GET", "/v1/presets") => Ok(json(&presets())),
        // The adversary-zoo registry: pure data straight from
        // `ahn_core::scenarios`, so clients can enumerate the scenario
        // axis they may put in a `/v1/sweeps` grid.
        ("GET", "/v1/scenarios") => Ok(json(&ahn_core::builtin_scenarios())),
        // A draining node takes no new work: submissions answer 503 so
        // callers retry elsewhere (or later), and claims answer empty
        // so pull workers idle out instead of erroring. Completions for
        // work already leased keep landing below.
        ("POST", "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations") if draining => {
            Ok((503, error_body("server is draining, no new submissions")))
        }
        ("POST", "/v1/work/claim") if draining => {
            Metrics::bump(&shared.metrics.work_claim_empty);
            Ok((200, "{\"status\":\"empty\",\"reason\":\"draining\"}".into()))
        }
        ("POST", "/v1/experiments") => submit(shared, &req.body),
        ("POST", "/v1/sweeps") => submit_sweep(shared, &req.body),
        ("POST", "/v1/calibrations") => submit_calibration(shared, &req.body),
        ("POST", "/v1/work/claim") => work_claim(shared, &req.body),
        ("POST", "/v1/work/complete") => work_complete(shared, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => job_status(shared, path),
        ("POST", "/v1/shutdown") => Ok((200, "{\"status\":\"shutting-down\"}".into())),
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/presets" | "/v1/scenarios"
            | "/v1/experiments" | "/v1/sweeps" | "/v1/calibrations" | "/v1/work/claim"
            | "/v1/work/complete" | "/v1/shutdown",
        ) => Err((405, error_body("method not allowed"))),
        (_, path) if path.starts_with("/v1/jobs/") => Err((405, error_body("method not allowed"))),
        _ => Err((404, error_body("no such route"))),
    }
}

/// Decodes a JSON request body; a body that is not UTF-8, or not a
/// `what`, is a 400.
fn decode<T: serde::de::DeserializeOwned>(body: &[u8], what: &str) -> Result<T, Reply> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| bad_request(&format!("cannot parse {what}: {e}")))
}

/// Runs one resolved, validated spec through hashing and the store's
/// cache → coalesce → enqueue flow, counting the submission and
/// emitting the cell's root trace spans (submit/enqueue/coalesce).
fn submit_spec(shared: &Shared, spec: JobSpec) -> Result<Submitted, Reply> {
    let key = spec.cache_key().map_err(|e| (500, error_body(&e)))?;
    let metrics = &shared.metrics;
    Metrics::bump(&metrics.submissions);
    let submitted = shared.store.submit(spec, key);
    match &submitted {
        Submitted::Cached(_) => Metrics::bump(&metrics.cache_hits),
        Submitted::Coalesced { .. } => Metrics::bump(&metrics.coalesced),
        Submitted::Enqueued { depth, .. } => {
            Metrics::bump(&metrics.cache_misses);
            Metrics::raise(&metrics.queue_depth_peak, *depth as u64);
        }
        Submitted::QueueFull => {
            Metrics::bump(&metrics.cache_misses);
            Metrics::bump(&metrics.rejected_queue_full);
        }
    }
    if shared.trace.is_some() {
        let event = |span: &str| TraceEvent::new(trace_id_of_key(key), span).key(key);
        match &submitted {
            Submitted::Cached(_) => {
                shared.emit(event("submit").outcome(true).detail("cache_hit".into()))
            }
            Submitted::Coalesced { id, .. } => shared.emit(event("coalesce").job(*id)),
            Submitted::Enqueued { id, .. } => {
                shared.emit(event("submit").job(*id));
                shared.emit(event("enqueue").job(*id));
            }
            Submitted::QueueFull => {
                shared.emit(event("submit").outcome(false).detail("queue_full".into()))
            }
        }
    }
    Ok(submitted)
}

/// The `POST /v1/experiments` flow: decode, resolve, validate, then
/// [`submit_spec`].
fn submit(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let spec = decode::<JobSpec>(body, "JobSpec")?;
    let spec = spec.resolve().map_err(|e| bad_request(&e))?;
    spec.validate().map_err(|e| bad_request(&e))?;
    let ack = |job_id: u64, status: JobStatus| {
        let ack = SubmitAck {
            job_id,
            status: status.as_str().into(),
            cached: false,
        };
        (
            202,
            serde_json::to_string(&ack).unwrap_or_else(|_| "{}".into()),
        )
    };
    Ok(match submit_spec(shared, spec)? {
        // Format outside the store lock: the response embeds the whole
        // result JSON, and an O(result-size) copy under the lock would
        // serialize the cache-hit hot path.
        Submitted::Cached(result) => (
            200,
            format!("{{\"job_id\":null,\"status\":\"done\",\"cached\":true,\"result\":{result}}}"),
        ),
        Submitted::Coalesced { id, status } => ack(id, status),
        Submitted::Enqueued { id, .. } => ack(id, JobStatus::Queued),
        Submitted::QueueFull => (503, error_body("job queue is full, retry later")),
    })
}

/// Refuses a grid that expands past [`MAX_SWEEP_CELLS`] before anything
/// O(cells) runs, validation included: a kilobyte of repeated axis
/// values would otherwise expand to millions of cells of server-side
/// work and an unbounded response body.
fn cap_cells(what: &str, cells: usize, advice: &str) -> Result<(), Reply> {
    if cells > MAX_SWEEP_CELLS {
        return Err(bad_request(&format!(
            "{what} expands to {cells} cells, above the server cap of {MAX_SWEEP_CELLS}; {advice}"
        )));
    }
    Ok(())
}

/// Submits every cell in order as a single-case experiment job, through
/// the same flow as `POST /v1/experiments` (the grid pass already ran
/// [`ahn_core::check_cell`] on each), and answers one entry per cell:
/// cached cells carry their result inline, fresh and coalesced cells a
/// `job_id` to poll at `GET /v1/jobs/{id}`, and cells bounced by a full
/// queue the status `"rejected"` (the caller retries just those).
/// `coords(i)` renders cell `i`'s coordinates for its entry.
fn submit_cells(
    shared: &Shared,
    cells: &GridCells,
    coords: impl Fn(usize) -> String,
) -> Result<Reply, Reply> {
    let mut entries = Vec::with_capacity(cells.cells().len());
    for (i, (config, case)) in cells.cells().iter().enumerate() {
        let spec = JobSpec::Experiment {
            config: config.clone(),
            cases: vec![case.clone()],
        };
        let coords = coords(i);
        let job = |id: u64, status: JobStatus| {
            format!(
                "{{\"spec\":{coords},\"job_id\":{id},\"status\":\"{}\",\"cached\":false}}",
                status.as_str()
            )
        };
        entries.push(match submit_spec(shared, spec)? {
            Submitted::Cached(result) => format!(
                "{{\"spec\":{coords},\"job_id\":null,\"status\":\"done\",\
                 \"cached\":true,\"result\":{result}}}"
            ),
            Submitted::Coalesced { id, status } => job(id, status),
            Submitted::Enqueued { id, .. } => job(id, JobStatus::Queued),
            Submitted::QueueFull => format!(
                "{{\"spec\":{coords},\"job_id\":null,\"status\":\"rejected\",\
                 \"cached\":false}}"
            ),
        });
    }
    Ok((200, format!("{{\"cells\":[{}]}}", entries.join(","))))
}

/// The `POST /v1/sweeps` flow: decode a [`SweepGrid`], resolve and check
/// its cells once ([`SweepGrid::cells`]) and submit them (see
/// [`submit_cells`]). Because a cell's job spec is byte-identical to
/// the equivalent direct submission, cells share the result cache with
/// single experiments (and with every other sweep that contains them).
fn submit_sweep(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let grid: SweepGrid = decode(body, "SweepGrid")?;
    cap_cells(
        "sweep",
        grid.cell_count(),
        "split the grid into smaller submissions",
    )?;
    let cells = grid.cells().map_err(|e| bad_request(&e))?;
    submit_cells(shared, &cells, |i| {
        serde_json::to_string(&cells.specs()[i]).unwrap_or_else(|_| "{}".into())
    })
}

/// The `POST /v1/calibrations` flow: decode an
/// [`ahn_core::calibrate::CalibrationGrid`], resolve and check its
/// cells once ([`ahn_core::CalibrationGrid::cells`]: candidates
/// outermost) and submit them (see [`submit_cells`]). A calibration cell
/// resolves to exactly the `(config, case)` pair the equivalent direct
/// submission or sweep would use, so repeated searches — and searches
/// overlapping a sweep — hit the result cache per cell.
fn submit_calibration(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let grid: ahn_core::calibrate::CalibrationGrid = decode(body, "CalibrationGrid")?;
    cap_cells(
        "calibration",
        grid.cell_count(),
        "lower max_candidates or split the search",
    )?;
    let (candidates, cells) = grid.cells().map_err(|e| bad_request(&e))?;
    let per_candidate = grid.cases.len() * grid.seed_blocks.len();
    submit_cells(shared, &cells, |i| {
        let cell = &cells.specs()[i];
        format!(
            "{{\"candidate\":{},\"case_no\":{},\"seed_block\":{}}}",
            candidates[i / per_candidate].0.id,
            cell.case_no,
            cell.seed_block
        )
    })
}

/// The `GET /v1/jobs/{id}` flow.
fn job_status(shared: &Shared, path: &str) -> Result<Reply, Reply> {
    let id_text = &path["/v1/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return Err(bad_request(&format!("bad job id {id_text:?}")));
    };
    // The store hands out a copy (the result is an Arc): format outside
    // its lock.
    let Some(job) = shared.store.status(id) else {
        return Err((404, error_body("no such job (pruned or never created)")));
    };
    let body = match job.status {
        JobStatus::Done => {
            let result = job.result.as_deref().unwrap_or("null");
            format!("{{\"job_id\":{id},\"status\":\"done\",\"result\":{result}}}")
        }
        JobStatus::Failed => {
            let error = serde_json::to_string(job.error.as_deref().unwrap_or("unknown"))
                .unwrap_or_else(|_| "\"unknown\"".into());
            format!("{{\"job_id\":{id},\"status\":\"failed\",\"error\":{error}}}")
        }
        status => format!("{{\"job_id\":{id},\"status\":\"{}\"}}", status.as_str()),
    };
    Ok((200, body))
}

/// The `POST /v1/work/claim` flow: sweep expired leases, then lease the
/// front of the queue to the caller. An empty queue answers
/// `{"status":"empty"}`.
fn work_claim(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    // An empty body is a valid claim with the default lease.
    let request: ClaimRequest = if body.trim_ascii().is_empty() {
        ClaimRequest::default()
    } else {
        decode(body, "claim request")?
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

    shared.sweep_expired();
    let Some(LeasedJob { lease_id, job }) = shared.store.claim(Duration::from_millis(lease_ms))
    else {
        Metrics::bump(&shared.metrics.work_claim_empty);
        return Ok((200, "{\"status\":\"empty\"}".into()));
    };
    Metrics::bump(&shared.metrics.work_claims);
    // The cell just left the queue: that ends its queue wait and starts
    // its claim round trip.
    shared
        .metrics
        .queue_wait_us
        .record(job.enqueued_at.elapsed().as_micros() as u64);
    let trace_id = trace_id_of_key(job.key);
    shared.emit(
        TraceEvent::new(trace_id, "lease")
            .key(job.key)
            .job(job.id)
            .lease(lease_id),
    );
    Ok(json(&WorkGrant {
        lease_id,
        job_id: job.id,
        key: job.key,
        lease_ms,
        trace_id: Some(trace_id),
        spec: job.spec,
    }))
}

/// The `POST /v1/work/complete` flow: the completion settles its job
/// through [`JobStore::settle`], like the pool's. The first completion
/// wins (`{"status":"recorded"}`); later deliveries for the same job —
/// retried leases, expired leases whose worker finished late, a cell
/// the pool recomputed first — are discarded as
/// `{"status":"duplicate"}`. A completion is accepted even when its
/// lease already expired: the result is still bit-identical, only the
/// lease bookkeeping is gone.
fn work_complete(shared: &Shared, body: &[u8]) -> Result<Reply, Reply> {
    let completion: WorkCompletion = decode(body, "completion")?;
    let outcome = match (completion.result, completion.error) {
        (Some(result), None) => Ok(result),
        (None, Some(error)) => Err(error),
        _ => return Err(bad_request("exactly one of result and error must be set")),
    };
    shared.sweep_expired();
    // Compute time is worker-measured: the server cannot see the remote
    // clock, so it trusts the self-report (telemetry, not accounting).
    if let Some(compute_us) = completion.compute_us {
        shared.metrics.job_compute_us.record(compute_us);
    }
    let succeeded = outcome.is_ok();
    let metrics = &shared.metrics;
    let (settled, granted_at) = shared.store.settle(
        completion.lease_id,
        completion.job_id,
        completion.key,
        outcome,
        || {
            if succeeded {
                Metrics::bump(&metrics.jobs_completed);
                Metrics::bump(&metrics.work_completed);
                // Externally computed cells count here, *not* in
                // `games_simulated`: that gauge stays honest local
                // compute (this node never simulated these games).
                Metrics::bump(&metrics.cells_completed_external);
            } else {
                Metrics::bump(&metrics.jobs_failed);
            }
        },
    );
    // The completion ends its lease's round trip (grant → accepted). A
    // lease the sweep already requeued has no grant time left, so a late
    // completion for it goes unsampled.
    if let Some(granted_at) = granted_at {
        metrics
            .claim_rtt_us
            .record(granted_at.elapsed().as_micros() as u64);
    }
    let event = |span: &str| {
        TraceEvent::new(trace_id_of_key(completion.key), span)
            .key(completion.key)
            .job(completion.job_id)
            .lease(completion.lease_id)
    };
    match settled {
        Settle::Recorded => {
            let mut complete = event("complete").outcome(succeeded);
            if let Some(compute_us) = completion.compute_us {
                complete = complete.dur_us(compute_us);
            }
            shared.emit(complete);
            Ok((200, "{\"status\":\"recorded\"}".into()))
        }
        Settle::Duplicate => {
            Metrics::bump(&metrics.work_duplicate);
            shared.emit(event("duplicate"));
            Ok((200, "{\"status\":\"duplicate\"}".into()))
        }
        Settle::Unknown => Err((404, error_body("no such job (pruned or never created)"))),
        // While a job is pending the server knows its spec hash, so a
        // completion quoting another key is a client bug, not a
        // mergeable result.
        Settle::KeyMismatch => Err(bad_request(
            "completion key does not match the job's spec hash",
        )),
    }
}

/// Pool thread body: take jobs until the store closes, settling each
/// through the same [`JobStore::settle`] as `/v1/work/complete`. A cell
/// an external worker finished first settles as a duplicate and counts
/// nothing.
fn worker_loop(shared: &Shared) {
    while let Some(LeasedJob { lease_id, job }) = shared.store.take() {
        let metrics = &shared.metrics;
        metrics
            .queue_wait_us
            .record(job.enqueued_at.elapsed().as_micros() as u64);
        let trace_id = trace_id_of_key(job.key);
        let started = Instant::now();
        let outcome = run_job(&job.spec);
        let elapsed_nanos = started.elapsed().as_nanos() as u64;
        metrics.job_compute_us.record(elapsed_nanos / 1_000);
        let succeeded = outcome.is_ok();
        shared.emit(
            TraceEvent::new(trace_id, "compute")
                .key(job.key)
                .job(job.id)
                .dur_us(elapsed_nanos / 1_000)
                .outcome(succeeded),
        );
        let (settled, _) = shared.store.settle(lease_id, job.id, job.key, outcome, || {
            if succeeded {
                Metrics::bump(&metrics.jobs_completed);
                Metrics::add(&metrics.games_simulated, job.spec.games());
                Metrics::add(&metrics.busy_nanos, elapsed_nanos);
            } else {
                Metrics::bump(&metrics.jobs_failed);
            }
        });
        let span = if settled == Settle::Recorded {
            "complete"
        } else {
            "duplicate"
        };
        shared.emit(
            TraceEvent::new(trace_id, span)
                .key(job.key)
                .job(job.id)
                .outcome(succeeded),
        );
    }
}

/// Serializes a response body: 200, or 500 when serialization fails.
fn json<T: serde::Serialize>(value: &T) -> Reply {
    match serde_json::to_string(value) {
        Ok(body) => (200, body),
        Err(e) => (500, error_body(&e.to_string())),
    }
}

fn bad_request(message: &str) -> Reply {
    (400, error_body(message))
}

/// `{"error": <json-escaped message>}`.
fn error_body(message: &str) -> String {
    format!(
        "{{\"error\":{}}}",
        serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into())
    )
}
