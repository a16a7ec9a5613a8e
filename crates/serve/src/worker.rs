//! The pull worker: leases cells from a serve node over
//! `POST /v1/work/claim`, computes them with the exact same
//! [`crate::jobs::run_job`] the server-side pool uses, and delivers
//! results via `POST /v1/work/complete` (the `ahn-exp worker`
//! subcommand).
//!
//! One worker keeps busy as many cores as a local sweep would. It counts
//! the cells in flight in replication items, the unit the cell engine
//! fans out over: an experiment cell counts `replications × cases`, an
//! IPDRP cell 1. The budget is [`ahn_core::threads::effective`] (the
//! host's cores, capped by `AHN_THREADS`), read at the first grant of a
//! busy spell, which also starts that many compute threads. The loop
//! thread makes every claim and delivery. It claims while nothing
//! computes, or while another cell the size of the last one granted fits
//! in the budget. So a queue of equal cells, a sweep's, never has more
//! items in flight than the budget, and a cell that alone fills it (a
//! 12-replication `scaled` cell below 24 threads) runs alone and fans out
//! inside `run_job` as it would locally. A queue that mixes cell sizes
//! can overshoot: a larger cell granted after a smaller one joins it,
//! for at most `budget − 1` items plus the larger cell's. A granted
//! cell never waits for a thread, so its lease covers only its own
//! compute, and `AHN_THREADS=1` computes one cell at a time.
//!
//! A finished cell is delivered before the next claim goes out: every
//! claim first requeues the cells whose leases have expired, so a cell
//! still undelivered when it outlived its lease would be granted
//! straight back and computed again. A cell that computes longer than
//! its lease can still be requeued by a claim made while it computes
//! (this worker's, for another cell, or another worker's), and then
//! computed twice, so the lease (`--lease-ms`) must exceed a cell's
//! compute time.
//!
//! Determinism is free: a cell is a pure function of its resolved spec,
//! so *which* process computes it cannot change the bytes. The worker
//! still verifies the claimed spec's `canonical_hash` against the
//! server-supplied key before computing — a transport that corrupts a
//! spec turns into a loud failure, never a silently wrong cell.
//!
//! Delivery is at-least-once: a transport error after the server
//! applied a completion is retried, and the server answers
//! `{"status":"duplicate"}` for the replay (first completion wins).
//! The [`Transport`] trait is the seam the fault-injection harness
//! ([`crate::faults::FlakyTransport`]) and the resilience policies
//! ([`crate::resilience::CircuitBreaker`]) plug into. Retries sleep on
//! a seeded decorrelated-jitter backoff ([`crate::resilience::Backoff`])
//! instead of spinning hot at a fixed interval.

use crate::http::{is_timeout, read_response, write_request};
use crate::jobs::run_job;
use crate::protocol::{JobSpec, WorkCompletion, WorkGrant};
use crate::resilience::{Backoff, BackoffPolicy};
use ahn_obs::{AtomicHistogram, HistogramSnapshot, TraceEvent, TraceLog};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One HTTP round trip, abstracted so tests can inject failures
/// deterministically. `Err` means the response was never observed — the
/// request may or may not have reached the server (exactly the
/// ambiguity a crashing worker produces).
pub trait Transport: Send {
    /// Performs `method path` with `body`, returning `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String>;

    /// Circuit-breaker trips observed by this transport stack so far
    /// (0 when no breaker is in the stack); wrappers delegate inward so
    /// the worker can report trips to the server regardless of
    /// stacking order.
    fn breaker_opens(&self) -> u64 {
        0
    }
}

/// Default per-call deadline of [`HttpTransport`], milliseconds: bounds
/// connect, send and receive so a stalled server cannot wedge a worker
/// (claims and completions are sub-second; compute happens locally).
pub const DEFAULT_TRANSPORT_DEADLINE_MS: u64 = 30_000;

/// The real transport: one kept-alive TCP connection (`TCP_NODELAY`),
/// opened on first use and dropped after any failure. Every call runs
/// under a deadline (connect, send and receive), so a worker never
/// blocks forever on a wedged server.
///
/// A *reused* connection that fails before the first byte of the
/// response arrives is reopened and the request resent once: that is
/// the server hanging up a connection it reaped as idle, or a server
/// that stopped or restarted in between. Every other failure — a fresh
/// connection's, an expired deadline, a torn response — is `Err`.
#[derive(Debug)]
pub struct HttpTransport {
    addr: String,
    deadline: Option<Duration>,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpTransport {
    /// A transport talking to `addr` (`host:port`) with the default
    /// per-call deadline.
    pub fn new(addr: &str) -> HttpTransport {
        HttpTransport::with_deadline(addr, DEFAULT_TRANSPORT_DEADLINE_MS)
    }

    /// A transport with an explicit per-call deadline in milliseconds
    /// (0 disables the deadline — the pre-hardening behavior).
    pub fn with_deadline(addr: &str, deadline_ms: u64) -> HttpTransport {
        HttpTransport::with_timeout(
            addr,
            (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        )
    }

    /// A transport whose connect, send and receive are each bounded by
    /// `deadline` (`None` blocks indefinitely).
    pub(crate) fn with_timeout(addr: &str, deadline: Option<Duration>) -> HttpTransport {
        HttpTransport {
            addr: addr.into(),
            deadline,
            conn: None,
        }
    }

    fn connect(&self) -> Result<BufReader<TcpStream>, String> {
        let addr = &self.addr;
        let stream = match self.deadline {
            None => TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            Some(limit) => {
                let sock = addr
                    .to_socket_addrs()
                    .map_err(|e| format!("resolve {addr}: {e}"))?
                    .next()
                    .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
                TcpStream::connect_timeout(&sock, limit)
                    .map_err(|e| format!("connect {addr}: {e}"))?
            }
        };
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(self.deadline))
            .and_then(|()| stream.set_write_timeout(self.deadline))
            .map_err(|e| format!("set deadline: {e}"))?;
        Ok(BufReader::new(stream))
    }
}

/// One request on an open connection. `Err((true, _))` when it failed
/// before the first response byte for a reason other than a deadline.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), (bool, String)> {
    let unanswered = |e: io::Error, what: &str| (!is_timeout(&e), format!("{what}: {e}"));
    write_request(conn.get_mut(), method, path, body).map_err(|e| unanswered(e, "send"))?;
    loop {
        match conn.fill_buf() {
            Ok([]) => {
                return Err((
                    true,
                    "read: connection closed before the status line".into(),
                ))
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(unanswered(e, "read")),
        }
    }
    read_response(conn).map_err(|e| (false, format!("read: {e}")))
}

impl Transport for HttpTransport {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let reused = self.conn.is_some();
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => self.connect()?,
        };
        let mut outcome = exchange(&mut conn, method, path, body);
        if reused && matches!(outcome, Err((true, _))) {
            conn = self.connect()?;
            outcome = exchange(&mut conn, method, path, body);
        }
        let reply = outcome.map_err(|(_, e)| e)?;
        self.conn = Some(conn);
        Ok(reply)
    }
}

/// Worker tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Lease requested per claim, in milliseconds. Until it elapses the
    /// cell is this worker's; afterwards the server may requeue it.
    pub lease_ms: u64,
    /// Sleep between claims that found nothing (idle polling, not
    /// error retrying — retries use the backoff policy).
    pub poll_ms: u64,
    /// Stop after this many granted cells are delivered (0 =
    /// unlimited); the worker never holds more grants than this.
    pub max_cells: u64,
    /// Exit after this many *consecutive* empty claims made with
    /// nothing in flight, once every result is delivered (0 = keep
    /// polling forever; the operator kills the worker).
    pub idle_exit_polls: u64,
    /// Give up after this many consecutive transport errors.
    pub max_consecutive_errors: u64,
    /// Backoff between transport-error retries: exponential with
    /// seeded decorrelated jitter, reset on the first success.
    pub backoff: BackoffPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            lease_ms: crate::protocol::DEFAULT_LEASE_MS,
            poll_ms: 50,
            max_cells: 0,
            idle_exit_polls: 0,
            max_consecutive_errors: 25,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// What a worker did before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Results the server accepted.
    pub completed: u64,
    /// Cells that failed to compute (delivered as errors).
    pub failed: u64,
    /// Deliveries the server discarded as duplicates (another worker —
    /// or an earlier retry of this one — got there first).
    pub duplicates: u64,
    /// Results dropped because the server no longer knew the job
    /// (typically a server restart between claim and completion).
    pub dropped: u64,
    /// Claims that found the queue empty.
    pub empty_polls: u64,
    /// Transport errors survived (claim and completion combined).
    pub transport_errors: u64,
    /// Circuit-breaker trips observed by the transport stack.
    pub breaker_opens: u64,
}

/// Latency distributions a worker collected while running — returned by
/// [`run_worker_observed`] next to the counter report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTelemetry {
    /// Grant received → completion acknowledged, microseconds (the
    /// worker-side view of the server's `claim_rtt_us`).
    pub claim_rtt_us: HistogramSnapshot,
    /// `run_job` compute time per cell, microseconds.
    pub compute_us: HistogramSnapshot,
    /// Individual backoff sleeps, milliseconds.
    pub backoff_ms: HistogramSnapshot,
}

/// The worker's exit summary, printed by `ahn-exp worker` as one final
/// JSON line so fleet scripts can scrape per-worker stats without
/// parsing human-oriented stderr.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSummary {
    /// Report schema tag (`"ahn-worker-summary/1"`).
    pub schema: String,
    /// Results the server accepted.
    pub completed: u64,
    /// Cells delivered as errors.
    pub failed: u64,
    /// Deliveries discarded as duplicates.
    pub duplicates: u64,
    /// Results dropped because the server forgot the job.
    pub dropped: u64,
    /// Claims that found the queue empty.
    pub empty_polls: u64,
    /// Transport errors survived.
    pub transport_errors: u64,
    /// Circuit-breaker trips observed.
    pub breaker_opens: u64,
    /// Grant → completion-ack round trip, microseconds.
    pub claim_rtt_us: HistogramSnapshot,
    /// Per-cell compute time, microseconds.
    pub compute_us: HistogramSnapshot,
    /// Individual backoff sleeps, milliseconds.
    pub backoff_ms: HistogramSnapshot,
}

impl WorkerSummary {
    /// Folds a report and its telemetry into the printable summary.
    pub fn new(report: &WorkerReport, telemetry: &WorkerTelemetry) -> WorkerSummary {
        WorkerSummary {
            schema: "ahn-worker-summary/1".into(),
            completed: report.completed,
            failed: report.failed,
            duplicates: report.duplicates,
            dropped: report.dropped,
            empty_polls: report.empty_polls,
            transport_errors: report.transport_errors,
            breaker_opens: report.breaker_opens,
            claim_rtt_us: telemetry.claim_rtt_us.clone(),
            compute_us: telemetry.compute_us.clone(),
            backoff_ms: telemetry.backoff_ms.clone(),
        }
    }
}

/// Runs the claim → compute → complete loop until an exit condition of
/// `config` fires, returning what happened. `Err` means the worker gave
/// up (transport dead, or a protocol violation); it returns once the
/// cells it was computing finish, and abandons them to lease expiry.
///
/// While nothing is in flight the worker only claims. From a grant on it
/// keeps up to [`ahn_core::threads::effective`] replication items in
/// flight (see the module docs): granted cells run on a pool of compute
/// threads, while this thread makes every claim and delivery over the
/// one `transport`. When a cell finishes, it is delivered before its
/// replacement is claimed, so the claim's lease sweep cannot requeue a
/// finished cell that waits for delivery.
///
/// Each claim reports the breaker trips observed since the last
/// *acknowledged* claim (`breaker_trips` in the body), so the server's
/// `breaker_open_total` aggregates fleet-wide trips. The report is
/// at-least-once under faults: a delta whose claim response is lost is
/// re-sent with the next claim.
///
/// Alongside the report it collects latency histograms (claim round
/// trip, compute, backoff sleeps) and, when `trace` is set, appends one
/// span event per lifecycle step (claim/compute/deliver/retry/
/// breaker_open) so a cell's trail joins with the server's via the
/// grant's `trace_id`.
pub fn run_worker_observed(
    transport: &mut dyn Transport,
    config: &WorkerConfig,
    trace: Option<&TraceLog>,
) -> Result<(WorkerReport, WorkerTelemetry), String> {
    let telemetry = WorkerHistograms::default();
    let result = run_worker_loop(transport, config, trace, &telemetry);
    let telemetry = WorkerTelemetry {
        claim_rtt_us: telemetry.claim_rtt_us.snapshot(),
        compute_us: telemetry.compute_us.snapshot(),
        backoff_ms: telemetry.backoff_ms.snapshot(),
    };
    match result {
        Ok(mut report) => {
            report.breaker_opens = transport.breaker_opens();
            Ok((report, telemetry))
        }
        Err(e) => Err(e),
    }
}

/// Live histograms behind [`WorkerTelemetry`], shared by the loop
/// thread and the compute threads.
#[derive(Debug, Default)]
struct WorkerHistograms {
    claim_rtt_us: AtomicHistogram,
    compute_us: AtomicHistogram,
    backoff_ms: AtomicHistogram,
}

fn run_worker_loop(
    transport: &mut dyn Transport,
    config: &WorkerConfig,
    trace: Option<&TraceLog>,
    telemetry: &WorkerHistograms,
) -> Result<WorkerReport, String> {
    let pause = Duration::from_millis(config.poll_ms.max(1));
    let mut pull = Puller {
        transport,
        config,
        trace,
        telemetry,
        report: WorkerReport::default(),
        backoff: Backoff::new(config.backoff),
        consecutive_errors: 0,
        idle_polls: 0,
        granted: 0,
        trips_reported: 0,
        trips_traced: 0,
        backoff_ms_pending: 0,
    };
    // Idle while nothing is in flight: no compute thread, no channel,
    // and no read of the thread count (which reads cgroup files), so an
    // entry that finds the queue empty costs what a claim costs.
    loop {
        if let Some(first) = pull.claim()? {
            pull.compute_from(first)?;
            if !pull.may_claim() {
                return Ok(pull.report);
            }
            // The busy spell ended on an empty claim made with nothing
            // in flight.
        }
        if pull.idle_exit() {
            return Ok(pull.report);
        }
        std::thread::sleep(pause);
    }
}

/// Replication items of a granted cell, the unit the cell engine fans
/// out over: one per (case, replication) of an experiment, one for an
/// IPDRP run.
fn replication_items(spec: &JobSpec) -> usize {
    match spec {
        JobSpec::Experiment { config, cases } => {
            config.replications.saturating_mul(cases.len()).max(1)
        }
        JobSpec::Ipdrp { .. } | JobSpec::Preset { .. } => 1,
    }
}

/// A granted cell, from claim to delivery.
struct Granted {
    grant: WorkGrant,
    granted_at: Instant,
    /// [`replication_items`] of its spec.
    items: usize,
}

impl Granted {
    fn event(&self, span: &str) -> TraceEvent {
        TraceEvent::new(self.grant.trace_id, span)
            .key(self.grant.key)
            .job(self.grant.job_id)
            .lease(self.grant.lease_id)
    }
}

/// A computed cell, sent from a compute thread to the loop thread.
struct Computed {
    cell: Granted,
    succeeded: bool,
    /// The serialized `WorkCompletion` to deliver.
    completion: Result<String, String>,
}

/// A compute thread's work on one cell: the per-cell idempotency check
/// (the canonical hash of the spec must be the key the server indexed
/// it under), then [`run_job`], then the completion body.
fn compute(cell: Granted, telemetry: &WorkerHistograms, trace: Option<&TraceLog>) -> Computed {
    let started = Instant::now();
    let grant = &cell.grant;
    let outcome = match grant.spec.cache_key() {
        Ok(key) if key == grant.key => run_job(&grant.spec),
        Ok(key) => Err(format!(
            "claimed spec hashes to {key:#018x} but the server granted key {:#018x} \
             (corrupted claim?)",
            grant.key
        )),
        Err(e) => Err(e),
    };
    let compute_us = started.elapsed().as_micros() as u64;
    telemetry.compute_us.record(compute_us);
    let succeeded = outcome.is_ok();
    if let Some(log) = trace {
        log.emit(cell.event("compute").dur_us(compute_us).outcome(succeeded));
    }
    let completion = WorkCompletion {
        lease_id: grant.lease_id,
        job_id: grant.job_id,
        key: grant.key,
        result: outcome.as_ref().ok().cloned(),
        error: outcome.err(),
        trace_id: grant.trace_id,
        compute_us,
    };
    let completion =
        serde_json::to_string(&completion).map_err(|e| format!("cannot serialize completion: {e}"));
    Computed {
        cell,
        succeeded,
        completion,
    }
}

/// The loop thread's state: the transport, the counters and the retry
/// policy behind every claim and delivery.
struct Puller<'a> {
    transport: &'a mut dyn Transport,
    config: &'a WorkerConfig,
    trace: Option<&'a TraceLog>,
    telemetry: &'a WorkerHistograms,
    report: WorkerReport,
    backoff: Backoff,
    consecutive_errors: u64,
    /// Consecutive empty claims made with nothing in flight.
    idle_polls: u64,
    /// Cells granted so far, bounded by `max_cells`.
    granted: u64,
    trips_reported: u64,
    trips_traced: u64,
    /// Backoff milliseconds slept since the last acknowledged claim,
    /// reported in the next claim body (same at-least-once contract as
    /// `breaker_trips`).
    backoff_ms_pending: u64,
}

impl Puller<'_> {
    fn emit(&self, event: TraceEvent) {
        if let Some(log) = self.trace {
            log.emit(event);
        }
    }

    /// True while `max_cells` leaves room for another grant.
    fn may_claim(&self) -> bool {
        self.config.max_cells == 0 || self.granted < self.config.max_cells
    }

    /// Counts an empty claim made with nothing in flight; true once
    /// `idle_exit_polls` of them come in a row.
    fn idle_exit(&mut self) -> bool {
        self.idle_polls += 1;
        self.config.idle_exit_polls > 0 && self.idle_polls >= self.config.idle_exit_polls
    }

    /// Survives one transport error: gives up after
    /// `max_consecutive_errors` in a row, else sleeps a backoff delay and
    /// records it everywhere it is taken (the histogram, the next claim
    /// body and the trace).
    fn transport_error(&mut self, e: String, trace_id: u64, why: &str) -> Result<(), String> {
        self.report.transport_errors += 1;
        self.consecutive_errors += 1;
        if self.consecutive_errors >= self.config.max_consecutive_errors {
            return Err(format!(
                "giving up after {} consecutive transport errors: {e}",
                self.consecutive_errors
            ));
        }
        let delay = self.backoff.next_delay();
        let delay_ms = delay.as_millis() as u64;
        self.telemetry.backoff_ms.record(delay_ms);
        self.backoff_ms_pending += delay_ms;
        self.emit(
            TraceEvent::new(trace_id, "retry")
                .dur_us(delay.as_micros() as u64)
                .detail(why.to_owned()),
        );
        std::thread::sleep(delay);
        Ok(())
    }

    fn answered(&mut self) {
        self.consecutive_errors = 0;
        self.backoff.reset();
    }

    /// Computes from the grant `first` until nothing is in flight: the
    /// last claim found the queue empty, or `max_cells` is spent. Every
    /// result is delivered when it returns `Ok`.
    ///
    /// Granted cells run on a pool of compute threads while this thread
    /// claims and delivers. It claims while nothing computes, or while
    /// another cell the size of the last one granted fits in the thread
    /// count. A finished cell is delivered before its replacement is
    /// claimed, and an empty claim while cells compute waits for one of
    /// them to finish.
    fn compute_from(&mut self, first: Granted) -> Result<(), String> {
        let budget = ahn_core::threads::effective();
        let (telemetry, trace) = (self.telemetry, self.trace);
        let (work_tx, work_rx) = mpsc::channel::<Granted>();
        let (done_tx, done_rx) = mpsc::channel::<Computed>();
        let work_rx = Mutex::new(work_rx);
        std::thread::scope(|scope| {
            // One compute thread per core suffices: a claim leaves room
            // for at least one more item or finds nothing in flight, and
            // every cell counts at least one, so at most `budget` cells
            // are in flight and none waits for a thread.
            for _ in 0..budget {
                let (work_rx, done_tx) = (&work_rx, done_tx.clone());
                std::thread::Builder::new()
                    .name("ahn-worker-cell".into())
                    .spawn_scoped(scope, move || loop {
                        // `Err` once the loop has returned and every cell
                        // it started is taken: a worker that gives up
                        // still finishes those, and leaves their leases to
                        // expire.
                        let next = work_rx.lock().expect("no thread panics holding it").recv();
                        let Ok(cell) = next else { break };
                        let _ = done_tx.send(compute(cell, telemetry, trace));
                    })
                    .map_err(|e| format!("cannot start a compute thread: {e}"))?;
            }
            // Moved in, so it drops when the loop returns and the compute
            // threads stop.
            let work_tx = work_tx;
            let start = |cell: Granted| {
                let items = cell.items;
                work_tx
                    .send(cell)
                    .expect("the compute threads outlive the loop");
                items
            };
            let mut last = start(first);
            // None is in flight exactly when `items` is 0.
            let mut items = last;
            loop {
                while (items == 0 || items + last <= budget) && self.may_claim() {
                    let Some(claimed) = self.claim()? else { break };
                    last = start(claimed);
                    items += last;
                }
                if items == 0 {
                    return Ok(());
                }
                let done = done_rx.recv().expect("the loop thread holds a sender");
                items -= done.cell.items;
                self.deliver(done)?;
            }
        })
    }

    /// One claim, retried through transport errors: a granted cell, or
    /// `None` when the queue was empty.
    fn claim(&mut self) -> Result<Option<Granted>, String> {
        let (body, claim_started) = loop {
            let trips_now = self.transport.breaker_opens();
            if trips_now > self.trips_traced {
                // trace_id 0: a node-local event — the breaker is not
                // tied to any one cell.
                self.emit(TraceEvent::new(0, "breaker_open").detail(format!(
                    "trips={} total={trips_now}",
                    trips_now - self.trips_traced
                )));
                self.trips_traced = trips_now;
            }
            let claim_body = format!(
                "{{\"lease_ms\":{},\"breaker_trips\":{},\"backoff_ms\":{}}}",
                self.config.lease_ms,
                trips_now - self.trips_reported,
                self.backoff_ms_pending
            );
            let claim_started = Instant::now();
            match self
                .transport
                .request("POST", "/v1/work/claim", &claim_body)
            {
                Ok((200, body)) => {
                    self.trips_reported = trips_now;
                    self.backoff_ms_pending = 0;
                    break (body, claim_started);
                }
                Ok((status, body)) => return Err(format!("claim rejected: {status} {body}")),
                Err(e) => self.transport_error(e, 0, "claim failed")?,
            }
        };
        self.answered();
        let grant: WorkGrant = match serde_json::from_str(&body) {
            Ok(grant) => grant,
            Err(_) if body.contains("\"empty\"") => {
                self.report.empty_polls += 1;
                return Ok(None);
            }
            Err(e) => return Err(format!("cannot parse claim response: {e} in {body}")),
        };
        self.idle_polls = 0;
        self.granted += 1;
        let cell = Granted {
            granted_at: Instant::now(),
            items: replication_items(&grant.spec),
            grant,
        };
        self.emit(
            cell.event("claim")
                .dur_us(claim_started.elapsed().as_micros() as u64),
        );
        Ok(Some(cell))
    }

    /// Delivers a computed cell at-least-once: transport errors are
    /// retried until the server answers; it deduplicates replays.
    fn deliver(&mut self, done: Computed) -> Result<(), String> {
        let Computed {
            cell,
            succeeded,
            completion,
        } = done;
        let completion = completion?;
        loop {
            match self
                .transport
                .request("POST", "/v1/work/complete", &completion)
            {
                Ok((200, response)) => {
                    let duplicate = response.contains("\"duplicate\"");
                    if duplicate {
                        self.report.duplicates += 1;
                    } else if succeeded {
                        self.report.completed += 1;
                    } else {
                        self.report.failed += 1;
                    }
                    self.telemetry
                        .claim_rtt_us
                        .record(cell.granted_at.elapsed().as_micros() as u64);
                    let mut deliver = cell.event("deliver").outcome(true);
                    if duplicate {
                        deliver = deliver.detail("duplicate".into());
                    }
                    self.emit(deliver);
                    break;
                }
                Ok((404, _)) => {
                    // The server forgot the job (restart, pruning):
                    // nothing to deliver to; the cell will be
                    // resubmitted and recomputed identically.
                    self.report.dropped += 1;
                    self.emit(
                        cell.event("deliver")
                            .outcome(false)
                            .detail("dropped: server forgot the job".into()),
                    );
                    break;
                }
                Ok((status, response)) => {
                    return Err(format!("completion rejected: {status} {response}"))
                }
                Err(e) => {
                    self.transport_error(e, cell.grant.trace_id, "completion delivery failed")?
                }
            }
        }
        self.answered();
        Ok(())
    }
}
