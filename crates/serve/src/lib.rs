//! `ahn_serve` — simulation-as-a-service for the ad hoc network game.
//!
//! Every experiment in this workspace is a pure function of
//! `(ExperimentConfig, CaseSpec, seed)` (tests/determinism.rs), which
//! makes results perfectly cacheable: two structurally identical
//! submissions must produce bit-identical answers. This crate exploits
//! that with a dependency-free HTTP/1.1 job server on
//! `std::net::TcpListener`:
//!
//! * [`server`] — HTTP routing, request decoding, response encoding,
//!   metrics and spans, the bounded in-process worker pool and graceful
//!   shutdown; submissions that miss the cache return `202` + a job id
//!   to poll, and a full queue answers `503` instead of buffering
//!   unbounded work;
//! * [`jobs`] — the owner of the job lifecycle: the [`jobs::JobStore`]
//!   holds the result cache, job table, coalescing map, queue, leases
//!   and optional completion journal behind one lock, and settles every
//!   job first-completion-wins for the pool and pull workers alike;
//!   also the single place compute happens;
//! * [`cache`] — an LRU result cache keyed by
//!   [`ahn_core::config::canonical_hash`] of the resolved job spec;
//! * [`protocol`] — the JSON wire types ([`protocol::JobSpec`],
//!   acks, presets);
//! * [`journal`] — the checksummed append-only completion journal
//!   behind checkpoint/resume;
//! * [`worker`] — the pull worker driving `POST /v1/work/claim` /
//!   `complete` (the `ahn-exp worker` subcommand);
//! * [`coordinator`] — the remote cell runner of sweeps and
//!   calibrations: submit cells, checkpoint completions, return the
//!   results in cell order for the core fold;
//! * [`faults`] — the seeded [`faults::FlakyTransport`] chaos harness
//!   (drop/latency/stall/partial-write) behind the distributed tests
//!   and the `--chaos-*` worker flags;
//! * [`resilience`] — seeded decorrelated-jitter backoff and the
//!   [`resilience::CircuitBreaker`] transport wrapper (trip after N
//!   consecutive failures, half-open probe);
//! * [`metrics`] — `/metrics` counters: requests served, cache hit
//!   rate, queue depth, work claims/leases, games/s, the hardening
//!   counters (timeouts, breaker trips, drain time), plus the v2
//!   latency histograms (per-route requests, queue wait, compute,
//!   claim round trip, backoff sleeps) and uptime;
//! * [`http`] — the minimal HTTP/1.1 reader/writer both sides share;
//! * [`loadtest`] — a std-only load generator reporting
//!   p50/p90/p99/max latency, the full latency histogram and
//!   requests/s (the `ahn-exp loadtest` subcommand).
//!
//! Observability rides on [`ahn_obs`]: every node (serve, worker,
//! coordinator) takes an optional `--trace FILE` and appends one
//! checksummed JSON span event per lifecycle step, keyed by a trace id
//! every node derives from the cell's `canonical_hash` — so one cell's
//! submit → enqueue → lease → compute (with retries and breaker trips)
//! → complete → merge reconstructs across nodes with `ahn-exp trace`.
//!
//! # In-process round trip
//!
//! ```
//! use ahn_serve::{loadtest, server};
//!
//! let handle = server::spawn(server::ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 1,
//!     cache_cap: 16,
//!     queue_cap: 16,
//!     ..server::ServerConfig::default()
//! })
//! .unwrap();
//! let addr = handle.addr().to_string();
//!
//! let (status, body) = loadtest::one_shot(&addr, "GET", "/healthz", "").unwrap();
//! assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
//! handle.shutdown();
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod coordinator;
pub mod faults;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod loadtest;
pub mod metrics;
pub mod protocol;
pub mod resilience;
pub mod server;
pub mod worker;

pub use coordinator::{run_cells_via, run_sweep_via};
pub use faults::{FaultPlan, FlakyTransport};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestReport};
pub use metrics::{LatencySnapshot, Snapshot};
pub use protocol::JobSpec;
pub use resilience::{Backoff, BackoffPolicy, CircuitBreaker};
pub use server::{spawn, ServerConfig, ServerHandle};
pub use worker::{
    run_worker_observed, HttpTransport, Transport, WorkerConfig, WorkerReport, WorkerSummary,
    WorkerTelemetry,
};
