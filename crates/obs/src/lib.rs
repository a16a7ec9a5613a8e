//! `ahn_obs` — std-only observability for the workspace: latency
//! histograms, cross-node trace spans, and zero-cost hot-path
//! profiling hooks.
//!
//! Three pieces, each usable alone, plus two shared utilities:
//!
//! * [`hist`] — [`AtomicHistogram`], a lock-free log-linear
//!   histogram (8 relaxed `AtomicU64` buckets per power of two, zero
//!   allocation on the record path) with deterministic merge and
//!   p50/p90/p99/max readout within 12.5 %. Backs the `/metrics`
//!   `ahn-serve-metrics/2` distribution blocks, the worker exit summary
//!   and the loadtest percentiles.
//! * [`trace`] — [`TraceLog`], a checksummed JSON-lines span log, plus
//!   [`join_traces`]/[`render_tree`], which reconstruct one cell's
//!   cross-node lifecycle (submit → enqueue → lease → compute →
//!   complete → merge) from any set of server/worker/coordinator log
//!   files and flag orphaned spans.
//! * [`recorder`] — the [`Recorder`] trait the experiment hot loop is
//!   generic over. The [`NoopRecorder`] default compiles to nothing
//!   (the zero-cost-when-off invariant, pinned by `tests/zero_alloc.rs`
//!   and the BENCH gate); [`SeriesRecorder`] captures per-generation
//!   cooperation + schedule/play/evolve timings for the trace log.
//! * [`hash`] — [`fnv1a64`] and [`splitmix64`], the workspace's only
//!   copies (canonical hashes, trace ids, seeded fault and backoff
//!   schedules).
//! * [`line`](mod@line) — [`encode_line`]/[`decode_line`]/[`read_lines`],
//!   the checksummed JSON-lines format of the trace log and the serve
//!   journal.
//!
//! Nothing in this crate touches seeded RNG streams or simulated
//! state: observability on or off, results are bit-identical.

#![deny(missing_docs)]

pub mod hash;
pub mod hist;
pub mod line;
pub mod recorder;
pub mod trace;

pub use hash::{fnv1a64, splitmix64};
pub use hist::{bucket_bound, AtomicHistogram, BucketCount, HistogramSnapshot, BUCKETS};
pub use line::{decode_line, encode_line, read_lines};
pub use recorder::{GenSample, NoopRecorder, Phase, Recorder, SeriesRecorder};
pub use trace::{
    join_traces, read_trace, render_tree, trace_id_of_key, CellTrace, TraceEvent, TraceLog,
    TraceRead, TraceTree,
};
