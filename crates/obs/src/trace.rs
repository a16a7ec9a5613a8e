//! Structured trace spans: a checksummed JSON-lines event log plus the
//! joiner that reconstructs one cell's cross-node lifecycle from any
//! set of log files.
//!
//! Every process in a distributed run can carry its own trace file
//! (`serve --trace`, `worker --trace`, `ahn-exp sweep --trace`). Each
//! appended line is independently verifiable — the checksummed-line
//! format of [`crate::line`], shared with the completion journal — so a
//! SIGKILLed writer corrupts at most its torn tail, and
//! [`read_trace`] skips invalid lines instead of aborting (trace events
//! are independent records, unlike journal state, so a mid-file skip is
//! safe).
//!
//! Cross-node correlation rides on a `trace_id` minted once per
//! submission/cell and propagated through the claim/complete protocol:
//! the server derives it from the cell's cache key via
//! [`trace_id_of_key`] (a pure function, so a resumed server and the
//! coordinator agree on the id without coordination), hands it to
//! workers inside the work grant, and workers echo it back with the
//! completion and tag their own compute/retry spans with it.
//! `trace_id == 0` marks node-local events with no cell context (e.g.
//! a worker backing off before it holds a lease); the joiner reports
//! them separately instead of flagging them as orphans.
//!
//! ## Span vocabulary
//!
//! | span | node | meaning |
//! |------|------|---------|
//! | `submit` | server, coordinator | a submission arrived / was sent |
//! | `enqueue` | server | a new job entered the queue |
//! | `coalesce` | server | a duplicate submission joined an in-flight job |
//! | `lease` | server | a work claim leased the job out |
//! | `claim` | worker | the worker received the grant (dur = claim RTT) |
//! | `compute` | worker, server | one `run_job` execution (dur, ok) |
//! | `deliver` | worker | the completion was acknowledged |
//! | `retry` | worker | a transport error triggered a backoff sleep |
//! | `breaker_open` | worker | the circuit breaker tripped open |
//! | `complete` | server | a completion was accepted (ok = result vs error) |
//! | `duplicate` | server | a completion lost the first-completion race |
//! | `merge` | coordinator | the cell folded into the merged report |
//! | `cell_start`/`cell_done` | local runs | one sweep cell's or experiment case's lifecycle |
//! | `generation` | local runs | one hot-loop generation (coop + phase timings) |

use crate::hash::splitmix64;
use crate::line::{decode_line, encode_line, read_lines};
use crate::recorder::GenSample;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Mints the trace id for a cell from its result-cache key. Pure and
/// stable: every process that knows the key (server, resumed server,
/// coordinator) derives the same id, and workers just echo the one in
/// their grant. Never returns 0 (the "no cell context" sentinel).
pub fn trace_id_of_key(key: u64) -> u64 {
    splitmix64(key ^ 0x0B5E_55AB_1E5E_ED07).max(1)
}

/// One trace record. Field meaning depends on `span` (see the module
/// docs); absent options simply don't apply to that span kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Cell correlation id (0 = node-local, no cell context).
    pub trace_id: u64,
    /// Span kind, from the vocabulary in the module docs.
    pub span: String,
    /// Emitting node, e.g. `serve:127.0.0.1:7191` or `worker:4411`.
    pub node: String,
    /// Per-writer sequence number: a total order within one file.
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch (ordering hint for
    /// cross-file rendering only; never used for correctness).
    pub ts_us: u64,
    /// Span duration in microseconds, where one is measurable.
    pub dur_us: Option<u64>,
    /// Server job id.
    pub job_id: Option<u64>,
    /// Work lease id (links a worker's spans to the server's lease).
    pub lease_id: Option<u64>,
    /// Result-cache key of the cell.
    pub key: Option<u64>,
    /// Generation index (`generation` spans).
    pub generation: Option<u64>,
    /// Cooperation level of that generation (`generation` spans).
    pub cooperation: Option<f64>,
    /// Success flag, where the span has an outcome.
    pub ok: Option<bool>,
    /// Free-form context (error text, cell spec, ...).
    pub detail: Option<String>,
}

impl TraceEvent {
    /// A bare event; `node`, `seq` and `ts_us` are stamped by
    /// [`TraceLog::emit`].
    pub fn new(trace_id: u64, span: &str) -> TraceEvent {
        TraceEvent {
            trace_id,
            span: span.to_owned(),
            node: String::new(),
            seq: 0,
            ts_us: 0,
            dur_us: None,
            job_id: None,
            lease_id: None,
            key: None,
            generation: None,
            cooperation: None,
            ok: None,
            detail: None,
        }
    }

    /// Sets the server job id.
    pub fn job(mut self, job_id: u64) -> TraceEvent {
        self.job_id = Some(job_id);
        self
    }

    /// Sets the lease id.
    pub fn lease(mut self, lease_id: u64) -> TraceEvent {
        self.lease_id = Some(lease_id);
        self
    }

    /// Sets the result-cache key.
    pub fn key(mut self, key: u64) -> TraceEvent {
        self.key = Some(key);
        self
    }

    /// Sets the span duration in microseconds.
    pub fn dur_us(mut self, dur_us: u64) -> TraceEvent {
        self.dur_us = Some(dur_us);
        self
    }

    /// Sets the outcome flag.
    pub fn outcome(mut self, ok: bool) -> TraceEvent {
        self.ok = Some(ok);
        self
    }

    /// Attaches one hot-loop generation sample (index, cooperation and
    /// the three phase timings folded into `dur_us`).
    pub fn sample(mut self, s: &GenSample) -> TraceEvent {
        self.generation = Some(s.generation);
        self.cooperation = Some(s.cooperation);
        self.dur_us = Some((s.schedule_ns + s.play_ns + s.evolve_ns) / 1_000);
        self.detail = Some(format!(
            "schedule_ns={} play_ns={} evolve_ns={}",
            s.schedule_ns, s.play_ns, s.evolve_ns
        ));
        self
    }

    /// Attaches free-form context.
    pub fn detail(mut self, detail: String) -> TraceEvent {
        self.detail = Some(detail);
        self
    }
}

struct TraceLogInner {
    file: File,
    seq: u64,
}

/// An open trace appender: shared by reference across threads, one
/// checksummed line per [`TraceLog::emit`], flushed per event so a
/// dying process loses at most its torn tail.
pub struct TraceLog {
    node: String,
    inner: Mutex<TraceLogInner>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("node", &self.node)
            .finish()
    }
}

impl TraceLog {
    /// Opens (creating if needed) the trace log at `path`, stamping
    /// every event with `node` as its origin.
    pub fn open(path: &Path, node: &str) -> std::io::Result<TraceLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(TraceLog {
            node: node.to_owned(),
            inner: Mutex::new(TraceLogInner { file, seq: 0 }),
        })
    }

    /// The node name this log stamps on its events.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Stamps `event` with this log's node, the next sequence number
    /// and the wall clock, then appends and flushes it. Best-effort by
    /// design: telemetry I/O errors are swallowed — tracing must never
    /// take down the serving path.
    pub fn emit(&self, mut event: TraceEvent) {
        event.node = self.node.clone();
        event.ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_micros() as u64;
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        event.seq = inner.seq;
        inner.seq += 1;
        let line = encode_line(&event);
        let _ = inner
            .file
            .write_all(line.as_bytes())
            .and_then(|()| inner.file.flush());
    }
}

/// What [`read_trace`] recovered from one log file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceRead {
    /// The valid events, in file order.
    pub events: Vec<TraceEvent>,
    /// Lines that failed the checksum or the parse (torn tails,
    /// corruption) — skipped, not fatal.
    pub discarded: usize,
}

/// Reads one trace file, skipping corrupted lines. A missing file is an
/// empty trace, not an error (a worker killed before its first event
/// may never have created its file).
pub fn read_trace(path: &Path) -> std::io::Result<TraceRead> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(TraceRead::default()),
        Err(e) => return Err(e),
    };
    let mut out = TraceRead::default();
    for line in read_lines(BufReader::new(file)) {
        let line = line?;
        match decode_line(&line) {
            Some(event) => out.events.push(event),
            None if line.is_empty() => {}
            None => out.discarded += 1,
        }
    }
    Ok(out)
}

/// One cell's joined lifecycle across every log it appears in.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTrace {
    /// The correlation id shared by all of this cell's spans.
    pub trace_id: u64,
    /// The cell's cache key, if any span carried it.
    pub key: Option<u64>,
    /// All spans of the cell, ordered by (timestamp, node, seq).
    pub events: Vec<TraceEvent>,
    /// The cell has a root span (`submit`/`enqueue`/`cell_start`) *and*
    /// a successful terminal span (`complete`/`cell_done`/`merge` not
    /// marked failed).
    pub complete: bool,
    /// The cell has lifecycle spans but no root: its spans are orphans
    /// (a log file is missing from the join, or propagation broke).
    pub orphaned: bool,
}

/// The joined view of one or more trace files.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceTree {
    /// Per-cell lifecycles, ordered by first timestamp.
    pub cells: Vec<CellTrace>,
    /// Events with `trace_id == 0` (node-local, no cell context).
    pub node_events: usize,
    /// Total spans belonging to orphaned cells.
    pub orphan_spans: usize,
    /// Lines discarded while reading the input files.
    pub discarded: usize,
}

impl TraceTree {
    /// Number of complete cells.
    pub fn complete_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.complete).count()
    }
}

fn is_root(span: &str) -> bool {
    matches!(span, "submit" | "enqueue" | "cell_start")
}

fn is_success_terminal(event: &TraceEvent) -> bool {
    matches!(event.span.as_str(), "complete" | "cell_done" | "merge") && event.ok != Some(false)
}

/// Joins events (from any number of files) into per-cell span trees,
/// flagging cells whose spans have no root as orphaned.
pub fn join_traces(events: Vec<TraceEvent>, discarded: usize) -> TraceTree {
    let mut by_cell: std::collections::BTreeMap<u64, Vec<TraceEvent>> =
        std::collections::BTreeMap::new();
    let mut node_events = 0usize;
    for event in events {
        if event.trace_id == 0 {
            node_events += 1;
            continue;
        }
        by_cell.entry(event.trace_id).or_default().push(event);
    }
    let mut cells: Vec<CellTrace> = by_cell
        .into_iter()
        .map(|(trace_id, mut events)| {
            events.sort_by(|a, b| (a.ts_us, &a.node, a.seq).cmp(&(b.ts_us, &b.node, b.seq)));
            let has_root = events.iter().any(|e| is_root(&e.span));
            let has_success = events.iter().any(is_success_terminal);
            CellTrace {
                trace_id,
                key: events.iter().find_map(|e| e.key),
                complete: has_root && has_success,
                orphaned: !has_root,
                events,
            }
        })
        .collect();
    cells.sort_by_key(|c| c.events.first().map(|e| e.ts_us).unwrap_or(0));
    let orphan_spans = cells
        .iter()
        .filter(|c| c.orphaned)
        .map(|c| c.events.len())
        .sum();
    TraceTree {
        cells,
        node_events,
        orphan_spans,
        discarded,
    }
}

/// Pretty-prints the joined tree: one block per cell, spans indented
/// under their lease where they carry one, timestamps relative to the
/// cell's first span, plus a final machine-greppable summary line.
pub fn render_tree(tree: &TraceTree) -> String {
    let mut out = String::new();
    for cell in &tree.cells {
        let status = if cell.orphaned {
            "ORPHANED"
        } else if cell.complete {
            "complete"
        } else {
            "incomplete"
        };
        let key = cell
            .key
            .map(|k| format!(" key {k:016x}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "cell {:016x}{key} — {status} ({} spans)\n",
            cell.trace_id,
            cell.events.len()
        ));
        let t0 = cell.events.first().map(|e| e.ts_us).unwrap_or(0);
        for event in &cell.events {
            let indent = if event.lease_id.is_some() && event.span != "lease" {
                "    "
            } else {
                "  "
            };
            let mut line = format!(
                "{indent}+{:>9.3}ms {:<12} {}",
                (event.ts_us.saturating_sub(t0)) as f64 / 1_000.0,
                event.span,
                event.node
            );
            if let Some(lease_id) = event.lease_id {
                line.push_str(&format!(" lease#{lease_id}"));
            }
            if let Some(job_id) = event.job_id {
                line.push_str(&format!(" job#{job_id}"));
            }
            if let Some(dur) = event.dur_us {
                line.push_str(&format!(" [{:.3}ms]", dur as f64 / 1_000.0));
            }
            if let (Some(generation), Some(coop)) = (event.generation, event.cooperation) {
                line.push_str(&format!(" gen {generation} coop {coop:.3}"));
            }
            match event.ok {
                Some(true) => line.push_str(" ok"),
                Some(false) => line.push_str(" FAILED"),
                None => {}
            }
            if let Some(detail) = &event.detail {
                line.push_str(&format!("  ({detail})"));
            }
            line.push('\n');
            out.push_str(&line);
        }
    }
    let incomplete = tree
        .cells
        .iter()
        .filter(|c| !c.complete && !c.orphaned)
        .count();
    let orphan_cells = tree.cells.iter().filter(|c| c.orphaned).count();
    let events: usize = tree.cells.iter().map(|c| c.events.len()).sum();
    out.push_str(&format!(
        "summary: cells={} complete={} incomplete={incomplete} orphan_cells={orphan_cells} \
         orphan_spans={} events={events} node_events={} discarded={}\n",
        tree.cells.len(),
        tree.complete_cells(),
        tree.orphan_spans,
        tree.node_events,
        tree.discarded
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ahn-trace-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn trace_ids_are_stable_and_never_zero() {
        assert_eq!(trace_id_of_key(42), trace_id_of_key(42));
        assert_ne!(trace_id_of_key(42), trace_id_of_key(43));
        for key in 0..1000u64 {
            assert_ne!(trace_id_of_key(key), 0);
        }
    }

    #[test]
    fn lines_roundtrip_and_reject_corruption() {
        let event = TraceEvent::new(7, "lease").job(3).lease(9).key(0xABCD);
        let line = encode_line(&event);
        assert!(line.ends_with('\n'));
        let back: TraceEvent = decode_line(line.trim_end()).unwrap();
        assert_eq!(back.trace_id, 7);
        assert_eq!(back.span, "lease");
        assert_eq!(
            (back.job_id, back.lease_id, back.key),
            (Some(3), Some(9), Some(0xABCD))
        );
        let mut tampered = line.trim_end().to_owned();
        tampered.replace_range(tampered.len() - 1.., "X");
        assert_eq!(decode_line::<TraceEvent>(&tampered), None);
        assert_eq!(decode_line::<TraceEvent>(&line[..line.len() / 2]), None);
        assert_eq!(decode_line::<TraceEvent>(""), None);
    }

    #[test]
    fn log_stamps_node_seq_and_survives_torn_tails() {
        let path = tmp("stamps");
        let log = TraceLog::open(&path, "test-node").unwrap();
        log.emit(TraceEvent::new(1, "submit").key(11));
        log.emit(TraceEvent::new(1, "complete").outcome(true));
        drop(log);
        // Tear the trailing record mid-line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();

        let read = read_trace(&path).unwrap();
        assert_eq!(read.events.len(), 1);
        assert_eq!(read.discarded, 1);
        assert_eq!(read.events[0].node, "test-node");
        assert_eq!(read.events[0].seq, 0);
        assert!(read.events[0].ts_us > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_empty_trace() {
        assert_eq!(read_trace(&tmp("missing")).unwrap(), TraceRead::default());
    }

    #[test]
    fn join_builds_complete_trees_and_flags_orphans() {
        let mk = |trace_id: u64, span: &str, node: &str, ts: u64| {
            let mut e = TraceEvent::new(trace_id, span);
            e.node = node.into();
            e.ts_us = ts;
            e
        };
        let events = vec![
            // Cell 1: full lifecycle across three nodes.
            mk(1, "submit", "coordinator", 10).key(0xAA),
            mk(1, "enqueue", "serve:a", 11).job(5),
            mk(1, "lease", "serve:a", 20).job(5).lease(2),
            mk(1, "compute", "worker:9", 30)
                .lease(2)
                .dur_us(500)
                .outcome(true),
            mk(1, "complete", "serve:a", 40)
                .job(5)
                .lease(2)
                .outcome(true),
            mk(1, "merge", "coordinator", 50),
            // Cell 2: lease without any root — orphaned.
            mk(2, "lease", "serve:a", 15).lease(3),
            mk(2, "compute", "worker:9", 18).lease(3),
            // Node-local event: counted, never an orphan.
            mk(0, "retry", "worker:9", 16),
        ];
        let tree = join_traces(events, 1);
        assert_eq!(tree.cells.len(), 2);
        assert_eq!(tree.node_events, 1);
        assert_eq!(tree.discarded, 1);
        let cell1 = tree.cells.iter().find(|c| c.trace_id == 1).unwrap();
        assert!(cell1.complete && !cell1.orphaned);
        assert_eq!(cell1.key, Some(0xAA));
        let cell2 = tree.cells.iter().find(|c| c.trace_id == 2).unwrap();
        assert!(cell2.orphaned && !cell2.complete);
        assert_eq!(tree.orphan_spans, 2);
        assert_eq!(tree.complete_cells(), 1);

        let rendered = render_tree(&tree);
        assert!(rendered.contains("complete (6 spans)") || rendered.contains("— complete"));
        assert!(rendered.contains("ORPHANED"));
        assert!(rendered
            .contains("summary: cells=2 complete=1 incomplete=0 orphan_cells=1 orphan_spans=2"));
    }

    #[test]
    fn failed_terminal_spans_do_not_count_as_complete() {
        let mut submit = TraceEvent::new(4, "submit");
        submit.ts_us = 1;
        let mut complete = TraceEvent::new(4, "complete");
        complete.ts_us = 2;
        let tree = join_traces(vec![submit, complete.outcome(false)], 0);
        assert_eq!(tree.complete_cells(), 0);
        assert!(!tree.cells[0].orphaned);
    }
}
