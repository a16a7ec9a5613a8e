//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, kept in memory while the run lasts and written to a file when
//! it ends.
//!
//! A span is named `<layer>.<what>` after the crate it times (`core`,
//! `strategy`, `game`, `ga`, `serve`). Every [`Trace`] is filled by one
//! thread, so a span's children never overlap and its self time is its
//! duration minus theirs.

use ahn_obs::{Phase, Recorder};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: &'static str,
    /// Cell (or request) the span belongs to.
    pub cell: usize,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The spans one thread recorded.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    thread: &'static str,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant, thread: &'static str) -> Trace {
        Trace {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: usize) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            thread: self.thread,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: usize,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            thread: self.thread,
            cell,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }
}

/// Concatenates per-thread traces into one list, re-basing parent
/// indices.
pub fn merge(traces: Vec<Trace>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for trace in traces {
        let base = out.len();
        out.extend(trace.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    out
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Σ self time (ns) by span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_insert(0) += own;
    }
    out
}

/// Writes one JSON line per span.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"thread\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.name,
            span.layer(),
            span.thread,
            span.cell,
            parent,
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

/// A [`Recorder`] turning the replication's Schedule / Play / Evolve
/// phases into `strategy.decode` / `game.play` / `ga.evolve` spans under
/// one `core.replication` span.
pub struct PhaseRecorder<'a> {
    trace: &'a mut Trace,
    parent: usize,
    cell: usize,
    open: [Option<usize>; 3],
}

impl<'a> PhaseRecorder<'a> {
    pub fn new(trace: &'a mut Trace, parent: usize, cell: usize) -> Self {
        PhaseRecorder {
            trace,
            parent,
            cell,
            open: [None; 3],
        }
    }
}

/// The span a replication phase is recorded as.
fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Schedule => "strategy.decode",
        Phase::Play => "game.play",
        Phase::Evolve => "ga.evolve",
    }
}

impl Recorder for PhaseRecorder<'_> {
    fn begin(&mut self, phase: Phase) {
        self.open[phase.index()] = Some(self.trace.open(
            phase_span(phase),
            Some(self.parent),
            self.cell,
        ));
    }

    fn end(&mut self, phase: Phase) {
        if let Some(id) = self.open[phase.index()].take() {
            self.trace.close(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            thread: "t",
            cell: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("core.cell", None, 0, 100),
            span("core.replication", Some(0), 10, 90),
            span("game.play", Some(1), 20, 70),
            span("ga.evolve", Some(1), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["game.play"], 50);
        assert_eq!(spans[2].layer(), "game");
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Trace::new(origin, "a");
        let root = a.open("core.pass", None, 0);
        a.close(root);
        let mut b = Trace::new(origin, "b");
        let later = origin + Duration::from_micros(5);
        let parent = b.record("serve.claim", origin, later, None, 1);
        b.record("core.compute", origin, later, Some(parent), 1);
        let merged = merge(vec![a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[2].parent, Some(1));
        assert_eq!(merged[1].dur_ns(), 5_000);
    }

    #[test]
    fn phase_recorder_nests_under_its_parent() {
        let mut trace = Trace::new(Instant::now(), "main");
        let rep = trace.open("core.replication", None, 7);
        {
            let mut recorder = PhaseRecorder::new(&mut trace, rep, 7);
            recorder.begin(Phase::Play);
            recorder.end(Phase::Play);
            recorder.end(Phase::Evolve); // unmatched: ignored
        }
        trace.close(rep);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].name, "game.play");
        assert_eq!(trace.spans[1].parent, Some(rep));
        assert_eq!(trace.spans[1].cell, 7);
    }
}
