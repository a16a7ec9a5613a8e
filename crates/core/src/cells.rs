//! The cell engine: the one local fan-out in `ahn_core`, and the one
//! place local runs emit their `cell_start` / `generation` /
//! `cell_done` trace spans.
//!
//! A *cell* is a resolved `(config, case)` pair — one experiment. Every
//! local experiment is a batch of cells ([`crate::run_experiment`] is a
//! one-cell batch), and every `(cell, replication)` pair of a batch is
//! one work item of the rayon shim's self-scheduling queue, so even a
//! batch with fewer cells than cores keeps every core busy. Replication
//! `k` runs on seed `base_seed + k`; when a cell's last replication
//! finishes, the cell is [`aggregate`]d in replication order and its
//! replication results dropped, so the result does not depend on how
//! the items were scheduled (`tests/determinism.rs`).
//!
//! Untraced, every replication runs under [`NoopRecorder`], which
//! monomorphizes to the uninstrumented loop: no clock read, no hash.
//! Traced, a cell computes its key and emits `cell_start` before its
//! first replication, a `generation` span per generation, and
//! `cell_done` after its last; neither touches seeds or results.

use crate::cases::CaseSpec;
use crate::config::ExperimentConfig;
use crate::experiment::{aggregate, run_replication_with, ExperimentResult, ReplicationResult};
use ahn_obs::{NoopRecorder, Phase, Recorder, SeriesRecorder, TraceEvent, TraceLog};
use rayon::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A resolved `(config, case)` pair: one experiment of a batch.
pub type Cell = (ExperimentConfig, CaseSpec);

/// One labeled cell of `case` per knob value: `base` with `set` applied
/// — the batch of a one-knob study.
pub(crate) fn vary<L: Into<String>, T>(
    base: &ExperimentConfig,
    case: &CaseSpec,
    values: impl IntoIterator<Item = (L, T)>,
    set: impl Fn(&mut ExperimentConfig, T),
) -> Vec<(String, Cell)> {
    (values.into_iter())
        .map(|(label, value)| {
            let mut config = base.clone();
            set(&mut config, value);
            (label.into(), (config, case.clone()))
        })
        .collect()
}

/// Runs every cell, returning one result per cell in input order. With
/// a trace log, cell `i` is described by `detail(i)` in its
/// `cell_start` span.
///
/// # Panics
/// Panics if a cell has no replications, or where
/// [`run_replication_with`] does.
pub fn run_cells(
    cells: &[Cell],
    trace: Option<&TraceLog>,
    detail: impl Fn(usize) -> String + Sync,
) -> Vec<ExperimentResult> {
    let pending: Vec<Pending> = cells.iter().map(Pending::new).collect();
    let items: Vec<(usize, usize)> = (cells.iter().enumerate())
        .flat_map(|(i, (config, _))| (0..config.replications).map(move |k| (i, k)))
        .collect();
    let finished: Vec<Option<ExperimentResult>> = items
        .into_par_iter()
        .map(|(i, k)| {
            let (config, case) = &cells[i];
            let seed = config.base_seed.wrapping_add(k as u64);
            let spans = trace.map(|log| {
                (pending[i].spans).get_or_init(|| CellSpans::start(log, &cells[i], detail(i)))
            });
            let result = match spans {
                None => run_replication_with(config, case, seed, &mut NoopRecorder),
                Some(spans) => run_replication_with(config, case, seed, &mut spans.recorder()),
            };
            let results = pending[i].store(k, result)?;
            let aggregated = aggregate(config, case, &results);
            if let Some(spans) = spans {
                spans.done();
            }
            Some(aggregated)
        })
        .collect();
    // Each cell's last replication to finish returned its aggregate.
    finished.into_iter().flatten().collect()
}

/// A cell whose replications are still running.
struct Pending<'a> {
    /// Replication `k`'s result in slot `k`, once it finished.
    results: Mutex<Vec<Option<ReplicationResult>>>,
    /// Set by the cell's first replication when the batch is traced.
    spans: OnceLock<CellSpans<'a>>,
}

impl Pending<'_> {
    fn new((config, _): &Cell) -> Self {
        assert!(config.replications > 0, "no replications to aggregate");
        Pending {
            results: Mutex::new(vec![None; config.replications]),
            spans: OnceLock::new(),
        }
    }

    /// Stores replication `k`'s result; once the last one is in, takes
    /// them all out in replication order.
    fn store(&self, k: usize, result: ReplicationResult) -> Option<Vec<ReplicationResult>> {
        let mut slots = self
            .results
            .lock()
            .expect("never held by a running replication");
        slots[k] = Some(result);
        if slots.iter().any(Option::is_none) {
            return None;
        }
        Some(std::mem::take(&mut *slots).into_iter().flatten().collect())
    }
}

/// The trace context of one traced cell: the log its spans go to, its
/// trace id, derived from the canonical hash of its `(config, case)` —
/// the identity a serve node would cache the same cell under — and when
/// its first replication started.
struct CellSpans<'a> {
    log: &'a TraceLog,
    key: u64,
    trace_id: u64,
    started: Instant,
}

impl<'a> CellSpans<'a> {
    /// Emits the cell's `cell_start` span.
    fn start(log: &'a TraceLog, cell: &Cell, detail: String) -> Self {
        let key = crate::config::canonical_hash(cell).unwrap_or(0);
        let trace_id = ahn_obs::trace_id_of_key(key);
        log.emit(
            TraceEvent::new(trace_id, "cell_start")
                .key(key)
                .detail(detail),
        );
        CellSpans {
            log,
            key,
            trace_id,
            started: Instant::now(),
        }
    }

    /// Emits the cell's `cell_done` span.
    fn done(&self) {
        self.log.emit(
            TraceEvent::new(self.trace_id, "cell_done")
                .key(self.key)
                .dur_us(self.started.elapsed().as_micros() as u64)
                .outcome(true),
        );
    }

    /// A recorder for one of the cell's replications.
    fn recorder(&self) -> SpanRecorder<'_> {
        SpanRecorder {
            spans: self,
            series: SeriesRecorder::default(),
        }
    }
}

/// Times a replication's phases like [`SeriesRecorder`] and emits each
/// finished generation as a `generation` span.
struct SpanRecorder<'a> {
    spans: &'a CellSpans<'a>,
    series: SeriesRecorder,
}

impl Recorder for SpanRecorder<'_> {
    fn begin(&mut self, phase: Phase) {
        self.series.begin(phase);
    }

    fn end(&mut self, phase: Phase) {
        self.series.end(phase);
    }

    fn generation(&mut self, generation: u64, cooperation: f64) {
        self.series.generation(generation, cooperation);
        for sample in self.series.samples.drain(..) {
            self.spans
                .log
                .emit(TraceEvent::new(self.spans.trace_id, "generation").sample(&sample));
        }
    }
}
