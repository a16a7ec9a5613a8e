//! The cell engine: the one cross-cell fan-out behind
//! [`crate::run_sweep`] and [`crate::run_atlas`], and the one place local
//! runs emit their `cell_start` / `generation` / `cell_done` trace spans.
//!
//! A *cell* is a resolved `(config, case)` pair. Cells run in parallel
//! (bounded by `AHN_THREADS`), each a serial fold of
//! [`run_replication_with`] over seeds `base_seed + k` followed by
//! [`aggregate`], which `tests/determinism.rs` pins bit-identical to
//! [`crate::run_experiment`]'s parallel fan-out — so parallelizing across
//! cells instead of inside them changes wall-clock, never results.
//! Workers pull cells one at a time, so grid order does not decide load
//! balance: a thread that finishes a cheap cell takes the next one.
//!
//! Untraced, every replication runs under [`NoopRecorder`], which
//! monomorphizes to the uninstrumented loop. Traced, each replication
//! runs under a [`SpanRecorder`]; neither touches seeds or results.

use crate::cases::CaseSpec;
use crate::config::ExperimentConfig;
use crate::experiment::{aggregate, run_replication_with, ExperimentResult};
use ahn_obs::{NoopRecorder, Phase, Recorder, SeriesRecorder, TraceEvent, TraceLog};
use rayon::prelude::*;
use std::time::Instant;

/// Runs every cell, cells in parallel, returning one result per cell in
/// input order. With a trace log, cell `i` is described by `detail(i)`
/// in its `cell_start` span.
pub(crate) fn run_cells(
    cells: &[(ExperimentConfig, CaseSpec)],
    trace: Option<&TraceLog>,
    detail: impl Fn(usize) -> String + Sync,
) -> Vec<ExperimentResult> {
    cells
        .iter()
        .enumerate()
        .into_par_iter()
        .map(|(i, (config, case))| match trace {
            None => fold(config, case, || NoopRecorder),
            Some(log) => CellSpans::around(log, config, case, detail(i), |spans| {
                fold(config, case, || spans.recorder())
            }),
        })
        .collect()
}

/// One cell: its replications folded serially, each under a fresh
/// recorder, then aggregated.
fn fold<R: Recorder>(
    config: &ExperimentConfig,
    case: &CaseSpec,
    recorder: impl Fn() -> R,
) -> ExperimentResult {
    let results: Vec<_> = (0..config.replications as u64)
        .map(|k| {
            run_replication_with(
                config,
                case,
                config.base_seed.wrapping_add(k),
                &mut recorder(),
            )
        })
        .collect();
    aggregate(config, case, &results)
}

/// The trace context of one traced cell: the log its spans go to and
/// its trace id, derived from the canonical hash of its `(config, case)`
/// — the identity a serve node would cache the same cell under.
#[derive(Clone, Copy)]
pub(crate) struct CellSpans<'a> {
    log: &'a TraceLog,
    trace_id: u64,
}

impl<'a> CellSpans<'a> {
    /// Runs `run` between the cell's `cell_start` and `cell_done` spans.
    pub(crate) fn around<T>(
        log: &'a TraceLog,
        config: &ExperimentConfig,
        case: &CaseSpec,
        detail: String,
        run: impl FnOnce(Self) -> T,
    ) -> T {
        let key = crate::config::canonical_hash(&(config, case)).unwrap_or(0);
        let trace_id = ahn_obs::trace_id_of_key(key);
        log.emit(
            TraceEvent::new(trace_id, "cell_start")
                .key(key)
                .detail(detail),
        );
        let started = Instant::now();
        let out = run(CellSpans { log, trace_id });
        log.emit(
            TraceEvent::new(trace_id, "cell_done")
                .key(key)
                .dur_us(started.elapsed().as_micros() as u64)
                .outcome(true),
        );
        out
    }

    /// A recorder for one of the cell's replications.
    pub(crate) fn recorder(self) -> SpanRecorder<'a> {
        SpanRecorder {
            spans: self,
            series: SeriesRecorder::default(),
        }
    }
}

/// Times a replication's phases like [`SeriesRecorder`] and emits each
/// finished generation as a `generation` span.
pub(crate) struct SpanRecorder<'a> {
    spans: CellSpans<'a>,
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
