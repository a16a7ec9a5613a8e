//! Hot-path profiling hooks: the [`Recorder`] trait the experiment
//! harness threads through its generational loop.
//!
//! The contract is **zero cost when off**. Every method has an empty
//! default body and the harness is generic over `R: Recorder`, so with
//! [`NoopRecorder`] (the default, used by every existing entry point)
//! monomorphization inlines the empty bodies away — no `Instant::now()`
//! calls, no branches, no allocation survive in the compiled hot loop.
//! `tests/zero_alloc.rs` and the BENCH regression gate pin this.
//!
//! An enabled recorder owns its own timing: [`SeriesRecorder`] reads
//! the clock in `begin`/`end` and folds per-generation cooperation and
//! phase timings into [`GenSample`]s, which `ahn_core`'s traced entry
//! points write to the trace log. Recorders never touch the seeded RNG or
//! any simulated state, so instrumented and uninstrumented runs are
//! bit-identical.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The three phases of one evolutionary generation, as timed by the
/// experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Decoding genomes into arena strategies.
    Schedule,
    /// Playing the tournament round.
    Play,
    /// Breeding the next generation (skipped on the final one).
    Evolve,
}

impl Phase {
    /// Stable array index for per-phase accumulators.
    pub const fn index(self) -> usize {
        match self {
            Phase::Schedule => 0,
            Phase::Play => 1,
            Phase::Evolve => 2,
        }
    }

    /// Human-readable phase name.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::Play => "play",
            Phase::Evolve => "evolve",
        }
    }
}

/// Observer of the experiment hot loop. All methods default to empty
/// bodies; see the module docs for the zero-cost-when-off contract.
pub trait Recorder {
    /// A phase is starting. An enabled recorder reads the clock here.
    #[inline(always)]
    fn begin(&mut self, _phase: Phase) {}

    /// The matching phase ended.
    #[inline(always)]
    fn end(&mut self, _phase: Phase) {}

    /// One generation finished (called after its evolve phase), with
    /// the cooperation level of that generation's tournament.
    #[inline(always)]
    fn generation(&mut self, _generation: u64, _cooperation: f64) {}
}

/// The default recorder: every hook compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// One generation's worth of recorded hot-loop telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenSample {
    /// Generation index within the replication.
    pub generation: u64,
    /// Cooperation level of the generation's tournament.
    pub cooperation: f64,
    /// Nanoseconds spent decoding genomes into strategies.
    pub schedule_ns: u64,
    /// Nanoseconds spent playing the tournament.
    pub play_ns: u64,
    /// Nanoseconds spent breeding (0 on the final generation).
    pub evolve_ns: u64,
}

/// A recorder that collects a [`GenSample`] per generation. Timing
/// lives entirely inside this type — the harness only marks phase
/// boundaries — so disabling recording removes every clock read.
#[derive(Debug, Default)]
pub struct SeriesRecorder {
    /// The collected per-generation series.
    pub samples: Vec<GenSample>,
    open: [Option<Instant>; 3],
    acc: [u64; 3],
}

impl Recorder for SeriesRecorder {
    fn begin(&mut self, phase: Phase) {
        self.open[phase.index()] = Some(Instant::now());
    }

    fn end(&mut self, phase: Phase) {
        if let Some(started) = self.open[phase.index()].take() {
            self.acc[phase.index()] += started.elapsed().as_nanos() as u64;
        }
    }

    fn generation(&mut self, generation: u64, cooperation: f64) {
        self.samples.push(GenSample {
            generation,
            cooperation,
            schedule_ns: self.acc[Phase::Schedule.index()],
            play_ns: self.acc[Phase::Play.index()],
            evolve_ns: self.acc[Phase::Evolve.index()],
        });
        self.acc = [0; 3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_recorder_collects_one_sample_per_generation() {
        let mut recorder = SeriesRecorder::default();
        for generation in 0..3u64 {
            for phase in [Phase::Schedule, Phase::Play, Phase::Evolve] {
                recorder.begin(phase);
                recorder.end(phase);
            }
            recorder.generation(generation, 0.5 + generation as f64 / 10.0);
        }
        assert_eq!(recorder.samples.len(), 3);
        assert_eq!(recorder.samples[2].generation, 2);
        assert!((recorder.samples[1].cooperation - 0.6).abs() < 1e-12);
        // Accumulators reset between generations.
        assert_eq!(recorder.acc, [0; 3]);
    }

    #[test]
    fn unmatched_end_is_harmless() {
        let mut recorder = SeriesRecorder::default();
        recorder.end(Phase::Play); // no begin: ignored, no panic
        recorder.generation(0, 0.0);
        assert_eq!(recorder.samples[0].play_ns, 0);
    }

    #[test]
    fn noop_recorder_accepts_every_hook() {
        let mut noop = NoopRecorder;
        noop.begin(Phase::Schedule);
        noop.end(Phase::Schedule);
        noop.generation(0, 1.0);
    }
}
