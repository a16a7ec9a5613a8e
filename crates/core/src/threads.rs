//! Surfacing the effective worker-thread count.
//!
//! The vendored rayon shim silently caps its fan-out at the
//! `AHN_THREADS` environment variable — useful for processes that
//! already parallelize at a higher level, but historically invisible:
//! nothing reported whether a sweep ran on 8 cores or was quietly
//! pinned to 1. This module is the single place that reads the cap for
//! reporting purposes; sweep/atlas/bench/serve/worker startup call
//! [`log_once`], the serve `/metrics` endpoint exposes [`effective`],
//! and a pull worker sizes its cells in flight by it.

use std::sync::Once;

/// Worker threads the next parallel fan-out will use:
/// `available_parallelism`, capped by `AHN_THREADS`. Re-read per call,
/// so in-process overrides (the bench thread sweep) are visible
/// immediately.
pub fn effective() -> usize {
    rayon::current_num_threads()
}

/// The host's available parallelism, ignoring any `AHN_THREADS` cap.
pub fn host_cores() -> usize {
    rayon::available_cores()
}

/// Logs the effective thread count to stderr — once per process, no
/// matter how many sweeps/benches/experiments a long-lived process
/// runs. `context` names the caller (`"sweep"`, `"bench"`, `"serve"`).
///
/// Diagnostics go to stderr on purpose: stdout carries machine-readable
/// reports (`--json` et al.) and must stay clean.
pub fn log_once(context: &str) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let effective = effective();
        let cores = host_cores();
        let cap = std::env::var("AHN_THREADS").ok();
        match cap {
            Some(cap) => eprintln!(
                "{context}: using {effective} worker thread{} ({cores} core{} available, AHN_THREADS={cap})",
                plural(effective),
                plural(cores),
            ),
            None => eprintln!(
                "{context}: using {effective} worker thread{} ({cores} core{} available, AHN_THREADS unset)",
                plural(effective),
                plural(cores),
            ),
        }
    });
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_never_exceeds_host_cores() {
        let e = effective();
        assert!(e >= 1);
        assert!(e <= host_cores());
    }

    #[test]
    fn log_once_is_idempotent() {
        // Calling repeatedly must not panic or log more than once; the
        // observable contract here is simply "does not blow up".
        log_once("test");
        log_once("test-again");
    }
}
