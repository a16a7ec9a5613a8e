//! Retry backoff and circuit breaking for the worker's transport — the
//! client half of the crash-only hardening layer.
//!
//! Two policies compose here:
//!
//! * [`Backoff`] — exponential backoff with *decorrelated jitter*
//!   (Brooker's variant: each delay is drawn uniformly from
//!   `[base, 3 * previous]`, capped). The draw is a pure function of
//!   `(seed, draw index)` via SplitMix64, so a worker's retry schedule
//!   replays exactly — tests stay reproducible, yet two workers with
//!   different seeds never synchronize their retry storms.
//! * [`CircuitBreaker`] — wraps any [`Transport`]; after `threshold`
//!   consecutive failures it *opens* and fails calls instantly (no
//!   socket work) until `cooldown` elapses, then *half-opens*: exactly
//!   one probe call goes through, closing the breaker on success and
//!   re-opening it (a fresh trip) on failure.
//!
//! Neither policy touches result bytes: they only decide *when* a call
//! happens, so sweep output stays bit-identical under any schedule.

use crate::worker::Transport;
use ahn_obs::splitmix64;
use std::time::{Duration, Instant};

/// Knobs for [`Backoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Smallest delay, milliseconds (also the first delay's lower
    /// bound).
    pub base_ms: u64,
    /// Largest delay, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; same seed, same schedule, every run.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ms: 50,
            cap_ms: 5_000,
            seed: 0x5EED,
        }
    }
}

/// Decorrelated-jitter backoff state: call [`Backoff::next_delay`] per
/// failed attempt, [`Backoff::reset`] after a success.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    prev_ms: u64,
    draws: u64,
}

impl Backoff {
    /// Fresh state for `policy` (first delay starts from `base_ms`).
    pub fn new(policy: BackoffPolicy) -> Backoff {
        Backoff {
            prev_ms: policy.base_ms,
            draws: 0,
            policy,
        }
    }

    /// The next delay: uniform in `[base, 3 * previous]`, capped at
    /// `cap_ms`. Deterministic — the `draws` counter indexes the
    /// seeded stream, so the schedule ignores wall-clock entirely.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.policy.base_ms.max(1);
        let cap = self.policy.cap_ms.max(base);
        let span = (self.prev_ms.saturating_mul(3)).clamp(base, cap) - base;
        let roll = splitmix64(
            self.policy
                .seed
                .wrapping_add(self.draws.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        self.draws += 1;
        let delay = base + if span == 0 { 0 } else { roll % (span + 1) };
        self.prev_ms = delay;
        Duration::from_millis(delay)
    }

    /// Returns to the base delay after a success.
    pub fn reset(&mut self) {
        self.prev_ms = self.policy.base_ms;
    }
}

/// Breaker state: closed (counting failures), or open since an instant
/// (failing fast until the cooldown elapses, then half-open).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
}

/// A [`Transport`] wrapper that trips after `threshold` consecutive
/// failures and fails fast while open; after `cooldown` it lets one
/// probe through (half-open). `threshold == 0` disables the breaker.
#[derive(Debug)]
pub struct CircuitBreaker<T: Transport> {
    inner: T,
    threshold: u32,
    cooldown: Duration,
    state: BreakerState,
    opens: u64,
}

impl<T: Transport> CircuitBreaker<T> {
    /// Wraps `inner`: trip after `threshold` consecutive failures, fail
    /// fast for `cooldown` before each half-open probe.
    pub fn new(inner: T, threshold: u32, cooldown: Duration) -> CircuitBreaker<T> {
        CircuitBreaker {
            inner,
            threshold,
            cooldown,
            state: BreakerState::Closed {
                consecutive_failures: 0,
            },
            opens: 0,
        }
    }

    /// Times the breaker has tripped (closed/half-open -> open).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// The wrapped transport (e.g. to read chaos-harness counters).
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// True while calls fail fast (open and still cooling down).
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { since } if since.elapsed() < self.cooldown)
    }

    fn record(&mut self, failed: bool) {
        if !failed {
            self.state = BreakerState::Closed {
                consecutive_failures: 0,
            };
            return;
        }
        let failures = match self.state {
            BreakerState::Closed {
                consecutive_failures,
            } => consecutive_failures + 1,
            // A failed half-open probe re-trips immediately.
            BreakerState::Open { .. } => self.threshold,
        };
        if self.threshold > 0 && failures >= self.threshold {
            self.state = BreakerState::Open {
                since: Instant::now(),
            };
            self.opens += 1;
        } else {
            self.state = BreakerState::Closed {
                consecutive_failures: failures,
            };
        }
    }
}

impl<T: Transport> Transport for CircuitBreaker<T> {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        if self.is_open() {
            return Err(format!(
                "breaker open: failing fast for {:?} more",
                self.cooldown.saturating_sub(match self.state {
                    BreakerState::Open { since } => since.elapsed(),
                    BreakerState::Closed { .. } => Duration::ZERO,
                })
            ));
        }
        let outcome = self.inner.request(method, path, body);
        self.record(outcome.is_err());
        outcome
    }

    fn breaker_opens(&self) -> u64 {
        self.opens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scripted {
        /// `true` entries fail, consumed front to back; exhausted
        /// entries succeed.
        failures: Vec<bool>,
        calls: u64,
    }

    impl Transport for Scripted {
        fn request(&mut self, _m: &str, _p: &str, _b: &str) -> Result<(u16, String), String> {
            let fail = if self.failures.is_empty() {
                false
            } else {
                self.failures.remove(0)
            };
            self.calls += 1;
            if fail {
                Err("scripted failure".into())
            } else {
                Ok((200, "{}".into()))
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = BackoffPolicy {
            base_ms: 10,
            cap_ms: 200,
            seed: 42,
        };
        let mut a = Backoff::new(policy);
        let mut b = Backoff::new(policy);
        let first: Vec<u64> = (0..16).map(|_| a.next_delay().as_millis() as u64).collect();
        let second: Vec<u64> = (0..16).map(|_| b.next_delay().as_millis() as u64).collect();
        assert_eq!(first, second, "same seed, same schedule");
        assert!(first.iter().all(|&d| (10..=200).contains(&d)));
        // Another seed decorrelates the schedule.
        let mut c = Backoff::new(BackoffPolicy { seed: 43, ..policy });
        let third: Vec<u64> = (0..16).map(|_| c.next_delay().as_millis() as u64).collect();
        assert_ne!(first, third);
        // Reset returns the growth to the base rung.
        a.reset();
        assert!(
            a.next_delay().as_millis() as u64 <= 30,
            "post-reset delay is near base"
        );
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_open_probe_closes_it() {
        let scripted = Scripted {
            // 3 failures trip it; the probe succeeds and closes it.
            failures: vec![true, true, true],
            calls: 0,
        };
        let mut breaker = CircuitBreaker::new(scripted, 3, Duration::ZERO);
        for _ in 0..3 {
            assert!(breaker.request("GET", "/", "").is_err());
        }
        assert_eq!(breaker.opens(), 1);
        // Zero cooldown: the next call is the half-open probe; it
        // succeeds, so the breaker closes and stays closed.
        assert!(breaker.request("GET", "/", "").is_ok());
        assert!(breaker.request("GET", "/", "").is_ok());
        assert_eq!(breaker.opens(), 1);
        assert_eq!(breaker.breaker_opens(), 1);
    }

    #[test]
    fn open_breaker_fails_fast_without_calling_inner() {
        let scripted = Scripted {
            failures: vec![true, true],
            calls: 0,
        };
        let mut breaker = CircuitBreaker::new(scripted, 2, Duration::from_secs(3600));
        assert!(breaker.request("GET", "/", "").is_err());
        assert!(breaker.request("GET", "/", "").is_err());
        assert!(breaker.is_open());
        // Cooling down: fails fast, the inner transport never sees it.
        assert!(breaker
            .request("GET", "/", "")
            .unwrap_err()
            .contains("breaker open"));
        assert_eq!(breaker.inner.calls, 2);
        assert_eq!(breaker.opens(), 1);
    }

    #[test]
    fn failed_probe_reopens_and_counts_a_fresh_trip() {
        let scripted = Scripted {
            failures: vec![true, true, true, false],
            calls: 0,
        };
        let mut breaker = CircuitBreaker::new(scripted, 2, Duration::ZERO);
        assert!(breaker.request("GET", "/", "").is_err());
        assert!(breaker.request("GET", "/", "").is_err()); // trip 1
        assert!(breaker.request("GET", "/", "").is_err()); // probe fails -> trip 2
        assert_eq!(breaker.opens(), 2);
        assert!(breaker.request("GET", "/", "").is_ok()); // probe succeeds
        assert_eq!(breaker.opens(), 2);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let scripted = Scripted {
            failures: vec![true; 32],
            calls: 0,
        };
        let mut breaker = CircuitBreaker::new(scripted, 0, Duration::from_secs(3600));
        for _ in 0..32 {
            assert!(breaker.request("GET", "/", "").is_err());
        }
        assert_eq!(breaker.opens(), 0);
        assert_eq!(breaker.inner.calls, 32, "every call reached the transport");
    }
}
