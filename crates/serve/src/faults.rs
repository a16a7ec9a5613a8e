//! Deterministic fault injection for the distributed layer — the
//! `FlakyTransport` chaos harness behind `crates/serve/tests` and the
//! `ahn-exp worker --chaos-*` flags.
//!
//! A [`FlakyTransport`] wraps any [`Transport`] and injects failures on
//! a schedule that is a pure function of `(seed, call index)`, so every
//! test failure replays exactly. The injectable faults map to the
//! real-world ambiguities of an unreliable network:
//!
//! * **drop-request** — the request never reaches the server (worker
//!   died before sending; the server state is untouched);
//! * **drop-response** — the server processed the request but the
//!   caller never saw the answer (worker died after sending; retrying a
//!   completion now produces a *duplicate*);
//! * **latency** — the call succeeds after an injected delay (a
//!   congested link; exercises lease expiry and read deadlines);
//! * **stall** — the call burns its delay *and then* the response is
//!   lost (a wedged peer; the worst of both);
//! * **partial write** — only a prefix of the request body reaches the
//!   server (a connection cut mid-send): the server sees a malformed
//!   request and the caller sees an error, so both sides exercise
//!   their torn-input paths.
//!
//! A hard cutoff ([`FaultPlan::die_after_calls`]) turns the transport
//! permanently dead mid-run — the "kill -9 a worker / coordinator"
//! scenario for crash-resume tests.

use crate::worker::Transport;
use ahn_obs::splitmix64;

/// Which fault (if any) a call suffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The call goes through untouched.
    None,
    /// The request is lost before reaching the server.
    DropRequest,
    /// The server processes the request; the response is lost.
    DropResponse,
    /// The call succeeds after [`FaultPlan::latency_ms`] of delay.
    Latency,
    /// The call sleeps [`FaultPlan::stall_ms`], then the response is
    /// lost (the server did process the request).
    Stall,
    /// Only a prefix of the body reaches the server; the caller sees
    /// an error.
    PartialWrite,
}

/// A seeded, deterministic failure schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed; same seed, same faults, every run.
    pub seed: u64,
    /// Percent of calls whose request is dropped (0–100).
    pub drop_request_percent: u8,
    /// Percent of calls whose response is dropped (0–100).
    pub drop_response_percent: u8,
    /// Percent of calls delayed by [`FaultPlan::latency_ms`] (0–100).
    pub latency_percent: u8,
    /// Injected delay for [`Fault::Latency`] calls, milliseconds.
    pub latency_ms: u64,
    /// Percent of calls that stall for [`FaultPlan::stall_ms`] and then
    /// lose their response (0–100).
    pub stall_percent: u8,
    /// Injected delay for [`Fault::Stall`] calls, milliseconds.
    pub stall_ms: u64,
    /// Percent of calls whose body is truncated mid-send (0–100).
    pub partial_write_percent: u8,
    /// All calls from this index on fail permanently (a dead process).
    pub die_after_calls: Option<u64>,
}

impl FaultPlan {
    /// A schedule that never injects anything.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_request_percent: 0,
            drop_response_percent: 0,
            latency_percent: 0,
            latency_ms: 0,
            stall_percent: 0,
            stall_ms: 0,
            partial_write_percent: 0,
            die_after_calls: None,
        }
    }

    /// True when at least one fault mode has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.drop_request_percent > 0
            || self.drop_response_percent > 0
            || self.latency_percent > 0
            || self.stall_percent > 0
            || self.partial_write_percent > 0
            || self.die_after_calls.is_some()
    }

    /// The fault assigned to call number `call` (0-based) — pure, so
    /// tests can predict and assert the schedule. Modes partition the
    /// percentage roll in declaration order.
    pub fn fault_for(&self, call: u64) -> Fault {
        let roll = (splitmix64(self.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 100) as u8;
        let bands = [
            (self.drop_request_percent, Fault::DropRequest),
            (self.drop_response_percent, Fault::DropResponse),
            (self.latency_percent, Fault::Latency),
            (self.stall_percent, Fault::Stall),
            (self.partial_write_percent, Fault::PartialWrite),
        ];
        let mut upper = 0u8;
        for (percent, fault) in bands {
            upper = upper.saturating_add(percent);
            if roll < upper {
                return fault;
            }
        }
        Fault::None
    }
}

/// A [`Transport`] wrapper injecting the faults of a [`FaultPlan`].
#[derive(Debug)]
pub struct FlakyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    calls: u64,
    injected: u64,
}

impl<T: Transport> FlakyTransport<T> {
    /// Wraps `inner` with the failure schedule `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FlakyTransport<T> {
        FlakyTransport {
            inner,
            plan,
            calls: 0,
            injected: 0,
        }
    }

    /// Calls attempted so far (including injected failures).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

impl<T: Transport> Transport for FlakyTransport<T> {
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let call = self.calls;
        self.calls += 1;
        if let Some(cutoff) = self.plan.die_after_calls {
            if call >= cutoff {
                self.injected += 1;
                return Err(format!("injected: transport dead since call {cutoff}"));
            }
        }
        match self.plan.fault_for(call) {
            Fault::None => self.inner.request(method, path, body),
            Fault::DropRequest => {
                self.injected += 1;
                Err(format!("injected: request {call} lost before send"))
            }
            Fault::DropResponse => {
                self.injected += 1;
                // The server really processes this one; only the answer
                // is lost — the retry-then-duplicate path.
                let _ = self.inner.request(method, path, body);
                Err(format!("injected: response to request {call} lost"))
            }
            Fault::Latency => {
                self.injected += 1;
                std::thread::sleep(std::time::Duration::from_millis(self.plan.latency_ms));
                self.inner.request(method, path, body)
            }
            Fault::Stall => {
                self.injected += 1;
                std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
                let _ = self.inner.request(method, path, body);
                Err(format!("injected: request {call} stalled, response lost"))
            }
            Fault::PartialWrite => {
                self.injected += 1;
                // Send a valid-HTTP request carrying a truncated body:
                // the server parses it, rejects the torn JSON, and must
                // not corrupt any state doing so.
                let cut = (0..=body.len() / 2)
                    .rev()
                    .find(|i| body.is_char_boundary(*i))
                    .unwrap_or(0);
                let _ = self.inner.request(method, path, &body[..cut]);
                Err(format!("injected: request {call} body cut at byte {cut}"))
            }
        }
    }

    fn breaker_opens(&self) -> u64 {
        self.inner.breaker_opens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Transport for Echo {
        fn request(&mut self, _m: &str, path: &str, _b: &str) -> Result<(u16, String), String> {
            Ok((200, path.to_owned()))
        }
    }

    #[test]
    fn schedule_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan {
            seed: 7,
            drop_request_percent: 20,
            drop_response_percent: 10,
            ..FaultPlan::none()
        };
        let first: Vec<Fault> = (0..64).map(|c| plan.fault_for(c)).collect();
        let second: Vec<Fault> = (0..64).map(|c| plan.fault_for(c)).collect();
        assert_eq!(first, second);
        let injected = first.iter().filter(|f| **f != Fault::None).count();
        assert!(injected > 0, "a 30% plan should hit within 64 calls");
        assert!(injected < 40, "a 30% plan should not hit most calls");
        // A different seed reshuffles the schedule.
        let other = FaultPlan { seed: 8, ..plan };
        assert_ne!(
            first,
            (0..64).map(|c| other.fault_for(c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn faults_surface_as_errors_and_death_is_permanent() {
        let plan = FaultPlan {
            seed: 1,
            die_after_calls: Some(2),
            ..FaultPlan::none()
        };
        let mut flaky = FlakyTransport::new(Echo, plan);
        assert!(flaky.request("GET", "/a", "").is_ok());
        assert!(flaky.request("GET", "/b", "").is_ok());
        assert!(flaky.request("GET", "/c", "").is_err());
        assert!(flaky.request("GET", "/d", "").is_err());
        assert_eq!((flaky.calls(), flaky.injected()), (4, 2));
    }

    #[test]
    fn chaos_modes_partition_the_roll_and_surface_as_planned() {
        let plan = FaultPlan {
            seed: 11,
            latency_percent: 25,
            latency_ms: 0,
            stall_percent: 25,
            stall_ms: 0,
            partial_write_percent: 25,
            ..FaultPlan::none()
        };
        assert!(plan.is_active());
        let faults: Vec<Fault> = (0..128).map(|c| plan.fault_for(c)).collect();
        for mode in [Fault::Latency, Fault::Stall, Fault::PartialWrite] {
            assert!(
                faults.contains(&mode),
                "a 25% band should hit within 128 calls: {mode:?}"
            );
        }
        let mut flaky = FlakyTransport::new(Echo, plan);
        let mut latency_ok = 0u64;
        let mut errors = 0u64;
        for call in 0..128u64 {
            match flaky.request("GET", "/x", "abcdef") {
                Ok(_) if plan.fault_for(call) == Fault::Latency => latency_ok += 1,
                Ok(_) => {}
                Err(e) => {
                    assert!(e.starts_with("injected:"), "unexpected error {e}");
                    errors += 1;
                }
            }
        }
        assert!(latency_ok > 0, "latency calls succeed after the delay");
        assert!(errors > 0, "stall and partial-write calls error");
        assert!(!FaultPlan::none().is_active());
    }

    #[test]
    fn none_plan_is_transparent() {
        let mut flaky = FlakyTransport::new(Echo, FaultPlan::none());
        for i in 0..32 {
            assert_eq!(
                flaky.request("GET", &format!("/{i}"), "").unwrap().1,
                format!("/{i}")
            );
        }
        assert_eq!(flaky.injected(), 0);
    }
}
