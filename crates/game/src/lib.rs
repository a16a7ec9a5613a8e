//! The Ad Hoc Network Game (paper §4).
//!
//! One node originates a packet; the randomly drawn intermediate nodes
//! decide in sequence whether to forward or discard it. Participants are
//! the source plus the intermediates (the destination takes no decision).
//! After the game every participant that received the packet is paid
//! according to the payoff tables of Fig. 2, and reputation is updated
//! per the watchdog rule of Fig. 1a.
//!
//! Module map:
//!
//! * [`payoff`] — the source / intermediate payoff tables and the payoff
//!   accounts behind the fitness function (eq. 1);
//! * [`players`] — node kinds (normal, constantly selfish, the
//!   random-dropper extension and the adversary zoo);
//! * [`metrics`] — the per-environment counters behind Fig. 4 and
//!   Tables 5–6;
//! * [`arena`] — the mutable world state one generation plays in;
//! * [`game`] — a single Ad Hoc Network Game (§4.1), the one game
//!   implementation for every node kind, and a tournament round as a
//!   loop over it;
//! * [`tournament`] — the R-round tournament scheme (§4.4);
//! * [`environment`] — tournament environments TE1–TE4 (Tab. 1) and the
//!   multi-environment evaluation schedule (§4.4, Fig. 3).

#![deny(missing_docs)]

pub mod arena;
pub mod environment;
pub mod game;
pub mod metrics;
pub mod payoff;
pub mod players;
pub mod tournament;

pub use arena::{Arena, GameConfig};
pub use environment::{EnvironmentSpec, EvaluationSchedule, ScheduleScratch};
pub use game::{play_game, play_round};
pub use metrics::{EnvMetrics, Metrics, ReqCounts};
pub use payoff::{enumerate_reconstructions, PayoffAccount, PayoffConfig, GARBLED_READINGS};
pub use players::NodeKind;
pub use tournament::{RoundScratch, Tournament};
