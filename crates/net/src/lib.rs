//! Ad hoc network substrate for the IPDPS'07 reproduction.
//!
//! This crate implements every networking mechanism the paper's model
//! depends on (paper §3 and §6.1):
//!
//! * [`reputation`] — the per-node reputation tables built from watchdog
//!   observations (packets sent to / forwarded by each known node);
//! * [`trust`] — the forwarding-rate → trust-level lookup of Fig. 1b;
//! * [`activity`] — the LO/MI/HI activity classification of §3.2;
//! * [`watchdog`] — the Fig. 1a update rule mapping a route outcome to
//!   reputation updates for every game participant;
//! * [`paths`] — the random-path model of §6.1 (Tables 2–3): hop-count
//!   distributions for the *shorter*/*longer* path modes, alternate-path
//!   counts, path rating as the product of known forwarding rates, and
//!   best-reputation route selection;
//! * [`energy`] — Feeney–Nilsson-style per-state energy accounting (the
//!   paper's §1 motivation: sleeping costs ≈ 2 % of idle listening).
//!
//! The paper's own network model is deliberately abstract: "All
//! intermediate nodes are chosen randomly. This simulates a network with a
//! high mobility level" (§4.1). The [`paths`] module is that substrate.

#![deny(missing_docs)]

pub mod activity;
pub mod energy;
pub mod gossip;
pub mod paths;
pub mod reputation;
pub mod trust;
pub mod watchdog;

pub use activity::{ActivityBands, ActivityLevel};
pub use gossip::{GossipConfig, GossipPolicy};
pub use paths::{
    AltPathDist, Candidates, PathGenerator, PathLengthDist, PathMode, RouteSelection, MAX_RELAYS,
};
pub use reputation::{ReputationMatrix, UNKNOWN_RATE};
pub use trust::{TrustLevel, TrustTable};
pub use watchdog::RouteOutcome;

use serde::{Deserialize, Serialize};

/// Dense node identifier.
///
/// Within one experiment the nodes are numbered `0..n`: normal players
/// first, then the constantly-selfish pool. Dense ids let the reputation
/// store be a flat matrix instead of hash maps (the ids are tiny and the
/// store is cleared every generation).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node id exceeds u32"))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_conversions() {
        let id = NodeId::from(7usize);
        assert_eq!(id, NodeId(7));
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(NodeId::from(3u32), NodeId(3));
    }

    #[test]
    fn node_id_serde_is_transparent() {
        let id = NodeId(12);
        assert_eq!(serde_json::to_string(&id).unwrap(), "12");
        let back: NodeId = serde_json::from_str("12").unwrap();
        assert_eq!(back, id);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn node_id_overflow_panics() {
        let _ = NodeId::from(usize::MAX);
    }
}
