//! Forwarding strategies (paper §3.3, Fig. 1c).
//!
//! A strategy is a binary string of length 13. Bits 0–11 give the
//! forward/discard decision for each combination of the source's trust
//! level (0–3) and activity level (LO/MI/HI); bit 12 decides about
//! packets from *unknown* sources:
//!
//! ```text
//! bit:      0   1   2   3   4   5   6   7   8   9  10  11  12
//! trust:    └─ T0 ──┘  └─ T1 ──┘  └─ T2 ──┘  └─ T3 ──┘  unknown
//! activity: LO  MI  HI  LO  MI  HI  LO  MI  HI  LO  MI  HI
//! ```
//!
//! A set (`1`) bit means **F** (forward); a clear (`0`) bit means **D**
//! (discard). The paper prints strategies as `010 101 101 111 1` — four
//! 3-bit *sub-strategies* (one per trust level, LO MI HI order) plus the
//! unknown bit; [`Strategy`]'s `Display` reproduces that notation.
//!
//! The [`analysis`] module implements the population statistics behind
//! Tables 7–9, and [`reduced`] the 5-bit trust-only variant used by the
//! activity-dimension ablation (DESIGN.md A2).

#![deny(missing_docs)]

pub mod analysis;
pub mod reduced;

use ahn_bitstr::{fmt::Grouped, BitStr};
use ahn_net::{ActivityLevel, TrustLevel};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of bits in a full strategy.
pub const STRATEGY_BITS: usize = 13;

/// A forward-or-discard decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Drop the packet (`D`, bit = 0).
    Discard,
    /// Relay the packet (`F`, bit = 1).
    Forward,
}

impl Decision {
    /// Builds a decision from a strategy bit.
    #[inline]
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Decision::Forward
        } else {
            Decision::Discard
        }
    }

    /// The strategy bit encoding this decision.
    #[inline]
    pub fn bit(self) -> bool {
        self == Decision::Forward
    }
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Decision::Discard => "D",
            Decision::Forward => "F",
        })
    }
}

/// A 13-bit forwarding strategy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Strategy {
    bits: BitStr,
}

impl Strategy {
    /// Wraps a 13-bit string.
    ///
    /// # Panics
    /// Panics unless `bits.len() == 13`.
    pub fn from_bits(bits: BitStr) -> Self {
        assert_eq!(bits.len(), STRATEGY_BITS, "a strategy has exactly 13 bits");
        Strategy { bits }
    }

    /// A uniformly random strategy (initial populations, §5).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Strategy::from_bits(BitStr::random(rng, STRATEGY_BITS))
    }

    /// The fully cooperative strategy (`111 111 111 111 1`).
    pub fn always_forward() -> Self {
        Strategy::from_bits(BitStr::ones(STRATEGY_BITS))
    }

    /// The fully selfish strategy (`000 000 000 000 0`), i.e. the behavior
    /// of a constantly selfish node expressed as a strategy.
    pub fn always_discard() -> Self {
        Strategy::from_bits(BitStr::zeros(STRATEGY_BITS))
    }

    /// A trust-threshold strategy: forward iff the source's trust level is
    /// at least `min_trust` (regardless of activity); `forward_unknown`
    /// sets the unknown-node bit. A useful hand-written baseline.
    pub fn trust_threshold(min_trust: TrustLevel, forward_unknown: bool) -> Self {
        let mut bits = BitStr::zeros(STRATEGY_BITS);
        for t in TrustLevel::ALL {
            if t >= min_trust {
                for a in ActivityLevel::ALL {
                    bits.set(cell_index(t, a), true);
                }
            }
        }
        bits.set(UNKNOWN_BIT, forward_unknown);
        Strategy::from_bits(bits)
    }

    /// The underlying bit string (e.g. for GA operators).
    pub fn bits(&self) -> &BitStr {
        &self.bits
    }

    /// The decision against a *known* source with the given trust and
    /// activity levels (bits 0–11).
    #[inline]
    pub fn decision(&self, trust: TrustLevel, activity: ActivityLevel) -> Decision {
        Decision::from_bit(self.bits.get(cell_index(trust, activity)))
    }

    /// The decision against an *unknown* source (bit 12).
    #[inline]
    pub fn unknown_decision(&self) -> Decision {
        Decision::from_bit(self.bits.get(UNKNOWN_BIT))
    }

    /// The 3-bit sub-strategy for one trust level, as a value 0..=7 with
    /// LO as the most significant bit (so `0b010` = "forward only for MI",
    /// printed `010` like Tables 8–9).
    pub fn sub_strategy(&self, trust: TrustLevel) -> u8 {
        let base = trust.value() as usize * 3;
        self.bits.slice_value(base..base + 3) as u8
    }

    /// Encodes the whole strategy as a 13-bit integer (bit 0 of the paper
    /// = most significant), a compact key for popularity histograms.
    pub fn encode(&self) -> u16 {
        self.bits.slice_value(0..STRATEGY_BITS) as u16
    }

    /// Decodes [`Strategy::encode`]'s integer form.
    ///
    /// # Panics
    /// Panics if `code >= 2^13`.
    pub fn decode(code: u16) -> Self {
        assert!(code < 1 << STRATEGY_BITS, "code {code} exceeds 13 bits");
        Strategy::from_bits(BitStr::from_value(u64::from(code), STRATEGY_BITS))
    }

    /// Fraction of the 12 known-source cells that say Forward — a crude
    /// but useful cooperativeness score for population summaries.
    pub fn cooperativeness(&self) -> f64 {
        let forwards: usize = (0..12).filter(|&i| self.bits.get(i)).count();
        forwards as f64 / 12.0
    }

    /// Renders the decision table like Fig. 1c's caption, for debugging
    /// and the strategy-analysis example.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for t in TrustLevel::ALL {
            let _ = write!(out, "{t}: ");
            for a in ActivityLevel::ALL {
                let _ = write!(out, "{}={} ", a, self.decision(t, a));
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "unknown: {}", self.unknown_decision());
        out
    }
}

/// Index of the unknown-node bit.
pub const UNKNOWN_BIT: usize = 12;

/// Bit index for a (trust, activity) cell: three bits per trust level in
/// LO, MI, HI order (Fig. 1c).
#[inline]
pub fn cell_index(trust: TrustLevel, activity: ActivityLevel) -> usize {
    trust.value() as usize * 3 + activity.value() as usize
}

impl std::fmt::Display for Strategy {
    /// Prints the paper's grouped notation, e.g. `010 101 101 111 1`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Grouped(&self.bits, 3).fmt(f)
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses either notation (`"010 101 101 111 1"` or compact).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bits: BitStr = s.parse().map_err(|e| format!("{e}"))?;
        if bits.len() != STRATEGY_BITS {
            return Err(format!(
                "a strategy needs exactly {STRATEGY_BITS} bits, got {}",
                bits.len()
            ));
        }
        Ok(Strategy::from_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of §3.3: strategy `DDD FFF DDD FDD F`
    /// (Fig. 1c), node B has trust 3 in node A, A's activity is LO ->
    /// decision is bit 9 = F.
    #[test]
    fn fig_1c_worked_example() {
        // DDD FFF DDD FDD F -> 000 111 000 100 1
        let s: Strategy = "000 111 000 100 1".parse().unwrap();
        assert_eq!(
            s.decision(TrustLevel::T3, ActivityLevel::Lo),
            Decision::Forward,
            "bit 9 of the example strategy is F"
        );
        assert_eq!(
            s.decision(TrustLevel::T3, ActivityLevel::Mi),
            Decision::Discard
        );
        assert_eq!(
            s.decision(TrustLevel::T0, ActivityLevel::Lo),
            Decision::Discard
        );
        assert_eq!(
            s.decision(TrustLevel::T1, ActivityLevel::Hi),
            Decision::Forward
        );
        assert_eq!(s.unknown_decision(), Decision::Forward);
    }

    #[test]
    fn cell_index_layout_matches_fig_1c() {
        assert_eq!(cell_index(TrustLevel::T0, ActivityLevel::Lo), 0);
        assert_eq!(cell_index(TrustLevel::T0, ActivityLevel::Hi), 2);
        assert_eq!(cell_index(TrustLevel::T1, ActivityLevel::Lo), 3);
        assert_eq!(cell_index(TrustLevel::T3, ActivityLevel::Lo), 9);
        assert_eq!(cell_index(TrustLevel::T3, ActivityLevel::Hi), 11);
    }

    #[test]
    fn extreme_strategies() {
        let allc = Strategy::always_forward();
        let alld = Strategy::always_discard();
        for t in TrustLevel::ALL {
            for a in ActivityLevel::ALL {
                assert_eq!(allc.decision(t, a), Decision::Forward);
                assert_eq!(alld.decision(t, a), Decision::Discard);
            }
        }
        assert_eq!(allc.unknown_decision(), Decision::Forward);
        assert_eq!(alld.unknown_decision(), Decision::Discard);
        assert_eq!(allc.cooperativeness(), 1.0);
        assert_eq!(alld.cooperativeness(), 0.0);
    }

    #[test]
    fn trust_threshold_strategy() {
        let s = Strategy::trust_threshold(TrustLevel::T2, true);
        assert_eq!(
            s.decision(TrustLevel::T1, ActivityLevel::Hi),
            Decision::Discard
        );
        assert_eq!(
            s.decision(TrustLevel::T2, ActivityLevel::Lo),
            Decision::Forward
        );
        assert_eq!(
            s.decision(TrustLevel::T3, ActivityLevel::Mi),
            Decision::Forward
        );
        assert_eq!(s.unknown_decision(), Decision::Forward);
        assert!((s.cooperativeness() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sub_strategy_extraction_matches_tables_8_9() {
        // Table 7 row 1 (case 3): 010 101 101 111 1.
        let s: Strategy = "010 101 101 111 1".parse().unwrap();
        assert_eq!(s.sub_strategy(TrustLevel::T0), 0b010);
        assert_eq!(s.sub_strategy(TrustLevel::T1), 0b101);
        assert_eq!(s.sub_strategy(TrustLevel::T2), 0b101);
        assert_eq!(s.sub_strategy(TrustLevel::T3), 0b111);
    }

    #[test]
    fn display_roundtrip_uses_paper_notation() {
        let s: Strategy = "000 111 111 111 1".parse().unwrap();
        assert_eq!(s.to_string(), "000 111 111 111 1");
        let back: Strategy = s.to_string().parse().unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn parse_rejects_wrong_lengths() {
        assert!("010".parse::<Strategy>().is_err());
        assert!("0101011011111 0".parse::<Strategy>().is_err());
        assert!("01010110111x1".parse::<Strategy>().is_err());
    }

    #[test]
    fn encode_decode_roundtrip_all_8192() {
        for code in 0u16..(1 << 13) {
            let s = Strategy::decode(code);
            assert_eq!(s.encode(), code);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 13 bits")]
    fn decode_rejects_large_codes() {
        let _ = Strategy::decode(1 << 13);
    }

    #[test]
    fn random_strategy_is_deterministic_under_seed() {
        use rand::SeedableRng;
        let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        assert_eq!(Strategy::random(&mut a), Strategy::random(&mut b));
    }

    #[test]
    fn describe_mentions_all_levels() {
        let d = Strategy::always_forward().describe();
        for needle in ["TL0", "TL3", "LO=F", "HI=F", "unknown: F"] {
            assert!(d.contains(needle), "missing {needle} in {d}");
        }
    }

    #[test]
    fn serde_is_transparent_paper_notation() {
        let s: Strategy = "010 101 101 111 1".parse().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"0101011011111\"");
        let back: Strategy = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
