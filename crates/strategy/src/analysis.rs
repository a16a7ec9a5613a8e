//! Strategy-population analysis (paper §6.3, Tables 7–9).
//!
//! Table 7 lists the five most popular full strategies in final
//! populations; Tables 8–9 break populations down into 3-bit
//! *sub-strategies* per trust level, showing those above a 3 % share.
//! [`StrategyCensus`] accumulates both views across runs.

use crate::Strategy;
use ahn_net::TrustLevel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Population census: full-strategy popularity plus per-trust-level
/// sub-strategy popularity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategyCensus {
    /// Count per encoded full strategy (13-bit code).
    full: BTreeMap<u16, u64>,
    /// Count per 3-bit sub-strategy, one table per trust level.
    sub: [BTreeMap<u8, u64>; 4],
    /// Count of strategies whose unknown-node bit says Forward.
    unknown_forward: u64,
    /// Total strategies observed.
    total: u64,
}

impl StrategyCensus {
    /// Creates an empty census.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one strategy observation.
    pub fn add(&mut self, s: &Strategy) {
        *self.full.entry(s.encode()).or_insert(0) += 1;
        for t in TrustLevel::ALL {
            *self.sub[t.value() as usize]
                .entry(s.sub_strategy(t))
                .or_insert(0) += 1;
        }
        if s.unknown_decision() == crate::Decision::Forward {
            self.unknown_forward += 1;
        }
        self.total += 1;
    }

    /// Adds every strategy of a population.
    pub fn add_population<'a, I: IntoIterator<Item = &'a Strategy>>(&mut self, pop: I) {
        for s in pop {
            self.add(s);
        }
    }

    /// Total strategies observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `n` most popular full strategies with their share, ties broken
    /// by code for determinism (Table 7).
    pub fn top_strategies(&self, n: usize) -> Vec<(Strategy, f64)> {
        let mut v: Vec<(u16, u64)> = self.full.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter()
            .take(n)
            .map(|(k, c)| (Strategy::decode(k), c as f64 / self.total.max(1) as f64))
            .collect()
    }

    /// Sub-strategy shares for one trust level, descending, filtered to
    /// shares strictly above `min_share` (Tables 8–9 use 0.03).
    pub fn sub_strategies(&self, trust: TrustLevel, min_share: f64) -> Vec<(u8, f64)> {
        let table = &self.sub[trust.value() as usize];
        let mut v: Vec<(u8, u64)> = table.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter()
            .map(|(k, c)| (k, c as f64 / self.total.max(1) as f64))
            .filter(|&(_, share)| share > min_share)
            .collect()
    }

    /// Share of strategies that forward for unknown nodes (the paper
    /// observes this converges to ~1: "a decision against an unknown
    /// player (last bit) is to forward").
    pub fn unknown_forward_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.unknown_forward as f64 / self.total as f64
        }
    }

    /// Share of strategies whose sub-strategy for `trust` forwards in at
    /// least `k` of the three activity levels — the lens the paper uses
    /// when it says e.g. "93 % of strategies said to forward packets for
    /// at least two activity levels" (§6.3).
    pub fn forward_at_least(&self, trust: TrustLevel, k: u32) -> f64 {
        let table = &self.sub[trust.value() as usize];
        let matching: u64 = table
            .iter()
            .filter(|(&code, _)| code.count_ones() >= k)
            .map(|(_, &c)| c)
            .sum();
        if self.total == 0 {
            0.0
        } else {
            matching as f64 / self.total as f64
        }
    }
}

/// Renders a 3-bit sub-strategy the way the paper prints it (`"010"`).
pub fn sub_strategy_str(code: u8) -> String {
    assert!(code < 8, "sub-strategy code {code} exceeds 3 bits");
    format!("{code:03b}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strat(s: &str) -> Strategy {
        s.parse().unwrap()
    }

    #[test]
    fn top_strategies_ranking() {
        let mut c = StrategyCensus::new();
        let a = strat("010 101 101 111 1");
        let b = strat("000 111 111 111 1");
        c.add_population([&a, &a, &a, &b]);
        let top = c.top_strategies(2);
        assert_eq!(top[0].0, a);
        assert!((top[0].1 - 0.75).abs() < 1e-12);
        assert_eq!(top[1].0, b);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn sub_strategy_table_with_cutoff() {
        let mut c = StrategyCensus::new();
        // 97 strategies with T3 = 111, 3 with T3 = 000: the 3% cutoff
        // hides the minority (3/100 is not > 0.03).
        for _ in 0..97 {
            c.add(&strat("000 000 000 111 1"));
        }
        for _ in 0..3 {
            c.add(&strat("000 000 000 000 1"));
        }
        let t3 = c.sub_strategies(TrustLevel::T3, 0.03);
        assert_eq!(t3, vec![(0b111, 0.97)]);
        // Without cutoff both appear.
        let all = c.sub_strategies(TrustLevel::T3, 0.0);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn unknown_forward_share() {
        let mut c = StrategyCensus::new();
        c.add(&strat("000 000 000 000 1"));
        c.add(&strat("000 000 000 000 0"));
        c.add(&strat("111 111 111 111 1"));
        assert!((c.unknown_forward_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn forward_at_least_counts_activity_levels() {
        let mut c = StrategyCensus::new();
        c.add(&strat("010 000 000 000 0")); // T0: one F
        c.add(&strat("011 000 000 000 0")); // T0: two F
        c.add(&strat("111 000 000 000 0")); // T0: three F
        assert!((c.forward_at_least(TrustLevel::T0, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.forward_at_least(TrustLevel::T0, 1), 1.0);
        assert_eq!(c.forward_at_least(TrustLevel::T1, 1), 0.0);
    }

    #[test]
    fn sub_strategy_string_formats_like_paper() {
        assert_eq!(sub_strategy_str(0b010), "010");
        assert_eq!(sub_strategy_str(0), "000");
        assert_eq!(sub_strategy_str(7), "111");
    }

    #[test]
    #[should_panic(expected = "exceeds 3 bits")]
    fn sub_strategy_string_rejects_wide_codes() {
        let _ = sub_strategy_str(8);
    }

    #[test]
    fn empty_census_is_safe() {
        let c = StrategyCensus::new();
        assert!(c.top_strategies(5).is_empty());
        assert!(c.sub_strategies(TrustLevel::T0, 0.0).is_empty());
        assert_eq!(c.unknown_forward_share(), 0.0);
        assert_eq!(c.forward_at_least(TrustLevel::T2, 1), 0.0);
    }
}
