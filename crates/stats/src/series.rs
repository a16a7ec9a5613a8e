//! Aligned per-generation series averaged across independent runs.
//!
//! Figure 4 of the paper plots the cooperation level per generation,
//! averaged over 60 repetitions. [`Series`] accumulates one value per
//! index (generation) per run and reports mean / CI per index.

use crate::Summary;
use serde::{Deserialize, Serialize};

/// A collection of per-index [`Summary`]s, one per generation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    points: Vec<Summary>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Adds `value` as one observation of index `idx`, growing the series
    /// as needed.
    pub fn add(&mut self, idx: usize, value: f64) {
        if idx >= self.points.len() {
            self.points.resize(idx + 1, Summary::new());
        }
        self.points[idx].add(value);
    }

    /// Adds a whole run: `values[g]` is the observation for index `g`.
    pub fn add_run(&mut self, values: &[f64]) {
        for (g, &v) in values.iter().enumerate() {
            self.add(g, v);
        }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no indices exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Summary at index `idx`, if present.
    pub fn point(&self, idx: usize) -> Option<&Summary> {
        self.points.get(idx)
    }

    /// Mean value at each index (0.0 for indices with no data).
    pub fn means(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|s| s.mean().unwrap_or(0.0))
            .collect()
    }

    /// Down-samples to at most `max_points` indices by keeping every k-th
    /// point (always keeping the last) — handy for terminal output.
    pub fn thin(&self, max_points: usize) -> Vec<(usize, f64)> {
        assert!(max_points > 0, "max_points must be positive");
        if self.points.is_empty() {
            return Vec::new();
        }
        let step = self.points.len().div_ceil(max_points).max(1);
        let mut out: Vec<(usize, f64)> = self
            .points
            .iter()
            .enumerate()
            .step_by(step)
            .map(|(i, s)| (i, s.mean().unwrap_or(0.0)))
            .collect();
        let last = self.points.len() - 1;
        if out.last().map(|&(i, _)| i) != Some(last) {
            out.push((last, self.points[last].mean().unwrap_or(0.0)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_run_and_means() {
        let mut s = Series::new();
        s.add_run(&[1.0, 2.0, 3.0]);
        s.add_run(&[3.0, 4.0, 5.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.means(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ragged_runs_grow_series() {
        let mut s = Series::new();
        s.add_run(&[1.0]);
        s.add_run(&[3.0, 5.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0).unwrap().count(), 2);
        assert_eq!(s.point(1).unwrap().count(), 1);
    }

    #[test]
    fn thin_keeps_first_and_last() {
        let mut s = Series::new();
        s.add_run(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let t = s.thin(10);
        assert!(t.len() <= 11);
        assert_eq!(t.first().unwrap().0, 0);
        assert_eq!(t.last().unwrap().0, 99);
    }

    #[test]
    fn thin_of_empty_is_empty() {
        assert!(Series::new().thin(5).is_empty());
    }
}
