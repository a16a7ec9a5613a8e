//! Descriptive statistics used by the experiment harness.
//!
//! The paper averages every experiment over 60 independent repetitions
//! (§6.1) and reports percentages and generation series (Fig. 4); its
//! popularity tables (Tab. 7–9) are counted by `ahn_strategy::analysis`.
//! This crate provides the small, dependency-free numerical toolkit
//! behind the reports:
//!
//! * [`Summary`] — streaming mean / variance (Welford) with confidence
//!   intervals,
//! * [`Series`] — aligned per-generation series averaged across runs,
//! * [`chi_squared`] and its critical values — the goodness-of-fit check
//!   behind `ahn-exp check`'s Table 2–3 sampling rows,
//! * [`sampling`] — the shared categorical sampler (the linear CDF walk)
//!   behind the path distributions and roulette selection.

#![deny(missing_docs)]

pub mod plot;
pub mod sampling;
pub mod series;
pub mod summary;

pub use plot::{ascii_chart, PlotSeries};
pub use sampling::{last_positive_category, walk_categorical};
pub use series::Series;
pub use summary::Summary;

/// Pearson's chi-squared statistic for observed counts against expected
/// probabilities.
///
/// Categories with zero expected probability must have zero observations;
/// otherwise the statistic is infinite (returned as `f64::INFINITY`).
///
/// # Panics
/// Panics if the slices' lengths differ or `expected` does not sum to ~1.
pub fn chi_squared(observed: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "category count mismatch");
    let p_sum: f64 = expected.iter().sum();
    assert!(
        (p_sum - 1.0).abs() < 1e-9,
        "expected probabilities sum to {p_sum}, not 1"
    );
    let n: u64 = observed.iter().sum();
    let n = n as f64;
    let mut stat = 0.0;
    for (&o, &p) in observed.iter().zip(expected) {
        let e = n * p;
        if e == 0.0 {
            if o > 0 {
                return f64::INFINITY;
            }
            continue;
        }
        let d = o as f64 - e;
        stat += d * d / e;
    }
    stat
}

/// 99.9 % critical values of the chi-squared distribution for small degrees
/// of freedom (1..=15), used by statistical unit tests so they practically
/// never flake.
///
/// # Panics
/// Panics if `dof` is outside `1..=15`.
pub fn chi_squared_crit_999(dof: usize) -> f64 {
    const TABLE: [f64; 15] = [
        10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124, 27.877, 29.588, 31.264,
        32.909, 34.528, 36.123, 37.697,
    ];
    assert!((1..=15).contains(&dof), "dof {dof} outside table");
    TABLE[dof - 1]
}

/// A safe ratio: `num / den`, or 0 when `den == 0`. Experiment reports are
/// full of "percentage of X among Y" quantities where Y can be empty in
/// tiny configurations.
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Formats a fraction as the paper prints it: a percentage with `digits`
/// decimal places (e.g. `0.23 %` in Tab. 6).
pub fn pct(fraction: f64, digits: usize) -> String {
    format!("{:.*}%", digits, fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_squared_perfect_fit_is_zero() {
        let obs = [25u64, 25, 25, 25];
        assert_eq!(chi_squared(&obs, &[0.25; 4]), 0.0);
    }

    #[test]
    fn chi_squared_detects_skew() {
        let obs = [100u64, 0, 0, 0];
        assert!(chi_squared(&obs, &[0.25; 4]) > chi_squared_crit_999(3));
    }

    #[test]
    fn chi_squared_zero_probability_category() {
        // Observation in an impossible category -> infinite statistic.
        let obs = [10u64, 1];
        assert_eq!(chi_squared(&obs, &[1.0, 0.0]), f64::INFINITY);
        // No observation there -> finite.
        let obs = [10u64, 0];
        assert_eq!(chi_squared(&obs, &[1.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "category count mismatch")]
    fn chi_squared_length_mismatch_panics() {
        let _ = chi_squared(&[1, 2], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn chi_squared_bad_probabilities_panic() {
        let _ = chi_squared(&[1, 2], &[0.3, 0.3]);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(3, 0), 0.0);
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.9702, 0), "97%");
        assert_eq!(pct(0.0023, 2), "0.23%");
    }

    #[test]
    fn crit_values_are_monotone() {
        for d in 2..=15 {
            assert!(chi_squared_crit_999(d) > chi_squared_crit_999(d - 1));
        }
    }
}
