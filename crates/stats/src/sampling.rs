//! The one categorical sampler of the workspace.
//!
//! Three hot loops draw from small categorical distributions: the path
//! length of Table 2 (`ahn_net::PathLengthDist`), the alternative-path
//! count of Table 3 (`ahn_net::AltPathDist`) and the GA's roulette
//! selection (`ahn_ga::Selection::Roulette`). All three sample with
//! [`walk_categorical`], the linear subtractive CDF walk. It returns
//! `None` when accumulated floating-point slack lets the draw fall off
//! the end of the table, and each caller maps that to its documented
//! fallback: the **last positive-weight category**
//! ([`last_positive_category`]; a zero-weight category must never be
//! selected) for path lengths and roulette, the last category for the
//! alternative-path rows.
//!
//! The crate stays RNG-agnostic: callers draw one uniform `f64` in
//! `[0, 1)` per sample (one `rng.gen::<f64>()`) and pass it in, which
//! also keeps the number of RNG draws per sample at exactly one.

/// Reference linear CDF walk: returns the first category `i` for which
/// the remaining mass `x - w_0 - … - w_{i-1}` is strictly below `w_i`.
///
/// `None` means floating-point slack exhausted the table (`x` within a
/// few ulps of the total weight); callers fall back to the last
/// positive-weight category.
///
/// Weights must be non-negative; `x` is a uniform draw scaled to the
/// weights' total.
#[inline]
pub fn walk_categorical<I>(mut x: f64, weights: I) -> Option<usize>
where
    I: IntoIterator<Item = f64>,
{
    for (i, w) in weights.into_iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight {w} at category {i}");
        if x < w {
            return Some(i);
        }
        x -= w;
    }
    None
}

/// Index of the last positive weight — the documented fallback category
/// for floating-point slack in [`walk_categorical`].
///
/// # Panics
/// Panics if no weight is positive (an empty distribution cannot be
/// sampled).
#[inline]
pub fn last_positive_category<I>(weights: I) -> usize
where
    I: IntoIterator<Item = f64>,
{
    let mut last = None;
    for (i, w) in weights.into_iter().enumerate() {
        if w > 0.0 {
            last = Some(i);
        }
    }
    last.expect("distribution has no positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_and_gapped_distributions() {
        // The walk with the last-positive fallback never selects a
        // zero-weight category, down to the draws one ulp below 1.
        let below_one = (1..=3).map(|k| f64::from_bits(1.0f64.to_bits() - k));
        let draws: Vec<f64> = (0..10_000)
            .map(|k| f64::from(k) / 10_000.0)
            .chain(below_one)
            .collect();
        for weights in [
            &[1.0][..],
            &[0.0, 1.0],
            &[0.5, 0.0, 0.5],
            &[0.7, 0.3, 0.0],
            &[0.2, 0.3, 0.3, 0.05, 0.05, 0.05, 0.05, 0.0, 0.0],
        ] {
            for &u in &draws {
                let c = walk_categorical(u, weights.iter().copied())
                    .unwrap_or_else(|| last_positive_category(weights.iter().copied()));
                assert!(weights[c] > 0.0, "u = {u:e} picked empty category {c}");
            }
        }
    }

    #[test]
    fn walk_handles_slack() {
        // Weights summing slightly below the draw: walk must fall off.
        assert_eq!(walk_categorical(1.0, [0.4, 0.6 - 1e-12]), None);
        assert_eq!(walk_categorical(0.0, [0.4, 0.6]), Some(0));
        assert_eq!(walk_categorical(0.0, [0.0, 0.6]), Some(1), "skips zero");
    }

    #[test]
    fn last_positive_skips_trailing_zeros() {
        assert_eq!(last_positive_category([0.2, 0.8, 0.0, 0.0]), 1);
        assert_eq!(last_positive_category([1.0]), 0);
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn all_zero_distribution_panics() {
        last_positive_category([0.0, 0.0]);
    }
}
