//! Property-based tests for the statistics toolkit.

use ahn_stats::{chi_squared, ratio, Series, Summary};
use proptest::prelude::*;

proptest! {
    /// Welford mean/variance agree with the naive two-pass formulas.
    #[test]
    fn summary_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s: Summary = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((s.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.variance().unwrap() - var).abs() < 1e-4 * (1.0 + var));
        }
        prop_assert_eq!(s.min().unwrap(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max().unwrap(), xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Series means are invariant to the order runs are added in.
    #[test]
    fn series_run_order_invariance(
        a in proptest::collection::vec(0.0f64..1.0, 1..20),
        b in proptest::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let mut ab = Series::new();
        ab.add_run(&a);
        ab.add_run(&b);
        let mut ba = Series::new();
        ba.add_run(&b);
        ba.add_run(&a);
        let (ma, mb) = (ab.means(), ba.means());
        prop_assert_eq!(ma.len(), mb.len());
        for (x, y) in ma.iter().zip(&mb) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// chi-squared is zero when observations are perfectly uniform.
    #[test]
    fn chi_squared_zero_iff_uniform(count in 1u64..100, k in 1usize..10) {
        let obs = vec![count; k];
        prop_assert!(chi_squared(&obs, &vec![1.0 / k as f64; k]) < 1e-9);
    }

    /// ratio() never divides by zero and is exact otherwise.
    #[test]
    fn ratio_total(num in 0u64..1000, den in 0u64..1000) {
        let r = ratio(num, den);
        if den == 0 {
            prop_assert_eq!(r, 0.0);
        } else {
            prop_assert!((r - num as f64 / den as f64).abs() < 1e-15);
        }
    }
}
