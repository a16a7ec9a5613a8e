//! The paper's genetic operators over [`BitStr`] genomes (§5):
//! *standard one-point crossover* and *standard uniform bit-flip
//! mutation*.
//!
//! * A one-point crossover of parents `a` and `b` at `cut` has the
//!   children `a[..cut] ++ b[cut..]` and `b[..cut] ++ a[cut..]`. The
//!   paper keeps one of the two at random, so [`one_point_child`] builds
//!   only that one; the breeding loop (`ahn_ga::next_generation_into`)
//!   draws the cut from `1..len`, so a child always receives genetic
//!   material from both parents (a cut at 0 or `len` would merely clone
//!   a parent).
//! * Mutation flips every bit independently with probability `p`.

use crate::{mask, BitStr};
use rand::Rng;

/// Builds **one** child of a one-point crossover without materializing
/// its sibling: `a[..cut] ++ b[cut..]` when `take_second` is false,
/// `b[..cut] ++ a[cut..]` when true.
///
/// The paper's GA keeps only one of the two children (§5), so building
/// both would double the work for nothing. The caller draws the cut and
/// the child pick itself (in that order).
///
/// # Panics
/// Panics if the lengths differ or `cut > len`.
pub fn one_point_child(a: &BitStr, b: &BitStr, cut: usize, take_second: bool) -> BitStr {
    assert_eq!(a.len(), b.len(), "crossover of unequal lengths");
    assert!(cut <= a.len(), "cut {cut} out of range");
    let (head, tail) = if take_second { (b, a) } else { (a, b) };
    let low = mask(cut);
    BitStr {
        len: a.len,
        word: (head.word & low) | (tail.word & !low),
    }
}

/// Uniform bit-flip mutation: flips each bit independently with
/// probability `p` (the paper uses `p = 0.001`). Returns the number of
/// flipped bits.
///
/// # Panics
/// Panics if `p ∉ [0, 1]`.
pub fn bit_flip_mutation<R: Rng + ?Sized>(rng: &mut R, genome: &mut BitStr, p: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&p),
        "mutation probability out of range"
    );
    let mut flipped = 0;
    for i in 0..genome.len() {
        if rng.gen_bool(p) {
            genome.flip(i);
            flipped += 1;
        }
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Both children of a one-point crossover at `cut`.
    fn children(a: &BitStr, b: &BitStr, cut: usize) -> (BitStr, BitStr) {
        (
            one_point_child(a, b, cut, false),
            one_point_child(a, b, cut, true),
        )
    }

    #[test]
    fn crossover_at_known_cut() {
        let a: BitStr = "0000".parse().unwrap();
        let b: BitStr = "1111".parse().unwrap();
        let (c, d) = children(&a, &b, 2);
        assert_eq!(c.to_string(), "0011");
        assert_eq!(d.to_string(), "1100");
    }

    #[test]
    fn one_point_child_matches_both_siblings() {
        // Each child is one parent up to the cut and the other after it,
        // and the two children split every position's bits between them.
        let mut r = rng(21);
        for len in [2usize, 13, 63, 64] {
            let a = BitStr::random(&mut r, len);
            let b = BitStr::random(&mut r, len);
            for cut in 0..=len {
                let (c1, c2) = children(&a, &b, cut);
                for i in 0..len {
                    let (head, tail) = if i < cut { (&a, &b) } else { (&b, &a) };
                    assert_eq!(c1.get(i), head.get(i), "len {len} cut {cut} bit {i}");
                    assert_eq!(c2.get(i), tail.get(i), "len {len} cut {cut} bit {i}");
                }
            }
        }
    }

    #[test]
    fn crossover_preserves_positionwise_multiset() {
        // For every position the children's bits are a permutation of the
        // parents' bits at that position, whatever the cut.
        let mut r = rng(11);
        let a = BitStr::random(&mut r, 13);
        let b = BitStr::random(&mut r, 13);
        for _ in 0..50 {
            let (c, d) = children(&a, &b, r.gen_range(1..13));
            for i in 0..13 {
                let parents = [a.get(i), b.get(i)];
                let mut kids = [c.get(i), d.get(i)];
                kids.sort();
                let mut sorted_parents = parents;
                sorted_parents.sort();
                assert_eq!(kids, sorted_parents, "position {i}");
            }
        }
    }

    #[test]
    fn one_point_children_differ_from_parents_when_parents_differ_everywhere() {
        let a = BitStr::zeros(13);
        let b = BitStr::ones(13);
        let mut r = rng(5);
        let (c, d) = children(&a, &b, r.gen_range(1..13));
        // With an interior cut both children are proper mixtures.
        assert!(c.count_ones() > 0 && c.count_ones() < 13);
        assert!(d.count_ones() > 0 && d.count_ones() < 13);
        assert_eq!(c.count_ones() + d.count_ones(), 13);
    }

    #[test]
    fn one_point_on_tiny_genomes_clones() {
        // A 1-bit genome has no interior cut: either cut clones the parents.
        let a = BitStr::zeros(1);
        let b = BitStr::ones(1);
        assert_eq!(children(&a, &b, 0), (b, a));
        assert_eq!(children(&a, &b, 1), (a, b));
    }

    #[test]
    fn mutation_rate_statistics() {
        // Flip probability 0.01 over 13 bits x 20k genomes: expect ~2600
        // flips; allow generous slack.
        let mut r = rng(99);
        let mut flips = 0usize;
        for _ in 0..20_000 {
            let mut g = BitStr::zeros(13);
            flips += bit_flip_mutation(&mut r, &mut g, 0.01);
        }
        assert!((2_100..=3_100).contains(&flips), "flips={flips}");
    }

    #[test]
    fn mutation_zero_and_one_probabilities() {
        let mut r = rng(7);
        let mut g = BitStr::random(&mut r, 64);
        let orig = g;
        assert_eq!(bit_flip_mutation(&mut r, &mut g, 0.0), 0);
        assert_eq!(g, orig);
        assert_eq!(bit_flip_mutation(&mut r, &mut g, 1.0), 64);
        assert_eq!(g.hamming(&orig), 64);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn crossover_length_mismatch_panics() {
        let _ = one_point_child(&BitStr::zeros(5), &BitStr::zeros(6), 3, false);
    }

    #[test]
    fn two_point_full_range_swaps_everything_or_nothing() {
        let a = BitStr::zeros(8);
        let b = BitStr::ones(8);
        // A cut at either end swaps everything or nothing.
        let (c, d) = children(&a, &b, 0);
        assert_eq!(c, b);
        assert_eq!(d, a);
        let (c, d) = children(&a, &b, 8);
        assert_eq!(c, a);
        assert_eq!(d, b);
    }
}
