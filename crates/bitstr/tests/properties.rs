//! Property-based tests for the bit-string genome type.

use ahn_bitstr::{fmt::Grouped, ops, BitStr, MAX_BITS};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Strategy producing an arbitrary bit string of up to `max_len` bits.
fn bitstr(max_len: usize) -> impl Strategy<Value = BitStr> {
    proptest::collection::vec(any::<bool>(), 0..=max_len).prop_map(BitStr::from_bits)
}

/// Pair of equal-length bit strings.
fn bitstr_pair(max_len: usize) -> impl Strategy<Value = (BitStr, BitStr)> {
    (1..=max_len).prop_flat_map(|len| {
        (
            proptest::collection::vec(any::<bool>(), len).prop_map(BitStr::from_bits),
            proptest::collection::vec(any::<bool>(), len).prop_map(BitStr::from_bits),
        )
    })
}

/// Both children of a one-point crossover at a cut drawn from `0..=len`.
fn children(rng: &mut ChaCha8Rng, a: &BitStr, b: &BitStr) -> (BitStr, BitStr) {
    let cut = rng.gen_range(0..=a.len());
    (
        ops::one_point_child(a, b, cut, false),
        ops::one_point_child(a, b, cut, true),
    )
}

proptest! {
    #[test]
    fn display_parse_roundtrip(s in bitstr(MAX_BITS)) {
        let back: BitStr = s.to_string().parse().unwrap();
        prop_assert_eq!(&s, &back);
        let grouped: BitStr = Grouped(&s, 3).to_string().parse().unwrap();
        prop_assert_eq!(&s, &grouped);
    }

    #[test]
    fn serde_roundtrip(s in bitstr(MAX_BITS)) {
        let json = serde_json::to_string(&s).unwrap();
        let back: BitStr = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn count_ones_matches_iter(s in bitstr(MAX_BITS)) {
        prop_assert_eq!(s.count_ones(), s.iter().filter(|&b| b).count());
    }

    #[test]
    fn hamming_is_a_metric((a, b) in bitstr_pair(MAX_BITS)) {
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
        // Identity of indiscernibles.
        if a.hamming(&b) == 0 { prop_assert_eq!(&a, &b); }
    }

    #[test]
    fn crossover_children_at_each_position_use_parent_bits(
        (a, b) in bitstr_pair(MAX_BITS),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (c, d) = children(&mut rng, &a, &b);
        prop_assert_eq!(c.len(), a.len());
        for i in 0..a.len() {
            prop_assert!(c.get(i) == a.get(i) || c.get(i) == b.get(i));
            // Complementarity: d holds the bit c did not take.
            let taken_from_a = c.get(i) == a.get(i);
            if a.get(i) != b.get(i) {
                prop_assert_eq!(d.get(i), if taken_from_a { b.get(i) } else { a.get(i) });
            }
        }
    }

    #[test]
    fn crossover_conserves_total_ones((a, b) in bitstr_pair(MAX_BITS), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let total = a.count_ones() + b.count_ones();
        let (c, d) = children(&mut rng, &a, &b);
        prop_assert_eq!(c.count_ones() + d.count_ones(), total);
    }

    #[test]
    fn mutation_flip_count_equals_hamming(s in bitstr(MAX_BITS), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = s;
        let flips = ops::bit_flip_mutation(&mut rng, &mut m, 0.1);
        prop_assert_eq!(flips, s.hamming(&m));
    }

    #[test]
    fn slice_value_roundtrip(v in 0u64..8192, width in 1usize..=13) {
        let v = v & ((1 << width) - 1);
        let s = BitStr::from_value(v, width);
        prop_assert_eq!(s.slice_value(0..width), v);
    }
}
