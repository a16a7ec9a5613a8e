//! Fixed-width bit strings used as GA genomes throughout the workspace.
//!
//! The paper encodes a node's forwarding strategy as a binary string of
//! length 13 (Fig. 1c) and the IPDRP baseline uses strings of length 5.
//! This crate provides [`BitStr`], a compact, fixed-length bit string with
//! the operations a genetic algorithm needs:
//!
//! * random generation ([`BitStr::random`]),
//! * the paper's genetic operators (one-point crossover, per-bit flip
//!   mutation) in [`ops`],
//! * the paper's textual notation (`"010 101 101 111 1"`) via
//!   [`fmt::Grouped`] and [`std::str::FromStr`],
//! * serde support (serialized as the compact `0`/`1` string), behind
//!   the optional `serde` feature.
//!
//! A string holds at most [`MAX_BITS`] = 64 bits, stored in one `u64`
//! word: bit `i` of the string is bit `i` of the word. Bit index 0 is
//! the first (leftmost) character of the textual form, matching the
//! paper's "bit no. 0" convention. Every genome this workspace evolves
//! fits (13 bits for the full strategy, 5 for the reduced codec and the
//! IPDRP baseline), so constructing, copying and breeding one never
//! touches the heap.
//!
//! # Example
//!
//! ```
//! use ahn_bitstr::BitStr;
//!
//! let s: BitStr = "010 101 101 111 1".parse().unwrap();
//! assert_eq!(s.len(), 13);
//! assert!(!s.get(0)); // bit 0 is '0'
//! assert!(s.get(1)); // bit 1 is '1'
//! assert_eq!(s.count_ones(), 9);
//! ```

#![deny(missing_docs)]

pub mod fmt;
pub mod ops;

#[cfg(feature = "serde")]
mod serde_impl;

use rand::Rng;

/// The most bits a [`BitStr`] holds: one `u64` word.
pub const MAX_BITS: usize = 64;

/// A fixed-length string of at most [`MAX_BITS`] bits.
///
/// The length is fixed at construction time, and every constructor
/// panics when asked for more than [`MAX_BITS`] bits. All binary
/// operations (crossover, Hamming distance, ...) panic if the operands'
/// lengths differ, because mixing genome lengths is always a logic error
/// in this workspace. Equality and order are those of `(len, word)`: by
/// length first, then by the bits as an integer with bit 0 least
/// significant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitStr {
    /// Number of valid bits, at most [`MAX_BITS`].
    len: usize,
    /// Bit `i` at position `i`; the bits from `len` up are always zero,
    /// which the derived comparisons rely on.
    word: u64,
}

/// The low `len` bits of a word set (`len` ≤ [`MAX_BITS`]).
fn mask(len: usize) -> u64 {
    u64::MAX.checked_shr((MAX_BITS - len) as u32).unwrap_or(0)
}

impl BitStr {
    /// The string of `len` bits held in the low bits of `word`.
    fn with_word(len: usize, word: u64) -> Self {
        assert!(len <= MAX_BITS, "{len} bits exceed MAX_BITS ({MAX_BITS})");
        BitStr {
            len,
            word: word & mask(len),
        }
    }

    /// Creates a string of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitStr::with_word(len, 0)
    }

    /// Creates a string of `len` one bits.
    pub fn ones(len: usize) -> Self {
        BitStr::with_word(len, u64::MAX)
    }

    /// Creates a string from an iterator of bits; the length is the number
    /// of items yielded.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = BitStr::zeros(0);
        for b in bits {
            assert!(s.len < MAX_BITS, "more than MAX_BITS ({MAX_BITS}) bits");
            s.word |= u64::from(b) << s.len;
            s.len += 1;
        }
        s
    }

    /// Creates a uniformly random string of `len` bits from one RNG draw
    /// (none for an empty string).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let word = if len == 0 { 0 } else { rng.gen::<u64>() };
        BitStr::with_word(len, word)
    }

    /// Number of bits in the string.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the string holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        (self.word >> i) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        self.word = (self.word & !(1 << i)) | (u64::from(value) << i);
    }

    /// Flips bit `i` and returns its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        self.word ^= 1 << i;
        self.get(i)
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.word.count_ones() as usize
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hamming distance of unequal lengths");
        (self.word ^ other.word).count_ones() as usize
    }

    /// Iterates over the bits from index 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Interprets bits `range.start..range.end` (start = most significant)
    /// as an unsigned integer. Used to extract sub-strategies.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice_value(&self, range: std::ops::Range<usize>) -> u64 {
        assert!(range.end <= self.len, "bad slice {range:?}");
        let mut v = 0u64;
        for i in range {
            v = (v << 1) | self.get(i) as u64;
        }
        v
    }

    /// Builds a bit string of width `width` from the low bits of `value`,
    /// most significant bit first (inverse of [`BitStr::slice_value`] for a
    /// full-width slice).
    pub fn from_value(value: u64, width: usize) -> Self {
        assert!(width <= MAX_BITS, "width {width} exceeds {MAX_BITS}");
        BitStr::from_bits((0..width).map(|i| (value >> (width - 1 - i)) & 1 == 1))
    }
}

impl std::fmt::Debug for BitStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitStr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_and_ones_have_expected_counts() {
        for len in [0, 1, 5, 13, 63, 64] {
            assert_eq!(BitStr::zeros(len).count_ones(), 0, "len={len}");
            assert_eq!(BitStr::ones(len).count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut s = BitStr::zeros(13);
        s.set(0, true);
        s.set(12, true);
        assert!(s.get(0) && s.get(12) && !s.get(6));
        assert_eq!(s.count_ones(), 2);
        assert!(!s.flip(0));
        assert!(s.flip(6));
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn ones_is_canonical_across_word_boundary() {
        // Equality relies on the bits past `len` being zero, up to the
        // word's last bit.
        for len in [0, 1, 13, 63, 64] {
            let mut b = BitStr::zeros(len);
            for i in 0..len {
                b.set(i, true);
            }
            assert_eq!(BitStr::ones(len), b, "len={len}");
        }
    }

    #[test]
    fn hamming_distance_basics() {
        let a = BitStr::zeros(13);
        let b = BitStr::ones(13);
        assert_eq!(a.hamming(&b), 13);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn hamming_panics_on_length_mismatch() {
        let _ = BitStr::zeros(5).hamming(&BitStr::zeros(6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitStr::zeros(13).get(13);
    }

    #[test]
    fn from_bits_preserves_order() {
        let s = BitStr::from_bits([true, false, true]);
        assert_eq!(s.len(), 3);
        assert!(s.get(0) && !s.get(1) && s.get(2));
    }

    #[test]
    fn slice_value_msb_first() {
        // bits: 1 1 0 -> value 0b110 = 6
        let s = BitStr::from_bits([true, true, false]);
        assert_eq!(s.slice_value(0..3), 6);
        assert_eq!(s.slice_value(1..3), 2);
        assert_eq!(s.slice_value(0..0), 0);
    }

    #[test]
    fn from_value_inverts_slice_value() {
        for v in 0..8u64 {
            let s = BitStr::from_value(v, 3);
            assert_eq!(s.slice_value(0..3), v);
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(BitStr::random(&mut r1, 64), BitStr::random(&mut r2, 64));
    }

    #[test]
    fn random_long_string_is_roughly_balanced() {
        // The longest string, drawn 157 times: about 10 000 bits.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let ones: usize = (0..157)
            .map(|_| BitStr::random(&mut rng, 64).count_ones())
            .sum();
        assert!((4_500..=5_500).contains(&ones), "ones={ones}");
    }

    #[test]
    fn random_takes_one_draw_unless_empty() {
        for len in 0..=MAX_BITS {
            let mut rng = ChaCha8Rng::seed_from_u64(len as u64);
            let mut twin = rng.clone();
            let s = BitStr::random(&mut rng, len);
            if len > 0 {
                let word = twin.gen::<u64>();
                assert_eq!(s, BitStr::with_word(len, word), "len={len}");
            }
            assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "more than MAX_BITS")]
    fn from_bits_panics_past_max_bits() {
        let _ = BitStr::from_bits(std::iter::repeat_n(true, MAX_BITS + 1));
    }

    #[test]
    fn iter_matches_get() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = BitStr::random(&mut rng, 61);
        let collected: Vec<bool> = s.iter().collect();
        for (i, b) in collected.iter().enumerate() {
            assert_eq!(*b, s.get(i));
        }
    }
}
