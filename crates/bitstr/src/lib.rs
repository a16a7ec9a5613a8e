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
//! Bits are stored little-endian inside `u64` words: bit `i` of the string
//! lives in word `i / 64` at position `i % 64`. Bit index 0 is the first
//! (leftmost) character of the textual form, matching the paper's "bit
//! no. 0" convention.
//!
//! Strings of at most 64 bits — every genome this workspace evolves (13
//! bits for the full strategy, 5 for the reduced codec and the IPDRP
//! baseline) — are stored **inline** in a single word, so constructing,
//! cloning and breeding them never touches the heap. Longer strings
//! transparently spill to a `Vec<u64>`; the public API is identical for
//! both representations.
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

/// A fixed-length string of bits.
///
/// The length is fixed at construction time; all binary operations
/// (crossover, Hamming distance, ...) panic if the operands' lengths
/// differ, because mixing genome lengths is always a logic error in this
/// workspace.
#[derive(Clone)]
pub struct BitStr {
    /// Number of valid bits.
    len: usize,
    /// Bit storage; bits past `len` in the last word are always zero
    /// (the *canonical form* invariant, relied upon by `Eq`/`Hash`).
    repr: Repr,
}

/// Bit storage: genomes of at most one word live inline (the hot case —
/// cloning them is a copy), longer strings on the heap. The variant is a
/// pure function of `len` (≤ 64 bits ⇒ `Inline`), so representation
/// never leaks into equality or ordering.
#[derive(Clone)]
enum Repr {
    /// Up to 64 bits, stored directly.
    Inline(u64),
    /// More than 64 bits, one `u64` per 64-bit chunk.
    Heap(Vec<u64>),
}

const WORD_BITS: usize = 64;

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitStr {
    /// The storage words, valid bits first. A zero-length string reports
    /// one (all-zero) inline word; every bit-level operation guards on
    /// `len`, and logical comparisons go through this accessor on both
    /// sides, so the padding word is never observable.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Heap(v) => v,
        }
    }

    /// Mutable view of the storage words.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(w) => std::slice::from_mut(w),
            Repr::Heap(v) => v,
        }
    }

    /// Creates a string of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        let repr = if len <= WORD_BITS {
            Repr::Inline(0)
        } else {
            Repr::Heap(vec![0; words_for(len)])
        };
        BitStr { len, repr }
    }

    /// Creates a string of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let repr = if len == 0 {
            Repr::Inline(0)
        } else if len <= WORD_BITS {
            Repr::Inline(!0u64)
        } else {
            Repr::Heap(vec![!0u64; words_for(len)])
        };
        let mut s = BitStr { len, repr };
        s.mask_tail();
        s
    }

    /// Creates a string from an iterator of bits; the length is the number
    /// of items yielded. Stays allocation-free for up to 64 bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut len = 0usize;
        let mut word = 0u64;
        let mut heap: Vec<u64> = Vec::new();
        for b in bits {
            if len > 0 && len.is_multiple_of(WORD_BITS) {
                heap.push(word);
                word = 0;
            }
            if b {
                word |= 1u64 << (len % WORD_BITS);
            }
            len += 1;
        }
        if len <= WORD_BITS {
            BitStr {
                len,
                repr: Repr::Inline(word),
            }
        } else {
            heap.push(word);
            debug_assert_eq!(heap.len(), words_for(len));
            BitStr {
                len,
                repr: Repr::Heap(heap),
            }
        }
    }

    /// Creates a uniformly random string of `len` bits (one RNG draw per
    /// storage word, so seeded streams are representation-independent).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let repr = if len == 0 {
            Repr::Inline(0)
        } else if len <= WORD_BITS {
            Repr::Inline(rng.gen::<u64>())
        } else {
            Repr::Heap((0..words_for(len)).map(|_| rng.gen::<u64>()).collect())
        };
        let mut s = BitStr { len, repr };
        s.mask_tail();
        s
    }

    /// Zeroes the unused bits of the last storage word, restoring the
    /// canonical-form invariant after whole-word writes.
    fn mask_tail(&mut self) {
        let used = self.len % WORD_BITS;
        if used != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << used) - 1;
            }
        } else if self.len == 0 {
            if let Repr::Inline(w) = &mut self.repr {
                *w = 0;
            }
        }
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
        match &self.repr {
            Repr::Inline(w) => (w >> i) & 1 == 1,
            Repr::Heap(v) => (v[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1,
        }
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        let word = match &mut self.repr {
            Repr::Inline(w) => w,
            Repr::Heap(v) => &mut v[i / WORD_BITS],
        };
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips bit `i` and returns its new value.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range 0..{}", self.len);
        match &mut self.repr {
            Repr::Inline(w) => {
                *w ^= 1u64 << i;
                (*w >> i) & 1 == 1
            }
            Repr::Heap(v) => {
                let w = &mut v[i / WORD_BITS];
                *w ^= 1u64 << (i % WORD_BITS);
                (*w >> (i % WORD_BITS)) & 1 == 1
            }
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hamming distance of unequal lengths");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the bits from index 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Interprets bits `range.start..range.end` (start = most significant)
    /// as an unsigned integer. Used to extract sub-strategies.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or wider than 64 bits.
    pub fn slice_value(&self, range: std::ops::Range<usize>) -> u64 {
        assert!(
            range.end <= self.len && range.len() <= 64,
            "bad slice {range:?}"
        );
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
        assert!(width <= 64, "width {width} exceeds 64");
        BitStr::from_bits((0..width).map(|i| (value >> (width - 1 - i)) & 1 == 1))
    }
}

impl PartialEq for BitStr {
    fn eq(&self, other: &Self) -> bool {
        // Canonical form (masked tails, len-determined representation)
        // makes word comparison exact.
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitStr {}

impl std::hash::Hash for BitStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl PartialOrd for BitStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitStr {
    /// Orders by length first, then by storage words — the same total
    /// order the pre-inline derived implementation produced.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.words().cmp(other.words()))
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
        for len in [0, 1, 5, 13, 63, 64, 65, 130] {
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
        // Equality relies on masked tail bits.
        let a = BitStr::ones(65);
        let mut b = BitStr::zeros(65);
        for i in 0..65 {
            b.set(i, true);
        }
        assert_eq!(a, b);
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
        assert_eq!(BitStr::random(&mut r1, 130), BitStr::random(&mut r2, 130));
    }

    #[test]
    fn random_long_string_is_roughly_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let s = BitStr::random(&mut rng, 10_000);
        let ones = s.count_ones();
        assert!((4_500..=5_500).contains(&ones), "ones={ones}");
    }

    #[test]
    fn iter_matches_get() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = BitStr::random(&mut rng, 77);
        let collected: Vec<bool> = s.iter().collect();
        for (i, b) in collected.iter().enumerate() {
            assert_eq!(*b, s.get(i));
        }
    }
}
