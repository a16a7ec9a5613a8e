//! Textual representation of bit strings.
//!
//! The paper prints strategies as space-separated groups such as
//! `010 101 101 111 1` (Tab. 7): four 3-bit sub-strategies (one per trust
//! level) followed by the single unknown-node bit. [`Grouped`] reproduces
//! that layout for arbitrary group widths, and [`BitStr`]'s
//! [`std::str::FromStr`] accepts both the compact and the grouped form.

use crate::{BitStr, MAX_BITS};
use std::fmt;

impl fmt::Display for BitStr {
    /// Formats as a compact run of `0`/`1` characters, bit 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`BitStr`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitStrError {
    /// Offending character: neither a bit nor whitespace, or the bit
    /// past the [`MAX_BITS`]th.
    pub ch: char,
    /// Byte offset of the offending character in the input.
    pub at: usize,
}

impl fmt::Display for ParseBitStrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ch, at) = (self.ch, self.at);
        if matches!(ch, '0' | '1') {
            return write!(f, "more than {MAX_BITS} bits (bit {ch:?} at byte {at})");
        }
        write!(
            f,
            "invalid character {ch:?} at byte {at} (expected '0', '1' or whitespace)"
        )
    }
}

impl std::error::Error for ParseBitStrError {}

impl std::str::FromStr for BitStr {
    type Err = ParseBitStrError;

    /// Parses `0`/`1` characters; whitespace is ignored so the paper's
    /// grouped notation (`"010 101 101 111 1"`) parses directly. Fails at
    /// the first character that is not a bit or whitespace, and at the
    /// bit after the [`MAX_BITS`]th.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bits = BitStr::zeros(0);
        for (at, ch) in s.char_indices() {
            match ch {
                '0' | '1' if bits.len < MAX_BITS => {
                    bits.word |= u64::from(ch == '1') << bits.len;
                    bits.len += 1;
                }
                c if c.is_whitespace() => {}
                _ => return Err(ParseBitStrError { ch, at }),
            }
        }
        Ok(bits)
    }
}

/// Display adapter that renders a [`BitStr`] in space-separated groups.
///
/// ```
/// use ahn_bitstr::{fmt::Grouped, BitStr};
/// let s: BitStr = "0101011011111".parse().unwrap();
/// assert_eq!(Grouped(&s, 3).to_string(), "010 101 101 111 1");
/// ```
pub struct Grouped<'a>(pub &'a BitStr, pub usize);

impl fmt::Display for Grouped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.1.max(1);
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 && i % width == 0 {
                f.write_str(" ")?;
            }
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_compact() {
        let s = BitStr::from_bits([false, true, true]);
        assert_eq!(s.to_string(), "011");
    }

    #[test]
    fn parse_compact_and_grouped_agree() {
        let a: BitStr = "0101011011111".parse().unwrap();
        let b: BitStr = "010 101 101 111 1".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "0102".parse::<BitStr>().unwrap_err();
        assert_eq!(err, ParseBitStrError { ch: '2', at: 3 });
        assert!(err.to_string().contains("'2'"));
    }

    #[test]
    fn parse_rejects_more_than_max_bits() {
        let longest = "01".repeat(MAX_BITS / 2);
        assert_eq!(longest.parse::<BitStr>().unwrap().len(), MAX_BITS);
        let err = format!("{longest}1").parse::<BitStr>().unwrap_err();
        assert_eq!(err, ParseBitStrError { ch: '1', at: 64 });
        assert!(err.to_string().contains("more than 64 bits"), "{err}");
        // Whitespace does not count: here the 65th bit sits at byte 65.
        let err = format!("0 {longest}").parse::<BitStr>().unwrap_err();
        assert_eq!(err, ParseBitStrError { ch: '1', at: 65 });
    }

    #[test]
    fn parse_empty_is_empty() {
        let s: BitStr = "".parse().unwrap();
        assert!(s.is_empty());
        let s: BitStr = "  \t".parse().unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn grouped_display_matches_paper_notation() {
        let s: BitStr = "0001111111111".parse().unwrap();
        assert_eq!(Grouped(&s, 3).to_string(), "000 111 111 111 1");
    }

    #[test]
    fn display_parse_roundtrip() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for len in [0usize, 1, 13, 63, 64] {
            let s = BitStr::random(&mut rng, len);
            let back: BitStr = s.to_string().parse().unwrap();
            assert_eq!(s, back);
            let back: BitStr = Grouped(&s, 3).to_string().parse().unwrap();
            assert_eq!(s, back);
        }
    }
}
