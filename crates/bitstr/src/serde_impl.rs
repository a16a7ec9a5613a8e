//! Serde support: a [`BitStr`] serializes as its compact `0`/`1` string so
//! experiment outputs (JSON) show strategies in the paper's notation.

use crate::BitStr;
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

impl Serialize for BitStr {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for BitStr {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let s: BitStr = "010 101 101 111 1".parse().unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "\"0101011011111\"");
        let back: BitStr = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn deserialize_rejects_bad_chars() {
        let r: Result<BitStr, _> = serde_json::from_str("\"01x\"");
        assert!(r.is_err());
    }

    #[test]
    fn deserialize_rejects_more_than_max_bits() {
        let longest = format!("\"{}\"", "1".repeat(crate::MAX_BITS));
        let back: BitStr = serde_json::from_str(&longest).unwrap();
        assert_eq!(back, BitStr::ones(crate::MAX_BITS));
        let too_long = format!("\"{}\"", "1".repeat(crate::MAX_BITS + 1));
        let err = serde_json::from_str::<BitStr>(&too_long).unwrap_err();
        assert!(err.to_string().contains("more than 64 bits"), "{err}");
    }
}
