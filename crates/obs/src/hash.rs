//! The workspace's two dependency-free hash functions. Every canonical
//! hash, cache key, trace id, checksummed log line, fault schedule and
//! backoff draw derives from these, so their outputs are pinned (goldens,
//! `atlas.json`, journals) and must never change.

/// FNV-1a, 64-bit, with the standard offset basis and prime.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64: one multiply-xor-shift chain per call, a pure function of
/// `x` (seeded schedules index it with a counter).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference generator seeded with 0
        // (its state advances by the golden gamma before each mix). The
        // FNV-1a vectors are pinned by `ahn_core`'s canonical-hash test.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }
}
