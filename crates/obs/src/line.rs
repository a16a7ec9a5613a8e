//! The checksummed JSON-lines record format shared by the trace log and
//! the serve completion journal:
//!
//! ```text
//! <fnv1a-64 of the payload, 16 hex digits> <compact JSON payload>
//! ```
//!
//! The checksum covers the payload bytes, so a reader verifies a line
//! without a serde round trip, and a writer killed mid-append corrupts
//! at most its torn last line. What a reader does with a bad line is its
//! own policy: the journal cuts there, the trace skips it.

use crate::hash::fnv1a64;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Encodes one record as its checksummed line (terminator included).
///
/// # Panics
/// Panics if `record` fails to serialize, which the plain data structs
/// written as lines never do.
pub fn encode_line<T: Serialize>(record: &T) -> String {
    let payload = serde_json::to_string(record).expect("log records always serialize");
    format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()))
}

/// Decodes one line (without its terminator); `None` marks a torn or
/// corrupted record.
pub fn decode_line<T: DeserializeOwned>(line: &str) -> Option<T> {
    let (checksum_hex, payload) = line.split_once(' ')?;
    if checksum_hex.len() != 16 {
        return None;
    }
    let checksum = u64::from_str_radix(checksum_hex, 16).ok()?;
    if checksum != fnv1a64(payload.as_bytes()) {
        return None;
    }
    serde_json::from_str(payload).ok()
}
