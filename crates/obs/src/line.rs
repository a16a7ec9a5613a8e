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
//! own policy: the journal cuts there, the trace skips it. Readers take
//! lines as raw bytes ([`read_lines`]), so a line that is not UTF-8 — a
//! write torn inside a multi-byte character, a corrupt byte — is one
//! more bad line, not a failed read.

use crate::hash::fnv1a64;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::BufRead;

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
/// corrupted record, including one that is not UTF-8.
pub fn decode_line<T: DeserializeOwned>(line: impl AsRef<[u8]>) -> Option<T> {
    let line = std::str::from_utf8(line.as_ref()).ok()?;
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

/// The lines of `reader` as raw bytes, split as [`BufRead::lines`]
/// splits them (at `\n`, dropping a `\r` before it). Only an I/O error
/// is an `Err`; bytes that are not UTF-8 reach the caller's bad-line
/// policy through [`decode_line`].
pub fn read_lines(reader: impl BufRead) -> impl Iterator<Item = std::io::Result<Vec<u8>>> {
    reader.split(b'\n').map(|line| {
        let mut line = line?;
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Ok(line)
    })
}
