//! The append-only completion journal: the checkpoint/resume substrate
//! shared by the on-disk job store and the distributed coordinator.
//!
//! One [`Record`] per line in the checksummed-line format of
//! [`ahn_obs::line`], each line independently verifiable:
//!
//! ```text
//! <fnv1a-64 hex checksum> <compact JSON {"key": u64, "result": string}>
//! ```
//!
//! The checksum covers the JSON payload bytes, so a torn write — a
//! process killed mid-`append`, a truncated copy — corrupts at most the
//! trailing line, and [`replay`] detects it (bad checksum, bad JSON, or
//! a missing terminator) and discards that line *and everything after
//! it* rather than guessing. Appends are flushed per record: once
//! `append` returns, the record survives the writer dying.
//!
//! Records are idempotent by construction: a key may appear many times
//! (crash-retry re-appends are legal) and replay keeps the first
//! occurrence, matching the first-completion-wins rule of the serving
//! layer.

use ahn_obs::{decode_line, encode_line, read_lines};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

/// One journal record: a completed cell keyed by the canonical hash of
/// its resolved job spec, carrying the result JSON verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// The result-cache key (`JobSpec::cache_key`).
    pub key: u64,
    /// The serialized result JSON, exactly as the worker produced it.
    pub result: String,
}

/// What [`replay`] recovered from a journal file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Replay {
    /// Recovered records in append order, first occurrence of each key
    /// only.
    pub records: Vec<Record>,
    /// Lines discarded at the tail (0 on a clean journal): the first
    /// invalid line and everything after it.
    pub discarded: usize,
}

/// Replays a journal file. A missing file is an empty journal (the
/// normal first boot), not an error; a corrupted or truncated trailing
/// record is detected via its checksum and discarded together with any
/// lines after it (they may depend on lost state, so the safe cut is
/// the first bad line). A line that is not UTF-8 is a bad line like
/// any other; only an I/O error fails the replay.
pub fn replay(path: &Path) -> std::io::Result<Replay> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => return Err(e),
    };
    let mut out = Replay::default();
    let mut seen = std::collections::HashSet::new();
    let mut lines = read_lines(BufReader::new(file));
    let mut tail = 0usize;
    for line in &mut lines {
        let line = line?;
        match decode_line::<Record>(&line) {
            Some(record) => {
                if seen.insert(record.key) {
                    out.records.push(record);
                }
            }
            None => {
                tail = 1;
                break;
            }
        }
    }
    if tail > 0 {
        out.discarded = tail + lines.count();
    }
    Ok(out)
}

/// An open journal appender. Each [`Journal::append`] writes one
/// checksummed line and flushes it before returning.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_owned(),
            file,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completion record and flushes it to the OS.
    pub fn append(&mut self, key: u64, result: &str) -> std::io::Result<()> {
        let record = Record {
            key,
            result: result.to_owned(),
        };
        self.file.write_all(encode_line(&record).as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ahn-journal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn lines_roundtrip_and_reject_tampering() {
        let line = encode_line(&Record {
            key: 42,
            result: "{\"ok\":true}".into(),
        });
        assert!(line.ends_with('\n'));
        let record: Record = decode_line(line.trim_end()).unwrap();
        assert_eq!(record.key, 42);
        assert_eq!(record.result, "{\"ok\":true}");
        // Any single-byte corruption of the payload fails the checksum.
        let mut tampered = line.trim_end().to_owned();
        tampered.replace_range(tampered.len() - 1.., "]");
        assert_eq!(decode_line::<Record>(&tampered), None);
        // A torn (truncated) line fails too.
        assert_eq!(decode_line::<Record>(&line[..line.len() / 2]), None);
        assert_eq!(decode_line::<Record>(""), None);
        assert_eq!(decode_line::<Record>("nonsense"), None);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let replayed = replay(&tmp("missing")).unwrap();
        assert_eq!(replayed, Replay::default());
    }

    #[test]
    fn append_then_replay_keeps_order_and_dedupes() {
        let path = tmp("roundtrip");
        let mut journal = Journal::open(&path).unwrap();
        journal.append(1, "\"a\"").unwrap();
        journal.append(2, "\"b\"").unwrap();
        journal.append(1, "\"a-again\"").unwrap(); // crash-retry re-append
        drop(journal);
        // A reopened journal appends, not truncates.
        let mut journal = Journal::open(&path).unwrap();
        journal.append(3, "\"c\"").unwrap();
        drop(journal);

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.discarded, 0);
        let keys: Vec<u64> = replayed.records.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        // First occurrence wins (first-completion-wins, like the server).
        assert_eq!(replayed.records[0].result, "\"a\"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_write_is_discarded() {
        let path = tmp("torn");
        let mut journal = Journal::open(&path).unwrap();
        journal.append(1, "\"a\"").unwrap();
        journal.append(2, "\"b\"").unwrap();
        drop(journal);
        // Tear the file mid-way through the second record.
        let text = std::fs::read_to_string(&path).unwrap();
        let first_len = text.find('\n').unwrap() + 1;
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].key, 1);
        assert_eq!(replayed.discarded, 1);

        // A corrupted *middle* record cuts there, dropping the tail too.
        std::fs::write(&path, text.clone()).unwrap();
        let mut corrupted = text.into_bytes();
        corrupted[first_len + 3] ^= 0x01;
        std::fs::write(&path, corrupted).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.discarded, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_torn_tail_truncation_recovers_the_clean_prefix() {
        // A crash (or a partial-write fault) can cut the file at *any*
        // byte. Whatever the cut, replay must keep every whole record
        // before it, discard the fragment, and never error.
        let path = tmp("torn-exhaustive");
        let mut journal = Journal::open(&path).unwrap();
        journal.append(1, "\"a\"").unwrap();
        journal.append(2, "\"b\"").unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        let first_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;

        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let replayed = replay(&path).unwrap();
            // A record survives once all its content bytes are present —
            // losing only the trailing '\n' still passes the checksum.
            let (mut want_records, mut want_discarded) = (0, 0);
            let mut start = 0;
            for end in [first_len, bytes.len()] {
                if cut >= end - 1 {
                    want_records += 1;
                    start = end;
                } else {
                    want_discarded = usize::from(cut > start);
                    break;
                }
            }
            assert_eq!(
                (replayed.records.len(), replayed.discarded),
                (want_records, want_discarded),
                "cut at byte {cut} of {}",
                bytes.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
