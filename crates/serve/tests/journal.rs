//! Fuzzes the completion-journal reader with the vendored proptest
//! shim. A journal of records with non-ASCII results, written by
//! [`Journal::append`], is mixed with arbitrary garbage lines (any bytes,
//! UTF-8 or not) and cut at every byte. Whatever the cut, `replay` must
//! return the records before the first bad line (first occurrence of
//! each key) and never an `Err`.

use ahn_serve::journal::{replay, Journal, Record};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;

/// Characters a result is built from: ASCII, JSON escapes, control
/// characters and multi-byte UTF-8 (2, 3 and 4 bytes).
const CHARS: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '—', '漢', '🦀', '}',
];

fn text() -> impl Strategy<Value = String> {
    vec(0..CHARS.len(), 0..6).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// A line that is not a record: any bytes but the terminator.
fn garbage() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..8).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| if b == b'\n' { 0xFF } else { b })
            .collect()
    })
}

/// One line of a generated journal, without its terminator.
enum Line {
    Record(Record, Vec<u8>),
    Garbage(Vec<u8>),
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ahn-journal-fuzz-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_keeps_the_intact_prefix_at_every_cut(
        records in vec((0u64..4, text()), 1..4),
        garbage in vec((0usize..4, garbage()), 0..3),
    ) {
        // Every record as `Journal::append` writes it.
        let path = tmp("replay");
        let mut journal = Journal::open(&path).unwrap();
        for (key, result) in &records {
            journal.append(*key, result).unwrap();
        }
        drop(journal);
        let written = std::fs::read(&path).unwrap();
        let mut lines: Vec<Line> = written
            .split(|&b| b == b'\n')
            .zip(&records)
            .map(|(line, (key, result))| {
                let record = Record { key: *key, result: result.clone() };
                Line::Record(record, line.to_vec())
            })
            .collect();
        for (at, bytes) in garbage {
            lines.insert(at.min(lines.len()), Line::Garbage(bytes));
        }
        // The file, and the byte span of each line's content.
        let mut bytes = Vec::new();
        let mut spans = Vec::new();
        for line in &lines {
            let content = match line {
                Line::Record(_, content) | Line::Garbage(content) => content,
            };
            spans.push((bytes.len(), bytes.len() + content.len()));
            bytes.extend_from_slice(content);
            bytes.push(b'\n');
        }

        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let replayed = replay(&path);
            prop_assert!(replayed.is_ok(), "cut {cut}: {replayed:?}");
            // A record survives once all its content bytes are present;
            // the first line that is garbage or torn cuts the rest.
            let mut want = Vec::new();
            let mut seen = HashSet::new();
            for (line, &(start, end)) in lines.iter().zip(&spans) {
                match line {
                    _ if cut <= start => break,
                    Line::Record(record, _) if cut >= end => {
                        if seen.insert(record.key) {
                            want.push(record.clone());
                        }
                    }
                    _ => break,
                }
            }
            prop_assert_eq!(replayed.unwrap().records, want, "cut {}", cut);
        }
        let _ = std::fs::remove_file(&path);
    }
}
