//! Fuzzes the trace-log reader with the vendored proptest shim. Events
//! with non-ASCII strings, written as checksummed lines, are mixed with
//! arbitrary garbage lines (any bytes, UTF-8 or not) and cut at every
//! byte. Whatever the cut, `read_trace` must return every intact event
//! in file order, count every other non-empty line as discarded, and
//! never return an `Err`.

use ahn_obs::{encode_line, read_trace, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;

/// Characters node names and details are built from: ASCII, JSON
/// escapes, control characters and multi-byte UTF-8 (2, 3 and 4 bytes).
const CHARS: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '—', '漢', '🦀', '}',
];

fn text() -> impl Strategy<Value = String> {
    vec(0..CHARS.len(), 0..6).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// A line that is not an event: any bytes but the terminator.
fn garbage() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..8).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| if b == b'\n' { 0xFF } else { b })
            .collect()
    })
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ahn-trace-fuzz-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_trace_keeps_every_intact_line_at_every_cut(
        events in vec((any::<u64>(), text(), text()), 1..4),
        garbage in vec((0usize..4, garbage()), 0..3),
    ) {
        let events: Vec<TraceEvent> = events
            .into_iter()
            .enumerate()
            .map(|(seq, (trace_id, node, detail))| TraceEvent {
                node,
                seq: seq as u64,
                detail: Some(detail),
                ..TraceEvent::new(trace_id, "compute")
            })
            .collect();
        // Each line's content without its terminator, and the event it
        // carries (`None` for garbage).
        let mut lines: Vec<(Option<&TraceEvent>, Vec<u8>)> = events
            .iter()
            .map(|e| {
                let line = encode_line(e).into_bytes();
                (Some(e), line[..line.len() - 1].to_vec())
            })
            .collect();
        for (at, bytes) in garbage {
            lines.insert(at.min(lines.len()), (None, bytes));
        }
        let mut bytes = Vec::new();
        let mut spans = Vec::new();
        for (_, content) in &lines {
            spans.push((bytes.len(), bytes.len() + content.len()));
            bytes.extend_from_slice(content);
            bytes.push(b'\n');
        }

        let path = tmp("read");
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let read = read_trace(&path);
            prop_assert!(read.is_ok(), "cut {cut}: {read:?}");
            // An event survives once all its content bytes are present.
            // Every other line present is skipped, and counted unless it
            // is empty (after the `\r` a line reader drops).
            let (mut want, mut discarded) = (Vec::new(), 0);
            for ((event, _), &(start, end)) in lines.iter().zip(&spans) {
                if cut <= start {
                    break;
                }
                match event {
                    Some(event) if cut >= end => want.push((*event).clone()),
                    _ => {
                        let present = &bytes[start..cut.min(end)];
                        discarded += usize::from(!matches!(present, [] | [b'\r']));
                    }
                }
            }
            let read = read.unwrap();
            prop_assert_eq!(read.events, want, "cut {}", cut);
            prop_assert_eq!(read.discarded, discarded, "cut {}", cut);
        }
        let _ = std::fs::remove_file(&path);
    }
}
