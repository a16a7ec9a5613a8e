//! Fuzzes the HTTP request-line and header parser with the vendored
//! proptest shim: arbitrary bytes and mutated request heads — the
//! request line, header names and values, `Content-Length` values that
//! overflow, go negative, repeat or pass `MAX_BODY_BYTES`, bare `\n`
//! line endings, non-UTF-8 bytes, lines at and past `MAX_LINE_BYTES`
//! and more than `MAX_HEADERS` headers — each on a fresh connection to
//! a pull-only node with short read deadlines, sometimes cut short and
//! sometimes half-closed. Every case must end in a well-formed HTTP
//! response or a clean close within the client's deadline, and the
//! node must then answer `/healthz` on a new connection.

use ahn_serve::http::{MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
use ahn_serve::loadtest::one_shot;
use ahn_serve::server::{spawn, ServerConfig, ServerHandle};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// How long the client waits for an answer. The node's own read
/// deadlines are 100 ms, so a stalled head ends in a 408 well before.
const CLIENT_DEADLINE: Duration = Duration::from_secs(5);

/// A pull-only node with short read deadlines, shared by every case.
fn node() -> &'static str {
    static NODE: OnceLock<(ServerHandle, String)> = OnceLock::new();
    let (_, addr) = NODE.get_or_init(|| {
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            read_timeout_ms: 100,
            idle_timeout_ms: 100,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = handle.addr().to_string();
        (handle, addr)
    });
    addr
}

/// The `Content-Length` values a head may carry: overflowing, negative,
/// signed, padded, listed, hex, just past and at the body cap.
fn content_lengths() -> Vec<String> {
    vec![
        "18446744073709551616".into(),
        "99999999999999999999999".into(),
        "-1".into(),
        "+2".into(),
        " 2 ".into(),
        "2, 2".into(),
        "0x2".into(),
        (MAX_BODY_BYTES + 1).to_string(),
        MAX_BODY_BYTES.to_string(),
    ]
}

/// Builds one request: a valid head (a GET, or a POST with a two-byte
/// body), then the mutation `kind` with its parameters, bare `\n`
/// endings when `bare_lf`, and a cut at `cut` when `truncate`.
#[allow(clippy::too_many_arguments)]
fn request(
    kind: u8,
    pick: usize,
    byte: u8,
    bytes: &[u8],
    post: bool,
    bare_lf: bool,
    truncate: bool,
    cut: usize,
) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = vec![
        if post {
            b"POST /v1/work/claim HTTP/1.1".to_vec()
        } else {
            b"GET /healthz HTTP/1.1".to_vec()
        },
        b"Host: fuzz".to_vec(),
    ];
    if post {
        lines.push(b"Content-Length: 2".to_vec());
    }
    match kind {
        // Arbitrary bytes, nothing else.
        0 => return bytes.to_vec(),
        // The request line: overwrite or insert one byte, or replace it.
        1 => {
            let line = &mut lines[0];
            let at = pick % (line.len() + 1);
            match pick % 3 {
                0 if at < line.len() => line[at] = byte,
                1 => line.insert(at, byte),
                _ => *line = bytes.to_vec(),
            }
        }
        // A header name of arbitrary bytes.
        2 => lines.push([bytes, b": value"].concat()),
        // A header value of arbitrary bytes.
        3 => lines.push([b"X-Fuzz: ", bytes].concat()),
        // A hostile Content-Length, or two disagreeing ones.
        4 => {
            let lengths = content_lengths();
            match pick % (lengths.len() + 1) {
                i if i < lengths.len() => {
                    lines.push(format!("Content-Length: {}", lengths[i]).into_bytes())
                }
                _ => {
                    lines.push(b"Content-Length: 2".to_vec());
                    lines.push(b"content-length: 7".to_vec());
                }
            }
        }
        // Non-UTF-8 bytes inside the head.
        5 => {
            let n = lines.len();
            let line = &mut lines[pick % n];
            let at = pick % (line.len() + 1);
            line.insert(at, 0x80 | byte);
        }
        // A header line one byte short of, at, or past MAX_LINE_BYTES
        // (the limit counts the line with its `\r\n`).
        6 => {
            let len = MAX_LINE_BYTES - 1 + pick % 3;
            let mut line = b"X-Long: ".to_vec();
            line.resize(len - 2, b'a');
            lines.push(line);
        }
        // MAX_HEADERS - 1 through MAX_HEADERS + 1 headers in all.
        _ => {
            let total = MAX_HEADERS - 1 + pick % 3;
            let mut i = 0;
            while lines.len() - 1 < total {
                lines.push(format!("X-{i}: y").into_bytes());
                i += 1;
            }
        }
    }
    let eol: &[u8] = if bare_lf { b"\n" } else { b"\r\n" };
    let mut message = Vec::new();
    for line in &lines {
        message.extend_from_slice(line);
        message.extend_from_slice(eol);
    }
    message.extend_from_slice(eol);
    if post {
        message.extend_from_slice(b"{}");
    }
    if truncate {
        message.truncate(cut % (message.len() + 1));
    }
    message
}

/// The byte length of the complete response at the start of `got`, once
/// its head and `Content-Length` body have arrived.
fn complete_len(got: &[u8]) -> Option<usize> {
    let head = got.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&got[..head]).ok()?;
    let length: usize = (text.lines())
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    (got.len() >= head + length).then_some(head + length)
}

/// Sends `message` on a fresh connection (half-closing it when asked)
/// and reads the answer: a complete response, or whatever arrived before
/// the node closed. A missed deadline is an error.
fn exchange(message: &[u8], half_close: bool) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(node()).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_DEADLINE)).unwrap();
    // The node may answer and hang up before it has read everything, so
    // a failed write is a legitimate outcome; the answer decides.
    let _ = stream.write_all(message);
    if half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(len) = complete_len(&got) {
            got.truncate(len);
            return Ok(got);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(got),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            // A close with our bytes still unread arrives as a reset.
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return Ok(got),
            Err(e) => return Err(format!("no answer within {CLIENT_DEADLINE:?}: {e}")),
        }
    }
}

/// A status line with a 3-digit code, headers, and a JSON body of the
/// declared length.
fn well_formed(response: &[u8]) -> bool {
    let Some(len) = complete_len(response) else {
        return false;
    };
    let text = String::from_utf8_lossy(&response[..len]);
    let status_ok = (text.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .is_some_and(|code| (200..600).contains(&code));
    let body = &text[text.find("\r\n\r\n").unwrap() + 4..];
    status_ok && serde_json::from_str::<serde_json::Value>(body).is_ok()
}

proptest! {
    #[test]
    fn every_request_head_gets_a_response_or_a_clean_close(
        kind in 0..8u8,
        pick in any::<usize>(),
        byte in any::<u8>(),
        bytes in vec(any::<u8>(), 0..64),
        flags in (any::<bool>(), any::<bool>(), 0..4u8, any::<bool>()),
        cut in any::<usize>(),
    ) {
        let (post, bare_lf, truncate, half_close) = flags;
        let message = request(kind, pick, byte, &bytes, post, bare_lf, truncate == 0, cut);
        let answer = exchange(&message, half_close);
        let shown = String::from_utf8_lossy(&message);
        let shown = &shown[..shown.len().min(300)];
        match answer {
            Ok(response) => prop_assert!(
                response.is_empty() || well_formed(&response),
                "{shown:?} got {:?}",
                String::from_utf8_lossy(&response)
            ),
            Err(e) => panic!("{shown:?}: {e}"),
        }
        let health = one_shot(node(), "GET", "/healthz", "").expect("healthz on a new connection");
        prop_assert_eq!(health, (200, "{\"status\":\"ok\"}".to_string()));
    }
}
