//! A minimal HTTP/1.1 reader/writer over `std::net::TcpStream`.
//!
//! Only the slice of the protocol the job server and the load-test
//! client speak: request line, headers, `Content-Length` bodies,
//! keep-alive connections. No chunked encoding, no TLS, no HTTP/2 —
//! deliberately, so the server has zero dependencies beyond `std` and
//! the vendored JSON codec.
//!
//! Server-side reads run under [`Deadlines`]: an idle keep-alive limit
//! on waiting for a request to start, and a total per-request budget
//! once it has — the slowloris defense of the hardening layer.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body (64 MiB) — a guard against a client
/// (or a typo'd `Content-Length`) pinning server memory.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Most a body buffer grows per read: a peer that announces a large
/// `Content-Length` and stalls pins at most this much memory.
const BODY_CHUNK_BYTES: usize = 64 * 1024;

/// Longest accepted request/status/header line. Lines are read through
/// a [`Read::take`] limit so a peer streaming bytes with no newline
/// cannot grow a `String` without bound.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most headers accepted per message — the same guard for a peer
/// streaming endless short header lines.
pub const MAX_HEADERS: usize = 100;

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes.
///
/// Returns `Ok(None)` on clean EOF before the first byte; over-long
/// lines and EOF mid-line are `InvalidData` errors.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> io::Result<Option<()>> {
    let mut limited = Read::take(&mut *reader, MAX_LINE_BYTES as u64);
    let n = limited.read_line(line)?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            if n == MAX_LINE_BYTES {
                "line exceeds the size limit"
            } else {
                "EOF inside a line"
            },
        ));
    }
    Ok(Some(()))
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Decoded request body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close`.
    pub close: bool,
}

/// The outcome of reading one request off a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection cleanly between requests — or sat
    /// idle past the keep-alive deadline without sending a byte (an
    /// idle eviction is indistinguishable from a clean close and is
    /// treated the same: silently hang up).
    Closed,
    /// The bytes on the wire were not valid HTTP.
    Malformed(String),
    /// The peer started a request but a read deadline expired before it
    /// was complete (slowloris): the caller answers 408 and hangs up.
    TimedOut,
}

/// Read deadlines for one request (see [`read_request_deadlined`]).
/// `None` disables the corresponding deadline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadlines {
    /// Longest a keep-alive connection may sit idle waiting for the
    /// next request to *start*. Expiry with zero bytes read is a clean
    /// close; expiry with a partial request line is a timeout.
    pub idle: Option<Duration>,
    /// Total budget for reading the rest of a request (headers + body)
    /// once its request line has arrived. A drip-feeding client cannot
    /// stretch it: the remaining budget shrinks across reads.
    pub request: Option<Duration>,
}

/// True when an I/O error is a socket read/write deadline expiring
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one HTTP/1.1 request from `reader`, enforcing `deadlines`
/// through `TcpStream::set_read_timeout` on the underlying socket.
///
/// Returns [`ReadOutcome::Closed`] on clean EOF (or idle expiry) before
/// the first byte, [`ReadOutcome::Malformed`] (with a human reason) on
/// garbage, and [`ReadOutcome::TimedOut`] when a deadline expired with
/// a request partially on the wire.
pub fn read_request_deadlined(
    reader: &mut BufReader<TcpStream>,
    deadlines: &Deadlines,
) -> io::Result<ReadOutcome> {
    reader.get_ref().set_read_timeout(deadlines.idle)?;
    let mut line = String::new();
    match read_line_bounded(reader, &mut line) {
        Ok(None) => return Ok(ReadOutcome::Closed),
        Ok(Some(())) => {}
        Err(e) if is_timeout(&e) => {
            // Zero bytes -> the connection was merely idle; partial
            // bytes -> a stalling client holding a thread hostage.
            return Ok(if line.is_empty() {
                ReadOutcome::Closed
            } else {
                ReadOutcome::TimedOut
            });
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return Ok(ReadOutcome::Malformed(e.to_string()))
        }
        Err(e) => return Err(e),
    }
    // The request line is in: the rest of the message runs against one
    // total budget, re-armed with the *remaining* time before every
    // read so slow dripping cannot extend it.
    let deadline = deadlines.request.map(|budget| Instant::now() + budget);
    if let Err(outcome) = arm_remaining(reader, deadline) {
        return Ok(outcome);
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_uppercase(), t),
        _ => {
            return Ok(ReadOutcome::Malformed(format!(
                "bad request line {:?}",
                line.trim_end()
            )))
        }
    };
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut content_length = 0usize;
    let mut close = false;
    let mut headers_seen = 0usize;
    loop {
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Ok(ReadOutcome::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        if let Err(outcome) = arm_remaining(reader, deadline) {
            return Ok(outcome);
        }
        let mut header = String::new();
        match read_line_bounded(reader, &mut header) {
            Ok(None) => return Ok(ReadOutcome::Malformed("EOF inside headers".into())),
            Ok(Some(())) => {}
            Err(e) if is_timeout(&e) => return Ok(ReadOutcome::TimedOut),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Ok(ReadOutcome::Malformed(e.to_string()))
            }
            Err(e) => return Err(e),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => match value.parse::<usize>() {
                    Ok(n) if n <= MAX_BODY_BYTES => content_length = n,
                    _ => {
                        return Ok(ReadOutcome::Malformed(format!(
                            "unacceptable Content-Length {value:?}"
                        )))
                    }
                },
                "connection" => close = value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }

    let rearm = |reader: &mut BufReader<TcpStream>| {
        arm_remaining(reader, deadline).map_err(|_| io::Error::from(io::ErrorKind::TimedOut))
    };
    let body = match read_body(reader, content_length, rearm) {
        Ok(body) => body,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Ok(ReadOutcome::Malformed("EOF inside the body".into()))
        }
        Err(e) if is_timeout(&e) => return Ok(ReadOutcome::TimedOut),
        Err(e) => return Err(e),
    };
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        body,
        close,
    }))
}

/// Reads a body of `len` bytes, growing its buffer by at most
/// [`BODY_CHUNK_BYTES`] per read, so the memory a peer can pin is what
/// it actually sent, not what its `Content-Length` announced.
/// `before_read` runs ahead of every read (the server re-arms its
/// deadline there). EOF before the end is `UnexpectedEof`.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    mut before_read: impl FnMut(&mut BufReader<TcpStream>) -> io::Result<()>,
) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    while body.len() < len {
        before_read(reader)?;
        let filled = body.len();
        body.resize(filled + (len - filled).min(BODY_CHUNK_BYTES), 0);
        let read = match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside the body",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        body.truncate(filled + read);
    }
    Ok(body)
}

/// Re-arms the socket read timeout with the time left until `deadline`
/// (no-op when there is no deadline). `Err(TimedOut)` when the budget
/// is already spent.
fn arm_remaining(
    reader: &mut BufReader<TcpStream>,
    deadline: Option<Instant>,
) -> Result<(), ReadOutcome> {
    let Some(deadline) = deadline else {
        // No request budget: drop back to blocking reads so a deadline
        // armed for the idle wait does not outlive its phase.
        let _ = reader.get_ref().set_read_timeout(None);
        return Ok(());
    };
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ReadOutcome::TimedOut);
    }
    match reader.get_ref().set_read_timeout(Some(remaining)) {
        Ok(()) => Ok(()),
        // A socket so broken it cannot set options reads as timed out.
        Err(_) => Err(ReadOutcome::TimedOut),
    }
}

/// Writes one HTTP/1.1 response with a JSON body.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let mut message = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Reads one HTTP response (the client side), returning
/// `(status, body)`.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, String)> {
    let mut line = String::new();
    if read_line_bounded(reader, &mut line)?.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {:?}", line.trim_end()),
            )
        })?;

    let mut content_length = 0usize;
    let mut headers_seen = 0usize;
    loop {
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many response headers",
            ));
        }
        let mut header = String::new();
        if read_line_bounded(reader, &mut header)?.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside response headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad response Content-Length")
                })?;
            }
        }
    }

    let body = read_body(reader, content_length, |_| Ok(()))?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
    Ok((status, body))
}

/// Sends one request on an open client connection.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\n\
         Host: ahn-serve\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}
