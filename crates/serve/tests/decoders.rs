//! Fuzzes the request-body decoders of the five body-carrying POST
//! routes with the vendored proptest shim: arbitrary byte strings and
//! byte-level mutations (truncated, flipped or inserted bytes) of a
//! valid body, posted to a pull-only node over one kept connection.
//! Every body must get a 200, 202, 400, 404 or 503 with a JSON body —
//! never a 500, never a hang-up — and the node must answer `/healthz`
//! on the same connection afterwards.

use ahn_serve::http::read_response;
use ahn_serve::protocol::{ClaimRequest, WorkCompletion};
use ahn_serve::server::{spawn, ServerConfig, ServerHandle};
use proptest::collection::vec;
use proptest::prelude::*;
use serde_json::Value;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The body-carrying POST routes, each with a valid body to mutate.
fn routes() -> Vec<(&'static str, Vec<u8>)> {
    let spec = ahn_serve::loadtest::smoke_spec(1);
    let mut base = ahn_core::ExperimentConfig::smoke();
    base.generations = 2;
    base.replications = 1;
    let sweep = ahn_core::SweepGrid::new(base, &[1, 2], &[10], 1);
    let claim = ClaimRequest {
        lease_ms: Some(60_000),
        breaker_trips: Some(0),
        backoff_ms: Some(0),
    };
    let completion = WorkCompletion {
        lease_id: 1,
        job_id: 1,
        key: spec.cache_key().unwrap(),
        result: Some("[]".into()),
        error: None,
        trace_id: 7,
        compute_us: 5,
    };
    vec![
        ("/v1/experiments", serde_json::to_string(&spec)),
        ("/v1/sweeps", serde_json::to_string(&sweep)),
        (
            "/v1/calibrations",
            serde_json::to_string(&ahn_core::CalibrationGrid::smoke()),
        ),
        ("/v1/work/claim", serde_json::to_string(&claim)),
        ("/v1/work/complete", serde_json::to_string(&completion)),
    ]
    .into_iter()
    .map(|(path, body)| (path, body.unwrap().into_bytes()))
    .collect()
}

/// A pull-only node and one kept connection to it, shared by every
/// case of the property.
struct Node {
    _handle: ServerHandle,
    conn: BufReader<TcpStream>,
    routes: Vec<(&'static str, Vec<u8>)>,
}

impl Node {
    fn boot() -> Mutex<Node> {
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 16,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let stream = TcpStream::connect(handle.addr()).unwrap();
        // A node that stops answering fails the case instead of hanging.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Mutex::new(Node {
            _handle: handle,
            conn: BufReader::new(stream),
            routes: routes(),
        })
    }

    /// One request on the kept connection; panics if the node hangs up.
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.conn.get_mut().write_all(&message).unwrap();
        read_response(&mut self.conn)
            .unwrap_or_else(|e| panic!("{method} {path} with {body:?}: no answer ({e})"))
    }
}

static NODE: OnceLock<Mutex<Node>> = OnceLock::new();

/// Applies `(kind, position, byte)` edits in order: truncate at the
/// position, flip bit `byte % 8` of the byte there, or insert `byte`
/// there. A flipped low bit or an inserted digit often keeps the JSON
/// valid, which takes the body past the parser into validation.
fn mutate(mut body: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at % (body.len() + 1);
        match kind {
            0 => body.truncate(at),
            1 if at < body.len() => body[at] ^= 1 << (byte % 8),
            _ => body.insert(at, byte),
        }
    }
    body
}

proptest! {
    #[test]
    fn every_post_body_gets_a_json_answer_on_a_kept_connection(
        route in 0..5usize,
        arbitrary in any::<bool>(),
        bytes in vec(any::<u8>(), 0..64),
        edits in vec((0..3u8, any::<usize>(), prop_oneof![any::<u8>(), b'0'..=b'9']), 1..4),
    ) {
        let mut node = NODE.get_or_init(Node::boot).lock().unwrap();
        let (path, valid) = node.routes[route].clone();
        let body = if arbitrary { bytes } else { mutate(valid, &edits) };
        let (status, answer) = node.request("POST", path, &body);
        prop_assert!(
            [200, 202, 400, 404, 503].contains(&status),
            "POST {path} with {:?} answered {status} {answer}",
            String::from_utf8_lossy(&body)
        );
        prop_assert!(
            serde_json::from_str::<Value>(&answer).is_ok(),
            "POST {path} answered a non-JSON body {answer:?}"
        );
        let health = node.request("GET", "/healthz", b"");
        prop_assert_eq!(health, (200, "{\"status\":\"ok\"}".to_string()));
    }
}
