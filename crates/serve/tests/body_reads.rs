//! HTTP bodies are read as they arrive, on both ends: the buffer grows
//! with the bytes a peer actually sends, not with the `Content-Length`
//! it announces. A counting global allocator records the largest single
//! allocation of this process, which hosts the node, its clients and a
//! fake server, and every case must keep it at or below 1 MiB.

use ahn_serve::http::MAX_BODY_BYTES;
use ahn_serve::loadtest::one_shot;
use ahn_serve::server::{spawn, ServerConfig};
use ahn_serve::{HttpTransport, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The largest single allocation (or reallocation) since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Largest;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; recording a size in
// an atomic neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The bound every case holds the largest allocation to.
const ONE_MIB: usize = 1 << 20;

/// Serializes the tests: each resets and reads the process-wide maximum.
static SERIAL: Mutex<()> = Mutex::new(());

/// A head announcing the largest accepted body, then a few body bytes.
fn big_head() -> String {
    format!("POST /v1/experiments HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n{{\"Exp")
}

/// Reads a whole response off `stream` until the server hangs up.
fn response(mut stream: TcpStream) -> String {
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read the reply");
    reply
}

#[test]
fn announced_bodies_that_stall_pin_no_memory_on_the_node() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        read_timeout_ms: 300,
        idle_timeout_ms: 300,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    assert_eq!(one_shot(&addr, "GET", "/healthz", "").unwrap().0, 200);

    LARGEST.store(0, Ordering::SeqCst);
    // Stalled peers: the node answers 408 once the request deadline
    // passes. Peers that hang up mid-body: it answers 400.
    let stalled: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(big_head().as_bytes())
                .expect("send the head");
            stream
        })
        .collect();
    let cut: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(big_head().as_bytes())
                .expect("send the head");
            stream.shutdown(Shutdown::Write).expect("half-close");
            stream
        })
        .collect();
    for stream in stalled {
        let reply = response(stream);
        assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    }
    for stream in cut {
        let reply = response(stream);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("EOF inside the body"), "{reply}");
    }
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= ONE_MIB,
        "the node allocated {largest} bytes at once for bodies it never received"
    );

    // A body that does arrive in full is still read whole.
    let body = "{\"Preset\":{\"name\":\"no-such-preset\"}}";
    let (status, reply) = one_shot(&addr, "POST", "/v1/experiments", body).unwrap();
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("unknown preset"), "{reply}");
    handle.shutdown();
}

/// A fake node: answers the first request on one connection with a head
/// announcing `Content-Length: 1000000000000` and a few body bytes, then
/// hangs up or, with `stall`, holds the connection until the client
/// leaves.
fn fake_node(stall: bool) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = [0u8; 4096];
        let _ = stream.read(&mut request);
        let _ = stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n{\"job_id\":1");
        if stall {
            // Returns once the client has given up and closed.
            let _ = stream.read(&mut request);
        }
    });
    (addr, thread)
}

#[test]
fn an_absurd_reply_length_is_an_error_not_an_abort() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    LARGEST.store(0, Ordering::SeqCst);
    for stall in [false, true] {
        let (addr, node) = fake_node(stall);
        let mut transport = HttpTransport::with_deadline(&addr, 300);
        let outcome = transport.request("GET", "/v1/jobs/1", "");
        assert!(outcome.is_err(), "stall {stall}: {outcome:?}");
        drop(transport);
        node.join().expect("fake node");
    }
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= ONE_MIB,
        "the client allocated {largest} bytes at once for a reply it never received"
    );
}
