//! Session-level fault suite: the gray-failure behaviors the vopr
//! harness leans on, pinned individually. Partial reads must never
//! corrupt framing ([`Frame::read_from`] against a one-byte-at-a-time
//! transport), idle sessions must be reaped by the server's
//! `idle_timeout` without wedging a worker, a stalled server must
//! surface as [`ClientError::TimedOut`] (not a hang), and
//! [`VmClient::reconnect_with_backoff`] must replace a poisoned session
//! in place.

use std::io::{BufReader, Read};
use std::sync::Arc;
use std::time::Duration;
use vm_service::proto::{Frame, OP_SUBMIT};
use vm_service::{ClientConfig, ClientError, ServiceConfig, VmClient, VmService};

/// A transport that delivers at most `chunk` bytes per `read(2)` call —
/// the pathological version of a congested TCP stream.
struct Trickle<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> Read for Trickle<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        f.encode(&mut out);
    }
    out
}

/// Regression: `Frame::read_from` must loop over short reads. A
/// one-byte-at-a-time transport (and every other odd chunk size) must
/// yield the exact frame sequence, then a clean `None` at EOF.
#[test]
fn read_from_survives_single_byte_delivery() {
    let frames = vec![
        Frame {
            request_id: 1,
            opcode: OP_SUBMIT,
            payload: vec![0xAB; 300],
        },
        Frame {
            request_id: 2,
            opcode: OP_SUBMIT,
            payload: Vec::new(),
        },
        Frame {
            request_id: 3,
            opcode: OP_SUBMIT,
            payload: (0..=255u8).collect(),
        },
    ];
    let stream = encode_all(&frames);
    for chunk in [1usize, 2, 3, 7, 16, 17, 64] {
        // A tiny BufReader capacity keeps the buffered layer from
        // hiding the trickle: every refill sees at most `chunk` bytes.
        let mut r = BufReader::with_capacity(
            8,
            Trickle {
                inner: stream.as_slice(),
                chunk,
            },
        );
        for want in &frames {
            let got = Frame::read_from(&mut r)
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"))
                .expect("frame present");
            assert_eq!(&got, want, "chunk size {chunk}");
        }
        assert!(
            Frame::read_from(&mut r).expect("clean EOF").is_none(),
            "chunk size {chunk}: EOF after the last frame"
        );
    }
}

/// EOF strictly inside a frame is `InvalidData` (a torn session), never
/// a silent `None` — for every strict prefix length, delivered a byte
/// at a time.
#[test]
fn read_from_rejects_eof_inside_a_frame_at_every_cut() {
    let frame = Frame {
        request_id: 9,
        opcode: OP_SUBMIT,
        payload: vec![7; 40],
    };
    let stream = encode_all(std::slice::from_ref(&frame));
    for cut in 1..stream.len() {
        let mut r = BufReader::with_capacity(
            8,
            Trickle {
                inner: &stream[..cut],
                chunk: 1,
            },
        );
        let err = Frame::read_from(&mut r).expect_err("mid-frame EOF must error");
        // Mid-header cuts surface as InvalidData ("closed mid-frame"),
        // mid-body cuts as `read_exact`'s UnexpectedEof — both are torn
        // sessions; neither may masquerade as a clean end-of-stream.
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
            ),
            "cut at byte {cut}: {err}"
        );
    }
}

/// An idle session is reaped after `idle_timeout` (freeing its worker
/// for new sessions), while a slow-but-active session — one that keeps
/// issuing calls — is left alone: the timer is per read, not per
/// session.
#[test]
fn idle_sessions_are_reaped_but_active_ones_survive() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let srv = Arc::new(viewmap_core::server::ViewMapServer::new(
        &mut rng,
        512,
        viewmap_core::viewmap::ViewmapConfig::default(),
    ));
    let handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            idle_timeout: Some(Duration::from_millis(100)),
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Active session: calls spaced under the deadline keep it alive
    // well past several idle windows.
    let mut active = VmClient::connect(addr).unwrap();
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(active.total_vps().expect("active session survives"), 0);
    }

    // Idle session: no traffic for several windows — the server hangs
    // up, which the next call observes as a transport error.
    let mut idle = VmClient::connect(addr).unwrap();
    assert_eq!(idle.total_vps().unwrap(), 0);
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        idle.total_vps().is_err(),
        "session should have been reaped while idle"
    );
    // The reap freed the worker: a fresh session gets served even
    // though `workers == 2` and two sessions were opened before it.
    let mut fresh = VmClient::connect(addr).unwrap();
    assert_eq!(fresh.total_vps().unwrap(), 0);
}

/// A server that accepts but never replies must trip the client's
/// configured read deadline as `ClientError::TimedOut` instead of
/// blocking the caller forever.
#[test]
fn stalled_server_times_out_the_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Accept and hold the socket open, replying with nothing.
        listener.accept().map(|(conn, _)| conn)
    });

    let mut client = VmClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_millis(150)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let start = std::time::Instant::now();
    match client.total_vps() {
        Err(ClientError::TimedOut) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline fired, not a hang"
    );
    drop(hold.join().unwrap());
}

/// `reconnect_with_backoff` replaces a reaped (poisoned) session in
/// place — same address, same deadlines — and the replacement session
/// works; against a dead address it retries `attempts` times and then
/// reports the last connect error.
#[test]
fn reconnect_with_backoff_replaces_a_poisoned_session() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let srv = Arc::new(viewmap_core::server::ViewMapServer::new(
        &mut rng,
        512,
        viewmap_core::viewmap::ViewmapConfig::default(),
    ));
    let mut handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            idle_timeout: Some(Duration::from_millis(80)),
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut client = VmClient::connect(addr).unwrap();
    assert_eq!(client.peer_addr(), addr);
    assert_eq!(client.total_vps().unwrap(), 0);

    // Let the server reap us, observe the dead session, then recover it
    // without the caller juggling a second client value.
    std::thread::sleep(Duration::from_millis(400));
    assert!(client.total_vps().is_err(), "session was reaped");
    client
        .reconnect_with_backoff(3, Duration::from_millis(10))
        .expect("service is up; reconnect succeeds");
    assert_eq!(client.total_vps().unwrap(), 0, "fresh session works");

    // With the service gone, every attempt fails and the last error
    // comes back typed as Io.
    handle.shutdown();
    let start = std::time::Instant::now();
    match client.reconnect_with_backoff(2, Duration::from_millis(5)) {
        Err(ClientError::Io(_)) => {}
        // A dead loopback backlog can also accept-then-reset; the only
        // wrong outcomes are success with a working session or a hang.
        Ok(()) => assert!(
            client.total_vps().is_err(),
            "no live service behind the port"
        ),
        other => panic!("expected Io error, got {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(5));
}
