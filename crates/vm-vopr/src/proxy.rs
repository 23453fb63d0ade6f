//! [`ChaosProxy`] — a seeded TCP byte mangler between the vopr client
//! and the real service.
//!
//! The service speaks a checksummed, length-framed protocol over TCP,
//! so the wire faults that are *physically expressible* are byte-stream
//! faults: chunks delivered late, delivered one byte at a time,
//! stalled, corrupted, or the connection cut mid-stream. (Datagram
//! faults — reorder, duplicate — do not exist below TCP from the
//! application's point of view; duplicates instead arise at the *op*
//! level when the driver retries after an ambiguous failure, which the
//! harness exercises through the server's idempotent dedup.)
//!
//! Every fault decision is drawn from a [`rand::rngs::StdRng`] derived
//! from the run seed, the connection index, and the direction, so a
//! given seed always *injects* the same schedule. Exact byte-level
//! interleaving still depends on kernel timing — which is why the
//! driver's oracle equivalence is designed to be timing-independent
//! (see the crate docs) — but the fault mix a seed produces is stable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-chunk fault probabilities and magnitudes for one proxy.
///
/// [`WireFaults::NONE`] injects nothing — a transparent relay. All probabilities
/// are per forwarded chunk, so the effective per-session rates scale
/// with traffic volume; keep them small (the vopr scenarios use cut
/// probabilities around 1%) or most sessions die before finishing a
/// single op.
#[derive(Clone, Copy, Debug)]
pub struct WireFaults {
    /// Added latency per chunk, drawn uniformly from this range (µs).
    pub delay_us: (u64, u64),
    /// Maximum bytes forwarded per chunk. `1` trickles a byte at a
    /// time — the strongest partial-read torture the stream allows.
    pub max_chunk: usize,
    /// Probability a chunk is preceded by a long stall (gray failure).
    pub stall_prob: f64,
    /// Stall duration range (ms) when one fires.
    pub stall_ms: (u64, u64),
    /// Probability one byte of a chunk is bit-flipped. The frame
    /// checksum turns this into a killed session server-side.
    pub corrupt_prob: f64,
    /// Probability the connection is cut (both directions) instead of
    /// forwarding a chunk.
    pub cut_prob: f64,
}

impl WireFaults {
    /// Injects nothing: a transparent relay (a `const`, so catalog rows
    /// can be `const` tables that override single fields).
    pub const NONE: WireFaults = WireFaults {
        delay_us: (0, 0),
        max_chunk: 4096,
        stall_prob: 0.0,
        stall_ms: (0, 0),
        corrupt_prob: 0.0,
        cut_prob: 0.0,
    };
}

/// A loopback TCP proxy that forwards every accepted connection to one
/// upstream address through a pair of fault-injecting relay threads.
///
/// Dropping the proxy severs every proxied connection and joins all of
/// its threads.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    refusing: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start a proxy on an ephemeral loopback port relaying to
    /// `upstream`. Fault schedules derive from `seed` (stir the run
    /// seed before passing it if several proxies share one run).
    pub fn spawn(
        upstream: SocketAddr,
        seed: u64,
        faults: WireFaults,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let refusing = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let forwarders: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let refusing = Arc::clone(&refusing);
            let conns = Arc::clone(&conns);
            let forwarders = Arc::clone(&forwarders);
            std::thread::spawn(move || {
                let next = AtomicUsize::new(0);
                for incoming in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = incoming else { break };
                    if refusing.load(Ordering::SeqCst) {
                        // Partition valve closed: the port answers but
                        // every connection dies before reaching the
                        // upstream — the dialer sees an immediate EOF
                        // and must keep backing off and redialing.
                        drop(client);
                        continue;
                    }
                    let Ok(server) = TcpStream::connect(upstream) else {
                        // Upstream gone (e.g. a crashed generation):
                        // drop the client, whose next read sees EOF.
                        continue;
                    };
                    client.set_nodelay(true).ok();
                    server.set_nodelay(true).ok();
                    let idx = next.fetch_add(1, Ordering::SeqCst) as u64;
                    {
                        let mut reg = conns.lock().unwrap();
                        if let (Ok(c), Ok(s)) = (client.try_clone(), server.try_clone()) {
                            reg.push(c);
                            reg.push(s);
                        }
                    }
                    let (c2, s2) = match (client.try_clone(), server.try_clone()) {
                        (Ok(c), Ok(s)) => (c, s),
                        _ => continue,
                    };
                    let mut spawned = forwarders.lock().unwrap();
                    spawned.push(std::thread::spawn({
                        let rng = StdRng::seed_from_u64(seed ^ (idx << 1) ^ 0x5157_4152_4421);
                        move || relay(client, s2, rng, faults)
                    }));
                    spawned.push(std::thread::spawn({
                        let rng = StdRng::seed_from_u64(seed ^ (idx << 1) ^ 0x5245_504c_5921);
                        move || relay(server, c2, rng, faults)
                    }));
                }
                // Reap relays on the way out so Drop joins everything.
                for t in forwarders.lock().unwrap().drain(..) {
                    let _ = t.join();
                }
            })
        };

        Ok(ChaosProxy {
            addr,
            shutdown,
            refusing,
            conns,
            threads: vec![accept],
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Open or close the partition valve: while refusing, newly
    /// accepted connections are dropped on the floor instead of relayed
    /// (the port stays bound, so dialers get EOF, not
    /// connection-refused). Combine with [`Self::sever_all`] to
    /// partition a peer *and keep it partitioned* across its redials —
    /// the lagging-follower fault.
    pub fn set_refusing(&self, refusing: bool) {
        self.refusing.store(refusing, Ordering::SeqCst);
    }

    /// Sever every proxied connection (without stopping the listener) —
    /// the "network partition blinked" fault, at a moment the driver
    /// chooses.
    pub fn sever_all(&self) {
        for conn in self.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sever_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Pump bytes `src → dst`, applying the fault schedule per chunk.
fn relay(mut src: TcpStream, mut dst: TcpStream, mut rng: StdRng, f: WireFaults) {
    let mut buf = vec![0u8; f.max_chunk.max(1)];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if f.cut_prob > 0.0 && rng.gen_bool(f.cut_prob) {
            let _ = src.shutdown(Shutdown::Both);
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        if f.stall_prob > 0.0 && rng.gen_bool(f.stall_prob) {
            std::thread::sleep(Duration::from_millis(
                rng.gen_range(f.stall_ms.0..=f.stall_ms.1),
            ));
        }
        if f.delay_us.1 > 0 {
            std::thread::sleep(Duration::from_micros(
                rng.gen_range(f.delay_us.0..=f.delay_us.1),
            ));
        }
        if f.corrupt_prob > 0.0 && rng.gen_bool(f.corrupt_prob) {
            let i = rng.gen_range(0..n);
            buf[i] ^= 1u8 << rng.gen_range(0..8u8);
        }
        if dst.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    // Propagate EOF so the peer's blocked read completes.
    let _ = dst.shutdown(Shutdown::Write);
}
