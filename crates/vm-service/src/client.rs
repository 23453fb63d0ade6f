//! [`VmClient`] — a blocking, pipelining client for the vm-service wire
//! protocol.
//!
//! One client owns one TCP session. Calls are synchronous
//! request/reply; [`VmClient::submit_pipelined`] additionally drives
//! the uploader fast path: it writes a window of `SUBMIT` frames before
//! reading any reply, which is exactly the shape the server coalesces
//! into warm batch ingest. Windowing (default
//! [`PIPELINE_WINDOW`] frames in flight) bounds the unread-reply
//! backlog so neither side's socket buffer can fill and deadlock the
//! session.

use crate::proto::{ErrorCode, Frame, Reply, Request, OP_SUBMIT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use viewmap_core::reward::Cash;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::types::{MinuteId, VpId};
use viewmap_core::viewmap::Site;
use viewmap_core::vp::StoredVp;
use vm_crypto::{BigUint, BlindedMessage, RsaPublicKey, Signature};

/// Pipelined submits in flight before the client drains replies. Each
/// reply frame is ~21 bytes, so a window keeps the unread backlog a few
/// KB — far below any socket buffer — while still giving the server a
/// deep run to coalesce.
pub const PIPELINE_WINDOW: usize = 512;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection reset, closed mid-frame, ...).
    Io(std::io::Error),
    /// A configured [`ClientConfig`] timeout expired while waiting on
    /// the socket. The session is **poisoned** after this: a reply may
    /// still be in flight, so the byte stream can no longer be paired
    /// with requests — reconnect
    /// ([`VmClient::reconnect_with_backoff`]) before retrying.
    TimedOut,
    /// The peer sent bytes that do not parse as the expected reply.
    Protocol(String),
    /// The service replied with a typed error.
    Remote(ErrorCode, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::TimedOut => write!(f, "timed out waiting on the service"),
            ClientError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ClientError::Remote(code, detail) if detail.is_empty() => {
                write!(f, "service error: {code}")
            }
            ClientError::Remote(code, detail) => write!(f, "service error: {code} ({detail})"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A read/write deadline expiring surfaces as WouldBlock or
        // TimedOut depending on the platform; both mean "the configured
        // timeout fired", which callers handle differently from a dead
        // transport (retry after reconnect vs give up).
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::TimedOut,
            _ => ClientError::Io(e),
        }
    }
}

/// Socket deadlines for a [`VmClient`] session. The default (no
/// timeouts) blocks forever — right for trusted in-process tests, wrong
/// against a server that may be dead or gray (a hung service would pin
/// the client thread indefinitely).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientConfig {
    /// Deadline for each socket read while waiting on a reply. The
    /// timer is per `read(2)` call, so a slow-but-flowing reply stream
    /// does not trip it — only a stalled one.
    pub read_timeout: Option<Duration>,
    /// Deadline for each socket write (trips when the peer stops
    /// draining and both windows fill).
    pub write_timeout: Option<Duration>,
    /// Seed for the reconnect-backoff jitter stream
    /// ([`VmClient::reconnect_with_backoff`]). `None` (the default)
    /// derives a per-client seed from a process-global counter — every
    /// client object gets a distinct, decorrelated stream. Seeded
    /// harnesses (vopr) pin it for bit-reproducible retry schedules.
    pub backoff_seed: Option<u64>,
}

/// A blocking session with a [`crate::server::VmService`].
pub struct VmClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    /// The resolved address we connected to, for reconnects.
    peer: SocketAddr,
    cfg: ClientConfig,
    /// Deterministic per-client jitter stream for reconnect backoff.
    /// Seeded per *client object*, so a fleet of clients retrying after
    /// the same server crash fans out instead of thundering back in
    /// lockstep — while any single client's retry schedule is still
    /// reproducible (the vopr harness replays crash loops by seed).
    backoff_rng: StdRng,
}

impl VmClient {
    /// Connect to a running service with no socket deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<VmClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit socket deadlines (see [`ClientConfig`]).
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> std::io::Result<VmClient> {
        let conn = TcpStream::connect(addr)?;
        let peer = conn.peer_addr()?;
        Self::from_stream(conn, peer, cfg)
    }

    fn from_stream(
        conn: TcpStream,
        peer: SocketAddr,
        cfg: ClientConfig,
    ) -> std::io::Result<VmClient> {
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(cfg.read_timeout)?;
        conn.set_write_timeout(cfg.write_timeout)?;
        // Distinct per client object, fixed within it: decorrelated
        // across a fleet, reproducible under a pinned seed. Golden-ratio
        // mixing keeps consecutive counter values far apart in seed
        // space (StdRng streams from adjacent raw seeds correlate).
        static NEXT_BACKOFF_SEED: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(0);
        let seed = cfg.backoff_seed.unwrap_or_else(|| {
            0x5eed_bacc_0ff5_0001u64
                ^ NEXT_BACKOFF_SEED
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        Ok(VmClient {
            reader: BufReader::new(conn.try_clone()?),
            writer: BufWriter::new(conn),
            next_id: 1,
            peer,
            cfg,
            backoff_rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The address this session is (or was) connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Replace a dead or poisoned session with a fresh connection to
    /// the same address, retrying up to `attempts` times with
    /// exponential backoff starting at `initial`, each sleep jittered
    /// uniformly over `[0.5×, 1.5×]` of its nominal value (so a
    /// restarting server gets time to come back). The jitter is drawn
    /// from this client's seeded stream ([`ClientConfig::backoff_seed`]):
    /// fixed steps would march every client that died in the same crash
    /// back onto the server at the same instants — a thundering herd
    /// re-killing it on cue — while decorrelated streams spread the
    /// retries out, and a pinned seed keeps any single client's
    /// schedule reproducible. Keeps the configured deadlines. On
    /// success the old socket is dropped and request ids continue from
    /// where they were; on failure returns the last connect error and
    /// leaves the (dead) session in place.
    pub fn reconnect_with_backoff(
        &mut self,
        attempts: usize,
        initial: Duration,
    ) -> Result<(), ClientError> {
        assert!(attempts >= 1, "at least one reconnect attempt");
        let mut base = initial;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Uniform per-mille factor in [500, 1500] — full ±50%
                // jitter. The *base* doubles undisturbed, so the
                // expected schedule is still exponential.
                let per_mille: u32 = self.backoff_rng.gen_range(500..=1500);
                std::thread::sleep(base.saturating_mul(per_mille) / 1000);
                base = base.saturating_mul(2);
            }
            match TcpStream::connect(self.peer)
                .and_then(|conn| Self::from_stream(conn, self.peer, self.cfg))
            {
                Ok(mut fresh) => {
                    fresh.next_id = self.next_id;
                    // The fresh session continues — not restarts — this
                    // client's jitter stream: reconnect #2 must not
                    // replay reconnect #1's sleeps.
                    fresh.backoff_rng = self.backoff_rng.clone();
                    *self = fresh;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Io(
            last_err.expect("attempts >= 1 recorded an error"),
        ))
    }

    fn send(&mut self, opcode: u8, payload: Vec<u8>) -> Result<u32, ClientError> {
        let request_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        Frame {
            request_id,
            opcode,
            payload,
        }
        .write_to(&mut self.writer)?;
        Ok(request_id)
    }

    fn recv(&mut self, request_id: u32, request_opcode: u8) -> Result<Reply, ClientError> {
        let frame = Frame::read_from(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed the session",
            ))
        })?;
        if frame.request_id != request_id {
            return Err(ClientError::Protocol(format!(
                "reply id {} for request {}",
                frame.request_id, request_id
            )));
        }
        Reply::decode(request_opcode, frame.opcode, &frame.payload)
            .ok_or_else(|| ClientError::Protocol("undecodable reply payload".into()))
    }

    /// One synchronous round trip.
    fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let opcode = req.opcode();
        let id = self.send(opcode, req.encode_payload())?;
        self.writer.flush()?;
        match self.recv(id, opcode)? {
            Reply::Err(code, detail) => Err(ClientError::Remote(code, detail)),
            reply => Ok(reply),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<(), ClientError> {
        match self.call(req)? {
            Reply::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!("expected OK, got {other:?}"))),
        }
    }

    /// Submit one anonymized VP.
    pub fn submit(&mut self, vp: &StoredVp) -> Result<(), ClientError> {
        self.expect_ok(&Request::Submit(vp.clone()))
    }

    /// Pipeline a stream of submits: windows of [`PIPELINE_WINDOW`]
    /// frames are written back-to-back, then their replies drained, so
    /// the server sees exactly the coalescable shape. Returns one
    /// outcome per VP, aligned with the input (`Ok(())` accepted,
    /// `Err(code)` the service's typed rejection). A transport or
    /// protocol failure aborts the whole call.
    pub fn submit_pipelined(
        &mut self,
        vps: &[StoredVp],
    ) -> Result<Vec<Result<(), ErrorCode>>, ClientError> {
        let mut outcomes = Vec::with_capacity(vps.len());
        for window in vps.chunks(PIPELINE_WINDOW) {
            let mut ids = Vec::with_capacity(window.len());
            for vp in window {
                ids.push(self.send(OP_SUBMIT, Request::Submit(vp.clone()).encode_payload())?);
            }
            self.writer.flush()?;
            for id in ids {
                outcomes.push(match self.recv(id, OP_SUBMIT)? {
                    Reply::Ok => Ok(()),
                    Reply::Err(code, _) => Err(code),
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "expected OK/ERR, got {other:?}"
                        )))
                    }
                });
            }
        }
        Ok(outcomes)
    }

    /// Run an investigation; returns the verified VP ids the server
    /// posted on its solicitation board.
    pub fn investigate(&mut self, minute: MinuteId, site: Site) -> Result<Vec<VpId>, ClientError> {
        match self.call(&Request::Investigate { minute, site })? {
            Reply::VpIds(ids) => Ok(ids),
            other => Err(ClientError::Protocol(format!(
                "expected VP ids, got {other:?}"
            ))),
        }
    }

    /// Post a solicitation for one VP id.
    pub fn solicit(&mut self, id: VpId) -> Result<(), ClientError> {
        self.expect_ok(&Request::Solicit(id))
    }

    /// Upload a solicited video (validated server-side against the
    /// stored cascade).
    pub fn upload_video(&mut self, upload: &VideoUpload) -> Result<(), ClientError> {
        self.expect_ok(&Request::UploadVideo(upload.clone()))
    }

    /// Prove ownership of a rewarded VP; returns the award in cash
    /// units.
    pub fn claim_reward(&mut self, vp_id: VpId, secret: &[u8; 8]) -> Result<usize, ClientError> {
        match self.call(&Request::ClaimReward {
            vp_id,
            secret: *secret,
        })? {
            Reply::Units(u) => Ok(u as usize),
            other => Err(ClientError::Protocol(format!(
                "expected units, got {other:?}"
            ))),
        }
    }

    /// Have the service blind-sign cash messages (consumes the reward
    /// board entry — one issuance per reward).
    pub fn blind_sign(
        &mut self,
        vp_id: VpId,
        secret: &[u8; 8],
        blinded: &[BlindedMessage],
    ) -> Result<Vec<Signature>, ClientError> {
        match self.call(&Request::BlindSign {
            vp_id,
            secret: *secret,
            blinded: blinded.to_vec(),
        })? {
            Reply::Signatures(sigs) => Ok(sigs),
            other => Err(ClientError::Protocol(format!(
                "expected signatures, got {other:?}"
            ))),
        }
    }

    /// Redeem one unit of cash against the double-spending ledger.
    pub fn redeem(&mut self, cash: &Cash) -> Result<(), ClientError> {
        self.expect_ok(&Request::Redeem(cash.clone()))
    }

    /// Fetch the system public key (to verify cash and blind messages
    /// client-side).
    pub fn public_key(&mut self) -> Result<RsaPublicKey, ClientError> {
        match self.call(&Request::PublicKey)? {
            Reply::PublicKey { n, e } => Ok(RsaPublicKey::from_parts(
                BigUint::from_bytes_be(&n),
                BigUint::from_bytes_be(&e),
            )),
            other => Err(ClientError::Protocol(format!(
                "expected public key, got {other:?}"
            ))),
        }
    }

    /// Total VPs the service currently stores.
    pub fn total_vps(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::TotalVps)? {
            Reply::Count(c) => Ok(c),
            other => Err(ClientError::Protocol(format!(
                "expected count, got {other:?}"
            ))),
        }
    }

    /// Scrape the node's telemetry snapshot: the versioned `vm_obs`
    /// text exposition (`name{label="v"} value` lines, parseable with
    /// [`vm_obs::parse_text`]). Served by primaries and fenced
    /// followers alike.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Reply::Stats(text) => Ok(text),
            other => Err(ClientError::Protocol(format!(
                "expected stats text, got {other:?}"
            ))),
        }
    }
}
