//! The follower side: a durable replica that dials its primary,
//! applies the shipped stream through the server's replay path, and
//! can be promoted into a serving primary.
//!
//! # Why the replica is byte-equivalent
//!
//! The follower opens its own [`vm_store::VpStore`]-backed server with the
//! group's shared signing key ([`PersistentServer::open_with_key`]),
//! so its store is **attached**: every shipped record the replay path
//! accepts is appended to the follower's own segments, in apply order.
//! The primary serializes shipping (one stream mutex), per-minute
//! shipped order equals the primary's bucket order, and
//! [`ViewMapServer::submit_replay_batch`] — the same replay recovery
//! runs — preserves each record's own bytes bit-exactly, so the
//! follower's buckets, id index and viewmap checksums converge to the
//! primary's. Its segment files are the primary's by construction: the
//! replay hands each accepted record's shipped frame to the replica's
//! store, which writes those bytes instead of encoding the record
//! again. The vopr `failover` scenario checks
//! exactly this against an oracle fed the acked ops. (Replay warms no
//! link keys: a standby logs and indexes at ingest speed, and the
//! first investigation after a promotion hashes only the keys of the
//! members its site admits.)
//!
//! One thread runs a session: it reads, then takes every message
//! already in its buffer as one *burst* (messages are added while the
//! burst holds less than [`MAX_FRAMES_MSG_BYTES`] of frames, so at most
//! the cap plus one message), applies it, and reads again. Each run of
//! consecutive `FRAMES` in a burst — of any minute, so a primary's one
//! flush of a 60-minute upload is one run — becomes one scan pass (on
//! worker threads once the run holds a full message's worth of bytes),
//! one replay + log, and one `ACK` of the run's last op: the follower's
//! version of group commit. An `EVICT` ends a run. While a burst
//! applies, what follows waits in the socket, whose backpressure is the
//! flow control for a replica that falls behind. A record is encoded
//! once, on the primary: the follower decodes it to index it and logs
//! the frame it arrived in.
//!
//! # Injuries never poison the store
//!
//! Every `FRAMES` run is checked with the one rule recovery applies to
//! a segment ([`vm_store::scan`]: magic, length, checksum, decodable
//! body, minute) *before* anything is applied. A torn or corrupted
//! frame ends the run at the committed prefix: the prefix is applied
//! (it is real committed data), the injury is counted, the connection
//! is dropped, and the next dial's catch-up — positioned by the
//! follower's own cursors — re-streams whatever was lost. Replay dedup
//! makes the overlap harmless. The same path handles primaries that
//! die mid-frame.
//!
//! # Reconnect backoff
//!
//! Redials back off exponentially with **seeded jitter**
//! ([`FollowerConfig::backoff_seed`]): a fleet of followers orphaned
//! by the same primary crash must not redial in lockstep, and a vopr
//! run must be able to replay the exact jitter sequence from its seed.

use crate::wire::{ReplMsg, MAX_FRAMES_MSG_BYTES};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::MinuteId;
use viewmap_core::viewmap::ViewmapConfig;
use vm_crypto::RsaKeyPair;
use vm_obs::{Counter, Histogram, Registry};
use vm_service::proto::Frame;
use vm_service::{Role, RoleCell};
use vm_store::{PersistentServer, RecoveryReport, StoreConfig};

/// Follower policy.
#[derive(Clone, Copy, Debug)]
pub struct FollowerConfig {
    /// The follower's epoch; a primary announcing a lower epoch is
    /// stale and its stream is refused.
    pub epoch: u64,
    /// Seed for the reconnect jitter stream.
    pub backoff_seed: u64,
}

/// First redial delay (doubles per consecutive failure).
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Redial delay ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(500);

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig {
            epoch: 1,
            backoff_seed: 0,
        }
    }
}

/// The applier's counters, plus the journal handle — registered on the
/// replica server's registry, so its `STATS` snapshot (served even while
/// fenced) carries the applier's progress and tests read them from
/// `follower.server().obs()`.
struct FollowerObs {
    registry: Arc<Registry>,
    /// `vm_repl_applied_ops_total`: ops fully applied (scanned,
    /// replayed, acked).
    applied_ops: Arc<Counter>,
    /// `vm_repl_applied_records_total`: records accepted into the
    /// replica by replay.
    applied_records: Arc<Counter>,
    /// `vm_repl_apply_ops`: `FRAMES` ops per coalesced apply (one
    /// replay and one `ACK` each).
    apply_ops: Arc<Histogram>,
    /// `vm_repl_wire_injuries_total`: shipped runs whose scan found an
    /// injury (torn, corrupted, wrong-minute); each one also forces a
    /// resync.
    wire_injuries: Arc<Counter>,
    /// `vm_repl_resyncs_total`: connections dropped and re-established
    /// (including injuries).
    resyncs: Arc<Counter>,
    /// `vm_repl_connects_total`: successful handshakes.
    connects: Arc<Counter>,
}

impl FollowerObs {
    fn register(obs: &Arc<Registry>) -> FollowerObs {
        FollowerObs {
            registry: Arc::clone(obs),
            applied_ops: obs.counter("vm_repl_applied_ops_total"),
            applied_records: obs.counter("vm_repl_applied_records_total"),
            apply_ops: obs.histogram("vm_repl_apply_ops"),
            wire_injuries: obs.counter("vm_repl_wire_injuries_total"),
            resyncs: obs.counter("vm_repl_resyncs_total"),
            connects: obs.counter("vm_repl_connects_total"),
        }
    }
}

struct ApplierShared {
    server: Arc<ViewMapServer>,
    obs: FollowerObs,
    stop: AtomicBool,
    /// Current socket, kept so `stop` can shut the blocking read down.
    conn: Mutex<Option<TcpStream>>,
}

/// A replica cell: durable local store, applier thread, promotion.
pub struct Follower {
    shared: Arc<ApplierShared>,
    role: Arc<RoleCell>,
    applier: Option<std::thread::JoinHandle<()>>,
}

impl Follower {
    /// Open (or recover) the replica store in `dir` under the group's
    /// shared `key`, then start dialing `primary_addr` and applying
    /// its stream.
    ///
    /// The key must be the primary's ([`PersistentServer::open_with_key`]
    /// refuses a mismatch against an existing keyfile): reward cash is
    /// only redeemable after promotion if the replica signs and
    /// verifies under the identical RSA identity.
    pub fn open(
        dir: impl AsRef<Path>,
        key: RsaKeyPair,
        vmcfg: ViewmapConfig,
        store_cfg: StoreConfig,
        primary_addr: SocketAddr,
        cfg: FollowerConfig,
    ) -> std::io::Result<(Follower, RecoveryReport)> {
        let (server, report) = ViewMapServer::open_with_key(key, vmcfg, dir, store_cfg)?;
        let server = Arc::new(server);
        let obs = FollowerObs::register(server.obs());
        let shared = Arc::new(ApplierShared {
            server,
            obs,
            stop: AtomicBool::new(false),
            conn: Mutex::new(None),
        });
        let role = Arc::new(RoleCell::new(Role::Follower, cfg.epoch));
        let thread_shared = Arc::clone(&shared);
        let applier = std::thread::spawn(move || applier_loop(thread_shared, primary_addr, cfg));
        Ok((
            Follower {
                shared,
                role,
                applier: Some(applier),
            },
            report,
        ))
    }

    /// The replica server: reads (investigate, lookups, digests) are
    /// served from here; mutations must be fenced by [`Self::role`].
    pub fn server(&self) -> &Arc<ViewMapServer> {
        &self.shared.server
    }

    /// The role/epoch cell to hand a `VmService` front-end
    /// (`spawn_with_role`): it rejects mutations with `NotPrimary`
    /// until promotion flips it.
    pub fn role(&self) -> &Arc<RoleCell> {
        &self.role
    }

    /// Stop replicating and become the serving primary of `epoch + 1`:
    /// the applier is joined (no application races the handover), the
    /// replica WAL is synced, and the shared [`RoleCell`] flips so any
    /// already-spawned front-end starts accepting mutations. Returns
    /// the serving server and the new epoch.
    ///
    /// The server keeps its attached store: post-promotion accepts log
    /// to the same segments the replication stream built, exactly as
    /// if this node had been the primary all along.
    pub fn promote(mut self) -> std::io::Result<(Arc<ViewMapServer>, u64)> {
        self.stop_applier();
        self.shared.server.sync_wal()?;
        let epoch = self.role.promote();
        self.shared.obs.registry.journal().record(
            "promotion",
            format!("follower promoted to serving primary at epoch {epoch}"),
        );
        Ok((Arc::clone(&self.shared.server), epoch))
    }

    fn stop_applier(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(conn) = self.shared.conn.lock().take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.applier.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop_applier();
    }
}

/// Per-minute `(minute, committed records)` cursors for HELLO —
/// accepted-equals-logged, so bucket lengths are log record counts.
fn cursors(server: &ViewMapServer) -> Vec<(u64, u64)> {
    server
        .stored_minutes()
        .into_iter()
        .map(|m| (m.0, server.vp_count(m) as u64))
        .collect()
}

fn applier_loop(shared: Arc<ApplierShared>, primary_addr: SocketAddr, cfg: FollowerConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.backoff_seed);
    let mut backoff = BACKOFF_BASE;
    while !shared.stop.load(Ordering::Acquire) {
        match run_session(&shared, primary_addr, cfg.epoch) {
            Ok(()) => {
                // Clean session end (primary EOF). Redial from base.
                backoff = BACKOFF_BASE;
            }
            Err(_) if shared.stop.load(Ordering::Acquire) => return,
            Err(_) => {}
        }
        shared.obs.resyncs.inc();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Exponential backoff with seeded jitter: sleep in
        // [0.5, 1.5] × the deterministic step, then double the step.
        let per_mille: u32 = rng.gen_range(500..=1500);
        let jittered = backoff.saturating_mul(per_mille) / 1000;
        shared.obs.registry.journal().record(
            "repl_redial",
            format!(
                "session to {primary_addr} ended; redial in {:?}",
                jittered.min(BACKOFF_CAP)
            ),
        );
        std::thread::sleep(jittered.min(BACKOFF_CAP));
        backoff = backoff.saturating_mul(2).min(BACKOFF_CAP);
    }
}

/// The session's socket buffer: room for two full-size `FRAMES`
/// messages, envelopes included. A catch-up burst then carries two
/// 2 MiB messages when the socket holds them, so its scan and the
/// replica's append of them go parallel; with room for one, every
/// catch-up apply was a single message scanned and framed serially.
const READ_BUFFER_BYTES: usize = 2 * (MAX_FRAMES_MSG_BYTES + 64);

/// Take the message at the front of the session's buffer if all of it
/// is there, so taking it cannot block. It is parsed where it lies: a
/// socket read through the buffer would copy it once more.
fn take_buffered(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<ReplMsg>> {
    let invalid = std::io::ErrorKind::InvalidData;
    let decoded = Frame::decode(reader.buffer()).map_err(|e| std::io::Error::new(invalid, e))?;
    let Some((frame, used)) = decoded else {
        return Ok(None);
    };
    reader.consume(used);
    ReplMsg::from_frame(frame)
        .map(Some)
        .map_err(|e| std::io::Error::new(invalid, e))
}

/// Segment-frame bytes a message carries.
fn frame_bytes(msg: &ReplMsg) -> usize {
    match msg {
        ReplMsg::Frames { frames, .. } => frames.len(),
        _ => 0,
    }
}

/// One connection's lifetime: dial, handshake, then read and apply
/// until the stream ends or an injury forces a resync.
fn run_session(
    shared: &Arc<ApplierShared>,
    primary_addr: SocketAddr,
    epoch: u64,
) -> std::io::Result<()> {
    let stream = TcpStream::connect_timeout(&primary_addr, Duration::from_secs(2))?;
    stream.set_nodelay(true).ok();
    *shared.conn.lock() = Some(stream.try_clone()?);
    // Re-check after publishing the socket: a `stop` that raced the
    // dial has already taken (or will never see) this connection, so
    // bail instead of blocking on a handshake no one will shut down.
    if shared.stop.load(Ordering::Acquire) {
        return Ok(());
    }
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);

    ReplMsg::Hello {
        epoch,
        cursors: cursors(&shared.server),
    }
    .write_to(&mut reader.get_ref())?;
    match ReplMsg::read_from(&mut reader)? {
        Some(ReplMsg::HelloOk { epoch: primary }) if primary >= epoch => {}
        Some(ReplMsg::HelloOk { epoch: primary }) => {
            // Epoch fence: this "primary" predates our configuration —
            // applying its stream would resurrect a superseded history.
            return Err(std::io::Error::other(format!(
                "stale primary epoch {primary} < follower epoch {epoch}"
            )));
        }
        _ => return Err(std::io::Error::other("no HELLO_OK")),
    }
    shared.obs.connects.inc();
    shared
        .obs
        .registry
        .journal()
        .record("repl_reconnect", format!("stream from {primary_addr} open"));

    // Read, then take every message already buffered as one burst and
    // apply it in as few scan + replay + log passes as its messages
    // allow — the follower's version of group commit. Applying the
    // messages of one primary flush one at a time would re-pay
    // per-batch overheads (and an ACK) once per minute. While a burst
    // applies, the socket's own buffers hold what follows, and its
    // backpressure is the flow control for a replica that falls behind.
    while !reader.fill_buf()?.is_empty() {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        // A message larger than what arrived with it goes through the
        // reader.
        let first = match take_buffered(&mut reader)? {
            Some(msg) => msg,
            None => match ReplMsg::read_from(&mut reader)? {
                Some(msg) => msg,
                None => break,
            },
        };
        let mut bytes = frame_bytes(&first);
        let mut burst = vec![first];
        while bytes < MAX_FRAMES_MSG_BYTES {
            let Some(msg) = take_buffered(&mut reader)? else {
                break;
            };
            bytes += frame_bytes(&msg);
            burst.push(msg);
        }
        apply_burst(shared, &burst, reader.get_ref())?;
    }
    Ok(()) // clean EOF
}

/// Apply one burst: every run of consecutive `FRAMES` in it (any
/// minutes) as one replay with one `ACK` of the run's last op, and each
/// `EVICT` mirrored and acked.
fn apply_burst(
    shared: &Arc<ApplierShared>,
    burst: &[ReplMsg],
    mut ack_to: &TcpStream,
) -> std::io::Result<()> {
    let mut rest = burst;
    while let Some(msg) = rest.first() {
        match msg {
            ReplMsg::Frames { .. } => {
                let n = rest
                    .iter()
                    .take_while(|m| matches!(m, ReplMsg::Frames { .. }))
                    .count();
                apply_frames(shared, &rest[..n], ack_to)?;
                rest = &rest[n..];
            }
            ReplMsg::Evict { op, cutoff } => {
                shared.server.evict_minutes_before(MinuteId(*cutoff));
                shared.obs.applied_ops.inc();
                ReplMsg::Ack { op: *op }.write_to(&mut ack_to)?;
                rest = &rest[1..];
            }
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "unexpected {:#04x} on an established stream",
                        other.opcode()
                    ),
                ))
            }
        }
    }
    Ok(())
}

/// Apply one run of `FRAMES`: scan each message against its own minute
/// (the records, and their frames, concatenate in op order up to the
/// first injury), replay them in one batch, ack the last op. A run of at least one full
/// message's bytes — catch-up, or a large append — scans on worker
/// threads, a message or more each; a live flush of one upload scans
/// inline.
fn apply_frames(
    shared: &Arc<ApplierShared>,
    run: &[ReplMsg],
    mut ack_to: &TcpStream,
) -> std::io::Result<()> {
    let bytes: usize = run.iter().map(frame_bytes).sum();
    let threads = if bytes >= MAX_FRAMES_MSG_BYTES {
        viewmap_core::par::auto_threads(run.len(), 1)
    } else {
        1
    };
    let cuts = viewmap_core::par::even_cuts(run.len(), threads);
    let scans = viewmap_core::par::map_ranges(&cuts, |_t, lo, hi| {
        run[lo..hi]
            .iter()
            .map(|msg| match msg {
                ReplMsg::Frames { op, minute, frames } => (
                    *op,
                    frames.as_slice(),
                    vm_store::scan(frames, MinuteId(*minute)),
                ),
                _ => unreachable!("a run holds only FRAMES"),
            })
            .collect::<Vec<_>>()
    });
    let mut records = Vec::new();
    let mut framed: Vec<&[u8]> = Vec::new();
    let mut injury = None;
    let mut last_op = 0u64;
    let mut ops = 0u64;
    for (op, frames, scan) in scans.into_iter().flatten() {
        framed.extend(scan.frames(frames));
        records.extend(scan.records);
        last_op = op;
        ops += 1;
        if scan.injury.is_some() {
            injury = scan.injury;
            break;
        }
    }
    // Apply the prefix either way: it is committed data, and catch-up
    // after the drop re-streams the rest (dedup eats the overlap). The
    // replica's log writes each accepted record's shipped frame as it
    // is: its segments are the primary's bytes, encoded once.
    let results = shared.server.submit_replay_batch(records, Some(&framed));
    let accepted = results.iter().filter(|r| r.is_ok()).count() as u64;
    shared.obs.applied_records.add(accepted);
    if let Some(e) = injury {
        shared.obs.wire_injuries.inc();
        shared.obs.registry.journal().record(
            "repl_injury",
            format!("injured frame in op {last_op}: {e}; dropping stream"),
        );
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("injured frame in op {last_op}: {e}"),
        ));
    }
    shared.obs.applied_ops.add(ops);
    shared.obs.apply_ops.record(ops);
    ReplMsg::Ack { op: last_op }.write_to(&mut ack_to)
}
