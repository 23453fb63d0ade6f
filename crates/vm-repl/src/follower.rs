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
//! [`ViewMapServer::submit_replay_batch_cold`] preserves each record's
//! own bytes bit-exactly — so the follower's buckets, id index, viewmap
//! checksums, and segment files all converge to the primary's. The
//! vopr `failover` scenario checks exactly this against an oracle fed
//! the acked ops. (The replay is **cold** — no link-key warm: a
//! standby logs and indexes at ingest speed, and the first
//! investigation after a promotion hashes its keys lazily.)
//!
//! Application is pipelined: a reader thread drains the socket while
//! the applier coalesces queued `FRAMES` of the same minute into one
//! batch-sized scan (catch-up bursts on worker threads, a run or more
//! each) + replay + log, acking the last op — the follower's version
//! of group commit. The follower still re-encodes the records on its
//! own append (its store frames them afresh).
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
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::MinuteId;
use viewmap_core::viewmap::ViewmapConfig;
use vm_crypto::RsaKeyPair;
use vm_obs::{Counter, Registry};
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

/// Messages buffered between the socket reader and the applier: deep
/// enough to coalesce a shipped burst into one group apply, shallow
/// enough that socket backpressure stays the flow control for a
/// replica that falls behind.
const APPLY_QUEUE_MSGS: usize = 8;

/// One connection's lifetime: dial, handshake, apply until the stream
/// ends or an injury forces a resync.
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
    let sock = stream.try_clone()?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    ReplMsg::Hello {
        epoch,
        cursors: cursors(&shared.server),
    }
    .write_to(&mut writer)?;
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

    // Decouple reading from applying: the reader thread drains the
    // socket (envelope checksum and parse) while the applier coalesces
    // whatever has queued up into one batch-sized scan + replay + log —
    // the follower's version of group commit. A primary ships a large
    // append as several bounded runs; applying them one at a time
    // would re-pay per-batch overheads (and fall under the
    // parallel-encode thresholds) once per run, serializing the
    // replica several run-latencies behind.
    let (tx, rx) = std::sync::mpsc::sync_channel::<ReplMsg>(APPLY_QUEUE_MSGS);
    let reader_thread = std::thread::spawn(move || -> std::io::Result<()> {
        loop {
            match ReplMsg::read_from(&mut reader)? {
                Some(msg) => {
                    if tx.send(msg).is_err() {
                        return Ok(()); // applier gone; session is ending
                    }
                }
                None => return Ok(()), // clean EOF
            }
        }
    });
    let applied = apply_stream(shared, &rx, &mut writer);
    // Unblock whichever side is still inside a blocking call, then
    // surface the applier's verdict first (an injury outranks the
    // reader's "connection reset" echo of our own shutdown).
    drop(rx);
    let _ = sock.shutdown(std::net::Shutdown::Both);
    let reader_result = reader_thread
        .join()
        .unwrap_or_else(|_| Err(std::io::Error::other("replication reader panicked")));
    applied?;
    reader_result
}

/// The applier half of a session: drain queued messages, coalesce each
/// consecutive same-minute run of `FRAMES`, apply, ack the run's last
/// op. Returns when the channel closes (reader hit EOF or an error) or
/// on an apply-side failure.
fn apply_stream(
    shared: &Arc<ApplierShared>,
    rx: &std::sync::mpsc::Receiver<ReplMsg>,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => return Ok(()), // reader ended the stream
        };
        let mut queue = vec![first];
        while let Ok(msg) = rx.try_recv() {
            queue.push(msg);
        }
        let mut i = 0;
        while i < queue.len() {
            let run_minute = match &queue[i] {
                ReplMsg::Frames { minute, .. } => Some(MinuteId(*minute)),
                _ => None,
            };
            if let Some(minute) = run_minute {
                // Coalesce the queued FRAMES for this minute and scan
                // each run; the records concatenate in op order up to
                // the first injury. Runs queued by catch-up (together at
                // least one full message) scan on worker threads, a run
                // or more each; live 60-VP runs (≈ 90 KB, at most
                // APPLY_QUEUE_MSGS + 1 queued) stay below it and scan
                // inline.
                let run: Vec<(u64, &[u8])> = queue[i..]
                    .iter()
                    .map_while(|msg| match msg {
                        ReplMsg::Frames {
                            op,
                            minute: m,
                            frames,
                        } if MinuteId(*m) == minute => Some((*op, frames.as_slice())),
                        _ => None,
                    })
                    .collect();
                i += run.len();
                let bytes: usize = run.iter().map(|(_, frames)| frames.len()).sum();
                let threads = if bytes >= MAX_FRAMES_MSG_BYTES {
                    viewmap_core::par::auto_threads(run.len(), 1)
                } else {
                    1
                };
                let cuts = viewmap_core::par::even_cuts(run.len(), threads);
                let scans = viewmap_core::par::map_ranges(&cuts, |_t, lo, hi| {
                    run[lo..hi]
                        .iter()
                        .map(|(_, frames)| vm_store::scan(frames, minute))
                        .collect::<Vec<_>>()
                });
                let mut records = Vec::new();
                let mut injury = None;
                let mut last_op = 0u64;
                let mut ops = 0u64;
                for ((op, _), scan) in run.iter().zip(scans.into_iter().flatten()) {
                    records.extend(scan.records);
                    last_op = *op;
                    ops += 1;
                    if scan.injury.is_some() {
                        injury = scan.injury;
                        break;
                    }
                }
                // Apply the prefix either way: it is committed
                // data, and catch-up after the drop re-streams the
                // rest (dedup eats the overlap). The **cold** replay
                // path skips the link-key warm: a standby logs and
                // indexes at ingest speed, and the first investigation
                // after a promotion pays the key phase lazily instead.
                let results = shared.server.submit_replay_batch_cold(records);
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
                ReplMsg::Ack { op: last_op }.write_to(writer)?;
            } else if let ReplMsg::Evict { op, cutoff } = &queue[i] {
                let (op, cutoff) = (*op, *cutoff);
                shared.server.evict_minutes_before(MinuteId(cutoff));
                shared.obs.applied_ops.inc();
                ReplMsg::Ack { op }.write_to(writer)?;
                i += 1;
            } else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "unexpected {:#04x} on an established stream",
                        queue[i].opcode()
                    ),
                ));
            }
        }
    }
}
