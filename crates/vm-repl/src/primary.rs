//! The primary side: a replication hub that ships committed WAL frames
//! to connected followers, and the [`ReplicatedWal`] that feeds it the
//! bytes the store just wrote, from the server's normal logging path.
//!
//! # Shipping order is the correctness backbone
//!
//! The server appends to its WAL under the committing minute's shard
//! lock, so per-minute append order equals bucket order. The hub adds
//! one global invariant on top: every shipped message — live append,
//! catch-up run, eviction — is assigned its op number and queued for
//! the follower sockets **under one stream mutex**. A follower
//! therefore observes a single serialized message sequence whose
//! per-minute record order equals the primary's bucket order, which is
//! exactly what replaying through [`ViewMapServer::submit_replay_batch`]
//! — the one replay path, crash recovery's too — needs to rebuild
//! byte-identical buckets, indexes, and segments.
//!
//! # One outbox, one flush per ingest batch
//!
//! Live appends, evictions and a joiner's catch-up all go through the
//! hub's one outbox: each message gets its op and is encoded at the
//! end of the outbox by `wire::encode_op`, its `VMS1` header,
//! `op | minute` prefix and checksum written in place around the
//! store's own bytes — a shipped run is copied once, from the store's
//! buffer into the outbox. A live append does not write to the
//! sockets: under the shard lock it only fills the outbox. The server
//! calls [`VpWal::end_batch`] once its ingest call has appended every
//! minute group, outside every lock, and that sends the outbox to each
//! follower in one `write_all` — a vehicle-hour upload of 60 one-minute
//! VPs is one socket write, not 60. The outbox also flushes early, so
//! no op is ever reordered or shipped twice: when the next message
//! would take it past [`MAX_FRAMES_MSG_BYTES`] (a large batch streams
//! in pieces of that size), before an eviction ships, and before a
//! joining follower's catch-up (the ops in it belong to the sessions
//! already registered). Catch-up then fills the same outbox with the
//! joiner's segment tails and flushes it to the joiner alone.
//!
//! Catch-up runs under the same mutex: while a joining follower's
//! missing segment tails are being streamed, no live append can ship,
//! so there is no gap between "what catch-up read from disk" and "what
//! the live stream sends next". (Local durability is *not* behind the
//! mutex — `ReplicatedWal::append` writes to the local store first and
//! only then takes the stream lock, so an overlap where catch-up reads
//! a record the live path also ships is possible. Overlap is benign:
//! the follower's replay dedup drops the second copy before it touches
//! the follower's log.)
//!
//! Because every commit waits on that mutex, no write to a follower
//! may block for long under it: each session's socket carries a write
//! timeout of [`ReplicationConfig::ack_timeout`], and a follower whose
//! socket takes no bytes for that long — one that stopped reading — is
//! detached (a joiner's admission fails) instead of wedging ingest.
//!
//! # Acknowledgment and the commit watermark
//!
//! Each follower session runs an ACK-reader thread that advances the
//! session's acked-op cell. [`ReplHub::watermark`] is the smallest
//! acked op across live sessions — the op up to which *every* live
//! follower has scanned, replayed, and locally logged the stream.
//! With [`ReplicationConfig::sync_ack`] the flush at the end of each
//! ingest batch waits, holding no lock, until the last op assigned is
//! acked everywhere (bounded by `ack_timeout`; a follower that can't
//! keep up is detached, never waited on forever — availability over a
//! sick replica, and the vopr failover torture only promotes followers
//! whose acks the primary actually saw). Readers of the batch's
//! minutes are never blocked behind that wait.

use crate::wire::{
    encode_op, ReplMsg, MAX_FRAMES_MSG_BYTES, OP_MSG_OVERHEAD, OP_REPL_EVICT, OP_REPL_FRAMES,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::MinuteId;
use viewmap_core::viewmap::ViewmapConfig;
use viewmap_core::vp::StoredVp;
use viewmap_core::wal::VpWal;
use vm_crypto::RsaKeyPair;
use vm_obs::{Counter, Gauge, Histogram, Registry};
use vm_store::segment::{parse_segment_file_name, segment_path};
use vm_store::{tail_frames, Frames, RecoveryReport, StoreConfig, VpStore};

/// Replication policy for a primary.
#[derive(Clone, Copy, Debug)]
pub struct ReplicationConfig {
    /// The primary's epoch (fenced against follower hellos).
    pub epoch: u64,
    /// Block each shipped append until every live follower acks it.
    /// Off by default: asynchronous shipping, bounded only by socket
    /// buffers, is the paper-faithful "follower trails by shipping
    /// latency" mode (callers who need "committed means on the
    /// replica" without serializing per append can drain to
    /// [`ReplHub::watermark`] instead); per-append synchronous acks are
    /// for failover tests, where a crash may follow any single op.
    pub sync_ack: bool,
    /// Bounds every wait on a follower: how long a synchronous append
    /// waits for its ack, and how long a write to its socket — live
    /// shipping or catch-up — may go without the socket taking a byte,
    /// before the follower is detached.
    pub ack_timeout: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            epoch: 1,
            sync_ack: false,
            ack_timeout: Duration::from_secs(5),
        }
    }
}

/// One follower's ack state, shared with its ACK-reader thread.
struct AckCell {
    /// std (not parking_lot) because the ack wait needs a Condvar.
    acked: StdMutex<u64>,
    advanced: Condvar,
}

struct FollowerSession {
    /// Write half (the ACK reader owns a cloned read half).
    stream: TcpStream,
    ack: Arc<AckCell>,
    alive: Arc<AtomicBool>,
    obs: Arc<SessionObs>,
}

/// Bound on the per-session `(op, cumulative bytes)` ledger; a follower
/// more than this many ops behind simply stops advancing its byte-lag
/// gauge until it catches back up into the window.
const SESSION_LEDGER_CAP: usize = 8192;

/// One follower session's lag instruments, shared with its ACK reader.
/// Both gauges are recomputed from the ledger, under its lock, on every
/// ship and every ack, so they read 0 only while nothing shipped to
/// this follower is unacked.
struct SessionObs {
    ledger: Mutex<Ledger>,
    /// Ops shipped to this follower but not yet acked.
    lag_ops: Arc<Gauge>,
    /// Shipped-but-unacked payload bytes for this follower.
    lag_bytes: Arc<Gauge>,
}

/// What one session has been shipped and has acked.
struct Ledger {
    /// `(op, cumulative bytes shipped to this session as of that op)`
    /// for ops not yet acked. Per-session cumulative, so another
    /// follower's catch-up traffic never inflates this one's byte lag.
    unacked: VecDeque<(u64, u64)>,
    /// Highest op shipped to this session (the hub's op when it was
    /// admitted, before its first).
    shipped_op: u64,
    /// Cumulative payload bytes shipped to this session.
    shipped_bytes: u64,
    /// Highest op acked (starts where `shipped_op` does).
    acked_op: u64,
    /// Cumulative session bytes at the highest acked op, carried across
    /// acks (a capped ledger may skip entries).
    acked_bytes: u64,
    /// The session ended: its gauges stay 0.
    detached: bool,
}

impl SessionObs {
    /// `bytes` of payload shipped to this session as `op`.
    fn shipped(&self, op: u64, bytes: u64) {
        let mut l = self.ledger.lock();
        l.shipped_op = op;
        l.shipped_bytes += bytes;
        let cum = l.shipped_bytes;
        l.unacked.push_back((op, cum));
        if l.unacked.len() > SESSION_LEDGER_CAP {
            l.unacked.pop_front();
        }
        self.publish(&l);
    }

    /// The follower acked every op up to `op`.
    fn acked(&self, op: u64) {
        let mut l = self.ledger.lock();
        l.acked_op = l.acked_op.max(op);
        while let Some(&(o, cum)) = l.unacked.front() {
            if o > op {
                break;
            }
            l.acked_bytes = cum;
            l.unacked.pop_front();
        }
        self.publish(&l);
    }

    /// The session is gone: zero its gauges for good, so a detached
    /// follower doesn't pin a stale lag in every later snapshot.
    fn detach(&self) {
        let mut l = self.ledger.lock();
        l.detached = true;
        self.publish(&l);
    }

    fn publish(&self, l: &Ledger) {
        let (ops, bytes) = if l.detached {
            (0, 0)
        } else {
            (
                l.shipped_op.saturating_sub(l.acked_op),
                l.shipped_bytes.saturating_sub(l.acked_bytes),
            )
        };
        self.lag_ops.set(ops as i64);
        self.lag_bytes.set(bytes as i64);
    }
}

/// The hub's instrument set, registered on the primary server's
/// registry at [`ReplHub::spawn`] so one `STATS` snapshot covers the
/// shipping side too.
struct HubMetrics {
    registry: Arc<Registry>,
    /// Socket-write time of one live flush of the outbox across all
    /// followers (one ingest batch, or a 2 MiB piece of a larger one).
    ship_us: Arc<Histogram>,
    /// `sync_ack` wait per ingest batch (absent from async-shipping
    /// profiles).
    ack_wait_us: Arc<Histogram>,
    shipped_ops: Arc<Counter>,
    /// High-water op number (catch-up runs included).
    next_op: Arc<Gauge>,
    /// Cumulative payload bytes assigned to ops.
    shipped_bytes: Arc<Gauge>,
    catchup_bytes: Arc<Counter>,
    follower_connects: Arc<Counter>,
    follower_detaches: Arc<Counter>,
}

impl HubMetrics {
    fn register(obs: &Arc<Registry>) -> HubMetrics {
        HubMetrics {
            registry: Arc::clone(obs),
            ship_us: obs.histogram("vm_repl_ship_us"),
            ack_wait_us: obs.histogram("vm_repl_ack_wait_us"),
            shipped_ops: obs.counter("vm_repl_shipped_ops_total"),
            next_op: obs.gauge("vm_repl_next_op"),
            shipped_bytes: obs.gauge("vm_repl_shipped_bytes"),
            catchup_bytes: obs.counter("vm_repl_catchup_bytes_total"),
            follower_connects: obs.counter("vm_repl_follower_connects_total"),
            follower_detaches: obs.counter("vm_repl_follower_detaches_total"),
        }
    }
}

/// Everything serialized by the stream mutex.
struct StreamState {
    next_op: u64,
    sessions: Vec<FollowerSession>,
    /// Encoded messages that have their ops but are not yet written, in
    /// op order: the next bytes of every registered session, or, during
    /// a catch-up, of the one joiner.
    outbox: Vec<u8>,
}

/// Who the outbox's bytes are for.
#[derive(Clone, Copy)]
enum To<'a> {
    /// Every registered session: live appends and evictions.
    Live,
    /// A joiner being caught up, not yet registered.
    Joiner(&'a TcpStream, &'a SessionObs),
}

/// The shipping side of a replicated cell: listener, follower
/// sessions, op counter, watermark.
pub struct ReplHub {
    dir: PathBuf,
    cfg: ReplicationConfig,
    addr: SocketAddr,
    stream: Mutex<StreamState>,
    shutdown: AtomicBool,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    metrics: HubMetrics,
    /// Label source for per-follower lag gauges.
    next_follower_id: AtomicU64,
}

impl ReplHub {
    /// Bind `listen_addr` and start accepting followers that will be
    /// caught up from the segment directory `dir`, with the hub's
    /// telemetry on `obs` (the primary server's registry).
    pub fn spawn(
        dir: impl AsRef<Path>,
        listen_addr: impl ToSocketAddrs,
        cfg: ReplicationConfig,
        obs: &Arc<Registry>,
    ) -> std::io::Result<Arc<ReplHub>> {
        let listener = TcpListener::bind(listen_addr)?;
        let addr = listener.local_addr()?;
        let hub = Arc::new(ReplHub {
            dir: dir.as_ref().to_path_buf(),
            cfg,
            addr,
            stream: Mutex::new(StreamState {
                next_op: 0,
                sessions: Vec::new(),
                outbox: Vec::new(),
            }),
            shutdown: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            metrics: HubMetrics::register(obs),
            next_follower_id: AtomicU64::new(1),
        });
        let accept_hub = Arc::clone(&hub);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_hub.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                // A misbehaving joiner must not wedge the accept loop.
                if let Err(e) = accept_hub.admit_follower(stream) {
                    let _ = e; // refused or died mid-handshake; it can redial
                }
            }
        });
        hub.threads.lock().push(accept);
        Ok(hub)
    }

    /// The address followers dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drop dead sessions, shutting their sockets (which ends their
    /// ACK readers), counting and journaling the detaches.
    fn prune_dead(&self, state: &mut StreamState) {
        let before = state.sessions.len();
        state.sessions.retain(|s| {
            let alive = s.alive.load(Ordering::Acquire);
            if !alive {
                let _ = s.stream.shutdown(std::net::Shutdown::Both);
            }
            alive
        });
        self.count_detaches(before - state.sessions.len());
    }

    /// Count and journal `dropped` sessions that ended.
    fn count_detaches(&self, dropped: usize) {
        if dropped > 0 {
            self.metrics.follower_detaches.add(dropped as u64);
            self.metrics.registry.journal().record(
                "follower_detached",
                format!("{dropped} follower session(s) detached"),
            );
        }
    }

    /// Account one shipped op: `bytes` of payload assigned to
    /// `state.next_op`, ledgered for its destination.
    fn note_ship(&self, state: &StreamState, bytes: u64, to: To) {
        let h = &self.metrics;
        h.shipped_ops.inc();
        h.next_op.set(state.next_op as i64);
        h.shipped_bytes.add(bytes as i64);
        match to {
            To::Joiner(_, so) => {
                h.catchup_bytes.add(bytes);
                so.shipped(state.next_op, bytes);
            }
            To::Live => {
                for s in &state.sessions {
                    s.obs.shipped(state.next_op, bytes);
                }
            }
        }
    }

    /// Live follower sessions right now.
    pub fn follower_count(&self) -> usize {
        let mut stream = self.stream.lock();
        self.prune_dead(&mut stream);
        stream.sessions.len()
    }

    /// The commit watermark: the highest op every live follower has
    /// acked (0 with no live followers — nothing is remotely
    /// committed).
    pub fn watermark(&self) -> u64 {
        let mut stream = self.stream.lock();
        self.prune_dead(&mut stream);
        stream
            .sessions
            .iter()
            .map(|s| *s.ack.acked.lock().expect("ack cell poisoned"))
            .min()
            .unwrap_or(0)
    }

    /// Ops shipped so far.
    pub fn shipped_ops(&self) -> u64 {
        self.stream.lock().next_op
    }

    /// Stop accepting, drop every follower session, join the threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
        {
            let mut stream = self.stream.lock();
            for s in stream.sessions.drain(..) {
                s.alive.store(false, Ordering::Release);
                let _ = s.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let threads: Vec<_> = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }

    /// Handshake + catch-up + registration for one dialing follower.
    fn admit_follower(self: &Arc<Self>, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nodelay(true).ok();
        // Every write to this follower, catch-up included, gives up
        // once its socket has taken no bytes for `ack_timeout`: a peer
        // that stops reading is detached, not waited on under the
        // stream mutex every commit needs.
        stream.set_write_timeout(Some(self.cfg.ack_timeout))?;
        // Bound the handshake read so a silent dialer can't pin the
        // accept loop (and with it, shutdown); cleared again below —
        // an idle ACK channel is normal, a mute join is not.
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let Some(ReplMsg::Hello { epoch, cursors }) = ReplMsg::read_from(&mut reader)? else {
            return Err(std::io::Error::other("follower closed before HELLO"));
        };
        stream.set_read_timeout(None)?;
        // Epoch fence: a follower from a *later* configuration means
        // this primary is the stale node; it must not feed it.
        if epoch > self.cfg.epoch {
            return Err(std::io::Error::other(format!(
                "follower epoch {epoch} ahead of primary epoch {} — refusing",
                self.cfg.epoch
            )));
        }
        ReplMsg::HelloOk {
            epoch: self.cfg.epoch,
        }
        .write_to(&mut &stream)?;

        // Under the stream mutex: stream the missing segment tails,
        // then register for live shipping. Holding the lock across
        // both is what closes the catch-up/live gap (see module docs).
        let mut state = self.stream.lock();
        let h = &self.metrics;
        let id = self
            .next_follower_id
            .fetch_add(1, Ordering::Relaxed)
            .to_string();
        h.follower_connects.inc();
        h.registry.journal().record(
            "follower_connected",
            format!("follower {id} admitted at op {}", state.next_op),
        );
        let sobs = Arc::new(SessionObs {
            ledger: Mutex::new(Ledger {
                unacked: VecDeque::new(),
                shipped_op: state.next_op,
                shipped_bytes: 0,
                acked_op: state.next_op,
                acked_bytes: 0,
                detached: false,
            }),
            lag_ops: h
                .registry
                .gauge_with("vm_repl_watermark_lag_ops", &[("follower", id.as_str())]),
            lag_bytes: h
                .registry
                .gauge_with("vm_repl_watermark_lag_bytes", &[("follower", id.as_str())]),
        });
        // The outbox's ops belong to the sessions registered before this
        // one: send them now, or this follower would get them after its
        // catch-up, out of op order.
        let _ = self.flush(&mut state, To::Live);
        if let Err(e) = self.catch_up(&mut state, &stream, &cursors, &sobs) {
            // What is left in the outbox was the joiner's, not the
            // live sessions'.
            state.outbox.clear();
            sobs.detach();
            self.count_detaches(1);
            return Err(e);
        }
        let ack = Arc::new(AckCell {
            acked: StdMutex::new(0),
            advanced: Condvar::new(),
        });
        let alive = Arc::new(AtomicBool::new(true));
        let session = FollowerSession {
            stream,
            ack: Arc::clone(&ack),
            alive: Arc::clone(&alive),
            obs: Arc::clone(&sobs),
        };
        state.sessions.push(session);
        drop(state);

        let reader_thread = std::thread::spawn(move || {
            // Anything that isn't an ACK — EOF, garbage, an unexpected
            // opcode — falls out of the `while let` and ends the session.
            while let Ok(Some(ReplMsg::Ack { op })) = ReplMsg::read_from(&mut reader) {
                let mut acked = ack.acked.lock().expect("ack cell poisoned");
                if op > *acked {
                    *acked = op;
                }
                drop(acked);
                ack.advanced.notify_all();
                // Lag gauges come last: they take only the ledger lock,
                // and a blocked sync_ack waiter is already unblocked by
                // the notify above.
                sobs.acked(op);
            }
            sobs.detach();
            alive.store(false, Ordering::Release);
            ack.advanced.notify_all();
        });
        self.threads.lock().push(reader_thread);
        Ok(())
    }

    /// Stream every committed segment frame past the follower's
    /// cursors through the outbox, aimed at the joiner, assigning ops
    /// from the shared counter. Called with the stream mutex held and
    /// the outbox empty.
    fn catch_up(
        &self,
        state: &mut StreamState,
        joiner: &TcpStream,
        cursors: &[(u64, u64)],
        sobs: &SessionObs,
    ) -> std::io::Result<()> {
        let to = To::Joiner(joiner, sobs);
        let mut minutes: Vec<MinuteId> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_file_name(&e.file_name().to_string_lossy()))
            .collect();
        minutes.sort_unstable();
        for minute in minutes {
            let skip = cursors
                .iter()
                .find(|(m, _)| *m == minute.0)
                .map_or(0, |(_, records)| *records) as usize;
            let path = segment_path(&self.dir, minute);
            // `None` marks a foreign file recovery would quarantine;
            // the store can't have written it, so there is nothing of
            // ours to ship. An empty run covers a racing eviction.
            let Some(frames) = tail_frames(&path, minute, skip)? else {
                continue;
            };
            for run in runs(&frames) {
                self.push(state, to, OP_REPL_FRAMES, minute.0, run)?;
            }
        }
        self.flush(state, to)
    }

    /// Put committed frames — the exact bytes the store just wrote, one
    /// lent part of an append — in the outbox for every live follower
    /// (called by [`ReplicatedWal::append`] *after* local durability,
    /// still under the minute's shard lock, so ops follow bucket
    /// order). Nothing reaches a socket until the outbox is flushed: by
    /// [`end_batch`](Self::end_batch) once the ingest call is done, or
    /// early when it fills. A large part goes as several
    /// [`MAX_FRAMES_MSG_BYTES`]-bounded ops rather than one giant
    /// message, so a follower starts scanning and replaying the first
    /// run while later ones are still on the wire, and the ack
    /// watermark advances run by run.
    fn ship_append(&self, minute: MinuteId, frames: &Frames) {
        let mut state = self.stream.lock();
        self.prune_dead(&mut state);
        if state.sessions.is_empty() {
            return;
        }
        for run in runs(frames) {
            let _ = self.push(&mut state, To::Live, OP_REPL_FRAMES, minute.0, run);
        }
    }

    /// Put a retention sweep in the outbox behind every op before it.
    fn ship_evict(&self, cutoff: MinuteId) {
        let mut state = self.stream.lock();
        self.prune_dead(&mut state);
        if state.sessions.is_empty() {
            return;
        }
        let _ = self.push(&mut state, To::Live, OP_REPL_EVICT, cutoff.0, &[]);
    }

    /// Assign the next op to one message — `FRAMES` of minute `word`
    /// carrying `run`, or `EVICT` before cutoff `word` — and encode it
    /// at the end of the outbox, its envelope written in place around
    /// `run`. The outbox is flushed first if the message would take it
    /// past [`MAX_FRAMES_MSG_BYTES`]: a batch larger than that streams
    /// in pieces of about one message's cap, and the outbox never holds
    /// more than the cap or one message, whichever is larger.
    fn push(
        &self,
        state: &mut StreamState,
        to: To,
        opcode: u8,
        word: u64,
        run: &[u8],
    ) -> std::io::Result<()> {
        if state.outbox.len() + OP_MSG_OVERHEAD + run.len() > MAX_FRAMES_MSG_BYTES {
            self.flush(state, to)?;
        }
        state.next_op += 1;
        self.note_ship(state, run.len() as u64, to);
        encode_op(opcode, state.next_op, word, run, &mut state.outbox);
        Ok(())
    }

    /// Write the outbox to its destination in one `write_all` each and
    /// empty it. A live session whose write fails — a closed socket, or
    /// one that took no bytes for `ack_timeout` — is detached, and
    /// replication never fails the primary's local commit; a joiner's
    /// failure is returned, ending its admission.
    fn flush(&self, state: &mut StreamState, to: To) -> std::io::Result<()> {
        if state.outbox.is_empty() {
            return Ok(());
        }
        let written = match to {
            To::Live => {
                self.metrics.ship_us.time(|| {
                    for s in &state.sessions {
                        if (&s.stream).write_all(&state.outbox).is_err() {
                            s.alive.store(false, Ordering::Release);
                        }
                    }
                });
                self.prune_dead(state);
                Ok(())
            }
            To::Joiner(mut joiner, _) => joiner.write_all(&state.outbox),
        };
        state.outbox.clear();
        written
    }

    /// Flush the outbox; under `sync_ack`, then wait — holding no lock
    /// — until every live follower has acked the last op assigned
    /// (detaching any that miss `ack_timeout`).
    fn end_batch(&self) {
        let (op, waits) = {
            let mut state = self.stream.lock();
            let _ = self.flush(&mut state, To::Live);
            if !self.cfg.sync_ack || state.sessions.is_empty() {
                return;
            }
            let waits: Vec<_> = state
                .sessions
                .iter()
                .map(|s| (Arc::clone(&s.ack), Arc::clone(&s.alive)))
                .collect();
            (state.next_op, waits)
        };
        let deadline = Instant::now() + self.cfg.ack_timeout;
        self.metrics.ack_wait_us.time(|| {
            for (ack, alive) in &waits {
                let mut acked = ack.acked.lock().expect("ack cell poisoned");
                while *acked < op && alive.load(Ordering::Acquire) {
                    let now = Instant::now();
                    if now >= deadline {
                        // Too slow for synchronous replication: detach
                        // rather than stall every future commit.
                        alive.store(false, Ordering::Release);
                        break;
                    }
                    acked = ack
                        .advanced
                        .wait_timeout(acked, deadline - now)
                        .expect("ack cell poisoned")
                        .0;
                }
            }
        });
        self.prune_dead(&mut self.stream.lock());
    }
}

/// Cut `frames` at frame boundaries into runs of at most
/// [`MAX_FRAMES_MSG_BYTES`] (a lone larger frame is a run of its own):
/// one `FRAMES` message each, for catch-up and live shipping alike.
fn runs(frames: &Frames) -> impl Iterator<Item = &[u8]> {
    let mut start = 0;
    let ends = frames.ends();
    ends.iter().enumerate().filter_map(move |(i, &end)| {
        let next = ends.get(i + 1);
        if next.is_some_and(|&next| next - start <= MAX_FRAMES_MSG_BYTES) {
            return None;
        }
        let run = &frames.bytes()[start..end];
        start = end;
        Some(run)
    })
}

impl Drop for ReplHub {
    fn drop(&mut self) {
        // Arc'd hubs shut down via the method; this is the last-resort
        // path when the final clone drops without one.
        self.shutdown();
    }
}

/// The primary's WAL: a [`VpStore`] whose every committed append also
/// ships — local write (and fsync) first, then the very bytes written,
/// put in the outbox and flushed once per ingest batch.
///
/// Eviction sweeps ship too, so follower retention mirrors the
/// primary's. `sync` is purely local — the remote equivalent is the ack
/// watermark.
pub struct ReplicatedWal {
    store: VpStore,
    hub: Arc<ReplHub>,
}

impl ReplicatedWal {
    /// Wrap `store` so its committed appends also ship through `hub`.
    pub fn new(store: VpStore, hub: Arc<ReplHub>) -> Self {
        ReplicatedWal { store, hub }
    }
}

impl VpWal for ReplicatedWal {
    fn append(&self, vps: &[&StoredVp], frames: Option<&[&[u8]]>) -> std::io::Result<()> {
        // Local first: a record is never on a follower before it is on
        // the primary's own disk — the store lends the bytes only once
        // they are written.
        self.store.append_then(vps, frames, |written| {
            self.hub.ship_append(vps[0].minute(), written)
        })
    }

    fn end_batch(&self) {
        self.hub.end_batch();
    }

    fn evict_minutes_before(&self, cutoff: MinuteId) -> std::io::Result<usize> {
        let removed = self.store.evict_minutes_before(cutoff)?;
        self.hub.ship_evict(cutoff);
        self.hub.end_batch();
        Ok(removed)
    }

    fn sync(&self) -> std::io::Result<()> {
        self.store.sync()
    }
}

/// A serving primary: a durable [`ViewMapServer`] whose WAL ships to
/// followers through an embedded [`ReplHub`].
pub struct Primary {
    server: Arc<ViewMapServer>,
    hub: Arc<ReplHub>,
}

impl Primary {
    /// Open (or recover) the store in `dir` under the operator's
    /// signing `key`, start the replication listener on `listen_addr`,
    /// and wire the server's WAL through it.
    ///
    /// Recovery and the key rules are [`vm_store::open_unattached`]'s,
    /// as for [`vm_store::PersistentServer::open_with_key`]: an
    /// existing keyfile must match (re-keying orphans outstanding
    /// cash); a missing one is persisted from `key`. The whole
    /// replication group shares one key — that is what lets a promoted
    /// follower keep redeeming cash the old primary minted.
    pub fn open(
        dir: impl AsRef<Path>,
        key: RsaKeyPair,
        vmcfg: ViewmapConfig,
        store_cfg: StoreConfig,
        repl_cfg: ReplicationConfig,
        listen_addr: impl ToSocketAddrs,
    ) -> std::io::Result<(Primary, RecoveryReport)> {
        let (mut srv, store, report) =
            vm_store::open_unattached(key, vmcfg, dir.as_ref(), store_cfg)?;
        // The hub's telemetry goes on the server's registry (as the
        // store's already does) so a single STATS snapshot covers the
        // whole replicated cell.
        let hub = ReplHub::spawn(dir, listen_addr, repl_cfg, srv.obs())?;
        srv.attach_wal(Box::new(ReplicatedWal::new(store, Arc::clone(&hub))));
        Ok((
            Primary {
                server: Arc::new(srv),
                hub,
            },
            report,
        ))
    }

    /// The serving server (share it with a `VmService` front-end).
    pub fn server(&self) -> &Arc<ViewMapServer> {
        &self.server
    }

    /// The replication hub.
    pub fn hub(&self) -> &Arc<ReplHub> {
        &self.hub
    }

    /// The address followers dial.
    pub fn repl_addr(&self) -> SocketAddr {
        self.hub.addr()
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        self.hub.shutdown();
    }
}
