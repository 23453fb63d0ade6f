//! The concurrent TCP front-end: accept loop + bounded worker pool over
//! a shared [`ViewMapServer`].
//!
//! # Threading model
//!
//! [`VmService::spawn`] binds a listener and starts one supervisor OS
//! thread. The supervisor fans out through the same
//! [`viewmap_core::par`] scoped-thread helper every parallel engine in
//! the workspace rides: role 0 runs the accept loop, roles `1..=workers`
//! run session workers. Accepted connections land in a bounded queue;
//! each worker pops one and serves it to completion (frames on one
//! connection are processed serially, so per-session request order is
//! preserved and replies never interleave). Sessions are therefore
//! worker-bound: size `workers` to the number of simultaneously-live
//! uploader/investigator sessions you expect — idle keep-alive
//! connections hold a worker.
//!
//! # Pipelined-submit coalescing
//!
//! Uploader vehicles pipeline: they write many `SUBMIT` frames before
//! reading any reply. The session loop exploits that — after decoding a
//! `SUBMIT` it keeps draining frames as long as more bytes are already
//! buffered (up to 1024 frames), and commits every
//! consecutive submit in one
//! [`ViewMapServer::submit_batch_warm`] call. The network path thus
//! rides the same per-(minute, batch) stripe locking and parallel
//! link-key precompute the in-process batch API gets, while each frame
//! still receives its own per-item reply in order. State is
//! indistinguishable from sequential submits (the batch-equivalence
//! property the core suite pins). A run is the only way a session
//! reaches server ingest, and it is anonymous: the server clears every
//! VP's `trusted` flag, whatever the record carried.
//!
//! # Shutdown
//!
//! [`ServiceHandle::shutdown`] (also run on drop) sets the shutdown
//! flag, wakes the acceptor with a loopback connect, closes every live
//! session socket (`TcpStream::shutdown`), and joins the supervisor.
//! In-flight frames finish or fail their read; no new connections are
//! admitted.

use crate::proto::{ErrorCode, Frame, Reply, Request, OP_STATS, OP_SUBMIT};
use crate::role::{Role, RoleCell};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use viewmap_core::server::ViewMapServer;
use viewmap_core::upload::AnonymousSubmission;
use vm_obs::{Counter, Gauge, Histogram};

// The service shares one `ViewMapServer` across every worker thread;
// this is the compile-time audit that the server (incl. its boxed WAL)
// actually crosses threads. `viewmap_core` asserts the same on its side.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ViewMapServer>();
};

/// Tuning knobs for [`VmService::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Session worker threads (= maximum simultaneously-served
    /// connections). Default 8.
    pub workers: usize,
    /// Reap a session whose socket delivers no bytes for this long.
    /// Sessions are worker-bound, so a leaked keep-alive connection
    /// pins a pool worker forever without a deadline; with one, the
    /// blocked read returns, the session closes cleanly (buffered
    /// replies are flushed first), and the worker moves on. The timer
    /// is per `read(2)` call — any delivered byte resets it — so a
    /// slow-but-active uploader is never reaped mid-stream. `None`
    /// (the default) keeps today's block-forever behavior.
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 8,
            idle_timeout: None,
        }
    }
}

/// Maximum pipelined `SUBMIT` frames coalesced into one
/// `submit_batch_warm` call.
const MAX_COALESCE: usize = 1024;

/// Maximum accepted-but-unclaimed connections. Beyond it the acceptor
/// closes new connections immediately (a clean reset the client can
/// retry) instead of letting a flood grow the queue — and the process's
/// open-fd count — without bound.
const MAX_BACKLOG: usize = 1024;

/// Human-readable `op` label for each request opcode, indexed by
/// `opcode - 1` (opcodes are assigned densely from `0x01`). The retired
/// `0x02` has no label and so no histogram.
const OPCODE_LABELS: [&str; OP_STATS as usize] = [
    "submit",
    "",
    "investigate",
    "solicit",
    "upload_video",
    "claim_reward",
    "blind_sign",
    "redeem",
    "public_key",
    "total_vps",
    "stats",
];

/// The front-end's instrument set, registered on the served cell's
/// registry so one `STATS` snapshot covers engine, store, and service.
struct ServiceMetrics {
    sessions_active: Arc<Gauge>,
    sessions_total: Arc<Counter>,
    sessions_reaped: Arc<Counter>,
    coalesce_run: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    accept_sheds: Arc<Counter>,
    /// Per-opcode server-side request latency (decode + engine work;
    /// socket I/O excluded), indexed by `opcode - 1`.
    request_us: Vec<Option<Arc<Histogram>>>,
}

impl ServiceMetrics {
    fn register(obs: &vm_obs::Registry) -> ServiceMetrics {
        ServiceMetrics {
            sessions_active: obs.gauge("vm_service_sessions_active"),
            sessions_total: obs.counter("vm_service_sessions_total"),
            sessions_reaped: obs.counter("vm_service_sessions_reaped_total"),
            coalesce_run: obs.histogram("vm_service_coalesce_run_frames"),
            queue_depth: obs.gauge("vm_service_accept_queue_depth"),
            accept_sheds: obs.counter("vm_service_accept_sheds_total"),
            request_us: OPCODE_LABELS
                .iter()
                .map(|op| {
                    (!op.is_empty())
                        .then(|| obs.histogram_with("vm_service_request_us", &[("op", op)]))
                })
                .collect(),
        }
    }

    fn request_hist(&self, opcode: u8) -> Option<&Arc<Histogram>> {
        self.request_us
            .get((opcode as usize).checked_sub(1)?)?
            .as_ref()
    }
}

struct Shared {
    server: Arc<ViewMapServer>,
    metrics: ServiceMetrics,
    cfg: ServiceConfig,
    /// Replication role gate; `None` (a standalone cell) serves
    /// everything. Shared with the failover machinery so a promotion
    /// flips live sessions' behavior without a listener restart.
    role: Option<Arc<RoleCell>>,
    shutdown: AtomicBool,
    /// Accepted, not-yet-claimed connections (capped at
    /// `MAX_BACKLOG` by the acceptor).
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// `(session token, socket clone)` for every live session, so
    /// shutdown can unblock reads. Slots are retired by token when
    /// their session ends.
    live: Mutex<Vec<(u64, TcpStream)>>,
    /// Fresh per-session ids for [`AnonymousSubmission`] stamping.
    next_session: AtomicU64,
}

/// The front-end itself; construct with [`VmService::spawn`].
pub struct VmService;

/// A running service: its bound address plus the shutdown control.
/// Dropping the handle shuts the service down.
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl VmService {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// `server` until the returned handle is shut down or dropped.
    pub fn spawn(
        server: Arc<ViewMapServer>,
        addr: impl ToSocketAddrs,
        cfg: ServiceConfig,
    ) -> std::io::Result<ServiceHandle> {
        Self::spawn_with_role(server, addr, cfg, None)
    }

    /// As [`spawn`](Self::spawn), gated by a replication [`RoleCell`]:
    /// while the cell says [`Role::Follower`], every mutating opcode is
    /// rejected with [`ErrorCode::NotPrimary`] (the detail carries the
    /// node's epoch) and only reads — investigate, public-key,
    /// total-VPs — are served. Promoting the cell flips live sessions
    /// to full service without restarting the listener.
    pub fn spawn_with_role(
        server: Arc<ViewMapServer>,
        addr: impl ToSocketAddrs,
        cfg: ServiceConfig,
        role: Option<Arc<RoleCell>>,
    ) -> std::io::Result<ServiceHandle> {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            metrics: ServiceMetrics::register(server.obs()),
            server,
            cfg,
            role,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            live: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
        });
        let sup_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("vm-service".into())
            .spawn(move || {
                // Role 0 is the acceptor; roles 1..=workers serve
                // sessions. One chunk per role through the shared
                // scoped-thread fan-out (`even_cuts(n, n)` yields n
                // width-1 chunks), so the pool is bounded by
                // construction and joins when every role returns.
                let roles = sup_shared.cfg.workers + 1;
                let cuts = viewmap_core::par::even_cuts(roles, roles);
                viewmap_core::par::map_ranges(&cuts, |role, _, _| {
                    if role == 0 {
                        accept_loop(&sup_shared, &listener);
                    } else {
                        worker_loop(&sup_shared);
                    }
                });
            })?;
        Ok(ServiceHandle {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }
}

impl ServiceHandle {
    /// The bound socket address (the port to hand to [`crate::client::VmClient`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close live sessions, and join every thread.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor: a throwaway loopback connect makes its
        // blocking `accept` return so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        // Unblock every session read mid-frame.
        for (_, conn) in self.shared.live.lock().expect("live lock").iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.shared.queue_cv.notify_all();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (EMFILE when the process is
                // out of fds, transient ENOBUFS) would otherwise spin
                // this thread at 100% CPU; back off briefly so session
                // workers can make progress and release fds.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connect, or a late client — drop it
        }
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= MAX_BACKLOG {
            drop(conn); // shed load: close instead of growing without bound
            shared.metrics.accept_sheds.inc();
            continue;
        }
        queue.push_back(conn);
        shared.metrics.queue_depth.set(queue.len() as i64);
        drop(queue);
        shared.queue_cv.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(conn) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as i64);
                    break conn;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue wait");
            }
        };
        // Register a clone so shutdown can close us mid-read; retire it
        // by token when the session ends (live stays proportional to
        // *live* sessions, not total served). A session with no
        // killable handle would hang shutdown on its blocking read, so
        // a failed clone means the connection is not served at all.
        let token = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let Ok(clone) = conn.try_clone() else {
            continue;
        };
        shared.live.lock().expect("live lock").push((token, clone));
        // Registration races the shutdown sweep: if the sweep ran
        // before our push it missed us, but it also ran after the flag
        // was set — so re-checking the flag *after* registering closes
        // the window (either the sweep closes our socket, or we see the
        // flag and never block on the read).
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        shared.metrics.sessions_total.inc();
        shared.metrics.sessions_active.add(1);
        let _ = serve_session(shared, token, conn);
        shared.metrics.sessions_active.add(-1);
        {
            let mut live = shared.live.lock().expect("live lock");
            if let Some(i) = live.iter().position(|(t, _)| *t == token) {
                live.swap_remove(i);
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Serve one connection to completion. `Err` covers both transport
/// failure and protocol corruption — either way the session is over.
fn serve_session(shared: &Shared, session_id: u64, conn: TcpStream) -> std::io::Result<()> {
    conn.set_nodelay(true).ok();
    // The per-session idle deadline: a read that delivers nothing for
    // idle_timeout returns WouldBlock/TimedOut instead of blocking the
    // worker forever. Failing to arm it falls back to block-forever —
    // the pre-deadline behavior — rather than killing the session.
    conn.set_read_timeout(shared.cfg.idle_timeout).ok();
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut pending: Option<Frame> = None;
    loop {
        let frame = match pending.take() {
            Some(f) => f,
            None => match read_next(&mut reader, &mut writer) {
                Ok(Some(f)) => f,
                Ok(None) => {
                    writer.flush()?;
                    return Ok(()); // clean close
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Idle deadline expired with no new frame: reap the
                    // session. (If the deadline lands mid-frame the
                    // partial bytes are dropped with the connection —
                    // the peer sees a close, exactly like a transport
                    // failure, and no partial frame is ever dispatched.)
                    shared.metrics.sessions_reaped.inc();
                    let _ = writer.flush();
                    return Ok(());
                }
                Err(e) => return Err(e),
            },
        };
        if frame.opcode == OP_SUBMIT {
            // Coalesce the pipelined run: keep pulling frames while more
            // bytes are already buffered (never block holding unflushed
            // replies), stop at the first non-submit or the window cap.
            let mut run = vec![frame];
            while run.len() < MAX_COALESCE && !reader.buffer().is_empty() {
                match Frame::read_from(&mut reader)? {
                    Some(f) if f.opcode == OP_SUBMIT => run.push(f),
                    Some(f) => {
                        pending = Some(f);
                        break;
                    }
                    None => break,
                }
            }
            handle_submit_run(shared, session_id, &run, &mut writer)?;
        } else {
            let reply = match shared.metrics.request_hist(frame.opcode) {
                Some(h) => h.time(|| dispatch(shared, &frame)),
                None => dispatch(shared, &frame),
            };
            note_reply(shared, &reply);
            write_reply(&mut writer, frame.request_id, &reply)?;
        }
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
    }
}

/// Read the next frame, flushing buffered replies first whenever the
/// read could block (nothing pipelined remains in the read buffer).
fn read_next(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<Option<Frame>> {
    if reader.buffer().is_empty() {
        writer.flush()?;
    }
    Frame::read_from(reader)
}

/// The `NotPrimary` rejection for this node, if mutations are currently
/// gated off (the role cell says follower). Checked per frame, so a
/// promotion takes effect on live sessions' next request.
fn follower_reject(shared: &Shared) -> Option<Reply> {
    match &shared.role {
        Some(cell) if cell.role() == Role::Follower => Some(Reply::Err(
            ErrorCode::NotPrimary,
            format!("follower at epoch {}", cell.epoch()),
        )),
        _ => None,
    }
}

/// Count error replies by typed code, so `STATS` exposes the error mix
/// (`vm_service_errors_total{code="..."}`). Error path only — accepted
/// requests never touch the registry lock.
fn note_reply(shared: &Shared, reply: &Reply) {
    if let Reply::Err(code, _) = reply {
        let label = code.to_string();
        shared
            .server
            .obs()
            .counter_with("vm_service_errors_total", &[("code", label.as_str())])
            .inc();
    }
}

/// Commit one coalesced run of `SUBMIT` frames through
/// `submit_batch_warm` and reply to each frame in arrival order.
fn handle_submit_run(
    shared: &Shared,
    session_id: u64,
    run: &[Frame],
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<()> {
    shared.metrics.coalesce_run.record(run.len() as u64);
    // A follower never lets a submit touch the server — the replicated
    // log's head is the primary, and writes entering anywhere else
    // would fork it. Each frame still gets its own (error) reply.
    if let Some(reply) = follower_reject(shared) {
        note_reply(shared, &reply);
        for f in run {
            write_reply(writer, f.request_id, &reply)?;
        }
        return Ok(());
    }
    // Decode first: frames whose payload fails to parse get BadRequest
    // and are excluded from the batch (their slot keeps frame order).
    let mut decode_err: Vec<Option<ErrorCode>> = Vec::with_capacity(run.len());
    let mut batch: Vec<AnonymousSubmission> = Vec::with_capacity(run.len());
    for f in run {
        match Request::decode(f.opcode, &f.payload) {
            Ok(Request::Submit(vp)) => {
                decode_err.push(None);
                batch.push(AnonymousSubmission { session_id, vp });
            }
            Ok(_) => unreachable!("run holds only OP_SUBMIT frames"),
            Err(code) => decode_err.push(Some(code)),
        }
    }
    let submit_us = shared
        .metrics
        .request_hist(OP_SUBMIT)
        .expect("submit opcode is registered");
    let mut results = submit_us
        .time(|| shared.server.submit_batch_warm(batch))
        .into_iter();
    for (f, d) in run.iter().zip(&decode_err) {
        let reply = match d {
            Some(code) => Reply::Err(*code, "undecodable VP record".into()),
            None => match results.next().expect("one result per decoded frame") {
                Ok(()) => Reply::Ok,
                Err(e) => Reply::Err(e.into(), String::new()),
            },
        };
        note_reply(shared, &reply);
        write_reply(writer, f.request_id, &reply)?;
    }
    Ok(())
}

fn write_reply(
    writer: &mut BufWriter<TcpStream>,
    request_id: u32,
    reply: &Reply,
) -> std::io::Result<()> {
    Frame {
        request_id,
        opcode: reply.opcode(),
        payload: reply.encode_payload(),
    }
    .write_to(writer)
}

/// Execute one non-submit request against the shared server.
fn dispatch(shared: &Shared, frame: &Frame) -> Reply {
    let req = match Request::decode(frame.opcode, &frame.payload) {
        Ok(req) => req,
        Err(code) => return Reply::Err(code, format!("opcode {:#04x}", frame.opcode)),
    };
    // Followers serve reads only; every mutating opcode bounces with
    // the node's epoch so the client can redial the primary. `STATS` is
    // deliberately in the read set: a fenced follower's telemetry is
    // exactly what an operator needs while deciding whether to promote.
    let mutating = !matches!(
        req,
        Request::Investigate { .. } | Request::PublicKey | Request::TotalVps | Request::Stats
    );
    if mutating {
        if let Some(reply) = follower_reject(shared) {
            return reply;
        }
    }
    let srv = &*shared.server;
    match req {
        // `serve_session` routes every OP_SUBMIT frame into the
        // coalesce path (`pending` only ever holds non-submit frames),
        // so a Submit can never reach this dispatcher.
        Request::Submit(_) => unreachable!("OP_SUBMIT frames take the coalesced path"),
        Request::Investigate { minute, site } => Reply::VpIds(srv.investigate(minute, site)),
        Request::Solicit(id) => {
            srv.solicit(id);
            Reply::Ok
        }
        Request::UploadVideo(upload) => match srv.upload_video(&upload) {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::Err((&e).into(), e.to_string()),
        },
        Request::ClaimReward { vp_id, secret } => match srv.claim_reward(vp_id, &secret) {
            Ok(units) => Reply::Units(units as u64),
            Err(e) => Reply::Err(reward_code(e), String::new()),
        },
        Request::BlindSign {
            vp_id,
            secret,
            blinded,
        } => match srv.issue_blind_signatures(vp_id, &secret, &blinded) {
            Ok(sigs) => Reply::Signatures(sigs),
            Err(e) => Reply::Err(reward_code(e), String::new()),
        },
        Request::Redeem(cash) => match srv.redeem(&cash) {
            Ok(()) => Reply::Ok,
            Err(viewmap_core::server::RedeemError::BadSignature) => {
                Reply::Err(ErrorCode::BadSignature, String::new())
            }
            Err(viewmap_core::server::RedeemError::DoubleSpend) => {
                Reply::Err(ErrorCode::DoubleSpend, String::new())
            }
        },
        Request::PublicKey => {
            let pk = srv.public_key();
            Reply::PublicKey {
                n: pk.modulus().to_bytes_be(),
                e: pk.exponent().to_bytes_be(),
            }
        }
        Request::TotalVps => Reply::Count(srv.total_vps() as u64),
        Request::Stats => Reply::Stats(srv.obs().snapshot().render_text()),
    }
}

fn reward_code(e: viewmap_core::server::RewardError) -> ErrorCode {
    match e {
        viewmap_core::server::RewardError::NotOnBoard => ErrorCode::NotOnBoard,
        viewmap_core::server::RewardError::BadOwnershipProof => ErrorCode::BadOwnershipProof,
        viewmap_core::server::RewardError::BlindedOutOfRange => ErrorCode::BlindedOutOfRange,
    }
}
