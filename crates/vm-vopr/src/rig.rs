//! The one test rig: everything a seeded full-system run needs that is
//! not specific to a fault choreography or a workload. The fault harness
//! ([`crate::harness`]) and the city workloads (`city`) are
//! both written on top of it.
//!
//! A run is the product of three plain values:
//!
//! * a [`World`] — per-minute VP populations (element 0 of each minute
//!   is the trusted anchor) plus the site every check investigates;
//! * a [`FaultProfile`] — one `const` table row saying which faults are
//!   armed and how the cell is shaped;
//! * an assertion set — [`Assertions`] for the oracle comparison, plus
//!   whatever workload-specific checks the calling harness adds.
//!
//! The rig supplies the moving parts around them:
//!
//! * **[`Cell`]** — a durable [`ViewMapServer`] in the run's temp dir
//!   with an optional served [`Front`] (service workers, chaos proxy,
//!   seeded client). `open` runs real recovery and returns the
//!   [`RecoveryReport`]; `crash` drops everything with no sync;
//!   `shutdown` syncs first. Replicated runs build the `vm-repl` pair
//!   themselves and hang a [`Front`] on the follower.
//! * **[`Ledger`]** — which world VPs the system has accepted, in
//!   accepted order, plus the settle loops that retry an op through
//!   reconnects until it is accepted or reported present. Because the
//!   driver is one synchronous client, per-minute accepted order equals
//!   issue order however the wire behaves, so an oracle fed
//!   [`Ledger::history`] must match the served system bit for bit.
//! * **equivalence** — [`check_equivalence`] holds a server to an
//!   oracle ([`vm_bench::oracle::replay`] of the ledger's history).
//! * **failure report** — [`run_reported`] wraps a run so any `Err`
//!   carries the copy-pasteable repro line, the last opened server's
//!   metrics snapshot and its journal tail.

use crate::proxy::{ChaosProxy, WireFaults};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{MinuteId, VpId};
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::oracle::memo_equals_cold;
use vm_obs::Registry;
use vm_service::proto::ErrorCode;
use vm_service::{
    ClientConfig, ClientError, RoleCell, ServiceConfig, ServiceHandle, VmClient, VmService,
};
use vm_store::{PersistentServer, RecoveryReport, StoreConfig};

/// RSA modulus width for cells that never sign: the smallest the crypto
/// layer accepts, because the rig measures fault tolerance, not key
/// strength.
pub const KEY_BITS: usize = 64;

/// Modulus width for cells that run real blind signatures and
/// redemptions (reward races, cash surviving a failover).
pub const REWARD_KEY_BITS: usize = 512;

/// Cap on attempts for one op to settle before the run is declared
/// wedged (generous: the fault rates leave each attempt likely to
/// succeed).
pub const MAX_ATTEMPTS: usize = 50;

/// How many journal events a failure report carries.
const FAILURE_JOURNAL_TAIL: usize = 16;

/// Return `Err(format!(..))` from the enclosing function unless `cond`
/// holds.
#[macro_export]
macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        // `if cond {} else { .. }` rather than `if !cond` so float
        // comparisons at call sites don't trip neg_cmp_op_on_partial_ord.
        if $cond {
        } else {
            return Err(format!($($arg)*));
        }
    };
}

// ── World ────────────────────────────────────────────────────────────

/// What a run ingests: per-minute populations in issue order, element 0
/// of each minute the trusted anchor (submitted in-process over the
/// authority channel; everything else goes through the client).
#[derive(Clone, Debug)]
pub struct World {
    /// `(minute, VPs)` in ascending minute order.
    pub minutes: Vec<(MinuteId, Vec<StoredVp>)>,
    /// The investigation site every equivalence check uses; covers the
    /// whole world.
    pub site: Site,
}

impl World {
    /// The minutes the world populates, ascending.
    pub fn minute_ids(&self) -> Vec<MinuteId> {
        self.minutes.iter().map(|(minute, _)| *minute).collect()
    }

    /// VPs across all minutes, anchors included.
    pub fn total_vps(&self) -> usize {
        self.minutes.iter().map(|(_, vps)| vps.len()).sum()
    }

    /// Round-robin interleave of every non-anchor VP as `(minute index,
    /// VP index)`, so crash points and partitions land across minutes.
    pub fn round_robin(&self) -> Vec<(usize, usize)> {
        let widest = self.minutes.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        (1..widest)
            .flat_map(|i| (0..self.minutes.len()).map(move |m| (m, i)))
            .filter(|&(m, i)| i < self.minutes[m].1.len())
            .collect()
    }
}

// ── Fault profile ────────────────────────────────────────────────────

/// What goes wrong between a replicated pair (the choreography lives in
/// the vopr harness; the profile only names it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairFault {
    /// Byte-level chaos on the replication link; the follower stays a
    /// follower and must converge anyway.
    ChaoticLink,
    /// The link is severed and redials refused mid-stream, then healed.
    Partition,
    /// The primary dies abruptly and the follower is promoted.
    Failover,
}

/// One catalog row: which faults are armed and how the cell is shaped.
/// *Where* the faults strike is drawn from the run seed.
#[derive(Clone, Copy, Debug)]
pub struct FaultProfile {
    /// Wire fault mix of the [`ChaosProxy`] (`None` = direct
    /// connection). Single cells proxy the client↔service link;
    /// replicated pairs proxy the primary↔follower replication link.
    pub wire: Option<WireFaults>,
    /// Stirred into the proxy's fault-schedule seed (kept per row so
    /// every pre-rig repro line replays its old schedule).
    pub proxy_salt: u64,
    /// Crash/recover generations, drawn uniformly from this inclusive
    /// range (`(1, 1)` = no injected crash).
    pub generations: (usize, usize),
    /// Crashes leave a partial frame on the WAL tail (vs clean
    /// frame-boundary truncation).
    pub tears_mid_frame: bool,
    /// Server-side idle-session reaping; when set the driver naps past
    /// it at seeded points so sessions die between ops (gray failure).
    pub idle_timeout: Option<Duration>,
    /// Ingest the whole schedule as one pipelined burst (the service's
    /// coalescing fast path) instead of op by op.
    pub pipelined: bool,
    /// Probe the viewlink memo against cold builds mid-ingest, after
    /// every recovery, and across a retention sweep.
    pub memo_churn: bool,
    /// Run a `vm-repl` primary/follower pair under this fault instead
    /// of a single cell.
    pub pair: Option<PairFault>,
    /// RSA modulus width of the cell's signing key.
    pub key_bits: usize,
    /// Service worker threads (= concurrent sessions served).
    pub workers: usize,
}

impl FaultProfile {
    /// A direct, fault-free single cell; rows override what they arm.
    pub const NONE: FaultProfile = FaultProfile {
        wire: None,
        proxy_salt: 0,
        generations: (1, 1),
        tears_mid_frame: false,
        idle_timeout: None,
        pipelined: false,
        memo_churn: false,
        pair: None,
        key_bits: KEY_BITS,
        workers: 2,
    };

    /// Generations this run drives. Draws from `rng` only when the row
    /// leaves a choice, so fixed rows do not shift the seeded plan.
    pub fn draw_generations(&self, rng: &mut impl Rng) -> usize {
        let (lo, hi) = self.generations;
        if lo == hi {
            lo
        } else {
            rng.gen_range(lo..=hi)
        }
    }

    /// True when no reply can be lost on the client link (no
    /// corruption, cuts or reaped sessions), so submit outcomes are
    /// exact: a stored VP dedups and a fresh one is accepted, never the
    /// ambiguous "present" a retry after a lost reply produces.
    pub fn lossless(&self) -> bool {
        self.idle_timeout.is_none()
            && self
                .wire
                .is_none_or(|w| w.corrupt_prob == 0.0 && w.cut_prob == 0.0)
    }
}

// ── Run context and failure report ───────────────────────────────────

/// A run-private scratch directory, removed on drop. The name carries a
/// process-wide counter: two runs of the same `(scenario, seed)` in one
/// process (parallel `#[test]`s) must never share — and delete — each
/// other's live WAL.
struct TempDir(PathBuf);

impl TempDir {
    fn new(scenario: &str, seed: u64) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vm_rig_{scenario}_{seed}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One run's context: its identity, its scratch directory, and the
/// telemetry registry a failure report should dump.
pub struct Rig {
    /// The seed that parameterizes the run.
    pub seed: u64,
    /// The most recently opened server's registry. A registry outlives
    /// its server (it is `Arc`'d), so a failing run can dump the final
    /// snapshot even after the server under test has been torn down.
    last_obs: Option<Arc<Registry>>,
    tmp: TempDir,
}

impl Rig {
    /// The run's scratch directory (created by whoever opens a store in
    /// it).
    pub fn dir(&self) -> &Path {
        &self.tmp.0
    }

    /// Remember `obs` as the registry a failure report should dump.
    pub fn track_obs(&mut self, obs: &Arc<Registry>) {
        self.last_obs = Some(Arc::clone(obs));
    }

    /// The telemetry appendix for a failed run: the tracked registry's
    /// full text snapshot plus the last few journal events. Empty when
    /// no server ever opened (the failure predates any telemetry).
    fn failure_telemetry(&self) -> String {
        let Some(obs) = &self.last_obs else {
            return String::new();
        };
        let mut out = String::from("\n--- metrics snapshot at failure ---\n");
        out.push_str(&obs.snapshot().render_text());
        out.push_str("--- journal tail ---\n");
        let tail = obs.journal().tail(FAILURE_JOURNAL_TAIL);
        if tail.is_empty() {
            out.push_str("(no events)\n");
        }
        for event in tail {
            out.push_str(&format!("{event}\n"));
        }
        out
    }
}

/// Run `run` inside a fresh [`Rig`]; an `Err` comes back prefixed with
/// the scenario and seed and suffixed with a copy-pasteable repro line,
/// the metrics snapshot and the journal tail, so any failure is
/// reproducible from the message alone.
pub fn run_reported<T>(
    scenario: &str,
    seed: u64,
    run: impl FnOnce(&mut Rig) -> Result<T, String>,
) -> Result<T, String> {
    let mut rig = Rig {
        seed,
        last_obs: None,
        tmp: TempDir::new(scenario, seed),
    };
    run(&mut rig).map_err(|e| {
        format!(
            "[scenario={scenario} seed={seed}] {e} — reproduce: \
             cargo run --release -p vm-vopr -- --scenario {scenario} --seed {seed}{}",
            rig.failure_telemetry()
        )
    })
}

// ── Cell ─────────────────────────────────────────────────────────────

/// A served front-end: service workers on `srv`, an optional chaos
/// proxy in front of them, and one seeded client dialled through it.
pub struct Front {
    /// The run's synchronous client.
    pub client: VmClient,
    // Held for their Drop (sever the proxied connections, join the
    // workers), after the client that dials through them.
    _proxy: Option<ChaosProxy>,
    handle: ServiceHandle,
}

impl Front {
    /// Serve `srv` (fenced by `role` when it is a replica) and connect
    /// the client — through a chaos proxy when a single cell's profile
    /// arms wire faults (a pair's proxy sits on the replication link
    /// instead). `gen` stirs the proxy and backoff seeds so each
    /// generation of a run draws a fresh — but replayable — schedule.
    pub fn spawn(
        srv: &Arc<ViewMapServer>,
        role: Option<Arc<RoleCell>>,
        profile: &FaultProfile,
        seed: u64,
        gen: u64,
    ) -> Result<Front, String> {
        let wire = profile.wire.filter(|_| profile.pair.is_none());
        let cfg = ServiceConfig {
            workers: profile.workers,
            idle_timeout: profile.idle_timeout,
        };
        let handle = VmService::spawn_with_role(Arc::clone(srv), "127.0.0.1:0", cfg, role)
            .map_err(|e| format!("spawn service gen {gen}: {e}"))?;
        let proxy = wire
            .map(|faults| {
                ChaosProxy::spawn(
                    handle.addr(),
                    seed ^ profile.proxy_salt ^ (gen << 48),
                    faults,
                )
            })
            .transpose()
            .map_err(|e| format!("spawn proxy gen {gen}: {e}"))?;
        let addr = proxy.as_ref().map_or(handle.addr(), |p| p.addr());
        let client = VmClient::connect_with(
            addr,
            ClientConfig {
                read_timeout: Some(Duration::from_secs(5)),
                write_timeout: Some(Duration::from_secs(5)),
                // Pin the jitter stream: the whole run replays by seed.
                backoff_seed: Some(seed ^ 0xbac0_0ff5 ^ (gen << 16)),
            },
        )
        .map_err(|e| format!("connect gen {gen}: {e}"))?;
        Ok(Front {
            client,
            _proxy: proxy,
            handle,
        })
    }

    /// The service's own address (behind any proxy), for extra sessions.
    pub fn service_addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// One durable cell living in a directory across crash/recover
/// generations: closed, open (recovered server, in-process access
/// only), or served (open plus a [`Front`]).
pub struct Cell {
    dir: PathBuf,
    seed: u64,
    profile: FaultProfile,
    /// Opens so far — the generation the next `open` starts.
    opens: u64,
    srv: Option<Arc<ViewMapServer>>,
    front: Option<Front>,
}

impl Cell {
    /// A closed cell over `dir` (nothing touches the disk until
    /// [`open`](Self::open)).
    pub fn new(dir: &Path, seed: u64, profile: &FaultProfile) -> Cell {
        Cell {
            dir: dir.to_path_buf(),
            seed,
            profile: *profile,
            opens: 0,
            srv: None,
            front: None,
        }
    }

    /// Open a fresh cell in the rig's directory and serve it.
    pub fn start(rig: &mut Rig, profile: &FaultProfile) -> Result<Cell, String> {
        let mut cell = Cell::new(rig.dir(), rig.seed, profile);
        let recovery = cell.open(rig)?;
        ensure!(
            recovery.records == 0,
            "fresh store replayed {} records",
            recovery.records
        );
        cell.serve()?;
        Ok(cell)
    }

    /// Recover the store (the real `ViewMapServer::open` path) and
    /// report what recovery found. The signing key persists beside the
    /// segments, so the RNG only matters on the first open.
    pub fn open(&mut self, rig: &mut Rig) -> Result<RecoveryReport, String> {
        let gen = self.opens;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed ^ (gen << 32));
        let (srv, recovery) = ViewMapServer::open(
            &mut rng,
            self.profile.key_bits,
            ViewmapConfig::default(),
            &self.dir,
            StoreConfig::from_env(),
        )
        .map_err(|e| format!("open generation {gen}: {e}"))?;
        rig.track_obs(srv.obs());
        self.srv = Some(Arc::new(srv));
        self.opens += 1;
        Ok(recovery)
    }

    /// Put the open server behind its front-end.
    pub fn serve(&mut self) -> Result<(), String> {
        let gen = self.opens - 1;
        self.front = Some(Front::spawn(
            self.srv(),
            None,
            &self.profile,
            self.seed,
            gen,
        )?);
        Ok(())
    }

    /// The open server.
    pub fn srv(&self) -> &Arc<ViewMapServer> {
        self.srv.as_ref().expect("cell is open")
    }

    /// The served front-end.
    pub fn front(&mut self) -> &mut Front {
        self.front.as_mut().expect("cell is served")
    }

    /// Tear the front-end down (joining the workers); the cell must
    /// then hold the only reference to its server.
    pub fn stop(&mut self) -> Result<(), String> {
        self.front = None;
        ensure!(
            Arc::strong_count(self.srv()) == 1,
            "service still holds server references"
        );
        Ok(())
    }

    /// Crash: tear everything down with no WAL sync (dropping the
    /// server releases the directory lock).
    pub fn crash(&mut self) -> Result<(), String> {
        self.stop()?;
        self.srv = None;
        Ok(())
    }

    /// Graceful shutdown: stop serving, sync the WAL, close.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.stop()?;
        self.srv()
            .sync_wal()
            .map_err(|e| format!("final sync: {e}"))?;
        self.srv = None;
        Ok(())
    }
}

/// Submit each minute's anchor in-process (the authority channel). The
/// first boot accepts them; every later generation must already hold
/// them, since tail injuries never reach frame 0.
pub fn anchor(srv: &ViewMapServer, world: &World, first_boot: bool) -> Result<(), String> {
    for (minute, vps) in &world.minutes {
        let r = srv.submit_trusted_batch(vec![vps[0].clone()])[0].map_err(ErrorCode::from);
        if first_boot {
            ensure!(r.is_ok(), "anchor of {minute:?} rejected: {r:?}");
        } else {
            ensure!(
                r == Err(ErrorCode::Duplicate),
                "anchor of {minute:?} did not survive: {r:?}"
            );
        }
    }
    Ok(())
}

// ── Ledger and settle loops ──────────────────────────────────────────

/// How a submit settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Settled {
    /// The service accepted the op on this settle.
    Accepted,
    /// The service reports the op already present (a re-drive, or a
    /// retry whose earlier attempt was accepted but its reply lost).
    Present,
}

/// The accepted-ops ledger: per world minute, the VP indices the system
/// holds beyond the anchor, in accepted order — exactly what an oracle
/// must be fed — plus the op and retry counters a report carries.
pub struct Ledger {
    accepted: Vec<Vec<usize>>,
    /// Submit outcomes are exact (see [`FaultProfile::lossless`]).
    exact: bool,
    /// Ops settled (submits + investigations).
    pub ops: usize,
    /// Failed attempts that forced a reconnect-and-retry.
    pub retries: usize,
}

impl Ledger {
    /// An empty ledger for `world` under `profile`.
    pub fn new(world: &World, profile: &FaultProfile) -> Ledger {
        Ledger {
            accepted: vec![Vec::new(); world.minutes.len()],
            exact: profile.lossless(),
            ops: 0,
            retries: 0,
        }
    }

    /// Accepted VP indices of minute `m`, in accepted order.
    pub fn accepted(&self, m: usize) -> &[usize] {
        &self.accepted[m]
    }

    /// Record an acceptance observed in-process (exact by construction).
    pub fn record(&mut self, m: usize, i: usize) {
        self.accepted[m].push(i);
        self.ops += 1;
    }

    /// Forget all but the first `keep` acceptances of minute `m` (a
    /// crash dropped the rest; an eviction dropped everything).
    pub fn truncate(&mut self, m: usize, keep: usize) {
        self.accepted[m].truncate(keep);
    }

    /// Records a clean reopen replays: every anchor plus every accepted
    /// op.
    pub fn records(&self) -> usize {
        self.accepted.iter().map(|a| 1 + a.len()).sum()
    }

    /// The accepted history in [`World::minutes`] shape: what
    /// [`vm_bench::oracle::replay`] replays.
    pub fn history(&self, world: &World) -> Vec<(MinuteId, Vec<StoredVp>)> {
        world
            .minutes
            .iter()
            .zip(&self.accepted)
            .map(|((minute, vps), accepted)| {
                let kept = std::iter::once(0).chain(accepted.iter().copied());
                (*minute, kept.map(|i| vps[i].clone()).collect())
            })
            .collect()
    }

    /// Every minute of `srv` must hold exactly the ledger's history, in
    /// accepted order.
    pub fn check_buckets(
        &self,
        srv: &ViewMapServer,
        world: &World,
        label: &str,
    ) -> Result<(), String> {
        for (minute, vps) in self.history(world) {
            let held = srv.minute_vps(minute);
            ensure!(
                held.iter().map(|vp| vp.id).eq(vps.iter().map(|vp| vp.id)),
                "{label}: {minute:?} does not hold the accepted prefix"
            );
        }
        Ok(())
    }

    /// Retry `op` through reconnects until the service answers. The
    /// inner `Err` is a remote rejection (an answer); the outer one is
    /// a wedged run.
    fn settle<T>(
        &mut self,
        client: &mut VmClient,
        what: impl Display,
        mut op: impl FnMut(&mut VmClient) -> Result<T, ClientError>,
    ) -> Result<Result<T, (ErrorCode, String)>, String> {
        for _ in 0..MAX_ATTEMPTS {
            match op(client) {
                Ok(v) => return Ok(Ok(v)),
                Err(ClientError::Remote(code, detail)) => return Ok(Err((code, detail))),
                Err(_) => {
                    self.retries += 1;
                    let _ = client.reconnect_with_backoff(5, Duration::from_millis(2));
                }
            }
        }
        Err(format!("{what} never settled"))
    }

    /// Settle the submit of world VP `(m, i)` over the wire and record
    /// it. A `Present` for a VP the ledger lacks is an earlier attempt
    /// of this op whose reply was lost — unless outcomes are exact, in
    /// which case survivors must dedup and everything else accept.
    pub fn submit(
        &mut self,
        client: &mut VmClient,
        world: &World,
        m: usize,
        i: usize,
    ) -> Result<(), String> {
        let vp = &world.minutes[m].1[i];
        let was_present = self.accepted[m].contains(&i);
        let settled = match self.settle(client, format_args!("submit of {:?}", vp.id), |c| {
            c.submit(vp)
        })? {
            Ok(()) => Settled::Accepted,
            Err((ErrorCode::Duplicate, _)) => Settled::Present,
            Err((code, detail)) => return Err(format!("unexpected rejection {code}: {detail}")),
        };
        let accepted_now = settled == Settled::Accepted;
        ensure!(
            !(accepted_now && was_present),
            "service re-accepted a stored VP ({m},{i})"
        );
        ensure!(
            !self.exact || accepted_now != was_present,
            "op ({m},{i}): settled {settled:?} but it {} present",
            if was_present { "was" } else { "was not" }
        );
        if !was_present {
            self.accepted[m].push(i);
        }
        self.ops += 1;
        Ok(())
    }

    /// Investigate every world minute over the wire and hold each
    /// answer to the oracle's.
    pub fn check_wire_investigations(
        &mut self,
        client: &mut VmClient,
        oracle: &ViewMapServer,
        world: &World,
    ) -> Result<(), String> {
        for minute in world.minute_ids() {
            let ids = self
                .settle(client, format_args!("investigation of {minute:?}"), |c| {
                    c.investigate(minute, world.site)
                })?
                .map_err(|(code, detail)| format!("investigation rejected {code}: {detail}"))?;
            ensure!(
                ids == oracle.investigate(minute, world.site),
                "wire investigation diverged at {minute:?}"
            );
            self.ops += 1;
        }
        Ok(())
    }
}

// ── Equivalence ──────────────────────────────────────────────────────

/// The value of registry counter `name` on `srv` (0 if never
/// registered) — how the rig reads the core's and a follower applier's
/// counts.
pub(crate) fn registry_counter(srv: &ViewMapServer, name: &str) -> u64 {
    srv.obs().snapshot().counter(name).unwrap_or(0)
}

/// VPs the telemetry says are resident: stored minus evicted. Ingest
/// bumps the counter after it releases the bucket locks, so a reader
/// racing a live writer (a follower's applier) can see it lag the
/// bucket briefly; it must equal `total_vps()` once ingest is quiet.
pub fn counted_vps(srv: &ViewMapServer) -> i64 {
    registry_counter(srv, "vm_core_vps_stored_total") as i64
        - registry_counter(srv, "vm_core_vps_evicted_total") as i64
}

/// Which parts of [`check_equivalence`] apply to a comparison.
#[derive(Clone, Copy, Debug)]
pub struct Assertions<'a> {
    /// Investigate every minute at this site on both sides (memoised
    /// viewmap vs the oracle's cold build, then the TrustRank outcome).
    /// `None` skips both — for runs whose own wire traffic already
    /// moved the server's solicitation board.
    pub investigate_at: Option<Site>,
    /// The exact solicitation board the server must show; `None` means
    /// "the oracle's, after the investigations this check ran itself".
    pub board: Option<&'a [VpId]>,
}

impl Assertions<'_> {
    /// Everything: investigate at `site`, boards must match.
    pub fn full(site: Site) -> Assertions<'static> {
        Assertions {
            investigate_at: Some(site),
            board: None,
        }
    }
}

/// Assert `srv` and `oracle` are observably the same system over
/// `minutes`: stored minutes, totals, bucket orders, state digest,
/// viewmap topology, TrustRank outcomes, index routing, the
/// solicitation board, and telemetry that agrees with the state it
/// describes. The error names the first property that diverged.
pub fn check_equivalence(
    srv: &ViewMapServer,
    oracle: &ViewMapServer,
    minutes: &[MinuteId],
    asserts: Assertions<'_>,
    label: &str,
) -> Result<(), String> {
    for (who, side) in [("server", srv), ("oracle", oracle)] {
        ensure!(
            side.stored_minutes() == minutes,
            "{label}: {who} minutes {:?}, expected {minutes:?}",
            side.stored_minutes()
        );
    }
    ensure!(
        srv.total_vps() == oracle.total_vps(),
        "{label}: total {} != oracle {}",
        srv.total_vps(),
        oracle.total_vps()
    );
    let bucket_ids = |side: &ViewMapServer, minute| -> Vec<VpId> {
        side.minute_vps(minute).iter().map(|vp| vp.id).collect()
    };
    for &minute in minutes {
        ensure!(
            bucket_ids(srv, minute) == bucket_ids(oracle, minute),
            "{label}: bucket order diverged at {minute:?}"
        );
    }
    ensure!(
        srv.state_digest() == oracle.state_digest(),
        "{label}: state digest diverged"
    );
    for &minute in minutes {
        if let Some(site) = asserts.investigate_at {
            ensure!(
                memo_equals_cold(srv, oracle, minute, site),
                "{label}: viewmap checksum diverged at {minute:?}"
            );
            ensure!(
                srv.investigate(minute, site) == oracle.investigate(minute, site),
                "{label}: investigation diverged at {minute:?}"
            );
        }
        for id in bucket_ids(srv, minute) {
            for (who, side) in [("server", srv), ("oracle", oracle)] {
                ensure!(
                    side.lookup_vp(id).map(|vp| vp.id) == Some(id),
                    "{label}: {who} index lost {id:?}"
                );
            }
        }
    }
    match asserts.board {
        Some(want) => ensure!(
            srv.solicitation_board() == want,
            "{label}: solicitation board {:?}, expected {want:?}",
            srv.solicitation_board()
        ),
        None => ensure!(
            srv.solicitation_board() == oracle.solicitation_board(),
            "{label}: solicitation boards diverged"
        ),
    }
    // Telemetry must agree with the state it describes — on both sides,
    // and both sides equal. Registries are recreated at every reopen
    // and replay re-counts through the same ingest path, so this
    // invariant holds across crash/recovery too.
    let counted = [counted_vps(srv), counted_vps(oracle)];
    for ((who, side), counted) in [("server", srv), ("oracle", oracle)]
        .into_iter()
        .zip(counted)
    {
        ensure!(
            counted == side.total_vps() as i64,
            "{label}: {who} counters say {counted} VPs stored and not evicted, but {} are resident",
            side.total_vps()
        );
    }
    ensure!(
        counted[0] == counted[1],
        "{label}: counter-derived VP totals diverged: server {} vs oracle {}",
        counted[0],
        counted[1]
    );
    Ok(())
}
