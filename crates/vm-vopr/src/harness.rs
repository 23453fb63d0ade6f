//! The vopr driver: one seeded run of client + service + durable server
//! under a scenario's fault mix, checked against an in-process oracle.
//!
//! # Determinism
//!
//! Everything the driver *decides* — world shape, op schedule, crash
//! points, torn-tail offsets, gray naps — is drawn from [`rand`]
//! generators derived from the run seed, so a given `(scenario, seed)`
//! always injects the same op-level fault plan. Wire-level byte timing
//! (what the kernel interleaves) is not replayable, which is why the
//! equivalence argument is *timing-independent*: the driver is one
//! synchronous client that retries each op until it settles (accepted
//! now, or already present) before issuing the next, so per-minute
//! accepted order equals issue order no matter how the wire behaves,
//! and the oracle — an in-process [`ViewMapServer`] fed exactly the
//! accepted operations — must match bit for bit.

use crate::proxy::ChaosProxy;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId, VpId};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::worlds::{cold_oracle, linked_minute, viewmap_checksum};
use vm_crypto::RsaKeyPair;
use vm_obs::Registry;
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::proto::ErrorCode;
use vm_service::{ClientConfig, ClientError, ServiceConfig, VmClient, VmService};
use vm_store::{fault, PersistentServer, StoreConfig};

/// RSA modulus width for harness servers: the smallest the crypto layer
/// accepts, because vopr measures fault tolerance, not key strength.
const KEY_BITS: usize = 64;

/// Modulus width for the replicated scenarios, whose failover check
/// runs a real blind-signature reward round across the promotion.
const REPL_KEY_BITS: usize = 512;

/// How long a convergence poll waits before declaring the follower
/// wedged. Generous: convergence is normally milliseconds, but a
/// chaotic replication link can force several backoff-spaced resyncs.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

/// Cap on attempts for one op to settle before the run is declared
/// wedged (generous: the fault rates leave each attempt likely to
/// succeed).
const MAX_ATTEMPTS: usize = 50;

macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(format!($($arg)*));
        }
    };
}

thread_local! {
    /// The most recently opened server's telemetry registry. A registry
    /// outlives its server (it is `Arc`'d), so a failing run can dump
    /// the final metrics snapshot and journal tail beside the repro
    /// line even after the server under test has been torn down.
    static LAST_OBS: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Remember `obs` as the registry a failure report should dump.
fn track_obs(obs: &Arc<Registry>) {
    LAST_OBS.with(|cell| *cell.borrow_mut() = Some(Arc::clone(obs)));
}

/// How many journal events a failure report carries.
const FAILURE_JOURNAL_TAIL: usize = 16;

/// The telemetry appendix for a failed run: the tracked registry's
/// full text snapshot plus the last few journal events. Empty when no
/// server ever opened (the failure predates any telemetry).
fn failure_telemetry() -> String {
    LAST_OBS.with(|cell| {
        let borrow = cell.borrow();
        let Some(obs) = borrow.as_ref() else {
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
    })
}

/// What one seeded run did — counters for reporting, not assertions
/// (all assertions live inside [`run_seed`] and fail the run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The seed that parameterized it.
    pub seed: u64,
    /// Crash/recover generations driven (1 = no injected crash).
    pub generations: usize,
    /// Wire ops settled (submits + investigations).
    pub ops: usize,
    /// Failed attempts that forced a reconnect-and-retry.
    pub retries: usize,
    /// Injected crashes (always `generations - 1`).
    pub crashes: usize,
    /// Torn segments recovery reported across all reopens.
    pub torn_segments: usize,
    /// Bytes recovery truncated off torn tails across all reopens.
    pub truncated_bytes: u64,
    /// VPs in the final recovered server (== the oracle's).
    pub final_vps: usize,
}

/// Expectations carried from an injury to the next generation's reopen.
#[derive(Clone, Copy, Debug, Default)]
struct InjuryExpect {
    torn_segments: usize,
    truncated_bytes: u64,
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(scenario: Scenario, seed: u64) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "vm_vopr_{}_{}_{}",
            scenario.name(),
            seed,
            std::process::id()
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

/// The investigation site every check uses: covers the whole linked
/// world (vehicles sit at `x < ~2.5 km`, `y = 10·minute`).
fn site() -> Site {
    Site {
        center: GeoPos::new(400.0, 15.0),
        radius_m: 100_000.0,
    }
}

/// Checksum of the cold oracle over `srv`'s stored bucket — what
/// `build_viewmap` (the memoised investigation path) must reproduce.
fn cold_checksum(srv: &ViewMapServer, minute: MinuteId) -> u64 {
    viewmap_checksum(&cold_oracle(srv, minute, site(), &ViewmapConfig::default()))
}

enum Settled {
    /// The service accepted the op on this settle.
    Accepted,
    /// The service reports the op already present (a re-drive, or a
    /// retry whose earlier attempt was accepted but its reply lost).
    Present,
}

fn settle_submit(
    client: &mut VmClient,
    vp: &StoredVp,
    retries: &mut usize,
) -> Result<Settled, String> {
    for _ in 0..MAX_ATTEMPTS {
        match client.submit(vp) {
            Ok(()) => return Ok(Settled::Accepted),
            Err(ClientError::Remote(ErrorCode::Duplicate, _)) => return Ok(Settled::Present),
            Err(ClientError::Remote(code, detail)) => {
                return Err(format!("unexpected rejection {code}: {detail}"))
            }
            Err(_) => {
                *retries += 1;
                let _ = client.reconnect_with_backoff(5, Duration::from_millis(2));
            }
        }
    }
    Err(format!("submit of {:?} never settled", vp.id))
}

fn settle_investigate(
    client: &mut VmClient,
    minute: MinuteId,
    retries: &mut usize,
) -> Result<Vec<VpId>, String> {
    for _ in 0..MAX_ATTEMPTS {
        match client.investigate(minute, site()) {
            Ok(ids) => return Ok(ids),
            Err(ClientError::Remote(code, detail)) => {
                return Err(format!("investigation rejected {code}: {detail}"))
            }
            Err(_) => {
                *retries += 1;
                let _ = client.reconnect_with_backoff(5, Duration::from_millis(2));
            }
        }
    }
    Err(format!("investigation of {minute:?} never settled"))
}

/// Build a fresh in-process oracle holding exactly `anchor +
/// accepted[m]` per minute, in accepted order, with trusted flags
/// preserved (replay ingest).
fn build_oracle(
    world: &[Vec<StoredVp>],
    accepted: &[Vec<usize>],
    cfg: ViewmapConfig,
) -> Result<ViewMapServer, String> {
    let mut orng = StdRng::seed_from_u64(0xACE5);
    let oracle = ViewMapServer::new(&mut orng, KEY_BITS, cfg);
    for (m, minute_world) in world.iter().enumerate() {
        let mut batch = vec![minute_world[0].clone()];
        batch.extend(accepted[m].iter().map(|&i| minute_world[i].clone()));
        let results = oracle.submit_replay_batch(batch);
        ensure!(
            results.iter().all(|r| r.is_ok()),
            "oracle replay rejected a VP in minute {m}: {results:?}"
        );
    }
    Ok(oracle)
}

/// Assert `srv` and `oracle` are observably the same system: minutes,
/// digest, bucket orders, viewmap topology, TrustRank outcomes, index
/// routing, and (after the investigations this check runs itself) the
/// solicitation board.
fn check_equivalence(
    srv: &ViewMapServer,
    oracle: &ViewMapServer,
    minutes: usize,
    label: &str,
) -> Result<(), String> {
    let want_minutes: Vec<MinuteId> = (0..minutes as u64).map(MinuteId).collect();
    ensure!(
        srv.stored_minutes() == want_minutes,
        "{label}: server minutes {:?}",
        srv.stored_minutes()
    );
    ensure!(
        oracle.stored_minutes() == want_minutes,
        "{label}: oracle minutes {:?}",
        oracle.stored_minutes()
    );
    ensure!(
        srv.state_digest() == oracle.state_digest(),
        "{label}: state digest diverged"
    );
    ensure!(
        srv.total_vps() == oracle.total_vps(),
        "{label}: total {} != oracle {}",
        srv.total_vps(),
        oracle.total_vps()
    );
    for &minute in &want_minutes {
        let s_ids: Vec<VpId> = srv.minute_vps(minute).iter().map(|vp| vp.id).collect();
        let o_ids: Vec<VpId> = oracle.minute_vps(minute).iter().map(|vp| vp.id).collect();
        ensure!(
            s_ids == o_ids,
            "{label}: bucket order diverged at {minute:?}"
        );
        ensure!(
            viewmap_checksum(&srv.build_viewmap(minute, site())) == cold_checksum(oracle, minute),
            "{label}: viewmap checksum diverged at {minute:?}"
        );
        ensure!(
            srv.investigate(minute, site()) == oracle.investigate(minute, site()),
            "{label}: investigation diverged at {minute:?}"
        );
        for id in s_ids {
            ensure!(
                srv.lookup_vp(id).map(|vp| vp.id) == Some(id),
                "{label}: server index lost {id:?}"
            );
            ensure!(
                oracle.lookup_vp(id).map(|vp| vp.id) == Some(id),
                "{label}: oracle index lost {id:?}"
            );
        }
    }
    ensure!(
        srv.solicitation_board() == oracle.solicitation_board(),
        "{label}: solicitation boards diverged"
    );
    // Telemetry must agree with the state it describes: stored minus
    // evicted VPs equals what is resident — on both sides, and both
    // sides equal. Registries are recreated at every reopen and replay
    // re-counts through the same ingest path, so this invariant holds
    // across crash/recovery too.
    let mut counted = [0i64; 2];
    for (slot, (who, side)) in [("server", srv), ("oracle", oracle)].iter().enumerate() {
        let snap = side.obs().snapshot();
        let stored = snap.counter("vm_core_vps_stored_total").unwrap_or(0) as i64;
        let evicted = snap.counter("vm_core_vps_evicted_total").unwrap_or(0) as i64;
        counted[slot] = stored - evicted;
        ensure!(
            stored - evicted == side.total_vps() as i64,
            "{label}: {who} counters say {stored} stored - {evicted} evicted, \
             but {} VPs are resident",
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

/// Crash-injure the WAL: pick a seeded minute with appended ops, drop
/// 1–2 tail frames, and (for mid-frame scenarios) leave a seeded
/// partial prefix of the first dropped frame. Bookkeeping is truncated
/// to the survivors so the next reopen can be checked *exactly*.
fn injure(
    dir: &Path,
    scenario: Scenario,
    accepted: &mut [Vec<usize>],
    present: &mut [HashSet<usize>],
    rng: &mut StdRng,
) -> Result<InjuryExpect, String> {
    let candidates: Vec<usize> = (0..accepted.len())
        .filter(|&m| !accepted[m].is_empty())
        .collect();
    let Some(&m) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
        return Ok(InjuryExpect::default()); // nothing appended yet: pure crash
    };
    let path = vm_store::segment::segment_path(dir, MinuteId(m as u64));
    let spans = fault::segment_frames(&path).map_err(|e| format!("walking {path:?}: {e}"))?;
    // Independent cross-check: appended frames must be anchor + exactly
    // the ops the driver saw accepted, before we injure anything.
    ensure!(
        spans.len() == 1 + accepted[m].len(),
        "minute {m}: segment holds {} frames, driver accepted {}",
        spans.len(),
        accepted[m].len()
    );
    let k = rng.gen_range(1..=accepted[m].len().min(2));
    let cut = spans[spans.len() - k].offset;
    let partial: u64 = if scenario.tears_mid_frame() {
        rng.gen_range(1..vm_store::FRAME_HEADER_BYTES as u64)
    } else {
        0
    };
    fault::tear_at(&path, cut + partial).map_err(|e| format!("tearing {path:?}: {e}"))?;
    accepted[m].truncate(accepted[m].len() - k);
    present[m] = accepted[m].iter().copied().collect();
    Ok(InjuryExpect {
        torn_segments: usize::from(partial > 0),
        truncated_bytes: partial,
    })
}

/// Run one `(scenario, seed)` simulation end to end. `Err` carries a
/// human-readable reason; callers prepend the scenario and seed so any
/// failure is reproducible from the message alone.
pub fn run_seed(scenario: Scenario, seed: u64) -> Result<RunReport, String> {
    let inner = if scenario.replicated() {
        run_replicated(scenario, seed)
    } else {
        run_inner(scenario, seed)
    };
    inner.map_err(|e| {
        format!(
            "[scenario={} seed={seed}] {e} — reproduce: \
             cargo run -p vm-vopr -- --scenario {} --seed {seed}{}",
            scenario.name(),
            scenario.name(),
            failure_telemetry()
        )
    })
}

fn run_inner(scenario: Scenario, seed: u64) -> Result<RunReport, String> {
    let tmp = TempDir::new(scenario, seed);
    let vmcfg = ViewmapConfig::default();
    let store_cfg = StoreConfig::default();

    // ── The seeded plan: world, schedule, generation count. ──────────
    let mut plan_rng = StdRng::seed_from_u64(seed);
    let minutes = plan_rng.gen_range(2..=3usize);
    let world: Vec<Vec<StoredVp>> = (0..minutes)
        .map(|m| linked_minute(plan_rng.gen_range(5..=9), m as u64, seed))
        .collect();
    // Round-robin interleave so crash points land across minutes.
    let mut schedule: Vec<(usize, usize)> = Vec::new();
    let widest = world.iter().map(Vec::len).max().unwrap_or(0);
    for i in 1..widest {
        for (m, minute_world) in world.iter().enumerate() {
            if i < minute_world.len() {
                schedule.push((m, i));
            }
        }
    }
    let generations = scenario.generations(&mut plan_rng);
    let mut nap_rng = StdRng::seed_from_u64(seed ^ 0x6e61_7073); // gray naps

    let mut accepted: Vec<Vec<usize>> = vec![Vec::new(); minutes];
    let mut present: Vec<HashSet<usize>> = vec![HashSet::new(); minutes];
    let mut pending = InjuryExpect::default();
    let mut report = RunReport {
        scenario,
        seed,
        generations,
        ops: 0,
        retries: 0,
        crashes: 0,
        torn_segments: 0,
        truncated_bytes: 0,
        final_vps: 0,
    };

    for gen in 0..generations {
        let last = gen + 1 == generations;
        let mut srv_rng = StdRng::seed_from_u64(seed ^ 0x5eed ^ ((gen as u64) << 32));
        let (srv, recovery) = ViewMapServer::open(&mut srv_rng, KEY_BITS, vmcfg, &tmp.0, store_cfg)
            .map_err(|e| format!("open generation {gen}: {e}"))?;
        track_obs(srv.obs());

        // ── Recovery must report exactly the injury. ─────────────────
        let want_records: usize = if gen == 0 {
            0
        } else {
            accepted.iter().map(|a| 1 + a.len()).sum()
        };
        ensure!(
            recovery.records == want_records,
            "gen {gen}: recovered {} records, expected {want_records}",
            recovery.records
        );
        ensure!(
            recovery.torn_segments == pending.torn_segments
                && recovery.truncated_bytes == pending.truncated_bytes,
            "gen {gen}: torn {}/{}B, injected {}/{}B",
            recovery.torn_segments,
            recovery.truncated_bytes,
            pending.torn_segments,
            pending.truncated_bytes
        );
        ensure!(
            recovery.rejected == 0 && recovery.quarantined == 0,
            "gen {gen}: recovery rejected {} / quarantined {}",
            recovery.rejected,
            recovery.quarantined
        );
        // The signing key persists in a keyfile beside the segments, so
        // no restart — however violent — should ever mint a fresh key.
        ensure!(
            !recovery.fresh_signing_key,
            "gen {gen}: fresh_signing_key raised despite persisted keyfile"
        );
        report.torn_segments += recovery.torn_segments;
        report.truncated_bytes += recovery.truncated_bytes;
        pending = InjuryExpect::default();

        // ── Anchors (authority surface, in-process). The first boot
        //    accepts them; every later generation must already hold
        //    them (tail injuries never reach frame 0). ────────────────
        for (m, minute_world) in world.iter().enumerate() {
            let r = srv
                .submit_trusted(minute_world[0].clone())
                .map_err(ErrorCode::from);
            if gen == 0 {
                ensure!(r.is_ok(), "gen 0: anchor {m} rejected: {r:?}");
            } else {
                ensure!(
                    r == Err(ErrorCode::Duplicate),
                    "gen {gen}: anchor {m} did not survive: {r:?}"
                );
            }
        }

        // ── Post-crash: the recovered state must equal an oracle fed
        //    the surviving accepted ops. ──────────────────────────────
        if gen > 0 {
            for (m, minute_world) in world.iter().enumerate() {
                let ids: Vec<VpId> = srv
                    .minute_vps(MinuteId(m as u64))
                    .iter()
                    .map(|vp| vp.id)
                    .collect();
                let want: Vec<VpId> = std::iter::once(minute_world[0].id)
                    .chain(accepted[m].iter().map(|&i| minute_world[i].id))
                    .collect();
                ensure!(
                    ids == want,
                    "gen {gen}: minute {m} survivors are not the accepted prefix"
                );
            }
            let oracle = build_oracle(&world, &accepted, vmcfg)?;
            if matches!(scenario, Scenario::Churn) {
                // Recovery must never trust memo state stale: a
                // reopened server starts with no viewlink memos (they
                // are in-memory state of a dead process) — checked
                // before anything investigates it — and the first
                // investigation of each minute must materialise one
                // that equals the oracle's cold build.
                for m in 0..minutes {
                    let minute = MinuteId(m as u64);
                    ensure!(
                        !srv.has_maintained(minute),
                        "gen {gen}: recovered server holds a viewlink memo for {minute:?}"
                    );
                    ensure!(
                        viewmap_checksum(&srv.build_viewmap(minute, site()))
                            == cold_checksum(&oracle, minute),
                        "gen {gen}: post-crash memoised viewmap diverged at {minute:?}"
                    );
                }
            }
            check_equivalence(&srv, &oracle, minutes, &format!("post-crash gen {gen}"))?;
        }

        // ── Serve and drive the (re-driven) op schedule. ─────────────
        let srv = Arc::new(srv);
        let handle = VmService::spawn(
            Arc::clone(&srv),
            "127.0.0.1:0",
            ServiceConfig {
                workers: 2,
                idle_timeout: matches!(scenario, Scenario::Gray).then(|| Duration::from_millis(30)),
                ..ServiceConfig::default()
            },
        )
        .map_err(|e| format!("spawn service gen {gen}: {e}"))?;
        let proxy = match scenario.wire_faults() {
            Some(faults) => Some(
                ChaosProxy::spawn(handle.addr(), seed ^ ((gen as u64) << 48), faults)
                    .map_err(|e| format!("spawn proxy gen {gen}: {e}"))?,
            ),
            None => None,
        };
        let addr = proxy.as_ref().map_or(handle.addr(), |p| p.addr());
        let mut client = VmClient::connect_with(
            addr,
            ClientConfig {
                read_timeout: Some(Duration::from_secs(5)),
                write_timeout: Some(Duration::from_secs(5)),
                // Pin the jitter stream: the whole run replays by seed.
                backoff_seed: Some(seed ^ 0xbac0_0ff5 ^ ((gen as u64) << 16)),
            },
        )
        .map_err(|e| format!("connect gen {gen}: {e}"))?;

        let ops_this_gen = if last {
            schedule.len()
        } else {
            plan_rng.gen_range(0..=schedule.len())
        };
        if matches!(scenario, Scenario::Baseline) {
            // The coalescing fast path: the whole schedule pipelined.
            let vps: Vec<StoredVp> = schedule.iter().map(|&(m, i)| world[m][i].clone()).collect();
            let outcomes = client
                .submit_pipelined(&vps)
                .map_err(|e| format!("pipelined submit: {e}"))?;
            for (&(m, i), out) in schedule.iter().zip(&outcomes) {
                ensure!(out.is_ok(), "baseline rejected ({m},{i}): {out:?}");
                accepted[m].push(i);
                present[m].insert(i);
            }
            report.ops += vps.len();
        } else {
            let faultless = scenario.wire_faults().is_none();
            for &(m, i) in &schedule[..ops_this_gen] {
                if matches!(scenario, Scenario::Gray) && nap_rng.gen_bool(0.15) {
                    // Outlast the server's idle deadline: the session is
                    // reaped and the next op must recover by reconnect.
                    std::thread::sleep(Duration::from_millis(50));
                }
                let was_present = present[m].contains(&i);
                let settled = settle_submit(&mut client, &world[m][i], &mut report.retries)?;
                if faultless {
                    // No wire faults → outcomes are exact: survivors
                    // dedup, lost ops re-accept.
                    ensure!(
                        matches!(settled, Settled::Accepted) == !was_present,
                        "op ({m},{i}): settled {} but {} present",
                        if matches!(settled, Settled::Accepted) {
                            "Accepted"
                        } else {
                            "Present"
                        },
                        if was_present { "was" } else { "was not" },
                    );
                }
                match settled {
                    Settled::Accepted => {
                        ensure!(!was_present, "service re-accepted a stored VP ({m},{i})");
                        accepted[m].push(i);
                        present[m].insert(i);
                    }
                    Settled::Present => {
                        // Already present — or accepted by an earlier
                        // attempt of THIS op whose reply was lost.
                        if !was_present {
                            accepted[m].push(i);
                            present[m].insert(i);
                        }
                    }
                }
                report.ops += 1;
                if matches!(scenario, Scenario::Churn) && report.ops.is_multiple_of(5) {
                    // Investigation racing ingest: the viewlink memo
                    // (materialised on the first probe, grown by every
                    // probe since) must equal a cold build of the same
                    // bucket at any point of the history.
                    let minute = MinuteId(m as u64);
                    ensure!(
                        viewmap_checksum(&srv.build_viewmap(minute, site()))
                            == cold_checksum(&srv, minute),
                        "mid-ingest memoised viewmap diverged at {minute:?}"
                    );
                }
            }
        }

        if !last {
            // ── Crash: tear everything down with no sync, then injure
            //    the WAL tail at seeded offsets. ───────────────────────
            drop(client);
            drop(proxy);
            drop(handle); // joins workers, releasing their Arc clones
            let srv = Arc::try_unwrap(srv)
                .map_err(|_| "service still holds server references".to_string())?;
            drop(srv); // crash: no sync_wal; Drop releases the dir lock
            pending = injure(&tmp.0, scenario, &mut accepted, &mut present, &mut plan_rng)?;
            report.crashes += 1;
            continue;
        }

        if matches!(scenario, Scenario::Churn) {
            // ── Retention sweep racing the viewlink memos: evict
            //    minute 0 (memory + WAL segment + memo in one atomic
            //    sweep), then re-drive its whole population through
            //    the wire and require the re-materialised memo to
            //    equal a cold build again. ────────────────────────────
            let evicted = srv.evict_minutes_before(MinuteId(1));
            ensure!(
                evicted == 1 + accepted[0].len(),
                "sweep evicted {evicted} VPs, expected {}",
                1 + accepted[0].len()
            );
            ensure!(
                !srv.has_maintained(MinuteId(0)),
                "viewlink memo outlived its evicted minute"
            );
            accepted[0].clear();
            present[0].clear();
            let r = srv.submit_trusted(world[0][0].clone());
            ensure!(r.is_ok(), "re-anchor after sweep rejected: {r:?}");
            for &(m, i) in schedule.iter().filter(|&&(m, _)| m == 0) {
                let was_present = present[m].contains(&i);
                let settled = settle_submit(&mut client, &world[m][i], &mut report.retries)?;
                match settled {
                    Settled::Accepted => {
                        ensure!(!was_present, "service re-accepted a stored VP ({m},{i})");
                        accepted[m].push(i);
                        present[m].insert(i);
                    }
                    Settled::Present => {
                        if !was_present {
                            accepted[m].push(i);
                            present[m].insert(i);
                        }
                    }
                }
                report.ops += 1;
            }
            ensure!(
                viewmap_checksum(&srv.build_viewmap(MinuteId(0), site()))
                    == cold_checksum(&srv, MinuteId(0)),
                "memoised viewmap diverged after evict-and-resubmit"
            );
        }

        // ── Final generation: wire investigations vs the oracle, then
        //    graceful shutdown, reopen, and full equivalence. ──────────
        let oracle = build_oracle(&world, &accepted, vmcfg)?;
        for m in 0..minutes {
            let minute = MinuteId(m as u64);
            let ids = settle_investigate(&mut client, minute, &mut report.retries)?;
            ensure!(
                ids == oracle.investigate(minute, site()),
                "wire investigation diverged at minute {m}"
            );
            report.ops += 1;
        }
        drop(client);
        drop(proxy);
        drop(handle);
        let srv = Arc::try_unwrap(srv)
            .map_err(|_| "service still holds server references".to_string())?;
        check_equivalence(&srv, &oracle, minutes, "final live")?;
        srv.sync_wal().map_err(|e| format!("final sync: {e}"))?;
        drop(srv);

        let mut final_rng = StdRng::seed_from_u64(seed ^ 0xf17a1);
        let (back, rep) = ViewMapServer::open(&mut final_rng, KEY_BITS, vmcfg, &tmp.0, store_cfg)
            .map_err(|e| format!("final reopen: {e}"))?;
        track_obs(back.obs());
        let want_records: usize = accepted.iter().map(|a| 1 + a.len()).sum();
        ensure!(
            rep.records == want_records && rep.torn_segments == 0 && rep.truncated_bytes == 0,
            "graceful reopen: {} records ({} torn, {}B truncated), expected {want_records} clean",
            rep.records,
            rep.torn_segments,
            rep.truncated_bytes
        );
        check_equivalence(&back, &oracle, minutes, "final recovered")?;
        // The full world must have landed by the end of the run.
        let want_total: usize = world.iter().map(Vec::len).sum();
        ensure!(
            back.total_vps() == want_total,
            "final server holds {} VPs, world has {want_total}",
            back.total_vps()
        );
        report.final_vps = back.total_vps();
    }

    Ok(report)
}

/// Poll `f` every couple of milliseconds until it holds or
/// [`CONVERGE_TIMEOUT`] expires.
fn wait_until(what: &str, mut f: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + CONVERGE_TIMEOUT;
    while Instant::now() < deadline {
        if f() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("timed out waiting for {what}"))
}

/// Cheap convergence probe: totals and the order-sensitive state
/// digest. The full [`check_equivalence`] runs once convergence holds.
fn converged(primary: &ViewMapServer, follower: &ViewMapServer) -> bool {
    primary.total_vps() == follower.total_vps() && primary.state_digest() == follower.state_digest()
}

/// Drive `ops` against a live server in-process, recording every
/// acceptance. The replicated scenarios put their chaos on the
/// replication link, not the submit path, so in-process acceptance is
/// exact — any rejection fails the run.
fn drive_in_process(
    srv: &ViewMapServer,
    world: &[Vec<StoredVp>],
    ops: &[(usize, usize)],
    accepted: &mut [Vec<usize>],
    report: &mut RunReport,
) -> Result<(), String> {
    for &(m, i) in ops {
        srv.submit(AnonymousSubmission {
            session_id: 0,
            vp: world[m][i].clone(),
        })
        .map_err(|e| format!("primary rejected op ({m},{i}): {e:?}"))?;
        accepted[m].push(i);
        report.ops += 1;
    }
    Ok(())
}

/// One seeded run of a replicated pair: a [`Primary`] shipping its WAL
/// to a [`Follower`], with the scenario choosing what goes wrong on the
/// replication link (chaos, a held partition, or the primary itself
/// dying and the follower being promoted). The oracle discipline is
/// `run_inner`'s: the follower must end observably identical to an
/// in-process server fed exactly the accepted operations.
fn run_replicated(scenario: Scenario, seed: u64) -> Result<RunReport, String> {
    use std::sync::atomic::Ordering;

    let tmp = TempDir::new(scenario, seed);
    let pdir = tmp.0.join("primary");
    let fdir = tmp.0.join("follower");
    let vmcfg = ViewmapConfig::default();
    let store_cfg = StoreConfig::default();

    // ── The seeded plan: same world generator as the single-cell runs.
    let mut plan_rng = StdRng::seed_from_u64(seed);
    let minutes = plan_rng.gen_range(2..=3usize);
    let world: Vec<Vec<StoredVp>> = (0..minutes)
        .map(|m| linked_minute(plan_rng.gen_range(5..=9), m as u64, seed))
        .collect();
    let mut schedule: Vec<(usize, usize)> = Vec::new();
    let widest = world.iter().map(Vec::len).max().unwrap_or(0);
    for i in 1..widest {
        for (m, minute_world) in world.iter().enumerate() {
            if i < minute_world.len() {
                schedule.push((m, i));
            }
        }
    }
    // One operator key for the whole group: promotion must inherit the
    // signing identity, or pre-failover cash dies with the primary.
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x6b65_7921);
    let key = RsaKeyPair::generate(&mut key_rng, REPL_KEY_BITS);

    let failover = matches!(scenario, Scenario::Failover);
    let mut accepted: Vec<Vec<usize>> = vec![Vec::new(); minutes];
    let mut report = RunReport {
        scenario,
        seed,
        generations: if failover { 2 } else { 1 },
        ops: 0,
        retries: 0,
        crashes: usize::from(failover),
        torn_segments: 0,
        truncated_bytes: 0,
        final_vps: 0,
    };

    let (primary, prep) = Primary::open(
        &pdir,
        key.clone(),
        vmcfg,
        store_cfg,
        ReplicationConfig {
            epoch: 1,
            // Failover needs acked to mean "on the follower": that is
            // the zero-acked-write-loss contract the crash tests.
            sync_ack: failover,
            ack_timeout: Duration::from_secs(10),
        },
        "127.0.0.1:0",
    )
    .map_err(|e| format!("open primary: {e}"))?;
    track_obs(primary.server().obs());
    ensure!(
        prep.records == 0,
        "primary store not fresh: {} records",
        prep.records
    );

    // Anchors land before the follower exists, so the very first thing
    // the stream proves is fresh-join catch-up from segment files.
    for (m, minute_world) in world.iter().enumerate() {
        let r = primary.server().submit_trusted(minute_world[0].clone());
        ensure!(r.is_ok(), "anchor {m} rejected: {r:?}");
    }

    let proxy = match scenario.wire_faults() {
        Some(faults) => Some(
            ChaosProxy::spawn(primary.repl_addr(), seed ^ 0x7265_706c, faults)
                .map_err(|e| format!("spawn repl proxy: {e}"))?,
        ),
        None => None,
    };
    let dial = proxy.as_ref().map_or(primary.repl_addr(), |p| p.addr());
    let (follower, frep) = Follower::open(
        &fdir,
        key.clone(),
        vmcfg,
        store_cfg,
        dial,
        FollowerConfig {
            epoch: 1,
            backoff_seed: seed ^ 0x00f0_1105,
            ..FollowerConfig::default()
        },
    )
    .map_err(|e| format!("open follower: {e}"))?;
    track_obs(follower.server().obs());
    ensure!(
        frep.records == 0,
        "follower store not fresh: {} records",
        frep.records
    );

    let client_cfg = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        backoff_seed: Some(seed ^ 0xbac0_0ff5),
    };

    match scenario {
        // ── Chaotic link: converge anyway, then serve fenced reads. ──
        Scenario::Replica => {
            drive_in_process(
                primary.server(),
                &world,
                &schedule,
                &mut accepted,
                &mut report,
            )?;
            wait_until("follower convergence under chaos", || {
                converged(primary.server(), follower.server())
            })?;
            let oracle = build_oracle(&world, &accepted, vmcfg)?;
            check_equivalence(follower.server(), &oracle, minutes, "converged follower")?;

            // The follower's front-end: reads serve from the replica,
            // mutations bounce with NotPrimary until a promotion that
            // never comes in this scenario.
            let handle = VmService::spawn_with_role(
                Arc::clone(follower.server()),
                "127.0.0.1:0",
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                Some(Arc::clone(follower.role())),
            )
            .map_err(|e| format!("spawn follower service: {e}"))?;
            let mut client = VmClient::connect_with(handle.addr(), client_cfg)
                .map_err(|e| format!("connect follower service: {e}"))?;
            match client.submit(&world[0][1]) {
                Err(ClientError::Remote(ErrorCode::NotPrimary, _)) => {}
                other => return Err(format!("follower accepted a mutation: {other:?}")),
            }
            report.ops += 1;
            for m in 0..minutes {
                let minute = MinuteId(m as u64);
                let ids = settle_investigate(&mut client, minute, &mut report.retries)?;
                ensure!(
                    ids == oracle.investigate(minute, site()),
                    "follower wire investigation diverged at minute {m}"
                );
                report.ops += 1;
            }
            drop(client);
            drop(handle);

            finish_replica(
                follower,
                primary,
                proxy,
                &fdir,
                &oracle,
                &accepted,
                minutes,
                vmcfg,
                store_cfg,
                &mut report,
            )
        }

        // ── Held partition: stale prefix, then full catch-up, then a
        //    replicated retention sweep over the healed link. ─────────
        Scenario::LaggingFollower => {
            let t1 = schedule.len() / 3;
            let t2 = 2 * schedule.len() / 3;
            drive_in_process(
                primary.server(),
                &world,
                &schedule[..t1],
                &mut accepted,
                &mut report,
            )?;
            wait_until("pre-partition convergence", || {
                converged(primary.server(), follower.server())
            })?;

            let valve = proxy
                .as_ref()
                .expect("lagging-follower routes replication through the valve");
            let stale_total = follower.server().total_vps();
            let stale_digest = follower.server().state_digest();
            let connects_before = follower.stats().connects.load(Ordering::Relaxed);
            // Close the valve *before* severing: the follower only
            // redials once its session dies, so every redial meets a
            // refusing listener.
            valve.set_refusing(true);
            valve.sever_all();
            wait_until("hub to notice the severed session", || {
                primary.hub().follower_count() == 0
            })?;

            drive_in_process(
                primary.server(),
                &world,
                &schedule[t1..t2],
                &mut accepted,
                &mut report,
            )?;
            // A few backoff cycles against the closed valve.
            std::thread::sleep(Duration::from_millis(60));
            ensure!(
                follower.server().total_vps() == stale_total
                    && follower.server().state_digest() == stale_digest,
                "partitioned follower moved past its stale prefix"
            );
            ensure!(
                follower.stats().connects.load(Ordering::Relaxed) == connects_before,
                "follower completed a handshake through a closed valve"
            );

            valve.set_refusing(false);
            drive_in_process(
                primary.server(),
                &world,
                &schedule[t2..],
                &mut accepted,
                &mut report,
            )?;
            wait_until("post-heal catch-up", || {
                converged(primary.server(), follower.server())
            })?;
            ensure!(
                follower.stats().resyncs.load(Ordering::Relaxed) >= 1,
                "partition healed without a single resync"
            );
            ensure!(
                follower.stats().wire_injuries.load(Ordering::Relaxed) == 0,
                "transparent link produced wire injuries"
            );
            let oracle = build_oracle(&world, &accepted, vmcfg)?;
            check_equivalence(follower.server(), &oracle, minutes, "healed follower")?;

            // Retention sweep over the live link: the eviction must
            // mirror, and re-driving the minute in its original order
            // must converge back to the same oracle.
            let evicted = primary.server().evict_minutes_before(MinuteId(1));
            ensure!(
                evicted == 1 + accepted[0].len(),
                "sweep evicted {evicted} VPs, expected {}",
                1 + accepted[0].len()
            );
            wait_until("eviction mirror", || {
                !follower.server().stored_minutes().contains(&MinuteId(0))
            })?;
            accepted[0].clear();
            let r = primary.server().submit_trusted(world[0][0].clone());
            ensure!(r.is_ok(), "re-anchor after sweep rejected: {r:?}");
            let redrive: Vec<(usize, usize)> =
                schedule.iter().copied().filter(|&(m, _)| m == 0).collect();
            drive_in_process(
                primary.server(),
                &world,
                &redrive,
                &mut accepted,
                &mut report,
            )?;
            wait_until("post-sweep convergence", || {
                converged(primary.server(), follower.server())
            })?;
            check_equivalence(follower.server(), &oracle, minutes, "post-sweep follower")?;

            finish_replica(
                follower,
                primary,
                proxy,
                &fdir,
                &oracle,
                &accepted,
                minutes,
                vmcfg,
                store_cfg,
                &mut report,
            )
        }

        // ── Crash-and-promote with synchronous acks. ─────────────────
        Scenario::Failover => {
            wait_until("follower to join", || primary.hub().follower_count() == 1)?;
            let half = schedule.len() / 2;
            drive_in_process(
                primary.server(),
                &world,
                &schedule[..half],
                &mut accepted,
                &mut report,
            )?;

            // A reward round on the doomed primary: blind-signed cash
            // that must survive the failover.
            let mut secret = [0u8; 8];
            plan_rng.fill(&mut secret);
            let vp_id = VpId::from_secret(&secret);
            primary.server().post_reward(vp_id, 2);
            let mut wallet = viewmap_core::reward::Wallet::new();
            let mut cash_rng = StdRng::seed_from_u64(seed ^ 0x0ca5_4000);
            let (pending, blinded) =
                wallet.prepare(&mut cash_rng, primary.server().public_key(), 2);
            let signed = primary
                .server()
                .issue_blind_signatures(vp_id, &secret, &blinded)
                .map_err(|e| format!("blind signing failed: {e:?}"))?;
            ensure!(
                wallet.accept_signed(primary.server().public_key(), pending, &signed) == 2,
                "wallet rejected the primary's blind signatures"
            );

            // Every shipped op — catch-up chunks included — must be
            // acked before the crash: what the primary considered
            // committed is exactly what promotion must preserve.
            let shipped = primary.hub().shipped_ops();
            wait_until("acks to drain", || primary.hub().watermark() >= shipped)?;
            ensure!(
                primary.hub().follower_count() == 1,
                "follower detached before the failover"
            );
            drop(primary); // abrupt: no sync, no handover
            drop(proxy);

            let stats = Arc::clone(follower.stats());
            let role = Arc::clone(follower.role());
            let handle = VmService::spawn_with_role(
                Arc::clone(follower.server()),
                "127.0.0.1:0",
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                Some(role),
            )
            .map_err(|e| format!("spawn follower service: {e}"))?;
            let mut client = VmClient::connect_with(handle.addr(), client_cfg)
                .map_err(|e| format!("connect follower service: {e}"))?;
            let (m0, i0) = schedule[half];
            match client.submit(&world[m0][i0]) {
                Err(ClientError::Remote(ErrorCode::NotPrimary, _)) => {}
                other => {
                    return Err(format!(
                        "pre-promotion follower accepted a mutation: {other:?}"
                    ))
                }
            }
            report.ops += 1;

            let (srv2, epoch) = follower.promote().map_err(|e| format!("promotion: {e}"))?;
            ensure!(epoch == 2, "promotion produced epoch {epoch}, expected 2");

            // Zero acked-write loss: the promoted buckets hold the
            // anchor plus every acked op, in accepted order.
            for (m, minute_world) in world.iter().enumerate() {
                let ids: Vec<VpId> = srv2
                    .minute_vps(MinuteId(m as u64))
                    .iter()
                    .map(|vp| vp.id)
                    .collect();
                let want: Vec<VpId> = std::iter::once(minute_world[0].id)
                    .chain(accepted[m].iter().map(|&i| minute_world[i].id))
                    .collect();
                ensure!(
                    ids == want,
                    "acked-write loss: promoted minute {m} diverges from the acked prefix"
                );
            }

            // The same front-end now accepts: the RoleCell flipped live
            // under it. Drive the rest of the schedule in epoch 2.
            for &(m, i) in &schedule[half..] {
                let settled = settle_submit(&mut client, &world[m][i], &mut report.retries)?;
                ensure!(
                    matches!(settled, Settled::Accepted),
                    "promoted primary deduped a new op ({m},{i})"
                );
                accepted[m].push(i);
                report.ops += 1;
            }
            let oracle = build_oracle(&world, &accepted, vmcfg)?;
            for m in 0..minutes {
                let minute = MinuteId(m as u64);
                let ids = settle_investigate(&mut client, minute, &mut report.retries)?;
                ensure!(
                    ids == oracle.investigate(minute, site()),
                    "promoted wire investigation diverged at minute {m}"
                );
                report.ops += 1;
            }
            drop(client);
            drop(handle);
            check_equivalence(&srv2, &oracle, minutes, "promoted live")?;

            // The dead primary's cash redeems exactly once on the new
            // one — the shared signing identity held across promotion.
            ensure!(
                srv2.redeem(&wallet.cash[0]).is_ok(),
                "promoted primary rejected pre-failover cash"
            );
            ensure!(
                matches!(
                    srv2.redeem(&wallet.cash[0]),
                    Err(viewmap_core::server::RedeemError::DoubleSpend)
                ),
                "promoted primary re-redeemed spent cash"
            );
            ensure!(
                srv2.redeem(&wallet.cash[1]).is_ok(),
                "promoted primary rejected the second cash unit"
            );

            report.retries += stats.resyncs.load(Ordering::Relaxed) as usize;
            srv2.sync_wal().map_err(|e| format!("promoted sync: {e}"))?;
            drop(srv2); // last reference: releases the dir lock

            let mut final_rng = StdRng::seed_from_u64(seed ^ 0x000f_17a1);
            let (back, rep) =
                ViewMapServer::open(&mut final_rng, KEY_BITS, vmcfg, &fdir, store_cfg)
                    .map_err(|e| format!("promoted reopen: {e}"))?;
            track_obs(back.obs());
            let want_records: usize = accepted.iter().map(|a| 1 + a.len()).sum();
            ensure!(
                rep.records == want_records && rep.torn_segments == 0 && rep.truncated_bytes == 0,
                "promoted reopen: {} records ({} torn, {}B truncated), expected {want_records} clean",
                rep.records,
                rep.torn_segments,
                rep.truncated_bytes
            );
            ensure!(
                !rep.fresh_signing_key,
                "promoted reopen minted a fresh key over the group keyfile"
            );
            check_equivalence(&back, &oracle, minutes, "promoted recovered")?;
            report.final_vps = back.total_vps();
            Ok(report)
        }

        _ => unreachable!("run_replicated only handles replicated scenarios"),
    }
}

/// Shared tail for the scenarios that end with the follower still a
/// follower: count its resyncs, sync and close both cells, then reopen
/// the *replica's* store cold and hold it to oracle equivalence — the
/// shipped log must recover like a local one.
#[allow(clippy::too_many_arguments)]
fn finish_replica(
    follower: Follower,
    primary: Primary,
    proxy: Option<ChaosProxy>,
    fdir: &Path,
    oracle: &ViewMapServer,
    accepted: &[Vec<usize>],
    minutes: usize,
    vmcfg: ViewmapConfig,
    store_cfg: StoreConfig,
    report: &mut RunReport,
) -> Result<RunReport, String> {
    use std::sync::atomic::Ordering;

    report.retries += follower.stats().resyncs.load(Ordering::Relaxed) as usize;
    follower
        .server()
        .sync_wal()
        .map_err(|e| format!("follower sync: {e}"))?;
    drop(follower); // joins the applier, releases the replica dir lock
    drop(primary);
    drop(proxy);

    let mut final_rng = StdRng::seed_from_u64(report.seed ^ 0x000f_17a1);
    let (back, rep) = ViewMapServer::open(&mut final_rng, KEY_BITS, vmcfg, fdir, store_cfg)
        .map_err(|e| format!("follower reopen: {e}"))?;
    track_obs(back.obs());
    let want_records: usize = accepted.iter().map(|a| 1 + a.len()).sum();
    ensure!(
        rep.records == want_records && rep.torn_segments == 0 && rep.truncated_bytes == 0,
        "follower reopen: {} records ({} torn, {}B truncated), expected {want_records} clean",
        rep.records,
        rep.torn_segments,
        rep.truncated_bytes
    );
    ensure!(
        !rep.fresh_signing_key,
        "follower reopen minted a fresh key over the group keyfile"
    );
    check_equivalence(&back, oracle, minutes, "follower recovered")?;
    report.final_vps = back.total_vps();
    Ok(report.clone())
}
