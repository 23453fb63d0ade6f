//! The vopr harness: [`run_seed`] dispatches a catalog row to its world
//! and assertions, and [`run_world`] runs one seeded [`World`] under a
//! [`FaultProfile`]'s fault choreography, checked against an in-process
//! oracle. Everything generic — the cell life-cycle, the accepted-ops
//! ledger and the failure report — is [`crate::rig`], and the oracle is
//! [`vm_bench::oracle`]; what lives here is what only fault injection
//! needs: crash generations with torn-tail bookkeeping, and the
//! replicated pair's partition and crash-and-promote choreography.
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

use crate::city;
use crate::ensure;
use crate::proxy::ChaosProxy;
use crate::rig::{
    anchor, check_equivalence, counted_vps, registry_counter, run_reported, Assertions, Cell,
    FaultProfile, Front, Ledger, PairFault, Rig, World,
};
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId, VpId};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::oracle::{memo_equals_cold, replay};
use vm_bench::worlds::linked_minute;
use vm_crypto::RsaKeyPair;
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::proto::ErrorCode;
use vm_service::{ClientError, VmClient};
use vm_store::{fault, RecoveryReport, StoreConfig};

/// How long a convergence poll waits before declaring the follower
/// wedged. Generous: convergence is normally milliseconds, but a
/// chaotic replication link can force several backoff-spaced resyncs.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

/// What one seeded run did — counters for reporting, not assertions
/// (all assertions live inside the run and fail it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
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
    /// A city row's highlight (edges, bound, cash …); empty for fault
    /// rows.
    pub note: String,
}

/// A check the calling harness runs against the run's final recovered
/// server (the reopened cell; for a failover, the promoted follower's
/// store) once it has passed oracle equivalence.
pub type Finale<'a> = &'a mut dyn FnMut(&ViewMapServer) -> Result<(), String>;

/// Run one `(scenario, seed)` end to end: a fault row over the linked
/// world, a city row over its own world and assertions. `Err` carries
/// the repro line and telemetry (see [`run_reported`]).
pub fn run_seed(scenario: Scenario, seed: u64) -> Result<RunReport, String> {
    let profile = scenario.profile();
    run_reported(scenario.name(), seed, |rig| match scenario {
        Scenario::Baseline
        | Scenario::WireChaos
        | Scenario::TornTail
        | Scenario::CrashLoop
        | Scenario::Gray
        | Scenario::Churn
        | Scenario::Replica
        | Scenario::Failover
        | Scenario::LaggingFollower => run_linked(rig, profile),
        Scenario::RushHour | Scenario::RushHourCrashLoop => city::rush_hour(rig, profile),
        Scenario::RuralSparse => city::rural_sparse(rig, profile),
        Scenario::RetentionChurn => city::retention_churn(rig, profile),
        Scenario::SybilFlood | Scenario::SybilFloodFailover => city::sybil(rig, profile, false),
        Scenario::ForgedTrajectory => city::sybil(rig, profile, true),
        Scenario::RedemptionStorm => city::redemption_storm(rig, profile),
    })
}

/// A fault row's run: 2–3 minutes of 5–9 Bloom-linked vehicles each,
/// drawn from the run seed, under `profile`.
fn run_linked(rig: &mut Rig, profile: &FaultProfile) -> Result<RunReport, String> {
    let seed = rig.seed;
    let mut plan_rng = StdRng::seed_from_u64(seed);
    let minutes = plan_rng.gen_range(2..=3u64);
    let world = World {
        minutes: (0..minutes)
            .map(|m| {
                let vps = linked_minute(plan_rng.gen_range(5..=9), m, seed);
                (MinuteId(m), vps)
            })
            .collect(),
        // Covers the whole linked world (vehicles sit at `x < ~2.5 km`,
        // `y = 10·minute`).
        site: Site {
            center: GeoPos::new(400.0, 15.0),
            radius_m: 100_000.0,
        },
    };
    run_world(rig, profile, &world, &mut plan_rng, &mut |_| Ok(()))
}

/// Drive any `world` under `profile`: a single cell through its crash
/// generations, or a replicated pair through `profile.pair`'s fault.
/// `plan_rng` continues the caller's seeded plan (the world may have
/// been drawn from it).
pub fn run_world(
    rig: &mut Rig,
    profile: &FaultProfile,
    world: &World,
    plan_rng: &mut StdRng,
    finale: Finale<'_>,
) -> Result<RunReport, String> {
    match profile.pair {
        Some(fault) => run_pair(rig, profile, fault, world, plan_rng, finale),
        None => run_cell(rig, profile, world, plan_rng, finale),
    }
}

/// Expectations carried from an injury to the next generation's reopen
/// (the default — nothing torn — is what a graceful shutdown leaves).
#[derive(Clone, Copy, Debug, Default)]
struct Injury {
    torn_segments: usize,
    truncated_bytes: u64,
}

/// Recovery must replay exactly `records` and report exactly the
/// injury: nothing rejected or quarantined, and never a fresh signing
/// key — it persists in a keyfile beside the segments, so no restart,
/// however violent, should mint a new one.
fn check_recovery(
    rep: &RecoveryReport,
    records: usize,
    injury: Injury,
    label: &str,
) -> Result<(), String> {
    ensure!(
        rep.records == records,
        "{label}: recovered {} records, expected {records}",
        rep.records
    );
    ensure!(
        rep.torn_segments == injury.torn_segments && rep.truncated_bytes == injury.truncated_bytes,
        "{label}: torn {}/{}B, injected {}/{}B",
        rep.torn_segments,
        rep.truncated_bytes,
        injury.torn_segments,
        injury.truncated_bytes
    );
    ensure!(
        rep.rejected == 0 && rep.quarantined == 0 && !rep.fresh_signing_key,
        "{label}: recovery rejected {} / quarantined {} / fresh key {}",
        rep.rejected,
        rep.quarantined,
        rep.fresh_signing_key
    );
    Ok(())
}

/// Crash-injure the WAL: pick a seeded minute with appended ops, drop
/// 1–2 tail frames, and (for mid-frame profiles) leave a seeded partial
/// prefix of the first dropped frame. The ledger is truncated to the
/// survivors so the next reopen can be checked *exactly*.
fn injure(
    dir: &Path,
    profile: &FaultProfile,
    world: &World,
    ledger: &mut Ledger,
    rng: &mut StdRng,
) -> Result<Injury, String> {
    let candidates: Vec<usize> = (0..world.minutes.len())
        .filter(|&m| !ledger.accepted(m).is_empty())
        .collect();
    let Some(&m) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
        return Ok(Injury::default()); // nothing appended yet: pure crash
    };
    let path = vm_store::segment::segment_path(dir, world.minutes[m].0);
    let spans = fault::segment_frames(&path).map_err(|e| format!("walking {path:?}: {e}"))?;
    // Independent cross-check: appended frames must be anchor + exactly
    // the ops the driver saw accepted, before we injure anything.
    let held = ledger.accepted(m).len();
    ensure!(
        spans.len() == 1 + held,
        "minute {m}: segment holds {} frames, driver accepted {held}",
        spans.len()
    );
    let k = rng.gen_range(1..=held.min(2));
    let cut = spans[spans.len() - k].offset;
    let partial: u64 = if profile.tears_mid_frame {
        rng.gen_range(1..vm_store::FRAME_HEADER_BYTES as u64)
    } else {
        0
    };
    fault::tear_at(&path, cut + partial).map_err(|e| format!("tearing {path:?}: {e}"))?;
    ledger.truncate(m, held - k);
    Ok(Injury {
        torn_segments: usize::from(partial > 0),
        truncated_bytes: partial,
    })
}

/// Retention sweep of the world's first minute on `srv` — it must drop
/// exactly what the ledger holds — then, once `swept` confirms the
/// sweep's side effects, the minute's anchor again. The caller
/// re-drives the minute's ops.
fn sweep_first_minute(
    srv: &ViewMapServer,
    world: &World,
    ledger: &mut Ledger,
    swept: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let evicted = srv.evict_minutes_before(MinuteId(world.minutes[0].0 .0 + 1));
    let held = 1 + ledger.accepted(0).len();
    ensure!(
        evicted == held,
        "sweep evicted {evicted} VPs, expected {held}"
    );
    ledger.truncate(0, 0);
    swept()?;
    let r = srv.submit_trusted(world.minutes[0].1[0].clone());
    ensure!(r.is_ok(), "re-anchor after sweep rejected: {r:?}");
    Ok(())
}

/// One single-cell run: `profile.generations` crash/recover
/// generations, each re-driving the whole schedule, with the WAL tail
/// injured between them and recovery held to report exactly the injury.
fn run_cell(
    rig: &mut Rig,
    profile: &FaultProfile,
    world: &World,
    plan_rng: &mut StdRng,
    finale: Finale<'_>,
) -> Result<RunReport, String> {
    let minutes = world.minute_ids();
    let site = world.site;
    let same_as = |oracle: &ViewMapServer, srv: &ViewMapServer, label: &str| {
        check_equivalence(srv, oracle, &minutes, Assertions::full(site), label)
    };
    let schedule = world.round_robin();
    let generations = profile.draw_generations(plan_rng);
    let mut nap_rng = StdRng::seed_from_u64(rig.seed ^ 0x6e61_7073); // gray naps

    let mut ledger = Ledger::new(world, profile);
    let mut pending = Injury::default();
    let mut report = RunReport {
        generations,
        ..RunReport::default()
    };
    let mut cell = Cell::new(rig.dir(), rig.seed, profile);

    for gen in 0..generations {
        let last = gen + 1 == generations;
        let recovery = cell.open(rig)?;

        let want_records = if gen == 0 { 0 } else { ledger.records() };
        let injury = std::mem::take(&mut pending);
        check_recovery(&recovery, want_records, injury, &format!("gen {gen}"))?;
        report.torn_segments += recovery.torn_segments;
        report.truncated_bytes += recovery.truncated_bytes;

        anchor(cell.srv(), world, gen == 0).map_err(|e| format!("gen {gen}: {e}"))?;

        // ── Post-crash: the recovered state must equal an oracle fed
        //    the surviving accepted ops. ──────────────────────────────
        if gen > 0 {
            let label = format!("post-crash gen {gen}");
            ledger.check_buckets(cell.srv(), world, &label)?;
            let oracle = replay(&ledger.history(world))?;
            if profile.memo_churn {
                // Recovery must never trust memo state stale: a
                // reopened server starts with no viewlink memos (they
                // are in-memory state of a dead process) — checked
                // before anything investigates it — and the first
                // investigation of each minute must materialise one
                // that equals the oracle's cold build.
                for &minute in &minutes {
                    ensure!(
                        !cell.srv().has_maintained(minute),
                        "gen {gen}: recovered server holds a viewlink memo for {minute:?}"
                    );
                    ensure!(
                        memo_equals_cold(cell.srv(), &oracle, minute, site),
                        "gen {gen}: post-crash memoised viewmap diverged at {minute:?}"
                    );
                }
            }
            same_as(&oracle, cell.srv(), &label)?;
        }

        // ── Serve and drive the (re-driven) op schedule. ─────────────
        cell.serve()?;
        let ops_this_gen = if last {
            schedule.len()
        } else {
            plan_rng.gen_range(0..=schedule.len())
        };
        if profile.pipelined {
            let vps: Vec<StoredVp> = schedule
                .iter()
                .map(|&(m, i)| world.minutes[m].1[i].clone())
                .collect();
            let outcomes = cell
                .front()
                .client
                .submit_pipelined(&vps)
                .map_err(|e| format!("pipelined submit: {e}"))?;
            for (&(m, i), out) in schedule.iter().zip(&outcomes) {
                ensure!(out.is_ok(), "pipelined burst rejected ({m},{i}): {out:?}");
                ledger.record(m, i);
            }
        } else {
            for &(m, i) in &schedule[..ops_this_gen] {
                if profile.idle_timeout.is_some() && nap_rng.gen_bool(0.15) {
                    // Outlast the server's idle deadline: the session is
                    // reaped and the next op must recover by reconnect.
                    std::thread::sleep(Duration::from_millis(50));
                }
                ledger.submit(&mut cell.front().client, world, m, i)?;
                if profile.memo_churn && ledger.ops.is_multiple_of(5) {
                    // Investigation racing ingest: the viewlink memo
                    // (materialised on the first probe, grown by every
                    // probe since) must equal a cold build of the same
                    // bucket at any point of the history.
                    let minute = minutes[m];
                    ensure!(
                        memo_equals_cold(cell.srv(), cell.srv(), minute, site),
                        "mid-ingest memoised viewmap diverged at {minute:?}"
                    );
                }
            }
        }

        if !last {
            // ── Crash: tear everything down with no sync, then injure
            //    the WAL tail at seeded offsets. ───────────────────────
            cell.crash()?;
            pending = injure(rig.dir(), profile, world, &mut ledger, plan_rng)?;
            report.crashes += 1;
            continue;
        }

        if profile.memo_churn {
            // ── Retention sweep racing the viewlink memos: evict the
            //    first minute (memory + WAL segment + memo in one
            //    atomic sweep), then re-drive its whole population
            //    through the wire and require the re-materialised memo
            //    to equal a cold build again. ─────────────────────────
            sweep_first_minute(cell.srv(), world, &mut ledger, || {
                ensure!(
                    !cell.srv().has_maintained(minutes[0]),
                    "viewlink memo outlived its evicted minute"
                );
                Ok(())
            })?;
            for &(m, i) in schedule.iter().filter(|&&(m, _)| m == 0) {
                ledger.submit(&mut cell.front().client, world, m, i)?;
            }
            ensure!(
                memo_equals_cold(cell.srv(), cell.srv(), minutes[0], site),
                "memoised viewmap diverged after evict-and-resubmit"
            );
        }

        // ── Final generation: wire investigations vs the oracle, then
        //    graceful shutdown, reopen, and full equivalence. ──────────
        let oracle = replay(&ledger.history(world))?;
        ledger.check_wire_investigations(&mut cell.front().client, &oracle, world)?;
        cell.stop()?;
        same_as(&oracle, cell.srv(), "final live")?;
        cell.shutdown()?;

        let rep = cell.open(rig)?;
        check_recovery(&rep, ledger.records(), Injury::default(), "graceful reopen")?;
        same_as(&oracle, cell.srv(), "final recovered")?;
        // The full world must have landed by the end of the run.
        report.final_vps = cell.srv().total_vps();
        ensure!(
            report.final_vps == world.total_vps(),
            "final server holds {} VPs, world has {}",
            report.final_vps,
            world.total_vps()
        );
        finale(cell.srv())?;
    }

    report.ops = ledger.ops;
    report.retries = ledger.retries;
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

/// Wait for the cheap convergence probe — totals and the
/// order-sensitive state digest — to hold between the pair, and for the
/// follower's applier to have finished counting what it stored (the
/// counters trail the buckets by a few instructions; checking them
/// mid-apply failed about one replicated run in 4,500). The full
/// [`check_equivalence`] runs once it does.
fn wait_converged(what: &str, primary: &Primary, follower: &Follower) -> Result<(), String> {
    let (p, f) = (primary.server(), follower.server());
    wait_until(what, || {
        p.total_vps() == f.total_vps()
            && p.state_digest() == f.state_digest()
            && counted_vps(f) == f.total_vps() as i64
    })
}

/// Drive `ops` against a live server in-process, recording every
/// acceptance. The replicated profiles put their chaos on the
/// replication link, not the submit path, so in-process acceptance is
/// exact — any rejection fails the run.
fn drive_in_process(
    srv: &ViewMapServer,
    world: &World,
    ops: &[(usize, usize)],
    ledger: &mut Ledger,
) -> Result<(), String> {
    for &(m, i) in ops {
        srv.submit(AnonymousSubmission {
            session_id: 0,
            vp: world.minutes[m].1[i].clone(),
        })
        .map_err(|e| format!("primary rejected op ({m},{i}): {e:?}"))?;
        ledger.record(m, i);
    }
    Ok(())
}

/// A fenced replica front-end must bounce a mutation with `NotPrimary`.
fn expect_not_primary(
    client: &mut VmClient,
    vp: &StoredVp,
    ledger: &mut Ledger,
) -> Result<(), String> {
    match client.submit(vp) {
        Err(ClientError::Remote(ErrorCode::NotPrimary, _)) => {}
        other => return Err(format!("follower accepted a mutation: {other:?}")),
    }
    ledger.ops += 1;
    Ok(())
}

/// End a run whose follower is still a follower: sync and close both
/// cells (the follower first: joining its applier releases the replica
/// directory lock). Returns the resyncs the follower went through.
fn close_pair(
    follower: Follower,
    primary: Primary,
    proxy: Option<ChaosProxy>,
) -> Result<usize, String> {
    let resyncs = registry_counter(follower.server(), "vm_repl_resyncs_total") as usize;
    follower
        .server()
        .sync_wal()
        .map_err(|e| format!("follower sync: {e}"))?;
    drop(follower);
    drop(primary);
    drop(proxy);
    Ok(resyncs)
}

/// One seeded run of a replicated pair: a [`Primary`] shipping its WAL
/// to a [`Follower`], with `fault` choosing what goes wrong on the
/// replication link (chaos, a held partition, or the primary itself
/// dying and the follower being promoted). The oracle discipline is
/// `run_cell`'s: the replica must end observably identical to an
/// in-process server fed exactly the accepted operations, live and
/// again after its store is reopened cold — the shipped log must
/// recover like a local one.
fn run_pair(
    rig: &mut Rig,
    profile: &FaultProfile,
    fault: PairFault,
    world: &World,
    plan_rng: &mut StdRng,
    finale: Finale<'_>,
) -> Result<RunReport, String> {
    let seed = rig.seed;
    let (pdir, fdir) = (rig.dir().join("primary"), rig.dir().join("follower"));
    let (vmcfg, store_cfg) = (ViewmapConfig::default(), StoreConfig::default());
    let minutes = world.minute_ids();
    let same_as = |oracle: &ViewMapServer, srv: &ViewMapServer, label: &str| {
        check_equivalence(srv, oracle, &minutes, Assertions::full(world.site), label)
    };
    let schedule = world.round_robin();
    // One operator key for the whole group: promotion must inherit the
    // signing identity, or pre-failover cash dies with the primary.
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x6b65_7921);
    let key = RsaKeyPair::generate(&mut key_rng, profile.key_bits);

    let failover = fault == PairFault::Failover;
    let mut ledger = Ledger::new(world, profile);
    let mut report = RunReport {
        generations: 1 + usize::from(failover),
        crashes: usize::from(failover),
        ..RunReport::default()
    };

    let repl_cfg = ReplicationConfig {
        epoch: 1,
        // Failover needs acked to mean "on the follower": that is the
        // zero-acked-write-loss contract the crash tests.
        sync_ack: failover,
        ack_timeout: Duration::from_secs(10),
    };
    let (primary, prep) = Primary::open(
        &pdir,
        key.clone(),
        vmcfg,
        store_cfg,
        repl_cfg,
        "127.0.0.1:0",
    )
    .map_err(|e| format!("open primary: {e}"))?;
    rig.track_obs(primary.server().obs());
    ensure!(
        prep.records == 0,
        "primary store not fresh: {} records",
        prep.records
    );
    // Anchors land before the follower exists, so the very first thing
    // the stream proves is fresh-join catch-up from segment files.
    anchor(primary.server(), world, true)?;

    let proxy = profile
        .wire
        .map(|faults| ChaosProxy::spawn(primary.repl_addr(), seed ^ profile.proxy_salt, faults))
        .transpose()
        .map_err(|e| format!("spawn repl proxy: {e}"))?;
    let dial = proxy.as_ref().map_or(primary.repl_addr(), |p| p.addr());
    let follower_cfg = FollowerConfig {
        epoch: 1,
        backoff_seed: seed ^ 0x00f0_1105,
    };
    let (follower, frep) = Follower::open(&fdir, key, vmcfg, store_cfg, dial, follower_cfg)
        .map_err(|e| format!("open follower: {e}"))?;
    rig.track_obs(follower.server().obs());
    ensure!(
        frep.records == 0,
        "follower store not fresh: {} records",
        frep.records
    );
    // The follower's front-end: reads serve from the replica, mutations
    // bounce with NotPrimary until a promotion flips the RoleCell.
    let serve_follower = |follower: &Follower| {
        let role = Some(Arc::clone(follower.role()));
        Front::spawn(follower.server(), role, profile, seed, 0)
    };

    let (oracle, resyncs) = match fault {
        // ── Chaotic link: converge anyway, then serve fenced reads. ──
        PairFault::ChaoticLink => {
            drive_in_process(primary.server(), world, &schedule, &mut ledger)?;
            wait_converged("follower convergence under chaos", &primary, &follower)?;
            let oracle = replay(&ledger.history(world))?;
            same_as(&oracle, follower.server(), "converged follower")?;
            let mut front = serve_follower(&follower)?;
            expect_not_primary(&mut front.client, &world.minutes[0].1[1], &mut ledger)?;
            ledger.check_wire_investigations(&mut front.client, &oracle, world)?;
            drop(front);
            (oracle, close_pair(follower, primary, proxy)?)
        }

        // ── Held partition: stale prefix, then full catch-up, then a
        //    replicated retention sweep over the healed link. ─────────
        PairFault::Partition => {
            let (t1, t2) = (schedule.len() / 3, 2 * schedule.len() / 3);
            drive_in_process(primary.server(), world, &schedule[..t1], &mut ledger)?;
            wait_converged("pre-partition convergence", &primary, &follower)?;

            let valve = proxy
                .as_ref()
                .ok_or("a partition needs the replication link routed through a valve")?;
            let stale_total = follower.server().total_vps();
            let stale_digest = follower.server().state_digest();
            let connects = || registry_counter(follower.server(), "vm_repl_connects_total");
            let connects_before = connects();
            // Close the valve *before* severing: the follower only
            // redials once its session dies, so every redial meets a
            // refusing listener.
            valve.set_refusing(true);
            valve.sever_all();
            wait_until("hub to notice the severed session", || {
                primary.hub().follower_count() == 0
            })?;

            drive_in_process(primary.server(), world, &schedule[t1..t2], &mut ledger)?;
            // A few backoff cycles against the closed valve.
            std::thread::sleep(Duration::from_millis(60));
            ensure!(
                follower.server().total_vps() == stale_total
                    && follower.server().state_digest() == stale_digest,
                "partitioned follower moved past its stale prefix"
            );
            ensure!(
                connects() == connects_before,
                "follower completed a handshake through a closed valve"
            );

            valve.set_refusing(false);
            drive_in_process(primary.server(), world, &schedule[t2..], &mut ledger)?;
            wait_converged("post-heal catch-up", &primary, &follower)?;
            ensure!(
                registry_counter(follower.server(), "vm_repl_resyncs_total") >= 1,
                "partition healed without a single resync"
            );
            ensure!(
                registry_counter(follower.server(), "vm_repl_wire_injuries_total") == 0,
                "transparent link produced wire injuries"
            );
            let oracle = replay(&ledger.history(world))?;
            same_as(&oracle, follower.server(), "healed follower")?;

            // Retention sweep over the live link: the eviction must
            // mirror, and re-driving the minute in its original order
            // must converge back to the same oracle.
            sweep_first_minute(primary.server(), world, &mut ledger, || {
                wait_until("eviction mirror", || {
                    !follower.server().stored_minutes().contains(&minutes[0])
                })
            })?;
            let redrive: Vec<(usize, usize)> =
                schedule.iter().copied().filter(|&(m, _)| m == 0).collect();
            drive_in_process(primary.server(), world, &redrive, &mut ledger)?;
            wait_converged("post-sweep convergence", &primary, &follower)?;
            same_as(&oracle, follower.server(), "post-sweep follower")?;
            (oracle, close_pair(follower, primary, proxy)?)
        }

        // ── Crash-and-promote with synchronous acks. ─────────────────
        PairFault::Failover => {
            wait_until("follower to join", || primary.hub().follower_count() == 1)?;
            let half = schedule.len() / 2;
            drive_in_process(primary.server(), world, &schedule[..half], &mut ledger)?;

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

            let mut front = serve_follower(&follower)?;
            let (m0, i0) = schedule[half];
            expect_not_primary(&mut front.client, &world.minutes[m0].1[i0], &mut ledger)?;

            let (srv2, epoch) = follower.promote().map_err(|e| format!("promotion: {e}"))?;
            ensure!(epoch == 2, "promotion produced epoch {epoch}, expected 2");
            // Zero acked-write loss: the promoted buckets hold the
            // anchor plus every acked op, in accepted order.
            ledger.check_buckets(&srv2, world, "acked-write loss after promotion")?;

            // The same front-end now accepts: the RoleCell flipped live
            // under it. Drive the rest of the schedule in epoch 2 (the
            // link is clean, so every op must be accepted, not deduped).
            for &(m, i) in &schedule[half..] {
                ledger.submit(&mut front.client, world, m, i)?;
            }
            let oracle = replay(&ledger.history(world))?;
            ledger.check_wire_investigations(&mut front.client, &oracle, world)?;
            drop(front);
            same_as(&oracle, &srv2, "promoted live")?;

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
            srv2.sync_wal().map_err(|e| format!("promoted sync: {e}"))?;
            // The promoted server is the replica's, registry included.
            let resyncs = registry_counter(&srv2, "vm_repl_resyncs_total") as usize;
            drop(srv2); // last reference: releases the dir lock
            (oracle, resyncs)
        }
    };

    let mut back = Cell::new(&fdir, seed, profile);
    let rep = back.open(rig)?;
    check_recovery(&rep, ledger.records(), Injury::default(), "replica reopen")?;
    same_as(&oracle, back.srv(), "replica recovered")?;
    finale(back.srv())?;
    report.final_vps = back.srv().total_vps();
    report.ops = ledger.ops;
    report.retries = ledger.retries + resyncs;
    Ok(report)
}
