//! The scenario driver: one seeded run of a named workload over the
//! real wire (`VmClient` → `vm-service` → durable `ViewMapServer`),
//! checked against an in-process oracle and the telemetry snapshot.
//!
//! # Determinism
//!
//! World generation is a pure function of `(scenario, seed)`; the
//! driver is a synchronous client that settles each op before issuing
//! the next, so per-minute accepted order equals issue order no matter
//! how the wire behaves (including behind the rural chaos proxy, whose
//! fault mix is degraded-but-loss-free). The oracle — an in-process
//! [`ViewMapServer`] fed exactly the accepted operations — must then
//! match the served system bit for bit.

use crate::catalog::Scenario;
use crate::world::{attack_world, reward_world, sim_world, AttackSpec, SimWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use viewmap_core::attack::lemma2_bound;
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::types::{MinuteId, VpId};
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use viewmap_core::{reward::Wallet, trustrank};
use vm_bench::worlds::{cold_oracle, viewmap_checksum};
use vm_obs::Registry;
use vm_service::proto::ErrorCode;
use vm_service::{ClientConfig, ClientError, ServiceConfig, VmClient, VmService};
use vm_sim::SimConfig;
use vm_store::{PersistentServer, StoreConfig};
use vm_vopr::{ChaosProxy, WireFaults};

/// RSA modulus width for the non-reward scenarios (smallest accepted:
/// they exercise ingest and investigation, not key strength).
const KEY_BITS: usize = 64;

/// Modulus width for `redemption-storm`, which runs real blind
/// signatures and redemptions.
const REWARD_KEY_BITS: usize = 512;

/// Cap on attempts for one op to settle before the run is wedged.
const MAX_ATTEMPTS: usize = 50;

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

thread_local! {
    /// The most recently opened server's telemetry registry, kept so a
    /// failing run can dump the final snapshot beside the repro line.
    static LAST_OBS: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

fn track_obs(obs: &Arc<Registry>) {
    LAST_OBS.with(|cell| *cell.borrow_mut() = Some(Arc::clone(obs)));
}

/// Journal events a failure report carries.
const FAILURE_JOURNAL_TAIL: usize = 16;

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

/// What one seeded run did — counters for reporting, not assertions.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The seed that parameterized it.
    pub seed: u64,
    /// Wire ops settled.
    pub ops: usize,
    /// Reconnect-and-retry cycles forced by the wire.
    pub retries: usize,
    /// VPs resident at the end of the run.
    pub final_vps: usize,
    /// Scenario-specific highlight (edges, bound, cash …).
    pub note: String,
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(scenario: Scenario, seed: u64) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "vm_scenario_{}_{}_{}",
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

enum Settled {
    Accepted,
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
    site: Site,
    retries: &mut usize,
) -> Result<Vec<VpId>, String> {
    for _ in 0..MAX_ATTEMPTS {
        match client.investigate(minute, site) {
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

/// A fresh in-process oracle holding exactly the given minutes, each
/// replayed in accepted order with trusted flags preserved.
fn build_oracle(
    minutes: &[(MinuteId, &[StoredVp])],
    key_bits: usize,
    cfg: ViewmapConfig,
) -> Result<ViewMapServer, String> {
    let mut orng = StdRng::seed_from_u64(0xACE5);
    let oracle = ViewMapServer::new(&mut orng, key_bits, cfg);
    for (minute, vps) in minutes {
        let results = oracle.submit_replay_batch(vps.to_vec());
        ensure!(
            results.iter().all(|r| r.is_ok()),
            "oracle replay rejected a VP in {minute:?}: {results:?}"
        );
    }
    Ok(oracle)
}

/// Checksum of the cold oracle over `srv`'s stored bucket — what
/// `build_viewmap` (the memoised investigation path) must reproduce.
fn cold_checksum(srv: &ViewMapServer, minute: MinuteId, site: Site) -> u64 {
    viewmap_checksum(&cold_oracle(srv, minute, site, &ViewmapConfig::default()))
}

/// Assert `srv` and `oracle` are observably the same system over the
/// given minutes, and that both systems' telemetry agrees with the
/// state it describes (stored − evicted == resident).
fn check_equivalence(
    srv: &ViewMapServer,
    oracle: &ViewMapServer,
    minutes: &[MinuteId],
    site: Site,
    label: &str,
) -> Result<(), String> {
    ensure!(
        srv.stored_minutes() == minutes,
        "{label}: server minutes {:?}, expected {minutes:?}",
        srv.stored_minutes()
    );
    ensure!(
        oracle.stored_minutes() == minutes,
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
    for &minute in minutes {
        let s_ids: Vec<VpId> = srv.minute_vps(minute).iter().map(|vp| vp.id).collect();
        let o_ids: Vec<VpId> = oracle.minute_vps(minute).iter().map(|vp| vp.id).collect();
        ensure!(
            s_ids == o_ids,
            "{label}: bucket order diverged at {minute:?}"
        );
        ensure!(
            viewmap_checksum(&srv.build_viewmap(minute, site))
                == cold_checksum(oracle, minute, site),
            "{label}: viewmap checksum diverged at {minute:?}"
        );
        ensure!(
            srv.investigate(minute, site) == oracle.investigate(minute, site),
            "{label}: investigation diverged at {minute:?}"
        );
    }
    ensure!(
        srv.solicitation_board() == oracle.solicitation_board(),
        "{label}: solicitation boards diverged"
    );
    for (who, side) in [("server", srv), ("oracle", oracle)] {
        let snap = side.obs().snapshot();
        let stored = snap.counter("vm_core_vps_stored_total").unwrap_or(0) as i64;
        let evicted = snap.counter("vm_core_vps_evicted_total").unwrap_or(0) as i64;
        ensure!(
            stored - evicted == side.total_vps() as i64,
            "{label}: {who} counters say {stored} stored - {evicted} evicted, \
             but {} VPs are resident",
            side.total_vps()
        );
    }
    Ok(())
}

/// Everything a live scenario server needs: the durable cell, its wire
/// front-end, the optional chaos proxy, and a connected client.
struct Rig {
    srv: Arc<ViewMapServer>,
    handle: vm_service::ServiceHandle,
    /// Held for its Drop (kills the proxy thread); never read.
    #[allow(dead_code)]
    proxy: Option<ChaosProxy>,
    client: VmClient,
    #[allow(dead_code)]
    tmp: TempDir,
}

fn rig(
    scenario: Scenario,
    seed: u64,
    key_bits: usize,
    faults: Option<WireFaults>,
    workers: usize,
) -> Result<Rig, String> {
    let tmp = TempDir::new(scenario, seed);
    let mut srv_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let (srv, recovery) = ViewMapServer::open(
        &mut srv_rng,
        key_bits,
        ViewmapConfig::default(),
        &tmp.0,
        StoreConfig::default(),
    )
    .map_err(|e| format!("open server: {e}"))?;
    track_obs(srv.obs());
    ensure!(
        recovery.records == 0,
        "fresh store replayed {} records",
        recovery.records
    );
    let srv = Arc::new(srv);
    let handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("spawn service: {e}"))?;
    let proxy = match faults {
        Some(f) => Some(
            ChaosProxy::spawn(handle.addr(), seed ^ 0xcafe, f)
                .map_err(|e| format!("spawn proxy: {e}"))?,
        ),
        None => None,
    };
    let addr = proxy.as_ref().map_or(handle.addr(), |p| p.addr());
    let client = VmClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            backoff_seed: Some(seed ^ 0xbac0_0ff5),
        },
    )
    .map_err(|e| format!("connect: {e}"))?;
    Ok(Rig {
        srv,
        handle,
        proxy,
        client,
        tmp,
    })
}

impl Rig {
    /// Anchor each minute in-process (authority channel), then drive
    /// the rest of the population over the wire in order.
    fn drive_world(&mut self, world: &SimWorld, report: &mut RunReport) -> Result<(), String> {
        for mw in &world.minutes {
            let r = self.srv.submit_trusted(mw.vps[0].clone());
            ensure!(r.is_ok(), "anchor rejected: {r:?}");
        }
        for mw in &world.minutes {
            for vp in &mw.vps[1..] {
                match settle_submit(&mut self.client, vp, &mut report.retries)? {
                    Settled::Accepted => {}
                    Settled::Present => {
                        return Err(format!("fresh VP {:?} reported as duplicate", vp.id))
                    }
                }
                report.ops += 1;
            }
        }
        Ok(())
    }

    /// Wire investigations vs the oracle for every listed minute.
    fn check_wire_investigations(
        &mut self,
        oracle: &ViewMapServer,
        minutes: &[MinuteId],
        site: Site,
        report: &mut RunReport,
    ) -> Result<(), String> {
        for &minute in minutes {
            let ids = settle_investigate(&mut self.client, minute, site, &mut report.retries)?;
            ensure!(
                ids == oracle.investigate(minute, site),
                "wire investigation diverged at {minute:?}"
            );
            report.ops += 1;
        }
        Ok(())
    }
}

/// Run one `(scenario, seed)` workload end to end. `Err` carries a
/// human-readable reason prefixed with a copy-pasteable repro line.
pub fn run_seed(scenario: Scenario, seed: u64) -> Result<RunReport, String> {
    let mut report = RunReport {
        scenario,
        seed,
        ops: 0,
        retries: 0,
        final_vps: 0,
        note: String::new(),
    };
    let inner = match scenario {
        Scenario::RushHour => run_rush_hour(seed, &mut report),
        Scenario::RuralSparse => run_rural_sparse(seed, &mut report),
        Scenario::RetentionChurn => run_retention_churn(seed, &mut report),
        Scenario::SybilFlood => run_sybil(seed, &mut report, false),
        Scenario::ForgedTrajectory => run_sybil(seed, &mut report, true),
        Scenario::RedemptionStorm => run_redemption_storm(seed, &mut report),
    };
    match inner {
        Ok(()) => Ok(report),
        Err(e) => Err(format!(
            "[scenario={} seed={seed}] {e} — reproduce: \
             cargo run --release -p vm-scenario -- --scenario {} --seed {seed}{}",
            scenario.name(),
            scenario.name(),
            failure_telemetry()
        )),
    }
}

/// The world population of one sim minute, `(MinuteId, vps)` pairs for
/// the oracle.
fn oracle_minutes(world: &SimWorld) -> Vec<(MinuteId, &[StoredVp])> {
    world
        .minutes
        .iter()
        .enumerate()
        .map(|(m, mw)| (MinuteId(m as u64), mw.vps.as_slice()))
        .collect()
}

fn minute_ids(world: &SimWorld) -> Vec<MinuteId> {
    (0..world.minutes.len() as u64).map(MinuteId).collect()
}

// ── rush-hour ────────────────────────────────────────────────────────

/// Dense downtown platoon: the viewmap must blow up with edges, and the
/// served system must equal the oracle.
fn run_rush_hour(seed: u64, report: &mut RunReport) -> Result<(), String> {
    let cfg = SimConfig::rush_hour(28, 2);
    let world = sim_world(&cfg, seed);
    let mut rig = rig(Scenario::RushHour, seed, KEY_BITS, None, 2)?;
    rig.drive_world(&world, report)?;

    let oracle = build_oracle(&oracle_minutes(&world), KEY_BITS, ViewmapConfig::default())?;
    let minutes = minute_ids(&world);
    rig.check_wire_investigations(&oracle, &minutes, world.site, report)?;
    check_equivalence(&rig.srv, &oracle, &minutes, world.site, "rush-hour")?;

    // Edge blowup: every VP of the platoon is a member, and witnessing
    // density makes edges outnumber members.
    let mut total_edges = 0usize;
    for (m, mw) in world.minutes.iter().enumerate() {
        let vm = rig.srv.build_viewmap(MinuteId(m as u64), world.site);
        ensure!(
            vm.len() == mw.vps.len(),
            "minute {m}: viewmap has {} members, population is {}",
            vm.len(),
            mw.vps.len()
        );
        ensure!(
            mw.mean_neighbors >= 2.0,
            "minute {m}: platoon mean neighbor count {:.2} is not dense",
            mw.mean_neighbors
        );
        ensure!(
            vm.edge_count() > vm.len(),
            "minute {m}: {} edges over {} members is no blowup",
            vm.edge_count(),
            vm.len()
        );
        total_edges += vm.edge_count();
    }

    // Telemetry invariant: the stored counter equals exactly what the
    // run submitted (anchors + wire ops), nothing dropped or doubled.
    let submitted: usize = world.minutes.iter().map(|mw| mw.vps.len()).sum();
    let snap = rig.srv.obs().snapshot();
    ensure!(
        snap.counter("vm_core_vps_stored_total") == Some(submitted as u64),
        "stored counter {:?} != {submitted} submitted",
        snap.counter("vm_core_vps_stored_total")
    );
    report.final_vps = rig.srv.total_vps();
    report.note = format!("{total_edges} edges over {submitted} VPs");
    Ok(())
}

// ── rural-sparse ─────────────────────────────────────────────────────

/// A handful of vehicles on country blocks behind a degraded link:
/// linkage starves, guards carry the anonymity set, and the wire chaos
/// must not perturb the final state.
fn run_rural_sparse(seed: u64, report: &mut RunReport) -> Result<(), String> {
    let cfg = SimConfig::rural_sparse(8, 2);
    let world = sim_world(&cfg, seed);
    let mut rig = rig(
        Scenario::RuralSparse,
        seed,
        KEY_BITS,
        Some(WireFaults::rural_link()),
        2,
    )?;
    rig.drive_world(&world, report)?;

    let oracle = build_oracle(&oracle_minutes(&world), KEY_BITS, ViewmapConfig::default())?;
    let minutes = minute_ids(&world);
    rig.check_wire_investigations(&oracle, &minutes, world.site, report)?;
    check_equivalence(&rig.srv, &oracle, &minutes, world.site, "rural-sparse")?;

    // Linkage starvation: sparse witnessing, and at least one isolated
    // member somewhere (no viewlink at all).
    let mut isolated = 0usize;
    for (m, mw) in world.minutes.iter().enumerate() {
        ensure!(
            mw.mean_neighbors < 4.0,
            "minute {m}: mean neighbors {:.2} is not sparse",
            mw.mean_neighbors
        );
        let vm = rig.srv.build_viewmap(MinuteId(m as u64), world.site);
        isolated += vm.adj.iter().filter(|nbrs| nbrs.is_empty()).count();
        // Guard accounting: the population is exactly the actual VPs
        // plus the guards the sim created for this minute.
        ensure!(
            mw.vps.len() == cfg.vehicles + mw.guards,
            "minute {m}: population {} != {} vehicles + {} guards",
            mw.vps.len(),
            cfg.vehicles,
            mw.guards
        );
    }
    ensure!(
        isolated > 0,
        "rural world has no linkage starvation (every member linked)"
    );
    // Guard share respects the α=0.1 knob: guards are a minority.
    ensure!(
        world.guard_share < 0.5,
        "guard share {:.2} exceeds plausibility for alpha=0.1",
        world.guard_share
    );
    let snap = rig.srv.obs().snapshot();
    let submitted: usize = world.minutes.iter().map(|mw| mw.vps.len()).sum();
    ensure!(
        snap.counter("vm_core_vps_stored_total") == Some(submitted as u64),
        "stored counter {:?} != {submitted} submitted through chaos",
        snap.counter("vm_core_vps_stored_total")
    );
    report.final_vps = rig.srv.total_vps();
    report.note = format!(
        "{isolated} isolated members, guard share {:.2}, {} retries",
        world.guard_share, report.retries
    );
    Ok(())
}

// ── retention-churn ──────────────────────────────────────────────────

/// Multi-minute ingest against progressive eviction sweeps: retention
/// is exact, viewlink memos die with their minute, and survivors keep
/// memo-vs-cold checksum equality throughout.
fn run_retention_churn(seed: u64, report: &mut RunReport) -> Result<(), String> {
    let minutes_total = 4usize;
    let cfg = SimConfig {
        keep_vps: true,
        ..SimConfig::small(8, minutes_total as u64)
    };
    let world = sim_world(&cfg, seed);
    let mut rig = rig(Scenario::RetentionChurn, seed, KEY_BITS, None, 2)?;
    rig.drive_world(&world, report)?;

    let oracle = build_oracle(&oracle_minutes(&world), KEY_BITS, ViewmapConfig::default())?;
    let minutes = minute_ids(&world);
    rig.check_wire_investigations(&oracle, &minutes, world.site, report)?;
    check_equivalence(&rig.srv, &oracle, &minutes, world.site, "pre-churn")?;

    // Materialize a viewlink memo per minute so the sweeps actually
    // have live memo state to invalidate.
    for &minute in &minutes {
        ensure!(
            viewmap_checksum(&rig.srv.build_viewmap(minute, world.site))
                == cold_checksum(&rig.srv, minute, world.site),
            "memoised viewmap diverged from cold build at {minute:?}"
        );
        ensure!(
            rig.srv.has_maintained(minute),
            "no viewlink memo materialised for {minute:?}"
        );
    }

    let mut evicted_total = 0usize;
    for cutoff in 1..minutes_total {
        let dropped = rig.srv.evict_minutes_before(MinuteId(cutoff as u64));
        let expect = world.minutes[cutoff - 1].vps.len();
        ensure!(
            dropped == expect,
            "sweep {cutoff}: evicted {dropped} VPs, minute held {expect}"
        );
        evicted_total += dropped;
        for m in 0..cutoff {
            ensure!(
                !rig.srv.has_maintained(MinuteId(m as u64)),
                "viewlink memo outlived evicted minute {m}"
            );
        }
        // Survivors: memoised and cold builds still agree, and the
        // whole system equals an oracle fed only the surviving minutes.
        let survivors: Vec<MinuteId> = (cutoff as u64..minutes_total as u64)
            .map(MinuteId)
            .collect();
        for &minute in &survivors {
            ensure!(
                viewmap_checksum(&rig.srv.build_viewmap(minute, world.site))
                    == cold_checksum(&rig.srv, minute, world.site),
                "post-sweep memoised viewmap diverged at {minute:?}"
            );
        }
        // The sweep oracle replays the full history — ingest, the
        // investigations (which populate the solicitation board), and
        // the same eviction — so every observable converges, board
        // included.
        let sweep_oracle =
            build_oracle(&oracle_minutes(&world), KEY_BITS, ViewmapConfig::default())?;
        for &minute in &minutes {
            sweep_oracle.investigate(minute, world.site);
        }
        let odropped = sweep_oracle.evict_minutes_before(MinuteId(cutoff as u64));
        ensure!(
            odropped == evicted_total,
            "sweep {cutoff}: oracle evicted {odropped}, server has swept {evicted_total}"
        );
        check_equivalence(
            &rig.srv,
            &sweep_oracle,
            &survivors,
            world.site,
            &format!("post-sweep {cutoff}"),
        )?;
    }

    // Telemetry: the eviction counter tracked every sweep exactly.
    let snap = rig.srv.obs().snapshot();
    ensure!(
        snap.counter("vm_core_vps_evicted_total") == Some(evicted_total as u64),
        "evicted counter {:?} != {evicted_total} swept",
        snap.counter("vm_core_vps_evicted_total")
    );
    report.final_vps = rig.srv.total_vps();
    report.note = format!(
        "{evicted_total} VPs evicted over {} sweeps",
        minutes_total - 1
    );
    Ok(())
}

// ── sybil-flood / forged-trajectory ──────────────────────────────────

/// Mount a Sybil attack over the wire and hold TrustRank to the paper's
/// Lemma 2: total fake trust is bounded by what flows through the
/// attackers' legitimate VPs.
fn run_sybil(seed: u64, report: &mut RunReport, aimed: bool) -> Result<(), String> {
    let scenario = if aimed {
        Scenario::ForgedTrajectory
    } else {
        Scenario::SybilFlood
    };
    let spec = if aimed {
        AttackSpec {
            vehicles: 24,
            n_attackers: 1,
            attacker_hops: (3, 6),
            fakes: 40,
            aim_at_site: true,
        }
    } else {
        AttackSpec {
            vehicles: 24,
            n_attackers: 3,
            attacker_hops: (2, 4),
            fakes: 36,
            aim_at_site: false,
        }
    };
    let world = attack_world(&spec, seed);
    ensure!(
        !world.attacker_ids.is_empty() && !world.fake_ids.is_empty(),
        "attack world failed to place attackers or fakes"
    );
    let mut rig = rig(scenario, seed, KEY_BITS, None, 2)?;

    // Anchor, then everything — honest, attacker, and fake VPs — over
    // the wire like any anonymous upload.
    let r = rig.srv.submit_trusted(world.vps[0].clone());
    ensure!(r.is_ok(), "anchor rejected: {r:?}");
    for vp in &world.vps[1..] {
        match settle_submit(&mut rig.client, vp, &mut report.retries)? {
            Settled::Accepted => {}
            Settled::Present => return Err(format!("fresh VP {:?} deduplicated", vp.id)),
        }
        report.ops += 1;
    }

    let minute = MinuteId(0);
    let oracle = build_oracle(
        &[(minute, world.vps.as_slice())],
        KEY_BITS,
        ViewmapConfig::default(),
    )?;
    rig.check_wire_investigations(&oracle, &[minute], world.wide_site, report)?;
    check_equivalence(
        &rig.srv,
        &oracle,
        &[minute],
        world.wide_site,
        scenario.name(),
    )?;

    // The bound: build the server's own viewmap over everything, score
    // it, and hold the fakes to Lemma 2.
    let vm = rig.srv.build_viewmap(minute, world.wide_site);
    ensure!(
        vm.len() == world.vps.len(),
        "wide viewmap admitted {} of {} VPs",
        vm.len(),
        world.vps.len()
    );
    let scores = trustrank::trust_scores(&vm.adj, &vm.trusted, trustrank::DAMPING, 1e-10);
    let mut attackers = Vec::new();
    let mut is_fake = vec![false; vm.len()];
    for (i, vp) in vm.vps.iter().enumerate() {
        if world.attacker_ids.contains(&vp.id) {
            attackers.push(i);
        }
        is_fake[i] = world.fake_ids.contains(&vp.id);
    }
    ensure!(
        attackers.len() == world.attacker_ids.len(),
        "viewmap lost attacker VPs"
    );
    // Fakes must never link to honest VPs (their Blooms cannot be
    // countersigned): verified on the engine-built adjacency.
    for (i, nbrs) in vm.adj.iter().enumerate() {
        if is_fake[i] {
            for &j in nbrs {
                ensure!(
                    is_fake[j] || attackers.contains(&j),
                    "fake VP linked to an honest VP in the served viewmap"
                );
            }
        }
    }
    let fake_total: f64 = (0..vm.len())
        .filter(|&i| is_fake[i])
        .map(|i| scores[i])
        .sum();
    let bound = lemma2_bound(&vm.adj, &scores, &attackers, &is_fake);
    ensure!(
        fake_total <= bound + 1e-9,
        "lemma 2 violated: fake trust {fake_total:.6} > bound {bound:.6}"
    );
    // Non-degeneracy: the attack must actually reach the trust flow —
    // a zero bound means the attackers were disconnected and the run
    // proved nothing.
    ensure!(
        bound > 0.0,
        "degenerate attack: lemma bound is zero (attackers unreachable from trust seeds)"
    );

    if aimed {
        // The forged trajectory runs through the site, yet the
        // top-scored site VP must remain honest.
        let (v, _) = vm.verify(&world.site, &ViewmapConfig::default());
        let top = v.top.ok_or("forged-trajectory site is empty")?;
        ensure!(
            !is_fake[top],
            "a forged VP won the site: top {:?}",
            vm.vps[top].id
        );
    }

    report.final_vps = rig.srv.total_vps();
    report.note = format!(
        "fake trust {fake_total:.4} <= bound {bound:.4} ({} fakes, {} attackers)",
        world.fake_ids.len(),
        attackers.len()
    );
    Ok(())
}

// ── redemption-storm ─────────────────────────────────────────────────

/// Many concurrent reward sessions racing the same board entries and
/// the same cash over the wire: exactly one blind-sign winner per VP,
/// exactly one redemption per unit, and telemetry that accounts for
/// every race loser.
fn run_redemption_storm(seed: u64, report: &mut RunReport) -> Result<(), String> {
    const UNITS: usize = 2;
    const SESSIONS: usize = 4;
    let recordings = reward_world(5, seed);
    let mut rig = rig(
        Scenario::RedemptionStorm,
        seed,
        REWARD_KEY_BITS,
        None,
        SESSIONS,
    )?;

    // Ingest the recordings (anchor in-process, rest over the wire).
    let r = rig.srv.submit_trusted(recordings[0].vp.clone());
    ensure!(r.is_ok(), "anchor rejected: {r:?}");
    for rec in &recordings[1..] {
        match settle_submit(&mut rig.client, &rec.vp, &mut report.retries)? {
            Settled::Accepted => {}
            Settled::Present => return Err(format!("fresh VP {:?} deduplicated", rec.vp.id)),
        }
        report.ops += 1;
    }

    // One solicited upload end to end: the vision-crate chunks must
    // validate against the VD cascade over the wire.
    let sample = &recordings[1];
    rig.client
        .solicit(sample.vp.id)
        .map_err(|e| format!("solicit: {e}"))?;
    rig.client
        .upload_video(&VideoUpload {
            vp_id: sample.vp.id,
            chunks: sample.chunks.clone(),
        })
        .map_err(|e| format!("upload_video: {e}"))?;
    report.ops += 2;

    // Human review: every recording earns UNITS of cash.
    for rec in &recordings {
        rig.srv.post_reward(rec.vp.id, UNITS);
    }

    // The storm: SESSIONS concurrent wire clients race every claim.
    let addr = rig.handle.addr();
    let pk = rig.srv.public_key().clone();
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let mut handles = Vec::new();
    for t in 0..SESSIONS {
        let barrier = Arc::clone(&barrier);
        let pk = pk.clone();
        let claims: Vec<(VpId, [u8; 8])> = recordings
            .iter()
            .map(|rec| (rec.vp.id, rec.secret))
            .collect();
        handles.push(std::thread::spawn(
            move || -> Result<(usize, Vec<viewmap_core::reward::Cash>), String> {
                let mut client = VmClient::connect_with(
                    addr,
                    ClientConfig {
                        read_timeout: Some(Duration::from_secs(10)),
                        write_timeout: Some(Duration::from_secs(10)),
                        backoff_seed: Some(seed ^ (t as u64) << 8),
                    },
                )
                .map_err(|e| format!("storm connect: {e}"))?;
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0ca5_4000 ^ (t as u64) << 32);
                let mut won = 0usize;
                let mut cash = Vec::new();
                barrier.wait();
                for (vp_id, secret) in claims {
                    let mut wallet = Wallet::new();
                    let (pending, blinded) = wallet.prepare(&mut rng, &pk, UNITS);
                    match client.blind_sign(vp_id, &secret, &blinded) {
                        Ok(signed) => {
                            if wallet.accept_signed(&pk, pending, &signed) != UNITS {
                                return Err("wallet rejected signatures".into());
                            }
                            won += 1;
                            cash.append(&mut wallet.cash);
                        }
                        Err(ClientError::Remote(ErrorCode::NotOnBoard, _)) => {}
                        Err(e) => return Err(format!("blind_sign: {e}")),
                    }
                }
                Ok((won, cash))
            },
        ));
    }
    let mut all_cash = Vec::new();
    let mut winners = 0usize;
    for h in handles {
        let (won, cash) = h
            .join()
            .map_err(|_| "storm thread panicked".to_string())?
            .map_err(|e| format!("storm session: {e}"))?;
        winners += won;
        all_cash.extend(cash);
    }
    ensure!(
        winners == recordings.len(),
        "{winners} blind-sign winners for {} rewards (exactly one each expected)",
        recordings.len()
    );
    ensure!(
        all_cash.len() == recordings.len() * UNITS,
        "storm minted {} cash units, expected {}",
        all_cash.len(),
        recordings.len() * UNITS
    );
    report.ops += recordings.len() * SESSIONS;

    // Redemption: SESSIONS clients race every unit; each must clear
    // exactly once, with every loser seeing DoubleSpend.
    let all_cash = Arc::new(all_cash);
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let mut handles = Vec::new();
    for t in 0..SESSIONS {
        let barrier = Arc::clone(&barrier);
        let cash = Arc::clone(&all_cash);
        handles.push(std::thread::spawn(move || -> Result<Vec<bool>, String> {
            let mut client = VmClient::connect_with(
                addr,
                ClientConfig {
                    read_timeout: Some(Duration::from_secs(10)),
                    write_timeout: Some(Duration::from_secs(10)),
                    backoff_seed: Some(seed ^ 0xdead ^ (t as u64) << 8),
                },
            )
            .map_err(|e| format!("redeem connect: {e}"))?;
            barrier.wait();
            let mut oks = Vec::with_capacity(cash.len());
            for c in cash.iter() {
                match client.redeem(c) {
                    Ok(()) => oks.push(true),
                    Err(ClientError::Remote(ErrorCode::DoubleSpend, _)) => oks.push(false),
                    Err(e) => return Err(format!("redeem: {e}")),
                }
            }
            Ok(oks)
        }));
    }
    let mut per_unit = vec![0usize; all_cash.len()];
    for h in handles {
        let oks = h
            .join()
            .map_err(|_| "redeem thread panicked".to_string())?
            .map_err(|e| format!("redeem session: {e}"))?;
        for (u, ok) in oks.into_iter().enumerate() {
            per_unit[u] += usize::from(ok);
        }
    }
    ensure!(
        per_unit.iter().all(|&n| n == 1),
        "some cash unit redeemed {:?} times (exactly once expected)",
        per_unit
    );
    report.ops += all_cash.len() * SESSIONS;
    ensure!(
        rig.srv.spent_cash() == all_cash.len(),
        "ledger holds {} units, {} were redeemed",
        rig.srv.spent_cash(),
        all_cash.len()
    );

    // Telemetry: signatures, redemptions, and double-spend rejections
    // all account exactly for the storm.
    let snap = rig.srv.obs().snapshot();
    ensure!(
        snap.counter("vm_core_blind_signatures_total") == Some((recordings.len() * UNITS) as u64),
        "signature counter {:?} != {}",
        snap.counter("vm_core_blind_signatures_total"),
        recordings.len() * UNITS
    );
    ensure!(
        snap.counter("vm_core_cash_redeemed_total") == Some(all_cash.len() as u64),
        "redeemed counter {:?} != {}",
        snap.counter("vm_core_cash_redeemed_total"),
        all_cash.len()
    );
    ensure!(
        snap.counter("vm_core_cash_double_spend_total")
            == Some((all_cash.len() * (SESSIONS - 1)) as u64),
        "double-spend counter {:?} != {}",
        snap.counter("vm_core_cash_double_spend_total"),
        all_cash.len() * (SESSIONS - 1)
    );

    // The storm must not have perturbed the stored state: equivalence
    // against an oracle fed the same ingest.
    let world: Vec<StoredVp> = recordings.iter().map(|r| r.vp.clone()).collect();
    let mut oracle_world = world.clone();
    oracle_world[0].trusted = true;
    let oracle = build_oracle(
        &[(MinuteId(0), oracle_world.as_slice())],
        REWARD_KEY_BITS,
        ViewmapConfig::default(),
    )?;
    check_equivalence_reward(&rig.srv, &oracle, sample.vp.id)?;

    report.final_vps = rig.srv.total_vps();
    report.note = format!(
        "{} rewards, {} cash units, {} double-spends bounced",
        recordings.len(),
        all_cash.len(),
        all_cash.len() * (SESSIONS - 1)
    );
    Ok(())
}

/// Reward-scenario equivalence: stored state identical, modulo the
/// solicitation this run itself performed over the wire.
fn check_equivalence_reward(
    srv: &ViewMapServer,
    oracle: &ViewMapServer,
    solicited: VpId,
) -> Result<(), String> {
    let minutes = [MinuteId(0)];
    ensure!(
        srv.stored_minutes() == minutes,
        "storm: server minutes {:?}",
        srv.stored_minutes()
    );
    ensure!(
        srv.state_digest() == oracle.state_digest(),
        "storm: state digest diverged"
    );
    ensure!(
        srv.total_vps() == oracle.total_vps(),
        "storm: totals diverged"
    );
    for &minute in &minutes {
        let s_ids: Vec<VpId> = srv.minute_vps(minute).iter().map(|vp| vp.id).collect();
        let o_ids: Vec<VpId> = oracle.minute_vps(minute).iter().map(|vp| vp.id).collect();
        ensure!(s_ids == o_ids, "storm: bucket order diverged at {minute:?}");
    }
    // The wire solicitation is the only board difference.
    ensure!(
        srv.solicitation_board() == vec![solicited],
        "storm: unexpected solicitation board {:?}",
        srv.solicitation_board()
    );
    for (who, side) in [("server", srv), ("oracle", oracle)] {
        let snap = side.obs().snapshot();
        let stored = snap.counter("vm_core_vps_stored_total").unwrap_or(0) as i64;
        let evicted = snap.counter("vm_core_vps_evicted_total").unwrap_or(0) as i64;
        ensure!(
            stored - evicted == side.total_vps() as i64,
            "storm: {who} telemetry disagrees with resident state"
        );
    }
    Ok(())
}
