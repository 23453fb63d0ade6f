//! The city rows: one seeded run of a named workload over the real
//! wire (`VmClient` → `vm-service` → durable `ViewMapServer`), checked
//! against an in-process oracle and the telemetry snapshot.
//!
//! The cell, the ledger and the failure report are [`crate::rig`]'s,
//! the oracle [`vm_bench::oracle`]'s, and the fault choreography
//! [`crate::harness`]'s; this module keeps what is specific to the city
//! workloads — which world ([`crate::world`]) each row generates and the
//! assertion set it holds the served system to (edge blowup, linkage
//! starvation, retention exactness, the Lemma 2 bound, one-winner reward
//! races).
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

use crate::ensure;
use crate::harness::{run_world, RunReport};
use crate::rig::{anchor, check_equivalence, Assertions, Cell, FaultProfile, Ledger, Rig, World};
use crate::world::{attack_world, reward_world, sim_world, AttackSpec, AttackWorld, SimWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Duration;
use viewmap_core::attack::lemma2_bound;
use viewmap_core::reward::{Cash, Wallet};
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::trustrank;
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::viewmap::{Site, ViewmapConfig};
use vm_bench::oracle::{memo_equals_cold, replay};
use vm_service::proto::ErrorCode;
use vm_service::{ClientConfig, ClientError, VmClient};
use vm_sim::SimConfig;

/// Run `world` under `profile` through the vopr fault driver — a single
/// cell across its crash generations (one, for a fault-free profile) or
/// a replicated pair — which ingests the world over the wire and holds
/// the served *and* the recovered system to the oracle. `check` then
/// runs the workload's own assertions on the final recovered server and
/// returns the report note.
fn run_checked(
    rig: &mut Rig,
    profile: &FaultProfile,
    world: &World,
    check: impl Fn(&ViewMapServer) -> Result<String, String>,
) -> Result<RunReport, String> {
    let mut note = String::new();
    let mut plan_rng = StdRng::seed_from_u64(rig.seed);
    let run = run_world(rig, profile, world, &mut plan_rng, &mut |srv| {
        note = check(srv)?;
        Ok(())
    })?;
    Ok(RunReport { note, ..run })
}

/// The report of a single fault-free generation served by
/// [`serve_world`].
fn served_report(ledger: &Ledger, srv: &ViewMapServer, note: String) -> RunReport {
    RunReport {
        generations: 1,
        ops: ledger.ops,
        retries: ledger.retries,
        final_vps: srv.total_vps(),
        note,
        ..RunReport::default()
    }
}

/// Serve a fresh cell and ingest the whole world through it: anchors
/// in-process (authority channel), the rest over the wire in order.
/// For the workloads whose assertions need the *live* served cell.
fn serve_world(
    rig: &mut Rig,
    profile: &FaultProfile,
    world: &World,
) -> Result<(Cell, Ledger), String> {
    let mut cell = Cell::start(rig, profile)?;
    let mut ledger = Ledger::new(world, profile);
    anchor(cell.srv(), world, true)?;
    for (m, (_, vps)) in world.minutes.iter().enumerate() {
        for i in 1..vps.len() {
            ledger.submit(&mut cell.front().client, world, m, i)?;
        }
    }
    Ok((cell, ledger))
}

/// Telemetry invariant: the stored counter equals exactly what the run
/// submitted (anchors + wire ops), nothing dropped or doubled — through
/// wire chaos, and re-counted by replay after every recovery.
fn check_stored_counter(srv: &ViewMapServer, world: &World) -> Result<(), String> {
    let stored = srv.obs().snapshot().counter("vm_core_vps_stored_total");
    ensure!(
        stored == Some(world.total_vps() as u64),
        "stored counter {stored:?} != {} submitted",
        world.total_vps()
    );
    Ok(())
}

// ── rush-hour ────────────────────────────────────────────────────────

/// Dense downtown platoon: the viewmap must blow up with edges, and the
/// served system must equal the oracle.
pub(crate) fn rush_hour(rig: &mut Rig, profile: &FaultProfile) -> Result<RunReport, String> {
    let sim = sim_world(&SimConfig::rush_hour(28, 2), rig.seed);
    let world = sim.world();
    run_checked(rig, profile, &world, |srv| edge_blowup(srv, &sim, &world))
}

/// Edge blowup: every VP of the platoon is a member, and witnessing
/// density makes edges outnumber members.
fn edge_blowup(srv: &ViewMapServer, sim: &SimWorld, world: &World) -> Result<String, String> {
    let mut total_edges = 0usize;
    for (m, mw) in sim.minutes.iter().enumerate() {
        let vm = srv.build_viewmap(MinuteId(m as u64), sim.site);
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
    check_stored_counter(srv, world)?;
    Ok(format!(
        "{total_edges} edges over {} VPs",
        world.total_vps()
    ))
}

// ── rural-sparse ─────────────────────────────────────────────────────

/// A handful of vehicles on country blocks behind a degraded link:
/// linkage starves, guards carry the anonymity set, and the wire chaos
/// must not perturb the final state.
pub(crate) fn rural_sparse(rig: &mut Rig, profile: &FaultProfile) -> Result<RunReport, String> {
    let cfg = SimConfig::rural_sparse(8, 2);
    let sim = sim_world(&cfg, rig.seed);
    let world = sim.world();
    let mut report = run_checked(rig, profile, &world, |srv| {
        // Linkage starvation: sparse witnessing, and at least one
        // isolated member somewhere (no viewlink at all).
        let mut isolated = 0usize;
        for (m, mw) in sim.minutes.iter().enumerate() {
            ensure!(
                mw.mean_neighbors < 4.0,
                "minute {m}: mean neighbors {:.2} is not sparse",
                mw.mean_neighbors
            );
            let vm = srv.build_viewmap(MinuteId(m as u64), sim.site);
            isolated += (0..vm.len()).filter(|&i| vm.graph.degree(i) == 0).count();
            // Guard accounting: the population is exactly the actual
            // VPs plus the guards the sim created for this minute.
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
            sim.guard_share < 0.5,
            "guard share {:.2} exceeds plausibility for alpha=0.1",
            sim.guard_share
        );
        check_stored_counter(srv, &world)?;
        Ok(format!(
            "{isolated} isolated members, guard share {:.2}",
            sim.guard_share
        ))
    })?;
    report.note = format!("{}, {} retries", report.note, report.retries);
    Ok(report)
}

// ── retention-churn ──────────────────────────────────────────────────

/// Multi-minute ingest against progressive eviction sweeps: retention
/// is exact, viewlink memos die with their minute, and survivors keep
/// memo-vs-cold checksum equality throughout.
pub(crate) fn retention_churn(rig: &mut Rig, profile: &FaultProfile) -> Result<RunReport, String> {
    let cfg = SimConfig {
        keep_vps: true,
        ..SimConfig::small(8, 4)
    };
    let world = sim_world(&cfg, rig.seed).world();
    let minutes = world.minute_ids();
    let full = Assertions::full(world.site);
    let (mut cell, mut ledger) = serve_world(rig, profile, &world)?;

    let oracle = replay(&world.minutes)?;
    ledger.check_wire_investigations(&mut cell.front().client, &oracle, &world)?;
    let srv = cell.srv();
    check_equivalence(srv, &oracle, &minutes, full, "pre-churn")?;

    // Materialize a viewlink memo per minute so the sweeps actually
    // have live memo state to invalidate.
    for &minute in &minutes {
        ensure!(
            memo_equals_cold(srv, srv, minute, world.site),
            "memoised viewmap diverged from cold build at {minute:?}"
        );
        ensure!(
            srv.has_maintained(minute),
            "no viewlink memo materialised for {minute:?}"
        );
    }

    let mut evicted_total = 0usize;
    for cutoff in 1..minutes.len() {
        let dropped = srv.evict_minutes_before(minutes[cutoff]);
        let expect = world.minutes[cutoff - 1].1.len();
        ensure!(
            dropped == expect,
            "sweep {cutoff}: evicted {dropped} VPs, minute held {expect}"
        );
        evicted_total += dropped;
        for &minute in &minutes[..cutoff] {
            ensure!(
                !srv.has_maintained(minute),
                "viewlink memo outlived evicted {minute:?}"
            );
        }
        // Survivors: memoised and cold builds still agree, and the
        // whole system equals an oracle fed only the surviving minutes.
        let survivors = &minutes[cutoff..];
        for &minute in survivors {
            ensure!(
                memo_equals_cold(srv, srv, minute, world.site),
                "post-sweep memoised viewmap diverged at {minute:?}"
            );
        }
        // The sweep oracle replays the full history — ingest, the
        // investigations (which populate the solicitation board), and
        // the same eviction — so every observable converges, board
        // included.
        let sweep_oracle = replay(&world.minutes)?;
        for &minute in &minutes {
            sweep_oracle.investigate(minute, world.site);
        }
        let odropped = sweep_oracle.evict_minutes_before(minutes[cutoff]);
        ensure!(
            odropped == evicted_total,
            "sweep {cutoff}: oracle evicted {odropped}, server has swept {evicted_total}"
        );
        let label = format!("post-sweep {cutoff}");
        check_equivalence(srv, &sweep_oracle, survivors, full, &label)?;
    }

    // Telemetry: the eviction counter tracked every sweep exactly.
    let evicted = srv.obs().snapshot().counter("vm_core_vps_evicted_total");
    ensure!(
        evicted == Some(evicted_total as u64),
        "evicted counter {evicted:?} != {evicted_total} swept"
    );
    let note = format!(
        "{evicted_total} VPs evicted over {} sweeps",
        minutes.len() - 1
    );
    Ok(served_report(&ledger, srv, note))
}

// ── sybil-flood / forged-trajectory ──────────────────────────────────

/// Mount a Sybil attack over the wire and hold TrustRank to the paper's
/// Lemma 2: total fake trust is bounded by what flows through the
/// attackers' legitimate VPs. Everything — honest, attacker, and fake
/// VPs — is uploaded like any anonymous VP.
pub(crate) fn sybil(
    rig: &mut Rig,
    profile: &FaultProfile,
    aimed: bool,
) -> Result<RunReport, String> {
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
    let attack = attack_world(&spec, rig.seed);
    ensure!(
        !attack.attacker_ids.is_empty() && !attack.fake_ids.is_empty(),
        "attack world failed to place attackers or fakes"
    );
    run_checked(rig, profile, &attack.world(), |srv| {
        lemma2_holds(srv, &attack, aimed)
    })
}

/// The bound: build the server's own viewmap over everything, score it,
/// and hold the fakes to Lemma 2.
fn lemma2_holds(srv: &ViewMapServer, attack: &AttackWorld, aimed: bool) -> Result<String, String> {
    let vm = srv.build_viewmap(MinuteId(0), attack.wide_site);
    ensure!(
        vm.len() == attack.vps.len(),
        "wide viewmap admitted {} of {} VPs",
        vm.len(),
        attack.vps.len()
    );
    let (scores, _) =
        trustrank::trust_scores(&vm.graph, &vm.trusted, trustrank::DAMPING, 1e-10, 1000);
    let mut attackers = Vec::new();
    let mut is_fake = vec![false; vm.len()];
    for (i, vp) in vm.vps.iter().enumerate() {
        if attack.attacker_ids.contains(&vp.id) {
            attackers.push(i);
        }
        is_fake[i] = attack.fake_ids.contains(&vp.id);
    }
    ensure!(
        attackers.len() == attack.attacker_ids.len(),
        "viewmap lost attacker VPs"
    );
    // Fakes must never link to honest VPs (their Blooms cannot be
    // countersigned): verified on the engine-built adjacency.
    for i in 0..vm.len() {
        if is_fake[i] {
            for &j in vm.graph.neighbors(i) {
                let j = j as usize;
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
    let bound = lemma2_bound(&vm.graph, &scores, &attackers, &is_fake);
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
        let (v, _, _) = vm.verify_counted(&attack.site, &ViewmapConfig::default());
        let top = v.top.ok_or("forged-trajectory site is empty")?;
        ensure!(
            !is_fake[top],
            "a forged VP won the site: top {:?}",
            vm.vps[top].id
        );
    }
    Ok(format!(
        "fake trust {fake_total:.4} <= bound {bound:.4} ({} fakes, {} attackers)",
        attack.fake_ids.len(),
        attackers.len()
    ))
}

// ── redemption-storm ─────────────────────────────────────────────────

/// Race `sessions` wire clients through `session` from a common start
/// line and collect their results in session order.
fn race<T: Send>(
    addr: SocketAddr,
    sessions: usize,
    backoff_seed: u64,
    session: impl Fn(usize, VmClient) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let barrier = Barrier::new(sessions);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|t| {
                let (barrier, session) = (&barrier, &session);
                scope.spawn(move || {
                    let client = VmClient::connect_with(
                        addr,
                        ClientConfig {
                            read_timeout: Some(Duration::from_secs(10)),
                            write_timeout: Some(Duration::from_secs(10)),
                            backoff_seed: Some(backoff_seed ^ (t as u64) << 8),
                        },
                    );
                    // Everyone reaches the line, connected or not, so a
                    // failed dial cannot strand the others at it.
                    barrier.wait();
                    session(t, client.map_err(|e| format!("storm connect: {e}"))?)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "storm thread panicked".to_string())?)
            .collect()
    })
}

/// Many concurrent reward sessions racing the same board entries and
/// the same cash over the wire: exactly one blind-sign winner per VP,
/// exactly one redemption per unit, and telemetry that accounts for
/// every race loser.
pub(crate) fn redemption_storm(rig: &mut Rig, profile: &FaultProfile) -> Result<RunReport, String> {
    const UNITS: usize = 2;
    let (seed, sessions) = (rig.seed, profile.workers);
    let recordings = reward_world(5, seed);
    let world = World {
        minutes: vec![(
            MinuteId(0),
            recordings.iter().map(|rec| rec.vp.clone()).collect(),
        )],
        // Never investigated: the run's own solicitation below already
        // moves the board, so the equivalence check skips the site.
        site: Site {
            center: GeoPos::new(0.0, 0.0),
            radius_m: 1_000_000.0,
        },
    };
    let (mut cell, mut ledger) = serve_world(rig, profile, &world)?;

    // One solicited upload end to end: the vision-crate chunks must
    // validate against the VD cascade over the wire.
    let sample = &recordings[1];
    let client = &mut cell.front().client;
    client
        .solicit(sample.vp.id)
        .map_err(|e| format!("solicit: {e}"))?;
    client
        .upload_video(&VideoUpload {
            vp_id: sample.vp.id,
            chunks: sample.chunks.clone(),
        })
        .map_err(|e| format!("upload_video: {e}"))?;
    ledger.ops += 2;

    // Human review: every recording earns UNITS of cash.
    for rec in &recordings {
        cell.srv().post_reward(rec.vp.id, UNITS);
    }

    // The storm: every session races every claim.
    let addr = cell.front().service_addr();
    let srv = cell.srv();
    let pk = srv.public_key();
    let won = race(addr, sessions, seed, |t, mut client| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0ca5_4000 ^ (t as u64) << 32);
        let mut cash: Vec<Cash> = Vec::new();
        for rec in &recordings {
            let mut wallet = Wallet::new();
            let (pending, blinded) = wallet.prepare(&mut rng, pk, UNITS);
            match client.blind_sign(rec.vp.id, &rec.secret, &blinded) {
                Ok(signed) => {
                    ensure!(
                        wallet.accept_signed(pk, pending, &signed) == UNITS,
                        "wallet rejected signatures"
                    );
                    cash.append(&mut wallet.cash);
                }
                Err(ClientError::Remote(ErrorCode::NotOnBoard, _)) => {}
                Err(e) => return Err(format!("blind_sign: {e}")),
            }
        }
        Ok(cash)
    })?;
    let all_cash: Vec<Cash> = won.into_iter().flatten().collect();
    ensure!(
        all_cash.len() == recordings.len() * UNITS,
        "storm minted {} cash units, expected {} (exactly one winner per reward)",
        all_cash.len(),
        recordings.len() * UNITS
    );
    ledger.ops += recordings.len() * sessions;

    // Redemption: every session races every unit; each must clear
    // exactly once, with every loser seeing DoubleSpend.
    let redeemed = race(addr, sessions, seed ^ 0xdead, |_, mut client| {
        all_cash
            .iter()
            .map(|unit| match client.redeem(unit) {
                Ok(()) => Ok(true),
                Err(ClientError::Remote(ErrorCode::DoubleSpend, _)) => Ok(false),
                Err(e) => Err(format!("redeem: {e}")),
            })
            .collect::<Result<Vec<bool>, String>>()
    })?;
    let per_unit: Vec<usize> = (0..all_cash.len())
        .map(|u| redeemed.iter().filter(|oks| oks[u]).count())
        .collect();
    ensure!(
        per_unit.iter().all(|&n| n == 1),
        "some cash unit redeemed {per_unit:?} times (exactly once expected)"
    );
    ledger.ops += all_cash.len() * sessions;
    ensure!(
        srv.spent_cash() == all_cash.len(),
        "ledger holds {} units, {} were redeemed",
        srv.spent_cash(),
        all_cash.len()
    );

    // Telemetry: signatures, redemptions, and double-spend rejections
    // all account exactly for the storm.
    let snap = srv.obs().snapshot();
    let bounced = all_cash.len() * (sessions - 1);
    for (counter, want) in [
        ("vm_core_blind_signatures_total", all_cash.len()),
        ("vm_core_cash_redeemed_total", all_cash.len()),
        ("vm_core_cash_double_spend_total", bounced),
    ] {
        ensure!(
            snap.counter(counter) == Some(want as u64),
            "{counter} is {:?}, expected {want}",
            snap.counter(counter)
        );
    }

    // The storm must not have perturbed the stored state: equivalence
    // against an oracle fed the same ingest, modulo the solicitation
    // this run itself performed over the wire.
    let asserts = Assertions {
        investigate_at: None,
        board: Some(&[sample.vp.id]),
    };
    let oracle = replay(&world.minutes)?;
    check_equivalence(srv, &oracle, &world.minute_ids(), asserts, "storm")?;

    let note = format!(
        "{} rewards, {} cash units, {bounced} double-spends bounced",
        recordings.len(),
        all_cash.len()
    );
    Ok(served_report(&ledger, srv, note))
}
