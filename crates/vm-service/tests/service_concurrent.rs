//! End-to-end service suite: a `ViewMapServer` recovered from a
//! `vm-store` append log serves 8 concurrent `VmClient` sessions over
//! loopback, and every observable outcome — per-submit accept/reject,
//! bucket contents, investigation results, the reward round — equals
//! what direct in-process calls produce on a single-threaded oracle
//! server fed the same operations.
//!
//! Determinism setup: each client owns one minute, so per-minute bucket
//! order is each client's own pipelined order regardless of how the 8
//! sessions interleave — which is what lets the oracle comparison be
//! exact (ids, order, and investigation output), not merely set-based.
//! A separate case hammers one *shared* minute from all 8 clients and
//! checks the order-independent invariants (accept counts, membership,
//! index routing).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::{StoredVp, VpBuilder, VpKind};
use vm_bench::worlds::synthetic_vp;
use vm_service::proto::ErrorCode;
use vm_service::{ServiceConfig, VmClient, VmService};
use vm_store::{PersistentServer, StoreConfig};

const CLIENTS: usize = 8;
const VPS_PER_CLIENT: u64 = 30;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("vm_service_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A genuine VP with a real cascade (so video upload validates) plus
/// its 60 one-second chunks, recorded inside `minute`.
fn genuine_vp(seed: u64, minute: u64) -> (viewmap_core::vp::FinalizedMinute, Vec<Vec<u8>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let start = minute * SECONDS_PER_VP;
    let mut b = VpBuilder::new(
        &mut rng,
        start,
        GeoPos::new(0.0, seed as f64),
        VpKind::Actual,
    );
    let chunks: Vec<Vec<u8>> = (0..SECONDS_PER_VP)
        .map(|i| (0..64).map(|j| ((seed + i * 3 + j) % 251) as u8).collect())
        .collect();
    for (i, c) in chunks.iter().enumerate() {
        b.record_second(c, GeoPos::new(i as f64 * 8.0, seed as f64));
    }
    (b.finalize(), chunks)
}

fn site() -> Site {
    Site {
        center: GeoPos::new(200.0, 0.0),
        radius_m: 400.0,
    }
}

fn submission(vp: StoredVp) -> AnonymousSubmission {
    AnonymousSubmission { session_id: 0, vp }
}

/// The per-client workload at its own minute: a trusted anchor is
/// seeded by the authority (generation 1); the client then pipelines
/// `VPS_PER_CLIENT` ordinary VPs, one duplicate, and one malformed VP.
fn client_vps(client: usize) -> Vec<StoredVp> {
    let minute = client as u64;
    let base = 1_000 + client as u64 * 10_000;
    let mut vps: Vec<StoredVp> = (0..VPS_PER_CLIENT)
        .map(|t| synthetic_vp(base + t, minute))
        .collect();
    vps.push(synthetic_vp(base, minute)); // duplicate of the first
    let mut malformed = synthetic_vp(base + 9_999, minute);
    malformed.vds.truncate(10);
    vps.push(malformed);
    vps
}

fn expected_outcomes() -> Vec<Result<(), ErrorCode>> {
    let mut expect: Vec<Result<(), ErrorCode>> = (0..VPS_PER_CLIENT).map(|_| Ok(())).collect();
    expect.push(Err(ErrorCode::Duplicate));
    expect.push(Err(ErrorCode::MalformedVds));
    expect
}

#[test]
fn recovered_server_serves_eight_concurrent_sessions_like_the_oracle() {
    let tmp = TempDir::new("concurrent");
    let store_cfg = StoreConfig::default();
    let vmcfg = ViewmapConfig::default();

    // ── Generation 1: seed trusted anchors + a genuine VP per minute,
    //    durably, then shut down. ──────────────────────────────────────
    let genuine: Vec<(viewmap_core::vp::FinalizedMinute, Vec<Vec<u8>>)> = (0..CLIENTS)
        .map(|c| genuine_vp(500 + c as u64, c as u64))
        .collect();
    {
        let mut rng = StdRng::seed_from_u64(1);
        let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, store_cfg).unwrap();
        assert!(report.warnings().is_empty(), "first boot: no warnings");
        for (c, (fin, _)) in genuine.iter().enumerate() {
            let mut anchor = synthetic_vp(c as u64, c as u64);
            anchor.trusted = true;
            srv.submit_trusted(anchor).unwrap();
            srv.submit(submission(fin.profile.clone().into_stored()))
                .unwrap();
        }
        srv.sync_wal().unwrap();
    }

    // ── Generation 2: recover from disk; the persisted keyfile means a
    //    clean restart raises no warnings at all. ──────────────────────
    let mut rng = StdRng::seed_from_u64(2);
    let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, store_cfg).unwrap();
    assert_eq!(report.records, 2 * CLIENTS);
    assert!(
        report.warnings().is_empty(),
        "keyfile restart: {:?}",
        report.warnings()
    );
    let srv = Arc::new(srv);

    // ── Oracle: a single-threaded in-process server fed the identical
    //    operations in a canonical order. ─────────────────────────────
    let mut orng = StdRng::seed_from_u64(3);
    let oracle = ViewMapServer::new(&mut orng, 512, vmcfg);
    for (c, (fin, _)) in genuine.iter().enumerate() {
        let mut anchor = synthetic_vp(c as u64, c as u64);
        anchor.trusted = true;
        oracle.submit_trusted(anchor).unwrap();
        oracle
            .submit(submission(fin.profile.clone().into_stored()))
            .unwrap();
    }
    for c in 0..CLIENTS {
        let results: Vec<Result<(), ErrorCode>> = client_vps(c)
            .into_iter()
            .map(|vp| oracle.submit(submission(vp)).map_err(ErrorCode::from))
            .collect();
        assert_eq!(results, expected_outcomes(), "oracle client {c}");
    }

    // ── Serve, and drive 8 concurrent sessions. ──────────────────────
    let handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers: CLIENTS,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let remote_investigations: Vec<Vec<VpId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let genuine = &genuine;
                scope.spawn(move || {
                    let minute = MinuteId(c as u64);
                    let mut client = VmClient::connect(addr).expect("connect");
                    let outcomes = client.submit_pipelined(&client_vps(c)).expect("pipeline");
                    assert_eq!(outcomes, expected_outcomes(), "client {c} outcomes");
                    // Investigate own minute over the wire.
                    let ids = client.investigate(minute, site()).expect("investigate");
                    // Upload the genuine video end to end: solicit, then
                    // upload; the server re-derives the cascade.
                    let vp_id = genuine[c].0.profile.id();
                    client.solicit(vp_id).expect("solicit");
                    client
                        .upload_video(&VideoUpload {
                            vp_id,
                            chunks: genuine[c].1.clone(),
                        })
                        .expect("genuine video validates");
                    // A wrong-chunk upload is rejected with the typed code.
                    let mut bad = genuine[c].1.clone();
                    bad[0][0] ^= 1;
                    match client.upload_video(&VideoUpload { vp_id, chunks: bad }) {
                        Err(vm_service::ClientError::Remote(ErrorCode::ChainInvalid, _)) => {}
                        other => panic!("client {c}: expected ChainInvalid, got {other:?}"),
                    }
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ── Equivalence with the oracle. ─────────────────────────────────
    assert_eq!(srv.total_vps(), oracle.total_vps());
    for (c, remote) in remote_investigations.iter().enumerate() {
        let minute = MinuteId(c as u64);
        let served: Vec<VpId> = srv.minute_vps(minute).iter().map(|vp| vp.id).collect();
        let expect: Vec<VpId> = oracle.minute_vps(minute).iter().map(|vp| vp.id).collect();
        assert_eq!(served, expect, "minute {c} bucket order");
        let direct = oracle.investigate(minute, site());
        assert_eq!(remote, &direct, "minute {c} investigation");
        // Index routing survives recovery + concurrent ingest.
        for id in served {
            assert_eq!(srv.lookup_vp(id).unwrap().id, id);
        }
    }

    drop(handle); // graceful shutdown joins every service thread
                  // The server (and its WAL) outlive the service: still usable.
    assert!(srv.total_vps() > 0);
}

#[test]
fn shared_minute_hammering_keeps_invariants() {
    // All 8 clients write disjoint ids into the SAME minute; order is
    // nondeterministic, so check the order-independent invariants.
    let vmcfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(10);
    let srv = Arc::new(ViewMapServer::new(&mut rng, 512, vmcfg));
    let handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers: CLIENTS,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let per_client = 200u64;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS as u64 {
            scope.spawn(move || {
                let mut client = VmClient::connect(addr).expect("connect");
                // Every id is sent twice (two pipelined passes): exactly
                // one accept per id regardless of interleaving.
                let vps: Vec<StoredVp> = (0..per_client)
                    .map(|t| synthetic_vp(100_000 + c * per_client + t, 0))
                    .collect();
                let first = client.submit_pipelined(&vps).expect("pass 1");
                assert!(first.iter().all(|r| r.is_ok()), "client {c} pass 1");
                let second = client.submit_pipelined(&vps).expect("pass 2");
                assert!(
                    second.iter().all(|r| r == &Err(ErrorCode::Duplicate)),
                    "client {c} pass 2 all duplicates"
                );
                let total = client.total_vps().expect("total over the wire");
                assert!(total >= per_client, "client {c} sees its own VPs");
            });
        }
    });

    let expect = CLIENTS as u64 * per_client;
    assert_eq!(srv.total_vps() as u64, expect, "one accept per id");
    let bucket = srv.minute_vps(MinuteId(0));
    assert_eq!(bucket.len() as u64, expect);
    let mut seen = std::collections::HashSet::new();
    for vp in &bucket {
        assert!(seen.insert(vp.id), "id stored twice: {:?}", vp.id);
        let hit = srv.lookup_vp(vp.id).expect("indexed");
        assert!(Arc::ptr_eq(&hit, vp), "index routes to the bucket record");
        assert!(vp.is_key_warm(), "network submits ride the warm batch path");
    }
}

#[test]
fn reward_round_trips_over_the_wire_and_old_cash_survives_restart() {
    let tmp = TempDir::new("reward");
    let store_cfg = StoreConfig::default();
    let vmcfg = ViewmapConfig::default();
    let (fin, _chunks) = genuine_vp(77, 0);
    let vp_id = fin.profile.id();
    let secret = fin.secret;

    // Generation 1 issues cash under its key, then "crashes".
    let old_cash = {
        let mut rng = StdRng::seed_from_u64(20);
        let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, store_cfg).unwrap();
        srv.submit(submission(fin.profile.clone().into_stored()))
            .unwrap();
        srv.post_reward(vp_id, 2);
        let mut wallet = viewmap_core::reward::Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, srv.public_key(), 2);
        let signed = srv
            .issue_blind_signatures(vp_id, &secret, &blinded)
            .unwrap();
        assert_eq!(wallet.accept_signed(srv.public_key(), pending, &signed), 2);
        srv.sync_wal().unwrap();
        wallet.cash
    };

    // Generation 2 recovers; the reward board is RAM-only (gone) but
    // the VP store survives. Re-post the reward (human review happens
    // server-side) and run the whole round over the wire.
    let mut rng = StdRng::seed_from_u64(21);
    let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, store_cfg).unwrap();
    assert!(!report.fresh_signing_key, "keyfile persisted the RSA key");
    let srv = Arc::new(srv);
    srv.post_reward(vp_id, 3);
    let handle =
        VmService::spawn(Arc::clone(&srv), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client = VmClient::connect(handle.addr()).unwrap();

    // Wrong secret is a typed remote rejection.
    match client.claim_reward(vp_id, &[0u8; 8]) {
        Err(vm_service::ClientError::Remote(ErrorCode::BadOwnershipProof, _)) => {}
        other => panic!("expected BadOwnershipProof, got {other:?}"),
    }
    let units = client.claim_reward(vp_id, &secret).unwrap();
    assert_eq!(units, 3);

    // Blind → sign (over the wire) → unblind → redeem (over the wire).
    let pk = client.public_key().unwrap();
    assert_eq!(&pk, srv.public_key(), "wire key equals the server's");
    let mut wallet = viewmap_core::reward::Wallet::new();
    let mut wrng = StdRng::seed_from_u64(22);
    let (pending, blinded) = wallet.prepare(&mut wrng, &pk, units);
    // One blinded value ≥ n is a typed rejection that leaves the reward
    // on the board — not a shortened reply whose later signatures would
    // unblind against the wrong secrets.
    let mut bad = blinded.clone();
    bad[0] = vm_crypto::BlindedMessage(pk.modulus().clone());
    match client.blind_sign(vp_id, &secret, &bad) {
        Err(vm_service::ClientError::Remote(ErrorCode::BlindedOutOfRange, _)) => {}
        other => panic!("expected BlindedOutOfRange, got {other:?}"),
    }
    assert_eq!(srv.reward_board(), vec![(vp_id, 3)]);
    let signed = client.blind_sign(vp_id, &secret, &blinded).unwrap();
    assert_eq!(wallet.accept_signed(&pk, pending, &signed), 3);
    // Board entry consumed: a second issuance is NotOnBoard.
    match client.blind_sign(vp_id, &secret, &blinded) {
        Err(vm_service::ClientError::Remote(ErrorCode::NotOnBoard, _)) => {}
        other => panic!("expected NotOnBoard, got {other:?}"),
    }
    for cash in &wallet.cash {
        client.redeem(cash).unwrap();
    }
    match client.redeem(&wallet.cash[0]) {
        Err(vm_service::ClientError::Remote(ErrorCode::DoubleSpend, _)) => {}
        other => panic!("expected DoubleSpend, got {other:?}"),
    }

    // The signing key rode the keyfile across the restart, so cash
    // issued before the crash still verifies — and still double-spends.
    client.redeem(&old_cash[0]).unwrap();
    match client.redeem(&old_cash[0]) {
        Err(vm_service::ClientError::Remote(ErrorCode::DoubleSpend, _)) => {}
        other => panic!("expected DoubleSpend for replayed pre-restart cash, got {other:?}"),
    }
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let mut rng = StdRng::seed_from_u64(30);
    let srv = Arc::new(ViewMapServer::new(&mut rng, 512, ViewmapConfig::default()));
    let mut handle = VmService::spawn(
        Arc::clone(&srv),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A connected client with an idle session holds a worker; shutdown
    // must still complete (it closes the session socket under us).
    let mut client = VmClient::connect(addr).unwrap();
    assert_eq!(client.total_vps().unwrap(), 0);
    handle.shutdown();
    handle.shutdown(); // idempotent

    // The session is dead from the client's point of view...
    assert!(client.total_vps().is_err(), "session closed by shutdown");
    // ...and nobody is listening for new sessions.
    let late = VmClient::connect(addr);
    if let Ok(mut late) = late {
        // (A TCP stack may accept briefly into a dead backlog; any
        // actual use of the session must fail.)
        assert!(late.total_vps().is_err(), "no service behind the port");
    }
}
