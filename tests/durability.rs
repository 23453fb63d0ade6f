//! Tier-1 checks below the engine, through the facade only: a durable
//! cell that dies without syncing recovers to the state of a twin that
//! never crashed, and a loopback follower that has acked everything
//! shipped is the primary — before and after promotion. (The exhaustive
//! versions are vm-store's `crash_recovery` and vm-repl's `repl_faults`;
//! these keep `cargo test` at the root honest about the two layers.)
//! Every cell takes its durability policy from `VM_STORE_FSYNC`
//! (`StoreConfig::from_env`), so CI runs the file under both policies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap::core::server::ViewMapServer;
use viewmap::core::types::MinuteId;
use viewmap::core::upload::AnonymousSubmission;
use viewmap::core::viewmap::{Site, ViewmapConfig};
use viewmap::core::vp::StoredVp;
use viewmap::crypto::RsaKeyPair;
use viewmap::repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use viewmap::service::{ErrorCode, ServiceConfig, VmClient, VmService};
use viewmap::sim::{run_protocol_sim, SimConfig};
use viewmap::store::{PersistentServer, StoreConfig};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("viewmap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A dense downtown platoon from the protocol simulator — real cascades,
/// guard VPs and radio-wired Bloom filters, some 600 VPs over three
/// minutes. Vehicle 0's actual VP leads each minute and plays the
/// authority's trusted VP.
fn world() -> Vec<Vec<StoredVp>> {
    run_protocol_sim(&SimConfig::rush_hour(60, 3), 7)
        .minutes
        .into_iter()
        .map(|m| {
            let mut vps = m.vps.expect("rush_hour keeps VPs");
            vps.swap(0, m.actual_idx[0]);
            vps
        })
        .collect()
}

/// Every minute: its first VP through the authority channel, the rest
/// as one anonymous batch. Returns how many VPs went in.
fn ingest(srv: &ViewMapServer, world: &[Vec<StoredVp>]) -> usize {
    for vps in world {
        srv.submit_trusted_batch(vec![vps[0].clone()])[0].expect("trusted stored");
        let acks = srv.submit_batch(vps[1..].iter().map(|vp| AnonymousSubmission {
            session_id: 0,
            vp: vp.clone(),
        }));
        assert!(acks.iter().all(|a| a.is_ok()), "batch stored");
    }
    world.iter().map(Vec::len).sum()
}

/// Minute 1 around where its trusted VP starts: the answer is a verified
/// neighbourhood, not the whole minute and not nothing.
fn incident(world: &[Vec<StoredVp>]) -> (MinuteId, Site) {
    let site = Site {
        center: world[1][0].vds[0].loc,
        radius_m: 300.0,
    };
    (MinuteId(1), site)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_cell_dropped_without_sync_recovers_to_its_never_crashed_twin() {
    let tmp = TempDir::new("durability_crash");
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(1);
    let world = world();
    let twin = ViewMapServer::new(&mut rng, 512, cfg);
    let stored = ingest(&twin, &world);
    {
        let (srv, report) =
            ViewMapServer::open(&mut rng, 512, cfg, &tmp.0, StoreConfig::from_env()).unwrap();
        assert_eq!(report.records, 0, "fresh store");
        ingest(&srv, &world);
        // No `sync_wal`: what survives is what each group commit wrote.
    }
    let (srv, report) =
        ViewMapServer::open(&mut rng, 512, cfg, &tmp.0, StoreConfig::from_env()).unwrap();
    assert_eq!(report.records, stored);
    assert_eq!((report.rejected, report.torn_segments), (0, 0));
    assert!(!report.fresh_signing_key, "the identity survived too");

    assert_eq!(srv.stored_minutes(), twin.stored_minutes());
    assert_eq!(srv.state_digest(), twin.state_digest());
    let (minute, site) = incident(&world);
    let answer = twin.investigate(minute, site);
    assert!(!answer.is_empty() && answer.len() < world[1].len());
    assert_eq!(srv.investigate(minute, site), answer);
    assert!(
        srv.lookup_vp(answer[0]).is_some(),
        "recovered id index routes"
    );
}

#[test]
fn a_drained_follower_is_the_primary_before_and_after_promotion() {
    let (ptmp, ftmp) = (
        TempDir::new("durability_primary"),
        TempDir::new("durability_follower"),
    );
    let cfg = ViewmapConfig::default();
    let key = RsaKeyPair::generate(&mut StdRng::seed_from_u64(2), 512);
    let (primary, _) = Primary::open(
        &ptmp.0,
        key.clone(),
        cfg,
        StoreConfig::from_env(),
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key,
        cfg,
        StoreConfig::from_env(),
        primary.repl_addr(),
        FollowerConfig::default(),
    )
    .unwrap();
    wait_until("the follower to join", || {
        primary.hub().follower_count() == 1
    });

    let mut world = world();
    let late = world[2].pop().expect("a VP to hold back");
    let stored = ingest(primary.server(), &world);
    wait_until("the commit watermark", || {
        primary.hub().watermark() >= primary.hub().shipped_ops()
    });
    assert_eq!(
        follower.server().state_digest(),
        primary.server().state_digest(),
        "everything acked is everything stored"
    );

    // A client asks the primary, the primary dies, the follower is
    // promoted behind the front-end it was already serving reads from.
    let ask = |srv: &Arc<ViewMapServer>, role| {
        let service = VmService::spawn_with_role(
            Arc::clone(srv),
            "127.0.0.1:0",
            ServiceConfig::default(),
            role,
        )
        .expect("spawn service");
        let client = VmClient::connect(service.addr()).expect("connect");
        (service, client)
    };
    let (primary_service, mut client) = ask(primary.server(), None);
    let (minute, site) = incident(&world);
    let answer = client.investigate(minute, site).expect("primary");
    assert!(!answer.is_empty() && answer.len() < world[1].len());
    drop((client, primary_service, primary));

    let (_replica_service, mut client) = ask(follower.server(), Some(Arc::clone(follower.role())));
    match client.submit(&late) {
        Err(viewmap::service::ClientError::Remote(ErrorCode::NotPrimary, _)) => {}
        other => panic!("a follower must fence writes, got {other:?}"),
    }
    let (promoted, _epoch) = follower.promote().expect("promote");
    assert_eq!(client.investigate(minute, site).expect("promoted"), answer);
    client
        .submit(&late)
        .expect("the promoted node takes writes");
    assert_eq!(promoted.total_vps(), stored + 1);
}
