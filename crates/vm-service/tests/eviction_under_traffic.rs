//! Eviction racing live traffic: `evict_minutes_before` sweeps old
//! minutes (memory, id index, and WAL segments) while wire clients are
//! concurrently submitting into newer minutes and investigating — and
//! afterwards disk, memory, and index must agree exactly, including
//! across a full crash/recover cycle.
//!
//! The race surface under test is the server's eviction locking: the
//! sweep holds every id stripe across the WAL segment removal, so a
//! concurrent submit can never land an index entry for a bucket (or a
//! WAL record for a segment) that the sweep is deleting under it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::worlds::synthetic_vp;
use vm_service::{ServiceConfig, VmClient, VmService};
use vm_store::{PersistentServer, StoreConfig};

const CLIENTS: usize = 4;
const OLD_MINUTES: u64 = 5;
const VPS_PER_MINUTE: u64 = 40;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("vm_evict_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Minutes that still have a `.vmseg` segment on disk.
fn disk_minutes(dir: &std::path::Path) -> Vec<u64> {
    let mut v: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name();
            vm_store::segment::parse_segment_file_name(name.to_str()?).map(|m| m.0)
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn eviction_races_wire_traffic_without_losing_consistency() {
    let tmp = TempDir::new("race");
    let vmcfg = ViewmapConfig::default();

    // Preload OLD_MINUTES durable minutes, the data eviction will sweep.
    let mut rng = StdRng::seed_from_u64(7);
    let (srv, _) =
        ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, StoreConfig::default()).unwrap();
    for minute in 0..OLD_MINUTES {
        for t in 0..VPS_PER_MINUTE {
            srv.submit_trusted(synthetic_vp(minute * 1_000 + t, minute))
                .unwrap();
        }
    }
    srv.sync_wal().unwrap();
    assert_eq!(disk_minutes(&tmp.0).len() as u64, OLD_MINUTES);
    let srv = Arc::new(srv);

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

    let site = Site {
        center: GeoPos::new(200.0, 0.0),
        radius_m: 400.0,
    };

    // Clients pour fresh VPs into minutes >= OLD_MINUTES (each client
    // owns one minute) and run investigations, while the main thread
    // ramps the eviction cutoff across the old minutes.
    std::thread::scope(|scope| {
        for c in 0..CLIENTS as u64 {
            scope.spawn(move || {
                let minute = OLD_MINUTES + c;
                let mut client = VmClient::connect(addr).expect("connect");
                for round in 0..4u64 {
                    let vps: Vec<StoredVp> = (0..VPS_PER_MINUTE)
                        .map(|t| synthetic_vp(10_000 + c * 10_000 + round * 100 + t, minute))
                        .collect();
                    let outcomes = client.submit_pipelined(&vps).expect("pipeline");
                    assert!(
                        outcomes.iter().all(|r| r.is_ok()),
                        "client {c} round {round}"
                    );
                    // Touch both a doomed minute and our own: neither
                    // may panic or return garbage mid-eviction.
                    let _ = client.investigate(MinuteId(round), site).expect("old");
                    let _ = client.investigate(MinuteId(minute), site).expect("own");
                }
            });
        }
        // Concurrently sweep the old minutes one cutoff at a time.
        let sweeper = Arc::clone(&srv);
        scope.spawn(move || {
            let mut evicted = 0usize;
            for cutoff in 1..=OLD_MINUTES {
                evicted += sweeper.evict_minutes_before(MinuteId(cutoff));
                std::thread::yield_now();
            }
            assert_eq!(
                evicted as u64,
                OLD_MINUTES * VPS_PER_MINUTE,
                "every preloaded VP evicted exactly once"
            );
        });
    });
    drop(handle);

    // ── Memory, index, and disk agree. ───────────────────────────────
    let survivors: Vec<MinuteId> = (0..CLIENTS as u64)
        .map(|c| MinuteId(OLD_MINUTES + c))
        .collect();
    assert_eq!(srv.stored_minutes(), survivors, "old minutes are gone");
    assert_eq!(
        srv.total_vps() as u64,
        CLIENTS as u64 * 4 * VPS_PER_MINUTE,
        "exactly the live traffic survives"
    );
    for minute in 0..OLD_MINUTES {
        assert!(srv.minute_vps(MinuteId(minute)).is_empty());
        for t in 0..VPS_PER_MINUTE {
            let id = synthetic_vp(minute * 1_000 + t, minute).id;
            assert!(srv.lookup_vp(id).is_none(), "index entry swept with bucket");
        }
    }
    for &minute in &survivors {
        for vp in srv.minute_vps(minute) {
            let hit = srv.lookup_vp(vp.id).expect("survivor indexed");
            assert!(Arc::ptr_eq(&hit, &vp), "index routes into the bucket");
        }
    }
    srv.sync_wal().unwrap();
    assert_eq!(
        disk_minutes(&tmp.0),
        survivors.iter().map(|m| m.0).collect::<Vec<_>>(),
        "evicted WAL segments removed, survivors' retained"
    );

    // ── The surviving state round-trips through crash recovery. ──────
    let digest = srv.state_digest();
    drop(srv); // releases the store's dir lock
    let mut rng = StdRng::seed_from_u64(8);
    let (back, report) =
        ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, StoreConfig::default()).unwrap();
    assert_eq!(report.records as u64, CLIENTS as u64 * 4 * VPS_PER_MINUTE);
    assert_eq!(report.torn_segments, 0);
    assert_eq!(back.stored_minutes(), survivors);
    assert_eq!(back.state_digest(), digest, "recovery reproduces the state");
}
