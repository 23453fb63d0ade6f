//! End-to-end telemetry scrape: boot a durable primary with a loopback
//! follower, drive traffic over the wire, and read the `STATS` opcode
//! back from **both** cells — the primary's snapshot must cover every
//! layer (core, store, service, repl) with one scrape, the fenced
//! follower must serve its own snapshot while still bouncing mutations,
//! and the per-follower watermark-lag gauges must drain to zero once
//! the follower has acked everything that shipped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::types::GeoPos;
use viewmap_core::viewmap::ViewmapConfig;
use vm_bench::worlds::synthetic_vp;
use vm_crypto::RsaKeyPair;
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::proto::ErrorCode;
use vm_service::{ClientError, ServiceConfig, VmClient, VmService};
use vm_store::StoreConfig;

const KEY_BITS: usize = 512;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("vm_stats_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wait_until(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Scrape `STATS` through `client` and parse it into a name→value map.
fn scrape(client: &mut VmClient) -> HashMap<String, f64> {
    let text = client.stats().expect("STATS round trip");
    assert!(
        text.starts_with("vm_obs_snapshot_version 1\n"),
        "snapshot must lead with its version line, got: {:?}",
        text.lines().next()
    );
    vm_obs::parse_text(&text)
        .expect("snapshot text must parse line by line")
        .into_iter()
        .collect()
}

#[test]
fn stats_scrape_covers_the_stack_and_lag_drains() {
    let ptmp = TempDir::new("primary");
    let ftmp = TempDir::new("follower");
    let mut rng = StdRng::seed_from_u64(0x57a75);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let vmcfg = ViewmapConfig::default();
    let scfg = StoreConfig::from_env();

    let (primary, _) = Primary::open(
        &ptmp.0,
        key.clone(),
        vmcfg,
        scfg,
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .expect("open primary");
    let handle = VmService::spawn(
        Arc::clone(primary.server()),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("spawn primary service");

    // Join the follower *before* submitting, so the byte-lag ledger sees
    // every shipped op and "drains to zero" means exactly "acked all of
    // this test's traffic".
    let (follower, _) = Follower::open(
        &ftmp.0,
        key,
        vmcfg,
        scfg,
        primary.repl_addr(),
        FollowerConfig::default(),
    )
    .expect("open follower");
    wait_until("follower to join", Duration::from_secs(10), || {
        primary.hub().follower_count() == 1
    });

    const VPS: u64 = 12;
    let mut client = VmClient::connect(handle.addr()).expect("connect primary");
    for tag in 0..VPS {
        client
            .submit(&synthetic_vp(tag + 1, 0))
            .expect("wire submit accepted");
    }
    // No trusted anchors were planted, so the verdict set is empty —
    // the call is here to push samples through the investigate pipeline
    // (TrustRank iterations, per-op latency), not to test verdicts.
    client
        .investigate(
            viewmap_core::types::MinuteId(0),
            viewmap_core::viewmap::Site {
                center: GeoPos::new(200.0, 15.0),
                radius_m: 100_000.0,
            },
        )
        .expect("wire investigation");

    // One scrape covers every layer of the primary cell.
    let stats = scrape(&mut client);
    for name in [
        // core (engine)
        "vm_core_vps_stored_total",
        "vm_core_investigate_us_count",
        "vm_core_trustrank_iterations_count",
        "vm_core_maintained_create_us_count",
        // store (durability)
        "vm_store_append_us_count",
        "vm_store_fsync_us_count",
        "vm_store_appended_records_total",
        "vm_store_recoveries_total",
        // service (front-end)
        "vm_service_sessions_total",
        "vm_service_coalesce_run_frames_count",
        "vm_service_request_us_count{op=\"submit\"}",
        "vm_service_request_us_count{op=\"investigate\"}",
        // repl (shipping side)
        "vm_repl_shipped_ops_total",
        "vm_repl_next_op",
        "vm_repl_follower_connects_total",
        "vm_repl_ship_us_count",
    ] {
        assert!(stats.contains_key(name), "primary snapshot missing {name}");
    }
    assert!(stats["vm_core_vps_stored_total"] >= VPS as f64);
    assert!(stats["vm_store_appended_records_total"] >= VPS as f64);
    assert!(stats["vm_core_investigate_us_count"] >= 1.0);
    assert!(stats["vm_service_request_us_count{op=\"submit\"}"] >= 1.0);
    assert!(stats["vm_service_request_us_count{op=\"investigate\"}"] >= 1.0);
    assert_eq!(stats["vm_repl_follower_connects_total"], 1.0);
    assert_eq!(stats["vm_events_total{kind=\"follower_connected\"}"], 1.0);

    // The per-follower watermark-lag gauges drain to zero once the
    // follower acks everything shipped (poll the *scraped* values: the
    // gauges are the operator's view, so that view is what must drain).
    wait_until("watermark lag to drain", Duration::from_secs(30), || {
        let s = scrape(&mut client);
        s.get("vm_repl_watermark_lag_ops{follower=\"1\"}") == Some(&0.0)
            && s.get("vm_repl_watermark_lag_bytes{follower=\"1\"}") == Some(&0.0)
            && s["vm_repl_shipped_ops_total"] >= 1.0
    });
    assert_eq!(primary.hub().watermark(), primary.hub().shipped_ops());

    // The fenced follower serves STATS read-only: mutations still
    // bounce with NotPrimary, but the telemetry an operator needs to
    // diagnose *why* a cell is fenced is available over the same wire.
    let fhandle = VmService::spawn_with_role(
        Arc::clone(follower.server()),
        "127.0.0.1:0",
        ServiceConfig::default(),
        Some(Arc::clone(follower.role())),
    )
    .expect("spawn follower service");
    let mut fclient = VmClient::connect(fhandle.addr()).expect("connect follower");
    match fclient.submit(&synthetic_vp(999, 0)) {
        Err(ClientError::Remote(ErrorCode::NotPrimary, _)) => {}
        other => panic!("fenced follower accepted a mutation: {other:?}"),
    }
    let fstats = scrape(&mut fclient);
    for name in [
        "vm_core_vps_stored_total",
        "vm_store_appended_records_total",
        "vm_repl_applied_ops_total",
        "vm_repl_applied_records_total",
        "vm_repl_connects_total",
        "vm_repl_resyncs_total",
    ] {
        assert!(
            fstats.contains_key(name),
            "follower snapshot missing {name}"
        );
    }
    assert!(fstats["vm_repl_applied_records_total"] >= VPS as f64);
    assert!(fstats["vm_repl_connects_total"] >= 1.0);
    assert!(fstats["vm_events_total{kind=\"repl_reconnect\"}"] >= 1.0);

    drop(fclient);
    drop(fhandle);
    drop(client);
    drop(handle);
}
