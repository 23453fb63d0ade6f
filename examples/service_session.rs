//! A full client session against the network front-end.
//!
//! Stands up a **durable** ViewMap service (append-log store + TCP
//! front-end) on an ephemeral loopback port, then drives one uploader /
//! investigator session end to end over the wire: pipelined VP
//! submission, investigation, video solicitation + upload, and the
//! untraceable reward round (claim → blind-sign → unblind → redeem).
//! Finally it restarts the server from its log to show recovery — the
//! signing key persists with the store, so cash minted before the
//! restart still redeems after it.
//!
//! Run with: `cargo run --release --example service_session`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use viewmap::core::reward::Wallet;
use viewmap::core::server::ViewMapServer;
use viewmap::core::solicit::VideoUpload;
use viewmap::core::types::{GeoPos, MinuteId, SECONDS_PER_VP};
use viewmap::core::viewmap::{Site, ViewmapConfig};
use viewmap::core::vp::{VpBuilder, VpKind};
use viewmap::service::{ServiceConfig, VmClient, VmService};
use viewmap::store::{PersistentServer, StoreConfig};

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);
    let dir = std::env::temp_dir().join(format!("viewmap_service_session_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("== vm-service session ==\n");

    // ── 1. A durable server: fresh store, fresh key, no warnings. ────
    let (server, report) = ViewMapServer::open(
        &mut rng,
        512,
        ViewmapConfig::default(),
        &dir,
        StoreConfig::default(),
    )
    .expect("open store");
    println!(
        "server up: {} recovered records, {} warnings",
        report.records,
        report.warnings().len()
    );

    // The authority seeds one trusted VP in-process — deliberately not
    // a wire operation (the public front-end must not mint trust).
    let mut police = VpBuilder::new(&mut rng, 0, GeoPos::new(240.0, 0.0), VpKind::Trusted);
    for s in 0..SECONDS_PER_VP {
        police.record_second(&[0u8; 32], GeoPos::new(240.0 - s as f64, 0.0));
    }
    server.submit_trusted_batch(vec![police.finalize().profile.into_stored()])[0]
        .expect("trusted anchor stored");

    let server = Arc::new(server);
    let handle = VmService::spawn(Arc::clone(&server), "127.0.0.1:0", ServiceConfig::default())
        .expect("spawn service");
    println!("listening on {}\n", handle.addr());

    // ── 2. A vehicle records a minute of video and uploads its VP over
    //    the wire (anonymized; the session id is meaningless). ────────
    let mut cam = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 8.0), VpKind::Actual);
    let chunks: Vec<Vec<u8>> = (0..SECONDS_PER_VP)
        .map(|s| (0..256u64).map(|j| ((s * 31 + j) % 251) as u8).collect())
        .collect();
    for (s, chunk) in chunks.iter().enumerate() {
        cam.record_second(chunk, GeoPos::new(s as f64 * 8.0, 8.0));
    }
    let fin = cam.finalize();
    let vp_id = fin.profile.id();
    let secret = fin.secret;

    let mut client = VmClient::connect(handle.addr()).expect("connect");
    client
        .submit(&fin.profile.clone().into_stored())
        .expect("VP accepted");
    println!(
        "uploaded VP {vp_id} ({} total stored)",
        client.total_vps().unwrap()
    );

    // ── 3. An investigator works the incident minute over the wire. ──
    let site = Site {
        center: GeoPos::new(200.0, 0.0),
        radius_m: 200.0,
    };
    let verified = client
        .investigate(MinuteId(0), site)
        .expect("investigation");
    println!(
        "investigation verified {} VP(s): {verified:?}",
        verified.len()
    );

    // ── 4. After manual review the investigator also solicits the
    //    witness VP by id; the owner sees the posting and uploads the
    //    video, which the server validates against the stored cascade. ─
    client.solicit(vp_id).expect("solicitation posted");
    client
        .upload_video(&VideoUpload { vp_id, chunks })
        .expect("video validates against the stored cascade");
    println!("video upload validated");

    // ── 5. Human review happens server-side; the reward round then
    //    runs over the wire without ever identifying the owner. ───────
    server.post_reward(vp_id, 3);
    let units = client
        .claim_reward(vp_id, &secret)
        .expect("ownership proof");
    let pk = client.public_key().expect("system key");
    let mut wallet = Wallet::new();
    let (pending, blinded) = wallet.prepare(&mut rng, &pk, units);
    let signed = client
        .blind_sign(vp_id, &secret, &blinded)
        .expect("blind signatures");
    let minted = wallet.accept_signed(&pk, pending, &signed);
    println!("minted {minted} unit(s) of untraceable cash");
    client.redeem(&wallet.cash[0]).expect("cash redeems");
    println!(
        "redeemed 1 of {} unit(s); double-spend now rejected: {}",
        wallet.balance(),
        client.redeem(&wallet.cash[0]).is_err()
    );

    // ── 6. Restart from the log: state recovers, and because the
    //    signing key persists with the store (`signing.key`), the
    //    units still in the wallet redeem under the recovered server. ─
    drop(client);
    drop(handle);
    let total_before = server.total_vps();
    drop(server);
    let (server, report) = ViewMapServer::open(
        &mut rng,
        512,
        ViewmapConfig::default(),
        &dir,
        StoreConfig::default(),
    )
    .expect("recover");
    println!(
        "\nrecovered {} VPs ({} before shutdown)",
        server.total_vps(),
        total_before
    );
    for warning in report.warnings() {
        println!("warning: {warning}");
    }
    server
        .redeem(&wallet.cash[1])
        .expect("pre-restart cash redeems under the persisted key");
    println!("pre-restart cash unit redeemed after recovery ✔");

    // ── 7. Operator's view: scrape the telemetry snapshot over the
    //    same wire the clients use (`STATS`, opcode 0x0B). The full
    //    text covers every layer; here we show the request-latency
    //    histograms and the recovery accounting from the restart. ─────
    let server = Arc::new(server);
    let handle = VmService::spawn(Arc::clone(&server), "127.0.0.1:0", ServiceConfig::default())
        .expect("respawn service");
    let mut client = VmClient::connect(handle.addr()).expect("reconnect");
    client
        .investigate(MinuteId(0), site)
        .expect("warm the recovered cell");
    let stats = client.stats().expect("STATS scrape");
    println!(
        "\nSTATS scrape ({} metric lines); non-zero highlights:",
        stats.lines().count()
    );
    for line in stats.lines().filter(|l| {
        (l.starts_with("vm_service_request_us")
            || l.starts_with("vm_store_recover")
            || l.starts_with("vm_store_recoveries_total")
            || l.starts_with("vm_core_vps_stored_total"))
            && !l.ends_with(" 0")
    }) {
        println!("  {line}");
    }

    drop(client);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
