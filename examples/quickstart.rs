//! Quickstart: the whole ViewMap story on two vehicles.
//!
//! One minute of driving → VD exchange over DSRC → view profiles →
//! anonymous upload → viewmap construction around an incident →
//! TrustRank verification → video solicitation → cascaded-hash
//! validation → untraceable reward.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use viewmap::core::reward::Wallet;
use viewmap::core::server::ViewMapServer;
use viewmap::core::solicit::VideoUpload;
use viewmap::core::types::{GeoPos, MinuteId, SECONDS_PER_VP};
use viewmap::core::upload::AnonymousChannel;
use viewmap::core::viewmap::{Site, ViewmapConfig};
use viewmap::core::vp::{VpBuilder, VpKind};

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);

    // ── 1. Drive: three vehicles record for one minute and exchange VDs.
    // A witness (vehicle A), the incident-involved vehicle (B), and a
    // police car (trusted, some distance away but chained via B).
    println!("== ViewMap quickstart ==\n");
    let mut a = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
    let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(120.0, 0.0), VpKind::Actual);
    let mut police = VpBuilder::new(&mut rng, 0, GeoPos::new(420.0, 0.0), VpKind::Trusted);

    // Keep the actual video bytes of A — it will be solicited later.
    let mut video_a: Vec<Vec<u8>> = Vec::new();
    for s in 0..SECONDS_PER_VP {
        let now = s + 1;
        let (xa, xb, xp) = (
            s as f64 * 12.0,
            120.0 + s as f64 * 12.0,
            420.0 + s as f64 * 11.0,
        );
        let chunk_a: Vec<u8> = (0..256u32)
            .map(|j| ((s as u32 * 31 + j) % 251) as u8)
            .collect();
        let vd_a = a.record_second(&chunk_a, GeoPos::new(xa, 0.0));
        video_a.push(chunk_a);
        let vd_b = b.record_second(b"b-frame", GeoPos::new(xb, 0.0));
        let vd_p = police.record_second(b"p-frame", GeoPos::new(xp, 0.0));
        // Everyone within DSRC range hears everyone (open road).
        a.accept_neighbor_vd(vd_b, now, GeoPos::new(xa, 0.0));
        b.accept_neighbor_vd(vd_a, now, GeoPos::new(xb, 0.0));
        b.accept_neighbor_vd(vd_p, now, GeoPos::new(xb, 0.0));
        police.accept_neighbor_vd(vd_b, now, GeoPos::new(xp, 0.0));
    }
    let fin_a = a.finalize();
    let fin_b = b.finalize();
    let fin_p = police.finalize();
    println!(
        "vehicle A recorded 1-min video; VP id {} ({} bytes of VP vs ~50 MB of video)",
        fin_a.profile.id(),
        fin_a.profile.user_storage_bytes()
    );

    // ── 2. Upload anonymously (Tor substitute), police via authority path.
    let mut server_rng = StdRng::seed_from_u64(99);
    let server = ViewMapServer::new(&mut server_rng, 512, ViewmapConfig::default());
    let mut channel = AnonymousChannel::new();
    let a_id = fin_a.profile.id();
    let a_secret = fin_a.secret;
    channel.enqueue(fin_a.profile);
    channel.enqueue(fin_b.profile);
    for sub in channel.flush(&mut rng) {
        server.submit(sub).expect("VP accepted");
    }
    server.submit_trusted_batch(vec![fin_p.profile.into_stored()])[0].expect("trusted VP accepted");
    println!("server now holds {} anonymized VPs\n", server.total_vps());

    // ── 3. Incident investigation: build the viewmap, verify, solicit.
    let site = Site {
        center: GeoPos::new(350.0, 0.0),
        radius_m: 200.0,
    };
    let vm = server.build_viewmap(MinuteId(0), site);
    println!(
        "viewmap: {} member VPs, {} viewlinks, {} trusted seed(s)",
        vm.len(),
        vm.edge_count(),
        vm.trusted.len()
    );
    let solicited = server.investigate(MinuteId(0), site);
    println!(
        "solicitation board (request-for-video): {} VP id(s)",
        solicited.len()
    );
    assert!(solicited.contains(&a_id), "witness A should be solicited");

    // ── 4. A sees its id on the board and uploads the matching video.
    let upload = VideoUpload {
        vp_id: a_id,
        chunks: video_a,
    };
    server
        .upload_video(&upload)
        .expect("cascaded-hash validation");
    println!("video of VP {a_id} validated against stored VDs ✔");

    // ── 5. Human review passes; untraceable reward of 3 units.
    server.post_reward(a_id, 3);
    let mut wallet = Wallet::new();
    let units = server
        .claim_reward(a_id, &a_secret)
        .expect("ownership proof");
    let (pending, blinded) = wallet.prepare(&mut rng, server.public_key(), units);
    let signed = server
        .issue_blind_signatures(a_id, &a_secret, &blinded)
        .expect("blind signing");
    wallet.accept_signed(server.public_key(), pending, &signed);
    println!(
        "wallet holds {} unit(s) of untraceable cash",
        wallet.balance()
    );

    // ── 6. Spend the cash; double spending is caught.
    server.redeem(&wallet.cash[0]).expect("first spend fine");
    let double = server.redeem(&wallet.cash[0]);
    println!("second spend of the same unit: {double:?}");
    assert!(double.is_err());
    println!("\nquickstart complete ✔");
}
