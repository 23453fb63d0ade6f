//! Adversarial integration tests: every cheating path the paper's threat
//! model (§3.2, §6.3) describes, exercised against the real server.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewmap::core::attack::{AttackConfig, GeometricParams, SyntheticViewmap};
use viewmap::core::bloom::BloomFilter;
use viewmap::core::guard::{create_guards, GuardConfig, StraightLine};
use viewmap::core::server::{SubmitError, ViewMapServer};
use viewmap::core::solicit::{UploadError, VideoUpload};
use viewmap::core::types::{GeoPos, MinuteId, SECONDS_PER_VP};
use viewmap::core::upload::AnonymousSubmission;
use viewmap::core::viewmap::{Site, ViewmapConfig};
use viewmap::core::vp::{exchange_minute, StoredVp, VpBuilder, VpKind};
use viewmap::service::{ServiceConfig, VmClient, VmService};

fn server(seed: u64) -> ViewMapServer {
    let mut rng = StdRng::seed_from_u64(seed);
    ViewMapServer::new(&mut rng, 512, ViewmapConfig::default())
}

#[test]
fn bloom_poisoning_flood_is_rejected_at_submission() {
    // §6.3.2: attackers fabricate all-ones bit-arrays to claim
    // neighborship with everyone.
    let srv = server(1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
    for s in 0..SECONDS_PER_VP {
        b.record_second(b"x", GeoPos::new(s as f64, 0.0));
    }
    let mut vp = b.finalize().profile.into_stored();
    vp.bloom = BloomFilter::from_bytes(vec![0xff; 256], 8);
    assert_eq!(
        srv.submit(AnonymousSubmission { session_id: 1, vp }),
        Err(SubmitError::SuspiciousBloom)
    );
}

#[test]
fn replayed_vp_is_deduplicated() {
    let srv = server(3);
    let mut rng = StdRng::seed_from_u64(4);
    let (fin, _) = exchange_minute(
        &mut rng,
        0,
        |s| GeoPos::new(s as f64, 0.0),
        |s| GeoPos::new(s as f64, 30.0),
    );
    let vp = fin.profile.into_stored();
    assert_eq!(
        srv.submit(AnonymousSubmission {
            session_id: 10,
            vp: vp.clone()
        }),
        Ok(())
    );
    // Replaying the same VP under a different session id changes nothing.
    assert_eq!(
        srv.submit(AnonymousSubmission { session_id: 11, vp }),
        Err(SubmitError::Duplicate)
    );
}

#[test]
fn truncated_vp_is_rejected() {
    let srv = server(5);
    let mut rng = StdRng::seed_from_u64(6);
    let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
    for s in 0..30 {
        b.record_second(b"x", GeoPos::new(s as f64, 0.0));
    }
    let vp = b.finalize().profile.into_stored();
    assert_eq!(
        srv.submit(AnonymousSubmission { session_id: 1, vp }),
        Err(SubmitError::MalformedVds)
    );
}

#[test]
fn guard_vp_videos_can_never_be_claimed() {
    // Footnote 2 of the paper: guard VPs may end up on the request list,
    // but no video can ever validate against them — their hash fields are
    // random. Even the creator cannot cash in a guard VP.
    let mut rng = StdRng::seed_from_u64(7);
    let (mut fin, _) = exchange_minute(
        &mut rng,
        0,
        |s| GeoPos::new(s as f64 * 10.0, 0.0),
        |s| GeoPos::new(s as f64 * 10.0, 40.0),
    );
    let guards = create_guards(&mut rng, &mut fin, &StraightLine, &GuardConfig::default());
    assert!(!guards.is_empty());
    let guard = guards[0].clone().into_stored();
    // Whatever bytes anyone uploads, the cascaded chain cannot match the
    // random hash fields.
    let chunks: Vec<Vec<u8>> = (0..60).map(|i| vec![i as u8; 64]).collect();
    let upload = VideoUpload {
        vp_id: guard.id,
        chunks,
    };
    assert!(matches!(
        viewmap::core::solicit::validate_upload(&guard, &upload),
        Err(UploadError::Chain(_))
    ));
}

#[test]
fn location_cheating_vp_cannot_join_honest_layer() {
    // The core §6.3.1 property at the paper's scale (1000 legit VPs,
    // site ~3 km from the trusted VP): fakes form their own layer;
    // verification does not crown a fake even under a 400% flood from
    // 15% colluding attackers (away from the trusted VP's vicinity).
    let params = GeometricParams::default();
    let mut successes = 0;
    let runs = 8;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let mut map = SyntheticViewmap::generate(&params, &mut rng);
        if map.site_members().iter().all(|&i| !map.legit[i]) {
            successes += 1; // witness-free site: nothing to attack
            continue;
        }
        map.inject_attack(
            &AttackConfig {
                n_attackers: 150,
                attacker_hops: (6, 25),
                fake_ratio: 4.0,
                dummies_per_attacker: 0,
            },
            &mut rng,
        );
        let o = map.run_verification();
        if o.success {
            successes += 1;
        }
    }
    assert!(
        successes >= runs - 1,
        "verification lost too often: {successes}/{runs}"
    );
}

#[test]
fn stolen_vp_id_cannot_claim_someone_elses_reward() {
    let srv = server(8);
    let mut rng = StdRng::seed_from_u64(9);
    let (fin, _) = exchange_minute(
        &mut rng,
        0,
        |s| GeoPos::new(s as f64, 0.0),
        |s| GeoPos::new(s as f64, 30.0),
    );
    let id = fin.profile.id();
    srv.submit(AnonymousSubmission {
        session_id: 1,
        vp: fin.profile.into_stored(),
    })
    .unwrap();
    srv.post_reward(id, 5);
    // The attacker knows the (public) VP id but not Q_u.
    for guess in 0..20u64 {
        let mut q = [0u8; 8];
        q[..8].copy_from_slice(&guess.to_le_bytes());
        assert!(srv.claim_reward(id, &q).is_err());
    }
    // The rightful owner still can.
    assert_eq!(srv.claim_reward(id, &fin.secret), Ok(5));
}

#[test]
fn forged_cash_and_cross_server_cash_rejected() {
    let srv_a = server(10);
    let srv_b = server(11);
    let mut rng = StdRng::seed_from_u64(12);
    // Mint legitimate cash on server A.
    let (fin, _) = exchange_minute(
        &mut rng,
        0,
        |s| GeoPos::new(s as f64, 0.0),
        |s| GeoPos::new(s as f64, 30.0),
    );
    let id = fin.profile.id();
    let secret = fin.secret;
    srv_a
        .submit(AnonymousSubmission {
            session_id: 1,
            vp: fin.profile.into_stored(),
        })
        .unwrap();
    srv_a.post_reward(id, 1);
    let mut wallet = viewmap::core::reward::Wallet::new();
    let (pending, blinded) = wallet.prepare(&mut rng, srv_a.public_key(), 1);
    let signed = srv_a.issue_blind_signatures(id, &secret, &blinded).unwrap();
    wallet.accept_signed(srv_a.public_key(), pending, &signed);
    // Valid on A...
    assert!(srv_a.redeem(&wallet.cash[0]).is_ok());
    // ...worthless on B (different key).
    assert!(srv_b.redeem(&wallet.cash[0]).is_err());
}

#[test]
fn anonymity_channel_gives_server_no_stable_handle() {
    // The privacy requirement behind the Tor substitution: across many
    // batches from the same vehicle, session ids never repeat, so the
    // server cannot group a vehicle's uploads.
    let mut rng = StdRng::seed_from_u64(13);
    let mut channel = viewmap::core::upload::AnonymousChannel::new();
    let mut seen = std::collections::HashSet::new();
    for round in 0..20u64 {
        let (fin, _) = exchange_minute(
            &mut rng,
            round * 60,
            move |s| GeoPos::new((round * 60 + s) as f64 * 10.0, 0.0),
            move |s| GeoPos::new((round * 60 + s) as f64 * 10.0, 30.0),
        );
        channel.enqueue(fin.profile);
        for sub in channel.flush(&mut rng) {
            assert!(
                seen.insert(sub.session_id),
                "session id reuse across batches"
            );
        }
    }
}

#[test]
fn dos_flood_of_malformed_vps_cannot_fill_the_database() {
    let srv = server(14);
    let mut rng = StdRng::seed_from_u64(15);
    let mut accepted = 0;
    for i in 0..50 {
        // Flood: random VD counts, saturated blooms, duplicates.
        let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
        let secs = 1 + (i % 59);
        for s in 0..secs {
            b.record_second(b"junk", GeoPos::new(s as f64, 0.0));
        }
        let mut vp = b.finalize().profile.into_stored();
        if rng.gen_bool(0.5) {
            vp.bloom = BloomFilter::from_bytes(vec![0xff; 256], 8);
        }
        if srv
            .submit(AnonymousSubmission {
                session_id: i as u64,
                vp,
            })
            .is_ok()
        {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 0, "malformed flood must be fully rejected");
    assert_eq!(srv.total_vps(), 0);
}

/// One minute of `n` vehicles of `kind` driving east in a line from
/// `(x0, y)`, 100 m apart, each hearing every other every second — and
/// nobody else (a colluding convoy exchanges only among itself).
fn convoy(n: usize, x0: f64, y: f64, kind: VpKind, seed: u64) -> Vec<StoredVp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let at = |i: usize, s: u64| GeoPos::new(x0 + i as f64 * 100.0 + s as f64 * 10.0, y);
    let mut builders: Vec<VpBuilder> = (0..n)
        .map(|i| VpBuilder::new(&mut rng, 0, at(i, 0), kind))
        .collect();
    for s in 0..SECONDS_PER_VP {
        let vds: Vec<_> = builders
            .iter_mut()
            .enumerate()
            .map(|(i, b)| b.record_second(&[seed as u8, i as u8, s as u8], at(i, s)))
            .collect();
        for (i, b) in builders.iter_mut().enumerate() {
            for (j, vd) in vds.iter().enumerate() {
                if i != j {
                    b.accept_neighbor_vd(*vd, s + 1, at(i, s));
                }
            }
        }
    }
    builders
        .into_iter()
        .map(|b| b.finalize().profile.into_stored())
        .collect()
}

#[test]
fn a_network_peer_cannot_mint_trust_anchors() {
    // Lemma 2 bounds Sybil trust only if seeds come from authorities.
    // An attacker convoy uploads its VPs over the public wire with the
    // record's `trusted` byte set; the service must store them as the
    // anonymous uploads they are.
    let mut honest = convoy(5, 0.0, 0.0, VpKind::Actual, 30);
    let police = honest.remove(0);
    let fakes = convoy(4, 50.0, 60.0, VpKind::Trusted, 31);
    assert!(
        fakes.iter().all(|vp| vp.trusted),
        "the byte is set on the wire"
    );

    let mut rng = StdRng::seed_from_u64(32);
    let server = std::sync::Arc::new(ViewMapServer::new(&mut rng, 512, ViewmapConfig::default()));
    let service = VmService::spawn(
        std::sync::Arc::clone(&server),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("spawn service");
    let mut client = VmClient::connect(service.addr()).expect("connect");
    server.submit_trusted_batch(vec![police.clone()])[0].expect("authority upload");
    let acks = client.submit_pipelined(&honest).expect("honest uploads");
    assert!(acks.iter().all(|a| a.is_ok()));
    for fake in &fakes {
        client.submit(fake).expect("fake upload");
        let stored = server.lookup_vp(fake.id).expect("stored");
        assert!(!stored.trusted, "a wire VP was stored as a trust seed");
    }

    let site = Site {
        center: GeoPos::new(500.0, 30.0),
        radius_m: 1500.0,
    };
    let vm = server.build_viewmap(MinuteId(0), site);
    let seeds: Vec<_> = vm.trusted.iter().map(|&i| vm.vps[i].id).collect();
    assert_eq!(seeds, vec![police.id], "only the authority VP seeds trust");
    assert_eq!(
        vm.len(),
        1 + honest.len() + fakes.len(),
        "everyone is a member"
    );

    let solicited = client.investigate(MinuteId(0), site).expect("investigate");
    assert!(
        honest.iter().any(|vp| solicited.contains(&vp.id)),
        "the honest convoy is verified"
    );
    for fake in &fakes {
        assert!(!solicited.contains(&fake.id), "a fake was solicited");
    }
}
