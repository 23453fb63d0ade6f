//! Cross-crate integration tests: the full ViewMap pipeline from driving
//! to reward, including the adversarial paths.

use rand::rngs::StdRng;
use rand::SeedableRng;
use viewmap::core::reward::Wallet;
use viewmap::core::server::{RedeemError, RewardError, ViewMapServer};
use viewmap::core::solicit::{UploadError, VideoUpload};
use viewmap::core::types::{GeoPos, MinuteId, SECONDS_PER_VP};
use viewmap::core::upload::AnonymousChannel;
use viewmap::core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap::core::vp::{FinalizedMinute, StoredVp, VpBuilder, VpKind};
use viewmap::service::{ServiceConfig, VmClient, VmService};

/// Drive a convoy of `n` vehicles along a line, all exchanging VDs with
/// every vehicle in DSRC range; vehicle 0 is a police car.
fn convoy(n: usize, spacing: f64, seed: u64) -> (Vec<FinalizedMinute>, Vec<Vec<Vec<u8>>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builders: Vec<VpBuilder> = (0..n)
        .map(|i| {
            let kind = if i == 0 {
                VpKind::Trusted
            } else {
                VpKind::Actual
            };
            VpBuilder::new(&mut rng, 0, GeoPos::new(i as f64 * spacing, 0.0), kind)
        })
        .collect();
    let mut videos: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    for s in 0..SECONDS_PER_VP {
        let now = s + 1;
        let locs: Vec<GeoPos> = (0..n)
            .map(|i| GeoPos::new(i as f64 * spacing + s as f64 * 11.0, 0.0))
            .collect();
        let vds: Vec<_> = (0..n)
            .map(|i| {
                let chunk: Vec<u8> = (0..64u64)
                    .map(|j| ((seed + i as u64 * 13 + s * 7 + j) % 251) as u8)
                    .collect();
                let vd = builders[i].record_second(&chunk, locs[i]);
                videos[i].push(chunk);
                vd
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                if i != j && locs[i].distance(&locs[j]) <= 399.0 {
                    builders[i].accept_neighbor_vd(vds[j], now, locs[i]);
                }
            }
        }
    }
    (builders.into_iter().map(|b| b.finalize()).collect(), videos)
}

#[test]
fn full_pipeline_drive_to_reward() {
    let (mut fins, videos) = convoy(6, 150.0, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let server = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());

    // Police VP through the authority channel; others anonymously.
    let police = fins.remove(0);
    server.submit_trusted_batch(vec![police.profile.into_stored()])[0].expect("trusted accepted");
    let mut channel = AnonymousChannel::new();
    let witness = &fins[2]; // vehicle 3 of the original convoy
    let witness_id = witness.profile.id();
    let witness_secret = witness.secret;
    let witness_video = videos[3].clone();
    for fin in &fins {
        channel.enqueue(fin.profile.clone());
    }
    for sub in channel.flush(&mut rng) {
        server.submit(sub).expect("accepted");
    }
    assert_eq!(server.total_vps(), 6);

    // Incident near vehicle 3's trajectory.
    let site = Site {
        center: GeoPos::new(3.0 * 150.0 + 300.0, 0.0),
        radius_m: 250.0,
    };
    let vm = server.build_viewmap(MinuteId(0), site);
    assert!(vm.edge_count() >= 5, "convoy should be chained");
    let solicited = server.investigate(MinuteId(0), site);
    assert!(
        solicited.contains(&witness_id),
        "witness must be solicited; got {solicited:?}"
    );

    // Upload, validate, reward, spend.
    server
        .upload_video(&VideoUpload {
            vp_id: witness_id,
            chunks: witness_video,
        })
        .expect("honest video validates");
    server.post_reward(witness_id, 2);
    let mut wallet = Wallet::new();
    let units = server.claim_reward(witness_id, &witness_secret).unwrap();
    let (pending, blinded) = wallet.prepare(&mut rng, server.public_key(), units);
    let signed = server
        .issue_blind_signatures(witness_id, &witness_secret, &blinded)
        .unwrap();
    assert_eq!(
        wallet.accept_signed(server.public_key(), pending, &signed),
        2
    );
    for cash in &wallet.cash {
        assert_eq!(server.redeem(cash), Ok(()));
    }
    assert_eq!(
        server.redeem(&wallet.cash[1]),
        Err(RedeemError::DoubleSpend)
    );
}

#[test]
fn tampered_video_is_rejected_end_to_end() {
    let (mut fins, videos) = convoy(4, 150.0, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let server = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
    let police = fins.remove(0);
    server.submit_trusted_batch(vec![police.profile.into_stored()])[0].unwrap();
    let victim_id = fins[0].profile.id();
    let mut channel = AnonymousChannel::new();
    for fin in &fins {
        channel.enqueue(fin.profile.clone());
    }
    for sub in channel.flush(&mut rng) {
        server.submit(sub).unwrap();
    }
    let site = Site {
        center: GeoPos::new(150.0, 0.0),
        radius_m: 400.0,
    };
    let solicited = server.investigate(MinuteId(0), site);
    assert!(solicited.contains(&victim_id));

    // The attacker intercepts the solicitation and uploads a doctored
    // video under the honest VP id — one frame replaced.
    let mut doctored = videos[1].clone();
    doctored[30] = vec![0u8; 64];
    let err = server
        .upload_video(&VideoUpload {
            vp_id: victim_id,
            chunks: doctored,
        })
        .unwrap_err();
    assert!(matches!(err, UploadError::Chain(_)), "got {err:?}");
}

#[test]
fn reward_requires_ownership_and_board_entry() {
    let (mut fins, _) = convoy(3, 120.0, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let server = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
    let police = fins.remove(0);
    server.submit_trusted_batch(vec![police.profile.into_stored()])[0].unwrap();
    let fin = fins.remove(0);
    let id = fin.profile.id();
    let secret = fin.secret;
    server
        .submit(viewmap::core::upload::AnonymousSubmission {
            session_id: 1,
            vp: fin.profile.into_stored(),
        })
        .unwrap();

    // Not on the board yet.
    assert_eq!(
        server.claim_reward(id, &secret),
        Err(RewardError::NotOnBoard)
    );
    server.post_reward(id, 1);
    // Thief with the wrong secret.
    assert_eq!(
        server.claim_reward(id, &[9u8; 8]),
        Err(RewardError::BadOwnershipProof)
    );
    // Rightful owner succeeds.
    assert_eq!(server.claim_reward(id, &secret), Ok(1));
}

#[test]
fn fake_vps_cannot_enter_an_honest_viewmap() {
    // An attacker fabricates a VP claiming positions inside the site with
    // a bloom filter that *claims* to have heard the honest vehicles; the
    // two-way check keeps it isolated, and verification never marks it.
    let (mut fins, _) = convoy(5, 150.0, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let server = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
    let police = fins.remove(0);
    server.submit_trusted_batch(vec![police.profile.into_stored()])[0].unwrap();
    let honest_profiles: Vec<_> = fins.iter().map(|f| f.profile.clone()).collect();
    let mut channel = AnonymousChannel::new();
    for fin in fins {
        channel.enqueue(fin.profile);
    }
    for sub in channel.flush(&mut rng) {
        server.submit(sub).unwrap();
    }

    // Fabricate the fake: copy claimed positions near the site, poison its
    // bloom with every honest VD it has scraped.
    let mut fake_builder = VpBuilder::new(&mut rng, 0, GeoPos::new(450.0, 5.0), VpKind::Actual);
    for s in 0..SECONDS_PER_VP {
        fake_builder.record_second(b"fake", GeoPos::new(450.0 + s as f64 * 11.0, 5.0));
    }
    let mut fake = fake_builder.finalize();
    for p in &honest_profiles {
        for vd in &p.vds {
            fake.profile.bloom.insert(&vd.bloom_key());
        }
    }
    let fake_id = fake.profile.id();
    server
        .submit(viewmap::core::upload::AnonymousSubmission {
            session_id: 2,
            vp: fake.profile.into_stored(),
        })
        .expect("server cannot tell it is fake at submission time");

    let site = Site {
        center: GeoPos::new(600.0, 0.0),
        radius_m: 300.0,
    };
    let vm = server.build_viewmap(MinuteId(0), site);
    // The fake VP is a member (it claims in-coverage positions) ...
    let fake_idx = vm.vps.iter().position(|vp| vp.id == fake_id);
    assert!(fake_idx.is_some(), "fake should be admitted as a member");
    // ... but has no viewlinks: honest blooms never heard it.
    assert!(
        vm.graph.degree(fake_idx.unwrap()) == 0,
        "two-way check must isolate the fake"
    );
    let solicited = server.investigate(MinuteId(0), site);
    assert!(
        !solicited.contains(&fake_id),
        "fake VP must not be solicited"
    );
}

/// The production investigation path over the wire — `VmClient →
/// VmService → ViewMapServer::investigate`, served from the minute's
/// viewlink memo — through one minute's whole life: first touch, late
/// uploads, follow-ups at other sites, eviction, resubmission. Every
/// wire reply must be what the in-process cold oracle (`Viewmap::build`
/// over the stored bucket, then Algorithm 1) answers for the same
/// stored state.
#[test]
fn wire_investigations_equal_the_cold_oracle_through_a_minutes_life() {
    let cfg = ViewmapConfig::default();
    let (fins, _) = convoy(14, 150.0, 9);
    let mut vps: Vec<StoredVp> = fins.into_iter().map(|f| f.profile.into_stored()).collect();
    let police = vps.remove(0);
    let mut rng = StdRng::seed_from_u64(10);
    let server = std::sync::Arc::new(ViewMapServer::new(&mut rng, 512, cfg));
    let service = VmService::spawn(
        std::sync::Arc::clone(&server),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("spawn service");
    let mut client = VmClient::connect(service.addr()).expect("connect");
    let minute = MinuteId(0);
    let site = |x: f64, radius_m: f64| Site {
        center: GeoPos::new(x, 0.0),
        radius_m,
    };

    // One wire investigation against the oracle; also the in-process
    // viewmap, field for field, members by allocation.
    let check = |client: &mut VmClient, s: Site, ctx: &str| {
        let cold = Viewmap::build(&server.minute_vps(minute), s, minute, &cfg);
        let wire = client.investigate(minute, s).expect("wire investigation");
        assert_eq!(wire, cold.verify_counted(&s, &cfg).1, "{ctx}: wire reply");
        let got = server.build_viewmap(minute, s);
        assert_eq!(got.len(), cold.len(), "{ctx}: member count");
        for (g, c) in got.vps.iter().zip(&cold.vps) {
            assert!(std::sync::Arc::ptr_eq(g, c), "{ctx}: member allocation");
        }
        assert_eq!(got.graph, cold.graph, "{ctx}: adjacency rows");
        assert_eq!(got.trusted, cold.trusted, "{ctx}: trusted indices");
        wire
    };
    let stat = |client: &mut VmClient, name: &str| -> u64 {
        let text = client.stats().expect("stats");
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from STATS"))
    };

    // Nothing stored yet: an empty reply, and no memo for the asking.
    assert!(check(&mut client, site(600.0, 200.0), "empty cell").is_empty());
    assert!(!server.has_maintained(minute));

    // The authority seeds its VP in process; eight vehicles upload.
    server.submit_trusted_batch(vec![police.clone()])[0].expect("trusted");
    let acks = client.submit_pipelined(&vps[..8]).expect("uploads");
    assert!(acks.iter().all(|a| a.is_ok()));

    // First touch at a 200 m site materialises part of the minute.
    let first = check(&mut client, site(600.0, 200.0), "first touch");
    assert!(!first.is_empty(), "the convoy around the site is verified");
    assert!(server.has_maintained(minute));
    let linked_first = stat(&mut client, "vm_core_maintained_misses_total");
    assert!(
        linked_first > 0 && linked_first < 9,
        "a local site links a subset"
    );

    // Late uploads, then follow-ups: local, elsewhere, point, wide.
    for vp in &vps[8..] {
        client.submit(vp).expect("late upload");
    }
    for (k, (x, r)) in [
        (700.0, 200.0),
        (1500.0, 200.0),
        (300.0, 0.0),
        (900.0, 3000.0),
    ]
    .into_iter()
    .enumerate()
    {
        check(&mut client, site(x, r), &format!("follow-up {k}"));
    }
    assert_eq!(
        stat(&mut client, "vm_core_maintained_misses_total"),
        14,
        "every member linked exactly once"
    );
    assert!(stat(&mut client, "vm_core_maintained_hits_total") > 0);
    let again = check(&mut client, site(600.0, 200.0), "first site again");
    assert!(first.iter().all(|id| again.contains(id)));

    // Eviction drops the bucket and its memo together.
    assert_eq!(server.evict_minutes_before(MinuteId(1)), 14);
    assert!(!server.has_maintained(minute));
    assert!(check(&mut client, site(600.0, 200.0), "evicted").is_empty());
    assert!(!server.has_maintained(minute), "no bucket, no memo");

    // Resubmission (eviction forgot the ids) starts from none.
    server.submit_trusted_batch(vec![police])[0].expect("trusted again");
    let acks = client.submit_pipelined(&vps).expect("resubmission");
    assert!(acks.iter().all(|a| a.is_ok()));
    let back = check(&mut client, site(600.0, 200.0), "resubmitted");
    assert_eq!(back, again, "same stored state, same answer");
    check(&mut client, site(900.0, 3000.0), "resubmitted, wide");
    assert_eq!(server.total_vps(), 14);
}
