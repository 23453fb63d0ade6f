//! Replication torture: live shipping, catch-up after disconnects and
//! fresh joins, byte-equivalent promotion that redeems pre-failover
//! cash, and — the robustness core — injured wire frames that
//! quarantine the connection and resync via catch-up without ever
//! poisoning the follower's store.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufReader;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{MinuteId, VpId};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::ViewmapConfig;
use viewmap_core::vp::StoredVp;
use vm_bench::worlds::synthetic_vp;
use vm_crypto::RsaKeyPair;
use vm_repl::{Follower, FollowerConfig, Primary, ReplMsg, ReplicationConfig};
use vm_store::StoreConfig;

const KEY_BITS: usize = 512;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("vm_repl_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A follower applier counter, read from the replica's registry.
fn applier_count(follower: &Follower, name: &str) -> u64 {
    follower
        .server()
        .obs()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

fn submit(srv: &ViewMapServer, vp: StoredVp) {
    srv.submit(AnonymousSubmission { session_id: 0, vp })
        .expect("synthetic VP admitted");
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

fn assert_state_equal(a: &ViewMapServer, b: &ViewMapServer, minutes: u64, ctx: &str) {
    assert_eq!(a.state_digest(), b.state_digest(), "{ctx}: state digest");
    for m in 0..minutes {
        let ia: Vec<VpId> = a.minute_vps(MinuteId(m)).iter().map(|vp| vp.id).collect();
        let ib: Vec<VpId> = b.minute_vps(MinuteId(m)).iter().map(|vp| vp.id).collect();
        assert_eq!(ia, ib, "{ctx}: minute {m} bucket order");
    }
}

fn segment_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".vmseg"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn live_shipping_catch_up_and_rejoin_converge_bytewise() {
    let ptmp = TempDir::new("p_live");
    let ftmp = TempDir::new("f_live");
    let mut rng = StdRng::seed_from_u64(1);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);

    let (primary, _) = Primary::open(
        &ptmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();

    // Records written *before* any follower exists: fresh-join catch-up.
    for t in 0..10 {
        submit(primary.server(), synthetic_vp(t, t % 2));
    }

    let (follower, _) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        primary.repl_addr(),
        FollowerConfig {
            backoff_seed: 0x5eed,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    wait_until("fresh-join catch-up", Duration::from_secs(10), || {
        follower.server().state_digest() == primary.server().state_digest()
    });

    // Live shipping on an established stream.
    for t in 10..20 {
        submit(primary.server(), synthetic_vp(t, t % 2));
    }
    wait_until("live convergence", Duration::from_secs(10), || {
        follower.server().state_digest() == primary.server().state_digest()
    });
    assert_state_equal(follower.server(), primary.server(), 2, "live");
    assert!(applier_count(&follower, "vm_repl_wire_injuries_total") == 0);

    // Disconnect (drop the follower entirely), keep writing, rejoin on
    // the same directory: cursors position catch-up at the stale tail.
    follower.server().sync_wal().unwrap();
    drop(follower);
    for t in 20..30 {
        submit(primary.server(), synthetic_vp(t, t % 2));
    }
    let (follower, report) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        primary.repl_addr(),
        FollowerConfig {
            backoff_seed: 0x5eed + 1,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.records, 20, "replica recovered its own log");
    assert!(!report.fresh_signing_key, "shared keyfile persisted");
    wait_until("rejoin catch-up", Duration::from_secs(10), || {
        follower.server().state_digest() == primary.server().state_digest()
    });
    assert_state_equal(follower.server(), primary.server(), 2, "rejoin");

    // The replica's segments are the primary's, byte for byte.
    primary.server().sync_wal().unwrap();
    follower.server().sync_wal().unwrap();
    assert_eq!(
        segment_bytes(&ptmp.0),
        segment_bytes(&ftmp.0),
        "segment files diverge"
    );
}

#[test]
fn promotion_is_byte_equivalent_and_redeems_prefailover_cash() {
    let ptmp = TempDir::new("p_promote");
    let ftmp = TempDir::new("f_promote");
    let mut rng = StdRng::seed_from_u64(2);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);

    let (primary, _) = Primary::open(
        &ptmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        ReplicationConfig {
            sync_ack: true,
            ..ReplicationConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        primary.repl_addr(),
        FollowerConfig::default(),
    )
    .unwrap();
    wait_until("follower attach", Duration::from_secs(10), || {
        primary.hub().follower_count() == 1
    });

    // Acked writes: sync_ack means every returned submit is on the
    // follower before the next one starts.
    let accepted: Vec<StoredVp> = (0..12).map(|t| synthetic_vp(t, t % 3)).collect();
    for vp in &accepted {
        submit(primary.server(), vp.clone());
    }

    // A pre-failover reward round under the shared key: the wallet's
    // unblinded cash must survive the primary's death.
    let genuine = synthetic_vp(900, 0);
    let secret = *b"QuSecret";
    let vp_id = VpId::from_secret(&secret);
    let mut reward_vp = genuine.clone();
    reward_vp.id = vp_id;
    for vd in &mut reward_vp.vds {
        vd.vp_id = vp_id;
    }
    submit(primary.server(), reward_vp.clone());
    primary.server().post_reward(vp_id, 2);
    let mut wallet = viewmap_core::reward::Wallet::new();
    let (pending, blinded) = wallet.prepare(&mut rng, primary.server().public_key(), 2);
    let signed = primary
        .server()
        .issue_blind_signatures(vp_id, &secret, &blinded)
        .unwrap();
    assert_eq!(
        wallet.accept_signed(primary.server().public_key(), pending, &signed),
        2
    );

    let shipped = primary.hub().shipped_ops();
    wait_until("acks drained", Duration::from_secs(10), || {
        primary.hub().watermark() >= shipped
    });

    // The primary dies abruptly: replication sockets and listener go
    // away; nothing tells the follower anything.
    drop(primary);

    let (promoted, epoch) = follower.promote().unwrap();
    assert_eq!(epoch, 2, "promotion entered the next epoch");

    // Zero acked-write loss, byte-equivalence against an oracle fed
    // exactly the acked operations in accepted order.
    let oracle = ViewMapServer::with_key(key.clone(), ViewmapConfig::default());
    for vp in &accepted {
        submit(&oracle, vp.clone());
    }
    submit(&oracle, reward_vp);
    assert_state_equal(&promoted, &oracle, 3, "promoted vs oracle");

    // The promoted follower shares the dead primary's RSA identity, so
    // pre-failover cash redeems — once.
    assert_eq!(wallet.cash.len(), 2);
    promoted.redeem(&wallet.cash[0]).unwrap();
    assert!(matches!(
        promoted.redeem(&wallet.cash[0]),
        Err(viewmap_core::server::RedeemError::DoubleSpend)
    ));
    promoted.redeem(&wallet.cash[1]).unwrap();

    // And it serves writes: the store stayed attached through
    // promotion, logging to the segments replication built.
    submit(&promoted, synthetic_vp(901, 0));
    promoted.sync_wal().unwrap();
}

/// A scripted peer standing in for the primary: speaks just enough of
/// the protocol to inject precisely-injured `FRAMES` payloads.
fn fake_primary_session(
    listener: &TcpListener,
    serve: impl FnOnce(&mut dyn FnMut(ReplMsg), ReplMsg) -> Vec<ReplMsg>,
) -> Vec<ReplMsg> {
    let (stream, _) = listener.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello = ReplMsg::read_from(&mut reader)
        .unwrap()
        .expect("follower HELLO");
    let mut writer = stream.try_clone().unwrap();
    let mut send = |msg: ReplMsg| msg.write_to(&mut writer).unwrap();
    send(ReplMsg::HelloOk { epoch: 1 });
    let expect_acks = serve(&mut send, hello);
    let mut acks = Vec::new();
    for _ in &expect_acks {
        match ReplMsg::read_from(&mut reader) {
            Ok(Some(msg)) => acks.push(msg),
            _ => break,
        }
    }
    acks
}

#[test]
fn injured_wire_frames_quarantine_the_connection_not_the_store() {
    let ftmp = TempDir::new("f_injury");
    let mut rng = StdRng::seed_from_u64(3);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let (follower, _) = Follower::open(
        &ftmp.0,
        key,
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        addr,
        FollowerConfig {
            backoff_seed: 7,
            ..FollowerConfig::default()
        },
    )
    .unwrap();

    let frame = |tag: u64| {
        let mut frames = vm_store::Frames::default();
        frames.push(&[&synthetic_vp(tag, 0)]);
        frames.bytes().to_vec()
    };

    // Session 1: one good frame, then a corrupted one, then another
    // good one the injury must mask.
    let mut corrupt = frame(1);
    let len = corrupt.len();
    corrupt[len / 2] ^= 0x80;
    let acks = fake_primary_session(&listener, |send, hello| {
        assert!(matches!(&hello, ReplMsg::Hello { cursors, .. } if cursors.is_empty()));
        send(ReplMsg::Frames {
            op: 1,
            minute: 0,
            frames: [frame(0), corrupt, frame(2)].concat(),
        });
        Vec::new() // the injury drops the connection; no ack comes
    });
    assert!(acks.is_empty());
    wait_until("valid prefix applied", Duration::from_secs(10), || {
        follower.server().total_vps() == 1
    });
    assert_eq!(applier_count(&follower, "vm_repl_wire_injuries_total"), 1);
    assert!(
        follower.server().lookup_vp(synthetic_vp(0, 0).id).is_some(),
        "the frame before the injury is committed data"
    );

    // Session 2 (the redial): the follower's cursor says it already
    // holds 1 record of minute 0 — catch-up positioning survived the
    // injury. Re-ship the tail, overlapping the committed record to
    // prove dedup keeps overlap harmless.
    let acks = fake_primary_session(&listener, |send, hello| {
        match &hello {
            ReplMsg::Hello { cursors, .. } => {
                assert_eq!(cursors.as_slice(), &[(0, 1)], "cursor after injury")
            }
            other => panic!("expected HELLO, got {other:?}"),
        }
        let msg = ReplMsg::Frames {
            op: 1,
            minute: 0,
            frames: [frame(0), frame(1), frame(2)].concat(),
        };
        send(msg.clone());
        vec![msg]
    });
    assert_eq!(acks, vec![ReplMsg::Ack { op: 1 }]);
    wait_until("resync converged", Duration::from_secs(10), || {
        follower.server().total_vps() == 3
    });
    assert_eq!(applier_count(&follower, "vm_repl_wire_injuries_total"), 1);
    assert!(applier_count(&follower, "vm_repl_resyncs_total") >= 1);

    // The store took only valid records: reopen it clean.
    follower.server().sync_wal().unwrap();
    drop(follower);
    let mut rng2 = StdRng::seed_from_u64(4);
    let (srv, report) = <ViewMapServer as vm_store::PersistentServer>::open(
        &mut rng2,
        KEY_BITS,
        ViewmapConfig::default(),
        &ftmp.0,
        StoreConfig::from_env(),
    )
    .unwrap();
    assert_eq!(report.records, 3);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.torn_segments, 0, "no injury reached the log");
    assert_eq!(srv.total_vps(), 3);
}

#[test]
fn torn_and_corrupted_primary_segments_ship_only_the_committed_prefix() {
    let ptmp = TempDir::new("p_torn");
    let ftmp = TempDir::new("f_torn");
    let mut rng = StdRng::seed_from_u64(5);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);

    // Write a log, then injure it the way vm-store's fault tooling
    // does: tear the last frame of minute 0, flip a byte inside the
    // last frame of minute 1.
    {
        let (srv, _) = <ViewMapServer as vm_store::PersistentServer>::open_with_key(
            key.clone(),
            ViewmapConfig::default(),
            &ptmp.0,
            StoreConfig::from_env(),
        )
        .unwrap();
        for t in 0..8 {
            submit(&srv, synthetic_vp(t, t % 2));
        }
        srv.sync_wal().unwrap();
    }
    for minute in 0..2u64 {
        let path = vm_store::segment::segment_path(&ptmp.0, MinuteId(minute));
        let spans = vm_store::fault::segment_frames(&path).unwrap();
        let last = spans.last().unwrap();
        if minute == 0 {
            vm_store::fault::tear_at(&path, last.offset + last.len / 2).unwrap();
        } else {
            vm_store::fault::corrupt_at(&path, last.offset + last.len / 2).unwrap();
        }
    }

    // The primary recovers the committed prefix (3 + 3 records), and
    // that prefix is all a joining follower ever sees.
    let (primary, report) = Primary::open(
        &ptmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    assert_eq!(report.records, 6, "one record truncated per segment");
    assert_eq!(report.torn_segments, 2);

    let (follower, _) = Follower::open(
        &ftmp.0,
        key,
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        primary.repl_addr(),
        FollowerConfig::default(),
    )
    .unwrap();
    wait_until("injured-log catch-up", Duration::from_secs(10), || {
        follower.server().state_digest() == primary.server().state_digest()
    });
    assert_eq!(follower.server().total_vps(), 6);
    assert_eq!(applier_count(&follower, "vm_repl_wire_injuries_total"), 0);
    assert_state_equal(follower.server(), primary.server(), 2, "injured log");
}

#[test]
fn shipped_runs_are_the_segment_bytes_with_consecutive_ops() {
    // A raw-TCP fake follower (HELLO with empty cursors) on a real
    // primary. Every FRAMES payload must be `op | minute | segment
    // frames back to back`, the runs shipped for a minute must
    // concatenate to that minute's segment file after its header, and
    // ops must count 1, 2, 3, … — including the several ops one batch
    // larger than a message spans.
    use vm_repl::wire::{MAX_FRAMES_MSG_BYTES, OP_REPL_FRAMES};
    use vm_service::proto::Frame;
    use vm_store::segment::{segment_path, FRAME_MAGIC, SEGMENT_HEADER_BYTES};

    let ptmp = TempDir::new("p_bytes");
    let mut rng = StdRng::seed_from_u64(6);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let (primary, _) = Primary::open(
        &ptmp.0,
        key,
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        ReplicationConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();

    let stream = std::net::TcpStream::connect(primary.repl_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    ReplMsg::Hello {
        epoch: 1,
        cursors: Vec::new(),
    }
    .write_to(&mut stream.try_clone().unwrap())
    .unwrap();
    assert_eq!(
        ReplMsg::read_from(&mut reader).unwrap(),
        Some(ReplMsg::HelloOk { epoch: 1 })
    );
    wait_until("fake follower admitted", Duration::from_secs(10), || {
        primary.hub().follower_count() == 1
    });
    // Drain on a thread: a multi-MB append outruns the socket buffer.
    let received = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&received);
    let drain = std::thread::spawn(move || {
        while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
            sink.lock().unwrap().push(frame);
        }
    });

    for t in 0..6 {
        submit(primary.server(), synthetic_vp(t, t % 2));
    }
    let big: Vec<StoredVp> = (100..2200).map(|t| synthetic_vp(t, 0)).collect();
    let big_bytes: usize = {
        let mut frames = vm_store::Frames::default();
        frames.push(&big.iter().collect::<Vec<_>>());
        frames.bytes().len()
    };
    assert!(
        big_bytes > MAX_FRAMES_MSG_BYTES,
        "the batch spans several ops"
    );
    let acks = primary.server().submit_batch(
        big.into_iter()
            .map(|vp| AnonymousSubmission { session_id: 0, vp }),
    );
    assert!(acks.iter().all(|a| a.is_ok()));
    for t in 6..10 {
        submit(primary.server(), synthetic_vp(t, t % 2));
    }
    let shipped = primary.hub().shipped_ops();
    assert!(
        shipped >= 10 + 2,
        "{shipped} ops for 10 singles and one big batch"
    );
    wait_until("every op received", Duration::from_secs(30), || {
        received.lock().unwrap().len() as u64 == shipped
    });
    primary.server().sync_wal().unwrap();

    let mut runs: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
    for (i, frame) in received.lock().unwrap().iter().enumerate() {
        assert_eq!(frame.opcode, OP_REPL_FRAMES);
        let word = |at: usize| u64::from_le_bytes(frame.payload[at..at + 8].try_into().unwrap());
        assert_eq!(word(0), i as u64 + 1, "ops are consecutive from 1");
        let run = &frame.payload[16..];
        assert_eq!(
            run[..4],
            FRAME_MAGIC,
            "a FRAMES payload is op | minute | segment frames back to back"
        );
        runs.entry(word(8)).or_default().extend_from_slice(run);
    }
    assert_eq!(runs.len(), 2);
    for (minute, shipped) in &runs {
        let disk = std::fs::read(segment_path(&ptmp.0, MinuteId(*minute))).unwrap();
        assert!(
            shipped[..] == disk[SEGMENT_HEADER_BYTES..],
            "minute {minute}: shipped bytes are not the segment's bytes"
        );
    }
    drop(primary);
    drain.join().unwrap();
}
