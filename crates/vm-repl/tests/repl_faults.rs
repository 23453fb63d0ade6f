//! Replication torture: live shipping, catch-up after disconnects and
//! fresh joins, byte-equivalent promotion that redeems pre-failover
//! cash, and — the robustness core — injured wire frames that
//! quarantine the connection and resync via catch-up without ever
//! poisoning the follower's store.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufReader, Write};
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

/// Records a server's store framed itself rather than writing the
/// frames they arrived in (`None` if no store reports to it).
fn encoded_records(srv: &ViewMapServer) -> Option<u64> {
    srv.obs()
        .snapshot()
        .counter("vm_store_encoded_records_total")
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
    assert_eq!(
        encoded_records(follower.server()),
        Some(0),
        "catch-up and live shipping: the replica logs the shipped frames"
    );

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
    assert_eq!(encoded_records(follower.server()), Some(0), "rejoin");
    assert_eq!(
        encoded_records(primary.server()),
        Some(30),
        "the one encode"
    );

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
/// the protocol to inject precisely-shaped `FRAMES` payloads. `serve`
/// sends messages (each call's messages in one write) and names the op
/// whose `ACK` ends the session, if any; the `ACK`s read up to it are
/// returned.
fn fake_primary_session(
    listener: &TcpListener,
    serve: impl FnOnce(&mut dyn FnMut(&[ReplMsg]), ReplMsg) -> Option<u64>,
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
    let mut send = |msgs: &[ReplMsg]| {
        let mut wire = Vec::new();
        for msg in msgs {
            msg.encode(&mut wire);
        }
        writer.write_all(&wire).unwrap();
    };
    send(&[ReplMsg::HelloOk { epoch: 1 }]);
    let Some(last) = serve(&mut send, hello) else {
        return Vec::new();
    };
    let mut acks = Vec::new();
    while let Ok(Some(msg)) = ReplMsg::read_from(&mut reader) {
        let done = msg == ReplMsg::Ack { op: last };
        acks.push(msg);
        if done {
            break;
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
        send(&[ReplMsg::Frames {
            op: 1,
            minute: 0,
            frames: [frame(0), corrupt, frame(2)].concat(),
        }]);
        None // the injury drops the connection; no ack comes
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
        send(&[msg]);
        Some(1)
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

/// Every frame a primary sends to one fake follower.
type Received = std::sync::Arc<std::sync::Mutex<Vec<vm_service::proto::Frame>>>;

/// A raw-TCP follower that never acks: HELLO with empty cursors, then
/// every frame the primary sends, collected on a thread (which ends when
/// the primary closes or detaches the connection).
fn never_acking_follower(primary: &Primary) -> (Received, std::thread::JoinHandle<()>) {
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
    let received = Received::default();
    let sink = std::sync::Arc::clone(&received);
    let drain = std::thread::spawn(move || {
        while let Ok(Some(frame)) = vm_service::proto::Frame::read_from(&mut reader) {
            sink.lock().unwrap().push(frame);
        }
    });
    (received, drain)
}

fn open_primary(dir: &std::path::Path, seed: u64, cfg: ReplicationConfig) -> Primary {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    Primary::open(
        dir,
        key,
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        cfg,
        "127.0.0.1:0",
    )
    .unwrap()
    .0
}

#[test]
fn one_batch_of_sixty_minutes_ships_in_one_flush() {
    use vm_repl::wire::OP_REPL_FRAMES;
    use vm_store::segment::{segment_path, SEGMENT_HEADER_BYTES};

    let ptmp = TempDir::new("p_flush");
    let primary = open_primary(&ptmp.0, 8, ReplicationConfig::default());
    let (received, drain) = never_acking_follower(&primary);
    let flushes = || {
        let snap = primary.server().obs().snapshot();
        let flushes = snap.histogram("vm_repl_ship_us").map_or(0, |h| h.count);
        let ops = snap.counter("vm_repl_shipped_ops_total").unwrap_or(0);
        (flushes, ops)
    };

    let (flushes_before, ops_before) = flushes();
    let results = primary
        .server()
        .submit_batch((0..60).map(|m| AnonymousSubmission {
            session_id: 0,
            vp: synthetic_vp(m, m),
        }));
    assert!(results.iter().all(|r| r.is_ok()));
    let (flushes_after, ops_after) = flushes();
    assert_eq!(flushes_after - flushes_before, 1, "one flush per batch");
    assert_eq!(ops_after - ops_before, 60, "one op per minute group");

    wait_until("every op received", Duration::from_secs(10), || {
        received.lock().unwrap().len() == 60
    });
    primary.server().sync_wal().unwrap();
    let mut runs: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
    for (i, frame) in received.lock().unwrap().iter().enumerate() {
        assert_eq!(frame.opcode, OP_REPL_FRAMES);
        let word = |at: usize| u64::from_le_bytes(frame.payload[at..at + 8].try_into().unwrap());
        assert_eq!(word(0), i as u64 + 1, "ops are consecutive from 1");
        assert_eq!(word(8), i as u64, "groups ship in ascending minute order");
        runs.entry(word(8))
            .or_default()
            .extend_from_slice(&frame.payload[16..]);
    }
    assert_eq!(runs.len(), 60);
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

#[test]
fn a_sync_ack_wait_blocks_no_reader_of_its_minute() {
    let ptmp = TempDir::new("p_syncwait");
    let primary = open_primary(
        &ptmp.0,
        9,
        ReplicationConfig {
            sync_ack: true,
            ack_timeout: Duration::from_secs(2),
            ..ReplicationConfig::default()
        },
    );
    let (received, drain) = never_acking_follower(&primary);

    let vp = synthetic_vp(1, 7);
    let id = vp.id;
    let srv = std::sync::Arc::clone(primary.server());
    let submit = std::thread::spawn(move || {
        let start = Instant::now();
        srv.submit(AnonymousSubmission { session_id: 0, vp })
            .expect("admitted");
        start.elapsed()
    });
    // Once the follower holds the op, the submit is waiting for its ack.
    wait_until("the op shipped", Duration::from_secs(10), || {
        received.lock().unwrap().len() == 1
    });
    let start = Instant::now();
    assert_eq!(primary.server().vp_count(MinuteId(7)), 1);
    assert!(primary.server().lookup_vp(id).is_some());
    let read = start.elapsed();
    assert!(
        read < Duration::from_millis(200),
        "a read of the waiting batch's minute took {read:?}"
    );

    let waited = submit.join().unwrap();
    assert!(
        waited >= Duration::from_millis(1500),
        "the submit returned after {waited:?}, before the ack timeout"
    );
    assert_eq!(
        primary.hub().follower_count(),
        0,
        "the mute follower was detached"
    );
    drop(primary);
    drain.join().unwrap();
}

#[test]
fn watermark_lag_counts_shipped_ops_until_they_are_acked() {
    let ptmp = TempDir::new("p_lag");
    let primary = open_primary(&ptmp.0, 10, ReplicationConfig::default());
    let (received, drain) = never_acking_follower(&primary);

    submit(primary.server(), synthetic_vp(1, 0));
    let snap = primary.server().obs().snapshot();
    let lag_ops = snap.gauge("vm_repl_watermark_lag_ops{follower=\"1\"}");
    let lag_bytes = snap.gauge("vm_repl_watermark_lag_bytes{follower=\"1\"}");
    assert!(lag_ops >= Some(1), "an unacked op reads as lag {lag_ops:?}");
    assert!(lag_bytes > Some(0), "unacked bytes read as {lag_bytes:?}");

    wait_until("the op shipped", Duration::from_secs(10), || {
        received.lock().unwrap().len() == 1
    });
    drop(primary);
    drain.join().unwrap();
}

/// Assert `follower` ended state- and byte-equal to a durable oracle
/// that replayed `shipped` in one batch.
fn assert_matches_replay_oracle(
    follower: &Follower,
    fdir: &std::path::Path,
    key: &RsaKeyPair,
    shipped: Vec<StoredVp>,
    tag: &str,
) {
    let otmp = TempDir::new(tag);
    let (oracle, _) = <ViewMapServer as vm_store::PersistentServer>::open_with_key(
        key.clone(),
        ViewmapConfig::default(),
        &otmp.0,
        StoreConfig::from_env(),
    )
    .unwrap();
    assert!(oracle
        .submit_replay_batch(shipped, None)
        .iter()
        .all(|r| r.is_ok()));
    assert_eq!(
        follower.server().state_digest(),
        oracle.state_digest(),
        "{tag}: state digest"
    );
    follower.server().sync_wal().unwrap();
    oracle.sync_wal().unwrap();
    assert_eq!(
        segment_bytes(fdir),
        segment_bytes(&otmp.0),
        "{tag}: segment files"
    );
}

/// One `FRAMES` message per group of VPs, ops from 1.
fn frames_msgs(groups: &[Vec<StoredVp>]) -> Vec<ReplMsg> {
    groups
        .iter()
        .enumerate()
        .map(|(i, vps)| {
            let mut frames = vm_store::Frames::default();
            frames.push(&vps.iter().collect::<Vec<_>>());
            ReplMsg::Frames {
                op: i as u64 + 1,
                minute: vps[0].minute().0,
                frames: frames.bytes().to_vec(),
            }
        })
        .collect()
}

fn apply_ops(follower: &Follower) -> (u64, u64) {
    let snap = follower.server().obs().snapshot();
    let h = snap.histogram("vm_repl_apply_ops").expect("registered");
    (h.count, h.sum)
}

#[test]
fn a_flush_of_sixty_minutes_applies_in_bursts() {
    let ftmp = TempDir::new("f_burst");
    let mut rng = StdRng::seed_from_u64(11);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        listener.local_addr().unwrap(),
        FollowerConfig::default(),
    )
    .unwrap();

    let vps: Vec<StoredVp> = (0..60).map(|m| synthetic_vp(m, m)).collect();
    let groups: Vec<Vec<StoredVp>> = vps.iter().map(|vp| vec![vp.clone()]).collect();
    let acks = fake_primary_session(&listener, |send, _hello| {
        send(&frames_msgs(&groups));
        Some(60)
    });
    assert!(
        acks.len() < 60,
        "{} ACKs for one write of 60 messages",
        acks.len()
    );
    assert_eq!(acks.last(), Some(&ReplMsg::Ack { op: 60 }));
    assert_eq!(
        apply_ops(&follower),
        (acks.len() as u64, 60),
        "one apply per ACK"
    );
    assert_matches_replay_oracle(&follower, &ftmp.0, &key, vps, "o_burst");
}

#[test]
fn a_stream_past_the_cap_never_applies_more_than_a_burst() {
    use vm_repl::wire::MAX_FRAMES_MSG_BYTES;

    let ftmp = TempDir::new("f_cap");
    let mut rng = StdRng::seed_from_u64(12);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        listener.local_addr().unwrap(),
        FollowerConfig::default(),
    )
    .unwrap();

    // 320 messages of 10 VPs over four minutes: well past one cap.
    let groups: Vec<Vec<StoredVp>> = (0..320u64)
        .map(|i| (0..10).map(|j| synthetic_vp(i * 10 + j, i % 4)).collect())
        .collect();
    let msgs = frames_msgs(&groups);
    let sizes: Vec<usize> = msgs
        .iter()
        .map(|m| match m {
            ReplMsg::Frames { frames, .. } => frames.len(),
            _ => unreachable!(),
        })
        .collect();
    assert!(sizes.iter().sum::<usize>() > MAX_FRAMES_MSG_BYTES);
    let burst_ops = (MAX_FRAMES_MSG_BYTES / sizes.iter().min().unwrap()) as u64 + 1;

    let last = msgs.len() as u64;
    let acks = fake_primary_session(&listener, |send, _hello| {
        send(&msgs);
        Some(last)
    });
    assert_eq!(acks.last(), Some(&ReplMsg::Ack { op: last }));
    assert!((acks.len() as u64) < last, "messages were coalesced");
    let mut acked = 0;
    for ack in &acks {
        let ReplMsg::Ack { op } = ack else {
            panic!("expected ACK, got {ack:?}")
        };
        assert!(
            op - acked <= burst_ops,
            "one apply took ops {}..={op}, more than the cap plus one message ({burst_ops} ops)",
            acked + 1
        );
        acked = *op;
    }
    assert_eq!(apply_ops(&follower), (acks.len() as u64, last));
    let shipped: Vec<StoredVp> = groups.into_iter().flatten().collect();
    assert_matches_replay_oracle(&follower, &ftmp.0, &key, shipped, "o_cap");
}

#[test]
fn a_run_the_replica_partly_holds_logs_only_the_new_frames_verbatim() {
    // The replica already holds records 0..5 of minute 0; the next run
    // re-ships 3 and 4 between new records. Replay dedup drops them,
    // and each record it keeps must reach the log with its own shipped
    // frame: the segments stay the oracle's, byte for byte, and the
    // replica frames nothing itself.
    let ftmp = TempDir::new("f_overlap");
    let mut rng = StdRng::seed_from_u64(13);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key.clone(),
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        listener.local_addr().unwrap(),
        FollowerConfig::default(),
    )
    .unwrap();

    let vp = |tag: u64, minute: u64| synthetic_vp(tag, minute);
    let held: Vec<StoredVp> = (0..5).map(|t| vp(t, 0)).collect();
    let acks = fake_primary_session(&listener, |send, _hello| {
        send(&frames_msgs(std::slice::from_ref(&held)));
        Some(1)
    });
    assert_eq!(acks, vec![ReplMsg::Ack { op: 1 }]);

    let overlap = vec![vp(5, 0), vp(3, 0), vp(6, 0), vp(4, 0), vp(7, 0)];
    let other_minute: Vec<StoredVp> = (0..3).map(|t| vp(100 + t, 1)).collect();
    let acks = fake_primary_session(&listener, |send, hello| {
        let ReplMsg::Hello { cursors, .. } = hello else {
            panic!("expected HELLO, got {hello:?}")
        };
        assert_eq!(
            cursors,
            vec![(0, 5)],
            "the replica holds minute 0's first five"
        );
        let mut msgs = frames_msgs(&[overlap.clone(), other_minute.clone()]);
        for (op, msg) in (2..).zip(&mut msgs) {
            let ReplMsg::Frames { op: at, .. } = msg else {
                unreachable!()
            };
            *at = op;
        }
        send(&msgs);
        Some(3)
    });
    assert_eq!(acks.last(), Some(&ReplMsg::Ack { op: 3 }));
    assert_eq!(follower.server().vp_count(MinuteId(0)), 8);
    assert_eq!(encoded_records(follower.server()), Some(0));
    let fresh: Vec<StoredVp> = overlap
        .into_iter()
        .filter(|vp| held.iter().all(|h| h.id != vp.id))
        .collect();
    let shipped: Vec<StoredVp> = [held, fresh, other_minute].concat();
    assert_matches_replay_oracle(&follower, &ftmp.0, &key, shipped, "o_overlap");
}

/// A raw-TCP follower that handshakes with empty cursors and then never
/// reads another byte: the gray failure where a peer's socket stays
/// open but stops taking bytes.
fn mute_follower(primary: &Primary) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(primary.repl_addr()).unwrap();
    ReplMsg::Hello {
        epoch: 1,
        cursors: Vec::new(),
    }
    .write_to(&mut &stream)
    .unwrap();
    // Read HELLO_OK through a one-byte buffer, so no byte past it
    // leaves the socket.
    let mut reader = BufReader::with_capacity(1, &stream);
    assert_eq!(
        ReplMsg::read_from(&mut reader).unwrap(),
        Some(ReplMsg::HelloOk { epoch: 1 })
    );
    stream
}

/// Ingest `batches` batches of 1000 VPs on a thread; the number that
/// committed within `within`.
fn batches_committed_within(primary: &Primary, first: u64, batches: u64, within: Duration) -> u64 {
    let done = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let (srv, count) = (std::sync::Arc::clone(primary.server()), done.clone());
    std::thread::spawn(move || {
        for b in first..first + batches {
            let results = srv.submit_batch((0..1000).map(|i| AnonymousSubmission {
                session_id: 0,
                vp: synthetic_vp(b * 1000 + i, b % 60),
            }));
            assert!(results.iter().all(|r| r.is_ok()));
            count.fetch_add(1, std::sync::atomic::Ordering::Release);
        }
    });
    let deadline = Instant::now() + within;
    while done.load(std::sync::atomic::Ordering::Acquire) < batches && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    done.load(std::sync::atomic::Ordering::Acquire)
}

/// Check that a primary whose one follower stopped reading kept
/// committing: all 40 batches in, the follower detached once.
fn assert_not_wedged(primary: Primary, committed: u64) {
    if committed < 40 {
        // The primary is stuck writing to the mute socket under its
        // stream lock, which dropping it would wait on too.
        std::mem::forget(primary);
        panic!("{committed} of 40 batches committed: a mute follower wedged the primary");
    }
    assert_eq!(
        primary.hub().follower_count(),
        0,
        "the mute follower was detached"
    );
    let detaches = primary
        .server()
        .obs()
        .snapshot()
        .counter("vm_repl_follower_detaches_total");
    assert_eq!(detaches, Some(1));
}

const MUTE_CFG: ReplicationConfig = ReplicationConfig {
    epoch: 1,
    sync_ack: false,
    ack_timeout: Duration::from_secs(1),
};

#[test]
fn a_follower_that_stops_reading_is_detached_not_waited_on() {
    let ptmp = TempDir::new("p_mute");
    let primary = open_primary(&ptmp.0, 13, MUTE_CFG);
    let _mute = mute_follower(&primary);
    wait_until("mute follower admitted", Duration::from_secs(10), || {
        primary.hub().follower_count() == 1
    });
    let committed = batches_committed_within(&primary, 0, 40, Duration::from_secs(120));
    assert_not_wedged(primary, committed);
}

#[test]
fn a_joiner_that_stops_reading_mid_catch_up_is_detached_not_waited_on() {
    let ptmp = TempDir::new("p_mute_join");
    let primary = open_primary(&ptmp.0, 14, MUTE_CFG);
    // Far more segment bytes than a socket that is never read can hold.
    assert_eq!(
        batches_committed_within(&primary, 0, 10, Duration::from_secs(120)),
        10
    );
    let _mute = mute_follower(&primary);
    let committed = batches_committed_within(&primary, 10, 40, Duration::from_secs(120));
    assert_not_wedged(primary, committed);
}

#[test]
fn a_primary_refuses_a_hello_from_a_later_epoch() {
    let ptmp = TempDir::new("p_fence");
    let primary = open_primary(&ptmp.0, 15, ReplicationConfig::default());
    submit(primary.server(), synthetic_vp(1, 0));
    let stream = std::net::TcpStream::connect(primary.repl_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    ReplMsg::Hello {
        epoch: 2,
        cursors: Vec::new(),
    }
    .write_to(&mut &stream)
    .unwrap();
    // The stale primary closes the link without a HELLO_OK or a frame.
    let reply = ReplMsg::read_from(&mut BufReader::new(&stream));
    assert!(
        matches!(reply, Ok(None)),
        "a follower of a later epoch was answered {reply:?}"
    );
    assert_eq!(primary.hub().follower_count(), 0);
    assert_eq!(primary.hub().shipped_ops(), 0, "nothing shipped to it");
    let connects = primary
        .server()
        .obs()
        .snapshot()
        .counter("vm_repl_follower_connects_total");
    assert_eq!(connects, Some(0));
}

#[test]
fn a_follower_drops_a_hello_ok_from_an_earlier_epoch() {
    let ftmp = TempDir::new("f_fence");
    let mut rng = StdRng::seed_from_u64(16);
    let key = RsaKeyPair::generate(&mut rng, KEY_BITS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (follower, _) = Follower::open(
        &ftmp.0,
        key,
        ViewmapConfig::default(),
        StoreConfig::from_env(),
        listener.local_addr().unwrap(),
        FollowerConfig {
            epoch: 2,
            ..FollowerConfig::default()
        },
    )
    .unwrap();

    // A stale primary answers HELLO with epoch 1 and a FRAMES message in
    // the same write, so both are on the follower's socket before it
    // can hang up.
    for _ in 0..2 {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(&stream);
        let hello = ReplMsg::read_from(&mut reader).unwrap();
        assert!(matches!(hello, Some(ReplMsg::Hello { epoch: 2, .. })));
        let mut wire = Vec::new();
        ReplMsg::HelloOk { epoch: 1 }.encode(&mut wire);
        frames_msgs(&[vec![synthetic_vp(1, 0)]])[0].encode(&mut wire);
        (&stream).write_all(&wire).unwrap();
        // No ACK comes back: the follower hangs up and redials.
        let reply = ReplMsg::read_from(&mut reader);
        assert!(
            !matches!(reply, Ok(Some(_))),
            "the follower answered a stale primary with {reply:?}"
        );
    }
    assert_eq!(follower.server().total_vps(), 0, "nothing applied");
    assert_eq!(applier_count(&follower, "vm_repl_applied_ops_total"), 0);
    assert_eq!(applier_count(&follower, "vm_repl_connects_total"), 0);
    assert!(applier_count(&follower, "vm_repl_resyncs_total") >= 1);
}
