//! The durability acceptance suite: simulated crashes and
//! persisted-vs-live state equivalence.
//!
//! Two properties pin the whole subsystem down:
//!
//! * **Torn-tail recovery** — a segment truncated at *every byte offset*
//!   of its tail record must recover exactly the fully-committed prefix:
//!   no panic, no partial VP, and the file cut back to the last clean
//!   frame boundary so appends can resume.
//! * **Persisted ≡ live** — after arbitrary interleavings of single
//!   submits, batches, trusted batches, and retention sweeps, a server
//!   reopened from disk must be observably identical to the live server
//!   that wrote the log: same totals, same per-minute buckets in order,
//!   same id-index routing, and same viewmap edges (checked via an edge
//!   checksum over the built adjacency).
//!
//! Every test takes its durability policy from `VM_STORE_FSYNC`
//! (default `never`); CI runs the whole file under both policies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use viewmap_core::server::{SubmitError, ViewMapServer};
use viewmap_core::types::{GeoPos, MinuteId, VpId, MINUTE_LIMIT};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::oracle::viewmap_checksum;
use vm_bench::worlds::linked_minute;
use vm_store::{segment, PersistentServer, StoreConfig, VpStore};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "vm_store_crash_{tag}_{}_{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "_")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cfg() -> StoreConfig {
    StoreConfig::from_env()
}

fn site() -> Site {
    Site {
        center: GeoPos::new(400.0, 0.0),
        radius_m: 100_000.0,
    }
}

fn submission(vp: StoredVp) -> AnonymousSubmission {
    AnonymousSubmission { session_id: 0, vp }
}

/// Submit a slice of a linked world in order, each VP through the
/// channel its flag names: the leading trusted seed (if the slice holds
/// it) through the authority batch, the rest as one anonymous batch.
fn submit_world(srv: &ViewMapServer, vps: &[StoredVp]) -> Vec<Result<(), SubmitError>> {
    let seeds = vps.iter().take_while(|vp| vp.trusted).count();
    let mut acks = srv.submit_trusted_batch(vps[..seeds].to_vec());
    acks.extend(srv.submit_batch(vps[seeds..].iter().cloned().map(submission)));
    acks
}

/// Full observable-state equality between two servers over the given
/// minutes and ids: totals, bucket contents in order, index routing,
/// trusted flags, and built-viewmap edges.
fn assert_state_equivalent(
    a: &ViewMapServer,
    b: &ViewMapServer,
    minutes: std::ops::Range<u64>,
    ids: &[VpId],
    ctx: &str,
) {
    assert_eq!(a.total_vps(), b.total_vps(), "{ctx}: total_vps");
    for m in minutes {
        let (va, vb) = (a.minute_vps(MinuteId(m)), b.minute_vps(MinuteId(m)));
        assert_eq!(va.len(), vb.len(), "{ctx}: minute {m} bucket size");
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.id, y.id, "{ctx}: minute {m} bucket order");
            assert_eq!(x.trusted, y.trusted, "{ctx}: minute {m} trusted flag");
        }
        let vma = a.build_viewmap(MinuteId(m), site());
        let vmb = b.build_viewmap(MinuteId(m), site());
        assert_eq!(
            viewmap_checksum(&vma),
            viewmap_checksum(&vmb),
            "{ctx}: minute {m} viewmap edges ({} vs {} edges)",
            vma.edge_count(),
            vmb.edge_count()
        );
    }
    for id in ids {
        match (a.lookup_vp(*id), b.lookup_vp(*id)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.id, y.id, "{ctx}: lookup id");
                assert_eq!(x.minute(), y.minute(), "{ctx}: lookup minute");
            }
            (x, y) => panic!(
                "{ctx}: lookup {id} diverges: live={} reopened={}",
                x.is_some(),
                y.is_some()
            ),
        }
    }
}

// ── Satellite: torn-tail crash simulation ──────────────────────────────

#[test]
fn torn_tail_at_every_byte_offset_recovers_the_committed_prefix() {
    let tmp = TempDir::new("torn_tail");
    let minute = MinuteId(0);
    let world = linked_minute(4, 0, 11);

    // Write 3 records, note the clean length, then the tail record.
    let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
    let seg = segment::segment_path(&tmp.0, minute);
    {
        use viewmap_core::wal::VpWal;
        let refs: Vec<&StoredVp> = world[..3].iter().collect();
        store.append(&refs, None).unwrap();
        store.sync().unwrap();
    }
    let clean_len = std::fs::metadata(&seg).unwrap().len();
    {
        use viewmap_core::wal::VpWal;
        store.append(&[&world[3]], None).unwrap();
        store.sync().unwrap();
    }
    drop(store);
    let pristine = std::fs::read(&seg).unwrap();
    assert!(pristine.len() as u64 > clean_len);

    // Crash at every byte offset of the tail record: the first 3 records
    // must come back bit-identical, the 4th must vanish, and the file
    // must be truncated to the clean boundary.
    for cut in clean_len..pristine.len() as u64 {
        std::fs::write(&seg, &pristine[..cut as usize]).unwrap();
        let (_, vps, report) =
            VpStore::open(&tmp.0, cfg()).unwrap_or_else(|e| panic!("open at cut {cut}: {e}"));
        assert_eq!(vps.len(), 3, "cut {cut}: committed prefix only");
        assert_eq!(report.records, 3, "cut {cut}");
        assert_eq!(
            report.torn_segments,
            usize::from(cut > clean_len),
            "cut {cut}: torn iff bytes past the boundary exist"
        );
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            clean_len,
            "cut {cut}: truncated to the last clean frame"
        );
    }

    // After one representative crash, the log accepts appends again and
    // the next recovery sees old + new.
    std::fs::write(&seg, &pristine[..(clean_len + 7) as usize]).unwrap();
    let (store, vps, _) = VpStore::open(&tmp.0, cfg()).unwrap();
    assert_eq!(vps.len(), 3);
    {
        use viewmap_core::wal::VpWal;
        store.append(&[&world[3]], None).unwrap();
        store.sync().unwrap();
    }
    drop(store);
    let (_, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
    assert_eq!((vps.len(), report.torn_segments), (4, 0));
    for (a, b) in world.iter().zip(&vps) {
        assert_eq!(a.id, b.id, "append-after-recovery order");
    }
}

#[test]
fn torn_tail_recovery_feeds_an_equivalent_server() {
    // End to end: a server recovered from a torn log equals a live
    // server that only ever saw the committed prefix.
    let tmp = TempDir::new("torn_server");
    let world = linked_minute(6, 0, 13);
    let mut rng = StdRng::seed_from_u64(1);
    {
        let (srv, _) =
            ViewMapServer::open(&mut rng, 512, ViewmapConfig::default(), &tmp.0, cfg()).unwrap();
        let results = srv.submit_trusted_batch(vec![world[0].clone()]);
        assert!(results[0].is_ok());
        for vp in &world[1..] {
            srv.submit(submission(vp.clone())).unwrap();
        }
        srv.sync_wal().unwrap();
    }
    // Tear 40 bytes off the tail (mid-record: records are KBs).
    let seg = segment::segment_path(&tmp.0, MinuteId(0));
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 40]).unwrap();

    let (recovered, report) =
        ViewMapServer::open(&mut rng, 512, ViewmapConfig::default(), &tmp.0, cfg()).unwrap();
    assert_eq!(report.records, 5, "tail record torn away");
    assert_eq!(report.torn_segments, 1);
    assert_eq!(report.rejected, 0);

    let live = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
    let r = live.submit_trusted_batch(vec![world[0].clone()]);
    assert!(r[0].is_ok());
    for vp in &world[1..5] {
        live.submit(submission(vp.clone())).unwrap();
    }
    let ids: Vec<VpId> = world.iter().map(|vp| vp.id).collect();
    assert_state_equivalent(&live, &recovered, 0..1, &ids, "torn-tail server");
}

#[test]
fn a_foreign_minute_record_ends_recoverys_committed_prefix() {
    // A checksum-valid record of minute 1 framed inside minute 0's
    // segment (a mis-spliced or hand-edited log) is not a committed
    // frame of minute 0: recovery ends the prefix there and truncates,
    // instead of replaying it into minute 1's bucket — and the good
    // minute-0 record behind it goes with it, as behind any injury.
    let tmp = TempDir::new("foreign_minute");
    let mut rng = StdRng::seed_from_u64(31);
    let vmcfg = ViewmapConfig::default();
    let (minute0, minute1) = (linked_minute(3, 0, 31), linked_minute(2, 1, 31));
    {
        let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        for world in [&minute0, &minute1] {
            let acks = submit_world(&srv, world);
            assert!(acks.iter().all(|a| a.is_ok()));
        }
        srv.sync_wal().unwrap();
    }
    let seg0 = segment::segment_path(&tmp.0, MinuteId(0));
    let clean_len = std::fs::metadata(&seg0).unwrap().len();
    let stray = linked_minute(3, 1, 32).remove(2);
    let behind = linked_minute(4, 0, 32).remove(3);
    let mut frames = segment::Frames::default();
    frames.push(&[&stray, &behind]);
    let mut w = segment::SegmentWriter::open(&tmp.0, MinuteId(0)).unwrap();
    w.append(frames.bytes()).unwrap();
    w.sync().unwrap();
    drop(w);

    let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    assert_eq!(report.records, 5, "only the records each minute wrote");
    assert_eq!(report.torn_segments, 1);
    assert_eq!(report.truncated_bytes, frames.bytes().len() as u64);
    assert_eq!(srv.vp_count(MinuteId(0)), 3);
    assert_eq!(
        srv.vp_count(MinuteId(1)),
        2,
        "nothing replayed into minute 1"
    );
    assert!(srv.lookup_vp(stray.id).is_none());
    assert!(srv.lookup_vp(behind.id).is_none());
    assert_eq!(std::fs::metadata(&seg0).unwrap().len(), clean_len);
}

// ── Satellite: persisted-vs-live equivalence under random traffic ──────

/// One random traffic history applied twice — to a RAM-only server and
/// to a persistent one — then the persistent server is dropped and
/// reopened. All three must agree on every observable.
fn run_random_history(case: u64) {
    let tmp = TempDir::new(&format!("equiv_{case}"));
    let mut rng = StdRng::seed_from_u64(case);
    let vmcfg = ViewmapConfig::default();
    let minutes = 3u64;
    let per_minute = 8usize;

    // The VP pool: a linked world per minute (index 0 trusted).
    let pool: Vec<Vec<StoredVp>> = (0..minutes)
        .map(|m| linked_minute(per_minute, m, 1000 + case))
        .collect();
    let ids: Vec<VpId> = pool.iter().flatten().map(|vp| vp.id).collect();

    let live = ViewMapServer::new(&mut rng, 512, vmcfg);
    let (durable, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();

    let n_ops = rng.gen_range(6..18);
    for _ in 0..n_ops {
        match rng.gen_range(0..4u32) {
            // Single submit (duplicates welcome — both must agree).
            0 => {
                let m = rng.gen_range(0..minutes) as usize;
                let i = rng.gen_range(0..per_minute);
                let vp = &pool[m][i];
                let (a, b) = if vp.trusted {
                    (
                        live.submit_trusted_batch(vec![vp.clone()])[0],
                        durable.submit_trusted_batch(vec![vp.clone()])[0],
                    )
                } else {
                    (
                        live.submit(submission(vp.clone())),
                        durable.submit(submission(vp.clone())),
                    )
                };
                assert_eq!(a, b, "case {case}: single submit outcome");
            }
            // Plain batch of a random slice (may span replays).
            1 => {
                let m = rng.gen_range(0..minutes) as usize;
                let lo = rng.gen_range(0..per_minute);
                let hi = rng.gen_range(lo..=per_minute);
                let a = submit_world(&live, &pool[m][lo..hi]);
                let b = submit_world(&durable, &pool[m][lo..hi]);
                assert_eq!(a, b, "case {case}: batch outcomes");
            }
            // Trusted batch (key-warm path).
            2 => {
                let m = rng.gen_range(0..minutes) as usize;
                let i = rng.gen_range(0..per_minute);
                let a = live.submit_trusted_batch(vec![pool[m][i].clone()]);
                let b = durable.submit_trusted_batch(vec![pool[m][i].clone()]);
                assert_eq!(a, b, "case {case}: trusted batch outcomes");
            }
            // Retention sweep.
            _ => {
                let cutoff = MinuteId(rng.gen_range(0..=minutes));
                let a = live.evict_minutes_before(cutoff);
                let b = durable.evict_minutes_before(cutoff);
                assert_eq!(a, b, "case {case}: eviction count at {cutoff:?}");
            }
        }
    }

    // Live vs durable before the restart...
    assert_state_equivalent(
        &live,
        &durable,
        0..minutes,
        &ids,
        &format!("case {case}: pre"),
    );
    durable.sync_wal().unwrap();
    drop(durable);

    // ...and vs the server recovered from disk after it.
    let (reopened, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    assert_eq!(report.rejected, 0, "case {case}: replay must screen clean");
    assert_eq!(report.torn_segments, 0, "case {case}: graceful shutdown");
    assert_state_equivalent(
        &live,
        &reopened,
        0..minutes,
        &ids,
        &format!("case {case}: post-recovery"),
    );
    assert_eq!(
        live.total_vps(),
        report.records,
        "case {case}: the log holds exactly the live records"
    );
}

#[test]
fn persisted_equals_live_across_random_submit_batch_evict_histories() {
    // A spread of deterministic histories; each exercises a different
    // interleaving of singles, batches, trusted batches, and sweeps.
    for case in 0..12u64 {
        run_random_history(case);
    }
}

#[test]
fn eviction_drops_segments_and_memory_together() {
    let tmp = TempDir::new("evict");
    let mut rng = StdRng::seed_from_u64(5);
    let vmcfg = ViewmapConfig::default();
    let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    for m in 0..4u64 {
        let world = linked_minute(3, m, 77);
        let results = submit_world(&srv, &world);
        assert!(results.iter().all(|r| r.is_ok()));
    }
    assert_eq!(srv.total_vps(), 12);
    for m in 0..4u64 {
        assert!(segment::segment_path(&tmp.0, MinuteId(m)).exists());
    }

    assert_eq!(srv.evict_minutes_before(MinuteId(2)), 6);
    for m in 0..2u64 {
        assert!(
            !segment::segment_path(&tmp.0, MinuteId(m)).exists(),
            "minute {m} segment must be deleted with the memory sweep"
        );
    }
    drop(srv);

    let (reopened, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    assert_eq!(report.segments, 2);
    assert_eq!(reopened.total_vps(), 6);
    for m in 0..2u64 {
        assert_eq!(reopened.vp_count(MinuteId(m)), 0, "minute {m} stays gone");
    }
    // Evicted ids are submittable again — on both layers.
    let world = linked_minute(3, 0, 77);
    reopened.submit(submission(world[1].clone())).unwrap();
    assert_eq!(reopened.vp_count(MinuteId(0)), 1);
}

#[test]
fn recovered_server_is_key_cold_and_investigates_identically() {
    // Recovery replays like a follower: no recovered VP holds its link
    // keys yet, and the first investigation after a restart, which
    // hashes them lazily, must match the pre-restart one.
    let tmp = TempDir::new("cold");
    let mut rng = StdRng::seed_from_u64(9);
    let vmcfg = ViewmapConfig::default();
    let world = linked_minute(10, 0, 21);
    let before;
    {
        let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        let results = submit_world(&srv, &world);
        assert!(results.iter().all(|r| r.is_ok()));
        before = viewmap_checksum(&srv.build_viewmap(MinuteId(0), site()));
        srv.sync_wal().unwrap();
    }
    let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    for vp in srv.minute_vps(MinuteId(0)) {
        assert!(!vp.is_key_warm(), "recovered VP {} is key-warm", vp.id);
    }
    let after = viewmap_checksum(&srv.build_viewmap(MinuteId(0), site()));
    assert_eq!(before, after, "restart changed the investigation outcome");
}

#[test]
fn a_minute_the_store_cannot_name_is_refused_and_every_ack_recovers() {
    // A segment is named by its minute in 12 digits. A VP at minute
    // 10¹² would be acked, logged under a 13-digit name, and skipped as
    // foreign at the next recovery; ingest refuses it instead, so every
    // ack survives a reopen.
    let tmp = TempDir::new("minute_limit");
    let mut rng = StdRng::seed_from_u64(12);
    let vmcfg = ViewmapConfig::default();
    let named = linked_minute(3, 5, 31);
    let unnamed = linked_minute(3, MINUTE_LIMIT, 31);
    let mut acked = Vec::new();
    {
        let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        for (vp, ack) in named.iter().zip(submit_world(&srv, &named)) {
            assert_eq!(ack, Ok(()), "minute 5 is storable");
            acked.push(vp.id);
        }
        for ack in submit_world(&srv, &unnamed) {
            assert_eq!(ack, Err(SubmitError::MalformedVds));
        }
        assert_eq!(srv.total_vps(), acked.len());
        srv.sync_wal().unwrap();
    }
    let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
    assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    assert_eq!(report.records, acked.len());
    assert_eq!(srv.total_vps(), acked.len());
    for id in &acked {
        assert!(srv.lookup_vp(*id).is_some(), "acked {id} lost on reopen");
    }
}
