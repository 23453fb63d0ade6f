//! [`VpStore`] — a directory of minute segments behind the server's
//! [`VpWal`] seam — and the [`PersistentServer`] constructors that put
//! a recovered [`ViewMapServer`] on top of it.

use crate::keyfile;
use crate::segment::{
    parse_segment_file_name, recover_segment, segment_path, Frames, SegmentWriter,
};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::MinuteId;
use viewmap_core::viewmap::ViewmapConfig;
use viewmap_core::vp::StoredVp;
use viewmap_core::wal::VpWal;
use vm_crypto::RsaKeyPair;
use vm_obs::{Counter, Gauge, Histogram, Registry};

/// How hard a group commit pushes toward stable media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fsync {
    /// `fdatasync` once per group commit, through the minute's held
    /// handle, and the store directory once after the commit that
    /// created the segment or an eviction that removed any: committed
    /// means power-loss durable. The group-commit batching is what
    /// keeps this affordable — one sync per batch, never one per VP.
    Always,
    /// Leave flushing to the OS page cache until the next
    /// [`VpWal::sync`] (which fdatasyncs every minute written since the
    /// last one — through its held handle, or reopened by path if the
    /// handle cap released it — and also syncs the directory if a
    /// segment was created or removed since): committed means
    /// process-crash durable (the write has returned from the kernel),
    /// but power loss may drop the unsynced tail — which recovery then
    /// truncates cleanly. No append under this policy ever waits for an
    /// fdatasync of its own. The default, and the mode the benchmarks
    /// measure.
    Never,
}

/// Store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Durability policy for group commits.
    pub fsync: Fsync,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: Fsync::Never,
        }
    }
}

impl StoreConfig {
    /// Read the policy from `VM_STORE_FSYNC` (`always` / `never`,
    /// case-insensitive; unset means `never`) — the knob the CI
    /// durability matrix turns so the whole suite runs under both
    /// policies.
    ///
    /// Panics on any other value: an operator who writes
    /// `VM_STORE_FSYNC=true` believing commits are power-loss durable
    /// must not be silently downgraded to `never`.
    pub fn from_env() -> StoreConfig {
        let fsync = match std::env::var("VM_STORE_FSYNC") {
            Err(std::env::VarError::NotPresent) => Fsync::Never,
            Ok(v) if v.eq_ignore_ascii_case("always") || v == "1" => Fsync::Always,
            Ok(v) if v.eq_ignore_ascii_case("never") || v == "0" || v.is_empty() => Fsync::Never,
            other => panic!(
                "VM_STORE_FSYNC must be 'always' or 'never', got {other:?} — refusing to guess \
                 a durability policy"
            ),
        };
        StoreConfig { fsync }
    }
}

/// A post-recovery condition the operator must act on (or consciously
/// accept). Produced by [`RecoveryReport::warnings`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryWarning {
    /// The store recovered existing records but **no signing keyfile**
    /// was found beside them, so the server was constructed with a
    /// freshly generated RSA key (now persisted for the next boot).
    /// This only happens to directories written before key persistence
    /// existed, or when an operator deleted `signing.key`. Every unit
    /// of cash issued before the restart verifies only under the *old*
    /// key: until the operator re-supplies it (restore the keyfile, or
    /// reopen via [`PersistentServer::open_with_key`]), outstanding
    /// cash is unredeemable (`RedeemError::BadSignature`) and rewards
    /// issued now are signed by a key pre-restart wallets have never
    /// seen.
    FreshSigningKey {
        /// How many records the replay recovered under the new key.
        recovered_records: usize,
    },
}

impl std::fmt::Display for RecoveryWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryWarning::FreshSigningKey { recovered_records } => write!(
                f,
                "recovered {recovered_records} records with no signing keyfile beside them; \
                 a fresh RSA key was generated and persisted — cash issued before the restart \
                 will not verify until the operator re-supplies the original key"
            ),
        }
    }
}

/// What [`VpStore::open`] found on disk (and what replay did with it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files replayed.
    pub segments: usize,
    /// Committed records recovered across all segments.
    pub records: usize,
    /// Segments that had a torn tail truncated.
    pub torn_segments: usize,
    /// Total bytes truncated off torn tails.
    pub truncated_bytes: u64,
    /// Recovered records the admission screen rejected on replay
    /// (always 0 for logs this layer wrote — the server screens before
    /// logging — so nonzero means a hand-edited or foreign log).
    pub rejected: usize,
    /// Segment files moved aside (`*.vmseg.mismatch`) because their
    /// header minute contradicted their filename — a renamed or
    /// misplaced file this store never wrote. Quarantining frees the
    /// filename so post-recovery appends for that minute start a clean
    /// segment instead of appending records behind a wrong header
    /// (where every later recovery would silently skip them).
    pub quarantined: usize,
    /// Set by [`PersistentServer::open`] when recovered records were
    /// replayed under a freshly generated signing key because no
    /// `signing.key` file existed beside them (see
    /// [`RecoveryWarning::FreshSigningKey`] and `ARCHITECTURE.md`).
    /// Always `false` for an empty (first-boot) store — a fresh key
    /// over no recovered state orphans nothing — and for every boot
    /// after that, since `open` persists the key it generates.
    pub fresh_signing_key: bool,
}

impl RecoveryReport {
    /// The typed warnings an operator should surface (log, alert)
    /// after standing a server up on this recovery.
    pub fn warnings(&self) -> Vec<RecoveryWarning> {
        let mut out = Vec::new();
        if self.fresh_signing_key {
            out.push(RecoveryWarning::FreshSigningKey {
                recovered_records: self.records,
            });
        }
        out
    }
}

/// Batches at or above this size frame on worker threads, and every
/// append that frames its records does so in parts of at most this many
/// (mirroring the server's batch-ingest threshold economics: below it,
/// spawn/join overhead beats the fan-out).
const APPEND_PARALLEL_THRESHOLD: usize = 2048;

/// The most append handles a store holds open at once. Opening a minute
/// past it first closes the least recently written held minute that no
/// append is writing through, without a flush: under [`Fsync::Never`]
/// the minute waits in the released set for [`VpWal::sync`] to reopen
/// it by path, as every minute did before handles were held. A
/// released minute costs its next append the open and close a held one
/// saves.
pub const MAX_HELD_SEGMENTS: usize = 256;

/// Exclusive ownership of a store directory, held for the store's
/// lifetime via a `LOCK` pidfile. Two live processes appending to the
/// same segments would interleave mid-frame and silently truncate each
/// other's records at the next recovery, so the second open must fail
/// loudly instead.
///
/// Staleness: a crashed owner never removes its pidfile, and refusing
/// to reopen after a crash would defeat crash recovery — so a lock
/// whose recorded pid no longer exists (checked via `/proc/<pid>`) is
/// reclaimed. On platforms without `/proc`, delete `<dir>/LOCK`
/// manually after a crash. Pid-recycling can make a dead owner look
/// alive; the error names the pid and path so an operator can resolve
/// it. (Best-effort by design: the lock defends against accidental
/// double-starts, not adversarial racers.)
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> std::io::Result<DirLock> {
        let path = dir.join("LOCK");
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write;
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner: Option<u32> = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    // Reclaim ONLY a provably-dead owner. A pidfile we
                    // cannot read/parse, or a pid we cannot verify (no
                    // /proc), is treated as held: mistaking a live
                    // owner for dead corrupts segments, while the
                    // converse just asks an operator to delete LOCK.
                    let provably_dead = owner.is_some_and(|pid| {
                        Path::new("/proc").is_dir() && !Path::new(&format!("/proc/{pid}")).exists()
                    });
                    if !provably_dead {
                        return Err(std::io::Error::other(format!(
                            "store {} is locked ({}; owner pid {:?}); a second opener would \
                             corrupt segments — delete the LOCK file if the owner is dead",
                            dir.display(),
                            path.display(),
                            owner,
                        )));
                    }
                    std::fs::remove_file(&path)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// First free quarantine name for a foreign file: `<name>.mismatch`,
/// then `.mismatch.1`, `.mismatch.2`, … — never silently replacing an
/// earlier quarantined file (each may be someone's only copy). Race-free
/// because the directory is single-process under the `DirLock`.
fn quarantine_path(path: &Path) -> PathBuf {
    let base = path.as_os_str().to_owned();
    for i in 0u32.. {
        let mut name = base.clone();
        if i == 0 {
            name.push(".mismatch");
        } else {
            name.push(format!(".mismatch.{i}"));
        }
        let candidate = PathBuf::from(name);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u32 quarantine suffixes exhausted")
}

/// A durable, crash-recoverable append log of VPs: one segment file per
/// minute under one directory. Implements [`VpWal`], so attaching it to
/// a [`ViewMapServer`] makes every accepted VP durable without touching
/// the investigation hot path (reads never look at the store).
///
/// Held handles: a minute's append handle opens on its first write and
/// stays open across its later appends, so a segment is opened once per
/// minute, not once per append. One of three things releases it:
/// [`VpWal::sync`] fdatasyncs and closes every held handle;
/// [`VpWal::evict_minutes_before`] closes an expired minute's handle
/// before it unlinks the file (a handle kept past the unlink would take
/// the minute's next records into the deleted inode); and opening a
/// minute past [`MAX_HELD_SEGMENTS`] first closes the least recently
/// written idle one, unflushed. So under [`Fsync::Never`] what `sync`
/// has left to flush is the held set plus the minutes the cap released,
/// and `vm_store_open_segments` gauges the held set's size.
///
/// Concurrency: a `LOCK` pidfile makes the store single-process (see
/// `DirLock`); within it, the server serializes appends per minute
/// (they happen under the minute shard's write lock). Each held handle
/// has a lock of its own, and the map of them one more: an append holds
/// the map's lock only to find (or open) its handle and take the
/// handle's lock, then writes, fsyncs and lends its bytes under the
/// handle's lock alone, so appends of different minutes overlap their
/// framing, writes and fsyncs. `sync` and eviction take the two locks
/// in the same order, so they wait for an append in flight on a handle
/// they release rather than pass it by; the cap passes over a busy
/// handle for an idle one, so no append waits on another minute's
/// write or fsync. Retention sweeps of a minute still receiving traffic
/// are the caller's race to avoid — `evict_minutes_before` is meant for
/// minutes past the retention horizon, which by definition no longer
/// ingest.
pub struct VpStore {
    dir: PathBuf,
    fsync: Fsync,
    /// The held append handles, and whether the directory needs a sync.
    held: Mutex<Held>,
    /// Registered on a registry of the store's own at [`VpStore::open`],
    /// and on the owning server's by [`VpStore::bind_obs`].
    metrics: StoreMetrics,
    /// Held for the store's lifetime; released (deleted) on drop.
    _lock: DirLock,
}

/// The store's open append handles, and what sync must flush besides.
#[derive(Default)]
struct Held {
    /// By minute, at most [`MAX_HELD_SEGMENTS`].
    segments: BTreeMap<u64, HeldSegment>,
    /// Counts the appends that found or opened a handle; stamps each
    /// handle's last use.
    tick: u64,
    /// Minutes the cap closed unflushed under [`Fsync::Never`] and not
    /// held since; sync reopens them by path.
    released: BTreeSet<u64>,
    /// A segment was removed, or a released handle had created its
    /// segment, since the last sync: the directory's entries are not
    /// yet durable.
    dir: bool,
}

/// One held append handle.
struct HeldSegment {
    /// Shared with the append writing through it.
    writer: Arc<Mutex<SegmentWriter>>,
    /// The [`Held::tick`] of the last append that took it.
    used: u64,
}

/// The store's instrument set, registered on the owning server's
/// [`Registry`].
struct StoreMetrics {
    append_us: Arc<Histogram>,
    fsync_us: Arc<Histogram>,
    dir_syncs: Arc<Counter>,
    batch_records: Arc<Histogram>,
    appended_records: Arc<Counter>,
    /// Appended records the store framed itself (the rest were written
    /// from the frames they arrived in).
    encoded_records: Arc<Counter>,
    segments_evicted: Arc<Counter>,
    open_segments: Arc<Gauge>,
}

impl StoreMetrics {
    fn register(obs: &Registry) -> StoreMetrics {
        StoreMetrics {
            append_us: obs.histogram("vm_store_append_us"),
            fsync_us: obs.histogram("vm_store_fsync_us"),
            dir_syncs: obs.counter("vm_store_dir_syncs_total"),
            batch_records: obs.histogram("vm_store_batch_records"),
            appended_records: obs.counter("vm_store_appended_records_total"),
            encoded_records: obs.counter("vm_store_encoded_records_total"),
            segments_evicted: obs.counter("vm_store_segments_evicted_total"),
            open_segments: obs.gauge("vm_store_open_segments"),
        }
    }
}

impl VpStore {
    /// Open (creating the directory if needed), take the directory
    /// lock, and recover the store: every segment is scanned to its
    /// last fully-committed record, torn tails are truncated in place,
    /// files that are not segments this store wrote (wrong magic, or a
    /// header minute contradicting the filename) are moved aside to
    /// `*.vmseg.mismatch*`, and the committed records come back in
    /// (minute, append) order, ready for
    /// [`ViewMapServer::submit_replay_batch`].
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
    ) -> std::io::Result<(VpStore, Vec<StoredVp>, RecoveryReport)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;

        let mut minutes: Vec<MinuteId> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_segment_file_name(&e.file_name().to_string_lossy()))
            .collect();
        minutes.sort_unstable();

        let mut report = RecoveryReport::default();
        let mut vps = Vec::new();
        for minute in minutes {
            let path = segment_path(&dir, minute);
            let Some((meta, records)) = recover_segment(&path, minute)? else {
                // Not a segment this store wrote under that name (torn
                // first write, renamed file, misplaced backup). It must
                // not stay under the segment name — a post-recovery
                // append for the minute would push durable records
                // behind a header every later recovery skips — and it
                // must not be deleted either (it may be the only copy
                // of something an operator misplaced). Move it aside,
                // untouched, under a name recovery never scans.
                std::fs::rename(&path, quarantine_path(&path))?;
                report.quarantined += 1;
                continue;
            };
            report.segments += 1;
            report.records += meta.records;
            if meta.truncated_bytes > 0 {
                report.torn_segments += 1;
                report.truncated_bytes += meta.truncated_bytes;
            }
            vps.extend(records);
        }

        Ok((
            VpStore {
                dir,
                fsync: cfg.fsync,
                held: Mutex::default(),
                metrics: StoreMetrics::register(&Registry::new()),
                _lock: lock,
            },
            vps,
            report,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Register this store's telemetry on `obs` (normally the owning
    /// server's registry, so one snapshot covers core and store
    /// together) and publish what recovery found: the report's counts
    /// become one-shot counters, and every
    /// [`RecoveryReport::warnings`] entry plus each quarantined
    /// segment lands in the event journal — observable after the fact
    /// through `STATS` long after the boot-time log line scrolled
    /// away. The durable constructors call it before attaching the WAL.
    pub fn bind_obs(&mut self, obs: &Registry, report: &RecoveryReport) {
        self.metrics = StoreMetrics::register(obs);
        obs.counter("vm_store_recoveries_total").inc();
        obs.counter("vm_store_recovered_segments_total")
            .add(report.segments as u64);
        obs.counter("vm_store_recovered_records_total")
            .add(report.records as u64);
        obs.counter("vm_store_torn_segments_total")
            .add(report.torn_segments as u64);
        obs.counter("vm_store_truncated_bytes_total")
            .add(report.truncated_bytes);
        obs.counter("vm_store_replay_rejected_total")
            .add(report.rejected as u64);
        obs.counter("vm_store_quarantined_segments_total")
            .add(report.quarantined as u64);
        for warning in report.warnings() {
            obs.journal()
                .record("recovery_warning", warning.to_string());
        }
        if report.quarantined > 0 {
            obs.journal().record(
                "segment_quarantined",
                format!(
                    "{} foreign segment file(s) moved aside as *.vmseg.mismatch during recovery",
                    report.quarantined
                ),
            );
        }
        if report.torn_segments > 0 {
            obs.journal().record(
                "torn_tail_truncated",
                format!(
                    "{} segment(s) lost a torn tail ({} bytes truncated)",
                    report.torn_segments, report.truncated_bytes
                ),
            );
        }
    }

    /// One group commit: frame `vps` (accepted records of one minute)
    /// with the store's framer — or, given `frames` (`frames[i]` is
    /// `vps[i]`'s committed frame, as a replica receives them), copy
    /// those bytes instead of encoding and checksumming the records
    /// again — then write them through the minute's held handle, fsync
    /// them under [`Fsync::Always`], and lend the exact bytes written to
    /// `written`, part by part in write order — the replication hub
    /// ships them as they are, so a primary encodes each record once.
    /// `written` runs only after a successful, non-empty append, still
    /// under the handle's lock; [`VpWal::append`] is this with nobody to
    /// lend the bytes to.
    pub fn append_then(
        &self,
        vps: &[&StoredVp],
        frames: Option<&[&[u8]]>,
        mut written: impl FnMut(&Frames),
    ) -> std::io::Result<()> {
        let Some(first) = vps.first() else {
            return Ok(());
        };
        let minute = first.minute();
        debug_assert!(
            vps.iter().all(|vp| vp.minute() == minute),
            "one append call spans one minute"
        );
        // Timed: framing, then the write and fsync under the handle's
        // lock; neither the wait for a lock nor a segment's open counts.
        let timer = Instant::now();
        let parts = self.frame(vps, frames);
        let framing = timer.elapsed();
        self.with_segment(minute, |segment| {
            let timer = Instant::now();
            for part in &parts {
                segment.append(&part.bytes)?;
            }
            if self.fsync == Fsync::Always {
                self.metrics.fsync_us.time(|| segment.sync())?;
                if segment.take_created() {
                    self.sync_dir()?;
                }
            }
            self.metrics
                .append_us
                .record_duration_us(framing + timer.elapsed());
            parts.iter().for_each(&mut written);
            Ok(())
        })?;
        self.metrics.batch_records.record(vps.len() as u64);
        self.metrics.appended_records.add(vps.len() as u64);
        Ok(())
    }

    /// The bytes an append writes, in parts never concatenated and
    /// never retained: `frames` copied as they are, in one part, or else
    /// `vps` framed in parts of at most APPEND_PARALLEL_THRESHOLD
    /// records, on workers from that size on (one part frames inline) —
    /// the same bytes on any thread count.
    fn frame(&self, vps: &[&StoredVp], frames: Option<&[&[u8]]>) -> Vec<Frames> {
        if let Some(frames) = frames {
            debug_assert_eq!(frames.len(), vps.len(), "one frame per record");
            let mut part = Frames::default();
            part.push_framed(frames);
            return vec![part];
        }
        self.metrics.encoded_records.add(vps.len() as u64);
        let threads = viewmap_core::par::auto_threads(vps.len(), APPEND_PARALLEL_THRESHOLD);
        let cuts = viewmap_core::par::even_cuts(vps.len(), threads);
        viewmap_core::par::map_ranges(&cuts, |_t, lo, hi| {
            vps[lo..hi]
                .chunks(APPEND_PARALLEL_THRESHOLD)
                .map(|chunk| {
                    let mut part = Frames::default();
                    part.push(chunk);
                    part
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Run `commit` under the lock of the minute's held handle, opening
    /// the segment (`SegmentWriter::open` writes its header if the file
    /// is new) if no handle is held — and, at [`MAX_HELD_SEGMENTS`],
    /// releasing a held minute first. The map's lock is held only until
    /// the handle's is taken.
    fn with_segment(
        &self,
        minute: MinuteId,
        commit: impl FnOnce(&mut SegmentWriter) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut held = self.held.lock();
        held.tick += 1;
        let tick = held.tick;
        let segment = match held.segments.get_mut(&minute.0) {
            Some(segment) => {
                segment.used = tick;
                Arc::clone(&segment.writer)
            }
            None => {
                if held.segments.len() >= MAX_HELD_SEGMENTS {
                    self.release_one(&mut held);
                }
                let writer = Arc::new(Mutex::new(SegmentWriter::open(&self.dir, minute)?));
                // The held handle's flush at sync covers what the
                // released one left in the page cache: one inode.
                held.released.remove(&minute.0);
                let segment = HeldSegment {
                    writer: Arc::clone(&writer),
                    used: tick,
                };
                held.segments.insert(minute.0, segment);
                self.metrics.open_segments.set(held.segments.len() as i64);
                writer
            }
        };
        let mut writer = segment.lock();
        drop(held);
        commit(&mut writer)
    }

    /// The cap: close the least recently written held minute that no
    /// append is writing through (of all of them only if every one is
    /// busy), without a flush. Under [`Fsync::Never`] the minute joins
    /// the released set for sync (under `Always` every append already
    /// fdatasynced), and a segment the handle created becomes a
    /// directory entry the next sync makes durable. Appends take a
    /// handle's lock only under the map's, which the caller holds, so
    /// an idle handle stays idle.
    fn release_one(&self, held: &mut Held) {
        let oldest = |idle_only: bool| {
            held.segments
                .iter()
                .filter(|(_, segment)| !idle_only || segment.writer.try_lock().is_some())
                .min_by_key(|(_, segment)| segment.used)
                .map(|(&minute, _)| minute)
        };
        let lru = oldest(false).expect("at the cap");
        let minute = match held.segments[&lru].writer.try_lock() {
            Some(_) => lru,
            None => oldest(true).unwrap_or(lru),
        };
        let segment = held.segments.remove(&minute).expect("held");
        held.dir |= segment.writer.lock().take_created();
        if self.fsync == Fsync::Never {
            held.released.insert(minute);
        }
        self.metrics.open_segments.set(held.segments.len() as i64);
    }

    /// Make the directory's entries (segments created or removed)
    /// durable.
    fn sync_dir(&self) -> std::io::Result<()> {
        File::open(&self.dir)?.sync_all()?;
        self.metrics.dir_syncs.inc();
        Ok(())
    }
}

impl VpWal for VpStore {
    fn append(&self, vps: &[&StoredVp], frames: Option<&[&[u8]]>) -> std::io::Result<()> {
        self.append_then(vps, frames, |_| {})
    }

    fn evict_minutes_before(&self, cutoff: MinuteId) -> std::io::Result<usize> {
        let mut held = self.held.lock();
        // Close the expired minutes' handles before their files go,
        // each after any append in flight on it.
        let live = held.segments.split_off(&cutoff.0);
        for segment in std::mem::replace(&mut held.segments, live).into_values() {
            drop(segment.writer.lock());
        }
        held.released = held.released.split_off(&cutoff.0);
        self.metrics.open_segments.set(held.segments.len() as i64);
        let mut removed = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(minute) = parse_segment_file_name(&entry.file_name().to_string_lossy()) else {
                continue;
            };
            if minute.0 < cutoff.0 {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        self.metrics.segments_evicted.add(removed as u64);
        if removed > 0 {
            match self.fsync {
                Fsync::Always => self.sync_dir()?,
                Fsync::Never => held.dir = true,
            }
        }
        Ok(removed)
    }

    /// Release every held handle, lowest minute first — fdatasynced
    /// under [`Fsync::Never`], after any append in flight on it — then
    /// fdatasync each minute the cap released, reopened by path, then
    /// sync the directory once if a segment was created or removed
    /// since. A minute whose flush fails stays for the next call.
    fn sync(&self) -> std::io::Result<()> {
        let mut held = self.held.lock();
        while let Some((&minute, segment)) = held.segments.first_key_value() {
            let mut writer = segment.writer.lock();
            if self.fsync == Fsync::Never {
                self.metrics.fsync_us.time(|| writer.sync())?;
            }
            let created = writer.take_created();
            drop(writer);
            held.dir |= created;
            held.segments.remove(&minute);
            self.metrics.open_segments.set(held.segments.len() as i64);
        }
        while let Some(&minute) = held.released.first() {
            let segment = OpenOptions::new()
                .write(true)
                .open(segment_path(&self.dir, MinuteId(minute)))?;
            self.metrics.fsync_us.time(|| segment.sync_data())?;
            held.released.remove(&minute);
        }
        if held.dir {
            self.sync_dir()?;
            held.dir = false;
        }
        Ok(())
    }
}

/// The durable constructors for [`ViewMapServer`] — `use` this trait
/// and `ViewMapServer::open(…)` / `ViewMapServer::open_with_key(…)`
/// read like inherent constructors. (They live on a trait because the
/// server crate cannot depend back on this one.)
pub trait PersistentServer: Sized {
    /// Stand up a server backed by the append log in `dir`: recover the
    /// log (truncating torn tails), replay the committed records through
    /// [`ViewMapServer::submit_replay_batch`] — the follower's replay,
    /// which warms no link keys, so the first investigation hashes only
    /// the members its site admits — and attach the store so every
    /// future accepted VP is logged. The recovered server
    /// is state-equivalent to the one that wrote the log: same minute
    /// buckets in order, same id index, same viewmap edges.
    ///
    /// The signing key is durable: a `signing.key` file in `dir` is
    /// loaded (and `rng`/`key_bits` go unused); absent one, a fresh key
    /// is generated and persisted for every later boot. Recovering
    /// records with no keyfile beside them flags
    /// [`RecoveryReport::fresh_signing_key`].
    fn open<R: Rng + ?Sized>(
        rng: &mut R,
        key_bits: usize,
        cfg: ViewmapConfig,
        dir: impl AsRef<Path>,
        store_cfg: StoreConfig,
    ) -> std::io::Result<(Self, RecoveryReport)>;

    /// As [`open`](Self::open), but around an **operator-supplied**
    /// signing key — the constructor replication uses so a follower
    /// shares its primary's key and a promoted follower keeps redeeming
    /// cash minted before the failover. The key rules are
    /// [`open_unattached`]'s.
    fn open_with_key(
        key: RsaKeyPair,
        cfg: ViewmapConfig,
        dir: impl AsRef<Path>,
        store_cfg: StoreConfig,
    ) -> std::io::Result<(Self, RecoveryReport)>;
}

/// The one durable-open sequence under an operator-supplied `key`:
/// recover the store in `dir`, check the keyfile, replay the committed
/// records into a fresh server, count rejects, and bind the store's
/// telemetry to the server's registry. The server comes back with
/// **nothing attached** — replay precedes attach, since an attached WAL
/// would double-log records already on disk — so the caller attaches
/// the store bare ([`PersistentServer::open_with_key`]) or wrapped (a
/// replicating primary).
///
/// If `dir` already holds a keyfile it must match `key`; a mismatch is
/// an error (silently re-keying a store orphans outstanding cash). A
/// missing keyfile is persisted from `key`, so later
/// [`PersistentServer::open`] calls recover the same identity.
pub fn open_unattached(
    key: RsaKeyPair,
    cfg: ViewmapConfig,
    dir: impl AsRef<Path>,
    store_cfg: StoreConfig,
) -> std::io::Result<(ViewMapServer, VpStore, RecoveryReport)> {
    let (mut store, vps, report) = VpStore::open(dir, store_cfg)?;
    match keyfile::load(store.dir())? {
        Some(existing) if existing != key => {
            return Err(std::io::Error::other(format!(
                "store {} already holds a different signing key — refusing to re-key \
                 (outstanding cash would be orphaned); delete {} only if that is intended",
                store.dir().display(),
                keyfile::keyfile_path(store.dir()).display(),
            )));
        }
        Some(_) => {}
        None => keyfile::save(store.dir(), &key)?,
    }
    let (srv, report) = replay(key, cfg, &mut store, vps, report);
    Ok((srv, store, report))
}

/// Replay recovered records into a fresh server, count rejects, and
/// publish the recovery outcome (counters plus journal events for every
/// warning) on the server's registry, so one snapshot covers the stack.
fn replay(
    key: RsaKeyPair,
    cfg: ViewmapConfig,
    store: &mut VpStore,
    vps: Vec<StoredVp>,
    mut report: RecoveryReport,
) -> (ViewMapServer, RecoveryReport) {
    let srv = ViewMapServer::with_key(key, cfg);
    let results = srv.submit_replay_batch(vps, None);
    report.rejected = results.iter().filter(|r| r.is_err()).count();
    store.bind_obs(srv.obs(), &report);
    (srv, report)
}

impl PersistentServer for ViewMapServer {
    fn open<R: Rng + ?Sized>(
        rng: &mut R,
        key_bits: usize,
        cfg: ViewmapConfig,
        dir: impl AsRef<Path>,
        store_cfg: StoreConfig,
    ) -> std::io::Result<(ViewMapServer, RecoveryReport)> {
        let (mut store, vps, mut report) = VpStore::open(dir, store_cfg)?;
        let key = match keyfile::load(store.dir())? {
            Some(key) => key,
            None => {
                // No persisted identity. Over recovered records that
                // means pre-restart cash is orphaned until the operator
                // re-supplies the old key — say so in the report
                // instead of letting the fresh key pass silently.
                report.fresh_signing_key = report.records > 0;
                let key = RsaKeyPair::generate(rng, key_bits);
                keyfile::save(store.dir(), &key)?;
                key
            }
        };
        let (mut srv, report) = replay(key, cfg, &mut store, vps, report);
        srv.attach_wal(Box::new(store));
        Ok((srv, report))
    }

    fn open_with_key(
        key: RsaKeyPair,
        cfg: ViewmapConfig,
        dir: impl AsRef<Path>,
        store_cfg: StoreConfig,
    ) -> std::io::Result<(ViewMapServer, RecoveryReport)> {
        let (mut srv, store, report) = open_unattached(key, cfg, dir, store_cfg)?;
        srv.attach_wal(Box::new(store));
        Ok((srv, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viewmap_core::bloom::BloomFilter;
    use viewmap_core::types::{GeoPos, VpId, SECONDS_PER_VP};
    use viewmap_core::vd::ViewDigest;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("vm_store_store_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn synthetic_vp(tag: u64, minute: u64) -> StoredVp {
        let mut id_bytes = [0u8; 16];
        id_bytes[..8].copy_from_slice(&tag.to_le_bytes());
        id_bytes[8..].copy_from_slice(&minute.to_le_bytes());
        let id = VpId(vm_crypto::Digest16(id_bytes));
        let start = minute * SECONDS_PER_VP;
        let vds: Vec<ViewDigest> = (1..=SECONDS_PER_VP as u16)
            .map(|seq| ViewDigest {
                seq,
                flags: 0,
                time: start + seq as u64,
                loc: GeoPos::new(tag as f64 + seq as f64 * 8.0, minute as f64),
                file_size: seq as u64 * 64,
                initial_loc: GeoPos::new(tag as f64, 0.0),
                vp_id: id,
                hash: vm_crypto::Digest16(id_bytes),
            })
            .collect();
        StoredVp::new(id, vds, BloomFilter::default(), false)
    }

    fn cfg() -> StoreConfig {
        StoreConfig::from_env()
    }

    #[test]
    fn append_recover_evict_cycle() {
        let tmp = TempDir::new("cycle");
        let (store, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert!(vps.is_empty());
        assert_eq!(report, RecoveryReport::default());

        for minute in 0..3u64 {
            let group: Vec<StoredVp> = (0..4)
                .map(|t| synthetic_vp(minute * 10 + t, minute))
                .collect();
            let refs: Vec<&StoredVp> = group.iter().collect();
            store.append(&refs, None).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (store, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.segments, 3);
        assert_eq!(report.records, 12);
        assert_eq!(report.torn_segments, 0);
        assert_eq!(vps.len(), 12);
        // Minute order, append order within each minute.
        let tags: Vec<u64> = vps
            .iter()
            .map(|vp| u64::from_le_bytes(vp.id.0.as_bytes()[..8].try_into().unwrap()))
            .collect();
        let expect: Vec<u64> = (0..3u64)
            .flat_map(|m| (0..4u64).map(move |t| m * 10 + t))
            .collect();
        assert_eq!(tags, expect);

        assert_eq!(store.evict_minutes_before(MinuteId(2)).unwrap(), 2);
        drop(store);
        let (_, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.segments, 1);
        assert_eq!(vps.len(), 4, "only minute 2 survives eviction");
        assert!(vps.iter().all(|vp| vp.minute() == MinuteId(2)));
    }

    #[test]
    fn empty_append_is_a_noop_and_foreign_files_are_ignored() {
        let tmp = TempDir::new("noop");
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        store.append(&[], None).unwrap();
        store
            .append_then(&[], None, |_| panic!("nothing written, nothing lent"))
            .unwrap();
        std::fs::write(tmp.0.join("README.txt"), b"not a segment").unwrap();
        drop(store);
        let (_, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert!(vps.is_empty());
        assert_eq!(report.segments, 0);
        assert!(tmp.0.join("README.txt").exists(), "foreign files untouched");
    }

    #[test]
    fn round_robin_appends_over_many_minutes_lose_nothing() {
        // Two round-robin passes over 24 minutes: the second pass writes
        // through the handles the first one left held, between other
        // minutes' appends.
        let tmp = TempDir::new("roundrobin");
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        let minutes = 24u64;
        for round in 0..2u64 {
            for minute in 0..minutes {
                let vp = synthetic_vp(round * minutes + minute, minute);
                store.append(&[&vp], None).unwrap();
            }
        }
        drop(store);
        let (_, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.segments, minutes as usize);
        assert_eq!(vps.len(), (2 * minutes) as usize);
    }

    #[test]
    fn sync_flushes_every_minute_appended_since_the_last_sync() {
        // Graceful shutdown and promotion call `sync` to put everything
        // appended under `Fsync::Never` on stable media: one timed
        // fdatasync per minute written since the last sync, and none
        // for minutes a sync already flushed.
        let tmp = TempDir::new("syncall");
        let (mut store, _, report) = VpStore::open(
            &tmp.0,
            StoreConfig {
                fsync: Fsync::Never,
            },
        )
        .unwrap();
        let obs = Registry::new();
        store.bind_obs(&obs, &report);
        let fsyncs = obs.histogram("vm_store_fsync_us");
        for minute in 0..12u64 {
            store
                .append(&[&synthetic_vp(minute, minute)], None)
                .unwrap();
        }
        store.sync().unwrap();
        assert_eq!(fsyncs.count(), 12, "one flush per minute written");
        store.sync().unwrap();
        assert_eq!(
            fsyncs.count(),
            12,
            "nothing written since: nothing to flush"
        );
    }

    /// A store under `fsync` reporting into a registry of the test's.
    fn store_with_obs(tmp: &TempDir, fsync: Fsync) -> (VpStore, Registry) {
        let (mut store, _, report) = VpStore::open(&tmp.0, StoreConfig { fsync }).unwrap();
        let obs = Registry::new();
        store.bind_obs(&obs, &report);
        (store, obs)
    }

    /// A store under `fsync` reporting into a registry of the test's,
    /// and its `vm_store_dir_syncs_total` counter.
    fn observed_store(tmp: &TempDir, fsync: Fsync) -> (VpStore, Arc<Counter>) {
        let (store, obs) = store_with_obs(tmp, fsync);
        (store, obs.counter("vm_store_dir_syncs_total"))
    }

    #[test]
    fn always_syncs_the_directory_once_per_segment_created_or_sweep_that_removed() {
        let tmp = TempDir::new("dirsync_always");
        let (store, dir_syncs) = observed_store(&tmp, Fsync::Always);
        store.append(&[&synthetic_vp(1, 0)], None).unwrap();
        assert_eq!(dir_syncs.get(), 1, "a new segment's entry is synced");
        store.append(&[&synthetic_vp(2, 0)], None).unwrap();
        assert_eq!(dir_syncs.get(), 1, "an existing segment's is not");
        // The minute's handle stays held across its appends; the one
        // that created the segment asked for the directory's sync once.
        for tag in 10..15 {
            store.append(&[&synthetic_vp(tag, 0)], None).unwrap();
        }
        assert_eq!(dir_syncs.get(), 1, "repeated appends to a held minute");
        store.append(&[&synthetic_vp(3, 1)], None).unwrap();
        assert_eq!(dir_syncs.get(), 2);
        store.sync().unwrap();
        assert_eq!(dir_syncs.get(), 2, "nothing left for sync");
        assert_eq!(store.evict_minutes_before(MinuteId(1)).unwrap(), 1);
        assert_eq!(dir_syncs.get(), 3, "one sync for the sweep");
        assert_eq!(store.evict_minutes_before(MinuteId(1)).unwrap(), 0);
        assert_eq!(dir_syncs.get(), 3, "a sweep that removed nothing");
    }

    #[test]
    fn never_syncs_the_directory_at_sync_if_a_segment_came_or_went() {
        let tmp = TempDir::new("dirsync_never");
        let (store, dir_syncs) = observed_store(&tmp, Fsync::Never);
        store.append(&[&synthetic_vp(1, 0)], None).unwrap();
        store.append(&[&synthetic_vp(2, 1)], None).unwrap();
        assert_eq!(dir_syncs.get(), 0, "appends leave it to sync");
        store.sync().unwrap();
        assert_eq!(dir_syncs.get(), 1, "one sync for both new segments");
        store.append(&[&synthetic_vp(3, 0)], None).unwrap();
        store.sync().unwrap();
        assert_eq!(dir_syncs.get(), 1, "no segment came or went");
        assert_eq!(store.evict_minutes_before(MinuteId(1)).unwrap(), 1);
        assert_eq!(dir_syncs.get(), 1, "the sweep leaves it to sync");
        store.sync().unwrap();
        assert_eq!(dir_syncs.get(), 2, "one sync for the removal");
        store.sync().unwrap();
        assert_eq!(dir_syncs.get(), 2);
    }

    #[test]
    fn a_minute_evicted_and_written_again_recovers_its_new_records() {
        // Eviction closes the minute's held handle before it unlinks the
        // file. A handle kept past the unlink would take the re-ingested
        // records into the deleted inode, and the next open would lose
        // them without a word.
        for fsync in [Fsync::Always, Fsync::Never] {
            let tmp = TempDir::new(&format!("evict_rewrite_{fsync:?}"));
            let (store, _, _) = VpStore::open(&tmp.0, StoreConfig { fsync }).unwrap();
            let group: Vec<StoredVp> = (0..3).map(|tag| synthetic_vp(tag, 5)).collect();
            let refs: Vec<&StoredVp> = group.iter().collect();
            store.append(&refs, None).unwrap();
            assert_eq!(store.evict_minutes_before(MinuteId(6)).unwrap(), 1);
            store.append(&refs, None).unwrap();
            drop(store);
            let (_, vps, report) = VpStore::open(&tmp.0, StoreConfig { fsync }).unwrap();
            assert_eq!(
                (report.segments, report.records),
                (1, 3),
                "{fsync:?}: the re-ingested records recover"
            );
            let ids: Vec<VpId> = vps.iter().map(|vp| vp.id).collect();
            let want: Vec<VpId> = group.iter().map(|vp| vp.id).collect();
            assert_eq!(ids, want, "{fsync:?}");
        }
    }

    #[test]
    fn held_handles_stay_under_the_cap_and_every_record_recovers() {
        // Appends to more minutes than the cap: the cap closes the
        // least recently written held minute, unflushed, before it
        // opens another. No append under `Never` fdatasyncs; sync then
        // flushes every minute written once — held or released — and
        // nothing written is lost under either policy.
        let past = 3;
        for fsync in [Fsync::Always, Fsync::Never] {
            let tmp = TempDir::new(&format!("cap_{fsync:?}"));
            let (store, obs) = store_with_obs(&tmp, fsync);
            let open = obs.gauge("vm_store_open_segments");
            let fsyncs = obs.histogram("vm_store_fsync_us");
            let minutes = (MAX_HELD_SEGMENTS + past) as u64;
            for minute in 0..minutes {
                store
                    .append(&[&synthetic_vp(minute, minute)], None)
                    .unwrap();
                assert!(open.get() <= MAX_HELD_SEGMENTS as i64, "{fsync:?}");
            }
            assert_eq!(open.get(), MAX_HELD_SEGMENTS as i64, "{fsync:?}");
            // The released minutes take appends again: each reopens its
            // segment, releasing the least recently written one held.
            for minute in 0..past as u64 {
                store
                    .append(&[&synthetic_vp(minutes + minute, minute)], None)
                    .unwrap();
            }
            assert_eq!(open.get(), MAX_HELD_SEGMENTS as i64, "{fsync:?}");
            let appends = minutes + past as u64;
            let by_appends = match fsync {
                Fsync::Always => appends,
                Fsync::Never => 0,
            };
            assert_eq!(fsyncs.count(), by_appends, "{fsync:?}: appends' fdatasyncs");
            store.sync().unwrap();
            let by_sync = match fsync {
                Fsync::Always => 0,
                Fsync::Never => minutes,
            };
            assert_eq!(
                fsyncs.count(),
                by_appends + by_sync,
                "{fsync:?}: sync flushes each minute written once"
            );
            assert_eq!(open.get(), 0, "{fsync:?}");
            drop(store);
            let (_, vps, report) = VpStore::open(&tmp.0, StoreConfig { fsync }).unwrap();
            assert_eq!(report.segments, minutes as usize, "{fsync:?}");
            assert_eq!(vps.len() as u64, appends, "{fsync:?}: every record");
        }
    }

    /// Run `op` on another thread while an append to minute 0 is in
    /// flight (stopped in `written`): did `op` return before the append
    /// was let go, and did it return at all after?
    fn races_an_append_in_flight(store: &VpStore, op: impl FnOnce() + Send) -> (bool, bool) {
        let (in_flight, in_flight_rx) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (returned, returned_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let late = synthetic_vp(2, 0);
            s.spawn(move || {
                store
                    .append_then(&[&late], None, |_| {
                        in_flight.send(()).unwrap();
                        release_rx.recv().unwrap();
                    })
                    .unwrap();
            });
            in_flight_rx.recv().unwrap();
            s.spawn(move || {
                op();
                returned.send(()).unwrap();
            });
            let early = returned_rx.recv_timeout(std::time::Duration::from_millis(300));
            release.send(()).unwrap();
            let done = returned_rx.recv_timeout(std::time::Duration::from_secs(10));
            (early.is_ok(), done.is_ok())
        })
    }

    #[test]
    fn sync_waits_for_an_append_in_flight_on_a_held_minute() {
        // Every append that returned before `sync` was called is on
        // stable media when `sync` returns; one still in flight on a
        // handle `sync` releases is waited for, not passed by.
        let tmp = TempDir::new("sync_inflight");
        let (store, obs) = store_with_obs(&tmp, Fsync::Never);
        let open = obs.gauge("vm_store_open_segments");
        let fsyncs = obs.histogram("vm_store_fsync_us");
        store.append(&[&synthetic_vp(1, 0)], None).unwrap();
        let (early, done) = races_an_append_in_flight(&store, || store.sync().unwrap());
        assert!(!early, "sync returned past an append in flight");
        assert!(done, "sync returns once the append is done");
        assert_eq!(fsyncs.count(), 1, "minute 0 flushed once, after both");
        assert_eq!(open.get(), 0, "sync released the handle");
    }

    #[test]
    fn eviction_waits_for_an_append_in_flight_on_an_expired_minute() {
        // Eviction closes an expired minute's handle only once an
        // append in flight on it is done, as sync does: it never drops
        // a handle an append is still writing through.
        let tmp = TempDir::new("evict_inflight");
        let (store, obs) = store_with_obs(&tmp, Fsync::Never);
        let open = obs.gauge("vm_store_open_segments");
        store.append(&[&synthetic_vp(1, 0)], None).unwrap();
        let (early, done) = races_an_append_in_flight(&store, || {
            assert_eq!(store.evict_minutes_before(MinuteId(1)).unwrap(), 1);
        });
        assert!(!early, "eviction returned past an append in flight");
        assert!(done, "eviction returns once the append is done");
        assert_eq!(open.get(), 0, "eviction closed the handle");
    }

    #[test]
    fn sync_skips_a_released_minute_that_eviction_removed() {
        // The cap leaves minute 0 for sync to reopen by path; once
        // eviction has removed its file there is nothing left to flush.
        let tmp = TempDir::new("cap_evict");
        let (store, obs) = store_with_obs(&tmp, Fsync::Never);
        let fsyncs = obs.histogram("vm_store_fsync_us");
        for minute in 0..=MAX_HELD_SEGMENTS as u64 {
            store
                .append(&[&synthetic_vp(minute, minute)], None)
                .unwrap();
        }
        assert_eq!(store.evict_minutes_before(MinuteId(1)).unwrap(), 1);
        store.sync().unwrap();
        assert_eq!(fsyncs.count(), MAX_HELD_SEGMENTS as u64);
    }

    #[test]
    fn a_late_hour_stays_held_across_its_vehicles() {
        // The cap closes the least recently written minute, not the
        // lowest: a late vehicle-hour below the held window displaces
        // the window's oldest minutes, and the next vehicle uploading
        // that hour writes through the handles the first one opened.
        let tmp = TempDir::new("cap_late");
        let (store, _) = store_with_obs(&tmp, Fsync::Never);
        let window = 1000..1000 + MAX_HELD_SEGMENTS as u64;
        for minute in window.clone() {
            store
                .append(&[&synthetic_vp(minute, minute)], None)
                .unwrap();
        }
        for vehicle in 0..2u64 {
            for minute in 0..60u64 {
                store
                    .append(&[&synthetic_vp(10_000 + vehicle, minute)], None)
                    .unwrap();
            }
            let held = store.held.lock();
            assert!(
                (0..60).all(|minute| held.segments.contains_key(&minute)),
                "vehicle {vehicle}: the late hour is held"
            );
            assert!(
                held.released.iter().copied().eq(1000..1060),
                "vehicle {vehicle}: only the window's 60 oldest minutes were released"
            );
        }
    }

    #[test]
    fn the_cap_passes_over_a_handle_an_append_is_writing_through() {
        // An append stopped in `written` keeps minute 0's handle busy
        // while the other minutes fill the cap behind it. Minute 0 is
        // then the least recently written, but the cap closes the next
        // idle one instead: the new minute does not wait on the busy
        // handle, and neither does any append of another minute.
        let tmp = TempDir::new("cap_busy");
        let (store, obs) = store_with_obs(&tmp, Fsync::Never);
        let open = obs.gauge("vm_store_open_segments");
        let (in_flight, in_flight_rx) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (filled, filled_rx) = std::sync::mpsc::channel();
        let passed = std::thread::scope(|s| {
            let store = &store;
            let busy = synthetic_vp(0, 0);
            s.spawn(move || {
                store
                    .append_then(&[&busy], None, |_| {
                        in_flight.send(()).unwrap();
                        release_rx.recv().unwrap();
                    })
                    .unwrap();
            });
            in_flight_rx.recv().unwrap();
            s.spawn(move || {
                for minute in 1..=MAX_HELD_SEGMENTS as u64 {
                    store
                        .append(&[&synthetic_vp(minute, minute)], None)
                        .unwrap();
                }
                filled.send(()).unwrap();
            });
            let passed = filled_rx.recv_timeout(std::time::Duration::from_secs(10));
            release.send(()).unwrap();
            passed.is_ok()
        });
        assert!(passed, "an append waited on the busy handle");
        assert_eq!(open.get(), MAX_HELD_SEGMENTS as i64);
        store.sync().unwrap();
        drop(store);
        let (_, vps, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(vps.len(), MAX_HELD_SEGMENTS + 1, "every record");
    }

    #[test]
    fn renamed_segment_is_quarantined_and_the_minute_restarts_clean() {
        let tmp = TempDir::new("renamed");
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        let vp = synthetic_vp(1, 5);
        store.append(&[&vp], None).unwrap();
        drop(store);
        let wrong_name = crate::segment::segment_path(&tmp.0, MinuteId(7));
        std::fs::rename(
            crate::segment::segment_path(&tmp.0, MinuteId(5)),
            &wrong_name,
        )
        .unwrap();

        let original_bytes = std::fs::read(&wrong_name).unwrap();
        let (store, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.segments, 0, "header/name mismatch is not replayed");
        assert_eq!(report.quarantined, 1);
        assert!(vps.is_empty());
        assert!(
            !wrong_name.exists(),
            "mismatched file must not stay under the segment name"
        );
        // The quarantined copy is byte-identical: recovery mutates
        // nothing it cannot vouch for (it may be someone's backup).
        let quarantined = tmp.0.join("minute-000000000007.vmseg.mismatch");
        assert_eq!(std::fs::read(&quarantined).unwrap(), original_bytes);

        // The freed minute starts a clean segment, and records appended
        // to it survive the next recovery (they'd be invisible if the
        // husk had stayed appendable under the wrong header).
        store.append(&[&synthetic_vp(2, 7)], None).unwrap();
        drop(store);
        let (store, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!((report.segments, report.quarantined), (1, 0));
        assert_eq!(vps.len(), 1);
        assert_eq!(vps[0].minute(), MinuteId(7));
        drop(store);

        // A second foreign file under the same name gets a fresh
        // quarantine suffix — never replacing the first quarantined copy.
        std::fs::write(&wrong_name, b"another misplaced file").unwrap();
        let (_, _, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(std::fs::read(&quarantined).unwrap(), original_bytes);
        assert_eq!(
            std::fs::read(tmp.0.join("minute-000000000007.vmseg.mismatch.1")).unwrap(),
            b"another misplaced file"
        );
    }

    #[test]
    fn directory_lock_blocks_second_opener_and_recovers_after_crash() {
        let tmp = TempDir::new("dirlock");
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        let err = match VpStore::open(&tmp.0, cfg()) {
            Err(e) => e,
            Ok(_) => panic!("second opener must fail"),
        };
        assert!(err.to_string().contains("locked"), "{err}");
        drop(store);
        // Graceful drop releases the lock.
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        drop(store);
        if Path::new("/proc").is_dir() {
            // Simulated crash: a LOCK whose pid is provably dead is
            // reclaimed (refusing here would defeat crash recovery).
            std::fs::write(tmp.0.join("LOCK"), "4294000001").unwrap();
            let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
            drop(store);
        }
        // An unverifiable LOCK (garbage pid) is treated as held.
        std::fs::write(tmp.0.join("LOCK"), "not-a-pid").unwrap();
        assert!(VpStore::open(&tmp.0, cfg()).is_err());
    }

    #[test]
    fn parallel_framing_is_byte_identical_to_serial() {
        // At APPEND_PARALLEL_THRESHOLD and above the append frames on
        // worker threads and lends the parts in order; their bytes, and
        // their ends rebased, must equal one serial framing exactly.
        let tmp = TempDir::new("parframe");
        let n = APPEND_PARALLEL_THRESHOLD + 513;
        let group: Vec<StoredVp> = (0..n as u64).map(|t| synthetic_vp(t, 0)).collect();
        let refs: Vec<&StoredVp> = group.iter().collect();
        let (store, _, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        let mut lent = Frames::default();
        store
            .append_then(&refs, None, |part| {
                assert!(part.ends.len() <= APPEND_PARALLEL_THRESHOLD);
                let base = lent.bytes.len();
                lent.bytes.extend_from_slice(&part.bytes);
                lent.ends.extend(part.ends.iter().map(|end| base + end));
            })
            .unwrap();
        store.sync().unwrap();
        drop(store);

        let disk = std::fs::read(crate::segment::segment_path(&tmp.0, MinuteId(0))).unwrap();
        let mut serial = Frames::default();
        serial.push(&refs);
        assert_eq!(lent, serial, "parallel framing changed the byte stream");
        assert_eq!(
            &disk[crate::segment::SEGMENT_HEADER_BYTES..],
            &serial.bytes[..],
            "the bytes lent are the bytes written"
        );
        let (_, vps, report) = VpStore::open(&tmp.0, cfg()).unwrap();
        assert_eq!(report.records, n);
        for (a, b) in group.iter().zip(&vps) {
            assert_eq!(a.id, b.id, "replay order");
        }
    }

    #[test]
    fn an_append_given_frames_writes_them_as_they_are() {
        // A replica hands the store the frames its primary shipped; the
        // store writes them and lends them unchanged, and frames only
        // the records that came without them.
        let tmp = TempDir::new("verbatim");
        let (store, obs) = store_with_obs(&tmp, cfg().fsync);
        let encoded = obs.counter("vm_store_encoded_records_total");
        let group: Vec<StoredVp> = (0..5).map(|tag| synthetic_vp(tag, 0)).collect();
        let refs: Vec<&StoredVp> = group.iter().collect();
        let mut shipped = Frames::default();
        shipped.push(&refs);
        // Records 1 and 3 only, as if replay dropped the others.
        let starts = |i: usize| i.checked_sub(1).map_or(0, |j| shipped.ends[j]);
        let frame = |i: usize| &shipped.bytes[starts(i)..shipped.ends[i]];
        let mut lent = Vec::new();
        store
            .append_then(&[refs[1], refs[3]], Some(&[frame(1), frame(3)]), |part| {
                lent.extend_from_slice(part.bytes())
            })
            .unwrap();
        assert_eq!(lent, [frame(1), frame(3)].concat(), "lent as given");
        assert_eq!(encoded.get(), 0, "nothing framed afresh");
        store.append(&[refs[4]], None).unwrap();
        assert_eq!(encoded.get(), 1);
        drop(store);

        let disk = std::fs::read(crate::segment::segment_path(&tmp.0, MinuteId(0))).unwrap();
        assert_eq!(
            &disk[crate::segment::SEGMENT_HEADER_BYTES..],
            &[frame(1), frame(3), frame(4)].concat()[..],
            "the given frames and the framer's are one byte stream"
        );
        let (_, vps, _) = VpStore::open(&tmp.0, cfg()).unwrap();
        let ids: Vec<VpId> = vps.iter().map(|vp| vp.id).collect();
        assert_eq!(ids, vec![group[1].id, group[3].id, group[4].id]);
    }

    #[test]
    fn fresh_signing_key_over_recovered_state_is_warned() {
        // First boot: empty store, fresh key persisted — nothing
        // orphaned, no warning. A normal restart loads the keyfile, so
        // no warning either. Only a restart over real records with the
        // keyfile *deleted* (or a pre-keyfile directory) generates a
        // fresh key over recovered state — and the report must say so,
        // typed.
        let tmp = TempDir::new("freshkey");
        let vmcfg = ViewmapConfig::default();
        {
            let mut rng = StdRng::seed_from_u64(7);
            let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
            assert!(!report.fresh_signing_key, "empty store: fresh key is fine");
            assert!(report.warnings().is_empty());
            srv.submit_trusted_batch(vec![synthetic_vp(1, 0)])[0].unwrap();
            srv.sync_wal().unwrap();
        }
        {
            let mut rng = StdRng::seed_from_u64(8);
            let (_srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
            assert!(
                !report.fresh_signing_key,
                "persisted key retires the warning for normal restarts"
            );
        }
        std::fs::remove_file(crate::keyfile::keyfile_path(&tmp.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (_srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        assert!(report.fresh_signing_key);
        assert_eq!(
            report.warnings(),
            vec![RecoveryWarning::FreshSigningKey {
                recovered_records: 1
            }]
        );
        assert!(
            report.warnings()[0].to_string().contains("re-supplies"),
            "warning text tells the operator what to do"
        );
    }

    #[test]
    fn signing_key_persists_across_restart_and_honors_old_cash() {
        // Cash minted before a restart must redeem after it: the key is
        // loaded from the keyfile, not regenerated.
        let tmp = TempDir::new("keycash");
        let vmcfg = ViewmapConfig::default();
        let mut rng = StdRng::seed_from_u64(21);
        let mut wallet = viewmap_core::reward::Wallet::new();
        let old_public = {
            let (srv, _) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
            let secret = *b"QuSecret";
            let vp_id = viewmap_core::types::VpId::from_secret(&secret);
            srv.post_reward(vp_id, 2);
            let (pending, blinded) = wallet.prepare(&mut rng, srv.public_key(), 2);
            let signed = srv
                .issue_blind_signatures(vp_id, &secret, &blinded)
                .unwrap();
            assert_eq!(
                wallet.accept_signed(srv.public_key(), pending, &signed),
                2,
                "cash minted pre-restart"
            );
            srv.public_key().clone()
        };
        let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        assert!(!report.fresh_signing_key);
        assert_eq!(srv.public_key(), &old_public, "same identity after reboot");
        srv.redeem(&wallet.cash[0])
            .expect("pre-restart cash redeems after restart");

        // open_with_key: matching key is fine; a different key refuses.
        drop(srv);
        let loaded = crate::keyfile::load(&tmp.0).unwrap().unwrap();
        let (srv, _) = ViewMapServer::open_with_key(loaded, vmcfg, &tmp.0, cfg()).unwrap();
        assert_eq!(srv.public_key(), &old_public);
        drop(srv);
        let other = vm_crypto::RsaKeyPair::generate(&mut rng, 512);
        let err = match ViewMapServer::open_with_key(other, vmcfg, &tmp.0, cfg()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched key must refuse to open"),
        };
        assert!(err.to_string().contains("refusing to re-key"), "{err}");
    }

    #[test]
    fn durable_server_round_trips_state() {
        let tmp = TempDir::new("server");
        let mut rng = StdRng::seed_from_u64(1);
        let vmcfg = ViewmapConfig::default();
        {
            let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            for m in 0..3u64 {
                for t in 0..5u64 {
                    srv.submit_trusted_batch(vec![synthetic_vp(m * 10 + t, m)])[0].unwrap();
                }
            }
            assert_eq!(srv.total_vps(), 15);
            srv.sync_wal().unwrap();
        }
        let mut rng = StdRng::seed_from_u64(2);
        let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        assert_eq!(report.records, 15);
        assert_eq!(report.rejected, 0);
        assert_eq!(srv.total_vps(), 15);
        for m in 0..3u64 {
            assert_eq!(srv.vp_count(MinuteId(m)), 5);
            for t in 0..5u64 {
                let id = synthetic_vp(m * 10 + t, m).id;
                let vp = srv.lookup_vp(id).expect("recovered and indexed");
                assert!(vp.trusted, "trusted flag survives the log");
                assert!(!vp.is_key_warm(), "replay warms no link keys");
            }
        }
        // The reopened server keeps logging: a third generation sees the
        // post-recovery submissions too.
        srv.submit_trusted_batch(vec![synthetic_vp(99, 1)])[0].unwrap();
        drop(srv);
        let mut rng = StdRng::seed_from_u64(3);
        let (srv, report) = ViewMapServer::open(&mut rng, 512, vmcfg, &tmp.0, cfg()).unwrap();
        assert_eq!(report.records, 16);
        assert_eq!(srv.vp_count(MinuteId(1)), 6);
    }
}
