//! The ViewMap service (Section 4): VP database, viewmap construction,
//! solicitation board, reward board, and the double-spending ledger.
//!
//! The server never learns who uploaded a VP (see [`crate::upload`]); it
//! operates purely on anonymized VPs, requests videos by VP identifier,
//! validates uploads against the stored cascaded hashes, and pays with
//! blind-signature cash it cannot trace.
//!
//! # Storage layout
//!
//! The VP database is built for sustained city-scale ingest (millions of
//! VPs per minute across many uploader sessions) with concurrent
//! investigations reading from it:
//!
//! * **Sharded minute store** — the minute-keyed map is split across
//!   [`DB_SHARDS`] independent `RwLock` stripes (keyed by a mixed hash of
//!   the minute), so submissions for different minutes never contend on
//!   one global lock, and an investigation building a viewmap only blocks
//!   ingest for the single minute it reads.
//! * **VP-id index** — a second set of stripes maps `VpId → (MinuteId,
//!   position)`. It doubles as the duplicate-submission set, and turns
//!   video-upload lookup into two hash probes (id stripe, then minute
//!   shard) instead of the full-database scan the first implementation
//!   did. Positions are stable because minute vectors are append-only.
//! * **Zero-copy hand-off** — VPs are stored as `Arc<StoredVp>`, and
//!   [`Viewmap`] members share those `Arc`s: building a viewmap never
//!   clones a VP's 60 VDs or its Bloom filter.
//! * **Admission table + viewlink memo per minute** — beside its VPs a
//!   minute bucket keeps one bounding-box row per VP (appended at
//!   ingest, computed while screening) and the handle of its region-lazy
//!   viewlink memo ([`crate::maintained`]). Ingest never links anything;
//!   an investigation scans the table, then links — under the memo's own
//!   lock — only the members its site admits that no earlier site did.
//!
//! Lock order is always id stripes (ascending) → minute shard →
//! solicitation board, and a memo lock is only ever taken with no
//! stripe, shard or board lock held; the stripe and shard acquisitions
//! are short (no validation, hashing, or linking happens under them) —
//! an investigation blocks ingest for its minute's stripe only while it
//! scans the admission table.
//!
//! # One commit path
//!
//! Every `submit*` entry point is a one-line call into one private
//! commit function, which commits a batch's minute groups in ascending
//! minute order, taking every id stripe a group needs in ascending
//! order, then the shard — one acquisition per (minute, batch) instead
//! of per VP, which is where batch throughput comes from. A group whose
//! VPs all turn out to be duplicates under those locks touches nothing,
//! so a minute has a bucket only while a VP is in it. A single
//! submission is a batch of one. The warm entry points
//! ([`ViewMapServer::submit_batch_warm`],
//! [`ViewMapServer::submit_trusted_batch`]) additionally pre-hash each
//! VP's viewlink keys before committing, so investigations of freshly
//! ingested minutes start with a warm key cache; every other path,
//! log replay included, leaves the keys to be hashed lazily by the
//! first investigation that admits the VP.
//!
//! The same function decides trust, from the channel a VP arrived on
//! and never from the record: anonymous submissions are stored
//! untrusted whatever their `trusted` flag says, the authority entry
//! point ([`ViewMapServer::submit_trusted_batch`]) stores trust seeds,
//! and only log replay (recovery and replication) keeps each record's
//! own flag. A network peer therefore cannot mint a TrustRank seed.
//!
//! # Durability seam
//!
//! The store is RAM-first; durability is optional and attaches through
//! the [`crate::wal::VpWal`] trait ([`ViewMapServer::attach_wal`]).
//! When a log is attached, the log moves first and memory follows only
//! what the log did: every *accepted* VP is appended under its minute
//! shard's write lock and only then pushed to its bucket and indexed —
//! one group-commit append per (minute, batch), so per-minute log order
//! always equals bucket order and a replay reconstructs the id index
//! byte for byte. A refused append panics before memory is touched, so
//! memory never holds a VP the log did not record. Once an ingest call
//! has appended its last group it calls [`VpWal::end_batch`] once,
//! outside every lock.
//! [`ViewMapServer::submit_replay_batch`] is the one replay entry, for
//! recovery and for a replication follower alike: it drives decoded
//! log records through the normal batch machinery (screening, in-batch
//! dedup) while preserving each record's own `trusted` flag, and warms
//! no link keys. Recovery calls it before any log is attached, so it
//! never re-appends; a replica passes the frames its primary shipped
//! beside the records, and its log writes each accepted record's frame
//! as it arrived instead of encoding it again. Bounded retention
//! ([`ViewMapServer::evict_minutes_before`]) drops expired minutes from
//! the log first, then from the shards, the id index and the
//! solicitation board, so a refused sweep panics with memory whole. The
//! concrete append-log engine lives in the `vm-store` crate.

use crate::maintained::{BoundsTable, MemoCell, MemoTotals, VdBounds};
use crate::reward::Cash;
use crate::solicit::{validate_upload, UploadError, VideoUpload};
use crate::trustrank::CsrGraph;
use crate::types::{MinuteId, VpId, MAX_NEIGHBORS};
use crate::upload::AnonymousSubmission;
use crate::viewmap::{Site, Viewmap, ViewmapConfig};
use crate::vp::StoredVp;
use crate::wal::VpWal;
use parking_lot::RwLock;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vm_crypto::rsa::RsaError;
use vm_crypto::{BlindedMessage, RsaKeyPair, RsaPublicKey, Signature};
use vm_obs::{Counter, Histogram, Registry};

/// Number of lock stripes in the VP database (and in the id index).
/// Power of two so stripe selection is a mask.
pub const DB_SHARDS: usize = 16;

// The server is shared by reference across scoped ingest threads and by
// `Arc` under the vm-service network front-end; every field must stay
// `Send + Sync` (which is why `VpWal` carries those supertraits). This
// compile-time audit turns an accidental `!Sync` field — a `Cell`, an
// `Rc`, a raw pointer — into a build error here instead of a cryptic
// one in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ViewMapServer>();
};

/// Bytes all of a cell's viewlink memos may hold together. A memo costs
/// ~1.3 KB per materialised member, so this is roughly 400k members —
/// several whole city minutes, or thousands of incident sites. Past it,
/// whole least-recently-investigated memos are dropped (their minutes
/// re-materialise on the next investigation).
const MEMO_BYTE_BUDGET: usize = 512 << 20;

/// Why a VP submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// A VP with this identifier already exists.
    Duplicate,
    /// The VP does not carry exactly 60 VDs with strictly increasing
    /// timestamps (a genuine cascade records one VD per second; repeated
    /// or reordered seconds are only producible by tampering), or its
    /// minute is at or past [`crate::types::MINUTE_LIMIT`].
    MalformedVds,
    /// The Bloom filter is implausibly saturated (poisoning defense).
    SuspiciousBloom,
}

/// Lock-free admission screen, run on every VP before any lock.
/// An accepted VP comes back with its row for the minute's admission
/// table — gathered in the same pass over the 60 VDs that checks their
/// time order — so nothing about it is computed under a lock.
fn screen(vp: &StoredVp) -> Result<VdBounds, SubmitError> {
    if vp.vds.len() != crate::types::SECONDS_PER_VP as usize {
        return Err(SubmitError::MalformedVds);
    }
    let mut bounds = VdBounds::EMPTY;
    let mut ordered = true;
    let mut prev = None;
    for vd in &vp.vds {
        ordered &= prev < Some(vd.time);
        prev = Some(vd.time);
        bounds.include(&vd.loc);
    }
    if !ordered || vp.minute().0 >= crate::types::MINUTE_LIMIT {
        return Err(SubmitError::MalformedVds);
    }
    if vp.bloom.is_suspicious(MAX_NEIGHBORS) {
        return Err(SubmitError::SuspiciousBloom);
    }
    Ok(bounds)
}

/// Where a committed VP's `trusted` flag comes from: the channel it
/// arrived on, never the record alone.
#[derive(Clone, Copy)]
enum Trust {
    /// Public upload: stored untrusted whatever the record says.
    Anonymous,
    /// Authority channel: stored as a trust seed.
    Authority,
    /// Log replay (recovery, replication): the record's own flag, which
    /// one of the other two set when it was first committed.
    AsRecorded,
}

fn anonymous(subs: impl IntoIterator<Item = AnonymousSubmission>) -> Vec<StoredVp> {
    subs.into_iter().map(|s| s.vp).collect()
}

/// Why a reward request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RewardError {
    /// The VP id is not on the reward board.
    NotOnBoard,
    /// The presented secret does not hash to the VP id.
    BadOwnershipProof,
    /// A blinded value that would be signed is not in `[0, n)`. Nothing
    /// was signed and the reward is still on the board.
    BlindedOutOfRange,
    /// A signature failed its check after signing (a computation fault).
    /// No signature was released and the reward was put back on the
    /// board, so the owner can claim again.
    SigningFault,
}

/// Why redeeming cash failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedeemError {
    /// The signature does not verify under the system key.
    BadSignature,
    /// The cash message was already spent.
    DoubleSpend,
}

/// Where a VP lives: its minute bucket and append position within it.
#[derive(Clone, Copy, Debug)]
struct VpSlot {
    minute: MinuteId,
    pos: u32,
}

/// One stored minute: the VPs in append order, the admission table that
/// mirrors them row for row, and the minute's viewlink memo. The memo
/// lives and dies with the bucket — a minute without a bucket has no
/// memo, and eviction drops both in one critical section — so a memo
/// can never describe another incarnation of its minute.
struct MinuteBucket {
    vps: Vec<Arc<StoredVp>>,
    bounds: BoundsTable,
    memo: Arc<MemoCell>,
}

impl MinuteBucket {
    /// Append an accepted VP and its table row; returns its position.
    fn push(&mut self, vp: StoredVp, bounds: VdBounds) -> u32 {
        let pos = self.vps.len() as u32;
        self.bounds.push(bounds, vp.trusted);
        self.vps.push(Arc::new(vp));
        pos
    }
}

#[derive(Default)]
struct DbShard {
    by_minute: HashMap<MinuteId, MinuteBucket>,
}

fn minute_stripe(minute: MinuteId) -> usize {
    // Fibonacci mixing: consecutive minutes land on different stripes.
    (minute.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (DB_SHARDS - 1)
}

fn id_stripe(id: &VpId) -> usize {
    id.0.as_bytes()[0] as usize & (DB_SHARDS - 1)
}

/// Stripe count for the double-spending ledger. Redemption is a pure
/// set-insert keyed by a hash, so stripes shard perfectly: concurrent
/// redeem sessions only contend when their cash lands on the same
/// stripe, instead of serializing on one global set.
const LEDGER_STRIPES: usize = 16;

fn ledger_stripe(key: &[u8; 32]) -> usize {
    // The key is sha256 output: any byte is uniform.
    key[0] as usize & (LEDGER_STRIPES - 1)
}

/// The engine's instrument set, registered once per server into its
/// [`Registry`] (naming scheme: `vm_core_*`, latencies in whole
/// microseconds — see ARCHITECTURE.md §9). Handles are `Arc`s into the
/// registry, so recording is lock-free and a disabled registry turns
/// every call into a relaxed load.
struct CoreMetrics {
    /// `vm_core_vps_stored_total` — VPs committed to the database
    /// (every entry point, recovery replay included).
    vps_stored: Arc<Counter>,
    /// `vm_core_vps_rejected_total` — screened-out or duplicate VPs.
    vps_rejected: Arc<Counter>,
    /// `vm_core_vps_evicted_total` / `vm_core_eviction_sweeps_total`.
    vps_evicted: Arc<Counter>,
    eviction_sweeps: Arc<Counter>,
    /// `vm_core_batch_accepted_vps` — accepted VPs per ingest call (a
    /// single submit is a batch of one).
    batch_accepted: Arc<Histogram>,
    /// `vm_core_investigate_us` — full investigation pipeline latency.
    investigate_us: Arc<Histogram>,
    /// `vm_core_trustrank_iterations` — power-method iterations per
    /// investigation.
    trustrank_iterations: Arc<Histogram>,
    /// `vm_core_maintained_create_us` / `vm_core_maintained_splice_us`
    /// / `vm_core_maintained_extract_us` — the viewlink memo, all on the
    /// investigation side: linking into an empty memo (a minute's first
    /// materialisation), linking newly admitted members into a
    /// non-empty one — the same splice, timed apart — and admission +
    /// induced-subgraph extraction.
    maintained_create_us: Arc<Histogram>,
    maintained_extract_us: Arc<Histogram>,
    maintained_splice_us: Arc<Histogram>,
    /// `vm_core_maintained_hits_total` / `_misses_total` — admitted
    /// members the memo already held vs. linked now: the memo's
    /// useful/attempted ratio.
    maintained_hits: Arc<Counter>,
    maintained_misses: Arc<Counter>,
    /// `vm_core_cash_redeemed_total` / `vm_core_cash_double_spend_total`
    /// / `vm_core_blind_signatures_total` — the reward path: units of
    /// cash accepted into the ledger, redeem attempts bounced as double
    /// spends, and blind signatures issued against the reward board.
    cash_redeemed: Arc<Counter>,
    cash_double_spend: Arc<Counter>,
    blind_signatures: Arc<Counter>,
}

impl CoreMetrics {
    fn register(obs: &Registry) -> CoreMetrics {
        CoreMetrics {
            vps_stored: obs.counter("vm_core_vps_stored_total"),
            vps_rejected: obs.counter("vm_core_vps_rejected_total"),
            vps_evicted: obs.counter("vm_core_vps_evicted_total"),
            eviction_sweeps: obs.counter("vm_core_eviction_sweeps_total"),
            batch_accepted: obs.histogram("vm_core_batch_accepted_vps"),
            investigate_us: obs.histogram("vm_core_investigate_us"),
            trustrank_iterations: obs.histogram("vm_core_trustrank_iterations"),
            maintained_create_us: obs.histogram("vm_core_maintained_create_us"),
            maintained_extract_us: obs.histogram("vm_core_maintained_extract_us"),
            maintained_splice_us: obs.histogram("vm_core_maintained_splice_us"),
            maintained_hits: obs.counter("vm_core_maintained_hits_total"),
            maintained_misses: obs.counter("vm_core_maintained_misses_total"),
            cash_redeemed: obs.counter("vm_core_cash_redeemed_total"),
            cash_double_spend: obs.counter("vm_core_cash_double_spend_total"),
            blind_signatures: obs.counter("vm_core_blind_signatures_total"),
        }
    }
}

/// The ViewMap public-service system.
pub struct ViewMapServer {
    /// Minute-keyed VP store, striped by minute hash.
    db: Vec<RwLock<DbShard>>,
    /// `VpId → VpSlot` index, striped by id byte; also the dedup set.
    id_index: Vec<RwLock<HashMap<VpId, VpSlot>>>,
    solicited: RwLock<HashSet<VpId>>,
    /// VP id → award amount in cash units, set after human review.
    reward_board: RwLock<HashMap<VpId, usize>>,
    /// Double-spend ledger, striped by ledger-key byte so concurrent
    /// redeem sessions do not serialize on one global lock.
    ledger: Vec<RwLock<HashSet<[u8; 32]>>>,
    key: RsaKeyPair,
    cfg: ViewmapConfig,
    /// Optional durable append log; accepted VPs are mirrored into it
    /// under the committing minute's shard lock (see the module docs).
    wal: Option<Box<dyn VpWal>>,
    /// The cell's telemetry registry. Created with the server; the
    /// store, service, and replication layers register their own
    /// instrument sets into the same registry (via [`Self::obs`]) so
    /// one snapshot covers the whole stack.
    obs: Arc<Registry>,
    metrics: CoreMetrics,
    /// What all live viewlink memos hold (also the
    /// `vm_core_maintained_{members,bytes}` gauges), checked against
    /// `memo_budget` after every investigation.
    memo_totals: Arc<MemoTotals>,
    memo_budget: usize,
    /// Investigation counter; stamps memos for the budget's LRU order.
    memo_clock: AtomicU64,
}

impl ViewMapServer {
    /// Stand up a server with a fresh signing key of `key_bits`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, key_bits: usize, cfg: ViewmapConfig) -> Self {
        Self::with_key(RsaKeyPair::generate(rng, key_bits), cfg)
    }

    /// Stand up a server around an operator-supplied signing key.
    ///
    /// This is the constructor real deployments (and replication) want:
    /// a restarted node, or a follower promoted after its primary died,
    /// must keep honoring virtual cash minted under the old key, which
    /// only works if the key outlives any single process. The `vm-store`
    /// recovery path persists the key beside the log and feeds it back
    /// through here on reopen.
    pub fn with_key(key: RsaKeyPair, cfg: ViewmapConfig) -> Self {
        let obs = Arc::new(Registry::new());
        let metrics = CoreMetrics::register(&obs);
        let memo_totals = Arc::new(MemoTotals::new(
            obs.gauge("vm_core_maintained_members"),
            obs.gauge("vm_core_maintained_bytes"),
        ));
        ViewMapServer {
            db: (0..DB_SHARDS)
                .map(|_| RwLock::new(DbShard::default()))
                .collect(),
            id_index: (0..DB_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            solicited: RwLock::new(HashSet::new()),
            reward_board: RwLock::new(HashMap::new()),
            ledger: (0..LEDGER_STRIPES)
                .map(|_| RwLock::new(HashSet::new()))
                .collect(),
            key,
            cfg,
            wal: None,
            obs,
            metrics,
            memo_totals,
            memo_budget: MEMO_BYTE_BUDGET,
            memo_clock: AtomicU64::new(0),
        }
    }

    /// The cell's telemetry registry: the engine's own instruments plus
    /// whatever the durability, service, and replication layers
    /// register. [`vm_obs::Registry::snapshot`] here is the in-process
    /// form of the `STATS` wire scrape.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Attach a durable append log. From this point on every accepted VP
    /// is mirrored into it; the caller (normally the `vm-store` recovery
    /// path) must finish replaying any existing log contents **before**
    /// attaching, or replayed records would be appended twice.
    pub fn attach_wal(&mut self, wal: Box<dyn VpWal>) {
        self.wal = Some(wal);
    }

    /// Flush the attached log (no-op without one). Graceful-shutdown
    /// helper; a correct log backend is already consistent without it.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// The system's public key (printed on the cash, so to speak).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.key.public()
    }

    /// Accept one anonymized VP submission into the database, stored
    /// untrusted.
    pub fn submit(&self, sub: AnonymousSubmission) -> Result<(), SubmitError> {
        self.store_batch(vec![sub.vp], None, Trust::Anonymous, false)[0]
    }

    /// Accept a batch of anonymized submissions in one call.
    ///
    /// The resulting database state is indistinguishable from submitting
    /// the batch elements through [`submit`](Self::submit) one at a time
    /// in order — same minute buckets (and append order within them),
    /// same id index, same per-element accept/reject outcomes, returned
    /// aligned with the input. What changes is the cost model:
    ///
    /// * validation and Bloom screening run before any lock is taken;
    /// * each id stripe and each minute shard is locked **once per
    ///   (minute, batch)** instead of once per VP (stripes in ascending
    ///   order, then the shard — the global order every path follows, so
    ///   concurrent ingest and readers never deadlock).
    ///
    /// A `VpId` that appears twice *within* the batch is first-wins: the
    /// first occurrence (if otherwise valid) is stored, later ones get
    /// [`SubmitError::Duplicate`] — exactly what sequential submission
    /// would produce — and the minute bucket is probed only after the
    /// in-batch screen, so a double-listed VP can never double-insert.
    ///
    /// This path does **not** pre-hash viewlink keys — plain batch ingest
    /// stays a pure locking/screening amortization (most minutes are
    /// never investigated). Use
    /// [`submit_batch_warm`](Self::submit_batch_warm) for minutes that
    /// are about to be. Every VP is stored untrusted.
    pub fn submit_batch(
        &self,
        subs: impl IntoIterator<Item = AnonymousSubmission>,
    ) -> Vec<Result<(), SubmitError>> {
        self.store_batch(anonymous(subs), None, Trust::Anonymous, false)
    }

    /// As [`submit_batch`](Self::submit_batch), additionally precomputing
    /// each accepted VP's element-VD link keys while the VPs are still
    /// exclusively owned. Each VP's 60 digests are hashed through
    /// `vm_crypto`'s multi-buffer engine (`sha256_many_into` —
    /// interleaved independent streams), the same path a cold VP's first
    /// link takes. Investigations of the ingested minutes then skip
    /// their Bloom-key hashing phase — the right trade when a minute is
    /// investigation-bound (an incident was just reported) and worth
    /// 240 B of cached probe keys per VP. The stored state is identical
    /// either way. This is the wire's ingest call; every VP is stored
    /// untrusted.
    pub fn submit_batch_warm(
        &self,
        subs: impl IntoIterator<Item = AnonymousSubmission>,
    ) -> Vec<Result<(), SubmitError>> {
        self.store_batch(anonymous(subs), None, Trust::Anonymous, true)
    }

    /// The authority channel: flags every VP as a trust seed, then
    /// ingests like [`submit_batch_warm`](Self::submit_batch_warm)
    /// (authority VPs anchor viewmaps, so they are always
    /// investigation-bound). One VP is a batch of one.
    pub fn submit_trusted_batch(&self, vps: Vec<StoredVp>) -> Vec<Result<(), SubmitError>> {
        self.store_batch(vps, None, Trust::Authority, true)
    }

    /// Log replay, the one entry for recovery and for a replication
    /// follower: ingest VPs decoded from a durable log through the
    /// normal batch machinery — screening, in-batch first-wins dedup,
    /// per-(minute, batch) stripe/shard locking — while preserving each
    /// record's **own** `trusted` flag (unlike
    /// [`submit_trusted_batch`](Self::submit_trusted_batch), which
    /// force-sets it). No link keys are warmed: they hash lazily, for
    /// only the members a site admits, the first time an investigation
    /// links them — the stored state is identical either way. Recovery
    /// calls this *before* [`attach_wal`](Self::attach_wal) so the
    /// replayed records are not appended to the log a second time.
    ///
    /// `frames`, when given, holds each record's log frame as the log
    /// it was read from holds it (`frames[i]` is `vps[i]`'s): a replica
    /// passes the frames its primary shipped, and its attached log
    /// writes each accepted record's frame as it is
    /// ([`VpWal::append`]) instead of encoding the record again.
    /// Recovery, which appends nothing, passes `None`.
    pub fn submit_replay_batch(
        &self,
        vps: Vec<StoredVp>,
        frames: Option<&[&[u8]]>,
    ) -> Vec<Result<(), SubmitError>> {
        self.store_batch(vps, frames, Trust::AsRecorded, false)
    }

    /// Bounded-retention sweep: drop every stored minute strictly before
    /// `cutoff` from the attached log (if any), then from the in-memory
    /// shards, the id index and the solicitation board. Returns the
    /// number of VPs evicted.
    ///
    /// Evicted ids become submittable again — the dedup set is the id
    /// index, and retention is exactly the operation that forgets ids.
    /// Lock order is the global one (every id stripe ascending, then the
    /// shards one at a time, then the board), so concurrent submits,
    /// batches and solicitations cannot deadlock against a sweep.
    ///
    /// The log moves first, as on ingest: a refused log sweep panics
    /// before memory loses anything, so memory keeps the expired minutes
    /// until a retried sweep (or a restart) drops them, and a restart
    /// never brings back a minute memory already forgot. Every id
    /// stripe is held from the log sweep to the end of the memory sweep,
    /// so no submit can slip a pre-cutoff VP into memory after its log
    /// segment is gone. The cost is a server-wide ingest/lookup pause
    /// of one file unlink per expired minute (metadata-only, typically
    /// tens of µs each) at retention cadence; if sweeps ever batch
    /// enough minutes for that to matter, the next step is a
    /// seal-then-delete split (rename under the locks, unlink after).
    pub fn evict_minutes_before(&self, cutoff: MinuteId) -> usize {
        let mut id_guards: Vec<_> = self.id_index.iter().map(|s| s.write()).collect();
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.evict_minutes_before(cutoff) {
                panic!("WAL eviction failed; memory keeps the minutes: {e}");
            }
        }
        let mut evicted = 0usize;
        for shard in &self.db {
            let mut sh = shard.write();
            let expired: Vec<MinuteId> = sh
                .by_minute
                .keys()
                .filter(|m| m.0 < cutoff.0)
                .copied()
                .collect();
            for m in expired {
                // The viewlink memo goes with its bucket, whole, so a
                // later resubmission of the minute starts from none
                // instead of trusting any pre-eviction edge.
                if let Some(bucket) = sh.by_minute.remove(&m) {
                    evicted += bucket.vps.len();
                    let mut board = self.solicited.write();
                    for vp in &bucket.vps {
                        id_guards[id_stripe(&vp.id)].remove(&vp.id);
                        board.remove(&vp.id);
                    }
                }
            }
        }
        drop(id_guards);
        self.metrics.eviction_sweeps.inc();
        self.metrics.vps_evicted.add(evicted as u64);
        evicted
    }

    /// The one commit path. Sets every VP's `trusted` flag from `trust`
    /// — the only place ingest decides trust — then screens, dedups,
    /// optionally warms link keys, and commits per (minute, batch),
    /// handing the log each accepted VP's entry of `frames` if given.
    fn store_batch(
        &self,
        vps: Vec<StoredVp>,
        frames: Option<&[&[u8]]>,
        trust: Trust,
        warm_keys: bool,
    ) -> Vec<Result<(), SubmitError>> {
        let total = vps.len();
        if let Some(frames) = frames {
            assert_eq!(frames.len(), total, "one frame per replayed record");
        }
        let mut results = vec![Ok(()); total];
        // Screen without locks: shape validation, Bloom poisoning, and
        // the in-batch first-wins duplicate filter.
        let mut seen: HashSet<VpId> = HashSet::with_capacity(total);
        let mut groups: BTreeMap<MinuteId, Vec<(usize, StoredVp, VdBounds)>> = BTreeMap::new();
        for (idx, mut vp) in vps.into_iter().enumerate() {
            match trust {
                Trust::Anonymous => vp.trusted = false,
                Trust::Authority => vp.trusted = true,
                Trust::AsRecorded => {}
            }
            let bounds = match screen(&vp) {
                Ok(bounds) => bounds,
                Err(e) => {
                    results[idx] = Err(e);
                    continue;
                }
            };
            if !seen.insert(vp.id) {
                results[idx] = Err(SubmitError::Duplicate);
                continue;
            }
            // Read-lock prescreen against the id index: a replayed batch
            // (at-least-once delivery, or a resubmission attack) must be
            // rejected with a hash probe, not after hashing 60 link keys
            // per VP. Ids only ever disappear through a retention sweep
            // (`evict_minutes_before`), so a hit here is final up to a
            // racing eviction — and rejecting such a racer is the
            // linearization where it arrived just before the sweep. The
            // authoritative re-check still happens under the write lock
            // at commit for ids that race in between.
            if self.id_index[id_stripe(&vp.id)].read().contains_key(&vp.id) {
                results[idx] = Err(SubmitError::Duplicate);
                continue;
            }
            groups
                .entry(vp.minute())
                .or_default()
                .push((idx, vp, bounds));
        }

        // Optionally warm the link-key cache while the VPs are
        // exclusively ours — ingest-side amortization of the hashing that
        // viewmap construction would otherwise pay per investigation.
        if warm_keys {
            for (_, vp, _) in groups.values().flatten() {
                vp.link_keys();
            }
        }

        let mut logged = false;
        // Commit one minute group at a time, in ascending minute order
        // (so one batch always makes one log order): every id stripe the
        // group touches, write-locked in ascending order, then the
        // minute shard — the global lock order, so concurrent commits
        // and sweeps cannot deadlock. Under both locks the log moves
        // first and memory follows: a refused append panics with
        // nothing in memory to take back, and per-minute log order
        // equals bucket order.
        for (minute, mut group) in groups {
            let mut stripes: Vec<usize> =
                group.iter().map(|(_, vp, _)| id_stripe(&vp.id)).collect();
            stripes.sort_unstable();
            stripes.dedup();
            let mut guards: Vec<_> = Vec::with_capacity(stripes.len());
            let mut guard_of = [usize::MAX; DB_SHARDS];
            for &s in &stripes {
                guard_of[s] = guards.len();
                guards.push(self.id_index[s].write());
            }
            // An id indexed since the prescreen is a duplicate now; a
            // group left with no fresh VP touches neither log nor shard.
            group.retain(|(idx, vp, _)| {
                let fresh = !guards[guard_of[id_stripe(&vp.id)]].contains_key(&vp.id);
                if !fresh {
                    results[*idx] = Err(SubmitError::Duplicate);
                }
                fresh
            });
            if group.is_empty() {
                continue;
            }
            let mut shard = self.db[minute_stripe(minute)].write();
            // One append call (one buffered write + at most one fsync in
            // the backend) for the whole (minute, batch) group.
            if let Some(wal) = &self.wal {
                let fresh: Vec<&StoredVp> = group.iter().map(|(_, vp, _)| vp).collect();
                let framed: Option<Vec<&[u8]>> =
                    frames.map(|frames| group.iter().map(|(idx, _, _)| frames[*idx]).collect());
                if let Err(e) = wal.append(&fresh, framed.as_deref()) {
                    panic!("WAL append failed; nothing of the group is in memory: {e}");
                }
                logged = true;
            }
            let bucket = self.bucket_mut(&mut shard, minute);
            for (_, vp, bounds) in group {
                let id = vp.id;
                let pos = bucket.push(vp, bounds);
                guards[guard_of[id_stripe(&id)]].insert(id, VpSlot { minute, pos });
            }
        }
        // The batch's one log flush, outside every lock (a replicating
        // log ships what its appends staged here).
        if logged {
            if let Some(wal) = &self.wal {
                wal.end_batch();
            }
        }
        let stored = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.metrics.vps_stored.add(stored);
        self.metrics.vps_rejected.add(total as u64 - stored);
        self.metrics.batch_accepted.record(stored);
        results
    }

    /// The minute's bucket under the shard's write guard, created (with
    /// its empty memo) on the minute's first accepted VP.
    fn bucket_mut<'a>(&self, shard: &'a mut DbShard, minute: MinuteId) -> &'a mut MinuteBucket {
        shard
            .by_minute
            .entry(minute)
            .or_insert_with(|| MinuteBucket {
                vps: Vec::new(),
                bounds: BoundsTable::default(),
                memo: Arc::new(MemoCell::new(
                    minute,
                    self.cfg,
                    Arc::clone(&self.memo_totals),
                )),
            })
    }

    /// Fetch a VP by identifier: one id-stripe probe for the slot, one
    /// minute-shard probe for the record. O(1) regardless of database
    /// size — this is the lookup `upload_video` rides on.
    pub fn lookup_vp(&self, id: VpId) -> Option<Arc<StoredVp>> {
        let slot = *self.id_index[id_stripe(&id)].read().get(&id)?;
        let shard = self.db[minute_stripe(slot.minute)].read();
        let vp = shard
            .by_minute
            .get(&slot.minute)?
            .vps
            .get(slot.pos as usize)?;
        debug_assert_eq!(vp.id, id, "id index points at the wrong record");
        Some(Arc::clone(vp))
    }

    /// Number of VPs stored for a minute.
    pub fn vp_count(&self, minute: MinuteId) -> usize {
        self.db[minute_stripe(minute)]
            .read()
            .by_minute
            .get(&minute)
            .map_or(0, |b| b.vps.len())
    }

    /// Total VPs stored.
    pub fn total_vps(&self) -> usize {
        self.db
            .iter()
            .map(|s| {
                let sh = s.read();
                sh.by_minute.values().map(|b| b.vps.len()).sum::<usize>()
            })
            .sum()
    }

    /// Every minute that currently holds at least one VP, ascending.
    /// The iteration backbone for whole-state comparisons (the fault
    /// harness walks this to compare a recovered server against its
    /// oracle minute by minute).
    pub fn stored_minutes(&self) -> Vec<MinuteId> {
        let mut minutes: Vec<MinuteId> = self
            .db
            .iter()
            .flat_map(|s| s.read().by_minute.keys().copied().collect::<Vec<_>>())
            .collect();
        minutes.sort_unstable();
        minutes
    }

    /// Order-sensitive digest over the whole stored state: every minute
    /// in ascending order, every bucket entry's position, id bytes, and
    /// trusted flag. Two servers with equal digests hold the same
    /// minutes, the same buckets in the same append order, and the same
    /// authority flags — the single-number form of the
    /// persisted-vs-live equivalence the recovery suites assert field
    /// by field, cheap enough to run after every simulated crash.
    pub fn state_digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(23)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for minute in self.stored_minutes() {
            h = mix(h, minute.0);
            for (pos, vp) in self.minute_vps(minute).iter().enumerate() {
                let b = vp.id.0.as_bytes();
                h = mix(h, pos as u64);
                h = mix(h, u64::from_le_bytes(b[..8].try_into().expect("8 bytes")));
                h = mix(h, u64::from_le_bytes(b[8..].try_into().expect("8 bytes")));
                h = mix(h, vp.trusted as u64);
            }
        }
        h
    }

    /// Build the viewmap for a minute around an incident site — **the**
    /// investigation path (the wire's `Investigate` opcode lands here
    /// through [`investigate`](Self::investigate)).
    ///
    /// 1. *Admission snapshot*, under the minute shard's **read** lock:
    ///    scan the minute's bounds table (one 32-byte row per VP; the
    ///    box test is reject-only, see [`crate::maintained`]), clone the
    ///    survivors' `Arc`s, and clone the handle of the minute's
    ///    viewlink memo. This is the only part ingest can wait on.
    /// 2. Outside every lock: the exact 60-position check on the
    ///    survivors — the cold build's own predicate.
    /// 3. Under the memo's own lock: splice in the admitted members the
    ///    memo has not seen and extract the induced subgraph in bucket
    ///    order.
    ///
    /// The result is **bit-identical** to `Viewmap::build(&bucket[..L],
    /// site, minute, cfg)` for the bucket prefix `L` the snapshot saw:
    /// the same member `Arc`s in bucket order, the same ascending
    /// adjacency rows, the same trusted indices. That cold build links
    /// through a fresh memo, so it is the test oracle for admission and
    /// for incremental against one-shot linking.
    ///
    /// A minute with no bucket has no memo and none is created for it:
    /// the answer is the empty viewmap, whatever minute id a client
    /// sends. A sweep that evicts the minute after the snapshot does
    /// not disturb the investigation — it answers for its snapshot on
    /// the orphaned memo handle, which then dies with it.
    pub fn build_viewmap(&self, minute: MinuteId, site: Site) -> Viewmap {
        let t_admit = Instant::now();
        let snapshot = {
            let shard = self.db[minute_stripe(minute)].read();
            shard.by_minute.get(&minute).map(|b| {
                (
                    b.bounds.survivors(&b.vps, &site, &self.cfg),
                    Arc::clone(&b.memo),
                )
            })
        };
        let Some((survivors, memo)) = snapshot else {
            return Viewmap {
                vps: Vec::new(),
                graph: CsrGraph::from_adj(&[]),
                trusted: Vec::new(),
                minute,
            };
        };
        let admitted = survivors.settle();
        let admit = t_admit.elapsed();

        memo.touch(self.memo_clock.fetch_add(1, Ordering::Relaxed));
        let m = &self.metrics;
        let vm = memo.with(|graph| {
            let first_touch = graph.is_empty();
            let t_link = Instant::now();
            let linked = graph.materialise(&admitted);
            if linked.misses > 0 {
                let link_us = if first_touch {
                    &m.maintained_create_us
                } else {
                    &m.maintained_splice_us
                };
                link_us.record_duration_us(t_link.elapsed());
            }
            m.maintained_hits.add(linked.hits as u64);
            m.maintained_misses.add(linked.misses as u64);
            let t_extract = Instant::now();
            let vm = graph.extract(admitted);
            m.maintained_extract_us
                .record_duration_us(admit + t_extract.elapsed());
            vm
        });
        // Dropped first: had a sweep orphaned this memo, its bytes
        // would otherwise count against the live memos below.
        drop(memo);
        self.enforce_memo_budget();
        vm
    }

    /// Drop whole least-recently-investigated memos until the cell is
    /// back under its byte budget. Runs after an investigation, with no
    /// lock held: shard read locks are taken one at a time to collect
    /// handles, then each victim is cleared under its own lock. A minute
    /// whose memo was dropped re-materialises on its next investigation.
    fn enforce_memo_budget(&self) {
        if self.memo_totals.bytes() <= self.memo_budget {
            return;
        }
        let mut live: Vec<(u64, Arc<MemoCell>)> = Vec::new();
        for shard in &self.db {
            let sh = shard.read();
            live.extend(
                sh.by_minute
                    .values()
                    .filter(|b| b.memo.members() > 0)
                    .map(|b| (b.memo.last_used(), Arc::clone(&b.memo))),
            );
        }
        live.sort_unstable_by_key(|(tick, _)| *tick);
        for (_, memo) in live {
            if self.memo_totals.bytes() <= self.memo_budget {
                break;
            }
            memo.with(|graph| graph.clear());
        }
    }

    /// Full investigation pipeline for one minute: build the viewmap, run
    /// Algorithm 1, and post the verified VP ids on the solicitation
    /// board — unless a retention sweep dropped the minute since the
    /// admission snapshot, in which case nothing is posted. Returns the
    /// verified ids. No shard lock is held while linking, extracting, or
    /// running TrustRank.
    pub fn investigate(&self, minute: MinuteId, site: Site) -> Vec<VpId> {
        self.metrics.investigate_us.time(|| {
            let vm = self.build_viewmap(minute, site);
            let (_, ids, iterations) = vm.verify_counted(&site, &self.cfg);
            self.metrics.trustrank_iterations.record(iterations as u64);
            self.post_if_stored(&vm, &ids);
            ids
        })
    }

    /// Post `vm`'s verified `ids` only if its minute's bucket still
    /// holds its first member — the same allocation, which the viewmap
    /// keeps alive, so no later incarnation of the minute can hold it.
    /// Buckets are append-only and a sweep drops a whole bucket, so then
    /// every member is stored. The check holds the minute's shard lock,
    /// and a sweep evicting the minute holds it while it takes the
    /// bucket's ids off the board: the sweep either ran first (nothing
    /// is posted) or removes the posting. One shard lock rather than
    /// [`solicit`](Self::solicit)'s check in each id's stripe, which
    /// would queue a wide site behind concurrent commits in every
    /// stripe.
    fn post_if_stored(&self, vm: &Viewmap, ids: &[VpId]) {
        let Some(first) = vm.vps.first() else { return };
        let shard = self.db[minute_stripe(vm.minute)].read();
        let bucket = shard.by_minute.get(&vm.minute);
        if bucket.is_some_and(|b| b.vps.iter().any(|vp| Arc::ptr_eq(vp, first))) {
            self.solicited.write().extend(ids.iter().copied());
        }
    }

    /// Does `minute` currently hold a viewlink memo with anything
    /// materialised? Observability hook for tests and the fault harness
    /// (which asserts that recovery, promotion, and eviction never
    /// carry memo state over).
    pub fn has_maintained(&self, minute: MinuteId) -> bool {
        self.db[minute_stripe(minute)]
            .read()
            .by_minute
            .get(&minute)
            .is_some_and(|b| b.memo.members() > 0)
    }

    /// Post a solicitation directly (investigator action: request the
    /// video behind a specific VP id, e.g. after manual review of a
    /// verification outcome). Only a stored id is posted; any other
    /// gets [`UploadError::UnknownVp`], so the board never holds more
    /// entries than the database holds VPs.
    ///
    /// The check and the insert happen under the id's stripe lock,
    /// which a retention sweep must take exclusively: a sweep either
    /// ran before (the id is gone, nothing is posted) or runs after and
    /// takes the posting off the board with its minute.
    pub fn solicit(&self, id: VpId) -> Result<(), UploadError> {
        let ids = self.id_index[id_stripe(&id)].read();
        if !ids.contains_key(&id) {
            return Err(UploadError::UnknownVp);
        }
        self.solicited.write().insert(id);
        Ok(())
    }

    /// Snapshot of one minute's stored VPs (`Arc`-shared with the DB, so
    /// the snapshot is pointer copies; the shard lock is held only for
    /// the copy).
    pub fn minute_vps(&self, minute: MinuteId) -> Vec<Arc<StoredVp>> {
        self.db[minute_stripe(minute)]
            .read()
            .by_minute
            .get(&minute)
            .map(|b| b.vps.clone())
            .unwrap_or_default()
    }

    /// The current solicitation board ("request for video" postings).
    pub fn solicitation_board(&self) -> Vec<VpId> {
        let mut v: Vec<VpId> = self.solicited.read().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Anonymously upload a solicited video. On success the video is
    /// queued for human review; review acceptance posts the reward.
    pub fn upload_video(&self, upload: &VideoUpload) -> Result<(), UploadError> {
        if !self.solicited.read().contains(&upload.vp_id) {
            return Err(UploadError::NotSolicited);
        }
        let stored = self.lookup_vp(upload.vp_id).ok_or(UploadError::UnknownVp)?;
        validate_upload(&stored, upload)?;
        Ok(())
    }

    /// Human review outcome: award `units` of cash to the owner of `vp_id`
    /// ("request for reward" posting).
    pub fn post_reward(&self, vp_id: VpId, units: usize) {
        self.reward_board.write().insert(vp_id, units);
    }

    /// The reward board.
    pub fn reward_board(&self) -> Vec<(VpId, usize)> {
        let mut v: Vec<(VpId, usize)> = self
            .reward_board
            .read()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Step (i) of Appendix A: prove ownership of a rewarded VP with the
    /// secret `Q_u`; returns the award amount `n`.
    pub fn claim_reward(&self, vp_id: VpId, secret: &[u8; 8]) -> Result<usize, RewardError> {
        let board = self.reward_board.read();
        let units = *board.get(&vp_id).ok_or(RewardError::NotOnBoard)?;
        if VpId::from_secret(secret) != vp_id {
            return Err(RewardError::BadOwnershipProof);
        }
        Ok(units)
    }

    /// Step (iii): sign the blinded messages — the server learns nothing
    /// about the cash it is creating. Consumes the board entry so a
    /// reward is only issued once.
    ///
    /// Safe under concurrent sessions: the board entry is *claimed*
    /// (removed) atomically before any signature is produced, so two
    /// racing claimants for the same VP get exactly one set of
    /// signatures — the loser sees `NotOnBoard`. The expensive RSA
    /// signing happens outside every lock.
    ///
    /// The reply is positional (signature `i` answers `blinded[i]`), so
    /// the values that would be signed are range-checked *before* the
    /// entry is consumed: a malformed request is a typed error that
    /// costs the owner nothing, never a short or misaligned reply. A
    /// signature that fails its check after signing
    /// ([`RewardError::SigningFault`]) releases nothing and re-posts the
    /// consumed entry.
    pub fn issue_blind_signatures(
        &self,
        vp_id: VpId,
        secret: &[u8; 8],
        blinded: &[BlindedMessage],
    ) -> Result<Vec<Signature>, RewardError> {
        // Validate first (read lock only) so the error priority matches
        // claim_reward: NotOnBoard before BadOwnershipProof.
        self.claim_reward(vp_id, secret)?;
        let (units, take) = {
            // Check and consume under one write lock; a race loser
            // finds the entry gone.
            let mut board = self.reward_board.write();
            let units = *board.get(&vp_id).ok_or(RewardError::NotOnBoard)?;
            let take = blinded.len().min(units);
            let n = self.key.public().modulus();
            if blinded[..take].iter().any(|b| &b.0 >= n) {
                return Err(RewardError::BlindedOutOfRange);
            }
            board.remove(&vp_id);
            (units, take)
        };
        let sigs = crate::reward::sign_blinded_batch(&self.key, &blinded[..take]).map_err(|e| {
            // Nothing is released, so the reward goes back on the board
            // (unless a newer posting took its place meanwhile).
            self.reward_board.write().entry(vp_id).or_insert(units);
            match e {
                RsaError::OutOfRange => RewardError::BlindedOutOfRange,
                RsaError::Fault | RsaError::InvalidKey => RewardError::SigningFault,
            }
        })?;
        self.metrics.blind_signatures.add(sigs.len() as u64);
        Ok(sigs)
    }

    /// Redeem one unit of cash: verify the signature, check and update the
    /// double-spending ledger. The ledger is striped by key byte, so
    /// concurrent redeem sessions only contend within a stripe.
    pub fn redeem(&self, cash: &Cash) -> Result<(), RedeemError> {
        if !cash.verify(self.key.public()) {
            return Err(RedeemError::BadSignature);
        }
        let key = cash.ledger_key();
        if !self.ledger[ledger_stripe(&key)].write().insert(key) {
            self.metrics.cash_double_spend.inc();
            return Err(RedeemError::DoubleSpend);
        }
        self.metrics.cash_redeemed.inc();
        Ok(())
    }

    /// Total units of cash accepted into the double-spending ledger.
    pub fn spent_cash(&self) -> usize {
        self.ledger.iter().map(|s| s.read().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::Wallet;
    use crate::types::{GeoPos, SECONDS_PER_VP};
    use crate::upload::AnonymousChannel;
    use crate::vp::{VpBuilder, VpKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Commit one VP with its own `trusted` flag (the replay channel).
    fn store(srv: &ViewMapServer, vp: StoredVp) -> Result<(), SubmitError> {
        srv.submit_replay_batch(vec![vp], None)[0]
    }

    fn server(seed: u64) -> ViewMapServer {
        let mut rng = StdRng::seed_from_u64(seed);
        ViewMapServer::new(&mut rng, 512, ViewmapConfig::default())
    }

    fn record_at(seed: u64, y: f64, start_time: u64) -> (crate::vp::FinalizedMinute, Vec<Vec<u8>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = VpBuilder::new(&mut rng, start_time, GeoPos::new(0.0, y), VpKind::Actual);
        let chunks: Vec<Vec<u8>> = (0..SECONDS_PER_VP)
            .map(|i| (0..64).map(|j| ((seed + i * 3 + j) % 251) as u8).collect())
            .collect();
        for (i, c) in chunks.iter().enumerate() {
            b.record_second(c, GeoPos::new(i as f64 * 8.0, y));
        }
        (b.finalize(), chunks)
    }

    fn record(seed: u64, y: f64) -> (crate::vp::FinalizedMinute, Vec<Vec<u8>>) {
        record_at(seed, y, 0)
    }

    /// Fabricated minimal VP for volume tests: 60 VDs with synthetic
    /// digests (no real hashing), empty Bloom filter.
    fn synthetic_vp(tag: u64, minute: u64) -> StoredVp {
        use crate::vd::ViewDigest;
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
                loc: GeoPos::new(tag as f64, seq as f64),
                file_size: seq as u64 * 64,
                initial_loc: GeoPos::new(tag as f64, 0.0),
                vp_id: id,
                hash: vm_crypto::Digest16(id_bytes),
            })
            .collect();
        StoredVp::new(id, vds, crate::bloom::BloomFilter::default(), false)
    }

    #[test]
    fn submissions_are_stored_and_deduplicated() {
        let srv = server(1);
        let (fin, _) = record(2, 0.0);
        let mut ch = AnonymousChannel::new();
        ch.enqueue(fin.profile.clone());
        ch.enqueue(fin.profile.clone()); // duplicate id
        let mut rng = StdRng::seed_from_u64(3);
        let batch = ch.flush(&mut rng);
        let results: Vec<_> = batch.into_iter().map(|s| srv.submit(s)).collect();
        assert!(results.contains(&Ok(())));
        assert!(results.contains(&Err(SubmitError::Duplicate)));
        assert_eq!(srv.total_vps(), 1);
    }

    #[test]
    fn malformed_vp_rejected() {
        let srv = server(4);
        let (fin, _) = record(5, 0.0);
        let mut vp = fin.profile.into_stored();
        vp.vds.truncate(10);
        assert_eq!(store(&srv, vp), Err(SubmitError::MalformedVds));
    }

    #[test]
    fn non_monotone_vd_times_rejected() {
        // A genuine cascade records one VD per second; duplicated or
        // reordered timestamps are tampering and must not reach the DB
        // (they would also make viewlink alignment ill-defined).
        let srv = server(40);
        let mut dup = synthetic_vp(1, 0);
        dup.vds[5].time = dup.vds[4].time;
        assert_eq!(store(&srv, dup.clone()), Err(SubmitError::MalformedVds));
        let mut reordered = synthetic_vp(2, 0);
        reordered.vds.swap(10, 11);
        let results = srv.submit_batch(vec![submission(reordered), submission(dup)]);
        assert_eq!(
            results,
            vec![
                Err(SubmitError::MalformedVds),
                Err(SubmitError::MalformedVds)
            ]
        );
        assert_eq!(srv.total_vps(), 0);
    }

    #[test]
    fn poisoned_bloom_rejected() {
        let srv = server(6);
        let (fin, _) = record(7, 0.0);
        let mut vp = fin.profile.into_stored();
        vp.bloom = crate::bloom::BloomFilter::from_bytes(vec![0xff; 256], 8);
        assert_eq!(store(&srv, vp), Err(SubmitError::SuspiciousBloom));
    }

    #[test]
    fn video_upload_requires_solicitation() {
        let srv = server(8);
        let (fin, chunks) = record(9, 0.0);
        let id = fin.profile.id();
        store(&srv, fin.profile.into_stored()).unwrap();
        let upload = VideoUpload { vp_id: id, chunks };
        assert_eq!(srv.upload_video(&upload), Err(UploadError::NotSolicited));
    }

    #[test]
    fn solicitation_board_holds_only_stored_ids() {
        let srv = server(41);
        let stored = synthetic_vp(1, 0);
        store(&srv, stored.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100_000 {
            let id = VpId(vm_crypto::Digest16(rng.gen()));
            assert_eq!(srv.solicit(id), Err(UploadError::UnknownVp));
        }
        assert!(srv.solicitation_board().is_empty());
        assert_eq!(srv.solicit(stored.id), Ok(()));
        assert_eq!(srv.solicitation_board(), vec![stored.id]);
    }

    #[test]
    fn a_solicitation_leaves_the_board_with_its_minute() {
        let srv = server(43);
        let (old, kept) = (synthetic_vp(1, 0), synthetic_vp(2, 1));
        for vp in [&old, &kept] {
            store(&srv, vp.clone()).unwrap();
            srv.solicit(vp.id).unwrap();
        }
        assert_eq!(srv.evict_minutes_before(MinuteId(1)), 1);
        assert_eq!(srv.solicitation_board(), vec![kept.id]);
        // A resubmission of the evicted id is a new VP, not solicited.
        store(&srv, old.clone()).unwrap();
        assert_eq!(srv.solicitation_board(), vec![kept.id]);
    }

    #[test]
    fn end_to_end_reward_flow_with_double_spend_defense() {
        let srv = server(10);
        let mut rng = StdRng::seed_from_u64(11);
        let (fin, _chunks) = record(12, 0.0);
        let vp_id = fin.profile.id();
        let secret = fin.secret;
        store(&srv, fin.profile.into_stored()).unwrap();

        // Human review done: award 3 units.
        srv.post_reward(vp_id, 3);
        assert_eq!(srv.reward_board().len(), 1);

        // Wrong secret fails ownership proof.
        assert_eq!(
            srv.claim_reward(vp_id, &[0u8; 8]),
            Err(RewardError::BadOwnershipProof)
        );

        // Owner claims with Q_u.
        let units = srv.claim_reward(vp_id, &secret).unwrap();
        assert_eq!(units, 3);
        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, srv.public_key(), units);
        let signed = srv
            .issue_blind_signatures(vp_id, &secret, &blinded)
            .unwrap();
        assert_eq!(wallet.accept_signed(srv.public_key(), pending, &signed), 3);

        // Board entry consumed: no double issuance.
        assert_eq!(
            srv.issue_blind_signatures(vp_id, &secret, &blinded),
            Err(RewardError::NotOnBoard)
        );

        // Spend each unit once; second spend is caught.
        for c in &wallet.cash {
            assert_eq!(srv.redeem(c), Ok(()));
        }
        assert_eq!(srv.redeem(&wallet.cash[0]), Err(RedeemError::DoubleSpend));
    }

    #[test]
    fn out_of_range_blinded_value_is_typed_and_leaves_the_reward_claimable() {
        let srv = server(13);
        let mut rng = StdRng::seed_from_u64(14);
        let (fin, _chunks) = record(15, 0.0);
        let vp_id = fin.profile.id();
        let secret = fin.secret;
        store(&srv, fin.profile.into_stored()).unwrap();
        srv.post_reward(vp_id, 3);

        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, srv.public_key(), 3);
        // Slot 1 is ≥ n: unsigned-able. Dropping it from the reply would
        // pair signature 2 with blinding secret 1.
        let mut bad = blinded.clone();
        bad[1] = BlindedMessage(srv.public_key().modulus().clone());
        assert_eq!(
            srv.issue_blind_signatures(vp_id, &secret, &bad),
            Err(RewardError::BlindedOutOfRange)
        );
        assert_eq!(srv.reward_board(), vec![(vp_id, 3)], "not consumed");

        // Only the values that would be signed are checked: a bad value
        // past the award is ignored along with the rest of the surplus.
        let mut surplus = blinded.clone();
        surplus.push(bad[1].clone());
        let signed = srv
            .issue_blind_signatures(vp_id, &secret, &surplus)
            .unwrap();
        assert_eq!(signed.len(), 3);
        assert_eq!(wallet.accept_signed(srv.public_key(), pending, &signed), 3);
        for c in &wallet.cash {
            assert_eq!(srv.redeem(c), Ok(()));
        }
    }

    #[test]
    fn concurrent_reward_sessions_do_not_double_issue_or_double_spend() {
        use std::sync::{Arc, Barrier};

        let srv = Arc::new(server(50));
        let (fin, _chunks) = record(51, 0.0);
        let vp_id = fin.profile.id();
        let secret = fin.secret;
        store(&srv, fin.profile.into_stored()).unwrap();
        srv.post_reward(vp_id, 2);

        // Race T sessions claiming the same board entry: exactly one
        // wins the signatures, the rest see NotOnBoard.
        const T: usize = 8;
        let barrier = Arc::new(Barrier::new(T));
        let handles: Vec<_> = (0..T)
            .map(|i| {
                let srv = Arc::clone(&srv);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + i as u64);
                    let mut wallet = Wallet::new();
                    let (pending, blinded) = wallet.prepare(&mut rng, srv.public_key(), 2);
                    barrier.wait();
                    match srv.issue_blind_signatures(vp_id, &secret, &blinded) {
                        Ok(signed) => {
                            assert_eq!(wallet.accept_signed(srv.public_key(), pending, &signed), 2);
                            Some(wallet)
                        }
                        Err(RewardError::NotOnBoard) => None,
                        Err(e) => panic!("unexpected error in race: {e:?}"),
                    }
                })
            })
            .collect();
        let winners: Vec<Wallet> = handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(winners.len(), 1, "exactly one session may claim a reward");
        let wallet = Arc::new(winners.into_iter().next().unwrap());

        // Race T sessions redeeming the same unit: exactly one insert
        // wins; the rest are caught as double spends. The other unit
        // redeems concurrently without interference.
        let barrier = Arc::new(Barrier::new(T + 1));
        let spenders: Vec<_> = (0..T)
            .map(|_| {
                let srv = Arc::clone(&srv);
                let wallet = Arc::clone(&wallet);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    srv.redeem(&wallet.cash[0]).is_ok()
                })
            })
            .collect();
        let other = {
            let srv = Arc::clone(&srv);
            let wallet = Arc::clone(&wallet);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                srv.redeem(&wallet.cash[1])
            })
        };
        let oks = spenders
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        assert_eq!(oks, 1, "exactly one redeem of the same cash may succeed");
        assert_eq!(other.join().unwrap(), Ok(()));
        assert_eq!(srv.spent_cash(), 2);

        let snap = srv.obs().snapshot();
        assert_eq!(snap.counter("vm_core_cash_redeemed_total"), Some(2));
        assert_eq!(
            snap.counter("vm_core_cash_double_spend_total"),
            Some((T - 1) as u64)
        );
        assert_eq!(snap.counter("vm_core_blind_signatures_total"), Some(2));
    }

    #[test]
    fn forged_cash_rejected() {
        let srv = server(13);
        let forged = Cash {
            message: [1u8; 32],
            signature: vm_crypto::Signature(vm_crypto::BigUint::from_u64(12345)),
        };
        assert_eq!(srv.redeem(&forged), Err(RedeemError::BadSignature));
    }

    #[test]
    fn trusted_submission_is_flagged() {
        let srv = server(14);
        let (fin, _) = record(15, 0.0);
        srv.submit_trusted_batch(vec![fin.profile.into_stored()])[0].unwrap();
        let vm = srv.build_viewmap(
            MinuteId(0),
            Site {
                center: GeoPos::new(0.0, 0.0),
                radius_m: 500.0,
            },
        );
        assert_eq!(vm.trusted.len(), 1);
    }

    // ── VpId → MinuteId index ────────────────────────────────────────

    #[test]
    fn upload_after_submit_across_many_minutes() {
        // VPs spread over 24 minutes; the id index must route each upload
        // to the right minute bucket.
        let srv = server(16);
        let mut uploads = Vec::new();
        for m in 0..24u64 {
            let (fin, chunks) = record_at(100 + m, m as f64, m * SECONDS_PER_VP);
            let id = fin.profile.id();
            assert_eq!(fin.profile.clone().into_stored().minute(), MinuteId(m));
            store(&srv, fin.profile.into_stored()).unwrap();
            uploads.push(VideoUpload { vp_id: id, chunks });
        }
        assert_eq!(srv.total_vps(), 24);
        for m in 0..24u64 {
            assert_eq!(srv.vp_count(MinuteId(m)), 1, "minute {m}");
        }
        // Solicit all, then upload each in reverse order.
        {
            let mut board = srv.solicited.write();
            for u in &uploads {
                board.insert(u.vp_id);
            }
        }
        for u in uploads.iter().rev() {
            assert_eq!(srv.upload_video(u), Ok(()), "upload for {:?}", u.vp_id);
        }
    }

    #[test]
    fn duplicate_rejection_keeps_index_consistent() {
        let srv = server(17);
        let (fin, chunks) = record(18, 0.0);
        let id = fin.profile.id();
        let first = fin.profile.clone().into_stored();
        store(&srv, first).unwrap();

        // A forged resubmission under the same id (different content) is
        // rejected and must not disturb the index entry.
        let mut forged = fin.profile.into_stored();
        forged.vds[0].loc.x += 999.0;
        assert_eq!(store(&srv, forged), Err(SubmitError::Duplicate));
        assert_eq!(srv.total_vps(), 1);

        let stored = srv.lookup_vp(id).expect("still indexed");
        assert_eq!(stored.id, id);
        assert!(
            stored.vds[0].loc.x < 999.0,
            "index must still point at the original record"
        );
        // And the original upload still validates.
        srv.solicited.write().insert(id);
        assert_eq!(srv.upload_video(&VideoUpload { vp_id: id, chunks }), Ok(()));
    }

    #[test]
    fn lookup_stays_correct_with_ten_thousand_vps() {
        // Regression test for the O(n) full-database scan: with 10k+ VPs
        // across hundreds of minutes, id lookups must keep resolving to
        // exactly the right record (the pre-index implementation walked
        // every minute bucket per upload).
        let srv = server(19);
        let n: u64 = 10_500;
        for tag in 0..n {
            let minute = tag % 350;
            store(&srv, synthetic_vp(tag, minute)).unwrap();
        }
        assert_eq!(srv.total_vps(), n as usize);
        assert_eq!(srv.vp_count(MinuteId(0)), 30);
        for tag in (0..n).step_by(997) {
            let minute = tag % 350;
            let id = synthetic_vp(tag, minute).id;
            let vp = srv.lookup_vp(id).expect("indexed");
            assert_eq!(vp.id, id);
            assert_eq!(vp.minute(), MinuteId(minute));
            assert_eq!(vp.vds[0].loc.x, tag as f64);
        }
        assert!(srv
            .lookup_vp(VpId(vm_crypto::Digest16([0xAB; 16])))
            .is_none());
    }

    // ── Batch ingest ─────────────────────────────────────────────────

    fn submission(vp: StoredVp) -> crate::upload::AnonymousSubmission {
        crate::upload::AnonymousSubmission { session_id: 0, vp }
    }

    /// Full observable state equality between two servers: totals,
    /// per-minute bucket contents in order, and id-index routing.
    fn assert_same_state(a: &ViewMapServer, b: &ViewMapServer, minutes: &[u64], ids: &[VpId]) {
        assert_eq!(a.total_vps(), b.total_vps());
        for &m in minutes {
            let va = a.minute_vps(MinuteId(m));
            let vb = b.minute_vps(MinuteId(m));
            assert_eq!(va.len(), vb.len(), "minute {m} bucket size");
            for (x, y) in va.iter().zip(&vb) {
                assert_eq!(x.id, y.id, "minute {m} bucket order");
            }
        }
        for id in ids {
            match (a.lookup_vp(*id), b.lookup_vp(*id)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.id, y.id);
                    assert_eq!(x.minute(), y.minute());
                }
                (x, y) => panic!(
                    "lookup {id:?} diverges: {:?} vs {:?}",
                    x.is_some(),
                    y.is_some()
                ),
            }
        }
    }

    #[test]
    fn batch_state_indistinguishable_from_sequential_submits() {
        // A batch mixing minutes, a malformed VP, a poisoned Bloom, an
        // in-batch duplicate, and a duplicate of an already-stored VP
        // must produce byte-for-byte the same outcomes and state as N
        // sequential submits.
        let seq = server(30);
        let bat = server(30);
        // One VP pre-stored on both, so the batch hits a server-level dup.
        let pre = synthetic_vp(999, 2);
        store(&seq, pre.clone()).unwrap();
        store(&bat, pre.clone()).unwrap();

        let mut batch: Vec<StoredVp> = Vec::new();
        for tag in 0..40u64 {
            batch.push(synthetic_vp(tag, tag % 5));
        }
        let mut malformed = synthetic_vp(100, 1);
        malformed.vds.truncate(3);
        batch.push(malformed);
        let mut poisoned = synthetic_vp(101, 1);
        poisoned.bloom = crate::bloom::BloomFilter::from_bytes(vec![0xff; 256], 8);
        batch.push(poisoned);
        batch.push(synthetic_vp(7, 3)); // in-batch dup id (minute differs!)
        batch.push(pre.clone()); // dup of pre-stored
        batch.push(synthetic_vp(102, 4));

        let seq_results: Vec<_> = batch
            .iter()
            .map(|vp| seq.submit(submission(vp.clone())))
            .collect();
        let bat_results = bat.submit_batch(batch.iter().cloned().map(submission));
        assert_eq!(seq_results, bat_results);

        let minutes: Vec<u64> = (0..6).collect();
        let ids: Vec<VpId> = batch.iter().map(|vp| vp.id).collect();
        assert_same_state(&seq, &bat, &minutes, &ids);
    }

    #[test]
    fn in_batch_duplicate_cannot_double_insert() {
        // Same id twice in one batch, same minute: first wins, the bucket
        // gains exactly one entry, and the index stays consistent.
        let srv = server(31);
        let vp = synthetic_vp(1, 0);
        let results = srv.submit_batch(vec![
            submission(vp.clone()),
            submission(vp.clone()),
            submission(vp.clone()),
        ]);
        assert_eq!(
            results,
            vec![
                Ok(()),
                Err(SubmitError::Duplicate),
                Err(SubmitError::Duplicate)
            ]
        );
        assert_eq!(srv.vp_count(MinuteId(0)), 1);
        assert_eq!(srv.lookup_vp(vp.id).unwrap().id, vp.id);
    }

    #[test]
    fn trusted_batch_flags_every_vp() {
        let srv = server(32);
        let results = srv.submit_trusted_batch(vec![synthetic_vp(1, 0), synthetic_vp(2, 0)]);
        assert!(results.iter().all(|r| r.is_ok()));
        for vp in srv.minute_vps(MinuteId(0)) {
            assert!(vp.trusted);
        }
    }

    #[test]
    fn trust_is_set_by_the_entry_point_never_by_the_record() {
        // Five entry points × the record's own flag. Anonymous ones
        // store untrusted, authority ones a seed, replay what the record
        // says; the digest agrees with a server holding that flag.
        type Entry = fn(&ViewMapServer, StoredVp) -> Result<(), SubmitError>;
        let entries: [(&str, Entry, Option<bool>); 5] = [
            ("submit", |s, vp| s.submit(submission(vp)), Some(false)),
            (
                "submit_batch",
                |s, vp| s.submit_batch([submission(vp)])[0],
                Some(false),
            ),
            (
                "submit_batch_warm",
                |s, vp| s.submit_batch_warm([submission(vp)])[0],
                Some(false),
            ),
            (
                "submit_trusted_batch",
                |s, vp| s.submit_trusted_batch(vec![vp])[0],
                Some(true),
            ),
            (
                "submit_replay_batch",
                |s, vp| s.submit_replay_batch(vec![vp], None)[0],
                None,
            ),
        ];
        let key = RsaKeyPair::generate(&mut StdRng::seed_from_u64(90), 512);
        let fresh = || ViewMapServer::with_key(key.clone(), ViewmapConfig::default());
        let digest_with = |trusted: bool| {
            let srv = fresh();
            let mut vp = synthetic_vp(1, 0);
            vp.trusted = trusted;
            assert_eq!(srv.submit_replay_batch(vec![vp], None), vec![Ok(())]);
            srv.state_digest()
        };
        let digests = [digest_with(false), digest_with(true)];
        assert_ne!(digests[0], digests[1]);
        for (name, entry, forced) in entries {
            for recorded in [false, true] {
                let mut vp = synthetic_vp(1, 0);
                vp.trusted = recorded;
                let srv = fresh();
                assert_eq!(entry(&srv, vp.clone()), Ok(()), "{name}");
                let want = forced.unwrap_or(recorded);
                let ctx = format!("{name} with the record's flag {recorded}");
                assert_eq!(srv.lookup_vp(vp.id).unwrap().trusted, want, "{ctx}");
                assert_eq!(srv.state_digest(), digests[want as usize], "{ctx}");
            }
        }
    }

    #[test]
    fn concurrent_batches_and_singles_commit_consistently() {
        // Scoped threads drive overlapping batches and single submits at
        // the same minutes (shared stripes, shared shards). Afterwards:
        // every accepted VP resolves through the index, bucket sizes add
        // up, and no id was stored twice.
        let srv = server(33);
        let n_threads = 4usize;
        let per_thread = 120u64;
        let accepted: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let srv = &srv;
                    scope.spawn(move || {
                        let mut ok = 0usize;
                        let base = t as u64 * per_thread;
                        if t % 2 == 0 {
                            // Batcher: two overlapping batches; the second
                            // re-sends the first's tail → duplicates.
                            let mk = |lo: u64, hi: u64| {
                                (lo..hi)
                                    .map(|tag| submission(synthetic_vp(base + tag, tag % 3)))
                                    .collect::<Vec<_>>()
                            };
                            for batch in [mk(0, 80), mk(60, per_thread)] {
                                ok += srv
                                    .submit_batch(batch)
                                    .into_iter()
                                    .filter(|r| r.is_ok())
                                    .count();
                            }
                        } else {
                            // Single submitter, every id sent twice.
                            for tag in 0..per_thread {
                                for _ in 0..2 {
                                    if srv
                                        .submit(submission(synthetic_vp(base + tag, tag % 3)))
                                        .is_ok()
                                    {
                                        ok += 1;
                                    }
                                }
                            }
                        }
                        ok
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect: usize = n_threads * per_thread as usize;
        assert_eq!(accepted.iter().sum::<usize>(), expect, "one accept per id");
        assert_eq!(srv.total_vps(), expect);
        // Every stored VP resolves and ids are unique across buckets.
        let mut seen = HashSet::new();
        for m in 0..3u64 {
            for vp in srv.minute_vps(MinuteId(m)) {
                assert!(seen.insert(vp.id), "id stored twice: {:?}", vp.id);
                let hit = srv.lookup_vp(vp.id).expect("indexed");
                assert!(Arc::ptr_eq(&hit, &vp));
            }
        }
        assert_eq!(seen.len(), expect);
    }

    // ── Retention & replay ───────────────────────────────────────────

    #[test]
    fn evict_minutes_before_drops_buckets_index_and_reopens_ids() {
        let srv = server(50);
        for m in 0..6u64 {
            for tag in 0..4u64 {
                store(&srv, synthetic_vp(m * 10 + tag, m)).unwrap();
            }
        }
        assert_eq!(srv.total_vps(), 24);

        let evicted = srv.evict_minutes_before(MinuteId(4));
        assert_eq!(evicted, 16, "minutes 0..=3 drop, 4..=5 stay");
        assert_eq!(srv.total_vps(), 8);
        for m in 0..4u64 {
            assert_eq!(srv.vp_count(MinuteId(m)), 0, "minute {m} evicted");
            assert!(srv.lookup_vp(synthetic_vp(m * 10, m).id).is_none());
        }
        for m in 4..6u64 {
            assert_eq!(srv.vp_count(MinuteId(m)), 4, "minute {m} retained");
            let id = synthetic_vp(m * 10 + 3, m).id;
            assert_eq!(srv.lookup_vp(id).unwrap().id, id);
        }

        // Evicted ids are forgotten: the same id submits again (bounded
        // retention is exactly the operation that forgets ids)...
        store(&srv, synthetic_vp(0, 0)).unwrap();
        // ...while retained ids still dedup.
        assert_eq!(
            store(&srv, synthetic_vp(43, 4)),
            Err(SubmitError::Duplicate)
        );
        // Idempotent: nothing left below the cutoff.
        assert_eq!(srv.evict_minutes_before(MinuteId(0)), 0);
    }

    #[test]
    fn replay_batch_preserves_trusted_flags_and_leaves_keys_cold() {
        // The replay path must not force-trust (unlike
        // submit_trusted_batch) and must leave every replayed VP
        // key-cold: the first investigation hashes only what it admits.
        let srv = server(51);
        let mut trusted = synthetic_vp(1, 0);
        trusted.trusted = true;
        let plain = synthetic_vp(2, 0);
        let results = srv.submit_replay_batch(vec![trusted.clone(), plain.clone()], None);
        assert!(results.iter().all(|r| r.is_ok()));
        let a = srv.lookup_vp(trusted.id).unwrap();
        let b = srv.lookup_vp(plain.id).unwrap();
        assert!(a.trusted, "replay keeps the authority flag");
        assert!(!b.trusted, "replay must not mint new authority VPs");
        assert!(
            !a.is_key_warm() && !b.is_key_warm(),
            "replay warms no link keys"
        );
    }

    #[test]
    fn warm_ingest_caches_four_bytes_of_link_key_per_vd() {
        let srv = server(52);
        let vp = synthetic_vp(3, 0);
        let id = vp.id;
        assert_eq!(srv.submit_batch_warm([submission(vp)])[0], Ok(()));
        let stored = srv.lookup_vp(id).unwrap();
        assert!(stored.is_key_warm(), "warm ingest fills the cache");
        assert_eq!(
            std::mem::size_of_val(stored.link_keys()),
            4 * stored.vds.len()
        );
    }

    #[test]
    fn screen_refuses_minutes_the_store_cannot_name() {
        let srv = server(53);
        let last = crate::types::MINUTE_LIMIT - 1;
        assert_eq!(store(&srv, synthetic_vp(1, last)), Ok(()));
        assert_eq!(
            store(&srv, synthetic_vp(2, last + 1)),
            Err(SubmitError::MalformedVds)
        );
        assert_eq!(srv.total_vps(), 1);
    }

    #[test]
    fn wal_mirrors_accepts_in_bucket_order_and_eviction() {
        // A recording fake WAL: the server must log exactly the accepted
        // VPs, per minute in bucket order, and forward retention sweeps.
        #[derive(Default)]
        struct RecordingWal {
            appended: Arc<parking_lot::Mutex<Vec<(MinuteId, VpId)>>>,
            batches: Arc<AtomicU64>,
            evictions: Arc<parking_lot::Mutex<Vec<MinuteId>>>,
        }
        impl crate::wal::VpWal for RecordingWal {
            fn append(&self, vps: &[&StoredVp], _: Option<&[&[u8]]>) -> std::io::Result<()> {
                let mut log = self.appended.lock();
                for vp in vps {
                    log.push((vp.minute(), vp.id));
                }
                Ok(())
            }
            fn end_batch(&self) {
                self.batches.fetch_add(1, Ordering::Relaxed);
            }
            fn evict_minutes_before(&self, cutoff: MinuteId) -> std::io::Result<usize> {
                self.evictions.lock().push(cutoff);
                Ok(0)
            }
        }

        let wal = RecordingWal::default();
        let (appended, batches, evictions) = (
            Arc::clone(&wal.appended),
            Arc::clone(&wal.batches),
            Arc::clone(&wal.evictions),
        );
        let mut srv = server(52);
        srv.attach_wal(Box::new(wal));

        // Batch with an in-batch dup and a malformed VP: only accepts log.
        let mut bad = synthetic_vp(9, 1);
        bad.vds.truncate(3);
        let batch = [
            synthetic_vp(1, 0),
            synthetic_vp(2, 1),
            synthetic_vp(1, 0), // dup
            bad,
            synthetic_vp(3, 0),
        ];
        let results = srv.submit_batch(batch.iter().cloned().map(submission));
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
        store(&srv, synthetic_vp(4, 0)).unwrap();
        assert_eq!(store(&srv, synthetic_vp(4, 0)), Err(SubmitError::Duplicate));

        let log = appended.lock().clone();
        assert_eq!(log.len(), 4, "exactly the accepted VPs are logged");
        assert_eq!(
            batches.load(Ordering::Relaxed),
            2,
            "one end_batch per ingest call that logged anything"
        );
        // Per minute, log order equals bucket order.
        for m in 0..2u64 {
            let logged: Vec<VpId> = log
                .iter()
                .filter(|(minute, _)| *minute == MinuteId(m))
                .map(|(_, id)| *id)
                .collect();
            let bucket: Vec<VpId> = srv.minute_vps(MinuteId(m)).iter().map(|vp| vp.id).collect();
            assert_eq!(logged, bucket, "minute {m} log order");
        }

        srv.evict_minutes_before(MinuteId(1));
        assert_eq!(evictions.lock().as_slice(), &[MinuteId(1)]);
        assert_eq!(srv.sync_wal().ok(), Some(()));
    }

    #[test]
    fn replay_hands_the_log_each_accepted_records_own_frame() {
        // A replica's log writes the frames its primary shipped: every
        // record the replay accepts reaches the log with its own frame,
        // and one it drops (a duplicate, a malformed record) takes its
        // frame with it.
        type Logged = Vec<(VpId, Option<Vec<u8>>)>;
        #[derive(Default)]
        struct FrameWal {
            appended: Arc<parking_lot::Mutex<Logged>>,
        }
        impl crate::wal::VpWal for FrameWal {
            fn append(&self, vps: &[&StoredVp], frames: Option<&[&[u8]]>) -> std::io::Result<()> {
                let mut log = self.appended.lock();
                for (i, vp) in vps.iter().enumerate() {
                    log.push((vp.id, frames.map(|frames| frames[i].to_vec())));
                }
                Ok(())
            }
            fn evict_minutes_before(&self, _: MinuteId) -> std::io::Result<usize> {
                Ok(0)
            }
        }

        let wal = FrameWal::default();
        let appended = Arc::clone(&wal.appended);
        let mut srv = server(56);
        srv.attach_wal(Box::new(wal));
        let held = synthetic_vp(1, 0);
        store(&srv, held.clone()).unwrap();
        let mut bad = synthetic_vp(9, 1);
        bad.vds.truncate(3);
        let batch = vec![
            held.clone(),
            synthetic_vp(2, 1),
            bad,
            synthetic_vp(3, 0),
            synthetic_vp(2, 1), // in-batch dup
        ];
        let ids: Vec<VpId> = batch.iter().map(|vp| vp.id).collect();
        let frames: Vec<Vec<u8>> = (0..batch.len() as u8).map(|i| vec![i; 4]).collect();
        let slices: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let results = srv.submit_replay_batch(batch, Some(&slices));
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 2);
        assert_eq!(
            *appended.lock(),
            vec![
                (held.id, None),
                (ids[3], Some(vec![3; 4])),
                (ids[1], Some(vec![1; 4])),
            ],
            "minute 0's group, then minute 1's, each record with its own frame"
        );
    }

    #[test]
    fn a_refused_log_append_is_undone_before_the_panic() {
        // A log that refuses appends once armed. The panicking ingest
        // must leave memory as it was: bucket, bounds rows, id index,
        // and no minute created for the refused group.
        struct RefusingWal {
            armed: Arc<std::sync::atomic::AtomicBool>,
        }
        impl crate::wal::VpWal for RefusingWal {
            fn append(&self, _: &[&StoredVp], _: Option<&[&[u8]]>) -> std::io::Result<()> {
                if self.armed.load(Ordering::Relaxed) {
                    return Err(std::io::Error::other("log device gone"));
                }
                Ok(())
            }
            fn evict_minutes_before(&self, _: MinuteId) -> std::io::Result<usize> {
                Ok(0)
            }
        }

        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut srv = server(53);
        srv.attach_wal(Box::new(RefusingWal {
            armed: Arc::clone(&armed),
        }));
        let first = synthetic_vp(1, 0);
        assert!(srv.submit_trusted_batch(vec![first.clone()])[0].is_ok());
        let before = srv.state_digest();

        armed.store(true, Ordering::Relaxed);
        for refused in [synthetic_vp(2, 0), synthetic_vp(3, 5)] {
            let id = refused.id;
            let ingest = std::panic::AssertUnwindSafe(|| srv.submit_trusted_batch(vec![refused]));
            assert!(std::panic::catch_unwind(ingest).is_err(), "refusal panics");
            assert!(srv.lookup_vp(id).is_none(), "the refused VP is not indexed");
        }
        assert_eq!(srv.state_digest(), before);
        assert_eq!(srv.stored_minutes(), vec![MinuteId(0)]);

        // Bucket and table stayed aligned: the same VP commits
        // at the next position once the log takes writes again.
        armed.store(false, Ordering::Relaxed);
        let second = synthetic_vp(2, 0);
        assert!(srv.submit_trusted_batch(vec![second.clone()])[0].is_ok());
        let ids: Vec<VpId> = srv.minute_vps(MinuteId(0)).iter().map(|vp| vp.id).collect();
        assert_eq!(ids, vec![first.id, second.id]);
        let site = Site {
            center: GeoPos::new(0.0, 0.0),
            radius_m: 100.0,
        };
        let vm = srv.build_viewmap(MinuteId(0), site);
        assert_eq!(vm.vps.len(), 2, "both rows admit");
        assert_eq!(vm.trusted, vec![0, 1], "both trusted rows are seeds");
    }

    #[test]
    fn a_refused_log_sweep_leaves_memory_whole() {
        // A log that refuses every sweep. The panicking sweep must leave
        // memory as it was — minutes, buckets, id index and board — so
        // a retried sweep or a restart finishes it, instead of a
        // restart bringing back what memory had already forgotten.
        struct RefusingWal;
        impl crate::wal::VpWal for RefusingWal {
            fn append(&self, _: &[&StoredVp], _: Option<&[&[u8]]>) -> std::io::Result<()> {
                Ok(())
            }
            fn evict_minutes_before(&self, _: MinuteId) -> std::io::Result<usize> {
                Err(std::io::Error::other("log device gone"))
            }
        }

        let mut srv = server(54);
        srv.attach_wal(Box::new(RefusingWal));
        for m in 0..3u64 {
            for t in 0..2u64 {
                store(&srv, synthetic_vp(m * 10 + t, m)).unwrap();
            }
        }
        let swept = synthetic_vp(1, 0).id;
        srv.solicit(swept).unwrap();
        let before = (
            srv.state_digest(),
            srv.stored_minutes(),
            srv.solicitation_board(),
        );

        let sweep = std::panic::AssertUnwindSafe(|| srv.evict_minutes_before(MinuteId(2)));
        assert!(std::panic::catch_unwind(sweep).is_err(), "refusal panics");
        let after = (
            srv.state_digest(),
            srv.stored_minutes(),
            srv.solicitation_board(),
        );
        assert_eq!(after, before, "memory is untouched");
        assert!(srv.lookup_vp(swept).is_some(), "the swept id stays indexed");
    }

    #[test]
    fn a_group_of_late_duplicates_creates_no_bucket() {
        // Batch B = [Y@1, X@5] parks inside its first log append. While
        // it is parked, A commits X@0, so B's minute-5 group is all
        // duplicates by the time it commits: it must leave no bucket
        // (and no memo) behind. Y and X sit in different id stripes, and
        // minutes 0 and 1 in different shards, so A waits on nothing B
        // holds once B's groups go in ascending minute order.
        #[derive(Default)]
        struct Gate {
            parked: bool,
            open: bool,
        }
        type Shared = Arc<(std::sync::Mutex<Gate>, std::sync::Condvar)>;
        struct ParkingWal {
            gate: Shared,
            appends: AtomicU64,
        }
        impl crate::wal::VpWal for ParkingWal {
            fn append(&self, _: &[&StoredVp], _: Option<&[&[u8]]>) -> std::io::Result<()> {
                if self.appends.fetch_add(1, Ordering::Relaxed) == 0 {
                    let (lock, cv) = &*self.gate;
                    let mut gate = lock.lock().unwrap();
                    gate.parked = true;
                    cv.notify_all();
                    drop(cv.wait_while(gate, |g| !g.open).unwrap());
                }
                Ok(())
            }
            fn evict_minutes_before(&self, _: MinuteId) -> std::io::Result<usize> {
                Ok(0)
            }
        }

        let gate: Shared = Default::default();
        let mut srv = server(55);
        srv.attach_wal(Box::new(ParkingWal {
            gate: Arc::clone(&gate),
            appends: AtomicU64::new(0),
        }));
        let y = synthetic_vp(1, 1);
        let x = synthetic_vp(2, 0);
        let mut x_late = synthetic_vp(3, 5);
        x_late.id = x.id;
        assert_ne!(id_stripe(&x.id), id_stripe(&y.id));
        assert_ne!(minute_stripe(MinuteId(0)), minute_stripe(MinuteId(1)));

        let srv = &srv;
        let (b, a) = std::thread::scope(|s| {
            let b = s.spawn(move || srv.submit_replay_batch(vec![y, x_late], None));
            let (lock, cv) = &*gate;
            drop(cv.wait_while(lock.lock().unwrap(), |g| !g.parked).unwrap());
            let (done, a_done) = std::sync::mpsc::channel();
            let a = s.spawn(move || {
                let r = srv.submit_replay_batch(vec![x], None);
                done.send(()).unwrap();
                r
            });
            // A returns at once unless it waits on something B holds;
            // the bound only keeps a regression from hanging the test.
            let _ = a_done.recv_timeout(std::time::Duration::from_millis(500));
            lock.lock().unwrap().open = true;
            cv.notify_all();
            (b.join().unwrap(), a.join().unwrap())
        });
        assert_eq!(srv.stored_minutes(), vec![MinuteId(0), MinuteId(1)]);
        assert_eq!(a, vec![Ok(())]);
        assert_eq!(b, vec![Ok(()), Err(SubmitError::Duplicate)]);
    }

    #[test]
    fn state_digest_pins_minutes_order_and_trusted_flags() {
        // Two servers fed the same VPs in the same order agree; changing
        // bucket order, dropping a minute, or flipping a trusted flag
        // must each move the digest.
        let a = server(60);
        let b = server(61);
        for m in 0..3u64 {
            for t in 0..4u64 {
                store(&a, synthetic_vp(m * 10 + t, m)).unwrap();
                store(&b, synthetic_vp(m * 10 + t, m)).unwrap();
            }
        }
        assert_eq!(
            a.stored_minutes(),
            vec![MinuteId(0), MinuteId(1), MinuteId(2)]
        );
        assert_eq!(
            a.state_digest(),
            b.state_digest(),
            "same history, same digest"
        );

        // Different append order within one minute.
        let c = server(62);
        for m in 0..3u64 {
            for t in (0..4u64).rev() {
                store(&c, synthetic_vp(m * 10 + t, m)).unwrap();
            }
        }
        assert_ne!(
            a.state_digest(),
            c.state_digest(),
            "order is part of the state"
        );

        // A missing minute.
        let d = server(63);
        for m in 0..2u64 {
            for t in 0..4u64 {
                store(&d, synthetic_vp(m * 10 + t, m)).unwrap();
            }
        }
        assert_ne!(
            a.state_digest(),
            d.state_digest(),
            "minute set is part of the state"
        );

        // Same ids, one trusted flag flipped.
        let e = server(64);
        for m in 0..3u64 {
            for t in 0..4u64 {
                let mut vp = synthetic_vp(m * 10 + t, m);
                if m == 1 && t == 2 {
                    vp.trusted = true;
                }
                store(&e, vp).unwrap();
            }
        }
        assert_ne!(
            a.state_digest(),
            e.state_digest(),
            "trust is part of the state"
        );

        // Eviction moves the digest and the minute list together.
        let before = a.state_digest();
        a.evict_minutes_before(MinuteId(1));
        assert_eq!(a.stored_minutes(), vec![MinuteId(1), MinuteId(2)]);
        assert_ne!(a.state_digest(), before);
    }

    #[test]
    fn viewmap_members_share_database_arcs() {
        // The zero-copy acceptance criterion, measured at the server API:
        // viewmap members are the same allocations the DB holds.
        let srv = server(20);
        let (fin, _) = record(21, 0.0);
        let id = fin.profile.id();
        store(&srv, fin.profile.into_stored()).unwrap();
        let vm = srv.build_viewmap(
            MinuteId(0),
            Site {
                center: GeoPos::new(0.0, 0.0),
                radius_m: 1000.0,
            },
        );
        assert_eq!(vm.len(), 1);
        let db_copy = srv.lookup_vp(id).unwrap();
        assert!(
            Arc::ptr_eq(&vm.vps[0], &db_copy),
            "viewmap member and DB record must be the same allocation"
        );
    }

    // ── Viewlink memo ────────────────────────────────────────────────

    use crate::maintained::testutil::{assert_identical, cluster};

    /// Store a linked cluster for `minute` (trusted head through the
    /// authority channel, the rest as one warm batch).
    fn store_cluster(srv: &ViewMapServer, n: usize, minute: u64, seed: u64) {
        let mut vps = cluster(n, 0.0, minute, seed, true).into_iter();
        srv.submit_trusted_batch(vec![vps.next().expect("n > 0")])[0].unwrap();
        let r = srv.submit_batch_warm(vps.map(submission));
        assert!(r.iter().all(|x| x.is_ok()));
    }

    /// `build_viewmap` against the cold oracle over the same bucket.
    fn assert_matches_cold(srv: &ViewMapServer, minute: u64, site: Site, ctx: &str) {
        let m = MinuteId(minute);
        let cold = Viewmap::build(&srv.minute_vps(m), site, m, &srv.cfg);
        assert_identical(&srv.build_viewmap(m, site), &cold, ctx);
    }

    fn site_at(x: f64, radius_m: f64) -> Site {
        Site {
            center: GeoPos::new(x, 0.0),
            radius_m,
        }
    }

    #[test]
    fn investigating_a_minute_without_a_bucket_creates_no_memo() {
        // The wire hands any u64 to `investigate`; a minute that stores
        // nothing must cost nothing and leave nothing behind.
        let srv = server(70);
        store_cluster(&srv, 6, 3, 71);
        for m in [0u64, 7, u64::MAX] {
            let vm = srv.build_viewmap(MinuteId(m), site_at(0.0, 1.0e6));
            assert!(vm.is_empty() && vm.minute == MinuteId(m));
            assert!(srv.investigate(MinuteId(m), site_at(0.0, 1.0e6)).is_empty());
            assert!(!srv.has_maintained(MinuteId(m)), "minute {m}");
        }
        let snap = srv.obs().snapshot();
        assert_eq!(snap.gauge("vm_core_maintained_members"), Some(0));
        assert_eq!(snap.gauge("vm_core_maintained_bytes"), Some(0));

        // Nor does an evicted minute keep or regain one.
        assert_matches_cold(&srv, 3, site_at(0.0, 1.0e6), "stored minute");
        assert!(srv.has_maintained(MinuteId(3)));
        srv.evict_minutes_before(MinuteId(4));
        assert!(srv
            .build_viewmap(MinuteId(3), site_at(0.0, 1.0e6))
            .is_empty());
        assert!(!srv.has_maintained(MinuteId(3)));
        assert_eq!(
            srv.obs().snapshot().gauge("vm_core_maintained_bytes"),
            Some(0),
            "the memo's bytes left with its bucket"
        );
    }

    #[test]
    fn memo_links_only_what_sites_admit_and_counts_it() {
        let srv = server(72);
        store_cluster(&srv, 40, 0, 73);
        let counters = || {
            let snap = srv.obs().snapshot();
            (
                snap.counter("vm_core_maintained_hits_total").unwrap(),
                snap.counter("vm_core_maintained_misses_total").unwrap(),
                snap.gauge("vm_core_maintained_members").unwrap(),
            )
        };
        assert_matches_cold(&srv, 0, site_at(1200.0, 100.0), "first touch");
        let (hits, first, members) = counters();
        assert!(hits == 0 && first > 0 && first < 40 && members == first as i64);
        assert_matches_cold(&srv, 0, site_at(1200.0, 100.0), "repeat");
        assert_eq!(counters(), (first, first, first as i64));

        // A late upload, then a wider site: only the crescent links.
        let late = cluster(3, 900.0, 0, 74, false);
        let r = srv.submit_batch(late.into_iter().map(submission));
        assert!(r.iter().all(|x| x.is_ok()));
        assert_matches_cold(&srv, 0, site_at(1200.0, 1500.0), "wider after late wave");
        let (_, misses, members) = counters();
        assert!(misses > first && members == misses as i64);
        assert_matches_cold(&srv, 0, site_at(0.0, 1.0e7), "whole minute");
        assert_eq!(counters().2, 43);

        let snap = srv.obs().snapshot();
        let h = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(h("vm_core_maintained_create_us"), 1, "one first touch");
        assert_eq!(h("vm_core_maintained_splice_us"), 2, "two crescents");
        assert_eq!(h("vm_core_maintained_extract_us"), 4, "every site");
    }

    #[test]
    fn memo_byte_budget_drops_least_recently_investigated_whole() {
        let mut srv = server(75);
        for m in 0..3u64 {
            store_cluster(&srv, 12, m, 76 + m);
        }
        let whole = site_at(0.0, 1.0e7);
        assert_matches_cold(&srv, 0, whole, "minute 0");
        let one = srv.memo_totals.bytes();
        assert!(one > 0);
        // Room for two such memos, not three.
        srv.memo_budget = one * 5 / 2;
        assert_matches_cold(&srv, 1, whole, "minute 1");
        assert!(srv.has_maintained(MinuteId(0)) && srv.has_maintained(MinuteId(1)));
        // Re-investigating minute 0 makes minute 1 the oldest.
        assert_matches_cold(&srv, 0, site_at(300.0, 200.0), "minute 0 again");
        assert_matches_cold(&srv, 2, whole, "minute 2 goes over budget");
        assert!(!srv.has_maintained(MinuteId(1)), "oldest memo dropped");
        assert!(srv.has_maintained(MinuteId(0)) && srv.has_maintained(MinuteId(2)));
        assert!(srv.memo_totals.bytes() <= srv.memo_budget);
        assert_eq!(
            srv.obs().snapshot().gauge("vm_core_maintained_bytes"),
            Some(srv.memo_totals.bytes() as i64)
        );
        // The dropped minute re-materialises to the same answer.
        assert_matches_cold(&srv, 1, site_at(600.0, 100.0), "minute 1 from cold");
        assert!(srv.has_maintained(MinuteId(1)));

        // A budget no memo fits: every answer is still the cold build,
        // and nothing is retained.
        srv.memo_budget = 1;
        for m in 0..3u64 {
            assert_matches_cold(&srv, m, whole, "over budget alone");
            assert!(!srv.has_maintained(MinuteId(m)));
        }
        assert_eq!(srv.memo_totals.bytes(), 0);
    }

    #[test]
    fn investigation_after_a_sweep_answers_its_snapshot_on_an_orphan_memo() {
        // The race the lifecycle docs describe, forced: take the
        // admission snapshot, evict and resubmit the minute, then let the
        // investigation finish. It must answer for the old incarnation
        // and leave the new bucket's memo untouched.
        let srv = server(80);
        store_cluster(&srv, 8, 0, 81);
        let site = site_at(0.0, 1.0e7);
        let old_bucket = srv.minute_vps(MinuteId(0));
        let (survivors, memo) = {
            let shard = srv.db[minute_stripe(MinuteId(0))].read();
            let b = &shard.by_minute[&MinuteId(0)];
            (
                b.bounds.survivors(&b.vps, &site, &srv.cfg),
                Arc::clone(&b.memo),
            )
        };
        srv.evict_minutes_before(MinuteId(1));
        store_cluster(&srv, 5, 0, 82);
        let admitted = survivors.settle();
        let vm = memo.with(|g| {
            g.materialise(&admitted);
            g.extract(admitted)
        });
        let cold = Viewmap::build(&old_bucket, site, MinuteId(0), &srv.cfg);
        assert_identical(&vm, &cold, "snapshot of the evicted incarnation");
        assert!(!srv.has_maintained(MinuteId(0)), "nothing re-inserted");
        drop(memo);
        assert_eq!(srv.memo_totals.bytes(), 0, "orphan returned its bytes");
        assert_matches_cold(&srv, 0, site, "new incarnation");
        assert_eq!(srv.build_viewmap(MinuteId(0), site).len(), 5);
    }

    #[test]
    fn an_investigation_posts_nothing_after_a_sweep_of_its_minute() {
        let srv = server(84);
        store_cluster(&srv, 8, 0, 85);
        let site = site_at(0.0, 1.0e7);
        let vm = srv.build_viewmap(MinuteId(0), site);
        let ids: Vec<VpId> = vm.vps.iter().map(|vp| vp.id).collect();
        assert_eq!(ids.len(), 8);
        // The sweep lands between the build and the post; the same ids
        // come back as a new incarnation of the minute.
        srv.evict_minutes_before(MinuteId(1));
        store_cluster(&srv, 8, 0, 85);
        srv.post_if_stored(&vm, &ids);
        assert!(srv.solicitation_board().is_empty());
        srv.post_if_stored(&srv.build_viewmap(MinuteId(0), site), &ids);
        assert_eq!(srv.solicitation_board().len(), 8);
    }
}
