//! `vm-store` — durable append-log VP storage with crash recovery.
//!
//! The ViewMap server is RAM-first: a sharded minute-keyed map plus a
//! `VpId → (minute, pos)` index, both append-only per minute. That
//! layout maps directly onto a minute-bucketed append log, and this
//! crate is that log: one segment file per minute, records appended in
//! exactly the order the in-memory bucket grows, group-committed per
//! batch, checksummed per record, and truncated back to the last fully
//! committed record on open. [`VpStore`] implements the server's
//! [`viewmap_core::wal::VpWal`] seam; [`PersistentServer`] adds the
//! `ViewMapServer::open` / `ViewMapServer::open_with_key` constructors
//! that replay a directory of segments through the server's one replay
//! path (the normal batch-ingest machinery, link keys left cold) and
//! then attach the store as the server's live WAL.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   minute-000000000000.vmseg      one segment per logged minute
//!   minute-000000000017.vmseg
//!   ...
//!
//! segment  := seg_header frame*
//! seg_header (16 B) := magic "VMSEG001" (8 B) | minute u64 LE
//! frame (16 B + body) :=
//!   ┌──────────────┬─────────────┬──────────────────┬────────────┐
//!   │ magic "VMR1" │ body_len u32│ checksum64 u64 LE │ body bytes │
//!   │ (4 B)        │ LE (4 B)    │ of body           │ (body_len) │
//!   └──────────────┴─────────────┴──────────────────┴────────────┘
//!
//! body (one VP record, see `codec`) :=
//!   vp_id (16 B) | trusted u8 | n_vds u16 LE | bloom_k u8
//!   | bloom_len u16 LE | bloom bytes
//!   | vds[0] as an 84-byte full-precision frame (`encode_store`)
//!   | vds[1..] as predictive delta frames:
//!       shape u8                  set bits mark explicitly-encoded fields;
//!                                 clear bits mean the predictor holds:
//!         bit0 seq    (pred: prev+1)     → zigzag-varint Δseq
//!         bit1 flags  (pred: prev)       → varint flags
//!         bit2 time   (pred: prev+1)     → zigzag-varint Δtime
//!         bit3 fsize  (pred: repeat Δ)   → zigzag-varint Δ-of-Δ
//!         bit4 initial(pred: prev)       → 2 × varint xor-bits
//!         bit5 vp_id  (pred: prev)       → 2 × varint xor-bits
//!       varint xor-bits(loc.x vs 2·prev − prev2)   (always)
//!       varint xor-bits(loc.y vs 2·prev − prev2)   (always)
//!       hash (16 B raw)
//! ```
//!
//! The predictors encode what every honest per-second cascade produces
//! — counters advancing by one, constant identity fields, a steady
//! video byte rate, near-linear motion — so the typical delta frame is
//! a shape byte, two short coordinate xors (linear extrapolation leaves
//! only low mantissa bits), and the incompressible 16-byte cascade
//! hash: ~20 B per VD, ~1.5 KB per 60-VD record against 5.3 KB flat.
//! Every field still round-trips **bit-exactly** for arbitrary values
//! (NaN payloads included; the coordinate predictor falls back to the
//! previous sample's bits on non-finite inputs so it is plain IEEE
//! arithmetic on every platform), which recovery correctness depends
//! on: a replayed server must build the same viewmap edges the live
//! one did.
//!
//! # Recovery invariants
//!
//! 1. **Committed prefix.** A frame is committed iff five things hold:
//!    its magic, its declared length (the body is all there), its
//!    checksum, a body that decodes, and a record of the segment's own
//!    minute. One function decides it, [`segment::scan`]; on
//!    [`VpStore::open`] the first frame that fails ends the valid
//!    prefix and the file is truncated there. A crash mid-write (torn
//!    frame header, torn body, bit rot in the tail) therefore recovers
//!    exactly the fully-committed record prefix — never a partial VP,
//!    never another minute's record, never a panic. Replication
//!    catch-up and a follower applying shipped frames ask the same
//!    function.
//! 2. **Order.** The server appends under the committing minute's shard
//!    lock, so a segment's record order equals the in-memory bucket's
//!    append order; replaying segments in minute order through
//!    [`viewmap_core::server::ViewMapServer::submit_replay_batch`] (the
//!    one replay path, which a follower applying shipped frames runs
//!    too) rebuilds bucket positions — and with them the id index —
//!    exactly.
//! 3. **Re-screened replay.** Replay goes through the normal admission
//!    screen and dedup; a log can never smuggle in a VP the live server
//!    would have rejected.
//! 4. **Retention.** `evict_minutes_before` deletes whole segment files
//!    in lockstep with the in-memory sweep: disk never resurrects a
//!    minute the privacy model already expired.
//! 5. **Foreign files.** A file under a segment name that this store
//!    did not write there (wrong magic, or a header minute
//!    contradicting the filename) is never replayed, never mutated,
//!    and never deleted: recovery moves it aside to
//!    `*.vmseg.mismatch*` so the minute restarts a clean segment while
//!    the original bytes survive for the operator.
//! 6. **Single process.** A `LOCK` pidfile makes the directory
//!    exclusive for the store's lifetime; locks from provably-dead
//!    owners are reclaimed so crash recovery stays unattended.
//!
//! Durability policy is [`Fsync`]: `Always` fsyncs once per group
//! commit (survives power loss), `Never` leaves flushing to the OS page
//! cache until the next [`VpWal::sync`](viewmap_core::wal::VpWal::sync),
//! which flushes every minute written since the last one (survives
//! process crash; the default, and what the benchmarks measure). Both
//! write through a handle [`VpStore`] holds open from a minute's first
//! append until a sync, an eviction of the minute, or the cap on held
//! handles releases it (unflushed: a later sync reopens the minute). A
//! replica's store writes the frames its primary shipped as they are,
//! so replicated segments are the primary's bytes.
//! The RSA signing key **is** persisted, beside the segments
//! as `signing.key` (see [`keyfile`]): cash verifies only against the
//! key that minted it, so the key must outlive any single process —
//! and must be *shared* with replication followers, whose promotion
//! would otherwise orphan every outstanding unit. `open` loads the
//! keyfile (generating and persisting one on first boot);
//! [`PersistentServer::open_with_key`] opens around an
//! operator-supplied key and refuses a mismatch. Only a recovery that
//! finds records with **no keyfile beside them** (a pre-keyfile
//! directory, or a deleted key) still generates fresh and flags it
//! ([`RecoveryReport::fresh_signing_key`] /
//! [`RecoveryWarning::FreshSigningKey`]) instead of passing silently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod keyfile;
pub mod segment;
pub mod store;

pub use codec::{decode_record, encode_record, CodecError};
pub use fault::FrameSpan;
pub use segment::{
    scan, tail_frames, Frames, Injury, Scan, SegmentMeta, FRAME_HEADER_BYTES, SEGMENT_HEADER_BYTES,
};
pub use store::{
    open_unattached, Fsync, PersistentServer, RecoveryReport, RecoveryWarning, StoreConfig, VpStore,
};
