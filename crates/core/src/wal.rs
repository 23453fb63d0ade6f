//! The write-ahead-log seam between [`crate::server::ViewMapServer`] and
//! a durable storage backend.
//!
//! The server itself stays storage-agnostic: it owns the in-memory
//! sharded VP database and, when a [`VpWal`] is attached
//! ([`crate::server::ViewMapServer::attach_wal`]), mirrors every
//! *accepted* submission into the log and every retention sweep into
//! [`VpWal::evict_minutes_before`]. The concrete append-log engine
//! (minute-bucketed segment files, group commit, torn-tail recovery)
//! lives in the `vm-store` crate, which depends on this one — the trait
//! keeps the dependency arrow pointing outward.
//!
//! # Ordering contract
//!
//! The server calls [`VpWal::append`] **while holding the minute
//! shard's write lock** for the VPs being committed, just before it
//! pushes them to the minute's in-memory bucket. Appends for one minute
//! therefore reach the log in exactly the bucket's order, which is what
//! makes replay reproduce bucket order (and thus the `VpId → (minute,
//! pos)` index) byte for byte. Backends must not reorder records within
//! a call or between calls.
//!
//! One ingest call (a `submit`, a batch, a replayed run) may append
//! several minute groups, in ascending minute order, each under its own
//! shard lock. After the last of them, and **outside every lock**, the
//! server calls [`VpWal::end_batch`] once. A backend that forwards its
//! appends elsewhere (a replicating log) stages them in `append`, in
//! append order, and sends the whole batch in `end_batch`; anything it
//! waits on there (a replica's ack) then holds no shard lock, so readers
//! of the batch's minutes are never blocked behind it. A plain log has
//! nothing to flush: the default is a no-op.
//!
//! # Failure contract
//!
//! The log moves first: the server changes memory only after the log
//! call that records the change has returned `Ok`, and a refused
//! `append` or `evict_minutes_before` leaves memory untouched. A
//! backend that cannot write is fatal for a durable server, so the
//! server then panics rather than drop durability on the floor. Backends
//! should reserve `Err` for genuine I/O failure (disk full, permission
//! lost), not validation — all content-level screening already happened
//! before the server reached the log.

use crate::types::MinuteId;
use crate::vp::StoredVp;

/// A durable append-log the server mirrors accepted VPs into.
///
/// Implementations must be thread-safe: the server invokes `append`
/// concurrently from every ingest path (single submits and batches on
/// different minutes run in parallel).
pub trait VpWal: Send + Sync {
    /// Durably append a group of accepted VPs (one group-commit unit:
    /// implementations should issue one buffered write — and at most one
    /// fsync, per their durability policy — per call, not per VP). All
    /// VPs in one call belong to the same minute.
    ///
    /// `frames` is `Some` only on log replay into a server with a log
    /// attached (a replica applying its primary's stream): `frames[i]`
    /// is the log frame `vps[i]` was decoded from, exactly as the log
    /// it came from holds it. A backend whose format those bytes are
    /// writes them as they are instead of encoding the records again,
    /// so a replica's log is its primary's bytes; `None` means the
    /// backend encodes the records itself.
    fn append(&self, vps: &[&StoredVp], frames: Option<&[&[u8]]>) -> std::io::Result<()>;

    /// The ingest call that made the preceding appends is done: flush
    /// whatever they staged. Called once per call that appended
    /// anything, after its last `append`, with no server lock held.
    fn end_batch(&self) {}

    /// Drop every logged minute strictly before `cutoff` (bounded
    /// retention). Returns the number of minute buckets removed.
    fn evict_minutes_before(&self, cutoff: MinuteId) -> std::io::Result<usize>;

    /// Put every record appended before the call on stable media by the
    /// time it returns. Called on graceful shutdown and before a
    /// follower's promotion; a correct backend is already
    /// crash-consistent without it, only not power-loss durable.
    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }
}
