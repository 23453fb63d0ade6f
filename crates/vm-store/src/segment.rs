//! Minute-bucketed append-only segment files: framing, the append-side
//! writer, and [`scan`] — the one rule for which frames are committed.
//!
//! A segment holds every logged VP of one minute, in bucket order. Its
//! name carries the minute (`minute-000000000042.vmseg`) so retention
//! can sweep by filename and recovery can replay in minute order
//! without opening anything twice. Framing and the recovery invariant
//! are described in the crate docs; the short version: a frame is
//! committed only if its magic, declared length, checksum, decodable
//! body and minute all hold, and the first frame that fails ends the
//! committed prefix. Recovery ([`recover_segment`]), replication
//! catch-up ([`tail_frames`]) and a follower applying shipped frames
//! all ask [`scan`].

use crate::codec::{decode_record, encode_record, encoded_size_hint, CodecError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use viewmap_core::types::MinuteId;
use viewmap_core::vp::StoredVp;

/// Segment file magic (8 bytes, versioned).
pub const SEGMENT_MAGIC: [u8; 8] = *b"VMSEG001";

/// Segment header size: magic + minute id.
pub const SEGMENT_HEADER_BYTES: usize = 16;

/// Record frame magic (4 bytes, versioned).
pub const FRAME_MAGIC: [u8; 4] = *b"VMR1";

/// Frame header size: magic + body length + body checksum.
pub const FRAME_HEADER_BYTES: usize = 16;

/// File name of a minute's segment (fixed-width, so lexicographic order
/// is minute order).
pub fn segment_file_name(minute: MinuteId) -> String {
    format!("minute-{:012}.vmseg", minute.0)
}

/// Parse a segment file name back to its minute; `None` for foreign
/// files (recovery ignores anything it didn't write).
pub fn parse_segment_file_name(name: &str) -> Option<MinuteId> {
    let digits = name.strip_prefix("minute-")?.strip_suffix(".vmseg")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().map(MinuteId)
}

/// Path of a minute's segment inside the store directory.
pub fn segment_path(dir: &Path, minute: MinuteId) -> PathBuf {
    dir.join(segment_file_name(minute))
}

/// Segment frames back to back, and where each one ends: what the
/// framer builds and the store writes, what catch-up reads back, and
/// what the replication hub cuts into messages at frame boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frames {
    pub(crate) bytes: Vec<u8>,
    /// Ascending; the last one is `bytes.len()`.
    pub(crate) ends: Vec<usize>,
}

impl Frames {
    /// The frames (`VMR1` header + checksummed body each), disk bytes
    /// verbatim.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Offset one past each frame in [`bytes`](Self::bytes), ascending.
    pub fn ends(&self) -> &[usize] {
        &self.ends
    }

    /// Frame `vps` onto the end — the store's one framer. Bodies are
    /// encoded in place behind zeroed headers, checksummed together
    /// through the multi-buffer engine ([`vm_crypto::checksum64_many`]),
    /// and the headers backpatched.
    pub fn push(&mut self, vps: &[&StoredVp]) {
        let first = self.ends.len();
        self.bytes.reserve(
            vps.iter()
                .map(|vp| FRAME_HEADER_BYTES + encoded_size_hint(vp))
                .sum(),
        );
        for vp in vps {
            self.bytes.resize(self.bytes.len() + FRAME_HEADER_BYTES, 0);
            encode_record(vp, &mut self.bytes);
            self.ends.push(self.bytes.len());
        }
        let sums = {
            let bodies: Vec<&[u8]> = (first..self.ends.len())
                .map(|i| &self.bytes[self.start(i) + FRAME_HEADER_BYTES..self.ends[i]])
                .collect();
            vm_crypto::checksum64_many(&bodies)
        };
        for (i, sum) in (first..).zip(sums) {
            let at = self.start(i);
            let body_len = self.ends[i] - at - FRAME_HEADER_BYTES;
            assert!(body_len <= u32::MAX as usize, "record body exceeds u32");
            let header = &mut self.bytes[at..at + FRAME_HEADER_BYTES];
            header[..4].copy_from_slice(&FRAME_MAGIC);
            header[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
            header[8..].copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// Append `frames` — whole frames, each one a record's committed
    /// frame as a segment holds it — as they are: what a replica's
    /// store writes in place of [`push`](Self::push), so its segments
    /// are its primary's bytes.
    pub fn push_framed(&mut self, frames: &[&[u8]]) {
        self.bytes
            .reserve(frames.iter().map(|frame| frame.len()).sum());
        for frame in frames {
            debug_assert!(
                frame.len() >= FRAME_HEADER_BYTES && frame[..4] == FRAME_MAGIC,
                "a whole segment frame"
            );
            self.bytes.extend_from_slice(frame);
            self.ends.push(self.bytes.len());
        }
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |j| self.ends[j])
    }
}

/// Why the frame after a committed prefix is not committed: the first
/// part of the rule it broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injury {
    /// The bytes end inside the frame's header or declared body.
    Torn,
    /// The header does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The body's checksum disagrees with the header's.
    Checksum,
    /// A checksum-valid body that does not decode.
    Undecodable(CodecError),
    /// A record of this other minute among the scanned minute's frames.
    ForeignMinute(MinuteId),
}

impl std::fmt::Display for Injury {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Injury::Torn => write!(f, "torn segment frame"),
            Injury::BadMagic => write!(f, "bad segment frame magic"),
            Injury::Checksum => write!(f, "segment frame checksum mismatch"),
            Injury::Undecodable(e) => write!(f, "undecodable body: {e}"),
            Injury::ForeignMinute(m) => write!(f, "record of minute {} in another minute", m.0),
        }
    }
}

/// What [`scan`] found: the longest committed prefix and why it ends.
#[derive(Clone, Debug)]
pub struct Scan<T = StoredVp> {
    /// The prefix's records, in frame order.
    pub records: Vec<T>,
    /// Offset one past each of the prefix's frames.
    pub ends: Vec<usize>,
    /// The first injury, `None` when the prefix is all of the bytes.
    pub injury: Option<Injury>,
}

impl<T> Scan<T> {
    /// Byte length of the committed prefix.
    pub fn committed_len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Each committed record's frame in `bytes`, the bytes this scan
    /// read, in record order.
    pub fn frames<'s, 'a>(
        &'s self,
        bytes: &'a [u8],
    ) -> impl Iterator<Item = &'a [u8]> + use<'s, 'a, T> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(move |(start, &end)| &bytes[start..end])
    }
}

/// Decide which of `bytes` — segment frames back to back, as a segment
/// holds them after its header and as a `FRAMES` message carries them —
/// are committed frames of `minute`. A frame is committed iff its magic,
/// declared length, checksum, decodable body and minute all hold; the
/// first frame that fails ends the prefix, and nothing past it is
/// returned.
///
/// Batched for the hot paths (recovery, catch-up, follower apply): one
/// structural pass over the headers, every body checksum through the
/// multi-buffer engine, then the checksum-clean prefix decoded in order
/// on the caller's thread. (Decoding on worker threads allocates every
/// record in their malloc arenas, and a warm reopen then page-faults it
/// all afresh: measured slower on `vm_perf`'s `recover_s`.) Total: never
/// panics on any input.
pub fn scan(bytes: &[u8], minute: MinuteId) -> Scan {
    scan_keeping(bytes, minute, |vp| vp)
}

/// [`scan`], handing each committed record to `keep` as it is decoded:
/// catch-up keeps nothing, so its records are dropped while still hot
/// instead of piling up until the scan ends.
fn scan_keeping<T>(bytes: &[u8], minute: MinuteId, keep: impl Fn(StoredVp) -> T) -> Scan<T> {
    let mut ends = Vec::new();
    let mut injury = None;
    let mut off = 0usize;
    while off < bytes.len() {
        let Some(header) = bytes.get(off..off + FRAME_HEADER_BYTES) else {
            injury = Some(Injury::Torn);
            break;
        };
        if header[..4] != FRAME_MAGIC {
            injury = Some(Injury::BadMagic);
            break;
        }
        let body_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        if bytes.len() - off - FRAME_HEADER_BYTES < body_len {
            injury = Some(Injury::Torn);
            break;
        }
        off += FRAME_HEADER_BYTES + body_len;
        ends.push(off);
    }
    let start = |i: usize| i.checked_sub(1).map_or(0, |j| ends[j]);
    let body = |i: usize| &bytes[start(i) + FRAME_HEADER_BYTES..ends[i]];
    let sums = vm_crypto::checksum64_many(&(0..ends.len()).map(body).collect::<Vec<_>>());
    let declared = |i: usize| {
        let at = start(i) + 8;
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    };
    let clean = (0..ends.len())
        .position(|i| sums[i] != declared(i))
        .unwrap_or(ends.len());
    if clean < ends.len() {
        injury = Some(Injury::Checksum);
    }
    let mut records = Vec::with_capacity(clean);
    for i in 0..clean {
        match decode_record(body(i)) {
            Ok(vp) if vp.minute() == minute => records.push(keep(vp)),
            Ok(vp) => {
                injury = Some(Injury::ForeignMinute(vp.minute()));
                break;
            }
            Err(e) => {
                injury = Some(Injury::Undecodable(e));
                break;
            }
        }
    }
    ends.truncate(records.len());
    Scan {
        records,
        ends,
        injury,
    }
}

/// Append-side handle on one segment file. Creation writes the header;
/// every [`append`](Self::append) is a single `write_all` of
/// pre-assembled frames (the group-commit unit). The writer never
/// reads: the store recovers the file *before* constructing a writer,
/// so the tail is known-valid by the time appends start. The store
/// holds one open across a minute's appends.
pub struct SegmentWriter {
    file: File,
    created: bool,
}

impl SegmentWriter {
    /// Open (or create) the segment for `minute` in `dir`.
    pub fn open(dir: &Path, minute: MinuteId) -> std::io::Result<SegmentWriter> {
        let path = segment_path(dir, minute);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let created = file.metadata()?.len() == 0;
        if created {
            let mut header = [0u8; SEGMENT_HEADER_BYTES];
            header[..8].copy_from_slice(&SEGMENT_MAGIC);
            header[8..].copy_from_slice(&minute.0.to_le_bytes());
            file.write_all(&header)?;
        }
        Ok(SegmentWriter { file, created })
    }

    /// Did this open write the segment's header (a new file, whose
    /// directory entry is not yet durable)? True once per created
    /// segment: the first call answers and clears it, so a writer held
    /// across many appends asks for one directory sync, not one each.
    pub fn take_created(&mut self) -> bool {
        std::mem::take(&mut self.created)
    }

    /// One group commit: a single buffered write of pre-framed records.
    pub fn append(&mut self, frames: &[u8]) -> std::io::Result<()> {
        self.file.write_all(frames)
    }

    /// Force the segment to stable media (the `Fsync::Always` half of a
    /// group commit, and the graceful-shutdown flush).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// Shape of one recovered (or about-to-be-written) segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// The minute the segment buckets.
    pub minute: MinuteId,
    /// Committed records recovered from it.
    pub records: usize,
    /// Bytes cut off the tail (0 for a clean segment).
    pub truncated_bytes: u64,
}

/// Read a segment file whose header names `expected`; `Ok(None)` when
/// the header is short, carries the wrong magic, or names another
/// minute — a file this store did not write under that name.
fn read_segment(path: &Path, expected: MinuteId) -> std::io::Result<Option<Vec<u8>>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let ours = data.len() >= SEGMENT_HEADER_BYTES
        && data[..8] == SEGMENT_MAGIC
        && data[8..16] == expected.0.to_le_bytes();
    Ok(ours.then_some(data))
}

/// Recover one segment file: validate the header against the minute
/// the file's name claims, [`scan`] its frames, truncate everything
/// past the committed prefix in place, and return the prefix's records.
///
/// Returns `Ok(None)` — with the file **untouched** — when the header
/// is short, carries the wrong magic, or names a different minute than
/// `expected`. All three mean the file is not a segment this store
/// wrote under that name (a torn first write, a renamed file, an
/// operator's misplaced backup); disposition belongs to the caller
/// ([`crate::VpStore`] quarantines it), and the recovery scan must
/// never mutate bytes it cannot vouch for.
pub fn recover_segment(
    path: &Path,
    expected: MinuteId,
) -> std::io::Result<Option<(SegmentMeta, Vec<StoredVp>)>> {
    let Some(data) = read_segment(path, expected)? else {
        return Ok(None);
    };
    let scan = scan(&data[SEGMENT_HEADER_BYTES..], expected);
    let committed = SEGMENT_HEADER_BYTES + scan.committed_len();
    let truncated_bytes = (data.len() - committed) as u64;
    if truncated_bytes > 0 {
        // Cut the torn tail off so the next append starts at a clean
        // frame boundary (appending after garbage would orphan every
        // later record behind an invalid frame).
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(committed as u64)?;
        file.sync_data()?;
    }
    Ok(Some((
        SegmentMeta {
            minute: expected,
            records: scan.records.len(),
            truncated_bytes,
        },
        scan.records,
    )))
}

/// The committed frames of a segment past its first `skip`, for
/// replication catch-up: the bytes a [`scan`] vouches for, as one run
/// the hub ships unchanged (the follower scans them again on arrival).
///
/// Returns `Ok(None)` for a file that is not a segment this store
/// wrote under that name (same contract as [`recover_segment`]), and
/// never mutates the file — an injured tail simply ends the run, and
/// the store's own recovery owns truncation. A segment that vanished
/// (raced an eviction sweep) is an empty run.
pub fn tail_frames(
    path: &Path,
    expected: MinuteId,
    skip: usize,
) -> std::io::Result<Option<Frames>> {
    let data = match read_segment(path, expected) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Some(Frames::default())),
        other => other?,
    };
    let Some(mut bytes) = data else {
        return Ok(None);
    };
    let scan = scan_keeping(&bytes[SEGMENT_HEADER_BYTES..], expected, drop);
    let skip = skip.min(scan.ends.len());
    let from = skip.checked_sub(1).map_or(0, |j| scan.ends[j]);
    // The run is cut out of the file's bytes where they lie.
    bytes.truncate(SEGMENT_HEADER_BYTES + scan.committed_len());
    bytes.drain(..SEGMENT_HEADER_BYTES + from);
    Ok(Some(Frames {
        bytes,
        ends: scan.ends[skip..].iter().map(|end| end - from).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::segment_frames;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use viewmap_core::bloom::BloomFilter;
    use viewmap_core::types::{GeoPos, VpId, SECONDS_PER_VP};
    use viewmap_core::vd::ViewDigest;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("vm_store_segment_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn vp(seed: u64) -> StoredVp {
        let mut rng = StdRng::seed_from_u64(seed);
        let (fa, _) = viewmap_core::vp::exchange_minute(
            &mut rng,
            0,
            move |s| GeoPos::new(s as f64 * 8.0 + seed as f64, 0.0),
            move |s| GeoPos::new(s as f64 * 8.0 + seed as f64, 30.0),
        );
        fa.profile.into_stored()
    }

    /// A small record (four VDs, an 8-byte Bloom filter) of `minute`, so
    /// every-offset sweeps stay cheap.
    fn small_vp(tag: u64, minute: u64) -> StoredVp {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&tag.to_le_bytes());
        id[8..].copy_from_slice(&minute.to_le_bytes());
        let vp_id = VpId(vm_crypto::Digest16(id));
        let vds = (1..=4u16)
            .map(|seq| ViewDigest {
                seq,
                flags: 0,
                time: minute * SECONDS_PER_VP + seq as u64,
                loc: GeoPos::new(tag as f64 + seq as f64 * 8.0, minute as f64),
                file_size: seq as u64 * 64,
                initial_loc: GeoPos::new(tag as f64, 0.0),
                vp_id,
                hash: vm_crypto::Digest16(id),
            })
            .collect();
        StoredVp::new(vp_id, vds, BloomFilter::new(64, 2), false)
    }

    fn frames_of(vps: &[StoredVp]) -> Frames {
        let mut frames = Frames::default();
        frames.push(&vps.iter().collect::<Vec<_>>());
        frames
    }

    fn write_raw_segment(dir: &Path, minute: MinuteId, frames: &[u8]) -> PathBuf {
        let path = segment_path(dir, minute);
        let mut file = SEGMENT_MAGIC.to_vec();
        file.extend_from_slice(&minute.0.to_le_bytes());
        file.extend_from_slice(frames);
        std::fs::write(&path, file).unwrap();
        path
    }

    /// The oracle: on `frames` written as a segment, [`scan`]'s prefix
    /// ends where the independent reference walker's last span ends,
    /// `tail_frames(.., 0)` returns exactly those bytes, and recovery
    /// truncates exactly there.
    fn assert_one_rule(dir: &Path, minute: MinuteId, frames: &[u8], ctx: &str) {
        let path = write_raw_segment(dir, minute, frames);
        let reference = segment_frames(&path)
            .unwrap()
            .last()
            .map_or(0, |span| span.end() as usize - SEGMENT_HEADER_BYTES);
        let scanned = scan(frames, minute);
        assert_eq!(scanned.committed_len(), reference, "{ctx}: scan vs walker");
        assert_eq!(scanned.records.len(), scanned.ends.len(), "{ctx}");
        assert_eq!(
            scanned.injury.is_none(),
            reference == frames.len(),
            "{ctx}: an injury iff bytes are left over"
        );
        let tail = tail_frames(&path, minute, 0).unwrap().unwrap();
        assert_eq!(tail.bytes, &frames[..reference], "{ctx}: tail bytes");
        assert_eq!(tail.ends, scanned.ends, "{ctx}: tail ends");
        let (meta, records) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!(records.len(), scanned.records.len(), "{ctx}: recovered");
        assert_eq!(
            meta.truncated_bytes as usize,
            frames.len() - reference,
            "{ctx}"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            SEGMENT_HEADER_BYTES + reference,
            "{ctx}: recovery truncates at the prefix"
        );
    }

    #[test]
    fn file_names_roundtrip_and_reject_foreign_files() {
        for m in [0u64, 1, 42, 999_999_999_999] {
            let name = segment_file_name(MinuteId(m));
            assert_eq!(parse_segment_file_name(&name), Some(MinuteId(m)));
        }
        for bad in [
            "minute-42.vmseg",            // not fixed-width
            "minute-00000000004x.vmseg",  // non-digit
            "minute-000000000042.vmseg2", // wrong suffix
            "other-000000000042.vmseg",   // wrong prefix
            ".vmseg",
            "BENCH.json",
        ] {
            assert_eq!(parse_segment_file_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn write_then_recover_roundtrips_in_order() {
        let tmp = TempDir::new("roundtrip");
        let minute = MinuteId(0);
        let mut w = SegmentWriter::open(&tmp.0, minute).unwrap();
        let vps: Vec<StoredVp> = (0..5).map(vp).collect();
        // Two group commits: 3 records, then 2.
        for group in [&vps[..3], &vps[3..]] {
            w.append(&frames_of(group).bytes).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let (meta, back) = recover_segment(&segment_path(&tmp.0, minute), minute)
            .unwrap()
            .expect("valid segment");
        assert_eq!(meta.minute, minute);
        assert_eq!(meta.records, 5);
        assert_eq!(meta.truncated_bytes, 0);
        assert_eq!(back.len(), 5);
        for (a, b) in vps.iter().zip(&back) {
            crate::codec::assert_vp_bit_identical(a, b, "segment roundtrip");
        }

        // Reopening for append does not disturb the contents.
        let mut w = SegmentWriter::open(&tmp.0, minute).unwrap();
        w.append(&frames_of(&[vp(9)]).bytes).unwrap();
        drop(w);
        let (meta, back) = recover_segment(&segment_path(&tmp.0, minute), minute)
            .unwrap()
            .unwrap();
        assert_eq!((meta.records, back.len()), (6, 6));
    }

    #[test]
    fn framing_in_pieces_is_framing_at_once() {
        // Pushing onto frames already held continues the run: the same
        // bytes and ends as one push of every record.
        let vps: Vec<StoredVp> = (0..7).map(|t| small_vp(t, 2)).collect();
        let whole = frames_of(&vps);
        let mut pieces = frames_of(&vps[..3]);
        pieces.push(&vps[3..].iter().collect::<Vec<_>>());
        assert_eq!(pieces, whole);
        assert_eq!(whole.ends.len(), 7);
        assert_eq!(*whole.ends.last().unwrap(), whole.bytes.len());
    }

    #[test]
    fn foreign_files_are_reported_untouched() {
        // Invalid header, or a header naming another minute: the scan
        // reports None and must not mutate a byte — disposition
        // (quarantine) is the store's call, and the file may be an
        // operator's misplaced backup.
        let tmp = TempDir::new("badheader");
        let mut wrong_minute = Vec::new();
        wrong_minute.extend_from_slice(&SEGMENT_MAGIC);
        wrong_minute.extend_from_slice(&9u64.to_le_bytes());
        wrong_minute.extend_from_slice(b"trailing garbage that must survive");
        for (tag, bytes) in [
            ("empty", &b""[..]),
            ("short", &b"VMSEG0"[..]),
            ("wrong_magic", &b"NOTASEG0\x01\0\0\0\0\0\0\0"[..]),
            ("wrong_minute", &wrong_minute[..]),
        ] {
            let path = tmp.0.join(format!("{tag}.vmseg"));
            std::fs::write(&path, bytes).unwrap();
            assert!(
                recover_segment(&path, MinuteId(3)).unwrap().is_none(),
                "{tag}"
            );
            assert!(
                tail_frames(&path, MinuteId(3), 0).unwrap().is_none(),
                "{tag}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "{tag}: foreign bytes must be left exactly as found"
            );
        }
    }

    #[test]
    fn tail_frames_skips_and_returns_the_committed_bytes() {
        let tmp = TempDir::new("tail");
        let minute = MinuteId(4);
        let vps: Vec<StoredVp> = (0..4).map(|t| small_vp(t, 4)).collect();
        let frames = frames_of(&vps);
        let mut w = SegmentWriter::open(&tmp.0, minute).unwrap();
        w.append(&frames.bytes).unwrap();
        drop(w);

        let path = segment_path(&tmp.0, minute);
        // The whole tail is exactly the on-disk stream, and it scans
        // back to the records it framed — the property replication
        // relies on (ship bytes, replay records).
        let all = tail_frames(&path, minute, 0).unwrap().unwrap();
        assert_eq!(all, frames);
        for (back, vp) in scan(&all.bytes, minute).records.iter().zip(&vps) {
            crate::codec::assert_vp_bit_identical(vp, back, "tail frame");
        }
        // Skip positions a catch-up cursor mid-segment.
        let tail = tail_frames(&path, minute, 3).unwrap().unwrap();
        assert_eq!(tail.bytes, &frames.bytes[frames.ends[2]..]);
        assert_eq!(tail.ends, vec![tail.bytes.len()]);
        assert_eq!(
            tail_frames(&path, minute, 9).unwrap().unwrap(),
            Frames::default()
        );
        // Foreign minute: same None contract as recovery.
        assert!(tail_frames(&path, MinuteId(5), 0).unwrap().is_none());
        // A vanished segment (eviction race) is an empty run.
        assert_eq!(
            tail_frames(&tmp.0.join("minute-000000000099.vmseg"), MinuteId(99), 0)
                .unwrap()
                .unwrap(),
            Frames::default()
        );
    }

    #[test]
    fn corruption_ends_the_valid_prefix_and_truncates() {
        // Flip one byte inside the second record's body: recovery keeps
        // record 1, truncates at record 2's frame, and a re-scan of the
        // truncated file is clean.
        let tmp = TempDir::new("corrupt");
        let minute = MinuteId(0);
        let vps: Vec<StoredVp> = (1..=3).map(vp).collect();
        let frames = frames_of(&vps);
        let mut w = SegmentWriter::open(&tmp.0, minute).unwrap();
        w.append(&frames.bytes).unwrap();
        drop(w);

        let path = segment_path(&tmp.0, minute);
        let mut bytes = std::fs::read(&path).unwrap();
        let r1_len = frames.ends[0];
        bytes[SEGMENT_HEADER_BYTES + r1_len + FRAME_HEADER_BYTES + 40] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let (meta, back) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!(meta.records, 1, "only the record before the flip survives");
        assert!(meta.truncated_bytes > 0);
        crate::codec::assert_vp_bit_identical(&vps[0], &back[0], "survivor");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (SEGMENT_HEADER_BYTES + r1_len) as u64,
            "file truncated to the last committed frame"
        );
        let (meta2, _) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!(meta2.truncated_bytes, 0, "second scan is clean");
        assert_eq!(meta2.records, 1);
    }

    #[test]
    fn every_cut_and_every_flip_agree_with_the_reference_walker() {
        let tmp = TempDir::new("oracle");
        let minute = MinuteId(6);
        let frames = frames_of(&(0..3).map(|t| small_vp(t, 6)).collect::<Vec<_>>());
        let bytes = &frames.bytes;
        for cut in 0..=bytes.len() {
            assert_one_rule(&tmp.0, minute, &bytes[..cut], &format!("cut {cut}"));
        }
        for at in 0..bytes.len() {
            let mut hurt = bytes.clone();
            hurt[at] ^= 0x40;
            assert_one_rule(&tmp.0, minute, &hurt, &format!("flip {at}"));
            assert!(
                scan(&hurt, minute).injury.is_some(),
                "flip {at} scanned clean"
            );
        }
    }

    #[test]
    fn cuts_and_flips_in_a_long_run() {
        // Hundreds of frames: the batched checksum pass must still draw
        // the line at the first injury wherever it falls, early or late.
        let tmp = TempDir::new("oracle_long");
        let minute = MinuteId(7);
        let n = 515;
        let frames = frames_of(&(0..n as u64).map(|t| small_vp(t, 7)).collect::<Vec<_>>());
        let bytes = &frames.bytes;
        assert_one_rule(&tmp.0, minute, bytes, "whole");
        for i in [0, 1, 255, 256, 511, 512, n - 1] {
            let start = frames.start(i);
            let end = frames.ends[i];
            for cut in [
                start + 1,
                start + FRAME_HEADER_BYTES,
                (start + end) / 2,
                end,
            ] {
                assert_one_rule(
                    &tmp.0,
                    minute,
                    &bytes[..cut],
                    &format!("frame {i} cut {cut}"),
                );
            }
            for at in [
                start,
                start + 5,
                start + 9,
                start + FRAME_HEADER_BYTES + 3,
                end - 1,
            ] {
                let mut hurt = bytes.clone();
                hurt[at] ^= 0x01;
                assert_one_rule(&tmp.0, minute, &hurt, &format!("frame {i} flip {at}"));
            }
        }
    }

    #[test]
    fn each_part_of_the_rule_names_its_injury() {
        let minute = MinuteId(1);
        let good = frames_of(&[small_vp(1, 1)]);
        let with = |tail: &[u8]| [&good.bytes[..], tail].concat();
        let verdict = |bytes: &[u8]| {
            let s = scan(bytes, minute);
            assert_eq!(
                s.committed_len(),
                good.bytes.len(),
                "prefix is the good frame"
            );
            s.injury
        };
        assert_eq!(verdict(&good.bytes), None);
        assert_eq!(verdict(&with(&good.bytes[..7])), Some(Injury::Torn));
        assert_eq!(
            verdict(&with(&good.bytes[..good.bytes.len() - 1])),
            Some(Injury::Torn)
        );
        let mut magic = good.bytes.clone();
        magic[0] = b'X';
        assert_eq!(verdict(&with(&magic)), Some(Injury::BadMagic));
        let mut sum = good.bytes.clone();
        sum[8] ^= 1;
        assert_eq!(verdict(&with(&sum)), Some(Injury::Checksum));
        // A checksum-valid body the codec refuses.
        let junk = b"not a record";
        let mut undecodable = FRAME_MAGIC.to_vec();
        undecodable.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        undecodable.extend_from_slice(&vm_crypto::checksum64(junk).to_le_bytes());
        undecodable.extend_from_slice(junk);
        assert!(matches!(
            verdict(&with(&undecodable)),
            Some(Injury::Undecodable(_))
        ));
        let foreign = frames_of(&[small_vp(2, 5)]);
        assert_eq!(
            verdict(&with(&foreign.bytes)),
            Some(Injury::ForeignMinute(MinuteId(5)))
        );
    }
}
