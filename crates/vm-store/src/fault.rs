//! Seeded fault injection against segment files — the storage half of
//! the `vm-vopr` deterministic crash simulator.
//!
//! A simulated process crash drops the in-memory server without a
//! graceful sync; what the next open sees on disk is then decided
//! *here*, by explicitly injuring the segment tail at exact, seeded
//! byte offsets:
//!
//! * [`tear_at`] truncates a file mid-frame — the torn group commit a
//!   power cut leaves behind;
//! * a truncation at a frame boundary (an offset from
//!   [`segment_frames`]) models an fsync-loss window: the last group
//!   commits never reached stable media, but everything before them is
//!   intact;
//! * [`corrupt_at`] flips one byte in place — bit rot under a valid
//!   length, which recovery must catch by checksum, not by length.
//!
//! [`segment_frames`] is deliberately an **independent** re-walk of the
//! frame layout (magic, declared length, checksum — it never calls
//! [`crate::codec::decode_record`]): the harness uses it both to pick
//! injury offsets and as a cross-check that the segment writer actually
//! produced the layout recovery expects, and it is the oracle
//! [`crate::segment::scan`]'s tests hold the one rule against.

use crate::segment::{FRAME_HEADER_BYTES, FRAME_MAGIC, SEGMENT_HEADER_BYTES, SEGMENT_MAGIC};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// One committed frame's position inside a segment file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSpan {
    /// Byte offset of the frame header from the start of the file.
    pub offset: u64,
    /// Total frame length (header + body).
    pub len: u64,
}

impl FrameSpan {
    /// Byte offset one past the frame — the clean boundary a
    /// frame-aligned truncation cuts at.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Walk a segment file and return the span of every committed frame, in
/// file order. The walk stops at the first frame whose magic, declared
/// length, or checksum fails — exactly where recovery would truncate a
/// segment whose bodies all decode to its minute — and never decodes
/// record bodies, so it stays an independent check on the on-disk
/// layout (and the reference [`crate::segment::scan`] is tested
/// against). Errors only on I/O; a file that is not a segment
/// at all (short or wrong header magic) yields an empty list.
pub fn segment_frames(path: &Path) -> std::io::Result<Vec<FrameSpan>> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    let mut spans = Vec::new();
    if data.len() < SEGMENT_HEADER_BYTES || data[..8] != SEGMENT_MAGIC {
        return Ok(spans);
    }
    let mut off = SEGMENT_HEADER_BYTES;
    while off + FRAME_HEADER_BYTES <= data.len() {
        let header = &data[off..off + FRAME_HEADER_BYTES];
        if header[..4] != FRAME_MAGIC {
            break;
        }
        let body_len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let body_at = off + FRAME_HEADER_BYTES;
        let Some(body) = data.get(body_at..body_at + body_len) else {
            break;
        };
        if vm_crypto::checksum64(body) != checksum {
            break;
        }
        spans.push(FrameSpan {
            offset: off as u64,
            len: (FRAME_HEADER_BYTES + body_len) as u64,
        });
        off = body_at + body_len;
    }
    Ok(spans)
}

/// Truncate `path` to exactly `byte_len` bytes — the simulated torn
/// write. Cutting at a [`FrameSpan`] boundary models an fsync-loss
/// window (whole group commits vanish, the rest is clean); cutting
/// inside a frame models a torn group commit the next recovery must
/// truncate away. Growing a file is not a fault this injector models,
/// so a `byte_len` past the current end is an error.
pub fn tear_at(path: &Path, byte_len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let current = file.metadata()?.len();
    if byte_len > current {
        return Err(std::io::Error::other(format!(
            "tear_at {byte_len} past the end of {} ({current} bytes)",
            path.display()
        )));
    }
    file.set_len(byte_len)?;
    file.sync_data()
}

/// XOR one byte of `path` in place at `offset` — simulated bit rot.
/// Returns the original byte so a harness can assert the flip landed
/// where its seed said it would.
pub fn corrupt_at(path: &Path, offset: u64) -> std::io::Result<u8> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(&mut byte)?;
    let original = byte[0];
    byte[0] ^= 0xff;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_data()?;
    Ok(original)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{recover_segment, segment_path, Frames, SegmentWriter};
    use std::path::PathBuf;
    use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
    use viewmap_core::vd::ViewDigest;
    use viewmap_core::vp::StoredVp;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("vm_store_fault_{tag}_{}", std::process::id()));
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
        StoredVp::new(id, vds, viewmap_core::bloom::BloomFilter::default(), false)
    }

    fn write_segment(dir: &Path, minute: MinuteId, n: u64) -> PathBuf {
        let mut w = SegmentWriter::open(dir, minute).unwrap();
        let vps: Vec<StoredVp> = (0..n).map(|tag| synthetic_vp(tag, minute.0)).collect();
        let mut frames = Frames::default();
        frames.push(&vps.iter().collect::<Vec<_>>());
        w.append(&frames.bytes).unwrap();
        w.sync().unwrap();
        segment_path(dir, minute)
    }

    #[test]
    fn frame_walk_matches_recovery_and_non_segments_yield_nothing() {
        let tmp = TempDir::new("walk");
        let path = write_segment(&tmp.0, MinuteId(3), 5);
        let spans = segment_frames(&path).unwrap();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].offset, SEGMENT_HEADER_BYTES as u64);
        // Spans tile the file exactly: each frame starts where the
        // previous one ends, and the last one ends at EOF.
        for w in spans.windows(2) {
            assert_eq!(w[0].end(), w[1].offset);
        }
        assert_eq!(
            spans.last().unwrap().end(),
            std::fs::metadata(&path).unwrap().len()
        );
        // The independent walk agrees with the real recovery scan.
        let (meta, _) = recover_segment(&path, MinuteId(3)).unwrap().unwrap();
        assert_eq!(meta.records, spans.len());

        let foreign = tmp.0.join("not-a-segment");
        std::fs::write(&foreign, b"hello").unwrap();
        assert!(segment_frames(&foreign).unwrap().is_empty());
    }

    #[test]
    fn frame_boundary_tear_drops_whole_records_cleanly() {
        let tmp = TempDir::new("boundary");
        let minute = MinuteId(0);
        let path = write_segment(&tmp.0, minute, 4);
        let spans = segment_frames(&path).unwrap();
        // Cut two whole frames off the tail: an fsync-loss window.
        tear_at(&path, spans[2].offset).unwrap();
        let (meta, vps) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!(meta.records, 2, "two survivors");
        assert_eq!(meta.truncated_bytes, 0, "boundary cut is not torn");
        assert_eq!(vps.len(), 2);
        // Growing the file back is not a modeled fault.
        assert!(tear_at(&path, spans[3].end()).is_err());
    }

    #[test]
    fn mid_frame_tear_is_torn_and_truncated_by_recovery() {
        let tmp = TempDir::new("midframe");
        let minute = MinuteId(1);
        let path = write_segment(&tmp.0, minute, 3);
        let spans = segment_frames(&path).unwrap();
        let cut = spans[2].offset + 7; // 7 bytes into the tail frame's header
        tear_at(&path, cut).unwrap();
        let (meta, vps) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!(meta.records, 2);
        assert_eq!(meta.truncated_bytes, 7, "the torn header bytes");
        assert_eq!(vps.len(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            spans[2].offset,
            "recovery cut back to the clean boundary"
        );
    }

    #[test]
    fn corrupt_at_ends_the_committed_prefix_at_the_flip() {
        let tmp = TempDir::new("bitrot");
        let minute = MinuteId(2);
        let path = write_segment(&tmp.0, minute, 3);
        let spans = segment_frames(&path).unwrap();
        let flip = spans[1].offset + FRAME_HEADER_BYTES as u64 + 10; // record 2's body
        let original = corrupt_at(&path, flip).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap()[flip as usize],
            original ^ 0xff
        );
        assert_eq!(
            segment_frames(&path).unwrap().len(),
            1,
            "walk stops at the rot"
        );
        let (meta, vps) = recover_segment(&path, minute).unwrap().unwrap();
        assert_eq!((meta.records, vps.len()), (1, 1));
        assert!(meta.truncated_bytes > 0);
    }
}
