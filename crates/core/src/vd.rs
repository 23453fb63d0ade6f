//! View digests (VDs) — per-second cascaded video fingerprints (Fig. 4).
//!
//! Every second, a ViewMap dashcam broadcasts
//! `T_ui, L_ui, F_ui, L_u1, R_u, H(T_ui | L_ui | F_ui | H_{u,i-1} | u_i^{i-1})`
//! where `u_i^{i-1}` is the video chunk recorded since the previous second
//! and `H_{u,0} = R_u`. The cascade means each step hashes only the new
//! chunk — constant time regardless of total file size (Fig. 8) — while
//! still committing to the entire file so far.
//!
//! The wire format is 72 bytes, matching the paper's Section 6.1 message
//! accounting, and fits in a DSRC beacon.

use crate::bloom::ProbeKey;
use crate::types::{GeoPos, VpId};
use vm_crypto::{Digest16, Digest32, Sha256};

/// Wire size of one VD message (Section 6.1).
pub const VD_WIRE_BYTES: usize = 72;

/// Write `bytes` at the front of `buf` and advance past them.
fn put(buf: &mut &mut [u8], bytes: &[u8]) {
    let (head, rest) = std::mem::take(buf).split_at_mut(bytes.len());
    head.copy_from_slice(bytes);
    *buf = rest;
}

/// Read `N` bytes from the front of `buf` and advance past them. The
/// callers check the total length first.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("N bytes")
}

fn take_u64(buf: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(buf))
}

/// A single view digest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewDigest {
    /// Second index within the 1-min video, 1..=60.
    pub seq: u16,
    /// Message flags (reserved; 0 for normal VDs).
    pub flags: u16,
    /// Absolute time of this digest, seconds (`T_ui`).
    pub time: u64,
    /// Claimed location at this second (`L_ui`).
    pub loc: GeoPos,
    /// Cumulative video byte size (`F_ui`).
    pub file_size: u64,
    /// Initial location of the current video (`L_u1`), used by neighbors
    /// for guard-VP generation.
    pub initial_loc: GeoPos,
    /// VP identifier (`R_u`).
    pub vp_id: VpId,
    /// Cascaded hash (`H_ui`).
    pub hash: Digest16,
}

impl ViewDigest {
    /// The Bloom-filter key of this VD (hash of its semantic fields).
    ///
    /// Neighbors insert received VDs into their VP's filter `N_u`; keying
    /// by the full content binds linkage to the exact exchanged digests.
    ///
    /// Encoded on the stack and hashed in a single absorb — two
    /// compression-function calls total for the 72-byte wire image, with
    /// none of the per-field streaming overhead an earlier version paid
    /// (nine buffered `update`s per VD). This runs once per received VD
    /// on vehicles and per element VD during viewmap construction.
    pub fn bloom_key(&self) -> Digest16 {
        Digest16::hash(&self.encode())
    }

    /// Encode to the 72-byte wire format.
    pub fn encode(&self) -> [u8; VD_WIRE_BYTES] {
        let mut out = [0u8; VD_WIRE_BYTES];
        let mut buf = &mut out[..];
        put(&mut buf, &self.seq.to_le_bytes());
        put(&mut buf, &self.flags.to_le_bytes());
        put(&mut buf, &0u32.to_le_bytes()); // reserved
        put(&mut buf, &self.time.to_le_bytes());
        put(&mut buf, &self.loc.encode());
        put(&mut buf, &self.file_size.to_le_bytes());
        put(&mut buf, &self.initial_loc.encode());
        put(&mut buf, self.vp_id.0.as_bytes());
        put(&mut buf, self.hash.as_bytes());
        debug_assert!(buf.is_empty());
        out
    }

    /// Decode from wire bytes; `None` if the slice is malformed.
    pub fn decode(bytes: &[u8]) -> Option<ViewDigest> {
        if bytes.len() != VD_WIRE_BYTES {
            return None;
        }
        let mut buf = bytes;
        let seq = u16::from_le_bytes(take(&mut buf));
        let flags = u16::from_le_bytes(take(&mut buf));
        let _reserved: [u8; 4] = take(&mut buf);
        let time = take_u64(&mut buf);
        let loc = GeoPos::decode(&take(&mut buf));
        let file_size = take_u64(&mut buf);
        let initial_loc = GeoPos::decode(&take(&mut buf));
        let id16 = take(&mut buf);
        let h16 = take(&mut buf);
        if !(1..=crate::types::SECONDS_PER_VP as u16).contains(&seq) {
            return None;
        }
        Some(ViewDigest {
            seq,
            flags,
            time,
            loc,
            file_size,
            initial_loc,
            vp_id: VpId(Digest16(id16)),
            hash: Digest16(h16),
        })
    }
}

/// Size of one full-precision storage frame ([`ViewDigest::encode_store`]).
pub const VD_STORE_BYTES: usize = 84;

impl ViewDigest {
    /// Encode to the 84-byte **storage** frame: every field at full
    /// in-memory precision (`f64` coordinates, unlike the 72-byte DSRC
    /// wire format's `f32`s). This is the lossless baseline frame the
    /// `vm-store` record codec writes for a record's first sample —
    /// replaying a log must rebuild bit-identical trajectories, or a
    /// recovered server would construct different viewmap edges than the
    /// live one did.
    pub fn encode_store(&self) -> [u8; VD_STORE_BYTES] {
        let mut out = [0u8; VD_STORE_BYTES];
        let mut buf = &mut out[..];
        put(&mut buf, &self.seq.to_le_bytes());
        put(&mut buf, &self.flags.to_le_bytes());
        put(&mut buf, &self.time.to_le_bytes());
        put(&mut buf, &self.loc.x.to_le_bytes());
        put(&mut buf, &self.loc.y.to_le_bytes());
        put(&mut buf, &self.file_size.to_le_bytes());
        put(&mut buf, &self.initial_loc.x.to_le_bytes());
        put(&mut buf, &self.initial_loc.y.to_le_bytes());
        put(&mut buf, self.vp_id.0.as_bytes());
        put(&mut buf, self.hash.as_bytes());
        debug_assert!(buf.is_empty());
        out
    }

    /// Decode an 84-byte storage frame; `None` only on a length
    /// mismatch. Unlike [`decode`](Self::decode) this performs **no**
    /// semantic validation (`seq` range etc.): storage frames sit behind
    /// a record checksum and must round-trip whatever the server stored
    /// — the DB admission screen already ran before anything reached the
    /// log, and re-screening happens again on replay ingest.
    pub fn decode_store(bytes: &[u8]) -> Option<ViewDigest> {
        if bytes.len() != VD_STORE_BYTES {
            return None;
        }
        let mut buf = bytes;
        let seq = u16::from_le_bytes(take(&mut buf));
        let flags = u16::from_le_bytes(take(&mut buf));
        let time = take_u64(&mut buf);
        let loc = GeoPos::new(
            f64::from_le_bytes(take(&mut buf)),
            f64::from_le_bytes(take(&mut buf)),
        );
        let file_size = take_u64(&mut buf);
        let initial_loc = GeoPos::new(
            f64::from_le_bytes(take(&mut buf)),
            f64::from_le_bytes(take(&mut buf)),
        );
        let id16 = take(&mut buf);
        let h16 = take(&mut buf);
        Some(ViewDigest {
            seq,
            flags,
            time,
            loc,
            file_size,
            initial_loc,
            vp_id: VpId(Digest16(id16)),
            hash: Digest16(h16),
        })
    }
}

/// The [`ProbeKey`]s of many VDs in one multi-buffer hashing pass:
/// equivalent to `vds.iter().map(|vd| ProbeKey::of(&vd.bloom_key()))`,
/// but the 72-byte wire images are encoded into one flat buffer, hashed
/// through [`vm_crypto::sha256_many_into`]'s interleaved lanes, and each
/// digest is cut straight to its 4-byte probe key. This is the kernel
/// behind `StoredVp::link_keys`, which batch ingest warms and a cold
/// VP's first link fills; every VP brings 60 independent messages at
/// once.
pub fn link_keys_many(vds: &[ViewDigest]) -> Box<[ProbeKey]> {
    let mut flat = vec![0u8; vds.len() * VD_WIRE_BYTES];
    for (vd, chunk) in vds.iter().zip(flat.chunks_exact_mut(VD_WIRE_BYTES)) {
        chunk.copy_from_slice(&vd.encode());
    }
    let msgs: Vec<&[u8]> = flat.chunks_exact(VD_WIRE_BYTES).collect();
    let mut digests = vec![Digest32([0u8; 32]); msgs.len()];
    vm_crypto::sha256_many_into(&msgs, &mut digests);
    digests
        .iter()
        .map(|d| ProbeKey::of(&Digest16(d.0[..16].try_into().expect("32-byte digest"))))
        .collect()
}

/// Compute one cascade step:
/// `H_i = H(T_i | L_i | F_i | H_{i-1} | chunk)`.
pub fn cascade_step(
    time: u64,
    loc: &GeoPos,
    file_size: u64,
    prev: &Digest16,
    chunk: &[u8],
) -> Digest16 {
    let mut h = Sha256::new();
    h.update(&time.to_le_bytes());
    h.update(&loc.encode());
    h.update(&file_size.to_le_bytes());
    h.update(prev.as_bytes());
    h.update(chunk);
    let d = h.finalize();
    let mut out = [0u8; 16];
    out.copy_from_slice(&d.0[..16]);
    Digest16(out)
}

/// The vehicle-side cascaded digest chain for one recording video.
#[derive(Clone, Debug)]
pub struct VdChain {
    vp_id: VpId,
    start_time: u64,
    initial_loc: GeoPos,
    prev_hash: Digest16,
    seq: u16,
    file_size: u64,
}

impl VdChain {
    /// Start a new chain for a video whose secret number is `secret`
    /// (so `R_u = H(Q_u)` and `H_{u,0} = R_u`).
    pub fn new(secret: [u8; 8], start_time: u64, initial_loc: GeoPos) -> Self {
        let vp_id = VpId::from_secret(&secret);
        VdChain {
            vp_id,
            start_time,
            initial_loc,
            prev_hash: vp_id.0,
            seq: 0,
            file_size: 0,
        }
    }

    /// The VP identifier of the video being recorded.
    pub fn vp_id(&self) -> VpId {
        self.vp_id
    }

    /// Seconds recorded so far.
    pub fn seconds(&self) -> u16 {
        self.seq
    }

    /// Extend the chain with the video chunk recorded in the last second
    /// and produce the VD to broadcast. Panics past 60 seconds — the
    /// dashcam must roll over to a new video (new chain) every minute.
    pub fn extend(&mut self, chunk: &[u8], loc: GeoPos) -> ViewDigest {
        assert!(
            (self.seq as u64) < crate::types::SECONDS_PER_VP,
            "1-min video already complete; start a new chain"
        );
        self.seq += 1;
        self.file_size += chunk.len() as u64;
        let time = self.start_time + self.seq as u64;
        self.prev_hash = cascade_step(time, &loc, self.file_size, &self.prev_hash, chunk);
        ViewDigest {
            seq: self.seq,
            flags: 0,
            time,
            loc,
            file_size: self.file_size,
            initial_loc: self.initial_loc,
            vp_id: self.vp_id,
            hash: self.prev_hash,
        }
    }
}

/// Errors from re-deriving a VD chain against uploaded video bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// Chunk count does not match the number of VDs.
    LengthMismatch,
    /// The cascaded hash diverged at the given 1-based second.
    HashMismatch(u16),
    /// A VD's cumulative file size is inconsistent with the chunks.
    SizeMismatch(u16),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::LengthMismatch => write!(f, "chunk/VD count mismatch"),
            ChainError::HashMismatch(s) => write!(f, "cascaded hash mismatch at second {s}"),
            ChainError::SizeMismatch(s) => write!(f, "file size mismatch at second {s}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Re-derive the cascaded chain from uploaded video chunks and check it
/// against the claimed VDs (the server-side validation of Section 5.2.3:
/// "the video is first validated via cascading hash operations against the
/// system-owned VP").
pub fn verify_chain(vp_id: VpId, vds: &[ViewDigest], chunks: &[Vec<u8>]) -> Result<(), ChainError> {
    if vds.len() != chunks.len() {
        return Err(ChainError::LengthMismatch);
    }
    let mut prev = vp_id.0;
    let mut size = 0u64;
    for (i, (vd, chunk)) in vds.iter().zip(chunks).enumerate() {
        size += chunk.len() as u64;
        if vd.file_size != size {
            return Err(ChainError::SizeMismatch(i as u16 + 1));
        }
        let expect = cascade_step(vd.time, &vd.loc, size, &prev, chunk);
        if expect != vd.hash {
            return Err(ChainError::HashMismatch(i as u16 + 1));
        }
        prev = expect;
    }
    Ok(())
}

/// Non-cascaded comparator for Fig. 8: hash the whole file prefix from
/// scratch (what a naive per-second fingerprint would cost).
pub fn flat_digest(prefix: &[u8]) -> Digest16 {
    Digest16::hash(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SECONDS_PER_VP;

    fn chunk(i: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|j| ((i * 31 + j as u64) % 251) as u8)
            .collect()
    }

    #[test]
    fn wire_roundtrip() {
        let mut chain = VdChain::new([9u8; 8], 100, GeoPos::new(1.0, 2.0));
        let vd = chain.extend(&chunk(0, 100), GeoPos::new(1.5, 2.0));
        let bytes = vd.encode();
        assert_eq!(bytes.len(), VD_WIRE_BYTES);
        let back = ViewDigest::decode(&bytes).expect("decodes");
        assert_eq!(vd.seq, back.seq);
        assert_eq!(vd.time, back.time);
        assert_eq!(vd.file_size, back.file_size);
        assert_eq!(vd.vp_id, back.vp_id);
        assert_eq!(vd.hash, back.hash);
        assert!((vd.loc.x - back.loc.x).abs() < 0.01);
    }

    #[test]
    fn store_frame_roundtrips_at_full_precision() {
        // The DSRC wire format quantizes coordinates to f32; the storage
        // frame must not — replay depends on bit-identical trajectories.
        let mut chain = VdChain::new([21u8; 8], 900, GeoPos::new(1.0e-7, -9.876543210123e5));
        for i in 0..5 {
            let vd = chain.extend(
                &chunk(i, 77),
                GeoPos::new(1.0 / 3.0 + i as f64, -0.1 * i as f64),
            );
            let frame = vd.encode_store();
            assert_eq!(frame.len(), VD_STORE_BYTES);
            let back = ViewDigest::decode_store(&frame).expect("decodes");
            assert_eq!(vd, back, "storage frame must be lossless");
            assert_eq!(vd.loc.x.to_bits(), back.loc.x.to_bits());
            assert_eq!(vd.loc.y.to_bits(), back.loc.y.to_bits());
        }
        // NaN coordinate bit patterns survive too (PartialEq can't see
        // them, so compare bits).
        let mut odd = chain.extend(&chunk(9, 8), GeoPos::new(0.0, 0.0));
        odd.loc = GeoPos::new(f64::from_bits(0x7ff8_dead_beef_0001), f64::NEG_INFINITY);
        let back = ViewDigest::decode_store(&odd.encode_store()).unwrap();
        assert_eq!(odd.loc.x.to_bits(), back.loc.x.to_bits());
        assert_eq!(odd.loc.y.to_bits(), back.loc.y.to_bits());
        // Only length is validated.
        assert!(ViewDigest::decode_store(&[0u8; VD_STORE_BYTES - 1]).is_none());
        assert!(ViewDigest::decode_store(&[0u8; VD_STORE_BYTES + 1]).is_none());
        assert!(ViewDigest::decode_store(&[0u8; VD_STORE_BYTES]).is_some());
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert!(ViewDigest::decode(&[0u8; 71]).is_none());
        assert!(ViewDigest::decode(&[0u8; 73]).is_none());
        // seq = 0 is invalid (seconds are 1-based).
        assert!(ViewDigest::decode(&[0u8; 72]).is_none());
        // seq = 61 is invalid.
        let mut bytes = [0u8; 72];
        bytes[0] = 61;
        assert!(ViewDigest::decode(&bytes).is_none());
    }

    #[test]
    fn chain_produces_sixty_vds_and_rolls_over() {
        let mut chain = VdChain::new([1u8; 8], 0, GeoPos::new(0.0, 0.0));
        for i in 0..SECONDS_PER_VP {
            let vd = chain.extend(&chunk(i, 64), GeoPos::new(i as f64, 0.0));
            assert_eq!(vd.seq as u64, i + 1);
            assert_eq!(vd.time, i + 1);
        }
        assert_eq!(chain.seconds() as u64, SECONDS_PER_VP);
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn chain_panics_past_one_minute() {
        let mut chain = VdChain::new([1u8; 8], 0, GeoPos::new(0.0, 0.0));
        for i in 0..=SECONDS_PER_VP {
            chain.extend(&chunk(i, 8), GeoPos::new(0.0, 0.0));
        }
    }

    #[test]
    fn verify_chain_accepts_honest_upload() {
        let mut chain = VdChain::new([2u8; 8], 50, GeoPos::new(5.0, 5.0));
        let chunks: Vec<Vec<u8>> = (0..60).map(|i| chunk(i, 200)).collect();
        let vds: Vec<ViewDigest> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| chain.extend(c, GeoPos::new(5.0 + i as f64, 5.0)))
            .collect();
        assert_eq!(verify_chain(chain.vp_id(), &vds, &chunks), Ok(()));
    }

    #[test]
    fn verify_chain_rejects_tampered_video() {
        let mut chain = VdChain::new([3u8; 8], 0, GeoPos::new(0.0, 0.0));
        let mut chunks: Vec<Vec<u8>> = (0..60).map(|i| chunk(i, 100)).collect();
        let vds: Vec<ViewDigest> = chunks
            .iter()
            .map(|c| chain.extend(c, GeoPos::new(0.0, 0.0)))
            .collect();
        // Posterior fabrication: replace one frame's bytes.
        chunks[30][0] ^= 0xff;
        assert_eq!(
            verify_chain(chain.vp_id(), &vds, &chunks),
            Err(ChainError::HashMismatch(31))
        );
    }

    #[test]
    fn verify_chain_rejects_wrong_secret() {
        let mut chain = VdChain::new([4u8; 8], 0, GeoPos::new(0.0, 0.0));
        let chunks: Vec<Vec<u8>> = (0..10).map(|i| chunk(i, 50)).collect();
        let vds: Vec<ViewDigest> = chunks
            .iter()
            .map(|c| chain.extend(c, GeoPos::new(0.0, 0.0)))
            .collect();
        let wrong_id = VpId::from_secret(&[5u8; 8]);
        assert!(matches!(
            verify_chain(wrong_id, &vds, &chunks),
            Err(ChainError::HashMismatch(1))
        ));
    }

    #[test]
    fn verify_chain_rejects_length_and_size_mismatch() {
        let mut chain = VdChain::new([6u8; 8], 0, GeoPos::new(0.0, 0.0));
        let chunks: Vec<Vec<u8>> = (0..5).map(|i| chunk(i, 50)).collect();
        let mut vds: Vec<ViewDigest> = chunks
            .iter()
            .map(|c| chain.extend(c, GeoPos::new(0.0, 0.0)))
            .collect();
        assert_eq!(
            verify_chain(chain.vp_id(), &vds[..4], &chunks),
            Err(ChainError::LengthMismatch)
        );
        vds[2].file_size += 1;
        assert_eq!(
            verify_chain(chain.vp_id(), &vds, &chunks),
            Err(ChainError::SizeMismatch(3))
        );
    }

    #[test]
    fn cascade_is_order_sensitive() {
        let a = chunk(1, 64);
        let b = chunk(2, 64);
        let mut c1 = VdChain::new([7u8; 8], 0, GeoPos::new(0.0, 0.0));
        let mut c2 = VdChain::new([7u8; 8], 0, GeoPos::new(0.0, 0.0));
        c1.extend(&a, GeoPos::new(0.0, 0.0));
        let h1 = c1.extend(&b, GeoPos::new(0.0, 0.0)).hash;
        c2.extend(&b, GeoPos::new(0.0, 0.0));
        let h2 = c2.extend(&a, GeoPos::new(0.0, 0.0)).hash;
        assert_ne!(h1, h2);
    }

    #[test]
    fn bloom_key_equals_hash_of_wire_encoding() {
        // The streamed single-pass bloom_key must match hashing the
        // materialized 72-byte wire frame field for field.
        let mut chain = VdChain::new([12u8; 8], 300, GeoPos::new(-5.5, 42.25));
        for i in 0..10 {
            let vd = chain.extend(&chunk(i, 33), GeoPos::new(i as f64, -3.0));
            assert_eq!(vd.bloom_key(), vm_crypto::Digest16::hash(&vd.encode()));
        }
    }

    #[test]
    fn link_keys_many_matches_per_vd_keys() {
        // The multi-buffer batch must be key-for-key the probe keys of
        // hashing each VD alone (including odd counts that leave lanes
        // partially filled).
        let mut chain = VdChain::new([13u8; 8], 120, GeoPos::new(7.0, -2.0));
        let vds: Vec<ViewDigest> = (0..13)
            .map(|i| chain.extend(&chunk(i, 40), GeoPos::new(i as f64, 2.0)))
            .collect();
        for take in [0usize, 1, 2, 3, 5, 13] {
            let batch = link_keys_many(&vds[..take]);
            let single: Vec<_> = vds[..take]
                .iter()
                .map(|vd| ProbeKey::of(&vd.bloom_key()))
                .collect();
            assert_eq!(&batch[..], &single[..], "take {take}");
        }
    }

    #[test]
    fn bloom_key_distinguishes_vds() {
        let mut chain = VdChain::new([8u8; 8], 0, GeoPos::new(0.0, 0.0));
        let vd1 = chain.extend(&chunk(0, 10), GeoPos::new(0.0, 0.0));
        let vd2 = chain.extend(&chunk(1, 10), GeoPos::new(1.0, 0.0));
        assert_ne!(vd1.bloom_key(), vd2.bloom_key());
    }

    #[test]
    fn vd_does_not_reveal_video_content() {
        // The same metadata with different chunks yields different hashes,
        // but the chunk bytes never appear in the wire message.
        let mut c1 = VdChain::new([9u8; 8], 0, GeoPos::new(0.0, 0.0));
        let secret_content = b"license plate 123-ABC visible here".to_vec();
        let vd = c1.extend(&secret_content, GeoPos::new(0.0, 0.0));
        let wire = vd.encode();
        // 72 bytes cannot contain the 35-byte chunk plus 56 bytes of
        // metadata; verify no substring of the content leaks.
        let needle = &secret_content[..8];
        assert!(!wire.windows(8).any(|w| w == needle));
    }
}
