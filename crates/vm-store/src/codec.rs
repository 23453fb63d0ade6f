//! The compact binary VP record codec (see the crate docs for the
//! byte-level diagram).
//!
//! A record body is self-delimiting and **bit-exact**: decoding an
//! encoded [`StoredVp`] reproduces every field down to the `f64` bit
//! patterns of its trajectory (NaN payloads included). The first
//! trajectory sample is written as the 84-byte full-precision frame
//! ([`ViewDigest::encode_store`]); every later sample is a *predictive
//! delta frame*: a shape byte marks which fields deviate from their
//! predictors (counters advance by one, identity fields repeat, the
//! file-size delta repeats, coordinates extrapolate linearly), and only
//! the deviating fields are encoded — wrapping zigzag-varint deltas for
//! the integers, xor-of-bits varints for the coordinates, the cascade
//! hash raw (hashes don't compress). Honest cascades hit every
//! predictor, so a typical VD costs one shape byte, two short
//! coordinate xors, and its 16-byte hash.
//!
//! Integrity is **not** this module's job: the segment layer frames
//! each body with a length and a [`vm_crypto::checksum64`], and only
//! checksum-valid bodies reach [`decode_record`]. Decoding is still
//! total — any truncated or trailing-garbage body returns a
//! [`CodecError`], never a panic — because the torn-tail recovery scan
//! feeds it candidate bodies while probing where the valid prefix ends.

use viewmap_core::bloom::BloomFilter;
use viewmap_core::types::VpId;
use viewmap_core::vd::{ViewDigest, VD_STORE_BYTES};
use viewmap_core::vp::StoredVp;
use vm_crypto::Digest16;

/// Why a record body failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The body ended before the declared content did.
    Truncated,
    /// Bytes remained after the declared content (a body must be
    /// consumed exactly — anything else is framing corruption).
    Trailing,
    /// A field carried a value the encoder can never produce (empty
    /// Bloom filter, zero hash functions, a `trusted` byte other than 0
    /// or 1) — foreign or hand-edited bytes, rejected rather than
    /// guessed at.
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record body truncated"),
            CodecError::Trailing => write!(f, "record body has trailing bytes"),
            CodecError::Malformed => write!(f, "record body carries an unencodable value"),
        }
    }
}

impl std::error::Error for CodecError {}

// ── varint / zigzag primitives ─────────────────────────────────────────

#[cfg(test)]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Varint into a stack scratch at `pos` (hot path: the per-VD delta
/// frame assembles in a fixed array and lands in the output with one
/// `extend_from_slice`, instead of ~10 bounds-checked `Vec` pushes).
#[inline]
fn put_varint_at(buf: &mut [u8], pos: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*pos] = (v as u8) | 0x80;
        *pos += 1;
        v >>= 7;
    }
    buf[*pos] = v as u8;
    *pos += 1;
}

/// Upper bound of one delta frame: shape byte + 10 varints (≤ 10 B
/// each) + 16 B hash.
const DELTA_FRAME_MAX: usize = 128;

// Shape-byte bits: a set bit means the field is explicitly present in
// the frame; clear means its predictor holds. Predictors are what every
// honest per-second cascade produces — `seq`/`time` advance by one,
// `flags`/`initial_loc`/`vp_id` repeat, and the video byte rate is
// steady so the `file_size` delta repeats too — which makes the typical
// frame one shape byte, two coordinate xors, a hash, and **zero**
// varints for the other seven fields. That's both smaller and ~3×
// fewer varint loops than encoding every field unconditionally (the
// group-commit encode pass is varint-bound at city-scale batches).
const EXPLICIT_SEQ: u8 = 1 << 0;
const EXPLICIT_FLAGS: u8 = 1 << 1;
const EXPLICIT_TIME: u8 = 1 << 2;
const EXPLICIT_FSIZE: u8 = 1 << 3;
const EXPLICIT_INITIAL: u8 = 1 << 4;
const EXPLICIT_VPID: u8 = 1 << 5;

/// Coordinate predictor: linear extrapolation from the two previous
/// samples (`2·prev − prev2`) — a vehicle at steady speed lands within
/// rounding of it, so the xor against the true bits keeps only a few
/// low mantissa bits and varint-encodes in 2–4 bytes instead of 6–7 for
/// a plain prev-xor. Restricted to finite inputs (falling back to the
/// previous sample's bits) so the prediction is plain IEEE-754
/// add/mul, bit-deterministic on every platform — NaN-payload
/// propagation is the one fp behavior that may differ across ISAs, and
/// a cross-arch log replay must reproduce the exact bits.
#[inline]
fn predict_coord(prev: f64, prev2: f64) -> u64 {
    if prev.is_finite() && prev2.is_finite() {
        (2.0 * prev - prev2).to_bits()
    } else {
        prev.to_bits()
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
        *buf = rest;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    // 10 continuation bytes would shift past 63 — framing corruption.
    Err(CodecError::Truncated)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

// ── record encode ──────────────────────────────────────────────────────

/// Append the record body for `vp` to `out` (the segment layer frames
/// it with length + checksum). Reuses `out`'s allocation across calls —
/// the group-commit path encodes a whole batch into one buffer.
pub fn encode_record(vp: &StoredVp, out: &mut Vec<u8>) {
    assert!(vp.vds.len() <= u16::MAX as usize, "VD count exceeds u16");
    let bloom_bytes = vp.bloom.as_bytes();
    assert!(bloom_bytes.len() <= u16::MAX as usize, "bloom exceeds u16");
    assert!(vp.bloom.k() <= u8::MAX as usize, "bloom k exceeds u8");

    out.extend_from_slice(vp.id.0.as_bytes());
    out.push(vp.trusted as u8);
    out.extend_from_slice(&(vp.vds.len() as u16).to_le_bytes());
    out.push(vp.bloom.k() as u8);
    out.extend_from_slice(&(bloom_bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bloom_bytes);

    let Some(first) = vp.vds.first() else {
        return;
    };
    out.extend_from_slice(&first.encode_store());
    // Delta frames assemble in a stack chunk flushed to `out` every few
    // KB: one memcpy per ~30 VDs instead of one `Vec` append per VD —
    // this loop is the group-commit path's hot spot at city-scale
    // batches, so the byte plumbing stays off the heap.
    let mut chunk = [0u8; 4096];
    let mut p = 0usize;
    // Predicted file-size delta: the previous frame's delta (0 before
    // any delta frame exists). Wrapping i64 arithmetic so arbitrary u64
    // file sizes round-trip.
    let mut fs_delta_pred = 0i64;
    let mut prev2_loc = first.loc;
    for w in vp.vds.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        if p + DELTA_FRAME_MAX > chunk.len() {
            out.extend_from_slice(&chunk[..p]);
            p = 0;
        }
        let shape_at = p;
        p += 1; // shape byte, patched once the frame's fields are known
        let mut shape = 0u8;
        if cur.seq != prev.seq.wrapping_add(1) {
            shape |= EXPLICIT_SEQ;
            put_varint_at(
                &mut chunk,
                &mut p,
                zigzag(cur.seq.wrapping_sub(prev.seq) as i16 as i64),
            );
        }
        if cur.flags != prev.flags {
            shape |= EXPLICIT_FLAGS;
            put_varint_at(&mut chunk, &mut p, cur.flags as u64);
        }
        if cur.time != prev.time.wrapping_add(1) {
            shape |= EXPLICIT_TIME;
            put_varint_at(
                &mut chunk,
                &mut p,
                zigzag(cur.time.wrapping_sub(prev.time) as i64),
            );
        }
        let fs_delta = cur.file_size.wrapping_sub(prev.file_size) as i64;
        if fs_delta != fs_delta_pred {
            shape |= EXPLICIT_FSIZE;
            put_varint_at(
                &mut chunk,
                &mut p,
                zigzag(fs_delta.wrapping_sub(fs_delta_pred)),
            );
        }
        fs_delta_pred = fs_delta;
        put_varint_at(
            &mut chunk,
            &mut p,
            cur.loc.x.to_bits() ^ predict_coord(prev.loc.x, prev2_loc.x),
        );
        put_varint_at(
            &mut chunk,
            &mut p,
            cur.loc.y.to_bits() ^ predict_coord(prev.loc.y, prev2_loc.y),
        );
        prev2_loc = prev.loc;
        let inix = cur.initial_loc.x.to_bits() ^ prev.initial_loc.x.to_bits();
        let iniy = cur.initial_loc.y.to_bits() ^ prev.initial_loc.y.to_bits();
        if inix != 0 || iniy != 0 {
            shape |= EXPLICIT_INITIAL;
            put_varint_at(&mut chunk, &mut p, inix);
            put_varint_at(&mut chunk, &mut p, iniy);
        }
        if cur.vp_id != prev.vp_id {
            shape |= EXPLICIT_VPID;
            put_varint_at(
                &mut chunk,
                &mut p,
                cur.vp_id.0.low_u64() ^ prev.vp_id.0.low_u64(),
            );
            put_varint_at(
                &mut chunk,
                &mut p,
                cur.vp_id.0.high_u64() ^ prev.vp_id.0.high_u64(),
            );
        }
        chunk[shape_at] = shape;
        chunk[p..p + 16].copy_from_slice(cur.hash.as_bytes());
        p += 16;
    }
    out.extend_from_slice(&chunk[..p]);
}

/// Conservative per-record byte estimate for pre-reserving a
/// group-commit buffer (typical honest records land well under it).
pub fn encoded_size_hint(vp: &StoredVp) -> usize {
    22 + vp.bloom.as_bytes().len() + VD_STORE_BYTES + vp.vds.len().saturating_sub(1) * 40
}

// ── record decode ──────────────────────────────────────────────────────

fn digest16_from_halves(lo: u64, hi: u64) -> Digest16 {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&lo.to_le_bytes());
    b[8..].copy_from_slice(&hi.to_le_bytes());
    Digest16(b)
}

/// Decode one record body back into a [`StoredVp`]. Total: truncated or
/// over-long bodies return a [`CodecError`].
pub fn decode_record(body: &[u8]) -> Result<StoredVp, CodecError> {
    let mut buf = body;
    let mut id16 = [0u8; 16];
    id16.copy_from_slice(take(&mut buf, 16)?);
    let id = VpId(Digest16(id16));
    let trusted = match take(&mut buf, 1)?[0] {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Malformed),
    };
    let n_vds = u16::from_le_bytes(take(&mut buf, 2)?.try_into().expect("2 bytes")) as usize;
    let bloom_k = take(&mut buf, 1)?[0] as usize;
    let bloom_len = u16::from_le_bytes(take(&mut buf, 2)?.try_into().expect("2 bytes")) as usize;
    // The encoder only ever writes filters `BloomFilter` can represent
    // (≥ 1 byte, ≥ 1 hash); anything else would panic inside
    // `from_bytes`, and decode must stay total — reject it instead.
    if bloom_len == 0 || bloom_k == 0 {
        return Err(CodecError::Malformed);
    }
    let bloom = BloomFilter::from_bytes(take(&mut buf, bloom_len)?.to_vec(), bloom_k);

    let mut vds: Vec<ViewDigest> = Vec::with_capacity(n_vds);
    if n_vds > 0 {
        let first = ViewDigest::decode_store(take(&mut buf, VD_STORE_BYTES)?)
            .expect("exact-length slice decodes");
        vds.push(first);
        let mut fs_delta_pred = 0i64;
        let mut prev2_loc = vds[0].loc;
        for _ in 1..n_vds {
            let prev = *vds.last().expect("nonempty");
            let shape = take(&mut buf, 1)?[0];
            let seq = if shape & EXPLICIT_SEQ != 0 {
                prev.seq
                    .wrapping_add(unzigzag(get_varint(&mut buf)?) as u16)
            } else {
                prev.seq.wrapping_add(1)
            };
            let flags = if shape & EXPLICIT_FLAGS != 0 {
                get_varint(&mut buf)? as u16
            } else {
                prev.flags
            };
            let time = if shape & EXPLICIT_TIME != 0 {
                prev.time
                    .wrapping_add(unzigzag(get_varint(&mut buf)?) as u64)
            } else {
                prev.time.wrapping_add(1)
            };
            let fs_delta = if shape & EXPLICIT_FSIZE != 0 {
                fs_delta_pred.wrapping_add(unzigzag(get_varint(&mut buf)?))
            } else {
                fs_delta_pred
            };
            fs_delta_pred = fs_delta;
            let file_size = prev.file_size.wrapping_add(fs_delta as u64);
            let x = f64::from_bits(predict_coord(prev.loc.x, prev2_loc.x) ^ get_varint(&mut buf)?);
            let y = f64::from_bits(predict_coord(prev.loc.y, prev2_loc.y) ^ get_varint(&mut buf)?);
            prev2_loc = prev.loc;
            let (ix, iy) = if shape & EXPLICIT_INITIAL != 0 {
                (
                    f64::from_bits(prev.initial_loc.x.to_bits() ^ get_varint(&mut buf)?),
                    f64::from_bits(prev.initial_loc.y.to_bits() ^ get_varint(&mut buf)?),
                )
            } else {
                (prev.initial_loc.x, prev.initial_loc.y)
            };
            let vp_id = if shape & EXPLICIT_VPID != 0 {
                VpId(digest16_from_halves(
                    prev.vp_id.0.low_u64() ^ get_varint(&mut buf)?,
                    prev.vp_id.0.high_u64() ^ get_varint(&mut buf)?,
                ))
            } else {
                prev.vp_id
            };
            let mut h16 = [0u8; 16];
            h16.copy_from_slice(take(&mut buf, 16)?);
            vds.push(ViewDigest {
                seq,
                flags,
                time,
                loc: viewmap_core::types::GeoPos::new(x, y),
                file_size,
                initial_loc: viewmap_core::types::GeoPos::new(ix, iy),
                vp_id,
                hash: Digest16(h16),
            });
        }
    }
    if !buf.is_empty() {
        return Err(CodecError::Trailing);
    }
    Ok(StoredVp::new(id, vds, bloom, trusted))
}

/// Bit-exact VP equality (PartialEq on f64 can't see NaN payloads).
/// Shared by the codec, segment, and crash-recovery test suites.
#[cfg(test)]
pub(crate) fn assert_vp_bit_identical(a: &StoredVp, b: &StoredVp, ctx: &str) {
    tests::assert_vp_bit_identical_impl(a, b, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use viewmap_core::types::GeoPos;

    pub(crate) fn assert_vp_bit_identical_impl(a: &StoredVp, b: &StoredVp, ctx: &str) {
        assert_eq!(a.id, b.id, "{ctx}: id");
        assert_eq!(a.trusted, b.trusted, "{ctx}: trusted");
        assert_eq!(a.bloom.as_bytes(), b.bloom.as_bytes(), "{ctx}: bloom");
        assert_eq!(a.bloom.k(), b.bloom.k(), "{ctx}: bloom k");
        assert_eq!(a.vds.len(), b.vds.len(), "{ctx}: vd count");
        for (i, (x, y)) in a.vds.iter().zip(&b.vds).enumerate() {
            assert_eq!(x.seq, y.seq, "{ctx}: vd {i} seq");
            assert_eq!(x.flags, y.flags, "{ctx}: vd {i} flags");
            assert_eq!(x.time, y.time, "{ctx}: vd {i} time");
            assert_eq!(x.file_size, y.file_size, "{ctx}: vd {i} file_size");
            assert_eq!(x.vp_id, y.vp_id, "{ctx}: vd {i} vp_id");
            assert_eq!(x.hash, y.hash, "{ctx}: vd {i} hash");
            for (fa, fb, name) in [
                (x.loc.x, y.loc.x, "loc.x"),
                (x.loc.y, y.loc.y, "loc.y"),
                (x.initial_loc.x, y.initial_loc.x, "initial_loc.x"),
                (x.initial_loc.y, y.initial_loc.y, "initial_loc.y"),
            ] {
                assert_eq!(fa.to_bits(), fb.to_bits(), "{ctx}: vd {i} {name}");
            }
        }
    }

    fn roundtrip(vp: &StoredVp, ctx: &str) -> usize {
        let mut body = Vec::new();
        encode_record(vp, &mut body);
        let back = decode_record(&body).unwrap_or_else(|e| panic!("{ctx}: decode: {e}"));
        assert_vp_bit_identical_impl(vp, &back, ctx);
        body.len()
    }

    fn realistic_vp(seed: u64) -> StoredVp {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (fa, _) = viewmap_core::vp::exchange_minute(
            &mut rng,
            (seed % 7) * 60,
            move |s| GeoPos::new(s as f64 * 9.7 + seed as f64, 0.3 * s as f64),
            move |s| GeoPos::new(s as f64 * 9.7 + seed as f64, 40.0 + 0.3 * s as f64),
        );
        fa.profile.into_stored()
    }

    #[test]
    fn realistic_records_roundtrip_and_compress() {
        for seed in 0..8u64 {
            let vp = realistic_vp(seed);
            let bytes = roundtrip(&vp, &format!("seed {seed}"));
            let flat = 16 + 1 + 2 + 1 + 2 + vp.bloom.as_bytes().len() + vp.vds.len() * 84;
            assert!(
                bytes < flat / 2 + 100,
                "seed {seed}: delta record {bytes} B vs flat {flat} B"
            );
        }
    }

    #[test]
    fn trusted_flag_and_empty_trajectory_roundtrip() {
        let mut vp = realistic_vp(99);
        vp.trusted = true;
        roundtrip(&vp, "trusted");
        let empty = StoredVp::new(vp.id, Vec::new(), BloomFilter::default(), false);
        roundtrip(&empty, "no VDs");
    }

    #[test]
    fn every_strict_prefix_fails_to_decode() {
        // The torn-tail scan hands the codec truncated bodies; every one
        // must come back Err (no panic, no partial VP).
        let vp = realistic_vp(7);
        let mut body = Vec::new();
        encode_record(&vp, &mut body);
        for cut in 0..body.len() {
            assert!(
                decode_record(&body[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = body.clone();
        long.push(0);
        assert_eq!(decode_record(&long).err(), Some(CodecError::Trailing));
    }

    #[test]
    fn unencodable_bloom_shapes_are_rejected_not_panicked() {
        // decode must stay total for foreign bytes: an empty filter or
        // k = 0 can never come from encode_record (BloomFilter asserts
        // both), so a checksum-valid body carrying them is Malformed.
        let make = |k: u8, bloom_len: u16| {
            let mut body = vec![0u8; 16]; // vp_id
            body.push(0); // trusted
            body.extend_from_slice(&0u16.to_le_bytes()); // n_vds
            body.push(k);
            body.extend_from_slice(&bloom_len.to_le_bytes());
            body.extend_from_slice(&vec![0xAB; bloom_len as usize]);
            body
        };
        assert_eq!(
            decode_record(&make(0, 4)).err(),
            Some(CodecError::Malformed)
        );
        assert_eq!(
            decode_record(&make(8, 0)).err(),
            Some(CodecError::Malformed)
        );
        assert!(decode_record(&make(8, 4)).is_ok());
    }

    #[test]
    fn trusted_byte_is_a_bool() {
        // The encoder writes 0 or 1; any other byte is foreign.
        let mut body = Vec::new();
        encode_record(&realistic_vp(3), &mut body);
        for (byte, trusted) in [(0u8, Some(false)), (1, Some(true)), (2, None), (0xff, None)] {
            body[16] = byte;
            match trusted {
                Some(t) => assert_eq!(decode_record(&body).unwrap().trusted, t),
                None => assert_eq!(decode_record(&body).err(), Some(CodecError::Malformed)),
            }
        }
    }

    #[test]
    fn varint_extremes_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut buf = out.as_slice();
            assert_eq!(get_varint(&mut buf), Ok(v));
            assert!(buf.is_empty());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // An 11-byte continuation run is corruption, not a value.
        let mut buf: &[u8] = &[0x80u8; 11];
        assert_eq!(get_varint(&mut buf), Err(CodecError::Truncated));
    }

    proptest! {
        /// The exhaustive roundtrip property: arbitrary bit patterns in
        /// every field — discontinuous timestamps, wrapping file sizes,
        /// NaN/infinity coordinates, per-VD vp_ids that differ from the
        /// record id, odd bloom shapes — must survive bit-exactly.
        #[test]
        fn arbitrary_records_roundtrip_bit_exactly(
            id in any::<[u8; 16]>(),
            trusted in any::<bool>(),
            n_vds in 0usize..70,
            field_seed in any::<u64>(),
            bloom_k in 1usize..16,
            bloom_len in 1usize..64,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(field_seed);
            let bloom_bytes: Vec<u8> = (0..bloom_len).map(|_| rng.gen()).collect();
            let vds: Vec<ViewDigest> = (0..n_vds)
                .map(|_| ViewDigest {
                    seq: rng.gen(),
                    flags: rng.gen(),
                    time: rng.gen(),
                    loc: GeoPos::new(
                        f64::from_bits(rng.gen()),
                        f64::from_bits(rng.gen()),
                    ),
                    file_size: rng.gen(),
                    initial_loc: GeoPos::new(
                        f64::from_bits(rng.gen()),
                        f64::from_bits(rng.gen()),
                    ),
                    vp_id: VpId(Digest16(rng.gen())),
                    hash: Digest16(rng.gen()),
                })
                .collect();
            let vp = StoredVp::new(
                VpId(Digest16(id)),
                vds,
                BloomFilter::from_bytes(bloom_bytes, bloom_k),
                trusted,
            );
            roundtrip(&vp, "arbitrary record");
        }

        /// Smooth trajectories (the honest-vehicle shape) must beat the
        /// flat encoding by a wide margin — the whole point of the
        /// delta layer.
        #[test]
        fn smooth_trajectories_stay_compact(
            seed in any::<u64>(),
            speed in 1.0f64..40.0,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let id = VpId(Digest16(rng.gen()));
            let x0: f64 = rng.gen_range(-1.0e5..1.0e5);
            let y0: f64 = rng.gen_range(-1.0e5..1.0e5);
            let vds: Vec<ViewDigest> = (1..=60u16)
                .map(|s| ViewDigest {
                    seq: s,
                    flags: 0,
                    time: 1000 + s as u64,
                    loc: GeoPos::new(x0 + speed * s as f64, y0 + 0.5 * speed * s as f64),
                    file_size: s as u64 * 875 * 1024,
                    initial_loc: GeoPos::new(x0, y0),
                    vp_id: id,
                    hash: Digest16(rng.gen()),
                })
                .collect();
            let vp = StoredVp::new(id, vds, BloomFilter::default(), false);
            let bytes = roundtrip(&vp, "smooth trajectory");
            prop_assert!(bytes < 3000, "smooth 60-VD record took {bytes} B");
        }
    }
}
