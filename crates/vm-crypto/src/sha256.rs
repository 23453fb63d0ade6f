//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Supports both one-shot hashing ([`sha256`]) and incremental hashing
//! ([`Sha256`]), which ViewMap's cascaded view-digest chain relies on: each
//! second only the newly recorded video chunk is fed into the hash, so the
//! per-second digest cost is constant regardless of total file size
//! (Section 6.1, Fig. 8 of the paper).
//!
//! # Hardware acceleration
//!
//! On x86-64 CPUs with the SHA extensions (`sha_ni`), the compression
//! function runs on `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2` — roughly a
//! 5–7× throughput gain over the scalar rounds. The feature is detected at
//! runtime (first compression), so the same binary runs everywhere; the
//! scalar implementation is the reference and the fallback. Both paths
//! compute the identical FIPS function — the property tests drive random
//! state/block pairs through each and require bit-for-bit equal output —
//! so digests never depend on which path executed. This is the hot
//! primitive behind vehicle-side VD recording and the per-member Bloom-key
//! precomputation in viewmap construction.
//!
//! # Multi-buffer hashing
//!
//! SHA-256 is a serial chain per message — each compression depends on
//! the previous one — so a single stream can never fill the execution
//! ports: the SHA-NI round instruction has multi-cycle latency, and the
//! scalar rounds serialize on the working variables. [`sha256_many`]
//! hashes *independent* messages in interleaved lanes instead: two blocks
//! per step on the SHA-NI path (hiding `SHA256RNDS2` latency behind the
//! sibling lane), four on the scalar path (the per-lane `u32` round ops
//! become 4-wide SIMD under autovectorization). Lanes are double-buffered:
//! the moment one message finishes its digest, the lane reloads with the
//! next message, so unequal lengths never drain the pipeline. Every lane
//! computes the same FIPS function as [`sha256`]; the property tests pin
//! `sha256_many` to the single-stream oracle across lane counts, unequal
//! message lengths, and the padding-boundary sizes.
//!
//! Setting the `VM_CRYPTO_DISABLE_SHANI` environment variable (any value)
//! before the first hash forces the scalar paths — CI uses it to keep the
//! scalar multi-buffer code covered on SHA-NI hosts.

/// A full 256-bit SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest32(pub [u8; 32]);

impl std::fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest32(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl Digest32 {
    /// Hex encoding of the digest (lowercase, 64 chars).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use vm_crypto::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish hashing and return the digest. Consumes the hasher.
    ///
    /// The padding (0x80, zeros, 64-bit big-endian bit length) is
    /// assembled directly into the final block(s) — one compression when
    /// the residue leaves room for the length field, two otherwise —
    /// rather than fed through the buffer a byte at a time; `finalize` is
    /// on the per-VD path of Bloom-key precomputation.
    pub fn finalize(mut self) -> Digest32 {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len < 56 {
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
            self.compress(&block);
        } else {
            self.compress(&block);
            let mut last = [0u8; 64];
            last[56..].copy_from_slice(&bit_len.to_be_bytes());
            self.compress(&last);
        }
        digest_from_state(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_dispatch(&mut self.state, block);
    }
}

/// Big-endian serialization of a finished compression state.
fn digest_from_state(state: &[u32; 8]) -> Digest32 {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
    }
    Digest32(out)
}

/// The scalar (reference) compression function: one 64-byte block folded
/// into `state`.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The x86-64 SHA-extensions fast path.
///
/// This is the one corner of the workspace that uses `unsafe`: the SHA-NI
/// intrinsics have no safe wrapper in `core::arch`. The unsafety is
/// contained to exactly one function whose preconditions are (a) the CPU
/// supports `sha`/`ssse3`/`sse4.1` — enforced by the runtime detection
/// gate in [`compress`](self::shani::compress) — and (b) the pointer
/// arguments are valid, which the `&mut [u32; 8]` / `&[u8; 64]` references
/// guarantee. It computes the same FIPS 180-4 function as
/// [`compress_scalar`]; the test suite drives random state/block pairs
/// through both and requires identical output.
#[cfg(target_arch = "x86_64")]
mod shani {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = unprobed, 1 = unavailable, 2 = available.
    static AVAILABLE: AtomicU8 = AtomicU8::new(0);

    /// True iff the CPU has the SHA extensions (probed once, cached).
    ///
    /// The `VM_CRYPTO_DISABLE_SHANI` environment variable (any value,
    /// read at the first probe) forces `false`, so CI can exercise the
    /// scalar single- and multi-buffer paths on SHA-NI hardware.
    pub fn available() -> bool {
        match AVAILABLE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::env::var_os("VM_CRYPTO_DISABLE_SHANI").is_none()
                    && std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                AVAILABLE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// Run one block through the hardware compression if the CPU supports
    /// it; returns false (without touching `state`) when it does not.
    #[inline]
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: the feature gate above proved sha/ssse3/sse4.1 support.
        unsafe { compress_ni(state, block) };
        true
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_ni(state: &mut [u32; 8], block: &[u8; 64]) {
        use std::arch::x86_64::*;

        // Working-state layout for SHA256RNDS2: ABEF and CDGH quadwords.
        let tmp = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let state1_raw = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let state1_raw = _mm_shuffle_epi32(state1_raw, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, state1_raw, 8); // ABEF
        let mut state1 = _mm_blend_epi16(state1_raw, tmp, 0xF0); // CDGH
        let abef_save = state0;
        let cdgh_save = state1;

        // Big-endian word loads.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let p = block.as_ptr() as *const __m128i;
        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

        let k = |i: usize| {
            _mm_set_epi32(
                super::K[i + 3] as i32,
                super::K[i + 2] as i32,
                super::K[i + 1] as i32,
                super::K[i] as i32,
            )
        };
        // Two rounds per SHA256RNDS2: the low quadword of `msg` carries
        // w[t]+K[t], w[t+1]+K[t+1]; the swapped call consumes the high pair.
        macro_rules! quad {
            ($m:expr, $ki:expr) => {{
                let msg = _mm_add_epi32($m, k($ki));
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                let msg_hi = _mm_shuffle_epi32(msg, 0x0E);
                state0 = _mm_sha256rnds2_epu32(state0, state1, msg_hi);
            }};
        }
        // Message schedule: `ext!` finishes extending `next` from the
        // just-consumed quadword `cur` — the cross-lane w[t-7] addend is
        // spliced in through ALIGNR, then SHA256MSG2 applies the σ1 part;
        // `m1!` starts the σ0 part for a quadword two steps ahead.
        macro_rules! ext {
            ($next:ident, $cur:ident, $prev:ident) => {{
                let tmp = _mm_alignr_epi8($cur, $prev, 4);
                $next = _mm_add_epi32($next, tmp);
                $next = _mm_sha256msg2_epu32($next, $cur);
            }};
        }
        macro_rules! m1 {
            ($x:ident, $y:ident) => {
                $x = _mm_sha256msg1_epu32($x, $y)
            };
        }

        quad!(msg0, 0);
        quad!(msg1, 4);
        m1!(msg0, msg1);
        quad!(msg2, 8);
        m1!(msg1, msg2);
        quad!(msg3, 12);
        ext!(msg0, msg3, msg2);
        m1!(msg2, msg3);
        quad!(msg0, 16);
        ext!(msg1, msg0, msg3);
        m1!(msg3, msg0);
        quad!(msg1, 20);
        ext!(msg2, msg1, msg0);
        m1!(msg0, msg1);
        quad!(msg2, 24);
        ext!(msg3, msg2, msg1);
        m1!(msg1, msg2);
        quad!(msg3, 28);
        ext!(msg0, msg3, msg2);
        m1!(msg2, msg3);
        quad!(msg0, 32);
        ext!(msg1, msg0, msg3);
        m1!(msg3, msg0);
        quad!(msg1, 36);
        ext!(msg2, msg1, msg0);
        m1!(msg0, msg1);
        quad!(msg2, 40);
        ext!(msg3, msg2, msg1);
        m1!(msg1, msg2);
        quad!(msg3, 44);
        ext!(msg0, msg3, msg2);
        m1!(msg2, msg3);
        quad!(msg0, 48);
        ext!(msg1, msg0, msg3);
        m1!(msg3, msg0);
        quad!(msg1, 52);
        ext!(msg2, msg1, msg0);
        quad!(msg2, 56);
        ext!(msg3, msg2, msg1);
        quad!(msg3, 60);

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);

        // ABEF/CDGH back to row order a..h.
        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let state1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let out0 = _mm_blend_epi16(tmp, state1, 0xF0); // DCBA
        let out1 = _mm_alignr_epi8(state1, tmp, 8); // HGFE
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, out0);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, out1);
    }

    /// Two independent blocks through the hardware compression at once,
    /// if the CPU supports it; returns false (touching neither state)
    /// when it does not.
    ///
    /// `SHA256RNDS2` has multi-cycle latency but single-cycle-class
    /// throughput, and one message's rounds form a dependency chain — so
    /// a single stream leaves the SHA unit half idle. Interleaving two
    /// *independent* streams fills those latency bubbles; this is the
    /// kernel behind [`super::sha256_many`]'s double-buffered dispatch.
    #[inline]
    pub fn compress2(sa: &mut [u32; 8], ba: &[u8; 64], sb: &mut [u32; 8], bb: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: the feature gate above proved sha/ssse3/sse4.1 support.
        unsafe { compress_ni_x2(sa, ba, sb, bb) };
        true
    }

    /// The interleaved two-stream body: lane A and lane B run the exact
    /// round/schedule sequence of [`compress_ni`], instruction-pairwise
    /// interleaved. Same SAFETY argument as `compress_ni`: feature gate in
    /// [`compress2`], pointer validity from the references.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_ni_x2(sa: &mut [u32; 8], ba: &[u8; 64], sb: &mut [u32; 8], bb: &[u8; 64]) {
        use std::arch::x86_64::*;

        // Working-state layout for SHA256RNDS2 (ABEF/CDGH), lane A.
        let t = _mm_loadu_si128(sa.as_ptr() as *const __m128i);
        let s1r = _mm_loadu_si128(sa.as_ptr().add(4) as *const __m128i);
        let t = _mm_shuffle_epi32(t, 0xB1);
        let s1r = _mm_shuffle_epi32(s1r, 0x1B);
        let mut a0 = _mm_alignr_epi8(t, s1r, 8);
        let mut a1 = _mm_blend_epi16(s1r, t, 0xF0);
        let (a0_save, a1_save) = (a0, a1);
        // Lane B.
        let t = _mm_loadu_si128(sb.as_ptr() as *const __m128i);
        let s1r = _mm_loadu_si128(sb.as_ptr().add(4) as *const __m128i);
        let t = _mm_shuffle_epi32(t, 0xB1);
        let s1r = _mm_shuffle_epi32(s1r, 0x1B);
        let mut b0 = _mm_alignr_epi8(t, s1r, 8);
        let mut b1 = _mm_blend_epi16(s1r, t, 0xF0);
        let (b0_save, b1_save) = (b0, b1);

        // Big-endian word loads for both message blocks.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);
        let pa = ba.as_ptr() as *const __m128i;
        let mut am0 = _mm_shuffle_epi8(_mm_loadu_si128(pa), mask);
        let mut am1 = _mm_shuffle_epi8(_mm_loadu_si128(pa.add(1)), mask);
        let mut am2 = _mm_shuffle_epi8(_mm_loadu_si128(pa.add(2)), mask);
        let mut am3 = _mm_shuffle_epi8(_mm_loadu_si128(pa.add(3)), mask);
        let pb = bb.as_ptr() as *const __m128i;
        let mut bm0 = _mm_shuffle_epi8(_mm_loadu_si128(pb), mask);
        let mut bm1 = _mm_shuffle_epi8(_mm_loadu_si128(pb.add(1)), mask);
        let mut bm2 = _mm_shuffle_epi8(_mm_loadu_si128(pb.add(2)), mask);
        let mut bm3 = _mm_shuffle_epi8(_mm_loadu_si128(pb.add(3)), mask);

        let k = |i: usize| {
            _mm_set_epi32(
                super::K[i + 3] as i32,
                super::K[i + 2] as i32,
                super::K[i + 1] as i32,
                super::K[i] as i32,
            )
        };
        // Four rounds on both lanes: the two chains are independent, so
        // lane B's SHA256RNDS2 issues into lane A's latency shadow.
        macro_rules! quad2 {
            ($ma:expr, $mb:expr, $ki:expr) => {{
                let kv = k($ki);
                let ma = _mm_add_epi32($ma, kv);
                let mb = _mm_add_epi32($mb, kv);
                a1 = _mm_sha256rnds2_epu32(a1, a0, ma);
                b1 = _mm_sha256rnds2_epu32(b1, b0, mb);
                let ma_hi = _mm_shuffle_epi32(ma, 0x0E);
                let mb_hi = _mm_shuffle_epi32(mb, 0x0E);
                a0 = _mm_sha256rnds2_epu32(a0, a1, ma_hi);
                b0 = _mm_sha256rnds2_epu32(b0, b1, mb_hi);
            }};
        }
        // Message-schedule extension, both lanes (see `ext!`/`m1!` in the
        // single-stream body for the schedule structure).
        macro_rules! ext2 {
            ($na:ident, $ca:ident, $pa:ident, $nb:ident, $cb:ident, $pb:ident) => {{
                let ta = _mm_alignr_epi8($ca, $pa, 4);
                $na = _mm_add_epi32($na, ta);
                $na = _mm_sha256msg2_epu32($na, $ca);
                let tb = _mm_alignr_epi8($cb, $pb, 4);
                $nb = _mm_add_epi32($nb, tb);
                $nb = _mm_sha256msg2_epu32($nb, $cb);
            }};
        }
        macro_rules! m1x2 {
            ($xa:ident, $ya:ident, $xb:ident, $yb:ident) => {{
                $xa = _mm_sha256msg1_epu32($xa, $ya);
                $xb = _mm_sha256msg1_epu32($xb, $yb);
            }};
        }

        quad2!(am0, bm0, 0);
        quad2!(am1, bm1, 4);
        m1x2!(am0, am1, bm0, bm1);
        quad2!(am2, bm2, 8);
        m1x2!(am1, am2, bm1, bm2);
        quad2!(am3, bm3, 12);
        ext2!(am0, am3, am2, bm0, bm3, bm2);
        m1x2!(am2, am3, bm2, bm3);
        quad2!(am0, bm0, 16);
        ext2!(am1, am0, am3, bm1, bm0, bm3);
        m1x2!(am3, am0, bm3, bm0);
        quad2!(am1, bm1, 20);
        ext2!(am2, am1, am0, bm2, bm1, bm0);
        m1x2!(am0, am1, bm0, bm1);
        quad2!(am2, bm2, 24);
        ext2!(am3, am2, am1, bm3, bm2, bm1);
        m1x2!(am1, am2, bm1, bm2);
        quad2!(am3, bm3, 28);
        ext2!(am0, am3, am2, bm0, bm3, bm2);
        m1x2!(am2, am3, bm2, bm3);
        quad2!(am0, bm0, 32);
        ext2!(am1, am0, am3, bm1, bm0, bm3);
        m1x2!(am3, am0, bm3, bm0);
        quad2!(am1, bm1, 36);
        ext2!(am2, am1, am0, bm2, bm1, bm0);
        m1x2!(am0, am1, bm0, bm1);
        quad2!(am2, bm2, 40);
        ext2!(am3, am2, am1, bm3, bm2, bm1);
        m1x2!(am1, am2, bm1, bm2);
        quad2!(am3, bm3, 44);
        ext2!(am0, am3, am2, bm0, bm3, bm2);
        m1x2!(am2, am3, bm2, bm3);
        quad2!(am0, bm0, 48);
        ext2!(am1, am0, am3, bm1, bm0, bm3);
        m1x2!(am3, am0, bm3, bm0);
        quad2!(am1, bm1, 52);
        ext2!(am2, am1, am0, bm2, bm1, bm0);
        quad2!(am2, bm2, 56);
        ext2!(am3, am2, am1, bm3, bm2, bm1);
        quad2!(am3, bm3, 60);

        a0 = _mm_add_epi32(a0, a0_save);
        a1 = _mm_add_epi32(a1, a1_save);
        b0 = _mm_add_epi32(b0, b0_save);
        b1 = _mm_add_epi32(b1, b1_save);

        // ABEF/CDGH back to row order a..h, both lanes.
        let t = _mm_shuffle_epi32(a0, 0x1B);
        let a1 = _mm_shuffle_epi32(a1, 0xB1);
        _mm_storeu_si128(
            sa.as_mut_ptr() as *mut __m128i,
            _mm_blend_epi16(t, a1, 0xF0),
        );
        _mm_storeu_si128(
            sa.as_mut_ptr().add(4) as *mut __m128i,
            _mm_alignr_epi8(a1, t, 8),
        );
        let t = _mm_shuffle_epi32(b0, 0x1B);
        let b1 = _mm_shuffle_epi32(b1, 0xB1);
        _mm_storeu_si128(
            sb.as_mut_ptr() as *mut __m128i,
            _mm_blend_epi16(t, b1, 0xF0),
        );
        _mm_storeu_si128(
            sb.as_mut_ptr().add(4) as *mut __m128i,
            _mm_alignr_epi8(b1, t, 8),
        );
    }
}

/// One-shot SHA-256 of a byte slice.
///
/// Short inputs (≤ 119 bytes — at most two blocks once padded, which
/// covers every ViewMap wire structure: 72-byte VDs, 32-byte cash
/// messages, 8-byte secrets) skip the incremental hasher entirely: the
/// padded block(s) are assembled on the stack and compressed directly.
/// Longer inputs stream as before.
pub fn sha256(data: &[u8]) -> Digest32 {
    if data.len() < 120 {
        let mut state = H0;
        let mut blocks = [0u8; 128];
        blocks[..data.len()].copy_from_slice(data);
        blocks[data.len()] = 0x80;
        let two = data.len() >= 56;
        let end = if two { 128 } else { 64 };
        blocks[end - 8..end].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let (first, second) = blocks.split_at(64);
        compress_dispatch(&mut state, first.try_into().expect("64-byte block"));
        if two {
            compress_dispatch(&mut state, second.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        return Digest32(out);
    }
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hardware compression when available, scalar otherwise.
fn compress_dispatch(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, block) {
        return;
    }
    compress_scalar(state, block);
}

// ── Multi-buffer hashing ────────────────────────────────────────────────

/// Scalar lane count for [`sha256_many`]: four independent schedules and
/// round chains, expressed as `[u32; 4]` lanes so the per-lane ops
/// autovectorize to 128-bit SIMD (and fill scalar ports elsewhere).
const SCALAR_LANES: usize = 4;

/// Four independent blocks through the scalar compression with
/// interleaved message schedules.
///
/// The W-expansion (σ0/σ1 shifts, rotates, adds — no cross-lane data
/// flow, no serial chain) runs across all four lanes in `[u32; 4]` rows,
/// which the compiler turns into 128-bit vector ops. The 64 rounds, whose
/// a..h dependency chain defeats vectorization (and whose 4-lane
/// interleaving spills 32 live `u32`s out of the 16 GP registers —
/// measured slower than sequential), then run one lane at a time with
/// the schedule read back per lane, plus `w[i] + K[i]` already folded in.
/// Per lane this computes bit-for-bit [`compress_scalar`].
fn compress_scalar_x4(states: &mut [[u32; 8]; SCALAR_LANES], blocks: &[&[u8; 64]; SCALAR_LANES]) {
    // Lane-major schedule rows; vectorizes 4-wide.
    let mut w = [[0u32; SCALAR_LANES]; 64];
    for (l, block) in blocks.iter().enumerate() {
        for i in 0..16 {
            w[i][l] = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
    }
    for i in 16..64 {
        let mut row = [0u32; SCALAR_LANES];
        for (l, rl) in row.iter_mut().enumerate() {
            let w15 = w[i - 15][l];
            let w2 = w[i - 2][l];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            *rl = w[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7][l])
                .wrapping_add(s1);
        }
        w[i] = row;
    }
    // Fold the round constants in vector-land too: rounds then add one
    // precomputed word instead of two.
    for (i, row) in w.iter_mut().enumerate() {
        for wl in row.iter_mut() {
            *wl = wl.wrapping_add(K[i]);
        }
    }
    for (l, state) in states.iter_mut().enumerate() {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for wk in &w {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(wk[l]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// One message's block stream for a multi-buffer lane: full 64-byte
/// blocks are served straight from the message slice (no copy), then the
/// FIPS padding tail (residue + 0x80 + zeros + big-endian bit length,
/// one or two blocks) from a lane-local buffer.
struct MsgStream<'a> {
    msg: &'a [u8],
    /// Index of this message's digest in the output array.
    out_idx: usize,
    /// Number of whole blocks served from `msg` directly.
    n_full: usize,
    /// Total blocks including the padding tail.
    n_blocks: usize,
    /// Next block to serve; `cur = next - 1` after [`advance`](Self::advance).
    next: usize,
    cur: usize,
    tail: [u8; 128],
}

impl<'a> MsgStream<'a> {
    fn new(msg: &'a [u8], out_idx: usize) -> Self {
        let n_full = msg.len() / 64;
        let rem = msg.len() - n_full * 64;
        let mut tail = [0u8; 128];
        tail[..rem].copy_from_slice(&msg[n_full * 64..]);
        tail[rem] = 0x80;
        let tail_blocks = if rem >= 56 { 2 } else { 1 };
        let bit_len = (msg.len() as u64).wrapping_mul(8);
        tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
        MsgStream {
            msg,
            out_idx,
            n_full,
            n_blocks: n_full + tail_blocks,
            next: 0,
            cur: 0,
            tail,
        }
    }

    fn has_block(&self) -> bool {
        self.next < self.n_blocks
    }

    /// Step to the next block; [`block`](Self::block) then returns it.
    /// Split from `block` so the driver can advance every lane mutably
    /// first and then borrow all the block references at once.
    fn advance(&mut self) {
        debug_assert!(self.has_block());
        self.cur = self.next;
        self.next += 1;
    }

    fn block(&self) -> &[u8; 64] {
        if self.cur < self.n_full {
            self.msg[self.cur * 64..self.cur * 64 + 64]
                .try_into()
                .expect("64-byte block")
        } else {
            let off = (self.cur - self.n_full) * 64;
            self.tail[off..off + 64].try_into().expect("64-byte block")
        }
    }
}

/// The lane scheduler behind [`sha256_many`]: keep `N` message streams in
/// flight, compressing one block of each per step via `compress_n`. When
/// a lane's message completes, its digest is written and the lane
/// immediately reloads with the next message (double buffering) — so the
/// interleaved kernel runs at full width until fewer than `N` messages
/// remain, and the stragglers finish on the single-stream path.
fn run_lanes<const N: usize>(
    msgs: &[&[u8]],
    out: &mut [Digest32],
    compress_n: impl Fn(&mut [[u32; 8]; N], &[&[u8; 64]; N]),
) {
    let mut next_msg = 0usize;
    let mut states = [[0u32; 8]; N];
    let mut streams: [Option<MsgStream>; N] = std::array::from_fn(|_| None);
    loop {
        // Refill: finalize finished lanes, load the next message.
        for l in 0..N {
            loop {
                match &streams[l] {
                    Some(s) if s.has_block() => break,
                    Some(s) => {
                        out[s.out_idx] = digest_from_state(&states[l]);
                        streams[l] = None;
                    }
                    None => {
                        if next_msg < msgs.len() {
                            streams[l] = Some(MsgStream::new(msgs[next_msg], next_msg));
                            states[l] = H0;
                            next_msg += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        if streams.iter().any(|s| s.is_none()) {
            break;
        }
        for s in streams.iter_mut() {
            s.as_mut().expect("refilled above").advance();
        }
        let blocks: [&[u8; 64]; N] =
            std::array::from_fn(|l| streams[l].as_ref().expect("refilled above").block());
        compress_n(&mut states, &blocks);
    }
    // Fewer than N streams left: drain them one block at a time.
    for l in 0..N {
        if let Some(s) = &mut streams[l] {
            while s.has_block() {
                s.advance();
                let block = *s.block();
                compress_dispatch(&mut states[l], &block);
            }
            out[s.out_idx] = digest_from_state(&states[l]);
        }
    }
}

/// Multi-buffer one-shot SHA-256: the digests of many independent
/// messages, hashed in interleaved lanes (see the module docs). Returns
/// `out[i] == sha256(msgs[i])` for every `i` — the interleaving is purely
/// an execution strategy, property-tested against the single-stream
/// oracle.
///
/// This is the throughput primitive behind viewmap link-key hashing,
/// lazily on first link or ahead of time in the warm ingest paths: each
/// VP hands it 60 independent 72-byte VD encodings, exactly the shape
/// where per-message dependency chains leave the most throughput on the
/// table.
pub fn sha256_many(msgs: &[&[u8]]) -> Vec<Digest32> {
    let mut out = vec![Digest32([0u8; 32]); msgs.len()];
    sha256_many_into(msgs, &mut out);
    out
}

/// As [`sha256_many`], writing into a caller-owned output slice (must be
/// the same length as `msgs`).
pub fn sha256_many_into(msgs: &[&[u8]], out: &mut [Digest32]) {
    assert_eq!(msgs.len(), out.len(), "one digest slot per message");
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        run_lanes::<2>(msgs, out, |states, blocks| {
            let [sa, sb] = states;
            let ok = shani::compress2(sa, blocks[0], sb, blocks[1]);
            debug_assert!(ok, "availability checked by the dispatch gate");
        });
        return;
    }
    run_lanes::<SCALAR_LANES>(msgs, out, compress_scalar_x4);
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP known-answer vectors.
    const VECTORS: &[(&str, &str)] = &[
        (
            "",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            "abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn known_answer_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(
                &sha256(input.as_bytes()).to_hex(),
                expected,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        let expected = sha256(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn incremental_many_small_updates() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all hash
        // consistently with a two-part incremental computation.
        for len in 50..70usize {
            let data = vec![0xa5u8; len];
            let one = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), one, "len {len}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_compression_matches_scalar_on_random_blocks() {
        // Property: the hardware and scalar compression functions are the
        // same FIPS 180-4 map on random (state, block) pairs — not just on
        // structured hash inputs, where a schedule bug could hide behind
        // padding regularities.
        if !super::shani::available() {
            eprintln!("skipping: CPU lacks SHA extensions");
            return;
        }
        // Deterministic xorshift — no RNG dependency in this crate.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..500 {
            let mut state = [0u32; 8];
            for w in state.iter_mut() {
                *w = next() as u32;
            }
            let mut block = [0u8; 64];
            for b in block.iter_mut() {
                *b = next() as u8;
            }
            let mut hw = state;
            assert!(super::shani::compress(&mut hw, &block));
            let mut sw = state;
            compress_scalar(&mut sw, &block);
            assert_eq!(hw, sw, "case {case}: SHA-NI diverged from scalar");
        }
    }

    /// Deterministic xorshift byte stream (no RNG dependency here).
    fn xorshift_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn many_matches_oracle_at_padding_boundaries() {
        // 55/56/63/64/65 straddle the one-vs-two-tail-block and
        // block-boundary cases; 119/120 straddle the short-input fast
        // path in `sha256`. Every length must agree with the
        // single-stream oracle, in every position of the batch.
        let lens = [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 200,
        ];
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| xorshift_bytes(0x9e37 + i as u64, len))
            .collect();
        let msgs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let got = sha256_many(&msgs);
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(got[i], sha256(msg), "len {}", msg.len());
        }
    }

    #[test]
    fn many_matches_oracle_on_random_unequal_batches() {
        // Random lengths and batch sizes around the lane counts (0, 1,
        // exactly 2, exactly 4, odd remainders): lane refill and the
        // straggler drain must never mix streams up.
        let mut x = 0x243f_6a88u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for batch in 0..12usize {
            let data: Vec<Vec<u8>> = (0..batch)
                .map(|i| xorshift_bytes(next(), (next() % 300) as usize + i))
                .collect();
            let msgs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let got = sha256_many(&msgs);
            assert_eq!(got.len(), batch);
            for (i, msg) in msgs.iter().enumerate() {
                assert_eq!(got[i], sha256(msg), "batch {batch} msg {i}");
            }
        }
    }

    #[test]
    fn scalar_multibuffer_lanes_match_oracle() {
        // Drive the 4-wide scalar kernel directly (whatever the host
        // CPU offers), so the fallback multi-buffer path is covered even
        // on SHA-NI machines.
        let data: Vec<Vec<u8>> = (0..23)
            .map(|i| xorshift_bytes(7 + i, (i as usize * 37) % 250))
            .collect();
        let msgs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut got = vec![Digest32([0u8; 32]); msgs.len()];
        run_lanes::<SCALAR_LANES>(&msgs, &mut got, compress_scalar_x4);
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(got[i], sha256(msg), "msg {i}");
        }
    }

    #[test]
    fn two_lane_driver_matches_oracle_with_scalar_kernel() {
        // The 2-lane scheduler (the SHA-NI shape) exercised with the
        // scalar compression, so the driver logic is covered on any CPU.
        let data: Vec<Vec<u8>> = (0..9)
            .map(|i| xorshift_bytes(31 + i, (i as usize * 61) % 200))
            .collect();
        let msgs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut got = vec![Digest32([0u8; 32]); msgs.len()];
        run_lanes::<2>(&msgs, &mut got, |states, blocks| {
            compress_scalar(&mut states[0], blocks[0]);
            compress_scalar(&mut states[1], blocks[1]);
        });
        for (i, msg) in msgs.iter().enumerate() {
            assert_eq!(got[i], sha256(msg), "msg {i}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_pair_compression_matches_scalar_on_random_blocks() {
        // Mirror of the single-stream SHA-NI property test: the
        // interleaved two-stream kernel must be the FIPS map on both
        // lanes for random (state, block) pairs.
        if !super::shani::available() {
            eprintln!("skipping: CPU lacks SHA extensions");
            return;
        }
        let mut x = 0x1319_8a2e_0370_7344u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..500 {
            let mut mk_state = || {
                let mut s = [0u32; 8];
                for w in s.iter_mut() {
                    *w = next() as u32;
                }
                s
            };
            let (sa, sb) = (mk_state(), mk_state());
            let mut mk_block = || {
                let mut b = [0u8; 64];
                for v in b.iter_mut() {
                    *v = next() as u8;
                }
                b
            };
            let (ba, bb) = (mk_block(), mk_block());
            let (mut hw_a, mut hw_b) = (sa, sb);
            assert!(super::shani::compress2(&mut hw_a, &ba, &mut hw_b, &bb));
            let (mut sw_a, mut sw_b) = (sa, sb);
            compress_scalar(&mut sw_a, &ba);
            compress_scalar(&mut sw_b, &bb);
            assert_eq!(hw_a, sw_a, "case {case}: lane A diverged");
            assert_eq!(hw_b, sw_b, "case {case}: lane B diverged");
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"prefix");
        let h2 = h.clone();
        h.update(b"-a");
        let mut h2 = h2;
        h2.update(b"-a");
        assert_eq!(h.finalize(), h2.finalize());
    }
}
