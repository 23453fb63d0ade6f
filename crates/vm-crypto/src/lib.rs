//! Cryptographic substrate for ViewMap, implemented from scratch.
//!
//! The ViewMap protocol (NSDI '17) needs three primitives:
//!
//! * a cryptographic hash for video fingerprints and VP identifiers
//!   ([`sha256()`], truncated to 128 bits on the wire),
//! * big-integer arithmetic ([`bigint`]) as the substrate for
//! * RSA blind signatures ([`rsa`]) used for the untraceable virtual cash
//!   of Section 5.3 / Appendix A (Chaum's scheme).
//!
//! Nothing here depends on the rest of the workspace; the protocol crates
//! build on top of this one.
//!
//! # Security note
//!
//! This is a research reproduction. The RSA implementation uses raw
//! (unpadded) exponentiation over full-domain-hashed messages exactly as
//! the blind-signature construction in the paper's appendix requires, and
//! the arithmetic is not constant-time. Do not reuse it outside of this
//! reproduction.

// `deny` rather than `forbid`: the one sanctioned exception is the
// runtime-detected SHA-NI compression path in `sha256::shani`, which
// carries its own `allow` plus a safety argument and a scalar-equivalence
// property test.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bigint;
pub mod rsa;
pub mod sha256;

pub use bigint::BigUint;
pub use rsa::{BlindedMessage, BlindingSecret, RsaKeyPair, RsaPublicKey, Signature};
pub use sha256::{sha256, sha256_many, sha256_many_into, Digest32, Sha256};

/// A 128-bit digest: the truncation of SHA-256 used in ViewMap wire formats.
///
/// The paper's view digest carries a 16-byte cascaded hash and a 16-byte VP
/// identifier; both are [`Digest16`] values here.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest16(pub [u8; 16]);

impl Digest16 {
    /// The all-zero digest (used as a placeholder, never produced by hashing).
    pub const ZERO: Digest16 = Digest16([0u8; 16]);

    /// Hash arbitrary bytes and truncate to 128 bits.
    pub fn hash(data: &[u8]) -> Self {
        let d = sha256(data);
        let mut out = [0u8; 16];
        out.copy_from_slice(&d.0[..16]);
        Digest16(out)
    }

    /// Hash many independent messages and truncate each to 128 bits, via
    /// the multi-buffer engine ([`sha256_many`]): `out[i]` equals
    /// `Digest16::hash(msgs[i])`, computed at interleaved-lane
    /// throughput.
    pub fn hash_many(msgs: &[&[u8]]) -> Vec<Digest16> {
        sha256_many(msgs)
            .into_iter()
            .map(|d| {
                let mut out = [0u8; 16];
                out.copy_from_slice(&d.0[..16]);
                Digest16(out)
            })
            .collect()
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Interpret the first 8 bytes as a little-endian `u64` (for hashing
    /// into Bloom filter slots and hash maps).
    pub fn low_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("16-byte digest"))
    }

    /// Interpret the last 8 bytes as a little-endian `u64`.
    pub fn high_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[8..].try_into().expect("16-byte digest"))
    }
}

/// A 64-bit record checksum: the first 8 bytes of SHA-256, little-endian.
///
/// This is the integrity framing the storage layer (`vm-store`) stamps on
/// every append-log record body: strong enough to make a torn or
/// bit-rotted tail record indistinguishable from "no record here" (the
/// recovery invariant), while costing 8 bytes per record instead of 32.
/// It is **not** a collision-resistant commitment — protocol-level
/// commitments stay on full [`Digest16`]/[`Digest32`] values.
pub fn checksum64(data: &[u8]) -> u64 {
    let d = sha256(data);
    u64::from_le_bytes(d.0[..8].try_into().expect("32-byte digest"))
}

/// [`checksum64`] over many independent bodies at multi-buffer
/// throughput: `out[i] == checksum64(msgs[i])`, hashed through
/// [`sha256_many`]'s interleaved lanes. The storage layer stamps a
/// whole group commit's records in one call instead of one serial hash
/// per record.
pub fn checksum64_many(msgs: &[&[u8]]) -> Vec<u64> {
    sha256_many(msgs)
        .into_iter()
        .map(|d| u64::from_le_bytes(d.0[..8].try_into().expect("32-byte digest")))
        .collect()
}

impl std::fmt::Debug for Digest16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest16(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for Digest16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest16_is_prefix_of_sha256() {
        let full = sha256(b"viewmap");
        let short = Digest16::hash(b"viewmap");
        assert_eq!(&full.0[..16], short.as_bytes());
    }

    #[test]
    fn digest16_u64_views_cover_all_bytes() {
        let d = Digest16([
            1, 0, 0, 0, 0, 0, 0, 0, //
            2, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.low_u64(), 1);
        assert_eq!(d.high_u64(), 2);
    }

    #[test]
    fn checksum64_is_sha256_prefix_and_detects_corruption() {
        let data = b"viewmap record body";
        let full = sha256(data);
        assert_eq!(
            checksum64(data),
            u64::from_le_bytes(full.0[..8].try_into().unwrap())
        );
        let mut flipped = data.to_vec();
        for i in 0..flipped.len() {
            flipped[i] ^= 0x01;
            assert_ne!(checksum64(&flipped), checksum64(data), "flip at byte {i}");
            flipped[i] ^= 0x01;
        }
        assert_ne!(checksum64(b""), 0, "empty input still hashes");
    }

    #[test]
    fn checksum64_many_matches_single_calls() {
        let bodies: Vec<Vec<u8>> = (0..9usize)
            .map(|i| (0..i * 37 + 1).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        for take in [0usize, 1, 2, 3, 9] {
            let msgs: Vec<&[u8]> = bodies[..take].iter().map(|b| b.as_slice()).collect();
            let batch = checksum64_many(&msgs);
            let single: Vec<u64> = msgs.iter().map(|m| checksum64(m)).collect();
            assert_eq!(batch, single, "take {take}");
        }
    }

    #[test]
    fn digest16_display_roundtrip_length() {
        let d = Digest16::hash(b"x");
        assert_eq!(format!("{d}").len(), 32);
    }
}
