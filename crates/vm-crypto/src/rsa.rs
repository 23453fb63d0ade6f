//! RSA and Chaum blind signatures for ViewMap's untraceable rewarding.
//!
//! Appendix A of the paper: the system `S` signs blinded messages
//! `B(H(m_u), r_u)` with its private key without learning `m_u`; the user
//! unblinds with the secret `r_u` to obtain a signature-message pair (one
//! unit of virtual cash). Anyone can verify authenticity against `S`'s
//! public key, and `S` keeps a double-spending ledger over `m_u` — but no
//! one can link the cash back to the video `u` or its owner.
//!
//! Messages are mapped into the RSA group with a full-domain hash (counter-
//! mode SHA-256 expansion reduced mod `n`).

use crate::bigint::BigUint;
use crate::sha256::Sha256;
use rand::Rng;

/// Public half of an RSA key: modulus `n` and exponent `e`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair (the system `S`'s signing key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
}

/// A blinded message: safe to send to the signer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlindedMessage(pub BigUint);

/// The blinding secret `r` — known only to the user; required to unblind.
#[derive(Clone, Debug)]
pub struct BlindingSecret {
    r_inv: BigUint,
}

/// An (unblinded) RSA signature over a full-domain-hashed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature(pub BigUint);

/// Error cases for blind-signature operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsaError {
    /// The value to be signed or verified is not within `[0, n)`.
    OutOfRange,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::OutOfRange => write!(f, "value out of RSA modulus range"),
        }
    }
}

impl std::error::Error for RsaError {}

const PUBLIC_EXPONENT: u64 = 65537;

impl RsaKeyPair {
    /// Generate a key pair with a modulus of roughly `bits` bits.
    ///
    /// Tests use 512-bit keys for speed; `vm_perf` uses 2048 (512 in its
    /// smoke pass).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 64, "modulus too small");
        let half = bits / 2;
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = BigUint::gen_prime(rng, half);
            let q = BigUint::gen_prime(rng, bits - half);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = e.modinv(&phi).expect("e coprime with phi");
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
            };
        }
    }

    /// Reassemble a key pair from its public half and private exponent —
    /// the form it takes when loaded from an operator-supplied keyfile
    /// (vm-store's `signing.key`), so a restarted or promoted node keeps
    /// honoring cash minted before the restart.
    pub fn from_parts(public: RsaPublicKey, d: BigUint) -> Self {
        RsaKeyPair { public, d }
    }

    /// The public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d`. Only key-persistence code should look at
    /// this; everything else signs through [`Self::sign_raw`].
    pub fn private_exponent(&self) -> &BigUint {
        &self.d
    }

    /// Raw RSA signing: `v^d mod n`. Used on *blinded* values, so the
    /// signer never sees the underlying message (Appendix A, step iii).
    pub fn sign_raw(&self, v: &BigUint) -> Result<Signature, RsaError> {
        if v >= &self.public.n {
            return Err(RsaError::OutOfRange);
        }
        Ok(Signature(v.modpow(&self.d, &self.public.n)))
    }

    /// Sign a blinded message (alias of [`Self::sign_raw`] with the
    /// domain-specific type).
    pub fn sign_blinded(&self, b: &BlindedMessage) -> Result<Signature, RsaError> {
        self.sign_raw(&b.0)
    }
}

impl RsaPublicKey {
    /// Reassemble a public key from its modulus and exponent — the form
    /// it travels in on the wire (vm-service's `PUBLIC_KEY` reply), so
    /// a remote client can verify cash and blind messages locally.
    pub fn from_parts(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// Modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Full-domain hash of an arbitrary message into `[0, n)`.
    ///
    /// Counter-mode SHA-256: `H(0 || msg) || H(1 || msg) || ...` expanded to
    /// one byte more than the modulus, then reduced mod `n`.
    pub fn fdh(&self, msg: &[u8]) -> BigUint {
        let target_bytes = self.n.to_bytes_be().len() + 1;
        let mut out = Vec::with_capacity(target_bytes + 32);
        let mut counter = 0u32;
        while out.len() < target_bytes {
            let mut h = Sha256::new();
            h.update(&counter.to_be_bytes());
            h.update(msg);
            out.extend_from_slice(&h.finalize().0);
            counter += 1;
        }
        out.truncate(target_bytes);
        BigUint::from_bytes_be(&out).rem(&self.n)
    }

    /// Blind a full-domain-hashed message: returns `m * r^e mod n` together
    /// with the blinding secret (Appendix A, step ii).
    pub fn blind<R: Rng + ?Sized>(
        &self,
        hashed: &BigUint,
        rng: &mut R,
    ) -> Result<(BlindedMessage, BlindingSecret), RsaError> {
        if hashed >= &self.n {
            return Err(RsaError::OutOfRange);
        }
        loop {
            let r = BigUint::random_below(rng, &self.n);
            if r.is_zero() {
                continue;
            }
            let Some(r_inv) = r.modinv(&self.n) else {
                continue; // not coprime with n (astronomically unlikely)
            };
            let blinded = hashed.mulmod(&r.modpow(&self.e, &self.n), &self.n);
            return Ok((BlindedMessage(blinded), BlindingSecret { r_inv }));
        }
    }

    /// Unblind a signature over a blinded message (Appendix A, step iv):
    /// `U({B(H(m),r)}_{K_S^-}) = {H(m)}_{K_S^-}`.
    pub fn unblind(&self, signed: &Signature, secret: &BlindingSecret) -> Signature {
        Signature(signed.0.mulmod(&secret.r_inv, &self.n))
    }

    /// Verify a signature over a full-domain-hashed message.
    pub fn verify_hashed(&self, sig: &Signature, hashed: &BigUint) -> bool {
        if sig.0 >= self.n || hashed >= &self.n {
            return false;
        }
        sig.0.modpow(&self.e, &self.n) == *hashed
    }

    /// Verify a signature over a raw message (hashes it first).
    pub fn verify(&self, sig: &Signature, msg: &[u8]) -> bool {
        self.verify_hashed(sig, &self.fdh(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, 512)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(1);
        let msg = b"one unit of virtual cash";
        let hashed = kp.public().fdh(msg);
        let sig = kp.sign_raw(&hashed).unwrap();
        assert!(kp.public().verify(&sig, msg));
        assert!(!kp.public().verify(&sig, b"two units"));
    }

    #[test]
    fn blind_sign_unblind_verifies() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = keypair(2);
        let msg = b"blinded cash message m_u";
        let hashed = kp.public().fdh(msg);
        let (blinded, secret) = kp.public().blind(&hashed, &mut rng).unwrap();
        // Signer never sees `hashed`.
        assert_ne!(blinded.0, hashed);
        let signed_blinded = kp.sign_blinded(&blinded).unwrap();
        let sig = kp.public().unblind(&signed_blinded, &secret);
        assert!(kp.public().verify_hashed(&sig, &hashed));
    }

    #[test]
    fn unblinded_signature_equals_direct_signature() {
        // The unblinded signature is *identical* to a direct signature on
        // H(m) — this is exactly the unlinkability property: the signer
        // cannot tell which blinded request produced it.
        let mut rng = StdRng::seed_from_u64(3);
        let kp = keypair(3);
        let hashed = kp.public().fdh(b"m");
        let (blinded, secret) = kp.public().blind(&hashed, &mut rng).unwrap();
        let via_blind = kp
            .public()
            .unblind(&kp.sign_blinded(&blinded).unwrap(), &secret);
        let direct = kp.sign_raw(&hashed).unwrap();
        assert_eq!(via_blind, direct);
    }

    #[test]
    fn different_blindings_are_unlinkable() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = keypair(4);
        let hashed = kp.public().fdh(b"same message");
        let (b1, _) = kp.public().blind(&hashed, &mut rng).unwrap();
        let (b2, _) = kp.public().blind(&hashed, &mut rng).unwrap();
        assert_ne!(b1, b2, "same message must blind to different values");
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair(5);
        let hashed = kp.public().fdh(b"msg");
        let sig = kp.sign_raw(&hashed).unwrap();
        let tampered = Signature(sig.0.add(&BigUint::one()).rem(kp.public().modulus()));
        assert!(!kp.public().verify_hashed(&tampered, &hashed));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair(6);
        let kp2 = keypair(7);
        let hashed = kp1.public().fdh(b"msg");
        let sig = kp1.sign_raw(&hashed).unwrap();
        let hashed2 = kp2.public().fdh(b"msg");
        assert!(!kp2.public().verify_hashed(&sig, &hashed2));
    }

    #[test]
    fn out_of_range_errors() {
        let kp = keypair(8);
        let too_big = kp.public().modulus().clone();
        assert_eq!(kp.sign_raw(&too_big), Err(RsaError::OutOfRange));
        let mut rng = StdRng::seed_from_u64(8);
        assert!(kp.public().blind(&too_big, &mut rng).is_err());
    }

    #[test]
    fn keypair_round_trips_through_parts() {
        let kp = keypair(10);
        let rebuilt = RsaKeyPair::from_parts(kp.public().clone(), kp.private_exponent().clone());
        assert_eq!(rebuilt, kp);
        // The rebuilt pair signs identically, so cash minted by the
        // original remains redeemable against the rebuilt key.
        let hashed = kp.public().fdh(b"pre-restart cash");
        assert_eq!(
            rebuilt.sign_raw(&hashed).unwrap(),
            kp.sign_raw(&hashed).unwrap()
        );
    }

    #[test]
    fn fdh_is_deterministic_and_in_range() {
        let kp = keypair(9);
        let a = kp.public().fdh(b"hello");
        let b = kp.public().fdh(b"hello");
        assert_eq!(a, b);
        assert!(&a < kp.public().modulus());
        assert_ne!(kp.public().fdh(b"hello"), kp.public().fdh(b"hellp"));
    }
}
