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
//!
//! Signing uses the CRT (Chinese Remainder Theorem) form: the key pair
//! also holds `p`, `q`, `dp = d mod (p-1)`, `dq = d mod (q-1)` and
//! `q^-1 mod p`, so one `v^d mod n` becomes two half-size exponentiations
//! joined by Garner's formula. The result is bit-identical to `v^d mod n`
//! for every `v` in `[0, n)`. A fault in one half would hand out a
//! signature `s` with `gcd(s^e - v, n)` a factor of `n` (Boneh–DeMillo–
//! Lipton), so [`RsaKeyPair::sign_raw`] checks `s^e ≡ v (mod n)` before
//! returning and reports [`RsaError::Fault`] instead of a bad signature.
//!
//! The persisted form of a key is still `(n, e, d)`:
//! [`RsaKeyPair::from_parts`] recovers `p` and `q` from it.

use crate::bigint::{BigUint, SMALL_PRIMES};
use crate::sha256::Sha256;
use rand::Rng;

/// Public half of an RSA key: modulus `n` and exponent `e`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair (the system `S`'s signing key).
///
/// Two pairs are equal exactly when their `(n, e, d)` are; `Debug`
/// prints only the public half.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    crt: Crt,
}

/// The CRT form of the private key, with `p > q`.
#[derive(Clone)]
struct Crt {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    q_inv: BigUint,
}

impl Crt {
    /// The CRT form of `d` over the factors `a, b > 1` (either order);
    /// `None` if they share a factor.
    fn new(a: BigUint, b: BigUint, d: &BigUint) -> Option<Crt> {
        let (p, q) = if a > b { (a, b) } else { (b, a) };
        let one = BigUint::one();
        Some(Crt {
            dp: d.rem(&p.sub(&one)),
            dq: d.rem(&q.sub(&one)),
            q_inv: q.modinv(&p)?,
            p,
            q,
        })
    }

    /// `v^d mod pq` by two half-size exponentiations and Garner's formula.
    fn pow(&self, v: &BigUint) -> BigUint {
        let sp = v.modpow(&self.dp, &self.p);
        let sq = v.modpow(&self.dq, &self.q);
        // h = (sp - sq) q^-1 mod p; sq < q < p, so sp + p - sq is positive.
        let h = sp.add(&self.p).sub(&sq).mulmod(&self.q_inv, &self.p);
        sq.add(&h.mul(&self.q))
    }
}

impl PartialEq for RsaKeyPair {
    fn eq(&self, other: &Self) -> bool {
        self.public == other.public && self.d == other.d
    }
}

impl Eq for RsaKeyPair {}

impl std::fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// A blinded message: safe to send to the signer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlindedMessage(pub BigUint);

/// The blinding secret `r` — known only to the user; required to unblind.
/// `Debug` prints a placeholder: `r^-1` links cash to its claim.
#[derive(Clone)]
pub struct BlindingSecret {
    r_inv: BigUint,
}

impl std::fmt::Debug for BlindingSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BlindingSecret(..)")
    }
}

/// An (unblinded) RSA signature over a full-domain-hashed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature(pub BigUint);

/// Error cases for blind-signature operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsaError {
    /// The value to be signed or verified is not within `[0, n)`.
    OutOfRange,
    /// A computed signature failed the check `s^e ≡ v (mod n)`; it was
    /// not released.
    Fault,
    /// The private exponent does not belong to the public key: `d` does
    /// not reveal a split `n = p·q` over which it inverts `e`.
    InvalidKey,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::OutOfRange => write!(f, "value out of RSA modulus range"),
            RsaError::Fault => write!(f, "signature failed its check and was withheld"),
            RsaError::InvalidKey => write!(f, "private exponent does not match the public key"),
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
            let crt = Crt::new(p, q, &d).expect("distinct primes");
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                crt,
            };
        }
    }

    /// Reassemble a key pair from its public half and private exponent —
    /// the form it takes when loaded from an operator-supplied keyfile
    /// (vm-store's `signing.key`), so a restarted or promoted node keeps
    /// honoring cash minted before the restart.
    ///
    /// Recovers `p` and `q` for CRT signing by the standard method: write
    /// `ed - 1 = 2^t·r`, and for fixed bases `g` look for a nontrivial
    /// square root of 1 among `g^r, g^2r, …` (mod `n`); its gcd with `n`
    /// splits `n`. No rng is drawn. Fails with [`RsaError::InvalidKey`]
    /// unless `p·q = n` and `d` inverts `e` modulo both `p-1` and `q-1`.
    pub fn from_parts(public: RsaPublicKey, d: BigUint) -> Result<Self, RsaError> {
        let (p, q) = factor(&public, &d).ok_or(RsaError::InvalidKey)?;
        let one = BigUint::one();
        let crt = Crt::new(p, q, &d).ok_or(RsaError::InvalidKey)?;
        if crt.p.mul(&crt.q) != public.n {
            return Err(RsaError::InvalidKey);
        }
        for (dx, x) in [(&crt.dp, &crt.p), (&crt.dq, &crt.q)] {
            if !public.e.mulmod(dx, &x.sub(&one)).is_one() {
                return Err(RsaError::InvalidKey);
            }
        }
        Ok(RsaKeyPair { public, d, crt })
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
    ///
    /// Computed in CRT form and checked (`s^e ≡ v`) before it is
    /// returned; a signature that fails the check is withheld as
    /// [`RsaError::Fault`].
    pub fn sign_raw(&self, v: &BigUint) -> Result<Signature, RsaError> {
        if v >= &self.public.n {
            return Err(RsaError::OutOfRange);
        }
        let s = self.crt.pow(v);
        if s.modpow(&self.public.e, &self.public.n) != *v {
            return Err(RsaError::Fault);
        }
        Ok(Signature(s))
    }

    /// Sign a blinded message (alias of [`Self::sign_raw`] with the
    /// domain-specific type).
    pub fn sign_blinded(&self, b: &BlindedMessage) -> Result<Signature, RsaError> {
        self.sign_raw(&b.0)
    }
}

/// Split `n` into its two factors given a private exponent `d`, or
/// `None` if `d` does not reveal them.
fn factor(public: &RsaPublicKey, d: &BigUint) -> Option<(BigUint, BigUint)> {
    let n = &public.n;
    let one = BigUint::one();
    if n.is_even() {
        return None;
    }
    let k = public.e.mul(d).checked_sub(&one)?;
    if k.is_zero() {
        return None;
    }
    let mut r = k;
    let mut t = 0usize;
    while r.is_even() {
        r = r.shr(1);
        t += 1;
    }
    let n_minus_1 = n.sub(&one);
    // A random base finds a factor with probability at least 1/2; small
    // fixed bases do as well in practice, and keep the result rng-free.
    for g in SMALL_PRIMES.map(BigUint::from_u64) {
        let mut x = g.modpow(&r, n);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..t {
            let y = x.mulmod(&x, n);
            if y.is_one() {
                // x is a square root of 1 other than ±1.
                let p = x.sub(&one).gcd(n);
                return Some((n.div_rem(&p).0, p));
            }
            if y == n_minus_1 {
                break;
            }
            x = y;
        }
    }
    None
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
        let rebuilt =
            RsaKeyPair::from_parts(kp.public().clone(), kp.private_exponent().clone()).unwrap();
        assert_eq!(rebuilt, kp);
        // The rebuilt pair signs identically, so cash minted by the
        // original remains redeemable against the rebuilt key.
        let hashed = kp.public().fdh(b"pre-restart cash");
        assert_eq!(
            rebuilt.sign_raw(&hashed).unwrap(),
            kp.sign_raw(&hashed).unwrap()
        );
    }

    /// `sign_raw` equals the oracle's `v^d mod n` on the edge values and
    /// on values sharing a factor with `n`.
    fn assert_signs_like_oracle(kp: &RsaKeyPair, seed: u64) {
        let n = kp.public().modulus();
        let one = BigUint::one();
        let mut rng = StdRng::seed_from_u64(seed);
        let values = [
            BigUint::zero(),
            one.clone(),
            n.sub(&one),
            kp.crt.p.clone(),
            kp.crt.q.clone(),
            kp.crt.p.shl(1),
            BigUint::random_below(&mut rng, n),
        ];
        for v in &values {
            assert_eq!(
                kp.sign_raw(v).unwrap().0,
                v.modpow_oracle(kp.private_exponent(), n),
                "v = {v:?}"
            );
        }
    }

    /// `from_parts` recovers the generated primes, and rejects a private
    /// exponent that is off by one either way.
    fn assert_parts_recover_factors(kp: &RsaKeyPair) {
        let d = kp.private_exponent();
        let rebuilt = RsaKeyPair::from_parts(kp.public().clone(), d.clone()).unwrap();
        assert_eq!((&rebuilt.crt.p, &rebuilt.crt.q), (&kp.crt.p, &kp.crt.q));
        for wrong in [d.add(&BigUint::one()), d.sub(&BigUint::one())] {
            assert_eq!(
                RsaKeyPair::from_parts(kp.public().clone(), wrong),
                Err(RsaError::InvalidKey)
            );
        }
    }

    #[test]
    fn crt_signing_matches_oracle() {
        for bits in [64, 512] {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(bits as u64), bits);
            assert_signs_like_oracle(&kp, bits as u64);
        }
    }

    #[test]
    fn from_parts_recovers_factors() {
        for (seed, bits) in [(1, 64), (2, 64), (3, 64), (64, 512), (65, 512)] {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
            assert_parts_recover_factors(&kp);
        }
    }

    #[test]
    fn from_parts_rejects_an_even_or_tiny_modulus() {
        let kp = keypair(12);
        for n in [kp.public().modulus().add(&BigUint::one()), BigUint::one()] {
            let public = RsaPublicKey::from_parts(n, kp.public().exponent().clone());
            assert_eq!(
                RsaKeyPair::from_parts(public, kp.private_exponent().clone()),
                Err(RsaError::InvalidKey)
            );
        }
    }

    /// The 2048-bit key `vm_perf` and the sweep's seeds depend on: key
    /// generation draws from the rng exactly as before CRT signing, so
    /// `generate(seed)` still returns the same modulus.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2048-bit keygen; runs in release")]
    fn pins_at_2048_bits() {
        let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(1), 2048);
        assert_eq!(
            crate::checksum64(&kp.public().modulus().to_bytes_be()),
            0x24c7_a865_0d04_764d
        );
        assert_signs_like_oracle(&kp, 2048);
        assert_parts_recover_factors(&kp);
    }

    #[test]
    fn faulty_crt_half_is_withheld() {
        let mut kp = keypair(13);
        let hashed = kp.public().fdh(b"cash");
        assert!(kp.sign_raw(&hashed).is_ok());
        kp.crt.dq = kp.crt.dq.add(&BigUint::one());
        assert_eq!(kp.sign_raw(&hashed), Err(RsaError::Fault));
    }

    #[test]
    fn debug_prints_no_private_material() {
        let kp = keypair(14);
        let printed = format!("{kp:?}");
        assert!(
            printed.contains(&kp.public().modulus().to_hex()),
            "{printed}"
        );
        for secret in [kp.private_exponent(), &kp.crt.p, &kp.crt.q] {
            assert!(!printed.contains(&secret.to_hex()), "{printed}");
        }
        let mut rng = StdRng::seed_from_u64(14);
        let hashed = kp.public().fdh(b"m");
        let (_, secret) = kp.public().blind(&hashed, &mut rng).unwrap();
        assert_eq!(format!("{secret:?}"), "BlindingSecret(..)");
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
