//! Untraceable rewarding with blind signatures (Section 5.3, Appendix A).
//!
//! After a solicited video passes review, the system posts its VP id
//! marked "request for reward". The owner proves ownership with the secret
//! `Q_u` (since `R_u = H(Q_u)`), learns the award amount `n`, sends `n`
//! blinded random messages, receives them signed, and unblinds them into
//! `n` units of self-verifiable virtual cash. The signer never sees the
//! cash messages, so cash can never be linked back to the video; the
//! double-spending ledger is keyed by the cash message itself.

use rand::Rng;
use vm_crypto::rsa::RsaError;
use vm_crypto::{BigUint, BlindingSecret, RsaKeyPair, RsaPublicKey, Signature};

/// One unit of virtual cash: an unblinded signature over a random message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cash {
    /// The random message `m_u^i` (32 bytes).
    pub message: [u8; 32],
    /// The system's unblinded signature over `H(message)`.
    pub signature: Signature,
}

impl Cash {
    /// Verify authenticity against the system's public key: anyone can do
    /// this (self-verifiable cash).
    pub fn verify(&self, pk: &RsaPublicKey) -> bool {
        pk.verify(&self.signature, &self.message)
    }

    /// The ledger key for double-spending checks.
    pub fn ledger_key(&self) -> [u8; 32] {
        vm_crypto::sha256(&self.message).0
    }
}

/// Client-side state for one pending unit: the message and its blinding
/// secret (known only to the user).
pub struct PendingCash {
    message: [u8; 32],
    hashed: BigUint,
    secret: BlindingSecret,
}

/// A wallet drives the user side of the rewarding protocol.
#[derive(Default)]
pub struct Wallet {
    /// Redeemable cash units.
    pub cash: Vec<Cash>,
}

impl Wallet {
    /// Empty wallet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step (ii) of Appendix A: generate `n` random messages and blind
    /// them. Returns the pending state plus the blinded messages to send.
    pub fn prepare<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        pk: &RsaPublicKey,
        n: usize,
    ) -> (Vec<PendingCash>, Vec<vm_crypto::BlindedMessage>) {
        let mut pending = Vec::with_capacity(n);
        let mut blinded = Vec::with_capacity(n);
        for _ in 0..n {
            let mut message = [0u8; 32];
            rng.fill(&mut message);
            let hashed = pk.fdh(&message);
            let (b, secret) = pk.blind(&hashed, rng).expect("hash is in range");
            pending.push(PendingCash {
                message,
                hashed,
                secret,
            });
            blinded.push(b);
        }
        (pending, blinded)
    }

    /// Step (iv): unblind the signed messages into cash. Verifies each
    /// unit before accepting it; returns how many units were added.
    pub fn accept_signed(
        &mut self,
        pk: &RsaPublicKey,
        pending: Vec<PendingCash>,
        signed: &[Signature],
    ) -> usize {
        let mut added = 0;
        for (p, s) in pending.into_iter().zip(signed) {
            let sig = pk.unblind(s, &p.secret);
            if pk.verify_hashed(&sig, &p.hashed) {
                self.cash.push(Cash {
                    message: p.message,
                    signature: sig,
                });
                added += 1;
            }
        }
        added
    }

    /// Total spendable units.
    pub fn balance(&self) -> usize {
        self.cash.len()
    }
}

/// The signer side (system `S`): signs blinded messages without seeing
/// their contents. Thin wrapper used by the server.
///
/// The reply is positional — the wallet unblinds signature `i` with
/// blinding secret `i` — so one value outside `[0, n)` fails the whole
/// batch instead of shortening it.
pub fn sign_blinded_batch(
    key: &RsaKeyPair,
    blinded: &[vm_crypto::BlindedMessage],
) -> Result<Vec<Signature>, RsaError> {
    blinded.iter().map(|b| key.sign_blinded(b)).collect()
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
    fn full_reward_round() {
        let key = keypair(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, key.public(), 5);
        let signed = sign_blinded_batch(&key, &blinded).unwrap();
        assert_eq!(signed.len(), 5);
        let added = wallet.accept_signed(key.public(), pending, &signed);
        assert_eq!(added, 5);
        assert_eq!(wallet.balance(), 5);
        for c in &wallet.cash {
            assert!(c.verify(key.public()));
        }
    }

    #[test]
    fn one_out_of_range_blinded_value_fails_the_whole_batch() {
        let key = keypair(12);
        let mut rng = StdRng::seed_from_u64(13);
        let (_, mut blinded) = Wallet::new().prepare(&mut rng, key.public(), 3);
        blinded[1] = vm_crypto::BlindedMessage(key.public().modulus().clone());
        assert_eq!(
            sign_blinded_batch(&key, &blinded),
            Err(RsaError::OutOfRange),
            "a shortened reply would misalign every later signature"
        );
    }

    #[test]
    fn cash_from_wrong_key_rejected() {
        let key = keypair(3);
        let other = keypair(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, key.public(), 2);
        // A forger signs with a different key.
        let signed = sign_blinded_batch(&other, &blinded).unwrap();
        let added = wallet.accept_signed(key.public(), pending, &signed);
        assert_eq!(added, 0, "wallet must reject badly signed cash");
    }

    #[test]
    fn signer_never_sees_message_or_its_hash() {
        let key = keypair(6);
        let mut rng = StdRng::seed_from_u64(7);
        let wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, key.public(), 1);
        // The blinded value differs from the message's FDH — the signer
        // learns nothing that identifies the message.
        assert_ne!(blinded[0].0, pending[0].hashed);
    }

    #[test]
    fn distinct_cash_units_have_distinct_ledger_keys() {
        let key = keypair(8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, key.public(), 8);
        let signed = sign_blinded_batch(&key, &blinded).unwrap();
        wallet.accept_signed(key.public(), pending, &signed);
        let keys: std::collections::HashSet<_> =
            wallet.cash.iter().map(|c| c.ledger_key()).collect();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn tampered_cash_fails_verification() {
        let key = keypair(10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut wallet = Wallet::new();
        let (pending, blinded) = wallet.prepare(&mut rng, key.public(), 1);
        let signed = sign_blinded_batch(&key, &blinded).unwrap();
        wallet.accept_signed(key.public(), pending, &signed);
        let mut forged = wallet.cash[0].clone();
        forged.message[0] ^= 1;
        assert!(!forged.verify(key.public()));
    }
}
