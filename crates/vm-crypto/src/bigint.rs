//! Arbitrary-precision unsigned integers, from scratch.
//!
//! This is the arithmetic substrate for the RSA blind signatures used by
//! ViewMap's untraceable rewarding (Section 5.3 / Appendix A). Limbs are
//! little-endian `u64`; division is Knuth's Algorithm D.
//!
//! Modular exponentiation — the server's cost per unit of cash, and key
//! generation's Miller–Rabin rounds — runs in Montgomery form: values
//! are kept as `x·R mod m` with `R = 2^(64·k)` for a `k`-limb modulus,
//! and each multiplication reduces with CIOS (coarsely integrated
//! operand scanning) on fixed-length limb slices instead of a division.
//! One exponentiation allocates its scratch buffers once and no step
//! allocates after that. Long exponents take a fixed 5-bit window;
//! short ones (`e = 65537`) go bit by bit, because a 32-entry window
//! table costs more than it saves on 17 bits.
//!
//! Montgomery reduction needs `m` odd, so [`BigUint::modpow`]'s contract
//! is an **odd modulus**, enforced by an assert. Every caller meets it:
//! RSA's `n`, `p` and `q`, and Miller–Rabin candidates (odd by the time
//! they are exponentiated). The plain square-and-multiply over
//! [`BigUint::mulmod`] survives only as the test oracle the Montgomery
//! path is checked against.
//!
//! No constant-time guarantees: correctness and reviewability over side
//! channels.

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` has no trailing zero limbs; zero is the empty vector.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut v = 0u64;
            for &b in chunk {
                v = (v << 8) | b as u64;
            }
            limbs.push(v);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Big-endian byte encoding without leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Lowercase hex encoding (no leading zeros; "0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `i`-th bit (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; returns `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub would underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder (Knuth Algorithm D). Panics on division by 0.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut qn = BigUint { limbs: q };
            qn.normalize();
            return (qn, BigUint::from_u64(rem as u64));
        }

        // Normalize so the divisor's top bit is set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;
        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs.
            let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = top / vn[n - 1] as u128;
            let mut r_hat = top % vn[n - 1] as u128;
            while q_hat >= 1u128 << 64
                || q_hat * vn[n - 2] as u128 > ((r_hat << 64) | un[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += vn[n - 1] as u128;
                if r_hat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply-and-subtract: un[j..j+n+1] -= q_hat * vn
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - (p as u64 as i128) - borrow;
                if sub < 0 {
                    un[j + i] = (sub + (1i128 << 64)) as u64;
                    borrow = 1;
                } else {
                    un[j + i] = sub as u64;
                    borrow = 0;
                }
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            if sub < 0 {
                // q_hat was one too large: add back.
                un[j + n] = (sub + (1i128 << 64)) as u64;
                q_hat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + c;
                    un[j + i] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            } else {
                un[j + n] = sub as u64;
            }
            q[j] = q_hat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mulmod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` for an **odd** modulus
    /// (Montgomery form; see the module docs). Panics if `m` is even.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_even(), "modpow modulus must be odd");
        if m.is_one() {
            return BigUint::zero();
        }
        let k = m.limbs.len();
        let mut mont = Montgomery::new(&m.limbs);
        // One (R mod m) and the base, both in Montgomery form.
        let to_mont = |x: &BigUint| {
            let mut limbs = x.shl(64 * k).rem(m).limbs;
            limbs.resize(k, 0);
            limbs
        };
        let one = to_mont(&BigUint::one());
        let base = to_mont(&self.rem(m));
        let bits = exp.bit_len();
        let mut acc = one.clone();
        if bits < WINDOW_MIN_BITS {
            for i in (0..bits).rev() {
                mont.square(&mut acc);
                if exp.bit(i) {
                    mont.mul(&mut acc, &base);
                }
            }
        } else {
            // table[w] = base^w, w in [0, 32).
            let mut table = vec![0u64; (1 << WINDOW) * k];
            table[..k].copy_from_slice(&one);
            table[k..2 * k].copy_from_slice(&base);
            for w in 2..1 << WINDOW {
                let (done, next) = table.split_at_mut(w * k);
                next[..k].copy_from_slice(&done[(w - 1) * k..]);
                mont.mul(&mut next[..k], &base);
            }
            for top in (0..bits.div_ceil(WINDOW)).rev() {
                let mut w = 0usize;
                for i in (top * WINDOW..(top + 1) * WINDOW).rev() {
                    mont.square(&mut acc);
                    w = (w << 1) | exp.bit(i) as usize;
                }
                if w != 0 {
                    mont.mul(&mut acc, &table[w * k..(w + 1) * k]);
                }
            }
        }
        // Leave Montgomery form: multiply by plain 1.
        let mut plain_one = vec![0u64; k];
        plain_one[0] = 1;
        mont.mul(&mut acc, &plain_one);
        let mut out = BigUint { limbs: acc };
        out.normalize();
        out
    }

    /// Greatest common divisor (binary-free Euclid via div_rem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m`, if it exists (gcd(self, m)=1).
    ///
    /// Extended Euclid maintaining coefficients over signed pairs.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // r0 = m, r1 = self mod m; t0 = 0, t1 = 1 (signed)
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic)
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        Some(if neg {
            m.sub(&mag.rem(m)).rem(m)
        } else {
            mag.rem(m)
        })
    }

    /// Uniformly random integer in `[0, bound)`. Panics if bound is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below bound must be positive");
        let bits = bound.bit_len();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Random integer with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let limb_count = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limb_count).map(|_| rng.gen()).collect();
        let extra = limb_count * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top >>= extra;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Random integer with exactly `bits` bits (top bit set).
    pub fn random_exact_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let mut n = Self::random_bits(rng, bits);
        // Force the top bit.
        let limb = (bits - 1) / 64;
        while n.limbs.len() <= limb {
            n.limbs.push(0);
        }
        n.limbs[limb] |= 1u64 << ((bits - 1) % 64);
        n.normalize();
        n
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases
    /// (plus trial division by small primes).
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.limbs.len() == 1 {
            let v = self.limbs[0];
            if v < 2 {
                return false;
            }
            if SMALL_PRIMES.contains(&v) {
                return true;
            }
        }
        if self.is_zero() || self.is_even() {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self.rem(&pb).is_zero() {
                return self == &pb;
            }
        }
        // self - 1 = d * 2^s
        let one = BigUint::one();
        let n_minus_1 = self.sub(&one);
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        let two = BigUint::from_u64(2);
        let n_minus_2 = self.sub(&two);
        'witness: for _ in 0..rounds {
            let a = {
                let r = BigUint::random_below(rng, &n_minus_2.sub(&one));
                r.add(&two) // a in [2, n-2]
            };
            let mut x = a.modpow(&d, self);
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mulmod(&x, self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generate a random probable prime with exactly `bits` bits.
    pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 8, "prime size too small");
        loop {
            let mut candidate = Self::random_exact_bits(rng, bits);
            // Force odd.
            candidate.limbs[0] |= 1;
            if candidate.is_probable_prime(rng, 24) {
                return candidate;
            }
        }
    }
}

/// The primes below 100: Miller–Rabin's trial divisors, and the fixed
/// bases `RsaKeyPair::from_parts` factors a modulus with.
pub(crate) const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

/// Window width of [`BigUint::modpow`]'s fixed-window path.
const WINDOW: usize = 5;

/// Exponents shorter than this go bit by bit. Bit by bit costs about
/// `b/2` multiplications beyond the `b` squarings; the window costs
/// `b/5` plus 30 to fill its table, so the window pays from ~100 bits.
const WINDOW_MIN_BITS: usize = 128;

/// CIOS Montgomery multiplication modulo one odd `k`-limb modulus, with
/// its `k + 1`-limb scratch row reused by every product.
struct Montgomery<'a> {
    m: &'a [u64],
    /// `-m^-1 mod 2^64`.
    m_neg_inv: u64,
    t: Vec<u64>,
}

impl<'a> Montgomery<'a> {
    fn new(m: &'a [u64]) -> Self {
        // Newton's iteration doubles the correct low bits of m^-1 each
        // step; m itself is correct to 3 bits for odd m (m·m ≡ 1 mod 8).
        let mut inv = m[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
        }
        Montgomery {
            m,
            m_neg_inv: inv.wrapping_neg(),
            t: vec![0; m.len() + 1],
        }
    }

    /// `acc = acc · b · R^-1 mod m`, for `acc, b < m`.
    fn mul(&mut self, acc: &mut [u64], b: &[u64]) {
        self.product(acc, b);
        acc.copy_from_slice(&self.t[..self.m.len()]);
    }

    /// `acc = acc² · R^-1 mod m`, for `acc < m`.
    fn square(&mut self, acc: &mut [u64]) {
        self.product(&*acc, &*acc);
        acc.copy_from_slice(&self.t[..self.m.len()]);
    }

    /// Leave `a · b · R^-1 mod m` in `t[..k]`: per limb of `a`, add
    /// `a_i · b` and `q · m` in one pass, where `q` makes the low limb
    /// vanish so the sum shifts down one limb.
    fn product(&mut self, a: &[u64], b: &[u64]) {
        let k = self.m.len();
        let (m, b, t) = (&self.m[..k], &b[..k], &mut self.t[..k + 1]);
        t.fill(0);
        for &ai in a {
            let s = t[0] as u128 + ai as u128 * b[0] as u128;
            let q = (s as u64).wrapping_mul(self.m_neg_inv);
            let mut c1 = (s >> 64) as u64;
            let mut c2 = ((s as u64 as u128 + q as u128 * m[0] as u128) >> 64) as u64;
            for j in 1..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + c1 as u128;
                c1 = (s >> 64) as u64;
                let r = s as u64 as u128 + q as u128 * m[j] as u128 + c2 as u128;
                t[j - 1] = r as u64;
                c2 = (r >> 64) as u64;
            }
            let s = t[k] as u128 + c1 as u128 + c2 as u128;
            t[k - 1] = s as u64;
            t[k] = (s >> 64) as u64;
        }
        // t < 2m: one conditional subtraction brings it below m.
        if t[k] != 0 || !limbs_less(&t[..k], m) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d1, b1) = tj.overflowing_sub(mj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *tj = d2;
                borrow = b1 || b2;
            }
        }
    }
}

/// `a < b` for equal-length little-endian limb slices.
fn limbs_less(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

#[cfg(test)]
impl BigUint {
    /// The test oracle for [`BigUint::modpow`]: plain square-and-multiply
    /// over [`BigUint::mulmod`], for any nonzero modulus.
    pub(crate) fn modpow_oracle(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        let mut base = self.rem(m);
        let mut result = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mulmod(&base, m);
            }
            if i + 1 < exp.bit_len() {
                base = base.mulmod(&base, m);
            }
        }
        result
    }
}

/// Signed subtraction for (magnitude, is_negative) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(&b.0), false), // a - (-b) = a + b
        (true, false) => (a.0.add(&b.0), true),  // -a - b = -(a+b)
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            // -a - (-b) = b - a
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(hex: &str) -> BigUint {
        let mut bytes = Vec::new();
        let s = if hex.len() % 2 == 1 {
            format!("0{hex}")
        } else {
            hex.to_string()
        };
        for i in (0..s.len()).step_by(2) {
            bytes.push(u8::from_str_radix(&s[i..i + 2], 16).expect("hex"));
        }
        BigUint::from_bytes_be(&bytes)
    }

    #[test]
    fn roundtrip_bytes() {
        for hex in [
            "0",
            "1",
            "ff",
            "100",
            "deadbeefcafebabe",
            "0123456789abcdef0123456789abcdef01",
        ] {
            let n = big(hex);
            let back = BigUint::from_bytes_be(&n.to_bytes_be());
            assert_eq!(n, back);
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = big("ffffffffffffffffffffffffffffffff");
        let b = big("1");
        let c = a.add(&b);
        assert_eq!(c.to_hex(), "100000000000000000000000000000000");
        assert_eq!(c.sub(&b), a);
    }

    #[test]
    fn checked_sub_underflow() {
        assert!(BigUint::from_u64(1)
            .checked_sub(&BigUint::from_u64(2))
            .is_none());
        assert_eq!(
            BigUint::from_u64(2).checked_sub(&BigUint::from_u64(2)),
            Some(BigUint::zero())
        );
    }

    #[test]
    fn mul_known() {
        let a = big("ffffffffffffffff");
        let b = big("ffffffffffffffff");
        assert_eq!(a.mul(&b).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = BigUint::from_u64(100).div_rem(&BigUint::from_u64(7));
        assert_eq!(q, BigUint::from_u64(14));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = big("123456789abcdef0123456789abcdef0123456789abcdef");
        let b = big("fedcba9876543210f");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_requires_addback_case() {
        // Constructed so Algorithm D's q_hat over-estimates.
        let a = big("800000000000000000000000000000000000000000000000");
        let b = big("800000000000000000000000000000001");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::from_u64(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let a = big("1");
        assert_eq!(a.shl(64).to_hex(), "10000000000000000");
        assert_eq!(a.shl(65).shr(65), a);
        assert_eq!(a.shr(1), BigUint::zero());
    }

    #[test]
    fn bit_len_and_bits() {
        let a = big("8000000000000001");
        assert_eq!(a.bit_len(), 64);
        assert!(a.bit(0));
        assert!(a.bit(63));
        assert!(!a.bit(1));
        assert!(!a.bit(64));
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn modpow_known() {
        // Fermat: a^(p-1) mod p = 1 for prime p
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(123_456_789);
        assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        // 3^5 mod 7 = 5 (bit by bit).
        let seven = BigUint::from_u64(7);
        assert_eq!(
            BigUint::from_u64(3).modpow(&BigUint::from_u64(5), &seven),
            BigUint::from_u64(5)
        );
        let long = BigUint::one().shl(200).add(&BigUint::from_u64(5));
        // Through the window: 3 has order 6 mod 7 and 2^200 ≡ 4 (mod 6),
        // so 3^(2^200+5) ≡ 3^9 ≡ 6.
        assert_eq!(
            BigUint::from_u64(3).modpow(&long, &seven),
            BigUint::from_u64(6)
        );
    }

    #[test]
    fn oracle_known() {
        // 2^10 mod 1000 = 24: the oracle takes even moduli too.
        let r =
            BigUint::from_u64(2).modpow_oracle(&BigUint::from_u64(10), &BigUint::from_u64(1000));
        assert_eq!(r, BigUint::from_u64(24));
    }

    #[test]
    #[should_panic(expected = "modulus must be odd")]
    fn modpow_rejects_even_modulus() {
        let _ = BigUint::from_u64(2).modpow(&BigUint::from_u64(10), &BigUint::from_u64(1000));
    }

    /// A random odd modulus of exactly `limbs` limbs.
    fn odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
        let mut m = BigUint::random_exact_bits(rng, 64 * limbs);
        m.limbs[0] |= 1;
        m
    }

    #[test]
    fn modpow_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(30);
        for limbs in [1, 2, 3, 16, 32] {
            // Keep the debug build quick: the oracle's full-length
            // exponents at 32 limbs are the slow part.
            let rounds = if limbs >= 16 && cfg!(debug_assertions) {
                1
            } else {
                3
            };
            for _ in 0..rounds {
                let m = odd_modulus(&mut rng, limbs);
                let one = BigUint::one();
                let mut bases = vec![
                    BigUint::zero(),
                    one.clone(),
                    m.sub(&one),
                    m.clone(),
                    m.add(&one),
                ];
                for _ in 0..2 {
                    bases.push(m.add(&BigUint::random_bits(&mut rng, 64 * limbs + 40)));
                }
                let mut exps: Vec<BigUint> = [0u64, 1, 2, 65537]
                    .iter()
                    .map(|&e| BigUint::from_u64(e))
                    .collect();
                exps.push(BigUint::random_exact_bits(&mut rng, 64 * limbs));
                for b in &bases {
                    for e in &exps {
                        assert_eq!(
                            b.modpow(e, &m),
                            b.modpow_oracle(e, &m),
                            "{limbs} limbs, base {b:?}, exp {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn modpow_unit_modulus_is_zero() {
        assert_eq!(
            BigUint::from_u64(5).modpow(&BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn modpow_large_fermat() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = BigUint::gen_prime(&mut rng, 192);
        let a = BigUint::random_below(&mut rng, &p);
        if !a.is_zero() {
            assert_eq!(a.modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn modinv_known() {
        // 3^{-1} mod 11 = 4
        let inv = BigUint::from_u64(3).modinv(&BigUint::from_u64(11)).unwrap();
        assert_eq!(inv, BigUint::from_u64(4));
        // No inverse when not coprime.
        assert!(BigUint::from_u64(6).modinv(&BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn modinv_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = BigUint::gen_prime(&mut rng, 128);
        for _ in 0..10 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.modinv(&m).expect("prime modulus => invertible");
            assert_eq!(a.mulmod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn gcd_known() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(36)),
            BigUint::from_u64(12)
        );
        assert_eq!(
            BigUint::from_u64(17).gcd(&BigUint::zero()),
            BigUint::from_u64(17)
        );
    }

    #[test]
    fn primality_small_values() {
        let mut rng = StdRng::seed_from_u64(1);
        for (v, expected) in [
            (0u64, false),
            (1, false),
            (2, true),
            (3, true),
            (4, false),
            (97, true),
            (561, false), // Carmichael
            (7919, true),
            (7921, false),
        ] {
            assert_eq!(
                BigUint::from_u64(v).is_probable_prime(&mut rng, 16),
                expected,
                "value {v}"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(99);
        let p = BigUint::gen_prime(&mut rng, 96);
        assert_eq!(p.bit_len(), 96);
        assert!(!p.is_even());
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let bound = big("1000000000000000000000000");
        for _ in 0..50 {
            let r = BigUint::random_below(&mut rng, &bound);
            assert!(r < bound);
        }
    }

    #[test]
    fn ordering_across_limb_counts() {
        assert!(big("10000000000000000") > big("ffffffffffffffff"));
        assert!(big("ffffffffffffffff") < big("10000000000000000"));
        assert_eq!(big("ab").cmp(&big("ab")), std::cmp::Ordering::Equal);
    }
}
