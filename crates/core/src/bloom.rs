//! The neighbor-fingerprint Bloom filter `N_u` (Section 5.1.1, 6.3.2).
//!
//! Each VP carries a 2048-bit (256-byte) Bloom filter summarizing the view
//! digests received from neighbors — at most two (first and last) per
//! neighbor. Viewmap construction validates a candidate edge by querying
//! each VP's element VDs against the *other* VP's filter; the two-way check
//! squares the false-positive rate (Fig. 14).
//!
//! # Probing
//!
//! A key's `k` slots are the double-hashing sequence `h1 + i·h2 mod m`
//! over the two 64-bit halves of its [`Digest16`], with `h2` forced odd.
//! [`insert`](BloomFilter::insert) and [`contains`](BloomFilter::contains)
//! take the full digest and any `m`. The linkage test takes a
//! [`ProbeKey`] instead, 4 bytes per key: on the power-of-two filters
//! the protocol uses it visits the very same slots, with a mask in
//! place of the `%` ([`contains_any_probe`](BloomFilter::contains_any_probe)).

use vm_crypto::Digest16;

/// Default filter size in bits (the paper selects m = 2048, §6.3.2).
pub const DEFAULT_M_BITS: usize = 2048;

/// Default number of hash functions.
///
/// Realistic per-minute neighbor counts in traffic are tens of vehicles
/// (≤ [`crate::types::MAX_NEIGHBORS`]); k = 8 keeps the per-query false
/// positive rate ≈ 10⁻⁴ at 50 neighbors (100 inserted VDs).
pub const DEFAULT_K: usize = 8;

/// The largest filter, in bits, a [`ProbeKey`] can address: its halves
/// keep 16 bits each.
pub const PROBE_KEY_MAX_M_BITS: usize = 1 << 16;

/// The double-hashing halves of a key: `h1` and the odd-forced stride
/// `h2` (odd so that, for a power-of-two `m`, the stride visits every
/// slot), shared by [`BloomFilter::insert`], [`BloomFilter::contains`]
/// and [`ProbeKey::of`].
#[inline]
fn probe_halves(key: &Digest16) -> (u64, u64) {
    (key.low_u64(), key.high_u64() | 1)
}

/// Probe slot `i` of the double-hashing sequence `h1 + i·h2 mod m`.
#[inline]
fn probe_slot(h1: u64, h2: u64, m: u64, i: u64) -> u64 {
    h1.wrapping_add(i.wrapping_mul(h2)) % m
}

/// A key's probe sequence in 4 bytes: the low 16 bits of `h1` and of
/// the odd stride `h2`.
///
/// When `m` is a power of two, `(h1 + i·h2) mod 2^64 mod m` keeps only
/// the low `log2 m` bits of the sum, and those depend only on the low
/// `log2 m` bits of `h1` and `h2`. So for every `m ≤ 2^16` that is a
/// power of two, [`BloomFilter::contains_any_probe`] visits exactly the
/// slots [`BloomFilter::contains`] visits for the full digest: a
/// quarter of a [`Digest16`] answers the same linkage test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeKey(u32);

impl ProbeKey {
    /// The probe key of a full Bloom key.
    #[inline]
    pub fn of(key: &Digest16) -> ProbeKey {
        let (h1, h2) = probe_halves(key);
        ProbeKey((h1 & 0xffff) as u32 | ((h2 & 0xffff) as u32) << 16)
    }

    /// `(h1, h2)` truncated to 16 bits each.
    #[inline]
    fn halves(self) -> (u32, u32) {
        (self.0 & 0xffff, self.0 >> 16)
    }
}

/// A fixed-size Bloom filter keyed by [`Digest16`] values.
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    m_bits: usize,
    k: usize,
}

impl std::fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BloomFilter(m={}, k={}, ones={})",
            self.m_bits,
            self.k,
            self.count_ones()
        )
    }
}

impl Default for BloomFilter {
    fn default() -> Self {
        Self::new(DEFAULT_M_BITS, DEFAULT_K)
    }
}

impl BloomFilter {
    /// Create an empty filter with `m_bits` bits and `k` hash functions.
    pub fn new(m_bits: usize, k: usize) -> Self {
        assert!(
            m_bits >= 8 && m_bits.is_multiple_of(8),
            "m must be a byte multiple"
        );
        assert!(k >= 1, "at least one hash function");
        BloomFilter {
            bits: vec![0u8; m_bits / 8],
            m_bits,
            k,
        }
    }

    /// Reconstruct a filter from its wire bytes.
    pub fn from_bytes(bytes: Vec<u8>, k: usize) -> Self {
        assert!(!bytes.is_empty());
        let m_bits = bytes.len() * 8;
        BloomFilter {
            bits: bytes,
            m_bits,
            k,
        }
    }

    /// Size in bits.
    pub fn m_bits(&self) -> usize {
        self.m_bits
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Wire bytes (m/8 bytes; 256 for the default).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Slot indices for a key: double hashing `h1 + i*h2 mod m` over the
    /// two 64-bit halves of the digest.
    fn slots(&self, key: &Digest16) -> impl Iterator<Item = usize> + '_ {
        let (h1, h2) = probe_halves(key);
        let m = self.m_bits as u64;
        (0..self.k as u64).map(move |i| probe_slot(h1, h2, m, i) as usize)
    }

    /// Insert a key (allocation-free: slot indices are recomputed inline
    /// rather than collected, since insertion is on the per-second VD
    /// receive path).
    pub fn insert(&mut self, key: &Digest16) {
        let (h1, h2) = probe_halves(key);
        let m = self.m_bits as u64;
        for i in 0..self.k as u64 {
            let s = probe_slot(h1, h2, m, i) as usize;
            self.bits[s / 8] |= 1 << (s % 8);
        }
    }

    /// Query a key: true means "possibly present".
    pub fn contains(&self, key: &Digest16) -> bool {
        self.slots(key)
            .all(|s| self.bits[s / 8] & (1 << (s % 8)) != 0)
    }

    /// Does any of `keys` possibly pass this filter? The same answer
    /// as [`contains`](Self::contains) over the keys' full digests, but
    /// only for filters whose `m` is a power of two no larger than
    /// [`PROBE_KEY_MAX_M_BITS`] (see [`ProbeKey`]); `None` for any
    /// other geometry, which only a hand-built wire record carries.
    ///
    /// Slots come from a mask instead of a 64-bit `%`, and each key's
    /// `k` probes are tested four at a time, so a key stops at the
    /// first group with a clear bit.
    pub fn contains_any_probe(&self, keys: &[ProbeKey]) -> Option<bool> {
        if !self.m_bits.is_power_of_two() || self.m_bits > PROBE_KEY_MAX_M_BITS {
            return None;
        }
        let mask = self.m_bits as u32 - 1;
        let k = self.k as u32;
        let set = |s: u32| self.bits[(s >> 3) as usize] >> (s & 7) & 1 != 0;
        Some(keys.iter().any(|key| {
            let (h1, h2) = key.halves();
            let mut i = 0;
            while i < k {
                let end = k.min(i + 4);
                let mut all = true;
                while i < end {
                    all &= set(h1.wrapping_add(i.wrapping_mul(h2)) & mask);
                    i += 1;
                }
                if !all {
                    return false;
                }
            }
            true
        }))
    }

    /// Number of set bits (diagnostics; also used to reject trivially
    /// poisoned all-ones filters, §6.3.2).
    ///
    /// Word-at-a-time popcount: the filter is scanned as `u64` words (one
    /// `popcnt` each on x86-64) instead of per byte — this runs on every
    /// submission via [`is_suspicious`](Self::is_suspicious) and per
    /// member during viewlink prefiltering.
    pub fn count_ones(&self) -> usize {
        let mut words = self.bits.chunks_exact(8);
        let mut ones: usize = 0;
        for w in &mut words {
            let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            ones += word.count_ones() as usize;
        }
        for b in words.remainder() {
            ones += b.count_ones() as usize;
        }
        ones
    }

    /// Fill ratio in [0, 1].
    pub fn fill_ratio(&self) -> f64 {
        self.count_ones() as f64 / self.m_bits as f64
    }

    /// A saturated filter claims neighborship with everyone — the paper
    /// notes attackers may fabricate all-ones bit-arrays. The server
    /// rejects filters whose fill ratio is implausible for the neighbor
    /// cap (§6.3.2).
    pub fn is_suspicious(&self, max_neighbors: usize) -> bool {
        // 2 VDs per neighbor, k bits each: expected fill ≤ 1-exp(-2nk/m).
        let expected = 1.0 - (-((2 * max_neighbors * self.k) as f64) / self.m_bits as f64).exp();
        self.fill_ratio() > (expected * 1.15).min(0.98)
    }
}

/// Closed-form two-way false-linkage rate (Fig. 14): a single filter with
/// `n` neighbor keys inserted using `k` hash functions has false-positive
/// rate `(1 - (1-1/m)^{nk})^k`; the two-way linkage check squares it.
pub fn false_linkage_rate(m_bits: usize, n_neighbors: usize, k: usize) -> f64 {
    let m = m_bits as f64;
    let single = (1.0 - (1.0 - 1.0 / m).powf((n_neighbors * k) as f64)).powi(k as i32);
    single * single
}

/// The optimal hash-function count `k = (m/n) ln 2` used by the paper's
/// Fig. 14 sweep.
pub fn optimal_k(m_bits: usize, n_neighbors: usize) -> usize {
    (((m_bits as f64 / n_neighbors.max(1) as f64) * std::f64::consts::LN_2).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn key(i: u64) -> Digest16 {
        Digest16::hash(&i.to_le_bytes())
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::default();
        for i in 0..500 {
            f.insert(&key(i));
        }
        for i in 0..500 {
            assert!(f.contains(&key(i)), "false negative for {i}");
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::default();
        for i in 0..100 {
            assert!(!f.contains(&key(i)));
        }
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn false_positive_rate_is_low_at_design_load() {
        // 50 neighbors × 2 VDs = 100 keys in a 2048-bit filter with k=8.
        let mut f = BloomFilter::default();
        for i in 0..100 {
            f.insert(&key(i));
        }
        let fps = (10_000..60_000).filter(|&i| f.contains(&key(i))).count();
        let rate = fps as f64 / 50_000.0;
        assert!(rate < 0.005, "per-query fp rate {rate}");
    }

    #[test]
    fn wire_roundtrip() {
        let mut f = BloomFilter::default();
        for i in 0..32 {
            f.insert(&key(i));
        }
        let bytes = f.as_bytes().to_vec();
        assert_eq!(bytes.len(), 256);
        let g = BloomFilter::from_bytes(bytes, DEFAULT_K);
        assert_eq!(f, g);
        for i in 0..32 {
            assert!(g.contains(&key(i)));
        }
    }

    #[test]
    fn saturated_filter_is_suspicious() {
        let mut f = BloomFilter::default();
        let mut i = 0u64;
        while f.fill_ratio() < 0.995 {
            f.insert(&key(i));
            i += 1;
        }
        assert!(f.is_suspicious(crate::types::MAX_NEIGHBORS));
    }

    #[test]
    fn normal_filter_is_not_suspicious() {
        let mut f = BloomFilter::default();
        for i in 0..100 {
            f.insert(&key(i)); // 50 neighbors' worth
        }
        assert!(!f.is_suspicious(crate::types::MAX_NEIGHBORS));
    }

    #[test]
    fn closed_form_matches_paper_design_point() {
        // §6.3.2: m = 2048 bits has ~0.1% false linkage at 300 neighbors
        // with the optimal k.
        let k = optimal_k(2048, 300);
        let p = false_linkage_rate(2048, 300, k);
        assert!(p > 0.0005 && p < 0.003, "paper design point: {p}");
    }

    #[test]
    fn closed_form_monotone_in_m() {
        let n = 200;
        let rates: Vec<f64> = [1024, 2048, 3072, 4096]
            .iter()
            .map(|&m| false_linkage_rate(m, n, optimal_k(m, n)))
            .collect();
        for w in rates.windows(2) {
            assert!(w[1] < w[0], "bigger filters must link falsely less");
        }
    }

    #[test]
    fn probe_keys_answer_exactly_what_full_keys_answer() {
        // Every power-of-two m the probe keys can address, every k in
        // 1..=16, filters loaded from empty to saturated: the masked
        // probe answers each random key, and each random group of keys,
        // exactly as `contains` does on the full digests.
        let mut rng = StdRng::seed_from_u64(0xB1005);
        let (mut hits, mut misses) = (0usize, 0usize);
        for log_m in 3..=16 {
            let m = 1usize << log_m;
            for k in 1..=16 {
                let mut f = BloomFilter::new(m, k);
                for _ in 0..rng.gen_range(0..=m / k + 1) {
                    f.insert(&Digest16(rng.gen()));
                }
                let keys: Vec<Digest16> = (0..96).map(|_| Digest16(rng.gen())).collect();
                for key in &keys {
                    let full = f.contains(key);
                    assert_eq!(
                        f.contains_any_probe(&[ProbeKey::of(key)]),
                        Some(full),
                        "m={m} k={k} {key:?}"
                    );
                    if full {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                for group in keys.chunks(3) {
                    let probes: Vec<ProbeKey> = group.iter().map(ProbeKey::of).collect();
                    assert_eq!(
                        f.contains_any_probe(&probes),
                        Some(group.iter().any(|key| f.contains(key))),
                        "m={m} k={k}"
                    );
                }
            }
        }
        assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
    }

    #[test]
    fn probe_keys_refuse_filters_they_cannot_address() {
        let probe = [ProbeKey::of(&key(1))];
        for m in [24, 8008, 3 << 10, PROBE_KEY_MAX_M_BITS << 1] {
            assert_eq!(
                BloomFilter::new(m, 8).contains_any_probe(&probe),
                None,
                "m={m}"
            );
        }
        let f = BloomFilter::new(PROBE_KEY_MAX_M_BITS, 8);
        assert_eq!(f.contains_any_probe(&probe), Some(false));
        assert_eq!(f.contains_any_probe(&[]), Some(false));
    }

    #[test]
    #[should_panic(expected = "byte multiple")]
    fn non_byte_size_rejected() {
        let _ = BloomFilter::new(1001, 4);
    }
}
