//! The neighbor-fingerprint Bloom filter `N_u` (Section 5.1.1, 6.3.2).
//!
//! Each VP carries a 2048-bit (256-byte) Bloom filter summarizing the view
//! digests received from neighbors — at most two (first and last) per
//! neighbor. Viewmap construction validates a candidate edge by querying
//! each VP's element VDs against the *other* VP's filter; the two-way check
//! squares the false-positive rate (Fig. 14).

use vm_crypto::Digest16;

/// Default filter size in bits (the paper selects m = 2048, §6.3.2).
pub const DEFAULT_M_BITS: usize = 2048;

/// Default number of hash functions.
///
/// Realistic per-minute neighbor counts in traffic are tens of vehicles
/// (≤ [`crate::types::MAX_NEIGHBORS`]); k = 8 keeps the per-query false
/// positive rate ≈ 10⁻⁴ at 50 neighbors (100 inserted VDs).
pub const DEFAULT_K: usize = 8;

/// The double-hashing halves of a key: `h1` and the odd-forced stride
/// `h2` (odd so the stride visits every slot of the power-of-two-free
/// modulus), shared by [`BloomFilter::insert`] and
/// [`BloomFilter::contains`].
#[inline]
fn probe_halves(key: &Digest16) -> (u64, u64) {
    (key.low_u64(), key.high_u64() | 1)
}

/// Probe slot `i` of the double-hashing sequence `h1 + i·h2 mod m`.
#[inline]
fn probe_slot(h1: u64, h2: u64, m: u64, i: u64) -> u64 {
    h1.wrapping_add(i.wrapping_mul(h2)) % m
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
    #[should_panic(expected = "byte multiple")]
    fn non_byte_size_rejected() {
        let _ = BloomFilter::new(1001, 4);
    }
}
