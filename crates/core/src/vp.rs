//! View profiles (VPs) — the 1-minute video summaries (Section 5.1.1).
//!
//! A VP compiles the 60 view digests of one video together with a Bloom
//! filter over the neighbor VDs retained that minute (at most two per
//! neighbor). VPs are what vehicles upload — videos themselves never leave
//! the vehicle unless solicited. The user-side storage cost is exactly the
//! paper's accounting: 60×72 B of VDs + 256 B of filter + 8 B secret
//! = 4584 B per minute of video (Section 6.1).

use crate::bloom::BloomFilter;
use crate::neighbor::{Accept, NeighborRecord, NeighborTable};
use crate::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use crate::vd::{VdChain, ViewDigest, VD_WIRE_BYTES};
use rand::Rng;
use std::sync::OnceLock;

/// What kind of VP this is — known only on the vehicle (and, for trusted
/// VPs, to the authority that produced them). From the server's viewpoint
/// actual and guard VPs are indistinguishable (footnote 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VpKind {
    /// A real recording's VP.
    Actual,
    /// A path-obfuscation VP (no video behind it).
    Guard,
    /// A VP from an authority vehicle (trust seed).
    Trusted,
}

/// A complete view profile as assembled on the vehicle.
#[derive(Clone, Debug)]
pub struct ViewProfile {
    /// The 60 per-second view digests.
    pub vds: Vec<ViewDigest>,
    /// Bloom filter over retained neighbor VDs (`N_u`).
    pub bloom: BloomFilter,
    /// Vehicle-side kind tag (not on the wire).
    pub kind: VpKind,
}

impl ViewProfile {
    /// The VP identifier `R_u`.
    pub fn id(&self) -> VpId {
        self.vds
            .first()
            .map(|vd| vd.vp_id)
            .unwrap_or(VpId(vm_crypto::Digest16::ZERO))
    }

    /// User-side storage bytes for this VP (+8-byte secret for actual VPs):
    /// the paper's 4584-byte figure.
    pub fn user_storage_bytes(&self) -> usize {
        self.vds.len() * VD_WIRE_BYTES + self.bloom.as_bytes().len() + 8
    }

    /// Upload (wire) bytes: VDs + Bloom filter. The secret never leaves
    /// the vehicle.
    pub fn wire_bytes(&self) -> usize {
        self.vds.len() * VD_WIRE_BYTES + self.bloom.as_bytes().len()
    }

    /// Convert into the server-side stored form.
    pub fn into_stored(self) -> StoredVp {
        let id = self.id();
        let trusted = self.kind == VpKind::Trusted;
        StoredVp::new(id, self.vds, self.bloom, trusted)
    }
}

/// A VP as stored in the server's VP database. No owner identity, no
/// secret; `trusted` is set only for authority-submitted VPs.
#[derive(Clone, Debug)]
pub struct StoredVp {
    /// VP identifier `R_u`.
    pub id: VpId,
    /// The 60 view digests.
    pub vds: Vec<ViewDigest>,
    /// Neighbor fingerprint filter `N_u`.
    pub bloom: BloomFilter,
    /// Authority trust seed?
    pub trusted: bool,
    /// Lazily materialized element-VD Bloom keys (see
    /// [`link_keys`](Self::link_keys)): 60 SHA-256 digests that every
    /// viewmap build of this VP's minute would otherwise recompute.
    link_keys: OnceLock<Box<[vm_crypto::Digest16]>>,
}

impl StoredVp {
    /// Assemble a stored VP. (`link_keys` starts empty; it fills on first
    /// [`link_keys`](Self::link_keys) call.)
    pub fn new(id: VpId, vds: Vec<ViewDigest>, bloom: BloomFilter, trusted: bool) -> Self {
        StoredVp {
            id,
            vds,
            bloom,
            trusted,
            link_keys: OnceLock::new(),
        }
    }

    /// Absolute start second of the minute this VP covers.
    pub fn start_time(&self) -> u64 {
        self.vds
            .first()
            .map(|vd| vd.time.saturating_sub(1))
            .unwrap_or(0)
    }

    /// The minute this VP belongs to.
    pub fn minute(&self) -> MinuteId {
        MinuteId::of_second(self.start_time())
    }

    /// First claimed position.
    pub fn start_loc(&self) -> GeoPos {
        self.vds
            .first()
            .map(|vd| vd.loc)
            .unwrap_or(GeoPos::new(0.0, 0.0))
    }

    /// Last claimed position.
    pub fn end_loc(&self) -> GeoPos {
        self.vds
            .last()
            .map(|vd| vd.loc)
            .unwrap_or(GeoPos::new(0.0, 0.0))
    }

    /// Do the recorded time ranges of the two VPs overlap at all? O(1);
    /// false means [`min_aligned_distance`](Self::min_aligned_distance)
    /// is `None`.
    pub fn time_ranges_overlap(&self, other: &StoredVp) -> bool {
        match (
            self.vds.first(),
            self.vds.last(),
            other.vds.first(),
            other.vds.last(),
        ) {
            (Some(sf), Some(sl), Some(of), Some(ol)) => sf.time <= ol.time && of.time <= sl.time,
            _ => false,
        }
    }

    /// Minimum time-aligned distance between two VPs' trajectories
    /// (`None` if they share no common seconds). Short-circuits on
    /// disjoint time ranges before touching the per-second data.
    pub fn min_aligned_distance(&self, other: &StoredVp) -> Option<f64> {
        if !self.time_ranges_overlap(other) {
            return None;
        }
        let mut best: Option<f64> = None;
        let mut j = 0usize;
        for vd in &self.vds {
            while j < other.vds.len() && other.vds[j].time < vd.time {
                j += 1;
            }
            if j < other.vds.len() && other.vds[j].time == vd.time {
                let d = vd.loc.distance(&other.vds[j].loc);
                best = Some(best.map_or(d, |b: f64| b.min(d)));
            }
        }
        best
    }

    /// The Bloom keys of this VP's element VDs, computed once. Viewmap
    /// construction caches these per member so the pairwise two-way
    /// linkage checks stop re-hashing 60 VDs per candidate pair. The 60
    /// digests are independent messages, so they run through the
    /// multi-buffer engine ([`crate::vd::bloom_keys_many`]) rather than
    /// one serial hash chain at a time.
    pub fn bloom_keys(&self) -> Vec<vm_crypto::Digest16> {
        crate::vd::bloom_keys_many(&self.vds)
    }

    /// The element-VD Bloom keys, hashed on first call and cached for the
    /// VP's lifetime: investigations of the same minute (and the
    /// cold builds the equivalence tests compare against) share one
    /// hashing pass per VP. Safe to race — [`OnceLock`] keeps the first
    /// result. Callers that mutate `vds` after a build (test-only surgery)
    /// must construct a fresh `StoredVp` to avoid serving stale keys.
    pub fn link_keys(&self) -> &[vm_crypto::Digest16] {
        self.link_keys
            .get_or_init(|| self.bloom_keys().into_boxed_slice())
    }

    /// Is the element-VD key cache already materialized? Observability
    /// hook for the ingest paths that promise warm keys
    /// (`submit_batch_warm`, `submit_trusted_batch`) and for log replay,
    /// which promises cold ones: tests assert on it, and capacity
    /// planning can count warm VPs without hashing anything.
    pub fn is_key_warm(&self) -> bool {
        self.link_keys.get().is_some()
    }

    /// One-way linkage test against precomputed element keys (see
    /// [`bloom_keys`](Self::bloom_keys)).
    pub fn links_to_keys(&self, other_keys: &[vm_crypto::Digest16]) -> bool {
        other_keys.iter().any(|k| self.bloom.contains(k))
    }

    /// One-way linkage test: does any of `other`'s element VDs pass this
    /// VP's Bloom filter?
    pub fn links_to(&self, other: &StoredVp) -> bool {
        other
            .vds
            .iter()
            .any(|vd| self.bloom.contains(&vd.bloom_key()))
    }

    /// The paper's two-way viewlink validation (Section 5.2.1).
    pub fn mutually_linked(&self, other: &StoredVp) -> bool {
        self.links_to(other) && other.links_to(self)
    }
}

/// Everything a vehicle ends a minute with: the finalized VP, the secret
/// behind its identifier, and the neighbor records needed for guard-VP
/// creation.
#[derive(Clone, Debug)]
pub struct FinalizedMinute {
    /// The actual VP (bloom already covers real neighbors; guard VDs can
    /// still be added by [`crate::guard`]).
    pub profile: ViewProfile,
    /// Secret number `Q_u` (kept by the owner for solicitation/reward).
    pub secret: [u8; 8],
    /// Neighbor records observed this minute.
    pub neighbors: Vec<NeighborRecord>,
}

/// Vehicle-side builder: drives one minute of recording, broadcasting, and
/// neighbor bookkeeping, then finalizes the VP.
#[derive(Clone, Debug)]
pub struct VpBuilder {
    chain: VdChain,
    secret: [u8; 8],
    kind: VpKind,
    own_vds: Vec<ViewDigest>,
    table: NeighborTable,
}

impl VpBuilder {
    /// Start a minute at absolute second `start_time` and initial location
    /// `loc`, with a freshly drawn secret.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, start_time: u64, loc: GeoPos, kind: VpKind) -> Self {
        let mut secret = [0u8; 8];
        rng.fill(&mut secret);
        VpBuilder {
            chain: VdChain::new(secret, start_time, loc),
            secret,
            kind,
            own_vds: Vec::with_capacity(SECONDS_PER_VP as usize),
            table: NeighborTable::new(),
        }
    }

    /// This VP's identifier.
    pub fn vp_id(&self) -> VpId {
        self.chain.vp_id()
    }

    /// Record one second of video and produce the VD to broadcast.
    pub fn record_second(&mut self, chunk: &[u8], loc: GeoPos) -> ViewDigest {
        let vd = self.chain.extend(chunk, loc);
        self.own_vds.push(vd);
        vd
    }

    /// Offer a received neighbor VD (validated per Section 5.1.1).
    pub fn accept_neighbor_vd(&mut self, vd: ViewDigest, now: u64, my_loc: GeoPos) -> Accept {
        self.table.observe(vd, now, my_loc)
    }

    /// Current number of distinct neighbors.
    pub fn neighbor_count(&self) -> usize {
        self.table.len()
    }

    /// Seconds recorded so far.
    pub fn seconds(&self) -> u16 {
        self.chain.seconds()
    }

    /// Finalize the minute: build the Bloom filter over the retained
    /// neighbor VDs (first and last per neighbor) and compile the VP.
    ///
    /// Panics if fewer than 1 second was recorded.
    pub fn finalize(self) -> FinalizedMinute {
        assert!(!self.own_vds.is_empty(), "nothing recorded this minute");
        let mut bloom = BloomFilter::default();
        let neighbors: Vec<NeighborRecord> = self.table.records().cloned().collect();
        for rec in &neighbors {
            bloom.insert(&rec.first.bloom_key());
            if rec.last != rec.first {
                bloom.insert(&rec.last.bloom_key());
            }
        }
        FinalizedMinute {
            profile: ViewProfile {
                vds: self.own_vds,
                bloom,
                kind: self.kind,
            },
            secret: self.secret,
            neighbors,
        }
    }
}

/// Drive two builders through a minute of mutual VD exchange (test/demo
/// helper): every second both record and each receives the other's VD.
pub fn exchange_minute<R: Rng + ?Sized>(
    rng: &mut R,
    start_time: u64,
    path_a: impl Fn(u64) -> GeoPos,
    path_b: impl Fn(u64) -> GeoPos,
) -> (FinalizedMinute, FinalizedMinute) {
    let mut a = VpBuilder::new(rng, start_time, path_a(0), VpKind::Actual);
    let mut b = VpBuilder::new(rng, start_time, path_b(0), VpKind::Actual);
    for s in 0..SECONDS_PER_VP {
        let now = start_time + s + 1;
        let la = path_a(s);
        let lb = path_b(s);
        let vda = a.record_second(&s.to_le_bytes(), la);
        let vdb = b.record_second(&(s + 1000).to_le_bytes(), lb);
        a.accept_neighbor_vd(vdb, now, la);
        b.accept_neighbor_vd(vda, now, lb);
    }
    (a.finalize(), b.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_pair(seed: u64, gap_m: f64) -> (StoredVp, StoredVp) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (fa, fb) = exchange_minute(
            &mut rng,
            0,
            move |s| GeoPos::new(s as f64 * 10.0, 0.0),
            move |s| GeoPos::new(s as f64 * 10.0, gap_m),
        );
        (fa.profile.into_stored(), fb.profile.into_stored())
    }

    #[test]
    fn storage_matches_paper_4584_bytes() {
        let mut rng = StdRng::seed_from_u64(1);
        let (fa, _) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 50.0),
        );
        assert_eq!(fa.profile.user_storage_bytes(), 4584);
        assert_eq!(fa.profile.wire_bytes(), 4576);
    }

    #[test]
    fn storage_overhead_below_paper_bound() {
        // §6.1: < 0.01% of a 50 MB 1-min video.
        let overhead = 4584.0 / (50.0 * 1024.0 * 1024.0);
        assert!(overhead < 0.0001);
    }

    #[test]
    fn mutual_exchange_produces_two_way_link() {
        let (a, b) = run_pair(2, 50.0);
        assert!(a.mutually_linked(&b));
        assert!(b.mutually_linked(&a));
    }

    #[test]
    fn strangers_do_not_link() {
        let (a, _) = run_pair(3, 50.0);
        let (_, c) = run_pair(4, 50.0);
        assert!(!a.mutually_linked(&c));
    }

    #[test]
    fn one_way_knowledge_is_not_enough() {
        // C overhears A's VDs and inserts them into its own bloom, but A
        // never heard C: no two-way link.
        let mut rng = StdRng::seed_from_u64(5);
        let (fa, _) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 10.0),
        );
        let a = fa.profile.clone().into_stored();
        let mut eavesdropper = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 5.0), VpKind::Actual);
        for s in 0..SECONDS_PER_VP {
            eavesdropper.record_second(b"spy", GeoPos::new(s as f64, 5.0));
        }
        // Manually poison the eavesdropper's bloom with A's VDs.
        let mut fin = eavesdropper.finalize();
        for vd in &fa.profile.vds {
            fin.profile.bloom.insert(&vd.bloom_key());
        }
        let c = fin.profile.into_stored();
        assert!(c.links_to(&a), "eavesdropper claims to have heard A");
        assert!(!a.links_to(&c), "A never heard the eavesdropper");
        assert!(!a.mutually_linked(&c), "two-way check defeats the claim");
    }

    #[test]
    fn min_aligned_distance_reflects_geometry() {
        let (a, b) = run_pair(6, 120.0);
        let d = a.min_aligned_distance(&b).expect("same minute");
        assert!((d - 120.0).abs() < 1e-6);
    }

    #[test]
    fn min_aligned_distance_none_for_different_minutes() {
        let mut rng = StdRng::seed_from_u64(7);
        let (fa, _) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 10.0),
        );
        let (fb, _) = exchange_minute(
            &mut rng,
            60,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 10.0),
        );
        let a = fa.profile.into_stored();
        let b = fb.profile.into_stored();
        assert_eq!(a.min_aligned_distance(&b), None);
        assert_eq!(a.minute(), MinuteId(0));
        assert_eq!(b.minute(), MinuteId(1));
    }

    #[test]
    fn finalize_counts_neighbors() {
        let mut rng = StdRng::seed_from_u64(8);
        let (fa, fb) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 10.0),
        );
        assert_eq!(fa.neighbors.len(), 1);
        assert_eq!(fb.neighbors.len(), 1);
        assert_eq!(fa.neighbors[0].vp_id, fb.profile.id());
        // Contact interval spans (almost) the whole minute.
        assert!(fa.neighbors[0].contact_seconds() >= 55);
    }

    #[test]
    fn vp_id_consistent_with_secret() {
        let mut rng = StdRng::seed_from_u64(9);
        let (fa, _) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 10.0),
        );
        assert_eq!(VpId::from_secret(&fa.secret), fa.profile.id());
    }

    #[test]
    fn out_of_range_vehicles_never_become_neighbors() {
        let mut rng = StdRng::seed_from_u64(10);
        let (fa, fb) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(s as f64, 0.0),
            |s| GeoPos::new(s as f64, 500.0), // beyond DSRC range
        );
        assert!(fa.neighbors.is_empty());
        assert!(fb.neighbors.is_empty());
        let a = fa.profile.into_stored();
        let b = fb.profile.into_stored();
        assert!(!a.mutually_linked(&b));
    }

    #[test]
    #[should_panic(expected = "nothing recorded")]
    fn finalize_requires_recording() {
        let mut rng = StdRng::seed_from_u64(11);
        let b = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
        let _ = b.finalize();
    }
}
