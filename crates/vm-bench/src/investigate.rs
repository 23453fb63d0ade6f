//! Synthetic city-scale worlds and the naive reference engines.
//!
//! [`SynthWorld`] is the seeded population the determinism suites and the
//! 100k topology pin build on; [`naive_build`] and [`naive_verify`] are
//! verbatim replicas of the pre-optimization build/verify algorithms,
//! kept as the oracles the optimized engines are compared against.
//!
//! The synthetic generator produces [`StoredVp`]s that are *structurally*
//! real — 60 VDs along a straight constant-speed trajectory, Bloom filters
//! wired pairwise like a genuine DSRC exchange (first + last element VD of
//! each neighbor) — but with fabricated cascade hashes, since
//! investigations never re-derive video chains. Density is held constant
//! as the population scales (the area grows), matching how a city adds
//! traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use viewmap_core::trustrank::{self, Verification};
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use viewmap_core::BloomFilter;
use vm_crypto::Digest16;
use vm_geo::{GridIndex, Point};

/// VPs per km² (dense urban traffic; the paper's §6 area carries
/// 50–200 vehicles in 16 km²; a city-scale service sees far more).
pub const DENSITY_PER_KM2: f64 = 60.0;

/// Max Bloom-wired neighbors per VP (well under the protocol's 250 cap).
const WIRE_NEIGHBOR_CAP: usize = 24;

/// A synthetic minute of city traffic.
pub struct SynthWorld {
    /// All VPs of the minute (VP 0 is the trusted seed at the center).
    pub vps: Vec<StoredVp>,
    /// Side length of the square area, meters.
    pub side_m: f64,
    /// The investigation site (covers the full area, so verification
    /// exercises the entire graph).
    pub site: Site,
    /// The minute.
    pub minute: MinuteId,
}

fn synth_id(tag: u64) -> VpId {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&tag.to_le_bytes());
    b[8..].copy_from_slice(&(!tag).to_le_bytes());
    VpId(Digest16(b))
}

fn synth_vp(tag: u64, start: GeoPos, vel: (f64, f64), trusted: bool) -> StoredVp {
    let id = synth_id(tag);
    let vds: Vec<ViewDigest> = (1..=SECONDS_PER_VP as u16)
        .map(|seq| {
            let t = seq as f64;
            let mut h = [0u8; 16];
            h[..8].copy_from_slice(&tag.to_le_bytes());
            h[8..10].copy_from_slice(&seq.to_le_bytes());
            ViewDigest {
                seq,
                flags: 0,
                time: seq as u64,
                loc: GeoPos::new(start.x + vel.0 * t, start.y + vel.1 * t),
                file_size: seq as u64 * 875 * 1024,
                initial_loc: start,
                vp_id: id,
                hash: Digest16(h),
            }
        })
        .collect();
    StoredVp::new(id, vds, BloomFilter::default(), trusted)
}

impl SynthWorld {
    /// Generate `n` VPs at constant density with pairwise-wired Blooms.
    pub fn generate(n: usize, seed: u64) -> SynthWorld {
        assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let side_m = ((n as f64 / DENSITY_PER_KM2).sqrt() * 1000.0).max(500.0);
        let center = GeoPos::new(side_m / 2.0, side_m / 2.0);

        let mut vps: Vec<StoredVp> = (0..n as u64)
            .map(|tag| {
                let trusted = tag == 0;
                let start = if trusted {
                    center
                } else {
                    GeoPos::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m))
                };
                let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let speed: f64 = rng.gen_range(8.0..16.0); // 29–58 km/h
                synth_vp(
                    tag,
                    start,
                    (speed * heading.cos(), speed * heading.sin()),
                    trusted,
                )
            })
            .collect();

        wire_blooms(&mut vps);

        SynthWorld {
            vps,
            side_m,
            site: Site {
                center,
                radius_m: side_m, // whole-area investigation
            },
            minute: MinuteId(0),
        }
    }

    /// A seeded `+n` churn delta for the same minute and area: fresh
    /// untrusted VPs with ids disjoint from any [`generate`] population
    /// (high tag offset), wired pairwise among themselves exactly like
    /// the base world. The 100k topology pin grows the pinned world by
    /// this batch.
    ///
    /// The delta is associated to the base only through `side_m` — the
    /// base population is untouched, so a world generated by
    /// [`SynthWorld::generate`] stays bit-identical whether or not a
    /// delta is ever drawn from it (the pinned topology constants keep
    /// holding).
    ///
    /// [`generate`]: SynthWorld::generate
    pub fn delta(side_m: f64, n: usize, seed: u64) -> Vec<StoredVp> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_17a0);
        let mut vps: Vec<StoredVp> = (0..n as u64)
            .map(|i| {
                let tag = (1u64 << 40) | i;
                let start = GeoPos::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m));
                let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let speed: f64 = rng.gen_range(8.0..16.0);
                synth_vp(
                    tag,
                    start,
                    (speed * heading.cos(), speed * heading.sin()),
                    false,
                )
            })
            .collect();
        wire_blooms(&mut vps);
        vps
    }
}

/// Wire Bloom filters for pairs within DSRC range at the minute start,
/// capped per VP: each side inserts the other's first and last element
/// VD keys, exactly what a real exchange retains.
fn wire_blooms(vps: &mut [StoredVp]) {
    let n = vps.len();
    let grid = GridIndex::build(
        400.0,
        vps.iter()
            .enumerate()
            .map(|(i, vp)| (i, Point::new(vp.start_loc().x, vp.start_loc().y))),
    );
    let keys: Vec<[Digest16; 2]> = vps
        .iter()
        .map(|vp| {
            [
                vp.vds.first().expect("60 VDs").bloom_key(),
                vp.vds.last().expect("60 VDs").bloom_key(),
            ]
        })
        .collect();
    let mut wired = vec![0usize; n];
    let mut hits = Vec::new();
    for i in 0..n {
        let sl = vps[i].start_loc();
        let p = Point::new(sl.x, sl.y);
        grid.query_radius_into(&p, 380.0, &mut hits);
        hits.sort_unstable();
        for &j in &hits {
            if j <= i || wired[i] >= WIRE_NEIGHBOR_CAP || wired[j] >= WIRE_NEIGHBOR_CAP {
                continue;
            }
            let (ki, kj) = (keys[i], keys[j]);
            vps[i].bloom.insert(&kj[0]);
            vps[i].bloom.insert(&kj[1]);
            vps[j].bloom.insert(&ki[0]);
            vps[j].bloom.insert(&ki[1]);
            wired[i] += 1;
            wired[j] += 1;
        }
    }
}

// ── Naive baseline (the seed implementation, pre-CSR / pre-grid) ────────

/// The original viewmap construction: spatial grid over *trajectory
/// midpoints* with a worst-case-inflated query radius, per-pair
/// `min_aligned_distance`, and `mutually_linked` re-hashing up to 60 VDs
/// per side per pair. Retained verbatim for the speedup measurement.
pub fn naive_build(
    candidates: &[Arc<StoredVp>],
    site: Site,
    minute: MinuteId,
    cfg: &ViewmapConfig,
) -> Viewmap {
    let in_minute: Vec<&Arc<StoredVp>> = candidates
        .iter()
        .filter(|vp| vp.minute() == minute && !vp.vds.is_empty())
        .collect();

    let mut trusted_refs: Vec<&Arc<StoredVp>> =
        in_minute.iter().copied().filter(|vp| vp.trusted).collect();
    let nearest = |vp: &StoredVp, p: &GeoPos| -> f64 {
        vp.vds
            .iter()
            .map(|vd| vd.loc.distance(p))
            .fold(f64::INFINITY, f64::min)
    };
    trusted_refs.sort_by(|a, b| {
        let da = nearest(a, &site.center);
        let db = nearest(b, &site.center);
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    });
    let coverage_radius = trusted_refs
        .first()
        .map(|vp| nearest(vp, &site.center))
        .unwrap_or(0.0)
        .max(site.radius_m)
        + cfg.coverage_margin_m;

    let mut vps: Vec<Arc<StoredVp>> = Vec::new();
    for vp in &in_minute {
        let admit = vp.trusted
            || vp
                .vds
                .iter()
                .any(|vd| vd.loc.distance(&site.center) <= coverage_radius);
        if admit {
            vps.push(Arc::clone(vp));
        }
    }

    let mid = |vp: &StoredVp| {
        let a = vp.start_loc();
        let b = vp.end_loc();
        Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    };
    let grid = GridIndex::build(500.0, vps.iter().enumerate().map(|(i, vp)| (i, mid(vp))));
    let max_half_span = vps
        .iter()
        .map(|vp| vp.start_loc().distance(&vp.end_loc()) / 2.0)
        .fold(0.0f64, f64::max);
    let query_r = cfg.dsrc_radius_m + 2.0 * max_half_span + 1.0;

    let mut adj = vec![Vec::new(); vps.len()];
    for i in 0..vps.len() {
        for j in grid.query_radius(&mid(&vps[i]), query_r) {
            if j <= i {
                continue;
            }
            let close = vps[i]
                .min_aligned_distance(&vps[j])
                .is_some_and(|d| d <= cfg.dsrc_radius_m);
            if close && vps[i].mutually_linked(&vps[j]) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }

    let trusted = vps
        .iter()
        .enumerate()
        .filter(|(_, vp)| vp.trusted)
        .map(|(i, _)| i)
        .collect();
    Viewmap {
        vps,
        adj,
        trusted,
        minute,
    }
}

/// The original Algorithm 1 driver: scatter-style TrustRank over
/// adjacency lists ([`trustrank::trust_scores_reference`]) plus the
/// site-restricted BFS.
pub fn naive_verify(vm: &Viewmap, site: &Site, cfg: &ViewmapConfig) -> Verification {
    let site_idx = vm.site_members(site);
    if vm.trusted.is_empty() {
        return Verification {
            scores: vec![0.0; vm.vps.len()],
            top: None,
            legitimate: Vec::new(),
        };
    }
    let (scores, _) =
        trustrank::trust_scores_reference(&vm.adj, &vm.trusted, cfg.damping, 1e-10, 1000);
    let top = site_idx.iter().copied().max_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut legitimate = Vec::new();
    if let Some(u) = top {
        let in_site: std::collections::HashSet<usize> = site_idx.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(u);
        queue.push_back(u);
        while let Some(v) = queue.pop_front() {
            legitimate.push(v);
            for &w in &vm.adj[v] {
                if in_site.contains(&w) && seen.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        legitimate.sort_unstable();
    }
    Verification {
        scores,
        top,
        legitimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_world_is_well_formed() {
        let w = SynthWorld::generate(300, 7);
        assert_eq!(w.vps.len(), 300);
        assert!(w.vps[0].trusted && !w.vps[1].trusted);
        for vp in &w.vps {
            assert_eq!(vp.vds.len(), 60);
            assert_eq!(vp.minute(), MinuteId(0));
        }
        // Wiring produced mutual links between near neighbors.
        let linked = w.vps.iter().filter(|vp| vp.bloom.count_ones() > 0).count();
        assert!(linked > 250, "only {linked} VPs wired");
    }

    #[test]
    fn optimized_build_matches_naive_build() {
        // The per-second grid + precomputed-key path must produce exactly
        // the edge set of the seed algorithm on the same population.
        let w = SynthWorld::generate(400, 11);
        let cfg = ViewmapConfig::default();
        let arcs: Vec<Arc<StoredVp>> = w.vps.iter().cloned().map(Arc::new).collect();
        let fast = Viewmap::build(&arcs, w.site, w.minute, &cfg);
        let naive = naive_build(&arcs, w.site, w.minute, &cfg);
        assert_eq!(fast.len(), naive.len());
        assert_eq!(fast.edge_count(), naive.edge_count());
        for i in 0..fast.len() {
            let mut a = fast.adj[i].clone();
            let mut b = naive.adj[i].clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "edge lists differ at node {i}");
        }
        // And verification agrees end to end.
        let (v_fast, _) = fast.verify(&w.site, &cfg);
        let v_naive = naive_verify(&naive, &w.site, &cfg);
        assert_eq!(v_fast.top, v_naive.top);
        assert_eq!(v_fast.legitimate, v_naive.legitimate);
    }
}
