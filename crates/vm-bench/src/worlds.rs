//! Deterministic test worlds: every seeded population the equivalence,
//! durability, replication, service and fault-simulation suites feed
//! the system. Each generator is a pure function of its arguments, so
//! any failure replays from the seed alone.
//!
//! * [`linked_minute`] — a minute of vehicles on a line whose Bloom
//!   filters actually wire them into a connected viewmap (so edge
//!   checksums and TrustRank outcomes are meaningful, not vacuously
//!   empty graphs);
//! * [`synthetic_vp`] — one well-formed, unlinked VP per `(tag, minute)`
//!   for suites that count and route VPs rather than investigate them;
//! * [`SynthWorld`] — city-scale minutes at constant density, the
//!   population of the determinism suites and the 100k topology pin;
//! * [`random_graph`] — bare adjacency lists for the TrustRank engines.
//!
//! [`SynthWorld`] VPs are *structurally* real — 60 VDs along a straight
//! constant-speed trajectory, Bloom filters wired pairwise like a genuine
//! DSRC exchange (first + last element VD of each neighbor) — but with
//! fabricated cascade hashes, since investigations never re-derive video
//! chains. Density is held constant as the population scales (the area
//! grows), matching how a city adds traffic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewmap_core::bloom::BloomFilter;
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::viewmap::Site;
use viewmap_core::vp::StoredVp;
use vm_crypto::Digest16;
use vm_geo::{GridIndex, Point};

/// Meters between neighboring vehicles in a [`linked_minute`] world.
pub const LINKED_SPACING_M: f64 = 150.0;

/// A minute of `n` vehicles on a line, Bloom-wired pairwise within DSRC
/// range (400 m) so viewmaps built from them have real edges; vehicle 0
/// carries the trusted flag and anchors TrustRank. Deterministic in
/// `(n, minute, seed)` — the same triple always yields bit-identical
/// VPs, which is what lets a fault harness rebuild its oracle from
/// nothing but the seed.
pub fn linked_minute(n: usize, minute: u64, seed: u64) -> Vec<StoredVp> {
    let start = minute * SECONDS_PER_VP;
    let mut rng = StdRng::seed_from_u64(seed ^ (minute << 32) ^ n as u64);
    let ids: Vec<VpId> = (0..n).map(|_| VpId(Digest16(rng.gen()))).collect();
    let trajectories: Vec<Vec<ViewDigest>> = (0..n)
        .map(|i| {
            let y = minute as f64 * 10.0;
            (1..=SECONDS_PER_VP as u16)
                .map(|seq| ViewDigest {
                    seq,
                    flags: 0,
                    time: start + seq as u64,
                    loc: GeoPos::new(i as f64 * LINKED_SPACING_M + seq as f64 * 7.5, y),
                    file_size: seq as u64 * 1024,
                    initial_loc: GeoPos::new(i as f64 * LINKED_SPACING_M, y),
                    vp_id: ids[i],
                    hash: Digest16(rng.gen()),
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            let mut bloom = BloomFilter::default();
            for (j, traj) in trajectories.iter().enumerate() {
                if i != j && (i as f64 - j as f64).abs() * LINKED_SPACING_M <= 400.0 {
                    bloom.insert(&traj[0].bloom_key());
                    bloom.insert(&traj[SECONDS_PER_VP as usize - 1].bloom_key());
                }
            }
            StoredVp::new(ids[i], trajectories[i].clone(), bloom, i == 0)
        })
        .collect()
}

/// A well-formed VP with no viewlinks: 60 VDs near `(tag,
/// minute)`-derived coordinates inside `minute`, untrusted, its id
/// unique per `(tag, minute)`.
pub fn synthetic_vp(tag: u64, minute: u64) -> StoredVp {
    let mut id_bytes = [0u8; 16];
    id_bytes[..8].copy_from_slice(&tag.to_le_bytes());
    id_bytes[8..].copy_from_slice(&minute.to_le_bytes());
    let id = VpId(Digest16(id_bytes));
    let start = minute * SECONDS_PER_VP;
    let vds: Vec<ViewDigest> = (1..=SECONDS_PER_VP as u16)
        .map(|seq| ViewDigest {
            seq,
            flags: 0,
            time: start + seq as u64,
            loc: GeoPos::new(tag as f64 % 400.0 + seq as f64 * 8.0, (tag % 37) as f64),
            file_size: seq as u64 * 64,
            initial_loc: GeoPos::new(tag as f64 % 400.0, 0.0),
            vp_id: id,
            hash: Digest16(id_bytes),
        })
        .collect();
    StoredVp::new(id, vds, BloomFilter::default(), false)
}

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

/// A VP driving straight from `start` at a heading and speed (29–58
/// km/h) drawn from `rng`.
fn synth_vp(rng: &mut StdRng, tag: u64, start: GeoPos, trusted: bool) -> StoredVp {
    let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let speed: f64 = rng.gen_range(8.0..16.0);
    let vel = (speed * heading.cos(), speed * heading.sin());
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

/// A uniform position in the `side_m`-metre square.
fn random_pos(rng: &mut StdRng, side_m: f64) -> GeoPos {
    GeoPos::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m))
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
                let start = if tag == 0 {
                    center
                } else {
                    random_pos(&mut rng, side_m)
                };
                synth_vp(&mut rng, tag, start, tag == 0)
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
                let start = random_pos(&mut rng, side_m);
                synth_vp(&mut rng, (1u64 << 40) | i, start, false)
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

/// Random symmetric graph with expected degree `mean_deg`, possibly
/// split into disconnected halves.
pub fn random_graph(
    rng: &mut StdRng,
    n: usize,
    mean_deg: f64,
    disconnect: bool,
) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    let p = (mean_deg / n as f64).min(1.0);
    let cut = if disconnect { n / 2 } else { n };
    for a in 0..n {
        for b in (a + 1)..n {
            let crosses = a < cut && b >= cut;
            if !crosses && rng.gen_bool(p) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::viewmap_checksum;
    use viewmap_core::viewmap::{Viewmap, ViewmapConfig};

    #[test]
    fn linked_minute_is_deterministic_and_actually_linked() {
        let a = linked_minute(8, 2, 42);
        let b = linked_minute(8, 2, 42);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "same seed, same world");
        }
        assert!(a[0].trusted && a[1..].iter().all(|vp| !vp.trusted));
        let c = linked_minute(8, 2, 43);
        assert_ne!(a[0].id, c[0].id, "different seed, different world");

        let site = Site {
            center: GeoPos::new(400.0, 20.0),
            radius_m: 100_000.0,
        };
        let vm = Viewmap::build(
            &a.iter()
                .cloned()
                .map(std::sync::Arc::new)
                .collect::<Vec<_>>(),
            site,
            MinuteId(2),
            &ViewmapConfig::default(),
        );
        assert_eq!(vm.len(), 8);
        assert!(vm.edge_count() > 0, "the world must produce real viewlinks");
        assert_eq!(viewmap_checksum(&vm), viewmap_checksum(&vm));
    }

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
}
