//! Deterministic linked-world generators shared by the equivalence and
//! fault-simulation suites.
//!
//! The crash-recovery and vopr harnesses all need the same shape of
//! input: a minute of VPs whose Bloom filters actually wire them into a
//! connected viewmap (so edge checksums and TrustRank outcomes are
//! meaningful oracles, not vacuously-empty graphs), generated
//! deterministically from a seed so any failure replays from one `u64`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viewmap_core::bloom::BloomFilter;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;

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
    let ids: Vec<VpId> = (0..n)
        .map(|_| VpId(vm_crypto::Digest16(rng.gen())))
        .collect();
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
                    hash: vm_crypto::Digest16(rng.gen()),
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

/// Order-independent fingerprint of a viewmap's full edge set plus its
/// member identities — the "same investigation outcome" oracle used by
/// the crash and vopr suites (the same edge fold the
/// `parallel_equivalence` topology pin uses, extended with member ids).
pub fn viewmap_checksum(vm: &Viewmap) -> u64 {
    let mut sum = vm.len() as u64;
    for (i, vp) in vm.vps.iter().enumerate() {
        sum = sum.wrapping_add(vp.id.0.low_u64().rotate_left((i % 61) as u32));
    }
    for (i, nbrs) in vm.adj.iter().enumerate() {
        for &j in nbrs {
            if j > i {
                sum = sum.wrapping_add((i as u64).wrapping_mul(1_000_003) ^ (j as u64));
            }
        }
    }
    sum
}

/// The cold oracle: `Viewmap::build` over `srv`'s stored bucket of
/// `minute`. `ViewMapServer::build_viewmap` — the memoised investigation
/// path — must reproduce it field for field for the same stored state;
/// the equivalence suites and both fault harnesses compare against this.
pub fn cold_oracle(
    srv: &ViewMapServer,
    minute: MinuteId,
    site: Site,
    cfg: &ViewmapConfig,
) -> Viewmap {
    Viewmap::build(&srv.minute_vps(minute), site, minute, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
