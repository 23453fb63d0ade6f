//! The benchmark's own load generator. Everything the program receives is
//! made here from `--seed`, and nothing here calls into `vm_bench`, so a
//! refactor of the repository's libraries cannot change the offered load.
//!
//! The unit is a *minute population*: `n` vehicles dropped uniformly on a
//! square whose side keeps the density at [`DENSITY_PER_KM2`], each driving a
//! straight constant-speed minute (60 view digests), with Bloom filters wired
//! pairwise the way a DSRC exchange leaves them (first and last element VD of
//! each neighbour, at most [`WIRE_NEIGHBOR_CAP`] neighbours). Cascade hashes
//! are fabricated: no workload re-derives a video chain. The server treats
//! VPs of one vehicle as unlinkable, so a vehicle's hour is sixty independent
//! draws, one per minute, and the upload stream is the minute populations
//! transposed ([`hour_stream`]).

use crate::adapter::{BloomFilter, Digest16, GeoPos, MinuteId, StoredVp, ViewDigest, VpId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// VPs per km², the density `SynthWorld` uses for dense urban traffic.
pub const DENSITY_PER_KM2: f64 = 60.0;
/// Bloom-wired neighbours per VP (the protocol's cap is 250).
pub const WIRE_NEIGHBOR_CAP: usize = 24;
/// Radio range at which two minute-start positions are wired.
const WIRE_RANGE_M: f64 = 380.0;
/// One trusted (authority) VP per this many km².
pub const KM2_PER_TRUSTED: f64 = 7.0;
/// Distance of an incident from the nearest authority vehicle's start.
pub const INCIDENT_FROM_TRUSTED_M: f64 = 1000.0;
/// Seconds, and VDs, per VP.
const SECONDS: u64 = 60;

/// Tag namespaces, so no two populations of one run share a VP id: late
/// waves, trusted VPs, and above them the number of the upload stream.
const TAG_LATE_WAVE: u64 = 1 << 40;
const TAG_TRUSTED: u64 = 1 << 41;
const TAG_STREAM_SHIFT: u32 = 44;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniformly spread 128-bit id from `(seed, minute, tag)`; real ids are
/// hashes, and the server stripes its index by the first id byte.
fn synth_id(seed: u64, minute: u64, tag: u64) -> VpId {
    let a = splitmix(seed ^ splitmix(minute ^ tag.rotate_left(24)));
    let b = splitmix(a ^ tag);
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&a.to_le_bytes());
    bytes[8..].copy_from_slice(&b.to_le_bytes());
    VpId(Digest16(bytes))
}

fn synth_vp(id: VpId, minute: u64, tag: u64, start: GeoPos, vel: (f64, f64)) -> StoredVp {
    let t0 = minute * SECONDS;
    let vds = (1..=SECONDS as u16)
        .map(|seq| {
            let t = seq as f64;
            let mut h = [0u8; 16];
            h[..8].copy_from_slice(&tag.to_le_bytes());
            h[8..10].copy_from_slice(&seq.to_le_bytes());
            h[10..].copy_from_slice(&minute.to_le_bytes()[..6]);
            ViewDigest {
                seq,
                flags: 0,
                time: t0 + seq as u64,
                loc: GeoPos::new(start.x + vel.0 * t, start.y + vel.1 * t),
                file_size: seq as u64 * 875 * 1024,
                initial_loc: start,
                vp_id: id,
                hash: Digest16(h),
            }
        })
        .collect();
    StoredVp::new(id, vds, BloomFilter::default(), false)
}

/// Side of the square that holds `n` VPs at the fixed density, metres.
pub fn side_for(n: usize) -> f64 {
    ((n as f64 / DENSITY_PER_KM2).sqrt() * 1000.0).max(500.0)
}

fn random_vp(rng: &mut StdRng, seed: u64, minute: u64, tag: u64, side_m: f64) -> StoredVp {
    let start = GeoPos::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m));
    let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    let speed: f64 = rng.gen_range(8.0..16.0);
    synth_vp(
        synth_id(seed, minute, tag),
        minute,
        tag,
        start,
        (speed * heading.cos(), speed * heading.sin()),
    )
}

/// Wire Bloom filters pairwise within radio range of the minute-start
/// positions. Deterministic: cells are visited in index order.
fn wire_blooms(vps: &mut [StoredVp], side_m: f64) {
    let cell = 400.0;
    let cols = (side_m / cell).ceil().max(1.0) as usize + 1;
    let cell_of = |p: GeoPos| {
        let cx = ((p.x / cell).max(0.0) as usize).min(cols - 1);
        let cy = ((p.y / cell).max(0.0) as usize).min(cols - 1);
        (cx, cy)
    };
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cols * cols];
    let starts: Vec<GeoPos> = vps.iter().map(|vp| vp.start_loc()).collect();
    for (i, &p) in starts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        grid[cy * cols + cx].push(i as u32);
    }
    let encoded: Vec<[[u8; 72]; 2]> = vps
        .iter()
        .map(|vp| [vp.vds[0].encode(), vp.vds[SECONDS as usize - 1].encode()])
        .collect();
    let msgs: Vec<&[u8]> = encoded
        .iter()
        .flat_map(|pair| [&pair[0][..], &pair[1][..]])
        .collect();
    let keys = crate::adapter::hash_many(&msgs);
    let mut wired = vec![0usize; vps.len()];
    let mut near: Vec<u32> = Vec::new();
    for i in 0..vps.len() {
        let (cx, cy) = cell_of(starts[i]);
        near.clear();
        for ny in cy.saturating_sub(1)..=(cy + 1).min(cols - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(cols - 1) {
                near.extend(grid[ny * cols + nx].iter().filter(|&&j| j as usize > i));
            }
        }
        near.sort_unstable();
        for &j in &near {
            let j = j as usize;
            if wired[i] >= WIRE_NEIGHBOR_CAP {
                break;
            }
            if wired[j] >= WIRE_NEIGHBOR_CAP
                || starts[i].distance_sq(&starts[j]) > WIRE_RANGE_M * WIRE_RANGE_M
            {
                continue;
            }
            vps[i].bloom.insert(&keys[2 * j]);
            vps[i].bloom.insert(&keys[2 * j + 1]);
            vps[j].bloom.insert(&keys[2 * i]);
            vps[j].bloom.insert(&keys[2 * i + 1]);
            wired[i] += 1;
            wired[j] += 1;
        }
    }
}

/// Where the authority's vehicles start their minute: a square grid, one per
/// [`KM2_PER_TRUSTED`], centred on the populated square.
struct TrustedGrid {
    per_side: usize,
    spacing: f64,
    edge: f64,
}

impl TrustedGrid {
    fn on(side_m: f64) -> TrustedGrid {
        let spacing = (KM2_PER_TRUSTED.sqrt() * 1000.0).min(side_m);
        let per_side = (side_m / spacing).floor().max(1.0) as usize;
        TrustedGrid {
            per_side,
            spacing,
            edge: (side_m - per_side as f64 * spacing) / 2.0,
        }
    }

    fn at(&self, gx: usize, gy: usize) -> GeoPos {
        GeoPos::new(
            self.edge + (gx as f64 + 0.5) * self.spacing,
            self.edge + (gy as f64 + 0.5) * self.spacing,
        )
    }
}

/// One minute of traffic: anonymous VPs plus the authority's trusted VPs,
/// wired together so trust can spread from the seeds.
pub struct MinutePopulation {
    /// The minute.
    pub minute: MinuteId,
    /// Side of the populated square, metres.
    pub side_m: f64,
    /// Anonymous VPs, uploaded over the wire.
    pub vps: Vec<StoredVp>,
    /// Trusted VPs on a grid, one per [`KM2_PER_TRUSTED`], for the authority
    /// channel. Empty when the population was made without seeds.
    pub trusted: Vec<StoredVp>,
}

/// `n` anonymous VPs of `minute` on a square of `side_m`; with `with_trusted`
/// also a grid of slow-moving authority vehicles. Populations of different
/// `stream`s share no VP id, so two of them can be loaded into one minute.
pub fn minute_population(
    seed: u64,
    minute: u64,
    n: usize,
    side_m: f64,
    stream: u64,
    with_trusted: bool,
) -> MinutePopulation {
    assert!(stream < 1 << 16 && n < 1 << 40, "stream tag range");
    let base = stream << TAG_STREAM_SHIFT;
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ splitmix(minute) ^ splitmix(base)));
    let mut all: Vec<StoredVp> = Vec::new();
    if with_trusted {
        let grid = TrustedGrid::on(side_m);
        for gy in 0..grid.per_side {
            for gx in 0..grid.per_side {
                let tag = base | TAG_TRUSTED | (gy * grid.per_side + gx) as u64;
                let start = grid.at(gx, gy);
                let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                all.push(synth_vp(
                    synth_id(seed, minute, tag),
                    minute,
                    tag,
                    start,
                    (4.0 * heading.cos(), 4.0 * heading.sin()),
                ));
            }
        }
    }
    let n_trusted = all.len();
    for tag in 0..n as u64 {
        all.push(random_vp(&mut rng, seed, minute, base | tag, side_m));
    }
    wire_blooms(&mut all, side_m);
    let vps = all.split_off(n_trusted);
    MinutePopulation {
        minute: MinuteId(minute),
        side_m,
        vps,
        trusted: all,
    }
}

/// A late-upload wave into an existing minute: `n` fresh VPs on the same
/// square, wired among themselves, ids disjoint from the base population and
/// from every other wave.
pub fn late_wave(seed: u64, minute: u64, wave: u64, n: usize, side_m: f64) -> Vec<StoredVp> {
    assert!(wave < 1 << 16 && n < 1 << 20, "late-wave tag range");
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ splitmix(minute) ^ splitmix(!wave)));
    let mut vps: Vec<StoredVp> = (0..n as u64)
        .map(|i| {
            random_vp(
                &mut rng,
                seed,
                minute,
                TAG_LATE_WAVE | (wave << 20) | i,
                side_m,
            )
        })
        .collect();
    wire_blooms(&mut vps, side_m);
    vps
}

/// An hour of uploads: `chunks[v]` is vehicle `v`'s hour, one VP per minute,
/// the shape a parked car's nightly upload has.
pub struct HourStream {
    pub first_minute: u64,
    pub side_m: f64,
    pub chunks: Vec<Vec<StoredVp>>,
    /// The authority's trusted VPs of all sixty minutes.
    pub trusted: Vec<StoredVp>,
}

/// The upload stream of `vehicles` vehicles over the sixty minutes from
/// `first_minute`, each minute populated on a square of `side_m`.
pub fn hour_stream(
    seed: u64,
    first_minute: u64,
    vehicles: usize,
    side_m: f64,
    stream: u64,
    with_trusted: bool,
) -> HourStream {
    let mut chunks: Vec<Vec<StoredVp>> = (0..vehicles).map(|_| Vec::with_capacity(60)).collect();
    let mut trusted = Vec::new();
    for m in 0..SECONDS {
        let pop = minute_population(
            seed,
            first_minute + m,
            vehicles,
            side_m,
            stream,
            with_trusted,
        );
        for (chunk, vp) in chunks.iter_mut().zip(pop.vps) {
            chunk.push(vp);
        }
        trusted.extend(pop.trusted);
    }
    HourStream {
        first_minute,
        side_m,
        chunks,
        trusted,
    }
}

/// An owner's secret and the VP id it proves (`R = H(Q)`), for the reward
/// board.
pub fn claimable(seed: u64, k: u64) -> ([u8; 8], VpId) {
    let secret = splitmix(seed ^ splitmix(0xc1a1_3ab1e ^ k)).to_le_bytes();
    (secret, VpId::from_secret(&secret))
}

/// A seeded point source for investigation sites.
pub struct SiteRng(StdRng);

impl SiteRng {
    /// Sites for `(seed, minute)`.
    pub fn new(seed: u64, minute: u64) -> SiteRng {
        SiteRng(StdRng::seed_from_u64(splitmix(
            seed ^ splitmix(minute ^ 0x517e),
        )))
    }

    /// An incident location: [`INCIDENT_FROM_TRUSTED_M`] from where one of the
    /// authority's vehicles starts the minute, in a random direction, and not
    /// at the rim of the grid when the grid has an interior. The viewmap of a
    /// site reaches to the nearest trusted VP, so a fixed distance gives every
    /// incident — and so every first touch — a site of the same extent, where
    /// a uniform draw would let three incidents a run differ by a factor of
    /// three in members.
    pub fn incident(&mut self, side_m: f64) -> GeoPos {
        let grid = TrustedGrid::on(side_m);
        let rim = usize::from(grid.per_side >= 3);
        let mut pick = || self.0.gen_range(rim..grid.per_side - rim);
        let from = grid.at(pick(), pick());
        let a: f64 = self.0.gen_range(0.0..std::f64::consts::TAU);
        GeoPos::new(
            (from.x + INCIDENT_FROM_TRUSTED_M * a.cos()).clamp(0.0, side_m),
            (from.y + INCIDENT_FROM_TRUSTED_M * a.sin()).clamp(0.0, side_m),
        )
    }

    /// A follow-up location within `within_m` of `center`, kept on the square.
    pub fn nearby(&mut self, center: GeoPos, within_m: f64, side_m: f64) -> GeoPos {
        let r = within_m * self.0.gen_range(0.0f64..1.0).sqrt();
        let a: f64 = self.0.gen_range(0.0..std::f64::consts::TAU);
        GeoPos::new(
            (center.x + r * a.cos()).clamp(0.0, side_m),
            (center.y + r * a.sin()).clamp(0.0, side_m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn populations_are_seeded_and_disjoint() {
        let side = side_for(400);
        let a = minute_population(42, 3, 400, side, 0, true);
        let b = minute_population(42, 3, 400, side, 0, true);
        assert_eq!(a.vps.len(), 400);
        assert!(!a.trusted.is_empty());
        for (x, y) in a.vps.iter().zip(&b.vps) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.vds, y.vds);
            assert_eq!(x.bloom.as_bytes(), y.bloom.as_bytes());
        }
        let other_seed = minute_population(7, 3, 400, side, 0, true);
        assert_ne!(a.vps[0].id, other_seed.vps[0].id);

        let mut ids = HashSet::new();
        for vp in a.vps.iter().chain(&a.trusted) {
            assert_eq!(vp.minute(), MinuteId(3));
            assert_eq!(vp.vds.len(), 60);
            assert!(ids.insert(vp.id));
        }
        for wave in 0..3 {
            for vp in late_wave(42, 3, wave, 50, a.side_m) {
                assert_eq!(vp.minute(), MinuteId(3));
                assert!(ids.insert(vp.id), "late wave {wave} reuses an id");
            }
        }
        for vp in &minute_population(42, 4, 400, side, 0, true).vps {
            assert!(ids.insert(vp.id), "minutes share an id");
        }
        for vp in &minute_population(42, 3, 400, side, 1, false).vps {
            assert!(ids.insert(vp.id), "streams share an id");
        }
        let wired = a.vps.iter().filter(|vp| vp.bloom.count_ones() > 0).count();
        assert!(wired > 300, "only {wired} of 400 VPs wired");
    }

    #[test]
    fn hour_chunks_put_one_vp_in_each_minute() {
        let hour = hour_stream(42, 100, 30, side_for(30), 0, true);
        assert_eq!(hour.chunks.len(), 30);
        assert!(hour.trusted.len() >= 60, "every minute has a trusted VP");
        for chunk in &hour.chunks {
            let minutes: Vec<u64> = chunk.iter().map(|vp| vp.minute().0).collect();
            assert_eq!(minutes, (100..160).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn claimable_ids_prove_their_secret() {
        let (secret, id) = claimable(42, 5);
        assert_eq!(VpId::from_secret(&secret), id);
        assert_ne!(claimable(42, 6).1, id);
    }
}
