//! Shared protocol types and constants.

use vm_crypto::Digest16;
use vm_geo::Point;

/// DSRC radio range in meters ("up to 400 m", Section 5.1.2).
pub const DSRC_RADIUS_M: f64 = 400.0;

/// Seconds covered by one view profile (1-min default recording unit).
pub const SECONDS_PER_VP: u64 = 60;

/// The maximum number of neighbor VPs a vehicle accepts per minute
/// (footnote 10: mitigation against Bloom-poisoning attacks).
pub const MAX_NEIGHBORS: usize = 250;

/// The first minute a cell cannot store: a persistent store names each
/// minute's segment with 12 decimal digits, so ingest refuses any VP
/// whose minute is at or past 10¹² (about 1.9 million years of
/// minutes; no honest VP gets near it).
pub const MINUTE_LIMIT: u64 = 1_000_000_000_000;

/// VP identifier `R_u = H(Q_u)` — a 128-bit digest, never linkable to the
/// owner.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VpId(pub Digest16);

impl VpId {
    /// Derive the VP identifier from the owner's secret number `Q_u`.
    pub fn from_secret(secret: &[u8; 8]) -> Self {
        VpId(Digest16::hash(secret))
    }
}

impl std::fmt::Debug for VpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VpId({})", self.0)
    }
}

impl std::fmt::Display for VpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Minute index since simulation epoch: viewmaps are built per minute
/// (Section 5.2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MinuteId(pub u64);

impl MinuteId {
    /// The minute containing second `t`.
    pub fn of_second(t: u64) -> Self {
        MinuteId(t / SECONDS_PER_VP)
    }

    /// First second of this minute.
    pub fn start_second(&self) -> u64 {
        self.0 * SECONDS_PER_VP
    }
}

/// A geographic position. In-memory we use full-precision meters; the wire
/// format carries two `f32`s (8 bytes, matching the paper's VD layout).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPos {
    /// East, meters.
    pub x: f64,
    /// North, meters.
    pub y: f64,
}

impl GeoPos {
    /// Construct a position.
    pub fn new(x: f64, y: f64) -> Self {
        GeoPos { x, y }
    }

    /// Distance in meters.
    pub fn distance(&self, other: &GeoPos) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance in meters². For comparisons and minima this is
    /// the form to use — `sqrt` is monotone, so ordering is preserved and
    /// the caller converts once at the end instead of once per candidate
    /// (`distance` is exactly `distance_sq(..).sqrt()`, so
    /// `min(d).sqrt() == min(sqrt(d))` bit for bit).
    pub fn distance_sq(&self, other: &GeoPos) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Encode as 8 wire bytes (two little-endian `f32`s).
    pub fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&(self.x as f32).to_le_bytes());
        out[4..].copy_from_slice(&(self.y as f32).to_le_bytes());
        out
    }

    /// Decode from 8 wire bytes.
    pub fn decode(bytes: &[u8; 8]) -> Self {
        let x = f32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as f64;
        let y = f32::from_le_bytes(bytes[4..].try_into().expect("4 bytes")) as f64;
        GeoPos { x, y }
    }
}

impl From<Point> for GeoPos {
    fn from(p: Point) -> Self {
        GeoPos { x: p.x, y: p.y }
    }
}

impl From<GeoPos> for Point {
    fn from(g: GeoPos) -> Self {
        Point::new(g.x, g.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_id_binds_to_secret() {
        let q = [1u8; 8];
        let r1 = VpId::from_secret(&q);
        let r2 = VpId::from_secret(&q);
        assert_eq!(r1, r2);
        assert_ne!(r1, VpId::from_secret(&[2u8; 8]));
    }

    #[test]
    fn minute_of_second() {
        assert_eq!(MinuteId::of_second(0), MinuteId(0));
        assert_eq!(MinuteId::of_second(59), MinuteId(0));
        assert_eq!(MinuteId::of_second(60), MinuteId(1));
        assert_eq!(MinuteId(3).start_second(), 180);
    }

    #[test]
    fn geopos_wire_roundtrip() {
        let g = GeoPos::new(1234.5, -99.25);
        let d = GeoPos::decode(&g.encode());
        assert!((d.x - g.x).abs() < 0.01);
        assert!((d.y - g.y).abs() < 0.01);
    }

    #[test]
    fn geopos_point_conversion() {
        let p = Point::new(3.0, 4.0);
        let g: GeoPos = p.into();
        assert_eq!(g.distance(&GeoPos::new(0.0, 0.0)), 5.0);
        let back: Point = g.into();
        assert_eq!(back, p);
    }
}
