//! Viewmap construction (Section 5.2.1).
//!
//! A viewmap is built per minute around an incident: select the trusted
//! VP(s) closest to the investigation site, span a coverage area `C` that
//! encompasses the site and those trusted VPs, admit every VP whose claimed
//! trajectory enters `C`, and create a *viewlink* edge between two member
//! VPs iff (a) their time-aligned claimed locations come within DSRC radio
//! range and (b) the two-way Bloom-filter membership test passes.
//!
//! # Construction
//!
//! Members are held as `Arc<StoredVp>` shared with the server's VP
//! database — admitting a VP into a viewmap is a pointer copy, never a
//! deep clone of its 60 VDs and 256-byte Bloom filter.
//!
//! [`Viewmap::build`] admits members (the same `coverage_radius` and
//! `admits` the server's bounds-table admission calls) and then links
//! them through a fresh viewlink memo ([`crate::maintained`]), the one
//! linker in the crate: every member is spliced against the members
//! linked before it, so a cold build, a memo's first touch and every
//! later site run the same code and produce the same ascending rows.
//!
//! This module holds what that linker tests a pair with. Each member is
//! scanned once (`MemberGeom::scan`) into its compact window of claimed
//! positions — interleaved `(x, y)` `f64` pairs with `NaN` gap slots —
//! plus conservative fixed-point `i32` prefilter geometry: bounding box,
//! bounding circle and six time-segment circles (mins floored,
//! maxes/radii ceiled, centers rounded with slack added at the
//! comparisons, so a fixed-point check can only ever *pass more* than
//! its `f64` counterpart). `settle_pair` runs the integer prefilters
//! and then the exact shared-second scan, bit-identical to the
//! reference definition; the two-way Bloom test
//! ([`StoredVp::links_to_warm`]) runs on the element-VD probe keys
//! cached on each `StoredVp` ([`StoredVp::link_keys`], 4 bytes per VD,
//! hashed through `vm_crypto`'s multi-buffer SHA-256), which answer
//! exactly what the full Bloom keys answer (see
//! [`crate::bloom::ProbeKey`]).

use crate::maintained::{Admitted, MaintainedViewmap};
use crate::trustrank::{self, CsrGraph, Verification};
use crate::types::{GeoPos, MinuteId, VpId, DSRC_RADIUS_M, SECONDS_PER_VP};
use crate::vp::StoredVp;
use std::sync::Arc;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ViewmapConfig {
    /// Radio range used for the location-proximity edge precondition.
    pub dsrc_radius_m: f64,
    /// Margin added around the site–trusted-VP hull for the coverage area.
    pub coverage_margin_m: f64,
    /// TrustRank damping δ.
    pub damping: f64,
}

impl Default for ViewmapConfig {
    fn default() -> Self {
        ViewmapConfig {
            dsrc_radius_m: DSRC_RADIUS_M,
            coverage_margin_m: 200.0,
            damping: trustrank::DAMPING,
        }
    }
}

/// An investigation site: a disk around the incident location.
#[derive(Clone, Copy, Debug)]
pub struct Site {
    /// Incident location `l`.
    pub center: GeoPos,
    /// Site radius (the paper illustrates ~200 m).
    pub radius_m: f64,
}

impl Site {
    /// Does a VP claim any position inside the site?
    pub fn contains_vp(&self, vp: &StoredVp) -> bool {
        vp.vds
            .iter()
            .any(|vd| vd.loc.distance(&self.center) <= self.radius_m)
    }
}

/// A constructed viewmap for one minute.
#[derive(Clone, Debug)]
pub struct Viewmap {
    /// Member VPs (indices are node ids), shared with the server DB.
    pub vps: Vec<Arc<StoredVp>>,
    /// The viewlinks (symmetric); [`build`](Self::build) and the
    /// server's memo write each row ascending by member index.
    pub graph: CsrGraph,
    /// Indices of trusted member VPs.
    pub trusted: Vec<usize>,
    /// The minute this viewmap covers.
    pub minute: MinuteId,
}

impl Viewmap {
    /// Build a viewmap from the minute's candidate VPs around an incident.
    ///
    /// `candidates` must all belong to the same minute; VPs from other
    /// minutes are ignored. Trusted VPs are admitted wherever they are
    /// (they anchor the coverage area); normal VPs are admitted if their
    /// trajectory enters the coverage area. Admitted members share the
    /// caller's `Arc`s — no `StoredVp` is cloned.
    pub fn build(
        candidates: &[Arc<StoredVp>],
        site: Site,
        minute: MinuteId,
        cfg: &ViewmapConfig,
    ) -> Viewmap {
        let in_minute: Vec<&Arc<StoredVp>> = candidates
            .iter()
            .filter(|vp| vp.minute() == minute && !vp.vds.is_empty())
            .collect();

        // Coverage: encompass the site and the nearest trusted VP, then
        // admit in input order. Both steps are the shared functions the
        // server's table-driven admission also calls, so the two can
        // never disagree on a member.
        let radius = coverage_radius(
            in_minute
                .iter()
                .filter(|vp| vp.trusted)
                .map(|vp| vp.as_ref()),
            &site,
            cfg,
        );
        let vps: Vec<Arc<StoredVp>> = in_minute
            .into_iter()
            .filter(|vp| admits(vp, &site.center, radius))
            .cloned()
            .collect();

        // Link through a fresh memo — the crate's one linker.
        let admitted = Admitted::whole(&vps);
        let mut memo = MaintainedViewmap::new(minute, *cfg);
        memo.materialise(&admitted);
        memo.extract(admitted)
    }

    /// Number of member VPs.
    pub fn len(&self) -> usize {
        self.vps.len()
    }

    /// True iff the viewmap has no members.
    pub fn is_empty(&self) -> bool {
        self.vps.is_empty()
    }

    /// Number of viewlinks (undirected edges).
    pub fn edge_count(&self) -> usize {
        self.graph.directed_edge_count() / 2
    }

    /// Fraction of members with at least one viewlink (Fig. 22f).
    pub fn member_connectivity(&self) -> f64 {
        if self.vps.is_empty() {
            return 0.0;
        }
        let connected = (0..self.len())
            .filter(|&v| self.graph.degree(v) > 0)
            .count();
        connected as f64 / self.vps.len() as f64
    }

    /// Indices of members whose claimed trajectory enters the site.
    pub fn site_members(&self, site: &Site) -> Vec<usize> {
        self.vps
            .iter()
            .enumerate()
            .filter(|(_, vp)| site.contains_vp(vp))
            .map(|(i, _)| i)
            .collect()
    }

    /// Run Algorithm 1 against an investigation site; returns the
    /// verification outcome, the marked VP identifiers and the TrustRank
    /// iteration count (0 when there is no trusted anchor to seed the
    /// power method). The server's investigation paths record the count
    /// into the telemetry registry.
    pub fn verify_counted(
        &self,
        site: &Site,
        cfg: &ViewmapConfig,
    ) -> (Verification, Vec<VpId>, usize) {
        let site_idx = self.site_members(site);
        let (v, iterations) = if self.trusted.is_empty() {
            (
                Verification {
                    scores: vec![0.0; self.vps.len()],
                    top: None,
                    legitimate: Vec::new(),
                },
                0,
            )
        } else {
            trustrank::verify_site(&self.graph, &self.trusted, &site_idx, cfg.damping)
        };
        let ids = v.legitimate.iter().map(|&i| self.vps[i].id).collect();
        (v, ids, iterations)
    }
}

/// Time-partitioned bounding-circle count per trajectory: 10-second
/// granularity for a full minute. Finer segments reject more
/// temporally-misaligned near-crossings; coarser ones cost fewer circle
/// checks — 6 measured best at the 100k tier.
pub(crate) const TRAJ_SEGMENTS: usize = 6;

/// Coordinates whose bounding box stays within ±`FP_MAX_M` meters get
/// exact (non-saturating) fixed-point prefilter geometry. A member
/// claiming positions beyond a billion meters (only producible by a
/// forged trajectory — `screen()` checks time order, not plausibility)
/// is handled off-grid through the `f64` exact scan alone, so integer
/// saturation can never turn a conservative prefilter into a wrong
/// reject.
const FP_MAX_M: f64 = 1.0e9;

/// Per-member scan output: the compact-window shape, the `f64` bounding
/// circle the memo's candidate grid derives from, and the conservative
/// fixed-point prefilter forms. The member's claimed positions go to the
/// memo's coordinate arena, not into this struct.
pub(crate) struct MemberGeom {
    /// First in-window offset (1-based); 0 when no in-window VDs exist.
    pub(crate) first: u32,
    /// Slots in the compact window (incl. `NaN` gaps).
    pub(crate) len: u32,
    /// Bloom-occupancy gate: fewer than `k` set bits can never pass a
    /// membership query, so this member can never hold up a viewlink.
    pub(crate) can_link: bool,
    /// Fixed-point forms are exact (see [`FP_MAX_M`]); false routes the
    /// member off-grid and straight to the exact scan.
    pub(crate) fp_exact: bool,
    /// Bounding-circle center (bbox midpoint) and radius (half-diagonal)
    /// in `f64` — the grid geometry (`r_cap`, `r_max`, cell size, cell
    /// assignment) derives from these.
    pub(crate) cx: f64,
    pub(crate) cy: f64,
    pub(crate) r: f64,
    /// `(min_x, min_y, max_x, max_y)`, mins floored / maxes ceiled.
    pub(crate) bb: [i32; 4],
    /// Rounded circle center + ceiled radius; comparisons add slack to
    /// cover the rounding, so the integer check admits a superset.
    pub(crate) cxf: i32,
    pub(crate) cyf: i32,
    pub(crate) rf: i32,
    /// Per-time-segment circles `(cx, cy, r)` in the same fixed-point
    /// form; a pair can share an in-range second only if some pair of
    /// segments with overlapping offset windows comes within
    /// `dsrc + r_a + r_b`. Empty segments carry the never-overlapping
    /// `(0, 0)` window below and are skipped.
    pub(crate) segs: [(i32, i32, i32); TRAJ_SEGMENTS],
    /// Absolute offset window `[lo, hi)` of each segment (values ≤ 121,
    /// so `u8` keeps the row at 12 bytes).
    pub(crate) seg_win: [(u8, u8); TRAJ_SEGMENTS],
}

impl MemberGeom {
    /// Inert geometry for a member with no in-window VDs.
    fn empty() -> MemberGeom {
        MemberGeom {
            first: 0,
            len: 0,
            can_link: false,
            fp_exact: false,
            cx: 0.0,
            cy: 0.0,
            r: 0.0,
            bb: [0; 4],
            cxf: 0,
            cyf: 0,
            rf: 0,
            segs: [(0, 0, 0); TRAJ_SEGMENTS],
            seg_win: [(0, 0); TRAJ_SEGMENTS],
        }
    }

    /// Scan one member: append its compact window to `coords` as
    /// interleaved `(x, y)` pairs (`NaN` for missing seconds) and return
    /// the geometry. VD times are 1-based offsets from the VP's start
    /// second; a VP that starts recording mid-minute still belongs to
    /// this minute, so the window spans two minutes' worth of offsets
    /// (`1..=2·SECONDS_PER_VP`). Out-of-window VDs are ignored; when two
    /// VDs claim the same second the first one wins (the server rejects
    /// such VPs at ingest — this only matters for hand-built populations
    /// fed to `build` directly).
    pub(crate) fn scan(vp: &StoredVp, start: u64, coords: &mut Vec<f64>) -> MemberGeom {
        const WINDOW: usize = 2 * SECONDS_PER_VP as usize;
        let base = coords.len();
        // Fast path — every real VP: VD times strictly consecutive and
        // fully inside the window, so the compact window is a straight
        // copy with no scratch table.
        let contiguous = !vp.vds.is_empty()
            && vp.vds.first().expect("nonempty").time > start
            && vp.vds.last().expect("nonempty").time <= start + WINDOW as u64
            && vp.vds.windows(2).all(|w| w[1].time == w[0].time + 1);
        let lo = if contiguous {
            for vd in &vp.vds {
                coords.push(vd.loc.x);
                coords.push(vd.loc.y);
            }
            (vp.vds[0].time - start) as usize - 1
        } else {
            // General path: one pass over the VDs into a stack scratch
            // table (slot = offset − 1) tracking the occupied range,
            // then append the compact window from the scratch.
            let mut sx = [f64::NAN; WINDOW];
            let mut sy = [f64::NAN; WINDOW];
            let (mut lo, mut hi) = (usize::MAX, 0usize);
            for vd in &vp.vds {
                let off = vd.time.saturating_sub(start);
                if !(1..=WINDOW as u64).contains(&off) {
                    continue;
                }
                let slot = off as usize - 1;
                if !sx[slot].is_nan() {
                    continue;
                }
                sx[slot] = vd.loc.x;
                sy[slot] = vd.loc.y;
                lo = lo.min(slot);
                hi = hi.max(slot);
            }
            if lo == usize::MAX {
                return MemberGeom::empty();
            }
            for slot in lo..=hi {
                coords.push(sx[slot]);
                coords.push(sy[slot]);
            }
            lo
        };
        let len = (coords.len() - base) / 2;
        let window = &coords[base..];
        let mut bb = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        let mut seg_bb = [(
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        ); TRAJ_SEGMENTS];
        // The segment windows are derived from the *same* slot→segment
        // assignment that feeds each segment's bounding box (occupied
        // slot range per segment, recorded while accumulating), so a
        // position can never sit in one segment's circle while its
        // offset falls in another segment's window — the partition and
        // the windows cannot disagree, whatever `len` is. Empty segments
        // keep the never-overlapping (0, 0) window.
        let first = lo as u32 + 1;
        let mut seg_slots = [(u32::MAX, 0u32); TRAJ_SEGMENTS];
        for slot in 0..len {
            let (x, y) = (window[2 * slot], window[2 * slot + 1]);
            if x.is_nan() {
                continue;
            }
            bb.0 = bb.0.min(x);
            bb.1 = bb.1.min(y);
            bb.2 = bb.2.max(x);
            bb.3 = bb.3.max(y);
            let s = (slot * TRAJ_SEGMENTS / len).min(TRAJ_SEGMENTS - 1);
            let sb = &mut seg_bb[s];
            sb.0 = sb.0.min(x);
            sb.1 = sb.1.min(y);
            sb.2 = sb.2.max(x);
            sb.3 = sb.3.max(y);
            seg_slots[s].0 = seg_slots[s].0.min(slot as u32);
            seg_slots[s].1 = seg_slots[s].1.max(slot as u32);
        }
        let circle = |b: (f64, f64, f64, f64)| {
            (
                (b.0 + b.2) / 2.0,
                (b.1 + b.3) / 2.0,
                (b.2 - b.0).hypot(b.3 - b.1) / 2.0,
            )
        };
        let (cx, cy, r) = circle(bb);
        let fp_exact = bb.0.abs() <= FP_MAX_M
            && bb.1.abs() <= FP_MAX_M
            && bb.2.abs() <= FP_MAX_M
            && bb.3.abs() <= FP_MAX_M;
        let fixed_circle = |b: (f64, f64, f64, f64)| {
            if b.0.is_finite() {
                let (x, y, rr) = circle(b);
                (x.round() as i32, y.round() as i32, rr.ceil() as i32)
            } else {
                (0, 0, 0)
            }
        };
        MemberGeom {
            first,
            len: len as u32,
            can_link: vp.bloom.count_ones() >= vp.bloom.k(),
            fp_exact,
            cx,
            cy,
            r,
            bb: [
                bb.0.floor() as i32,
                bb.1.floor() as i32,
                bb.2.ceil() as i32,
                bb.3.ceil() as i32,
            ],
            cxf: cx.round() as i32,
            cyf: cy.round() as i32,
            rf: r.ceil() as i32,
            segs: seg_bb.map(fixed_circle),
            seg_win: seg_slots.map(|(min, max)| {
                if min == u32::MAX {
                    (0, 0)
                } else {
                    ((first + min) as u8, (first + max + 1) as u8)
                }
            }),
        }
    }

    /// Usable for candidate generation (has in-window VDs and passes the
    /// occupancy gate)?
    pub(crate) fn active(&self) -> bool {
        self.first != 0 && self.can_link
    }
}

// ── The pairwise viewlink predicate ─────────────────────────────────────
//
// Whether two members link depends only on the two trajectories (exact
// shared-second scan) and the two Bloom filters — never on the rest of
// the population. The memo's grid only generates candidate supersets;
// every candidate is settled here.

/// Conservative temporal-segment prefilter: can any pair of segments
/// with overlapping offset windows come within radio range (+2 m slack
/// for the rounded centers)? `false` proves no shared in-range second
/// exists.
#[inline]
fn segments_may_touch(
    sa: &[(i32, i32, i32); TRAJ_SEGMENTS],
    wa: &[(u8, u8); TRAJ_SEGMENTS],
    sb: &[(i32, i32, i32); TRAJ_SEGMENTS],
    wb: &[(u8, u8); TRAJ_SEGMENTS],
    radius_c: i64,
) -> bool {
    for s in 0..TRAJ_SEGMENTS {
        let (alo, ahi) = wa[s];
        if ahi == 0 {
            continue;
        }
        let (ax, ay, ar) = sa[s];
        for t in 0..TRAJ_SEGMENTS {
            let (blo, bhi) = wb[t];
            if bhi <= alo || ahi <= blo {
                continue;
            }
            let (bx, by, br) = sb[t];
            let lim = radius_c + ar as i64 + br as i64 + 2;
            let (dx, dy) = ((ax - bx) as i64, (ay - by) as i64);
            if dx * dx + dy * dy <= lim * lim {
                return true;
            }
        }
    }
    false
}

/// The exact pair predicate over two members' geometry rows and compact
/// windows (interleaved `(x, y)` pairs with `NaN` gap slots, which
/// compare false and drop out on their own): did the two members come
/// within `sqrt(r2)` of each other at any shared in-window second?
/// Conservative integer prefilters run first when both members'
/// fixed-point forms are exact — the box gap (mins floored, maxes
/// ceiled, so it underestimates the true gap) and the segment circles —
/// then the bit-exact `f64` scan.
#[inline]
pub(crate) fn settle_pair(
    ga: &MemberGeom,
    wa: &[f64],
    gb: &MemberGeom,
    wb: &[f64],
    radius_c: i64,
    r2: f64,
) -> bool {
    if ga.fp_exact && gb.fp_exact {
        let (ba, bb) = (&ga.bb, &gb.bb);
        let dx = ((bb[0] - ba[2]) as i64).max((ba[0] - bb[2]) as i64).max(0);
        let dy = ((bb[1] - ba[3]) as i64).max((ba[1] - bb[3]) as i64).max(0);
        if dx * dx + dy * dy > radius_c * radius_c
            || !segments_may_touch(&ga.segs, &ga.seg_win, &gb.segs, &gb.seg_win, radius_c)
        {
            return false;
        }
    }
    let lo = ga.first.max(gb.first);
    let hi = (ga.first + ga.len).min(gb.first + gb.len);
    (lo..hi).any(|t| {
        let ia = (2 * (t - ga.first)) as usize;
        let ib = (2 * (t - gb.first)) as usize;
        let dx = wa[ia] - wb[ib];
        let dy = wa[ia + 1] - wb[ib + 1];
        dx * dx + dy * dy <= r2
    })
}

/// Coverage radius of a site: reach the nearest trusted VP (or the site
/// itself when that is wider, or when the minute has no trusted VP), plus
/// the configured margin. `trusted` is the minute's trusted VPs in any
/// order — only the minimum enters, and it is taken in squared space
/// with one `sqrt` at the end (`GeoPos::distance` is
/// `distance_sq().sqrt()`, so the value is bit-identical).
pub(crate) fn coverage_radius<'a>(
    trusted: impl IntoIterator<Item = &'a StoredVp>,
    site: &Site,
    cfg: &ViewmapConfig,
) -> f64 {
    trusted
        .into_iter()
        .map(|vp| nearest_approach_sq(vp, &site.center))
        .reduce(f64::min)
        .map_or(0.0, f64::sqrt)
        .max(site.radius_m)
        + cfg.coverage_margin_m
}

/// The admission predicate: trusted VPs are members wherever they are;
/// any other VP is a member iff it claims a position within
/// `coverage_radius` of the site center.
#[inline]
pub(crate) fn admits(vp: &StoredVp, center: &GeoPos, coverage_radius: f64) -> bool {
    vp.trusted
        || vp
            .vds
            .iter()
            .any(|vd| vd.loc.distance(center) <= coverage_radius)
}

/// Squared nearest approach of a VP's claimed trajectory to a point.
/// Compared (and minimized) in squared space — one `sqrt` per VD here
/// used to be the dominant cost of trusted-VP selection on large
/// populations; callers that need the distance take a single `sqrt` of
/// the result, which is bit-identical because `GeoPos::distance` is
/// `distance_sq().sqrt()` and `sqrt` is monotone.
pub(crate) fn nearest_approach_sq(vp: &StoredVp, p: &GeoPos) -> f64 {
    vp.vds
        .iter()
        .map(|vd| vd.loc.distance_sq(p))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SECONDS_PER_VP;
    use crate::vp::{VpBuilder, VpKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build a chain of vehicles along a line, each exchanging VDs with its
    /// immediate neighbors, the first one trusted.
    fn build_chain(n: usize, spacing: f64, seed: u64) -> Vec<StoredVp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builders: Vec<VpBuilder> = (0..n)
            .map(|i| {
                let kind = if i == 0 {
                    VpKind::Trusted
                } else {
                    VpKind::Actual
                };
                VpBuilder::new(&mut rng, 0, GeoPos::new(i as f64 * spacing, 0.0), kind)
            })
            .collect();
        for s in 0..SECONDS_PER_VP {
            let now = s + 1;
            let locs: Vec<GeoPos> = (0..n)
                .map(|i| GeoPos::new(i as f64 * spacing + s as f64, 0.0))
                .collect();
            let vds: Vec<_> = builders
                .iter_mut()
                .enumerate()
                .map(|(i, b)| b.record_second(&(s * 97).to_le_bytes(), locs[i]))
                .collect();
            for i in 0..n {
                for j in 0..n {
                    if i != j && locs[i].distance(&locs[j]) <= spacing * 1.5 {
                        builders[i].accept_neighbor_vd(vds[j], now, locs[i]);
                    }
                }
            }
        }
        builders
            .into_iter()
            .map(|b| b.finalize().profile.into_stored())
            .collect()
    }

    fn arcs(vps: Vec<StoredVp>) -> Vec<Arc<StoredVp>> {
        vps.into_iter().map(Arc::new).collect()
    }

    fn site_at(x: f64, r: f64) -> Site {
        Site {
            center: GeoPos::new(x, 0.0),
            radius_m: r,
        }
    }

    #[test]
    fn chain_viewmap_is_connected_single_layer() {
        let vps = build_chain(8, 150.0, 1);
        let site = site_at(7.0 * 150.0, 200.0);
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &ViewmapConfig::default());
        assert_eq!(vm.len(), 8);
        assert_eq!(vm.trusted, vec![0]);
        // Each interior node links to both neighbors.
        assert!(vm.edge_count() >= 7, "edges: {}", vm.edge_count());
        assert!(vm.member_connectivity() > 0.99);
    }

    #[test]
    fn verification_marks_site_vps_legitimate() {
        let vps = build_chain(8, 150.0, 2);
        let site = site_at(7.0 * 150.0, 160.0);
        let cfg = ViewmapConfig::default();
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &cfg);
        let (v, ids, _) = vm.verify_counted(&site, &cfg);
        assert!(v.top.is_some());
        assert!(!ids.is_empty());
        // The marked VPs genuinely claim positions in the site.
        for &i in &v.legitimate {
            assert!(site.contains_vp(&vm.vps[i]));
        }
    }

    #[test]
    fn unlinked_far_vp_is_isolated() {
        let mut vps = build_chain(5, 150.0, 3);
        // A stranger VP near the site but never exchanged VDs with anyone.
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(600.0, 10.0), VpKind::Actual);
        for s in 0..SECONDS_PER_VP {
            b.record_second(b"solo", GeoPos::new(600.0 + s as f64, 10.0));
        }
        vps.push(b.finalize().profile.into_stored());
        let site = site_at(600.0, 200.0);
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &ViewmapConfig::default());
        let solo = vm
            .vps
            .iter()
            .position(|vp| vp.start_loc().y == 10.0)
            .unwrap();
        assert_eq!(vm.graph.degree(solo), 0, "stranger must have no viewlinks");
        assert!(vm.member_connectivity() < 1.0);
    }

    #[test]
    fn other_minutes_are_excluded() {
        let mut vps = build_chain(4, 150.0, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut b = VpBuilder::new(&mut rng, 60, GeoPos::new(0.0, 0.0), VpKind::Actual);
        for s in 0..SECONDS_PER_VP {
            b.record_second(b"late", GeoPos::new(s as f64, 0.0));
        }
        vps.push(b.finalize().profile.into_stored());
        // Site radius large enough that coverage admits the whole chain.
        let vm = Viewmap::build(
            &arcs(vps),
            site_at(0.0, 400.0),
            MinuteId(0),
            &ViewmapConfig::default(),
        );
        assert_eq!(vm.len(), 4, "minute-1 VP must not join minute-0 viewmap");
    }

    #[test]
    fn coverage_excludes_vps_far_from_everything() {
        let mut vps = build_chain(4, 100.0, 7);
        // A legitimate pair far away (5 km) — outside coverage.
        let far = build_chain(2, 100.0, 8);
        for mut vp in far {
            for vd in &mut vp.vds {
                vd.loc.x += 5000.0;
            }
            vp.trusted = false;
            vps.push(vp);
        }
        let site = site_at(300.0, 150.0);
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &ViewmapConfig::default());
        assert_eq!(vm.len(), 4, "distant VPs excluded from coverage");
    }

    #[test]
    fn no_trusted_vp_yields_no_verification() {
        let mut vps = build_chain(4, 150.0, 9);
        vps[0].trusted = false;
        let site = site_at(450.0, 200.0);
        let cfg = ViewmapConfig::default();
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &cfg);
        let (v, ids, _) = vm.verify_counted(&site, &cfg);
        assert_eq!(v.top, None);
        assert!(ids.is_empty());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let vps = build_chain(10, 120.0, 10);
        let vm = Viewmap::build(
            &arcs(vps),
            site_at(500.0, 300.0),
            MinuteId(0),
            &ViewmapConfig::default(),
        );
        for i in 0..vm.len() {
            for &j in vm.graph.neighbors(i) {
                assert!(
                    vm.graph.neighbors(j as usize).contains(&(i as u32)),
                    "edge {i}-{j} not symmetric"
                );
            }
        }
    }

    #[test]
    fn build_shares_arcs_with_caller() {
        // Zero-copy admission: the viewmap's members are the same
        // allocations the caller (in production, the server DB) holds.
        let vps = arcs(build_chain(4, 150.0, 11));
        let vm = Viewmap::build(
            &vps,
            site_at(0.0, 400.0),
            MinuteId(0),
            &ViewmapConfig::default(),
        );
        assert_eq!(vm.len(), 4);
        for member in &vm.vps {
            let original = vps.iter().find(|vp| vp.id == member.id).unwrap();
            assert!(
                Arc::ptr_eq(member, original),
                "member must share the caller's allocation"
            );
        }
    }

    #[test]
    fn extreme_fp_exact_trajectories_do_not_overflow_prefilters() {
        // Forged trajectories oscillating across ±1e9 m are admissible
        // (screen() checks only VD count and time order) and sit exactly
        // inside the FP_MAX_M gate, so their fixed-point radii reach
        // ceil(√2·1e9) ≈ 1.41e9 — two of those summed overflow i32. The
        // prefilter limit arithmetic must widen to i64 first: the build
        // must not panic (debug overflow checks) and must still agree
        // with the O(n²) oracle.
        let mut rng = StdRng::seed_from_u64(77);
        let mut vps = Vec::new();
        for k in 0..2u64 {
            let mut b = VpBuilder::new(&mut rng, 0, GeoPos::new(0.0, 0.0), VpKind::Actual);
            for s in 0..SECONDS_PER_VP {
                let sign = if (s + k) % 2 == 0 { 1.0 } else { -1.0 };
                b.record_second(b"forged", GeoPos::new(sign * 1.0e9, sign * 1.0e9));
            }
            let mut fin = b.finalize();
            // Enough Bloom occupancy to pass the can-link gate, so the
            // forged members reach the candidate scan.
            for i in 0..16u64 {
                fin.profile
                    .bloom
                    .insert(&vm_crypto::Digest16::hash(&i.to_le_bytes()));
            }
            vps.push(fin.profile.into_stored());
        }
        vps.extend(build_chain(3, 150.0, 78));
        let site = site_at(0.0, 1.5e9);
        let cfg = ViewmapConfig::default();
        let vm = Viewmap::build(&arcs(vps), site, MinuteId(0), &cfg);
        assert_eq!(vm.len(), 5, "everyone admitted");
        for i in 0..vm.len() {
            for j in (i + 1)..vm.len() {
                let close = vm.vps[i]
                    .min_aligned_distance(&vm.vps[j])
                    .is_some_and(|d| d <= cfg.dsrc_radius_m);
                let expect = close && vm.vps[i].mutually_linked(&vm.vps[j]);
                assert_eq!(
                    vm.graph.neighbors(i).contains(&(j as u32)),
                    expect,
                    "edge {i}-{j}"
                );
            }
        }
    }

    #[test]
    fn build_matches_exhaustive_edges() {
        // The memo's grid candidate generation must find exactly the
        // edges an O(n²) scan over min_aligned_distance + mutually_linked
        // finds.
        for seed in [20u64, 21, 22] {
            let vps = build_chain(12, 140.0, seed);
            let cfg = ViewmapConfig::default();
            let vm = Viewmap::build(&arcs(vps.clone()), site_at(800.0, 900.0), MinuteId(0), &cfg);
            assert_eq!(vm.len(), vps.len());
            // Map viewmap index -> original index via VP id.
            for i in 0..vm.len() {
                for j in (i + 1)..vm.len() {
                    let close = vm.vps[i]
                        .min_aligned_distance(&vm.vps[j])
                        .is_some_and(|d| d <= cfg.dsrc_radius_m);
                    let expect = close && vm.vps[i].mutually_linked(&vm.vps[j]);
                    let got = vm.graph.neighbors(i).contains(&(j as u32));
                    assert_eq!(got, expect, "seed {seed}: edge {i}-{j} mismatch");
                }
            }
        }
    }
}
