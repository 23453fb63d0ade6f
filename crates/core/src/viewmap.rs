//! Viewmap construction (Section 5.2.1).
//!
//! A viewmap is built per minute around an incident: select the trusted
//! VP(s) closest to the investigation site, span a coverage area `C` that
//! encompasses the site and those trusted VPs, admit every VP whose claimed
//! trajectory enters `C`, and create a *viewlink* edge between two member
//! VPs iff (a) their time-aligned claimed locations come within DSRC radio
//! range and (b) the two-way Bloom-filter membership test passes.
//!
//! # Construction engine
//!
//! Members are held as `Arc<StoredVp>` shared with the server's VP
//! database — admitting a VP into a viewmap is a pointer copy, never a
//! deep clone of its 60 VDs and 256-byte Bloom filter.
//!
//! Viewlink generation runs in four phases, each parallelized over
//! contiguous chunks via [`crate::par`] with results merged in chunk
//! order (and order-restoring sorts where a phase reorders work for
//! locality), so the constructed viewmap is **bit-for-bit identical for
//! every thread count** (the equivalence property tests in `vm-bench`
//! hold the engine to that). All four phases run on flat, cache-native
//! data — structure-of-arrays tables laid out in a spatial (Morton)
//! member order — instead of per-member heap records:
//!
//! 1. **Trajectory tables** — per member, one scan of the minute-window
//!    VDs producing (a) the compact window of claimed positions,
//!    interleaved `(x, y)` `f64` pairs with `NaN` gap slots, appended to
//!    a shared coordinate arena, and (b) the prefilter geometry — bounding
//!    box, bounding circle, and six time-segment circles — quantized to
//!    conservative fixed-point `i32` meters (mins floored, maxes/radii
//!    ceiled, centers rounded with slack added at the comparisons, so a
//!    fixed-point check can only ever *pass more* than its `f64`
//!    counterpart). Members are then permuted into Morton order of their
//!    bounding-circle grid cell and every per-member field is gathered
//!    into dense per-field arrays indexed by that rank: spatial neighbors
//!    become memory neighbors.
//! 2. **Candidate pairs** — grid cells are counting-sorted runs of the
//!    Morton permutation (cell code → contiguous rank range), so a query
//!    streams whole runs of neighbors whose prefilter fields sit in
//!    adjacent array slots — no hash-bucket `Vec`s, no per-`Traj` pointer
//!    chasing. Two members can share an in-range second only if their
//!    circle centers lie within `dsrc + r_i + r_j`, so scanning the cells
//!    within `dsrc + r_i + r_max` of each member yields a strict superset
//!    of the true pairs, each generated exactly once (from its
//!    lower-indexed member). Candidates are settled immediately — integer
//!    center/bbox-gap/segment prefilters, then the exact shared-second
//!    scan over the `f64` arena, bit-identical to the reference
//!    definition — and the surviving pair list is sorted back into
//!    ascending `(i, j)` order, erasing the Morton detour from the
//!    result.
//! 3. **Bloom keys** — members appearing in a surviving pair get their 60
//!    element-VD keys hashed and cached on the `StoredVp`
//!    ([`StoredVp::link_keys`]), so repeat investigations of the minute
//!    skip the pass. The 60 digests per member are independent messages
//!    and run through `vm_crypto`'s multi-buffer engine
//!    (`sha256_many`: interleaved SHA-NI streams, or interleaved message
//!    schedules on the scalar fallback) rather than one serial hash
//!    chain at a time.
//! 4. **Two-way linkage** — the paper's mutual Bloom test over flat
//!    probe arenas (Bloom words and key halves), laid out in the same
//!    Morton member order and *evaluated* in holder-rank order: all pairs
//!    holding the same member are consecutive, so its filter words and
//!    key halves are touched once per tile while hot in L1/L2, and the
//!    partner side of each probe is a spatial neighbor sitting nearby in
//!    the arena. Survivors are sorted back to ascending pair order before
//!    the adjacency lists are assembled.

use crate::trustrank::{self, Verification};
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
    /// Symmetric adjacency lists (viewlinks).
    pub adj: Vec<Vec<usize>>,
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
        Self::build_with_threads(candidates, site, minute, cfg, 0).0
    }

    /// As [`build`](Self::build) with an explicit worker-thread count for
    /// the construction phases, additionally returning the wall-clock
    /// cost of each phase. `0` (the [`build`](Self::build) default)
    /// picks automatically: single-threaded below
    /// [`PARALLEL_MEMBER_THRESHOLD`] members, one thread per core (capped)
    /// above it. Any thread count produces a bit-for-bit identical
    /// viewmap; the explicit knob exists so benchmarks can pin the
    /// sequential baseline and tests can force the fan-out on small
    /// inputs. The profile is four timestamp reads — the profiled build
    /// *is* the production build — so it is always returned.
    pub fn build_with_threads(
        candidates: &[Arc<StoredVp>],
        site: Site,
        minute: MinuteId,
        cfg: &ViewmapConfig,
        threads: usize,
    ) -> (Viewmap, BuildProfile) {
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

        let threads = if threads == 0 {
            crate::par::auto_threads(vps.len(), PARALLEL_MEMBER_THRESHOLD)
        } else {
            threads.clamp(1, crate::par::MAX_THREADS)
        };
        let mut profile = BuildProfile::default();
        let adj = build_viewlinks(&vps, minute, cfg, threads, &mut profile);

        let trusted = vps
            .iter()
            .enumerate()
            .filter(|(_, vp)| vp.trusted)
            .map(|(i, _)| i)
            .collect();
        (
            Viewmap {
                vps,
                adj,
                trusted,
                minute,
            },
            profile,
        )
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
        self.adj.iter().map(|n| n.len()).sum::<usize>() / 2
    }

    /// Fraction of members with at least one viewlink (Fig. 22f).
    pub fn member_connectivity(&self) -> f64 {
        if self.vps.is_empty() {
            return 0.0;
        }
        let connected = self.adj.iter().filter(|n| !n.is_empty()).count();
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
    /// verification outcome plus the marked VP identifiers.
    pub fn verify(&self, site: &Site, cfg: &ViewmapConfig) -> (Verification, Vec<VpId>) {
        let (v, ids, _) = self.verify_counted(site, cfg);
        (v, ids)
    }

    /// As [`verify`](Self::verify), also returning the TrustRank
    /// iteration count (0 when there is no trusted anchor to seed the
    /// power method). The server's investigation paths record it into
    /// the telemetry registry.
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
            trustrank::verify_site_csr_iter(
                &trustrank::CsrGraph::from_adj(&self.adj),
                &self.trusted,
                &site_idx,
                cfg.damping,
            )
        };
        let ids = v.legitimate.iter().map(|&i| self.vps[i].id).collect();
        (v, ids, iterations)
    }
}

/// Worker threads kick in above this many admitted members (below it,
/// spawn/join overhead outweighs the fan-out).
pub const PARALLEL_MEMBER_THRESHOLD: usize = 4096;

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

/// Wall-clock milliseconds per viewlink-engine phase, from
/// [`Viewmap::build_with_threads`]. The phases are the four stages the
/// module docs describe; admission/coverage selection (microseconds at
/// any tier) is outside them, so the fields sum to slightly less than
/// the end-to-end build time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildProfile {
    /// Phase 1 — trajectory tables: member scan, Morton ordering, and
    /// the SoA gather + coordinate-arena fill.
    pub tables_ms: f64,
    /// Phase 2 — candidate generation, settled to exact in-range pairs
    /// (includes the order-restoring sort).
    pub candidates_ms: f64,
    /// Phase 3 — Bloom-key hashing for members in surviving pairs
    /// (multi-buffer SHA-256; zero when the minute is key-warm).
    pub keys_ms: f64,
    /// Phase 4 — flat-arena assembly plus the two-way Bloom linkage
    /// pass in holder-tile order.
    pub linkage_ms: f64,
}

/// Per-member scan output of phase 1: the compact-window shape, the
/// `f64` bounding circle the grid geometry derives from, and the
/// conservative fixed-point prefilter forms. The member's claimed
/// positions go to a shared coordinate slab, not into this struct — the
/// pair loop later reads them from the rank-ordered arena.
///
/// Crate-visible (not just module-local) because the viewlink memo
/// ([`crate::maintained`]) runs the same scan and the same pairwise
/// predicates over per-member geometry rows instead of the engine's
/// rank-gathered SoA tables.
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
    /// assignment) derives from these, as before the SoA rewrite.
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

// ── Shared pairwise predicates ──────────────────────────────────────────
//
// The viewlink edge predicate is purely *pairwise*: whether two members
// link depends only on the two trajectories (exact shared-second scan)
// and the two Bloom filters — never on the rest of the population. The
// grid, Morton order, and SoA tables above only generate/prune candidate
// supersets. These free functions are that predicate, factored out so the
// cold engine (`build_viewlinks`, reading rank-indexed SoA columns) and
// the viewlink memo's splice (`crate::maintained`, reading per-member
// `MemberGeom` rows) run byte-for-byte the same comparisons — the
// bit-identity the churn-equivalence suite pins rests on this sharing.

/// Conservative integer bbox prefilter: are the boxes provably farther
/// apart than the radio range? Mins are floored / maxes ceiled at
/// construction, so the computed gap underestimates the true gap and a
/// `true` here can never reject a real edge.
#[inline]
pub(crate) fn bbox_gap_beyond(ba: &[i32; 4], bb: &[i32; 4], radius_c: i64) -> bool {
    let dx = ((bb[0] - ba[2]) as i64).max((ba[0] - bb[2]) as i64).max(0);
    let dy = ((bb[1] - ba[3]) as i64).max((ba[1] - bb[3]) as i64).max(0);
    dx * dx + dy * dy > radius_c * radius_c
}

/// Conservative temporal-segment prefilter: can any pair of segments
/// with overlapping offset windows come within radio range (+2 m slack
/// for the rounded centers)? `false` proves no shared in-range second
/// exists.
#[inline]
pub(crate) fn segments_may_touch(
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

/// The exact location-proximity test: did the two members come within
/// `sqrt(r2)` of each other at any shared in-window second? `wa`/`wb`
/// are the members' compact windows — interleaved `(x, y)` pairs with
/// `NaN` gap slots (which compare false and drop out on their own) —
/// starting at 1-based offsets `first_a`/`first_b`.
#[inline]
pub(crate) fn shares_in_range_second(
    first_a: u32,
    len_a: u32,
    wa: &[f64],
    first_b: u32,
    len_b: u32,
    wb: &[f64],
    r2: f64,
) -> bool {
    let lo = first_a.max(first_b);
    let hi = (first_a + len_a).min(first_b + len_b);
    let mut t = lo;
    while t < hi {
        let ia = (2 * (t - first_a)) as usize;
        let ib = (2 * (t - first_b)) as usize;
        let dx = wa[ia] - wb[ib];
        let dy = wa[ia + 1] - wb[ib + 1];
        if dx * dx + dy * dy <= r2 {
            return true;
        }
        t += 1;
    }
    false
}

/// The full exact pair predicate over two members' geometry rows and
/// compact windows: conservative integer prefilters (only when both
/// members' fixed-point forms are exact), then the bit-exact `f64`
/// shared-second scan. The engine's per-candidate settling closure and
/// the viewlink memo's splice both resolve to this.
#[inline]
pub(crate) fn settle_pair(
    ga: &MemberGeom,
    wa: &[f64],
    gb: &MemberGeom,
    wb: &[f64],
    radius_c: i64,
    r2: f64,
) -> bool {
    if ga.fp_exact
        && gb.fp_exact
        && (bbox_gap_beyond(&ga.bb, &gb.bb, radius_c)
            || !segments_may_touch(&ga.segs, &ga.seg_win, &gb.segs, &gb.seg_win, radius_c))
    {
        return false;
    }
    shares_in_range_second(ga.first, ga.len, wa, gb.first, gb.len, wb, r2)
}

/// Grid radius cap from a population's active bounding-circle radii:
/// 4× the 95th-percentile radius, floored by the radio range. Members
/// above the cap are handled off-grid (see the cold engine's candidate
/// phase) so one city-spanning forgery cannot inflate every member's
/// query reach. Sorts `active_radii` in place.
pub(crate) fn radius_cap(active_radii: &mut [f64], radius: f64) -> f64 {
    active_radii.sort_unstable_by(f64::total_cmp);
    active_radii
        .get(active_radii.len().saturating_mul(95) / 100)
        .or(active_radii.last())
        .map_or(0.0, |&p95| (4.0 * p95).max(radius))
}

/// Grid cell size for a given radio range and capped max member radius.
#[inline]
pub(crate) fn cell_size(radius: f64, r_max: f64) -> f64 {
    ((radius + 2.0 * r_max) / 4.0).max(1.0)
}

/// Spread the 32 bits of `v` into the even bit positions of a `u64`.
fn morton_spread(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Z-order (Morton) code of a grid cell. Cell coordinates are the
/// wrapped low 32 bits of the true `i64` cell index: truncation keeps
/// every 2³²-cell-wide neighborhood collision-free — far-apart cells
/// that do collide only add candidates the center prefilter rejects, so
/// correctness never depends on the wrap (mirroring how the hash grid
/// this replaces tolerated arbitrary coordinates).
pub(crate) fn morton_code(cx: u32, cy: u32) -> u64 {
    morton_spread(cx) | (morton_spread(cy) << 1)
}

/// Viewlink edges for a member set — the four-phase engine described in
/// the module docs, phase times recorded into `profile`. Every phase
/// fans out over contiguous chunks and merges in chunk order (with
/// order-restoring sorts after the spatially-reordered passes), so the
/// result is identical for any `threads`.
pub(crate) fn build_viewlinks(
    vps: &[Arc<StoredVp>],
    minute: MinuteId,
    cfg: &ViewmapConfig,
    threads: usize,
    profile: &mut BuildProfile,
) -> Vec<Vec<usize>> {
    let n = vps.len();
    let mut adj = vec![Vec::new(); n];
    if n < 2 {
        return adj;
    }
    let radius = cfg.dsrc_radius_m;
    let r2 = radius * radius;
    // Conservative integer radio range for the fixed-point prefilters.
    let radius_c = radius.ceil() as i64;
    let start = minute.start_second();
    // The SoA tables index with u32 (arena offsets count interleaved
    // coordinates: ≤ 240 per member). One minute of one city staying
    // under ~17.9M members is part of the protocol's scale envelope;
    // fail loudly rather than wrap silently if that ever moves.
    assert!(
        n as u64 * 4 * SECONDS_PER_VP <= u32::MAX as u64,
        "viewmap of {n} members exceeds u32 SoA indexing"
    );
    let member_cuts = crate::par::even_cuts(n, threads);
    let t_tables = std::time::Instant::now();

    // ── Phase 1: trajectory tables, Morton order, SoA gather ────────────
    // Parallel member scan into chunk-local geometry + coordinate slabs
    // (worker `t` fills slab `t`).
    let chunks = member_cuts.len() - 1;
    let mut chunk_coords: Vec<Vec<f64>> = vec![Vec::new(); chunks];
    let unit_cuts: Vec<usize> = (0..=chunks).collect();
    let chunk_geoms: Vec<Vec<MemberGeom>> =
        crate::par::map_disjoint_mut(&mut chunk_coords[..], &unit_cuts, |t, slab| {
            let coords = &mut slab[0];
            let (lo, hi) = (member_cuts[t], member_cuts[t + 1]);
            coords.reserve((hi - lo) * 2 * SECONDS_PER_VP as usize);
            let mut geoms = Vec::with_capacity(hi - lo);
            for vp in &vps[lo..hi] {
                geoms.push(MemberGeom::scan(vp, start, coords));
            }
            geoms
        });
    let mut geom: Vec<MemberGeom> = Vec::with_capacity(n);
    // Where each member's window lives: (chunk, offset into its slab).
    let mut src: Vec<(u32, u32)> = Vec::with_capacity(n);
    for (c, geoms) in chunk_geoms.into_iter().enumerate() {
        let mut off = 0u32;
        for g in &geoms {
            src.push((c as u32, off));
            off += 2 * g.len;
        }
        geom.extend(geoms);
    }

    // Grid geometry from the population's *typical* trajectory extent,
    // not its most spread-out member: `screen()` only checks VD count
    // and time order, so a single city-spanning (or teleporting)
    // trajectory is admissible — and if it set `r_max`, it would inflate
    // every member's query reach to city scale and turn candidate
    // generation quadratic (a build-time DoS). Members whose radius
    // exceeds `r_cap` (4× the 95th-percentile radius, floored by the
    // radio range) — and the fixed-point-overflowing forgeries — are
    // instead handled off-grid below: each is paired against every
    // member through the same filter pipeline — exact, deterministic,
    // and linear per outlier.
    let mut active_radii: Vec<f64> = geom.iter().filter(|g| g.active()).map(|g| g.r).collect();
    let r_cap = radius_cap(&mut active_radii, radius);
    let gridded = |g: &MemberGeom| g.active() && g.fp_exact && g.r <= r_cap;
    let r_max = geom
        .iter()
        .filter(|g| gridded(g))
        .map(|g| g.r)
        .fold(0.0f64, f64::max);
    let cell = cell_size(radius, r_max);
    let rf_max = geom
        .iter()
        .filter(|g| gridded(g))
        .map(|g| g.rf)
        .max()
        .unwrap_or(0);

    // Morton permutation: gridded members sorted by cell Z-code (ties by
    // member index — fully deterministic), off-grid members appended in
    // index order. `order[rank] = member`, `rank_of[member] = rank`.
    let cell_of = |g: &MemberGeom| {
        (
            (g.cx / cell).floor() as i64 as u32,
            (g.cy / cell).floor() as i64 as u32,
        )
    };
    let mut keyed: Vec<(u64, u32)> = geom
        .iter()
        .enumerate()
        .filter(|(_, g)| gridded(g))
        .map(|(i, g)| {
            let (cx, cy) = cell_of(g);
            (morton_code(cx, cy), i as u32)
        })
        .collect();
    keyed.sort_unstable();
    let n_gridded = keyed.len();
    let wild: Vec<u32> = (0..n as u32)
        .filter(|&i| {
            let g = &geom[i as usize];
            g.active() && !gridded(g)
        })
        .collect();
    let mut order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
    order.extend(&wild);
    let n_ranked = order.len();
    let mut rank_of: Vec<u32> = vec![u32::MAX; n];
    for (k, &i) in order.iter().enumerate() {
        rank_of[i as usize] = k as u32;
    }

    // Cell runs: equal Z-codes are contiguous in the permutation, so a
    // cell is a `(start, len)` rank range — counting-sorted buckets with
    // no per-bucket allocations.
    let mut cells: std::collections::HashMap<u64, (u32, u32), vm_geo::FxBuildHasher> =
        std::collections::HashMap::with_capacity_and_hasher(n_gridded, Default::default());
    {
        let mut s = 0usize;
        while s < n_gridded {
            let code = keyed[s].0;
            let mut e = s + 1;
            while e < n_gridded && keyed[e].0 == code {
                e += 1;
            }
            cells.insert(code, (s as u32, (e - s) as u32));
            s = e;
        }
    }

    // Rank-indexed SoA prefilter tables: the pair loop touches these in
    // near-sequential order, so spatial neighbors share cache lines.
    let mut first = vec![0u32; n_ranked];
    let mut len_of = vec![0u32; n_ranked];
    let mut fpe = vec![false; n_ranked];
    let mut cxf = vec![0i32; n_ranked];
    let mut cyf = vec![0i32; n_ranked];
    let mut rf = vec![0i32; n_ranked];
    let mut bb = vec![[0i32; 4]; n_ranked];
    let mut segs = vec![[(0i32, 0i32, 0i32); TRAJ_SEGMENTS]; n_ranked];
    let mut seg_win = vec![[(0u8, 0u8); TRAJ_SEGMENTS]; n_ranked];
    let mut cellx = vec![0u32; n_gridded];
    let mut celly = vec![0u32; n_gridded];
    let mut reach_f = vec![0.0f64; n_gridded];
    let mut arena_off = vec![0u32; n_ranked + 1];
    for (k, &iu) in order.iter().enumerate() {
        let g = &geom[iu as usize];
        first[k] = g.first;
        len_of[k] = g.len;
        fpe[k] = g.fp_exact;
        cxf[k] = g.cxf;
        cyf[k] = g.cyf;
        rf[k] = g.rf;
        bb[k] = g.bb;
        segs[k] = g.segs;
        seg_win[k] = g.seg_win;
        if k < n_gridded {
            let (cx, cy) = cell_of(g);
            cellx[k] = cx;
            celly[k] = cy;
            reach_f[k] = radius + g.r + r_max;
        }
        arena_off[k + 1] = arena_off[k] + 2 * g.len;
    }

    // Coordinate arena in rank order: interleaved (x, y) f64 pairs, so
    // the exact scan streams two contiguous, usually-nearby slabs.
    let rank_cuts = crate::par::even_cuts(n_ranked, threads);
    let arena_cuts: Vec<usize> = rank_cuts.iter().map(|&k| arena_off[k] as usize).collect();
    let mut arena = vec![0.0f64; arena_off[n_ranked] as usize];
    crate::par::map_disjoint_mut(&mut arena[..], &arena_cuts, |t, slab| {
        let mut p = 0usize;
        for k in rank_cuts[t]..rank_cuts[t + 1] {
            let (c, o) = src[order[k] as usize];
            let l = 2 * len_of[k] as usize;
            slab[p..p + l].copy_from_slice(&chunk_coords[c as usize][o as usize..o as usize + l]);
            p += l;
        }
    });
    // The phase-1 slabs are fully transcribed into the rank arena: free
    // them now (they are roughly another arena's worth of memory, ~200 MB
    // at the 100k tier) instead of carrying them through phases 2-4.
    drop(chunk_coords);
    profile.tables_ms = t_tables.elapsed().as_secs_f64() * 1e3;
    let t_candidates = std::time::Instant::now();

    // ── Phase 2: candidate pairs, settled to exact in-range pairs ───────
    // All prefilters are conservative integer comparisons (+2 m slack
    // covers the center rounding; members without exact fixed-point
    // forms skip straight to the f64 scan), and the settling scan is the
    // bit-exact f64 shared-second walk — so the surviving pair set is
    // identical to the reference definition's. The comparisons live in
    // the shared pairwise-predicate functions above (also the
    // viewlink memo's edge test); this closure only adapts them
    // to the rank-indexed SoA columns.
    let settle = |a: usize, b: usize| -> bool {
        if fpe[a]
            && fpe[b]
            && (bbox_gap_beyond(&bb[a], &bb[b], radius_c)
                || !segments_may_touch(&segs[a], &seg_win[a], &segs[b], &seg_win[b], radius_c))
        {
            return false;
        }
        let (oa, ob) = (arena_off[a] as usize, arena_off[b] as usize);
        shares_in_range_second(
            first[a],
            len_of[a],
            &arena[oa..oa + 2 * len_of[a] as usize],
            first[b],
            len_of[b],
            &arena[ob..ob + 2 * len_of[b] as usize],
            r2,
        )
    };

    // Pairs are emitted as packed `i << 32 | j` with `i < j` in member
    // indices, each exactly once (from the lower-indexed member's cell
    // scan); the final sort restores global ascending pair order — the
    // edge order the two-way validation and adjacency assembly follow —
    // erasing the Morton processing order from the result.
    let g_cuts = crate::par::even_cuts(n_gridded, threads);
    let mut in_range: Vec<u64> = Vec::new();
    let pair_chunks = crate::par::map_ranges(&g_cuts, |_t, lo, hi| {
        let mut out: Vec<u64> = Vec::new();
        for a in lo..hi {
            let i = order[a] as usize;
            let rc = (reach_f[a] / cell).ceil() as i64;
            let lim = radius_c + rf[a] as i64 + rf_max as i64 + 2;
            for dy in -rc..=rc {
                let cy = celly[a].wrapping_add(dy as u32);
                for dx in -rc..=rc {
                    let cx = cellx[a].wrapping_add(dx as u32);
                    let Some(&(s, l)) = cells.get(&morton_code(cx, cy)) else {
                        continue;
                    };
                    for b in s as usize..(s + l) as usize {
                        let j = order[b] as usize;
                        if j <= i {
                            continue;
                        }
                        let (ddx, ddy) = ((cxf[a] - cxf[b]) as i64, (cyf[a] - cyf[b]) as i64);
                        let pair_lim = lim.min(radius_c + rf[a] as i64 + rf[b] as i64 + 2);
                        if ddx * ddx + ddy * ddy > pair_lim * pair_lim {
                            continue;
                        }
                        if settle(a, b) {
                            out.push(((i as u64) << 32) | j as u64);
                        }
                    }
                }
            }
        }
        out
    });
    for chunk in pair_chunks {
        in_range.extend(chunk);
    }

    // Off-grid pass for the capped/overflowing outliers: pair each
    // against every member (wild–wild pairs once, from the lower index).
    // Honest populations have no outliers and skip this entirely.
    for &wu in &wild {
        let w = wu as usize;
        for j in (0..n).filter(|&j| j != w && geom[j].active()) {
            if !gridded(&geom[j]) && j < w {
                continue;
            }
            let (lo_m, hi_m) = (w.min(j), w.max(j));
            let (a, b) = (rank_of[lo_m] as usize, rank_of[hi_m] as usize);
            if settle(a, b) {
                in_range.push(((lo_m as u64) << 32) | hi_m as u64);
            }
        }
    }
    in_range.sort_unstable();
    profile.candidates_ms = t_candidates.elapsed().as_secs_f64() * 1e3;
    if in_range.is_empty() {
        return adj;
    }
    let t_keys = std::time::Instant::now();

    // ── Phase 3: Bloom keys for members that still matter ───────────────
    let mut needs_keys = vec![false; n];
    for &packed in in_range.iter() {
        needs_keys[(packed >> 32) as usize] = true;
        needs_keys[(packed & 0xffff_ffff) as usize] = true;
    }
    let needed: Vec<usize> = (0..n).filter(|&i| needs_keys[i]).collect();
    // Hash in Morton-rank order: the freshly allocated per-VP key caches
    // then sit in memory in exactly the order the phase-4 arena gather
    // walks them, turning that gather from a random walk over ~100 MB of
    // boxes into a sequential stream (measured ~5× faster at the 100k
    // tier). The hashed values are order-independent, so this is purely
    // an allocation-layout choice.
    let mut probe_order: Vec<u32> = needed.iter().map(|&m| m as u32).collect();
    probe_order.sort_unstable_by_key(|&m| rank_of[m as usize]);
    let key_cuts = crate::par::even_cuts(probe_order.len(), threads);
    crate::par::map_ranges(&key_cuts, |_t, lo, hi| {
        for &m in &probe_order[lo..hi] {
            vps[m as usize].link_keys();
        }
    });
    profile.keys_ms = t_keys.elapsed().as_secs_f64() * 1e3;
    let t_linkage = std::time::Instant::now();

    // ── Phase 4: the paper's two-way Bloom linkage test ─────────────────
    // Flat probe tables, so the pair loop touches two dense arenas
    // instead of chasing `Arc`s into scattered multi-KB VP records:
    // Bloom bits as `u64` words and keys reduced to the `(h1, h2|1)`
    // double-hashing halves that `BloomFilter::insert`/`contains` derive
    // from a digest. Both arenas cover only `needed` members — every
    // probe has a surviving pair's endpoint as both holder and element
    // owner — and are laid out in Morton rank order, so the partner side
    // of a probe is a spatial neighbor sitting nearby in the arena
    // rather than a uniformly random multi-MB jump.
    let mut bloom_words: Vec<u64> = Vec::with_capacity(
        needed
            .iter()
            .map(|&m| vps[m].bloom.m_bits().div_ceil(64))
            .sum(),
    );
    let mut bloom_meta: Vec<(u32, u32, u32)> = vec![(0, 0, 0); n]; // (base, m_bits, k)
    let mut key_spans = vec![(0u32, 0u32); n];
    let mut key_halves: Vec<(u64, u64)> =
        Vec::with_capacity(needed.len() * SECONDS_PER_VP as usize);
    for &mu in &probe_order {
        let m = mu as usize;
        let vp = &vps[m];
        bloom_meta[m] = (
            bloom_words.len() as u32,
            vp.bloom.m_bits() as u32,
            vp.bloom.k() as u32,
        );
        vp.bloom.append_words(&mut bloom_words);
        let cached = vp.link_keys();
        key_spans[m] = (key_halves.len() as u32, cached.len() as u32);
        for key in cached {
            key_halves.push(crate::bloom::probe_halves(key));
        }
    }
    // `holder.bloom.contains(key)` for any of `element_owner`'s keys,
    // over the flat tables — the probe sequence comes from the shared
    // `bloom::probe_halves`/`probe_slot` helpers (the same code
    // `BloomFilter::insert`/`contains` run), with the holder's words and
    // parameters loaded once per direction instead of once per key.
    let links_to = |holder: usize, element_owner: usize| -> bool {
        let (base, m, k) = bloom_meta[holder];
        let words = &bloom_words[base as usize..];
        let m = m as u64;
        let (start, len) = key_spans[element_owner];
        key_halves[start as usize..(start + len) as usize]
            .iter()
            .any(|&(h1, h2)| {
                for i in 0..k as u64 {
                    let s = crate::bloom::probe_slot(h1, h2, m, i);
                    if words[(s / 64) as usize] & (1u64 << (s % 64)) == 0 {
                        return false;
                    }
                }
                true
            })
    };
    // Holder tiles: evaluate the pairs sorted by the lower endpoint's
    // rank, so every pair holding member `i` is consecutive (its words
    // and key halves stay in L1 across its whole tile) and the `j` sides
    // are rank-local. The evaluation order is a pure function of the
    // pair set, and survivors sort back to ascending pair order, so the
    // reordering is invisible in the output.
    let mut eval: Vec<u64> = in_range
        .iter()
        .enumerate()
        .map(|(idx, &packed)| ((rank_of[(packed >> 32) as usize] as u64) << 32) | idx as u64)
        .collect();
    eval.sort_unstable();
    let pair_cuts = crate::par::even_cuts(eval.len(), threads);
    let mut survivors: Vec<u32> = crate::par::map_ranges(&pair_cuts, |_t, lo, hi| {
        eval[lo..hi]
            .iter()
            .filter_map(|&e| {
                let idx = (e & 0xffff_ffff) as usize;
                let packed = in_range[idx];
                let i = (packed >> 32) as usize;
                let j = (packed & 0xffff_ffff) as usize;
                (links_to(i, j) && links_to(j, i)).then_some(idx as u32)
            })
            .collect::<Vec<u32>>()
    })
    .into_iter()
    .flatten()
    .collect();
    survivors.sort_unstable();
    for &idx in &survivors {
        let packed = in_range[idx as usize];
        let i = (packed >> 32) as usize;
        let j = (packed & 0xffff_ffff) as usize;
        adj[i].push(j);
        adj[j].push(i);
    }
    profile.linkage_ms = t_linkage.elapsed().as_secs_f64() * 1e3;
    adj
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
        let (v, ids) = vm.verify(&site, &cfg);
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
        assert!(vm.adj[solo].is_empty(), "stranger must have no viewlinks");
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
        let (v, ids) = vm.verify(&site, &cfg);
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
        for (i, nbrs) in vm.adj.iter().enumerate() {
            for &j in nbrs {
                assert!(vm.adj[j].contains(&i), "edge {i}-{j} not symmetric");
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
                assert_eq!(vm.adj[i].contains(&j), expect, "edge {i}-{j}");
            }
        }
    }

    #[test]
    fn forced_fanout_is_the_production_build_plus_times() {
        // An explicit thread count must return the exact viewmap the
        // plain build produces (it IS the plain build), with finite,
        // non-negative per-phase times.
        let vps = arcs(build_chain(10, 120.0, 30));
        let cfg = ViewmapConfig::default();
        let site = site_at(500.0, 300.0);
        let plain = Viewmap::build(&vps, site, MinuteId(0), &cfg);
        let (profiled, p) = Viewmap::build_with_threads(&vps, site, MinuteId(0), &cfg, 2);
        assert_eq!(plain.len(), profiled.len());
        assert_eq!(plain.trusted, profiled.trusted);
        for i in 0..plain.len() {
            assert_eq!(plain.adj[i], profiled.adj[i], "adjacency at {i}");
        }
        assert!(plain.edge_count() > 0, "chain must link");
        for (name, v) in [
            ("tables", p.tables_ms),
            ("candidates", p.candidates_ms),
            ("keys", p.keys_ms),
            ("linkage", p.linkage_ms),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name}: {v}");
        }
    }

    #[test]
    fn soa_engine_matches_exhaustive_edges() {
        // The SoA/Morton candidate generation must find exactly the edges
        // an O(n²) scan over min_aligned_distance + mutually_linked finds.
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
                    let got = vm.adj[i].contains(&j);
                    assert_eq!(got, expect, "seed {seed}: edge {i}-{j} mismatch");
                }
            }
        }
    }
}
