//! The investigation path's two per-minute structures: the **bounds
//! table** a site is admitted through, and the **region-lazy viewlink
//! memo** that links only the members sites have actually touched.
//!
//! Together they make an investigation cost what its *site* costs, not
//! what its *minute* costs, while returning — bit for bit — what a cold
//! [`Viewmap::build`] over the same bucket prefix returns.
//!
//! The memo is the crate's **one viewlink linker**: a memo's first
//! touch, every later site, and a cold [`Viewmap::build`] (which admits
//! and then links through a fresh memo) all splice members in one at a
//! time through [`MaintainedViewmap::materialise`].
//!
//! # Why any materialised set answers bit-identically
//!
//! The viewlink edge predicate is purely **pairwise**: two members link
//! iff (a) their time-aligned claimed positions come within radio range
//! at some shared second (`viewmap::settle_pair`) and (b) the two-way
//! Bloom membership test passes. Nothing about the rest of the
//! population enters the predicate — the memo's candidate grid only
//! generates conservative *supersets*, and every candidate is settled by
//! the same exact predicate. Two consequences the memo is built on:
//!
//! 1. **The edge set over any member set is population-independent.**
//!    Materialising more members never changes whether two already
//!    materialised members link, so a site that admits members the memo
//!    has not seen only has to compute new×old and new×new pairs.
//! 2. **Any admitted subset's viewmap is the induced subgraph.** A cold
//!    build first admits members (site coverage), then links them; since
//!    linking is pairwise, the cold result equals any memo's edge set
//!    restricted to the admitted members. The memo keeps every row
//!    ascending *by bucket position*, and the admission remap (bucket
//!    position → index among the admitted) is monotone — so extraction
//!    is bit-for-bit identical to a cold build of the same bucket
//!    prefix, whatever else the memo holds.
//!
//! # The materialised-set invariant
//!
//! At every moment the memo holds a set `M` of bucket positions (the
//! *materialised* members) and **the complete viewlink edge set over
//! `M`**: for all `a, b ∈ M`, `b ∈ adj[a]` iff the pairwise predicate
//! holds. [`MaintainedViewmap::materialise`] restores the invariant for
//! `M ∪ A` before any site admitting `A` is extracted, so
//! [`MaintainedViewmap::extract`] never sees a member whose edges inside
//! the admitted set are missing. Members of `M` outside the admitted
//! set (touched by an earlier or concurrent site) are filtered out by
//! the remap; they cost nothing but their own rows.
//!
//! # Admission through the bounds table
//!
//! Ingest appends one [`VdBounds`] row per VP (the bounding box of its
//! 60 claimed positions, computed lock-free while screening) plus the
//! bucket positions of trusted VPs to the minute's [`BoundsTable`]. An
//! investigation scans the table — 32 bytes a VP instead of the VP's
//! ~5 KB of view digests — and rejects every VP whose box lies wholly
//! beyond the coverage radius. The box test is **reject-only and
//! monotone in `f64`**: every operation on the way from a coordinate to
//! `GeoPos::distance` (subtract, square, add, `sqrt`) is correctly
//! rounded and therefore monotone, so the distance from the site center
//! to the box's nearest edge, computed by the same operations, is never
//! larger than the computed distance to any position inside the box; a
//! box farther than the radius proves no position passes. Box survivors
//! take the exact 60-position check ([`Survivors::settle`]), so the
//! admitted set is exactly the cold build's. Non-finite coordinates
//! only ever widen a box or fail the reject comparison; they cannot
//! cause a wrong reject.
//!
//! # Lifecycle
//!
//! A memo belongs to **one bucket incarnation**. It is created empty
//! with the bucket (ingest allocates nothing for it and never links),
//! materialises members as sites admit them, and is dropped with the
//! bucket when the minute is evicted. An investigation fetches the
//! memo's handle under the same short shard read hold that takes its
//! admission snapshot; if a retention sweep drops the bucket meanwhile,
//! the investigation finishes on the orphaned handle, answers for its
//! snapshot, and the memo dies with the handle — nothing ever re-inserts
//! a memo into a shard, so a resubmitted minute starts from none.
//! Memos are never persisted: a recovered or promoted cell starts with
//! none. A cell-wide byte budget drops whole least-recently-investigated
//! memos; the next investigation of such a minute re-materialises from
//! the bucket and, by the invariant above, returns the same viewmap.
//!
//! # Lock order
//!
//! id stripes (ascending) → minute shard → memo. In practice the memo
//! lock is taken with **no shard lock held** (the handle is cloned under
//! the shard read guard and locked after the guard is released), never
//! under a shard write lock, and no shard lock is acquired while a memo
//! lock is held. Ingest therefore waits on an investigation only for
//! the table scan; concurrent investigations of one minute may
//! serialize on its memo.
//!
//! # Grid freezing
//!
//! The memo owns a candidate grid of bounding-circle cells, frozen from
//! the materialised set: `r_cap` (outlier cap: 4× the 95th-percentile
//! radius, floored by the radio range) and the cell size are computed
//! at the freeze, while `r_max` is a running maximum over gridded
//! members (queries use the current value, so reach always covers every
//! gridded member). A member whose radius exceeds the frozen cap, or
//! whose coordinates leave the fixed-point envelope, goes to the
//! off-grid (`wild`) list and pairs linearly, so one city-spanning
//! forgery cannot inflate every member's query reach. The grid is
//! re-frozen from the whole materialised set each time that set doubles
//! — from the first member on, O(1) amortised per member — so neither a
//! first touch nor an unrepresentative first site (one that admits only
//! a parked trusted VP would freeze a cap every moving vehicle exceeds)
//! fixes the geometry for good. Freezing changes only *pruning
//! efficiency*, never the edge set: correctness rests on the settled
//! pairwise predicate alone.

use crate::trustrank::CsrGraph;
use crate::types::{GeoPos, MinuteId, SECONDS_PER_VP};
use crate::viewmap::{self, MemberGeom, Site, Viewmap, ViewmapConfig};
use crate::vp::StoredVp;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vm_geo::FxBuildHasher;
use vm_obs::Gauge;

/// "No slot" / "not admitted" marker in the position-indexed maps.
const NONE: u32 = u32::MAX;

/// Bounding box of a VP's claimed positions: one row of a
/// [`BoundsTable`]. NaN coordinates are skipped (a position with a NaN
/// coordinate can never pass the admission comparison); a VP with no
/// comparable coordinate keeps the inverted infinite box, which every
/// finite site rejects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VdBounds {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl VdBounds {
    /// The box of no positions: inverted and infinite.
    pub const EMPTY: VdBounds = VdBounds {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Grow the box to cover `p`. Plain comparisons (false for NaN, so a
    /// NaN coordinate is skipped) compile to one min/max instruction
    /// each; `f64::min` would add a NaN fix-up per step to what is a
    /// per-VP ingest cost.
    #[inline]
    pub fn include(&mut self, p: &GeoPos) {
        self.min_x = if p.x < self.min_x { p.x } else { self.min_x };
        self.min_y = if p.y < self.min_y { p.y } else { self.min_y };
        self.max_x = if p.x > self.max_x { p.x } else { self.max_x };
        self.max_y = if p.y > self.max_y { p.y } else { self.max_y };
    }

    /// The box of `vp`'s view digests.
    pub fn of(vp: &StoredVp) -> VdBounds {
        let mut b = VdBounds::EMPTY;
        for vd in &vp.vds {
            b.include(&vd.loc);
        }
        b
    }
}

/// Distance from `c` to the nearest edge of the interval `[min, max]`
/// (0 inside it), computed with the same subtraction
/// `GeoPos::distance_sq` applies to a coordinate — see the module docs
/// for why that makes the box test exact as a reject.
#[inline]
fn axis_gap(min: f64, max: f64, c: f64) -> f64 {
    (min - c).max(c - max).max(0.0)
}

/// A minute's admission table: one bounding-box row per stored VP in
/// bucket order (structure-of-arrays, so a site scan streams four dense
/// `f64` columns), plus the bucket positions of the trusted VPs.
#[derive(Default)]
pub struct BoundsTable {
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    /// Ascending bucket positions of trusted VPs.
    trusted: Vec<u32>,
}

impl BoundsTable {
    /// Append the row of the VP being pushed onto the bucket.
    pub fn push(&mut self, b: VdBounds, trusted: bool) {
        if trusted {
            self.trusted.push(self.len() as u32);
        }
        self.min_x.push(b.min_x);
        self.min_y.push(b.min_y);
        self.max_x.push(b.max_x);
        self.max_y.push(b.max_y);
    }

    /// Rows held (always the bucket's length).
    pub fn len(&self) -> usize {
        self.min_x.len()
    }

    /// True iff no rows are held.
    pub fn is_empty(&self) -> bool {
        self.min_x.is_empty()
    }

    /// The admission snapshot of `site`: the coverage radius from the
    /// minute's trusted VPs, and every bucket entry the box test cannot
    /// reject (trusted VPs always survive). `bucket` is the bucket this
    /// table mirrors; the server calls this under the minute shard's
    /// read lock, so the snapshot is one consistent bucket prefix. The
    /// exact check runs afterwards, outside the lock
    /// ([`Survivors::settle`]).
    pub fn survivors(
        &self,
        bucket: &[Arc<StoredVp>],
        site: &Site,
        cfg: &ViewmapConfig,
    ) -> Survivors {
        let n = self.len();
        assert_eq!(bucket.len(), n, "bounds table out of step with its bucket");
        let coverage_radius = viewmap::coverage_radius(
            self.trusted.iter().map(|&i| &*bucket[i as usize]),
            site,
            cfg,
        );
        let (cx, cy) = (site.center.x, site.center.y);
        let mut pos = Vec::new();
        let mut vps = Vec::new();
        let mut t = 0usize;
        for (i, vp) in bucket.iter().enumerate() {
            let trusted = self.trusted.get(t) == Some(&(i as u32));
            t += trusted as usize;
            let gx = axis_gap(self.min_x[i], self.max_x[i], cx);
            let gy = axis_gap(self.min_y[i], self.max_y[i], cy);
            if !trusted && (gx.powi(2) + gy.powi(2)).sqrt() > coverage_radius {
                continue;
            }
            pos.push(i as u32);
            vps.push(Arc::clone(vp));
        }
        Survivors {
            admitted: Admitted {
                prefix_len: n,
                pos,
                vps,
            },
            center: site.center,
            coverage_radius,
        }
    }
}

/// Box survivors of one admission snapshot, awaiting the exact check.
pub struct Survivors {
    admitted: Admitted,
    center: GeoPos,
    coverage_radius: f64,
}

impl Survivors {
    /// Apply the exact admission predicate (the cold build's own) to
    /// every box survivor.
    pub fn settle(self) -> Admitted {
        let Survivors {
            admitted: a,
            center,
            coverage_radius,
        } = self;
        let (pos, vps) = a
            .pos
            .into_iter()
            .zip(a.vps)
            .filter(|(_, vp)| viewmap::admits(vp, &center, coverage_radius))
            .unzip();
        Admitted {
            prefix_len: a.prefix_len,
            pos,
            vps,
        }
    }
}

/// A site's admitted members at one admission snapshot: exactly the
/// members a cold build over `bucket[..prefix_len]` admits, in bucket
/// order, as the bucket's own `Arc`s.
pub struct Admitted {
    /// Length of the bucket prefix the snapshot saw.
    prefix_len: usize,
    /// Ascending bucket positions of the admitted members.
    pos: Vec<u32>,
    /// The members, aligned with `pos`.
    vps: Vec<Arc<StoredVp>>,
}

impl Admitted {
    /// Everything in `bucket` — the whole-minute site. For callers that
    /// drive a memo without a server, [`Viewmap::build`] among them.
    pub fn whole(bucket: &[Arc<StoredVp>]) -> Admitted {
        Admitted {
            prefix_len: bucket.len(),
            pos: (0..bucket.len() as u32).collect(),
            vps: bucket.to_vec(),
        }
    }

    /// Admitted members.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True iff the site admits nothing.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// What one [`MaintainedViewmap::materialise`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Linked {
    /// Admitted members the memo already held.
    pub hits: usize,
    /// Admitted members linked by this call.
    pub misses: usize,
}

/// A minute's region-lazy viewlink memo: the complete viewlink edge set
/// over the members investigations have admitted so far.
///
/// Members are keyed by **bucket position** (stable for the life of a
/// bucket: buckets are append-only) and adjacency rows hold ascending
/// bucket positions, so [`extract`](Self::extract) reproduces a cold
/// [`Viewmap::build`] bit for bit through one monotone remap.
pub struct MaintainedViewmap {
    minute: MinuteId,
    /// The configuration the edges are computed under (fixed per
    /// server).
    cfg: ViewmapConfig,
    /// Bucket position → slot, [`NONE`] when not materialised. Grows to
    /// the longest bucket prefix any admission has shown.
    slot_of: Vec<u32>,
    /// Slot → bucket position (materialisation order).
    pos: Vec<u32>,
    /// Slot → member (the bucket's own `Arc`).
    members: Vec<Arc<StoredVp>>,
    /// Per-slot scan geometry.
    geom: Vec<MemberGeom>,
    /// Append-only compact-window coordinate arena; slot `s`'s window is
    /// `arena[arena_off[s]..][..2 * geom[s].len]`.
    arena: Vec<f64>,
    arena_off: Vec<u32>,
    /// Per-slot adjacency: ascending **bucket positions** of partners.
    adj: Vec<Vec<u32>>,
    edges: usize,
    /// Frozen grid geometry (see module docs) + running `r_max`.
    r_cap: f64,
    cell: f64,
    r_max: f64,
    /// Materialised count at the last freeze; doubling re-freezes.
    frozen_len: usize,
    /// Cell `(x, y)` (wrapped to `u32`) → gridded slots (each member in
    /// exactly one cell, so candidate collection never yields
    /// duplicates).
    cells: HashMap<(u32, u32), Vec<u32>, FxBuildHasher>,
    /// Off-grid slots: active but fixed-point-overflowing or above
    /// `r_cap`; paired linearly against every active member.
    wild: Vec<u32>,
    /// Scratch for per-member candidate collection while splicing.
    cand: Vec<u32>,
    /// Scratch for extraction: bucket position → index among the
    /// admitted; all [`NONE`] between calls.
    out_of: Vec<u32>,
}

impl MaintainedViewmap {
    /// An empty memo for `minute`: nothing materialised, nothing
    /// allocated.
    pub fn new(minute: MinuteId, cfg: ViewmapConfig) -> MaintainedViewmap {
        MaintainedViewmap {
            minute,
            cfg,
            slot_of: Vec::new(),
            pos: Vec::new(),
            members: Vec::new(),
            geom: Vec::new(),
            arena: Vec::new(),
            arena_off: Vec::new(),
            adj: Vec::new(),
            edges: 0,
            r_cap: 0.0,
            cell: 1.0,
            r_max: 0.0,
            frozen_len: 0,
            cells: HashMap::default(),
            wild: Vec::new(),
            cand: Vec::new(),
            out_of: Vec::new(),
        }
    }

    /// Forget everything materialised (the byte budget's drop-to-cold).
    pub fn clear(&mut self) {
        *self = MaintainedViewmap::new(self.minute, self.cfg);
    }

    /// Link every admitted member the memo has not seen, restoring the
    /// materialised-set invariant for `M ∪ admitted`: each new member is
    /// spliced in bucket order — paired against the grid of materialised
    /// members (new×old) and against the new members spliced before it
    /// (new×new) — whether the memo is empty or not.
    pub fn materialise(&mut self, admitted: &Admitted) -> Linked {
        if self.slot_of.len() < admitted.prefix_len {
            self.slot_of.resize(admitted.prefix_len, NONE);
        }
        let new: Vec<usize> = (0..admitted.len())
            .filter(|&k| self.slot_of[admitted.pos[k] as usize] == NONE)
            .collect();
        // Arena offsets count interleaved coordinates (≤ 240 per member)
        // in `u32`. One minute of one city staying under ~17.9M members
        // is part of the protocol's scale envelope; fail loudly rather
        // than wrap silently if that ever moves.
        let total = (self.members.len() + new.len()) as u64;
        assert!(
            total * 4 * SECONDS_PER_VP <= u32::MAX as u64,
            "viewlink memo of {total} members exceeds u32 indexing"
        );
        for &k in &new {
            self.splice(admitted.pos[k], &admitted.vps[k]);
            if self.members.len() >= 2 * self.frozen_len {
                self.freeze();
            }
        }
        Linked {
            hits: admitted.len() - new.len(),
            misses: new.len(),
        }
    }

    /// (Re)freeze the grid geometry from the whole materialised set and
    /// re-index every member.
    fn freeze(&mut self) {
        let radius = self.cfg.dsrc_radius_m;
        let mut active_radii: Vec<f64> = self
            .geom
            .iter()
            .filter(|g| g.active())
            .map(|g| g.r)
            .collect();
        active_radii.sort_unstable_by(f64::total_cmp);
        let r_cap = active_radii
            .get(active_radii.len() * 95 / 100)
            .map_or(0.0, |&p95| (4.0 * p95).max(radius));
        let r_max = self
            .geom
            .iter()
            .filter(|g| g.active() && g.fp_exact && g.r <= r_cap)
            .map(|g| g.r)
            .fold(0.0f64, f64::max);
        self.r_cap = r_cap;
        self.cell = ((radius + 2.0 * r_max) / 4.0).max(1.0);
        self.r_max = r_max;
        self.frozen_len = self.members.len();
        self.cells.clear();
        self.wild.clear();
        for s in 0..self.members.len() {
            self.index_member(s);
        }
    }

    /// Route slot `s` (already scanned) into the grid or wild list.
    fn index_member(&mut self, s: usize) {
        let g = &self.geom[s];
        if !g.active() {
            return;
        }
        if g.fp_exact && g.r <= self.r_cap {
            let cell = self.cell_of(g);
            self.cells.entry(cell).or_default().push(s as u32);
            self.r_max = self.r_max.max(g.r);
        } else {
            self.wild.push(s as u32);
        }
    }

    /// The grid cell of a member's bounding-circle center. Cell
    /// coordinates are the wrapped low 32 bits of the true `i64` index:
    /// far-apart cells that collide only add candidates the prefilters
    /// reject, so correctness never depends on the wrap.
    fn cell_of(&self, g: &MemberGeom) -> (u32, u32) {
        (
            (g.cx / self.cell).floor() as i64 as u32,
            (g.cy / self.cell).floor() as i64 as u32,
        )
    }

    /// Link one new member (bucket position `p`) against everything
    /// materialised, keeping every adjacency row ascending by position.
    fn splice(&mut self, p: u32, vp: &Arc<StoredVp>) {
        let radius = self.cfg.dsrc_radius_m;
        let radius_c = radius.ceil() as i64;
        let r2 = radius * radius;
        let j = self.members.len();
        self.arena_off.push(self.arena.len() as u32);
        let g = MemberGeom::scan(vp, self.minute.start_second(), &mut self.arena);

        let mut row: Vec<u32> = Vec::new();
        if g.active() {
            // Candidate collection: the frozen grid for gridded members
            // (plus every wild member), a full linear pass for wild ones.
            let mut cand = std::mem::take(&mut self.cand);
            cand.clear();
            if g.fp_exact && g.r <= self.r_cap {
                let rc = ((radius + g.r + self.r_max) / self.cell).ceil() as i64;
                let (cx0, cy0) = self.cell_of(&g);
                for dy in -rc..=rc {
                    let cy = cy0.wrapping_add(dy as u32);
                    for dx in -rc..=rc {
                        let cx = cx0.wrapping_add(dx as u32);
                        if let Some(list) = self.cells.get(&(cx, cy)) {
                            cand.extend_from_slice(list);
                        }
                    }
                }
                cand.extend_from_slice(&self.wild);
            } else {
                cand.extend((0..j as u32).filter(|&s| self.geom[s as usize].active()));
            }

            let wj = &self.arena[self.arena_off[j] as usize..][..2 * g.len as usize];
            let vp_keys = vp.link_keys();
            for &su in &cand {
                let s = su as usize;
                let gs = &self.geom[s];
                // Pair center prefilter, then the exact predicate.
                if gs.fp_exact && g.fp_exact {
                    let (dx, dy) = ((gs.cxf - g.cxf) as i64, (gs.cyf - g.cyf) as i64);
                    let lim = radius_c + gs.rf as i64 + g.rf as i64 + 2;
                    if dx * dx + dy * dy > lim * lim {
                        continue;
                    }
                }
                let ws = &self.arena[self.arena_off[s] as usize..][..2 * gs.len as usize];
                if !viewmap::settle_pair(gs, ws, &g, wj, radius_c, r2) {
                    continue;
                }
                // The paper's two-way Bloom test.
                let other = &self.members[s];
                if other.links_to_keys(vp_keys) && vp.links_to_keys(other.link_keys()) {
                    let partner = &mut self.adj[s];
                    let at = partner.partition_point(|&q| q < p);
                    partner.insert(at, p);
                    row.push(self.pos[s]);
                }
            }
            cand.clear();
            self.cand = cand;
            row.sort_unstable();
            self.edges += row.len();
        }
        self.adj.push(row);
        self.geom.push(g);
        self.members.push(Arc::clone(vp));
        self.pos.push(p);
        self.slot_of[p as usize] = j as u32;
        self.index_member(j);
    }

    /// The viewmap a cold [`Viewmap::build`] over the admission's bucket
    /// prefix produces: the admitted members in bucket order with the
    /// memo's edge set restricted to them through the monotone remap
    /// (position → index among the admitted). Every admitted member must
    /// be materialised ([`materialise`](Self::materialise) first).
    pub fn extract(&mut self, admitted: Admitted) -> Viewmap {
        let Admitted {
            prefix_len,
            pos,
            vps,
        } = admitted;
        let graph = if pos.len() == prefix_len && self.members.len() == prefix_len {
            // The site admits the whole prefix and the memo holds
            // nothing else: the remap is the identity, so rows are
            // straight copies.
            let mut graph = CsrGraph::with_capacity(pos.len(), 2 * self.edges);
            for &p in &pos {
                graph.push_row(self.row_of(p).iter().copied());
            }
            graph
        } else {
            // Filtering an ascending row through an order-preserving
            // map keeps it ascending — exactly the cold assembly order.
            // Rows may name members beyond this snapshot's prefix
            // (materialised by a later snapshot); `out_of` spans every
            // prefix seen, so those read NONE like any other outsider.
            let mut out_of = std::mem::take(&mut self.out_of);
            out_of.resize(self.slot_of.len(), NONE);
            for (k, &p) in pos.iter().enumerate() {
                out_of[p as usize] = k as u32;
            }
            let bound = pos.iter().map(|&p| self.row_of(p).len()).sum();
            let mut graph = CsrGraph::with_capacity(pos.len(), bound);
            for &p in &pos {
                graph.push_row(
                    self.row_of(p)
                        .iter()
                        .map(|&q| out_of[q as usize])
                        .filter(|&k| k != NONE),
                );
            }
            for &p in &pos {
                out_of[p as usize] = NONE;
            }
            self.out_of = out_of;
            graph
        };
        let trusted = vps
            .iter()
            .enumerate()
            .filter(|(_, vp)| vp.trusted)
            .map(|(i, _)| i)
            .collect();
        Viewmap {
            vps,
            graph,
            trusted,
            minute: self.minute,
        }
    }

    /// The adjacency row of the materialised member at bucket position
    /// `p`.
    fn row_of(&self, p: u32) -> &[u32] {
        let s = self.slot_of[p as usize];
        assert_ne!(s, NONE, "extracting a member that was never materialised");
        &self.adj[s as usize]
    }

    /// Members materialised so far.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff nothing is materialised.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Undirected viewlink count over the materialised set.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Heap footprint, for the cell's byte budget: O(1) from the
    /// element counts (lengths, not capacities — an accounting figure,
    /// not an allocator audit).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // Per member: geometry row, `Arc`, position, arena offset, the
        // adjacency row's header, and its grid (or wild) entry.
        let per_member = size_of::<MemberGeom>()
            + size_of::<Arc<StoredVp>>()
            + size_of::<Vec<u32>>()
            + 3 * size_of::<u32>();
        self.members.len() * per_member
            + self.arena.len() * size_of::<f64>()
            + 2 * self.edges * size_of::<u32>()
            + (self.slot_of.len() + self.out_of.len()) * size_of::<u32>()
    }
}

/// Cell-wide memo accounting: what every live memo of one server holds,
/// mirrored into the `vm_core_maintained_{members,bytes}` gauges.
pub(crate) struct MemoTotals {
    members: AtomicUsize,
    bytes: AtomicUsize,
    members_gauge: Arc<Gauge>,
    bytes_gauge: Arc<Gauge>,
}

impl MemoTotals {
    pub(crate) fn new(members_gauge: Arc<Gauge>, bytes_gauge: Arc<Gauge>) -> MemoTotals {
        MemoTotals {
            members: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            members_gauge,
            bytes_gauge,
        }
    }

    /// Bytes held by all live memos.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Replace one memo's `(members, bytes)` contribution. The totals
    /// are statistics (they publish no other data), so `Relaxed`; the
    /// wrapping add-then-subtract keeps them exact under any
    /// interleaving (a racing gauge write can lag until the next one).
    fn replace(&self, old: (usize, usize), new: (usize, usize)) {
        self.members
            .fetch_add(new.0.wrapping_sub(old.0), Ordering::Relaxed);
        self.bytes
            .fetch_add(new.1.wrapping_sub(old.1), Ordering::Relaxed);
        self.members_gauge
            .set(self.members.load(Ordering::Relaxed) as i64);
        self.bytes_gauge.set(self.bytes() as i64);
    }
}

/// The shared, lockable handle to one bucket's memo: the graph behind
/// its own mutex, its published footprint (readable without the lock),
/// and its last-investigated tick for the budget's LRU order. Dropping
/// the last handle — the bucket was evicted and no investigation still
/// holds a clone — returns its footprint to the cell totals.
pub(crate) struct MemoCell {
    graph: Mutex<MaintainedViewmap>,
    members: AtomicUsize,
    bytes: AtomicUsize,
    last_used: AtomicU64,
    totals: Arc<MemoTotals>,
}

impl MemoCell {
    pub(crate) fn new(minute: MinuteId, cfg: ViewmapConfig, totals: Arc<MemoTotals>) -> MemoCell {
        MemoCell {
            graph: Mutex::new(MaintainedViewmap::new(minute, cfg)),
            members: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            last_used: AtomicU64::new(0),
            totals,
        }
    }

    /// Run `f` on the locked graph, then publish the graph's footprint.
    /// Callers hold no shard lock (see the module docs' lock order).
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut MaintainedViewmap) -> R) -> R {
        let mut graph = self.graph.lock();
        let out = f(&mut graph);
        let new = (graph.len(), graph.heap_bytes());
        let old = (
            self.members.swap(new.0, Ordering::Relaxed),
            self.bytes.swap(new.1, Ordering::Relaxed),
        );
        self.totals.replace(old, new);
        out
    }

    /// Members materialised, as last published.
    pub(crate) fn members(&self) -> usize {
        self.members.load(Ordering::Relaxed)
    }

    /// Stamp the memo as investigated at `tick`.
    pub(crate) fn touch(&self, tick: u64) {
        self.last_used.store(tick, Ordering::Relaxed);
    }

    /// The tick of the latest investigation.
    pub(crate) fn last_used(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }
}

impl Drop for MemoCell {
    fn drop(&mut self) {
        let old = (*self.members.get_mut(), *self.bytes.get_mut());
        self.totals.replace(old, (0, 0));
    }
}

/// A cluster of mutually witnessing vehicles — the linked population the
/// memo and server tests share.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::vp::{VpBuilder, VpKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n` vehicles 120 m apart along the x axis from `(x0, 0)`, each
    /// drifting 1 m/s east through minute `minute`, neighbours within
    /// 380 m exchanging VDs; the first one trusted when `trusted_first`.
    pub(crate) fn cluster(
        n: usize,
        x0: f64,
        minute: u64,
        seed: u64,
        trusted_first: bool,
    ) -> Vec<StoredVp> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = minute * SECONDS_PER_VP;
        let mut builders: Vec<VpBuilder> = (0..n)
            .map(|i| {
                let kind = if i == 0 && trusted_first {
                    VpKind::Trusted
                } else {
                    VpKind::Actual
                };
                VpBuilder::new(&mut rng, t0, GeoPos::new(x0 + i as f64 * 120.0, 0.0), kind)
            })
            .collect();
        for s in 0..SECONDS_PER_VP {
            let now = t0 + s + 1;
            let locs: Vec<GeoPos> = (0..n)
                .map(|i| GeoPos::new(x0 + i as f64 * 120.0 + s as f64, 0.0))
                .collect();
            let vds: Vec<_> = builders
                .iter_mut()
                .enumerate()
                .map(|(i, b)| b.record_second(&(s * 131).to_le_bytes(), locs[i]))
                .collect();
            for i in 0..n {
                for j in 0..n {
                    if i != j && locs[i].distance(&locs[j]) <= 380.0 {
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

    /// Field-for-field equality, members by allocation.
    pub(crate) fn assert_identical(a: &Viewmap, b: &Viewmap, ctx: &str) {
        assert_eq!(a.vps.len(), b.vps.len(), "{ctx}: member count");
        for (i, (x, y)) in a.vps.iter().zip(&b.vps).enumerate() {
            assert!(Arc::ptr_eq(x, y), "{ctx}: member {i} is another allocation");
        }
        assert_eq!(
            a.graph, b.graph,
            "{ctx}: adjacency rows (contents and order)"
        );
        assert_eq!(a.trusted, b.trusted, "{ctx}: trusted indices");
        assert_eq!(a.minute, b.minute, "{ctx}: minute");
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{assert_identical, cluster};
    use super::*;

    fn arcs(vps: Vec<StoredVp>) -> Vec<Arc<StoredVp>> {
        vps.into_iter().map(Arc::new).collect()
    }

    fn site(x: f64, r: f64) -> Site {
        Site {
            center: GeoPos::new(x, 0.0),
            radius_m: r,
        }
    }

    /// Admit `site` over `bucket` the way the server does.
    fn admit(bucket: &[Arc<StoredVp>], site: Site, cfg: &ViewmapConfig) -> Admitted {
        let mut table = BoundsTable::default();
        for vp in bucket {
            table.push(VdBounds::of(vp), vp.trusted);
        }
        table.survivors(bucket, &site, cfg).settle()
    }

    /// Investigate `site` through `memo` and require the cold build.
    fn probe(memo: &mut MaintainedViewmap, bucket: &[Arc<StoredVp>], s: Site, ctx: &str) -> Linked {
        let cfg = ViewmapConfig::default();
        let admitted = admit(bucket, s, &cfg);
        let linked = memo.materialise(&admitted);
        let got = memo.extract(admitted);
        assert_identical(&got, &Viewmap::build(bucket, s, MinuteId(0), &cfg), ctx);
        linked
    }

    #[test]
    fn sites_materialise_only_what_they_touch() {
        let cfg = ViewmapConfig::default();
        let bucket = arcs(cluster(40, 0.0, 0, 7, true));
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);

        // A local site far from the trusted VP at x = 0: coverage reaches
        // back to it, so this admits a prefix of the line, not all of it.
        let first = probe(&mut memo, &bucket, site(1200.0, 100.0), "first touch");
        assert!(first.hits == 0 && first.misses > 0);
        assert!(
            first.misses < bucket.len(),
            "a local site is not the minute"
        );
        assert_eq!(memo.len(), first.misses);

        // The same site again: all hits, nothing linked.
        let again = probe(&mut memo, &bucket, site(1200.0, 100.0), "repeat");
        assert_eq!((again.hits, again.misses), (first.misses, 0));

        // A wider site: only the crescent is linked.
        let wide = probe(&mut memo, &bucket, site(1200.0, 1500.0), "wider");
        assert!(wide.misses > 0 && wide.hits == first.misses);

        // The whole minute, then the narrow site once more (the memo now
        // holds more than the site admits).
        probe(&mut memo, &bucket, site(0.0, 1.0e7), "whole minute");
        assert_eq!(memo.len(), bucket.len());
        assert_eq!(
            memo.edge_count(),
            Viewmap::build(&bucket, site(0.0, 1.0e7), MinuteId(0), &cfg).edge_count()
        );
        probe(
            &mut memo,
            &bucket,
            site(1200.0, 100.0),
            "narrow after whole",
        );
    }

    #[test]
    fn growing_bucket_and_any_site_order_match_cold() {
        let cfg = ViewmapConfig::default();
        let all = arcs(cluster(30, 0.0, 0, 11, true));
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
        // Investigate between appends, at sites that jump around; a
        // site beyond the populated stretch admits only the trusted VP.
        for (len, x, r) in [
            (1usize, 0.0, 200.0),
            (5, 50_000.0, 10.0),
            (12, 600.0, 250.0),
            (12, 0.0, 0.0),
            (20, 2000.0, 300.0),
            (30, 3000.0, 100.0),
            (30, 1500.0, 1.0e6),
            (30, 200.0, 150.0),
        ] {
            probe(
                &mut memo,
                &all[..len],
                site(x, r),
                &format!("len {len} site {x}/{r}"),
            );
        }
    }

    #[test]
    fn an_older_snapshot_ignores_members_beyond_its_prefix() {
        // Two investigations snapshot the bucket at lengths 10 and 25; the
        // later one reaches the memo first. The earlier one must still
        // get the cold build of its own prefix.
        let cfg = ViewmapConfig::default();
        let all = arcs(cluster(25, 0.0, 0, 13, true));
        let s = site(0.0, 1.0e7);
        let early = admit(&all[..10], s, &cfg);
        let late = admit(&all, s, &cfg);
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
        memo.materialise(&late);
        let got_late = memo.extract(late);
        assert_identical(
            &got_late,
            &Viewmap::build(&all, s, MinuteId(0), &cfg),
            "late",
        );
        let linked = memo.materialise(&early);
        assert_eq!((linked.hits, linked.misses), (10, 0));
        let got_early = memo.extract(early);
        assert_identical(
            &got_early,
            &Viewmap::build(&all[..10], s, MinuteId(0), &cfg),
            "early",
        );
    }

    #[test]
    fn empty_and_single_member_degenerates() {
        let cfg = ViewmapConfig::default();
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
        let none = probe(&mut memo, &[], site(0.0, 200.0), "empty bucket");
        assert_eq!(none, Linked::default());
        assert!(memo.is_empty());

        let one = arcs(cluster(1, 0.0, 0, 3, true));
        probe(&mut memo, &one, site(0.0, 200.0), "single member");
        assert_eq!((memo.len(), memo.edge_count()), (1, 0));
    }

    #[test]
    fn unrepresentative_first_batch_is_refrozen() {
        // First touch admits only the (trusted) head of the line; the
        // grid frozen from that one member is re-frozen as the memo
        // doubles, so later members do not all route off-grid.
        let cfg = ViewmapConfig::default();
        let bucket = arcs(cluster(24, 0.0, 0, 17, true));
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
        probe(&mut memo, &bucket[..1], site(0.0, 10.0), "trusted only");
        assert_eq!(memo.frozen_len, 1);
        probe(&mut memo, &bucket, site(0.0, 1.0e7), "everything");
        assert_eq!(memo.frozen_len, 16, "re-frozen at each doubling");
    }

    #[test]
    fn two_separated_clusters_spliced_across_the_gap() {
        // Second cluster lands far from the first: the frozen grid must
        // route its members correctly (new cells) and produce no
        // cross-cluster edges.
        let cfg = ViewmapConfig::default();
        let mut bucket = arcs(cluster(6, 0.0, 0, 21, true));
        let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
        probe(&mut memo, &bucket, site(300.0, 500.0), "first cluster");
        bucket.extend(arcs(cluster(6, 50_000.0, 0, 22, false)));
        probe(
            &mut memo,
            &bucket,
            site(25_000.0, 40_000.0),
            "both clusters",
        );
    }

    #[test]
    fn box_test_never_rejects_a_member_the_exact_check_admits() {
        // Forged coordinates: NaN, ±∞, and beyond the fixed-point
        // envelope. The admitted set must equal the cold build's for
        // every site, including non-finite ones.
        let cfg = ViewmapConfig::default();
        let mut vps = cluster(8, 0.0, 0, 31, true);
        vps[2].vds[7].loc.x = f64::NAN;
        vps[3].vds[0].loc = GeoPos::new(f64::INFINITY, f64::NEG_INFINITY);
        vps[4].vds[59].loc.x = 3.0e9;
        for vd in &mut vps[5].vds {
            vd.loc = GeoPos::new(f64::NAN, f64::NAN);
        }
        let bucket = arcs(vps);
        let sites = [
            site(300.0, 200.0),
            site(3.0e9, 10.0),
            site(f64::NAN, 200.0),
            site(0.0, f64::INFINITY),
            site(f64::INFINITY, 200.0),
            site(0.0, f64::NAN),
        ];
        for (k, s) in sites.into_iter().enumerate() {
            let mut memo = MaintainedViewmap::new(MinuteId(0), cfg);
            probe(&mut memo, &bucket, s, &format!("site {k}"));
        }
    }

    #[test]
    fn memo_cell_publishes_and_returns_its_footprint() {
        let reg = vm_obs::Registry::new();
        let totals = Arc::new(MemoTotals::new(reg.gauge("m"), reg.gauge("b")));
        let cfg = ViewmapConfig::default();
        let bucket = arcs(cluster(5, 0.0, 0, 41, true));
        let cell = MemoCell::new(MinuteId(0), cfg, Arc::clone(&totals));
        cell.with(|g| {
            g.materialise(&Admitted::whole(&bucket));
        });
        assert_eq!(cell.members(), 5);
        assert!(totals.bytes() > 0);
        assert_eq!(reg.snapshot().gauge("m"), Some(5));
        assert_eq!(reg.snapshot().gauge("b"), Some(totals.bytes() as i64));
        drop(cell);
        assert_eq!(totals.bytes(), 0);
        assert_eq!(reg.snapshot().gauge("m"), Some(0));
    }
}
