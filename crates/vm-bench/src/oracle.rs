//! The one oracle module: every "what should the system answer"
//! reference the workspace tests against, in one place.
//!
//! * [`naive_build`] / [`naive_verify`] — verbatim replicas of the
//!   pre-optimization viewmap build and Algorithm 1, the oracles
//!   the optimized engines are compared against;
//! * [`trust_scores_reference`] — the pre-CSR scatter TrustRank the
//!   gather engine must agree with;
//! * [`cold_oracle`] — `Viewmap::build` over a server's stored bucket,
//!   what the memoised investigation path must reproduce, and
//!   [`memo_equals_cold`], which holds a server to it;
//! * [`viewmap_checksum`] / [`edge_checksum`] — the order-independent
//!   fingerprints those comparisons and the golden topology pins fold a
//!   viewmap into;
//! * [`replay`] — a fresh in-process server fed exactly an accepted
//!   history, the oracle every fault and workload run is held to.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use viewmap_core::server::ViewMapServer;
use viewmap_core::trustrank::{CsrGraph, Verification};
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_geo::{GridIndex, Point};

/// RSA modulus width of a [`replay`] oracle: it never signs, so the
/// smallest width the crypto layer accepts.
const REPLAY_KEY_BITS: usize = 64;

// ── Naive engines (the seed implementation, pre-CSR / pre-grid) ─────────

/// The original viewmap construction: spatial grid over *trajectory
/// midpoints* with a worst-case-inflated query radius, per-pair
/// `min_aligned_distance`, and `mutually_linked` re-hashing up to 60 VDs
/// per side per pair.
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
        graph: CsrGraph::from_adj(&adj),
        trusted,
        minute,
    }
}

/// The original Algorithm 1: scatter-style TrustRank over
/// adjacency lists ([`trust_scores_reference`]) plus the site-restricted
/// BFS.
pub fn naive_verify(vm: &Viewmap, site: &Site, cfg: &ViewmapConfig) -> Verification {
    let site_idx = vm.site_members(site);
    if vm.trusted.is_empty() {
        return Verification {
            scores: vec![0.0; vm.vps.len()],
            top: None,
            legitimate: Vec::new(),
        };
    }
    let adj = adjacency_lists(&vm.graph);
    let (scores, _) = trust_scores_reference(&adj, &vm.trusted, cfg.damping, 1e-10, 1000);
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
            for &w in &adj[v] {
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

/// The list form of a graph: row `v` holds `g.neighbors(v)` in order.
/// What the scatter reference and the attack testbed take as input.
pub fn adjacency_lists(g: &CsrGraph) -> Vec<Vec<usize>> {
    (0..g.len())
        .map(|v| g.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect()
}

/// The pre-CSR scatter TrustRank over adjacency lists: semantically
/// identical to `viewmap_core::trustrank::trust_scores` up to
/// floating-point summation order. Returns the scores and the iteration
/// count.
pub fn trust_scores_reference(
    adj: &[Vec<usize>],
    seeds: &[usize],
    damping: f64,
    eps: f64,
    max_iter: usize,
) -> (Vec<f64>, usize) {
    let n = adj.len();
    assert!((0.0..1.0).contains(&damping), "damping in [0,1)");
    assert!(!seeds.is_empty(), "need at least one trusted VP");
    let mut d = vec![0.0; n];
    for &s in seeds {
        assert!(s < n, "seed index out of range");
        d[s] = 1.0 / seeds.len() as f64;
    }
    let mut p = d.clone();
    let mut next = vec![0.0; n];
    for it in 0..max_iter {
        for v in next.iter_mut() {
            *v = 0.0;
        }
        for (v, nbrs) in adj.iter().enumerate() {
            if nbrs.is_empty() {
                continue;
            }
            let share = p[v] / nbrs.len() as f64;
            for &u in nbrs {
                next[u] += share;
            }
        }
        let mut delta = 0.0;
        for v in 0..n {
            let nv = damping * next[v] + (1.0 - damping) * d[v];
            delta += (nv - p[v]).abs();
            p[v] = nv;
        }
        if delta < eps {
            return (p, it + 1);
        }
    }
    (p, max_iter)
}

// ── Server-level oracles ─────────────────────────────────────────────────

/// Order-independent fingerprint of a viewmap's edge set alone — what
/// the 100k topology pin records.
pub fn edge_checksum(vm: &Viewmap) -> u64 {
    let mut sum = 0u64;
    for i in 0..vm.len() {
        for &j in vm.graph.neighbors(i) {
            let j = j as usize;
            if j > i {
                sum = sum.wrapping_add((i as u64).wrapping_mul(1_000_003) ^ (j as u64));
            }
        }
    }
    sum
}

/// Order-independent fingerprint of a viewmap's full edge set plus its
/// member identities — the "same investigation outcome" oracle
/// ([`edge_checksum`] extended with member ids).
pub fn viewmap_checksum(vm: &Viewmap) -> u64 {
    let mut sum = vm.len() as u64;
    for (i, vp) in vm.vps.iter().enumerate() {
        sum = sum.wrapping_add(vp.id.0.low_u64().rotate_left((i % 61) as u32));
    }
    sum.wrapping_add(edge_checksum(vm))
}

/// The cold oracle: `Viewmap::build` over `srv`'s stored bucket of
/// `minute`. `ViewMapServer::build_viewmap` — the memoised investigation
/// path — must reproduce it field for field for the same stored state.
pub fn cold_oracle(
    srv: &ViewMapServer,
    minute: MinuteId,
    site: Site,
    cfg: &ViewmapConfig,
) -> Viewmap {
    Viewmap::build(&srv.minute_vps(minute), site, minute, cfg)
}

/// Does `srv`'s memoised investigation path reproduce the cold oracle
/// over `reference`'s stored bucket? Pass `srv` itself as the reference
/// to probe the memo against its own bucket.
pub fn memo_equals_cold(
    srv: &ViewMapServer,
    reference: &ViewMapServer,
    minute: MinuteId,
    site: Site,
) -> bool {
    let cold = cold_oracle(reference, minute, site, &ViewmapConfig::default());
    viewmap_checksum(&srv.build_viewmap(minute, site)) == viewmap_checksum(&cold)
}

/// A fresh in-process server holding exactly `history`, each minute
/// replayed in the given order with trusted flags preserved — what a
/// served system that accepted that history must be observably equal to.
pub fn replay(history: &[(MinuteId, Vec<StoredVp>)]) -> Result<ViewMapServer, String> {
    let mut rng = StdRng::seed_from_u64(0xACE5);
    let oracle = ViewMapServer::new(&mut rng, REPLAY_KEY_BITS, ViewmapConfig::default());
    for (minute, vps) in history {
        let results = oracle.submit_replay_batch(vps.clone(), None);
        if !results.iter().all(|r| r.is_ok()) {
            return Err(format!(
                "oracle replay rejected a VP in {minute:?}: {results:?}"
            ));
        }
    }
    Ok(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{random_graph, SynthWorld};
    use rand::Rng;
    use viewmap_core::trustrank::trust_scores;

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
            let mut a = fast.graph.neighbors(i).to_vec();
            let mut b = naive.graph.neighbors(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "edge lists differ at node {i}");
        }
        // And verification agrees end to end.
        let (v_fast, _, _) = fast.verify_counted(&w.site, &cfg);
        let v_naive = naive_verify(&naive, &w.site, &cfg);
        assert_eq!(v_fast.top, v_naive.top);
        assert_eq!(v_fast.legitimate, v_naive.legitimate);
    }

    #[test]
    fn csr_matches_reference_on_random_graphs() {
        // Property: the CSR gather engine agrees with the scatter
        // reference to 1e-12 across densities, seed sets, and
        // disconnected components.
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let n = rng.gen_range(2usize..120);
            let mean_deg = rng.gen_range(0.5f64..12.0);
            let disconnect = rng.gen_bool(0.3);
            let adj = random_graph(&mut rng, n, mean_deg, disconnect);
            let n_seeds = rng.gen_range(1usize..4.min(n + 1).max(2));
            let seeds: Vec<usize> = (0..n_seeds).map(|_| rng.gen_range(0..n)).collect();
            let damping = rng.gen_range(0.5f64..0.95);

            let (reference, it_ref) = trust_scores_reference(&adj, &seeds, damping, 1e-13, 1000);
            let (csr, it_csr) =
                trust_scores(&CsrGraph::from_adj(&adj), &seeds, damping, 1e-13, 1000);
            assert_eq!(reference.len(), csr.len());
            let diff = reference
                .iter()
                .zip(&csr)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(
                diff < 1e-12,
                "seed {seed}: CSR diverged from reference by {diff} \
                 (n={n}, iters {it_ref}/{it_csr})"
            );
        }
    }
}
