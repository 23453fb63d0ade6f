//! TrustRank-based VP verification (Section 5.2.2, Algorithm 1).
//!
//! Trust flows from authority ("trusted") VPs over the viewmap's undirected
//! viewlinks: `P = δ·M·P + (1−δ)·d`, with the transition matrix `M`
//! dividing each VP's score equally among its adjacent edges, damping
//! δ = 0.8, and the seed distribution `d` concentrated on trusted VPs.
//! Because two-way linkage prevents attackers from attaching fake VPs to
//! honest ones, fakes form their own layer that receives trust only through
//! the attackers' few legitimate VPs — so within the investigation site the
//! highest-scored VP is (almost always) legitimate, and everything
//! reachable from it *through the site* is marked legitimate with it.
//!
//! # Engine
//!
//! A viewmap's graph is held in one form, a [`CsrGraph`]: a compressed
//! sparse row layout (flat `offsets`/`edges` arrays plus precomputed
//! inverse out-degrees) that the viewlink memo writes its rows into
//! directly. The power iteration is a serial *gather*: node `u` sums
//! `p[v]/deg(v)` over its incident edges from one contiguous edge
//! slice, which streams sequentially through memory instead of
//! scattering writes across the score vector the way the textbook
//! formulation does. Iteration stops early once the L1 change drops
//! under `eps`. Served viewmaps stay well below the ~10⁵ directed edges
//! where a thread-parallel edge pass would pay for its spawn and join.
//!
//! The pre-CSR scatter implementation the engine is checked against
//! lives with the workspace's other reference oracles, in
//! `vm_bench::oracle`.

/// Damping factor δ (the paper sets 0.8 empirically).
pub const DAMPING: f64 = 0.8;

/// A graph in compressed-sparse-row form: node `v`'s neighbors are
/// `edges[offsets[v]..offsets[v+1]]`.
///
/// Node ids are `u32` — half the memory traffic of `usize` indices during
/// the gather pass, and 4 × 10⁹ nodes is comfortably beyond any viewmap.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    edges: Vec<u32>,
    /// `1/deg(v)`, or `0.0` for isolated nodes (they distribute nothing).
    inv_deg: Vec<f64>,
}

impl CsrGraph {
    /// An empty graph with room for `nodes` rows and `edges` directed
    /// edge entries; rows are appended with [`push_row`](Self::push_row).
    pub(crate) fn with_capacity(nodes: usize, edges: usize) -> CsrGraph {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        CsrGraph {
            offsets,
            edges: Vec::with_capacity(edges),
            inv_deg: Vec::with_capacity(nodes),
        }
    }

    /// Append the next node's neighbor row, in the order given.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        let lo = self.edges.len();
        self.edges.extend(row);
        let deg = self.edges.len() - lo;
        assert!(
            self.edges.len() < u32::MAX as usize,
            "edge count overflows u32 offsets"
        );
        self.offsets.push(self.edges.len() as u32);
        self.inv_deg
            .push(if deg == 0 { 0.0 } else { 1.0 / deg as f64 });
    }

    /// Flatten adjacency lists into CSR. Edge order within each node is
    /// preserved, so results of algorithms that sum per-node are
    /// reproducible against the list form.
    pub fn from_adj(adj: &[Vec<usize>]) -> CsrGraph {
        let n = adj.len();
        assert!(n < u32::MAX as usize, "graph too large for u32 node ids");
        let total = adj.iter().map(|nbrs| nbrs.len()).sum();
        let mut g = CsrGraph::with_capacity(n, total);
        for nbrs in adj {
            g.push_row(nbrs.iter().map(|&u| {
                debug_assert!(u < n, "edge target out of range");
                u as u32
            }));
        }
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inv_deg.len()
    }

    /// True iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.inv_deg.is_empty()
    }

    /// Number of directed edge entries (twice the undirected edge count
    /// for a symmetric graph).
    pub fn directed_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbors of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

fn seed_distribution(n: usize, seeds: &[usize]) -> Vec<f64> {
    assert!(!seeds.is_empty(), "need at least one trusted VP");
    let mut d = vec![0.0; n];
    for &s in seeds {
        assert!(s < n, "seed index out of range");
        d[s] = 1.0 / seeds.len() as f64;
    }
    d
}

/// Compute trust scores over an undirected graph by gather-style power
/// iteration.
///
/// * `g` — the graph (must be symmetric).
/// * `seeds` — indices of trusted VPs (the trust distribution `d` is
///   uniform over them).
///
/// Returns the score vector and the iteration count: iteration stops
/// once the L1 change drops under `eps`, or after `max_iter` rounds.
/// Scores of nodes unreachable from any seed converge to 0 (their only
/// inflow is the `(1−δ)·d` term, which is zero off-seed).
pub fn trust_scores(
    g: &CsrGraph,
    seeds: &[usize],
    damping: f64,
    eps: f64,
    max_iter: usize,
) -> (Vec<f64>, usize) {
    let n = g.len();
    assert!((0.0..1.0).contains(&damping), "damping in [0,1)");
    let d = seed_distribution(n, seeds);
    let base = 1.0 - damping;
    let mut p = d.clone();
    let mut next = vec![0.0; n];
    // w[v] = p[v] / deg(v): computed once per iteration so the edge pass
    // does a single indexed load per edge.
    let mut w = vec![0.0; n];
    for it in 0..max_iter {
        for v in 0..n {
            w[v] = p[v] * g.inv_deg[v];
        }
        let mut delta = 0.0;
        for (u, out) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &e in g.neighbors(u) {
                acc += w[e as usize];
            }
            let nv = damping * acc + base * d[u];
            delta += (nv - p[u]).abs();
            *out = nv;
        }
        std::mem::swap(&mut p, &mut next);
        if delta < eps {
            return (p, it + 1);
        }
    }
    (p, max_iter)
}

/// Result of Algorithm 1 on an investigation site.
#[derive(Clone, Debug)]
pub struct Verification {
    /// Trust scores for every viewmap member.
    pub scores: Vec<f64>,
    /// The highest-scored VP inside the site (`None` if the site is empty).
    pub top: Option<usize>,
    /// Indices marked LEGITIMATE (top + everything reachable from it
    /// strictly via site members).
    pub legitimate: Vec<usize>,
}

/// Algorithm 1: verify the VPs whose claimed locations fall inside the
/// investigation site `site` (node indices of `g`).
///
/// Also returns the TrustRank iteration count the power method took to
/// converge — the telemetry plane records it per investigation (a
/// drifting iteration count is the early signal of a graph whose
/// spectral gap is closing, long before latency moves).
pub fn verify_site(
    g: &CsrGraph,
    seeds: &[usize],
    site: &[usize],
    damping: f64,
) -> (Verification, usize) {
    let (scores, iterations) = trust_scores(g, seeds, damping, 1e-10, 1000);
    let top = site.iter().copied().max_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut legitimate = Vec::new();
    if let Some(u) = top {
        // BFS from u using only edges between site members.
        let in_site: std::collections::HashSet<usize> = site.iter().copied().collect();
        let mut seen = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(u);
        queue.push_back(u);
        while let Some(v) = queue.pop_front() {
            legitimate.push(v);
            for &w in g.neighbors(v) {
                let w = w as usize;
                if in_site.contains(&w) && seen.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        legitimate.sort_unstable();
    }
    (
        Verification {
            scores,
            top,
            legitimate,
        },
        iterations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3-4.
    fn path(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for i in 0..n - 1 {
            adj[i].push(i + 1);
            adj[i + 1].push(i);
        }
        adj
    }

    /// Converged scores over list-form adjacency.
    fn scores(adj: &[Vec<usize>], seeds: &[usize]) -> Vec<f64> {
        trust_scores(&CsrGraph::from_adj(adj), seeds, DAMPING, 1e-12, 1000).0
    }

    /// Algorithm 1 over list-form adjacency.
    fn verify(adj: &[Vec<usize>], seeds: &[usize], site: &[usize]) -> Verification {
        verify_site(&CsrGraph::from_adj(adj), seeds, site, DAMPING).0
    }

    #[test]
    fn scores_decay_with_distance_from_seed() {
        // Note: on a path the seed (degree 1) and its neighbor can swap
        // ranks — the neighbor collects from both sides — so monotone
        // decay is asserted from node 1 onward.
        let adj = path(6);
        let s = scores(&adj, &[0]);
        for i in 2..6 {
            assert!(s[i] < s[i - 1], "score must decay along the path: {:?}", s);
        }
        assert!(s[0] > s[2], "seed outranks everything beyond its neighbor");
    }

    #[test]
    fn unreachable_component_gets_zero() {
        // Two disconnected edges: 0-1 and 2-3, seed at 0.
        let adj = vec![vec![1], vec![0], vec![3], vec![2]];
        let s = scores(&adj, &[0]);
        assert!(s[0] > 0.0 && s[1] > 0.0);
        assert!(s[2] < 1e-9 && s[3] < 1e-9);
    }

    #[test]
    fn seed_mass_splits_across_multiple_seeds() {
        let adj = path(4);
        let s1 = scores(&adj, &[0]);
        let s2 = scores(&adj, &[0, 3]);
        // With two seeds the end node 3 gets direct seed inflow.
        assert!(s2[3] > s1[3]);
    }

    #[test]
    fn lemma1_distance_bound() {
        // Lemma 1: the total score of VPs at ≥ L links from the seed is at
        // most δ^L.
        let adj = path(10);
        let s = scores(&adj, &[0]);
        for l in 1..10 {
            let tail: f64 = (l..10).map(|i| s[i]).sum();
            assert!(
                tail <= DAMPING.powi(l as i32) + 1e-9,
                "L={l}: tail {tail} > δ^L {}",
                DAMPING.powi(l as i32)
            );
        }
    }

    #[test]
    fn verify_site_picks_top_and_reachable() {
        // 0(seed) - 1 - 2 - 3 and site = {2, 3, 5}; node 5 is a fake layer
        // connected only to another fake 4 that hangs off node 1... build:
        // 0-1, 1-2, 2-3, 1-4, 4-5 with site {2,3,5}.
        let mut adj = vec![Vec::new(); 6];
        for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)] {
            adj[a].push(b);
            adj[b].push(a);
        }
        let v = verify(&adj, &[0], &[2, 3, 5]);
        assert_eq!(v.top, Some(2));
        // 3 is reachable from 2 via site members; 5 is not.
        assert_eq!(v.legitimate, vec![2, 3]);
    }

    #[test]
    fn verify_empty_site() {
        let adj = path(3);
        let v = verify(&adj, &[0], &[]);
        assert_eq!(v.top, None);
        assert!(v.legitimate.is_empty());
    }

    #[test]
    fn fake_cluster_scores_below_honest_site() {
        // Honest chain from seed into the site vs a big fake clique hanging
        // off one distant attacker node. The fake nodes outnumber honest
        // ones 5:1 yet the top site score stays honest (Corollary 1: more
        // fakes dilute each fake's share).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 2 + 4 + 20];
        let edge = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            adj[a].push(b);
            adj[b].push(a);
        };
        // Honest path: 0 (seed) - 1 - 2 - 3 (site member honest).
        edge(&mut adj, 0, 1);
        edge(&mut adj, 1, 2);
        edge(&mut adj, 2, 3);
        // Attacker's legitimate VP 4 hangs further from the seed: 1-4? No:
        // make it distance 3 as well: 2-4, and 5..25 fakes all linked to 4
        // and to each other in a chain; fakes 5 and 6 are in the site.
        edge(&mut adj, 2, 4);
        for f in 5..25 {
            edge(&mut adj, 4, f);
        }
        let v = verify(&adj, &[0], &[3, 5, 6]);
        assert_eq!(v.top, Some(3), "honest site member must outrank fakes");
        assert_eq!(v.legitimate, vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one trusted")]
    fn requires_seed() {
        let adj = path(3);
        let _ = scores(&adj, &[]);
    }

    #[test]
    fn converges_and_reports_iterations() {
        let adj = path(50);
        let (_, iters) = trust_scores(&CsrGraph::from_adj(&adj), &[0], DAMPING, 1e-9, 1000);
        assert!(iters < 1000, "should converge, took {iters}");
        assert!(iters > 3, "non-trivial iteration count: {iters}");
    }

    // ── CSR engine ───────────────────────────────────────────────────

    #[test]
    fn csr_layout_matches_adjacency() {
        let adj = vec![vec![1, 2], vec![0], vec![0], vec![]];
        let g = CsrGraph::from_adj(&adj);
        assert_eq!(g.len(), 4);
        assert_eq!(g.directed_edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn csr_single_node_graphs() {
        let adj = vec![Vec::new()];
        let g = CsrGraph::from_adj(&adj);
        let (s, iters) = trust_scores(&g, &[0], DAMPING, 1e-12, 1000);
        // Isolated seed: keeps only its base inflow (1-δ)·1.
        assert!((s[0] - (1.0 - DAMPING)).abs() < 1e-9, "score {}", s[0]);
        assert!(iters <= 3);
    }
}
