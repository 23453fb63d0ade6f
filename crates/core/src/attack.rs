//! Fake-VP attacks and the synthetic viewmap testbed (Section 6.3.1).
//!
//! The paper evaluates verification on synthetic geometric graphs: 1000
//! legitimate VPs, colluding "human" attackers whose *legitimate* VPs sit
//! at a controlled hop distance from the trusted VP, and floods of fake
//! VPs (100–500% of the legitimate population) that the attackers wire
//! into chains toward the (secret) investigation site. Because viewlinks
//! require a two-way Bloom exchange, fakes can attach only to
//! attacker-controlled VPs — never to honest ones — so they form a
//! separate layer whose trust inflow is bounded (Lemmas 1–2, Corollary 1).

use crate::trustrank::{self, CsrGraph};
use crate::types::GeoPos;
use rand::Rng;

/// Parameters for the synthetic geometric viewmap.
#[derive(Clone, Copy, Debug)]
pub struct GeometricParams {
    /// Number of legitimate member VPs (paper: 1000).
    pub n_legit: usize,
    /// Side length of the square area, meters.
    pub area_m: f64,
    /// Viewlink radius (geometric-graph connection radius), meters.
    pub link_radius_m: f64,
    /// Investigation-site radius, meters.
    pub site_radius_m: f64,
    /// Distance from the trusted VP to the site center, meters
    /// (trusted VPs "do not need to be near the incident": ~3 km).
    pub site_distance_m: f64,
}

impl Default for GeometricParams {
    fn default() -> Self {
        GeometricParams {
            n_legit: 1000,
            area_m: 4000.0,
            // Viewlinks span up to the DSRC range (400 m); the hop depth
            // of the site (~3 km / ~350 m ≈ 9 hops) is what the honest
            // trust propagation must cover.
            link_radius_m: 350.0,
            site_radius_m: 200.0,
            site_distance_m: 3000.0,
        }
    }
}

/// Attack configuration (Figs. 12, 13, 22d, 22e).
#[derive(Clone, Copy, Debug)]
pub struct AttackConfig {
    /// Number of colluding attackers holding legitimate member VPs.
    pub n_attackers: usize,
    /// Hop-distance bucket (inclusive) of attacker VPs from the trusted VP
    /// (Fig. 12 x-axis: 1–5, 6–10, ..., 21–25).
    pub attacker_hops: (usize, usize),
    /// Fake VPs as a fraction of the legitimate population (1.0 = 100%).
    pub fake_ratio: f64,
    /// Extra legitimate-but-dummy VPs per attacker (Fig. 13 / 22e
    /// concentration attacks; 0 for the basic attack).
    pub dummies_per_attacker: usize,
}

/// A synthetic viewmap with ground-truth labels.
#[derive(Clone, Debug)]
pub struct SyntheticViewmap {
    /// Adjacency lists (symmetric): the testbed's construction form,
    /// flattened by [`CsrGraph::from_adj`] for verification.
    pub adj: Vec<Vec<usize>>,
    /// Claimed positions.
    pub pos: Vec<GeoPos>,
    /// Ground truth: was this VP created by proper VP generation?
    pub legit: Vec<bool>,
    /// Index of the trusted VP.
    pub trusted: usize,
    /// Investigation-site center.
    pub site_center: GeoPos,
    /// Site radius.
    pub site_radius_m: f64,
}

impl SyntheticViewmap {
    /// Generate the honest geometric graph (no attack yet).
    pub fn generate<R: Rng + ?Sized>(params: &GeometricParams, rng: &mut R) -> Self {
        let n = params.n_legit;
        let pos: Vec<GeoPos> = (0..n)
            .map(|_| {
                GeoPos::new(
                    rng.gen_range(0.0..params.area_m),
                    rng.gen_range(0.0..params.area_m),
                )
            })
            .collect();
        let adj = geometric_edges(&pos, params.link_radius_m);
        // Trusted VP: a random node; site center: at site_distance away
        // (the trusted VP need not be near the incident). The requested
        // distance is capped at what fits inside the area from the
        // trusted VP's position, so a feasible direction always exists.
        let trusted = rng.gen_range(0..n);
        let tp = pos[trusted];
        let corners = [
            GeoPos::new(0.0, 0.0),
            GeoPos::new(params.area_m, 0.0),
            GeoPos::new(0.0, params.area_m),
            GeoPos::new(params.area_m, params.area_m),
        ];
        let (far_corner, far_dist) = corners
            .iter()
            .map(|c| (*c, tp.distance(c)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("four corners");
        let eff_d = params.site_distance_m.min(far_dist * 0.92);
        let mut site_center = None;
        for _ in 0..256 {
            let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let c = GeoPos::new(tp.x + eff_d * theta.cos(), tp.y + eff_d * theta.sin());
            if c.x >= 0.0 && c.x <= params.area_m && c.y >= 0.0 && c.y <= params.area_m {
                site_center = Some(c);
                break;
            }
        }
        let site_center = site_center.unwrap_or_else(|| {
            // Fall back to the direction of the farthest corner.
            let d = tp.distance(&far_corner).max(1.0);
            GeoPos::new(
                tp.x + (far_corner.x - tp.x) / d * eff_d,
                tp.y + (far_corner.y - tp.y) / d * eff_d,
            )
        });
        SyntheticViewmap {
            adj,
            pos,
            legit: vec![true; n],
            trusted,
            site_center,
            site_radius_m: params.site_radius_m,
        }
    }

    /// Node indices whose claimed position is inside the site.
    pub fn site_members(&self) -> Vec<usize> {
        self.pos
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&self.site_center) <= self.site_radius_m)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS hop distances from the trusted VP.
    pub fn hops_from_trusted(&self) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut q = std::collections::VecDeque::new();
        dist[self.trusted] = 0;
        q.push_back(self.trusted);
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        if a != b && !self.adj[a].contains(&b) {
            self.adj[a].push(b);
            self.adj[b].push(a);
        }
    }

    /// Mount the attack: pick attacker nodes in the requested hop bucket,
    /// optionally co-locate legitimate dummy VPs with them, and inject
    /// fake VPs wired as chains toward the site plus a clique around it.
    ///
    /// Returns the indices of the attackers' legitimate VPs.
    pub fn inject_attack<R: Rng + ?Sized>(
        &mut self,
        cfg: &AttackConfig,
        rng: &mut R,
    ) -> Vec<usize> {
        let n_legit = self.legit.len();
        let hops = self.hops_from_trusted();
        // Attackers cannot predict the future investigation site, so their
        // legitimate VPs are (almost surely) not inside it: exclude the
        // site's vicinity from candidate positions.
        let link_r_excl = estimate_link_radius(self);
        let not_in_site =
            |i: usize| self.pos[i].distance(&self.site_center) > self.site_radius_m + link_r_excl;
        // Candidate attacker nodes in the hop bucket (fall back to the
        // nearest non-empty bucket so every experiment cell is populated).
        let mut candidates: Vec<usize> = (0..n_legit)
            .filter(|&i| {
                hops[i] != usize::MAX
                    && hops[i] >= cfg.attacker_hops.0
                    && hops[i] <= cfg.attacker_hops.1
                    && not_in_site(i)
            })
            .collect();
        if candidates.is_empty() {
            let mut best: Vec<(usize, usize)> = (0..n_legit)
                .filter(|&i| hops[i] != usize::MAX && not_in_site(i))
                .map(|i| {
                    let d = if hops[i] < cfg.attacker_hops.0 {
                        cfg.attacker_hops.0 - hops[i]
                    } else {
                        hops[i].saturating_sub(cfg.attacker_hops.1)
                    };
                    (d, i)
                })
                .collect();
            best.sort_unstable();
            candidates = best
                .into_iter()
                .take(cfg.n_attackers * 4)
                .map(|(_, i)| i)
                .collect();
        }
        // Sample attackers without replacement.
        let mut attackers = Vec::new();
        while attackers.len() < cfg.n_attackers && !candidates.is_empty() {
            let k = rng.gen_range(0..candidates.len());
            attackers.push(candidates.swap_remove(k));
        }

        // Concentration attack: legitimate dummy VPs co-located with the
        // attacker (they link to whatever is physically nearby, like any
        // real VP).
        let link_r = estimate_link_radius(self);
        let mut controlled: Vec<usize> = attackers.clone();
        for &a in &attackers {
            for _ in 0..cfg.dummies_per_attacker {
                let p = GeoPos::new(
                    self.pos[a].x + rng.gen_range(-40.0..40.0),
                    self.pos[a].y + rng.gen_range(-40.0..40.0),
                );
                let idx = self.push_node(p, true);
                // Legit dummies link two-way with all physically nearby VPs.
                for j in 0..idx {
                    if self.pos[j].distance(&p) <= link_r {
                        self.add_edge(idx, j);
                    }
                }
                controlled.push(idx);
            }
        }

        // Fake VPs. Attackers cannot predict the future investigation
        // site (the paper's core restriction), so they blanket a wide
        // area: each attacker emits rays of fake VPs in random directions,
        // hoping some land inside whatever site gets investigated later.
        // Colluding fakes whose claimed positions are mutually in range
        // also interlink (their blooms are fabricated cooperatively, but
        // the server's proximity precondition still applies).
        let n_fake = (cfg.fake_ratio * n_legit as f64).round() as usize;
        let mut budget = n_fake;
        let spacing = link_r * 0.8;
        let mut all_fakes: Vec<usize> = Vec::new();
        let mut ai = 0usize;
        while budget > 0 && !attackers.is_empty() {
            let a = attackers[ai % attackers.len()];
            ai += 1;
            // One ray: a persistent heading with mild wobble; length
            // bounded by the per-ray share of the budget.
            let ray_len = (n_fake / (attackers.len() * 2).max(1))
                .clamp(3, 60)
                .min(budget);
            let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let mut prev = a;
            let mut p = self.pos[a];
            for _ in 0..ray_len {
                heading += rng.gen_range(-0.3..0.3);
                p = GeoPos::new(p.x + spacing * heading.cos(), p.y + spacing * heading.sin());
                let idx = self.push_node(p, false);
                self.add_edge(prev, idx);
                // Cross-links to other colluding fakes in claimed range.
                let mut linked = 0;
                for &j in all_fakes.iter().rev().take(60) {
                    if self.pos[j].distance(&p) <= link_r {
                        self.add_edge(idx, j);
                        linked += 1;
                        if linked >= 4 {
                            break;
                        }
                    }
                }
                all_fakes.push(idx);
                prev = idx;
                budget -= 1;
                if budget == 0 {
                    break;
                }
            }
        }
        let _ = controlled;
        attackers
    }

    fn push_node(&mut self, p: GeoPos, legit: bool) -> usize {
        self.pos.push(p);
        self.legit.push(legit);
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Run Algorithm 1 and report the outcome against ground truth.
    pub fn run_verification(&self) -> Outcome {
        let site = self.site_members();
        let (v, _) = trustrank::verify_site(
            &CsrGraph::from_adj(&self.adj),
            &[self.trusted],
            &site,
            trustrank::DAMPING,
        );
        let top_is_legit = v.top.map(|t| self.legit[t]).unwrap_or(false);
        let marked_fake = v.legitimate.iter().filter(|&&i| !self.legit[i]).count();
        Outcome {
            top_is_legit,
            marked: v.legitimate.len(),
            marked_fake,
            success: top_is_legit && marked_fake == 0 && v.top.is_some(),
        }
    }
}

/// Verification outcome against ground truth.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Did verification succeed (legit top, no fake marked)?
    pub success: bool,
    /// Was the highest-scored site VP legitimate?
    pub top_is_legit: bool,
    /// Total marked VPs.
    pub marked: usize,
    /// Marked VPs that are actually fake.
    pub marked_fake: usize,
}

/// Build symmetric geometric-graph adjacency.
fn geometric_edges(pos: &[GeoPos], radius: f64) -> Vec<Vec<usize>> {
    let grid = vm_geo::GridIndex::build(
        radius.max(1.0),
        pos.iter()
            .enumerate()
            .map(|(i, p)| (i, vm_geo::Point::new(p.x, p.y))),
    );
    let mut adj = vec![Vec::new(); pos.len()];
    let mut hits = Vec::new();
    for (i, p) in pos.iter().enumerate() {
        grid.query_radius_into(&vm_geo::Point::new(p.x, p.y), radius, &mut hits);
        for &j in &hits {
            if j > i {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

fn estimate_link_radius(map: &SyntheticViewmap) -> f64 {
    // Recover the generation radius from the longest existing edge.
    let mut r: f64 = 0.0;
    for (i, nbrs) in map.adj.iter().enumerate() {
        for &j in nbrs {
            r = r.max(map.pos[i].distance(&map.pos[j]));
        }
    }
    if r == 0.0 {
        200.0
    } else {
        r
    }
}

/// Lemma 2 upper bound on the total trust score of fake VPs:
/// `Σ_{v∈F_A} P_v ≤ δ/(1−δ) · Σ_{v∈A} (|O_v ∩ F_A| / |O_v|) · P_v`.
pub fn lemma2_bound(g: &CsrGraph, scores: &[f64], attackers: &[usize], is_fake: &[bool]) -> f64 {
    let delta = trustrank::DAMPING;
    let mut sum = 0.0;
    for &a in attackers {
        if g.degree(a) == 0 {
            continue;
        }
        let fake_nbrs = g
            .neighbors(a)
            .iter()
            .filter(|&&v| is_fake[v as usize])
            .count();
        sum += (fake_nbrs as f64 / g.degree(a) as f64) * scores[a];
    }
    delta / (1.0 - delta) * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> GeometricParams {
        // Dense enough that the geometric graph is connected (mean degree
        // ≈ 9): real viewmaps ride on road traffic, which is connected.
        GeometricParams {
            n_legit: 300,
            area_m: 2000.0,
            link_radius_m: 200.0,
            site_radius_m: 200.0,
            site_distance_m: 1400.0,
        }
    }

    #[test]
    fn honest_viewmap_verifies_cleanly() {
        let rng = StdRng::seed_from_u64(1);
        for seed in 0..5 {
            let mut r2 = StdRng::seed_from_u64(100 + seed);
            let map = SyntheticViewmap::generate(&small_params(), &mut r2);
            if map.site_members().is_empty() {
                continue;
            }
            let o = map.run_verification();
            assert!(o.success, "honest run failed: {o:?}");
            assert_eq!(o.marked_fake, 0);
        }
        let _ = rng;
    }

    #[test]
    fn distant_attackers_fail() {
        // Attackers far from the trusted VP (the common case) lose.
        let mut ok = 0;
        let runs = 10;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let mut map = SyntheticViewmap::generate(&small_params(), &mut rng);
            if map.site_members().is_empty() {
                ok += 1;
                continue;
            }
            map.inject_attack(
                &AttackConfig {
                    n_attackers: 20,
                    attacker_hops: (8, 12),
                    fake_ratio: 3.0,
                    dummies_per_attacker: 0,
                },
                &mut rng,
            );
            if map.run_verification().success {
                ok += 1;
            }
        }
        assert!(ok >= runs - 1, "accuracy too low: {ok}/{runs}");
    }

    #[test]
    fn fakes_never_link_to_honest_vps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut map = SyntheticViewmap::generate(&small_params(), &mut rng);
        let n_honest = map.legit.len();
        let attackers = map.inject_attack(
            &AttackConfig {
                n_attackers: 10,
                attacker_hops: (1, 5),
                fake_ratio: 2.0,
                dummies_per_attacker: 0,
            },
            &mut rng,
        );
        let attacker_set: std::collections::HashSet<usize> = attackers.into_iter().collect();
        for (i, nbrs) in map.adj.iter().enumerate() {
            if map.legit[i] {
                continue; // i is fake
            }
            for &j in nbrs {
                let honest_victim = map.legit[j] && j < n_honest && !attacker_set.contains(&j);
                assert!(!honest_victim, "fake {i} linked to honest non-attacker {j}");
            }
        }
    }

    #[test]
    fn more_fakes_dilute_fake_scores() {
        // Corollary 1: the per-fake score shrinks as the flood grows.
        let mut rng = StdRng::seed_from_u64(4);
        let avg_fake_score = |ratio: f64, rng: &mut StdRng| {
            let mut map = SyntheticViewmap::generate(&small_params(), rng);
            map.inject_attack(
                &AttackConfig {
                    n_attackers: 10,
                    attacker_hops: (1, 5),
                    fake_ratio: ratio,
                    dummies_per_attacker: 0,
                },
                rng,
            );
            let (scores, _) = trustrank::trust_scores(
                &CsrGraph::from_adj(&map.adj),
                &[map.trusted],
                trustrank::DAMPING,
                1e-10,
                1000,
            );
            let fakes: Vec<f64> = scores
                .iter()
                .zip(&map.legit)
                .filter(|(_, &l)| !l)
                .map(|(s, _)| *s)
                .collect();
            fakes.iter().sum::<f64>() / fakes.len() as f64
        };
        let few = avg_fake_score(1.0, &mut rng);
        let many = avg_fake_score(5.0, &mut rng);
        assert!(
            many < few,
            "5x fakes should have lower average score: {many} vs {few}"
        );
    }

    #[test]
    fn lemma2_bound_holds() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut map = SyntheticViewmap::generate(&small_params(), &mut rng);
        let attackers = map.inject_attack(
            &AttackConfig {
                n_attackers: 15,
                attacker_hops: (1, 8),
                fake_ratio: 2.0,
                dummies_per_attacker: 0,
            },
            &mut rng,
        );
        let graph = CsrGraph::from_adj(&map.adj);
        let (scores, _) =
            trustrank::trust_scores(&graph, &[map.trusted], trustrank::DAMPING, 1e-10, 1000);
        let is_fake: Vec<bool> = map.legit.iter().map(|&l| !l).collect();
        let fake_total: f64 = scores
            .iter()
            .zip(&is_fake)
            .filter(|(_, &f)| f)
            .map(|(s, _)| *s)
            .sum();
        let bound = lemma2_bound(&graph, &scores, &attackers, &is_fake);
        assert!(
            fake_total <= bound + 1e-9,
            "Lemma 2 violated: {fake_total} > {bound}"
        );
    }

    #[test]
    #[ignore = "diagnostic"]
    fn debug_attack_diagnostics() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let mut map = SyntheticViewmap::generate(&small_params(), &mut rng);
            let site_before = map.site_members();
            map.inject_attack(
                &AttackConfig {
                    n_attackers: 20,
                    attacker_hops: (8, 12),
                    fake_ratio: 3.0,
                    dummies_per_attacker: 0,
                },
                &mut rng,
            );
            let (scores, _) = trustrank::trust_scores(
                &CsrGraph::from_adj(&map.adj),
                &[map.trusted],
                trustrank::DAMPING,
                1e-10,
                1000,
            );
            let site = map.site_members();
            let mut rows: Vec<(f64, bool)> =
                site.iter().map(|&i| (scores[i], map.legit[i])).collect();
            rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let honest_in_site = site.iter().filter(|&&i| map.legit[i]).count();
            println!(
                "seed {seed}: site {} (honest pre-attack {}, honest now {}), top5 {:?}",
                site.len(),
                site_before.len(),
                honest_in_site,
                &rows[..rows.len().min(5)]
            );
            let hops = map.hops_from_trusted();
            let site_hops: Vec<usize> = site
                .iter()
                .filter(|&&i| map.legit[i])
                .map(|&i| hops[i])
                .collect();
            println!("  honest site hops: {site_hops:?}");
        }
    }

    #[test]
    fn hop_distances_computed_by_bfs() {
        let mut rng = StdRng::seed_from_u64(6);
        let map = SyntheticViewmap::generate(&small_params(), &mut rng);
        let hops = map.hops_from_trusted();
        assert_eq!(hops[map.trusted], 0);
        for (i, nbrs) in map.adj.iter().enumerate() {
            if hops[i] == usize::MAX {
                continue;
            }
            for &j in nbrs {
                assert!(hops[j] <= hops[i] + 1);
            }
        }
    }
}
