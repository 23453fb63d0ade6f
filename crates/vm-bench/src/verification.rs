//! Verification-accuracy experiments (Figs. 12, 13, 22d, 22e).

use rand::rngs::StdRng;
use rand::SeedableRng;
use viewmap_core::attack::{AttackConfig, GeometricParams, SyntheticViewmap};

/// One cell of an accuracy sweep.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyCell {
    /// x-axis value (hop bucket low edge, or dummy count).
    pub x: usize,
    /// Fake-VP ratio (1.0 = 100%).
    pub fake_ratio: f64,
    /// Verification accuracy over the runs.
    pub accuracy: f64,
    /// Number of runs.
    pub runs: usize,
}

/// The paper's Fig. 12 hop buckets.
pub const HOP_BUCKETS: [(usize, usize); 5] = [(1, 5), (6, 10), (11, 15), (16, 20), (21, 25)];

/// The fake-VP ratios used across Figs. 12/13/22d/22e.
pub const FAKE_RATIOS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// Generate a synthetic viewmap whose investigation site is guaranteed to
/// contain at least one legitimate VP (an incident site has witnesses; an
/// empty site would make the run meaningless).
pub fn generate_populated(params: &GeometricParams, rng: &mut StdRng) -> SyntheticViewmap {
    loop {
        let map = SyntheticViewmap::generate(params, rng);
        let site = map.site_members();
        if !site.is_empty() && site.iter().any(|&i| map.legit[i]) {
            return map;
        }
    }
}

/// Accuracy of verification for one attack setting over `runs` random
/// viewmaps.
pub fn accuracy(params: &GeometricParams, attack: &AttackConfig, runs: usize, seed: u64) -> f64 {
    let mut ok = 0usize;
    for r in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
        let mut map = generate_populated(params, &mut rng);
        map.inject_attack(attack, &mut rng);
        if map.run_verification().success {
            ok += 1;
        }
    }
    ok as f64 / runs as f64
}

/// Fig. 12 sweep: accuracy vs attacker hop distance × fake ratio.
pub fn fig12_sweep(params: &GeometricParams, attackers: usize, runs: usize) -> Vec<AccuracyCell> {
    let mut out = Vec::new();
    for (bi, &bucket) in HOP_BUCKETS.iter().enumerate() {
        for (ri, &ratio) in FAKE_RATIOS.iter().enumerate() {
            let cfg = AttackConfig {
                n_attackers: attackers,
                attacker_hops: bucket,
                fake_ratio: ratio,
                dummies_per_attacker: 0,
            };
            let seed = 0x12_0000 + (bi * 10 + ri) as u64 * 7919;
            out.push(AccuracyCell {
                x: bucket.0,
                fake_ratio: ratio,
                accuracy: accuracy(params, &cfg, runs, seed),
                runs,
            });
        }
    }
    out
}

/// Fig. 13 / 22e sweep: accuracy vs dummy-VP count × fake ratio
/// (concentration attacks).
pub fn fig13_sweep(
    params: &GeometricParams,
    attackers: usize,
    dummy_counts: &[usize],
    runs: usize,
) -> Vec<AccuracyCell> {
    let mut out = Vec::new();
    for (di, &dummies) in dummy_counts.iter().enumerate() {
        for (ri, &ratio) in FAKE_RATIOS.iter().enumerate() {
            let cfg = AttackConfig {
                n_attackers: attackers,
                attacker_hops: (6, 15),
                fake_ratio: ratio,
                dummies_per_attacker: dummies,
            };
            let seed = 0x13_0000 + (di * 10 + ri) as u64 * 104_729;
            out.push(AccuracyCell {
                x: dummies,
                fake_ratio: ratio,
                accuracy: accuracy(params, &cfg, runs, seed),
                runs,
            });
        }
    }
    out
}

/// Ablation: allow one-way linkage (fakes may forge edges to honest VPs)
/// and measure how verification accuracy collapses — the justification
/// for the two-way Bloom check.
pub fn ablation_one_way(params: &GeometricParams, runs: usize, fake_ratio: f64) -> (f64, f64) {
    let cfg = AttackConfig {
        n_attackers: 10,
        attacker_hops: (6, 15),
        fake_ratio,
        dummies_per_attacker: 0,
    };
    let mut two_way_ok = 0usize;
    let mut one_way_ok = 0usize;
    for r in 0..runs {
        let mut rng = StdRng::seed_from_u64(0xab1a_0000 + r as u64);
        let mut map = generate_populated(params, &mut rng);
        map.inject_attack(&cfg, &mut rng);
        if map.run_verification().success {
            two_way_ok += 1;
        }
        // One-way world: every fake near an honest VP claims (and gets) an
        // edge to it, as a one-way check would allow.
        let mut forged = map.clone();
        forge_one_way_edges(&mut forged);
        if forged.run_verification().success {
            one_way_ok += 1;
        }
    }
    (
        two_way_ok as f64 / runs as f64,
        one_way_ok as f64 / runs as f64,
    )
}

/// Give every fake VP edges to honest VPs within the link radius —
/// simulating a system that only checks one-way Bloom membership
/// (the fake's own filter can claim anything).
pub fn forge_one_way_edges(map: &mut SyntheticViewmap) {
    let mut radius: f64 = 0.0;
    for (i, nbrs) in map.adj.iter().enumerate() {
        for &j in nbrs {
            radius = radius.max(map.pos[i].distance(&map.pos[j]));
        }
    }
    let n = map.adj.len();
    let mut new_edges = Vec::new();
    for fake in 0..n {
        if map.legit[fake] {
            continue;
        }
        for honest in 0..n {
            if !map.legit[honest] {
                continue;
            }
            if map.pos[fake].distance(&map.pos[honest]) <= radius {
                new_edges.push((fake, honest));
            }
        }
    }
    for (a, b) in new_edges {
        if !map.adj[a].contains(&b) {
            map.adj[a].push(b);
            map.adj[b].push(a);
        }
    }
}

/// Ablation: verification accuracy as a function of the damping factor δ
/// (the paper picks 0.8 empirically).
pub fn ablation_damping(
    params: &GeometricParams,
    runs: usize,
    dampings: &[f64],
) -> Vec<(f64, f64)> {
    use viewmap_core::trustrank;
    let cfg = AttackConfig {
        n_attackers: 10,
        attacker_hops: (1, 5),
        fake_ratio: 3.0,
        dummies_per_attacker: 0,
    };
    dampings
        .iter()
        .map(|&d| {
            let mut ok = 0usize;
            for r in 0..runs {
                let mut rng = StdRng::seed_from_u64(0xda_0000 + r as u64);
                let mut map = generate_populated(params, &mut rng);
                map.inject_attack(&cfg, &mut rng);
                let site = map.site_members();
                let (v, _) = trustrank::verify_site(
                    &trustrank::CsrGraph::from_adj(&map.adj),
                    &[map.trusted],
                    &site,
                    d,
                );
                let top_ok = v.top.map(|t| map.legit[t]).unwrap_or(false);
                let no_fake = v.legitimate.iter().all(|&i| map.legit[i]);
                if top_ok && no_fake {
                    ok += 1;
                }
            }
            (d, ok as f64 / runs as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> GeometricParams {
        GeometricParams {
            n_legit: 250,
            area_m: 1800.0,
            link_radius_m: 200.0,
            site_radius_m: 200.0,
            site_distance_m: 1200.0,
        }
    }

    #[test]
    fn distant_attacker_accuracy_is_high() {
        let cfg = AttackConfig {
            n_attackers: 10,
            attacker_hops: (6, 10),
            fake_ratio: 2.0,
            dummies_per_attacker: 0,
        };
        let acc = accuracy(&quick_params(), &cfg, 12, 77);
        assert!(acc >= 0.8, "accuracy {acc}");
    }

    #[test]
    fn one_way_linkage_is_much_worse() {
        let (two, one) = ablation_one_way(&quick_params(), 10, 2.0);
        assert!(two > one, "two-way accuracy {two} must beat one-way {one}");
        assert!(one < 0.5, "one-way forgery should usually win: {one}");
    }

    #[test]
    fn sweeps_produce_full_grids() {
        let cells = fig12_sweep(&quick_params(), 8, 2);
        assert_eq!(cells.len(), HOP_BUCKETS.len() * FAKE_RATIOS.len());
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.accuracy));
        }
    }
}
