//! Property tests for the adversary model (`attack`) and the
//! cooperative obfuscation layer (`guard`).
//!
//! The scenario harness asserts Lemma 2 on specific worlds; these
//! properties sweep the geometric and attack parameter spaces so the
//! bound, the no-honest-countersign invariant, and the BFS hop
//! structure hold *everywhere* the generator can reach, not just at
//! the defaults.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use viewmap_core::attack::{lemma2_bound, AttackConfig, GeometricParams, SyntheticViewmap};
use viewmap_core::guard::{create_guards, GuardConfig, StraightLine};
use viewmap_core::trustrank;
use viewmap_core::types::GeoPos;
use viewmap_core::vp::exchange_minute;

fn params(n_legit: usize, area_m: f64, link_radius_m: f64) -> GeometricParams {
    GeometricParams {
        n_legit,
        area_m,
        link_radius_m,
        site_radius_m: area_m / 10.0,
        site_distance_m: area_m * 0.6,
    }
}

proptest! {
    /// Lemma 2 across the geometric/attack sweep: the total TrustRank
    /// score of the fake population never exceeds
    /// `δ/(1−δ) · Σ_attackers (fake-degree share · score)` — at any
    /// density, any hop bucket, any flood size, with or without
    /// co-located dummies.
    #[test]
    fn lemma2_bound_holds_across_sweeps(
        seed in 0u64..500,
        n_legit in 80usize..220,
        area_km in 1.2f64..3.0,
        link_radius_m in 120.0f64..320.0,
        n_attackers in 1usize..16,
        hop_lo in 1usize..8,
        hop_width in 0usize..6,
        fake_ratio in 0.3f64..3.5,
        dummies in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = params(n_legit, area_km * 1000.0, link_radius_m);
        let mut map = SyntheticViewmap::generate(&p, &mut rng);
        let attackers = map.inject_attack(
            &AttackConfig {
                n_attackers,
                attacker_hops: (hop_lo, hop_lo + hop_width),
                fake_ratio,
                dummies_per_attacker: dummies,
            },
            &mut rng,
        );
        let graph = trustrank::CsrGraph::from_adj(&map.adj);
        let (scores, _) = trustrank::trust_scores(
            &graph, &[map.trusted], trustrank::DAMPING, 1e-10, 1000,
        );
        let is_fake: Vec<bool> = map.legit.iter().map(|&l| !l).collect();
        let fake_total: f64 = scores
            .iter()
            .zip(&is_fake)
            .filter(|(_, &f)| f)
            .map(|(s, _)| *s)
            .sum();
        let bound = lemma2_bound(&graph, &scores, &attackers, &is_fake);
        prop_assert!(
            fake_total <= bound + 1e-9,
            "Lemma 2 violated at seed {seed}: fake total {fake_total} > bound {bound}"
        );
    }

    /// The two-way Bloom exchange means a fake VP can never hold a link
    /// to an honest non-attacker, no matter how the attack is shaped.
    #[test]
    fn fakes_only_ever_link_to_colluders(
        seed in 0u64..500,
        n_attackers in 1usize..12,
        hop_lo in 1usize..10,
        fake_ratio in 0.3f64..3.0,
        dummies in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_CE5);
        let p = params(150, 2000.0, 200.0);
        let mut map = SyntheticViewmap::generate(&p, &mut rng);
        let n_honest = map.legit.len();
        let attackers: std::collections::HashSet<usize> = map
            .inject_attack(
                &AttackConfig {
                    n_attackers,
                    attacker_hops: (hop_lo, hop_lo + 3),
                    fake_ratio,
                    dummies_per_attacker: dummies,
                },
                &mut rng,
            )
            .into_iter()
            .collect();
        for (i, nbrs) in map.adj.iter().enumerate() {
            if map.legit[i] {
                continue;
            }
            for &j in nbrs {
                let honest_victim = map.legit[j] && j < n_honest && !attackers.contains(&j);
                prop_assert!(
                    !honest_victim,
                    "fake {i} countersigned by honest non-attacker {j} (seed {seed})"
                );
            }
        }
    }

    /// BFS structure: hop distances satisfy the edge relaxation
    /// property (neighbors differ by at most one) and exactly the
    /// trusted VP's component is reachable.
    #[test]
    fn hop_distances_are_consistent(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB_F5);
        let map = SyntheticViewmap::generate(&params(120, 2200.0, 220.0), &mut rng);
        let hops = map.hops_from_trusted();
        prop_assert_eq!(hops[map.trusted], 0);
        for (i, nbrs) in map.adj.iter().enumerate() {
            for &j in nbrs {
                if hops[i] != usize::MAX {
                    prop_assert!(
                        hops[j] <= hops[i] + 1,
                        "edge ({i},{j}) violates relaxation: {} vs {}",
                        hops[i],
                        hops[j]
                    );
                }
                prop_assert_eq!(
                    hops[i] == usize::MAX,
                    hops[j] == usize::MAX,
                    "edge spans reachability boundary"
                );
            }
        }
    }

    /// Hop monotonicity in radio range: growing the link radius (same
    /// positions, same seed) never pushes a reachable node further from
    /// the trusted VP and never disconnects anything.
    #[test]
    fn hops_shrink_as_link_radius_grows(
        seed in 0u64..300,
        r_small in 130.0f64..220.0,
        grow in 1.1f64..2.0,
    ) {
        // Identical rng seeds + identical draw order (positions first,
        // then trusted, then site) ⇒ the two maps share geometry and
        // differ only in which edges exist.
        let small = SyntheticViewmap::generate(
            &params(120, 2000.0, r_small),
            &mut StdRng::seed_from_u64(seed ^ 0x60),
        );
        let large = SyntheticViewmap::generate(
            &params(120, 2000.0, r_small * grow),
            &mut StdRng::seed_from_u64(seed ^ 0x60),
        );
        prop_assert_eq!(small.trusted, large.trusted);
        let hs = small.hops_from_trusted();
        let hl = large.hops_from_trusted();
        for (i, (&a, &b)) in hs.iter().zip(&hl).enumerate() {
            if a != usize::MAX {
                prop_assert!(
                    b <= a,
                    "node {i}: radius {r_small}->{} grew hops {a}->{b}",
                    r_small * grow
                );
            }
        }
    }

    /// ⌈α·m⌉ guard accounting: at least one guard per nonempty
    /// neighborhood, never more than m for α ≤ 1, monotone in m.
    #[test]
    fn guard_count_is_ceil_alpha_m(alpha in 0.01f64..1.0, m in 1usize..200) {
        let cfg = GuardConfig { alpha, ..GuardConfig::default() };
        let g = cfg.guards_for(m);
        prop_assert_eq!(g, (alpha * m as f64).ceil() as usize);
        prop_assert!(g >= 1, "nonempty neighborhood must get a guard");
        prop_assert!(g <= m, "alpha <= 1 can never need more guards than neighbors");
        prop_assert!(g >= cfg.guards_for(m - 1).saturating_sub(0) || m == 1);
        prop_assert!(cfg.guards_for(m + 1) >= g, "guards_for must be monotone in m");
        prop_assert_eq!(cfg.guards_for(0), 0);
    }

    /// Fabricated guards always span neighbor-start → own-end, stay
    /// mutually Bloom-linked with the actual VP, and carry fresh ids —
    /// for arbitrary trajectories and α.
    #[test]
    fn guards_span_and_link_for_arbitrary_minutes(
        seed in 0u64..200,
        dx in 5.0f64..20.0,
        sep in 10.0f64..120.0,
        alpha in 0.05f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A2D);
        let (mut fin, _) = exchange_minute(
            &mut rng,
            0,
            |s| GeoPos::new(100.0 + s as f64 * dx, 0.0),
            |s| GeoPos::new(s as f64 * dx, sep),
        );
        prop_assert!(!fin.neighbors.is_empty(), "vehicles within DSRC range must exchange");
        let cfg = GuardConfig { alpha, ..GuardConfig::default() };
        let want = cfg.guards_for(fin.neighbors.len());
        let neighbor_start = fin.neighbors[0].initial_loc();
        let own_end = fin.profile.vds.last().unwrap().loc;
        let guards = create_guards(&mut rng, &mut fin, &StraightLine, &cfg);
        prop_assert_eq!(guards.len(), want.min(fin.neighbors.len()));
        let actual = fin.profile.clone().into_stored();
        for g in &guards {
            prop_assert_eq!(g.vds.len(), 60);
            prop_assert!(g.vds[0].loc.distance(&neighbor_start) < 80.0);
            prop_assert!(g.vds[59].loc.distance(&own_end) < 1.0);
            prop_assert!(g.id() != fin.profile.id(), "guard id must be fresh");
            let stored = g.clone().into_stored();
            prop_assert!(
                actual.mutually_linked(&stored),
                "guard and actual must countersign each other"
            );
        }
    }
}
