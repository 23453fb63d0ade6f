//! The city rows' world generators: materialize the simulation stack
//! (IDM traffic over synthetic road networks, radio witnessing,
//! adversary injection) into stored VPs the rig drives over the real
//! wire protocol.
//!
//! Every generator is a pure function of its `(config, seed)` inputs —
//! the same pair always yields bit-identical VPs, which is what lets a
//! failing run be replayed from nothing but the printed repro line.

use crate::rig::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use viewmap_core::bloom::BloomFilter;
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::viewmap::Site;
use viewmap_core::vp::{StoredVp, VpBuilder, VpKind};
use vm_geo::{CityParams, RoadNetwork};
use vm_mobility::{MobilityConfig, SpeedScenario, TrafficSim};
use vm_sim::{run_protocol_sim, SimConfig};
use vm_vision::SyntheticScene;

/// Witnessing radius for the hand-wired attack worlds, metres. Below
/// the 400 m DSRC radius so every Bloom-wired pair also passes the
/// viewmap engine's geometric precondition.
pub const LINK_RADIUS_M: f64 = 350.0;

/// One simulated minute ready for the wire: `vps[0]` is the trusted
/// anchor (authority channel), the rest go through the client in order.
pub struct MinuteWorld {
    /// All VPs of the minute; index 0 carries the trusted flag.
    pub vps: Vec<StoredVp>,
    /// Guard VPs among them (wire-indistinguishable from actuals).
    pub guards: usize,
    /// Mean per-vehicle witnessed-neighbor count this minute.
    pub mean_neighbors: f64,
}

/// A protocol-sim world: per-minute VP populations plus the site that
/// covers the whole city.
pub struct SimWorld {
    /// One entry per simulated minute.
    pub minutes: Vec<MinuteWorld>,
    /// Investigation site covering the entire area.
    pub site: Site,
    /// Fraction of uploads that were guard VPs.
    pub guard_share: f64,
}

impl SimWorld {
    /// The rig's view of this world: sim minute `m` is `MinuteId(m)`.
    pub fn world(&self) -> World {
        let minutes = self.minutes.iter().enumerate();
        World {
            minutes: minutes
                .map(|(m, mw)| (MinuteId(m as u64), mw.vps.clone()))
                .collect(),
            site: self.site,
        }
    }
}

/// Run the full protocol simulation (mobility + radio + guards +
/// anonymous upload) and reorder each minute so a deterministic actual
/// VP leads as the trusted anchor.
pub fn sim_world(cfg: &SimConfig, seed: u64) -> SimWorld {
    let out = run_protocol_sim(cfg, seed);
    let minutes = out
        .minutes
        .into_iter()
        .map(|rec| {
            let vps = rec.vps.expect("sim_world requires cfg.keep_vps");
            let anchor = rec.actual_idx[0];
            let mut ordered = Vec::with_capacity(vps.len());
            for (i, mut vp) in vps.into_iter().enumerate() {
                if i == anchor {
                    vp.trusted = true;
                    ordered.insert(0, vp);
                } else {
                    ordered.push(vp);
                }
            }
            MinuteWorld {
                vps: ordered,
                guards: rec.guard_count,
                mean_neighbors: rec.mean_neighbors,
            }
        })
        .collect();
    let total = out.actual_vps + out.guard_vps;
    SimWorld {
        minutes,
        site: Site {
            center: GeoPos::new(cfg.city.width_m / 2.0, cfg.city.height_m / 2.0),
            radius_m: 1_000_000.0,
        },
        guard_share: if total == 0 {
            0.0
        } else {
            out.guard_vps as f64 / total as f64
        },
    }
}

/// Parameters for the adversarial worlds.
pub struct AttackSpec {
    /// Honest vehicles driven by the traffic simulator.
    pub vehicles: usize,
    /// Colluding attacker vehicles (chosen among the honest drivers).
    pub n_attackers: usize,
    /// Desired hop distance of attackers from the trusted anchor.
    pub attacker_hops: (usize, usize),
    /// Total fake-VP budget across all rays.
    pub fakes: usize,
    /// Aim rays at the investigation site (forged trajectory) instead
    /// of blanketing random headings (Sybil flood).
    pub aim_at_site: bool,
}

/// A minute-zero world with a seeded Sybil attack wired into it.
pub struct AttackWorld {
    /// All VPs: honest (index 0 trusted), then fakes. Attacker VPs are
    /// honest-positioned members of the honest prefix.
    pub vps: Vec<StoredVp>,
    /// Ids of the forged VPs.
    pub fake_ids: HashSet<VpId>,
    /// Ids of the attackers' legitimate VPs.
    pub attacker_ids: HashSet<VpId>,
    /// The small investigation site the attack targets.
    pub site: Site,
    /// A site covering everything (equivalence checks).
    pub wide_site: Site,
}

impl AttackWorld {
    /// The rig's view of this world: one minute, investigated at the
    /// wide site so every VP — fakes included — is a member.
    pub fn world(&self) -> World {
        World {
            minutes: vec![(MinuteId(0), self.vps.clone())],
            site: self.wide_site,
        }
    }
}

/// Drive `spec.vehicles` IDM vehicles over a synthetic city for one
/// minute, derive witnessing links from per-second proximity, then
/// mount the attack: attacker vehicles at the requested hop distance
/// emit rays of fake VPs whose fabricated Blooms link only to the
/// colluders (the paper's constraint: honest VPs never countersign a
/// fake trajectory).
pub fn attack_world(spec: &AttackSpec, seed: u64) -> AttackWorld {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE7_A77C);
    // A tight downtown core: with DSRC-range witnessing over ~1.6 km,
    // the honest graph stays one well-connected component, so trust
    // actually flows from the anchor through the attackers into their
    // fakes — the bound being checked is then non-degenerate.
    let city = CityParams {
        width_m: 1_600.0,
        height_m: 1_600.0,
        block_m: 200.0,
        jitter: 0.15,
        keep_link_prob: 0.95,
        diagonals: 1,
    };
    let net = RoadNetwork::synthetic_city(&city, &mut rng);
    let mut sim = TrafficSim::new(
        &net,
        MobilityConfig {
            vehicles: spec.vehicles,
            speed: SpeedScenario::Mix,
            ..MobilityConfig::small(spec.vehicles)
        },
        &mut rng,
    );

    // Per-vehicle per-second trajectories.
    let secs = SECONDS_PER_VP as usize;
    let mut traj: Vec<Vec<GeoPos>> = vec![Vec::with_capacity(secs); spec.vehicles];
    for _ in 0..secs {
        sim.step(&mut rng);
        for (v, p) in sim.positions().iter().enumerate() {
            traj[v].push(GeoPos::new(p.x, p.y));
        }
    }

    // Witnessing: a pair links iff co-located within radio range at any
    // second of the minute.
    let witnessed =
        |a: &[GeoPos], b: &[GeoPos]| a.iter().zip(b).any(|(p, q)| p.distance(q) <= LINK_RADIUS_M);
    let n = spec.vehicles;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if witnessed(&traj[i], &traj[j]) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }

    // Anchor the trust seed inside the largest witnessing component:
    // a vehicle that spent the minute isolated can't seed trust to
    // anyone, which would leave the Lemma 2 bound degenerately zero.
    let mut comp = vec![usize::MAX; n];
    let mut comp_size: Vec<usize> = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = comp_size.len();
        let mut size = 0usize;
        let mut stack = vec![s];
        comp[s] = c;
        while let Some(u) = stack.pop() {
            size += 1;
            for &v in &adj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    stack.push(v);
                }
            }
        }
        comp_size.push(size);
    }
    let best = (0..comp_size.len())
        .max_by_key(|&c| comp_size[c])
        .expect("at least one vehicle");
    if comp[0] != best {
        let anchor = (0..n)
            .find(|&i| comp[i] == best)
            .expect("nonempty component");
        traj.swap(0, anchor);
        for nbrs in adj.iter_mut() {
            for v in nbrs.iter_mut() {
                *v = match *v {
                    0 => anchor,
                    x if x == anchor => 0,
                    x => x,
                };
            }
        }
        adj.swap(0, anchor);
    }

    // BFS hop distances from the trusted anchor (vehicle 0).
    let mut hops = vec![usize::MAX; n];
    hops[0] = 0;
    let mut q = std::collections::VecDeque::from([0usize]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if hops[v] == usize::MAX {
                hops[v] = hops[u] + 1;
                q.push_back(v);
            }
        }
    }

    // The investigation site: centered on a well-connected honest
    // vehicle near the anchor, so honest trust is present in the site.
    let host = (0..n)
        .filter(|&i| (1..=2).contains(&hops[i]))
        .max_by_key(|&i| adj[i].len())
        .unwrap_or(0);
    let site = Site {
        center: traj[host][secs / 2],
        radius_m: 300.0,
    };

    // Attackers: reachable vehicles in the hop bucket, away from the
    // site (they cannot predict it); fall back to the farthest-hop
    // vehicles if the bucket is empty.
    let far_from_site = |i: usize| {
        traj[i]
            .iter()
            .all(|p| p.distance(&site.center) > site.radius_m + LINK_RADIUS_M)
    };
    let mut candidates: Vec<usize> = (1..n)
        .filter(|&i| {
            hops[i] != usize::MAX
                && hops[i] >= spec.attacker_hops.0
                && hops[i] <= spec.attacker_hops.1
                && far_from_site(i)
        })
        .collect();
    if candidates.len() < spec.n_attackers {
        let mut by_hop: Vec<usize> = (1..n)
            .filter(|&i| hops[i] != usize::MAX && far_from_site(i))
            .collect();
        by_hop.sort_by_key(|&i| std::cmp::Reverse(hops[i]));
        candidates = by_hop;
    }
    if candidates.len() < spec.n_attackers {
        // Sparse witnessing can leave the anchor's component tiny; any
        // vehicle works, preferring reachable ones at high hop counts
        // (an unreachable attacker scores ~0 and degenerates the bound).
        candidates = (1..n).collect();
        candidates.sort_by_key(|&i| (hops[i] == usize::MAX, std::cmp::Reverse(hops[i])));
    }
    let mut attackers = Vec::new();
    while attackers.len() < spec.n_attackers && !candidates.is_empty() {
        let k = rng.gen_range(0..candidates.len());
        attackers.push(candidates.swap_remove(k));
    }

    // Fake positions: rays from each attacker's trajectory end, spaced
    // inside radio range so the chain passes the engine's geometric
    // precondition. `fake_adj` indexes fakes from `n` upward.
    let spacing = LINK_RADIUS_M * 0.8;
    let mut pos_fake: Vec<GeoPos> = Vec::new();
    let mut all_edges: Vec<(usize, usize)> = Vec::new();
    for (i, nbrs) in adj.iter().enumerate() {
        for &j in nbrs {
            if j > i {
                all_edges.push((i, j));
            }
        }
    }
    let mut budget = spec.fakes;
    let mut ai = 0usize;
    while budget > 0 && !attackers.is_empty() {
        let a = attackers[ai % attackers.len()];
        ai += 1;
        let start = *traj[a].last().expect("non-empty trajectory");
        let mut heading: f64 = if spec.aim_at_site {
            (site.center.y - start.y).atan2(site.center.x - start.x)
        } else {
            rng.gen_range(0.0..std::f64::consts::TAU)
        };
        let ray_len = if spec.aim_at_site {
            // Long enough to pass through the site.
            ((start.distance(&site.center) + 2.0 * site.radius_m) / spacing).ceil() as usize
        } else {
            (spec.fakes / (attackers.len() * 2).max(1)).clamp(3, 40)
        }
        .min(budget);
        let mut prev = a; // honest index of the ray's root
        let mut p = start;
        for _ in 0..ray_len {
            heading += rng.gen_range(-0.08..0.08);
            p = GeoPos::new(p.x + spacing * heading.cos(), p.y + spacing * heading.sin());
            let idx = n + pos_fake.len();
            pos_fake.push(p);
            all_edges.push((prev, idx));
            // Cross-links to recent colluding fakes in claimed range.
            let mut linked = 0;
            for (j, q) in pos_fake.iter().enumerate().rev().skip(1).take(60) {
                if q.distance(&p) <= LINK_RADIUS_M {
                    all_edges.push((n + j, idx));
                    linked += 1;
                    if linked >= 4 {
                        break;
                    }
                }
            }
            prev = idx;
            budget -= 1;
            if budget == 0 {
                break;
            }
        }
    }

    // Materialize VPs: honest trajectories as recorded, fakes parked at
    // their claimed positions. Ids first so Blooms can cross-reference.
    let total = n + pos_fake.len();
    let ids: Vec<VpId> = (0..total)
        .map(|_| VpId(vm_crypto::Digest16(rng.gen())))
        .collect();
    let mk_vds = |idx: usize, path: &dyn Fn(usize) -> GeoPos| -> Vec<ViewDigest> {
        (1..=SECONDS_PER_VP as u16)
            .map(|seq| ViewDigest {
                seq,
                flags: 0,
                time: seq as u64,
                loc: path(seq as usize - 1),
                file_size: seq as u64 * 1024,
                initial_loc: path(0),
                vp_id: ids[idx],
                hash: vm_crypto::Digest16(
                    StdRng::seed_from_u64(seed ^ ((idx as u64) << 20) ^ seq as u64).gen(),
                ),
            })
            .collect()
    };
    let vds: Vec<Vec<ViewDigest>> = (0..total)
        .map(|i| {
            if i < n {
                mk_vds(i, &|s| traj[i][s])
            } else {
                mk_vds(i, &|_| pos_fake[i - n])
            }
        })
        .collect();
    let mut blooms: Vec<BloomFilter> = (0..total).map(|_| BloomFilter::default()).collect();
    for &(a, b) in &all_edges {
        let last = SECONDS_PER_VP as usize - 1;
        blooms[a].insert(&vds[b][0].bloom_key());
        blooms[a].insert(&vds[b][last].bloom_key());
        blooms[b].insert(&vds[a][0].bloom_key());
        blooms[b].insert(&vds[a][last].bloom_key());
    }
    let mut vps: Vec<StoredVp> = Vec::with_capacity(total);
    for (i, (vd, bloom)) in vds.into_iter().zip(blooms).enumerate() {
        vps.push(StoredVp::new(ids[i], vd, bloom, i == 0));
    }

    AttackWorld {
        fake_ids: ids[n..].iter().copied().collect(),
        attacker_ids: attackers.iter().map(|&a| ids[a]).collect(),
        vps,
        site,
        wide_site: Site {
            center: GeoPos::new(city.width_m / 2.0, city.height_m / 2.0),
            radius_m: 1_000_000.0,
        },
    }
}

/// One rewardable recording: the VP, the owner's secret `Q_u`, and the
/// video chunks whose cascaded hashes the VDs commit to.
pub struct Recording {
    /// The stored VP (minute 0; index 0 of a [`reward_world`] is trusted).
    pub vp: StoredVp,
    /// Ownership secret for `claim_reward`.
    pub secret: [u8; 8],
    /// 60 one-second video chunks (synthetic dashcam frames).
    pub chunks: Vec<Vec<u8>>,
}

/// Build `n` independent recordings for the reward scenarios: each is a
/// real `VpBuilder` cascade over synthetic dashcam frames from the
/// vision crate, so solicited uploads validate end to end.
pub fn reward_world(n: usize, seed: u64) -> Vec<Recording> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E_4A_11);
    (0..n)
        .map(|i| {
            let scene = SyntheticScene::generate(&mut rng, 64, 48, 2);
            let origin = GeoPos::new(100.0 + i as f64 * 500.0, 200.0);
            let mut b = VpBuilder::new(&mut rng, 0, origin, VpKind::Actual);
            let mut chunks = Vec::with_capacity(SECONDS_PER_VP as usize);
            for s in 0..SECONDS_PER_VP {
                // Per-second frame: the scene with a rolling exposure
                // tweak, so every chunk (and hence VD hash) differs.
                let mut data = scene.frame.data.clone();
                for px in data.iter_mut().skip(s as usize % 7) {
                    *px = px.wrapping_add(s as u8);
                }
                let pos = GeoPos::new(origin.x + s as f64 * 8.0, origin.y);
                b.record_second(&data, pos);
                chunks.push(data);
            }
            let fin = b.finalize();
            let mut vp = fin.profile.into_stored();
            vp.trusted = i == 0;
            Recording {
                vp,
                secret: fin.secret,
                chunks,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_world_is_deterministic_and_anchored() {
        let cfg = SimConfig::rush_hour(10, 2);
        let a = sim_world(&cfg, 7);
        let b = sim_world(&cfg, 7);
        assert_eq!(a.minutes.len(), 2);
        for (ma, mb) in a.minutes.iter().zip(&b.minutes) {
            assert_eq!(ma.vps.len(), mb.vps.len());
            assert!(ma.vps[0].trusted && ma.vps[1..].iter().all(|vp| !vp.trusted));
            for (x, y) in ma.vps.iter().zip(&mb.vps) {
                assert_eq!(x.id, y.id, "same seed, same world");
            }
        }
    }

    #[test]
    fn attack_world_fakes_link_only_to_colluders() {
        let world = attack_world(
            &AttackSpec {
                vehicles: 20,
                n_attackers: 2,
                attacker_hops: (2, 4),
                fakes: 15,
                aim_at_site: false,
            },
            11,
        );
        assert_eq!(world.fake_ids.len(), 15);
        assert!(!world.attacker_ids.is_empty());
        // Fake blooms must never reference an honest VP outside the
        // colluding set: check via the engine's own two-way link test.
        let arcs: Vec<std::sync::Arc<StoredVp>> =
            world.vps.iter().cloned().map(std::sync::Arc::new).collect();
        let vm = viewmap_core::viewmap::Viewmap::build(
            &arcs,
            world.wide_site,
            viewmap_core::types::MinuteId(0),
            &viewmap_core::viewmap::ViewmapConfig::default(),
        );
        let controlled: HashSet<VpId> =
            world.fake_ids.union(&world.attacker_ids).copied().collect();
        for (i, vp) in vm.vps.iter().enumerate() {
            if world.fake_ids.contains(&vp.id) {
                for &j in &vm.adj[i] {
                    assert!(
                        controlled.contains(&vm.vps[j].id),
                        "fake linked to an honest VP"
                    );
                }
            }
        }
    }

    #[test]
    fn reward_world_chunks_validate() {
        let recs = reward_world(2, 3);
        assert!(recs[0].vp.trusted && !recs[1].vp.trusted);
        for rec in &recs {
            let upload = viewmap_core::solicit::VideoUpload {
                vp_id: rec.vp.id,
                chunks: rec.chunks.clone(),
            };
            viewmap_core::solicit::validate_upload(&rec.vp, &upload)
                .expect("recorded chunks must validate against the cascade");
            assert_eq!(VpId::from_secret(&rec.secret), rec.vp.id);
        }
    }
}
