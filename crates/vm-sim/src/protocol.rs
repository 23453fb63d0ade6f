//! The per-second protocol simulation.
//!
//! Every simulated second, each vehicle extends its cascaded digest chain
//! and broadcasts the resulting VD; the DSRC channel decides which
//! neighbors receive it (geometric line of sight through the building
//! field, per-minute vehicle-obstruction and slow-shadowing states per
//! pair). On each minute boundary every vehicle finalizes its VP,
//! fabricates ⌈α·m⌉ guard VPs via the road router, and uploads everything
//! through the anonymity channel.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use viewmap_core::guard::{create_guards, GuardConfig};
use viewmap_core::tracker::MinuteVps;
use viewmap_core::upload::AnonymousChannel;
use viewmap_core::vp::{StoredVp, VpBuilder, VpKind};
use vm_geo::{BuildingIndex, CityParams, Rect, RoadNetwork, Router};
use vm_mobility::{MobilityConfig, SpeedScenario, TrafficSim};
use vm_radio::{Blockage, Channel, Environment};

/// Configuration of one protocol simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of vehicles.
    pub vehicles: usize,
    /// Simulated minutes.
    pub minutes: u64,
    /// Speed scenario (Section 8 sweeps 30/50/70/mix km/h).
    pub speed: SpeedScenario,
    /// Guard-VP rate α (0.0 disables guard VPs — the paper's reference
    /// curves).
    pub alpha: f64,
    /// Radio environment (buildings + traffic obstruction).
    pub environment: Environment,
    /// Road-network generator parameters.
    pub city: CityParams,
    /// Retain full `StoredVp` sets per minute (needed for viewmap
    /// experiments; costs memory).
    pub keep_vps: bool,
    /// Synthetic per-second video chunk size in bytes. Real dashcams write
    /// ~875 KB/s; hashing treats bytes as opaque so small chunks keep the
    /// simulation fast without changing protocol behavior.
    pub chunk_bytes: usize,
}

impl SimConfig {
    /// Section 6 small-scale privacy setting: n vehicles in 4×4 km².
    pub fn small(vehicles: usize, minutes: u64) -> Self {
        SimConfig {
            vehicles,
            minutes,
            speed: SpeedScenario::Mix,
            alpha: 0.1,
            environment: Environment::residential(),
            city: CityParams::small_area(),
            keep_vps: false,
            chunk_bytes: 32,
        }
    }

    /// Rush hour: a dense platoon crawling through downtown. Many
    /// vehicles in a small area at low fixed speed maximizes mutual
    /// witnessing and therefore viewmap edge count.
    pub fn rush_hour(vehicles: usize, minutes: u64) -> Self {
        SimConfig {
            vehicles,
            minutes,
            speed: SpeedScenario::Fixed(25.0),
            alpha: 0.1,
            environment: Environment::downtown(),
            city: CityParams {
                width_m: 1_600.0,
                height_m: 1_600.0,
                block_m: 200.0,
                jitter: 0.15,
                keep_link_prob: 0.95,
                diagonals: 1,
            },
            keep_vps: true,
            chunk_bytes: 32,
        }
    }

    /// Rural sparse: few vehicles scattered over long country blocks —
    /// linkage starvation, so guard VPs carry most of the anonymity set.
    pub fn rural_sparse(vehicles: usize, minutes: u64) -> Self {
        SimConfig {
            vehicles,
            minutes,
            speed: SpeedScenario::Fixed(70.0),
            alpha: 0.1,
            environment: Environment::rural(),
            city: CityParams::rural(),
            keep_vps: true,
            chunk_bytes: 32,
        }
    }

    /// Section 8 large-scale setting: 1000 vehicles in 8×8 km².
    pub fn large(speed: SpeedScenario, minutes: u64) -> Self {
        SimConfig {
            vehicles: 1000,
            minutes,
            speed,
            alpha: 0.1,
            environment: Environment::downtown(),
            city: CityParams::seoul_like(),
            keep_vps: false,
            chunk_bytes: 32,
        }
    }
}

/// Everything recorded about one simulated minute.
#[derive(Clone, Debug)]
pub struct MinuteRecord {
    /// Tracker view: start/end of every uploaded VP (actual + guard),
    /// in upload order.
    pub tracker: MinuteVps,
    /// For each vehicle, the index of its *actual* VP in `tracker`.
    pub actual_idx: Vec<usize>,
    /// Full stored VPs (same indexing as `tracker`) if `keep_vps` was set.
    pub vps: Option<Vec<StoredVp>>,
    /// Number of guard VPs uploaded this minute.
    pub guard_count: usize,
    /// Mean neighbor count over vehicles this minute.
    pub mean_neighbors: f64,
}

/// Output of a protocol simulation run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Per-minute records.
    pub minutes: Vec<MinuteRecord>,
    /// Average LOS contact duration between vehicle pairs, seconds
    /// (Fig. 22c).
    pub avg_contact_s: f64,
    /// Total actual VPs produced.
    pub actual_vps: usize,
    /// Total guard VPs produced.
    pub guard_vps: usize,
}

/// Run the simulation (deterministic for a given seed).
pub fn run_protocol_sim(cfg: &SimConfig, seed: u64) -> SimOutput {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = RoadNetwork::synthetic_city(&cfg.city, &mut rng);
    let (min_b, max_b) = net.bounds();
    let area = Rect::new(min_b, max_b);
    let buildings =
        BuildingIndex::generate(area, cfg.city.block_m, &cfg.environment.buildings, &mut rng);
    let channel = Channel::default();
    let mobility = MobilityConfig {
        vehicles: cfg.vehicles,
        speed: cfg.speed,
        idm: Default::default(),
    };
    let mut traffic = TrafficSim::new(&net, mobility, &mut rng);
    let router = Router::new(&net);
    let guard_cfg = GuardConfig {
        alpha: cfg.alpha,
        ..GuardConfig::default()
    };

    let n = cfg.vehicles;
    let mut builders: Vec<VpBuilder> = {
        let pos = traffic.positions();
        (0..n)
            .map(|i| VpBuilder::new(&mut rng, 0, pos[i].into(), VpKind::Actual))
            .collect()
    };
    let mut channel_up = AnonymousChannel::new();
    let mut minutes: Vec<MinuteRecord> = Vec::with_capacity(cfg.minutes as usize);

    // Per-pair per-minute channel state.
    let mut pair_state: HashMap<(usize, usize), PairMinute> = HashMap::new();
    // Contact bookkeeping: per pair, current run length of LOS-in-range.
    let mut contact_run: HashMap<(usize, usize), u32> = HashMap::new();
    let mut contact_total = 0u64;
    let mut contact_count = 0u64;
    let mut actual_total = 0usize;
    let mut guard_total = 0usize;

    let max_range = channel.params.max_range_m;
    for minute in 0..cfg.minutes {
        pair_state.clear();
        for sec in 0..60u64 {
            let t_now = minute * 60 + sec + 1;
            traffic.step(&mut rng);
            let pos = traffic.positions();
            // Record + broadcast.
            let mut vds = Vec::with_capacity(n);
            for i in 0..n {
                let chunk = synth_chunk(seed, i, t_now, cfg.chunk_bytes);
                vds.push(builders[i].record_second(&chunk, pos[i].into()));
            }
            // Pairwise delivery within radio range.
            let grid =
                vm_geo::GridIndex::build(max_range, pos.iter().enumerate().map(|(i, p)| (i, *p)));
            let mut in_contact: Vec<(usize, usize)> = Vec::new();
            for i in 0..n {
                for j in grid.query_radius(&pos[i], max_range) {
                    if j <= i {
                        continue;
                    }
                    let d = pos[i].distance(&pos[j]);
                    let los = buildings.line_of_sight(&pos[i], &pos[j]);
                    let key = (i, j);
                    let st = *pair_state.entry(key).or_insert_with(|| PairMinute {
                        veh_blocked: cfg.environment.traffic_blockage > 0.0
                            && rng.gen_bool(cfg.environment.traffic_blockage),
                        slow_los: channel.sample_slow_shadow(&mut rng, Blockage::Los),
                        slow_nlos: channel.sample_slow_shadow(&mut rng, Blockage::Building),
                    });
                    let (blockage, slow) = if !los {
                        (Blockage::Building, st.slow_nlos)
                    } else if st.veh_blocked {
                        (Blockage::Vehicle, st.slow_nlos)
                    } else {
                        (Blockage::Los, st.slow_los)
                    };
                    if channel
                        .try_deliver_with_shadow(&mut rng, d, blockage, slow)
                        .is_some()
                    {
                        let vd = vds[j];
                        builders[i].accept_neighbor_vd(vd, t_now, pos[i].into());
                    }
                    if channel
                        .try_deliver_with_shadow(&mut rng, d, blockage, slow)
                        .is_some()
                    {
                        let vd = vds[i];
                        builders[j].accept_neighbor_vd(vd, t_now, pos[j].into());
                    }
                    if los {
                        in_contact.push(key);
                    }
                }
            }
            // Contact durations: extend runs for pairs in LOS contact,
            // close runs for pairs that dropped out.
            let mut still: HashMap<(usize, usize), u32> = HashMap::with_capacity(in_contact.len());
            for key in in_contact {
                let run = contact_run.remove(&key).unwrap_or(0) + 1;
                still.insert(key, run);
            }
            for (_, run) in contact_run.drain() {
                contact_total += run as u64;
                contact_count += 1;
            }
            contact_run = still;
        }

        // Minute boundary: finalize, fabricate guards, upload.
        let pos = traffic.positions();
        let mut tracker = MinuteVps::default();
        let mut actual_idx = vec![0usize; n];
        let mut minute_vps: Vec<StoredVp> = Vec::new();
        let mut guard_count = 0usize;
        let mut neighbor_sum = 0usize;
        for i in 0..n {
            let next_builder =
                VpBuilder::new(&mut rng, (minute + 1) * 60, pos[i].into(), VpKind::Actual);
            let builder = std::mem::replace(&mut builders[i], next_builder);
            neighbor_sum += builder.neighbor_count();
            let mut fin = builder.finalize();
            let guards = if cfg.alpha > 0.0 {
                create_guards(&mut rng, &mut fin, &router, &guard_cfg)
            } else {
                Vec::new()
            };
            actual_idx[i] = tracker.starts.len();
            push_vp(&mut tracker, &fin.profile);
            if cfg.keep_vps {
                minute_vps.push(fin.profile.clone().into_stored());
            }
            channel_up.enqueue(fin.profile);
            actual_total += 1;
            for g in guards {
                push_vp(&mut tracker, &g);
                if cfg.keep_vps {
                    minute_vps.push(g.clone().into_stored());
                }
                channel_up.enqueue(g);
                guard_count += 1;
                guard_total += 1;
            }
        }
        // The anonymity channel shuffles per batch; experiments index VPs
        // through `tracker`/`actual_idx`, so we just drain it here.
        let _ = channel_up.flush(&mut rng);
        minutes.push(MinuteRecord {
            tracker,
            actual_idx,
            vps: cfg.keep_vps.then_some(minute_vps),
            guard_count,
            mean_neighbors: neighbor_sum as f64 / n as f64,
        });
    }
    // Close any contacts still open.
    for (_, run) in contact_run.drain() {
        contact_total += run as u64;
        contact_count += 1;
    }

    SimOutput {
        minutes,
        avg_contact_s: if contact_count > 0 {
            contact_total as f64 / contact_count as f64
        } else {
            0.0
        },
        actual_vps: actual_total,
        guard_vps: guard_total,
    }
}

/// Per-pair channel state held for one minute (slow fading: obstruction
/// geometry barely changes within a VP window).
#[derive(Clone, Copy, Debug)]
struct PairMinute {
    veh_blocked: bool,
    slow_los: f64,
    slow_nlos: f64,
}

fn push_vp(tracker: &mut MinuteVps, vp: &viewmap_core::vp::ViewProfile) {
    let start = vp.vds.first().expect("vds").loc;
    let end = vp.vds.last().expect("vds").loc;
    tracker.starts.push(start);
    tracker.ends.push(end);
}

/// Deterministic synthetic video chunk for vehicle `i` at time `t`.
fn synth_chunk(seed: u64, vehicle: usize, t: u64, len: usize) -> Vec<u8> {
    let mut state = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(vehicle as u64)
        .wrapping_mul(0xbf58476d1ce4e5b9)
        .wrapping_add(t);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

/// Derived statistics helpers over a [`SimOutput`].
impl SimOutput {
    /// Guard-VP share of all uploads.
    pub fn guard_share(&self) -> f64 {
        let total = self.actual_vps + self.guard_vps;
        if total == 0 {
            0.0
        } else {
            self.guard_vps as f64 / total as f64
        }
    }

    /// Mean VPs uploaded per minute (actual + guard).
    pub fn vps_per_minute(&self) -> f64 {
        if self.minutes.is_empty() {
            return 0.0;
        }
        self.minutes
            .iter()
            .map(|m| m.tracker.len() as f64)
            .sum::<f64>()
            / self.minutes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            vehicles: 12,
            minutes: 2,
            speed: SpeedScenario::Fixed(50.0),
            alpha: 0.1,
            environment: Environment::residential(),
            city: CityParams {
                width_m: 1200.0,
                height_m: 1200.0,
                block_m: 200.0,
                jitter: 0.15,
                keep_link_prob: 0.95,
                diagonals: 1,
            },
            keep_vps: true,
            chunk_bytes: 16,
        }
    }

    #[test]
    fn produces_one_actual_vp_per_vehicle_per_minute() {
        let out = run_protocol_sim(&tiny_cfg(), 1);
        assert_eq!(out.minutes.len(), 2);
        assert_eq!(out.actual_vps, 24);
        for m in &out.minutes {
            assert_eq!(m.actual_idx.len(), 12);
            assert_eq!(m.tracker.len(), 12 + m.guard_count);
            let vps = m.vps.as_ref().expect("keep_vps");
            assert_eq!(vps.len(), m.tracker.len());
            for vp in vps {
                assert_eq!(vp.vds.len(), 60);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = run_protocol_sim(&tiny_cfg(), 7);
        let b = run_protocol_sim(&tiny_cfg(), 7);
        assert_eq!(a.actual_vps, b.actual_vps);
        assert_eq!(a.guard_vps, b.guard_vps);
        assert_eq!(a.avg_contact_s, b.avg_contact_s);
        for (ma, mb) in a.minutes.iter().zip(&b.minutes) {
            assert_eq!(ma.tracker.starts.len(), mb.tracker.starts.len());
            for (sa, sb) in ma.tracker.starts.iter().zip(&mb.tracker.starts) {
                assert_eq!(sa, sb);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_protocol_sim(&tiny_cfg(), 1);
        let b = run_protocol_sim(&tiny_cfg(), 2);
        let sa: Vec<_> = a.minutes[0].tracker.starts.clone();
        let sb: Vec<_> = b.minutes[0].tracker.starts.clone();
        assert!(sa.iter().zip(&sb).any(|(x, y)| x != y));
    }

    #[test]
    fn guards_appear_when_vehicles_meet() {
        let out = run_protocol_sim(&tiny_cfg(), 3);
        // 12 vehicles in 1.2 km² will meet; α=0.1 → at least one guard.
        assert!(out.guard_vps > 0, "no guards produced");
        assert!(out.guard_share() > 0.0 && out.guard_share() < 0.9);
    }

    #[test]
    fn alpha_zero_produces_no_guards() {
        let cfg = SimConfig {
            alpha: 0.0,
            ..tiny_cfg()
        };
        let out = run_protocol_sim(&cfg, 4);
        assert_eq!(out.guard_vps, 0);
        for m in &out.minutes {
            assert_eq!(m.guard_count, 0);
            assert_eq!(m.tracker.len(), cfg.vehicles);
        }
    }

    #[test]
    fn vehicle_chain_is_continuous() {
        let out = run_protocol_sim(&tiny_cfg(), 5);
        // Consecutive actual VPs of a vehicle start near where the
        // previous minute ended (continuous driving).
        for v in 0..3 {
            for w in out.minutes.windows(2) {
                let prev_end = w[0].tracker.ends[w[0].actual_idx[v]];
                let next_start = w[1].tracker.starts[w[1].actual_idx[v]];
                let gap = prev_end.distance(&next_start);
                assert!(gap < 25.0, "vehicle {v} teleported {gap} m");
            }
        }
    }

    #[test]
    fn contact_time_is_positive_and_bounded() {
        let out = run_protocol_sim(&tiny_cfg(), 6);
        assert!(out.avg_contact_s > 0.0);
        assert!(out.avg_contact_s < 120.0, "contact {}", out.avg_contact_s);
    }

    #[test]
    fn stored_vps_link_when_exchanged() {
        let out = run_protocol_sim(&tiny_cfg(), 8);
        let vps = out.minutes[0].vps.as_ref().unwrap();
        // There should exist at least one mutually linked pair among the
        // actual VPs (dense tiny world).
        let n = out.minutes[0].actual_idx.len();
        let mut linked = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = &vps[out.minutes[0].actual_idx[i]];
                let b = &vps[out.minutes[0].actual_idx[j]];
                if a.mutually_linked(b) {
                    linked += 1;
                }
            }
        }
        assert!(linked > 0, "no linked VP pairs in a dense scenario");
    }
}
