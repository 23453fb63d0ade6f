//! Property tests for the IDM law and the traffic simulation.
//!
//! The city rows of the `vm-vopr` simulator lean on three behaviors the
//! unit suite only spot-checks: the IDM never produces unbounded or
//! non-finite accelerations, a seeded simulation is bit-deterministic
//! no matter where it runs (the whole seeded-repro story depends on
//! it), and the figure labels the bench output embeds are stable.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vm_geo::{CityParams, Point, RoadNetwork};
use vm_mobility::{IdmParams, MobilityConfig, SpeedScenario, TrafficSim};

/// One seeded trace: positions and speeds after every step.
fn trace(net_seed: u64, sim_seed: u64, vehicles: usize, secs: usize) -> Vec<Vec<(Point, f64)>> {
    let mut nrng = StdRng::seed_from_u64(net_seed);
    let net = RoadNetwork::synthetic_city(&CityParams::small_area(), &mut nrng);
    let mut rng = StdRng::seed_from_u64(sim_seed);
    let mut sim = TrafficSim::new(&net, MobilityConfig::small(vehicles), &mut rng);
    let mut out = Vec::with_capacity(secs);
    for _ in 0..secs {
        sim.step(&mut rng);
        out.push(sim.states().into_iter().map(|s| (s.pos, s.speed)).collect());
    }
    out
}

proptest! {
    /// IDM acceleration is finite and never exceeds `a_max` (the free
    /// term is at most 1 and the interaction term only subtracts), for
    /// any speed, desired speed, and leader situation.
    #[test]
    fn idm_acceleration_is_bounded(
        v in 0.0f64..50.0,
        v0 in 0.5f64..50.0,
        gap in 0.05f64..600.0,
        v_leader in 0.0f64..50.0,
    ) {
        let idm = IdmParams::default();
        for leader in [None, Some((gap, v_leader))] {
            let a = idm.acceleration(v, v0, leader);
            prop_assert!(a.is_finite(), "accel must be finite: {a}");
            prop_assert!(
                a <= idm.a_max + 1e-12,
                "accel {a} exceeds a_max {}",
                idm.a_max
            );
        }
        // A leader can only ever reduce the acceleration.
        let free = idm.acceleration(v, v0, None);
        let following = idm.acceleration(v, v0, Some((gap, v_leader)));
        prop_assert!(following <= free + 1e-12, "{following} > free {free}");
    }

    /// Free-road sign: below the desired speed the IDM accelerates,
    /// above it the IDM brakes.
    #[test]
    fn idm_free_road_tracks_desired_speed(v0 in 1.0f64..40.0, frac in 0.05f64..3.0) {
        let idm = IdmParams::default();
        let v = v0 * frac;
        let a = idm.acceleration(v, v0, None);
        if frac < 1.0 {
            prop_assert!(a > 0.0, "below v0 must accelerate: {a}");
        } else if frac > 1.0 {
            prop_assert!(a < 0.0, "above v0 must brake: {a}");
        }
    }

    /// Inside the minimum bumper gap `s0` the model always brakes, at
    /// any speed: `s*/gap > 1` dominates the free term.
    #[test]
    fn idm_brakes_inside_minimum_gap(
        v in 0.0f64..40.0,
        v0 in 1.0f64..40.0,
        gap_frac in 0.05f64..0.95,
        v_leader in 0.0f64..40.0,
    ) {
        let idm = IdmParams::default();
        let gap = idm.s0 * gap_frac;
        let a = idm.acceleration(v, v0, Some((gap, v_leader)));
        prop_assert!(a < 0.0, "gap {gap} < s0 {} must brake: {a}", idm.s0);
    }

    /// Per-second straight-line displacement never exceeds the clamped
    /// speed ceiling (`desired * 1.2` m in one second): no teleports,
    /// for arbitrary worlds.
    #[test]
    fn displacement_bounded_by_speed_ceiling(net_seed in 0u64..50, sim_seed in 0u64..50) {
        let mut nrng = StdRng::seed_from_u64(net_seed);
        let net = RoadNetwork::synthetic_city(&CityParams::small_area(), &mut nrng);
        let mut rng = StdRng::seed_from_u64(sim_seed);
        let mut sim = TrafficSim::new(&net, MobilityConfig::small(15), &mut rng);
        for _ in 0..10 {
            let before = sim.positions();
            sim.step(&mut rng);
            let after = sim.states();
            for (a, s) in before.iter().zip(&after) {
                let ceiling = s.desired_speed * 1.2 + 1e-9;
                prop_assert!(
                    a.distance(&s.pos) <= ceiling,
                    "moved {} m in 1 s, ceiling {ceiling}",
                    a.distance(&s.pos)
                );
            }
        }
    }

    /// Label stability: repro lines and bench columns embed these.
    #[test]
    fn labels_are_stable(v in 1.0f64..200.0) {
        prop_assert_eq!(SpeedScenario::Fixed(v).label(), format!("{v:.0}km/h"));
        prop_assert_eq!(SpeedScenario::Mix.label(), "Mix");
    }
}

/// The same `(net_seed, sim_seed)` replayed on the main thread and on
/// worker threads — at two different concurrency levels — produces the
/// identical trace down to the `f64` bits. The scenario harness's
/// `--seed` repro lines are only honest if this holds.
#[test]
fn step_trace_is_deterministic_across_thread_counts() {
    let reference = trace(3, 17, 12, 20);
    for threads in [2usize, 8] {
        let handles: Vec<_> = (0..threads)
            .map(|_| std::thread::spawn(|| trace(3, 17, 12, 20)))
            .collect();
        for h in handles {
            let got = h.join().expect("trace thread panicked");
            assert_eq!(reference.len(), got.len());
            for (step, (a, b)) in reference.iter().zip(&got).enumerate() {
                for (va, vb) in a.iter().zip(b) {
                    assert!(
                        va.0.x.to_bits() == vb.0.x.to_bits()
                            && va.0.y.to_bits() == vb.0.y.to_bits()
                            && va.1.to_bits() == vb.1.to_bits(),
                        "trace diverged at step {step}: {va:?} vs {vb:?}"
                    );
                }
            }
        }
    }
}

/// Distinct seeds actually change the world (the determinism test
/// above would pass vacuously if the seed were ignored).
#[test]
fn distinct_seeds_produce_distinct_traces() {
    let a = trace(3, 17, 12, 5);
    let b = trace(3, 18, 12, 5);
    assert!(
        a.iter()
            .zip(&b)
            .any(|(x, y)| x.iter().zip(y).any(|(p, q)| p.0.distance(&q.0) > 1.0)),
        "different sim seeds must yield different traffic"
    );
}
