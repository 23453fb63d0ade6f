//! Traffic-trace experiments (Figs. 21, 22c, 22d, 22e, 22f).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use viewmap_core::attack::{AttackConfig, SyntheticViewmap};
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use vm_geo::CityParams;
use vm_mobility::SpeedScenario;
use vm_radio::Environment;
use vm_sim::{run_protocol_sim, SimConfig, SimOutput};

/// A traffic-derived simulation keeping full VPs, sized by `vehicles` and
/// `minutes`.
pub fn traffic_run(vehicles: usize, minutes: u64, speed: SpeedScenario, seed: u64) -> SimOutput {
    let cfg = SimConfig {
        vehicles,
        minutes,
        speed,
        alpha: 0.1,
        environment: Environment::downtown(),
        city: CityParams::seoul_like(),
        keep_vps: true,
        chunk_bytes: 16,
    };
    run_protocol_sim(&cfg, seed)
}

/// Fig. 22c: average contact time per speed scenario.
pub fn contact_times(vehicles: usize, minutes: u64) -> Vec<(String, f64)> {
    let scenarios = [
        SpeedScenario::Fixed(30.0),
        SpeedScenario::Fixed(50.0),
        SpeedScenario::Fixed(70.0),
        SpeedScenario::Mix,
    ];
    scenarios
        .iter()
        .map(|&s| {
            let cfg = SimConfig {
                vehicles,
                minutes,
                speed: s,
                alpha: 0.0, // guards don't affect contacts; skip the cost
                environment: Environment::downtown(),
                city: CityParams::seoul_like(),
                keep_vps: false,
                chunk_bytes: 16,
            };
            let out = run_protocol_sim(&cfg, 22);
            (s.label(), out.avg_contact_s)
        })
        .collect()
}

/// Build a per-minute viewmap over the whole simulated area from a traffic
/// run (vehicle 0's actual VP doubles as the trusted seed).
pub fn traffic_viewmap(out: &SimOutput, minute: usize) -> Viewmap {
    let record = &out.minutes[minute];
    let mut vps = record.vps.clone().expect("traffic_run keeps VPs");
    vps[record.actual_idx[0]].trusted = true;
    let site = Site {
        center: GeoPos::new(4000.0, 4000.0),
        radius_m: 40_000.0, // cover everything: study the whole graph
    };
    let arcs: Vec<Arc<_>> = vps.into_iter().map(Arc::new).collect();
    Viewmap::build(
        &arcs,
        site,
        MinuteId(minute as u64),
        &ViewmapConfig::default(),
    )
}

/// Fig. 22f: percentage of viewmap member VPs with at least one viewlink,
/// per speed scenario.
pub fn membership_percentages(vehicles: usize, minutes: u64) -> Vec<(String, f64)> {
    let scenarios = [
        SpeedScenario::Fixed(30.0),
        SpeedScenario::Fixed(50.0),
        SpeedScenario::Fixed(70.0),
        SpeedScenario::Mix,
    ];
    scenarios
        .iter()
        .map(|&s| {
            let out = traffic_run(vehicles, minutes, s, 31);
            let vm = traffic_viewmap(&out, minutes as usize - 1);
            (s.label(), vm.member_connectivity() * 100.0)
        })
        .collect()
}

/// Convert a traffic-derived viewmap into the attack testbed form
/// (positions = VP start locations, all ground-truth legitimate), with a
/// site placed on a random member VP's trajectory.
pub fn to_attack_map(vm: &Viewmap, site_radius_m: f64, rng: &mut StdRng) -> SyntheticViewmap {
    let pos: Vec<GeoPos> = vm.vps.iter().map(|vp| vp.start_loc()).collect();
    // Site on a random non-trusted member's position.
    let candidates: Vec<usize> = (0..vm.vps.len()).filter(|i| !vm.vps[*i].trusted).collect();
    let center = pos[candidates[rng.gen_range(0..candidates.len())]];
    SyntheticViewmap {
        adj: crate::oracle::adjacency_lists(&vm.graph),
        pos,
        legit: vec![true; vm.vps.len()],
        trusted: vm.trusted.first().copied().unwrap_or(0),
        site_center: center,
        site_radius_m,
    }
}

/// Figs. 22d/22e: verification accuracy on traffic-derived viewmaps.
pub fn traffic_accuracy(vm: &Viewmap, attack: &AttackConfig, runs: usize, seed: u64) -> f64 {
    let mut ok = 0usize;
    let mut done = 0usize;
    let mut r = 0u64;
    while done < runs {
        let mut rng = StdRng::seed_from_u64(seed + r);
        r += 1;
        let mut map = to_attack_map(vm, 200.0, &mut rng);
        let site = map.site_members();
        if site.is_empty() || !site.iter().any(|&i| map.legit[i]) {
            continue; // empty site: re-draw (incidents have witnesses)
        }
        map.inject_attack(attack, &mut rng);
        if map.run_verification().success {
            ok += 1;
        }
        done += 1;
        if r > runs as u64 * 20 {
            break; // safety against degenerate maps
        }
    }
    if done == 0 {
        return 0.0;
    }
    ok as f64 / done as f64
}

/// Fig. 21: render the viewmap's viewlink density as an ASCII grid.
pub fn render_ascii(vm: &Viewmap, cols: usize, rows: usize, extent_m: f64) -> String {
    let mut counts = vec![0usize; cols * rows];
    for i in 0..vm.len() {
        for &j in vm.graph.neighbors(i) {
            let j = j as usize;
            if j < i {
                continue;
            }
            let a = vm.vps[i].start_loc();
            let b = vm.vps[j].start_loc();
            let mx = ((a.x + b.x) / 2.0 / extent_m * cols as f64) as usize;
            let my = ((a.y + b.y) / 2.0 / extent_m * rows as f64) as usize;
            if mx < cols && my < rows {
                counts[my * cols + mx] += 1;
            }
        }
    }
    let glyphs = [' ', '.', ':', '+', '*', '#'];
    let mut out = String::new();
    for row in (0..rows).rev() {
        for col in 0..cols {
            let c = counts[row * cols + col];
            let g = glyphs[c.min(glyphs.len() - 1)];
            out.push(g);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_viewmap_has_edges() {
        let out = traffic_run(80, 2, SpeedScenario::Fixed(50.0), 5);
        let vm = traffic_viewmap(&out, 1);
        assert!(vm.len() >= 80);
        assert!(vm.edge_count() > 0, "traffic viewmap should have links");
        assert!(vm.member_connectivity() > 0.3);
    }

    #[test]
    fn ascii_render_is_shaped() {
        let out = traffic_run(60, 1, SpeedScenario::Mix, 6);
        let vm = traffic_viewmap(&out, 0);
        let art = render_ascii(&vm, 40, 12, 8000.0);
        assert_eq!(art.lines().count(), 12);
        assert!(art.lines().all(|l| l.chars().count() == 40));
    }
}
