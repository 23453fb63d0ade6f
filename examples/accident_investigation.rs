//! Accident investigation at city scale (the paper's Section 3.1 use
//! case, driven end-to-end through the simulation substrate).
//!
//! Simulates a fleet over a synthetic city for several minutes, injects a
//! police car's trusted VPs, picks an incident at a busy location, builds
//! the per-minute viewmap, runs TrustRank verification, and reports which
//! anonymous VPs would be solicited for their videos.
//!
//! Run with: `cargo run --release --example accident_investigation`

use std::sync::Arc;
use viewmap::core::types::{GeoPos, MinuteId};
use viewmap::core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap::geo::CityParams;
use viewmap::mobility::SpeedScenario;
use viewmap::radio::Environment;
use viewmap::sim::{run_protocol_sim, SimConfig};

fn main() {
    println!("== accident investigation example ==\n");
    let cfg = SimConfig {
        vehicles: 60,
        minutes: 3,
        speed: SpeedScenario::Fixed(50.0),
        alpha: 0.1,
        environment: Environment::residential(),
        city: CityParams {
            width_m: 2000.0,
            height_m: 2000.0,
            block_m: 200.0,
            jitter: 0.15,
            keep_link_prob: 0.94,
            diagonals: 2,
        },
        keep_vps: true,
        chunk_bytes: 32,
    };
    println!(
        "simulating {} vehicles for {} minutes (α = {}) ...",
        cfg.vehicles, cfg.minutes, cfg.alpha
    );
    let out = run_protocol_sim(&cfg, 20170327);
    println!(
        "→ {} actual VPs, {} guard VPs, avg contact {:.1} s\n",
        out.actual_vps, out.guard_vps, out.avg_contact_s
    );

    // Investigate minute 1. The "police car" is vehicle 0: its actual VP
    // becomes the trusted seed (authorities submit through their own
    // channel, Section 4).
    let minute = 1usize;
    let record = &out.minutes[minute];
    let mut vps = record.vps.clone().expect("keep_vps was set");
    let police_idx = record.actual_idx[0];
    vps[police_idx].trusted = true;

    // Incident: where the densest cluster of vehicles was (a plausible
    // multi-witness crash site) — here simply vehicle 7's mid-minute
    // position.
    let incident = {
        let s = record.tracker.starts[record.actual_idx[7]];
        let e = record.tracker.ends[record.actual_idx[7]];
        GeoPos::new((s.x + e.x) / 2.0, (s.y + e.y) / 2.0)
    };
    let site = Site {
        center: incident,
        radius_m: 200.0,
    };
    println!(
        "incident at ({:.0} m, {:.0} m), site radius {} m; trusted VP is {:.0} m away",
        incident.x,
        incident.y,
        site.radius_m,
        record.tracker.starts[police_idx].distance(&incident)
    );

    let cfg_vm = ViewmapConfig::default();
    let arcs: Vec<Arc<_>> = vps.into_iter().map(Arc::new).collect();
    let vm = Viewmap::build(&arcs, site, MinuteId(minute as u64), &cfg_vm);
    println!(
        "viewmap for minute {}: {} members, {} viewlinks, connectivity {:.0}%",
        minute,
        vm.len(),
        vm.edge_count(),
        vm.member_connectivity() * 100.0
    );

    let (verification, solicited, _) = vm.verify_counted(&site, &cfg_vm);
    println!(
        "site members: {}, marked legitimate: {}",
        vm.site_members(&site).len(),
        solicited.len()
    );
    match verification.top {
        Some(top) => println!(
            "highest-trust site VP: index {top}, score {:.3e}",
            verification.scores[top]
        ),
        None => println!("no VP inside the site this minute"),
    }
    println!(
        "\nsolicitation board would post {} VP id(s):",
        solicited.len()
    );
    for id in solicited.iter().take(8) {
        println!("  request-for-video {id}");
    }
    if solicited.len() > 8 {
        println!("  ... and {} more", solicited.len() - 8);
    }
    println!("\nNote: owners of *actual* VPs among these will upload their");
    println!("videos; guard VPs on the list were deleted on the vehicles");
    println!("and simply never answer (Section 5.1.2, footnote 2).");
}
