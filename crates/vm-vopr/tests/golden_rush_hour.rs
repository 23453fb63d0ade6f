//! Golden pin for the rush-hour world: seed 42 must reproduce this
//! exact topology forever. Any drift in the mobility model, the radio
//! witnessing, the sim protocol rounds, or the viewmap engine shows up
//! here as a diff against three constants.
//!
//! Release-only: the IDM sim under debug assertions is slow enough to
//! drag the default `cargo test` run (the threaded release CI matrix
//! picks it up automatically).

use viewmap_core::types::MinuteId;
use viewmap_core::viewmap::{Viewmap, ViewmapConfig};
use vm_bench::oracle::viewmap_checksum;
use vm_sim::SimConfig;
use vm_vopr::world::sim_world;

/// Pinned from a release run of `sim_world(rush_hour(12, 1), 42)`.
/// If a deliberate sim/engine change moves these, re-pin with:
/// `cargo test --release -p vm-vopr --test golden_rush_hour -- --nocapture`
const GOLDEN_MEMBERS: usize = 22;
const GOLDEN_EDGES: usize = 25;
const GOLDEN_CHECKSUM: u64 = 0x177f_08e5_022b_ccee;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "golden topology pin is release-only (debug sim is slow)"
)]
fn rush_hour_seed_42_topology_is_pinned() {
    let cfg = SimConfig::rush_hour(12, 1);
    let world = sim_world(&cfg, 42);
    assert_eq!(world.minutes.len(), 1);
    let arcs: Vec<std::sync::Arc<_>> = world.minutes[0]
        .vps
        .iter()
        .cloned()
        .map(std::sync::Arc::new)
        .collect();
    let vm = Viewmap::build(&arcs, world.site, MinuteId(0), &ViewmapConfig::default());
    let checksum = viewmap_checksum(&vm);
    println!(
        "golden rush-hour(12,1) seed 42: members={} edges={} checksum={:#018x}",
        vm.len(),
        vm.edge_count(),
        checksum
    );
    assert_eq!(vm.len(), GOLDEN_MEMBERS, "member count drifted");
    assert_eq!(vm.edge_count(), GOLDEN_EDGES, "edge count drifted");
    assert_eq!(checksum, GOLDEN_CHECKSUM, "viewmap checksum drifted");
}
