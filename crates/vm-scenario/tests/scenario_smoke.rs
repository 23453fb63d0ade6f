//! Debug-profile smoke: every catalog row at a few seeds (CI sweeps 25
//! per row in release through the binary), so `cargo test --workspace`
//! covers the whole world × profile cross product that exists.

use vm_scenario::{run_seed, Scenario};

#[test]
fn every_catalog_row_passes_three_seeds() {
    for scenario in Scenario::all() {
        for seed in 0..3u64 {
            if let Err(e) = run_seed(scenario, seed) {
                panic!("{e}");
            }
        }
    }
}
