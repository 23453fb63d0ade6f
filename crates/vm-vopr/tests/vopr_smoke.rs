//! Debug-profile smoke: every catalog row at a few seeds (CI sweeps
//! hundreds per row in release through the binary), plus the
//! determinism pin for a direct-connection row, whose whole fault plan
//! — not just the injection schedule — must replay bit-identically from
//! the seed.

use vm_vopr::{run_seed, Scenario};

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

/// Direct-connection scenarios have no wire nondeterminism at all: the
/// same seed must produce the same report, counter for counter.
#[test]
fn crash_loop_reports_are_deterministic() {
    let a = run_seed(Scenario::CrashLoop, 7).expect("seed 7 passes");
    let b = run_seed(Scenario::CrashLoop, 7).expect("seed 7 passes again");
    assert_eq!(a, b, "identical seed, identical run");
    assert!(a.crashes >= 2, "crash-loop injects several crashes");
}
