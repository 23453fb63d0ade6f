//! The rig's own contract: the oracle checker can fail (and says what
//! diverged first), a failure report carries the repro line and a
//! telemetry snapshot, and two runs of one `(scenario, seed)` inside
//! one process never share a store directory.

use std::sync::Barrier;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::viewmap::Site;
use vm_bench::worlds::linked_minute;
use vm_vopr::rig::{
    anchor, build_oracle, check_equivalence, run_reported, Assertions, Cell, FaultProfile, World,
};

fn world() -> World {
    World {
        minutes: (0..2)
            .map(|m| (MinuteId(m), linked_minute(6, m, 99)))
            .collect(),
        site: Site {
            center: GeoPos::new(400.0, 15.0),
            radius_m: 100_000.0,
        },
    }
}

/// `check_equivalence` of a server fed `world` against an oracle fed
/// `world` after `mutate`.
fn check_against(mutate: impl FnOnce(&mut World)) -> Result<(), String> {
    let world = world();
    let srv: ViewMapServer = build_oracle(&world.minutes)?;
    let mut skewed = world.clone();
    mutate(&mut skewed);
    let oracle = build_oracle(&skewed.minutes)?;
    let asserts = Assertions::full(world.site);
    check_equivalence(&srv, &oracle, &world.minute_ids(), asserts, "probe")
}

#[test]
fn identical_histories_are_equivalent() {
    check_against(|_| {}).expect("same history, same system");
}

#[test]
fn an_oracle_one_vp_short_fails_on_the_total() {
    let err = check_against(|w| {
        w.minutes[1].1.pop();
    })
    .expect_err("a missing VP must be noticed");
    assert!(err.contains("probe: total 12 != oracle 11"), "{err}");
}

#[test]
fn two_vps_swapped_within_a_minute_fail_on_bucket_order() {
    let err = check_against(|w| w.minutes[0].1.swap(2, 3)).expect_err("order must be noticed");
    assert!(
        err.contains("bucket order diverged at MinuteId(0)"),
        "{err}"
    );
}

#[test]
fn a_flipped_trusted_flag_fails_on_the_state_digest() {
    let err = check_against(|w| w.minutes[1].1[4].trusted = true)
        .expect_err("a trust anchor the server lacks must be noticed");
    assert!(err.contains("state digest diverged"), "{err}");
}

#[test]
fn failure_report_carries_repro_line_and_snapshot() {
    let err = run_reported("vm-vopr", "crash-loop", 7, |rig| -> Result<(), String> {
        let cell = Cell::start(rig, &FaultProfile::NONE)?;
        anchor(cell.srv(), &world(), true)?;
        Err("boom".into())
    })
    .expect_err("the run fails by construction");
    assert!(
        err.starts_with("[scenario=crash-loop seed=7] boom"),
        "{err}"
    );
    assert!(
        err.contains("cargo run --release -p vm-vopr -- --scenario crash-loop --seed 7"),
        "{err}"
    );
    let (_, snapshot) = err
        .split_once("--- metrics snapshot at failure ---\n")
        .expect("snapshot section present");
    let (snapshot, journal) = snapshot
        .split_once("--- journal tail ---\n")
        .expect("journal section present");
    assert!(
        snapshot.contains("vm_core_vps_stored_total"),
        "snapshot section is empty: {err}"
    );
    assert!(!journal.is_empty(), "journal section is empty: {err}");
}

#[test]
fn same_scenario_and_seed_run_concurrently_in_one_process() {
    // Both rigs are alive — stores open, anchors on disk — at the same
    // moment: a directory keyed on (scenario, seed, pid) alone would
    // have the second `remove_dir_all` the first one's live WAL.
    let line = Barrier::new(2);
    let run = || {
        run_reported("vm-vopr", "baseline", 3, |rig| {
            // Reach both lines even on failure, or the other rig hangs.
            let started = Cell::start(rig, &FaultProfile::NONE).and_then(|cell| {
                anchor(cell.srv(), &world(), true)?;
                Ok(cell)
            });
            line.wait();
            let reopened = started.and_then(|mut cell| {
                cell.shutdown()?;
                cell.open(rig)
            });
            line.wait();
            Ok((rig.dir().to_path_buf(), reopened?.records))
        })
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(run);
        (run(), other.join().expect("no panic"))
    });
    let (dir_a, replayed_a) = a.expect("first rig");
    let (dir_b, replayed_b) = b.expect("second rig");
    assert_ne!(dir_a, dir_b, "two live rigs share a directory");
    assert_eq!((replayed_a, replayed_b), (2, 2), "each kept its own WAL");
}
