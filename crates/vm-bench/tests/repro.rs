//! `repro` is the same 24 experiments the 24 per-figure binaries were.
//!
//! [`PINNED`] was recorded from those binaries (the commit before they
//! were folded into `repro`) at `VM_SCALE=0.05`: every experiment is
//! seeded, so its stdout is a constant of the code. A digest that moves
//! means an experiment's *result* moved — look at the CSV before
//! re-recording it.

use std::process::{Command, Output};

/// `(name, stdout lines, digest)` in table order. The digest is over the
/// whole stdout, except for the [`TIMED`] experiments, where it is over
/// the title and CSV header lines only.
const PINNED: [(&str, usize, u64); 24] = [
    ("fig8_hashing", 10, 0x4898878ad72c07d2),
    ("fig9_vp_volume", 12, 0x708bef148d618cfc),
    ("fig10_entropy", 10, 0x1875520a605f9397),
    ("fig11_tracking", 10, 0xe495a77c843e7be3),
    ("fig12_verification_position", 28, 0x663dfea951451a68),
    ("fig13_verification_dummy", 28, 0x3bb6ee5d77098844),
    ("fig14_false_linkage", 25, 0xfbde03741fd50d5d),
    ("fig15_vlr_env", 19, 0x5f8b256eba8f5d76),
    ("fig16_rssi_pdr", 51, 0x55e4496047a52577),
    ("fig17_vlr_speed", 19, 0x50283065cc6c04ca),
    ("fig20_correlation", 11, 0xfb7493c5bb7441a6),
    ("fig21_viewmap_render", 53, 0xf5687da38d02689c),
    ("fig22a_entropy", 8, 0xafdba1c6cb46c994),
    ("fig22b_tracking", 8, 0xdacf744ea400762e),
    ("fig22c_contact", 7, 0xa1679b5d565665a1),
    ("fig22d_accuracy_position", 28, 0xc9febb0042c8732c),
    ("fig22e_concentration", 28, 0xfe0ada80434ee7d3),
    ("fig22f_membership", 7, 0xf58dca57f8ce3447),
    ("table1_blurring", 6, 0x39d1bd8a22693ead),
    ("table2_scenarios", 16, 0xf2992960ec2a97a1),
    ("storage_overhead", 12, 0x48f88a44d76c84dc),
    ("ablation_alpha", 8, 0x80c3e8334f401988),
    ("ablation_damping", 8, 0xcc4923279f369420),
    ("ablation_linkage", 6, 0xbc3453a744805c01),
];

/// These two print wall-clock columns, so only their shape is pinned.
const TIMED: [&str; 2] = ["fig8_hashing", "table1_blurring"];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("VM_SCALE", "0.05")
        .output()
        .expect("spawn repro")
}

fn digest(text: &str) -> u64 {
    let d = vm_crypto::sha256(text.as_bytes()).0;
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

#[test]
fn list_prints_exactly_the_table_with_unique_names() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf8");
    let names: Vec<&str> = listed
        .lines()
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, ..)| *name).collect();
    assert_eq!(names, pinned, "--list is the experiment table, in order");
    let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "experiment names are unique");
    for line in listed.lines() {
        assert!(line.split_whitespace().count() > 1, "no title: {line:?}");
    }
}

#[test]
fn unknown_or_missing_name_exits_nonzero_naming_the_valid_ones() {
    for args in [&["fig9_vp_volume", "fig99_nope"][..], &[]] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} ran something first");
        let err = String::from_utf8(out.stderr).expect("utf8");
        for (name, ..) in PINNED {
            assert!(err.contains(name), "{args:?}: usage omits {name}");
        }
    }
}

#[test]
fn several_names_run_in_the_order_given_one_blank_line_apart() {
    // Two closed-form experiments (no trials), so this is instant.
    let [a, b, both] = [
        &["storage_overhead"][..],
        &["fig9_vp_volume"],
        &["storage_overhead", "fig9_vp_volume"],
    ]
    .map(|args| String::from_utf8(repro(args).stdout).expect("utf8"));
    assert!(!a.is_empty() && !b.is_empty());
    assert_eq!(both, format!("{a}\n{b}"));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs all 24 experiments: ~100 s in debug, ~10 s under --release (CI threaded job)"
)]
fn every_experiment_prints_what_its_own_binary_printed() {
    for (name, lines, pinned) in PINNED {
        let out = repro(&[name]);
        assert!(out.status.success(), "{name} failed");
        let text = String::from_utf8(out.stdout).expect("utf8");
        let covered = if TIMED.contains(&name) {
            text.lines().take(2).collect::<Vec<_>>().join("\n")
        } else {
            text.clone()
        };
        assert_eq!(
            (text.lines().count(), digest(&covered)),
            (lines, pinned),
            "{name} output moved:\n{text}"
        );
    }
}
