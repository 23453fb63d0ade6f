//! The sweep binary's command line: `--list` prints the whole catalog,
//! and a bad scenario name exits 2 naming every valid one.

use std::process::Command;
use vm_vopr::Scenario;

fn vm_vopr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vm-vopr"))
        .args(args)
        .output()
        .expect("run the vm-vopr binary")
}

#[test]
fn list_prints_every_row_in_catalog_order() {
    let out = vm_vopr(&["--list"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 17, "{stdout}");
    for (line, scenario) in lines.iter().zip(Scenario::all()) {
        let (name, description) = line.split_once(' ').expect("name and description");
        assert_eq!(name, scenario.name());
        assert_eq!(description.trim_start(), scenario.description());
    }
}

#[test]
fn an_unknown_scenario_exits_2_and_lists_every_name() {
    let out = vm_vopr(&["--scenario", "no-such-row"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown scenario: no-such-row"), "{stderr}");
    for scenario in Scenario::all() {
        assert!(stderr.contains(scenario.name()), "{stderr}");
    }
}
