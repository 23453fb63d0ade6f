//! CLI driver for the scenario workloads.
//!
//! ```text
//! vm-scenario --scenario all --seeds 3          # every scenario, seeds 0..3
//! vm-scenario --scenario sybil-flood --seed 17  # one exact repro
//! vm-scenario --list
//! ```

use std::process::ExitCode;
use vm_scenario::{run_seed, Scenario};
use vm_vopr::rig::{parse_args, sweep};

fn main() -> ExitCode {
    let names = Scenario::all().map(|s| s.name());
    let args = parse_args("vm-scenario", &names, 1, "--list");
    if args.switch {
        for s in Scenario::all() {
            println!("{:<22} {}", s.name(), s.description());
        }
        return ExitCode::SUCCESS;
    }
    sweep(&names, &args, true, |s, seed| {
        run_seed(Scenario::all()[s], seed).map(|report| {
            format!(
                "ops={:<5} retries={:<3} vps={:<4} {}",
                report.ops, report.retries, report.final_vps, report.note
            )
        })
    })
}
