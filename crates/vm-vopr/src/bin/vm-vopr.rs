//! Sweep driver: run scenarios across seed ranges and report.
//!
//! ```text
//! vm-vopr [--scenario NAME|all] [--seed N | --seeds COUNT [--start N]] [--verbose]
//! ```
//!
//! Any failing run prints its seed and a copy-pasteable reproduction
//! command, and the process exits nonzero; `--verbose` also prints each
//! passing run's report.

use std::process::ExitCode;
use vm_vopr::rig::{parse_args, sweep};
use vm_vopr::{run_seed, Scenario};

fn main() -> ExitCode {
    let names = Scenario::all().map(Scenario::name);
    let args = parse_args("vm-vopr", &names, 20, "--verbose");
    sweep(&names, &args, args.switch, |s, seed| {
        run_seed(Scenario::all()[s], seed).map(|report| format!("{report:?}"))
    })
}
