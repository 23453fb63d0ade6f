//! The sweep binary: run catalog rows across seed ranges and report.
//!
//! ```text
//! vm-vopr [--scenario NAME|all] [--seed N | --seeds COUNT [--start N]] [--verbose]
//! vm-vopr --list
//! ```
//!
//! Any failing run prints its seed and a copy-pasteable reproduction
//! command, and the process exits nonzero; `--verbose` also prints each
//! passing run's report. `--list` prints every row's name and
//! description; an unknown argument or scenario prints the usage and
//! every scenario name and exits 2.

use std::process::ExitCode;
use std::time::Instant;
use vm_vopr::{run_seed, Scenario};

/// Seeds per scenario when neither `--seed` nor `--seeds` is given.
const DEFAULT_SEEDS: u64 = 20;

/// The parsed command line.
struct Args {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    list: bool,
    verbose: bool,
}

/// Parse the command line; anything malformed prints the usage and
/// exits 2.
fn parse_args() -> Args {
    let usage = |problem: &str| -> ! {
        eprintln!(
            "{problem}\nusage: vm-vopr [--scenario NAME|all] \
             [--seed N | --seeds COUNT [--start N]] [--verbose] | --list\nscenarios: {}",
            Scenario::all().map(Scenario::name).join(", ")
        );
        std::process::exit(2);
    };
    let mut args = Args {
        scenarios: Scenario::all().to_vec(),
        seeds: Vec::new(),
        list: false,
        verbose: false,
    };
    let (mut single, mut count, mut start) = (None, DEFAULT_SEEDS, 0u64);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut number = || match it.next().map(|v| v.parse::<u64>()) {
            Some(Ok(v)) => v,
            _ => usage(&format!("{arg} needs an unsigned integer")),
        };
        match arg.as_str() {
            "--seed" => single = Some(number()),
            "--seeds" => count = number(),
            "--start" => start = number(),
            "--list" => args.list = true,
            "--verbose" => args.verbose = true,
            "--scenario" => match it.next() {
                Some(name) if name == "all" => args.scenarios = Scenario::all().to_vec(),
                Some(name) => match Scenario::from_name(&name) {
                    Some(s) => args.scenarios = vec![s],
                    None => usage(&format!("unknown scenario: {name}")),
                },
                None => usage("--scenario needs a name"),
            },
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    args.seeds = match single {
        Some(seed) => vec![seed],
        None => (start..start + count).collect(),
    };
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        for s in Scenario::all() {
            println!("{:<22} {}", s.name(), s.description());
        }
        return ExitCode::SUCCESS;
    }
    let started = Instant::now();
    let (mut runs, mut failures) = (0usize, 0usize);
    for &scenario in &args.scenarios {
        let mut failed = 0usize;
        for &seed in &args.seeds {
            runs += 1;
            match run_seed(scenario, seed) {
                Ok(report) if args.verbose => {
                    println!("ok   {:<22} seed={seed:<5} {report:?}", scenario.name())
                }
                Ok(_) => {}
                Err(e) => {
                    failed += 1;
                    eprintln!("FAILED {e}");
                }
            }
        }
        println!(
            "{:<22} {:>4} seeds  {failed:>3} failed",
            scenario.name(),
            args.seeds.len()
        );
        failures += failed;
    }
    println!(
        "{runs} runs in {:.1}s, {failures} failures",
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
