//! `vm_perf` — the repository's benchmark. See `README.md` beside the
//! manifest for the workloads, the metrics and how to read them.
//!
//! ```text
//! vm_perf --workload <name|all> --seed N [--seconds S] [--trace 0|1]
//!         [--trace-out FILE] [--repeat N] [--out FILE] [--smoke]
//! vm_perf --compare BASELINE.json CANDIDATE.json
//! ```
//!
//! The last line of standard output is the result the driver reads. A run
//! whose checks fail prints what failed, writes no result and exits non-zero.

mod adapter;
mod catalog;
mod engine;
mod json;
mod ladder;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;
mod world;

use catalog::{END_TO_END, PER_LAYER};
use engine::{Ctx, Samples, Scale};
use report::{RunResult, Suite};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// Where cells keep their logs: under the directory the benchmark was started
/// in, which for the driver is the checkout.
const WORK_ROOT: &str = ".vm_perf_work";
/// Every run signs under the same key: the prime search of key generation
/// takes 0.2 to 1.5 s depending on its seed, and RSA costs depend on the key,
/// so a key drawn from `--seed` would put that lottery into `setup_s` and
/// `reward_cycle_ms_p50`. The key is the operator's secret, not an input.
const KEY_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
}

fn usage() -> String {
    "usage: vm_perf --workload <ingest-steady|ingest-replicated|investigate-churn|mixed-city|all> \
     --seed N [--seconds S] [--trace 0|1] [--trace-out FILE] [--repeat N] [--out FILE] [--smoke]\n       \
     vm_perf --compare BASELINE.json CANDIDATE.json"
        .into()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".into(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        repeat: 1,
        out: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => o.workload = value("a name")?,
            "--seed" => o.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => o.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?,
            "--trace-out" => o.trace_out = Some(value("a path")?.into()),
            "--repeat" => o.repeat = value("a count")?.parse().map_err(|_| "bad --repeat")?,
            "--out" => o.out = Some(value("a path")?.into()),
            "--smoke" => o.smoke = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if o.workload != "all" && Workload::by_name(&o.workload).is_none() {
        return Err(format!("unknown workload {}\n{}", o.workload, usage()));
    }
    if o.repeat == 0 || !o.seconds.is_finite() || o.seconds < 0.0 {
        return Err("--repeat is at least 1 and --seconds is not negative".into());
    }
    Ok(o)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one in-process run hands back beside its result.
struct Finished {
    result: RunResult,
    samples: Samples,
    rounds: usize,
    rounds_s: f64,
    spans: usize,
}

/// Run one workload in this process.
fn run_once(w: Workload, o: &Opts) -> Result<Finished, String> {
    let io = |e: std::io::Error| format!("{}: {e}", w.name());
    let work = std::env::current_dir()
        .map_err(io)?
        .join(WORK_ROOT)
        .join(format!("run-{}-{}", std::process::id(), w.name()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(io)?;
    let _scratch = Scratch(work.clone());

    let scale = if o.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let started = Instant::now();
    let ctx = Ctx {
        seed: o.seed,
        key: adapter::Key::generate(KEY_SEED, scale.key_bits),
        tracer: trace::Tracer::new(o.trace),
        scale,
        work,
    };
    let inputs = w.inputs(&ctx);
    let one_time_setup_s = started.elapsed().as_secs_f64();

    // Whole rounds for about `--seconds`: another round starts only while it
    // is expected to end inside the budget. A traced run records alternate
    // rounds, so it holds the traced and the untraced cost of the same work.
    let mut s = Samples::default();
    let min_rounds = if o.trace {
        ctx.scale.min_rounds.max(2)
    } else {
        ctx.scale.min_rounds
    };
    let mut rates = [Vec::new(), Vec::new()];
    let loop_started = Instant::now();
    let mut rounds = 0;
    loop {
        let elapsed = loop_started.elapsed().as_secs_f64();
        if rounds >= min_rounds && elapsed + elapsed / rounds as f64 > o.seconds {
            break;
        }
        let traced = o.trace && rounds % 2 == 0;
        ctx.tracer.pause(!traced);
        rates[usize::from(traced)].push(w.round(&ctx, &mut s, &inputs, rounds).map_err(io)?);
        workloads::close_round(&mut s);
        rounds += 1;
    }
    let rounds_s = loop_started.elapsed().as_secs_f64();
    ctx.tracer.pause(false);
    drop(inputs);

    let metrics = if o.trace {
        let mut m = workloads::per_layer_from_rounds(&s);
        m.extend(ladder::run(&ctx, &mut s).map_err(io)?);
        let traced = stats::median(&rates[1]);
        m.push((
            "harness.trace_overhead_ratio",
            if traced > 0.0 {
                stats::median(&rates[0]) / traced
            } else {
                0.0
            },
        ));
        PER_LAYER
            .iter()
            .filter_map(|d| m.iter().find(|(n, _)| *n == d.name).copied())
            .collect()
    } else {
        workloads::end_to_end(&s, one_time_setup_s)
    };

    let spans = ctx.tracer.len();
    if o.trace {
        let path = o.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(WORK_ROOT).join(format!("spans-{}-{}.jsonl", w.name(), o.seed))
        });
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
        ctx.tracer.write_to(&mut file).map_err(io)?;
        std::io::Write::flush(&mut file).map_err(io)?;
        eprintln!("{}: {spans} spans written to {}", w.name(), path.display());
    }

    for (name, value) in &metrics {
        s.check(value.is_finite(), || format!("{name} is not finite"));
    }
    let expected = if o.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    s.check(metrics.len() == expected, || {
        format!("{} of {expected} metrics were produced", metrics.len())
    });
    let (attempted, failed) = (s.attempted, s.failed);
    s.check(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    if !s.problems.is_empty() {
        return Err(format!("{}: {}", w.name(), s.problems.join("; ")));
    }
    Ok(Finished {
        result: RunResult {
            workload: w.name(),
            attempted: s.attempted,
            failed: s.failed,
            metrics,
        },
        samples: s,
        rounds,
        rounds_s,
        spans,
    })
}

/// Every metric by name and unit, with the sample counts behind it.
fn print_report(f: &Finished, o: &Opts) {
    let r = &f.result;
    println!(
        "# {} seed {} — {} rounds in {:.1} s, {} operations attempted, {} failed; {} cores; \
         logs on {WORK_ROOT}/ (the checkout's file system), fsync never, {}-bit key{}",
        r.workload,
        o.seed,
        f.rounds,
        f.rounds_s,
        r.attempted,
        r.failed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if o.smoke { 512 } else { 2048 },
        if o.trace {
            format!("; {} spans", f.spans)
        } else {
            String::new()
        },
    );
    for (name, value) in &r.metrics {
        let unit = report::def_of(name).map_or("", |d| d.unit);
        println!("{name:<42} {value:>16.4} {unit}");
    }
    if !o.trace {
        let counts: Vec<String> = workloads::sample_counts(&f.samples)
            .into_iter()
            .map(|(name, n)| format!("{name} n={n} (supports p{})", stats::tail_percentile(n)))
            .collect();
        println!("# samples: {}", counts.join(", "));
    }
}

/// Run one workload in a child process, so that its peak memory and heap are
/// its own, and pass its report through.
fn run_child(w: Workload, o: &Opts, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !out.status.success() {
        return Err(format!("{} seed {seed} failed", w.name()));
    }
    RunResult::from_driver_line(w.name(), line)
}

/// Write the result file `--out` names, if it names one.
fn write_out(o: &Opts, suite: &Suite) -> Result<(), String> {
    match &o.out {
        Some(path) => std::fs::write(path, suite.to_json().render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(()),
    }
}

fn run(o: &Opts) -> Result<(), String> {
    let chosen: Vec<Workload> = match Workload::by_name(&o.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    if chosen.len() == 1 && o.repeat == 1 {
        let finished = run_once(chosen[0], o)?;
        print_report(&finished, o);
        let mut suite = Suite::default();
        suite.add(&finished.result);
        write_out(o, &suite)?;
        println!("{}", finished.result.driver_line());
        return Ok(());
    }
    // The suite: each repeat uses the next seed, as the driver's runs do.
    let mut suite = Suite::default();
    let mut lines = Vec::new();
    for rep in 0..o.repeat {
        for &w in &chosen {
            let result = run_child(w, o, o.seed + rep as u64)?;
            lines.push(format!("# workload {}", w.name()));
            lines.push(result.driver_line());
            suite.add(&result);
        }
    }
    if o.repeat > 1 {
        suite.print_noise();
    }
    write_out(o, &suite)?;
    for line in lines
        .iter()
        .skip(lines.len().saturating_sub(2 * chosen.len()))
    {
        println!("{line}");
    }
    Ok(())
}

fn compare(base: &str, cand: &str) -> Result<usize, String> {
    let read = |path: &str| -> Result<Suite, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Suite::from_json(&json::Json::parse(&text)?).map_err(|e| format!("{path}: {e}"))
    };
    Ok(report::compare(&read(base)?, &read(cand)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [flag, base, cand] if flag == "--compare" => compare(base, cand).and_then(|regressed| {
            if regressed == 0 {
                Ok(())
            } else {
                Err(format!("{regressed} pairings regressed"))
            }
        }),
        _ => parse_args(&args).and_then(|o| run(&o)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vm_perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::BTreeSet;

    fn smoke(w: Workload, trace: bool) -> RunResult {
        let o = Opts {
            workload: w.name().into(),
            seed: 7,
            seconds: 0.0,
            trace,
            trace_out: None,
            repeat: 1,
            out: None,
            smoke: true,
        };
        run_once(w, &o)
            .expect("the smoke run passes its checks")
            .result
    }

    /// A twentieth-scale pass over all four workloads, traced and untraced:
    /// every name `BENCHMARK.json` declares is emitted exactly once per
    /// workload with a finite value and the declared unit, and nothing else.
    #[test]
    fn smoke_emits_exactly_the_declared_names() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the root of the repository");
        let decl = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            decl.get(key)
                .and_then(Json::items)
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Json::str).expect("a string").to_string();
                    (
                        field("name"),
                        field("unit"),
                        field("better"),
                        m.get("bound").and_then(Json::num),
                    )
                })
                .collect()
        };
        let workloads: Vec<String> = decl
            .get("workloads")
            .and_then(Json::items)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert_eq!(
            decl.get("run_seconds").and_then(Json::num),
            Some(DEFAULT_SECONDS),
            "--seconds defaults to run_seconds"
        );

        for (key, catalog, trace) in [
            ("end_to_end", &END_TO_END[..], false),
            ("per_layer", &PER_LAYER[..], true),
        ] {
            let declared = declared(key);
            let in_catalog: Vec<_> = catalog
                .iter()
                .map(|d| {
                    let bound = (key == "end_to_end").then_some(d.bound);
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.word().to_string(),
                        bound,
                    )
                })
                .collect();
            assert_eq!(
                declared, in_catalog,
                "{key} of BENCHMARK.json is the catalog"
            );
            for w in Workload::ALL {
                let result = smoke(w, trace);
                let names: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
                let unique: BTreeSet<&str> = names.iter().copied().collect();
                assert_eq!(
                    unique.len(),
                    names.len(),
                    "{}: a name is emitted twice",
                    w.name()
                );
                assert_eq!(
                    names,
                    declared.iter().map(|d| d.0.as_str()).collect::<Vec<_>>(),
                    "{} emits the declared {key} names and no other",
                    w.name()
                );
                assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
                assert!(result.attempted > 0 && result.failed == 0);
                let line = Json::parse(&result.driver_line()).expect("the driver line is JSON");
                let keys: Vec<&String> = line.members().expect("an object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                if !trace {
                    assert!(
                        result.metrics.iter().all(|(_, v)| *v > 0.0),
                        "{}: an end-to-end metric is 0",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_follow_the_contract() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload mixed-city --seed 9 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("mixed-city", 9, 3.0, true)
        );
        assert!(
            !parse_args(&args("--workload all --seed 1 --trace 0"))
                .expect("parses")
                .trace
        );
        assert!(
            parse_args(&args("--workload all --trace --seed 1"))
                .expect("parses")
                .trace
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
