//! The paper-reproduction library: the experiments behind every table and
//! figure of the paper's evaluation, the test worlds and reference
//! oracles the rest of the workspace tests against, and the determinism
//! suites the grown system is held to. No timing code lives
//! here — `vm_perf/` is the repository's one benchmark.
//!
//! # Paper artifacts
//!
//! The `repro` binary (`src/bin/repro.rs`) is one table of 24
//! experiments — `fig8_hashing` … `table2_scenarios`, the §6.1
//! accounting, three ablations — each printing a CSV with `#`-prefixed
//! comment lines; the heavy lifting lives in this library's modules.
//! Experiments honor the `VM_SCALE` environment variable (default 1.0)
//! as a multiplier on trial counts, so `VM_SCALE=0.1 cargo run -p
//! vm-bench -- fig12_verification_position` gives a quick smoke pass
//! and `VM_SCALE=10` approaches the paper's 1000-run cells.
//! `tests/repro.rs` pins every seeded experiment's output.
//!
//! # Oracles and worlds
//!
//! [`oracle`] is the one place every "what should the system answer"
//! reference lives: the naive build/verify engines, the scatter
//! TrustRank, the cold viewmap oracle with its checksums, and the replay
//! oracle the fault-simulation rig holds every run to. [`worlds`] holds
//! the seeded populations fed to the system — linked minutes, synthetic
//! VPs, city-scale [`worlds::SynthWorld`]s — which the durability,
//! replication, service, equivalence and fault suites import instead of
//! keeping copies.
//!
//! # Determinism suites
//!
//! `tests/parallel_equivalence.rs` is the harness holding the parallel
//! engines to their sequential semantics: any thread count, batch
//! ingest vs sequential submits, exhaustive O(n²) oracles, and a
//! fixed-seed 100k topology pin (edge count + checksum + sampled
//! adjacency) that runs in release CI. `tests/churn_equivalence.rs`
//! holds the memoised investigation path to cold builds through random
//! submit/evict/investigate histories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod misc;
pub mod oracle;
pub mod privacy_exp;
pub mod traffic;
pub mod verification;
pub mod worlds;

/// Trial-count scale factor from `VM_SCALE` (default 1.0, clamped to
/// `[0.01, 100]`).
pub fn scale() -> f64 {
    std::env::var("VM_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 100.0)
}

/// `n` scaled by [`scale`], at least `min`.
pub fn scaled(n: usize, min: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(min)
}

/// Print a `#`-prefixed header line followed by a CSV header row.
pub fn csv_header(title: &str, columns: &[&str]) {
    println!("# {title}");
    println!("{}", columns.join(","));
}
