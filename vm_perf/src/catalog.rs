//! The names the benchmark emits. `BENCHMARK.json` declares the same names;
//! the smoke test holds the two together.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction, and for an end-to-end metric the
/// share of the baseline's median by which it may worsen before a change
/// counts as a regression. Per-layer metrics have no bound (0).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    bounded(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    bounded(name, unit, Better::Higher, 0.0)
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest-steady",
        "vehicle-hour uploads on one session: wire, ingest locking and the log do the work, the engine little",
    ),
    (
        "ingest-replicated",
        "the same uploads into a primary with a live follower: the difference from ingest-steady is the replication tax",
    ),
    (
        "investigate-churn",
        "incident minutes loaded whole, then first-touch, local and wide investigations between late uploads: the engine does the work",
    ),
    (
        "mixed-city",
        "open-loop uploads beside a closed-loop investigator and reward claimant on one cell: contention shows here only",
    ),
];

/// The bound of every end-to-end time or rate: the contract's maximum. Ten-run
/// spreads of these on an unchanged tree reach 0.2 when the host is busy.
const TIMED: f64 = 0.25;
/// The bound of the two figures that do not depend on the host's speed.
const EXACT: f64 = 0.10;

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 13] = [
    bounded("setup_s", "s", Better::Lower, TIMED),
    bounded("peak_rss_mb", "MiB", Better::Lower, EXACT),
    bounded("ingest_vps_per_s", "VPs/s", Better::Higher, TIMED),
    bounded("ingest_chunk_ms_p50", "ms", Better::Lower, TIMED),
    bounded("ingest_cpu_us_per_vp", "us", Better::Lower, TIMED),
    bounded("wal_bytes_per_vp", "B", Better::Lower, EXACT),
    bounded("recover_s", "s", Better::Lower, TIMED),
    bounded("catchup_s", "s", Better::Lower, TIMED),
    bounded("investigate_first_ms_p50", "ms", Better::Lower, TIMED),
    bounded("investigate_local_ms_p50", "ms", Better::Lower, TIMED),
    bounded("investigate_local_ms_p90", "ms", Better::Lower, TIMED),
    bounded("investigate_wide_ms_p50", "ms", Better::Lower, TIMED),
    bounded("reward_cycle_ms_p50", "ms", Better::Lower, TIMED),
];

/// Single layers, measured from outside in the traced run.
pub const PER_LAYER: [MetricDef; 61] = [
    // vm-service
    lower("ingest_chunk_ms_p95", "ms"),
    lower("service.encode_us_per_vp", "us"),
    lower("service.decode_us_per_vp", "us"),
    lower("service.wire_bytes_per_vp", "B"),
    lower("service.wire_rung_us_per_vp", "us"),
    lower("service.wire_delta_us_per_vp", "us"),
    lower("service.wire_unattributed_us_per_vp", "us"),
    higher("service.coalesce_frames_p50", "count"),
    lower("service.request_us_submit_p50", "us"),
    lower("service.session_setup_us_p50", "us"),
    lower("service.investigate_delta_ms_p50", "ms"),
    lower("service.accept_sheds", "count"),
    // core::server
    lower("server.submit_single_us_per_vp", "us"),
    lower("server.batch_cold_us_per_vp", "us"),
    lower("server.batch_warm_us_per_vp", "us"),
    lower("server.key_warm_delta_us_per_vp", "us"),
    lower("server.rejected_vps", "count"),
    lower("server.chunk_ms_during_investigate_p50", "ms"),
    lower("server.chunk_ms_idle_p50", "ms"),
    // engine: core::viewmap
    lower("viewmap.build_local_ms_p50", "ms"),
    lower("viewmap.build_wide_ms_p50", "ms"),
    lower("viewmap.members_local_p50", "count"),
    lower("viewmap.members_wide_p50", "count"),
    lower("viewmap.edges_wide_p50", "count"),
    lower("viewmap.phase_tables_share", "ratio"),
    lower("viewmap.phase_candidates_share", "ratio"),
    lower("viewmap.phase_keys_share", "ratio"),
    lower("viewmap.phase_linkage_share", "ratio"),
    // engine: core::maintained
    higher("maintained.creates", "count"),
    lower("maintained.create_ms_sum", "ms"),
    lower("maintained.extract_ms_p50", "ms"),
    lower("maintained.splice_us_per_vp", "us"),
    // engine: core::trustrank
    lower("trustrank.verify_local_ms_p50", "ms"),
    lower("trustrank.verify_wide_ms_p50", "ms"),
    lower("trustrank.iterations_p50", "count"),
    // vm-store
    lower("store.append_delta_us_per_vp", "us"),
    lower("store.append_us_p50", "us"),
    higher("store.batch_records_p50", "count"),
    lower("store.fsyncs", "count"),
    lower("store.bytes_per_vp", "B"),
    lower("store.segments", "count"),
    lower("store.recover_us_per_vp", "us"),
    // vm-repl
    lower("repl.ship_delta_us_per_vp", "us"),
    lower("repl.ship_us_p50", "us"),
    lower("repl.shipped_bytes_per_vp", "B"),
    lower("repl.lag_ops_p50", "count"),
    lower("repl.lag_ops_max", "count"),
    lower("repl.drain_ms", "ms"),
    lower("repl.catchup_us_per_vp", "us"),
    lower("repl.promote_ms", "ms"),
    lower("repl.first_write_ms", "ms"),
    lower("repl.first_investigate_ms", "ms"),
    // vm-crypto and core::reward
    lower("crypto.sha256_many_ns_per_msg", "ns"),
    lower("crypto.rsa_sign_ms", "ms"),
    lower("crypto.rsa_verify_us", "us"),
    lower("reward.claim_ms_p50", "ms"),
    lower("reward.blind_sign_ms_p50", "ms"),
    lower("reward.redeem_ms_p50", "ms"),
    higher("reward.double_spend_rejected", "count"),
    // the harness itself: validity of the run, never gated
    lower("harness.late_share", "ratio"),
    lower("harness.trace_overhead_ratio", "ratio"),
];
