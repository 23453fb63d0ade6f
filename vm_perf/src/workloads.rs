//! The four workloads. Each is a sequence of rounds on fresh cells, and each
//! round is a cell's whole life — bring-up, uploads, investigations, reward
//! claims, restart, a new replica — so every workload reports every
//! end-to-end metric. What differs is which phase carries the weight and how
//! it is shaped; `README.md` says why each was chosen.

use crate::adapter::{GeoPos, MinuteId, Site, StoredVp};
use crate::catalog::END_TO_END;
use crate::engine::{
    investigate_on, submit_chunk, Cell, CellSpec, Claimant, Ctx, MinuteInfo, Samples, Schedule,
    CHUNK_VPS, FOLLOW_UP_WITHIN_M, LOCAL_RADIUS_M, WIDE_RADIUS_M,
};
use crate::openloop::{self, WallClock};
use crate::stats::{self, StatsText};
use crate::trace::{SpanId, ROOT};
use crate::world::{self, HourStream, MinutePopulation, SiteRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use vm_service::VmClient;

/// State digest of ingest-steady after its upload phase, seed 42, full scale:
/// generator or ingest drift fails the run instead of changing the work.
const PIN_INGEST_DIGEST_SEED_42: u64 = 0xf18c_8fee_5d71_bfb8;
/// `(members, edges)` of the wide site at the first incident of
/// investigate-churn, seed 42, full scale.
const PIN_WIDE_SITE_SEED_42: (usize, usize) = (2254, 21631);

/// Every n-th investigation of mixed-city's investigator is a wide one.
const MIXED_WIDE_EVERY: usize = 8;
/// One in this many of mixed-city's uploads also writes the hot minutes.
const MIXED_HOT_EVERY: usize = 4;
/// The minute numbers the workloads use.
const HOUR_FIRST_MINUTE: u64 = 1_000;
const HOT_MINUTE: u64 = 5_000;
const INCIDENT_FIRST_MINUTE: u64 = 10_000;

/// Is this the run the pinned constants describe?
fn pinned(ctx: &Ctx) -> bool {
    ctx.seed == 42 && ctx.scale.key_bits == 2048
}

/// What a workload generated once, before its first round.
pub enum Inputs {
    Hour(HourStream),
    Churn,
    Mixed {
        hot: Vec<MinutePopulation>,
        uploads: Vec<Vec<StoredVp>>,
    },
}

/// A workload: its inputs and what one round does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestSteady,
    IngestReplicated,
    InvestigateChurn,
    MixedCity,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestSteady,
        Workload::IngestReplicated,
        Workload::InvestigateChurn,
        Workload::MixedCity,
    ];

    pub fn name(self) -> &'static str {
        crate::catalog::WORKLOADS[self as usize].0
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate what every round of the workload reuses.
    pub fn inputs(self, ctx: &Ctx) -> Inputs {
        let sc = &ctx.scale;
        match self {
            Workload::IngestSteady | Workload::IngestReplicated => {
                Inputs::Hour(world::hour_stream(
                    ctx.seed,
                    HOUR_FIRST_MINUTE,
                    sc.vehicles,
                    world::side_for(sc.vehicles),
                    0,
                    true,
                ))
            }
            Workload::InvestigateChurn => Inputs::Churn,
            Workload::MixedCity => {
                // The hot minutes are the first minutes of one hour and share
                // one square.
                let per_minute = sc.minute_vps / sc.hot_minutes / CHUNK_VPS * CHUNK_VPS;
                let side = world::side_for(per_minute);
                let hot: Vec<MinutePopulation> = (0..sc.hot_minutes as u64)
                    .map(|j| {
                        world::minute_population(
                            ctx.seed,
                            HOT_MINUTE + j,
                            per_minute,
                            side,
                            0,
                            true,
                        )
                    })
                    .collect();
                // One upload in MIXED_HOT_EVERY is a vehicle's hour starting
                // at the first hot minute, so it writes every hot minute; the
                // others are hours of a later, cold window.
                let n = (sc.mixed_secs * 1e3 / sc.mixed_period_ms) as usize;
                let n_hot = n.div_ceil(MIXED_HOT_EVERY);
                let mut hot_hours = world::hour_stream(ctx.seed, HOT_MINUTE, n_hot, side, 1, false)
                    .chunks
                    .into_iter();
                let mut cold_hours =
                    world::hour_stream(ctx.seed, HOT_MINUTE + 60, n - n_hot, side, 1, false)
                        .chunks
                        .into_iter();
                let uploads = (0..n)
                    .map(|i| {
                        if i % MIXED_HOT_EVERY == 0 {
                            hot_hours.next()
                        } else {
                            cold_hours.next()
                        }
                        .expect("streams sized to the schedule")
                    })
                    .collect();
                Inputs::Mixed { hot, uploads }
            }
        }
    }

    /// One round: a cell's life. Returns the operations per second of its
    /// measured phases, for the trace-overhead ratio.
    pub fn round(
        self,
        ctx: &Ctx,
        s: &mut Samples,
        inputs: &Inputs,
        round: usize,
    ) -> std::io::Result<f64> {
        let tag = format!("r{round}");
        ctx.tracer
            .span("round", ROOT, round as u64, |span| match (self, inputs) {
                (Workload::IngestSteady, Inputs::Hour(hour)) => {
                    ingest_round(ctx, s, hour, &tag, false, span)
                }
                (Workload::IngestReplicated, Inputs::Hour(hour)) => {
                    ingest_round(ctx, s, hour, &tag, true, span)
                }
                (Workload::InvestigateChurn, Inputs::Churn) => {
                    churn_round(ctx, s, round, &tag, span)
                }
                (Workload::MixedCity, Inputs::Mixed { hot, uploads }) => {
                    mixed_round(ctx, s, hot, uploads, &tag, span)
                }
                _ => unreachable!("inputs are made by the workload that uses them"),
            })
    }
}

/// Times the measured phases of a round and counts their operations.
struct PhaseMeter {
    started: Instant,
    ops_before: u64,
}

impl PhaseMeter {
    fn start(s: &Samples) -> PhaseMeter {
        PhaseMeter {
            started: Instant::now(),
            ops_before: s.attempted,
        }
    }

    fn ops_per_s(&self, s: &Samples) -> f64 {
        (s.attempted - self.ops_before) as f64 / self.started.elapsed().as_secs_f64()
    }
}

/// Bring a cell up and record the round's set-up time, counted from `since`.
fn bring_up(
    ctx: &Ctx,
    s: &mut Samples,
    spec: CellSpec,
    trusted: Vec<StoredVp>,
    since: Instant,
    span: SpanId,
) -> std::io::Result<Cell> {
    let cell = ctx.tracer.span("operator.bring_up", span, 0, |_| {
        Cell::bring_up(ctx, spec, trusted)
    })?;
    s.push("setup_round_s", since.elapsed().as_secs_f64());
    Ok(cell)
}

/// After the measured phases: every acknowledged VP is stored, the layer
/// counters are read from the cell's own STATS text, and the operator's part
/// of the round runs.
fn finish_round(
    ctx: &Ctx,
    s: &mut Samples,
    mut cell: Cell,
    expected_vps: usize,
    drill: MinuteInfo,
    span: SpanId,
) {
    let stored = cell.server.total_vps();
    s.check(stored == expected_vps, || {
        format!("{stored} VPs stored, {expected_vps} acknowledged")
    });
    if ctx.tracer.enabled() {
        let text = cell.stats_text();
        match StatsText::parse(&text) {
            Some(stats) => layer_from_stats(s, &stats),
            None => s.check(false, || "the STATS text does not parse".into()),
        }
    }
    // Peak memory is read once, while the first round's cell is still the only
    // one: the restarts that follow leave a heap whose shape differs from run
    // to run.
    if s.get("peak_rss_mb").is_empty() {
        s.push("peak_rss_mb", stats::peak_rss_mib());
    }
    cell.restart_and_catch_up(ctx, s, drill, span);
}

/// ingest-steady and ingest-replicated: the hour stream on one pipelining
/// session, then a few of its minutes investigated and a few rewards claimed.
fn ingest_round(
    ctx: &Ctx,
    s: &mut Samples,
    hour: &HourStream,
    tag: &str,
    replicated: bool,
    span: SpanId,
) -> std::io::Result<f64> {
    let sc = &ctx.scale;
    let trusted = hour.trusted.clone();
    let mut expected = trusted.len();
    let spec = CellSpec {
        tag,
        replicated,
        claims: sc.reward_cycles as u64,
    };
    let mut cell = bring_up(ctx, s, spec, trusted, Instant::now(), span)?;
    let meter = PhaseMeter::start(s);

    let chunks: Vec<&[StoredVp]> = hour.chunks.iter().map(Vec::as_slice).collect();
    cell.ingest(ctx, s, &chunks, true, span);
    expected += hour.chunks.len() * CHUNK_VPS;
    cell.drain_and_compare(s);
    if pinned(ctx) && !replicated {
        let digest = cell.server.state_digest();
        s.check(digest == PIN_INGEST_DIGEST_SEED_42, || {
            format!("ingest-steady state digest {digest:#x} is not the pinned one")
        });
    }

    let schedule = Schedule {
        locals: sc.probe_locals,
        wides: 1,
        wave_every: 0,
        wave_vps: 0,
    };
    let minute_at = |j: usize| MinuteInfo {
        minute: MinuteId(hour.first_minute + (j * 60 / sc.probe_minutes) as u64),
        side_m: hour.side_m,
    };
    for j in 0..sc.probe_minutes {
        cell.investigate_minute(ctx, s, minute_at(j), schedule, span);
    }
    cell.reward_cycles(ctx, s, sc.reward_cycles, span);

    let rate = meter.ops_per_s(s);
    finish_round(ctx, s, cell, expected, minute_at(0), span);
    Ok(rate)
}

/// investigate-churn: incident minutes loaded whole over the wire, each then
/// investigated by the full schedule with late waves between follow-ups.
fn churn_round(
    ctx: &Ctx,
    s: &mut Samples,
    round: usize,
    tag: &str,
    span: SpanId,
) -> std::io::Result<f64> {
    let sc = &ctx.scale;
    let generating_since = Instant::now();
    let side = world::side_for(sc.minute_vps);
    let minutes: Vec<MinutePopulation> = (0..sc.churn_minutes)
        .map(|j| {
            let minute = INCIDENT_FIRST_MINUTE + (round * sc.churn_minutes + j) as u64;
            world::minute_population(ctx.seed, minute, sc.minute_vps, side, 0, true)
        })
        .collect();
    let trusted: Vec<StoredVp> = minutes.iter().flat_map(|m| m.trusted.clone()).collect();
    let mut expected = trusted.len();
    let spec = CellSpec {
        tag,
        replicated: false,
        claims: sc.reward_cycles as u64,
    };
    let mut cell = bring_up(ctx, s, spec, trusted, generating_since, span)?;
    let meter = PhaseMeter::start(s);

    let schedule = Schedule {
        locals: sc.churn_locals,
        wides: sc.churn_wides,
        wave_every: sc.wave_every,
        wave_vps: sc.wave_vps,
    };
    let follow_ups = schedule.locals + schedule.wides;
    let mut last = None;
    for (j, pop) in minutes.iter().enumerate() {
        let info = MinuteInfo {
            minute: pop.minute,
            side_m: pop.side_m,
        };
        let chunks: Vec<&[StoredVp]> = pop.vps.chunks(CHUNK_VPS).collect();
        cell.ingest(ctx, s, &chunks, true, span);
        expected += pop.vps.len();
        if pinned(ctx) && round == 0 && j == 0 {
            let site = Site {
                center: SiteRng::new(ctx.seed, pop.minute.0).incident(pop.side_m),
                radius_m: WIDE_RADIUS_M,
            };
            let graph = cell.server.build_viewmap(pop.minute, site);
            let shape = (graph.members(), graph.edges());
            s.check(shape == PIN_WIDE_SITE_SEED_42, || {
                format!("wide site at the first incident has (members, edges) {shape:?}, not the pinned pair")
            });
        }
        cell.investigate_minute(ctx, s, info, schedule, span);
        expected += follow_ups.div_ceil(schedule.wave_every) * schedule.wave_vps;
        last = Some(info);
    }
    cell.reward_cycles(ctx, s, sc.reward_cycles, span);

    let rate = meter.ops_per_s(s);
    let drill = last.expect("a round has at least one incident minute");
    finish_round(ctx, s, cell, expected, drill, span);
    Ok(rate)
}

/// mixed-city: the hot minutes are preloaded on the cell's own session; then
/// session A uploads on a fixed schedule while session B, closed loop,
/// alternates an investigation of a hot minute with a reward cycle.
fn mixed_round(
    ctx: &Ctx,
    s: &mut Samples,
    hot: &[MinutePopulation],
    uploads: &[Vec<StoredVp>],
    tag: &str,
    span: SpanId,
) -> std::io::Result<f64> {
    let sc = &ctx.scale;
    let trusted: Vec<StoredVp> = hot.iter().flat_map(|m| m.trusted.clone()).collect();
    let mut expected = trusted.len();
    // More claimable VPs than B can claim in the time: even under the smoke
    // pass's 512-bit key an iteration takes a millisecond.
    let spec = CellSpec {
        tag,
        replicated: false,
        claims: (sc.mixed_secs * 2000.0) as u64 + 8,
    };
    let mut cell = bring_up(ctx, s, spec, trusted, Instant::now(), span)?;

    // The preload is a closed loop and gives the throughput and CPU figures;
    // its chunk latencies are not A's, and are not recorded.
    let preload: Vec<&[StoredVp]> = hot.iter().flat_map(|m| m.vps.chunks(CHUNK_VPS)).collect();
    cell.ingest(ctx, s, &preload, false, span);
    expected += preload.len() * CHUNK_VPS;

    let meter = PhaseMeter::start(s);
    let addr = cell.addr();
    let investigating = AtomicBool::new(false);
    let uploads_done = AtomicBool::new(false);
    let (mut from_a, mut from_b) = (Samples::default(), Samples::default());
    let sessions = (VmClient::connect(addr), VmClient::connect(addr));
    let (Ok(mut session_a), Ok(mut session_b)) = sessions else {
        return Err(std::io::Error::other("mixed-city sessions did not connect"));
    };
    let mut claimant =
        Claimant::new(&mut session_b, ctx.seed ^ 0xb).map_err(std::io::Error::other)?;
    ctx.tracer.span("phase.concurrent", span, 0, |phase| {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let s = &mut from_a;
                let sent = openloop::run(
                    uploads.len(),
                    sc.mixed_period_ms / 1e3,
                    &mut WallClock::start(),
                    |i, _| {
                        let busy = investigating.load(Ordering::Relaxed);
                        let t = Instant::now();
                        let ok = ctx
                            .tracer
                            .span("client.submit_chunk", phase, i as u64, |_| {
                                submit_chunk(&mut session_a, &uploads[i])
                            });
                        if ok {
                            let split = if busy {
                                "server.chunk_ms_during_investigate"
                            } else {
                                "server.chunk_ms_idle"
                            };
                            s.push(split, t.elapsed().as_secs_f64() * 1e3);
                        }
                        ok
                    },
                );
                uploads_done.store(true, Ordering::SeqCst);
                let late = sent.iter().filter(|r| r.late()).count();
                s.push("harness.late_share", late as f64 / sent.len().max(1) as f64);
                for r in &sent {
                    if s.op(r.ok) {
                        s.push("ingest_chunk_ms", r.latency_ms());
                    }
                }
            });
            scope.spawn(|| {
                let s = &mut from_b;
                // Each hot minute has its incident; B visits them in turn, so
                // its first `hot.len()` investigations are first touches.
                let mut incidents: Vec<(SiteRng, GeoPos)> = hot
                    .iter()
                    .map(|m| {
                        let mut sites = SiteRng::new(ctx.seed, m.minute.0);
                        let incident = sites.incident(m.side_m);
                        (sites, incident)
                    })
                    .collect();
                let mut i = 0usize;
                while !uploads_done.load(Ordering::SeqCst) {
                    let minute = &hot[i % hot.len()];
                    let (sites, incident) = &mut incidents[i % hot.len()];
                    let (metric, center, radius_m) = if i < hot.len() {
                        ("investigate_first_ms", *incident, LOCAL_RADIUS_M)
                    } else {
                        let center = sites.nearby(*incident, FOLLOW_UP_WITHIN_M, minute.side_m);
                        if i.is_multiple_of(MIXED_WIDE_EVERY) {
                            ("investigate_wide_ms", center, WIDE_RADIUS_M)
                        } else {
                            ("investigate_local_ms", center, LOCAL_RADIUS_M)
                        }
                    };
                    investigating.store(true, Ordering::Relaxed);
                    let site = Site { center, radius_m };
                    investigate_on(ctx, s, &mut session_b, metric, minute.minute, site, phase);
                    investigating.store(false, Ordering::Relaxed);
                    claimant.cycle(ctx, s, &mut session_b, i as u64, phase);
                    i += 1;
                }
                claimant.double_spend(s, &mut session_b);
            });
        });
    });
    s.merge(from_a);
    s.merge(from_b);
    let rate = meter.ops_per_s(s);
    drop((session_a, session_b));
    expected += uploads.len() * CHUNK_VPS;

    // With the writer gone, a wire investigation must equal the in-process one.
    let first = &hot[0];
    let mut sites = SiteRng::new(ctx.seed ^ 1, first.minute.0);
    for radius_m in [LOCAL_RADIUS_M, WIDE_RADIUS_M] {
        let site = Site {
            center: sites.incident(first.side_m),
            radius_m,
        };
        cell.compare_with_direct(s, first.minute, site);
    }
    let drill = MinuteInfo {
        minute: first.minute,
        side_m: first.side_m,
    };
    finish_round(ctx, s, cell, expected, drill, span);
    Ok(rate)
}

/// The per-layer numbers one round's STATS text holds. Counts that the cell
/// never registered — replication on a standalone cell, the maintained graph
/// while the wire path does not use it — read 0.
fn layer_from_stats(s: &mut Samples, st: &StatsText) {
    let stored = st.value("vm_core_vps_stored_total").max(1.0);
    s.push(
        "service.coalesce_frames_p50",
        st.hist_p50("vm_service_coalesce_run_frames", ""),
    );
    s.push(
        "service.request_us_submit_p50",
        st.hist_p50("vm_service_request_us", "op=\"submit\""),
    );
    s.push(
        "service.accept_sheds",
        st.value("vm_service_accept_sheds_total"),
    );
    s.push(
        "server.rejected_vps",
        st.value("vm_core_vps_rejected_total"),
    );

    let phases = ["tables", "candidates", "keys", "linkage"];
    let sums = phases.map(|p| st.hist_sum("vm_core_build_phase_us", &format!("phase=\"{p}\"")));
    let all: f64 = sums.iter().sum();
    let names = [
        "viewmap.phase_tables_share",
        "viewmap.phase_candidates_share",
        "viewmap.phase_keys_share",
        "viewmap.phase_linkage_share",
    ];
    for (name, sum) in names.into_iter().zip(sums) {
        s.push(name, if all > 0.0 { sum / all } else { 0.0 });
    }

    s.push(
        "maintained.creates",
        st.hist_count("vm_core_maintained_create_us", ""),
    );
    s.push(
        "maintained.create_ms_sum",
        st.hist_sum("vm_core_maintained_create_us", "") / 1e3,
    );
    s.push(
        "maintained.extract_ms_p50",
        st.hist_p50("vm_core_maintained_extract_us", "") / 1e3,
    );
    s.push(
        "maintained.splice_us_per_vp",
        st.hist_sum("vm_core_maintained_splice_us", "") / stored,
    );
    s.push(
        "trustrank.iterations_p50",
        st.hist_p50("vm_core_trustrank_iterations", ""),
    );
    s.push("store.append_us_p50", st.hist_p50("vm_store_append_us", ""));
    s.push(
        "store.batch_records_p50",
        st.hist_p50("vm_store_batch_records", ""),
    );
    s.push("store.fsyncs", st.hist_count("vm_store_fsync_us", ""));
    s.push("repl.ship_us_p50", st.hist_p50("vm_repl_ship_us", ""));
    s.push(
        "repl.shipped_bytes_per_vp",
        st.value("vm_repl_shipped_bytes") / stored,
    );
    s.push(
        "reward.double_spend_rejected",
        st.value("vm_core_cash_double_spend_total"),
    );
}

/// Median of the run's samples of a per-round figure.
fn med(s: &Samples, name: &str) -> f64 {
    stats::median(s.get(name))
}

/// The latencies summarised once a round, and the percentiles taken of each.
const ROUND_PERCENTILES: [(&str, &[(&str, f64)]); 5] = [
    (
        "ingest_chunk_ms",
        &[("ingest_chunk_ms_p50", 50.0), ("ingest_chunk_ms_p95", 95.0)],
    ),
    (
        "investigate_first_ms",
        &[("investigate_first_ms_p50", 50.0)],
    ),
    (
        "investigate_local_ms",
        &[
            ("investigate_local_ms_p50", 50.0),
            ("investigate_local_ms_p90", 90.0),
        ],
    ),
    ("investigate_wide_ms", &[("investigate_wide_ms_p50", 50.0)]),
    ("reward_cycle_ms", &[("reward_cycle_ms_p50", 50.0)]),
];

/// Summarise the round that just ended. A metric is the median over rounds of
/// the round's own percentile: a host stall that slows one round of four then
/// moves nothing, where it would drag a percentile of the pooled samples.
pub fn close_round(s: &mut Samples) {
    for (raw, percentiles) in ROUND_PERCENTILES {
        let round = s.round_of(raw).to_vec();
        if !round.is_empty() {
            for &(metric, p) in percentiles {
                s.push(metric, stats::percentile_of(&round, p));
            }
        }
    }
}

/// The end-to-end metrics of a finished run, in catalog order.
pub fn end_to_end(s: &Samples, one_time_setup_s: f64) -> Vec<(&'static str, f64)> {
    let mut out = vec![("setup_s", one_time_setup_s + med(s, "setup_round_s"))];
    out.extend(END_TO_END[1..].iter().map(|d| (d.name, med(s, d.name))));
    out
}

/// Sample counts behind the end-to-end percentiles, over all rounds, for the
/// printed report.
pub fn sample_counts(s: &Samples) -> Vec<(&'static str, usize)> {
    ROUND_PERCENTILES
        .iter()
        .map(|(raw, _)| (*raw, s.get(raw).len()))
        .collect()
}

/// The per-layer metrics the workload's own rounds produced (the ladder adds
/// the rest): the median over rounds of each STATS figure, and the medians of
/// the split and step samples.
pub fn per_layer_from_rounds(s: &Samples) -> Vec<(&'static str, f64)> {
    const PER_ROUND: [&str; 27] = [
        "ingest_chunk_ms_p95",
        "service.coalesce_frames_p50",
        "service.request_us_submit_p50",
        "service.accept_sheds",
        "server.rejected_vps",
        "viewmap.phase_tables_share",
        "viewmap.phase_candidates_share",
        "viewmap.phase_keys_share",
        "viewmap.phase_linkage_share",
        "maintained.creates",
        "maintained.create_ms_sum",
        "maintained.extract_ms_p50",
        "maintained.splice_us_per_vp",
        "trustrank.iterations_p50",
        "store.append_us_p50",
        "store.batch_records_p50",
        "store.fsyncs",
        "store.segments",
        "repl.ship_us_p50",
        "repl.shipped_bytes_per_vp",
        "repl.drain_ms",
        "repl.catchup_us_per_vp",
        "repl.promote_ms",
        "repl.first_write_ms",
        "repl.first_investigate_ms",
        "reward.double_spend_rejected",
        "harness.late_share",
    ];
    let mut out: Vec<(&'static str, f64)> = PER_ROUND
        .into_iter()
        .map(|name| (name, med(s, name)))
        .collect();
    out.push(("store.bytes_per_vp", med(s, "wal_bytes_per_vp")));
    // On a single session no upload overlaps an investigation: every chunk
    // is an idle one.
    let idle = match s.get("server.chunk_ms_idle") {
        [] => s.get("ingest_chunk_ms"),
        split => split,
    };
    out.push(("server.chunk_ms_idle_p50", stats::median(idle)));
    out.push((
        "server.chunk_ms_during_investigate_p50",
        med(s, "server.chunk_ms_during_investigate"),
    ));
    out.push(("repl.lag_ops_p50", med(s, "repl.lag_ops")));
    out.push((
        "repl.lag_ops_max",
        s.get("repl.lag_ops").iter().copied().fold(0.0, f64::max),
    ));
    out.push(("reward.claim_ms_p50", med(s, "reward.claim_ms")));
    out.push(("reward.blind_sign_ms_p50", med(s, "reward.blind_sign_ms")));
    out.push(("reward.redeem_ms_p50", med(s, "reward.redeem_ms")));
    out
}
