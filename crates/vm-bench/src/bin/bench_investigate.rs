//! City-scale investigation benchmark: times the end-to-end hot path —
//! submit → viewmap build → TrustRank verify → video-upload lookup — on
//! synthetic populations of 1k / 10k / 100k VPs, compares the optimized
//! engines against verbatim replicas of the pre-optimization algorithms,
//! and writes the results to `BENCH_investigate.json` so successive PRs
//! can track the performance trajectory.
//!
//! Two servers ingest identical populations so the two ingest paths and
//! the two build paths are measured end to end **and** proven equivalent:
//!
//! * server A takes one `submit` per VP (`submit_ms`) and builds its
//!   viewmap single-threaded with a cold key cache (`build_ms`);
//! * server B takes one `submit_batch_warm` (`batch_submit_ms`, which
//!   includes that path's ingest-side link-key precompute) and builds
//!   with the auto-parallel engine (`parallel_build_ms`).
//!
//! The run asserts the two viewmaps are identical member-for-member and
//! edge-for-edge — the same property the `vm-bench` equivalence tests
//! pin — so the speedup columns can never drift from a correctness
//! regression silently.
//!
//! Server B then also carries the production investigation path: its
//! first `build_viewmap` materialises the minute's viewlink memo
//! (`maintained_create_ms` — the site covers the whole area, so the
//! whole minute is linked once), then [`INGEST_RUNS`] seeded +n/100
//! churn delta waves are batch-ingested, a `build_viewmap` closing each
//! warm re-investigation by linking just the wave into the memo
//! (`incremental_reinvestigate_ms` is the median wave) — asserted
//! identical to a cold build over the grown bucket, and bounded at the
//! 100k tier to `build_ms / 50`.
//!
//! A third server runs the same batch ingest **through the durable
//! append log** (`vm-store`, `fsync=never` so the cost measured is the
//! encode + group-commit write, not the disk's sync latency):
//! `wal_append_ms` is that ingest, and `recover_ms` is a cold
//! `ViewMapServer::open` replaying the log back into an equivalent
//! server (checked against the live member counts). At the 10k tier the
//! run smoke-asserts `wal_append_ms ≤ 1.5 × batch_submit_ms` — the
//! durability tax on ingest must stay bounded — with both sides
//! measured as medians of [`INGEST_RUNS`] fresh-server runs so ±10%
//! single-shot host noise cannot fail a build with no regression in it.
//!
//! A fourth pair runs the same ingest through a **replicated** primary
//! (`vm-repl`, one loopback follower, every WAL append shipped as it
//! commits) and measures `repl_ack_ms`: the drain from the ingest
//! returning (locally durable, frames shipped) to the commit watermark
//! reaching the last shipped op — the follower has validated, replayed,
//! logged, and acked every record. That drain is the burst replication
//! lag an operator watches: how long "committed here" trails "safe to
//! fail over". At the 10k tier it must stay within 2× `wal_append_ms`,
//! asserted in-binary and gated again by the CI benchmark check.
//!
//! Environment knobs:
//! * `VM_BENCH_TIERS` — comma-separated VP counts (default
//!   `1000,10000,100000`); the naive baseline runs only at tiers ≤ 10k
//!   (it is quadratic-ish by construction).
//! * `VM_BENCH_OUT` — output path (default `BENCH_investigate.json`).
//! * `VM_BENCH_STORE_DIR` — where the WAL tier writes its temporary
//!   store (default: `/dev/shm` when present, else the system temp
//!   dir — RAM-backed so the metric captures the durable path's CPU
//!   cost, not the host disk's writeback throttling).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use viewmap_core::server::ViewMapServer;
use viewmap_core::solicit::VideoUpload;
use viewmap_core::types::{GeoPos, SECONDS_PER_VP};
use viewmap_core::viewmap::{BuildProfile, Viewmap, ViewmapConfig};
use viewmap_core::vp::{VpBuilder, VpKind};
use vm_bench::investigate::{naive_build, naive_verify, SynthWorld};
use vm_bench::worlds::cold_oracle;
use vm_crypto::RsaKeyPair;
use vm_repl::{Follower, FollowerConfig, Primary, ReplicationConfig};
use vm_service::{ServiceConfig, VmClient, VmService};
use vm_store::{Fsync, PersistentServer, StoreConfig};

const NAIVE_MAX_TIER: usize = 10_000;

/// Concurrent client sessions in the service round-trip tier.
const SERVICE_CLIENTS: usize = 8;

/// Tiers at or below this also cross-check the service-path
/// investigation against a direct in-process call on the same server
/// (an extra viewmap build, so the 100k tier skips it).
const SERVICE_CHECK_MAX_TIER: usize = 10_000;

/// The tier where the WAL-overhead smoke assertion applies (below it
/// the absolute times are noise-dominated).
const WAL_ASSERT_TIER: usize = 10_000;

/// WAL ingest must stay within this factor of in-memory batch ingest.
const WAL_OVERHEAD_LIMIT: f64 = 1.5;

/// The post-ingest ack drain (ingest returned → commit watermark at the
/// last shipped op, i.e. every op validated, replayed, logged, and
/// acked by the loopback follower) must stay within this factor of
/// plain WAL ingest. The follower's replay is a cold re-run of the
/// ingest the primary already paid for, so the drain is bounded by one
/// WAL-ingest-equivalent of work plus wire overhead (framing, decode,
/// checksum revalidation, acks); 2× leaves that overhead real headroom
/// and the ratio only drifts past it if the shipping path itself starts
/// costing more than the replay it delivers.
const REPL_ACK_LIMIT: f64 = 2.0;

/// Ingest runs per side at the assert tier; both `batch_submit_ms` and
/// `wal_append_ms` are then medians, so the asserted ratio reflects the
/// paths' real costs rather than one noisy single shot.
const INGEST_RUNS: usize = 3;

/// Instrumented ingest must stay within this factor of the same ingest
/// with the telemetry registry disabled (`Registry::set_enabled(false)`
/// turns every instrument call into one relaxed load and a branch).
/// Asserted at the 10k tier on `batch_submit_ms` and `wal_append_ms`,
/// with the enabled and disabled runs interleaved so host drift hits
/// both medians alike — the observability layer must be provably
/// nearly free on the hot path.
const OBS_OVERHEAD_LIMIT: f64 = 1.05;

/// The tier where the incremental-maintenance speed assertion applies
/// (the ISSUE's target: warm re-investigation of a 100k minute after a
/// +1k delta at a small fraction of the cold build).
const INCREMENTAL_ASSERT_TIER: usize = 100_000;

/// `incremental_reinvestigate_ms` must stay within `build_ms` divided
/// by this factor at the assert tier.
const INCREMENTAL_SPEEDUP_FLOOR: f64 = 50.0;

/// Delta batch size for the incremental path: `n / 100` (so the 100k
/// tier grows by the ISSUE's +1k), floored for the small tiers.
fn delta_size(n: usize) -> usize {
    (n / 100).max(10)
}

/// Median of the collected times (sorts in place).
fn median_ms(times: &mut [f64]) -> f64 {
    times.sort_unstable_by(f64::total_cmp);
    times[times.len() / 2]
}

struct TierResult {
    n_vps: usize,
    members: usize,
    edges: usize,
    submit_ms: f64,
    batch_submit_ms: f64,
    /// `batch_submit_ms` with telemetry disabled (assert tier only).
    batch_submit_disabled_ms: Option<f64>,
    wal_append_ms: f64,
    /// `wal_append_ms` with telemetry disabled (assert tier only).
    wal_append_disabled_ms: Option<f64>,
    repl_ack_ms: f64,
    recover_ms: f64,
    service_rt_ms: f64,
    build_ms: f64,
    phase: BuildProfile,
    parallel_build_ms: f64,
    maintained_create_ms: f64,
    incremental_reinvestigate_ms: f64,
    verify_ms: f64,
    upload_us: f64,
    naive_build_ms: Option<f64>,
    naive_verify_ms: Option<f64>,
}

impl TierResult {
    fn speedup_verify_path(&self) -> Option<f64> {
        match (self.naive_build_ms, self.naive_verify_ms) {
            (Some(nb), Some(nv)) => Some((nb + nv) / (self.build_ms + self.verify_ms)),
            _ => None,
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

fn json_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}"))
        .unwrap_or_else(|| "null".into())
}

fn run_tier(n: usize, seed: u64) -> TierResult {
    eprintln!("tier {n}: generating world...");
    let world = SynthWorld::generate(n, seed);
    let site = world.site;
    let minute = world.minute;
    let cfg = ViewmapConfig::default();

    // One genuine VP (real cascade) to drive the upload path end to end.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let mut builder = VpBuilder::new(
        &mut rng,
        0,
        GeoPos::new(world.side_m / 2.0, world.side_m / 2.0),
        VpKind::Actual,
    );
    let chunks: Vec<Vec<u8>> = (0..SECONDS_PER_VP)
        .map(|i| (0..64u64).map(|j| ((i * 7 + j) % 251) as u8).collect())
        .collect();
    for (i, c) in chunks.iter().enumerate() {
        builder.record_second(c, GeoPos::new(world.side_m / 2.0 + i as f64 * 8.0, 0.0));
    }
    let genuine = builder.finalize();
    let genuine_id = genuine.profile.id();

    // Small keys: RSA is not under test here. Separate servers so the
    // single/batch ingest paths and sequential/parallel build paths run
    // on identical populations without sharing key caches.
    let srv = ViewMapServer::new(&mut rng, 512, cfg);

    // ── Submit path A: one call per VP ──────────────────────────────
    let mut vps = world.vps;
    let trusted_vp = vps.remove(0);
    let batch_vps = vps.clone();
    let trusted_batch_vp = trusted_vp.clone();
    let wal_vps = vps.clone();
    let trusted_wal_vp = trusted_vp.clone();
    let submit_ms = time_ms(|| {
        srv.submit_trusted(trusted_vp).expect("trusted stored");
        for vp in vps.drain(..) {
            srv.submit(viewmap_core::upload::AnonymousSubmission { session_id: 0, vp })
                .expect("stored");
        }
        srv.submit(viewmap_core::upload::AnonymousSubmission {
            session_id: 0,
            vp: genuine.profile.clone().into_stored(),
        })
        .expect("genuine stored");
    });
    assert_eq!(srv.total_vps(), n + 1);

    // At the assert tier, the two sides of the WAL-overhead bound are
    // medians of INGEST_RUNS fresh-server runs: the bound has real but
    // modest headroom and the 1-core host's ±10% single-shot noise
    // would otherwise fail builds with no regression behind them.
    let runs = if n == WAL_ASSERT_TIER { INGEST_RUNS } else { 1 };

    // ── Submit path B: one batch (stripe locking + Bloom screening +
    //    link-key precompute amortized across the whole minute) ───────
    let mut batch_times = Vec::with_capacity(runs);
    let mut batch_disabled_times = Vec::with_capacity(runs);
    let mut srv_batch = None;
    for _ in 0..runs {
        // At the assert tier, interleave a telemetry-disabled run with
        // each instrumented one: host drift over the measurement window
        // then lands on both medians alike, so the overhead ratio
        // compares the two paths rather than two moments in time.
        if n == WAL_ASSERT_TIER {
            let server = ViewMapServer::new(&mut rng, 512, cfg);
            server.obs().set_enabled(false);
            let trusted = trusted_batch_vp.clone();
            let body = batch_vps.clone();
            let genuine_vp = genuine.profile.clone().into_stored();
            batch_disabled_times.push(time_ms(|| {
                let r = server.submit_trusted_batch(vec![trusted]);
                assert!(r.iter().all(|x| x.is_ok()), "trusted batch stored");
                let subs = body
                    .into_iter()
                    .chain(std::iter::once(genuine_vp))
                    .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
                let results = server.submit_batch_warm(subs);
                assert!(results.iter().all(|x| x.is_ok()), "batch stored");
            }));
            assert_eq!(server.total_vps(), n + 1);
        }
        let server = ViewMapServer::new(&mut rng, 512, cfg);
        let trusted = trusted_batch_vp.clone();
        let body = batch_vps.clone();
        let genuine_vp = genuine.profile.clone().into_stored();
        batch_times.push(time_ms(|| {
            let r = server.submit_trusted_batch(vec![trusted]);
            assert!(r.iter().all(|x| x.is_ok()), "trusted batch stored");
            let subs = body
                .into_iter()
                .chain(std::iter::once(genuine_vp))
                .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
            let results = server.submit_batch_warm(subs);
            assert!(results.iter().all(|x| x.is_ok()), "batch stored");
        }));
        assert_eq!(server.total_vps(), n + 1);
        srv_batch = Some(server);
    }
    let srv_batch = srv_batch.expect("at least one batch run");
    let batch_submit_ms = median_ms(&mut batch_times);
    let batch_submit_disabled_ms = (n == WAL_ASSERT_TIER).then(|| {
        let disabled = median_ms(&mut batch_disabled_times);
        assert!(
            batch_submit_ms <= disabled * OBS_OVERHEAD_LIMIT,
            "tier {n}: instrumented batch ingest {batch_submit_ms:.1} ms exceeds \
             {OBS_OVERHEAD_LIMIT}× telemetry-disabled {disabled:.1} ms"
        );
        disabled
    });

    // ── Submit path C: the same batch ingest through the durable
    //    append log (vm-store group commit, fsync=never — the cost
    //    measured is encode + one buffered write per batch), followed
    //    by a cold recovery of the whole store ───────────────────────
    // Prefer a RAM-backed directory: the tier metric is the CPU cost of
    // durable ingest (encode + checksum + one buffered write per
    // batch), and writing hundreds of MB to a shared disk would fold
    // unrelated writeback throttling into it (observed 3× run-to-run
    // swings on /tmp vs none on tmpfs).
    let store_base = std::env::var("VM_BENCH_STORE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            let shm = std::path::PathBuf::from("/dev/shm");
            if shm.is_dir() {
                shm
            } else {
                std::env::temp_dir()
            }
        });
    let scfg = StoreConfig {
        fsync: Fsync::Never,
    };
    let mut wal_times = Vec::with_capacity(runs);
    let mut wal_disabled_times = Vec::with_capacity(runs);
    let mut store_dir = store_base.join("unused");
    for run in 0..runs {
        // Interleaved telemetry-disabled run (assert tier only) — same
        // rationale as the in-memory batch pair above.
        if n == WAL_ASSERT_TIER {
            let ddir = store_base.join(format!("vm_bench_wal_d_{}_{n}_{run}", std::process::id()));
            let _ = std::fs::remove_dir_all(&ddir);
            let trusted = trusted_wal_vp.clone();
            let body = wal_vps.clone();
            let genuine_vp = genuine.profile.clone().into_stored();
            let srv_wal = ViewMapServer::persistent(&mut rng, 512, cfg, &ddir, scfg)
                .expect("open disabled store");
            srv_wal.obs().set_enabled(false);
            wal_disabled_times.push(time_ms(|| {
                let r = srv_wal.submit_trusted_batch(vec![trusted]);
                assert!(r.iter().all(|x| x.is_ok()), "trusted wal batch stored");
                let subs = body
                    .into_iter()
                    .chain(std::iter::once(genuine_vp))
                    .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
                let results = srv_wal.submit_batch_warm(subs);
                assert!(results.iter().all(|x| x.is_ok()), "wal batch stored");
            }));
            assert_eq!(srv_wal.total_vps(), n + 1);
            drop(srv_wal);
            let _ = std::fs::remove_dir_all(&ddir);
        }
        // A fresh directory per run: replaying run r's log into run
        // r+1's server would dedup-reject the whole batch.
        store_dir = store_base.join(format!("vm_bench_wal_{}_{n}_{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let trusted = trusted_wal_vp.clone();
        let body = wal_vps.clone();
        let genuine_vp = genuine.profile.clone().into_stored();
        let srv_wal =
            ViewMapServer::persistent(&mut rng, 512, cfg, &store_dir, scfg).expect("open store");
        wal_times.push(time_ms(|| {
            let r = srv_wal.submit_trusted_batch(vec![trusted]);
            assert!(r.iter().all(|x| x.is_ok()), "trusted wal batch stored");
            let subs = body
                .into_iter()
                .chain(std::iter::once(genuine_vp))
                .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
            let results = srv_wal.submit_batch_warm(subs);
            assert!(results.iter().all(|x| x.is_ok()), "wal batch stored");
        }));
        assert_eq!(srv_wal.total_vps(), n + 1);
        srv_wal.sync_wal().expect("wal flush");
        if run + 1 < runs {
            let _ = std::fs::remove_dir_all(&store_dir);
        }
    }
    let wal_append_ms = median_ms(&mut wal_times);
    let wal_append_disabled_ms = (n == WAL_ASSERT_TIER).then(|| {
        let disabled = median_ms(&mut wal_disabled_times);
        assert!(
            wal_append_ms <= disabled * OBS_OVERHEAD_LIMIT,
            "tier {n}: instrumented WAL ingest {wal_append_ms:.1} ms exceeds \
             {OBS_OVERHEAD_LIMIT}× telemetry-disabled {disabled:.1} ms"
        );
        disabled
    });

    let mut recovered_srv: Option<ViewMapServer> = None;
    let recover_ms = time_ms(|| {
        recovered_srv =
            Some(ViewMapServer::persistent(&mut rng, 512, cfg, &store_dir, scfg).expect("recover"));
    });
    let recovered_srv = recovered_srv.unwrap();
    assert_eq!(
        recovered_srv.total_vps(),
        n + 1,
        "recovery replays every VP"
    );
    assert_eq!(
        recovered_srv.vp_count(minute),
        srv.vp_count(minute),
        "recovered minute bucket size"
    );
    assert!(
        recovered_srv.lookup_vp(genuine_id).is_some(),
        "recovered id index routes"
    );
    drop(recovered_srv);
    let _ = std::fs::remove_dir_all(&store_dir);
    if n == WAL_ASSERT_TIER {
        assert!(
            wal_append_ms <= batch_submit_ms * WAL_OVERHEAD_LIMIT,
            "tier {n}: WAL ingest {wal_append_ms:.1} ms exceeds \
             {WAL_OVERHEAD_LIMIT}× in-memory batch {batch_submit_ms:.1} ms"
        );
    }

    // ── Submit path C′: the same durable ingest on a replicated
    //    primary shipping every WAL append to a loopback follower.
    //    `repl_ack_ms` is the **ack drain**: the time from the ingest
    //    returning (all records committed locally, all frames shipped)
    //    until the commit watermark reaches the last shipped op — the
    //    follower has validated, replayed, logged, and acked every
    //    record. This is the burst replication lag an operator watches:
    //    how long "committed here" trails "safe to fail over", and the
    //    completeness assert below is what the drained watermark buys:
    //    the replica holds every record the moment it hits zero. ──────
    let mut repl_times = Vec::with_capacity(runs);
    for run in 0..runs {
        let pdir = store_base.join(format!("vm_bench_repl_p_{}_{n}_{run}", std::process::id()));
        let fdir = store_base.join(format!("vm_bench_repl_f_{}_{n}_{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&fdir);
        let key = RsaKeyPair::generate(&mut rng, 512);
        let (primary, _) = Primary::open(
            &pdir,
            key.clone(),
            cfg,
            scfg,
            ReplicationConfig::default(),
            "127.0.0.1:0",
        )
        .expect("open replicated primary");
        let (follower, _) = Follower::open(
            &fdir,
            key,
            cfg,
            scfg,
            primary.repl_addr(),
            FollowerConfig::default(),
        )
        .expect("open follower");
        while primary.hub().follower_count() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trusted = trusted_wal_vp.clone();
        let body = wal_vps.clone();
        let genuine_vp = genuine.profile.clone().into_stored();
        let r = primary.server().submit_trusted_batch(vec![trusted]);
        assert!(r.iter().all(|x| x.is_ok()), "trusted repl batch stored");
        let subs = body
            .into_iter()
            .chain(std::iter::once(genuine_vp))
            .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
        let results = primary.server().submit_batch_warm(subs);
        assert!(results.iter().all(|x| x.is_ok()), "repl batch stored");
        // The ingest has returned: every record is locally durable and
        // every frame is shipped. Time the drain to the commit
        // watermark — the follower acking the last shipped op.
        repl_times.push(time_ms(|| {
            let deadline = Instant::now() + std::time::Duration::from_secs(120);
            while primary.hub().watermark() < primary.hub().shipped_ops() {
                assert!(
                    Instant::now() < deadline,
                    "follower never drained the shipped ops"
                );
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }));
        assert_eq!(primary.server().total_vps(), n + 1);
        assert_eq!(
            follower.server().total_vps(),
            n + 1,
            "drained watermark left the follower incomplete"
        );
        drop(follower);
        drop(primary);
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
    let repl_ack_ms = median_ms(&mut repl_times);
    if n == WAL_ASSERT_TIER {
        assert!(
            repl_ack_ms <= wal_append_ms * REPL_ACK_LIMIT,
            "tier {n}: replication ack drain {repl_ack_ms:.1} ms exceeds \
             {REPL_ACK_LIMIT}× WAL ingest {wal_append_ms:.1} ms"
        );
    }

    // ── Submit path D: the same population through the vm-service
    //    network front-end — SERVICE_CLIENTS concurrent pipelining
    //    sessions over loopback (the server coalesces each session's
    //    pipelined submits into warm batch ingest), ending with one
    //    investigation round trip over the wire ──────────────────────
    // The population clone for this tier is created here, after the
    // WAL/recover measurements: holding an extra copy of the whole
    // population across those paths would fold avoidable memory
    // pressure into their medians.
    let service_vps = batch_vps;
    let srv_service = std::sync::Arc::new(ViewMapServer::new(&mut rng, 512, cfg));
    srv_service
        .submit_trusted(trusted_batch_vp)
        .expect("service trusted stored");
    let service_handle = VmService::spawn(
        std::sync::Arc::clone(&srv_service),
        "127.0.0.1:0",
        ServiceConfig {
            workers: SERVICE_CLIENTS,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    let addr = service_handle.addr();
    let mut service_chunks: Vec<Vec<viewmap_core::vp::StoredVp>> = {
        let cuts = viewmap_core::par::even_cuts(service_vps.len(), SERVICE_CLIENTS);
        let mut rest = service_vps;
        let mut chunks = Vec::with_capacity(SERVICE_CLIENTS);
        for w in cuts.windows(2) {
            let tail = rest.split_off(w[1] - w[0]);
            chunks.push(rest);
            rest = tail;
        }
        chunks
    };
    let mut remote_ids: Vec<viewmap_core::types::VpId> = Vec::new();
    let genuine_service_vp = genuine.profile.clone().into_stored();
    let service_rt_ms = time_ms(|| {
        std::thread::scope(|scope| {
            for chunk in service_chunks.drain(..) {
                scope.spawn(move || {
                    let mut client = VmClient::connect(addr).expect("client connect");
                    let outcomes = client.submit_pipelined(&chunk).expect("pipelined submit");
                    assert!(outcomes.iter().all(|r| r.is_ok()), "service submits stored");
                });
            }
        });
        let mut client = VmClient::connect(addr).expect("investigator connect");
        client.submit(&genuine_service_vp).expect("genuine stored");
        remote_ids = client
            .investigate(minute, site)
            .expect("remote investigation");
    });
    assert_eq!(
        srv_service.total_vps(),
        n + 1,
        "service ingested everything"
    );
    if n <= SERVICE_CHECK_MAX_TIER {
        let direct = srv_service.investigate(minute, site);
        assert_eq!(remote_ids, direct, "wire investigation equals in-process");
    }
    drop(service_handle);
    drop(srv_service);

    // ── Build path A: sequential, cold key cache, phase-profiled ────
    let mut vm: Option<Viewmap> = None;
    let mut phase = BuildProfile::default();
    let build_ms = time_ms(|| {
        let candidates = srv.minute_vps(minute);
        let (built, p) = Viewmap::build_with_threads(&candidates, site, minute, &cfg, 1);
        vm = Some(built);
        phase = p;
    });
    let vm = vm.unwrap();
    let members = vm.len();
    let edges = vm.edge_count();

    // ── Build path B: the cold engine, auto-parallel, on the
    //    batch-ingested (key-warm) store — the oracle the production
    //    path is checked against below ─────────────────────────────────
    let mut pvm: Option<Viewmap> = None;
    let parallel_build_ms = time_ms(|| {
        pvm = Some(cold_oracle(&srv_batch, minute, site, &cfg));
    });
    let pvm = pvm.unwrap();
    assert_eq!(pvm.len(), members, "parallel/sequential member mismatch");
    assert_eq!(pvm.edge_count(), edges, "parallel/sequential edge mismatch");
    for i in 0..members {
        assert_eq!(pvm.vps[i].id, vm.vps[i].id, "member order differs at {i}");
        assert_eq!(pvm.adj[i], vm.adj[i], "adjacency differs at node {i}");
    }
    drop(pvm);

    // ── Build path E: the production path, `build_viewmap` through
    //    the minute's viewlink memo — the first call materialises it
    //    (`maintained_create_ms`; this site admits the whole minute),
    //    then time a warm re-investigation: a +n/100 churn delta
    //    batch-ingested (no link work at ingest) followed by a
    //    `build_viewmap` that links just the delta and extracts. The
    //    result is asserted node- and edge-identical to a cold build
    //    over the grown bucket, so the speedup column can never hide a
    //    divergence. ──────────────────────────────────────────────────
    let maintained_create_ms = time_ms(|| {
        let mvm = srv_batch.build_viewmap(minute, site);
        assert_eq!(mvm.len(), members, "memo first-touch members");
        assert_eq!(mvm.edge_count(), edges, "memo first-touch edges");
    });
    assert!(srv_batch.has_maintained(minute), "memo kept alive");
    // Median of INGEST_RUNS waves, each a fresh disjoint delta (wave 0
    // is the pinned one): a single ~60 ms measurement on the 1-core
    // host can catch a scheduler hiccup and blow the 50× bound with no
    // regression behind it — the same reason the WAL bound uses
    // medians.
    let mut incr_times = Vec::with_capacity(INGEST_RUNS);
    let mut ivm: Option<Viewmap> = None;
    let mut n_delta = 0usize;
    for wave in 0..INGEST_RUNS as u64 {
        let delta = SynthWorld::delta_wave(world.side_m, delta_size(n), seed, wave);
        n_delta += delta.len();
        incr_times.push(time_ms(|| {
            let subs = delta
                .into_iter()
                .map(|vp| viewmap_core::upload::AnonymousSubmission { session_id: 0, vp });
            let results = srv_batch.submit_batch_warm(subs);
            assert!(results.iter().all(|x| x.is_ok()), "delta stored");
            ivm = Some(srv_batch.build_viewmap(minute, site));
        }));
    }
    let incremental_reinvestigate_ms = median_ms(&mut incr_times);
    let ivm = ivm.unwrap();
    assert_eq!(srv_batch.total_vps(), n + 1 + n_delta);
    let cold_grown = cold_oracle(&srv_batch, minute, site, &cfg);
    assert_eq!(ivm.len(), cold_grown.len(), "incremental member mismatch");
    assert_eq!(
        ivm.edge_count(),
        cold_grown.edge_count(),
        "incremental edge mismatch"
    );
    for i in 0..ivm.len() {
        assert_eq!(
            ivm.vps[i].id, cold_grown.vps[i].id,
            "incremental member order differs at {i}"
        );
        assert_eq!(
            ivm.adj[i], cold_grown.adj[i],
            "incremental adjacency differs at node {i}"
        );
    }
    drop(ivm);
    drop(cold_grown);
    if n == INCREMENTAL_ASSERT_TIER {
        assert!(
            incremental_reinvestigate_ms <= build_ms / INCREMENTAL_SPEEDUP_FLOOR,
            "tier {n}: incremental re-investigation {incremental_reinvestigate_ms:.1} ms \
             exceeds cold build {build_ms:.1} ms / {INCREMENTAL_SPEEDUP_FLOOR}"
        );
    }

    // ── Verify path (CSR TrustRank + site BFS) ──────────────────────
    let mut marked = 0usize;
    let verify_ms = time_ms(|| {
        let (v, _) = vm.verify(&site, &cfg);
        marked = v.legitimate.len();
    });
    eprintln!("tier {n}: {members} members, {edges} viewlinks, {marked} marked legitimate");

    // ── Upload path (id-indexed lookup + cascade validation) ────────
    srv.solicit(genuine_id);
    let upload = VideoUpload {
        vp_id: genuine_id,
        chunks,
    };
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        srv.upload_video(&upload).expect("upload validates");
    }
    let upload_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    // ── Naive baseline ──────────────────────────────────────────────
    let (mut naive_build_ms, mut naive_verify_ms) = (None, None);
    if n <= NAIVE_MAX_TIER {
        let candidates = srv.minute_vps(minute);
        let mut nvm: Option<Viewmap> = None;
        naive_build_ms = Some(time_ms(|| {
            nvm = Some(naive_build(&candidates, site, minute, &cfg));
        }));
        let nvm = nvm.unwrap();
        assert_eq!(
            nvm.edge_count(),
            edges,
            "naive and optimized construction disagree"
        );
        naive_verify_ms = Some(time_ms(|| {
            let v = naive_verify(&nvm, &site, &cfg);
            assert_eq!(v.legitimate.len(), marked, "verification outcomes differ");
        }));
    }

    TierResult {
        n_vps: n,
        members,
        edges,
        submit_ms,
        batch_submit_ms,
        batch_submit_disabled_ms,
        wal_append_ms,
        wal_append_disabled_ms,
        repl_ack_ms,
        recover_ms,
        service_rt_ms,
        build_ms,
        phase,
        parallel_build_ms,
        maintained_create_ms,
        incremental_reinvestigate_ms,
        verify_ms,
        upload_us,
        naive_build_ms,
        naive_verify_ms,
    }
}

/// One tier, fully reported: run it, print the human summary line to
/// stderr, and return the JSON row for the output file.
fn run_tier_reported(n: usize) -> String {
    let r = run_tier(n, 42);
    report_tier(&r);
    tier_row_json(&r)
}

fn report_tier(r: &TierResult) {
    let n = r.n_vps;
    eprintln!(
        "tier {n}: submit {:.1} ms (batch {:.1} ms, wal {:.1} ms, repl-ack {:.1} ms, \
             recover {:.1} ms, service {:.1} ms) | \
             build {:.1} ms (parallel {:.1} ms, incremental {:.1} ms after \
             {:.1} ms create) | \
             phases tables {:.1} / candidates {:.1} / keys {:.1} / linkage {:.1} ms | \
             verify {:.1} ms | upload {:.1} µs{}",
        r.submit_ms,
        r.batch_submit_ms,
        r.wal_append_ms,
        r.repl_ack_ms,
        r.recover_ms,
        r.service_rt_ms,
        r.build_ms,
        r.parallel_build_ms,
        r.incremental_reinvestigate_ms,
        r.maintained_create_ms,
        r.phase.tables_ms,
        r.phase.candidates_ms,
        r.phase.keys_ms,
        r.phase.linkage_ms,
        r.verify_ms,
        r.upload_us,
        r.speedup_verify_path()
            .map(|s| format!(" | verify-path speedup {s:.1}×"))
            .unwrap_or_default(),
    );
    if let (Some(bd), Some(wd)) = (r.batch_submit_disabled_ms, r.wal_append_disabled_ms) {
        eprintln!(
            "tier {n}: telemetry overhead — batch {:.1}/{bd:.1} ms ({:.3}×), \
             wal {:.1}/{wd:.1} ms ({:.3}×)",
            r.batch_submit_ms,
            r.batch_submit_ms / bd,
            r.wal_append_ms,
            r.wal_append_ms / wd,
        );
    }
}

fn tier_row_json(r: &TierResult) -> String {
    format!(
        concat!(
            "    {{\"n_vps\": {}, \"members\": {}, \"edges\": {}, ",
            "\"submit_ms\": {:.3}, \"batch_submit_ms\": {:.3}, ",
            "\"batch_submit_disabled_ms\": {}, ",
            "\"wal_append_ms\": {:.3}, \"wal_append_disabled_ms\": {}, ",
            "\"repl_ack_ms\": {:.3}, \"recover_ms\": {:.3}, ",
            "\"service_rt_ms\": {:.3}, ",
            "\"build_ms\": {:.3}, ",
            "\"phase_ms\": {{\"tables\": {:.3}, \"candidates\": {:.3}, ",
            "\"keys\": {:.3}, \"linkage\": {:.3}}}, ",
            "\"parallel_build_ms\": {:.3}, ",
            "\"maintained_create_ms\": {:.3}, ",
            "\"incremental_reinvestigate_ms\": {:.3}, ",
            "\"verify_ms\": {:.3}, ",
            "\"upload_us\": {:.3}, \"naive_build_ms\": {}, ",
            "\"naive_verify_ms\": {}, \"verify_path_speedup\": {}}}"
        ),
        r.n_vps,
        r.members,
        r.edges,
        r.submit_ms,
        r.batch_submit_ms,
        json_opt(r.batch_submit_disabled_ms),
        r.wal_append_ms,
        json_opt(r.wal_append_disabled_ms),
        r.repl_ack_ms,
        r.recover_ms,
        r.service_rt_ms,
        r.build_ms,
        r.phase.tables_ms,
        r.phase.candidates_ms,
        r.phase.keys_ms,
        r.phase.linkage_ms,
        r.parallel_build_ms,
        r.maintained_create_ms,
        r.incremental_reinvestigate_ms,
        r.verify_ms,
        r.upload_us,
        json_opt(r.naive_build_ms),
        json_opt(r.naive_verify_ms),
        json_opt(r.speedup_verify_path()),
    )
}

fn main() {
    // Child mode: measure exactly one tier in this (pristine) process
    // and emit its JSON row on stdout. The parent spawns one child per
    // tier so no tier's measurements run on a heap shaped by another
    // tier's allocation history — the 100k incremental column in
    // particular reads ~45% slower on a heap the small tiers have
    // already fragmented, which is measurement pollution, not a
    // property of the code under test.
    if let Ok(t) = std::env::var("VM_BENCH_CHILD_TIER") {
        let n: usize = t.parse().expect("VM_BENCH_CHILD_TIER must be a tier size");
        println!("{}", run_tier_reported(n));
        return;
    }

    let tiers: Vec<usize> = std::env::var("VM_BENCH_TIERS")
        .unwrap_or_else(|_| "1000,10000,100000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path =
        std::env::var("VM_BENCH_OUT").unwrap_or_else(|_| "BENCH_investigate.json".into());

    let exe = std::env::current_exe().expect("bench binary path");
    let tier_json: Vec<String> = tiers
        .iter()
        .map(|&n| {
            let out = std::process::Command::new(&exe)
                .env("VM_BENCH_CHILD_TIER", n.to_string())
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn tier child");
            assert!(out.status.success(), "tier {n} child failed");
            let row = String::from_utf8(out.stdout).expect("tier row utf8");
            let row = row.trim_end();
            assert!(
                row.starts_with("    {") && row.ends_with('}'),
                "tier {n} child emitted malformed row: {row:?}"
            );
            row.to_string()
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"investigate\",\n  \"unit_note\": \"times in ms (upload in us); \
         naive_* are the pre-optimization algorithms on the same population; \
         batch_submit_ms is one submit_batch call (includes ingest-side link-key precompute); \
         wal_append_ms is the same batch ingest through the vm-store append log \
         (group commit, fsync=never) and recover_ms is a cold ViewMapServer::open \
         replaying that log (decode + re-ingest + parallel key warm); \
         repl_ack_ms is the post-ingest ack drain on a vm-repl primary with one \
         loopback follower: the time from the durable ingest returning until the \
         commit watermark reaches the last shipped op (every WAL append validated, \
         replayed, logged, and acked by the follower), i.e. how long committed-here \
         trails safe-to-fail-over after a burst; it must stay within 2x \
         wal_append_ms at the 10k tier; at the 10k \
         assert tier batch_submit_ms, wal_append_ms, and repl_ack_ms are medians of 3 runs; \
         batch_submit_disabled_ms and wal_append_disabled_ms (assert tier only) repeat \
         the same ingests with the vm-obs telemetry registry disabled, runs interleaved \
         with the instrumented ones; the instrumented medians must stay within 1.05x \
         the disabled ones — the metrics layer is provably nearly free on the hot path; \
         service_rt_ms is the same population ingested through the vm-service TCP \
         front-end — 8 concurrent pipelining VmClient sessions over loopback \
         (server-side coalescing into warm batches) plus one investigation round \
         trip on the wire; \
         phase_ms is the per-phase split of the sequential cold build_ms \
         (tables/candidates/keys/linkage, from Viewmap::build_with_threads); \
         parallel_build_ms is the auto-parallel cold engine on the batch-ingested (key-warm) store, \
         asserted member- and edge-identical to the sequential cold build_ms; \
         maintained_create_ms is the first build_viewmap on that store (the whole-area site \
         materialises the minute's viewlink memo once), and incremental_reinvestigate_ms is a warm \
         re-investigation after it exists — one submit_batch_warm of a +n/100 churn \
         delta wave plus a build_viewmap that links the wave into the memo and extracts, the \
         median of 3 disjoint waves, asserted node- and edge-identical to a cold \
         build over the grown bucket; at the 100k tier it must stay within \
         build_ms/50; each tier is measured in its own child process so no tier \
         runs on a heap shaped by another tier's allocation history\",\n  \
         \"tiers\": [\n{}\n  ]\n}}\n",
        tier_json.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
