//! The life of one cell, as the benchmark drives it: bring-up, the phases
//! (uploads, investigations, reward claims), then a restart and a new replica
//! joining. Each workload is a different mix of these phases on a fresh cell
//! per round; every phase goes through the production stack — `VmClient`,
//! loopback TCP, `VmService` with its default configuration, a durable
//! server.

use crate::adapter::{
    Cash, FollowerCell, GeoPos, Key, MinuteId, PrimaryCell, Purse, Server, Site, StoredVp,
};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::world::{self, SiteRng};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vm_crypto::RsaPublicKey;
use vm_service::{ClientError, ErrorCode, ServiceConfig, ServiceHandle, VmClient, VmService};

/// Radius of a local investigation site, metres (the paper's ~200 m).
pub const LOCAL_RADIUS_M: f64 = 200.0;
/// Radius of a wide site.
pub const WIDE_RADIUS_M: f64 = 3000.0;
/// Follow-up sites lie within this distance of the incident.
pub const FOLLOW_UP_WITHIN_M: f64 = 1000.0;
/// VPs of one upload request: a vehicle's hour, one VP a minute.
pub const CHUNK_VPS: usize = 60;
/// Every n-th wire investigation is repeated in process and compared.
const DIRECT_CHECK_EVERY: u64 = 16;
/// Slices the throughput median is taken over.
const THROUGHPUT_SLICES: usize = 20;

/// Sizes of a run. `full` is what `BENCHMARK.json` measures; `smoke` is a
/// twentieth of it, for the test that every name is emitted.
#[derive(Clone, Debug)]
pub struct Scale {
    pub key_bits: usize,
    /// Vehicle-hours uploaded in one ingest round.
    pub vehicles: usize,
    /// Minutes investigated after an ingest round, and local follow-ups each.
    pub probe_minutes: usize,
    pub probe_locals: usize,
    /// VPs of an incident minute or hot minute; a multiple of [`CHUNK_VPS`].
    pub minute_vps: usize,
    /// Incident minutes per investigate-churn round and their follow-ups.
    pub churn_minutes: usize,
    pub churn_locals: usize,
    pub churn_wides: usize,
    /// A late wave goes in before every `wave_every`-th follow-up.
    pub wave_every: usize,
    pub wave_vps: usize,
    /// Reward cycles per round on the single-session workloads.
    pub reward_cycles: usize,
    /// mixed-city: its hot minutes share `minute_vps`; the length of its
    /// concurrent phase; the upload period.
    pub hot_minutes: usize,
    pub mixed_secs: f64,
    pub mixed_period_ms: f64,
    pub min_rounds: usize,
    /// Chunks each rung of the ingest ladder pushes, sites the investigation
    /// ladder visits, and connect cycles for session set-up.
    pub ladder_chunks: usize,
    pub ladder_sites: usize,
    pub session_cycles: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            key_bits: 2048,
            vehicles: 1200,
            probe_minutes: 10,
            probe_locals: 6,
            minute_vps: 417 * CHUNK_VPS,
            churn_minutes: 2,
            churn_locals: 24,
            churn_wides: 3,
            wave_every: 3,
            wave_vps: 100,
            reward_cycles: 8,
            hot_minutes: 3,
            mixed_secs: 3.5,
            mixed_period_ms: 6.0,
            min_rounds: 2,
            ladder_chunks: 300,
            ladder_sites: 12,
            session_cycles: 200,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            key_bits: 512,
            vehicles: 100,
            probe_minutes: 3,
            probe_locals: 2,
            minute_vps: 21 * CHUNK_VPS,
            churn_minutes: 1,
            churn_locals: 5,
            churn_wides: 1,
            wave_every: 3,
            wave_vps: 5,
            reward_cycles: 2,
            hot_minutes: 3,
            mixed_secs: 0.35,
            mixed_period_ms: 6.0,
            min_rounds: 1,
            ladder_chunks: 25,
            ladder_sites: 2,
            session_cycles: 10,
        }
    }
}

/// What does not change during a run.
pub struct Ctx {
    pub seed: u64,
    pub scale: Scale,
    pub tracer: Tracer,
    pub key: Key,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
}

/// Everything a run measures: named samples, operation counts, and the
/// correctness checks that failed.
#[derive(Default)]
pub struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// How many samples of each name earlier rounds have already summarised.
    summarised: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// The samples of `name` taken since this was last asked: one round's.
    pub fn round_of(&mut self, name: &'static str) -> &[f64] {
        let all = self.values.get(name).map_or(&[][..], Vec::as_slice);
        let from = self.summarised.insert(name, all.len()).unwrap_or(0);
        &all[from..]
    }

    /// Count one operation; a failed one is missing from every latency.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// A correctness check: a failure makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn merge(&mut self, other: Samples) {
        for (k, mut v) in other.values {
            self.values.entry(k).or_default().append(&mut v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Upload one chunk on a pipelining session; true if every VP was stored.
pub fn submit_chunk(client: &mut VmClient, chunk: &[StoredVp]) -> bool {
    matches!(client.submit_pipelined(chunk), Ok(r) if r.iter().all(Result::is_ok))
}

/// Poll `done` every millisecond for at most a minute; did it come true?
pub fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// The owner's side of one reward cycle, on one session.
pub struct Claimant {
    pk: RsaPublicKey,
    purse: Purse,
    rng: StdRng,
    last_cash: Option<Cash>,
}

impl Claimant {
    pub fn new(client: &mut VmClient, seed: u64) -> Result<Claimant, ClientError> {
        Ok(Claimant {
            pk: client.public_key()?,
            purse: Purse::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xca5f),
            last_cash: None,
        })
    }

    /// claim → prepare → blind-sign → accept → redeem of claimable VP `k`,
    /// one unit. Records the cycle and, for the ladder, its three round trips.
    pub fn cycle(
        &mut self,
        ctx: &Ctx,
        s: &mut Samples,
        client: &mut VmClient,
        k: u64,
        parent: SpanId,
    ) {
        let (secret, id) = world::claimable(ctx.seed, k);
        let t0 = Instant::now();
        let ok = ctx.tracer.span("owner.reward_cycle", parent, k, |cycle| {
            let t = Instant::now();
            let units = ctx.tracer.span("client.claim_reward", cycle, k, |_| {
                client.claim_reward(id, &secret)
            });
            let claim_ms = ms_since(t);
            let Ok(units) = units else { return false };
            let (pending, blinded) = ctx.tracer.span("wallet.prepare", cycle, k, |_| {
                self.purse.prepare(&mut self.rng, &self.pk, units)
            });
            let t = Instant::now();
            let signed = ctx.tracer.span("client.blind_sign", cycle, k, |_| {
                client.blind_sign(id, &secret, &blinded)
            });
            let sign_ms = ms_since(t);
            let Ok(signed) = signed else { return false };
            let cash = ctx.tracer.span("wallet.accept_signed", cycle, k, |_| {
                self.purse.accept(&self.pk, pending, &signed)
            });
            if cash.len() != units || !cash.iter().all(|c| c.verify(&self.pk)) {
                return false;
            }
            let t = Instant::now();
            let redeemed = ctx.tracer.span("client.redeem", cycle, k, |_| {
                cash.iter().all(|c| client.redeem(c).is_ok())
            });
            s.push("reward.claim_ms", claim_ms);
            s.push("reward.blind_sign_ms", sign_ms);
            s.push("reward.redeem_ms", ms_since(t) / units.max(1) as f64);
            self.last_cash = cash.into_iter().next();
            redeemed
        });
        if s.op(ok) {
            s.push("reward_cycle_ms", ms_since(t0));
        }
    }

    /// Spend the last unit a second time: the cell must refuse it with the
    /// typed double-spend error.
    pub fn double_spend(&mut self, s: &mut Samples, client: &mut VmClient) {
        let Some(cash) = &self.last_cash else {
            s.check(false, || "no cash was minted to double-spend".into());
            return;
        };
        let refused = matches!(
            client.redeem(cash),
            Err(ClientError::Remote(ErrorCode::DoubleSpend, _))
        );
        s.check(refused, || {
            "a second redeem of one unit was not refused as a double spend".into()
        });
    }
}

/// How one minute is investigated: a first-touch local site at the incident,
/// then `locals` local and `wides` wide follow-ups nearby, wide ones evenly
/// spread, with a late-upload wave before every `wave_every`-th follow-up.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub locals: usize,
    pub wides: usize,
    pub wave_every: usize,
    pub wave_vps: usize,
}

/// One minute a cell holds, as the investigator knows it.
#[derive(Clone, Copy)]
pub struct MinuteInfo {
    pub minute: MinuteId,
    pub side_m: f64,
}

/// A serving cell and the one session the single-session phases use.
pub struct Cell {
    dir: PathBuf,
    pub server: Server,
    primary: Option<PrimaryCell>,
    live_follower: Option<(FollowerCell, PathBuf)>,
    service: ServiceHandle,
    pub client: VmClient,
    pub claimant: Claimant,
    /// Claimable VPs posted at bring-up and not yet claimed.
    next_claim: u64,
    wire_investigations: u64,
}

/// Which cell to bring up.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// Names the cell's directories inside the run's scratch directory.
    pub tag: &'a str,
    /// A primary with one live loopback follower, or a standalone cell.
    pub replicated: bool,
    /// Claimable VPs `0..claims` are posted on the reward board.
    pub claims: u64,
}

impl Cell {
    /// Open a fresh durable cell, seed the authority's trusted VPs, post the
    /// claimable VPs, serve it, and connect.
    pub fn bring_up(ctx: &Ctx, spec: CellSpec, trusted: Vec<StoredVp>) -> std::io::Result<Cell> {
        let CellSpec {
            tag,
            replicated,
            claims,
        } = spec;
        let dir = ctx.work.join(format!("{tag}-cell"));
        let (server, primary, live_follower) = if replicated {
            let (primary, _) = PrimaryCell::open(&dir, &ctx.key)?;
            let fdir = ctx.work.join(format!("{tag}-follower"));
            let follower = FollowerCell::open(&fdir, &ctx.key, primary.repl_addr())?;
            if !wait_until(|| primary.follower_count() == 1) {
                return Err(std::io::Error::other("the follower never connected"));
            }
            (primary.server(), Some(primary), Some((follower, fdir)))
        } else {
            (Server::open_durable(&ctx.key, &dir)?, None, None)
        };
        let n_trusted = trusted.len();
        if server.submit_trusted_batch(trusted) != n_trusted {
            return Err(std::io::Error::other("a trusted VP was refused"));
        }
        for k in 0..claims {
            server.post_reward(world::claimable(ctx.seed, k).1, 1);
        }
        let service = VmService::spawn(server.shared(), "127.0.0.1:0", ServiceConfig::default())?;
        let mut client = VmClient::connect(service.addr())?;
        let claimant = Claimant::new(&mut client, ctx.seed).map_err(std::io::Error::other)?;
        Ok(Cell {
            dir,
            server,
            primary,
            live_follower,
            service,
            client,
            claimant,
            next_claim: 0,
            wire_investigations: 0,
        })
    }

    /// Where further sessions connect.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.service.addr()
    }

    /// Closed loop, one pipelining session: upload `chunks` one request at a
    /// time. Records each chunk's latency, the slice-median throughput and
    /// the process CPU per VP; on a replicated cell also the replication lag
    /// after each chunk. `record_chunks` is false where the chunk latencies
    /// belong to another session's schedule.
    pub fn ingest(
        &mut self,
        ctx: &Ctx,
        s: &mut Samples,
        chunks: &[&[StoredVp]],
        record_chunks: bool,
        parent: SpanId,
    ) {
        let cpu0 = stats::process_cpu_us();
        let t0 = Instant::now();
        let mut done_at = Vec::with_capacity(chunks.len());
        let mut vps = 0usize;
        ctx.tracer.span("phase.ingest", parent, 0, |phase| {
            for (i, chunk) in chunks.iter().enumerate() {
                let t = Instant::now();
                let ok = ctx
                    .tracer
                    .span("client.submit_chunk", phase, i as u64, |_| {
                        submit_chunk(&mut self.client, chunk)
                    });
                if s.op(ok) && record_chunks {
                    s.push("ingest_chunk_ms", ms_since(t));
                }
                done_at.push(t0.elapsed().as_secs_f64());
                vps += chunk.len();
                if let (true, Some(primary)) = (ctx.tracer.recording(), &self.primary) {
                    let lag = primary.shipped_ops().saturating_sub(primary.watermark());
                    s.push("repl.lag_ops", lag as f64);
                }
            }
        });
        if vps > 0 {
            let per_chunk = vps as f64 / chunks.len() as f64;
            s.push(
                "ingest_vps_per_s",
                stats::median_of_slices(&done_at, per_chunk, THROUGHPUT_SLICES),
            );
            s.push(
                "ingest_cpu_us_per_vp",
                (stats::process_cpu_us() - cpu0) / vps as f64,
            );
        }
    }

    /// On a replicated cell: wait until the follower has acknowledged every
    /// shipped op, then compare the two cells' state digests.
    pub fn drain_and_compare(&mut self, s: &mut Samples) {
        let (Some(primary), Some((follower, _))) = (&self.primary, &self.live_follower) else {
            return;
        };
        let t = Instant::now();
        let drained = wait_until(|| primary.watermark() >= primary.shipped_ops());
        s.push("repl.drain_ms", ms_since(t));
        s.check(drained, || {
            "the follower never drained the shipped ops".into()
        });
        s.check(
            follower.server().state_digest() == self.server.state_digest(),
            || "follower digest differs from the primary's after drain".into(),
        );
    }

    /// One wire investigation, timed into `metric`. Every sixteenth is
    /// repeated in process on the same cell, untimed, and must agree — unless
    /// another session is writing, when the caller compares afterwards.
    pub fn investigate(
        &mut self,
        ctx: &Ctx,
        s: &mut Samples,
        metric: &'static str,
        minute: MinuteId,
        site: Site,
        parent: SpanId,
    ) {
        investigate_on(ctx, s, &mut self.client, metric, minute, site, parent);
        self.wire_investigations += 1;
        if self.wire_investigations.is_multiple_of(DIRECT_CHECK_EVERY) {
            self.compare_with_direct(s, minute, site);
        }
    }

    /// Wire and in-process investigation of one site must post the same ids.
    pub fn compare_with_direct(&mut self, s: &mut Samples, minute: MinuteId, site: Site) {
        let wire = self.client.investigate(minute, site).ok();
        let direct = self.server.investigate(minute, site);
        s.check(wire.as_ref() == Some(&direct), || {
            format!(
                "wire investigation of minute {} differs from the in-process one",
                minute.0
            )
        });
    }

    /// Investigate one minute by `schedule`; late waves are uploaded on the
    /// same session between follow-ups.
    pub fn investigate_minute(
        &mut self,
        ctx: &Ctx,
        s: &mut Samples,
        info: MinuteInfo,
        schedule: Schedule,
        parent: SpanId,
    ) {
        ctx.tracer
            .span("phase.investigate_minute", parent, info.minute.0, |phase| {
                let mut sites = SiteRng::new(ctx.seed, info.minute.0);
                let incident = sites.incident(info.side_m);
                let local = |center: GeoPos| Site {
                    center,
                    radius_m: LOCAL_RADIUS_M,
                };
                self.investigate(
                    ctx,
                    s,
                    "investigate_first_ms",
                    info.minute,
                    local(incident),
                    phase,
                );
                let follow_ups = schedule.locals + schedule.wides;
                let wide_stride = follow_ups / schedule.wides.max(1);
                for k in 0..follow_ups {
                    if schedule.wave_every > 0 && k % schedule.wave_every == 0 {
                        let wave = world::late_wave(
                            ctx.seed,
                            info.minute.0,
                            (k / schedule.wave_every) as u64,
                            schedule.wave_vps,
                            info.side_m,
                        );
                        let ok =
                            ctx.tracer
                                .span("client.submit_late_wave", phase, k as u64, |_| {
                                    submit_chunk(&mut self.client, &wave)
                                });
                        s.op(ok);
                    }
                    let center = sites.nearby(incident, FOLLOW_UP_WITHIN_M, info.side_m);
                    if schedule.wides > 0 && (k + 1) % wide_stride == 0 {
                        let site = Site {
                            center,
                            radius_m: WIDE_RADIUS_M,
                        };
                        self.investigate(ctx, s, "investigate_wide_ms", info.minute, site, phase);
                    } else {
                        self.investigate(
                            ctx,
                            s,
                            "investigate_local_ms",
                            info.minute,
                            local(center),
                            phase,
                        );
                    }
                }
            });
    }

    /// `cycles` reward cycles on the cell's session, then one double spend.
    pub fn reward_cycles(&mut self, ctx: &Ctx, s: &mut Samples, cycles: usize, parent: SpanId) {
        ctx.tracer.span("phase.rewards", parent, 0, |phase| {
            for _ in 0..cycles {
                let k = self.next_claim;
                self.next_claim += 1;
                self.claimant.cycle(ctx, s, &mut self.client, k, phase);
            }
        });
        self.claimant.double_spend(s, &mut self.client);
    }

    /// Shut the cell down — sessions, front-end, follower, server — and return
    /// its directory with the digest and VP count it held.
    fn shut_down(self) -> (PathBuf, u64, usize) {
        let held = (self.server.state_digest(), self.server.total_vps());
        let Cell {
            dir,
            server,
            primary,
            live_follower,
            service,
            client,
            ..
        } = self;
        drop((client, service));
        if let Some((follower, fdir)) = live_follower {
            drop(follower);
            let _ = std::fs::remove_dir_all(fdir);
        }
        drop((primary, server));
        (dir, held.0, held.1)
    }

    /// Shut the cell down and delete what it wrote.
    pub fn discard(self) {
        let (dir, ..) = self.shut_down();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The cell's STATS text, over the wire.
    pub fn stats_text(&mut self) -> String {
        self.client.stats().unwrap_or_default()
    }

    /// The operator's part of a round. Shut the cell down; measure the log;
    /// re-open it cold as a primary (`recover_s`) and require the state the
    /// cell had; let a fresh follower catch up on the whole log (`catchup_s`)
    /// and require that state again; then promote that follower behind its
    /// already running front-end and take one upload and one local
    /// investigation of `drill` through it.
    pub fn restart_and_catch_up(
        self,
        ctx: &Ctx,
        s: &mut Samples,
        drill: MinuteInfo,
        parent: SpanId,
    ) {
        let (dir, digest, total) = self.shut_down();
        let (bytes, segments) = segment_bytes(&dir);
        s.push("wal_bytes_per_vp", bytes as f64 / total.max(1) as f64);
        s.push("store.segments", segments as f64);

        let t = Instant::now();
        let reopened = ctx.tracer.span("operator.recover", parent, 0, |_| {
            PrimaryCell::open(&dir, &ctx.key)
        });
        let recover_s = t.elapsed().as_secs_f64();
        let Ok((primary, records)) = reopened else {
            s.op(false);
            return;
        };
        s.op(true);
        s.push("recover_s", recover_s);
        let recovered = primary.server();
        s.check(
            records == total
                && recovered.total_vps() == total
                && recovered.state_digest() == digest,
            || format!("recovered state differs: {records} records for {total} acknowledged VPs"),
        );

        let fdir = dir.with_extension("joiner");
        let t = Instant::now();
        let joined = ctx.tracer.span("operator.catch_up", parent, 0, |_| {
            let follower = FollowerCell::open(&fdir, &ctx.key, primary.repl_addr()).ok()?;
            let replica = follower.server();
            wait_until(|| replica.total_vps() == total).then_some(follower)
        });
        let catchup_s = t.elapsed().as_secs_f64();
        s.op(joined.is_some());
        if let Some(follower) = joined {
            s.push("catchup_s", catchup_s);
            s.push(
                "repl.catchup_us_per_vp",
                catchup_s * 1e6 / total.max(1) as f64,
            );
            s.check(follower.server().state_digest() == digest, || {
                "the new follower's digest differs from the primary's after catch-up".into()
            });
            failover_drill(ctx, s, follower, drill, parent);
        }
        drop((recovered, primary));
        let _ = std::fs::remove_dir_all(&fdir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One wire investigation on `client`, timed into `metric`.
pub fn investigate_on(
    ctx: &Ctx,
    s: &mut Samples,
    client: &mut VmClient,
    metric: &'static str,
    minute: MinuteId,
    site: Site,
    parent: SpanId,
) {
    let t = Instant::now();
    let reply = ctx
        .tracer
        .span("client.investigate", parent, minute.0, |_| {
            client.investigate(minute, site)
        });
    if s.op(reply.is_ok()) {
        s.push(metric, ms_since(t));
    }
}

/// Promote `follower` behind a front-end that was fenced until now, then
/// write one chunk and investigate one local site through that front-end.
fn failover_drill(
    ctx: &Ctx,
    s: &mut Samples,
    follower: FollowerCell,
    drill: MinuteInfo,
    parent: SpanId,
) {
    let front = VmService::spawn_with_role(
        follower.server().shared(),
        "127.0.0.1:0",
        ServiceConfig::default(),
        Some(follower.role()),
    );
    let session = front
        .as_ref()
        .ok()
        .and_then(|front| VmClient::connect(front.addr()).ok());
    let (Ok(front), Some(mut client)) = (front, session) else {
        s.check(false, || "the follower's front-end did not start".into());
        return;
    };
    let chunk = world::late_wave(
        ctx.seed,
        drill.minute.0,
        u16::MAX as u64,
        CHUNK_VPS,
        drill.side_m,
    );
    s.check(!submit_chunk(&mut client, &chunk), || {
        "a fenced follower accepted a write".into()
    });

    let t = Instant::now();
    let promoted = ctx
        .tracer
        .span("operator.promote", parent, 0, |_| follower.promote());
    s.push("repl.promote_ms", ms_since(t));
    s.check(promoted.is_ok(), || "promotion failed".into());

    let t = Instant::now();
    let ok = ctx.tracer.span("client.submit_chunk", parent, 0, |_| {
        submit_chunk(&mut client, &chunk)
    });
    if s.op(ok) {
        s.push("repl.first_write_ms", ms_since(t));
    }
    let mut sites = SiteRng::new(ctx.seed, drill.minute.0);
    let site = Site {
        center: sites.incident(drill.side_m),
        radius_m: LOCAL_RADIUS_M,
    };
    investigate_on(
        ctx,
        s,
        &mut client,
        "repl.first_investigate_ms",
        drill.minute,
        site,
        parent,
    );
    drop(client);
    drop(front);
}

/// Bytes and count of the segment files in a store directory.
fn segment_bytes(dir: &Path) -> (u64, usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".vmseg"))
        .filter_map(|e| e.metadata().ok())
        .fold((0, 0), |(bytes, n), m| (bytes + m.len(), n + 1))
}
