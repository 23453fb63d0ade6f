//! The per-layer ladder of the traced run: one upload stream pushed through
//! successively deeper stacks, so that adjacent rungs differ by one layer,
//! and one incident minute investigated through successively longer paths.
//! Everything is timed from outside, with a span around each public call.
//!
//! Ingest rungs, all in 60-VP chunks, microseconds per VP:
//!
//! ```text
//! codec only            encode + decode of the SUBMIT frames, no socket
//! submit                one `submit` per VP, in memory
//! submit_batch          cold batch, in memory
//! submit_batch_warm     warm batch, in memory          = server.batch_warm
//!   on a vm-store log   + store.append_delta
//!     on a primary      + repl.ship_delta   (side rung: a live follower)
//!     over the wire     + service.wire_delta           = service.wire_rung
//! ```
//!
//! so `batch_warm + append_delta + wire_delta` is the wire rung exactly, and
//! the part of `wire_delta` that encode and decode do not cover is reported
//! as `service.wire_unattributed_us_per_vp`.

use crate::adapter::{self, codec, FollowerCell, PrimaryCell, Server, Site, StoredVp};
use crate::engine::{
    submit_chunk, wait_until, Cell, CellSpec, Ctx, Samples, CHUNK_VPS, FOLLOW_UP_WITHIN_M,
    LOCAL_RADIUS_M, WIDE_RADIUS_M,
};
use crate::stats;
use crate::trace::ROOT;
use crate::world::{self, SiteRng};
use std::time::Instant;
use vm_service::VmClient;

/// Fresh-server repetitions of each ingest rung; the rung is their median.
const REPS: usize = 3;
const LADDER_MINUTE: u64 = 20_000;

/// A standalone cell with nothing on its reward board.
fn standalone(tag: &str) -> CellSpec<'_> {
    CellSpec {
        tag,
        replicated: false,
        claims: 0,
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Push every chunk through `call`, a span around each; microseconds per VP.
fn time_chunks(
    ctx: &Ctx,
    s: &mut Samples,
    rung: &'static str,
    chunks: Vec<Vec<StoredVp>>,
    mut call: impl FnMut(Vec<StoredVp>) -> bool,
) -> f64 {
    let vps: usize = chunks.iter().map(Vec::len).sum();
    ctx.tracer.span(rung, ROOT, 0, |span| {
        let t = Instant::now();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let ok = ctx.tracer.span("call", span, i as u64, |_| call(chunk));
            s.op(ok);
        }
        us_since(t) / vps as f64
    })
}

/// Median over [`REPS`] repetitions of a rung, each on what `fresh` opens.
fn rung<T>(
    ctx: &Ctx,
    s: &mut Samples,
    name: &'static str,
    chunks: &[Vec<StoredVp>],
    mut fresh: impl FnMut(usize) -> std::io::Result<T>,
    mut call: impl FnMut(&mut T, Vec<StoredVp>) -> bool,
    mut after: impl FnMut(T, usize),
) -> std::io::Result<f64> {
    let mut reps = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut target = fresh(rep)?;
        reps.push(time_chunks(ctx, s, name, chunks.to_vec(), |chunk| {
            call(&mut target, chunk)
        }));
        after(target, rep);
    }
    Ok(stats::median(&reps))
}

/// Run the ladder and return its per-layer metrics.
pub fn run(ctx: &Ctx, s: &mut Samples) -> std::io::Result<Vec<(&'static str, f64)>> {
    let sc = &ctx.scale;
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let chunks = world::hour_stream(
        ctx.seed,
        LADDER_MINUTE,
        sc.ladder_chunks,
        world::side_for(sc.ladder_chunks),
        2,
        false,
    )
    .chunks;
    let vps = chunks.len() * CHUNK_VPS;
    let full = |stored: usize| stored == CHUNK_VPS;
    let memory = |_: usize| Ok::<_, std::io::Error>(Server::in_memory(&ctx.key));

    // Codec only.
    let mut wire = Vec::new();
    let t = Instant::now();
    ctx.tracer.span("ladder.encode", ROOT, 0, |_| {
        for (i, vp) in chunks.iter().flatten().enumerate() {
            codec::encode_submit(vp, i as u32, &mut wire);
        }
    });
    let encode_us = us_since(t) / vps as f64;
    out.push(("service.encode_us_per_vp", encode_us));
    out.push(("service.wire_bytes_per_vp", wire.len() as f64 / vps as f64));
    let t = Instant::now();
    let decoded = ctx.tracer.span("ladder.decode", ROOT, 0, |_| {
        let (mut at, mut n) = (0, 0);
        while let Some((vp, used)) = codec::decode_submit(&wire[at..]) {
            std::hint::black_box(vp);
            at += used;
            n += 1;
        }
        n
    });
    let decode_us = us_since(t) / vps as f64;
    out.push(("service.decode_us_per_vp", decode_us));
    s.check(decoded == vps, || {
        format!("{decoded} of {vps} SUBMIT frames decoded")
    });
    drop(wire);

    // In memory.
    let single = rung(
        ctx,
        s,
        "ladder.submit",
        &chunks,
        memory,
        |srv, chunk| chunk.into_iter().all(|vp| srv.submit(vp)),
        |_, _| (),
    )?;
    let cold = rung(
        ctx,
        s,
        "ladder.submit_batch",
        &chunks,
        memory,
        |srv, chunk| full(srv.submit_batch(chunk)),
        |_, _| (),
    )?;
    let warm = rung(
        ctx,
        s,
        "ladder.submit_batch_warm",
        &chunks,
        memory,
        |srv, chunk| full(srv.submit_batch_warm(chunk)),
        |_, _| (),
    )?;
    out.push(("server.submit_single_us_per_vp", single));
    out.push(("server.batch_cold_us_per_vp", cold));
    out.push(("server.batch_warm_us_per_vp", warm));
    out.push(("server.key_warm_delta_us_per_vp", warm - cold));

    // On a vm-store log; each repetition ends in a cold re-open of that log.
    let dir = |kind: &str, rep: usize| ctx.work.join(format!("ladder-{kind}-{rep}"));
    let mut recover = Vec::new();
    let mut recovered_all = true;
    let durable = rung(
        ctx,
        s,
        "ladder.durable",
        &chunks,
        |rep| Server::open_durable(&ctx.key, &dir("store", rep)),
        |srv, chunk| full(srv.submit_batch_warm(chunk)),
        |srv, rep| {
            let digest = srv.state_digest();
            drop(srv);
            let t = Instant::now();
            let reopened = ctx.tracer.span("ladder.reopen", ROOT, 0, |_| {
                Server::reopen_durable(&dir("store", rep))
            });
            recover.push(us_since(t) / vps as f64);
            recovered_all &=
                matches!(&reopened, Ok((srv, n)) if *n == vps && srv.state_digest() == digest);
            drop(reopened);
            let _ = std::fs::remove_dir_all(dir("store", rep));
        },
    )?;
    s.check(recovered_all, || {
        "a ladder store did not re-open to the state it held".into()
    });
    out.push(("store.append_delta_us_per_vp", durable - warm));
    out.push(("store.recover_us_per_vp", stats::median(&recover)));

    // On a replicated primary with one live follower.
    let mut replicas_equal = true;
    let replicated = rung(
        ctx,
        s,
        "ladder.replicated",
        &chunks,
        |rep| {
            let (primary, _) = PrimaryCell::open(&dir("primary", rep), &ctx.key)?;
            let follower =
                FollowerCell::open(&dir("follower", rep), &ctx.key, primary.repl_addr())?;
            wait_until(|| primary.follower_count() == 1);
            Ok((primary.server(), primary, follower))
        },
        |(srv, _, _), chunk| full(srv.submit_batch_warm(chunk)),
        |(srv, primary, follower), rep| {
            replicas_equal &= wait_until(|| primary.watermark() >= primary.shipped_ops())
                && follower.server().state_digest() == srv.state_digest();
            drop((srv, follower, primary));
            let _ = std::fs::remove_dir_all(dir("primary", rep));
            let _ = std::fs::remove_dir_all(dir("follower", rep));
        },
    )?;
    s.check(replicas_equal, || {
        "a ladder follower differs from its primary".into()
    });
    out.push(("repl.ship_delta_us_per_vp", replicated - durable));

    // Over the wire, into a standalone durable cell.
    let over_wire = rung(
        ctx,
        s,
        "ladder.wire",
        &chunks,
        |rep| {
            let tag = format!("ladder-wire-{rep}");
            Cell::bring_up(ctx, standalone(&tag), Vec::new())
        },
        |cell, chunk| submit_chunk(&mut cell.client, &chunk),
        |cell, _| cell.discard(),
    )?;
    out.push(("service.wire_rung_us_per_vp", over_wire));
    out.push(("service.wire_delta_us_per_vp", over_wire - durable));
    out.push((
        "service.wire_unattributed_us_per_vp",
        over_wire - durable - encode_us - decode_us,
    ));
    drop(chunks);

    investigations(ctx, s, &mut out)?;
    crypto(ctx, &mut out);
    Ok(out)
}

/// One incident minute on a served durable cell: `build_viewmap`, then
/// `verify_counted`, then the whole in-process `investigate`, then the same
/// over the wire, at local and wide sites; and the cost of opening a session.
fn investigations(
    ctx: &Ctx,
    s: &mut Samples,
    out: &mut Vec<(&'static str, f64)>,
) -> std::io::Result<()> {
    let sc = &ctx.scale;
    let pop = world::minute_population(
        ctx.seed,
        LADDER_MINUTE + 100,
        sc.minute_vps,
        world::side_for(sc.minute_vps),
        0,
        true,
    );
    let mut cell = Cell::bring_up(ctx, standalone("ladder-incident"), pop.trusted)?;
    for chunk in pop.vps.chunks(CHUNK_VPS) {
        s.op(cell.server.submit_batch_warm(chunk.to_vec()) == chunk.len());
    }

    let mut t_build = [Vec::new(), Vec::new()];
    let mut t_verify = [Vec::new(), Vec::new()];
    let mut members = [Vec::new(), Vec::new()];
    let mut edges_wide = Vec::new();
    let (mut direct_ms, mut wire_ms) = (Vec::new(), Vec::new());
    let mut sites = SiteRng::new(ctx.seed, pop.minute.0);
    let incident = sites.incident(pop.side_m);
    ctx.tracer.span("ladder.investigate", ROOT, 0, |span| {
        for i in 0..sc.ladder_sites {
            let center = sites.nearby(incident, FOLLOW_UP_WITHIN_M, pop.side_m);
            for (kind, radius_m) in [(0, LOCAL_RADIUS_M), (1, WIDE_RADIUS_M)] {
                let site = Site { center, radius_m };
                let req = i as u64;
                let t = Instant::now();
                let graph = ctx.tracer.span("server.build_viewmap", span, req, |_| {
                    cell.server.build_viewmap(pop.minute, site)
                });
                t_build[kind].push(us_since(t) / 1e3);
                members[kind].push(graph.members() as f64);
                if kind == 1 {
                    edges_wide.push(graph.edges() as f64);
                }
                let t = Instant::now();
                let (marked, _) = ctx
                    .tracer
                    .span("viewmap.verify_counted", span, req, |_| graph.verify(&site));
                t_verify[kind].push(us_since(t) / 1e3);
                drop(graph);

                let t = Instant::now();
                let direct = ctx.tracer.span("server.investigate", span, req, |_| {
                    cell.server.investigate(pop.minute, site)
                });
                let direct_took = us_since(t) / 1e3;
                let t = Instant::now();
                let wire = ctx.tracer.span("client.investigate", span, req, |_| {
                    cell.client.investigate(pop.minute, site)
                });
                let wire_took = us_since(t) / 1e3;
                if kind == 0 {
                    direct_ms.push(direct_took);
                    wire_ms.push(wire_took);
                }
                let agree =
                    s.op(wire.is_ok()) && wire.as_ref().ok() == Some(&direct) && direct == marked;
                s.check(agree, || {
                    "build + verify, in-process investigate and wire investigate disagree".into()
                });
            }
        }
    });
    out.push(("viewmap.build_local_ms_p50", stats::median(&t_build[0])));
    out.push(("viewmap.build_wide_ms_p50", stats::median(&t_build[1])));
    out.push(("viewmap.members_local_p50", stats::median(&members[0])));
    out.push(("viewmap.members_wide_p50", stats::median(&members[1])));
    out.push(("viewmap.edges_wide_p50", stats::median(&edges_wide)));
    out.push(("trustrank.verify_local_ms_p50", stats::median(&t_verify[0])));
    out.push(("trustrank.verify_wide_ms_p50", stats::median(&t_verify[1])));
    out.push((
        "service.investigate_delta_ms_p50",
        stats::median(&wire_ms) - stats::median(&direct_ms),
    ));

    let addr = cell.addr();
    let mut setup_us = Vec::with_capacity(sc.session_cycles);
    ctx.tracer.span("ladder.sessions", ROOT, 0, |span| {
        for i in 0..sc.session_cycles {
            let t = Instant::now();
            let ok = ctx
                .tracer
                .span("client.connect_and_first_reply", span, i as u64, |_| {
                    VmClient::connect(addr).is_ok_and(|mut c| c.total_vps().is_ok())
                });
            if s.op(ok) {
                setup_us.push(us_since(t));
            }
        }
    });
    out.push(("service.session_setup_us_p50", stats::median(&setup_us)));
    cell.discard();
    Ok(())
}

/// The primitives the other layers stand on.
fn crypto(ctx: &Ctx, out: &mut Vec<(&'static str, f64)>) {
    let msgs: Vec<[u8; 72]> = (0..100 * CHUNK_VPS as u64)
        .map(|i| {
            let mut m = [0u8; 72];
            m[..8].copy_from_slice(&i.to_le_bytes());
            m[64..].copy_from_slice(&ctx.seed.to_le_bytes());
            m
        })
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| &m[..]).collect();
    let sha: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(adapter::hash_many(std::hint::black_box(&refs)));
            us_since(t) * 1e3 / refs.len() as f64
        })
        .collect();
    out.push(("crypto.sha256_many_ns_per_msg", stats::median(&sha)));

    let (sign, verify) = ctx.key.signer_and_verifier(b"vm_perf ladder");
    let time = |f: &dyn Fn() -> bool, n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                us_since(t)
            })
            .collect()
    };
    out.push(("crypto.rsa_sign_ms", stats::median(&time(&sign, 5)) / 1e3));
    out.push(("crypto.rsa_verify_us", stats::median(&time(&verify, 50))));
}
