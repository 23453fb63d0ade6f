//! Churn equivalence: `ViewMapServer::build_viewmap` — the memoised
//! investigation path — must be bit-identical to a cold build at
//! **every** point of **any** ingest / evict / investigate history.
//!
//! The server admits a site through the minute's bounds table and links
//! only the members its viewlink memo (`viewmap_core::maintained`) has
//! not seen, so the property to hold is strong: after each operation of
//! a randomized history — single submits, cold and key-warm batches,
//! trusted batches, late waves of forged trajectories, retention sweeps
//! — and for sites at random centres and radii, the answer must equal
//! `Viewmap::build` over the same bucket field for field: the same
//! member allocations in bucket order, the same adjacency rows, the
//! same trusted indices, and (bit-for-bit) the same TrustRank scores.
//! Since `Viewmap::build` links through a fresh memo, that comparison
//! holds admission and incremental-vs-one-shot linking; the edge set is
//! also held to `vm_bench::oracle::naive_build`, a linker that shares
//! no code with the memo.
//! Sites of every radius matter here because each one leaves the memo
//! holding a different materialised set for the next one to extend.
//! The suite drives seeded random interleavings, the degenerate shapes
//! a fuzzer finds last (the empty minute, the single member, a minute
//! fully evicted and then resubmitted, a minute with no trusted VP),
//! and a threaded stress on one hot minute.
//!
//! Runs in the threaded release matrix alongside `parallel_equivalence`,
//! so the hot-minute race runs at both harness thread counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewmap_core::bloom::BloomFilter;
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId, DSRC_RADIUS_M, SECONDS_PER_VP};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::oracle::{cold_oracle, naive_build};
use vm_bench::worlds::{linked_minute, LINKED_SPACING_M};

/// Minutes the random histories spread their traffic across.
const MINUTES: u64 = 3;

/// VPs per minute pool (enough for real edges and for local sites that
/// admit a strict subset, small enough that a 40-step history with cold
/// builds per probe stays fast in debug).
const POOL: usize = 16;

/// Length of the populated stretch: `POOL` vehicles `LINKED_SPACING_M`
/// apart, each driving 450 m through its minute.
const EXTENT_M: f64 = POOL as f64 * LINKED_SPACING_M + 450.0;

/// A site covering every trajectory, so a probe verifies the whole
/// graph.
fn wide_site() -> Site {
    Site {
        center: GeoPos::new(EXTENT_M / 2.0, 0.0),
        radius_m: 1_000_000.0,
    }
}

/// A site at a random centre — inside the populated stretch, or far
/// outside it — with one of the radii investigations use: a point, the
/// paper's 200 m, a 3 km sweep, the whole area.
fn random_site(rng: &mut StdRng, minute: u64) -> Site {
    let center = if rng.gen_range(0..6u32) == 0 {
        GeoPos::new(1.0e5, -1.0e5)
    } else {
        GeoPos::new(
            rng.gen_range(-300.0..EXTENT_M + 300.0),
            minute as f64 * 10.0 + rng.gen_range(-200.0..200.0),
        )
    };
    let radius_m = [0.0, 200.0, 3_000.0, 1_000_000.0][rng.gen_range(0..4usize)];
    Site { center, radius_m }
}

fn anon(vp: StoredVp) -> AnonymousSubmission {
    AnonymousSubmission { session_id: 0, vp }
}

/// A late wave of forged trajectories. `screen()` checks VD count and
/// time order, not plausibility, so all of these are storable — and
/// each takes a different route through admission and linking: beyond
/// the fixed-point envelope (`FP_MAX_M`), NaN and infinite coordinates,
/// a city-spanning zig-zag (a `wild` member, above any radius cap), and
/// a VP with no comparable coordinate at all. An honest [`boundary_pair`]
/// rides along.
fn forged_wave(minute: u64, seed: u64) -> Vec<StoredVp> {
    let mut vps = linked_minute(4, minute, seed ^ 0xf0_96ed);
    for vp in &mut vps {
        vp.trusted = false;
    }
    vps[0].vds[10].loc.x = 2.5e9;
    vps[1].vds[3].loc = GeoPos::new(f64::NAN, 0.0);
    vps[1].vds[4].loc = GeoPos::new(f64::INFINITY, f64::NEG_INFINITY);
    for (s, vd) in vps[2].vds.iter_mut().enumerate() {
        vd.loc.x += if s % 2 == 0 { 40_000.0 } else { -40_000.0 };
    }
    for vd in &mut vps[3].vds {
        vd.loc = GeoPos::new(f64::NAN, f64::NAN);
    }
    vps.extend(boundary_pair(minute, seed));
    vps
}

/// Two untrusted vehicles exactly `DSRC_RADIUS_M` apart at every second,
/// Bloom-wired to each other: they link only because the range test is
/// `<=`, so an off-by-boundary linker disagrees with the naive oracle.
fn boundary_pair(minute: u64, seed: u64) -> Vec<StoredVp> {
    let mut vps = linked_minute(2, minute, seed);
    for vd in &mut vps[1].vds {
        vd.loc.x += DSRC_RADIUS_M - LINKED_SPACING_M;
    }
    let last = SECONDS_PER_VP as usize - 1;
    let keys: Vec<_> = vps
        .iter()
        .map(|vp| [vp.vds[0].bloom_key(), vp.vds[last].bloom_key()])
        .collect();
    (0..2)
        .map(|i| {
            let mut bloom = BloomFilter::default();
            for key in &keys[1 - i] {
                bloom.insert(key);
            }
            StoredVp::new(vps[i].id, vps[i].vds.clone(), bloom, false)
        })
        .collect()
}

/// Field-for-field equality with the cold oracle's result.
fn assert_identical(got: &Viewmap, cold: &Viewmap, ctx: &str) {
    assert_eq!(got.minute, cold.minute, "{ctx}: minute");
    assert_eq!(got.len(), cold.len(), "{ctx}: member count");
    for (i, (g, c)) in got.vps.iter().zip(&cold.vps).enumerate() {
        assert!(Arc::ptr_eq(g, c), "{ctx}: member {i} is another allocation");
    }
    assert_eq!(got.graph, cold.graph, "{ctx}: adjacency rows");
    assert_eq!(got.trusted, cold.trusted, "{ctx}: trusted indices");
}

/// The oracle: cold-build the site from the bucket, build it through
/// the server, and require the two identical in every observable, with
/// the edge set of the naive build — then require the investigation
/// entry point to hand an authority the answer the cold graph verifies
/// to.
fn probe(srv: &ViewMapServer, minute: MinuteId, site: Site, cfg: &ViewmapConfig, ctx: &str) {
    let cold = cold_oracle(srv, minute, site, cfg);
    let got = srv.build_viewmap(minute, site);
    assert_identical(&got, &cold, ctx);
    let naive = naive_build(&srv.minute_vps(minute), site, minute, cfg);
    assert_eq!(got.len(), naive.len(), "{ctx}: naive member count");
    for (i, (g, n)) in got.vps.iter().zip(&naive.vps).enumerate() {
        assert!(Arc::ptr_eq(g, n), "{ctx}: naive member {i}");
    }
    for i in 0..got.len() {
        let mut naive_row = naive.graph.neighbors(i).to_vec();
        naive_row.sort_unstable();
        assert_eq!(
            got.graph.neighbors(i),
            naive_row,
            "{ctx}: naive edges of member {i}"
        );
    }
    if srv.vp_count(minute) == 0 {
        assert!(!srv.has_maintained(minute), "{ctx}: no bucket, no memo");
    }
    if !got.is_empty() {
        assert!(srv.has_maintained(minute), "{ctx}: memo kept alive");
    }

    // TrustRank outcomes, bit for bit: identical graphs must produce
    // identical score vectors, top pick, and legitimate set.
    let (vc, cold_ids, _) = cold.verify_counted(&site, cfg);
    let (vg, _, _) = got.verify_counted(&site, cfg);
    assert_eq!(vc.scores.len(), vg.scores.len(), "{ctx}: score length");
    for (i, (a, b)) in vc.scores.iter().zip(&vg.scores).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: score bits at {i}");
    }
    assert_eq!(vc.top, vg.top, "{ctx}: top member");
    assert_eq!(vc.legitimate, vg.legitimate, "{ctx}: legitimate set");
    assert_eq!(
        srv.investigate(minute, site),
        cold_ids,
        "{ctx}: investigation ids"
    );
}

/// One seeded random history: deal each minute's pool out across
/// singles, cold batches, warm batches, and trusted batches, interleave
/// forged late waves and retention sweeps (which make evicted pools
/// dealable again), and after every step probe a random minute at two
/// random sites. The last minute's trusted anchor is never dealt, so
/// that minute has no trusted VP unless an extra one lands.
fn run_history(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ViewmapConfig::default();
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x5e_17e5);
    let srv = ViewMapServer::new(&mut key_rng, 512, cfg);

    let pools: Vec<Vec<StoredVp>> = (0..MINUTES).map(|m| linked_minute(POOL, m, seed)).collect();
    // Next undealt index per pool; eviction rewinds it so the same VPs
    // flow in again (their ids left the dedup index with the sweep).
    let first = |m: usize| usize::from(m as u64 == MINUTES - 1);
    let mut next: Vec<usize> = (0..MINUTES as usize).map(first).collect();
    let mut sent = 0usize;

    for step in 0..steps {
        let m = rng.gen_range(0..MINUTES) as usize;
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0..6u32) {
            // Single submit of the pool's next VP (authority channel for
            // the trusted anchor at index 0).
            0 => {
                if next[m] < POOL {
                    let vp = pools[m][next[m]].clone();
                    next[m] += 1;
                    sent += 1;
                    if vp.trusted {
                        srv.submit_trusted_batch(vec![vp])[0].expect("trusted stored");
                    } else {
                        srv.submit(anon(vp)).expect("stored");
                    }
                }
            }
            // Cold or key-warm batch of the next few VPs.
            1 | 2 => {
                let k = rng.gen_range(1..=5usize).min(POOL - next[m]);
                let chunk: Vec<StoredVp> = pools[m][next[m]..next[m] + k].to_vec();
                next[m] += k;
                sent += k;
                let (trusted, plain): (Vec<_>, Vec<_>) =
                    chunk.into_iter().partition(|vp| vp.trusted);
                if !trusted.is_empty() {
                    let r = srv.submit_trusted_batch(trusted);
                    assert!(r.iter().all(|x| x.is_ok()), "{ctx}: trusted batch");
                }
                if !plain.is_empty() {
                    let subs = plain.into_iter().map(anon);
                    let r = if rng.gen_bool(0.5) {
                        srv.submit_batch(subs)
                    } else {
                        srv.submit_batch_warm(subs)
                    };
                    assert!(r.iter().all(|x| x.is_ok()), "{ctx}: batch");
                }
            }
            // Trusted batch: re-anchor with a fresh authority VP drawn
            // from a disjoint pool (the per-step seed keeps its id
            // unique per draw).
            3 => {
                let extra = linked_minute(1, m as u64, seed ^ (0x7ab0 + step as u64));
                sent += extra.len();
                let r = srv.submit_trusted_batch(extra);
                assert!(r.iter().all(|x| x.is_ok()), "{ctx}: extra trusted");
            }
            // Late wave of forged trajectories into an already
            // investigated minute.
            4 => {
                let wave = forged_wave(m as u64, seed ^ (0x1a7e + step as u64));
                sent += wave.len();
                let r = srv.submit_batch(wave.into_iter().map(anon));
                assert!(r.iter().all(|x| x.is_ok()), "{ctx}: forged wave");
            }
            // Retention sweep; evicted minutes become resubmittable.
            _ => {
                let cutoff = MinuteId(rng.gen_range(0..=MINUTES));
                sent -= srv.evict_minutes_before(cutoff);
                for (em, n) in next.iter_mut().enumerate() {
                    if (em as u64) < cutoff.0 {
                        assert!(
                            !srv.has_maintained(MinuteId(em as u64)),
                            "{ctx}: viewlink memo survived eviction"
                        );
                        *n = first(em);
                    }
                }
            }
        }
        assert_eq!(srv.total_vps(), sent, "{ctx}: stored == sent − evicted");
        let pm = rng.gen_range(0..MINUTES);
        for k in 0..2 {
            let site = random_site(&mut rng, pm);
            probe(&srv, MinuteId(pm), site, &cfg, &format!("{ctx} site {k}"));
        }
    }
    for m in 0..MINUTES {
        probe(
            &srv,
            MinuteId(m),
            wide_site(),
            &cfg,
            &format!("seed {seed} end"),
        );
    }
}

#[test]
fn random_churn_histories_stay_equivalent() {
    for seed in 0..4u64 {
        run_history(seed, 40);
    }
}

#[test]
fn longer_history_one_seed() {
    run_history(0xc0ffee, 80);
}

#[test]
fn empty_minute_probe_is_equivalent_and_creates_no_memo() {
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(1);
    let srv = ViewMapServer::new(&mut rng, 512, cfg);
    // Nothing was ever submitted for these minutes: the answer is the
    // empty viewmap and no memo may come to exist — the wire hands any
    // u64 to `investigate`, so a memo per asked-for minute would be an
    // unbounded allocation.
    for m in [7u64, 1 << 40, u64::MAX] {
        probe(&srv, MinuteId(m), wide_site(), &cfg, "empty minute");
        assert!(!srv.has_maintained(MinuteId(m)), "minute {m} has no bucket");
    }
    let snap = srv.obs().snapshot();
    assert_eq!(snap.gauge("vm_core_maintained_bytes"), Some(0));
}

#[test]
fn single_member_minute_is_equivalent() {
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(2);
    let srv = ViewMapServer::new(&mut rng, 512, cfg);
    let pool = linked_minute(1, 0, 9);
    srv.submit_trusted_batch(vec![pool[0].clone()])[0].expect("stored");
    probe(&srv, MinuteId(0), wide_site(), &cfg, "single member");
    // Growing the singleton afterwards splices instead of rebuilding.
    let grown = linked_minute(3, 0, 10);
    let r = srv.submit_batch_warm(grown.into_iter().filter(|vp| !vp.trusted).map(anon));
    assert!(r.iter().all(|x| x.is_ok()));
    probe(&srv, MinuteId(0), wide_site(), &cfg, "singleton grown");
}

#[test]
fn minute_without_a_trusted_vp_is_equivalent() {
    // No trusted VP: coverage is the site radius plus the margin, and
    // verification has no anchor.
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(4);
    let srv = ViewMapServer::new(&mut rng, 512, cfg);
    let pool = linked_minute(POOL, 0, 12);
    let r = srv.submit_batch(pool.into_iter().filter(|vp| !vp.trusted).map(anon));
    assert!(r.iter().all(|x| x.is_ok()));
    let mut site_rng = StdRng::seed_from_u64(5);
    for k in 0..12 {
        let site = random_site(&mut site_rng, 0);
        probe(
            &srv,
            MinuteId(0),
            site,
            &cfg,
            &format!("no trusted, site {k}"),
        );
    }
    assert!(srv.investigate(MinuteId(0), wide_site()).is_empty());
}

#[test]
fn fully_evicted_then_resubmitted_minute_is_equivalent() {
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(3);
    let srv = ViewMapServer::new(&mut rng, 512, cfg);
    let pool = linked_minute(POOL, 0, 11);

    let (trusted, plain): (Vec<_>, Vec<_>) = pool.clone().into_iter().partition(|vp| vp.trusted);
    let r = srv.submit_trusted_batch(trusted.clone());
    assert!(r.iter().all(|x| x.is_ok()));
    let r = srv.submit_batch_warm(plain.clone().into_iter().map(anon));
    assert!(r.iter().all(|x| x.is_ok()));
    probe(&srv, MinuteId(0), wide_site(), &cfg, "before eviction");

    assert_eq!(srv.evict_minutes_before(MinuteId(1)), POOL);
    assert!(!srv.has_maintained(MinuteId(0)), "memo dropped with minute");
    probe(&srv, MinuteId(0), wide_site(), &cfg, "after full eviction");
    assert!(!srv.has_maintained(MinuteId(0)), "no bucket, no memo");

    // The same VPs flow back in (eviction forgot their ids); the fresh
    // memo must match a fresh cold build exactly.
    let r = srv.submit_trusted_batch(trusted);
    assert!(r.iter().all(|x| x.is_ok()));
    let r = srv.submit_batch_warm(plain.into_iter().map(anon));
    assert!(r.iter().all(|x| x.is_ok()));
    probe(
        &srv,
        MinuteId(0),
        wide_site(),
        &cfg,
        "resubmitted after eviction",
    );
}

#[test]
fn two_writers_and_two_investigators_on_one_hot_minute() {
    // Ingest and investigation race on a single minute. Writers never
    // link and investigators never hold the shard lock past the table
    // scan, so what can go wrong is a memo that mixes snapshots; the
    // whole-area investigator therefore checks every answer it gets
    // against a cold build of the prefix it saw (a whole-area site
    // admits its entire snapshot, and buckets are append-only, so the
    // answer's length names the prefix), and after the writers stop
    // every site must equal the cold oracle again. The overlap holds by
    // construction: after its first batch each writer waits for a
    // whole-area check to complete (on a 2-core host the writers could
    // otherwise finish before the investigator's first loop).
    const PER_WRITER: usize = 120;
    let cfg = ViewmapConfig::default();
    let mut rng = StdRng::seed_from_u64(6);
    let srv = ViewMapServer::new(&mut rng, 512, cfg);
    let minute = MinuteId(0);
    let pools: Vec<Vec<StoredVp>> = (0..2u64)
        .map(|w| linked_minute(PER_WRITER, 0, 0xaa + w))
        .collect();
    let done = AtomicBool::new(false);
    let go = std::sync::Barrier::new(4);
    let checks_done = AtomicUsize::new(0);

    let (mut sent, mut wide_checks) = (0usize, 0usize);
    std::thread::scope(|scope| {
        let writers: Vec<_> = pools
            .iter()
            .enumerate()
            .map(|(w, pool)| {
                let (srv, go, checks_done) = (&srv, &go, &checks_done);
                scope.spawn(move || {
                    go.wait();
                    // The trusted anchor, then batches of five
                    // alternating with single submits.
                    let mut ok =
                        srv.submit_trusted_batch(vec![pool[0].clone()])[0].is_ok() as usize;
                    for (k, chunk) in pool[1..].chunks(6).enumerate() {
                        let (batch, single) = chunk.split_at(chunk.len() - 1);
                        let subs = batch.iter().cloned().map(anon);
                        let r = if w == 0 {
                            srv.submit_batch(subs)
                        } else {
                            srv.submit_batch_warm(subs)
                        };
                        ok += r.iter().filter(|x| x.is_ok()).count();
                        if k == 0 {
                            // A dead investigator fails at its join, so
                            // waiting is bounded rather than forever.
                            let seen = checks_done.load(Ordering::SeqCst);
                            let deadline = Instant::now() + Duration::from_secs(60);
                            while checks_done.load(Ordering::SeqCst) == seen
                                && Instant::now() < deadline
                            {
                                std::thread::yield_now();
                            }
                        }
                        ok += srv.submit(anon(single[0].clone())).is_ok() as usize;
                    }
                    ok
                })
            })
            .collect();
        let whole = scope.spawn(|| {
            go.wait();
            let mut checks = 0usize;
            while !done.load(Ordering::SeqCst) {
                let got = srv.build_viewmap(minute, wide_site());
                let bucket = srv.minute_vps(minute);
                let cold = Viewmap::build(&bucket[..got.len()], wide_site(), minute, &cfg);
                assert_identical(&got, &cold, "whole-area answer mid-race");
                checks += 1;
                checks_done.store(checks, Ordering::SeqCst);
            }
            checks
        });
        let local = scope.spawn(|| {
            go.wait();
            let mut site_rng = StdRng::seed_from_u64(7);
            while !done.load(Ordering::SeqCst) {
                let site = random_site(&mut site_rng, 0);
                let got = srv.build_viewmap(minute, site);
                assert_eq!(got.graph.len(), got.len());
                srv.investigate(minute, site);
            }
        });
        for w in writers {
            sent += w.join().expect("writer");
        }
        done.store(true, Ordering::SeqCst);
        wide_checks = whole.join().expect("whole-area investigator");
        local.join().expect("local investigator");
    });
    assert_eq!(sent, 2 * PER_WRITER, "every upload acknowledged");
    assert_eq!(srv.total_vps(), sent, "total_vps == sent");
    assert!(wide_checks > 0, "the investigators ran beside the writers");

    let mut site_rng = StdRng::seed_from_u64(8);
    probe(
        &srv,
        minute,
        wide_site(),
        &cfg,
        "after the race, whole area",
    );
    for k in 0..16 {
        let site = random_site(&mut site_rng, 0);
        probe(
            &srv,
            minute,
            site,
            &cfg,
            &format!("after the race, site {k}"),
        );
    }
}
