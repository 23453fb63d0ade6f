//! The determinism harness for viewmap construction and batch ingest.
//!
//! * `Viewmap::build` must reproduce the paper's edge definition
//!   computed the O(n²) way — a shared in-range second plus mutual Bloom
//!   linkage — with every adjacency row ascending, across random
//!   populations, densities, degenerate shapes, time-gapped VDs and
//!   off-grid outliers;
//! * `ViewMapServer::submit_batch` must leave the server in a state
//!   indistinguishable from sequential `submit` calls, and the viewmap
//!   built from a batch-ingested store must equal the one built from a
//!   singles-ingested store;
//! * a fixed-seed 100k-VP world is pinned down to member/edge counts and
//!   an edge checksum, so no future refactor can silently reshape
//!   city-scale viewmap topology.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use viewmap_core::maintained::{Admitted, MaintainedViewmap};
use viewmap_core::server::ViewMapServer;
use viewmap_core::types::{GeoPos, MinuteId};
use viewmap_core::upload::AnonymousSubmission;
use viewmap_core::viewmap::{Site, Viewmap, ViewmapConfig};
use viewmap_core::vp::StoredVp;
use vm_bench::oracle::edge_checksum;
use vm_bench::worlds::SynthWorld;

/// Assert two viewmaps are bit-for-bit the same construction.
fn assert_identical(a: &Viewmap, b: &Viewmap, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: member count");
    assert_eq!(a.trusted, b.trusted, "{ctx}: trusted set");
    assert_eq!(a.minute, b.minute, "{ctx}: minute");
    for i in 0..a.len() {
        assert_eq!(a.vps[i].id, b.vps[i].id, "{ctx}: member order at {i}");
    }
    assert_eq!(a.graph, b.graph, "{ctx}: adjacency rows");
}

/// Build with `Viewmap::build` and require exactly the edges an O(n²)
/// scan over `min_aligned_distance` + `mutually_linked` finds, in
/// ascending rows.
fn assert_exhaustive(vps: &[Arc<StoredVp>], site: Site, minute: MinuteId, ctx: &str) -> Viewmap {
    let cfg = ViewmapConfig::default();
    let vm = Viewmap::build(vps, site, minute, &cfg);
    for i in 0..vm.len() {
        assert!(
            vm.graph.neighbors(i).windows(2).all(|w| w[0] < w[1]),
            "{ctx}: row {i} not ascending"
        );
        for j in (i + 1)..vm.len() {
            let close = vm.vps[i]
                .min_aligned_distance(&vm.vps[j])
                .is_some_and(|d| d <= cfg.dsrc_radius_m);
            let expect = close && vm.vps[i].mutually_linked(&vm.vps[j]);
            assert_eq!(
                vm.graph.neighbors(i).contains(&(j as u32)),
                expect,
                "{ctx}: edge {i}-{j} disagrees with oracle"
            );
        }
    }
    vm
}

fn arcs(vps: &[StoredVp]) -> Vec<Arc<StoredVp>> {
    vps.iter().cloned().map(Arc::new).collect()
}

#[test]
fn build_matches_oracle_across_random_populations() {
    for (n, seed) in [(60usize, 7u64), (300, 11), (900, 23)] {
        let w = SynthWorld::generate(n, seed);
        assert_exhaustive(
            &arcs(&w.vps),
            w.site,
            w.minute,
            &format!("n={n} seed={seed}"),
        );
    }
}

#[test]
fn build_matches_oracle_across_densities() {
    // Rescale a world's coordinates to sweep sparse→dense geometry while
    // keeping the Bloom wiring fixed (wiring is an input, not a function
    // of geometry, so any wiring is a legal population).
    let base = SynthWorld::generate(400, 31);
    for scale in [0.25f64, 1.0, 4.0] {
        let mut vps = base.vps.clone();
        for vp in &mut vps {
            for vd in &mut vp.vds {
                vd.loc.x *= scale;
                vd.loc.y *= scale;
                vd.initial_loc.x *= scale;
                vd.initial_loc.y *= scale;
            }
        }
        let site = Site {
            center: GeoPos::new(base.site.center.x * scale, base.site.center.y * scale),
            radius_m: base.site.radius_m * scale.max(1.0),
        };
        assert_exhaustive(&arcs(&vps), site, base.minute, &format!("scale={scale}"));
    }
}

#[test]
fn build_matches_oracle_on_degenerate_shapes() {
    let site = Site {
        center: GeoPos::new(0.0, 0.0),
        radius_m: 500.0,
    };

    // Empty minute: the population belongs to minute 0, the build asks
    // for minute 5.
    let w = SynthWorld::generate(50, 41);
    let empty = assert_exhaustive(&arcs(&w.vps), w.site, MinuteId(5), "empty minute");
    assert!(empty.is_empty(), "minute-5 viewmap from minute-0 VPs");

    // Single VP.
    let single = vec![w.vps[0].clone()];
    assert_exhaustive(&arcs(&single), site, MinuteId(0), "single VP");

    // Every VP's whole trajectory in one grid cell (identical stationary
    // positions): candidate generation degenerates to all-pairs.
    let mut packed = SynthWorld::generate(80, 43).vps;
    for vp in &mut packed {
        for vd in &mut vp.vds {
            vd.loc = GeoPos::new(10.0, 20.0);
        }
    }
    assert_exhaustive(&arcs(&packed), site, MinuteId(0), "all VPs one cell");
}

#[test]
fn build_matches_oracle_with_time_gapped_vds() {
    // Recording hiccups: some VPs skip seconds (still 60 VDs, strictly
    // increasing times), so their compact trajectory tables have NaN gap
    // slots and lengths not divisible by the segment count — the shape
    // that once broke the segment-window quantization.
    let mut w = SynthWorld::generate(300, 97);
    let mut rng = StdRng::seed_from_u64(98);
    for vp in w.vps.iter_mut() {
        if rand::Rng::gen_bool(&mut rng, 0.25) {
            let cut = rand::Rng::gen_range(&mut rng, 10..55);
            let shift = rand::Rng::gen_range(&mut rng, 1..4u64);
            for vd in &mut vp.vds[cut..] {
                vd.time += shift;
            }
        }
    }
    assert_exhaustive(&arcs(&w.vps), w.site, w.minute, "time-gapped");
}

#[test]
fn outlier_trajectories_stay_exact_and_off_grid() {
    // A few city-spanning trajectories (a teleporting forgery passes the
    // ingest screen — it has 60 strictly-increasing VDs) must neither
    // blow up candidate generation (they are handled off-grid) nor lose
    // or gain edges.
    let mut w = SynthWorld::generate(220, 101);
    for (k, idx) in [3usize, 57, 140].into_iter().enumerate() {
        let vp = &mut w.vps[idx];
        for (s, vd) in vp.vds.iter_mut().enumerate() {
            // Sweep diagonally across the whole area, passing near the
            // center mid-minute; consecutive claimed positions hundreds
            // of meters apart (far beyond any honest vehicle).
            let t = s as f64 / 59.0;
            vd.loc = GeoPos::new(w.side_m * t, w.side_m * t + (k as f64 - 1.0) * 120.0);
        }
    }
    assert_exhaustive(&arcs(&w.vps), w.site, w.minute, "outliers");
}

#[test]
fn parallel_build_matches_exhaustive_oracle() {
    // The whole world admitted: every member linked by the one linker
    // against the paper's edge definition.
    let w = SynthWorld::generate(250, 53);
    let vm = assert_exhaustive(&arcs(&w.vps), w.site, w.minute, "whole world");
    assert_eq!(vm.len(), w.vps.len());
}

// ── Batch ingest vs sequential submits ─────────────────────────────────

fn submission(vp: StoredVp) -> AnonymousSubmission {
    AnonymousSubmission { session_id: 0, vp }
}

#[test]
fn batch_ingested_server_state_and_viewmap_match_singles() {
    let mut rng = StdRng::seed_from_u64(61);
    let w = SynthWorld::generate(500, 67);
    let cfg = ViewmapConfig::default();
    let singles = ViewMapServer::new(&mut rng, 512, cfg);
    let batched = ViewMapServer::new(&mut rng, 512, cfg);

    // Sequential path, with a duplicate resend sprinkled in; the
    // trusted seed (VP 0) goes through the authority channel.
    assert!(w.vps[0].trusted);
    let mut seq_results = vec![singles.submit_trusted_batch(vec![w.vps[0].clone()])[0]];
    for vp in &w.vps[1..] {
        seq_results.push(singles.submit(submission(vp.clone())));
    }
    seq_results.push(singles.submit(submission(w.vps[17].clone())));

    // Batch path: the seed as an authority batch, then the same stream
    // split into three uneven anonymous batches.
    let mut stream: Vec<StoredVp> = w.vps.clone();
    stream.push(w.vps[17].clone());
    let mut bat_results = batched.submit_trusted_batch(stream[..1].to_vec());
    for chunk in [&stream[1..120], &stream[120..121], &stream[121..]] {
        bat_results.extend(batched.submit_batch(chunk.iter().cloned().map(submission)));
    }
    assert_eq!(seq_results, bat_results, "per-VP outcomes");
    assert_eq!(singles.total_vps(), batched.total_vps());
    assert_eq!(singles.total_vps(), w.vps.len());

    // Same bucket contents in order, same index routing.
    let (a, b) = (singles.minute_vps(w.minute), batched.minute_vps(w.minute));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id, "bucket order");
    }
    for vp in &w.vps {
        assert_eq!(
            singles.lookup_vp(vp.id).map(|v| v.minute()),
            batched.lookup_vp(vp.id).map(|v| v.minute()),
        );
    }

    // And the production investigation path sees identical viewmaps.
    let vm_a = singles.build_viewmap(w.minute, w.site);
    let vm_b = batched.build_viewmap(w.minute, w.site);
    assert_identical(&vm_a, &vm_b, "singles vs batch store");
}

#[test]
fn interleaved_concurrent_batches_and_singles_from_scoped_threads() {
    // Concurrent ingest across minutes and stripes: batches and singles
    // racing must accept each id exactly once and leave every record
    // reachable through the index.
    let mut rng = StdRng::seed_from_u64(71);
    let srv = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
    // One world partitioned across threads — VP ids are tag-derived, so
    // disjoint ranges of one world guarantee disjoint id sets while still
    // hitting shared stripes and the shared minute shard.
    let w = SynthWorld::generate(360, 80);
    let parts: Vec<&[StoredVp]> = w.vps.chunks(120).collect();

    let accepted: usize = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (t, part) in parts.iter().enumerate() {
            let srv = &srv;
            handles.push(scope.spawn(move || {
                let mut ok = 0usize;
                if t % 2 == 0 {
                    // Two overlapping batches.
                    let half = part.len() / 2;
                    for range in [&part[..half + 20], &part[half..]] {
                        ok += srv
                            .submit_batch(range.iter().cloned().map(submission))
                            .into_iter()
                            .filter(|r| r.is_ok())
                            .count();
                    }
                } else {
                    for vp in *part {
                        // Each id raced twice through the single path.
                        ok += [
                            srv.submit(submission(vp.clone())),
                            srv.submit(submission(vp.clone())),
                        ]
                        .iter()
                        .filter(|r| r.is_ok())
                        .count();
                    }
                }
                ok
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let expect = w.vps.len();
    assert_eq!(accepted, expect, "each id accepted exactly once");
    assert_eq!(srv.total_vps(), expect);
    for vp in &w.vps {
        let stored = srv.lookup_vp(vp.id).expect("reachable through index");
        assert_eq!(stored.id, vp.id);
    }
}

// ── 100k-tier topology pin ─────────────────────────────────────────────

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100k-tier build: minutes in debug, run under --release (CI threaded job)"
)]
fn hundred_k_tier_topology_pinned_to_seed_42() {
    // The seeded city-scale world (`SynthWorld`, 100k VPs). If this test
    // fails after an engine change, the viewmap topology changed — that
    // is a correctness regression, not a tuning outcome; the constants
    // below were cross-checked against the pre-rewrite per-second-grid
    // engine, which produced the identical edge set.
    let w = SynthWorld::generate(100_000, 42);
    let cfg = ViewmapConfig::default();
    let vm = Viewmap::build(&arcs(&w.vps), w.site, w.minute, &cfg);
    assert_eq!(vm.len(), 100_000, "member count");
    assert_eq!(vm.trusted, vec![0], "trusted seed index");
    assert_eq!(vm.edge_count(), 1_075_043, "edge count");
    assert_eq!(edge_checksum(&vm), 35_188_850_907_922_891, "edge checksum");

    // Sampled viewlinks: degree and first/last neighbor of a spread of
    // members (adjacency is in ascending neighbor order per node).
    for (node, degree, first, last) in SAMPLED_ADJACENCY {
        let row = vm.graph.neighbors(node);
        assert_eq!(vm.graph.degree(node), degree, "degree of node {node}");
        assert_eq!(row.first(), Some(&(first as u32)), "node {node} first");
        assert_eq!(row.last(), Some(&(last as u32)), "node {node} last");
    }

    // ── Incremental delta pin ───────────────────────────────────────
    // Grow the pinned world by the seeded +1k churn delta through the
    // viewlink memo (first-touch base, then the delta) and pin the grown
    // topology too. The cold-build oracle above anchors the base; the
    // memo's equality to a cold build of the grown bucket is proven
    // structurally by the churn-equivalence suite, so this pin records
    // the incremental result directly instead of rerunning the O(n·k)
    // oracle on 101k members.
    // (The site admits every member, so each admission is the whole
    // bucket.)
    let mut bucket = arcs(&w.vps);
    let mut memo = MaintainedViewmap::new(w.minute, cfg);
    let first = memo.materialise(&Admitted::whole(&bucket));
    assert_eq!(
        (first.hits, first.misses),
        (0, 100_000),
        "an empty memo links every member"
    );
    assert_eq!(memo.edge_count(), 1_075_043, "memo first-touch edge count");
    bucket.extend(arcs(&SynthWorld::delta(w.side_m, 1_000, 42)));
    let admitted = Admitted::whole(&bucket);
    let wave = memo.materialise(&admitted);
    assert_eq!(
        (wave.hits, wave.misses),
        (100_000, 1_000),
        "only the delta links"
    );
    let grown = memo.extract(admitted);
    assert_eq!(grown.len(), 101_000, "grown member count");
    assert_eq!(grown.edge_count(), 1_075_188, "grown edge count");
    assert_eq!(
        edge_checksum(&grown),
        35_203_396_227_061_832,
        "grown edge checksum"
    );
    // The delta wires its Bloom filters only among itself, so the base
    // members' adjacency is untouched by the splice — the sampled rows
    // must still hold verbatim on the grown graph.
    for (node, degree, first, last) in SAMPLED_ADJACENCY {
        let row = grown.graph.neighbors(node);
        assert_eq!(grown.graph.degree(node), degree, "grown degree of {node}");
        assert_eq!(row.first(), Some(&(first as u32)), "grown {node} first");
        assert_eq!(row.last(), Some(&(last as u32)), "grown {node} last");
    }
}

/// `(node, degree, first neighbor, last neighbor)` under seed 42,
/// recorded from the pinned run (and identical under the pre-rewrite
/// per-second-grid engine).
const SAMPLED_ADJACENCY: [(usize, usize, usize, usize); 6] = [
    (0, 24, 2_315, 89_628),
    (1, 24, 10_521, 79_638),
    (777, 24, 12_666, 97_674),
    (31_337, 24, 3_138, 58_313),
    (50_000, 23, 539, 94_979),
    (99_999, 12, 3_075, 96_667),
];
