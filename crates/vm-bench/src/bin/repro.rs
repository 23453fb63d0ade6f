//! `repro`: every table and figure of the paper's evaluation (Figs. 8–22,
//! Tables 1–2, the §6.1 accounting, three ablations) from one binary.
//!
//! ```text
//! cargo run --release -p vm-bench -- --list
//! cargo run --release -p vm-bench -- fig12_verification_position table2_scenarios
//! VM_SCALE=0.05 cargo run --release -p vm-bench -- all
//! ```
//!
//! Each experiment prints a CSV with `#`-prefixed comment lines to
//! stdout; what the paper reports rides along as a `# paper: …` line or,
//! for Tables 1–2, as extra rows and columns. `VM_SCALE` (see
//! [`vm_bench::scale`]) multiplies trial counts. Several experiments in
//! one run are separated by one blank line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use viewmap_core::analysis::{self, vp_volume_per_minute};
use viewmap_core::attack::{AttackConfig, GeometricParams};
use viewmap_core::bloom::{false_linkage_rate, optimal_k};
use viewmap_core::vd::VD_WIRE_BYTES;
use vm_bench::{csv_header, misc, privacy_exp, scaled, traffic, verification};
use vm_mobility::SpeedScenario;
use vm_radio::{Blockage, CameraModel, Channel, Environment, SCENARIOS};
use vm_sim::linkage::rssi_pdr_point;
use vm_sim::vlr_experiment;
use vm_vision::pipeline::PAPER_TABLE1;

/// One row of the experiment table: CLI name, one-line title, body.
type Experiment = (&'static str, &'static str, fn());

const EXPERIMENTS: &[Experiment] = &[
    (
        "fig8_hashing",
        "Fig. 8: hash generation times, cascaded vs normal (whole-prefix)",
        fig8_hashing,
    ),
    (
        "fig9_vp_volume",
        "Fig. 9: volume of VP creation vs neighbor count",
        fig9_vp_volume,
    ),
    (
        "fig10_entropy",
        "Fig. 10: location entropy over time (small scale, 4x4 km²)",
        fig10_entropy,
    ),
    (
        "fig11_tracking",
        "Fig. 11: tracking success ratio over time (small scale)",
        fig11_tracking,
    ),
    (
        "fig12_verification_position",
        "Fig. 12: verification accuracy vs attackers' distance to the trusted VP",
        fig12_verification_position,
    ),
    (
        "fig13_verification_dummy",
        "Fig. 13: accuracy under many legitimate-but-dummy attacker VPs",
        fig13_verification_dummy,
    ),
    (
        "fig14_false_linkage",
        "Fig. 14: Bloom-filter false linkage rate",
        fig14_false_linkage,
    ),
    (
        "fig15_vlr_env",
        "Fig. 15: VP linkage ratio vs distance per environment",
        fig15_vlr_env,
    ),
    (
        "fig16_rssi_pdr",
        "Fig. 16: RSSI vs PDR scatter",
        fig16_rssi_pdr,
    ),
    (
        "fig17_vlr_speed",
        "Fig. 17: VLR vs distance for speed x traffic-volume conditions",
        fig17_vlr_speed,
    ),
    (
        "fig20_correlation",
        "Fig. 20: correlation between VP links and video contents",
        fig20_correlation,
    ),
    (
        "fig21_viewmap_render",
        "Fig. 21: viewmaps built from traffic traces (rendered as ASCII density)",
        fig21_viewmap_render,
    ),
    (
        "fig22a_entropy",
        "Fig. 22a: location entropy over time (n=1000, 8x8 km²)",
        fig22a_entropy,
    ),
    (
        "fig22b_tracking",
        "Fig. 22b: tracking success ratio over time (n=1000, 8x8 km²)",
        fig22b_tracking,
    ),
    (
        "fig22c_contact",
        "Fig. 22c: average contact time between vehicles per speed scenario",
        fig22c_contact,
    ),
    (
        "fig22d_accuracy_position",
        "Fig. 22d: accuracy vs attacker positions, traffic-derived viewmaps",
        fig22d_accuracy_position,
    ),
    (
        "fig22e_concentration",
        "Fig. 22e: accuracy under concentration attacks, traffic-derived",
        fig22e_concentration,
    ),
    (
        "fig22f_membership",
        "Fig. 22f: percentage of viewmap member VPs per speed scenario",
        fig22f_membership,
    ),
    (
        "table1_blurring",
        "Table 1: frame rates of realtime license plate blurring",
        table1_blurring,
    ),
    (
        "table2_scenarios",
        "Table 2: VLR and on-video ratio across the 14 field scenarios",
        table2_scenarios,
    ),
    (
        "storage_overhead",
        "§6.1: communication and storage overhead accounting",
        storage_overhead,
    ),
    (
        "ablation_alpha",
        "Ablation: guard rate α — privacy vs upload volume",
        ablation_alpha,
    ),
    (
        "ablation_damping",
        "Ablation: TrustRank damping factor δ (the paper sets 0.8)",
        ablation_damping,
    ),
    (
        "ablation_linkage",
        "Ablation: two-way vs one-way Bloom linkage under attack",
        ablation_linkage,
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for (name, title, _) in EXPERIMENTS {
            println!("{name:<28} {title}");
        }
        return;
    }
    let selected: Vec<&Experiment> = if args == ["all"] {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|arg| {
                EXPERIMENTS
                    .iter()
                    .find(|(name, ..)| name == arg)
                    .unwrap_or_else(|| usage(&format!("unknown experiment {arg:?}")))
            })
            .collect()
    };
    if selected.is_empty() {
        usage("no experiment named");
    }
    for (i, (_, _, run)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run();
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "repro: {problem}\nusage: repro <name>... | all | --list\nexperiments: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn fig8_hashing() {
    let repeats = scaled(5, 2);
    let rows = misc::hash_generation_times(50, repeats);
    csv_header(
        "Fig. 8: per-second hash generation times for a 50 MB 1-min video (ms)",
        &[
            "second",
            "cascade_avg_ms",
            "cascade_worst_ms",
            "normal_avg_ms",
            "normal_worst_ms",
        ],
    );
    for r in rows {
        println!(
            "{},{:.3},{:.3},{:.3},{:.3}",
            r.second, r.cascade_avg_ms, r.cascade_worst_ms, r.flat_avg_ms, r.flat_worst_ms
        );
    }
    println!("# paper: cascaded worst-case 0.13 s on a 1.2 GHz Pi; normal hash grows to 4.32 s");
}

fn fig9_vp_volume() {
    csv_header(
        "Fig. 9: VPs created per vehicle-minute vs neighbors m, for alpha in {0.1, 0.5, 0.9}",
        &["m", "alpha_0.1", "alpha_0.5", "alpha_0.9"],
    );
    for m in (20..=200).step_by(20) {
        println!(
            "{m},{},{},{}",
            vp_volume_per_minute(0.1, m),
            vp_volume_per_minute(0.5, m),
            vp_volume_per_minute(0.9, m)
        );
    }
}

fn fig10_entropy() {
    let minutes = scaled(20, 8) as u64;
    let curves = privacy_exp::small_scale_sweep(minutes, 30);
    csv_header(
        "Fig. 10: location entropy (bits) over time; n=50..200 with guards, n=50 without",
        &["minute", "n=50", "n=100", "n=150", "n=200", "n=50_no_guard"],
    );
    let horizon = curves[0].1.minutes.len();
    for t in 0..horizon {
        print!("{}", t + 1);
        for (_, c) in &curves {
            print!(",{:.3}", c.entropy_bits[t]);
        }
        println!();
    }
    println!("# paper: ~3 bits by 10 min at n=50; near zero without guards");
}

fn fig11_tracking() {
    let minutes = scaled(20, 8) as u64;
    let curves = privacy_exp::small_scale_sweep(minutes, 30);
    csv_header(
        "Fig. 11: tracking success ratio over time; n=50..200 with guards, n=50 without",
        &["minute", "n=50", "n=100", "n=150", "n=200", "n=50_no_guard"],
    );
    let horizon = curves[0].1.minutes.len();
    for t in 0..horizon {
        print!("{}", t + 1);
        for (_, c) in &curves {
            print!(",{:.4}", c.success[t]);
        }
        println!();
    }
    println!("# paper: <0.2 by 10 min, <0.1 by 15 min at n=50; >0.9 without guards");
}

fn fig12_verification_position() {
    let runs = scaled(60, 10);
    let cells = verification::fig12_sweep(&GeometricParams::default(), 100, runs);
    csv_header(
        "Fig. 12: accuracy (%) vs attacker hop bucket x fake-VP ratio (1000 legit VPs)",
        &["hop_bucket_low", "fake_ratio_pct", "accuracy_pct", "runs"],
    );
    for c in cells {
        println!(
            "{},{:.0},{:.1},{}",
            c.x,
            c.fake_ratio * 100.0,
            c.accuracy * 100.0,
            c.runs
        );
    }
    println!("# paper: ~99% except attackers adjacent to the trusted VP (83% worst)");
}

fn fig13_verification_dummy() {
    let runs = scaled(60, 10);
    let cells = verification::fig13_sweep(
        &GeometricParams::default(),
        8,
        &[25, 50, 75, 100, 125],
        runs,
    );
    csv_header(
        "Fig. 13: accuracy (%) vs dummy VPs per attacker x fake-VP ratio",
        &[
            "dummies_per_attacker",
            "fake_ratio_pct",
            "accuracy_pct",
            "runs",
        ],
    );
    for c in cells {
        println!(
            "{},{:.0},{:.1},{}",
            c.x,
            c.fake_ratio * 100.0,
            c.accuracy * 100.0,
            c.runs
        );
    }
    println!("# paper: accuracy stays above 95%");
}

fn fig14_false_linkage() {
    csv_header(
        "Fig. 14: closed-form false linkage rate vs neighbors (optimal k), m in bits",
        &["n_neighbors", "m=1024", "m=2048", "m=3072", "m=4096"],
    );
    for n in (25..=400).step_by(25) {
        print!("{n}");
        for m in [1024usize, 2048, 3072, 4096] {
            print!(",{:.6}", false_linkage_rate(m, n, optimal_k(m, n)));
        }
        println!();
    }
    println!("# paper design point: m=2048 -> ~0.1% at 300 neighbors");
    // Empirical check of the deployed configuration (m=2048, k=8,
    // two-way 60-VD query) at realistic densities.
    let trials = scaled(400, 50);
    println!("# empirical (deployed m=2048,k=8 config, two-way query):");
    println!("n_neighbors,empirical_false_linkage");
    for n in [25usize, 50, 100, 150] {
        println!("{n},{:.6}", misc::empirical_false_linkage(n, trials, 14));
    }
}

fn fig15_vlr_env() {
    let trials = scaled(400, 50);
    let envs = Environment::fig15_set();
    csv_header(
        "Fig. 15: VP linkage ratio (VLR) vs distance (m) per environment",
        &[
            "distance_m",
            "open_road",
            "highway",
            "residential",
            "downtown",
        ],
    );
    for d in (25..=400).step_by(25) {
        print!("{d}");
        for (i, env) in envs.iter().enumerate() {
            let s = vlr_experiment(env, d as f64, trials, 1500 + i as u64 * 37 + d as u64);
            print!(",{:.3}", s.vlr);
        }
        println!();
    }
    println!("# paper: open road >99% out to 400 m; downtown lowest, falling with distance");
}

fn fig16_rssi_pdr() {
    let ch = Channel::default();
    let points = scaled(300, 60);
    csv_header(
        "Fig. 16: PDR vs RSSI scatter (one point per 50-beacon batch)",
        &["rssi_dbm", "pdr"],
    );
    let mut seed = 1600u64;
    for i in 0..points {
        let d = 30.0 + (i % 75) as f64 * 5.0;
        let blockage = match i % 3 {
            0 => Blockage::Los,
            1 => Blockage::Vehicle,
            _ => Blockage::Building,
        };
        seed += 1;
        let (rssi, pdr) = rssi_pdr_point(&ch, d, blockage, 50, seed);
        if rssi > -115.0 {
            println!("{rssi:.1},{pdr:.3}");
        }
    }
    println!("# paper: PDR ~1 above -80 dBm, ~0 below -100 dBm, fluctuating in between");
}

fn fig17_vlr_speed() {
    let trials = scaled(400, 50);
    csv_header(
        "Fig. 17: VLR vs distance; Hwy1 = light traffic, Hwy2 = heavy traffic, 50/80 km/h",
        &[
            "distance_m",
            "hwy1_80kmh",
            "hwy1_50kmh",
            "hwy2_80kmh",
            "hwy2_50kmh",
        ],
    );
    // Speed has no channel effect in our model — exactly the paper's
    // field finding ("VLRs are insensitive to velocity"); the two speed
    // rows differ only by sampling noise. Traffic volume is the real
    // factor.
    for d in (25..=400).step_by(25) {
        let l80 = vlr_experiment(
            &Environment::highway_light(),
            d as f64,
            trials,
            1700 + d as u64,
        );
        let l50 = vlr_experiment(
            &Environment::highway_light(),
            d as f64,
            trials,
            1800 + d as u64,
        );
        let h80 = vlr_experiment(
            &Environment::highway_heavy(),
            d as f64,
            trials,
            1900 + d as u64,
        );
        let h50 = vlr_experiment(
            &Environment::highway_heavy(),
            d as f64,
            trials,
            2000 + d as u64,
        );
        println!(
            "{d},{:.3},{:.3},{:.3},{:.3}",
            l80.vlr, l50.vlr, h80.vlr, h50.vlr
        );
    }
    println!("# paper: insensitive to speed; heavy-traffic highway links markedly less");
}

fn fig20_correlation() {
    let trials = scaled(800, 100);
    csv_header(
        "Fig. 20: Pearson correlation of VP linkage vs on-video, by distance and environment",
        &["distance_m", "downtown", "residential", "highway"],
    );
    for d in (50..=400).step_by(50) {
        let down = vlr_experiment(&Environment::downtown(), d as f64, trials, 2100 + d as u64);
        let res = vlr_experiment(
            &Environment::residential(),
            d as f64,
            trials,
            2200 + d as u64,
        );
        let hwy = vlr_experiment(
            &Environment::highway_heavy(),
            d as f64,
            trials,
            2300 + d as u64,
        );
        println!(
            "{d},{:.3},{:.3},{:.3}",
            down.correlation, res.correlation, hwy.correlation
        );
    }
    println!("# paper: correlation 0.7-0.9 across distances");
}

fn fig21_viewmap_render() {
    let vehicles = scaled(400, 100);
    for speed in [SpeedScenario::Fixed(50.0), SpeedScenario::Fixed(70.0)] {
        let out = traffic::traffic_run(vehicles, 2, speed, 21);
        let vm = traffic::traffic_viewmap(&out, 1);
        println!(
            "# Fig. 21 ({}): {} member VPs, {} viewlinks, {:.1}% connected",
            speed.label(),
            vm.len(),
            vm.edge_count(),
            vm.member_connectivity() * 100.0
        );
        print!("{}", traffic::render_ascii(&vm, 78, 24, 8000.0));
        println!();
    }
    println!("# paper: the viewmap shape follows the road network of the simulated area");
}

fn fig22a_entropy() {
    let minutes = scaled(20, 6) as u64;
    let vehicles = scaled(1000, 150);
    let curves = privacy_exp::large_scale(minutes, vehicles, 40);
    csv_header(
        "Fig. 22a: location entropy (bits), large scale",
        &["minute", "with_guards", "no_guards"],
    );
    let horizon = curves[0].1.minutes.len();
    for t in 0..horizon {
        println!(
            "{},{:.3},{:.3}",
            t + 1,
            curves[0].1.entropy_bits[t],
            curves[1].1.entropy_bits[t]
        );
    }
    println!("# paper: ~8 bits by 10 minutes with guards");
}

fn fig22b_tracking() {
    let minutes = scaled(20, 6) as u64;
    let vehicles = scaled(1000, 150);
    let curves = privacy_exp::large_scale(minutes, vehicles, 40);
    csv_header(
        "Fig. 22b: tracking success ratio, large scale",
        &["minute", "with_guards", "no_guards"],
    );
    let horizon = curves[0].1.minutes.len();
    for t in 0..horizon {
        println!(
            "{},{:.4},{:.4}",
            t + 1,
            curves[0].1.success[t],
            curves[1].1.success[t]
        );
    }
    println!("# paper: <=0.1 by 3 min, ~0.01 by 10 min with guards; >0.9 without");
}

fn fig22c_contact() {
    let vehicles = scaled(600, 100);
    let minutes = scaled(6, 2) as u64;
    csv_header(
        "Fig. 22c: average LOS contact time between vehicles (s)",
        &["speed", "avg_contact_s"],
    );
    for (label, secs) in traffic::contact_times(vehicles, minutes) {
        println!("{label},{secs:.2}");
    }
    println!("# paper: roughly 4-13 s, longer at lower speeds");
}

fn fig22d_accuracy_position() {
    let vehicles = scaled(500, 120);
    let runs = scaled(40, 8);
    let out = traffic::traffic_run(vehicles, 2, SpeedScenario::Mix, 41);
    let vm = traffic::traffic_viewmap(&out, 1);
    csv_header(
        "Fig. 22d: accuracy (%) vs attacker hop bucket x fake ratio (traffic-derived viewmap)",
        &["hop_bucket_low", "fake_ratio_pct", "accuracy_pct", "runs"],
    );
    for bucket in verification::HOP_BUCKETS {
        for ratio in verification::FAKE_RATIOS {
            let cfg = AttackConfig {
                n_attackers: (vehicles / 20).max(5),
                attacker_hops: bucket,
                fake_ratio: ratio,
                dummies_per_attacker: 0,
            };
            let acc = traffic::traffic_accuracy(&vm, &cfg, runs, 2200 + bucket.0 as u64);
            println!(
                "{},{:.0},{:.1},{}",
                bucket.0,
                ratio * 100.0,
                acc * 100.0,
                runs
            );
        }
    }
    println!("# paper: 100% in most cases, 82% worst when attackers neighbor the trusted VP");
}

fn fig22e_concentration() {
    let vehicles = scaled(500, 120);
    let runs = scaled(40, 8);
    let out = traffic::traffic_run(vehicles, 2, SpeedScenario::Mix, 51);
    let vm = traffic::traffic_viewmap(&out, 1);
    csv_header(
        "Fig. 22e: accuracy (%) vs dummy VPs per attacker x fake ratio (traffic-derived)",
        &[
            "dummies_per_attacker",
            "fake_ratio_pct",
            "accuracy_pct",
            "runs",
        ],
    );
    for dummies in [25usize, 50, 75, 100, 125] {
        for ratio in verification::FAKE_RATIOS {
            let cfg = AttackConfig {
                n_attackers: 5,
                attacker_hops: (4, 20),
                fake_ratio: ratio,
                dummies_per_attacker: dummies,
            };
            let acc = traffic::traffic_accuracy(&vm, &cfg, runs, 2300 + dummies as u64);
            println!("{dummies},{:.0},{:.1},{}", ratio * 100.0, acc * 100.0, runs);
        }
    }
    println!("# paper: accuracy still above 95%");
}

fn fig22f_membership() {
    let vehicles = scaled(500, 100);
    csv_header(
        "Fig. 22f: % of member VPs with at least one viewlink, per speed",
        &["speed", "member_pct"],
    );
    for (label, pct) in traffic::membership_percentages(vehicles, 2) {
        println!("{label},{pct:.1}");
    }
    println!("# paper: >97% (under 3% isolated VPs)");
}

fn table1_blurring() {
    let frames = scaled(60, 6);
    let (blur_ms, io_ms, fps) = misc::blur_benchmark(frames);
    csv_header(
        "Table 1: realtime plate blurring (measured host + paper rows)",
        &["platform", "blur_ms", "io_ms", "fps"],
    );
    println!("this host (measured,640x480),{blur_ms:.2},{io_ms:.2},{fps:.1}");
    for p in PAPER_TABLE1 {
        println!(
            "{} [paper],{:.2},{:.2},{:.0}",
            p.name, p.paper_blur_ms, p.paper_io_ms, p.paper_fps
        );
    }
}

fn table2_scenarios() {
    let trials = scaled(500, 60);
    let ch = Channel::default();
    let cam = CameraModel::default();
    csv_header(
        "Table 2: VP linkage and on-video ratios per scenario (paper values in trailing columns)",
        &[
            "scenario",
            "condition",
            "vp_linkage_pct",
            "on_video_pct",
            "paper_linkage_pct",
            "paper_video_pct",
        ],
    );
    let paper: [(f64, f64); 14] = [
        (100.0, 100.0),
        (0.0, 0.0),
        (100.0, 93.0),
        (9.0, 0.0),
        (84.0, 77.0),
        (0.0, 0.0),
        (61.0, 52.0),
        (13.0, 0.0),
        (100.0, 100.0),
        (0.0, 0.0),
        (39.0, 18.0),
        (0.0, 0.0),
        (56.0, 51.0),
        (3.0, 0.0),
    ];
    let mut rng = StdRng::seed_from_u64(2);
    for (s, (pl, pv)) in SCENARIOS.iter().zip(paper) {
        let (vlr, video) = s.measure(&mut rng, &ch, &cam, trials);
        println!(
            "{},{},{:.0},{:.0},{:.0},{:.0}",
            s.name,
            s.condition,
            vlr * 100.0,
            video * 100.0,
            pl,
            pv
        );
    }
}

fn storage_overhead() {
    csv_header("Section 6.1: overhead accounting", &["quantity", "value"]);
    println!("vd_wire_bytes,{VD_WIRE_BYTES}");
    println!("vp_storage_bytes,{}", analysis::vp_storage_bytes());
    println!(
        "storage_overhead_vs_50MB_video,{:.6}%",
        analysis::storage_overhead_ratio(50 * 1024 * 1024) * 100.0
    );
    println!("# paper: 72-byte VDs, 4584-byte VPs, <0.01% of the video size");
    println!("# guard coverage rule P_t = [1-(1-(1-a)^m)^m]^t:");
    println!("alpha,m,t_minutes,P_t");
    for (alpha, m, t) in [(0.1, 50, 5u32), (0.1, 50, 10), (0.1, 30, 5), (0.5, 30, 5)] {
        println!(
            "{alpha},{m},{t},{:.5}",
            analysis::uncovered_prob(alpha, m, t)
        );
    }
}

fn ablation_alpha() {
    let vehicles = scaled(50, 20);
    let minutes = scaled(10, 5) as u64;
    csv_header(
        "Ablation: guard rate alpha vs tracking success, entropy, and upload volume",
        &[
            "alpha",
            "final_tracking_success",
            "final_entropy_bits",
            "vps_per_vehicle_minute",
        ],
    );
    for row in privacy_exp::alpha_ablation(&[0.0, 0.05, 0.1, 0.2, 0.5], vehicles, minutes) {
        println!(
            "{},{:.4},{:.3},{:.2}",
            row.alpha, row.final_success, row.final_entropy, row.vps_per_vehicle_minute
        );
    }
    println!("# the paper picks alpha=0.1: enough confusion, modest volume (Fig. 9 + P_t rule)");
}

fn ablation_damping() {
    let runs = scaled(40, 8);
    csv_header(
        "Ablation: accuracy vs damping factor (worst-case attackers at hops 1-5, 300% fakes)",
        &["damping", "accuracy_pct"],
    );
    let rows = verification::ablation_damping(
        &GeometricParams::default(),
        runs,
        &[0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
    );
    for (d, acc) in rows {
        println!("{d},{:.1}", acc * 100.0);
    }
}

fn ablation_linkage() {
    let runs = scaled(40, 8);
    csv_header(
        "Ablation: verification accuracy with two-way vs one-way linkage checks",
        &[
            "fake_ratio_pct",
            "two_way_accuracy_pct",
            "one_way_accuracy_pct",
        ],
    );
    for ratio in [1.0, 2.0, 3.0] {
        let (two, one) = verification::ablation_one_way(&GeometricParams::default(), runs, ratio);
        println!("{:.0},{:.1},{:.1}", ratio * 100.0, two * 100.0, one * 100.0);
    }
    println!("# the two-way check is what forces fakes into their own layer (Fig. 7)");
}
