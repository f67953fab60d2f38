//! Figures 5–10: the paper's three-level study of every workload, rendered
//! as six figures. One study pass per workload
//! ([`QuantitativeStudy::full_study`] at 75%, 50% and 25% local capacity)
//! yields Level 1 (Figs 5–8), Level 2 (Fig 9) and Level 3 (Fig 10); Fig 6
//! adds Level 1 at the x2 and x4 inputs.
//!
//! Each figure keeps its own JSON file: `fig05_roofline.json`,
//! `fig06_scaling_curves.json`, `fig07_prefetch_timeline.json`,
//! `fig08_prefetch_metrics.json`, `fig09_remote_access.json` and
//! `fig10_interference_sensitivity.json`.

use dismem_analysis::{MultiTierRoofline, Roofline, RooflinePoint};
use dismem_bench::{base_config, is_quick, paper, print_table, workload, write_json, Row};
use dismem_core::{QuantitativeStudy, StudyReport};
use dismem_profiler::level1::{level1_profile, Level1Report};
use dismem_profiler::level3::Level3Report;
use dismem_sim::MachineConfig;
use dismem_trace::histogram::ScalingPoint;
use dismem_workloads::{InputScale, WorkloadKind};
use rayon::prelude::*;
use serde::Serialize;

/// Local-capacity fractions of the paper's three two-tier configurations
/// (the panels of Figs 9 and 10).
const FRACTIONS: [f64; 3] = [0.75, 0.50, 0.25];

/// One workload's study pass, plus Level 1 at the larger inputs for Fig 6.
struct Studied {
    kind: WorkloadKind,
    study: StudyReport,
    /// Level 1 at x2 and x4; empty in the quick profile.
    larger_inputs: Vec<(InputScale, Level1Report)>,
}

impl Studied {
    /// Level 1 at every profiled input scale, x1 first.
    fn level1_by_scale(&self) -> impl Iterator<Item = (InputScale, &Level1Report)> {
        std::iter::once((InputScale::X1, &self.study.level1))
            .chain(self.larger_inputs.iter().map(|(scale, l1)| (*scale, l1)))
    }
}

/// One thread-pool item: a workload's x1 study (`None`) or its Level 1 at
/// a larger input.
type Item = (WorkloadKind, Option<InputScale>);

/// What an [`Item`] yields.
enum Profile {
    Study(StudyReport),
    Level1(Level1Report),
}

/// Every item of the full profile, costliest first, so that the pool's
/// threads finish together: one-thread seconds on a 2-vCPU host were BFS x4
/// 32.3, BFS x2 15.6, BFS study 15.5, XSBench study 6.3, Hypre x4 5.2,
/// HPL x4 4.0, NekRS x4 3.5, Hypre study 3.3, XSBench x4 2.9, Hypre x2 2.8,
/// NekRS study 2.7, XSBench x2 2.3, NekRS x2 1.6, HPL x2 1.6, HPL study 1.5,
/// SuperLU x4 1.1, SuperLU study 1.1 and SuperLU x2 0.6. The quick profile
/// runs the six studies, in this order.
const CLAIM_ORDER: [Item; 18] = [
    (WorkloadKind::Bfs, Some(InputScale::X4)),
    (WorkloadKind::Bfs, Some(InputScale::X2)),
    (WorkloadKind::Bfs, None),
    (WorkloadKind::XsBench, None),
    (WorkloadKind::Hypre, Some(InputScale::X4)),
    (WorkloadKind::Hpl, Some(InputScale::X4)),
    (WorkloadKind::NekRs, Some(InputScale::X4)),
    (WorkloadKind::Hypre, None),
    (WorkloadKind::XsBench, Some(InputScale::X4)),
    (WorkloadKind::Hypre, Some(InputScale::X2)),
    (WorkloadKind::NekRs, None),
    (WorkloadKind::XsBench, Some(InputScale::X2)),
    (WorkloadKind::NekRs, Some(InputScale::X2)),
    (WorkloadKind::Hpl, Some(InputScale::X2)),
    (WorkloadKind::Hpl, None),
    (WorkloadKind::SuperLu, Some(InputScale::X4)),
    (WorkloadKind::SuperLu, None),
    (WorkloadKind::SuperLu, Some(InputScale::X2)),
];

fn main() {
    let config = base_config();
    let larger_scales: &[InputScale] = if is_quick() {
        &[]
    } else {
        &[InputScale::X2, InputScale::X4]
    };

    // Every run is an independent simulated machine: the pool's threads
    // claim the items costliest first.
    let items: Vec<Item> = CLAIM_ORDER
        .into_iter()
        .filter(|(_, scale)| scale.map_or(true, |scale| larger_scales.contains(&scale)))
        .collect();
    let profiles: Vec<Profile> = items
        .par_iter()
        .map(|&(kind, scale)| {
            let profile = match scale {
                None => Profile::Study(
                    QuantitativeStudy::new(workload(kind, InputScale::X1), config.clone())
                        .full_study(&FRACTIONS),
                ),
                Some(scale) => {
                    Profile::Level1(level1_profile(workload(kind, scale).as_ref(), &config))
                }
            };
            eprintln!(
                "  [study_figures] profiled {} {}",
                kind.name(),
                scale.map_or("study", InputScale::label)
            );
            profile
        })
        .collect();

    // Reassemble each workload's profiles in the paper's order.
    let mut profiles: Vec<(Item, Profile)> = items.into_iter().zip(profiles).collect();
    let mut take = |item: Item| {
        let i = profiles
            .iter()
            .position(|(done, _)| *done == item)
            .expect("every item is profiled");
        profiles.swap_remove(i).1
    };
    let studied: Vec<Studied> = WorkloadKind::all()
        .into_iter()
        .map(|kind| {
            let Profile::Study(study) = take((kind, None)) else {
                unreachable!("a study item yields a study")
            };
            let larger_inputs = larger_scales
                .iter()
                .map(|&scale| {
                    let Profile::Level1(level1) = take((kind, Some(scale))) else {
                        unreachable!("a larger-input item yields Level 1")
                    };
                    (scale, level1)
                })
                .collect();
            Studied {
                kind,
                study,
                larger_inputs,
            }
        })
        .collect();

    fig05_roofline(&config, &studied);
    fig06_scaling_curves(&studied);
    fig07_prefetch_timeline(&studied);
    fig08_prefetch_metrics(&studied);
    fig09_remote_access(&studied);
    fig10_interference_sensitivity(&studied);
}

#[derive(Serialize)]
struct Fig5Output {
    ridge_point: f64,
    peak_gflops: f64,
    local_bw_gbs: f64,
    aggregate_bw_gbs: f64,
    points: Vec<RooflinePoint>,
}

/// Figure 5: roofline model of the test platform with the measured
/// arithmetic intensity and throughput of every application phase, plus the
/// dashed multi-tier extension.
fn fig05_roofline(config: &MachineConfig, studied: &[Studied]) {
    let roofline = Roofline::new(config.peak_flops, config.local.bandwidth_bps);
    let multi = MultiTierRoofline::new(
        config.peak_flops,
        config.local.bandwidth_bps,
        config.pool.bandwidth_bps,
    );

    println!(
        "Platform roofline: peak {:.0} Gflop/s, local memory {:.0} GB/s (ridge at {:.1} flop/B); \
         adding the pool tier raises the aggregate bandwidth ceiling to {:.0} GB/s.",
        config.peak_flops / 1e9,
        config.local.bandwidth_bps / 1e9,
        roofline.ridge_point(),
        multi.aggregate().peak_bandwidth / 1e9,
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for phase in studied.iter().flat_map(|s| &s.study.level1.phases) {
        let point = RooflinePoint {
            label: phase.label.clone(),
            arithmetic_intensity: phase.arithmetic_intensity,
            achieved_flops: phase.gflops * 1e9,
        };
        let bound = if roofline.is_memory_bound(point.arithmetic_intensity) {
            "memory-bound"
        } else {
            "compute-bound"
        };
        rows.push(Row::new(
            phase.label.clone(),
            vec![
                format!("{:.3}", phase.arithmetic_intensity),
                format!("{:.2}", phase.gflops),
                format!("{:.1}", phase.bandwidth_gbs),
                format!("{:.0}%", 100.0 * point.efficiency(&roofline)),
                bound.to_string(),
            ],
        ));
        points.push(point);
    }
    print_table(
        "Figure 5 — per-phase roofline points (x1 inputs, node-local memory only)",
        &["AI (flop/B)", "Gflop/s", "GB/s", "roofline eff.", "regime"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): phases span the memory-bound to compute-bound spectrum; \
         HPL-p2 sits far right (high AI), Hypre/NekRS/BFS/XSBench compute phases sit left of the \
         ridge point."
    );
    write_json(
        "fig05_roofline",
        &Fig5Output {
            ridge_point: roofline.ridge_point(),
            peak_gflops: config.peak_flops / 1e9,
            local_bw_gbs: config.local.bandwidth_bps / 1e9,
            aggregate_bw_gbs: multi.aggregate().peak_bandwidth / 1e9,
            points,
        },
    );
}

#[derive(Serialize)]
struct CurveOutput {
    workload: String,
    scale: String,
    footprint_mib: f64,
    curve: Vec<ScalingPoint>,
}

fn share_at(curve: &[ScalingPoint], footprint_fraction: f64) -> f64 {
    curve
        .iter()
        .find(|p| p.footprint_fraction >= footprint_fraction)
        .map(|p| p.access_fraction)
        .unwrap_or(1.0)
}

/// Figure 6: memory bandwidth-capacity scaling curves — the cumulative
/// distribution of memory accesses over the footprint for each application
/// at three input scales (x1 only in the quick profile).
fn fig06_scaling_curves(studied: &[Studied]) {
    let outputs: Vec<CurveOutput> = studied
        .iter()
        .flat_map(|s| {
            s.level1_by_scale().map(|(scale, level1)| CurveOutput {
                workload: s.kind.name().to_string(),
                scale: scale.label().to_string(),
                footprint_mib: level1.footprint_bytes as f64 / (1 << 20) as f64,
                curve: level1.scaling_curve.clone(),
            })
        })
        .collect();

    // Print, per workload and scale, the access share captured by the hottest
    // 10/25/50/75% of the footprint — a compact rendering of the CDFs.
    let rows: Vec<Row> = outputs
        .iter()
        .map(|o| {
            Row::new(
                format!("{}-{}", o.workload, o.scale),
                [0.10, 0.25, 0.50, 0.75]
                    .iter()
                    .map(|&f| format!("{:.0}%", 100.0 * share_at(&o.curve, f)))
                    .collect(),
            )
        })
        .collect();
    print_table(
        "Figure 6 — share of memory accesses captured by the hottest X% of the footprint",
        &["10% fp", "25% fp", "50% fp", "75% fp"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): HPL and Hypre are close to the diagonal (uniform access); \
         BFS and XSBench are strongly skewed (a small part of the footprint gets most accesses); \
         curves of different input scales overlap for NekRS/HPL/Hypre/XSBench, shift for BFS and \
         SuperLU."
    );
    write_json("fig06_scaling_curves", &outputs);
}

#[derive(Serialize)]
struct TimelineOutput {
    workload: String,
    bucket_s: f64,
    with_prefetch: Vec<u64>,
    without_prefetch: Vec<u64>,
    total_with: u64,
    total_without: u64,
}

fn sparkline(values: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(1).max(1);
    values
        .iter()
        .map(|&v| GLYPHS[((v as f64 / max as f64) * 7.0).round() as usize])
        .collect()
}

/// Figure 7: memory traffic (L2 cache-line fills) over time with and
/// without hardware prefetching, for NekRS, HPL and XSBench.
fn fig07_prefetch_timeline(studied: &[Studied]) {
    let mut rows = Vec::new();
    let mut outputs = Vec::new();
    for kind in [
        WorkloadKind::NekRs,
        WorkloadKind::Hpl,
        WorkloadKind::XsBench,
    ] {
        let report = &studied
            .iter()
            .find(|s| s.kind == kind)
            .expect("every workload is studied")
            .study
            .level1;
        let t = &report.timeline;
        let total_with: u64 = t.with_prefetch.iter().sum();
        let total_without: u64 = t.without_prefetch.iter().sum();
        println!(
            "\n{} — L2 lines fetched per time bucket ({:.2} ms buckets):",
            kind.name(),
            t.bucket_s * 1e3
        );
        println!("  with prefetch    {}", sparkline(&t.with_prefetch));
        println!("  without prefetch {}", sparkline(&t.without_prefetch));
        rows.push(Row::new(
            kind.name(),
            vec![
                format!("{:.2e}", total_with as f64),
                format!("{:.2e}", total_without as f64),
                format!(
                    "{:+.1}%",
                    100.0 * (total_with as f64 / total_without as f64 - 1.0)
                ),
                format!("{:.0}%", 100.0 * report.prefetch.coverage),
                format!("{:+.0}%", 100.0 * report.prefetch.performance_gain),
            ],
        ));
        outputs.push(TimelineOutput {
            workload: kind.name().to_string(),
            bucket_s: t.bucket_s,
            with_prefetch: t.with_prefetch.clone(),
            without_prefetch: t.without_prefetch.clone(),
            total_with,
            total_without,
        });
    }
    print_table(
        "Figure 7 — total L2 line fills with/without prefetching",
        &[
            "lines (pf on)",
            "lines (pf off)",
            "extra traffic",
            "coverage",
            "perf gain",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): prefetching contributes a large share of the fetched lines \
         for NekRS and HPL (with only a few % extra total traffic) and nearly nothing for \
         XSBench; the performance gain is large for NekRS (~57%) and negligible for XSBench."
    );
    write_json("fig07_prefetch_timeline", &outputs);
}

#[derive(Serialize)]
struct Fig8Row {
    workload: String,
    accuracy: f64,
    coverage: f64,
    excess_traffic: f64,
    performance_gain: f64,
}

/// Figure 8: prefetch accuracy, coverage, excessive prefetch traffic and
/// performance gain from prefetching for all tested applications.
fn fig08_prefetch_metrics(studied: &[Studied]) {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for s in studied {
        let name = s.kind.name();
        let p = s.study.level1.prefetch;
        let reference = paper::FIG8_PREFETCH
            .iter()
            .find(|(paper_name, ..)| *paper_name == name)
            .expect("the paper reports every workload in Figure 8");
        rows.push(Row::new(
            name,
            vec![
                format!("{:.0}%", 100.0 * p.accuracy),
                format!("{:.0}%", 100.0 * p.coverage),
                format!("{:.0}%", 100.0 * p.excess_traffic),
                format!("{:.0}%", 100.0 * p.performance_gain),
                format!(
                    "{:.0}/{:.0}/{:.0}/{:.0}%",
                    100.0 * reference.1,
                    100.0 * reference.2,
                    100.0 * reference.3,
                    100.0 * reference.4
                ),
            ],
        ));
        json.push(Fig8Row {
            workload: name.to_string(),
            accuracy: p.accuracy,
            coverage: p.coverage,
            excess_traffic: p.excess_traffic,
            performance_gain: p.performance_gain,
        });
    }
    print_table(
        "Figure 8 — prefetching suitability (measured | paper acc/cov/excess/gain)",
        &[
            "accuracy",
            "coverage",
            "excess traffic",
            "perf gain",
            "paper (a/c/e/g)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): all applications except XSBench and BFS exceed 80% accuracy; \
         Hypre and NekRS have the highest coverage; SuperLU stands out with high excess traffic \
         yet still ~31% gain; XSBench has <1% coverage and virtually no gain."
    );
    write_json("fig08_prefetch_metrics", &json);
}

#[derive(Serialize)]
struct Fig9Row {
    workload: String,
    local_fraction: f64,
    remote_capacity_ratio: f64,
    remote_bandwidth_ratio: f64,
    phase_remote_access: Vec<(String, f64)>,
}

/// Figure 9: ratio of memory accesses served by the second (pool) tier for
/// every application phase on the three two-tier configurations, compared
/// with the capacity-ratio and bandwidth-ratio reference points.
fn fig09_remote_access(studied: &[Studied]) {
    let mut json = Vec::new();
    for (i, &local_fraction) in FRACTIONS.iter().enumerate() {
        let mut rows = Vec::new();
        let mut xs_remote: f64 = 0.0;
        for s in studied {
            let report = &s.study.level2[i];
            if s.kind == WorkloadKind::XsBench {
                xs_remote = report.remote_access_ratio;
            }
            for phase in &report.phases {
                rows.push(Row::new(
                    format!(
                        "{}-{}",
                        s.kind.short_name(),
                        &phase.label[phase.label.rfind('p').unwrap_or(0)..]
                    ),
                    vec![
                        format!("{:.1}%", 100.0 * phase.remote_access_ratio),
                        format!("{:.1}%", 100.0 * report.remote_capacity_ratio),
                        format!("{:.1}%", 100.0 * report.remote_bandwidth_ratio),
                        if phase.remote_access_ratio > report.remote_bandwidth_ratio {
                            "above BW ref".to_string()
                        } else if phase.remote_access_ratio > report.remote_capacity_ratio {
                            "between refs".to_string()
                        } else {
                            "below cap ref".to_string()
                        },
                    ],
                ));
            }
            json.push(Fig9Row {
                workload: s.kind.name().to_string(),
                local_fraction,
                remote_capacity_ratio: report.remote_capacity_ratio,
                remote_bandwidth_ratio: report.remote_bandwidth_ratio,
                phase_remote_access: report
                    .phases
                    .iter()
                    .map(|p| (p.label.clone(), p.remote_access_ratio))
                    .collect(),
            });
        }
        print_table(
            &format!(
                "Figure 9 — remote access ratio per phase, {:.0}%-{:.0}% capacity ratio",
                local_fraction * 100.0,
                (1.0 - local_fraction) * 100.0
            ),
            &["remote access", "capacity ref", "bandwidth ref", "position"],
            &rows,
        );
        println!(
            "  XSBench whole-run remote access ratio: {:.1}% (paper: stays below {:.0}% in all \
             configurations)",
            100.0 * xs_remote,
            100.0 * paper::XSBENCH_MAX_REMOTE_ACCESS
        );
    }
    println!(
        "\nExpected shape (paper): at 75% local the access ratios sit close to the reference \
         lines (little tuning headroom); at 25% local many compute phases sit far above both \
         references; XSBench's remote access stays very low everywhere."
    );
    write_json("fig09_remote_access", &json);
}

/// Figure 10: sensitivity of each application to memory interference on the
/// pool link (LoI = 0–50%) for the three capacity configurations.
fn fig10_interference_sensitivity(studied: &[Studied]) {
    let mut json: Vec<Level3Report> = Vec::new();
    for (i, &local_fraction) in FRACTIONS.iter().enumerate() {
        let mut rows = Vec::new();
        for s in studied {
            let report = &s.study.level3[i];
            let cells: Vec<String> = report
                .compute_phase_sensitivity
                .iter()
                .map(|p| format!("{:.3}", p.relative_performance))
                .collect();
            rows.push(Row::new(format!("{}-p2", s.kind.short_name()), cells));
            json.push(report.clone());
        }
        print_table(
            &format!(
                "Figure 10 — relative performance vs LoI, {:.0}%-{:.0}% capacity ratio",
                local_fraction * 100.0,
                (1.0 - local_fraction) * 100.0
            ),
            &["LoI=0", "LoI=10", "LoI=20", "LoI=30", "LoI=40", "LoI=50"],
            &rows,
        );
    }

    println!("\nPaper reference (50%-50% configuration, LoI=50):");
    for (name, rel) in paper::FIG10_SENSITIVITY_50_50 {
        println!("  {name:<8} relative performance ≈ {rel:.2}");
    }
    println!(
        "Expected shape: Hypre and NekRS are the most sensitive (low arithmetic intensity with \
         substantial pool traffic); HPL barely reacts despite high pool traffic (compute bound); \
         XSBench reacts little because its remote access ratio is tiny."
    );
    write_json("fig10_interference_sensitivity", &json);
}
