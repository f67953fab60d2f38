//! Every figure and table of the paper, from one pass.
//!
//! One study pass per workload
//! ([`QuantitativeStudy::full_study_with_runs`] at 75%, 50% and 25% local
//! capacity) yields Level 1 (Figs 5–8), Level 2 (Fig 9) and Level 3
//! (Fig 10); Fig 6 adds the scaling curves of the x2 and x4 inputs, each
//! read from one prefetch-on Level-1 run. The study's pooled
//! run reports feed the case studies: each workload's 50%-local run gives
//! the interference it causes (Fig 11, right) and its scheduling campaigns
//! (Fig 13), and BFS's 50%- and 25%-local runs are Fig 12's baseline rows.
//! Fig 12's two optimized variants are the only other simulations: each
//! runs once, its one walk serving both pooled fractions. Fig 1, Tables 1 and 2 and Fig 11's LBench panels
//! simulate nothing.
//!
//! Each figure and table keeps its own JSON file:
//! `fig01_memory_evolution.json`, `table1_memory_cost.json`,
//! `table2_workloads.json`, `fig05_roofline.json`,
//! `fig06_scaling_curves.json`, `fig07_prefetch_timeline.json`,
//! `fig08_prefetch_metrics.json`, `fig09_remote_access.json`,
//! `fig10_interference_sensitivity.json`, `fig11_lbench_validation.json`,
//! `fig12_bfs_optimization.json` and `fig13_interference_scheduling.json`.

use dismem_analysis::{
    estimate_costs, memory_evolution, systems::DEFAULT_DDR_USD_PER_GIB, top10_systems,
    MultiTierRoofline, Roofline, RooflinePoint,
};
use dismem_bench::{base_config, is_quick, paper, print_table, workload, write_json, Row};
use dismem_core::{
    bfs_variant_result, bfs_variant_rows, BfsCaseStudy, BfsVariantResult, QuantitativeStudy,
    StudyReport,
};
use dismem_lbench::{app_interference_coefficient, CalibrationPoint, LBenchModel};
use dismem_profiler::level1::{level1_config, scaling_curve};
use dismem_profiler::level3::{Level3Report, PAPER_LOI_LEVELS};
use dismem_profiler::{run_workload, RunOptions};
use dismem_sched::{campaign::compare_policies, CampaignConfig};
use dismem_sim::{MachineConfig, RunReport};
use dismem_trace::histogram::ScalingPoint;
use dismem_workloads::{Bfs, BfsOptimization, BfsParams, InputScale, Workload, WorkloadKind};
use rayon::prelude::*;
use serde::Serialize;

/// Local-capacity fractions of the paper's three two-tier configurations
/// (the panels of Figs 9 and 10).
const FRACTIONS: [f64; 3] = [0.75, 0.50, 0.25];

/// The local-capacity fraction of the case studies' runs (Figs 11 and 13).
const CASE_STUDY_LOCAL: f64 = 0.50;

/// Pool shares of BFS's footprint in Fig 12, whose local capacities (50%
/// and 25%) are two of [`FRACTIONS`].
const FIG12_POOLED: [f64; 2] = [0.50, 0.75];

/// What Fig 6 reads of one input's prefetch-on Level-1 run: its peak
/// footprint in bytes and its scaling curve.
type Curve = (u64, Vec<ScalingPoint>);

/// One workload's study pass, plus Fig 6's curves at the larger inputs.
struct Studied {
    kind: WorkloadKind,
    study: StudyReport,
    /// The study's pooled run at each of [`FRACTIONS`], in that order.
    pooled: Vec<RunReport>,
    /// Fig 6's curve at every profiled input scale, x1 (the study's) first.
    curves: Vec<(InputScale, Curve)>,
}

impl Studied {
    /// The study's pooled run at `local_fraction`, one of [`FRACTIONS`].
    fn pooled_run(&self, local_fraction: f64) -> &RunReport {
        let i = FRACTIONS
            .iter()
            .position(|&f| f == local_fraction)
            .expect("the study runs every fraction a figure reads");
        &self.pooled[i]
    }
}

/// One thread-pool item.
#[derive(Clone, Copy, PartialEq)]
enum Item {
    /// A workload's x1 study.
    Study(WorkloadKind),
    /// A workload's Fig 6 curve at a larger input.
    Curve(WorkloadKind, InputScale),
    /// An optimized BFS variant at every one of [`FIG12_POOLED`].
    Bfs(BfsOptimization),
}

/// What an [`Item`] yields: a study with its pooled run reports, a Fig 6
/// curve at a larger input, or a BFS variant's Fig 12 rows, one per
/// [`FIG12_POOLED`] fraction.
enum Profile {
    Study(Box<StudyReport>, Vec<RunReport>),
    Curve(Curve),
    Bfs(Vec<BfsVariantResult>),
}

/// Every item of the full profile, about costliest first, so that the
/// pool's threads finish together. One-thread seconds on a 2-vCPU host, in
/// this order: BFS x4 12.2, BFS study 4.0 (which generated the X1 graph
/// that both BFS variants then share), BFS x2 5.8, Hypre x4 2.5, XSBench
/// study 1.1, the two BFS variants 1.4 and 1.3, NekRS x4 1.6, HPL x4 1.5,
/// Hypre study 0.8, NekRS study 0.7, Hypre x2 1.4, XSBench x4 0.6,
/// XSBench x2 0.6, NekRS x2 0.9, HPL x2 0.7, HPL study 0.3, SuperLU x4 0.6,
/// SuperLU study 0.3 and SuperLU x2 0.3. A larger input's curve is one
/// prefetch-on walk. The quick profile runs the six studies and the two
/// BFS variants, in this order.
const CLAIM_ORDER: [Item; 20] = [
    Item::Curve(WorkloadKind::Bfs, InputScale::X4),
    Item::Study(WorkloadKind::Bfs),
    Item::Curve(WorkloadKind::Bfs, InputScale::X2),
    Item::Curve(WorkloadKind::Hypre, InputScale::X4),
    Item::Study(WorkloadKind::XsBench),
    Item::Bfs(BfsOptimization::ReorderAndFreeTemp),
    Item::Bfs(BfsOptimization::ReorderAllocations),
    Item::Curve(WorkloadKind::NekRs, InputScale::X4),
    Item::Curve(WorkloadKind::Hpl, InputScale::X4),
    Item::Study(WorkloadKind::Hypre),
    Item::Study(WorkloadKind::NekRs),
    Item::Curve(WorkloadKind::Hypre, InputScale::X2),
    Item::Curve(WorkloadKind::XsBench, InputScale::X4),
    Item::Curve(WorkloadKind::XsBench, InputScale::X2),
    Item::Curve(WorkloadKind::NekRs, InputScale::X2),
    Item::Curve(WorkloadKind::Hpl, InputScale::X2),
    Item::Study(WorkloadKind::Hpl),
    Item::Curve(WorkloadKind::SuperLu, InputScale::X4),
    Item::Study(WorkloadKind::SuperLu),
    Item::Curve(WorkloadKind::SuperLu, InputScale::X2),
];

fn main() {
    let config = base_config();
    let larger_scales: &[InputScale] = if is_quick() {
        &[]
    } else {
        &[InputScale::X2, InputScale::X4]
    };

    // One R-MAT graph serves BFS's study and both Fig 12 variants.
    let bfs = Bfs::new(if is_quick() {
        BfsParams::tiny()
    } else {
        BfsParams::bench(InputScale::X1)
    });

    // Every run is an independent simulated machine: the pool's threads
    // claim the items costliest first.
    let items: Vec<Item> = CLAIM_ORDER
        .into_iter()
        .filter(|item| match item {
            Item::Curve(_, scale) => larger_scales.contains(scale),
            Item::Study(_) | Item::Bfs(..) => true,
        })
        .collect();
    let profiles: Vec<Profile> = items
        .par_iter()
        .map(|&item| match item {
            Item::Study(kind) => {
                let input: Box<dyn Workload> = match kind {
                    WorkloadKind::Bfs => Box::new(bfs.clone()),
                    _ => workload(kind, InputScale::X1),
                };
                let (study, pooled) =
                    QuantitativeStudy::new(input, config.clone()).full_study_with_runs(&FRACTIONS);
                eprintln!("  [paper] profiled {} study", kind.name());
                Profile::Study(Box::new(study), pooled)
            }
            Item::Curve(kind, scale) => {
                // Fig 6 reads only the footprint and the scaling curve, and
                // both come from the prefetch-on Level-1 run.
                let with_pf = run_workload(
                    workload(kind, scale).as_ref(),
                    &RunOptions::new(level1_config(&config, true)),
                );
                eprintln!("  [paper] profiled {} {}", kind.name(), scale.label());
                Profile::Curve((with_pf.peak_footprint_bytes, scaling_curve(&with_pf)))
            }
            Item::Bfs(optimization) => {
                let rows = bfs_variant_rows(
                    &bfs,
                    &config,
                    optimization,
                    &FIG12_POOLED,
                    &PAPER_LOI_LEVELS,
                );
                eprintln!("  [paper] ran BFS {}", optimization.label());
                Profile::Bfs(rows)
            }
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
            let Profile::Study(study, pooled) = take(Item::Study(kind)) else {
                unreachable!("a study item yields a study")
            };
            let level1 = &study.level1;
            let x1 = (level1.footprint_bytes, level1.scaling_curve.clone());
            let curves = std::iter::once((InputScale::X1, x1))
                .chain(larger_scales.iter().map(|&scale| {
                    let Profile::Curve(curve) = take(Item::Curve(kind, scale)) else {
                        unreachable!("a larger-input item yields a curve")
                    };
                    (scale, curve)
                }))
                .collect();
            Studied {
                kind,
                study: *study,
                pooled,
                curves,
            }
        })
        .collect();
    // Fig 12's rows in the case study's order: each pooled fraction, then
    // each variant; the baseline is BFS's study run at that capacity.
    let bfs = studied
        .iter()
        .find(|s| s.kind == WorkloadKind::Bfs)
        .expect("every workload is studied");
    let by_variant = BfsOptimization::all().map(|optimization| match optimization {
        BfsOptimization::Baseline => FIG12_POOLED
            .iter()
            .map(|&pooled| {
                bfs_variant_result(
                    optimization,
                    pooled,
                    bfs.pooled_run(1.0 - pooled),
                    &PAPER_LOI_LEVELS,
                )
            })
            .collect(),
        _ => {
            let Profile::Bfs(rows) = take(Item::Bfs(optimization)) else {
                unreachable!("a BFS variant item yields its rows")
            };
            rows
        }
    });
    let bfs_variants: Vec<BfsVariantResult> = (0..FIG12_POOLED.len())
        .flat_map(|i| by_variant.iter().map(move |rows| rows[i].clone()))
        .collect();

    fig01_memory_evolution();
    table1_memory_cost();
    table2_workloads();
    fig05_roofline(&config, &studied);
    fig06_scaling_curves(&studied);
    fig07_prefetch_timeline(&studied);
    fig08_prefetch_metrics(&studied);
    fig09_remote_access(&studied);
    fig10_interference_sensitivity(&studied);
    fig11_lbench_validation(&config, &studied);
    fig12_bfs_optimization(BfsCaseStudy {
        variants: bfs_variants,
    });
    fig13_interference_scheduling(&studied);
}

/// Figure 1: evolution of memory characteristics of leadership
/// supercomputers over the past 15 years.
fn fig01_memory_evolution() {
    let trend = memory_evolution();
    let rows: Vec<Row> = trend
        .iter()
        .map(|p| {
            Row::new(
                format!("{} ({})", p.year, p.system),
                vec![
                    format!("{} GiB", p.capacity_per_node_gib),
                    format!("{:.0} GB/s", p.bandwidth_per_node_gbs),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 1 — memory capacity and bandwidth per node of leadership systems",
        &["capacity/node", "bandwidth/node"],
        &rows,
    );

    let first = trend.first().unwrap();
    let last = trend.last().unwrap();
    println!(
        "\nGrowth over the period: capacity x{:.0}, bandwidth x{:.0} (the paper's point: both \
         have increased dramatically, driving memory cost).",
        last.capacity_per_node_gib as f64 / first.capacity_per_node_gib as f64,
        last.bandwidth_per_node_gbs / first.bandwidth_per_node_gbs
    );
    write_json("fig01_memory_evolution", &trend);
}

/// Table 1: memory configuration of the Top-10 supercomputers and estimated
/// DDR/HBM cost (HBM at 3–5× the DDR unit price).
fn table1_memory_cost() {
    let systems = top10_systems();
    let costs = estimate_costs(&systems, DEFAULT_DDR_USD_PER_GIB, 4.0);

    let rows: Vec<Row> = systems
        .iter()
        .zip(&costs)
        .map(|(s, c)| {
            Row::new(
                format!("#{} {}", s.rank, s.name),
                vec![
                    if s.ddr_per_node_gib > 0 {
                        format!("{} GB", s.ddr_per_node_gib)
                    } else {
                        "-".to_string()
                    },
                    if s.hbm_per_node_gib > 0 {
                        format!("{} GB", s.hbm_per_node_gib)
                    } else {
                        "-".to_string()
                    },
                    if s.hbm_bw_per_node_tbs > 0.0 {
                        format!("{:.1} TB/s", s.hbm_bw_per_node_tbs)
                    } else {
                        "-".to_string()
                    },
                    format!("{}", s.nodes),
                    if c.ddr_cost_musd > 0.0 {
                        format!("${:.1} M", c.ddr_cost_musd)
                    } else {
                        "-".to_string()
                    },
                    if c.hbm_cost_musd > 0.0 {
                        format!("${:.1} M", c.hbm_cost_musd)
                    } else {
                        "-".to_string()
                    },
                ],
            )
        })
        .collect();

    print_table(
        "Table 1 — Top-10 memory configuration and estimated cost (HBM = 4x DDR unit price)",
        &[
            "DDR/node",
            "HBM/node",
            "HBM BW/node",
            "nodes",
            "est. DDR cost",
            "est. HBM cost",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: Frontier ≈ $34M DDR / $135M HBM; Fugaku ≈ $142M HBM. The estimates \
         above use ${DEFAULT_DDR_USD_PER_GIB}/GiB DDR and a 4x HBM multiplier."
    );
    write_json("table1_memory_cost", &costs);
}

#[derive(Serialize)]
struct Table2Row {
    workload: &'static str,
    parallelization: &'static str,
    paper_inputs: [&'static str; 3],
    proxy_inputs: Vec<String>,
    proxy_footprints_mib: Vec<f64>,
}

/// Table 2: evaluated workloads, their parallelization, the paper's input
/// problems, and the proxy inputs used by this reproduction (with their
/// ~1:2:4 footprint ratio).
fn table2_workloads() {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for kind in WorkloadKind::all() {
        let mut proxy_inputs = Vec::new();
        let mut footprints = Vec::new();
        for scale in InputScale::all() {
            let w = kind.instantiate(scale);
            proxy_inputs.push(w.input_description());
            footprints.push(w.expected_footprint_bytes() as f64 / (1 << 20) as f64);
        }
        let ratio2 = footprints[1] / footprints[0];
        let ratio4 = footprints[2] / footprints[0];
        rows.push(Row::new(
            kind.name(),
            vec![
                kind.parallelization().to_string(),
                format!("{:.0} MiB", footprints[0]),
                format!("{:.0} MiB", footprints[1]),
                format!("{:.0} MiB", footprints[2]),
                format!("1 : {ratio2:.1} : {ratio4:.1}"),
            ],
        ));
        json.push(Table2Row {
            workload: kind.name(),
            parallelization: kind.parallelization(),
            paper_inputs: kind.paper_inputs(),
            proxy_inputs,
            proxy_footprints_mib: footprints,
        });
    }
    print_table(
        "Table 2 — evaluated workloads and proxy input problems (paper: three inputs of ~1:2:4 memory usage)",
        &["parallelization", "x1 footprint", "x2 footprint", "x4 footprint", "ratio"],
        &rows,
    );
    println!("\nOriginal paper inputs:");
    for kind in WorkloadKind::all() {
        println!("  {:<8} {}", kind.name(), kind.paper_inputs().join(" | "));
    }
    write_json("table2_workloads", &json);
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
            s.curves
                .iter()
                .map(|(scale, (footprint_bytes, curve))| CurveOutput {
                    workload: s.kind.name().to_string(),
                    scale: scale.label().to_string(),
                    footprint_mib: *footprint_bytes as f64 / (1 << 20) as f64,
                    curve: curve.clone(),
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

#[derive(Serialize)]
struct Fig11Output {
    calibration_1_thread: Vec<CalibrationPoint>,
    calibration_2_threads: Vec<CalibrationPoint>,
    ic_vs_intensity: Vec<(u64, f64, f64)>,
    app_interference_coefficients: Vec<(String, f64)>,
}

/// Figure 11: LBench validation — (left) measured LoI vs configured
/// intensity, (middle) interference coefficient vs background intensity with
/// the raw-counter (PCM) saturation, (right) interference coefficient caused
/// by each application, read from its study run at 50% local capacity.
fn fig11_lbench_validation(config: &MachineConfig, studied: &[Studied]) {
    let model = LBenchModel::from_config(config);

    // Left panel: configured intensity vs measured LoI for 1 and 2 threads.
    let targets = [10.0, 20.0, 30.0, 40.0, 50.0];
    let cal1 = model.calibration_sweep(&targets, 1);
    let cal2 = model.calibration_sweep(&targets, 2);
    let rows: Vec<Row> = targets
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            Row::new(
                format!("configured {t:.0}%"),
                vec![
                    format!(
                        "{:.1}% (NFLOP={})",
                        cal1[i].measured_loi_percent, cal1[i].flops_per_element
                    ),
                    format!(
                        "{:.1}% (NFLOP={})",
                        cal2[i].measured_loi_percent, cal2[i].flops_per_element
                    ),
                ],
            )
        })
        .collect();
    print_table(
        "Figure 11 (left) — measured LoI vs configured LBench intensity",
        &["1 thread", "2 threads"],
        &rows,
    );

    // Middle panel: IC and PCM traffic vs background workload intensity.
    let intensities = [1u64, 2, 4, 8, 16, 32, 64, 128];
    let mut rows = Vec::new();
    let mut ic_series = Vec::new();
    for &nflop in &intensities {
        let ic = model.interference_coefficient_vs_lbench(nflop, 12);
        let pcm = model.pcm_traffic(nflop, 12) / 1e9;
        rows.push(Row::new(
            format!("{nflop} flops/element"),
            vec![format!("{ic:.2}"), format!("{pcm:.1} GB/s")],
        ));
        ic_series.push((nflop, ic, pcm));
    }
    print_table(
        "Figure 11 (middle) — interference coefficient vs raw-counter (PCM) traffic",
        &["IC (LBench)", "PCM traffic"],
        &rows,
    );
    println!(
        "  Note: PCM saturates at {:.0} GB/s for low flops/element while the IC keeps rising — \
         LBench resolves contention beyond link saturation (the paper's key validation point).",
        paper::testbed::LINK_SATURATION_GBS
    );

    // Right panel: interference coefficient of each application at 50% pooling.
    let mut rows = Vec::new();
    let mut app_ics = Vec::new();
    for s in studied {
        let name = s.kind.name();
        let (whole, phases) =
            app_interference_coefficient(s.pooled_run(CASE_STUDY_LOCAL), &model, name);
        let phase_max = phases.iter().map(|p| p.coefficient).fold(1.0f64, f64::max);
        let reference = paper::FIG11_IC
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(1.0);
        rows.push(Row::new(
            name,
            vec![
                format!("{:.2}", whole.coefficient),
                format!("{:.2}", phase_max),
                format!("{:.1} GB/s", whole.link_traffic_gbs),
                format!("{reference:.2}"),
            ],
        ));
        app_ics.push((name.to_string(), whole.coefficient));
    }
    print_table(
        "Figure 11 (right) — interference caused by each application (50% pooling)",
        &["IC (run)", "IC (worst phase)", "link traffic", "paper IC"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): NekRS and Hypre introduce the most interference, HPL and \
         XSBench the least; the compute phase causes more interference than initialization."
    );

    write_json(
        "fig11_lbench_validation",
        &Fig11Output {
            calibration_1_thread: cal1,
            calibration_2_threads: cal2,
            ic_vs_intensity: ic_series,
            app_interference_coefficients: app_ics,
        },
    );
}

/// Figure 12 (case study 1): optimizing BFS data placement — runtime, remote
/// memory traffic and interference sensitivity of the baseline and the two
/// optimized variants at 50% and 75% pooling.
fn fig12_bfs_optimization(study: BfsCaseStudy) {
    let mut rows = Vec::new();
    for v in &study.variants {
        rows.push(Row::new(
            format!(
                "{:.0}% pooled, {}",
                v.pooled_fraction * 100.0,
                v.optimization
            ),
            vec![
                format!("{:.1} ms", v.runtime_s * 1e3),
                format!("{:.1}%", 100.0 * v.remote_access_ratio),
                format!("{:.1}%", 100.0 * v.parents_remote_ratio),
                format!("{:.2e} B", v.remote_bytes as f64),
                format!(
                    "{:.3}",
                    v.sensitivity
                        .last()
                        .map(|p| p.relative_performance)
                        .unwrap_or(1.0)
                ),
            ],
        ));
    }
    print_table(
        "Figure 12 — BFS data-placement case study",
        &[
            "runtime",
            "remote access",
            "Parents remote",
            "remote bytes",
            "rel. perf @LoI=50",
        ],
        &rows,
    );

    for pooled in FIG12_POOLED {
        println!(
            "\nAt {:.0}% pooled: remote-access reduction {:.0} percentage points \
             (paper: {:.0}% -> {:.0}% -> {:.0}%), speedup of the fully optimized variant \
             {:.1}% (paper: ~{:.0}% at 75% pooled).",
            pooled * 100.0,
            study.remote_access_reduction(pooled).unwrap_or(0.0),
            100.0 * paper::FIG12.baseline_remote,
            100.0 * paper::FIG12.reorder_remote,
            100.0 * paper::FIG12.optimized_remote,
            study.speedup_percent(pooled).unwrap_or(0.0),
            paper::FIG12.speedup_75_percent,
        );
    }
    println!(
        "\nExpected shape (paper): reordering allocations moves the hot Parents array to local \
         memory; freeing the construction temporary lets dynamic frontier allocations stay local \
         too; remote accesses, runtime and interference sensitivity all drop."
    );
    write_json("fig12_bfs_optimization", &study);
}

/// Figure 13 (case study 2): execution-time distributions of each
/// application over 100 runs under a random co-location baseline
/// (background LoI 0–50%) and an interference-aware scheduler (0–20%),
/// priced on its study run at 50% local capacity.
fn fig13_interference_scheduling(studied: &[Studied]) {
    let campaign = CampaignConfig {
        runs: if is_quick() { 20 } else { 100 },
        epochs_per_run: 8,
        seed: 0xF1613,
    };
    let comparisons: Vec<_> = studied
        .par_iter()
        .map(|s| compare_policies(s.kind.name(), s.pooled_run(CASE_STUDY_LOCAL), &campaign))
        .collect();

    let mut rows = Vec::new();
    for cmp in &comparisons {
        let reference = paper::FIG13_SPEEDUP
            .iter()
            .find(|(n, ..)| *n == cmp.workload)
            .unwrap();
        rows.push(Row::new(
            cmp.workload.clone(),
            vec![
                format!(
                    "{:.2}/{:.2}/{:.2} ms",
                    cmp.baseline.summary.q1 * 1e3,
                    cmp.baseline.summary.median * 1e3,
                    cmp.baseline.summary.q3 * 1e3
                ),
                format!(
                    "{:.2}/{:.2}/{:.2} ms",
                    cmp.aware.summary.q1 * 1e3,
                    cmp.aware.summary.median * 1e3,
                    cmp.aware.summary.q3 * 1e3
                ),
                format!("{:+.1}%", cmp.mean_speedup_percent()),
                format!("{:+.1}%", cmp.p75_reduction_percent()),
                format!("{:.0}% / {:.0}%", reference.1, reference.2),
            ],
        ));
    }
    print_table(
        &format!(
            "Figure 13 — execution time over {} runs: random baseline vs interference-aware",
            campaign.runs
        ),
        &[
            "baseline q1/med/q3",
            "I-aware q1/med/q3",
            "mean speedup",
            "p75 reduction",
            "paper (speedup/p75)",
        ],
        &rows,
    );
    println!(
        "\nExpected shape (paper): interference-aware scheduling improves mean runtime and cuts \
         variability; Hypre benefits most (~4%), NekRS/SuperLU ~2%, BFS/HPL ~1%, XSBench ~0%."
    );
    write_json("fig13_interference_scheduling", &comparisons);
}
