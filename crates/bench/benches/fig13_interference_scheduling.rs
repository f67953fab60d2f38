//! Figure 13 (case study 2): execution-time distributions of each application
//! over 100 runs under a random co-location baseline (background LoI 0–50%)
//! and an interference-aware scheduler (0–20%).

use dismem_bench::{base_config, is_quick, paper, print_table, workload, write_json, Row};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sched::{campaign::compare_policies, CampaignConfig};
use dismem_workloads::{InputScale, WorkloadKind};
use rayon::prelude::*;

fn main() {
    let config = base_config();
    let campaign = CampaignConfig {
        runs: if is_quick() { 20 } else { 100 },
        epochs_per_run: 8,
        seed: 0xF1613,
    };

    // Each workload's profiling run + campaigns are independent: execute
    // them concurrently on the thread pool.
    let kinds: Vec<WorkloadKind> = WorkloadKind::all().to_vec();
    let comparisons: Vec<_> = kinds
        .par_iter()
        .map(|&kind| {
            let w = workload(kind, InputScale::X1);
            // 50% memory-pool capacity as in the paper's setup.
            let cfg = pooled_config(&config, w.as_ref(), 0.5);
            let report = run_workload(w.as_ref(), &RunOptions::new(cfg));
            let cmp = compare_policies(kind.name(), &report, &campaign);
            eprintln!("  [fig13] {} campaigns finished", kind.name());
            cmp
        })
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
