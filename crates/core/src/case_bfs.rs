//! Case study 1: optimizing remote memory traffic in BFS (Section 7.1,
//! Figure 12).
//!
//! The Level-2 analysis of BFS at 75% pooled capacity shows ~99% remote
//! accesses — far above the capacity-ratio reference — and points at the
//! small but hot `Parents` array as the culprit. Two source-level changes fix
//! the placement under the default first-touch policy:
//!
//! 1. allocate and initialize `Parents` before the large graph arrays, and
//! 2. free a construction-time temporary so later dynamic (frontier)
//!    allocations can use node-local memory.
//!
//! This module runs the three variants on the same pooled configurations and
//! reports runtime, remote traffic and interference sensitivity for each —
//! the three panels of Figure 12.

use dismem_profiler::level3::{level3_from_report, SensitivityPoint};
use dismem_profiler::{pooled_config, run_workload_lockstep, RunOptions};
use dismem_sim::{MachineConfig, RunReport};
use dismem_workloads::{Bfs, BfsOptimization, BfsParams, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Result of one BFS variant on one pooling configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BfsVariantResult {
    /// Placement variant.
    pub optimization: String,
    /// Fraction of the footprint served by the pool (the paper's "50% pooled"
    /// / "75% pooled").
    pub pooled_fraction: f64,
    /// Total runtime in seconds.
    pub runtime_s: f64,
    /// Remote access ratio over the whole run.
    pub remote_access_ratio: f64,
    /// Bytes accessed from the pool.
    pub remote_bytes: u64,
    /// Remote access ratio of the `Parents` array specifically.
    pub parents_remote_ratio: f64,
    /// Interference sensitivity sweep (relative performance at each LoI).
    pub sensitivity: Vec<SensitivityPoint>,
}

/// The full case study: all variants on all pooling configurations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BfsCaseStudy {
    /// Individual results.
    pub variants: Vec<BfsVariantResult>,
}

impl BfsCaseStudy {
    /// Looks up a result by variant label and pooled fraction.
    pub fn get(
        &self,
        optimization: BfsOptimization,
        pooled_fraction: f64,
    ) -> Option<&BfsVariantResult> {
        self.variants.iter().find(|v| {
            v.optimization == optimization.label()
                && (v.pooled_fraction - pooled_fraction).abs() < 1e-9
        })
    }

    /// Speedup (percent) of the fully optimized variant over the baseline at
    /// a given pooled fraction.
    pub fn speedup_percent(&self, pooled_fraction: f64) -> Option<f64> {
        let base = self.get(BfsOptimization::Baseline, pooled_fraction)?;
        let opt = self.get(BfsOptimization::ReorderAndFreeTemp, pooled_fraction)?;
        if opt.runtime_s == 0.0 {
            return None;
        }
        Some((base.runtime_s / opt.runtime_s - 1.0) * 100.0)
    }

    /// Reduction (percentage points) of the remote access ratio from baseline
    /// to the fully optimized variant.
    pub fn remote_access_reduction(&self, pooled_fraction: f64) -> Option<f64> {
        let base = self.get(BfsOptimization::Baseline, pooled_fraction)?;
        let opt = self.get(BfsOptimization::ReorderAndFreeTemp, pooled_fraction)?;
        Some((base.remote_access_ratio - opt.remote_access_ratio) * 100.0)
    }
}

/// Runs the BFS placement case study.
///
/// `pooled_fractions` are the pool shares of the footprint (the paper uses
/// 0.5 and 0.75); `loi_percent_levels` is the interference sweep for the
/// sensitivity panel. Runs every [`BfsOptimization`] once, its one walk
/// serving every fraction ([`bfs_variant_rows`]), and lists the rows by
/// fraction, then variant.
pub fn bfs_placement_study(
    params: BfsParams,
    base_config: &MachineConfig,
    pooled_fractions: &[f64],
    loi_percent_levels: &[f64],
) -> BfsCaseStudy {
    let bfs = Bfs::new(params);
    let by_variant = BfsOptimization::all()
        .map(|opt| bfs_variant_rows(&bfs, base_config, opt, pooled_fractions, loi_percent_levels));
    let variants = (0..pooled_fractions.len())
        .flat_map(|i| by_variant.iter().map(move |rows| rows[i].clone()))
        .collect();
    BfsCaseStudy { variants }
}

/// The rows of `bfs`'s `optimization` variant, one per pooled fraction in
/// the order of `pooled_fractions`: the variant shares `bfs`'s graph and
/// runs once, and its one walk serves every fraction in lockstep. Each row
/// is read with [`bfs_variant_result`] from a report equal to the
/// fraction's direct run.
pub fn bfs_variant_rows(
    bfs: &Bfs,
    base_config: &MachineConfig,
    optimization: BfsOptimization,
    pooled_fractions: &[f64],
    loi_percent_levels: &[f64],
) -> Vec<BfsVariantResult> {
    let workload = bfs.with_optimization(optimization);
    let options: Vec<RunOptions> = pooled_fractions
        .iter()
        .map(|&pooled| {
            assert!(
                (0.0..1.0).contains(&pooled),
                "pooled fraction must be in [0,1)"
            );
            RunOptions::new(pooled_config(base_config, &workload, 1.0 - pooled))
        })
        .collect();
    run_workload_lockstep(&workload, &options)
        .iter()
        .zip(pooled_fractions)
        .map(|(report, &pooled)| {
            bfs_variant_result(optimization, pooled, report, loi_percent_levels)
        })
        .collect()
}

/// One row of the case study, read from `report`: a run of the
/// `optimization` variant with `pooled_fraction` of its footprint on the
/// pool (local capacity `1 - pooled_fraction`), its sensitivity swept over
/// `loi_percent_levels`. Simulates nothing, so a report equal to the run
/// [`bfs_placement_study`] makes gives its row, wherever the report came
/// from.
pub fn bfs_variant_result(
    optimization: BfsOptimization,
    pooled_fraction: f64,
    report: &RunReport,
    loi_percent_levels: &[f64],
) -> BfsVariantResult {
    let level3 = level3_from_report(
        WorkloadKind::Bfs.name(),
        1.0 - pooled_fraction,
        report,
        loi_percent_levels,
    );
    BfsVariantResult {
        optimization: optimization.label().to_string(),
        pooled_fraction,
        runtime_s: report.total_runtime_s,
        remote_access_ratio: report.remote_access_ratio(),
        remote_bytes: report.remote_bytes(),
        parents_remote_ratio: report
            .allocation("Parents")
            .map(|a| a.remote_access_ratio())
            .unwrap_or(0.0),
        sensitivity: level3.sensitivity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantitativeStudy;
    use dismem_profiler::run_workload;

    fn tiny_study() -> BfsCaseStudy {
        bfs_placement_study(
            BfsParams::tiny(),
            &MachineConfig::test_config(),
            &[0.75],
            &[0.0, 50.0],
        )
    }

    #[test]
    fn optimizations_reduce_remote_access_and_runtime() {
        let study = tiny_study();
        let base = study.get(BfsOptimization::Baseline, 0.75).unwrap();
        let reorder = study
            .get(BfsOptimization::ReorderAllocations, 0.75)
            .unwrap();
        let full = study
            .get(BfsOptimization::ReorderAndFreeTemp, 0.75)
            .unwrap();

        // Reordering puts Parents locally: its remote ratio collapses.
        assert!(
            base.parents_remote_ratio > 0.9,
            "{}",
            base.parents_remote_ratio
        );
        assert!(
            reorder.parents_remote_ratio < 0.1,
            "{}",
            reorder.parents_remote_ratio
        );

        // Remote access ratio and remote bytes fall monotonically.
        assert!(reorder.remote_access_ratio < base.remote_access_ratio);
        assert!(full.remote_access_ratio <= reorder.remote_access_ratio + 1e-9);
        assert!(full.remote_bytes < base.remote_bytes);

        // And the optimized version is faster.
        assert!(full.runtime_s < base.runtime_s);
        assert!(study.speedup_percent(0.75).unwrap() > 0.0);
        assert!(study.remote_access_reduction(0.75).unwrap() > 0.0);
    }

    #[test]
    fn optimized_version_is_less_interference_sensitive() {
        let study = tiny_study();
        let base = study.get(BfsOptimization::Baseline, 0.75).unwrap();
        let full = study
            .get(BfsOptimization::ReorderAndFreeTemp, 0.75)
            .unwrap();
        let base_worst = base.sensitivity.last().unwrap().relative_performance;
        let full_worst = full.sensitivity.last().unwrap().relative_performance;
        assert!(
            full_worst >= base_worst - 1e-9,
            "optimized {full_worst} should be no more sensitive than baseline {base_worst}"
        );
    }

    /// Rows read from the three-level study's pooled BFS reports, where the
    /// paper harness takes its baseline rows, and from fresh runs of the
    /// optimized variants equal the case study's rows at both of the
    /// paper's pooled fractions.
    #[test]
    fn rows_read_from_pooled_reports_match_the_case_study() {
        let config = MachineConfig::test_config();
        let pooled = [0.5, 0.75];
        let loi = [0.0, 25.0, 50.0];
        let study = bfs_placement_study(BfsParams::tiny(), &config, &pooled, &loi);

        let local = pooled.map(|p| 1.0 - p);
        let (_, baselines) =
            QuantitativeStudy::new(WorkloadKind::Bfs.instantiate_tiny(), config.clone())
                .full_study_with_runs(&local);
        let run_variant = |opt, pooled: f64| {
            let workload = Bfs::new(BfsParams::tiny().with_optimization(opt));
            let config = pooled_config(&config, &workload, 1.0 - pooled);
            run_workload(&workload, &RunOptions::new(config))
        };
        let rows: Vec<BfsVariantResult> = pooled
            .iter()
            .zip(&baselines)
            .flat_map(|(&p, baseline)| {
                BfsOptimization::all().map(|opt| match opt {
                    BfsOptimization::Baseline => bfs_variant_result(opt, p, baseline, &loi),
                    _ => bfs_variant_result(opt, p, &run_variant(opt, p), &loi),
                })
            })
            .collect();
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&study.variants).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "pooled fraction")]
    fn rejects_pooled_fraction_of_one() {
        let _ = bfs_placement_study(
            BfsParams::tiny(),
            &MachineConfig::test_config(),
            &[1.0],
            &[0.0],
        );
    }
}
