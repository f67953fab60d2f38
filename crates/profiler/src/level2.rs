//! Level 2: multi-tier memory access ratios.
//!
//! Quantifies how an application's memory accesses distribute over the tiers
//! of a two-tier system (Figure 9) and compares them with the two optimization
//! reference points of Section 5.1:
//!
//! * the **capacity ratio** `R_cap` — accesses to a tier should at least
//!   match its share of the capacity (lower bound for tuning), and
//! * the **bandwidth ratio** `R_BW` — accesses beyond a tier's share of the
//!   aggregate bandwidth make that tier the bottleneck (upper bound).

use dismem_sim::{MachineConfig, RunReport};
use serde::{Deserialize, Serialize};

/// Tier access breakdown of one phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTierAccess {
    /// Label in the paper's convention (`"Hypre-p2"`).
    pub label: String,
    /// Phase name.
    pub phase: String,
    /// Bytes served by the local tier.
    pub bytes_local: u64,
    /// Bytes served by the pool tier.
    pub bytes_remote: u64,
    /// Remote access ratio of this phase.
    pub remote_access_ratio: f64,
    /// Arithmetic intensity of the phase (validation against Level 1).
    pub arithmetic_intensity: f64,
}

/// The complete Level-2 report for one workload on one tier configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level2Report {
    /// Workload name.
    pub workload: String,
    /// Fraction of the footprint that fits in the local tier (configured).
    pub local_capacity_fraction: f64,
    /// Measured remote capacity ratio `R^remote_cap` (pages on the pool /
    /// total pages).
    pub remote_capacity_ratio: f64,
    /// Remote bandwidth ratio `R^remote_BW` of the machine
    /// (`BW_pool / (BW_local + BW_pool)`).
    pub remote_bandwidth_ratio: f64,
    /// Whole-run remote access ratio.
    pub remote_access_ratio: f64,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseTierAccess>,
    /// Per-object remote access ratios (object name, remote ratio, DRAM
    /// accesses), sorted by access count descending — the information used in
    /// the BFS case study to find the hot object.
    pub object_remote_ratios: Vec<(String, f64, u64)>,
}

impl Level2Report {
    /// Phases whose remote access ratio exceeds the bandwidth reference — the
    /// paper's "priority of optimization" candidates.
    pub fn phases_above_bandwidth_ratio(&self) -> Vec<&PhaseTierAccess> {
        self.phases
            .iter()
            .filter(|p| p.remote_access_ratio > self.remote_bandwidth_ratio)
            .collect()
    }

    /// Phases whose remote access ratio exceeds the capacity reference.
    pub fn phases_above_capacity_ratio(&self) -> Vec<&PhaseTierAccess> {
        self.phases
            .iter()
            .filter(|p| p.remote_access_ratio > self.remote_capacity_ratio)
            .collect()
    }

    /// The hottest object that resides (partly) on the pool — the candidate
    /// for placement optimization.
    pub fn hottest_remote_object(&self) -> Option<&(String, f64, u64)> {
        self.object_remote_ratios
            .iter()
            .find(|(_, remote_ratio, _)| *remote_ratio > 0.5)
    }
}

/// Remote bandwidth ratio of a machine configuration.
pub fn remote_bandwidth_ratio(config: &MachineConfig) -> f64 {
    config.pool.bandwidth_bps / (config.local.bandwidth_bps + config.pool.bandwidth_bps)
}

/// Builds a Level-2 report from an existing run report.
pub fn level2_from_report(
    workload_name: &str,
    local_capacity_fraction: f64,
    report: &RunReport,
) -> Level2Report {
    let line = report.config.cache.line_bytes;
    let phases = report
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| PhaseTierAccess {
            label: format!("{}-p{}", workload_name, i + 1),
            phase: p.name.clone(),
            bytes_local: p.counters.bytes_local(line),
            bytes_remote: p.counters.bytes_pool(line),
            remote_access_ratio: p.remote_access_ratio(),
            arithmetic_intensity: p.arithmetic_intensity(),
        })
        .collect();

    let mut objects: Vec<(String, f64, u64)> = report
        .allocations
        .iter()
        .filter(|a| a.dram_lines() > 0)
        .map(|a| (a.name.clone(), a.remote_access_ratio(), a.dram_lines()))
        .collect();
    objects.sort_by_key(|o| std::cmp::Reverse(o.2));

    Level2Report {
        workload: workload_name.to_string(),
        local_capacity_fraction,
        remote_capacity_ratio: report.remote_capacity_ratio(),
        remote_bandwidth_ratio: remote_bandwidth_ratio(&report.config),
        remote_access_ratio: report.remote_access_ratio(),
        phases,
        object_remote_ratios: objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{pooled_config, run_workload, RunOptions};
    use dismem_workloads::WorkloadKind;

    /// Level 2 of a tiny workload on `test_config` with `local_fraction` of
    /// its footprint local.
    fn profile(kind: WorkloadKind, local_fraction: f64) -> Level2Report {
        let w = kind.instantiate_tiny();
        let config = pooled_config(&MachineConfig::test_config(), w.as_ref(), local_fraction);
        let report = run_workload(w.as_ref(), &RunOptions::new(config));
        level2_from_report(w.name(), local_fraction, &report)
    }

    #[test]
    fn remote_access_grows_as_local_capacity_shrinks() {
        let r75 = profile(WorkloadKind::Hypre, 0.75);
        let r25 = profile(WorkloadKind::Hypre, 0.25);
        assert!(
            r25.remote_access_ratio > r75.remote_access_ratio,
            "25% local ({}) should see more remote access than 75% local ({})",
            r25.remote_access_ratio,
            r75.remote_access_ratio
        );
        assert!(r25.remote_capacity_ratio > r75.remote_capacity_ratio);
    }

    #[test]
    fn bandwidth_ratio_matches_testbed() {
        let r = remote_bandwidth_ratio(&MachineConfig::skylake_testbed());
        assert!((r - 34.0 / 107.0).abs() < 1e-9);
    }

    #[test]
    fn phases_and_objects_are_reported() {
        let report = profile(WorkloadKind::Bfs, 0.25);
        assert!(report.phases.len() >= 2);
        assert!(!report.object_remote_ratios.is_empty());
        // Objects are sorted by access count.
        for win in report.object_remote_ratios.windows(2) {
            assert!(win[0].2 >= win[1].2);
        }
        assert!(report.phases[0].label.contains("-p1"));
    }

    #[test]
    fn reference_point_helpers() {
        let report = profile(WorkloadKind::Hypre, 0.25);
        // With only 25% of the footprint local, at least one phase should sit
        // above the bandwidth reference ratio (34/107 ≈ 0.32).
        assert!(!report.phases_above_bandwidth_ratio().is_empty());
        let above_cap = report.phases_above_capacity_ratio();
        for p in above_cap {
            assert!(p.remote_access_ratio > report.remote_capacity_ratio);
        }
    }

    #[test]
    fn arithmetic_intensity_consistent_with_level1() {
        // The paper uses this as a validation of the profiler: AI measured on
        // the two-tier system should match the single-tier measurement.
        let w = WorkloadKind::Hpl.instantiate_tiny();
        let l1 = crate::level1::level1_profile(w.as_ref(), &MachineConfig::test_config());
        let l2 = profile(WorkloadKind::Hpl, 0.5);
        let ai1 = l1.phases[1].arithmetic_intensity;
        let ai2 = l2.phases[1].arithmetic_intensity;
        let ratio = ai1 / ai2;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "AI should be preserved across tier configs: {ai1} vs {ai2}"
        );
    }
}
