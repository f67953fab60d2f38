//! Level 3: sensitivity to memory interference on the pool link.
//!
//! Reproduces the protocol of Section 6.1: the workload runs on a pooled
//! two-tier configuration while a background interferer (LBench in the paper)
//! keeps the pool link busy at increasing levels of intensity
//! (LoI = 0, 10, ..., 50 % of the peak raw link traffic); the relative
//! performance with respect to the idle-pool run is the sensitivity.
//!
//! Because cache behaviour and page placement do not depend on what other
//! nodes do to the link, the sweep re-times a single simulated run under each
//! LoI instead of re-simulating it: one pass over the run's timeline prices
//! the idle pool and every LoI together (see
//! [`dismem_sim::RunReport::retime_many`]).

use crate::runner::{pooled_config, run_workload, RunOptions};
use dismem_sim::{InterferenceProfile, MachineConfig, RunReport};
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Relative performance at one level of interference.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// Level of interference in percent of the peak raw link traffic.
    pub loi_percent: f64,
    /// Runtime relative to the idle-pool baseline (1.0 = unaffected).
    pub relative_performance: f64,
    /// Absolute runtime at this level of interference.
    pub runtime_s: f64,
}

/// The complete Level-3 report for one workload on one tier configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Level3Report {
    /// Workload name.
    pub workload: String,
    /// Fraction of the footprint that fits in the local tier.
    pub local_capacity_fraction: f64,
    /// Whole-application sensitivity points, one per LoI level.
    pub sensitivity: Vec<SensitivityPoint>,
    /// Sensitivity of the dominant compute phase (the paper plots `*-p2`),
    /// one point per LoI level. Empty when the run recorded no phases.
    pub compute_phase_sensitivity: Vec<SensitivityPoint>,
    /// Remote access ratio of the underlying run (context for interpreting
    /// the sensitivity, per the paper's discussion).
    pub remote_access_ratio: f64,
    /// Whole-run arithmetic intensity.
    pub arithmetic_intensity: f64,
}

impl Level3Report {
    /// Relative performance at the highest measured LoI.
    pub fn worst_case_performance(&self) -> f64 {
        self.sensitivity
            .iter()
            .map(|p| p.relative_performance)
            .fold(1.0, f64::min)
    }

    /// Maximum slowdown in percent at the highest measured LoI.
    pub fn max_slowdown_percent(&self) -> f64 {
        (1.0 - self.worst_case_performance()) * 100.0
    }
}

/// The LoI levels used throughout the paper's Figures 10–13.
pub const PAPER_LOI_LEVELS: [f64; 6] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0];

/// Builds a Level-3 report from an existing pooled run report by re-timing it
/// under each requested level of interference.
///
/// One [`RunReport::retime_many`] call re-times the idle pool and every level
/// together, on the calling thread. A report without phases yields an empty
/// [`Level3Report::compute_phase_sensitivity`].
pub fn level3_from_report(
    workload_name: &str,
    local_capacity_fraction: f64,
    report: &RunReport,
    loi_percent_levels: &[f64],
) -> Level3Report {
    // Dominant compute phase: the phase (after the first) with the longest
    // runtime; the only phase when there is one, none when there are none.
    let compute_phase = report
        .phases
        .iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.runtime_s.partial_cmp(&b.1.runtime_s).unwrap())
        .map(|(i, _)| i)
        .or_else(|| (!report.phases.is_empty()).then_some(0));

    let profiles: Vec<InterferenceProfile> = std::iter::once(InterferenceProfile::Idle)
        .chain(
            loi_percent_levels
                .iter()
                .map(|&loi| InterferenceProfile::constant_percent(loi)),
        )
        .collect();
    let mut retimed = report.retime_many(&profiles).into_iter();
    let idle = retimed.next().expect("the idle profile is re-timed first");
    let point = |loi_percent: f64, idle_s: f64, runtime_s: f64| SensitivityPoint {
        loi_percent,
        relative_performance: if runtime_s > 0.0 {
            idle_s / runtime_s
        } else {
            1.0
        },
        runtime_s,
    };
    let mut sensitivity = Vec::with_capacity(loi_percent_levels.len());
    let mut compute_phase_sensitivity = Vec::new();
    for (&loi, run) in loi_percent_levels.iter().zip(retimed) {
        sensitivity.push(point(loi, idle.total_runtime_s, run.total_runtime_s));
        if let Some(p) = compute_phase {
            compute_phase_sensitivity.push(point(
                loi,
                idle.phase_runtimes_s[p],
                run.phase_runtimes_s[p],
            ));
        }
    }

    let line = report.config.cache.line_bytes;
    Level3Report {
        workload: workload_name.to_string(),
        local_capacity_fraction,
        sensitivity,
        compute_phase_sensitivity,
        remote_access_ratio: report.remote_access_ratio(),
        arithmetic_intensity: report.total.arithmetic_intensity(line),
    }
}

/// Runs the Level-3 protocol: simulate once on the pooled configuration, then
/// re-time under every LoI level.
pub fn level3_profile(
    workload: &dyn Workload,
    base_config: &MachineConfig,
    local_fraction: f64,
    loi_percent_levels: &[f64],
) -> Level3Report {
    let config = pooled_config(base_config, workload, local_fraction);
    let report = run_workload(workload, &RunOptions::new(config));
    level3_from_report(workload.name(), local_fraction, &report, loi_percent_levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_workloads::WorkloadKind;

    fn profile(kind: WorkloadKind, local_fraction: f64) -> Level3Report {
        let w = kind.instantiate_tiny();
        level3_profile(
            w.as_ref(),
            &MachineConfig::test_config(),
            local_fraction,
            &PAPER_LOI_LEVELS,
        )
    }

    #[test]
    fn sensitivity_is_monotone_in_interference() {
        let r = profile(WorkloadKind::Hypre, 0.5);
        assert_eq!(r.sensitivity.len(), PAPER_LOI_LEVELS.len());
        assert!((r.sensitivity[0].relative_performance - 1.0).abs() < 1e-9);
        for w in r.sensitivity.windows(2) {
            assert!(
                w[1].relative_performance <= w[0].relative_performance + 1e-9,
                "performance must not improve with more interference"
            );
        }
        assert!(r.worst_case_performance() <= 1.0);
    }

    #[test]
    fn memory_bound_app_is_more_sensitive_than_compute_bound() {
        let hypre = profile(WorkloadKind::Hypre, 0.25);
        let hpl = profile(WorkloadKind::Hpl, 0.25);
        assert!(
            hypre.max_slowdown_percent() > hpl.max_slowdown_percent(),
            "Hypre ({}) should be more sensitive than HPL ({})",
            hypre.max_slowdown_percent(),
            hpl.max_slowdown_percent()
        );
    }

    #[test]
    fn all_local_run_is_insensitive() {
        // When the whole footprint fits locally there is no pool traffic and
        // interference cannot hurt.
        let r = profile(WorkloadKind::Hpl, 1.0);
        assert!(
            r.max_slowdown_percent() < 1.0,
            "slowdown {}",
            r.max_slowdown_percent()
        );
        assert!(r.remote_access_ratio < 0.05);
    }

    #[test]
    fn report_contains_context_metrics() {
        let r = profile(WorkloadKind::Bfs, 0.25);
        assert!(r.remote_access_ratio > 0.0);
        assert!(r.arithmetic_intensity >= 0.0);
        assert_eq!(r.compute_phase_sensitivity.len(), r.sensitivity.len());
    }
}
