//! The three-level quantitative study facade.

use crate::guidance::{derive_guidance, Guidance};
use dismem_lbench::{app_interference_coefficient, LBenchModel};
use dismem_profiler::level1::{level1_profile, Level1Report};
use dismem_profiler::level2::{level2_from_report, level2_profile, Level2Report};
use dismem_profiler::level3::{level3_from_report, level3_profile, Level3Report, PAPER_LOI_LEVELS};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sim::{MachineConfig, RunReport};
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};

/// A complete study of one workload on one machine: all three levels plus the
/// derived guidance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyReport {
    /// Workload name.
    pub workload: String,
    /// Level 1: general characteristics.
    pub level1: Level1Report,
    /// Level 2 at each requested local-capacity fraction.
    pub level2: Vec<Level2Report>,
    /// Level 3 at each requested local-capacity fraction.
    pub level3: Vec<Level3Report>,
    /// Interference coefficient of the workload (whole run) at each fraction.
    pub interference_coefficient: Vec<f64>,
    /// Guidance derived from the smallest local-capacity configuration.
    pub guidance: Guidance,
}

/// Driver for the paper's three-level, top-down methodology on one workload.
pub struct QuantitativeStudy {
    workload: Box<dyn Workload>,
    base_config: MachineConfig,
}

impl QuantitativeStudy {
    /// Creates a study for a workload on a machine configuration.
    pub fn new(workload: Box<dyn Workload>, base_config: MachineConfig) -> Self {
        Self {
            workload,
            base_config,
        }
    }

    /// Name of the studied workload.
    pub fn workload_name(&self) -> &str {
        self.workload.name()
    }

    /// The machine configuration the study uses.
    pub fn config(&self) -> &MachineConfig {
        &self.base_config
    }

    /// Level 1: general characteristics (roofline points, footprint, scaling
    /// curve, prefetch suitability). Runs on node-local memory only.
    pub fn level1(&self) -> Level1Report {
        level1_profile(self.workload.as_ref(), &self.base_config)
    }

    /// Level 2: tier access ratios when the local tier holds `local_fraction`
    /// of the footprint.
    ///
    /// Runs its own pooled simulation. To read several levels at one
    /// fraction, call [`pooled_run`](Self::pooled_run) once and pass its
    /// report to [`level2_from_report`], [`level3_from_report`] and
    /// [`app_interference_coefficient`].
    pub fn level2(&self, local_fraction: f64) -> Level2Report {
        level2_profile(self.workload.as_ref(), &self.base_config, local_fraction)
    }

    /// Level 3: interference sensitivity for the given LoI levels (percent).
    ///
    /// Runs its own pooled simulation, then re-times it at each level.
    pub fn level3(&self, local_fraction: f64, loi_percent_levels: &[f64]) -> Level3Report {
        level3_profile(
            self.workload.as_ref(),
            &self.base_config,
            local_fraction,
            loi_percent_levels,
        )
    }

    /// Raw pooled run report (useful for scheduling campaigns and custom
    /// analyses). Each call runs one simulation; Levels 2 and 3 and the
    /// interference coefficient can all be derived from the same report.
    pub fn pooled_run(&self, local_fraction: f64) -> RunReport {
        let config = pooled_config(&self.base_config, self.workload.as_ref(), local_fraction);
        run_workload(self.workload.as_ref(), &RunOptions::new(config))
    }

    /// Interference coefficient the workload induces on the pool at the given
    /// local-capacity fraction. Runs its own pooled simulation.
    pub fn interference_coefficient(&self, local_fraction: f64) -> f64 {
        let report = self.pooled_run(local_fraction);
        let model = LBenchModel::from_config(&self.base_config);
        app_interference_coefficient(&report, &model, self.workload.name())
            .0
            .coefficient
    }

    /// Runs the full three-level study across a set of local-capacity
    /// fractions (the paper uses 0.75, 0.50 and 0.25).
    ///
    /// Runs `2 + n` simulations for `n` fractions: Level 1's two, then one
    /// pooled run per fraction, from which Level 2, Level 3 and the
    /// interference coefficient are all derived. A simulation is a pure
    /// function of the workload and its run options, so the report equals
    /// one assembled from [`level1`](Self::level1), [`level2`](Self::level2),
    /// [`level3`](Self::level3) at [`PAPER_LOI_LEVELS`] and
    /// [`interference_coefficient`](Self::interference_coefficient). Each
    /// pooled report is dropped before the next fraction runs.
    pub fn full_study(&self, local_fractions: &[f64]) -> StudyReport {
        assert!(!local_fractions.is_empty());
        let name = self.workload.name();
        let level1 = self.level1();
        let model = LBenchModel::from_config(&self.base_config);
        let mut level2 = Vec::with_capacity(local_fractions.len());
        let mut level3 = Vec::with_capacity(local_fractions.len());
        let mut interference_coefficient = Vec::with_capacity(local_fractions.len());
        for &f in local_fractions {
            let report = self.pooled_run(f);
            level2.push(level2_from_report(name, f, &report));
            level3.push(level3_from_report(name, f, &report, &PAPER_LOI_LEVELS));
            let (whole_run, _) = app_interference_coefficient(&report, &model, name);
            interference_coefficient.push(whole_run.coefficient);
        }
        // Guidance from the most pool-heavy configuration studied.
        let (tightest_idx, _) = local_fractions
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let guidance = derive_guidance(&level2[tightest_idx], &level3[tightest_idx]);
        StudyReport {
            workload: name.to_string(),
            level1,
            level2,
            level3,
            interference_coefficient,
            guidance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_trace::MemoryEngine;
    use dismem_workloads::WorkloadKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn study(kind: WorkloadKind) -> QuantitativeStudy {
        QuantitativeStudy::new(kind.instantiate_tiny(), MachineConfig::test_config())
    }

    /// Forwards to a workload and counts its runs: one run is one simulation.
    struct Counted {
        inner: Box<dyn Workload>,
        runs: Arc<AtomicUsize>,
    }

    impl Workload for Counted {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn description(&self) -> &'static str {
            self.inner.description()
        }

        fn parallelization(&self) -> &'static str {
            self.inner.parallelization()
        }

        fn input_description(&self) -> String {
            self.inner.input_description()
        }

        fn expected_footprint_bytes(&self) -> u64 {
            self.inner.expected_footprint_bytes()
        }

        fn run(&self, engine: &mut dyn MemoryEngine) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.run(engine);
        }
    }

    /// `full_study` simulates each distinct configuration once, and its
    /// report is byte-identical to one assembled from the per-level methods.
    fn assert_one_run_per_configuration(kind: WorkloadKind) {
        let fractions = [0.75, 0.5, 0.25];
        let runs = Arc::new(AtomicUsize::new(0));
        let workload = Box::new(Counted {
            inner: kind.instantiate_tiny(),
            runs: runs.clone(),
        });
        let s = QuantitativeStudy::new(workload, MachineConfig::test_config());
        let report = s.full_study(&fractions);
        assert_eq!(runs.load(Ordering::Relaxed), 2 + fractions.len());

        let level2: Vec<_> = fractions.iter().map(|&f| s.level2(f)).collect();
        let level3: Vec<_> = fractions
            .iter()
            .map(|&f| s.level3(f, &PAPER_LOI_LEVELS))
            .collect();
        let tightest = fractions.len() - 1;
        let guidance = derive_guidance(&level2[tightest], &level3[tightest]);
        let assembled = StudyReport {
            workload: s.workload_name().to_string(),
            level1: s.level1(),
            interference_coefficient: fractions
                .iter()
                .map(|&f| s.interference_coefficient(f))
                .collect(),
            level2,
            level3,
            guidance,
        };
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&assembled).unwrap()
        );
    }

    #[test]
    fn full_study_simulates_each_configuration_once_streaming() {
        assert_one_run_per_configuration(WorkloadKind::Hypre);
    }

    #[test]
    fn full_study_simulates_each_configuration_once_gather_heavy() {
        assert_one_run_per_configuration(WorkloadKind::Bfs);
    }

    #[test]
    fn full_study_produces_all_levels() {
        let s = study(WorkloadKind::Hypre);
        let report = s.full_study(&[0.75, 0.25]);
        assert_eq!(report.workload, "Hypre");
        assert_eq!(report.level2.len(), 2);
        assert_eq!(report.level3.len(), 2);
        assert_eq!(report.interference_coefficient.len(), 2);
        assert!(!report.level1.phases.is_empty());
        // Less local capacity means more remote access and more sensitivity.
        assert!(report.level2[1].remote_access_ratio >= report.level2[0].remote_access_ratio);
        assert!(report.interference_coefficient.iter().all(|&ic| ic >= 1.0));
    }

    /// A workload that never calls `phase_start`: its reports have no phases.
    struct Phaseless;

    impl Workload for Phaseless {
        fn name(&self) -> &'static str {
            "Phaseless"
        }

        fn description(&self) -> &'static str {
            "streams one array twice, outside any phase"
        }

        fn input_description(&self) -> String {
            "64 KiB array".to_string()
        }

        fn expected_footprint_bytes(&self) -> u64 {
            64 << 10
        }

        fn run(&self, engine: &mut dyn MemoryEngine) {
            let a = engine.alloc("array", "study.rs", 64 << 10);
            engine.touch(a, 64 << 10);
            engine.flops(100_000);
            engine.read(a, 0, 64 << 10);
        }
    }

    #[test]
    fn full_study_of_a_workload_without_phases() {
        let s = QuantitativeStudy::new(Box::new(Phaseless), MachineConfig::test_config());
        let report = s.full_study(&[0.5, 0.25]);
        assert!(report.level1.phases.is_empty());
        for level3 in &report.level3 {
            assert_eq!(level3.sensitivity.len(), PAPER_LOI_LEVELS.len());
            assert!(level3.compute_phase_sensitivity.is_empty());
        }
    }

    #[test]
    fn pooled_run_respects_fraction() {
        let s = study(WorkloadKind::Bfs);
        let run = s.pooled_run(0.25);
        assert!(run.remote_capacity_ratio() > 0.4);
        assert!(run.total_runtime_s > 0.0);
        assert_eq!(s.workload_name(), "BFS");
    }

    #[test]
    fn interference_coefficient_larger_for_pool_heavy_configs() {
        let s = study(WorkloadKind::Hypre);
        let ic_tight = s.interference_coefficient(0.25);
        let ic_roomy = s.interference_coefficient(1.0);
        assert!(ic_tight >= ic_roomy);
    }

    #[test]
    #[should_panic]
    fn full_study_rejects_empty_fractions() {
        let s = study(WorkloadKind::Hpl);
        let _ = s.full_study(&[]);
    }
}
