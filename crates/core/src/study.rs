//! The three-level quantitative study facade.

use crate::guidance::{derive_guidance, Guidance};
use dismem_lbench::{app_interference_coefficient, LBenchModel};
use dismem_profiler::level1::{level1_config, level1_from_reports, level1_profile, Level1Report};
use dismem_profiler::level2::{level2_from_report, Level2Report};
use dismem_profiler::level3::{level3_from_report, Level3Report, PAPER_LOI_LEVELS};
use dismem_profiler::{pooled_config, run_workload_lockstep, RunOptions};
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

    /// The workload on a machine whose local tier holds `local_fraction` of
    /// its footprint: the options whose report [`level2_from_report`],
    /// [`level3_from_report`] and [`app_interference_coefficient`] all read.
    fn pooled_options(&self, local_fraction: f64) -> RunOptions {
        RunOptions::new(pooled_config(
            &self.base_config,
            self.workload.as_ref(),
            local_fraction,
        ))
    }

    /// The pooled run at `local_fraction`, simulated on its own.
    #[cfg(test)]
    fn pooled_run(&self, local_fraction: f64) -> RunReport {
        dismem_profiler::run_workload(self.workload.as_ref(), &self.pooled_options(local_fraction))
    }

    /// Runs the full three-level study across a set of local-capacity
    /// fractions (the paper uses 0.75, 0.50 and 0.25).
    ///
    /// Needs Level 1's two runs, prefetcher on and off, and one pooled run
    /// per fraction, from which Level 2, Level 3 at [`PAPER_LOI_LEVELS`] and
    /// the interference coefficient are all derived. The cache walk does
    /// not depend on placement, so runs that share a walk share one
    /// simulation: with the prefetcher on in `base_config`, one walk serves
    /// Level 1's prefetch-on run and every pooled run, and a second serves
    /// the prefetch-off run. Each report equals that of a direct run.
    pub fn full_study(&self, local_fractions: &[f64]) -> StudyReport {
        self.study(local_fractions, drop)
    }

    /// [`full_study`](Self::full_study), also handing back the pooled run
    /// report of each fraction, in the order of `local_fractions`, for
    /// analyses the study does not make (scheduling campaigns, per-phase
    /// interference coefficients). Makes the same walks and the same report.
    pub fn full_study_with_runs(&self, local_fractions: &[f64]) -> (StudyReport, Vec<RunReport>) {
        let mut runs = Vec::with_capacity(local_fractions.len());
        let report = self.study(local_fractions, |run| runs.push(run));
        (report, runs)
    }

    /// The study loop of both entry points: each pooled report goes to
    /// `keep` once the study has read it.
    fn study(&self, local_fractions: &[f64], mut keep: impl FnMut(RunReport)) -> StudyReport {
        assert!(!local_fractions.is_empty());
        let name = self.workload.name();
        let mut options = vec![
            RunOptions::new(level1_config(&self.base_config, true)),
            RunOptions::new(level1_config(&self.base_config, false)),
        ];
        options.extend(local_fractions.iter().map(|&f| self.pooled_options(f)));
        let mut reports = run_workload_lockstep(self.workload.as_ref(), &options).into_iter();
        let (Some(with_pf), Some(without_pf)) = (reports.next(), reports.next()) else {
            unreachable!("one report per option")
        };
        let level1 = level1_from_reports(self.workload.as_ref(), &with_pf, &without_pf);
        let model = LBenchModel::from_config(&self.base_config);
        let mut level2 = Vec::with_capacity(local_fractions.len());
        let mut level3 = Vec::with_capacity(local_fractions.len());
        let mut interference_coefficient = Vec::with_capacity(local_fractions.len());
        for (&f, report) in local_fractions.iter().zip(reports) {
            level2.push(level2_from_report(name, f, &report));
            level3.push(level3_from_report(name, f, &report, &PAPER_LOI_LEVELS));
            let (whole_run, _) = app_interference_coefficient(&report, &model, name);
            interference_coefficient.push(whole_run.coefficient);
            keep(report);
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

    /// `full_study` walks the workload twice, prefetcher on and off, and its
    /// report is byte-identical to one assembled from Level 1's two runs
    /// and a separate pooled run for each level at each fraction.
    /// `full_study_with_runs` makes the same walks and the same report, and
    /// hands back reports equal to fresh pooled runs.
    fn assert_one_run_per_configuration(kind: WorkloadKind) {
        let fractions = [0.75, 0.5, 0.25];
        let runs = Arc::new(AtomicUsize::new(0));
        let workload = Box::new(Counted {
            inner: kind.instantiate_tiny(),
            runs: runs.clone(),
        });
        let s = QuantitativeStudy::new(workload, MachineConfig::test_config());
        let report = s.full_study(&fractions);
        assert_eq!(runs.load(Ordering::Relaxed), 2);

        runs.store(0, Ordering::Relaxed);
        let (with_runs, pooled) = s.full_study_with_runs(&fractions);
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(
            serde_json::to_string(&with_runs).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
        assert_eq!(pooled.len(), fractions.len());
        for (&f, run) in fractions.iter().zip(&pooled) {
            assert!(*run == s.pooled_run(f), "the pooled report at {f} differs");
        }

        let name = s.workload_name();
        let model = LBenchModel::from_config(s.config());
        let level2: Vec<_> = fractions
            .iter()
            .map(|&f| level2_from_report(name, f, &s.pooled_run(f)))
            .collect();
        let level3: Vec<_> = fractions
            .iter()
            .map(|&f| level3_from_report(name, f, &s.pooled_run(f), &PAPER_LOI_LEVELS))
            .collect();
        let tightest = fractions.len() - 1;
        let guidance = derive_guidance(&level2[tightest], &level3[tightest]);
        let assembled = StudyReport {
            workload: name.to_string(),
            level1: s.level1(),
            interference_coefficient: fractions
                .iter()
                .map(|&f| {
                    app_interference_coefficient(&s.pooled_run(f), &model, name)
                        .0
                        .coefficient
                })
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
        let report = study(WorkloadKind::Hypre).full_study(&[1.0, 0.25]);
        let ic = &report.interference_coefficient;
        assert!(ic[1] >= ic[0], "25% local {} vs all local {}", ic[1], ic[0]);
    }

    #[test]
    #[should_panic]
    fn full_study_rejects_empty_fractions() {
        let s = study(WorkloadKind::Hpl);
        let _ = s.full_study(&[]);
    }
}
