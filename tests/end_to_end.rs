//! Cross-crate integration tests: run the whole methodology end to end on
//! small inputs and check that the paper's qualitative findings hold.

use dismem::core::{bfs_placement_study, QuantitativeStudy};
use dismem::lbench::{app_interference_coefficient, LBenchKernel, LBenchModel, LBenchParams};
use dismem::profiler::{pooled_config, run_workload, RunOptions};
use dismem::sched::{campaign::compare_policies, CampaignConfig};
use dismem::sim::{InterferenceProfile, Machine, MachineConfig};
use dismem::workloads::{BfsOptimization, BfsParams, Workload, WorkloadKind};

fn config() -> MachineConfig {
    MachineConfig::test_config()
}

#[test]
fn remote_access_grows_as_local_capacity_shrinks_for_every_workload() {
    for kind in WorkloadKind::all() {
        let report =
            QuantitativeStudy::new(kind.instantiate_tiny(), config()).full_study(&[0.75, 0.25]);
        let (roomy, tight) = (&report.level2[0], &report.level2[1]);
        assert!(
            tight.remote_access_ratio >= roomy.remote_access_ratio - 1e-9,
            "{}: remote access should not shrink when local capacity shrinks ({} vs {})",
            kind.name(),
            tight.remote_access_ratio,
            roomy.remote_access_ratio
        );
        assert!(tight.remote_capacity_ratio > roomy.remote_capacity_ratio);
    }
}

#[test]
fn xsbench_keeps_remote_access_low_in_all_configurations() {
    // Section 5.1: XSBench's remote access ratio stays very low because its
    // hot structures are small and allocated first. On the tiny test inputs
    // the ratio is not as extreme as the paper's <6%, so the check is that it
    // stays well below the other workloads and below the capacity ratio.
    let fractions = [0.75, 0.5, 0.25];
    let study = |kind: WorkloadKind| {
        QuantitativeStudy::new(kind.instantiate_tiny(), config()).full_study(&fractions)
    };
    let (xs, hypre, bfs) = (
        study(WorkloadKind::XsBench),
        study(WorkloadKind::Hypre),
        study(WorkloadKind::Bfs),
    );
    for (i, fraction) in fractions.into_iter().enumerate() {
        let xs_l2 = &xs.level2[i];
        assert!(
            xs_l2.remote_access_ratio < 0.45,
            "XSBench remote access ratio {} too high at {} local",
            xs_l2.remote_access_ratio,
            fraction
        );
        assert!(
            xs_l2.remote_access_ratio <= xs_l2.remote_capacity_ratio + 0.05,
            "XSBench accesses the pool less than its share of capacity"
        );
        assert!(xs_l2.remote_access_ratio < hypre.level2[i].remote_access_ratio);
        assert!(xs_l2.remote_access_ratio < bfs.level2[i].remote_access_ratio);
    }
}

#[test]
fn memory_bound_workloads_are_most_interference_sensitive() {
    // Section 6.1: Hypre/NekRS most sensitive, HPL and XSBench least.
    let slowdown = |kind: WorkloadKind| {
        let report = QuantitativeStudy::new(kind.instantiate_tiny(), config()).full_study(&[0.5]);
        report.level3[0].max_slowdown_percent()
    };
    let hypre = slowdown(WorkloadKind::Hypre);
    let nekrs = slowdown(WorkloadKind::NekRs);
    let hpl = slowdown(WorkloadKind::Hpl);
    let xs = slowdown(WorkloadKind::XsBench);
    assert!(hypre > hpl, "Hypre {hypre} vs HPL {hpl}");
    assert!(nekrs > xs, "NekRS {nekrs} vs XSBench {xs}");
}

#[test]
fn sensitivity_decreases_monotonically_with_interference_for_all_workloads() {
    for kind in WorkloadKind::all() {
        let report = QuantitativeStudy::new(kind.instantiate_tiny(), config()).full_study(&[0.25]);
        for w in report.level3[0].sensitivity.windows(2) {
            assert!(
                w[1].relative_performance <= w[0].relative_performance + 1e-9,
                "{}: performance should not improve with more interference",
                kind.name()
            );
        }
    }
}

#[test]
fn prefetching_helps_streaming_workloads_more_than_random_lookups() {
    let gain = |kind: WorkloadKind| {
        QuantitativeStudy::new(kind.instantiate_tiny(), config())
            .level1()
            .prefetch
            .performance_gain
    };
    let hypre = gain(WorkloadKind::Hypre);
    let xs = gain(WorkloadKind::XsBench);
    assert!(
        hypre > xs + 0.02,
        "prefetch gain: Hypre {hypre} should exceed XSBench {xs}"
    );
    assert!(
        hypre > 0.05,
        "streaming workload should gain from prefetching"
    );
}

#[test]
fn bfs_case_study_reproduces_the_paper_shape() {
    let study = bfs_placement_study(BfsParams::tiny(), &config(), &[0.75], &[0.0, 25.0, 50.0]);
    let base = study.get(BfsOptimization::Baseline, 0.75).unwrap();
    let opt = study
        .get(BfsOptimization::ReorderAndFreeTemp, 0.75)
        .unwrap();
    assert!(base.remote_access_ratio > opt.remote_access_ratio);
    assert!(base.runtime_s > opt.runtime_s);
    assert!(study.speedup_percent(0.75).unwrap() > 0.0);
}

#[test]
fn interference_aware_scheduling_reduces_variability() {
    let campaign = CampaignConfig {
        runs: 25,
        epochs_per_run: 5,
        seed: 99,
    };
    for kind in [WorkloadKind::Hypre, WorkloadKind::Bfs] {
        let w = kind.instantiate_tiny();
        let cfg = pooled_config(&config(), w.as_ref(), 0.5);
        let report = run_workload(w.as_ref(), &RunOptions::new(cfg));
        let cmp = compare_policies(kind.name(), &report, &campaign);
        assert!(cmp.aware.summary.q3 <= cmp.baseline.summary.q3 + 1e-12);
        assert!(cmp.mean_speedup_percent() >= -0.5);
    }
}

#[test]
fn lbench_injects_interference_that_hurts_pool_bound_workloads() {
    // Close the loop: calibrate LBench for a target LoI, re-time a pooled
    // Hypre run under that LoI, and observe the slowdown.
    let cfg = config();
    let model = LBenchModel::from_config(&cfg);
    let cal = model.calibrate(40.0, 2);
    assert!(cal.measured_loi_percent > 20.0);

    let w = WorkloadKind::Hypre.instantiate_tiny();
    let pooled = pooled_config(&cfg, w.as_ref(), 0.25);
    let idle = run_workload(w.as_ref(), &RunOptions::new(pooled));
    let busy = idle.retime(&InterferenceProfile::constant_percent(
        cal.measured_loi_percent,
    ));
    assert!(busy.total_runtime_s > idle.total_runtime_s);
}

#[test]
fn lbench_kernel_and_coefficient_are_consistent() {
    // An application that streams the pool heavily should have a larger IC
    // than LBench at high flops-per-element.
    let cfg = config();
    let model = LBenchModel::from_config(&cfg);

    let mut machine = Machine::new(cfg.clone());
    let kernel = LBenchKernel::new(LBenchParams::tiny());
    kernel.run(&mut machine);
    let report = machine.finish();
    let (ic, _) = app_interference_coefficient(&report, &model, "LBench");
    assert!(ic.coefficient >= 1.0);
    assert!(report.remote_access_ratio() > 0.99);
}

#[test]
fn guidance_distinguishes_compute_bound_from_memory_bound_workloads() {
    let guidance_for = |kind: WorkloadKind| {
        QuantitativeStudy::new(kind.instantiate_tiny(), config())
            .full_study(&[0.25])
            .guidance
    };
    let hpl = guidance_for(WorkloadKind::Hpl);
    let hypre = guidance_for(WorkloadKind::Hypre);
    // HPL tolerates the pool better than Hypre.
    assert!(hpl.max_slowdown_percent <= hypre.max_slowdown_percent);
    assert!(!hpl.notes.is_empty() && !hypre.notes.is_empty());
}

#[test]
fn full_study_serializes_to_json() {
    let study = QuantitativeStudy::new(WorkloadKind::SuperLu.instantiate_tiny(), config());
    let report = study.full_study(&[0.5]);
    let json = serde_json::to_string(&report).expect("study must serialize");
    assert!(json.contains("SuperLU"));
    assert!(json.contains("sensitivity"));
    let phases_total: usize = report.level2.iter().map(|l| l.phases.len()).sum();
    assert!(phases_total >= 3, "SuperLU has three phases");
}

#[test]
fn every_workload_runs_on_the_paper_testbed_configuration() {
    // Smoke-test the full (non-scaled) Skylake configuration too.
    for kind in WorkloadKind::all() {
        let w = kind.instantiate_tiny();
        let report = run_workload(
            w.as_ref(),
            &RunOptions::new(MachineConfig::skylake_testbed()),
        );
        assert!(report.total_runtime_s > 0.0);
        assert_eq!(
            report.total.l2_lines_in,
            report.total.l2_demand_misses + report.total.pf_issued,
            "{}: fill conservation must hold",
            kind.name()
        );
    }
}
