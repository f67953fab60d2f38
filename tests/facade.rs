//! Manifest-wiring tests: every facade re-export must resolve and the core
//! types behind each must be usable, so a broken crate dependency or a
//! renamed re-export fails here rather than deep inside an experiment.

use dismem::analysis::{five_number_summary, memory_evolution, top10_systems, Roofline};
use dismem::core::{derive_guidance, QuantitativeStudy};
use dismem::lbench::{LBenchModel, LBenchParams};
use dismem::profiler::{pooled_config, run_workload, RunOptions};
use dismem::sched::{campaign::compare_policies, CampaignConfig};
use dismem::sim::{Machine, MachineConfig};
use dismem::trace::{MemoryEngine, TraceRecorder, CACHE_LINE_SIZE, PAGE_SIZE};
use dismem::workloads::{InputScale, WorkloadKind};

/// The facade version comes from the shared `workspace.package.version`.
#[test]
fn version_is_plumbed_from_the_workspace_manifest() {
    assert!(!dismem::VERSION.is_empty());
    assert!(
        dismem::VERSION.split('.').count() >= 3,
        "expected a semver-ish version, got {:?}",
        dismem::VERSION
    );
}

/// `dismem::trace` — constants and the trace recorder engine.
// The trace constants are compile-time checkable.
const _: () = assert!(CACHE_LINE_SIZE == 64 && PAGE_SIZE >= CACHE_LINE_SIZE);

#[test]
fn trace_reexports_work() {
    let mut rec = TraceRecorder::new();
    let obj = rec.alloc("A", "facade", PAGE_SIZE);
    rec.phase_start("touch");
    rec.touch(obj, PAGE_SIZE);
    rec.phase_end();
    assert!(rec.stats().bytes_read + rec.stats().bytes_written > 0);
}

/// `dismem::sim` — the machine simulator behind every experiment.
#[test]
fn sim_reexports_work() {
    let mut m = Machine::new(MachineConfig::test_config());
    let obj = m.alloc("A", "facade", PAGE_SIZE);
    m.phase_start("touch");
    m.touch(obj, PAGE_SIZE);
    m.phase_end();
    let report = m.finish();
    assert!(report.total_runtime_s > 0.0);
}

/// `dismem::workloads` — every workload kind instantiates and runs on the
/// test machine configuration.
#[test]
fn every_workload_kind_instantiates_on_the_test_config() {
    assert_eq!(WorkloadKind::all().len(), 6);
    for kind in WorkloadKind::all() {
        let w = kind.instantiate_tiny();
        assert_eq!(w.name(), kind.name());
        assert!(w.expected_footprint_bytes() > 0, "{}", kind.name());
        let mut m = Machine::new(MachineConfig::test_config());
        w.run(&mut m);
        let report = m.finish();
        assert!(
            report.total_runtime_s > 0.0,
            "{} must spend time on the machine",
            kind.name()
        );
    }
    // Input scales are exposed too.
    assert_eq!(InputScale::all().len(), 3);
}

/// `dismem::profiler` — the runner and pooled-configuration helpers.
#[test]
fn profiler_reexports_work() {
    let w = WorkloadKind::Bfs.instantiate_tiny();
    let cfg = pooled_config(&MachineConfig::test_config(), w.as_ref(), 0.5);
    let report = run_workload(w.as_ref(), &RunOptions::new(cfg));
    assert!(report.remote_capacity_ratio() > 0.0);
}

/// `dismem::lbench` — the analytic link-contention model.
#[test]
fn lbench_reexports_work() {
    let model = LBenchModel::from_config(&MachineConfig::test_config());
    assert!(model.measured_loi(8, 1) >= 0.0);
    let _ = LBenchParams::tiny();
}

/// `dismem::analysis` — rooflines, statistics and the systems dataset.
#[test]
fn analysis_reexports_work() {
    let r = Roofline::new(1.0e12, 1.0e11);
    assert!(r.attainable(0.5) <= 1.0e12);
    let s = five_number_summary(&[1.0, 2.0, 3.0]);
    assert_eq!(s.median, 2.0);
    assert!(!top10_systems().is_empty());
    assert!(!memory_evolution().is_empty());
}

/// `dismem::sched` — the scheduling campaign entry points.
#[test]
fn sched_reexports_work() {
    let w = WorkloadKind::Hpl.instantiate_tiny();
    let cfg = pooled_config(&MachineConfig::test_config(), w.as_ref(), 0.5);
    let report = run_workload(w.as_ref(), &RunOptions::new(cfg));
    let campaign = CampaignConfig {
        runs: 4,
        epochs_per_run: 2,
        seed: 7,
    };
    let cmp = compare_policies("HPL", &report, &campaign);
    assert_eq!(cmp.baseline.runtimes_s.len(), 4);
}

/// `dismem::core` — the quantitative-study facade ties it all together.
#[test]
fn core_reexports_work() {
    let study = QuantitativeStudy::new(
        WorkloadKind::XsBench.instantiate_tiny(),
        MachineConfig::test_config(),
    );
    let report = study.full_study(&[0.5]);
    let guidance = derive_guidance(&report.level2[0], &report.level3[0]);
    assert_eq!(guidance.notes, report.guidance.notes);
    assert!(!guidance.notes.is_empty());
}
