//! Helpers for running workloads on configured machines.

use dismem_sim::{InterferenceProfile, Machine, MachineConfig, RunReport, TieringSpec};
use dismem_trace::Recorder;
use dismem_workloads::Workload;

/// Options for a single run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Machine configuration (tier capacities, cache, prefetcher, ...),
    /// used as given: `config.prefetch.enabled` is the prefetcher switch,
    /// and every shipped `MachineConfig` constructor turns it on.
    pub config: MachineConfig,
    /// Background interference on the pool link.
    pub interference: InterferenceProfile,
    /// Dynamic tiering policy.
    pub tiering: TieringSpec,
}

impl RunOptions {
    /// Run options for a given machine configuration with an idle pool and
    /// static (first-touch) placement.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            config,
            interference: InterferenceProfile::Idle,
            tiering: TieringSpec::Static,
        }
    }

    /// Sets the interference profile.
    pub fn with_interference(mut self, interference: InterferenceProfile) -> Self {
        self.interference = interference;
        self
    }

    /// Sets the dynamic tiering policy.
    pub fn with_tiering(mut self, tiering: TieringSpec) -> Self {
        self.tiering = tiering;
        self
    }
}

/// A fresh machine set up as `options` describe.
fn machine_for(options: &RunOptions) -> Machine {
    let mut machine = Machine::new(options.config.clone());
    machine.set_interference(options.interference.clone());
    machine.set_tiering_spec(&options.tiering);
    machine
}

/// Runs a workload on a freshly created machine and returns the report.
/// The machine uses `options.config` as given, prefetcher setting included.
pub fn run_workload(workload: &dyn Workload, options: &RunOptions) -> RunReport {
    let mut machine = machine_for(options);
    workload.run(&mut machine);
    machine.finish()
}

/// [`run_workload`] with a flight recorder attached: the machine emits trace
/// events (epoch closes, migrations, replay transitions, spills) into the
/// recorder and hands it back alongside the report. Recording is read-only —
/// the report is bit-identical to [`run_workload`]'s for the same inputs.
pub fn run_workload_recorded(
    workload: &dyn Workload,
    options: &RunOptions,
    recorder: Box<dyn Recorder>,
) -> (RunReport, Box<dyn Recorder>) {
    let mut machine = machine_for(options);
    machine.set_recorder(recorder);
    workload.run(&mut machine);
    let report = machine.finish();
    let recorder = machine
        .take_recorder()
        .expect("recorder installed above survives the run");
    (report, recorder)
}

/// Derives a pooling configuration from a base configuration and a workload:
/// the local tier is capped at `local_fraction` of the workload's expected
/// footprint, the rest of the footprint spills to the pool. This mirrors the
/// paper's `setup_waste` step, which reserves node-local memory so that only
/// 75 / 50 / 25 % of the application's peak usage fits locally.
pub fn pooled_config(
    base: &MachineConfig,
    workload: &dyn Workload,
    local_fraction: f64,
) -> MachineConfig {
    base.clone()
        .with_pooling(workload.expected_footprint_bytes(), local_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_workloads::WorkloadKind;

    fn test_base() -> MachineConfig {
        MachineConfig::test_config()
    }

    #[test]
    fn run_workload_produces_phases() {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let report = run_workload(w.as_ref(), &RunOptions::new(test_base()));
        assert!(report.phases.len() >= 2);
        assert!(report.total_runtime_s > 0.0);
        assert_eq!(report.remote_access_ratio(), 0.0, "unbounded local tier");
    }

    #[test]
    fn pooled_config_caps_local_tier() {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = pooled_config(&test_base(), w.as_ref(), 0.5);
        let cap = cfg.local.capacity_bytes.unwrap();
        let footprint = w.expected_footprint_bytes();
        assert!(cap < footprint);
        assert!(cap as f64 > 0.4 * footprint as f64);

        let report = run_workload(w.as_ref(), &RunOptions::new(cfg));
        assert!(report.remote_access_ratio() > 0.0);
        assert!(report.remote_capacity_ratio() > 0.2);
    }

    #[test]
    fn prefetch_option_is_respected() {
        let w = WorkloadKind::Hpl.instantiate_tiny();
        let with_pf = run_workload(w.as_ref(), &RunOptions::new(test_base()));
        let without_pf = run_workload(
            w.as_ref(),
            &RunOptions::new(test_base().with_prefetch(false)),
        );
        assert!(with_pf.total.pf_issued > 0);
        assert_eq!(without_pf.total.pf_issued, 0);
    }

    #[test]
    fn recorded_run_matches_unrecorded_and_returns_events() {
        use dismem_trace::FlightRecorder;
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = pooled_config(&test_base(), w.as_ref(), 0.5);
        let options = RunOptions::new(cfg);
        let plain = run_workload(w.as_ref(), &options);
        let (recorded, recorder) =
            run_workload_recorded(w.as_ref(), &options, Box::new(FlightRecorder::new()));
        assert_eq!(recorded, plain, "recording must not perturb the report");
        let recorder = recorder
            .into_any()
            .downcast::<FlightRecorder>()
            .expect("flight recorder comes back");
        // A pooled run spills pages, so the trace cannot be empty.
        assert!(recorder.metrics().counter("sim.spilled_pages_total") > 0);
    }

    #[test]
    fn interference_option_slows_down_pooled_run() {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = pooled_config(&test_base(), w.as_ref(), 0.25);
        let idle = run_workload(w.as_ref(), &RunOptions::new(cfg.clone()));
        let busy = run_workload(
            w.as_ref(),
            &RunOptions::new(cfg).with_interference(InterferenceProfile::Constant(0.5)),
        );
        assert!(busy.total_runtime_s > idle.total_runtime_s);
    }
}
