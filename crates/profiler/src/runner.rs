//! Helpers for running workloads on configured machines.

use dismem_sim::{Machine, MachineConfig, RunReport, TieringSpec};
use dismem_trace::{FlightRecorder, TraceEvent};
use dismem_workloads::Workload;

/// Options for a single run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Machine configuration (tier capacities, cache, prefetcher, ...),
    /// used as given: `config.prefetch.enabled` is the prefetcher switch,
    /// and every shipped `MachineConfig` constructor turns it on.
    pub config: MachineConfig,
    /// Dynamic tiering policy.
    pub tiering: TieringSpec,
}

impl RunOptions {
    /// Run options for a given machine configuration with static
    /// (first-touch) placement.
    pub fn new(config: MachineConfig) -> Self {
        Self {
            config,
            tiering: TieringSpec::Static,
        }
    }

    /// Sets the dynamic tiering policy.
    pub fn with_tiering(mut self, tiering: TieringSpec) -> Self {
        self.tiering = tiering;
        self
    }
}

/// A fresh machine with one placement per entry of `options`, all served
/// by one cache walk.
fn machine_for<'a>(options: impl IntoIterator<Item = &'a RunOptions>) -> Machine {
    Machine::lockstep(
        options
            .into_iter()
            .map(|options| (options.config.clone(), options.tiering)),
    )
}

/// Runs a workload on a freshly created machine and returns the report.
/// The machine uses `options.config` as given, prefetcher setting included.
/// The one-element call of [`run_workload_lockstep`].
pub fn run_workload(workload: &dyn Workload, options: &RunOptions) -> RunReport {
    run_workload_lockstep(workload, std::slice::from_ref(options))
        .pop()
        .expect("one report per option")
}

/// Runs a workload for every entry of `options`, walking each distinct cache
/// walk once: the entries that share a walk (equal `cache`, `prefetch`,
/// `chunk_bytes` and `chunk_flops`, see
/// [`MachineConfig::shares_walk_with`]) are placements of one machine and run
/// in lockstep, so the workload runs once per distinct walk. Returns one
/// report per entry, in order, each equal to [`run_workload`]'s for that
/// entry.
///
/// Panics with a simulated OOM if any entry's direct run would.
pub fn run_workload_lockstep(workload: &dyn Workload, options: &[RunOptions]) -> Vec<RunReport> {
    let mut reports: Vec<Option<RunReport>> = vec![None; options.len()];
    for (first, first_options) in options.iter().enumerate() {
        if reports[first].is_some() {
            continue;
        }
        let walk: Vec<usize> = (first..options.len())
            .filter(|&i| first_options.config.shares_walk_with(&options[i].config))
            .collect();
        let mut machine = machine_for(walk.iter().map(|&i| &options[i]));
        workload.run(&mut machine);
        for (i, report) in walk.into_iter().zip(machine.finish_lockstep()) {
            reports[i] = Some(report);
        }
    }
    reports
        .into_iter()
        .map(|report| report.expect("every option ran"))
        .collect()
}

/// [`run_workload`] with a flight recorder attached: returns the report and
/// the trace events the machine emitted (epoch closes, migrations, replay
/// transitions, spills), in emission order. Recording is read-only — the
/// report is bit-identical to [`run_workload`]'s for the same inputs.
pub fn run_workload_recorded(
    workload: &dyn Workload,
    options: &RunOptions,
) -> (RunReport, Vec<TraceEvent>) {
    let mut machine = machine_for([options]);
    machine.set_recorder(FlightRecorder::new());
    workload.run(&mut machine);
    let report = machine.finish();
    let recorder = machine
        .take_recorder()
        .expect("recorder installed above survives the run");
    (report, recorder.into_events())
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
    use dismem_sim::InterferenceProfile;
    use dismem_workloads::WorkloadKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = pooled_config(&test_base(), w.as_ref(), 0.5);
        let options = RunOptions::new(cfg);
        let plain = run_workload(w.as_ref(), &options);
        let (recorded, events) = run_workload_recorded(w.as_ref(), &options);
        assert_eq!(recorded, plain, "recording must not perturb the report");
        // A pooled run spills pages, so the trace cannot be empty.
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::TierSpill { .. })));
    }

    /// Interference is priced on the idle report, by re-timing it.
    #[test]
    fn interference_option_slows_down_pooled_run() {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = pooled_config(&test_base(), w.as_ref(), 0.25);
        let idle = run_workload(w.as_ref(), &RunOptions::new(cfg));
        let busy = idle.retime(&InterferenceProfile::Constant(0.5));
        assert!(busy.total_runtime_s > idle.total_runtime_s);
    }

    /// One walk serves every local capacity: the lockstep reports equal the
    /// direct runs.
    #[test]
    fn lockstep_reports_equal_direct_runs() {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let options: Vec<RunOptions> = [1.0, 0.5, 0.25]
            .iter()
            .map(|&f| RunOptions::new(pooled_config(&test_base(), w.as_ref(), f)))
            .collect();
        let lockstep = run_workload_lockstep(w.as_ref(), &options);
        assert_eq!(lockstep.len(), options.len());
        for (report, options) in lockstep.iter().zip(&options) {
            assert!(*report == run_workload(w.as_ref(), options));
        }
    }

    /// Forwards to a workload and counts its runs: one run is one walk.
    struct Counted {
        inner: Box<dyn Workload>,
        runs: AtomicUsize,
    }

    impl Workload for Counted {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn description(&self) -> &'static str {
            self.inner.description()
        }

        fn input_description(&self) -> String {
            self.inner.input_description()
        }

        fn expected_footprint_bytes(&self) -> u64 {
            self.inner.expected_footprint_bytes()
        }

        fn run(&self, engine: &mut dyn dismem_trace::MemoryEngine) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            self.inner.run(engine);
        }
    }

    /// Options that do not share a walk run on separate walks, one per
    /// distinct walk, and the reports come back in input order.
    #[test]
    fn lockstep_walks_each_distinct_walk_once() {
        let w = Counted {
            inner: WorkloadKind::Hpl.instantiate_tiny(),
            runs: AtomicUsize::new(0),
        };
        let options: Vec<RunOptions> = [(true, 0.5), (false, 0.5), (true, 0.25), (false, 0.25)]
            .iter()
            .map(|&(prefetch, f)| {
                RunOptions::new(pooled_config(&test_base().with_prefetch(prefetch), &w, f))
            })
            .collect();
        let reports = run_workload_lockstep(&w, &options);
        assert_eq!(
            w.runs.load(Ordering::Relaxed),
            2,
            "prefetch on and off are two walks"
        );
        assert_eq!(reports.len(), options.len());
        for (report, options) in reports.iter().zip(&options) {
            assert!(*report == run_workload(&w, options));
        }
    }
}
