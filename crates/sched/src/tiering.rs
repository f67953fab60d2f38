//! Dynamic-tiering policy campaigns.
//!
//! Unlike the interference campaigns (which re-time a fixed profiled run),
//! tiering policies change page placement itself, so each policy needs its
//! own simulated placement. The cache walk never reads a page's tier, so a
//! sweep runs every (local capacity × [`TieringSpec`]) cell as a placement of
//! one walk of the workload, through
//! [`dismem_profiler::run_workload_lockstep`]: each cell's report equals its
//! direct run's. The sweep then reuses the Monte Carlo machinery to price
//! every policy's run under randomly drawn pool interference, so the
//! comparison covers both the idle-pool runtime and behaviour on a busy
//! rack: migration traffic competes with the interferers for the same link,
//! which is exactly the trade-off an operator deciding on a tiering daemon
//! cares about.
//!
//! The walk is the unit of failure: a panic in the walk or its pricing
//! reports every cell that walk serves as a [`PolicyFailure`] carrying the
//! panic message, and the caller's other workloads carry on.

use crate::campaign::{panic_message, run_campaign, CampaignConfig};
use crate::policy::SchedulingPolicy;
use dismem_profiler::{pooled_config, run_workload_lockstep, RunOptions};
use dismem_sim::tiering::{HotPromote, PeriodicRebalance};
use dismem_sim::{MachineConfig, RunReport, TieringReport, TieringSpec};
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::panic::AssertUnwindSafe;

/// Result of one tiering policy in a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TieringOutcome {
    /// Policy label (`static`, `hot-promote`, `periodic-rebalance`).
    pub policy: String,
    /// Full policy configuration.
    pub spec: TieringSpec,
    /// Idle-pool simulated runtime.
    pub runtime_s: f64,
    /// Idle-pool speedup over the sweep's `static` policy (1.0 when this is
    /// the static run, or when no static run is part of the sweep).
    pub speedup_vs_static: f64,
    /// Mean runtime under the random-baseline interference campaign.
    pub mean_loaded_runtime_s: f64,
    /// Speedup of the campaign mean over the static policy's campaign mean.
    pub loaded_speedup_vs_static: f64,
    /// Remote access ratio of the run (application traffic only).
    pub remote_access_ratio: f64,
    /// Full tiering activity of the run: epochs, promotions/demotions,
    /// migrated bytes, damper statistics and the measured phase-dwell
    /// counters (`hot_set_shifts`, `dwell_epochs_total`, ...).
    pub tiering: TieringReport,
    /// Mean phase-dwell length in epochs ([`TieringReport::mean_dwell_epochs`]
    /// of `tiering`, denormalized for tables and committed JSON).
    pub mean_dwell_epochs: f64,
    /// Raw link bytes spent on migrations (payload × protocol overhead).
    pub migration_link_raw_bytes: u64,
    /// Total raw link bytes of the run (application + migrations).
    pub link_raw_bytes: u64,
}

/// A policy whose walk or pricing campaign panicked. The sweep reports the
/// gap here instead of unwinding and losing the caller's other workloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyFailure {
    /// Label of the failed spec (`static`, `hot-promote`,
    /// `periodic-rebalance`).
    pub policy: String,
    /// Panic message of the walk that served the cell.
    pub error: String,
}

/// A full policy sweep for one workload on one machine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TieringSweep {
    /// Workload name.
    pub workload: String,
    /// Input description.
    pub input: String,
    /// One outcome per *successful* policy, in request order.
    pub outcomes: Vec<TieringOutcome>,
    /// Policies whose walk panicked, in request order: every policy of the
    /// sweep, since one walk serves them all. Empty on a healthy sweep.
    pub failed_policies: Vec<PolicyFailure>,
}

impl TieringSweep {
    /// The outcome of the `static` reference policy, if it was swept.
    pub fn static_outcome(&self) -> Option<&TieringOutcome> {
        self.outcomes.iter().find(|o| o.policy == "static")
    }

    /// The first outcome that actually measured hotness epochs (and with
    /// them the phase-dwell counters) — the run to derive dwell-based
    /// guidance from. `None` when only static policies were swept.
    pub fn measured(&self) -> Option<&TieringOutcome> {
        self.outcomes.iter().find(|o| o.tiering.epochs > 0)
    }
}

/// One local-capacity point of a workload's tiering study: the policy sweep
/// under a `pooled_config` whose local tier holds `local_fraction` of the
/// workload's expected footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityTieringSweep {
    /// Fraction of the expected footprint that fits in the local tier.
    pub local_fraction: f64,
    /// The resulting local-tier capacity in bytes.
    pub local_capacity_bytes: u64,
    /// The policy sweep at this capacity.
    pub sweep: TieringSweep,
}

/// A full dynamic-tiering study of one workload: policy sweeps across a set
/// of local-capacity fractions (the paper's `setup_waste` points), produced
/// by [`sweep_tiering_matrix`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadTieringStudy {
    /// Workload name.
    pub workload: String,
    /// Input description.
    pub input: String,
    /// Expected peak footprint the capacities were derived from.
    pub footprint_bytes: u64,
    /// One policy sweep per local-capacity fraction, in request order.
    pub cells: Vec<CapacityTieringSweep>,
}

impl WorkloadTieringStudy {
    /// The cell closest to `local_fraction`.
    pub fn cell_at(&self, local_fraction: f64) -> Option<&CapacityTieringSweep> {
        self.cells.iter().min_by(|a, b| {
            (a.local_fraction - local_fraction)
                .abs()
                .total_cmp(&(b.local_fraction - local_fraction).abs())
        })
    }

    /// The dwell-measuring outcome ([`TieringSweep::measured`]) of the cell
    /// closest to `local_fraction` — the measurement the migrate-vs-interleave
    /// guidance rule is derived from.
    pub fn measured_at(&self, local_fraction: f64) -> Option<&TieringOutcome> {
        self.cell_at(local_fraction)
            .and_then(|c| c.sweep.measured())
    }

    /// Best idle-pool speedup over static any dynamic policy achieved in any
    /// cell (1.0 when nothing beats static anywhere).
    pub fn best_speedup_vs_static(&self) -> f64 {
        self.cells
            .iter()
            .flat_map(|c| c.sweep.outcomes.iter())
            .map(|o| o.speedup_vs_static)
            .fold(1.0, f64::max)
    }
}

/// Runs the full per-policy × per-local-capacity campaign for one workload:
/// for every fraction in `local_fractions`, the machine is derived with
/// [`dismem_profiler::pooled_config`] (local tier = fraction × expected
/// footprint, the paper's `setup_waste` step) and every spec in `specs` is
/// simulated and priced under the Monte Carlo interference campaign.
///
/// One walk of the workload serves every cell, so the workload runs once,
/// and a panic in that walk or its pricing turns every cell into a
/// [`PolicyFailure`]. Panics on a fraction outside [0, 1], a caller error.
/// The result is deterministic for a given
/// `(workload, base, local_fractions, specs, campaign)` input.
pub fn sweep_tiering_matrix(
    workload: &dyn Workload,
    base: &MachineConfig,
    local_fractions: &[f64],
    specs: &[TieringSpec],
    campaign: &CampaignConfig,
) -> WorkloadTieringStudy {
    let configs: Vec<MachineConfig> = local_fractions
        .iter()
        .map(|&local_fraction| pooled_config(base, workload, local_fraction))
        .collect();
    let sweeps = sweep_walk(workload, &configs, specs, campaign);
    let cells = local_fractions
        .iter()
        .zip(&configs)
        .zip(sweeps)
        .map(|((&local_fraction, config), sweep)| CapacityTieringSweep {
            local_fraction,
            local_capacity_bytes: config.local.capacity_bytes.unwrap_or(0),
            sweep,
        })
        .collect();
    WorkloadTieringStudy {
        workload: workload.name().to_string(),
        input: workload.input_description(),
        footprint_bytes: workload.expected_footprint_bytes(),
        cells,
    }
}

/// The canonical three-policy sweep: the static reference, TPP-style hot
/// promotion and AutoNUMA-style periodic rebalancing, sharing one epoch
/// length and heat scale.
pub fn default_specs(epoch_lines: u64, promote_heat: f64) -> Vec<TieringSpec> {
    vec![
        TieringSpec::Static,
        TieringSpec::HotPromote(HotPromote::new(epoch_lines, promote_heat)),
        TieringSpec::PeriodicRebalance(PeriodicRebalance::new(epoch_lines, 2, 4096)),
    ]
}

/// Sweeps `specs` for one workload on one configuration: one walk serves
/// every policy's placement, and each run is then priced under the
/// interference campaign. A panic in the walk or its pricing turns every
/// policy into a [`PolicyFailure`]. The result is deterministic for a given
/// `(config, specs, campaign)` input.
///
/// ```
/// use dismem_sched::{default_specs, sweep_tiering_policies, CampaignConfig};
/// use dismem_sim::MachineConfig;
/// use dismem_workloads::{PhaseShift, PhaseShiftParams};
///
/// let workload = PhaseShift::new(PhaseShiftParams::tiny());
/// // Local tier holds half the arena: static placement is the 1:1 interleave.
/// let config = MachineConfig::test_config()
///     .with_local_capacity(workload.params().arena_bytes / 2 + 8192);
/// let campaign = CampaignConfig { runs: 8, epochs_per_run: 4, seed: 7 };
/// let sweep = sweep_tiering_policies(
///     &workload,
///     &config,
///     &default_specs(2048, 12.0),
///     &campaign,
/// );
/// assert_eq!(sweep.outcomes.len(), 3); // static, hot-promote, periodic-rebalance
/// assert!(sweep.failed_policies.is_empty());
/// let hot = sweep.measured().expect("dynamic policies measure dwell");
/// assert!(hot.tiering.epochs > 0 && hot.mean_dwell_epochs > 0.0);
/// ```
pub fn sweep_tiering_policies(
    workload: &dyn Workload,
    config: &MachineConfig,
    specs: &[TieringSpec],
    campaign: &CampaignConfig,
) -> TieringSweep {
    sweep_walk(workload, std::slice::from_ref(config), specs, campaign)
        .pop()
        .expect("one sweep per configuration")
}

/// Runs every `configs` × `specs` cell as a placement of one walk of
/// `workload`, prices each report under the random-baseline campaign and
/// returns one sweep per configuration, in order. One `catch_unwind` covers
/// the walk and its pricing: on a panic, every cell becomes a
/// [`PolicyFailure`] carrying the panic message.
fn sweep_walk(
    workload: &dyn Workload,
    configs: &[MachineConfig],
    specs: &[TieringSpec],
    campaign: &CampaignConfig,
) -> Vec<TieringSweep> {
    // Config-major, so each configuration's cells are one contiguous group.
    let options: Vec<RunOptions> = configs
        .iter()
        .flat_map(|config| {
            specs
                .iter()
                .map(|&spec| RunOptions::new(config.clone()).with_tiering(spec))
        })
        .collect();
    let priced = if options.is_empty() {
        Ok(Vec::new())
    } else {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_workload_lockstep(workload, &options)
                .into_iter()
                .map(|report| {
                    let mean = run_campaign(
                        workload.name(),
                        &report,
                        SchedulingPolicy::RandomBaseline,
                        campaign,
                    )
                    .mean_s;
                    (report, mean)
                })
                .collect()
        }))
        .map_err(panic_message)
    };
    let n = specs.len();
    (0..configs.len())
        .map(|i| {
            let (outcomes, failed_policies) = match &priced {
                Ok(priced) => (outcomes(specs, &priced[i * n..(i + 1) * n]), Vec::new()),
                Err(error) => (
                    Vec::new(),
                    specs
                        .iter()
                        .map(|spec| PolicyFailure {
                            policy: spec.label().to_string(),
                            error: error.clone(),
                        })
                        .collect(),
                ),
            };
            TieringSweep {
                workload: workload.name().to_string(),
                input: workload.input_description(),
                outcomes,
                failed_policies,
            }
        })
        .collect()
}

/// One configuration's outcomes from its priced runs, one per spec in
/// request order. Without a static run in the sweep there is no reference
/// to compare against, and the speedup fields stay at their documented 1.0.
fn outcomes(specs: &[TieringSpec], priced: &[(RunReport, f64)]) -> Vec<TieringOutcome> {
    let reference = specs
        .iter()
        .position(|spec| matches!(spec, TieringSpec::Static))
        .map(|i| &priced[i]);
    let static_runtime = reference.map(|(report, _)| report.total_runtime_s);
    let static_mean = reference.map(|&(_, mean)| mean);
    specs
        .iter()
        .zip(priced)
        .map(|(spec, (report, mean_loaded))| TieringOutcome {
            policy: report.tiering.policy.clone(),
            spec: *spec,
            runtime_s: report.total_runtime_s,
            speedup_vs_static: match static_runtime {
                Some(s) if report.total_runtime_s > 0.0 => s / report.total_runtime_s,
                _ => 1.0,
            },
            mean_loaded_runtime_s: *mean_loaded,
            loaded_speedup_vs_static: match static_mean {
                Some(s) if *mean_loaded > 0.0 => s / mean_loaded,
                _ => 1.0,
            },
            remote_access_ratio: report.remote_access_ratio(),
            mean_dwell_epochs: report.tiering.mean_dwell_epochs(),
            tiering: report.tiering.clone(),
            migration_link_raw_bytes: report.migration_link_raw_bytes(),
            link_raw_bytes: report.total.link_raw_bytes,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_profiler::run_workload;
    use dismem_sim::Machine;
    use dismem_workloads::{PhaseShift, PhaseShiftParams};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const PAGE_SIZE: u64 = 4096;

    fn sweep_setup() -> (PhaseShift, MachineConfig) {
        let workload = PhaseShift::new(PhaseShiftParams::tiny());
        // Local tier fits half the interleaved arena plus the accumulator.
        let arena_pages = workload.params().arena_bytes / PAGE_SIZE;
        let config =
            MachineConfig::test_config().with_local_capacity((arena_pages / 2 + 2) * PAGE_SIZE);
        (workload, config)
    }

    fn small_campaign() -> CampaignConfig {
        CampaignConfig {
            runs: 12,
            epochs_per_run: 4,
            seed: 7,
        }
    }

    #[test]
    fn sweep_shows_hot_promote_beating_static_on_phaseshift() {
        let (workload, config) = sweep_setup();
        let specs = default_specs(2048, 12.0);
        let sweep = sweep_tiering_policies(&workload, &config, &specs, &small_campaign());
        assert_eq!(sweep.outcomes.len(), 3);
        let st = sweep.static_outcome().expect("static swept");
        assert_eq!(st.tiering.promotions + st.tiering.demotions, 0);
        assert_eq!(st.mean_dwell_epochs, 0.0, "static runs measure no dwell");
        assert!((st.speedup_vs_static - 1.0).abs() < 1e-12);

        let hot = sweep
            .outcomes
            .iter()
            .find(|o| o.policy == "hot-promote")
            .unwrap();
        assert!(
            hot.tiering.promotions > 0,
            "hot-promote must migrate: {hot:?}"
        );
        assert!(hot.tiering.migrated_bytes > 0);
        assert!(hot.migration_link_raw_bytes > hot.tiering.migrated_bytes);
        // The phase-shifting workload's hot set moves: the dwell counters
        // must see the shifts and the sweep's measured() lookup finds them.
        assert!(hot.tiering.hot_set_shifts > 0, "hot set must move: {hot:?}");
        assert!(hot.mean_dwell_epochs > 0.0);
        assert_eq!(
            sweep.measured().unwrap().policy,
            "hot-promote",
            "first measuring outcome is the first dynamic policy"
        );
        assert!(
            hot.speedup_vs_static > 1.02,
            "hot-promote should beat static: {}",
            hot.speedup_vs_static
        );
        assert!(hot.remote_access_ratio < st.remote_access_ratio);
        // The interference campaign prices both runs; migrating away from
        // the pool should not make the loaded mean worse.
        assert!(hot.loaded_speedup_vs_static > 1.0);
    }

    #[test]
    fn run_workload_with_tiering_equals_a_hand_driven_machine() {
        let (workload, config) = sweep_setup();
        for spec in default_specs(2048, 12.0) {
            let options = RunOptions::new(config.clone()).with_tiering(spec);
            let report = run_workload(&workload, &options);
            let mut machine = Machine::new(config.clone());
            machine.set_tiering_spec(&spec);
            workload.run(&mut machine);
            assert_eq!(report, machine.finish(), "{}", spec.label());
            assert_eq!(report.tiering.policy, spec.label());
            if matches!(spec, TieringSpec::HotPromote(_)) {
                let t = &report.tiering;
                assert!(t.migrated_pages > 0, "hot-promote must migrate: {t:?}");
                assert_eq!(t.migrated_pages, t.promotions + t.demotions);
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let (workload, config) = sweep_setup();
        let specs = default_specs(2048, 12.0);
        let a = sweep_tiering_policies(&workload, &config, &specs, &small_campaign());
        let b = sweep_tiering_policies(&workload, &config, &specs, &small_campaign());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.runtime_s, y.runtime_s);
            assert_eq!(x.mean_loaded_runtime_s, y.mean_loaded_runtime_s);
            assert_eq!(x.tiering, y.tiering);
        }
    }

    #[test]
    fn matrix_sweeps_every_capacity_point() {
        let workload = PhaseShift::new(PhaseShiftParams::tiny());
        let base = MachineConfig::test_config();
        let specs = default_specs(2048, 12.0);
        let study = sweep_tiering_matrix(
            &workload,
            &base,
            &[0.75, 0.5, 0.25],
            &specs,
            &small_campaign(),
        );
        assert_eq!(study.workload, "PhaseShift");
        assert_eq!(study.cells.len(), 3);
        for cell in &study.cells {
            assert_eq!(cell.sweep.outcomes.len(), 3);
            assert!(cell.local_capacity_bytes > 0);
            assert!(cell.local_capacity_bytes < study.footprint_bytes);
        }
        // Capacities shrink with the fraction.
        assert!(study.cells[0].local_capacity_bytes > study.cells[2].local_capacity_bytes);
        // Tighter local capacity pushes the static remote ratio up.
        let remote = |i: usize| {
            study.cells[i]
                .sweep
                .static_outcome()
                .unwrap()
                .remote_access_ratio
        };
        assert!(remote(2) > remote(0));
        // Lookup helpers find the right cell and a dwell-measuring outcome.
        let mid = study.cell_at(0.5).unwrap();
        assert!((mid.local_fraction - 0.5).abs() < 1e-12);
        let measured = study.measured_at(0.5).unwrap();
        assert!(measured.tiering.epochs > 0);
        assert!(study.best_speedup_vs_static() >= 1.0);
    }

    /// Forwards to a workload and counts its runs: one run is one walk.
    struct Counted {
        inner: PhaseShift,
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

    #[test]
    fn each_sweep_walks_its_workload_once() {
        let workload = Counted {
            inner: PhaseShift::new(PhaseShiftParams::tiny()),
            runs: AtomicUsize::new(0),
        };
        let specs = default_specs(2048, 12.0);
        let study = sweep_tiering_matrix(
            &workload,
            &MachineConfig::test_config(),
            &[0.75, 0.5, 0.25],
            &specs,
            &small_campaign(),
        );
        assert_eq!(
            workload.runs.load(Ordering::Relaxed),
            1,
            "9 cells, one walk"
        );
        assert!(study.cells.iter().all(|c| c.sweep.outcomes.len() == 3));

        workload.runs.store(0, Ordering::Relaxed);
        let (_, config) = sweep_setup();
        let sweep = sweep_tiering_policies(&workload, &config, &specs, &small_campaign());
        assert_eq!(
            workload.runs.load(Ordering::Relaxed),
            1,
            "3 cells, one walk"
        );
        assert_eq!(sweep.outcomes.len(), 3);
    }

    /// Every outcome of a matrix equals, bit for bit, a direct run of its
    /// own capacity and policy priced on its own, so no report is matched
    /// to the wrong spec or capacity.
    #[test]
    fn matrix_outcomes_equal_direct_runs() {
        let workload = PhaseShift::new(PhaseShiftParams::tiny());
        let base = MachineConfig::test_config();
        let specs = default_specs(2048, 12.0);
        let campaign = small_campaign();
        let study = sweep_tiering_matrix(&workload, &base, &[0.75, 0.25], &specs, &campaign);
        for cell in &study.cells {
            let config = pooled_config(&base, &workload, cell.local_fraction);
            assert_eq!(
                cell.local_capacity_bytes,
                config.local.capacity_bytes.unwrap()
            );
            assert_eq!(cell.sweep.outcomes.len(), specs.len());
            for (spec, outcome) in specs.iter().zip(&cell.sweep.outcomes) {
                let options = RunOptions::new(config.clone()).with_tiering(*spec);
                let report = run_workload(&workload, &options);
                let mean = run_campaign(
                    workload.name(),
                    &report,
                    SchedulingPolicy::RandomBaseline,
                    &campaign,
                )
                .mean_s;
                let at = format!("{} at {}", spec.label(), cell.local_fraction);
                assert_eq!(outcome.spec, *spec, "{at}");
                assert_eq!(
                    outcome.runtime_s.to_bits(),
                    report.total_runtime_s.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    outcome.mean_loaded_runtime_s.to_bits(),
                    mean.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    outcome.remote_access_ratio.to_bits(),
                    report.remote_access_ratio().to_bits(),
                    "{at}"
                );
                assert_eq!(outcome.tiering, report.tiering, "{at}");
            }
        }
        // The two capacities differ, so a swapped pair of cells would show.
        assert_ne!(
            study.cells[0].sweep.outcomes[0].runtime_s,
            study.cells[1].sweep.outcomes[0].runtime_s
        );
    }

    #[test]
    #[should_panic(expected = "local_fraction must be within")]
    fn matrix_rejects_a_fraction_outside_the_unit_interval() {
        let _ = sweep_tiering_matrix(
            &PhaseShift::new(PhaseShiftParams::tiny()),
            &MachineConfig::test_config(),
            &[0.5, 1.5],
            &default_specs(2048, 12.0),
            &small_campaign(),
        );
    }

    /// A workload whose simulation always panics, for exercising the
    /// quarantine path of the sweeps.
    struct PoisonedWorkload;

    impl dismem_workloads::Workload for PoisonedWorkload {
        fn name(&self) -> &'static str {
            "Poisoned"
        }
        fn description(&self) -> &'static str {
            "always panics"
        }
        fn input_description(&self) -> String {
            "poison".to_string()
        }
        fn expected_footprint_bytes(&self) -> u64 {
            1 << 20
        }
        fn run(&self, _engine: &mut dyn dismem_trace::MemoryEngine) {
            panic!("poisoned workload cell");
        }
    }

    #[test]
    fn panicking_policy_cell_becomes_a_reported_gap() {
        let specs = default_specs(2048, 12.0);
        let config = MachineConfig::test_config().with_local_capacity(1 << 19);
        let sweep = sweep_tiering_policies(&PoisonedWorkload, &config, &specs, &small_campaign());
        assert!(sweep.outcomes.is_empty());
        assert_eq!(sweep.failed_policies.len(), 3, "{sweep:?}");
        assert_eq!(sweep.failed_policies[0].policy, "static");
        assert!(sweep.failed_policies[0]
            .error
            .contains("poisoned workload cell"));
        // Lookup helpers degrade to None instead of panicking on the gap.
        assert!(sweep.static_outcome().is_none());
        assert!(sweep.measured().is_none());
    }

    #[test]
    fn matrix_survives_a_poisoned_workload() {
        let specs = default_specs(2048, 12.0);
        let study = sweep_tiering_matrix(
            &PoisonedWorkload,
            &MachineConfig::test_config(),
            &[0.75, 0.25],
            &specs,
            &small_campaign(),
        );
        assert_eq!(study.cells.len(), 2);
        for cell in &study.cells {
            assert_eq!(cell.sweep.failed_policies.len(), 3);
            assert!(cell.sweep.outcomes.is_empty());
        }
        assert_eq!(study.best_speedup_vs_static(), 1.0);
    }
}
