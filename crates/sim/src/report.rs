//! Run reports: everything the profiler layers consume after a simulation.

use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::interference::InterferenceProfile;
use crate::timing::{TimeBreakdown, TimingModel};
use dismem_trace::PageHistogram;
use serde::{Deserialize, Serialize};

/// Counters and runtime of one profiled phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase tag passed to `phase_start`.
    pub name: String,
    /// Counters accumulated during the phase.
    pub counters: Counters,
    /// Simulated phase runtime in seconds.
    pub runtime_s: f64,
    /// Cache-line size used for byte conversions.
    pub line_bytes: u64,
}

impl PhaseReport {
    /// Arithmetic intensity (flops per byte of DRAM traffic).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.counters.arithmetic_intensity(self.line_bytes)
    }

    /// Achieved throughput in Gflop/s.
    pub fn gflops(&self) -> f64 {
        if self.runtime_s == 0.0 {
            return 0.0;
        }
        self.counters.flops as f64 / self.runtime_s / 1e9
    }

    /// Achieved DRAM bandwidth (both tiers) in GB/s.
    pub fn dram_bandwidth_gbs(&self) -> f64 {
        if self.runtime_s == 0.0 {
            return 0.0;
        }
        self.counters.bytes_dram(self.line_bytes) as f64 / self.runtime_s / 1e9
    }

    /// Remote (pool) access ratio of the phase.
    pub fn remote_access_ratio(&self) -> f64 {
        self.counters.remote_access_ratio(self.line_bytes)
    }

    /// Raw link traffic rate in GB/s.
    pub fn link_traffic_gbs(&self) -> f64 {
        if self.runtime_s == 0.0 {
            return 0.0;
        }
        self.counters.link_raw_bytes as f64 / self.runtime_s / 1e9
    }
}

/// Placement and traffic summary of one allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationSummary {
    /// Object name.
    pub name: String,
    /// Allocation site.
    pub site: String,
    /// Requested bytes.
    pub bytes: u64,
    /// Allocation order (0 = first).
    pub order: usize,
    /// Whether the object was freed before the end of the run.
    pub freed: bool,
    /// Pages bound to the local tier at the end of the run.
    pub pages_local: u64,
    /// Pages bound to the pool tier at the end of the run.
    pub pages_pool: u64,
    /// DRAM line accesses served locally.
    pub dram_lines_local: u64,
    /// DRAM line accesses served by the pool.
    pub dram_lines_pool: u64,
}

impl AllocationSummary {
    /// Fraction of this object's DRAM accesses that went to the pool.
    pub fn remote_access_ratio(&self) -> f64 {
        let total = self.dram_lines_local + self.dram_lines_pool;
        if total == 0 {
            return 0.0;
        }
        self.dram_lines_pool as f64 / total as f64
    }

    /// Total DRAM line accesses to this object.
    pub fn dram_lines(&self) -> u64 {
        self.dram_lines_local + self.dram_lines_pool
    }
}

/// One timing chunk: a slice of work with its counters and duration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Simulated start time of the chunk.
    pub start_s: f64,
    /// Chunk duration.
    pub duration_s: f64,
    /// Counters accumulated during the chunk.
    pub counters: Counters,
    /// Index into [`RunReport::phases`], or `None` for work outside phases.
    pub phase: Option<usize>,
}

/// Migration activity of the dynamic tiering subsystem over a run.
///
/// All zeros (with policy `"static"`) when no dynamic policy was installed —
/// the default, and the paper's pin-at-first-touch behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieringReport {
    /// Name of the installed tiering policy.
    pub policy: String,
    /// Hotness epochs completed.
    pub epochs: u64,
    /// Pages promoted pool → local.
    pub promotions: u64,
    /// Pages demoted local → pool.
    pub demotions: u64,
    /// Total pages migrated (promotions + demotions).
    pub migrated_pages: u64,
    /// Payload bytes moved by migrations (pages × page size).
    pub migrated_bytes: u64,
    /// Always 0: the ping-pong damper acts when a policy plans, which
    /// skips cooling pages, so no planned migration is ever refused. The
    /// field keeps the serialized tiering report's schema.
    pub ping_pongs_damped: u64,
    /// Migrations dropped because the destination tier was full.
    pub skipped_capacity: u64,
    /// Times the hot set moved to a different set of pages (no strict
    /// majority of the dwell's anchor hot set still hot at an epoch
    /// boundary).
    pub hot_set_shifts: u64,
    /// Epochs spent in *completed* phase dwells — dwells that ended with a
    /// hot-set shift. One dwell is the number of consecutive epochs a hot
    /// working set stayed put.
    pub dwell_epochs_total: u64,
    /// Epochs of the still-open dwell at the end of the run (the final hot
    /// set's residency, not yet closed by a shift).
    pub open_dwell_epochs: u64,
    /// Largest hot set observed at any epoch boundary, in pages.
    pub hot_set_pages_max: u64,
}

impl TieringReport {
    /// Mean phase-dwell length in epochs: how long a hot working set stays
    /// put before it moves, averaged over every dwell of the run (the open
    /// dwell at the end of the run counts as one sample). Returns 0.0 when no
    /// epoch ever observed a hot set — e.g. under the `static` policy, which
    /// never fires epochs.
    ///
    /// This is the measured quantity behind the migrate-vs-interleave
    /// guidance rule: a page migration can only amortize within one dwell.
    pub fn mean_dwell_epochs(&self) -> f64 {
        let dwells = self.hot_set_shifts + u64::from(self.open_dwell_epochs > 0);
        if dwells == 0 {
            return 0.0;
        }
        (self.dwell_epochs_total + self.open_dwell_epochs) as f64 / dwells as f64
    }
}

impl Default for TieringReport {
    fn default() -> Self {
        Self {
            policy: "static".to_string(),
            epochs: 0,
            promotions: 0,
            demotions: 0,
            migrated_pages: 0,
            migrated_bytes: 0,
            ping_pongs_damped: 0,
            skipped_capacity: 0,
            hot_set_shifts: 0,
            dwell_epochs_total: 0,
            open_dwell_epochs: 0,
            hot_set_pages_max: 0,
        }
    }
}

/// Result of re-evaluating a run's timeline under a different interference
/// profile (no re-simulation of caches or placement).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetimedRun {
    /// New total runtime.
    pub total_runtime_s: f64,
    /// New per-phase runtimes, aligned with [`RunReport::phases`].
    pub phase_runtimes_s: Vec<f64>,
}

/// Full output of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Machine configuration the run used.
    pub config: MachineConfig,
    /// Per-phase counters and runtimes.
    pub phases: Vec<PhaseReport>,
    /// Counters over the whole run (including work outside phases).
    pub total: Counters,
    /// Total simulated runtime in seconds: the chunk durations summed from
    /// 0.0 in timeline order, each priced at the machine's interference at
    /// the chunk's start. [`Machine::finish`](crate::Machine::finish) prices
    /// the timeline through the loop [`retime`](Self::retime) runs, so this
    /// equals `retime(profile).total_runtime_s` bit for bit under the
    /// machine's profile: an idle pool, which every `run_workload` report
    /// runs on, unless
    /// [`Machine::set_interference`](crate::Machine::set_interference) set
    /// another.
    pub total_runtime_s: f64,
    /// Allocation summaries in allocation order.
    pub allocations: Vec<AllocationSummary>,
    /// Timing chunks in execution order.
    pub timeline: Vec<TimelineSample>,
    /// Page-granular DRAM access histogram.
    pub page_histogram: PageHistogram,
    /// Peak bytes of live allocations.
    pub peak_footprint_bytes: u64,
    /// Pages bound to the local tier at the end of the run.
    pub local_pages_used: u64,
    /// Pages bound to the pool tier at the end of the run.
    pub pool_pages_used: u64,
    /// Dynamic-tiering migration activity (all zeros under `Static`).
    pub tiering: TieringReport,
}

impl RunReport {
    /// Remote access ratio over the whole run.
    pub fn remote_access_ratio(&self) -> f64 {
        self.total.remote_access_ratio(self.config.cache.line_bytes)
    }

    /// Remote capacity ratio: fraction of bound pages residing on the pool.
    pub fn remote_capacity_ratio(&self) -> f64 {
        let total = self.local_pages_used + self.pool_pages_used;
        if total == 0 {
            return 0.0;
        }
        self.pool_pages_used as f64 / total as f64
    }

    /// Bytes accessed from the pool tier over the whole run.
    pub fn remote_bytes(&self) -> u64 {
        self.total.bytes_pool(self.config.cache.line_bytes)
    }

    /// Raw link traffic generated by page migrations over the run (payload ×
    /// protocol overhead). Part of [`Counters::link_raw_bytes`]; broken out
    /// here so campaign sweeps can show what migrations cost on the link.
    pub fn migration_link_raw_bytes(&self) -> u64 {
        crate::link::LinkModel::new(self.config.link)
            .migration_raw_bytes(self.tiering.migrated_pages)
    }

    /// Average raw link traffic rate over the run, in GB/s.
    pub fn link_traffic_gbs(&self) -> f64 {
        if self.total_runtime_s == 0.0 {
            return 0.0;
        }
        self.total.link_raw_bytes as f64 / self.total_runtime_s / 1e9
    }

    /// Measured level of interference this run itself would inject on the
    /// link (fraction of the peak raw bandwidth).
    pub fn measured_loi(&self) -> f64 {
        self.link_traffic_gbs() * 1e9 / self.config.link.raw_bandwidth_bps
    }

    /// Achieved throughput over the whole run in Gflop/s.
    pub fn gflops(&self) -> f64 {
        if self.total_runtime_s == 0.0 {
            return 0.0;
        }
        self.total.flops as f64 / self.total_runtime_s / 1e9
    }

    /// Looks up a phase report by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Finds the allocation summary for an object name.
    pub fn allocation(&self, name: &str) -> Option<&AllocationSummary> {
        self.allocations.iter().find(|a| a.name == name)
    }

    /// Re-evaluates the run's timeline under a different interference profile
    /// without re-simulating caches or page placement.
    ///
    /// This is how the Level-3 sensitivity sweeps (Figure 10) and the
    /// scheduling study (Figure 13) explore many interference scenarios
    /// cheaply: cache behaviour and data placement do not depend on what other
    /// nodes do to the link, only timing does. This is the one-profile case of
    /// [`retime_many`](Self::retime_many).
    pub fn retime(&self, interference: &InterferenceProfile) -> RetimedRun {
        self.retime_many(std::slice::from_ref(interference))
            .pop()
            .expect("one profile yields one re-timed run")
    }

    /// Re-times the run under every profile in `profiles` in one pass over the
    /// timeline, returning one [`RetimedRun`] per profile, in order.
    ///
    /// Each profile keeps its own clock and phase runtimes, which advance in
    /// lockstep: every chunk is priced once for all profiles, each at the
    /// level of interference its profile shows at that profile's clock
    /// ([`TimingModel::chunk_times`]). Each result is bit-identical to
    /// [`retime`](Self::retime) with that profile alone.
    pub fn retime_many(&self, profiles: &[InterferenceProfile]) -> Vec<RetimedRun> {
        price_timeline(
            &self.config,
            &self.timeline,
            self.phases.len(),
            profiles,
            |_, _, _| {},
        )
    }
}

/// Prices `timeline`, a run on `config` with `phases` phases, under every
/// profile in `profiles`, returning one [`RetimedRun`] per profile, in order.
/// The simulator's one pricing loop: [`RunReport::retime_many`] and
/// [`Machine::finish`](crate::Machine::finish) both run it, so a report's
/// times equal its re-time under the machine's profile bit for bit.
///
/// Each chunk is priced in timeline order: every profile's level of
/// interference at its clock, one [`TimingModel::chunk_times`] call for all
/// of them, then each duration added to its phase and its clock. Before
/// the durations are added, `priced` sees the chunk, the runs so far (each
/// clock is the chunk's start under its profile) and the chunk's times.
pub(crate) fn price_timeline(
    config: &MachineConfig,
    timeline: &[TimelineSample],
    phases: usize,
    profiles: &[InterferenceProfile],
    mut priced: impl FnMut(&TimelineSample, &[RetimedRun], &[TimeBreakdown]),
) -> Vec<RetimedRun> {
    let model = TimingModel::new(config.clone());
    let mut runs: Vec<RetimedRun> = profiles
        .iter()
        .map(|_| RetimedRun {
            total_runtime_s: 0.0,
            phase_runtimes_s: vec![0.0; phases],
        })
        .collect();
    let mut lois = vec![0.0; profiles.len()];
    let mut times = vec![TimeBreakdown::default(); profiles.len()];
    for sample in timeline {
        for ((loi, profile), run) in lois.iter_mut().zip(profiles).zip(&runs) {
            *loi = profile.loi_at(run.total_runtime_s);
        }
        model.chunk_times(&sample.counters, &lois, &mut times);
        priced(sample, &runs, &times);
        for (run, time) in runs.iter_mut().zip(&times) {
            if let Some(p) = sample.phase {
                run.phase_runtimes_s[p] += time.total_s;
            }
            run.total_runtime_s += time.total_s;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_chunk(lines: u64) -> Counters {
        Counters {
            flops: 1000,
            dram_lines_pool: lines,
            demand_dram_lines_pool: lines / 2,
            link_raw_bytes: lines * 64 * 85 / 34,
            ..Default::default()
        }
    }

    fn report_with_pool_traffic() -> RunReport {
        let config = MachineConfig::skylake_testbed();
        let model = TimingModel::new(config.clone());
        let chunk = pool_chunk(100_000);
        let t = model.chunk_time(&chunk, 0.0).total_s;
        let mut total = Counters::default();
        total.add(&chunk);
        total.add(&chunk);
        RunReport {
            config,
            phases: vec![PhaseReport {
                name: "p1".into(),
                counters: total,
                runtime_s: 2.0 * t,
                line_bytes: 64,
            }],
            total,
            total_runtime_s: 2.0 * t,
            allocations: vec![],
            timeline: vec![
                TimelineSample {
                    start_s: 0.0,
                    duration_s: t,
                    counters: chunk,
                    phase: Some(0),
                },
                TimelineSample {
                    start_s: t,
                    duration_s: t,
                    counters: chunk,
                    phase: Some(0),
                },
            ],
            page_histogram: PageHistogram::new(),
            peak_footprint_bytes: 0,
            local_pages_used: 0,
            pool_pages_used: 10,
            tiering: TieringReport::default(),
        }
    }

    #[test]
    fn retime_idle_matches_original() {
        let r = report_with_pool_traffic();
        let rt = r.retime(&InterferenceProfile::Idle);
        assert!((rt.total_runtime_s - r.total_runtime_s).abs() / r.total_runtime_s < 1e-9);
        assert_eq!(rt.phase_runtimes_s.len(), 1);
    }

    #[test]
    fn retime_with_interference_is_slower() {
        let r = report_with_pool_traffic();
        let rt = r.retime(&InterferenceProfile::Constant(0.5));
        assert!(rt.total_runtime_s > r.total_runtime_s);
    }

    #[test]
    fn remote_ratios_and_lookup_helpers() {
        let r = report_with_pool_traffic();
        assert!((r.remote_access_ratio() - 1.0).abs() < 1e-12);
        assert!((r.remote_capacity_ratio() - 1.0).abs() < 1e-12);
        assert!(r.phase("p1").is_some());
        assert!(r.phase("nope").is_none());
        assert!(r.measured_loi() > 0.0);
        assert!(r.gflops() > 0.0);
    }

    #[test]
    fn mean_dwell_counts_completed_and_open_dwells() {
        let mut t = TieringReport::default();
        assert_eq!(t.mean_dwell_epochs(), 0.0, "no epochs, no dwell");
        t.hot_set_shifts = 2;
        t.dwell_epochs_total = 6;
        t.open_dwell_epochs = 3;
        // Two completed dwells (6 epochs) plus the open one (3 epochs).
        assert!((t.mean_dwell_epochs() - 3.0).abs() < 1e-12);
        // A run whose hot set never moved: the open dwell is the only sample.
        let stable = TieringReport {
            open_dwell_epochs: 8,
            ..TieringReport::default()
        };
        assert!((stable.mean_dwell_epochs() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn allocation_summary_ratio() {
        let a = AllocationSummary {
            name: "A".into(),
            site: "s".into(),
            bytes: 100,
            order: 0,
            freed: false,
            pages_local: 1,
            pages_pool: 1,
            dram_lines_local: 30,
            dram_lines_pool: 10,
        };
        assert!((a.remote_access_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(a.dram_lines(), 40);
    }
}
