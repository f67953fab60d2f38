//! Monte Carlo scheduling campaigns and the fault-tolerant fleet driver.
//!
//! Two layers live here:
//!
//! 1. **The Monte Carlo core** ([`run_campaign`], [`compare_policies`]) —
//!    re-evaluates one workload's profiled run under many randomly drawn
//!    interference schedules and collects the runtime distribution. Cache
//!    behaviour and data placement are fixed by the profiling run; only the
//!    timing reacts to the co-runners, so each trial is a cheap re-timing of
//!    the recorded timeline. A campaign prices all its trials in one pass
//!    over the timeline, on the calling thread
//!    (see [`dismem_sim::RunReport::retime_many`]).
//!
//! 2. **The fleet driver** ([`run_fleet_campaign`], [`resume_campaign`]) — a
//!    deterministic work-queue over the paper's §7 parameter grid
//!    (workloads × scales × policies × capacities × links × seeds). Each cell
//!    has a stable content-addressed [`CellKey`]; completed cells are
//!    appended to a crash-consistent JSON-lines journal
//!    (see [`crate::journal`]); a panicking cell is caught with
//!    `std::panic::catch_unwind`, retried a bounded number of attempts, then
//!    quarantined into the report's `failed_cells` instead of aborting the
//!    campaign. Shards ([`Shard`]) partition the grid deterministically so
//!    independent processes can each run a slice and
//!    [`merge_shard_journals`](crate::journal::merge_shard_journals) can
//!    reassemble the exact sequential report. Fault injection for all of
//!    this lives in [`crate::fault`].

use crate::fault::FaultPlan;
use crate::journal::{
    load_journal, CellMetrics, JournalError, JournalRecord, JournalWriter, LoadedJournal,
};
use crate::policy::SchedulingPolicy;
use crate::snapshot_cache::{SnapshotCache, SnapshotStats};
use dismem_analysis::{five_number_summary, mean, FiveNumberSummary};
use dismem_core::{fnv1a64, CellKey};
use dismem_profiler::{pooled_config, run_workload, RunOptions};
use dismem_sim::{InterferenceProfile, LinkParams, MachineConfig, RunReport};
use dismem_trace::{Recorder, TraceEvent};
use dismem_workloads::{InputScale, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::Path;

/// Campaign configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of runs per workload per policy (the paper uses 100).
    pub runs: usize,
    /// Number of interference epochs per run (the paper re-draws the level of
    /// interference every 60 s; with the simulator's scaled-down runtimes the
    /// epoch length is expressed as a fraction of the idle runtime instead).
    pub epochs_per_run: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            runs: 100,
            epochs_per_run: 8,
            seed: 0xD15C,
        }
    }
}

/// Result of one campaign (one workload under one policy).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Workload name.
    pub workload: String,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
    /// Runtime of every trial, in seconds.
    pub runtimes_s: Vec<f64>,
    /// Five-number summary of the runtimes.
    pub summary: FiveNumberSummary,
    /// Mean runtime.
    pub mean_s: f64,
}

/// Side-by-side comparison of the two policies for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Workload name.
    pub workload: String,
    /// Baseline (interference-oblivious) campaign.
    pub baseline: CampaignResult,
    /// Interference-aware campaign.
    pub aware: CampaignResult,
}

impl PolicyComparison {
    /// Mean speedup of the interference-aware policy over the baseline, in
    /// percent (the paper reports 0–4 % depending on the workload).
    pub fn mean_speedup_percent(&self) -> f64 {
        if self.aware.mean_s == 0.0 {
            return 0.0;
        }
        (self.baseline.mean_s / self.aware.mean_s - 1.0) * 100.0
    }

    /// Reduction of the 75th-percentile runtime in percent (the paper's
    /// variability metric).
    pub fn p75_reduction_percent(&self) -> f64 {
        if self.baseline.summary.q3 == 0.0 {
            return 0.0;
        }
        (1.0 - self.aware.summary.q3 / self.baseline.summary.q3) * 100.0
    }
}

fn schedule_for_trial(
    rng: &mut StdRng,
    idle_runtime_s: f64,
    epochs: usize,
    max_loi: f64,
) -> InterferenceProfile {
    // Epochs are sized so the whole (possibly slowed-down) run sees several
    // interference changes, as in the paper's 60-second epochs.
    let epoch_len = idle_runtime_s * 2.0 / epochs as f64;
    let epochs: Vec<(f64, f64)> = (0..epochs.max(1))
        .map(|i| (i as f64 * epoch_len, rng.gen_range(0.0..=max_loi)))
        .collect();
    InterferenceProfile::schedule(epochs)
}

/// The interference schedule of every trial of a campaign, in trial order,
/// for a job whose idle-pool runtime is `idle_runtime_s`.
///
/// Each trial draws from its own RNG, seeded from the campaign seed, the
/// trial index and the policy alone, so a trial's schedule does not depend
/// on the other trials or on the order they are built in.
pub fn trial_schedules(
    idle_runtime_s: f64,
    policy: SchedulingPolicy,
    config: &CampaignConfig,
) -> Vec<InterferenceProfile> {
    (0..config.runs)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add(trial as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ policy.max_loi().to_bits(),
            );
            schedule_for_trial(
                &mut rng,
                idle_runtime_s,
                config.epochs_per_run,
                policy.max_loi(),
            )
        })
        .collect()
}

/// Runs a campaign for one workload (represented by its profiled pooled run)
/// under one policy.
///
/// The job is re-timed once on an idle pool, which sizes the interference
/// epochs; [`trial_schedules`] then draws every trial's schedule, and one
/// [`RunReport::retime_many`] call prices all trials together, in lockstep
/// through the timeline, on the calling thread. A trial re-times only a few
/// chunks, too little work to pay for a thread; callers that want
/// parallelism run independent campaigns concurrently.
pub fn run_campaign(
    workload_name: &str,
    report: &RunReport,
    policy: SchedulingPolicy,
    config: &CampaignConfig,
) -> CampaignResult {
    assert!(config.runs > 0 && config.epochs_per_run > 0);
    let idle = report.retime(&InterferenceProfile::Idle).total_runtime_s;
    let runtimes_s: Vec<f64> = report
        .retime_many(&trial_schedules(idle, policy, config))
        .into_iter()
        .map(|run| run.total_runtime_s)
        .collect();
    CampaignResult {
        workload: workload_name.to_string(),
        policy,
        summary: five_number_summary(&runtimes_s),
        mean_s: mean(&runtimes_s),
        runtimes_s,
    }
}

/// Runs both policies for one workload and returns the comparison.
pub fn compare_policies(
    workload_name: &str,
    report: &RunReport,
    config: &CampaignConfig,
) -> PolicyComparison {
    PolicyComparison {
        workload: workload_name.to_string(),
        baseline: run_campaign(
            workload_name,
            report,
            SchedulingPolicy::RandomBaseline,
            config,
        ),
        aware: run_campaign(
            workload_name,
            report,
            SchedulingPolicy::InterferenceAware,
            config,
        ),
    }
}

// ---------------------------------------------------------------------------
// Fleet campaigns: work queue, journal, retry/quarantine, shards.
// ---------------------------------------------------------------------------

/// The §7 parameter grid of a fleet campaign plus its execution knobs.
///
/// The cartesian product of the six axis vectors is the campaign's cell set;
/// [`FleetSpec::digest_hex`] fingerprints the whole spec (axes, retry bound
/// and the machine-config digest) so journals are never replayed across
/// configuration changes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Workload names as registered in `dismem-workloads` (e.g. "BFS").
    pub workloads: Vec<String>,
    /// Input-scale labels ("tiny", "x1", "x2", "x4").
    pub scales: Vec<String>,
    /// Policy labels ("baseline", "aware").
    pub policies: Vec<String>,
    /// Local-capacity fractions in permille of the footprint.
    pub capacities_permille: Vec<u32>,
    /// Link-configuration labels ("upi", "upi-x2").
    pub links: Vec<String>,
    /// Base RNG seeds, one cell per seed.
    pub seeds: Vec<u64>,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Digest of the machine configuration cells run under
    /// (see [`MachineConfig::config_digest`]).
    pub config_digest: u64,
}

impl FleetSpec {
    /// A small default grid over all six paper workloads at tiny scale:
    /// both policies × three pool capacities × the UPI link × one seed.
    pub fn tiny_grid(config: &MachineConfig) -> FleetSpec {
        FleetSpec {
            workloads: WorkloadKind::all()
                .iter()
                .map(|k| k.name().to_string())
                .collect(),
            scales: vec!["tiny".to_string()],
            policies: vec!["baseline".to_string(), "aware".to_string()],
            capacities_permille: vec![250, 500, 750],
            links: vec!["upi".to_string()],
            seeds: vec![0xD15C],
            max_attempts: 3,
            config_digest: config.config_digest(),
        }
    }

    /// Every cell of the grid, in deterministic axis-nested order
    /// (workload → scale → policy → capacity → link → seed).
    pub fn cells(&self) -> Vec<CellKey> {
        let mut cells = Vec::new();
        for workload in &self.workloads {
            for scale in &self.scales {
                for policy in &self.policies {
                    for &capacity_permille in &self.capacities_permille {
                        for link in &self.links {
                            for &seed in &self.seeds {
                                cells.push(CellKey {
                                    workload: workload.clone(),
                                    scale: scale.clone(),
                                    policy: policy.clone(),
                                    capacity_permille,
                                    link: link.clone(),
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// Content digest of the spec as a 16-hex-digit string: FNV-1a over the
    /// serialized spec (which includes the machine-config digest). This is
    /// the value stamped on every journal record.
    pub fn digest_hex(&self) -> String {
        let mut json = String::new();
        Serialize::serialize_json(self, &mut json);
        format!("{:016x}", fnv1a64(json.as_bytes()))
    }
}

/// One deterministic slice of a fleet grid: shard `index` of `count` owns
/// every cell whose position in [`FleetSpec::cells`] is congruent to `index`
/// modulo `count`. Shards are disjoint, cover the grid, and are stable across
/// processes, so each can run in its own process against its own journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: u32,
    /// Total number of shards (≥ 1).
    pub count: u32,
}

impl Shard {
    /// Creates a shard, validating `index < count`.
    pub fn new(index: u32, count: u32) -> Shard {
        assert!(count > 0, "shard count must be at least 1");
        assert!(index < count, "shard index {index} out of range 0..{count}");
        Shard { index, count }
    }

    /// Parses the CLI form `i/N` (e.g. `--shard 0/3`).
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("shard `{text}` is not of the form i/N"))?;
        let index: u32 = index
            .trim()
            .parse()
            .map_err(|_| format!("shard index `{index}` is not an integer"))?;
        let count: u32 = count
            .trim()
            .parse()
            .map_err(|_| format!("shard count `{count}` is not an integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range 0..{count}"));
        }
        Ok(Shard { index, count })
    }

    /// True when this shard owns the cell at grid position `cell_index`.
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index as u64 % u64::from(self.count) == u64::from(self.index)
    }
}

/// Executes one cell. The fleet driver calls this inside `catch_unwind`, so
/// implementations may panic; a panic counts as a failed attempt exactly like
/// a returned `Err`.
pub trait CellRunner {
    /// Runs the cell and returns its metrics, or an error message.
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String>;

    /// Warm-start activity counters accumulated so far. Runners without a
    /// warm-start memo report all-zero stats; the fleet driver differences
    /// this across a campaign to stamp the report's
    /// [`snapshot`](CampaignReport::snapshot) field.
    fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats::default()
    }
}

/// The production [`CellRunner`]: profiles the workload under the cell's
/// pooling configuration and prices it with a Monte Carlo interference
/// campaign seeded from the cell key.
#[derive(Debug, Clone)]
pub struct SimCellRunner {
    /// Base machine configuration; the cell's link and capacity axes are
    /// applied on top of it.
    pub base: MachineConfig,
    /// Monte Carlo trials per cell.
    pub runs: usize,
    /// Interference epochs per trial.
    pub epochs_per_run: usize,
    /// Warm-start memo; `None` profiles every cell cold.
    snapshots: Option<SnapshotCache>,
}

impl SimCellRunner {
    /// Runner with the paper's campaign depth (100 trials × 8 epochs).
    pub fn new(base: MachineConfig) -> SimCellRunner {
        SimCellRunner {
            base,
            runs: 100,
            epochs_per_run: 8,
            snapshots: None,
        }
    }

    /// Runner with a reduced Monte Carlo depth for smoke tests and CI.
    pub fn quick(base: MachineConfig) -> SimCellRunner {
        SimCellRunner {
            base,
            runs: 20,
            epochs_per_run: 4,
            snapshots: None,
        }
    }

    /// Attaches a warm-start memo: cells sharing a warm prefix
    /// (workload/scale/capacity/link/config) reuse the first such cell's
    /// profiled report instead of re-simulating it. Reports stay
    /// bit-identical to cold runs (see [`crate::snapshot_cache`]).
    pub fn with_snapshot_cache(mut self, cache: SnapshotCache) -> SimCellRunner {
        self.snapshots = Some(cache);
        self
    }
}

impl CellRunner for SimCellRunner {
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String> {
        let kind = WorkloadKind::all()
            .into_iter()
            .find(|k| k.name() == key.workload)
            .ok_or_else(|| format!("unknown workload `{}`", key.workload))?;
        let workload = if key.scale == "tiny" {
            kind.instantiate_tiny()
        } else {
            let scale = [InputScale::X1, InputScale::X2, InputScale::X4]
                .into_iter()
                .find(|s| s.label() == key.scale)
                .ok_or_else(|| format!("unknown scale `{}`", key.scale))?;
            kind.instantiate(scale)
        };
        let policy = match key.policy.as_str() {
            "baseline" => SchedulingPolicy::RandomBaseline,
            "aware" => SchedulingPolicy::InterferenceAware,
            other => return Err(format!("unknown policy `{other}`")),
        };
        let mut base = self.base.clone();
        base.link = match key.link.as_str() {
            "upi" => LinkParams::upi(),
            // A hypothetical next-generation link with twice the payload and
            // raw bandwidth, for what-if sweeps.
            "upi-x2" => {
                let mut link = LinkParams::upi();
                link.data_bandwidth_bps *= 2.0;
                link.raw_bandwidth_bps *= 2.0;
                link
            }
            other => return Err(format!("unknown link `{other}`")),
        };
        if key.capacity_permille > 1000 {
            return Err(format!(
                "capacity {}‰ exceeds the footprint",
                key.capacity_permille
            ));
        }
        let local_fraction = f64::from(key.capacity_permille) / 1000.0;
        let config = pooled_config(&base, workload.as_ref(), local_fraction);
        let report = match &self.snapshots {
            Some(cache) => cache.profiled_report(key, workload.as_ref(), &config),
            None => run_workload(workload.as_ref(), &RunOptions::new(config)),
        };
        let campaign = run_campaign(
            &key.workload,
            &report,
            policy,
            &CampaignConfig {
                runs: self.runs,
                epochs_per_run: self.epochs_per_run,
                seed: key.seed,
            },
        );
        Ok(CellMetrics {
            trials: campaign.runtimes_s.len() as u32,
            mean_runtime_s: campaign.mean_s,
            min_runtime_s: campaign.summary.min,
            q1_runtime_s: campaign.summary.q1,
            median_runtime_s: campaign.summary.median,
            q3_runtime_s: campaign.summary.q3,
            max_runtime_s: campaign.summary.max,
            remote_access_ratio: report.remote_access_ratio(),
        })
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshots
            .as_ref()
            .map_or_else(SnapshotStats::default, SnapshotCache::stats)
    }
}

/// A successfully completed cell in a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompletedCell {
    /// The cell's identity.
    pub key: CellKey,
    /// Attempts consumed (> 1 when retries healed a transient failure).
    pub attempts: u32,
    /// The cell's metrics.
    pub metrics: CellMetrics,
}

/// A quarantined cell: every attempt failed, the campaign carried on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailedCell {
    /// The cell's identity.
    pub key: CellKey,
    /// Attempts consumed (equals the spec's `max_attempts`).
    pub attempts: u32,
    /// The final attempt's panic or error message.
    pub error: String,
}

/// Final report of a fleet campaign. Cells are sorted by canonical id, so two
/// reports over the same journal content serialize byte-identically — the
/// property the fault-injection suite asserts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Spec digest every contributing record was validated against.
    pub spec_digest: String,
    /// Number of cells the (possibly sharded) campaign owns.
    pub total_cells: u64,
    /// Successful cells, sorted by cell id.
    pub completed: Vec<CompletedCell>,
    /// Quarantined cells, sorted by cell id.
    pub failed_cells: Vec<FailedCell>,
    /// Journal records dropped during resume instead of replayed: foreign
    /// spec digest or a cell outside this shard's grid slice. Zero on a
    /// fresh run and on a clean resume, so those reports stay byte-identical
    /// to an uninterrupted run; a nonzero value is the audit trail of a
    /// journal that carried foreign records.
    pub rejected_records: u64,
    /// True when resume dropped a torn trailing journal line (the cell was
    /// re-run). False on a fresh run and on a clean resume.
    pub dropped_torn_tail: bool,
    /// Warm-start activity of this campaign's cells: memo hits and misses
    /// (all zero for cache-less runners and for resumes that replayed every
    /// cell from the journal; `fallbacks` is always zero).
    pub snapshot: SnapshotStats,
}

/// What a resume replayed versus re-ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Records replayed from the journal (digest-matching, in-grid).
    pub replayed: u64,
    /// Records dropped because their spec digest mismatched.
    pub digest_rejected: u64,
    /// Records dropped because their cell is not in this shard's grid slice.
    pub unknown_cells: u64,
    /// True when the journal ended in a torn line (dropped and re-run).
    pub torn_tail: bool,
    /// Cells executed (and journaled) by this invocation.
    pub reran: u64,
}

/// Fleet-campaign failure modes.
#[derive(Debug)]
pub enum CampaignError {
    /// Journal I/O, corruption, duplicate or digest error.
    Journal(JournalError),
    /// `run_fleet_campaign` was pointed at a journal that already holds
    /// records; use [`resume_campaign`] to continue it.
    JournalNotEmpty {
        /// Records already present.
        records: u64,
    },
    /// The campaign was stopped by an injected [`FaultPlan`] kill.
    Interrupted {
        /// Records durable in the journal at the kill point.
        cells_journaled: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "{e}"),
            CampaignError::JournalNotEmpty { records } => write!(
                f,
                "journal already holds {records} records; use resume_campaign"
            ),
            CampaignError::Interrupted { cells_journaled } => write!(
                f,
                "campaign interrupted by fault plan after {cells_journaled} journaled cells"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> CampaignError {
        CampaignError::Journal(e)
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs a fresh fleet campaign (optionally one shard of it), journaling every
/// cell as it completes. The journal at `journal_path` must be absent or
/// empty — continuing an existing journal is [`resume_campaign`]'s job.
pub fn run_fleet_campaign(
    spec: &FleetSpec,
    runner: &dyn CellRunner,
    journal_path: &Path,
    shard: Option<Shard>,
    fault: &FaultPlan,
) -> Result<CampaignReport, CampaignError> {
    let loaded = load_empty_journal(journal_path)?;
    drive(spec, runner, journal_path, loaded, shard, fault, None).map(|(report, _)| report)
}

/// [`run_fleet_campaign`] with a flight recorder attached: cell lifecycle
/// events (started / finished / retried / quarantined) are emitted as the
/// work queue drains. Recording is read-only — the report is bit-identical
/// to an unrecorded run's.
pub fn run_fleet_campaign_traced(
    spec: &FleetSpec,
    runner: &dyn CellRunner,
    journal_path: &Path,
    shard: Option<Shard>,
    fault: &FaultPlan,
    recorder: &mut dyn Recorder,
) -> Result<CampaignReport, CampaignError> {
    let loaded = load_empty_journal(journal_path)?;
    drive(
        spec,
        runner,
        journal_path,
        loaded,
        shard,
        fault,
        Some(recorder),
    )
    .map(|(report, _)| report)
}

/// Loads the journal a fresh run starts from and refuses one that holds
/// records. Only reads: a refused run leaves the journal as it found it.
fn load_empty_journal(journal_path: &Path) -> Result<LoadedJournal, CampaignError> {
    let loaded = load_journal(journal_path)?;
    if loaded.records.is_empty() {
        Ok(loaded)
    } else {
        Err(CampaignError::JournalNotEmpty {
            records: loaded.records.len() as u64,
        })
    }
}

/// Resumes a fleet campaign from its journal: replays digest-matching
/// records, drops a torn trailing line, re-runs only the missing cells, and
/// returns a report bit-identical to the one an uninterrupted run produces.
/// Records with a foreign spec digest are rejected (their cells re-run); two
/// digest-matching records for one cell are [`JournalError::DuplicateKey`].
pub fn resume_campaign(
    spec: &FleetSpec,
    runner: &dyn CellRunner,
    journal_path: &Path,
    shard: Option<Shard>,
    fault: &FaultPlan,
) -> Result<(CampaignReport, ResumeStats), CampaignError> {
    let loaded = load_journal(journal_path)?;
    drive(spec, runner, journal_path, loaded, shard, fault, None)
}

/// [`resume_campaign`] with a flight recorder attached: on top of the cell
/// lifecycle events, every journal record the resume drops instead of
/// replaying (foreign digest, unknown cell, torn tail) is emitted as a
/// [`TraceEvent::JournalRecordRejected`]. Recording is read-only.
pub fn resume_campaign_traced(
    spec: &FleetSpec,
    runner: &dyn CellRunner,
    journal_path: &Path,
    shard: Option<Shard>,
    fault: &FaultPlan,
    recorder: &mut dyn Recorder,
) -> Result<(CampaignReport, ResumeStats), CampaignError> {
    let loaded = load_journal(journal_path)?;
    drive(
        spec,
        runner,
        journal_path,
        loaded,
        shard,
        fault,
        Some(recorder),
    )
}

/// Runs the cells of `spec` (or of its `shard`) that `loaded` does not hold,
/// appending each to the journal at `journal_path`, which `loaded` was read
/// from.
fn drive(
    spec: &FleetSpec,
    runner: &dyn CellRunner,
    journal_path: &Path,
    loaded: LoadedJournal,
    shard: Option<Shard>,
    fault: &FaultPlan,
    mut recorder: Option<&mut dyn Recorder>,
) -> Result<(CampaignReport, ResumeStats), CampaignError> {
    assert!(spec.max_attempts >= 1, "max_attempts must be at least 1");
    let digest = spec.digest_hex();
    // Warm-start memo counters are differenced across this drive, so a memo
    // shared between campaigns attributes each cell to the right report.
    let snapshot_before = runner.snapshot_stats();
    let cells: Vec<CellKey> = spec
        .cells()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard.map_or(true, |s| s.owns(*i)))
        .map(|(_, key)| key)
        .collect();
    let cell_ids: BTreeSet<String> = cells.iter().map(CellKey::id).collect();

    // The writer repairs a torn or unterminated tail before the replay
    // consumes the records; the repair keeps every intact record.
    let mut writer = JournalWriter::from_loaded(journal_path, &loaded)?;
    let mut stats = ResumeStats {
        torn_tail: loaded.torn_tail,
        ..ResumeStats::default()
    };
    let whole_records = loaded.records.len() as u64;
    let mut done: BTreeMap<String, JournalRecord> = BTreeMap::new();
    for (record_index, record) in loaded.records.into_iter().enumerate() {
        let id = record.key.id();
        let reason = if record.digest != digest {
            stats.digest_rejected += 1;
            "foreign-digest"
        } else if !cell_ids.contains(&id) {
            stats.unknown_cells += 1;
            "unknown-cell"
        } else {
            if done.insert(id.clone(), record).is_some() {
                return Err(JournalError::DuplicateKey(id).into());
            }
            stats.replayed += 1;
            continue;
        };
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record_event(TraceEvent::JournalRecordRejected {
                record_index: record_index as u64,
                reason: reason.to_string(),
            });
        }
    }
    if stats.torn_tail {
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record_event(TraceEvent::JournalRecordRejected {
                record_index: whole_records,
                reason: "torn-tail".to_string(),
            });
        }
    }

    // Deterministic work queue: missing cells in grid order (the index is
    // the cell's position in the shard's slice, carried for the trace). A
    // failed attempt re-enters at the back — that attempt-counted backoff
    // lets every other pending cell run before the retry, with no wall
    // clocks involved.
    let mut queue: VecDeque<(u64, CellKey, u32)> = cells
        .iter()
        .enumerate()
        .filter(|(_, key)| !done.contains_key(&key.id()))
        .map(|(i, key)| (i as u64, key.clone(), 1))
        .collect();

    while let Some((cell_index, key, attempt)) = queue.pop_front() {
        let id = key.id();
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record_event(TraceEvent::CampaignCellStarted {
                cell_index,
                cell: id.clone(),
                attempt,
            });
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fault.poison_check(&id, attempt);
            runner.run(&key)
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload)));
        let record = match outcome {
            Ok(metrics) => JournalRecord {
                digest: digest.clone(),
                key,
                attempts: attempt,
                status: "ok".to_string(),
                metrics: Some(metrics),
                error: None,
            },
            Err(error) => {
                if attempt < spec.max_attempts {
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.record_event(TraceEvent::CampaignCellRetried {
                            cell_index,
                            cell: id.clone(),
                            attempt,
                        });
                    }
                    queue.push_back((cell_index, key, attempt + 1));
                    continue;
                }
                JournalRecord {
                    digest: digest.clone(),
                    key,
                    attempts: attempt,
                    status: "failed".to_string(),
                    metrics: None,
                    error: Some(error),
                }
            }
        };
        writer.append(&record)?;
        if let Some(rec) = recorder.as_deref_mut() {
            let ok = record.status == "ok";
            rec.record_event(TraceEvent::CampaignCellFinished {
                cell_index,
                cell: id.clone(),
                attempt,
                ok,
            });
            if !ok {
                rec.record_event(TraceEvent::CampaignCellQuarantined {
                    cell_index,
                    cell: id.clone(),
                    attempts: attempt,
                });
            }
        }
        done.insert(id, record);
        stats.reran += 1;
        if fault.should_kill(writer.len()) {
            fault.apply_truncation(journal_path)?;
            return Err(CampaignError::Interrupted {
                cells_journaled: writer.len(),
            });
        }
    }

    let snapshot_after = runner.snapshot_stats();
    let snapshot = SnapshotStats {
        hits: snapshot_after.hits.saturating_sub(snapshot_before.hits),
        misses: snapshot_after.misses.saturating_sub(snapshot_before.misses),
        fallbacks: snapshot_after
            .fallbacks
            .saturating_sub(snapshot_before.fallbacks),
    };
    let report = build_report(&digest, cells.len() as u64, &done, &stats, snapshot)?;
    Ok((report, stats))
}

fn build_report(
    digest: &str,
    total_cells: u64,
    done: &BTreeMap<String, JournalRecord>,
    stats: &ResumeStats,
    snapshot: SnapshotStats,
) -> Result<CampaignReport, CampaignError> {
    let mut completed = Vec::new();
    let mut failed_cells = Vec::new();
    // BTreeMap iteration is id-sorted: the report's order is the journal's
    // total order regardless of execution or replay order.
    for record in done.values() {
        match (record.status.as_str(), &record.metrics, &record.error) {
            ("ok", Some(metrics), _) => completed.push(CompletedCell {
                key: record.key.clone(),
                attempts: record.attempts,
                metrics: metrics.clone(),
            }),
            ("failed", _, Some(error)) => failed_cells.push(FailedCell {
                key: record.key.clone(),
                attempts: record.attempts,
                error: error.clone(),
            }),
            _ => {
                // Unreachable for records built here or validated by
                // `JournalRecord::from_json`; surfaced as corruption rather
                // than panicking (quarantine path must not panic).
                return Err(JournalError::Corrupt {
                    line: 0,
                    message: format!(
                        "record for cell {} violates the status/metrics/error invariant",
                        record.key.id()
                    ),
                }
                .into());
            }
        }
    }
    Ok(CampaignReport {
        spec_digest: digest.to_string(),
        total_cells,
        completed,
        failed_cells,
        rejected_records: stats.digest_rejected + stats.unknown_cells,
        dropped_torn_tail: stats.torn_tail,
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_profiler::{pooled_config, run_workload, RunOptions};
    use dismem_sim::MachineConfig;
    use dismem_workloads::WorkloadKind;

    fn pooled_report(kind: WorkloadKind) -> RunReport {
        let w = kind.instantiate_tiny();
        let cfg = pooled_config(&MachineConfig::test_config(), w.as_ref(), 0.5);
        run_workload(w.as_ref(), &RunOptions::new(cfg))
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            runs: 30,
            epochs_per_run: 6,
            seed: 42,
        }
    }

    #[test]
    fn aware_policy_is_no_slower_and_less_variable() {
        let report = pooled_report(WorkloadKind::Hypre);
        let cmp = compare_policies("Hypre", &report, &small_config());
        assert!(
            cmp.mean_speedup_percent() >= -0.5,
            "{}",
            cmp.mean_speedup_percent()
        );
        assert!(
            cmp.aware.summary.max <= cmp.baseline.summary.max + 1e-12,
            "worst case must not get worse"
        );
        assert!(cmp.aware.summary.range() <= cmp.baseline.summary.range() + 1e-12);
    }

    #[test]
    fn sensitive_workload_benefits_more_than_insensitive_one() {
        let hypre = compare_policies(
            "Hypre",
            &pooled_report(WorkloadKind::Hypre),
            &small_config(),
        );
        let hpl = compare_policies("HPL", &pooled_report(WorkloadKind::Hpl), &small_config());
        assert!(
            hypre.mean_speedup_percent() >= hpl.mean_speedup_percent() - 0.2,
            "Hypre {} vs HPL {}",
            hypre.mean_speedup_percent(),
            hpl.mean_speedup_percent()
        );
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let report = pooled_report(WorkloadKind::Bfs);
        let a = run_campaign(
            "BFS",
            &report,
            SchedulingPolicy::RandomBaseline,
            &small_config(),
        );
        let b = run_campaign(
            "BFS",
            &report,
            SchedulingPolicy::RandomBaseline,
            &small_config(),
        );
        assert_eq!(a.runtimes_s, b.runtimes_s);
        let other_seed = CampaignConfig {
            seed: 43,
            ..small_config()
        };
        let c = run_campaign(
            "BFS",
            &report,
            SchedulingPolicy::RandomBaseline,
            &other_seed,
        );
        assert_ne!(a.runtimes_s, c.runtimes_s);
    }

    /// Reference pricing: every trial re-timed on its own, one `retime` call
    /// per schedule.
    fn reference_runtimes(
        report: &RunReport,
        policy: SchedulingPolicy,
        config: &CampaignConfig,
    ) -> Vec<f64> {
        let idle = report.retime(&InterferenceProfile::Idle).total_runtime_s;
        trial_schedules(idle, policy, config)
            .iter()
            .map(|schedule| report.retime(schedule).total_runtime_s)
            .collect()
    }

    #[test]
    fn campaign_matches_per_trial_retime_reference() {
        let report = pooled_report(WorkloadKind::SuperLu);
        for policy in [
            SchedulingPolicy::RandomBaseline,
            SchedulingPolicy::InterferenceAware,
        ] {
            let campaign = run_campaign("SuperLU", &report, policy, &small_config());
            let reference = reference_runtimes(&report, policy, &small_config());
            assert_eq!(
                campaign
                    .runtimes_s
                    .iter()
                    .map(|t| t.to_bits())
                    .collect::<Vec<_>>(),
                reference.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                "lockstep pricing must agree with per-trial re-timing bit for bit"
            );
            assert_eq!(campaign.mean_s, mean(&reference));
        }
    }

    #[test]
    fn runtimes_are_never_faster_than_idle() {
        let report = pooled_report(WorkloadKind::NekRs);
        let idle = report.retime(&InterferenceProfile::Idle).total_runtime_s;
        let campaign = run_campaign(
            "NekRS",
            &report,
            SchedulingPolicy::RandomBaseline,
            &small_config(),
        );
        assert_eq!(campaign.runtimes_s.len(), 30);
        for &t in &campaign.runtimes_s {
            assert!(t >= idle * 0.999, "interference cannot speed a job up");
        }
        assert!(campaign.summary.min >= idle * 0.999);
        assert!(campaign.mean_s >= campaign.summary.min);
    }
}
