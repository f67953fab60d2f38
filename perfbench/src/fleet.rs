//! `fleet-warm`: the committed 5400-cell warm-start fleet campaign
//! (`examples/warm_campaign.rs`), run as shards that are merged and resumed
//! into one report, checked against `CAMPAIGN_warm_fleet.json`.

use crate::inputs::{derive_seed, percentile};
use crate::metrics::{artifact_problem, measure_passes, Outcome, Pass};
use crate::trace::{self, now_s, span};
use crate::Ctx;
use dismem_core::CellKey;
use dismem_profiler::pooled_config;
use dismem_sched::campaign::run_campaign;
use dismem_sched::{
    load_journal, merge_shard_journals, resume_campaign, run_fleet_campaign, CampaignConfig,
    CampaignReport, CellMetrics, CellRunner, FaultPlan, FleetSpec, JournalWriter, SchedulingPolicy,
    Shard, SimCellRunner, SnapshotCache, SnapshotStats,
};
use dismem_sim::{LinkParams, MachineConfig};
use dismem_workloads::WorkloadKind;
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};

const ARTIFACT: &str = "CAMPAIGN_warm_fleet.json";
const SEEDS_PER_PREFIX: u64 = 150;

/// The grid runs as this many shards, each on its own journal, one after
/// another on one runner and snapshot cache. Every journal append rewrites
/// the whole journal, so one 5400-cell journal writes about 7 GB per pass
/// and its time follows the disk's writeback rather than the program.
/// Eighteen 300-cell journals keep the same rewrite on every append at an
/// eighteenth of the bytes.
const SHARDS: u32 = 18;

/// Nominal seconds of one pass, from which `--seconds` sets the pass count.
pub const NOMINAL_PASS_S: f64 = 7.0;

/// A campaign's grid, its cells and its machine. Each pass empties its
/// journals and snapshot directory before its timer starts, outside the
/// timed set-up.
struct Setup {
    spec: FleetSpec,
    cells: Vec<CellKey>,
    config: MachineConfig,
}

fn spec(seed: u64, config: &MachineConfig) -> FleetSpec {
    let base = derive_seed(seed, 0xD15C);
    FleetSpec {
        seeds: (0..SEEDS_PER_PREFIX)
            .map(|i| base.wrapping_add(i))
            .collect(),
        ..FleetSpec::tiny_grid(config)
    }
}

fn setup(ctx: &Ctx) -> Setup {
    let config = MachineConfig::scaled_testbed();
    let spec = spec(ctx.seed, &config);
    Setup {
        cells: spec.cells(),
        spec,
        config,
    }
}

/// Empties `dir` and returns a snapshot cache in it.
fn fresh_dir(dir: &Path) -> SnapshotCache {
    let _ = std::fs::remove_dir_all(dir);
    SnapshotCache::new(dir.join("snapshots")).expect("create snapshot cache")
}

fn shard_journal(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard-{index}.jsonl"))
}

/// What a sharded campaign produced.
struct Sharded {
    /// The merged and resumed report, with the shards' snapshot counts.
    report: Result<CampaignReport, String>,
    /// The merged journal.
    merged: PathBuf,
}

/// The whole grid as [`SHARDS`] shard campaigns in `dir`, then
/// `merge_shard_journals` and `resume_campaign` over the merged journal,
/// which replays every cell and runs none. The resume's own snapshot counts
/// are zero, so the report carries the shards' counts, as a single campaign
/// over the grid reports them.
fn run_sharded(spec: &FleetSpec, runner: &dyn CellRunner, dir: &Path) -> Sharded {
    let merged = dir.join("journal.jsonl");
    let run = || -> Result<CampaignReport, String> {
        let mut snapshot = SnapshotStats::default();
        let mut paths = Vec::new();
        for index in 0..SHARDS {
            let path = shard_journal(dir, index);
            let shard = Shard::new(index, SHARDS);
            let report = span("sched.shard", &index.to_string(), || {
                run_fleet_campaign(spec, runner, &path, Some(shard), &FaultPlan::none())
            })
            .map_err(|e| format!("shard {index}/{SHARDS} failed: {e}"))?;
            snapshot.hits += report.snapshot.hits;
            snapshot.misses += report.snapshot.misses;
            snapshot.fallbacks += report.snapshot.fallbacks;
            paths.push(path);
        }
        span("sched.merge", "fleet-warm", || {
            merge_shard_journals(&paths, &merged, &spec.digest_hex())
        })
        .map_err(|e| format!("merging the shard journals failed: {e}"))?;
        let (mut report, stats) = span("sched.resume", "fleet-warm", || {
            resume_campaign(spec, runner, &merged, None, &FaultPlan::none())
        })
        .map_err(|e| format!("resuming the merged journal failed: {e}"))?;
        if stats.reran != 0 || stats.replayed != spec.cells().len() as u64 {
            return Err(format!("the resume replayed {stats:?}"));
        }
        report.snapshot = snapshot;
        Ok(report)
    };
    Sharded {
        report: run(),
        merged,
    }
}

/// Forwards to another runner, noting when each cell starts.
struct StartTimes<'a> {
    inner: &'a dyn CellRunner,
    starts: RefCell<Vec<f64>>,
}

impl CellRunner for StartTimes<'_> {
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String> {
        self.starts.borrow_mut().push(now_s());
        self.inner.run(key)
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.snapshot_stats()
    }
}

/// Checks a report: byte for byte against the committed artifact at the
/// default seed, and for the warm-start invariants at every seed. Returns
/// the checks and the report's JSON.
fn check_report(
    ctx: &Ctx,
    spec: &FleetSpec,
    cells: &[CellKey],
    report: Result<CampaignReport, String>,
) -> (Outcome, String) {
    let cells = cells.len() as u64;
    let mut out = Outcome::default();
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.check(cells, false, || e);
            return (out, String::new());
        }
    };
    let json = serde_json::to_string(&report).expect("campaign report serializes");
    let prefixes = (spec.workloads.len()
        * spec.scales.len()
        * spec.capacities_permille.len()
        * spec.links.len()) as u64;
    let mut problems: Vec<String> = artifact_problem(ctx, ARTIFACT, &json).into_iter().collect();
    let expected = SnapshotStats {
        hits: cells - prefixes,
        misses: prefixes,
        fallbacks: 0,
    };
    if report.snapshot != expected {
        problems.push(format!(
            "snapshot stats {:?}, expected {expected:?}",
            report.snapshot
        ));
    }
    if report.total_cells != cells {
        problems.push(format!("{} cells, expected {cells}", report.total_cells));
    }
    out.check(report.completed.len() as u64, problems.is_empty(), || {
        problems.join("; ")
    });
    for f in &report.failed_cells {
        out.check(1, false, || {
            format!("cell {} quarantined: {}", f.key.id(), f.error)
        });
    }
    (out, json)
}

/// One untraced pass. Returns the pass, the report JSON, and the gaps
/// between consecutive cell starts in seconds (the last one runs to the end
/// of the campaign).
fn untraced_pass(ctx: &Ctx, s: Setup) -> (Pass, String, Vec<f64>) {
    let dir = ctx.work_dir.join("fleet");
    let cache = fresh_dir(&dir);
    let sim = SimCellRunner::quick(s.config).with_snapshot_cache(cache);
    let runner = StartTimes {
        inner: &sim,
        starts: RefCell::new(Vec::new()),
    };
    let start = now_s();
    let sharded = run_sharded(&s.spec, &runner, &dir);
    let end = now_s();
    let starts = runner.starts.into_inner();
    let gaps = starts
        .iter()
        .zip(starts.iter().skip(1).chain([&end]))
        .map(|(a, b)| b - a)
        .collect();
    let (outcome, json) = check_report(ctx, &s.spec, &s.cells, sharded.report);
    let pass = Pass {
        wall_s: end - start,
        cells: starts.len(),
        outcome,
    };
    (pass, json, gaps)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let out = if ctx.trace {
        let (untraced, json, gaps) = untraced_pass(ctx, setup(ctx));
        let mut out = Outcome::default();
        out.absorb(untraced.outcome);
        let gaps_ms: Vec<f64> = gaps.iter().map(|s| s * 1e3).collect();
        out.set("sched.cell_gap_ms_p50", percentile(&gaps_ms, 0.5));
        out.set("sched.cell_gap_ms_p99", percentile(&gaps_ms, 0.99));
        traced(ctx, untraced.wall_s, &json, &mut out);
        out
    } else {
        measure_passes(
            ctx,
            NOMINAL_PASS_S,
            || setup(ctx),
            |s| untraced_pass(ctx, s).0,
        )
    };
    // Journals and snapshots are of no use after the run.
    let _ = std::fs::remove_dir_all(ctx.work_dir.join("fleet"));
    let _ = std::fs::remove_dir_all(ctx.work_dir.join("fleet-traced"));
    out
}

/// `SimCellRunner` split into its two timed steps: the profiled run through
/// the snapshot cache, then Monte Carlo pricing.
struct TracedRunner {
    base: MachineConfig,
    runs: usize,
    epochs_per_run: usize,
    cache: SnapshotCache,
    cell_s: Cell<f64>,
    sim_s: Cell<f64>,
    price_s: Cell<f64>,
    hit_s: Cell<f64>,
    miss_s: Cell<f64>,
}

impl CellRunner for TracedRunner {
    fn run(&self, key: &CellKey) -> Result<CellMetrics, String> {
        let start = now_s();
        let out = span("sched.cell", &key.workload, || self.run_cell(key));
        self.cell_s.set(self.cell_s.get() + now_s() - start);
        out
    }

    fn snapshot_stats(&self) -> SnapshotStats {
        self.cache.stats()
    }
}

impl TracedRunner {
    fn run_cell(&self, key: &CellKey) -> Result<CellMetrics, String> {
        let kind = WorkloadKind::all()
            .into_iter()
            .find(|k| k.name() == key.workload)
            .ok_or_else(|| format!("unknown workload `{}`", key.workload))?;
        if key.scale != "tiny" {
            return Err(format!("the fleet grid is tiny-scale, not `{}`", key.scale));
        }
        let workload = kind.instantiate_tiny();
        let policy = match key.policy.as_str() {
            "baseline" => SchedulingPolicy::RandomBaseline,
            "aware" => SchedulingPolicy::InterferenceAware,
            other => return Err(format!("unknown policy `{other}`")),
        };
        let mut base = self.base.clone();
        base.link = match key.link.as_str() {
            "upi" => LinkParams::upi(),
            other => return Err(format!("unknown link `{other}`")),
        };
        let local_fraction = f64::from(key.capacity_permille) / 1000.0;
        let config = pooled_config(&base, workload.as_ref(), local_fraction);

        let hits_before = self.cache.stats().hits;
        let start = now_s();
        let report = span("sched.sim", &key.workload, || {
            self.cache.profiled_report(key, workload.as_ref(), &config)
        });
        let sim_s = now_s() - start;
        self.sim_s.set(self.sim_s.get() + sim_s);
        let slot = if self.cache.stats().hits > hits_before {
            &self.hit_s
        } else {
            &self.miss_s
        };
        slot.set(slot.get() + sim_s);

        let start = now_s();
        let campaign = span("sched.price", &key.workload, || {
            run_campaign(
                &key.workload,
                &report,
                policy,
                &CampaignConfig {
                    runs: self.runs,
                    epochs_per_run: self.epochs_per_run,
                    seed: key.seed,
                },
            )
        });
        self.price_s.set(self.price_s.get() + now_s() - start);
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
}

fn traced(ctx: &Ctx, untraced_wall_s: f64, untraced_json: &str, out: &mut Outcome) {
    let config = MachineConfig::scaled_testbed();
    let spec = spec(ctx.seed, &config);
    let dir = ctx.work_dir.join("fleet-traced");
    let cache = fresh_dir(&dir);
    let quick = SimCellRunner::quick(config.clone());
    let runner = TracedRunner {
        base: config,
        runs: quick.runs,
        epochs_per_run: quick.epochs_per_run,
        cache,
        cell_s: Cell::new(0.0),
        sim_s: Cell::new(0.0),
        price_s: Cell::new(0.0),
        hit_s: Cell::new(0.0),
        miss_s: Cell::new(0.0),
    };
    trace::set_enabled(true);
    let start = now_s();
    let sharded = span("sched.campaign", "fleet-warm", || {
        run_sharded(&spec, &runner, &dir)
    });
    let wall_s = now_s() - start;
    match sharded.report {
        Ok(report) => {
            let json = serde_json::to_string(&report).expect("campaign report serializes");
            out.check(1, json == untraced_json, || {
                "traced campaign report differs from the untraced one".into()
            });
            out.set("sched.snapshot.hits", report.snapshot.hits as f64);
            out.set("sched.snapshot.misses", report.snapshot.misses as f64);
            out.set("sched.snapshot.fallbacks", report.snapshot.fallbacks as f64);
        }
        Err(e) => out.check(1, false, || format!("traced campaign failed: {e}")),
    }
    let spans = trace::spans();
    out.set("trace.overhead_s", wall_s - untraced_wall_s);
    out.set("sched.cell_s", runner.cell_s.get());
    out.set("sched.driver_s", wall_s - runner.cell_s.get());
    out.set("sched.sim_s", runner.sim_s.get());
    out.set("sched.price_s", runner.price_s.get());
    out.set("sched.snapshot.hit_s", runner.hit_s.get());
    out.set("sched.snapshot.miss_s", runner.miss_s.get());
    out.set(
        "sched.journal.merge_s",
        trace::total_s(&spans, "sched.merge"),
    );
    out.set("sched.resume_s", trace::total_s(&spans, "sched.resume"));
    let snapshot_bytes: u64 = std::fs::read_dir(runner.cache.dir())
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    out.set("sched.snapshot.bytes", snapshot_bytes as f64);

    // Journal I/O: read the merged journal back, then replay its records
    // through one fresh writer per shard, as many records each as the pass's
    // shards wrote, timing every append.
    let start = now_s();
    let loaded = span("sched.journal.load", "fleet-warm", || {
        load_journal(&sharded.merged)
    });
    out.set("sched.journal.load_s", now_s() - start);
    let records = match loaded {
        Ok(loaded) => loaded.records,
        Err(e) => {
            out.check(1, false, || format!("journal load failed: {e}"));
            Vec::new()
        }
    };
    out.check(1, records.len() == spec.cells().len(), || {
        format!("journal holds {} records", records.len())
    });
    let replay_dir = dir.join("replay");
    let (mut appends, mut bytes) = (Vec::new(), 0u64);
    span("sched.journal.replay", "fleet-warm", || {
        let _ = std::fs::create_dir_all(&replay_dir);
        for index in 0..SHARDS {
            let path = shard_journal(&replay_dir, index);
            let mut writer = JournalWriter::open(&path).expect("open replay journal");
            let shard = Shard::new(index, SHARDS);
            let owned = records.iter().enumerate().filter(|(i, _)| shard.owns(*i));
            for (_, record) in owned {
                let start = now_s();
                writer.append(record).expect("append replayed record");
                appends.push(now_s() - start);
                bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
    });
    trace::set_enabled(false);
    out.set("sched.journal.append_s_p50", percentile(&appends, 0.5));
    out.set("sched.journal.append_s_p99", percentile(&appends, 0.99));
    out.set("sched.journal.bytes_written", bytes as f64);
}
