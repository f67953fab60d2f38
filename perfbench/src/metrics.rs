//! Metric catalogue, the pass loop shared by the workloads, and the result
//! line.

use crate::inputs::{median, DEFAULT_SEED};
use crate::trace::now_s;
use crate::Ctx;
use dismem_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// End-to-end metrics the benchmark binary measures (`run.py` adds
/// `peak_rss_mib`). Every workload must report each of them, and per-cell
/// latency percentiles are steady only on `fleet-warm`, so they are
/// per-layer metrics of `sched` instead.
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("cells_per_s", "1/s")];

/// Per-layer metrics that do not depend on the workload name (`run.py` adds
/// `host.cpu_util`).
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_s", "s"),
    ("workloads.self_s", "s"),
    ("sim.runs", "count"),
    ("sim.engine_s", "s"),
    ("sim.access_range_s", "s"),
    ("sim.gather_s", "s"),
    ("sim.strided_s", "s"),
    ("sim.phase_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.demand_lines", "count"),
    ("sim.lines_per_s", "1/s"),
    ("sim.replay.windows", "count"),
    ("sim.replay.window_pages", "count"),
    ("sim.replay.passes", "count"),
    ("sim.replay.stride_elements", "count"),
    ("sim.replay.line_share", "ratio"),
    ("sim.replay_speedup", "ratio"),
    ("sim.replay_over_batched", "ratio"),
    ("sim.tiering.epochs", "count"),
    ("sim.tiering.promotions", "count"),
    ("sim.tiering.demotions", "count"),
    ("sim.tiering.migrated_pages", "count"),
    ("sim.tiering.dynamic_over_static", "ratio"),
    ("profiler.level1_s", "s"),
    ("profiler.level2_s", "s"),
    ("profiler.level3_s", "s"),
    ("lbench.ic_s", "s"),
    ("core.guidance_s", "s"),
    ("profiler.sim_runs", "count"),
    ("profiler.distinct_sim_runs", "count"),
    ("profiler.redundant_sim_share", "ratio"),
    ("sched.cell_gap_ms_p50", "ms"),
    ("sched.cell_gap_ms_p99", "ms"),
    ("sched.cell_s", "s"),
    ("sched.driver_s", "s"),
    ("sched.sim_s", "s"),
    ("sched.price_s", "s"),
    ("sched.snapshot.hits", "count"),
    ("sched.snapshot.misses", "count"),
    ("sched.snapshot.fallbacks", "count"),
    ("sched.snapshot.hit_s", "s"),
    ("sched.snapshot.miss_s", "s"),
    ("sched.snapshot.bytes", "bytes"),
    ("sched.journal.append_s_p50", "s"),
    ("sched.journal.append_s_p99", "s"),
    ("sched.journal.bytes_written", "bytes"),
    ("sched.journal.load_s", "s"),
    ("sched.journal.merge_s", "s"),
    ("sched.resume_s", "s"),
];

/// Per-layer metrics measured once per paper workload.
const PER_LAYER_BY_WORKLOAD: &[(&str, &str)] = &[
    ("core.study_s", "s"),
    ("sim.pipeline.per_line_s", "s"),
    ("sim.pipeline.batched_s", "s"),
    ("sim.pipeline.replay_s", "s"),
    ("sim.replay_speedup", "ratio"),
    ("sim.replay_over_batched", "ratio"),
];

/// Every per-layer metric the binary prints, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for &(name, unit) in PER_LAYER_BY_WORKLOAD {
        for kind in WorkloadKind::all() {
            all.push((format!("{name}.{}", kind.name()), unit));
        }
    }
    all
}

/// The catalogue as JSON, for writing `BENCHMARK.json` and the docs.
pub fn catalogue_json() -> String {
    let list = |items: Vec<(String, &str)>| {
        let rows: Vec<String> = items
            .iter()
            .map(|(n, u)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"}}"))
            .collect();
        format!("[{}]", rows.join(", "))
    };
    let e2e = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    format!(
        "{{\"end_to_end\": {}, \"per_layer\": {}}}",
        list(e2e),
        list(per_layer())
    )
}

/// Operations attempted and failed, why they failed, and what was measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts `ops` operations, all failed unless `ok`.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }

    /// Folds in another outcome's checks (not its metrics).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Prints the metrics for people on stderr and the result line on
    /// stdout: end-to-end metrics, or every per-layer metric when traced
    /// (0 where the workload does not exercise the layer).
    pub fn print(&self, workload: &str, traced: bool) {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        eprintln!(
            "{workload}: {} attempted, {} failed (failure_ratio {:.4})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for p in &self.problems {
            eprintln!("  FAILED: {p}");
        }
        let mut fields = Vec::new();
        for (name, unit) in &catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            eprintln!("  {name:<40} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// At the default seed, why `output` is not byte for byte the committed
/// `artifact` at the repository root (`None` when it is, or at other seeds).
/// The committed file is compared as bytes, never parsed.
pub fn artifact_problem(ctx: &Ctx, artifact: &str, output: &str) -> Option<String> {
    if ctx.seed != DEFAULT_SEED {
        return None;
    }
    match std::fs::read(ctx.root.join(artifact)) {
        Ok(committed) if committed == output.as_bytes() => None,
        Ok(_) => Some(format!("output differs from the committed {artifact}")),
        Err(e) => Some(format!("cannot read {artifact}: {e}")),
    }
}

/// One timed pass over a workload.
pub struct Pass {
    pub wall_s: f64,
    /// Cells completed; what a cell is depends on the workload.
    pub cells: usize,
    pub outcome: Outcome,
}

/// Set-up repeats before every pass, [`MIN_SETUP_REPS`] times in all at
/// least, and then until it has taken the pass's share of [`SETUP_BUDGET_S`]
/// or [`MAX_SETUP_REPS`] repeats. Spread over the run, the repeats see the
/// host at the same moments as the passes; `setup_s` is their median.
const MIN_SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 2001;

/// The number of passes a run makes: about `seconds / nominal_pass_s`, at
/// least one, and odd, so that the median is one pass's figure. It depends
/// on the arguments only, never on how fast the host runs.
pub fn pass_count(seconds: f64, nominal_pass_s: f64) -> usize {
    let n = (seconds / nominal_pass_s).round().max(1.0) as usize;
    if n.is_multiple_of(2) {
        n - 1
    } else {
        n
    }
}

/// Runs [`pass_count`] whole passes, each on a fresh set-up that is timed
/// repeatedly before it. `wall_s` and `cells_per_s` both come from the
/// median pass by wall time. Returns the checks and the end-to-end metrics.
pub fn measure_passes<S>(
    ctx: &Ctx,
    nominal_pass_s: f64,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(S) -> Pass,
) -> Outcome {
    let count = pass_count(ctx.seconds, nominal_pass_s);
    let (min_reps, budget_s, max_reps) = (
        MIN_SETUP_REPS.div_ceil(count),
        SETUP_BUDGET_S / count as f64,
        MAX_SETUP_REPS / count,
    );
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    for _ in 0..count {
        let (begin, mut reps, mut prepared) = (now_s(), 0, None);
        while reps < min_reps || (now_s() - begin < budget_s && reps < max_reps) {
            // Drop the previous set-up first, so that no repeat pays for it.
            drop(prepared.take());
            let start = now_s();
            prepared = Some(setup());
            setup_s.push(now_s() - start);
            reps += 1;
        }
        passes.push(pass(prepared.expect("set-up ran")));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    eprintln!(
        "{} set-up(s); {} pass(es), pass walls {walls:?}",
        setup_s.len(),
        passes.len()
    );
    passes.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let mid = &passes[passes.len() / 2];
    let mut out = Outcome::default();
    out.set("wall_s", mid.wall_s);
    out.set("cells_per_s", mid.cells as f64 / mid.wall_s);
    out.set("setup_s", median(&setup_s));
    for p in passes {
        out.absorb(p.outcome);
    }
    out
}
