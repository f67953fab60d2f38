//! `study-x1`: the paper's three-level study of all six workloads at X1.

use crate::engine::{timed_run, EngineTimes, Pipeline, RunSpec};
use crate::inputs::{counted, paper_workload, run_pool, take_runs, RunCount, DEFAULT_SEED};
use crate::metrics::{measure_passes, Outcome, Pass};
use crate::trace::{self, now_s, span, span_under};
use crate::Ctx;
use dismem_core::{derive_guidance, fnv1a64, QuantitativeStudy, StudyReport};
use dismem_lbench::{app_interference_coefficient, LBenchModel};
use dismem_profiler::level1::level1_profile;
use dismem_profiler::level2::level2_from_report;
use dismem_profiler::level3::{level3_from_report, PAPER_LOI_LEVELS};
use dismem_profiler::pooled_config;
use dismem_sched::default_specs;
use dismem_sim::{MachineConfig, TieringReport, TieringSpec};
use dismem_trace::{CACHE_LINE_SIZE, PAGE_SIZE};
use dismem_workloads::{InputScale, Workload, WorkloadKind};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The paper's `setup_waste` local-capacity points.
const FRACTIONS: [f64; 3] = [0.75, 0.5, 0.25];

/// Longest study first, so two workers finish close together.
const ORDER: [WorkloadKind; 6] = [
    WorkloadKind::Bfs,
    WorkloadKind::XsBench,
    WorkloadKind::Hypre,
    WorkloadKind::NekRs,
    WorkloadKind::Hpl,
    WorkloadKind::SuperLu,
];

/// FNV-1a digests of each workload's `StudyReport` JSON at the default seed,
/// pinned from the code this benchmark was written against.
const PINNED: [(&str, u64); 6] = [
    ("BFS", 0x624a_8aac_a76f_d5ab),
    ("XSBench", 0x26af_9c0d_8c89_2719),
    ("Hypre", 0x2cb5_f437_ab9e_c032),
    ("NekRS", 0xda98_e86a_7b57_144f),
    ("HPL", 0xc78c_cb84_5b8a_398a),
    ("SuperLU", 0x75bc_1c66_7e86_a3eb),
];

/// Simulations `level1_profile` runs (prefetch on and off, unbounded tiers).
const LEVEL1_SIM_RUNS: u64 = 2;

/// Nominal seconds of one pass, from which `--seconds` sets the pass count.
pub const NOMINAL_PASS_S: f64 = 35.0;

fn config() -> MachineConfig {
    MachineConfig::scaled_testbed()
}

fn workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    ORDER
        .iter()
        .map(|&kind| paper_workload(kind, InputScale::X1, seed))
        .collect()
}

/// Checks one study: against its pinned digest at the default seed, and
/// for its shape everywhere.
fn check_study(out: &mut Outcome, seed: u64, report: &StudyReport, json: &str) {
    let name = report.workload.as_str();
    if seed == DEFAULT_SEED {
        let pinned = PINNED.iter().find(|(n, _)| *n == name).map(|p| p.1);
        let digest = fnv1a64(json.as_bytes());
        out.check(1, pinned == Some(digest), || {
            format!("{name}: study digest {digest:016x} differs from pinned {pinned:016x?}")
        });
    }
    let n = FRACTIONS.len();
    let shaped = report.level2.len() == n
        && report.level3.len() == n
        && report.interference_coefficient.len() == n
        && report
            .interference_coefficient
            .iter()
            .all(|ic| ic.is_finite() && *ic >= 1.0);
    out.check(1, shaped, || format!("{name}: malformed study report"));
}

/// One untraced pass: `full_study` on every workload, two at a time. The
/// cells are the simulations the studies run. Returns the pass and each
/// study's JSON in [`ORDER`].
fn untraced_pass(
    ctx: &Ctx,
    (studies, runs): (Vec<QuantitativeStudy>, RunCount),
) -> (Pass, Vec<String>) {
    take_runs(&runs);
    let start = now_s();
    let results = run_pool(&studies, ctx.threads, |study| {
        let report = study.full_study(&FRACTIONS);
        let json = serde_json::to_string(&report).expect("study report serializes");
        (report, json)
    });
    let wall_s = now_s() - start;
    let mut outcome = Outcome::default();
    let mut jsons = Vec::new();
    for (report, json) in results {
        check_study(&mut outcome, ctx.seed, &report, &json);
        jsons.push(json);
    }
    let pass = Pass {
        wall_s,
        cells: take_runs(&runs),
        outcome,
    };
    (pass, jsons)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let setup = || {
        let runs = RunCount::default();
        let studies = workloads(ctx.seed)
            .into_iter()
            .map(|w| QuantitativeStudy::new(counted(w, &runs), config()))
            .collect::<Vec<_>>();
        (studies, runs)
    };
    if !ctx.trace {
        return measure_passes(ctx, NOMINAL_PASS_S, setup, |s| untraced_pass(ctx, s).0);
    }
    let (untraced, jsons) = untraced_pass(ctx, setup());
    let mut out = Outcome::default();
    out.absorb(untraced.outcome);
    traced(ctx, untraced.wall_s, &jsons, &mut out);
    out
}

/// What the decomposed study of one workload measured.
struct Decomposed {
    json: String,
    times: EngineTimes,
    sim_runs: u64,
    distinct_sim_runs: u64,
}

/// `QuantitativeStudy::full_study`, rebuilt from the profiler, lbench and
/// core calls it makes, with every pooled simulation on a timed engine.
fn decomposed_study(workload: &dyn Workload) -> Decomposed {
    let base = config();
    let name = workload.name();
    let mut times = EngineTimes::default();
    let mut configs = BTreeSet::new();
    let mut pooled_run = |f: f64| {
        let config = pooled_config(&base, workload, f);
        configs.insert(config.config_digest());
        let (report, t) = timed_run(workload, &RunSpec::profiled(config));
        times += t;
        report
    };
    let level1 = span("profiler.level1", name, || level1_profile(workload, &base));
    let level2: Vec<_> = FRACTIONS
        .iter()
        .map(|&f| {
            span("profiler.level2", name, || {
                level2_from_report(name, f, &pooled_run(f))
            })
        })
        .collect();
    let level3: Vec<_> = FRACTIONS
        .iter()
        .map(|&f| {
            span("profiler.level3", name, || {
                level3_from_report(name, f, &pooled_run(f), &PAPER_LOI_LEVELS)
            })
        })
        .collect();
    let interference_coefficient = FRACTIONS
        .iter()
        .map(|&f| {
            span("lbench.ic", name, || {
                let model = LBenchModel::from_config(&base);
                app_interference_coefficient(&pooled_run(f), &model, name)
                    .0
                    .coefficient
            })
        })
        .collect();
    let guidance = span("core.guidance", name, || {
        let (tightest, _) = FRACTIONS
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("fractions are not empty");
        derive_guidance(&level2[tightest], &level3[tightest])
    });
    let report = StudyReport {
        workload: name.to_string(),
        level1,
        level2,
        level3,
        interference_coefficient,
        guidance,
    };
    Decomposed {
        json: serde_json::to_string(&report).expect("study report serializes"),
        times,
        sim_runs: LEVEL1_SIM_RUNS + times.runs,
        distinct_sim_runs: LEVEL1_SIM_RUNS + configs.len() as u64,
    }
}

/// Tiering policy specs scaled to one workload, as the committed tiering
/// study (`examples/tiering_study.rs`) sets them.
fn specs_for(workload: &dyn Workload) -> Vec<TieringSpec> {
    let footprint_lines = workload.expected_footprint_bytes() / 64;
    default_specs((footprint_lines / 8).max(2_048), 16.0)
}

/// One workload's 50%-pooled runs outside the study.
struct PoolRuns {
    /// Seconds per pipeline: per-line, batched, replay (the static policy).
    pipeline_s: [f64; 3],
    /// Seconds and tiering activity of each dynamic tiering policy.
    dynamic: Vec<(f64, TieringReport)>,
}

/// Runs one 50%-pooled simulation per cache pipeline, then one per dynamic
/// tiering policy, and checks that the pipelines agree.
fn pool_runs(workload: &dyn Workload, out: &Mutex<Outcome>) -> PoolRuns {
    let name = workload.name();
    let config = pooled_config(&config(), workload, 0.5);
    let mut reports = Vec::new();
    let mut pipeline_s = [0.0; 3];
    let modes = [
        (Pipeline::PerLine, "sim.pipeline.per_line"),
        (Pipeline::Batched, "sim.pipeline.batched"),
        (Pipeline::Replay, "sim.pipeline.replay"),
    ];
    for (i, (pipeline, span_name)) in modes.into_iter().enumerate() {
        let spec = RunSpec {
            pipeline,
            ..RunSpec::profiled(config.clone())
        };
        let start = now_s();
        let (report, _) = span(span_name, name, || timed_run(workload, &spec));
        pipeline_s[i] = now_s() - start;
        reports.push(report);
    }
    let same = reports.windows(2).all(|w| w[0] == w[1]);
    out.lock().expect("outcome poisoned").check(1, same, || {
        format!("{name}: per-line, batched and replay reports differ")
    });
    let dynamic = specs_for(workload)
        .iter()
        .filter(|spec| !matches!(spec, TieringSpec::Static))
        .map(|tiering| {
            let spec = RunSpec {
                tiering: Some(tiering),
                ..RunSpec::profiled(config.clone())
            };
            let start = now_s();
            let (report, _) = span("sim.tiering_run", name, || timed_run(workload, &spec));
            (now_s() - start, report.tiering)
        })
        .collect();
    PoolRuns {
        pipeline_s,
        dynamic,
    }
}

fn traced(ctx: &Ctx, untraced_wall_s: f64, jsons: &[String], out: &mut Outcome) {
    trace::set_enabled(true);
    let fresh = workloads(ctx.seed);
    let start = now_s();
    let studies = span("bench.pass", "study-x1", || {
        let parent = trace::current();
        run_pool(&fresh, ctx.threads, |w| {
            span_under(parent, "core.study", w.name(), || {
                decomposed_study(w.as_ref())
            })
        })
    });
    let traced_wall_s = now_s() - start;
    let checks = Mutex::new(Outcome::default());
    let pool = span("bench.pool_runs", "study-x1", || {
        let parent = trace::current();
        run_pool(&fresh, ctx.threads, |w| {
            span_under(parent, "sim.pool_runs", w.name(), || {
                pool_runs(w.as_ref(), &checks)
            })
        })
    });
    trace::set_enabled(false);
    out.absorb(checks.into_inner().expect("outcome poisoned"));

    let mut times = EngineTimes::default();
    let (mut runs, mut distinct) = (0, 0);
    for ((w, d), json) in fresh.iter().zip(&studies).zip(jsons) {
        out.check(1, &d.json == json, || {
            format!("{}: traced study differs from the untraced one", w.name())
        });
        times += d.times;
        runs += d.sim_runs;
        distinct += d.distinct_sim_runs;
    }
    out.set("trace.overhead_s", traced_wall_s - untraced_wall_s);
    set_engine_metrics(out, &times);
    let spans = trace::spans();
    for (metric, name) in [
        ("profiler.level1_s", "profiler.level1"),
        ("profiler.level2_s", "profiler.level2"),
        ("profiler.level3_s", "profiler.level3"),
        ("lbench.ic_s", "lbench.ic"),
        ("core.guidance_s", "core.guidance"),
    ] {
        out.set(metric, trace::total_s(&spans, name));
    }
    for s in spans.iter().filter(|s| s.name == "core.study") {
        out.set(&format!("core.study_s.{}", s.label), s.duration_s());
    }
    out.set("profiler.sim_runs", runs as f64);
    out.set("profiler.distinct_sim_runs", distinct as f64);
    out.set(
        "profiler.redundant_sim_share",
        1.0 - distinct as f64 / runs.max(1) as f64,
    );

    let (mut per_line, mut batched, mut replay) = (0.0, 0.0, 0.0);
    for (w, runs) in fresh.iter().zip(&pool) {
        let name = w.name();
        let [p, b, r] = &runs.pipeline_s;
        out.set(&format!("sim.pipeline.per_line_s.{name}"), *p);
        out.set(&format!("sim.pipeline.batched_s.{name}"), *b);
        out.set(&format!("sim.pipeline.replay_s.{name}"), *r);
        out.set(&format!("sim.replay_speedup.{name}"), p / r);
        out.set(&format!("sim.replay_over_batched.{name}"), b / r);
        per_line += p;
        batched += b;
        replay += r;
    }
    out.set("sim.replay_speedup", per_line / replay);
    out.set("sim.replay_over_batched", batched / replay);
    let statics: Vec<f64> = pool.iter().map(|r| r.pipeline_s[2]).collect();
    let dynamic: Vec<(f64, TieringReport)> = pool.into_iter().flat_map(|r| r.dynamic).collect();
    set_tiering_metrics(out, &statics, &dynamic);
}

/// The `sim.tiering.*` metrics: activity summed over the dynamic-policy runs,
/// and their mean host time over the mean static run of the same cells.
fn set_tiering_metrics(out: &mut Outcome, static_s: &[f64], dynamic: &[(f64, TieringReport)]) {
    let mut totals = [0u64; 4];
    for (_, t) in dynamic {
        for (total, v) in
            totals
                .iter_mut()
                .zip([t.epochs, t.promotions, t.demotions, t.migrated_pages])
        {
            *total += v;
        }
    }
    for (name, v) in ["epochs", "promotions", "demotions", "migrated_pages"]
        .iter()
        .zip(totals)
    {
        out.set(&format!("sim.tiering.{name}"), v as f64);
    }
    let mean = |xs: &mut dyn Iterator<Item = f64>| {
        let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
        sum / n.max(1) as f64
    };
    out.set(
        "sim.tiering.dynamic_over_static",
        mean(&mut dynamic.iter().map(|d| d.0)) / mean(&mut static_s.iter().copied()),
    );
}

/// The `workloads.*` and `sim.*` metrics of a set of timed runs.
fn set_engine_metrics(out: &mut Outcome, t: &EngineTimes) {
    let engine_s = t.engine_s();
    out.set("sim.runs", t.runs as f64);
    out.set("workloads.self_s", t.workload_run_s - engine_s);
    out.set("sim.engine_s", engine_s);
    out.set("sim.access_range_s", t.access_range_s);
    out.set("sim.gather_s", t.gather_s);
    out.set("sim.strided_s", t.strided_s);
    out.set("sim.phase_s", t.phase_s);
    out.set("sim.finish_s", t.finish_s);
    out.set("sim.demand_lines", t.demand_lines as f64);
    out.set("sim.lines_per_s", t.demand_lines as f64 / engine_s);
    out.set("sim.replay.windows", t.replay_windows as f64);
    out.set("sim.replay.window_pages", t.replay_window_pages as f64);
    out.set("sim.replay.passes", t.replay_passes as f64);
    out.set(
        "sim.replay.stride_elements",
        t.replay_stride_elements as f64,
    );
    // Lines covered by whole replayed windows, over all demand lines.
    let window_lines = t.replay_windows * t.replay_window_pages * (PAGE_SIZE / CACHE_LINE_SIZE);
    out.set(
        "sim.replay.line_share",
        window_lines as f64 / t.demand_lines.max(1) as f64,
    );
}
