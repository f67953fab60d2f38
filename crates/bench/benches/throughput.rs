//! Simulator throughput baseline: simulated cache lines per wall-clock
//! second for the three canonical access shapes (sequential stream, strided
//! sweep, random gather) on the local and pool tiers, comparing three
//! pipelines: the per-line reference, the batched line walk with replay
//! disabled, and the batched walk with the steady-state page-replay engine
//! (the default).
//!
//! A `workloads` section runs the six paper workloads at X1 through the same
//! three pipelines, on the configuration the study profiles them on (scaled
//! testbed, half the footprint local, prefetch on, idle pool): best-of-3
//! interleaved wall time per pipeline, demand lines/s, and the replay
//! engine's window count. This is where replay earns its place, so it is
//! gated alongside the synthetic stream rows.
//!
//! A `pricing` section measures Monte Carlo pricing, the re-timing a fleet
//! cell spends its time on: for each paper workload at tiny scale, pooled
//! at half its footprint, one lockstep `RunReport::retime_many` call over a
//! campaign's 20 trial schedules against 20 single `retime` calls.
//!
//! A `tracing` section measures flight-recorder overhead: the same stream
//! measurement with and without a `FlightRecorder` attached. Recording is
//! expected to be free on the hot path (events only materialize at chunk
//! closes), so the ratio must stay within measurement noise.
//!
//! Emits `BENCH_throughput.json` (an object with `throughput`, `workloads`,
//! `pricing` and `tracing` sections) so CI and later PRs can track the
//! performance trajectory. Fleet-campaign and warm-start memo speed are
//! measured end to end by the perfbench `fleet-warm` workload, not here.
//! Run with `DISMEM_QUICK=1` for the smoke profile, which runs the
//! `workloads` section on tiny inputs.
//!
//! Every run gates replay within 5% of the batched walk on each synthetic
//! row, window replay engaging on the stream rows, and flight recording
//! within 10% of an unrecorded run. With
//! `DISMEM_BASELINE=<path to a committed BENCH_throughput.json>` it also
//! gates the stream replay speedup (a machine-independent ratio, unlike
//! absolute lines/s), the six-workload lockstep pricing speedup and the
//! six-workload replay-vs-batched and replay-vs-per-line ratios against a
//! drop of more than 20%, and any stream row or paper workload replaying
//! fewer windows than committed. The committed baseline describes the full
//! profile, so the bench refuses `DISMEM_BASELINE` together with
//! `DISMEM_QUICK=1` before it measures anything. A wall-clock gate
//! re-measures through
//! [`dismem_bench::remeasure`] before it fails. Failed gates are collected
//! in one list, which is reported once `BENCH_throughput.json` is written:
//! the bench prints every failure and exits non-zero, so a failing run
//! still leaves its numbers.

// The bench harness is the one sanctioned wall-clock observer in the
// workspace: it measures real simulator throughput.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use dismem_bench::{
    base_config, invocation_path, is_quick, print_table, remeasure, write_json, Row,
};
use dismem_profiler::pooled_config;
use dismem_profiler::{run_workload, RunOptions};
use dismem_sched::campaign::trial_schedules;
use dismem_sched::{CampaignConfig, SchedulingPolicy};
use dismem_sim::{InterferenceProfile, Machine, MachineConfig, RunReport};
use dismem_trace::access::lines_for;
use dismem_trace::{AccessKind, FlightRecorder, MemoryEngine, PlacementPolicy};
use dismem_workloads::{Bfs, BfsParams, InputScale, Workload, WorkloadKind};
use serde::Serialize;
use serde_json::JsonValue;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Stream,
    Strided,
    Gather,
}

impl Pattern {
    fn label(self) -> &'static str {
        match self {
            Pattern::Stream => "stream",
            Pattern::Strided => "strided",
            Pattern::Gather => "gather",
        }
    }
}

/// Which simulator pipeline a measurement exercises.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pipeline {
    /// Per-line reference path (`set_batched_access(false)`).
    PerLine,
    /// Batched line walk with the replay engine disabled.
    Batched,
    /// Batched line walk with steady-state page replay (the default).
    Replay,
}

/// Stride (bytes) of the strided sweep: four cache lines apart.
const STRIDE_BYTES: u64 = 256;
/// Element size (bytes) for strided and gather accesses.
const ELEM_BYTES: u64 = 8;

/// Deterministic pseudo-random 8-byte-aligned offsets covering the array.
fn gather_offsets(array_bytes: u64, count: usize) -> Vec<u64> {
    let slots = array_bytes / ELEM_BYTES;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) % slots) * ELEM_BYTES
        })
        .collect()
}

/// Simulated demand cache-line references issued by one pass of a pattern.
fn lines_per_pass(pattern: Pattern, array_bytes: u64, gather_count: usize) -> u64 {
    match pattern {
        Pattern::Stream => lines_for(array_bytes),
        Pattern::Strided => array_bytes / STRIDE_BYTES,
        Pattern::Gather => gather_count as u64,
    }
}

/// One measurement's outcome: simulated lines per wall-clock second plus the
/// windows the replay engine applied over the timed region.
struct Measurement {
    lines_per_sec: f64,
    replay_windows: u64,
}

/// Runs one measurement of a (pattern, tier, pipeline) cell.
fn measure(
    pattern: Pattern,
    remote: bool,
    pipeline: Pipeline,
    array_bytes: u64,
    passes: u32,
    offsets: &[u64],
) -> Measurement {
    let config = base_config();
    let mut m = Machine::new(config);
    m.set_batched_access(pipeline != Pipeline::PerLine);
    m.set_replay(pipeline == Pipeline::Replay);
    let policy = if remote {
        PlacementPolicy::ForceRemote
    } else {
        PlacementPolicy::FirstTouch
    };
    let a = m.alloc_with_policy("arr", "throughput.rs", array_bytes, policy);
    // Bind every page before timing so the measured passes exercise the
    // steady-state pipeline, not first-touch placement.
    m.phase_start("warmup");
    m.touch(a, array_bytes);
    m.phase_end();
    let windows_before = m.replay_windows();

    m.phase_start("timed");
    let start = Instant::now();
    for _ in 0..passes {
        match pattern {
            Pattern::Stream => m.read(a, 0, array_bytes),
            Pattern::Strided => m.strided(
                a,
                0,
                array_bytes / STRIDE_BYTES,
                ELEM_BYTES,
                STRIDE_BYTES,
                AccessKind::Read,
            ),
            Pattern::Gather => m.gather(a, offsets, ELEM_BYTES),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    m.phase_end();
    let replay_windows = m.replay_windows() - windows_before;
    let report = m.finish();
    assert!(report.total.demand_lines() > 0);

    let simulated_lines = lines_per_pass(pattern, array_bytes, offsets.len()) * passes as u64;
    Measurement {
        lines_per_sec: simulated_lines as f64 / elapsed.max(1e-12),
        replay_windows,
    }
}

#[derive(Serialize)]
struct ThroughputResult {
    pattern: String,
    tier: String,
    per_line_lines_per_sec: f64,
    batched_lines_per_sec: f64,
    replay_lines_per_sec: f64,
    /// Batched (replay off) over per-line.
    speedup_batched: f64,
    /// Batched with replay over per-line — the headline figure.
    speedup_replay: f64,
    /// Replay windows applied during the replay measurement (0 = the window
    /// detector never engaged on this pattern).
    replay_windows: u64,
}

/// The emitted JSON: the synthetic pipeline throughput table, the paper
/// workloads on the same pipelines, and the pricing and tracing sections.
/// [`Baseline::read`] reads the gated figures back by key.
#[derive(Serialize)]
struct ThroughputReport {
    throughput: Vec<ThroughputResult>,
    workloads: WorkloadsBench,
    pricing: PricingBench,
    tracing: TracingBench,
}

/// A synthetic row's batched and replay measurements, each the best seen,
/// and the best ratio of one adjacent (batched, replay) pair.
struct ReplayPair {
    ratio: f64,
    batched: f64,
    replay: Measurement,
}

/// The replay-vs-batched gate: the best adjacent pair trails by more than 5%.
fn replay_trails(pair: &ReplayPair) -> bool {
    pair.ratio < 0.95
}

/// Flight-recorder overhead on the default (replay) pipeline's stream
/// measurement.
#[derive(Serialize)]
struct TracingBench {
    /// Simulated lines/s with no recorder installed (the workspace default).
    recorder_off_lines_per_sec: f64,
    /// Simulated lines/s with a `FlightRecorder` attached.
    recorder_on_lines_per_sec: f64,
    /// off / on — 1.0 means recording was free on this run; values above
    /// 1.0 are recording overhead.
    overhead_ratio: f64,
    /// Events the recorded measurement captured.
    events_recorded: u64,
}

/// The recorder gate: the best adjacent (off, on) pair shows more than 10%
/// overhead.
fn recording_costs(tracing: &TracingBench) -> bool {
    tracing.overhead_ratio > 1.10
}

/// Measures the stream pattern with and without a flight recorder attached.
/// Like the replay-vs-batched gate, each cell is one wall-clock sample, so
/// the comparison re-measures adjacent pairs when the first ratio looks like
/// scheduler noise, keeping the pair with the lowest overhead.
fn tracing_bench(array_bytes: u64, passes: u32) -> TracingBench {
    let run = |record: bool| -> (f64, u64) {
        let mut m = Machine::new(base_config());
        if record {
            m.set_recorder(Box::new(FlightRecorder::new()));
        }
        let a = m.alloc("arr", "throughput.rs", array_bytes);
        m.phase_start("warmup");
        m.touch(a, array_bytes);
        m.phase_end();
        m.phase_start("timed");
        let start = Instant::now();
        for _ in 0..passes {
            m.read(a, 0, array_bytes);
        }
        let elapsed = start.elapsed().as_secs_f64();
        m.phase_end();
        let report = m.finish();
        assert!(report.total.demand_lines() > 0);
        let events = m
            .take_recorder()
            .map(|r| {
                r.into_any()
                    .downcast::<FlightRecorder>()
                    .expect("flight recorder comes back")
                    .events()
                    .len() as u64
            })
            .unwrap_or(0);
        let lines = lines_for(array_bytes) * passes as u64;
        (lines as f64 / elapsed.max(1e-12), events)
    };

    // One adjacent (off, on) pair.
    let pair = || {
        let (off, _) = run(false);
        let (on, events_recorded) = run(true);
        TracingBench {
            recorder_off_lines_per_sec: off,
            recorder_on_lines_per_sec: on,
            overhead_ratio: off / on,
            events_recorded,
        }
    };
    remeasure(pair(), 3, recording_costs, |best| {
        eprintln!("  [tracing] recorded run below unrecorded — re-measuring");
        let retry = pair();
        if retry.overhead_ratio < best.overhead_ratio {
            // The event count stays the first recorded run's.
            TracingBench {
                events_recorded: best.events_recorded,
                ..retry
            }
        } else {
            best
        }
    })
}

/// Timed runs per pipeline in the `workloads` section; each pipeline keeps
/// its fastest.
const WORKLOAD_ROUNDS: usize = 3;

/// One paper workload on the three pipelines.
#[derive(Serialize)]
struct WorkloadRow {
    workload: String,
    /// Demand cache-line references of one run.
    demand_lines: u64,
    /// Best-of-[`WORKLOAD_ROUNDS`] wall seconds of one run, per pipeline.
    per_line_s: f64,
    batched_s: f64,
    replay_s: f64,
    /// Demand lines per wall-clock second, per pipeline.
    per_line_lines_per_sec: f64,
    batched_lines_per_sec: f64,
    replay_lines_per_sec: f64,
    /// Per-line over replay time. Recorded, not gated: a single X1 run
    /// swings 30–50% between runs on a two-core host.
    replay_vs_per_line: f64,
    /// Batched over replay time. Recorded, not gated, for the same reason.
    replay_vs_batched: f64,
    /// Windows the replay engine applied in one run (gated: may not fall).
    replay_windows: u64,
    /// Pages per replay window for this cache geometry.
    replay_window_pages: u64,
}

/// The six paper workloads on the three pipelines, at the configuration the
/// study profiles them on.
#[derive(Serialize)]
struct WorkloadsBench {
    /// Input scale of the rows: `X1`, or `tiny` in the quick profile.
    scale: String,
    rows: Vec<WorkloadRow>,
    /// Summed per-line seconds over summed replay seconds (gated).
    replay_vs_per_line: f64,
    /// Summed batched seconds over summed replay seconds (gated).
    replay_vs_batched: f64,
}

/// A paper workload with its inputs built up front, so that no timed run
/// pays for them (BFS generates its R-MAT graph on first use).
fn paper_workload(kind: WorkloadKind, quick: bool) -> Box<dyn Workload> {
    match (kind, quick) {
        (WorkloadKind::Bfs, _) => {
            let bfs = Bfs::new(if quick {
                BfsParams::tiny()
            } else {
                BfsParams::bench(InputScale::X1)
            });
            bfs.graph();
            Box::new(bfs)
        }
        (_, true) => kind.instantiate_tiny(),
        (_, false) => kind.instantiate(InputScale::X1),
    }
}

/// One run of `workload` on `pipeline`: wall seconds for the run and
/// `finish`, the report, and the finished machine.
fn workload_run(
    workload: &dyn Workload,
    config: &MachineConfig,
    pipeline: Pipeline,
) -> (f64, RunReport, Machine) {
    let mut m = Machine::new(config.clone());
    m.set_batched_access(pipeline != Pipeline::PerLine);
    m.set_replay(pipeline == Pipeline::Replay);
    let start = Instant::now();
    workload.run(&mut m);
    let report = m.finish();
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, report, m)
}

/// Measures one paper workload: [`WORKLOAD_ROUNDS`] interleaved rounds of
/// per-line, batched and replay runs, asserting that every run's report
/// equals the per-line one.
fn workload_row(kind: WorkloadKind, quick: bool) -> WorkloadRow {
    let workload = paper_workload(kind, quick);
    let mut config = pooled_config(&base_config(), workload.as_ref(), 0.5);
    config.prefetch.enabled = true;
    let pipelines = [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay];
    let mut best = [f64::INFINITY; 3];
    let mut reference: Option<RunReport> = None;
    let (mut replay_windows, mut replay_window_pages) = (0, 0);
    for _ in 0..WORKLOAD_ROUNDS {
        for (i, &pipeline) in pipelines.iter().enumerate() {
            let (secs, report, m) = workload_run(workload.as_ref(), &config, pipeline);
            best[i] = best[i].min(secs);
            match &reference {
                None => reference = Some(report),
                Some(r) => assert!(
                    *r == report,
                    "{}: pipeline reports differ from the per-line run",
                    kind.name()
                ),
            }
            if pipeline == Pipeline::Replay {
                replay_windows = m.replay_windows();
                replay_window_pages = m.replay_window_pages();
            }
        }
    }
    let demand_lines = reference.expect("at least one round").total.demand_lines();
    let [per_line_s, batched_s, replay_s] = best;
    WorkloadRow {
        workload: kind.name().to_string(),
        demand_lines,
        per_line_s,
        batched_s,
        replay_s,
        per_line_lines_per_sec: demand_lines as f64 / per_line_s.max(1e-12),
        batched_lines_per_sec: demand_lines as f64 / batched_s.max(1e-12),
        replay_lines_per_sec: demand_lines as f64 / replay_s.max(1e-12),
        replay_vs_per_line: per_line_s / replay_s.max(1e-12),
        replay_vs_batched: batched_s / replay_s.max(1e-12),
        replay_windows,
        replay_window_pages,
    }
}

/// Measures the six paper workloads on the three pipelines.
fn workloads_bench(quick: bool) -> WorkloadsBench {
    let rows: Vec<WorkloadRow> = WorkloadKind::all()
        .into_iter()
        .map(|kind| workload_row(kind, quick))
        .collect();
    let sum = |f: fn(&WorkloadRow) -> f64| rows.iter().map(f).sum::<f64>();
    let replay_s = sum(|r| r.replay_s).max(1e-12);
    WorkloadsBench {
        scale: if quick { "tiny" } else { "X1" }.to_string(),
        replay_vs_per_line: sum(|r| r.per_line_s) / replay_s,
        replay_vs_batched: sum(|r| r.batched_s) / replay_s,
        rows,
    }
}

/// Trials per priced campaign: the depth of a fleet cell
/// (`SimCellRunner::quick`).
const PRICING_TRIALS: usize = 20;
/// Timed samples per method in each of a pricing measurement's two
/// interleaved passes; each method keeps its fastest sample.
const PRICING_ROUNDS: usize = 5;
/// Pricing calls per timed sample: one call takes tens of microseconds.
const PRICING_CALLS: usize = 200;

/// One paper workload's Monte Carlo pricing.
#[derive(Serialize)]
struct PricingRow {
    workload: String,
    /// Timing chunks in the priced timeline.
    chunks: u64,
    /// Fastest-sample µs to price every trial with one `retime_many` call.
    lockstep_us: f64,
    /// Fastest-sample µs to price the trials with one `retime` call each.
    per_trial_us: f64,
    /// `per_trial_us / lockstep_us`. Recorded, not gated.
    lockstep_speedup: f64,
}

/// Monte Carlo pricing of the six paper workloads at tiny scale, pooled at
/// half their footprint, under one fleet cell's trial schedules.
#[derive(Serialize)]
struct PricingBench {
    trials: u64,
    rows: Vec<PricingRow>,
    /// Summed per-trial µs over summed lockstep µs (gated).
    lockstep_speedup: f64,
}

/// Wall µs of one `price` call: the fastest of [`PRICING_ROUNDS`] samples of
/// [`PRICING_CALLS`] calls each.
fn best_call_us<T>(mut price: impl FnMut() -> T) -> f64 {
    (0..PRICING_ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PRICING_CALLS {
                std::hint::black_box(price());
            }
            start.elapsed().as_secs_f64() * 1e6 / PRICING_CALLS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures lockstep against per-trial pricing on each paper workload,
/// asserting that both price every trial bit-identically.
fn pricing_bench() -> PricingBench {
    let campaign = CampaignConfig {
        runs: PRICING_TRIALS,
        epochs_per_run: 4,
        seed: 0xD15C,
    };
    let rows: Vec<PricingRow> = WorkloadKind::all()
        .into_iter()
        .map(|kind| {
            let workload = kind.instantiate_tiny();
            let config = pooled_config(&base_config(), workload.as_ref(), 0.5);
            let report = run_workload(workload.as_ref(), &RunOptions::new(config));
            let idle = report.retime(&InterferenceProfile::Idle).total_runtime_s;
            let schedules = trial_schedules(idle, SchedulingPolicy::RandomBaseline, &campaign);
            let per_trial = || -> Vec<f64> {
                schedules
                    .iter()
                    .map(|schedule| report.retime(schedule).total_runtime_s)
                    .collect()
            };
            let lockstep = || -> Vec<f64> {
                report
                    .retime_many(&schedules)
                    .into_iter()
                    .map(|run| run.total_runtime_s)
                    .collect()
            };
            assert!(
                per_trial()
                    .iter()
                    .zip(lockstep())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{}: lockstep pricing differs from per-trial re-timing",
                kind.name()
            );
            let (mut lockstep_us, mut per_trial_us) = (f64::INFINITY, f64::INFINITY);
            // Interleave the two methods so that drift in machine load hits
            // both alike.
            for _ in 0..2 {
                lockstep_us = lockstep_us.min(best_call_us(lockstep));
                per_trial_us = per_trial_us.min(best_call_us(per_trial));
            }
            PricingRow {
                workload: kind.name().to_string(),
                chunks: report.timeline.len() as u64,
                lockstep_us,
                per_trial_us,
                lockstep_speedup: per_trial_us / lockstep_us,
            }
        })
        .collect();
    let sum = |f: fn(&PricingRow) -> f64| rows.iter().map(f).sum::<f64>();
    PricingBench {
        trials: PRICING_TRIALS as u64,
        lockstep_speedup: sum(|r| r.per_trial_us) / sum(|r| r.lockstep_us),
        rows,
    }
}

/// Prints the `pricing` section as a table.
fn print_pricing(pricing: &PricingBench) {
    let rows: Vec<Row> = pricing
        .rows
        .iter()
        .map(|r| {
            Row::new(
                r.workload.clone(),
                vec![
                    format!("{}", r.chunks),
                    format!("{:.1}", r.lockstep_us),
                    format!("{:.1}", r.per_trial_us),
                    format!("{:.2}x", r.lockstep_speedup),
                ],
            )
        })
        .collect();
    print_table(
        &format!(
            "Monte Carlo pricing — µs to re-time {} trial schedules, lockstep vs one call per trial",
            pricing.trials
        ),
        &["chunks", "lockstep", "per-trial", "speedup"],
        &rows,
    );
    println!(
        "\nSix-workload total: lockstep {:.2}x faster. Expected shape: one `retime_many` call \
         prices every trial several times faster than one `retime` call per trial, and \
         bit-identically.",
        pricing.lockstep_speedup
    );
}

/// The gated figures of a committed `BENCH_throughput.json`, read by key.
struct Baseline {
    /// `speedup_replay` of the stream rows.
    stream_speedups: Vec<f64>,
    /// `(stream-<tier>, replay_windows)` of the stream rows.
    stream_windows: Vec<(String, u64)>,
    /// `(workload, replay_windows)` of each `workloads` row.
    workload_windows: Vec<(String, u64)>,
    /// The `workloads` section's aggregate ratios.
    replay_vs_per_line: f64,
    replay_vs_batched: f64,
    /// The `pricing` section's aggregate lockstep speedup.
    pricing_speedup: f64,
}

fn member<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    value
        .get(key)
        .unwrap_or_else(|| panic!("baseline has no `{key}` member"))
}

fn number(value: &JsonValue, key: &str) -> f64 {
    member(value, key)
        .as_f64()
        .unwrap_or_else(|| panic!("baseline `{key}` is not a number"))
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    member(value, key)
        .as_str()
        .unwrap_or_else(|| panic!("baseline `{key}` is not a string"))
}

fn count(value: &JsonValue, key: &str) -> u64 {
    member(value, key)
        .as_u64()
        .unwrap_or_else(|| panic!("baseline `{key}` is not a count"))
}

fn array<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    member(value, key)
        .as_array()
        .unwrap_or_else(|| panic!("baseline `{key}` is not an array"))
}

impl Baseline {
    /// Parses a committed baseline. A malformed file panics with the
    /// parser's error; a missing or mistyped key panics naming the key.
    fn read(json: &str) -> Baseline {
        let root = serde_json::parse_value(json)
            .unwrap_or_else(|e| panic!("baseline is not valid JSON: {e}"));
        let stream_rows: Vec<&JsonValue> = array(&root, "throughput")
            .iter()
            .filter(|row| text(row, "pattern") == "stream")
            .collect();
        let stream_speedups = stream_rows
            .iter()
            .map(|row| number(row, "speedup_replay"))
            .collect();
        let stream_windows = stream_rows
            .iter()
            .map(|row| {
                let name = format!("stream-{}", text(row, "tier"));
                (name, count(row, "replay_windows"))
            })
            .collect();
        let workloads = member(&root, "workloads");
        let workload_windows = array(workloads, "rows")
            .iter()
            .map(|row| {
                let name = text(row, "workload").to_string();
                (name, count(row, "replay_windows"))
            })
            .collect();
        Baseline {
            stream_speedups,
            stream_windows,
            workload_windows,
            replay_vs_per_line: number(workloads, "replay_vs_per_line"),
            replay_vs_batched: number(workloads, "replay_vs_batched"),
            pricing_speedup: number(member(&root, "pricing"), "lockstep_speedup"),
        }
    }
}

/// One failure for each committed `(row, replay_windows)` entry whose row
/// is missing from the current run or replays fewer windows.
fn window_failures(
    committed: &[(String, u64)],
    current: impl Fn(&str) -> Option<u64>,
) -> Vec<String> {
    committed
        .iter()
        .filter_map(|(name, committed)| {
            let windows = current(name);
            (!matches!(windows, Some(w) if w >= *committed)).then(|| {
                format!("{name}: replay windows fell below the committed {committed} ({windows:?})")
            })
        })
        .collect()
}

/// The `workloads` gate: a workload replaying fewer windows than committed,
/// or an aggregate ratio more than 20% below the committed one. Returns the
/// failures, empty when the section passes.
fn workloads_failures(base: &Baseline, cur: &WorkloadsBench) -> Vec<String> {
    let mut failures = window_failures(&base.workload_windows, |name| {
        cur.rows
            .iter()
            .find(|r| r.workload == name)
            .map(|r| r.replay_windows)
    });
    for (label, now, committed) in [
        (
            "replay-vs-per-line",
            cur.replay_vs_per_line,
            base.replay_vs_per_line,
        ),
        (
            "replay-vs-batched",
            cur.replay_vs_batched,
            base.replay_vs_batched,
        ),
    ] {
        if now < 0.8 * committed {
            failures.push(format!(
                "six-workload {label} regressed more than 20% ({now:.2}x < 0.8 * {committed:.2}x)"
            ));
        }
    }
    failures
}

fn main() {
    let quick = is_quick();
    // The committed baseline describes the full profile: the quick
    // profile's smaller stream arrays reach about half the committed replay
    // speedup, so a quick run could only fail against it.
    if quick && std::env::var("DISMEM_BASELINE").is_ok() {
        eprintln!(
            "error: DISMEM_BASELINE gates the full profile and cannot be combined with \
             DISMEM_QUICK=1"
        );
        std::process::exit(1);
    }
    // The quick profile still uses arrays larger than the 2 MiB scaled LLC so
    // the replay engine has a steady state to find.
    let array_bytes: u64 = if quick { 4 << 20 } else { 8 << 20 };
    let passes: u32 = if quick { 6 } else { 12 };
    let gather_count = (array_bytes / 64) as usize;
    let offsets = gather_offsets(array_bytes, gather_count);
    let sample = |pattern, remote, pipeline| {
        measure(pattern, remote, pipeline, array_bytes, passes, &offsets)
    };
    // Every wall-clock and engagement gate that fails adds a line here; the
    // list is reported once `BENCH_throughput.json` is written.
    let mut failures: Vec<String> = Vec::new();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for pattern in [Pattern::Stream, Pattern::Strided, Pattern::Gather] {
        for remote in [false, true] {
            let tier = if remote { "pool" } else { "local" };
            let label = format!("{}-{tier}", pattern.label());
            let run = |pipeline| sample(pattern, remote, pipeline);
            let per_line = run(Pipeline::PerLine).lines_per_sec;
            let batched = run(Pipeline::Batched).lines_per_sec;
            let replay = run(Pipeline::Replay);
            // Replay must never cost throughput relative to the plain
            // batched walk, engaged or not — the detector's bookkeeping on
            // never-periodic traffic has to be ~free. Each cell is a single
            // wall-clock sample and machine-load drift between cells is well
            // above the 5% tolerance, so the gate compares *adjacent* pairs:
            // when the first ratio falls short, re-measure batched and
            // replay back-to-back (drift hits both samples alike) and accept
            // the best pair. A persistent regression fails every pair.
            let first = ReplayPair {
                ratio: replay.lines_per_sec / batched,
                batched,
                replay,
            };
            let pair = remeasure(first, 3, replay_trails, |best| {
                eprintln!("  [throughput] {label}: replay below batched — re-measuring");
                let b = run(Pipeline::Batched).lines_per_sec;
                let retry = run(Pipeline::Replay);
                ReplayPair {
                    ratio: best.ratio.max(retry.lines_per_sec / b),
                    batched: best.batched.max(b),
                    replay: if retry.lines_per_sec > best.replay.lines_per_sec {
                        retry
                    } else {
                        best.replay
                    },
                }
            });
            if replay_trails(&pair) {
                failures.push(format!(
                    "{label}: replay pipeline trails the batched walk by more than 5% \
                     (best adjacent-pair ratio {:.3})",
                    pair.ratio
                ));
            }
            let ReplayPair {
                batched, replay, ..
            } = pair;
            // Engagement is part of the bench contract, not just speed: the
            // stream multiplier is meaningless if the engine fell back to the
            // exact walk.
            if pattern == Pattern::Stream && replay.replay_windows == 0 {
                failures.push(format!("{label}: window replay never engaged"));
            }
            let speedup_batched = batched / per_line;
            let speedup_replay = replay.lines_per_sec / per_line;
            rows.push(Row::new(
                label.clone(),
                vec![
                    format!("{:.1}", per_line / 1e6),
                    format!("{:.1}", batched / 1e6),
                    format!("{:.1}", replay.lines_per_sec / 1e6),
                    format!("{speedup_replay:.2}x"),
                    format!("{}", replay.replay_windows),
                ],
            ));
            eprintln!(
                "  [throughput] {label}: {:.1} -> {:.1} -> {:.1} Mlines/s \
                 (batched {speedup_batched:.2}x, replay {speedup_replay:.2}x, \
                 {} windows)",
                per_line / 1e6,
                batched / 1e6,
                replay.lines_per_sec / 1e6,
                replay.replay_windows,
            );
            results.push(ThroughputResult {
                pattern: pattern.label().to_string(),
                tier: tier.to_string(),
                per_line_lines_per_sec: per_line,
                batched_lines_per_sec: batched,
                replay_lines_per_sec: replay.lines_per_sec,
                speedup_batched,
                speedup_replay,
                replay_windows: replay.replay_windows,
            });
        }
    }

    print_table(
        "Simulator throughput — simulated Mlines/s, per-line vs batched vs replay",
        &["per-line", "batched", "replay", "replay-speedup", "windows"],
        &rows,
    );
    println!(
        "\nExpected shape: the batched line walk is faster than the per-line reference on \
         every pattern; window replay multiplies the gain on sequential streams \
         (windows > 0) and stays within 5% of the batched walk on strided sweeps and \
         random gathers, where it never engages."
    );

    let workloads = workloads_bench(quick);
    print_workloads(&workloads);

    let pricing = pricing_bench();
    print_pricing(&pricing);

    let tracing = tracing_bench(array_bytes, passes);
    print_table(
        "Flight recorder — stream Mlines/s with and without recording",
        &["recorder-off", "recorder-on", "overhead", "events"],
        &[Row::new(
            "stream-local".to_string(),
            vec![
                format!("{:.1}", tracing.recorder_off_lines_per_sec / 1e6),
                format!("{:.1}", tracing.recorder_on_lines_per_sec / 1e6),
                format!("{:.3}x", tracing.overhead_ratio),
                format!("{}", tracing.events_recorded),
            ],
        )],
    );
    println!(
        "\nExpected shape: attaching a recorder costs nothing measurable — events only \
         materialize at chunk closes, and the unrecorded default allocates nothing."
    );
    if recording_costs(&tracing) {
        failures.push(format!(
            "flight recording left the noise band of an unrecorded run \
             (best adjacent-pair overhead {:.3}x)",
            tracing.overhead_ratio
        ));
    }
    if tracing.events_recorded == 0 {
        failures.push("the recorded stream measurement captured no replay transitions".into());
    }

    let report = ThroughputReport {
        throughput: results,
        workloads,
        pricing,
        tracing,
    };
    write_json("BENCH_throughput", &report);

    // Regression gate against a committed baseline (CI): compare the
    // machine-independent replay and pricing ratios and the stream rows' and
    // workloads' window counts.
    if let Ok(path) = std::env::var("DISMEM_BASELINE") {
        let file = invocation_path(&path);
        let json = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", file.display()));
        let base = Baseline::read(&json);
        let baseline = &base.stream_speedups;
        // Guard against a baseline of the wrong shape: exactly one entry
        // per stream tier, and every value must look like a committed
        // stream replay speedup. Window replay puts the stream rows at 4-7x;
        // the strided and gather rows, which it never engages on, sit below
        // 2x, and gating on those would silently neuter the gate.
        assert_eq!(
            baseline.len(),
            2,
            "baseline {path} must hold exactly the two stream speedup_replay entries"
        );
        assert!(
            baseline.iter().all(|&v| v > 3.0),
            "baseline {path} stream speedups {baseline:?} look implausible (expected \
             window-replay-scale values, ≥4x)"
        );
        let average = |speedups: &[f64]| speedups.iter().sum::<f64>() / speedups.len() as f64;
        let base_avg = average(baseline);
        let current: Vec<f64> = report
            .throughput
            .iter()
            .filter(|r| r.pattern == "stream")
            .map(|r| r.speedup_replay)
            .collect();
        let cur_avg = average(&current);
        eprintln!(
            "  [throughput] stream replay speedup: current {cur_avg:.2}x vs baseline {base_avg:.2}x"
        );
        // Each measurement is a single wall-clock sample; before failing,
        // re-measure the stream rows once — a descheduled run on a noisy
        // shared runner is far more likely than a real regression that this
        // retry would mask.
        let stream_regressed = |avg: &f64| *avg < 0.8 * base_avg;
        let cur_avg = remeasure(cur_avg, 1, stream_regressed, |cur_avg| {
            eprintln!("  [throughput] below threshold — re-measuring stream rows once");
            let retry = [false, true].map(|remote| {
                let run = |pipeline| sample(Pattern::Stream, remote, pipeline).lines_per_sec;
                let per_line = run(Pipeline::PerLine);
                run(Pipeline::Replay) / per_line
            });
            let retry_avg = average(&retry);
            eprintln!("  [throughput] retry stream replay speedup: {retry_avg:.2}x");
            cur_avg.max(retry_avg)
        });
        if stream_regressed(&cur_avg) {
            failures.push(format!(
                "stream replay speedup regressed more than 20% \
                 ({cur_avg:.2}x < 0.8 * {base_avg:.2}x)"
            ));
        }

        // Pricing runs on tiny inputs in both profiles. Same single
        // re-measure as the stream rows: keep the better of the two.
        eprintln!(
            "  [pricing] lockstep speedup: current {:.2}x vs baseline {:.2}x",
            report.pricing.lockstep_speedup, base.pricing_speedup
        );
        let pricing_regressed = |speedup: &f64| *speedup < 0.8 * base.pricing_speedup;
        let pricing_speedup = remeasure(
            report.pricing.lockstep_speedup,
            1,
            pricing_regressed,
            |speedup| {
                eprintln!("  [pricing] below the baseline — re-measuring the section once");
                let retry = pricing_bench();
                print_pricing(&retry);
                speedup.max(retry.lockstep_speedup)
            },
        );
        if pricing_regressed(&pricing_speedup) {
            failures.push(format!(
                "six-workload lockstep pricing speedup regressed more than 20% \
                 ({pricing_speedup:.2}x < 0.8 * {:.2}x)",
                base.pricing_speedup
            ));
        }

        // Same single re-measure as the stream rows: keep the better
        // aggregate of the two measurements.
        let workloads = remeasure(
            report.workloads,
            1,
            |workloads| !workloads_failures(&base, workloads).is_empty(),
            |first| {
                eprintln!("  [workloads] below the baseline — re-measuring the section once");
                let mut retry = workloads_bench(quick);
                print_workloads(&retry);
                retry.replay_vs_per_line = retry.replay_vs_per_line.max(first.replay_vs_per_line);
                retry.replay_vs_batched = retry.replay_vs_batched.max(first.replay_vs_batched);
                retry
            },
        );
        failures.extend(workloads_failures(&base, &workloads));
        // Window counts are deterministic, so the stream rows' counts
        // need no re-measure.
        failures.extend(window_failures(&base.stream_windows, |name| {
            report
                .throughput
                .iter()
                .find(|r| r.pattern == "stream" && name == format!("stream-{}", r.tier))
                .map(|r| r.replay_windows)
        }));
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("error: {failure}");
        }
        std::process::exit(1);
    }
}

/// Prints the `workloads` section as a table.
fn print_workloads(workloads: &WorkloadsBench) {
    let rows: Vec<Row> = workloads
        .rows
        .iter()
        .map(|r| {
            Row::new(
                r.workload.clone(),
                vec![
                    format!("{:.3}", r.per_line_s),
                    format!("{:.3}", r.batched_s),
                    format!("{:.3}", r.replay_s),
                    format!("{:.1}", r.replay_lines_per_sec / 1e6),
                    format!("{:.2}x", r.replay_vs_per_line),
                    format!("{:.2}x", r.replay_vs_batched),
                    format!("{}", r.replay_windows),
                ],
            )
        })
        .collect();
    print_table(
        &format!(
            "Paper workloads at {} — best-of-{WORKLOAD_ROUNDS} seconds per run, \
             per-line vs batched vs replay",
            workloads.scale
        ),
        &[
            "per-line",
            "batched",
            "replay",
            "replay-Ml/s",
            "vs-per-line",
            "vs-batched",
            "windows",
        ],
        &rows,
    );
    println!(
        "\nSix-workload totals: replay {:.2}x per-line, {:.2}x batched. Expected shape: \
         replay engages windows on every workload at X1 and is never far behind the \
         batched walk; tiny inputs engage no windows.",
        workloads.replay_vs_per_line, workloads.replay_vs_batched
    );
}
