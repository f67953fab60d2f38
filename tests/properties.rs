//! Property-based tests (proptest) of core invariants across the workspace.

use dismem::analysis::{five_number_summary, percentile, Roofline};
use dismem::sim::tiering::{HotPromote, PeriodicRebalance};
use dismem::sim::timing::TimeBreakdown;
use dismem::sim::{
    Counters, InterferenceProfile, LinkModel, Machine, MachineConfig, TieringSpec, TimingModel,
};
use dismem::trace::{
    AccessKind, FlightRecorder, MemoryEngine, PageHistogram, PlacementPolicy, TraceEvent, PAGE_SIZE,
};
use proptest::prelude::*;

/// A small synthetic access script: (offset pages, length bytes, write?).
fn access_script() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec((0u64..64, 1u64..16_384, any::<bool>()), 1..40)
}

/// A mixed bulk-access script: per step `(op, page, len, count, flag)`.
fn bulk_script() -> impl Strategy<Value = Vec<(u8, u64, u64, u64, bool)>> {
    prop::collection::vec(
        (0u8..6, 0u64..48, 1u64..16_384, 1u64..24, any::<bool>()),
        1..24,
    )
}

/// Asserts the DRAM-line attribution identity: on each tier, the DRAM lines
/// the run counted (demand and prefetch fills plus writebacks) equal the
/// lines the recording point attributed to allocations. A counter write that
/// bypasses the recording point breaks it even when every pipeline makes the
/// same write. Migration lines are not application traffic and sit on
/// neither side.
fn assert_dram_lines_attributed(report: &dismem::sim::RunReport) {
    let (local, pool) = report.allocations.iter().fold((0, 0), |(l, p), a| {
        (l + a.dram_lines_local, p + a.dram_lines_pool)
    });
    let total = &report.total;
    assert_eq!(
        local,
        total.dram_lines_local + total.writeback_lines_local,
        "local lines not attributed"
    );
    assert_eq!(
        pool,
        total.dram_lines_pool + total.writeback_lines_pool,
        "pool lines not attributed"
    );
}

/// Asserts every counter identity a report must satisfy, whatever the
/// pipeline: the DRAM-line attribution identity above; every line into L2 is
/// a demand miss or a prefetch; a prefetch is counted used or useless at most
/// once; demand fills are a share of all fills on each tier; and demand
/// misses a share of demand lines. Like the attribution identity, these
/// catch a counter write that every pipeline makes alike.
fn assert_counter_identities(report: &dismem::sim::RunReport) {
    assert_dram_lines_attributed(report);
    let t = &report.total;
    assert_eq!(
        t.l2_lines_in,
        t.l2_demand_misses + t.pf_issued,
        "L2 fills not conserved"
    );
    assert!(
        t.pf_useful + t.useless_hwpf <= t.pf_issued,
        "prefetch outcomes exceed prefetches"
    );
    assert!(
        t.demand_dram_lines_local <= t.dram_lines_local
            && t.demand_dram_lines_pool <= t.dram_lines_pool,
        "demand fills exceed fills"
    );
    assert!(
        t.l2_demand_misses <= t.demand_lines(),
        "demand misses exceed demand lines"
    );
}

/// Replays one mixed script of bulk and scalar engine calls on a machine.
///
/// `big_cache` switches from the tiny test hierarchy (32 L2 sets) to the
/// production `scaled_emulation` geometry (512 L2 sets, 2 MiB LLC) — the
/// batched pipeline takes geometry-dependent shortcuts, so the equivalence
/// guarantee must be exercised on both shapes.
fn run_bulk_script(
    script: &[(u8, u64, u64, u64, bool)],
    batched: bool,
    big_cache: bool,
) -> dismem::sim::RunReport {
    let mut config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    if big_cache {
        config.cache = dismem::sim::CacheParams::scaled_emulation();
    }
    let mut m = Machine::new(config);
    m.set_batched_access(batched);
    let obj_pages = 64u64;
    let a = m.alloc("a", "prop", obj_pages * PAGE_SIZE);
    let b = m.alloc_with_policy(
        "b",
        "prop",
        obj_pages * PAGE_SIZE,
        PlacementPolicy::ForceRemote,
    );
    let temp = m.alloc("temp", "prop", 8 * PAGE_SIZE);
    m.phase_start("mixed");
    m.touch(temp, 8 * PAGE_SIZE);
    // Demand lines (read, write) the script touches, element by element with
    // no merging: objects are page-aligned, so offsets give the line spans.
    let mut expected = (0, 8 * PAGE_SIZE / 64);
    let mut expect = |kind: AccessKind, offsets: &[u64], bytes: u64| {
        let lines: u64 = offsets
            .iter()
            .map(|&o| (o + bytes - 1) / 64 - o / 64 + 1)
            .sum();
        match kind {
            AccessKind::Read => expected.0 += lines,
            AccessKind::Write => expected.1 += lines,
        }
    };
    for (i, &(op, page, len, count, flag)) in script.iter().enumerate() {
        let handle = if flag { a } else { b };
        let kind = if page % 2 == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let offset = page * PAGE_SIZE;
        let len = len.min(obj_pages * PAGE_SIZE - offset);
        match op {
            0 => {
                m.access_range(handle, offset, len, kind);
                expect(kind, &[offset], len);
            }
            1 => {
                // Scattered offsets spread pseudo-randomly over the object.
                let offs: Vec<u64> = (0..count)
                    .map(|k| {
                        ((page + 3 * k + 7 * k * k) * 2048 + 8 * k) % (obj_pages * PAGE_SIZE - 8)
                    })
                    .collect();
                m.gather(handle, &offs, 8);
                expect(AccessKind::Read, &offs, 8);
            }
            2 => {
                let offs: Vec<u64> = (0..count)
                    .map(|k| {
                        ((page + 5 * k + k * k) * 4096 + 16 * k) % (obj_pages * PAGE_SIZE - 16)
                    })
                    .collect();
                m.scatter(handle, &offs, 8);
                expect(AccessKind::Write, &offs, 8);
            }
            3 => {
                let stride = 64 + (len % 1024);
                let count = count.min((obj_pages * PAGE_SIZE - offset) / stride.max(1));
                if count > 0 {
                    m.strided(handle, offset, count, 8, stride, kind);
                    let offs: Vec<u64> = (0..count).map(|k| offset + k * stride).collect();
                    expect(kind, &offs, 8);
                }
            }
            4 => m.flops(len * 1000),
            _ => {
                #[allow(clippy::disallowed_methods, reason = "the scripts mix in scalar calls")]
                m.access(handle, offset, len.min(256), kind);
                expect(kind, &[offset], len.min(256));
            }
        }
        if i == script.len() / 2 {
            // Free mid-script so freed-page reuse is exercised on both paths.
            m.free(temp);
        }
    }
    m.phase_end();
    let report = m.finish();
    assert_counter_identities(&report);
    assert_eq!(
        (
            report.total.demand_read_lines,
            report.total.demand_write_lines
        ),
        expected,
        "demand lines differ from the lines the script touches"
    );
    report
}

/// How a machine executes accesses in the replay equivalence tests.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pipeline {
    /// Per-line reference path.
    PerLine,
    /// Batched line walk, replay engine off.
    Batched,
    /// Batched line walk with steady-state page replay (the default).
    Replay,
}

impl Pipeline {
    fn configure(self, m: &mut Machine) {
        m.set_batched_access(self != Pipeline::PerLine);
        m.set_replay(self == Pipeline::Replay);
    }
}

/// Runs `body` under all three pipelines and asserts full `RunReport`
/// bit-identity; returns the windows the replay pipeline applied so callers
/// can assert the scenario actually engaged the engine.
fn assert_replay_bit_identical(config: &MachineConfig, body: impl Fn(&mut Machine)) -> u64 {
    let run = |pipeline| run_tiered(config, None, pipeline, &body);
    let (per_line, per_line_windows) = run(Pipeline::PerLine);
    let (batched, batched_windows) = run(Pipeline::Batched);
    let (replay, windows) = run(Pipeline::Replay);
    assert_eq!((per_line_windows, batched_windows), (0, 0));
    assert_eq!(batched, per_line, "batched (replay off) diverged");
    assert_eq!(replay, per_line, "replay diverged from the reference");
    windows
}

/// A run that straddles the local→pool tier boundary mid-stream: pages bind
/// first-touch during replayed windows and the capacity spill must land on
/// the same page in the same order as the exact walk.
#[test]
fn replay_is_exact_across_tier_boundary() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let bytes = 120 * PAGE_SIZE;
    let windows = assert_replay_bit_identical(&config, |m| {
        let a = m.alloc("stream", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        m.read(a, 0, bytes);
        m.read(a, 0, bytes);
        m.phase_end();
    });
    assert!(windows > 0, "scenario must exercise the replay engine");
}

/// A hot line is re-seeded into a set the stream aliases, both before the
/// stream and between chunks of it: the foreign resident line must block or
/// exit replay without changing a single counter.
#[test]
fn replay_is_exact_with_aliasing_hot_line() {
    let config = MachineConfig::test_config();
    let windows = assert_replay_bit_identical(&config, |m| {
        let hot = m.alloc("hot", "t", PAGE_SIZE);
        let stream_bytes = 80 * PAGE_SIZE;
        let a = m.alloc("stream", "t", stream_bytes);
        m.phase_start("p");
        m.touch(hot, PAGE_SIZE);
        m.touch(a, stream_bytes);
        for _ in 0..3 {
            // Refresh the hot line so it is recently-stamped when the stream
            // floods its set, then stream in two chunks with another hot
            // access splitting the streak mid-run.
            m.read(hot, 0, 64);
            m.read(a, 0, stream_bytes / 2);
            m.read(hot, 128, 64);
            m.read(a, stream_bytes / 2, stream_bytes / 2);
        }
        m.phase_end();
    });
    assert!(windows > 0, "scenario must exercise the replay engine");
}

/// A second object allocated after the stream object and touched last: its
/// lines sit ahead of the stream in every set when the stream is read
/// again. Arming does not wait for them to leave; the shift check rejects
/// the windows they spoil, and replay engages once they are evicted.
#[test]
fn replay_is_exact_with_foreign_lines_ahead_of_the_stream() {
    let config = MachineConfig::test_config();
    let windows = assert_replay_bit_identical(&config, |m| {
        let stream_bytes = 64 * PAGE_SIZE;
        let foreign_bytes = 16 * PAGE_SIZE;
        let a = m.alloc("stream", "t", stream_bytes);
        let b = m.alloc("foreign", "t", foreign_bytes);
        m.phase_start("p");
        m.touch(a, stream_bytes);
        m.touch(b, foreign_bytes);
        m.read(a, 0, stream_bytes);
        m.phase_end();
    });
    assert!(
        windows >= 32,
        "replay must not wait for the foreign lines to leave: {windows}"
    );
}

/// Ranges that start and end mid-page: replay must hand the partial tail
/// back to the exact walk with a fully materialized cache state.
#[test]
fn replay_is_exact_for_runs_ending_mid_page() {
    let config = MachineConfig::test_config();
    let windows = assert_replay_bit_identical(&config, |m| {
        let bytes = 64 * PAGE_SIZE;
        let a = m.alloc("stream", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        // End mid-page.
        m.read(a, 0, 37 * PAGE_SIZE + 13 * 64);
        // Start mid-page (and mid-line), end mid-page.
        m.read(a, 24, 29 * PAGE_SIZE + 333);
        // Full object again to re-engage.
        m.read(a, 0, bytes);
        m.phase_end();
    });
    assert!(windows > 0, "scenario must exercise the replay engine");
}

/// Level 1's second profile runs with the prefetcher off for the whole run:
/// the stream table stays empty, replay must still engage on a contiguous
/// stream split over several calls, and the reports must stay identical.
#[test]
fn replay_is_exact_with_prefetcher_off() {
    let config = MachineConfig::test_config().with_prefetch(false);
    let windows = assert_replay_bit_identical(&config, |m| {
        let bytes = 60 * PAGE_SIZE;
        let a = m.alloc("stream", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        m.read(a, 0, 30 * PAGE_SIZE);
        m.read(a, 30 * PAGE_SIZE, 20 * PAGE_SIZE);
        m.read(a, 50 * PAGE_SIZE, 10 * PAGE_SIZE);
        m.read(a, 0, bytes);
        m.phase_end();
    });
    assert!(windows > 0, "scenario must exercise the replay engine");
}

/// The replay switch is set before the first access, like every machine
/// setting: a late switch would leave stale replay state behind, so it
/// panics.
#[test]
#[should_panic(expected = "Machine::set_replay called after the run started")]
fn toggling_replay_after_the_first_access_panics() {
    let mut m = Machine::new(MachineConfig::test_config());
    let a = m.alloc("stream", "t", 4 * PAGE_SIZE);
    m.touch(a, 4 * PAGE_SIZE);
    m.set_replay(false);
}

/// Whole repeated passes (back-to-back identical whole-object calls) whose
/// count differs between runs, separated by a scalar access that breaks the
/// streak: every run must re-detect from scratch and stay bit-identical.
#[test]
fn replay_pass_count_change_between_runs_is_exact() {
    let config = MachineConfig::test_config();
    assert_replay_bit_identical(&config, |m| {
        let bytes = 32 * PAGE_SIZE;
        let a = m.alloc("loop", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        for (run, passes) in [6usize, 3, 9].into_iter().enumerate() {
            for _ in 0..passes {
                m.read(a, 0, bytes);
            }
            // A scalar access breaks the streak between runs.
            #[allow(clippy::disallowed_methods, reason = "the scenario under test")]
            m.access(a, (run as u64) * 192, 64, AccessKind::Write);
        }
        m.phase_end();
    });
}

/// A loop of whole-object passes whose final call covers only part of the
/// object: the partial pass must leave any replay and materialize exactly.
#[test]
fn replay_final_partial_pass_is_exact() {
    let config = MachineConfig::test_config();
    assert_replay_bit_identical(&config, |m| {
        let bytes = 32 * PAGE_SIZE;
        let a = m.alloc("loop", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        for _ in 0..8 {
            m.read(a, 0, bytes);
        }
        // Final partial pass, ending mid-page and mid-line.
        m.read(a, 0, bytes / 2 + 7 * 64 + 13);
        m.phase_end();
    });
}

/// A long-run script mixing whole-object streams (which engage replay) with
/// scalar accesses, gathers, strided sweeps and a mid-script free.
fn replay_script() -> impl Strategy<Value = Vec<(u8, u64, u64, u64, bool)>> {
    prop::collection::vec((0u8..6, 0u64..64, 1u64..48, 1u64..24, any::<bool>()), 1..16)
}

/// A hot-promotion policy tuned for the tiny test configuration: epochs every
/// 2048 application DRAM lines, promote at heat 16, demote under pressure at
/// heat 4.
fn test_hot_promote() -> TieringSpec {
    TieringSpec::HotPromote(HotPromote {
        demote_heat: 4.0,
        ..HotPromote::new(2048, 16.0)
    })
}

/// Drives a workload body on a machine per (pipeline, tiering spec) and
/// returns the report plus the windows the replay engine applied.
fn run_tiered(
    config: &MachineConfig,
    spec: Option<&TieringSpec>,
    pipeline: Pipeline,
    body: impl Fn(&mut Machine),
) -> (dismem::sim::RunReport, u64) {
    let mut m = Machine::new(config.clone());
    pipeline.configure(&mut m);
    if let Some(spec) = spec {
        m.set_tiering_spec(spec);
    }
    body(&mut m);
    let windows = m.replay_windows();
    let report = m.finish();
    assert_counter_identities(&report);
    (report, windows)
}

/// A hot/cold working set under capacity pressure: the cold object fills the
/// local tier, the hot object spills to the pool entirely and is then
/// streamed repeatedly in page-misaligned chunks so replay streaks survive
/// call boundaries while migrations land between the calls.
fn hot_cold_body(passes: usize, free_hot_at: Option<usize>) -> impl Fn(&mut Machine) {
    move |m: &mut Machine| {
        let cold = m.alloc("cold", "t", 40 * PAGE_SIZE);
        let hot = m.alloc("hot", "t", 48 * PAGE_SIZE);
        m.phase_start("init");
        m.touch(cold, 40 * PAGE_SIZE);
        m.touch(hot, 48 * PAGE_SIZE);
        m.phase_end();
        m.phase_start("loop");
        for pass in 0..passes {
            // Two chunks per pass with a mid-page boundary: the second call
            // continues the first's streak, so an epoch firing at the chunk
            // close between them lands while replay state is live.
            let split = 17 * PAGE_SIZE + 24 * 64;
            m.read(hot, 0, split);
            m.read(hot, split, 48 * PAGE_SIZE - split);
            if Some(pass) == free_hot_at {
                m.free(hot);
                m.phase_end();
                return;
            }
            m.flops(10_000);
        }
        m.phase_end();
    }
}

/// The hot/cold working set of [`hot_cold_body`], streamed 14 times in
/// page-aligned calls of `call_pages` pages each.
fn hot_cold_calls_body(call_pages: u64) -> impl Fn(&mut Machine) {
    move |m: &mut Machine| {
        let cold = m.alloc("cold", "t", 40 * PAGE_SIZE);
        let hot = m.alloc("hot", "t", 48 * PAGE_SIZE);
        m.phase_start("init");
        m.touch(cold, 40 * PAGE_SIZE);
        m.touch(hot, 48 * PAGE_SIZE);
        m.phase_end();
        m.phase_start("loop");
        for _ in 0..14 {
            for call in 0..48 / call_pages {
                m.read(hot, call * call_pages * PAGE_SIZE, call_pages * PAGE_SIZE);
            }
            m.flops(10_000);
        }
        m.phase_end();
    }
}

/// Migrations landing while the replay engine is armed or replaying must
/// leave all three pipelines bit-identical: the cache walk never reads a
/// page's tier, and the policy's decisions are pipeline-independent.
#[test]
fn tiering_migration_mid_replay_stream_is_exact() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let spec = test_hot_promote();
    let body = hot_cold_body(10, None);
    let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, &body);
    let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, &body);
    let (replay, windows) = run_tiered(&config, Some(&spec), Pipeline::Replay, &body);
    assert!(windows > 0, "scenario must exercise the replay engine");
    assert!(
        per_line.tiering.promotions > 0 && per_line.tiering.demotions > 0,
        "scenario must migrate: {:?}",
        per_line.tiering
    );
    assert_eq!(batched, per_line, "batched diverged under migrations");
    assert_eq!(replay, per_line, "replay diverged under migrations");
}

/// Migrations landing mid-loop over repeated identical whole-object calls
/// (not chunked streaks): each call restarts the streak, and window replay
/// must re-engage within it wherever the epochs land.
#[test]
fn tiering_migration_mid_pass_replay_is_exact() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let spec = test_hot_promote();
    let body = hot_cold_calls_body(48);
    let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, &body);
    let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, &body);
    let (replay, windows) = run_tiered(&config, Some(&spec), Pipeline::Replay, &body);
    assert!(
        windows > 0,
        "whole-object loop must replay windows: {windows}"
    );
    assert!(
        per_line.tiering.promotions > 0,
        "scenario must migrate: {:?}",
        per_line.tiering
    );
    assert_eq!(batched, per_line, "batched diverged under migrations");
    assert_eq!(replay, per_line, "replay diverged under migrations");
}

/// A strided sweep over an object straddling the local/pool tier boundary,
/// after a contiguous first-touch stream: element sequences cross from local
/// into remote pages every pass, and all three pipelines must stay
/// bit-identical.
#[test]
fn strided_sweep_across_tier_boundary_is_exact() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let windows = assert_replay_bit_identical(&config, |m| {
        let bytes = 80 * PAGE_SIZE;
        let a = m.alloc("sweep", "t", bytes);
        m.phase_start("p");
        // First-touch binds the first 40 pages local, the rest on the pool.
        m.touch(a, bytes);
        let stride = 320u64; // 5 lines: coprime with the page size in lines
        let count = bytes / stride;
        for _ in 0..6 {
            m.strided(a, 0, count, 8, stride, AccessKind::Read);
        }
        m.phase_end();
    });
    assert!(
        windows > 0,
        "the first-touch stream must replay windows: {windows}"
    );
}

/// Freeing an object whose pages were partially promoted must release every
/// page from the tier it currently sits on, on every pipeline.
#[test]
fn tiering_free_of_partially_promoted_object_is_exact() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    // A tight move cap keeps the promotion partial when the free lands.
    let spec = TieringSpec::HotPromote(HotPromote {
        demote_heat: 4.0,
        max_moves_per_epoch: 7,
        ..HotPromote::new(2048, 16.0)
    });
    let body = |m: &mut Machine| {
        hot_cold_body(6, Some(3))(m);
        // After the free, a fresh allocation reuses the released capacity.
        let late = m.alloc("late", "t", 24 * PAGE_SIZE);
        m.phase_start("tail");
        m.touch(late, 24 * PAGE_SIZE);
        m.read(late, 0, 24 * PAGE_SIZE);
        m.phase_end();
    };
    let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, body);
    let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, body);
    let (replay, _) = run_tiered(&config, Some(&spec), Pipeline::Replay, body);
    let t = &per_line.tiering;
    assert!(
        t.promotions > 0,
        "scenario must promote before the free: {t:?}"
    );
    let hot = per_line.allocation("hot").unwrap();
    assert!(hot.freed);
    assert_eq!(hot.pages_local + hot.pages_pool, 0, "freed pages released");
    // Tier occupancy stays consistent: only the cold and late objects remain.
    assert_eq!(
        per_line.local_pages_used + per_line.pool_pages_used,
        40 + 24
    );
    assert_eq!(batched, per_line);
    assert_eq!(replay, per_line);
}

/// Promotions fill the local tier right up to its capacity; a subsequent
/// first touch that no tier can hold must abort with the same simulated OOM
/// on every pipeline (migrations never change total occupancy, so the OOM
/// lands on the same page).
#[test]
fn tiering_promotion_then_oom_is_identical_across_pipelines() {
    let config = MachineConfig::test_config()
        .with_local_capacity(8 * PAGE_SIZE)
        .with_pool_capacity(8 * PAGE_SIZE);
    let spec = TieringSpec::HotPromote(HotPromote {
        demote_heat: 4.0,
        ..HotPromote::new(512, 8.0)
    });
    for pipeline in [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay] {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tiered(&config, Some(&spec), pipeline, |m| {
                let a = m.alloc("a", "t", 12 * PAGE_SIZE);
                m.phase_start("p");
                m.touch(a, 12 * PAGE_SIZE);
                // Hammer the pool-resident tail until promotions fire.
                for _ in 0..8 {
                    m.read(a, 8 * PAGE_SIZE, 4 * PAGE_SIZE);
                }
                // 12 + 5 pages exceed the 16 pages of total capacity.
                let b = m.alloc("b", "t", 5 * PAGE_SIZE);
                m.touch(b, 5 * PAGE_SIZE);
                m.phase_end();
            })
        }));
        let err = result.expect_err("over-capacity touch must abort");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"?").to_string());
        assert!(
            msg.contains("simulated OOM abort"),
            "unexpected panic: {msg}"
        );
    }
}

/// The phase-dwell counters (hot-set shifts, dwell epochs, peak hot-set
/// size) are derived from the hotness tracker at epoch boundaries, so they
/// must be measured — and bit-identical — on all three pipelines. The body
/// alternates between two disjoint hot regions so the hot set demonstrably
/// moves, and full `RunReport` equality pins the dwell counters along with
/// everything else.
#[test]
fn dwell_counters_see_hot_set_shifts_and_stay_bit_identical() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let spec = test_hot_promote();
    let body = |m: &mut Machine| {
        let a = m.alloc("arena", "t", 96 * PAGE_SIZE);
        m.phase_start("p");
        m.touch(a, 96 * PAGE_SIZE);
        // Hammer the two halves of the arena alternately: each phase's hot
        // set is one half, so every phase boundary is a hot-set shift.
        for phase in 0..6u64 {
            let base = (phase % 2) * 48 * PAGE_SIZE;
            for _ in 0..8 {
                m.read(a, base, 48 * PAGE_SIZE);
            }
        }
        m.phase_end();
    };
    let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, body);
    let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, body);
    let (replay, _) = run_tiered(&config, Some(&spec), Pipeline::Replay, body);
    let t = &per_line.tiering;
    assert!(t.epochs > 0, "epochs must fire: {t:?}");
    assert!(t.hot_set_shifts > 0, "the hot set must move: {t:?}");
    assert!(t.dwell_epochs_total > 0, "shifts close dwells: {t:?}");
    assert!(t.hot_set_pages_max > 0);
    assert!(t.mean_dwell_epochs() > 0.0);
    assert_eq!(batched, per_line, "batched dwell counters diverged");
    assert_eq!(replay, per_line, "replay dwell counters diverged");
}

/// The periodic rebalancer is deterministic across pipelines too.
#[test]
fn periodic_rebalance_is_exact_across_pipelines() {
    let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
    let spec = TieringSpec::PeriodicRebalance(PeriodicRebalance::new(2048, 2, 64));
    let body = hot_cold_body(10, None);
    let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, &body);
    let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, &body);
    let (replay, _) = run_tiered(&config, Some(&spec), Pipeline::Replay, &body);
    assert!(per_line.tiering.promotions > 0);
    assert_eq!(batched, per_line);
    assert_eq!(replay, per_line);
}

/// The tiering policy of a lockstep test placement, by index: Static,
/// hot-promote or periodic-rebalance.
fn test_policy(index: u8) -> TieringSpec {
    match index % 3 {
        0 => TieringSpec::Static,
        1 => test_hot_promote(),
        _ => TieringSpec::PeriodicRebalance(PeriodicRebalance::new(2048, 2, 64)),
    }
}

/// The message of a caught panic.
fn panic_message(err: &(dyn std::any::Any + Send)) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs `body` once on a lockstep machine with one placement per
/// `(config, policy)` pair and once directly per pair, on `pipeline`, and
/// asserts that the lockstep run panics if and only if some direct run
/// panics, and otherwise returns reports equal to the direct runs'.
/// Returns the direct reports, or `None` when the runs panicked.
fn assert_lockstep_equals_direct(
    placements: &[(MachineConfig, TieringSpec)],
    pipeline: Pipeline,
    body: impl Fn(&mut Machine),
) -> Option<Vec<dismem::sim::RunReport>> {
    let catch = |f: &dyn Fn() -> Vec<dismem::sim::RunReport>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .map_err(|err| panic_message(err.as_ref()))
    };
    let direct: Vec<_> = placements
        .iter()
        .map(|(config, spec)| catch(&|| vec![run_tiered(config, Some(spec), pipeline, &body).0]))
        .collect();
    let lockstep = catch(&|| {
        let mut m = Machine::lockstep(placements.iter().cloned());
        pipeline.configure(&mut m);
        body(&mut m);
        let reports = m.finish_lockstep();
        reports.iter().for_each(assert_counter_identities);
        reports
    });
    let direct_panics: Vec<&String> = direct.iter().filter_map(|r| r.as_ref().err()).collect();
    match lockstep {
        Err(msg) => {
            assert!(
                !direct_panics.is_empty(),
                "lockstep panicked ({msg}) but no direct run did"
            );
            assert!(
                msg.contains("simulated OOM abort"),
                "unexpected panic: {msg}"
            );
            None
        }
        Ok(reports) => {
            assert!(
                direct_panics.is_empty(),
                "direct runs panicked ({direct_panics:?}) but lockstep did not"
            );
            let direct: Vec<_> = direct.into_iter().flat_map(Result::unwrap).collect();
            assert_eq!(reports.len(), direct.len());
            for (i, (lockstep, direct)) in reports.iter().zip(&direct).enumerate() {
                assert!(
                    lockstep == direct,
                    "placement {i} differs from its direct run"
                );
            }
            Some(direct)
        }
    }
}

/// One walk serves many placements: a lockstep run of the hot/cold body at
/// four local capacities under all three policies equals the four direct
/// runs on every pipeline, migrations and spills included.
#[test]
fn lockstep_placements_equal_direct_runs() {
    let base = MachineConfig::test_config();
    let placements: Vec<(MachineConfig, TieringSpec)> =
        [(None, 0), (Some(64), 1), (Some(40), 2), (Some(16), 1)]
            .into_iter()
            .map(|(pages, policy): (Option<u64>, u8)| {
                let mut config = base.clone();
                config.local.capacity_bytes = pages.map(|p| p * PAGE_SIZE);
                (config, test_policy(policy))
            })
            .collect();
    for pipeline in [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay] {
        let reports = assert_lockstep_equals_direct(&placements, pipeline, hot_cold_body(10, None))
            .expect("no tier is bounded on both sides");
        let migrated: u64 = reports.iter().map(|r| r.tiering.migrated_pages).sum();
        assert!(migrated > 0, "the dynamic placements must migrate");
        assert!(reports[3].remote_access_ratio() > reports[0].remote_access_ratio());
    }
}

/// A placement whose pool is too small aborts the lockstep run with its
/// simulated OOM, as its direct run aborts.
#[test]
fn lockstep_run_aborts_when_one_placement_runs_out_of_memory() {
    let base = MachineConfig::test_config();
    let tight = base
        .clone()
        .with_local_capacity(16 * PAGE_SIZE)
        .with_pool_capacity(16 * PAGE_SIZE);
    let placements = [(base, TieringSpec::Static), (tight, TieringSpec::Static)];
    let outcome =
        assert_lockstep_equals_direct(&placements, Pipeline::Replay, hot_cold_body(2, None));
    assert!(outcome.is_none(), "88 pages cannot fit in 32");
}

/// What the cache walk decides in one chunk, blind to placement: flops,
/// demand lines, the L2 and prefetch counters, and the DRAM fills, demand
/// fills and writebacks summed over both tiers.
fn walk_view(c: &Counters) -> [u64; 11] {
    [
        c.flops,
        c.demand_read_lines,
        c.demand_write_lines,
        c.l2_demand_misses,
        c.l2_lines_in,
        c.pf_issued,
        c.pf_useful,
        c.useless_hwpf,
        c.dram_lines_local + c.dram_lines_pool,
        c.demand_dram_lines_local + c.demand_dram_lines_pool,
        c.writeback_lines_local + c.writeback_lines_pool,
    ]
}

/// Runs `body` on the replay pipeline at local capacities of 64, 40 and 16
/// pages and unbounded, under Static, hot-promote and periodic-rebalance, and
/// asserts that every run walks the caches as Static does at unbounded
/// capacity: the same walk view chunk by chunk, skipping chunks that carry
/// only an epoch's migration traffic, and the same replay windows. Returns
/// the reference run's windows and the pages the runs migrated.
fn assert_walk_is_tier_blind(
    name: &str,
    config: &MachineConfig,
    body: impl Fn(&mut Machine),
) -> (u64, u64) {
    let policies = [
        TieringSpec::Static,
        test_hot_promote(),
        TieringSpec::PeriodicRebalance(PeriodicRebalance::new(2048, 2, 64)),
    ];
    let mut reference: Option<(Vec<[u64; 11]>, u64)> = None;
    let mut migrated = 0;
    for capacity in [None, Some(64), Some(40), Some(16)] {
        let mut config = config.clone();
        config.local.capacity_bytes = capacity.map(|pages| pages * PAGE_SIZE);
        for spec in &policies {
            let (report, windows) = run_tiered(&config, Some(spec), Pipeline::Replay, &body);
            migrated += report.tiering.migrated_pages;
            let chunks: Vec<[u64; 11]> = report
                .timeline
                .iter()
                .map(|sample| walk_view(&sample.counters))
                .filter(|view| view.iter().any(|&n| n > 0))
                .collect();
            let Some((ref_chunks, ref_windows)) = &reference else {
                reference = Some((chunks, windows));
                continue;
            };
            let run = format!("{name}, {} at {capacity:?} local pages", spec.label());
            let diverged = chunks.iter().zip(ref_chunks).position(|(a, b)| a != b);
            assert!(
                chunks == *ref_chunks,
                "{run}: walk differs at chunk {diverged:?}"
            );
            assert_eq!(windows, *ref_windows, "{run}: replay windows");
        }
    }
    (reference.expect("at least one run").1, migrated)
}

/// The cache walk is tier-blind: for one body, every local capacity and
/// every tiering policy produce the same walk, chunk by chunk, and replay the
/// same windows. This is why a migration epoch need not reset the replay
/// engine. Each body migrates pages and replays windows. In the last one each
/// call covers two whole windows on the tiny hierarchy, so a call can end
/// while its streak replays and an epoch lands on the live replay.
#[test]
fn the_cache_walk_is_tier_blind() {
    let config = MachineConfig::test_config();
    let check = |name: &str, body: &dyn Fn(&mut Machine)| {
        let (windows, migrated) = assert_walk_is_tier_blind(name, &config, body);
        assert!(
            windows > 0 && migrated > 0,
            "{name}: {windows} windows, {migrated} pages migrated"
        );
    };
    check("mid-page splits", &hot_cold_body(10, None));
    check("whole passes", &hot_cold_calls_body(48));
    check("two-window calls", &hot_cold_calls_body(4));
}

/// The replay-proptest workload body: long bulk streams (the replay engine's
/// bread and butter) mixed with gathers, strided sweeps, scalar accesses and
/// a mid-script free, driven by a random script.
fn replay_script_body<'a>(script: &'a [(u8, u64, u64, u64, bool)]) -> impl Fn(&mut Machine) + 'a {
    move |m: &mut Machine| {
        let obj_pages = 96u64;
        let a = m.alloc("a", "prop", obj_pages * PAGE_SIZE);
        let b = m.alloc_with_policy(
            "b",
            "prop",
            obj_pages * PAGE_SIZE,
            PlacementPolicy::ForceRemote,
        );
        let temp = m.alloc("temp", "prop", 8 * PAGE_SIZE);
        m.phase_start("mixed");
        m.touch(temp, 8 * PAGE_SIZE);
        m.touch(a, obj_pages * PAGE_SIZE);
        for (i, &(op, page, len_pages, count, flag)) in script.iter().enumerate() {
            let handle = if flag { a } else { b };
            let kind = if page % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let offset = (page % obj_pages) * PAGE_SIZE;
            let len = (len_pages * PAGE_SIZE).min(obj_pages * PAGE_SIZE - offset);
            match op {
                0 | 1 => m.access_range(handle, offset, len, kind),
                2 => {
                    let offs: Vec<u64> = (0..count)
                        .map(|k| {
                            ((page + 3 * k + 7 * k * k) * 2048 + 8 * k)
                                % (obj_pages * PAGE_SIZE - 8)
                        })
                        .collect();
                    m.gather(handle, &offs, 8);
                }
                3 => {
                    let stride = 64 + (len % 1024);
                    let count = count.min((obj_pages * PAGE_SIZE - offset) / stride.max(1));
                    if count > 0 {
                        m.strided(handle, offset, count, 8, stride, kind);
                    }
                }
                4 => m.flops(len * 1000),
                #[allow(clippy::disallowed_methods, reason = "the scripts mix in scalar calls")]
                _ => m.access(handle, offset, (len % 256).max(1), kind),
            }
            if i == script.len() / 2 {
                m.free(temp);
            }
        }
        m.phase_end();
    }
}

/// Runs `body` on one pipeline with a [`FlightRecorder`] attached and
/// returns the report plus the recorder's event stream.
fn run_tiered_recorded(
    config: &MachineConfig,
    spec: &TieringSpec,
    pipeline: Pipeline,
    body: impl Fn(&mut Machine),
) -> (dismem::sim::RunReport, Vec<TraceEvent>) {
    let mut m = Machine::new(config.clone());
    pipeline.configure(&mut m);
    m.set_tiering_spec(spec);
    m.set_recorder(FlightRecorder::new());
    body(&mut m);
    let report = m.finish();
    assert_counter_identities(&report);
    let recorder = m
        .take_recorder()
        .expect("recorder installed above survives the run");
    (report, recorder.into_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Replay-on, replay-off and per-line execution of arbitrary mixed
    /// scripts with runs long enough to engage the replay engine must
    /// produce bit-identical run reports, with the prefetcher on or off.
    #[test]
    fn replay_execution_is_bit_identical(script in replay_script(), prefetch in any::<bool>()) {
        let config = MachineConfig::test_config()
            .with_local_capacity(80 * PAGE_SIZE)
            .with_prefetch(prefetch);
        // Not every random script reaches steady state; the deterministic
        // tests above pin engagement. This one pins only equivalence.
        let _ = assert_replay_bit_identical(&config, replay_script_body(&script));
    }

    /// Installing the `Static` tiering policy must be indistinguishable — to
    /// the bit, across all three pipelines — from never touching the tiering
    /// subsystem: today's first-touch pinning is the reference behaviour.
    #[test]
    fn static_tiering_is_bit_identical_to_untiered(script in replay_script()) {
        let config = MachineConfig::test_config().with_local_capacity(80 * PAGE_SIZE);
        let body = replay_script_body(&script);
        let mut reports = Vec::new();
        for pipeline in [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay] {
            for spec in [None, Some(TieringSpec::Static)] {
                reports.push(run_tiered(&config, spec.as_ref(), pipeline, &body).0);
            }
        }
        prop_assert_eq!(&reports[0].tiering, &dismem::sim::TieringReport::default());
        let (first, rest) = reports.split_first().unwrap();
        for r in rest {
            prop_assert_eq!(r, first);
        }
    }

    /// The tier-blind walk holds for arbitrary mixed scripts. Not every
    /// random script migrates; the deterministic bodies above pin that. This
    /// one pins only the equal walks.
    #[test]
    fn the_cache_walk_is_tier_blind_on_random_scripts(script in replay_script()) {
        let config = MachineConfig::test_config();
        let _ = assert_walk_is_tier_blind("random script", &config, replay_script_body(&script));
    }

    /// Dynamic tiering itself is deterministic and pipeline-independent:
    /// arbitrary scripts under an aggressive hot-promotion policy produce
    /// bit-identical reports on all three pipelines.
    #[test]
    fn hot_promote_is_bit_identical_across_pipelines(script in replay_script()) {
        let config = MachineConfig::test_config().with_local_capacity(80 * PAGE_SIZE);
        let spec = test_hot_promote();
        let body = replay_script_body(&script);
        let (per_line, _) = run_tiered(&config, Some(&spec), Pipeline::PerLine, &body);
        let (batched, _) = run_tiered(&config, Some(&spec), Pipeline::Batched, &body);
        let (replay, _) = run_tiered(&config, Some(&spec), Pipeline::Replay, &body);
        prop_assert_eq!(&batched, &per_line);
        prop_assert_eq!(&replay, &per_line);
    }

    /// The flight recorder is read-only — attaching one must not change a
    /// single report bit on any pipeline — and the *semantic* event stream
    /// (epoch closes, migrations, spills) is itself part of the equivalence
    /// contract: per-line, batched and replay runs of the same script must
    /// emit identical semantic events with identical simulated timestamps.
    /// (Replay engage/exit events are pipeline-level diagnostics and are
    /// expected to differ.)
    #[test]
    fn recording_is_invisible_and_semantic_events_are_pipeline_identical(
        script in replay_script(),
    ) {
        let config = MachineConfig::test_config().with_local_capacity(80 * PAGE_SIZE);
        let spec = test_hot_promote();
        let body = replay_script_body(&script);
        let mut semantic_streams = Vec::new();
        for pipeline in [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay] {
            let (plain, _) = run_tiered(&config, Some(&spec), pipeline, &body);
            let (recorded, events) = run_tiered_recorded(&config, &spec, pipeline, &body);
            prop_assert_eq!(&recorded, &plain, "recording perturbed the report");
            // Timestamps never run backwards within one recording.
            for w in events.windows(2) {
                prop_assert!(w[1].timestamp() >= w[0].timestamp(), "{:?}", w);
            }
            semantic_streams.push(
                events
                    .into_iter()
                    .filter(TraceEvent::is_semantic)
                    .collect::<Vec<_>>(),
            );
        }
        let (first, rest) = semantic_streams.split_first().unwrap();
        for stream in rest {
            prop_assert_eq!(stream, first, "semantic events diverged across pipelines");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A lockstep run of one to four random placements equals their direct
    /// runs, compared as full `RunReport`s, on a random pipeline: random
    /// scripts, random local capacities, sometimes a bounded pool that runs
    /// out of memory (then the lockstep run panics exactly when a direct
    /// run does), and all three tiering policies.
    #[test]
    fn lockstep_runs_equal_direct_runs(
        script in replay_script(),
        placements in prop::collection::vec((0u64..260, 0u64..800, 0u8..3), 1..5),
        pipeline in 0u8..3,
    ) {
        // Local capacity: 0 to 219 pages, or unbounded. Pool capacity: 40 to
        // 239 pages a quarter of the time, unbounded otherwise.
        let placements: Vec<(MachineConfig, TieringSpec)> = placements
            .into_iter()
            .map(|(local, pool, policy)| {
                let mut config = MachineConfig::test_config();
                config.local.capacity_bytes = (local < 220).then_some(local * PAGE_SIZE);
                config.pool.capacity_bytes = (pool < 200).then_some((pool + 40) * PAGE_SIZE);
                (config, test_policy(policy))
            })
            .collect();
        let pipeline = [Pipeline::PerLine, Pipeline::Batched, Pipeline::Replay][pipeline as usize];
        let _ = assert_lockstep_equals_direct(&placements, pipeline, replay_script_body(&script));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched line-walk fast path and the per-line reference pipeline
    /// must produce bit-identical run reports — counters, per-phase
    /// runtimes, timeline samples, placement and page histograms — for
    /// arbitrary mixes of bulk-range, gather, scatter, strided and scalar
    /// accesses.
    #[test]
    fn batched_execution_is_bit_identical_to_per_line(script in bulk_script()) {
        for big_cache in [false, true] {
            let batched = run_bulk_script(&script, true, big_cache);
            let per_line = run_bulk_script(&script, false, big_cache);
            prop_assert_eq!(batched, per_line);
        }
    }

    /// The counter identities hold for arbitrary scalar access patterns, and
    /// the timeline accounts for the whole runtime.
    #[test]
    fn machine_counter_conservation(script in access_script(), prefetch in any::<bool>()) {
        let config = MachineConfig::test_config().with_prefetch(prefetch);
        let mut m = Machine::new(config);
        let obj = m.alloc("obj", "prop", 64 * PAGE_SIZE);
        m.phase_start("p");
        for (page, len, write) in script {
            let offset = page * PAGE_SIZE;
            let len = len.min(64 * PAGE_SIZE - offset);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            #[allow(
                clippy::disallowed_methods,
                reason = "scripts drive the scalar path"
            )]
            m.access(obj, offset, len, kind);
        }
        m.phase_end();
        let report = m.finish();
        assert_counter_identities(&report);
        // Timeline durations account for the whole runtime.
        let sum: f64 = report.timeline.iter().map(|s| s.duration_s).sum();
        prop_assert!((sum - report.total_runtime_s).abs() <= 1e-9 * report.total_runtime_s.max(1e-30));
    }

    /// Re-timing under an idle profile reproduces the original runtime bit
    /// for bit, and runtime is monotone in the level of constant
    /// interference.
    #[test]
    fn retime_is_consistent_and_monotone(script in access_script(), loi_steps in 1usize..6) {
        let config = MachineConfig::test_config().with_local_capacity(8 * PAGE_SIZE);
        let mut m = Machine::new(config);
        let obj = m.alloc("obj", "prop", 64 * PAGE_SIZE);
        m.phase_start("p");
        for (page, len, write) in script {
            let offset = page * PAGE_SIZE;
            let len = len.min(64 * PAGE_SIZE - offset);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            #[allow(
                clippy::disallowed_methods,
                reason = "scripts drive the scalar path"
            )]
            m.access(obj, offset, len, kind);
        }
        m.phase_end();
        let report = m.finish();
        let idle = report.retime(&InterferenceProfile::Idle).total_runtime_s;
        prop_assert_eq!(idle.to_bits(), report.total_runtime_s.to_bits());
        let mut prev = idle;
        for i in 1..=loi_steps {
            let loi = i as f64 * 0.15;
            let t = report.retime(&InterferenceProfile::Constant(loi)).total_runtime_s;
            prop_assert!(t + 1e-15 >= prev, "runtime must not decrease with more interference");
            prev = t;
        }
    }

    /// First-touch placement never exceeds the local capacity and accounts
    /// for every touched page exactly once.
    #[test]
    fn placement_respects_capacity(
        object_pages in 1u64..48,
        local_pages in 1u64..48,
        force_remote in any::<bool>(),
    ) {
        let config = MachineConfig::test_config().with_local_capacity(local_pages * PAGE_SIZE);
        let mut m = Machine::new(config);
        let policy = if force_remote { PlacementPolicy::ForceRemote } else { PlacementPolicy::FirstTouch };
        let obj = m.alloc_with_policy("obj", "prop", object_pages * PAGE_SIZE, policy);
        m.phase_start("touch");
        m.touch(obj, object_pages * PAGE_SIZE);
        m.phase_end();
        let report = m.finish();
        prop_assert!(report.local_pages_used <= local_pages);
        prop_assert_eq!(report.local_pages_used + report.pool_pages_used, object_pages);
        if force_remote {
            prop_assert_eq!(report.local_pages_used, 0);
        }
    }

    /// Scaling curves are monotone, bounded and end at 100% of the accesses.
    #[test]
    fn scaling_curve_properties(counts in prop::collection::vec(1u64..1000, 1..200)) {
        let mut h = PageHistogram::new();
        for (page, count) in counts.iter().enumerate() {
            h.record(page as u64, *count);
        }
        let curve = h.scaling_curve(counts.len() as u64 * 2, 50);
        for w in curve.windows(2) {
            prop_assert!(w[1].access_fraction + 1e-12 >= w[0].access_fraction);
            prop_assert!(w[1].footprint_fraction >= w[0].footprint_fraction);
        }
        for p in &curve {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p.access_fraction));
        }
        prop_assert!((curve.last().unwrap().access_fraction - 1.0).abs() < 1e-9);
    }

    /// Roofline attainable performance equals min(F, B·I) and is monotone in
    /// the arithmetic intensity.
    #[test]
    fn roofline_properties(
        peak_flops in 1.0e9..1.0e12,
        bandwidth in 1.0e9..1.0e12,
        ai_a in 0.001f64..1000.0,
        ai_b in 0.001f64..1000.0,
    ) {
        let r = Roofline::new(peak_flops, bandwidth);
        let (lo, hi) = if ai_a < ai_b { (ai_a, ai_b) } else { (ai_b, ai_a) };
        prop_assert!(r.attainable(lo) <= r.attainable(hi) + 1e-6);
        prop_assert!((r.attainable(ai_a) - (bandwidth * ai_a).min(peak_flops)).abs() < 1e-3);
        prop_assert!(r.attainable(ai_a) <= peak_flops);
    }

    /// Five-number summaries are ordered and bracket every sample; quartiles
    /// agree with the percentile function.
    #[test]
    fn summary_properties(values in prop::collection::vec(-1.0e6f64..1.0e6, 1..300)) {
        let s = five_number_summary(&values);
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        for &v in &values {
            prop_assert!(v >= s.min - 1e-9 && v <= s.max + 1e-9);
        }
        prop_assert!((s.median - percentile(&values, 50.0)).abs() < 1e-9);
    }

    /// Interference schedules always report a LoI within the configured
    /// bounds, at any query time.
    #[test]
    fn interference_profile_bounds(
        epochs in prop::collection::vec((0.0f64..100.0, 0.0f64..1.0), 1..20),
        t in 0.0f64..200.0,
    ) {
        let profile = InterferenceProfile::schedule(epochs.clone());
        let loi = profile.loi_at(t);
        prop_assert!((0.0..=1.0).contains(&loi));
    }
}

/// A timing chunk from random magnitudes. `shape` picks a degenerate chunk
/// half of the time: all zero, no pool traffic, or compute-bound.
fn timing_chunk(
    shape: u8,
    (flops, local, pool, demand_local, demand_pool): (u64, u64, u64, u64, u64),
    (writeback_local, writeback_pool, migration_local, migration_pool): (u64, u64, u64, u64),
) -> Counters {
    let chunk = Counters {
        flops,
        dram_lines_local: local,
        dram_lines_pool: pool,
        demand_dram_lines_local: demand_local.min(local),
        demand_dram_lines_pool: demand_pool.min(pool),
        writeback_lines_local: writeback_local,
        writeback_lines_pool: writeback_pool,
        migration_lines_local: migration_local,
        migration_lines_pool: migration_pool,
        link_raw_bytes: (pool + writeback_pool + migration_pool) * 64 * 85 / 34,
        ..Counters::default()
    };
    match shape {
        0 => Counters::default(),
        1 => Counters {
            dram_lines_pool: 0,
            demand_dram_lines_pool: 0,
            writeback_lines_pool: 0,
            migration_lines_pool: 0,
            link_raw_bytes: 0,
            ..chunk
        },
        2 => Counters {
            flops: 1 << 50,
            ..chunk
        },
        _ => chunk,
    }
}

fn breakdown_bits(b: &TimeBreakdown) -> [u64; 6] {
    [
        b.compute_s,
        b.local_bw_s,
        b.pool_bw_s,
        b.latency_s,
        b.total_s,
        b.link_utilization,
    ]
    .map(f64::to_bits)
}

/// The timing kernel for one level of interference as a plain scalar
/// bisection that always takes all 60 steps, with no skip for an empty
/// bracket, on its own link model of `config`. Returns the breakdown and
/// whether the bracket was open.
fn reference_chunk_time(
    config: &MachineConfig,
    chunk: &Counters,
    loi: f64,
) -> (TimeBreakdown, bool) {
    let link = LinkModel::new(config.link);
    let line = config.cache.line_bytes;
    let bytes_local = (chunk.bytes_local(line) + chunk.migration_lines_local * line) as f64;
    let bytes_pool = (chunk.bytes_pool(line) + chunk.migration_lines_pool * line) as f64;
    let compute_s = chunk.flops as f64 / config.peak_flops;
    let local_bw_s = bytes_local / config.local.bandwidth_bps;
    let local_latency_total = chunk.demand_dram_lines_local as f64 * config.local.latency_s;
    let pool_demand_lines = chunk.demand_dram_lines_pool as f64;
    let raw_bytes = chunk.link_raw_bytes as f64;
    let latency_at = |t: f64| {
        let raw_rate = if t > 0.0 { raw_bytes / t } else { 0.0 };
        let utilization = link.utilization(raw_rate, loi);
        let pool_latency = link.effective_latency(config.pool.latency_s, utilization);
        let latency = (local_latency_total + pool_demand_lines * pool_latency) / config.mlp;
        (latency, utilization)
    };
    let worst_latency = link.effective_latency(config.pool.latency_s, f64::INFINITY);
    let lat_upper = (local_latency_total + pool_demand_lines * worst_latency) / config.mlp;
    let pool_bw_s = bytes_pool / link.available_data_bandwidth(config.pool.bandwidth_bps, loi);
    let t_base = compute_s.max(local_bw_s).max(pool_bw_s);
    let (mut lo, mut hi) = (t_base, t_base.max(lat_upper));
    let open = hi > 0.0 && lo < hi;
    let (mut latency_s, mut utilization) = (0.0, 0.0);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        (latency_s, utilization) = latency_at(mid);
        if t_base.max(latency_s) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if !open {
        (latency_s, utilization) = latency_at(t_base.max(1e-30));
    }
    let breakdown = TimeBreakdown {
        compute_s,
        local_bw_s,
        pool_bw_s,
        latency_s,
        total_s: t_base.max(latency_s),
        link_utilization: utilization,
    };
    (breakdown, open)
}

/// Three blocks of eight lanes on one chunk whose bracket closes where the
/// pool-bandwidth time reaches the latency bound, near LoI 0.43: one block
/// with no open bracket, which skips the bisection, one where every lane
/// bisects, and one mixing both. Every lane equals the reference.
#[test]
fn chunk_times_blocks_with_and_without_open_brackets_match_the_reference() {
    let config = MachineConfig::test_config();
    let model = TimingModel::new(config.clone());
    let chunk = Counters {
        dram_lines_pool: 1_000_000,
        demand_dram_lines_pool: 9_000,
        link_raw_bytes: 1_000_000 * 64 * 85 / 34,
        ..Counters::default()
    };
    #[rustfmt::skip]
    let blocks: [([f64; 8], &str); 3] = [
        ([0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5], "closed"),
        ([-0.5, 0.0, 0.05, 0.1, 0.2, 0.3, 0.35, 0.4], "open"),
        ([0.1, 0.42, 0.44, 0.9, 0.25, 0.6, 0.0, 1.1], "mixed"),
    ];
    let lois: Vec<f64> = blocks.iter().flat_map(|(lois, _)| *lois).collect();
    let mut out = vec![TimeBreakdown::default(); lois.len()];
    model.chunk_times(&chunk, &lois, &mut out);
    for (block, (block_lois, kind)) in blocks.iter().enumerate() {
        let open: Vec<bool> = block_lois
            .iter()
            .map(|&loi| reference_chunk_time(&config, &chunk, loi).1)
            .collect();
        let expected = match *kind {
            "closed" => !open.contains(&true),
            "open" => !open.contains(&false),
            _ => open.contains(&true) && open.contains(&false),
        };
        assert!(expected, "block {block} is not {kind}: {open:?}");
        for (lane, &loi) in block_lois.iter().enumerate() {
            let reference = breakdown_bits(&reference_chunk_time(&config, &chunk, loi).0);
            assert_eq!(
                breakdown_bits(&out[block * 8 + lane]),
                reference,
                "{kind} block, lane {lane}, LoI {loi}"
            );
            assert_eq!(breakdown_bits(&model.chunk_time(&chunk, loi)), reference);
        }
    }
}

/// A run with two phases and work outside them, under a small local tier.
fn two_phase_report(script: &[(u64, u64, bool)]) -> dismem::sim::RunReport {
    let config = MachineConfig::test_config().with_local_capacity(8 * PAGE_SIZE);
    let mut m = Machine::new(config);
    let obj = m.alloc("obj", "prop", 64 * PAGE_SIZE);
    let (first, second) = script.split_at(script.len() / 2);
    for (phase, part) in [Some("a"), Some("b"), None]
        .into_iter()
        .zip([first, second, first])
    {
        if let Some(name) = phase {
            m.phase_start(name);
        }
        for &(page, len, write) in part {
            let offset = page * PAGE_SIZE;
            let len = len.min(64 * PAGE_SIZE - offset);
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            #[allow(clippy::disallowed_methods, reason = "scripts drive the scalar path")]
            m.access(obj, offset, len, kind);
        }
        if phase.is_some() {
            m.phase_end();
        }
    }
    m.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lane of `chunk_times` equals the one-lane `chunk_time` bit for
    /// bit, whatever the lane count and the lane's place in its block, for
    /// levels of interference inside and outside [0, 1].
    #[test]
    fn chunk_times_lanes_equal_one_lane_calls(
        shape in 0u8..6,
        traffic in (0u64..1 << 34, 0u64..1 << 24, 0u64..1 << 24, 0u64..1 << 24, 0u64..1 << 24),
        background in (0u64..1 << 22, 0u64..1 << 22, 0u64..1 << 20, 0u64..1 << 20),
        lois in prop::collection::vec(-0.5f64..1.5, 20..21),
    ) {
        let model = TimingModel::new(MachineConfig::test_config());
        let chunk = timing_chunk(shape, traffic, background);
        for lanes in [1, 7, 8, 9, 20] {
            let mut out = vec![TimeBreakdown::default(); lanes];
            model.chunk_times(&chunk, &lois[..lanes], &mut out);
            for (&loi, lane) in lois.iter().zip(&out) {
                prop_assert_eq!(
                    breakdown_bits(lane),
                    breakdown_bits(&model.chunk_time(&chunk, loi)),
                    "LoI {} among {} lanes",
                    loi,
                    lanes
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `chunk_time` and every lane of `chunk_times` equal the all-steps
    /// scalar reference bit for bit, so skipping the bisection of a block
    /// with no open bracket changes no result.
    #[test]
    fn chunk_times_equal_the_reference_bisection(
        shape in 0u8..6,
        traffic in (0u64..1 << 34, 0u64..1 << 24, 0u64..1 << 24, 0u64..1 << 24, 0u64..1 << 24),
        background in (0u64..1 << 22, 0u64..1 << 22, 0u64..1 << 20, 0u64..1 << 20),
        lois in prop::collection::vec(-0.5f64..1.5, 1..21),
    ) {
        let config = MachineConfig::test_config();
        let model = TimingModel::new(config.clone());
        let chunk = timing_chunk(shape, traffic, background);
        let mut out = vec![TimeBreakdown::default(); lois.len()];
        model.chunk_times(&chunk, &lois, &mut out);
        for (&loi, lane) in lois.iter().zip(&out) {
            let reference = breakdown_bits(&reference_chunk_time(&config, &chunk, loi).0);
            prop_assert_eq!(breakdown_bits(lane), reference, "LoI {} among {} lanes", loi, lois.len());
            prop_assert_eq!(breakdown_bits(&model.chunk_time(&chunk, loi)), reference, "LoI {}", loi);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `retime_many` re-times each profile exactly as `retime` does alone:
    /// totals and phase runtimes, for mixed idle, constant and scheduled
    /// profiles.
    #[test]
    fn retime_many_equals_retime_per_profile(
        script in access_script(),
        kinds in prop::collection::vec((0u8..3, 0.0f64..1.0, 1usize..6), 1..24),
    ) {
        let report = two_phase_report(&script);
        let runtime = report.total_runtime_s;
        let profiles: Vec<InterferenceProfile> = kinds
            .iter()
            .map(|&(kind, loi, epochs)| match kind {
                0 => InterferenceProfile::Idle,
                1 => InterferenceProfile::Constant(loi),
                _ => InterferenceProfile::schedule(
                    (0..epochs)
                        .map(|i| (runtime * i as f64 / epochs as f64, (loi * (i + 1) as f64) % 1.0))
                        .collect(),
                ),
            })
            .collect();
        let many = report.retime_many(&profiles);
        prop_assert_eq!(many.len(), profiles.len());
        for (run, profile) in many.iter().zip(&profiles) {
            let alone = report.retime(profile);
            prop_assert_eq!(run.total_runtime_s.to_bits(), alone.total_runtime_s.to_bits());
            prop_assert_eq!(
                run.phase_runtimes_s.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                alone.phase_runtimes_s.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
            );
        }
        prop_assert!(report.retime_many(&[]).is_empty());
    }
}

/// A run with no timeline re-times to zero under every profile, with one
/// zeroed runtime per phase.
#[test]
fn retime_many_of_an_empty_timeline() {
    let mut m = Machine::new(MachineConfig::test_config());
    m.phase_start("empty");
    m.phase_end();
    let report = m.finish();
    assert!(report.timeline.is_empty());
    let profiles = [
        InterferenceProfile::Idle,
        InterferenceProfile::Constant(0.4),
        InterferenceProfile::schedule(vec![(0.0, 0.2), (1e-3, 0.6)]),
    ];
    let many = report.retime_many(&profiles);
    assert_eq!(many.len(), profiles.len());
    for run in &many {
        assert_eq!(run.total_runtime_s, 0.0);
        assert_eq!(run.phase_runtimes_s, vec![0.0; report.phases.len()]);
    }
    assert!(report.retime_many(&[]).is_empty());
}
