//! An independent reference for the simulated cache hierarchy.
//!
//! The per-line, batched and replay pipelines all walk the same
//! `SetAssocCache`, so their bit-identity cannot see a fault in its
//! replacement order. This file models L2 and LLC the textbook way instead:
//! each way carries the tick of its last use from one clock per cache, a
//! fill takes the first invalid way or else evicts the way with the
//! smallest tick, and a dirty L2 victim is written into the LLC. A proptest
//! compares the model with the per-line pipeline, prefetcher off, on random
//! read/write line traces that crowd a few sets of the tiny hierarchy.

use dismem::sim::{CacheParams, Counters, Machine, MachineConfig};
use dismem::trace::{AccessKind, MemoryEngine, CACHE_LINE_SIZE, PAGE_SIZE};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    tag: u64,
    dirty: bool,
    stamp: u64,
}

/// One set-associative cache with a global LRU clock.
struct StampCache {
    sets: u64,
    ways: usize,
    lines: Vec<Way>,
    clock: u64,
}

impl StampCache {
    fn new(bytes: u64, ways: u32) -> Self {
        let ways = ways as usize;
        let sets = bytes / (CACHE_LINE_SIZE * ways as u64);
        Self {
            sets,
            ways,
            lines: vec![Way::default(); sets as usize * ways],
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut [Way] {
        let start = (line % self.sets) as usize * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    /// On a hit, stamps the way with a fresh tick and returns it.
    fn lookup(&mut self, line: u64) -> Option<&mut Way> {
        self.clock += 1;
        let clock = self.clock;
        let way = self
            .set(line)
            .iter_mut()
            .find(|w| w.valid && w.tag == line)?;
        way.stamp = clock;
        Some(way)
    }

    /// Fills `line` into the first invalid way, or else over the way with
    /// the smallest stamp, and returns the valid way it evicted.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<Way> {
        self.clock += 1;
        let stamp = self.clock;
        let set = self.set(line);
        let slot = match set.iter().position(|w| !w.valid) {
            Some(invalid) => invalid,
            None => (0..set.len()).min_by_key(|&i| set[i].stamp).unwrap(),
        };
        let victim = set[slot];
        set[slot] = Way {
            valid: true,
            tag: line,
            dirty,
            stamp,
        };
        victim.valid.then_some(victim)
    }
}

/// The counters the model predicts; every line is local.
#[derive(Debug, Default, PartialEq)]
struct Expected {
    l2_demand_misses: u64,
    l2_lines_in: u64,
    demand_dram_lines: u64,
    dram_lines: u64,
    writeback_lines: u64,
}

/// L2 over LLC, without a prefetcher.
struct Hierarchy {
    l2: StampCache,
    llc: StampCache,
    expected: Expected,
}

impl Hierarchy {
    fn new(params: &CacheParams) -> Self {
        Self {
            l2: StampCache::new(params.l2_bytes, params.l2_ways),
            llc: StampCache::new(params.llc_bytes, params.llc_ways),
            expected: Expected::default(),
        }
    }

    fn access(&mut self, line: u64, write: bool) {
        if let Some(way) = self.l2.lookup(line) {
            way.dirty |= write;
            return;
        }
        let e = &mut self.expected;
        e.l2_demand_misses += 1;
        e.l2_lines_in += 1;
        if self.llc.lookup(line).is_none() {
            e.demand_dram_lines += 1;
            e.dram_lines += 1;
            if self.llc.fill(line, false).is_some_and(|v| v.dirty) {
                e.writeback_lines += 1;
            }
        }
        let Some(victim) = self.l2.fill(line, write) else {
            return;
        };
        if !victim.dirty {
            return;
        }
        match self.llc.lookup(victim.tag) {
            Some(way) => way.dirty = true,
            None => {
                if self.llc.fill(victim.tag, true).is_some_and(|v| v.dirty) {
                    self.expected.writeback_lines += 1;
                }
            }
        }
    }
}

/// Runs `trace` (line offsets into one object, write flags) one line per
/// call through the per-line pipeline with the prefetcher off and an
/// unbounded local tier.
fn simulate(config: MachineConfig, trace: &[(u64, bool)]) -> Counters {
    assert!(config.local.capacity_bytes.is_none() && !config.prefetch.enabled);
    let mut m = Machine::new(config);
    m.set_batched_access(false);
    let lines = trace.iter().map(|&(line, _)| line + 1).max().unwrap_or(1);
    let bytes = (lines * CACHE_LINE_SIZE).div_ceil(PAGE_SIZE) * PAGE_SIZE;
    let obj = m.alloc("trace", "cache_oracle", bytes);
    m.phase_start("trace");
    for &(line, write) in trace {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        m.access_range(obj, line * CACHE_LINE_SIZE, CACHE_LINE_SIZE, kind);
    }
    m.phase_end();
    m.finish().total
}

/// Line offsets crowded into a few sets: `(set, alias, write)` becomes line
/// `set + alias * llc_sets`, so the aliases of one set share both its LLC
/// set and its L2 set, and twenty of them overflow either.
fn conflict_trace() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec((0u64..6, 0u64..20, any::<bool>()), 1..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-line pipeline counts the misses, fills and writebacks of a
    /// stamp-based LRU model of the same hierarchy.
    #[test]
    fn per_line_pipeline_matches_a_stamp_based_lru_model(steps in conflict_trace()) {
        let config = MachineConfig::test_config().with_prefetch(false);
        let llc_sets = config.cache.llc_sets() as u64;
        let trace: Vec<(u64, bool)> = steps
            .iter()
            .map(|&(set, alias, write)| (set + alias * llc_sets, write))
            .collect();
        let mut model = Hierarchy::new(&config.cache);
        for &(line, write) in &trace {
            model.access(line, write);
        }
        let t = simulate(config, &trace);
        let simulated = Expected {
            l2_demand_misses: t.l2_demand_misses,
            l2_lines_in: t.l2_lines_in,
            demand_dram_lines: t.demand_dram_lines_local,
            dram_lines: t.dram_lines_local,
            writeback_lines: t.writeback_lines_local,
        };
        prop_assert_eq!(simulated, model.expected);
    }
}

/// The conflict traces reach every path the model has: L2 misses that the
/// LLC serves, dirty L2 victims that hit in the LLC, and dirty LLC victims
/// written back to DRAM.
#[test]
fn a_conflict_trace_exercises_llc_hits_and_writebacks() {
    let config = MachineConfig::test_config().with_prefetch(false);
    let llc_sets = config.cache.llc_sets() as u64;
    // Write six aliases of one set (more than L2's four ways, fewer than
    // the LLC's eight), read them again, then read sixteen more.
    let trace: Vec<(u64, bool)> = (0..6)
        .map(|alias| (alias, true))
        .chain((0..22).map(|alias| (alias, false)))
        .map(|(alias, write)| (alias * llc_sets, write))
        .collect();
    let mut model = Hierarchy::new(&config.cache);
    for &(line, write) in &trace {
        model.access(line, write);
    }
    let e = &model.expected;
    assert!(e.demand_dram_lines < e.l2_demand_misses, "{e:?}");
    assert!(e.writeback_lines > 0, "{e:?}");
    let t = simulate(config, &trace);
    assert_eq!(
        (
            t.l2_demand_misses,
            t.dram_lines_local,
            t.writeback_lines_local
        ),
        (e.l2_demand_misses, e.dram_lines, e.writeback_lines)
    );
}
