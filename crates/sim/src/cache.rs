//! Set-associative cache hierarchy (L2 + shared LLC) with prefetch-aware
//! accounting.
//!
//! The hierarchy produces the counter set of the paper's Level-1 profiling:
//! `L2_LINES_IN`, prefetch requests, `USELESS_HWPF`, demand misses, and the
//! DRAM fill/writeback events that the [`crate::Machine`] routes to memory
//! tiers.
//!
//! Each set keeps its lines in recency order, most recently used first, as
//! one packed `u64` per way (`tag << 3 | DIRTY | PREFETCHED | USED`), with
//! its empty ways at the tail. A hit moves its line to the front; an insert
//! shifts the set back by one way and evicts the last line. So the victim is
//! always the least recently used line, and a set fills its empty ways
//! before it evicts. Hits, victims and flags depend on this order alone,
//! which lets the replay engine compare two cache states way by way (see
//! `crate::replay`).
//!
//! A hierarchy lives for one run. It is built from the machine
//! configuration with the prefetcher on or off for the whole run (the
//! paper's Level-1 profile is one run of each), its replay switch is set
//! before the first access, and it is never reset: no setting changes
//! mid-run.

use crate::config::CacheParams;
use crate::counters::Counters;
use crate::prefetch::StreamPrefetcher;

/// Consumer of DRAM transactions produced by the cache walk: requests that
/// reached DRAM and must be routed to a memory tier.
///
/// Every pipeline hands each transaction to a sink the moment it is
/// produced, in walk order, which lets the machine tally tiers and counters
/// inline; the per-line reference pipeline flushes its sink after every
/// line.
pub(crate) trait DramSink {
    /// Accepts one DRAM transaction against cache line `line_addr` (a line
    /// index, not a byte address).
    fn event(&mut self, line_addr: u64, kind: DramEventKind);

    /// Accepts `count` DRAM transactions of `kind` against cache lines in the
    /// page containing `line_addr` (the replay engine aggregates a window's
    /// transactions per page before handing them over, so a sink passed to
    /// [`CacheSim::demand_access_range`] must account DRAM traffic at page
    /// granularity). The default expands to `count` single events at
    /// `line_addr`, which is only page-exact.
    fn bulk_event(&mut self, line_addr: u64, kind: DramEventKind, count: u64) {
        for _ in 0..count {
            self.event(line_addr, kind);
        }
    }
}

/// Kind of DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum DramEventKind {
    /// Line fill triggered by a demand miss: its latency is exposed to the
    /// core (up to the available memory-level parallelism).
    DemandFill,
    /// Line fill triggered by the hardware prefetcher: latency hidden.
    PrefetchFill,
    /// Dirty line written back on eviction.
    Writeback,
}

/// Flag bits of a packed line; its tag sits above them.
const FLAG_BITS: u32 = 3;
const DIRTY: u64 = 0b100;
const PREFETCHED: u64 = 0b010;
const USED: u64 = 0b001;

/// An empty way. Its tag bits are all ones, a line address no byte address
/// reaches, so no lookup ever matches it.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Packs a freshly inserted line: a prefetched line starts unused, a demand
/// line used.
pub(crate) fn packed(tag: u64, dirty: bool, prefetched: bool) -> u64 {
    let dirty = if dirty { DIRTY } else { 0 };
    let state = if prefetched { PREFETCHED } else { USED };
    tag << FLAG_BITS | dirty | state
}

fn tag(line: u64) -> u64 {
    line >> FLAG_BITS
}

fn is_dirty(line: u64) -> bool {
    line & DIRTY != 0
}

fn is_unused_prefetch(line: u64) -> bool {
    line & (PREFETCHED | USED) == PREFETCHED
}

/// `line` with its tag advanced by `lines` line addresses; an empty way
/// stays empty. A set shifted by a replay window is its lines shifted way by
/// way, in the same order.
pub(crate) fn shifted(line: u64, lines: u64) -> u64 {
    if line == EMPTY {
        EMPTY
    } else {
        line + (lines << FLAG_BITS)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (all shipped
    /// configurations): the set index masks instead of dividing.
    set_mask: Option<usize>,
    /// `sets * ways` packed lines, set after set, each set most recently
    /// used first with its empty ways last.
    pub(crate) lines: Vec<u64>,
}

impl SetAssocCache {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        Self {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            lines: vec![EMPTY; sets * ways],
        }
    }

    /// Where the ways of the set `line_addr` maps to start in `lines`.
    #[inline]
    fn set_start(&self, line_addr: u64) -> usize {
        let set = match self.set_mask {
            Some(mask) => (line_addr as usize) & mask,
            None => (line_addr as usize) % self.sets,
        };
        set * self.ways
    }

    /// The ways of the set `line_addr` maps to, most recently used first.
    #[inline]
    fn set_mut(&mut self, line_addr: u64) -> &mut [u64] {
        let start = self.set_start(line_addr);
        &mut self.lines[start..start + self.ways]
    }

    /// Number of sets.
    pub(crate) fn set_count(&self) -> usize {
        self.sets
    }

    /// Overwrites the whole cache with a snapshot of `lines` whose tags are
    /// advanced by `tag_shift` lines, in the same recency order: the state
    /// the cache would hold had it walked the shifted traffic exactly.
    pub(crate) fn restore_shifted(&mut self, snap_lines: &[u64], tag_shift: u64) {
        debug_assert_eq!(snap_lines.len(), self.lines.len());
        for (slot, &snap) in self.lines.iter_mut().zip(snap_lines) {
            *slot = shifted(snap, tag_shift);
        }
    }

    /// Looks up a line in one pass over its set, moving every line it
    /// passes back one way. A hit moves the line to the front and returns
    /// it. A miss has shifted the whole set: the new line, packed from
    /// `dirty` and `prefetched`, takes the front, and the least recently
    /// used line, if the set was full, is returned evicted.
    #[inline]
    fn fill_or_hit(
        &mut self,
        line_addr: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Result<&mut u64, Option<u64>> {
        let set = self.set_mut(line_addr);
        let mut carry = packed(line_addr, dirty, prefetched);
        for way in 0..set.len() {
            let line = std::mem::replace(&mut set[way], carry);
            if tag(line) == line_addr {
                set[0] = line;
                return Ok(&mut set[0]);
            }
            carry = line;
        }
        Err((carry != EMPTY).then_some(carry))
    }

    /// Whether a line is present, leaving the recency order alone.
    fn contains(&self, line_addr: u64) -> bool {
        let start = self.set_start(line_addr);
        self.lines[start..start + self.ways]
            .iter()
            .any(|&l| tag(l) == line_addr)
    }

    /// Inserts a line the set does not hold at its front, returning the
    /// least recently used line if the set was full and evicted it.
    #[inline]
    fn insert(&mut self, line_addr: u64, dirty: bool, prefetched: bool) -> Option<u64> {
        let mut carry = packed(line_addr, dirty, prefetched);
        for slot in self.set_mut(line_addr) {
            carry = std::mem::replace(slot, carry);
        }
        (carry != EMPTY).then_some(carry)
    }
}

/// The simulated two-level cache hierarchy with an L2 stream prefetcher.
#[derive(Debug, Clone)]
pub struct CacheSim {
    pub(crate) l2: SetAssocCache,
    pub(crate) llc: SetAssocCache,
    pub(crate) prefetcher: StreamPrefetcher,
    prefetch_buf: Vec<u64>,
    /// Steady-state page-replay engine (see `crate::replay`).
    pub(crate) replay: crate::replay::ReplayEngine,
}

impl CacheSim {
    /// Creates the hierarchy from cache and prefetch parameters.
    pub fn new(params: CacheParams, prefetcher: StreamPrefetcher) -> Self {
        let l2 = SetAssocCache::new(params.l2_sets(), params.l2_ways as usize);
        let llc = SetAssocCache::new(params.llc_sets(), params.llc_ways as usize);
        let replay =
            crate::replay::ReplayEngine::new(l2.set_count() as u64, llc.set_count() as u64);
        Self {
            l2,
            llc,
            prefetcher,
            prefetch_buf: Vec::with_capacity(8),
            replay,
        }
    }

    /// Enables or disables the steady-state page-replay engine (enabled by
    /// default). Only [`crate::Machine::set_replay`] calls it, before the
    /// first access.
    pub(crate) fn set_replay_enabled(&mut self, enabled: bool) {
        self.replay.set_enabled(enabled);
    }

    /// Total number of whole windows applied by the replay engine so far
    /// (each window covers `CacheSim::replay_window_pages` pages). Zero means
    /// replay never engaged.
    pub fn replay_windows(&self) -> u64 {
        self.replay.windows_replayed_total
    }

    /// Pages per replay window for this cache geometry.
    pub fn replay_window_pages(&self) -> u64 {
        self.replay.window_pages
    }

    /// Performs one demand access to cache line `line_addr`.
    ///
    /// Updates `counters` and hands any DRAM transactions (fills and
    /// writebacks, including those triggered by prefetches) to `sink`, in
    /// order. The per-line reference pipeline calls it once per line with
    /// the machine's sink, which it flushes after every line; the batched
    /// walk calls it through [`CacheSim::walk_lines_exact`]. It never
    /// consults the replay engine.
    pub(crate) fn demand_access<S: DramSink>(
        &mut self,
        line_addr: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        if is_write {
            counters.demand_write_lines += 1;
        } else {
            counters.demand_read_lines += 1;
        }

        match self.l2.fill_or_hit(line_addr, is_write, false) {
            Ok(line) => {
                let first_use_of_prefetch = is_unused_prefetch(*line);
                if first_use_of_prefetch {
                    *line |= USED;
                    counters.pf_useful += 1;
                }
                if is_write {
                    *line |= DIRTY;
                }
                if first_use_of_prefetch {
                    self.prefetcher.feedback(true);
                }
            }
            Err(victim) => {
                // The LLC fill touches neither L2 nor the counters, so it
                // may follow the L2 insert that already took place.
                counters.l2_demand_misses += 1;
                counters.l2_lines_in += 1;
                self.fill_from_below(line_addr, true, sink);
                self.retire_l2_victim(victim, counters, sink);
            }
        }

        // Train the prefetcher on the demand stream and issue prefetches.
        let mut buf = std::mem::take(&mut self.prefetch_buf);
        buf.clear();
        self.prefetcher.observe(line_addr, &mut buf);
        for &pf_addr in &buf {
            if self.l2.contains(pf_addr) {
                continue;
            }
            counters.pf_issued += 1;
            counters.l2_lines_in += 1;
            self.fill_from_below(pf_addr, false, sink);
            let victim = self.l2.insert(pf_addr, false, true);
            self.retire_l2_victim(victim, counters, sink);
        }
        self.prefetch_buf = buf;
    }

    /// Performs demand accesses to the contiguous run of `line_count` cache
    /// lines starting at `first_line`, in ascending order.
    ///
    /// Bit-identical to calling [`CacheSim::demand_access`] once per line,
    /// but long sequential streams are handed to the steady-state page-replay
    /// engine, which skips the set scans entirely for whole pages whose
    /// behaviour it has proven periodic (see `crate::replay`). Replayed
    /// windows reach the sink through [`DramSink::bulk_event`].
    pub(crate) fn demand_access_range<S: DramSink>(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        if line_count == 0 {
            return;
        }
        if self.replay.enabled && !self.note_scattered_call(first_line, line_count, is_write) {
            self.walk_with_replay(first_line, line_count, is_write, counters, sink);
            return;
        }
        self.walk_lines_exact(first_line, line_count, is_write, counters, sink);
    }

    /// The exact line walk: one [`CacheSim::demand_access`] per line, every
    /// DRAM transaction handed to the sink in order. This is the reference
    /// the replay engine fingerprints.
    pub(crate) fn walk_lines_exact<S: DramSink>(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        for line_addr in first_line..first_line + line_count {
            self.demand_access(line_addr, is_write, counters, sink);
        }
    }

    /// Brings a line into the LLC from DRAM unless the LLC holds it.
    fn fill_from_below<S: DramSink>(&mut self, line_addr: u64, demand: bool, sink: &mut S) {
        let Err(victim) = self.llc.fill_or_hit(line_addr, false, !demand) else {
            return;
        };
        sink.event(
            line_addr,
            if demand {
                DramEventKind::DemandFill
            } else {
                DramEventKind::PrefetchFill
            },
        );
        if let Some(victim) = victim.filter(|&v| is_dirty(v)) {
            sink.event(tag(victim), DramEventKind::Writeback);
        }
    }

    /// Handles the line an L2 insert evicted: useless-prefetch counting and
    /// the dirty writeback into the LLC, whose own dirty victim goes to
    /// DRAM.
    fn retire_l2_victim<S: DramSink>(
        &mut self,
        victim: Option<u64>,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        let Some(victim) = victim else {
            return;
        };
        if is_unused_prefetch(victim) {
            counters.useless_hwpf += 1;
            self.prefetcher.feedback(false);
        }
        if is_dirty(victim) {
            match self.llc.fill_or_hit(tag(victim), true, false) {
                Ok(llc_line) => *llc_line |= DIRTY,
                Err(Some(llc_victim)) if is_dirty(llc_victim) => {
                    sink.event(tag(llc_victim), DramEventKind::Writeback);
                }
                Err(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchParams;

    /// The test sink: every transaction, in the order the walk hands it over.
    impl DramSink for Vec<(u64, DramEventKind)> {
        fn event(&mut self, line_addr: u64, kind: DramEventKind) {
            self.push((line_addr, kind));
        }
    }

    fn sim(prefetch: bool) -> CacheSim {
        let params = CacheParams::tiny();
        let pf = StreamPrefetcher::new(PrefetchParams {
            enabled: prefetch,
            degree: 2,
            trigger: 2,
            max_streams: 8,
        });
        CacheSim::new(params, pf)
    }

    /// The tags of a one-set cache, most recently used first; `None` marks
    /// an empty way.
    fn recency(c: &SetAssocCache) -> Vec<Option<u64>> {
        c.lines
            .iter()
            .map(|&l| (l != EMPTY).then(|| tag(l)))
            .collect()
    }

    #[test]
    fn a_set_fills_its_empty_ways_before_it_evicts() {
        let mut c = SetAssocCache::new(1, 4);
        assert_eq!(recency(&c), vec![None; 4]);
        for t in 0..2 {
            assert_eq!(c.insert(t, false, false), None, "way {t} was empty");
        }
        for t in 2..4 {
            assert_eq!(
                c.fill_or_hit(t, false, false),
                Err(None),
                "way {t} was empty"
            );
        }
        assert_eq!(recency(&c), vec![Some(3), Some(2), Some(1), Some(0)]);
        let victim = c.insert(4, false, false).expect("a full set evicts");
        assert_eq!(tag(victim), 0);
    }

    #[test]
    fn a_hit_moves_its_line_to_the_front_and_contains_does_not() {
        let mut c = SetAssocCache::new(1, 4);
        for t in 0..4 {
            c.insert(t, false, false);
        }
        assert!(c.contains(1));
        assert_eq!(recency(&c), vec![Some(3), Some(2), Some(1), Some(0)]);
        let line = c.fill_or_hit(1, false, false).expect("line 1 is cached");
        *line |= DIRTY;
        assert_eq!(recency(&c), vec![Some(1), Some(3), Some(2), Some(0)]);
        assert!(is_dirty(c.lines[0]), "the returned line is the moved one");
        assert!(c.fill_or_hit(1, false, false).is_ok());
        assert_eq!(recency(&c), vec![Some(1), Some(3), Some(2), Some(0)]);
    }

    #[test]
    fn the_victim_is_the_least_recently_used_line() {
        let mut c = SetAssocCache::new(1, 4);
        for t in 0..4 {
            c.insert(t, t == 2, t == 3);
        }
        // Use lines 0 and 1 again: line 2, inserted after them, is now the
        // least recently used, and line 3 the next.
        assert!(c.fill_or_hit(0, false, false).is_ok());
        assert!(c.fill_or_hit(1, false, false).is_ok());
        let victim = c.fill_or_hit(4, false, false).expect_err("a miss");
        let victim = victim.expect("a full set evicts");
        assert_eq!(tag(victim), 2);
        assert!(is_dirty(victim));
        let victim = c.insert(5, false, false).expect("a full set evicts");
        assert_eq!(tag(victim), 3);
        assert!(is_unused_prefetch(victim));
        assert_eq!(recency(&c), vec![Some(5), Some(4), Some(1), Some(0)]);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        c.demand_access(42, false, &mut counters, &mut dram);
        assert_eq!(counters.l2_demand_misses, 1);
        assert_eq!(dram.len(), 1);
        assert_eq!(dram[0].1, DramEventKind::DemandFill);
        c.demand_access(42, false, &mut counters, &mut dram);
        assert_eq!(counters.l2_demand_misses, 1, "second access must hit");
        assert_eq!(counters.demand_read_lines, 2);
    }

    #[test]
    fn sequential_stream_generates_prefetch_fills() {
        let mut c = sim(true);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        for line in 0..16u64 {
            c.demand_access(line, false, &mut counters, &mut dram);
        }
        assert!(counters.pf_issued > 0, "stream should trigger prefetches");
        assert!(counters.pf_useful > 0, "prefetched lines should be used");
        assert!(
            counters.prefetch_coverage() > 0.3,
            "coverage too low: {}",
            counters.prefetch_coverage()
        );
        // Lines-in conservation: fills = demand misses + prefetches.
        assert_eq!(
            counters.l2_lines_in,
            counters.l2_demand_misses + counters.pf_issued
        );
    }

    #[test]
    fn random_accesses_have_no_prefetch_benefit() {
        let mut c = sim(true);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        // Stride of 3 pages defeats the within-page streamer.
        for i in 0..200u64 {
            c.demand_access(i * 192 + 7, false, &mut counters, &mut dram);
        }
        assert_eq!(counters.pf_issued, 0);
        assert_eq!(counters.prefetch_coverage(), 0.0);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        // Write far more lines than the tiny hierarchy can hold, mapping to
        // the same sets repeatedly, to force dirty evictions all the way out.
        for i in 0..20_000u64 {
            c.demand_access(i, true, &mut counters, &mut dram);
        }
        assert!(
            dram.iter().any(|e| e.1 == DramEventKind::Writeback),
            "expected at least one writeback to DRAM"
        );
    }

    #[test]
    fn useless_prefetches_are_counted_on_eviction() {
        let mut c = sim(true);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        // Trigger a stream, then jump away so the prefetched lines are never
        // used and eventually evicted by unrelated traffic.
        for line in 0..8u64 {
            c.demand_access(line, false, &mut counters, &mut dram);
        }
        for i in 0..50_000u64 {
            c.demand_access(1_000_000 + i * 3, false, &mut counters, &mut dram);
        }
        assert!(counters.pf_issued > 0);
        assert!(
            counters.useless_hwpf > 0,
            "unused prefetched lines must be counted useless on eviction"
        );
        assert!(counters.prefetch_accuracy() < 1.0);
    }

    #[test]
    fn llc_absorbs_l2_capacity_misses() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        // Working set larger than L2 (128 lines) but smaller than LLC (1024):
        // first sweep fills caches, second sweep should be served by LLC with
        // no additional DRAM fills.
        let lines = 512u64;
        for l in 0..lines {
            c.demand_access(l, false, &mut counters, &mut dram);
        }
        let dram_after_first = dram.len();
        for l in 0..lines {
            c.demand_access(l, false, &mut counters, &mut dram);
        }
        let new_dram = dram.len() - dram_after_first;
        assert!(
            new_dram < dram_after_first / 4,
            "second sweep should mostly hit in LLC ({new_dram} new DRAM fills)"
        );
    }

    #[test]
    fn prefetch_disabled_no_prefetch_counters() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        for line in 0..64u64 {
            c.demand_access(line, false, &mut counters, &mut dram);
        }
        assert_eq!(counters.pf_issued, 0);
        assert_eq!(counters.l2_lines_in, counters.l2_demand_misses);
    }
}
