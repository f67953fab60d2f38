//! Set-associative cache hierarchy (L2 + shared LLC) with prefetch-aware
//! accounting.
//!
//! The hierarchy produces the counter set of the paper's Level-1 profiling:
//! `L2_LINES_IN`, prefetch requests, `USELESS_HWPF`, demand misses, and the
//! DRAM fill/writeback events that the [`crate::Machine`] routes to memory
//! tiers.

use crate::config::CacheParams;
use crate::counters::Counters;
use crate::prefetch::StreamPrefetcher;
use serde::{Deserialize, Serialize};

/// Level of the memory hierarchy that served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryLevel {
    /// Served from the L2 cache.
    L2,
    /// Served from the last-level cache.
    Llc,
    /// Served from a memory tier (DRAM, local or pool).
    Dram,
}

/// A request that reached DRAM and must be routed to a memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramEvent {
    /// Cache-line address (line index, not byte address).
    pub line_addr: u64,
    /// What kind of DRAM transaction this is.
    pub kind: DramEventKind,
}

/// Consumer of DRAM transactions produced by the batched cache walk.
///
/// The per-line reference pipeline materializes [`DramEvent`]s into a queue
/// and drains it; the batched pipeline hands each transaction to a sink the
/// moment it is produced (same order, no queue), which lets the machine
/// tally tiers and counters inline.
pub trait DramSink {
    /// Accepts one DRAM transaction.
    fn event(&mut self, line_addr: u64, kind: DramEventKind);

    /// Accepts `count` DRAM transactions of `kind` against cache lines in the
    /// page containing `line_addr` (the replay engine aggregates a window's
    /// transactions per page before handing them over). The default expands
    /// to `count` single events at `line_addr`, which is only page-exact —
    /// sinks that return `true` from [`DramSink::supports_replay`] must
    /// override this with genuinely page-granular accounting.
    fn bulk_event(&mut self, line_addr: u64, kind: DramEventKind, count: u64) {
        for _ in 0..count {
            self.event(line_addr, kind);
        }
    }

    /// Whether this sink accounts DRAM traffic at page granularity, so that
    /// [`DramSink::bulk_event`] is exactly equivalent to the individual
    /// events it aggregates. Only then may the cache engage the steady-state
    /// replay engine; the default (`false`) keeps replay off.
    fn supports_replay(&self) -> bool {
        false
    }
}

impl DramSink for Vec<DramEvent> {
    fn event(&mut self, line_addr: u64, kind: DramEventKind) {
        self.push(DramEvent { line_addr, kind });
    }
}

/// Kind of DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramEventKind {
    /// Line fill triggered by a demand miss: its latency is exposed to the
    /// core (up to the available memory-level parallelism).
    DemandFill,
    /// Line fill triggered by the hardware prefetcher: latency hidden.
    PrefetchFill,
    /// Dirty line written back on eviction.
    Writeback,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheLine {
    pub(crate) tag: u64,
    pub(crate) valid: bool,
    pub(crate) dirty: bool,
    pub(crate) prefetched: bool,
    pub(crate) used: bool,
    pub(crate) stamp: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two: the batched fast path masks
    /// instead of dividing (`None` falls back to the modulo used by the
    /// per-line reference path — both compute the same set index).
    set_mask: Option<usize>,
    pub(crate) lines: Vec<CacheLine>,
    pub(crate) clock: u64,
}

struct Evicted {
    tag: u64,
    dirty: bool,
    useless_prefetch: bool,
}

/// Result of [`SetAssocCache::fill_or_hit`].
enum FillOutcome {
    /// The line was already present (LRU refreshed, optionally dirtied).
    Hit,
    /// The line was inserted, evicting the carried victim if any.
    Inserted(Option<Evicted>),
}

impl SetAssocCache {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        Self {
            sets,
            ways,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            lines: vec![CacheLine::default(); sets * ways],
            clock: 0,
        }
    }

    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        // Mask when the set count is a power of two (all shipped
        // configurations), modulo otherwise — same index either way.
        let set = match self.set_mask {
            Some(mask) => (line_addr as usize) & mask,
            None => (line_addr as usize) % self.sets,
        };
        let start = set * self.ways;
        start..start + self.ways
    }

    /// Combined lookup + insert-on-miss in a single set scan, used by the
    /// batched pipeline where a miss is the common case (LLC fills on a
    /// stream): the victim falls out of the same pass that proves absence.
    /// Clock/stamp evolution is exactly lookup-then-insert: one tick for the
    /// lookup, a second for the insert when it happens.
    #[inline]
    fn fill_or_hit(
        &mut self,
        line_addr: u64,
        mark_dirty_on_hit: bool,
        insert_dirty: bool,
        insert_prefetched: bool,
    ) -> FillOutcome {
        self.clock += 1;
        let lookup_clock = self.clock;
        let start = self.set_range(line_addr).start;
        let ways = self.ways;
        let mut first_invalid = None;
        let mut victim_idx = 0usize;
        let mut victim_stamp = u64::MAX;
        for i in 0..ways {
            let l = &mut self.lines[start + i];
            if l.valid {
                if l.tag == line_addr {
                    l.stamp = lookup_clock;
                    if mark_dirty_on_hit {
                        l.dirty = true;
                    }
                    return FillOutcome::Hit;
                }
                if first_invalid.is_none() && l.stamp < victim_stamp {
                    victim_stamp = l.stamp;
                    victim_idx = i;
                }
            } else if first_invalid.is_none() {
                first_invalid = Some(i);
            }
        }
        self.clock += 1;
        let insert_clock = self.clock;
        let slot = start + first_invalid.unwrap_or(victim_idx);
        let victim = self.lines[slot];
        let evicted = if victim.valid {
            Some(Evicted {
                tag: victim.tag,
                dirty: victim.dirty,
                useless_prefetch: victim.prefetched && !victim.used,
            })
        } else {
            None
        };
        self.lines[slot] = CacheLine {
            tag: line_addr,
            valid: true,
            dirty: insert_dirty,
            prefetched: insert_prefetched,
            used: !insert_prefetched,
            stamp: insert_clock,
        };
        FillOutcome::Inserted(evicted)
    }

    /// Number of sets.
    pub(crate) fn set_count(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub(crate) fn way_count(&self) -> usize {
        self.ways
    }

    /// Overwrites the full cache state from a snapshot of `lines` and
    /// `clock`, with every valid line's tag shifted forward by `tag_shift`
    /// lines and every timestamp (and the clock) by `clock_shift` ticks —
    /// the state the cache would hold had it walked the shifted traffic
    /// exactly. Snapshot slots flagged in `dormant` (lines the replayed
    /// traffic provably never touched — resident foreign state in sets the
    /// period's addresses miss) are copied verbatim instead of shifted; an
    /// empty `dormant` slice means every valid line shifts. Invalid slots
    /// keep their canonical default contents.
    pub(crate) fn restore_shifted(
        &mut self,
        snap_lines: &[CacheLine],
        snap_clock: u64,
        tag_shift: u64,
        clock_shift: u64,
        dormant: &[bool],
    ) {
        debug_assert_eq!(snap_lines.len(), self.lines.len());
        debug_assert!(dormant.is_empty() || dormant.len() == snap_lines.len());
        self.clock = snap_clock + clock_shift;
        for (i, (slot, snap)) in self.lines.iter_mut().zip(snap_lines).enumerate() {
            *slot = *snap;
            if snap.valid && dormant.get(i) != Some(&true) {
                slot.tag = snap.tag + tag_shift;
                slot.stamp = snap.stamp + clock_shift;
            }
        }
    }

    /// Looks up a line; on hit, refreshes LRU and returns a mutable reference.
    fn lookup(&mut self, line_addr: u64) -> Option<&mut CacheLine> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line_addr);
        let lines = &mut self.lines[range];
        for line in lines.iter_mut() {
            if line.valid && line.tag == line_addr {
                line.stamp = clock;
                return Some(line);
            }
        }
        None
    }

    fn contains(&self, line_addr: u64) -> bool {
        let range = self.set_range(line_addr);
        self.lines[range]
            .iter()
            .any(|l| l.valid && l.tag == line_addr)
    }

    /// Inserts a line, returning the victim if a valid line was evicted.
    fn insert(&mut self, line_addr: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line_addr);
        let lines = &mut self.lines[range];

        // Prefer an invalid way.
        let mut victim_idx = 0;
        let mut victim_stamp = u64::MAX;
        for (i, line) in lines.iter().enumerate() {
            if !line.valid {
                victim_idx = i;
                break;
            }
            if line.stamp < victim_stamp {
                victim_stamp = line.stamp;
                victim_idx = i;
            }
        }
        let victim = lines[victim_idx];
        let evicted = if victim.valid {
            Some(Evicted {
                tag: victim.tag,
                dirty: victim.dirty,
                useless_prefetch: victim.prefetched && !victim.used,
            })
        } else {
            None
        };
        lines[victim_idx] = CacheLine {
            tag: line_addr,
            valid: true,
            dirty,
            prefetched,
            used: !prefetched,
            stamp: clock,
        };
        evicted
    }
}

/// The simulated two-level cache hierarchy with an L2 stream prefetcher.
#[derive(Debug, Clone)]
pub struct CacheSim {
    params: CacheParams,
    pub(crate) l2: SetAssocCache,
    pub(crate) llc: SetAssocCache,
    pub(crate) prefetcher: StreamPrefetcher,
    prefetch_buf: Vec<u64>,
    /// Memoized prefetcher stream-entry index for the batched path; carried
    /// across calls (it is validated against the accessed page before use,
    /// so staleness only costs a rescan).
    pub(crate) stream_hint: usize,
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
            params,
            prefetch_buf: Vec::with_capacity(8),
            stream_hint: usize::MAX,
            replay,
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.params.line_bytes
    }

    /// Enables or disables the hardware prefetcher.
    pub fn set_prefetch_enabled(&mut self, enabled: bool) {
        // Prefetcher behaviour is part of the replayed fingerprint; leave
        // replay and discard detection state before changing it.
        self.replay_hard_reset();
        self.prefetcher.set_enabled(enabled);
    }

    /// Enables or disables the steady-state page-replay engine (enabled by
    /// default). Disabling mid-run first materializes any in-flight replay so
    /// the cache state stays exact.
    pub fn set_replay_enabled(&mut self, enabled: bool) {
        self.replay_hard_reset();
        self.replay.set_enabled(enabled);
    }

    /// Whether the steady-state page-replay engine is enabled.
    pub fn replay_enabled(&self) -> bool {
        self.replay.enabled
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

    /// Whether the hardware prefetcher is enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetcher.enabled()
    }

    /// Performs one demand access to cache line `line_addr`.
    ///
    /// Updates `counters` and appends any DRAM transactions (fills and
    /// writebacks, including those triggered by prefetches) to `dram_events`.
    pub fn demand_access(
        &mut self,
        line_addr: u64,
        is_write: bool,
        counters: &mut Counters,
        dram_events: &mut Vec<DramEvent>,
    ) {
        // Traffic outside `demand_access_range` invalidates the replay
        // detector's view of the cache state (single cheap branch when idle).
        if self.replay.is_active() {
            self.replay_hard_reset();
        }
        if is_write {
            counters.demand_write_lines += 1;
        } else {
            counters.demand_read_lines += 1;
        }

        if let Some(line) = self.l2.lookup(line_addr) {
            let first_use_of_prefetch = line.prefetched && !line.used;
            if first_use_of_prefetch {
                line.used = true;
                counters.pf_useful += 1;
            }
            if is_write {
                line.dirty = true;
            }
            if first_use_of_prefetch {
                self.prefetcher.feedback(true);
            }
        } else {
            counters.l2_demand_misses += 1;
            counters.l2_lines_in += 1;
            self.fill_from_below(line_addr, true, counters, dram_events);
            self.insert_l2(line_addr, is_write, false, counters, dram_events);
        }

        // Train the prefetcher on the demand stream and issue prefetches.
        self.prefetch_buf.clear();
        let mut buf = std::mem::take(&mut self.prefetch_buf);
        self.prefetcher.observe(line_addr, &mut buf);
        for &pf_addr in &buf {
            if self.l2.contains(pf_addr) {
                continue;
            }
            counters.pf_issued += 1;
            counters.l2_lines_in += 1;
            self.fill_from_below(pf_addr, false, counters, dram_events);
            self.insert_l2(pf_addr, false, true, counters, dram_events);
        }
        self.prefetch_buf = buf;
    }

    /// Performs demand accesses to the contiguous run of `line_count` cache
    /// lines starting at `first_line`, in ascending order.
    ///
    /// Bit-identical to calling [`CacheSim::demand_access`] once per line,
    /// but the per-line overheads are hoisted out of the loop, and — for
    /// page-granular sinks ([`DramSink::supports_replay`]) — long sequential
    /// streams are handed to the steady-state page-replay engine, which skips
    /// the set scans entirely for whole pages whose behaviour it has proven
    /// periodic (see `crate::replay`).
    pub fn demand_access_range<S: DramSink>(
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
        if self.replay.enabled && sink.supports_replay() {
            if !self.note_scattered_call(first_line, line_count, is_write) {
                self.walk_with_replay(first_line, line_count, is_write, counters, sink);
                return;
            }
        } else if self.replay.is_active() {
            self.replay_hard_reset();
        }
        self.walk_lines_exact(first_line, line_count, is_write, counters, sink);
    }

    /// The exact batched line walk: one combined set scan per fill, memoized
    /// prefetcher stream entry, every DRAM transaction handed to the sink in
    /// order. This is the reference the replay engine fingerprints.
    pub(crate) fn walk_lines_exact<S: DramSink>(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        let mut buf = std::mem::take(&mut self.prefetch_buf);
        let mut stream_hint = self.stream_hint;
        for line_addr in first_line..first_line + line_count {
            if is_write {
                counters.demand_write_lines += 1;
            } else {
                counters.demand_read_lines += 1;
            }

            if let Some(line) = self.l2.lookup(line_addr) {
                let first_use_of_prefetch = line.prefetched && !line.used;
                if first_use_of_prefetch {
                    line.used = true;
                    counters.pf_useful += 1;
                }
                if is_write {
                    line.dirty = true;
                }
                if first_use_of_prefetch {
                    self.prefetcher.feedback(true);
                }
            } else {
                counters.l2_demand_misses += 1;
                counters.l2_lines_in += 1;
                self.llc_fill_fast(line_addr, true, sink);
                let evicted = self.l2.insert(line_addr, is_write, false);
                self.handle_l2_victim(evicted, counters, sink);
            }

            buf.clear();
            self.prefetcher
                .observe_hinted(line_addr, &mut buf, &mut stream_hint);
            for &pf_addr in &buf {
                if self.l2.contains(pf_addr) {
                    continue;
                }
                counters.pf_issued += 1;
                counters.l2_lines_in += 1;
                self.llc_fill_fast(pf_addr, false, sink);
                let evicted = self.l2.insert(pf_addr, false, true);
                self.handle_l2_victim(evicted, counters, sink);
            }
        }
        self.stream_hint = stream_hint;
        self.prefetch_buf = buf;
    }

    /// Fill from the LLC level with a single combined set scan (lookup +
    /// victim selection), emitting DRAM transactions to the sink. Identical
    /// to [`CacheSim::fill_from_below`].
    #[inline]
    fn llc_fill_fast<S: DramSink>(&mut self, line_addr: u64, demand: bool, sink: &mut S) {
        match self.llc.fill_or_hit(line_addr, false, false, !demand) {
            FillOutcome::Hit => {}
            FillOutcome::Inserted(victim) => {
                sink.event(
                    line_addr,
                    if demand {
                        DramEventKind::DemandFill
                    } else {
                        DramEventKind::PrefetchFill
                    },
                );
                if let Some(victim) = victim {
                    if victim.dirty {
                        sink.event(victim.tag, DramEventKind::Writeback);
                    }
                }
            }
        }
    }

    /// Handles the victim of an L2 insert on the batched path (useless-
    /// prefetch accounting and the dirty writeback towards LLC / DRAM).
    /// Identical to the victim handling of [`CacheSim::insert_l2`].
    #[inline]
    fn handle_l2_victim<S: DramSink>(
        &mut self,
        evicted: Option<Evicted>,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        if let Some(victim) = evicted {
            if victim.useless_prefetch {
                counters.useless_hwpf += 1;
                self.prefetcher.feedback(false);
            }
            if victim.dirty {
                match self.llc.fill_or_hit(victim.tag, true, true, false) {
                    FillOutcome::Hit => {}
                    FillOutcome::Inserted(Some(llc_victim)) if llc_victim.dirty => {
                        sink.event(llc_victim.tag, DramEventKind::Writeback);
                    }
                    FillOutcome::Inserted(_) => {}
                }
            }
        }
    }

    /// Brings a line into the hierarchy from LLC or DRAM.
    fn fill_from_below(
        &mut self,
        line_addr: u64,
        demand: bool,
        _counters: &mut Counters,
        dram_events: &mut Vec<DramEvent>,
    ) {
        if self.llc.lookup(line_addr).is_some() {
            return;
        }
        dram_events.push(DramEvent {
            line_addr,
            kind: if demand {
                DramEventKind::DemandFill
            } else {
                DramEventKind::PrefetchFill
            },
        });
        if let Some(victim) = self.llc.insert(line_addr, false, !demand) {
            if victim.dirty {
                dram_events.push(DramEvent {
                    line_addr: victim.tag,
                    kind: DramEventKind::Writeback,
                });
            }
        }
    }

    /// Inserts a line into L2, handling the victim (useless-prefetch counting
    /// and dirty writeback towards the LLC / DRAM).
    fn insert_l2(
        &mut self,
        line_addr: u64,
        dirty: bool,
        prefetched: bool,
        counters: &mut Counters,
        dram_events: &mut Vec<DramEvent>,
    ) {
        if let Some(victim) = self.l2.insert(line_addr, dirty, prefetched) {
            if victim.useless_prefetch {
                counters.useless_hwpf += 1;
                self.prefetcher.feedback(false);
            }
            if victim.dirty {
                // Write the victim back into the LLC; if it has already been
                // evicted from the LLC, the writeback goes to DRAM.
                if let Some(llc_line) = self.llc.lookup(victim.tag) {
                    llc_line.dirty = true;
                } else if let Some(llc_victim) = self.llc.insert(victim.tag, true, false) {
                    if llc_victim.dirty {
                        dram_events.push(DramEvent {
                            line_addr: llc_victim.tag,
                            kind: DramEventKind::Writeback,
                        });
                    }
                }
            }
        }
    }

    /// Resets all cache contents and prefetcher state.
    pub fn reset(&mut self) {
        self.l2 = SetAssocCache::new(self.params.l2_sets(), self.params.l2_ways as usize);
        self.llc = SetAssocCache::new(self.params.llc_sets(), self.params.llc_ways as usize);
        self.prefetcher.reset();
        // The cache state replay would materialize is being discarded anyway.
        self.replay.discard_for_reset();
        self.stream_hint = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchParams;

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

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        c.demand_access(42, false, &mut counters, &mut dram);
        assert_eq!(counters.l2_demand_misses, 1);
        assert_eq!(dram.len(), 1);
        assert_eq!(dram[0].kind, DramEventKind::DemandFill);
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
            dram.iter().any(|e| e.kind == DramEventKind::Writeback),
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
        assert!(!c.prefetch_enabled());
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        for line in 0..64u64 {
            c.demand_access(line, false, &mut counters, &mut dram);
        }
        assert_eq!(counters.pf_issued, 0);
        assert_eq!(counters.l2_lines_in, counters.l2_demand_misses);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = sim(false);
        let mut counters = Counters::default();
        let mut dram = Vec::new();
        c.demand_access(7, false, &mut counters, &mut dram);
        c.reset();
        dram.clear();
        c.demand_access(7, false, &mut counters, &mut dram);
        assert_eq!(dram.len(), 1, "after reset the line must miss again");
    }
}
