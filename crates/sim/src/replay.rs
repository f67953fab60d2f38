//! Steady-state replay engine for the batched line walk.
//!
//! The batched pipeline of [`CacheSim::demand_access_range`] still pays a set
//! scan and a prefetcher update for every simulated cache line. On the
//! campaign-scale workloads of the paper's scaling and interference studies
//! much of the traffic is *periodic* — long contiguous sweeps through large
//! arrays — and the cache reaches recurring states whose evolution can be
//! memoized and applied in closed form. This module detects that periodicity
//! as **window replay**: within one long contiguous streak, every window of
//! `W` pages produces the same counter delta, DRAM transactions and state
//! advance as the window before it, shifted forward by `W` pages.
//! Proven-periodic windows are replayed in closed form.
//!
//! The load-bearing contracts this engine must uphold — bit-identity with
//! the per-line and batched pipelines, and the interaction rules with the
//! dynamic-tiering subsystem (epochs only at chunk closes, a cache walk that
//! never reads a page's tier) — are spelled out in `docs/ARCHITECTURE.md` at
//! the repository root; `tests/properties.rs` enforces them.
//!
//! # Windows, not single pages
//!
//! Consecutive pages map to *different* cache sets: with `S` sets and 64
//! lines per page, the set pattern repeats every `S / gcd(S, 64)` pages (the
//! page "color" period). The replay unit is therefore a **window** of
//! `W = lcm(color(L2), color(LLC))` pages: shifting a window by `W` pages
//! maps every line back to the same set, which is what makes the steady
//! state checkable by shifted equality. Each set (and the prefetcher's
//! stream table) keeps its lines most recently used first, and hits,
//! victims and flags depend on nothing but that order, so two states compare
//! way by way, in order: a set is the shift of another when each of its
//! ways holds the other's line at the same way, tag advanced by the window.
//!
//! # Detection: fingerprint two consecutive windows
//!
//! While a window is walked exactly, the engine accumulates its fingerprint:
//!
//! * the [`Counters`] delta produced by the window,
//! * the ordered list of DRAM transactions (line address, kind), and
//! * — once consecutive fingerprints match — a full snapshot of the L2, LLC
//!   and prefetcher state at the window boundary.
//!
//! Arming follows one rule. A window whose fingerprint repeats its
//! predecessor's and that moved DRAM traffic takes the snapshot (a window
//! without DRAM transactions filled no lines, so its tags cannot have
//! shifted). The next repeating window runs the feedback gate below and the
//! shift check against it. A failed check drops the snapshot and the next
//! repeat arms again; it stops at the first set that differs, so it is
//! cheap.
//!
//! Replay engages when window `n+1` reproduces window `n` exactly under a
//! uniform shift: equal counter deltas, transaction lists equal with every
//! line address advanced by the window length, and the post-window
//! cache/prefetcher snapshots equal, in recency order, with every valid tag
//! and every stream page advanced by the window length.
//! That last check is the soundness core: the walk is a deterministic
//! function of the cache state, the prefetcher state and the (shifted)
//! addresses, and all of its index arithmetic is congruent under the shift —
//! so if the state after window `n+1` is the state after window `n` shifted
//! by one window, then by induction every following window behaves
//! identically-shifted until an invariant breaks. Every valid line and every
//! stream entry must shift, including one the window never touched, so
//! foreign resident lines, partially-warm caches, aliasing hot lines and
//! mid-stream perturbations all surface as a snapshot or delta mismatch and
//! simply keep the engine in the exact walk. The prefetcher switch is fixed
//! for the whole run; with it off the stream table is never trained and
//! compares empty against empty.
//!
//! The prefetcher's accuracy-feedback counters are deliberately excluded
//! from the snapshot comparison (they grow monotonically even in steady
//! state) and handled separately: replay requires that the window produced
//! no useless-prefetch feedback and that — if useful feedback occurs — the
//! useless counter is zero at both snapshot boundaries, which makes the
//! throttle decision (`effective_degree`) provably constant; the useful
//! counter itself is advanced in closed form
//! ([`crate::prefetch::StreamPrefetcher::advance_useful`]).
//!
//! # Replay and exact exit
//!
//! A replayed window costs O(distinct DRAM pages) instead of
//! O(lines × associativity). Page→tier resolution still happens per page in
//! the sink — first-touch binding, capacity spills from the local tier to
//! the pool, OOM aborts and interleaved placement all take the *same
//! decisions in the same order* as the exact walk, because the cache walk is
//! tier-blind and the bulk events preserve first-occurrence page order.
//!
//! On either exit — a partial final window or a broken streak — the cache
//! and prefetcher state is *materialized*: rebuilt from the engagement
//! snapshot with all tags and pages shifted by the number of replayed
//! windows. Nothing resets the engine from outside: its switch is
//! set before the first access, and a migration epoch moves pages without
//! touching the walk, whose replayed windows resolve tiers in the sink. The
//! workspace property tests assert full `RunReport` bit-identity between
//! replay-on, replay-off and the per-line reference pipeline.

use crate::cache::{shifted, CacheSim, DramEventKind, DramSink};
use crate::counters::Counters;
use crate::prefetch::PrefetcherSnapshot;
use dismem_trace::{CACHE_LINE_SIZE, PAGE_SIZE};
use std::collections::btree_map::{BTreeMap, Entry};

/// Cache lines per page.
const LINES_PER_PAGE: u64 = PAGE_SIZE / CACHE_LINE_SIZE;

/// Geometries whose window exceeds this many pages never reach steady state
/// within realistic runs; the engine disables itself rather than fingerprint
/// multi-MiB windows.
const MAX_WINDOW_PAGES: u64 = 1024;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

fn round_up_to_page(line: u64) -> u64 {
    line.div_ceil(LINES_PER_PAGE) * LINES_PER_PAGE
}

/// Fingerprint of one completed window: its counter delta and its ordered
/// DRAM transaction list.
#[derive(Debug, Clone)]
struct WindowPrint {
    delta: Counters,
    events: Vec<(u64, DramEventKind)>,
}

/// Frozen cache + prefetcher state at a window boundary: the packed lines
/// of both caches, each set most recently used first, and the stream table.
#[derive(Debug, Clone)]
struct StateSnapshot {
    l2_lines: Vec<u64>,
    llc_lines: Vec<u64>,
    pf: PrefetcherSnapshot,
}

/// One page's worth of a window's DRAM transactions of one kind.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Line offset of the group's first transaction relative to the first
    /// line of the fingerprinted window (negative for victim writebacks that
    /// target pages behind the stream).
    rel_line: i64,
    kind: DramEventKind,
    count: u64,
}

/// Everything needed to replay windows and to materialize the exact state on
/// exit.
#[derive(Debug, Clone)]
struct Memo {
    /// Cache-side counter delta of one window.
    delta: Counters,
    /// Page-granular DRAM transactions of one window, in first-occurrence
    /// order (which preserves first-touch binding order).
    groups: Vec<Group>,
    /// State at the *start* of the confirming window (the armed snapshot):
    /// after `m` replayed windows the exact state is this snapshot shifted
    /// forward by `m + 1` windows.
    snap: StateSnapshot,
    /// `feedback(true)` calls per window, advanced in closed form.
    pf_useful_per_window: u64,
    /// First line of the confirming window; replayed window `k` starts at
    /// `base_line + (k + 1) * window_lines`.
    base_line: u64,
    /// Whole windows replayed so far from this memo.
    windows_done: u64,
}

#[derive(Debug, Clone, Default)]
enum Mode {
    #[default]
    Detect,
    Replay(Box<Memo>),
}

/// One engage/exit transition recorded for the flight recorder. Collected
/// inside the walk (where no simulated clock is in scope) and drained by
/// [`crate::Machine`] at the next chunk close, which stamps them with the
/// application-line clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayTransition {
    /// Window replay engaged.
    Engaged,
    /// Window replay exited: a partial final window or a broken streak, both
    /// traced as `pattern-break`.
    Exited,
}

/// Detector + memo state machine owned by [`CacheSim`].
#[derive(Debug, Clone)]
pub(crate) struct ReplayEngine {
    /// Master switch ([`CacheSim::set_replay_enabled`]).
    pub(crate) enabled: bool,
    /// Whether the cache geometry admits a tractable window at all.
    geometry_ok: bool,
    /// Pages per window.
    pub(crate) window_pages: u64,
    /// Lines per window.
    pub(crate) window_lines: u64,
    /// Lifetime count of replayed windows (observability / tests).
    pub(crate) windows_replayed_total: u64,

    /// Whether a contiguous streak is currently tracked.
    streak: bool,
    next_line: u64,
    is_write: bool,
    /// First line of the window being accumulated.
    window_base: u64,
    /// Whether any window-detection state has accumulated; a single-flag
    /// guard so scattered-traffic restarts skip the multi-field clear.
    det_live: bool,
    /// Lines of the current window already walked.
    filled: u64,
    /// Counter delta accumulated over the current window.
    acc: Counters,
    /// DRAM transactions logged over the current window.
    events: Vec<(u64, DramEventKind)>,
    /// Fingerprint of the last completed window.
    prev: Option<WindowPrint>,
    /// Snapshot taken at the end of the last completed window (armed for a
    /// shift comparison at the end of the next one).
    armed: Option<Box<StateSnapshot>>,

    /// Whether engage/exit transitions are recorded for the flight recorder
    /// ([`CacheSim::set_replay_trace`]). Off by default: with tracing off the
    /// engine allocates and records nothing.
    trace: bool,
    /// Transitions recorded since the last drain (chunk close).
    transitions: Vec<ReplayTransition>,

    mode: Mode,
}

impl ReplayEngine {
    pub(crate) fn new(l2_sets: u64, llc_sets: u64) -> Self {
        let color = |sets: u64| sets / gcd(sets, LINES_PER_PAGE);
        let window_pages = lcm(color(l2_sets.max(1)), color(llc_sets.max(1)));
        let geometry_ok = window_pages <= MAX_WINDOW_PAGES;
        Self {
            enabled: geometry_ok,
            geometry_ok,
            window_pages,
            window_lines: window_pages * LINES_PER_PAGE,
            windows_replayed_total: 0,
            streak: false,
            next_line: 0,
            is_write: false,
            window_base: 0,
            det_live: false,
            filled: 0,
            acc: Counters::default(),
            events: Vec::new(),
            prev: None,
            armed: None,
            trace: false,
            transitions: Vec::new(),
            mode: Mode::Detect,
        }
    }

    /// Records one transition when tracing is on (a no-op — not even a
    /// branch misprediction worth of work — when off).
    #[inline]
    fn note_transition(&mut self, transition: ReplayTransition) {
        if self.trace {
            self.transitions.push(transition);
        }
    }

    /// Applies the master switch, respecting the geometry gate.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled && self.geometry_ok;
    }

    fn in_replay(&self) -> bool {
        matches!(self.mode, Mode::Replay(_))
    }

    /// Clears window-accumulation and fingerprint state. Guarded by the
    /// `det_live` flag and inlined, so an idle restart, which scattered
    /// traffic makes on every call, pays one branch and no call.
    #[inline]
    fn clear_window_detection(&mut self) {
        if self.det_live {
            self.reset_window_detection();
        }
    }

    #[inline(never)]
    fn reset_window_detection(&mut self) {
        self.det_live = false;
        self.filled = 0;
        self.acc = Counters::default();
        self.events.clear();
        self.prev = None;
        self.armed = None;
    }

    /// Starts tracking a fresh streak at `line`. Kept cheap for scattered
    /// traffic (gathers and wide strides restart a streak on every element):
    /// detection state is only cleared when some actually accumulated.
    #[inline]
    fn begin_streak(&mut self, line: u64, is_write: bool) {
        debug_assert!(matches!(self.mode, Mode::Detect));
        self.streak = true;
        self.next_line = line;
        self.is_write = is_write;
        // Start accumulating at the next page boundary *strictly after*
        // `line`: single-line page-aligned accesses then never enter the
        // (mark + log) accumulation path, and a genuine stream only cedes
        // one page of its first window.
        self.window_base = round_up_to_page(line + 1);
        self.clear_window_detection();
    }

    /// Re-anchors detection at `line` (clears window accumulation and
    /// fingerprints, keeps the streak).
    fn resume_detection(&mut self, line: u64) {
        debug_assert!(matches!(self.mode, Mode::Detect));
        self.window_base = round_up_to_page(line);
        self.det_live = true;
        self.clear_window_detection();
    }
}

/// Sink adapter that logs every transaction while forwarding it unchanged.
struct LoggingSink<'a, S> {
    inner: &'a mut S,
    log: &'a mut Vec<(u64, DramEventKind)>,
}

impl<S: DramSink> DramSink for LoggingSink<'_, S> {
    #[inline]
    fn event(&mut self, line_addr: u64, kind: DramEventKind) {
        self.log.push((line_addr, kind));
        self.inner.event(line_addr, kind);
    }
}

/// `cur` reproduces `prev` with every line address advanced by `shift`.
fn events_shifted_eq(
    prev: &[(u64, DramEventKind)],
    cur: &[(u64, DramEventKind)],
    shift: u64,
) -> bool {
    prev.len() == cur.len()
        && prev
            .iter()
            .zip(cur)
            .all(|(p, c)| c.0 == p.0 + shift && c.1 == p.1)
}

/// Checks that the packed cache lines `b` are `a` with every valid tag
/// advanced by `tag_shift` lines, way by way: the same lines with the same
/// flags in the same recency order, and empty ways where `a` has them. Every
/// valid line must shift: a line the window left untouched keeps its tag and
/// fails the comparison. It stops at the first way that differs.
fn lines_shifted_eq(a: &[u64], b: &[u64], tag_shift: u64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(&x, &y)| y == shifted(x, tag_shift))
}

impl CacheSim {
    /// Verifies that the *live* cache + prefetcher state is `s1` advanced by
    /// exactly one window. `window_lines`/`window_pages` are the window's
    /// uniform address shift. Comparing against the live state (instead of
    /// snapshotting it first) halves the engagement cost; on success the
    /// armed snapshot itself becomes the replay base.
    fn live_state_is_shifted(
        &self,
        s1: &StateSnapshot,
        window_lines: u64,
        window_pages: u64,
    ) -> bool {
        let entries = &self.prefetcher.entries;
        // The stream table is ordered by recency like a cache set. A
        // prefetch-off run never trains it, so both sides are empty then.
        lines_shifted_eq(&s1.l2_lines, &self.l2.lines, window_lines)
            && lines_shifted_eq(&s1.llc_lines, &self.llc.lines, window_lines)
            && s1.pf.entries.len() == entries.len()
            && s1.pf.entries.iter().zip(entries).all(|(x, y)| {
                y.page == x.page + window_pages && x.last_line == y.last_line && x.run == y.run
            })
    }
}

/// The feedback-throttle soundness gate: the window must not have produced
/// useless-prefetch feedback, and if it produced useful feedback the useless
/// counter must be zero at both boundaries (the armed snapshot and the live
/// state) so `effective_degree` is provably constant while the useful
/// counter is advanced in closed form.
fn feedback_gate(delta: &Counters, s1: &StateSnapshot, live_feedback_useless: u64) -> bool {
    delta.useless_hwpf == 0
        && (delta.pf_useful == 0 || (s1.pf.feedback_useless == 0 && live_feedback_useless == 0))
}

/// Aggregates a window's transactions per (page, kind), preserving
/// first-occurrence order so first-touch page binding happens in the exact
/// walk's order.
fn group_events(events: &[(u64, DramEventKind)], base_line: u64) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    let mut index: BTreeMap<(u64, DramEventKind), usize> = BTreeMap::new();
    for &(line, kind) in events {
        let page = line / LINES_PER_PAGE;
        match index.entry((page, kind)) {
            Entry::Occupied(e) => {
                groups[*e.get()].count += 1;
            }
            Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(Group {
                    rel_line: line as i64 - base_line as i64,
                    kind,
                    count: 1,
                });
            }
        }
    }
    groups
}

impl CacheSim {
    /// Turns transition recording for the flight recorder on or off.
    /// Turning it off drops anything not yet drained.
    pub(crate) fn set_replay_trace(&mut self, on: bool) {
        self.replay.trace = on;
        if !on {
            self.replay.transitions = Vec::new();
        }
    }

    /// Takes the engage/exit transitions recorded since the last drain.
    /// [`crate::Machine`] calls this at chunk closes and at `finish`, then
    /// stamps each transition with the application-line clock.
    pub(crate) fn drain_replay_transitions(&mut self) -> Vec<ReplayTransition> {
        std::mem::take(&mut self.replay.transitions)
    }

    /// If replaying, rebuilds the cache and prefetcher state the exact walk
    /// would have produced: the engagement snapshot shifted forward by the
    /// number of replayed windows. A no-op in detect mode.
    ///
    /// Out of line and cold: it runs once per replay exit, while its callers
    /// include the per-call path of scattered traffic (gathers, strides),
    /// which must stay as cheap as the batched walk's.
    #[cold]
    #[inline(never)]
    fn materialize_replay(&mut self) {
        let Mode::Replay(memo) = std::mem::take(&mut self.replay.mode) else {
            return;
        };
        self.replay.note_transition(ReplayTransition::Exited);
        let m = memo.windows_done;
        // The snapshot is the state one window *before* engagement; the live
        // caches already hold the state at engagement (snapshot + 1 window),
        // so nothing needs rebuilding when no window was applied.
        if m == 0 {
            return;
        }
        let shift = m + 1;
        let tag_shift = shift * self.replay.window_lines;
        self.l2.restore_shifted(&memo.snap.l2_lines, tag_shift);
        self.llc.restore_shifted(&memo.snap.llc_lines, tag_shift);
        self.prefetcher
            .restore_shifted(&memo.snap.pf, shift * self.replay.window_pages);
    }

    fn take_snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            l2_lines: self.l2.lines.clone(),
            llc_lines: self.llc.lines.clone(),
            pf: self.prefetcher.snapshot(),
        }
    }

    /// Whether a call at `first_line` continues the current streak.
    #[inline]
    fn continues_streak(&self, first_line: u64, is_write: bool) -> bool {
        self.replay.streak
            && self.replay.next_line == first_line
            && self.replay.is_write == is_write
    }

    /// Detector bookkeeping for a *scattered* call: one that does not
    /// continue the current streak and ends before the page boundary a
    /// fresh streak would start accumulating at (single-line gathers, wide
    /// strides). Exits any window replay and re-anchors the streak after the
    /// call, which the caller then walks exactly. Returns `false`, touching
    /// nothing, for any other call; those go to
    /// [`CacheSim::walk_with_replay`].
    #[inline]
    pub(crate) fn note_scattered_call(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
    ) -> bool {
        if self.continues_streak(first_line, is_write)
            || first_line + line_count > round_up_to_page(first_line + 1)
        {
            return false;
        }
        self.restart_streak(first_line, is_write);
        self.replay.next_line = first_line + line_count;
        true
    }

    /// Exits any window replay left by the previous streak and re-anchors
    /// detection at `first_line`.
    #[inline]
    fn restart_streak(&mut self, first_line: u64, is_write: bool) {
        if self.replay.in_replay() {
            self.materialize_replay();
        }
        self.replay.begin_streak(first_line, is_write);
    }

    /// Batched walk with steady-state detection and replay for a call that
    /// [`CacheSim::note_scattered_call`] declined. Behaviourally identical to
    /// [`CacheSim::walk_lines_exact`] over the same lines.
    pub(crate) fn walk_with_replay<S: DramSink>(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        if !self.continues_streak(first_line, is_write) {
            self.restart_streak(first_line, is_write);
        }
        self.walk_streak(first_line, line_count, is_write, counters, sink);
    }

    /// The contiguous-streak walk: window accumulation, window replay, and
    /// the exact prefix/tail segments around them.
    fn walk_streak<S: DramSink>(
        &mut self,
        first_line: u64,
        line_count: u64,
        is_write: bool,
        counters: &mut Counters,
        sink: &mut S,
    ) {
        let wl = self.replay.window_lines;
        let mut line = first_line;
        let mut remaining = line_count;
        while remaining > 0 {
            if self.replay.in_replay() {
                if remaining >= wl {
                    debug_assert_eq!(line % LINES_PER_PAGE, 0);
                    self.apply_replay_window(counters, sink);
                    line += wl;
                    remaining -= wl;
                    continue;
                }
                // Tail shorter than a window: resume the exact walk from the
                // materialized state.
                self.materialize_replay();
                self.replay.resume_detection(line);
            }

            if line < self.replay.window_base {
                // Unaligned streak prefix: walk exactly, unlogged, up to the
                // first page boundary.
                let seg = remaining.min(self.replay.window_base - line);
                self.walk_lines_exact(line, seg, is_write, counters, sink);
                line += seg;
                remaining -= seg;
                continue;
            }

            debug_assert_eq!(line, self.replay.window_base + self.replay.filled);
            let seg = remaining.min(wl - self.replay.filled);
            let mut log = std::mem::take(&mut self.replay.events);
            let before = *counters;
            {
                let mut logging = LoggingSink {
                    inner: sink,
                    log: &mut log,
                };
                self.walk_lines_exact(line, seg, is_write, counters, &mut logging);
            }
            self.replay.events = log;
            let delta = counters.delta_from(&before);
            self.replay.acc.add(&delta);
            self.replay.det_live = true;
            self.replay.filled += seg;
            line += seg;
            remaining -= seg;
            if self.replay.filled == wl {
                self.complete_window();
            }
        }
        self.replay.next_line = line;
    }

    /// Finishes the accumulating window: fingerprint it, compare against the
    /// previous window, and arm / confirm / engage as appropriate.
    fn complete_window(&mut self) {
        let wl = self.replay.window_lines;
        let confirm_base = self.replay.window_base;
        let delta = std::mem::take(&mut self.replay.acc);
        let events = std::mem::take(&mut self.replay.events);

        let matches_prev = self
            .replay
            .prev
            .as_ref()
            .is_some_and(|p| p.delta == delta && events_shifted_eq(&p.events, &events, wl));

        if matches_prev {
            if let Some(prev_snap) = self.replay.armed.take() {
                // A failed gate or shift check just drops the snapshot, and
                // the next repeating window arms again.
                if feedback_gate(&delta, &prev_snap, self.prefetcher.feedback_useless)
                    && self.live_state_is_shifted(&prev_snap, wl, self.replay.window_pages)
                {
                    self.replay.mode = Mode::Replay(Box::new(Memo {
                        groups: group_events(&events, confirm_base),
                        pf_useful_per_window: delta.pf_useful,
                        delta,
                        snap: *prev_snap,
                        base_line: confirm_base,
                        windows_done: 0,
                    }));
                    self.replay.note_transition(ReplayTransition::Engaged);
                }
            } else if !events.is_empty() {
                // A window without DRAM transactions filled no lines, so
                // resident tags cannot have shifted by a window: only a
                // window that moved traffic is worth a snapshot.
                self.replay.armed = Some(Box::new(self.take_snapshot()));
            }
        } else {
            self.replay.armed = None;
        }

        // Recycle the previous window's event buffer for the next window.
        let recycled = self.replay.prev.take().map(|p| {
            let mut v = p.events;
            v.clear();
            v
        });
        self.replay.prev = Some(WindowPrint { delta, events });
        self.replay.events = recycled.unwrap_or_default();
        self.replay.window_base = confirm_base + wl;
        self.replay.filled = 0;
    }

    /// Applies one memoized window in closed form: counter delta, bulk DRAM
    /// transactions (page-granular, first-occurrence order) and the
    /// closed-form prefetcher feedback advance.
    fn apply_replay_window<S: DramSink>(&mut self, counters: &mut Counters, sink: &mut S) {
        let Mode::Replay(memo) = &mut self.replay.mode else {
            unreachable!("apply_replay_window outside replay mode");
        };
        counters.add(&memo.delta);
        let base = memo.base_line as i64
            + (memo.windows_done as i64 + 1) * self.replay.window_lines as i64;
        for g in &memo.groups {
            sink.bulk_event((base + g.rel_line) as u64, g.kind, g.count);
        }
        memo.windows_done += 1;
        let useful = memo.pf_useful_per_window;
        self.replay.windows_replayed_total += 1;
        self.prefetcher.advance_useful(useful);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_geometry() {
        // 512 L2 sets (color 8), 2048 LLC sets (color 32) → 32 pages.
        let e = ReplayEngine::new(512, 2048);
        assert_eq!(e.window_pages, 32);
        assert_eq!(e.window_lines, 32 * 64);
        assert!(e.enabled);
        // Tiny test geometry: 32 sets (color 1), 128 sets (color 2) → 2.
        let e = ReplayEngine::new(32, 128);
        assert_eq!(e.window_pages, 2);
        // Full Skylake: 1024 sets (color 16), 16384 sets (color 256) → 256.
        let e = ReplayEngine::new(1024, 16384);
        assert_eq!(e.window_pages, 256);
        // Absurd geometry disables the engine.
        let e = ReplayEngine::new(1 << 21, 1 << 22);
        assert!(!e.enabled);
        let mut e2 = e;
        e2.set_enabled(true);
        assert!(!e2.enabled, "geometry gate must stick");
    }

    #[test]
    fn event_shift_comparison() {
        let a = vec![
            (100u64, DramEventKind::DemandFill),
            (40, DramEventKind::Writeback),
        ];
        let b = vec![
            (612u64, DramEventKind::DemandFill),
            (552, DramEventKind::Writeback),
        ];
        assert!(events_shifted_eq(&a, &b, 512));
        assert!(!events_shifted_eq(&a, &b, 256));
        assert!(!events_shifted_eq(&a, &b[..1], 512));
    }

    #[test]
    fn cache_shift_requires_every_valid_line_to_shift() {
        use crate::cache::{packed, EMPTY};
        let tag_shift = 512;
        // Two 4-way sets, most recently used first: set 0 is full, set 1
        // has one empty way, at its tail.
        let a = [
            packed(12, false, false),
            packed(8, true, false),
            packed(4, false, true),
            packed(0, false, false),
            packed(9, false, false),
            packed(5, true, false),
            packed(1, false, true),
            EMPTY,
        ];
        // Every valid line shifted, each set in the same order.
        let b = a.map(|l| shifted(l, tag_shift));
        assert_eq!(b[7], EMPTY, "an empty way stays empty");
        assert!(lines_shifted_eq(&a, &b, tag_shift));
        // One valid line of set 1 kept its tag: the window left it
        // untouched, so the set is not a uniform shift.
        let mut untouched = b;
        untouched[6] = a[6];
        assert!(!lines_shifted_eq(&a, &untouched, tag_shift));
        // A line that changed a flag is not a shift either.
        let mut dirtied = b;
        dirtied[0] = shifted(packed(12, true, false), tag_shift);
        assert!(!lines_shifted_eq(&a, &dirtied, tag_shift));
    }

    #[test]
    fn the_same_shifted_lines_in_another_recency_order_are_not_a_shift() {
        use crate::cache::packed;
        let tag_shift = 512;
        let a = [0u64, 4, 8, 12].map(|tag| packed(tag, false, false));
        let b = a.map(|l| shifted(l, tag_shift));
        assert!(lines_shifted_eq(&a, &b, tag_shift));
        // The same four shifted lines with the two least recently used
        // swapped: the next miss would evict another victim.
        let mut reordered = b;
        reordered.swap(2, 3);
        assert!(!lines_shifted_eq(&a, &reordered, tag_shift));
        // Rotated, as a slot-rotating representation would leave them.
        let mut rotated = b;
        rotated.rotate_right(1);
        assert!(!lines_shifted_eq(&a, &rotated, tag_shift));
    }

    #[test]
    fn group_events_aggregates_per_page_in_order() {
        let base = 640; // line index, page 10
        let events = vec![
            (640u64, DramEventKind::DemandFill),
            (641, DramEventKind::PrefetchFill),
            (642, DramEventKind::PrefetchFill),
            (100, DramEventKind::Writeback), // lag page behind the stream
            (704, DramEventKind::DemandFill),
        ];
        let groups = group_events(&events, base);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].rel_line, 0);
        assert_eq!(groups[0].count, 1);
        assert_eq!(groups[1].count, 2);
        assert_eq!(groups[2].rel_line, 100 - 640);
        assert_eq!(groups[3].rel_line, 64);
    }
}
