//! L2 hardware stream prefetcher model.
//!
//! Models the per-core streamer the paper enables/disables through MSR 0x1a4:
//! it tracks sequential access streams within 4 KiB pages and, once a stream
//! is confirmed, fetches the next few lines ahead of the demand stream. It
//! never crosses page boundaries (real hardware cannot, because it works on
//! physical addresses).
//!
//! The stream table keeps its entries most recently used first, like a
//! cache set (see `crate::cache`): the entry an access uses moves to the
//! front, and a full table replaces its last, least recently used entry. A
//! walk through one page therefore finds its stream at index 0.
//!
//! The switch is [`PrefetchParams::enabled`], fixed when the prefetcher is
//! built, as the paper fixes it before each Level-1 run. A disabled
//! prefetcher observes nothing, so its stream table stays empty for the
//! whole run.

use crate::config::PrefetchParams;
use dismem_trace::{CACHE_LINE_SIZE, PAGE_SIZE};

/// Cache lines per page.
const LINES_PER_PAGE: u64 = PAGE_SIZE / CACHE_LINE_SIZE;

/// One tracked stream. The table only grows until it is full and then
/// replaces its LRU entry, so every entry in it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamEntry {
    pub(crate) page: u64,
    pub(crate) last_line: u64,
    /// Consecutive sequential hits observed.
    pub(crate) run: u32,
}

/// Frozen copy of the prefetcher state taken by the replay engine at a
/// window boundary (see `crate::replay`).
#[derive(Debug, Clone)]
pub(crate) struct PrefetcherSnapshot {
    pub(crate) entries: Vec<StreamEntry>,
    /// Captured for the replay feedback gate; the useful counter is not
    /// frozen because replay advances it live, in closed form.
    pub(crate) feedback_useless: u64,
}

/// Stream prefetcher state.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    params: PrefetchParams,
    /// Tracked streams, most recently used first.
    pub(crate) entries: Vec<StreamEntry>,
    /// Accuracy-feedback counters (decayed periodically): prefetched lines
    /// that were eventually used vs evicted unused. Real prefetchers throttle
    /// themselves when accuracy is poor — the behaviour the paper observes in
    /// XSBench ("prefetching is automatically adapted to a low level when
    /// accuracy is low").
    pub(crate) feedback_useful: u64,
    pub(crate) feedback_useless: u64,
}

/// Minimum number of feedback samples before throttling decisions are made.
const FEEDBACK_WARMUP: u64 = 512;
/// Window size at which the feedback counters are halved (exponential decay).
const FEEDBACK_DECAY_AT: u64 = 8192;

impl StreamPrefetcher {
    /// Creates a prefetcher with the given parameters.
    pub fn new(params: PrefetchParams) -> Self {
        Self {
            params,
            entries: Vec::with_capacity(params.max_streams),
            feedback_useful: 0,
            feedback_useless: 0,
        }
    }

    /// Reports the fate of a previously prefetched line: used by a demand
    /// access (`useful = true`) or evicted without use (`useful = false`).
    pub fn feedback(&mut self, useful: bool) {
        if useful {
            self.feedback_useful += 1;
        } else {
            self.feedback_useless += 1;
        }
        if self.feedback_useful + self.feedback_useless > FEEDBACK_DECAY_AT {
            self.feedback_useful /= 2;
            self.feedback_useless /= 2;
        }
    }

    /// Observed prefetch accuracy over the recent feedback window (1.0 before
    /// enough samples have been collected).
    pub fn observed_accuracy(&self) -> f64 {
        let total = self.feedback_useful + self.feedback_useless;
        if total < FEEDBACK_WARMUP {
            return 1.0;
        }
        self.feedback_useful as f64 / total as f64
    }

    /// Prefetch degree after accuracy-based throttling.
    fn effective_degree(&self) -> u64 {
        if self.feedback_useless == 0 {
            // No useless prefetches: accuracy is 1.0 whether or not the
            // warmup threshold is reached — full degree, no division needed.
            return self.params.degree as u64;
        }
        let acc = self.observed_accuracy();
        if acc >= 0.60 {
            self.params.degree as u64
        } else if acc >= 0.30 {
            (self.params.degree as u64 / 2).max(1)
        } else {
            0
        }
    }

    /// Takes a frozen copy of the full prefetcher state.
    pub(crate) fn snapshot(&self) -> PrefetcherSnapshot {
        PrefetcherSnapshot {
            entries: self.entries.clone(),
            feedback_useless: self.feedback_useless,
        }
    }

    /// Restores the stream entries from a snapshot, each shifted forward by
    /// `page_shift` pages in the same recency order — the state the
    /// prefetcher would have reached had it tracked the stream exactly.
    ///
    /// The accuracy-feedback counters are *not* restored: they are advanced
    /// live during replay by [`StreamPrefetcher::advance_useful`].
    pub(crate) fn restore_shifted(&mut self, snap: &PrefetcherSnapshot, page_shift: u64) {
        self.entries.clear();
        self.entries
            .extend(snap.entries.iter().map(|e| StreamEntry {
                page: e.page + page_shift,
                ..*e
            }));
    }

    /// Advances the feedback state exactly as `n` consecutive
    /// [`StreamPrefetcher::feedback`]`(true)` calls would, in closed form.
    /// Only valid while `feedback_useless == 0` (the replay invariant): the
    /// decay then reduces to halving the useful counter whenever it crosses
    /// the decay threshold.
    pub(crate) fn advance_useful(&mut self, mut n: u64) {
        debug_assert!(n == 0 || self.feedback_useless == 0);
        while n > 0 {
            let to_decay = (FEEDBACK_DECAY_AT + 1).saturating_sub(self.feedback_useful);
            if n < to_decay {
                self.feedback_useful += n;
                break;
            }
            n -= to_decay;
            self.feedback_useful = FEEDBACK_DECAY_AT.div_ceil(2);
        }
    }

    /// Observes a demand access to cache line `line_addr` and appends the
    /// line addresses that should be prefetched to `out`.
    pub fn observe(&mut self, line_addr: u64, out: &mut Vec<u64>) {
        if !self.params.enabled {
            return;
        }
        let page = line_addr / LINES_PER_PAGE;
        let line_in_page = line_addr % LINES_PER_PAGE;

        // Stream entries are unique per page. An unknown page takes a fresh
        // entry at the front, replacing the least recently used one, last,
        // when the table is full.
        let Some(i) = self.entries.iter().position(|e| e.page == page) else {
            if self.entries.len() >= self.params.max_streams {
                self.entries.pop();
            }
            self.entries.insert(
                0,
                StreamEntry {
                    page,
                    last_line: line_in_page,
                    run: 1,
                },
            );
            return;
        };
        self.entries[..=i].rotate_right(1);

        let entry = &mut self.entries[0];
        if line_in_page == entry.last_line {
            // Same line re-accessed; no new information.
            return;
        }
        if line_in_page == entry.last_line + 1 {
            entry.run += 1;
            entry.last_line = line_in_page;
            let run = entry.run;
            let degree = self.effective_degree();
            if run >= self.params.trigger && degree > 0 {
                let first = line_in_page + 1;
                let last = (line_in_page + degree).min(LINES_PER_PAGE - 1);
                let page_base_line = page * LINES_PER_PAGE;
                for l in first..=last {
                    out.push(page_base_line + l);
                }
            }
        } else {
            // Non-sequential access: restart the stream at this line.
            entry.run = 1;
            entry.last_line = line_in_page;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetchParams {
            enabled: true,
            degree: 2,
            trigger: 2,
            max_streams: 4,
        })
    }

    #[test]
    fn sequential_stream_triggers_prefetch() {
        let mut p = pf();
        let mut out = Vec::new();
        p.observe(100, &mut out);
        assert!(out.is_empty());
        p.observe(101, &mut out);
        // run = 2 >= trigger: prefetch lines 102, 103
        assert_eq!(out, vec![102, 103]);
    }

    #[test]
    fn random_accesses_never_trigger() {
        let mut p = pf();
        let mut out = Vec::new();
        for &l in &[5u64, 200, 9, 431, 77, 1000] {
            p.observe(l, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(PrefetchParams::disabled());
        let mut out = Vec::new();
        p.observe(0, &mut out);
        p.observe(1, &mut out);
        p.observe(2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn prefetch_stops_at_page_boundary() {
        let mut p = pf();
        let mut out = Vec::new();
        // Last two lines of page 0 (lines 62, 63 of 64).
        p.observe(62, &mut out);
        p.observe(63, &mut out);
        // Nothing to prefetch: next lines would be in page 1.
        assert!(out.is_empty());
    }

    #[test]
    fn stream_restart_on_jump_within_page() {
        let mut p = pf();
        let mut out = Vec::new();
        p.observe(10, &mut out);
        p.observe(11, &mut out);
        out.clear();
        // Jump backwards within the same page: stream restarts, no prefetch.
        p.observe(3, &mut out);
        assert!(out.is_empty());
        p.observe(4, &mut out);
        assert_eq!(out, vec![5, 6]);
    }

    #[test]
    fn lru_eviction_limits_tracked_streams() {
        let mut p = pf();
        let mut out = Vec::new();
        // Touch 5 different pages (capacity 4): the first page's stream is evicted.
        for page in 0..5u64 {
            p.observe(page * 64, &mut out);
        }
        // Resuming page 0's stream needs re-training from scratch.
        p.observe(1, &mut out);
        assert!(
            out.is_empty(),
            "evicted stream must not remember its history"
        );
        p.observe(2, &mut out);
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn repeated_same_line_does_not_advance_stream() {
        let mut p = pf();
        let mut out = Vec::new();
        p.observe(20, &mut out);
        p.observe(20, &mut out);
        p.observe(20, &mut out);
        assert!(out.is_empty());
        p.observe(21, &mut out);
        assert_eq!(out, vec![22, 23]);
    }

    #[test]
    fn poor_accuracy_feedback_throttles_prefetching() {
        let mut p = pf();
        // Report overwhelmingly useless prefetches.
        for _ in 0..2000 {
            p.feedback(false);
        }
        assert!(p.observed_accuracy() < 0.1);
        let mut out = Vec::new();
        p.observe(10, &mut out);
        p.observe(11, &mut out);
        assert!(out.is_empty(), "throttled prefetcher must stay quiet");
        // Good feedback restores prefetching.
        for _ in 0..20_000 {
            p.feedback(true);
        }
        assert!(p.observed_accuracy() > 0.6);
        p.observe(12, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn accuracy_defaults_to_one_before_warmup() {
        let mut p = pf();
        p.feedback(false);
        assert_eq!(p.observed_accuracy(), 1.0);
    }

    #[test]
    fn advance_useful_matches_repeated_feedback() {
        for start in [0u64, 1, 100, 4095, 4096, 8191, 8192] {
            for n in [0u64, 1, 5, 4096, 8192, 8193, 20_000] {
                let mut a = pf();
                a.feedback_useful = start;
                let mut b = a.clone();
                for _ in 0..n {
                    a.feedback(true);
                }
                b.advance_useful(n);
                assert_eq!(
                    (a.feedback_useful, a.feedback_useless),
                    (b.feedback_useful, b.feedback_useless),
                    "start={start}, n={n}"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_shifted_moves_entries() {
        let mut p = pf();
        let mut out = Vec::new();
        p.observe(100, &mut out);
        p.observe(101, &mut out);
        p.observe(300, &mut out);
        let snap = p.snapshot();
        let mut q = pf();
        q.restore_shifted(&snap, 10);
        // The restored entries track the original pages shifted by 10
        // pages, in the same recency order.
        let pages: Vec<u64> = q.entries.iter().map(|e| e.page).collect();
        assert_eq!(pages, vec![300 / 64 + 10, 100 / 64 + 10]);
        assert_eq!(q.entries[1].run, 2);
    }

    #[test]
    fn full_table_replaces_its_least_recently_used_stream() {
        let mut p = pf();
        let mut out = Vec::new();
        // Fill the table (capacity 4) with pages 0..4, then use page 0
        // again: page 1 is now the least recently used stream.
        for page in 0..4u64 {
            p.observe(page * 64, &mut out);
        }
        p.observe(1, &mut out);
        assert_eq!(out, vec![2, 3], "page 0's stream survives its reuse");
        out.clear();
        p.observe(4 * 64, &mut out);
        let pages: Vec<u64> = p.entries.iter().map(|e| e.page).collect();
        assert_eq!(pages, vec![4, 0, 3, 2], "page 1's stream was replaced");
        // Page 2 resumes its stream; page 1 starts a new one.
        p.observe(2 * 64 + 1, &mut out);
        assert_eq!(out, vec![2 * 64 + 2, 2 * 64 + 3]);
        out.clear();
        p.observe(64 + 1, &mut out);
        assert!(out.is_empty());
    }
}
