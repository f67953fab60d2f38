//! The [`Machine`]: the simulated compute node with tiered memory.
//!
//! A `Machine` implements [`MemoryEngine`], so any workload written against
//! `dismem-trace` can run on it. It combines the address space (placement),
//! the cache hierarchy (traffic filtering and prefetching), the link model
//! (interference) and the timing model (runtime) and produces a [`RunReport`].
//! A [`TieringSpec`] installed with [`Machine::set_tiering_spec`] migrates
//! pages between the tiers at hotness epochs; the default,
//! [`TieringSpec::Static`], never does.

use crate::address_space::{AddressSpace, FreeError, Tier};
use crate::cache::{CacheSim, DramEvent, DramEventKind, DramSink};
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::interference::InterferenceProfile;
use crate::prefetch::StreamPrefetcher;
use crate::replay::ReplayTransition;
use crate::report::{AllocationSummary, PhaseReport, RunReport, TieringReport, TimelineSample};
use crate::tiering::{HotnessTracker, PageSample, TierOccupancy, TieringRuntime, TieringSpec};
use crate::timing::TimingModel;
use dismem_trace::{
    AccessKind, MemoryEngine, ObjectHandle, PlacementPolicy, Recorder, ReplayMode, TraceEvent,
    TraceTier, CACHE_LINE_SIZE,
};

/// Cache lines per page (pages and cache lines are both powers of two).
const LINES_PER_PAGE: u64 = dismem_trace::PAGE_SIZE / CACHE_LINE_SIZE;

/// One page's worth of pending DRAM traffic in the batched tally sink.
#[derive(Clone, Copy)]
struct MemoSlot {
    page: u64,
    tier: Tier,
    owner: ObjectHandle,
    /// DRAM lines recorded against this page since the slot was loaded.
    pending: u64,
}

const EMPTY_SLOT: MemoSlot = MemoSlot {
    page: u64::MAX,
    tier: Tier::Local,
    owner: ObjectHandle(u32::MAX),
    pending: 0,
};

/// DRAM-traffic deltas produced by one batched cache walk, folded into the
/// open chunk after the walk (u64 additions commute, so folding at element
/// boundaries instead of per event leaves every chunk-close decision — and
/// therefore the timeline — bit-identical to the per-line reference path).
#[derive(Default, Clone, Copy)]
struct DramTally {
    dram_lines_local: u64,
    dram_lines_pool: u64,
    demand_dram_lines_local: u64,
    demand_dram_lines_pool: u64,
    writeback_lines_local: u64,
    writeback_lines_pool: u64,
    pool_link_lines: u64,
}

impl DramTally {
    /// The single (tier, kind) → counter mapping shared by both pipelines:
    /// the per-line drain folds a tally per event, the batched sink per
    /// element/walk — u64 additions commute, so totals agree bit for bit.
    #[inline]
    fn tally(&mut self, tier: Tier, kind: DramEventKind) {
        self.tally_n(tier, kind, 1);
    }

    /// Aggregated form of [`DramTally::tally`]: `n` transactions of the same
    /// kind against the same tier (multiplication distributes over the u64
    /// additions, so this equals `n` single tallies bit for bit).
    #[inline]
    fn tally_n(&mut self, tier: Tier, kind: DramEventKind, n: u64) {
        match (tier, kind) {
            (Tier::Local, DramEventKind::DemandFill) => {
                self.dram_lines_local += n;
                self.demand_dram_lines_local += n;
            }
            (Tier::Local, DramEventKind::PrefetchFill) => {
                self.dram_lines_local += n;
            }
            (Tier::Local, DramEventKind::Writeback) => {
                self.writeback_lines_local += n;
            }
            (Tier::Pool, DramEventKind::DemandFill) => {
                self.dram_lines_pool += n;
                self.demand_dram_lines_pool += n;
            }
            (Tier::Pool, DramEventKind::PrefetchFill) => {
                self.dram_lines_pool += n;
            }
            (Tier::Pool, DramEventKind::Writeback) => {
                self.writeback_lines_pool += n;
            }
        }
        if tier == Tier::Pool {
            self.pool_link_lines += n;
        }
    }

    fn fold_into(&mut self, chunk: &mut Counters, pool_link_lines: &mut u64) {
        chunk.dram_lines_local += self.dram_lines_local;
        chunk.dram_lines_pool += self.dram_lines_pool;
        chunk.demand_dram_lines_local += self.demand_dram_lines_local;
        chunk.demand_dram_lines_pool += self.demand_dram_lines_pool;
        chunk.writeback_lines_local += self.writeback_lines_local;
        chunk.writeback_lines_pool += self.writeback_lines_pool;
        *pool_link_lines += self.pool_link_lines;
        *self = DramTally::default();
    }
}

/// Inline consumer of the batched cache walk's DRAM transactions: resolves
/// the serving tier with a two-slot page memo (fills and victim writebacks
/// usually alternate between two pages), tallies counters, and batches the
/// per-page histogram / per-object traffic recording.
struct TallySink<'a> {
    space: &'a mut AddressSpace,
    memo: [MemoSlot; 2],
    /// Which memo slot was used last (victim preference for reloads).
    last_hit: usize,
    tally: DramTally,
}

impl<'a> TallySink<'a> {
    fn new(space: &'a mut AddressSpace) -> Self {
        Self {
            space,
            memo: [EMPTY_SLOT; 2],
            last_hit: 0,
            tally: DramTally::default(),
        }
    }

    /// Writes the pending per-page traffic of both memo slots back to the
    /// address space. Must be called before the sink is dropped.
    fn flush(&mut self) {
        for slot in &mut self.memo {
            if slot.pending > 0 {
                self.space
                    // dismem-lint: allow(single-recording-point) — the tally
                    // sink is the batched pipeline's feed into the recording
                    // point, not a second recording path.
                    .record_dram_traffic(slot.owner, slot.tier, slot.page, slot.pending);
                slot.pending = 0;
            }
        }
    }

    #[inline]
    fn slot_for(&mut self, line_addr: u64) -> usize {
        let page = line_addr / LINES_PER_PAGE;
        if self.memo[self.last_hit].page == page {
            return self.last_hit;
        }
        let other = 1 - self.last_hit;
        if self.memo[other].page == page {
            self.last_hit = other;
            return other;
        }
        // Miss: resolve the page and load it into the slot not just used.
        let (tier, owner) = match self.space.resolve_dram(line_addr * CACHE_LINE_SIZE) {
            Ok(resolved) => resolved,
            Err(oom) => panic!("simulated OOM abort: {oom}"),
        };
        let victim = &mut self.memo[other];
        if victim.pending > 0 {
            self.space
                // dismem-lint: allow(single-recording-point) — victim slot
                // flush on memo miss; same feed path as `flush` above.
                .record_dram_traffic(victim.owner, victim.tier, victim.page, victim.pending);
        }
        self.memo[other] = MemoSlot {
            page,
            tier,
            owner,
            pending: 0,
        };
        self.last_hit = other;
        other
    }
}

impl DramSink for TallySink<'_> {
    #[inline]
    fn event(&mut self, line_addr: u64, kind: DramEventKind) {
        let slot = self.slot_for(line_addr);
        let memo = &mut self.memo[slot];
        memo.pending += 1;
        let tier = memo.tier;
        self.tally.tally(tier, kind);
    }

    #[inline]
    fn bulk_event(&mut self, line_addr: u64, kind: DramEventKind, count: u64) {
        if count == 0 {
            return;
        }
        let slot = self.slot_for(line_addr);
        let memo = &mut self.memo[slot];
        memo.pending += count;
        let tier = memo.tier;
        self.tally.tally_n(tier, kind, count);
    }
}

/// The simulated compute node.
pub struct Machine {
    config: MachineConfig,
    space: AddressSpace,
    cache: CacheSim,
    timing: TimingModel,
    interference: InterferenceProfile,

    clock_s: f64,
    chunk: Counters,
    dram_events: Vec<DramEvent>,
    /// Pool-tier DRAM lines accumulated in the open chunk; folded into
    /// `chunk.link_raw_bytes` (payload × protocol overhead, rounded once)
    /// when the chunk closes, so the protocol overhead is exact instead of
    /// accumulating per-line rounding drift.
    chunk_pool_link_lines: u64,
    /// Whether the batched line-walk fast path is used (default). Disabled,
    /// the machine walks every access line by line exactly as the reference
    /// implementation does — the two paths produce bit-identical reports.
    batched: bool,
    /// Dynamic tiering: installed policy, epoch accumulator, damper history
    /// and migration statistics. Defaults to [`TieringSpec::Static`], which
    /// never fires an epoch.
    tiering: TieringRuntime,

    phase_names: Vec<String>,
    phase_counters: Vec<Counters>,
    phase_runtimes: Vec<f64>,
    current_phase: Option<usize>,

    total: Counters,
    timeline: Vec<TimelineSample>,

    /// Optional flight recorder ([`Machine::set_recorder`]). `None` (the
    /// default) keeps every hot path free of event construction; the
    /// recorded/unrecorded bit-identity of [`RunReport`]s is pinned by the
    /// workspace property tests.
    recorder: Option<Box<dyn Recorder>>,
    /// Capacity spills already reported to the recorder (the address-space
    /// counter is monotone; the delta since this mark is emitted as one
    /// [`TraceEvent::TierSpill`] per chunk close).
    spilled_seen: u64,
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        let space = AddressSpace::new(config.local.capacity_bytes, config.pool.capacity_bytes);
        let prefetcher = StreamPrefetcher::new(config.prefetch);
        let cache = CacheSim::new(config.cache, prefetcher);
        let timing = TimingModel::new(config.clone());
        Self {
            config,
            space,
            cache,
            timing,
            interference: InterferenceProfile::Idle,
            clock_s: 0.0,
            chunk: Counters::default(),
            dram_events: Vec::with_capacity(64),
            chunk_pool_link_lines: 0,
            batched: true,
            tiering: TieringRuntime::new(TieringSpec::Static),
            phase_names: Vec::new(),
            phase_counters: Vec::new(),
            phase_runtimes: Vec::new(),
            current_phase: None,
            total: Counters::default(),
            timeline: Vec::new(),
            recorder: None,
            spilled_seen: 0,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Sets the background interference profile on the pool link.
    pub fn set_interference(&mut self, profile: InterferenceProfile) {
        self.interference = profile;
    }

    /// Installs a dynamic tiering policy (see [`crate::tiering`]).
    ///
    /// Install before driving traffic: installation resets the hotness
    /// tracker, the epoch accumulator and the ping-pong damper history
    /// (migration statistics already accumulated are kept, so a report still
    /// reflects the whole run, under the label of the policy installed
    /// last). With [`TieringSpec::Static`] (the default) the machine never
    /// fires an epoch and behaves bit-identically to the pre-tiering
    /// simulator.
    pub fn set_tiering_spec(&mut self, spec: &TieringSpec) {
        let tracker = spec
            .epoch_lines()
            .map(|_| HotnessTracker::new(spec.decay()));
        self.space.set_hotness(tracker);
        self.tiering = TieringRuntime {
            report: std::mem::take(&mut self.tiering.report),
            ..TieringRuntime::new(*spec)
        };
    }

    /// Enables or disables the batched line-walk fast path (enabled by
    /// default). With batching off the machine processes every access with
    /// the per-line reference pipeline; results are bit-identical either way
    /// (guaranteed by the workspace property tests), only the wall-clock
    /// speed differs.
    pub fn set_batched_access(&mut self, enabled: bool) {
        self.batched = enabled;
    }

    /// Enables or disables the steady-state page-replay engine (enabled by
    /// default; only active on the batched pipeline). With replay on, long
    /// sequential streams whose per-page cache behaviour has been proven
    /// periodic are applied in closed form instead of walked line by line;
    /// reports stay bit-identical either way (guaranteed by the workspace
    /// property tests). Disabling mid-run is safe: any in-flight replay is
    /// materialized to the exact cache state first.
    pub fn set_replay(&mut self, enabled: bool) {
        self.cache.set_replay_enabled(enabled);
    }

    /// Whether the steady-state page-replay engine is enabled.
    pub fn replay_enabled(&self) -> bool {
        self.cache.replay_enabled()
    }

    /// Number of whole windows the replay engine has applied so far (each
    /// window is [`Machine::replay_window_pages`] pages). Zero means every
    /// access was simulated exactly.
    pub fn replay_windows(&self) -> u64 {
        self.cache.replay_windows()
    }

    /// Pages per replay window for this machine's cache geometry.
    pub fn replay_window_pages(&self) -> u64 {
        self.cache.replay_window_pages()
    }

    /// Always zero: window replay is the replay engine's only closed form.
    /// Kept only because the out-of-workspace benchmark (`perfbench/`)
    /// still reads it.
    pub fn replay_passes(&self) -> u64 {
        0
    }

    /// Always zero, like [`Machine::replay_passes`], and kept for the same
    /// reason.
    pub fn replay_stride_elements(&self) -> u64 {
        0
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.clock_s
    }

    /// Installs a flight recorder (see `dismem_trace::flight`). Events are
    /// timestamped by simulated clocks only — the application-DRAM-line
    /// clock and the tiering epoch ordinal — so a recorded run's event
    /// stream is as deterministic as its [`RunReport`]. Recording is
    /// strictly read-only: the report of a recorded run is bit-identical to
    /// an unrecorded one. Capacity spills are reported from installation
    /// onwards.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.spilled_seen = self.space.spilled_pages();
        self.cache.set_replay_trace(true);
        self.recorder = Some(recorder);
    }

    /// Removes the installed flight recorder, draining any pending replay
    /// transitions and spill deltas into it first. Call after
    /// [`Machine::finish`] so the final chunk's events are included.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        if self.recorder.is_some() {
            self.emit_chunk_trace();
        }
        self.cache.set_replay_trace(false);
        self.recorder.take()
    }

    /// The application-DRAM-line trace clock: demand/prefetch fills plus
    /// writebacks on both tiers, folded into the totals at chunk closes.
    /// Pipeline-identical (per-line, batched and replay agree bit for bit)
    /// and monotone, which makes it a sound timestamp base.
    fn app_lines_clock(&self) -> u64 {
        self.total.dram_lines_local
            + self.total.dram_lines_pool
            + self.total.writeback_lines_local
            + self.total.writeback_lines_pool
    }

    /// Drains replay transitions collected since the last chunk close and
    /// the capacity-spill delta into the recorder, stamped with the current
    /// application-line clock. Only called with a recorder installed.
    fn emit_chunk_trace(&mut self) {
        let app_lines = self.app_lines_clock();
        let transitions = self.cache.drain_replay_transitions();
        let spilled = self.space.spilled_pages();
        let Some(recorder) = self.recorder.as_deref_mut() else {
            return;
        };
        for transition in transitions {
            recorder.record_event(match transition {
                ReplayTransition::Engaged => TraceEvent::ReplayEngaged {
                    app_lines,
                    mode: ReplayMode::Window,
                },
                ReplayTransition::Exited(reason) => TraceEvent::ReplayExited {
                    app_lines,
                    mode: ReplayMode::Window,
                    reason: reason.to_string(),
                },
            });
        }
        if spilled > self.spilled_seen {
            recorder.record_event(TraceEvent::TierSpill {
                app_lines,
                pages: spilled - self.spilled_seen,
            });
            self.spilled_seen = spilled;
        }
    }

    /// Finishes the run and produces the report. The machine can keep being
    /// used afterwards (e.g. to run another phase), but typically a fresh
    /// machine is created per run.
    pub fn finish(&mut self) -> RunReport {
        self.close_chunk();
        // A tiering epoch firing at that close deposits its migration traffic
        // into a fresh chunk; close again so it is timed and reported. The
        // second close cannot fire another epoch (migration traffic does not
        // count towards the epoch accumulator), so two closes always drain.
        self.close_chunk();
        debug_assert_eq!(self.chunk, Counters::default());
        let line_bytes = self.config.cache.line_bytes;
        let phases = self
            .phase_names
            .iter()
            .zip(&self.phase_counters)
            .zip(&self.phase_runtimes)
            .map(|((name, counters), runtime)| PhaseReport {
                name: name.clone(),
                counters: *counters,
                runtime_s: *runtime,
                line_bytes,
            })
            .collect();
        let allocations = self
            .space
            .allocations()
            .iter()
            .zip(self.space.placements())
            .map(|(rec, pl)| AllocationSummary {
                name: rec.name.clone(),
                site: rec.site.clone(),
                bytes: rec.bytes,
                order: rec.order,
                freed: rec.freed,
                pages_local: pl.pages_local,
                pages_pool: pl.pages_pool,
                dram_lines_local: pl.dram_lines_local,
                dram_lines_pool: pl.dram_lines_pool,
            })
            .collect();
        RunReport {
            config: self.config.clone(),
            phases,
            total: self.total,
            total_runtime_s: self.clock_s,
            allocations,
            timeline: self.timeline.clone(),
            page_histogram: self.space.histogram().clone(),
            peak_footprint_bytes: self.space.peak_footprint_bytes(),
            local_pages_used: self.space.local_pages_used(),
            pool_pages_used: self.space.pool_pages_used(),
            tiering: self.tiering_report(),
        }
    }

    fn tiering_report(&self) -> TieringReport {
        let report = &self.tiering.report;
        let migrated_pages = report.promotions + report.demotions;
        TieringReport {
            policy: self.tiering.spec.label().to_string(),
            migrated_pages,
            migrated_bytes: migrated_pages * dismem_trace::PAGE_SIZE,
            ..report.clone()
        }
    }

    fn close_chunk(&mut self) {
        if self.chunk_pool_link_lines > 0 {
            // Fold the chunk's pool traffic into raw link bytes in one step:
            // exact payload × protocol overhead, rounded once per chunk
            // instead of once per line.
            let payload = (self.chunk_pool_link_lines * self.config.cache.line_bytes) as f64;
            self.chunk.link_raw_bytes =
                (payload * self.config.link.protocol_overhead()).round() as u64;
            self.chunk_pool_link_lines = 0;
        }
        if self.chunk == Counters::default() {
            // Nothing to time, but transitions recorded since the last close
            // (e.g. a reset with no traffic after it) still need draining.
            if self.recorder.is_some() {
                self.emit_chunk_trace();
            }
            return;
        }
        let loi = self.interference.loi_at(self.clock_s);
        let breakdown = self.timing.chunk_time(&self.chunk, loi);
        let duration = breakdown.total_s;
        self.timeline.push(TimelineSample {
            start_s: self.clock_s,
            duration_s: duration,
            counters: self.chunk,
            phase: self.current_phase,
        });
        if let Some(p) = self.current_phase {
            self.phase_counters[p].add(&self.chunk);
            self.phase_runtimes[p] += duration;
        }
        self.total.add(&self.chunk);
        self.clock_s += duration;
        // Application DRAM lines drive the tiering epoch clock (migration
        // lines deliberately excluded, so a migration burst cannot re-fire an
        // epoch on its own).
        let app_dram_lines = self.chunk.dram_lines_local
            + self.chunk.dram_lines_pool
            + self.chunk.writeback_lines_local
            + self.chunk.writeback_lines_pool;
        self.chunk = Counters::default();
        if self.recorder.is_some() {
            // Emit before a possible tiering epoch so replay transitions from
            // this chunk's walks order ahead of the epoch's events.
            self.emit_chunk_trace();
        }
        if let Some(epoch_lines) = self.tiering.spec.epoch_lines() {
            self.tiering.epoch_acc += app_dram_lines;
            if self.tiering.epoch_acc >= epoch_lines {
                self.tiering.epoch_acc = 0;
                self.run_tiering_epoch();
            }
        }
    }

    /// Completes a hotness epoch: folds the tracker, asks the policy for
    /// migrations, applies them to the address space and charges the moved
    /// pages as page-sized traffic on both tiers and the pool link (the
    /// charge lands in the chunk that is just opening, so the timing model
    /// prices it at the placement it created).
    ///
    /// Runs only between cache walks (chunk closes never happen mid-walk).
    /// Any applied migration hard-resets the replay engine: tier bindings are
    /// part of the environment a replayed window re-emits traffic against, so
    /// in-flight replay is materialized and all detection state (including an
    /// armed snapshot) is dropped before the next walk can arm or replay.
    fn run_tiering_epoch(&mut self) {
        let Some(tracker) = self.space.hotness_mut() else {
            return;
        };
        let dwell = tracker.end_epoch();
        let hot_pages = dwell.pages;
        {
            // Phase-dwell bookkeeping: each epoch extends the open dwell, and
            // a hot-set shift closes it (the new hot set starts a dwell of
            // one epoch). An epoch whose hot set vanished entirely leaves no
            // open dwell behind.
            let s = &mut self.tiering.report;
            s.hot_set_pages_max = s.hot_set_pages_max.max(dwell.pages);
            if dwell.shifted {
                s.hot_set_shifts += 1;
                s.dwell_epochs_total += s.open_dwell_epochs;
                s.open_dwell_epochs = u64::from(dwell.pages > 0);
            } else if dwell.pages > 0 {
                s.open_dwell_epochs += 1;
            }
        }
        self.tiering.epoch += 1;
        let epoch = self.tiering.epoch;
        let cooldown = self.tiering.spec.cooldown_epochs();
        if cooldown > 0 {
            self.tiering
                .last_migrated
                .retain(|_, last| epoch - *last <= cooldown);
        }

        // Sample every bound page with its decayed heat, sorted hottest-first
        // (page number as tie-break) so policy decisions are deterministic
        // regardless of hash-map iteration order.
        let tracker = self.space.hotness().expect("tracker installed above");
        let mut samples: Vec<PageSample> = self
            .space
            .bound_pages()
            .map(|(page, tier)| PageSample {
                page,
                tier,
                heat: tracker.heat_of(page),
                cooling: self.tiering.damped(page, epoch, cooldown),
            })
            .collect();
        samples
            .sort_unstable_by(|a, b| b.heat.total_cmp(&a.heat).then_with(|| a.page.cmp(&b.page)));
        let occupancy = TierOccupancy {
            local_used: self.space.local_pages_used(),
            local_capacity: self
                .config
                .local
                .capacity_bytes
                .map(dismem_trace::access::pages_for),
        };
        let orders = self.tiering.spec.plan(epoch, &samples, &occupancy);

        // Epoch events share one timestamp: the application-line clock at the
        // chunk close that fired this epoch (totals already include it).
        let app_lines = self.app_lines_clock();
        let mut moved = 0u64;
        for order in orders {
            if self.tiering.damped(order.page, epoch, cooldown) {
                self.tiering.report.ping_pongs_damped += 1;
                continue;
            }
            match self.space.rebind_page(order.page, order.to) {
                Ok(from) if from != order.to => {
                    moved += 1;
                    self.tiering.last_migrated.insert(order.page, epoch);
                    match order.to {
                        Tier::Local => self.tiering.report.promotions += 1,
                        Tier::Pool => self.tiering.report.demotions += 1,
                    }
                    if let Some(recorder) = self.recorder.as_deref_mut() {
                        recorder.record_event(TraceEvent::MigrationApplied {
                            epoch,
                            app_lines,
                            page: order.page,
                            from: trace_tier(from),
                            to: trace_tier(order.to),
                        });
                    }
                }
                Ok(_) => {}
                Err(crate::address_space::RebindError::NoCapacity) => {
                    self.tiering.report.skipped_capacity += 1;
                }
                Err(crate::address_space::RebindError::Unbound) => {}
            }
        }
        self.tiering.report.epochs += 1;
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.record_event(TraceEvent::EpochClosed {
                epoch,
                app_lines,
                hot_pages,
                dwell_epochs: self.tiering.report.open_dwell_epochs,
                hot_set_shifts: self.tiering.report.hot_set_shifts,
                migrated_pages: moved,
            });
        }
        if moved > 0 {
            // Each migrated page is read from one tier and written to the
            // other; one side is always the pool, so the whole payload also
            // crosses the link (folded into `link_raw_bytes` with protocol
            // overhead when this chunk closes).
            let lines = moved * LINES_PER_PAGE;
            self.chunk.migration_lines_local += lines;
            self.chunk.migration_lines_pool += lines;
            self.chunk_pool_link_lines += lines;
            // Rebinding pages changes where replayed DRAM events land: every
            // applied migration must drop ALL replay state — window, pass
            // and strided alike (the reset materializes first, so the cache
            // state stays exact).
            self.cache.replay_hard_reset();
        }
    }

    /// The chunk-close policy, shared by `maybe_close_chunk` and the batched
    /// element walk so the two pipelines can never disagree on boundaries.
    /// An associated function over the fields it needs, so callers holding
    /// disjoint field borrows (the batched walk's tally sink) can use it.
    fn chunk_full(config: &MachineConfig, chunk: &Counters) -> bool {
        chunk.bytes_dram(config.cache.line_bytes) >= config.chunk_bytes
            || chunk.flops >= config.chunk_flops
    }

    fn maybe_close_chunk(&mut self) {
        if Self::chunk_full(&self.config, &self.chunk) {
            self.close_chunk();
        }
    }

    /// Per-line reference drain: resolves the serving tier event by event
    /// through the shared counter mapping, folded once per drain.
    fn process_dram_events(&mut self) {
        // Drain into a local buffer to avoid borrowing issues.
        let mut events = std::mem::take(&mut self.dram_events);
        let mut tally = DramTally::default();
        for ev in events.drain(..) {
            let addr = ev.line_addr * CACHE_LINE_SIZE;
            // dismem-lint: allow(single-recording-point) — the per-line
            // reference pipeline resolves each event through the recording
            // point itself; this is the call into it, not a bypass.
            let tier = match self.space.dram_access(addr) {
                Ok(t) => t,
                Err(oom) => panic!("simulated OOM abort: {oom}"),
            };
            tally.tally(tier, ev.kind);
        }
        tally.fold_into(&mut self.chunk, &mut self.chunk_pool_link_lines);
        self.dram_events = events;
    }

    /// Batched walk over a contiguous run of cache lines: the cache walks
    /// the whole run in one call and every DRAM transaction is tallied
    /// inline by a [`TallySink`] — no event queue, no per-line drain.
    fn walk_lines_batched(&mut self, first_line: u64, last_line: u64, is_write: bool) {
        let mut sink = TallySink::new(&mut self.space);
        self.cache.demand_access_range(
            first_line,
            last_line - first_line + 1,
            is_write,
            &mut self.chunk,
            &mut sink,
        );
        sink.flush();
        let mut tally = sink.tally;
        tally.fold_into(&mut self.chunk, &mut self.chunk_pool_link_lines);
    }

    /// Batched scattered-element walk shared by `gather_batch` and
    /// `strided_batch`: element line-runs stream through one tally sink, and
    /// *contiguous* consecutive elements (the next element's first line
    /// exactly follows the previous element's last — dense sub-line strided
    /// sweeps, multi-line elements laid out back to back, and sorted
    /// gathers at the points where they cross a line boundary) are merged
    /// into a single cache walk so repeated-page traffic hits the page
    /// memos and the replay detector sees whole runs instead of
    /// per-element fragments. Consecutive elements that *share* a line
    /// (e.g. 8-byte gathers of neighbouring slots) deliberately do not
    /// merge: each is a separate demand reference, and dropping the repeat
    /// would break bit-identity with the per-element reference path.
    ///
    /// Chunk-close decisions stay identical to the per-element reference
    /// path: a merge is only allowed while the worst-case DRAM traffic of
    /// the merged lines cannot reach the chunk threshold, which proves every
    /// skipped intermediate `chunk_full` check would have returned false
    /// (flops do not change inside the walk, and the byte counters are
    /// monotone).
    fn walk_elements_batched(
        &mut self,
        handle: ObjectHandle,
        offsets: impl Iterator<Item = u64>,
        elem_bytes: u64,
        kind: AccessKind,
    ) {
        let object_bytes = self.space.object_bytes(handle);
        let base = self.space.base_addr(handle);
        let is_write = kind.is_write();
        // Worst-case DRAM bytes one demand line can produce: its fill, a
        // dirty LLC victim writeback from that fill, and a second writeback
        // when its dirty L2 victim misses the LLC and evicts another dirty
        // line there — three transactions, and the same triple for each of
        // up to `degree` prefetches it can trigger.
        let worst_bytes_per_line =
            3 * (1 + self.config.prefetch.degree as u64) * self.config.cache.line_bytes;
        let line_bytes = self.config.cache.line_bytes;

        let mut sink = TallySink::new(&mut self.space);
        // The contiguous run being accumulated, plus how many more lines may
        // be merged into it before a chunk_full check must be taken.
        let mut run: Option<(u64, u64)> = None;
        let mut merge_budget_lines = 0u64;
        // Strictly below the threshold: `chunk_full` fires at >=, so the
        // merged traffic must not be able to even *reach* `chunk_bytes` at a
        // skipped intermediate element.
        let fresh_budget = |chunk: &Counters, config: &MachineConfig| {
            config
                .chunk_bytes
                .saturating_sub(chunk.bytes_dram(line_bytes))
                .saturating_sub(1)
                / worst_bytes_per_line.max(1)
        };

        for offset in offsets {
            debug_assert!(
                offset + elem_bytes <= object_bytes.max(dismem_trace::PAGE_SIZE),
                "access beyond end of object (offset {offset} + {elem_bytes} > {object_bytes})"
            );
            let addr = base + offset;
            let first_line = addr / CACHE_LINE_SIZE;
            let last_line = (addr + elem_bytes - 1) / CACHE_LINE_SIZE;
            let lines = last_line - first_line + 1;

            if let Some((_, run_last)) = run {
                if first_line == run_last + 1 && lines <= merge_budget_lines {
                    run = run.map(|(f, _)| (f, last_line));
                    merge_budget_lines -= lines;
                    continue;
                }
            }

            // Flush the pending run, then take the chunk_full decision the
            // reference path would have taken at this element boundary.
            if let Some((run_first, run_last)) = run.take() {
                self.cache.demand_access_range(
                    run_first,
                    run_last - run_first + 1,
                    is_write,
                    &mut self.chunk,
                    &mut sink,
                );
                sink.tally
                    .fold_into(&mut self.chunk, &mut self.chunk_pool_link_lines);
                if Self::chunk_full(&self.config, &self.chunk) {
                    // The sink's borrow of `self.space` ends with this flush
                    // (its last use), freeing `self` for the chunk close.
                    sink.flush();
                    self.close_chunk();
                    sink = TallySink::new(&mut self.space);
                }
            }
            merge_budget_lines = fresh_budget(&self.chunk, &self.config).saturating_sub(lines);
            run = Some((first_line, last_line));
        }

        if let Some((run_first, run_last)) = run {
            self.cache.demand_access_range(
                run_first,
                run_last - run_first + 1,
                is_write,
                &mut self.chunk,
                &mut sink,
            );
        }
        sink.flush();
        let mut tally = sink.tally;
        tally.fold_into(&mut self.chunk, &mut self.chunk_pool_link_lines);
        self.maybe_close_chunk();
    }

    /// Direct access to the underlying address space (placement inspection).
    pub fn address_space(&self) -> &AddressSpace {
        &self.space
    }

    /// Frees an object, surfacing invalid frees (unknown handle, double
    /// free) as a typed [`FreeError`] instead of aborting. The
    /// [`MemoryEngine::free`] implementation panics on these errors to keep
    /// the abort-on-programming-error contract workloads rely on; callers
    /// that want to recover use this entry point.
    pub fn try_free(&mut self, handle: ObjectHandle) -> Result<(), FreeError> {
        // Close the chunk first so traffic before the free is timed with the
        // placement that produced it.
        self.close_chunk();
        self.space.free(handle)
    }
}

fn trace_tier(tier: Tier) -> TraceTier {
    match tier {
        Tier::Local => TraceTier::Local,
        Tier::Pool => TraceTier::Pool,
    }
}

impl MemoryEngine for Machine {
    fn alloc_with_policy(
        &mut self,
        name: &str,
        site: &str,
        bytes: u64,
        policy: PlacementPolicy,
    ) -> ObjectHandle {
        self.space.alloc(name, site, bytes, policy)
    }

    fn free(&mut self, handle: ObjectHandle) {
        if let Err(e) = self.try_free(handle) {
            panic!("{e}");
        }
    }

    fn phase_start(&mut self, name: &str) {
        self.close_chunk();
        assert!(
            self.current_phase.is_none(),
            "phase_start('{name}') while another phase is open"
        );
        self.phase_names.push(name.to_string());
        self.phase_counters.push(Counters::default());
        self.phase_runtimes.push(0.0);
        self.current_phase = Some(self.phase_names.len() - 1);
    }

    fn phase_end(&mut self) {
        assert!(
            self.current_phase.is_some(),
            "phase_end without phase_start"
        );
        self.close_chunk();
        self.current_phase = None;
    }

    fn access(&mut self, handle: ObjectHandle, offset: u64, bytes: u64, kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let object_bytes = self.space.object_bytes(handle);
        debug_assert!(
            offset + bytes <= object_bytes.max(dismem_trace::PAGE_SIZE),
            "access beyond end of object (offset {offset} + {bytes} > {object_bytes})"
        );
        let base = self.space.base_addr(handle) + offset;
        let first_line = base / CACHE_LINE_SIZE;
        let last_line = (base + bytes - 1) / CACHE_LINE_SIZE;
        let is_write = kind.is_write();
        if self.batched {
            self.walk_lines_batched(first_line, last_line, is_write);
        } else {
            for line in first_line..=last_line {
                self.cache
                    .demand_access(line, is_write, &mut self.chunk, &mut self.dram_events);
                if !self.dram_events.is_empty() {
                    self.process_dram_events();
                }
            }
        }
        self.maybe_close_chunk();
    }

    fn gather_batch(
        &mut self,
        handle: ObjectHandle,
        offsets: &[u64],
        elem_bytes: u64,
        kind: AccessKind,
    ) {
        if elem_bytes == 0 || offsets.is_empty() {
            return;
        }
        if !self.batched {
            // Reference path: exactly the trait's default per-element loop.
            for &off in offsets {
                self.access(handle, off, elem_bytes, kind);
            }
            return;
        }
        self.walk_elements_batched(handle, offsets.iter().copied(), elem_bytes, kind);
    }

    fn strided_batch(
        &mut self,
        handle: ObjectHandle,
        start: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
        kind: AccessKind,
    ) {
        if elem_bytes == 0 || count == 0 {
            return;
        }
        if !self.batched {
            let mut offset = start;
            for _ in 0..count {
                self.access(handle, offset, elem_bytes, kind);
                offset += stride_bytes;
            }
            return;
        }
        self.walk_elements_batched(
            handle,
            (0..count).map(|i| start + i * stride_bytes),
            elem_bytes,
            kind,
        );
    }

    fn flops(&mut self, n: u64) {
        self.chunk.flops += n;
        self.maybe_close_chunk();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_trace::PAGE_SIZE;

    fn machine_with_local_cap(pages: u64) -> Machine {
        let config = MachineConfig::test_config().with_local_capacity(pages * PAGE_SIZE);
        Machine::new(config)
    }

    #[test]
    fn simple_run_produces_consistent_report() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc("A", "t", 1 << 20);
        m.phase_start("p1");
        m.touch(a, 1 << 20);
        m.flops(1_000_000);
        m.phase_end();
        let report = m.finish();

        assert_eq!(report.phases.len(), 1);
        let p = &report.phases[0];
        assert_eq!(p.name, "p1");
        assert!(p.runtime_s > 0.0);
        assert_eq!(p.counters.flops, 1_000_000);
        // All traffic local (no capacity limit).
        assert_eq!(report.total.dram_lines_pool, 0);
        assert!(report.total.dram_lines_local > 0);
        assert_eq!(report.remote_access_ratio(), 0.0);
        assert_eq!(report.peak_footprint_bytes, 1 << 20);
        // Conservation: lines into L2 = demand misses + prefetches.
        assert_eq!(
            report.total.l2_lines_in,
            report.total.l2_demand_misses + report.total.pf_issued
        );
    }

    #[test]
    fn capacity_pressure_sends_traffic_to_pool() {
        // 16 pages local, object of 64 pages: most traffic should go remote.
        let mut m = machine_with_local_cap(16);
        let a = m.alloc("big", "t", 64 * PAGE_SIZE);
        m.phase_start("p1");
        m.touch(a, 64 * PAGE_SIZE);
        m.read(a, 0, 64 * PAGE_SIZE);
        m.phase_end();
        let report = m.finish();
        assert!(report.total.dram_lines_pool > 0);
        assert!(report.remote_access_ratio() > 0.4);
        assert!(report.remote_capacity_ratio() > 0.6);
        assert!(report.total.link_raw_bytes > 0);
        assert!(report.allocation("big").unwrap().pages_pool > 0);
    }

    #[test]
    fn interference_slows_down_pool_bound_run() {
        let build = |loi: f64| {
            let mut m = machine_with_local_cap(1);
            m.set_interference(InterferenceProfile::Constant(loi));
            let a = m.alloc("remote", "t", 8 << 20);
            m.phase_start("p1");
            // Stream the object twice: almost everything remote.
            m.read(a, 0, 8 << 20);
            m.read(a, 0, 8 << 20);
            m.phase_end();
            m.finish().total_runtime_s
        };
        let t0 = build(0.0);
        let t50 = build(0.5);
        assert!(
            t50 > t0 * 1.05,
            "50% LoI should slow a pool-bound run: {t50} vs {t0}"
        );
    }

    #[test]
    fn prefetch_toggle_changes_performance_not_placement() {
        let run = |prefetch: bool| {
            let mut m = Machine::new(MachineConfig::test_config().with_prefetch(prefetch));
            let a = m.alloc("A", "t", 4 << 20);
            m.phase_start("p1");
            m.touch(a, 4 << 20);
            m.read(a, 0, 4 << 20);
            m.phase_end();
            m.finish()
        };
        let with_pf = run(true);
        let without_pf = run(false);
        assert!(with_pf.total.pf_issued > 0);
        assert_eq!(without_pf.total.pf_issued, 0);
        assert!(
            with_pf.total_runtime_s < without_pf.total_runtime_s,
            "prefetching must help a streaming run"
        );
        assert_eq!(
            with_pf.local_pages_used, without_pf.local_pages_used,
            "placement must not depend on prefetching"
        );
    }

    #[test]
    fn timeline_covers_total_runtime() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc("A", "t", 2 << 20);
        m.phase_start("p1");
        m.touch(a, 2 << 20);
        m.phase_end();
        let report = m.finish();
        let sum: f64 = report.timeline.iter().map(|s| s.duration_s).sum();
        assert!((sum - report.total_runtime_s).abs() < 1e-12);
        assert!(!report.timeline.is_empty());
        // Samples are ordered and contiguous.
        for w in report.timeline.windows(2) {
            assert!(w[1].start_s >= w[0].start_s);
        }
    }

    #[test]
    fn free_closes_chunk_and_releases_capacity() {
        let mut m = machine_with_local_cap(4);
        let temp = m.alloc("temp", "init", 4 * PAGE_SIZE);
        m.phase_start("init");
        m.touch(temp, 4 * PAGE_SIZE);
        m.phase_end();
        m.free(temp);
        let hot = m.alloc("hot", "solve", 4 * PAGE_SIZE);
        m.phase_start("solve");
        m.touch(hot, 4 * PAGE_SIZE);
        m.read(hot, 0, 4 * PAGE_SIZE);
        m.phase_end();
        let report = m.finish();
        let hot_alloc = report.allocation("hot").unwrap();
        assert_eq!(hot_alloc.pages_pool, 0, "freed local pages must be reused");
        assert!(report.allocation("temp").unwrap().freed);
    }

    #[test]
    fn flops_only_run_is_compute_bound() {
        let mut m = Machine::new(MachineConfig::test_config());
        m.phase_start("compute");
        m.flops(5_000_000_000);
        m.phase_end();
        let report = m.finish();
        let expected = 5_000_000_000.0 / m.config().peak_flops;
        assert!((report.total_runtime_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn phase_counters_sum_to_total() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc("A", "t", 1 << 20);
        m.phase_start("p1");
        m.touch(a, 1 << 20);
        m.phase_end();
        m.phase_start("p2");
        m.read(a, 0, 1 << 20);
        m.flops(123);
        m.phase_end();
        let report = m.finish();
        let mut summed = Counters::default();
        for p in &report.phases {
            summed.add(&p.counters);
        }
        assert_eq!(summed, report.total);
        let phase_time: f64 = report.phases.iter().map(|p| p.runtime_s).sum();
        assert!((phase_time - report.total_runtime_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "phase_end without")]
    fn unbalanced_phase_panics() {
        let mut m = Machine::new(MachineConfig::test_config());
        m.phase_end();
    }

    #[test]
    #[should_panic(expected = "simulated OOM abort")]
    fn oom_aborts_run() {
        let config = MachineConfig::test_config()
            .with_local_capacity(PAGE_SIZE)
            .with_pool_capacity(PAGE_SIZE);
        let mut m = Machine::new(config);
        let a = m.alloc("A", "t", 4 * PAGE_SIZE);
        m.touch(a, 4 * PAGE_SIZE);
    }

    #[test]
    fn batched_and_per_line_paths_are_bit_identical() {
        let run = |batched: bool, big_cache: bool| {
            let mut config = MachineConfig::test_config().with_local_capacity(24 * PAGE_SIZE);
            if big_cache {
                // Production-like geometry: 512 L2 sets / 2 MiB LLC.
                config.cache = crate::config::CacheParams::scaled_emulation();
            }
            let mut m = Machine::new(config);
            m.set_batched_access(batched);
            let a = m.alloc("stream", "t", 2 << 20);
            let b = m.alloc("table", "t", 1 << 20);
            m.phase_start("mixed");
            m.touch(a, 2 << 20);
            m.touch(b, 1 << 20);
            m.read(a, 0, 2 << 20);
            m.strided(b, 8, 500, 16, 1024, AccessKind::Read);
            m.gather(b, &[0, 64, 8192, 128, 65_536, 40], 8);
            m.scatter(a, &[4096, 0, 123_456], 8);
            m.flops(2_000_000);
            m.phase_end();
            m.free(b);
            let c = m.alloc("late", "t", 256 * 1024);
            m.phase_start("tail");
            m.touch(c, 256 * 1024);
            m.read(c, 0, 256 * 1024);
            // Interrupt a stream with conflicting traffic, then resume it:
            // prefetched-ahead lines may be conflict-evicted in between.
            m.read(a, 0, 64 * 1024);
            m.read(c, 0, 256 * 1024);
            m.read(a, 64 * 1024, 64 * 1024);
            m.phase_end();
            m.finish()
        };
        for big_cache in [false, true] {
            let batched = run(true, big_cache);
            let per_line = run(false, big_cache);
            assert_eq!(batched, per_line);
        }
    }

    #[test]
    fn replay_engages_on_long_streams_and_stays_bit_identical() {
        let run = |batched: bool, replay: bool| {
            let mut config = MachineConfig::test_config().with_local_capacity(700 * PAGE_SIZE);
            config.cache = crate::config::CacheParams::scaled_emulation();
            let mut m = Machine::new(config);
            m.set_batched_access(batched);
            m.set_replay(replay);
            let bytes = 4 << 20; // 1024 pages: crosses the local→pool boundary
            let a = m.alloc("stream", "t", bytes);
            m.phase_start("p");
            m.touch(a, bytes);
            m.read(a, 0, bytes);
            m.read(a, 0, bytes);
            m.phase_end();
            let windows = m.replay_windows();
            (m.finish(), windows)
        };
        let (with_replay, windows) = run(true, true);
        let (without_replay, no_windows) = run(true, false);
        let (per_line, _) = run(false, false);
        assert!(windows > 0, "replay must engage on a 1024-page warm stream");
        assert_eq!(no_windows, 0);
        assert_eq!(with_replay, without_replay);
        assert_eq!(with_replay, per_line);
    }

    /// A scaffold for tiering tests: a cold object fills the whole local
    /// tier, a hot object lands entirely on the pool, and the hot object is
    /// then streamed `passes` times. A promotion policy must demote the cold
    /// pages and pull the hot ones local. Returns the machine unfinished.
    fn hot_cold_machine(spec: Option<TieringSpec>, passes: usize) -> Machine {
        let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
        let mut m = Machine::new(config);
        if let Some(spec) = spec {
            m.set_tiering_spec(&spec);
        }
        let cold = m.alloc("cold", "t", 40 * PAGE_SIZE);
        let hot = m.alloc("hot", "t", 32 * PAGE_SIZE);
        m.phase_start("init");
        m.touch(cold, 40 * PAGE_SIZE);
        m.touch(hot, 32 * PAGE_SIZE);
        m.phase_end();
        m.phase_start("loop");
        for _ in 0..passes {
            m.read(hot, 0, 32 * PAGE_SIZE);
        }
        m.phase_end();
        m
    }

    fn run_hot_cold(spec: Option<TieringSpec>, passes: usize) -> RunReport {
        hot_cold_machine(spec, passes).finish()
    }

    fn hot_promote_policy() -> TieringSpec {
        TieringSpec::HotPromote(crate::tiering::HotPromote {
            demote_heat: 8.0,
            ..crate::tiering::HotPromote::new(4096, 32.0)
        })
    }

    #[test]
    fn hot_promote_migrates_hot_pages_and_beats_static() {
        let static_report = run_hot_cold(None, 12);
        let promoted = run_hot_cold(Some(hot_promote_policy()), 12);

        assert_eq!(
            static_report.tiering,
            crate::report::TieringReport::default()
        );
        assert_eq!(static_report.total.migration_lines_pool, 0);

        let t = &promoted.tiering;
        assert_eq!(t.policy, "hot-promote");
        assert!(t.epochs > 0, "epochs must fire: {t:?}");
        // One hot-set shift at most: the init pass (touching both objects)
        // forms its own hot set, and the loop's contraction to the hot object
        // may close it. From then on the hot set is stable, so the run ends
        // in a long open dwell.
        assert!(
            t.hot_set_shifts <= 1,
            "stable hot set must not thrash: {t:?}"
        );
        assert!(t.open_dwell_epochs > 0, "dwell must be measured: {t:?}");
        assert!(t.hot_set_pages_max > 0);
        assert!(t.mean_dwell_epochs() >= 1.0);
        assert!(t.promotions > 0, "hot pool pages must be promoted: {t:?}");
        assert!(t.demotions > 0, "cold local pages must make room: {t:?}");
        assert_eq!(t.migrated_pages, t.promotions + t.demotions);
        assert_eq!(t.migrated_bytes, t.migrated_pages * PAGE_SIZE);
        // Migration traffic is visible in the counters and charged to the
        // link (raw bytes with protocol overhead).
        assert_eq!(
            promoted.total.migration_lines_pool,
            t.migrated_pages * (PAGE_SIZE / 64)
        );
        assert_eq!(
            promoted.total.migration_lines_local,
            promoted.total.migration_lines_pool
        );
        assert!(promoted.migration_link_raw_bytes() > t.migrated_bytes);
        // The whole point: serving the hot working set locally wins despite
        // paying for the migrations.
        assert!(
            promoted.total_runtime_s < static_report.total_runtime_s * 0.95,
            "hot-promote {} vs static {}",
            promoted.total_runtime_s,
            static_report.total_runtime_s
        );
        assert!(promoted.remote_access_ratio() < static_report.remote_access_ratio());
        // Placement bookkeeping stays consistent after migrations.
        assert_eq!(
            promoted.local_pages_used + promoted.pool_pages_used,
            static_report.local_pages_used + static_report.pool_pages_used
        );
        let hot_alloc = promoted.allocation("hot").unwrap();
        assert!(hot_alloc.pages_local > 0, "hot object must end up local");
    }

    #[test]
    fn periodic_rebalance_swaps_hot_for_cold() {
        let spec =
            TieringSpec::PeriodicRebalance(crate::tiering::PeriodicRebalance::new(4096, 2, 64));
        let report = run_hot_cold(Some(spec), 12);
        let t = &report.tiering;
        assert_eq!(t.policy, "periodic-rebalance");
        assert!(t.promotions > 0, "{t:?}");
        assert!(t.demotions > 0, "{t:?}");
        let static_report = run_hot_cold(None, 12);
        assert!(report.total_runtime_s < static_report.total_runtime_s);
    }

    #[test]
    fn reinstalling_a_policy_keeps_the_counters_and_reports_the_last_label() {
        let promoted = run_hot_cold(Some(hot_promote_policy()), 12);
        assert!(promoted.tiering.promotions > 0, "{:?}", promoted.tiering);
        // The same run with a second policy installed after the traffic: it
        // fires no epoch of its own, so every counter is the first policy's,
        // reported under the second policy's label.
        let mut m = hot_cold_machine(Some(hot_promote_policy()), 12);
        let rebalance = crate::tiering::PeriodicRebalance::new(4096, 2, 64);
        m.set_tiering_spec(&TieringSpec::PeriodicRebalance(rebalance));
        let switched = m.finish();
        assert_eq!(
            switched.tiering,
            TieringReport {
                policy: "periodic-rebalance".to_string(),
                ..promoted.tiering
            }
        );
    }

    #[test]
    fn static_tiering_policy_is_bit_identical_to_default() {
        let default_report = run_hot_cold(None, 6);
        let static_report = run_hot_cold(Some(TieringSpec::Static), 6);
        assert_eq!(default_report, static_report);
    }

    #[test]
    fn tiering_is_bit_identical_across_pipelines() {
        let run = |batched: bool, replay: bool| {
            let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
            let mut m = Machine::new(config);
            m.set_batched_access(batched);
            m.set_replay(replay);
            m.set_tiering_spec(&hot_promote_policy());
            let cold = m.alloc("cold", "t", 40 * PAGE_SIZE);
            let hot = m.alloc("hot", "t", 32 * PAGE_SIZE);
            m.phase_start("p");
            m.touch(cold, 40 * PAGE_SIZE);
            m.touch(hot, 32 * PAGE_SIZE);
            for _ in 0..10 {
                m.read(hot, 0, 32 * PAGE_SIZE);
            }
            m.gather(cold, &[0, 4096, 128, 65_536], 8);
            m.read(cold, 0, 12 * PAGE_SIZE);
            m.phase_end();
            m.finish()
        };
        let per_line = run(false, false);
        let batched = run(true, false);
        let with_replay = run(true, true);
        assert!(per_line.tiering.promotions > 0);
        assert_eq!(batched, per_line, "batched diverged under migrations");
        assert_eq!(with_replay, per_line, "replay diverged under migrations");
    }

    #[test]
    fn recorded_run_is_bit_identical_and_captures_the_event_stream() {
        use dismem_trace::FlightRecorder;
        let run = |record: bool| {
            let config = MachineConfig::test_config().with_local_capacity(40 * PAGE_SIZE);
            let mut m = Machine::new(config);
            if record {
                m.set_recorder(Box::new(FlightRecorder::new()));
            }
            m.set_tiering_spec(&hot_promote_policy());
            let cold = m.alloc("cold", "t", 40 * PAGE_SIZE);
            let hot = m.alloc("hot", "t", 32 * PAGE_SIZE);
            m.phase_start("p");
            m.touch(cold, 40 * PAGE_SIZE);
            m.touch(hot, 32 * PAGE_SIZE);
            for _ in 0..10 {
                m.read(hot, 0, 32 * PAGE_SIZE);
            }
            m.phase_end();
            let report = m.finish();
            (report, m.take_recorder())
        };
        let (recorded, recorder) = run(true);
        let (unrecorded, no_recorder) = run(false);
        assert!(no_recorder.is_none());
        assert_eq!(recorded, unrecorded, "recording must not perturb the run");

        let recorder = recorder
            .expect("recorder comes back")
            .into_any()
            .downcast::<FlightRecorder>()
            .expect("flight recorder");
        let events = recorder.events();
        assert!(!events.is_empty());
        let count = |name: &str| events.iter().filter(|e| e.name() == name).count() as u64;
        assert_eq!(count("EpochClosed"), recorded.tiering.epochs);
        assert_eq!(count("MigrationApplied"), recorded.tiering.migrated_pages);
        let spilled: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TierSpill { pages, .. } => Some(*pages),
                _ => None,
            })
            .sum();
        // The hot object's 32 pages land on the pool after the cold object
        // fills the local tier.
        assert_eq!(spilled, 32);
        // Timestamps are monotone within the simulator stream.
        let stamps: Vec<u64> = events.iter().map(TraceEvent::timestamp).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        // The metrics registry folded the same totals.
        let metrics = recorder.metrics();
        assert_eq!(
            metrics.counter("sim.epochs_closed"),
            recorded.tiering.epochs
        );
        assert_eq!(
            metrics.counter("sim.migrated_pages_total"),
            recorded.tiering.migrated_pages
        );
    }

    #[test]
    fn replay_transitions_are_recorded_with_reasons() {
        use dismem_trace::FlightRecorder;
        let mut config = MachineConfig::test_config().with_local_capacity(700 * PAGE_SIZE);
        config.cache = crate::config::CacheParams::scaled_emulation();
        let mut m = Machine::new(config);
        m.set_recorder(Box::new(FlightRecorder::new()));
        let bytes = 4 << 20;
        let a = m.alloc("stream", "t", bytes);
        m.phase_start("p");
        m.touch(a, bytes);
        m.read(a, 0, bytes);
        m.read(a, 0, bytes);
        m.phase_end();
        m.finish();
        let recorder = m
            .take_recorder()
            .expect("recorder installed")
            .into_any()
            .downcast::<FlightRecorder>()
            .expect("flight recorder");
        let engaged = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ReplayEngaged { .. }))
            .count();
        assert!(engaged > 0, "warm stream must engage replay");
        // Every exit carries a vocabulary reason.
        for event in recorder.events() {
            if let TraceEvent::ReplayExited { reason, .. } = event {
                assert!(
                    ["pattern-break", "hard-reset"].contains(&reason.as_str()),
                    "unexpected exit reason {reason}"
                );
            }
        }
        assert_eq!(recorder.metrics().counter("replay.engaged"), engaged as u64);
    }

    #[test]
    fn try_free_surfaces_typed_errors() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc("A", "t", PAGE_SIZE);
        m.touch(a, PAGE_SIZE);
        m.try_free(a).unwrap();
        assert!(matches!(
            m.try_free(a),
            Err(crate::address_space::FreeError::DoubleFree { .. })
        ));
        assert!(matches!(
            m.try_free(ObjectHandle(99)),
            Err(crate::address_space::FreeError::UnknownHandle(_))
        ));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn engine_free_still_panics_on_double_free() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc("A", "t", PAGE_SIZE);
        m.free(a);
        m.free(a);
    }

    #[test]
    fn force_remote_policy_places_object_on_pool() {
        let mut m = Machine::new(MachineConfig::test_config());
        let a = m.alloc_with_policy("arr", "lbench", 1 << 20, PlacementPolicy::ForceRemote);
        m.phase_start("kernel");
        m.touch(a, 1 << 20);
        m.read(a, 0, 1 << 20);
        m.phase_end();
        let report = m.finish();
        assert!(report.remote_access_ratio() > 0.99);
        assert_eq!(report.allocation("arr").unwrap().pages_local, 0);
    }
}
