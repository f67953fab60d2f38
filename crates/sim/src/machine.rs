//! The [`Machine`]: the simulated compute node with tiered memory.
//!
//! A `Machine` implements [`MemoryEngine`], so any workload written against
//! `dismem-trace` can run on it. It is one cache walk and one or more
//! placements that run in lockstep. The walk is the cache hierarchy with its
//! prefetcher and replay engine: it filters every access into DRAM
//! transactions and never reads a page's tier. Each placement records every
//! transaction the walk emits into its own address space (placement) and
//! tiering policy, and closes its chunks into counters and a timeline.
//! [`Machine::finish`] prices each placement's timeline once, through the
//! loop [`RunReport::retime_many`] runs, into its own [`RunReport`].
//! [`Machine::new`] is the one-placement case; [`Machine::lockstep`] runs
//! several placements that share a walk, so one walk serves every local
//! capacity and tiering policy. A [`TieringSpec`] migrates a placement's pages
//! between the tiers at hotness epochs; the default, [`TieringSpec::Static`],
//! never does.

use crate::address_space::{AddressSpace, FreeError, Tier};
use crate::cache::{CacheSim, DramEventKind, DramSink};
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::interference::InterferenceProfile;
use crate::prefetch::StreamPrefetcher;
use crate::replay::ReplayTransition;
use crate::report::{
    price_timeline, AllocationSummary, PhaseReport, RunReport, TieringReport, TimelineSample,
};
use crate::tiering::{TieringRuntime, TieringSpec};
use dismem_trace::{
    AccessKind, MemoryEngine, ObjectHandle, PlacementPolicy, Recorder, ReplayMode, TraceEvent,
    TraceTier, CACHE_LINE_SIZE,
};

/// Cache lines per page (pages and cache lines are both powers of two).
const LINES_PER_PAGE: u64 = dismem_trace::PAGE_SIZE / CACHE_LINE_SIZE;

/// What one placement of the walk owns: an address space, its tier tally
/// and pool-link lines, a timeline of closed chunks, phase counters and
/// totals, and a tiering runtime. Nothing here is timed until
/// [`Placement::report`] prices the timeline.
struct Placement {
    config: MachineConfig,
    space: AddressSpace,
    /// Dynamic tiering: installed policy, hotness tracker, epoch
    /// accumulator, damper history and migration statistics. Defaults to
    /// [`TieringSpec::Static`], which never fires an epoch.
    tiering: TieringRuntime,
    /// The open chunk's tier counters: fills, demand fills and writebacks on
    /// each tier, and an epoch's migration lines. The walk's counters join
    /// them when the chunk closes.
    chunk: Counters,
    /// Pool-tier DRAM lines accumulated in the open chunk; folded into
    /// `link_raw_bytes` (payload × protocol overhead, rounded once) when the
    /// chunk closes, so the protocol overhead is exact instead of
    /// accumulating per-line rounding drift.
    chunk_pool_link_lines: u64,
    phase_counters: Vec<Counters>,
    total: Counters,
    /// Closed chunks in execution order, unpriced: every `start_s` and
    /// `duration_s` is 0.0 until [`Placement::report`] prices them.
    timeline: Vec<TimelineSample>,
    /// Capacity spills already reported to the recorder (the address-space
    /// counter is monotone; the delta since this mark is emitted as one
    /// [`TraceEvent::TierSpill`] per chunk close).
    spilled_seen: u64,
}

impl Placement {
    fn new(config: MachineConfig, spec: TieringSpec) -> Self {
        Self {
            space: AddressSpace::new(config.local.capacity_bytes, config.pool.capacity_bytes),
            config,
            tiering: TieringRuntime::new(spec),
            chunk: Counters::default(),
            chunk_pool_link_lines: 0,
            phase_counters: Vec::new(),
            total: Counters::default(),
            timeline: Vec::new(),
            spilled_seen: 0,
        }
    }

    /// Records `count` DRAM transactions of `kind` against `page` and
    /// tallies them by the tier that serves them. A simulated OOM aborts the
    /// run, as the placement's direct run would.
    #[inline]
    fn record_dram(&mut self, page: u64, kind: DramEventKind, count: u64) {
        #[allow(
            clippy::disallowed_methods,
            reason = "the placement sink's call into the single DRAM recording point; every pipeline's transactions arrive here"
        )]
        let tier = match self.space.record_dram(page, count) {
            Ok(tier) => tier,
            Err(oom) => panic!("simulated OOM abort: {oom}"),
        };
        let chunk = &mut self.chunk;
        match (tier, kind) {
            (Tier::Local, DramEventKind::DemandFill) => {
                chunk.dram_lines_local += count;
                chunk.demand_dram_lines_local += count;
            }
            (Tier::Local, DramEventKind::PrefetchFill) => chunk.dram_lines_local += count,
            (Tier::Local, DramEventKind::Writeback) => chunk.writeback_lines_local += count,
            (Tier::Pool, DramEventKind::DemandFill) => {
                chunk.dram_lines_pool += count;
                chunk.demand_dram_lines_pool += count;
            }
            (Tier::Pool, DramEventKind::PrefetchFill) => chunk.dram_lines_pool += count,
            (Tier::Pool, DramEventKind::Writeback) => chunk.writeback_lines_pool += count,
        }
        if tier == Tier::Pool {
            self.chunk_pool_link_lines += count;
        }
    }

    /// Closes the open chunk: joins the walk's counters `walk` to this
    /// placement's tier counters and appends the result, in phase `phase`,
    /// to the timeline. Returns the chunk's application DRAM lines, or
    /// `None` for an empty chunk, which takes no time. The walk's chunk may
    /// be empty while this one holds an epoch's migration lines.
    fn close_chunk(&mut self, walk: &Counters, phase: Option<usize>) -> Option<u64> {
        let mut chunk = std::mem::take(&mut self.chunk);
        chunk.add(walk);
        if self.chunk_pool_link_lines > 0 {
            // Fold the chunk's pool traffic into raw link bytes in one step:
            // exact payload × protocol overhead, rounded once per chunk
            // instead of once per line.
            let payload = (self.chunk_pool_link_lines * self.config.cache.line_bytes) as f64;
            chunk.link_raw_bytes = (payload * self.config.link.protocol_overhead()).round() as u64;
            self.chunk_pool_link_lines = 0;
        }
        if chunk == Counters::default() {
            return None;
        }
        self.timeline.push(TimelineSample {
            start_s: 0.0,
            duration_s: 0.0,
            counters: chunk,
            phase,
        });
        if let Some(p) = phase {
            self.phase_counters[p].add(&chunk);
        }
        self.total.add(&chunk);
        Some(
            chunk.dram_lines_local
                + chunk.dram_lines_pool
                + chunk.writeback_lines_local
                + chunk.writeback_lines_pool,
        )
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

    /// Emits the walk's replay `transitions` since the last chunk close and
    /// the capacity-spill delta, stamped with the current application-line
    /// clock.
    #[allow(
        clippy::disallowed_methods,
        reason = "audited emission point: replay transitions and tier spills, stamped at chunk close"
    )]
    fn emit_chunk_trace(
        &mut self,
        recorder: &mut dyn Recorder,
        transitions: Vec<ReplayTransition>,
    ) {
        let app_lines = self.app_lines_clock();
        for transition in transitions {
            recorder.record_event(match transition {
                ReplayTransition::Engaged => TraceEvent::ReplayEngaged {
                    app_lines,
                    mode: ReplayMode::Window,
                },
                ReplayTransition::Exited => TraceEvent::ReplayExited {
                    app_lines,
                    mode: ReplayMode::Window,
                    reason: "pattern-break".to_string(),
                },
            });
        }
        let spilled = self.space.spilled_pages();
        if spilled > self.spilled_seen {
            recorder.record_event(TraceEvent::TierSpill {
                app_lines,
                pages: spilled - self.spilled_seen,
            });
            self.spilled_seen = spilled;
        }
    }

    /// Completes a hotness epoch: the tiering runtime reads heat from the
    /// page table and plans migrations, which are applied to the address
    /// space here and charged as page-sized traffic on both tiers and the
    /// pool link (the charge lands in the chunk that is just opening, so the
    /// timing model prices it at the placement it created).
    ///
    /// Runs only between cache walks (chunk closes never happen mid-walk).
    /// The cache walk never reads a page's tier, so a move leaves the walk
    /// alone: replayed windows resolve each page's tier in the placement at
    /// the current binding, as the exact walk does.
    #[allow(
        clippy::disallowed_methods,
        reason = "the audited migration-apply path: every applied rebind is charged as migration traffic and counted, and the epoch's events are audited emission points"
    )]
    fn run_tiering_epoch(&mut self, mut recorder: Option<&mut (dyn Recorder + 'static)>) {
        let local_capacity = self
            .config
            .local
            .capacity_bytes
            .map(dismem_trace::access::pages_for);
        let (hot_pages, orders) = self.tiering.end_epoch(&self.space, local_capacity);
        let epoch = self.tiering.epoch;

        // Epoch events share one timestamp: the application-line clock at the
        // chunk close that fired this epoch (totals already include it).
        let app_lines = self.app_lines_clock();
        let mut moved = 0u64;
        for order in orders {
            match self.space.rebind_page(order.page, order.to) {
                Ok(from) if from != order.to => {
                    moved += 1;
                    self.tiering.migrated(order.page);
                    match order.to {
                        Tier::Local => self.tiering.report.promotions += 1,
                        Tier::Pool => self.tiering.report.demotions += 1,
                    }
                    if let Some(recorder) = recorder.as_deref_mut() {
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
        if let Some(recorder) = recorder {
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
        }
    }

    /// This placement's report of the run, whose phases are `phase_names`,
    /// with its timeline priced under `interference` by the loop
    /// [`RunReport::retime_many`] runs: the report's times are its re-time
    /// under that profile, bit for bit.
    fn report(&self, phase_names: &[String], interference: &InterferenceProfile) -> RunReport {
        let mut timeline = Vec::with_capacity(self.timeline.len());
        let priced = price_timeline(
            &self.config,
            &self.timeline,
            phase_names.len(),
            std::slice::from_ref(interference),
            |sample, runs, times| {
                timeline.push(TimelineSample {
                    start_s: runs[0].total_runtime_s,
                    duration_s: times[0].total_s,
                    ..*sample
                });
            },
        )
        .pop()
        .expect("one profile yields one priced run");
        let line_bytes = self.config.cache.line_bytes;
        let phases = phase_names
            .iter()
            .zip(&self.phase_counters)
            .zip(&priced.phase_runtimes_s)
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
        let report = &self.tiering.report;
        let migrated_pages = report.promotions + report.demotions;
        RunReport {
            config: self.config.clone(),
            phases,
            total: self.total,
            total_runtime_s: priced.total_runtime_s,
            allocations,
            timeline,
            page_histogram: self.space.histogram(),
            peak_footprint_bytes: self.space.peak_footprint_bytes(),
            local_pages_used: self.space.local_pages_used(),
            pool_pages_used: self.space.pool_pages_used(),
            tiering: TieringReport {
                policy: self.tiering.spec.label().to_string(),
                migrated_pages,
                migrated_bytes: migrated_pages * dismem_trace::PAGE_SIZE,
                ..report.clone()
            },
        }
    }
}

/// The walk's consumer of DRAM transactions: counts the walk's DRAM lines,
/// the tier-independent sum that chunks close on, and hands each transaction
/// to every placement. The per-line drain and the batched and replayed
/// walks all feed it, so every pipeline records traffic through one path.
///
/// Transactions reach the placements in runs: one kind against one page
/// with a count, so a stream's fills, or its fills alternating with the
/// writebacks of another page, cost one record per page and kind. Two runs
/// stay open, and the older is handed over first, so pages reach the
/// placements in the order of their first transaction, which is what first
/// touch binds by; the counts only ever add up.
struct PlacementSink<'a> {
    placements: &'a mut [Placement],
    dram_lines: &'a mut u64,
    /// The open runs, older first: (page, kind) and transaction count.
    runs: [((u64, DramEventKind), u64); 2],
}

/// An empty run: a count of zero is never handed over.
const NO_RUN: ((u64, DramEventKind), u64) = ((0, DramEventKind::DemandFill), 0);

impl<'a> PlacementSink<'a> {
    fn new(placements: &'a mut [Placement], dram_lines: &'a mut u64) -> Self {
        Self {
            placements,
            dram_lines,
            runs: [NO_RUN; 2],
        }
    }

    fn hand_over(&mut self, ((page, kind), count): ((u64, DramEventKind), u64)) {
        if count == 0 {
            return;
        }
        for placement in self.placements.iter_mut() {
            placement.record_dram(page, kind, count);
        }
    }

    /// Hands the open runs to every placement. A walk calls it before
    /// anything reads the placements.
    fn flush(&mut self) {
        let [older, newer] = std::mem::replace(&mut self.runs, [NO_RUN; 2]);
        self.hand_over(older);
        self.hand_over(newer);
    }
}

impl DramSink for PlacementSink<'_> {
    #[inline]
    fn event(&mut self, line_addr: u64, kind: DramEventKind) {
        self.bulk_event(line_addr, kind, 1);
    }

    #[inline]
    fn bulk_event(&mut self, line_addr: u64, kind: DramEventKind, count: u64) {
        *self.dram_lines += count;
        let key = (line_addr / LINES_PER_PAGE, kind);
        if let Some(run) = self.runs.iter_mut().rev().find(|run| run.0 == key) {
            run.1 += count;
            return;
        }
        let older = self.runs[0];
        self.hand_over(older);
        self.runs = [self.runs[1], (key, count)];
    }
}

/// The simulated compute node: one cache walk and the placements it serves.
pub struct Machine {
    /// The first placement's configuration. Its cache, prefetcher and chunk
    /// sizes are the walk's, which every placement shares.
    config: MachineConfig,
    cache: CacheSim,
    /// The walk's open chunk: flops and the cache counters. Tier counters
    /// live in each placement's chunk.
    chunk: Counters,
    /// DRAM lines moved in the open chunk, over both tiers: fills and
    /// writebacks, never migration lines. Chunks close on this sum, which
    /// does not depend on placement, so every placement closes its chunks at
    /// the same points.
    chunk_dram_lines: u64,
    /// Whether the batched element walk is used (default). Disabled, the
    /// machine walks every access line by line exactly as the reference
    /// implementation does — the two paths produce bit-identical reports.
    batched: bool,
    /// The background interference every placement's timeline is priced
    /// under at finish ([`Machine::set_interference`]; idle by default).
    interference: InterferenceProfile,
    phase_names: Vec<String>,
    current_phase: Option<usize>,
    placements: Vec<Placement>,
    /// Optional flight recorder ([`Machine::set_recorder`]), accepted only
    /// with a single placement. `None` (the default) keeps every hot path
    /// free of event construction; the recorded/unrecorded bit-identity of
    /// [`RunReport`]s is pinned by the workspace property tests.
    recorder: Option<Box<dyn Recorder>>,
}

impl Machine {
    /// Creates a machine from a configuration: one walk with one placement,
    /// under static placement.
    pub fn new(config: MachineConfig) -> Self {
        Self::lockstep([(config, TieringSpec::Static)])
    }

    /// Creates a machine whose one cache walk serves one placement per
    /// `(config, tiering)` pair, in lockstep: every placement records and
    /// times every DRAM transaction the walk emits, and
    /// [`Machine::finish_lockstep`] returns their reports in this order,
    /// each equal to a direct run of its configuration and policy.
    ///
    /// Panics without a placement, unless every configuration shares the
    /// first one's walk (see [`MachineConfig::shares_walk_with`]), and
    /// unless its cache lines are [`CACHE_LINE_SIZE`] bytes, the line size
    /// the walk splits addresses by.
    pub fn lockstep(placements: impl IntoIterator<Item = (MachineConfig, TieringSpec)>) -> Self {
        let placements: Vec<Placement> = placements
            .into_iter()
            .map(|(config, spec)| Placement::new(config, spec))
            .collect();
        let config = placements
            .first()
            .expect("a machine needs at least one placement")
            .config
            .clone();
        for placement in &placements[1..] {
            assert!(
                config.shares_walk_with(&placement.config),
                "lockstep placements must share a walk: equal cache, prefetch, chunk_bytes and chunk_flops"
            );
        }
        assert_eq!(
            config.cache.line_bytes, CACHE_LINE_SIZE,
            "the cache walk splits addresses into {CACHE_LINE_SIZE}-byte lines"
        );
        let prefetcher = StreamPrefetcher::new(config.prefetch);
        let cache = CacheSim::new(config.cache, prefetcher);
        Self {
            config,
            cache,
            chunk: Counters::default(),
            chunk_dram_lines: 0,
            batched: true,
            interference: InterferenceProfile::Idle,
            phase_names: Vec::new(),
            current_phase: None,
            placements,
            recorder: None,
        }
    }

    /// The machine configuration (the first placement's).
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Panics unless nothing has been simulated yet. A machine is configured
    /// before its first access, as the paper fixes each run's configuration
    /// before the run starts, so no setting changes mid-run.
    fn assert_unstarted(&self, setter: &str) {
        assert!(
            self.chunk == Counters::default()
                && self.placements.iter().all(|p| p.timeline.is_empty()),
            "Machine::{setter} called after the run started; configure a machine before its first access"
        );
    }

    /// Sets the background interference profile on every placement's pool
    /// link: [`Machine::finish`] prices each timeline under it, so a report
    /// equals its [`RunReport::retime`] under `profile`. The default is an
    /// idle pool. Panics once the run has started.
    pub fn set_interference(&mut self, profile: InterferenceProfile) {
        self.assert_unstarted("set_interference");
        self.interference = profile;
    }

    /// Installs a dynamic tiering policy (see [`crate::tiering`]) on every
    /// placement. Panics once the run has started.
    ///
    /// With [`TieringSpec::Static`] (the default) the machine never fires an
    /// epoch and behaves bit-identically to the pre-tiering simulator.
    pub fn set_tiering_spec(&mut self, spec: &TieringSpec) {
        self.assert_unstarted("set_tiering_spec");
        for placement in &mut self.placements {
            placement.tiering = TieringRuntime::new(*spec);
        }
    }

    /// Enables or disables the batched line-walk fast path (enabled by
    /// default). With batching off the machine processes every access with
    /// the per-line reference pipeline; results are bit-identical either way
    /// (guaranteed by the workspace property tests), only the wall-clock
    /// speed differs. Panics once the run has started.
    pub fn set_batched_access(&mut self, enabled: bool) {
        self.assert_unstarted("set_batched_access");
        self.batched = enabled;
    }

    /// Enables or disables the steady-state page-replay engine (enabled by
    /// default; only active on the batched pipeline). With replay on, long
    /// sequential streams whose per-page cache behaviour has been proven
    /// periodic are applied in closed form instead of walked line by line;
    /// reports stay bit-identical either way (guaranteed by the workspace
    /// property tests). Panics once the run has started.
    pub fn set_replay(&mut self, enabled: bool) {
        self.assert_unstarted("set_replay");
        self.cache.set_replay_enabled(enabled);
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

    /// Installs a flight recorder (see `dismem_trace::flight`). Events are
    /// timestamped by simulated clocks only — the application-DRAM-line
    /// clock and the tiering epoch ordinal — so a recorded run's event
    /// stream is as deterministic as its [`RunReport`]. Recording is
    /// strictly read-only: the report of a recorded run is bit-identical to
    /// an unrecorded one. Panics once the run has started, and on a machine
    /// with more than one placement.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.assert_unstarted("set_recorder");
        assert_eq!(
            self.placements.len(),
            1,
            "a recorder is only accepted with a single placement"
        );
        self.cache.set_replay_trace(true);
        self.recorder = Some(recorder);
    }

    /// Removes the installed flight recorder, draining any pending replay
    /// transitions and spill deltas into it first. Call after
    /// [`Machine::finish`] so the final chunk's events are included.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            let transitions = self.cache.drain_replay_transitions();
            self.placements[0].emit_chunk_trace(recorder, transitions);
        }
        self.cache.set_replay_trace(false);
        self.recorder.take()
    }

    /// Finishes the run of a one-placement machine and produces its report.
    /// The machine can keep being used afterwards (e.g. to run another
    /// phase), but typically a fresh machine is created per run. Panics on a
    /// machine with more than one placement; see [`Machine::finish_lockstep`].
    pub fn finish(&mut self) -> RunReport {
        assert_eq!(
            self.placements.len(),
            1,
            "Machine::finish reports one placement; call finish_lockstep"
        );
        self.finish_lockstep()
            .pop()
            .expect("one report per placement")
    }

    /// Finishes the run and produces every placement's report, in the order
    /// the placements were given to [`Machine::lockstep`]. Each placement's
    /// timeline is priced here, once, under the machine's interference.
    pub fn finish_lockstep(&mut self) -> Vec<RunReport> {
        self.close_chunk();
        // A tiering epoch firing at that close deposits its migration traffic
        // into a fresh chunk; close again so it is priced and reported. The
        // second close cannot fire another epoch (migration traffic does not
        // count towards the epoch accumulator), so two closes always drain.
        self.close_chunk();
        debug_assert!(self
            .placements
            .iter()
            .all(|p| p.chunk == Counters::default()));
        self.placements
            .iter()
            .map(|placement| placement.report(&self.phase_names, &self.interference))
            .collect()
    }

    /// Closes the walk's open chunk in every placement at once. Each
    /// placement appends its own chunk to its timeline, emits the chunk's
    /// trace and may run a tiering epoch, whose migration lines open its next
    /// chunk.
    fn close_chunk(&mut self) {
        let walk = std::mem::take(&mut self.chunk);
        self.chunk_dram_lines = 0;
        for placement in &mut self.placements {
            let Some(app_dram_lines) = placement.close_chunk(&walk, self.current_phase) else {
                // Nothing to time, and nothing to trace: replay transitions
                // and spills only happen inside walks, which count demand
                // lines.
                continue;
            };
            if let Some(recorder) = self.recorder.as_deref_mut() {
                // Emit before a possible tiering epoch so replay transitions
                // from this chunk's walks order ahead of the epoch's events.
                let transitions = self.cache.drain_replay_transitions();
                placement.emit_chunk_trace(recorder, transitions);
            }
            if placement.tiering.epoch_due(app_dram_lines) {
                placement.run_tiering_epoch(self.recorder.as_deref_mut());
            }
        }
    }

    /// The chunk-close policy of every pipeline, so they can never disagree
    /// on boundaries: the walk's DRAM bytes or flops reached a chunk's worth.
    /// An associated function over the fields it needs, so the batched
    /// element walk can check it while its sink borrows the placements.
    fn chunk_full(config: &MachineConfig, chunk: &Counters, dram_lines: u64) -> bool {
        dram_lines * config.cache.line_bytes >= config.chunk_bytes
            || chunk.flops >= config.chunk_flops
    }

    fn maybe_close_chunk(&mut self) {
        if Self::chunk_full(&self.config, &self.chunk, self.chunk_dram_lines) {
            self.close_chunk();
        }
    }

    /// The batched element walk of `access`, `gather_batch` and
    /// `strided_batch`: the cache walks each element's lines in one call and
    /// hands every DRAM transaction straight to the placements, with no
    /// event queue and no per-line drain. The chunk-close decision follows
    /// every element, as the per-line reference takes it after every access.
    /// One sink serves the call, so traffic against one page from
    /// consecutive elements reaches the placements as one record; it is
    /// flushed before a chunk closes.
    fn walk_elements(
        &mut self,
        handle: ObjectHandle,
        offsets: impl Iterator<Item = u64>,
        elem_bytes: u64,
        kind: AccessKind,
    ) {
        let layout = &self.placements[0].space;
        let object_bytes = layout.object_bytes(handle);
        let base = layout.base_addr(handle);
        let is_write = kind.is_write();
        let mut sink = PlacementSink::new(&mut self.placements, &mut self.chunk_dram_lines);
        for offset in offsets {
            debug_assert!(
                offset + elem_bytes <= object_bytes.max(dismem_trace::PAGE_SIZE),
                "access beyond end of object (offset {offset} + {elem_bytes} > {object_bytes})"
            );
            let addr = base + offset;
            let first_line = addr / CACHE_LINE_SIZE;
            let last_line = (addr + elem_bytes - 1) / CACHE_LINE_SIZE;
            self.cache.demand_access_range(
                first_line,
                last_line - first_line + 1,
                is_write,
                &mut self.chunk,
                &mut sink,
            );
            if Self::chunk_full(&self.config, &self.chunk, *sink.dram_lines) {
                // The sink's borrow of the placements ends with this flush
                // (its last use), freeing `self` for the close.
                sink.flush();
                self.close_chunk();
                sink = PlacementSink::new(&mut self.placements, &mut self.chunk_dram_lines);
            }
        }
        sink.flush();
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
        let mut result = Ok(());
        for placement in &mut self.placements {
            // Every placement saw the same allocations and frees, so each
            // returns the same result.
            result = placement.space.free(handle);
        }
        result
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
        let mut handle = None;
        for placement in &mut self.placements {
            // Every placement hands out the same handle and pages.
            handle = Some(placement.space.alloc(name, site, bytes, policy));
        }
        handle.expect("a machine has a placement")
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
        for placement in &mut self.placements {
            placement.phase_counters.push(Counters::default());
        }
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
        if self.batched {
            self.walk_elements(handle, std::iter::once(offset), bytes, kind);
            return;
        }
        let layout = &self.placements[0].space;
        let object_bytes = layout.object_bytes(handle);
        debug_assert!(
            offset + bytes <= object_bytes.max(dismem_trace::PAGE_SIZE),
            "access beyond end of object (offset {offset} + {bytes} > {object_bytes})"
        );
        let base = layout.base_addr(handle) + offset;
        let first_line = base / CACHE_LINE_SIZE;
        let last_line = (base + bytes - 1) / CACHE_LINE_SIZE;
        let is_write = kind.is_write();
        let mut sink = PlacementSink::new(&mut self.placements, &mut self.chunk_dram_lines);
        for line in first_line..=last_line {
            self.cache
                .demand_access(line, is_write, &mut self.chunk, &mut sink);
            sink.flush();
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
            #[allow(
                clippy::disallowed_methods,
                reason = "the per-line reference path is the trait's default per-element loop"
            )]
            for &off in offsets {
                self.access(handle, off, elem_bytes, kind);
            }
            return;
        }
        self.walk_elements(handle, offsets.iter().copied(), elem_bytes, kind);
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
            #[allow(
                clippy::disallowed_methods,
                reason = "the per-line reference path is the trait's default per-element loop"
            )]
            for _ in 0..count {
                self.access(handle, offset, elem_bytes, kind);
                offset += stride_bytes;
            }
            return;
        }
        self.walk_elements(
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
    #[should_panic(expected = "lockstep placements must share a walk")]
    fn lockstep_rejects_placements_that_do_not_share_a_walk() {
        let config = MachineConfig::test_config();
        let _ = Machine::lockstep([
            (config.clone(), TieringSpec::Static),
            (config.with_prefetch(false), TieringSpec::Static),
        ]);
    }

    /// The walk splits addresses into 64-byte lines, so a configuration
    /// whose costs assume another line size is refused.
    #[test]
    #[should_panic(expected = "splits addresses into 64-byte lines")]
    fn a_line_size_other_than_64_bytes_is_rejected() {
        let mut config = MachineConfig::test_config();
        config.cache.line_bytes = 128;
        let _ = Machine::new(config);
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
    #[should_panic(expected = "Machine::set_tiering_spec called after the run started")]
    fn installing_a_policy_after_the_first_access_panics() {
        let mut m = hot_cold_machine(Some(hot_promote_policy()), 1);
        m.set_tiering_spec(&TieringSpec::PeriodicRebalance(
            crate::tiering::PeriodicRebalance::new(4096, 2, 64),
        ));
    }

    #[test]
    fn every_setter_panics_once_the_run_has_started() {
        type Setter = fn(&mut Machine);
        let setters: [(&str, Setter); 5] = [
            ("set_interference", |m| {
                m.set_interference(InterferenceProfile::Idle)
            }),
            ("set_tiering_spec", |m| {
                m.set_tiering_spec(&TieringSpec::Static)
            }),
            ("set_batched_access", |m| m.set_batched_access(true)),
            ("set_replay", |m| m.set_replay(true)),
            ("set_recorder", |m| {
                m.set_recorder(Box::new(dismem_trace::FlightRecorder::new()))
            }),
        ];
        // Allocating simulates nothing; an access starts the run, whether
        // its chunk is still open or already timed (a free closes it).
        for (name, set) in setters {
            let mut m = Machine::new(MachineConfig::test_config());
            let a = m.alloc("A", "t", PAGE_SIZE);
            set(&mut m);
            m.touch(a, PAGE_SIZE);
            for timed in [false, true] {
                if timed {
                    m.free(a);
                }
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set(&mut m)))
                    .expect_err(name);
                let msg = err.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains(&format!("Machine::{name} called")), "{msg}");
            }
        }
    }

    /// Heat follows DRAM traffic through the page table: the walk's sink
    /// records each transaction against its page, and an epoch folds each
    /// page's lines recorded since the previous epoch into its heat.
    #[test]
    fn hotness_follows_dram_traffic_through_the_page_table() {
        // A threshold no page reaches: the epochs plan no migration.
        let spec = TieringSpec::HotPromote(crate::tiering::HotPromote::new(4096, 1e9));
        let mut placement = Placement::new(MachineConfig::test_config(), spec);
        let a = placement
            .space
            .alloc("A", "t", 2 * PAGE_SIZE, PlacementPolicy::FirstTouch);
        let page = placement.space.base_addr(a) / PAGE_SIZE;
        let line = page * LINES_PER_PAGE;
        let record = |placement: &mut Placement, events: &[(u64, DramEventKind)]| {
            let mut dram_lines = 0;
            let mut sink = PlacementSink::new(std::slice::from_mut(placement), &mut dram_lines);
            for &(line, kind) in events {
                sink.event(line, kind);
            }
            sink.flush();
        };
        record(
            &mut placement,
            &[
                (line, DramEventKind::DemandFill),
                (line + 1, DramEventKind::PrefetchFill),
                (line + LINES_PER_PAGE, DramEventKind::Writeback),
            ],
        );
        placement.run_tiering_epoch(None);
        let heat = |placement: &Placement, page| placement.tiering.tracker.heat_of(page);
        assert_eq!(heat(&placement, page), 2.0);
        assert_eq!(heat(&placement, page + 1), 1.0);
        // The next epoch sees only the lines recorded since: both pages
        // halve, and the first gains the new line.
        record(&mut placement, &[(line + 2, DramEventKind::DemandFill)]);
        placement.run_tiering_epoch(None);
        assert_eq!(heat(&placement, page), 2.0);
        assert_eq!(heat(&placement, page + 1), 0.5);
        // The page table keeps the run's counts, which the histogram reads.
        let histogram = placement.space.histogram();
        assert_eq!(
            histogram.iter().collect::<Vec<_>>(),
            [(page, 3), (page + 1, 1)]
        );
        let report = &placement.tiering.report;
        assert_eq!(
            (report.epochs, report.promotions + report.demotions),
            (2, 0)
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
        // A broken streak is the engine's only exit.
        for event in recorder.events() {
            if let TraceEvent::ReplayExited { reason, .. } = event {
                assert_eq!(reason, "pattern-break");
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
