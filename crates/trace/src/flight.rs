//! The deterministic flight recorder: typed trace events and the
//! [`FlightRecorder`] that keeps them.
//!
//! Every event is timestamped by *simulated* clocks only — application DRAM
//! lines, the tiering epoch ordinal, or the campaign cell index — never by a
//! wall clock, so a recorded trace is itself a bit-reproducible artifact:
//! two runs of the same configuration emit byte-identical traces.
//!
//! Emission is read-only by construction: the recorder observes the engine,
//! it never feeds anything back into it, and a recorded run's `RunReport` is
//! bit-identical to an unrecorded one (proptest-pinned in
//! `tests/properties.rs`). The event list is the only record: a count or
//! total of a run's events is a fold over [`FlightRecorder::events`]. The
//! sanctioned emission points are the same choke points the workspace's
//! standing contracts already pin — chunk closes, migration applies, replay
//! mode transitions, and the campaign work-queue — and clippy's
//! `disallowed-methods` entry for [`FlightRecorder::record_event`] keeps the
//! list closed: each emission point carries a justified allow.

use serde::Serialize;

/// Memory tier named by a trace event.
///
/// `dismem-trace` sits below the simulator in the dependency graph, so
/// events carry this trace-local mirror of the simulator's tier enum rather
/// than the simulator type itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceTier {
    /// Node-local DRAM.
    Local,
    /// The disaggregated memory pool.
    Pool,
}

/// Which replay closed form a [`TraceEvent::ReplayEngaged`] /
/// [`TraceEvent::ReplayExited`] transition refers to (§1.1 of
/// `docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ReplayMode {
    /// Closed-form page-window replay, the engine's only closed form.
    Window,
}

/// A typed observation emitted at one of the sanctioned emission points.
///
/// Timestamps are simulated clocks: `app_lines` counts application DRAM
/// lines (migration traffic excluded, exactly like the tiering epoch clock),
/// `epoch` is the tiering epoch ordinal, `cell_index` is the position of a
/// cell in the deterministic campaign grid order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A tiering epoch closed at a chunk boundary.
    EpochClosed {
        /// Epoch ordinal (1-based, matching the tracker).
        epoch: u64,
        /// Application DRAM lines simulated so far.
        app_lines: u64,
        /// Pages in the epoch's hot set (within half the maximum decayed
        /// score).
        hot_pages: u64,
        /// Cumulative dwell epochs measured so far.
        dwell_epochs: u64,
        /// Cumulative hot-set shifts observed so far.
        hot_set_shifts: u64,
        /// Pages migrated by the policy decision this epoch closed with.
        migrated_pages: u64,
    },
    /// The migration engine rebound one page.
    MigrationApplied {
        /// Epoch ordinal the decision was made in.
        epoch: u64,
        /// Application DRAM lines simulated so far.
        app_lines: u64,
        /// The page number (page-size granular, workload address space).
        page: u64,
        /// Tier the page was bound to before the move.
        from: TraceTier,
        /// Tier the page is bound to after the move.
        to: TraceTier,
    },
    /// The replay engine engaged a closed form.
    ReplayEngaged {
        /// Application DRAM lines at the chunk close that drained the
        /// transition (replay transitions are collected inside the walk and
        /// drained at the next chunk boundary).
        app_lines: u64,
        /// Closed form that engaged.
        mode: ReplayMode,
    },
    /// The replay engine left a closed form.
    ReplayExited {
        /// Application DRAM lines at the draining chunk close.
        app_lines: u64,
        /// Closed form that exited.
        mode: ReplayMode,
        /// Why it exited: `pattern-break` (a partial final window or a broken
        /// streak), the window engine's only reason.
        reason: String,
    },
    /// First-touch placement spilled pages to the pool because the local
    /// tier was full.
    TierSpill {
        /// Application DRAM lines at the chunk close that observed the
        /// spill.
        app_lines: u64,
        /// Pages spilled since the previous observation.
        pages: u64,
    },
    /// A campaign work-queue cell started an attempt.
    CampaignCellStarted {
        /// Position of the cell in the deterministic grid order.
        cell_index: u64,
        /// The cell's stable id (`BFS/tiny/aware/c500/upi/s53596`).
        cell: String,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A campaign cell finished and was journaled.
    CampaignCellFinished {
        /// Position of the cell in the deterministic grid order.
        cell_index: u64,
        /// The cell's stable id.
        cell: String,
        /// Attempts consumed (1 = first try succeeded).
        attempt: u32,
        /// Whether the cell completed (false = journaled as failed).
        ok: bool,
    },
    /// A campaign cell panicked or errored and was re-queued.
    CampaignCellRetried {
        /// Position of the cell in the deterministic grid order.
        cell_index: u64,
        /// The cell's stable id.
        cell: String,
        /// The attempt that just failed (1-based).
        attempt: u32,
    },
    /// A campaign cell exhausted its attempts and was quarantined.
    CampaignCellQuarantined {
        /// Position of the cell in the deterministic grid order.
        cell_index: u64,
        /// The cell's stable id.
        cell: String,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Resume dropped a journal record instead of replaying it.
    JournalRecordRejected {
        /// Position of the record in the journal (0-based).
        record_index: u64,
        /// Why: `foreign-digest`, `unknown-cell` or `torn-tail`.
        reason: String,
    },
}

impl TraceEvent {
    /// The externally-tagged variant name, as serialized.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::EpochClosed { .. } => "EpochClosed",
            TraceEvent::MigrationApplied { .. } => "MigrationApplied",
            TraceEvent::ReplayEngaged { .. } => "ReplayEngaged",
            TraceEvent::ReplayExited { .. } => "ReplayExited",
            TraceEvent::TierSpill { .. } => "TierSpill",
            TraceEvent::CampaignCellStarted { .. } => "CampaignCellStarted",
            TraceEvent::CampaignCellFinished { .. } => "CampaignCellFinished",
            TraceEvent::CampaignCellRetried { .. } => "CampaignCellRetried",
            TraceEvent::CampaignCellQuarantined { .. } => "CampaignCellQuarantined",
            TraceEvent::JournalRecordRejected { .. } => "JournalRecordRejected",
        }
    }

    /// The event's simulated timestamp: application DRAM lines for simulator
    /// events, the cell/record index for campaign events.
    pub fn timestamp(&self) -> u64 {
        match self {
            TraceEvent::EpochClosed { app_lines, .. }
            | TraceEvent::MigrationApplied { app_lines, .. }
            | TraceEvent::ReplayEngaged { app_lines, .. }
            | TraceEvent::ReplayExited { app_lines, .. }
            | TraceEvent::TierSpill { app_lines, .. } => *app_lines,
            TraceEvent::CampaignCellStarted { cell_index, .. }
            | TraceEvent::CampaignCellFinished { cell_index, .. }
            | TraceEvent::CampaignCellRetried { cell_index, .. }
            | TraceEvent::CampaignCellQuarantined { cell_index, .. } => *cell_index,
            TraceEvent::JournalRecordRejected { record_index, .. } => *record_index,
        }
    }

    /// Whether the event is part of the *semantic* stream: observations of
    /// what the simulation computed (epoch closes, migrations, spills),
    /// which must be identical across the per-line, batched and replay
    /// pipelines. The rest — replay transitions, campaign scheduling — are
    /// pipeline- or driver-level diagnostics and legitimately differ.
    pub fn is_semantic(&self) -> bool {
        matches!(
            self,
            TraceEvent::EpochClosed { .. }
                | TraceEvent::MigrationApplied { .. }
                | TraceEvent::TierSpill { .. }
        )
    }
}

/// The flight recorder: every event in emission order, the run's only
/// record. The engine only constructs events when a recorder is installed,
/// so the default unrecorded configuration allocates nothing on the
/// simulation path.
///
/// Recording is passive: `record_event` never influences its caller (the
/// recorded-run bit-identity proptest enforces this).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    events: Vec<TraceEvent>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record_event(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded events, in emission order, by value.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_split_matches_the_pipeline_contract() {
        let semantic = TraceEvent::TierSpill {
            app_lines: 1,
            pages: 1,
        };
        let diagnostic = TraceEvent::ReplayEngaged {
            app_lines: 1,
            mode: ReplayMode::Window,
        };
        assert!(semantic.is_semantic());
        assert!(!diagnostic.is_semantic());
    }
}
