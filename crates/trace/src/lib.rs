//! # dismem-trace
//!
//! Foundational vocabulary for the dismem workspace: memory-access events,
//! allocation records, phase markers, the [`MemoryEngine`] trait that workloads
//! are written against, and a simple in-memory [`TraceRecorder`].
//!
//! The layering mirrors the paper's tooling: applications are instrumented with
//! allocation hooks and `pf_start`/`pf_stop` phase markers, and the profiler
//! consumes the resulting event stream. Here, proxy workloads drive any
//! implementation of [`MemoryEngine`] — usually the simulator in `dismem-sim`,
//! but also the lightweight recorder in this crate for unit testing.
//!
//! The crate is also the workspace's **flight recorder** ([`flight`],
//! [`metrics`], [`export`]): a typed [`TraceEvent`] stream stamped by
//! simulated clocks only, the passive [`Recorder`] sink trait (an engine
//! with no recorder installed constructs no events) and the in-memory
//! [`FlightRecorder`], a deterministic [`MetricsRegistry`], and JSONL /
//! Chrome-trace exporters.
//! See `docs/ARCHITECTURE.md` §7 for the observability contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod alloc;
pub mod engine;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod phase;
pub mod recorder;

pub use access::{AccessKind, MemAccess, CACHE_LINE_SIZE, PAGE_SIZE};
pub use alloc::{AllocationRecord, ObjectHandle, PlacementPolicy};
pub use engine::MemoryEngine;
pub use export::{schema_json, to_chrome_trace, to_jsonl, validate_jsonl};
pub use flight::{FlightRecorder, Recorder, ReplayMode, TraceEvent, TraceTier};
pub use histogram::PageHistogram;
pub use metrics::{
    Histogram, HistogramBucket, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use phase::{PhaseId, PhaseRecord};
pub use recorder::{TraceRecorder, TraceStats};
