//! # dismem-trace
//!
//! Foundational vocabulary for the dismem workspace: access kinds, allocation
//! records, the [`MemoryEngine`] trait that workloads are written against
//! (phase markers included), a simple in-memory [`TraceRecorder`], and the
//! [`fnv1a64`] digest the workspace fingerprints configurations with.
//!
//! The layering mirrors the paper's tooling: applications are instrumented with
//! allocation hooks and `pf_start`/`pf_stop` phase markers, and the profiler
//! consumes the resulting event stream. Here, proxy workloads drive any
//! implementation of [`MemoryEngine`] — usually the simulator in `dismem-sim`,
//! but also the lightweight recorder in this crate for unit testing.
//!
//! The crate is also the workspace's **flight recorder** ([`flight`],
//! [`export`]): a typed [`TraceEvent`] stream stamped by simulated clocks
//! only, kept in emission order by the [`FlightRecorder`] (an engine with no
//! recorder installed constructs no events), and JSONL / Chrome-trace
//! exporters of that list.
//! See `docs/ARCHITECTURE.md` §7 for the observability contract.

#![warn(missing_docs)]

pub mod access;
pub mod alloc;
pub mod digest;
pub mod engine;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod recorder;

pub use access::{AccessKind, CACHE_LINE_SIZE, PAGE_SIZE};
pub use alloc::{AllocationRecord, ObjectHandle, PlacementPolicy};
pub use digest::fnv1a64;
pub use engine::MemoryEngine;
pub use export::{schema_json, to_chrome_trace, to_jsonl, validate_jsonl};
pub use flight::{FlightRecorder, ReplayMode, TraceEvent, TraceTier};
pub use histogram::PageHistogram;
pub use recorder::{TraceRecorder, TraceStats};
