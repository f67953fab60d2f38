//! # dismem-sim
//!
//! A discrete memory-system simulator that stands in for the paper's
//! dual-socket emulation platform (Section 3.3). One "machine" models a
//! compute node with:
//!
//! * a node-local memory tier (default: 73 GB/s, 111 ns — the intra-socket
//!   figures of the paper's Skylake testbed),
//! * a rack-level memory-pool tier reached over a coherent link (default:
//!   34 GB/s data bandwidth, 202 ns idle latency, 85 GB/s raw link traffic —
//!   the inter-socket/UPI figures),
//! * a set-associative L2 cache with a hardware stream prefetcher and a
//!   shared last-level cache, producing the performance-counter set used by
//!   the paper's multi-level profiler, and
//! * a page-granular address space with first-touch, forced and interleaved
//!   placement policies.
//!
//! Workloads written against [`dismem_trace::MemoryEngine`] drive a
//! [`Machine`]; the result is a [`RunReport`] holding per-phase counters,
//! runtimes, a traffic timeline, per-object placement and a page-access
//! histogram — exactly the observables the paper's three-level methodology
//! consumes.
//!
//! The invariants the simulator's three execution pipelines (per-line,
//! batched, replay) and the dynamic-tiering subsystem must preserve are
//! documented in `docs/ARCHITECTURE.md` at the repository root.

#![deny(missing_docs)]

pub mod address_space;
pub mod cache;
pub mod config;
pub mod counters;
pub mod interference;
pub mod link;
pub mod machine;
pub mod prefetch;
pub(crate) mod replay;
pub mod report;
pub mod tiering;
pub mod timing;

pub use address_space::{AddressSpace, FreeError, RebindError, Tier};
pub use cache::CacheSim;
pub use config::{CacheParams, LinkParams, MachineConfig, PrefetchParams, TierParams};
pub use counters::Counters;
pub use interference::InterferenceProfile;
pub use link::LinkModel;
pub use machine::Machine;
pub use prefetch::StreamPrefetcher;
pub use report::{AllocationSummary, PhaseReport, RunReport, TieringReport, TimelineSample};
pub use tiering::{HotPromote, HotnessTracker, PeriodicRebalance, TieringSpec};
pub use timing::TimingModel;
