//! # dismem-profiler
//!
//! The multi-level, memory-centric profiler of the paper (Section 3.1),
//! reimplemented on top of the simulator instead of hardware performance
//! counters. The three levels mirror the paper's top-down methodology:
//!
//! * **Level 1 — general characteristics** ([`level1`]): arithmetic
//!   intensity and throughput per phase (roofline points), memory footprint,
//!   the bandwidth-capacity scaling curve, hardware-prefetching accuracy /
//!   coverage / excess traffic / performance gain, and traffic timelines with
//!   and without prefetching.
//! * **Level 2 — multi-tier memory access** ([`level2`]): remote capacity
//!   ratio, remote access ratio per phase, and the two optimization reference
//!   points (capacity ratio and bandwidth ratio).
//! * **Level 3 — memory interference** ([`level3`]): sensitivity of each
//!   phase and of the whole application to increasing levels of interference
//!   on the pool link.

pub mod level1;
pub mod level2;
pub mod level3;
pub mod runner;

pub use level1::{Level1Report, PhasePoint, PrefetchMetrics, TimelineSeries};
pub use level2::{Level2Report, PhaseTierAccess};
pub use level3::{Level3Report, SensitivityPoint};
pub use runner::{
    pooled_config, run_workload, run_workload_lockstep, run_workload_recorded, RunOptions,
};
