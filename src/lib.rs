//! # dismem
//!
//! A quantitative methodology and simulation toolkit for adopting
//! disaggregated (pool-based) memory in HPC systems — a from-scratch Rust
//! reproduction of *"A Quantitative Approach for Adopting Disaggregated
//! Memory in HPC Systems"* (SC 2023).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`trace`] — memory-access events, allocation records, the
//!   [`trace::MemoryEngine`] trait workloads are written against;
//! * [`sim`] — the two-tier (node-local + memory pool) machine simulator that
//!   replaces the paper's dual-socket emulation platform;
//! * [`workloads`] — proxy implementations of HPL, Hypre, NekRS, BFS,
//!   SuperLU and XSBench;
//! * [`profiler`] — the three-level memory-centric profiler;
//! * [`lbench`] — the LBench interference benchmark and link-contention
//!   model;
//! * [`analysis`] — roofline models, statistics and the Top-500 memory/cost
//!   dataset;
//! * [`sched`] — the interference-aware job-scheduling study;
//! * [`core`] — the three-level quantitative study facade, guidance rules and
//!   the BFS placement case study.
//!
//! ## Quick start
//!
//! ```
//! use dismem::core::QuantitativeStudy;
//! use dismem::sim::MachineConfig;
//! use dismem::workloads::WorkloadKind;
//!
//! let study = QuantitativeStudy::new(
//!     WorkloadKind::Bfs.instantiate_tiny(),
//!     MachineConfig::test_config(),
//! );
//! let report = study.full_study(&[0.25]);
//! println!(
//!     "BFS sends {:.0}% of its accesses to the pool when only 25% of its footprint fits locally",
//!     100.0 * report.level2[0].remote_access_ratio
//! );
//! ```

pub use dismem_analysis as analysis;
pub use dismem_core as core;
pub use dismem_lbench as lbench;
pub use dismem_profiler as profiler;
pub use dismem_sched as sched;
pub use dismem_sim as sim;
pub use dismem_trace as trace;
pub use dismem_workloads as workloads;

/// Version of the dismem workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
