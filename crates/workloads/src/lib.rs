//! # dismem-workloads
//!
//! Proxy implementations of the six HPC applications evaluated in the paper
//! (Table 2): HPL, Hypre, NekRS, BFS (Ligra), SuperLU and XSBench.
//!
//! The proxies are *memory-behaviour* reproductions, not numerical ones: they
//! allocate the same kinds of data structures in the same order, walk them
//! with the same access patterns (blocked dense sweeps, stencil sweeps,
//! element-local tensor work with gather/scatter, frontier-driven graph
//! traversal, supernodal panel updates, Monte-Carlo table lookups) and issue
//! a realistic number of floating-point operations, so that arithmetic
//! intensity, footprint-vs-access skew, prefetch friendliness, phase
//! structure and tier access ratios all come out with the paper's shape.
//!
//! Every workload is written against [`dismem_trace::MemoryEngine`], so the
//! same code runs on the full simulator (`dismem-sim`) or the lightweight
//! trace recorder.

#![warn(missing_docs)]

pub mod apps;
pub mod generators;
pub mod workload;

pub use apps::bfs::{Bfs, BfsOptimization, BfsParams};
pub use apps::hpl::{Hpl, HplParams};
pub use apps::hypre::{Hypre, HypreParams};
pub use apps::nekrs::{NekRs, NekRsParams};
pub use apps::phaseshift::{PhaseShift, PhaseShiftParams};
pub use apps::superlu::{SuperLu, SuperLuParams};
pub use apps::xsbench::{XsBench, XsBenchParams};
pub use workload::{InputScale, Workload, WorkloadKind};
