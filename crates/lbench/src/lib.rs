//! # dismem-lbench
//!
//! LBench — the paper's benchmark for injecting and quantifying interference
//! on the link to the memory pool (Section 3.2).
//!
//! Two halves:
//!
//! * [`kernel::LBenchKernel`] — the benchmark itself as a [`dismem_workloads::Workload`]:
//!   an array allocated on the memory pool and swept by the FMA-chain kernel
//!   (`beta = beta * A[i] + alpha`, `NFLOP` per element), runnable on the
//!   simulator like any other workload.
//! * [`model::LBenchModel`] — the analytic link-contention model used for the
//!   calibration and validation experiments of Figure 11: configured
//!   intensity → measured level of interference (LoI), raw-counter ("PCM")
//!   traffic with its saturation at the link bandwidth, and the interference
//!   coefficient (IC), which keeps growing past saturation because it
//!   measures queueing rather than throughput.

pub mod coefficient;
pub mod kernel;
pub mod model;

pub use coefficient::app_interference_coefficient;
pub use kernel::{LBenchKernel, LBenchParams};
pub use model::{CalibrationPoint, LBenchModel};
