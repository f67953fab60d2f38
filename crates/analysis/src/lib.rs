//! # dismem-analysis
//!
//! Analytical models and datasets used throughout the paper:
//!
//! * [`roofline`] — the classic roofline model and its multi-tier extension
//!   (Figure 5 and the memory roofline discussion of Section 5);
//! * [`stats`] — descriptive statistics (five-number summaries for the
//!   box plots of Figure 13, means, percentiles);
//! * [`systems`] — the Top-10 supercomputer memory-configuration dataset with
//!   the DDR/HBM cost model (Table 1) and the memory-evolution timeline
//!   (Figure 1).

pub mod roofline;
pub mod stats;
pub mod systems;

pub use roofline::{MultiTierRoofline, Roofline, RooflinePoint};
pub use stats::{five_number_summary, mean, percentile, FiveNumberSummary};
pub use systems::{
    estimate_costs, memory_evolution, top10_systems, CostEstimate, MemoryTrendPoint, SystemSpec,
};
