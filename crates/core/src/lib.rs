//! # dismem-core
//!
//! The paper's primary contribution as a library: a three-level quantitative
//! methodology for dissecting an application's requirements on the memory
//! system, from general characteristics, to multi-tier memory, to memory
//! pooling — plus the decision guidance and the application-level case study
//! built on top of it.
//!
//! The intended entry point is [`QuantitativeStudy`]:
//!
//! ```
//! use dismem_core::QuantitativeStudy;
//! use dismem_sim::MachineConfig;
//! use dismem_workloads::WorkloadKind;
//!
//! let study = QuantitativeStudy::new(
//!     WorkloadKind::Hypre.instantiate_tiny(),
//!     MachineConfig::test_config(),
//! );
//! let report = study.full_study(&[0.5]);
//! assert!(!report.level1.phases.is_empty());
//! assert!(report.level3[0].worst_case_performance() <= 1.0);
//! assert!(!report.guidance.notes.is_empty());
//! ```

#![deny(missing_docs)]

pub mod case_bfs;
pub mod cellkey;
pub mod guidance;
pub mod study;

pub use case_bfs::{
    bfs_placement_study, bfs_variant_result, bfs_variant_rows, BfsCaseStudy, BfsVariantResult,
};
pub use cellkey::CellKey;
// Defined in `dismem-trace`, where the simulator's configuration digest
// uses it too.
pub use dismem_trace::fnv1a64;
pub use guidance::{
    derive_guidance, derive_migration_advice, DeploymentAdvice, Guidance, MigrationAdvice,
    PlacementPriority,
};
pub use study::{QuantitativeStudy, StudyReport};
