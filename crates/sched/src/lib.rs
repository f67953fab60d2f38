//! # dismem-sched
//!
//! The interference-aware job-scheduling case study (Section 7.2, Figure 13).
//!
//! The experiment co-locates each workload with a mix of other jobs sharing
//! the same memory pool. The co-runners are represented by a background level
//! of interference on the pool link that is re-drawn at fixed epochs
//! (every 60 s in the paper). Two policies are compared:
//!
//! * **Random baseline** — the scheduler ignores interference, so the
//!   background LoI is drawn uniformly from 0–50 %.
//! * **Interference-aware** — the scheduler avoids co-locating
//!   interference-heavy jobs, cutting off the top of the distribution: the
//!   background LoI is drawn uniformly from 0–20 %.
//!
//! Each workload is run many times under both policies; the runtime
//! distributions (five-number summaries) reproduce Figure 13.

//! A second campaign axis, dynamic tiering, lives in [`tiering`]: the same
//! workloads are re-simulated under page promotion/demotion policies
//! (static / hot-promote / periodic-rebalance, the three
//! [`dismem_sim::TieringSpec`] variants) at one or more local capacities,
//! every (capacity × policy) cell a placement of one walk through
//! [`dismem_profiler::run_workload_lockstep`], and each placement is then
//! priced under the interference campaigns above.
//!
//! Fleet-scale parameter campaigns are driven by the fault-tolerant
//! work-queue in [`campaign`] (see [`campaign::run_fleet_campaign`] and
//! [`campaign::resume_campaign`]): cells are journaled crash-consistently
//! ([`journal`]), panicking cells are retried and quarantined, shards run as
//! independent processes, and the whole contract is proven by the
//! fault-injection harness in [`fault`].
//!
//! ## Randomness is always seeded
//!
//! Every interference schedule is drawn from a `StdRng` seeded with
//! `seed_from_u64`, so a campaign's report is a function of its inputs. The
//! vendored `rand` has no ambient entropy source at all, so none of these
//! compile:
//!
//! ```compile_fail
//! let _rng = rand::thread_rng();
//! ```
//!
//! ```compile_fail
//! let _draw: u64 = rand::random();
//! ```
//!
//! ```compile_fail
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! let _rng = StdRng::from_entropy();
//! ```
//!
//! A seeded generator, with the same imports, does:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(0x5EED);
//! let _draw: u64 = rng.gen();
//! ```

#![deny(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod journal;
pub mod policy;
pub mod snapshot_cache;
pub mod tiering;

pub use campaign::{
    resume_campaign, resume_campaign_traced, run_campaign, run_fleet_campaign,
    run_fleet_campaign_traced, CampaignConfig, CampaignError, CampaignReport, CampaignResult,
    CellRunner, CompletedCell, FailedCell, FleetSpec, PolicyComparison, ResumeStats, Shard,
    SimCellRunner,
};
pub use fault::FaultPlan;
pub use journal::{
    load_journal, merge_shard_journals, CellMetrics, JournalError, JournalRecord, JournalWriter,
    LoadedJournal,
};
pub use policy::SchedulingPolicy;
pub use snapshot_cache::{SnapshotCache, SnapshotStats};
pub use tiering::{
    default_specs, sweep_tiering_matrix, sweep_tiering_policies, CapacityTieringSweep,
    PolicyFailure, TieringOutcome, TieringSweep, WorkloadTieringStudy,
};
