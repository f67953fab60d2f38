//! In-memory warm-start memo for fleet campaigns.
//!
//! Every cell of a fleet grid begins with the same expensive step: simulate
//! the workload once under the cell's pooling configuration to obtain the
//! profiled [`RunReport`] the Monte Carlo pricing retimes. That run depends
//! only on the cell's *warm prefix* — workload, scale, capacity and link —
//! and the machine configuration those derive, not on the policy or seed
//! axes, so a grid of `P policies × S seeds` would re-simulate each prefix
//! `P × S` times.
//!
//! A [`SnapshotCache`] memoizes the profiled reports of each warm prefix,
//! keyed by `(workload, scale, capacity_permille, link)`. A memoized report
//! serves a cell only when the report's `config`, the configuration it ran
//! under, equals the cell's, so two configurations never share a report.
//! The first cell of a prefix and configuration runs the cold path —
//! exactly [`run_workload`], which cache-less runners call — and stores the
//! report; every later such cell gets a shared handle to it. A warm
//! campaign's report is therefore bit-identical to a cold one's by
//! construction, apart from the [`SnapshotStats`] block that counts the
//! hits and misses.

use dismem_core::CellKey;
use dismem_profiler::{run_workload, RunOptions};
use dismem_sim::{MachineConfig, RunReport};
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Warm-start activity counters for one campaign, reported on
/// [`CampaignReport::snapshot`](crate::campaign::CampaignReport::snapshot).
///
/// `hits + misses` equals the number of cells that went through a
/// cache-enabled runner; all counters are zero for runners without a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Cells whose profiled report came from the memo.
    pub hits: u64,
    /// Cells that found no memoized report for their warm prefix and
    /// configuration, ran the workload and stored the report.
    pub misses: u64,
    /// Always 0: an in-memory memo has no unusable entries to fall back
    /// from. The field keeps the serialized campaign report's schema.
    pub fallbacks: u64,
}

/// The warm prefix of a [`CellKey`]: workload, scale, capacity‰ and link,
/// every axis that shapes the profiled run. Policy and seed only steer the
/// Monte Carlo pricing of the already-profiled report, so they are
/// deliberately absent.
type WarmPrefix = (String, String, u32, String);

/// A memo from warm prefix to the profiled [`RunReport`]s of that prefix,
/// shared by every cell a [`SimCellRunner`](crate::campaign::SimCellRunner)
/// executes. Interior mutability keeps [`CellRunner::run`]'s `&self`
/// contract (the fleet driver is sequential, so plain `Cell`/`RefCell`
/// suffice).
///
/// [`CellRunner::run`]: crate::campaign::CellRunner::run
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    dir: PathBuf,
    memo: RefCell<BTreeMap<WarmPrefix, Vec<Rc<RunReport>>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl SnapshotCache {
    /// Creates an empty memo and the directory `dir` if it is absent. The
    /// memo lives in memory and writes nothing to `dir`; callers keep the
    /// campaign's journals there.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotCache {
            dir,
            memo: RefCell::new(BTreeMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        })
    }

    /// The directory passed to [`SnapshotCache::new`].
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Activity counters accumulated so far.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            fallbacks: 0,
        }
    }

    /// Produces the profiled report for one cell: the memoized report of the
    /// cell's warm prefix that ran under `config`, or — on the first such
    /// cell — `run_workload(workload, &RunOptions::new(config))`, which is
    /// then memoized. Exactly one of `hits` and `misses` is incremented per
    /// call.
    pub fn profiled_report(
        &self,
        key: &CellKey,
        workload: &dyn Workload,
        config: &MachineConfig,
    ) -> Rc<RunReport> {
        let prefix = (
            key.workload.clone(),
            key.scale.clone(),
            key.capacity_permille,
            key.link.clone(),
        );
        // `RunOptions` runs `config` as given, so a report's `config` is the
        // configuration it ran under.
        let memoized = self.memo.borrow().get(&prefix).and_then(|reports| {
            reports
                .iter()
                .find(|report| report.config == *config)
                .cloned()
        });
        if let Some(report) = memoized {
            self.hits.set(self.hits.get() + 1);
            return report;
        }
        self.misses.set(self.misses.get() + 1);
        let report = Rc::new(run_workload(workload, &RunOptions::new(config.clone())));
        self.memo
            .borrow_mut()
            .entry(prefix)
            .or_default()
            .push(Rc::clone(&report));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dismem_workloads::WorkloadKind;

    fn cell(policy: &str, seed: u64) -> CellKey {
        CellKey {
            workload: "Hypre".to_string(),
            scale: "tiny".to_string(),
            policy: policy.to_string(),
            capacity_permille: 500,
            link: "upi".to_string(),
            seed,
        }
    }

    fn pooled() -> (Box<dyn Workload>, MachineConfig) {
        let w = WorkloadKind::Hypre.instantiate_tiny();
        let cfg = dismem_profiler::pooled_config(&MachineConfig::test_config(), w.as_ref(), 0.5);
        (w, cfg)
    }

    fn stats(hits: u64, misses: u64) -> SnapshotStats {
        SnapshotStats {
            hits,
            misses,
            fallbacks: 0,
        }
    }

    #[test]
    fn memo_hits_only_the_same_prefix_and_config() {
        let tmp = std::env::temp_dir().join(format!("dismem-snapmemo-{}", std::process::id()));
        let cache = SnapshotCache::new(&tmp).unwrap();
        let (w, cfg) = pooled();

        let first = cache.profiled_report(&cell("baseline", 1), w.as_ref(), &cfg);
        assert_eq!(cache.stats(), stats(0, 1));
        let other_policy = cache.profiled_report(&cell("aware", 99), w.as_ref(), &cfg);
        assert_eq!(
            cache.stats(),
            stats(1, 1),
            "policy and seed are not part of the warm prefix"
        );
        assert!(Rc::ptr_eq(&first, &other_policy), "a hit shares the report");

        let mut narrower = cell("baseline", 1);
        narrower.capacity_permille = 250;
        cache.profiled_report(&narrower, w.as_ref(), &cfg);
        assert_eq!(cache.stats(), stats(1, 2), "capacity is part of the prefix");

        let mut faster = cfg.clone();
        faster.link.data_bandwidth_bps *= 2.0;
        let second = cache.profiled_report(&cell("baseline", 1), w.as_ref(), &faster);
        assert_eq!(
            cache.stats(),
            stats(1, 3),
            "another config under the same prefix misses"
        );
        assert_eq!(second.config, faster);
        let again = cache.profiled_report(&cell("aware", 2), w.as_ref(), &cfg);
        assert_eq!(cache.stats(), stats(2, 3), "the first config still hits");
        assert!(Rc::ptr_eq(&first, &again));
        let second_again = cache.profiled_report(&cell("aware", 2), w.as_ref(), &faster);
        assert_eq!(cache.stats(), stats(3, 3));
        assert!(Rc::ptr_eq(&second, &second_again));
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn warm_report_is_bit_identical_to_cold_across_hit_and_miss() {
        let tmp = std::env::temp_dir().join(format!("dismem-snapcache-{}", std::process::id()));
        let cache = SnapshotCache::new(&tmp).unwrap();
        assert!(tmp.is_dir(), "new creates the directory");
        let (w, cfg) = pooled();
        let cold = run_workload(w.as_ref(), &RunOptions::new(cfg.clone()));

        let miss = cache.profiled_report(&cell("baseline", 1), w.as_ref(), &cfg);
        assert_eq!(*miss, cold, "miss path must equal cold");
        let hit = cache.profiled_report(&cell("aware", 2), w.as_ref(), &cfg);
        assert_eq!(*hit, cold, "hit path (shared memo entry) must equal cold");
        assert_eq!(cache.stats(), stats(1, 1));
        std::fs::remove_dir_all(&tmp).ok();
    }
}
