//! In-memory warm-start memo for fleet campaigns.
//!
//! Every cell of a fleet grid begins with the same expensive step: simulate
//! the workload once under the cell's pooling configuration to obtain the
//! profiled [`RunReport`] the Monte Carlo pricing retimes. That run depends
//! only on the cell's *warm prefix* — workload, scale, capacity, link and
//! the machine-config digest — not on the policy or seed axes, so a grid of
//! `P policies × S seeds` would re-simulate each prefix `P × S` times.
//!
//! A [`SnapshotCache`] memoizes the profiled report per warm prefix, keyed
//! by [`warm_key_digest`] (FNV-1a over the prefix, the journal's digest
//! scheme). The first cell of a prefix runs the cold path — exactly
//! [`run_workload`], which cache-less runners call — and stores the report;
//! every later cell of the prefix gets a clone. A warm campaign's report is
//! therefore bit-identical to a cold one's by construction, apart from the
//! [`SnapshotStats`] block that counts the hits and misses.

use dismem_core::{fnv1a64, CellKey};
use dismem_profiler::{run_workload, RunOptions};
use dismem_sim::{MachineConfig, RunReport};
use dismem_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Warm-start activity counters for one campaign, reported on
/// [`CampaignReport::snapshot`](crate::campaign::CampaignReport::snapshot).
///
/// `hits + misses` equals the number of cells that went through a
/// cache-enabled runner; all counters are zero for runners without a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Cells whose profiled report came from the memo.
    pub hits: u64,
    /// Cells that found no memoized report for their warm prefix, ran the
    /// workload and stored the report.
    pub misses: u64,
    /// Always 0: an in-memory memo has no unusable entries to fall back
    /// from. The field keeps the serialized campaign report's schema.
    pub fallbacks: u64,
}

/// The warm prefix of a [`CellKey`]: every axis that shapes the profiled
/// run. Policy and seed only steer the Monte Carlo pricing of the
/// already-profiled report, so they are deliberately absent — cells differing
/// only in policy/seed share one memoized report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
struct WarmKey {
    workload: String,
    scale: String,
    capacity_permille: u32,
    link: String,
    config_digest: u64,
}

/// Digest of the warm prefix of `key` under `config` (the fully derived
/// pooled configuration the cell runs with). FNV-1a over the serialized
/// warm-key record — the journal's digest scheme, applied to the prefix.
pub fn warm_key_digest(key: &CellKey, config: &MachineConfig) -> u64 {
    let warm = WarmKey {
        workload: key.workload.clone(),
        scale: key.scale.clone(),
        capacity_permille: key.capacity_permille,
        link: key.link.clone(),
        config_digest: config.config_digest(),
    };
    let mut json = String::new();
    Serialize::serialize_json(&warm, &mut json);
    fnv1a64(json.as_bytes())
}

/// A memo from warm-prefix digest to profiled [`RunReport`], shared by every
/// cell a [`SimCellRunner`](crate::campaign::SimCellRunner) executes.
/// Interior mutability keeps [`CellRunner::run`]'s `&self` contract (the
/// fleet driver is sequential, so plain `Cell`/`RefCell` suffice).
///
/// [`CellRunner::run`]: crate::campaign::CellRunner::run
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    dir: PathBuf,
    memo: RefCell<BTreeMap<u64, RunReport>>,
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

    /// Produces the profiled report for one cell: a clone of the memoized
    /// report of the cell's warm prefix, or — on the prefix's first cell —
    /// `run_workload(workload, &RunOptions::new(config))`, which is then
    /// memoized. Exactly one of `hits` and `misses` is incremented per call.
    pub fn profiled_report(
        &self,
        key: &CellKey,
        workload: &dyn Workload,
        config: &MachineConfig,
    ) -> RunReport {
        let digest = warm_key_digest(key, config);
        if let Some(report) = self.memo.borrow().get(&digest) {
            self.hits.set(self.hits.get() + 1);
            return report.clone();
        }
        self.misses.set(self.misses.get() + 1);
        let report = run_workload(workload, &RunOptions::new(config.clone()));
        self.memo.borrow_mut().insert(digest, report.clone());
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

    #[test]
    fn digest_ignores_policy_and_seed_but_not_capacity() {
        let (_, cfg) = pooled();
        let a = warm_key_digest(&cell("baseline", 1), &cfg);
        let b = warm_key_digest(&cell("aware", 99), &cfg);
        assert_eq!(a, b, "policy/seed are not part of the warm prefix");
        let mut narrower = cell("baseline", 1);
        narrower.capacity_permille = 250;
        assert_ne!(warm_key_digest(&narrower, &cfg), a);
    }

    #[test]
    fn warm_report_is_bit_identical_to_cold_across_hit_and_miss() {
        let tmp = std::env::temp_dir().join(format!("dismem-snapcache-{}", std::process::id()));
        let cache = SnapshotCache::new(&tmp).unwrap();
        assert!(tmp.is_dir(), "new creates the directory");
        let (w, cfg) = pooled();
        let cold = run_workload(w.as_ref(), &RunOptions::new(cfg.clone()));

        let miss = cache.profiled_report(&cell("baseline", 1), w.as_ref(), &cfg);
        assert_eq!(miss, cold, "miss path must equal cold");
        let hit = cache.profiled_report(&cell("aware", 2), w.as_ref(), &cfg);
        assert_eq!(hit, cold, "hit path (memo clone) must equal cold");
        assert_eq!(
            cache.stats(),
            SnapshotStats {
                hits: 1,
                misses: 1,
                fallbacks: 0
            }
        );
        std::fs::remove_dir_all(&tmp).ok();
    }
}
