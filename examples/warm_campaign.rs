//! Warm-start fleet campaign: one simulation per warm prefix, thousands of
//! cells priced from its memoized report, bit-identical to running every
//! cell cold.
//!
//! The fleet grid deliberately dwarfs the committed tiering study: all six
//! paper workloads × two scheduling policies × three pool capacities × 150
//! seeds = 5400 cells, but only 18 distinct **warm prefixes**
//! (workload × scale × capacity × link). With a [`SnapshotCache`] attached,
//! the first cell of each prefix simulates the workload once and memoizes
//! the profiled report; the other 299 cells of that prefix reuse it instead
//! of re-simulating. The example then proves the contract:
//!
//! 1. a **warm** campaign over a fresh memo — exactly 18 misses and
//!    5400 − 18 hits, zero fallbacks;
//! 2. a **cold** campaign with no memo at all — its report must be
//!    **byte-identical** to the warm one (modulo the stats block);
//! 3. a second campaign on the warm runner, whose memo is now populated —
//!    all hits, and byte-identical again.
//!
//! Any divergence makes the example exit non-zero, so CI runs it as the
//! warm-vs-cold smoke (`DISMEM_QUICK=1` shrinks the grid). The warm report
//! is written to `CAMPAIGN_warm_fleet.json` in `DISMEM_RESULTS_DIR`
//! (default `target/`); the committed copy at the repo root is regenerated
//! by the full run.
//!
//! ```sh
//! cargo run --release --example warm_campaign                # full 5400-cell grid
//! DISMEM_QUICK=1 cargo run --release --example warm_campaign # CI smoke
//! ```

use dismem::sched::{
    run_fleet_campaign, CampaignReport, FaultPlan, FleetSpec, SimCellRunner, SnapshotCache,
    SnapshotStats,
};
use dismem::sim::MachineConfig;
use std::path::{Path, PathBuf};

/// A journal path inside the results directory, cleared of any previous run
/// (fresh campaigns refuse non-empty journals by design).
fn fresh_journal(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Serialized report with the warm-start stats cleared: warm and cold runs
/// legitimately differ there (that block *describes* the memo), so the
/// bit-identity comparison normalizes it and asserts the stats explicitly.
fn normalized_json(report: &CampaignReport) -> String {
    let mut normalized = report.clone();
    normalized.snapshot = SnapshotStats::default();
    serde_json::to_string(&normalized).expect("campaign report serializes")
}

fn main() {
    let quick = dismem_bench::is_quick();
    let config = MachineConfig::scaled_testbed();
    let base_seed = 0xD15C_u64;
    let spec = if quick {
        FleetSpec {
            workloads: vec!["BFS".into(), "XSBench".into()],
            capacities_permille: vec![250, 750],
            seeds: (0..3).map(|i| base_seed + i).collect(),
            ..FleetSpec::tiny_grid(&config)
        }
    } else {
        FleetSpec {
            seeds: (0..150).map(|i| base_seed + i).collect(),
            ..FleetSpec::tiny_grid(&config)
        }
    };
    let cells = spec.cells().len();
    let prefixes = spec.workloads.len()
        * spec.scales.len()
        * spec.capacities_permille.len()
        * spec.links.len();
    println!(
        "fleet grid: {cells} cells over {prefixes} warm prefixes, spec digest {}",
        spec.digest_hex()
    );

    let dir =
        PathBuf::from(std::env::var("DISMEM_RESULTS_DIR").unwrap_or_else(|_| "target".to_string()));
    // `SnapshotCache::new` creates the results directory.
    let cache = match SnapshotCache::new(&dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("could not create results dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    let mut failures: Vec<String> = Vec::new();

    // 1. Warm campaign over a fresh memo: one miss per prefix, the rest hits.
    let warm_runner = SimCellRunner::quick(config.clone()).with_snapshot_cache(cache);
    let warm_path = fresh_journal(&dir, "FLEET_warm.jsonl");
    let warm = match run_fleet_campaign(&spec, &warm_runner, &warm_path, None, &FaultPlan::none()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("warm campaign failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "warm run:    {} cells completed; memo {} misses / {} hits / {} fallbacks",
        warm.completed.len(),
        warm.snapshot.misses,
        warm.snapshot.hits,
        warm.snapshot.fallbacks
    );
    let expected = SnapshotStats {
        hits: (cells - prefixes) as u64,
        misses: prefixes as u64,
        fallbacks: 0,
    };
    if warm.snapshot != expected {
        failures.push(format!(
            "warm-run memo stats {:?} differ from expected {expected:?}",
            warm.snapshot
        ));
    }

    // 2. Cold campaign, no memo: the reports must agree byte for byte.
    let cold_runner = SimCellRunner::quick(config);
    let cold_path = fresh_journal(&dir, "FLEET_cold.jsonl");
    match run_fleet_campaign(&spec, &cold_runner, &cold_path, None, &FaultPlan::none()) {
        Ok(cold) => {
            println!("cold run:    {} cells completed", cold.completed.len());
            if cold.snapshot != SnapshotStats::default() {
                failures.push(format!(
                    "cold run reported memo activity: {:?}",
                    cold.snapshot
                ));
            }
            if normalized_json(&cold) != normalized_json(&warm) {
                failures.push("cold report differs from the warm report".into());
            }
        }
        Err(e) => failures.push(format!("cold campaign failed: {e}")),
    }

    // 3. Re-warm on the warm runner: every prefix is already memoized.
    let rewarm_path = fresh_journal(&dir, "FLEET_rewarm.jsonl");
    match run_fleet_campaign(&spec, &warm_runner, &rewarm_path, None, &FaultPlan::none()) {
        Ok(rewarm) => {
            println!(
                "re-warm run: {} cells completed; memo {} misses / {} hits",
                rewarm.completed.len(),
                rewarm.snapshot.misses,
                rewarm.snapshot.hits
            );
            if rewarm.snapshot.misses != 0 || rewarm.snapshot.hits != cells as u64 {
                failures.push(format!(
                    "re-warm run was not all hits: {:?}",
                    rewarm.snapshot
                ));
            }
            if normalized_json(&rewarm) != normalized_json(&warm) {
                failures.push("re-warm report differs from the warm report".into());
            }
        }
        Err(e) => failures.push(format!("re-warm campaign failed: {e}")),
    }

    // Persist the warm report; the committed CAMPAIGN_warm_fleet.json is the
    // full run's copy of this file.
    let report_path = dir.join("CAMPAIGN_warm_fleet.json");
    match serde_json::to_string(&warm) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&report_path, json) {
                failures.push(format!("could not write {}: {e}", report_path.display()));
            } else {
                println!("[warm report written to {}]", report_path.display());
            }
        }
        Err(e) => failures.push(format!("could not serialize the warm report: {e}")),
    }

    if failures.is_empty() {
        println!(
            "\nAll {cells} cells agree across warm, cold and re-warm runs: reusing \
             {prefixes} memoized reports is bit-identical to simulating every cell."
        );
    } else {
        eprintln!("\nwarm-start contract VIOLATED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
